type time = int64

type label = Name of string | Id of string * int | Link of string * int * int

let render = function
  | Name s -> s
  | Id (prefix, id) -> prefix ^ string_of_int id
  | Link (prefix, src, dst) -> prefix ^ string_of_int src ^ ">" ^ string_of_int dst

(* The heap below is the simulator's hottest loop (PR 2, lifted again in
   PR 9): every index is kept in bounds by the size counter, so the
   unchecked array accesses are justified here. *)
[@@@lint.allow "unsafe-op"]

(* The event queue is a binary min-heap ordered by (fire time, scheduling
   sequence): the sequence number breaks ties so same-time events fire in
   FIFO scheduling order. Cancellation is lazy — a cancelled event stays in
   the heap and is discarded when it surfaces. To keep observable behavior
   identical to the boxed-record queue this replaces, a surfacing cancelled
   event still advances the clock and counts as a step (only its thunk is
   skipped); [pending_events] counts live events only, via a shared counter
   the handle can reach (a cancel has no engine in scope).

   Layout: the heap is three [int array]s — fire time, sequence number and
   payload slot — so a sift compares and moves unboxed ints only and pays
   no write barrier (virtual nanoseconds fit comfortably in 63 bits, ~146
   years). An event's handle, label and thunk live in a slot pool beside
   the heap: written once when the event is pushed, scrubbed once when it
   is popped (so fired thunks and their closures are never retained), and
   never moved. Heap and pool share one capacity, and [slot_a] holds a
   permutation of the slots: positions [0, size) name the queued events'
   slots, positions [size, capacity) the free ones, so a push takes the
   free slot at position [size] and a pop leaves the freed slot at the
   position the heap gave up. There is no per-event record — scheduling
   allocates exactly one [handle]. *)

type handle = {
  mutable state : [ `Pending | `Fired | `Cancelled ];
  live : int ref; (* the owning engine's live-event counter *)
}

type t = {
  mutable clock : int; (* virtual ns, unboxed *)
  (* boxed mirror of [clock], synced lazily by [now]: [step] advances the
     clock with a plain int store, and the box is (re)allocated at most
     once per observed clock change instead of once per event *)
  mutable clock_box : time;
  (* the heap; positions [0, size) are the queue *)
  mutable at_a : int array;
  mutable seq_a : int array;
  mutable slot_a : int array;
  (* the slot pool, indexed by slot *)
  mutable handle_p : handle array;
  mutable label_p : label option array;
  mutable thunk_p : (unit -> unit) array;
  mutable size : int;
  mutable seq : int;
  live : int ref;
  rng : Bft_util.Rng.t;
  mutable fired : int; (* live thunks actually run *)
  mutable max_size : int; (* heap occupancy high-water mark *)
}

let dummy_thunk = ignore
let dummy_handle = { state = `Fired; live = ref 0 }

let create ?(seed = 1L) () =
  {
    clock = 0;
    clock_box = 0L;
    at_a = [||];
    seq_a = [||];
    slot_a = [||];
    handle_p = [||];
    label_p = [||];
    thunk_p = [||];
    size = 0;
    seq = 0;
    live = ref 0;
    rng = Bft_util.Rng.create seed;
    fired = 0;
    max_size = 0;
  }

let now t =
  if Int64.to_int t.clock_box <> t.clock then t.clock_box <- Int64.of_int t.clock;
  t.clock_box

let rng t = t.rng

(* Hole-movement sifts over the three int arrays. *)
let sift_up t i =
  let at_a = t.at_a and seq_a = t.seq_a and slot_a = t.slot_a in
  let at = Array.unsafe_get at_a i
  and sq = Array.unsafe_get seq_a i
  and sl = Array.unsafe_get slot_a i in
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pat = Array.unsafe_get at_a parent in
    if pat > at || (pat = at && Array.unsafe_get seq_a parent > sq) then begin
      Array.unsafe_set at_a !i pat;
      Array.unsafe_set seq_a !i (Array.unsafe_get seq_a parent);
      Array.unsafe_set slot_a !i (Array.unsafe_get slot_a parent);
      i := parent
    end
    else continue := false
  done;
  Array.unsafe_set at_a !i at;
  Array.unsafe_set seq_a !i sq;
  Array.unsafe_set slot_a !i sl

let sift_down t size i =
  let at_a = t.at_a and seq_a = t.seq_a and slot_a = t.slot_a in
  let at = Array.unsafe_get at_a i
  and sq = Array.unsafe_get seq_a i
  and sl = Array.unsafe_get slot_a i in
  let i = ref i in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= size then continue := false
    else begin
      let r = l + 1 in
      let child =
        if
          r < size
          &&
          let rat = Array.unsafe_get at_a r and lat = Array.unsafe_get at_a l in
          rat < lat || (rat = lat && Array.unsafe_get seq_a r < Array.unsafe_get seq_a l)
        then r
        else l
      in
      let cat = Array.unsafe_get at_a child in
      if cat < at || (cat = at && Array.unsafe_get seq_a child < sq) then begin
        Array.unsafe_set at_a !i cat;
        Array.unsafe_set seq_a !i (Array.unsafe_get seq_a child);
        Array.unsafe_set slot_a !i (Array.unsafe_get slot_a child);
        i := child
      end
      else continue := false
    end
  done;
  Array.unsafe_set at_a !i at;
  Array.unsafe_set seq_a !i sq;
  Array.unsafe_set slot_a !i sl

(* Called when the heap is full, so every slot is in use: double
   everything; the new positions hold the new, free slots. *)
let grow t =
  let old = Array.length t.at_a in
  let cap = max 64 (2 * old) in
  let extend a fill =
    let a' = Array.make cap fill in
    Array.blit a 0 a' 0 old;
    a'
  in
  t.at_a <- extend t.at_a 0;
  t.seq_a <- extend t.seq_a 0;
  let slot_a = t.slot_a in
  t.slot_a <- Array.init cap (fun i -> if i < old then slot_a.(i) else i);
  t.handle_p <- extend t.handle_p dummy_handle;
  t.label_p <- extend t.label_p None;
  t.thunk_p <- extend t.thunk_p dummy_thunk

let push t ~at ~seq ~handle ~label ~thunk =
  if t.size = Array.length t.at_a then grow t;
  let i = t.size in
  let slot = Array.unsafe_get t.slot_a i in
  Array.unsafe_set t.handle_p slot handle;
  Array.unsafe_set t.label_p slot label;
  Array.unsafe_set t.thunk_p slot thunk;
  Array.unsafe_set t.at_a i at;
  Array.unsafe_set t.seq_a i seq;
  t.size <- i + 1;
  sift_up t i;
  if t.size > t.max_size then t.max_size <- t.size

let schedule_at_i ?label t at thunk =
  let at = if at < t.clock then t.clock else at in
  let seq = t.seq in
  t.seq <- t.seq + 1;
  let handle = { state = `Pending; live = t.live } in
  push t ~at ~seq ~handle ~label ~thunk;
  incr t.live;
  handle

let schedule_at ?label t at thunk = schedule_at_i ?label t (Int64.to_int at) thunk

let schedule ?label t ~delay thunk =
  if Int64.compare delay 0L < 0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at_i ?label t (t.clock + Int64.to_int delay) thunk

let cancel handle =
  if handle.state = `Pending then begin
    handle.state <- `Cancelled;
    decr handle.live
  end

let is_pending handle = handle.state = `Pending
let pending_events t = !(t.live)

let step t =
  if t.size = 0 then false
  else begin
    let at = Array.unsafe_get t.at_a 0 in
    let slot = Array.unsafe_get t.slot_a 0 in
    let last = t.size - 1 in
    t.size <- last;
    if last > 0 then begin
      Array.unsafe_set t.at_a 0 (Array.unsafe_get t.at_a last);
      Array.unsafe_set t.seq_a 0 (Array.unsafe_get t.seq_a last);
      Array.unsafe_set t.slot_a 0 (Array.unsafe_get t.slot_a last);
      Array.unsafe_set t.slot_a last slot;
      if last > 1 then sift_down t last 0
    end;
    let handle = Array.unsafe_get t.handle_p slot in
    let thunk = Array.unsafe_get t.thunk_p slot in
    Array.unsafe_set t.handle_p slot dummy_handle;
    Array.unsafe_set t.label_p slot None;
    Array.unsafe_set t.thunk_p slot dummy_thunk;
    if at <> t.clock then begin
      t.clock <- at;
      t.clock_box <- Int64.of_int at
    end;
    if handle.state = `Pending then begin
      handle.state <- `Fired;
      decr t.live;
      t.fired <- t.fired + 1;
      thunk ()
    end;
    true
  end

let events_fired t = t.fired
let max_heap_size t = t.max_size

let slot_pending t i =
  (Array.unsafe_get t.handle_p (Array.unsafe_get t.slot_a i)).state = `Pending

(* Live-event introspection for the explorer: an O(size) scan of the heap
   (positions [0, size) hold the queue in heap order, not sorted order),
   skipping lazily-cancelled entries. Builds one list per call — for the
   explorer's step loop, not the simulation hot path — and is the only
   place a label becomes text. *)
let live_events t =
  let acc = ref [] in
  for i = t.size - 1 downto 0 do
    if slot_pending t i then
      acc :=
        ( Array.unsafe_get t.at_a i,
          Array.unsafe_get t.seq_a i,
          Array.unsafe_get t.label_p (Array.unsafe_get t.slot_a i) )
        :: !acc
  done;
  List.sort
    (fun (a, sa, _) (b, sb, _) ->
      match Int.compare a b with 0 -> Int.compare sa sb | c -> c)
    !acc
  |> List.map (fun (at, _, label) -> (Int64.of_int at, Option.map render label))

(* Sentinel scan: a plain int minimum over the live entries, allocating
   only the final [Some]. *)
let next_live_time t =
  let best = ref max_int in
  for i = 0 to t.size - 1 do
    let at = Array.unsafe_get t.at_a i in
    if at < !best && slot_pending t i then best := at
  done;
  if !best = max_int then None else Some (Int64.of_int !best)

(* a runaway guard *)
let max_events = 100_000_000

let run ?until t =
  let until_i = match until with None -> max_int | Some u -> Int64.to_int u in
  let rec loop remaining =
    if remaining <= 0 then ()
    else if t.size = 0 then ()
    else if Array.unsafe_get t.at_a 0 > until_i then ()
    else if step t then loop (remaining - 1)
  in
  loop max_events

let run_while t ?until pred =
  let until_i = match until with None -> max_int | Some u -> Int64.to_int u in
  let rec loop () =
    if not (pred ()) then false
    else if t.size = 0 then true
    else if Array.unsafe_get t.at_a 0 > until_i then true
    else begin
      ignore (step t);
      loop ()
    end
  in
  loop ()

let us n = Int64.of_int (n * 1_000)
let ms n = Int64.of_int (n * 1_000_000)
let sec n = Int64.of_int (n * 1_000_000_000)
let of_us_float f = Int64.of_float (f *. 1_000.0)
let to_us t = Int64.to_float t /. 1_000.0
let to_ms t = Int64.to_float t /. 1_000_000.0
