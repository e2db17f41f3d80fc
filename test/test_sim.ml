(* Tests for the discrete-event engine. *)

open Bft_sim

let test_empty_run () =
  let e = Engine.create () in
  Engine.run e;
  Alcotest.(check int64) "time stays 0" 0L (Engine.now e)

let test_ordering () =
  let e = Engine.create () in
  let order = ref [] in
  let record tag () = order := tag :: !order in
  ignore (Engine.schedule e ~delay:(Engine.us 30) (record "c"));
  ignore (Engine.schedule e ~delay:(Engine.us 10) (record "a"));
  ignore (Engine.schedule e ~delay:(Engine.us 20) (record "b"));
  Engine.run e;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !order);
  Alcotest.(check int64) "final clock" (Engine.us 30) (Engine.now e)

let test_same_time_fifo () =
  let e = Engine.create () in
  let order = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule e ~delay:(Engine.us 10) (fun () -> order := i :: !order))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo at equal times" [ 1; 2; 3; 4; 5 ] (List.rev !order)

let test_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule e ~delay:(Engine.us 10) (fun () -> fired := true) in
  Alcotest.(check bool) "pending" true (Engine.is_pending h);
  Engine.cancel h;
  Alcotest.(check bool) "not pending" false (Engine.is_pending h);
  Engine.run e;
  Alcotest.(check bool) "cancelled does not fire" false !fired;
  Engine.cancel h (* idempotent *)

let test_nested_scheduling () =
  let e = Engine.create () in
  let times = ref [] in
  ignore
    (Engine.schedule e ~delay:(Engine.us 5) (fun () ->
         times := Engine.now e :: !times;
         ignore
           (Engine.schedule e ~delay:(Engine.us 7) (fun () ->
                times := Engine.now e :: !times))));
  Engine.run e;
  Alcotest.(check (list int64)) "nested times" [ Engine.us 5; Engine.us 12 ] (List.rev !times)

let test_run_until_deadline () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    ignore (Engine.schedule e ~delay:(Engine.ms 1) tick)
  in
  ignore (Engine.schedule e ~delay:0L tick);
  Engine.run ~until:(Engine.ms 10) e;
  (* ticks at 0,1,...,10 ms = 11 events *)
  Alcotest.(check int) "ticks" 11 !count;
  Alcotest.(check bool) "queue still has next tick" true (Engine.pending_events e > 0)

let test_run_while () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    ignore (Engine.schedule e ~delay:(Engine.ms 1) tick)
  in
  ignore (Engine.schedule e ~delay:0L tick);
  let exhausted = Engine.run_while e (fun () -> !count < 5) in
  Alcotest.(check bool) "condition reached" false exhausted;
  Alcotest.(check int) "stopped at 5" 5 !count

let test_schedule_at_past_clamped () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~delay:(Engine.us 10) (fun () -> ()));
  Engine.run e;
  let fired_at = ref (-1L) in
  ignore (Engine.schedule_at e 0L (fun () -> fired_at := Engine.now e));
  Engine.run e;
  Alcotest.(check int64) "clamped to now" (Engine.us 10) !fired_at

let test_negative_delay_rejected () =
  let e = Engine.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: negative delay") (fun () ->
      ignore (Engine.schedule e ~delay:(-1L) (fun () -> ())))

let test_determinism_same_seed () =
  (* identical program + seed produces identical event interleavings and
     rng draws *)
  let run seed =
    let e = Engine.create ~seed () in
    let rng = Engine.rng e in
    let log = Buffer.create 64 in
    for i = 1 to 20 do
      let delay = Engine.us (Bft_util.Rng.int rng 100) in
      ignore
        (Engine.schedule e ~delay (fun () ->
             Buffer.add_string log (Printf.sprintf "%d@%Ld;" i (Engine.now e))))
    done;
    Engine.run e;
    Buffer.contents log
  in
  Alcotest.(check string) "same seed same trace" (run 123L) (run 123L);
  Alcotest.(check bool) "different seed different trace" true
    (not (String.equal (run 123L) (run 124L)))

let test_time_helpers () =
  Alcotest.(check int64) "us" 1_000L (Engine.us 1);
  Alcotest.(check int64) "ms" 1_000_000L (Engine.ms 1);
  Alcotest.(check int64) "sec" 1_000_000_000L (Engine.sec 1);
  Alcotest.(check (float 1e-9)) "to_us" 1.5 (Engine.to_us 1_500L);
  Alcotest.(check int64) "of_us_float" 2_500L (Engine.of_us_float 2.5)

(* --- model check ---

   The engine against a reference: a list of events sorted by (time, seq).
   Random schedules mix same-time ties, cancels before and after an event
   surfaces, events scheduled from inside a firing thunk, and bursts that
   grow the queue across several capacity doublings. *)

type op =
  | Sched of int * int option  (** delay, and the delay of a child the thunk schedules *)
  | Burst of int * int  (** count, delay spread *)
  | Cancel of int  (** the k-th event scheduled so far, mod the count *)
  | Step

let show_op = function
  | Sched (d, c) ->
      Printf.sprintf "sched %d%s" d (match c with Some c -> Printf.sprintf "+%d" c | None -> "")
  | Burst (n, s) -> Printf.sprintf "burst %dx%d" n s
  | Cancel k -> Printf.sprintf "cancel %d" k
  | Step -> "step"

module Model = struct
  type ev = {
    id : int; (* also the scheduling sequence number *)
    at : int;
    child : int option;
    mutable state : [ `Pending | `Fired | `Cancelled ];
  }

  type t = {
    mutable clock : int;
    mutable queue : ev list; (* sorted by (at, id); cancelled ones included *)
    mutable len : int; (* of [queue] *)
    evs : (int, ev) Hashtbl.t; (* every event, by id *)
    mutable fired : int list; (* newest first *)
    mutable max_queue : int;
  }

  let create () =
    { clock = 0; queue = []; len = 0; evs = Hashtbl.create 64; fired = []; max_queue = 0 }

  let schedule m ~delay ~child =
    let ev = { id = Hashtbl.length m.evs; at = m.clock + delay; child; state = `Pending } in
    Hashtbl.replace m.evs ev.id ev;
    m.queue <- List.merge (fun a b -> compare (a.at, a.id) (b.at, b.id)) m.queue [ ev ];
    m.len <- m.len + 1;
    m.max_queue <- max m.max_queue m.len

  let step m =
    match m.queue with
    | [] -> false
    | ev :: rest ->
        m.queue <- rest;
        m.len <- m.len - 1;
        m.clock <- ev.at;
        if ev.state = `Pending then begin
          ev.state <- `Fired;
          m.fired <- ev.id :: m.fired;
          Option.iter (fun delay -> schedule m ~delay ~child:None) ev.child
        end;
        true

  let cancel m id =
    let ev = Hashtbl.find m.evs id in
    if ev.state = `Pending then ev.state <- `Cancelled

  let pending m = List.filter (fun ev -> ev.state = `Pending) m.queue
end

let gen_ops =
  QCheck.Gen.(
    let op =
      frequency
        [
          (6, map2 (fun d c -> Sched (d, c)) (int_range 0 20) (opt (int_range 0 10)));
          (1, map2 (fun n s -> Burst (n, s)) (int_range 20 100) (int_range 1 40));
          (3, map (fun k -> Cancel k) (int_range 0 10_000));
          (6, return Step);
        ]
    in
    list_size (int_range 0 150) op)

let prop_engine_matches_model =
  QCheck.Test.make ~name:"engine agrees with sorted-list model" ~count:100
    (QCheck.make ~print:(fun ops -> String.concat "; " (List.map show_op ops)) gen_ops)
    (fun ops ->
      let e = Engine.create () and m = Model.create () in
      let handles = Hashtbl.create 64 and fired = ref [] and n = ref 0 in
      let rec schedule ~delay ~child =
        let id = !n in
        incr n;
        let thunk () =
          fired := id :: !fired;
          Option.iter (fun delay -> schedule ~delay ~child:None) child
        in
        Hashtbl.replace handles id
          (Engine.schedule ~label:(Engine.Id ("e", id)) e ~delay:(Int64.of_int delay) thunk)
      in
      let both ~delay ~child =
        schedule ~delay ~child;
        Model.schedule m ~delay ~child
      in
      let agree what =
        let fail fmt = QCheck.Test.fail_reportf ("after %s: " ^^ fmt) what in
        if Engine.now e <> Int64.of_int m.Model.clock then fail "now";
        if !fired <> m.Model.fired then fail "firing order";
        let pending = Model.pending m in
        if Engine.pending_events e <> List.length pending then fail "pending_events";
        if Engine.events_fired e <> List.length m.Model.fired then fail "events_fired";
        if Engine.max_heap_size e <> m.Model.max_queue then fail "max_heap_size";
        let live =
          List.map (fun ev -> (Int64.of_int ev.Model.at, Some ("e" ^ string_of_int ev.id))) pending
        in
        if Engine.live_events e <> live then fail "live_events";
        let next = match pending with ev :: _ -> Some (Int64.of_int ev.Model.at) | [] -> None in
        if Engine.next_live_time e <> next then fail "next_live_time";
        Hashtbl.iter
          (fun id (ev : Model.ev) ->
            if Engine.is_pending (Hashtbl.find handles id) <> (ev.state = `Pending) then
              fail "is_pending %d" id)
          m.Model.evs
      in
      List.iter
        (fun op ->
          (match op with
          | Sched (delay, child) -> both ~delay ~child
          | Burst (count, spread) ->
              for i = 0 to count - 1 do
                both ~delay:(i * 7 mod spread) ~child:(if i mod 3 = 0 then Some 0 else None)
              done
          | Cancel k ->
              if !n > 0 then begin
                Engine.cancel (Hashtbl.find handles (k mod !n));
                Model.cancel m (k mod !n)
              end
          | Step ->
              if Engine.step e <> Model.step m then QCheck.Test.fail_reportf "step result");
          agree (show_op op))
        ops;
      while Model.step m do
        if not (Engine.step e) then QCheck.Test.fail_reportf "engine drained early"
      done;
      if Engine.step e then QCheck.Test.fail_reportf "engine outlived the model";
      agree "drain";
      true)

let suites =
  [
    ( "sim.engine",
      [
        Alcotest.test_case "empty run" `Quick test_empty_run;
        Alcotest.test_case "ordering" `Quick test_ordering;
        Alcotest.test_case "same-time fifo" `Quick test_same_time_fifo;
        Alcotest.test_case "cancel" `Quick test_cancel;
        Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
        Alcotest.test_case "run until deadline" `Quick test_run_until_deadline;
        Alcotest.test_case "run while" `Quick test_run_while;
        Alcotest.test_case "schedule_at clamped" `Quick test_schedule_at_past_clamped;
        Alcotest.test_case "negative delay" `Quick test_negative_delay_rejected;
        Alcotest.test_case "determinism" `Quick test_determinism_same_seed;
        Alcotest.test_case "time helpers" `Quick test_time_helpers;
        QCheck_alcotest.to_alcotest prop_engine_matches_model;
      ] );
  ]
