[@@@lint.protocol_core]
type digest = string

type entry = {
  seq : int;
  mutable pp : Message.pre_prepare option;
  mutable pp_digest : digest option;
  mutable pp_view : int;
  mutable self_preprepared : bool;
  prepares : (int * digest) option array;
  commits : (int * digest) option array;
  mutable executed : bool;
}

(* A ring of [log_size] slots: sequence number [n] lives in slot
   [n mod log_size], and a slot holds [n]'s entry only when the entry's
   [seq] is [n]. The window [h+1 .. h+log_size] covers every slot once, so
   a stale entry (seq <= h) can never be mistaken for a live one; [truncate]
   still clears the slots it retires so their batches can be collected.

   Beside each slot's entry, the log counts the votes that make its
   certificates as they arrive: prepares from backups of the accepted
   pre-prepare's view matching its (view, digest), and commits matching
   its digest. Only this module writes them, so [prepared] and
   [committed] read two integers. *)
type t = {
  cfg : Config.t;
  mutable h : int;
  slots : entry array;
  n_prepares : int array; (* per slot: matching prepares from backups *)
  n_commits : int array; (* per slot: commits matching the digest *)
}

let vacant =
  {
    seq = min_int;
    pp = None;
    pp_digest = None;
    pp_view = -1;
    self_preprepared = false;
    prepares = [||];
    commits = [||];
    executed = false;
  }

let create cfg =
  let l = cfg.Config.log_size in
  { cfg; h = 0; slots = Array.make l vacant; n_prepares = Array.make l 0; n_commits = Array.make l 0 }
let low_mark t = t.h
let in_window t n = Config.in_window t.cfg ~h:t.h n
let slot t n = n mod t.cfg.Config.log_size

(* The live entry for [n], or [vacant]; allocation-free. *)
let live t n =
  if in_window t n then
    let e = t.slots.(slot t n) in
    if e.seq = n then e else vacant
  else vacant

let entry t n =
  let e = live t n in
  if e == vacant then None else Some e

let find t n =
  if not (in_window t n) then
    invalid_arg (Printf.sprintf "Log: seq %d outside window (h=%d)" n t.h);
  let e = live t n in
  if e != vacant then e
  else begin
    let n_replicas = t.cfg.Config.n in
    let e =
      {
        seq = n;
        pp = None;
        pp_digest = None;
        pp_view = -1;
        self_preprepared = false;
        prepares = Array.make n_replicas None;
        commits = Array.make n_replicas None;
        executed = false;
      }
    in
    let i = slot t n in
    t.slots.(i) <- e;
    t.n_prepares.(i) <- 0;
    t.n_commits.(i) <- 0;
    e
  end

(* Does replica [r]'s vote count towards [e]'s certificates? *)
let prepare_counts t e r = function
  | Some (v, d') -> (
      match e.pp_digest with
      | Some d -> v = e.pp_view && r <> Config.primary t.cfg ~view:v && String.equal d' d
      | None -> false)
  | None -> false

let commit_counts e = function
  | Some (_, d') -> ( match e.pp_digest with Some d -> String.equal d' d | None -> false)
  | None -> false

let accept_pre_prepare t ~view pp d =
  let e = find t pp.Message.pp_seq in
  match e.pp_digest with
  | Some d' when e.pp_view = view && not (String.equal d' d) -> false
  | _ ->
      e.pp <- Some pp;
      e.pp_digest <- Some d;
      e.pp_view <- view;
      let np = ref 0 and nc = ref 0 in
      for r = 0 to Array.length e.prepares - 1 do
        if prepare_counts t e r e.prepares.(r) then incr np;
        if commit_counts e e.commits.(r) then incr nc
      done;
      t.n_prepares.(slot t e.seq) <- !np;
      t.n_commits.(slot t e.seq) <- !nc;
      true

let is_replica t i = i >= 0 && i < t.cfg.Config.n

(* Prepares and commits may arrive before the pre-prepare is accepted
   (out-of-order delivery, deferred authentication): create the entry. A
   vote replaces the sender's earlier one, and the slot's count moves by
   the difference. *)
let add_prepare t (p : Message.prepare) =
  if in_window t p.pr_seq && is_replica t p.pr_replica then begin
    let e = find t p.pr_seq and r = p.pr_replica and i = slot t p.pr_seq in
    let vote = Some (p.pr_view, p.pr_digest) in
    t.n_prepares.(i) <-
      t.n_prepares.(i)
      + Bool.to_int (prepare_counts t e r vote)
      - Bool.to_int (prepare_counts t e r e.prepares.(r));
    e.prepares.(r) <- vote
  end

let add_commit t (c : Message.commit) =
  if in_window t c.cm_seq && is_replica t c.cm_replica then begin
    let e = find t c.cm_seq and r = c.cm_replica and i = slot t c.cm_seq in
    let vote = Some (c.cm_view, c.cm_digest) in
    t.n_commits.(i) <-
      t.n_commits.(i) + Bool.to_int (commit_counts e vote) - Bool.to_int (commit_counts e e.commits.(r));
    e.commits.(r) <- vote
  end

let mark_self_preprepared t n = (find t n).self_preprepared <- true
let mark_executed t n = (find t n).executed <- true

(* Condition 2 reads one entry: the backups' prepares that match [view]
   and [d] at [seq], one per replica id by construction. *)
let vouchers t ~view ~seq d =
  let primary = Config.primary t.cfg ~view and count = ref 0 in
  Array.iteri
    (fun r -> function
      | Some (v, d') when v = view && r <> primary && String.equal d' d -> incr count
      | _ -> ())
    (live t seq).prepares;
  !count

let counts t ~seq =
  let e = live t seq in
  if e == vacant then (0, 0) else (t.n_prepares.(slot t seq), t.n_commits.(slot t seq))

let prepared t ~view ~seq =
  let e = live t seq in
  e != vacant && e.pp_view = view && Option.is_some e.pp_digest
  && t.n_prepares.(slot t seq) >= 2 * t.cfg.Config.f

(* [prepared] implies a live entry, so its slot's count is [seq]'s *)
let committed t ~view ~seq =
  prepared t ~view ~seq && t.n_commits.(slot t seq) >= Config.quorum t.cfg

let max_prepared t ~view =
  let best = ref 0 in
  for n = t.h + 1 to t.h + t.cfg.Config.log_size do
    if prepared t ~view ~seq:n then best := n
  done;
  !best

let truncate t n =
  if n > t.h then begin
    for k = t.h + 1 to min n (t.h + t.cfg.Config.log_size) do
      t.slots.(slot t k) <- vacant
    done;
    t.h <- n
  end

let iter_window t f =
  for n = t.h + 1 to t.h + t.cfg.Config.log_size do
    let e = live t n in
    if e != vacant then f e
  done

let digest t b =
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let hexd = Bft_util.Hex.encode in
  let votes tag =
    Array.iteri (fun k vote ->
        match vote with Some (v, d) -> add "%s%d:%d:%s;" tag k v (hexd d) | None -> ())
  in
  iter_window t
    (fun
      { seq; pp_view; self_preprepared; executed; pp_digest; prepares; commits;
        pp = _ (* identified by pp_digest *) }
    ->
      add "L%d pv=%d self=%b ex=%b d=%s(" seq pp_view self_preprepared executed
        (match pp_digest with Some d -> hexd d | None -> "-");
      votes "p" prepares;
      votes "c" commits;
      add ")")

let clear_entries t = Array.fill t.slots 0 (Array.length t.slots) vacant

type claim = Unclaimed | Claimed_prepared | Claimed_committed

(* One pass over each list into a window-sized mark; committed overrides
   prepared. A peer controls these lists (duplicates, any order, any
   length, seqnos outside our window), so the cost stays O(W + list
   length) and only in-window seqnos are kept. *)
let claims t ~prepared ~committed =
  let h = t.h and l = t.cfg.Config.log_size in
  let marks = Array.make l Unclaimed in
  let mark c n = if Config.in_window t.cfg ~h n then marks.(n mod l) <- c in
  List.iter (mark Claimed_prepared) prepared;
  List.iter (mark Claimed_committed) committed;
  fun n -> if Config.in_window t.cfg ~h n then marks.(n mod l) else Unclaimed
