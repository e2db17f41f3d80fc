[@@@lint.protocol_core]
open Message

type stored = {
  sr_req : request;
  sr_token : auth_token;
  sr_verified : bool; (* we checked our MAC / the signature directly *)
}

type t = {
  requests : (string, stored) Hashtbl.t; (* request digest -> body *)
  batches : (string, batch_elem list * string) Hashtbl.t; (* digest -> batch, nondet *)
  (* primary FIFO of requests awaiting assignment: two-list queue so that
     enqueue is O(1) — the plain-list [q @ [r]] append cost O(n) per arrival
     and O(n^2) across a deep open-loop backlog. [queue_back] is reversed;
     FIFO order is [queue_front @ List.rev queue_back]. *)
  mutable queue_front : request list;
  mutable queue_back : request list;
  mutable queue_len : int;
  queued : (string, unit) Hashtbl.t; (* digests present in the queue *)
  (* digests assigned to a batch but not yet executed: retransmissions of
     an in-flight request must not be assigned a second sequence number *)
  assigned : (string, unit) Hashtbl.t;
  (* client-request waiting set: request digest -> arrival time (virtual
     nanoseconds); drives the vc timer. The arrival time feeds the primary
     performance watchdog only — the digest serializes the keys alone, so
     the clock values never leak into explorer state identity. *)
  waiting : (string, int64) Hashtbl.t;
  mutable pending_ro : request list; (* newest first *)
  (* pre-prepares awaiting authentication or bodies, each with its
     charged wire size, newest first *)
  mutable deferred_pps : (pre_prepare * int) list;
}

let create () =
  {
    requests = Hashtbl.create 64;
    batches = Hashtbl.create 64;
    queue_front = [];
    queue_back = [];
    queue_len = 0;
    queued = Hashtbl.create 16;
    assigned = Hashtbl.create 16;
    waiting = Hashtbl.create 16;
    pending_ro = [];
    deferred_pps = [];
  }

let find t d = Hashtbl.find_opt t.requests d
let mem t d = Hashtbl.mem t.requests d

let store_request t req token verified =
  let d = Wire.request_digest req in
  (match Hashtbl.find_opt t.requests d with
  | Some sr when sr.sr_verified -> ()
  | _ -> Hashtbl.replace t.requests d { sr_req = req; sr_token = token; sr_verified = verified });
  d

let resolve_elem t elem =
  match elem with
  | Inline (r, _) -> Some r
  | By_digest d -> Option.map (fun sr -> sr.sr_req) (Hashtbl.find_opt t.requests d)

let find_batch t d = Hashtbl.find_opt t.batches d

let have_batch_bodies t digest =
  match Hashtbl.find_opt t.batches digest with
  | None -> String.equal digest Wire.null_batch_digest
  | Some (batch, _) -> List.for_all (fun e -> Option.is_some (resolve_elem t e)) batch

let store_batch t d batch nondet =
  Hashtbl.replace t.batches d (batch, nondet);
  List.iter
    (function Inline (r, tok) -> ignore (store_request t r tok false) | By_digest _ -> ())
    batch

let queue_len t = t.queue_len

let enqueue t r =
  let d = Wire.request_digest r in
  if Hashtbl.mem t.queued d || Hashtbl.mem t.assigned d then false
  else begin
    t.queue_back <- r :: t.queue_back;
    t.queue_len <- t.queue_len + 1;
    Hashtbl.replace t.queued d ();
    true
  end

let take t k =
  let rec go k acc =
    if k <= 0 then List.rev acc
    else
      match t.queue_front with
      | r :: tl ->
          t.queue_front <- tl;
          t.queue_len <- t.queue_len - 1;
          go (k - 1) (r :: acc)
      | [] ->
          if List.is_empty t.queue_back then List.rev acc
          else begin
            t.queue_front <- List.rev t.queue_back;
            t.queue_back <- [];
            go k acc
          end
  in
  let chosen = go k [] in
  List.iter
    (fun r ->
      let d = Wire.request_digest r in
      Hashtbl.remove t.queued d;
      Hashtbl.replace t.assigned d ())
    chosen;
  chosen

let unassign t d = Hashtbl.remove t.assigned d
let clear_assigned t = Hashtbl.reset t.assigned

let in_pipeline t d =
  Hashtbl.mem t.queued d || Hashtbl.mem t.assigned d || Hashtbl.mem t.waiting d

(* Computed from the live tables rather than a shadow counter so it can
   never leak and permanently starve a client; the tables are
   quota-bounded per client, so the scan stays small. *)
let client_inflight t client =
  let mine d =
    match Hashtbl.find_opt t.requests d with
    | Some sr -> sr.sr_req.client = client
    | None -> false
  in
  (* a digest counts in the first table that holds it, so no seen-set;
     [mine] goes first because most entries are other clients' *)
  let queued = Hashtbl.fold (fun d () n -> if mine d then n + 1 else n) t.queued 0 in
  let assigned =
    Hashtbl.fold
      (fun d () n -> if mine d && not (Hashtbl.mem t.queued d) then n + 1 else n)
      t.assigned 0
  in
  Hashtbl.fold
    (fun d (_ : int64) n ->
      if mine d && (not (Hashtbl.mem t.queued d)) && not (Hashtbl.mem t.assigned d) then n + 1
      else n)
    t.waiting (queued + assigned)

let note_waiting t d ~now =
  if Hashtbl.mem t.waiting d then false
  else begin
    Hashtbl.replace t.waiting d now;
    true
  end

let clear_waiting t d =
  let arrival = Hashtbl.find_opt t.waiting d in
  if Option.is_some arrival then Hashtbl.remove t.waiting d;
  arrival

let waiting_empty t = Hashtbl.length t.waiting = 0

let purge_superseded t ~client ~ts =
  let dead =
    Hashtbl.fold
      (fun d (_ : int64) acc ->
        match Hashtbl.find_opt t.requests d with
        | Some sr
          when sr.sr_req.client = client && Int64.compare sr.sr_req.timestamp ts <= 0 ->
            d :: acc
        | _ -> acc)
      t.waiting []
  in
  List.iter (Hashtbl.remove t.waiting) dead;
  not (List.is_empty dead)

let waiting_requests t =
  List.sort String.compare (Hashtbl.fold (fun d _ acc -> d :: acc) t.waiting [])
  |> List.filter_map (Hashtbl.find_opt t.requests)

let push_read_only t r = t.pending_ro <- r :: t.pending_ro
let has_read_only t = not (List.is_empty t.pending_ro)

let take_read_only t =
  let ros = List.rev t.pending_ro in
  t.pending_ro <- [];
  ros

let defer_pre_prepare t pp ~size = t.deferred_pps <- (pp, size) :: t.deferred_pps

let take_deferred t =
  let pps = t.deferred_pps in
  t.deferred_pps <- [];
  pps

(* Everything but [assigned], which the view change resets. *)
let crash_reset t =
  Hashtbl.reset t.batches;
  Hashtbl.reset t.requests;
  t.queue_front <- [];
  t.queue_back <- [];
  t.queue_len <- 0;
  Hashtbl.reset t.queued;
  t.deferred_pps <- [];
  t.pending_ro <- [];
  Hashtbl.reset t.waiting

let digest
    {
      requests; batches; queue_front; queue_back; assigned; waiting; pending_ro; deferred_pps;
      queue_len = _ (* the length of the FIFO digested below *);
      queued = _ (* the FIFO's own digests *);
    } b =
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let hexd = Bft_util.Hex.encode in
  let sorted_keys h = List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) h []) in
  let digests l = List.iter (fun d -> add "%s;" (hexd d)) l in
  add "|req:";
  List.iter
    (fun d -> add "%s:%b;" (hexd d) (Hashtbl.find requests d).sr_verified)
    (sorted_keys requests);
  add "|bat:";
  digests (sorted_keys batches);
  add "|queue:";
  digests (List.map Wire.request_digest (queue_front @ List.rev queue_back));
  add "|assigned:";
  digests (sorted_keys assigned);
  add "|waiting:";
  digests (sorted_keys waiting);
  add "|defpp:";
  List.iter
    (fun (pp, _) -> add "%s;" (Bft_crypto.Sha256.hexdigest (Wire.encode (Pre_prepare pp))))
    deferred_pps;
  add "|ro:";
  digests (List.map Wire.request_digest pending_ro)
