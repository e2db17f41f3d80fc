[@@@lint.protocol_core]
module Costs = Bft_net.Costs
module Obs = Bft_obs.Obs
open Message

let src = Logs.Src.create "bft.replica" ~doc:"BFT replica"

module L = (val Logs.src_log src : Logs.LOG)

(* Performance watchdog ([Config.perf_watchdog]): a backup trusts its
   latency baseline after [perf_min_samples] executions and calls the
   primary slow once the smoothed latency exceeds [perf_factor] times it. *)
let perf_factor = 6.0
let perf_min_samples = 8

type deps = {
  cfg : Config.t;
  costs : Costs.t;
  registry : Bft_crypto.Signature.registry;
  keychain : Bft_crypto.Keychain.t;
  signer : Bft_crypto.Signature.signer;
  service : Bft_sm.Service.t;
  rng : Bft_util.Rng.t;
}

(* The replica's timers. [Cluster] schedules each under its engine label
   and fires it back through [on_timer] (the table is in DESIGN.md). *)
type timer =
  | Vc_active
  | Vc_pending
  | Transfer_retry
  | Recovery_tick
  | Status
  | Watchdog
  | Key_refresh
  | Perf_vc of int

type counters = {
  mutable n_executed : int;
  mutable n_batches : int;
  mutable n_view_changes : int;
  mutable n_checkpoints : int;
  mutable n_state_transfers : int;
  mutable n_recoveries : int;
  mutable bytes_fetched : int;
  mutable n_admission_dropped : int;
  mutable n_retransmit_suppressed : int;
  mutable n_slowness_vc : int;
}

type t = {
  d : deps;
  id : int;
  obs : Obs.t;
  port : port;
  rng : Bft_util.Rng.t;
  counters : counters;
  (* protocol state *)
  mutable view : int;
  mutable seqno : int; (* last sequence number assigned (primary) *)
  mutable last_exec : int;
  mutable committed_upto : int;
  log : Log.t;
  ckpts : Checkpoint_store.t;
  rq : Request_store.t; (* requests, batches, queue, waiting set *)
  last_reply : (int, int64 * string * int) Hashtbl.t; (* client -> t, result, view *)
  (* client ids present in [last_reply], kept sorted ascending so snapshot
     encoding streams the cache without a per-checkpoint sort *)
  mutable reply_clients : int list;
  (* sequence number of the tree in [ckpts] that the paged service's dirty
     set is relative to; [None] (or a mismatch with the latest tree) forces
     the next paged checkpoint to byte-compare every page *)
  mutable paged_sync : int option;
  (* checkpoints whose CHECKPOINT message is deferred until commit *)
  mutable pending_ckpt_announce : int list;
  (* view change state *)
  mutable active : bool;
  vc : View_change_store.t; (* P/Q sets, view-changes, acks, new-views *)
  mutable vc_timer : timer option; (* the case armed in the "vc" slot *)
  mutable vc_timeout_us : float;
  retx : Retransmit_budget.t; (* per-peer retransmission budgets *)
  (* primary performance watchdog (Config.perf_watchdog): smoothed
     accept->execute latency vs the best smoothed latency ever seen *)
  mutable perf_ewma_us : float;
  mutable perf_samples : int;
  mutable perf_baseline_us : float; (* 0.0 = not yet established *)
  mutable perf_fired_view : int; (* last view the watchdog fired in *)
  mutable perf_view_start : int64;
      (* when the current view was entered: requests that arrived earlier
         waited under the previous primary and must not feed the EWMA *)
  mutable transfer : State_transfer.t option;
  mutable recovering : Recovery.t option;
  mutable hm_bound : int; (* don't send protocol messages above this while recovering *)
  mutable coproc_counter : int64;
  (* told [(client, op, result)] of every executed batch, null batches
     included (empty list) *)
  on_execute : int -> (int * string * string) list -> unit;
  (* fault injection *)
  mutable byzantine : bool;
  mutable muted : bool;
  (* keep participating but corrupt MACs/authenticator entries toward odd
     peers and understate protocol state in status messages (mac_storm) *)
  mutable wrong_mac : bool;
  (* primary fills with null batches until this checkpoint is stable, so a
     recovering replica's recovery point can be reached (Section 4.3.2) *)
  mutable null_fill_until : int;
}

(* The replica's one way to the simulator; every effect runs at the call. *)
and port = {
  send : dst:int -> size:int -> envelope -> unit;
  multicast : dsts:int list -> size:int -> envelope -> unit;
  charge : float -> unit;
  arm : t -> timer -> delay_us:float -> unit;
  cancel : timer -> unit;
  now : unit -> int64;
  backlog : unit -> int;
  busy_until : unit -> int64;
}

let id t = t.id
let view t = t.view
let keychain t = t.d.keychain
let last_executed t = t.last_exec
let committed_upto t = t.committed_upto
let stable_checkpoint t = Checkpoint_store.stable_seq t.ckpts
let low_water_mark t = Log.low_mark t.log
let checkpoints_held t = Checkpoint_store.held t.ckpts
let is_recovering t = t.recovering <> None
let counters t = t.counters
let service_state t = t.d.service.Bft_sm.Service.snapshot ()
let primary_of t v = Config.primary t.d.cfg ~view:v
let primary t = primary_of t t.view
let is_primary t = primary t = t.id
let quorum t = Config.quorum t.d.cfg
let weak t = Config.weak t.d.cfg
let replica_ids t = Config.replica_ids t.d.cfg
let charge t us = t.port.charge us
let now t = t.port.now ()

(* ------------------------------------------------------------------ *)
(* Authentication                                                      *)
(* ------------------------------------------------------------------ *)

(* Authentication covers the body's 32-byte digest ([Wire.cached_digest]),
   as the paper's library MACs a fixed-size header holding it. The digest
   is memoized in the envelope's encoding cache next to the bytes, so the
   auth token, [envelope_size] and every receiver's verification share
   one serialization and one digest. *)

let sign_digest t d =
  charge t t.d.costs.Costs.sig_gen_us;
  Auth_sig (Bft_crypto.Signature.sign t.d.signer d)

let mac_digest t ~dst d =
  charge t t.d.costs.Costs.mac_us;
  match Bft_crypto.Auth.compute_mac t.d.keychain ~peer:dst d with
  | Some m -> Auth_mac m
  | None -> Auth_none

let vector_digest t ~dsts d =
  charge t (Costs.auth_gen_us t.d.costs (List.length dsts));
  Auth_vector (Bft_crypto.Auth.compute_authenticator t.d.keychain ~receivers:dsts d)

(* mac_storm fault injection (the paper's Section 3.2.2 partial
   authenticators, mounted by a replica): corrupt the authentication
   material destined for odd-id peers. Half the group keeps verifying us,
   so we stay live and inside the protocol; the other half silently drops
   everything we send and keeps retransmitting its window to us. *)
let wrong_mac_target t dst = t.wrong_mac && dst <> t.id && dst mod 2 = 1

let corrupt_mac_tag (m : Bft_crypto.Auth.mac) =
  let tag = Bytes.of_string m.Bft_crypto.Auth.tag in
  if Bytes.length tag > 0 then
    Bytes.set tag 0 (Char.chr (Char.code (Bytes.get tag 0) lxor 0xff));
  { m with Bft_crypto.Auth.tag = Bytes.to_string tag }

let corrupt_auth t auth ~dsts =
  match auth with
  | Auth_vector a ->
      Auth_vector
        (List.fold_left
           (fun a dst ->
             if wrong_mac_target t dst then Bft_crypto.Auth.corrupt_entry a dst else a)
           a dsts)
  | Auth_mac m when List.exists (wrong_mac_target t) dsts -> Auth_mac (corrupt_mac_tag m)
  | auth -> auth

(* The body's envelope, authenticated per [cfg.auth_mode] for [dsts]: a
   signature, a MAC for one destination or an authenticator for several.
   [enc] caches the body's encoding and digest. *)
let seal t enc body ~dsts =
  let d = Wire.cached_digest enc body in
  let auth =
    match (t.d.cfg.Config.auth_mode, body, dsts) with
    | _, New_key _, _ | Config.Sig_auth, _, _ -> sign_digest t d
    | Config.Mac_auth, _, [ dst ] -> mac_digest t ~dst d
    | Config.Mac_auth, _, dsts -> vector_digest t ~dsts d
  in
  let auth = if t.wrong_mac then corrupt_auth t auth ~dsts else auth in
  { sender = t.id; body; auth; enc }

(* Multicast to all replicas (including self: the paper's replicas process
   their own protocol messages through the log). The body is encoded once;
   the single precomputed [envelope_size] covers every destination. [enc]
   is a cache the caller already filled with the body's encoding. *)
let broadcast ?(enc = Message.no_cache ()) t body =
  if not t.muted then begin
    let dsts = replica_ids t in
    let env = seal t enc body ~dsts in
    t.port.multicast ~dsts ~size:(Wire.envelope_size env) env
  end

let send_to t ~dst body =
  if not t.muted then begin
    let env = seal t (Message.no_cache ()) body ~dsts:[ dst ] in
    t.port.send ~dst ~size:(Wire.envelope_size env) env
  end

let send_reply t ~client ~ts ~tentative result =
  send_to t ~dst:client
    (Reply
       {
         rp_view = t.view;
         rp_timestamp = ts;
         rp_client = client;
         rp_replica = t.id;
         rp_tentative = tentative;
         rp_result = result;
       })

(* Per-peer retransmission budget, refilled every status interval: inert
   when [Config.retransmit_budget] is [None]. *)
let retx_allow t peer =
  match t.d.cfg.Config.retransmit_budget with
  | None -> true
  | Some budget ->
      Retransmit_budget.allow t.retx ~budget ~interval_us:t.d.cfg.Config.status_interval_us
        ~now:(now t) peer
      || begin
        t.counters.n_retransmit_suppressed <- t.counters.n_retransmit_suppressed + 1;
        if Obs.enabled t.obs then Obs.retransmit_suppress t.obs ~now:(now t) ~peer;
        false
      end

(* Retransmission-class point-to-point send, counted against the
   destination's budget. *)
let send_retx t ~dst body = if retx_allow t dst then send_to t ~dst body

(* Send with no authentication (DATA replies are verified by digest,
   Section 5.3.2). *)
let send_plain t ~dst body =
  if not t.muted then begin
    let env = Message.envelope ~sender:t.id ~auth:Auth_none body in
    t.port.send ~dst ~size:(Wire.envelope_size env) env
  end

(* Forward a request with its client's token intact, to [dst] or to every
   replica: each receiver checks the client's own MAC or signature. *)
let forward_request ?dst t (req : request) token =
  if not t.muted then begin
    let env = Message.envelope ~sender:t.id ~auth:token (Request req) in
    let size = Wire.envelope_size env in
    match dst with
    | Some dst -> t.port.send ~dst ~size env
    | None -> t.port.multicast ~dsts:(replica_ids t) ~size env
  end

(* Check the token's claim that [claimed] sent the message with digest
   [d], charging the receiver's CPU for it. A MAC or authenticator costs
   one [mac_us]: the receiver checks only its own entry (Section 3.2.1). *)
let verify_token t ~claimed d token =
  match token with
  | Auth_none -> false
  | Auth_sig s ->
      charge t t.d.costs.Costs.sig_verify_us;
      s.Bft_crypto.Signature.signer_id = claimed
      && Bft_crypto.Signature.verify t.d.registry s d
  | Auth_mac m ->
      charge t t.d.costs.Costs.mac_us;
      Bft_crypto.Auth.verify_mac t.d.keychain ~peer:claimed m d
  | Auth_vector a ->
      charge t t.d.costs.Costs.mac_us;
      Bft_crypto.Auth.verify_authenticator t.d.keychain ~peer:claimed a d

(* ------------------------------------------------------------------ *)
(* State snapshots: service state + reply cache (the paper's checkpoints
   snapshot val, last-rep and last-rep-t together, Section 2.4.4).       *)
(* ------------------------------------------------------------------ *)

(* Timestamp of the client's last executed request, -1 before any. *)
let last_ts t client =
  match Hashtbl.find_opt t.last_reply client with Some (ts, _, _) -> ts | None -> -1L

(* Re-send the client's cached reply, if any. *)
let resend_last_reply t client ~tentative =
  match Hashtbl.find_opt t.last_reply client with
  | Some (ts, result, _) -> send_reply t ~client ~ts ~tentative (Full result)
  | None -> ()

(* Record the reply for a client, keeping [reply_clients] sorted. *)
let set_last_reply t client entry =
  if not (Hashtbl.mem t.last_reply client) then begin
    let rec ins = function
      | c :: tl when c < client -> c :: ins tl
      | l -> client :: l
    in
    t.reply_clients <- ins t.reply_clients
  end;
  Hashtbl.replace t.last_reply client entry

(* Stream the reply cache into [b] in ascending client order: one
   "client ts view len\nresult" record per client, written directly
   (no per-entry [Printf.sprintf], no per-checkpoint sort). *)
let encode_reply_cache t b =
  List.iter
    (fun c ->
      match Hashtbl.find_opt t.last_reply c with
      | None -> ()
      | Some (ts, res, v) ->
          Buffer.add_string b (string_of_int c);
          Buffer.add_char b ' ';
          Buffer.add_string b (Int64.to_string ts);
          Buffer.add_char b ' ';
          Buffer.add_string b (string_of_int v);
          Buffer.add_char b ' ';
          Buffer.add_string b (string_of_int (String.length res));
          Buffer.add_char b '\n';
          Buffer.add_string b res)
    t.reply_clients

let full_snapshot t =
  let b = Buffer.create 256 in
  let svc = t.d.service.Bft_sm.Service.snapshot () in
  Buffer.add_string b (string_of_int (String.length svc));
  Buffer.add_char b '\n';
  Buffer.add_string b svc;
  encode_reply_cache t b;
  Buffer.contents b

(* Parse the reply-cache region [s.(pos..len-1)]; every record is validated
   before any replica state is touched. *)
let parse_reply_cache s ~pos ~len =
  let rec go pos acc =
    if pos >= len then Ok (List.rev acc)
    else
      match String.index_from_opt s pos '\n' with
      | None -> Error "unterminated reply-cache header"
      | Some nl -> (
          match String.split_on_char ' ' (String.sub s pos (nl - pos)) with
          | [ c; ts; v; rlen ] -> (
              match
                ( int_of_string_opt c,
                  Int64.of_string_opt ts,
                  int_of_string_opt v,
                  int_of_string_opt rlen )
              with
              | Some c, Some ts, Some v, Some rlen when rlen >= 0 && nl + 1 + rlen <= len ->
                  let res = String.sub s (nl + 1) rlen in
                  go (nl + 1 + rlen) ((c, (ts, res, v)) :: acc)
              | _ -> Error "truncated or malformed reply-cache record")
          | _ -> Error "malformed reply-cache header")
  in
  go pos []

let paged_magic = "PAGED "

(* Checkpoint pages are the paged service's own, so each service page is
   one leaf; a flat snapshot is cut into 4096-byte pages. *)
let page_size (d : deps) =
  match d.service.Bft_sm.Service.paged with Some pg -> pg.Bft_sm.Service.pg_page_size | None -> 4096

let branching = 16

(* Split a snapshot string into (service region, reply-cache parse span).
   Flat layout: "<svc_len>\n<svc><reply records>". Paged layout (produced
   by paged checkpoints, page-aligned): one header page
   "PAGED <svc_len> <reply_len>\n" zero-padded to [page_size], then the
   service pages, then the reply records. *)
let split_snapshot t s =
  let len = String.length s in
  let flat () =
    match String.index_opt s '\n' with
    | None -> Error "missing snapshot header"
    | Some nl -> (
        match int_of_string_opt (String.sub s 0 nl) with
        | Some svc_len when svc_len >= 0 && nl + 1 + svc_len <= len ->
            Ok (String.sub s (nl + 1) svc_len, nl + 1 + svc_len)
        | _ -> Error "bad service length in snapshot header")
  in
  if not (String.length s >= String.length paged_magic
          && String.equal (String.sub s 0 (String.length paged_magic)) paged_magic)
  then flat ()
  else
    let p = page_size t.d in
    if len < p then Error "bad paged snapshot header"
    else
    match String.index_opt s '\n' with
    | Some nl when nl < p -> (
        let ok_pad = ref true in
        for i = nl + 1 to p - 1 do
          if s.[i] <> '\000' then ok_pad := false
        done;
        match
          String.split_on_char ' '
            (String.sub s (String.length paged_magic) (nl - String.length paged_magic))
        with
        | [ svc_len; reply_len ] -> (
            match (int_of_string_opt svc_len, int_of_string_opt reply_len) with
            | Some svc_len, Some reply_len
              when !ok_pad && svc_len >= 0 && reply_len >= 0
                   && p + svc_len + reply_len = len ->
                Ok (String.sub s p svc_len, p + svc_len)
            | _ -> Error "bad paged snapshot header")
        | _ -> Error "bad paged snapshot header")
    | _ -> Error "bad paged snapshot header"

(* Install a snapshot. All parsing and validation happens before any state
   is mutated: a malformed snapshot returns [Error] and leaves the service,
   the reply cache and [paged_sync] untouched. *)
let restore_snapshot t s =
  let reject reason =
    if Obs.enabled t.obs then Obs.snapshot_rejected t.obs ~reason;
    L.debug (fun m -> m "replica %d: snapshot rejected: %s" t.id reason);
    Error reason
  in
  match split_snapshot t s with
  | Error reason -> reject reason
  | Ok (svc, reply_pos) -> (
      match parse_reply_cache s ~pos:reply_pos ~len:(String.length s) with
      | Error reason -> reject reason
      | Ok entries -> (
          match t.d.service.Bft_sm.Service.restore svc with
          | () ->
              Hashtbl.reset t.last_reply;
              List.iter (fun (c, e) -> Hashtbl.replace t.last_reply c e) entries;
              t.reply_clients <- List.sort_uniq compare (List.map fst entries);
              t.paged_sync <- None;
              Ok ()
          | exception _ -> reject "service refused snapshot"))

(* A new watchdog epoch: the smoothed latency of the old primary (and of
   the view-change gap itself) says nothing about the new one. *)
let new_perf_epoch t =
  t.perf_view_start <- now t;
  t.perf_ewma_us <- 0.0;
  t.perf_samples <- 0

(* ------------------------------------------------------------------ *)
(* Timers: view-change timer driven by the waiting-request set          *)
(* ------------------------------------------------------------------ *)

(* Arm the "vc" slot with the current timeout, in its active or pending
   case; the slot holds one timer at a time. *)
let arm_vc t timer =
  t.vc_timer <- Some timer;
  t.port.arm t timer ~delay_us:t.vc_timeout_us

let stop_vc_timer t =
  Option.iter t.port.cancel t.vc_timer;
  t.vc_timer <- None

(* Before demanding a view change over requests the primary failed to
   order, re-relay them to the *next* primary: admission control makes
   accept/drop decisions replica-locally, so a backup can hold a request
   (and arm the vc timer for it) that the primary dropped at its quota.
   Without the relay the cluster rotates views until every holder has
   been primary once — one view change per divergently-accepted request.
   With it, the incoming primary receives the union of the backups'
   waiting sets and drains them in its first batches. Only active with
   [Config.retransmit_budget] set, and spent against the destination's
   budget: an unbounded relay-on-timeout would itself be an
   amplification channel for the very floods the quota bounds. *)
let relay_waiting t =
  if Option.is_some t.d.cfg.Config.retransmit_budget && not t.muted then begin
    let dst = primary_of t (t.view + 1) in
    if dst <> t.id then
      List.iter
        (fun (sr : Request_store.stored) ->
          if retx_allow t dst then forward_request ~dst t sr.sr_req sr.sr_token)
        (Request_store.waiting_requests t.rq)
  end

let start_vc_timer t =
  if Option.is_none t.vc_timer && not t.d.cfg.Config.debug_no_vc_timer then arm_vc t Vc_active

(* Primary performance watchdog (the slow-primary attack of Chondros et
   al.): a primary that keeps answering timers but orders requests ever
   more slowly never trips the silence-based vc timer. Backups smooth
   the accept->execute latency of each request (EWMA) and keep the best
   smoothed value ever observed as a baseline; when the current EWMA
   degrades beyond [perf_factor] times that baseline the backup demands
   a view change — once per view, from a zero-delay event so the view
   change never reenters [execute_batch]. *)
let perf_note_sample t arrival =
  let cfg = t.d.cfg in
  if
    cfg.Config.perf_watchdog && (not (is_primary t))
    && Int64.compare arrival t.perf_view_start >= 0
  then begin
    let sample = Int64.to_float (Int64.sub (now t) arrival) /. 1_000.0 in
    t.perf_ewma_us <-
      (if t.perf_samples = 0 then sample
       else (0.8 *. t.perf_ewma_us) +. (0.2 *. sample));
    t.perf_samples <- t.perf_samples + 1;
    if t.perf_samples >= perf_min_samples then
      if t.perf_baseline_us = 0.0 || t.perf_ewma_us < t.perf_baseline_us then
        t.perf_baseline_us <- t.perf_ewma_us
      else if
        t.active && t.perf_fired_view < t.view
        && t.perf_ewma_us > perf_factor *. t.perf_baseline_us
      then begin
        t.perf_fired_view <- t.view;
        t.counters.n_slowness_vc <- t.counters.n_slowness_vc + 1;
        if Obs.enabled t.obs then
          Obs.slowness_view_change t.obs ~now:(now t) ~view:t.view
            ~ewma_us:t.perf_ewma_us ~baseline_us:t.perf_baseline_us;
        L.debug (fun m ->
            m "replica %d: slow primary of view %d (ewma %.1fus baseline %.1fus)"
              t.id t.view t.perf_ewma_us t.perf_baseline_us);
        t.port.arm t (Perf_vc t.view) ~delay_us:0.0
      end
  end

let restart_vc_timer t =
  if Request_store.waiting_empty t.rq then stop_vc_timer t
  else if t.active then begin
    (* restart for the next waiting request (FIFO fairness, 2.3.5) *)
    stop_vc_timer t;
    start_vc_timer t
  end

let clear_waiting t digest =
  match Request_store.clear_waiting t.rq digest with
  | None -> ()
  | Some arrival ->
      perf_note_sample t arrival;
      restart_vc_timer t

(* A client's execution advancing to timestamp [ts] supersedes every
   waiting request it sent with an earlier timestamp: exactly-once
   execution (the [last_reply] guard above) will never run them, so their
   claim on the vc timer is dead. Without this purge, an open-loop
   client whose requests were admission-dropped at the primary but
   accepted here leaves permanent waiting entries that demand a view
   change every timeout, forever — views rotate long after the flood
   stops. Closed-loop clients never supersede (one outstanding request),
   so the purge finds nothing in clean runs. Not routed through
   [clear_waiting]: a request that never executed must not feed the
   performance watchdog's latency EWMA. *)
let purge_superseded t ~client ~ts =
  if Request_store.purge_superseded t.rq ~client ~ts then restart_vc_timer t

(* ------------------------------------------------------------------ *)
(* Checkpoints and garbage collection                                   *)
(* ------------------------------------------------------------------ *)

(* Checkpoint from the paged service image: header page + service pages +
   reply-cache pages, re-digesting only pages the service reported dirty
   (plus the always-churning header and reply region). Only safe when the
   drained dirty set is relative to the latest held tree ([paged_sync]);
   otherwise every page is passed as dirty, which degrades to the
   byte-comparing copy-on-write build. *)
let take_checkpoint_paged t seq (pg : Bft_sm.Service.paged) =
  let p = pg.Bft_sm.Service.pg_page_size in
  let svc_pages = pg.Bft_sm.Service.pg_pages () in
  let svc_dirty = pg.Bft_sm.Service.pg_drain_dirty () in
  let n_svc = Array.length svc_pages in
  let rb = Buffer.create 256 in
  encode_reply_cache t rb;
  let reply = Buffer.contents rb in
  let reply_len = String.length reply in
  let header_line = Printf.sprintf "PAGED %d %d\n" (n_svc * p) reply_len in
  let prev = Checkpoint_store.latest t.ckpts in
  let in_sync =
    match (t.paged_sync, prev) with
    | Some s, Some prev -> Partition_tree.seq prev = s
    | _ -> false
  in
  (* An in-sync tree's page 0 is the header page built here; keep it while
     its line is unchanged (the line's one newline ends it). *)
  let header =
    match prev with
    | Some prev
      when in_sync && String.starts_with ~prefix:header_line (Partition_tree.page prev 0).data ->
        (Partition_tree.page prev 0).data
    | _ -> header_line ^ String.make (p - String.length header_line) '\000'
  in
  let n_reply = (reply_len + p - 1) / p in
  let pages = Array.make (1 + n_svc + n_reply) header in
  Array.blit svc_pages 0 pages 1 n_svc;
  for i = 0 to n_reply - 1 do
    let off = i * p in
    pages.(1 + n_svc + i) <- String.sub reply off (min p (reply_len - off))
  done;
  let dirty =
    if not in_sync then List.init (Array.length pages) Fun.id
    else
      0
      :: (List.map (fun i -> i + 1) svc_dirty
          @ List.init n_reply (fun i -> 1 + n_svc + i))
  in
  let tree = Checkpoint_store.take_pages t.ckpts ~seq ~pages ~dirty in
  t.paged_sync <- Some seq;
  tree

(* Digesting costs a fixed overhead plus the bytes actually re-hashed. *)
let take_checkpoint t seq =
  charge t (Costs.digest_us t.d.costs 0);
  let tree =
    match t.d.service.Bft_sm.Service.paged with
    | Some pg -> take_checkpoint_paged t seq pg
    | None -> Checkpoint_store.take t.ckpts ~seq ~snapshot:(full_snapshot t)
  in
  charge t (Costs.digest_us t.d.costs (Partition_tree.digested_bytes tree));
  t.counters.n_checkpoints <- t.counters.n_checkpoints + 1;
  if Obs.enabled t.obs then begin
    let dirty = Partition_tree.pages_modified_at tree ~seq in
    Obs.checkpoint_taken t.obs ~now:(now t) ~seq
      ~bytes:(Partition_tree.digested_bytes tree)
      ~dirty ~clean:(Partition_tree.num_pages tree - dirty)
  end;
  tree

let checkpoint_msg t tree =
  { ck_seq = Partition_tree.seq tree; ck_digest = Partition_tree.root_digest tree; ck_replica = t.id }

let announce_checkpoint t seq =
  Option.iter
    (fun tree ->
      let ck = checkpoint_msg t tree in
      Checkpoint_store.add_message t.ckpts ck;
      broadcast t (Checkpoint ck))
    (Checkpoint_store.tree_at t.ckpts seq)

(* Announce the checkpoints whose batches have now committed. *)
let announce_committed t =
  if t.pending_ckpt_announce <> [] then begin
    let announce, keep = List.partition (fun n -> n <= t.committed_upto) t.pending_ckpt_announce in
    t.pending_ckpt_announce <- keep;
    List.iter (announce_checkpoint t) (List.sort compare announce)
  end

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let allowed_seq t n = n <= t.hm_bound
let elem_digest = function Inline (r, _) -> Wire.request_digest r | By_digest d -> d

(* A reply carries the full result from the designated replier or when it
   is small, its digest otherwise (Section 5.1.1). *)
let full_reply t (req : request) result =
  (not t.d.cfg.Config.digest_replies)
  || req.replier = t.id
  || String.length result <= Config.digest_replies_threshold

(* Pending read-only requests execute once the state reflects only
   committed requests (Section 5.1.3). *)
let flush_read_only t =
  if Request_store.has_read_only t.rq && t.committed_upto >= t.last_exec then
    List.iter
      (fun req ->
        charge t (t.d.service.Bft_sm.Service.exec_cost_us req.op);
        let result =
          if not (t.d.service.Bft_sm.Service.has_access ~client:req.client req.op) then
            Bft_sm.Service.denied
          else if not (t.d.service.Bft_sm.Service.is_read_only req.op) then
            Bft_sm.Service.invalid
          else t.d.service.Bft_sm.Service.execute ~client:req.client ~op:req.op ~nondet:""
        in
        let payload =
          if full_reply t req result then Full result
          else Result_digest (Wire.result_digest result)
        in
        send_reply t ~client:req.client ~ts:req.timestamp ~tentative:true payload)
      (Request_store.take_read_only t.rq)

let rec update_committed_upto t =
  let n = t.committed_upto + 1 in
  if Log.committed t.log ~view:t.view ~seq:n then begin
    t.committed_upto <- n;
    if Obs.enabled t.obs then Obs.phase t.obs ~now:(now t) Obs.Committed ~view:t.view ~seq:n;
    update_committed_upto t
  end

(* Sliding-window bound on concurrent protocol instances (Section 5.1.4):
   the primary may run at most [window] instances beyond the last executed
   batch, and never outside the log's water marks. *)
let in_send_window t n =
  n > Log.low_mark t.log
  && n <= t.last_exec + t.d.cfg.Config.window
  && Log.in_window t.log n

(* ------------------------------------------------------------------ *)
(* Normal case: prepare and commit                                    *)
(* ------------------------------------------------------------------ *)

let send_prepare t ~view ~seq digest =
  if allowed_seq t seq then begin
    let p = { pr_view = view; pr_seq = seq; pr_digest = digest; pr_replica = t.id } in
    Log.add_prepare t.log p;
    (Log.find t.log seq).Log.self_preprepared <- true;
    broadcast t (Prepare p)
  end

let send_commit t ~view ~seq digest =
  if allowed_seq t seq then begin
    let c = { cm_view = view; cm_seq = seq; cm_digest = digest; cm_replica = t.id } in
    Log.add_commit t.log c;
    broadcast t (Commit c)
  end

(* Restore the held checkpoint [s] and resume execution from it, rolling
   back tentative executions or catching up to a new view's start; each
   caller picks the new [committed_upto]. *)
let rollback_to t s ~committed =
  match Checkpoint_store.tree_at t.ckpts s with
  | Some tree -> (
      match restore_snapshot t (Partition_tree.snapshot tree) with
      | Ok () ->
          t.last_exec <- s;
          t.committed_upto <- committed
      | Error _ -> ())
  | None -> ()

(* ------------------------------------------------------------------ *)
(* State transfer (Section 5.3.2)                                       *)
(* ------------------------------------------------------------------ *)

let pick_replier t =
  let others = List.filter (fun i -> i <> t.id) (replica_ids t) in
  List.nth others (Bft_util.Rng.int t.rng (List.length others))

let send_fetch t tx ((level, index) as node) =
  if Obs.enabled t.obs then Obs.transfer_fetch t.obs ~now:(now t) ~level ~index;
  broadcast t (State_transfer.fetch tx ~stable:(Checkpoint_store.stable_seq t.ckpts) ~self:t.id node)

(* Every 30 ms, re-send the unanswered fetches to a freshly drawn
   replier. *)
let transfer_retry_us = 30_000.0

let transfer_retry t =
  match t.transfer with
  | None -> ()
  | Some tx ->
      State_transfer.set_replier tx (pick_replier t);
      List.iter (send_fetch t tx) (State_transfer.pending tx);
      t.port.arm t Transfer_retry ~delay_us:transfer_retry_us

let start_transfer t ~target ~root_digest =
  match t.transfer with
  | Some tx when State_transfer.target tx >= target -> ()
  | _ ->
      t.counters.n_state_transfers <- t.counters.n_state_transfers + 1;
      L.debug (fun m -> m "replica %d: state transfer to %d" t.id target);
      if Obs.enabled t.obs then Obs.transfer_start t.obs ~now:(now t) ~target;
      let tx = State_transfer.start ~target ~root_digest ~replier:(pick_replier t) in
      t.transfer <- Some tx;
      send_fetch t tx (0, 0);
      t.port.arm t Transfer_retry ~delay_us:transfer_retry_us

(* Key refresh (Section 4.3.1): replace the keys other replicas use to
   send to us. Client-shared keys are refreshed by clients; they are only
   discarded on recovery, when the attacker may know them. *)
let send_new_key ?(drop_clients = false) t =
  if drop_clients then Bft_crypto.Keychain.drop_all_in_keys t.d.keychain;
  t.coproc_counter <- Int64.add t.coproc_counter 1L;
  let keys =
    List.filter_map
      (fun peer ->
        if peer = t.id then None
        else Some (peer, Bft_crypto.Keychain.fresh_in_key t.d.keychain t.rng ~peer))
      (replica_ids t)
  in
  broadcast t (New_key { nk_replica = t.id; nk_keys = keys; nk_counter = t.coproc_counter });
  if drop_clients then
    (* re-key every client we have served: each gets a fresh key to reach
       us, in a signed point-to-point new-key message *)
    List.iter
      (fun client ->
        if client >= t.d.cfg.Config.n then begin
          t.coproc_counter <- Int64.add t.coproc_counter 1L;
          let key = Bft_crypto.Keychain.fresh_in_key t.d.keychain t.rng ~peer:client in
          send_to t ~dst:client
            (New_key { nk_replica = t.id; nk_keys = [ (client, key) ]; nk_counter = t.coproc_counter })
        end)
      t.reply_clients

(* ------------------------------------------------------------------ *)
(* The protocol core: one recursion group                              *)
(* ------------------------------------------------------------------ *)

(* The replica's one genuine cycle: a view change ends by entering the
   new view, which re-runs the chosen batches through
   check_prepared_to_commit and try_execute, and an invalid new view
   starts the next view change. Separately, execution slides the
   primary's window (try_execute -> process_queue), and each pre-prepare
   the primary sends executes what it can (send_pre_prepare ->
   try_execute). Timers leave the group through the port: the vc timer
   and the performance watchdog start their view change from
   [on_timer]. The non-recursive helpers sit above the group; the
   message handlers below call into it. *)
let rec try_stabilize t =
  match Checkpoint_store.try_stabilize t.ckpts with
  | None -> ()
  | Some (seq, _tree) ->
      Log.truncate t.log seq;
      (* drop PSet/QSet information at or below the new low mark *)
      View_change_store.prune_stable t.vc seq;
      L.debug (fun m -> m "replica %d: checkpoint %d stable" t.id seq);
      if Obs.enabled t.obs then Obs.checkpoint_stable t.obs ~now:(now t) ~seq;
      (* recovery completes when the checkpoint at the recovery point is
         stable (Section 4.3.2) *)
      (match t.recovering with
      | Some rc when Recovery.completes rc ~stable:seq ->
          t.recovering <- None;
          t.hm_bound <- max_int;
          t.counters.n_recoveries <- t.counters.n_recoveries + 1;
          if Obs.enabled t.obs then Obs.recovery_phase t.obs ~now:(now t) "complete";
          L.info (fun m -> m "replica %d: recovery complete at %d" t.id seq)
      | _ -> ());
      process_queue t

(* Execute one batch at sequence [n]; [tentative] per Section 5.1.2. *)
and execute_batch t n ~tentative =
  let e = Log.find t.log n in
  match (e.Log.pp, e.Log.pp_digest) with
  | Some pp, Some d ->
      let is_null = String.equal d Wire.null_batch_digest in
      let elems = if is_null then [] else pp.pp_batch in
      if Obs.enabled t.obs then
        Obs.phase t.obs ~now:(now t) Obs.Executed ~view:t.view ~seq:n;
      let wave = ref [] in
      List.iter
        (fun elem ->
          match Request_store.resolve_elem t.rq elem with
          | None -> () (* cannot happen: execution gated on have_batch_bodies *)
          | Some req ->
              Request_store.unassign t.rq (Wire.request_digest req);
              let last_t = last_ts t req.client in
              if Int64.compare req.timestamp last_t > 0 then begin
                let result =
                  if Recovery.is_request t.d.cfg req then begin
                    (* recovery request (Section 4.3.2): refresh our keys,
                       reply with the sequence number it executed at, and
                       (as primary) fill null batches up to its recovery
                       point *)
                    t.null_fill_until <- max t.null_fill_until (Recovery.point_for t.d.cfg n);
                    if req.client <> t.id then send_new_key t;
                    string_of_int n
                  end
                  else if not (t.d.service.Bft_sm.Service.has_access ~client:req.client req.op)
                  then Bft_sm.Service.denied
                  else begin
                    charge t (t.d.service.Bft_sm.Service.exec_cost_us req.op);
                    t.d.service.Bft_sm.Service.execute ~client:req.client ~op:req.op
                      ~nondet:pp.pp_nondet
                  end
                in
                t.counters.n_executed <- t.counters.n_executed + 1;
                wave := (req.client, req.op, result) :: !wave;
                set_last_reply t req.client (req.timestamp, result, t.view);
                clear_waiting t (Wire.request_digest req);
                purge_superseded t ~client:req.client ~ts:req.timestamp;
                let payload =
                  if full_reply t req result then Full result
                  else begin
                    charge t (Costs.digest_us t.d.costs (String.length result));
                    Result_digest (Wire.result_digest result)
                  end
                in
                if Obs.enabled t.obs then
                  Obs.reply_sent t.obs ~now:(now t) ~client:req.client ~seq:n
                    ~digest:(Wire.request_digest req) ~tentative;
                send_reply t ~client:req.client ~ts:req.timestamp ~tentative payload
              end
              else begin
                (* duplicate or superseded assignment: the client is no
                   longer waiting for this request *)
                clear_waiting t (Wire.request_digest req);
                if Int64.compare req.timestamp last_t = 0 then
                  resend_last_reply t req.client ~tentative
              end)
        elems;
      t.on_execute n (List.rev !wave);
      t.counters.n_batches <- t.counters.n_batches + 1;
      (* executing a request proves the view is live: reset the view-change
         timeout to its initial value (liveness rule, Section 2.3.5) *)
      t.vc_timeout_us <- t.d.cfg.Config.vc_timeout_us;
      e.Log.executed <- true;
      e.Log.exec_tentative <- tentative;
      t.last_exec <- n;
      if n mod t.d.cfg.Config.checkpoint_interval = 0 then begin
        ignore (take_checkpoint t n);
        if tentative then t.pending_ckpt_announce <- n :: t.pending_ckpt_announce
        else announce_checkpoint t n
      end
  | _ -> ()

and try_execute t =
  update_committed_upto t;
  announce_committed t;
  let progress = ref true in
  while !progress do
    progress := false;
    let n = t.last_exec + 1 in
    if Log.in_window t.log n || n <= Log.low_mark t.log then begin
      match Log.entry t.log n with
      | Some { Log.pp_digest = Some d; executed = false; _ } ->
          if Request_store.have_batch_bodies t.rq d then begin
            if Log.committed t.log ~view:t.view ~seq:n then begin
              execute_batch t n ~tentative:false;
              update_committed_upto t;
              progress := true
            end
            else if
              t.d.cfg.Config.tentative_execution
              && t.active
              && Log.prepared t.log ~view:t.view ~seq:n
              && t.committed_upto = n - 1
            then begin
              execute_batch t n ~tentative:true;
              progress := true
            end
          end
      | _ -> ()
    end
  done;
  update_committed_upto t;
  (* newly committed tentative executions can trigger checkpoint
     announcements *)
  announce_committed t;
  try_stabilize t;
  flush_read_only t;
  (* execution slides the primary's window forward *)
  process_queue t

and send_pre_prepare t batch nondet =
  let n = t.seqno + 1 in
  t.seqno <- n;
  let pp = { pp_view = t.view; pp_seq = n; pp_batch = batch; pp_nondet = nondet } in
  let d = Wire.batch_digest batch nondet in
  Request_store.store_batch t.rq d batch nondet;
  (* encoded once, into the cache the broadcast below sends *)
  let enc = Message.no_cache () in
  let bytes = Wire.cached_encode enc (Pre_prepare pp) in
  charge t (Costs.digest_us t.d.costs (String.length bytes));
  ignore (Log.accept_pre_prepare t.log ~view:t.view pp d);
  (Log.find t.log n).Log.self_preprepared <- true;
  if Obs.enabled t.obs then begin
    Obs.phase t.obs ~now:(now t) Obs.Preprepared ~view:t.view ~seq:n;
    Obs.batch_assigned t.obs ~now:(now t) ~digests:(List.map elem_digest batch)
  end;
  if t.byzantine then begin
    (* equivocation: a conflicting assignment for the same sequence number
       is sent to half the backups *)
    let batch2 = [] and nondet2 = nondet ^ "evil" in
    let pp2 = { pp with pp_batch = batch2; pp_nondet = nondet2 } in
    Request_store.store_batch t.rq (Wire.batch_digest batch2 nondet2) batch2 nondet2;
    let others = List.filter (fun i -> i <> t.id) (replica_ids t) in
    let g1 = List.filteri (fun i _ -> i mod 2 = 0) others in
    let g2 = List.filteri (fun i _ -> i mod 2 = 1) others in
    List.iter (fun dst -> send_to t ~dst (Pre_prepare pp)) g1;
    List.iter (fun dst -> send_to t ~dst (Pre_prepare pp2)) g2
  end
  else broadcast ~enc t (Pre_prepare pp);
  try_execute t

and process_queue t =
  if is_primary t && t.active && not (is_recovering t && t.seqno >= t.hm_bound) then begin
    let continue = ref true in
    while !continue && Request_store.queue_len t.rq > 0 && in_send_window t (t.seqno + 1) && allowed_seq t (t.seqno + 1) do
      let cfg = t.d.cfg in
      let take = if cfg.Config.batching then Config.max_batch else 1 in
      let chosen = Request_store.take t.rq take in
      if List.is_empty chosen then continue := false
      else begin
        if Obs.enabled t.obs then Obs.batch_formed t.obs ~len:(List.length chosen);
        let elems =
          List.map
            (fun r ->
              let d = Wire.request_digest r in
              if String.length r.op > cfg.Config.separate_tx_threshold then By_digest d
              else
                let tok =
                  match Request_store.find t.rq d with
                  | Some sr -> sr.sr_token
                  | None -> Auth_none
                in
                Inline (r, tok))
            chosen
        in
        (* non-deterministic choice for the batch: virtual wall clock
           (Section 5.4) *)
        let nondet = Int64.to_string (now t) in
        send_pre_prepare t elems nondet
      end
    done;
    (* null-request filler during recoveries *)
    while
      Request_store.queue_len t.rq = 0
      && Checkpoint_store.stable_seq t.ckpts < t.null_fill_until
      && t.seqno < t.null_fill_until
      && in_send_window t (t.seqno + 1)
      && allowed_seq t (t.seqno + 1)
    do
      send_pre_prepare t [] (Int64.to_string (now t))
    done
  end

and check_prepared_to_commit t ~seq =
  match Log.entry t.log seq with
  | Some ({ Log.pp_digest = Some d; _ } as e) ->
      if
        Log.prepared t.log ~view:t.view ~seq
        && Option.is_none e.Log.commits.(t.id)
      then begin
        if Obs.enabled t.obs then
          Obs.phase t.obs ~now:(now t) Obs.Prepared ~view:t.view ~seq;
        send_commit t ~view:t.view ~seq d
      end;
      try_execute t
  | _ -> ()

and start_view_change t new_view =
  if new_view > t.view then begin
    t.counters.n_view_changes <- t.counters.n_view_changes + 1;
    L.debug (fun m -> m "replica %d: view change %d -> %d" t.id t.view new_view);
    if Obs.enabled t.obs then
      Obs.view_change_start t.obs ~now:(now t) ~from_view:t.view ~to_view:new_view;
    t.view <- new_view;
    t.active <- false;
    stop_vc_timer t;
    View_change_store.compute_pq t.vc t.log ~log_size:t.d.cfg.Config.log_size;
    let pset_list, qset_list = View_change_store.pq_lists t.vc in
    let vc =
      {
        vc_view = new_view;
        vc_h = Checkpoint_store.stable_seq t.ckpts;
        vc_cset = Checkpoint_store.held t.ckpts;
        vc_pset = pset_list;
        vc_qset = qset_list;
        vc_replica = t.id;
      }
    in
    View_change_store.record_own t.vc vc;
    Log.clear_entries t.log;
    Request_store.clear_assigned t.rq;
    t.pending_ckpt_announce <- [];
    (* roll back any tentative executions: they may be replaced by null
       requests in the new view (Section 5.1.2) *)
    if t.last_exec > t.committed_upto then begin
      let candidates =
        List.filter (fun (s, _) -> s <= t.committed_upto) (Checkpoint_store.held t.ckpts)
      in
      match List.rev candidates with
      | (s, _) :: _ -> rollback_to t s ~committed:(min t.committed_upto s)
      | [] -> ()
    end;
    broadcast t (View_change vc);
    (* view-change retry timer: if the new view does not activate in time,
       move to the next one with a doubled timeout (liveness, 2.3.5) *)
    t.vc_timeout_us <- t.vc_timeout_us *. 2.0;
    arm_vc t Vc_pending;
    try_new_view t
  end

(* The new primary assembles S from acknowledged view-changes and tries to
   decide (Fig 3-3). *)
and try_new_view t =
  let v = t.view in
  if
    (not t.active) && primary_of t v = t.id
    && Option.is_none (View_change_store.new_view t.vc v)
    && not t.muted
  then begin
    (* S: our own view-change plus every view-change with 2f-1 acks *)
    let s = View_change_store.s_set t.vc ~self:t.id ~f:t.d.cfg.Config.f v in
    if List.length s >= quorum t then begin
      match
        Nv_decision.decide t.d.cfg s ~has_batch:(Request_store.have_batch_bodies t.rq)
      with
      | Nv_decision.Wait ->
          (* fetch batch bodies that block decisions *)
          List.iter
            (fun (_, vc) ->
              List.iter
                (fun e ->
                  if not (Request_store.have_batch_bodies t.rq e.pe_digest) then
                    broadcast t (Fetch_batch { fb_digest = e.pe_digest; fb_replica = t.id }))
                vc.vc_pset)
            s
      | Nv_decision.Decision { start; start_digest; chosen } ->
          let nv =
            {
              nv_view = v;
              nv_vcs = List.map (fun (sender, vc) -> (sender, Wire.view_change_digest vc)) s;
              nv_start = start;
              nv_start_digest = start_digest;
              nv_chosen = chosen;
            }
          in
          View_change_store.accept_new_view t.vc nv;
          broadcast t (New_view nv);
          View_change_store.set_deferred_nv t.vc (Some nv);
          process_new_view t
    end
  end

and enter_new_view t (nv : new_view) =
  let v = nv.nv_view in
  L.debug (fun m -> m "replica %d: entering view %d (start=%d)" t.id v nv.nv_start);
  if Obs.enabled t.obs then Obs.new_view_entered t.obs ~now:(now t) ~view:v;
  t.view <- v;
  t.active <- true;
  View_change_store.set_deferred_nv t.vc None;
  new_perf_epoch t;
  stop_vc_timer t;
  (* prune view-change state for views before this one *)
  View_change_store.prune_below t.vc v;
  (* align our state with the chosen start checkpoint *)
  let have_start = Checkpoint_store.tree_at t.ckpts nv.nv_start <> None in
  if t.last_exec > t.committed_upto then begin
    (* discard tentative executions *)
    let candidates =
      List.filter
        (fun (s, _) -> s <= t.committed_upto && s >= nv.nv_start)
        (Checkpoint_store.held t.ckpts)
    in
    match List.rev candidates with
    | (s, _) :: _ -> rollback_to t s ~committed:s
    | [] -> if have_start then rollback_to t nv.nv_start ~committed:nv.nv_start
  end;
  if (not have_start) && t.last_exec < nv.nv_start then
    start_transfer t ~target:nv.nv_start ~root_digest:nv.nv_start_digest;
  if t.last_exec < nv.nv_start && have_start then
    rollback_to t nv.nv_start ~committed:(max t.committed_upto nv.nv_start);
  if Log.low_mark t.log < nv.nv_start then Log.truncate t.log nv.nv_start;
  (* install the chosen pre-prepares and (as a backup) send prepares *)
  let am_primary = primary_of t v = t.id in
  List.iter
    (fun c ->
      let n = c.nc_seq in
      if Log.in_window t.log n then begin
        let batch, nondet =
          if String.equal c.nc_digest Wire.null_batch_digest then ([], "null")
          else
            match Request_store.find_batch t.rq c.nc_digest with
            | Some (b, nd) -> (b, nd)
            | None -> ([], "null")
        in
        let pp = { pp_view = v; pp_seq = n; pp_batch = batch; pp_nondet = nondet } in
        ignore (Log.accept_pre_prepare t.log ~view:v pp c.nc_digest);
        (Log.find t.log n).Log.self_preprepared <- true;
        if not am_primary then send_prepare t ~view:v ~seq:n c.nc_digest
      end)
    nv.nv_chosen;
  if am_primary then
    t.seqno <- List.fold_left (fun acc c -> max acc c.nc_seq) nv.nv_start nv.nv_chosen
  else t.seqno <- 0;
  (* redo the protocol; executions <= last_exec are skipped automatically *)
  List.iter (fun c -> check_prepared_to_commit t ~seq:c.nc_seq) nv.nv_chosen;
  try_execute t;
  if not (Request_store.waiting_empty t.rq) then start_vc_timer t;
  process_queue t

(* Validate and adopt a deferred new-view once all its view-changes (and
   the chosen batches) are locally available. *)
and process_new_view t =
  match View_change_store.deferred_nv t.vc with
  | None -> ()
  | Some nv when nv.nv_view < t.view -> View_change_store.set_deferred_nv t.vc None
  | Some nv ->
      let v = nv.nv_view in
      (* enter once every chosen batch is here (accepting it again is a
         no-op for the primary, whose decision is recorded), else fetch *)
      let enter_or_fetch () =
        match
          List.filter
            (fun c -> not (Request_store.have_batch_bodies t.rq c.nc_digest))
            nv.nv_chosen
        with
        | [] ->
            View_change_store.accept_new_view t.vc nv;
            enter_new_view t nv
        | missing ->
            List.iter
              (fun c -> broadcast t (Fetch_batch { fb_digest = c.nc_digest; fb_replica = t.id }))
              missing
      in
      if primary_of t v = t.id then begin
        (* the primary already validated its own decision *)
        if Option.is_some (View_change_store.new_view t.vc v) then enter_or_fetch ()
      end
      else begin
        let vcs =
          List.filter_map
            (fun p ->
              View_change_store.available t.vc ~self:t.id ~f:t.d.cfg.Config.f v p
              |> Option.map (fun vc -> (fst p, vc)))
            nv.nv_vcs
        in
        if List.length vcs = List.length nv.nv_vcs && List.length vcs >= quorum t then begin
          match Nv_decision.decide t.d.cfg vcs ~has_batch:(fun _ -> true) with
          | Nv_decision.Decision { start; start_digest; chosen }
            when start = nv.nv_start
                 && String.equal start_digest nv.nv_start_digest
                 && List.length chosen = List.length nv.nv_chosen
                 && List.for_all2
                      (fun a b -> a.nc_seq = b.nc_seq && String.equal a.nc_digest b.nc_digest)
                      chosen nv.nv_chosen ->
              enter_or_fetch ()
          | Nv_decision.Decision _ | Nv_decision.Wait ->
              (* invalid or undecidable: move to the next view *)
              start_view_change t (v + 1)
        end
      end

(* ------------------------------------------------------------------ *)
(* Normal case: requests and pre-prepares                             *)
(* ------------------------------------------------------------------ *)

let note_waiting t digest =
  if Request_store.note_waiting t.rq digest ~now:(now t) && t.active then start_vc_timer t

(* condition 2: f prepares carrying the batch digest vouch for it *)
let batch_vouched t batch_digest =
  let count = ref 0 in
  Log.iter_window t.log (fun e ->
      Array.iter
        (function Some (_, d') when String.equal d' batch_digest -> incr count | _ -> ())
        e.Log.prepares);
  !count >= t.d.cfg.Config.f

(* A batch element is authentic if (3) we already verified the stored
   request body, (1) our MAC entry in the client's token verifies, or (2) f
   prepares vouch for the batch digest. Elements are checked in order and
   the first failure stops the check, so nothing past it is charged. *)
let batch_authentic t elems batch_digest =
  let vouched = lazy (batch_vouched t batch_digest) in
  List.for_all
    (function
      | By_digest d -> (
          match Request_store.find t.rq d with Some sr -> sr.sr_verified | None -> false)
      | Inline (r, tok) -> (
          match Request_store.find t.rq (Wire.request_digest r) with
          | Some sr when sr.sr_verified -> true
          | _ -> verify_token t ~claimed:r.client (Wire.request_digest r) tok || Lazy.force vouched))
    elems

(* [size] is the pre-prepare's wire size (its envelope's cached
   encoding), charged for digesting it. *)
let accept_pre_prepare t (pp : pre_prepare) ~size =
  let v = pp.pp_view and n = pp.pp_seq in
  if
    t.active && v = t.view
    && (not (is_primary t))
    && Log.in_window t.log n
    && View_change_store.has_new_view t.vc v
    && not t.byzantine
  then begin
    let d = Wire.batch_digest pp.pp_batch pp.pp_nondet in
    charge t (Costs.digest_us t.d.costs size);
    (* backups vet the primary's non-deterministic choice (Section 5.4):
       here, the virtual timestamp must not be in the future *)
    let nondet_ok =
      match Int64.of_string_opt pp.pp_nondet with
      | Some ts -> Int64.compare ts (Int64.add (now t) 1_000_000_000L) <= 0
      | None -> String.equal d Wire.null_batch_digest
    in
    let already =
      match Log.entry t.log n with
      | Some e -> e.Log.pp_view = v && e.Log.pp_digest <> None && not (String.equal (Option.get e.Log.pp_digest) d)
      | None -> false
    in
    if nondet_ok && not already then begin
      let authentic = batch_authentic t pp.pp_batch d in
      let have_bodies =
        List.for_all
          (fun e -> match e with By_digest dd -> Request_store.mem t.rq dd | Inline _ -> true)
          pp.pp_batch
      in
      if authentic && have_bodies then begin
        Request_store.store_batch t.rq d pp.pp_batch pp.pp_nondet;
        if Log.accept_pre_prepare t.log ~view:v pp d then begin
          if Obs.enabled t.obs then begin
            Obs.phase t.obs ~now:(now t) Obs.Preprepared ~view:v ~seq:n;
            Obs.batch_assigned t.obs ~now:(now t) ~digests:(List.map elem_digest pp.pp_batch)
          end;
          List.iter
            (fun e ->
              match Request_store.resolve_elem t.rq e with
              | Some r ->
                  if Int64.compare r.timestamp (last_ts t r.client) > 0 then
                    note_waiting t (Wire.request_digest r)
              | None -> ())
            pp.pp_batch;
          send_prepare t ~view:v ~seq:n d;
          check_prepared_to_commit t ~seq:n
        end
      end
      else begin
        (* cannot authenticate yet: defer and fetch missing bodies
           (Sections 3.2.2 and 5.1.5) *)
        Request_store.defer_pre_prepare t.rq pp ~size;
        List.iter
          (fun e ->
            match e with
            | By_digest dd when not (Request_store.mem t.rq dd) ->
                broadcast t (Fetch_request { fr_digest = dd; fr_replica = t.id })
            | _ -> ())
          pp.pp_batch
      end
    end
  end

let retry_deferred_pps t =
  List.iter (fun (pp, size) -> accept_pre_prepare t pp ~size) (Request_store.take_deferred t.rq)

(* Accept and queue a client request (primary) or relay it (backup);
   [size] is its wire size, charged for digesting it. *)
let handle_request t (req : request) token ~verified ~relayed ~size =
  let d = Wire.request_digest req in
  charge t (Costs.digest_us t.d.costs size);
  let last_t = last_ts t req.client in
  if Int64.compare req.timestamp last_t < 0 then ()
  else if Int64.compare req.timestamp last_t = 0 then
    (* already executed: retransmit cached reply *)
    resend_last_reply t req.client ~tentative:false
  else if
    (* Per-client in-flight quota: a new request (retransmissions of a
       request already in the pipeline always pass) beyond the quota is
       dropped and counted, so a flooding client saturates its own slice
       of the pipeline instead of everyone's. Correct clients run
       closed-loop with one outstanding request and never get near the
       default quota. The read-only fast path below bypasses the
       ordering pipeline and is exempt. The count is the client's distinct
       requests queued, assigned to a batch, or awaited from the primary
       (the client-flood attack of Chondros et al.). *)
    (not (Request_store.in_pipeline t.rq d))
    && (not (req.read_only && verified))
    && Request_store.client_inflight t.rq req.client >= t.d.cfg.Config.client_quota
  then begin
    t.counters.n_admission_dropped <- t.counters.n_admission_dropped + 1;
    if Obs.enabled t.obs then Obs.admission_drop t.obs ~now:(now t) ~client:req.client;
    L.debug (fun m -> m "replica %d: admission drop client=%d" t.id req.client)
  end
  else begin
    ignore (Request_store.store_request t.rq req token verified);
    if Obs.enabled t.obs then
      Obs.request_arrival t.obs ~now:(now t) ~client:req.client ~digest:d;
    retry_deferred_pps t;
    if req.read_only && verified then begin
      Request_store.push_read_only t.rq req;
      flush_read_only t
    end
    else if is_primary t then begin
      if verified && Request_store.enqueue t.rq req then process_queue t
    end
    else begin
      note_waiting t d;
      (* relay to the primary with the client's token intact *)
      if not relayed then forward_request ~dst:(primary t) t req token
    end
  end

let handle_prepare t (p : prepare) =
  if p.pr_view = t.view && Log.in_window t.log p.pr_seq && p.pr_replica <> primary_of t p.pr_view
  then begin
    Log.add_prepare t.log p;
    retry_deferred_pps t;
    check_prepared_to_commit t ~seq:p.pr_seq
  end

let handle_commit t (c : commit) =
  if c.cm_view <= t.view && Log.in_window t.log c.cm_seq then begin
    Log.add_commit t.log c;
    try_execute t
  end

(* ------------------------------------------------------------------ *)
(* View-change and new-view messages                                  *)
(* ------------------------------------------------------------------ *)

(* A view-change carrying no certificates: a recovering primary's
   abdication, or what a peer's status says it sent. *)
let bare_view_change ~view ~h replica =
  { vc_view = view; vc_h = h; vc_cset = []; vc_pset = []; vc_qset = []; vc_replica = replica }

let handle_view_change t (vc : view_change) ~verified =
  let v = vc.vc_view in
  if v >= t.view && vc.vc_replica <> t.id then begin
    (* reject messages whose P/Q components contain tuples for this or a
       later view (Section 3.2.4) *)
    let tuples_ok =
      List.for_all (fun e -> e.pe_view < v) vc.vc_pset
      && List.for_all
           (fun q -> List.for_all (fun (_, qv) -> qv < v) q.qe_entries)
           vc.vc_qset
    in
    if tuples_ok then begin
      View_change_store.add t.vc vc ~verified;
      if verified then begin
        (* acknowledge to the new primary (Section 3.2.4) *)
        let d = Wire.view_change_digest vc in
        let ack =
          { va_view = v; va_replica = t.id; va_origin = vc.vc_replica; va_digest = d }
        in
        if View_change_store.note_my_ack t.vc ack then
          send_to t ~dst:(primary_of t v) (View_change_ack ack)
      end;
      (* liveness rule: f+1 view-changes for views above ours force us to
         join the smallest such view *)
      if v > t.view then begin
        match View_change_store.join_view t.vc ~above:t.view ~self:t.id ~weak:(weak t) with
        | Some v' -> start_view_change t v'
        | None -> ()
      end;
      try_new_view t;
      process_new_view t
    end
  end

let handle_view_change_ack t (a : view_change_ack) =
  if a.va_view >= t.view && primary_of t a.va_view = t.id then begin
    View_change_store.add_ack t.vc a;
    try_new_view t
  end

let handle_new_view t (nv : new_view) =
  if nv.nv_view >= t.view && primary_of t nv.nv_view <> t.id && nv.nv_view > 0 then begin
    if nv.nv_view > t.view then start_view_change t nv.nv_view;
    (match View_change_store.deferred_nv t.vc with
    | Some old when old.nv_view >= nv.nv_view -> ()
    | _ -> View_change_store.set_deferred_nv t.vc (Some nv));
    process_new_view t
  end

(* ------------------------------------------------------------------ *)
(* State-transfer messages                                            *)
(* ------------------------------------------------------------------ *)

let local_tree t = Checkpoint_store.latest t.ckpts

let handle_fetch t (f : fetch) =
  match State_transfer.answer t.ckpts ~self:t.id f with
  | Some (Data _ as page) -> send_plain t ~dst:f.ft_replica page
  | Some meta -> send_to t ~dst:f.ft_replica meta
  | None -> ()

(* Check and fetch state: compare ours, possibly corrupt, against a
   certified checkpoint, and fetch what differs. *)
let recovery_step t =
  let transferring = Option.is_some t.transfer in
  match
    Option.bind t.recovering (fun rc ->
        Recovery.fetch_target rc t.ckpts ~weak:(weak t) ~transferring)
  with
  | Some (target, root_digest) -> start_transfer t ~target ~root_digest
  | None -> ()

(* Install the target checkpoint once every partition is in; a bad image
   or root starts the transfer over. *)
let check_transfer_done t tx =
  let target = State_transfer.target tx and root_digest = State_transfer.root_digest tx in
  let charge_tree tree = charge t (Costs.digest_us t.d.costs (Partition_tree.digested_bytes tree)) in
  let restart () =
    t.transfer <- None;
    start_transfer t ~target ~root_digest
  in
  match
    State_transfer.assemble tx ~local:(local_tree t) ~page_size:(page_size t.d) ~branching
  with
  | State_transfer.Incomplete -> ()
  | State_transfer.Malformed -> restart ()
  | State_transfer.Wrong_root tree ->
      charge_tree tree;
      restart ()
  | State_transfer.Rebuilt tree ->
      charge_tree tree;
      t.port.cancel Transfer_retry;
      t.transfer <- None;
      Checkpoint_store.install t.ckpts tree;
      (match restore_snapshot t (Partition_tree.snapshot tree) with
      | Ok () -> ()
      | Error _ ->
          (* quorum-certified bytes our own decoder rejects: the local
             state stays behind, but the installed tree is valid and the
             protocol continues; recovery will retry *)
          ());
      t.last_exec <- target;
      t.committed_upto <- max t.committed_upto target;
      t.seqno <- max t.seqno target;
      announce_checkpoint t target;
      try_stabilize t;
      Log.truncate t.log target;
      if Obs.enabled t.obs then Obs.transfer_done t.obs ~now:(now t) ~target;
      L.debug (fun m -> m "replica %d: state transfer to %d complete" t.id target);
      try_execute t;
      recovery_step t

(* A META-DATA or DATA for the transfer: checking it costs a digest over
   [cost] bytes; a verified one counts its [bytes] and sends the fetches
   it opens. *)
let transfer_reply t tx verdict ~cost ~bytes =
  match verdict with
  | State_transfer.Unexpected -> ()
  | State_transfer.Bad -> charge t (Costs.digest_us t.d.costs cost)
  | State_transfer.Good fetches ->
      charge t (Costs.digest_us t.d.costs cost);
      t.counters.bytes_fetched <- t.counters.bytes_fetched + bytes;
      List.iter (send_fetch t tx) fetches;
      check_transfer_done t tx

let handle_meta_data t (m : meta_data) ~size =
  Option.iter
    (fun tx ->
      transfer_reply t tx (State_transfer.on_meta_data tx ~local:(local_tree t) m)
        ~cost:(32 * List.length m.md_subparts) ~bytes:size)
    t.transfer

let handle_data t (dmsg : data) =
  let len = String.length dmsg.dt_page in
  Option.iter
    (fun tx -> transfer_reply t tx (State_transfer.on_data tx dmsg) ~cost:len ~bytes:len)
    t.transfer

(* ------------------------------------------------------------------ *)
(* Status and retransmission (Section 5.2)                              *)
(* ------------------------------------------------------------------ *)

let send_status t =
  (* a saturated single-threaded replica gets to its periodic work late;
     skip the beat instead of accumulating unbounded CPU debt *)
  let backlogged =
    t.port.backlog () > 8
    || Int64.compare (t.port.busy_until ())
         (Int64.add (now t) (Int64.of_float (t.d.cfg.Config.status_interval_us *. 1_000.0)))
       > 0
  in
  if backlogged then ()
  else if t.active then begin
    (* sa_prepared: prepared but not committed; sa_committed: committed.
       Under mac_storm we understate our protocol state — an empty window
       and nothing executed — so every peer re-sends its whole window to
       us at each status beat (the amplification the per-peer
       retransmission budget bounds). *)
    let prepared = ref [] and committed = ref [] in
    if not t.wrong_mac then
      Log.iter_window t.log (fun e ->
          match e.Log.pp_digest with
          | Some _ when Log.committed t.log ~view:t.view ~seq:e.Log.seq ->
              committed := e.Log.seq :: !committed
          | Some _ when Log.prepared t.log ~view:t.view ~seq:e.Log.seq ->
              prepared := e.Log.seq :: !prepared
          | _ -> ());
    broadcast t
      (Status_active
         {
           sa_replica = t.id;
           sa_view = t.view;
           sa_h = Log.low_mark t.log;
           sa_last_exec = (if t.wrong_mac then Log.low_mark t.log else t.last_exec);
           sa_prepared = !prepared;
           sa_committed = !committed;
         })
  end
  else begin
    let seen = View_change_store.senders t.vc t.view in
    broadcast t
      (Status_pending
         {
           sp_replica = t.id;
           sp_view = t.view;
           sp_h = Log.low_mark t.log;
           sp_last_exec = t.last_exec;
           sp_has_new_view = View_change_store.has_new_view t.vc t.view;
           sp_vcs_seen = seen;
         })
  end

let handle_status_active t (s : status_active) =
  let r = s.sa_replica in
  if r <> t.id then begin
    if s.sa_view < t.view then begin
      (* bring the replica to our view *)
      match View_change_store.my_vc t.vc t.view with
      | Some vc -> send_retx t ~dst:r (View_change vc)
      | None -> ()
    end
    else if s.sa_view = t.view && t.active then begin
      (* retransmit our own protocol messages the peer is missing *)
      let claim = Log.claims t.log ~prepared:s.sa_prepared ~committed:s.sa_committed in
      Log.iter_window t.log (fun e ->
          let n = e.Log.seq in
          if n > s.sa_h then begin
            match e.Log.pp_digest with
            | Some _ ->
                let claimed = claim n in
                (match claimed with
                | Log.Unclaimed -> (
                    (match e.Log.pp with
                    | Some pp when primary_of t e.Log.pp_view = t.id && e.Log.pp_view = t.view ->
                        send_retx t ~dst:r (Pre_prepare pp)
                    | _ -> ());
                    match e.Log.prepares.(t.id) with
                    | Some (v, d') when v = t.view ->
                        send_retx t ~dst:r
                          (Prepare { pr_view = v; pr_seq = n; pr_digest = d'; pr_replica = t.id })
                    | _ -> ())
                | Log.Claimed_prepared | Log.Claimed_committed -> ());
                (match claimed with
                | Log.Unclaimed | Log.Claimed_prepared -> (
                    match e.Log.commits.(t.id) with
                    | Some (v, d') ->
                        send_retx t ~dst:r
                          (Commit { cm_view = v; cm_seq = n; cm_digest = d'; cm_replica = t.id })
                    | None -> ())
                | Log.Claimed_committed -> ())
            | None -> ()
          end)
    end;
    (* peer behind on checkpoints: retransmit our checkpoint message *)
    if s.sa_h < Checkpoint_store.stable_seq t.ckpts then
      Option.iter
        (fun tree -> send_retx t ~dst:r (Checkpoint (checkpoint_msg t tree)))
        (Checkpoint_store.stable_tree t.ckpts)
  end

let handle_status_pending t (s : status_pending) =
  let r = s.sp_replica in
  if r <> t.id then begin
    if s.sp_view <= t.view then begin
      (* the peer's list read once, whatever its length *)
      let seen = Array.make t.d.cfg.Config.n false in
      List.iter (fun i -> if i >= 0 && i < Array.length seen then seen.(i) <- true) s.sp_vcs_seen;
      let peer_holds i = i >= 0 && i < Array.length seen && seen.(i) in
      (* our view-change for the peer's pending view (or ours, to pull it
         forward) *)
      (match View_change_store.my_vc t.vc (max s.sp_view t.view) with
      | Some vc ->
          if (not (peer_holds t.id)) || s.sp_view < t.view then send_retx t ~dst:r (View_change vc)
      | None -> ());
      (* retransmit acks for view-changes the peer lacks *)
      List.iter
        (fun a -> if not (peer_holds a.va_origin) then send_retx t ~dst:r (View_change_ack a))
        (View_change_store.my_acks t.vc s.sp_view);
      (* the primary retransmits the new-view *)
      (match View_change_store.new_view t.vc s.sp_view with
      | Some nv when primary_of t s.sp_view = t.id && not s.sp_has_new_view ->
          send_retx t ~dst:r (New_view nv)
      | _ -> ());
      (* and the view-change messages backing it *)
      if not s.sp_has_new_view then
        View_change_store.iter_view t.vc s.sp_view (fun sender vc ->
            if not (peer_holds sender) then send_retx t ~dst:r (View_change vc))
    end
    else begin
      (* the peer is ahead: catch up by joining its view change *)
      handle_view_change t (bare_view_change ~view:s.sp_view ~h:s.sp_h r) ~verified:false
    end
  end

(* ------------------------------------------------------------------ *)
(* Proactive recovery (Chapter 4)                                       *)
(* ------------------------------------------------------------------ *)

let handle_new_key t (nk : new_key) =
  if nk.nk_replica <> t.id then begin
    match List.assoc_opt t.id nk.nk_keys with
    | Some key -> ignore (Bft_crypto.Keychain.install_out_key t.d.keychain ~peer:nk.nk_replica key)
    | None -> ()
  end

(* The estimation's report: our stable checkpoint and the last sequence
   number prepared or committed. *)
let handle_query_stable t (q : query_stable) =
  if q.qs_replica <> t.id then begin
    let prepared = ref t.committed_upto in
    Log.iter_window t.log (fun e ->
        if Log.prepared t.log ~view:t.view ~seq:e.Log.seq then prepared := max !prepared e.Log.seq);
    send_to t ~dst:q.qs_replica
      (Reply_stable
         {
           rs_checkpoint = Checkpoint_store.stable_seq t.ckpts;
           rs_prepared = !prepared;
           rs_replica = t.id;
           rs_nonce = q.qs_nonce;
         })
  end

(* Recovery pacing: retransmit the current phase's message until it gets a
   response (the paper's replica "keeps retransmitting the query message",
   Section 4.3.2). *)
let recovery_tick_us = 50_000.0

let recovery_tick t =
  match t.recovering with
  | None -> ()
  | Some rc ->
      (match Recovery.phase rc with
      | Recovery.Estimating ->
          broadcast t (Query_stable { qs_replica = t.id; qs_nonce = Recovery.nonce rc })
      | Recovery.Requesting -> (
          match
            Option.bind (Recovery.request rc) (fun req ->
                Request_store.find t.rq (Wire.request_digest req))
          with
          | Some sr -> forward_request t sr.sr_req sr.sr_token
          | None -> ())
      | Recovery.Fetching -> recovery_step t);
      t.port.arm t Recovery_tick ~delay_us:recovery_tick_us

(* Once H_M is estimated, the recovery request goes through the normal
   protocol, signed by the co-processor. *)
let handle_reply_stable t (r : reply_stable) =
  Option.iter
    (fun rc ->
      match Recovery.note_reply_stable rc t.d.cfg ~self:t.id r with
      | None -> ()
      | Some hm ->
          t.hm_bound <- hm;
          Checkpoint_store.drop_above t.ckpts hm;
          if Obs.enabled t.obs then Obs.recovery_phase t.obs ~now:(now t) "recovery-request";
          t.coproc_counter <- Int64.add t.coproc_counter 1L;
          let req = Recovery.make_request rc ~self:t.id ~counter:t.coproc_counter in
          let token = sign_digest t (Wire.request_digest req) in
          ignore (Request_store.store_request t.rq req token true);
          forward_request t req token)
    t.recovering

(* After the recovery request commits, other replicas' replies tell us the
   sequence number it executed at; the recovery point H_R follows. *)
let handle_recovery_reply t (rp : reply) =
  match Option.bind t.recovering (fun rc -> Recovery.note_reply rc t.d.cfg rp) with
  | Some h_r ->
      t.hm_bound <- h_r;
      if Obs.enabled t.obs then Obs.recovery_phase t.obs ~now:(now t) "fetching";
      recovery_step t
  | None -> ()

let begin_recovery t =
  if Option.is_none t.recovering then begin
    L.info (fun m -> m "replica %d: proactive recovery begins" t.id);
    if Obs.enabled t.obs then Obs.recovery_phase t.obs ~now:(now t) "estimating";
    (* a recovering primary abdicates first (Section 4.3.2) *)
    if is_primary t && t.active then
      broadcast t
        (View_change
           (bare_view_change ~view:(t.view + 1) ~h:(Checkpoint_store.stable_seq t.ckpts) t.id));
    (* reboot: rebuild the partition tree from saved (possibly corrupt)
       state so corruption is detectable *)
    send_new_key ~drop_clients:true t;
    t.recovering <- Some (Recovery.create ~nonce:(Bft_util.Rng.int64 t.rng));
    (* the first estimation query goes out now, then once per tick *)
    recovery_tick t
  end

(* ------------------------------------------------------------------ *)
(* Fetch helpers for batches / requests                                 *)
(* ------------------------------------------------------------------ *)

let handle_fetch_batch t (f : fetch_batch) =
  if f.fb_replica <> t.id then
    match Request_store.find_batch t.rq f.fb_digest with
    | Some (batch, nondet) ->
        send_retx t ~dst:f.fb_replica
          (Batch_data { bd_digest = f.fb_digest; bd_batch = batch; bd_nondet = nondet })
    | None -> ()

let handle_batch_data t (bd : batch_data) ~size =
  let d = Wire.batch_digest bd.bd_batch bd.bd_nondet in
  charge t (Costs.digest_us t.d.costs size);
  if String.equal d bd.bd_digest then begin
    Request_store.store_batch t.rq d bd.bd_batch bd.bd_nondet;
    retry_deferred_pps t;
    try_new_view t;
    process_new_view t;
    try_execute t
  end

let handle_fetch_request t (f : fetch_request) =
  if f.fr_replica <> t.id then
    match Request_store.find t.rq f.fr_digest with
    | Some sr ->
        (* a muted replica spends no budget *)
        if (not t.muted) && retx_allow t f.fr_replica then
          forward_request ~dst:f.fr_replica t sr.sr_req sr.sr_token
    | None -> ()

(* ------------------------------------------------------------------ *)
(* Checkpoint message handling                                          *)
(* ------------------------------------------------------------------ *)

let handle_checkpoint_msg t (c : checkpoint) =
  if c.ck_seq > Checkpoint_store.stable_seq t.ckpts then begin
    Checkpoint_store.add_message t.ckpts c;
    try_stabilize t;
    (* if a certified checkpoint is beyond our window, we are out of date:
       fetch it (Section 5.3.2) *)
    (match Checkpoint_store.certified_digest t.ckpts ~threshold:(weak t) with
    | Some (seq, digest) when seq >= t.last_exec + t.d.cfg.Config.checkpoint_interval ->
        start_transfer t ~target:seq ~root_digest:digest
    | _ -> ());
    recovery_step t
  end

(* ------------------------------------------------------------------ *)
(* Dispatcher                                                           *)
(* ------------------------------------------------------------------ *)

(* Verification reuses the envelope's cached digest: the sender filled the
   cache when authenticating, and the simulator delivers the same physical
   envelope, so no receiver ever re-serializes or re-digests the body. *)
let verify_envelope t (env : envelope) =
  match env.body with
  | Request r -> verify_token t ~claimed:r.client (Wire.envelope_digest env) env.auth
  | Data _ -> true (* verified against digests, Section 5.3.2 *)
  | New_key nk -> (
      match env.auth with
      | Auth_sig _ -> verify_token t ~claimed:nk.nk_replica (Wire.envelope_digest env) env.auth
      | _ -> false)
  | _ -> verify_token t ~claimed:env.sender (Wire.envelope_digest env) env.auth

(* Only replicas speak the replica protocol. Clients hold session keys with
   every replica, so a client's MAC on a prepare or commit verifies; every
   body but a request is dropped, unverified, unless its sender is a
   replica id. *)
let from_replica t (env : envelope) =
  match env.body with
  | Request _ -> true
  | _ -> env.sender >= 0 && env.sender < t.d.cfg.Config.n

(* The wire size a handler charges is the envelope's cached encoding
   length: the sender encoded the bytes once, and verification read them. *)
let dispatch t (env : envelope) =
  let verified = verify_envelope t env in
  let size = String.length (Wire.envelope_bytes env) in
  match env.body with
  | Request r ->
      let relayed = env.sender <> r.client in
      if verified || is_primary t then handle_request t r env.auth ~verified ~relayed ~size
  | Reply rp ->
      if verified && env.sender = rp.rp_replica && rp.rp_client = t.id then
        handle_recovery_reply t rp
  | Pre_prepare pp ->
      if verified && env.sender = primary_of t pp.pp_view then accept_pre_prepare t pp ~size
  | Prepare p -> if verified && env.sender = p.pr_replica then handle_prepare t p
  | Commit c -> if verified && env.sender = c.cm_replica then handle_commit t c
  | Checkpoint c -> if verified && env.sender = c.ck_replica then handle_checkpoint_msg t c
  | View_change vc ->
      if env.sender = vc.vc_replica then handle_view_change t vc ~verified
  | View_change_ack a -> if verified && env.sender = a.va_replica then handle_view_change_ack t a
  | New_view nv -> if verified && env.sender = primary_of t nv.nv_view then handle_new_view t nv
  | Fetch f -> if verified && env.sender = f.ft_replica then handle_fetch t f
  | Meta_data m -> if verified && env.sender = m.md_replica then handle_meta_data t m ~size
  | Data d -> handle_data t d
  | Status_active s -> if verified && env.sender = s.sa_replica then handle_status_active t s
  | Status_pending s -> if verified && env.sender = s.sp_replica then handle_status_pending t s
  | New_key nk -> if verified then handle_new_key t nk
  | Query_stable q -> if verified && env.sender = q.qs_replica then handle_query_stable t q
  | Reply_stable r -> if verified && env.sender = r.rs_replica then handle_reply_stable t r
  | Fetch_batch f -> if verified && env.sender = f.fb_replica then handle_fetch_batch t f
  | Batch_data bd -> if verified then handle_batch_data t bd ~size
  | Fetch_request f -> if verified && env.sender = f.fr_replica then handle_fetch_request t f

let handle t env = if from_replica t env then dispatch t env

(* ------------------------------------------------------------------ *)
(* Construction                                                         *)
(* ------------------------------------------------------------------ *)

let create ?(obs = Obs.null) d ~port ~id ~on_execute =
  if page_size d < String.length (Printf.sprintf "%s%d %d\n" paged_magic max_int max_int) then
    invalid_arg "Replica.create: page too small for the paged checkpoint header";
  {
    d;
    id;
    obs;
    port;
    rng = Bft_util.Rng.split d.rng;
    counters =
      {
        n_executed = 0;
        n_batches = 0;
        n_view_changes = 0;
        n_checkpoints = 0;
        n_state_transfers = 0;
        n_recoveries = 0;
        bytes_fetched = 0;
        n_admission_dropped = 0;
        n_retransmit_suppressed = 0;
        n_slowness_vc = 0;
      };
    view = 0;
    seqno = 0;
    last_exec = 0;
    committed_upto = 0;
    log = Log.create d.cfg;
    ckpts = Checkpoint_store.create d.cfg ~page_size:(page_size d) ~branching;
    rq = Request_store.create ();
    last_reply = Hashtbl.create 16;
    reply_clients = [];
    paged_sync = None;
    pending_ckpt_announce = [];
    active = true;
    vc = View_change_store.create ();
    vc_timer = None;
    vc_timeout_us = d.cfg.Config.vc_timeout_us;
    retx = Retransmit_budget.create ();
    perf_ewma_us = 0.0;
    perf_samples = 0;
    perf_baseline_us = 0.0;
    perf_view_start = 0L;
    perf_fired_view = -1;
    transfer = None;
    recovering = None;
    hm_bound = max_int;
    coproc_counter = 0L;
    on_execute;
    byzantine = false;
    muted = false;
    wrong_mac = false;
    null_fill_until = 0;
  }

let start t =
  (* checkpoint 0: the genesis state, considered stable by construction *)
  ignore (take_checkpoint t 0);
  let cfg = t.d.cfg in
  t.port.arm t Status ~delay_us:cfg.Config.status_interval_us;
  if cfg.Config.recovery then begin
    (* stagger watchdogs so at most f replicas recover at once (4.3.3) *)
    let period_us = cfg.Config.watchdog_period_us in
    let offset = period_us *. (float_of_int (t.id + 1) /. float_of_int cfg.Config.n) in
    t.port.arm t Watchdog ~delay_us:(period_us +. offset);
    t.port.arm t Key_refresh ~delay_us:cfg.Config.key_refresh_us
  end

(* A fired timer; the periodic ones re-arm after their work. *)
let on_timer t timer =
  let cfg = t.d.cfg in
  match timer with
  | Vc_active ->
      t.vc_timer <- None;
      if t.active then begin
        relay_waiting t;
        start_view_change t (t.view + 1)
      end
  | Vc_pending ->
      t.vc_timer <- None;
      if not t.active then start_view_change t (t.view + 1)
  | Perf_vc v -> if t.active && t.view = v then start_view_change t (v + 1)
  | Transfer_retry -> transfer_retry t
  | Recovery_tick -> recovery_tick t
  | Status ->
      send_status t;
      t.port.arm t Status ~delay_us:cfg.Config.status_interval_us
  | Watchdog ->
      begin_recovery t;
      t.port.arm t Watchdog ~delay_us:cfg.Config.watchdog_period_us
  | Key_refresh ->
      send_new_key t;
      t.port.arm t Key_refresh ~delay_us:cfg.Config.key_refresh_us

(* ------------------------------------------------------------------ *)
(* Fault injection                                                      *)
(* ------------------------------------------------------------------ *)

let byzantine_equivocate t b = t.byzantine <- b
let mute t b = t.muted <- b
let byzantine_wrong_mac t b = t.wrong_mac <- b

let corrupt_state t =
  (* trash the service state behind the protocol's back *)
  let s = full_snapshot t in
  let s' =
    if String.length s = 0 then "CORRUPT"
    else String.init (String.length s) (fun i -> if i mod 7 = 0 then '\xff' else s.[i])
  in
  (* Route the trashed image through the hardened restore path: a validating
     service refuses it, and the refusal is counted ([snapshot_rejected])
     and logged instead of being silently swallowed. *)
  (match restore_snapshot t s' with
  | Ok () -> ()
  | Error _ ->
      (* rejection recorded by [restore_snapshot]; the digests installed
         below still diverge, so recovery exercises state transfer *)
      ());
  (* also corrupt retained checkpoint trees by rebuilding them from the
     corrupted snapshot (the attacker controls the whole node); building
     from the corrupted bytes directly makes the node's checkpoint digests
     diverge even when the service refused the image *)
  let stable = Checkpoint_store.stable_seq t.ckpts in
  let tree = Partition_tree.build ~seq:stable ~page_size:(page_size t.d) ~branching s' in
  Checkpoint_store.install t.ckpts tree;
  (* the installed tree no longer matches the service's dirty accounting *)
  t.paged_sync <- None

let force_recovery t = begin_recovery t

let crash_reboot t =
  (* lose volatile state; keep identity and keys; rejoin via state transfer *)
  Log.clear_entries t.log;
  Request_store.crash_reset t.rq;
  View_change_store.crash_reset t.vc;
  Retransmit_budget.reset t.retx;
  new_perf_epoch t;
  t.perf_baseline_us <- 0.0;
  t.perf_fired_view <- -1;
  stop_vc_timer t;
  t.active <- true;
  send_status t

(* ------------------------------------------------------------------ *)
(* Canonical state fingerprint (exhaustive exploration)                 *)
(* ------------------------------------------------------------------ *)

(* Time-abstract digest of the full protocol state: everything that can
   influence future behavior or an oracle verdict, nothing derived from the
   virtual clock (no deadlines, no latencies). Two explorer states with
   equal digests must be behaviorally equivalent, so every unordered
   container is serialized in sorted order; ordered structures (FIFOs,
   deferred lists) keep their order because the protocol consumes them in
   order. Every field is named below, so a new one is a build error until
   it is digested or bound to [_] with its reason. *)
let state_digest
    ({
       id; view; seqno; last_exec; committed_upto; log; ckpts; rq; paged_sync;
       pending_ckpt_announce; active; vc; vc_timer; vc_timeout_us; retx; perf_samples;
       perf_fired_view; transfer; recovering; hm_bound; coproc_counter; byzantine; muted;
       wrong_mac; null_fill_until;
       d = _ (* configuration and cost model; the service enters through the snapshot *);
       obs = _ (* tracing sink, inert *);
       port = _ (* the shell; Explore digests the pending timers' labels *);
       rng = _
       (* drawn only by state transfer, key refresh and recovery, which the
          digest sees through the replier, coproc_counter and the nonce *);
       counters = _ (* statistics the protocol never reads *);
       last_reply = _ (* in the snapshot's reply cache *);
       reply_clients = _ (* the reply cache's key order *);
       perf_ewma_us = _ (* a latency: clock-derived *);
       perf_baseline_us = _ (* a latency: clock-derived *);
       perf_view_start = _ (* a time *);
       on_execute = _ (* the harness's tap; Explore digests what it recorded *);
     } as t) =
  let b = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "r%d v=%d act=%b seqno=%d le=%d cu=%d lw=%d byz=%b muted=%b wmac=%b fill=%d hmb=%d vct=%h vcarm=%b ctr=%Ld|"
    id view active seqno last_exec committed_upto (Log.low_mark log)
    byzantine muted wrong_mac null_fill_until
    (if hm_bound = max_int then -1 else hm_bound)
    vc_timeout_us
    (Option.is_some vc_timer)
    coproc_counter;
  Log.digest log b;
  Checkpoint_store.digest ckpts b;
  Request_store.digest rq b;
  add "|ckann:";
  List.iter (fun s -> add "%d;" s) pending_ckpt_announce;
  add "|psync=%s" (match paged_sync with Some s -> string_of_int s | None -> "-");
  View_change_store.digest vc b;
  Retransmit_budget.digest retx b;
  add "|perf=%d:%d" perf_samples perf_fired_view;
  (* state transfer / recovery, coarse but canonical *)
  (match transfer with None -> add "|tx=-" | Some tx -> State_transfer.digest tx b);
  (match recovering with None -> add "|rec=-" | Some rc -> Recovery.digest rc b);
  (* service state + reply cache *)
  add "|snap:%s" (Bft_crypto.Sha256.hexdigest (full_snapshot t));
  Bft_crypto.Sha256.hexdigest (Buffer.contents b)
