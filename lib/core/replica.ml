module Engine = Bft_sim.Engine
module Network = Bft_net.Network
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
  net : Message.envelope Network.t;
  registry : Bft_crypto.Signature.registry;
  keychain : Bft_crypto.Keychain.t;
  signer : Bft_crypto.Signature.signer;
  service : Bft_sm.Service.t;
  rng : Bft_util.Rng.t;
  page_size : int;
  branching : int;
}

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

(* One in-flight state transfer (Section 5.3.2). *)
type transfer = {
  tx_target : int; (* checkpoint sequence number being fetched *)
  tx_root_digest : string;
  (* (level, index) -> expected (lm, digest), discovered walking down *)
  tx_expected : (int * int, int * string) Hashtbl.t;
  tx_pending : (int * int, unit) Hashtbl.t; (* partitions fetched but unanswered *)
  tx_pages : (int, Partition_tree.page) Hashtbl.t; (* verified fetched pages *)
  mutable tx_page_level : int; (* depth of the remote tree, learnt from metas *)
  mutable tx_num_pages : int;
  tx_ok_pages : (int, unit) Hashtbl.t; (* local pages proven up-to-date *)
  mutable tx_replier : int;
  mutable tx_timer : Engine.handle option;
}

(* Per-peer retransmission token bucket (active only when
   [Config.retransmit_budget = Some b]): [b] retransmissions per refill
   window, windows stretched exponentially while the peer keeps draining
   its bucket dry — a wrong-MAC peer whose status always claims to be
   behind gets geometrically less amplification out of us. *)
type retx_state = {
  mutable rx_tokens : int;
  mutable rx_window_start : Engine.time;
  mutable rx_backoff : float; (* multiplier on the status interval *)
  mutable rx_exhausted : bool; (* bucket ran dry within this window *)
}

(* Recovery (Chapter 4) progress. *)
type recovery = {
  mutable rc_phase : [ `Estimating | `Waiting_recovery_reply | `Fetching ];
  mutable rc_request : request option; (* the signed recovery request, for retransmission *)
  rc_nonce : int64;
  (* replica -> (min c, max p) collected by the estimation protocol *)
  rc_est : (int, int * int) Hashtbl.t;
  mutable rc_est_hm : int; (* H_M once estimated *)
  mutable rc_recovery_point : int; (* H_R *)
  rc_replies : (int, int) Hashtbl.t; (* replica -> seqno in recovery reply *)
}

type t = {
  d : deps;
  id : int;
  obs : Obs.t;
  engine : Engine.t;
  costs : Costs.t;
  rng : Bft_util.Rng.t;
  counters : counters;
  (* allocate-once wire buffer for this node's outgoing encodes: broadcast
     and send_to reuse it instead of the module-wide scratch, so a node's
     encode working set stays one warm buffer *)
  arena : Bft_net.Wire_arena.t;
  (* protocol state *)
  mutable view : int;
  mutable seqno : int; (* last sequence number assigned (primary) *)
  mutable last_exec : int;
  mutable committed_upto : int;
  log : Log.t;
  ckpts : Checkpoint_store.t;
  rq : Request_store.t; (* requests, batches, queue, waiting set *)
  (* adaptive batch sizer target (Config.adaptive_batch); depends only on
     the queue depths observed at batch-formation points, so it is as
     deterministic as the queue itself *)
  mutable batch_target : int;
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
  mutable vc_timer : Engine.handle option;
  mutable vc_timeout_us : float;
  (* per-peer retransmission budget state (see [retx_state]) *)
  retx : (int, retx_state) Hashtbl.t;
  (* primary performance watchdog (Config.perf_watchdog): smoothed
     accept->execute latency vs the best smoothed latency ever seen *)
  mutable perf_ewma_us : float;
  mutable perf_samples : int;
  mutable perf_baseline_us : float; (* 0.0 = not yet established *)
  mutable perf_fired_view : int; (* last view the watchdog fired in *)
  mutable perf_view_start : Engine.time;
      (* when the current view was entered: requests that arrived earlier
         waited under the previous primary and must not feed the EWMA *)
  (* state transfer *)
  mutable transfer : transfer option;
  (* recovery *)
  mutable recovering : recovery option;
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
let charge t us = Network.charge t.d.net ~id:t.id us
let now t = Engine.now t.engine

(* ------------------------------------------------------------------ *)
(* Authentication                                                      *)
(* ------------------------------------------------------------------ *)

(* Authentication covers the body's 32-byte digest ([Wire.cached_digest]),
   as the paper's library MACs a fixed-size header holding it. The digest
   is memoized in the envelope's encoding cache next to the bytes, so the
   auth token, [envelope_size] and every receiver's verification share
   one serialization and one digest. *)

let sign_digest t d =
  charge t t.costs.Costs.sig_gen_us;
  Auth_sig (Bft_crypto.Signature.sign t.d.signer d)

let mac_digest t ~dst d =
  charge t t.costs.Costs.mac_us;
  match Bft_crypto.Auth.compute_mac t.d.keychain ~peer:dst d with
  | Some m -> Auth_mac m
  | None -> Auth_none

let vector_digest t ~dsts d =
  charge t (Costs.auth_gen_us t.costs (List.length dsts));
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

(* Multicast to all replicas (including self: the paper's replicas process
   their own protocol messages through the log). The body is encoded once;
   the single precomputed [envelope_size] covers every destination. [enc]
   is a cache the caller already filled with the body's encoding. *)
let broadcast ?(enc = Message.no_cache ()) t body =
  if not t.muted then begin
    let d = Wire.cached_digest ~arena:t.arena enc body in
    let auth =
      match (t.d.cfg.Config.auth_mode, body) with
      | _, New_key _ -> sign_digest t d
      | Config.Sig_auth, _ -> sign_digest t d
      | Config.Mac_auth, _ -> vector_digest t ~dsts:(replica_ids t) d
    in
    let auth = if t.wrong_mac then corrupt_auth t auth ~dsts:(replica_ids t) else auth in
    let env = { sender = t.id; body; auth; enc } in
    Network.multicast t.d.net ~src:t.id ~dsts:(replica_ids t)
      ~size:(Wire.envelope_size env) env
  end

let send_to t ~dst body =
  if not t.muted then begin
    let enc = Message.no_cache () in
    let d = Wire.cached_digest ~arena:t.arena enc body in
    let auth =
      match t.d.cfg.Config.auth_mode with
      | Config.Sig_auth -> sign_digest t d
      | Config.Mac_auth -> mac_digest t ~dst d
    in
    let auth = if t.wrong_mac then corrupt_auth t auth ~dsts:[ dst ] else auth in
    let env = { sender = t.id; body; auth; enc } in
    Network.send t.d.net ~src:t.id ~dst ~size:(Wire.envelope_size env) env
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

(* Per-peer retransmission budget (see [retx_state]): inert when
   [Config.retransmit_budget] is [None]. *)
let retx_allow t peer =
  match t.d.cfg.Config.retransmit_budget with
  | None -> true
  | Some b ->
      let st =
        match Hashtbl.find_opt t.retx peer with
        | Some st -> st
        | None ->
            let st =
              {
                rx_tokens = b;
                rx_window_start = now t;
                rx_backoff = 1.0;
                rx_exhausted = false;
              }
            in
            Hashtbl.replace t.retx peer st;
            st
      in
      let window =
        Engine.of_us_float (st.rx_backoff *. t.d.cfg.Config.status_interval_us)
      in
      if Int64.compare (Int64.sub (now t) st.rx_window_start) window >= 0 then begin
        (* refill; a peer that drained the previous window dry waits
           geometrically longer for the next one (capped) *)
        st.rx_backoff <-
          (if st.rx_exhausted then Float.min 16.0 (st.rx_backoff *. 2.0) else 1.0);
        st.rx_tokens <- b;
        st.rx_window_start <- now t;
        st.rx_exhausted <- false
      end;
      if st.rx_tokens > 0 then begin
        st.rx_tokens <- st.rx_tokens - 1;
        true
      end
      else begin
        st.rx_exhausted <- true;
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
    Network.send t.d.net ~src:t.id ~dst ~size:(Wire.envelope_size env) env
  end

(* Check the token's claim that [claimed] sent the message with digest
   [d], charging the receiver's CPU for it. A MAC or authenticator costs
   one [mac_us]: the receiver checks only its own entry (Section 3.2.1). *)
let verify_token t ~claimed d token =
  match token with
  | Auth_none -> false
  | Auth_sig s ->
      charge t t.costs.Costs.sig_verify_us;
      s.Bft_crypto.Signature.signer_id = claimed
      && Bft_crypto.Signature.verify t.d.registry s d
  | Auth_mac m ->
      charge t t.costs.Costs.mac_us;
      Bft_crypto.Auth.verify_mac t.d.keychain ~peer:claimed m d
  | Auth_vector a ->
      charge t t.costs.Costs.mac_us;
      Bft_crypto.Auth.verify_authenticator t.d.keychain ~peer:claimed a d

(* ------------------------------------------------------------------ *)
(* State snapshots: service state + reply cache (the paper's checkpoints
   snapshot val, last-rep and last-rep-t together, Section 2.4.4).       *)
(* ------------------------------------------------------------------ *)

(* Timestamp of the client's last executed request, -1 before any. *)
let last_ts t client =
  match Hashtbl.find_opt t.last_reply client with Some (ts, _, _) -> ts | None -> -1L

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
    let p = t.d.page_size in
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

(* ------------------------------------------------------------------ *)
(* Timers: view-change timer driven by the waiting-request set          *)
(* ------------------------------------------------------------------ *)

let stop_vc_timer t =
  match t.vc_timer with
  | Some h ->
      Engine.cancel h;
      t.vc_timer <- None
  | None -> ()

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
          if retx_allow t dst then begin
            let env = Message.envelope ~sender:t.id ~auth:sr.sr_token (Request sr.sr_req) in
            Network.send t.d.net ~src:t.id ~dst ~size:(Wire.envelope_size env) env
          end)
        (Request_store.waiting_requests t.rq)
  end

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
  let p = t.d.page_size in
  let svc_pages = pg.Bft_sm.Service.pg_pages () in
  let svc_dirty = pg.Bft_sm.Service.pg_drain_dirty () in
  let n_svc = Array.length svc_pages in
  let rb = Buffer.create 256 in
  encode_reply_cache t rb;
  let reply = Buffer.contents rb in
  let reply_len = String.length reply in
  let header_line = Printf.sprintf "PAGED %d %d\n" (n_svc * p) reply_len in
  let header = header_line ^ String.make (p - String.length header_line) '\000' in
  let n_reply = (reply_len + p - 1) / p in
  let pages = Array.make (1 + n_svc + n_reply) header in
  Array.blit svc_pages 0 pages 1 n_svc;
  for i = 0 to n_reply - 1 do
    let off = i * p in
    pages.(1 + n_svc + i) <- String.sub reply off (min p (reply_len - off))
  done;
  let in_sync =
    match (t.paged_sync, Checkpoint_store.latest t.ckpts) with
    | Some s, Some prev -> Partition_tree.seq prev = s
    | _ -> false
  in
  let dirty =
    if not in_sync then List.init (Array.length pages) Fun.id
    else
      0
      :: (List.map (fun i -> i + 1) svc_dirty
          @ List.init n_reply (fun i -> 1 + n_svc + i))
  in
  charge t (Costs.digest_us t.costs 0);
  let tree = Checkpoint_store.take_pages t.ckpts ~seq ~pages ~dirty in
  charge t (Costs.digest_us t.costs (Partition_tree.digested_bytes tree));
  t.paged_sync <- Some seq;
  tree

let take_checkpoint t seq =
  let tree =
    match t.d.service.Bft_sm.Service.paged with
    | Some pg
      when pg.Bft_sm.Service.pg_page_size = t.d.page_size
           && String.length (Printf.sprintf "PAGED %d %d\n" max_int max_int)
              <= t.d.page_size ->
        take_checkpoint_paged t seq pg
    | _ ->
        let snap = full_snapshot t in
        charge t (Costs.digest_us t.costs 0);
        let tree = Checkpoint_store.take t.ckpts ~seq ~snapshot:snap in
        charge t (Costs.digest_us t.costs (Partition_tree.digested_bytes tree));
        tree
  in
  t.counters.n_checkpoints <- t.counters.n_checkpoints + 1;
  if Obs.enabled t.obs then begin
    let dirty = Partition_tree.pages_modified_at tree ~seq in
    Obs.checkpoint_taken t.obs ~now:(now t) ~seq
      ~bytes:(Partition_tree.digested_bytes tree)
      ~dirty ~clean:(Partition_tree.num_pages tree - dirty)
  end;
  tree

let announce_checkpoint t seq =
  match Checkpoint_store.tree_at t.ckpts seq with
  | None -> ()
  | Some tree ->
      let ck = { ck_seq = seq; ck_digest = Partition_tree.root_digest tree; ck_replica = t.id } in
      Checkpoint_store.add_message t.ckpts ck;
      broadcast t (Checkpoint ck)

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

let update_committed_upto t =
  let continue = ref true in
  while !continue do
    let n = t.committed_upto + 1 in
    if Log.committed t.log ~view:t.view ~seq:n then begin
      t.committed_upto <- n;
      if Obs.enabled t.obs then
        Obs.phase t.obs ~now:(now t) Obs.Committed ~view:t.view ~seq:n
    end
    else continue := false
  done

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

let send_fetch t ~level ~index =
  match t.transfer with
  | None -> ()
  | Some tx ->
      Hashtbl.replace tx.tx_pending (level, index) ();
      if Obs.enabled t.obs then Obs.transfer_fetch t.obs ~now:(now t) ~level ~index;
      broadcast t
        (Fetch
           {
             ft_level = level;
             ft_index = index;
             ft_lc = Checkpoint_store.stable_seq t.ckpts;
             ft_rc = tx.tx_target;
             ft_replier = tx.tx_replier;
             ft_replica = t.id;
           })

let rec transfer_retry t =
  match t.transfer with
  | None -> ()
  | Some tx ->
      tx.tx_replier <- pick_replier t;
      Hashtbl.iter (fun (level, index) () -> send_fetch t ~level ~index)
        (Hashtbl.copy tx.tx_pending);
      tx.tx_timer <-
        Some
          (Engine.schedule t.engine
             ~label:(Engine.Id ("tx", t.id))
             ~delay:(Engine.of_us_float 30_000.0) (fun () ->
               transfer_retry t))

let start_transfer t ~target ~root_digest =
  match t.transfer with
  | Some tx when tx.tx_target >= target -> ()
  | _ ->
      (match t.transfer with
      | Some tx -> ( match tx.tx_timer with Some h -> Engine.cancel h | None -> ())
      | None -> ());
      t.counters.n_state_transfers <- t.counters.n_state_transfers + 1;
      L.debug (fun m -> m "replica %d: state transfer to %d" t.id target);
      if Obs.enabled t.obs then Obs.transfer_start t.obs ~now:(now t) ~target;
      let tx =
        {
          tx_target = target;
          tx_root_digest = root_digest;
          tx_expected = Hashtbl.create 32;
          tx_pending = Hashtbl.create 8;
          tx_pages = Hashtbl.create 32;
          tx_page_level = -1;
          tx_num_pages = 0;
          tx_ok_pages = Hashtbl.create 32;
          tx_replier = pick_replier t;
          tx_timer = None;
        }
      in
      Hashtbl.replace tx.tx_expected (0, 0) (target, root_digest);
      t.transfer <- Some tx;
      send_fetch t ~level:0 ~index:0;
      tx.tx_timer <-
        Some
          (Engine.schedule t.engine
             ~label:(Engine.Id ("tx", t.id))
             ~delay:(Engine.of_us_float 30_000.0) (fun () ->
               transfer_retry t))

(* ------------------------------------------------------------------ *)
(* The protocol core: one recursion group                              *)
(* ------------------------------------------------------------------ *)

(* The replica's one genuine cycle. Executing a request clears its
   waiting entry and restarts the vc timer (clear_waiting ->
   start_vc_timer); when that timer, or the performance watchdog's
   zero-delay event, fires it starts a view change; the view change ends
   by entering the new view, which re-runs the chosen batches through
   check_prepared_to_commit and try_execute. Separately, execution slides
   the primary's window (try_execute -> process_queue), and each
   pre-prepare the primary sends executes what it can (send_pre_prepare
   -> try_execute). The non-recursive helpers sit above the group; the
   message handlers below call into it. *)
let rec start_vc_timer t =
  (* [Option.is_none], not [= None]: Engine.handle values must never meet
     the polymorphic comparator (enforced by bftlint's
     engine-handle-compare rule) *)
  if Option.is_none t.vc_timer && not t.d.cfg.Config.debug_no_vc_timer then
    t.vc_timer <-
      Some
        (Engine.schedule t.engine
           ~label:(Engine.Id ("vc", t.id))
           ~delay:(Engine.of_us_float t.vc_timeout_us)
           (fun () ->
             t.vc_timer <- None;
             if t.active then begin
               relay_waiting t;
               start_view_change t (t.view + 1)
             end))

(* Primary performance watchdog (the slow-primary attack of Chondros et
   al.): a primary that keeps answering timers but orders requests ever
   more slowly never trips the silence-based vc timer. Backups smooth
   the accept->execute latency of each request (EWMA) and keep the best
   smoothed value ever observed as a baseline; when the current EWMA
   degrades beyond [perf_factor] times that baseline the backup demands
   a view change — once per view, from a zero-delay event so the view
   change never reenters [execute_batch]. *)
and perf_note_sample t arrival =
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
        let v = t.view in
        ignore
          (Engine.schedule t.engine
             ~label:(Engine.Id ("perfvc", t.id))
             ~delay:0L
             (fun () ->
               if t.active && t.view = v then start_view_change t (v + 1)))
      end
  end

and restart_vc_timer t =
  if Request_store.waiting_empty t.rq then stop_vc_timer t
  else if t.active then begin
    (* restart for the next waiting request (FIFO fairness, 2.3.5) *)
    stop_vc_timer t;
    start_vc_timer t
  end

and clear_waiting t digest =
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
and purge_superseded t ~client ~ts =
  if Request_store.purge_superseded t.rq ~client ~ts then restart_vc_timer t

and try_stabilize t =
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
      | Some rc
        when rc.rc_phase = `Fetching && seq >= rc.rc_recovery_point ->
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
                  if String.length req.op >= 9 && String.equal (String.sub req.op 0 9) "\x00RECOVERY"
                  then begin
                    (* recovery request (Section 4.3.2): refresh our keys and
                       reply with the sequence number it executed at *)
                    let k = t.d.cfg.Config.checkpoint_interval in
                    t.null_fill_until <-
                      max t.null_fill_until (((n + k - 1) / k * k) + t.d.cfg.Config.log_size);
                    if req.client <> t.id then begin
                      t.coproc_counter <- Int64.add t.coproc_counter 1L;
                      let keys =
                        List.filter_map
                          (fun peer ->
                            if peer = t.id then None
                            else
                              Some
                                (peer, Bft_crypto.Keychain.fresh_in_key t.d.keychain t.rng ~peer))
                          (replica_ids t)
                      in
                      broadcast t
                        (New_key { nk_replica = t.id; nk_keys = keys; nk_counter = t.coproc_counter })
                    end;
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
                    charge t (Costs.digest_us t.costs (String.length result));
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
                match Hashtbl.find_opt t.last_reply req.client with
                | Some (ts, result, _) ->
                    send_reply t ~client:req.client ~ts ~tentative (Full result)
                | None -> ()
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
  (* announce checkpoints whose batches have now committed *)
  let announce, keep =
    List.partition (fun n -> n <= t.committed_upto) t.pending_ckpt_announce
  in
  t.pending_ckpt_announce <- keep;
  List.iter (fun n -> announce_checkpoint t n) (List.sort compare announce);
  let progress = ref true in
  while !progress do
    progress := false;
    let n = t.last_exec + 1 in
    if Log.in_window t.log n || n <= Log.low_mark t.log then begin
      match Log.entry t.log n with
      | Some e when e.Log.pp_digest <> None && not e.Log.executed ->
          let d = Option.get e.Log.pp_digest in
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
  let announce, keep =
    List.partition (fun n -> n <= t.committed_upto) t.pending_ckpt_announce
  in
  t.pending_ckpt_announce <- keep;
  List.iter (fun n -> announce_checkpoint t n) (List.sort compare announce);
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
  let bytes = Wire.cached_encode ~arena:t.arena enc (Pre_prepare pp) in
  charge t (Costs.digest_us t.costs (String.length bytes));
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
      let take =
        if cfg.Config.adaptive_batch then begin
          (* queue-depth-tracking sizer: while arrivals keep the queue at
             or above the current target the target doubles (throughput
             mode — amortize protocol overhead over bigger batches); when
             the queue falls short the target decays toward the observed
             depth (latency mode — do not hold requests back waiting for
             a big batch that is not coming) *)
          let depth = Request_store.queue_len t.rq in
          if depth >= t.batch_target then
            t.batch_target <- min cfg.Config.max_batch (t.batch_target * 2)
          else t.batch_target <- max 1 ((t.batch_target + depth + 1) / 2);
          t.batch_target
        end
        else if cfg.Config.batching then cfg.Config.max_batch
        else 1
      in
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
  | Some e when e.Log.pp_digest <> None ->
      let d = Option.get e.Log.pp_digest in
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
    t.vc_timer <-
      Some
        (Engine.schedule t.engine
           ~label:(Engine.Id ("vc", t.id))
           ~delay:(Engine.of_us_float t.vc_timeout_us)
           (fun () ->
             t.vc_timer <- None;
             if not t.active then start_view_change t (t.view + 1)));
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
  (* new watchdog epoch: the smoothed latency of the old primary (and of
     the view-change gap itself) says nothing about the new primary *)
  t.perf_view_start <- now t;
  t.perf_ewma_us <- 0.0;
  t.perf_samples <- 0;
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
    charge t (Costs.digest_us t.costs size);
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
  charge t (Costs.digest_us t.costs size);
  let last_t = last_ts t req.client in
  if Int64.compare req.timestamp last_t < 0 then ()
  else if Int64.compare req.timestamp last_t = 0 then begin
    (* already executed: retransmit cached reply *)
    match Hashtbl.find_opt t.last_reply req.client with
    | Some (ts, result, _) -> send_reply t ~client:req.client ~ts ~tentative:false (Full result)
    | None -> ()
  end
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
    && (not (req.read_only && t.d.cfg.Config.read_only_opt && verified))
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
    if req.read_only && t.d.cfg.Config.read_only_opt && verified then begin
      Request_store.push_read_only t.rq req;
      flush_read_only t
    end
    else if is_primary t then begin
      if verified && Request_store.enqueue t.rq req then process_queue t
    end
    else begin
      note_waiting t d;
      if not relayed then
        (* relay to the primary with the client's token intact *)
        if not t.muted then begin
          let env = Message.envelope ~sender:t.id ~auth:token (Request req) in
          Network.send t.d.net ~src:t.id ~dst:(primary t)
            ~size:(Wire.envelope_size env) env
        end
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
  if f.ft_replica <> t.id then begin
    let reply_from_tree tree =
      let page_level = Partition_tree.depth tree - 1 in
      if f.ft_level >= page_level then begin
        if f.ft_index < Partition_tree.num_pages tree && f.ft_replier = t.id then begin
          let p = Partition_tree.page tree f.ft_index in
          send_plain t ~dst:f.ft_replica
            (Data { dt_index = f.ft_index; dt_lm = p.Partition_tree.lm; dt_page = p.Partition_tree.data })
        end
      end
      else if f.ft_replier = t.id || Partition_tree.seq tree > max f.ft_lc f.ft_rc then begin
        match Partition_tree.children tree ~level:f.ft_level ~index:f.ft_index with
        | children ->
            send_to t ~dst:f.ft_replica
              (Meta_data
                 {
                   md_checkpoint = Partition_tree.seq tree;
                   md_level = f.ft_level;
                   md_index = f.ft_index;
                   md_subparts = children;
                   md_replica = t.id;
                 })
        | exception Invalid_argument _ -> ()
      end
    in
    match Checkpoint_store.tree_at t.ckpts f.ft_rc with
    | Some tree -> reply_from_tree tree
    | None -> (
        (* help with a newer stable checkpoint when the requested one is
           gone (Section 5.3.2) *)
        match Checkpoint_store.stable_tree t.ckpts with
        | Some tree when Partition_tree.seq tree > max f.ft_lc f.ft_rc -> reply_from_tree tree
        | _ -> ())
  end

(* Does the local current state already match the expected page digest? *)
let local_page_matches t ~index ~lm ~digest =
  match local_tree t with
  | None -> false
  | Some tree ->
      index < Partition_tree.num_pages tree
      &&
      let p = Partition_tree.page tree index in
      p.Partition_tree.lm = lm && String.equal p.Partition_tree.digest digest

(* Check and fetch state: rebuild our partition tree from the (possibly
   corrupt) current state and compare against a certified checkpoint. *)
let recovery_step t =
  match t.recovering with
  | Some rc when rc.rc_phase = `Fetching -> (
      (* find a certified recent checkpoint to check against *)
      match
        Checkpoint_store.certified_digest t.ckpts ~threshold:(weak t)
      with
      | Some (seq, digest) when seq > Checkpoint_store.stable_seq t.ckpts || t.transfer = None ->
          let local =
            match Checkpoint_store.tree_at t.ckpts seq with
            | Some tree -> String.equal (Partition_tree.root_digest tree) digest
            | None -> false
          in
          if not local then start_transfer t ~target:seq ~root_digest:digest
      | _ -> ())
  | _ -> ()

let check_transfer_done t =
  match t.transfer with
  | None -> ()
  | Some tx ->
      if Hashtbl.length tx.tx_pending = 0 && tx.tx_num_pages > 0 then begin
        (* assemble the page records: fetched pages where we fetched, local
           pages where they were proven current — each keeps its own lm, so
           the rebuilt tree reproduces the sender's digests even when clean
           pages predate the target checkpoint *)
        let ok = ref true in
        let acc = ref [] in
        for i = 0 to tx.tx_num_pages - 1 do
          match Hashtbl.find_opt tx.tx_pages i with
          | Some p -> acc := p :: !acc
          | None ->
              if Hashtbl.mem tx.tx_ok_pages i then begin
                match local_tree t with
                | Some tree -> acc := Partition_tree.page tree i :: !acc
                | None -> ok := false
              end
              else ok := false
        done;
        if !ok then begin
          let pages = Array.of_list (List.rev !acc) in
          match
            Partition_tree.of_pages ~seq:tx.tx_target ~page_size:t.d.page_size
              ~branching:t.d.branching pages
          with
          | exception Invalid_argument _ ->
              (* fetched pages do not form a valid image: start over *)
              t.transfer <- None;
              start_transfer t ~target:tx.tx_target ~root_digest:tx.tx_root_digest
          | tree ->
          charge t (Costs.digest_us t.costs (Partition_tree.digested_bytes tree));
          if String.equal (Partition_tree.root_digest tree) tx.tx_root_digest then begin
            let snapshot = Partition_tree.snapshot tree in
            (match tx.tx_timer with Some h -> Engine.cancel h | None -> ());
            t.transfer <- None;
            Checkpoint_store.install t.ckpts tree;
            (match restore_snapshot t snapshot with
            | Ok () -> ()
            | Error _ ->
                (* quorum-certified bytes our own decoder rejects: the local
                   state stays behind, but the installed tree is valid and
                   the protocol continues; recovery will retry *)
                ());
            t.last_exec <- tx.tx_target;
            t.committed_upto <- max t.committed_upto tx.tx_target;
            t.seqno <- max t.seqno tx.tx_target;
            Checkpoint_store.add_message t.ckpts
              { ck_seq = tx.tx_target; ck_digest = tx.tx_root_digest; ck_replica = t.id };
            announce_checkpoint t tx.tx_target;
            try_stabilize t;
            Log.truncate t.log tx.tx_target;
            if Obs.enabled t.obs then
              Obs.transfer_done t.obs ~now:(now t) ~target:tx.tx_target;
            L.debug (fun m -> m "replica %d: state transfer to %d complete" t.id tx.tx_target);
            try_execute t;
            recovery_step t
          end
          else begin
            (* root mismatch: restart the transfer from scratch *)
            t.transfer <- None;
            start_transfer t ~target:tx.tx_target ~root_digest:tx.tx_root_digest
          end
        end
      end

let handle_meta_data t (m : meta_data) ~size =
  match t.transfer with
  | None -> ()
  | Some tx when m.md_checkpoint = tx.tx_target -> (
      match Hashtbl.find_opt tx.tx_expected (m.md_level, m.md_index) with
      | None -> ()
      | Some (exp_lm, exp_digest) ->
          (* verify: recompute the parent digest from the children *)
          let lm = List.fold_left (fun acc (_, lm, _) -> max acc lm) 0 m.md_subparts in
          let child_digests = List.map (fun (_, _, d) -> d) m.md_subparts in
          let recomputed =
            (* same construction as Partition_tree's interior digest *)
            let acc =
              List.fold_left
                (fun acc d -> Bft_crypto.Adhash.add acc (Bft_crypto.Adhash.of_digest d))
                Bft_crypto.Adhash.zero child_digests
            in
            let b = Buffer.create 64 in
            Buffer.add_string b "META";
            Buffer.add_string b (string_of_int m.md_level);
            Buffer.add_char b ':';
            Buffer.add_string b (string_of_int m.md_index);
            Buffer.add_char b ':';
            Buffer.add_string b (string_of_int lm);
            Buffer.add_char b ':';
            Buffer.add_string b (Bft_crypto.Adhash.to_string acc);
            Bft_crypto.Sha256.digest (Buffer.contents b)
          in
          charge t (Costs.digest_us t.costs (32 * List.length child_digests));
          if lm = exp_lm && String.equal recomputed exp_digest then begin
            Hashtbl.remove tx.tx_pending (m.md_level, m.md_index);
            t.counters.bytes_fetched <-
              t.counters.bytes_fetched + size;
            (* determine whether children are pages: replies at level
               [depth-2] describe pages; we learn depth when a child has no
               further fan-out. Heuristic: ask for each mismatching child;
               if the child turns out to be a page the replier answers DATA
               (we request pages at [tx_page_level]). To keep the walk
               simple we learn the remote depth from the local tree when
               geometries match, else assume children of the lowest meta
               level are pages. *)
            let remote_page_level =
              match local_tree t with
              | Some tree -> Partition_tree.depth tree - 1
              | None -> m.md_level + 1
            in
            if m.md_level + 1 >= remote_page_level then begin
              tx.tx_page_level <- m.md_level + 1;
              List.iter
                (fun (idx, clm, cd) ->
                  tx.tx_num_pages <- max tx.tx_num_pages (idx + 1);
                  if local_page_matches t ~index:idx ~lm:clm ~digest:cd then
                    Hashtbl.replace tx.tx_ok_pages idx ()
                  else begin
                    Hashtbl.replace tx.tx_expected (m.md_level + 1, idx) (clm, cd);
                    send_fetch t ~level:(m.md_level + 1) ~index:idx
                  end)
                m.md_subparts
            end
            else
              List.iter
                (fun (idx, clm, cd) ->
                  let local_match =
                    match local_tree t with
                    | Some tree -> (
                        match Partition_tree.node_info tree ~level:(m.md_level + 1) ~index:idx with
                        | llm, ld -> llm = clm && String.equal ld cd
                        | exception Invalid_argument _ -> false)
                    | None -> false
                  in
                  if local_match then begin
                    (* whole subtree is current: mark its pages ok *)
                    match local_tree t with
                    | Some tree ->
                        let rec mark level index =
                          let page_level = Partition_tree.depth tree - 1 in
                          if level = page_level then begin
                            tx.tx_num_pages <- max tx.tx_num_pages (index + 1);
                            Hashtbl.replace tx.tx_ok_pages index ()
                          end
                          else
                            let first, last = Partition_tree.child_range tree ~level ~index in
                            for c = first to last do
                              mark (level + 1) c
                            done
                        in
                        mark (m.md_level + 1) idx
                    | None -> ()
                  end
                  else begin
                    Hashtbl.replace tx.tx_expected (m.md_level + 1, idx) (clm, cd);
                    send_fetch t ~level:(m.md_level + 1) ~index:idx
                  end)
                m.md_subparts;
            check_transfer_done t
          end)
  | Some _ -> ()

let handle_data t (dmsg : data) =
  match t.transfer with
  | None -> ()
  | Some tx -> (
      match Hashtbl.find_opt tx.tx_expected (tx.tx_page_level, dmsg.dt_index) with
      | None -> ()
      | Some (exp_lm, exp_digest) ->
          let page =
            Partition_tree.rebuild_page ~index:dmsg.dt_index ~lm:dmsg.dt_lm ~data:dmsg.dt_page
          in
          charge t (Costs.digest_us t.costs (String.length dmsg.dt_page));
          if dmsg.dt_lm = exp_lm && String.equal page.Partition_tree.digest exp_digest then begin
            Hashtbl.replace tx.tx_pages dmsg.dt_index page;
            Hashtbl.remove tx.tx_pending (tx.tx_page_level, dmsg.dt_index);
            t.counters.bytes_fetched <- t.counters.bytes_fetched + String.length dmsg.dt_page;
            check_transfer_done t
          end)

(* ------------------------------------------------------------------ *)
(* Status and retransmission (Section 5.2)                              *)
(* ------------------------------------------------------------------ *)

let send_status t =
  (* a saturated single-threaded replica gets to its periodic work late;
     skip the beat instead of accumulating unbounded CPU debt *)
  let backlogged =
    Network.backlog t.d.net ~id:t.id > 8
    || Int64.compare (Network.busy_until t.d.net ~id:t.id)
         (Int64.add (now t) (Engine.of_us_float t.d.cfg.Config.status_interval_us))
       > 0
  in
  if backlogged then ()
  else if t.active && t.wrong_mac then
    (* mac_storm: understate our protocol state — claim an empty window
       and nothing executed — so every peer re-sends its whole window to
       us at each status beat (the amplification the per-peer
       retransmission budget bounds) *)
    broadcast t
      (Status_active
         {
           sa_replica = t.id;
           sa_view = t.view;
           sa_h = Log.low_mark t.log;
           sa_last_exec = Log.low_mark t.log;
           sa_prepared = [];
           sa_committed = [];
         })
  else if t.active then begin
    (* sa_prepared: prepared but not committed; sa_committed: committed *)
    let prepared = ref [] and committed = ref [] in
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
           sa_last_exec = t.last_exec;
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
    let stable = Checkpoint_store.stable_seq t.ckpts in
    if s.sa_h < stable then begin
      match Checkpoint_store.stable_tree t.ckpts with
      | Some tree ->
          send_retx t ~dst:r
            (Checkpoint
               {
                 ck_seq = stable;
                 ck_digest = Partition_tree.root_digest tree;
                 ck_replica = t.id;
               })
      | None -> ()
    end
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
      handle_view_change t
        {
          vc_view = s.sp_view;
          vc_h = s.sp_h;
          vc_cset = [];
          vc_pset = [];
          vc_qset = [];
          vc_replica = r;
        }
        ~verified:false
    end
  end

(* ------------------------------------------------------------------ *)
(* Proactive recovery (Chapter 4)                                       *)
(* ------------------------------------------------------------------ *)

(* Periodic key refresh (Section 4.3.1): replace the keys other replicas
   use to send to us. Client-shared keys are refreshed by clients; they are
   only discarded on recovery, when the attacker may know them. *)
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
  if drop_clients then begin
    (* re-key every client we have served: each gets a fresh key to reach
       us, in a signed point-to-point new-key message *)
    let clients =
      Hashtbl.fold (fun c _ acc -> if c >= t.d.cfg.Config.n then c :: acc else acc) t.last_reply []
      |> List.sort_uniq compare
    in
    List.iter
      (fun client ->
        t.coproc_counter <- Int64.add t.coproc_counter 1L;
        let key = Bft_crypto.Keychain.fresh_in_key t.d.keychain t.rng ~peer:client in
        let body =
          New_key { nk_replica = t.id; nk_keys = [ (client, key) ]; nk_counter = t.coproc_counter }
        in
        if not t.muted then begin
          let enc = Message.no_cache () in
          let auth = sign_digest t (Wire.cached_digest enc body) in
          let env = { sender = t.id; body; auth; enc } in
          Network.send t.d.net ~src:t.id ~dst:client ~size:(Wire.envelope_size env) env
        end)
      clients
  end

let handle_new_key t (nk : new_key) =
  if nk.nk_replica <> t.id then begin
    match List.assoc_opt t.id nk.nk_keys with
    | Some key -> ignore (Bft_crypto.Keychain.install_out_key t.d.keychain ~peer:nk.nk_replica key)
    | None -> ()
  end

let handle_query_stable t (q : query_stable) =
  if q.qs_replica <> t.id then begin
    let prepared_max = ref 0 in
    Log.iter_window t.log (fun e ->
        if Log.prepared t.log ~view:t.view ~seq:e.Log.seq then
          prepared_max := max !prepared_max e.Log.seq);
    send_to t ~dst:q.qs_replica
      (Reply_stable
         {
           rs_checkpoint = Checkpoint_store.stable_seq t.ckpts;
           rs_prepared = max !prepared_max t.committed_upto;
           rs_replica = t.id;
           rs_nonce = q.qs_nonce;
         })
  end

(* Estimation (Section 4.3.2): find c_M such that 2f other replicas report
   c <= c_M and f other replicas report p >= c_M; H_M = L + c_M. *)
let try_finish_estimation t =
  match t.recovering with
  | Some rc when rc.rc_phase = `Estimating ->
      let entries = Hashtbl.fold (fun r cp acc -> (r, cp) :: acc) rc.rc_est [] in
      let candidates = List.map (fun (_, (c, _)) -> c) entries |> List.sort_uniq compare in
      let viable c_m =
        let others = List.filter (fun (r, _) -> r <> t.id) entries in
        List.length (List.filter (fun (_, (c, _)) -> c <= c_m) others) >= 2 * t.d.cfg.Config.f
        && List.length (List.filter (fun (_, (_, p)) -> p >= c_m) others) >= t.d.cfg.Config.f
      in
      (match List.rev (List.filter viable candidates) with
      | c_m :: _ ->
          let hm = c_m + t.d.cfg.Config.log_size in
          rc.rc_est_hm <- hm;
          t.hm_bound <- hm;
          Checkpoint_store.drop_above t.ckpts hm;
          rc.rc_phase <- `Waiting_recovery_reply;
          if Obs.enabled t.obs then
            Obs.recovery_phase t.obs ~now:(now t) "recovery-request";
          (* recovery request through the normal protocol, signed by the
             co-processor *)
          t.coproc_counter <- Int64.add t.coproc_counter 1L;
          let req =
            Message.request
              ~op:("\x00RECOVERY:" ^ Int64.to_string t.coproc_counter)
              ~timestamp:t.coproc_counter ~client:t.id ~read_only:false ~replier:t.id
          in
          let token = Auth_sig (Bft_crypto.Signature.sign t.d.signer (Wire.request_digest req)) in
          charge t t.costs.Costs.sig_gen_us;
          ignore (Request_store.store_request t.rq req token true);
          rc.rc_request <- Some req;
          if not t.muted then begin
            let env = Message.envelope ~sender:t.id ~auth:token (Request req) in
            Network.multicast t.d.net ~src:t.id ~dsts:(replica_ids t)
              ~size:(Wire.envelope_size env) env
          end
      | [] -> ())
  | _ -> ()

(* Recovery pacing: retransmit the current phase's message until it gets a
   response (the paper's replica "keeps retransmitting the query message",
   Section 4.3.2). *)
let rec recovery_tick t =
  match t.recovering with
  | None -> ()
  | Some rc ->
      (match rc.rc_phase with
      | `Estimating -> broadcast t (Query_stable { qs_replica = t.id; qs_nonce = rc.rc_nonce })
      | `Waiting_recovery_reply -> (
          match rc.rc_request with
          | Some req -> (
              match Request_store.find t.rq (Wire.request_digest req) with
              | Some sr when not t.muted ->
                  let env = Message.envelope ~sender:t.id ~auth:sr.sr_token (Request req) in
                  Network.multicast t.d.net ~src:t.id ~dsts:(replica_ids t)
                    ~size:(Wire.envelope_size env) env
              | _ -> ())
          | None -> ())
      | `Fetching -> recovery_step t);
      ignore
        (Engine.schedule t.engine
           ~label:(Engine.Id ("rec", t.id))
           ~delay:(Engine.of_us_float 50_000.0) (fun () ->
             recovery_tick t))

let handle_reply_stable t (r : reply_stable) =
  match t.recovering with
  | Some rc when rc.rc_phase = `Estimating && Int64.equal r.rs_nonce rc.rc_nonce ->
      let c, p =
        match Hashtbl.find_opt rc.rc_est r.rs_replica with
        | Some (c0, p0) -> (min c0 r.rs_checkpoint, max p0 r.rs_prepared)
        | None -> (r.rs_checkpoint, r.rs_prepared)
      in
      Hashtbl.replace rc.rc_est r.rs_replica (c, p);
      try_finish_estimation t
  | _ -> ()

(* After the recovery request commits, other replicas' replies tell us the
   sequence number it executed at; recovery point H_R follows. *)
let handle_recovery_reply t (rp : reply) =
  match t.recovering with
  | Some rc when rc.rc_phase = `Waiting_recovery_reply -> (
      match rp.rp_result with
      | Full s -> (
          match int_of_string_opt s with
          | Some seq ->
              Hashtbl.replace rc.rc_replies rp.rp_replica seq;
              if Hashtbl.length rc.rc_replies >= quorum t then begin
                let seqs = Hashtbl.fold (fun _ s acc -> s :: acc) rc.rc_replies [] in
                let l_r = List.fold_left max 0 seqs in
                let k = t.d.cfg.Config.checkpoint_interval in
                let h_r =
                  max rc.rc_est_hm (((l_r + k - 1) / k * k) + t.d.cfg.Config.log_size)
                in
                rc.rc_recovery_point <- h_r;
                rc.rc_phase <- `Fetching;
                t.hm_bound <- h_r;
                if Obs.enabled t.obs then
                  Obs.recovery_phase t.obs ~now:(now t) "fetching";
                recovery_step t
              end
          | None -> ())
      | Result_digest _ -> ())
  | _ -> ()

let begin_recovery t =
  if t.recovering = None then begin
    L.info (fun m -> m "replica %d: proactive recovery begins" t.id);
    if Obs.enabled t.obs then Obs.recovery_phase t.obs ~now:(now t) "estimating";
    (* a recovering primary abdicates first (Section 4.3.2) *)
    if is_primary t && t.active then broadcast t (View_change
      { vc_view = t.view + 1; vc_h = Checkpoint_store.stable_seq t.ckpts;
        vc_cset = []; vc_pset = []; vc_qset = []; vc_replica = t.id });
    (* reboot: rebuild the partition tree from saved (possibly corrupt)
       state so corruption is detectable *)
    send_new_key ~drop_clients:true t;
    let nonce = Bft_util.Rng.int64 t.rng in
    t.recovering <-
      Some
        {
          rc_phase = `Estimating;
          rc_request = None;
          rc_nonce = nonce;
          rc_est = Hashtbl.create 8;
          rc_est_hm = max_int;
          rc_recovery_point = max_int;
          rc_replies = Hashtbl.create 8;
        };
    broadcast t (Query_stable { qs_replica = t.id; qs_nonce = nonce });
    ignore
      (Engine.schedule t.engine
         ~label:(Engine.Id ("rec", t.id))
         ~delay:(Engine.of_us_float 50_000.0) (fun () ->
           recovery_tick t))
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
  charge t (Costs.digest_us t.costs size);
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
        if (not t.muted) && retx_allow t f.fr_replica then begin
          let env = Message.envelope ~sender:t.id ~auth:sr.sr_token (Request sr.sr_req) in
          Network.send t.d.net ~src:t.id ~dst:f.fr_replica ~size:(Wire.envelope_size env) env
        end
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
  | Reply rp -> if verified && rp.rp_client = t.id then handle_recovery_reply t rp
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

let create ?(obs = Obs.null) d ~id ~on_execute =
  let engine = Network.engine d.net in
  let t =
    {
      d;
      id;
      obs;
      engine;
      costs = Network.costs d.net;
      rng = Bft_util.Rng.split d.rng;
      arena = Bft_net.Wire_arena.create ~size:1024 ();
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
      ckpts = Checkpoint_store.create d.cfg ~page_size:d.page_size ~branching:d.branching;
      rq = Request_store.create ();
      batch_target = 1;
      last_reply = Hashtbl.create 16;
      reply_clients = [];
      paged_sync = None;
      pending_ckpt_announce = [];
      active = true;
      vc = View_change_store.create ();
      vc_timer = None;
      vc_timeout_us = d.cfg.Config.vc_timeout_us;
      retx = Hashtbl.create 8;
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
  in
  Network.add_node d.net ~id ~handler:(fun env -> handle t env);
  (* checkpoint 0: the genesis state, considered stable by construction *)
  ignore (take_checkpoint t 0);
  t

(* The periodic timers are never cancelled, so their handles are not kept. *)
let rec schedule_status t =
  ignore
    (Engine.schedule t.engine
       ~label:(Engine.Id ("status", t.id))
       ~delay:(Engine.of_us_float t.d.cfg.Config.status_interval_us)
       (fun () ->
         send_status t;
         schedule_status t))

let rec schedule_watchdog t delay_us =
  ignore
    (Engine.schedule t.engine
       ~label:(Engine.Id ("wd", t.id))
       ~delay:(Engine.of_us_float delay_us) (fun () ->
         begin_recovery t;
         schedule_watchdog t t.d.cfg.Config.watchdog_period_us))

let rec schedule_key_refresh t =
  ignore
    (Engine.schedule t.engine
       ~label:(Engine.Id ("key", t.id))
       ~delay:(Engine.of_us_float t.d.cfg.Config.key_refresh_us)
       (fun () ->
         send_new_key t;
         schedule_key_refresh t))

let start t =
  schedule_status t;
  if t.d.cfg.Config.recovery then begin
    (* stagger watchdogs so at most f replicas recover at once (4.3.3) *)
    let offset =
      t.d.cfg.Config.watchdog_period_us
      *. (float_of_int (t.id + 1) /. float_of_int t.d.cfg.Config.n)
    in
    schedule_watchdog t (t.d.cfg.Config.watchdog_period_us +. offset);
    schedule_key_refresh t
  end

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
  let tree =
    Partition_tree.build ~seq:stable ~page_size:t.d.page_size ~branching:t.d.branching s'
  in
  Checkpoint_store.install t.ckpts tree;
  (* the installed tree no longer matches the service's dirty accounting *)
  t.paged_sync <- None

let force_recovery t = begin_recovery t

let crash_reboot t =
  (* lose volatile state; keep identity and keys; rejoin via state transfer *)
  Log.clear_entries t.log;
  Request_store.crash_reset t.rq;
  t.batch_target <- 1;
  View_change_store.crash_reset t.vc;
  Hashtbl.reset t.retx;
  t.perf_ewma_us <- 0.0;
  t.perf_samples <- 0;
  t.perf_baseline_us <- 0.0;
  t.perf_fired_view <- -1;
  t.perf_view_start <- now t;
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
       id; view; seqno; last_exec; committed_upto; log; ckpts; rq; batch_target; paged_sync;
       pending_ckpt_announce; active; vc; vc_timer; vc_timeout_us; retx; perf_samples;
       perf_fired_view; transfer; recovering; hm_bound; coproc_counter; byzantine; muted;
       wrong_mac; null_fill_until;
       d = _ (* configuration and handles; the service enters through the snapshot *);
       obs = _ (* tracing sink, inert *);
       engine = _ (* the clock; Explore digests the pending events' labels *);
       costs = _ (* constant cost model *);
       rng = _
       (* drawn only by state transfer, key refresh and recovery, which the
          digest sees through tx_replier, coproc_counter and rc_nonce *);
       counters = _ (* statistics the protocol never reads *);
       arena = _ (* encode scratch buffer *);
       last_reply = _ (* in the snapshot's reply cache *);
       reply_clients = _ (* the reply cache's key order *);
       perf_ewma_us = _ (* a latency: clock-derived *);
       perf_baseline_us = _ (* a latency: clock-derived *);
       perf_view_start = _ (* a time *);
       on_execute = _ (* the harness's tap; Explore digests what it recorded *);
     } as t) =
  let b = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let hexd = Bft_util.Hex.encode in
  add "r%d v=%d act=%b seqno=%d le=%d cu=%d lw=%d byz=%b muted=%b wmac=%b fill=%d hmb=%d vct=%h vcarm=%b bt=%d ctr=%Ld|"
    id view active seqno last_exec committed_upto (Log.low_mark log)
    byzantine muted wrong_mac null_fill_until
    (if hm_bound = max_int then -1 else hm_bound)
    vc_timeout_us
    (match vc_timer with Some h -> Engine.is_pending h | None -> false)
    batch_target coproc_counter;
  (* message log, ascending sequence *)
  Log.iter_window log (fun e ->
      add "L%d pv=%d self=%b ex=%b tent=%b d=%s(" e.Log.seq e.Log.pp_view
        e.Log.self_preprepared e.Log.executed e.Log.exec_tentative
        (match e.Log.pp_digest with Some d -> hexd d | None -> "-");
      Array.iteri
        (fun k vote ->
          match vote with Some (v, d) -> add "p%d:%d:%s;" k v (hexd d) | None -> ())
        e.Log.prepares;
      Array.iteri
        (fun k vote ->
          match vote with Some (v, d) -> add "c%d:%d:%s;" k v (hexd d) | None -> ())
        e.Log.commits;
      add ")");
  add "|ck:";
  List.iter (fun (s, d) -> add "%d:%s;" s (hexd d)) (Checkpoint_store.held ckpts);
  add "stable=%d votes:" (Checkpoint_store.stable_seq ckpts);
  List.iter
    (fun (seq, vs) ->
      add "%d(" seq;
      List.iter (fun (r, d) -> add "%d:%s;" r (hexd d)) vs;
      add ")")
    (Checkpoint_store.votes_canonical ckpts);
  Request_store.digest rq b;
  add "|ckann:";
  List.iter (fun s -> add "%d;" s) pending_ckpt_announce;
  add "|psync=%s" (match paged_sync with Some s -> string_of_int s | None -> "-");
  View_change_store.digest vc b;
  (* retransmission budgets, without their clock-derived window starts *)
  add "|retx:";
  List.iter
    (fun (peer, { rx_tokens; rx_window_start = _; rx_backoff; rx_exhausted }) ->
      add "%d:%d:%h:%b;" peer rx_tokens rx_backoff rx_exhausted)
    (List.sort
       (fun (a, _) (b, _) -> Int.compare a b)
       (Hashtbl.fold (fun p st acc -> (p, st) :: acc) retx []));
  add "|perf=%d:%d" perf_samples perf_fired_view;
  (* state transfer / recovery, coarse but canonical *)
  (match transfer with
  | None -> add "|tx=-"
  | Some
      {
        tx_target;
        tx_root_digest;
        tx_expected;
        tx_pending;
        tx_pages;
        tx_page_level;
        tx_num_pages;
        tx_ok_pages;
        tx_replier;
        tx_timer = _ (* its label is among the pending events *);
      } ->
      add "|tx=%d:%s:%d:%d:%d:pend%d:pages%d:ok%d(" tx_target (hexd tx_root_digest) tx_replier
        tx_page_level tx_num_pages (Hashtbl.length tx_pending) (Hashtbl.length tx_pages)
        (Hashtbl.length tx_ok_pages);
      List.iter
        (fun ((l, i), (lm, d)) -> add "%d:%d:%d:%s;" l i lm (hexd d))
        (List.sort
           (fun (a, _) (b, _) -> compare a b)
           (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tx_expected []));
      add ")");
  (match recovering with
  | None -> add "|rec=-"
  | Some { rc_phase; rc_request; rc_nonce; rc_est; rc_est_hm; rc_recovery_point; rc_replies } ->
      add "|rec=%s:%Ld:%s:%d:%d:est%d:rep%d"
        (match rc_phase with
        | `Estimating -> "est"
        | `Waiting_recovery_reply -> "wait"
        | `Fetching -> "fetch")
        rc_nonce
        (match rc_request with Some r -> hexd (Wire.request_digest r) | None -> "-")
        rc_est_hm rc_recovery_point (Hashtbl.length rc_est) (Hashtbl.length rc_replies));
  (* service state + reply cache *)
  add "|snap:%s" (Bft_crypto.Sha256.hexdigest (full_snapshot t));
  Bft_crypto.Sha256.hexdigest (Buffer.contents b)
