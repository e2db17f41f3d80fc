[@@@lint.protocol_core]
module Costs = Bft_net.Costs
module Obs = Bft_obs.Obs
open Message

let src = Logs.Src.create "bft.replica" ~doc:"BFT replica"

module L = (val Logs.src_log src : Logs.LOG)

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
  seal : Seal.t; (* every token it makes and checks *)
  rng : Bft_util.Rng.t;
  counters : counters;
  (* protocol state *)
  mutable view : int;
  mutable seqno : int; (* last sequence number assigned (primary) *)
  mutable last_exec : int;
  mutable committed_upto : int;
  log : Log.t;
  ckpts : Checkpoint_store.t;
  image : Checkpoint_image.t; (* service state + reply cache *)
  rq : Request_store.t; (* requests, batches, queue, waiting set *)
  (* checkpoints whose CHECKPOINT message is deferred until commit *)
  mutable pending_ckpt_announce : int list;
  (* view change state *)
  mutable active : bool;
  vc : View_change.t; (* P/Q sets, view-changes, acks, new-views *)
  mutable vc_timer : timer option; (* the case armed in the "vc" slot *)
  mutable vc_timeout_us : float;
  retx : Retransmit_budget.t; (* per-peer retransmission budgets *)
  perf : Perf_watchdog.t;
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
let image t = Checkpoint_image.render t.image
let primary_of t v = Config.primary t.d.cfg ~view:v
let primary t = primary_of t t.view
let is_primary t = primary t = t.id
let weak t = Config.weak t.d.cfg
let replica_ids t = Config.replica_ids t.d.cfg
let charge t us = t.port.charge us
let now t = t.port.now ()

(* ------------------------------------------------------------------ *)
(* Sending                                                              *)
(* ------------------------------------------------------------------ *)

(* Multicast to all replicas, self included. A replica logs its own
   protocol messages as it sends them; the network loops its own copy back,
   and [handle] refuses that copy after one MAC check, since an
   authenticator holds no entry for its sender. The body is encoded once;
   the single precomputed [envelope_size] covers every destination. [enc]
   is a cache the caller already filled with the body's encoding. *)
let broadcast ?(enc = Message.no_cache ()) t body =
  if not t.muted then begin
    let dsts = replica_ids t in
    let env = Seal.seal t.seal ~corrupt:t.wrong_mac ~dsts enc body in
    t.port.multicast ~dsts ~size:(Wire.envelope_size env) env
  end

let send_to t ~dst body =
  if not t.muted then begin
    let env = Seal.seal t.seal ~corrupt:t.wrong_mac ~dsts:[ dst ] (Message.no_cache ()) body in
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

(* ------------------------------------------------------------------ *)
(* The checkpoint image: service state + reply cache (2.4.4)          *)
(* ------------------------------------------------------------------ *)

(* Timestamp of the client's last executed request, -1 before any. *)
let last_ts t client =
  match Checkpoint_image.reply t.image client with Some (ts, _, _) -> ts | None -> -1L

(* Re-send the client's cached reply, if any. *)
let resend_reply t client ~tentative =
  match Checkpoint_image.reply t.image client with
  | Some (ts, result, _) -> send_reply t ~client ~ts ~tentative (Full result)
  | None -> ()

let branching = 16

(* Install an image; the replica alone counts and logs a refusal, which
   leaves the service and the reply cache as they were. *)
let restore_snapshot t s =
  match Checkpoint_image.restore t.image s with
  | Ok () as ok -> ok
  | Error reason ->
      if Obs.enabled t.obs then Obs.snapshot_rejected t.obs ~now:(now t) ~reason;
      L.debug (fun m -> m "replica %d: snapshot rejected: %s" t.id reason);
      Error reason

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

(* A slow primary's view change starts from a zero-delay event, so it
   never reenters [execute_batch]. *)
let watch_latency t arrival =
  if
    Perf_watchdog.note t.perf ~now:(now t) ~arrival ~view:t.view ~primary:(is_primary t)
      ~active:t.active
  then begin
    let ewma_us = Perf_watchdog.ewma_us t.perf and baseline_us = Perf_watchdog.baseline_us t.perf in
    t.counters.n_slowness_vc <- t.counters.n_slowness_vc + 1;
    if Obs.enabled t.obs then
      Obs.slowness_view_change t.obs ~now:(now t) ~view:t.view ~ewma_us ~baseline_us;
    L.debug (fun m ->
        m "replica %d: slow primary of view %d (ewma %.1fus baseline %.1fus)" t.id t.view ewma_us
          baseline_us);
    t.port.arm t (Perf_vc t.view) ~delay_us:0.0
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
      watch_latency t arrival;
      restart_vc_timer t

(* A client's execution advancing to timestamp [ts] supersedes every
   waiting request it sent with an earlier timestamp: exactly-once
   execution (the [last_ts] guard in [execute_batch]) will never run them, so their
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

(* Digesting costs a fixed overhead plus the bytes actually re-hashed. *)
let take_checkpoint t seq =
  charge t (Costs.digest_us t.d.costs 0);
  let tree = Checkpoint_image.take t.image t.ckpts ~seq in
  charge t (Costs.digest_us t.d.costs (Partition_tree.digested_bytes tree));
  t.counters.n_checkpoints <- t.counters.n_checkpoints + 1;
  if Obs.enabled t.obs then begin
    let dirty = Partition_tree.pages_modified_at tree ~seq in
    Obs.checkpoint_taken t.obs ~now:(now t) ~seq
      ~bytes:(Partition_tree.digested_bytes tree)
      ~dirty ~clean:(Partition_tree.num_pages tree - dirty)
  end;
  tree

let announce_checkpoint t seq =
  Option.iter
    (fun tree ->
      let ck = Checkpoint_store.message tree ~replica:t.id in
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
    Log.mark_self_preprepared t.log seq;
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

(* Roll back tentative executions to the latest held checkpoint in
   [floor, committed_upto], or else to [floor] when it is held: they may be
   replaced by null requests in the new view (Section 5.1.2). A held
   checkpoint 0 is always at or below [committed_upto], so [~floor:0]
   never falls back. *)
let discard_tentative t ~floor =
  if t.last_exec > t.committed_upto then begin
    let s =
      List.fold_left
        (fun acc (s, _) -> if s >= floor && s <= t.committed_upto then s else acc)
        floor (Checkpoint_store.held t.ckpts)
    in
    rollback_to t s ~committed:s
  end

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
      (Checkpoint_image.clients t.image)

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
      View_change.prune_stable t.vc seq;
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
  match Log.entry t.log n with
  | Some { Log.pp = Some pp; pp_digest = Some d; _ } ->
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
                Checkpoint_image.set_reply t.image req.client (req.timestamp, result, t.view);
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
                  resend_reply t req.client ~tentative
              end)
        elems;
      t.on_execute n (List.rev !wave);
      t.counters.n_batches <- t.counters.n_batches + 1;
      (* executing a request proves the view is live: reset the view-change
         timeout to its initial value (liveness rule, Section 2.3.5) *)
      t.vc_timeout_us <- t.d.cfg.Config.vc_timeout_us;
      Log.mark_executed t.log n;
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
  Log.mark_self_preprepared t.log n;
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
    let vc = View_change.start t.vc t.d.cfg ~self:t.id ~view:new_view t.log t.ckpts in
    Log.clear_entries t.log;
    Request_store.clear_assigned t.rq;
    t.pending_ckpt_announce <- [];
    discard_tentative t ~floor:0;
    broadcast t (View_change vc);
    (* view-change retry timer: if the new view does not activate in time,
       move to the next one with a doubled timeout (liveness, 2.3.5) *)
    t.vc_timeout_us <- t.vc_timeout_us *. 2.0;
    arm_vc t Vc_pending;
    try_new_view t
  end

(* The new primary decides from S (Fig 3-3). *)
and try_new_view t =
  if (not t.active) && not t.muted then
    view_step t (View_change.decide t.vc t.d.cfg ~self:t.id ~view:t.view t.rq)

(* A deferred new-view, once its view-changes and batches are here. *)
and process_new_view t =
  view_step t (View_change.check t.vc t.d.cfg ~self:t.id ~view:t.view t.rq)

(* Carry out a view-change step: the sends here, the installing in
   [enter_new_view]. *)
and view_step t = function
  | View_change.Nothing -> ()
  | Fetch digests ->
      List.iter (fun d -> broadcast t (Fetch_batch { fb_digest = d; fb_replica = t.id })) digests
  | Announce nv ->
      broadcast t (New_view nv);
      enter_new_view t nv
  | Enter nv -> enter_new_view t nv
  | Next_view v -> start_view_change t v

and enter_new_view t (nv : new_view) =
  let v = nv.nv_view in
  L.debug (fun m -> m "replica %d: entering view %d (start=%d)" t.id v nv.nv_start);
  if Obs.enabled t.obs then Obs.new_view_entered t.obs ~now:(now t) ~view:v;
  t.view <- v;
  t.active <- true;
  Perf_watchdog.new_epoch t.perf ~now:(now t);
  stop_vc_timer t;
  (* align our state with the chosen start checkpoint *)
  let have_start = Option.is_some (Checkpoint_store.tree_at t.ckpts nv.nv_start) in
  discard_tentative t ~floor:nv.nv_start;
  if t.last_exec < nv.nv_start then begin
    if have_start then rollback_to t nv.nv_start ~committed:(max t.committed_upto nv.nv_start)
    else start_transfer t ~target:nv.nv_start ~root_digest:nv.nv_start_digest
  end;
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
        Log.mark_self_preprepared t.log n;
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

(* ------------------------------------------------------------------ *)
(* Normal case: requests and pre-prepares                             *)
(* ------------------------------------------------------------------ *)

let note_waiting t digest =
  if Request_store.note_waiting t.rq digest ~now:(now t) && t.active then start_vc_timer t

(* A batch element of the pre-prepare for [view] and [seq] is authentic if
   (3) we already verified the stored request body, (1) our MAC entry in
   the client's token verifies, or (2) f backups' prepares for the
   pre-prepare's view, sequence number and batch digest vouch for it.
   Elements are checked in order and the first failure stops the check,
   so nothing past it is charged. *)
let batch_authentic t ~view ~seq elems batch_digest =
  let vouched = lazy (Log.vouchers t.log ~view ~seq batch_digest >= t.d.cfg.Config.f) in
  List.for_all
    (function
      | By_digest d -> (
          match Request_store.find t.rq d with Some sr -> sr.sr_verified | None -> false)
      | Inline (r, tok) -> (
          match Request_store.find t.rq (Wire.request_digest r) with
          | Some sr when sr.sr_verified -> true
          | _ -> Seal.opens_request t.seal r tok || Lazy.force vouched))
    elems

(* [size] is the pre-prepare's wire size (its envelope's cached
   encoding), charged for digesting it. *)
let accept_pre_prepare t (pp : pre_prepare) ~size =
  let v = pp.pp_view and n = pp.pp_seq in
  if
    t.active && v = t.view
    && (not (is_primary t))
    && Log.in_window t.log n
    && View_change.has_new_view t.vc v
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
      let authentic = batch_authentic t ~view:v ~seq:n pp.pp_batch d in
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
    resend_reply t req.client ~tentative:false
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
  match View_change.receive t.vc t.d.cfg ~self:t.id ~view:t.view vc ~verified with
  | Refused -> ()
  | Stored { ack; join } ->
      (* acknowledge to the new primary (Section 3.2.4) *)
      Option.iter (fun a -> send_to t ~dst:(primary_of t a.va_view) (View_change_ack a)) ack;
      (* liveness rule: f+1 view-changes above our view *)
      Option.iter (start_view_change t) join;
      try_new_view t;
      process_new_view t

let handle_view_change_ack t (a : view_change_ack) =
  if a.va_view >= t.view && primary_of t a.va_view = t.id then begin
    View_change.add_ack t.vc a;
    try_new_view t
  end

let handle_new_view t (nv : new_view) =
  if nv.nv_view >= t.view && primary_of t nv.nv_view <> t.id && nv.nv_view > 0 then begin
    if nv.nv_view > t.view then start_view_change t nv.nv_view;
    View_change.offer_new_view t.vc nv;
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
    State_transfer.assemble tx ~local:(local_tree t)
      ~page_size:(Checkpoint_image.page_size t.image) ~branching
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
      (* quorum-certified bytes our own restore refuses leave the local
         state behind, but the installed tree is valid; recovery retries *)
      (match restore_snapshot t (Partition_tree.snapshot tree) with Ok () | Error _ -> ());
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

(* A saturated single-threaded replica gets to its periodic work late:
   skip the beat instead of accumulating unbounded CPU debt. *)
let send_status t =
  let backlogged =
    t.port.backlog () > 8
    || Int64.compare (t.port.busy_until ())
         (Int64.add (now t) (Int64.of_float (t.d.cfg.Config.status_interval_us *. 1_000.0)))
       > 0
  in
  if not backlogged then
    broadcast t
      (Retransmission.status ~self:t.id ~view:t.view ~active:t.active ~understate:t.wrong_mac
         ~last_exec:t.last_exec t.log t.vc)

let handle_status_active t (s : status_active) =
  if s.sa_replica <> t.id then
    List.iter (send_retx t ~dst:s.sa_replica)
      (Retransmission.answer_active t.d.cfg ~self:t.id ~view:t.view ~active:t.active t.log t.vc
         t.ckpts s)

let handle_status_pending t (s : status_pending) =
  let r = s.sp_replica in
  if r = t.id then ()
  else if s.sp_view <= t.view then
    List.iter (send_retx t ~dst:r) (Retransmission.answer_pending t.d.cfg ~self:t.id ~view:t.view t.vc s)
  else
    (* the peer is ahead: catch up by joining its view change *)
    handle_view_change t (bare_view_change ~view:s.sp_view ~h:s.sp_h r) ~verified:false

(* ------------------------------------------------------------------ *)
(* Proactive recovery (Chapter 4)                                       *)
(* ------------------------------------------------------------------ *)

(* The estimation's report: our stable checkpoint and the last sequence
   number prepared or committed. *)
let handle_query_stable t (q : query_stable) =
  if q.qs_replica <> t.id then
    send_to t ~dst:q.qs_replica
      (Reply_stable
         {
           rs_checkpoint = Checkpoint_store.stable_seq t.ckpts;
           rs_prepared = max t.committed_upto (Log.max_prepared t.log ~view:t.view);
           rs_replica = t.id;
           rs_nonce = q.qs_nonce;
         })

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
          let token = Seal.sign t.seal (Wire.request_digest req) in
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

(* The wire size a handler charges is the envelope's cached encoding
   length: the sender encoded the bytes once, and verification read them. *)
let handle t (env : envelope) =
  match Seal.opens t.seal env with
  | Misattributed -> ()
  | verdict -> (
      let verified = verdict = Seal.Authentic in
      let size = String.length (Wire.envelope_bytes env) in
      match env.body with
      | Request r ->
          let relayed = env.sender <> r.client in
          if verified || is_primary t then handle_request t r env.auth ~verified ~relayed ~size
      | View_change vc -> handle_view_change t vc ~verified
      | Data d -> handle_data t d
      | _ when not verified -> ()
      | Reply rp -> if rp.rp_client = t.id then handle_recovery_reply t rp
      | Pre_prepare pp -> accept_pre_prepare t pp ~size
      | Prepare p -> handle_prepare t p
      | Commit c -> handle_commit t c
      | Checkpoint c -> handle_checkpoint_msg t c
      | View_change_ack a -> handle_view_change_ack t a
      | New_view nv -> handle_new_view t nv
      | Fetch f -> handle_fetch t f
      | Meta_data m -> handle_meta_data t m ~size
      | Status_active s -> handle_status_active t s
      | Status_pending s -> handle_status_pending t s
      | New_key nk -> Seal.install_key t.seal nk
      | Query_stable q -> handle_query_stable t q
      | Reply_stable r -> handle_reply_stable t r
      | Fetch_batch f -> handle_fetch_batch t f
      | Batch_data bd -> handle_batch_data t bd ~size
      | Fetch_request f -> handle_fetch_request t f)

(* ------------------------------------------------------------------ *)
(* Construction                                                         *)
(* ------------------------------------------------------------------ *)

let create ?(obs = Obs.null) d ~port ~id ~on_execute =
  let image = Checkpoint_image.create d.service in
  {
    d;
    id;
    obs;
    port;
    seal =
      { Seal.id; n = d.cfg.Config.n; mode = d.cfg.Config.auth_mode; keys = Replica d.keychain;
        signing = Some (d.registry, d.signer); costs = d.costs; charge = port.charge };
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
    ckpts = Checkpoint_store.create d.cfg ~page_size:(Checkpoint_image.page_size image) ~branching;
    image;
    rq = Request_store.create ();
    pending_ckpt_announce = [];
    active = true;
    vc = View_change.create ();
    vc_timer = None;
    vc_timeout_us = d.cfg.Config.vc_timeout_us;
    retx = Retransmit_budget.create ();
    perf = Perf_watchdog.create d.cfg;
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
  (* trash the image behind the protocol's back; restoring it goes through
     the one restore path, so the refusal is counted and logged *)
  let s =
    String.mapi (fun i c -> if i mod 7 = 0 then '\xff' else c) (Checkpoint_image.render t.image)
  in
  (match restore_snapshot t s with Ok () | Error _ -> ());
  (* the attacker controls the whole node: the stable checkpoint becomes
     the tree of the trashed bytes, so its digest diverges even when the
     image was refused *)
  let stable = Checkpoint_store.stable_seq t.ckpts in
  Checkpoint_store.install t.ckpts
    (Partition_tree.build ~seq:stable ~page_size:(Checkpoint_image.page_size t.image) ~branching s)

let force_recovery t = begin_recovery t

let crash_reboot t =
  (* lose volatile state; keep identity and keys; rejoin via state transfer *)
  Log.clear_entries t.log;
  Request_store.crash_reset t.rq;
  View_change.crash_reset t.vc;
  Retransmit_budget.reset t.retx;
  Perf_watchdog.reset t.perf ~now:(now t);
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
       id; view; seqno; last_exec; committed_upto; log; ckpts; image; rq;
       pending_ckpt_announce; active; vc; vc_timer; vc_timeout_us; retx; perf; transfer;
       recovering; hm_bound; coproc_counter; byzantine; muted; wrong_mac; null_fill_until;
       d = _ (* configuration and cost model; the service enters through the snapshot *);
       obs = _ (* tracing sink, inert *);
       port = _ (* the shell; Explore digests the pending timers' labels *);
       seal = _ (* the keys in [d] and the port's charge *);
       rng = _
       (* drawn only by state transfer, key refresh and recovery, which the
          digest sees through the replier, coproc_counter and the nonce *);
       counters = _ (* statistics the protocol never reads *);
       on_execute = _ (* the harness's tap; Explore digests what it recorded *);
     }) =
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
  View_change.digest vc b;
  Retransmit_budget.digest retx b;
  Perf_watchdog.digest perf b;
  (* state transfer / recovery, coarse but canonical *)
  (match transfer with None -> add "|tx=-" | Some tx -> State_transfer.digest tx b);
  (match recovering with None -> add "|rec=-" | Some rc -> Recovery.digest rc b);
  add "|snap:%s" (Bft_crypto.Sha256.hexdigest (Checkpoint_image.render image));
  Bft_crypto.Sha256.hexdigest (Buffer.contents b)
