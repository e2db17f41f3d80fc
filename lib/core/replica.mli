(** The BFT replica automaton.

    Implements the three algorithms of the paper over the simulated
    network:
    - normal-case three-phase atomic multicast (pre-prepare / prepare /
      commit) with request batching, tentative execution, read-only
      handling, digest replies and separate request transmission
      (Sections 2.3.3, 3.2.2, 5.1);
    - garbage collection through checkpoint certificates (2.3.4 / 3.2.3)
      with hierarchical partition-tree state digests (5.3);
    - the MAC-based view-change protocol with PSet/QSet reconstruction and
      view-change-acks (3.2.4), also used in signature mode where it is
      strictly stronger than the Chapter-2 protocol;
    - status-message retransmission (5.2);
    - hierarchical state transfer (5.3.2);
    - proactive recovery: watchdog reboots, key refresh, the estimation
      protocol, recovery requests and state checking (Chapter 4).

    All messages are authenticated per [cfg.auth_mode]; crypto and
    execution costs are charged to the replica's virtual CPU.

    The replica's state lives with the modules that own it: {!Log},
    {!Checkpoint_store}, {!Checkpoint_image} (the service state and reply
    cache), {!Request_store}, {!Retransmit_budget} and {!Perf_watchdog}.
    {!Retransmission} answers status messages as data, and three
    sub-protocols own their records and decisions: {!View_change} (the
    view-change evidence and the new-view decision), {!State_transfer}
    (the fetch walk and the replier's answers) and {!Recovery} (the H_M
    estimate, the recovery request and the recovery point); the replica
    sends what they decide, arms their timers, signs, and installs the new
    view or the fetched tree. Each contributes its slice of
    {!state_digest}.

    The replica never touches the simulator itself: it reaches the
    network, its CPU and its timers only through the {!port} it is
    created with, and is driven by {!handle} and {!on_timer}. *)

type t

(** The replica's timers. The shell schedules each under an engine label
    ([Cluster] uses ["vc"], ["tx"], ["rec"], ["status"], ["wd"], ["key"]
    and ["perfvc"]) and fires it back through {!on_timer}. *)
type timer =
  | Vc_active  (** no waiting request executed in time: start a view change *)
  | Vc_pending  (** the new view did not activate in time: move to the next *)
  | Transfer_retry  (** re-send a state transfer's unanswered fetches *)
  | Recovery_tick  (** re-send the current recovery phase's message *)
  | Status  (** the periodic status message (Section 5.2) *)
  | Watchdog  (** the proactive-recovery watchdog (Section 4.3) *)
  | Key_refresh  (** the periodic key refresh (Section 4.3.1) *)
  | Perf_vc of int  (** the performance watchdog fired in this view *)

(** The replica's one way to the simulator, bound to its node. Every
    effect is performed at the call, in the order the replica makes them,
    so there is nothing to drain. *)
type port = {
  send : dst:int -> size:int -> Message.envelope -> unit;
  multicast : dsts:int list -> size:int -> Message.envelope -> unit;
  charge : float -> unit;  (** microseconds of the node's virtual CPU *)
  arm : t -> timer -> delay_us:float -> unit;
      (** [arm r timer ~delay_us]: call [on_timer r timer] after
          [delay_us]; for a cancellable timer this replaces the one
          pending in its slot *)
  cancel : timer -> unit;
      (** cancel the last [Vc_active]/[Vc_pending] (one shared slot) or
          [Transfer_retry] armed; a no-op once it fired, and for the
          other timers *)
  now : unit -> int64;  (** virtual nanoseconds *)
  backlog : unit -> int;  (** messages waiting for the node's CPU *)
  busy_until : unit -> int64;  (** when the node's CPU frees up *)
}

type deps = {
  cfg : Config.t;
  costs : Bft_net.Costs.t;
  registry : Bft_crypto.Signature.registry;
  keychain : Bft_crypto.Keychain.t;
  signer : Bft_crypto.Signature.signer;
  service : Bft_sm.Service.t;
  rng : Bft_util.Rng.t;
}

val create :
  ?obs:Bft_obs.Obs.t ->
  deps ->
  port:port ->
  id:int ->
  on_execute:(int -> (int * string * string) list -> unit) ->
  t
(** Create the replica; it performs no effect until {!start}. Checkpoints
    are cut into the paged service's own pages, or into 4096-byte pages
    for a flat service, under a partition tree of fan-out 16. Raises
    [Invalid_argument] when the service's page cannot hold the paged
    checkpoint header (see {!Checkpoint_image}). [obs] defaults to
    the disabled sink (zero-cost tracing). [on_execute seq wave] is called
    once per batch execution with the batch's [(client, op, result)]
    records in order, an empty list for a null batch or one whose
    requests were all duplicates. A view-change rollback re-executes from
    the restored checkpoint, so a sequence number can be reported more
    than once; the last report is the content that stands. *)

val start : t -> unit
(** Take the genesis checkpoint (charged to the node's CPU) and arm the
    periodic timers: status, and with [cfg.recovery] the watchdog and key
    refresh. *)

val handle : t -> Message.envelope -> unit
(** Deliver one envelope: verify it, then run its handler. *)

val on_timer : t -> timer -> unit
(** Fire a timer armed through the port. The periodic ones re-arm. *)

val id : t -> int
val view : t -> int

val keychain : t -> Bft_crypto.Keychain.t
(** The replica's session-key chain — the workload harness installs a
    {!Bft_crypto.Keychain.group} on it to stand in for the pairwise keys
    of cohort-simulated clients. *)

val last_executed : t -> int
val committed_upto : t -> int
val stable_checkpoint : t -> int

val low_water_mark : t -> int
(** The log's low water mark h (Section 2.3.4). Monotonically
    non-decreasing at a correct replica — a fuzzer safety invariant. *)

val checkpoints_held : t -> (int * string) list
(** [(seq, digest)] of every retained checkpoint, ascending. Correct
    replicas must agree on the digest of any checkpoint sequence number
    they have both stabilized — the checkpoint-agreement oracle. *)

val is_recovering : t -> bool

val service_state : t -> string
(** Current service snapshot (test observation helper). *)

val image : t -> string
(** The checkpoint image: service snapshot plus reply cache (Section
    2.4.4), in the one layout {!Checkpoint_image} picks from the service
    kind. *)

val restore_snapshot : t -> string -> (unit, string) result
(** Install a checkpoint image in this replica's layout. The framing,
    the reply-cache records and the service's own [restore] all check it
    before anything changes: a malformed image returns [Error reason],
    counts as a rejected snapshot in the metrics, and leaves the replica
    state untouched. *)

(** {2 Fault injection (testing / benchmarks)} *)

val byzantine_equivocate : t -> bool -> unit
(** When enabled and this replica is primary, it assigns the same sequence
    number to different batches for different backups (the classic unsafe
    primary), and stops processing backup messages for ordering progress.
    Correct replicas must view-change it away without committing
    conflicting requests. *)

val mute : t -> bool -> unit
(** Stop sending any message (fail-silent primary / backup). *)

val byzantine_wrong_mac : t -> bool -> unit
(** Keep participating in the protocol, but corrupt the MACs and
    authenticator entries sent to odd-id peers and understate protocol
    state in status messages, so correct replicas keep retransmitting
    their window (the mac_storm attack; bounded by
    [Config.retransmit_budget]). *)

val corrupt_state : t -> unit
(** Overwrite part of the service state, simulating the attacker of
    Section 4.1; proactive recovery must detect and repair it. *)

val force_recovery : t -> unit
(** Trigger the watchdog immediately. *)

val crash_reboot : t -> unit
(** Lose all volatile state and rejoin via state transfer. *)

(** {2 Introspection counters} *)

type counters = {
  mutable n_executed : int;
  mutable n_batches : int;
  mutable n_view_changes : int;
  mutable n_checkpoints : int;
  mutable n_state_transfers : int;
  mutable n_recoveries : int;
  mutable bytes_fetched : int;
  mutable n_admission_dropped : int;
      (** requests dropped by per-client admission control *)
  mutable n_retransmit_suppressed : int;
      (** retransmissions withheld by the per-peer budget *)
  mutable n_slowness_vc : int;
      (** view changes demanded by the primary performance watchdog *)
}

val counters : t -> counters

val state_digest : t -> string
(** Canonical, time-abstract fingerprint of the replica's protocol state
    (log, certificates, view-change state, queues, service snapshot,
    reply cache) for the exhaustive explorer. What the replica has
    executed is reported through [on_execute], so the explorer digests
    it from the caller's record. Every unordered
    container is serialized in sorted order, so two logically identical
    states reached through different message interleavings hash equal; no
    clock- or deadline-derived value is included. *)
