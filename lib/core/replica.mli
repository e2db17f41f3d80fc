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

    The replica's state lives with the modules that own it: {!Log} (the
    message log), {!Checkpoint_store} (checkpoints and their proofs),
    {!Request_store} (the request pipeline) and {!View_change_store} (the
    view-change evidence); each contributes its slice of
    {!state_digest}. *)

type t

type deps = {
  cfg : Config.t;
  net : Message.envelope Bft_net.Network.t;
  registry : Bft_crypto.Signature.registry;
  keychain : Bft_crypto.Keychain.t;
  signer : Bft_crypto.Signature.signer;
  service : Bft_sm.Service.t;
  rng : Bft_util.Rng.t;
  page_size : int;
  branching : int;
}

val create :
  ?obs:Bft_obs.Obs.t ->
  deps ->
  id:int ->
  on_execute:(int -> (int * string * string) list -> unit) ->
  t
(** Create the replica and register its handler with the network. Timers
    (status, key refresh, watchdog) start on {!start}. [obs] defaults to
    the disabled sink (zero-cost tracing). [on_execute seq wave] is called
    once per batch execution with the batch's [(client, op, result)]
    records in order, an empty list for a null batch or one whose
    requests were all duplicates. A view-change rollback re-executes from
    the restored checkpoint, so a sequence number can be reported more
    than once; the last report is the content that stands. *)

val start : t -> unit

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

val full_snapshot : t -> string
(** The flat checkpoint image: service snapshot plus reply cache
    (Section 2.4.4). Paged checkpoints use a page-aligned layout of the
    same content; {!restore_snapshot} accepts both. *)

val restore_snapshot : t -> string -> (unit, string) result
(** Install a checkpoint image (service state + reply cache). All header
    and reply-cache records are validated before anything is mutated: a
    malformed snapshot returns [Error reason], counts as a rejected
    snapshot in the metrics, and leaves the replica state untouched. *)

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

val verify_envelope : t -> Message.envelope -> bool
(** The authentication verdict the replica's message handler acts on: the
    envelope's token checked against its 32-byte digest
    ([Wire.envelope_digest]) under the claimed sender's key (the client
    for a request, the named replica's signature for a new-key). [Data]
    carries no token and is checked against state digests instead, so it
    passes here. Charges the replica's virtual CPU for the check. *)

val state_digest : t -> string
(** Canonical, time-abstract fingerprint of the replica's protocol state
    (log, certificates, view-change state, queues, service snapshot,
    reply cache) for the exhaustive explorer. What the replica has
    executed is reported through [on_execute], so the explorer digests
    it from the caller's record. Every unordered
    container is serialized in sorted order, so two logically identical
    states reached through different message interleavings hash equal; no
    clock- or deadline-derived value is included. *)
