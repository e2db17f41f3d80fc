(** Test/benchmark harness: builds a complete replicated system — engine,
    network, n replicas, clients — with all pairwise session keys
    established, and provides run helpers and whole-system checks. *)

type t

val create :
  ?seed:int64 ->
  ?costs:Bft_net.Costs.t ->
  ?service:(unit -> Bft_sm.Service.t) ->
  ?num_clients:int ->
  ?obs:Bft_obs.Obs.registry ->
  Config.t ->
  t
(** Service factory defaults to {!Bft_sm.Null_service.create}; each replica
    gets its own instance. Client ids are [n, n+1, ...]. When [obs] is
    given, every replica and client records traces and metrics into its
    per-node sink; without it, tracing is fully disabled. *)

val engine : t -> Bft_sim.Engine.t
val network : t -> Message.envelope Bft_net.Network.t
val config : t -> Config.t
val replica : t -> int -> Replica.t
val replicas : t -> Replica.t array
val client : t -> int -> Client.t
(** [client t k] is the k-th client (0-based). *)

val num_clients : t -> int

val observations : t -> Bft_obs.Obs.registry option
(** The registry passed at creation, if any. *)

val run : ?timeout_us:float -> t -> unit
(** Drain events up to the (virtual-time) deadline; default 10 seconds. *)

val run_until : ?timeout_us:float -> t -> (unit -> bool) -> bool
(** Returns [true] when the condition was reached before the deadline. *)

val try_invoke_sync :
  ?timeout_us:float ->
  t ->
  client:int ->
  ?read_only:bool ->
  string ->
  (string * float, string) result
(** Issue one operation from the given client and run the simulation until
    it completes; returns the result and client-observed latency (us of
    virtual time), or [Error] describing the timeout. Timeouts are counted
    in the client's metrics when an observation registry is attached. *)

val invoke_sync : ?timeout_us:float -> t -> client:int -> ?read_only:bool -> string -> string
(** Issue one operation from the given client and run the simulation until
    it completes; returns the result. Raises [Failure] on timeout
    (thin wrapper over {!try_invoke_sync}). *)

val invoke_sync_latency :
  ?timeout_us:float -> t -> client:int -> ?read_only:bool -> string -> string * float
(** Like {!invoke_sync} but also returns the client-observed latency in
    microseconds of virtual time. *)

(** {2 Whole-system checks (for tests)} *)

(** Every replica reports each batch it executes to the cluster's
    execution tap ([Replica.create]'s [on_execute]). The tap keeps, per
    replica and sequence number, only the last wave reported: a
    view-change rollback re-executes from the restored checkpoint, so the
    last wave is the content that stands. The checks below read the tap
    up to each replica's [committed_upto]. *)

val committed_records : t -> int -> (int * int * string * string) list
(** [committed_records t i]: replica [i]'s committed prefix as
    [(seq, client, op, result)] in sequence order. *)

val tap_digest : t -> int -> string
(** Hex SHA-256 of replica [i]'s whole tap (committed or not), in
    sequence order — the explorer's fingerprint of what the replica has
    executed. *)

val committed_histories_consistent : t -> bool
(** Every pair of replicas agrees on the operations executed at each
    sequence number within their common committed prefix — the safety
    property (no two correct replicas commit different requests with the
    same sequence number). *)

val committed_history_digest : t -> string
(** Hex SHA-256 fingerprint of the committed histories of every correct
    replica (surviving execution record per sequence number, in replica
    then sequence order). Pinned-seed runs must reproduce this digest
    byte-for-byte across refactors that do not change protocol semantics. *)

val correct_replicas : t -> int list ref
(** Mutable list of replica ids considered correct by checks; faults
    injected by tests should remove the faulty ids. Defaults to all. *)

val check_linearizable :
  ?replica:int -> t -> service:(unit -> Bft_sm.Service.t) -> (unit, string) result
(** Replay the committed prefix of [replica]'s (default 0) execution history, in
    sequence order, against a fresh instance of the service, and check that
    every recorded result matches — the observable half of the paper's
    modified-linearizability condition (Section 2.4.3): committed
    operations behave as if executed atomically one at a time, in sequence
    order, with exactly-once semantics. Limitations: only usable with
    services whose results ignore the agreed non-deterministic input (the
    replay cannot reproduce it), and it validates the totally-ordered
    history rather than searching alternative linearizations (the order is
    fixed by the protocol, so there is exactly one candidate). *)
