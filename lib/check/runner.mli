(** Fuzzer runner: executes fault schedules against a simulated cluster,
    evaluates the safety oracles, and shrinks failing schedules.

    A run is fully determined by [(params, schedule)]: the cluster seed
    fixes the simulator and network RNG streams, and the schedule is either
    derived deterministically from the seed ({!run_seed}) or supplied
    explicitly ({!run_schedule}, used for replay and shrinking). *)

type params = {
  seed : int;
  f : int;
  clients : int;
  ops_per_client : int;
  horizon_us : float;  (** fault-injection window (virtual time) *)
  drain_us : float;  (** post-quiesce time allowed for completion *)
  checkpoint_interval : int;
  vc_timeout_us : float;
  status_interval_us : float;  (** replica status-retransmission period *)
  expect_no_view_change : bool;
      (** Debug pseudo-oracle: fail the run if any correct replica started
          a view change. Views changes are {e expected} under fault
          injection — this exists to plant a failure on demand and
          demonstrate that shrinking reports a minimal schedule. *)
  check_liveness : bool;
      (** Evaluate the liveness oracles at the end of the run: a maximal
          execution must commit every issued operation
          ([liveness-progress]), and if [view_bound] is set the view must
          not pass it without the workload completing
          ([liveness-view-bound]). Off by default: an adversarial fuzz
          schedule is free to starve progress without that being a bug. *)
  view_bound : int option;  (** bound for [liveness-view-bound] *)
  free_costs : bool;
      (** Run with {!Bft_net.Costs.free}: zero CPU costs and a constant
          1µs wire delay, so message processing is instantaneous at the
          delivery instant. The explorer requires this — it makes a
          released message's effects atomic with its release. *)
  quiesce : bool;
      (** Heal the network and repair faulty replicas at the horizon
          (default). Liveness probes disable this so replica faults
          persist: the probe asks whether the protocol recovers once the
          network alone turns timely (the paper's weak-synchrony liveness
          condition), not whether it recovers when the adversary vanishes. *)
  suppress_vc_timer : bool;
      (** Injected bug ({!Bft_core.Config.debug_no_vc_timer}): backups
          never arm the view-change timer. Used to validate that the
          explorer's liveness oracles catch a real stall. *)
  profile : string option;
      (** Named adversary profile ({!Schedule.profiles}) whose events are
          merged into the generated schedule. Flood actions allocate extra
          clients beyond the workload set: flood slot [k] is cluster
          client [clients + k]. Replay lines never carry the profile —
          the expanded events live in the schedule string. *)
  client_quota : int option;  (** override {!Bft_core.Config.client_quota} *)
  retransmit_budget : int option;
      (** enable the per-peer retransmission budget
          ({!Bft_core.Config.retransmit_budget}) *)
  perf_watchdog : bool;
      (** enable the primary performance watchdog
          ({!Bft_core.Config.perf_watchdog}) *)
  cohort : Cohort.spec option;
      (** Workload generator. [None] (default) drives [clients] pairwise
          closed-loop streams through [ops_per_client] unique writes each —
          the classic driver, now routed through {!Cohort.drive} with a
          byte-identical event sequence. A custom pairwise spec must keep
          [k <= clients]: flood slots occupy the client indices beyond
          [clients]. Derived-key specs synthesize clients outside the real
          range, so any [k] works. *)
}

val default_params : seed:int -> f:int -> params

type sim_counters = {
  sc_dropped : int;  (** network-level message drops (faults + loss) *)
  sc_duplicated : int;
  sc_backlog_hwm : (int * int) list;
      (** per replica id: deepest CPU receive backlog reached *)
  sc_events_fired : int;  (** simulator events executed *)
  sc_max_heap : int;  (** peak event-heap size *)
}

type run_result = {
  schedule : Schedule.t;
  report : Oracle.report;
  failures : string list;  (** [Oracle.failures] of [report] *)
  completed_ops : int;  (** operations whose reply certificate arrived *)
  total_ops : int;
  view_changes : int;  (** view changes started by correct replicas *)
  max_view : int;  (** highest view reached by any correct replica *)
  history_digest : string;
      (** [Cluster.committed_history_digest] of the final cluster state:
          a determinism fingerprint — identical [(params, schedule)] must
          yield identical digests, across processes and code refactors
          that preserve protocol semantics. *)
  sim : sim_counters;
      (** network/engine counters joined in from [Bft_net] / [Bft_sim]
          at the end of the run (the metrics layer's system-level view). *)
}

val failed : run_result -> bool

val generate : params -> Schedule.t
(** The fault schedule derived deterministically from [params.seed],
    merged with the events of [params.profile] (if any). *)

(** {2 Prepared runs}

    The exhaustive explorer needs to single-step the engine between
    deliveries instead of running to completion, while reusing — by
    construction, not by imitation — the exact cluster setup, schedule
    application, and client workload of a fuzz run. [prepare] does all the
    setup and scheduling without advancing the engine; [finish] evaluates
    the oracles over whatever state the caller drove the cluster to.
    [run_schedule] is [prepare] + run-to-completion + [finish]. *)

type live = {
  lv_params : params;
  lv_sched : Schedule.t;
  lv_cluster : Bft_core.Cluster.t;
  lv_completed : (int * string * string) list ref;
      (** [(client_id, op, result)] per accepted reply, most recent first *)
  lv_n_completed : int ref;
  lv_total_ops : int;
  lv_monotonic : string list ref;
  lv_cohort : Cohort.t;
      (** the workload generator — its {!Cohort.latency_hist} carries the
          per-op virtual-time latency of the run *)
}

val prepare :
  ?obs:Bft_obs.Obs.registry -> ?monotonic_probes:bool -> params -> Schedule.t -> live
(** Build the cluster, inject the schedule's events at their virtual
    times, arm the quiesce hook (unless [params.quiesce] is false), start
    the monotonicity probes (unless [monotonic_probes:false] — the
    explorer disables them because probe timers would pollute its event
    enumeration, and checks monotonicity parent-against-child instead),
    and start the closed-loop clients. The engine has not run: call
    {!Bft_core.Cluster.run_until} or step it manually, then {!finish}. *)

val finish : live -> run_result
(** Evaluate every oracle over the current cluster state. Pure
    observation: does not advance the engine, so the explorer may call it
    at any point along a path (it is only meaningful where the caller
    considers the execution terminal). *)

val run_schedule : ?obs:Bft_obs.Obs.registry -> params -> Schedule.t -> run_result
(** Build a cluster, inject the schedule's events at their virtual times,
    drive [clients] closed-loop clients through unique KV writes, quiesce
    all network faults at the horizon, and evaluate every oracle. [obs]
    attaches per-node tracing (used to dump traces when replaying a shrunk
    counterexample); runs without it are untraced and byte-identical to
    the pre-tracing behavior. *)

val run_seed : params -> run_result
(** [run_schedule] on the schedule generated from [params.seed]. *)

val shrink : ?budget:int -> params -> Schedule.t -> Schedule.t * run_result
(** Greedy delta-debugging: starting from a failing schedule, repeatedly
    remove event chunks (halving chunk sizes down to single events) while
    the failure reproduces, spending at most [budget] (default 200) runs.
    Returns the smallest failing schedule found with its run. If the input
    schedule does not fail, it is returned unchanged. *)

val replay_line : params -> Schedule.t -> string
(** A [bftctl fuzz] command line that reproduces the run exactly,
    including any non-default liveness/exploration flags. *)

type fuzz_outcome = {
  seeds_run : int;
  failing : (int * run_result) list;  (** seed, shrunk failing run *)
  live_incomplete : int;
      (** runs that timed out before completing every op (not a safety
          failure: the schedule may simply starve progress) *)
  total_view_changes : int;
  total_completed : int;
}

val fuzz :
  ?progress:(seed:int -> run_result -> unit) -> params -> seeds:int -> fuzz_outcome
(** Run seeds [params.seed, params.seed + seeds); on each failure, shrink
    it before recording. [progress] is called after every seed. *)
