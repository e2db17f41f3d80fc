(** Client cohorts: one O(1)-memory object standing in for [k] simulated
    clients.

    Real {!Bft_core.Client.t} objects carry per-client state (session keys,
    retransmission timers, SRTT estimators, a network node each), which
    caps workload experiments at a few thousand clients. A cohort collapses
    the population: client identity and request timestamp are synthesized
    from an issue counter, session keys are derived on demand from one
    group secret (see {!Bft_crypto.Keychain.group}), and the whole client
    id range shares a single network node whose CPU aggregates [k] client
    CPUs. Memory is O(1) in [k] plus O(in-flight operations) — Little's
    law bounds the latter by offered load, not population — which is what
    makes million-client workloads tractable.

    Two key modes:
    - {!Pairwise} drives the cluster's real clients with the classic
      driver discipline. At [k] = the cluster's client count it is
      event-for-event identical to the per-client driver it replaced — the
      pinned committed-history digests enforce byte-identical protocol
      traffic.
    - {!Derived} synthesizes requests over group-derived MAC keys;
      replicas verify them through the {!Bft_crypto.Keychain.set_group}
      fallback. Requires [Mac_auth]. A flight runs {!Bft_core.Client}'s
      core, {!Bft_core.Proxy}, with [srtt_us = 0] (a cohort keeps no
      per-client state), and makes and checks its MACs through
      {!Bft_crypto.Auth}'s group-keyed entry points.

    Arrival processes: closed-loop (fixed think time per stream),
    open-loop Poisson (rate independent of completions — exposes the
    saturation knee), and bursty/diurnal (sinusoidal rate modulation).
    Open-loop arrivals require {!Derived} keys, because a real client
    admits only one outstanding request.

    Caveat (documented, by design): under open-loop arrivals a later
    request of a synthesized client can execute before an earlier one;
    replicas deduplicate at execution by last-reply timestamp, so the
    earlier operation is dropped and never completes. Open-loop
    experiments therefore measure committed throughput and completed-op
    latency, not per-op completion.

    Trust caveat (by design): every replica holds the group secret, so a
    faulty replica can derive any replica's key toward a cohort client.
    Derived cohorts model load from honest replicas, not clients facing
    Byzantine replicas. *)

type arrival =
  | Closed of { think_us : float; ops_per_client : int }
      (** each of the [k] streams re-issues [think_us] after completion *)
  | Open of { rate_per_sec : float; total_ops : int }
      (** Poisson arrivals at a fixed aggregate rate, round-robin over the
          [k] synthesized clients *)
  | Bursty of {
      base_per_sec : float;
      peak_per_sec : float;
      period_us : float;
      total_ops : int;
    }
      (** sinusoidal (diurnal) rate between [base] and [peak] with the
          given period *)

type keys = Pairwise | Derived

type spec = { k : int; arrival : arrival; keys : keys }

val default_closed : k:int -> ops_per_client:int -> spec
(** Pairwise closed-loop with the classic 100us think time — the spec the
    runner uses by default; byte-identical to the historical per-client
    driver. *)

val total_ops : spec -> int
(** Operations the cohort will issue in total. *)

val parse_arrival : string -> (arrival, string) result
(** Command-line syntax: [closed:<think_us>:<ops_per_client>],
    [open:<rate_per_sec>:<total_ops>],
    [bursty:<base>:<peak>:<period_us>:<total_ops>]. *)

val arrival_to_string : arrival -> string

val parse_keys : string -> (keys, string) result
(** ["pairwise"] or ["derived"]. *)

val keys_to_string : keys -> string

type t

val drive :
  seed:int ->
  Bft_core.Cluster.t ->
  spec ->
  on_complete:(client:int -> op:string -> result:string -> unit) ->
  t
(** Install the cohort on the cluster and schedule its arrival process;
    run the cluster's engine to make progress. [seed] feeds the group
    secret and the arrival RNG. [on_complete] fires once per
    completed operation with the synthesized client id.

    Raises [Invalid_argument] when the spec is unsatisfiable: pairwise
    with [k] exceeding the cluster's real clients, pairwise with open-loop
    arrivals, or derived keys under [Sig_auth]. *)

val latency_hist : t -> Bft_obs.Hist.t
(** Issue-to-reply-certificate latency of completed operations, in
    microseconds of virtual time (both key modes). *)
