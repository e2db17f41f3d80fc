module Engine = Bft_sim.Engine
module Network = Bft_net.Network
module Rng = Bft_util.Rng
open Bft_core

type params = {
  seed : int;
  f : int;
  clients : int;
  ops_per_client : int;
  horizon_us : float;
  drain_us : float;
  checkpoint_interval : int;
  vc_timeout_us : float;
  status_interval_us : float;
  expect_no_view_change : bool;
  check_liveness : bool;
  view_bound : int option;
  free_costs : bool;
  quiesce : bool;
  suppress_vc_timer : bool;
  profile : string option;  (* named adversary profile merged into the schedule *)
  client_quota : int option;  (* override Config.client_quota *)
  retransmit_budget : int option;  (* enable the per-peer retransmission budget *)
  perf_watchdog : bool;  (* enable the primary performance watchdog *)
  cohort : Cohort.spec option;
      (* workload generator; None = pairwise closed-loop over
         [clients] x [ops_per_client], the classic driver *)
}

let default_params ~seed ~f =
  {
    seed;
    f;
    clients = 2;
    ops_per_client = 10;
    (* the workload spans a few tens of virtual milliseconds; the injection
       window must overlap it or the schedule degenerates to a no-op *)
    horizon_us = 60_000.0;
    drain_us = 60_000_000.0;
    checkpoint_interval = 8;
    vc_timeout_us = 30_000.0;
    status_interval_us = 10_000.0;
    expect_no_view_change = false;
    check_liveness = false;
    view_bound = None;
    free_costs = false;
    quiesce = true;
    suppress_vc_timer = false;
    profile = None;
    client_quota = None;
    retransmit_budget = None;
    perf_watchdog = false;
    cohort = None;
  }

type sim_counters = {
  sc_dropped : int;
  sc_duplicated : int;
  sc_backlog_hwm : (int * int) list;
  sc_events_fired : int;
  sc_max_heap : int;
}

type run_result = {
  schedule : Schedule.t;
  report : Oracle.report;
  failures : string list;
  completed_ops : int;
  total_ops : int;
  view_changes : int;
  max_view : int;
  history_digest : string;
  sim : sim_counters;
}

let failed r = r.failures <> []

let service () = Bft_sm.Kv_service.create ()

let schedule_rng seed = Rng.create (Int64.add (Int64.mul 1_000_003L (Int64.of_int seed)) 17L)

let profile_events params =
  match params.profile with
  | None -> []
  | Some name -> (
      match Schedule.find_profile name with
      | Some p ->
          let n = (3 * params.f) + 1 in
          p.Schedule.pr_events ~f:params.f ~n ~horizon_us:params.horizon_us
      | None -> invalid_arg (Printf.sprintf "unknown adversary profile %S" name))

let generate params =
  let n = (3 * params.f) + 1 in
  Schedule.merge
    (Schedule.generate ~rng:(schedule_rng params.seed) ~f:params.f ~n
       ~horizon_us:params.horizon_us)
    (profile_events params)

(* ------------------------------------------------------------------ *)
(* Prepared (in-flight) runs                                           *)
(* ------------------------------------------------------------------ *)

(* [prepare] builds the cluster and schedules everything — fault events,
   quiesce, probes, client drivers — but does not advance the engine, so a
   caller (the exhaustive explorer) can single-step deliveries itself and
   call [finish] whenever it wants the oracles evaluated.  [run_schedule]
   is exactly [prepare] + run-to-completion + [finish]. *)
type live = {
  lv_params : params;
  lv_sched : Schedule.t;
  lv_cluster : Cluster.t;
  lv_completed : (int * string * string) list ref;
  lv_n_completed : int ref;
  lv_total_ops : int;
  lv_monotonic : string list ref;
  lv_cohort : Cohort.t;
}

let prepare ?obs ?(monotonic_probes = true) params sched =
  let cfg =
    Config.make ~f:params.f ~checkpoint_interval:params.checkpoint_interval
      ~vc_timeout_us:params.vc_timeout_us ~status_interval_us:params.status_interval_us
      ~debug_no_vc_timer:params.suppress_vc_timer
      ?client_quota:params.client_quota ?retransmit_budget:params.retransmit_budget
      ~perf_watchdog:params.perf_watchdog ()
  in
  (* flood-client slot [k] maps to cluster client index [params.clients + k]:
     flooders are extra clients beyond the workload set, created here so
     the full pairwise key establishment covers them (their requests
     authenticate — replicas must drop them by quota, not by MAC
     failure) *)
  let flood_slots =
    List.fold_left
      (fun acc e ->
        match e.Schedule.action with
        | Schedule.Flood (k, _) | Schedule.Flood_stop k -> max acc (k + 1)
        | _ -> acc)
      0 sched
  in
  (* Free costs must silence the service's execution-cost model too:
     otherwise executing a request leaves the replica CPU busy, a
     subsequent gated release lands in its backlog, and the pending drain
     event is extra hidden state the explorer's time-abstract hashing
     cannot see. *)
  let service =
    if params.free_costs then fun () ->
      { (service ()) with Bft_sm.Service.exec_cost_us = (fun _ -> 0.0) }
    else service
  in
  let cluster =
    Cluster.create ~seed:(Int64.of_int params.seed)
      ?costs:(if params.free_costs then Some Bft_net.Costs.free else None)
      ~service ~num_clients:(params.clients + flood_slots) ?obs cfg
  in
  let flood_client k = Cluster.client cluster (params.clients + k) in
  let engine = Cluster.engine cluster and net = Cluster.network cluster in
  let n = cfg.Config.n in
  let victims = Schedule.victims sched in
  Cluster.correct_replicas cluster :=
    List.filter (fun i -> not (List.mem i victims)) (Config.replica_ids cfg);
  (* adversary rules: the composed hook applies the first matching rule *)
  let rules = ref [] in
  let install () =
    match !rules with
    | [] -> Network.clear_adversary net
    | _ ->
        Network.set_adversary net (fun ~src ~dst msg ->
            let rec go = function
              | [] -> `Pass
              | (cls, s, d, act) :: rest ->
                  if
                    (match s with None -> true | Some x -> x = src)
                    && (match d with None -> true | Some x -> x = dst)
                    && Schedule.matches cls msg.Message.body
                  then act
                  else go rest
            in
            go !rules)
  in
  let apply = function
    | Schedule.Set_loss p -> Network.set_loss_rate net p
    | Schedule.Set_dup p -> Network.set_dup_rate net p
    | Schedule.Set_jitter j -> Network.set_jitter_us net j
    | Schedule.Link_loss (src, dst, p) -> Network.set_link_loss net ~src ~dst p
    | Schedule.Partition (g1, g2) -> Network.partition net g1 g2
    | Schedule.Heal -> Network.heal net
    | Schedule.Net_crash i -> Network.crash net ~id:i
    | Schedule.Net_restart i -> Network.restart net ~id:i
    | Schedule.Crash_reboot i -> Replica.crash_reboot (Cluster.replica cluster i)
    | Schedule.Make_byzantine i -> Replica.byzantine_equivocate (Cluster.replica cluster i) true
    | Schedule.Mute i -> Replica.mute (Cluster.replica cluster i) true
    | Schedule.Unmute i -> Replica.mute (Cluster.replica cluster i) false
    | Schedule.Drop_class (c, s, d) ->
        rules := !rules @ [ (c, s, d, `Drop) ];
        install ()
    | Schedule.Delay_class (c, s, d, us) ->
        rules := !rules @ [ (c, s, d, `Delay us) ];
        install ()
    | Schedule.Clear_rules ->
        rules := [];
        install ()
    | Schedule.Hold_all -> Network.set_gate net true
    | Schedule.Release (c, s, d, nth) ->
        ignore
          (Network.release_held net ~nth ~pred:(fun ~src ~dst msg ->
               (match s with None -> true | Some x -> x = src)
               && (match d with None -> true | Some x -> x = dst)
               && Schedule.matches c msg.Message.body))
    | Schedule.Release_all -> Network.release_all_held net
    | Schedule.Cpu_scale (i, factor) -> Network.set_cpu_factor net ~id:i factor
    | Schedule.Flood (k, interval_us) -> Client.flood (flood_client k) ~interval_us
    | Schedule.Flood_stop k -> Client.flood_stop (flood_client k)
    | Schedule.Wrong_mac i -> Replica.byzantine_wrong_mac (Cluster.replica cluster i) true
    | Schedule.Wrong_mac_off i ->
        Replica.byzantine_wrong_mac (Cluster.replica cluster i) false
  in
  List.iter
    (fun e ->
      ignore
        (Engine.schedule_at engine ~label:(Engine.Name "sched")
           (Engine.of_us_float e.Schedule.at_us)
           (fun () -> apply e.Schedule.action)))
    sched;
  (* quiesce at the horizon: the network heals completely and faulty
     replicas are repaired (they stay excluded from the oracles), so a live
     run can finish its workload within the drain window.  Liveness-probe
     runs disable this: the question there is whether the system makes
     progress once the network turns timely, with replica faults intact. *)
  if params.quiesce then
    ignore
      (Engine.schedule_at engine ~label:(Engine.Name "quiesce")
         (Engine.of_us_float params.horizon_us)
         (fun () ->
           rules := [];
           (* reset_faults also restores every node's own cpu factor *)
           Network.reset_faults net;
           List.iter
             (fun i ->
               Replica.byzantine_equivocate (Cluster.replica cluster i) false;
               Replica.mute (Cluster.replica cluster i) false;
               Replica.byzantine_wrong_mac (Cluster.replica cluster i) false)
             victims;
           for k = 0 to flood_slots - 1 do
             Client.flood_stop (flood_client k)
           done));
  (* monotonicity probes on correct replicas every 20ms of virtual time.
     The explorer turns these off — probe events would pollute its timer
     enumeration — and checks monotonicity parent-against-child instead. *)
  let monotonic_violations = ref [] in
  if monotonic_probes then begin
    let prev = Array.init n (fun i ->
        let r = Cluster.replica cluster i in
        (Replica.view r, Replica.low_water_mark r))
    in
    let deadline = Engine.of_us_float (params.horizon_us +. params.drain_us) in
    let rec probe () =
      List.iter
        (fun i ->
          let r = Cluster.replica cluster i in
          let v = Replica.view r and h = Replica.low_water_mark r in
          let pv, ph = prev.(i) in
          if v < pv then
            monotonic_violations :=
              Printf.sprintf "replica %d view regressed from %d to %d" i pv v
              :: !monotonic_violations;
          if h < ph then
            monotonic_violations :=
              Printf.sprintf "replica %d low water mark regressed from %d to %d" i ph h
              :: !monotonic_violations;
          prev.(i) <- (max v pv, max h ph))
        !(Cluster.correct_replicas cluster);
      if Int64.compare (Engine.now engine) deadline < 0 then
        ignore (Engine.schedule engine ~label:(Engine.Name "probe") ~delay:(Engine.ms 20) probe)
    in
    probe ()
  end;
  (* the workload cohort: the default spec reproduces the classic
     closed-loop clients issuing unique writes, event for event *)
  let spec =
    match params.cohort with
    | Some s -> s
    | None ->
        Cohort.default_closed ~k:params.clients ~ops_per_client:params.ops_per_client
  in
  let total_ops = Cohort.total_ops spec in
  let completed = ref [] and n_completed = ref 0 in
  let cohort =
    Cohort.drive ~seed:params.seed cluster spec ~on_complete:(fun ~client ~op ~result ->
        completed := (client, op, result) :: !completed;
        incr n_completed)
  in
  {
    lv_params = params;
    lv_sched = sched;
    lv_cluster = cluster;
    lv_completed = completed;
    lv_n_completed = n_completed;
    lv_total_ops = total_ops;
    lv_monotonic = monotonic_violations;
    lv_cohort = cohort;
  }

let finish lv =
  let params = lv.lv_params in
  let cluster = lv.lv_cluster in
  let cfg = Cluster.config cluster in
  let engine = Cluster.engine cluster and net = Cluster.network cluster in
  let observed =
    {
      Oracle.completed = !(lv.lv_completed);
      monotonic_violations = List.rev !(lv.lv_monotonic);
    }
  in
  let report = Oracle.evaluate ~cluster ~service ~observed in
  let correct = !(Cluster.correct_replicas cluster) in
  let view_changes =
    List.fold_left
      (fun acc i -> acc + (Replica.counters (Cluster.replica cluster i)).Replica.n_view_changes)
      0 correct
  in
  let max_view =
    List.fold_left (fun acc i -> max acc (Replica.view (Cluster.replica cluster i))) 0 correct
  in
  let report =
    if params.expect_no_view_change && view_changes > 0 then
      report
      @ [
          {
            Oracle.name = "expect-no-view-change";
            result =
              Error
                (Printf.sprintf "correct replicas started %d view change(s)" view_changes);
          };
        ]
    else report
  in
  (* liveness oracles: only meaningful on runs that were given every chance
     to finish (a maximal execution in the explorer, or a drained fuzz run) *)
  let incomplete = !(lv.lv_n_completed) < lv.lv_total_ops in
  let report =
    if params.check_liveness && incomplete then
      report
      @ [
          {
            Oracle.name = "liveness-progress";
            result =
              Error
                (Printf.sprintf "only %d of %d issued operations committed"
                   !(lv.lv_n_completed) lv.lv_total_ops);
          };
        ]
    else report
  in
  let report =
    match params.view_bound with
    | Some bound when incomplete && max_view > bound ->
        report
        @ [
            {
              Oracle.name = "liveness-view-bound";
              result =
                Error
                  (Printf.sprintf
                     "view reached %d (bound %d) without committing the workload" max_view
                     bound);
            };
          ]
    | _ -> report
  in
  {
    schedule = lv.lv_sched;
    report;
    failures = Oracle.failures report;
    completed_ops = !(lv.lv_n_completed);
    total_ops = lv.lv_total_ops;
    view_changes;
    max_view;
    history_digest = Cluster.committed_history_digest cluster;
    sim =
      (let stats = Network.stats net in
       {
         sc_dropped = stats.Network.dropped;
         sc_duplicated = stats.Network.duplicated;
         sc_backlog_hwm =
           List.map (fun i -> (i, Network.backlog_hwm net ~id:i)) (Config.replica_ids cfg);
         sc_events_fired = Engine.events_fired engine;
         sc_max_heap = Engine.max_heap_size engine;
       });
  }

let run_schedule ?obs params sched =
  let lv = prepare ?obs params sched in
  ignore
    (Cluster.run_until
       ~timeout_us:(params.horizon_us +. params.drain_us)
       lv.lv_cluster
       (fun () -> !(lv.lv_n_completed) >= lv.lv_total_ops));
  finish lv

let run_seed params = run_schedule params (generate params)

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)
(* ------------------------------------------------------------------ *)

let remove_slice l start len =
  List.filteri (fun i _ -> i < start || i >= start + len) l

let shrink_budget = 200

let shrink params sched =
  let best_run = run_schedule params sched in
  if not (failed best_run) then (sched, best_run)
  else begin
    let budget = ref (shrink_budget - 1) in
    let best = ref sched and best_result = ref best_run in
    let try_candidate cand =
      if !budget <= 0 || List.length cand >= List.length !best then false
      else begin
        decr budget;
        let r = run_schedule params cand in
        if failed r then begin
          best := cand;
          best_result := r;
          true
        end
        else false
      end
    in
    let chunk = ref (max 1 (List.length sched / 2)) in
    while !chunk >= 1 && !budget > 0 do
      let progressed = ref false in
      let start = ref 0 in
      while !start < List.length !best && !budget > 0 do
        if try_candidate (remove_slice !best !start !chunk) then progressed := true
          (* same start index now names the next chunk of the shorter list *)
        else start := !start + !chunk
      done;
      if not !progressed then chunk := !chunk / 2
    done;
    (!best, !best_result)
  end

let replay_line params sched =
  let d = default_params ~seed:params.seed ~f:params.f in
  let opt b s = if b then s else "" in
  (* no [--profile]: profile events were merged into [sched] at generation
     time, and floods are not idempotent — replay carries the expanded
     schedule only *)
  Printf.sprintf
    "bftctl fuzz --seed %d -f %d --clients %d --ops %d --horizon-us %.0f --schedule '%s'%s%s%s%s%s%s%s%s%s%s%s%s%s%s"
    params.seed params.f params.clients params.ops_per_client params.horizon_us
    (Schedule.to_string sched)
    (opt (params.drain_us <> d.drain_us) (Printf.sprintf " --drain-us %.0f" params.drain_us))
    (opt
       (params.checkpoint_interval <> d.checkpoint_interval)
       (Printf.sprintf " --checkpoint-interval %d" params.checkpoint_interval))
    (opt
       (params.vc_timeout_us <> d.vc_timeout_us)
       (Printf.sprintf " --vc-timeout-us %.0f" params.vc_timeout_us))
    (opt
       (params.status_interval_us <> d.status_interval_us)
       (Printf.sprintf " --status-us %.0f" params.status_interval_us))
    (opt params.expect_no_view_change " --expect-no-view-change")
    (opt params.check_liveness " --check-liveness")
    (match params.view_bound with
    | Some b -> Printf.sprintf " --view-bound %d" b
    | None -> "")
    (opt params.free_costs " --free-costs")
    (opt (not params.quiesce) " --no-quiesce")
    (opt params.suppress_vc_timer " --inject-no-vc-timer")
    (match params.client_quota with
    | Some q -> Printf.sprintf " --quota %d" q
    | None -> "")
    (match params.retransmit_budget with
    | Some b -> Printf.sprintf " --retx-budget %d" b
    | None -> "")
    (opt params.perf_watchdog " --perf-vc")
    (match params.cohort with
    | Some s ->
        Printf.sprintf " --cohort-k %d --arrival %s --cohort-keys %s" s.Cohort.k
          (Cohort.arrival_to_string s.Cohort.arrival)
          (Cohort.keys_to_string s.Cohort.keys)
    | None -> "")

(* ------------------------------------------------------------------ *)
(* Seed enumeration                                                    *)
(* ------------------------------------------------------------------ *)

type fuzz_outcome = {
  seeds_run : int;
  failing : (int * run_result) list;
  live_incomplete : int;
  total_view_changes : int;
  total_completed : int;
}

let fuzz ?progress params ~seeds =
  let failing = ref [] and live_incomplete = ref 0 in
  let total_view_changes = ref 0 and total_completed = ref 0 in
  for seed = params.seed to params.seed + seeds - 1 do
    let params = { params with seed } in
    let r = run_seed params in
    total_view_changes := !total_view_changes + r.view_changes;
    total_completed := !total_completed + r.completed_ops;
    if r.completed_ops < r.total_ops && not (failed r) then incr live_incomplete;
    if failed r then begin
      let _, shrunk = shrink params r.schedule in
      failing := (seed, shrunk) :: !failing
    end;
    match progress with Some f -> f ~seed r | None -> ()
  done;
  {
    seeds_run = seeds;
    failing = List.rev !failing;
    live_incomplete = !live_incomplete;
    total_view_changes = !total_view_changes;
    total_completed = !total_completed;
  }
