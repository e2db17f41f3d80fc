(* bftctl: command-line driver for the BFT simulator.

   Subcommands run self-contained scenarios:
     run        closed-loop clients against a replicated service
     latency    single-request latency for an arg/result size point
     andrew     the Andrew-like BFS workload, replicated vs unreplicated
     viewchange kill the primary under load, report failover latency
     recover    corrupt a replica and run proactive recovery
     model      print analytic performance-model predictions *)

open Cmdliner
open Bft_core

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Warning)

let verbose =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Enable protocol debug logging.")

let f_arg =
  Arg.(value & opt int 1 & info [ "f" ] ~docv:"F" ~doc:"Faults tolerated; n = 3f+1.")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Simulation seed.")

let auth_arg =
  Arg.(
    value
    & opt (enum [ ("mac", Config.Mac_auth); ("sig", Config.Sig_auth) ]) Config.Mac_auth
    & info [ "auth" ] ~doc:"mac (BFT) or sig (BFT-PK).")

let service_arg =
  Arg.(
    value
    & opt (enum [ ("null", `Null); ("counter", `Counter); ("kv", `Kv); ("bfs", `Bfs) ]) `Kv
    & info [ "service" ] ~doc:"Replicated service: null, counter, kv, bfs.")

let make_service = function
  | `Null -> fun () -> Bft_sm.Null_service.create ()
  | `Counter -> fun () -> Bft_sm.Counter_service.create ()
  | `Kv -> fun () -> Bft_sm.Kv_service.create ()
  | `Bfs -> fun () -> Bft_bfs.Bfs_service.create ()

let mk_cluster ~f ~seed ~auth ~service ~clients =
  let cfg = Config.make ~auth_mode:auth ~f () in
  (cfg, Cluster.create ~seed:(Int64.of_int seed) ~service:(make_service service) ~num_clients:clients cfg)

(* --- run --- *)

let run_cmd =
  let ops_arg = Arg.(value & opt int 100 & info [ "ops" ] ~doc:"Operations per client.") in
  let clients_arg = Arg.(value & opt int 2 & info [ "clients" ] ~doc:"Closed-loop clients.") in
  let run verbose f seed auth service ops clients =
    setup_logs verbose;
    let _, c = mk_cluster ~f ~seed ~auth ~service ~clients in
    let stats = Bft_util.Stats.create () in
    let t0 = Bft_sim.Engine.now (Cluster.engine c) in
    for round = 1 to ops do
      for k = 0 to clients - 1 do
        let op =
          match service with
          | `Counter -> "inc"
          | `Kv -> Printf.sprintf "put key%d-%d value%d" k round round
          | `Null -> Bft_sm.Null_service.op ~read_only:false ~arg_size:16 ~result_size:16
          | `Bfs -> Printf.sprintf "create 1 f%d-%d" k round
        in
        let _, l = Cluster.invoke_sync_latency ~timeout_us:60_000_000.0 c ~client:k op in
        Bft_util.Stats.add stats l
      done
    done;
    let elapsed = Bft_sim.Engine.to_ms (Int64.sub (Bft_sim.Engine.now (Cluster.engine c)) t0) in
    Printf.printf "completed %d ops in %.1f virtual ms\n" (ops * clients) elapsed;
    Printf.printf "latency (us): %s\n" (Bft_util.Stats.summary stats);
    Printf.printf "histories consistent: %b\n" (Cluster.committed_histories_consistent c)
  in
  Cmd.v (Cmd.info "run" ~doc:"Run closed-loop clients against a replicated service.")
    Term.(const run $ verbose $ f_arg $ seed_arg $ auth_arg $ service_arg $ ops_arg $ clients_arg)

(* --- latency --- *)

let latency_cmd =
  let arg_size = Arg.(value & opt int 0 & info [ "arg" ] ~doc:"Argument bytes.") in
  let res_size = Arg.(value & opt int 0 & info [ "result" ] ~doc:"Result bytes.") in
  let ro = Arg.(value & flag & info [ "read-only" ] ~doc:"Use the read-only optimization.") in
  let run verbose f seed auth arg_size res_size ro =
    setup_logs verbose;
    let cfg = Config.make ~auth_mode:auth ~f () in
    let c = Cluster.create ~seed:(Int64.of_int seed) ~num_clients:1 cfg in
    ignore (Cluster.invoke_sync ~timeout_us:120_000_000.0 c ~client:0 (Bft_sm.Null_service.op ~read_only:false ~arg_size:0 ~result_size:0));
    let stats = Bft_util.Stats.create () in
    for _ = 1 to 20 do
      let _, l =
        Cluster.invoke_sync_latency ~timeout_us:120_000_000.0 c ~client:0 ~read_only:ro
          (Bft_sm.Null_service.op ~read_only:ro ~arg_size ~result_size:res_size)
      in
      Bft_util.Stats.add stats l
    done;
    let w = { Bft_perf.Perf_model.arg_size; result_size = res_size; read_only = ro; batch = 1 } in
    Printf.printf "measured: %s\n" (Bft_util.Stats.summary stats);
    Printf.printf "model:    %.1f us\n"
      (Bft_perf.Perf_model.latency_us ~costs:Bft_net.Costs.default ~cfg w)
  in
  Cmd.v (Cmd.info "latency" ~doc:"Measure request latency and compare with the analytic model.")
    Term.(const run $ verbose $ f_arg $ seed_arg $ auth_arg $ arg_size $ res_size $ ro)

(* --- andrew --- *)

let andrew_cmd =
  let scale = Arg.(value & opt int 1 & info [ "scale" ] ~doc:"Workload scale (AndrewN).") in
  let run verbose f seed auth scale =
    setup_logs verbose;
    let steps = Bft_bfs.Andrew.script ~scale () in
    let cfg = Config.make ~auth_mode:auth ~f () in
    let c =
      Cluster.create ~seed:(Int64.of_int seed)
        ~service:(fun () -> Bft_bfs.Bfs_service.create ())
        ~num_clients:1 cfg
    in
    let t0 = Bft_sim.Engine.now (Cluster.engine c) in
    List.iter
      (fun (s : Bft_bfs.Andrew.step) ->
        ignore (Cluster.invoke_sync ~timeout_us:120_000_000.0 c ~client:0 ~read_only:s.Bft_bfs.Andrew.read_only s.Bft_bfs.Andrew.op))
      steps;
    let bft_ms = Bft_sim.Engine.to_ms (Int64.sub (Bft_sim.Engine.now (Cluster.engine c)) t0) in
    let b = Baseline.create ~seed:(Int64.of_int seed) ~service:(fun () -> Bft_bfs.Bfs_service.create ()) () in
    let t0 = Bft_sim.Engine.now (Baseline.engine b) in
    List.iter (fun (s : Bft_bfs.Andrew.step) -> ignore (Baseline.invoke_sync b ~client:0 s.Bft_bfs.Andrew.op)) steps;
    let base_ms = Bft_sim.Engine.to_ms (Int64.sub (Bft_sim.Engine.now (Baseline.engine b)) t0) in
    Printf.printf "andrew x%d: %d ops\n" scale (List.length steps);
    Printf.printf "BFS (replicated):   %8.2f virtual ms\n" bft_ms;
    Printf.printf "NFS (unreplicated): %8.2f virtual ms\n" base_ms;
    Printf.printf "protocol overhead:  %8.1f%%\n" (100.0 *. ((bft_ms /. base_ms) -. 1.0))
  in
  Cmd.v (Cmd.info "andrew" ~doc:"Run the Andrew-like BFS workload, replicated vs unreplicated.")
    Term.(const run $ verbose $ f_arg $ seed_arg $ auth_arg $ scale)

(* --- viewchange --- *)

let viewchange_cmd =
  let run verbose f seed auth =
    setup_logs verbose;
    let cfg = Config.make ~auth_mode:auth ~vc_timeout_us:30_000.0 ~f () in
    let c =
      Cluster.create ~seed:(Int64.of_int seed)
        ~service:(fun () -> Bft_sm.Counter_service.create ())
        ~num_clients:1 cfg
    in
    for _ = 1 to 5 do
      ignore (Cluster.invoke_sync ~timeout_us:60_000_000.0 c ~client:0 "inc")
    done;
    let t_kill = Bft_sim.Engine.now (Cluster.engine c) in
    Bft_net.Network.crash (Cluster.network c) ~id:0;
    let r, _ = Cluster.invoke_sync_latency ~timeout_us:60_000_000.0 c ~client:0 "inc" in
    let t_done = Bft_sim.Engine.now (Cluster.engine c) in
    Printf.printf "primary killed; next op result=%s\n" r;
    Printf.printf "failover (kill -> next committed op): %.2f virtual ms\n"
      (Bft_sim.Engine.to_ms (Int64.sub t_done t_kill));
    Printf.printf "new view: %d\n" (Replica.view (Cluster.replica c 1))
  in
  Cmd.v (Cmd.info "viewchange" ~doc:"Kill the primary under load and measure failover.")
    Term.(const run $ verbose $ f_arg $ seed_arg $ auth_arg)

(* --- recover --- *)

let recover_cmd =
  let run verbose f seed =
    setup_logs verbose;
    let cfg = Config.make ~checkpoint_interval:8 ~f () in
    let c =
      Cluster.create ~seed:(Int64.of_int seed)
        ~service:(fun () -> Bft_sm.Kv_service.create ())
        ~num_clients:1 cfg
    in
    for i = 1 to 20 do
      ignore (Cluster.invoke_sync ~timeout_us:60_000_000.0 c ~client:0 (Printf.sprintf "put k%d v%d" i i))
    done;
    Replica.corrupt_state (Cluster.replica c 1);
    Replica.force_recovery (Cluster.replica c 1);
    let t0 = Bft_sim.Engine.now (Cluster.engine c) in
    let i = ref 20 in
    let recovered =
      Cluster.run_until ~timeout_us:60_000_000.0 c (fun () ->
          if not (Client.busy (Cluster.client c 0)) then begin
            incr i;
            Client.invoke (Cluster.client c 0)
              ~op:(Printf.sprintf "put k%d v%d" !i !i)
              (fun ~result:_ ~latency_us:_ -> ())
          end;
          not (Replica.is_recovering (Cluster.replica c 1)))
    in
    Printf.printf "recovered: %b in %.1f virtual ms (%d state transfers, %d bytes fetched)\n"
      recovered
      (Bft_sim.Engine.to_ms (Int64.sub (Bft_sim.Engine.now (Cluster.engine c)) t0))
      (Replica.counters (Cluster.replica c 1)).Replica.n_state_transfers
      (Replica.counters (Cluster.replica c 1)).Replica.bytes_fetched
  in
  Cmd.v (Cmd.info "recover" ~doc:"Corrupt a replica's state and run proactive recovery.")
    Term.(const run $ verbose $ f_arg $ seed_arg)

(* --- fuzz --- *)

let fuzz_cmd =
  let seeds_arg =
    Arg.(value & opt int 100 & info [ "seeds" ] ~doc:"Number of consecutive seeds to explore.")
  in
  let clients_arg = Arg.(value & opt int 2 & info [ "clients" ] ~doc:"Closed-loop clients.") in
  let ops_arg = Arg.(value & opt int 8 & info [ "ops" ] ~doc:"Operations per client.") in
  let horizon_arg =
    Arg.(
      value & opt float 60_000.0
      & info [ "horizon-us" ] ~doc:"Fault-injection window in virtual microseconds.")
  in
  let schedule_arg =
    Arg.(
      value & opt (some string) None
      & info [ "schedule" ] ~docv:"SCHED"
          ~doc:
            "Replay an explicit fault schedule (the encoding printed for failing runs) \
             instead of generating one from the seed.")
  in
  let no_vc_arg =
    Arg.(
      value & flag
      & info [ "expect-no-view-change" ]
          ~doc:
            "Debug oracle: treat any view change as a failure. View changes are expected \
             under fault injection — this deliberately plants failures to demonstrate \
             that shrinking reports a minimal replayable schedule.")
  in
  let drain_arg =
    Arg.(
      value & opt float 60_000_000.0
      & info [ "drain-us" ] ~doc:"Post-quiesce virtual time allowed for completion.")
  in
  let ckpt_arg =
    Arg.(value & opt int 8 & info [ "checkpoint-interval" ] ~doc:"Checkpoint every K seqnos.")
  in
  let vc_timeout_arg =
    Arg.(
      value & opt float 30_000.0
      & info [ "vc-timeout-us" ] ~doc:"Initial view-change timeout (doubles).")
  in
  let status_arg =
    Arg.(
      value & opt float 10_000.0
      & info [ "status-us" ] ~doc:"Replica status-retransmission interval.")
  in
  let liveness_arg =
    Arg.(
      value & flag
      & info [ "check-liveness" ]
          ~doc:
            "Fail runs that do not commit every issued operation (liveness oracles; used \
             when replaying explorer counterexamples).")
  in
  let view_bound_arg =
    Arg.(
      value & opt (some int) None
      & info [ "view-bound" ] ~docv:"V"
          ~doc:"Liveness: fail if the view passes V without the workload completing.")
  in
  let free_costs_arg =
    Arg.(
      value & flag
      & info [ "free-costs" ]
          ~doc:"Zero CPU costs and constant 1us wire delay (explorer replay conditions).")
  in
  let no_quiesce_arg =
    Arg.(
      value & flag
      & info [ "no-quiesce" ]
          ~doc:"Do not heal faults at the horizon; replica faults persist to the end.")
  in
  let inject_arg =
    Arg.(
      value & flag
      & info [ "inject-no-vc-timer" ]
          ~doc:
            "Injected bug: backups never arm the view-change timer (validates that the \
             liveness oracles catch a real stall).")
  in
  let profile_arg =
    Arg.(
      value & opt (some string) None
      & info [ "profile" ] ~docv:"NAME"
          ~doc:
            "Merge a named adversary profile (slow_primary, client_flood, mac_storm) into \
             every generated schedule. Replay lines carry the expanded events in the \
             schedule string, never the profile name.")
  in
  let quota_arg =
    Arg.(
      value & opt (some int) None
      & info [ "quota" ] ~docv:"N"
          ~doc:"Per-client in-flight admission quota at each replica (default 64).")
  in
  let retx_budget_arg =
    Arg.(
      value & opt (some int) None
      & info [ "retx-budget" ] ~docv:"B"
          ~doc:
            "Per-peer retransmission budget per status interval (with exponential refill \
             backoff); unset preserves the paper's unbounded retransmission.")
  in
  let perf_vc_arg =
    Arg.(
      value & flag
      & info [ "perf-vc" ]
          ~doc:
            "Enable the primary performance watchdog: backups view-change a primary whose \
             smoothed request latency degrades well beyond the observed baseline.")
  in
  let adaptive_batch_arg =
    Arg.(
      value & flag
      & info [ "adaptive-batch" ]
          ~doc:
            "Enable the queue-depth-tracking batch sizer at the primary (deterministic; \
             changes batch boundaries, so pinned digests do not apply).")
  in
  let cohort_k_arg =
    Arg.(
      value & opt (some int) None
      & info [ "cohort-k" ] ~docv:"K"
          ~doc:
            "Replace the per-client drivers with one K-client cohort (O(1) memory in K). \
             Requires --arrival; pairwise cohorts need K <= --clients.")
  in
  let arrival_arg =
    Arg.(
      value & opt (some string) None
      & info [ "arrival" ] ~docv:"SPEC"
          ~doc:
            "Cohort arrival process: closed:<think_us>:<ops_per_client>, \
             open:<rate_per_sec>:<total_ops>, or \
             bursty:<base>:<peak>:<period_us>:<total_ops>. Open/bursty need \
             --cohort-keys derived.")
  in
  let cohort_keys_arg =
    Arg.(
      value & opt string "pairwise"
      & info [ "cohort-keys" ] ~docv:"MODE"
          ~doc:
            "Cohort key mode: 'pairwise' drives real clients; 'derived' synthesizes \
             clients over group-derived MAC keys (supports millions of clients).")
  in
  let print_failure params (r : Bft_check.Runner.run_result) =
    Printf.printf "FAILED oracles:\n";
    List.iter (fun f -> Printf.printf "  %s\n" f) r.Bft_check.Runner.failures;
    Printf.printf "minimal schedule (%d events):\n" (List.length r.Bft_check.Runner.schedule);
    Format.printf "  @[<v>%a@]@." Bft_check.Schedule.pp r.Bft_check.Runner.schedule;
    Printf.printf "replay: %s\n" (Bft_check.Runner.replay_line params r.Bft_check.Runner.schedule);
    (* replay the shrunk schedule with tracing enabled and dump each node's
       recent protocol events — the counterexample's story, node by node *)
    let reg = Bft_obs.Obs.registry () in
    ignore (Bft_check.Runner.run_schedule ~obs:reg params r.Bft_check.Runner.schedule);
    Printf.printf "trace dump (last 25 events per node):\n";
    List.iter
      (fun (id, o) ->
        Printf.printf "  node %d (%s):\n" id
          (if id < (3 * params.Bft_check.Runner.f) + 1 then "replica" else "client");
        List.iter
          (fun e -> Printf.printf "    %s\n" (Bft_obs.Obs.entry_to_string e))
          (Bft_obs.Obs.events ~last:25 o))
      (Bft_obs.Obs.nodes reg)
  in
  let run verbose f seed seeds clients ops horizon_us schedule expect_no_view_change
      drain_us checkpoint_interval vc_timeout_us status_interval_us check_liveness
      view_bound free_costs no_quiesce inject_no_vc_timer profile client_quota
      retransmit_budget perf_watchdog adaptive_batch cohort_k arrival cohort_keys =
    setup_logs verbose;
    let bad msg =
      Printf.eprintf "%s\n" msg;
      exit 2
    in
    let cohort =
      match (cohort_k, arrival) with
      | None, None -> None
      | None, Some _ -> bad "--arrival requires --cohort-k"
      | Some _, None -> bad "--cohort-k requires --arrival"
      | Some k, Some a -> (
          match
            ( Bft_check.Cohort.parse_arrival a,
              Bft_check.Cohort.parse_keys cohort_keys )
          with
          | Error e, _ | _, Error e -> bad e
          | Ok arrival, Ok keys -> Some { Bft_check.Cohort.k; arrival; keys })
    in
    (match profile with
    | Some name when Option.is_none (Bft_check.Schedule.find_profile name) ->
        Printf.eprintf "unknown --profile %S (have: %s)\n" name
          (String.concat ", "
             (List.map
                (fun p -> p.Bft_check.Schedule.pr_name)
                Bft_check.Schedule.profiles));
        exit 2
    | _ -> ());
    let params =
      {
        (Bft_check.Runner.default_params ~seed ~f) with
        clients;
        ops_per_client = ops;
        horizon_us;
        expect_no_view_change;
        drain_us;
        checkpoint_interval;
        vc_timeout_us;
        status_interval_us;
        check_liveness;
        view_bound;
        free_costs;
        quiesce = not no_quiesce;
        suppress_vc_timer = inject_no_vc_timer;
        profile;
        client_quota;
        retransmit_budget;
        perf_watchdog;
        adaptive_batch;
        cohort;
      }
    in
    match schedule with
    | Some s -> (
        match Bft_check.Schedule.of_string s with
        | Error e ->
            Printf.eprintf "bad --schedule: %s\n" e;
            exit 2
        | Ok sched ->
            let r = Bft_check.Runner.run_schedule params sched in
            Printf.printf "seed %d: %d/%d ops, %d view change(s), max view %d\n" seed
              r.Bft_check.Runner.completed_ops r.Bft_check.Runner.total_ops
              r.Bft_check.Runner.view_changes r.Bft_check.Runner.max_view;
            List.iter
              (fun o ->
                Printf.printf "  %-25s %s\n" o.Bft_check.Oracle.name
                  (match o.Bft_check.Oracle.result with Ok () -> "ok" | Error e -> "FAIL: " ^ e))
              r.Bft_check.Runner.report;
            if Bft_check.Runner.failed r then begin
              let sched', r' = Bft_check.Runner.shrink params sched in
              ignore sched';
              print_failure params r';
              exit 1
            end)
    | None ->
        let progress ~seed (r : Bft_check.Runner.run_result) =
          if verbose then
            Printf.printf "seed %d: %d/%d ops, %d vc, %s  [%s]\n%!" seed r.completed_ops
              r.total_ops r.view_changes
              (if Bft_check.Runner.failed r then "FAIL" else "ok")
              (Bft_check.Schedule.to_string r.schedule)
          else if (seed - params.Bft_check.Runner.seed + 1) mod 25 = 0 then
            Printf.printf "... %d seeds\n%!" (seed - params.Bft_check.Runner.seed + 1)
        in
        let outcome = Bft_check.Runner.fuzz ~progress params ~seeds in
        Printf.printf
          "%d seeds: %d failing, %d completed ops, %d view changes explored, %d runs \
           timed out live\n"
          outcome.Bft_check.Runner.seeds_run
          (List.length outcome.Bft_check.Runner.failing)
          outcome.Bft_check.Runner.total_completed outcome.Bft_check.Runner.total_view_changes
          outcome.Bft_check.Runner.live_incomplete;
        List.iter
          (fun (seed, r) ->
            Printf.printf "--- seed %d ---\n" seed;
            print_failure { params with seed } r)
          outcome.Bft_check.Runner.failing;
        if outcome.Bft_check.Runner.failing <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Randomized Byzantine fault-schedule fuzzing with safety oracles and shrinking.")
    Term.(
      const run $ verbose $ f_arg $ seed_arg $ seeds_arg $ clients_arg $ ops_arg $ horizon_arg
      $ schedule_arg $ no_vc_arg $ drain_arg $ ckpt_arg $ vc_timeout_arg $ status_arg
      $ liveness_arg $ view_bound_arg $ free_costs_arg $ no_quiesce_arg $ inject_arg
      $ profile_arg $ quota_arg $ retx_budget_arg $ perf_vc_arg $ adaptive_batch_arg
      $ cohort_k_arg $ arrival_arg $ cohort_keys_arg)

(* --- explore --- *)

let explore_cmd =
  let clients_arg = Arg.(value & opt int 1 & info [ "clients" ] ~doc:"Closed-loop clients.") in
  let ops_arg = Arg.(value & opt int 1 & info [ "ops" ] ~doc:"Operations per client.") in
  let view_bound_arg =
    Arg.(
      value & opt int 2
      & info [ "view-bound" ] ~docv:"V"
          ~doc:"Liveness: flag executions whose view passes V without completing.")
  in
  let vc_timeout_arg =
    Arg.(
      value & opt float 30_000.0
      & info [ "vc-timeout-us" ] ~doc:"Initial view-change timeout (doubles).")
  in
  let ckpt_arg =
    Arg.(value & opt int 8 & info [ "checkpoint-interval" ] ~doc:"Checkpoint every K seqnos.")
  in
  let horizon_arg =
    Arg.(
      value & opt float 250_000.0
      & info [ "tick-horizon-us" ]
          ~doc:"Virtual-time bound on ticks; cuts infinite retransmission chains.")
  in
  let depth_arg =
    Arg.(value & opt int 60 & info [ "max-depth" ] ~doc:"Per-path choice bound.")
  in
  let states_arg =
    Arg.(value & opt int 50_000 & info [ "max-states" ] ~doc:"State-build budget.")
  in
  let wall_arg =
    Arg.(value & opt float 300.0 & info [ "max-wall-s" ] ~doc:"Wall-clock budget, seconds.")
  in
  let dfs_arg = Arg.(value & flag & info [ "dfs" ] ~doc:"Depth-first frontier (default BFS).") in
  let no_por_arg =
    Arg.(value & flag & info [ "no-por" ] ~doc:"Disable sleep-set partial-order reduction.")
  in
  let no_fifo_arg =
    Arg.(
      value & flag
      & info [ "no-fifo" ]
          ~doc:
            "Explore arbitrary per-link reordering instead of per-link FIFO delivery \
             (rarely exhaustible).")
  in
  let keep_going_arg =
    Arg.(
      value & flag
      & info [ "keep-going" ] ~doc:"Collect every violation instead of stopping at the first.")
  in
  let inject_arg =
    Arg.(
      value & flag
      & info [ "inject-no-vc-timer" ]
          ~doc:"Injected bug: backups never arm the view-change timer.")
  in
  let prefix_arg =
    Arg.(
      value & opt (some string) None
      & info [ "prefix" ] ~docv:"SCHED"
          ~doc:"Fault schedule injected before exploration (e.g. '0@mute:1').")
  in
  let stats_json_arg =
    Arg.(
      value & opt (some string) None
      & info [ "stats-json" ] ~docv:"FILE" ~doc:"Write the statistics report as JSON.")
  in
  let run verbose f seed clients ops view_bound vc_timeout_us checkpoint_interval
      tick_horizon_us max_depth max_states max_wall_s dfs no_por no_fifo keep_going
      inject_no_vc_timer prefix stats_json =
    setup_logs verbose;
    let prefix =
      match prefix with
      | None -> []
      | Some s -> (
          match Bft_check.Schedule.of_string s with
          | Ok sched -> sched
          | Error e ->
              Printf.eprintf "bad --prefix: %s\n" e;
              exit 2)
    in
    let c =
      {
        (Bft_explore.Explore.default_config ~seed) with
        Bft_explore.Explore.f;
        clients;
        ops_per_client = ops;
        view_bound;
        vc_timeout_us;
        checkpoint_interval;
        tick_horizon_us;
        max_depth;
        max_states;
        max_wall_s;
        strategy = (if dfs then Bft_explore.Explore.Dfs else Bft_explore.Explore.Bfs);
        por = not no_por;
        fifo_links = not no_fifo;
        stop_on_violation = not keep_going;
        suppress_vc_timer = inject_no_vc_timer;
        prefix;
      }
    in
    let o = Bft_explore.Explore.run ~log:(fun m -> Printf.printf "%s\n%!" m) c in
    Format.printf "%a@." Bft_explore.Explore.pp_stats o.Bft_explore.Explore.o_stats;
    Printf.printf "exhausted: %b\n" o.Bft_explore.Explore.o_exhausted;
    (match stats_json with
    | None -> ()
    | Some file ->
        let oc = open_out file in
        output_string oc (Bft_explore.Explore.stats_json o.Bft_explore.Explore.o_stats);
        output_char oc '\n';
        close_out oc);
    List.iter
      (fun (v : Bft_explore.Explore.violation) ->
        Printf.printf "VIOLATION (%s) at depth %d:\n"
          (match v.Bft_explore.Explore.v_kind with `Safety -> "safety" | `Liveness -> "liveness")
          v.Bft_explore.Explore.v_depth;
        List.iter (fun fl -> Printf.printf "  %s\n" fl) v.Bft_explore.Explore.v_failures;
        Printf.printf "schedule: %s\n" (Bft_check.Schedule.to_string v.Bft_explore.Explore.v_schedule);
        Printf.printf "replay: %s\n" v.Bft_explore.Explore.v_replay)
      o.Bft_explore.Explore.o_violations;
    if o.Bft_explore.Explore.o_violations <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Bounded exhaustive exploration of delivery/timer interleavings with safety and \
          liveness oracles (small configs; POR + state hashing).")
    Term.(
      const run $ verbose $ f_arg $ seed_arg $ clients_arg $ ops_arg $ view_bound_arg
      $ vc_timeout_arg $ ckpt_arg $ horizon_arg $ depth_arg $ states_arg $ wall_arg $ dfs_arg
      $ no_por_arg $ no_fifo_arg $ keep_going_arg $ inject_arg $ prefix_arg $ stats_json_arg)

(* --- trace / metrics --- *)

(* Shared by [trace] and [metrics]: run one fuzz-style scenario (seed-derived
   or explicit schedule) with per-node tracing attached. *)
let traced_run ~seed ~f ~clients ~ops ~horizon_us ~schedule =
  let params =
    {
      (Bft_check.Runner.default_params ~seed ~f) with
      clients;
      ops_per_client = ops;
      horizon_us;
    }
  in
  let sched =
    match schedule with
    | None -> Bft_check.Runner.generate params
    | Some s -> (
        match Bft_check.Schedule.of_string s with
        | Ok sched -> sched
        | Error e ->
            Printf.eprintf "bad --schedule: %s\n" e;
            exit 2)
  in
  let reg = Bft_obs.Obs.registry () in
  let r = Bft_check.Runner.run_schedule ~obs:reg params sched in
  (params, r, reg)

let sched_arg_of ~doc = Arg.(value & opt (some string) None & info [ "schedule" ] ~docv:"SCHED" ~doc)
let clients_trace_arg = Arg.(value & opt int 2 & info [ "clients" ] ~doc:"Closed-loop clients.")
let ops_trace_arg = Arg.(value & opt int 8 & info [ "ops" ] ~doc:"Operations per client.")

let horizon_trace_arg =
  Arg.(
    value & opt float 60_000.0
    & info [ "horizon-us" ] ~doc:"Fault-injection window in virtual microseconds.")

let trace_cmd =
  let last_arg =
    Arg.(value & opt int 40 & info [ "last" ] ~docv:"K" ~doc:"Events shown per node.")
  in
  let run verbose f seed clients ops horizon_us schedule last =
    setup_logs verbose;
    let params, r, reg = traced_run ~seed ~f ~clients ~ops ~horizon_us ~schedule in
    Printf.printf "seed %d: %d/%d ops, %d view change(s), max view %d, digest %s\n" seed
      r.Bft_check.Runner.completed_ops r.Bft_check.Runner.total_ops
      r.Bft_check.Runner.view_changes r.Bft_check.Runner.max_view
      (String.sub r.Bft_check.Runner.history_digest 0 12);
    List.iter
      (fun (id, o) ->
        Printf.printf "--- node %d (%s), %d events ---\n" id
          (if id < (3 * params.Bft_check.Runner.f) + 1 then "replica" else "client")
          (List.length (Bft_obs.Obs.events o));
        List.iter
          (fun e -> Printf.printf "  %s\n" (Bft_obs.Obs.entry_to_string e))
          (Bft_obs.Obs.events ~last o))
      (Bft_obs.Obs.nodes reg)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run a fuzz scenario with tracing enabled and print per-node event traces.")
    Term.(
      const run $ verbose $ f_arg $ seed_arg $ clients_trace_arg $ ops_trace_arg
      $ horizon_trace_arg
      $ sched_arg_of ~doc:"Explicit fault schedule to replay instead of the seed-derived one."
      $ last_arg)

let metrics_cmd =
  let json_arg = Arg.(value & flag & info [ "json" ] ~doc:"Emit the metrics as JSON.") in
  let run verbose f seed clients ops horizon_us schedule json =
    setup_logs verbose;
    let params, r, reg = traced_run ~seed ~f ~clients ~ops ~horizon_us ~schedule in
    let sim = r.Bft_check.Runner.sim in
    let hwm_str sep fmt =
      String.concat sep
        (List.map (fun (i, d) -> Printf.sprintf fmt i d) sim.Bft_check.Runner.sc_backlog_hwm)
    in
    (* process-wide: the run just traced is the process's only run *)
    let macs = Bft_crypto.Auth.mac_verifications () in
    let kernel = Bft_crypto.Sha256.kernel () in
    if json then
      (* wrap the per-node registry with the system-level counters *)
      Printf.printf
        "{ \"sha256_kernel\": %S,\n\
         \"sim\": { \"dropped\": %d, \"duplicated\": %d, \"events_fired\": %d, \
         \"max_heap\": %d, \"backlog_hwm\": { %s } },\n\
         \"mac_verifications\": %d,\n\
         \"nodes\": %s }\n"
        kernel sim.Bft_check.Runner.sc_dropped sim.Bft_check.Runner.sc_duplicated
        sim.Bft_check.Runner.sc_events_fired sim.Bft_check.Runner.sc_max_heap
        (hwm_str ", " "\"node%d\": %d")
        macs (Bft_obs.Obs.registry_to_json reg)
    else begin
      Printf.printf "seed %d: %d/%d ops, %d view change(s), max view %d\n" seed
        r.Bft_check.Runner.completed_ops r.Bft_check.Runner.total_ops
        r.Bft_check.Runner.view_changes r.Bft_check.Runner.max_view;
      Printf.printf
        "network: dropped=%d duplicated=%d; engine: events=%d max_heap=%d\n\
         cpu backlog high-water marks: %s\n"
        sim.Bft_check.Runner.sc_dropped sim.Bft_check.Runner.sc_duplicated
        sim.Bft_check.Runner.sc_events_fired sim.Bft_check.Runner.sc_max_heap
        (hwm_str " " "%d:%d");
      Printf.printf "mac_verifications=%d; sha256 kernel: %s\n" macs kernel;
      List.iter
        (fun (id, o) ->
          Printf.printf "node %d (%s):\n" id
            (if id < (3 * params.Bft_check.Runner.f) + 1 then "replica" else "client");
          List.iter print_endline (Bft_obs.Obs.summary_lines o))
        (Bft_obs.Obs.nodes reg)
    end
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Run a fuzz scenario with tracing enabled and print per-node latency histograms \
          and counters.")
    Term.(
      const run $ verbose $ f_arg $ seed_arg $ clients_trace_arg $ ops_trace_arg
      $ horizon_trace_arg
      $ sched_arg_of ~doc:"Explicit fault schedule to replay instead of the seed-derived one."
      $ json_arg)

(* --- model --- *)

let model_cmd =
  let run f auth =
    let cfg = Config.make ~auth_mode:auth ~f () in
    let costs = Bft_net.Costs.default in
    Printf.printf "%-12s %-6s %12s %14s %s\n" "op (arg/res)" "ro" "latency(us)" "tput(ops/s)" "bottleneck";
    List.iter
      (fun (a, r, ro, batch) ->
        let w = { Bft_perf.Perf_model.arg_size = a; result_size = r; read_only = ro; batch } in
        let p = Bft_perf.Perf_model.predict ~costs ~cfg w in
        Printf.printf "%5d/%-6d %-6b %12.1f %14.0f %s\n" a r ro
          p.Bft_perf.Perf_model.latency_us p.Bft_perf.Perf_model.throughput_ops
          p.Bft_perf.Perf_model.bottleneck)
      [ (0, 0, false, 16); (0, 4096, false, 16); (4096, 0, false, 16); (0, 0, true, 1) ]
  in
  Cmd.v (Cmd.info "model" ~doc:"Print analytic performance-model predictions (Chapter 7).")
    Term.(const run $ f_arg $ auth_arg)

let () =
  let info = Cmd.info "bftctl" ~version:"1.0" ~doc:"Practical Byzantine Fault Tolerance simulator." in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_cmd;
            latency_cmd;
            andrew_cmd;
            viewchange_cmd;
            recover_cmd;
            model_cmd;
            fuzz_cmd;
            explore_cmd;
            trace_cmd;
            metrics_cmd;
          ]))
