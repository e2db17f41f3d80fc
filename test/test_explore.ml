(* Bounded exhaustive explorer: pinned exhaustive configuration, search-order
   and POR invariance of the distinct-state fingerprint counts, liveness
   oracles against handcrafted livelocks and the injected no-VC-timer bug,
   and codec round-trips for explorer-emitted schedules. *)

open Bft_check
open Bft_explore.Explore

let sched_of s =
  match Schedule.of_string s with
  | Ok sc -> sc
  | Error e -> Alcotest.failf "bad schedule %S: %s" s e

(* The pinned exhaustive configuration: n=4, one client, one op, view bound
   2, backup 3 network-crashed, 15ms tick horizon. Small enough to exhaust
   in ~2s, large enough to interleave the full pre-prepare/prepare/commit/
   reply exchange across three live replicas. *)
let pinned ?(strategy = Dfs) ?(por = true) () =
  {
    (default_config ~seed:42) with
    tick_horizon_us = 15_000.0;
    max_states = 20_000;
    max_wall_s = 240.0;
    strategy;
    por;
    prefix = sched_of "0@crash:3";
  }

(* --- pinned exhaustive run: full coverage, no violations --- *)

let test_pinned_exhaustive () =
  let o = run (pinned ()) in
  Alcotest.(check bool) "exhausted" true o.o_exhausted;
  Alcotest.(check int) "no violations" 0 (List.length o.o_violations);
  (* distinct canonical states and distinct maximal states of the pinned
     configuration: a change here means the protocol's reachable state
     space changed (or the fingerprint leaked path-dependent noise) *)
  Alcotest.(check int) "distinct states" 694 o.o_stats.states_visited;
  Alcotest.(check int) "terminal states" 64 o.o_stats.terminals;
  Alcotest.(check int) "states built" 1911 o.o_stats.states_built;
  Alcotest.(check int) "no horizon cuts" 0 o.o_stats.cuts;
  Alcotest.(check int) "no unschedulable slots" 0 o.o_stats.slot_skipped;
  Alcotest.(check bool) "POR pruned something" true (o.o_stats.por_pruned > 0)

(* --- determinism: identical runs, identical statistics --- *)

let test_deterministic () =
  let a = run (pinned ()) and b = run (pinned ()) in
  Alcotest.(check (list int)) "same statistics"
    [
      a.o_stats.states_built;
      a.o_stats.states_visited;
      a.o_stats.states_expanded;
      a.o_stats.transitions;
      a.o_stats.por_pruned;
      a.o_stats.hash_pruned;
      a.o_stats.terminals;
      a.o_stats.max_depth_seen;
    ]
    [
      b.o_stats.states_built;
      b.o_stats.states_visited;
      b.o_stats.states_expanded;
      b.o_stats.transitions;
      b.o_stats.por_pruned;
      b.o_stats.hash_pruned;
      b.o_stats.terminals;
      b.o_stats.max_depth_seen;
    ]

(* --- search-order / POR invariance of the canonical fingerprint ---

   The distinct-state and distinct-terminal counts are properties of the
   protocol, not of the search: BFS vs DFS and POR on vs off must agree
   exactly. This is the regression net for fingerprint leaks — any state
   component that depends on the path taken (absolute times, residual CPU
   busyness, RNG draws) shows up as a count that wobbles across orders.
   It also checks the sleep-set machinery loses no states and actually
   prunes work. *)

let test_order_and_por_invariance () =
  let dfs = run (pinned ()) in
  let bfs = run (pinned ~strategy:Bfs ()) in
  let nopor = run (pinned ~por:false ()) in
  List.iter
    (fun (name, o) ->
      Alcotest.(check bool) (name ^ " exhausted") true o.o_exhausted;
      Alcotest.(check int) (name ^ " distinct states") dfs.o_stats.states_visited
        o.o_stats.states_visited;
      Alcotest.(check int) (name ^ " terminals") dfs.o_stats.terminals o.o_stats.terminals)
    [ ("bfs", bfs); ("no-por", nopor) ];
  Alcotest.(check bool)
    (Printf.sprintf "POR builds fewer states (%d < %d)" dfs.o_stats.states_built
       nopor.o_stats.states_built)
    true
    (dfs.o_stats.states_built < nopor.o_stats.states_built)

(* --- injected bug: exploration finds a liveness counterexample --- *)

let test_injected_bug_found_and_replays () =
  let c =
    {
      (default_config ~seed:42) with
      tick_horizon_us = 15_000.0;
      max_states = 5_000;
      max_wall_s = 120.0;
      strategy = Dfs;
      suppress_vc_timer = true;
      prefix = sched_of "0@mute:0";
    }
  in
  let o = run c in
  match List.find_opt (fun v -> v.v_kind = `Liveness) o.o_violations with
  | None -> Alcotest.fail "no liveness violation found with the VC timer suppressed"
  | Some v ->
      Alcotest.(check bool) "names liveness-progress" true
        (List.exists
           (fun f -> String.starts_with ~prefix:"liveness-progress" f)
           v.v_failures);
      (* the counterexample must survive the schedule codec and reproduce
         the identical failure through the ordinary replay entry point *)
      let encoded = Schedule.to_string v.v_schedule in
      (match Schedule.of_string encoded with
      | Error e -> Alcotest.failf "counterexample does not round-trip: %s" e
      | Ok sched ->
          Alcotest.(check string) "codec round-trip" encoded (Schedule.to_string sched);
          let r = Runner.run_schedule v.v_params sched in
          Alcotest.(check (list string)) "replay reproduces" v.v_failures r.Runner.failures);
      (* the same schedule on the unbroken build recovers via view change *)
      let fixed = { v.v_params with Runner.suppress_vc_timer = false } in
      let r = Runner.run_schedule fixed v.v_schedule in
      Alcotest.(check (list string)) "clean build passes" [] r.Runner.failures;
      Alcotest.(check int) "clean build commits" r.Runner.total_ops r.Runner.completed_ops

(* --- view change under exploration: a budgeted run ---

   The pinned configuration never leaves view 0, so it never fingerprints
   view-change state. Muting the primary with a 5ms view-change timeout
   drives explored paths through views 1 and 2 (it does not exhaust); the
   distinct and hash-pruned counts pin how the view-change fingerprint
   deduplicates those states. *)

let test_view_change_budgeted () =
  let o =
    run
      {
        (default_config ~seed:42) with
        vc_timeout_us = 5_000.0;
        tick_horizon_us = 40_000.0;
        max_states = 5_000;
        max_wall_s = 240.0;
        strategy = Dfs;
        prefix = sched_of "0@mute:0";
      }
  in
  Alcotest.(check int) "no violations" 0 (List.length o.o_violations);
  Alcotest.(check bool) "budget-bound, not exhausted" false o.o_exhausted;
  Alcotest.(check int) "states built" 5_000 o.o_stats.states_built;
  Alcotest.(check int) "distinct states" 2_882 o.o_stats.states_visited;
  Alcotest.(check int) "hash pruned" 2_091 o.o_stats.hash_pruned;
  Alcotest.(check int) "max depth" 22 o.o_stats.max_depth_seen

(* --- fingerprint coverage: fields that steer later messages ---

   On an idle cluster with recovery on, the first key refresh moves only
   the replica's co-processor counter, which every later New_key carries:
   the fingerprint must tell the two states apart. *)

let test_key_refresh_moves_fingerprint () =
  let open Bft_core in
  let cfg =
    Config.make ~recovery:true ~key_refresh_us:10_000.0 ~watchdog_period_us:1e9 ~f:1 ()
  in
  let c = Cluster.create cfg in
  let fingerprint_at us =
    Cluster.run ~timeout_us:us c;
    Replica.state_digest (Cluster.replica c 0)
  in
  let idle = fingerprint_at 5_000.0 in
  Alcotest.(check string) "idle cluster: fingerprint still" idle (fingerprint_at 9_000.0);
  Alcotest.(check bool) "key refresh moves the fingerprint" false
    (String.equal idle (fingerprint_at 15_000.0))

(* --- handcrafted livelocks straight through the runner --- *)

let liveness_params ~seed =
  {
    (Runner.default_params ~seed ~f:1) with
    Runner.horizon_us = 15_000.0;
    drain_us = 2_000_000.0;
    check_liveness = true;
    view_bound = Some 2;
    quiesce = false;
  }

let test_livelock_progress () =
  (* fail-silent primary plus the injected bug: nobody ever starts a view
     change, so the op never commits — liveness-progress must flag it *)
  let p = { (liveness_params ~seed:7) with Runner.suppress_vc_timer = true } in
  let r = Runner.run_schedule p (sched_of "0@mute:0") in
  Alcotest.(check bool) "liveness-progress fails" true
    (List.exists
       (fun f -> String.starts_with ~prefix:"liveness-progress" f)
       r.Runner.failures);
  Alcotest.(check int) "nothing committed" 0 r.Runner.completed_ops

let test_livelock_view_bound () =
  (* fail-silent primary of view 0 and an unreachable primary of view 1:
     only two replicas can vote, no view ever forms a quorum, and the view
     number climbs without progress — the view-bound oracle must flag it *)
  let r = Runner.run_schedule (liveness_params ~seed:7) (sched_of "0@mute:0;0@crash:1") in
  Alcotest.(check bool) "liveness-view-bound fails" true
    (List.exists
       (fun f -> String.starts_with ~prefix:"liveness-view-bound" f)
       r.Runner.failures);
  Alcotest.(check bool)
    (Printf.sprintf "view climbed past the bound (%d)" r.Runner.max_view)
    true (r.Runner.max_view > 2)

let test_livelock_clean_counterpart () =
  (* the same muted primary without the injected bug: the view change
     rescues the workload, so neither liveness oracle may fire *)
  let r = Runner.run_schedule (liveness_params ~seed:7) (sched_of "0@mute:0") in
  Alcotest.(check (list string)) "no failures" [] r.Runner.failures;
  Alcotest.(check int) "workload committed" r.Runner.total_ops r.Runner.completed_ops;
  Alcotest.(check bool) "via a view change" true (r.Runner.view_changes > 0)

(* --- qcheck: gate-action schedules survive the codec --- *)

let gen_gate_schedule =
  let open QCheck.Gen in
  let cls =
    oneofl
      [
        Schedule.Pre_prepares;
        Schedule.Prepares;
        Schedule.Commits;
        Schedule.Checkpoints;
        Schedule.View_changes;
        Schedule.New_views;
        Schedule.Replies;
        Schedule.Requests;
        Schedule.Any;
      ]
  in
  let endpoint = oneof [ return None; map (fun i -> Some i) (int_bound 6) ] in
  let action =
    frequency
      [
        (1, return Schedule.Hold_all);
        (1, return Schedule.Release_all);
        (4, map (fun ((c, s), (d, n)) -> Schedule.Release (c, s, d, n))
             (pair (pair cls endpoint) (pair endpoint (int_bound 12))));
      ]
  in
  (* times in the explorer's slot domain: fractional microseconds with
     nanosecond precision, exactly what release slots look like *)
  let time = map (fun ns -> float_of_int ns /. 1000.0) (int_bound 1_000_000_000) in
  list_size (int_bound 12) (pair time action)
  |> map (fun evs ->
         List.map (fun (at_us, action) -> { Schedule.at_us; action })
           (List.sort (fun (a, _) (b, _) -> compare a b) evs))

let arb_gate_schedule = QCheck.make ~print:Schedule.to_string gen_gate_schedule

let qcheck_gate_roundtrip =
  QCheck.Test.make ~name:"gate schedules round-trip through the codec" ~count:500
    arb_gate_schedule (fun s ->
      match Schedule.of_string (Schedule.to_string s) with
      | Error e -> QCheck.Test.fail_reportf "of_string: %s" e
      | Ok s' ->
          (* structural equality, not just string equality: the codec must
             preserve classes, endpoints, indices, and exact times *)
          s = s')

let suites =
  [
    ( "explore",
      [
        Alcotest.test_case "pinned config exhausts" `Slow test_pinned_exhaustive;
        Alcotest.test_case "statistics deterministic" `Slow test_deterministic;
        Alcotest.test_case "order/POR invariance" `Slow test_order_and_por_invariance;
        Alcotest.test_case "injected bug yields replayable counterexample" `Quick
          test_injected_bug_found_and_replays;
        Alcotest.test_case "view change: budgeted run" `Slow test_view_change_budgeted;
        Alcotest.test_case "key refresh moves the fingerprint" `Quick
          test_key_refresh_moves_fingerprint;
      ] );
    ( "explore.liveness",
      [
        Alcotest.test_case "livelock: progress oracle" `Quick test_livelock_progress;
        Alcotest.test_case "livelock: view-bound oracle" `Quick test_livelock_view_bound;
        Alcotest.test_case "clean counterpart passes" `Quick test_livelock_clean_counterpart;
      ] );
    ( "explore.codec",
      [ QCheck_alcotest.to_alcotest ~long:false qcheck_gate_roundtrip ] );
  ]
