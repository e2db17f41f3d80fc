(* Adversary-profile regressions: each attack profile paired with the
   replica-side defense that ships with it (client_flood -> per-client
   admission quota, mac_storm -> per-peer retransmission budget,
   slow_primary -> primary performance watchdog), plus the client
   adaptive-timeout regression and the schedule encoding of the new
   attack actions. Attack runs are plain [Runner] executions, so every
   safety oracle stays armed throughout. *)

open Bft_check
module Replica = Bft_core.Replica
module Cluster = Bft_core.Cluster
module Client = Bft_core.Client

let sched_of s =
  match Schedule.of_string s with
  | Ok x -> x
  | Error e -> Alcotest.failf "bad schedule %S: %s" s e

(* Run an explicit schedule with the given defenses and return the live
   harness (for counter inspection) along with the oracle report. *)
let run_attack ?client_quota ?retransmit_budget ?(perf_watchdog = false) ?(ops = 25)
    ?(seed = 3) s =
  let params =
    {
      (Runner.default_params ~seed ~f:1) with
      Runner.ops_per_client = ops;
      client_quota;
      retransmit_budget;
      perf_watchdog;
    }
  in
  let lv = Runner.prepare params (sched_of s) in
  ignore
    (Cluster.run_until
       ~timeout_us:(params.Runner.horizon_us +. params.Runner.drain_us)
       lv.Runner.lv_cluster
       (fun () -> !(lv.Runner.lv_n_completed) >= lv.Runner.lv_total_ops));
  let r = Runner.finish lv in
  if r.Runner.failures <> [] then
    Alcotest.failf "attack run violated: %s" (String.concat "; " r.Runner.failures);
  (lv, r)

let sum_counter lv f =
  Array.fold_left
    (fun acc rep -> acc + f (Replica.counters rep))
    0
    (Cluster.replicas lv.Runner.lv_cluster)

(* --- client_flood vs the admission quota --- *)

let test_flood_dropped_and_counted () =
  let lv, r =
    run_attack ~client_quota:8 ~retransmit_budget:8 "0@flood:0:40;0@flood:1:40"
  in
  (* the flooding clients must be shed... *)
  let dropped = sum_counter lv (fun c -> c.Replica.n_admission_dropped) in
  Alcotest.(check bool)
    (Printf.sprintf "admission dropped (%d) > 0" dropped)
    true (dropped > 0);
  (* ...while the closed-loop clients complete their whole workload *)
  Alcotest.(check int) "workload completed" r.Runner.total_ops r.Runner.completed_ops

let test_clean_run_admits_everything () =
  (* closed-loop clients never approach the quota: nothing is dropped even
     at an aggressive setting *)
  let lv, r = run_attack ~client_quota:8 "" in
  Alcotest.(check int) "no admission drops" 0
    (sum_counter lv (fun c -> c.Replica.n_admission_dropped));
  Alcotest.(check int) "workload completed" r.Runner.total_ops r.Runner.completed_ops

(* At quota 1 a client's one request in flight fills its slice: a
   retransmission of it still passes, a second distinct request is
   dropped. A backup is driven by hand through the delivery gate; the
   request it admits waits there for the primary's pre-prepare. *)
let test_quota_one () =
  let module Config = Bft_core.Config in
  let module Network = Bft_net.Network in
  let module Message = Bft_core.Message in
  let cfg = Config.make ~f:1 ~client_quota:1 () in
  let c = Cluster.create ~num_clients:1 cfg in
  let net = Cluster.network c and backup = Cluster.replica c 1 in
  Network.set_gate net true;
  let client = cfg.Config.n and rng = Bft_util.Rng.create 5L in
  let kc = Bft_crypto.Keychain.create ~my_id:client in
  List.iter
    (fun i ->
      let chain = Replica.keychain (Cluster.replica c i) in
      assert (
        Bft_crypto.Keychain.install_out_key kc ~peer:i
          (Bft_crypto.Keychain.fresh_in_key chain rng ~peer:client)))
    (Config.replica_ids cfg);
  let deliver ts =
    let r = Message.request ~op:"op" ~timestamp:ts ~client ~read_only:false ~replier:1 in
    let auth =
      Bft_crypto.Auth.compute_authenticator kc ~receivers:(Config.replica_ids cfg)
        (Bft_core.Wire.request_digest r)
    in
    let env = Message.envelope ~sender:client ~auth:(Message.Auth_vector auth) (Message.Request r) in
    Network.send net ~src:client ~dst:1 ~size:(Bft_core.Wire.envelope_size env) env;
    assert (Network.release_held net ~nth:0 ~pred:(fun ~src:_ ~dst:_ m -> m == env));
    Cluster.run ~timeout_us:(Bft_sim.Engine.to_us (Bft_sim.Engine.now (Cluster.engine c)) +. 100.0) c;
    (Replica.counters backup).Replica.n_admission_dropped
  in
  Alcotest.(check int) "first request admitted" 0 (deliver 1L);
  Alcotest.(check int) "its retransmission passes" 0 (deliver 1L);
  Alcotest.(check int) "a second distinct request is dropped" 1 (deliver 2L)

(* --- mac_storm vs the retransmission budget --- *)

let test_wrong_mac_exhausts_budget () =
  let lv, r = run_attack ~retransmit_budget:2 "0@wmac:1" in
  let suppressed = sum_counter lv (fun c -> c.Replica.n_retransmit_suppressed) in
  Alcotest.(check bool)
    (Printf.sprintf "retransmissions suppressed (%d) > 0" suppressed)
    true (suppressed > 0);
  Alcotest.(check int) "workload completed" r.Runner.total_ops r.Runner.completed_ops

(* --- slow_primary vs the performance watchdog --- *)

let test_slow_primary_view_changed_away () =
  (* primary CPU inflated 40x from 20ms on: the silence-based timer never
     fires (the primary still answers), the performance watchdog must *)
  let lv, r =
    run_attack ~perf_watchdog:true ~ops:50 "20000@cpu:0:40"
  in
  let fired = sum_counter lv (fun c -> c.Replica.n_slowness_vc) in
  Alcotest.(check bool)
    (Printf.sprintf "slowness view changes (%d) >= 1" fired)
    true (fired >= 1);
  Alcotest.(check bool)
    (Printf.sprintf "view advanced (max %d)" r.Runner.max_view)
    true (r.Runner.max_view >= 1);
  Alcotest.(check int) "workload completed" r.Runner.total_ops r.Runner.completed_ops

let test_fast_primary_watchdog_silent () =
  let lv, r = run_attack ~perf_watchdog:true ~ops:50 "" in
  Alcotest.(check int) "no slowness view changes" 0
    (sum_counter lv (fun c -> c.Replica.n_slowness_vc));
  Alcotest.(check int) "workload completed" r.Runner.total_ops r.Runner.completed_ops

(* --- bounded degradation under each profile --- *)

let test_profiles_bounded_degradation () =
  (* Every profile runs against the defenses that ship with the profiles,
     with no random fault schedule on top, so each ratio isolates that
     attack's residual cost. Committed ops per virtual second is a pure
     function of (params, schedule), so the floors are absolute.
     client_flood's floor is the lowest: a flooding client still costs each
     replica the digest and MAC check of every dropped request, plus one
     bounded view rotation over divergently admitted requests. *)
  let ops_per_vsec events =
    let lv, r =
      run_attack ~client_quota:8 ~retransmit_budget:8 ~perf_watchdog:true
        (Schedule.to_string events)
    in
    Alcotest.(check int) "workload completed" r.Runner.total_ops r.Runner.completed_ops;
    let now = Bft_sim.Engine.now (Cluster.engine lv.Runner.lv_cluster) in
    float_of_int r.Runner.completed_ops /. (Bft_sim.Engine.to_us now /. 1.0e6)
  in
  let clean = ops_per_vsec [] in
  let floors = [ ("slow_primary", 0.35); ("client_flood", 0.10); ("mac_storm", 0.25) ] in
  List.iter
    (fun p ->
      let name = p.Schedule.pr_name in
      match List.assoc_opt name floors with
      | None -> Alcotest.failf "profile %s has no degradation floor" name
      | Some floor ->
          let ratio =
            ops_per_vsec (p.Schedule.pr_events ~f:1 ~n:4 ~horizon_us:60_000.0) /. clean
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s: %.3fx clean >= %.2fx" name ratio floor)
            true (ratio >= floor))
    Schedule.profiles

(* --- client adaptive timeout across a view change --- *)

let test_client_timeout_stable_across_view_change () =
  (* Mute the primary mid-run: clients must ride the view change without
     timeout thrash — the SRTT clamp keeps one outlier latency (the
     view-change gap) from collapsing or exploding the smoothed estimate,
     and the retry exponent resets when the new view's replies arrive. *)
  let lv, r = run_attack ~ops:20 "10000@mute:0" in
  Alcotest.(check int) "workload completed" r.Runner.total_ops r.Runner.completed_ops;
  Alcotest.(check bool) "view changed" true (r.Runner.max_view >= 1);
  let cluster = lv.Runner.lv_cluster in
  for k = 0 to 1 do
    let c = Cluster.client cluster k in
    Alcotest.(check (option int))
      (Printf.sprintf "client %d idle at end" k)
      None (Client.pending_retries c);
    let srtt = Client.srtt_us c in
    Alcotest.(check bool)
      (Printf.sprintf "client %d srtt %.1fus sane" k srtt)
      true
      (srtt > 0.0 && srtt < 30_000.0);
    (* thrash bound: without the clamp/reset a single view-change gap sent
       the backoff to its cap and every later op into repeated timeouts *)
    let rtx = Client.retransmissions c in
    Alcotest.(check bool)
      (Printf.sprintf "client %d retransmissions %d bounded" k rtx)
      true
      (rtx <= 3 * Client.completed c)
  done

(* --- encoding of the attack actions and profiles --- *)

let test_attack_actions_roundtrip () =
  let s = "0@flood:0:40;0@wmac:1;5000@cpu:0:20;30000@floodstop:0;40000@wmacoff:1" in
  let t = sched_of s in
  Alcotest.(check string) "round-trips" (Schedule.to_string t)
    (Schedule.to_string (sched_of (Schedule.to_string t)))

let test_profiles_expand_and_roundtrip () =
  List.iter
    (fun p ->
      let events = p.Schedule.pr_events ~f:1 ~n:4 ~horizon_us:60_000.0 in
      Alcotest.(check bool)
        (Printf.sprintf "profile %s nonempty" p.Schedule.pr_name)
        true (events <> []);
      let s = Schedule.to_string events in
      match Schedule.of_string s with
      | Error e -> Alcotest.failf "profile %s: %s does not parse: %s" p.Schedule.pr_name s e
      | Ok back ->
          Alcotest.(check string)
            (Printf.sprintf "profile %s round-trips" p.Schedule.pr_name)
            s (Schedule.to_string back))
    Schedule.profiles;
  (* mac_storm's wrong-MAC replicas are fault victims for the oracles *)
  (match Schedule.find_profile "mac_storm" with
  | None -> Alcotest.fail "mac_storm profile missing"
  | Some p ->
      let victims = Schedule.victims (p.Schedule.pr_events ~f:1 ~n:4 ~horizon_us:60_000.0) in
      Alcotest.(check (list int)) "mac_storm victims" [ 1 ] victims);
  Alcotest.(check bool) "unknown profile rejected" true
    (Option.is_none (Schedule.find_profile "bogus"))

let test_malformed_attack_actions_rejected () =
  List.iter
    (fun s ->
      match Schedule.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed schedule %S" s)
    [
      "10@cpu"; "10@cpu:0"; "10@cpu:x:2"; "10@cpu:0:x"; "10@flood:0"; "10@flood:x:40";
      "10@flood:0:x"; "10@floodstop"; "10@floodstop:x"; "10@wmac"; "10@wmac:x";
      "10@wmacoff"; "10@wmacoff:x";
    ]

(* --- profiles off => byte-identical schedules and histories --- *)

let test_no_profile_means_no_change () =
  (* an unset profile merges nothing into the generated schedule... *)
  let base = Runner.default_params ~seed:7 ~f:1 in
  Alcotest.(check string) "schedule unchanged"
    (Schedule.to_string (Runner.generate { base with Runner.profile = None }))
    (Schedule.to_string (Runner.generate base));
  (* ...and on a fault-free run the defenses are pure bookkeeping: enabling
     every one of them leaves the committed history byte-identical *)
  let digest ~client_quota ~retransmit_budget ~perf_watchdog =
    let _, r =
      run_attack ?client_quota ?retransmit_budget ~perf_watchdog ~seed:11 ""
    in
    r.Runner.history_digest
  in
  Alcotest.(check string) "defenses inert on clean runs"
    (digest ~client_quota:None ~retransmit_budget:None ~perf_watchdog:false)
    (digest ~client_quota:(Some 8) ~retransmit_budget:(Some 4) ~perf_watchdog:true)

let suites =
  [
    ( "attack",
      [
        Alcotest.test_case "flood dropped and counted" `Quick test_flood_dropped_and_counted;
        Alcotest.test_case "clean run admits everything" `Quick test_clean_run_admits_everything;
        Alcotest.test_case "quota 1: retransmission passes, second request dropped" `Quick
          test_quota_one;
        Alcotest.test_case "wrong-MAC peer exhausts budget" `Quick test_wrong_mac_exhausts_budget;
        Alcotest.test_case "slow primary view-changed away" `Quick
          test_slow_primary_view_changed_away;
        Alcotest.test_case "fast primary: watchdog silent" `Quick
          test_fast_primary_watchdog_silent;
        Alcotest.test_case "profiles: bounded degradation" `Quick
          test_profiles_bounded_degradation;
        Alcotest.test_case "client timeout stable across vc" `Quick
          test_client_timeout_stable_across_view_change;
        Alcotest.test_case "attack actions round-trip" `Quick test_attack_actions_roundtrip;
        Alcotest.test_case "profiles expand and round-trip" `Quick
          test_profiles_expand_and_roundtrip;
        Alcotest.test_case "malformed attack actions rejected" `Quick
          test_malformed_attack_actions_rejected;
        Alcotest.test_case "profiles off: byte-identical" `Quick test_no_profile_means_no_change;
      ] );
  ]
