(* Fault-schedule fuzzer: bounded smoke fuzz, a pinned regression seed that
   exercises a view change, and a self-test of the shrinker via the planted
   expect-no-view-change pseudo-oracle. *)

open Bft_check

let params ?(seed = 1) () = Runner.default_params ~seed ~f:1

(* --- schedule determinism and encoding --- *)

let test_generation_deterministic () =
  for seed = 1 to 20 do
    let s1 = Runner.generate (params ~seed ())
    and s2 = Runner.generate (params ~seed ()) in
    Alcotest.(check string)
      (Printf.sprintf "seed %d generates the same schedule twice" seed)
      (Schedule.to_string s1) (Schedule.to_string s2)
  done

let test_schedule_string_roundtrip () =
  for seed = 1 to 50 do
    let s = Runner.generate (params ~seed ()) in
    match Schedule.of_string (Schedule.to_string s) with
    | Error e -> Alcotest.failf "seed %d: of_string failed: %s" seed e
    | Ok s' ->
        Alcotest.(check string)
          (Printf.sprintf "seed %d round-trips" seed)
          (Schedule.to_string s) (Schedule.to_string s')
  done

let test_victim_budget () =
  (* replica faults are confined to at most f victims (Section 2.1) *)
  for seed = 1 to 100 do
    let p = params ~seed () in
    let victims = Schedule.victims (Runner.generate p) in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: %d victims <= f" seed (List.length victims))
      true
      (List.length victims <= p.Runner.f)
  done

let test_bad_schedule_strings_rejected () =
  List.iter
    (fun s ->
      match Schedule.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed schedule %S" s)
    [
      "nonsense"; "10@"; "@crash:0"; "10@crash:x"; "10@loss"; "10@drop:zz:*:*"; "x@heal";
      (* gate actions (hold / release / release-all) *)
      "10@rel"; "10@rel:pp"; "10@rel:pp:0:1"; "10@rel:zz:0:1:0"; "10@rel:pp:x:1:0";
      "10@rel:pp:0:1:x"; "10@hold:1"; "10@relall:0";
    ]

(* --- smoke fuzz --- *)

let test_smoke_fuzz () =
  let outcome = Runner.fuzz (params ()) ~seeds:50 in
  List.iter
    (fun (seed, r) ->
      Alcotest.failf "seed %d violated %s\nschedule: %s" seed
        (String.concat "; " r.Runner.failures)
        (Schedule.to_string r.Runner.schedule))
    outcome.Runner.failing;
  Alcotest.(check int) "all seeds ran" 50 outcome.Runner.seeds_run;
  (* the tuned generator must actually stress the protocol: across 50 seeds
     some schedules must displace the primary *)
  Alcotest.(check bool)
    (Printf.sprintf "view changes explored (%d)" outcome.Runner.total_view_changes)
    true
    (outcome.Runner.total_view_changes > 0)

(* --- liveness oracles in fuzz mode (behind the check_liveness flag) --- *)

let test_liveness_flag_clean_seeds () =
  (* An adversarial schedule is free to starve progress, so the liveness
     oracles are opt-in for fuzzing. They must stay silent exactly on the
     runs that do commit their whole workload: re-running a completing seed
     with [check_liveness] on may not introduce failures. *)
  let qualified = ref 0 in
  for seed = 1 to 15 do
    let base = Runner.run_seed (params ~seed ()) in
    if base.Runner.completed_ops = base.Runner.total_ops then begin
      incr qualified;
      let p =
        { (params ~seed ()) with Runner.check_liveness = true; view_bound = Some 64 }
      in
      let r = Runner.run_seed p in
      Alcotest.(check (list string))
        (Printf.sprintf "seed %d clean under liveness oracles" seed)
        [] r.Runner.failures
    end
  done;
  Alcotest.(check bool)
    (Printf.sprintf "some seeds completed their workload (%d)" !qualified)
    true (!qualified > 0)

(* --- pinned regression: a seed whose schedule forces a view change --- *)

let regression_seed = 46

let test_view_change_seed_regression () =
  let r = Runner.run_seed (params ~seed:regression_seed ()) in
  Alcotest.(check (list string)) "no oracle failures" [] r.Runner.failures;
  Alcotest.(check bool)
    (Printf.sprintf "view changes occurred (%d)" r.Runner.view_changes)
    true (r.Runner.view_changes > 0);
  Alcotest.(check int) "every request committed" r.Runner.total_ops r.Runner.completed_ops

let test_regression_seed_replays_from_string () =
  (* the replay path (--schedule) must reproduce the seeded run exactly *)
  let p = params ~seed:regression_seed () in
  let sched = Runner.generate p in
  let encoded = Schedule.to_string sched in
  match Schedule.of_string encoded with
  | Error e -> Alcotest.failf "of_string: %s" e
  | Ok sched' ->
      let a = Runner.run_schedule p sched and b = Runner.run_schedule p sched' in
      Alcotest.(check int) "same completions" a.Runner.completed_ops b.Runner.completed_ops;
      Alcotest.(check int) "same view changes" a.Runner.view_changes b.Runner.view_changes;
      Alcotest.(check (list string)) "same failures" a.Runner.failures b.Runner.failures

(* The same seed twice in one process, each run from the clean slate
   bench/perf's trials start from (memo tables emptied, heap compacted):
   nothing process-global or GC-dependent may reach the run. Seed 46's run
   includes a view change, where the most state is built and dropped. *)
let test_same_seed_twice () =
  let run () =
    Bft_core.Wire.clear_memos ();
    Gc.compact ();
    let p = params ~seed:regression_seed () in
    let lv = Runner.prepare p (Runner.generate p) in
    let cluster = lv.Runner.lv_cluster in
    ignore
      (Bft_core.Cluster.run_until
         ~timeout_us:(p.Runner.horizon_us +. p.Runner.drain_us)
         cluster
         (fun () -> !(lv.Runner.lv_n_completed) >= lv.Runner.lv_total_ops));
    let r = Runner.finish lv in
    (r, Array.map Bft_core.Replica.state_digest (Bft_core.Cluster.replicas cluster))
  in
  let a, states_a = run () in
  let b, states_b = run () in
  Alcotest.(check bool)
    (Printf.sprintf "the run includes a view change (%d)" a.Runner.view_changes)
    true (a.Runner.view_changes > 0);
  Alcotest.(check string) "same history digest" a.Runner.history_digest b.Runner.history_digest;
  Alcotest.(check (array string)) "same state digest at every replica" states_a states_b

(* --- the execution tap across a view-change rollback ---

   Seed 3569's replica 1 (a correct replica: the schedule's only replica
   fault is on 2) tentatively executes client 4's "put c0.7 v7" at
   sequence 11, rolls it back in a view change, and executes sequence 11
   again with client 5's "put c1.3 v3". The tap keeps the last wave per
   sequence number, so only the re-executed one is committed history. *)

let test_tap_keeps_surviving_wave () =
  let p = params ~seed:3569 () in
  let obs = Bft_obs.Obs.registry ~capacity:100_000 () in
  let lv = Runner.prepare ~obs p (Runner.generate p) in
  let cluster = lv.Runner.lv_cluster in
  ignore
    (Bft_core.Cluster.run_until
       ~timeout_us:(p.Runner.horizon_us +. p.Runner.drain_us)
       cluster
       (fun () -> !(lv.Runner.lv_n_completed) >= lv.Runner.lv_total_ops));
  let r = Runner.finish lv in
  Alcotest.(check (list string)) "no oracle failures" [] r.Runner.failures;
  Alcotest.(check bool) "replica 1 counted correct" true
    (List.mem 1 !(Bft_core.Cluster.correct_replicas cluster));
  (* the trace keeps every reply (phase marks only the first execution):
     one to each wave's client proves both waves ran at sequence 11 *)
  let answered_at_11 =
    List.filter_map
      (fun (e : Bft_obs.Obs.entry) ->
        match e.ev with
        | Bft_obs.Obs.Reply_sent { client; seq = 11; _ } -> Some client
        | _ -> None)
      (Bft_obs.Obs.events (Bft_obs.Obs.for_node obs 1))
  in
  Alcotest.(check (list int)) "replica 1 executed both waves at sequence 11" [ 4; 5 ]
    (List.sort_uniq Int.compare answered_at_11);
  let at seq =
    List.filter_map
      (fun (s, client, op, _) -> if s = seq then Some (client, op) else None)
      (Bft_core.Cluster.committed_records cluster 1)
  in
  Alcotest.(check (list (pair int string))) "only the re-executed wave" [ (5, "put c1.3 v3") ]
    (at 11);
  (* the rolled-back wave may have been shared with another replica's
     equal one; the wave that replaced it is replica 1's own or equal *)
  List.iter
    (fun i ->
      if Bft_core.Replica.committed_upto (Bft_core.Cluster.replica cluster i) >= 11 then
        Alcotest.(check (list (pair int string)))
          (Printf.sprintf "replica %d at 11" i)
          [ (5, "put c1.3 v3") ]
          (List.filter_map
             (fun (s, client, op, _) -> if s = 11 then Some (client, op) else None)
             (Bft_core.Cluster.committed_records cluster i)))
    !(Bft_core.Cluster.correct_replicas cluster);
  Alcotest.(check bool) "the rolled-back request commits elsewhere" true
    (List.exists
       (fun (_, client, op, _) -> client = 4 && String.equal op "put c0.7 v7")
       (Bft_core.Cluster.committed_records cluster 1));
  Alcotest.(check bool) "histories consistent" true
    (Bft_core.Cluster.committed_histories_consistent cluster)

(* --- shrinker self-test --- *)

let test_shrinker_minimizes () =
  (* plant a failure: seed 46's schedule crashes the primary, so the
     expect-no-view-change pseudo-oracle must fail — and the shrinker must
     strip the schedule down to the events that force the view change *)
  let p = { (params ~seed:regression_seed ()) with Runner.expect_no_view_change = true } in
  let original = Runner.generate p in
  let r = Runner.run_schedule p original in
  Alcotest.(check bool) "planted oracle fails" true (Runner.failed r);
  let shrunk, shrunk_run = Runner.shrink p original in
  Alcotest.(check bool) "shrunk schedule still fails" true (Runner.failed shrunk_run);
  Alcotest.(check bool)
    (Printf.sprintf "shrunk %d -> %d events" (List.length original) (List.length shrunk))
    true
    (List.length shrunk <= List.length original && List.length shrunk >= 1);
  (* the minimal counterexample must be replayable: encode, decode, re-run *)
  (match Schedule.of_string (Schedule.to_string shrunk) with
  | Error e -> Alcotest.failf "shrunk schedule does not round-trip: %s" e
  | Ok s ->
      Alcotest.(check bool) "decoded shrunk schedule still fails" true
        (Runner.failed (Runner.run_schedule p s)));
  let line = Runner.replay_line p shrunk in
  Alcotest.(check bool) "replay line names the seed" true
    (Bft_util.Strutil.contains_sub line (Printf.sprintf "--seed %d" regression_seed))

let suites =
  [
    ( "check.schedule",
      [
        Alcotest.test_case "generation deterministic" `Quick test_generation_deterministic;
        Alcotest.test_case "string roundtrip" `Quick test_schedule_string_roundtrip;
        Alcotest.test_case "victim budget" `Quick test_victim_budget;
        Alcotest.test_case "malformed strings rejected" `Quick test_bad_schedule_strings_rejected;
      ] );
    ( "check.fuzz",
      [
        Alcotest.test_case "smoke fuzz (50 seeds)" `Slow test_smoke_fuzz;
        Alcotest.test_case "liveness oracles on clean seeds" `Slow
          test_liveness_flag_clean_seeds;
        Alcotest.test_case "view-change seed regression" `Quick test_view_change_seed_regression;
        Alcotest.test_case "replay from schedule string" `Quick test_regression_seed_replays_from_string;
        Alcotest.test_case "same seed twice in one process" `Quick test_same_seed_twice;
        Alcotest.test_case "tap keeps the surviving wave" `Quick test_tap_keeps_surviving_wave;
        Alcotest.test_case "shrinker minimizes" `Slow test_shrinker_minimizes;
      ] );
  ]
