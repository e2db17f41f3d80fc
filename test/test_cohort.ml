(* Client cohorts: the pairwise cohort must be event-for-event identical
   to the per-client driver it replaced, and derived cohorts must commit
   their workload through group-derived keys. *)

open Bft_check
module Obs = Bft_obs.Obs
module Hist = Bft_obs.Hist
module Keychain = Bft_crypto.Keychain
module Auth = Bft_crypto.Auth
module Engine = Bft_sim.Engine
open Bft_core

let params ?(seed = 1) ?(clients = 2) ?(ops = 10) () =
  { (Runner.default_params ~seed ~f:1) with Runner.clients; ops_per_client = ops }

let clean_run ?obs p =
  let r = Runner.run_schedule ?obs p [] in
  if r.Runner.failures <> [] then
    Alcotest.failf "oracles failed: %s" (String.concat "; " r.Runner.failures);
  r

(* --- pairwise equivalence --- *)

let test_pairwise_spec_matches_default () =
  (* an explicit pairwise spec and the default driver are the same code
     path by construction; this pins them together against future drift *)
  let base = clean_run (params ~seed:7 ~clients:3 ~ops:6 ()) in
  let spec = Cohort.default_closed ~k:3 ~ops_per_client:6 in
  let cohorted =
    clean_run { (params ~seed:7 ~clients:3 ~ops:6 ()) with Runner.cohort = Some spec }
  in
  Alcotest.(check string)
    "identical committed-history digest" base.Runner.history_digest
    cohorted.Runner.history_digest;
  Alcotest.(check int) "identical op count" base.Runner.completed_ops
    cohorted.Runner.completed_ops

let test_pairwise_rejects_oversized_k () =
  let p =
    {
      (params ~clients:2 ())
      with
      Runner.cohort = Some (Cohort.default_closed ~k:64 ~ops_per_client:1);
    }
  in
  Alcotest.check_raises "k beyond real clients"
    (Invalid_argument "Cohort.drive: pairwise cohort needs k real clients") (fun () ->
      ignore (Runner.run_schedule p []))

let test_pairwise_rejects_open_loop () =
  let spec =
    { Cohort.k = 2; arrival = Open { rate_per_sec = 1000.0; total_ops = 10 }; keys = Pairwise }
  in
  Alcotest.check_raises "open loop needs derived keys"
    (Invalid_argument
       "Cohort.drive: open-loop arrivals need derived keys (a real client admits one \
        outstanding request)") (fun () ->
      ignore (Runner.run_schedule { (params ()) with Runner.cohort = Some spec } []))

(* --- derived cohorts --- *)

let test_derived_closed_completes () =
  let spec =
    {
      Cohort.k = 8;
      arrival = Closed { think_us = 100.0; ops_per_client = 5 };
      keys = Derived;
    }
  in
  let r = clean_run { (params ~seed:3 ()) with Runner.cohort = Some spec } in
  Alcotest.(check int) "all 40 synthesized ops commit" 40 r.Runner.completed_ops

let test_derived_open_loop_completes () =
  (* 300 arrivals round-robin over 1000 synthesized clients: every client
     issues at most one op, so no same-client reordering can orphan any *)
  let spec =
    {
      Cohort.k = 1000;
      arrival = Open { rate_per_sec = 20_000.0; total_ops = 300 };
      keys = Derived;
    }
  in
  let r = clean_run { (params ~seed:5 ()) with Runner.cohort = Some spec } in
  Alcotest.(check int) "all 300 open-loop ops commit" 300 r.Runner.completed_ops

let test_derived_bursty_completes () =
  let spec =
    {
      Cohort.k = 500;
      arrival =
        Bursty
          {
            base_per_sec = 2_000.0;
            peak_per_sec = 40_000.0;
            period_us = 10_000.0;
            total_ops = 200;
          };
      keys = Derived;
    }
  in
  let r = clean_run { (params ~seed:9 ()) with Runner.cohort = Some spec } in
  Alcotest.(check int) "all 200 bursty ops commit" 200 r.Runner.completed_ops

let test_derived_deterministic () =
  let spec =
    {
      Cohort.k = 64;
      arrival = Open { rate_per_sec = 10_000.0; total_ops = 100 };
      keys = Derived;
    }
  in
  let run () =
    clean_run { (params ~seed:11 ()) with Runner.cohort = Some spec }
  in
  let a = run () and b = run () in
  Alcotest.(check string) "same digest on same seed" a.Runner.history_digest
    b.Runner.history_digest

let test_derived_rejects_sig_auth () =
  (* derived cohorts synthesize MAC authenticators; there is no way to
     stand in for per-client signing keys *)
  let cluster =
    Bft_core.Cluster.create
      (Bft_core.Config.make ~auth_mode:Bft_core.Config.Sig_auth ~f:1 ())
  in
  let spec =
    { Cohort.k = 4; arrival = Closed { think_us = 100.0; ops_per_client = 1 }; keys = Derived }
  in
  Alcotest.check_raises "derived needs Mac_auth"
    (Invalid_argument "Cohort.drive: derived cohorts require Mac_auth") (fun () ->
      ignore
        (Cohort.drive ~seed:1 cluster spec ~on_complete:(fun ~client:_ ~op:_ ~result:_ -> ())))

let test_derived_refuses_non_replica_ids () =
  (* every replica is muted, so only forged replies reach the cohort: two
     group-keyed replies claiming ids n and n+1 would make a weak
     certificate for "forged" if ids were not checked against [0, n) *)
  let spec =
    { Cohort.k = 1; arrival = Closed { think_us = 100.0; ops_per_client = 1 }; keys = Derived }
  in
  let lv = Runner.prepare { (params ()) with Runner.cohort = Some spec } [] in
  let cluster = lv.Runner.lv_cluster in
  Array.iter (fun r -> Replica.mute r true) (Cluster.replicas cluster);
  let n = (Cluster.config cluster).Config.n in
  let client = n + Cluster.num_clients cluster in
  let g = Option.get (Keychain.group_of (Replica.keychain (Cluster.replica cluster 0))) in
  let forge replica =
    let body =
      Message.Reply
        {
          rp_view = 0;
          rp_timestamp = 1L;
          rp_client = client;
          rp_replica = replica;
          rp_tentative = false;
          rp_result = Full "forged";
        }
    in
    let d = Wire.envelope_digest (Message.envelope ~sender:replica ~auth:Auth_none body) in
    let auth = Auth.group_authenticator g ~src:replica ~receivers:[ client ] d in
    let mac = Option.get (Auth.entry auth client) in
    let env = Message.envelope ~sender:replica ~auth:(Auth_mac mac) body in
    Bft_net.Network.send (Cluster.network cluster) ~src:0 ~dst:client
      ~size:(Wire.envelope_size env) env
  in
  ignore
    (Engine.schedule_at (Cluster.engine cluster) ~label:(Engine.Name "forge") (Engine.us 2000)
       (fun () ->
         forge n;
         forge (n + 1)));
  ignore
    (Cluster.run_until ~timeout_us:200_000.0 cluster (fun () ->
         !(lv.Runner.lv_n_completed) >= 1));
  Alcotest.(check (list string))
    "no op completes" []
    (List.map (fun (_, _, result) -> result) !(lv.Runner.lv_completed))

let test_derived_under_faults () =
  (* generated fault schedules (crashes, partitions, loss, Byzantine
     primaries) against a 64-client derived cohort *)
  let spec =
    { Cohort.k = 64; arrival = Closed { think_us = 100.0; ops_per_client = 3 }; keys = Derived }
  in
  let o = Runner.fuzz { (params ()) with Runner.cohort = Some spec } ~seeds:10 in
  Alcotest.(check (list int)) "no failing seed" [] (List.map fst o.Runner.failing);
  Alcotest.(check int) "every op commits" (10 * 64 * 3) o.Runner.total_completed

(* --- a 10^6-client cohort: latency vs offered load (W4) --- *)

let test_million_client_sweep () =
  (* Open-loop arrivals round-robin over 10^6 synthesized clients, so each
     client issues at most one op and every sweep point must complete.
     The primary batches whatever queued while its window was full, up to
     Config.max_batch, and never waits for a batch to fill. The curve is
     a pure function of (params, rate), so the floor and the shape are
     exact. *)
  let point rate =
    let spec =
      {
        Cohort.k = 1_000_000;
        arrival = Open { rate_per_sec = rate; total_ops = 250 };
        keys = Derived;
      }
    in
    let p = { (Runner.default_params ~seed:2 ~f:1) with Runner.cohort = Some spec } in
    let lv = Runner.prepare p [] in
    ignore
      (Bft_core.Cluster.run_until ~timeout_us:(p.Runner.horizon_us +. p.Runner.drain_us)
         lv.Runner.lv_cluster (fun () ->
           !(lv.Runner.lv_n_completed) >= lv.Runner.lv_total_ops));
    let r = Runner.finish lv in
    if r.Runner.failures <> [] then
      Alcotest.failf "rate %.0f: oracles failed: %s" rate
        (String.concat "; " r.Runner.failures);
    Alcotest.(check int)
      (Printf.sprintf "rate %.0f: all ops commit" rate)
      250 r.Runner.completed_ops;
    let now = Bft_sim.Engine.now (Bft_core.Cluster.engine lv.Runner.lv_cluster) in
    let committed = float_of_int r.Runner.completed_ops /. (Bft_sim.Engine.to_us now /. 1.0e6) in
    ( Printf.sprintf "%.0f -> %.4f %s" rate committed r.Runner.history_digest,
      (committed, Hist.mean_us (Cohort.latency_hist lv.Runner.lv_cohort)) )
  in
  let pinned, curve =
    List.split (List.map point [ 2_000.0; 5_000.0; 10_000.0; 20_000.0; 50_000.0 ])
  in
  (* offered rate -> committed ops/vsec and history digest, exact *)
  Alcotest.(check (list string))
    "pinned sweep"
    [
      "2000 -> 1897.8128 ab239e383a3cd0da6427797404072a491eb61700a05a5a0b4e243fc9f2431cfa";
      "5000 -> 4471.8786 1c2f75cfdc71405633534b8f9910aca4c6b8a824d90022fb776520c3552e53c9";
      "10000 -> 8000.5476 6da6217677b7d8ad030d8d1d7f4edf8525af98ea2c3eb8696330b32128c9c527";
      "20000 -> 11231.4342 36bdd6966fd2938bde6d4ab260c3698c74f5e39faa5c75ac24658e40a4988a94";
      "50000 -> 14227.1035 2c3248685f291af746c11a36284536655bf44dc3233805bfff40caacfbf2a1f4";
    ]
    pinned;
  let peak = List.fold_left (fun a (c, _) -> Float.max a c) 0.0 curve in
  Alcotest.(check bool)
    (Printf.sprintf "peak %.1f ops/vsec >= 7192.05" peak)
    true (peak >= 7192.05);
  (* committed throughput and mean latency both rise with offered load *)
  ignore
    (List.fold_left
       (fun (c0, m0) (c, m) ->
         Alcotest.(check bool)
           (Printf.sprintf "committed %.1f -> %.1f and mean %.1fus -> %.1fus non-decreasing"
              c0 c m0 m)
           true
           (c >= c0 && m >= m0);
         (c, m))
       (List.hd curve) (List.tl curve))

(* --- qcheck: cohort-vs-k-clients op counts --- *)

let prop_op_counts =
  QCheck.Test.make ~count:4 ~name:"derived cohort commits k*ops like k real clients"
    QCheck.(pair (int_range 1 3) (int_range 1 4))
    (fun (k, ops) ->
      let pairwise = clean_run (params ~seed:(13 + k) ~clients:k ~ops ()) in
      let spec =
        {
          Cohort.k;
          arrival = Closed { think_us = 100.0; ops_per_client = ops };
          keys = Derived;
        }
      in
      let derived =
        clean_run { (params ~seed:(13 + k) ()) with Runner.cohort = Some spec }
      in
      pairwise.Runner.completed_ops = k * ops
      && derived.Runner.completed_ops = k * ops
      && derived.Runner.total_ops = Cohort.total_ops spec)

let prop_arrival_roundtrip =
  let gen =
    QCheck.Gen.(
      oneof
        [
          map2
            (fun t o -> Cohort.Closed { think_us = float_of_int t; ops_per_client = o })
            (int_range 0 10_000) (int_range 0 1000);
          map2
            (fun r o -> Cohort.Open { rate_per_sec = float_of_int r; total_ops = o })
            (int_range 1 1_000_000) (int_range 0 1000);
          map
            (fun (b, p, per, o) ->
              Cohort.Bursty
                {
                  base_per_sec = float_of_int b;
                  peak_per_sec = float_of_int (b + p);
                  period_us = float_of_int per;
                  total_ops = o;
                })
            (quad (int_range 1 100_000) (int_range 0 100_000) (int_range 1 1_000_000)
               (int_range 0 1000));
        ])
  in
  QCheck.Test.make ~count:200 ~name:"arrival strings round-trip"
    (QCheck.make ~print:Cohort.arrival_to_string gen)
    (fun a -> Cohort.parse_arrival (Cohort.arrival_to_string a) = Ok a)

(* --- batch occupancy --- *)

let test_batches_feed_occupancy_hist () =
  let obs = Obs.registry () in
  let spec =
    {
      Cohort.k = 256;
      arrival = Open { rate_per_sec = 50_000.0; total_ops = 200 };
      keys = Derived;
    }
  in
  let _ = clean_run ~obs { (params ~seed:4 ()) with Runner.cohort = Some spec } in
  let batches =
    List.fold_left
      (fun acc (_, o) -> acc + Hist.count (Obs.batch_occupancy_hist o))
      0 (Obs.nodes obs)
  in
  Alcotest.(check bool)
    (Printf.sprintf "batch occupancy recorded (%d)" batches)
    true (batches > 0)

let test_group_derivations_observed () =
  (* replicas must actually use on-demand group derivation for cohort
     clients (not pairwise keys, which do not exist for them) *)
  let spec =
    { Cohort.k = 16; arrival = Closed { think_us = 100.0; ops_per_client = 2 }; keys = Derived }
  in
  let p = { (params ~seed:6 ()) with Runner.cohort = Some spec } in
  let lv = Runner.prepare p [] in
  ignore
    (Bft_core.Cluster.run_until ~timeout_us:1_000_000.0 lv.Runner.lv_cluster (fun () ->
         !(lv.Runner.lv_n_completed) >= lv.Runner.lv_total_ops));
  let r = Runner.finish lv in
  if r.Runner.failures <> [] then
    Alcotest.failf "oracles failed: %s" (String.concat "; " r.Runner.failures);
  Alcotest.(check int) "workload committed" 32 r.Runner.completed_ops;
  let g =
    match Keychain.group_of (Bft_core.Replica.keychain (Bft_core.Cluster.replica lv.Runner.lv_cluster 0)) with
    | Some g -> g
    | None -> Alcotest.fail "no group installed on replica 0"
  in
  Alcotest.(check bool)
    (Printf.sprintf "on-demand derivations happened (%d)" (Keychain.group_derivations g))
    true
    (Keychain.group_derivations g > 0)

let suites =
  [
    ( "cohort",
      [
        Alcotest.test_case "pairwise spec = default driver" `Quick
          test_pairwise_spec_matches_default;
        Alcotest.test_case "pairwise k bound" `Quick test_pairwise_rejects_oversized_k;
        Alcotest.test_case "pairwise open-loop rejected" `Quick
          test_pairwise_rejects_open_loop;
        Alcotest.test_case "derived closed loop" `Quick test_derived_closed_completes;
        Alcotest.test_case "derived open loop" `Quick test_derived_open_loop_completes;
        Alcotest.test_case "derived bursty" `Quick test_derived_bursty_completes;
        Alcotest.test_case "derived deterministic" `Quick test_derived_deterministic;
        Alcotest.test_case "derived rejects signatures" `Quick
          test_derived_rejects_sig_auth;
        Alcotest.test_case "derived refuses non-replica ids" `Quick
          test_derived_refuses_non_replica_ids;
        Alcotest.test_case "derived under faults" `Quick test_derived_under_faults;
        Alcotest.test_case "group derivations observed" `Quick
          test_group_derivations_observed;
        Alcotest.test_case "10^6-client sweep" `Quick test_million_client_sweep;
        Alcotest.test_case "occupancy histogram" `Quick test_batches_feed_occupancy_hist;
        QCheck_alcotest.to_alcotest prop_op_counts;
        QCheck_alcotest.to_alcotest prop_arrival_roundtrip;
      ] );
  ]
