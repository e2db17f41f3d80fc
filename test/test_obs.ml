(* Tests for the bft_obs tracing/metrics layer and for the bugs it exposed:
   - ring-buffer wraparound and histogram bucketing
   - trace inertness: enabling tracing never changes protocol behaviour
     (pinned fuzz-seed committed-history digests are byte-identical), and
     the disabled sink records nothing
   - regression tests for the client retransmission bugs (unbounded
     exponential backoff; replies discarded on retransmit) and for the
     result-returning Fs.restore / invoke_sync APIs. *)

module Engine = Bft_sim.Engine
module Network = Bft_net.Network
module Obs = Bft_obs.Obs
module Hist = Bft_obs.Hist
module Ring = Bft_obs.Ring
module Runner = Bft_check.Runner
open Bft_core

(* ------------------------------------------------------------------ *)
(* Ring                                                                *)
(* ------------------------------------------------------------------ *)

let test_ring_wraparound () =
  let r = Ring.create 8 in
  Alcotest.(check int) "empty length" 0 (Ring.length r);
  for i = 0 to 19 do
    Ring.push r i
  done;
  Alcotest.(check int) "length capped at capacity" 8 (Ring.length r);
  Alcotest.(check int) "total counts overwritten pushes" 20 (Ring.total r);
  Alcotest.(check (list int)) "holds most recent, oldest first"
    [ 12; 13; 14; 15; 16; 17; 18; 19 ]
    (Ring.to_list r);
  Ring.clear r;
  Alcotest.(check int) "cleared" 0 (Ring.length r);
  Alcotest.(check (list int)) "cleared list" [] (Ring.to_list r)

let test_ring_partial () =
  let r = Ring.create 8 in
  Ring.push r 1;
  Ring.push r 2;
  Ring.push r 3;
  Alcotest.(check int) "partial length" 3 (Ring.length r);
  Alcotest.(check (list int)) "partial order" [ 1; 2; 3 ] (Ring.to_list r)

(* ------------------------------------------------------------------ *)
(* Hist                                                                *)
(* ------------------------------------------------------------------ *)

let test_hist_buckets () =
  Alcotest.(check int) "sub-us in bucket 0" 0 (Hist.bucket_index 0.5);
  Alcotest.(check int) "1us starts bucket 1" 1 (Hist.bucket_index 1.0);
  Alcotest.(check int) "1.9us still bucket 1" 1 (Hist.bucket_index 1.9);
  Alcotest.(check int) "2us starts bucket 2" 2 (Hist.bucket_index 2.0);
  Alcotest.(check int) "1000us" 10 (Hist.bucket_index 1000.0);
  Alcotest.(check int) "huge values land in the last bucket"
    (Hist.num_buckets - 1)
    (Hist.bucket_index 1.0e30)

let test_hist_stats () =
  let h = Hist.create () in
  Alcotest.(check (float 0.0)) "empty mean" 0.0 (Hist.mean_us h);
  Alcotest.(check (float 0.0)) "empty percentile" 0.0 (Hist.percentile_us h 0.99);
  List.iter (Hist.add h) [ 10.0; 20.0; 30.0; 40.0 ];
  Alcotest.(check int) "count" 4 (Hist.count h);
  Alcotest.(check (float 1e-6)) "mean" 25.0 (Hist.mean_us h);
  Alcotest.(check (float 1e-6)) "max exact" 40.0 (Hist.max_us h);
  (* p50 of {10,20,30,40}: crosses in the bucket of 20 (16,32] -> upper 32 *)
  Alcotest.(check (float 1e-6)) "p50 bucket upper" 32.0 (Hist.percentile_us h 0.5);
  (* the top bucket reports the exact max, not the bucket bound *)
  Alcotest.(check (float 1e-6)) "p99 capped at max" 40.0 (Hist.percentile_us h 0.99)

let test_hist_merge () =
  let a = Hist.create () and b = Hist.create () in
  List.iter (Hist.add a) [ 1.0; 2.0 ];
  List.iter (Hist.add b) [ 100.0; 200.0 ];
  Hist.merge_into a b;
  Alcotest.(check int) "merged count" 4 (Hist.count a);
  Alcotest.(check (float 1e-6)) "merged mean" 75.75 (Hist.mean_us a);
  Alcotest.(check (float 1e-6)) "merged max" 200.0 (Hist.max_us a);
  Alcotest.(check int) "src untouched" 2 (Hist.count b)

(* ------------------------------------------------------------------ *)
(* Trace inertness                                                     *)
(* ------------------------------------------------------------------ *)

(* The digests pinned in test_hotpath.ml: tracing must not perturb them. *)
let golden_seed_1 = "43c8b1c432b84d0dd523fa7c9a137e15a0f978c4a8534b528625884e84e50676"

let traced_and_plain seed =
  let params = Runner.default_params ~seed ~f:1 in
  let sched = Runner.generate params in
  let plain = Runner.run_schedule params sched in
  let reg = Obs.registry () in
  let traced = Runner.run_schedule ~obs:reg params sched in
  (plain, traced, reg)

let test_inert_pinned_seeds () =
  List.iter
    (fun seed ->
      let plain, traced, reg = traced_and_plain seed in
      Alcotest.(check string)
        (Printf.sprintf "seed %d: digest identical with tracing on" seed)
        plain.Runner.history_digest traced.Runner.history_digest;
      Alcotest.(check int)
        (Printf.sprintf "seed %d: completions identical" seed)
        plain.Runner.completed_ops traced.Runner.completed_ops;
      (* the traced run actually recorded something *)
      let o = Obs.for_node reg 0 in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: replica 0 trace non-empty" seed)
        true
        (Obs.events o <> []))
    [ 1; 2; 3; 46 ];
  let plain, _, _ = traced_and_plain 1 in
  Alcotest.(check string) "seed 1 matches the pinned golden digest" golden_seed_1
    plain.Runner.history_digest

let prop_inert_random_seeds =
  QCheck.Test.make ~name:"tracing is inert (random seeds)" ~count:6
    QCheck.(int_range 100 10_000)
    (fun seed ->
      let plain, traced, _ = traced_and_plain seed in
      String.equal plain.Runner.history_digest traced.Runner.history_digest
      && plain.Runner.completed_ops = traced.Runner.completed_ops
      && plain.Runner.view_changes = traced.Runner.view_changes)

let test_null_sink_records_nothing () =
  let o = Obs.null in
  Alcotest.(check bool) "disabled" false (Obs.enabled o);
  Obs.request_arrival o ~now:1L ~client:4 ~digest:"d";
  Obs.phase o ~now:2L Obs.Preprepared ~view:0 ~seq:1;
  Obs.reply_sent o ~now:3L ~client:4 ~seq:1 ~digest:"d" ~tentative:false;
  Obs.snapshot_rejected o ~now:4L ~reason:"x";
  Alcotest.(check bool) "no events" true (Obs.events o = []);
  Alcotest.(check int) "no samples" 0 (Hist.count (Obs.e2e_hist o));
  Alcotest.(check int) "no rejections" 0 (Obs.snapshot_rejections o)

(* ------------------------------------------------------------------ *)
(* Bug regression: unbounded client backoff                            *)
(* ------------------------------------------------------------------ *)

(* With every replica crashed, the client's retransmission delay must
   plateau at [client_retry_max_us] instead of doubling forever: the old
   [2.0 ** retries] overflowed to infinity, after which the client never
   retried again and the request hung even once the replicas came back. *)
let test_bounded_backoff () =
  let cfg = Config.make ~f:1 ~client_retry_us:1.0 ~client_retry_max_us:50.0 () in
  let cluster = Cluster.create ~seed:5L cfg in
  let net = Cluster.network cluster in
  List.iter (fun i -> Network.crash net ~id:i) (Config.replica_ids cfg);
  let cl = Cluster.client cluster 0 in
  let result = ref None in
  Client.invoke cl ~op:"hello" (fun ~result:r ~latency_us:_ -> result := Some r);
  ignore (Cluster.run_until ~timeout_us:10_000.0 cluster (fun () -> !result <> None));
  Alcotest.(check bool) "still pending while replicas are down" true (!result = None);
  (* 10ms of virtual time at a 50us delay cap: ~200 retries. The uncapped
     code manages ~13 (the sum of doubling delays exhausts the window). *)
  Alcotest.(check bool)
    (Printf.sprintf "retransmissions kept flowing (%d)" (Client.retransmissions cl))
    true
    (Client.retransmissions cl > 100);
  List.iter (fun i -> Network.restart net ~id:i) (Config.replica_ids cfg);
  Alcotest.(check bool) "completes after replicas return" true
    (Cluster.run_until ~timeout_us:1_000_000.0 cluster (fun () -> !result <> None))

(* ------------------------------------------------------------------ *)
(* Bug regression: replies discarded on retransmission                 *)
(* ------------------------------------------------------------------ *)

(* An adversary lets only replica 0's reply through at first, then only
   replica 1's. No single round ever delivers the f+1 = 2 matching replies
   a weak certificate needs, so completion requires combining replies
   collected across retransmissions — the old client reset its reply set
   on every retransmission and could never finish under this schedule. *)
let test_replies_survive_retransmit () =
  let cfg =
    Config.make ~f:1 ~tentative_execution:false ~digest_replies:false
      ~client_retry_us:1000.0 ()
  in
  let cluster = Cluster.create ~seed:9L cfg in
  let net = Cluster.network cluster in
  let engine = Cluster.engine cluster in
  let client_id = cfg.Config.n in
  let cutover = Engine.of_us_float 1500.0 in
  Network.set_adversary net (fun ~src ~dst msg ->
      match msg.Message.body with
      | Message.Reply _ when dst = client_id ->
          let keep = if Int64.compare (Engine.now engine) cutover < 0 then 0 else 1 in
          if src = keep then `Pass else `Drop
      | _ -> `Pass);
  let cl = Cluster.client cluster 0 in
  let result = ref None in
  Client.invoke cl ~op:"put k v" (fun ~result:r ~latency_us:_ -> result := Some r);
  Alcotest.(check bool) "completes by combining replies across retransmissions" true
    (Cluster.run_until ~timeout_us:60_000.0 cluster (fun () -> !result <> None));
  Alcotest.(check bool)
    (Printf.sprintf "few retransmissions needed (%d)" (Client.retransmissions cl))
    true
    (Client.retransmissions cl <= 5)

(* ------------------------------------------------------------------ *)
(* Bug regression: restore and invoke_sync return results              *)
(* ------------------------------------------------------------------ *)

let test_fs_restore_atomic () =
  let fs = Bft_bfs.Fs.create () in
  (match Bft_bfs.Fs.mkdir fs ~dir:Bft_bfs.Fs.root ~name:"d" ~mtime:7L with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "mkdir");
  let snap = Bft_bfs.Fs.snapshot fs in
  (match Bft_bfs.Fs.restore fs "total garbage" with
  | Ok () -> Alcotest.fail "malformed snapshot accepted"
  | Error msg ->
      Alcotest.(check bool) "error names the stage" true
        (String.length msg > 0));
  Alcotest.(check string) "image untouched after failed restore" snap
    (Bft_bfs.Fs.snapshot fs);
  (* a half-valid snapshot (good header, bad line) must also leave the
     image untouched, not partially applied *)
  let truncated = snap ^ "inode \xff\n" in
  (match Bft_bfs.Fs.restore fs truncated with
  | Ok () -> Alcotest.fail "corrupt tail accepted"
  | Error _ -> ());
  Alcotest.(check string) "image untouched after corrupt tail" snap
    (Bft_bfs.Fs.snapshot fs)

(* The service reports a refusal as [Error] and keeps its state; the
   replica that asked counts it (test_paged's "restore_snapshot rejects
   malformed" checks the count). *)
let test_service_counts_rejected_snapshots () =
  let s = Bft_bfs.Bfs_service.create () in
  let _ = s.Bft_sm.Service.execute ~client:4 ~op:"mkdir 1 sub" ~nondet:"11" in
  let snap = s.Bft_sm.Service.snapshot () in
  Alcotest.(check bool) "malformed refused" true
    (Result.is_error (s.Bft_sm.Service.restore "not a snapshot"));
  Alcotest.(check string) "state preserved" snap (s.Bft_sm.Service.snapshot ());
  Alcotest.(check bool) "valid restore accepted" true
    (Result.is_ok (s.Bft_sm.Service.restore snap));
  Alcotest.(check string) "state restored" snap (s.Bft_sm.Service.snapshot ())

let test_invoke_sync_timeout_as_result () =
  let reg = Obs.registry () in
  let cfg = Config.make ~f:1 () in
  let cluster = Cluster.create ~seed:3L ~num_clients:2 ~obs:reg cfg in
  let net = Cluster.network cluster in
  List.iter (fun i -> Network.crash net ~id:i) (Config.replica_ids cfg);
  (match Cluster.try_invoke_sync ~timeout_us:2_000.0 cluster ~client:0 "op" with
  | Ok _ -> Alcotest.fail "completed against a crashed cluster"
  | Error msg -> Alcotest.(check bool) "error mentions timeout" true
      (String.length msg > 0));
  let o = Obs.for_node reg cfg.Config.n in
  Alcotest.(check int) "timeout counted in client metrics" 1 (Obs.timeouts o);
  (* the raising wrapper still raises for callers that want that (a fresh
     client: the timed-out request above is still outstanding on client 0) *)
  (match Cluster.invoke_sync ~timeout_us:1_000.0 cluster ~client:1 "op2" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "wrapper did not raise")

let test_baseline_timeout_as_result () =
  let b = Baseline.create ~num_clients:2 () in
  (match Baseline.try_invoke_sync ~timeout_us:0.0 b ~client:0 "x" with
  | Ok _ -> Alcotest.fail "zero-timeout invoke completed"
  | Error _ -> ());
  match Baseline.try_invoke_sync b ~client:1 "y" with
  | Ok (_, latency) ->
      Alcotest.(check bool) "completes normally with a latency" true (latency >= 0.0)
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)

let suites =
  [
    ( "obs",
      [
        Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
        Alcotest.test_case "ring partial fill" `Quick test_ring_partial;
        Alcotest.test_case "hist bucket boundaries" `Quick test_hist_buckets;
        Alcotest.test_case "hist stats" `Quick test_hist_stats;
        Alcotest.test_case "hist merge" `Quick test_hist_merge;
        Alcotest.test_case "null sink records nothing" `Quick test_null_sink_records_nothing;
        Alcotest.test_case "tracing inert on pinned seeds" `Slow test_inert_pinned_seeds;
        QCheck_alcotest.to_alcotest prop_inert_random_seeds;
      ] );
    ( "obs bug regressions",
      [
        Alcotest.test_case "client backoff is bounded" `Quick test_bounded_backoff;
        Alcotest.test_case "replies survive retransmission" `Quick
          test_replies_survive_retransmit;
        Alcotest.test_case "Fs.restore is atomic on malformed input" `Quick
          test_fs_restore_atomic;
        Alcotest.test_case "service counts rejected snapshots" `Quick
          test_service_counts_rejected_snapshots;
        Alcotest.test_case "cluster invoke_sync timeout as result" `Quick
          test_invoke_sync_timeout_as_result;
        Alcotest.test_case "baseline invoke_sync timeout as result" `Quick
          test_baseline_timeout_as_result;
      ] );
  ]
