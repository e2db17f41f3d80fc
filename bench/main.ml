(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Chapters 7 and 8) against the simulated testbed, plus
   Bechamel wall-clock micro-benchmarks of the crypto components
   (the Section 8.2 component measurements).

   Usage: dune exec bench/main.exe [-- E1 E4 ...]   (default: all)
   See DESIGN.md for the experiment index and EXPERIMENTS.md for recorded
   paper-vs-measured comparisons. *)

module Engine = Bft_sim.Engine
module Costs = Bft_net.Costs
module PM = Bft_perf.Perf_model
open Bft_core
open Harness

let null ?(ro = false) a r = Bft_sm.Null_service.op ~read_only:ro ~arg_size:a ~result_size:r

(* BFT-PK configurations need view-change timeouts above the (much larger)
   operation latency, as any deployed system would use. *)
let pk_cfg ?(f = 1) () =
  Config.make ~auth_mode:Config.Sig_auth ~vc_timeout_us:500_000.0 ~f ()

let baseline_latency a r =
  let b = Baseline.create ~service:(fun () -> Bft_sm.Null_service.create ()) () in
  ignore (Baseline.invoke_sync b ~client:0 (null 0 0));
  let stats = Bft_util.Stats.create () in
  for _ = 1 to 15 do
    Bft_util.Stats.add stats (snd (Baseline.invoke_sync b ~client:0 (null a r)))
  done;
  Bft_util.Stats.median stats

(* ------------------------------------------------------------------ *)
(* E1: latency micro-benchmark table (Section 8.3.1)                    *)
(* ------------------------------------------------------------------ *)

let e1 () =
  section "E1 (8.3.1): latency for 0/0, 0/4K, 4K/0 operations [us]";
  let cfg = Config.make ~f:1 () in
  row "%-10s %12s %12s %12s %14s" "op" "BFT" "BFT-ro" "BFT-PK" "unreplicated";
  List.iter
    (fun (a, r, label) ->
      let bft = latency ~cfg (null a r) in
      let ro = latency ~cfg ~read_only:true (null ~ro:true a r) in
      let pk = latency ~cfg:(pk_cfg ()) ~samples:5 (null a r) in
      let un = baseline_latency a r in
      row "%-10s %12.0f %12.0f %12.0f %14.0f" label bft ro pk un)
    [ (0, 0, "0/0"); (0, 4096, "0/4K"); (4096, 0, "4K/0") ];
  row "shape: read-only < read-write; BFT-PK >> BFT; BFT within a small factor of unreplicated"

(* ------------------------------------------------------------------ *)
(* E2/E3: latency vs argument / result size (Section 8.3.1 figures)     *)
(* ------------------------------------------------------------------ *)

let e2 () =
  section "E2 (8.3.1): latency vs argument size [us]";
  let cfg = Config.make ~f:1 () in
  row "%-10s %10s %10s %12s" "arg bytes" "BFT" "model" "unrepl";
  List.iter
    (fun a ->
      let bft = latency ~cfg (null a 0) in
      let model =
        PM.latency_us ~costs:default_costs ~cfg
          { PM.arg_size = a; result_size = 0; read_only = false; batch = 1 }
      in
      row "%-10d %10.0f %10.0f %12.0f" a bft model (baseline_latency a 0))
    [ 0; 256; 1024; 2048; 4096; 8192 ]

let e3 () =
  section "E3 (8.3.1): latency vs result size [us]";
  let cfg = Config.make ~f:1 () in
  let cfg_nodr = Config.make ~digest_replies:false ~f:1 () in
  row "%-12s %10s %14s %10s" "result bytes" "BFT" "no-digest-rep" "model";
  List.iter
    (fun r ->
      let bft = latency ~cfg (null 0 r) in
      let nodr = latency ~cfg:cfg_nodr (null 0 r) in
      let model =
        PM.latency_us ~costs:default_costs ~cfg
          { PM.arg_size = 0; result_size = r; read_only = false; batch = 1 }
      in
      row "%-12d %10.0f %14.0f %10.0f" r bft nodr model)
    [ 0; 256; 1024; 2048; 4096; 8192 ];
  row "shape: digest replies flatten the slope for large results"

(* ------------------------------------------------------------------ *)
(* E4: throughput vs number of clients (Section 8.3.2)                  *)
(* ------------------------------------------------------------------ *)

let e4 () =
  section "E4 (8.3.2): throughput vs clients [ops/s]";
  let cfg = Config.make ~f:1 () in
  row "%-8s %10s %10s %10s %12s" "clients" "0/0" "0/4K" "4K/0" "0/0 ro";
  List.iter
    (fun m ->
      let t00 = throughput ~cfg ~clients:m (null 0 0) in
      let t04 = throughput ~cfg ~clients:m (null 0 4096) in
      let t40 = throughput ~cfg ~clients:m (null 4096 0) in
      let tro = throughput ~cfg ~clients:m ~read_only:true (null ~ro:true 0 0) in
      row "%-8d %10.0f %10.0f %10.0f %12.0f" m t00 t04 t40 tro)
    [ 1; 2; 5; 10; 20; 50 ];
  row "shape: throughput rises then saturates; read-only scales best"

(* ------------------------------------------------------------------ *)
(* E5: impact of the optimizations (Section 8.3.3)                      *)
(* ------------------------------------------------------------------ *)

let e5 () =
  section "E5 (8.3.3): optimization ablations";
  let measure cfg =
    let sig_mode = cfg.Config.auth_mode = Config.Sig_auth in
    let samples = if sig_mode then 3 else 15 in
    let lat_result = latency ~samples ~cfg (null 0 4096) in
    let lat_arg = latency ~samples ~cfg (null 4096 0) in
    let tput =
      let duration_us = if sig_mode then 2_000_000.0 else 300_000.0 in
      throughput ~cfg ~clients:40 ~duration_us (null 0 0)
    in
    (lat_result, lat_arg, tput)
  in
  let l1, l2, tp = measure (Config.make ~f:1 ()) in
  row "%-28s %14s %14s %16s" "configuration" "lat 0/4K [us]" "lat 4K/0 [us]" "tput 0/0 [ops/s]";
  row "%-28s %14.0f %14.0f %16.0f" "all optimizations" l1 l2 tp;
  List.iter
    (fun (label, cfg) ->
      let l1, l2, tp = measure cfg in
      row "%-28s %14.0f %14.0f %16.0f" label l1 l2 tp)
    [
      ("no digest replies", Config.make ~digest_replies:false ~f:1 ());
      ("no tentative execution", Config.make ~tentative_execution:false ~f:1 ());
      ("no batching", Config.make ~batching:false ~f:1 ());
      ("no separate request tx", Config.make ~separate_tx_threshold:max_int ~f:1 ());
      ("signatures (BFT-PK)", pk_cfg ());
    ];
  row "shape: each optimization, removed, costs latency and/or throughput"

(* ------------------------------------------------------------------ *)
(* E6: configurations with more replicas (Section 8.3.4)                *)
(* ------------------------------------------------------------------ *)

let e6 () =
  section "E6 (8.3.4): scaling f (n = 3f+1)";
  row "%-4s %4s %14s %16s" "f" "n" "lat 0/0 [us]" "tput 0/0 [ops/s]";
  List.iter
    (fun f ->
      let cfg = Config.make ~f () in
      let lat = latency ~cfg (null 0 0) in
      let tput = throughput ~cfg ~clients:10 (null 0 0) in
      row "%-4d %4d %14.0f %16.0f" f cfg.Config.n lat tput)
    [ 1; 2; 3; 4 ];
  row "shape: overhead grows mildly with f (constant number of phases)"

(* ------------------------------------------------------------------ *)
(* E7: sensitivity to model parameters (Section 8.3.5)                  *)
(* ------------------------------------------------------------------ *)

let e7 () =
  section "E7 (8.3.5): sensitivity to component costs (latency 0/0 [us])";
  let cfg = Config.make ~f:1 () in
  row "%-26s %10s %10s" "parameter variation" "measured" "model";
  List.iter
    (fun (label, costs) ->
      let lat = latency ~costs ~cfg (null 0 0) in
      let model =
        PM.latency_us ~costs ~cfg
          { PM.arg_size = 0; result_size = 0; read_only = false; batch = 1 }
      in
      row "%-26s %10.0f %10.0f" label lat model)
    [
      ("baseline", default_costs);
      ("MAC cost x10", { default_costs with Costs.mac_us = default_costs.Costs.mac_us *. 10. });
      ( "digest cost x10",
        {
          default_costs with
          Costs.digest_fixed_us = default_costs.Costs.digest_fixed_us *. 10.;
          digest_per_byte_us = default_costs.Costs.digest_per_byte_us *. 10.;
        } );
      ( "wire latency x4",
        { default_costs with Costs.wire_latency_us = default_costs.Costs.wire_latency_us *. 4. } );
      ( "wire bandwidth /10",
        { default_costs with Costs.wire_per_byte_us = default_costs.Costs.wire_per_byte_us *. 10. } );
    ]

(* ------------------------------------------------------------------ *)
(* E8: analytic model vs measurement (Sections 7.3-7.4, 8.3)            *)
(* ------------------------------------------------------------------ *)

let e8 () =
  section "E8 (7.3/7.4): model vs simulator";
  let cfg = Config.make ~f:1 () in
  row "%-16s %12s %12s %8s" "point" "model" "measured" "err%";
  let compare_lat label w op ro =
    let model = PM.latency_us ~costs:default_costs ~cfg w in
    let meas = latency ~cfg ~read_only:ro op in
    row "%-16s %12.0f %12.0f %7.1f%%" label model meas (100. *. (model -. meas) /. meas)
  in
  compare_lat "lat rw 0/0"
    { PM.arg_size = 0; result_size = 0; read_only = false; batch = 1 }
    (null 0 0) false;
  compare_lat "lat ro 0/0"
    { PM.arg_size = 0; result_size = 0; read_only = true; batch = 1 }
    (null ~ro:true 0 0) true;
  compare_lat "lat rw 0/4K"
    { PM.arg_size = 0; result_size = 4096; read_only = false; batch = 1 }
    (null 0 4096) false;
  compare_lat "lat rw 4K/0"
    { PM.arg_size = 4096; result_size = 0; read_only = false; batch = 1 }
    (null 4096 0) false;
  (* throughput: measure, observe the achieved mean batch size, and feed
     that batch size to the model (the model is parametric in it) *)
  let c = Cluster.create ~seed:42L ~num_clients:40 cfg in
  let completed = ref 0 in
  let rec pump k ~result:_ ~latency_us:_ =
    incr completed;
    Client.invoke (Cluster.client c k) ~op:(null 0 0) (pump k)
  in
  for k = 0 to 39 do
    Client.invoke (Cluster.client c k) ~op:(null 0 0) (pump k)
  done;
  Cluster.run ~timeout_us:50_000.0 c;
  let base = !completed in
  let t0 = Engine.now (Cluster.engine c) in
  Engine.run ~until:(Int64.add t0 (Engine.of_us_float 300_000.0)) (Cluster.engine c);
  let elapsed = Engine.to_us (Int64.sub (Engine.now (Cluster.engine c)) t0) in
  let meas_tput = float_of_int (!completed - base) *. 1_000_000.0 /. elapsed in
  let counters = Replica.counters (Cluster.replica c 0) in
  let avg_batch =
    max 1 (counters.Replica.n_executed / max 1 counters.Replica.n_batches)
  in
  let model_tput =
    PM.throughput_ops ~costs:default_costs ~cfg
      { PM.arg_size = 0; result_size = 0; read_only = false; batch = avg_batch }
  in
  row "%-16s %12.0f %12.0f %7.1f%%"
    (Printf.sprintf "tput 0/0 (b=%d)" avg_batch)
    model_tput meas_tput
    (100. *. (model_tput -. meas_tput) /. meas_tput)

(* ------------------------------------------------------------------ *)
(* E9: checkpoint creation cost (Section 8.4.1)                         *)
(* ------------------------------------------------------------------ *)

let e9 () =
  section "E9 (8.4.1): checkpoint creation (partition tree, copy-on-write)";
  row "%-12s %8s %18s %20s" "state bytes" "pages" "full digest [B]" "incr digest [B]";
  List.iter
    (fun size ->
      let rng = Bft_util.Rng.create 7L in
      let state = Bft_util.Rng.bytes rng size in
      let t1 = Partition_tree.build ~seq:1 ~page_size:4096 ~branching:16 state in
      (* touch ~2% of the pages *)
      let state' = Bytes.of_string state in
      let stride = 4096 * 50 in
      let i = ref 0 in
      while !i < size do
        Bytes.set state' !i 'Z';
        i := !i + stride
      done;
      let t2 =
        Partition_tree.build ~prev:t1 ~seq:2 ~page_size:4096 ~branching:16
          (Bytes.to_string state')
      in
      row "%-12d %8d %18d %20d" size (Partition_tree.num_pages t1)
        (Partition_tree.digested_bytes t1)
        (Partition_tree.digested_bytes t2))
    [ 65_536; 262_144; 1_048_576; 4_194_304 ];
  row "shape: incremental digesting cost proportional to modified pages only"

(* ------------------------------------------------------------------ *)
(* E10: state transfer (Section 8.4.2)                                  *)
(* ------------------------------------------------------------------ *)

let e10 () =
  section "E10 (8.4.2): state transfer to a lagging replica";
  row "%-18s %12s %14s %12s" "ops while down" "fetch bytes" "transfer [ms]" "final seq";
  List.iter
    (fun ops ->
      let cfg = Config.make ~f:1 ~checkpoint_interval:8 () in
      let c =
        Cluster.create ~seed:5L
          ~service:(fun () -> Bft_sm.Kv_service.create ())
          ~num_clients:1 cfg
      in
      for i = 1 to 5 do
        ignore
          (Cluster.invoke_sync ~timeout_us:60_000_000.0 c ~client:0
             (Printf.sprintf "put warm%d x" i))
      done;
      Bft_net.Network.crash (Cluster.network c) ~id:3;
      for i = 1 to ops do
        ignore
          (Cluster.invoke_sync ~timeout_us:60_000_000.0 c ~client:0
             (Printf.sprintf "put key%d %s" i (String.make 64 'v')))
      done;
      Bft_net.Network.restart (Cluster.network c) ~id:3;
      let t0 = Engine.now (Cluster.engine c) in
      Replica.crash_reboot (Cluster.replica c 3);
      ignore
        (Cluster.run_until ~timeout_us:60_000_000.0 c (fun () ->
             Replica.last_executed (Cluster.replica c 3)
             >= Replica.stable_checkpoint (Cluster.replica c 0)));
      let dt = Engine.to_ms (Int64.sub (Engine.now (Cluster.engine c)) t0) in
      let counters = Replica.counters (Cluster.replica c 3) in
      row "%-18d %12d %14.2f %12d" ops counters.Replica.bytes_fetched dt
        (Replica.last_executed (Cluster.replica c 3)))
    [ 20; 40; 80 ]

(* ------------------------------------------------------------------ *)
(* E11: view-change latency (Section 8.5)                               *)
(* ------------------------------------------------------------------ *)

let e11 () =
  section "E11 (8.5): view-change latency (primary killed under load)";
  row "%-6s %-60s %10s" "f" "failover kill->next-commit [ms]" "new view";
  List.iter
    (fun f ->
      let cfg = Config.make ~vc_timeout_us:20_000.0 ~f () in
      let stats = Bft_util.Stats.create () in
      let last_view = ref 0 in
      List.iter
        (fun seed ->
          let c =
            Cluster.create ~seed
              ~service:(fun () -> Bft_sm.Counter_service.create ())
              ~num_clients:1 cfg
          in
          for _ = 1 to 3 do
            ignore (Cluster.invoke_sync ~timeout_us:60_000_000.0 c ~client:0 "inc")
          done;
          let t0 = Engine.now (Cluster.engine c) in
          Bft_net.Network.crash (Cluster.network c) ~id:0;
          ignore (Cluster.invoke_sync ~timeout_us:120_000_000.0 c ~client:0 "inc");
          Bft_util.Stats.add stats (Engine.to_ms (Int64.sub (Engine.now (Cluster.engine c)) t0));
          last_view := Replica.view (Cluster.replica c 1))
        [ 1L; 2L; 3L; 4L; 5L ];
      row "%-6d %-60s %10d" f (Bft_util.Stats.summary stats) !last_view)
    [ 1; 2 ];
  row "note: dominated by the fault-detection timeout, as in the paper"

(* ------------------------------------------------------------------ *)
(* E12: BFS with the Andrew-like workload (Section 8.6.2)               *)
(* ------------------------------------------------------------------ *)

let andrew_bft ~cfg ~think_us ~scale =
  let c =
    Cluster.create ~seed:9L
      ~service:(fun () -> Bft_bfs.Bfs_service.create ())
      ~num_clients:1 cfg
  in
  let steps = Bft_bfs.Andrew.script ~scale () in
  run_script_ms ~engine:(Cluster.engine c) ~think_us
    ~invoke:(fun (s : Bft_bfs.Andrew.step) ->
      ignore
        (Cluster.invoke_sync ~timeout_us:300_000_000.0 c ~client:0
           ~read_only:s.Bft_bfs.Andrew.read_only s.Bft_bfs.Andrew.op))
    steps

let andrew_baseline ~think_us ~scale =
  let b = Baseline.create ~seed:9L ~service:(fun () -> Bft_bfs.Bfs_service.create ()) () in
  let steps = Bft_bfs.Andrew.script ~scale () in
  run_script_ms ~engine:(Baseline.engine b) ~think_us
    ~invoke:(fun (s : Bft_bfs.Andrew.step) ->
      ignore (Baseline.invoke_sync ~timeout_us:300_000_000.0 b ~client:0 s.Bft_bfs.Andrew.op))
    steps

let e12 () =
  section "E12 (8.6.2): BFS vs unreplicated NFS, Andrew-like workload";
  (* Andrew's elapsed time is dominated by client computation (the paper
     notes this); think_us models the compile/stat work between calls. *)
  let think_us = 1_500.0 in
  row "%-8s %14s %16s %12s" "scale" "BFS [ms]" "unrepl [ms]" "slowdown";
  List.iter
    (fun scale ->
      let cfg = Config.make ~f:1 () in
      let bfs = andrew_bft ~cfg ~think_us ~scale in
      let base = andrew_baseline ~think_us ~scale in
      row "%-8d %14.1f %16.1f %11.1f%%" scale bfs base (pct_slower bfs base))
    [ 1; 2 ];
  let strict = Config.make ~tentative_execution:false ~f:1 () in
  let bfs_strict = andrew_bft ~cfg:strict ~think_us ~scale:1 in
  let base = andrew_baseline ~think_us ~scale:1 in
  row "%-8s %14.1f %16.1f %11.1f%%" "strict" bfs_strict base (pct_slower bfs_strict base);
  row "paper: BFS between 2%% faster and 24%% slower than unreplicated NFS"

(* ------------------------------------------------------------------ *)
(* E13: BFS with proactive recovery (Section 8.6.3)                     *)
(* ------------------------------------------------------------------ *)

let e13 () =
  section "E13 (8.6.3): throughput with proactive recovery";
  row "%-24s %16s" "watchdog period" "tput [ops/s]";
  List.iter
    (fun (label, recovery, period) ->
      let cfg =
        Config.make ~recovery ~watchdog_period_us:period ~checkpoint_interval:32
          ~key_refresh_us:(period /. 4.0) ~f:1 ()
      in
      let tput =
        throughput ~cfg ~clients:5 ~duration_us:(2.5 *. period)
          ~service:(fun () -> Bft_sm.Kv_service.create ())
          "put bench value"
      in
      row "%-24s %16.0f" label tput)
    [
      ("no recovery", false, 2_000_000.0);
      ("recover every 4s", true, 4_000_000.0);
      ("recover every 2s", true, 2_000_000.0);
      ("recover every 1s", true, 1_000_000.0);
    ];
  row "shape: shorter windows of vulnerability cost modest throughput"

(* ------------------------------------------------------------------ *)
(* C0: crypto component wall-clock costs, measured with Bechamel        *)
(* (the Section 8.2 component-measurement table for our substrate).     *)
(* ------------------------------------------------------------------ *)

let component_benchmarks () =
  section "C0 (8.2): crypto component wall-clock costs (Bechamel, this machine)";
  let open Bechamel in
  let key = Bft_crypto.Hmac.precompute ~key:(String.make 16 'k') in
  let msg64 = String.make 64 'm' in
  (* what the library MACs and signs: a message's 32-byte digest *)
  let digest = Bft_crypto.Sha256.digest msg64 in
  let msg4k = String.make 4096 'm' in
  let rng = Bft_util.Rng.create 3L in
  let registry = Bft_crypto.Signature.create_registry () in
  let signer = Bft_crypto.Signature.register registry rng 0 in
  let chains = Array.init 4 (fun i -> Bft_crypto.Keychain.create ~my_id:i) in
  for r = 1 to 3 do
    let k = Bft_crypto.Keychain.fresh_in_key chains.(r) rng ~peer:0 in
    ignore (Bft_crypto.Keychain.install_out_key chains.(0) ~peer:r k)
  done;
  let state64k = Bft_util.Rng.bytes rng 65_536 in
  let tests =
    [
      Test.make ~name:"sha256 64B" (Staged.stage (fun () -> Bft_crypto.Sha256.digest msg64));
      Test.make ~name:"sha256 4KB" (Staged.stage (fun () -> Bft_crypto.Sha256.digest msg4k));
      Test.make ~name:"hmac tag 32B digest"
        (Staged.stage (fun () -> Bft_crypto.Hmac.mac_digest key 8 digest));
      Test.make ~name:"authenticator n=4"
        (Staged.stage (fun () ->
             Bft_crypto.Auth.compute_authenticator chains.(0) ~receivers:[ 0; 1; 2; 3 ] digest));
      Test.make ~name:"signature 32B digest"
        (Staged.stage (fun () -> Bft_crypto.Signature.sign signer digest));
      Test.make ~name:"partition tree 64KB"
        (Staged.stage (fun () -> Partition_tree.build ~seq:1 ~page_size:4096 ~branching:16 state64k));
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  row "%-22s %14s" "component" "ns/op";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let stats = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> row "%-22s %14.1f" name est
          | _ -> row "%-22s %14s" name "n/a")
        stats)
    tests

(* ------------------------------------------------------------------ *)
(* Ablations of our own design choices (DESIGN.md): checkpoint interval,  *)
(* sliding window, and behaviour under network loss.                      *)
(* ------------------------------------------------------------------ *)

let a1 () =
  section "A1: checkpoint interval sweep (tput 0/0, 20 clients)";
  row "%-6s %16s %18s" "K" "tput [ops/s]" "checkpoints taken";
  List.iter
    (fun k ->
      let cfg = Config.make ~checkpoint_interval:k ~f:1 () in
      let c = Cluster.create ~seed:42L ~num_clients:20 cfg in
      let completed = ref 0 in
      let rec pump i ~result:_ ~latency_us:_ =
        incr completed;
        Client.invoke (Cluster.client c i) ~op:(null 0 0) (pump i)
      in
      for i = 0 to 19 do
        Client.invoke (Cluster.client c i) ~op:(null 0 0) (pump i)
      done;
      Cluster.run ~timeout_us:50_000.0 c;
      let base = !completed in
      let t0 = Engine.now (Cluster.engine c) in
      Engine.run ~until:(Int64.add t0 (Engine.of_us_float 300_000.0)) (Cluster.engine c);
      let tput = float_of_int (!completed - base) *. 1_000_000.0 /. 300_000.0 in
      row "%-6d %16.0f %18d" k tput
        (Replica.counters (Cluster.replica c 0)).Replica.n_checkpoints)
    [ 8; 32; 128; 512 ];
  row "tradeoff: small K = frequent digesting; large K = more redo after faults"

let a2 () =
  section "A2: sliding-window sweep (tput 0/0, 50 clients)";
  row "%-8s %16s" "window" "tput [ops/s]";
  List.iter
    (fun w ->
      let cfg = Config.make ~window:w ~f:1 () in
      let tput = throughput ~cfg ~clients:50 (null 0 0) in
      row "%-8d %16.0f" w tput)
    [ 1; 4; 16; 64 ];
  row "tradeoff: tiny windows force batching but serialize instances"

let a3 () =
  section "A3: message loss sweep (latency and throughput, 0/0)";
  row "%-8s %12s %12s %14s" "loss" "p50 [us]" "p99 [us]" "tput [ops/s]";
  List.iter
    (fun loss ->
      let cfg = Config.make ~f:1 () in
      let c = Cluster.create ~seed:42L ~num_clients:1 cfg in
      Bft_net.Network.set_loss_rate (Cluster.network c) loss;
      let stats = Bft_util.Stats.create () in
      for _ = 1 to 40 do
        let _, l =
          Cluster.invoke_sync_latency ~timeout_us:120_000_000.0 c ~client:0 (null 0 0)
        in
        Bft_util.Stats.add stats l
      done;
      let c2 = Cluster.create ~seed:43L ~num_clients:10 cfg in
      Bft_net.Network.set_loss_rate (Cluster.network c2) loss;
      let completed = ref 0 in
      let rec pump i ~result:_ ~latency_us:_ =
        incr completed;
        Client.invoke (Cluster.client c2 i) ~op:(null 0 0) (pump i)
      in
      for i = 0 to 9 do
        Client.invoke (Cluster.client c2 i) ~op:(null 0 0) (pump i)
      done;
      let t0 = Engine.now (Cluster.engine c2) in
      Engine.run ~until:(Int64.add t0 (Engine.of_us_float 500_000.0)) (Cluster.engine c2);
      let tput = float_of_int !completed *. 1_000_000.0 /. 500_000.0 in
      row "%-8.2f %12.0f %12.0f %14.0f" loss (Bft_util.Stats.median stats)
        (Bft_util.Stats.percentile stats 0.99) tput)
    [ 0.0; 0.01; 0.05; 0.10 ];
  row "shape: the retransmission machinery degrades gracefully with loss"

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("C0", component_benchmarks);
    ("E1", e1);
    ("E2", e2);
    ("E3", e3);
    ("E4", e4);
    ("E5", e5);
    ("E6", e6);
    ("E7", e7);
    ("E8", e8);
    ("E9", e9);
    ("E10", e10);
    ("E11", e11);
    ("E12", e12);
    ("E13", e13);
    ("A1", a1);
    ("A2", a2);
    ("A3", a3);
  ]

let () =
  let requested = List.tl (Array.to_list Sys.argv) in
  let to_run =
    if requested = [] then experiments
    else List.filter (fun (name, _) -> List.mem name requested) experiments
  in
  if to_run = [] then begin
    Printf.eprintf "unknown experiment; available: %s\n"
      (String.concat " " (List.map fst experiments));
    exit 1
  end;
  Printf.printf "BFT reproduction benchmarks (virtual-time measurements; see EXPERIMENTS.md)\n";
  List.iter (fun (_, f) -> f ()) to_run
