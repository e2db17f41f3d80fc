(* bftbench: the repository benchmark.

   Usage: bftbench --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 repeats untraced trials of the workload for S seconds (at
   least three, which must agree exactly: the determinism self-check) and
   prints the end-to-end metrics. --trace 1 runs two untraced trials (a
   cold one, then the reference), then traced trials for the rest of S
   seconds, checks that each reproduces the reference's history digest
   and virtual-time metrics, and prints the per-layer metrics. Every run checks the workload's
   outputs. The last line of standard output is one JSON object
   {correct, attempted, failed, metrics}; the lines before it state the
   workload config, the cost model and every metric with its unit. Exit 0
   when every check passed, 1 when one failed, 2 on a usage error. *)

open Meter
module W = Workloads

let end_to_end =
  [
    ("setup_s", "s");
    ("host_tput_per_s", "1/s");
    ("vlat_p50_us", "us");
    ("vlat_p99_us", "us");
    ("vtput_ops_per_vsec", "1/s");
    ("vlat_vs_unrepl_x", "x");
    ("vstall_p95_ms", "ms");
    ("peak_heap_mb", "MiB");
  ]

let per_layer =
  [
    ("engine.events_per_op", "count");
    ("engine.step_us_mean", "us");
    ("engine.step_us_p99", "us");
    ("engine.heap_max", "count");
    ("network.msgs_per_op", "count");
    ("network.bytes_per_op", "B");
    ("network.backlog_hwm_max", "count");
    ("network.dropped", "count");
    ("wire.encode_ns_per_byte", "ns/B");
    ("wire.decode_ns_per_byte", "ns/B");
    ("crypto.digest_ns_per_byte", "ns/B");
    ("crypto.mac_ns_per_msg", "ns");
    ("crypto.vpool_items_per_op", "count");
    ("replica.ops_per_batch", "count");
    ("replica.vwait_preprep_us", "us");
    ("replica.vwait_prepared_us", "us");
    ("replica.vwait_committed_us", "us");
    ("replica.vwait_executed_us", "us");
    ("replica.view_changes", "count");
    ("replica.state_transfers", "count");
    ("replica.bytes_fetched", "B");
    ("checkpoint.bytes_per_ckpt", "B");
    ("checkpoint.dirty_page_frac", "frac");
    ("service.snapshot_us", "us");
    ("service.execute_us_mean", "us");
    ("service.executes_per_op", "count");
    ("client.retx_per_op", "count");
    ("client.gen_late_p99_us", "us");
    ("check.generate_s", "s");
    ("check.prepare_s", "s");
    ("check.run_s", "s");
    ("check.oracle_s", "s");
    ("explore.states_per_s", "1/s");
    ("explore.por_prune_ratio", "frac");
    ("explore.hash_pruned", "count");
    ("explore.state_digest_us", "us");
    ("gc.minor_words_per_op", "words");
    ("gc.promoted_words_per_op", "words");
    ("sim.host_cost_growth", "x");
    ("trace.overhead_frac", "frac");
    ("trace.unattributed_frac", "frac");
  ]

let usage () =
  prerr_endline
    ("usage: bftbench --workload "
    ^ String.concat "|" (List.map (fun w -> w.W.name) W.all)
    ^ " --seed N --seconds S --trace 0|1");
  exit 2

(* One trial from a clean slate: the wire layer's memo tables emptied, so
   no trial inherits another's cached digests, and the previous trial's
   garbage collected, so no trial pays for another's. *)
let trial w ~seed trace =
  Bft_core.Wire.clear_memos ();
  Gc.compact ();
  w.W.trial ~seed trace

let same_run (a : W.outcome) (b : W.outcome) =
  String.equal a.W.digest b.W.digest
  && List.equal
       (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && Float.equal v1 v2)
       a.W.virt b.W.virt

(* Trials until [seconds] have passed since [t0] and at least [min] ran. *)
let repeat ~t0 ~seconds ~min f =
  let rec go acc =
    let acc = f () :: acc in
    if List.length acc >= min && secs_since t0 >= seconds then List.rev acc else go acc
  in
  go []

let untraced w ~seed ~seconds =
  let t0 = now_ns () in
  let runs = repeat ~t0 ~seconds ~min:3 (fun () -> trial w ~seed None) in
  let first = List.hd runs in
  let errors =
    if List.for_all (same_run first) runs then []
    else [ "determinism: same-seed trials disagree on digest or virtual-time metrics" ]
  in
  let metrics =
    [
      ("setup_s", median (List.map (fun o -> o.W.setup_s) runs));
      ("host_tput_per_s", first.W.units /. best_seconds (List.map (fun o -> o.W.clock) runs));
    ]
    @ first.W.virt
    @ [ ("peak_heap_mb", first.W.heap_mb) ]
  in
  (runs, errors, metrics)

let traced w ~seed ~seconds =
  let t0 = now_ns () in
  (* the first trial in a process runs cold; the second is the reference
     the traced trials are compared against *)
  let cold = trial w ~seed None in
  let g0 = Gc.quick_stat () in
  let reference = trial w ~seed None in
  let g1 = Gc.quick_stat () in
  (* host cost per unit in the last quarter of the run over the first *)
  let growth =
    let quarter q =
      List.map
        (fun (o : W.outcome) ->
          let n = Array.length o.W.clock.marks - 1 in
          sub_clock o.W.clock (q * n / 4) ((q * n / 4) + (n / 4)))
        [ cold; reference ]
    in
    if Array.length reference.W.clock.marks < 9 then 0.0
    else best_seconds (quarter 3) /. best_seconds (quarter 0)
  in
  let per_op x = x /. float_of_int (max 1 reference.W.ops) in
  let gc =
    [
      ("gc.minor_words_per_op", per_op (g1.Gc.minor_words -. g0.Gc.minor_words));
      ("gc.promoted_words_per_op", per_op (g1.Gc.promoted_words -. g0.Gc.promoted_words));
    ]
  in
  let runs =
    repeat ~t0 ~seconds ~min:1 (fun () ->
        let tr = new_trace () in
        (trial w ~seed (Some tr), tr))
  in
  let errors =
    if List.for_all (fun (o, _) -> same_run reference o) runs then []
    else [ "tracing: a traced trial's digest or virtual-time metrics differ from untraced" ]
  in
  let layers (o, tr) =
    let ops = float_of_int (max 1 o.W.ops) in
    let enc, dec, dig, mac = replay_costs tr.captured in
    let covered =
      Samples.sum tr.steps
      +. List.fold_left
           (fun a k -> a +. span_ns tr k)
           0.0
           [ "check.generate"; "check.prepare"; "check.oracle" ]
    in
    let mean_us ns k = if k = 0 then 0.0 else ns /. float_of_int k /. 1000.0 in
    [
      ("engine.step_us_mean", Samples.mean tr.steps /. 1000.0);
      ("engine.step_us_p99", Samples.percentile tr.steps 0.99 /. 1000.0);
      ("wire.encode_ns_per_byte", enc);
      ("wire.decode_ns_per_byte", dec);
      ("crypto.digest_ns_per_byte", dig);
      ("crypto.mac_ns_per_msg", mac);
      ("service.snapshot_us", mean_us tr.snap_ns tr.snaps);
      ("service.execute_us_mean", mean_us tr.exec_ns tr.execs);
      ("service.executes_per_op", float_of_int tr.execs /. ops);
      ("sim.host_cost_growth", growth);
      ("trace.overhead_frac", (o.W.host_s /. reference.W.host_s) -. 1.0);
      ("trace.unattributed_frac", 1.0 -. (covered /. (o.W.host_s *. 1e9)));
    ]
    @ o.W.layers
  in
  let per_run = List.map (fun r -> gc @ layers r) runs in
  let value name =
    let vs = List.filter_map (List.assoc_opt name) per_run in
    if vs = [] then 0.0 else List.fold_left ( +. ) 0.0 vs /. float_of_int (List.length vs)
  in
  (reference :: List.map fst runs, errors, List.map (fun (k, _) -> (k, value k)) per_layer)

let json_metrics units metrics =
  String.concat ", "
    (List.map
       (fun (k, u) ->
         let v = Option.value (List.assoc_opt k metrics) ~default:0.0 in
         let v = if Float.is_finite v then v else 0.0 in
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" k v u)
       units)

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string_opt v; parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let w =
    match List.find_opt (fun w -> String.equal w.W.name !workload) W.all with
    | Some w -> w
    | None -> usage ()
  in
  let seed, seconds, traced_run =
    match (!seed, !seconds, !trace) with
    | Some s, Some t, Some (0 | 1 as tr) when t > 0.0 -> (s, t, tr = 1)
    | _ -> usage ()
  in
  Bft_crypto.Vpool.set_default_domains 1;
  let c = Bft_net.Costs.default in
  Printf.printf "workload %s seed %d: %s\n" w.W.name seed w.W.config;
  Printf.printf
    "cost model (virtual us): wire_latency %.1f + %.3f/B, jitter <= %.1f, send/recv %.1f/%.1f \
     + %.4f/B, mac %.2f, digest %.1f + %.4f/B\n"
    c.Bft_net.Costs.wire_latency_us c.Bft_net.Costs.wire_per_byte_us c.Bft_net.Costs.jitter_us
    c.Bft_net.Costs.send_fixed_us c.Bft_net.Costs.recv_fixed_us c.Bft_net.Costs.cpu_per_byte_us
    c.Bft_net.Costs.mac_us c.Bft_net.Costs.digest_fixed_us c.Bft_net.Costs.digest_per_byte_us;
  let runs, errors, metrics, units =
    try
      let runs, errors, metrics =
        (if traced_run then traced else untraced) w ~seed ~seconds
      in
      (runs, errors, metrics, if traced_run then per_layer else end_to_end)
    with Failure e -> ([], [ e ], [], [])
  in
  let errors = List.concat_map (fun o -> o.W.errors) runs @ errors in
  let attempted = List.fold_left (fun a o -> a + o.W.attempted) 0 runs in
  let failed = List.fold_left (fun a o -> a + o.W.failed) 0 runs + List.length errors in
  List.iter (fun e -> Printf.eprintf "bftbench: FAIL %s\n" e) errors;
  List.iteri
    (fun i o ->
      Printf.printf
        "trial %d: %.0f units in %.3f host s (%.3f rescaled, %d calibrations), setup %.4f s, \
         digest %s\n"
        i o.W.units o.W.host_s (rescaled_seconds o.W.clock)
        (Array.length o.W.clock.cal_ns)
        o.W.setup_s o.W.digest)
    runs;
  List.iter
    (fun (k, u) ->
      Printf.printf "  %-28s %14.4f %s\n" k
        (Option.value (List.assoc_opt k metrics) ~default:0.0)
        u)
    units;
  Option.iter
    (Printf.printf "  latency percentiles over %.0f per-request samples\n")
    (List.assoc_opt "vlat_samples" metrics);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (errors = []) (max 1 attempted) failed (json_metrics units metrics);
  exit (if errors = [] then 0 else 1)
