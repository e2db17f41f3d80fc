(* The unreplicated baseline server: plain request/reply with the same cost
   model, used to isolate replication overhead in every comparison bench. *)

open Bft_core

let null a r = Bft_sm.Null_service.op ~read_only:false ~arg_size:a ~result_size:r

let test_basic_request () =
  let b = Baseline.create () in
  let result, latency = Baseline.invoke_sync b ~client:0 (null 0 16) in
  Alcotest.(check int) "result size" 16 (String.length result);
  Alcotest.(check bool) "positive latency" true (latency > 0.0)

let test_sequence_and_state () =
  let b = Baseline.create ~service:(fun () -> Bft_sm.Counter_service.create ()) () in
  for i = 1 to 10 do
    Alcotest.(check string) "inc" (string_of_int i) (fst (Baseline.invoke_sync b ~client:0 "inc"))
  done

let test_multiple_clients () =
  let b = Baseline.create ~service:(fun () -> Bft_sm.Counter_service.create ()) ~num_clients:3 () in
  let results = ref [] in
  for round = 1 to 4 do
    for k = 0 to 2 do
      Baseline.invoke b ~client:k "inc" (fun ~result ~latency_us:_ ->
          results := int_of_string result :: !results)
    done;
    ignore
      (Baseline.run_until ~timeout_us:1_000_000.0 b (fun () ->
           List.length !results >= 3 * round))
  done;
  ignore (Baseline.run_until ~timeout_us:1_000_000.0 b (fun () -> List.length !results = 12));
  Alcotest.(check (list int)) "all increments distinct" (List.init 12 (fun i -> i + 1))
    (List.sort compare !results);
  Alcotest.(check int) "per-client completion" 4 (Baseline.client_completed b 0)

let test_latency_below_bft () =
  let b = Baseline.create () in
  ignore (Baseline.invoke_sync b ~client:0 (null 0 0));
  let _, base = Baseline.invoke_sync b ~client:0 (null 0 0) in
  let cfg = Config.make ~f:1 () in
  let c = Cluster.create ~num_clients:1 cfg in
  ignore (Cluster.invoke_sync c ~client:0 (null 0 0));
  let _, bft = Cluster.invoke_sync_latency c ~client:0 (null 0 0) in
  Alcotest.(check bool)
    (Printf.sprintf "baseline %.0f < bft %.0f" base bft)
    true (base < bft)

let test_latency_scales_with_size () =
  let b = Baseline.create () in
  ignore (Baseline.invoke_sync b ~client:0 (null 0 0));
  let _, small = Baseline.invoke_sync b ~client:0 (null 0 0) in
  let _, big = Baseline.invoke_sync b ~client:0 (null 8192 0) in
  Alcotest.(check bool) "8KB arg slower" true (big > small +. 100.0)

let test_single_outstanding () =
  let b = Baseline.create () in
  Baseline.invoke b ~client:0 (null 0 0) (fun ~result:_ ~latency_us:_ -> ());
  Alcotest.check_raises "second invoke rejected"
    (Invalid_argument "Baseline.invoke: request outstanding") (fun () ->
      Baseline.invoke b ~client:0 (null 0 0) (fun ~result:_ ~latency_us:_ -> ()));
  ignore (Baseline.run_until ~timeout_us:100_000.0 b (fun () -> false))

(* The virtual charges are the cost model's, whatever the host hashes or
   MACs: the client's digest charge is sized by the request's encoding and
   the server's by the envelope's bytes, never by the 32-byte digest the
   MACs cover. Pinned exactly (int64 ns of virtual time) at default costs,
   one op of each shape in turn on one baseline. *)
let test_pinned_virtual_latency () =
  let b = Baseline.create () in
  let e = Baseline.engine b in
  let latency op =
    let start = Bft_sim.Engine.now e and finish = ref None in
    Baseline.invoke b ~client:0 op (fun ~result:_ ~latency_us:_ ->
        finish := Some (Bft_sim.Engine.now e));
    ignore (Baseline.run_until b (fun () -> Option.is_some !finish));
    Int64.sub (Option.get !finish) start
  in
  List.iter
    (fun (label, op, expect) -> Alcotest.(check int64) label expect (latency op))
    [ ("0/0", null 0 0, 161_742L); ("4K/0", null 4096 0, 557_741L); ("0/4K", null 0 4096, 513_690L) ]

let suites =
  [
    ( "core.baseline",
      [
        Alcotest.test_case "basic request" `Quick test_basic_request;
        Alcotest.test_case "sequence" `Quick test_sequence_and_state;
        Alcotest.test_case "multiple clients" `Quick test_multiple_clients;
        Alcotest.test_case "cheaper than BFT" `Quick test_latency_below_bft;
        Alcotest.test_case "size scaling" `Quick test_latency_scales_with_size;
        Alcotest.test_case "single outstanding" `Quick test_single_outstanding;
        Alcotest.test_case "pinned virtual latency" `Quick test_pinned_virtual_latency;
      ] );
  ]
