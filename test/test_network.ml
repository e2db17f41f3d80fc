(* Simulated network: delivery, faults, CPU accounting. *)

module Engine = Bft_sim.Engine
module Network = Bft_net.Network
module Costs = Bft_net.Costs

let setup ?(costs = Costs.free) ?(seed = 1L) n =
  let engine = Engine.create ~seed () in
  let net = Network.create ~engine ~costs ~rng:(Bft_util.Rng.create 7L) () in
  let inboxes = Array.make n [] in
  for i = 0 to n - 1 do
    Network.add_node net ~id:i ~handler:(fun msg -> inboxes.(i) <- msg :: inboxes.(i))
  done;
  (engine, net, inboxes)

let test_point_to_point () =
  let engine, net, inboxes = setup 2 in
  Network.send net ~src:0 ~dst:1 ~size:100 "hello";
  Engine.run engine;
  Alcotest.(check (list string)) "delivered" [ "hello" ] inboxes.(1);
  Alcotest.(check (list string)) "not to sender" [] inboxes.(0);
  Alcotest.(check int) "stat sent" 1 (Network.stats net).Network.sent;
  Alcotest.(check int) "stat delivered" 1 (Network.stats net).Network.delivered;
  Alcotest.(check int) "stat bytes" 100 (Network.stats net).Network.bytes_sent

let test_multicast_with_self () =
  let engine, net, inboxes = setup 3 in
  Network.multicast net ~src:0 ~dsts:[ 0; 1; 2 ] ~size:10 "m";
  Engine.run engine;
  Array.iteri
    (fun i inbox -> Alcotest.(check int) (Printf.sprintf "node %d" i) 1 (List.length inbox))
    inboxes

let test_unknown_node_rejected () =
  let _, net, _ = setup 1 in
  Alcotest.check_raises "unknown" (Invalid_argument "Network: unknown node 9") (fun () ->
      Network.send net ~src:0 ~dst:9 ~size:1 "x")

let test_loss () =
  let engine, net, inboxes = setup 2 in
  Network.set_loss_rate net 1.0;
  for _ = 1 to 20 do
    Network.send net ~src:0 ~dst:1 ~size:1 "x"
  done;
  Engine.run engine;
  Alcotest.(check int) "all lost" 0 (List.length inboxes.(1));
  Alcotest.(check int) "dropped counted" 20 (Network.stats net).Network.dropped

let test_duplication () =
  let engine, net, inboxes = setup 2 in
  Network.set_dup_rate net 1.0;
  Network.send net ~src:0 ~dst:1 ~size:1 "x";
  Engine.run engine;
  Alcotest.(check int) "delivered twice" 2 (List.length inboxes.(1))

let test_partition_and_heal () =
  let engine, net, inboxes = setup 4 in
  Network.partition net [ 0; 1 ] [ 2; 3 ];
  Network.send net ~src:0 ~dst:2 ~size:1 "blocked";
  Network.send net ~src:0 ~dst:1 ~size:1 "same-side";
  Engine.run engine;
  Alcotest.(check int) "across partition blocked" 0 (List.length inboxes.(2));
  Alcotest.(check int) "same side ok" 1 (List.length inboxes.(1));
  Network.heal net;
  Network.send net ~src:0 ~dst:2 ~size:1 "after-heal";
  Engine.run engine;
  Alcotest.(check int) "after heal" 1 (List.length inboxes.(2))

let test_crash_restart () =
  let engine, net, inboxes = setup 2 in
  Network.crash net ~id:1;
  Alcotest.(check bool) "crashed" true (Network.is_crashed net ~id:1);
  Network.send net ~src:0 ~dst:1 ~size:1 "lost";
  Network.send net ~src:1 ~dst:0 ~size:1 "suppressed";
  Engine.run engine;
  Alcotest.(check int) "to crashed lost" 0 (List.length inboxes.(1));
  Alcotest.(check int) "from crashed suppressed" 0 (List.length inboxes.(0));
  Network.restart net ~id:1;
  Network.send net ~src:0 ~dst:1 ~size:1 "back";
  Engine.run engine;
  Alcotest.(check int) "after restart" 1 (List.length inboxes.(1))

let test_adversary () =
  let engine, net, inboxes = setup 3 in
  Network.set_adversary net (fun ~src:_ ~dst msg ->
      if dst = 1 then `Drop else if String.equal msg "slow" then `Delay 1000.0 else `Pass);
  Network.send net ~src:0 ~dst:1 ~size:1 "x";
  Network.send net ~src:0 ~dst:2 ~size:1 "slow";
  Engine.run engine;
  Alcotest.(check int) "adversary drop" 0 (List.length inboxes.(1));
  Alcotest.(check int) "adversary delay still delivers" 1 (List.length inboxes.(2));
  Alcotest.(check bool) "delay applied" true (Engine.to_us (Engine.now engine) >= 1000.0);
  Network.clear_adversary net;
  Network.send net ~src:0 ~dst:1 ~size:1 "y";
  Engine.run engine;
  Alcotest.(check int) "cleared" 1 (List.length inboxes.(1))

let test_wire_time_scales_with_size () =
  let costs = { Costs.free with Costs.wire_latency_us = 10.0; wire_per_byte_us = 1.0 } in
  let engine, net, _ = setup ~costs 2 in
  Network.send net ~src:0 ~dst:1 ~size:100 "big";
  Engine.run engine;
  (* arrival at 10 + 100*1 us *)
  Alcotest.(check (float 0.001)) "wire time" 110.0 (Engine.to_us (Engine.now engine))

let test_cpu_serialization () =
  (* two back-to-back deliveries to a node whose handler charges CPU must
     be processed sequentially (single-server queue) *)
  let costs = { Costs.free with Costs.recv_fixed_us = 0.0 } in
  let engine = Engine.create () in
  let net = Network.create ~engine ~costs ~rng:(Bft_util.Rng.create 1L) () in
  let times = ref [] in
  Network.add_node net ~id:0 ~handler:(fun () -> ());
  Network.add_node net ~id:1
    ~handler:(fun () ->
      times := Engine.to_us (Engine.now engine) :: !times;
      Network.charge net ~id:1 50.0);
  Network.send net ~src:0 ~dst:1 ~size:0 ();
  Network.send net ~src:0 ~dst:1 ~size:0 ();
  Engine.run engine;
  match List.rev !times with
  | [ t1; t2 ] ->
      Alcotest.(check bool) "second waits for cpu" true (t2 -. t1 >= 50.0)
  | l -> Alcotest.failf "expected 2 deliveries, got %d" (List.length l)

let test_charge_monotone () =
  let engine, net, _ = setup 1 in
  Network.charge net ~id:0 100.0;
  let b1 = Network.busy_until net ~id:0 in
  Network.charge net ~id:0 50.0;
  let b2 = Network.busy_until net ~id:0 in
  Alcotest.(check bool) "accumulates" true (Int64.compare b2 b1 > 0);
  Alcotest.(check (float 0.01)) "sum" 150.0 (Engine.to_us b2);
  ignore engine

let test_range_cpu_per_id () =
  (* a range of k ids keeps one CPU per id: a 100us charge advances the
     shared record by 100/k us, and reset_faults restores that factor
     after an adversary profile slowed the range down *)
  let k = 4 in
  let _, net, _ = setup 1 in
  Network.add_node_range net ~first:10 ~last:(10 + k - 1) ~handler:(fun _ _ -> ());
  let advance () =
    let before = Network.busy_until net ~id:11 in
    Network.charge net ~id:12 100.0;
    Engine.to_us (Int64.sub (Network.busy_until net ~id:11) before)
  in
  let per_id = 100.0 /. float_of_int k in
  Alcotest.(check (float 0.0)) "charge costs 1/k" per_id (advance ());
  Network.set_cpu_factor net ~id:10 3.0;
  Alcotest.(check (float 0.0)) "slowed" 300.0 (advance ());
  Network.reset_faults net;
  Alcotest.(check (float 0.0)) "reset restores 1/k" per_id (advance ())

let test_reordering_with_jitter () =
  (* with jitter enabled, a burst of messages can arrive out of order *)
  let costs = { Costs.free with Costs.jitter_us = 100.0 } in
  let engine, net, inboxes = setup ~costs ~seed:5L 2 in
  for i = 0 to 19 do
    Network.send net ~src:0 ~dst:1 ~size:0 (string_of_int i)
  done;
  Engine.run engine;
  let received = List.rev_map int_of_string inboxes.(1) in
  Alcotest.(check int) "all arrived" 20 (List.length received);
  Alcotest.(check bool) "some reordering happened" true
    (received <> List.sort compare received)

let suites =
  [
    ( "net.network",
      [
        Alcotest.test_case "point to point" `Quick test_point_to_point;
        Alcotest.test_case "multicast with self" `Quick test_multicast_with_self;
        Alcotest.test_case "unknown node" `Quick test_unknown_node_rejected;
        Alcotest.test_case "loss" `Quick test_loss;
        Alcotest.test_case "duplication" `Quick test_duplication;
        Alcotest.test_case "partition/heal" `Quick test_partition_and_heal;
        Alcotest.test_case "crash/restart" `Quick test_crash_restart;
        Alcotest.test_case "adversary" `Quick test_adversary;
        Alcotest.test_case "wire time" `Quick test_wire_time_scales_with_size;
        Alcotest.test_case "cpu serialization" `Quick test_cpu_serialization;
        Alcotest.test_case "charge monotone" `Quick test_charge_monotone;
        Alcotest.test_case "range cpu per id" `Quick test_range_cpu_per_id;
        Alcotest.test_case "jitter reordering" `Quick test_reordering_with_jitter;
      ] );
  ]
