(* End-to-end protocol tests: normal case, optimizations, garbage
   collection, view changes, Byzantine behaviour, state transfer and
   proactive recovery — the correctness matrix of DESIGN.md experiment E14. *)

open Bft_core

let null_op ?(ro = false) ?(arg = 8) ?(res = 4) () =
  Bft_sm.Null_service.op ~read_only:ro ~arg_size:arg ~result_size:res

let counter () = Bft_sm.Counter_service.create ()
let kv () = Bft_sm.Kv_service.create ()

let make ?(f = 1) ?(seed = 42L) ?service ?(clients = 1) ?(k = 16) ?auth_mode
    ?(vc_timeout = 30_000.0) ?tentative ?digest_replies ?batching () =
  let cfg =
    Config.make ?auth_mode ?tentative_execution:tentative ?digest_replies
      ?batching ~checkpoint_interval:k ~vc_timeout_us:vc_timeout ~f ()
  in
  (cfg, Cluster.create ~seed ?service ~num_clients:clients cfg)

let all_equal_states c ids =
  match ids with
  | [] -> true
  | first :: rest ->
      let s0 = Replica.service_state (Cluster.replica c first) in
      List.for_all (fun i -> String.equal s0 (Replica.service_state (Cluster.replica c i))) rest

(* --- normal case --- *)

let test_single_request () =
  let _, c = make () in
  let r = Cluster.invoke_sync c ~client:0 (null_op ~res:10 ()) in
  Alcotest.(check int) "result size" 10 (String.length r);
  Alcotest.(check bool) "all executed" true
    (Array.for_all (fun r -> Replica.last_executed r = 1) (Cluster.replicas c))

let test_sequence_of_requests () =
  let _, c = make ~service:counter () in
  for i = 1 to 30 do
    Alcotest.(check string) "inc result" (string_of_int i) (Cluster.invoke_sync c ~client:0 "inc")
  done;
  Alcotest.(check bool) "consistent" true (Cluster.committed_histories_consistent c)

let test_multiple_clients_interleaved () =
  let _, c = make ~service:counter ~clients:4 () in
  let done_count = ref 0 in
  let results = ref [] in
  for k = 0 to 3 do
    for _ = 1 to 5 do
      ()
    done;
    ignore k
  done;
  (* issue 5 rounds of 4 concurrent increments *)
  for _round = 1 to 5 do
    for k = 0 to 3 do
      Client.invoke (Cluster.client c k) ~op:"inc" (fun ~result ~latency_us:_ ->
          incr done_count;
          results := int_of_string result :: !results)
    done;
    ignore
      (Cluster.run_until ~timeout_us:5_000_000.0 c (fun () -> !done_count mod 4 = 0 && !done_count > 0));
    done_count := 0
  done;
  ignore (Cluster.run_until ~timeout_us:5_000_000.0 c (fun () -> List.length !results >= 20));
  (* all 20 increments linearized: results are a permutation of 1..20 *)
  Alcotest.(check (list int)) "permutation of 1..20" (List.init 20 (fun i -> i + 1))
    (List.sort compare !results);
  Alcotest.(check bool) "consistent" true (Cluster.committed_histories_consistent c)

let test_exactly_once_under_duplication () =
  let _, c = make ~service:counter () in
  Bft_net.Network.set_dup_rate (Cluster.network c) 0.5;
  for i = 1 to 20 do
    Alcotest.(check string) "no double increment" (string_of_int i)
      (Cluster.invoke_sync ~timeout_us:20_000_000.0 c ~client:0 "inc")
  done

let test_exactly_once_under_loss () =
  let _, c = make ~service:counter () in
  Bft_net.Network.set_loss_rate (Cluster.network c) 0.15;
  Bft_net.Network.set_jitter_us (Cluster.network c) 300.0;
  for i = 1 to 20 do
    Alcotest.(check string) "retransmissions do not re-execute" (string_of_int i)
      (Cluster.invoke_sync ~timeout_us:30_000_000.0 c ~client:0 "inc")
  done;
  Alcotest.(check bool) "consistent" true (Cluster.committed_histories_consistent c)

let test_large_argument_separate_transmission () =
  let _, c = make () in
  (* an 8KB argument exceeds the 255-byte inlining threshold *)
  let r = Cluster.invoke_sync c ~client:0 (null_op ~arg:8192 ~res:4 ()) in
  Alcotest.(check int) "executed" 4 (String.length r);
  Alcotest.(check bool) "all replicas executed it" true
    (Array.for_all (fun r -> Replica.last_executed r >= 1) (Cluster.replicas c))

let test_large_result_digest_replies () =
  let _, c = make () in
  let r = Cluster.invoke_sync c ~client:0 (null_op ~res:8192 ()) in
  Alcotest.(check int) "full result recovered from designated replier" 8192 (String.length r)

let test_digest_replies_save_bytes () =
  let run digest_replies =
    let _, c = make ~digest_replies () in
    ignore (Cluster.invoke_sync c ~client:0 (null_op ~res:8192 ()));
    (Bft_net.Network.stats (Cluster.network c)).Bft_net.Network.bytes_sent
  in
  let with_opt = run true and without = run false in
  Alcotest.(check bool)
    (Printf.sprintf "digest replies send fewer bytes (%d < %d)" with_opt without)
    true (with_opt < without)

let test_read_only_sees_committed_writes () =
  let _, c = make ~service:kv () in
  ignore (Cluster.invoke_sync c ~client:0 "put color red");
  Alcotest.(check string) "ro read" "red"
    (Cluster.invoke_sync c ~client:0 ~read_only:true "get color")

let test_read_only_mutation_rejected () =
  (* a faulty client marks a mutating op read-only; the service upcall
     refuses it (Section 5.1.3) *)
  let _, c = make ~service:kv () in
  let r = Cluster.invoke_sync c ~client:0 ~read_only:true "put sneaky write" in
  Alcotest.(check string) "rejected" Bft_sm.Service.invalid r;
  Alcotest.(check string) "no effect" "ENOENT" (Cluster.invoke_sync c ~client:0 "get sneaky")

let test_access_control () =
  let service () = Bft_sm.Kv_service.create ~restrict:[] () in
  let _, c = make ~service ~clients:1 () in
  (* client id is n + 0 = 4; not in the ACL *)
  Alcotest.(check string) "denied" Bft_sm.Service.denied
    (Cluster.invoke_sync c ~client:0 "put x 1")

let test_access_revocation_consistent () =
  (* Section 2.2: access control is enforced inside the replicated service,
     so a client outside the ACL gets a consistent, committed denial from
     every replica — it cannot mutate state even with a correct protocol
     exchange. (Grant/revoke state transitions are covered by the service
     unit tests; end-to-end we verify the denial is serialized.) *)
  let service () = Bft_sm.Kv_service.create ~restrict:[] () in
  let _, c = make ~service ~clients:2 () in
  Alcotest.(check string) "client 0 denied" Bft_sm.Service.denied
    (Cluster.invoke_sync c ~client:0 "put a 1");
  Alcotest.(check string) "client 1 denied" Bft_sm.Service.denied
    (Cluster.invoke_sync c ~client:1 "put b 2");
  Alcotest.(check string) "reads still open" "0"
    (Cluster.invoke_sync c ~client:0 ~read_only:true "size");
  Alcotest.(check bool) "denials committed consistently" true
    (all_equal_states c [ 0; 1; 2; 3 ])

let test_nondeterminism_agreed () =
  (* touch stores the agreed timestamp: all replicas must store the same
     value even though each has its own clock reading *)
  let _, c = make ~service:kv () in
  let v = Cluster.invoke_sync c ~client:0 "touch stamp" in
  Alcotest.(check bool) "some timestamp" true (String.length v > 0);
  Alcotest.(check bool) "replicas agree on state" true
    (all_equal_states c [ 0; 1; 2; 3 ])

(* --- garbage collection / checkpoints --- *)

let test_checkpoint_stability_and_gc () =
  let _, c = make ~k:8 ~service:counter () in
  for _ = 1 to 20 do
    ignore (Cluster.invoke_sync c ~client:0 "inc")
  done;
  ignore (Cluster.run_until ~timeout_us:2_000_000.0 c (fun () ->
      Array.for_all (fun r -> Replica.stable_checkpoint r = 16) (Cluster.replicas c)));
  Array.iter
    (fun r ->
      Alcotest.(check int)
        (Printf.sprintf "replica %d stable" (Replica.id r))
        16 (Replica.stable_checkpoint r))
    (Cluster.replicas c)

let test_f2_cluster () =
  let _, c = make ~f:2 ~service:counter () in
  for i = 1 to 10 do
    Alcotest.(check string) "inc" (string_of_int i) (Cluster.invoke_sync c ~client:0 "inc")
  done;
  Alcotest.(check int) "7 replicas" 7 (Array.length (Cluster.replicas c))

let test_bft_pk_mode () =
  let _, c = make ~auth_mode:Config.Sig_auth ~service:counter () in
  for i = 1 to 3 do
    Alcotest.(check string) "inc under signatures" (string_of_int i)
      (Cluster.invoke_sync ~timeout_us:120_000_000.0 c ~client:0 "inc")
  done

let test_no_tentative_execution_mode () =
  let _, c = make ~tentative:false ~service:counter () in
  for i = 1 to 5 do
    Alcotest.(check string) "inc" (string_of_int i) (Cluster.invoke_sync c ~client:0 "inc")
  done

let test_no_batching_mode () =
  let _, c = make ~batching:false ~service:counter () in
  for i = 1 to 5 do
    Alcotest.(check string) "inc" (string_of_int i) (Cluster.invoke_sync c ~client:0 "inc")
  done

(* --- fail-stop faults --- *)

let test_tolerates_f_crashed_backups () =
  let _, c = make ~service:counter () in
  Bft_net.Network.crash (Cluster.network c) ~id:2;
  for i = 1 to 10 do
    Alcotest.(check string) "progress with 3/4" (string_of_int i)
      (Cluster.invoke_sync ~timeout_us:20_000_000.0 c ~client:0 "inc")
  done

let test_view_change_on_crashed_primary () =
  let _, c = make ~service:counter () in
  ignore (Cluster.invoke_sync c ~client:0 "inc");
  Bft_net.Network.crash (Cluster.network c) ~id:0;
  Alcotest.(check string) "completes in new view" "2"
    (Cluster.invoke_sync ~timeout_us:30_000_000.0 c ~client:0 "inc");
  Alcotest.(check bool) "view advanced" true (Replica.view (Cluster.replica c 1) >= 1);
  Cluster.correct_replicas c := [ 1; 2; 3 ];
  Alcotest.(check bool) "consistent" true (Cluster.committed_histories_consistent c)

let test_view_change_muted_primary () =
  let _, c = make ~service:counter () in
  for _ = 1 to 3 do
    ignore (Cluster.invoke_sync c ~client:0 "inc")
  done;
  Replica.mute (Cluster.replica c 0) true;
  Alcotest.(check string) "progress after mute" "4"
    (Cluster.invoke_sync ~timeout_us:30_000_000.0 c ~client:0 "inc");
  (* un-mute: the old primary rejoins as a backup in the new view *)
  Replica.mute (Cluster.replica c 0) false;
  Alcotest.(check string) "old primary back" "5"
    (Cluster.invoke_sync ~timeout_us:30_000_000.0 c ~client:0 "inc");
  ignore (Cluster.run_until ~timeout_us:5_000_000.0 c (fun () ->
      Replica.last_executed (Cluster.replica c 0) >= 5));
  Alcotest.(check bool) "ex-primary caught up" true
    (Replica.last_executed (Cluster.replica c 0) >= 5)

let test_successive_view_changes () =
  (* kill the primaries of views 0 and 1 in turn (reviving the first, so a
     quorum always exists): the system must reach view 2 *)
  let _, c = make ~service:counter () in
  ignore (Cluster.invoke_sync c ~client:0 "inc");
  Bft_net.Network.crash (Cluster.network c) ~id:0;
  ignore (Cluster.invoke_sync ~timeout_us:30_000_000.0 c ~client:0 "inc");
  Bft_net.Network.restart (Cluster.network c) ~id:0;
  Replica.crash_reboot (Cluster.replica c 0);
  ignore
    (Cluster.run_until ~timeout_us:10_000_000.0 c (fun () ->
         Replica.last_executed (Cluster.replica c 0) >= 2));
  Bft_net.Network.crash (Cluster.network c) ~id:1;
  Alcotest.(check string) "view 2 serves" "3"
    (Cluster.invoke_sync ~timeout_us:60_000_000.0 c ~client:0 "inc");
  Alcotest.(check bool) "view >= 2" true (Replica.view (Cluster.replica c 2) >= 2)

let test_view_change_preserves_committed () =
  let _, c = make ~service:kv () in
  ignore (Cluster.invoke_sync c ~client:0 "put survived yes");
  Replica.mute (Cluster.replica c 0) true;
  ignore (Cluster.invoke_sync ~timeout_us:30_000_000.0 c ~client:0 "put extra 1");
  Alcotest.(check string) "committed data preserved across views" "yes"
    (Cluster.invoke_sync ~timeout_us:30_000_000.0 c ~client:0 "get survived")

(* --- Byzantine faults --- *)

let test_byzantine_primary_safety () =
  let _, c = make ~service:counter () in
  Replica.byzantine_equivocate (Cluster.replica c 0) true;
  Cluster.correct_replicas c := [ 1; 2; 3 ];
  (* 20 ops cross a checkpoint boundary (K = 16), so the backup that was
     fed conflicting assignments can repair itself via state transfer *)
  for i = 1 to 20 do
    Alcotest.(check string) "progress despite equivocation" (string_of_int i)
      (Cluster.invoke_sync ~timeout_us:60_000_000.0 c ~client:0 "inc")
  done;
  Alcotest.(check bool) "no conflicting commits" true
    (Cluster.committed_histories_consistent c);
  ignore
    (Cluster.run_until ~timeout_us:30_000_000.0 c (fun () ->
         List.for_all
           (fun i -> Replica.last_executed (Cluster.replica c i) >= 16)
           [ 1; 2; 3 ]));
  Alcotest.(check bool) "victim backup repaired via state transfer" true
    (Replica.last_executed (Cluster.replica c 2) >= 16)

let test_byzantine_primary_view_change_linearizable () =
  (* a primary that turns byzantine mid-run first equivocates, then falls
     silent — both within the fault model's "arbitrary behaviour". The
     cluster must complete the resulting view change and the correct
     replicas' committed history must remain linearizable (checked against
     replica 1, since replica 0 is the faulty one) *)
  let _, c = make ~service:kv ~clients:2 () in
  for i = 1 to 4 do
    ignore (Cluster.invoke_sync c ~client:0 (Printf.sprintf "put k%d v%d" i i))
  done;
  let primary = Cluster.replica c 0 in
  Replica.byzantine_equivocate primary true;
  Cluster.correct_replicas c := [ 1; 2; 3 ];
  for i = 5 to 8 do
    ignore
      (Cluster.invoke_sync ~timeout_us:60_000_000.0 c ~client:0 (Printf.sprintf "put k%d v%d" i i))
  done;
  Replica.mute primary true;
  for i = 9 to 12 do
    ignore
      (Cluster.invoke_sync ~timeout_us:60_000_000.0 c ~client:1 (Printf.sprintf "put k%d v%d" i i))
  done;
  Alcotest.(check bool) "view advanced" true (Replica.view (Cluster.replica c 1) >= 1);
  Alcotest.(check bool) "histories consistent" true (Cluster.committed_histories_consistent c);
  match Cluster.check_linearizable ~replica:1 c ~service:kv with
  | Ok () -> ()
  | Error e -> Alcotest.failf "linearizability after byzantine primary: %s" e

let test_byzantine_client_partial_auth () =
  let _, c = make ~service:kv ~clients:2 () in
  Client.byzantine_partial_auth (Cluster.client c 1) true;
  Alcotest.(check string) "request with partial MACs still serialized" "ok"
    (Cluster.invoke_sync ~timeout_us:30_000_000.0 c ~client:1 "put from byz-client");
  Alcotest.(check bool) "replicas agree" true (all_equal_states c [ 0; 1; 2; 3 ])

let test_forged_signature_rejected () =
  (* a request signed with a forged signature must never execute *)
  let cfg, c = make ~auth_mode:Config.Sig_auth ~service:counter () in
  let net = Cluster.network c in
  let req =
    (* client = n impersonates client 0 *)
    Message.request ~op:"inc" ~timestamp:99L ~client:cfg.Config.n ~read_only:false ~replier:0
  in
  let env =
    Message.envelope ~sender:cfg.Config.n
      ~auth:(Message.Auth_sig (Bft_crypto.Signature.forge ~signer_id:cfg.Config.n))
      (Message.Request req)
  in
  Bft_net.Network.multicast net ~src:cfg.Config.n
    ~dsts:(Config.replica_ids cfg)
    ~size:(Wire.envelope_size env) env;
  Cluster.run ~timeout_us:500_000.0 c;
  Alcotest.(check bool) "forged request not executed" true
    (Array.for_all (fun r -> Replica.last_executed r = 0) (Cluster.replicas c))

(* Only replicas speak the replica protocol. Clients hold session keys
   with every replica, so a prepare or commit a client sends under its own
   id carries MACs that verify. With replicas 2 and 3 muted, the primary's
   batch can execute only if such votes count toward a quorum. *)
let test_client_votes_ignored () =
  let cfg, c = make ~tentative:false ~clients:3 () in
  let net = Cluster.network c in
  let replicas = Config.replica_ids cfg in
  Replica.mute (Cluster.replica c 2) true;
  Replica.mute (Cluster.replica c 3) true;
  let rng = Bft_util.Rng.create 7L in
  (* client [id]'s session keys with every replica, as the key exchange
     gives every client *)
  let keys_of id =
    let kc = Bft_crypto.Keychain.create ~my_id:id in
    List.iter
      (fun r ->
        let chain = Replica.keychain (Cluster.replica c r) in
        let k = Bft_crypto.Keychain.fresh_in_key chain rng ~peer:id in
        ignore (Bft_crypto.Keychain.install_out_key kc ~peer:r k))
      replicas;
    kc
  in
  let send_from kc body =
    let d = Wire.cached_digest (Message.no_cache ()) body in
    let auth = Bft_crypto.Auth.compute_authenticator kc ~receivers:replicas d in
    let id = Bft_crypto.Keychain.my_id kc in
    let env = Message.envelope ~sender:id ~auth:(Message.Auth_vector auth) body in
    Bft_net.Network.multicast net ~src:id ~dsts:replicas ~size:(Wire.envelope_size env) env
  in
  (* learn the primary's batch digest from replica 1's prepare *)
  let seen = ref None in
  Bft_net.Network.set_adversary net (fun ~src:_ ~dst:_ env ->
      (match env.Message.body with
      | Message.Prepare p when Option.is_none !seen -> seen := Some p
      | _ -> ());
      `Pass);
  Client.invoke (Cluster.client c 0) ~op:(null_op ()) (fun ~result:_ ~latency_us:_ -> ());
  Alcotest.(check bool) "backup prepared the batch" true
    (Cluster.run_until ~timeout_us:5_000.0 c (fun () -> Option.is_some !seen));
  let p = Option.get !seen in
  List.iter
    (fun id ->
      let kc = keys_of id in
      send_from kc (Message.Prepare { p with pr_replica = id });
      send_from kc
        (Message.Commit
           { cm_view = p.pr_view; cm_seq = p.pr_seq; cm_digest = p.pr_digest; cm_replica = id }))
    [ cfg.Config.n + 1; cfg.Config.n + 2 ];
  let executed () = List.map (fun i -> Replica.last_executed (Cluster.replica c i)) [ 0; 1 ] in
  ignore
    (Cluster.run_until ~timeout_us:20_000.0 c (fun () -> List.for_all (( < ) 0) (executed ())));
  Alcotest.(check (list int)) "nothing executes on client votes" [ 0; 0 ] (executed ())

(* A backup accepts each inline request of a pre-prepare if (3) it already
   verified the request, (1) its own entry in the client's authenticator
   verifies, or (2) f prepares vouch for the batch digest. Replica 1 is
   driven by hand: the delivery gate holds every message, and [deliver]
   releases one envelope to it and returns the virtual CPU it spent. Only
   MACs cost anything, one microsecond each. *)
let test_batch_authentication () =
  let mac_us = 1.0 in
  let cfg = Config.make ~f:1 () in
  let replicas = Config.replica_ids cfg and backup = 1 in
  let fresh () =
    let c = Cluster.create ~costs:{ Bft_net.Costs.free with mac_us } ~num_clients:3 cfg in
    Bft_net.Network.set_gate (Cluster.network c) true;
    c
  in
  let sign c ~sender body =
    let kc = Replica.keychain (Cluster.replica c sender) in
    let d = Wire.cached_digest (Message.no_cache ()) body in
    let auth = Bft_crypto.Auth.compute_authenticator kc ~receivers:replicas d in
    Message.envelope ~sender ~auth:(Message.Auth_vector auth) body
  in
  let deliver c env =
    let net = Cluster.network c in
    let src = env.Message.sender and size = Wire.envelope_size env in
    Bft_net.Network.send net ~src ~dst:backup ~size env;
    let now = Bft_sim.Engine.now (Cluster.engine c) in
    Alcotest.(check bool) "backup idle" true
      (Int64.compare (Bft_net.Network.busy_until net ~id:backup) now <= 0);
    Alcotest.(check bool) "released" true
      (Bft_net.Network.release_held net ~nth:0 ~pred:(fun ~src:_ ~dst:_ m -> m == env));
    let busy = Bft_net.Network.busy_until net ~id:backup in
    (* let what the envelope set off settle, leaving the backup idle *)
    let until = Int64.add busy (Bft_sim.Engine.of_us_float 100.0) in
    ignore (Bft_sim.Engine.schedule_at (Cluster.engine c) until ignore);
    Cluster.run ~timeout_us:(Bft_sim.Engine.to_us until) c;
    Int64.sub busy now
  in
  let prepared c =
    List.exists
      (fun (src, _, env) ->
        src = backup && match env.Message.body with Message.Prepare _ -> true | _ -> false)
      (Bft_net.Network.held (Cluster.network c))
  in
  (* requests from clients n..n+2, each authenticated by a keychain whose
     keys the replicas install, as the key exchange gives every client *)
  let rng = Bft_util.Rng.create 11L in
  let request c i =
    let id = cfg.Config.n + i in
    let kc = Bft_crypto.Keychain.create ~my_id:id in
    List.iter
      (fun r ->
        let chain = Replica.keychain (Cluster.replica c r) in
        let k = Bft_crypto.Keychain.fresh_in_key chain rng ~peer:id in
        ignore (Bft_crypto.Keychain.install_out_key kc ~peer:r k))
      replicas;
    let r =
      Message.request ~op:(null_op ()) ~timestamp:1L ~client:id ~read_only:false ~replier:0
    in
    (r, Bft_crypto.Auth.compute_authenticator kc ~receivers:replicas (Wire.request_digest r))
  in
  (* the primary's pre-prepare for sequence number 1, carrying [reqs]; the
     one at [bad] has its entry for the backup corrupted *)
  let pre_prepare c reqs ~bad =
    let batch =
      List.mapi
        (fun i (r, a) ->
          let a = if i = bad then Bft_crypto.Auth.corrupt_entry a backup else a in
          Message.Inline (r, Message.Auth_vector a))
        reqs
    in
    let pp = { Message.pp_view = 0; pp_seq = 1; pp_batch = batch; pp_nondet = "0" } in
    (sign c ~sender:0 (Message.Pre_prepare pp), Wire.batch_digest batch "0")
  in
  (* refused, then accepted once f prepares carry the batch digest; every
     element up to and including the first failure costs one MAC, beside
     the envelope's own, and none after it does *)
  List.iter
    (fun bad ->
      let c = fresh () in
      let reqs = List.init 3 (request c) in
      let pp, d = pre_prepare c reqs ~bad in
      let spent = deliver c pp in
      Alcotest.(check bool) (Printf.sprintf "bad=%d refused" bad) false (prepared c);
      Alcotest.(check int64)
        (Printf.sprintf "bad=%d charged up to the failure" bad)
        (Bft_sim.Engine.of_us_float (float_of_int (bad + 2) *. mac_us))
        spent;
      let vouch =
        Message.Prepare { Message.pr_view = 0; pr_seq = 1; pr_digest = d; pr_replica = 2 }
      in
      ignore (deliver c (sign c ~sender:2 vouch));
      Alcotest.(check bool) (Printf.sprintf "bad=%d accepted when vouched" bad) true
        (prepared c))
    [ 0; 1; 2 ];
  (* accepted unvouched when the backup already verified the request *)
  let c = fresh () in
  let reqs = List.init 3 (request c) in
  let r, a = List.nth reqs 1 in
  ignore
    (deliver c
       (Message.envelope ~sender:r.client ~auth:(Message.Auth_vector a) (Message.Request r)));
  let pp, _ = pre_prepare c reqs ~bad:1 in
  let spent = deliver c pp in
  Alcotest.(check bool) "held request accepted" true (prepared c);
  (* the envelope and the two other requests, then the backup's prepare *)
  Alcotest.(check int64) "held request not re-verified"
    (Bft_sim.Engine.of_us_float ((3.0 +. float_of_int cfg.Config.n) *. mac_us))
    spent

(* --- partitions --- *)

let test_partition_blocks_then_heals () =
  let _, c = make ~service:counter () in
  ignore (Cluster.invoke_sync c ~client:0 "inc");
  (* no quorum on either side: 2-2 split (client with group A) *)
  let cfg = Cluster.config c in
  Bft_net.Network.partition (Cluster.network c) [ 0; 1; cfg.Config.n ] [ 2; 3 ];
  let got = ref None in
  Client.invoke (Cluster.client c 0) ~op:"inc" (fun ~result ~latency_us:_ -> got := Some result);
  Cluster.run ~timeout_us:300_000.0 c;
  Alcotest.(check bool) "no progress under partition (safety > liveness)" true (!got = None);
  Bft_net.Network.heal (Cluster.network c);
  ignore (Cluster.run_until ~timeout_us:60_000_000.0 c (fun () -> !got <> None));
  Alcotest.(check (option string)) "completes after heal" (Some "2") !got

(* --- state transfer and recovery --- *)

let test_lagging_replica_state_transfer () =
  let _, c = make ~k:8 ~service:kv () in
  Bft_net.Network.crash (Cluster.network c) ~id:3;
  for i = 1 to 30 do
    ignore (Cluster.invoke_sync c ~client:0 (Printf.sprintf "put k%d v%d" i i))
  done;
  Bft_net.Network.restart (Cluster.network c) ~id:3;
  Replica.crash_reboot (Cluster.replica c 3);
  let caught =
    Cluster.run_until ~timeout_us:20_000_000.0 c (fun () ->
        Replica.last_executed (Cluster.replica c 3)
        >= Replica.stable_checkpoint (Cluster.replica c 0))
  in
  Alcotest.(check bool) "caught up" true caught;
  Alcotest.(check bool) "used state transfer" true
    ((Replica.counters (Cluster.replica c 3)).Replica.n_state_transfers >= 1)

(* A transfer has one retry chain. A restarted transfer (bad image or
   root) re-arms its retry while the old one is still pending, so arming
   must replace the one pending in its slot. *)
let test_transfer_one_retry_chain () =
  let _, c = make ~k:8 ~service:kv () in
  Bft_net.Network.crash (Cluster.network c) ~id:3;
  for i = 1 to 30 do
    ignore (Cluster.invoke_sync c ~client:0 (Printf.sprintf "put k%d v%d" i i))
  done;
  Bft_net.Network.restart (Cluster.network c) ~id:3;
  let r = Cluster.replica c 3 in
  Replica.crash_reboot r;
  Alcotest.(check bool) "transfer started" true
    (Cluster.run_until ~timeout_us:20_000_000.0 c (fun () ->
         (Replica.counters r).Replica.n_state_transfers >= 1));
  Replica.on_timer r Transfer_retry;
  let retries =
    List.filter
      (fun (_, label) -> label = Some "tx3")
      (Bft_sim.Engine.live_events (Cluster.engine c))
  in
  Alcotest.(check int) "one retry pending" 1 (List.length retries)

let test_recovery_of_corrupt_replica () =
  let _, c = make ~k:8 ~service:kv () in
  for i = 1 to 20 do
    ignore (Cluster.invoke_sync c ~client:0 (Printf.sprintf "put k%d v%d" i i))
  done;
  Replica.corrupt_state (Cluster.replica c 2);
  Replica.force_recovery (Cluster.replica c 2);
  (* sustain load so the recovery request is ordered and checkpoints advance *)
  let i = ref 20 in
  let recovered =
    Cluster.run_until ~timeout_us:60_000_000.0 c (fun () ->
        if not (Client.busy (Cluster.client c 0)) then begin
          incr i;
          Client.invoke (Cluster.client c 0)
            ~op:(Printf.sprintf "put k%d v%d" !i !i)
            (fun ~result:_ ~latency_us:_ -> ())
        end;
        not (Replica.is_recovering (Cluster.replica c 2)))
  in
  Alcotest.(check bool) "recovery completed" true recovered;
  Alcotest.(check int) "counted" 1 (Replica.counters (Cluster.replica c 2)).Replica.n_recoveries;
  (* drain and verify the repaired replica converges with the others *)
  ignore (Cluster.run_until ~timeout_us:5_000_000.0 c (fun () -> not (Client.busy (Cluster.client c 0))));
  ignore (Cluster.invoke_sync ~timeout_us:30_000_000.0 c ~client:0 "put last one");
  ignore (Cluster.run_until ~timeout_us:10_000_000.0 c (fun () ->
      Replica.last_executed (Cluster.replica c 2) >= Replica.committed_upto (Cluster.replica c 0)));
  Alcotest.(check bool) "state repaired" true (all_equal_states c [ 0; 2 ])

let test_corrupt_state_rejected_loudly () =
  (* regression: [Replica.corrupt_state] used to swallow a validating
     service's restore failure ([try ... with _ -> ()]); it now routes the
     trashed image through the hardened restore path so the rejection is
     counted ([snapshot_rejected]) instead of silently ignored, and recovery
     still repairs the node via state transfer *)
  let cfg = Config.make ~checkpoint_interval:8 ~f:1 () in
  let reg = Bft_obs.Obs.registry () in
  let c =
    Cluster.create ~seed:42L
      ~service:(fun () -> Bft_sm.Kv_service.create ~paged:64 ())
      ~num_clients:1 ~obs:reg cfg
  in
  for i = 1 to 20 do
    ignore (Cluster.invoke_sync c ~client:0 (Printf.sprintf "put k%d v%d" i i))
  done;
  let rejections () = Bft_obs.Obs.snapshot_rejections (Bft_obs.Obs.for_node reg 2) in
  Alcotest.(check int) "no rejection before corruption" 0 (rejections ());
  Replica.corrupt_state (Cluster.replica c 2);
  Alcotest.(check bool) "rejection counted" true (rejections () >= 1);
  Replica.force_recovery (Cluster.replica c 2);
  let i = ref 20 in
  let recovered =
    Cluster.run_until ~timeout_us:60_000_000.0 c (fun () ->
        if not (Client.busy (Cluster.client c 0)) then begin
          incr i;
          Client.invoke (Cluster.client c 0)
            ~op:(Printf.sprintf "put k%d v%d" !i !i)
            (fun ~result:_ ~latency_us:_ -> ())
        end;
        not (Replica.is_recovering (Cluster.replica c 2)))
  in
  Alcotest.(check bool) "recovery completed" true recovered;
  Alcotest.(check bool) "fetched repaired state" true
    ((Replica.counters (Cluster.replica c 2)).Replica.n_state_transfers >= 1);
  ignore (Cluster.run_until ~timeout_us:5_000_000.0 c (fun () -> not (Client.busy (Cluster.client c 0))));
  ignore (Cluster.invoke_sync ~timeout_us:30_000_000.0 c ~client:0 "put last one");
  ignore (Cluster.run_until ~timeout_us:10_000_000.0 c (fun () ->
      Replica.last_executed (Cluster.replica c 2) >= Replica.committed_upto (Cluster.replica c 0)));
  Alcotest.(check bool) "state repaired" true (all_equal_states c [ 0; 2 ])

let test_recovery_of_healthy_replica_harmless () =
  (* proactive recovery of a non-faulty replica must not disturb safety or
     drop its state (Section 4.1) *)
  let _, c = make ~k:8 ~service:counter () in
  for _ = 1 to 10 do
    ignore (Cluster.invoke_sync c ~client:0 "inc")
  done;
  Replica.force_recovery (Cluster.replica c 1);
  let n = ref 10 in
  let recovered =
    Cluster.run_until ~timeout_us:60_000_000.0 c (fun () ->
        if not (Client.busy (Cluster.client c 0)) then begin
          incr n;
          Client.invoke (Cluster.client c 0) ~op:"inc" (fun ~result:_ ~latency_us:_ -> ())
        end;
        not (Replica.is_recovering (Cluster.replica c 1)))
  in
  Alcotest.(check bool) "recovered" true recovered;
  ignore (Cluster.run_until ~timeout_us:5_000_000.0 c (fun () -> not (Client.busy (Cluster.client c 0))));
  let v = Cluster.invoke_sync ~timeout_us:30_000_000.0 c ~client:0 "get" in
  Alcotest.(check bool) "no lost increments" true (int_of_string v > 10);
  Alcotest.(check bool) "consistent" true (Cluster.committed_histories_consistent c)

(* One faulty replica must not set a recovering replica's recovery point.
   Replica 3 drops its own reply to replica 2's recovery request and sends
   three MAC-valid replies that claim sequence number 1,000,000 under the
   names of replicas 0, 1 and 3; the genuine replies of 0 and 1 arrive
   later. Neither filing replies under a name the MAC does not vouch for
   nor taking the largest report may let them through. *)
let test_recovery_point_not_set_by_one_replica () =
  let _, c = make ~k:8 ~service:kv () in
  for i = 1 to 20 do
    ignore (Cluster.invoke_sync c ~client:0 (Printf.sprintf "put k%d v%d" i i))
  done;
  let net = Cluster.network c in
  let forged = "1000000" in
  let forge (rp : Message.reply) =
    List.iter
      (fun named ->
        let body = Message.Reply { rp with rp_replica = named; rp_result = Message.Full forged } in
        let d = Wire.envelope_digest (Message.envelope ~sender:3 ~auth:Message.Auth_none body) in
        match Bft_crypto.Auth.compute_mac (Replica.keychain (Cluster.replica c 3)) ~peer:2 d with
        | Some m ->
            let env = Message.envelope ~sender:3 ~auth:(Message.Auth_mac m) body in
            Bft_net.Network.send net ~src:3 ~dst:2 ~size:(Wire.envelope_size env) env
        | None -> Alcotest.fail "replica 3 holds no key for replica 2")
      [ 0; 1; 3 ]
  in
  let sent = ref false in
  Bft_net.Network.set_adversary net (fun ~src ~dst env ->
      match env.Message.body with
      | Message.Reply ({ rp_client = 2; rp_result = Message.Full r; _ } as rp) when dst = 2 ->
          if String.equal r forged then `Pass
          else if src = 3 then begin
            if not !sent then begin
              sent := true;
              ignore (Bft_sim.Engine.schedule (Cluster.engine c) ~delay:0L (fun () -> forge rp))
            end;
            `Drop
          end
          else if src <> 2 then `Delay 5_000.0
          else `Pass
      | _ -> `Pass);
  Replica.force_recovery (Cluster.replica c 2);
  let recovered =
    Cluster.run_until ~timeout_us:3_000_000.0 c (fun () ->
        not (Replica.is_recovering (Cluster.replica c 2)))
  in
  Alcotest.(check bool) "forged replies delivered" true !sent;
  Alcotest.(check bool) "recovery completed" true recovered;
  Alcotest.(check bool) "recovery point near the request" true
    (Replica.stable_checkpoint (Cluster.replica c 2) < 1_000)

(* A client's op that looks like a recovery request is an ordinary op: it
   refreshes no keys, fills no null batches, and the service runs it. *)
let test_client_recovery_op_is_ordinary () =
  let _, c = make ~service:counter () in
  let new_keys = ref 0 in
  Bft_net.Network.set_adversary (Cluster.network c) (fun ~src:_ ~dst:_ env ->
      (match env.Message.body with Message.New_key _ -> incr new_keys | _ -> ());
      `Pass);
  let r = Cluster.invoke_sync c ~client:0 "\x00RECOVERY:7" in
  ignore (Cluster.run_until ~timeout_us:100_000.0 c (fun () -> false));
  Alcotest.(check string) "the service ran it" Bft_sm.Service.invalid r;
  Alcotest.(check int) "no key refresh" 0 !new_keys;
  Array.iter
    (fun rep -> Alcotest.(check int) "one batch executed" 1 (Replica.last_executed rep))
    (Cluster.replicas c);
  Alcotest.(check string) "next op" "1" (Cluster.invoke_sync c ~client:0 "inc")

(* --- load behaviour: batching, window, fairness --- *)

let test_batching_aggregates_under_load () =
  (* with a window of 1, concurrent requests must accumulate at the primary
     and be batched (Section 5.1.4) *)
  let cfg = Config.make ~window:1 ~f:1 () in
  let c = Cluster.create ~seed:7L ~num_clients:12 cfg in
  let completed = ref 0 in
  let rec pump k ~result:_ ~latency_us:_ =
    incr completed;
    if !completed < 240 then
      Client.invoke (Cluster.client c k) ~op:(null_op ()) (pump k)
  in
  for k = 0 to 11 do
    Client.invoke (Cluster.client c k) ~op:(null_op ()) (pump k)
  done;
  ignore (Cluster.run_until ~timeout_us:30_000_000.0 c (fun () -> !completed >= 240));
  let counters = Replica.counters (Cluster.replica c 0) in
  let avg = float_of_int counters.Replica.n_executed /. float_of_int counters.Replica.n_batches in
  Alcotest.(check bool) (Printf.sprintf "avg batch %.1f > 2" avg) true (avg > 2.0)

let test_no_batching_means_singleton_batches () =
  let cfg = Config.make ~batching:false ~f:1 () in
  let c = Cluster.create ~seed:7L ~num_clients:6 cfg in
  let completed = ref 0 in
  let rec pump k ~result:_ ~latency_us:_ =
    incr completed;
    if !completed < 60 then Client.invoke (Cluster.client c k) ~op:(null_op ()) (pump k)
  in
  for k = 0 to 5 do
    Client.invoke (Cluster.client c k) ~op:(null_op ()) (pump k)
  done;
  ignore (Cluster.run_until ~timeout_us:30_000_000.0 c (fun () -> !completed >= 60));
  let counters = Replica.counters (Cluster.replica c 0) in
  Alcotest.(check int) "one request per batch" counters.Replica.n_executed
    counters.Replica.n_batches

let test_fairness_no_client_starves () =
  (* FIFO scheduling at the primary (Section 5.5): all clients make steady
     progress under sustained contention *)
  let _, c = make ~service:counter ~clients:4 () in
  let per_client = Array.make 4 0 in
  let rec pump k ~result:_ ~latency_us:_ =
    per_client.(k) <- per_client.(k) + 1;
    Client.invoke (Cluster.client c k) ~op:"inc" (pump k)
  in
  for k = 0 to 3 do
    Client.invoke (Cluster.client c k) ~op:"inc" (pump k)
  done;
  Cluster.run ~timeout_us:200_000.0 c;
  Array.iteri
    (fun k n ->
      Alcotest.(check bool) (Printf.sprintf "client %d progressed (%d)" k n) true (n >= 10))
    per_client;
  let mn = Array.fold_left min max_int per_client
  and mx = Array.fold_left max 0 per_client in
  Alcotest.(check bool)
    (Printf.sprintf "balanced %d..%d" mn mx)
    true
    (float_of_int mn >= 0.5 *. float_of_int mx)

let test_read_only_with_crashed_replica () =
  (* 2f+1 matching read-only replies still assemble with one replica down *)
  let _, c = make ~service:kv () in
  ignore (Cluster.invoke_sync c ~client:0 "put k v");
  Bft_net.Network.crash (Cluster.network c) ~id:2;
  Alcotest.(check string) "ro with 3/4 replicas" "v"
    (Cluster.invoke_sync ~timeout_us:20_000_000.0 c ~client:0 ~read_only:true "get k")

let test_client_single_outstanding () =
  let _, c = make () in
  Client.invoke (Cluster.client c 0) ~op:(null_op ()) (fun ~result:_ ~latency_us:_ -> ());
  Alcotest.check_raises "second invoke rejected"
    (Invalid_argument "Client.invoke: request already outstanding") (fun () ->
      Client.invoke (Cluster.client c 0) ~op:(null_op ()) (fun ~result:_ ~latency_us:_ -> ()));
  Cluster.run ~timeout_us:100_000.0 c

(* --- linearizability --- *)

let check_lin name c service =
  match Cluster.check_linearizable c ~service with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" name e

let test_linearizable_counter_basic () =
  let _, c = make ~service:counter ~clients:3 () in
  let pending = ref 0 in
  for _round = 1 to 10 do
    for k = 0 to 2 do
      incr pending;
      Client.invoke (Cluster.client c k) ~op:"inc" (fun ~result:_ ~latency_us:_ -> decr pending)
    done;
    ignore (Cluster.run_until ~timeout_us:5_000_000.0 c (fun () -> !pending = 0))
  done;
  check_lin "counter" c counter

let test_linearizable_under_loss () =
  let _, c = make ~service:counter () in
  Bft_net.Network.set_loss_rate (Cluster.network c) 0.1;
  Bft_net.Network.set_jitter_us (Cluster.network c) 200.0;
  for _ = 1 to 15 do
    ignore (Cluster.invoke_sync ~timeout_us:30_000_000.0 c ~client:0 "inc")
  done;
  check_lin "counter under loss" c counter

let test_linearizable_across_view_change () =
  let _, c = make ~service:kv () in
  for i = 1 to 5 do
    ignore (Cluster.invoke_sync c ~client:0 (Printf.sprintf "put k%d v%d" i i))
  done;
  Replica.mute (Cluster.replica c 0) true;
  for i = 6 to 10 do
    ignore (Cluster.invoke_sync ~timeout_us:30_000_000.0 c ~client:0 (Printf.sprintf "put k%d v%d" i i))
  done;
  (* replica 0 muted: check against replica 1's history instead is not
     supported; unmute and let 0 catch up first *)
  Replica.mute (Cluster.replica c 0) false;
  ignore (Cluster.run_until ~timeout_us:10_000_000.0 c (fun () ->
      Replica.committed_upto (Cluster.replica c 0) >= Replica.committed_upto (Cluster.replica c 1)));
  check_lin "kv across view change" c kv

let test_linearizable_mixed_ops () =
  let _, c = make ~service:kv ~clients:2 () in
  let script =
    [ (0, "put a 1"); (1, "put b 2"); (0, "cas a 1 3"); (1, "cas a 1 9"); (0, "del b");
      (1, "put a 4"); (0, "get a"); (1, "size") ]
  in
  List.iter (fun (k, op) -> ignore (Cluster.invoke_sync c ~client:k op)) script;
  check_lin "kv mixed" c kv

(* --- linearizability-flavoured randomized check --- *)

let prop_random_faults_keep_histories_consistent =
  QCheck.Test.make ~name:"random faults preserve agreement" ~count:8
    QCheck.(pair (int_range 0 10_000) (int_range 0 2))
    (fun (seed, victim_kind) ->
      let cfg = Config.make ~f:1 ~checkpoint_interval:8 ~vc_timeout_us:30_000.0 () in
      let c =
        Cluster.create ~seed:(Int64.of_int (seed + 1)) ~service:counter ~num_clients:2 cfg
      in
      Bft_net.Network.set_loss_rate (Cluster.network c) 0.05;
      (match victim_kind with
      | 0 -> Bft_net.Network.crash (Cluster.network c) ~id:3
      | 1 ->
          Replica.byzantine_equivocate (Cluster.replica c 0) true;
          Cluster.correct_replicas c := [ 1; 2; 3 ]
      | _ -> Replica.mute (Cluster.replica c 1) true);
      (match victim_kind with
      | 0 -> Cluster.correct_replicas c := [ 0; 1; 2 ]
      | 1 -> ()
      | _ -> Cluster.correct_replicas c := [ 0; 2; 3 ]);
      let completed = ref 0 in
      for _ = 1 to 6 do
        match
          Cluster.invoke_sync ~timeout_us:60_000_000.0 c ~client:0 "inc"
        with
        | _ -> incr completed
        | exception Failure _ -> ()
      done;
      !completed >= 1 && Cluster.committed_histories_consistent c)

(* A client names a result size larger than any replica should allocate:
   every replica executes the op to EINVAL instead of raising (the ordered
   path) or allocating it (the read-only path). *)
let test_oversized_null_result () =
  let _, c = make () in
  List.iter
    (fun (ro, op) ->
      Alcotest.(check string) op Bft_sm.Service.invalid
        (Cluster.invoke_sync c ~client:0 ~read_only:ro op))
    [ (true, "ro:4611686018427387903:"); (false, "rw:200000000:") ];
  Alcotest.(check bool) "all executed" true
    (Array.for_all (fun r -> Replica.last_executed r = 1) (Cluster.replicas c))

let suites =
  [
    ( "integration.normal",
      [
        Alcotest.test_case "single request" `Quick test_single_request;
        Alcotest.test_case "request sequence" `Quick test_sequence_of_requests;
        Alcotest.test_case "concurrent clients" `Quick test_multiple_clients_interleaved;
        Alcotest.test_case "exactly-once (dup)" `Quick test_exactly_once_under_duplication;
        Alcotest.test_case "exactly-once (loss)" `Slow test_exactly_once_under_loss;
        Alcotest.test_case "separate request transmission" `Quick test_large_argument_separate_transmission;
        Alcotest.test_case "digest replies" `Quick test_large_result_digest_replies;
        Alcotest.test_case "digest replies save bytes" `Quick test_digest_replies_save_bytes;
        Alcotest.test_case "read-only reads writes" `Quick test_read_only_sees_committed_writes;
        Alcotest.test_case "read-only mutation rejected" `Quick test_read_only_mutation_rejected;
        Alcotest.test_case "access control" `Quick test_access_control;
        Alcotest.test_case "access revocation" `Quick test_access_revocation_consistent;
        Alcotest.test_case "agreed non-determinism" `Quick test_nondeterminism_agreed;
        Alcotest.test_case "checkpoint GC" `Quick test_checkpoint_stability_and_gc;
        Alcotest.test_case "f=2 cluster" `Quick test_f2_cluster;
        Alcotest.test_case "BFT-PK mode" `Slow test_bft_pk_mode;
        Alcotest.test_case "no tentative execution" `Quick test_no_tentative_execution_mode;
        Alcotest.test_case "no batching" `Quick test_no_batching_mode;
      ] );
    ( "integration.faults",
      [
        Alcotest.test_case "f crashed backups" `Quick test_tolerates_f_crashed_backups;
        Alcotest.test_case "crashed primary" `Quick test_view_change_on_crashed_primary;
        Alcotest.test_case "muted primary rejoins" `Quick test_view_change_muted_primary;
        Alcotest.test_case "successive view changes" `Slow test_successive_view_changes;
        Alcotest.test_case "view change preserves commits" `Quick test_view_change_preserves_committed;
        Alcotest.test_case "byzantine primary safety" `Slow test_byzantine_primary_safety;
        Alcotest.test_case "byzantine primary view change" `Slow
          test_byzantine_primary_view_change_linearizable;
        Alcotest.test_case "byzantine client" `Quick test_byzantine_client_partial_auth;
        Alcotest.test_case "forged signature rejected" `Quick test_forged_signature_rejected;
        Alcotest.test_case "client votes ignored" `Quick test_client_votes_ignored;
        Alcotest.test_case "batch authentication" `Quick test_batch_authentication;
        Alcotest.test_case "oversized null result" `Quick test_oversized_null_result;
        Alcotest.test_case "partition then heal" `Slow test_partition_blocks_then_heals;
      ] );
    ( "integration.load",
      [
        Alcotest.test_case "batching aggregates" `Quick test_batching_aggregates_under_load;
        Alcotest.test_case "no-batching singletons" `Quick test_no_batching_means_singleton_batches;
        Alcotest.test_case "fairness" `Quick test_fairness_no_client_starves;
        Alcotest.test_case "read-only with crash" `Quick test_read_only_with_crashed_replica;
        Alcotest.test_case "single outstanding" `Quick test_client_single_outstanding;
      ] );
    ( "integration.linearizability",
      [
        Alcotest.test_case "counter basic" `Quick test_linearizable_counter_basic;
        Alcotest.test_case "under loss" `Quick test_linearizable_under_loss;
        Alcotest.test_case "across view change" `Quick test_linearizable_across_view_change;
        Alcotest.test_case "mixed kv ops" `Quick test_linearizable_mixed_ops;
      ] );
    ( "integration.recovery",
      [
        Alcotest.test_case "state transfer" `Quick test_lagging_replica_state_transfer;
        Alcotest.test_case "one retry chain per transfer" `Quick test_transfer_one_retry_chain;
        Alcotest.test_case "recover corrupt replica" `Slow test_recovery_of_corrupt_replica;
        Alcotest.test_case "corrupt snapshot rejected loudly" `Slow test_corrupt_state_rejected_loudly;
        Alcotest.test_case "recover healthy replica" `Slow test_recovery_of_healthy_replica_harmless;
        Alcotest.test_case "one replica cannot set the recovery point" `Quick
          test_recovery_point_not_set_by_one_replica;
        Alcotest.test_case "client recovery op is ordinary" `Quick
          test_client_recovery_op_is_ordinary;
        QCheck_alcotest.to_alcotest prop_random_faults_keep_histories_consistent;
      ] );
  ]
