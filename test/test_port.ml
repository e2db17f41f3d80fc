(* The replica driven through its port alone: no Network, no Engine. Each
   test delivers an envelope or fires a timer and reads back the effects
   in the order the replica made them. *)

open Bft_core
open Message
module Costs = Bft_net.Costs
module P = Recording_port

let client = 4
let cfg = Config.make ~f:1 ()

(* Replica [id], created but not started, sharing a session key with
   each of [peers] (each sends to it); returns the replica, the recorder
   and the peers' chains. *)
let created_with ~cfg ~id ~peers =
  let rng = Bft_util.Rng.create 11L in
  let mine = Bft_crypto.Keychain.create ~my_id:id in
  let chains =
    List.map
      (fun peer ->
        let chain = Bft_crypto.Keychain.create ~my_id:peer in
        assert (
          Bft_crypto.Keychain.install_out_key chain ~peer:id
            (Bft_crypto.Keychain.fresh_in_key mine rng ~peer));
        (peer, chain))
      peers
  in
  let registry = Bft_crypto.Signature.create_registry () in
  let deps =
    {
      Replica.cfg;
      costs = Costs.default;
      registry;
      keychain = mine;
      signer = Bft_crypto.Signature.register registry rng id;
      service = Bft_sm.Null_service.create ();
      rng;
    }
  in
  let io = P.create () in
  (Replica.create deps ~port:(P.port io) ~id ~on_execute:(fun _ _ -> ()), io, chains)

(* Replica [id] of an n = 4 group sharing a session key with [client]. *)
let created ~id =
  let r, io, chains = created_with ~cfg ~id ~peers:[ client ] in
  (r, io, List.assoc client chains)

let replica ~id =
  let r, io, chain = created ~id in
  Replica.start r;
  ignore (P.take io);
  (r, io, chain)

(* A request from [client], MACed for replica [id]. *)
let request_to chain ~id =
  let req = Message.request ~op:"op" ~timestamp:1L ~client ~read_only:false ~replier:0 in
  let d = Wire.envelope_digest (Message.envelope ~sender:client ~auth:Auth_none (Request req)) in
  let mac = Option.get (Bft_crypto.Auth.compute_mac chain ~peer:id d) in
  Message.envelope ~sender:client ~auth:(Auth_mac mac) (Request req)

let show = function
  | P.Send (dst, env) -> Printf.sprintf "send %d %s" dst (Message.tag env.body)
  | P.Multicast (_, env) -> Printf.sprintf "multicast %s" (Message.tag env.body)
  | P.Charge _ -> "charge"
  | P.Arm (Replica.Vc_active, _) -> "arm vc-active"
  | P.Arm (Replica.Vc_pending, _) -> "arm vc-pending"
  | P.Arm (Replica.Status, _) -> "arm status"
  | P.Arm (_, _) -> "arm other"
  | P.Cancel _ -> "cancel"

let shape ios = List.map show ios

(* Creating a replica performs nothing; [start] charges the genesis
   checkpoint and arms the status timer. *)
let test_start () =
  let r, io, _ = created ~id:0 in
  Alcotest.(check (list string)) "create: no effect" [] (shape (P.take io));
  Replica.start r;
  Alcotest.(check (list string)) "start: genesis digest, then the status timer"
    [ "charge"; "charge"; "arm status" ]
    (shape (P.take io))

let test_primary_request () =
  let r, io, chain = replica ~id:0 in
  Replica.handle r (request_to chain ~id:0);
  let ios = P.take io in
  Alcotest.(check (list string)) "charges, then one pre-prepare multicast"
    [ "charge"; "charge"; "charge"; "charge"; "multicast pre-prepare" ]
    (shape ios);
  (match ios with
  | P.Charge verify :: _ ->
      Alcotest.(check (float 0.0)) "first charge verifies the MAC" Costs.default.Costs.mac_us verify
  | _ -> Alcotest.fail "no charge first");
  match List.rev ios with
  | P.Multicast (dsts, _) :: P.Charge auth :: _ ->
      Alcotest.(check (list int)) "to every replica" [ 0; 1; 2; 3 ] dsts;
      Alcotest.(check (float 1e-9)) "authenticator for n = 4" (Costs.auth_gen_us Costs.default 4) auth
  | _ -> Alcotest.fail "no multicast after an authenticator charge"

let test_vc_timer () =
  let r, io, chain = replica ~id:1 in
  Replica.handle r (request_to chain ~id:1);
  let ios = P.take io in
  Alcotest.(check bool) "the backup relays the request to the primary" true
    (List.mem "send 0 request" (shape ios));
  Alcotest.(check bool) "and arms the vc timer at the initial timeout" true
    (List.exists (function P.Arm (Replica.Vc_active, us) -> us = cfg.Config.vc_timeout_us | _ -> false) ios);
  Replica.on_timer r Replica.Vc_active;
  let ios = P.take io in
  Alcotest.(check (list string)) "a view-change multicast, then the re-arm"
    [ "charge"; "multicast view-change"; "arm vc-pending" ]
    (shape ios);
  (match List.rev ios with
  | P.Arm (_, us) :: _ ->
      Alcotest.(check (float 0.0)) "doubled timeout" (2.0 *. cfg.Config.vc_timeout_us) us
  | _ -> Alcotest.fail "no re-arm");
  Alcotest.(check int) "in view 1" 1 (Replica.view r)

let test_status_backlog () =
  let r, io, _ = replica ~id:2 in
  io.P.backlog <- 9;
  Replica.on_timer r Replica.Status;
  Alcotest.(check (list string)) "backlog over 8: nothing but the re-arm" [ "arm status" ]
    (shape (P.take io));
  io.P.backlog <- 0;
  Replica.on_timer r Replica.Status;
  Alcotest.(check (list string)) "idle: the status message, then the re-arm"
    [ "charge"; "multicast status-active"; "arm status" ]
    (shape (P.take io))

(* [body] from peer [p], MACed for replica [dst] under [p]'s chain. *)
let mac_from chains ~dst p body =
  let d = Wire.envelope_digest (Message.envelope ~sender:p ~auth:Auth_none body) in
  let mac = Option.get (Bft_crypto.Auth.compute_mac (List.assoc p chains) ~peer:dst d) in
  Message.envelope ~sender:p ~auth:(Auth_mac mac) body

(* Condition 2 of a pre-prepare's authentication at f = 2: the vouching
   prepares must be for the pre-prepare's own view, sequence number and
   batch digest, from f distinct backups. Backup 1 is sent MACed prepares
   for the batch digest at [prepares] (sender, seq), then primary 0's
   pre-prepare at seq 7 whose one inline request carries no token; did
   the backup accept it and multicast its prepare? *)
let vouched prepares =
  let r, io, chains = created_with ~cfg:(Config.make ~f:2 ()) ~id:1 ~peers:[ 0; 2; 3 ] in
  Replica.start r;
  let from = mac_from chains ~dst:1 in
  let req = Message.request ~op:"op" ~timestamp:1L ~client:9 ~read_only:false ~replier:0 in
  let batch = [ Inline (req, Auth_none) ] in
  let d = Wire.batch_digest batch "0" in
  List.iter
    (fun (p, seq) ->
      Replica.handle r (from p (Prepare { pr_view = 0; pr_seq = seq; pr_digest = d; pr_replica = p })))
    prepares;
  ignore (P.take io);
  Replica.handle r
    (from 0 (Pre_prepare { pp_view = 0; pp_seq = 7; pp_batch = batch; pp_nondet = "0" }));
  List.exists
    (function P.Multicast (_, { body = Prepare { pr_seq = 7; _ }; _ }) -> true | _ -> false)
    (P.take io)

let test_vouching () =
  Alcotest.(check bool) "one backup's prepares at other seqnos vouch for nothing" false
    (vouched [ (2, 5); (2, 6) ]);
  Alcotest.(check bool) "f backups' prepares at the pre-prepare's seqno vouch" true
    (vouched [ (2, 7); (3, 7) ])

(* A replica's multicasts go to every replica, itself included, and the
   network loops its own copy back. Its authenticator holds no entry for
   its sender, so the copy is refused after one MAC check: handing replica
   1 its own prepare, commit, checkpoint and status changes nothing but
   that charge. (Skipping the loopback would save the charge and an
   engine event, and move virtual time.) *)
let test_loopback () =
  let r, io, chains =
    created_with ~cfg:(Config.make ~f:1 ~checkpoint_interval:1 ()) ~id:1 ~peers:[ 0; 2 ]
  in
  Replica.start r;
  let from = mac_from chains ~dst:1 in
  let req = Message.request ~op:"op" ~timestamp:1L ~client:9 ~read_only:false ~replier:0 in
  let batch = [ Inline (req, Auth_none) ] in
  let d = Wire.batch_digest batch "0" in
  (* 2's prepare vouches for the request, so 1 prepares and commits;
     0's and 2's commits commit sequence 1, whose checkpoint 1 announces *)
  Replica.handle r (from 2 (Prepare { pr_view = 0; pr_seq = 1; pr_digest = d; pr_replica = 2 }));
  Replica.handle r
    (from 0 (Pre_prepare { pp_view = 0; pp_seq = 1; pp_batch = batch; pp_nondet = "0" }));
  List.iter
    (fun p ->
      Replica.handle r (from p (Commit { cm_view = 0; cm_seq = 1; cm_digest = d; cm_replica = p })))
    [ 0; 2 ];
  Replica.on_timer r Replica.Status;
  let own = List.filter_map (function P.Multicast (_, env) -> Some env | _ -> None) (P.take io) in
  Alcotest.(check (list string)) "its own multicasts"
    [ "prepare"; "commit"; "checkpoint"; "status-active" ]
    (List.map (fun (env : envelope) -> Message.tag env.body) own);
  List.iter
    (fun (env : envelope) ->
      let tag = Message.tag env.body and before = Replica.state_digest r in
      Replica.handle r env;
      (match P.take io with
      | [ P.Charge us ] ->
          Alcotest.(check (float 0.0)) (tag ^ ": one MAC check") Costs.default.Costs.mac_us us
      | ios -> Alcotest.failf "%s: %s" tag (String.concat "; " (shape ios)));
      Alcotest.(check string) (tag ^ ": state unchanged") before (Replica.state_digest r))
    own

let suites =
  [
    ( "port",
      [
        Alcotest.test_case "create is inert, start charges genesis" `Quick test_start;
        Alcotest.test_case "primary: verified request -> pre-prepare" `Quick test_primary_request;
        Alcotest.test_case "vc timer -> view-change and re-arm" `Quick test_vc_timer;
        Alcotest.test_case "status tick yields under backlog" `Quick test_status_backlog;
        Alcotest.test_case "condition 2 counts distinct backups at the seqno" `Quick test_vouching;
        Alcotest.test_case "own multicasts looped back: one MAC check" `Quick test_loopback;
      ] );
  ]
