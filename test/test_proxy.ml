(* The client protocol core shared by [Client] and derived cohorts: the
   reply certificate against a list-based reference predicate, the range
   check on replica ids, the retry policy, and MAC checks counted once
   through [Auth] with pairwise and group-derived keys. *)

open Bft_core
module Engine = Bft_sim.Engine
module Network = Bft_net.Network
module Costs = Bft_net.Costs
module Auth = Bft_crypto.Auth
module Keychain = Bft_crypto.Keychain

(* n = 4: a weak certificate is 2 replies, a quorum 3 *)
let cfg = Config.make ~f:1 ()
let client = cfg.Config.n

let network () =
  let engine = Engine.create ~seed:1L () in
  let net = Network.create ~engine ~costs:Costs.default ~rng:(Bft_util.Rng.create 3L) () in
  Network.add_node net ~id:client ~handler:ignore;
  net

let reply ?(tentative = false) ~full replica result =
  {
    Message.rp_view = 0;
    rp_timestamp = 1L;
    rp_client = client;
    rp_replica = replica;
    rp_tentative = tentative;
    rp_result =
      (if full then Message.Full result else Result_digest (Wire.result_digest result));
  }

(* feed replies that all verify; the result after the last one *)
let run ?(read_only = false) replies =
  let net = network () and cert = Proxy.create cfg in
  List.iter
    (fun rp -> ignore (Proxy.accept cert net ~id:client ~verify:(fun () -> true) rp))
    replies;
  Proxy.result cert cfg ~read_only

let table =
  [
    ("full result alone", false, [ reply ~full:true 0 "a" ], None);
    ( "weak: f+1 non-tentative",
      false,
      [ reply ~full:true 0 "a"; reply ~full:false 1 "a" ],
      Some "a" );
    ( "f+1 with one tentative",
      false,
      [ reply ~full:true 0 "a"; reply ~tentative:true ~full:false 1 "a" ],
      None );
    ( "quorum: 2f+1 tentative",
      false,
      [
        reply ~tentative:true ~full:true 0 "a";
        reply ~tentative:true ~full:false 1 "a";
        reply ~tentative:true ~full:false 2 "a";
      ],
      Some "a" );
    ( "read-only: f+1 is not enough",
      true,
      [ reply ~full:true 0 "a"; reply ~full:false 1 "a" ],
      None );
    ( "read-only: 2f+1",
      true,
      [ reply ~full:true 0 "a"; reply ~full:false 1 "a"; reply ~full:false 2 "a" ],
      Some "a" );
    ( "digest-only group never completes",
      false,
      List.init 4 (fun r -> reply ~full:false r "a"),
      None );
    ( "mismatched digests",
      false,
      [ reply ~full:true 0 "a"; reply ~full:false 1 "b"; reply ~full:true 2 "c" ],
      None );
    ( "tentative reply replaced by committed one",
      false,
      [
        reply ~full:true 0 "a";
        reply ~tentative:true ~full:false 1 "a";
        reply ~full:false 1 "a";
      ],
      Some "a" );
    ( "a repeated reply counts once",
      false,
      [
        reply ~tentative:true ~full:true 0 "a";
        reply ~tentative:true ~full:false 1 "a";
        reply ~tentative:true ~full:false 1 "a";
      ],
      None );
    ( "changed digest joins its new group",
      false,
      [ reply ~full:true 0 "a"; reply ~full:false 1 "b"; reply ~full:false 1 "a" ],
      Some "a" );
    ( "changed digest leaves its old group",
      false,
      [ reply ~full:true 0 "a"; reply ~full:false 1 "a"; reply ~full:false 1 "b" ],
      None );
  ]

let test_table () =
  List.iter
    (fun (name, read_only, replies, expect) ->
      Alcotest.(check (option string)) name expect (run ~read_only replies))
    table

let test_out_of_range () =
  (* ids n and beyond, and negative ids, are refused before verification
     runs, so no MAC is charged or checked *)
  let net = network () and cert = Proxy.create cfg in
  let verified = ref 0 in
  let verify () =
    incr verified;
    true
  in
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "id %d refused" r)
        false
        (Proxy.accept cert net ~id:client ~verify (reply ~full:true r "forged")))
    [ client; client + 1; -1; max_int ];
  Alcotest.(check int) "verify never ran" 0 !verified;
  Alcotest.(check int64) "nothing charged" 0L (Network.busy_until net ~id:client);
  Alcotest.(check (option string)) "no result" None (Proxy.result cert cfg ~read_only:false)

let test_clear_keeps_retries () =
  let net = network () and cert = Proxy.create cfg in
  Alcotest.(check int) "first retry" 1 (Proxy.retry cert);
  ignore (Proxy.accept cert net ~id:client ~verify:(fun () -> true) (reply ~full:true 0 "a"));
  Proxy.clear cert;
  ignore (Proxy.accept cert net ~id:client ~verify:(fun () -> true) (reply ~full:false 1 "a"));
  Alcotest.(check (option string)) "cleared reply is void" None
    (Proxy.result cert cfg ~read_only:false);
  Alcotest.(check int) "retries kept" 1 (Proxy.retries cert)

let test_retry_policy () =
  let base = cfg.Config.client_retry_us in
  Alcotest.(check (float 0.0)) "floor" base (Proxy.retry_delay cfg ~srtt_us:0. ~retries:0);
  Alcotest.(check (float 0.0)) "doubles" (4.0 *. base)
    (Proxy.retry_delay cfg ~srtt_us:0. ~retries:2);
  Alcotest.(check (float 0.0)) "srtt above the floor" (2.0 *. 3.0 *. base)
    (Proxy.retry_delay cfg ~srtt_us:base ~retries:1);
  Alcotest.(check (float 0.0)) "capped" cfg.Config.client_retry_max_us
    (Proxy.retry_delay cfg ~srtt_us:0. ~retries:max_int);
  let cert = Proxy.create cfg in
  ignore (Proxy.retry cert);
  Alcotest.(check int) "second retry" 2 (Proxy.retry cert);
  Alcotest.(check int) "same view keeps the guess" 2 (Proxy.note_view cert ~guess:2 2);
  Alcotest.(check int) "same view keeps retries" 2 (Proxy.retries cert);
  Alcotest.(check int) "newer view is the guess" 3 (Proxy.note_view cert ~guess:2 3);
  Alcotest.(check int) "newer view resets retries" 0 (Proxy.retries cert)

(* A flipped tag bit is refused, and the check that refused it is
   counted once. *)
let check_flipped name verify_with mac d =
  let net = network () and cert = Proxy.create cfg in
  let flip i c = if i = 0 then Char.chr (Char.code c lxor 1) else c in
  let flipped = { mac with Auth.tag = String.mapi flip mac.Auth.tag } in
  let accept m =
    let before = Auth.mac_verifications () in
    let verify () = verify_with m d in
    let ok = Proxy.accept cert net ~id:client ~verify (reply ~full:true 0 "a") in
    (ok, Auth.mac_verifications () - before)
  in
  Alcotest.(check (pair bool int))
    (name ^ ": flipped bit refused, counted once")
    (false, 1) (accept flipped);
  Alcotest.(check (pair bool int))
    (name ^ ": intact tag accepted, counted once")
    (true, 1) (accept mac)

let test_flipped_tag_counted_once () =
  let d = Bft_crypto.Sha256.digest "reply" in
  (* pairwise: the client issues replica 0's key toward it *)
  let client_kc = Keychain.create ~my_id:client and replica_kc = Keychain.create ~my_id:0 in
  let key = Keychain.fresh_in_key client_kc (Bft_util.Rng.create 5L) ~peer:0 in
  ignore (Keychain.install_out_key replica_kc ~peer:client key);
  check_flipped "pairwise"
    (fun m d -> Auth.verify_mac client_kc ~peer:0 m d)
    (Option.get (Auth.compute_mac replica_kc ~peer:client d))
    d;
  (* group-derived: the replica derives its key toward a cohort client *)
  let g = Keychain.group ~first:client ~last:(client + 99) ~secret:"cohort" in
  let replica_kc = Keychain.create ~my_id:0 in
  Keychain.set_group replica_kc g;
  check_flipped "group-derived"
    (fun m d -> Auth.verify_group_mac g ~src:0 ~dst:client m d)
    (Option.get (Auth.compute_mac replica_kc ~peer:client d))
    d

(* --- qcheck: the certificate against a list-based reference --- *)

(* The paper's rule over the latest reply from each replica id in
   [0, n): every result whose group completes. *)
let reference ~read_only replies =
  let latest =
    List.fold_left
      (fun acc (rp : Message.reply) ->
        if rp.rp_replica < 0 || rp.rp_replica >= cfg.Config.n then acc
        else (rp.rp_replica, rp) :: List.remove_assoc rp.rp_replica acc)
      [] replies
    |> List.map snd
  in
  let digest (rp : Message.reply) =
    match rp.rp_result with Full s -> Wire.result_digest s | Result_digest d -> d
  in
  List.filter_map
    (fun (rp : Message.reply) ->
      match rp.rp_result with
      | Result_digest _ -> None
      | Full s ->
          let group = List.filter (fun r -> String.equal (digest r) (digest rp)) latest in
          let total = List.length group in
          let nontent =
            List.length (List.filter (fun (r : Message.reply) -> not r.rp_tentative) group)
          in
          if (if read_only then total >= 3 else nontent >= 2 || total >= 3) then Some s
          else None)
    latest

let prop_matches_reference =
  let gen_reply =
    QCheck.Gen.(
      map
        (fun (replica, tentative, full, result) -> reply ~tentative ~full replica result)
        (quad (int_range (-1) 5) bool bool (oneofl [ "a"; "b" ])))
  in
  let print (ro, rs) =
    Printf.sprintf "read_only=%b [%s]" ro
      (String.concat "; "
         (List.map
            (fun (rp : Message.reply) ->
              Printf.sprintf "%d%s:%s" rp.rp_replica
                (if rp.rp_tentative then "t" else "")
                (match rp.rp_result with
                | Full s -> s
                | Result_digest d -> String.sub (Bft_util.Hex.encode d) 0 4))
            rs))
  in
  QCheck.Test.make ~count:500 ~name:"certificate matches the list-based reference"
    (QCheck.make ~print QCheck.Gen.(pair bool (list_size (int_range 0 10) gen_reply)))
    (fun (read_only, replies) ->
      (* at every prefix, up to the first completion, as a client uses it *)
      let net = network () and cert = Proxy.create cfg in
      let rec go seen = function
        | [] -> true
        | (rp : Message.reply) :: rest -> (
            let in_range = rp.rp_replica >= 0 && rp.rp_replica < cfg.Config.n in
            let accepted = Proxy.accept cert net ~id:client ~verify:(fun () -> true) rp in
            let seen = seen @ [ rp ] in
            let expect = reference ~read_only seen in
            accepted = in_range
            &&
            match Proxy.result cert cfg ~read_only with
            | None -> expect = [] && go seen rest
            | Some s -> List.mem s expect)
      in
      go [] replies)

let suites =
  [
    ( "proxy",
      [
        Alcotest.test_case "certificate table" `Quick test_table;
        Alcotest.test_case "out-of-range ids refused" `Quick test_out_of_range;
        Alcotest.test_case "clear keeps retries" `Quick test_clear_keeps_retries;
        Alcotest.test_case "retry policy" `Quick test_retry_policy;
        Alcotest.test_case "flipped tag counted once" `Quick test_flipped_tag_counted_once;
        QCheck_alcotest.to_alcotest prop_matches_reference;
      ] );
  ]
