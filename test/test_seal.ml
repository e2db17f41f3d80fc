(* Seal, the one place tokens are made and checked.

   The verdict table: every receiver (a replica, a client, a derived
   cohort, the unreplicated baseline) x every body it opens x every token
   kind x the sender, which is either the body's author or another id
   vouching for the body with its own keys. A cell is the verdict and
   what the receiver was charged for it. The table was recorded from the
   four receivers' own checks before they were folded into Seal; the one
   charging rule (no charge for what is refused without reading the
   token, otherwise a charge before the signer id is compared) changed
   the cells listed under [charge_changes], and no verdict. *)

open Bft_core
open Message
module Keychain = Bft_crypto.Keychain
module Auth = Bft_crypto.Auth
module Signature = Bft_crypto.Signature
module Costs = Bft_net.Costs
module P = Recording_port

let costs = Costs.default

(* Replicas 0..3, client 4 and derived client 100: pairwise keys between
   every two of them, a signing key each, and the derived group over
   100..103. *)
type world = {
  chains : (int * Keychain.t) list;
  signers : (int * Signature.signer) list;
  registry : Signature.registry;
  group : Keychain.group;
}

let ids = [ 0; 1; 2; 3; 4; 100 ]

let world () =
  let rng = Bft_util.Rng.create 5L in
  let registry = Signature.create_registry () in
  let chains = List.map (fun i -> (i, Keychain.create ~my_id:i)) ids in
  List.iter
    (fun (i, a) ->
      List.iter
        (fun (j, b) ->
          if i < j then begin
            assert (Keychain.install_out_key a ~peer:j (Keychain.fresh_in_key b rng ~peer:i));
            assert (Keychain.install_out_key b ~peer:i (Keychain.fresh_in_key a rng ~peer:j))
          end)
        chains)
    chains;
  let signers = List.map (fun i -> (i, Signature.register registry rng i)) ids in
  { chains; signers; registry; group = Keychain.group ~first:100 ~last:103 ~secret:"cohort" }

type receiver = Replica | Client | Cohort | Baseline

let receiver_name = function
  | Replica -> "replica"
  | Client -> "client"
  | Cohort -> "cohort"
  | Baseline -> "baseline"

(* Receiver [id] of an [n]-replica group, as the module that receives
   builds it, charging into [charged]. *)
let principal w kind ~id ~n charged =
  let chain = List.assoc id w.chains and signing = Some (w.registry, List.assoc id w.signers) in
  let keys, signing =
    match kind with
    | Replica -> (Seal.Replica chain, signing)
    | Client -> (Seal.Endpoint chain, signing)
    | Cohort -> (Seal.Cohort w.group, None)
    | Baseline -> (Seal.Endpoint chain, None)
  in
  { Seal.id; n; mode = Config.Mac_auth; keys; signing; costs; charge = (fun us -> charged := us :: !charged) }

let d32 c = String.make 32 c

(* One body of each kind, naming [a] as its author and [me] as the
   client a reply goes to. *)
let bodies ~a ~me =
  [
    Request (Message.request ~op:"put k v" ~timestamp:7L ~client:a ~read_only:false ~replier:0);
    Reply
      {
        rp_view = 0;
        rp_timestamp = 7L;
        rp_client = me;
        rp_replica = a;
        rp_tentative = false;
        rp_result = Full "ok";
      };
    Pre_prepare { pp_view = a; pp_seq = 1; pp_batch = []; pp_nondet = "0" };
    Prepare { pr_view = 0; pr_seq = 1; pr_digest = d32 'a'; pr_replica = a };
    Commit { cm_view = 0; cm_seq = 1; cm_digest = d32 'a'; cm_replica = a };
    Checkpoint { ck_seq = 4; ck_digest = d32 'c'; ck_replica = a };
    View_change { vc_view = 1; vc_h = 0; vc_cset = []; vc_pset = []; vc_qset = []; vc_replica = a };
    View_change_ack { va_view = 1; va_replica = a; va_origin = 0; va_digest = d32 'v' };
    New_view { nv_view = a; nv_vcs = []; nv_start = 0; nv_start_digest = d32 's'; nv_chosen = [] };
    Fetch { ft_level = 0; ft_index = 0; ft_lc = 0; ft_rc = -1; ft_replier = 0; ft_replica = a };
    Meta_data { md_checkpoint = 4; md_level = 0; md_index = 0; md_subparts = []; md_replica = a };
    Data { dt_index = 0; dt_lm = 4; dt_page = "page" };
    Status_active
      { sa_replica = a; sa_view = 0; sa_h = 0; sa_last_exec = 0; sa_prepared = []; sa_committed = [] };
    Status_pending
      {
        sp_replica = a;
        sp_view = 1;
        sp_h = 0;
        sp_last_exec = 0;
        sp_has_new_view = false;
        sp_vcs_seen = [];
      };
    New_key { nk_replica = a; nk_keys = []; nk_counter = 1L };
    Query_stable { qs_replica = a; qs_nonce = 9L };
    Reply_stable { rs_checkpoint = 0; rs_prepared = 0; rs_replica = a; rs_nonce = 9L };
    Fetch_batch { fb_digest = d32 'b'; fb_replica = a };
    Batch_data { bd_digest = d32 'b'; bd_batch = []; bd_nondet = "0" };
    Fetch_request { fr_digest = d32 'r'; fr_replica = a };
  ]

let body tag ~a ~me = List.find (fun b -> String.equal (Message.tag b) tag) (bodies ~a ~me)

(* (receiver, its id, n, body, author, the other sender): the bodies each
   receiver's handler opens. A client opens replies and new-keys, a
   cohort replies, the baseline's server requests and its client
   replies; every other body they drop unopened. *)
let rows =
  List.map
    (fun b ->
      match b with
      | Request _ -> (Replica, 1, 4, body "request" ~a:4 ~me:1, 4, 3)
      | b -> (Replica, 1, 4, b, 2, 3))
    (bodies ~a:2 ~me:1)
  @ [
      (Client, 4, 4, body "reply" ~a:2 ~me:4, 2, 3);
      (Client, 4, 4, body "new-key" ~a:2 ~me:4, 2, 3);
      (Cohort, 100, 4, body "reply" ~a:2 ~me:100, 2, 3);
      (Baseline, 0, 1, body "request" ~a:4 ~me:0, 4, 1);
      (Baseline, 4, 1, body "reply" ~a:0 ~me:4, 0, 1);
    ]

let kinds = [ "none"; "mac"; "auth"; "sig"; "group" ]

(* The token [sender] attaches for receiver [me] over [d]. *)
let token w kind ~sender ~me d =
  match kind with
  | "none" -> Auth_none
  | "mac" -> Auth_mac (Option.get (Auth.compute_mac (List.assoc sender w.chains) ~peer:me d))
  | "auth" -> Auth_vector (Auth.compute_authenticator (List.assoc sender w.chains) ~receivers:ids d)
  | "sig" -> Auth_sig (Signature.sign (List.assoc sender w.signers) d)
  | _ ->
      let a = Auth.group_authenticator w.group ~src:sender ~receivers:[ me ] d in
      Auth_mac (Option.get (Auth.entry a me))

(* "A" accepted or "R" refused, then "m" when charged [mac_us], "s" when
   charged [sig_verify_us], nothing when free. *)
let cell (accepted, charged) =
  (if accepted then "A" else "R")
  ^ String.concat ""
      (List.map
         (fun us ->
           if us = costs.Costs.mac_us then "m" else if us = costs.Costs.sig_verify_us then "s" else "?")
         charged)

let render verdict =
  let w = world () in
  List.map
    (fun (kind, id, n, b, author, other) ->
      let cells =
        List.map
          (fun k ->
            let one sender =
              let d = Wire.envelope_digest (Message.envelope ~sender ~auth:Auth_none b) in
              cell (verdict w kind ~id ~n (Message.envelope ~sender ~auth:(token w k ~sender ~me:id d) b))
            in
            Printf.sprintf "%s %s/%s" k (one author) (one other))
          kinds
      in
      Printf.sprintf "%-8s %-15s %s" (receiver_name kind) (Message.tag b) (String.concat "  " cells))
    rows

let seal_verdict w kind ~id ~n env =
  let charged = ref [] in
  let accepted = Seal.authentic (principal w kind ~id ~n charged) env in
  (accepted, List.rev !charged)

(* The table as the four receivers' own checks gave it before Seal:
   per token kind, the cell for the author, then for the other sender. *)
let parent =
  [
    "replica  request         none R/R  mac Am/Rm  auth Am/Rm  sig As/Rs  group Rm/Rm";
    "replica  reply           none R/R  mac Am/Rm  auth Am/Rm  sig As/Rs  group Rm/Rm";
    "replica  pre-prepare     none R/R  mac Am/Rm  auth Am/Rm  sig As/Rs  group Rm/Rm";
    "replica  prepare         none R/R  mac Am/Rm  auth Am/Rm  sig As/Rs  group Rm/Rm";
    "replica  commit          none R/R  mac Am/Rm  auth Am/Rm  sig As/Rs  group Rm/Rm";
    "replica  checkpoint      none R/R  mac Am/Rm  auth Am/Rm  sig As/Rs  group Rm/Rm";
    "replica  view-change     none R/R  mac Am/Rm  auth Am/Rm  sig As/Rs  group Rm/Rm";
    "replica  view-change-ack none R/R  mac Am/Rm  auth Am/Rm  sig As/Rs  group Rm/Rm";
    "replica  new-view        none R/R  mac Am/Rm  auth Am/Rm  sig As/Rs  group Rm/Rm";
    "replica  fetch           none R/R  mac Am/Rm  auth Am/Rm  sig As/Rs  group Rm/Rm";
    "replica  meta-data       none R/R  mac Am/Rm  auth Am/Rm  sig As/Rs  group Rm/Rm";
    "replica  data            none A/A  mac A/A  auth A/A  sig A/A  group A/A";
    "replica  status-active   none R/R  mac Am/Rm  auth Am/Rm  sig As/Rs  group Rm/Rm";
    "replica  status-pending  none R/R  mac Am/Rm  auth Am/Rm  sig As/Rs  group Rm/Rm";
    "replica  new-key         none R/R  mac R/R  auth R/R  sig As/Rs  group R/R";
    "replica  query-stable    none R/R  mac Am/Rm  auth Am/Rm  sig As/Rs  group Rm/Rm";
    "replica  reply-stable    none R/R  mac Am/Rm  auth Am/Rm  sig As/Rs  group Rm/Rm";
    "replica  fetch-batch     none R/R  mac Am/Rm  auth Am/Rm  sig As/Rs  group Rm/Rm";
    "replica  batch-data      none R/R  mac Am/Am  auth Am/Am  sig As/As  group Rm/Rm";
    "replica  fetch-request   none R/R  mac Am/Rm  auth Am/Rm  sig As/Rs  group Rm/Rm";
    "client   reply           none R/R  mac Am/Rm  auth R/R  sig As/Rs  group Rm/Rm";
    "client   new-key         none R/R  mac R/R  auth R/R  sig As/R  group R/R";
    "cohort   reply           none R/R  mac Rm/Rm  auth R/R  sig R/R  group Am/Rm";
    "baseline request         none Rm/Rm  mac Am/Rm  auth Rm/Rm  sig Rm/Rm  group Rm/Rm";
    "baseline reply           none Rm/Rm  mac Am/Rm  auth Rm/Rm  sig Rm/Rm  group Rm/Rm";
  ]

(* (row, cell before, cell now): what the one charging rule changed. A
   client compared a signature's signer id before charging for it; the
   baseline charged [mac_us] before it looked at the token or the sender
   (its other sender, client 1, is no replica and may not send a reply). *)
let charge_changes =
  [
    ("client   new-key", "sig As/R ", "sig As/Rs ");
    ("baseline request", "none Rm/Rm ", "none R/R ");
    ("baseline request", "auth Rm/Rm ", "auth R/R ");
    ("baseline request", "sig Rm/Rm ", "sig R/R ");
    ("baseline reply", "none Rm/Rm ", "none R/R ");
    ("baseline reply", "mac Am/Rm ", "mac Am/R ");
    ("baseline reply", "auth Rm/Rm ", "auth R/R ");
    ("baseline reply", "sig Rm/Rm ", "sig R/R ");
    ("baseline reply", "group Rm/Rm ", "group Rm/R ");
  ]

let replace_first ~sub ~by s =
  let n = String.length sub in
  let rec at i =
    if i + n > String.length s then Alcotest.failf "no %S in %S" sub s
    else if String.equal (String.sub s i n) sub then
      String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)
    else at (i + 1)
  in
  at 0

let test_table () =
  let verdicts s = String.of_seq (Seq.filter (fun c -> c <> 'm' && c <> 's') (String.to_seq s)) in
  let expected =
    List.map
      (fun line ->
        List.fold_left
          (fun line (row, before, now) ->
            if String.starts_with ~prefix:row line then begin
              Alcotest.(check string) "a charge change keeps the verdict" (verdicts before)
                (verdicts now);
              replace_first ~sub:before ~by:now line
            end
            else line)
          (line ^ " ") charge_changes
        |> String.trim)
      parent
  in
  Alcotest.(check (list string)) "verdict table" expected (render seal_verdict)

(* Replica [id] of [cfg] on a recording port, keyed from the world. *)
let replica w cfg ~id =
  let deps =
    {
      Replica.cfg;
      costs;
      registry = w.registry;
      keychain = List.assoc id w.chains;
      signer = List.assoc id w.signers;
      service = Bft_sm.Null_service.create ();
      rng = Bft_util.Rng.create 3L;
    }
  in
  let io = P.create () in
  let r = Replica.create deps ~port:(P.port io) ~id ~on_execute:(fun _ _ -> ()) in
  Replica.start r;
  ignore (P.take io);
  (r, io)

(* [from] seals [body] for [dst] as an honest replica of an n = 7 group. *)
let sealed w ~from ~dst body =
  let charged = ref [] in
  Seal.seal (principal w Replica ~id:from ~n:7 charged) ~corrupt:false ~dsts:[ dst ]
    (Message.no_cache ()) body

let opened_by w env =
  List.map
    (fun id -> (id, Seal.authentic (principal w Replica ~id ~n:7 (ref [])) env))
    [ 0; 1; 2; 3 ]

(* The one corruption rule: a replica under mac_storm (id 4 of an n = 7
   group, so replicas 0..3 are all its peers) and a client under
   byz_partial corrupt what is bound for odd peers, so 1 and 3 refuse
   and 0 and 2 accept: an authenticator, and a single MAC. *)
let test_corruption () =
  let w = world () in
  let halves = [ (0, true); (1, false); (2, true); (3, false) ] in
  let r, io = replica w (Config.make ~f:2 ()) ~id:4 in
  Replica.byzantine_wrong_mac r true;
  Replica.on_timer r Replica.Status;
  (match List.find_map (function P.Multicast (_, env) -> Some env | _ -> None) (P.take io) with
  | Some env -> Alcotest.(check (list (pair int bool))) "mac_storm authenticator" halves (opened_by w env)
  | None -> Alcotest.fail "no status multicast");
  List.iter
    (fun (peer, accepted) ->
      Replica.handle r (sealed w ~from:peer ~dst:4 (Query_stable { qs_replica = peer; qs_nonce = 1L }));
      match List.find_map (function P.Send (_, env) -> Some env | _ -> None) (P.take io) with
      | Some env ->
          Alcotest.(check (list (pair int bool)))
            (Printf.sprintf "mac_storm MAC to %d" peer)
            [ (peer, accepted) ]
            (List.filter (fun (id, _) -> id = peer) (opened_by w env))
      | None -> Alcotest.failf "no reply-stable to %d" peer)
    halves;
  let cfg = Config.make ~f:1 () in
  let c = Cluster.create ~num_clients:1 cfg in
  Bft_net.Network.set_gate (Cluster.network c) true;
  Client.byzantine_partial_auth (Cluster.client c 0) true;
  Client.invoke (Cluster.client c 0) ~op:"op" (fun ~result:_ ~latency_us:_ -> ());
  match Bft_net.Network.held (Cluster.network c) with
  | [ (_, _, env) ] ->
      let opens id =
        let r = Cluster.replica c id in
        ( id,
          Seal.authentic
            {
              Seal.id;
              n = 4;
              mode = Config.Mac_auth;
              keys = Seal.Replica (Replica.keychain r);
              signing = None;
              costs;
              charge = ignore;
            }
            env )
      in
      Alcotest.(check (list (pair int bool))) "byz_partial authenticator" halves
        (List.map opens [ 0; 1; 2; 3 ])
  | _ -> Alcotest.fail "not one request held"

(* The one charging rule, at a replica on a recording port: a token kind
   it refuses unread costs nothing; any other is charged before it is
   read, so before a signature's signer id is compared and before the
   sender is matched against the author. *)
let test_charging () =
  let w = world () in
  let r, io = replica w (Config.make ~f:1 ()) ~id:1 in
  let prepare a = Prepare { pr_view = 0; pr_seq = 1; pr_digest = d32 'a'; pr_replica = a } in
  let new_key = New_key { nk_replica = 2; nk_keys = []; nk_counter = 1L } in
  let charges ~sender ~auth b =
    Replica.handle r (Message.envelope ~sender ~auth b);
    List.filter_map (function P.Charge us -> Some us | _ -> None) (P.take io)
  in
  let token kind ~sender b =
    token w kind ~sender ~me:1 (Wire.envelope_digest (Message.envelope ~sender ~auth:Auth_none b))
  in
  let mac = costs.Costs.mac_us and sig_verify = costs.Costs.sig_verify_us in
  let check label expected got = Alcotest.(check (list (float 0.0))) label expected got in
  check "no token: free" [] (charges ~sender:2 ~auth:Auth_none (prepare 2));
  check "a MAC on a new-key: free" []
    (charges ~sender:2 ~auth:(token "mac" ~sender:2 new_key) new_key);
  check "another signer on a new-key: charged" [ sig_verify ]
    (charges ~sender:2 ~auth:(token "sig" ~sender:3 new_key) new_key);
  check "another sender's MAC on a prepare: charged" [ mac ]
    (charges ~sender:3 ~auth:(token "mac" ~sender:3 (prepare 2)) (prepare 2));
  match charges ~sender:2 ~auth:(token "sig" ~sender:2 (prepare 2)) (prepare 2) with
  | first :: _ -> Alcotest.(check (float 0.0)) "the author's signature: charged first" sig_verify first
  | [] -> Alcotest.fail "no charge"

(* A reply is taken only from its author. One relayed by replica 3 with
   replica 2's own MAC is misattributed at a replica, a client and a
   cohort alike; before Seal a client and a cohort checked the MAC alone
   and took it. *)
let test_reply_from_author () =
  let w = world () in
  List.iter
    (fun (kind, id, token_kind) ->
      let b = body "reply" ~a:2 ~me:id in
      let d = Wire.envelope_digest (Message.envelope ~sender:2 ~auth:Auth_none b) in
      let auth = token w token_kind ~sender:2 ~me:id d in
      let opens sender =
        match Seal.opens (principal w kind ~id ~n:4 (ref [])) (Message.envelope ~sender ~auth b) with
        | Seal.Authentic -> "authentic"
        | Unproven -> "unproven"
        | Misattributed -> "misattributed"
      in
      let label = receiver_name kind in
      Alcotest.(check string) (label ^ ": from its author") "authentic" (opens 2);
      Alcotest.(check string) (label ^ ": relayed") "misattributed" (opens 3))
    [ (Replica, 1, "mac"); (Client, 4, "mac"); (Cohort, 100, "group") ]

let suites =
  [
    ( "seal",
      [
        Alcotest.test_case "verdict table" `Quick test_table;
        Alcotest.test_case "one corruption rule" `Quick test_corruption;
        Alcotest.test_case "one charging rule" `Quick test_charging;
        Alcotest.test_case "a reply only from its author" `Quick test_reply_from_author;
      ] );
  ]
