(* The MAC binds the message. MACs and signatures cover a message's
   32-byte digest ([Wire.envelope_digest]), not its bytes, so that digest
   must pin down every field: a body changed in one field under a token
   made for the original is refused, for every constructor and every
   field, and distinct messages never share a digest. A request's digest
   is the one it carries, SHA-256 of 'R' and its fields; 'R' is no body's
   tag byte, so a request's digest is domain-separated from every other
   body's. *)

open Bft_core
open Message
module Keychain = Bft_crypto.Keychain
module Auth = Bft_crypto.Auth
module Signature = Bft_crypto.Signature
module Network = Bft_net.Network
module Engine = Bft_sim.Engine
module R = Test_codec.R

let mac_input m = Wire.envelope_digest (Message.envelope ~sender:0 ~auth:Auth_none m)

(* --- every field of every constructor --- *)

let flip d = String.mapi (fun i c -> if i = 0 then Char.chr (Char.code c lxor 1) else c) d
let other_digest = String.make 32 'z'

(* Id 7, receiving for an n = 7 group, holding session keys from, and
   the signing registry of, every principal the generators name: replicas
   0..6 and clients 100..120, so no generated body names the receiver as
   its author. Its verdict is [Seal.opens] under replica keys, the one a
   replica's message handler acts on. *)
let receiver = 7
and group = 7

let request_tweaks (r : request) =
  let re ?(op = r.op) ?(timestamp = r.timestamp) ?(client = r.client)
      ?(read_only = r.read_only) ?(replier = r.replier) () =
    Message.request ~op ~timestamp ~client ~read_only ~replier
  in
  [
    re ~op:(r.op ^ "x") ();
    re ~timestamp:(Int64.succ r.timestamp) ();
    re ~client:(r.client + 1) ();
    re ~read_only:(not r.read_only) ();
    re ~replier:(r.replier + 1) ();
  ]

let batch_tweaks batch =
  let extra = [ By_digest other_digest :: batch ] in
  match batch with
  | Inline (r, tok) :: rest ->
      extra @ List.map (fun r' -> Inline (r', tok) :: rest) (request_tweaks r)
  | By_digest d :: rest -> extra @ [ By_digest (flip d) :: rest ]
  | [] -> extra

(* Each result differs from [m] in exactly one field. [Data] carries no
   token (its page is checked against the partition tree's digests,
   Section 5.3.2), so it has none. A view moved by the group size
   ([group], below) keeps the primary that authors a pre-prepare or
   new-view, so only the digest can refuse it: a token for view v must
   not pass for view v + n. *)
let tweaks m =
  match m with
  | Request r -> List.map (fun r' -> Request r') (request_tweaks r)
  | Reply p ->
      List.map
        (fun p -> Reply p)
        [
          { p with rp_view = p.rp_view + 1 };
          { p with rp_timestamp = Int64.succ p.rp_timestamp };
          { p with rp_client = p.rp_client + 1 };
          { p with rp_replica = p.rp_replica + 1 };
          { p with rp_tentative = not p.rp_tentative };
          {
            p with
            rp_result =
              (match p.rp_result with
              | Full s -> Full (s ^ "x")
              | Result_digest d -> Result_digest (flip d));
          };
        ]
  | Pre_prepare p ->
      List.map
        (fun p -> Pre_prepare p)
        ({ p with pp_view = p.pp_view + 1 }
        :: { p with pp_view = p.pp_view + group }
        :: { p with pp_seq = p.pp_seq + 1 }
        :: { p with pp_nondet = p.pp_nondet ^ "x" }
        :: List.map (fun b -> { p with pp_batch = b }) (batch_tweaks p.pp_batch))
  | Prepare p ->
      List.map
        (fun p -> Prepare p)
        [
          { p with pr_view = p.pr_view + 1 };
          { p with pr_seq = p.pr_seq + 1 };
          { p with pr_digest = flip p.pr_digest };
          { p with pr_replica = p.pr_replica + 1 };
        ]
  | Commit c ->
      List.map
        (fun c -> Commit c)
        [
          { c with cm_view = c.cm_view + 1 };
          { c with cm_seq = c.cm_seq + 1 };
          { c with cm_digest = flip c.cm_digest };
          { c with cm_replica = c.cm_replica + 1 };
        ]
  | Checkpoint c ->
      List.map
        (fun c -> Checkpoint c)
        [
          { c with ck_seq = c.ck_seq + 1 };
          { c with ck_digest = flip c.ck_digest };
          { c with ck_replica = c.ck_replica + 1 };
        ]
  | View_change v ->
      List.map
        (fun v -> View_change v)
        [
          { v with vc_view = v.vc_view + 1 };
          { v with vc_h = v.vc_h + 1 };
          { v with vc_cset = (0, other_digest) :: v.vc_cset };
          { v with vc_pset = { pe_seq = 0; pe_digest = other_digest; pe_view = 0 } :: v.vc_pset };
          { v with vc_qset = { qe_seq = 0; qe_entries = [ (other_digest, 0) ] } :: v.vc_qset };
          { v with vc_replica = v.vc_replica + 1 };
        ]
  | View_change_ack a ->
      List.map
        (fun a -> View_change_ack a)
        [
          { a with va_view = a.va_view + 1 };
          { a with va_replica = a.va_replica + 1 };
          { a with va_origin = a.va_origin + 1 };
          { a with va_digest = flip a.va_digest };
        ]
  | New_view n ->
      List.map
        (fun n -> New_view n)
        [
          { n with nv_view = n.nv_view + 1 };
          { n with nv_view = n.nv_view + group };
          { n with nv_vcs = (0, other_digest) :: n.nv_vcs };
          { n with nv_start = n.nv_start + 1 };
          { n with nv_start_digest = flip n.nv_start_digest };
          { n with nv_chosen = { nc_seq = 0; nc_digest = other_digest } :: n.nv_chosen };
        ]
  | Fetch f ->
      List.map
        (fun f -> Fetch f)
        [
          { f with ft_level = f.ft_level + 1 };
          { f with ft_index = f.ft_index + 1 };
          { f with ft_lc = f.ft_lc + 1 };
          { f with ft_rc = f.ft_rc + 1 };
          { f with ft_replier = f.ft_replier + 1 };
          { f with ft_replica = f.ft_replica + 1 };
        ]
  | Meta_data d ->
      List.map
        (fun d -> Meta_data d)
        [
          { d with md_checkpoint = d.md_checkpoint + 1 };
          { d with md_level = d.md_level + 1 };
          { d with md_index = d.md_index + 1 };
          { d with md_subparts = (0, 0, other_digest) :: d.md_subparts };
          { d with md_replica = d.md_replica + 1 };
        ]
  | Data _ -> []
  | Status_active s ->
      List.map
        (fun s -> Status_active s)
        [
          { s with sa_replica = s.sa_replica + 1 };
          { s with sa_view = s.sa_view + 1 };
          { s with sa_h = s.sa_h + 1 };
          { s with sa_last_exec = s.sa_last_exec + 1 };
          { s with sa_prepared = 0 :: s.sa_prepared };
          { s with sa_committed = 0 :: s.sa_committed };
        ]
  | Status_pending s ->
      List.map
        (fun s -> Status_pending s)
        [
          { s with sp_replica = s.sp_replica + 1 };
          { s with sp_view = s.sp_view + 1 };
          { s with sp_h = s.sp_h + 1 };
          { s with sp_last_exec = s.sp_last_exec + 1 };
          { s with sp_has_new_view = not s.sp_has_new_view };
          { s with sp_vcs_seen = 0 :: s.sp_vcs_seen };
        ]
  | New_key k ->
      List.map
        (fun k -> New_key k)
        [
          { k with nk_replica = k.nk_replica + 1 };
          { k with nk_keys = (0, { Keychain.secret = "s"; epoch = 1 }) :: k.nk_keys };
          { k with nk_counter = Int64.succ k.nk_counter };
        ]
  | Query_stable q ->
      List.map
        (fun q -> Query_stable q)
        [ { q with qs_replica = q.qs_replica + 1 }; { q with qs_nonce = Int64.succ q.qs_nonce } ]
  | Reply_stable r ->
      List.map
        (fun r -> Reply_stable r)
        [
          { r with rs_checkpoint = r.rs_checkpoint + 1 };
          { r with rs_prepared = r.rs_prepared + 1 };
          { r with rs_replica = r.rs_replica + 1 };
          { r with rs_nonce = Int64.succ r.rs_nonce };
        ]
  | Fetch_batch f ->
      List.map
        (fun f -> Fetch_batch f)
        [ { f with fb_digest = flip f.fb_digest }; { f with fb_replica = f.fb_replica + 1 } ]
  | Batch_data b ->
      List.map
        (fun b -> Batch_data b)
        ({ b with bd_digest = flip b.bd_digest }
        :: { b with bd_nondet = b.bd_nondet ^ "x" }
        :: List.map (fun bd_batch -> { b with bd_batch }) (batch_tweaks b.bd_batch))
  | Fetch_request f ->
      List.map
        (fun f -> Fetch_request f)
        [ { f with fr_digest = flip f.fr_digest }; { f with fr_replica = f.fr_replica + 1 } ]


type fixture = {
  seal : Seal.t;
  chains : (int, Keychain.t) Hashtbl.t;
  signers : (int, Signature.signer) Hashtbl.t;
}

let fixture () =
  let cfg = Config.make ~f:2 () in
  assert (cfg.Config.n = group);
  let rng = Bft_util.Rng.create 7L in
  let registry = Signature.create_registry () in
  let chains = Hashtbl.create 32 and signers = Hashtbl.create 32 in
  let ids = List.init 8 Fun.id @ List.init 21 (fun i -> 100 + i) in
  List.iter
    (fun id ->
      Hashtbl.replace chains id (Keychain.create ~my_id:id);
      Hashtbl.replace signers id (Signature.register registry rng id))
    ids;
  let mine = Hashtbl.find chains receiver in
  List.iter
    (fun id ->
      if id <> receiver then
        assert (
          Keychain.install_out_key (Hashtbl.find chains id) ~peer:receiver
            (Keychain.fresh_in_key mine rng ~peer:id)))
    ids;
  let seal =
    {
      Seal.id = receiver;
      n = cfg.Config.n;
      mode = cfg.Config.auth_mode;
      keys = Seal.Replica mine;
      signing = Some (registry, Hashtbl.find signers receiver);
      costs = Bft_net.Costs.default;
      charge = ignore;
    }
  in
  { seal; chains; signers }

(* the author the receiver checks the token against, who also sends it *)
let author m = Seal.author ~n:group ~sender:0 m

(* the tokens a sender can attach, each over the library's MAC input *)
let tokens fx m =
  let who = author m and d = mac_input m in
  let signature = ("signature", Auth_sig (Signature.sign (Hashtbl.find fx.signers who) d)) in
  match m with
  | New_key _ -> [ signature ]
  | _ ->
      let chain = Hashtbl.find fx.chains who in
      [
        ("mac", Auth_mac (Option.get (Auth.compute_mac chain ~peer:receiver d)));
        ( "authenticator",
          Auth_vector (Auth.compute_authenticator chain ~receivers:[ 0; 1; 2; receiver ] d) );
        signature;
      ]

(* A changed field must change the MAC input: a change that moves the
   author is refused by the author rule whatever the digest covers, so the
   input is compared too. A change that keeps the author is refused by the
   token alone. *)
let test_one_field_refused () =
  let fx = fixture () in
  for seed = 1 to 10 do
    let rng = Bft_util.Rng.create (Int64.of_int (seed * 7919)) in
    for k = 0 to R.n_constructors - 1 do
      let m = R.message rng k in
      List.iter
        (fun (kind, auth) ->
          let verdict body = Seal.opens fx.seal (Message.envelope ~sender:(author m) ~auth body) in
          let label = Printf.sprintf "%s under a %s" (Message.tag m) kind in
          Alcotest.(check bool) (label ^ ": original accepted") true (verdict m = Seal.Authentic);
          List.iteri
            (fun i m' ->
              let field = Printf.sprintf "%s: field %d changed" label i in
              Alcotest.(check bool) (field ^ ", MAC input changed") false
                (String.equal (mac_input m') (mac_input m));
              if author m' = author m then
                Alcotest.(check bool) (field ^ ", token refused") true (verdict m' = Seal.Unproven)
              else
                Alcotest.(check bool) (field ^ ", refused") false (verdict m' = Seal.Authentic))
            (tweaks m))
        (tokens fx m)
    done
  done

(* --- a request's op changed under its token, through the handlers --- *)

(* The backup is driven by hand through the delivery gate: [deliver]
   releases one envelope to it and lets what it set off settle. A request
   it accepts from a client is relayed to the primary; a pre-prepare it
   accepts is answered with a prepare. *)
let test_changed_op_refused () =
  let cfg = Config.make ~f:1 () in
  let replicas = Config.replica_ids cfg and backup = 1 in
  let fresh () =
    let c = Cluster.create ~num_clients:1 cfg in
    Network.set_gate (Cluster.network c) true;
    c
  in
  let deliver c env =
    let net = Cluster.network c in
    Network.send net ~src:env.sender ~dst:backup ~size:(Wire.envelope_size env) env;
    Alcotest.(check bool) "released" true
      (Network.release_held net ~nth:0 ~pred:(fun ~src:_ ~dst:_ m -> m == env));
    Cluster.run ~timeout_us:(Engine.to_us (Engine.now (Cluster.engine c)) +. 1_000.0) c
  in
  let sent c f =
    List.exists (fun (src, _, env) -> src = backup && f env.body) (Network.held (Cluster.network c))
  in
  let relayed = function Request _ -> true | _ -> false in
  let prepared = function Prepare _ -> true | _ -> false in
  (* the cluster's client, keyed afresh by hand, as the key exchange
     keys it *)
  let client = cfg.Config.n and rng = Bft_util.Rng.create 3L in
  let token c r =
    let kc = Keychain.create ~my_id:client in
    List.iter
      (fun i ->
        let k = Keychain.fresh_in_key (Replica.keychain (Cluster.replica c i)) rng ~peer:client in
        assert (Keychain.install_out_key kc ~peer:i k))
      replicas;
    Auth_vector (Auth.compute_authenticator kc ~receivers:replicas (Wire.request_digest r))
  in
  let request op = Message.request ~op ~timestamp:1L ~client ~read_only:false ~replier:0 in
  let original = request "put a 1" and changed = request "put a 9" in
  let pre_prepare c r tok =
    let pp = { pp_view = 0; pp_seq = 1; pp_batch = [ Inline (r, tok) ]; pp_nondet = "0" } in
    let body = Pre_prepare pp in
    let kc = Replica.keychain (Cluster.replica c 0) in
    let d = Wire.cached_digest (Message.no_cache ()) body in
    Message.envelope ~sender:0 ~auth:(Auth_vector (Auth.compute_authenticator kc ~receivers:replicas d)) body
  in
  List.iter
    (fun (label, r, accepted) ->
      let c = fresh () in
      deliver c (Message.envelope ~sender:client ~auth:(token c original) (Request r));
      Alcotest.(check bool) (label ^ " as an envelope") accepted (sent c relayed);
      let c = fresh () in
      deliver c (pre_prepare c r (token c original));
      Alcotest.(check bool) (label ^ " inline in a pre-prepare") accepted (sent c prepared))
    [ ("original accepted", original, true); ("changed op refused", changed, false) ]

(* --- distinct messages, distinct MAC inputs --- *)

let prop_distinct_digests =
  QCheck.Test.make ~name:"distinct messages have distinct MAC inputs" ~count:2000
    QCheck.(pair Test_codec.arb_message Test_codec.arb_message)
    (fun (a, b) ->
      String.equal (Wire.encode a) (Wire.encode b)
      || not (String.equal (mac_input a) (mac_input b)))

let prop_request_domain_separated =
  QCheck.Test.make ~name:"a request's MAC input differs from every other body's" ~count:200
    QCheck.int64
    (fun seed ->
      let rng = Bft_util.Rng.create seed in
      let r = R.message rng 0 in
      List.for_all
        (fun k -> not (String.equal (mac_input r) (mac_input (R.message rng k))))
        (List.init (R.n_constructors - 1) succ))

let suites =
  [
    ( "auth.binding",
      [
        Alcotest.test_case "one field changed under a valid token" `Quick test_one_field_refused;
        Alcotest.test_case "request op changed under its token" `Quick test_changed_op_refused;
        QCheck_alcotest.to_alcotest prop_distinct_digests;
        QCheck_alcotest.to_alcotest prop_request_domain_separated;
      ] );
  ]
