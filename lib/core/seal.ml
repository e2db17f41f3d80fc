[@@@lint.protocol_core]
module Auth = Bft_crypto.Auth
module Signature = Bft_crypto.Signature
module Costs = Bft_net.Costs
open Message

type keys =
  | Replica of Bft_crypto.Keychain.t
  | Endpoint of Bft_crypto.Keychain.t
  | Cohort of Bft_crypto.Keychain.group

type t = {
  id : int;
  n : int;
  mode : Config.auth_mode;
  keys : keys;
  signing : (Signature.registry * Signature.signer) option;
  costs : Costs.t;
  charge : float -> unit;
}

let sign p d =
  let _, signer = Option.get p.signing in
  p.charge p.costs.Costs.sig_gen_us;
  Auth_sig (Signature.sign signer d)

let token p d body ~dsts =
  match (p.mode, body, dsts, p.keys) with
  | _, New_key _, _, _ | Config.Sig_auth, _, _, _ -> sign p d
  | Config.Mac_auth, _, [ dst ], (Replica kc | Endpoint kc) -> (
      p.charge p.costs.Costs.mac_us;
      match Auth.compute_mac kc ~peer:dst d with Some m -> Auth_mac m | None -> Auth_none)
  | Config.Mac_auth, _, dsts, keys ->
      p.charge (Costs.auth_gen_us p.costs (List.length dsts));
      Auth_vector
        (match keys with
        | Replica kc | Endpoint kc -> Auth.compute_authenticator kc ~receivers:dsts d
        | Cohort g -> Auth.group_authenticator g ~src:p.id ~receivers:dsts d)

(* The one fault-injection rule: what is bound for odd-id peers. *)
let corrupted p dst = dst <> p.id && dst mod 2 = 1

let corrupt p auth ~dsts =
  match auth with
  | Auth_vector a ->
      Auth_vector
        (List.fold_left (fun a dst -> if corrupted p dst then Auth.corrupt_entry a dst else a) a dsts)
  | Auth_mac m when List.exists (corrupted p) dsts ->
      let tag = Bytes.of_string m.Auth.tag in
      if Bytes.length tag > 0 then Bytes.set tag 0 (Char.chr (Char.code (Bytes.get tag 0) lxor 0xff));
      Auth_mac { m with Auth.tag = Bytes.to_string tag }
  | auth -> auth

let seal p ~corrupt:c ~dsts enc body =
  let auth = token p (Wire.cached_digest enc body) body ~dsts in
  { sender = p.id; body; auth = (if c then corrupt p auth ~dsts else auth); enc }

let author ~n ~sender = function
  | Request r -> r.client
  | Reply r -> r.rp_replica
  | Pre_prepare p -> p.pp_view mod n
  | New_view v -> v.nv_view mod n
  | Prepare p -> p.pr_replica
  | Commit c -> c.cm_replica
  | Checkpoint c -> c.ck_replica
  | View_change v -> v.vc_replica
  | View_change_ack a -> a.va_replica
  | Fetch f -> f.ft_replica
  | Meta_data m -> m.md_replica
  | Status_active s -> s.sa_replica
  | Status_pending s -> s.sp_replica
  | New_key k -> k.nk_replica
  | Query_stable q -> q.qs_replica
  | Reply_stable r -> r.rs_replica
  | Fetch_batch f -> f.fb_replica
  | Batch_data _ | Data _ -> sender
  | Fetch_request f -> f.fr_replica

(* A token kind the receiver does not open is refused unread; any other
   is charged before it is read. A MAC or authenticator costs one
   [mac_us]: the receiver checks only its own entry (Section 3.2.1). *)
let check p ~author token d =
  match (token, p.keys, p.signing) with
  | Auth_sig s, _, Some (registry, _) ->
      p.charge p.costs.Costs.sig_verify_us;
      s.Signature.signer_id = author && Signature.verify registry s d
  | Auth_mac m, (Replica kc | Endpoint kc), _ ->
      p.charge p.costs.Costs.mac_us;
      Auth.verify_mac kc ~peer:author m d
  | Auth_mac m, Cohort g, _ ->
      p.charge p.costs.Costs.mac_us;
      Auth.verify_group_mac g ~src:author ~dst:p.id m d
  | Auth_vector a, Replica kc, _ ->
      p.charge p.costs.Costs.mac_us;
      Auth.verify_authenticator kc ~peer:author a d
  | (Auth_none | Auth_sig _ | Auth_vector _), _, _ -> false

type verdict = Authentic | Unproven | Misattributed

let opens p (env : envelope) =
  let request = match env.body with Request _ -> true | _ -> false in
  (* only replicas speak the replica protocol: a client holds session
     keys with every replica, so its MAC on a prepare would check *)
  if (not request) && (env.sender < 0 || env.sender >= p.n) then Misattributed
  else
    match env.body with
    | Data _ -> Authentic
    | body ->
        let a = author ~n:p.n ~sender:env.sender body in
        let ok =
          match (body, env.auth) with
          | New_key _, (Auth_none | Auth_mac _ | Auth_vector _) -> false
          | _ -> check p ~author:a env.auth (Wire.envelope_digest env)
        in
        (* backups relay a client's request with its token intact, and a
           new-key's signature speaks for itself *)
        let relayed = match body with Request _ | New_key _ -> true | _ -> false in
        if env.sender <> a && not relayed then Misattributed else if ok then Authentic else Unproven

let authentic p env = match opens p env with Authentic -> true | Unproven | Misattributed -> false
let opens_request p (r : request) token = check p ~author:r.client token r.rq_digest

let install_key p (nk : new_key) =
  match (p.keys, List.assoc_opt p.id nk.nk_keys) with
  | (Replica kc | Endpoint kc), Some key when nk.nk_replica <> p.id ->
      ignore (Bft_crypto.Keychain.install_out_key kc ~peer:nk.nk_replica key)
  | _ -> ()
