let tag_size = 8

type mac = { tag : string; epoch : int }
type authenticator = (int * mac) list

(* Every MAC covers a message's 32-byte digest: one HMAC path, the
   one-block one. *)
let check_digest d =
  if String.length d <> 32 then invalid_arg "Auth: MACs cover a 32-byte message digest"

(* Every entry point tags and checks through these two, whatever the
   key's source: an installed pairwise key or a group-derived one. *)
let tag_with ((key : Keychain.key), pre) d =
  { tag = Hmac.mac_digest pre tag_size d; epoch = key.epoch }

(* counted only once the key and epoch pass, where the HMAC runs *)
let n_verifications = ref 0
let mac_verifications () = !n_verifications

let check_with ((key : Keychain.key), pre) mac d =
  key.epoch = mac.epoch && (incr n_verifications; Hmac.verify_digest pre ~tag:mac.tag d)

let compute_mac keychain ~peer d =
  check_digest d;
  match Keychain.out_key_pre keychain ~peer with
  | Some kp -> Some (tag_with kp d)
  | None -> None

let verify_mac keychain ~peer mac d =
  check_digest d;
  match Keychain.in_key_pre keychain ~peer with
  | Some kp -> check_with kp mac d
  | None -> false

let compute_authenticator keychain ~receivers d =
  check_digest d;
  List.filter_map
    (fun peer ->
      if peer = Keychain.my_id keychain then None
      else
        match compute_mac keychain ~peer d with
        | None -> None
        | Some mac -> Some (peer, mac))
    receivers

let verify_authenticator keychain ~peer auth d =
  check_digest d;
  match List.assoc_opt (Keychain.my_id keychain) auth with
  | None -> false
  | Some mac -> verify_mac keychain ~peer mac d

let group_authenticator g ~src ~receivers d =
  check_digest d;
  List.map (fun dst -> (dst, tag_with (Keychain.group_derive g ~src ~dst) d)) receivers

let verify_group_mac g ~src ~dst mac d =
  check_digest d;
  check_with (Keychain.group_derive g ~src ~dst) mac d

let corrupt_entry auth receiver =
  List.map
    (fun (peer, mac) ->
      if peer = receiver then
        (peer, { mac with tag = String.map (fun c -> Char.chr (Char.code c lxor 0xff)) mac.tag })
      else (peer, mac))
    auth

let size auth = 8 + (tag_size * List.length auth)
