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

(* counted only once the key, epoch and tag length pass, where the HMAC
   runs *)
let n_verifications = ref 0
let mac_verifications () = !n_verifications

let check_with ((key : Keychain.key), pre) mac d =
  key.epoch = mac.epoch
  && String.length mac.tag = tag_size
  && (incr n_verifications; Hmac.verify_digest pre ~tag:mac.tag d)

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

(* One entry per receiver but ourselves that has a key, in [receivers]
   order; no closure and no option per entry. *)
let rec entries keychain me d = function
  | [] -> []
  | peer :: rest when peer = me -> entries keychain me d rest
  | peer :: rest -> (
      match Keychain.out_key_pre keychain ~peer with
      | Some kp -> (peer, tag_with kp d) :: entries keychain me d rest
      | None -> entries keychain me d rest)

let compute_authenticator keychain ~receivers d =
  check_digest d;
  entries keychain (Keychain.my_id keychain) d receivers

(* our entry is the first one addressed to us *)
let rec verify_entry keychain ~peer me d = function
  | [] -> false
  | (id, mac) :: _ when id = me -> verify_mac keychain ~peer mac d
  | _ :: rest -> verify_entry keychain ~peer me d rest

let verify_authenticator keychain ~peer auth d =
  check_digest d;
  verify_entry keychain ~peer (Keychain.my_id keychain) d auth

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
