let tag_size = 8

type mac = { tag : string; epoch : int }
type authenticator = (int * mac) list

let compute_mac keychain ~peer msg =
  match Keychain.out_key_pre keychain ~peer with
  | None -> None
  | Some (key, pre) ->
      Some { tag = Hmac.mac_truncated_precomputed pre tag_size msg; epoch = key.epoch }

(* counted only once the key and epoch pass, where the HMAC runs *)
let n_verifications = ref 0
let mac_verifications () = !n_verifications

let verify_mac keychain ~peer mac msg =
  match Keychain.in_key_pre keychain ~peer with
  | Some (key, pre) when key.epoch = mac.epoch ->
      incr n_verifications;
      Hmac.verify_precomputed pre ~tag:mac.tag msg
  | _ -> false

let compute_authenticator keychain ~receivers msg =
  List.filter_map
    (fun peer ->
      if peer = Keychain.my_id keychain then None
      else
        match compute_mac keychain ~peer msg with
        | None -> None
        | Some mac -> Some (peer, mac))
    receivers

let verify_authenticator keychain ~peer auth msg =
  match List.assoc_opt (Keychain.my_id keychain) auth with
  | None -> false
  | Some mac -> verify_mac keychain ~peer mac msg

let corrupt_entry auth receiver =
  List.map
    (fun (peer, mac) ->
      if peer = receiver then
        (peer, { mac with tag = String.map (fun c -> Char.chr (Char.code c lxor 0xff)) mac.tag })
      else (peer, mac))
    auth

let size auth = 8 + (tag_size * List.length auth)
