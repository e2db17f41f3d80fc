let tag_size = 8

type mac = { tag : string; epoch : int }
type authenticator = (int * mac) list

let compute_mac keychain ~peer msg =
  match Keychain.out_key_pre keychain ~peer with
  | None -> None
  | Some (key, pre) ->
      Some { tag = Hmac.mac_truncated_precomputed pre tag_size msg; epoch = key.epoch }

let verify_mac keychain ~peer mac msg =
  match Keychain.in_key_pre keychain ~peer with
  | None -> false
  | Some (key, pre) ->
      key.epoch = mac.epoch && Hmac.verify_precomputed pre ~tag:mac.tag msg

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

(* Batched verification keyed by sender: one in-key lookup (and hence one
   cached HMAC key-block precompute) per sender per flush, with the actual
   tag/digest recomputation run through [Vpool.run]. [results.(i)] answers
   [items.(i)] and is exactly what the sequential
   [verify_mac]/[verify_authenticator] path would have returned for that
   item. Items whose key is missing, whose epoch is stale, or whose
   authenticator has no entry for us are decided false up front without a
   job. *)

type batch_item =
  | Item_mac of { peer : int; mac : mac; msg : string }
  | Item_auth of { peer : int; auth : authenticator; msg : string }
  | Item_digest of { expect : string; msg : string }

let verify_batch keychain items =
  let n = Array.length items in
  let results = Array.make n false in
  if n > 0 then begin
    (* the single-token case (every envelope verify) skips the per-sender
       memo: one direct key lookup, no Hashtbl *)
    let key_for =
      if n = 1 then fun peer -> Keychain.in_key_pre keychain ~peer
      else begin
        let keys = Hashtbl.create 8 in
        fun peer ->
          match Hashtbl.find_opt keys peer with
          | Some k -> k
          | None ->
              let k = Keychain.in_key_pre keychain ~peer in
              Hashtbl.add keys peer k;
              k
      end
    in
    let my = Keychain.my_id keychain in
    let jobs = ref [] and slots = ref [] and n_jobs = ref 0 in
    let submit i job =
      jobs := job :: !jobs;
      slots := i :: !slots;
      incr n_jobs
    in
    for i = 0 to n - 1 do
      let mac_item peer (mac : mac) msg =
        match key_for peer with
        | Some (key, pre) when key.Keychain.epoch = mac.epoch ->
            submit i (Vpool.Verify_mac { pre; tag = mac.tag; msg })
        | _ -> () (* no session key or stale epoch: decided false *)
      in
      match items.(i) with
      | Item_mac { peer; mac; msg } -> mac_item peer mac msg
      | Item_auth { peer; auth; msg } -> (
          match List.assoc_opt my auth with
          | None -> () (* no entry for us: decided false *)
          | Some mac -> mac_item peer mac msg)
      | Item_digest { expect; msg } -> submit i (Vpool.Check_digest { expect; msg })
    done;
    if !n_jobs > 0 then begin
      let verdicts = Vpool.run (Array.of_list (List.rev !jobs)) in
      List.iteri (fun k i -> results.(i) <- verdicts.(k)) (List.rev !slots)
    end
  end;
  results

let corrupt_entry auth receiver =
  List.map
    (fun (peer, mac) ->
      if peer = receiver then
        (peer, { mac with tag = String.map (fun c -> Char.chr (Char.code c lxor 0xff)) mac.tag })
      else (peer, mac))
    auth

let size auth = 8 + (tag_size * List.length auth)
