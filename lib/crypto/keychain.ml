type key = { secret : string; epoch : int }

(* Group-derived session keys: one shared secret stands in for the
   pairwise keys of a contiguous range of principal ids (the million-client
   cohorts). A directional key is derived on demand as
   [HMAC(group_secret, "key:src>dst")] at epoch 1, resuming the group
   secret's cached key-block midstates for every derivation. Derived keys
   are deliberately NOT cached: at 10^6 clients a per-peer cache at each
   replica would cost gigabytes, so every verification of a group-keyed
   MAC derives its key (and precompute) afresh. *)
type group = {
  g_first : int;
  g_last : int;
  g_pre : Hmac.precomputed;
  mutable g_derivations : int; (* observability: one per on-demand derive *)
}

let group ~first ~last ~secret =
  if first > last then invalid_arg "Keychain.group: empty range";
  { g_first = first; g_last = last; g_pre = Hmac.precompute ~key:secret; g_derivations = 0 }

let group_derivations g = g.g_derivations
let group_mem g id = id >= g.g_first && id <= g.g_last

let group_derive g ~src ~dst =
  g.g_derivations <- g.g_derivations + 1;
  let secret = Hmac.mac_precomputed g.g_pre (Printf.sprintf "key:%d>%d" src dst) in
  let key = { secret; epoch = 1 } in
  (key, Hmac.precompute ~key:secret)

(* One slot per peer and direction, indexed by peer id. Most of a
   cluster's pairwise keys never MAC anything, so a key's HMAC midstates
   are computed by its first lookup and stored with it in [keyed], which
   every later lookup returns as it is. Keys stay plain records (they
   are wire-serialized inside new-key messages). *)
type slot = {
  (* in-keys only: the highest epoch ever issued to this peer; it survives
     [drop_all_in_keys], so post-recovery keys supersede the dropped ones *)
  mutable issued : int;
  mutable key : key option;
  mutable keyed : (key * Hmac.precomputed) option; (* [key] and its midstates *)
}

type t = {
  my_id : int;
  mutable in_slots : slot array; (* peer -> key peer uses to send to us *)
  mutable out_slots : slot array; (* peer -> key we use to send to peer *)
  (* fallback for peers in the group's id range when no pairwise key is
     installed; explicitly installed keys always win *)
  mutable group : group option;
}

let create ~my_id = { my_id; in_slots = [||]; out_slots = [||]; group = None }
let my_id t = t.my_id
(* [slots] with room for [peer]: grown by doubling, new slots vacant *)
let room slots peer =
  let len = Array.length slots in
  if peer < len then slots
  else
    Array.init (max (peer + 1) (2 * len)) (fun i ->
        if i < len then slots.(i) else { issued = 0; key = None; keyed = None })

let installed slots peer = if peer >= 0 && peer < Array.length slots then slots.(peer).key else None

let install s key =
  s.key <- Some key;
  s.keyed <- None

let fresh_in_key t rng ~peer =
  if peer < 0 then invalid_arg "Keychain.fresh_in_key: negative peer";
  t.in_slots <- room t.in_slots peer;
  let s = t.in_slots.(peer) in
  s.issued <- s.issued + 1;
  let key = { secret = Bft_util.Rng.bytes rng 16; epoch = s.issued } in
  install s key;
  key

let install_out_key t ~peer key =
  let current_epoch = match installed t.out_slots peer with Some k -> k.epoch | None -> 0 in
  peer >= 0 && key.epoch > current_epoch
  && begin
       t.out_slots <- room t.out_slots peer;
       install t.out_slots.(peer) key;
       true
     end

(* an installed key with its midstates, computing them on first use *)
let lookup slots peer =
  if peer < 0 || peer >= Array.length slots then None
  else
    let s = slots.(peer) in
    match s.keyed with
    | Some _ as kp -> kp
    | None -> (
        match s.key with
        | None -> None
        | Some key ->
            let kp = Some (key, Hmac.precompute ~key:key.secret) in
            s.keyed <- kp;
            kp)

let set_group t g = t.group <- Some g
let group_of t = t.group

(* [dir]: [`In] keys authenticate peer -> us, [`Out] keys us -> peer. *)
let group_fallback t ~peer dir =
  match t.group with
  | Some g when group_mem g peer ->
      let src, dst = match dir with `In -> (peer, t.my_id) | `Out -> (t.my_id, peer) in
      Some (group_derive g ~src ~dst)
  | _ -> None

let out_key_pre t ~peer =
  match lookup t.out_slots peer with
  | Some _ as r -> r
  | None -> group_fallback t ~peer `Out

let in_key_pre t ~peer =
  match lookup t.in_slots peer with
  | Some _ as r -> r
  | None -> group_fallback t ~peer `In

let in_epoch t ~peer =
  match installed t.in_slots peer with
  | Some k -> k.epoch
  | None -> ( match t.group with Some g when group_mem g peer -> 1 | _ -> 0)

let drop_all_in_keys t =
  Array.iter
    (fun s ->
      s.key <- None;
      s.keyed <- None)
    t.in_slots
