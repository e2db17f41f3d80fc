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

type t = {
  my_id : int;
  in_keys : (int, key) Hashtbl.t; (* peer -> key peer uses to send to us *)
  out_keys : (int, key) Hashtbl.t; (* peer -> key we use to send to peer *)
  (* highest epoch ever issued per peer; survives drop_all_in_keys so that
     post-recovery refreshed keys supersede the dropped ones *)
  issued_epochs : (int, int) Hashtbl.t;
  (* HMAC key-block midstates, cached per peer and validated against the
     installed key's epoch. Keys themselves stay plain records (they are
     wire-serialized inside new-key messages); the midstates live only
     here, beside the keychain that uses them. *)
  in_pre : (int, int * Hmac.precomputed) Hashtbl.t;
  out_pre : (int, int * Hmac.precomputed) Hashtbl.t;
  (* fallback for peers in the group's id range when no pairwise key is
     installed; explicitly installed keys always win *)
  mutable group : group option;
}

let create ~my_id =
  {
    my_id;
    in_keys = Hashtbl.create 16;
    out_keys = Hashtbl.create 16;
    issued_epochs = Hashtbl.create 16;
    in_pre = Hashtbl.create 16;
    out_pre = Hashtbl.create 16;
    group = None;
  }
let my_id t = t.my_id

let fresh_in_key t rng ~peer =
  let epoch =
    (match Hashtbl.find_opt t.issued_epochs peer with Some e -> e | None -> 0) + 1
  in
  Hashtbl.replace t.issued_epochs peer epoch;
  let key = { secret = Bft_util.Rng.bytes rng 16; epoch } in
  Hashtbl.replace t.in_keys peer key;
  key

let install_out_key t ~peer key =
  let current_epoch =
    match Hashtbl.find_opt t.out_keys peer with Some k -> k.epoch | None -> 0
  in
  if key.epoch > current_epoch then begin
    Hashtbl.replace t.out_keys peer key;
    true
  end
  else false

let precomputed cache keys ~peer =
  match Hashtbl.find_opt keys peer with
  | None -> None
  | Some key ->
      let pre =
        match Hashtbl.find_opt cache peer with
        | Some (epoch, pre) when epoch = key.epoch -> pre
        | _ ->
            let pre = Hmac.precompute ~key:key.secret in
            Hashtbl.replace cache peer (key.epoch, pre);
            pre
      in
      Some (key, pre)

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
  match precomputed t.out_pre t.out_keys ~peer with
  | Some _ as r -> r
  | None -> group_fallback t ~peer `Out

let in_key_pre t ~peer =
  match precomputed t.in_pre t.in_keys ~peer with
  | Some _ as r -> r
  | None -> group_fallback t ~peer `In

let in_epoch t ~peer =
  match Hashtbl.find_opt t.in_keys peer with
  | Some k -> k.epoch
  | None -> (
      match t.group with Some g when group_mem g peer -> 1 | _ -> 0)

let drop_all_in_keys t =
  Hashtbl.reset t.in_keys;
  Hashtbl.reset t.in_pre
