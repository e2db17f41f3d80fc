let block_size = 64

let normalize_key key =
  let key = if String.length key > block_size then Sha256.digest key else key in
  if String.length key = block_size then key
  else key ^ String.make (block_size - String.length key) '\x00'

let xor_pad key byte =
  String.map (fun c -> Char.chr (Char.code c lxor byte)) key

(* Key-block precomputation: the SHA-256 midstates after absorbing the ipad
   and opad blocks. A MAC over a short message then costs ~2 compressions
   instead of 4 — the pad blocks are paid once per key, not per message —
   and each of those runs on the allocation-free midstate path instead of
   copying a streaming context. *)
type precomputed = { p_inner : Sha256.midstate; p_outer : Sha256.midstate }

let precompute ~key =
  let key = normalize_key key in
  let inner = Sha256.init () in
  Sha256.feed inner (xor_pad key 0x36);
  let outer = Sha256.init () in
  Sha256.feed outer (xor_pad key 0x5c);
  { p_inner = Sha256.midstate inner; p_outer = Sha256.midstate outer }

let mac_precomputed pre msg =
  let inner_digest = Sha256.digest_from_midstate pre.p_inner msg in
  Sha256.digest_from_midstate pre.p_outer inner_digest

let mac_truncated_precomputed pre n msg =
  let t = mac_precomputed pre msg in
  if n >= String.length t then t else String.sub t 0 n

let mac ~key msg = mac_precomputed (precompute ~key) msg

let mac_truncated ~key n msg =
  let t = mac ~key msg in
  if n >= String.length t then t else String.sub t 0 n

let constant_time_eq a b =
  String.length a = String.length b
  && begin
       let acc = ref 0 in
       String.iteri (fun i c -> acc := !acc lor (Char.code c lxor Char.code b.[i])) a;
       !acc = 0
     end

let verify ~key ~tag msg =
  let n = String.length tag in
  constant_time_eq tag (mac_truncated ~key n msg)

(* The one-block path: HMAC over a 32-byte message digest, one native
   call per tag ([Sha256.hmac_digest]). *)
let digest_size = 32

let mac_digest pre n d =
  if n < 1 || n > digest_size then invalid_arg "Hmac.mac_digest: tag length";
  let out = Bytes.create n in
  ignore (Sha256.hmac_digest ~inner:pre.p_inner ~outer:pre.p_outer d out ~verify:false);
  Bytes.unsafe_to_string out

(* The C code only reads [tag], so the unsafe view is sound. *)
let verify_digest pre ~tag d =
  if String.length d <> digest_size then invalid_arg "Hmac: the one-block path MACs a 32-byte digest";
  let n = String.length tag in
  n >= 1 && n <= digest_size
  && Sha256.hmac_digest ~inner:pre.p_inner ~outer:pre.p_outer d (Bytes.unsafe_of_string tag)
       ~verify:true
