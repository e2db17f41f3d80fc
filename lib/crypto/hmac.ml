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

(* The one-block path: HMAC over a 32-byte message digest. After the
   64-byte key block, the inner hash has 32 message bytes left and the
   outer hash the 32-byte inner digest, so each is exactly one
   compression of a block whose padding (0x80, zeros, the 768-bit length)
   never changes. Both run in module scratch: [block] keeps its constant
   tail, and [words] ends holding the tag. Nothing here re-enters itself,
   and everything runs on one domain, so sharing the scratch is sound. *)
let digest_size = 32
let block = Bytes.make block_size '\x00'

let () =
  Bytes.set block digest_size '\x80';
  Bytes.set_int64_be block (block_size - 8) (Int64.of_int ((block_size + digest_size) * 8))

let words = Array.make 8 0

let hash_digest pre d =
  if String.length d <> digest_size then invalid_arg "Hmac: the one-block path MACs a 32-byte digest";
  Bytes.blit_string d 0 block 0 digest_size;
  Sha256.compress_from pre.p_inner block words;
  for i = 0 to 7 do
    Bytes.set_int32_be block (4 * i) (Int32.of_int words.(i))
  done;
  Sha256.compress_from pre.p_outer block words

let mac_digest pre n d =
  if n < 1 || n > digest_size then invalid_arg "Hmac.mac_digest: tag length";
  hash_digest pre d;
  let out = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.set out i (Char.chr ((words.(i / 4) lsr (24 - (8 * (i mod 4)))) land 0xff))
  done;
  Bytes.unsafe_to_string out

(* word by word, without an early exit *)
let verify_digest pre ~tag d =
  hash_digest pre d;
  let n = String.length tag in
  n > 0 && n <= digest_size && n land 3 = 0
  && begin
       let acc = ref 0 in
       for i = 0 to (n / 4) - 1 do
         let w = Int32.to_int (String.get_int32_be tag (4 * i)) land 0xffffffff in
         acc := !acc lor (w lxor words.(i))
       done;
       !acc = 0
     end
