(* SHA-256 over 32-bit words held in OCaml ints (63-bit native ints on
   64-bit platforms).

   Block compression is native (sha256_stubs.c): an SHA-NI kernel when
   cpuid reports the x86-64 SHA extensions, portable C otherwise, chosen
   once from cpuid and by nothing else. This module does the buffering,
   padding and length encoding around it, and hands each run of full
   64-byte blocks to the kernel in one call, straight from the source
   string. One-block HMACs over a 32-byte digest run wholly in native
   code, padding and both compressions in one call ([hmac_digest]). *)

external c_compress : int array -> string -> int -> int -> unit = "caml_bft_sha256_compress"
[@@noalloc] [@@lint.pure "deterministic SHA-256 block compression; no I/O, no raise"]

external c_hmac_digest :
  int array -> int array -> string -> Bytes.t -> int -> int -> bool -> bool
  = "caml_bft_hmac_digest_byte" "caml_bft_hmac_digest"
[@@noalloc] [@@lint.pure "deterministic one-block HMAC-SHA256; no I/O, no raise"]

external c_kernel : unit -> int = "caml_bft_sha256_kernel" [@@noalloc]
external c_force : int -> bool = "caml_bft_sha256_force" [@@noalloc]

(* [compress h8 s off nblocks] compresses the [nblocks] 64-byte blocks of
   [s] at [off] into [h8]. The only caller of [c_compress]: the C code
   reads raw memory, so the range is checked here. *)
let compress h8 s off nblocks =
  let len = String.length s in
  if off < 0 || off > len || nblocks < 0 || nblocks > (len - off) / 64 then
    invalid_arg "Sha256.compress";
  if nblocks > 0 then c_compress h8 s off nblocks

let kernel () = if c_kernel () = 1 then "sha-ni" else "portable"

module For_testing = struct
  let with_kernel name f =
    let k =
      match name with
      | "portable" -> 0
      | "sha-ni" -> 1
      | _ -> invalid_arg ("Sha256.For_testing.with_kernel: " ^ name)
    in
    if not (c_force k) then None
    else Some (Fun.protect ~finally:(fun () -> ignore (c_force (-1))) f)

  let compress = compress
end

let iv_words =
  [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
     0x1f83d9ab; 0x5be0cd19 |]

type ctx = {
  h : int array; (* 8 working hash words *)
  buf : Bytes.t; (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int; (* total bytes fed *)
}

let init () = { h = Array.copy iv_words; buf = Bytes.create 64; buf_len = 0; total = 0 }

let feed_sub ctx s pos len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Sha256.feed_sub";
  ctx.total <- ctx.total + len;
  let pos = ref pos and remaining = ref len in
  (* top up a partial block first *)
  if ctx.buf_len > 0 then begin
    let need = 64 - ctx.buf_len in
    let take = min need !remaining in
    Bytes.blit_string s !pos ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := !pos + take;
    remaining := !remaining - take;
    if ctx.buf_len = 64 then begin
      compress ctx.h (Bytes.unsafe_to_string ctx.buf) 0 1;
      ctx.buf_len <- 0
    end
  end;
  (* aligned full blocks compress straight from the source, no copy *)
  let blocks = !remaining / 64 in
  compress ctx.h s !pos blocks;
  pos := !pos + (64 * blocks);
  remaining := !remaining - (64 * blocks);
  if !remaining > 0 then begin
    Bytes.blit_string s !pos ctx.buf 0 !remaining;
    ctx.buf_len <- !remaining
  end

let feed ctx s = feed_sub ctx s 0 (String.length s)

let output_digest h8 =
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be out (4 * i) (Int32.of_int (Array.unsafe_get h8 i))
  done;
  Bytes.unsafe_to_string out

(* Finishing a hash without staging copies: [h8] has absorbed [fed] bytes
   (a multiple of 64); the full blocks of [s.[pos..pos+len)] compress
   straight from [s] in one kernel call, and the 1-2 padded tail blocks
   (0x80, zeros, 64-bit big-endian bit length), built in module-level
   scratch, in a second. No caller re-enters [finish], so sharing the
   scratch is sound. *)
let tail_scratch = Bytes.make 128 '\x00'

let finish h8 ~fed s pos len =
  let blocks = len / 64 in
  compress h8 s pos blocks;
  let rem = len - (blocks * 64) in
  let tail_len = if rem < 56 then 64 else 128 in
  let tail = tail_scratch in
  Bytes.fill tail 0 tail_len '\x00';
  Bytes.blit_string s (pos + (blocks * 64)) tail 0 rem;
  Bytes.set tail rem '\x80';
  Bytes.set_int64_be tail (tail_len - 8) (Int64.of_int ((fed + len) * 8));
  compress h8 (Bytes.unsafe_to_string tail) 0 (tail_len / 64);
  output_digest h8

let finalize ctx =
  finish ctx.h
    ~fed:(ctx.total - ctx.buf_len)
    (Bytes.unsafe_to_string ctx.buf) 0 ctx.buf_len

(* One-shot digest: no streaming context and no per-call allocation beyond
   the result -- the working state lives in a module-level scratch array.
   [digest] never re-enters itself, so sharing it is sound. Callers needing
   reentrancy use the streaming [ctx] API. *)
let scratch_h = Array.make 8 0

let digest_sub s pos len =
  Array.blit iv_words 0 scratch_h 0 8;
  finish scratch_h ~fed:0 s pos len

let digest s = digest_sub s 0 (String.length s)

(* One-shot digest of a byte-buffer prefix (e.g. a Wire_arena's backing
   store): the bytes are only read within this call, so the unsafe view is
   sound even if the caller mutates the buffer afterwards. *)
let digest_bytes b pos len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Sha256.digest_bytes";
  digest_sub (Bytes.unsafe_to_string b) pos len

(* Resumable midstates (HMAC key-block precomputation): a snapshot of the
   eight hash words at a block boundary. [digest_from_midstate] finishes a
   hash from such a snapshot on the same scratch-state path as [digest]. *)

type midstate = { mh : int array; m_fed : int (* bytes absorbed, multiple of 64 *) }

let midstate ctx =
  if ctx.buf_len <> 0 then invalid_arg "Sha256.midstate: stream not block-aligned";
  { mh = Array.copy ctx.h; m_fed = ctx.total }

let digest_from_midstate m s =
  Array.blit m.mh 0 scratch_h 0 8;
  finish scratch_h ~fed:m.m_fed s 0 (String.length s)

(* The one-block HMAC over a 32-byte digest: the only caller of
   [c_hmac_digest], so the lengths and the range the C code trusts are
   checked here. Both midstates must have absorbed exactly one 64-byte
   block, the key pad: the C code's constant padding encodes that
   length. *)
let hmac_digest ~inner ~outer d buf ~off ~len ~verify =
  if inner.m_fed <> 64 || outer.m_fed <> 64 || String.length d <> 32 || len < 1 || len > 32
     || off < 0 || off > Bytes.length buf - len
  then invalid_arg "Sha256.hmac_digest";
  c_hmac_digest inner.mh outer.mh d buf off len verify

let hexdigest s = Bft_util.Hex.encode (digest s)
