(* Growable bump buffer for the encode-once wire pipeline — the
   [Paged_image] arena discipline applied to message encoding.

   A [Buffer.t] per encode costs an allocation, amortized doubling copies,
   and a final [Buffer.contents] copy. An arena is allocated once and
   reused for every encode: [reset] rewinds the bump pointer without
   shrinking, writes go straight into the backing bytes, and the encoder
   finishes with either a single [contents] copy (when an immutable string
   must escape, e.g. the envelope's [enc_bytes]) or no copy at all
   ([digest] feeds the backing bytes to SHA-256 directly and [length]
   answers sizing questions) — so digest-only and size-only paths touch no
   intermediate string or Bytes allocation whatsoever.

   Single-writer: an arena belongs to one scratch site and encoding is
   not reentrant — callers must fully finish one encode before
   starting the next on the same arena. *)

type t = { mutable buf : Bytes.t; mutable len : int }

let create ?(size = 256) () = { buf = Bytes.create (max 16 size); len = 0 }

let length t = t.len

let reset t = t.len <- 0

let grow t needed =
  let cap = ref (Bytes.length t.buf) in
  while !cap < needed do
    cap := !cap * 2
  done;
  let fresh = Bytes.create !cap in
  Bytes.blit t.buf 0 fresh 0 t.len;
  t.buf <- fresh

let ensure t extra =
  let needed = t.len + extra in
  if needed > Bytes.length t.buf then grow t needed

let add_char t c =
  ensure t 1;
  Bytes.unsafe_set t.buf t.len c;
  t.len <- t.len + 1

let add_int64_le t v =
  ensure t 8;
  Bytes.set_int64_le t.buf t.len v;
  t.len <- t.len + 8

let add_string t s =
  let n = String.length s in
  ensure t n;
  Bytes.blit_string s 0 t.buf t.len n;
  t.len <- t.len + n

let contents t = Bytes.sub_string t.buf 0 t.len

(* Digest straight off the backing bytes on the one-shot scratch path:
   zero allocation beyond the 32-byte result. *)
let digest t = Bft_crypto.Sha256.digest_bytes t.buf 0 t.len
