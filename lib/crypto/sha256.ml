(* SHA-256 over 32-bit words represented as OCaml ints (63-bit native ints on
   64-bit platforms).

   Hot-path notes: this hash runs under every MAC and digest in the
   simulator, and the build has no flambda, so nothing here relies on the
   inliner; the compression function is fully unrolled -- rounds, message
   schedule and word loads alike -- with round constants and indices written
   out literally (no helper calls, no module-field loads, no loop
   arithmetic).

   Message words load two bytes at a time through the unboxed
   [%caml_string_get16u] / [%bswap16] primitives (a tagged-int [lsr] costs
   three machine ops, so fewer/wider loads beat composing four chars).

   Rotations use bit replication: for a masked 32-bit word [x], the double
   word [y = x lor (x lsl 32)] turns every rotate-right into a single
   [y lsr n] (the wrap-around bits arrive from the replicated copy), so the
   three sigma rotations cost one replication plus three shifts instead of
   twelve shift/or/mask ops. The top replicated bit (bit 31 -> 63) falls off
   the 63-bit int, which is harmless because no shift here reaches past bit
   56. Masking is deferred: t1/t2 stay unmasked (sums of 32-bit values fit
   easily in 63 bits) and only values that feed a later replication are
   masked back to 32 bits.

   The a..h working state is in SSA form: each unrolled round binds just the
   two words it changes under fresh names and later rounds refer to the
   renamed variables, so the textbook "rotate the eight variables" step
   costs zero instructions. Choice and majority use the 3/4-op forms
   [ch = g lxor (e land (f lxor g))] and
   [maj = (a land b) lor (c land (a lor b))].

   Full 64-byte blocks compress directly from the source string instead of
   being staged through the context buffer, and the one-shot [digest]
   bypasses the streaming context entirely, hashing into module-level
   scratch state (sound because [digest] never re-enters itself; the
   streaming [ctx] API stays allocation-per-use and safe). *)

external unsafe_get16 : string -> int -> int = "%caml_string_get16u"
external bswap16 : int -> int = "%bswap16"

(* Compress one 64-byte block of [s] at [off] into state [h8] using
   schedule scratch [w]. Callers guarantee [off + 64 <= String.length s]. *)
let compress_block (h8 : int array) (w : int array) (s : string) off =
  for t = 0 to 15 do
    let o = off + (4 * t) in
    Array.unsafe_set w t
      ((bswap16 (unsafe_get16 s o) lsl 16) lor bswap16 (unsafe_get16 s (o + 2)))
  done;
  for t = 16 to 63 do
    let w15 = Array.unsafe_get w (t - 15) and w2 = Array.unsafe_get w (t - 2) in
    let y15 = w15 lor (w15 lsl 32) and y2 = w2 lor (w2 lsl 32) in
    let s0 = ((y15 lsr 7) lxor (y15 lsr 18) lxor (w15 lsr 3)) land 0xFFFFFFFF in
    let s1 = ((y2 lsr 17) lxor (y2 lsr 19) lxor (w2 lsr 10)) land 0xFFFFFFFF in
    Array.unsafe_set w t
      ((Array.unsafe_get w (t - 16) + s0 + Array.unsafe_get w (t - 7) + s1) land 0xFFFFFFFF)
  done;
  let a = Array.unsafe_get h8 0 and b = Array.unsafe_get h8 1 in
  let c = Array.unsafe_get h8 2 and d = Array.unsafe_get h8 3 in
  let e = Array.unsafe_get h8 4 and f = Array.unsafe_get h8 5 in
  let g = Array.unsafe_get h8 6 and h = Array.unsafe_get h8 7 in
  let ee = e lor (e lsl 32) in
  let t1 = h + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (g lxor (e land (f lxor g))) + 0x428a2f98 + Array.unsafe_get w 0 in
  let aa = a lor (a lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a land b) lor (c land (a lor b))) in
  let e0 = (d + t1) land 0xFFFFFFFF in
  let a0 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e0 lor (e0 lsl 32) in
  let t1 = g + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (f lxor (e0 land (e lxor f))) + 0x71374491 + Array.unsafe_get w 1 in
  let aa = a0 lor (a0 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a0 land a) lor (b land (a0 lor a))) in
  let e1 = (c + t1) land 0xFFFFFFFF in
  let a1 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e1 lor (e1 lsl 32) in
  let t1 = f + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (e lxor (e1 land (e0 lxor e))) + 0xb5c0fbcf + Array.unsafe_get w 2 in
  let aa = a1 lor (a1 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a1 land a0) lor (a land (a1 lor a0))) in
  let e2 = (b + t1) land 0xFFFFFFFF in
  let a2 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e2 lor (e2 lsl 32) in
  let t1 = e + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (e0 lxor (e2 land (e1 lxor e0))) + 0xe9b5dba5 + Array.unsafe_get w 3 in
  let aa = a2 lor (a2 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a2 land a1) lor (a0 land (a2 lor a1))) in
  let e3 = (a + t1) land 0xFFFFFFFF in
  let a3 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e3 lor (e3 lsl 32) in
  let t1 = e0 + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (e1 lxor (e3 land (e2 lxor e1))) + 0x3956c25b + Array.unsafe_get w 4 in
  let aa = a3 lor (a3 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a3 land a2) lor (a1 land (a3 lor a2))) in
  let e4 = (a0 + t1) land 0xFFFFFFFF in
  let a4 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e4 lor (e4 lsl 32) in
  let t1 = e1 + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (e2 lxor (e4 land (e3 lxor e2))) + 0x59f111f1 + Array.unsafe_get w 5 in
  let aa = a4 lor (a4 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a4 land a3) lor (a2 land (a4 lor a3))) in
  let e5 = (a1 + t1) land 0xFFFFFFFF in
  let a5 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e5 lor (e5 lsl 32) in
  let t1 = e2 + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (e3 lxor (e5 land (e4 lxor e3))) + 0x923f82a4 + Array.unsafe_get w 6 in
  let aa = a5 lor (a5 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a5 land a4) lor (a3 land (a5 lor a4))) in
  let e6 = (a2 + t1) land 0xFFFFFFFF in
  let a6 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e6 lor (e6 lsl 32) in
  let t1 = e3 + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (e4 lxor (e6 land (e5 lxor e4))) + 0xab1c5ed5 + Array.unsafe_get w 7 in
  let aa = a6 lor (a6 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a6 land a5) lor (a4 land (a6 lor a5))) in
  let e7 = (a3 + t1) land 0xFFFFFFFF in
  let a7 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e7 lor (e7 lsl 32) in
  let t1 = e4 + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (e5 lxor (e7 land (e6 lxor e5))) + 0xd807aa98 + Array.unsafe_get w 8 in
  let aa = a7 lor (a7 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a7 land a6) lor (a5 land (a7 lor a6))) in
  let e8 = (a4 + t1) land 0xFFFFFFFF in
  let a8 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e8 lor (e8 lsl 32) in
  let t1 = e5 + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (e6 lxor (e8 land (e7 lxor e6))) + 0x12835b01 + Array.unsafe_get w 9 in
  let aa = a8 lor (a8 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a8 land a7) lor (a6 land (a8 lor a7))) in
  let e9 = (a5 + t1) land 0xFFFFFFFF in
  let a9 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e9 lor (e9 lsl 32) in
  let t1 = e6 + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (e7 lxor (e9 land (e8 lxor e7))) + 0x243185be + Array.unsafe_get w 10 in
  let aa = a9 lor (a9 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a9 land a8) lor (a7 land (a9 lor a8))) in
  let e10 = (a6 + t1) land 0xFFFFFFFF in
  let a10 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e10 lor (e10 lsl 32) in
  let t1 = e7 + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (e8 lxor (e10 land (e9 lxor e8))) + 0x550c7dc3 + Array.unsafe_get w 11 in
  let aa = a10 lor (a10 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a10 land a9) lor (a8 land (a10 lor a9))) in
  let e11 = (a7 + t1) land 0xFFFFFFFF in
  let a11 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e11 lor (e11 lsl 32) in
  let t1 = e8 + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (e9 lxor (e11 land (e10 lxor e9))) + 0x72be5d74 + Array.unsafe_get w 12 in
  let aa = a11 lor (a11 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a11 land a10) lor (a9 land (a11 lor a10))) in
  let e12 = (a8 + t1) land 0xFFFFFFFF in
  let a12 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e12 lor (e12 lsl 32) in
  let t1 = e9 + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (e10 lxor (e12 land (e11 lxor e10))) + 0x80deb1fe + Array.unsafe_get w 13 in
  let aa = a12 lor (a12 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a12 land a11) lor (a10 land (a12 lor a11))) in
  let e13 = (a9 + t1) land 0xFFFFFFFF in
  let a13 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e13 lor (e13 lsl 32) in
  let t1 = e10 + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (e11 lxor (e13 land (e12 lxor e11))) + 0x9bdc06a7 + Array.unsafe_get w 14 in
  let aa = a13 lor (a13 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a13 land a12) lor (a11 land (a13 lor a12))) in
  let e14 = (a10 + t1) land 0xFFFFFFFF in
  let a14 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e14 lor (e14 lsl 32) in
  let t1 = e11 + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (e12 lxor (e14 land (e13 lxor e12))) + 0xc19bf174 + Array.unsafe_get w 15 in
  let aa = a14 lor (a14 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a14 land a13) lor (a12 land (a14 lor a13))) in
  let e15 = (a11 + t1) land 0xFFFFFFFF in
  let a15 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e15 lor (e15 lsl 32) in
  let t1 = e12 + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (e13 lxor (e15 land (e14 lxor e13))) + 0xe49b69c1 + Array.unsafe_get w 16 in
  let aa = a15 lor (a15 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a15 land a14) lor (a13 land (a15 lor a14))) in
  let e16 = (a12 + t1) land 0xFFFFFFFF in
  let a16 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e16 lor (e16 lsl 32) in
  let t1 = e13 + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (e14 lxor (e16 land (e15 lxor e14))) + 0xefbe4786 + Array.unsafe_get w 17 in
  let aa = a16 lor (a16 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a16 land a15) lor (a14 land (a16 lor a15))) in
  let e17 = (a13 + t1) land 0xFFFFFFFF in
  let a17 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e17 lor (e17 lsl 32) in
  let t1 = e14 + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (e15 lxor (e17 land (e16 lxor e15))) + 0x0fc19dc6 + Array.unsafe_get w 18 in
  let aa = a17 lor (a17 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a17 land a16) lor (a15 land (a17 lor a16))) in
  let e18 = (a14 + t1) land 0xFFFFFFFF in
  let a18 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e18 lor (e18 lsl 32) in
  let t1 = e15 + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (e16 lxor (e18 land (e17 lxor e16))) + 0x240ca1cc + Array.unsafe_get w 19 in
  let aa = a18 lor (a18 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a18 land a17) lor (a16 land (a18 lor a17))) in
  let e19 = (a15 + t1) land 0xFFFFFFFF in
  let a19 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e19 lor (e19 lsl 32) in
  let t1 = e16 + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (e17 lxor (e19 land (e18 lxor e17))) + 0x2de92c6f + Array.unsafe_get w 20 in
  let aa = a19 lor (a19 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a19 land a18) lor (a17 land (a19 lor a18))) in
  let e20 = (a16 + t1) land 0xFFFFFFFF in
  let a20 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e20 lor (e20 lsl 32) in
  let t1 = e17 + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (e18 lxor (e20 land (e19 lxor e18))) + 0x4a7484aa + Array.unsafe_get w 21 in
  let aa = a20 lor (a20 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a20 land a19) lor (a18 land (a20 lor a19))) in
  let e21 = (a17 + t1) land 0xFFFFFFFF in
  let a21 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e21 lor (e21 lsl 32) in
  let t1 = e18 + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (e19 lxor (e21 land (e20 lxor e19))) + 0x5cb0a9dc + Array.unsafe_get w 22 in
  let aa = a21 lor (a21 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a21 land a20) lor (a19 land (a21 lor a20))) in
  let e22 = (a18 + t1) land 0xFFFFFFFF in
  let a22 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e22 lor (e22 lsl 32) in
  let t1 = e19 + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (e20 lxor (e22 land (e21 lxor e20))) + 0x76f988da + Array.unsafe_get w 23 in
  let aa = a22 lor (a22 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a22 land a21) lor (a20 land (a22 lor a21))) in
  let e23 = (a19 + t1) land 0xFFFFFFFF in
  let a23 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e23 lor (e23 lsl 32) in
  let t1 = e20 + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (e21 lxor (e23 land (e22 lxor e21))) + 0x983e5152 + Array.unsafe_get w 24 in
  let aa = a23 lor (a23 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a23 land a22) lor (a21 land (a23 lor a22))) in
  let e24 = (a20 + t1) land 0xFFFFFFFF in
  let a24 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e24 lor (e24 lsl 32) in
  let t1 = e21 + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (e22 lxor (e24 land (e23 lxor e22))) + 0xa831c66d + Array.unsafe_get w 25 in
  let aa = a24 lor (a24 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a24 land a23) lor (a22 land (a24 lor a23))) in
  let e25 = (a21 + t1) land 0xFFFFFFFF in
  let a25 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e25 lor (e25 lsl 32) in
  let t1 = e22 + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (e23 lxor (e25 land (e24 lxor e23))) + 0xb00327c8 + Array.unsafe_get w 26 in
  let aa = a25 lor (a25 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a25 land a24) lor (a23 land (a25 lor a24))) in
  let e26 = (a22 + t1) land 0xFFFFFFFF in
  let a26 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e26 lor (e26 lsl 32) in
  let t1 = e23 + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (e24 lxor (e26 land (e25 lxor e24))) + 0xbf597fc7 + Array.unsafe_get w 27 in
  let aa = a26 lor (a26 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a26 land a25) lor (a24 land (a26 lor a25))) in
  let e27 = (a23 + t1) land 0xFFFFFFFF in
  let a27 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e27 lor (e27 lsl 32) in
  let t1 = e24 + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (e25 lxor (e27 land (e26 lxor e25))) + 0xc6e00bf3 + Array.unsafe_get w 28 in
  let aa = a27 lor (a27 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a27 land a26) lor (a25 land (a27 lor a26))) in
  let e28 = (a24 + t1) land 0xFFFFFFFF in
  let a28 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e28 lor (e28 lsl 32) in
  let t1 = e25 + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (e26 lxor (e28 land (e27 lxor e26))) + 0xd5a79147 + Array.unsafe_get w 29 in
  let aa = a28 lor (a28 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a28 land a27) lor (a26 land (a28 lor a27))) in
  let e29 = (a25 + t1) land 0xFFFFFFFF in
  let a29 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e29 lor (e29 lsl 32) in
  let t1 = e26 + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (e27 lxor (e29 land (e28 lxor e27))) + 0x06ca6351 + Array.unsafe_get w 30 in
  let aa = a29 lor (a29 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a29 land a28) lor (a27 land (a29 lor a28))) in
  let e30 = (a26 + t1) land 0xFFFFFFFF in
  let a30 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e30 lor (e30 lsl 32) in
  let t1 = e27 + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (e28 lxor (e30 land (e29 lxor e28))) + 0x14292967 + Array.unsafe_get w 31 in
  let aa = a30 lor (a30 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a30 land a29) lor (a28 land (a30 lor a29))) in
  let e31 = (a27 + t1) land 0xFFFFFFFF in
  let a31 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e31 lor (e31 lsl 32) in
  let t1 = e28 + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (e29 lxor (e31 land (e30 lxor e29))) + 0x27b70a85 + Array.unsafe_get w 32 in
  let aa = a31 lor (a31 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a31 land a30) lor (a29 land (a31 lor a30))) in
  let e32 = (a28 + t1) land 0xFFFFFFFF in
  let a32 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e32 lor (e32 lsl 32) in
  let t1 = e29 + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (e30 lxor (e32 land (e31 lxor e30))) + 0x2e1b2138 + Array.unsafe_get w 33 in
  let aa = a32 lor (a32 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a32 land a31) lor (a30 land (a32 lor a31))) in
  let e33 = (a29 + t1) land 0xFFFFFFFF in
  let a33 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e33 lor (e33 lsl 32) in
  let t1 = e30 + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (e31 lxor (e33 land (e32 lxor e31))) + 0x4d2c6dfc + Array.unsafe_get w 34 in
  let aa = a33 lor (a33 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a33 land a32) lor (a31 land (a33 lor a32))) in
  let e34 = (a30 + t1) land 0xFFFFFFFF in
  let a34 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e34 lor (e34 lsl 32) in
  let t1 = e31 + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (e32 lxor (e34 land (e33 lxor e32))) + 0x53380d13 + Array.unsafe_get w 35 in
  let aa = a34 lor (a34 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a34 land a33) lor (a32 land (a34 lor a33))) in
  let e35 = (a31 + t1) land 0xFFFFFFFF in
  let a35 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e35 lor (e35 lsl 32) in
  let t1 = e32 + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (e33 lxor (e35 land (e34 lxor e33))) + 0x650a7354 + Array.unsafe_get w 36 in
  let aa = a35 lor (a35 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a35 land a34) lor (a33 land (a35 lor a34))) in
  let e36 = (a32 + t1) land 0xFFFFFFFF in
  let a36 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e36 lor (e36 lsl 32) in
  let t1 = e33 + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (e34 lxor (e36 land (e35 lxor e34))) + 0x766a0abb + Array.unsafe_get w 37 in
  let aa = a36 lor (a36 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a36 land a35) lor (a34 land (a36 lor a35))) in
  let e37 = (a33 + t1) land 0xFFFFFFFF in
  let a37 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e37 lor (e37 lsl 32) in
  let t1 = e34 + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (e35 lxor (e37 land (e36 lxor e35))) + 0x81c2c92e + Array.unsafe_get w 38 in
  let aa = a37 lor (a37 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a37 land a36) lor (a35 land (a37 lor a36))) in
  let e38 = (a34 + t1) land 0xFFFFFFFF in
  let a38 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e38 lor (e38 lsl 32) in
  let t1 = e35 + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (e36 lxor (e38 land (e37 lxor e36))) + 0x92722c85 + Array.unsafe_get w 39 in
  let aa = a38 lor (a38 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a38 land a37) lor (a36 land (a38 lor a37))) in
  let e39 = (a35 + t1) land 0xFFFFFFFF in
  let a39 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e39 lor (e39 lsl 32) in
  let t1 = e36 + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (e37 lxor (e39 land (e38 lxor e37))) + 0xa2bfe8a1 + Array.unsafe_get w 40 in
  let aa = a39 lor (a39 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a39 land a38) lor (a37 land (a39 lor a38))) in
  let e40 = (a36 + t1) land 0xFFFFFFFF in
  let a40 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e40 lor (e40 lsl 32) in
  let t1 = e37 + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (e38 lxor (e40 land (e39 lxor e38))) + 0xa81a664b + Array.unsafe_get w 41 in
  let aa = a40 lor (a40 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a40 land a39) lor (a38 land (a40 lor a39))) in
  let e41 = (a37 + t1) land 0xFFFFFFFF in
  let a41 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e41 lor (e41 lsl 32) in
  let t1 = e38 + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (e39 lxor (e41 land (e40 lxor e39))) + 0xc24b8b70 + Array.unsafe_get w 42 in
  let aa = a41 lor (a41 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a41 land a40) lor (a39 land (a41 lor a40))) in
  let e42 = (a38 + t1) land 0xFFFFFFFF in
  let a42 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e42 lor (e42 lsl 32) in
  let t1 = e39 + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (e40 lxor (e42 land (e41 lxor e40))) + 0xc76c51a3 + Array.unsafe_get w 43 in
  let aa = a42 lor (a42 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a42 land a41) lor (a40 land (a42 lor a41))) in
  let e43 = (a39 + t1) land 0xFFFFFFFF in
  let a43 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e43 lor (e43 lsl 32) in
  let t1 = e40 + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (e41 lxor (e43 land (e42 lxor e41))) + 0xd192e819 + Array.unsafe_get w 44 in
  let aa = a43 lor (a43 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a43 land a42) lor (a41 land (a43 lor a42))) in
  let e44 = (a40 + t1) land 0xFFFFFFFF in
  let a44 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e44 lor (e44 lsl 32) in
  let t1 = e41 + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (e42 lxor (e44 land (e43 lxor e42))) + 0xd6990624 + Array.unsafe_get w 45 in
  let aa = a44 lor (a44 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a44 land a43) lor (a42 land (a44 lor a43))) in
  let e45 = (a41 + t1) land 0xFFFFFFFF in
  let a45 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e45 lor (e45 lsl 32) in
  let t1 = e42 + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (e43 lxor (e45 land (e44 lxor e43))) + 0xf40e3585 + Array.unsafe_get w 46 in
  let aa = a45 lor (a45 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a45 land a44) lor (a43 land (a45 lor a44))) in
  let e46 = (a42 + t1) land 0xFFFFFFFF in
  let a46 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e46 lor (e46 lsl 32) in
  let t1 = e43 + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (e44 lxor (e46 land (e45 lxor e44))) + 0x106aa070 + Array.unsafe_get w 47 in
  let aa = a46 lor (a46 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a46 land a45) lor (a44 land (a46 lor a45))) in
  let e47 = (a43 + t1) land 0xFFFFFFFF in
  let a47 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e47 lor (e47 lsl 32) in
  let t1 = e44 + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (e45 lxor (e47 land (e46 lxor e45))) + 0x19a4c116 + Array.unsafe_get w 48 in
  let aa = a47 lor (a47 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a47 land a46) lor (a45 land (a47 lor a46))) in
  let e48 = (a44 + t1) land 0xFFFFFFFF in
  let a48 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e48 lor (e48 lsl 32) in
  let t1 = e45 + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (e46 lxor (e48 land (e47 lxor e46))) + 0x1e376c08 + Array.unsafe_get w 49 in
  let aa = a48 lor (a48 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a48 land a47) lor (a46 land (a48 lor a47))) in
  let e49 = (a45 + t1) land 0xFFFFFFFF in
  let a49 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e49 lor (e49 lsl 32) in
  let t1 = e46 + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (e47 lxor (e49 land (e48 lxor e47))) + 0x2748774c + Array.unsafe_get w 50 in
  let aa = a49 lor (a49 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a49 land a48) lor (a47 land (a49 lor a48))) in
  let e50 = (a46 + t1) land 0xFFFFFFFF in
  let a50 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e50 lor (e50 lsl 32) in
  let t1 = e47 + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (e48 lxor (e50 land (e49 lxor e48))) + 0x34b0bcb5 + Array.unsafe_get w 51 in
  let aa = a50 lor (a50 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a50 land a49) lor (a48 land (a50 lor a49))) in
  let e51 = (a47 + t1) land 0xFFFFFFFF in
  let a51 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e51 lor (e51 lsl 32) in
  let t1 = e48 + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (e49 lxor (e51 land (e50 lxor e49))) + 0x391c0cb3 + Array.unsafe_get w 52 in
  let aa = a51 lor (a51 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a51 land a50) lor (a49 land (a51 lor a50))) in
  let e52 = (a48 + t1) land 0xFFFFFFFF in
  let a52 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e52 lor (e52 lsl 32) in
  let t1 = e49 + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (e50 lxor (e52 land (e51 lxor e50))) + 0x4ed8aa4a + Array.unsafe_get w 53 in
  let aa = a52 lor (a52 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a52 land a51) lor (a50 land (a52 lor a51))) in
  let e53 = (a49 + t1) land 0xFFFFFFFF in
  let a53 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e53 lor (e53 lsl 32) in
  let t1 = e50 + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (e51 lxor (e53 land (e52 lxor e51))) + 0x5b9cca4f + Array.unsafe_get w 54 in
  let aa = a53 lor (a53 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a53 land a52) lor (a51 land (a53 lor a52))) in
  let e54 = (a50 + t1) land 0xFFFFFFFF in
  let a54 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e54 lor (e54 lsl 32) in
  let t1 = e51 + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (e52 lxor (e54 land (e53 lxor e52))) + 0x682e6ff3 + Array.unsafe_get w 55 in
  let aa = a54 lor (a54 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a54 land a53) lor (a52 land (a54 lor a53))) in
  let e55 = (a51 + t1) land 0xFFFFFFFF in
  let a55 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e55 lor (e55 lsl 32) in
  let t1 = e52 + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (e53 lxor (e55 land (e54 lxor e53))) + 0x748f82ee + Array.unsafe_get w 56 in
  let aa = a55 lor (a55 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a55 land a54) lor (a53 land (a55 lor a54))) in
  let e56 = (a52 + t1) land 0xFFFFFFFF in
  let a56 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e56 lor (e56 lsl 32) in
  let t1 = e53 + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (e54 lxor (e56 land (e55 lxor e54))) + 0x78a5636f + Array.unsafe_get w 57 in
  let aa = a56 lor (a56 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a56 land a55) lor (a54 land (a56 lor a55))) in
  let e57 = (a53 + t1) land 0xFFFFFFFF in
  let a57 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e57 lor (e57 lsl 32) in
  let t1 = e54 + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (e55 lxor (e57 land (e56 lxor e55))) + 0x84c87814 + Array.unsafe_get w 58 in
  let aa = a57 lor (a57 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a57 land a56) lor (a55 land (a57 lor a56))) in
  let e58 = (a54 + t1) land 0xFFFFFFFF in
  let a58 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e58 lor (e58 lsl 32) in
  let t1 = e55 + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (e56 lxor (e58 land (e57 lxor e56))) + 0x8cc70208 + Array.unsafe_get w 59 in
  let aa = a58 lor (a58 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a58 land a57) lor (a56 land (a58 lor a57))) in
  let e59 = (a55 + t1) land 0xFFFFFFFF in
  let a59 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e59 lor (e59 lsl 32) in
  let t1 = e56 + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (e57 lxor (e59 land (e58 lxor e57))) + 0x90befffa + Array.unsafe_get w 60 in
  let aa = a59 lor (a59 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a59 land a58) lor (a57 land (a59 lor a58))) in
  let e60 = (a56 + t1) land 0xFFFFFFFF in
  let a60 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e60 lor (e60 lsl 32) in
  let t1 = e57 + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (e58 lxor (e60 land (e59 lxor e58))) + 0xa4506ceb + Array.unsafe_get w 61 in
  let aa = a60 lor (a60 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a60 land a59) lor (a58 land (a60 lor a59))) in
  let e61 = (a57 + t1) land 0xFFFFFFFF in
  let a61 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e61 lor (e61 lsl 32) in
  let t1 = e58 + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (e59 lxor (e61 land (e60 lxor e59))) + 0xbef9a3f7 + Array.unsafe_get w 62 in
  let aa = a61 lor (a61 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a61 land a60) lor (a59 land (a61 lor a60))) in
  let e62 = (a58 + t1) land 0xFFFFFFFF in
  let a62 = (t1 + t2) land 0xFFFFFFFF in
  let ee = e62 lor (e62 lsl 32) in
  let t1 = e59 + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land 0xFFFFFFFF) + (e60 lxor (e62 land (e61 lxor e60))) + 0xc67178f2 + Array.unsafe_get w 63 in
  let aa = a62 lor (a62 lsl 32) in
  let t2 = (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land 0xFFFFFFFF) + ((a62 land a61) lor (a60 land (a62 lor a61))) in
  let e63 = (a59 + t1) land 0xFFFFFFFF in
  let a63 = (t1 + t2) land 0xFFFFFFFF in
  Array.unsafe_set h8 0 ((Array.unsafe_get h8 0 + a63) land 0xFFFFFFFF);
  Array.unsafe_set h8 1 ((Array.unsafe_get h8 1 + a62) land 0xFFFFFFFF);
  Array.unsafe_set h8 2 ((Array.unsafe_get h8 2 + a61) land 0xFFFFFFFF);
  Array.unsafe_set h8 3 ((Array.unsafe_get h8 3 + a60) land 0xFFFFFFFF);
  Array.unsafe_set h8 4 ((Array.unsafe_get h8 4 + e63) land 0xFFFFFFFF);
  Array.unsafe_set h8 5 ((Array.unsafe_get h8 5 + e62) land 0xFFFFFFFF);
  Array.unsafe_set h8 6 ((Array.unsafe_get h8 6 + e61) land 0xFFFFFFFF);
  Array.unsafe_set h8 7 ((Array.unsafe_get h8 7 + e60) land 0xFFFFFFFF)

let iv () =
  [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
     0x1f83d9ab; 0x5be0cd19 |]

type ctx = {
  h : int array; (* 8 working hash words *)
  buf : Bytes.t; (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int64; (* total bytes fed *)
  w : int array; (* message schedule scratch *)
}

let init () = { h = iv (); buf = Bytes.create 64; buf_len = 0; total = 0L; w = Array.make 64 0 }

let feed_sub ctx s pos len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Sha256.feed_sub";
  ctx.total <- Int64.add ctx.total (Int64.of_int len);
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
      compress_block ctx.h ctx.w (Bytes.unsafe_to_string ctx.buf) 0;
      ctx.buf_len <- 0
    end
  end;
  (* aligned full blocks compress straight from the source, no copy *)
  while !remaining >= 64 do
    compress_block ctx.h ctx.w s !pos;
    pos := !pos + 64;
    remaining := !remaining - 64
  done;
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

let finalize ctx =
  let bit_len = Int64.mul ctx.total 8L in
  (* padding: 0x80, zeros, 64-bit big-endian length *)
  let pad_len =
    let rem = (ctx.buf_len + 1 + 8) mod 64 in
    if rem = 0 then 1 else 1 + (64 - rem)
  in
  let pad = Bytes.make (pad_len + 8) '\x00' in
  Bytes.set pad 0 '\x80';
  Bytes.set_int64_be pad pad_len bit_len;
  feed ctx (Bytes.unsafe_to_string pad);
  (* total fed is now a multiple of 64 and buffer is empty *)
  assert (ctx.buf_len = 0);
  output_digest ctx.h

(* One-shot digest: no streaming context, no staging copies, no per-call
   allocation beyond the result -- full blocks compress straight from [s],
   the padded tail is built in module-level scratch, and the working state
   lives in module-level scratch arrays. [digest] never re-enters itself,
   so sharing the scratch is sound. Callers needing reentrancy use the
   streaming [ctx] API. *)
type scratch = { sc_h : int array; sc_w : int array; sc_tail : Bytes.t }

let scratch = { sc_h = Array.make 8 0; sc_w = Array.make 64 0; sc_tail = Bytes.make 128 '\x00' }

let digest_sub s pos len =
  let h8 = scratch.sc_h and w = scratch.sc_w in
  h8.(0) <- 0x6a09e667; h8.(1) <- 0xbb67ae85;
  h8.(2) <- 0x3c6ef372; h8.(3) <- 0xa54ff53a;
  h8.(4) <- 0x510e527f; h8.(5) <- 0x9b05688c;
  h8.(6) <- 0x1f83d9ab; h8.(7) <- 0x5be0cd19;
  let blocks = len / 64 in
  for i = 0 to blocks - 1 do
    compress_block h8 w s (pos + (i * 64))
  done;
  let rem = len - (blocks * 64) in
  let tail_len = if rem < 56 then 64 else 128 in
  let tail = scratch.sc_tail in
  Bytes.fill tail 0 tail_len '\x00';
  Bytes.blit_string s (pos + (blocks * 64)) tail 0 rem;
  Bytes.set tail rem '\x80';
  Bytes.set_int64_be tail (tail_len - 8) (Int64.of_int (len * 8));
  let tail = Bytes.unsafe_to_string tail in
  compress_block h8 w tail 0;
  if tail_len = 128 then compress_block h8 w tail 64;
  output_digest h8

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
   hash from such a snapshot with the same scratch-state fast path as
   [digest] -- no context, no staging, no per-call allocation beyond the
   result. *)

type midstate = { mh : int array; m_fed : int (* bytes absorbed, multiple of 64 *) }

let midstate ctx =
  if ctx.buf_len <> 0 then invalid_arg "Sha256.midstate: stream not block-aligned";
  { mh = Array.copy ctx.h; m_fed = Int64.to_int ctx.total }

let digest_from_midstate m s =
  let h8 = scratch.sc_h and w = scratch.sc_w in
  Array.blit m.mh 0 h8 0 8;
  let len = String.length s in
  let blocks = len / 64 in
  for i = 0 to blocks - 1 do
    compress_block h8 w s (i * 64)
  done;
  let rem = len - (blocks * 64) in
  let tail_len = if rem < 56 then 64 else 128 in
  let tail = scratch.sc_tail in
  Bytes.fill tail 0 tail_len '\x00';
  Bytes.blit_string s (blocks * 64) tail 0 rem;
  Bytes.set tail rem '\x80';
  Bytes.set_int64_be tail (tail_len - 8) (Int64.of_int ((m.m_fed + len) * 8));
  let tail = Bytes.unsafe_to_string tail in
  compress_block h8 w tail 0;
  if tail_len = 128 then compress_block h8 w tail 64;
  output_digest h8

let hexdigest s = Bft_util.Hex.encode (digest s)
