(** SHA-256 (FIPS 180-4): padding, streaming and midstates in OCaml,
    block compression in a native kernel ([sha256_stubs.c]) -- SHA-NI when
    cpuid reports the x86-64 SHA extensions, portable C otherwise, chosen
    once from cpuid and by nothing else. The one-block HMAC over a 32-byte
    digest ({!hmac_digest}) runs wholly in native code. Both kernels compute the same
    function, so every digest is byte-identical on every host.

    The paper uses MD5 for message and state digests; we substitute SHA-256
    (see DESIGN.md). Digest cost is charged separately by the network cost
    model, so neither the choice of hash nor the kernel affects reproduced
    performance shapes, only host time. *)

type ctx

val init : unit -> ctx
val feed : ctx -> string -> unit
val feed_sub : ctx -> string -> int -> int -> unit

val finalize : ctx -> string
(** Returns the 32-byte digest. The context must not be reused. *)

val digest : string -> string
(** One-shot digest of a full string. Runs on module-level scratch
    state, so it is not reentrant across domains. *)

val digest_bytes : Bytes.t -> int -> int -> string
(** [digest_bytes b pos len]: one-shot digest of a byte-buffer range with
    no intermediate string allocation (the arena-backed encode pipeline
    digests wire bytes in place). The bytes are only read during the
    call. *)

type midstate
(** Immutable snapshot of the hash state at a block boundary. *)

val midstate : ctx -> midstate
(** Capture the state of [ctx]. Raises [Invalid_argument] unless the bytes
    fed so far are a multiple of the 64-byte block size (always true after
    absorbing an HMAC key block). *)

val digest_from_midstate : midstate -> string -> string
(** [digest_from_midstate m s] equals what [finalize] would return after
    feeding [s] to the context [m] was captured from — but runs on the
    allocation-free one-shot path. The midstate is not consumed. *)

val hmac_digest :
  inner:midstate -> outer:midstate -> string -> Bytes.t -> verify:bool -> bool
(** [hmac_digest ~inner ~outer d tag ~verify]: the HMAC of the 32-byte
    [d] resumed from the key-block midstates [inner] and [outer], in one
    native call that pads and runs both compressions. Let [n] be
    [Bytes.length tag]. With [verify] false it writes the tag's first [n]
    bytes into [tag] and returns [true]; with [verify] true it returns
    whether [tag] equals them, comparing every byte without an early exit.
    Allocates nothing. Raises [Invalid_argument] unless [d] is 32 bytes,
    [n] is 1..32 and each midstate has absorbed exactly one 64-byte
    block (an HMAC key pad). *)

val hexdigest : string -> string

val kernel : unit -> string
(** The compression kernel this process runs: ["sha-ni"] or ["portable"].
    Printed by timing tools so host timings from different machines can be
    read side by side. *)

(** Test hooks: the one way to run a kernel other than the cpuid choice. *)
module For_testing : sig
  val with_kernel : string -> (unit -> 'a) -> 'a option
  (** [with_kernel name f] runs [f] with every compression on kernel
      [name] (["portable"] or ["sha-ni"]), then returns to the cpuid choice.
      [None], without running [f], when this CPU cannot run [name]. Raises
      [Invalid_argument] on any other name. *)

  val compress : int array -> string -> int -> int -> unit
  (** [compress h8 s off nblocks] compresses the [nblocks] 64-byte blocks
      of [s] at [off] into the eight 32-bit words of [h8] -- the checked
      entry to the native kernel. Raises [Invalid_argument] unless
      [off >= 0], [nblocks >= 0] and [off + 64 * nblocks <= String.length s]. *)
end
