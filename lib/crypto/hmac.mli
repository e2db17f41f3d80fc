(** HMAC-SHA256 (RFC 2104).

    The library MACs and signs only 32-byte message digests, through the
    one-block path at the end of this interface. The general functions
    stay for the RFC test vectors, for deriving group keys
    ({!Keychain.group_derive} uses [mac_precomputed]) and for timing a MAC
    over arbitrary bytes. *)

val mac : key:string -> string -> string
(** [mac ~key msg] is the 32-byte HMAC-SHA256 tag. *)

val mac_truncated : key:string -> int -> string -> string
(** [mac_truncated ~key n msg] is the first [n] bytes of the tag. The BFT
    library uses 8-byte tags (UMAC32-sized) in authenticators. *)

val verify : key:string -> tag:string -> string -> bool
(** Constant-time comparison of [tag] against the recomputed (possibly
    truncated) tag of the message. *)

(** {2 Key-block precomputation}

    HMAC absorbs two fixed 64-byte key pads per MAC. [precompute] hashes
    them once and snapshots the SHA-256 midstates; MACs over short messages
    then cost roughly half the compressions. Tags are bit-identical to the
    one-shot functions above. *)

type precomputed

val precompute : key:string -> precomputed
val mac_precomputed : precomputed -> string -> string
val mac_truncated_precomputed : precomputed -> int -> string -> string

(** {2 The one-block path}

    What the library MACs and signs is a message's 32-byte digest
    ([Wire.envelope_digest]), never its bytes, as the paper's library
    MACs a fixed-size header holding the digest. From the key-block
    midstates, HMAC over 32 bytes is one compression for the inner hash
    and one for the outer, with constant padding; both run in one native
    call ({!Sha256.hmac_digest}). Tags are bit-identical to RFC 2104:
    [mac_digest pre n d] is the first [n] bytes of [mac ~key d]. *)

val mac_digest : precomputed -> int -> string -> string
(** [mac_digest pre n d]: the first [n] bytes (1..32) of the HMAC of the
    32-byte [d]. Allocates only the tag. Raises [Invalid_argument] if [d]
    is not 32 bytes or [n] is out of range. *)

val verify_digest : precomputed -> tag:string -> string -> bool
(** Does [tag] equal the first [String.length tag] bytes of the HMAC of
    the 32-byte [d]? Compares every byte without an early exit and
    allocates nothing; an empty tag or one longer than 32 bytes never
    verifies. A prefix of any length from 1 to 32 does, so a caller that
    expects a fixed tag size checks the length itself ({!Auth} and
    {!Signature} do). Raises [Invalid_argument] if [d] is not 32 bytes. *)

val mac_digest_into : precomputed -> string -> Bytes.t -> off:int -> len:int -> unit
(** [mac_digest_into pre d buf ~off ~len] writes {!mac_digest}[ pre len d]
    into [buf] at [off], allocating nothing. Raises [Invalid_argument] if
    [d] is not 32 bytes, [len] is out of 1..32 or the range leaves
    [buf]. *)

val verify_digest_at : precomputed -> string -> off:int -> len:int -> string -> bool
(** [verify_digest_at pre s ~off ~len d] is {!verify_digest} of the tag
    [String.sub s off len], read in place: it allocates nothing. A range
    that leaves [s], or a [len] outside 1..32, never verifies. *)
