(** Message authentication: single MACs and authenticators.

    An authenticator is a vector of MACs, one per receiving replica, each
    computed with the pairwise session key for that receiver (Section 3.2.1
    of the paper). The receiver verifies only its own entry. Tags carry the
    key epoch they were generated under so that receivers can enforce
    authentication freshness (Section 4.3.1).

    Every MAC covers a message's 32-byte digest ([Wire.envelope_digest]),
    not its bytes, as the paper's library MACs a fixed-size header holding
    the digest; {!Hmac.mac_digest} computes it in one native call of two
    compressions. Every function below raises [Invalid_argument] when
    handed anything but 32 bytes, so there is one MAC path. *)

val tag_size : int
(** 8 bytes, matching the UMAC32 tags of the paper's implementation. *)

type mac = { tag : string; epoch : int }

type authenticator
(** One immutable packed block of 16-byte entries, one per receiver: the
    receiver id and the key epoch, each a little-endian unsigned 32-bit
    word, then the {!tag_size}-byte tag. Tags are written into the block
    when it is built and checked in place, so neither allocates per
    entry. *)

val compute_mac : Keychain.t -> peer:int -> string -> mac option
(** MAC over the 32-byte digest with the current out-key for [peer].
    [None] when no session key is established yet. *)

val verify_mac : Keychain.t -> peer:int -> mac -> string -> bool
(** Verify a MAC from [peer] over the 32-byte digest against our current
    in-key for them. Fails if the epoch is stale (key was refreshed since),
    the tag is not exactly {!tag_size} bytes, or the tag is wrong. *)

val compute_authenticator :
  Keychain.t -> receivers:int list -> string -> authenticator
(** One MAC over the 32-byte digest per receiver (skipping self and
    receivers without keys), in [receivers] order. Raises
    [Invalid_argument] for a receiver id or key epoch past 32 bits. *)

val verify_authenticator :
  Keychain.t -> peer:int -> authenticator -> string -> bool
(** Verify our own entry, the first addressed to us, in an authenticator
    sent by [peer] over the 32-byte digest. Fails if the block is not a
    whole number of entries, holds no entry for us, or our entry's epoch
    or tag is wrong, as {!verify_mac}. *)

val group_authenticator :
  Keychain.group -> src:int -> receivers:int list -> string -> authenticator
(** {!compute_authenticator} for a sender in a {!Keychain.group}, under
    the derived keys [src -> receiver]. *)

val verify_group_mac : Keychain.group -> src:int -> dst:int -> mac -> string -> bool
(** {!verify_mac} under the group-derived key [src -> dst]. Any [src]
    derives a key; the caller decides who may send. *)

val mac_verifications : unit -> int
(** Tag recomputations so far, process-wide: one per {!verify_mac},
    {!verify_authenticator} or {!verify_group_mac} call that found a current
    key for the sender, a tag of {!tag_size} bytes and, for
    authenticators, an entry for us. *)

val corrupt_entry : authenticator -> int -> authenticator
(** Testing/fault-injection helper: flip bits in the MAC destined for the
    given receiver, leaving other entries intact (models the faulty-client
    partial-authenticator attacks of Section 3.2.2). *)

val size : authenticator -> int
(** Wire size contribution: 8 bytes of nonce plus [tag_size] per entry,
    matching the paper's 8n-byte authenticators. *)

(** {2 Raw blocks}

    For building and inspecting authenticators by hand, as tests and
    fault injection do. A block need not be well formed: verification
    refuses one that is not. *)

val of_entries : (int * mac) list -> authenticator
(** The block holding these entries in order, each tag copied as it is:
    a tag that is not {!tag_size} bytes leaves a block that is not a
    whole number of entries. *)

val entry : authenticator -> int -> mac option
(** [entry a r]: the first entry addressed to receiver [r], as a MAC. *)
