(** Message authentication: single MACs and authenticators.

    An authenticator is a vector of MACs, one per receiving replica, each
    computed with the pairwise session key for that receiver (Section 3.2.1
    of the paper). The receiver verifies only its own entry. Tags carry the
    key epoch they were generated under so that receivers can enforce
    authentication freshness (Section 4.3.1). *)

val tag_size : int
(** 8 bytes, matching the UMAC32 tags of the paper's implementation. *)

type mac = { tag : string; epoch : int }

type authenticator = (int * mac) list
(** Association list from receiver id to its MAC entry. *)

val compute_mac : Keychain.t -> peer:int -> string -> mac option
(** MAC over the message with the current out-key for [peer]. [None] when no
    session key is established yet. *)

val verify_mac : Keychain.t -> peer:int -> mac -> string -> bool
(** Verify a MAC from [peer] against our current in-key for them. Fails if
    the epoch is stale (key was refreshed since) or the tag is wrong. *)

val compute_authenticator :
  Keychain.t -> receivers:int list -> string -> authenticator
(** One MAC per receiver (skipping self and receivers without keys). *)

val verify_authenticator :
  Keychain.t -> peer:int -> authenticator -> string -> bool
(** Verify our own entry in an authenticator sent by [peer]. *)

val mac_verifications : unit -> int
(** Tag recomputations so far, process-wide: one per {!verify_mac} (or
    {!verify_authenticator}) call that found a current key for the sender
    and, for authenticators, an entry for us. *)

val corrupt_entry : authenticator -> int -> authenticator
(** Testing/fault-injection helper: flip bits in the MAC destined for the
    given receiver, leaving other entries intact (models the faulty-client
    partial-authenticator attacks of Section 3.2.2). *)

val size : authenticator -> int
(** Wire size contribution: 8 bytes of nonce plus [tag_size] per entry,
    matching the paper's 8n-byte authenticators. *)
