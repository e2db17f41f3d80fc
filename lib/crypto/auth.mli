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

(** {2 Batched verification}

    Receivers accumulate independent verification work and flush it in one
    call: key lookups (and the cached HMAC key-block precomputes behind
    them) are resolved once per sender per flush, and the tag/digest
    recomputations run through {!Vpool.run} on the calling domain.
    [results.(i)] answers [items.(i)] and is identical to what the
    sequential {!verify_mac} / {!verify_authenticator} path returns for
    that item. *)

type batch_item =
  | Item_mac of { peer : int; mac : mac; msg : string }
      (** Same question as [verify_mac ~peer mac msg]. *)
  | Item_auth of { peer : int; auth : authenticator; msg : string }
      (** Same question as [verify_authenticator ~peer auth msg]. *)
  | Item_digest of { expect : string; msg : string }
      (** Does [msg] hash to [expect]? *)

val verify_batch : Keychain.t -> batch_item array -> bool array
(** Verify every item, verdicts in submission order. *)

val corrupt_entry : authenticator -> int -> authenticator
(** Testing/fault-injection helper: flip bits in the MAC destined for the
    given receiver, leaving other entries intact (models the faulty-client
    partial-authenticator attacks of Section 3.2.2). *)

val size : authenticator -> int
(** Wire size contribution: 8 bytes of nonce plus [tag_size] per entry,
    matching the paper's 8n-byte authenticators. *)
