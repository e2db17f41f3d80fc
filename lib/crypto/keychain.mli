(** Pairwise session keys between principals, with refresh epochs.

    Node identifiers are plain integers: the protocol layer assigns replicas
    ids [0..n-1] and clients larger ids. A directional session key
    [k(i -> j)] authenticates messages sent from [i] to [j]; it is generated
    by the {e receiver} [j] and distributed in new-key messages (Section
    4.3.1 of the paper). Each key carries the epoch in which it was created;
    BFT-PR rejects messages authenticated with keys from old epochs. *)

type t

type key = { secret : string; epoch : int }

val create : my_id:int -> t
(** Empty keychain for principal [my_id]. *)

val my_id : t -> int

val fresh_in_key : t -> Bft_util.Rng.t -> peer:int -> key
(** Generate a new key that [peer] must use to send to us, advance the
    local epoch for that direction, install it as the current in-key, and
    return it so that it can be shipped to [peer] in a new-key message.
    Raises [Invalid_argument] on a negative [peer]. *)

val install_out_key : t -> peer:int -> key -> bool
(** Install the key we must use to send to [peer], as received from a
    new-key message. Returns [false] (and ignores the key) if its epoch is
    not newer than the currently installed one — stale new-key messages are
    rejected, preventing suppress-replay attacks — or if [peer] is
    negative. *)

(** {2 Lookups}

    Each direction keeps one slot per peer, in an array indexed by peer
    id. A slot holds the installed key beside its HMAC key-block
    midstates, which the first lookup computes and stores, and which go
    with the key when a newer epoch replaces it. Every later lookup
    returns the value stored in the slot: it hashes and allocates
    nothing. A negative or never-installed peer id has no key; it reads
    no slot past the array's end and grows nothing. *)

val out_key_pre : t -> peer:int -> (key * Hmac.precomputed) option
(** The key we use to send to [peer], with its midstates; the {!group}
    fallback for an in-range peer without one; [None] otherwise. *)

val in_key_pre : t -> peer:int -> (key * Hmac.precomputed) option
(** The key [peer] uses to send to us, as {!out_key_pre}. *)

val in_epoch : t -> peer:int -> int
(** Epoch of the current in-key for [peer]; 0 when none. Peers covered
    only by an installed {!group} report epoch 1 (derived keys are
    epoch-1 by construction). *)

(** {2 Group-derived keys}

    One shared secret standing in for the pairwise session keys of a
    contiguous range of principal ids — the million-client cohort setup,
    where materializing [k * n] pairwise keys (let alone their HMAC
    midstate caches) is out of the question. A directional key is derived
    on demand as [HMAC(group_secret, "key:src>dst")] at epoch 1, resuming
    the group secret's cached key-block midstates. Derived keys are not
    cached at the keychain, which keeps replica-side memory O(1) in the
    range size: each verification of a group-keyed MAC derives once. *)

type group

val group : first:int -> last:int -> secret:string -> group
(** Shared group over principal ids [first..last] (inclusive). Raises
    [Invalid_argument] on an empty range. *)

val group_derive : group -> src:int -> dst:int -> key * Hmac.precomputed
(** The directional key [src -> dst] with its key-block midstates.
    Deterministic: every call for the same pair returns the same key. *)

val group_derivations : group -> int
(** Number of on-demand derivations performed through this group — lets
    tests assert that each check of a group-keyed MAC derives its key
    exactly once. *)

val set_group : t -> group -> unit
(** Install the group as a fallback: {!in_key_pre} / {!out_key_pre} /
    {!in_epoch} derive on the fly for in-range peers that have no
    explicitly installed pairwise key (installed keys always win). *)

val group_of : t -> group option

val drop_all_in_keys : t -> unit
(** Forget every in-key (used on recovery: the old keys may be known to an
    attacker, so all peers are forced to obtain fresh keys). *)
