(** Canonical wire encoding of protocol messages.

    The encoding serves three purposes:
    - the basis for message digests (request digests, batch digests,
      view-change digests), and for {!envelope_digest}, the 32-byte
      digest that MACs, authenticators and signatures cover (injective
      per message type, so authenticating the digest authenticates the
      message);
    - the size model: the simulated network charges wire and CPU time per
      encoded byte, plus the authentication token's own size.

    Integers are 8-byte little-endian; variable-size fields are
    length-prefixed; every message starts with a distinct tag byte. *)

val encode : Message.t -> string

val decode : string -> (Message.t, string) result
(** Inverse of {!encode}: a message encodes/decodes to itself exactly
    (authentication tokens inside inline batch elements are not part of the
    wire image and decode as [Auth_none]). Malformed input yields a
    human-readable [Error]. *)

val size : Message.t -> int
(** [size m = String.length (encode m)], encoded into a scratch buffer
    without allocating a string: O(size of [m]) per call, for cost models
    and tests. Replicas charge a received message by its envelope's cached
    encoding instead ([String.length (envelope_bytes e)]). *)

val auth_size : Message.auth_token -> int

(** {2 Encode-once envelopes}

    An envelope carries a {!Message.enc_cache}; these helpers fill it at
    most once. The sender encodes the body to size it and digests it to
    authenticate it, and since the simulated network delivers the same
    physical envelope, receivers read the identical string and digest —
    one serialization and at most one digest per message lifetime, shared
    by sign/MAC, [envelope_size], transmission and verification. *)

val cached_encode : Message.enc_cache -> Message.t -> string
(** Canonical encoding of the body, memoized in the cache. The encode
    writes into the module's one allocate-once scratch buffer and copies
    the bytes out once. *)

val envelope_bytes : Message.envelope -> string
(** [cached_encode e.enc e.body]. *)

val cached_digest : Message.enc_cache -> Message.t -> Message.digest
(** The 32-byte digest every MAC and signature covers. For a [Request] it
    is the request's carried [rq_digest] (SHA-256 of ['R'] and the
    request's fields; ['R'] is no body's tag byte, so it cannot collide
    with another body's digest), and nothing is encoded. For any other
    body it is the SHA-256 of {!cached_encode}'s bytes, memoized in the
    cache's [enc_digest]. *)

val envelope_digest : Message.envelope -> Message.digest
(** [cached_digest e.enc e.body]. *)

val envelope_size : Message.envelope -> int
(** Header + cached body bytes + authentication token size; O(1) after the
    first call on a given envelope. *)

val clear_memos : unit -> unit
(** Drop the one memo table left, the view-change digests (tests use this
    to compare cached against freshly computed values; never needed for
    correctness). Request digests travel with requests and batch digests
    are computed where a batch is built or received, so neither has a
    table. *)

val request_digest : Message.request -> Message.digest
(** Digest identifying a request, covering client, timestamp, operation
    and flags: a read of the [rq_digest] that {!Message.request} computed
    when the request was built or decoded. *)

val batch_digest : Message.batch_elem list -> string -> Message.digest
(** [batch_digest batch nondet] identifies the ordered content of a
    pre-prepare independently of its view/sequence assignment, so a
    re-proposal in a later view keeps the same digest. Inline requests
    contribute their carried request digest, so the cost does not grow
    with operation sizes. *)

val null_batch_digest : Message.digest
(** Digest of the null request batch chosen for gaps in new views. *)

val view_change_digest : Message.view_change -> Message.digest
val result_digest : string -> Message.digest
