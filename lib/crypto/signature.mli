(** Simulated public-key signatures.

    The paper's BFT-PK variant signs every protocol message with a
    Rabin-Williams 1024-bit scheme; BFT retains signatures only for new-key
    messages and recovery requests. We simulate signatures with HMAC under a
    per-node private secret plus a public registry used for verification.

    Unforgeability is enforced structurally: producing a signature requires
    the node's {!signer} handle, which only that node's automaton holds. A
    Byzantine node in the simulator can forge its own signatures (it holds
    its handle) but not those of correct nodes — exactly the adversary of
    Section 2.1. The cost model charges the paper's measured
    signature-generation and verification latencies, so BFT-PK vs BFT
    performance comparisons reproduce. *)

type signer
(** Private signing handle for one node. *)

type registry
(** Public-key registry shared by all nodes of a simulation. *)

type t = { signer_id : int; tag : string }

val create_registry : unit -> registry

val register : registry -> Bft_util.Rng.t -> int -> signer
(** Create and register the signing identity for a node id. Re-registering
    an id replaces its key (used to model key loss on recovery tests). *)

val sign : signer -> string -> t
(** Sign a message's 32-byte digest ([Wire.envelope_digest]), as the
    paper's library signs a digest. Raises [Invalid_argument] on any other
    length. *)

val verify : registry -> t -> string -> bool
(** Check that the signature was produced by [t.signer_id] over the
    32-byte digest. A tag that is not exactly 32 bytes never verifies.
    Raises [Invalid_argument] on a digest of any other length. *)

val forge : signer_id:int -> t
(** A structurally invalid signature, for fault-injection tests: it never
    verifies (with overwhelming probability) because the forger does not
    know the private key. *)
