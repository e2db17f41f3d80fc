(** Allocate-once bump buffer for the encode-once wire pipeline.

    One arena per replica (plus module-scratch fallbacks): [reset] rewinds
    the bump pointer without shrinking the backing buffer, the wire
    encoders write bytes directly into it, and the encode finishes with
    either one [contents] copy (when an immutable string must escape, e.g.
    an envelope's cached bytes) or none at all — [digest] hashes the
    backing bytes in place and [length] answers sizing questions, so
    digest-only and size-only encodes allocate nothing but the 32-byte
    result.

    Single-writer, non-reentrant: finish one encode before starting the
    next on the same arena. *)

type t

val create : ?size:int -> unit -> t
(** Fresh arena with [size] (default 256) bytes of initial capacity. *)

val reset : t -> unit
(** Rewind to empty; capacity is retained (the allocate-once discipline). *)

val length : t -> int

val add_char : t -> char -> unit
val add_int64_le : t -> int64 -> unit
val add_string : t -> string -> unit

val contents : t -> string
(** The bytes written since the last [reset], as one fresh string. *)

val digest : t -> string
(** SHA-256 of the bytes written since the last [reset], computed straight
    off the backing buffer (no intermediate string). *)
