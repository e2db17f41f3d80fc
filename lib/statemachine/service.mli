(** Deterministic state-machine service instances (paper Definition 2.4.1
    and the library interface of Section 6.2).

    A service executes opaque operation byte strings. The transition
    function must be total and deterministic: the result and new state are
    completely determined by the current state, the operation bytes, the
    client identity, and the non-deterministic choice string agreed through
    the protocol (Section 5.4). Invalid operations must return an error
    result rather than raise.

    [snapshot]/[restore] capture the full service state for checkpointing
    and state transfer; they must satisfy [restore (snapshot ()) = Ok ()]
    and identity on observable behaviour. *)

type paged = {
  pg_page_size : int;
  pg_pages : unit -> string array;
      (** The snapshot image as pages: every page exactly [pg_page_size]
          bytes, and the concatenation equals [snapshot ()]. Unchanged
          pages must be returned as physically shared strings across
          calls. A returned string must stay valid after later writes
          (the replica's checkpoint trees keep them): {!Paged_image}
          hands out its own page buffers and copies a page before
          writing it. *)
  pg_drain_dirty : unit -> int list;
      (** Indices of pages that may have changed since the previous
          drain; clears the set. Must over-approximate (a missed dirty
          page silently corrupts checkpoint digests; a false positive
          merely costs a byte-compare). After [restore], every page is
          dirty. *)
}
(** Optional dirty-aware checkpoint interface (Section 5.3's
    copy-on-write dirty pages). A service that opts in lets the replica
    maintain checkpoint partition trees in O(modified pages); services
    that don't are checkpointed through the flat [snapshot] path. *)

type t = {
  name : string;
  execute : client:int -> op:string -> nondet:string -> string;
      (** Total transition function; never raises. *)
  is_read_only : string -> bool;
      (** Service-specific upcall used by the read-only optimization
          (Section 5.1.3): a faulty client may mark a mutating request
          read-only, so the service itself vets it. *)
  has_access : client:int -> string -> bool;
      (** Access control (Section 2.2): deny before execution. *)
  exec_cost_us : string -> float;
      (** Virtual CPU cost of executing the operation, charged by the
          simulator. *)
  snapshot : unit -> string;
  restore : string -> (unit, string) result;
      (** Install a snapshot. A malformed one returns [Error reason] and
          leaves the state as it was: [restore] never raises and never
          accepts what it cannot install. The replica counts and logs
          the refusal. *)
  paged : paged option;
      (** [None]: checkpointing uses the flat [snapshot] string. *)
}

val paged_of_image : Paged_image.t -> paged
(** The paged interface of a {!Paged_image} arena (the common
    implementation). *)

val denied : string
(** Canonical result returned when [has_access] fails. *)

val invalid : string
(** Canonical result for malformed operations. *)
