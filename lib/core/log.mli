(** Per-sequence-number message log with water marks and certificate
    tracking (Sections 2.3.3-2.3.4).

    The log keeps, for every sequence number between the low water mark [h]
    (exclusive) and [h + L] (inclusive), the accepted pre-prepare and the
    prepare/commit messages collected for it, and answers the certificate
    questions the protocol asks: is the batch {e prepared} (pre-prepare +
    2f matching prepares from distinct backups), is it {e committed} (2f+1
    matching commits)? Garbage collection truncates everything at or below
    a new stable checkpoint.

    The log is a ring of [log_size] slots indexed by sequence number, and
    each entry holds its votes in arrays indexed by replica id. The log
    counts each entry's matching votes as they arrive, so the certificate
    questions read two counts instead of looping over the votes. *)

type digest = string

type entry = private {  (* only [Log] writes an entry *)
  seq : int;
  mutable pp : Message.pre_prepare option;  (** accepted pre-prepare *)
  mutable pp_digest : digest option;  (** its batch digest *)
  mutable pp_view : int;  (** view of the accepted pre-prepare *)
  mutable self_preprepared : bool;
      (** this replica sent the pre-prepare or a prepare for it *)
  prepares : (int * digest) option array;
      (** indexed by replica id: that replica's prepare as (view, digest) *)
  commits : (int * digest) option array;
      (** indexed by replica id: that replica's commit as (view, digest) *)
  mutable executed : bool;
}

type t

val create : Config.t -> t
val low_mark : t -> int

val entry : t -> int -> entry option
(** [None] when the sequence number is outside the water marks. *)

val in_window : t -> int -> bool

val accept_pre_prepare : t -> view:int -> Message.pre_prepare -> digest -> bool
(** Record an accepted pre-prepare. Returns [false] (no change) if a
    different digest was already accepted for this view and sequence;
    raises [Invalid_argument] outside the water marks. *)

val mark_self_preprepared : t -> int -> unit
(** We sent the pre-prepare or a prepare for it; raises as {!accept_pre_prepare}. *)

val mark_executed : t -> int -> unit

val add_prepare : t -> Message.prepare -> unit
(** Record a prepare, replacing the sender's earlier one for that sequence
    number. Dropped when the sequence number is outside the water marks or
    the sender id is outside [0 .. n-1]. *)

val add_commit : t -> Message.commit -> unit
(** As {!add_prepare}, for commits. *)

val prepared : t -> view:int -> seq:int -> bool
(** Prepared certificate in the given view (Section 2.3.3). *)

val committed : t -> view:int -> seq:int -> bool
(** Committed certificate: prepared plus 2f+1 matching commits. The view of
    commits may trail the current view after a view change, so commits are
    matched on digest and sequence only. *)

val vouchers : t -> view:int -> seq:int -> digest -> int
(** The backups of [view] whose prepare for [seq] carries [view] and the
    digest; condition 2 holds at f, so f + 1 replicas vouch with the primary. *)

val max_prepared : t -> view:int -> int
(** The highest sequence number {!prepared} in [view], 0 if none. *)

val counts : t -> seq:int -> int * int
(** [(prepares, commits)]: the votes counted towards [seq]'s certificates
    as they arrived — prepares from backups of the accepted pre-prepare's
    view that match its (view, digest), and commits that match its
    digest. [(0, 0)] for an absent entry, and both count 0 until a
    pre-prepare is accepted. {!prepared} and {!committed} read these. *)

val truncate : t -> int -> unit
(** [truncate t n]: new low water mark [n]; drop entries [<= n]. *)

val iter_window : t -> (entry -> unit) -> unit
(** Iterate existing entries in increasing sequence order. *)

val digest : t -> Buffer.t -> unit
(** Append the log's slice of the replica's canonical fingerprint: the
    window's entries in ascending sequence order. *)

val clear_entries : t -> unit
(** Drop every entry but keep the low water mark (used when a view-change
    message is sent: the paper's "clears its log"). *)

(** {2 A peer's status claims} *)

type claim = Unclaimed | Claimed_prepared | Claimed_committed

val claims : t -> prepared:int list -> committed:int list -> int -> claim
(** [claims t ~prepared ~committed] reads a peer's status lists once into
    a mark over the current window and returns the lookup: for a sequence
    number in the window, [Claimed_committed] if [committed] lists it,
    else [Claimed_prepared] if [prepared] lists it, else [Unclaimed];
    [Unclaimed] outside the window. Apply it to the lists once and query
    the result per sequence number: building costs O(W + list length)
    whatever the lists hold, each query O(1). *)
