(** A replica's view-change evidence (Section 3.2.4, Figs 3-2 and 3-3).

    Holds the P and Q sets the replica carries from view to view, its own
    view-changes, the view-changes and acknowledgments it has collected,
    the acknowledgments it sent, the new-views it accepted or sent, and a
    new-view waiting for its view-changes or batches. Named after
    {!Checkpoint_store}, which holds the checkpoint evidence.

    A new-view's S set and the status messages list view-changes in the
    iteration order of one table keyed by [(view, sender)], so that order
    is part of the protocol's bytes and this module never rebuilds the
    table. *)

type t

val create : unit -> t

(** {2 P and Q sets} *)

val compute_pq : t -> Log.t -> log_size:int -> unit
(** Recompute the sets from the log before sending a view-change (Fig
    3-2): entries outside the log window are dropped; inside it, a prepared
    certificate replaces the P entry, and a batch this replica pre-prepared
    moves to the front of the Q entry. *)

val pq_lists : t -> Message.pset_entry list * Message.qset_entry list
(** Both sets in ascending sequence order, as a view-change carries them. *)

val prune_stable : t -> int -> unit
(** Drop P and Q entries at or below a new stable checkpoint. *)

val prune_below : t -> int -> unit
(** Drop view-changes, acknowledgments and new-views of views below this
    one. *)

(** {2 View-changes and acknowledgments} *)

val record_own : t -> Message.view_change -> unit
(** Our view-change: kept for retransmission and counted as verified. *)

val my_vc : t -> int -> Message.view_change option

val add : t -> Message.view_change -> verified:bool -> unit
(** A peer's view-change. A verified copy is never replaced by an
    unverified one. *)

val note_my_ack : t -> Message.view_change_ack -> bool
(** Record an acknowledgment we send; [false] when we already acknowledged
    that origin's view-change for that view. *)

val my_acks : t -> int -> Message.view_change_ack list

val add_ack : t -> Message.view_change_ack -> unit
(** An acknowledgment received by the new primary. *)

val available : t -> self:int -> f:int -> int -> int * string -> Message.view_change option
(** [available t ~self ~f v (sender, digest)]: the view-change a new-view
    names, if we hold it with that digest and either verified it or hold
    [f] matching acknowledgments from replicas other than [sender] and
    [self]. *)

val s_set : t -> self:int -> f:int -> int -> (int * Message.view_change) list
(** The new primary's S for view [v]: its own view-change plus every one
    with [2f-1] matching acknowledgments. *)

val senders : t -> int -> int list
(** Senders of the view-changes held for a view. *)

val iter_view : t -> int -> (int -> Message.view_change -> unit) -> unit
(** [iter_view t v fn] calls [fn sender vc] for each view-change held for
    [v]. *)

val join_view : t -> above:int -> self:int -> weak:int -> int option
(** The smallest view above [above] for which [weak] other replicas sent
    view-changes — the view the liveness rule makes us join. *)

(** {2 New-views} *)

val new_view : t -> int -> Message.new_view option
(** The new-view accepted or sent for a view. *)

val has_new_view : t -> int -> bool
(** View 0 needs none. *)

val accept_new_view : t -> Message.new_view -> unit
val deferred_nv : t -> Message.new_view option
val set_deferred_nv : t -> Message.new_view option -> unit

val crash_reset : t -> unit
(** Forget the deferred new-view, as a reboot does. *)

val digest : t -> Buffer.t -> unit
(** Append this store's slice of the replica's canonical fingerprint, with
    every table in sorted order. *)
