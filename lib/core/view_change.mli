(** The view change (Section 3.2.4, Figs 3-2 and 3-3), as data.

    Holds a replica's view-change evidence — the P and Q sets it carries
    from view to view, its own view-changes, the view-changes and
    acknowledgments it collected, the acknowledgments it sent, the
    new-views it accepted or sent, and a new-view waiting for its
    view-changes or batches — and makes the view change's decisions. Each
    decision is returned as data; the replica sends it, arms the timers,
    counts, and installs the new view.

    The new-view decision has one path for both roles: the new primary
    builds its new-view from S with {!new_view_of}, and a backup rebuilds it
    from the view-changes the new-view names and accepts it only when the
    two are equal.

    A new-view's S set and the status messages list view-changes in the
    iteration order of one table keyed by [(view, sender)], so that order
    is part of the protocol's bytes and this module never rebuilds the
    table. Every table lives in {!t}; the module keeps no state of its
    own. *)

type t

val create : unit -> t

(** {2 View-changes and acknowledgments} *)

val start :
  t -> Config.t -> self:int -> view:int -> Log.t -> Checkpoint_store.t -> Message.view_change
(** This replica's view-change for [view] (Fig 3-2), recorded as its own
    and as verified. The P and Q sets are first recomputed from the log:
    entries outside the log window are dropped; inside it, a prepared
    certificate replaces the P entry, and a batch this replica
    pre-prepared moves to the front of the Q entry. *)

type received =
  | Refused
  | Stored of {
      ack : Message.view_change_ack option;
          (** the acknowledgment to send to the new primary *)
      join : int option;  (** the view the liveness rule makes us join *)
    }

val receive :
  t -> Config.t -> self:int -> view:int -> Message.view_change -> verified:bool -> received
(** A peer's view-change while we are in [view]. [Refused] when it is for
    an earlier view, names us, or carries a P or Q tuple for its own or a
    later view (Section 3.2.4). Otherwise it is stored — a verified copy
    is never replaced by an unverified one — and a verified one is
    acknowledged unless we already acknowledged that origin's
    view-change for that view. [join] is the smallest view above ours for
    which f+1 other replicas sent view-changes. *)

val add_ack : t -> Message.view_change_ack -> unit
(** An acknowledgment received by the new primary. *)

val my_vc : t -> int -> Message.view_change option
val my_acks : t -> int -> Message.view_change_ack list

val senders : t -> int -> int list
(** Senders of the view-changes held for a view. *)

val iter_view : t -> int -> (int -> Message.view_change -> unit) -> unit
(** [iter_view t v fn] calls [fn sender vc] for each view-change held for
    [v]. *)

(** {2 New-views} *)

val new_view : t -> int -> Message.new_view option
(** The new-view accepted or sent for a view. *)

val has_new_view : t -> int -> bool
(** View 0 needs none. *)

val offer_new_view : t -> Message.new_view -> unit
(** A new-view from its view's primary, for a view other than ours as
    primary: kept to be checked unless the one already waiting is for the
    same or a later view. *)

(** {2 The new-view decision (Fig 3-3)} *)

val new_view_of :
  Config.t ->
  view:int ->
  (int * Message.view_change) list ->
  has_batch:(Message.digest -> bool) ->
  Message.new_view option
(** The new-view the primary of [view] sends for S, an association list
    from each sender to its (acknowledged) view-change, at most one entry
    per sender. It names S in order and chooses:
    - the start checkpoint: the highest [(n, d)] such that 2f+1 messages
      have [h <= n] and f+1 messages vouch for [(n, d)] in their C
      component;
    - for every sequence number after it, either a batch digest that might
      have committed in an earlier view (condition A: proposed in some P
      component, not contradicted by a quorum (A1), supported by f+1 Q
      entries (A2), and with the batch body available (A3)), or the null
      batch when a quorum shows nothing prepared (condition B).

    [None] when S does not decide: more view-changes or batch bodies are
    needed. *)

(** What the replica must do next. *)
type step =
  | Nothing
  | Fetch of Message.digest list  (** multicast a fetch for each, in order *)
  | Announce of Message.new_view  (** multicast it, then enter its view *)
  | Enter of Message.new_view  (** enter its view *)
  | Next_view of int  (** the new-view is invalid: start this view change *)

val decide : t -> Config.t -> self:int -> view:int -> Request_store.t -> step
(** The primary of [view], not yet active in it, decides from S — its own
    view-change plus every one with 2f-1 matching acknowledgments — once S
    holds a quorum: [Announce] the new-view, recorded as accepted, or, when
    S does not decide, [Fetch] the P entries' batches we lack, one digest
    per entry of every view-change in S. [Nothing] for a backup, once the
    new-view is sent, or while S is short of a quorum. *)

val check : t -> Config.t -> self:int -> view:int -> Request_store.t -> step
(** The new-view waiting to be checked, once every view-change it names is
    here, verified or vouched for by f acknowledgments from replicas other
    than its sender and us: [Next_view] when {!new_view_of} over them is
    not that new-view; otherwise [Enter] it, recorded as accepted, when
    every chosen batch is here, else [Fetch] the missing ones. A new-view
    for a view below ours is dropped. Allocates nothing when no new-view
    is waiting. *)

(** {2 Lifecycle} *)

val prune_stable : t -> int -> unit
(** Drop P and Q entries at or below a new stable checkpoint. *)

val crash_reset : t -> unit
(** Forget the waiting new-view, as a reboot does. *)

val digest : t -> Buffer.t -> unit
(** Append this module's slice of the replica's canonical fingerprint, with
    every table in sorted order. *)
