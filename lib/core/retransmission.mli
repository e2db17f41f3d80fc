(** Status and retransmission (Section 5.2), as data: the status body a
    replica multicasts each beat, and the messages that answer a peer's
    status. It reads the log, the view-change evidence and the checkpoint
    store and writes none of them; the replica sends what it returns,
    each message against the peer's retransmission budget.

    Answering costs O(W + list length) whatever the peer's lists hold:
    [sa_prepared] and [sa_committed] are read once through {!Log.claims},
    [sp_vcs_seen] once into an [n]-slot mark. *)

val status :
  self:int -> view:int -> active:bool -> understate:bool -> last_exec:int -> Log.t ->
  View_change.t -> Message.t
(** [Status_active] while [active], [Status_pending] otherwise. Under
    [understate] (the mac_storm fault) the active body claims an empty
    window and nothing executed past the low water mark. *)

val answer_active :
  Config.t -> self:int -> view:int -> active:bool -> Log.t -> View_change.t ->
  Checkpoint_store.t -> Message.status_active -> Message.t list
(** In send order: our view-change when the peer is behind our view;
    when it is in our view and we are active, per window sequence number
    above its [sa_h], our pre-prepare (as the view's primary) and prepare
    unless it claims the number, and our commit unless it claims it
    committed; last, our stable checkpoint when its [sa_h] is below it. *)

val answer_pending :
  Config.t -> self:int -> view:int -> View_change.t -> Message.status_pending ->
  Message.t list
(** For a peer at or behind our view, in send order: our view-change for
    its view (or ours, when it is behind), our acks for view-changes it
    lacks, and, unless it holds the new-view, the primary's new-view and
    the view-changes behind it that it lacks. *)
