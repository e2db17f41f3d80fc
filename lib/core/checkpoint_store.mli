(** Checkpoint snapshots and their stability proofs (Sections 2.3.4, 3.2.3).

    A replica keeps one partition tree per checkpoint it still holds: the
    last stable checkpoint plus any later (possibly tentative) ones. A
    checkpoint becomes {e stable} once a certificate of matching CHECKPOINT
    messages is assembled — a quorum certificate (2f+1) under MAC
    authentication (Section 3.2.3), a weak certificate (f+1) under
    signatures (Section 2.3.4) — and the replica holds the matching tree.
    Earlier trees and log entries are then discarded. *)

type t

val create : Config.t -> page_size:int -> branching:int -> t

val take : t -> seq:int -> pages:string array -> dirty:int list -> Partition_tree.t
(** Build and retain the tree for [seq] from an image's pages and the
    indices that may differ from the {e latest} held tree: an incremental
    [Partition_tree.update] of it, or a copy-on-write [build_pages] when
    the page count changed. Returns the tree for the caller's cost. *)

val install : t -> Partition_tree.t -> unit
(** Adopt a tree obtained through state transfer. *)

val tree_at : t -> int -> Partition_tree.t option
val latest : t -> Partition_tree.t option
val stable_seq : t -> int
val stable_tree : t -> Partition_tree.t option

val held : t -> (int * string) list
(** [(seq, digest)] of every retained checkpoint, ascending — the C
    component of a view-change message. *)

val message : Partition_tree.t -> replica:int -> Message.checkpoint
(** The CHECKPOINT message [replica] sends for the tree. *)

val add_message : t -> Message.checkpoint -> unit
(** Record a CHECKPOINT message (sender deduplicated per sequence). *)

val proof_count : t -> seq:int -> digest:string -> int

val try_stabilize : t -> (int * Partition_tree.t) option
(** If some held checkpoint newer than the current stable one has a full
    stability certificate, promote the newest such: prune older trees and
    old certificate messages, and return [(seq, tree)]. *)

val certified_digest : t -> threshold:int -> (int * string) option
(** The newest [(seq, digest)] pair vouched for by at least [threshold]
    distinct replicas' CHECKPOINT messages, regardless of whether we hold
    the tree — used to detect that we are missing state and must initiate a
    state transfer (Section 5.3.2). *)

val drop_above : t -> int -> unit
(** Discard trees with sequence numbers above the bound (recovery
    estimation, Section 4.3.2). *)

val digest : t -> Buffer.t -> unit
(** Append the store's slice of the replica's canonical fingerprint: the
    held checkpoints, the stable one, and every CHECKPOINT vote in
    ascending order. *)
