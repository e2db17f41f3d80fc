(** One state transfer (Section 5.3.2): a top-down walk of the target
    checkpoint's partition tree, checked against its certified root
    digest, that fetches only the partitions whose digests differ from the
    fetcher's latest local tree.

    The walk starts at the root. A verified META-DATA lists a partition's
    children; a child whose [(lm, digest)] equals the local tree's node at
    its position, or the local page at its index, proves the pages under
    it current, and every other child is recorded as expected and fetched.
    A DATA message verifies against whichever expectation at its index its
    page digest equals, so the walk never needs to know the target tree's
    depth. The replica keeps the sending, the retry timer and installing
    the rebuilt tree; {!answer} is the replier's side. *)

type t

val start : target:int -> root_digest:string -> replier:int -> t
(** A transfer of checkpoint [target], expecting [root_digest] at the
    root, which is pending: the caller sends its fetch. *)

val target : t -> int
val root_digest : t -> string

val set_replier : t -> int -> unit
(** Designate the replica that sends pages. *)

val fetch : t -> stable:int -> self:int -> int * int -> Message.t
(** The FETCH for partition [(level, index)] of the target checkpoint,
    from [self] whose last stable checkpoint is [stable]. *)

val pending : t -> (int * int) list
(** [(level, index)] of every partition fetched and not yet answered, in
    the order a retry re-sends them. *)

(** How a reply fared: not awaited (dropped unchecked), checked and wrong,
    or verified. *)
type 'a verdict = Unexpected | Bad | Good of 'a

val on_meta_data : t -> local:Partition_tree.t option -> Message.meta_data -> (int * int) list verdict
(** A META-DATA for an expected partition of the target checkpoint is
    checked against the expected digest ({!Partition_tree.interior_digest}).
    When it verifies, the children the [local] tree proves current are
    marked, the others become expected, and [Good] lists their
    [(level, index)] to fetch, in the message's order. *)

val on_data : t -> Message.data -> (int * int) list verdict
(** A DATA whose index has an expectation is checked against it; a page
    that verifies is kept, and opens no fetch ([Good []]). *)

type assembled =
  | Incomplete  (** partitions are still pending *)
  | Rebuilt of Partition_tree.t  (** the target tree: its root is the certified digest *)
  | Wrong_root of Partition_tree.t  (** rebuilt, but its root differs: restart *)
  | Malformed  (** the pages form no image: restart *)

val assemble : t -> local:Partition_tree.t option -> page_size:int -> branching:int -> assembled
(** Once nothing is pending, rebuild the target tree from the fetched
    pages and the [local] pages proven current. Its page count is one
    more than the largest page index fetched or marked. *)

val answer : Checkpoint_store.t -> self:int -> Message.fetch -> Message.t option
(** The replier's reply to a peer's fetch: a [Meta_data] for an interior
    partition, or a [Data] for a page when [self] is the designated
    replier, from the checkpoint asked for or from a newer stable one. A
    [Data] travels unauthenticated: the fetcher checks it against digests. *)

val digest : t -> Buffer.t -> unit
(** Append this transfer's slice of the replica's canonical fingerprint. *)
