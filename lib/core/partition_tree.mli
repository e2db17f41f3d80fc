(** Hierarchical state partitions for checkpoint management (Section 5.3.1).

    The service state (a snapshot byte string) is split into fixed-size
    pages, the leaves of a tree in which each interior partition has up to
    [branching] children. Each node stores the last checkpoint sequence
    number at which it was modified ([lm]) and a digest; page digests hash
    (index, lm, value) and interior digests combine child digests with
    AdHash, so the digests of a new checkpoint are computed incrementally
    from the previous one: only modified pages are re-hashed. The root
    digest is the checkpoint digest carried by CHECKPOINT messages, and it
    commits the values of all sub-partitions, which is what lets state
    transfer verify fetched partitions top-down without certificates
    (Section 5.3.2). *)

type digest = string

type page = { data : string; lm : int; digest : digest }

type t

val build : ?prev:t -> seq:int -> page_size:int -> branching:int -> string -> t
(** [build ?prev ~seq ~page_size ~branching snapshot] constructs the tree
    for the checkpoint with sequence number [seq]. When [prev] is given and
    has the same geometry, unchanged pages share their records (and their
    [lm] and digests) with [prev] — the copy-on-write of the paper. Cost is
    O(total state): every page is byte-compared, every interior node
    recomputed. *)

val build_pages :
  ?prev:t -> seq:int -> page_size:int -> branching:int -> string array -> t
(** Like {!build}, but from an already-paged image: every page except the
    last must be exactly [page_size] bytes and the last non-empty (unless
    it is the only page), i.e. exactly what splitting the concatenation
    would produce — the invariant state transfer relies on when it re-splits
    a reassembled snapshot. Raises [Invalid_argument] otherwise. *)

val of_pages : seq:int -> page_size:int -> branching:int -> page array -> t
(** Reassemble a tree from verified page records, keeping each page's own
    [lm] and digest and recomputing only the interior nodes. State transfer
    uses this to rebuild the target checkpoint from fetched/locally-current
    pages: their [lm]s generally differ (only pages written since earlier
    checkpoints carry the target sequence number), so a from-scratch
    {!build} — which stamps every page with [seq] — would not reproduce the
    sender's root digest. [digested_bytes] of the result is the total page
    bytes (the caller verified a digest over every byte). Page shape rules
    as in {!build_pages}. *)

val update : t -> seq:int -> pages:string array -> dirty:int list -> t
(** [update prev ~seq ~pages ~dirty] builds the checkpoint tree for [seq]
    assuming [pages] differs from [prev] only at the indices listed in
    [dirty] (callers must over-approximate: a page not listed is trusted to
    be unchanged and is not compared). Dirty pages whose bytes did in fact
    not change keep their previous record and [lm]. Only dirty pages are
    re-digested and only their ancestor interior nodes recomputed, each by
    AdHash subtract-old/add-new on the affected child digests — no fold
    over clean siblings — so cost is O(|dirty| * depth), not O(state).
    Untouched page records, node records and the result's digests are
    structurally shared with [prev] and byte-identical to a from-scratch
    {!build} of the same image. Falls back to [build_pages ~prev] when the
    page count changed or [seq <= seq prev]. Page shape rules and
    out-of-range dirty indices raise [Invalid_argument] as in
    {!build_pages}. *)

val seq : t -> int
val root_digest : t -> digest
val num_pages : t -> int
val depth : t -> int
(** Number of levels; level 0 is the root, level [depth - 1] the pages. *)

val page : t -> int -> page
(** Raises [Invalid_argument] on out-of-range index. *)

val node_info : t -> level:int -> index:int -> int * digest
(** [(lm, digest)] of an interior node or page. *)

val level_width : t -> int -> int
(** Number of nodes at a level (pages for the deepest level). *)

val children : t -> level:int -> index:int -> (int * int * digest) list
(** [(child_index, lm, digest)] list for an interior partition — the
    contents of a META-DATA reply. [level] must be an interior level. *)

val interior_digest : level:int -> index:int -> (int * int * digest) list -> int * digest
(** [(lm, digest)] of the interior node at [(level, index)] whose children
    are the given [(child_index, lm, digest)] — what the fetcher of a
    META-DATA reply checks against the digest it expects. Interior digests
    depend on the node's level and index and are domain-separated from
    page digests, which depend only on the page's index. *)

val child_range : t -> level:int -> index:int -> int * int
(** Child index range [(first, last)] of an interior node. *)

val snapshot : t -> string
(** Reassemble the full state string. *)

val digested_bytes : t -> int
(** Bytes actually re-hashed when this tree was built (for CPU-cost
    accounting: unchanged pages cost nothing). *)

val pages_modified_at : t -> seq:int -> int
(** Number of pages whose [lm] equals [seq] — the write set of the
    checkpoint taken at [seq] (metrics only; O(pages)). *)

val page_size : t -> int
val branching : t -> int

val rebuild_page : index:int -> lm:int -> data:string -> page
(** Recompute a page record (used by the fetching side of state transfer to
    verify received DATA messages against known digests). *)
