(** Deterministic paged record arena — the backing store for dirty-aware
    service snapshots (the copy-on-write memory of Section 5.3 recast for
    a byte-image world).

    A service keeps its state as (key, value) records inside a flat byte
    arena carved into fixed-size pages. Mutations write through the arena
    and mark only the pages whose bytes actually change, so a checkpoint
    can hand {!pages} and {!drain_dirty} straight to
    [Partition_tree.update] and pay O(modified pages) instead of
    re-encoding the world.

    Determinism is load-bearing: every replica must produce byte-identical
    arenas from the same operation sequence, including replicas that
    restored from a snapshot mid-history. Hence:
    - allocation is pure bump allocation — freed space is zeroed in place
      and never reused, so layout depends only on allocation order;
    - overwriting a record with one of equal encoded size happens in
      place (the common case: fixed-width values);
    - the bump pointer lives in a fixed-width header record at offset 0,
      so it survives a snapshot/restore round trip exactly.

    The arena leaks freed space by design (a size-changing update or
    delete abandons the old region); bounded-size services with
    fixed-width records — reply caches, counters, slab-like tables — never
    leak. This is the simulator-grade trade-off for exact reproducibility.

    Page 0 is dirtied by every allocation (the header's bump pointer
    changes); in-place overwrites dirty only the pages they touch.

    The arena holds its state once, copy-on-write: each page is one
    buffer, {!pages} hands the buffers out without copying them, and the
    first write to a page after that copies the page before writing it.
    Every page past the bump pointer is one shared zero page. *)

type t

val create : page_size:int -> unit -> t
(** An arena of one page. [page_size] must be at least 32 bytes (the
    header must fit in page 0). Capacity grows by doubling; fresh pages
    are the shared zero page and marked dirty. *)

val set : t -> key:string -> value:string -> unit
(** Insert or update a record. Keys and values are arbitrary byte
    strings (the encoding is length-prefixed). The index keeps each
    record's offset and length in one immediate int, so it raises
    [Invalid_argument], leaving the arena unchanged, for a new record
    that would end past 2 GiB of total appended bytes: the bump pointer
    never moves back, so freed and overwritten records count too. That
    is the image size {!decode} refuses as well. *)

val remove : t -> key:string -> bool
(** Zero the record's region; [false] if the key was absent. *)

val find : t -> key:string -> string option

val length : t -> int
(** The number of records. *)

val page_size : t -> int

val pages : t -> string array
(** The current image as full pages, each exactly [page_size] bytes,
    handed out without copying. A returned string stays valid and never
    changes: the arena copies a page before its next write. Unchanged
    pages return the {e same} string as the previous call, and every page
    past the bump pointer is one shared zero page, so retained partition
    trees share the arena's pages and each other's. *)

val drain_dirty : t -> int list
(** Sorted indices of pages whose bytes changed since the previous drain
    (over-approximation: a page rewritten with identical bytes is not
    reported). Clears the set. *)

val image : t -> string
(** The raw arena bytes — equal to [String.concat "" (pages t)], built in
    one allocation; freezes nothing. *)

val decode :
  page_size:int -> string -> ((string * string) list, string) result
(** Parse an arena image without touching any state: the records in
    offset order, or an error for a malformed image (bad header,
    truncated or overlapping records, nonzero unallocated tail, or an
    image of 2 GiB or more, past what the index can address). Lets a
    service validate payloads before committing with {!restore}. *)

val restore : t -> string -> ((string * string) list, string) result
(** Atomically replace the arena with a decoded image; on [Error] the
    arena is untouched. All pages become dirty; the all-zero pages past
    the bump pointer become the shared zero page. *)
