(** In-memory inode-based file system — the state behind BFS (Section 6.3).

    The paper's BFS implements the NFS V2 protocol on top of the BFT
    library; the service state is a file-system image (inodes, directories,
    file blocks). This module is that image: a deterministic, snapshotable
    file system with NFS-style operations addressed by inode number.

    Inode 1 is the root directory. All operations are total: errors are
    returned as [Error] values, never exceptions. Timestamps come from the
    caller (the protocol's agreed non-deterministic choice, Section 5.4). *)

type t

type attr = {
  a_ino : int;
  a_kind : [ `File | `Dir ];
  a_size : int;
  a_mtime : int64;
}

type error = [ `Noent | `Exist | `Notdir | `Isdir | `Notempty | `Inval ]

val error_to_string : error -> string

val create : ?paged:int -> unit -> t
(** [paged] (a page size, >= 32) opts into a paged snapshot image: every
    mutation writes the affected inode records through a
    {!Bft_sm.Paged_image} arena, {!snapshot} returns the arena image, and
    {!paged_image} exposes it for dirty-aware checkpointing. Snapshots
    then use the arena format (all replicas must agree on the mode);
    {!restore} still accepts the flat format and rebuilds the arena
    canonically. *)

val root : int

val paged_image : t -> Bft_sm.Paged_image.t option

val getattr : t -> ino:int -> (attr, error) result
val lookup : t -> dir:int -> name:string -> (attr, error) result
val readdir : t -> dir:int -> (string list, error) result

val mkdir : t -> dir:int -> name:string -> mtime:int64 -> (attr, error) result
val create_file : t -> dir:int -> name:string -> mtime:int64 -> (attr, error) result
val remove : t -> dir:int -> name:string -> (unit, error) result
val rmdir : t -> dir:int -> name:string -> (unit, error) result
val rename :
  t -> src_dir:int -> src_name:string -> dst_dir:int -> dst_name:string -> (unit, error) result

val read : t -> ino:int -> off:int -> len:int -> (string, error) result
val write : t -> ino:int -> off:int -> data:string -> mtime:int64 -> (int, error) result
(** Returns the number of bytes written; extends the file with zero bytes
    when [off] is past the end (NFS semantics). *)

val truncate : t -> ino:int -> size:int -> mtime:int64 -> (unit, error) result
val set_mtime : t -> ino:int -> mtime:int64 -> (unit, error) result

val snapshot : t -> string
val restore : t -> string -> (unit, string) result
(** [Error] on a malformed snapshot, in which case the current image is
    left untouched (a snapshot produced by {!snapshot} always restores). *)
