(** BFS: the file system exposed as a BFT state-machine service
    (Section 6.3).

    Operations are space-separated commands over {!Fs}; file data is
    hex-encoded so operations are unambiguous byte strings:

    - ["getattr <ino>"]                        (read-only)
    - ["lookup <dir> <name>"]                  (read-only)
    - ["readdir <dir>"]                        (read-only)
    - ["read <ino> <off> <len>"]               (read-only, hex result)
    - ["mkdir <dir> <name>"]
    - ["create <dir> <name>"]
    - ["remove <dir> <name>"], ["rmdir <dir> <name>"]
    - ["rename <sdir> <sname> <ddir> <dname>"]
    - ["write <ino> <off> <hexdata>"]
    - ["truncate <ino> <size>"]
    - ["touch <ino>"]

    Mutating operations stamp mtime from the protocol's agreed
    non-deterministic value (Section 5.4), so replicas never diverge on
    time-last-modified — the paper's canonical non-determinism example.

    Successful results are ["ok"], an attribute rendering
    ["ino=<i> kind=<f|d> size=<s> mtime=<m>"], hex data, or a directory
    listing; errors are NFS-style codes. *)

val create : unit -> Bft_sm.Service.t
(** The snapshot is {!Fs.snapshot}'s flat image; BFS has no paged
    interface. [restore] is {!Fs.restore}: a malformed snapshot returns
    [Error] and leaves the image untouched, and the replica counts the
    refusal. *)

val op_write : ino:int -> off:int -> string -> string
(** Build a write op from raw (unencoded) data. *)

val op_read : ino:int -> off:int -> len:int -> string
val parse_attr_ino : string -> int option
(** Extract the inode number from an attribute result. *)

val decode_read_result : string -> string
(** Hex-decode a read result. *)
