(** Andrew-benchmark-style workload over the BFS operation set
    (Section 8.6: the paper evaluates BFS with the Andrew benchmark and a
    scaled-up Andrew100).

    The workload is a deterministic script of (phase, op, read_only) steps
    mirroring Andrew's five phases:
    1. [Mkdir]  — create a directory tree
    2. [Copy]   — create and write source files
    3. [Stat]   — getattr every file (read-only)
    4. [Read]   — read every file in full (read-only)
    5. [Make]   — read all sources, write a few outputs (compile stand-in)

    [scale] multiplies the number of directories/files, like AndrewN in the
    paper. The script uses dynamic inode discovery: steps are generated
    lazily against a shadow file system so inode numbers match execution
    order on the replicated service. *)

type phase = Mkdir | Copy | Stat | Read | Make

type step = { phase : phase; op : string; read_only : bool }

val script : ?scale:int -> ?file_size:int -> ?seed:int64 -> unit -> step list
(** Deterministic operation script. Defaults: [scale = 1] (5 directories,
    10 files), [file_size = 1024] bytes. *)

val ops_per_phase : step list -> (phase * int) list
