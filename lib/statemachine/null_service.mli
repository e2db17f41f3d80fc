(** The null service used by the latency/throughput micro-benchmarks
    (Section 8.3): operations carry [a] bytes of argument and return [r]
    bytes of result, with a no-op transition.

    Operation encoding: ["ro:<r>:<pad>"] or ["rw:<r>:<pad>"] where [<r>] is
    the requested result size in bytes and [<pad>] is argument padding.
    [op ~read_only ~arg_size ~result_size] builds one. *)

val op : read_only:bool -> arg_size:int -> result_size:int -> string

val parse : string -> (bool * int) option
(** [Some (read_only, r)] for an operation whose header is well formed,
    reading the header only: the tag before the first [':'] is ["ro"] or
    ["rw"], and the field up to the second [':'] (or the end) is an
    [int_of_string] integer [r >= 0]. *)

val max_result : int
(** Largest result an operation may ask for (64 KiB): operations above it
    execute to {!Service.invalid}, so no client picks a replica's
    allocation. *)

val create : ?exec_cost_us:float -> unit -> Service.t
(** The service counts executed operations in its state (so checkpoints are
    not all identical), but results depend only on the requested size. *)
