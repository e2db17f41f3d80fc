(** Unreplicated baseline: one server, plain request/reply.

    The paper compares BFS against unreplicated NFS implementations
    (Section 8.6); this module is the equivalent baseline for any service —
    the same service code and the same simulated network and crypto cost
    model (one MAC each way), minus the replication protocol. The latency
    and throughput deltas against {!Cluster} therefore isolate exactly the
    BFT protocol overhead. *)

type t

val create :
  ?seed:int64 -> ?service:(unit -> Bft_sm.Service.t) -> ?num_clients:int -> unit -> t
(** The service factory defaults to {!Bft_sm.Null_service.create}; client
    ids are [1, 2, ...]. The network charges {!Bft_net.Costs.default}:
    no comparison varies the baseline's cost model. *)

val engine : t -> Bft_sim.Engine.t

val invoke : t -> client:int -> string -> (result:string -> latency_us:float -> unit) -> unit

val try_invoke_sync :
  ?timeout_us:float -> t -> client:int -> string -> (string * float, string) result
(** [Error] on timeout instead of raising. *)

val invoke_sync : ?timeout_us:float -> t -> client:int -> string -> string * float
(** Raising wrapper over {!try_invoke_sync}. *)

val run_until : ?timeout_us:float -> t -> (unit -> bool) -> bool
val client_completed : t -> int -> int
