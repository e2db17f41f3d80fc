(** Analytic performance model (Chapter 7 of the paper).

    Predicts operation latency and system throughput from the component
    models of Section 7.1 — digest computation, MAC computation and
    communication, all affine in message size — and the protocol's message
    pattern. The same {!Bft_net.Costs.t} parameters drive both this model
    and the simulator, so predicted and "measured" (simulated) values can
    be compared point-by-point, reproducing the model-validation tables of
    Section 8.3. Discrepancies come from queueing, retransmission and
    checkpoint effects the model ignores (as in the paper). *)

type workload = {
  arg_size : int;  (** operation argument bytes *)
  result_size : int;  (** operation result bytes *)
  read_only : bool;
  batch : int;  (** requests per batch (throughput model), >= 1 *)
}

type prediction = {
  latency_us : float;  (** client-observed latency for an isolated request *)
  throughput_ops : float;  (** saturation throughput, operations/second *)
  bottleneck : string;  (** which resource saturates first *)
}

val predict :
  costs:Bft_net.Costs.t -> cfg:Bft_core.Config.t -> workload -> prediction

val latency_us : costs:Bft_net.Costs.t -> cfg:Bft_core.Config.t -> workload -> float
val throughput_ops : costs:Bft_net.Costs.t -> cfg:Bft_core.Config.t -> workload -> float

(** {2 Message-size helpers} *)

val request_size : cfg:Bft_core.Config.t -> arg_size:int -> int
val reply_size : cfg:Bft_core.Config.t -> result_size:int -> full:bool -> int
val pre_prepare_size : cfg:Bft_core.Config.t -> arg_size:int -> batch:int -> int
