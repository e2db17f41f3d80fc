(** Simulated unreliable datagram network with per-node CPU accounting.

    Matches the paper's system model (Section 2.1): the network may fail to
    deliver messages, delay them, duplicate them, or deliver them out of
    order; it provides point-to-point sends and multicast to arbitrary
    destination sets; it does not authenticate senders. An adversary hook
    can additionally drop, delay or replay specific messages.

    Each node owns a single virtual CPU. Receive processing and any crypto
    work charged by the protocol layer ({!charge}) serialize on that CPU, so
    overload produces queueing exactly as a real single-threaded replica
    (the paper's replicas are single-threaded, Section 6.1). *)

type 'msg t

type stat = {
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable bytes_sent : int;
}

val create :
  engine:Bft_sim.Engine.t -> costs:Costs.t -> rng:Bft_util.Rng.t -> unit -> 'msg t

val engine : 'msg t -> Bft_sim.Engine.t
val costs : 'msg t -> Costs.t
val stats : 'msg t -> stat

val add_node : 'msg t -> id:int -> handler:('msg -> unit) -> unit
(** Register a node. Nodes are found through an array indexed by id, so
    ids should be small and dense (replicas [0 .. n-1], then clients).
    Raises [Invalid_argument] on duplicate or negative ids. *)

val add_node_range : 'msg t -> first:int -> last:int -> handler:(int -> 'msg -> unit) -> unit
(** Register the contiguous id range [first..last] (inclusive) backed by
    ONE shared node record — one CPU, one backlog, one crash flag for the
    whole range. The handler receives the concrete destination id along
    with the message. This is the million-client cohort's network
    footprint: O(1) state for k virtual clients. The shared CPU aggregates
    one CPU per id: for a range of [s] ids its {!set_cpu_factor} is [1/s]
    (any range id addresses the shared record). Raises
    [Invalid_argument] if the range is empty or overlaps an existing node
    or range. *)

val charge : 'msg t -> id:int -> float -> unit
(** [charge t ~id us] consumes [us] microseconds of node [id]'s CPU,
    pushing back every subsequent delivery to and send from that node. *)

val busy_until : 'msg t -> id:int -> Bft_sim.Engine.time

val set_cpu_factor : 'msg t -> id:int -> float -> unit
(** Multiplier applied to every CPU charge at the node (receive processing,
    send processing, and protocol-layer {!charge}). [1.0] is the default
    correct-node speed; factors above [1.0] model a slow-but-correct node —
    the [slow_primary] adversary profile. Raises [Invalid_argument] on
    non-positive factors. Reset by {!reset_faults} to [1.0] ([1/s] for a
    range of [s] ids). *)

val backlog : 'msg t -> id:int -> int
(** Number of messages waiting for the node's CPU. Periodic work in the
    protocol layer consults this to yield under overload, like a real
    single-threaded replica would. *)

val backlog_hwm : 'msg t -> id:int -> int
(** Deepest CPU backlog the node has ever reached — the queueing
    high-water mark reported by the metrics layer. *)

val send : 'msg t -> src:int -> dst:int -> size:int -> 'msg -> unit
(** Point-to-point datagram of [size] wire bytes. *)

val multicast : 'msg t -> src:int -> dsts:int list -> size:int -> 'msg -> unit
(** One send-CPU charge at the source (IP-multicast style), independent
    per-link wire delays and faults. Self-delivery is permitted when [src]
    is listed in [dsts]. *)

(** {2 Fault injection} *)

val set_loss_rate : 'msg t -> float -> unit
(** Probability each link-level delivery is silently dropped. *)

val set_dup_rate : 'msg t -> float -> unit
(** Probability a delivered message is also delivered a second time after a
    random extra delay. *)

val set_jitter_us : 'msg t -> float -> unit
(** Override the cost model's jitter (0 gives in-order links). *)

val partition : 'msg t -> int list -> int list -> unit
(** Drop all traffic between the two groups until {!heal}. *)

val heal : 'msg t -> unit

val crash : 'msg t -> id:int -> unit
(** Stop delivering to the node and stop accepting its sends. *)

val restart : 'msg t -> id:int -> unit

val is_crashed : 'msg t -> id:int -> bool

val set_link_loss : 'msg t -> src:int -> dst:int -> float -> unit
(** Directional per-link loss rate, applied on top of the global rate
    (asymmetric lossy links; [0.0] clears the entry). *)

val set_adversary :
  'msg t -> (src:int -> dst:int -> 'msg -> [ `Pass | `Drop | `Delay of float ]) -> unit
(** Per-message adversary decision, consulted before normal loss; [`Delay]
    adds the given microseconds of extra wire delay. *)

val clear_adversary : 'msg t -> unit

(** {2 Delivery gate}

    While the gate is set, every message that survives the adversary and
    loss is appended to a FIFO of held messages instead of being scheduled
    for delivery. The exhaustive explorer releases held messages one at a
    time to enumerate delivery interleavings; the same mechanism replays
    through fault schedules ([Hold_all] / [Release] / [Release_all]).
    Multicast self-delivery (loopback) bypasses the gate: a replica's
    messages to itself are internal transitions, not network events. *)

val set_gate : 'msg t -> bool -> unit

val held : 'msg t -> (int * int * 'msg) list
(** Held messages as [(src, dst, msg)], oldest first. *)

val release_held :
  'msg t -> nth:int -> pred:(src:int -> dst:int -> 'msg -> bool) -> bool
(** Remove the [nth] (0-based) held message satisfying [pred] and deliver
    it now (subject to the destination being up). Returns [false] when
    fewer than [nth+1] held messages match. *)

val release_all_held : 'msg t -> unit
(** Open the gate and deliver every held message in hold order. *)

val reset_faults : 'msg t -> unit
(** Return the network to a fault-free state in one call: zero loss and
    duplication, default jitter, no partition, no per-link loss, no
    adversary, every CPU factor back to [1.0] ([1/s] for a range of [s]
    ids), and every crashed node restarted. Used by the fuzzer to quiesce
    after the fault-injection window. *)
