(** Per-peer retransmission token buckets ([Config.retransmit_budget]).

    A peer gets [budget] retransmissions per refill window. While it keeps
    draining its bucket dry, its windows stretch exponentially (capped at
    16 intervals): a wrong-MAC peer whose status always claims to be
    behind gets geometrically less amplification out of us. *)

type t

val create : unit -> t

val allow : t -> budget:int -> interval_us:float -> now:int64 -> int -> bool
(** Spend one of the peer's tokens, refilling its bucket first when its
    window (the backoff times [interval_us]) has passed by [now], in
    virtual nanoseconds; [false] when none is left. *)

val reset : t -> unit
(** Forget every bucket, as a reboot does. *)

val digest : t -> Buffer.t -> unit
(** Append the buckets' slice of the replica's canonical fingerprint,
    without their clock-derived window starts. *)
