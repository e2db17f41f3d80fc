(** Deterministic pseudo-random number generator (splitmix64).

    Every source of randomness in the simulator flows through an explicit
    [Rng.t] so that a run is fully determined by its seed. *)

type t

val create : int64 -> t
(** [create seed] is a fresh generator. *)

val split : t -> t
(** [split t] derives a new independent stream and advances [t]. *)

val int64 : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound). Requires [bound > 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [0, bound). *)

val bool : t -> bool

val bernoulli : t -> float -> bool
(** [bernoulli t p] is true with probability [p]. *)

val exponential : t -> float -> float
(** [exponential t mean] samples an exponential distribution. *)

val bytes : t -> int -> string
(** [bytes t n] is an [n]-byte pseudo-random string. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
