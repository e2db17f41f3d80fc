(** The primary performance watchdog ([Config.perf_watchdog]), against the
    slow-primary attack of Chondros et al.: a primary that keeps answering
    timers but orders requests ever more slowly never trips the
    silence-based vc timer. A backup smooths each request's
    accept->execute latency (EWMA), keeps the best smoothed value it has
    seen as a baseline, and calls the primary slow, once per view, when
    the EWMA exceeds 6 times the baseline, trusted after 8 samples. *)

type t

val create : Config.t -> t
(** Inert, feeding and firing nothing, unless [cfg.perf_watchdog]. *)

val note :
  t -> now:int64 -> arrival:int64 -> view:int -> primary:bool -> active:bool -> bool
(** Feed one execution of a request that arrived at [arrival] (virtual
    nanoseconds); [true] when the primary of [view] is now slow and this
    is the view's first verdict. A primary, and a request that arrived
    before the current epoch began, feed nothing. *)

val new_epoch : t -> now:int64 -> unit
(** A new view began at [now]: the smoothed latency of the old primary
    (and of the view-change gap itself) says nothing about the new one.
    The baseline stays. *)

val reset : t -> now:int64 -> unit
(** A reboot: a new epoch that also forgets the baseline and the last
    view fired in. *)

val ewma_us : t -> float
val baseline_us : t -> float

val digest : t -> Buffer.t -> unit
(** Append the watchdog's slice of the replica's canonical fingerprint:
    the sample count and the last view fired in, nothing clock-derived. *)
