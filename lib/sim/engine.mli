(** Deterministic discrete-event simulation engine.

    Virtual time is measured in integer nanoseconds. Events scheduled at the
    same instant fire in scheduling order (a monotonically increasing tie
    break), so a run is fully determined by the seed and the program. The
    engine replaces the asynchronous Internet of the paper's system model:
    no component ever relies on virtual-time bounds for safety; timers only
    drive retransmissions, view changes and watchdog recoveries.

    The engine and every callback run on a single domain; the tree has no
    other source of parallelism. *)

type t

type time = int64
(** Virtual nanoseconds since simulation start. *)

type handle
(** A scheduled event, cancellable. *)

val create : ?seed:int64 -> unit -> t
val now : t -> time
val rng : t -> Bft_util.Rng.t
(** The engine's root RNG; derive sub-streams with {!Bft_util.Rng.split}. *)

(** An event's tag, kept as data and rendered to text only by
    {!live_events}, so scheduling never formats a string. *)
type label =
  | Name of string  (** rendered as is *)
  | Id of string * int  (** [Id ("drain", 3)] renders ["drain3"] *)
  | Link of string * int * int  (** [Link ("wire", 0, 2)] renders ["wire0>2"] *)

val schedule : ?label:label -> t -> delay:time -> (unit -> unit) -> handle
(** Run the thunk [delay] nanoseconds from now. [delay < 0] is an error.
    [label] tags the event for {!live_events}; it has no effect on
    execution. *)

val schedule_at : ?label:label -> t -> time -> (unit -> unit) -> handle
(** Run the thunk at an absolute time (clamped to [now]). *)

val cancel : handle -> unit
(** Cancelling an already-fired or cancelled event is a no-op. *)

val is_pending : handle -> bool

val pending_events : t -> int
(** Number of live (scheduled, not yet fired or cancelled) events.
    Cancelled events awaiting lazy removal from the queue are not
    counted. *)

val events_fired : t -> int
(** Total live events executed since creation (cancelled events that
    surface and are skipped are not counted). *)

val max_heap_size : t -> int
(** Deepest the event queue has ever been, including cancelled events
    awaiting lazy removal — the scheduler's memory high-water mark. *)

val live_events : t -> (time * string option) list
(** The enabled-event set: every live (pending) event as
    [(fire time, rendered label)], sorted by (time, scheduling order). Cancelled
    events awaiting lazy removal are excluded. O(heap size) — intended for
    the exhaustive explorer's step loop, not the simulation hot path. *)

val next_live_time : t -> time option
(** Fire time of the earliest live event, if any. Unlike the heap root,
    this skips lazily-cancelled entries. *)

val step : t -> bool
(** Execute the next event. Returns [false] when the queue is empty.
    A cancelled event surfacing from the queue still advances the clock
    and returns [true]; only its thunk is skipped. *)

val run : ?until:time -> t -> unit
(** Drain the event queue, stopping when it is empty, when virtual time
    would pass [until], or after 100 million events (a runaway guard). *)

val run_while : t -> ?until:time -> (unit -> bool) -> bool
(** Run while the predicate is true; returns the final predicate value
    (so [false] means the condition was achieved, [true] means the queue
    emptied or the deadline passed first). *)

(** {2 Time helpers} *)

val us : int -> time
val ms : int -> time
val sec : int -> time
val of_us_float : float -> time
val to_us : time -> float
val to_ms : time -> float
