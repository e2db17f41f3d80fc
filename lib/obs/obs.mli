(** Structured tracing and metrics for the protocol stack.

    One [t] per principal (replica or client). The default sink {!null} is
    disabled: every recording function returns immediately after one field
    read, and call sites guard any argument computation that would
    allocate behind {!enabled}, so a disabled trace is provably inert —
    it touches no RNG, no clock, no CPU cost accounting, and the pinned
    fuzz-seed committed-history digests are byte-identical with tracing
    on or off (enforced by [test_obs.ml]).

    When enabled, each node keeps:
    - a fixed-capacity {!Ring} of timestamped protocol events (virtual
      nanoseconds), so the recent history survives to be dumped when an
      oracle fails or a run wedges;
    - per-phase latency {!Hist}s along the request pipeline
      (request -> pre-prepared -> prepared -> committed -> executed ->
      replied) plus end-to-end request->reply;
    - counters for retransmissions, timeouts, and rejected snapshots.

    Network-level counters (drops, duplicates, CPU backlog high-water
    marks) live in [Bft_net.Network] / [Bft_sim.Engine] and are joined in
    at dump time by the callers. *)

type phase = Preprepared | Prepared | Committed | Executed | Replied

type event =
  | Request_arrival of { client : int; digest : string }
  | Phase_transition of { phase : phase; view : int; seq : int }
  | Reply_sent of { client : int; seq : int; tentative : bool }
  | Client_retransmit of { timestamp : int64; retries : int; delay_us : float }
  | Client_complete of { timestamp : int64; latency_us : float }
  | View_change_start of { from_view : int; to_view : int }
  | New_view_entered of { view : int }
  | Checkpoint_stable of { seq : int }
  | Transfer_start of { target : int }
  | Transfer_fetch of { level : int; index : int }
  | Transfer_done of { target : int }
  | Recovery_phase of { phase : string }
  | Snapshot_rejected of { reason : string }
  | Invoke_timeout of { op : string }
  | Checkpoint_taken of { seq : int; bytes : int; dirty : int; clean : int }
  | Admission_drop of { client : int }
      (** A request beyond the client's in-flight quota was dropped. *)
  | Retransmit_suppressed of { peer : int }
      (** A retransmission to [peer] was withheld by the per-peer budget. *)
  | Slowness_view_change of { view : int; ewma_us : float; baseline_us : float }
      (** The primary performance watchdog demanded a view change. *)

type entry = { at : int64; ev : event }
(** [at] is virtual nanoseconds; [-1L] for events recorded outside the
    simulation clock (e.g. a snapshot rejected inside the service). *)

type t

val null : t
(** The shared disabled sink: every record call is a no-op. *)

val enabled : t -> bool

(** {2 Recording} — all no-ops on a disabled [t].

    Callers pass the current virtual time explicitly ([now], nanoseconds)
    so this library needs no dependency on the simulation engine. *)

val request_arrival : t -> now:int64 -> client:int -> digest:string -> unit

val batch_assigned : t -> now:int64 -> digests:string list -> unit
(** Feed the request->preprepared histogram from the arrival times of the
    requests just pre-prepared (digests without a recorded arrival are
    skipped — e.g. a backup that never saw the request). *)

val phase : t -> now:int64 -> phase -> view:int -> seq:int -> unit
(** Record a phase transition for [seq]. Only the first transition per
    (seq, phase) counts; the latency since the previous recorded phase of
    the same sequence number feeds that interval's histogram. *)

val reply_sent :
  t -> now:int64 -> client:int -> seq:int -> digest:string -> tentative:bool -> unit
(** Also closes the end-to-end histogram for [digest] if its arrival was
    seen, and releases the arrival entry. *)

val client_retransmit : t -> now:int64 -> timestamp:int64 -> retries:int -> delay_us:float -> unit
val client_complete : t -> now:int64 -> timestamp:int64 -> latency_us:float -> unit
val view_change_start : t -> now:int64 -> from_view:int -> to_view:int -> unit
val new_view_entered : t -> now:int64 -> view:int -> unit

val checkpoint_stable : t -> now:int64 -> seq:int -> unit
(** Also prunes per-sequence phase marks at or below [seq] (bounded
    memory across long runs). *)

val transfer_start : t -> now:int64 -> target:int -> unit
val transfer_fetch : t -> now:int64 -> level:int -> index:int -> unit
val transfer_done : t -> now:int64 -> target:int -> unit
val recovery_phase : t -> now:int64 -> string -> unit
val snapshot_rejected : t -> reason:string -> unit
val invoke_timeout : t -> now:int64 -> op:string -> unit

val admission_drop : t -> now:int64 -> client:int -> unit
val retransmit_suppress : t -> now:int64 -> peer:int -> unit

val slowness_view_change :
  t -> now:int64 -> view:int -> ewma_us:float -> baseline_us:float -> unit

val checkpoint_taken :
  t -> now:int64 -> seq:int -> bytes:int -> dirty:int -> clean:int -> unit
(** One checkpoint build: [bytes] actually digested, [dirty] pages
    re-hashed vs [clean] pages reused from the previous tree — the
    incremental-checkpointing effectiveness metric (Section 5.3). *)

val batch_formed : t -> len:int -> unit
(** One batch formed by the primary carrying [len] requests — feeds the
    batch-occupancy histogram. *)

(** {2 Reading} *)

val events : ?last:int -> t -> entry list
(** Most recent events, oldest first; [last] trims to the final [n]. *)

val entry_to_string : entry -> string

val phase_hist : t -> int -> Hist.t
(** Histogram of pipeline interval [i], 0..4. Interval [i] ends at the
    [i]-th constructor of {!phase}: 0 is request -> pre-prepared, 4 is
    executed -> replied. *)

val e2e_hist : t -> Hist.t

val checkpoint_bytes_hist : t -> Hist.t
(** Bytes digested per checkpoint. The histogram machinery is shared with
    the latency histograms, so the [_us] accessors on it read as plain
    bytes. *)

val batch_occupancy_hist : t -> Hist.t
(** Requests per batch formed at the primary (values are counts, not us). *)

val snapshot_rejections : t -> int
val timeouts : t -> int

val checkpoint_dirty_pages : t -> int
val checkpoint_clean_pages : t -> int
(** Cumulative page counts across all checkpoints taken. *)

val summary_lines : t -> string list
(** Human-readable per-node metrics block (phase table + counters). *)

(** {2 Registry} — one [t] per node id, created on demand. *)

type registry

val registry : ?capacity:int -> unit -> registry
(** An enabled registry; [capacity] is the per-node ring size
    (default 1024). Every traced CLI and benchmark run keeps the default;
    a test that reads a whole run's trace back passes a larger ring. *)

val for_node : registry -> int -> t
val nodes : registry -> (int * t) list
(** Sorted by node id. *)

val registry_to_json : registry -> string
