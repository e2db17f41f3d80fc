(** Static configuration of a replica group.

    [n = 3f + 1] replicas with ids [0 .. n-1]; clients use ids [>= n].
    The primary of view [v] is replica [v mod n] (Section 2.3). *)

type auth_mode =
  | Mac_auth  (** BFT: authenticators / MACs everywhere (Chapter 3) *)
  | Sig_auth  (** BFT-PK: public-key signatures on all messages (Chapter 2) *)

type t = {
  f : int;  (** maximum simultaneous faults tolerated *)
  n : int;  (** number of replicas, 3f+1 *)
  auth_mode : auth_mode;
  checkpoint_interval : int;  (** K: checkpoint every K sequence numbers *)
  log_size : int;  (** L: high water mark is [h + L]; typically 2K *)
  max_batch : int;  (** max requests batched in one pre-prepare *)
  batching : bool;  (** Section 5.1.4; off = one request per instance *)
  adaptive_batch : bool;
      (** Queue-depth-tracking batch sizer at the primary: the batch target
          doubles while the request queue keeps up with it (congestion) and
          decays toward the observed depth when it does not, within
          [1 .. max_batch]. Deterministic — the target depends only on the
          sequence of queue depths at batch-formation points. Off by
          default: enabling it changes batch boundaries and hence the
          pinned committed-history digests. *)
  window : int;
      (** sliding window of concurrent protocol instances beyond the last
          executed batch; once full, arriving requests queue at the primary
          and are batched (Section 5.1.4) *)
  tentative_execution : bool;  (** Section 5.1.2 *)
  read_only_opt : bool;  (** Section 5.1.3 *)
  digest_replies : bool;  (** Section 5.1.1 *)
  separate_tx_threshold : int;
      (** requests above this size are multicast by the client and carried
          by digest in pre-prepares (Section 5.1.5) *)
  client_retry_us : float;  (** client retransmission timeout (base) *)
  client_retry_max_us : float;
      (** cap on the exponentially backed-off retransmission delay *)
  vc_timeout_us : float;  (** initial view-change timeout T (doubles) *)
  status_interval_us : float;  (** periodic status message interval *)
  recovery : bool;  (** BFT-PR proactive recovery (Chapter 4) *)
  watchdog_period_us : float;
  key_refresh_us : float;  (** session-key refresh period *)
  debug_no_vc_timer : bool;
      (** Injected bug for explorer/fuzzer validation: backups never arm
          the view-change timer, so a faulty primary is never displaced —
          the liveness oracles must catch the resulting stall. Never set
          outside tests. *)
  client_quota : int;
      (** Admission control: maximum distinct requests a single client may
          have in flight at a replica (queued, assigned to a batch, or
          awaited from the primary). Requests beyond the quota are dropped
          and counted, bounding the damage a flooding client can do to
          others (Chondros et al.'s client-flood attack). Correct clients
          run closed-loop with one outstanding request, so the default of
          64 never fires outside an attack. *)
  retransmit_budget : int option;
      (** Per-peer retransmission budget: when [Some b], at most [b]
          retransmitted protocol messages are sent to a given replica per
          status interval, with exponential backoff on the refill period
          while the peer keeps exhausting its budget. Defends against
          wrong-MAC peers whose status messages always claim to be behind
          (the mac_storm retransmission amplification). [None] (default)
          preserves the paper's unbounded retransmission behaviour. *)
  perf_watchdog : bool;
      (** Primary performance monitoring: backups track the latency from
          accepting a request to executing it and trigger a view change
          when the smoothed latency degrades beyond a fixed factor (6×)
          of the best baseline observed, even though the primary is not
          silent (the slow-primary attack). Off by default: it is not the
          paper's behaviour (the paper displaces only a primary that stops
          ordering), and enabling it changes pinned results — under jitter
          and loss, backups demand view changes the paper's replicas would
          not (15 of the 200 pinned fuzz seeds run extra view changes). *)
}

val make :
  ?auth_mode:auth_mode ->
  ?checkpoint_interval:int ->
  ?log_size:int ->
  ?max_batch:int ->
  ?batching:bool ->
  ?adaptive_batch:bool ->
  ?window:int ->
  ?tentative_execution:bool ->
  ?read_only_opt:bool ->
  ?digest_replies:bool ->
  ?separate_tx_threshold:int ->
  ?client_retry_us:float ->
  ?client_retry_max_us:float ->
  ?vc_timeout_us:float ->
  ?status_interval_us:float ->
  ?recovery:bool ->
  ?watchdog_period_us:float ->
  ?key_refresh_us:float ->
  ?debug_no_vc_timer:bool ->
  ?client_quota:int ->
  ?retransmit_budget:int ->
  ?perf_watchdog:bool ->
  f:int ->
  unit ->
  t
(** Raises [Invalid_argument] when [f], [checkpoint_interval], [max_batch],
    [window], [client_quota] or [retransmit_budget] is below 1, when
    [client_retry_us], [client_retry_max_us], [vc_timeout_us],
    [status_interval_us], [watchdog_period_us] or [key_refresh_us] is not
    finite and above 0 (a timer that re-arms at the same instant livelocks
    the simulation), or when [log_size] is below [checkpoint_interval]. *)

val digest_replies_threshold : int
(** With [digest_replies], results of at most this many bytes are still
    sent in full (Section 5.1.1): 32. *)

val primary : t -> view:int -> int
val is_primary : t -> view:int -> id:int -> bool
val quorum : t -> int
(** 2f+1: quorum certificate size. *)

val weak : t -> int
(** f+1: weak certificate size. *)

val replica_ids : t -> int list
val in_window : t -> h:int -> int -> bool
(** [in_window t ~h n] iff [h < n <= h + L]. *)
