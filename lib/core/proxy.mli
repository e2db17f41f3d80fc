(** The client side of the protocol, shared by {!Client} and the derived
    flights of [Bft_check.Cohort] (Sections 2.3.2, 5.1.2 and 5.1.3): one
    request's reply certificate and retry count, and the retry policy.

    The certificate keeps one slot per replica id, so a replica's later
    reply replaces its earlier one. A group of replies with one result
    digest completes when it holds a full result and f+1 non-tentative or
    2f+1 replies in all; an unpromoted read-only request needs 2f+1. *)

type t

val create : Config.t -> t

val accept :
  t -> Message.envelope Bft_net.Network.t -> id:int -> verify:(unit -> bool) ->
  Message.reply -> bool
(** Record a reply at client node [id]; [true] if recorded. A reply whose
    [rp_replica] is outside [0..n-1] is refused before [verify], which
    checks and charges its authentication, runs. A full result's digest is
    charged to [id]. *)

val result : t -> Config.t -> read_only:bool -> string option
(** The certified result, if a group completes; [read_only] for an
    unpromoted read-only request. *)

val clear : t -> unit
(** Void the recorded replies (read-only promotion); retries are kept. *)

val retries : t -> int

val retry : t -> int
(** Count one retransmission; returns the new count. *)

val note_view : t -> guess:int -> int -> int
(** The view guess after a verified reply from a view. A newer view also
    resets [t]'s retries: the backoff measured the old primary. *)

val retry_delay : Config.t -> srtt_us:float -> retries:int -> float
(** Microseconds before the next retransmission:
    [max client_retry_us (3 srtt_us)] doubled per retry, capped at
    [client_retry_max_us]. *)

val render : Buffer.t -> t -> unit
(** The recorded replies in replica order, for a state fingerprint. *)
