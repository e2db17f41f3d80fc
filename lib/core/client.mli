(** Client proxy (Section 2.3.2 and the proxy automaton of Section 2.4.4).

    [invoke] sends a request to the primary (or multicasts it when the
    operation is large or read-only), collects replies in a {!Proxy}
    certificate, and fires the callback once a correct result is certain:
    - f+1 matching non-tentative replies (weak certificate), or
    - 2f+1 matching replies when any are tentative (Section 5.1.2) or the
      request was read-only (Section 5.1.3).
    Replies from ids outside [0..n-1] are refused unchecked.

    Under the digest-replies optimization only the designated replier
    returns the full result; the client matches the rest by digest. On
    timeout the request is retransmitted to all replicas after
    {!Proxy.retry_delay} with the client's smoothed response time; a
    verified reply from a newer view resets the backoff. Replies already
    collected for the same timestamp are kept across retransmissions. A
    read-only request that cannot assemble a quorum is retried as a
    regular read-write request (promotion), which voids the read-only
    replies collected so far. *)

type t

type deps = {
  cfg : Config.t;
  net : Message.envelope Bft_net.Network.t;
  registry : Bft_crypto.Signature.registry;
  keychain : Bft_crypto.Keychain.t;
  signer : Bft_crypto.Signature.signer;
  rng : Bft_util.Rng.t;
}

val create : ?obs:Bft_obs.Obs.t -> deps -> id:int -> t
(** Registers the client's network handler. One outstanding request at a
    time (the paper's well-formedness condition). [obs] defaults to the
    disabled sink. *)

val id : t -> int

val invoke :
  t -> ?read_only:bool -> op:string -> (result:string -> latency_us:float -> unit) -> unit
(** Raises [Invalid_argument] if a request is already outstanding. *)

val busy : t -> bool

val completed : t -> int
(** Number of operations completed since creation. *)

val retransmissions : t -> int

val srtt_us : t -> float
(** Smoothed measured response time driving the adaptive retransmission
    timeout (Section 5.2). Exposed for tests and metrics. *)

val pending_retries : t -> int option
(** Retransmission count of the in-flight request, if any (tests). *)

(** {2 Fault injection} *)

val byzantine_partial_auth : t -> bool -> unit
(** Corrupt part of the request authenticator (some replicas can verify it,
    others cannot) — the faulty-client scenario of Section 3.2.2. *)

val flood : t -> interval_us:float -> unit
(** Misbehaving-client attack: send a fresh authenticated request to all
    replicas every [interval_us] microseconds, open-loop, ignoring replies.
    Idempotent while already flooding. Raises [Invalid_argument] on a
    non-positive interval. *)

val flood_stop : t -> unit
(** Stop flooding; a no-op when not flooding. *)

val state_digest : t -> string
(** Canonical, time-abstract fingerprint of the client-proxy state for the
    exhaustive explorer (in-flight request, collected replies in order of
    replica, completion count; no clock-derived values). *)
