(** Component cost model (paper Section 7.1 / 8.2).

    The simulator charges virtual CPU time for cryptographic operations and
    virtual wire time for communication, using the affine models of the
    paper's analytic performance model:

    - digest of an l-byte message:   [digest_fixed + l * digest_per_byte]
    - one MAC over a fixed header:   [mac_fixed]
    - authenticator for n replicas:  [n * mac_fixed] to generate, one
      [mac_fixed] to verify (receivers check only their own entry)
    - signature:                     [sig_gen] / [sig_verify]
    - send/receive CPU:              [send_fixed + l * cpu_per_byte]
    - wire:                          [wire_latency + l * wire_per_byte]

    Default values are calibrated so the relative magnitudes match the
    paper's measurements (MD5 ~ hundreds of MB/s; UMAC tags under a
    microsecond; public-key signatures three orders of magnitude more
    expensive than MACs; switched 100 Mb/s Ethernet). All times are in
    microseconds of virtual time. *)

type t = {
  digest_fixed_us : float;
  digest_per_byte_us : float;
  mac_us : float;  (** generate or verify one MAC over a fixed-size header *)
  sig_gen_us : float;
  sig_verify_us : float;
  send_fixed_us : float;  (** per-message send CPU (UDP stack traversal) *)
  recv_fixed_us : float;  (** per-message receive CPU *)
  cpu_per_byte_us : float;  (** copy cost per byte sent or received *)
  wire_latency_us : float;  (** propagation + switch latency *)
  wire_per_byte_us : float;  (** link serialization per byte *)
  jitter_us : float;  (** max uniform extra wire delay (causes reordering) *)
  exec_null_us : float;  (** executing a null/trivial operation upcall *)
}

val default : t
(** Calibration used by all benchmarks unless a sweep overrides fields. *)

val free : t
(** All-zero cost model: logical time only. Used by correctness tests so
    that traces are easy to reason about. *)

val digest_us : t -> int -> float
(** Cost of digesting [l] bytes. *)

val auth_gen_us : t -> int -> float
(** Cost of generating an authenticator with [n] entries. *)

val wire_us : t -> int -> float
(** Wire time (excluding jitter) for an [l]-byte message. *)

val send_cpu_us : t -> int -> float
val recv_cpu_us : t -> int -> float
