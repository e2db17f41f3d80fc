type t = {
  digest_fixed_us : float;
  digest_per_byte_us : float;
  mac_us : float;
  sig_gen_us : float;
  sig_verify_us : float;
  send_fixed_us : float;
  recv_fixed_us : float;
  cpu_per_byte_us : float;
  wire_latency_us : float;
  wire_per_byte_us : float;
  jitter_us : float;
  exec_null_us : float;
}

let default =
  {
    digest_fixed_us = 1.0;
    digest_per_byte_us = 0.004; (* ~250 MB/s, MD5-class *)
    mac_us = 0.7; (* UMAC32 over a 40-64 byte header *)
    sig_gen_us = 5_000.0; (* Rabin-Williams 1024-bit generation *)
    sig_verify_us = 100.0; (* Rabin verification is much cheaper *)
    send_fixed_us = 20.0;
    recv_fixed_us = 20.0;
    cpu_per_byte_us = 0.002;
    wire_latency_us = 40.0; (* switched LAN one-way *)
    wire_per_byte_us = 0.08; (* 100 Mb/s serialization *)
    jitter_us = 5.0;
    exec_null_us = 2.0;
  }

let free =
  {
    digest_fixed_us = 0.0;
    digest_per_byte_us = 0.0;
    mac_us = 0.0;
    sig_gen_us = 0.0;
    sig_verify_us = 0.0;
    send_fixed_us = 0.0;
    recv_fixed_us = 0.0;
    cpu_per_byte_us = 0.0;
    wire_latency_us = 1.0; (* keep a strictly positive hop so causality holds *)
    wire_per_byte_us = 0.0;
    jitter_us = 0.0;
    exec_null_us = 0.0;
  }

let digest_us t l = t.digest_fixed_us +. (float_of_int l *. t.digest_per_byte_us)
let auth_gen_us t n = float_of_int n *. t.mac_us
let wire_us t l = t.wire_latency_us +. (float_of_int l *. t.wire_per_byte_us)
let send_cpu_us t l = t.send_fixed_us +. (float_of_int l *. t.cpu_per_byte_us)
let recv_cpu_us t l = t.recv_fixed_us +. (float_of_int l *. t.cpu_per_byte_us)
