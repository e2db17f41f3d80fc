type auth_mode = Mac_auth | Sig_auth

let digest_replies_threshold = 32

type t = {
  f : int;
  n : int;
  auth_mode : auth_mode;
  checkpoint_interval : int;
  log_size : int;
  max_batch : int;
  batching : bool;
  adaptive_batch : bool;
  window : int;
  tentative_execution : bool;
  read_only_opt : bool;
  digest_replies : bool;
  separate_tx_threshold : int;
  client_retry_us : float;
  client_retry_max_us : float;
  vc_timeout_us : float;
  status_interval_us : float;
  recovery : bool;
  watchdog_period_us : float;
  key_refresh_us : float;
  debug_no_vc_timer : bool;
  client_quota : int;
  retransmit_budget : int option;
  perf_watchdog : bool;
}

let make ?(auth_mode = Mac_auth) ?(checkpoint_interval = 128) ?log_size ?(max_batch = 16)
    ?(batching = true) ?(adaptive_batch = false) ?(window = 16)
    ?(tentative_execution = true) ?(read_only_opt = true)
    ?(digest_replies = true) ?(separate_tx_threshold = 255)
    ?(client_retry_us = 20_000.0) ?(client_retry_max_us = 60_000_000.0)
    ?(vc_timeout_us = 50_000.0)
    ?(status_interval_us = 10_000.0) ?(recovery = false)
    ?(watchdog_period_us = 2_000_000.0) ?(key_refresh_us = 500_000.0)
    ?(debug_no_vc_timer = false) ?(client_quota = 64) ?retransmit_budget
    ?(perf_watchdog = false) ~f () =
  if f < 1 then invalid_arg "Config.make: f must be >= 1";
  if checkpoint_interval < 1 then invalid_arg "Config.make: checkpoint_interval must be >= 1";
  if max_batch < 1 then invalid_arg "Config.make: max_batch must be >= 1";
  if window < 1 then invalid_arg "Config.make: window must be >= 1";
  if client_quota < 1 then invalid_arg "Config.make: client_quota must be >= 1";
  (match retransmit_budget with
  | Some b when b < 1 -> invalid_arg "Config.make: retransmit_budget must be >= 1"
  | _ -> ());
  List.iter
    (fun (field, us) ->
      if not (Float.is_finite us && us > 0.0) then
        invalid_arg (Printf.sprintf "Config.make: %s must be finite and > 0" field))
    [
      ("client_retry_us", client_retry_us);
      ("client_retry_max_us", client_retry_max_us);
      ("vc_timeout_us", vc_timeout_us);
      ("status_interval_us", status_interval_us);
      ("watchdog_period_us", watchdog_period_us);
      ("key_refresh_us", key_refresh_us);
    ];
  let log_size = match log_size with Some l -> l | None -> 2 * checkpoint_interval in
  if log_size < checkpoint_interval then
    invalid_arg "Config.make: log_size must be >= checkpoint_interval";
  {
    f;
    n = (3 * f) + 1;
    auth_mode;
    checkpoint_interval;
    log_size;
    max_batch;
    batching;
    adaptive_batch;
    window;
    tentative_execution;
    read_only_opt;
    digest_replies;
    separate_tx_threshold;
    client_retry_us;
    client_retry_max_us;
    vc_timeout_us;
    status_interval_us;
    recovery;
    watchdog_period_us;
    key_refresh_us;
    debug_no_vc_timer;
    client_quota;
    retransmit_budget;
    perf_watchdog;
  }

let primary t ~view = view mod t.n
let is_primary t ~view ~id = primary t ~view = id
let quorum t = (2 * t.f) + 1
let weak t = t.f + 1
let replica_ids t = List.init t.n Fun.id
let in_window t ~h n = n > h && n <= h + t.log_size
