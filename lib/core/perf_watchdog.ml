[@@@lint.protocol_core]

(* A backup trusts its baseline after [min_samples] executions and calls
   the primary slow once the smoothed latency exceeds [factor] times it. *)
let factor = 6.0
let min_samples = 8

type t = {
  enabled : bool; (* Config.perf_watchdog *)
  mutable ewma_us : float;
  mutable samples : int;
  mutable baseline_us : float; (* 0.0 = not yet established *)
  mutable fired_view : int; (* last view the watchdog fired in *)
  mutable view_start : int64;
      (* when the current view was entered: requests that arrived earlier
         waited under the previous primary and must not feed the EWMA *)
}

let create cfg =
  { enabled = cfg.Config.perf_watchdog; ewma_us = 0.0; samples = 0; baseline_us = 0.0;
    fired_view = -1; view_start = 0L }
let ewma_us t = t.ewma_us
let baseline_us t = t.baseline_us

let new_epoch t ~now =
  t.view_start <- now;
  t.ewma_us <- 0.0;
  t.samples <- 0

let reset t ~now =
  new_epoch t ~now;
  t.baseline_us <- 0.0;
  t.fired_view <- -1

let note t ~now ~arrival ~view ~primary ~active =
  if (not t.enabled) || primary || Int64.compare arrival t.view_start < 0 then false
  else begin
    let sample = Int64.to_float (Int64.sub now arrival) /. 1_000.0 in
    t.ewma_us <- (if t.samples = 0 then sample else (0.8 *. t.ewma_us) +. (0.2 *. sample));
    t.samples <- t.samples + 1;
    if t.samples < min_samples then false
    else if t.baseline_us = 0.0 || t.ewma_us < t.baseline_us then begin
      t.baseline_us <- t.ewma_us;
      false
    end
    else begin
      let fire = active && t.fired_view < view && t.ewma_us > factor *. t.baseline_us in
      if fire then t.fired_view <- view;
      fire
    end
  end

(* without the clock-derived latencies and epoch start *)
let digest t b = Printf.bprintf b "|perf=%d:%d" t.samples t.fired_view
