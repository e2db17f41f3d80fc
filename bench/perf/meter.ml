(* Host-side measurement: the wall clock, exact percentiles over
   per-request samples, the traced trial's spans and counters, and the loop
   that drives the simulator. Nothing here changes what the simulator
   does: a traced trial must reproduce the untraced trial's history
   digest, and the benchmark checks that it does. *)

module Engine = Bft_sim.Engine
module Network = Bft_net.Network
open Bft_core

(* The benchmark measures real elapsed time by definition; the determinism
   fence (no wall clock) applies to lib/ only. Monotonic nanoseconds,
   because one engine step lasts a few microseconds — below the
   resolution of gettimeofday. *)
let now_ns () = (Monotonic_clock.now [@lint.allow "determinism-unix"]) ()

let ns_between t0 t1 = Int64.to_float (Int64.sub t1 t0)
let secs_since t0 = ns_between t0 (now_ns ()) /. 1e9

(* ------------------------------------------------------------------ *)
(* Exact sample statistics                                             *)
(* ------------------------------------------------------------------ *)

(* Every sample is kept, so percentiles are exact order statistics
   (nearest rank), not histogram bucket edges. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 256 0.0; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let count t = t.n
  let get t i = t.a.(i)
  let clear t = t.n <- 0

  let sum t =
    let s = ref 0.0 in
    for i = 0 to t.n - 1 do
      s := !s +. t.a.(i)
    done;
    !s

  let mean t = if t.n = 0 then 0.0 else sum t /. float_of_int t.n

  let percentile t p =
    if t.n = 0 then 0.0
    else begin
      let s = Array.sub t.a 0 t.n in
      Array.sort Float.compare s;
      let rank = int_of_float (Float.ceil (p *. float_of_int t.n)) in
      s.(max 0 (min (t.n - 1) (rank - 1)))
    end
end

let median = function
  | [] -> 0.0
  | l ->
      let a = Array.of_list l in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The major heap's high-water mark since the process started. Each trial
   starts from a compacted heap, so the first trial's reading depends on
   the workload and seed only. *)
let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* ------------------------------------------------------------------ *)
(* Host speed and the trial clock                                      *)
(* ------------------------------------------------------------------ *)

(* On a shared 2-core virtual machine the same work takes up to 1.7x
   longer for seconds, sometimes a minute, at a time; even a pure CPU loop
   shows it. Host times are therefore rescaled by a calibration loop
   timed beside the work: string-keyed lookups in a ~250 KB table. The
   loop is the benchmark's own, so no change to the program can speed it
   up, and it does not allocate, so the program's heap cannot slow it.
   Against a fixed fuzz workload it tracked the slow phases with a
   correlation of 0.75. Over runs of six ~3 s trials, rescaling each trial
   by the mean of its calibrations cut the quartile spread of the best
   trial from 0.31 to 0.05. *)
let cal_keys = Array.init 8192 (fun i -> "key-" ^ string_of_int (i * 7919))

let cal_table =
  let h = Hashtbl.create 8192 in
  Array.iteri (fun i k -> Hashtbl.replace h k i) cal_keys;
  h

let calibration_ns () =
  let t0 = now_ns () in
  let s = ref 0 in
  for i = 1 to 20_000 do
    s := !s + Hashtbl.find cal_table cal_keys.((i * 2654435761) land 8191)
  done;
  ignore (Sys.opaque_identity !s);
  ns_between t0 (now_ns ())

(* The calibration loop's time at the reference speed: rescaled host
   seconds are seconds on a host where the loop takes exactly 1 ms. *)
let reference_ns = 1e6

(* [d] host ns rescaled by the calibration times [cals] taken around it. *)
let rescale d cals =
  d *. reference_ns /. (List.fold_left ( +. ) 0.0 cals /. float_of_int (List.length cals))

(* A trial's clock: host ns with the calibration loops taken out, read at
   the start of the timed part, at each unit of work it completes and at
   its end ([marks]), plus the calibrations run on the way, at most one
   per 100 ms ([cal_at], [cal_ns]). *)
type clock = { marks : float array; cal_at : float array; cal_ns : float array }

let marks = Samples.create ()
let cal_at = Samples.create ()
let cal_ns = Samples.create ()
let paused = ref 0.0
let last_cal = ref 0.0
let periodic = ref true

let calibrate () =
  let t = Int64.to_float (now_ns ()) in
  Samples.add cal_at (t -. !paused);
  Samples.add cal_ns (calibration_ns ());
  last_cal := Int64.to_float (now_ns ());
  paused := !paused +. (!last_cal -. t)

let mark () =
  if !periodic && Int64.to_float (now_ns ()) -. !last_cal > 1e8 then calibrate ();
  Samples.add marks (Int64.to_float (now_ns ()) -. !paused)

(* [periodic:false] calibrates only at the start and the end, for traced
   trials, whose engine-step spans must not contain calibration loops. *)
let start_clock ~periodic:p =
  List.iter Samples.clear [ marks; cal_at; cal_ns ];
  paused := 0.0;
  periodic := p;
  calibrate ();
  mark ()

let stop_clock () =
  mark ();
  calibrate ();
  let copy s = Array.init (Samples.count s) (Samples.get s) in
  { marks = copy marks; cal_at = copy cal_at; cal_ns = copy cal_ns }

let clock_seconds c = (c.marks.(Array.length c.marks - 1) -. c.marks.(0)) /. 1e9

(* The marks from unit [lo] to unit [hi]. *)
let sub_clock c lo hi = { c with marks = Array.sub c.marks lo (hi - lo + 1) }

(* A clock's span in rescaled host seconds, by the mean of the
   calibrations taken within it (or the one nearest its middle). *)
let rescaled_seconds c =
  let t0 = c.marks.(0) and t1 = c.marks.(Array.length c.marks - 1) in
  let mid = (t0 +. t1) /. 2.0 and near = ref 0 and inside = ref [] in
  Array.iteri
    (fun j t ->
      if t >= t0 && t <= t1 then inside := c.cal_ns.(j) :: !inside;
      if Float.abs (t -. mid) < Float.abs (c.cal_at.(!near) -. mid) then near := j)
    c.cal_at;
  rescale (t1 -. t0) (if !inside = [] then [ c.cal_ns.(!near) ] else !inside) /. 1e9

(* The fastest of repeated identical trials, in rescaled host seconds. *)
let best_seconds clocks =
  List.fold_left (fun best c -> Float.min best (rescaled_seconds c)) infinity clocks

(* ------------------------------------------------------------------ *)
(* The traced trial                                                    *)
(* ------------------------------------------------------------------ *)

(* Everything a traced trial records from outside the layers: one span per
   engine step, spans around the service closures the benchmark hands the
   replicas, spans the workload opens itself (fuzz phases, the explorer
   call), and a bounded sample of the envelopes on the wire for replay
   after the run. *)
type trace = {
  steps : Samples.t;  (** host ns per engine step *)
  mutable exec_ns : float;
  mutable execs : int;
  mutable snap_ns : float;
  mutable snaps : int;
  mutable spans : (string * float) list;  (** named workload spans, host ns *)
  mutable captured : Message.envelope list;
  mutable n_captured : int;
  mutable seen : int;
}

let new_trace () =
  {
    steps = Samples.create ();
    exec_ns = 0.0;
    execs = 0;
    snap_ns = 0.0;
    snaps = 0;
    spans = [];
    captured = [];
    n_captured = 0;
    seen = 0;
  }

(* Time [f] as the named span (added to any earlier span of that name). *)
let span trace name f =
  match trace with
  | None -> f ()
  | Some tr ->
      let t0 = now_ns () in
      let r = f () in
      let d = ns_between t0 (now_ns ()) in
      let prev = Option.value (List.assoc_opt name tr.spans) ~default:0.0 in
      tr.spans <- (name, prev +. d) :: List.remove_assoc name tr.spans;
      r

let span_ns tr name = Option.value (List.assoc_opt name tr.spans) ~default:0.0

let reset_service tr =
  tr.exec_ns <- 0.0;
  tr.execs <- 0;
  tr.snap_ns <- 0.0;
  tr.snaps <- 0

(* Wrap a service's closures with host-time spans. Only traced trials get
   the wrapper; the results are the service's own. *)
let timed_service trace (svc : Bft_sm.Service.t) =
  match trace with
  | None -> svc
  | Some tr ->
      let timed on_done f x =
        let t0 = now_ns () in
        let r = f x in
        on_done (ns_between t0 (now_ns ()));
        r
      in
      let snap d =
        tr.snap_ns <- tr.snap_ns +. d;
        tr.snaps <- tr.snaps + 1
      in
      let exec d =
        tr.exec_ns <- tr.exec_ns +. d;
        tr.execs <- tr.execs + 1
      in
      {
        svc with
        Bft_sm.Service.execute =
          (fun ~client ~op ~nondet ->
            timed exec (fun () -> svc.Bft_sm.Service.execute ~client ~op ~nondet) ());
        snapshot = timed snap svc.Bft_sm.Service.snapshot;
        paged =
          Option.map
            (fun (pg : Bft_sm.Service.paged) ->
              { pg with Bft_sm.Service.pg_pages = timed snap pg.Bft_sm.Service.pg_pages })
            svc.Bft_sm.Service.paged;
      }

(* Keep every 16th envelope sent, up to [capture_cap], through a
   pass-through adversary: the [`Pass] path consumes no randomness, so the
   run is unchanged. A fault schedule that installs its own adversary
   replaces this one, which only ends the sampling early. *)
let capture_cap = 2048

let capture trace net =
  match trace with
  | None -> ()
  | Some tr ->
      Network.set_adversary net (fun ~src:_ ~dst:_ env ->
          if tr.seen land 15 = 0 && tr.n_captured < capture_cap then begin
            tr.captured <- env :: tr.captured;
            tr.n_captured <- tr.n_captured + 1
          end;
          tr.seen <- tr.seen + 1;
          `Pass)

(* Replay the captured bodies through the wire codec and the crypto
   primitives the protocol applies to them, timing each in bulk. Returns
   [(encode ns/byte, decode ns/byte, digest ns/byte, MAC ns/msg)] and
   fails if a body does not decode back to its own encoding. *)
let replay_costs envs =
  let bodies = Array.of_list (List.rev_map (fun e -> e.Message.body) envs) in
  let wires = Array.map Wire.encode bodies in
  let bytes = Array.fold_left (fun a s -> a + String.length s) 0 wires in
  Array.iteri
    (fun i s ->
      match Wire.decode s with
      | Ok m when String.equal (Wire.encode m) wires.(i) -> ()
      | Ok _ -> failwith "wire: decode does not re-encode to the captured bytes"
      | Error e -> failwith ("wire: captured envelope does not decode: " ^ e))
    wires;
  if bytes = 0 then (0.0, 0.0, 0.0, 0.0)
  else begin
    (* repeat the pass until it spans ~20 ms so the clock's own cost and
       granularity vanish *)
    let per f =
      let reps = ref 0 and t0 = now_ns () in
      while !reps = 0 || ns_between t0 (now_ns ()) < 2e7 do
        for i = 0 to Array.length wires - 1 do
          f i
        done;
        incr reps
      done;
      ns_between t0 (now_ns ()) /. float_of_int !reps
    in
    let encode_ns = per (fun i -> ignore (Wire.encode bodies.(i))) in
    let decode_ns =
      per (fun i -> if Result.is_error (Wire.decode wires.(i)) then failwith "wire: decode")
    in
    let digest_ns = per (fun i -> ignore (Bft_crypto.Sha256.digest wires.(i))) in
    let key = Bft_crypto.Hmac.precompute ~key:(String.make 32 'k') in
    let mac_ns =
      per (fun i ->
          ignore
            (Bft_crypto.Hmac.mac_truncated_precomputed key Bft_crypto.Auth.tag_size wires.(i)))
    in
    let b = float_of_int bytes and n = float_of_int (Array.length wires) in
    (encode_ns /. b, decode_ns /. b, digest_ns /. b, mac_ns /. n)
  end

(* ------------------------------------------------------------------ *)
(* Driving the simulator                                               *)
(* ------------------------------------------------------------------ *)

(* Run until [finished ()] holds, the event queue empties, or the next
   event lies past [until] — the stopping rule of [Cluster.run_until],
   through the same [Engine.run_while], so the event sequence is the one
   the library's own run loops produce. [observe] runs after every event. In
   a traced trial the host time between consecutive predicate calls — one
   [Engine.step] — is recorded. *)
let drive ?trace ?(observe = ignore) engine ~until ~finished =
  match trace with
  | None ->
      ignore
        (Engine.run_while engine ~until (fun () ->
             observe ();
             not (finished ())))
  | Some tr ->
      let last = ref 0L in
      ignore
        (Engine.run_while engine ~until (fun () ->
             let t = now_ns () in
             if !last <> 0L then Samples.add tr.steps (ns_between !last t);
             observe ();
             let go = not (finished ()) in
             last := now_ns ();
             go))
