(* The three workloads. A trial builds its system from the seed, runs the
   timed part, checks the outputs, and reports its virtual-time metrics and,
   when traced, its layer counters. Why each workload exists, and which
   layer metric should move which end-to-end metric: README.md. *)

module Engine = Bft_sim.Engine
module Network = Bft_net.Network
module Obs = Bft_obs.Obs
module Hist = Bft_obs.Hist
module Rng = Bft_util.Rng
module Runner = Bft_check.Runner
module Explore = Bft_explore.Explore
module Vpool = Bft_crypto.Vpool
open Bft_core
open Meter

type outcome = {
  units : float;  (** work units completed in the timed part *)
  host_s : float;  (** host seconds of the timed part *)
  clock : clock;  (** the timed part's marks and calibrations *)
  heap_mb : float;  (** the process's peak major heap after the timed part, MiB *)
  setup_s : float;
  ops : int;  (** committed client operations (explore: states built) *)
  attempted : int;
  failed : int;  (** operations issued but not completed, plus failed oracles *)
  errors : string list;  (** output checks that failed *)
  digest : string;  (** history fingerprint: identical across same-seed trials *)
  virt : (string * float) list;  (** virtual-time end-to-end metrics *)
  layers : (string * float) list;  (** per-layer counters (traced trials) *)
}

type t = {
  name : string;
  config : string;  (** one-line JSON description of the workload's settings *)
  trial : seed:int -> trace option -> outcome;
}

(* ------------------------------------------------------------------ *)
(* Request generators                                                  *)
(* ------------------------------------------------------------------ *)

(* [due] is the virtual offset from the start of the timed part at which
   an open-loop arrival is due (ignored by the closed loop). *)
type op = { due : Engine.time; read_only : bool; text : string }

(* The system under test as the generators see it: the replicated
   cluster's clients, or the unreplicated baseline's. *)
type target = {
  engine : Engine.t;
  invoke : int -> read_only:bool -> string -> (string -> unit) -> unit;
}

let cluster_target c =
  {
    engine = Cluster.engine c;
    invoke =
      (fun k ~read_only op k' ->
        Client.invoke (Cluster.client c k) ~read_only ~op (fun ~result ~latency_us:_ ->
            k' result));
  }

let baseline_target b =
  {
    engine = Baseline.engine b;
    invoke =
      (fun k ~read_only:_ op k' ->
        Baseline.invoke b ~client:k op (fun ~result ~latency_us:_ -> k' result));
  }

type run = {
  start : Engine.time;
  lat : Samples.t;  (** virtual us from due (open) or issue (closed) to completion *)
  late : Samples.t;  (** virtual us an open-loop arrival waited for an idle client *)
  finish : Samples.t;  (** virtual us (since [start]) of each completion *)
  results : string array;
  mutable completed : int;
}

let vus e since = Engine.to_us (Int64.sub (Engine.now e) since)

let complete r e i result ~since =
  r.results.(i) <- result;
  Samples.add r.lat (vus e since);
  Samples.add r.finish (vus e r.start);
  r.completed <- r.completed + 1;
  mark ()

let new_run e n =
  {
    start = Engine.now e;
    lat = Samples.create ();
    late = Samples.create ();
    finish = Samples.create ();
    results = Array.make n "";
    completed = 0;
  }

(* Open loop: arrival [i] fires at [start + ops.(i).due] whatever the
   system's progress; an idle client from the pool takes it, or it waits
   FIFO for one. Latency counts from the due time, so waiting for a
   client is part of it. Arrivals are chained, one pending at a time, so
   the generator adds one event to the queue, not [n]. *)
let open_loop ?trace tgt ~pool ~horizon ops =
  let e = tgt.engine and n = Array.length ops in
  let r = new_run e n in
  let idle = Stack.create () and waiting = Queue.create () in
  for k = pool - 1 downto 0 do
    Stack.push k idle
  done;
  let due i = Int64.add r.start ops.(i).due in
  let rec issue k i =
    Samples.add r.late (vus e (due i));
    tgt.invoke k ~read_only:ops.(i).read_only ops.(i).text (fun result ->
        complete r e i result ~since:(due i);
        match Queue.take_opt waiting with Some j -> issue k j | None -> Stack.push k idle)
  and arrive i =
    (match Stack.pop_opt idle with Some k -> issue k i | None -> Queue.push i waiting);
    if i + 1 < n then ignore (Engine.schedule_at e (due (i + 1)) (fun () -> arrive (i + 1)))
  in
  if n > 0 then ignore (Engine.schedule_at e (due 0) (fun () -> arrive 0));
  drive ?trace e ~until:(Int64.add (due (n - 1)) horizon) ~finished:(fun () ->
      r.completed = n);
  r

(* Closed loop: client [k] issues ops [k], [k + clients], ... each as soon
   as its previous one completes. *)
let closed_loop ?trace tgt ~clients ~horizon ops =
  let e = tgt.engine and n = Array.length ops in
  let r = new_run e n in
  let rec issue i =
    if i < n then begin
      let since = Engine.now e in
      tgt.invoke (i mod clients) ~read_only:ops.(i).read_only ops.(i).text (fun result ->
          complete r e i result ~since;
          issue (i + clients))
    end
  in
  for k = 0 to min clients n - 1 do
    issue k
  done;
  drive ?trace e ~until:(Int64.add r.start horizon) ~finished:(fun () -> r.completed = n);
  r

(* ------------------------------------------------------------------ *)
(* Virtual-time metrics                                                *)
(* ------------------------------------------------------------------ *)

(* The virtual gaps between consecutive completions, counting from the
   start, in ms, into [out]: how long the system went without completing
   anything. *)
let add_gaps out finish =
  let prev = ref 0.0 in
  for i = 0 to Samples.count finish - 1 do
    let t = Samples.get finish i in
    Samples.add out ((t -. !prev) /. 1000.0);
    prev := t
  done

let virtual_metrics ~lat ~tput ~stalls ~unrepl_p50 =
  let p50 = Samples.percentile lat 0.50 in
  [
    ("vlat_samples", float_of_int (Samples.count lat));
    ("vlat_p50_us", p50);
    ("vlat_p99_us", Samples.percentile lat 0.99);
    ("vtput_ops_per_vsec", tput);
    ("vlat_vs_unrepl_x", p50 /. unrepl_p50);
    ("vstall_p95_ms", Samples.percentile stalls 0.95);
  ]

(* Completions per virtual second, from the start to the last one. *)
let ops_per_vsec finish =
  let n = Samples.count finish in
  if n = 0 then 0.0 else float_of_int n /. (Samples.get finish (n - 1) /. 1e6)

let run_metrics r ~unrepl =
  let stalls = Samples.create () in
  add_gaps stalls r.finish;
  virtual_metrics ~lat:r.lat ~tput:(ops_per_vsec r.finish) ~stalls
    ~unrepl_p50:(Samples.percentile unrepl.lat 0.50)

(* ------------------------------------------------------------------ *)
(* Layer counters read from a finished cluster                         *)
(* ------------------------------------------------------------------ *)

let get tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:0.0
let bump tbl k v = Hashtbl.replace tbl k (get tbl k +. v)
let peak tbl k v = Hashtbl.replace tbl k (Float.max (get tbl k) v)

(* Add a cluster's cumulative counters to [tbl] ([sign] = -1 subtracts
   them, to count from a point onward); high-water marks are kept as
   maxima. *)
let add_cluster ?(sign = 1.0) tbl cluster =
  let e = Cluster.engine cluster and net = Cluster.network cluster in
  let cfg = Cluster.config cluster in
  let fi = float_of_int in
  let bump tbl k v = bump tbl k (sign *. v) in
  bump tbl "events" (fi (Engine.events_fired e));
  peak tbl "heap" (fi (Engine.max_heap_size e));
  let st = Network.stats net in
  bump tbl "sent" (fi st.Network.sent);
  bump tbl "bytes" (fi st.Network.bytes_sent);
  bump tbl "dropped" (fi st.Network.dropped);
  Array.iter
    (fun r ->
      let c = Replica.counters r in
      peak tbl "backlog" (fi (Network.backlog_hwm net ~id:(Replica.id r)));
      bump tbl "executed" (fi c.Replica.n_executed);
      bump tbl "batches" (fi c.Replica.n_batches);
      bump tbl "view_changes" (fi c.Replica.n_view_changes);
      bump tbl "state_transfers" (fi c.Replica.n_state_transfers);
      bump tbl "bytes_fetched" (fi c.Replica.bytes_fetched))
    (Cluster.replicas cluster);
  for k = 0 to Cluster.num_clients cluster - 1 do
    bump tbl "retx" (fi (Client.retransmissions (Cluster.client cluster k)))
  done;
  match Cluster.observations cluster with
  | None -> ()
  | Some reg ->
      List.iter
        (fun (id, o) ->
          if id < cfg.Config.n then begin
            for i = 0 to 3 do
              let h = Obs.phase_hist o i in
              bump tbl (Printf.sprintf "phase%d.sum" i) (Hist.sum_us h);
              bump tbl (Printf.sprintf "phase%d.n" i) (fi (Hist.count h))
            done;
            let h = Obs.checkpoint_bytes_hist o in
            bump tbl "ckpt.bytes" (Hist.sum_us h);
            bump tbl "ckpt.n" (fi (Hist.count h));
            bump tbl "ckpt.dirty" (fi (Obs.checkpoint_dirty_pages o));
            bump tbl "ckpt.clean" (fi (Obs.checkpoint_clean_pages o))
          end)
        (Obs.nodes reg)

let ratio a b = if b = 0.0 then 0.0 else a /. b

let cluster_layers tbl ~ops =
  let per k = ratio (get tbl k) (float_of_int ops) in
  let phase i =
    ratio (get tbl (Printf.sprintf "phase%d.sum" i)) (get tbl (Printf.sprintf "phase%d.n" i))
  in
  [
    ("engine.events_per_op", per "events");
    ("engine.heap_max", get tbl "heap");
    ("network.msgs_per_op", per "sent");
    ("network.bytes_per_op", per "bytes");
    ("network.backlog_hwm_max", get tbl "backlog");
    ("network.dropped", get tbl "dropped");
    ("crypto.vpool_items_per_op", per "vpool");
    ("replica.ops_per_batch", ratio (get tbl "executed") (get tbl "batches"));
    ("replica.vwait_preprep_us", phase 0);
    ("replica.vwait_prepared_us", phase 1);
    ("replica.vwait_committed_us", phase 2);
    ("replica.vwait_executed_us", phase 3);
    ("replica.view_changes", get tbl "view_changes");
    ("replica.state_transfers", get tbl "state_transfers");
    ("replica.bytes_fetched", get tbl "bytes_fetched");
    ("checkpoint.bytes_per_ckpt", ratio (get tbl "ckpt.bytes") (get tbl "ckpt.n"));
    ( "checkpoint.dirty_page_frac",
      ratio (get tbl "ckpt.dirty") (get tbl "ckpt.dirty" +. get tbl "ckpt.clean") );
    ("client.retx_per_op", per "retx");
  ]

(* Host us to fingerprint a cluster's state the way the explorer does for
   every state it builds: [Replica.state_digest] of each replica and
   [Client.state_digest] of each client. Traced trials only. *)
let fingerprint_us trace cluster =
  match trace with
  | None -> []
  | Some _ ->
      let t0 = now_ns () and reps = ref 0 in
      while !reps = 0 || secs_since t0 < 0.02 do
        Array.iter (fun r -> ignore (Replica.state_digest r)) (Cluster.replicas cluster);
        for k = 0 to Cluster.num_clients cluster - 1 do
          ignore (Client.state_digest (Cluster.client cluster k))
        done;
        incr reps
      done;
      [ ("explore.state_digest_us", secs_since t0 *. 1e6 /. float_of_int !reps) ]

let vpool_items () = float_of_int (Vpool.stats (Vpool.default ())).Vpool.st_items

(* Run [f] as the timed part of a trial: its result, clock and heap peak,
   and the verification pool's item count over it. Service spans count
   from here, not from the builds and warm-ups before. *)
let timed ?trace tbl f =
  Option.iter reset_service trace;
  let items0 = vpool_items () in
  start_clock ~periodic:(trace = None);
  let r = f () in
  let clock = stop_clock () in
  bump tbl "vpool" (vpool_items () -. items0);
  (r, clock, peak_heap_mb ())

(* Build [n] times; the last build and the median rescaled host seconds of
   one, each build rescaled by the calibrations just before and after it.
   A single build is too short to time steadily alone. *)
let setup ~n f =
  let last = ref None in
  let times =
    List.init n (fun _ ->
        let c0 = calibration_ns () and t0 = now_ns () in
        last := Some (f ());
        let d = ns_between t0 (now_ns ()) in
        rescale d [ c0; calibration_ns () ] /. 1e9)
  in
  (Option.get !last, median times)

let obs_of trace = Option.map (fun _ -> Obs.registry ()) trace

let check errors name ok = if not ok then errors := name :: !errors

(* Generous virtual deadline past the last arrival or the loop's start;
   every operation completes long before it on a fault-free run. *)
let horizon = Engine.sec 30

let warm_clients = 16

(* A trial on one f=1 cluster: build it [builds] times, each with a
   closed-loop warm-up, then run [load] on the last build as the timed part
   and check every operation completed with a result [ok] accepts and the
   replicas' committed histories agree. [load] then runs the same ops on
   the unreplicated baseline. Returns the outcome, the cluster and the run. *)
let cluster_trial ~name ~seed trace ~service ~clients ~builds ~warm ~ops ~load ~ok =
  let errors = ref [] and tbl = Hashtbl.create 32 in
  let n = Array.length ops in
  let cluster, setup_s =
    setup ~n:builds (fun () ->
        let c =
          Cluster.create ~seed:(Int64.of_int seed)
            ~service:(fun () -> timed_service trace (service ()))
            ~num_clients:clients ?obs:(obs_of trace) (Config.make ~f:1 ())
        in
        let w = closed_loop (cluster_target c) ~clients:warm_clients ~horizon warm in
        check errors (name ^ ": warm-up incomplete") (w.completed = Array.length warm);
        c)
  in
  capture trace (Cluster.network cluster);
  add_cluster ~sign:(-1.0) tbl cluster;
  let r, clock, heap_mb =
    timed ?trace tbl (fun () -> load trace (cluster_target cluster))
  in
  add_cluster tbl cluster;
  check errors (name ^ ": ops incomplete") (r.completed = n);
  if r.completed = n then
    Array.iteri
      (fun i res ->
        check errors (Printf.sprintf "%s: op %d result %S" name i res) (ok ops.(i) res))
      r.results;
  check errors (name ^ ": committed histories diverge")
    (Cluster.committed_histories_consistent cluster);
  let unrepl =
    let b = Baseline.create ~seed:(Int64.of_int seed) ~service ~num_clients:clients () in
    ignore (closed_loop (baseline_target b) ~clients:warm_clients ~horizon warm);
    load None (baseline_target b)
  in
  check errors (name ^ ": unreplicated baseline incomplete") (unrepl.completed = n);
  ( {
      units = float_of_int r.completed;
      host_s = clock_seconds clock;
      clock;
      heap_mb;
      setup_s;
      ops = r.completed;
      attempted = n;
      failed = n - r.completed;
      errors = List.rev !errors;
      digest = Cluster.committed_history_digest cluster;
      virt = run_metrics r ~unrepl;
      layers = fingerprint_us trace cluster @ cluster_layers tbl ~ops:r.completed;
    },
    cluster,
    r )

(* ------------------------------------------------------------------ *)
(* kv-open                                                             *)
(* ------------------------------------------------------------------ *)

let kv_keys = 10_000
let kv_value_len = 100
let kv_ops = 10_000
let kv_pool = 1_000
let kv_rate = 2500.0
let kv_read_frac = 0.1
let kv_page = 4096
let kv_warmup = 256

let kv_key i = Printf.sprintf "k%05d" i

let kv_value tag =
  let s = Printf.sprintf "v%d-" tag in
  s ^ String.make (kv_value_len - String.length s) 'x'

(* Every replica, the baseline server and the linearizability replay start
   from the same preloaded keyspace, so checkpoints cover ~1 MB of pages
   and the first [get] of any key finds a value. *)
let kv_service () =
  let s = Bft_sm.Kv_service.create ~paged:kv_page () in
  for i = 0 to kv_keys - 1 do
    ignore
      (s.Bft_sm.Service.execute ~client:Bft_sm.Kv_service.admin_client
         ~op:(Printf.sprintf "put %s %s" (kv_key i) (kv_value i))
         ~nondet:"")
  done;
  s

let kv_arrivals ~seed =
  let rng = Rng.create (Int64.of_int seed) in
  let t = ref 0.0 in
  Array.init kv_ops (fun i ->
      t := !t +. Rng.exponential rng (1e6 /. kv_rate);
      let key = kv_key (Rng.int rng kv_keys) in
      let due = Engine.of_us_float !t in
      if Rng.bernoulli rng kv_read_frac then { due; read_only = true; text = "get " ^ key }
      else
        { due; read_only = false; text = Printf.sprintf "put %s %s" key (kv_value (kv_keys + i)) })

let warmup_ops n =
  Array.init n (fun i ->
      { due = 0L; read_only = false; text = Printf.sprintf "put %s %s" (kv_key i) (kv_value i) })

let kv_open =
  let trial ~seed trace =
    let arrivals = kv_arrivals ~seed in
    let o, cluster, r =
      cluster_trial ~name:"kv-open" ~seed trace ~service:kv_service ~clients:kv_pool
        ~builds:3 ~warm:(warmup_ops kv_warmup) ~ops:arrivals
        ~load:(fun trace tgt -> open_loop ?trace tgt ~pool:kv_pool ~horizon arrivals)
        ~ok:(fun op res ->
          if op.read_only then String.length res = kv_value_len else String.equal res "ok")
    in
    let linearizable =
      match Cluster.check_linearizable cluster ~service:kv_service with
      | Ok () -> []
      | Error e -> [ "kv-open: not linearizable: " ^ e ]
    in
    {
      o with
      errors = o.errors @ linearizable;
      layers = ("client.gen_late_p99_us", Samples.percentile r.late 0.99) :: o.layers;
    }
  in
  {
    name = "kv-open";
    config =
      Printf.sprintf
        "{\"f\": 1, \"service\": \"kv paged %d B\", \"keys\": %d, \"value_bytes\": %d, \
         \"read_frac\": %.2f, \"arrivals\": \"poisson\", \"rate_per_vsec\": %.0f, \"ops\": \
         %d, \"client_pool\": %d, \"warmup_ops\": %d}"
        kv_page kv_keys kv_value_len kv_read_frac kv_rate kv_ops kv_pool kv_warmup;
    trial;
  }

(* ------------------------------------------------------------------ *)
(* bulk-closed                                                         *)
(* ------------------------------------------------------------------ *)

let bulk_clients = 24
let bulk_rounds = 200
let bulk_bytes = 4096
let bulk_warmup = 3 * bulk_clients

(* Client [k] cycles write, write, read: 4K/0 writes take separate request
   transmission, 0/4K read-only operations take digest replies. Reads are
   much faster than writes, so an even mix would put the median on the
   edge between the two latency modes, where it jumps between seeds; two
   writes per read keep it inside the write mode. A third of the clients
   start at each point of the cycle; the seed picks which. *)
let bulk_ops ~seed =
  let phase = Array.init bulk_clients (fun k -> k mod 3) in
  Rng.shuffle (Rng.create (Int64.of_int seed)) phase;
  Array.init (bulk_clients * bulk_rounds) (fun i ->
      let k = i mod bulk_clients and round = i / bulk_clients in
      let read_only = (round + phase.(k)) mod 3 = 2 in
      let text =
        if read_only then Bft_sm.Null_service.op ~read_only ~arg_size:0 ~result_size:bulk_bytes
        else Bft_sm.Null_service.op ~read_only ~arg_size:bulk_bytes ~result_size:0
      in
      { due = 0L; read_only; text })

let bulk_closed =
  let trial ~seed trace =
    let ops = bulk_ops ~seed in
    let o, _, _ =
      cluster_trial ~name:"bulk-closed" ~seed trace
        ~service:(fun () -> Bft_sm.Null_service.create ())
        ~clients:bulk_clients ~builds:5 ~warm:(Array.sub ops 0 bulk_warmup) ~ops
        ~load:(fun trace tgt -> closed_loop ?trace tgt ~clients:bulk_clients ~horizon ops)
        ~ok:(fun op res -> String.length res = if op.read_only then bulk_bytes else 0)
    in
    o
  in
  {
    name = "bulk-closed";
    config =
      Printf.sprintf
        "{\"f\": 1, \"service\": \"null\", \"clients\": %d, \"loop\": \"closed\", \"ops\": \
         %d, \"mix\": \"cycle of two %d/0 writes and one 0/%d read-only\", \"warmup_ops\": %d}"
        bulk_clients (bulk_clients * bulk_rounds) bulk_bytes bulk_bytes bulk_warmup;
    trial;
  }

(* ------------------------------------------------------------------ *)
(* The explorer, measured in fuzz's traced trials                      *)
(* ------------------------------------------------------------------ *)

let explore_states = 10_000

(* The pinned n=4 configuration with two operations instead of one, so
   the state budget, not exhaustion, ends the search; the wall-clock cap
   is set out of reach so it never decides the result. *)
let explore_config ~seed =
  {
    (Explore.default_config ~seed) with
    Explore.ops_per_client = 2;
    max_states = explore_states;
    max_wall_s = 1e9;
  }

(* One bounded search: its failed checks and its layer metrics. *)
let explore_layers trace ~seed =
  match trace with
  | None -> ([], [])
  | Some tr ->
      let o = span trace "explore.run" (fun () -> Explore.run (explore_config ~seed)) in
      let st = o.Explore.o_stats and fi = float_of_int in
      let errors =
        (if o.Explore.o_violations = [] then []
         else [ Printf.sprintf "explore: %d violation(s)" (List.length o.Explore.o_violations) ])
        @
        if o.Explore.o_exhausted || st.Explore.states_built >= explore_states then []
        else [ "explore: budget not reached" ]
      in
      ( errors,
        [
          ("explore.states_per_s", fi st.Explore.states_built /. (span_ns tr "explore.run" /. 1e9));
          ( "explore.por_prune_ratio",
            ratio (fi st.Explore.por_pruned) (fi (st.Explore.por_pruned + st.Explore.transitions))
          );
          ("explore.hash_pruned", fi st.Explore.hash_pruned);
        ] )

(* ------------------------------------------------------------------ *)
(* fuzz                                                                *)
(* ------------------------------------------------------------------ *)

let fuzz_seeds = 500

(* The four committed-history digests pinned by the hot-path tests: the
   benchmark's split of a fuzz run into generate / prepare / run / finish
   must reproduce them. *)
let pinned =
  [
    (1, "43c8b1c432b84d0dd523fa7c9a137e15a0f978c4a8534b528625884e84e50676");
    (2, "2e0e9f315914849bcd8c50fbf61b3dacacc23d370261b74689afbe686dd6f60f");
    (3, "2e0e9f315914849bcd8c50fbf61b3dacacc23d370261b74689afbe686dd6f60f");
    (46, "7ddda45eb9535a7b32bbbac06d595d0e2604e5d249b1f131672ef2d3ed4f6e5e");
  ]

type seed_run = {
  result : Runner.run_result;
  cluster : Cluster.t;
  ops_done : string list;  (** operations in completion order *)
}

(* One fuzz seed, as [Runner.run_seed] runs it, split at the runner's
   public seams so each phase can be timed. After every event the
   workload clients' [busy]/[completed] state is read to time each
   operation from issue to completion; [lat] and [finish] collect those. *)
let fuzz_one ?trace ~lat ~finish s =
  let p = Runner.default_params ~seed:s ~f:1 in
  let sched = span trace "check.generate" (fun () -> Runner.generate p) in
  let lv = span trace "check.prepare" (fun () -> Runner.prepare ?obs:(obs_of trace) p sched) in
  let cluster = lv.Runner.lv_cluster in
  let e = Cluster.engine cluster in
  capture trace (Cluster.network cluster);
  let k = p.Runner.clients in
  let busy = Array.make k false and issued = Array.make k 0L and seen = Array.make k 0 in
  let observe () =
    for c = 0 to k - 1 do
      let cl = Cluster.client cluster c in
      let d = Client.completed cl and b = Client.busy cl in
      let finished_now = d > seen.(c) in
      if finished_now then begin
        Samples.add lat (vus e issued.(c));
        Samples.add finish (Engine.to_us (Engine.now e));
        seen.(c) <- d
      end;
      if b && ((not busy.(c)) || finished_now) then issued.(c) <- Engine.now e;
      busy.(c) <- b
    done
  in
  let until = Engine.of_us_float (p.Runner.horizon_us +. p.Runner.drain_us) in
  span trace "check.run" (fun () ->
      drive ?trace ~observe e ~until:(Int64.add (Engine.now e) until) ~finished:(fun () ->
          !(lv.Runner.lv_n_completed) >= lv.Runner.lv_total_ops));
  let result = span trace "check.oracle" (fun () -> Runner.finish lv) in
  { result; cluster; ops_done = List.rev_map (fun (_, op, _) -> op) !(lv.Runner.lv_completed) }

let fuzz =
  let trial ~seed trace =
    let errors = ref [] and tbl = Hashtbl.create 32 in
    (* runs of neighbouring workload seeds share no fuzz seed *)
    let first_seed = seed * fuzz_seeds in
    let scratch () = Samples.create () in
    List.iter
      (fun (s, want) ->
        let got = (fuzz_one ~lat:(scratch ()) ~finish:(scratch ()) s).result in
        check errors (Printf.sprintf "fuzz: pinned seed %d digest %s" s got.Runner.history_digest)
          (String.equal got.Runner.history_digest want))
      pinned;
    let (), setup_s =
      setup ~n:25 (fun () ->
          let p = Runner.default_params ~seed:first_seed ~f:1 in
          ignore (Runner.prepare p (Runner.generate p)))
    in
    let lat = Samples.create () and stalls = Samples.create () and tputs = Samples.create () in
    let digests = Buffer.create (64 * fuzz_seeds) in
    let attempted = ref 0 and failed = ref 0 and completed = ref 0 in
    let first = ref [] and last = ref None in
    let (), clock, heap_mb =
      timed tbl (fun () ->
          for s = first_seed to first_seed + fuzz_seeds - 1 do
            let finish = Samples.create () in
            let sr = fuzz_one ?trace ~lat ~finish s in
            let r = sr.result in
            if s = first_seed then first := sr.ops_done;
            last := Some sr.cluster;
            let gaps = Samples.create () in
            add_gaps gaps finish;
            Samples.add stalls (Samples.percentile gaps 1.0);
            Samples.add tputs (ops_per_vsec finish);
            attempted := !attempted + r.Runner.total_ops;
            completed := !completed + r.Runner.completed_ops;
            failed := !failed + (r.Runner.total_ops - r.Runner.completed_ops);
            if r.Runner.failures <> [] then begin
              incr failed;
              check errors
                (Printf.sprintf "fuzz: seed %d: %s" s (String.concat "; " r.Runner.failures))
                false
            end;
            Buffer.add_string digests r.Runner.history_digest;
            mark ();
            if trace <> None then add_cluster tbl sr.cluster
          done)
    in
    check errors "fuzz: ops incomplete" (!failed = 0);
    (* the unreplicated reference: the first seed's operations, fault-free *)
    let unrepl =
      let ops =
        Array.of_list (List.map (fun text -> { due = 0L; read_only = false; text }) !first)
      in
      let clients = (Runner.default_params ~seed ~f:1).Runner.clients in
      let b =
        Baseline.create ~seed:(Int64.of_int seed)
          ~service:(fun () -> Bft_sm.Kv_service.create ())
          ~num_clients:clients ()
      in
      closed_loop (baseline_target b) ~clients ~horizon ops
    in
    let spans =
      match trace with
      | None -> []
      | Some tr ->
          List.map
            (fun k -> (k ^ "_s", span_ns tr k /. 1e9))
            [ "check.generate"; "check.prepare"; "check.run"; "check.oracle" ]
    in
    let explore_errors, explored = explore_layers trace ~seed:first_seed in
    {
      units = float_of_int fuzz_seeds;
      host_s = clock_seconds clock;
      clock;
      heap_mb;
      setup_s;
      ops = !completed;
      attempted = !attempted;
      failed = !failed;
      errors = List.rev !errors @ explore_errors;
      digest = Bft_crypto.Sha256.hexdigest (Buffer.contents digests);
      virt =
        virtual_metrics ~lat ~tput:(Samples.mean tputs) ~stalls
          ~unrepl_p50:(Samples.percentile unrepl.lat 0.50);
      layers =
        spans @ explored
        @ fingerprint_us trace (Option.get !last)
        @ cluster_layers tbl ~ops:!completed;
    }
  in
  let p = Runner.default_params ~seed:0 ~f:1 in
  {
    name = "fuzz";
    config =
      Printf.sprintf
        "{\"f\": 1, \"seeds\": %d, \"first_seed\": \"workload seed x seeds\", \"clients\": %d, \
         \"ops_per_client\": %d, \"horizon_us\": %.0f, \"drain_us\": %.0f, \
         \"checkpoint_interval\": %d, \"vc_timeout_us\": %.0f, \"schedules\": \"generated\"}"
        fuzz_seeds p.Runner.clients p.Runner.ops_per_client p.Runner.horizon_us
        p.Runner.drain_us p.Runner.checkpoint_interval p.Runner.vc_timeout_us;
    trial;
  }

let all = [ kv_open; bulk_closed; fuzz ]
