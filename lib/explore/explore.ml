module Engine = Bft_sim.Engine
module Network = Bft_net.Network
module Schedule = Bft_check.Schedule
module Runner = Bft_check.Runner
open Bft_core

type strategy = Bfs | Dfs

type config = {
  seed : int;
  f : int;
  clients : int;
  ops_per_client : int;
  view_bound : int;
  vc_timeout_us : float;
  checkpoint_interval : int;
  tick_horizon_us : float;
  probe_drain_us : float;
  max_depth : int;
  max_states : int;
  max_wall_s : float;
  strategy : strategy;
  por : bool;
  fifo_links : bool;
  stop_at_completion : bool;
  stop_on_violation : bool;
  suppress_vc_timer : bool;
  prefix : Schedule.t;
}

let default_config ~seed =
  {
    seed;
    f = 1;
    clients = 1;
    ops_per_client = 1;
    view_bound = 2;
    vc_timeout_us = 30_000.0;
    checkpoint_interval = 8;
    tick_horizon_us = 250_000.0;
    probe_drain_us = 10_000_000.0;
    max_depth = 60;
    max_states = 50_000;
    max_wall_s = 300.0;
    strategy = Bfs;
    por = true;
    fifo_links = true;
    stop_at_completion = true;
    stop_on_violation = true;
    suppress_vc_timer = false;
    prefix = [];
  }

type stats = {
  mutable states_built : int;
  mutable states_visited : int;
  mutable states_expanded : int;
  mutable transitions : int;
  mutable por_pruned : int;
  mutable hash_pruned : int;
  mutable terminals : int;
  mutable cuts : int;
  mutable probes : int;
  mutable slot_skipped : int;
  mutable max_depth_seen : int;
}

type violation = {
  v_kind : [ `Safety | `Liveness ];
  v_failures : string list;
  v_depth : int;
  v_schedule : Schedule.t;
  v_params : Runner.params;
  v_replay : string;
}

type outcome = {
  o_config : config;
  o_stats : stats;
  o_violations : violation list;
  o_exhausted : bool;
}

(* ------------------------------------------------------------------ *)
(* Building states by schedule replay                                  *)
(* ------------------------------------------------------------------ *)

let build_params c =
  let p = Runner.default_params ~seed:c.seed ~f:c.f in
  {
    p with
    Runner.clients = c.clients;
    ops_per_client = c.ops_per_client;
    horizon_us = c.tick_horizon_us;
    drain_us = c.probe_drain_us;
    checkpoint_interval = c.checkpoint_interval;
    vc_timeout_us = c.vc_timeout_us;
    (* status retransmission would flood the gate with periodic traffic;
       push it far past the tick horizon so the explored window contains
       only protocol-driven events *)
    status_interval_us = 3_600_000_000.0;
    free_costs = true;
    quiesce = false;
    suppress_vc_timer = c.suppress_vc_timer;
  }

let base_schedule c = { Schedule.at_us = 0.0; action = Schedule.Hold_all } :: c.prefix

(* A path is its appended release actions; a node is a path plus how far
   virtual time has been advanced (ticks move time without releasing). *)
type node = {
  n_trace : Schedule.event list;  (* chronological, strictly increasing at_us *)
  n_time : Engine.time;
  n_depth : int;
  n_sleep : choice list;
  n_parent : (int * int) array option;  (* parent's (view, low water mark) *)
}

and choice =
  | Deliver of Schedule.msg_class * int * int * int  (* class, src, dst, nth *)
  | Tick

let build c node =
  let lv =
    Runner.prepare ~monotonic_probes:false (build_params c)
      (base_schedule c @ node.n_trace)
  in
  Engine.run ~until:node.n_time (Cluster.engine lv.Runner.lv_cluster);
  lv

(* ------------------------------------------------------------------ *)
(* Enabled choices                                                     *)
(* ------------------------------------------------------------------ *)

let specific_classes =
  [
    Schedule.Pre_prepares;
    Schedule.Prepares;
    Schedule.Commits;
    Schedule.Checkpoints;
    Schedule.View_changes;
    Schedule.New_views;
    Schedule.Replies;
    Schedule.Requests;
  ]

let class_of body =
  match List.find_opt (fun c -> Schedule.matches c body) specific_classes with
  | Some c -> c
  | None -> Schedule.Any

let held_key src dst msg =
  Printf.sprintf "%d>%d:%s" src dst
    (Bft_crypto.Sha256.hexdigest (Wire.envelope_bytes msg))

(* Without [fifo_links]: one choice per distinct held payload — releasing
   either of two identical duplicates leaves the same residual multiset,
   so only the first is offered. [nth] counts prior held messages matching
   the same replay predicate — exactly how [Release] resolves it.

   With [fifo_links] (default): only the oldest held message of each
   (src, dst) link is releasable, so per-link delivery order matches send
   order. This is the reduction that makes small configs exhaustible; the
   randomized fuzzer still covers arbitrary reordering. The link-oldest
   message is by construction the first match of its own class on that
   link, so [nth] is always 0. *)
let deliveries ~fifo lv =
  let net = Cluster.network lv.Runner.lv_cluster in
  let held = Array.of_list (Network.held net) in
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  Array.iteri
    (fun i (src, dst, msg) ->
      let key =
        if fifo then Printf.sprintf "%d>%d" src dst else held_key src dst msg
      in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        let cls = class_of msg.Message.body in
        let nth = ref 0 in
        for j = 0 to i - 1 do
          let s', d', m' = held.(j) in
          if s' = src && d' = dst && Schedule.matches cls m'.Message.body then incr nth
        done;
        out := Deliver (cls, src, dst, !nth) :: !out
      end)
    held;
  List.rev !out

let tick_target lv horizon_ns =
  match Engine.next_live_time (Cluster.engine lv.Runner.lv_cluster) with
  | Some t when Int64.compare t horizon_ns <= 0 -> Some t
  | _ -> None

(* Two deliveries to distinct destinations commute: each mutates only its
   destination node (new sends are held, not delivered), and both the
   residual held multiset and the canonical state are order-insensitive.
   Everything else — same-destination deliveries, and ticks, which fire
   arbitrary timers — is treated as dependent. *)
let independent a b =
  match (a, b) with
  | Deliver (_, _, d1, _), Deliver (_, _, d2, _) -> d1 <> d2
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Release-slot computation (nanosecond domain)                        *)
(* ------------------------------------------------------------------ *)

(* A release must land strictly inside (cur, next-live-event): replay
   schedules it as a fresh event, so landing on [cur] would fire it before
   events that already fired during this build, and landing on the next
   deadline would race the timer it is supposed to precede. Schedule times
   are float microseconds; [of_us_float] truncates, so nudge until the
   encoding round-trips to the exact nanosecond. *)
let slot_for ~cur ~next =
  let cap =
    match next with Some nx -> Int64.sub nx 1L | None -> Int64.add cur 1_000L
  in
  if Int64.compare cap cur <= 0 then None
  else begin
    let step =
      let s = Int64.div (Int64.sub cap cur) 2L in
      let s = if Int64.compare s 1_000L > 0 then 1_000L else s in
      if Int64.compare s 1L < 0 then 1L else s
    in
    let rec fit cand tries =
      if tries > 8 || Int64.compare cand cap > 0 then None
      else
        let us = Int64.to_float cand /. 1000.0 in
        if Int64.equal (Engine.of_us_float us) cand then Some (us, cand)
        else fit (Int64.add cand 1L) (tries + 1)
    in
    match fit (Int64.add cur step) 0 with
    | Some r -> Some r
    | None -> fit (Int64.add cur 1L) 0
  end

(* ------------------------------------------------------------------ *)
(* Canonical state fingerprint                                         *)
(* ------------------------------------------------------------------ *)

(* Time-abstract: replica and client fingerprints exclude clocks and
   deadlines; pending engine events contribute their labels in firing
   order (which timer fires next matters; how far away it is does not);
   the held multiset is sorted. See DESIGN.md for the caveats. *)
let state_of lv horizon_ns =
  let cluster = lv.Runner.lv_cluster in
  let cfg = Cluster.config cluster in
  let b = Buffer.create 4096 in
  for i = 0 to cfg.Config.n - 1 do
    Buffer.add_string b (Replica.state_digest (Cluster.replica cluster i));
    Buffer.add_string b (Cluster.tap_digest cluster i);
    Buffer.add_char b '|'
  done;
  for k = 0 to Cluster.num_clients cluster - 1 do
    Buffer.add_string b (Client.state_digest (Cluster.client cluster k));
    Buffer.add_char b '|'
  done;
  (* canonical across links, send-order within a link: per-link order is
     observable under fifo_links, and finer-than-multiset is still sound
     when links are unordered *)
  let held_keys =
    List.stable_sort
      (fun (s1, d1, _) (s2, d2, _) -> compare (s1, d1) (s2, d2))
      (List.map
         (fun (src, dst, msg) -> (src, dst, held_key src dst msg))
         (Network.held (Cluster.network cluster)))
  in
  List.iter
    (fun (_, _, k) ->
      Buffer.add_string b k;
      Buffer.add_char b ';')
    held_keys;
  Buffer.add_char b '|';
  List.iter
    (fun (t, lbl) ->
      if Int64.compare t horizon_ns <= 0 then begin
        Buffer.add_string b (Option.value ~default:"?" lbl);
        Buffer.add_char b ';'
      end)
    (Engine.live_events (Cluster.engine cluster));
  Bft_crypto.Sha256.hexdigest (Buffer.contents b)

let views_of lv =
  let cluster = lv.Runner.lv_cluster in
  Array.init
    (Cluster.config cluster).Config.n
    (fun i ->
      let r = Cluster.replica cluster i in
      (Replica.view r, Replica.low_water_mark r))

(* ------------------------------------------------------------------ *)
(* Violations                                                          *)
(* ------------------------------------------------------------------ *)

let is_liveness_failure f = String.length f >= 9 && String.equal (String.sub f 0 9) "liveness-"

let mk_violation ~kind ~depth ~failures ~params ~sched =
  {
    v_kind = kind;
    v_failures = failures;
    v_depth = depth;
    v_schedule = sched;
    v_params = params;
    v_replay = Runner.replay_line params sched;
  }

let liveness_params c =
  { (build_params c) with Runner.check_liveness = true; view_bound = Some c.view_bound }

(* Liveness probe at a cut: replay the path, then open the gate just past
   the frontier — the network turns timely while replica faults (the
   prefix's, and any injected bug) persist, modelling the paper's
   weak-synchrony liveness condition. A run that still cannot commit the
   workload within the drain is a genuine livelock, not an artifact of the
   explorer withholding messages. *)
let probe c node =
  let release_us = Engine.to_us node.n_time +. 1.0 in
  let sched =
    base_schedule c @ node.n_trace
    @ [ { Schedule.at_us = release_us; action = Schedule.Release_all } ]
  in
  let params = liveness_params c in
  let r = Runner.run_schedule params sched in
  if Runner.failed r then
    let kind =
      if List.exists (fun f -> not (is_liveness_failure f)) r.Runner.failures then `Safety
      else `Liveness
    in
    Some
      (mk_violation ~kind ~depth:node.n_depth ~failures:r.Runner.failures ~params ~sched)
  else None

(* ------------------------------------------------------------------ *)
(* Exploration                                                         *)
(* ------------------------------------------------------------------ *)

let zero_stats () =
  {
    states_built = 0;
    states_visited = 0;
    states_expanded = 0;
    transitions = 0;
    por_pruned = 0;
    hash_pruned = 0;
    terminals = 0;
    cuts = 0;
    probes = 0;
    slot_skipped = 0;
    max_depth_seen = 0;
  }

let run ?(log = fun _ -> ()) c =
  let stats = zero_stats () in
  let horizon_ns = Engine.of_us_float c.tick_horizon_us in
  let visited : (string, choice list list) Hashtbl.t = Hashtbl.create 4096 in
  let violations = ref [] in
  let truncated = ref false in
  let stop = ref false in
  let wall0 = (Sys.time () [@lint.allow "determinism-time"]) in
  let elapsed () = (Sys.time () [@lint.allow "determinism-time"]) -. wall0 in
  (* BFS = FIFO via front/back lists, DFS = stack on front *)
  let front = ref [ { n_trace = []; n_time = 0L; n_depth = 0; n_sleep = []; n_parent = None } ]
  and back = ref [] in
  let push n = match c.strategy with Dfs -> front := n :: !front | Bfs -> back := n :: !back in
  let pop () =
    match !front with
    | n :: rest ->
        front := rest;
        Some n
    | [] -> (
        match List.rev !back with
        | [] -> None
        | n :: rest ->
            front := rest;
            back := [];
            Some n)
  in
  let record v =
    violations := v :: !violations;
    if c.stop_on_violation then stop := true
  in
  let subset s1 s2 = List.for_all (fun x -> List.mem x s2) s1 in
  let check_safety node lv =
    let r = Runner.finish lv in
    if Runner.failed r then
      record
        (mk_violation ~kind:`Safety ~depth:node.n_depth ~failures:r.Runner.failures
           ~params:(build_params c) ~sched:(base_schedule c @ node.n_trace))
  in
  let process node =
    let lv = build c node in
    stats.states_built <- stats.states_built + 1;
    if node.n_depth > stats.max_depth_seen then stats.max_depth_seen <- node.n_depth;
    if stats.states_built mod 2000 = 0 then
      log
        (Printf.sprintf "built %d states (%d distinct, %d frontier) depth<=%d"
           stats.states_built stats.states_visited
           (List.length !front + List.length !back)
           stats.max_depth_seen);
    let dg = state_of lv horizon_ns in
    let prior = Option.value ~default:[] (Hashtbl.find_opt visited dg) in
    if List.exists (fun s -> subset s node.n_sleep) prior then
      stats.hash_pruned <- stats.hash_pruned + 1
    else begin
      (* A state already visited under an incomparable sleep set must be
         re-expanded (its pruned branches may differ), but it is not a new
         distinct state: count it — and run its terminal-state checks —
         only on first visit, so [states_visited] and [terminals] are
         search-order- and POR-invariant distinct-digest counts. *)
      let first_visit = prior = [] in
      Hashtbl.replace visited dg (node.n_sleep :: prior);
      if first_visit then stats.states_visited <- stats.states_visited + 1;
      let cluster = lv.Runner.lv_cluster in
      (* monotonicity, parent against child (probes are disabled) *)
      (match node.n_parent with
      | None -> ()
      | Some pv ->
          List.iter
            (fun i ->
              let r = Cluster.replica cluster i in
              let v = Replica.view r and h = Replica.low_water_mark r in
              let pv_, ph = pv.(i) in
              if v < pv_ || h < ph then
                record
                  (mk_violation ~kind:`Safety ~depth:node.n_depth
                     ~failures:
                       [
                         Printf.sprintf
                           "monotonic-counters: replica %d regressed (view %d->%d, h %d->%d)"
                           i pv_ v ph h;
                       ]
                     ~params:(build_params c)
                     ~sched:(base_schedule c @ node.n_trace)))
            !(Cluster.correct_replicas cluster));
      let completed = !(lv.Runner.lv_n_completed) >= lv.Runner.lv_total_ops in
      let dels = deliveries ~fifo:c.fifo_links lv in
      let tick = tick_target lv horizon_ns in
      if completed && c.stop_at_completion then begin
        if first_visit then begin
          stats.terminals <- stats.terminals + 1;
          check_safety node lv
        end
      end
      else if dels = [] && tick = None then begin
        if first_visit then check_safety node lv;
        match Engine.next_live_time (Cluster.engine cluster) with
        | None ->
            (* truly stuck: no held message, no timer will ever fire *)
            if first_visit then stats.terminals <- stats.terminals + 1;
            if first_visit && not completed then
              record
                (mk_violation ~kind:`Liveness ~depth:node.n_depth
                   ~failures:
                     [
                       Printf.sprintf "liveness-progress: only %d of %d issued operations committed"
                         !(lv.Runner.lv_n_completed) lv.Runner.lv_total_ops;
                     ]
                   ~params:(liveness_params c)
                   ~sched:(base_schedule c @ node.n_trace))
        | Some _ ->
            (* only events beyond the tick horizon remain: a cut, not a
               maximal execution — ask the liveness probe *)
            if first_visit then begin
              stats.cuts <- stats.cuts + 1;
              if not completed then begin
                stats.probes <- stats.probes + 1;
                match probe c node with Some v -> record v | None -> ()
              end
            end
      end
      else if node.n_depth >= c.max_depth then begin
        truncated := true;
        if first_visit then begin
          stats.cuts <- stats.cuts + 1;
          check_safety node lv;
          if not completed then begin
            stats.probes <- stats.probes + 1;
            match probe c node with Some v -> record v | None -> ()
          end
        end
      end
      else begin
        stats.states_expanded <- stats.states_expanded + 1;
        let cur_views = views_of lv in
        let next = Engine.next_live_time (Cluster.engine cluster) in
        let choices = dels @ (match tick with Some _ -> [ Tick ] | None -> []) in
        let explored = ref [] in
        List.iter
          (fun ch ->
            if c.por && List.mem ch node.n_sleep then
              stats.por_pruned <- stats.por_pruned + 1
            else begin
              let child_sleep =
                if c.por then
                  List.filter (fun o -> independent ch o) (node.n_sleep @ !explored)
                else []
              in
              let child =
                match ch with
                | Tick -> (
                    match tick with
                    | Some t ->
                        Some
                          {
                            n_trace = node.n_trace;
                            n_time = t;
                            n_depth = node.n_depth + 1;
                            n_sleep = child_sleep;
                            n_parent = Some cur_views;
                          }
                    | None -> None)
                | Deliver (cls, src, dst, nth) -> (
                    match slot_for ~cur:node.n_time ~next with
                    | None -> None
                    | Some (at_us, at_ns) ->
                        Some
                          {
                            n_trace =
                              node.n_trace
                              @ [
                                  {
                                    Schedule.at_us;
                                    action = Schedule.Release (cls, Some src, Some dst, nth);
                                  };
                                ];
                            n_time = at_ns;
                            n_depth = node.n_depth + 1;
                            n_sleep = child_sleep;
                            n_parent = Some cur_views;
                          })
              in
              (match child with
              | Some ch' ->
                  push ch';
                  stats.transitions <- stats.transitions + 1
              | None -> stats.slot_skipped <- stats.slot_skipped + 1);
              explored := !explored @ [ ch ]
            end)
          choices
      end
    end
  in
  while not !stop do
    match pop () with
    | None -> stop := true
    | Some node ->
        if stats.states_built >= c.max_states || elapsed () > c.max_wall_s then begin
          truncated := true;
          stop := true
        end
        else process node
  done;
  {
    o_config = c;
    o_stats = stats;
    o_violations = List.rev !violations;
    o_exhausted = (!front = [] && !back = [] && not !truncated);
  }

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let stats_pairs s =
  [
    ("states_built", s.states_built);
    ("states_visited", s.states_visited);
    ("states_expanded", s.states_expanded);
    ("transitions", s.transitions);
    ("por_pruned", s.por_pruned);
    ("hash_pruned", s.hash_pruned);
    ("terminals", s.terminals);
    ("cuts", s.cuts);
    ("probes", s.probes);
    ("slot_skipped", s.slot_skipped);
    ("max_depth", s.max_depth_seen);
  ]

let pp_stats ppf s =
  Format.fprintf ppf "@[<v>";
  List.iter (fun (k, v) -> Format.fprintf ppf "%-16s %d@," k v) (stats_pairs s);
  Format.fprintf ppf "@]"

let stats_json s =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "%S:%d" k v) (stats_pairs s))
  ^ "}"
