module Engine = Bft_sim.Engine

type stat = {
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable bytes_sent : int;
}

type 'msg node = {
  mutable handler : 'msg -> unit;
  mutable busy_until : Engine.time;
  mutable crashed : bool;
  (* messages that arrived while the CPU was busy, FIFO *)
  backlog : (int * 'msg) Queue.t;
  mutable draining : bool;
  mutable backlog_hwm : int; (* deepest backlog ever observed *)
  (* multiplier on every CPU charge at this node; 1.0 is a correct node (1/s
     for a range of s ids), larger is slow-but-correct (adversary profiles) *)
  mutable cpu_factor : float;
  (* set when this record backs a whole id range ({!add_node_range}): one
     shared CPU/backlog stands in for k virtual nodes, and delivery passes
     the concrete destination id to the handler *)
  range_handler : (int -> 'msg -> unit) option;
}

type 'msg t = {
  engine : Engine.t;
  costs : Costs.t;
  rng : Bft_util.Rng.t;
  (* explicitly added nodes, indexed by id ([None] where no node was
     added); ids here are the dense replica and client ids *)
  mutable nodes : 'msg node option array;
  stat : stat;
  mutable loss_rate : float;
  mutable dup_rate : float;
  mutable jitter_us : float;
  mutable partition : (int list * int list) option;
  (* directional per-link loss rates, layered on top of the global rate *)
  link_loss : (int * int, float) Hashtbl.t;
  mutable adversary :
    (src:int -> dst:int -> 'msg -> [ `Pass | `Drop | `Delay of float ]) option;
  (* delivery gate: while set, messages that survive the adversary and loss
     are appended here (FIFO) instead of being put on the wire; the
     explorer releases them one at a time to enumerate delivery orders *)
  mutable gate : bool;
  mutable held : (int * int * int * 'msg) list; (* (src, dst, size, msg), oldest first *)
  (* id ranges backed by a single shared node record, consulted when an id
     misses [nodes]; kept short (one entry per cohort) *)
  mutable ranges : (int * int * 'msg node) list;
}

let create ~engine ~costs ~rng () =
  {
    engine;
    costs;
    rng;
    nodes = [||];
    stat = { sent = 0; delivered = 0; dropped = 0; duplicated = 0; bytes_sent = 0 };
    loss_rate = 0.0;
    dup_rate = 0.0;
    jitter_us = costs.Costs.jitter_us;
    partition = None;
    link_loss = Hashtbl.create 8;
    adversary = None;
    gate = false;
    held = [];
    ranges = [];
  }

let engine t = t.engine
let costs t = t.costs
let stats t = t.stat

let added t id = if id >= 0 && id < Array.length t.nodes then t.nodes.(id) else None

let node t id =
  match added t id with
  | Some n -> n
  | None ->
      let rec scan = function
        | [] -> invalid_arg (Printf.sprintf "Network: unknown node %d" id)
        | (first, last, n) :: rest -> if id >= first && id <= last then n else scan rest
      in
      scan t.ranges

let add_node t ~id ~handler =
  if id < 0 then invalid_arg (Printf.sprintf "Network.add_node: negative id %d" id);
  if Option.is_some (added t id) then
    invalid_arg (Printf.sprintf "Network.add_node: duplicate id %d" id);
  let len = Array.length t.nodes in
  if id >= len then begin
    let grown = Array.make (max (id + 1) (2 * len)) None in
    Array.blit t.nodes 0 grown 0 len;
    t.nodes <- grown
  end;
  let n =
    {
      handler;
      busy_until = 0L;
      crashed = false;
      backlog = Queue.create ();
      draining = false;
      backlog_hwm = 0;
      cpu_factor = 1.0;
      range_handler = None;
    }
  in
  t.nodes.(id) <- Some n

let added_between t ~first ~last =
  let last = min last (Array.length t.nodes - 1) in
  let rec go id = id <= last && (Option.is_some t.nodes.(id) || go (id + 1)) in
  go (max first 0)

(* one CPU per id: a charge at a range of s ids costs 1/s *)
let range_factor ~first ~last = 1.0 /. float_of_int (last - first + 1)

let add_node_range t ~first ~last ~handler =
  if first > last then invalid_arg "Network.add_node_range: empty range";
  if
    List.exists (fun (f, l, _) -> first <= l && last >= f) t.ranges
    || added_between t ~first ~last
  then invalid_arg "Network.add_node_range: overlapping ids";
  let n =
    {
      handler = ignore;
      busy_until = 0L;
      crashed = false;
      backlog = Queue.create ();
      draining = false;
      backlog_hwm = 0;
      cpu_factor = range_factor ~first ~last;
      range_handler = Some handler;
    }
  in
  t.ranges <- (first, last, n) :: t.ranges

let charge t ~id us =
  let n = node t id in
  let now = Engine.now t.engine in
  let base = if Int64.compare n.busy_until now > 0 then n.busy_until else now in
  n.busy_until <- Int64.add base (Engine.of_us_float (us *. n.cpu_factor))

let set_cpu_factor t ~id f =
  if f <= 0.0 then invalid_arg "Network.set_cpu_factor: factor must be positive";
  (node t id).cpu_factor <- f

let busy_until t ~id = (node t id).busy_until
let backlog t ~id = Queue.length (node t id).backlog
let backlog_hwm t ~id = (node t id).backlog_hwm

let partitioned t a b =
  match t.partition with
  | None -> false
  | Some (g1, g2) ->
      (List.mem a g1 && List.mem b g2) || (List.mem a g2 && List.mem b g1)

(* Deliver [msg] to [dst]: wait for the wire, then for the destination CPU
   to be free, charge receive cost, and invoke the handler. Arrivals while
   the CPU is busy enter a FIFO backlog drained by a single scheduled event
   (a single-server queue with O(1) events per message). *)
let process t ~dst n ~size msg =
  let now = Engine.now t.engine in
  let cost = Costs.recv_cpu_us t.costs size *. n.cpu_factor in
  n.busy_until <- Int64.add now (Engine.of_us_float cost);
  t.stat.delivered <- t.stat.delivered + 1;
  match n.range_handler with Some h -> h dst msg | None -> n.handler msg

let rec drain t ~dst =
  let n = node t dst in
  if n.crashed then begin
    Queue.clear n.backlog;
    n.draining <- false
  end
  else begin
    let now = Engine.now t.engine in
    if Int64.compare n.busy_until now > 0 then
      ignore
        (Engine.schedule_at t.engine
           ~label:(Engine.Id ("drain", dst))
           n.busy_until
           (fun () -> drain t ~dst))
    else
      match Queue.take_opt n.backlog with
      | None -> n.draining <- false
      | Some (size, msg) ->
          process t ~dst n ~size msg;
          if Queue.is_empty n.backlog then n.draining <- false
          else if Int64.compare n.busy_until now > 0 then
            ignore
              (Engine.schedule_at t.engine
                 ~label:(Engine.Id ("drain", dst))
                 n.busy_until
                 (fun () -> drain t ~dst))
          else
            ignore
              (Engine.schedule_at t.engine
                 ~label:(Engine.Id ("drain", dst))
                 now
                 (fun () -> drain t ~dst))
  end

let deliver t ~dst ~size msg =
  let n = node t dst in
  if not n.crashed then begin
    let now = Engine.now t.engine in
    if n.draining || Int64.compare n.busy_until now > 0 then begin
      Queue.add (size, msg) n.backlog;
      let depth = Queue.length n.backlog in
      if depth > n.backlog_hwm then n.backlog_hwm <- depth;
      if not n.draining then begin
        n.draining <- true;
        ignore
          (Engine.schedule_at t.engine
             ~label:(Engine.Id ("drain", dst))
             n.busy_until
             (fun () -> drain t ~dst))
      end
    end
    else process t ~dst n ~size msg
  end

let transmit t ~src ~dst ~size ~depart msg =
  let n_dst = node t dst in
  if n_dst.crashed || partitioned t src dst then t.stat.dropped <- t.stat.dropped + 1
  else begin
    let verdict =
      match t.adversary with
      | None -> `Pass
      | Some f -> f ~src ~dst msg
    in
    match verdict with
    | `Drop -> t.stat.dropped <- t.stat.dropped + 1
    | (`Pass | `Delay _) as v ->
        let link_rate =
          if Hashtbl.length t.link_loss = 0 then 0.0
          else Option.value ~default:0.0 (Hashtbl.find_opt t.link_loss (src, dst))
        in
        if
          Bft_util.Rng.bernoulli t.rng t.loss_rate
          || (link_rate > 0.0 && Bft_util.Rng.bernoulli t.rng link_rate)
        then t.stat.dropped <- t.stat.dropped + 1
        else begin
          let extra = match v with `Delay us -> us | `Pass -> 0.0 in
          let jitter =
            if t.jitter_us > 0.0 then Bft_util.Rng.float t.rng t.jitter_us else 0.0
          in
          let wire = Costs.wire_us t.costs size +. jitter +. extra in
          let arrival = Int64.add depart (Engine.of_us_float wire) in
          if t.gate then t.held <- t.held @ [ (src, dst, size, msg) ]
          else
            ignore
              (Engine.schedule_at t.engine
                 ~label:(Engine.Link ("wire", src, dst))
                 arrival
                 (fun () -> deliver t ~dst ~size msg));
          if Bft_util.Rng.bernoulli t.rng t.dup_rate then begin
            t.stat.duplicated <- t.stat.duplicated + 1;
            let extra_delay = Bft_util.Rng.float t.rng (2.0 *. t.costs.Costs.wire_latency_us) in
            let arrival2 = Int64.add arrival (Engine.of_us_float extra_delay) in
            if t.gate then t.held <- t.held @ [ (src, dst, size, msg) ]
            else
              ignore
                (Engine.schedule_at t.engine
                   ~label:(Engine.Link ("wire", src, dst))
                   arrival2
                   (fun () -> deliver t ~dst ~size msg))
          end
        end
  end

let departure t ~src ~size =
  let n = node t src in
  let now = Engine.now t.engine in
  let base = if Int64.compare n.busy_until now > 0 then n.busy_until else now in
  let depart =
    Int64.add base (Engine.of_us_float (Costs.send_cpu_us t.costs size *. n.cpu_factor))
  in
  n.busy_until <- depart;
  depart

let send t ~src ~dst ~size msg =
  let n_src = node t src in
  if not n_src.crashed then begin
    t.stat.sent <- t.stat.sent + 1;
    t.stat.bytes_sent <- t.stat.bytes_sent + size;
    let depart = departure t ~src ~size in
    transmit t ~src ~dst ~size ~depart msg
  end

let multicast t ~src ~dsts ~size msg =
  let n_src = node t src in
  if not n_src.crashed then begin
    t.stat.sent <- t.stat.sent + 1;
    t.stat.bytes_sent <- t.stat.bytes_sent + size;
    let depart = departure t ~src ~size in
    List.iter
      (fun dst ->
        if dst = src then
          (* loopback: no wire, deliver as soon as the CPU is free *)
          ignore
            (Engine.schedule_at t.engine
               ~label:(Engine.Id ("loop", dst))
               depart
               (fun () -> deliver t ~dst ~size msg))
        else transmit t ~src ~dst ~size ~depart msg)
      dsts
  end

let set_loss_rate t p = t.loss_rate <- p
let set_dup_rate t p = t.dup_rate <- p
let set_jitter_us t j = t.jitter_us <- j
let partition t g1 g2 = t.partition <- Some (g1, g2)
let heal t = t.partition <- None

let crash t ~id = (node t id).crashed <- true

let restart t ~id =
  let n = node t id in
  n.crashed <- false;
  Queue.clear n.backlog;
  n.draining <- false;
  n.busy_until <- Engine.now t.engine

let is_crashed t ~id = (node t id).crashed
let set_link_loss t ~src ~dst p =
  if p <= 0.0 then Hashtbl.remove t.link_loss (src, dst)
  else Hashtbl.replace t.link_loss (src, dst) p

let set_adversary t f = t.adversary <- Some f
let clear_adversary t = t.adversary <- None

(* --- delivery gate (exhaustive exploration, PR 6) --- *)

let set_gate t on = t.gate <- on
let held t = List.map (fun (src, dst, _, msg) -> (src, dst, msg)) t.held

let release_held t ~nth ~pred =
  let rec go seen acc = function
    | [] -> None
    | ((src, dst, size, msg) as h) :: rest ->
        if pred ~src ~dst msg then
          if seen = nth then Some ((dst, size, msg), List.rev_append acc rest)
          else go (seen + 1) (h :: acc) rest
        else go seen (h :: acc) rest
  in
  match go 0 [] t.held with
  | None -> false
  | Some ((dst, size, msg), rest) ->
      t.held <- rest;
      deliver t ~dst ~size msg;
      true

let release_all_held t =
  t.gate <- false;
  (* delivering can trigger sends; with the gate now open they flow
     normally, so the loop below only walks the snapshot taken here *)
  let rec drain_held () =
    match t.held with
    | [] -> ()
    | (_, dst, size, msg) :: rest ->
        t.held <- rest;
        deliver t ~dst ~size msg;
        drain_held ()
  in
  drain_held ()

let reset_faults t =
  t.loss_rate <- 0.0;
  t.dup_rate <- 0.0;
  t.jitter_us <- t.costs.Costs.jitter_us;
  t.partition <- None;
  t.adversary <- None;
  Hashtbl.reset t.link_loss;
  Array.iteri
    (fun id -> function
      | Some n ->
          n.cpu_factor <- 1.0;
          if n.crashed then restart t ~id
      | None -> ())
    t.nodes;
  List.iter
    (fun (first, last, n) ->
      n.cpu_factor <- range_factor ~first ~last;
      if n.crashed then restart t ~id:first)
    t.ranges;
  if t.gate || t.held <> [] then release_all_held t
