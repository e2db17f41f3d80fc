module Engine = Bft_sim.Engine
module Network = Bft_net.Network
module Costs = Bft_net.Costs
module Keychain = Bft_crypto.Keychain
module Rng = Bft_util.Rng
module Hist = Bft_obs.Hist
open Bft_core

type arrival =
  | Closed of { think_us : float; ops_per_client : int }
  | Open of { rate_per_sec : float; total_ops : int }
  | Bursty of {
      base_per_sec : float;
      peak_per_sec : float;
      period_us : float;
      total_ops : int;
    }

type keys = Pairwise | Derived

type spec = { k : int; arrival : arrival; keys : keys }

let default_closed ~k ~ops_per_client =
  { k; arrival = Closed { think_us = 100.0; ops_per_client }; keys = Pairwise }

let total_ops spec =
  match spec.arrival with
  | Closed { ops_per_client; _ } -> spec.k * ops_per_client
  | Open { total_ops; _ } | Bursty { total_ops; _ } -> total_ops

let arrival_to_string = function
  | Closed { think_us; ops_per_client } ->
      Printf.sprintf "closed:%.0f:%d" think_us ops_per_client
  | Open { rate_per_sec; total_ops } -> Printf.sprintf "open:%.0f:%d" rate_per_sec total_ops
  | Bursty { base_per_sec; peak_per_sec; period_us; total_ops } ->
      Printf.sprintf "bursty:%.0f:%.0f:%.0f:%d" base_per_sec peak_per_sec period_us
        total_ops

let parse_arrival s =
  let num x = float_of_string_opt x and inum x = int_of_string_opt x in
  match String.split_on_char ':' s with
  | [ "closed"; think; ops ] -> (
      match (num think, inum ops) with
      | Some think_us, Some ops_per_client when think_us >= 0.0 && ops_per_client >= 0 ->
          Ok (Closed { think_us; ops_per_client })
      | _ -> Error "closed:<think_us>:<ops_per_client> expects non-negative numbers")
  | [ "open"; rate; ops ] -> (
      match (num rate, inum ops) with
      | Some rate_per_sec, Some total_ops when rate_per_sec > 0.0 && total_ops >= 0 ->
          Ok (Open { rate_per_sec; total_ops })
      | _ -> Error "open:<rate_per_sec>:<total_ops> expects a positive rate")
  | [ "bursty"; base; peak; period; ops ] -> (
      match (num base, num peak, num period, inum ops) with
      | Some base_per_sec, Some peak_per_sec, Some period_us, Some total_ops
        when base_per_sec > 0.0 && peak_per_sec >= base_per_sec && period_us > 0.0
             && total_ops >= 0 ->
          Ok (Bursty { base_per_sec; peak_per_sec; period_us; total_ops })
      | _ ->
          Error
            "bursty:<base_per_sec>:<peak_per_sec>:<period_us>:<total_ops> expects peak >= \
             base > 0")
  | _ -> Error (Printf.sprintf "unknown arrival process %S" s)

let keys_to_string = function Pairwise -> "pairwise" | Derived -> "derived"

let parse_keys = function
  | "pairwise" -> Ok Pairwise
  | "derived" -> Ok Derived
  | s -> Error (Printf.sprintf "unknown cohort key mode %S (pairwise|derived)" s)

(* Same string as the classic per-client driver used, byte for byte: the
   pairwise cohort at [k = clients] must produce identical protocol traffic
   (the pinned committed-history digests enforce it). *)
let op_for ~client_slot ~index = Printf.sprintf "put c%d.%d v%d" client_slot index index

(* Derived streams write a distinct key space so a derived cohort can
   coexist with real clients (flood slots) without KV-key collisions. *)
let op_for_derived ~stream ~index = Printf.sprintf "put d%d.%d v%d" stream index index

type flight = {
  fl_client : int;
  fl_ts : int64;
  fl_stream : int;
  fl_index : int;
  fl_op : string;
  fl_issued : Engine.time;
  fl_cert : Proxy.t; (* replies and retry count, as a real client keeps *)
  mutable fl_timer : Engine.handle option;
}

type t = {
  spec : spec;
  cluster : Cluster.t;
  engine : Engine.t;
  net : Message.envelope Network.t;
  cfg : Config.t;
  costs : Costs.t;
  on_complete : client:int -> op:string -> result:string -> unit;
  mutable completed : int;
  mutable issued : int;
  (* derived-mode state: one O(1) generator object standing in for [k]
     simulated clients. Memory is O(in-flight operations), independent of
     [k] — client identity and timestamp are synthesized from the issue
     counter, session keys are derived on demand from the group secret,
     and the whole id range shares one network node. *)
  group : Keychain.group option;
  base : int; (* first derived client id *)
  inflight : (int * int64, flight) Hashtbl.t; (* (client, timestamp) *)
  arrival_rng : Rng.t;
  mutable view_guess : int;
  mutable stream_done : stream:int -> index:int -> unit;
      (* continuation decided by the arrival process on completion *)
  lat : Hist.t; (* issue -> reply certificate, virtual us *)
}

let latency_hist t = t.lat

let replica_ids t = Config.replica_ids t.cfg
let primary t = Config.primary t.cfg ~view:t.view_guess

(* ------------------------------------------------------------------ *)
(* Pairwise mode: drive the cluster's real clients                     *)
(* ------------------------------------------------------------------ *)

(* The exact arrival discipline of the classic runner driver: stagger the
   slots 137us apart, back off 500us while the client is busy, think 100us
   (configurable) after each completion. At [k = params.clients] with the
   default think time this is event-for-event identical to the driver it
   replaced, so every pinned digest survives. *)
let drive_pairwise t ~think_us ~ops_per_client =
  let n = t.cfg.Config.n in
  let rec drive slot index =
    if index < ops_per_client then begin
      let cl = Cluster.client t.cluster slot in
      let label = Engine.Id ("drive", slot) in
      if Client.busy cl then
        ignore
          (Engine.schedule t.engine ~label ~delay:(Engine.us 500) (fun () ->
               drive slot index))
      else begin
        let op = op_for ~client_slot:slot ~index in
        t.issued <- t.issued + 1;
        Client.invoke cl ~op (fun ~result ~latency_us ->
            Hist.add t.lat latency_us;
            t.completed <- t.completed + 1;
            t.on_complete ~client:(n + slot) ~op ~result;
            ignore
              (Engine.schedule t.engine ~label ~delay:(Engine.of_us_float think_us)
                 (fun () -> drive slot (index + 1))))
      end
    end
  in
  for slot = 0 to t.spec.k - 1 do
    ignore
      (Engine.schedule t.engine
         ~label:(Engine.Id ("drive", slot))
         ~delay:(Engine.us (137 * (slot + 1)))
         (fun () -> drive slot 0))
  done

(* ------------------------------------------------------------------ *)
(* Derived mode: synthesized requests over group keys                  *)
(* ------------------------------------------------------------------ *)

(* Derived client [id] as a sealing and opening principal: group keys,
   no signatures. *)
let principal t id =
  { Seal.id; n = t.cfg.Config.n; mode = Config.Mac_auth; keys = Cohort (Option.get t.group);
    signing = None; costs = t.costs; charge = Network.charge t.net ~id }

let send_flight t fl ~to_all =
  let req =
    Message.request ~op:fl.fl_op ~timestamp:fl.fl_ts ~client:fl.fl_client ~read_only:false
      ~replier:(fl.fl_client mod t.cfg.Config.n)
  in
  let env =
    Seal.seal (principal t fl.fl_client) ~corrupt:false ~dsts:(replica_ids t)
      (Message.no_cache ()) (Request req)
  in
  let size = Wire.envelope_size env in
  if to_all then Network.multicast t.net ~src:fl.fl_client ~dsts:(replica_ids t) ~size env
  else Network.send t.net ~src:fl.fl_client ~dst:(primary t) ~size env

let rec arm_timer t fl =
  (* [srtt_us:0.]: a cohort keeps no per-client state, so there is no
     response-time estimate and the configured floor is the base *)
  let delay = Proxy.retry_delay t.cfg ~srtt_us:0. ~retries:(Proxy.retries fl.fl_cert) in
  fl.fl_timer <-
    Some
      (Engine.schedule t.engine ~label:(Engine.Name "cohretx") ~delay:(Engine.of_us_float delay)
         (fun () ->
           fl.fl_timer <- None;
           if Hashtbl.mem t.inflight (fl.fl_client, fl.fl_ts) then begin
             ignore (Proxy.retry fl.fl_cert);
             send_flight t fl ~to_all:true;
             arm_timer t fl
           end))

let complete t fl result =
  (match fl.fl_timer with Some h -> Engine.cancel h | None -> ());
  Hashtbl.remove t.inflight (fl.fl_client, fl.fl_ts);
  Hist.add t.lat (Engine.to_us (Engine.now t.engine) -. Engine.to_us fl.fl_issued);
  t.completed <- t.completed + 1;
  t.on_complete ~client:fl.fl_client ~op:fl.fl_op ~result;
  t.stream_done ~stream:fl.fl_stream ~index:fl.fl_index

let handle_reply t dst (env : Message.envelope) =
  match env.body with
  | Reply rp when rp.rp_client = dst -> (
      match Hashtbl.find_opt t.inflight (rp.rp_client, rp.rp_timestamp) with
      | None -> ()
      | Some fl ->
          let verify () = Seal.authentic (principal t dst) env in
          if Proxy.accept fl.fl_cert t.net ~id:dst ~verify rp then begin
            t.view_guess <- Proxy.note_view fl.fl_cert ~guess:t.view_guess rp.rp_view;
            match Proxy.result fl.fl_cert t.cfg ~read_only:false with
            | Some result -> complete t fl result
            | None -> ()
          end)
  | _ -> ()

(* Issue the operation for (stream, index): client id and timestamp are
   synthesized from the pair, so no per-client state exists anywhere. *)
let issue_derived t ~stream ~index =
  let client = t.base + stream in
  let ts = Int64.of_int (index + 1) in
  let fl =
    {
      fl_client = client;
      fl_ts = ts;
      fl_stream = stream;
      fl_index = index;
      fl_op = op_for_derived ~stream ~index;
      fl_issued = Engine.now t.engine;
      fl_cert = Proxy.create t.cfg;
      fl_timer = None;
    }
  in
  Hashtbl.replace t.inflight (client, ts) fl;
  t.issued <- t.issued + 1;
  send_flight t fl ~to_all:false;
  arm_timer t fl

(* Closed-loop derived: [k] streams, each re-issuing [think_us] after its
   previous operation completes. *)
let drive_derived_closed t ~think_us ~ops_per_client =
  t.stream_done <-
    (fun ~stream ~index ->
      if index + 1 < ops_per_client then
        ignore
          (Engine.schedule t.engine ~label:(Engine.Name "cohthink")
             ~delay:(Engine.of_us_float think_us)
             (fun () -> issue_derived t ~stream ~index:(index + 1))));
  if ops_per_client > 0 then
    for stream = 0 to t.spec.k - 1 do
      ignore
        (Engine.schedule t.engine ~label:(Engine.Name "cohstart")
           ~delay:(Engine.us (137 * (stream + 1)))
           (fun () -> issue_derived t ~stream ~index:0))
    done

(* Open-loop (Poisson) and bursty/diurnal arrivals: one recurring event
   draws the next interarrival gap; issue [i] maps to stream [i mod k],
   per-stream operation index [i / k] — timestamps stay strictly
   increasing per synthesized client. *)
let drive_derived_open t ~total_ops ~rate_at =
  let rec tick () =
    if t.issued < total_ops then begin
      let i = t.issued in
      issue_derived t ~stream:(i mod t.spec.k) ~index:(i / t.spec.k);
      if t.issued < total_ops then begin
        let rate = Float.max 1e-3 (rate_at (Engine.to_us (Engine.now t.engine))) in
        let gap_us = Rng.exponential t.arrival_rng (1_000_000.0 /. rate) in
        ignore
          (Engine.schedule t.engine ~label:(Engine.Name "coharrive")
             ~delay:(Engine.of_us_float gap_us)
             tick)
      end
    end
  in
  if total_ops > 0 then begin
    let rate0 = Float.max 1e-3 (rate_at 0.0) in
    let gap_us = Rng.exponential t.arrival_rng (1_000_000.0 /. rate0) in
    ignore
      (Engine.schedule t.engine ~label:(Engine.Name "coharrive")
         ~delay:(Engine.of_us_float gap_us) tick)
  end

(* ------------------------------------------------------------------ *)
(* Setup                                                               *)
(* ------------------------------------------------------------------ *)

let mix_seed seed = Int64.add (Int64.mul 2_000_033L (Int64.of_int seed)) 71L

let drive ~seed cluster spec ~on_complete =
  if spec.k < 1 then invalid_arg "Cohort.drive: k must be >= 1";
  let cfg = Cluster.config cluster in
  let net = Cluster.network cluster in
  (match spec.keys with
  | Pairwise ->
      if spec.k > Cluster.num_clients cluster then
        invalid_arg "Cohort.drive: pairwise cohort needs k real clients";
      (match spec.arrival with
      | Closed _ -> ()
      | Open _ | Bursty _ ->
          invalid_arg
            "Cohort.drive: open-loop arrivals need derived keys (a real client admits \
             one outstanding request)")
  | Derived ->
      if cfg.Config.auth_mode <> Config.Mac_auth then
        invalid_arg "Cohort.drive: derived cohorts require Mac_auth");
  let base = cfg.Config.n + Cluster.num_clients cluster in
  let t =
    {
      spec;
      cluster;
      engine = Cluster.engine cluster;
      net;
      cfg;
      costs = Network.costs net;
      on_complete;
      completed = 0;
      issued = 0;
      group =
        (match spec.keys with
        | Pairwise -> None
        | Derived ->
            let grng = Rng.create (mix_seed seed) in
            Some
              (Keychain.group ~first:base ~last:(base + spec.k - 1)
                 ~secret:(Rng.bytes grng 32)));
      base;
      inflight = Hashtbl.create 64;
      arrival_rng = Rng.create (Int64.add (mix_seed seed) 9176L);
      view_guess = 0;
      stream_done = (fun ~stream:_ ~index:_ -> ());
      lat = Hist.create ();
    }
  in
  (match t.group with
  | None -> ()
  | Some g ->
      (* replicas derive the cohort's session keys on demand; the whole id
         range shares one network node record, whose CPU aggregates the k
         clients' CPUs *)
      Array.iter (fun r -> Keychain.set_group (Replica.keychain r) g) (Cluster.replicas cluster);
      Network.add_node_range net ~first:base ~last:(base + spec.k - 1)
        ~handler:(fun dst env -> handle_reply t dst env));
  (match spec.arrival with
  | Closed { think_us; ops_per_client } -> (
      match spec.keys with
      | Pairwise -> drive_pairwise t ~think_us ~ops_per_client
      | Derived -> drive_derived_closed t ~think_us ~ops_per_client)
  | Open { rate_per_sec; total_ops } ->
      drive_derived_open t ~total_ops ~rate_at:(fun _ -> rate_per_sec)
  | Bursty { base_per_sec; peak_per_sec; period_us; total_ops } ->
      (* diurnal sinusoid between base and peak over one period *)
      drive_derived_open t ~total_ops ~rate_at:(fun now_us ->
          base_per_sec
          +. (peak_per_sec -. base_per_sec)
             *. (1.0 -. Float.cos (2.0 *. Float.pi *. now_us /. period_us))
             /. 2.0));
  t
