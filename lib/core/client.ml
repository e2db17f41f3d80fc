module Engine = Bft_sim.Engine
module Network = Bft_net.Network
module Obs = Bft_obs.Obs
open Message

type deps = {
  cfg : Config.t;
  net : Message.envelope Network.t;
  registry : Bft_crypto.Signature.registry;
  keychain : Bft_crypto.Keychain.t;
  signer : Bft_crypto.Signature.signer;
  rng : Bft_util.Rng.t;
}

type pending = {
  p_req : request;
  p_started : Engine.time;
  p_cert : Proxy.t; (* replies and retry count *)
  p_callback : result:string -> latency_us:float -> unit;
  mutable p_timer : Engine.handle option;
  mutable p_broadcast : bool; (* already retransmitted to all replicas *)
  mutable p_promoted : bool; (* read-only retried as a regular request *)
}

type t = {
  d : deps;
  id : int;
  obs : Obs.t;
  engine : Engine.t;
  seal : Seal.t; (* every token it makes and checks *)
  mutable view_guess : int;
  mutable last_timestamp : int64;
  mutable pending : pending option;
  mutable next_replier : int;
  mutable completed : int;
  mutable retransmissions : int;
  mutable byz_partial : bool;
  (* smoothed response time for adaptive retransmission (Section 5.2) *)
  mutable srtt_us : float;
  (* open-loop flooding (misbehaving-client attack profile) *)
  mutable flood_timer : Engine.handle option;
}

let id t = t.id
let busy t = t.pending <> None
let completed t = t.completed
let retransmissions t = t.retransmissions
let srtt_us t = t.srtt_us

let pending_retries t =
  match t.pending with Some p -> Some (Proxy.retries p.p_cert) | None -> None
let byzantine_partial_auth t b = t.byz_partial <- b
let replica_ids t = Config.replica_ids t.d.cfg
let primary t = Config.primary t.d.cfg ~view:t.view_guess

(* the client's token is an authenticator over every replica (or its
   signature): relays keep it intact, and any replica may check it *)
let send_request t req ~to_all =
  let env =
    Seal.seal t.seal ~corrupt:t.byz_partial ~dsts:(replica_ids t) (Message.no_cache ())
      (Request req)
  in
  let size = Wire.envelope_size env in
  if to_all then Network.multicast t.d.net ~src:t.id ~dsts:(replica_ids t) ~size env
  else Network.send t.d.net ~src:t.id ~dst:(primary t) ~size env

let rec arm_timer t p =
  let delay = Proxy.retry_delay t.d.cfg ~srtt_us:t.srtt_us ~retries:(Proxy.retries p.p_cert) in
  p.p_timer <-
    Some
      (Engine.schedule t.engine
         ~label:(Engine.Id ("cretx", t.id))
         ~delay:(Engine.of_us_float delay) (fun () ->
           p.p_timer <- None;
           if (match t.pending with Some p' -> p' == p | None -> false) then begin
             t.retransmissions <- t.retransmissions + 1;
             let retries = Proxy.retry p.p_cert in
             p.p_broadcast <- true;
             (* a read-only request that keeps failing is retried as a
                regular request (Section 5.1.3); replies to the read-only
                version are void at that point, but on an ordinary
                retransmission matching replies already collected for this
                timestamp stay valid and are kept *)
             if p.p_req.read_only && (not p.p_promoted) && retries >= 2 then begin
               p.p_promoted <- true;
               Proxy.clear p.p_cert
             end;
             let req =
               if p.p_promoted then
                 Message.request ~op:p.p_req.op ~timestamp:p.p_req.timestamp
                   ~client:p.p_req.client ~read_only:false ~replier:p.p_req.replier
               else p.p_req
             in
             if Obs.enabled t.obs then
               Obs.client_retransmit t.obs ~now:(Engine.now t.engine)
                 ~timestamp:p.p_req.timestamp ~retries ~delay_us:delay;
             send_request t req ~to_all:true;
             arm_timer t p
           end))

let complete t p result =
  (match p.p_timer with Some h -> Engine.cancel h | None -> ());
  t.pending <- None;
  t.completed <- t.completed + 1;
  let latency = Engine.to_us (Int64.sub (Engine.now t.engine) p.p_started) in
  (* clamp each sample to [srtt/4, 4*srtt]: one outlier reply (the
     first after a view change, or a locally-served read) must not
     collapse or blow up the smoothed RTT — a collapsed SRTT makes the
     adaptive timeout fire before genuine replies can arrive and the
     client thrashes with broadcast retransmissions *)
  let sample =
    if t.srtt_us > 0.0 then
      Float.min (4.0 *. t.srtt_us) (Float.max (0.25 *. t.srtt_us) latency)
    else latency
  in
  t.srtt_us <-
    (if t.srtt_us = 0.0 then sample else (0.8 *. t.srtt_us) +. (0.2 *. sample));
  if Obs.enabled t.obs then
    Obs.client_complete t.obs ~now:(Engine.now t.engine)
      ~timestamp:p.p_req.timestamp ~latency_us:latency;
  p.p_callback ~result ~latency_us:latency

let handle t (env : envelope) =
  match env.body with
  (* a recovering replica re-keys us (Section 4.3.2) *)
  | New_key nk -> if Seal.authentic t.seal env then Seal.install_key t.seal nk
  | Reply rp when rp.rp_client = t.id -> (
      match t.pending with
      | Some p when Int64.equal rp.rp_timestamp p.p_req.timestamp ->
          let verify () = Seal.authentic t.seal env in
          if Proxy.accept p.p_cert t.d.net ~id:t.id ~verify rp then begin
            t.view_guess <- Proxy.note_view p.p_cert ~guess:t.view_guess rp.rp_view;
            let read_only = p.p_req.read_only && not p.p_promoted in
            match Proxy.result p.p_cert t.d.cfg ~read_only with
            | Some result -> complete t p result
            | None -> ()
          end
      | _ -> ())
  | _ -> ()

let create ?(obs = Obs.null) d ~id =
  let t =
    {
      d;
      id;
      obs;
      engine = Network.engine d.net;
      seal =
        { Seal.id; n = d.cfg.Config.n; mode = d.cfg.Config.auth_mode; keys = Endpoint d.keychain;
          signing = Some (d.registry, d.signer); costs = Network.costs d.net;
          charge = Network.charge d.net ~id };
      view_guess = 0;
      last_timestamp = 0L;
      pending = None;
      next_replier = id mod d.cfg.Config.n;
      completed = 0;
      retransmissions = 0;
      byz_partial = false;
      srtt_us = 0.0;
      flood_timer = None;
    }
  in
  Network.add_node d.net ~id ~handler:(fun env -> handle t env);
  t

(* Open-loop flooding (the client_flood attack profile): send a fresh
   authenticated request to every replica each interval, never waiting for
   replies. The requests are well-formed and verify, so replicas cannot
   reject them cheaply — admission control must bound them. Ops carry the
   client id and a strictly increasing timestamp, so they are unique and
   keep the at-most-once / linearizability oracles valid. *)
let rec flood_tick t interval_us =
  t.flood_timer <-
    Some
      (Engine.schedule t.engine
         ~label:(Engine.Id ("flood", t.id))
         ~delay:(Engine.of_us_float interval_us)
         (fun () ->
           match t.flood_timer with
           | None -> ()
           | Some _ ->
               t.last_timestamp <- Int64.add t.last_timestamp 1L;
               let req =
                 Message.request
                   ~op:(Printf.sprintf "flood c%d.%Ld" t.id t.last_timestamp)
                   ~timestamp:t.last_timestamp ~client:t.id ~read_only:false
                   ~replier:(t.id mod t.d.cfg.Config.n)
               in
               send_request t req ~to_all:true;
               flood_tick t interval_us))

let flood t ~interval_us =
  if interval_us <= 0.0 then invalid_arg "Client.flood: interval must be positive";
  match t.flood_timer with Some _ -> () | None -> flood_tick t interval_us

let flood_stop t =
  match t.flood_timer with
  | Some h ->
      Engine.cancel h;
      t.flood_timer <- None
  | None -> ()

let invoke t ?(read_only = false) ~op callback =
  if t.pending <> None then invalid_arg "Client.invoke: request already outstanding";
  t.last_timestamp <- Int64.add t.last_timestamp 1L;
  let replier = t.next_replier in
  t.next_replier <- (t.next_replier + 1) mod t.d.cfg.Config.n;
  let req =
    Message.request ~op ~timestamp:t.last_timestamp ~client:t.id ~read_only ~replier
  in
  let p =
    {
      p_req = req;
      p_started = Engine.now t.engine;
      p_cert = Proxy.create t.d.cfg;
      p_callback = callback;
      p_timer = None;
      p_broadcast = false;
      p_promoted = false;
    }
  in
  t.pending <- Some p;
  (* large requests and read-only requests go to all replicas directly
     (Sections 5.1.5 and 5.1.3) *)
  let to_all =
    req.read_only || String.length op > t.d.cfg.Config.separate_tx_threshold
  in
  send_request t req ~to_all;
  arm_timer t p

(* Canonical, time-abstract fingerprint for the exhaustive explorer: the
   request in flight, replies collected so far (in replica order), and the
   completion count. Clock-derived values (start time, smoothed RTT) and
   retry counters that only stretch future timeouts are excluded — the
   explorer abstracts timer durations away. *)
let state_digest t =
  let b = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "c%d vg=%d ts=%Ld done=%d nr=%d|" t.id t.view_guess t.last_timestamp t.completed
    t.next_replier;
  (match t.pending with
  | None -> add "idle"
  | Some p ->
      add "req=%s ts=%Ld ro=%b repl=%d bcast=%b promo=%b timer=%b(" p.p_req.op
        p.p_req.timestamp p.p_req.read_only p.p_req.replier p.p_broadcast p.p_promoted
        (match p.p_timer with Some h -> Engine.is_pending h | None -> false);
      Proxy.render b p.p_cert;
      add ")");
  Bft_crypto.Sha256.hexdigest (Buffer.contents b)
