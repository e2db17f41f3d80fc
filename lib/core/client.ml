module Engine = Bft_sim.Engine
module Network = Bft_net.Network
module Costs = Bft_net.Costs
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

(* Per-replica reply record: tentative flag, result digest, full result if
   it carried one. *)
type reply_info = { ri_tentative : bool; ri_digest : string; ri_full : string option }

type pending = {
  p_req : request;
  p_started : Engine.time;
  p_replies : (int, reply_info) Hashtbl.t;
  p_callback : result:string -> latency_us:float -> unit;
  mutable p_timer : Engine.handle option;
  mutable p_retries : int;
  mutable p_broadcast : bool; (* already retransmitted to all replicas *)
  mutable p_promoted : bool; (* read-only retried as a regular request *)
}

type t = {
  d : deps;
  id : int;
  obs : Obs.t;
  engine : Engine.t;
  costs : Costs.t;
  (* allocate-once wire buffer for this client's outgoing request encodes *)
  arena : Bft_net.Wire_arena.t;
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
  match t.pending with Some p -> Some p.p_retries | None -> None
let byzantine_partial_auth t b = t.byz_partial <- b
let charge t us = Network.charge t.d.net ~id:t.id us
let replica_ids t = Config.replica_ids t.d.cfg
let primary t = Config.primary t.d.cfg ~view:t.view_guess

(* encode once: the request bytes under the token are the same string the
   envelope carries and every replica verifies *)
let request_token t enc req =
  let bytes = Wire.cached_encode ~arena:t.arena enc (Request req) in
  match t.d.cfg.Config.auth_mode with
  | Config.Sig_auth ->
      charge t t.costs.Costs.sig_gen_us;
      Auth_sig (Bft_crypto.Signature.sign t.d.signer bytes)
  | Config.Mac_auth ->
      charge t (Costs.auth_gen_us t.costs t.d.cfg.Config.n);
      let auth =
        Bft_crypto.Auth.compute_authenticator t.d.keychain ~receivers:(replica_ids t) bytes
      in
      let auth =
        if t.byz_partial then
          (* corrupt the MACs for odd-numbered replicas *)
          List.fold_left
            (fun a peer -> if peer mod 2 = 1 then Bft_crypto.Auth.corrupt_entry a peer else a)
            auth (replica_ids t)
        else auth
      in
      Auth_vector auth

let send_request t req ~to_all =
  let enc = Message.no_cache () in
  let token = request_token t enc req in
  let env = { sender = t.id; body = Request req; auth = token; enc } in
  let size = Wire.envelope_size env in
  if to_all then Network.multicast t.d.net ~src:t.id ~dsts:(replica_ids t) ~size env
  else Network.send t.d.net ~src:t.id ~dst:(primary t) ~size env

let rec arm_timer t p =
  (* adaptive timeout: a multiple of the smoothed measured response time,
     floored by the configured minimum, with exponential backoff capped at
     [client_retry_max_us] (an uncapped 2^retries overflows to infinity and
     the client stops retrying forever) *)
  let base = Float.max t.d.cfg.Config.client_retry_us (3.0 *. t.srtt_us) in
  let expo = 2.0 ** float_of_int (min p.p_retries 30) in
  let delay = Float.min (base *. expo) t.d.cfg.Config.client_retry_max_us in
  p.p_timer <-
    Some
      (Engine.schedule t.engine
         ~label:(Engine.Id ("cretx", t.id))
         ~delay:(Engine.of_us_float delay) (fun () ->
           p.p_timer <- None;
           if (match t.pending with Some p' -> p' == p | None -> false) then begin
             t.retransmissions <- t.retransmissions + 1;
             p.p_retries <- p.p_retries + 1;
             p.p_broadcast <- true;
             (* a read-only request that keeps failing is retried as a
                regular request (Section 5.1.3); replies to the read-only
                version are void at that point, but on an ordinary
                retransmission matching replies already collected for this
                timestamp stay valid and are kept *)
             if p.p_req.read_only && (not p.p_promoted) && p.p_retries >= 2 then begin
               p.p_promoted <- true;
               Hashtbl.reset p.p_replies
             end;
             let req =
               if p.p_promoted then
                 Message.request ~op:p.p_req.op ~timestamp:p.p_req.timestamp
                   ~client:p.p_req.client ~read_only:false ~replier:p.p_req.replier
               else p.p_req
             in
             if Obs.enabled t.obs then
               Obs.client_retransmit t.obs ~now:(Engine.now t.engine)
                 ~timestamp:p.p_req.timestamp ~retries:p.p_retries ~delay_us:delay;
             send_request t req ~to_all:true;
             arm_timer t p
           end))

let try_complete t p =
  (* group matching replies by result digest *)
  let groups = Hashtbl.create 4 in
  Hashtbl.iter
    (fun replica ri ->
      let total, nontent, full =
        match Hashtbl.find_opt groups ri.ri_digest with
        | Some (a, b, f) -> (a, b, f)
        | None -> (0, 0, None)
      in
      ignore replica;
      let full = match (full, ri.ri_full) with Some f, _ -> Some f | None, f -> f in
      Hashtbl.replace groups ri.ri_digest
        (total + 1, (if ri.ri_tentative then nontent else nontent + 1), full))
    p.p_replies;
  let cfg = t.d.cfg in
  let needed_weak = Config.weak cfg and needed_quorum = Config.quorum cfg in
  let winner = ref None in
  Hashtbl.iter
    (fun _d (total, nontent, full) ->
      match full with
      | Some result ->
          let ok =
            if p.p_req.read_only && not p.p_promoted then total >= needed_quorum
            else nontent >= needed_weak || total >= needed_quorum
          in
          if ok then winner := Some result
      | None -> ())
    groups;
  match !winner with
  | Some result ->
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
  | None -> ()

(* A verified reply from a later view means a new primary is in charge:
   besides bumping the view guess, reset the in-flight retry exponent —
   the backoff measured the old primary, and carrying it into the new view
   leaves the client stuck at a near-maximal timeout against a primary it
   has never observed. *)
let note_view t view =
  if view > t.view_guess then begin
    t.view_guess <- view;
    match t.pending with Some p -> p.p_retries <- 0 | None -> ()
  end

let handle t (env : envelope) =
  match env.body with
  | New_key nk -> (
      (* a recovering replica re-keys us; verify its signature and install
         the fresh key for sending to it (Section 4.3.2) *)
      match env.auth with
      | Auth_sig s
        when s.Bft_crypto.Signature.signer_id = nk.nk_replica
             && (charge t t.costs.Costs.sig_verify_us;
                 Bft_crypto.Signature.verify t.d.registry s (Wire.envelope_bytes env)) -> (
          match List.assoc_opt t.id nk.nk_keys with
          | Some key ->
              ignore (Bft_crypto.Keychain.install_out_key t.d.keychain ~peer:nk.nk_replica key)
          | None -> ())
      | _ -> ())
  | Reply rp when rp.rp_client = t.id -> (
      match t.pending with
      | Some p when Int64.equal rp.rp_timestamp p.p_req.timestamp ->
          let verified =
            match (t.d.cfg.Config.auth_mode, env.auth) with
            | _, Auth_sig s ->
                charge t t.costs.Costs.sig_verify_us;
                s.Bft_crypto.Signature.signer_id = rp.rp_replica
                && Bft_crypto.Signature.verify t.d.registry s (Wire.envelope_bytes env)
            | _, Auth_mac m ->
                charge t t.costs.Costs.mac_us;
                Bft_crypto.Auth.verify_mac t.d.keychain ~peer:rp.rp_replica m
                  (Wire.envelope_bytes env)
            | _, (Auth_none | Auth_vector _) -> false
          in
          if verified then begin
            note_view t rp.rp_view;
            let info =
              match rp.rp_result with
              | Full s ->
                  charge t (Costs.digest_us t.costs (String.length s));
                  { ri_tentative = rp.rp_tentative; ri_digest = Wire.result_digest s; ri_full = Some s }
              | Result_digest d ->
                  { ri_tentative = rp.rp_tentative; ri_digest = d; ri_full = None }
            in
            Hashtbl.replace p.p_replies rp.rp_replica info;
            try_complete t p
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
      costs = Network.costs d.net;
      arena = Bft_net.Wire_arena.create ~size:256 ();
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
    Message.request ~op ~timestamp:t.last_timestamp ~client:t.id
      ~read_only:(read_only && t.d.cfg.Config.read_only_opt)
      ~replier
  in
  let p =
    {
      p_req = req;
      p_started = Engine.now t.engine;
      p_replies = Hashtbl.create 8;
      p_callback = callback;
      p_timer = None;
      p_retries = 0;
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
   request in flight, replies collected so far (sorted by replica), and the
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
      let replicas =
        List.sort Int.compare (Hashtbl.fold (fun k _ acc -> k :: acc) p.p_replies [])
      in
      List.iter
        (fun r ->
          match Hashtbl.find_opt p.p_replies r with
          | Some ri ->
              add "%d:%b:%s:%b;" r ri.ri_tentative (Bft_util.Hex.encode ri.ri_digest)
                (ri.ri_full <> None)
          | None -> ())
        replicas;
      add ")");
  Bft_crypto.Sha256.hexdigest (Buffer.contents b)
