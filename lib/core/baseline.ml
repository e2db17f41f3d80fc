module Engine = Bft_sim.Engine
module Network = Bft_net.Network
module Costs = Bft_net.Costs
open Message

let server_id = 0

type client = {
  c_id : int;
  c_seal : Seal.t;
  mutable c_timestamp : int64;
  mutable c_pending : (result:string -> latency_us:float -> unit) option;
  mutable c_started : Engine.time;
  mutable c_completed : int;
}

type t = {
  engine : Engine.t;
  net : envelope Network.t;
  costs : Costs.t;
  service : Bft_sm.Service.t;
  server : Seal.t;
  clients : client array;
}

let engine t = t.engine
let client_completed t k = t.clients.(k).c_completed

let server_handle t (env : envelope) =
  match env.body with
  | Request r when Seal.authentic t.server env ->
      Network.charge t.net ~id:server_id
        (Costs.digest_us t.costs (String.length (Wire.envelope_bytes env))
        +. t.service.Bft_sm.Service.exec_cost_us r.op);
      let result =
        t.service.Bft_sm.Service.execute ~client:r.client ~op:r.op
          ~nondet:(Int64.to_string (Engine.now t.engine))
      in
      let reply =
        Reply
          {
            rp_view = 0;
            rp_timestamp = r.timestamp;
            rp_client = r.client;
            rp_replica = server_id;
            rp_tentative = false;
            rp_result = Full result;
          }
      in
      let env' =
        Seal.seal t.server ~corrupt:false ~dsts:[ r.client ] (Message.no_cache ()) reply
      in
      Network.send t.net ~src:server_id ~dst:r.client ~size:(Wire.envelope_size env') env'
  | _ -> ()

let client_handle t (c : client) (env : envelope) =
  match env.body with
  | Reply rp
    when rp.rp_client = c.c_id
         && Int64.equal rp.rp_timestamp c.c_timestamp
         && Seal.authentic c.c_seal env -> (
      match (c.c_pending, rp.rp_result) with
      | Some k, Full result ->
          c.c_pending <- None;
          c.c_completed <- c.c_completed + 1;
          k ~result ~latency_us:(Engine.to_us (Int64.sub (Engine.now t.engine) c.c_started))
      | _ -> ())
  | _ -> ()

let create ?(seed = 42L) ?service ?(num_clients = 1) () =
  let costs = Costs.default in
  let engine = Engine.create ~seed () in
  let rng = Engine.rng engine in
  let net = Network.create ~engine ~costs ~rng:(Bft_util.Rng.split rng) () in
  let service =
    match service with Some f -> f () | None -> Bft_sm.Null_service.create ()
  in
  (* as in the replicated stack, each principal makes and checks its one
     MAC each way through [Seal]; none holds a signing key *)
  let principal id =
    let chain = Bft_crypto.Keychain.create ~my_id:id in
    ( chain,
      { Seal.id; n = 1; mode = Config.Mac_auth; keys = Endpoint chain; signing = None; costs;
        charge = Network.charge net ~id } )
  in
  let server_chain, server = principal server_id in
  let clients =
    Array.init num_clients (fun k ->
        let id = 1 + k in
        let chain, c_seal = principal id in
        let k1 = Bft_crypto.Keychain.fresh_in_key server_chain rng ~peer:id in
        ignore (Bft_crypto.Keychain.install_out_key chain ~peer:server_id k1);
        let k2 = Bft_crypto.Keychain.fresh_in_key chain rng ~peer:server_id in
        ignore (Bft_crypto.Keychain.install_out_key server_chain ~peer:id k2);
        { c_id = id; c_seal; c_timestamp = 0L; c_pending = None; c_started = 0L; c_completed = 0 })
  in
  let t = { engine; net; costs; service; server; clients } in
  Network.add_node net ~id:server_id ~handler:(fun env -> server_handle t env);
  Array.iter
    (fun c -> Network.add_node net ~id:c.c_id ~handler:(fun env -> client_handle t c env))
    clients;
  t

let invoke t ~client:k op callback =
  let c = t.clients.(k) in
  if c.c_pending <> None then invalid_arg "Baseline.invoke: request outstanding";
  c.c_timestamp <- Int64.add c.c_timestamp 1L;
  c.c_pending <- Some callback;
  c.c_started <- Engine.now t.engine;
  let req =
    Request
      (Message.request ~op ~timestamp:c.c_timestamp ~client:c.c_id ~read_only:false ~replier:0)
  in
  let enc = Message.no_cache () in
  let bytes = Wire.cached_encode enc req in
  Network.charge t.net ~id:c.c_id (Costs.digest_us t.costs (String.length bytes));
  let env = Seal.seal c.c_seal ~corrupt:false ~dsts:[ server_id ] enc req in
  Network.send t.net ~src:c.c_id ~dst:server_id ~size:(Wire.envelope_size env) env

let run_until ?(timeout_us = 10_000_000.0) t cond =
  let deadline = Int64.add (Engine.now t.engine) (Engine.of_us_float timeout_us) in
  ignore (Engine.run_while t.engine ~until:deadline (fun () -> not (cond ())));
  cond ()

let try_invoke_sync ?timeout_us t ~client op =
  let result = ref None in
  invoke t ~client op (fun ~result:r ~latency_us -> result := Some (r, latency_us));
  if run_until ?timeout_us t (fun () -> !result <> None) then Ok (Option.get !result)
  else Error "Baseline.invoke_sync: timeout"

let invoke_sync ?timeout_us t ~client op =
  match try_invoke_sync ?timeout_us t ~client op with
  | Ok r -> r
  | Error msg -> failwith msg
