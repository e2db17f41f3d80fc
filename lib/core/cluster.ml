module Engine = Bft_sim.Engine
module Network = Bft_net.Network
module Costs = Bft_net.Costs
module Obs = Bft_obs.Obs

type t = {
  engine : Engine.t;
  net : Message.envelope Network.t;
  cfg : Config.t;
  replicas : Replica.t array;
  (* the execution tap: per replica, seq -> the last [(client, op, result)]
     wave executed there. A view-change rollback re-executes from the
     restored checkpoint, so the last wave is the content that stands. *)
  executed : (int, (int * string * string) list) Hashtbl.t array;
  clients : Client.t array;
  correct : int list ref;
  obs : Obs.registry option;
}

let engine t = t.engine
let network t = t.net
let config t = t.cfg
let replica t i = t.replicas.(i)
let replicas t = t.replicas
let client t k = t.clients.(k)
let num_clients t = Array.length t.clients
let correct_replicas t = t.correct
let observations t = t.obs

(* Establish directional session keys between two principals, both ways,
   bypassing new-key messages (the initial key exchange of Section 4.3.1). *)
let establish_keys rng a_chain b_chain =
  let a = Bft_crypto.Keychain.my_id a_chain and b = Bft_crypto.Keychain.my_id b_chain in
  let k_ab = Bft_crypto.Keychain.fresh_in_key b_chain rng ~peer:a in
  ignore (Bft_crypto.Keychain.install_out_key a_chain ~peer:b k_ab);
  let k_ba = Bft_crypto.Keychain.fresh_in_key a_chain rng ~peer:b in
  ignore (Bft_crypto.Keychain.install_out_key b_chain ~peer:a k_ba)

(* The engine label each replica timer is scheduled under. *)
let timer_label : Replica.timer -> string = function
  | Vc_active | Vc_pending -> "vc"
  | Transfer_retry -> "tx"
  | Recovery_tick -> "rec"
  | Status -> "status"
  | Watchdog -> "wd"
  | Key_refresh -> "key"
  | Perf_vc _ -> "perfvc"

(* Replica [id]'s shell: its network node, its CPU and its timers. Only
   the "vc" and "tx" timers are ever cancelled, so only their last
   handles are kept; arming one cancels the handle pending in its slot,
   so each slot drives at most one chain. *)
let port engine net id =
  let vc = ref None and tx = ref None in
  let slot : Replica.timer -> _ = function
    | Vc_active | Vc_pending -> vc
    | Transfer_retry -> tx
    | Recovery_tick | Status | Watchdog | Key_refresh | Perf_vc _ -> ref None
  in
  {
    Replica.send = (fun ~dst ~size env -> Network.send net ~src:id ~dst ~size env);
    multicast = (fun ~dsts ~size env -> Network.multicast net ~src:id ~dsts ~size env);
    charge = (fun us -> Network.charge net ~id us);
    arm =
      (fun r timer ~delay_us ->
        let slot = slot timer in
        Option.iter Engine.cancel !slot;
        slot :=
          Some
            (Engine.schedule engine
               ~label:(Engine.Id (timer_label timer, id))
               ~delay:(Engine.of_us_float delay_us)
               (fun () -> Replica.on_timer r timer)));
    cancel = (fun timer -> Option.iter Engine.cancel !(slot timer));
    now = (fun () -> Engine.now engine);
    backlog = (fun () -> Network.backlog net ~id);
    busy_until = (fun () -> Network.busy_until net ~id);
  }

let create ?(seed = 42L) ?(costs = Costs.default) ?service ?(num_clients = 1) ?obs cfg =
  let engine = Engine.create ~seed () in
  let rng = Engine.rng engine in
  let net = Network.create ~engine ~costs ~rng:(Bft_util.Rng.split rng) () in
  let registry = Bft_crypto.Signature.create_registry () in
  let service =
    match service with Some f -> f | None -> fun () -> Bft_sm.Null_service.create ()
  in
  let n = cfg.Config.n in
  let replica_chains = Array.init n (fun i -> Bft_crypto.Keychain.create ~my_id:i) in
  let client_chains =
    Array.init num_clients (fun k -> Bft_crypto.Keychain.create ~my_id:(n + k))
  in
  (* full pairwise key establishment: replica-replica and client-replica *)
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      establish_keys rng replica_chains.(i) replica_chains.(j)
    done
  done;
  Array.iter
    (fun cchain -> Array.iter (fun rchain -> establish_keys rng cchain rchain) replica_chains)
    client_chains;
  let executed = Array.init n (fun _ -> Hashtbl.create 64) in
  let replicas =
    Array.init n (fun i ->
        let deps =
          {
            Replica.cfg;
            costs;
            registry;
            keychain = replica_chains.(i);
            signer = Bft_crypto.Signature.register registry rng i;
            service = service ();
            rng = Bft_util.Rng.split rng;
          }
        in
        let node_obs = Option.map (fun reg -> Obs.for_node reg i) obs in
        let r =
          Replica.create ?obs:node_obs deps ~port:(port engine net i) ~id:i
            ~on_execute:(Hashtbl.replace executed.(i))
        in
        Network.add_node net ~id:i ~handler:(Replica.handle r);
        r)
  in
  let clients =
    Array.init num_clients (fun k ->
        let deps =
          {
            Client.cfg;
            net;
            registry;
            keychain = client_chains.(k);
            signer = Bft_crypto.Signature.register registry rng (n + k);
            rng = Bft_util.Rng.split rng;
          }
        in
        let node_obs = Option.map (fun reg -> Obs.for_node reg (n + k)) obs in
        Client.create ?obs:node_obs deps ~id:(n + k))
  in
  Array.iter Replica.start replicas;
  { engine; net; cfg; replicas; executed; clients; correct = ref (List.init n Fun.id); obs }

let run ?(timeout_us = 10_000_000.0) t =
  Engine.run ~until:(Engine.of_us_float timeout_us) t.engine

let run_until ?(timeout_us = 10_000_000.0) t cond =
  let deadline = Int64.add (Engine.now t.engine) (Engine.of_us_float timeout_us) in
  let exhausted = Engine.run_while t.engine ~until:deadline (fun () -> not (cond ())) in
  ignore exhausted;
  cond ()

let try_invoke_sync ?(timeout_us = 10_000_000.0) t ~client:k ?(read_only = false) op =
  let c = t.clients.(k) in
  let result = ref None in
  Client.invoke c ~read_only ~op (fun ~result:r ~latency_us -> result := Some (r, latency_us));
  if run_until ~timeout_us t (fun () -> !result <> None) then Ok (Option.get !result)
  else begin
    (match t.obs with
    | Some reg ->
        let o = Obs.for_node reg (Client.id c) in
        Obs.invoke_timeout o ~now:(Engine.now t.engine) ~op
    | None -> ());
    Error (Printf.sprintf "invoke_sync: timeout for op %S" op)
  end

let invoke_sync_latency ?timeout_us t ~client ?read_only op =
  match try_invoke_sync ?timeout_us t ~client ?read_only op with
  | Ok r -> r
  | Error msg -> failwith msg

let invoke_sync ?timeout_us t ~client ?read_only op =
  fst (invoke_sync_latency ?timeout_us t ~client ?read_only op)

(* Replica [i]'s wave at [seq], if [seq] is in its committed prefix. *)
let committed_wave t i seq =
  if seq <= Replica.committed_upto t.replicas.(i) then Hashtbl.find_opt t.executed.(i) seq
  else None

let committed_records t i =
  Hashtbl.fold
    (fun seq _ acc ->
      match committed_wave t i seq with Some recs -> (seq, recs) :: acc | None -> acc)
    t.executed.(i) []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.concat_map (fun (seq, recs) ->
         List.map (fun (client, op, result) -> (seq, client, op, result)) recs)

let committed_histories_consistent t =
  let ops = List.map (fun (cl, op, _res) -> (cl, op)) in
  let agree i j =
    Hashtbl.fold
      (fun seq _ ok ->
        ok
        &&
        match (committed_wave t i seq, committed_wave t j seq) with
        | Some a, Some b -> ops a = ops b
        | _ -> true)
      t.executed.(i) true
  in
  List.for_all (fun i -> List.for_all (fun j -> i >= j || agree i j) !(t.correct)) !(t.correct)

let tap_digest t i =
  let b = Buffer.create 256 in
  List.iter
    (fun (seq, recs) ->
      Printf.bprintf b "%d(" seq;
      List.iter
        (fun (c, op, res) -> Printf.bprintf b "%d:%s:%s;" c op (Bft_crypto.Sha256.hexdigest res))
        recs;
      Buffer.add_char b ')')
    (List.sort
       (fun (a, _) (b, _) -> Int.compare a b)
       (Hashtbl.fold (fun seq recs acc -> (seq, recs) :: acc) t.executed.(i) []));
  Bft_crypto.Sha256.hexdigest (Buffer.contents b)

(* Canonical fingerprint of the committed histories of every correct
   replica: the surviving execution record per sequence number within each
   committed prefix, in replica then sequence order. Pinned fuzz seeds must
   reproduce this digest across changes that do not touch protocol
   semantics (the encode-once / heap-engine work is validated this way). *)
let committed_history_digest t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun i ->
      Buffer.add_string buf (Printf.sprintf "replica %d\n" i);
      List.iter
        (fun (seq, client, op, res) ->
          Buffer.add_string buf (Printf.sprintf "%d|%d|%S|%S\n" seq client op res))
        (committed_records t i))
    (List.sort compare !(t.correct));
  Bft_crypto.Sha256.hexdigest (Buffer.contents buf)

let check_linearizable ?(replica = 0) t ~service =
  let svc = service () in
  let rec replay = function
    | [] -> Ok ()
    | (seq, client, op, recorded) :: rest ->
        let replayed = svc.Bft_sm.Service.execute ~client ~op ~nondet:"" in
        if String.equal replayed recorded then replay rest
        else
          Error
            (Printf.sprintf "seq %d client %d op %S: recorded %S but sequential replay gives %S"
               seq client op recorded replayed)
  in
  replay (committed_records t replica)
