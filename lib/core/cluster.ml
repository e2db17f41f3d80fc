module Engine = Bft_sim.Engine
module Network = Bft_net.Network
module Costs = Bft_net.Costs
module Obs = Bft_obs.Obs

type t = {
  engine : Engine.t;
  net : Message.envelope Network.t;
  cfg : Config.t;
  replicas : Replica.t array;
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

let create ?(seed = 42L) ?(costs = Costs.default) ?service ?(page_size = 4096)
    ?(branching = 16) ?(num_clients = 1) ?obs cfg =
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
  let replicas =
    Array.init n (fun i ->
        let deps =
          {
            Replica.cfg;
            net;
            registry;
            keychain = replica_chains.(i);
            signer = Bft_crypto.Signature.register registry rng i;
            service = service ();
            rng = Bft_util.Rng.split rng;
            page_size;
            branching;
          }
        in
        let node_obs = Option.map (fun reg -> Obs.for_node reg i) obs in
        Replica.create ?obs:node_obs deps ~id:i)
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
  { engine; net; cfg; replicas; clients; correct = ref (List.init n Fun.id); obs }

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

(* Final execution per sequence number within the committed prefix: the
   batch journal records every execution wave (including null batches), and
   a view-change rollback re-executes from the restored checkpoint, so the
   last record per sequence number is the content that stands. *)
let committed_content r =
  let upto = Replica.committed_upto r in
  let tbl : (int, (int * string * string) list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (seq, recs) -> if seq <= upto then Hashtbl.replace tbl seq recs)
    (Replica.executed_batches r);
  tbl

let committed_records t i =
  Hashtbl.fold (fun seq recs acc -> (seq, recs) :: acc) (committed_content t.replicas.(i)) []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.concat_map (fun (seq, recs) ->
         List.map (fun (client, op, result) -> (seq, client, op, result)) recs)

let committed_histories_consistent t =
  let histories = List.map (fun i -> (i, committed_content t.replicas.(i))) !(t.correct) in
  let ops recs = List.map (fun (cl, op, _res) -> (cl, op)) recs in
  let ok = ref true in
  List.iter
    (fun (i, h1) ->
      List.iter
        (fun (j, h2) ->
          if i < j then
            Hashtbl.iter
              (fun seq recs1 ->
                match Hashtbl.find_opt h2 seq with
                | Some recs2 -> if ops recs1 <> ops recs2 then ok := false
                | None -> ())
              h1)
        histories)
    histories;
  !ok

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
