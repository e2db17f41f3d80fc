module Costs = Bft_net.Costs
module Config = Bft_core.Config
module Message = Bft_core.Message
module Wire = Bft_core.Wire

type workload = { arg_size : int; result_size : int; read_only : bool; batch : int }

type prediction = { latency_us : float; throughput_ops : float; bottleneck : string }

(* Representative messages, encoded with the real wire codec so the model
   and the simulator agree on sizes exactly. *)

let sample_request ~arg_size =
  Message.request ~op:(String.make (max 0 arg_size) 'x') ~timestamp:1L ~client:1000
    ~read_only:false ~replier:0

let auth_bytes ~cfg =
  match cfg.Config.auth_mode with
  | Config.Sig_auth -> 128
  | Config.Mac_auth -> 8 + (8 * cfg.Config.n)

let request_size ~cfg ~arg_size =
  8 + Wire.size (Message.Request (sample_request ~arg_size)) + auth_bytes ~cfg

let reply_size ~cfg:_ ~result_size ~full =
  let payload =
    if full then Message.Full (String.make (max 0 result_size) 'y')
    else Message.Result_digest (String.make 32 'd')
  in
  8
  + Wire.size
      (Message.Reply
         {
           rp_view = 0;
           rp_timestamp = 1L;
           rp_client = 1000;
           rp_replica = 0;
           rp_tentative = true;
           rp_result = payload;
         })
  + (8 + 8) (* single MAC *)

let pre_prepare_size ~cfg ~arg_size ~batch =
  let elem =
    if arg_size > cfg.Config.separate_tx_threshold then
      Message.By_digest (String.make 32 'd')
    else Message.Inline (sample_request ~arg_size, Message.Auth_none)
  in
  let pp =
    {
      Message.pp_view = 0;
      pp_seq = 1;
      pp_batch = List.init (max 1 batch) (fun _ -> elem);
      pp_nondet = "123456789012";
    }
  in
  8 + Wire.size (Message.Pre_prepare pp) + auth_bytes ~cfg
  (* inline client tokens travel inside the pre-prepare *)
  + if arg_size > cfg.Config.separate_tx_threshold then 0
    else max 1 batch * (8 + (8 * cfg.Config.n))

let prepare_size ~cfg =
  8
  + Wire.size
      (Message.Prepare
         { pr_view = 0; pr_seq = 1; pr_digest = String.make 32 'd'; pr_replica = 0 })
  + auth_bytes ~cfg

(* Crypto cost of authenticating / verifying one message. *)
let gen_auth_us ~costs ~cfg =
  match cfg.Config.auth_mode with
  | Config.Sig_auth -> costs.Costs.sig_gen_us
  | Config.Mac_auth -> Costs.auth_gen_us costs cfg.Config.n

let verify_auth_us ~costs ~cfg =
  match cfg.Config.auth_mode with
  | Config.Sig_auth -> costs.Costs.sig_verify_us
  | Config.Mac_auth -> costs.Costs.mac_us

let gen_mac_us ~costs ~cfg =
  match cfg.Config.auth_mode with
  | Config.Sig_auth -> costs.Costs.sig_gen_us
  | Config.Mac_auth -> costs.Costs.mac_us

(* One-way message time: sender CPU + wire. Receiver CPU is accounted at
   the receiving stage. *)
let hop ~costs size = Costs.send_cpu_us costs size +. Costs.wire_us costs size

let latency_us ~costs ~cfg (w : workload) =
  let f = cfg.Config.f in
  let req_sz = request_size ~cfg ~arg_size:w.arg_size in
  let full_reply = reply_size ~cfg ~result_size:w.result_size ~full:true in
  let exec = costs.Costs.exec_null_us in
  let digest_req = Costs.digest_us costs req_sz in
  (* client prepares and sends the request *)
  let t_client_send = digest_req +. gen_auth_us ~costs ~cfg +. hop ~costs req_sz in
  if w.read_only then begin
    (* single round trip (Section 7.3.1): request multicast, replicas
       execute and reply; the client needs 2f+1 matching replies and the
       full result, so the critical path is one replica's reply plus
       verifying 2f+1 replies *)
    let replica =
      Costs.recv_cpu_us costs req_sz +. verify_auth_us ~costs ~cfg +. digest_req +. exec
      +. gen_mac_us ~costs ~cfg +. hop ~costs full_reply
    in
    let client_recv =
      Costs.recv_cpu_us costs full_reply
      +. float_of_int (2 * f)
         *. (Costs.recv_cpu_us costs (reply_size ~cfg ~result_size:w.result_size ~full:false)
            +. costs.Costs.mac_us)
      +. costs.Costs.mac_us
      +. Costs.digest_us costs w.result_size
    in
    t_client_send +. replica +. client_recv
  end
  else begin
    let pp_sz = pre_prepare_size ~cfg ~arg_size:w.arg_size ~batch:1 in
    let prep_sz = prepare_size ~cfg in
    (* primary: receive request, verify, assign and multicast pre-prepare *)
    let t_primary =
      Costs.recv_cpu_us costs req_sz +. verify_auth_us ~costs ~cfg +. digest_req
      +. Costs.digest_us costs pp_sz +. gen_auth_us ~costs ~cfg +. hop ~costs pp_sz
    in
    (* backup: receive pre-prepare, verify (authenticator + request MAC +
       digest), multicast prepare *)
    let t_backup =
      Costs.recv_cpu_us costs pp_sz +. verify_auth_us ~costs ~cfg
      +. costs.Costs.mac_us (* inline request token *)
      +. Costs.digest_us costs pp_sz +. gen_auth_us ~costs ~cfg +. hop ~costs prep_sz
    in
    (* collect 2f prepares, execute tentatively, reply (Section 7.3.2 with
       the tentative-execution optimization: 4 message delays) *)
    let t_prepare_collect =
      float_of_int (2 * f) *. (Costs.recv_cpu_us costs prep_sz +. verify_auth_us ~costs ~cfg)
    in
    let commit_round =
      if cfg.Config.tentative_execution then 0.0
      else
        (* one extra round: multicast commit, collect 2f+1 commits *)
        gen_auth_us ~costs ~cfg +. hop ~costs prep_sz
        +. float_of_int ((2 * f) + 1)
           *. (Costs.recv_cpu_us costs prep_sz +. verify_auth_us ~costs ~cfg)
    in
    let t_reply =
      exec
      +. (if
            cfg.Config.digest_replies
            && w.result_size > cfg.Config.digest_replies_threshold
          then Costs.digest_us costs w.result_size
          else 0.0)
      +. gen_mac_us ~costs ~cfg +. hop ~costs full_reply
    in
    let needed = if cfg.Config.tentative_execution then (2 * f) + 1 else f + 1 in
    let client_recv =
      Costs.recv_cpu_us costs full_reply
      +. float_of_int (needed - 1)
         *. (Costs.recv_cpu_us costs (reply_size ~cfg ~result_size:w.result_size ~full:false)
            +. costs.Costs.mac_us)
      +. costs.Costs.mac_us
      +. Costs.digest_us costs w.result_size
    in
    t_client_send +. t_primary +. t_backup +. t_prepare_collect +. commit_round
    +. t_reply +. client_recv
  end

(* Saturation throughput (Section 7.4): per-request CPU cost at the primary
   and at a backup, with protocol costs amortized over the batch; the
   network is modelled by per-byte serialization at the sender link. *)
let throughput ~costs ~cfg (w : workload) =
  let n = cfg.Config.n in
  let b = float_of_int (max 1 w.batch) in
  let req_sz = request_size ~cfg ~arg_size:w.arg_size in
  let reply_full = reply_size ~cfg ~result_size:w.result_size ~full:true in
  let reply_digest = reply_size ~cfg ~result_size:w.result_size ~full:false in
  let exec = costs.Costs.exec_null_us in
  let digest_req = Costs.digest_us costs req_sz in
  if w.read_only then begin
    let per_req =
      Costs.recv_cpu_us costs req_sz +. verify_auth_us ~costs ~cfg +. digest_req +. exec
      +. gen_mac_us ~costs ~cfg
      +. Costs.send_cpu_us costs reply_full
    in
    (1_000_000.0 /. per_req, "replica cpu")
  end
  else begin
    let pp_sz = pre_prepare_size ~cfg ~arg_size:w.arg_size ~batch:w.batch in
    let prep_sz = prepare_size ~cfg in
    let per_batch_primary =
      Costs.digest_us costs pp_sz +. gen_auth_us ~costs ~cfg
      +. Costs.send_cpu_us costs pp_sz
      (* prepares and commits from backups *)
      +. float_of_int (n - 1)
         *. (Costs.recv_cpu_us costs prep_sz +. verify_auth_us ~costs ~cfg)
      +. float_of_int n *. (Costs.recv_cpu_us costs prep_sz +. verify_auth_us ~costs ~cfg)
      +. gen_auth_us ~costs ~cfg +. Costs.send_cpu_us costs prep_sz (* own commit *)
    in
    let reply_cost avg_replier =
      exec +. gen_mac_us ~costs ~cfg
      +. Costs.send_cpu_us costs (if avg_replier then reply_full else reply_digest)
    in
    let per_req_primary =
      Costs.recv_cpu_us costs req_sz +. verify_auth_us ~costs ~cfg +. digest_req
      +. (per_batch_primary /. b)
      +. reply_cost (not cfg.Config.digest_replies)
    in
    let per_batch_backup =
      Costs.recv_cpu_us costs pp_sz +. verify_auth_us ~costs ~cfg
      +. Costs.digest_us costs pp_sz
      +. gen_auth_us ~costs ~cfg +. Costs.send_cpu_us costs prep_sz (* prepare *)
      +. float_of_int (n - 1)
         *. (Costs.recv_cpu_us costs prep_sz +. verify_auth_us ~costs ~cfg)
      +. float_of_int n *. (Costs.recv_cpu_us costs prep_sz +. verify_auth_us ~costs ~cfg)
      +. gen_auth_us ~costs ~cfg +. Costs.send_cpu_us costs prep_sz (* commit *)
    in
    let per_req_backup =
      (* backups also verify the inline client token *)
      (costs.Costs.mac_us +. (per_batch_backup /. b)) +. reply_cost false
      (* request body also reaches backups when transmitted separately *)
      +. (if w.arg_size > cfg.Config.separate_tx_threshold then
            Costs.recv_cpu_us costs req_sz +. verify_auth_us ~costs ~cfg +. digest_req
          else 0.0)
    in
    (* network: bytes serialized per request at the busiest link (client
       requests + reply) *)
    let wire_bytes =
      float_of_int req_sz
      +. (float_of_int pp_sz /. b)
      +. (2.0 *. float_of_int prep_sz)
      +. float_of_int reply_full
    in
    let per_req_wire = wire_bytes *. costs.Costs.wire_per_byte_us in
    let cpu = max per_req_primary per_req_backup in
    if per_req_wire > cpu then (1_000_000.0 /. per_req_wire, "network")
    else if per_req_primary >= per_req_backup then
      (1_000_000.0 /. per_req_primary, "primary cpu")
    else (1_000_000.0 /. per_req_backup, "backup cpu")
  end

let throughput_ops ~costs ~cfg w = fst (throughput ~costs ~cfg w)

let predict ~costs ~cfg w =
  let tput, bottleneck = throughput ~costs ~cfg w in
  { latency_us = latency_us ~costs ~cfg w; throughput_ops = tput; bottleneck }
