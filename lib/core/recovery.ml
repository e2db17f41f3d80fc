[@@@lint.protocol_core]
open Message

type phase = Estimating | Requesting | Fetching

type t = {
  mutable phase : phase;
  nonce : int64;
  (* replica -> (min c, max p) collected by the estimation protocol *)
  est : (int, int * int) Hashtbl.t;
  mutable hm : int; (* H_M once estimated *)
  mutable request : request option; (* the signed recovery request, for retransmission *)
  replies : (int, int) Hashtbl.t; (* replica -> seqno in its recovery reply *)
  mutable point : int; (* H_R *)
}

let create ~nonce =
  {
    phase = Estimating;
    nonce;
    est = Hashtbl.create 8;
    hm = max_int;
    request = None;
    replies = Hashtbl.create 8;
    point = max_int;
  }

let phase t = t.phase
let nonce t = t.nonce
let request t = t.request

(* The first checkpoint at or after [n], plus a log's worth. *)
let point_for (cfg : Config.t) n =
  let k = cfg.Config.checkpoint_interval in
  ((n + k - 1) / k * k) + cfg.Config.log_size

let op_prefix = "\x00RECOVERY"

let is_request (cfg : Config.t) (req : request) =
  req.client >= 0 && req.client < cfg.Config.n && String.starts_with ~prefix:op_prefix req.op

(* Estimation (Section 4.3.2): c_M such that 2f other replicas report
   c <= c_M and f other replicas report p >= c_M; H_M = c_M + L. *)
let note_reply_stable t (cfg : Config.t) ~self (r : reply_stable) =
  if t.phase <> Estimating || not (Int64.equal r.rs_nonce t.nonce) then None
  else begin
    let c, p =
      match Hashtbl.find_opt t.est r.rs_replica with
      | Some (c0, p0) -> (min c0 r.rs_checkpoint, max p0 r.rs_prepared)
      | None -> (r.rs_checkpoint, r.rs_prepared)
    in
    Hashtbl.replace t.est r.rs_replica (c, p);
    let others = Hashtbl.fold (fun r cp acc -> if r <> self then cp :: acc else acc) t.est [] in
    let f = cfg.Config.f in
    let viable c_m =
      List.length (List.filter (fun (c, _) -> c <= c_m) others) >= 2 * f
      && List.length (List.filter (fun (_, p) -> p >= c_m) others) >= f
    in
    let candidates = Hashtbl.fold (fun _ (c, _) acc -> c :: acc) t.est [] in
    match List.rev (List.filter viable (List.sort_uniq compare candidates)) with
    | c_m :: _ ->
        t.hm <- c_m + cfg.Config.log_size;
        t.phase <- Requesting;
        Some t.hm
    | [] -> None
  end

let make_request t ~self ~counter =
  let req =
    Message.request
      ~op:(op_prefix ^ ":" ^ Int64.to_string counter)
      ~timestamp:counter ~client:self ~read_only:false ~replier:self
  in
  t.request <- Some req;
  req

(* The replies tell the sequence number the request executed at. L_R is
   the (f+1)-th largest of the 2f+1 reports: f+1 of them are at or above
   it and f+1 at or below, so it lies between two correct replicas'
   reports and no f replicas can move it. *)
let note_reply t (cfg : Config.t) (rp : reply) =
  match (t.phase, rp.rp_result) with
  | Requesting, Full s -> (
      match int_of_string_opt s with
      | None -> None
      | Some seq ->
          Hashtbl.replace t.replies rp.rp_replica seq;
          if Hashtbl.length t.replies < Config.quorum cfg then None
          else begin
            let seqs = Hashtbl.fold (fun _ s acc -> s :: acc) t.replies [] in
            let l_r = List.nth (List.sort (fun a b -> Int.compare b a) seqs) cfg.Config.f in
            t.point <- max t.hm (point_for cfg l_r);
            t.phase <- Fetching;
            Some t.point
          end)
  | _ -> None

let fetch_target t ckpts ~weak ~transferring =
  if t.phase <> Fetching then None
  else
    match Checkpoint_store.certified_digest ckpts ~threshold:weak with
    | Some (seq, digest) when seq > Checkpoint_store.stable_seq ckpts || not transferring -> (
        match Checkpoint_store.tree_at ckpts seq with
        | Some tree when String.equal (Partition_tree.root_digest tree) digest -> None
        | _ -> Some (seq, digest))
    | _ -> None

let completes t ~stable = t.phase = Fetching && stable >= t.point

let digest { phase; nonce; est; hm; request; replies; point } b =
  Printf.ksprintf (Buffer.add_string b) "|rec=%s:%Ld:%s:%d:%d:est%d:rep%d"
    (match phase with Estimating -> "est" | Requesting -> "wait" | Fetching -> "fetch")
    nonce
    (match request with Some r -> Bft_util.Hex.encode (Wire.request_digest r) | None -> "-")
    hm point (Hashtbl.length est) (Hashtbl.length replies)
