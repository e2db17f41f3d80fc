[@@@lint.protocol_core]
type t = {
  cfg : Config.t;
  page_size : int;
  branching : int;
  mutable trees : Partition_tree.t list; (* ascending seq *)
  mutable stable : int;
  (* seq -> (replica -> digest) votes from CHECKPOINT messages *)
  votes : (int, (int, string) Hashtbl.t) Hashtbl.t;
}

let create cfg ~page_size ~branching =
  { cfg; page_size; branching; trees = []; stable = 0; votes = Hashtbl.create 16 }

let tree_at t seq = List.find_opt (fun tr -> Partition_tree.seq tr = seq) t.trees

let latest t =
  match List.rev t.trees with [] -> None | tr :: _ -> Some tr

let insert_tree t tr =
  let seq = Partition_tree.seq tr in
  let others = List.filter (fun x -> Partition_tree.seq x <> seq) t.trees in
  t.trees <- List.sort (fun a b -> compare (Partition_tree.seq a) (Partition_tree.seq b)) (tr :: others)

let take t ~seq ~pages ~dirty =
  let tr =
    match latest t with
    | Some prev
      when Partition_tree.page_size prev = t.page_size
           && Partition_tree.branching prev = t.branching
           && Partition_tree.seq prev < seq ->
        Partition_tree.update prev ~seq ~pages ~dirty
    | prev -> Partition_tree.build_pages ?prev ~seq ~page_size:t.page_size ~branching:t.branching pages
  in
  insert_tree t tr;
  tr

let install t tr = insert_tree t tr
let stable_seq t = t.stable
let stable_tree t = tree_at t t.stable

let held t =
  List.map (fun tr -> (Partition_tree.seq tr, Partition_tree.root_digest tr)) t.trees

let votes_for t seq =
  match Hashtbl.find_opt t.votes seq with
  | Some h -> h
  | None ->
      let h = Hashtbl.create 8 in
      Hashtbl.replace t.votes seq h;
      h

let message tree ~replica =
  { Message.ck_seq = Partition_tree.seq tree; ck_digest = Partition_tree.root_digest tree; ck_replica = replica }

let add_message t (c : Message.checkpoint) =
  if c.ck_seq > t.stable then
    Hashtbl.replace (votes_for t c.ck_seq) c.ck_replica c.ck_digest

let proof_count t ~seq ~digest =
  match Hashtbl.find_opt t.votes seq with
  | None -> 0
  | Some h ->
      Hashtbl.fold (fun _ d acc -> if String.equal d digest then acc + 1 else acc) h 0

let threshold t =
  match t.cfg.Config.auth_mode with
  | Config.Mac_auth -> Config.quorum t.cfg
  | Config.Sig_auth -> Config.weak t.cfg

let try_stabilize t =
  let candidates =
    List.filter
      (fun tr ->
        let seq = Partition_tree.seq tr in
        seq > t.stable
        && proof_count t ~seq ~digest:(Partition_tree.root_digest tr) >= threshold t)
      t.trees
  in
  match List.rev candidates with
  | [] -> None
  | tr :: _ ->
      let seq = Partition_tree.seq tr in
      t.stable <- seq;
      t.trees <- List.filter (fun x -> Partition_tree.seq x >= seq) t.trees;
      Hashtbl.iter
        (fun s _ -> if s <= seq then Hashtbl.remove t.votes s)
        (Hashtbl.copy t.votes);
      Some (seq, tr)

let certified_digest t ~threshold =
  (* Scan votes in sorted order so the certified target is a pure function
     of the vote multiset: hash-iteration order must never pick the state
     transfer target (equivocating replicas can certify two digests at one
     seq; the lexicographically smallest wins the tie deterministically). *)
  let best = ref None in
  let seqs = List.sort Int.compare (Hashtbl.fold (fun s _ acc -> s :: acc) t.votes []) in
  List.iter
    (fun seq ->
      let votes = Hashtbl.find t.votes seq in
      let ds = List.sort String.compare (Hashtbl.fold (fun _ d acc -> d :: acc) votes []) in
      (* [ds] sorted: count each run of equal digests *)
      let rec scan = function
        | [] -> ()
        | d :: _ as l ->
            let rest = List.filter (fun x -> not (String.equal x d)) l in
            if List.length l - List.length rest >= threshold then
              best := Some (seq, d)
            else scan rest
      in
      scan ds)
    seqs;
  !best

let drop_above t bound =
  t.trees <- List.filter (fun tr -> Partition_tree.seq tr <= bound) t.trees

let digest { trees; stable; votes; cfg = _; page_size = _; branching = _ (* constants *) } b =
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let hexd = Bft_util.Hex.encode in
  let sorted h =
    List.sort (fun (a, _) (b, _) -> Int.compare a b) (Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [])
  in
  add "|ck:";
  List.iter
    (fun tr -> add "%d:%s;" (Partition_tree.seq tr) (hexd (Partition_tree.root_digest tr)))
    trees;
  add "stable=%d votes:" stable;
  List.iter
    (fun (seq, h) ->
      add "%d(" seq;
      List.iter (fun (r, d) -> add "%d:%s;" r (hexd d)) (sorted h);
      add ")")
    (sorted votes)
