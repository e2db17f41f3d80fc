open Bft_core

type observed = {
  completed : (int * string * string) list;
  monotonic_violations : string list;
}

type outcome = { name : string; result : (unit, string) result }
type report = outcome list

let failures report =
  List.filter_map
    (fun o -> match o.result with Ok () -> None | Error e -> Some (o.name ^ ": " ^ e))
    report

let check_histories cluster =
  if Cluster.committed_histories_consistent cluster then Ok ()
  else Error "correct replicas committed conflicting batches"

let check_linearizable cluster ~service ~correct =
  match correct with
  | [] -> Ok ()
  | witness :: _ -> Cluster.check_linearizable ~replica:witness cluster ~service

let check_at_most_once cluster ~correct =
  let violation = ref None in
  List.iter
    (fun i ->
      let seen : (int * string, int) Hashtbl.t = Hashtbl.create 64 in
      List.iter
        (fun (seq, client, op, _) ->
          match Hashtbl.find_opt seen (client, op) with
          | Some seq' when seq' <> seq && !violation = None ->
              violation :=
                Some
                  (Printf.sprintf
                     "replica %d executed client %d op %S at both seq %d and seq %d" i
                     client op seq' seq)
          | Some _ -> ()
          | None -> Hashtbl.replace seen (client, op) seq)
        (Cluster.committed_records cluster i))
    correct;
  match !violation with Some e -> Error e | None -> Ok ()

let check_client_results cluster ~correct ~completed =
  let by_op : (int * string, string) Hashtbl.t = Hashtbl.create 64 in
  List.iter (fun (client, op, result) -> Hashtbl.replace by_op (client, op) result) completed;
  let violation = ref None in
  List.iter
    (fun i ->
      List.iter
        (fun (seq, client, op, result) ->
          match Hashtbl.find_opt by_op (client, op) with
          | Some accepted when (not (String.equal accepted result)) && !violation = None ->
              violation :=
                Some
                  (Printf.sprintf
                     "client %d accepted %S for op %S but replica %d committed %S at seq %d"
                     client accepted op i result seq)
          | _ -> ())
        (Cluster.committed_records cluster i))
    correct;
  match !violation with Some e -> Error e | None -> Ok ()

let check_checkpoint_agreement cluster ~correct =
  (* stable checkpoints only: digests of tentative checkpoints can lag
     behind a rollback, but a stability certificate fixes the state *)
  let stable =
    List.concat_map
      (fun i ->
        let r = Cluster.replica cluster i in
        let s = Replica.stable_checkpoint r in
        List.filter_map
          (fun (seq, digest) -> if seq <= s then Some (i, seq, digest) else None)
          (Replica.checkpoints_held r))
      correct
  in
  let by_seq : (int, int * string) Hashtbl.t = Hashtbl.create 16 in
  let violation = ref None in
  List.iter
    (fun (i, seq, digest) ->
      match Hashtbl.find_opt by_seq seq with
      | Some (j, d) when (not (String.equal d digest)) && !violation = None ->
          violation :=
            Some
              (Printf.sprintf "replicas %d and %d disagree on the digest of checkpoint %d"
                 j i seq)
      | Some _ -> ()
      | None -> Hashtbl.replace by_seq seq (i, digest))
    stable;
  match !violation with Some e -> Error e | None -> Ok ()

let check_monotonic observed =
  match observed.monotonic_violations with
  | [] -> Ok ()
  | v :: _ -> Error v

let evaluate ~cluster ~service ~observed =
  let correct = !(Cluster.correct_replicas cluster) in
  [
    { name = "histories-consistent"; result = check_histories cluster };
    { name = "linearizable"; result = check_linearizable cluster ~service ~correct };
    { name = "at-most-once"; result = check_at_most_once cluster ~correct };
    {
      name = "client-results-committed";
      result = check_client_results cluster ~correct ~completed:observed.completed;
    };
    {
      name = "checkpoint-agreement";
      result = check_checkpoint_agreement cluster ~correct;
    };
    { name = "monotonic-counters"; result = check_monotonic observed };
  ]
