type digest = string

type entry = {
  seq : int;
  mutable pp : Message.pre_prepare option;
  mutable pp_digest : digest option;
  mutable pp_view : int;
  mutable self_preprepared : bool;
  prepares : (int, int * digest) Hashtbl.t;
  commits : (int, int * digest) Hashtbl.t;
  mutable executed : bool;
  mutable exec_tentative : bool;
}

type t = { cfg : Config.t; mutable h : int; entries : (int, entry) Hashtbl.t }

let create cfg = { cfg; h = 0; entries = Hashtbl.create 64 }
let low_mark t = t.h
let in_window t n = Config.in_window t.cfg ~h:t.h n
let entry t n = if in_window t n then Hashtbl.find_opt t.entries n else None

let find t n =
  if not (in_window t n) then
    invalid_arg (Printf.sprintf "Log.find: seq %d outside window (h=%d)" n t.h);
  match Hashtbl.find_opt t.entries n with
  | Some e -> e
  | None ->
      let e =
        {
          seq = n;
          pp = None;
          pp_digest = None;
          pp_view = -1;
          self_preprepared = false;
          prepares = Hashtbl.create 8;
          commits = Hashtbl.create 8;
          executed = false;
          exec_tentative = false;
        }
      in
      Hashtbl.replace t.entries n e;
      e

let accept_pre_prepare t ~view pp d =
  let e = find t pp.Message.pp_seq in
  match e.pp_digest with
  | Some d' when e.pp_view = view && not (String.equal d' d) -> false
  | _ ->
      e.pp <- Some pp;
      e.pp_digest <- Some d;
      e.pp_view <- view;
      true

(* Prepares and commits may arrive before the pre-prepare is accepted
   (out-of-order delivery, deferred authentication): create the entry. *)
let add_prepare t (p : Message.prepare) =
  if in_window t p.pr_seq then
    Hashtbl.replace (find t p.pr_seq).prepares p.pr_replica (p.pr_view, p.pr_digest)

let add_commit t (c : Message.commit) =
  if in_window t c.cm_seq then
    Hashtbl.replace (find t c.cm_seq).commits c.cm_replica (c.cm_view, c.cm_digest)

let prepared t ~view ~seq =
  match entry t seq with
  | None -> false
  | Some e -> (
      match e.pp_digest with
      | Some d when e.pp_view = view ->
          let primary = Config.primary t.cfg ~view in
          let matching =
            Hashtbl.fold
              (fun replica (v, d') acc ->
                if replica <> primary && v = view && String.equal d' d then acc + 1
                else acc)
              e.prepares 0
          in
          matching >= 2 * t.cfg.Config.f
      | _ -> false)

let commit_count t ~seq d =
  match entry t seq with
  | None -> 0
  | Some e ->
      Hashtbl.fold
        (fun _ (_, d') acc -> if String.equal d' d then acc + 1 else acc)
        e.commits 0

let committed t ~view ~seq =
  prepared t ~view ~seq
  &&
  match entry t seq with
  | None -> false
  | Some e -> (
      match e.pp_digest with
      | None -> false
      | Some d -> commit_count t ~seq d >= Config.quorum t.cfg)

let truncate t n =
  if n > t.h then begin
    t.h <- n;
    Hashtbl.iter
      (fun seq _ -> if seq <= n then Hashtbl.remove t.entries seq)
      (Hashtbl.copy t.entries)
  end

let iter_window t f =
  let seqs = Hashtbl.fold (fun seq _ acc -> seq :: acc) t.entries [] in
  List.iter (fun seq -> f (Hashtbl.find t.entries seq)) (List.sort compare seqs)

let clear_entries t = Hashtbl.reset t.entries
