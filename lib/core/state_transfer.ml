[@@@lint.protocol_core]
open Message

type t = {
  target : int; (* checkpoint sequence number being fetched *)
  root_digest : string;
  (* (level, index) -> expected (lm, digest), learnt walking down from the
     certified root *)
  expected : (int * int, int * string) Hashtbl.t;
  (* partitions fetched but unanswered. Retries re-send them in this
     table's iteration order, so its key type and insert/remove sequence
     are part of the protocol's bytes. *)
  pending : (int * int, unit) Hashtbl.t;
  pages : (int, Partition_tree.page) Hashtbl.t; (* verified fetched pages *)
  current : (int, unit) Hashtbl.t; (* local pages proven up to date *)
  mutable deepest : int; (* deepest level in [expected] *)
  mutable replier : int;
}

let expect t ~level ~index lm_digest =
  Hashtbl.replace t.expected (level, index) lm_digest;
  Hashtbl.replace t.pending (level, index) ();
  t.deepest <- max t.deepest level

let start ~target ~root_digest ~replier =
  let t =
    {
      target;
      root_digest;
      expected = Hashtbl.create 32;
      pending = Hashtbl.create 8;
      pages = Hashtbl.create 32;
      current = Hashtbl.create 32;
      deepest = 0;
      replier;
    }
  in
  expect t ~level:0 ~index:0 (target, root_digest);
  t

let target t = t.target
let root_digest t = t.root_digest
let set_replier t r = t.replier <- r

let fetch t ~stable ~self (level, index) =
  Fetch
    {
      ft_level = level;
      ft_index = index;
      ft_lc = stable;
      ft_rc = t.target;
      ft_replier = t.replier;
      ft_replica = self;
    }

let pending t = List.rev (Hashtbl.fold (fun k () acc -> k :: acc) t.pending [])

type 'a verdict = Unexpected | Bad | Good of 'a

(* First and last page under a node of [tree]: child ranges are
   contiguous, so descend the leftmost and the rightmost edge. *)
let pages_under tree ~level ~index =
  let page_level = Partition_tree.depth tree - 1 in
  let rec go level first last =
    if level >= page_level then (first, last)
    else
      go (level + 1)
        (fst (Partition_tree.child_range tree ~level ~index:first))
        (snd (Partition_tree.child_range tree ~level ~index:last))
  in
  go level index index

(* The local pages a target child proves current: all pages under the
   local node at the child's position, or the local page at its index,
   when either carries the child's (lm, digest). Interior digests depend
   on their level and page digests do not, and the two are
   domain-separated, so the rule holds whatever the two trees' depths. *)
let local_match local ~level ~index ~lm ~digest =
  let same (lm', d') = lm = lm' && String.equal d' digest in
  match local with
  | None -> None
  | Some tree -> (
      match Partition_tree.node_info tree ~level ~index with
      | info when same info -> Some (pages_under tree ~level ~index)
      | _ | (exception Invalid_argument _) ->
          if
            index >= 0
            && index < Partition_tree.num_pages tree
            &&
            let p = Partition_tree.page tree index in
            same (p.Partition_tree.lm, p.Partition_tree.digest)
          then Some (index, index)
          else None)

let on_meta_data t ~local (m : meta_data) =
  match Hashtbl.find_opt t.expected (m.md_level, m.md_index) with
  | Some (exp_lm, exp_digest) when m.md_checkpoint = t.target ->
      let lm, digest =
        Partition_tree.interior_digest ~level:m.md_level ~index:m.md_index m.md_subparts
      in
      if lm <> exp_lm || not (String.equal digest exp_digest) then Bad
      else begin
        Hashtbl.remove t.pending (m.md_level, m.md_index);
        let level = m.md_level + 1 in
        Good
          (List.filter_map
             (fun (index, lm, digest) ->
               match local_match local ~level ~index ~lm ~digest with
               | Some (first, last) ->
                   for i = first to last do
                     Hashtbl.replace t.current i ()
                   done;
                   None
               | None ->
                   expect t ~level ~index (lm, digest);
                   Some (level, index))
             m.md_subparts)
      end
  | _ -> Unexpected

let on_data t (d : data) =
  let rec expected_at level acc =
    if level < 0 then acc
    else
      expected_at (level - 1)
        (match Hashtbl.find_opt t.expected (level, d.dt_index) with
        | Some e -> (level, e) :: acc
        | None -> acc)
  in
  match expected_at t.deepest [] with
  | [] -> Unexpected
  | candidates -> (
      let page = Partition_tree.rebuild_page ~index:d.dt_index ~lm:d.dt_lm ~data:d.dt_page in
      match
        List.find_opt
          (fun (_, (lm, digest)) ->
            lm = d.dt_lm && String.equal digest page.Partition_tree.digest)
          candidates
      with
      | None -> Bad
      | Some (level, _) ->
          Hashtbl.replace t.pages d.dt_index page;
          Hashtbl.remove t.pending (level, d.dt_index);
          Good [])

type assembled =
  | Incomplete
  | Rebuilt of Partition_tree.t
  | Wrong_root of Partition_tree.t
  | Malformed

let assemble t ~local ~page_size ~branching =
  let last = Hashtbl.fold (fun i _ acc -> max i acc) t.pages (-1) in
  let last = Hashtbl.fold (fun i () acc -> max i acc) t.current last in
  if Hashtbl.length t.pending > 0 || last < 0 then Incomplete
  else
    (* fetched pages where we fetched, local pages where they were proven
       current — each keeps its own lm, so the rebuilt tree reproduces the
       sender's digests even when clean pages predate the target *)
    let page i =
      match Hashtbl.find_opt t.pages i with
      | Some p -> Some p
      | None -> (
          match local with
          | Some tree when Hashtbl.mem t.current i && i < Partition_tree.num_pages tree ->
              Some (Partition_tree.page tree i)
          | _ -> None)
    in
    let pages = List.init (last + 1) page in
    if List.exists Option.is_none pages then Incomplete
    else
      match
        Partition_tree.of_pages ~seq:t.target ~page_size ~branching
          (Array.of_list (List.filter_map Fun.id pages))
      with
      | exception Invalid_argument _ -> Malformed
      | tree ->
          if String.equal (Partition_tree.root_digest tree) t.root_digest then Rebuilt tree
          else Wrong_root tree

(* The replier's side: META-DATA for an interior partition, DATA for a
   page — from the checkpoint asked for, or from a newer stable one when
   that is gone (Section 5.3.2). Only the designated replier sends pages;
   any replica holding a newer checkpoint describes its partitions. *)
let answer ckpts ~self (f : fetch) =
  let from_tree tree =
    if f.ft_level >= Partition_tree.depth tree - 1 then begin
      if f.ft_index >= 0 && f.ft_index < Partition_tree.num_pages tree && f.ft_replier = self
      then
        let p = Partition_tree.page tree f.ft_index in
        Some
          (Data
             { dt_index = f.ft_index; dt_lm = p.Partition_tree.lm; dt_page = p.Partition_tree.data })
      else None
    end
    else if f.ft_replier = self || Partition_tree.seq tree > max f.ft_lc f.ft_rc then
      match Partition_tree.children tree ~level:f.ft_level ~index:f.ft_index with
      | children ->
          Some
            (Meta_data
               {
                 md_checkpoint = Partition_tree.seq tree;
                 md_level = f.ft_level;
                 md_index = f.ft_index;
                 md_subparts = children;
                 md_replica = self;
               })
      | exception Invalid_argument _ -> None
    else None
  in
  if f.ft_replica = self then None
  else
    match Checkpoint_store.tree_at ckpts f.ft_rc with
    | Some tree -> from_tree tree
    | None -> (
        match Checkpoint_store.stable_tree ckpts with
        | Some tree when Partition_tree.seq tree > max f.ft_lc f.ft_rc -> from_tree tree
        | _ -> None)

let digest
    { target; root_digest; expected; pending; pages; current; replier;
      deepest = _ (* the largest level among [expected]'s keys *) } b =
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let hexd = Bft_util.Hex.encode in
  add "|tx=%d:%s:%d:pend%d:pages%d:ok%d(" target (hexd root_digest) replier
    (Hashtbl.length pending) (Hashtbl.length pages) (Hashtbl.length current);
  List.iter
    (fun ((l, i), (lm, d)) -> add "%d:%d:%d:%s;" l i lm (hexd d))
    (List.sort
       (fun (a, _) (b, _) -> compare a b)
       (Hashtbl.fold (fun k v acc -> (k, v) :: acc) expected []));
  add ")"
