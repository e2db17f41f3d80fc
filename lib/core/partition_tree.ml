[@@@lint.protocol_core]
type digest = string
type page = { data : string; lm : int; digest : digest }

(* Interior nodes carry the AdHash accumulator (sum of child digests
   modulo 2^256) alongside the tagged digest derived from it, so an
   incremental update can subtract the old child digest and add the new
   one without touching the siblings. *)
type node = { n_lm : int; n_digest : digest; n_acc : Bft_crypto.Adhash.t }

type t = {
  seq : int;
  page_size : int;
  branching : int;
  pages : page array;
  interior : node array array; (* interior.(l) for levels 0 .. depth-2 *)
  digested_bytes : int;
}

(* A tagged header, then the body, fed to one streaming context: a page is
   hashed where it lies, never copied into a staging buffer. *)
let tagged_digest header body =
  let ctx = Bft_crypto.Sha256.init () in
  Bft_crypto.Sha256.feed ctx header;
  Bft_crypto.Sha256.feed ctx body;
  Bft_crypto.Sha256.finalize ctx

let page_digest ~index ~lm ~data =
  tagged_digest ("PAGE" ^ string_of_int index ^ ":" ^ string_of_int lm ^ ":") data

let rebuild_page ~index ~lm ~data = { data; lm; digest = page_digest ~index ~lm ~data }

let split_pages page_size s =
  let len = String.length s in
  let n = max 1 ((len + page_size - 1) / page_size) in
  Array.init n (fun i ->
      let off = i * page_size in
      let l = min page_size (len - off) in
      if l <= 0 then "" else String.sub s off l)

let interior_digest_of_acc ~level ~index ~lm acc =
  tagged_digest
    ("META" ^ string_of_int level ^ ":" ^ string_of_int index ^ ":" ^ string_of_int lm ^ ":")
    (Bft_crypto.Adhash.to_string acc)

(* The interior node over its children's [(index, lm, digest)]: the
   largest child lm, and the tagged digest of the AdHash sum of the child
   digests. *)
let interior_node ~level ~index children =
  let lm, acc =
    List.fold_left
      (fun (lm, acc) (_, clm, cd) ->
        (max lm clm, Bft_crypto.Adhash.add acc (Bft_crypto.Adhash.of_digest cd)))
      (0, Bft_crypto.Adhash.zero) children
  in
  { n_lm = lm; n_digest = interior_digest_of_acc ~level ~index ~lm acc; n_acc = acc }

let interior_digest ~level ~index children =
  let n = interior_node ~level ~index children in
  (n.n_lm, n.n_digest)

let num_interior_levels ~branching ~num_pages =
  (* levels above the page level, at least 1 (the root) *)
  let rec go width acc = if width <= 1 then acc else go ((width + branching - 1) / branching) (acc + 1) in
  max 1 (go num_pages 0)

(* All interior levels from scratch, bottom-up; level depth-2 groups pages. *)
let build_interior ~branching pages =
  let n_int = num_interior_levels ~branching ~num_pages:(Array.length pages) in
  let interior = Array.make n_int [||] in
  let lower_lm_digest = ref (Array.map (fun p -> (p.lm, p.digest)) pages) in
  for l = n_int - 1 downto 0 do
    let lower = !lower_lm_digest in
    let width = (Array.length lower + branching - 1) / branching in
    let width = max 1 width in
    let nodes =
      Array.init width (fun i ->
          let first = i * branching in
          let last = min ((i + 1) * branching) (Array.length lower) - 1 in
          interior_node ~level:l ~index:i
            (List.init (last - first + 1) (fun k ->
                 let clm, cd = lower.(first + k) in
                 (first + k, clm, cd))))
    in
    interior.(l) <- nodes;
    lower_lm_digest := Array.map (fun n -> (n.n_lm, n.n_digest)) nodes
  done;
  assert (Array.length interior.(0) = 1);
  interior

let check_page_shape ~who ~page_size chunks =
  let n = Array.length chunks in
  if n = 0 then invalid_arg (who ^ ": empty page array");
  for i = 0 to n - 2 do
    if String.length chunks.(i) <> page_size then invalid_arg (who ^ ": short interior page")
  done;
  let last = String.length chunks.(n - 1) in
  if last > page_size || (last = 0 && n > 1) then invalid_arg (who ^ ": bad last page")

let build_pages ?prev ~seq ~page_size ~branching chunks =
  if page_size <= 0 then invalid_arg "Partition_tree.build_pages: page_size";
  if branching < 2 then invalid_arg "Partition_tree.build_pages: branching";
  check_page_shape ~who:"Partition_tree.build_pages" ~page_size chunks;
  let digested = ref 0 in
  let reuse =
    match prev with
    | Some p when p.page_size = page_size && p.branching = branching -> Some p
    | _ -> None
  in
  let pages =
    Array.mapi
      (fun i data ->
        match reuse with
        | Some p when i < Array.length p.pages && String.equal p.pages.(i).data data ->
            p.pages.(i)
        | _ ->
            digested := !digested + String.length data;
            { data; lm = seq; digest = page_digest ~index:i ~lm:seq ~data })
      chunks
  in
  let interior = build_interior ~branching pages in
  { seq; page_size; branching; pages; interior; digested_bytes = !digested }

let build ?prev ~seq ~page_size ~branching snapshot =
  if page_size <= 0 then invalid_arg "Partition_tree.build: page_size";
  if branching < 2 then invalid_arg "Partition_tree.build: branching";
  build_pages ?prev ~seq ~page_size ~branching (split_pages page_size snapshot)

let of_pages ~seq ~page_size ~branching pages =
  if page_size <= 0 then invalid_arg "Partition_tree.of_pages: page_size";
  if branching < 2 then invalid_arg "Partition_tree.of_pages: branching";
  check_page_shape ~who:"Partition_tree.of_pages" ~page_size
    (Array.map (fun p -> p.data) pages);
  let total = Array.fold_left (fun a p -> a + String.length p.data) 0 pages in
  let interior = build_interior ~branching pages in
  { seq; page_size; branching; pages = Array.copy pages; interior; digested_bytes = total }

let update prev ~seq ~pages:chunks ~dirty =
  let page_size = prev.page_size and branching = prev.branching in
  let n = Array.length chunks in
  if n <> Array.length prev.pages || seq <= prev.seq then
    (* Geometry change (or a re-take at an old sequence number): fall back
       to the copy-on-write full build; page records still shared. *)
    build_pages ~prev ~seq ~page_size ~branching chunks
  else begin
    check_page_shape ~who:"Partition_tree.update" ~page_size chunks;
    let digested = ref 0 in
    let pages = Array.copy prev.pages in
    (* (child index, old digest, new digest, child lm) of page-level changes *)
    let changed = ref [] in
    List.iter
      (fun i ->
        if i < 0 || i >= n then invalid_arg "Partition_tree.update: dirty index";
        let old_p = prev.pages.(i) in
        if pages.(i) == old_p then begin
          (* not yet replaced by a duplicate dirty entry *)
          let data = chunks.(i) in
          if not (String.equal old_p.data data) then begin
            digested := !digested + String.length data;
            let p = { data; lm = seq; digest = page_digest ~index:i ~lm:seq ~data } in
            pages.(i) <- p;
            changed := (i, old_p.digest, p.digest, seq) :: !changed
          end
        end)
      dirty;
    if !changed = [] then { prev with seq; pages = prev.pages; digested_bytes = 0 }
    else begin
      let interior = Array.map Array.copy prev.interior in
      let n_int = Array.length interior in
      let level_changes = ref !changed in
      for l = n_int - 1 downto 0 do
        (* Fold this level's child deltas into their parents: each parent's
           accumulator gets (new - old) per changed child; untouched
           siblings are never revisited. *)
        let deltas = Hashtbl.create 8 in
        List.iter
          (fun (ci, od, nd, clm) ->
            let parent = ci / branching in
            let acc, lm =
              match Hashtbl.find_opt deltas parent with
              | Some x -> x
              | None -> (Bft_crypto.Adhash.zero, 0)
            in
            let acc =
              Bft_crypto.Adhash.add
                (Bft_crypto.Adhash.sub acc (Bft_crypto.Adhash.of_digest od))
                (Bft_crypto.Adhash.of_digest nd)
            in
            Hashtbl.replace deltas parent (acc, max lm clm))
          !level_changes;
        let next = ref [] in
        Hashtbl.iter
          (fun parent (delta, clm) ->
            let old_node = interior.(l).(parent) in
            let acc = Bft_crypto.Adhash.add old_node.n_acc delta in
            let lm = max old_node.n_lm clm in
            let node =
              { n_lm = lm;
                n_digest = interior_digest_of_acc ~level:l ~index:parent ~lm acc;
                n_acc = acc }
            in
            interior.(l).(parent) <- node;
            next := (parent, old_node.n_digest, node.n_digest, lm) :: !next)
          deltas;
        level_changes := !next
      done;
      { seq; page_size; branching; pages; interior; digested_bytes = !digested }
    end
  end

let seq t = t.seq
let root_digest t = t.interior.(0).(0).n_digest
let num_pages t = Array.length t.pages
let depth t = Array.length t.interior + 1

let page t i =
  if i < 0 || i >= Array.length t.pages then invalid_arg "Partition_tree.page";
  t.pages.(i)

let node_info t ~level ~index =
  let page_level = Array.length t.interior in
  if level = page_level then begin
    let p = page t index in
    (p.lm, p.digest)
  end
  else begin
    if level < 0 || level > page_level then invalid_arg "Partition_tree.node_info";
    let n = t.interior.(level).(index) in
    (n.n_lm, n.n_digest)
  end

let level_width t level =
  let page_level = Array.length t.interior in
  if level = page_level then Array.length t.pages
  else if level >= 0 && level < page_level then Array.length t.interior.(level)
  else invalid_arg "Partition_tree.level_width"

let child_range t ~level ~index =
  let page_level = Array.length t.interior in
  if level >= page_level then invalid_arg "Partition_tree.child_range: page level";
  let lower_width =
    if level + 1 = page_level then Array.length t.pages
    else Array.length t.interior.(level + 1)
  in
  let first = index * t.branching in
  let last = min ((index + 1) * t.branching) lower_width - 1 in
  (first, last)

let children t ~level ~index =
  let first, last = child_range t ~level ~index in
  let infos = ref [] in
  for c = last downto first do
    let lm, d = node_info t ~level:(level + 1) ~index:c in
    infos := (c, lm, d) :: !infos
  done;
  !infos

let snapshot t =
  let b = Buffer.create (Array.length t.pages * t.page_size) in
  Array.iter (fun p -> Buffer.add_string b p.data) t.pages;
  Buffer.contents b

let digested_bytes t = t.digested_bytes
let page_size t = t.page_size
let branching t = t.branching

let pages_modified_at t ~seq =
  let c = ref 0 in
  Array.iter (fun p -> if p.lm = seq then incr c) t.pages;
  !c
