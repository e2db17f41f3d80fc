(* Hierarchical partition tree: digests, copy-on-write, geometry. *)

open Bft_core

let build ?prev ?(seq = 1) ?(page_size = 16) ?(branching = 4) s =
  Partition_tree.build ?prev ~seq ~page_size ~branching s

let test_empty_state () =
  let t = build "" in
  Alcotest.(check int) "one page" 1 (Partition_tree.num_pages t);
  Alcotest.(check int) "two levels" 2 (Partition_tree.depth t);
  Alcotest.(check string) "page empty" "" (Partition_tree.page t 0).Partition_tree.data;
  Alcotest.(check string) "snapshot" "" (Partition_tree.snapshot t)

let test_snapshot_roundtrip () =
  List.iter
    (fun len ->
      let s = String.init len (fun i -> Char.chr (i mod 256)) in
      let t = build s in
      Alcotest.(check string) (Printf.sprintf "len=%d" len) s (Partition_tree.snapshot t))
    [ 0; 1; 15; 16; 17; 64; 65; 255; 1024 ]

let test_page_count () =
  Alcotest.(check int) "17 bytes -> 2 pages" 2 (Partition_tree.num_pages (build (String.make 17 'a')));
  Alcotest.(check int) "16 bytes -> 1 page" 1 (Partition_tree.num_pages (build (String.make 16 'a')));
  (* 5 pages with branching 4 -> pages, one meta level of 2, root: depth 3 *)
  let t = build (String.make 80 'a') in
  Alcotest.(check int) "80 bytes -> 5 pages" 5 (Partition_tree.num_pages t);
  Alcotest.(check int) "depth 3" 3 (Partition_tree.depth t)

let test_root_digest_changes_with_content () =
  let t1 = build (String.make 64 'a') in
  let t2 = build (String.make 64 'b') in
  Alcotest.(check bool) "different content different root" true
    (not (String.equal (Partition_tree.root_digest t1) (Partition_tree.root_digest t2)));
  let t3 = build (String.make 64 'a') in
  Alcotest.(check string) "deterministic"
    (Bft_util.Hex.encode (Partition_tree.root_digest t1))
    (Bft_util.Hex.encode (Partition_tree.root_digest t3))

let test_copy_on_write_reuse () =
  let s1 = String.make 64 'a' in
  let t1 = build ~seq:1 s1 in
  (* change only the second page *)
  let s2 = String.sub s1 0 16 ^ String.make 16 'X' ^ String.sub s1 32 32 in
  let t2 = build ~prev:t1 ~seq:2 s2 in
  Alcotest.(check int) "only 16 bytes re-digested" 16 (Partition_tree.digested_bytes t2);
  (* unchanged pages keep their lm from the earlier checkpoint *)
  Alcotest.(check int) "page 0 lm" 1 (Partition_tree.page t2 0).Partition_tree.lm;
  Alcotest.(check int) "page 1 lm" 2 (Partition_tree.page t2 1).Partition_tree.lm;
  (* physical sharing *)
  Alcotest.(check bool) "page 0 shared" true
    (Partition_tree.page t2 0 == Partition_tree.page t1 0)

let test_incremental_equals_scratch () =
  (* a tree built incrementally must hash identically to one built from
     scratch at the same sequence number *)
  let s1 = String.make 64 'a' in
  let s2 = String.sub s1 0 48 ^ String.make 16 'z' in
  let t1 = build ~seq:1 s1 in
  let incr = build ~prev:t1 ~seq:2 s2 in
  (* from scratch, the unchanged pages must carry lm = 1, which a fresh
     build cannot know; so compare against a fresh chain instead *)
  let fresh1 = build ~seq:1 s1 in
  let fresh2 = build ~prev:fresh1 ~seq:2 s2 in
  Alcotest.(check string) "same root"
    (Bft_util.Hex.encode (Partition_tree.root_digest incr))
    (Bft_util.Hex.encode (Partition_tree.root_digest fresh2))

let test_children_consistent_with_node_info () =
  let t = build (String.make 300 'q') in
  (* walk every interior level and recheck children lists *)
  for level = 0 to Partition_tree.depth t - 2 do
    let width = if level = 0 then 1 else List.length (Partition_tree.children t ~level:(level - 1) ~index:0) in
    ignore width;
    let children = Partition_tree.children t ~level ~index:0 in
    Alcotest.(check bool) (Printf.sprintf "level %d nonempty" level) true (children <> []);
    List.iter
      (fun (idx, lm, d) ->
        let lm', d' = Partition_tree.node_info t ~level:(level + 1) ~index:idx in
        Alcotest.(check int) "lm matches" lm lm';
        Alcotest.(check bool) "digest matches" true (String.equal d d'))
      children
  done

(* The fetcher checks a META-DATA's children with the same digest the tree
   builds its interior nodes with. *)
let test_interior_digest_matches_nodes () =
  let t = build (String.make 300 'q') in
  for level = 0 to Partition_tree.depth t - 2 do
    for index = 0 to Partition_tree.level_width t level - 1 do
      let lm, d = Partition_tree.interior_digest ~level ~index (Partition_tree.children t ~level ~index) in
      let lm', d' = Partition_tree.node_info t ~level ~index in
      Alcotest.(check int) "lm" lm' lm;
      Alcotest.(check bool) (Printf.sprintf "digest at %d/%d" level index) true (String.equal d d')
    done
  done

let test_rebuild_page_matches () =
  let t = build ~seq:5 (String.make 40 'k') in
  let p = Partition_tree.page t 1 in
  let r = Partition_tree.rebuild_page ~index:1 ~lm:p.Partition_tree.lm ~data:p.Partition_tree.data in
  Alcotest.(check bool) "digest reproducible" true
    (String.equal p.Partition_tree.digest r.Partition_tree.digest);
  (* lm participates in the digest: state transfer detects stale pages *)
  let r' = Partition_tree.rebuild_page ~index:1 ~lm:(p.Partition_tree.lm + 1) ~data:p.Partition_tree.data in
  Alcotest.(check bool) "lm in digest" true
    (not (String.equal p.Partition_tree.digest r'.Partition_tree.digest))

let test_page_index_in_digest () =
  let a = Partition_tree.rebuild_page ~index:0 ~lm:1 ~data:"same" in
  let b = Partition_tree.rebuild_page ~index:1 ~lm:1 ~data:"same" in
  Alcotest.(check bool) "index in digest" true
    (not (String.equal a.Partition_tree.digest b.Partition_tree.digest))

let test_growth_and_shrink () =
  let t1 = build ~seq:1 (String.make 32 'a') in
  let t2 = build ~prev:t1 ~seq:2 (String.make 64 'a') in
  Alcotest.(check int) "grown to 4 pages" 4 (Partition_tree.num_pages t2);
  Alcotest.(check string) "snapshot grown" (String.make 64 'a') (Partition_tree.snapshot t2);
  let t3 = build ~prev:t2 ~seq:3 (String.make 8 'a') in
  Alcotest.(check int) "shrunk to 1 page" 1 (Partition_tree.num_pages t3);
  Alcotest.(check string) "snapshot shrunk" (String.make 8 'a') (Partition_tree.snapshot t3)

let test_invalid_args () =
  Alcotest.check_raises "page_size" (Invalid_argument "Partition_tree.build: page_size")
    (fun () -> ignore (Partition_tree.build ~seq:0 ~page_size:0 ~branching:4 ""));
  Alcotest.check_raises "branching" (Invalid_argument "Partition_tree.build: branching")
    (fun () -> ignore (Partition_tree.build ~seq:0 ~page_size:4 ~branching:1 ""));
  let t = build "abc" in
  Alcotest.check_raises "page range" (Invalid_argument "Partition_tree.page") (fun () ->
      ignore (Partition_tree.page t 5))

let prop_snapshot_roundtrip =
  QCheck.Test.make ~name:"snapshot roundtrip (random)" ~count:100
    QCheck.(pair (string_of_size QCheck.Gen.(0 -- 500)) (int_range 1 64))
    (fun (s, page_size) ->
      let t = Partition_tree.build ~seq:1 ~page_size ~branching:3 s in
      String.equal (Partition_tree.snapshot t) s)

let prop_cow_digest_stable =
  QCheck.Test.make ~name:"unchanged state keeps root digest" ~count:50
    (QCheck.string_of_size QCheck.Gen.(0 -- 300))
    (fun s ->
      let t1 = Partition_tree.build ~seq:1 ~page_size:16 ~branching:4 s in
      let t2 = Partition_tree.build ~prev:t1 ~seq:2 ~page_size:16 ~branching:4 s in
      String.equal (Partition_tree.root_digest t1) (Partition_tree.root_digest t2)
      && Partition_tree.digested_bytes t2 = 0)

(* --- incremental update (O(dirty) checkpointing) --- *)

let build_chunks ?prev ~seq ~page_size ~branching chunks =
  Partition_tree.build_pages ?prev ~seq ~page_size ~branching chunks

let test_update_noop () =
  let chunks = [| String.make 16 'a'; String.make 16 'b'; "tail" |] in
  let t1 = build_chunks ~seq:1 ~page_size:16 ~branching:2 chunks in
  let t2 = Partition_tree.update t1 ~seq:2 ~pages:chunks ~dirty:[ 0; 2 ] in
  Alcotest.(check int) "nothing digested" 0 (Partition_tree.digested_bytes t2);
  Alcotest.(check int) "seq advanced" 2 (Partition_tree.seq t2);
  Alcotest.(check string) "root unchanged"
    (Bft_util.Hex.encode (Partition_tree.root_digest t1))
    (Bft_util.Hex.encode (Partition_tree.root_digest t2))

let test_update_sparse_digest_cost () =
  (* 64 pages, one dirtied: exactly one page's bytes are re-hashed *)
  let chunks = Array.init 64 (fun i -> String.make 16 (Char.chr (Char.code 'a' + (i mod 26)))) in
  let t1 = build_chunks ~seq:1 ~page_size:16 ~branching:4 chunks in
  chunks.(17) <- String.make 16 'Z';
  let t2 = Partition_tree.update t1 ~seq:2 ~pages:chunks ~dirty:[ 17 ] in
  Alcotest.(check int) "one page digested" 16 (Partition_tree.digested_bytes t2);
  Alcotest.(check int) "write set of seq 2" 1 (Partition_tree.pages_modified_at t2 ~seq:2);
  (* clean pages and untouched interior subtrees are physically shared *)
  Alcotest.(check bool) "clean page shared" true
    (Partition_tree.page t2 0 == Partition_tree.page t1 0);
  let fresh1 = build_chunks ~seq:1 ~page_size:16 ~branching:4
      (Array.init 64 (fun i -> String.make 16 (Char.chr (Char.code 'a' + (i mod 26))))) in
  let fresh2 = build_chunks ~prev:fresh1 ~seq:2 ~page_size:16 ~branching:4 chunks in
  Alcotest.(check string) "root = from-scratch chain"
    (Bft_util.Hex.encode (Partition_tree.root_digest fresh2))
    (Bft_util.Hex.encode (Partition_tree.root_digest t2))

let test_update_geometry_fallback () =
  let chunks = [| String.make 16 'a'; "bb" |] in
  let t1 = build_chunks ~seq:1 ~page_size:16 ~branching:2 chunks in
  let grown = [| String.make 16 'a'; String.make 16 'b'; "cc" |] in
  let t2 = Partition_tree.update t1 ~seq:2 ~pages:grown ~dirty:[] in
  Alcotest.(check int) "grown to 3 pages" 3 (Partition_tree.num_pages t2);
  let r2 = build_chunks ~prev:t1 ~seq:2 ~page_size:16 ~branching:2 grown in
  Alcotest.(check string) "fallback = build_pages ~prev"
    (Bft_util.Hex.encode (Partition_tree.root_digest r2))
    (Bft_util.Hex.encode (Partition_tree.root_digest t2))

let test_update_invalid () =
  let chunks = [| String.make 16 'a'; "bb" |] in
  let t1 = build_chunks ~seq:1 ~page_size:16 ~branching:2 chunks in
  Alcotest.check_raises "dirty out of range"
    (Invalid_argument "Partition_tree.update: dirty index") (fun () ->
      ignore (Partition_tree.update t1 ~seq:2 ~pages:chunks ~dirty:[ 7 ]));
  Alcotest.check_raises "short interior page"
    (Invalid_argument "Partition_tree.update: short interior page") (fun () ->
      ignore (Partition_tree.update t1 ~seq:2 ~pages:[| "short"; "bb" |] ~dirty:[ 0 ]))

let test_of_pages_mixed_lm () =
  (* state transfer: reassembling pages with their own (older) lms must
     reproduce the incrementally-built root digest *)
  let chunks = Array.init 9 (fun i -> String.make 8 (Char.chr (Char.code 'a' + i))) in
  let t1 = build_chunks ~seq:1 ~page_size:8 ~branching:3 chunks in
  chunks.(4) <- String.make 8 'Q';
  let t2 = Partition_tree.update t1 ~seq:2 ~pages:chunks ~dirty:[ 4 ] in
  let pages = Array.init (Partition_tree.num_pages t2) (Partition_tree.page t2) in
  let re = Partition_tree.of_pages ~seq:2 ~page_size:8 ~branching:3 pages in
  Alcotest.(check string) "root reproduced"
    (Bft_util.Hex.encode (Partition_tree.root_digest t2))
    (Bft_util.Hex.encode (Partition_tree.root_digest re));
  (* a from-scratch build stamps every page with the target seq and cannot
     reproduce it: pages 0..3,5..8 still carry lm = 1 *)
  let scratch = Partition_tree.build ~seq:2 ~page_size:8 ~branching:3 (Partition_tree.snapshot t2) in
  Alcotest.(check bool) "scratch build differs" true
    (not (String.equal (Partition_tree.root_digest scratch) (Partition_tree.root_digest t2)))

let prop_update_equals_build =
  (* random op sequences and (over-approximated) dirty sets: the
     incrementally-updated tree must be byte-identical to the
     copy-on-write from-scratch chain at every node of every level *)
  QCheck.Test.make ~name:"update = build chain (random ops/dirty sets)" ~count:80
    QCheck.(pair (int_range 0 1_000_000) (int_range 1 6))
    (fun (seed, steps) ->
      let st = Random.State.make [| seed |] in
      let page_size = 8 + Random.State.int st 24 in
      let branching = 2 + Random.State.int st 4 in
      let n = 1 + Random.State.int st 40 in
      let last_len = 1 + Random.State.int st page_size in
      let mk_page len = String.init len (fun _ -> Char.chr (Random.State.int st 256)) in
      let pages =
        Array.init n (fun i -> mk_page (if i = n - 1 then last_len else page_size))
      in
      let t_upd = ref (build_chunks ~seq:1 ~page_size ~branching pages) in
      let t_ref = ref (build_chunks ~seq:1 ~page_size ~branching pages) in
      let ok = ref true in
      for s = 2 to 1 + steps do
        let before = Array.copy pages in
        let dirty = ref [] in
        for _ = 1 to 1 + Random.State.int st (max 1 (n / 2)) do
          let i = Random.State.int st n in
          (* sometimes listed dirty without actually changing: the update
             must byte-compare and keep the old record *)
          if Random.State.bool st then pages.(i) <- mk_page (String.length pages.(i));
          dirty := i :: !dirty
        done;
        for _ = 1 to Random.State.int st 3 do
          dirty := Random.State.int st n :: !dirty
        done;
        let chunks = Array.copy pages in
        let prev_u = !t_upd in
        let u = Partition_tree.update prev_u ~seq:s ~pages:chunks ~dirty:!dirty in
        let r = build_chunks ~prev:!t_ref ~seq:s ~page_size ~branching chunks in
        ok :=
          !ok
          && String.equal (Partition_tree.root_digest u) (Partition_tree.root_digest r)
          && Partition_tree.digested_bytes u = Partition_tree.digested_bytes r
          && Partition_tree.depth u = Partition_tree.depth r;
        for level = 0 to Partition_tree.depth u - 1 do
          ok := !ok && Partition_tree.level_width u level = Partition_tree.level_width r level;
          for idx = 0 to Partition_tree.level_width u level - 1 do
            let lmu, du = Partition_tree.node_info u ~level ~index:idx in
            let lmr, dr = Partition_tree.node_info r ~level ~index:idx in
            ok := !ok && lmu = lmr && String.equal du dr
          done
        done;
        (* unchanged pages keep their physical record *)
        for i = 0 to n - 1 do
          if String.equal before.(i) pages.(i) then
            ok := !ok && Partition_tree.page u i == Partition_tree.page prev_u i
        done;
        t_upd := u;
        t_ref := r
      done;
      !ok)

let suites =
  [
    ( "core.partition_tree",
      [
        Alcotest.test_case "empty state" `Quick test_empty_state;
        Alcotest.test_case "snapshot roundtrip" `Quick test_snapshot_roundtrip;
        Alcotest.test_case "page count" `Quick test_page_count;
        Alcotest.test_case "root digest content" `Quick test_root_digest_changes_with_content;
        Alcotest.test_case "copy-on-write reuse" `Quick test_copy_on_write_reuse;
        Alcotest.test_case "incremental = scratch" `Quick test_incremental_equals_scratch;
        Alcotest.test_case "children consistent" `Quick test_children_consistent_with_node_info;
        Alcotest.test_case "interior digest of children" `Quick test_interior_digest_matches_nodes;
        Alcotest.test_case "rebuild page" `Quick test_rebuild_page_matches;
        Alcotest.test_case "index in digest" `Quick test_page_index_in_digest;
        Alcotest.test_case "growth and shrink" `Quick test_growth_and_shrink;
        Alcotest.test_case "invalid args" `Quick test_invalid_args;
        Alcotest.test_case "update: no-op" `Quick test_update_noop;
        Alcotest.test_case "update: sparse digest cost" `Quick test_update_sparse_digest_cost;
        Alcotest.test_case "update: geometry fallback" `Quick test_update_geometry_fallback;
        Alcotest.test_case "update: invalid args" `Quick test_update_invalid;
        Alcotest.test_case "of_pages: mixed lm" `Quick test_of_pages_mixed_lm;
        QCheck_alcotest.to_alcotest prop_snapshot_roundtrip;
        QCheck_alcotest.to_alcotest prop_cow_digest_stable;
        QCheck_alcotest.to_alcotest prop_update_equals_build;
      ] );
  ]
