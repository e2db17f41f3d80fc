(* The state-transfer walk (Section 5.3.2) without a cluster: a fetcher
   driven against a replier that holds the target checkpoint's partition
   tree, for every shape of the fetcher's own latest tree. *)

open Bft_core
open Message

let page_size = 8
let branching = 2
let cfg = Config.make ~f:1 ()

(* [n] pages of distinct content; [edit] rewrites some of them. *)
let image ?(edit = []) n =
  String.concat ""
    (List.init n (fun i ->
         let tag = if List.mem i edit then 'x' else 'a' in
         Printf.sprintf "%c%07d" tag i))

let tree ?prev ~seq s = Partition_tree.build ?prev ~seq ~page_size ~branching s

let fetch_of tx node =
  match State_transfer.fetch tx ~stable:0 ~self:0 node with
  | Fetch f -> f
  | _ -> Alcotest.fail "not a fetch"

let start target =
  State_transfer.start ~target:(Partition_tree.seq target)
    ~root_digest:(Partition_tree.root_digest target) ~replier:1

(* Replica 1 holds [target]; answer every fetch in order until none is
   pending. Returns the transfer and the page indices fetched as DATA. *)
let walk ~local target =
  let store = Checkpoint_store.create cfg ~page_size ~branching in
  Checkpoint_store.install store target;
  let tx = start target in
  let queue = Queue.of_seq (List.to_seq [ (0, 0) ]) in
  let pages = ref [] in
  while not (Queue.is_empty queue) do
    let verdict =
      match State_transfer.answer store ~self:1 (fetch_of tx (Queue.pop queue)) with
      | Some (Meta_data m) -> State_transfer.on_meta_data tx ~local m
      | Some (Data d) ->
          pages := d.dt_index :: !pages;
          State_transfer.on_data tx d
      | _ -> Alcotest.fail "no answer"
    in
    match verdict with
    | State_transfer.Good fetches -> List.iter (fun f -> Queue.add f queue) fetches
    | _ -> Alcotest.fail "a reply from the replier did not verify"
  done;
  (tx, List.sort compare !pages)

let check_walk name ~local ~target ~fetched =
  let tx, pages = walk ~local target in
  Alcotest.(check (list int)) (name ^ ": fetches only the pages that differ") fetched pages;
  match State_transfer.assemble tx ~local ~page_size ~branching with
  | State_transfer.Rebuilt t ->
      Alcotest.(check string) (name ^ ": target root") (Partition_tree.root_digest target)
        (Partition_tree.root_digest t);
      Alcotest.(check string) (name ^ ": target image") (Partition_tree.snapshot target)
        (Partition_tree.snapshot t)
  | _ -> Alcotest.fail (name ^ ": did not complete")

(* The target keeps the local tree's page records where the bytes agree
   (copy-on-write), as a replica's next checkpoint does. *)
let test_equal_depth () =
  let local = tree ~seq:8 (image 8) in
  let target = tree ~prev:local ~seq:16 (image ~edit:[ 2; 5 ] 8) in
  Alcotest.(check int) "same depth" (Partition_tree.depth local) (Partition_tree.depth target);
  check_walk "equal depth" ~local:(Some local) ~target ~fetched:[ 2; 5 ]

(* A target shallower than the local tree: the walk must learn the
   target's page level from the DATA it receives, not from the local
   tree's depth. *)
let test_target_shallower () =
  let local = tree ~seq:8 (image 16) in
  let target = tree ~prev:local ~seq:16 (image ~edit:[ 1 ] 4) in
  Alcotest.(check bool) "target shallower" true
    (Partition_tree.depth target < Partition_tree.depth local);
  check_walk "target shallower" ~local:(Some local) ~target ~fetched:[ 1 ]

let test_target_deeper () =
  let local = tree ~seq:8 (image 4) in
  let target = tree ~prev:local ~seq:16 (image ~edit:[ 3 ] 16) in
  Alcotest.(check bool) "target deeper" true
    (Partition_tree.depth target > Partition_tree.depth local);
  check_walk "target deeper" ~local:(Some local) ~target ~fetched:(List.init 13 (fun i -> i + 3))

let test_no_local_tree () =
  let target = tree ~seq:16 (image 8) in
  check_walk "no local tree" ~local:None ~target ~fetched:(List.init 8 Fun.id)

(* Bad replies leave the transfer as it was. *)
let test_bad_messages_ignored () =
  let local = tree ~seq:8 (image 8) in
  let target = tree ~prev:local ~seq:16 (image ~edit:[ 2; 5 ] 8) in
  let tx = start target in
  let state () =
    let b = Buffer.create 256 in
    State_transfer.digest tx b;
    (Buffer.contents b, State_transfer.pending tx)
  in
  let root =
    {
      md_checkpoint = 16;
      md_level = 0;
      md_index = 0;
      md_subparts = Partition_tree.children target ~level:0 ~index:0;
      md_replica = 1;
    }
  in
  let before = state () in
  let flip_first = function
    | (i, lm, d) :: rest ->
        (i, lm, String.map (fun c -> Char.chr (Char.code c lxor 1)) d) :: rest
    | [] -> []
  in
  let wrong_child = { root with md_subparts = flip_first root.md_subparts } in
  (match State_transfer.on_meta_data tx ~local:(Some local) wrong_child with
  | State_transfer.Bad -> ()
  | _ -> Alcotest.fail "wrong child digest accepted");
  (match State_transfer.on_data tx { dt_index = 3; dt_lm = 16; dt_page = "a0000003" } with
  | State_transfer.Unexpected -> ()
  | _ -> Alcotest.fail "DATA at an unrequested index accepted");
  (match State_transfer.on_meta_data tx ~local:(Some local) { root with md_checkpoint = 24 } with
  | State_transfer.Unexpected -> ()
  | _ -> Alcotest.fail "META-DATA for another checkpoint accepted");
  Alcotest.(check bool) "state unchanged" true (before = state ());
  match State_transfer.on_meta_data tx ~local:(Some local) root with
  | State_transfer.Good _ -> ()
  | _ -> Alcotest.fail "the genuine META-DATA no longer verifies"

let suites =
  [
    ( "core.state_transfer",
      [
        Alcotest.test_case "equal depth" `Quick test_equal_depth;
        Alcotest.test_case "target shallower than local" `Quick test_target_shallower;
        Alcotest.test_case "target deeper than local" `Quick test_target_deeper;
        Alcotest.test_case "no local tree" `Quick test_no_local_tree;
        Alcotest.test_case "bad messages leave it unchanged" `Quick test_bad_messages_ignored;
      ] );
  ]
