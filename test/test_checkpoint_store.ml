(* Checkpoint store: stability certificates, pruning, certified digests. *)

open Bft_core

let mk ?(auth = Config.Mac_auth) () =
  let cfg = Config.make ~auth_mode:auth ~f:1 () in
  (cfg, Checkpoint_store.create cfg ~page_size:16 ~branching:4)

(* A flat image through the store's one entry: [s] cut into the store's
   16-byte pages, every page listed dirty. *)
let pages_of ?(page_size = 16) s =
  let len = String.length s in
  Array.init (max 1 ((len + page_size - 1) / page_size)) (fun i ->
      String.sub s (i * page_size) (min page_size (len - (i * page_size))))

let take st ~seq s =
  let pages = pages_of s in
  Checkpoint_store.take st ~seq ~pages ~dirty:(List.init (Array.length pages) Fun.id)

let ck ~seq ~digest replica = { Message.ck_seq = seq; ck_digest = digest; ck_replica = replica }

let test_take_and_lookup () =
  let _, st = mk () in
  let t0 = take st ~seq:0 "genesis" in
  Alcotest.(check bool) "tree at 0" true (Checkpoint_store.tree_at st 0 <> None);
  Alcotest.(check bool) "latest" true
    (match Checkpoint_store.latest st with
    | Some t -> Partition_tree.seq t = 0
    | None -> false);
  let t10 = take st ~seq:10 "state10" in
  Alcotest.(check bool) "distinct digests" true
    (not (String.equal (Partition_tree.root_digest t0) (Partition_tree.root_digest t10)));
  Alcotest.(check (list (pair int string))) "held ascending"
    [ (0, Partition_tree.root_digest t0); (10, Partition_tree.root_digest t10) ]
    (Checkpoint_store.held st)

let test_stabilize_quorum_mac_mode () =
  let _, st = mk () in
  let t = take st ~seq:10 "s" in
  let d = Partition_tree.root_digest t in
  Checkpoint_store.add_message st (ck ~seq:10 ~digest:d 0);
  Checkpoint_store.add_message st (ck ~seq:10 ~digest:d 1);
  Alcotest.(check bool) "2 votes insufficient under MACs" true
    (Checkpoint_store.try_stabilize st = None);
  Checkpoint_store.add_message st (ck ~seq:10 ~digest:d 2);
  (match Checkpoint_store.try_stabilize st with
  | Some (10, _) -> ()
  | _ -> Alcotest.fail "expected stabilization at 10");
  Alcotest.(check int) "stable seq" 10 (Checkpoint_store.stable_seq st)

let test_stabilize_weak_sig_mode () =
  let _, st = mk ~auth:Config.Sig_auth () in
  let t = take st ~seq:10 "s" in
  let d = Partition_tree.root_digest t in
  Checkpoint_store.add_message st (ck ~seq:10 ~digest:d 0);
  Alcotest.(check bool) "1 vote insufficient" true (Checkpoint_store.try_stabilize st = None);
  Checkpoint_store.add_message st (ck ~seq:10 ~digest:d 1);
  Alcotest.(check bool) "f+1 suffices under signatures" true
    (Checkpoint_store.try_stabilize st <> None)

let test_stabilize_requires_matching_tree () =
  let _, st = mk () in
  ignore (take st ~seq:10 "local-divergent");
  let d = String.make 32 'x' in
  List.iter (fun i -> Checkpoint_store.add_message st (ck ~seq:10 ~digest:d i)) [ 0; 1; 2 ];
  Alcotest.(check bool) "digest mismatch: no stabilization" true
    (Checkpoint_store.try_stabilize st = None)

let test_stabilize_prunes () =
  let _, st = mk () in
  ignore (take st ~seq:0 "a");
  ignore (take st ~seq:10 "b");
  let t20 = take st ~seq:20 "c" in
  let d = Partition_tree.root_digest t20 in
  List.iter (fun i -> Checkpoint_store.add_message st (ck ~seq:20 ~digest:d i)) [ 0; 1; 2 ];
  ignore (Checkpoint_store.try_stabilize st);
  Alcotest.(check bool) "older trees pruned" true (Checkpoint_store.tree_at st 0 = None);
  Alcotest.(check bool) "10 pruned" true (Checkpoint_store.tree_at st 10 = None);
  Alcotest.(check bool) "stable kept" true (Checkpoint_store.tree_at st 20 <> None)

let test_stabilize_picks_newest () =
  let _, st = mk () in
  let t10 = take st ~seq:10 "b" in
  let t20 = take st ~seq:20 "c" in
  List.iter
    (fun i ->
      Checkpoint_store.add_message st (ck ~seq:10 ~digest:(Partition_tree.root_digest t10) i);
      Checkpoint_store.add_message st (ck ~seq:20 ~digest:(Partition_tree.root_digest t20) i))
    [ 0; 1; 2 ];
  (match Checkpoint_store.try_stabilize st with
  | Some (20, _) -> ()
  | _ -> Alcotest.fail "expected 20")

let test_certified_digest () =
  let _, st = mk () in
  let d = String.make 32 'z' in
  Checkpoint_store.add_message st (ck ~seq:30 ~digest:d 1);
  Alcotest.(check bool) "1 vote not certified" true
    (Checkpoint_store.certified_digest st ~threshold:2 = None);
  Checkpoint_store.add_message st (ck ~seq:30 ~digest:d 2);
  (match Checkpoint_store.certified_digest st ~threshold:2 with
  | Some (30, d') -> Alcotest.(check bool) "digest" true (String.equal d d')
  | _ -> Alcotest.fail "expected certified 30");
  (* conflicting votes from different replicas do not combine *)
  let d2 = String.make 32 'w' in
  Checkpoint_store.add_message st (ck ~seq:40 ~digest:d2 1);
  Checkpoint_store.add_message st (ck ~seq:40 ~digest:(String.make 32 'v') 2);
  (match Checkpoint_store.certified_digest st ~threshold:2 with
  | Some (30, _) -> ()
  | _ -> Alcotest.fail "40 must not be certified with split votes")

let test_duplicate_votes_deduplicated () =
  let _, st = mk () in
  let d = String.make 32 'd' in
  Checkpoint_store.add_message st (ck ~seq:10 ~digest:d 1);
  Checkpoint_store.add_message st (ck ~seq:10 ~digest:d 1);
  Alcotest.(check int) "same replica counted once" 1
    (Checkpoint_store.proof_count st ~seq:10 ~digest:d)

let test_drop_above () =
  let _, st = mk () in
  ignore (take st ~seq:10 "a");
  ignore (take st ~seq:20 "b");
  Checkpoint_store.drop_above st 15;
  Alcotest.(check bool) "20 dropped" true (Checkpoint_store.tree_at st 20 = None);
  Alcotest.(check bool) "10 kept" true (Checkpoint_store.tree_at st 10 <> None)

let test_install () =
  let _, st = mk () in
  let tree = Partition_tree.build ~seq:50 ~page_size:16 ~branching:4 "fetched" in
  Checkpoint_store.install st tree;
  Alcotest.(check bool) "installed" true (Checkpoint_store.tree_at st 50 <> None)

(* One builder: a flat image through [take ~pages ~dirty:(all)] yields
   the tree [Partition_tree.build ?prev] makes of the concatenated image,
   in root digest, digested bytes and write set, over random chains of
   overwrites, growth and shrinkage at page sizes 1-40. *)
let prop_take_equals_build =
  QCheck.Test.make ~name:"take (all dirty) = build ?prev" ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let page_size = 1 + Random.State.int rng 40 and branching = 2 + Random.State.int rng 4 in
      let st = Checkpoint_store.create (Config.make ~f:1 ()) ~page_size ~branching in
      let image = ref (String.make (1 + Random.State.int rng 200) 'a') in
      let prev = ref None in
      List.for_all
        (fun seq ->
          let len = String.length !image in
          let grown = String.make (Random.State.int rng 60) 'g' in
          (image :=
             match Random.State.int rng 3 with
             | 0 ->
                 String.mapi
                   (fun i c -> if Random.State.int rng 8 = 0 then Char.chr (97 + (i mod 26)) else c)
                   !image
             | 1 -> !image ^ grown
             | _ -> String.sub !image 0 (max 1 (len - Random.State.int rng (len + 1))));
          let pages = pages_of ~page_size !image in
          let taken = Checkpoint_store.take st ~seq ~pages ~dirty:(List.init (Array.length pages) Fun.id) in
          let built = Partition_tree.build ?prev:!prev ~seq ~page_size ~branching !image in
          prev := Some built;
          String.equal (Partition_tree.root_digest taken) (Partition_tree.root_digest built)
          && Partition_tree.digested_bytes taken = Partition_tree.digested_bytes built
          && Partition_tree.pages_modified_at taken ~seq = Partition_tree.pages_modified_at built ~seq)
        (List.init 13 Fun.id))

(* --- the checkpoint image, cluster-free --- *)

let exec (s : Bft_sm.Service.t) op = ignore (s.execute ~client:1 ~op ~nondet:"7")

let filled service =
  let img = Checkpoint_image.create service in
  List.iter (fun i -> exec service (Printf.sprintf "put k%d %s" i (String.make i 'v'))) [ 1; 2; 30 ];
  Checkpoint_image.set_reply img 9 (3L, "ok", 1);
  Checkpoint_image.set_reply img 4 (5L, "a\nmultiline result", 0);
  img

let test_image_round_trip () =
  List.iter
    (fun (name, mk) ->
      let img = filled (mk ()) in
      let bytes = Checkpoint_image.render img in
      let fresh = Checkpoint_image.create (mk ()) in
      (match Checkpoint_image.restore fresh bytes with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: own image refused: %s" name e);
      Alcotest.(check string) (name ^ ": same image") bytes (Checkpoint_image.render fresh);
      Alcotest.(check (list int)) (name ^ ": clients ascending") [ 4; 9 ]
        (Checkpoint_image.clients fresh);
      Alcotest.(check bool) (name ^ ": reply kept") true
        (Checkpoint_image.reply fresh 4 = Some (5L, "a\nmultiline result", 0)))
    [
      ("flat", fun () -> Bft_sm.Kv_service.create ());
      ("paged", fun () -> Bft_sm.Kv_service.create ~paged:64 ());
    ]

(* Each take gives the tree [Partition_tree.build ?prev] makes of the
   rendered bytes: the paged dirty set misses no change. *)
let test_image_take_equals_build () =
  List.iter
    (fun (name, service) ->
      let img = filled service in
      let page_size = Checkpoint_image.page_size img in
      let st = Checkpoint_store.create (Config.make ~f:1 ()) ~page_size ~branching:16 in
      let prev = ref None in
      List.iter
        (fun seq ->
          exec service (Printf.sprintf "put k%d %s" (seq mod 3) (String.make seq 'w'));
          Checkpoint_image.set_reply img seq (Int64.of_int seq, "r", 0);
          let taken = Checkpoint_image.take img st ~seq in
          let built =
            Partition_tree.build ?prev:!prev ~seq ~page_size ~branching:16
              (Checkpoint_image.render img)
          in
          prev := Some built;
          Alcotest.(check string) (Printf.sprintf "%s: root at %d" name seq)
            (Bft_util.Hex.encode (Partition_tree.root_digest built))
            (Bft_util.Hex.encode (Partition_tree.root_digest taken));
          Alcotest.(check int) (name ^ ": digested bytes") (Partition_tree.digested_bytes built)
            (Partition_tree.digested_bytes taken))
        [ 1; 2; 3; 40; 41 ])
    [
      ("flat", Bft_sm.Kv_service.create ());
      ("paged", Bft_sm.Kv_service.create ~paged:64 ());
    ]

let suites =
  [
    ( "core.checkpoint_store",
      [
        Alcotest.test_case "take and lookup" `Quick test_take_and_lookup;
        Alcotest.test_case "quorum stability (MAC)" `Quick test_stabilize_quorum_mac_mode;
        Alcotest.test_case "weak stability (sig)" `Quick test_stabilize_weak_sig_mode;
        Alcotest.test_case "needs matching tree" `Quick test_stabilize_requires_matching_tree;
        Alcotest.test_case "stabilize prunes" `Quick test_stabilize_prunes;
        Alcotest.test_case "picks newest" `Quick test_stabilize_picks_newest;
        Alcotest.test_case "certified digest" `Quick test_certified_digest;
        Alcotest.test_case "votes deduplicated" `Quick test_duplicate_votes_deduplicated;
        Alcotest.test_case "drop above" `Quick test_drop_above;
        Alcotest.test_case "install" `Quick test_install;
        QCheck_alcotest.to_alcotest prop_take_equals_build;
      ] );
    ( "core.checkpoint_image",
      [
        Alcotest.test_case "both layouts round-trip" `Quick test_image_round_trip;
        Alcotest.test_case "take = build of the rendered image" `Quick test_image_take_equals_build;
      ] );
  ]
