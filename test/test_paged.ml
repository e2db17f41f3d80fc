(* Incremental checkpointing: the paged record arena, dirty-aware services,
   hardened replica snapshot restore, and paged end-to-end clusters. *)

open Bft_core
module Img = Bft_sm.Paged_image

(* --- paged record arena --- *)

let test_image_roundtrip () =
  let a = Img.create ~page_size:64 () in
  Img.set a ~key:"alpha" ~value:"1";
  Img.set a ~key:"beta" ~value:"two";
  Img.set a ~key:"alpha" ~value:"9";
  Alcotest.(check (option string)) "updated" (Some "9") (Img.find a ~key:"alpha");
  Alcotest.(check (option string)) "other" (Some "two") (Img.find a ~key:"beta");
  Alcotest.(check bool) "remove" true (Img.remove a ~key:"beta");
  Alcotest.(check bool) "remove again" false (Img.remove a ~key:"beta");
  Alcotest.(check (option string)) "gone" None (Img.find a ~key:"beta");
  Alcotest.(check int) "one record left" 1 (Img.length a);
  Alcotest.(check string) "image = concat pages"
    (String.concat "" (Array.to_list (Img.pages a)))
    (Img.image a);
  (* restore into a fresh arena reproduces the exact bytes *)
  let b = Img.create ~page_size:64 () in
  (match Img.restore b (Img.image a) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "restore failed: %s" e);
  Alcotest.(check string) "restored image" (Img.image a) (Img.image b)

let test_image_page_shape_and_sharing () =
  let a = Img.create ~page_size:32 () in
  for i = 1 to 40 do
    Img.set a ~key:(Printf.sprintf "k%03d" i) ~value:(Printf.sprintf "v%03d" i)
  done;
  let ps = Img.pages a in
  Array.iter (fun p -> Alcotest.(check int) "full page" 32 (String.length p)) ps;
  (* a second call returns physically identical strings *)
  let ps' = Img.pages a in
  Array.iteri
    (fun i p ->
      Alcotest.(check bool) "shared" true ((p == ps'.(i)) [@lint.allow "digest-compare"]))
    ps;
  (* an in-place overwrite leaves untouched pages physically shared *)
  Img.set a ~key:"k001" ~value:"V001";
  let ps'' = Img.pages a in
  let shared = ref 0 in
  (* physical sharing is the property under test *)
  Array.iteri
    (fun i p ->
      if i < Array.length ps && ((p == ps.(i)) [@lint.allow "digest-compare"]) then incr shared)
    ps'';
  Alcotest.(check bool)
    (Printf.sprintf "most pages shared (%d/%d)" !shared (Array.length ps''))
    true
    (!shared >= Array.length ps'' - 2)

let test_image_dirty_tracking () =
  let a = Img.create ~page_size:32 () in
  ignore (Img.drain_dirty a);
  Alcotest.(check (list int)) "clean after drain" [] (Img.drain_dirty a);
  (* push the record of interest past page 0 so header and record pages
     are distinguishable *)
  Img.set a ~key:"filler" ~value:(String.make 40 'f');
  Img.set a ~key:"k" ~value:(String.make 32 'a');
  ignore (Img.drain_dirty a);
  (* rewriting a record with identical bytes dirties nothing *)
  Img.set a ~key:"k" ~value:(String.make 32 'a');
  Alcotest.(check (list int)) "identical rewrite" [] (Img.drain_dirty a);
  (* a same-length in-place change dirties only the record's pages, not the
     header (no allocation) *)
  Img.set a ~key:"k" ~value:(String.make 32 'b');
  let d = Img.drain_dirty a in
  Alcotest.(check bool) "no header page" true (not (List.mem 0 d));
  Alcotest.(check bool) "some page dirty" true (d <> []);
  (* an allocation moves the bump pointer: page 0 is dirty again *)
  Img.set a ~key:"k2" ~value:"fresh";
  Alcotest.(check bool) "header dirty on alloc" true (List.mem 0 (Img.drain_dirty a))

let test_image_determinism_across_restore () =
  (* a replica that restored mid-history must produce byte-identical
     images from the same subsequent operations *)
  let ops1 = List.init 20 (fun i -> (Printf.sprintf "k%d" i, Printf.sprintf "v%d" i)) in
  let ops2 = List.init 10 (fun i -> (Printf.sprintf "k%d" (2 * i), Printf.sprintf "w%d" i)) in
  let a = Img.create ~page_size:64 () in
  List.iter (fun (k, v) -> Img.set a ~key:k ~value:v) ops1;
  let b = Img.create ~page_size:64 () in
  (match Img.restore b (Img.image a) with Ok _ -> () | Error e -> Alcotest.fail e);
  List.iter
    (fun (k, v) ->
      Img.set a ~key:k ~value:v;
      Img.set b ~key:k ~value:v)
    ops2;
  ignore (Img.remove a ~key:"k3");
  ignore (Img.remove b ~key:"k3");
  Alcotest.(check string) "identical images" (Img.image a) (Img.image b)

let test_image_decode_malformed () =
  let a = Img.create ~page_size:32 () in
  Img.set a ~key:"key" ~value:"value";
  let good = Img.image a in
  let corrupt pos c = String.mapi (fun i ch -> if i = pos then c else ch) good in
  let is_err s =
    match Img.decode ~page_size:32 s with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "good decodes" false (is_err good);
  Alcotest.(check bool) "garbage" true (is_err "nonsense");
  Alcotest.(check bool) "empty" true (is_err "");
  Alcotest.(check bool) "bad header" true (is_err (corrupt 6 'x'));
  Alcotest.(check bool) "bad record" true (is_err (corrupt 20 '\255'));
  Alcotest.(check bool) "truncated" true (is_err (String.sub good 0 (String.length good - 1)));
  Alcotest.(check bool) "nonzero tail" true
    (is_err (corrupt (String.length good - 1) 'x'));
  (* restore is atomic: a rejected image leaves the arena untouched *)
  (match Img.restore a (corrupt 20 '\255') with
  | Ok _ -> Alcotest.fail "corrupt image accepted"
  | Error _ -> ());
  Alcotest.(check string) "arena untouched" good (Img.image a);
  Alcotest.(check (option string)) "record intact" (Some "value") (Img.find a ~key:"key")

(* The bump pointer, read from the image's "ARENA <12 digits>" header *)
let bump a = int_of_string (String.sub (Img.image a) 6 12)

let physically_same a b = (a == b) [@lint.allow "digest-compare"]

(* Pages hand out the arena's own buffers, so the arena copies a page
   before writing it: a string [pages] returned never changes, whatever
   follows (overwrites, records across pages, frees, growth,
   [restore]). At every [pages] call the image is the pages' concatenation. *)
type img_op = Set of int * int | Remove of int | Pages | Restore of int

let prop_pages_never_change =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (8, map2 (fun k v -> Set (k, v)) (int_range 0 7) (int_range 0 70));
        (2, map (fun k -> Remove k) (int_range 0 7));
        (3, return Pages);
        (1, map (fun i -> Restore i) (int_range 0 9));
      ]
  in
  let print =
    let show = function
      | Set (k, v) -> Printf.sprintf "set k%d %d" k v
      | Remove k -> Printf.sprintf "remove k%d" k
      | Pages -> "pages"
      | Restore i -> Printf.sprintf "restore %d" i
    in
    fun ops -> String.concat "; " (List.map show ops)
  in
  QCheck.Test.make ~name:"handed-out pages never change" ~count:300
    (QCheck.make ~print (list_size (int_range 0 60) op))
    (fun ops ->
      let a = Img.create ~page_size:32 () in
      let handed = ref [] and images = ref [ Img.image a ] in
      List.iteri
        (fun i op ->
          match op with
          | Set (k, v) ->
              Img.set a ~key:(Printf.sprintf "k%d" k) ~value:(String.make v (Char.chr (65 + (i mod 26))))
          | Remove k -> ignore (Img.remove a ~key:(Printf.sprintf "k%d" k))
          | Pages ->
              let ps = Img.pages a in
              if not (String.equal (Img.image a) (String.concat "" (Array.to_list ps))) then
                QCheck.Test.fail_reportf "step %d: image <> concatenated pages" i;
              Array.iter (fun p -> handed := (p, String.sub p 0 (String.length p)) :: !handed) ps;
              images := Img.image a :: !images
          | Restore j -> (
              let im = List.nth !images (j mod List.length !images) in
              match Img.restore a im with
              | Ok _ -> ()
              | Error e -> QCheck.Test.fail_reportf "step %d: restore: %s" i e))
        ops;
      List.for_all (fun (p, copy) -> String.equal p copy) !handed)

(* An unwritten page is the same string from one [pages] call to the
   next, and every page past the bump pointer is one shared zero page —
   after growth and after [restore] alike. *)
let test_image_unwritten_pages_shared () =
  let p = 64 in
  let a = Img.create ~page_size:p () in
  let i = ref 0 in
  (* grow until at least two pages lie wholly past the bump pointer *)
  while Array.length (Img.pages a) * p - bump a < 2 * p do
    Img.set a ~key:(Printf.sprintf "k%03d" !i) ~value:"0123456789";
    incr i
  done;
  let check_zero_shared name a =
    let ps = Img.pages a in
    let past = List.filter (fun pg -> pg * p >= bump a) (List.init (Array.length ps) Fun.id) in
    Alcotest.(check bool) (name ^ ": two or more pages past the bump pointer") true
      (List.length past >= 2);
    List.iter
      (fun pg ->
        Alcotest.(check string) (name ^ ": zero") (String.make p '\000') ps.(pg);
        Alcotest.(check bool)
          (Printf.sprintf "%s: page %d is the shared zero page" name pg)
          true
          (physically_same ps.(pg) ps.(List.hd past)))
      past
  in
  check_zero_shared "grown" a;
  let before = Img.pages a in
  (* an in-place overwrite of k000 touches only its own page *)
  Img.set a ~key:"k000" ~value:"abcdefghij";
  let after = Img.pages a in
  let changed =
    List.filter (fun pg -> not (physically_same before.(pg) after.(pg)))
      (List.init (Array.length after) Fun.id)
  in
  Alcotest.(check (list int)) "only the written page is a new string" [ 0 ] changed;
  let b = Img.create ~page_size:p () in
  (match Img.restore b (Img.image a) with Ok _ -> () | Error e -> Alcotest.fail e);
  check_zero_shared "restored" b

(* --- paged key-value service --- *)

let exec (s : Bft_sm.Service.t) ?(client = 5) ?(nondet = "") op =
  s.Bft_sm.Service.execute ~client ~op ~nondet

let kv_ops =
  [ "put a 1"; "put b 2"; "put c 3"; "cas a 1 10"; "cas b 9 x"; "del c";
    "touch t"; "put a 11"; "get a"; "get b"; "get c"; "size"; "del nope" ]

(* Random op sequences from random clients give the same results flat
   and paged, across a snapshot/restore round trip partway through: each
   store is replaced by a fresh one restored from its own snapshot. *)
let prop_kv_paged_equiv_flat =
  let open QCheck.Gen in
  let key = oneofl [ "a"; "b"; "c"; "d" ] and value = oneofl [ "1"; "2"; "xyz"; "" ] in
  let op =
    oneof
      [
        map2 (Printf.sprintf "put %s %s") key value;
        map (Printf.sprintf "get %s") key;
        map (Printf.sprintf "del %s") key;
        map3 (Printf.sprintf "cas %s %s %s") key value value;
        map (Printf.sprintf "touch %s") key;
        return "size";
        map (Printf.sprintf "grant %d") (int_range 5 7);
        map (Printf.sprintf "revoke %d") (int_range 5 7);
        return "bogus";
      ]
  in
  let step = pair (oneofl [ 0; 5; 6 ]) op in
  let case = pair (list_size (int_range 0 40) step) (int_range 0 40) in
  let print (steps, cut) =
    Printf.sprintf "cut %d: %s" cut
      (String.concat "; " (List.map (fun (c, op) -> Printf.sprintf "%d:%s" c op) steps))
  in
  QCheck.Test.make ~name:"kv: paged = flat" ~count:300 (QCheck.make ~print case)
    (fun (steps, cut) ->
      let mk ?paged () = Bft_sm.Kv_service.create ?paged ~restrict:[ 5 ] () in
      let reload ?paged (s : Bft_sm.Service.t) =
        let s' = mk ?paged () in
        match s'.Bft_sm.Service.restore (s.Bft_sm.Service.snapshot ()) with
        | Ok () -> s'
        | Error e -> QCheck.Test.fail_reportf "restore refused: %s" e
      in
      let flat = ref (mk ()) and paged = ref (mk ~paged:64 ()) in
      List.iteri
        (fun i (client, op) ->
          if i = cut then begin
            let image = !paged.Bft_sm.Service.snapshot () in
            flat := reload !flat;
            paged := reload ~paged:64 !paged;
            if not (String.equal image (!paged.Bft_sm.Service.snapshot ())) then
              QCheck.Test.fail_reportf "paged image changed across restore"
          end;
          let nondet = string_of_int i in
          let a = exec !flat ~client ~nondet op and b = exec !paged ~client ~nondet op in
          if not (String.equal a b) then QCheck.Test.fail_reportf "%S: flat %S, paged %S" op a b)
        steps;
      true)

let test_kv_paged_snapshot_roundtrip () =
  let s = Bft_sm.Kv_service.create ~paged:64 () in
  List.iter (fun op -> ignore (exec s op)) kv_ops;
  let snap = s.Bft_sm.Service.snapshot () in
  let s2 = Bft_sm.Kv_service.create ~paged:64 () in
  Alcotest.(check bool) "restore ok" true (Result.is_ok (s2.Bft_sm.Service.restore snap));
  Alcotest.(check string) "snapshot stable" snap (s2.Bft_sm.Service.snapshot ());
  Alcotest.(check string) "value restored" "11" (exec s2 "get a");
  Alcotest.(check string) "deleted stays deleted" "ENOENT" (exec s2 "get c");
  Alcotest.(check bool) "paged interface present" true (s.Bft_sm.Service.paged <> None);
  Alcotest.(check bool) "flat has none" true
    ((Bft_sm.Kv_service.create ()).Bft_sm.Service.paged = None)

(* A well-framed arena image of [page_size] bytes holding [body] as its
   records. *)
let raw_arena ~page_size body =
  let s = Printf.sprintf "ARENA %012d\n%s" (19 + String.length body) body in
  s ^ String.make (page_size - String.length s) '\000'

(* Record headers whose key length overflows [int], or whose end does. *)
let over_long_records =
  [
    ("key length past max_int", "R 99999999999999999999 1\nxy\n");
    ("key length near max_int", Printf.sprintf "R %d 1\nx\n" max_int);
  ]

let test_kv_paged_restore_rejects_malformed () =
  let s = Bft_sm.Kv_service.create ~paged:64 () in
  ignore (exec s "put a 1");
  let before = s.Bft_sm.Service.snapshot () in
  (* corrupt arena: rejected, state untouched *)
  Alcotest.(check bool) "corrupt refused" true
    (Result.is_error
       (s.Bft_sm.Service.restore (String.mapi (fun i c -> if i = 25 then '\255' else c) before)));
  Alcotest.(check string) "corrupt rejected" before (s.Bft_sm.Service.snapshot ());
  (* structurally valid arena that is not a kv image (no ACL record) *)
  let alien = Img.create ~page_size:64 () in
  Img.set alien ~key:"Bk" ~value:"v";
  Alcotest.(check bool) "alien refused" true
    (Result.is_error (s.Bft_sm.Service.restore (Img.image alien)));
  Alcotest.(check string) "alien rejected" before (s.Bft_sm.Service.snapshot ());
  (* record lengths past [max_int], or near it, are refused, not raised *)
  List.iter
    (fun (name, record) ->
      Alcotest.(check bool) (name ^ " refused") true
        (Result.is_error (s.Bft_sm.Service.restore (raw_arena ~page_size:64 record)));
      Alcotest.(check string) (name ^ " rejected") before (s.Bft_sm.Service.snapshot ()))
    over_long_records;
  Alcotest.(check string) "still serves" "1" (exec s "get a")

let test_kv_paged_acl_sync () =
  let mk () = Bft_sm.Kv_service.create ~paged:64 ~restrict:[ 5 ] () in
  let s = mk () in
  Alcotest.(check string) "acl denies" Bft_sm.Service.denied (exec s ~client:6 "put x 1");
  ignore (exec s ~client:0 "grant 6");
  Alcotest.(check string) "granted" "ok" (exec s ~client:6 "put x 1");
  (* the grant travels through the arena image *)
  let s2 = mk () in
  Alcotest.(check bool) "restore ok" true
    (Result.is_ok (s2.Bft_sm.Service.restore (s.Bft_sm.Service.snapshot ())));
  Alcotest.(check string) "acl restored" "ok" (exec s2 ~client:6 "put y 2")

(* --- checkpoint cost tracks the modified pages (Section 5.3) --- *)

let test_kv_checkpoint_cost_tracks_dirty_pages () =
  (* 1 KiB values at 256 KiB, 1 MiB and 4 MiB of state; each interval
     overwrites the same 4 keys of a rotating window, drains the dirty set
     and updates the partition tree. Only the drained pages are digested,
     so the per-interval cost is the same at every state size. *)
  let page_size = 4096 and branching = 16 and vlen = 1024 and intervals = 8 in
  let run total =
    let n_keys = total / (vlen + 16) in
    let svc = Bft_sm.Kv_service.create ~paged:page_size () in
    let put i c =
      ignore (exec svc (Printf.sprintf "put key%06d %s" i (String.make vlen c)))
    in
    for i = 0 to n_keys - 1 do
      put i 'a'
    done;
    let pg = Option.get svc.Bft_sm.Service.paged in
    ignore (pg.Bft_sm.Service.pg_drain_dirty ());
    let tree =
      ref
        (Partition_tree.build_pages ~seq:0 ~page_size ~branching
           (pg.Bft_sm.Service.pg_pages ()))
    in
    let counts =
      List.init intervals (fun i ->
          let seq = i + 1 in
          for k = 0 to 3 do
            put (((seq * 4) + k) mod n_keys) (Char.chr (Char.code 'b' + seq))
          done;
          let pages = pg.Bft_sm.Service.pg_pages () in
          let dirty = pg.Bft_sm.Service.pg_drain_dirty () in
          let next = Partition_tree.update !tree ~seq ~pages ~dirty in
          Alcotest.(check int)
            (Printf.sprintf "%d B, interval %d: digested = dirty pages" total seq)
            (List.length dirty * page_size)
            (Partition_tree.digested_bytes next);
          (* the copy-on-write rebuild over the same pages, not a
             from-scratch build: clean pages keep their lm *)
          Alcotest.(check string)
            (Printf.sprintf "%d B, interval %d: root = build_pages ~prev" total seq)
            (Partition_tree.root_digest
               (Partition_tree.build_pages ~prev:!tree ~seq ~page_size ~branching pages))
            (Partition_tree.root_digest next);
          tree := next;
          List.length dirty)
    in
    (Partition_tree.num_pages !tree, counts)
  in
  let sizes = [ 262_144; 1_048_576; 4_194_304 ] in
  let runs = List.map run sizes in
  Alcotest.(check (list int)) "state pages" [ 128; 512; 2048 ] (List.map fst runs);
  let counts = snd (List.hd runs) in
  List.iter
    (fun (_, c) -> Alcotest.(check (list int)) "dirty pages independent of state size" counts c)
    runs;
  Alcotest.(check bool) "a handful of pages per interval" true
    (List.for_all (fun n -> n >= 1 && n <= 3) counts)

(* A paged kv preloaded with 10^4 keys of 100-byte values, plus the
   checkpoint tree over its pages, holds its state about once: the tree
   shares the service's page strings, and the pages past the bump pointer
   are one zero page. Two full copies of the ~2 MiB image would exceed
   the bound. *)
let test_kv_paged_memory_bound () =
  let page_size = 4096 in
  let svc = Bft_sm.Kv_service.create ~paged:page_size () in
  for i = 0 to 9_999 do
    ignore (exec svc (Printf.sprintf "put key%05d %s" i (String.make 100 (Char.chr (97 + (i mod 26))))))
  done;
  let pg = Option.get svc.Bft_sm.Service.paged in
  let tree =
    Partition_tree.build_pages ~seq:1 ~page_size ~branching:16 (pg.Bft_sm.Service.pg_pages ())
  in
  let mib = float_of_int (Obj.reachable_words (Obj.repr (svc, tree)) * (Sys.word_size / 8)) /. 1048576.0 in
  Alcotest.(check bool) (Printf.sprintf "service + tree = %.2f MiB <= 3 MiB" mib) true (mib <= 3.0)

(* --- replica snapshot hardening --- *)

let make ?(f = 1) ?(seed = 42L) ?service ?(clients = 1) ?(k = 8) () =
  let cfg = Config.make ~checkpoint_interval:k ~vc_timeout_us:30_000.0 ~f () in
  (cfg, Cluster.create ~seed ?service ~num_clients:clients cfg)

(* Every refusal returns [Error], is counted once by the replica, and
   leaves its service state and image as they were. *)
let expect_refused reg r name s =
  let state = Replica.service_state r and image = Replica.image r in
  let rejections () = Bft_obs.Obs.snapshot_rejections (Bft_obs.Obs.for_node reg 0) in
  let before = rejections () in
  (match Replica.restore_snapshot r s with
  | Ok () -> Alcotest.failf "%s: malformed snapshot accepted" name
  | Error _ -> ());
  Alcotest.(check int) (name ^ ": one rejection counted") (before + 1) (rejections ());
  Alcotest.(check string) (name ^ ": service untouched") state (Replica.service_state r);
  Alcotest.(check string) (name ^ ": image untouched") image (Replica.image r)

let traced_cluster service =
  let cfg = Config.make ~checkpoint_interval:8 ~vc_timeout_us:30_000.0 ~f:1 () in
  let reg = Bft_obs.Obs.registry () in
  (Cluster.create ~seed:42L ~service ~num_clients:1 ~obs:reg cfg, reg)

let test_replica_restore_malformed () =
  let c, reg = traced_cluster (fun () -> Bft_sm.Kv_service.create ()) in
  for i = 1 to 3 do
    ignore (Cluster.invoke_sync c ~client:0 (Printf.sprintf "put k%d v%d" i i))
  done;
  let r = Cluster.replica c 0 in
  let good = Replica.image r in
  Alcotest.(check bool) "has reply records" true
    (String.length good > String.length (Replica.service_state r) + 8);
  let expect_error = expect_refused reg r in
  expect_error "no header" "";
  expect_error "non-numeric header" ("xyz\n" ^ String.sub good 4 (String.length good - 4));
  expect_error "length past end" ("999999999\n" ^ good);
  expect_error "length overflows" (string_of_int max_int ^ "\n" ^ good);
  expect_error "reply length overflows" (good ^ "1 2 3 " ^ string_of_int max_int ^ "\n");
  expect_error "truncated reply record" (String.sub good 0 (String.length good - 2));
  expect_error "unterminated reply header" (good ^ "1 2 3");
  expect_error "malformed reply header" (good ^ "1 2\nx");
  expect_error "bad reply ints" (good ^ "a b c d\n");
  expect_error "paged header on a flat replica" "PAGED 10 10\n";
  (* well-framed, but the kv body's second binding has no integer length:
     the service must refuse it before dropping a binding *)
  let body = "open\n1 1 zq\nX 1 z\n" in
  let nl = String.index good '\n' in
  let replies = nl + 1 + int_of_string (String.sub good 0 nl) in
  expect_error "malformed kv body"
    (Printf.sprintf "%d\n%s%s" (String.length body) body
       (String.sub good replies (String.length good - replies)));
  (* the canonical snapshot still restores *)
  (match Replica.restore_snapshot r good with
  | Ok () -> ()
  | Error e -> Alcotest.failf "good snapshot rejected: %s" e);
  Alcotest.(check string) "roundtrip" good (Replica.image r);
  (* a paged replica has one layout: a well-framed paged image of
     garbage, and its own state in the flat layout, are both refused *)
  let c, reg = traced_cluster (fun () -> Bft_sm.Kv_service.create ~paged:256 ()) in
  for i = 1 to 3 do
    ignore (Cluster.invoke_sync c ~client:0 (Printf.sprintf "put k%d v%d" i i))
  done;
  let r = Cluster.replica c 0 in
  let header = "PAGED 256 0\n" in
  expect_refused reg r "paged garbage"
    (header ^ String.make (256 - String.length header) '\000' ^ String.make 256 'z');
  let svc = Replica.service_state r in
  let image = Replica.image r in
  let reply_records = String.sub image (256 + String.length svc) (String.length image - 256 - String.length svc) in
  expect_refused reg r "flat layout on a paged replica"
    (Printf.sprintf "%d\n%s%s" (String.length svc) svc reply_records);
  expect_refused reg r "nonzero header padding" (String.mapi (fun i c -> if i = 200 then 'x' else c) image);
  (* lengths whose sum with the header page wraps to the image's own *)
  expect_refused reg r "paged lengths overflow"
    (Printf.sprintf "PAGED %d %d\n" max_int (max_int - 208));
  List.iter
    (fun (name, record) ->
      let page = raw_arena ~page_size:256 record in
      expect_refused reg r name
        (header ^ String.make (256 - String.length header) '\000' ^ page))
    over_long_records;
  (match Replica.restore_snapshot r image with
  | Ok () -> ()
  | Error e -> Alcotest.failf "paged image rejected: %s" e)

(* --- paged clusters end-to-end --- *)

let paged_kv () = Bft_sm.Kv_service.create ~paged:256 ()

(* The paged checkpoint's header page must hold its longest header,
   "PAGED <max_int> <max_int>\n" (46 bytes); a smaller service page is
   refused at creation. *)
let test_page_too_small_for_header () =
  let cluster page () =
    let cfg = Config.make ~f:1 () in
    ignore (Cluster.create ~service:(fun () -> Bft_sm.Kv_service.create ~paged:page ()) cfg)
  in
  Alcotest.check_raises "45-byte page"
    (Invalid_argument "Replica.create: page too small for the paged checkpoint header")
    (cluster 45);
  cluster 46 ()

let test_paged_cluster_checkpoints () =
  (* checkpoint digests over the paged image must agree across replicas:
     stability requires a quorum of matching roots *)
  let _, c = make ~service:paged_kv () in
  for i = 1 to 30 do
    Alcotest.(check string) "put" "ok"
      (Cluster.invoke_sync c ~client:0 (Printf.sprintf "put key%d value%d" i i))
  done;
  ignore
    (Cluster.run_until ~timeout_us:10_000_000.0 c (fun () ->
         Array.for_all (fun r -> Replica.stable_checkpoint r >= 24) (Cluster.replicas c)));
  Array.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "replica %d stabilized paged checkpoints" (Replica.id r))
        true
        (Replica.stable_checkpoint r >= 24))
    (Cluster.replicas c);
  Alcotest.(check bool) "consistent" true (Cluster.committed_histories_consistent c);
  Alcotest.(check string) "reads served from paged state" "value7"
    (Cluster.invoke_sync c ~client:0 "get key7")

let test_paged_cluster_state_transfer () =
  (* a rebooted replica fetches a paged checkpoint whose clean pages carry
     older lm values — the rebuilt tree must still match the quorum root *)
  let _, c = make ~service:paged_kv () in
  Bft_net.Network.crash (Cluster.network c) ~id:3;
  for i = 1 to 30 do
    ignore (Cluster.invoke_sync c ~client:0 (Printf.sprintf "put k%d v%d" i i))
  done;
  Bft_net.Network.restart (Cluster.network c) ~id:3;
  Replica.crash_reboot (Cluster.replica c 3);
  let caught =
    Cluster.run_until ~timeout_us:20_000_000.0 c (fun () ->
        Replica.last_executed (Cluster.replica c 3)
        >= Replica.stable_checkpoint (Cluster.replica c 0))
  in
  Alcotest.(check bool) "caught up" true caught;
  Alcotest.(check bool) "used state transfer" true
    ((Replica.counters (Cluster.replica c 3)).Replica.n_state_transfers >= 1);
  Alcotest.(check string) "transferred state serves reads" "v3"
    (Cluster.invoke_sync ~timeout_us:30_000_000.0 c ~client:0 "get k3")

let test_paged_cluster_view_change () =
  let _, c = make ~service:paged_kv () in
  ignore (Cluster.invoke_sync c ~client:0 "put survived yes");
  Replica.mute (Cluster.replica c 0) true;
  ignore (Cluster.invoke_sync ~timeout_us:30_000_000.0 c ~client:0 "put extra 1");
  Alcotest.(check string) "committed data preserved across views" "yes"
    (Cluster.invoke_sync ~timeout_us:30_000_000.0 c ~client:0 "get survived");
  Alcotest.(check bool) "consistent" true (Cluster.committed_histories_consistent c)

let suites =
  [
    ( "sm.paged_image",
      [
        Alcotest.test_case "record roundtrip" `Quick test_image_roundtrip;
        Alcotest.test_case "page shape and sharing" `Quick test_image_page_shape_and_sharing;
        Alcotest.test_case "dirty tracking" `Quick test_image_dirty_tracking;
        Alcotest.test_case "determinism across restore" `Quick test_image_determinism_across_restore;
        Alcotest.test_case "malformed images rejected" `Quick test_image_decode_malformed;
        QCheck_alcotest.to_alcotest prop_pages_never_change;
        Alcotest.test_case "unwritten pages shared" `Quick test_image_unwritten_pages_shared;
      ] );
    ( "sm.paged_services",
      [
        QCheck_alcotest.to_alcotest prop_kv_paged_equiv_flat;
        Alcotest.test_case "kv: snapshot roundtrip" `Quick test_kv_paged_snapshot_roundtrip;
        Alcotest.test_case "kv: malformed restore rejected" `Quick test_kv_paged_restore_rejects_malformed;
        Alcotest.test_case "kv: acl through arena" `Quick test_kv_paged_acl_sync;
        Alcotest.test_case "kv: checkpoint cost tracks dirty pages" `Quick
          test_kv_checkpoint_cost_tracks_dirty_pages;
        Alcotest.test_case "kv: state held once" `Quick test_kv_paged_memory_bound;
      ] );
    ( "core.paged_replica",
      [
        Alcotest.test_case "restore_snapshot rejects malformed" `Quick test_replica_restore_malformed;
        Alcotest.test_case "page too small for header" `Quick test_page_too_small_for_header;
        Alcotest.test_case "paged checkpoints stabilize" `Quick test_paged_cluster_checkpoints;
        Alcotest.test_case "paged state transfer" `Quick test_paged_cluster_state_transfer;
        Alcotest.test_case "paged view change" `Quick test_paged_cluster_view_change;
      ] );
  ]
