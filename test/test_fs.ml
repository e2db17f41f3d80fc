(* BFS substrate: the inode file system, the service wrapper, the Andrew
   workload generator. *)

open Bft_bfs

let ok = function Ok v -> v | Error e -> Alcotest.failf "unexpected %s" (Fs.error_to_string e)
let err name expected = function
  | Ok _ -> Alcotest.failf "%s: expected error" name
  | Error e -> Alcotest.(check string) name (Fs.error_to_string expected) (Fs.error_to_string e)

(* --- Fs --- *)

let test_fs_root () =
  let fs = Fs.create () in
  let a = ok (Fs.getattr fs ~ino:Fs.root) in
  Alcotest.(check bool) "root is dir" true (a.Fs.a_kind = `Dir);
  Alcotest.(check int) "empty" 0 a.Fs.a_size

let test_fs_create_lookup () =
  let fs = Fs.create () in
  let f = ok (Fs.create_file fs ~dir:Fs.root ~name:"a.txt" ~mtime:5L) in
  Alcotest.(check bool) "file kind" true (f.Fs.a_kind = `File);
  Alcotest.(check int) "mtime" 5 (Int64.to_int f.Fs.a_mtime);
  let l = ok (Fs.lookup fs ~dir:Fs.root ~name:"a.txt") in
  Alcotest.(check int) "lookup ino" f.Fs.a_ino l.Fs.a_ino;
  err "duplicate" `Exist (Fs.create_file fs ~dir:Fs.root ~name:"a.txt" ~mtime:6L);
  err "missing" `Noent (Fs.lookup fs ~dir:Fs.root ~name:"b.txt");
  err "bad name" `Inval (Fs.create_file fs ~dir:Fs.root ~name:"x/y" ~mtime:0L);
  err "dot" `Inval (Fs.create_file fs ~dir:Fs.root ~name:"." ~mtime:0L)

let test_fs_read_write () =
  let fs = Fs.create () in
  let f = ok (Fs.create_file fs ~dir:Fs.root ~name:"f" ~mtime:0L) in
  let ino = f.Fs.a_ino in
  Alcotest.(check int) "write 5" 5 (ok (Fs.write fs ~ino ~off:0 ~data:"hello" ~mtime:1L));
  Alcotest.(check string) "read" "hello" (ok (Fs.read fs ~ino ~off:0 ~len:100));
  Alcotest.(check string) "read middle" "ell" (ok (Fs.read fs ~ino ~off:1 ~len:3));
  Alcotest.(check string) "read past end" "" (ok (Fs.read fs ~ino ~off:50 ~len:4));
  (* sparse write extends with zeros (NFS semantics) *)
  ignore (ok (Fs.write fs ~ino ~off:8 ~data:"XY" ~mtime:2L));
  Alcotest.(check string) "hole zero-filled" "hello\x00\x00\x00XY" (ok (Fs.read fs ~ino ~off:0 ~len:100));
  err "read dir" `Isdir (Fs.read fs ~ino:Fs.root ~off:0 ~len:1);
  err "write dir" `Isdir (Fs.write fs ~ino:Fs.root ~off:0 ~data:"x" ~mtime:0L);
  err "negative" `Inval (Fs.read fs ~ino ~off:(-1) ~len:1)

let test_fs_truncate () =
  let fs = Fs.create () in
  let f = ok (Fs.create_file fs ~dir:Fs.root ~name:"f" ~mtime:0L) in
  let ino = f.Fs.a_ino in
  ignore (ok (Fs.write fs ~ino ~off:0 ~data:"abcdef" ~mtime:1L));
  ignore (ok (Fs.truncate fs ~ino ~size:3 ~mtime:2L));
  Alcotest.(check string) "shrunk" "abc" (ok (Fs.read fs ~ino ~off:0 ~len:10));
  ignore (ok (Fs.truncate fs ~ino ~size:5 ~mtime:3L));
  Alcotest.(check string) "grown with zeros" "abc\x00\x00" (ok (Fs.read fs ~ino ~off:0 ~len:10))

let test_fs_dirs () =
  let fs = Fs.create () in
  let d = ok (Fs.mkdir fs ~dir:Fs.root ~name:"sub" ~mtime:0L) in
  let sub = d.Fs.a_ino in
  ignore (ok (Fs.create_file fs ~dir:sub ~name:"x" ~mtime:0L));
  Alcotest.(check (list string)) "readdir" [ "x" ] (ok (Fs.readdir fs ~dir:sub));
  err "rmdir nonempty" `Notempty (Fs.rmdir fs ~dir:Fs.root ~name:"sub");
  err "remove a dir" `Isdir (Fs.remove fs ~dir:Fs.root ~name:"sub");
  err "rmdir a file" `Notdir (Fs.rmdir fs ~dir:sub ~name:"x");
  ignore (ok (Fs.remove fs ~dir:sub ~name:"x"));
  ignore (ok (Fs.rmdir fs ~dir:Fs.root ~name:"sub"));
  err "gone" `Noent (Fs.lookup fs ~dir:Fs.root ~name:"sub")

let test_fs_rename () =
  let fs = Fs.create () in
  let d1 = (ok (Fs.mkdir fs ~dir:Fs.root ~name:"d1" ~mtime:0L)).Fs.a_ino in
  let d2 = (ok (Fs.mkdir fs ~dir:Fs.root ~name:"d2" ~mtime:0L)).Fs.a_ino in
  let f = ok (Fs.create_file fs ~dir:d1 ~name:"f" ~mtime:0L) in
  ignore (ok (Fs.rename fs ~src_dir:d1 ~src_name:"f" ~dst_dir:d2 ~dst_name:"g"));
  err "source gone" `Noent (Fs.lookup fs ~dir:d1 ~name:"f");
  Alcotest.(check int) "same inode" f.Fs.a_ino (ok (Fs.lookup fs ~dir:d2 ~name:"g")).Fs.a_ino;
  ignore (ok (Fs.create_file fs ~dir:d1 ~name:"h" ~mtime:0L));
  err "destination exists" `Exist (Fs.rename fs ~src_dir:d2 ~src_name:"g" ~dst_dir:d1 ~dst_name:"h")

let test_fs_snapshot_roundtrip () =
  let fs = Fs.create () in
  let d = (ok (Fs.mkdir fs ~dir:Fs.root ~name:"dir" ~mtime:3L)).Fs.a_ino in
  let fino = (ok (Fs.create_file fs ~dir:d ~name:"file" ~mtime:4L)).Fs.a_ino in
  ignore (ok (Fs.write fs ~ino:fino ~off:0 ~data:"binary \x00\xff data" ~mtime:5L));
  let snap = Fs.snapshot fs in
  let fs2 = Fs.create () in
  Alcotest.(check bool) "restore ok" true (Result.is_ok (Fs.restore fs2 snap));
  Alcotest.(check string) "content preserved" "binary \x00\xff data"
    (ok (Fs.read fs2 ~ino:fino ~off:0 ~len:100));
  Alcotest.(check string) "stable snapshot" snap (Fs.snapshot fs2);
  (* inode allocation continues correctly after restore *)
  let g = ok (Fs.create_file fs2 ~dir:d ~name:"new" ~mtime:0L) in
  Alcotest.(check bool) "fresh inode" true (g.Fs.a_ino > fino)

let prop_fs_snapshot_roundtrip =
  let gen = QCheck.(list_of_size Gen.(0 -- 20) (pair (string_of_size Gen.(1 -- 6)) (string_of_size Gen.(0 -- 40)))) in
  QCheck.Test.make ~name:"fs snapshot roundtrip (random)" ~count:60 gen (fun files ->
      let fs = Fs.create () in
      List.iteri
        (fun i (_, content) ->
          let name = Printf.sprintf "f%d" i in
          match Fs.create_file fs ~dir:Fs.root ~name ~mtime:(Int64.of_int i) with
          | Ok a -> (
              match Fs.write fs ~ino:a.Fs.a_ino ~off:0 ~data:content ~mtime:0L with
              | Ok _ -> ()
              | Error _ -> Alcotest.failf "setup write to %s failed" name)
          | Error _ -> ())
        files;
      let snap = Fs.snapshot fs in
      let fs2 = Fs.create () in
      Result.is_ok (Fs.restore fs2 snap) && String.equal snap (Fs.snapshot fs2))

(* --- BFS service wrapper --- *)

let exec (s : Bft_sm.Service.t) ?(nondet = "7") op = s.Bft_sm.Service.execute ~client:9 ~op ~nondet

let test_bfs_service_flow () =
  let s = Bfs_service.create () in
  let dir_attr = exec s "mkdir 1 src" in
  let dir = Option.get (Bfs_service.parse_attr_ino dir_attr) in
  let file_attr = exec s (Printf.sprintf "create %d main.c" dir) in
  let file = Option.get (Bfs_service.parse_attr_ino file_attr) in
  Alcotest.(check string) "write" "5" (exec s (Bfs_service.op_write ~ino:file ~off:0 "12345"));
  Alcotest.(check string) "read" "12345"
    (Bfs_service.decode_read_result (exec s (Bfs_service.op_read ~ino:file ~off:0 ~len:10)));
  Alcotest.(check string) "readdir" "main.c" (exec s (Printf.sprintf "readdir %d" dir));
  Alcotest.(check string) "remove" "ok" (exec s (Printf.sprintf "remove %d main.c" dir));
  Alcotest.(check string) "enoent" "ENOENT" (exec s (Printf.sprintf "lookup %d main.c" dir))

let test_bfs_service_mtime_from_nondet () =
  let s = Bfs_service.create () in
  let attr = exec s ~nondet:"12345" "mkdir 1 d" in
  Alcotest.(check bool) "mtime from nondet" true
    (Astring_check.contains attr "mtime=12345")

let test_bfs_service_read_only () =
  let s = Bfs_service.create () in
  Alcotest.(check bool) "read ro" true (s.Bft_sm.Service.is_read_only "read 2 0 10");
  Alcotest.(check bool) "getattr ro" true (s.Bft_sm.Service.is_read_only "getattr 1");
  Alcotest.(check bool) "write rw" false (s.Bft_sm.Service.is_read_only "write 2 0 00");
  Alcotest.(check bool) "mkdir rw" false (s.Bft_sm.Service.is_read_only "mkdir 1 d")

let test_bfs_service_invalid () =
  let s = Bfs_service.create () in
  Alcotest.(check string) "garbage" Bft_sm.Service.invalid (exec s "nonsense");
  Alcotest.(check string) "bad int" Bft_sm.Service.invalid (exec s "getattr abc");
  Alcotest.(check string) "bad hex" Bft_sm.Service.invalid (exec s "write 2 0 zz")

let test_bfs_snapshot_roundtrip () =
  let s = Bfs_service.create () in
  ignore (exec s "mkdir 1 d");
  ignore (exec s "create 2 f");
  ignore (exec s (Bfs_service.op_write ~ino:3 ~off:0 "content"));
  let snap = s.Bft_sm.Service.snapshot () in
  let s2 = Bfs_service.create () in
  s2.Bft_sm.Service.restore snap;
  Alcotest.(check string) "snapshot stable" snap (s2.Bft_sm.Service.snapshot ())

(* --- Andrew workload --- *)

let test_andrew_phases () =
  let steps = Andrew.script ~scale:1 () in
  let counts = Andrew.ops_per_phase steps in
  Alcotest.(check int) "mkdir ops" 5 (List.assoc Andrew.Mkdir counts);
  (* each 1024-byte file is one create and two 512-byte writes *)
  Alcotest.(check int) "copy ops (create+write)" 30 (List.assoc Andrew.Copy counts);
  Alcotest.(check int) "stat ops" 15 (List.assoc Andrew.Stat counts);
  Alcotest.(check int) "read ops" 10 (List.assoc Andrew.Read counts);
  Alcotest.(check bool) "make ops" true (List.assoc Andrew.Make counts > 0);
  (* reads are flagged read-only, writes are not *)
  List.iter
    (fun (s : Andrew.step) ->
      let verb = List.hd (String.split_on_char ' ' s.Andrew.op) in
      let expect_ro = List.mem verb [ "getattr"; "read"; "readdir"; "lookup" ] in
      Alcotest.(check bool) ("ro flag for " ^ verb) expect_ro s.Andrew.read_only)
    steps

let test_andrew_scales () =
  let s1 = List.length (Andrew.script ~scale:1 ()) in
  let s3 = List.length (Andrew.script ~scale:3 ()) in
  Alcotest.(check bool) "scale grows script" true (s3 > 2 * s1)

let test_andrew_executes_cleanly () =
  (* every scripted op must succeed against a fresh service *)
  let s = Bfs_service.create () in
  List.iter
    (fun (st : Andrew.step) ->
      let r = exec s st.Andrew.op in
      if
        String.equal r Bft_sm.Service.invalid || String.equal r "ENOENT"
        || String.equal r "EEXIST"
      then
        Alcotest.failf "step %s failed: %s" st.Andrew.op r)
    (Andrew.script ~scale:1 ());
  Alcotest.(check bool) "done" true true

let test_andrew_deterministic () =
  let ops l = List.map (fun (s : Andrew.step) -> s.Andrew.op) l in
  Alcotest.(check (list string)) "same script every time"
    (ops (Andrew.script ()))
    (ops (Andrew.script ()))

(* --- BFS replicated --- *)

(* BFS's flat image through the replica's checkpoints and state transfer:
   replica 3 is cut off while the Andrew script moves the cluster past two
   checkpoints, then rejoins and must fetch the image. *)
let test_bfs_state_transfer () =
  let open Bft_core in
  let cfg = Config.make ~checkpoint_interval:8 ~f:1 () in
  let c = Cluster.create ~seed:42L ~service:(fun () -> Bfs_service.create ()) cfg in
  let net = Cluster.network c in
  Bft_net.Network.partition net [ 3 ] [ 0; 1; 2; cfg.Config.n ];
  List.iter
    (fun (s : Andrew.step) ->
      ignore (Cluster.invoke_sync c ~client:0 ~read_only:s.Andrew.read_only s.Andrew.op))
    (Andrew.script ());
  let r0 = Cluster.replica c 0 and r3 = Cluster.replica c 3 in
  Alcotest.(check bool) "two checkpoints passed replica 3 by" true
    (Replica.stable_checkpoint r0 >= 16 && Replica.last_executed r3 = 0);
  Bft_net.Network.heal net;
  let caught =
    Cluster.run_until ~timeout_us:20_000_000.0 c (fun () ->
        Replica.last_executed r3 >= Replica.last_executed r0)
  in
  Alcotest.(check bool) "replica 3 caught up" true caught;
  Alcotest.(check bool) "used state transfer" true
    ((Replica.counters r3).Replica.n_state_transfers >= 1);
  let image = Replica.service_state r0 in
  Array.iter
    (fun r -> Alcotest.(check string) "same image" image (Replica.service_state r))
    (Cluster.replicas c)

let suites =
  [
    ( "bfs.fs",
      [
        Alcotest.test_case "root" `Quick test_fs_root;
        Alcotest.test_case "create/lookup" `Quick test_fs_create_lookup;
        Alcotest.test_case "read/write" `Quick test_fs_read_write;
        Alcotest.test_case "truncate" `Quick test_fs_truncate;
        Alcotest.test_case "directories" `Quick test_fs_dirs;
        Alcotest.test_case "rename" `Quick test_fs_rename;
        Alcotest.test_case "snapshot roundtrip" `Quick test_fs_snapshot_roundtrip;
        QCheck_alcotest.to_alcotest prop_fs_snapshot_roundtrip;
      ] );
    ( "bfs.service",
      [
        Alcotest.test_case "flow" `Quick test_bfs_service_flow;
        Alcotest.test_case "mtime from nondet" `Quick test_bfs_service_mtime_from_nondet;
        Alcotest.test_case "read-only classes" `Quick test_bfs_service_read_only;
        Alcotest.test_case "invalid ops" `Quick test_bfs_service_invalid;
        Alcotest.test_case "snapshot roundtrip" `Quick test_bfs_snapshot_roundtrip;
        Alcotest.test_case "checkpoints and state transfer" `Quick test_bfs_state_transfer;
      ] );
    ( "bfs.andrew",
      [
        Alcotest.test_case "phases" `Quick test_andrew_phases;
        Alcotest.test_case "scales" `Quick test_andrew_scales;
        Alcotest.test_case "executes cleanly" `Quick test_andrew_executes_cleanly;
        Alcotest.test_case "deterministic" `Quick test_andrew_deterministic;
      ] );
  ]
