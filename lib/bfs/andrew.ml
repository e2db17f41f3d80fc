type phase = Mkdir | Copy | Stat | Read | Make

let phases = [ Mkdir; Copy; Stat; Read; Make ]

type step = { phase : phase; op : string; read_only : bool }

(* The script runs the same operations against a local shadow Fs so it can
   predict the inode numbers the replicated service will assign (inode
   allocation is deterministic). *)
let script ?(scale = 1) ?(file_size = 1024) ?(seed = 7L) () =
  let rng = Bft_util.Rng.create seed in
  let shadow = Fs.create () in
  let steps = ref [] in
  let emit phase op read_only = steps := { phase; op; read_only } :: !steps in
  let ndirs = 5 * scale and files_per_dir = 2 in
  (* phase 1: mkdir *)
  let dirs =
    List.init ndirs (fun i ->
        let name = Printf.sprintf "dir%d" i in
        emit Mkdir (Printf.sprintf "mkdir %d %s" Fs.root name) false;
        match Fs.mkdir shadow ~dir:Fs.root ~name ~mtime:0L with
        | Ok a -> a.Fs.a_ino
        | Error _ -> assert false)
  in
  (* phase 2: copy — create and write source files *)
  let files =
    List.concat_map
      (fun dir ->
        List.init files_per_dir (fun j ->
            let name = Printf.sprintf "src%d.c" j in
            emit Copy (Printf.sprintf "create %d %s" dir name) false;
            let ino =
              match Fs.create_file shadow ~dir ~name ~mtime:0L with
              | Ok a -> a.Fs.a_ino
              | Error _ -> assert false
            in
            (* write in 512-byte chunks like an NFS client *)
            let remaining = ref file_size and off = ref 0 in
            while !remaining > 0 do
              let len = min 512 !remaining in
              let data = Bft_util.Rng.bytes rng len in
              emit Copy (Bfs_service.op_write ~ino ~off:!off data) false;
              (match Fs.write shadow ~ino ~off:!off ~data ~mtime:0L with
              | Ok _ -> ()
              | Error _ -> assert false);
              off := !off + len;
              remaining := !remaining - len
            done;
            ino))
      dirs
  in
  (* phase 3: stat every file and directory *)
  List.iter (fun d -> emit Stat (Printf.sprintf "getattr %d" d) true) dirs;
  List.iter (fun f -> emit Stat (Printf.sprintf "getattr %d" f) true) files;
  (* phase 4: read every file in full *)
  List.iter
    (fun f -> emit Read (Bfs_service.op_read ~ino:f ~off:0 ~len:file_size) true)
    files;
  (* phase 5: make — read all sources, write one object per source dir *)
  List.iter
    (fun f -> emit Make (Bfs_service.op_read ~ino:f ~off:0 ~len:file_size) true)
    files;
  List.iter
    (fun dir ->
      let name = "prog.o" in
      emit Make (Printf.sprintf "create %d %s" dir name) false;
      match Fs.create_file shadow ~dir ~name ~mtime:0L with
      | Ok a ->
          let data = Bft_util.Rng.bytes rng (file_size / 2) in
          emit Make (Bfs_service.op_write ~ino:a.Fs.a_ino ~off:0 data) false;
          (match Fs.write shadow ~ino:a.Fs.a_ino ~off:0 ~data ~mtime:0L with
          | Ok _ -> ()
          | Error _ -> assert false)
      | Error _ -> assert false)
    dirs;
  List.rev !steps

let ops_per_phase steps =
  List.map
    (fun p -> (p, List.length (List.filter (fun s -> s.phase = p) steps)))
    phases
