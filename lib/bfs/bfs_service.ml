let attr_to_string (a : Fs.attr) =
  Printf.sprintf "ino=%d kind=%s size=%d mtime=%Ld" a.Fs.a_ino
    (match a.Fs.a_kind with `File -> "f" | `Dir -> "d")
    a.Fs.a_size a.Fs.a_mtime

let result_of = function Ok s -> s | Error e -> Fs.error_to_string e

let map_attr r = result_of (Result.map attr_to_string r)
let map_unit r = result_of (Result.map (fun () -> "ok") r)

let is_read_only op =
  match String.split_on_char ' ' op with
  | verb :: _ -> List.mem verb [ "getattr"; "lookup"; "readdir"; "read" ]
  | [] -> false

let exec_cost_us op = 1.0 +. (0.002 *. float_of_int (String.length op))

let mtime_of_nondet nondet =
  match Int64.of_string_opt nondet with Some t -> t | None -> 0L

let create () =
  let fs = Fs.create () in
  let execute ~client:_ ~op ~nondet =
    let mtime = mtime_of_nondet nondet in
    let int_arg s = int_of_string_opt s in
    match String.split_on_char ' ' op with
    | [ "getattr"; ino ] -> (
        match int_arg ino with
        | Some ino -> map_attr (Fs.getattr fs ~ino)
        | None -> Bft_sm.Service.invalid)
    | [ "lookup"; dir; name ] -> (
        match int_arg dir with
        | Some dir -> map_attr (Fs.lookup fs ~dir ~name)
        | None -> Bft_sm.Service.invalid)
    | [ "readdir"; dir ] -> (
        match int_arg dir with
        | Some dir ->
            result_of (Result.map (fun names -> String.concat "," names) (Fs.readdir fs ~dir))
        | None -> Bft_sm.Service.invalid)
    | [ "read"; ino; off; len ] -> (
        match (int_arg ino, int_arg off, int_arg len) with
        | Some ino, Some off, Some len ->
            result_of (Result.map Bft_util.Hex.encode (Fs.read fs ~ino ~off ~len))
        | _ -> Bft_sm.Service.invalid)
    | [ "mkdir"; dir; name ] -> (
        match int_arg dir with
        | Some dir -> map_attr (Fs.mkdir fs ~dir ~name ~mtime)
        | None -> Bft_sm.Service.invalid)
    | [ "create"; dir; name ] -> (
        match int_arg dir with
        | Some dir -> map_attr (Fs.create_file fs ~dir ~name ~mtime)
        | None -> Bft_sm.Service.invalid)
    | [ "remove"; dir; name ] -> (
        match int_arg dir with
        | Some dir -> map_unit (Fs.remove fs ~dir ~name)
        | None -> Bft_sm.Service.invalid)
    | [ "rmdir"; dir; name ] -> (
        match int_arg dir with
        | Some dir -> map_unit (Fs.rmdir fs ~dir ~name)
        | None -> Bft_sm.Service.invalid)
    | [ "rename"; sdir; sname; ddir; dname ] -> (
        match (int_arg sdir, int_arg ddir) with
        | Some src_dir, Some dst_dir ->
            map_unit (Fs.rename fs ~src_dir ~src_name:sname ~dst_dir ~dst_name:dname)
        | _ -> Bft_sm.Service.invalid)
    | [ "write"; ino; off; hexdata ] -> (
        match (int_arg ino, int_arg off) with
        | Some ino, Some off -> (
            match Bft_util.Hex.decode hexdata with
            | data ->
                result_of (Result.map string_of_int (Fs.write fs ~ino ~off ~data ~mtime))
            | exception Invalid_argument _ -> Bft_sm.Service.invalid)
        | _ -> Bft_sm.Service.invalid)
    | [ "truncate"; ino; size ] -> (
        match (int_arg ino, int_arg size) with
        | Some ino, Some size -> map_unit (Fs.truncate fs ~ino ~size ~mtime)
        | _ -> Bft_sm.Service.invalid)
    | [ "touch"; ino ] -> (
        match int_arg ino with
        | Some ino -> map_unit (Fs.set_mtime fs ~ino ~mtime)
        | None -> Bft_sm.Service.invalid)
    | _ -> Bft_sm.Service.invalid
  in
  {
    Bft_sm.Service.name = "bfs";
    execute;
    is_read_only;
    has_access = (fun ~client:_ _ -> true);
    exec_cost_us;
    snapshot = (fun () -> Fs.snapshot fs);
    restore = Fs.restore fs;
    paged = None;
  }

let op_write ~ino ~off data =
  Printf.sprintf "write %d %d %s" ino off (Bft_util.Hex.encode data)

let op_read ~ino ~off ~len = Printf.sprintf "read %d %d %d" ino off len

let parse_attr_ino result =
  match String.split_on_char ' ' result with
  | first :: _ when String.length first > 4 && String.equal (String.sub first 0 4) "ino=" ->
      int_of_string_opt (String.sub first 4 (String.length first - 4))
  | _ -> None

let decode_read_result = Bft_util.Hex.decode
