type file = { mutable content : string; mutable f_mtime : int64 }
type dir = { entries : (string, int) Hashtbl.t; mutable d_mtime : int64 }
type node = File of file | Dir of dir

type t = {
  inodes : (int, node) Hashtbl.t;
  mutable next_ino : int;
}

type attr = {
  a_ino : int;
  a_kind : [ `File | `Dir ];
  a_size : int;
  a_mtime : int64;
}

type error = [ `Noent | `Exist | `Notdir | `Isdir | `Notempty | `Inval ]

let error_to_string = function
  | `Noent -> "ENOENT"
  | `Exist -> "EEXIST"
  | `Notdir -> "ENOTDIR"
  | `Isdir -> "EISDIR"
  | `Notempty -> "ENOTEMPTY"
  | `Inval -> "EINVAL"

let root = 1

let create () =
  let t = { inodes = Hashtbl.create 64; next_ino = 2 } in
  Hashtbl.replace t.inodes root (Dir { entries = Hashtbl.create 8; d_mtime = 0L });
  t

let node t ino = Hashtbl.find_opt t.inodes ino

let dir_of t ino =
  match node t ino with
  | None -> Error `Noent
  | Some (File _) -> Error `Notdir
  | Some (Dir d) -> Ok d

let attr_of t ino =
  match node t ino with
  | None -> Error `Noent
  | Some (File f) ->
      Ok { a_ino = ino; a_kind = `File; a_size = String.length f.content; a_mtime = f.f_mtime }
  | Some (Dir d) ->
      Ok { a_ino = ino; a_kind = `Dir; a_size = Hashtbl.length d.entries; a_mtime = d.d_mtime }

let getattr t ~ino = attr_of t ino

let lookup t ~dir ~name =
  match dir_of t dir with
  | Error e -> Error e
  | Ok d -> (
      match Hashtbl.find_opt d.entries name with
      | None -> Error `Noent
      | Some ino -> attr_of t ino)

let readdir t ~dir =
  match dir_of t dir with
  | Error e -> Error e
  | Ok d -> Ok (Hashtbl.fold (fun name _ acc -> name :: acc) d.entries [] |> List.sort String.compare)

let valid_name name =
  (not (String.equal name "")) && (not (String.equal name ".")) && (not (String.equal name ".."))
  && not (String.contains name '/')

let add_entry t ~dir ~name ~mtime make_node =
  if not (valid_name name) then Error `Inval
  else
    match dir_of t dir with
    | Error e -> Error e
    | Ok d ->
        if Hashtbl.mem d.entries name then Error `Exist
        else begin
          let ino = t.next_ino in
          t.next_ino <- ino + 1;
          Hashtbl.replace t.inodes ino (make_node ());
          Hashtbl.replace d.entries name ino;
          d.d_mtime <- mtime;
          attr_of t ino
        end

let mkdir t ~dir ~name ~mtime =
  add_entry t ~dir ~name ~mtime (fun () -> Dir { entries = Hashtbl.create 8; d_mtime = mtime })

let create_file t ~dir ~name ~mtime =
  add_entry t ~dir ~name ~mtime (fun () -> File { content = ""; f_mtime = mtime })

let remove t ~dir ~name =
  match dir_of t dir with
  | Error e -> Error e
  | Ok d -> (
      match Hashtbl.find_opt d.entries name with
      | None -> Error `Noent
      | Some ino -> (
          match node t ino with
          | Some (Dir _) -> Error `Isdir
          | Some (File _) | None ->
              Hashtbl.remove d.entries name;
              Hashtbl.remove t.inodes ino;
              Ok ()))

let rmdir t ~dir ~name =
  match dir_of t dir with
  | Error e -> Error e
  | Ok d -> (
      match Hashtbl.find_opt d.entries name with
      | None -> Error `Noent
      | Some ino -> (
          match node t ino with
          | Some (File _) | None -> Error `Notdir
          | Some (Dir sub) ->
              if Hashtbl.length sub.entries > 0 then Error `Notempty
              else begin
                Hashtbl.remove d.entries name;
                Hashtbl.remove t.inodes ino;
                Ok ()
              end))

let rename t ~src_dir ~src_name ~dst_dir ~dst_name =
  if not (valid_name dst_name) then Error `Inval
  else
    match (dir_of t src_dir, dir_of t dst_dir) with
    | Error e, _ | _, Error e -> Error e
    | Ok sd, Ok dd -> (
        match Hashtbl.find_opt sd.entries src_name with
        | None -> Error `Noent
        | Some ino ->
            if Hashtbl.mem dd.entries dst_name then Error `Exist
            else begin
              Hashtbl.remove sd.entries src_name;
              Hashtbl.replace dd.entries dst_name ino;
              Ok ()
            end)

let read t ~ino ~off ~len =
  match node t ino with
  | None -> Error `Noent
  | Some (Dir _) -> Error `Isdir
  | Some (File f) ->
      if off < 0 || len < 0 then Error `Inval
      else
        let size = String.length f.content in
        if off >= size then Ok ""
        else Ok (String.sub f.content off (min len (size - off)))

let write t ~ino ~off ~data ~mtime =
  match node t ino with
  | None -> Error `Noent
  | Some (Dir _) -> Error `Isdir
  | Some (File f) ->
      if off < 0 then Error `Inval
      else begin
        let old = f.content in
        let old_len = String.length old in
        let data_len = String.length data in
        let new_len = max old_len (off + data_len) in
        let b = Bytes.make new_len '\x00' in
        Bytes.blit_string old 0 b 0 old_len;
        Bytes.blit_string data 0 b off data_len;
        (* freeze idiom: [b] is never written again after this point *)
        f.content <- (Bytes.unsafe_to_string b [@lint.allow "unsafe-op"]);
        f.f_mtime <- mtime;
        Ok data_len
      end

let truncate t ~ino ~size ~mtime =
  match node t ino with
  | None -> Error `Noent
  | Some (Dir _) -> Error `Isdir
  | Some (File f) ->
      if size < 0 then Error `Inval
      else begin
        let old_len = String.length f.content in
        (if size <= old_len then f.content <- String.sub f.content 0 size
         else f.content <- f.content ^ String.make (size - old_len) '\x00');
        f.f_mtime <- mtime;
        Ok ()
      end

let set_mtime t ~ino ~mtime =
  match node t ino with
  | None -> Error `Noent
  | Some (File f) ->
      f.f_mtime <- mtime;
      Ok ()
  | Some (Dir d) ->
      d.d_mtime <- mtime;
      Ok ()

(* Snapshot format: one line per inode, sorted by number, with
   hex-encoded file contents so the encoding is unambiguous. *)
let snapshot t =
  let b = Buffer.create 1024 in
  Buffer.add_string b (Printf.sprintf "next %d\n" t.next_ino);
  let inos = Hashtbl.fold (fun ino _ acc -> ino :: acc) t.inodes [] |> List.sort compare in
  List.iter
    (fun ino ->
      match Hashtbl.find t.inodes ino with
      | File f ->
          Buffer.add_string b
            (Printf.sprintf "f %d %Ld %s\n" ino f.f_mtime (Bft_util.Hex.encode f.content))
      | Dir d ->
          let entries =
            Hashtbl.fold (fun name i acc -> (name, i) :: acc) d.entries []
            |> List.sort compare
            |> List.map (fun (name, i) -> Printf.sprintf "%s=%d" name i)
          in
          Buffer.add_string b
            (Printf.sprintf "d %d %Ld %s\n" ino d.d_mtime (String.concat "," entries)))
    inos;
  Buffer.contents b

(* Parse into fresh tables first and commit only on success, so a
   malformed snapshot leaves the current image untouched. *)
let restore t s =
  let inodes = Hashtbl.create 64 in
  let next_ino = ref t.next_ino in
  let lines = String.split_on_char '\n' s in
  match
    List.iter
      (fun line ->
        if not (String.equal line "") then
          match String.split_on_char ' ' line with
          | [ "next"; n ] -> next_ino := int_of_string n
          | [ "f"; ino; mtime; hex ] ->
              Hashtbl.replace inodes (int_of_string ino)
                (File { content = Bft_util.Hex.decode hex; f_mtime = Int64.of_string mtime })
          | [ "d"; ino; mtime; ents ] ->
              let tbl = Hashtbl.create 8 in
              if not (String.equal ents "") then
                List.iter
                  (fun kv ->
                    match String.rindex_opt kv '=' with
                    | Some i ->
                        Hashtbl.replace tbl (String.sub kv 0 i)
                          (int_of_string (String.sub kv (i + 1) (String.length kv - i - 1)))
                    | None -> failwith "malformed directory entry")
                  (String.split_on_char ',' ents);
              Hashtbl.replace inodes (int_of_string ino)
                (Dir { entries = tbl; d_mtime = Int64.of_string mtime })
          | _ -> failwith "malformed line")
      lines
  with
  | () ->
      Hashtbl.reset t.inodes;
      Hashtbl.iter (Hashtbl.replace t.inodes) inodes;
      t.next_ino <- !next_ino;
      Ok ()
  | exception Failure msg -> Error (Printf.sprintf "Fs.restore: %s" msg)
  | exception Invalid_argument msg -> Error (Printf.sprintf "Fs.restore: %s" msg)

