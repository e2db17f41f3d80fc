let admin_client = 0

type state = {
  table : (string, string) Hashtbl.t;
  mutable acl : int list option; (* None = open access *)
}

let encode_snapshot st =
  let b = Buffer.create 256 in
  (match st.acl with
  | None -> Buffer.add_string b "open\n"
  | Some l ->
      Buffer.add_string b
        ("acl " ^ String.concat "," (List.map string_of_int (List.sort compare l)) ^ "\n"));
  let bindings =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) st.table [] |> List.sort compare
  in
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%d %d %s%s\n" (String.length k) (String.length v) k v))
    bindings;
  Buffer.contents b

let acl_of_header first =
  if String.equal first "open" then None
  else if String.length first >= 4 && String.equal (String.sub first 0 4) "acl " then
    let ids = String.sub first 4 (String.length first - 4) in
    Some (if String.equal ids "" then [] else List.map int_of_string (String.split_on_char ',' ids))
  else None

(* "<klen> <vlen> <k><v>"; a line without its two spaces is skipped *)
let binding_of_line line =
  match String.index_opt line ' ' with
  | None -> None
  | Some sp1 -> (
      let klen = int_of_string (String.sub line 0 sp1) in
      match String.index_from_opt line (sp1 + 1) ' ' with
      | None -> None
      | Some sp2 ->
          let vlen = int_of_string (String.sub line (sp1 + 1) (sp2 - sp1 - 1)) in
          Some (String.sub line (sp2 + 1) klen, String.sub line (sp2 + 1 + klen) vlen))

(* The whole snapshot is parsed before the store changes, so a malformed
   one raises and leaves it as it was. The table is refilled in place:
   the service's closures hold it. *)
let decode_snapshot st s =
  let first, rest =
    match String.split_on_char '\n' s with first :: rest -> (first, rest) | [] -> ("", [])
  in
  let acl = acl_of_header first in
  let bindings =
    List.filter_map
      (fun line -> if String.equal line "" then None else binding_of_line line)
      rest
  in
  st.acl <- acl;
  Hashtbl.reset st.table;
  List.iter (fun (k, v) -> Hashtbl.replace st.table k v) bindings

(* Is [w] the first space-separated word of [op]? Reads [op] in place,
   so deciding access does not split it. *)
let verb_is op w =
  String.starts_with ~prefix:w op
  && (String.length op = String.length w || op.[String.length w] = ' ')

let mutating op = not (verb_is op "get" || verb_is op "size")

(* Paged-arena record layout: one record per binding under key "B"<k>,
   plus the ACL under "A" ("open", "acl", or "acl 1,2,..."). *)

let acl_payload = function
  | None -> "open"
  | Some [] -> "acl"
  | Some l -> "acl " ^ String.concat "," (List.map string_of_int (List.sort compare l))

let acl_of_payload s =
  if String.equal s "open" then Some None
  else if String.equal s "acl" then Some (Some [])
  else if String.length s > 4 && String.equal (String.sub s 0 4) "acl " then
    let parts = String.split_on_char ',' (String.sub s 4 (String.length s - 4)) in
    let ids = List.filter_map int_of_string_opt parts in
    if List.length ids = List.length parts then Some (Some ids) else None
  else None

let create ?restrict ?paged () =
  let st = { table = Hashtbl.create 64; acl = restrict } in
  let arena = Option.map (fun page_size -> Paged_image.create ~page_size ()) paged in
  (* The bindings live in one index: the table (flat) or the arena
     (paged), whose records also hold the ACL. *)
  let find, put, del, size =
    match arena with
    | None ->
        ( Hashtbl.find_opt st.table,
          Hashtbl.replace st.table,
          (fun k -> Hashtbl.mem st.table k && (Hashtbl.remove st.table k; true)),
          fun () -> Hashtbl.length st.table )
    | Some a ->
        ( (fun k -> Paged_image.find a ~key:("B" ^ k)),
          (fun k v -> Paged_image.set a ~key:("B" ^ k) ~value:v),
          (fun k -> Paged_image.remove a ~key:("B" ^ k)),
          fun () -> Paged_image.length a - 1 )
  in
  let sync_acl () =
    Option.iter (fun a -> Paged_image.set a ~key:"A" ~value:(acl_payload st.acl)) arena
  in
  sync_acl ();
  let has_access ~client op =
    if client = admin_client then true
    else if not (mutating op) then true
    else match st.acl with None -> true | Some allowed -> List.mem client allowed
  in
  let execute ~client ~op ~nondet =
    if not (has_access ~client op) then Service.denied
    else
      match String.split_on_char ' ' op with
      | [ "put"; k; v ] ->
          put k v;
          "ok"
      | [ "get"; k ] -> ( match find k with Some v -> v | None -> "ENOENT")
      | [ "del"; k ] -> if del k then "ok" else "ENOENT"
      | [ "cas"; k; old_v; new_v ] -> (
          match find k with
          | None -> "ENOENT"
          | Some v when String.equal v old_v ->
              put k new_v;
              "ok"
          | Some _ -> "EAGAIN")
      | [ "touch"; k ] ->
          put k nondet;
          nondet
      | [ "grant"; c ] -> (
          if client <> admin_client then Service.denied
          else
            match int_of_string_opt c with
            | None -> Service.invalid
            | Some c ->
                (match st.acl with
                | None -> st.acl <- Some [ c ]
                | Some l -> if not (List.mem c l) then st.acl <- Some (c :: l));
                sync_acl ();
                "ok")
      | [ "revoke"; c ] -> (
          if client <> admin_client then Service.denied
          else
            match int_of_string_opt c with
            | None -> Service.invalid
            | Some c ->
                (match st.acl with
                | None -> st.acl <- Some []
                | Some l -> st.acl <- Some (List.filter (fun x -> x <> c) l));
                sync_acl ();
                "ok")
      | [ "size" ] -> string_of_int (size ())
      | _ -> Service.invalid
  in
  (* Arena-image restore: validate every record before committing, so a
     malformed snapshot leaves both the arena and the ACL untouched. *)
  let restore_paged a s =
    match Paged_image.decode ~page_size:(Paged_image.page_size a) s with
    | Error _ -> ()
    | Ok records ->
        let valid =
          List.for_all
            (fun (k, v) ->
              if String.equal k "A" then acl_of_payload v <> None
              else String.length k > 1 && k.[0] = 'B')
            records
          && List.exists (fun (k, _) -> String.equal k "A") records
        in
        if valid then
          match Paged_image.restore a s with
          | Error _ -> ()
          | Ok records ->
              List.iter
                (fun (k, v) ->
                  if String.equal k "A" then st.acl <- Option.get (acl_of_payload v))
                records
  in
  {
    Service.name = "kv";
    execute;
    is_read_only = (fun op -> not (mutating op));
    has_access;
    exec_cost_us = (fun op -> 1.0 +. (0.001 *. float_of_int (String.length op)));
    snapshot =
      (match arena with
      | None -> fun () -> encode_snapshot st
      | Some a -> fun () -> Paged_image.image a);
    restore =
      (match arena with
      | None -> fun s -> decode_snapshot st s
      | Some a -> fun s -> restore_paged a s);
    paged = Option.map Service.paged_of_image arena;
  }
