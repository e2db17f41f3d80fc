let admin_client = 0

type state = {
  table : (string, string) Hashtbl.t;
  mutable acl : int list option; (* None = open access *)
}

(* The ACL as the arena's "A" record holds it: "open", "acl", or
   "acl 1,2,...". (Paged-arena layout: one record per binding under key
   "B"<k>, plus this one.) *)
let acl_payload = function
  | None -> "open"
  | Some [] -> "acl"
  | Some l -> "acl " ^ String.concat "," (List.map string_of_int (List.sort compare l))

let encode_snapshot st =
  let b = Buffer.create 256 in
  (* the flat header keeps a trailing space for an empty list *)
  Buffer.add_string b (match st.acl with Some [] -> "acl \n" | acl -> acl_payload acl ^ "\n");
  let bindings =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) st.table [] |> List.sort compare
  in
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%d %d %s%s\n" (String.length k) (String.length v) k v))
    bindings;
  Buffer.contents b

(* The ACL as written: "open", or "acl" and the comma-separated ids
   after a space; the flat header writes "acl " for an empty list, the
   arena record "acl". *)
let acl_of_payload s =
  if String.equal s "open" then Some None
  else if not (String.starts_with ~prefix:"acl" s) then None
  else
    match String.sub s 3 (String.length s - 3) with
    | "" | " " -> Some (Some [])
    | ids when ids.[0] = ' ' ->
        let parts = String.split_on_char ',' (String.sub ids 1 (String.length ids - 1)) in
        let l = List.filter_map int_of_string_opt parts in
        if List.length l = List.length parts then Some (Some l) else None
    | _ -> None

(* The flat snapshot: the ACL line, then "<klen> <vlen> <k><v>\n" per
   binding, read by its lengths. The whole image is checked before the
   store changes. *)
let decode_snapshot s =
  let len = String.length s in
  let int_until pos c =
    Option.bind (String.index_from_opt s pos c) (fun j ->
        Option.map (fun n -> (n, j + 1)) (int_of_string_opt (String.sub s pos (j - pos))))
  in
  let rec bindings pos acc =
    if pos = len then Some (List.rev acc)
    else
      match Option.bind (int_until pos ' ') (fun (kl, p1) ->
          Option.map (fun (vl, p2) -> (kl, vl, p2)) (int_until p1 ' ')) with
      | Some (kl, vl, p2) when kl >= 0 && vl >= 0 && kl < len - p2 && vl < len - p2 - kl
                               && s.[p2 + kl + vl] = '\n' ->
          bindings (p2 + kl + vl + 1) ((String.sub s p2 kl, String.sub s (p2 + kl) vl) :: acc)
      | _ -> None
  in
  match String.index_opt s '\n' with
  | None -> Error "kv: no header line"
  | Some nl -> (
      match (acl_of_payload (String.sub s 0 nl), bindings (nl + 1) []) with
      | Some acl, Some l -> Ok (acl, l)
      | None, _ -> Error "kv: bad ACL header"
      | _, None -> Error "kv: malformed binding")

(* Is [w] the first space-separated word of [op]? Reads [op] in place,
   so deciding access does not split it. *)
let verb_is op w =
  String.starts_with ~prefix:w op
  && (String.length op = String.length w || op.[String.length w] = ' ')

let mutating op = not (verb_is op "get" || verb_is op "size")

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
  (* Both restores check the whole image before the store changes. *)
  let restore_flat s =
    Result.map
      (fun (acl, bindings) ->
        st.acl <- acl;
        Hashtbl.reset st.table;
        List.iter (fun (k, v) -> Hashtbl.replace st.table k v) bindings)
      (decode_snapshot s)
  in
  let restore_paged a s =
    let valid (k, v) =
      if String.equal k "A" then acl_of_payload v <> None else String.length k > 1 && k.[0] = 'B'
    in
    match Paged_image.decode ~page_size:(Paged_image.page_size a) s with
    | Error _ as e -> e
    | Ok records -> (
        match Option.bind (List.assoc_opt "A" records) acl_of_payload with
        | Some acl when List.for_all valid records ->
            Result.map (fun _ -> st.acl <- acl) (Paged_image.restore a s)
        | _ -> Error "kv: bad arena record")
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
    restore = (match arena with None -> restore_flat | Some a -> restore_paged a);
    paged = Option.map Service.paged_of_image arena;
  }
