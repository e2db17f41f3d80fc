let op ~read_only ~arg_size ~result_size =
  let tag = if read_only then "ro" else "rw" in
  let header = Printf.sprintf "%s:%d:" tag result_size in
  let pad = max 0 (arg_size - String.length header) in
  header ^ String.make pad 'x'

(* The header only, read by index: the tag before the first ':' and the
   size field up to the second ':' (or the end). The padding after it is
   never split or copied. *)
let parse op =
  match String.index_opt op ':' with
  | Some 2 when op.[0] = 'r' && (op.[1] = 'o' || op.[1] = 'w') -> (
      let stop = match String.index_from_opt op 3 ':' with Some j -> j | None -> String.length op in
      match int_of_string_opt (String.sub op 3 (stop - 3)) with
      | Some r when r >= 0 -> Some (op.[1] = 'o', r)
      | _ -> None)
  | _ -> None

let max_result = 65_536

let create () =
  let count = ref 0 in
  let execute ~client:_ ~op ~nondet:_ =
    match parse op with
    | Some (read_only, r) when r <= max_result ->
        if not read_only then incr count;
        String.make r '\x00'
    | Some _ | None -> Service.invalid
  in
  {
    Service.name = "null";
    execute;
    is_read_only = (fun op -> match parse op with Some (ro, _) -> ro | None -> false);
    has_access = (fun ~client:_ _ -> true);
    exec_cost_us = (fun _ -> 0.0);
    snapshot = (fun () -> string_of_int !count);
    restore =
      (fun s ->
        match int_of_string_opt s with
        | Some n -> Ok (count := n)
        | None -> Error "null: not an integer");
    paged = None;
  }
