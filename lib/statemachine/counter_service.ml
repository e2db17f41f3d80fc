let create () =
  let v = ref 0 in
  let execute ~client:_ ~op ~nondet:_ =
    match String.split_on_char ' ' op with
    | [ "inc" ] ->
        incr v;
        string_of_int !v
    | [ "get" ] -> string_of_int !v
    | [ "add"; n ] -> (
        match int_of_string_opt n with
        | Some n ->
            v := !v + n;
            string_of_int !v
        | None -> Service.invalid)
    | [ "set"; n ] -> (
        match int_of_string_opt n with
        | Some n ->
            v := n;
            string_of_int !v
        | None -> Service.invalid)
    | _ -> Service.invalid
  in
  {
    Service.name = "counter";
    execute;
    is_read_only = (fun op -> String.equal op "get");
    has_access = (fun ~client:_ _ -> true);
    exec_cost_us = (fun _ -> 0.5);
    snapshot = (fun () -> string_of_int !v);
    restore =
      (fun s ->
        match int_of_string_opt s with
        | Some n -> Ok (v := n)
        | None -> Error "counter: not an integer");
    paged = None;
  }

let value (s : Service.t) = int_of_string (s.execute ~client:(-1) ~op:"get" ~nondet:"")
