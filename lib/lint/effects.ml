(* Fixpoint effect inference over the whole-program call graph.

   The lattice is three independent booleans joined pointwise — small on
   purpose, so the fixpoint is a plain iterate-until-stable loop:

     nondet          reaches a wall clock, the global Random state, or an
                     environment lookup — anything two replicas disagree on
     io              reaches the OS (files, channels, processes)
     unbounded_raise reaches [raise]/[failwith]/[invalid_arg]/[assert]
                     outside any analyzed handler

   Seeds come from the same ident tables the syntactic pass uses
   ([Syntactic.classify_ident]), an io/raise overlay for Stdlib, and
   [external] declarations (C stubs are ⊤ unless declared
   [@@lint.pure "<reason>"]; [%...] compiler intrinsics are pure).
   Effects propagate along *references*, not just saturated call sites:
   passing [f] to [List.iter] charges [f]'s effects to whoever supplied
   it, which is what makes calls through function parameters and
   record fields (the [Service] vtable) sound without widening every
   higher-order call to ⊤. The remaining gaps — closures smuggled through
   top-level mutable state, functor bodies — are documented in DESIGN.md.

   Unknown *named* callees (a persistent unit we have no table for and no
   cmt of) do widen to ⊤: being honest about code we cannot see beats
   silently assuming purity. *)

type eff = { nondet : bool; io : bool; raises : bool }

let bot = { nondet = false; io = false; raises = false }
let top = { nondet = true; io = true; raises = true }

let join a b = { nondet = a.nondet || b.nondet; io = a.io || b.io; raises = a.raises || b.raises }

let eq a b = Bool.equal a.nondet b.nondet && Bool.equal a.io b.io && Bool.equal a.raises b.raises

let to_string e =
  let tags =
    List.filter_map
      (fun (b, t) -> if b then Some t else None)
      [ (e.nondet, "nondet"); (e.io, "io"); (e.raises, "unbounded_raise") ]
  in
  if tags = [] then "pure" else String.concat "+" tags

(* --- external classification ---------------------------------------- *)

(* Normalize typedtree paths to the source-level shape the syntactic
   tables use: "Stdlib.Random.float" / "Stdlib__Random.float" both become
   ["Random"; "float"]. *)
let strip_stdlib comps =
  match comps with
  | "Stdlib" :: (_ :: _ as rest) -> rest
  | head :: rest when String.starts_with ~prefix:"Stdlib__" head ->
      String.sub head 8 (String.length head - 8) :: rest
  | comps -> comps

type classification = Seed of eff * string | Benign | Unknown of string

let effect_of_rule rule =
  if String.equal rule Rule.unix then Some ({ bot with nondet = true; io = true }, "Unix (wall clock / OS)")
  else if String.equal rule Rule.time then Some ({ bot with nondet = true }, "Sys.time (wall clock)")
  else if String.equal rule Rule.getenv then
    Some ({ bot with nondet = true }, "Sys.getenv (environment lookup)")
  else if String.equal rule Rule.random then Some ({ bot with nondet = true }, "Random (global PRNG state)")
  else None

(* Stdlib singletons with effects; everything else bare is pure. *)
let singleton_effect name =
  match name with
  | "raise" | "raise_notrace" | "failwith" | "invalid_arg" ->
      Some ({ bot with raises = true }, name)
  | "exit" | "at_exit" | "print_string" | "print_bytes" | "print_endline" | "print_newline"
  | "print_char" | "print_int" | "print_float" | "prerr_string" | "prerr_bytes"
  | "prerr_endline" | "prerr_newline" | "prerr_char" | "prerr_int" | "prerr_float"
  | "read_line" | "read_int" | "read_int_opt" | "read_float" | "read_float_opt" | "open_in"
  | "open_in_bin" | "open_in_gen" | "open_out" | "open_out_bin" | "open_out_gen" | "close_in"
  | "close_in_noerr" | "close_out" | "close_out_noerr" | "flush" | "flush_all"
  | "really_input_string" | "input_line" | "input_value" | "output_string" | "output_bytes"
  | "output_value" | "input" | "output" | "input_char" | "output_char" | "input_byte"
  | "output_byte" | "in_channel_length" | "out_channel_length" | "set_binary_mode_in"
  | "set_binary_mode_out" | "seek_in" | "seek_out" | "pos_in" | "pos_out" ->
      Some ({ bot with io = true }, name)
  | _ -> None

(* Module heads we model as effect-free: the pure stdlib containers, the
   repo's CLI/test/log dependencies (io at worst, and no rule consumes io
   from them), and the compiler-libs modules bft_lint itself links. The
   Domain/Atomic/Mutex/Condition *placement* discipline is enforced
   separately by the syntactic [domain-containment] rule. *)
let benign_heads =
  [
    "List"; "ListLabels"; "Array"; "ArrayLabels"; "String"; "StringLabels"; "Bytes";
    "BytesLabels"; "Buffer"; "Hashtbl"; "Map"; "Set"; "Queue"; "Stack"; "Option"; "Result";
    "Either"; "Bool"; "Char"; "Uchar"; "Int"; "Int32"; "Int64"; "Nativeint"; "Float"; "Fun";
    "Lazy"; "Seq"; "Printexc"; "Printf"; "Format"; "Complex"; "Obj"; "Ephemeron"; "Weak";
    "Bigarray"; "Domain";
    "Atomic"; "Mutex"; "Condition"; "Semaphore"; "Arg"; "Digest"; "StdLabels"; "MoreLabels";
    "Dynarray"; "Fmt"; "Logs"; "Cmdliner"; "Alcotest"; "QCheck"; "QCheck2"; "QCheck_base_runner";
    "Qcheck_alcotest"; "QCheck_alcotest"; "Parse"; "Location"; "Lexing"; "Parsing"; "Longident";
    "Path"; "Ident"; "Types"; "Predef"; "Env"; "Ctype"; "Cmt_format"; "Cmi_format"; "Typemod";
    "Compmisc"; "Warnings"; "Ast_iterator"; "Tast_iterator"; "Parsetree"; "Typedtree";
    "Asttypes"; "Misc"; "Clflags"; "Load_path"; "Unit_info"; "Builtin_attributes";
  ]

let classify_external comps =
  let stripped = strip_stdlib comps in
  let was_stdlib = stripped != comps in
  match Syntactic.classify_ident stripped with
  | Some (rule, _) when Option.is_some (effect_of_rule rule) ->
      let eff, desc = Option.get (effect_of_rule rule) in
      Seed (eff, desc)
  | _ -> (
      match stripped with
      | [ name ] when was_stdlib || not (String.equal (String.capitalize_ascii name) name) -> (
          match singleton_effect name with Some (e, d) -> Seed (e, d) | None -> Benign)
      | [ ("Printf" | "Format"); f ]
        when String.starts_with ~prefix:"printf" f
             || String.starts_with ~prefix:"eprintf" f
             || String.equal f "print_string" || String.equal f "print_newline" ->
          Seed ({ bot with io = true }, String.concat "." stripped)
      | ("Scanf" | "In_channel" | "Out_channel") :: _ ->
          Seed ({ bot with io = true }, String.concat "." stripped)
      | [ "Sys"; "readdir" ] ->
          Seed
            ( { bot with io = true; nondet = true },
              "Sys.readdir (directory order is not deterministic)" )
      | [ "Sys"; ("argv" | "executable_name" | "interactive" | "os_type" | "backend_type"
                 | "unix" | "win32" | "cygwin" | "word_size" | "int_size" | "big_endian"
                 | "max_string_length" | "max_array_length" | "ocaml_version" | "opaque_identity") ]
        ->
          Benign
      | "Sys" :: _ -> Seed ({ bot with io = true }, String.concat "." stripped)
      | [ "Filename"; ("temp_file" | "open_temp_file" | "temp_dir" | "get_temp_dir_name") ] ->
          Seed ({ bot with io = true; nondet = true }, String.concat "." stripped)
      | [ "Filename"; _ ] -> Benign
      | "Gc" :: _ ->
          Seed ({ bot with nondet = true }, "Gc (heap statistics are not replica-deterministic)")
      | head :: _ when List.exists (String.equal head) benign_heads -> Benign
      | _ -> Unknown (String.concat "." comps))

(* --- per-definition summaries and the fixpoint ----------------------- *)

type summary = {
  mutable s_eff : eff;
  s_seeds : (eff * string * Location.t) list;  (** direct seeds, source order *)
  s_edges : (string * Location.t) list;  (** references to other defs, source order *)
}

(* Scan one definition body: references become edges (internal) or seeds
   (classified externals / unknown ⊤). *)
let scan_body (cg : Callgraph.t) ~unit_name body =
  let seeds = ref [] and edges = ref [] in
  let expr (it : Tast_iterator.iterator) (e : Typedtree.expression) =
    (match e.exp_desc with
    | Typedtree.Texp_ident (p, { loc; _ }, _) -> (
        match Callgraph.resolve cg ~unit_name p with
        | Callgraph.Def d -> edges := (d.Callgraph.d_key, loc) :: !edges
        | Callgraph.Local -> ()
        | Callgraph.External comps -> (
            match classify_external comps with
            | Benign -> ()
            | Seed (eff, desc) -> seeds := (eff, desc, loc) :: !seeds
            | Unknown name ->
                seeds := (top, "unknown external " ^ name ^ " (widened to top)", loc) :: !seeds))
    | Typedtree.Texp_assert (_, loc) ->
        seeds := ({ bot with raises = true }, "assert", loc) :: !seeds
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it body;
  (List.rev !seeds, List.rev !edges)

let summarize cg (d : Callgraph.def) =
  match d.Callgraph.d_body with
  | Some body ->
      let s_seeds, s_edges = scan_body cg ~unit_name:d.Callgraph.d_unit body in
      { s_eff = bot; s_seeds; s_edges }
  | None ->
      (* [external]: compiler intrinsics are pure, and so is a C stub
         declared [@@lint.pure "<reason>"]; any other C stub is opaque, so ⊤. *)
      let intrinsic = List.for_all (fun p -> String.starts_with ~prefix:"%" p) d.Callgraph.d_prim in
      if intrinsic || d.Callgraph.d_pure then { s_eff = bot; s_seeds = []; s_edges = [] }
      else
        {
          s_eff = bot;
          s_seeds = [ (top, "external C stub " ^ d.Callgraph.d_disp, d.Callgraph.d_loc) ];
          s_edges = [];
        }

let infer (cg : Callgraph.t) =
  let summaries = Hashtbl.create 256 in
  List.iter
    (fun key -> Hashtbl.replace summaries key (summarize cg (Hashtbl.find cg.Callgraph.defs key)))
    cg.Callgraph.order;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun key ->
        let s = Hashtbl.find summaries key in
        let e =
          List.fold_left
            (fun acc (k, _) ->
              match Hashtbl.find_opt summaries k with
              | Some s' -> join acc s'.s_eff
              | None -> acc)
            (List.fold_left (fun acc (e, _, _) -> join acc e) s.s_eff s.s_seeds)
            s.s_edges
        in
        if not (eq e s.s_eff) then begin
          s.s_eff <- e;
          changed := true
        end)
      cg.Callgraph.order
  done;
  summaries

(* --- witnesses ------------------------------------------------------- *)

let hop_of_def (d : Callgraph.def) =
  Printf.sprintf "%s (%s:%d)" d.Callgraph.d_disp d.Callgraph.d_file
    d.Callgraph.d_loc.Location.loc_start.Lexing.pos_lnum

let hop_of_seed (desc, (loc : Location.t)) =
  Printf.sprintf "%s (%s:%d)" desc loc.Location.loc_start.Lexing.pos_fname
    loc.Location.loc_start.Lexing.pos_lnum

(* Shortest call path (BFS over references) from [key] to a definition
   carrying a direct seed satisfying [pred]; the last hop names the seed
   itself. Deterministic: edges keep source order, visits are guarded. *)
let witness (cg : Callgraph.t) summaries ~pred key =
  let seed_of k =
    match Hashtbl.find_opt summaries k with
    | Some s -> List.find_opt (fun (e, _, _) -> pred e) s.s_seeds
    | None -> None
  in
  let visited = Hashtbl.create 16 in
  let q = Queue.create () in
  Hashtbl.replace visited key ();
  Queue.add (key, [ key ]) q;
  let rec bfs () =
    if Queue.is_empty q then None
    else
      let k, path = Queue.take q in
      match seed_of k with
      | Some (_, desc, loc) ->
          let hops =
            List.rev_map (fun k -> hop_of_def (Hashtbl.find cg.Callgraph.defs k)) path
          in
          Some (hops @ [ hop_of_seed (desc, loc) ])
      | None ->
          (match Hashtbl.find_opt summaries k with
          | Some s ->
              List.iter
                (fun (k', _) ->
                  if not (Hashtbl.mem visited k') then begin
                    match Hashtbl.find_opt summaries k' with
                    | Some s' when pred s'.s_eff ->
                        Hashtbl.replace visited k' ();
                        Queue.add (k', k' :: path) q
                    | _ -> ()
                  end)
                s.s_edges
          | None -> ());
          bfs ()
  in
  bfs ()

(* --- the transitive-nondet rule -------------------------------------- *)

(* Roots: the code whose determinism the PBFT safety argument needs —
   replica/client protocol handlers, anything encoder-shaped (same name
   heuristic as the hashtbl-order rule), and service execution. *)
let is_root (d : Callgraph.def) =
  let base = Callgraph.unit_base d.Callgraph.d_unit in
  let leaf =
    match List.rev (String.split_on_char '.' d.Callgraph.d_disp) with
    | leaf :: _ -> String.lowercase_ascii leaf
    | [] -> ""
  in
  (match base with
  | "Replica" | "Client" | "Service" | "Fs" -> true
  | _ -> String.ends_with ~suffix:"_service" (String.lowercase_ascii base))
  || Syntactic.encoder_name leaf
  || String.starts_with ~prefix:"handle" leaf
  || String.starts_with ~prefix:"on_" leaf
  || String.equal leaf "execute" || String.equal leaf "apply"

let nondet e = e.nondet

let findings (cg : Callgraph.t) summaries =
  List.filter_map
    (fun key ->
      let d = Hashtbl.find cg.Callgraph.defs key in
      let s = Hashtbl.find summaries key in
      let directly_seeded = List.exists (fun (e, _, _) -> e.nondet) s.s_seeds in
      if
        is_root d && s.s_eff.nondet && (not directly_seeded)
        && not (List.exists (String.equal Rule.transitive_nondet) d.Callgraph.d_allows)
      then
        let w = Option.value (witness cg summaries ~pred:nondet key) ~default:[] in
        let seed_desc =
          match List.rev w with last :: _ -> last | [] -> "a nondeterministic seed"
        in
        Some
          (Finding.v ~witness:w ~rule:Rule.transitive_nondet ~loc:d.Callgraph.d_loc
             (Printf.sprintf
                "%s is protocol-reachable but transitively reaches %s; replicas executing the \
                 same schedule would diverge (bftlint --why prints the call path)"
                d.Callgraph.d_disp seed_desc))
      else None)
    cg.Callgraph.order
