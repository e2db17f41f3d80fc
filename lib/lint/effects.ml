(* Fixpoint effect inference over the whole-program call graph.

   The lattice is one bit, [nondet]: a definition reaches a wall clock,
   the global Random state, an environment lookup or heap statistics —
   anything two replicas disagree on. Join is [||], so the fixpoint is a
   plain iterate-until-stable loop. I/O and raising are not tracked: no
   rule reads them.

   Seeds come from the same ident tables the syntactic pass uses
   ([Syntactic.classify_ident]), a nondet overlay for Stdlib, and
   [external] declarations (C stubs are nondet unless declared
   [@@lint.pure "<reason>"]; [%...] compiler intrinsics are pure).
   Effects propagate along *references*, not just saturated call sites:
   passing [f] to [List.iter] charges [f]'s effects to whoever supplied
   it, which is what makes calls through function parameters and
   record fields (the [Service] vtable) sound without widening every
   higher-order call to nondet. The remaining gaps — closures smuggled
   through top-level mutable state, functor bodies — are documented in
   DESIGN.md.

   Unknown *named* callees (a persistent unit we have no table for and no
   cmt of) do count as nondet: being honest about code we cannot see beats
   silently assuming purity. *)

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

type classification = Seed of string | Benign | Unknown of string

let effect_of_rule rule =
  if String.equal rule Rule.unix then Some "Unix (wall clock / OS)"
  else if String.equal rule Rule.time then Some "Sys.time (wall clock)"
  else if String.equal rule Rule.getenv then Some "Sys.getenv (environment lookup)"
  else if String.equal rule Rule.random then Some "Random (global PRNG state)"
  else None

(* Module heads we model as deterministic: the pure stdlib containers,
   the I/O-only channel modules, the repo's CLI/test/log dependencies, and
   the compiler-libs modules bft_lint itself links. The
   Domain/Atomic/Mutex/Condition *placement* discipline is enforced
   separately by the syntactic [domain-containment] rule. *)
let benign_heads =
  [
    "List"; "ListLabels"; "Array"; "ArrayLabels"; "String"; "StringLabels"; "Bytes";
    "BytesLabels"; "Buffer"; "Hashtbl"; "Map"; "Set"; "Queue"; "Stack"; "Option"; "Result";
    "Either"; "Bool"; "Char"; "Uchar"; "Int"; "Int32"; "Int64"; "Nativeint"; "Float"; "Fun";
    "Lazy"; "Seq"; "Printexc"; "Printf"; "Format"; "Scanf"; "In_channel"; "Out_channel";
    "Complex"; "Obj"; "Ephemeron"; "Weak";
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
  match Option.bind (Syntactic.classify_ident stripped) (fun (rule, _) -> effect_of_rule rule) with
  | Some desc -> Seed desc
  | None -> (
      match stripped with
      | [ name ] when was_stdlib || not (String.equal (String.capitalize_ascii name) name) -> Benign
      | [ "Sys"; "readdir" ] -> Seed "Sys.readdir (directory order is not deterministic)"
      | "Sys" :: _ -> Benign
      | [ "Filename"; ("temp_file" | "open_temp_file" | "temp_dir" | "get_temp_dir_name") ] ->
          Seed (String.concat "." stripped)
      | [ "Filename"; _ ] -> Benign
      | "Gc" :: _ -> Seed "Gc (heap statistics are not replica-deterministic)"
      | head :: _ when List.exists (String.equal head) benign_heads -> Benign
      | _ -> Unknown (String.concat "." comps))

(* --- per-definition summaries and the fixpoint ----------------------- *)

type summary = {
  mutable s_nondet : bool;
  s_seeds : (string * Location.t) list;  (** direct seeds, source order *)
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
            | Seed desc -> seeds := (desc, loc) :: !seeds
            | Unknown name ->
                seeds := ("unknown external " ^ name ^ " (widened to top)", loc) :: !seeds))
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
      { s_nondet = false; s_seeds; s_edges }
  | None ->
      (* [external]: compiler intrinsics are pure, and so is a C stub
         declared [@@lint.pure "<reason>"]; any other C stub is opaque, so
         nondet. *)
      let intrinsic = List.for_all (fun p -> String.starts_with ~prefix:"%" p) d.Callgraph.d_prim in
      if intrinsic || d.Callgraph.d_pure then { s_nondet = false; s_seeds = []; s_edges = [] }
      else
        {
          s_nondet = false;
          s_seeds = [ ("external C stub " ^ d.Callgraph.d_disp, d.Callgraph.d_loc) ];
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
        let reaches (k, _) =
          match Hashtbl.find_opt summaries k with Some s' -> s'.s_nondet | None -> false
        in
        if (not s.s_nondet) && (s.s_seeds <> [] || List.exists reaches s.s_edges) then begin
          s.s_nondet <- true;
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
   carrying a direct seed; the last hop names the seed itself.
   Deterministic: edges keep source order, visits are guarded. *)
let witness (cg : Callgraph.t) summaries key =
  let seed_of k =
    match Hashtbl.find_opt summaries k with
    | Some { s_seeds = seed :: _; _ } -> Some seed
    | Some _ | None -> None
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
      | Some seed ->
          let hops =
            List.rev_map (fun k -> hop_of_def (Hashtbl.find cg.Callgraph.defs k)) path
          in
          Some (hops @ [ hop_of_seed seed ])
      | None ->
          (match Hashtbl.find_opt summaries k with
          | Some s ->
              List.iter
                (fun (k', _) ->
                  if not (Hashtbl.mem visited k') then begin
                    match Hashtbl.find_opt summaries k' with
                    | Some s' when s'.s_nondet ->
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

let findings (cg : Callgraph.t) summaries =
  List.filter_map
    (fun key ->
      let d = Hashtbl.find cg.Callgraph.defs key in
      let s = Hashtbl.find summaries key in
      if
        is_root d && s.s_nondet && s.s_seeds = []
        && not (List.exists (String.equal Rule.transitive_nondet) d.Callgraph.d_allows)
      then
        let w = Option.value (witness cg summaries key) ~default:[] in
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
