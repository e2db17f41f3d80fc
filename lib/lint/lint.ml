(* Driver: run the syntactic rules over [.ml] sources, the type-aware
   rules over the [.cmt] files dune leaves under [.objs/byte], then the
   whole-program pass (call graph -> effect fixpoint -> transitive-nondet
   and unused exports) over every loaded typedtree at once; apply the
   per-directory allowlist and report sorted findings. *)

(* Built-in per-directory allowlist: unchecked accesses are the point of
   the crypto kernels and the arenas. Nothing is allowlisted for
   [domain-containment]: the simulator and its verification run on one
   domain, so bringing worker domains back means adding an entry here,
   where a reviewer sees it.

   bench/ and bin/ are drivers: wall-clock timing and environment
   lookups are their job (the simulator itself never sees them), so the
   determinism fence stops at lib/ + the protocol-reachable roots.

   Authentication is made and checked by lib/crypto and, for the
   protocol, by Seal alone; drivers and tests build tokens by hand. *)
let default_allowlist =
  [
    ("lib/crypto/", Rule.unsafe_op);
    ("lib/crypto/", Rule.auth_owner);
    ("lib/core/seal.ml", Rule.auth_owner);
    ("bench/", Rule.auth_owner);
    ("bin/", Rule.auth_owner);
    ("test/", Rule.auth_owner);
    ("lib/statemachine/paged_image.ml", Rule.unsafe_op);
    ("lib/net/wire_arena.ml", Rule.unsafe_op);
  ]

let contains_sub = Bft_util.Strutil.contains_sub

let allowed_by allowlist (f : Finding.t) =
  List.exists
    (fun (prefix, rule) -> String.equal rule f.Finding.rule && contains_sub f.Finding.file prefix)
    allowlist

(* --allow PREFIX:RULE specs: a malformed spec is a hard usage error
   (empty prefix, empty/unknown rule id) — silently dropping one would
   run the gate with different rules than the caller asked for. *)
let parse_allow spec =
  match String.index_opt spec ':' with
  | None -> Error (Printf.sprintf "malformed --allow %S (want PREFIX:RULE)" spec)
  | Some i ->
      let prefix = String.sub spec 0 i
      and rule = String.sub spec (i + 1) (String.length spec - i - 1) in
      if String.length prefix = 0 || String.length rule = 0 then
        Error (Printf.sprintf "malformed --allow %S (want PREFIX:RULE)" spec)
      else if not (List.exists (String.equal rule) Rule.ids) then
        Error (Printf.sprintf "unknown rule %S in --allow %S" rule spec)
      else Ok (prefix, rule)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_impl ~filename src =
  let lexbuf = Lexing.from_string src in
  Location.init lexbuf filename;
  Parse.implementation lexbuf

(* Lint one [.ml] source file (syntactic rules only). [filename] is the
   path recorded in findings; [path], when given, is where to read it. *)
let lint_ml_file ?path filename =
  let src = read_file (Option.value path ~default:filename) in
  Syntactic.lint (parse_impl ~filename src)

(* Load one [.cmt] file. Findings carry the source path recorded at
   compile time, e.g. "lib/core/replica.ml". *)
let load_cmt path =
  let cmt = Cmt_format.read_cmt path in
  match cmt.Cmt_format.cmt_annots with
  | Cmt_format.Implementation tstr ->
      Some
        {
          Callgraph.u_name = cmt.Cmt_format.cmt_modname;
          u_file = Option.value cmt.Cmt_format.cmt_sourcefile ~default:path;
          u_str = tstr;
        }
  | _ -> None

(* The exported values of one [.cmti] file. *)
let load_cmti path =
  let cmt = Cmt_format.read_cmt path in
  match cmt.Cmt_format.cmt_annots with
  | Cmt_format.Interface sg -> Exports.of_signature ~unit_name:cmt.Cmt_format.cmt_modname sg
  | _ -> []

(* The whole-program pass: build the cross-module call graph, run the
   effect fixpoint, then the transitive-nondet and unused-export rules. *)
let interprocedural ?(exports = []) units =
  let cg = Callgraph.build units in
  let summaries = Effects.infer cg in
  Effects.findings cg summaries @ Exports.findings cg units exports

(* Typecheck a standalone snippet against the initial environment so the
   fixture corpus can exercise the type-aware rules without dune in the
   loop. Returns [Error] when the snippet does not typecheck (fixtures
   for the determinism rules reference Unix etc., which is not on the
   load path — their typed findings are necessarily empty). *)
let initial_env =
  lazy
    (Compmisc.init_path ();
     (* fixtures are deliberately scruffy; keep the typechecker from
        printing warnings while linting them *)
     let (_ : Warnings.alert option) = Warnings.parse_options false "-a" in
     Compmisc.initial_env ())

let typecheck str =
  match Typemod.type_structure (Lazy.force initial_env) str with
  | tstr, _, _, _, _ -> Ok tstr
  | exception exn -> Error (Printexc.to_string exn)

let modname_of_filename filename =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename filename))

(* Lint a source string with every rule set (the whole-program pass runs
   on the single unit, so intra-file module laundering is visible). The
   second component tells the caller whether the typed passes ran. *)
let lint_source ~filename src =
  let str = parse_impl ~filename src in
  let syntactic = Syntactic.lint str in
  match typecheck str with
  | Ok tstr ->
      let unit =
        { Callgraph.u_name = modname_of_filename filename; u_file = filename; u_str = tstr }
      in
      ( List.sort Finding.compare_pos (syntactic @ Typed.lint tstr @ interprocedural [ unit ]),
        Ok () )
  | Error e -> (List.sort Finding.compare_pos syntactic, Error e)

(* The whole-program rules over several units at once, each given as
   (filename, interface source if any, implementation source). Units are
   typechecked in order and each is added to the environment as a
   compilation unit, so a later unit's references resolve the way they do
   in a dune build. Raises if a unit does not typecheck. *)
let lint_units units =
  let env = ref (Lazy.force initial_env) in
  let loaded =
    List.map
      (fun (filename, mli, ml) ->
        let name = modname_of_filename filename in
        let tstr, _, _, _, _ = Typemod.type_structure !env (parse_impl ~filename ml) in
        let sg, exports =
          match mli with
          | None -> (tstr.Typedtree.str_type, [])
          | Some src ->
              let lexbuf = Lexing.from_string src in
              Location.init lexbuf (Filename.remove_extension filename ^ ".mli");
              let tsg = Typemod.transl_signature !env (Parse.interface lexbuf) in
              (tsg.Typedtree.sig_type, Exports.of_signature ~unit_name:name tsg)
        in
        env :=
          Env.add_module (Ident.create_persistent name) Types.Mp_present
            (Types.Mty_signature sg) !env;
        ({ Callgraph.u_name = name; u_file = filename; u_str = tstr }, exports))
      units
  in
  List.sort Finding.compare_pos
    (interprocedural ~exports:(List.concat_map snd loaded) (List.map fst loaded))

(* Walk [root/path] collecting sources, cmt and cmti artifacts. Sources
   are reported relative to [root]; directory order is sorted so runs are
   deterministic. [.cmti] files (interfaces) only feed the unused-export
   rule; wrapper/alias cmts are harmless to scan. Paths matching
   [exclude] (substring) are skipped — the lint-fixture corpus violates
   the rules on purpose. *)
let default_exclude = [ "lint_fixtures" ]

let gather ?(exclude = default_exclude) ~root paths =
  let excluded rel = List.exists (fun e -> contains_sub rel e) exclude in
  let mls = ref [] and cmts = ref [] and cmtis = ref [] in
  let rec walk rel =
    let full = Filename.concat root rel in
    if excluded rel then ()
    else if Sys.is_directory full then
      Array.iter
        (fun name -> walk (Filename.concat rel name))
        (let names = Sys.readdir full in
         Array.sort String.compare names;
         names)
    else if String.ends_with ~suffix:".ml" rel then mls := rel :: !mls
    else if String.ends_with ~suffix:".cmt" rel then cmts := rel :: !cmts
    else if String.ends_with ~suffix:".cmti" rel then cmtis := rel :: !cmtis
  in
  List.iter (fun p -> if Sys.file_exists (Filename.concat root p) then walk p) paths;
  (List.rev !mls, List.rev !cmts, List.rev !cmtis)

type run = {
  findings : Finding.t list;
  errors : string list;  (* files that failed to parse/load *)
  files_scanned : int;
  cmts_scanned : int;
}

(* Lint a tree: syntactic rules over every [.ml], typed rules over every
   [.cmt], the whole-program pass over all loaded units together, and
   the allowlist applied to everything. [allow] extends the built-in
   per-directory allowlist with (path-prefix, rule-id) pairs. *)
let lint_tree ?(allow = []) ?exclude ~root paths =
  let allowlist = allow @ default_allowlist in
  let mls, cmts, cmtis = gather ?exclude ~root paths in
  let errors = ref [] in
  let of_ml rel =
    match lint_ml_file ~path:(Filename.concat root rel) rel with
    | fs -> fs
    | exception exn ->
        errors := Printf.sprintf "%s: %s" rel (Printexc.to_string exn) :: !errors;
        []
  in
  let units = ref [] in
  let of_cmt rel =
    match load_cmt (Filename.concat root rel) with
    | Some u ->
        units := u :: !units;
        Typed.lint u.Callgraph.u_str
    | None -> []
    | exception exn ->
        errors := Printf.sprintf "%s: %s" rel (Printexc.to_string exn) :: !errors;
        []
  in
  let of_cmti rel =
    match load_cmti (Filename.concat root rel) with
    | xs -> xs
    | exception exn ->
        errors := Printf.sprintf "%s: %s" rel (Printexc.to_string exn) :: !errors;
        []
  in
  let raw = List.concat_map of_ml mls @ List.concat_map of_cmt cmts in
  let exports = List.concat_map of_cmti cmtis in
  let raw = raw @ interprocedural ~exports (List.rev !units) in
  let findings =
    List.sort Finding.compare_pos (List.filter (fun f -> not (allowed_by allowlist f)) raw)
  in
  {
    findings;
    errors = List.rev !errors;
    files_scanned = List.length mls;
    cmts_scanned = List.length cmts;
  }
