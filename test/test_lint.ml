(* bft_lint: every rule in the catalogue has a fixture that triggers it
   (exact ids and lines asserted), suppression works, and — the merge
   gate — the repo's own lib/ tree lints clean. *)

module Lint = Bft_lint.Lint
module Finding = Bft_lint.Finding
module Rule = Bft_lint.Rule
module Callgraph = Bft_lint.Callgraph
module Effects = Bft_lint.Effects

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let lint_fixture name =
  let path = Filename.concat "lint_fixtures" name in
  Lint.lint_source ~filename:path (read_file path)

let contains = Bft_util.Strutil.contains_sub

(* (fixture, does the assertion need the typed pass?, expected (rule, line)s).
   Fixtures that reference Unix do not typecheck against the initial env
   (Unix is not on the load path), so their typed pass is skipped; all
   their findings are syntactic anyway. *)
let corpus =
  [
    ("bad_unix.ml", false, [ (Rule.unix, 1) ]);
    ("bad_time.ml", false, [ (Rule.time, 1) ]);
    ("bad_getenv.ml", false, [ (Rule.getenv, 1) ]);
    ("bad_random.ml", false, [ (Rule.random, 1); (Rule.random, 2) ]);
    (* cohort arrival processes must draw from seeded Rng streams and the
       virtual clock; both escape hatches trip the determinism fence *)
    ( "bad_cohort_arrival.ml",
      false,
      [ (Rule.random, 5); (Rule.random, 6); (Rule.unix, 7) ] );
    ("bad_marshal.ml", false, [ (Rule.marshal, 1) ]);
    ("bad_hashtbl_hash.ml", false, [ (Rule.hashtbl_hash, 1) ]);
    ("bad_hashtbl_order.ml", false, [ (Rule.hashtbl_order, 3) ]);
    ("bad_swallow.ml", false, [ (Rule.swallowed_exception, 1) ]);
    ("bad_ignored_result.ml", true, [ (Rule.ignored_result, 1) ]);
    ( "bad_digest_compare.ml",
      true,
      [ (Rule.digest_compare, 1); (Rule.digest_compare, 2); (Rule.digest_compare, 3) ] );
    ( "bad_handle_compare.ml",
      true,
      [
        (Rule.engine_handle_compare, 2);
        (Rule.engine_handle_compare, 3);
        (Rule.engine_handle_compare, 4);
      ] );
    ("bad_unsafe.ml", false, [ (Rule.unsafe_op, 1); (Rule.unsafe_op, 2) ]);
    ( "bad_domain.ml",
      false,
      [
        (Rule.domain_containment, 1);
        (Rule.domain_containment, 2);
        (Rule.domain_containment, 3);
        (Rule.domain_containment, 4);
      ] );
    ("allowed_suppress.ml", false, []);
    (* interprocedural: the seed's syntactic report is allowed at its use
       site, then laundered through two modules — only the whole-program
       effect pass can flag the protocol-reachable root *)
    ("bad_transitive_nondet.ml", true, [ (Rule.transitive_nondet, 13) ]);
    (* C stubs are opaque: reaching one from a protocol root fires unless
       the [external] itself declares [@@lint.pure "<reason>"] *)
    ( "bad_c_stub.ml",
      true,
      [ (Rule.transitive_nondet, 10); (Rule.transitive_nondet, 12) ] );
    ("allowed_pure_stub.ml", true, []);
    (* I/O-only callees (print, Printf, Sys, In_channel) are benign: no
       seed, and not an unknown external either *)
    ("allowed_io_root.ml", true, []);
    (* a file marked protocol core names the simulator only through its
       port; other Bft_net modules (Costs) stay in reach *)
    ( "bad_protocol_core.ml",
      false,
      [
        (Rule.protocol_core, 2);
        (Rule.protocol_core, 3);
        (Rule.protocol_core, 4);
        (Rule.protocol_core, 5);
        (Rule.protocol_core, 6);
      ] );
  ]

(* Rules that need more than one compilation unit: (case name, units as
   (filename, interface, implementation), expected (rule, file, line)s). *)
let multi_unit_corpus =
  [
    (* an export referenced only from another unit's [let () =] block is
       used; one referenced nowhere is flagged at its [val] *)
    ( "unused_export",
      [
        ( "exporter.ml",
          Some "val used_at_init : int -> int\nval unused : int -> int\n",
          "let used_at_init x = x + 1\nlet unused x = x * 2\n" );
        ("consumer.ml", None, "let () = assert (Exporter.used_at_init 1 = 2)\n");
      ],
      [ (Rule.unused_export, "exporter.mli", 2) ] );
  ]

let test_multi_unit (name, units, expected) () =
  let got =
    List.map (fun f -> (f.Finding.rule, f.Finding.file, f.Finding.line)) (Lint.lint_units units)
  in
  Alcotest.(check (list (triple string string int))) name expected got

let test_fixture (name, needs_typed, expected) () =
  let findings, typechecked = lint_fixture name in
  (if needs_typed then
     match typechecked with
     | Ok () -> ()
     | Error e -> Alcotest.failf "%s: typed pass did not run: %s" name e);
  let got = List.map (fun f -> (f.Finding.rule, f.Finding.line)) findings in
  Alcotest.(check (list (pair string int))) name expected got

let test_catalogue_covered () =
  (* every rule id in the catalogue is exercised by at least one fixture *)
  let covered =
    List.concat_map (fun (_, _, expected) -> List.map fst expected) corpus
    @ List.concat_map
        (fun (_, _, expected) -> List.map (fun (rule, _, _) -> rule) expected)
        multi_unit_corpus
  in
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "rule %s has a fixture" id)
        true
        (List.exists (String.equal id) covered))
    Rule.ids

(* the corpus and the on-disk fixture directory stay in sync: a fixture
   nobody asserts on is dead weight, and a corpus entry without a file is
   a typo the fixture tests would silently skip *)
let test_corpus_matches_disk () =
  let on_disk =
    Sys.readdir "lint_fixtures" |> Array.to_list
    |> List.filter (String.ends_with ~suffix:".ml")
    |> List.sort String.compare
  in
  let in_corpus = List.sort String.compare (List.map (fun (n, _, _) -> n) corpus) in
  Alcotest.(check (list string)) "fixture corpus = lint_fixtures/*.ml" on_disk in_corpus

(* the --why witness: the exact call path from the flagged root to the
   effect seed, outermost first, each hop carrying its source location *)
let test_why_witness () =
  let findings, typechecked = lint_fixture "bad_transitive_nondet.ml" in
  (match typechecked with
  | Ok () -> ()
  | Error e -> Alcotest.failf "typed pass did not run: %s" e);
  match findings with
  | [ f ] ->
      let file = "lint_fixtures/bad_transitive_nondet.ml" in
      Alcotest.(check (list string))
        "witness hops"
        [
          Printf.sprintf "handle_request (%s:13)" file;
          Printf.sprintf "Jitter.next (%s:10)" file;
          Printf.sprintf "Entropy.sample (%s:6)" file;
          Printf.sprintf "Random (global PRNG state) (%s:6)" file;
        ]
        f.Finding.witness;
      Alcotest.(check (list string))
        "--why rendering"
        [
          Printf.sprintf "  why: handle_request (%s:13)" file;
          Printf.sprintf "    -> Jitter.next (%s:10)" file;
          Printf.sprintf "    -> Entropy.sample (%s:6)" file;
          Printf.sprintf "    -> Random (global PRNG state) (%s:6)" file;
        ]
        (Finding.why_lines f)
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

(* a malformed or unknown --allow spec must be a hard usage error, not a
   warning the gate shrugs off (regression: it used to warn and exit 0) *)
let test_parse_allow () =
  let ok spec =
    match Lint.parse_allow spec with
    | Ok pr -> pr
    | Error e -> Alcotest.failf "parse_allow %S: unexpected error %s" spec e
  in
  let err spec =
    match Lint.parse_allow spec with
    | Ok _ -> Alcotest.failf "parse_allow %S: expected an error" spec
    | Error e -> e
  in
  Alcotest.(check (pair string string))
    "well-formed" ("bench/", Rule.unix)
    (ok ("bench/:" ^ Rule.unix));
  Alcotest.(check bool) "no colon" true (contains (err "bench") "malformed");
  Alcotest.(check bool) "empty prefix" true (contains (err (":" ^ Rule.unix)) "malformed");
  Alcotest.(check bool) "empty rule" true (contains (err "bench/:") "malformed");
  Alcotest.(check bool) "unknown rule" true (contains (err "bench/:not-a-rule") "unknown rule")

let test_sarif_output () =
  let findings, _ = lint_fixture "bad_transitive_nondet.ml" in
  let sarif = Finding.list_to_sarif ~rules:Rule.all findings in
  Alcotest.(check bool) "sarif version" true (contains sarif "\"version\": \"2.1.0\"");
  Alcotest.(check bool) "names the rule" true
    (contains sarif (Printf.sprintf "\"ruleId\": \"%s\"" Rule.transitive_nondet));
  Alcotest.(check bool) "catalogue rules present" true
    (List.for_all (fun (id, _, _) -> contains sarif (Printf.sprintf "\"id\": \"%s\"" id)) Rule.all);
  Alcotest.(check bool) "witness rides in properties" true (contains sarif "\"witness\": [\"")

let test_findings_carry_locations () =
  let findings, _ = lint_fixture "bad_unix.ml" in
  match findings with
  | [ f ] ->
      Alcotest.(check string) "file" "lint_fixtures/bad_unix.ml" f.Finding.file;
      Alcotest.(check bool) "column present" true (f.Finding.col >= 0);
      Alcotest.(check bool) "message nonempty" true (String.length f.Finding.msg > 0)
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let test_json_output () =
  let findings, _ = lint_fixture "bad_unix.ml" in
  let json = Finding.list_to_json findings in
  Alcotest.(check bool) "has count" true (contains json "\"count\": 1");
  Alcotest.(check bool) "names the rule" true (contains json Rule.unix)

(* the merge gate: the repo's own sources and their cmts produce zero
   findings and zero errors — lib/ plus the bin/bench/test/examples
   drivers the @lint alias scans *)
let test_repo_lints_clean () =
  if not (Sys.file_exists "../lib" && Sys.is_directory "../lib") then
    Alcotest.skip ()
  else begin
    let run = Lint.lint_tree ~root:".." [ "lib"; "bin"; "bench"; "test"; "examples" ] in
    List.iter (fun e -> Printf.eprintf "lint error: %s\n" e) run.Lint.errors;
    List.iter
      (fun f -> Printf.eprintf "finding: %s\n" (Finding.to_string f))
      run.Lint.findings;
    Alcotest.(check (list string)) "no errors" [] run.Lint.errors;
    Alcotest.(check int) "no findings" 0 (List.length run.Lint.findings);
    Alcotest.(check bool) "scanned the tree" true (run.Lint.files_scanned >= 30)
  end

(* Nothing is allowlisted for domain primitives: the simulator and its
   verification run on one domain, so worker domains can only come back
   through an entry here. *)
let test_no_domain_allowlist () =
  Alcotest.(check (list string))
    "domain-containment prefixes" []
    (List.filter_map
       (fun (prefix, rule) ->
         if String.equal rule Rule.domain_containment then Some prefix else None)
       Lint.default_allowlist)

(* The replica's protocol cycle is made of direct calls the call graph
   can see: a fired vc timer starts the view change from [on_timer], and
   execution slides the primary's window. *)
let test_replica_call_edges () =
  let _, cmts, _ = Lint.gather ~root:".." [ "lib/core" ] in
  let units = List.filter_map (fun rel -> Lint.load_cmt (Filename.concat ".." rel)) cmts in
  let summaries = Effects.infer (Callgraph.build units) in
  let edge src dst =
    let key name = "Bft_core__Replica." ^ name in
    match Hashtbl.find_opt summaries (key src) with
    | None -> Alcotest.failf "no definition %s in the call graph" (key src)
    | Some s ->
        Alcotest.(check bool)
          (Printf.sprintf "%s -> %s" src dst)
          true
          (List.exists (fun (k, _) -> String.equal k (key dst)) s.Effects.s_edges)
  in
  edge "on_timer" "start_view_change";
  edge "try_execute" "process_queue"

let suites =
  [
    ( "lint.fixtures",
      List.map
        (fun ((name, _, _) as case) -> Alcotest.test_case name `Quick (test_fixture case))
        corpus
      @ List.map
          (fun ((name, _, _) as case) -> Alcotest.test_case name `Quick (test_multi_unit case))
          multi_unit_corpus
      @ [
          Alcotest.test_case "catalogue covered" `Quick test_catalogue_covered;
          Alcotest.test_case "corpus matches disk" `Quick test_corpus_matches_disk;
          Alcotest.test_case "why witness" `Quick test_why_witness;
          Alcotest.test_case "parse --allow" `Quick test_parse_allow;
          Alcotest.test_case "finding locations" `Quick test_findings_carry_locations;
          Alcotest.test_case "json output" `Quick test_json_output;
          Alcotest.test_case "sarif output" `Quick test_sarif_output;
        ] );
    ( "lint.repo",
      [
        Alcotest.test_case "tree lints clean" `Quick test_repo_lints_clean;
        Alcotest.test_case "replica call edges" `Quick test_replica_call_edges;
        Alcotest.test_case "no domain allowlist" `Quick test_no_domain_allowlist;
      ] );
  ]
