(* bftlint — static-analysis gate over this repo's sources.

   Syntactic rules run on a parse of each .ml file; type-aware and
   whole-program (call-graph / effect / unused-export) rules run on the
   .cmt files dune emits, so run it from a tree where the libraries are
   built (dune build @lint does exactly that). Exit codes: 0 clean,
   1 findings, 2 scan errors or usage errors (e.g. malformed --allow). *)

open Cmdliner

let run root paths format out sarif_out why allows =
  let allow, bad =
    List.partition_map
      (fun spec ->
        match Bft_lint.Lint.parse_allow spec with
        | Ok pr -> Left pr
        | Error e -> Right e)
      allows
  in
  if bad <> [] then begin
    List.iter (fun e -> Printf.eprintf "bftlint: %s\n" e) bad;
    2
  end
  else begin
    let r = Bft_lint.Lint.lint_tree ~allow ~root paths in
    let json = Bft_lint.Finding.list_to_json r.findings in
    let sarif () = Bft_lint.Finding.list_to_sarif ~rules:Bft_lint.Rule.all r.findings in
    let write_file file s =
      let oc = open_out file in
      output_string oc s;
      output_char oc '\n';
      close_out oc
    in
    Option.iter (fun file -> write_file file json) out;
    Option.iter (fun file -> write_file file (sarif ())) sarif_out;
    (match format with
    | `Json -> print_endline json
    | `Sarif -> print_endline (sarif ())
    | `Text ->
        List.iter
          (fun f ->
            print_endline (Bft_lint.Finding.to_string f);
            if why then List.iter print_endline (Bft_lint.Finding.why_lines f))
          r.findings;
        Printf.printf "bftlint: %d finding%s in %d files (+%d cmt)\n" (List.length r.findings)
          (if List.length r.findings = 1 then "" else "s")
          r.files_scanned r.cmts_scanned);
    List.iter (fun e -> Printf.eprintf "bftlint: error: %s\n" e) r.errors;
    if r.errors <> [] then 2 else if r.findings <> [] then 1 else 0
  end

let root =
  let doc = "Tree to lint (the build tree, so .cmt files are visible)." in
  Arg.(value & opt string "." & info [ "root" ] ~docv:"DIR" ~doc)

let paths =
  let doc = "Paths under $(b,--root) to scan." in
  Arg.(value & pos_all string [ "lib" ] & info [] ~docv:"PATH" ~doc)

let format =
  let doc = "Output format: $(b,text), $(b,json) or $(b,sarif)." in
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json); ("sarif", `Sarif) ]) `Text
    & info [ "format" ] ~docv:"FMT" ~doc)

let out =
  let doc = "Also write the JSON findings to $(docv) (written even when clean)." in
  Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)

let sarif_out =
  let doc = "Also write SARIF 2.1.0 findings to $(docv) (written even when clean)." in
  Arg.(value & opt (some string) None & info [ "sarif-out" ] ~docv:"FILE" ~doc)

let why =
  let doc =
    "With $(b,--format text): print the call-path witness under each interprocedural finding \
     (how the flagged root reaches the effect seed)."
  in
  Arg.(value & flag & info [ "why" ] ~doc)

let allows =
  let doc =
    "Extend the per-directory allowlist with $(i,PREFIX):$(i,RULE) (repeatable). Files whose \
     path contains $(i,PREFIX) are exempt from $(i,RULE). A malformed spec or unknown rule id \
     is a usage error (exit 2)."
  in
  Arg.(value & opt_all string [] & info [ "allow" ] ~docv:"PREFIX:RULE" ~doc)

let cmd =
  let info =
    Cmd.info "bftlint" ~doc:"determinism / fault-hygiene static analysis for the bft repo"
  in
  Cmd.v info Term.(const run $ root $ paths $ format $ out $ sarif_out $ why $ allows)

let () = exit (Cmd.eval' cmd)
