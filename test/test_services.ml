(* State-machine services: null, counter, key-value (with ACLs). *)

let exec (s : Bft_sm.Service.t) ?(client = 5) ?(nondet = "") op =
  s.Bft_sm.Service.execute ~client ~op ~nondet

(* --- null service --- *)

let test_null_result_size () =
  let s = Bft_sm.Null_service.create () in
  List.iter
    (fun r ->
      let op = Bft_sm.Null_service.op ~read_only:false ~arg_size:0 ~result_size:r in
      Alcotest.(check int) (Printf.sprintf "result %d" r) r (String.length (exec s op)))
    [ 0; 1; 32; 4096; Bft_sm.Null_service.max_result ]

let test_null_arg_padding () =
  let op = Bft_sm.Null_service.op ~read_only:false ~arg_size:100 ~result_size:0 in
  Alcotest.(check int) "arg size" 100 (String.length op)

let test_null_read_only_flag () =
  let s = Bft_sm.Null_service.create () in
  Alcotest.(check bool) "ro" true
    (s.Bft_sm.Service.is_read_only (Bft_sm.Null_service.op ~read_only:true ~arg_size:0 ~result_size:0));
  Alcotest.(check bool) "rw" false
    (s.Bft_sm.Service.is_read_only (Bft_sm.Null_service.op ~read_only:false ~arg_size:0 ~result_size:0))

let test_null_invalid () =
  let s = Bft_sm.Null_service.create () in
  Alcotest.(check string) "garbage" Bft_sm.Service.invalid (exec s "garbage");
  Alcotest.(check string) "negative" Bft_sm.Service.invalid (exec s "rw:-4:");
  List.iter
    (fun op -> Alcotest.(check string) op Bft_sm.Service.invalid (exec s op))
    [
      Printf.sprintf "rw:%d:" (Bft_sm.Null_service.max_result + 1);
      "rw:200000000:";
      "ro:4611686018427387903:";
    ]

let restore (s : Bft_sm.Service.t) snap =
  match s.restore snap with Ok () -> () | Error e -> Alcotest.failf "restore refused: %s" e

let test_null_snapshot () =
  let s = Bft_sm.Null_service.create () in
  ignore (exec s (Bft_sm.Null_service.op ~read_only:false ~arg_size:0 ~result_size:0));
  let snap = s.Bft_sm.Service.snapshot () in
  ignore (exec s (Bft_sm.Null_service.op ~read_only:false ~arg_size:0 ~result_size:0));
  restore s snap;
  Alcotest.(check string) "restored" snap (s.Bft_sm.Service.snapshot ())

(* The rule [parse] replaced: split the whole op on ':'. *)
let split_parse op =
  match String.split_on_char ':' op with
  | tag :: size :: _ when String.equal tag "ro" || String.equal tag "rw" -> (
      match int_of_string_opt size with
      | Some r when r >= 0 -> Some (String.equal tag "ro", r)
      | _ -> None)
  | _ -> None

(* ops shaped like headers (tags, sizes, separators the rule reads) and
   arbitrary strings over the same alphabet *)
let gen_op =
  QCheck.Gen.(
    let piece =
      oneofl
        [ "ro"; "rw"; "r"; "rx"; "row"; "RO"; ""; ":"; "0"; "12"; "-5"; "+3"; "abc"; "0x1f";
          "1_000"; "4611686018427387903"; "4611686018427387904"; "99999999999999999999";
          " 7"; "xxxx" ]
    in
    let shaped = map (String.concat "") (list_size (int_range 0 6) piece) in
    let arbitrary = string_size ~gen:(oneofl [ 'r'; 'o'; 'w'; ':'; '0'; '7'; '-'; 'x' ]) (int_range 0 12) in
    frequency [ (3, shaped); (1, arbitrary); (1, string_size (int_range 0 8)) ])

let prop_null_parse_matches_split =
  QCheck.Test.make ~name:"header parse matches the split rule" ~count:1000
    (QCheck.make ~print:(Printf.sprintf "%S") gen_op)
    (fun op -> Bft_sm.Null_service.parse op = split_parse op)

(* --- counter --- *)

let test_counter_ops () =
  let s = Bft_sm.Counter_service.create () in
  Alcotest.(check string) "inc" "1" (exec s "inc");
  Alcotest.(check string) "add" "11" (exec s "add 10");
  Alcotest.(check string) "get" "11" (exec s "get");
  Alcotest.(check string) "set" "5" (exec s "set 5");
  Alcotest.(check string) "bad" Bft_sm.Service.invalid (exec s "add ten");
  Alcotest.(check int) "value helper" 5 (Bft_sm.Counter_service.value s)

let test_counter_snapshot () =
  let s = Bft_sm.Counter_service.create () in
  ignore (exec s "add 42");
  let snap = s.Bft_sm.Service.snapshot () in
  ignore (exec s "inc");
  restore s snap;
  Alcotest.(check string) "value restored" "42" (exec s "get")

(* --- key-value --- *)

let test_kv_basic () =
  let s = Bft_sm.Kv_service.create () in
  Alcotest.(check string) "put" "ok" (exec s "put k v1");
  Alcotest.(check string) "get" "v1" (exec s "get k");
  Alcotest.(check string) "missing" "ENOENT" (exec s "get nope");
  Alcotest.(check string) "size" "1" (exec s "size");
  Alcotest.(check string) "del" "ok" (exec s "del k");
  Alcotest.(check string) "del again" "ENOENT" (exec s "del k")

let test_kv_cas () =
  let s = Bft_sm.Kv_service.create () in
  ignore (exec s "put k v1");
  Alcotest.(check string) "cas match" "ok" (exec s "cas k v1 v2");
  Alcotest.(check string) "cas stale" "EAGAIN" (exec s "cas k v1 v3");
  Alcotest.(check string) "value" "v2" (exec s "get k");
  Alcotest.(check string) "cas missing" "ENOENT" (exec s "cas q a b")

let test_kv_touch_nondet () =
  let s = Bft_sm.Kv_service.create () in
  Alcotest.(check string) "touch stores nondet" "12345" (exec s ~nondet:"12345" "touch ts");
  Alcotest.(check string) "readable" "12345" (exec s "get ts")

let test_kv_acl () =
  let s = Bft_sm.Kv_service.create ~restrict:[ 7 ] () in
  Alcotest.(check string) "allowed client" "ok" (exec s ~client:7 "put a 1");
  Alcotest.(check string) "denied client" Bft_sm.Service.denied (exec s ~client:8 "put b 2");
  Alcotest.(check string) "reads open" "1" (exec s ~client:8 "get a");
  (* admin grants then revokes *)
  Alcotest.(check string) "grant" "ok" (exec s ~client:Bft_sm.Kv_service.admin_client "grant 8");
  Alcotest.(check string) "now allowed" "ok" (exec s ~client:8 "put b 2");
  Alcotest.(check string) "revoke" "ok" (exec s ~client:Bft_sm.Kv_service.admin_client "revoke 8");
  Alcotest.(check string) "denied again" Bft_sm.Service.denied (exec s ~client:8 "put c 3");
  (* non-admin cannot grant *)
  Alcotest.(check string) "grant denied" Bft_sm.Service.denied (exec s ~client:7 "grant 9")

let test_kv_read_only_classification () =
  let s = Bft_sm.Kv_service.create () in
  Alcotest.(check bool) "get ro" true (s.Bft_sm.Service.is_read_only "get k");
  Alcotest.(check bool) "size ro" true (s.Bft_sm.Service.is_read_only "size");
  Alcotest.(check bool) "put rw" false (s.Bft_sm.Service.is_read_only "put k v");
  Alcotest.(check bool) "cas rw" false (s.Bft_sm.Service.is_read_only "cas k a b")

let test_kv_snapshot_roundtrip () =
  let s = Bft_sm.Kv_service.create ~restrict:[ 3; 9 ] () in
  ignore (exec s ~client:3 "put alpha 1");
  ignore (exec s ~client:3 "put beta two");
  let snap = s.Bft_sm.Service.snapshot () in
  ignore (exec s ~client:3 "put gamma 3");
  ignore (exec s ~client:0 "grant 4");
  restore s snap;
  Alcotest.(check string) "alpha" "1" (exec s "get alpha");
  Alcotest.(check string) "gamma gone" "ENOENT" (exec s "get gamma");
  Alcotest.(check string) "acl restored" Bft_sm.Service.denied (exec s ~client:4 "put x y");
  Alcotest.(check string) "identical snapshot" snap (s.Bft_sm.Service.snapshot ())

let prop_kv_snapshot_roundtrip =
  let gen = QCheck.(list_of_size Gen.(0 -- 30) (pair (string_of_size Gen.(1 -- 8)) (string_of_size Gen.(1 -- 8)))) in
  QCheck.Test.make ~name:"kv snapshot roundtrip (random)" ~count:100 gen (fun kvs ->
      let clean s = String.map (fun c -> if c = ' ' || c = '\n' then '_' else c) s in
      let s = Bft_sm.Kv_service.create () in
      List.iter
        (fun (k, v) -> ignore (exec s (Printf.sprintf "put %s %s" (clean k) (clean v))))
        kvs;
      let snap = s.Bft_sm.Service.snapshot () in
      let s2 = Bft_sm.Kv_service.create () in
      Result.is_ok (s2.Bft_sm.Service.restore snap)
      && String.equal snap (s2.Bft_sm.Service.snapshot ()))

(* The flat image is read by its lengths, so a value holding a newline
   round-trips, and every malformed image is refused with the store kept. *)
let test_kv_restore_checks_image () =
  let s = Bft_sm.Kv_service.create () in
  ignore (exec s "put k two\nlines");
  let snap = s.Bft_sm.Service.snapshot () in
  let s2 = Bft_sm.Kv_service.create () in
  restore s2 snap;
  Alcotest.(check string) "newline value restored" "two\nlines" (exec s2 "get k");
  List.iter
    (fun bad ->
      Alcotest.(check bool) (Printf.sprintf "%S refused" bad) true
        (Result.is_error (s2.Bft_sm.Service.restore bad));
      Alcotest.(check string) "store kept" snap (s2.Bft_sm.Service.snapshot ()))
    [ ""; "nope\n"; "acl 1,x\n"; "open\n1 1 ab"; "open\n1 9 ab\n"; "open\nx\n";
      Printf.sprintf "open\n%d %d ab\n" max_int max_int ]

let test_kv_malformed () =
  let s = Bft_sm.Kv_service.create () in
  Alcotest.(check string) "empty" Bft_sm.Service.invalid (exec s "");
  Alcotest.(check string) "unknown verb" Bft_sm.Service.invalid (exec s "frobnicate x");
  Alcotest.(check string) "arity" Bft_sm.Service.invalid (exec s "put onlykey")

let suites =
  [
    ( "sm.null",
      [
        Alcotest.test_case "result size" `Quick test_null_result_size;
        Alcotest.test_case "arg padding" `Quick test_null_arg_padding;
        Alcotest.test_case "read-only flag" `Quick test_null_read_only_flag;
        Alcotest.test_case "invalid ops" `Quick test_null_invalid;
        Alcotest.test_case "snapshot" `Quick test_null_snapshot;
        QCheck_alcotest.to_alcotest prop_null_parse_matches_split;
      ] );
    ( "sm.counter",
      [
        Alcotest.test_case "operations" `Quick test_counter_ops;
        Alcotest.test_case "snapshot" `Quick test_counter_snapshot;
      ] );
    ( "sm.kv",
      [
        Alcotest.test_case "basic" `Quick test_kv_basic;
        Alcotest.test_case "cas" `Quick test_kv_cas;
        Alcotest.test_case "touch nondet" `Quick test_kv_touch_nondet;
        Alcotest.test_case "acl" `Quick test_kv_acl;
        Alcotest.test_case "read-only classes" `Quick test_kv_read_only_classification;
        Alcotest.test_case "snapshot roundtrip" `Quick test_kv_snapshot_roundtrip;
        Alcotest.test_case "malformed" `Quick test_kv_malformed;
        Alcotest.test_case "restore checks the image" `Quick test_kv_restore_checks_image;
        QCheck_alcotest.to_alcotest prop_kv_snapshot_roundtrip;
      ] );
  ]
