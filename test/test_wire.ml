(* Wire encoding: digests, sizes, and injectivity properties. *)

open Bft_core
open Message

let req ?(op = "op") ?(ts = 1L) ?(client = 100) ?(ro = false) ?(replier = 0) () =
  Message.request ~op ~timestamp:ts ~client ~read_only:ro ~replier

let test_request_digest_distinguishes_fields () =
  let base = Wire.request_digest (req ()) in
  let differs r = not (String.equal base (Wire.request_digest r)) in
  Alcotest.(check bool) "op" true (differs (req ~op:"other" ()));
  Alcotest.(check bool) "timestamp" true (differs (req ~ts:2L ()));
  Alcotest.(check bool) "client" true (differs (req ~client:101 ()));
  Alcotest.(check bool) "read_only" true (differs (req ~ro:true ()));
  Alcotest.(check bool) "stable" true
    (String.equal base (Wire.request_digest (req ())))

let test_batch_digest_ignores_tokens () =
  let r = req () in
  let tok1 = Auth_none in
  let tok2 =
    Auth_mac { Bft_crypto.Auth.tag = String.make 8 'x'; epoch = 1 }
  in
  let d1 = Wire.batch_digest [ Inline (r, tok1) ] "nd" in
  let d2 = Wire.batch_digest [ Inline (r, tok2) ] "nd" in
  Alcotest.(check bool) "token-independent" true (String.equal d1 d2);
  (* the by-digest form is equivalent to the inline form *)
  let d3 = Wire.batch_digest [ By_digest (Wire.request_digest r) ] "nd" in
  Alcotest.(check bool) "inline = by-digest" true (String.equal d1 d3)

let test_batch_digest_sensitive () =
  let r1 = req () and r2 = req ~op:"other" () in
  let d1 = Wire.batch_digest [ Inline (r1, Auth_none) ] "nd" in
  Alcotest.(check bool) "different request" true
    (not (String.equal d1 (Wire.batch_digest [ Inline (r2, Auth_none) ] "nd")));
  Alcotest.(check bool) "different nondet" true
    (not (String.equal d1 (Wire.batch_digest [ Inline (r1, Auth_none) ] "nd2")));
  Alcotest.(check bool) "order matters" true
    (not
       (String.equal
          (Wire.batch_digest [ Inline (r1, Auth_none); Inline (r2, Auth_none) ] "nd")
          (Wire.batch_digest [ Inline (r2, Auth_none); Inline (r1, Auth_none) ] "nd")))

let test_null_batch_digest_unique () =
  let d = Wire.batch_digest [] "nd" in
  Alcotest.(check bool) "empty batch is not the null batch" true
    (not (String.equal d Wire.null_batch_digest))

let test_size_scales_with_op () =
  let small = Wire.size (Request (req ~op:"" ())) in
  let big = Wire.size (Request (req ~op:(String.make 1000 'x') ())) in
  Alcotest.(check int) "1000 bytes difference" 1000 (big - small)

let test_envelope_size_includes_auth () =
  let body = Request (req ()) in
  let none = Wire.envelope_size (Message.envelope ~sender:0 ~auth:Auth_none body) in
  let auth =
    Auth_vector
      (Bft_crypto.Auth.of_entries
         (List.init 3 (fun i -> (i, { Bft_crypto.Auth.tag = String.make 8 't'; epoch = 1 }))))
  in
  let vec = Wire.envelope_size (Message.envelope ~sender:0 ~auth body) in
  Alcotest.(check int) "8 + 8*3 authenticator bytes" (8 + 24) (vec - none);
  let signed =
    Wire.envelope_size
      (Message.envelope ~sender:0
         ~auth:(Auth_sig (Bft_crypto.Signature.forge ~signer_id:0))
         body)
  in
  Alcotest.(check int) "128-byte signature" 128 (signed - none)

let test_encoding_distinct_across_types () =
  (* two messages with identical numeric content must encode differently *)
  let p = Prepare { pr_view = 1; pr_seq = 2; pr_digest = String.make 32 'd'; pr_replica = 3 } in
  let c = Commit { cm_view = 1; cm_seq = 2; cm_digest = String.make 32 'd'; cm_replica = 3 } in
  Alcotest.(check bool) "prepare <> commit encoding" true
    (not (String.equal (Wire.encode p) (Wire.encode c)))

let test_view_change_digest_covers_psets () =
  let vc =
    {
      vc_view = 1;
      vc_h = 0;
      vc_cset = [ (0, String.make 32 'c') ];
      vc_pset = [];
      vc_qset = [];
      vc_replica = 2;
    }
  in
  let d1 = Wire.view_change_digest vc in
  let vc2 =
    { vc with vc_pset = [ { pe_seq = 1; pe_digest = String.make 32 'p'; pe_view = 0 } ] }
  in
  Alcotest.(check bool) "pset changes digest" true
    (not (String.equal d1 (Wire.view_change_digest vc2)))

let prop_encode_injective_on_requests =
  QCheck.Test.make ~name:"request encodings distinct" ~count:200
    QCheck.(pair (pair small_string small_nat) (pair small_string small_nat))
    (fun ((op1, c1), (op2, c2)) ->
      let r1 = req ~op:op1 ~client:c1 () and r2 = req ~op:op2 ~client:c2 () in
      if String.equal op1 op2 && c1 = c2 then true
      else not (String.equal (Wire.encode (Request r1)) (Wire.encode (Request r2))))

let prop_size_equals_encode_length =
  QCheck.Test.make ~name:"size = encode length" ~count:100 QCheck.small_string (fun op ->
      let m = Request (req ~op ()) in
      Wire.size m = String.length (Wire.encode m))

let suites =
  [
    ( "core.wire",
      [
        Alcotest.test_case "request digest fields" `Quick test_request_digest_distinguishes_fields;
        Alcotest.test_case "batch digest ignores tokens" `Quick test_batch_digest_ignores_tokens;
        Alcotest.test_case "batch digest sensitive" `Quick test_batch_digest_sensitive;
        Alcotest.test_case "null batch digest unique" `Quick test_null_batch_digest_unique;
        Alcotest.test_case "size scales with op" `Quick test_size_scales_with_op;
        Alcotest.test_case "envelope auth sizes" `Quick test_envelope_size_includes_auth;
        Alcotest.test_case "distinct across types" `Quick test_encoding_distinct_across_types;
        Alcotest.test_case "vc digest covers pset" `Quick test_view_change_digest_covers_psets;
        QCheck_alcotest.to_alcotest prop_encode_injective_on_requests;
        QCheck_alcotest.to_alcotest prop_size_equals_encode_length;
      ] );
  ]
