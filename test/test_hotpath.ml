(* Hot-path invariants for the encode-once pipeline (PR 2):

   - an envelope's cached wire bytes, size and digest are byte-identical to
     a fresh [Wire.encode] / [Sha256.digest] for every message constructor
     (a request's digest, the MAC input, is the one it carries);
   - the digest/size memo tables never change answers;
   - the heap-based engine counts only live events in [pending_events] while
     preserving the clock semantics of cancelled events;
   - precomputed HMAC midstates produce bit-identical tags;
   - pinned fuzz seeds still produce the exact committed histories recorded
     before the optimization (golden digests). *)

module Engine = Bft_sim.Engine
module Runner = Bft_check.Runner
module Sha256 = Bft_crypto.Sha256
module Hmac = Bft_crypto.Hmac
open Bft_core

let test_cached_envelope_matches_fresh_encode () =
  for seed = 1 to 20 do
    let rng = Bft_util.Rng.create (Int64.of_int (seed * 104729)) in
    for k = 0 to Test_codec.R.n_constructors - 1 do
      let m = Test_codec.R.message rng k in
      (* fresh values with every memo table dropped *)
      Wire.clear_memos ();
      let fresh_bytes = Wire.encode m in
      (* what MACs cover: a request's carried digest, else the bytes' *)
      let fresh_digest =
        match m with Message.Request r -> r.Message.rq_digest | _ -> Sha256.digest fresh_bytes
      in
      let env = Message.envelope ~sender:1 ~auth:Message.Auth_none m in
      let cached = Wire.envelope_bytes env in
      if not (String.equal cached fresh_bytes) then
        Alcotest.failf "constructor %s: cached bytes <> fresh encode" (Message.tag m);
      (* second access serves the same cached string: physical equality is
         exactly what this test asserts *)
      if not ((Wire.envelope_bytes env == cached) [@lint.allow "digest-compare"]) then
        Alcotest.failf "constructor %s: second access re-encoded" (Message.tag m);
      if not (String.equal (Wire.envelope_digest env) fresh_digest) then
        Alcotest.failf "constructor %s: cached digest <> fresh digest" (Message.tag m);
      let expect_size = 8 + String.length fresh_bytes + Wire.auth_size env.Message.auth in
      if Wire.envelope_size env <> expect_size then
        Alcotest.failf "constructor %s: envelope_size %d <> %d" (Message.tag m)
          (Wire.envelope_size env) expect_size;
      if Wire.size m <> String.length fresh_bytes then
        Alcotest.failf "constructor %s: memoized size <> encode length" (Message.tag m)
    done
  done

let test_digest_memos_are_stable () =
  let rng = Bft_util.Rng.create 31415926535L in
  for _ = 1 to 200 do
    let m = Test_codec.R.message rng 0 in
    match m with
    | Message.Request r ->
        let first = Wire.request_digest r in
        let hit = Wire.request_digest r in
        Wire.clear_memos ();
        let fresh = Wire.request_digest r in
        Alcotest.(check string) "request digest memo hit" first hit;
        Alcotest.(check string) "request digest after clear" first fresh
    | _ -> ()
  done;
  let rng = Bft_util.Rng.create 2718281828L in
  for _ = 1 to 50 do
    let batch = [ Test_codec.R.batch_elem rng; Test_codec.R.batch_elem rng ] in
    let first = Wire.batch_digest batch "nondet" in
    Wire.clear_memos ();
    Alcotest.(check string) "batch digest after clear" first (Wire.batch_digest batch "nondet")
  done

let test_pending_events_counts_live_only () =
  let e = Engine.create ~seed:5L () in
  let fired = ref 0 in
  let handles =
    List.init 10 (fun i ->
        Engine.schedule e ~delay:(Engine.us (i + 1)) (fun () -> incr fired))
  in
  Alcotest.(check int) "all live" 10 (Engine.pending_events e);
  List.iteri (fun i h -> if i mod 2 = 0 then Engine.cancel h) handles;
  Alcotest.(check int) "after cancelling half" 5 (Engine.pending_events e);
  (* double cancel is a no-op for the counter *)
  Engine.cancel (List.hd handles);
  Alcotest.(check int) "double cancel" 5 (Engine.pending_events e);
  Engine.run e;
  Alcotest.(check int) "only live thunks fired" 5 !fired;
  Alcotest.(check int) "drained" 0 (Engine.pending_events e)

let test_cancelled_events_keep_clock_semantics () =
  (* a cancelled event still occupies its slot in virtual time: stepping past
     it advances the clock exactly as the Map-based engine did *)
  let e = Engine.create ~seed:5L () in
  let h = Engine.schedule e ~delay:(Engine.us 5) (fun () -> Alcotest.fail "fired") in
  ignore (Engine.schedule e ~delay:(Engine.us 10) (fun () -> ()));
  Engine.cancel h;
  Alcotest.(check bool) "step pops cancelled event" true (Engine.step e);
  Alcotest.(check int64) "clock advanced to cancelled slot" (Engine.us 5) (Engine.now e);
  Alcotest.(check bool) "step fires live event" true (Engine.step e);
  Alcotest.(check int64) "clock at live slot" (Engine.us 10) (Engine.now e);
  Alcotest.(check bool) "empty" false (Engine.step e)

let test_heap_order_matches_schedule_order () =
  (* same-time events fire in schedule order (FIFO tie-break by seq) *)
  let e = Engine.create ~seed:5L () in
  let order = ref [] in
  for i = 1 to 50 do
    ignore (Engine.schedule e ~delay:(Engine.us 7) (fun () -> order := i :: !order))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "FIFO among equal times" (List.init 50 (fun i -> i + 1))
    (List.rev !order)

let test_hmac_precomputed_bit_identical () =
  let rng = Bft_util.Rng.create 987654321L in
  for _ = 1 to 100 do
    let key = String.init (1 + Bft_util.Rng.int rng 90) (fun _ ->
        Char.chr (Bft_util.Rng.int rng 256))
    in
    let msg = String.init (Bft_util.Rng.int rng 300) (fun _ ->
        Char.chr (Bft_util.Rng.int rng 256))
    in
    let pre = Hmac.precompute ~key in
    Alcotest.(check string) "precomputed = one-shot" (Hmac.mac ~key msg)
      (Hmac.mac_precomputed pre msg);
    Alcotest.(check string) "truncated precomputed = one-shot"
      (Hmac.mac_truncated ~key 10 msg)
      (Hmac.mac_truncated_precomputed pre 10 msg)
  done

(* A request's carried digest is SHA-256 of 'R' and its wire encoding
   (the body [Wire.encode] writes after the message tag byte), whether the
   request was built by a client or decoded from wire bytes. *)
let test_carried_request_digest () =
  let expect r =
    let wire = Wire.encode (Message.Request r) in
    Sha256.digest ("R" ^ String.sub wire 1 (String.length wire - 1))
  in
  let check what r =
    Alcotest.(check string) what (expect r) r.Message.rq_digest;
    Alcotest.(check string) (what ^ " via Wire") (expect r) (Wire.request_digest r)
  in
  let decoded m =
    match Wire.decode (Wire.encode m) with Ok m -> m | Error e -> Alcotest.fail e
  in
  let rng = Bft_util.Rng.create 1618033988L in
  let sized =
    List.map
      (fun n ->
        Message.request ~op:(String.make n 'x') ~timestamp:7L ~client:100 ~read_only:false
          ~replier:1)
      [ 0; 1; 4096 ]
  in
  List.iter
    (fun r ->
      check "built" r;
      (match decoded (Message.Request r) with
      | Message.Request r' -> check "decoded request" r'
      | _ -> Alcotest.fail "decoded a request as another kind");
      let pp =
        Message.Pre_prepare
          { pp_view = 0; pp_seq = 1; pp_batch = [ Inline (r, Auth_none) ]; pp_nondet = "0" }
      in
      match decoded pp with
      | Message.Pre_prepare { pp_batch = [ Inline (r', _) ]; _ } -> check "decoded inline" r'
      | _ -> Alcotest.fail "decoded pre-prepare lost its batch")
    (sized @ List.init 200 (fun _ -> Test_codec.R.request rng))

(* Replicas charge a request, pre-prepare, batch or meta-data message by
   its envelope's cached encoding: that length is the fresh encode's, for
   the sender's envelope and for one rebuilt from the wire bytes. *)
let test_charged_sizes_are_encode_lengths () =
  let rng = Bft_util.Rng.create 141421356L in
  for _ = 1 to 50 do
    List.iter
      (fun k ->
        let body = Test_codec.R.message rng k in
        let enc = Message.no_cache () in
        ignore (Wire.cached_encode enc body);
        let sent = { Message.sender = 0; body; auth = Auth_none; enc } in
        let fresh = String.length (Wire.encode body) in
        let charged env = String.length (Wire.envelope_bytes env) in
        if charged sent <> fresh || Wire.size body <> fresh then
          Alcotest.failf "%s: charged %d, size %d, encode %d" (Message.tag body) (charged sent)
            (Wire.size body) fresh;
        match Wire.decode (Wire.encode body) with
        | Ok body' ->
            let rebuilt = Message.envelope ~sender:0 ~auth:Auth_none body' in
            if charged rebuilt <> fresh then
              Alcotest.failf "%s: decoded charge %d <> %d" (Message.tag body) (charged rebuilt) fresh
        | Error e -> Alcotest.fail e)
      [ 0; 2; 10; 18 ]
  done

(* Golden committed-history digests recorded from the pre-optimization seed
   build: the encode-once pipeline, memo tables, heap engine and SHA-256
   rewrite must not perturb a single committed operation on any of these
   pinned fuzz schedules. *)
let golden_histories =
  [
    (1, "43c8b1c432b84d0dd523fa7c9a137e15a0f978c4a8534b528625884e84e50676");
    (2, "2e0e9f315914849bcd8c50fbf61b3dacacc23d370261b74689afbe686dd6f60f");
    (3, "2e0e9f315914849bcd8c50fbf61b3dacacc23d370261b74689afbe686dd6f60f");
    (46, "7ddda45eb9535a7b32bbbac06d595d0e2604e5d249b1f131672ef2d3ed4f6e5e");
  ]

let test_pinned_seed_histories () =
  List.iter
    (fun (seed, expected) ->
      let r = Runner.run_seed (Runner.default_params ~seed ~f:1) in
      Alcotest.(check (list string)) (Printf.sprintf "seed %d safety" seed) [] r.Runner.failures;
      Alcotest.(check string) (Printf.sprintf "seed %d history digest" seed) expected
        r.Runner.history_digest)
    golden_histories

let suites =
  [
    ( "hotpath",
      [
        Alcotest.test_case "cached envelope = fresh encode (all constructors)" `Quick
          test_cached_envelope_matches_fresh_encode;
        Alcotest.test_case "digest memos stable across clears" `Quick
          test_digest_memos_are_stable;
        Alcotest.test_case "pending_events counts live only" `Quick
          test_pending_events_counts_live_only;
        Alcotest.test_case "cancelled events keep clock semantics" `Quick
          test_cancelled_events_keep_clock_semantics;
        Alcotest.test_case "heap preserves FIFO tie-break" `Quick
          test_heap_order_matches_schedule_order;
        Alcotest.test_case "carried request digest = SHA-256('R' ++ encoding)" `Quick
          test_carried_request_digest;
        Alcotest.test_case "charged sizes = encode lengths" `Quick
          test_charged_sizes_are_encode_lengths;
        Alcotest.test_case "precomputed HMAC bit-identical" `Quick
          test_hmac_precomputed_bit_identical;
        Alcotest.test_case "pinned fuzz seeds: committed histories unchanged" `Slow
          test_pinned_seed_histories;
      ] );
  ]
