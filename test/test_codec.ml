(* Wire codec round-trip: decode (encode m) = m for every message type,
   with randomized contents, plus malformed-input rejection. *)

open Bft_core
open Message

(* QCheck generators for protocol messages *)
module Gen = struct
  open QCheck.Gen

  let digest = map (fun c -> String.make 32 c) printable
  let short_string = string_size ~gen:printable (0 -- 40)
  let seqno = 0 -- 10_000
  let view = 0 -- 50
  let replica = 0 -- 6
  let client = 100 -- 120
  let ts = map Int64.of_int (0 -- 1_000_000)

  let request =
    map
      (fun (op, (timestamp, client, read_only, replier)) ->
        Message.request ~op ~timestamp ~client ~read_only ~replier)
      (pair short_string (quad ts client bool replica))

  let batch_elem =
    frequency
      [ (3, map (fun r -> Inline (r, Auth_none)) request); (1, map (fun d -> By_digest d) digest) ]

  let pset_entry =
    map (fun (pe_seq, pe_digest, pe_view) -> { pe_seq; pe_digest; pe_view })
      (triple seqno digest view)

  let qset_entry =
    map (fun (qe_seq, qe_entries) -> { qe_seq; qe_entries })
      (pair seqno (list_size (1 -- 3) (pair digest view)))

  let message =
    frequency
      [
        (3, map (fun r -> Request r) request);
        ( 2,
          map
            (fun ((v, t, c), (r, tent, res)) ->
              Reply
                {
                  rp_view = v;
                  rp_timestamp = t;
                  rp_client = c;
                  rp_replica = r;
                  rp_tentative = tent;
                  rp_result = res;
                })
            (pair (triple view ts client)
               (triple replica bool
                  (frequency
                     [
                       (2, map (fun s -> Full s) short_string);
                       (1, map (fun d -> Result_digest d) digest);
                     ]))) );
        ( 3,
          map
            (fun (v, n, batch, nd) ->
              Pre_prepare { pp_view = v; pp_seq = n; pp_batch = batch; pp_nondet = nd })
            (quad view seqno (list_size (0 -- 4) batch_elem) short_string) );
        ( 2,
          map
            (fun (v, n, d, i) -> Prepare { pr_view = v; pr_seq = n; pr_digest = d; pr_replica = i })
            (quad view seqno digest replica) );
        ( 2,
          map
            (fun (v, n, d, i) -> Commit { cm_view = v; cm_seq = n; cm_digest = d; cm_replica = i })
            (quad view seqno digest replica) );
        ( 1,
          map (fun (n, d, i) -> Checkpoint { ck_seq = n; ck_digest = d; ck_replica = i })
            (triple seqno digest replica) );
        ( 2,
          map
            (fun ((v, h, i), (cset, pset, qset)) ->
              View_change
                { vc_view = v; vc_h = h; vc_cset = cset; vc_pset = pset; vc_qset = qset; vc_replica = i })
            (pair (triple view seqno replica)
               (triple
                  (list_size (0 -- 3) (pair seqno digest))
                  (list_size (0 -- 3) pset_entry)
                  (list_size (0 -- 3) qset_entry))) );
        ( 1,
          map
            (fun (v, i, o, d) ->
              View_change_ack { va_view = v; va_replica = i; va_origin = o; va_digest = d })
            (quad view replica replica digest) );
        ( 1,
          map
            (fun ((v, vcs), (st, d, chosen)) ->
              New_view
                { nv_view = v; nv_vcs = vcs; nv_start = st; nv_start_digest = d; nv_chosen = chosen })
            (pair
               (pair view (list_size (0 -- 3) (pair replica digest)))
               (triple seqno digest
                  (list_size (0 -- 3) (map (fun (n, d) -> { nc_seq = n; nc_digest = d }) (pair seqno digest))))) );
        ( 1,
          map
            (fun ((l, i, lc), (rc, rep, me)) ->
              Fetch { ft_level = l; ft_index = i; ft_lc = lc; ft_rc = rc; ft_replier = rep; ft_replica = me })
            (pair (triple (0 -- 4) (0 -- 500) seqno) (triple seqno replica replica)) );
        ( 1,
          map
            (fun ((ck, l, i), (subs, me)) ->
              Meta_data { md_checkpoint = ck; md_level = l; md_index = i; md_subparts = subs; md_replica = me })
            (pair (triple seqno (0 -- 4) (0 -- 100))
               (pair (list_size (0 -- 4) (triple (0 -- 100) seqno digest)) replica)) );
        ( 1,
          map (fun (i, lm, page) -> Data { dt_index = i; dt_lm = lm; dt_page = page })
            (triple (0 -- 100) seqno short_string) );
        ( 1,
          map
            (fun ((i, v, h), (le, p, cm)) ->
              Status_active
                { sa_replica = i; sa_view = v; sa_h = h; sa_last_exec = le; sa_prepared = p; sa_committed = cm })
            (pair (triple replica view seqno)
               (triple seqno (list_size (0 -- 4) seqno) (list_size (0 -- 4) seqno))) );
        ( 1,
          map
            (fun ((i, v, h), (le, hn, seen)) ->
              Status_pending
                { sp_replica = i; sp_view = v; sp_h = h; sp_last_exec = le; sp_has_new_view = hn; sp_vcs_seen = seen })
            (pair (triple replica view seqno) (triple seqno bool (list_size (0 -- 4) replica))) );
        ( 1,
          map
            (fun (i, keys, t) -> New_key { nk_replica = i; nk_keys = keys; nk_counter = t })
            (triple replica
               (list_size (0 -- 3)
                  (map
                     (fun (p, (s, e)) -> (p, { Bft_crypto.Keychain.secret = s; epoch = e }))
                     (pair replica (pair short_string (0 -- 5)))))
               ts) );
        (1, map (fun (i, n) -> Query_stable { qs_replica = i; qs_nonce = n }) (pair replica ts));
        ( 1,
          map
            (fun (c, p, i, n) ->
              Reply_stable { rs_checkpoint = c; rs_prepared = p; rs_replica = i; rs_nonce = n })
            (quad seqno seqno replica ts) );
        (1, map (fun (d, i) -> Fetch_batch { fb_digest = d; fb_replica = i }) (pair digest replica));
        ( 1,
          map
            (fun (d, batch, nd) -> Batch_data { bd_digest = d; bd_batch = batch; bd_nondet = nd })
            (triple digest (list_size (0 -- 3) batch_elem) short_string) );
        (1, map (fun (d, i) -> Fetch_request { fr_digest = d; fr_replica = i }) (pair digest replica));
      ]
end

let arb_message = QCheck.make ~print:Message.tag Gen.message

let prop_roundtrip =
  QCheck.Test.make ~name:"wire roundtrip decode(encode m) = m" ~count:1000 arb_message
    (fun m ->
      match Wire.decode (Wire.encode m) with
      | Ok m' -> m = m'
      | Error e -> QCheck.Test.fail_reportf "decode error: %s" e)

let prop_size_consistent =
  QCheck.Test.make ~name:"wire size = length" ~count:300 arb_message (fun m ->
      Wire.size m = String.length (Wire.encode m))

let prop_truncation_rejected =
  QCheck.Test.make ~name:"truncated input rejected" ~count:300 arb_message (fun m ->
      let s = Wire.encode m in
      String.length s < 2
      ||
      let cut = String.sub s 0 (String.length s / 2) in
      match Wire.decode cut with Error _ -> true | Ok _ -> false)

let prop_trailing_rejected =
  QCheck.Test.make ~name:"trailing bytes rejected" ~count:300 arb_message (fun m ->
      match Wire.decode (Wire.encode m ^ "x") with Error _ -> true | Ok _ -> false)

let test_garbage_rejected () =
  List.iter
    (fun s ->
      match Wire.decode s with
      | Error _ -> ()
      | Ok m -> Alcotest.failf "garbage decoded as %s" (Message.tag m))
    [ ""; "\xff"; "\x01"; "\x01abc"; String.make 7 '\x00'; "\x63hello" ]

(* Rng-driven round-trips: the same splitmix64 stream that drives the
   fuzzer builds one instance of every constructor per seed, with sizes
   biased toward encoding boundaries (empty, 1, 255, 256, 4KB). This
   complements the QCheck properties with deterministic, replayable
   coverage of all message types. *)
module R = struct
  module Rng = Bft_util.Rng

  let boundary_sizes = [| 0; 1; 2; 255; 256; 1024; 4096 |]

  let size rng =
    if Rng.bool rng then boundary_sizes.(Rng.int rng (Array.length boundary_sizes))
    else Rng.int rng 64

  let str rng = Rng.bytes rng (size rng)
  let digest rng = Rng.bytes rng 32
  let seqno rng = Rng.int rng 10_001
  let view rng = Rng.int rng 51
  let replica rng = Rng.int rng 7
  let client rng = 100 + Rng.int rng 21
  let ts rng = Int64.of_int (Rng.int rng 1_000_001)
  let list rng ~max f = List.init (Rng.int rng (max + 1)) (fun _ -> f rng)

  (* drawn last field first, the order the record literal this replaced
     evaluated in, so the generated stream is unchanged *)
  let request rng =
    let replier = replica rng in
    let read_only = Rng.bool rng in
    let client = client rng in
    let timestamp = ts rng in
    let op = str rng in
    Message.request ~op ~timestamp ~client ~read_only ~replier

  let batch_elem rng =
    if Rng.int rng 4 < 3 then Inline (request rng, Auth_none) else By_digest (digest rng)

  let message rng = function
    | 0 -> Request (request rng)
    | 1 ->
        Reply
          {
            rp_view = view rng;
            rp_timestamp = ts rng;
            rp_client = client rng;
            rp_replica = replica rng;
            rp_tentative = Rng.bool rng;
            rp_result = (if Rng.bool rng then Full (str rng) else Result_digest (digest rng));
          }
    | 2 ->
        Pre_prepare
          {
            pp_view = view rng;
            pp_seq = seqno rng;
            pp_batch = list rng ~max:4 batch_elem;
            pp_nondet = str rng;
          }
    | 3 ->
        Prepare
          { pr_view = view rng; pr_seq = seqno rng; pr_digest = digest rng; pr_replica = replica rng }
    | 4 ->
        Commit
          { cm_view = view rng; cm_seq = seqno rng; cm_digest = digest rng; cm_replica = replica rng }
    | 5 -> Checkpoint { ck_seq = seqno rng; ck_digest = digest rng; ck_replica = replica rng }
    | 6 ->
        View_change
          {
            vc_view = view rng;
            vc_h = seqno rng;
            vc_cset = list rng ~max:3 (fun rng -> (seqno rng, digest rng));
            vc_pset =
              list rng ~max:3 (fun rng ->
                  { pe_seq = seqno rng; pe_digest = digest rng; pe_view = view rng });
            vc_qset =
              list rng ~max:3 (fun rng ->
                  {
                    qe_seq = seqno rng;
                    qe_entries =
                      (fun rng -> (digest rng, view rng)) rng
                      :: list rng ~max:2 (fun rng -> (digest rng, view rng));
                  });
            vc_replica = replica rng;
          }
    | 7 ->
        View_change_ack
          {
            va_view = view rng;
            va_replica = replica rng;
            va_origin = replica rng;
            va_digest = digest rng;
          }
    | 8 ->
        New_view
          {
            nv_view = view rng;
            nv_vcs = list rng ~max:3 (fun rng -> (replica rng, digest rng));
            nv_start = seqno rng;
            nv_start_digest = digest rng;
            nv_chosen =
              list rng ~max:3 (fun rng -> { nc_seq = seqno rng; nc_digest = digest rng });
          }
    | 9 ->
        Fetch
          {
            ft_level = Rng.int rng 5;
            ft_index = Rng.int rng 501;
            ft_lc = seqno rng;
            ft_rc = seqno rng;
            ft_replier = replica rng;
            ft_replica = replica rng;
          }
    | 10 ->
        Meta_data
          {
            md_checkpoint = seqno rng;
            md_level = Rng.int rng 5;
            md_index = Rng.int rng 101;
            md_subparts = list rng ~max:4 (fun rng -> (Rng.int rng 101, seqno rng, digest rng));
            md_replica = replica rng;
          }
    | 11 -> Data { dt_index = Rng.int rng 101; dt_lm = seqno rng; dt_page = str rng }
    | 12 ->
        Status_active
          {
            sa_replica = replica rng;
            sa_view = view rng;
            sa_h = seqno rng;
            sa_last_exec = seqno rng;
            sa_prepared = list rng ~max:4 seqno;
            sa_committed = list rng ~max:4 seqno;
          }
    | 13 ->
        Status_pending
          {
            sp_replica = replica rng;
            sp_view = view rng;
            sp_h = seqno rng;
            sp_last_exec = seqno rng;
            sp_has_new_view = Rng.bool rng;
            sp_vcs_seen = list rng ~max:4 replica;
          }
    | 14 ->
        New_key
          {
            nk_replica = replica rng;
            nk_keys =
              list rng ~max:3 (fun rng ->
                  ( replica rng,
                    { Bft_crypto.Keychain.secret = str rng; epoch = Rng.int rng 6 } ));
            nk_counter = ts rng;
          }
    | 15 -> Query_stable { qs_replica = replica rng; qs_nonce = ts rng }
    | 16 ->
        Reply_stable
          {
            rs_checkpoint = seqno rng;
            rs_prepared = seqno rng;
            rs_replica = replica rng;
            rs_nonce = ts rng;
          }
    | 17 -> Fetch_batch { fb_digest = digest rng; fb_replica = replica rng }
    | 18 ->
        Batch_data
          { bd_digest = digest rng; bd_batch = list rng ~max:3 batch_elem; bd_nondet = str rng }
    | _ -> Fetch_request { fr_digest = digest rng; fr_replica = replica rng }

  let n_constructors = 20
end

let test_rng_roundtrip_all_constructors () =
  for seed = 1 to 25 do
    let rng = Bft_util.Rng.create (Int64.of_int (seed * 7919)) in
    for k = 0 to R.n_constructors - 1 do
      let m = R.message rng k in
      match Wire.decode (Wire.encode m) with
      | Ok m' ->
          if m <> m' then
            Alcotest.failf "seed %d constructor %s: decode(encode m) <> m" seed (Message.tag m)
      | Error e ->
          Alcotest.failf "seed %d constructor %s: decode error: %s" seed (Message.tag m) e
    done
  done

let test_rng_roundtrip_boundary_payloads () =
  (* force the boundary sizes directly: op/result/page payloads of exactly
     0, 1, 255, 256 and 4096 bytes must survive the length encoding *)
  let rng = Bft_util.Rng.create 424242L in
  List.iter
    (fun n ->
      let payload = Bft_util.Rng.bytes rng n in
      List.iter
        (fun m ->
          match Wire.decode (Wire.encode m) with
          | Ok m' ->
              if m <> m' then Alcotest.failf "size %d: %s corrupted" n (Message.tag m)
          | Error e -> Alcotest.failf "size %d: %s: %s" n (Message.tag m) e)
        [
          Request
            (Message.request ~op:payload ~timestamp:1L ~client:100 ~read_only:false ~replier:0);
          Reply
            {
              rp_view = 0;
              rp_timestamp = 1L;
              rp_client = 100;
              rp_replica = 0;
              rp_tentative = false;
              rp_result = Full payload;
            };
          Data { dt_index = 0; dt_lm = 0; dt_page = payload };
        ])
    [ 0; 1; 255; 256; 4096 ]

let suites =
  [
    ( "core.codec",
      [
        QCheck_alcotest.to_alcotest prop_roundtrip;
        QCheck_alcotest.to_alcotest prop_size_consistent;
        QCheck_alcotest.to_alcotest prop_truncation_rejected;
        QCheck_alcotest.to_alcotest prop_trailing_rejected;
        Alcotest.test_case "garbage rejected" `Quick test_garbage_rejected;
        Alcotest.test_case "rng roundtrip all constructors" `Quick
          test_rng_roundtrip_all_constructors;
        Alcotest.test_case "rng roundtrip boundary payloads" `Quick
          test_rng_roundtrip_boundary_payloads;
      ] );
  ]
