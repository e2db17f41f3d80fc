(* Batched verification vs the sequential path.

   The contract under test is the one every pinned digest depends on:
   [Auth.verify_batch] (and [Vpool.run] under it) must return, for every
   item, exactly the verdict the sequential [Auth.verify_mac] /
   [Auth.verify_authenticator] / digest-compare path returns, in submission
   order. The qcheck property throws random batches with faulty-MAC mixes
   (corrupt tags, stale epochs, missing entries, unknown senders, wrong
   digests) at it. *)

module Sha256 = Bft_crypto.Sha256
module Hmac = Bft_crypto.Hmac
module Keychain = Bft_crypto.Keychain
module Auth = Bft_crypto.Auth
module Vpool = Bft_crypto.Vpool

(* One receiver (id 0) with session keys from senders 5..8; sender 7 has no
   key at all (never exchanged), so its items must come back false. *)
let receiver_id = 0
let keyed_senders = [ 5; 6; 8 ]
let unkeyed_sender = 7

let make_keychains () =
  let rng = Bft_util.Rng.create 0xBEEFL in
  let recv = Keychain.create ~my_id:receiver_id in
  let senders =
    List.map
      (fun s ->
        let kc = Keychain.create ~my_id:s in
        let key = Keychain.fresh_in_key recv rng ~peer:s in
        assert (Keychain.install_out_key kc ~peer:receiver_id key);
        (s, kc))
      keyed_senders
  in
  let senders = (unkeyed_sender, Keychain.create ~my_id:unkeyed_sender) :: senders in
  (recv, senders)

let recv_kc, sender_kcs = make_keychains ()
let sender_kc s = List.assoc s sender_kcs

let corrupt_tag (m : Auth.mac) =
  { m with Auth.tag = String.map (fun c -> Char.chr (Char.code c lxor 0x55)) m.Auth.tag }

let stale_epoch (m : Auth.mac) = { m with Auth.epoch = m.Auth.epoch + 1 }

(* A test item: the batch entry plus how the faulty variants were derived,
   for the printer. *)
type spec =
  | S_mac of int * int * bool * bool (* sender, msg#, corrupt?, stale? *)
  | S_auth of int * int * bool * bool (* sender, msg#, corrupt-our-entry?, drop-our-entry? *)
  | S_digest of int * bool (* msg#, wrong? *)

let spec_to_string = function
  | S_mac (s, m, c, st) -> Printf.sprintf "mac(s=%d,m=%d,corrupt=%b,stale=%b)" s m c st
  | S_auth (s, m, c, d) -> Printf.sprintf "auth(s=%d,m=%d,corrupt=%b,drop=%b)" s m c d
  | S_digest (m, w) -> Printf.sprintf "digest(m=%d,wrong=%b)" m w

let messages =
  Array.init 16 (fun i -> Printf.sprintf "payload-%d-%s" i (String.make (i * 7) 'x'))

let item_of_spec spec : Auth.batch_item =
  match spec with
  | S_mac (s, m, corrupt, stale) ->
      let msg = messages.(m) in
      let mac =
        match Auth.compute_mac (sender_kc s) ~peer:receiver_id msg with
        | Some mac -> mac
        | None -> { Auth.tag = String.make Auth.tag_size '\x00'; epoch = 1 }
      in
      let mac = if corrupt then corrupt_tag mac else mac in
      let mac = if stale then stale_epoch mac else mac in
      Auth.Item_mac { peer = s; mac; msg }
  | S_auth (s, m, corrupt, drop) ->
      let msg = messages.(m) in
      let auth =
        Auth.compute_authenticator (sender_kc s) ~receivers:[ receiver_id; 1; 2; 3 ] msg
      in
      let auth = if corrupt then Auth.corrupt_entry auth receiver_id else auth in
      let auth = if drop then List.remove_assoc receiver_id auth else auth in
      Auth.Item_auth { peer = s; auth; msg }
  | S_digest (m, wrong) ->
      let msg = messages.(m) in
      let expect = Sha256.digest msg in
      let expect =
        if wrong then String.mapi (fun i c -> if i = 0 then Char.chr (Char.code c lxor 1) else c) expect
        else expect
      in
      Auth.Item_digest { expect; msg }

(* The sequential oracle: the exact pre-pool code path. *)
let sequential_verdict (item : Auth.batch_item) =
  match item with
  | Auth.Item_mac { peer; mac; msg } -> Auth.verify_mac recv_kc ~peer mac msg
  | Auth.Item_auth { peer; auth; msg } -> Auth.verify_authenticator recv_kc ~peer auth msg
  | Auth.Item_digest { expect; msg } -> String.equal expect (Sha256.digest msg)

let gen_spec =
  let open QCheck.Gen in
  let sender = oneofl (unkeyed_sender :: keyed_senders) in
  let msg = int_bound (Array.length messages - 1) in
  oneof
    [
      (fun st -> S_mac (sender st, msg st, bool st, bool st));
      (fun st -> S_auth (sender st, msg st, bool st, bool st));
      (fun st -> S_digest (msg st, bool st));
    ]

let arb_batch =
  QCheck.make
    ~print:(fun specs -> String.concat "; " (List.map spec_to_string specs))
    QCheck.Gen.(list_size (int_bound 24) gen_spec)

let bits a = String.concat "" (Array.to_list (Array.map (fun b -> if b then "1" else "0") a))

let prop_batch_matches_sequential =
  QCheck.Test.make ~name:"pool batch-verify = sequential verify" ~count:120 arb_batch
    (fun specs ->
      let items = Array.of_list (List.map item_of_spec specs) in
      let expected = Array.map sequential_verdict items in
      let got = Auth.verify_batch recv_kc items in
      if got <> expected then
        QCheck.Test.fail_reportf "batch %s <> sequential %s" (bits got) (bits expected)
      else true)

let test_merge_order_is_submission_order () =
  (* a batch whose jobs have wildly different costs still answers by
     submission index *)
  let big = String.make 200_000 'b' and small = "s" in
  let items =
    [|
      Auth.Item_digest { expect = Sha256.digest big; msg = big };
      Auth.Item_digest { expect = Sha256.digest small; msg = Printf.sprintf "%s!" small };
      Auth.Item_digest { expect = Sha256.digest small; msg = small };
      Auth.Item_digest { expect = Sha256.digest big; msg = Printf.sprintf "%s!" big };
    |]
  in
  Alcotest.(check (array bool)) "verdicts" [| true; false; true; false |]
    (Auth.verify_batch recv_kc items)

let test_stats_counters () =
  (* the counters are process-wide, so check deltas *)
  let pool = Vpool.default () in
  let st0 = Vpool.stats pool in
  let job msg = Vpool.Check_digest { expect = Sha256.digest msg; msg } in
  ignore (Vpool.run [| job "a"; job "b"; job "c" |]);
  ignore (Vpool.run [| job "d" |]);
  ignore (Vpool.run [||]);
  let st = Vpool.stats pool in
  Alcotest.(check int) "batches" 3 (st.Vpool.st_batches - st0.Vpool.st_batches);
  Alcotest.(check int) "items" 4 (st.Vpool.st_items - st0.Vpool.st_items);
  Alcotest.(check bool) "merge hwm" true (st.Vpool.st_merge_hwm >= 3);
  Alcotest.check_raises "only one domain"
    (Invalid_argument "Vpool.set_default_domains: verification runs on one domain") (fun () ->
      Vpool.set_default_domains 2);
  Vpool.set_default_domains 1

let suites =
  [
    ( "vpool",
      [
        QCheck_alcotest.to_alcotest prop_batch_matches_sequential;
        Alcotest.test_case "merge order = submission order" `Quick
          test_merge_order_is_submission_order;
        Alcotest.test_case "stats counters" `Quick test_stats_counters;
      ] );
  ]
