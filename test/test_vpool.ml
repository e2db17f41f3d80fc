(* The verification counter behind [Vpool.stats], the benchmark's
   [crypto.vpool_items_per_op]: one item per tag recomputation, which
   [Auth.verify_mac] reaches only once the sender's key and the MAC's epoch
   check out. The verdicts themselves are covered in [test_crypto.ml]. *)

module Keychain = Bft_crypto.Keychain
module Auth = Bft_crypto.Auth
module Vpool = Bft_crypto.Vpool

let test_stats_counters () =
  let rng = Bft_util.Rng.create 0xBEEFL in
  let recv = Keychain.create ~my_id:0 and sender = Keychain.create ~my_id:5 in
  assert (Keychain.install_out_key sender ~peer:0 (Keychain.fresh_in_key recv rng ~peer:5));
  let msg = Bft_crypto.Sha256.digest "payload" in
  let mac = Option.get (Auth.compute_mac sender ~peer:0 msg) in
  let wrong =
    { mac with Auth.tag = String.map (fun c -> Char.chr (Char.code c lxor 0x55)) mac.Auth.tag }
  in
  let stale = { mac with Auth.epoch = mac.Auth.epoch + 1 } in
  (* the counter is process-wide, so check deltas *)
  let check label ~peer m ~verdict ~items =
    let count () = (Vpool.stats (Vpool.default ())).Vpool.st_items in
    let before = count () in
    Alcotest.(check bool) (label ^ ": verdict") verdict (Auth.verify_mac recv ~peer m msg);
    Alcotest.(check int) (label ^ ": items") items (count () - before)
  in
  check "good tag" ~peer:5 mac ~verdict:true ~items:1;
  check "wrong tag" ~peer:5 wrong ~verdict:false ~items:1;
  check "missing key" ~peer:7 mac ~verdict:false ~items:0;
  check "stale epoch" ~peer:5 stale ~verdict:false ~items:0;
  Alcotest.check_raises "only one domain"
    (Invalid_argument "Vpool.set_default_domains: verification runs on one domain") (fun () ->
      Vpool.set_default_domains 2);
  Vpool.set_default_domains 1

let suites = [ ("vpool", [ Alcotest.test_case "stats counters" `Quick test_stats_counters ]) ]
