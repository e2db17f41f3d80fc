(* Tests for bft_crypto: FIPS/RFC vectors plus structural properties. *)

open Bft_crypto

let check_hex msg expected actual = Alcotest.(check string) msg expected (Bft_util.Hex.encode actual)

(* --- SHA-256: FIPS 180-4 / NIST vectors --- *)

let test_sha256_empty () =
  check_hex "sha256('')"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.digest "")

let test_sha256_abc () =
  check_hex "sha256('abc')"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.digest "abc")

let test_sha256_two_blocks () =
  check_hex "sha256(448-bit msg)"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.digest "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")

let test_sha256_fox () =
  check_hex "sha256(fox)"
    "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592"
    (Sha256.digest "The quick brown fox jumps over the lazy dog")

let test_sha256_million_a () =
  let ctx = Sha256.init () in
  let chunk = String.make 1000 'a' in
  for _ = 1 to 1000 do
    Sha256.feed ctx chunk
  done;
  check_hex "sha256(10^6 * 'a')"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.finalize ctx)

let test_sha256_incremental_matches_oneshot () =
  let msg = String.init 3000 (fun i -> Char.chr (i mod 251)) in
  let one_shot = Sha256.digest msg in
  (* feed in irregular chunk sizes crossing block boundaries *)
  let sizes = [ 1; 63; 64; 65; 127; 128; 500; 2052 ] in
  let ctx = Sha256.init () in
  let pos = ref 0 in
  List.iter
    (fun sz ->
      let len = min sz (String.length msg - !pos) in
      Sha256.feed_sub ctx msg !pos len;
      pos := !pos + len)
    sizes;
  Sha256.feed_sub ctx msg !pos (String.length msg - !pos);
  Alcotest.(check string) "incremental = one-shot" one_shot (Sha256.finalize ctx)

let test_sha256_boundary_lengths () =
  (* padding edge cases: lengths around the 55/56/63/64 block boundaries *)
  List.iter
    (fun len ->
      let msg = String.make len 'x' in
      let d1 = Sha256.digest msg in
      let ctx = Sha256.init () in
      String.iter (fun c -> Sha256.feed ctx (String.make 1 c)) msg;
      let d2 = Sha256.finalize ctx in
      Alcotest.(check string)
        (Printf.sprintf "len=%d byte-at-a-time" len)
        (Bft_util.Hex.encode d1) (Bft_util.Hex.encode d2))
    [ 0; 1; 54; 55; 56; 57; 63; 64; 65; 119; 120; 128; 129 ]

(* --- HMAC-SHA256: RFC 4231 vectors --- *)

let test_hmac_rfc4231_case1 () =
  check_hex "hmac case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Hmac.mac ~key:(String.make 20 '\x0b') "Hi There")

let test_hmac_rfc4231_case2 () =
  check_hex "hmac case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Hmac.mac ~key:"Jefe" "what do ya want for nothing?")

let test_hmac_rfc4231_case3 () =
  check_hex "hmac case 3"
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (Hmac.mac ~key:(String.make 20 '\xaa') (String.make 50 '\xdd'))

let test_hmac_rfc4231_case6 () =
  check_hex "hmac case 6 (oversized key)"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Hmac.mac
       ~key:(String.make 131 '\xaa')
       "Test Using Larger Than Block-Size Key - Hash Key First")

let test_hmac_truncated_verify () =
  let key = "secret-key" and msg = "payload" in
  let tag = Hmac.mac_truncated ~key 8 msg in
  Alcotest.(check int) "tag length" 8 (String.length tag);
  Alcotest.(check bool) "verifies" true (Hmac.verify ~key ~tag msg);
  Alcotest.(check bool) "wrong msg" false (Hmac.verify ~key ~tag "payload2");
  Alcotest.(check bool) "wrong key" false (Hmac.verify ~key:"other" ~tag msg)

(* --- Both compression kernels --- *)

(* Every test below runs on the cpuid-chosen kernel; these run the FIPS and
   RFC vectors again on each kernel by name. A host without SHA-NI reports
   the SHA-NI case as skipped rather than passing it silently. *)
let vectors () =
  List.iter
    (fun f -> f ())
    [
      test_sha256_empty;
      test_sha256_abc;
      test_sha256_two_blocks;
      test_sha256_fox;
      test_sha256_million_a;
      test_sha256_incremental_matches_oneshot;
      test_sha256_boundary_lengths;
      test_hmac_rfc4231_case1;
      test_hmac_rfc4231_case2;
      test_hmac_rfc4231_case3;
      test_hmac_rfc4231_case6;
    ]

let test_vectors_on kernel () =
  match
    Sha256.For_testing.with_kernel kernel (fun () ->
        Alcotest.(check string) "kernel in use" kernel (Sha256.kernel ());
        vectors ())
  with
  | Some () -> ()
  | None ->
      Printf.printf "%s kernel skipped: this CPU does not report it\n" kernel;
      Alcotest.skip ()

(* digest, digest_from_midstate and streaming feed_sub in irregular chunks,
   each on both kernels, all agree; lengths cover short messages and the
   4 KiB page-digest sizes *)
let prop_kernels_agree =
  let gen =
    QCheck.Gen.(
      pair
        (oneof [ int_range 0 300; int_range 4090 4200 ] >>= fun n -> string_size (return n))
        (list_size (int_range 1 8) (int_range 0 200)))
  in
  let print (s, chunks) =
    Printf.sprintf "len=%d chunks=[%s]" (String.length s)
      (String.concat ";" (List.map string_of_int chunks))
  in
  QCheck.Test.make ~name:"kernels agree" ~count:150 (QCheck.make ~print gen)
    (fun (msg, chunks) ->
      let prefix = String.init 64 (fun i -> Char.chr (i * 7 land 0xff)) in
      let ways () =
        let streamed =
          let ctx = Sha256.init () in
          let pos =
            List.fold_left
              (fun pos c ->
                let c = min c (String.length msg - pos) in
                Sha256.feed_sub ctx msg pos c;
                pos + c)
              0 chunks
          in
          Sha256.feed_sub ctx msg pos (String.length msg - pos);
          Sha256.finalize ctx
        in
        let resumed =
          let ctx = Sha256.init () in
          Sha256.feed ctx prefix;
          Sha256.digest_from_midstate (Sha256.midstate ctx) msg
        in
        [ Sha256.digest msg; streamed; Sha256.digest (prefix ^ msg); resumed ]
      in
      let run k = Option.value (Sha256.For_testing.with_kernel k ways) ~default:[] in
      match (run "portable", run "sha-ni") with
      | [ d; s; p; r ], sha_ni ->
          String.equal d s && String.equal p r
          && (sha_ni = [] || List.equal String.equal sha_ni [ d; s; p; r ])
      | _ -> false)

(* the checked entry to the native kernel refuses any block range outside
   the string before C sees it *)
let test_compress_bounds () =
  let h8 = Array.make 8 0 and s = String.make 128 'x' in
  let raises name off n =
    match Sha256.For_testing.compress h8 s off n with
    | () -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  raises "negative offset" (-1) 1;
  raises "negative count" 0 (-1);
  raises "one byte past the end" 1 2;
  raises "offset past the end" 129 0;
  raises "count overflowing the length" 64 (max_int / 32);
  Sha256.For_testing.compress h8 s 64 1;
  Sha256.For_testing.compress h8 s 128 0;
  Alcotest.check_raises "unknown kernel name"
    (Invalid_argument "Sha256.For_testing.with_kernel: avx") (fun () ->
      ignore (Sha256.For_testing.with_kernel "avx" Fun.id))

(* --- Hex --- *)

let test_hex_known () =
  Alcotest.(check string) "encode" "00ff10" (Bft_util.Hex.encode "\x00\xff\x10");
  Alcotest.(check string) "decode" "\x00\xff\x10" (Bft_util.Hex.decode "00ff10");
  Alcotest.(check string) "decode upper" "\xab" (Bft_util.Hex.decode "AB")

let test_hex_errors () =
  Alcotest.check_raises "odd length" (Invalid_argument "Hex.decode: odd length") (fun () ->
      ignore (Bft_util.Hex.decode "abc"));
  Alcotest.check_raises "bad char" (Invalid_argument "Hex.decode: non-hex character")
    (fun () -> ignore (Bft_util.Hex.decode "zz"))

let prop_hex_roundtrip =
  QCheck.Test.make ~name:"hex roundtrip" ~count:200
    QCheck.(string_of_size Gen.(0 -- 64))
    (fun s -> String.equal (Bft_util.Hex.decode (Bft_util.Hex.encode s)) s)

(* --- AdHash --- *)

let rand_digest rng () = Adhash.of_digest (Sha256.digest (Bft_util.Rng.bytes rng 20))

let test_adhash_group_laws () =
  let rng = Bft_util.Rng.create 7L in
  let d = rand_digest rng in
  for _ = 1 to 50 do
    let a = d () and b = d () and c = d () in
    Alcotest.(check bool) "commutative" true (Adhash.equal (Adhash.add a b) (Adhash.add b a));
    Alcotest.(check bool) "associative" true
      (Adhash.equal (Adhash.add a (Adhash.add b c)) (Adhash.add (Adhash.add a b) c));
    Alcotest.(check bool) "identity" true (Adhash.equal (Adhash.add a Adhash.zero) a);
    Alcotest.(check bool) "inverse" true (Adhash.equal (Adhash.sub (Adhash.add a b) b) a)
  done

let test_adhash_incremental_update () =
  (* replacing one element of a sum gives the same result as recomputing *)
  let rng = Bft_util.Rng.create 9L in
  let d = rand_digest rng in
  let elems = Array.init 10 (fun _ -> d ()) in
  let total = Array.fold_left Adhash.add Adhash.zero elems in
  let replacement = d () in
  let updated = Adhash.add (Adhash.sub total elems.(3)) replacement in
  elems.(3) <- replacement;
  let recomputed = Array.fold_left Adhash.add Adhash.zero elems in
  Alcotest.(check bool) "incremental = recomputed" true (Adhash.equal updated recomputed)

(* --- Keychain + authenticators --- *)

let make_pair () =
  let rng = Bft_util.Rng.create 42L in
  let kc0 = Keychain.create ~my_id:0 and kc1 = Keychain.create ~my_id:1 in
  (* 1 generates the key 0 must use to reach 1, and ships it to 0 *)
  let k01 = Keychain.fresh_in_key kc1 rng ~peer:0 in
  assert (Keychain.install_out_key kc0 ~peer:1 k01);
  let k10 = Keychain.fresh_in_key kc0 rng ~peer:1 in
  assert (Keychain.install_out_key kc1 ~peer:0 k10);
  (rng, kc0, kc1)

(* MACs cover a message's 32-byte digest, as the library's callers pass
   [Wire.envelope_digest] *)
let test_mac_roundtrip () =
  let _, kc0, kc1 = make_pair () in
  let msg = Sha256.digest "pre-prepare v0 n1" in
  match Auth.compute_mac kc0 ~peer:1 msg with
  | None -> Alcotest.fail "no out key"
  | Some mac ->
      Alcotest.(check bool) "verifies at 1" true (Auth.verify_mac kc1 ~peer:0 mac msg);
      Alcotest.(check bool) "wrong msg" false
        (Auth.verify_mac kc1 ~peer:0 mac (Sha256.digest "other"))

let test_mac_stale_epoch_rejected () =
  let rng, kc0, kc1 = make_pair () in
  let msg = Sha256.digest "checkpoint n100" in
  let mac = Option.get (Auth.compute_mac kc0 ~peer:1 msg) in
  (* 1 refreshes the key 0 should use: old-epoch MACs must now be rejected *)
  let _new_key = Keychain.fresh_in_key kc1 rng ~peer:0 in
  Alcotest.(check bool) "stale epoch rejected" false (Auth.verify_mac kc1 ~peer:0 mac msg)

let test_stale_new_key_rejected () =
  let rng, _, kc1 = make_pair () in
  let kc0 = Keychain.create ~my_id:0 in
  let k_new = Keychain.fresh_in_key kc1 rng ~peer:0 in
  Alcotest.(check bool) "fresh accepted" true (Keychain.install_out_key kc0 ~peer:1 k_new);
  Alcotest.(check bool) "replay rejected" false (Keychain.install_out_key kc0 ~peer:1 k_new)

let test_authenticator () =
  let rng = Bft_util.Rng.create 5L in
  let n = 4 in
  let chains = Array.init n (fun i -> Keychain.create ~my_id:i) in
  (* full pairwise key establishment *)
  for receiver = 0 to n - 1 do
    for sender = 0 to n - 1 do
      if sender <> receiver then begin
        let k = Keychain.fresh_in_key chains.(receiver) rng ~peer:sender in
        assert (Keychain.install_out_key chains.(sender) ~peer:receiver k)
      end
    done
  done;
  let msg = Sha256.digest "view-change v3" in
  let receivers = List.init n Fun.id in
  let auth = Auth.compute_authenticator chains.(0) ~receivers msg in
  Alcotest.(check int) "n-1 entries" (n - 1) (List.length auth);
  Alcotest.(check int) "wire size 8+8(n-1)" (8 + (8 * (n - 1))) (Auth.size auth);
  for i = 1 to n - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "replica %d verifies" i)
      true
      (Auth.verify_authenticator chains.(i) ~peer:0 auth msg)
  done;
  (* corrupting replica 2's entry breaks only replica 2's check *)
  let corrupt = Auth.corrupt_entry auth 2 in
  Alcotest.(check bool) "2 rejects" false (Auth.verify_authenticator chains.(2) ~peer:0 corrupt msg);
  Alcotest.(check bool) "1 still accepts" true
    (Auth.verify_authenticator chains.(1) ~peer:0 corrupt msg)

(* --- Group-derived keys (million-client cohorts) --- *)

let test_group_keys () =
  let g = Keychain.group ~first:100 ~last:1_000_099 ~secret:"group-secret" in
  let replica = Keychain.create ~my_id:1 in
  Keychain.set_group replica g;
  (* a virtual client in range sends to replica 1: both sides derive the
     same directional key, so the MAC round-trips *)
  let client = 100_000 in
  let key, pre = Keychain.group_derive g ~src:client ~dst:1 in
  let msg = Sha256.digest "put k v" in
  let tag = Hmac.mac_digest pre Auth.tag_size msg in
  let mac = { Auth.tag; epoch = key.Keychain.epoch } in
  Alcotest.(check bool) "replica verifies derived mac" true
    (Auth.verify_mac replica ~peer:client mac msg);
  Alcotest.(check bool) "out of range has no key" false
    (Auth.verify_mac replica ~peer:99 mac msg);
  Alcotest.(check int) "derived epoch is 1" 1 (Keychain.in_epoch replica ~peer:client);
  (* explicitly installed pairwise keys win over the group fallback *)
  let rng = Bft_util.Rng.create 9L in
  let k = Keychain.fresh_in_key replica rng ~peer:client in
  Alcotest.(check bool) "pairwise key shadows group" false
    (Auth.verify_mac replica ~peer:client mac msg);
  ignore k

let test_group_derivation_per_verify () =
  (* derived keys are deliberately not cached (O(1) replica memory in the
     group's size), so every verification of a group-keyed MAC derives its
     key once, and only once *)
  let g = Keychain.group ~first:10 ~last:9_999 ~secret:"s" in
  let replica = Keychain.create ~my_id:0 in
  Keychain.set_group replica g;
  let sender = 4_242 in
  let _, pre = Keychain.group_derive g ~src:sender ~dst:0 in
  let before = Keychain.group_derivations g in
  for i = 1 to 8 do
    let label = Printf.sprintf "op-%d" i in
    let msg = Sha256.digest label in
    let mac = { Auth.tag = Hmac.mac_digest pre Auth.tag_size msg; epoch = 1 } in
    Alcotest.(check bool) (label ^ " verifies") true (Auth.verify_mac replica ~peer:sender mac msg);
    Alcotest.(check int) (label ^ ": one derivation each") (before + i)
      (Keychain.group_derivations g)
  done

(* --- The one-block path: HMAC over a 32-byte digest --- *)

(* The fast tag is standard HMAC (RFC 2104) truncated, under both
   kernels; verification rejects every single-bit flip of the tag; and
   [Auth] refuses anything but a 32-byte input, so the one-block path is
   the only MAC path. *)
let prop_one_block_is_hmac =
  let gen =
    QCheck.Gen.(
      triple
        (int_range 1 100 >>= fun n -> string_size (return n))
        (string_size (return 32))
        (oneof [ string_size (return 31); string_size (return 33) ]))
  in
  let print (key, d, bad) =
    Printf.sprintf "key=%s d=%s bad=%d bytes" (Bft_util.Hex.encode key) (Bft_util.Hex.encode d)
      (String.length bad)
  in
  QCheck.Test.make ~name:"one-block HMAC = RFC 2104" ~count:200 (QCheck.make ~print gen)
    (fun (key, d, bad) ->
      let pre = Hmac.precompute ~key in
      let full = Hmac.mac ~key d in
      (* every tag length, written and checked by the native call, is a
         prefix of the RFC tag *)
      let on kernel =
        Option.value ~default:true
          (Sha256.For_testing.with_kernel kernel (fun () ->
               List.for_all
                 (fun n ->
                   let prefix = String.sub full 0 n in
                   String.equal (Hmac.mac_digest pre n d) prefix
                   && Hmac.verify_digest pre ~tag:prefix d)
                 (List.init 32 succ)))
      in
      let tag = Hmac.mac_digest pre Auth.tag_size d in
      let flipped bit =
        String.mapi
          (fun i c -> if i = bit / 8 then Char.chr (Char.code c lxor (1 lsl (bit mod 8))) else c)
          tag
      in
      let refused f = match f () with _ -> false | exception Invalid_argument _ -> true in
      let kc = Keychain.create ~my_id:0 in
      let mac = { Auth.tag; epoch = 1 } in
      on "portable" && on "sha-ni"
      && Hmac.verify_digest pre ~tag d
      && List.for_all
           (fun bit -> not (Hmac.verify_digest pre ~tag:(flipped bit) d))
           (List.init (8 * Auth.tag_size) Fun.id)
      && refused (fun () -> Auth.compute_mac kc ~peer:1 bad)
      && refused (fun () -> Auth.verify_mac kc ~peer:1 mac bad)
      && refused (fun () -> Auth.compute_authenticator kc ~receivers:[ 1 ] bad)
      && refused (fun () -> Auth.verify_authenticator kc ~peer:1 [ (0, mac) ] bad))

(* A tag shorter than the full size is a prefix of the right MAC, and
   [Hmac.verify_digest] accepts prefixes; a 4-byte one would cut
   forgery resistance to 2^-32. [Auth] takes exactly [tag_size] bytes
   and [Signature] exactly 32, and a wrong length is refused before the
   HMAC runs, so it does not count as a verification. *)
let test_truncated_tags_refused () =
  let _, kc0, kc1 = make_pair () in
  let d = Sha256.digest "commit v0 n7" in
  let mac = Option.get (Auth.compute_mac kc0 ~peer:1 d) in
  let cut n = { mac with Auth.tag = String.sub mac.Auth.tag 0 n } in
  let before = Auth.mac_verifications () in
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "%d-byte MAC prefix refused" n)
        false
        (Auth.verify_mac kc1 ~peer:0 (cut n) d))
    [ 0; 1; 4; 7 ];
  Alcotest.(check bool) "longer tag refused" false
    (Auth.verify_mac kc1 ~peer:0 { mac with Auth.tag = mac.Auth.tag ^ "\x00" } d);
  Alcotest.(check bool) "truncated authenticator entry refused" false
    (Auth.verify_authenticator kc1 ~peer:0 [ (1, cut 4) ] d);
  Alcotest.(check int) "wrong lengths are not counted" before (Auth.mac_verifications ());
  Alcotest.(check bool) "full tag verifies" true (Auth.verify_mac kc1 ~peer:0 mac d);
  Alcotest.(check int) "a full tag is counted" (before + 1) (Auth.mac_verifications ());
  let reg = Signature.create_registry () in
  let s = Signature.sign (Signature.register reg (Bft_util.Rng.create 3L) 0) d in
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "%d-byte signature prefix refused" n)
        false
        (Signature.verify reg { s with Signature.tag = String.sub s.Signature.tag 0 n } d))
    [ 1; 4; 8; 31 ];
  Alcotest.(check bool) "full signature verifies" true (Signature.verify reg s d)

(* --- Keychain slots --- *)

let epoch_of = function Some ((k : Keychain.key), _) -> k.epoch | None -> 0
let secret_of = function Some ((k : Keychain.key), _) -> Some k.secret | None -> None

let test_slot_epochs () =
  let rng = Bft_util.Rng.create 21L in
  let recv = Keychain.create ~my_id:1 and send = Keychain.create ~my_id:0 in
  let k1 = Keychain.fresh_in_key recv rng ~peer:0 in
  let k2 = Keychain.fresh_in_key recv rng ~peer:0 in
  Alcotest.(check (pair int int)) "fresh epochs count up" (1, 2) (k1.epoch, k2.epoch);
  Alcotest.(check int) "newest in-key installed" 2 (epoch_of (Keychain.in_key_pre recv ~peer:0));
  Alcotest.(check bool) "epoch 1 installed" true (Keychain.install_out_key send ~peer:1 k1);
  let d = Sha256.digest "prepare v0 n3" in
  let old_mac = Option.get (Auth.compute_mac send ~peer:1 d) in
  Alcotest.(check bool) "newer epoch replaces it" true (Keychain.install_out_key send ~peer:1 k2);
  Alcotest.(check (option string)) "the slot holds the newer key" (Some k2.secret)
    (secret_of (Keychain.out_key_pre send ~peer:1));
  Alcotest.(check bool) "stale epoch refused" false (Keychain.install_out_key send ~peer:1 k1);
  Alcotest.(check int) "newer key kept" 2 (epoch_of (Keychain.out_key_pre send ~peer:1));
  let mac = Option.get (Auth.compute_mac send ~peer:1 d) in
  Alcotest.(check bool) "MACs under the newer key verify" true (Auth.verify_mac recv ~peer:0 mac d);
  Alcotest.(check bool) "MACs under the replaced key do not" false
    (Auth.verify_mac recv ~peer:0 old_mac d)

let test_slot_drop_in_keys () =
  let rng = Bft_util.Rng.create 22L in
  let kc = Keychain.create ~my_id:0 in
  let a = Keychain.fresh_in_key kc rng ~peer:1 in
  ignore (Keychain.fresh_in_key kc rng ~peer:2);
  let out = Keychain.fresh_in_key (Keychain.create ~my_id:3) rng ~peer:0 in
  assert (Keychain.install_out_key kc ~peer:3 out);
  Keychain.drop_all_in_keys kc;
  Alcotest.(check bool) "in-keys forgotten" true
    (Keychain.in_key_pre kc ~peer:1 = None && Keychain.in_key_pre kc ~peer:2 = None);
  Alcotest.(check int) "no in-epoch" 0 (Keychain.in_epoch kc ~peer:1);
  Alcotest.(check int) "out-keys kept" 1 (epoch_of (Keychain.out_key_pre kc ~peer:3));
  let b = Keychain.fresh_in_key kc rng ~peer:1 in
  Alcotest.(check int) "the next epoch continues past the dropped one" (a.epoch + 1) b.epoch;
  Alcotest.(check int) "and is installed" b.epoch (Keychain.in_epoch kc ~peer:1)

let test_slot_group_fallback () =
  let g = Keychain.group ~first:10 ~last:19 ~secret:"cohort" in
  let kc = Keychain.create ~my_id:2 in
  Keychain.set_group kc g;
  let derived_in, _ = Keychain.group_derive g ~src:12 ~dst:2 in
  let derived_out, _ = Keychain.group_derive g ~src:2 ~dst:12 in
  Alcotest.(check (option string)) "in-range in-key derived" (Some derived_in.secret)
    (secret_of (Keychain.in_key_pre kc ~peer:12));
  Alcotest.(check (option string)) "in-range out-key derived" (Some derived_out.secret)
    (secret_of (Keychain.out_key_pre kc ~peer:12));
  Alcotest.(check bool) "below the range: none" true (Keychain.in_key_pre kc ~peer:9 = None);
  Alcotest.(check bool) "above the range: none" true (Keychain.out_key_pre kc ~peer:20 = None);
  let rng = Bft_util.Rng.create 23L in
  let k_in = Keychain.fresh_in_key kc rng ~peer:12 in
  let k_out = Keychain.fresh_in_key (Keychain.create ~my_id:12) rng ~peer:2 in
  let k_out = { k_out with Keychain.epoch = 5 } in
  assert (Keychain.install_out_key kc ~peer:12 k_out);
  Alcotest.(check (option string)) "installed in-key wins" (Some k_in.secret)
    (secret_of (Keychain.in_key_pre kc ~peer:12));
  Alcotest.(check (option string)) "installed out-key wins" (Some k_out.secret)
    (secret_of (Keychain.out_key_pre kc ~peer:12));
  Alcotest.(check (option string)) "other in-range peers still derive"
    (Some (fst (Keychain.group_derive g ~src:13 ~dst:2)).secret)
    (secret_of (Keychain.in_key_pre kc ~peer:13))

let test_slot_bad_peer_ids () =
  let rng = Bft_util.Rng.create 24L in
  let kc = Keychain.create ~my_id:0 in
  ignore (Keychain.fresh_in_key kc rng ~peer:3);
  assert (Keychain.install_out_key kc ~peer:3 (Keychain.fresh_in_key kc rng ~peer:1));
  let words = Obj.reachable_words (Obj.repr kc) in
  let d = Sha256.digest "x" in
  List.iter
    (fun peer ->
      let name = Printf.sprintf "peer %d" peer in
      Alcotest.(check bool) (name ^ ": no in-key") true (Keychain.in_key_pre kc ~peer = None);
      Alcotest.(check bool) (name ^ ": no out-key") true (Keychain.out_key_pre kc ~peer = None);
      Alcotest.(check int) (name ^ ": no epoch") 0 (Keychain.in_epoch kc ~peer);
      Alcotest.(check bool) (name ^ ": no MAC") true (Auth.compute_mac kc ~peer d = None);
      Alcotest.(check bool)
        (name ^ ": nothing verifies") false
        (Auth.verify_mac kc ~peer { Auth.tag = String.make Auth.tag_size 'x'; epoch = 1 } d))
    [ -1; min_int; 4; 1_000_000; max_int ];
  Alcotest.(check bool) "negative out-key refused" false
    (Keychain.install_out_key kc ~peer:(-1) { Keychain.secret = "s"; epoch = 1 });
  Alcotest.(check int) "no array grew" words (Obj.reachable_words (Obj.repr kc))

(* --- Signatures --- *)

let test_signature_roundtrip () =
  let rng = Bft_util.Rng.create 11L in
  let reg = Signature.create_registry () in
  let s0 = Signature.register reg rng 0 in
  let s1 = Signature.register reg rng 1 in
  let msg = Sha256.digest "new-key i=0 t=5" in
  let sig0 = Signature.sign s0 msg in
  Alcotest.(check bool) "valid" true (Signature.verify reg sig0 msg);
  Alcotest.(check bool) "wrong msg" false (Signature.verify reg sig0 (Sha256.digest "tampered"));
  let sig1 = Signature.sign s1 msg in
  Alcotest.(check bool) "other signer valid" true (Signature.verify reg sig1 msg);
  Alcotest.(check bool) "claimed id mismatch" false
    (Signature.verify reg { sig1 with signer_id = 0 } msg)

let test_signature_forgery_fails () =
  let rng = Bft_util.Rng.create 13L in
  let reg = Signature.create_registry () in
  let _ = Signature.register reg rng 0 in
  Alcotest.(check bool) "forgery rejected" false
    (Signature.verify reg (Signature.forge ~signer_id:0) (Sha256.digest "request"))

let test_signature_unregistered () =
  let reg = Signature.create_registry () in
  Alcotest.(check bool) "unknown signer" false
    (Signature.verify reg (Signature.forge ~signer_id:9) (Sha256.digest "x"))

(* --- Rng sanity --- *)

let test_rng_determinism () =
  let a = Bft_util.Rng.create 99L and b = Bft_util.Rng.create 99L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Bft_util.Rng.int64 a) (Bft_util.Rng.int64 b)
  done

let test_rng_split_independent () =
  let a = Bft_util.Rng.create 99L in
  let c = Bft_util.Rng.split a in
  let x = Bft_util.Rng.int64 c and y = Bft_util.Rng.int64 a in
  Alcotest.(check bool) "streams differ" true (x <> y)

let prop_rng_int_bounds =
  QCheck.Test.make ~name:"rng int within bounds" ~count:500
    QCheck.(pair small_int (int_range 1 10_000))
    (fun (seed, bound) ->
      let rng = Bft_util.Rng.create (Int64.of_int seed) in
      let v = Bft_util.Rng.int rng bound in
      v >= 0 && v < bound)

let suites =
  [
    ( "crypto.sha256",
      [
        Alcotest.test_case "empty" `Quick test_sha256_empty;
        Alcotest.test_case "abc" `Quick test_sha256_abc;
        Alcotest.test_case "two blocks" `Quick test_sha256_two_blocks;
        Alcotest.test_case "fox" `Quick test_sha256_fox;
        Alcotest.test_case "million a" `Slow test_sha256_million_a;
        Alcotest.test_case "incremental" `Quick test_sha256_incremental_matches_oneshot;
        Alcotest.test_case "boundary lengths" `Quick test_sha256_boundary_lengths;
      ] );
    ( "crypto.hmac",
      [
        Alcotest.test_case "rfc4231 case1" `Quick test_hmac_rfc4231_case1;
        Alcotest.test_case "rfc4231 case2" `Quick test_hmac_rfc4231_case2;
        Alcotest.test_case "rfc4231 case3" `Quick test_hmac_rfc4231_case3;
        Alcotest.test_case "rfc4231 case6" `Quick test_hmac_rfc4231_case6;
        Alcotest.test_case "truncated verify" `Quick test_hmac_truncated_verify;
      ] );
    ( "crypto.kernel",
      [
        Alcotest.test_case "portable vectors" `Quick (test_vectors_on "portable");
        Alcotest.test_case "sha-ni vectors" `Quick (test_vectors_on "sha-ni");
        QCheck_alcotest.to_alcotest prop_kernels_agree;
        Alcotest.test_case "compress bounds" `Quick test_compress_bounds;
      ] );
    ( "crypto.hex",
      [
        Alcotest.test_case "known" `Quick test_hex_known;
        Alcotest.test_case "errors" `Quick test_hex_errors;
        QCheck_alcotest.to_alcotest prop_hex_roundtrip;
      ] );
    ( "crypto.adhash",
      [
        Alcotest.test_case "group laws" `Quick test_adhash_group_laws;
        Alcotest.test_case "incremental update" `Quick test_adhash_incremental_update;
      ] );
    ( "crypto.auth",
      [
        Alcotest.test_case "mac roundtrip" `Quick test_mac_roundtrip;
        Alcotest.test_case "stale epoch rejected" `Quick test_mac_stale_epoch_rejected;
        Alcotest.test_case "stale new-key rejected" `Quick test_stale_new_key_rejected;
        Alcotest.test_case "authenticator" `Quick test_authenticator;
        Alcotest.test_case "group-derived keys" `Quick test_group_keys;
        Alcotest.test_case "group derivation sharing: none, one per verify" `Quick
          test_group_derivation_per_verify;
        QCheck_alcotest.to_alcotest prop_one_block_is_hmac;
        Alcotest.test_case "truncated tags refused" `Quick test_truncated_tags_refused;
      ] );
    ( "crypto.keychain",
      [
        Alcotest.test_case "newer epoch replaces, stale refused" `Quick test_slot_epochs;
        Alcotest.test_case "drop in-keys, epochs continue" `Quick test_slot_drop_in_keys;
        Alcotest.test_case "group fallback, installed keys win" `Quick test_slot_group_fallback;
        Alcotest.test_case "bad peer ids" `Quick test_slot_bad_peer_ids;
      ] );
    ( "crypto.signature",
      [
        Alcotest.test_case "roundtrip" `Quick test_signature_roundtrip;
        Alcotest.test_case "forgery fails" `Quick test_signature_forgery_fails;
        Alcotest.test_case "unregistered" `Quick test_signature_unregistered;
      ] );
    ( "util.rng",
      [
        Alcotest.test_case "determinism" `Quick test_rng_determinism;
        Alcotest.test_case "split independent" `Quick test_rng_split_independent;
        QCheck_alcotest.to_alcotest prop_rng_int_bounds;
      ] );
  ]
