let tag_size = 8

type mac = { tag : string; epoch : int }

(* One immutable block of [entry_size]-byte entries: the receiver id and
   the key epoch, each a little-endian unsigned 32-bit word, then the
   [tag_size]-byte tag. Tags are written into the block and checked in
   place. *)
type authenticator = string

let entry_size = 8 + tag_size

(* Every MAC covers a message's 32-byte digest: one HMAC path, the
   one-block one. *)
let check_digest d =
  if String.length d <> 32 then invalid_arg "Auth: MACs cover a 32-byte message digest"

(* Every entry point tags and checks through these two, whatever the
   key's source: an installed pairwise key or a group-derived one. *)
let tag_with ((key : Keychain.key), pre) d =
  { tag = Hmac.mac_digest pre tag_size d; epoch = key.epoch }

(* counted only once the key, epoch and tag length pass, where the HMAC
   runs *)
let n_verifications = ref 0
let mac_verifications () = !n_verifications

let check_with ((key : Keychain.key), pre) mac d =
  key.epoch = mac.epoch
  && String.length mac.tag = tag_size
  && (incr n_verifications; Hmac.verify_digest pre ~tag:mac.tag d)

let compute_mac keychain ~peer d =
  check_digest d;
  match Keychain.out_key_pre keychain ~peer with
  | Some kp -> Some (tag_with kp d)
  | None -> None

let verify_mac keychain ~peer mac d =
  check_digest d;
  match Keychain.in_key_pre keychain ~peer with
  | Some kp -> check_with kp mac d
  | None -> false

(* --- the packed block ------------------------------------------------ *)

let max_word = 0xffff_ffff

let put_word b off n =
  if n < 0 || n > max_word then invalid_arg "Auth: receiver id or epoch past 32 bits";
  Bytes.set_int32_le b off (Int32.of_int n)

let entries a = String.length a / entry_size
let get_word s off = Int32.to_int (String.get_int32_le s off) land max_word
let receiver a i = get_word a (i * entry_size)
let epoch_at a i = get_word a ((i * entry_size) + 4)

(* Entry [i]: the receiver, the key's epoch and the tag over [d]. *)
let write_entry b i peer ((key : Keychain.key), pre) d =
  let off = i * entry_size in
  put_word b off peer;
  put_word b (off + 4) key.epoch;
  Hmac.mac_digest_into pre d b ~off:(off + 8) ~len:tag_size

let first_entries b k =
  if k * entry_size = Bytes.length b then Bytes.unsafe_to_string b
  else Bytes.sub_string b 0 (k * entry_size)

(* One entry per receiver but ourselves that has a key, in [receivers]
   order, written from entry [k] on; returns the count. No closure and no
   option per entry. *)
let rec fill keychain me d b k = function
  | [] -> k
  | peer :: rest when peer = me -> fill keychain me d b k rest
  | peer :: rest -> (
      match Keychain.out_key_pre keychain ~peer with
      | Some kp ->
          write_entry b k peer kp d;
          fill keychain me d b (k + 1) rest
      | None -> fill keychain me d b k rest)

(* one block sized for every receiver, cut only when one is skipped *)
let compute_authenticator keychain ~receivers d =
  check_digest d;
  let b = Bytes.create (entry_size * List.length receivers) in
  first_entries b (fill keychain (Keychain.my_id keychain) d b 0 receivers)

let group_authenticator g ~src ~receivers d =
  check_digest d;
  let b = Bytes.create (entry_size * List.length receivers) in
  List.iteri (fun i dst -> write_entry b i dst (Keychain.group_derive g ~src ~dst) d) receivers;
  Bytes.unsafe_to_string b

(* A block that is not a whole number of entries is refused outright. *)
let whole a = String.length a mod entry_size = 0

(* our entry is the first one addressed to us; -1 when there is none *)
let rec find_entry a me i =
  if (i + 1) * entry_size > String.length a then -1
  else if receiver a i = me then i
  else find_entry a me (i + 1)

let verify_authenticator keychain ~peer auth d =
  check_digest d;
  let i = if whole auth then find_entry auth (Keychain.my_id keychain) 0 else -1 in
  i >= 0
  &&
  match Keychain.in_key_pre keychain ~peer with
  | Some ((key : Keychain.key), pre) ->
      key.epoch = epoch_at auth i
      && (incr n_verifications;
          Hmac.verify_digest_at pre auth ~off:((i * entry_size) + 8) ~len:tag_size d)
  | None -> false

let verify_group_mac g ~src ~dst mac d =
  check_digest d;
  check_with (Keychain.group_derive g ~src ~dst) mac d

let corrupt_entry auth target =
  if find_entry auth target 0 < 0 then auth
  else begin
    let b = Bytes.of_string auth in
    for i = 0 to entries auth - 1 do
      if receiver auth i = target then
        for j = (i * entry_size) + 8 to ((i + 1) * entry_size) - 1 do
          Bytes.set b j (Char.unsafe_chr (Char.code (Bytes.get b j) lxor 0xff))
        done
    done;
    Bytes.unsafe_to_string b
  end

let of_entries l =
  let b = Buffer.create (entry_size * List.length l) in
  List.iter
    (fun (peer, mac) ->
      let w = Bytes.create 8 in
      put_word w 0 peer;
      put_word w 4 mac.epoch;
      Buffer.add_bytes b w;
      Buffer.add_string b mac.tag)
    l;
  Buffer.contents b

let entry auth r =
  match find_entry auth r 0 with
  | -1 -> None
  | i ->
      Some { tag = String.sub auth ((i * entry_size) + 8) tag_size; epoch = epoch_at auth i }

let size auth = 8 + (tag_size * entries auth)
