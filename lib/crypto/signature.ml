type signer = { id : int; pre : Hmac.precomputed }

(* id -> the key-block midstates of its secret, computed once at
   registration and resumed for every verification, so the per-signature
   key-block hashing (2 SHA-256 blocks) is paid per key, not per message —
   the same resumable-midstate discipline as [Keychain.in_key_pre]. What
   is signed is a message's 32-byte digest, so a signature is the full
   32-byte HMAC of it on the one-block path ([Hmac.mac_digest]). *)
type registry = (int, Hmac.precomputed) Hashtbl.t

type t = { signer_id : int; tag : string }

let create_registry () : registry = Hashtbl.create 16

let register registry rng id =
  let secret = Bft_util.Rng.bytes rng 32 in
  let pre = Hmac.precompute ~key:secret in
  Hashtbl.replace registry id pre;
  { id; pre }

let sign signer d = { signer_id = signer.id; tag = Hmac.mac_digest signer.pre 32 d }

let verify registry t d =
  if String.length d <> 32 then invalid_arg "Signature.verify: signs a 32-byte message digest";
  match Hashtbl.find_opt registry t.signer_id with
  | None -> false
  | Some pre -> String.length t.tag = 32 && Hmac.verify_digest pre ~tag:t.tag d

let forge ~signer_id = { signer_id; tag = String.make 32 '\x00' }
