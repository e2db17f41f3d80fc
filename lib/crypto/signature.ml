type signer = { id : int; pre : Hmac.precomputed }

(* id -> (secret, key-block midstates). The midstates are computed once at
   registration and resumed for every verification, so the per-signature
   key-block hashing (2 SHA-256 blocks) is paid per key, not per message —
   the same resumable-midstate discipline as [Keychain.in_key_pre]. Tags
   are byte-identical to the one-shot path by construction:
   [Hmac.mac ~key msg = Hmac.mac_precomputed (Hmac.precompute ~key) msg]. *)
type registry = (int, string * Hmac.precomputed) Hashtbl.t

type t = { signer_id : int; tag : string }

let create_registry () : registry = Hashtbl.create 16

let register registry rng id =
  let secret = Bft_util.Rng.bytes rng 32 in
  let pre = Hmac.precompute ~key:secret in
  Hashtbl.replace registry id (secret, pre);
  { id; pre }

let sign signer msg = { signer_id = signer.id; tag = Hmac.mac_precomputed signer.pre msg }

let verify registry t msg =
  match Hashtbl.find_opt registry t.signer_id with
  | None -> false
  | Some (_, pre) -> Hmac.verify_precomputed pre ~tag:t.tag msg

let forge ~signer_id = { signer_id; tag = String.make 32 '\x00' }
