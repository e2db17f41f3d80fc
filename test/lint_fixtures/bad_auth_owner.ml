module Mac = Bft_crypto.Auth
let mac kc d = Bft_crypto.Auth.compute_mac kc ~peer:1 d
let sign signer d = Bft_crypto.Signature.sign signer d
let tag key d = Hmac.mac ~key d
let overhead = 8 + Bft_crypto.Auth.tag_size
let registry = Bft_crypto.Signature.create_registry ()
open Bft_crypto
let check kc m d = Auth.(verify_mac kc ~peer:1 m d)
module C = Bft_crypto
include Hmac
