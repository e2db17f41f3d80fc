type job =
  | Verify_mac of { pre : Hmac.precomputed; tag : string; msg : string }
  | Check_digest of { expect : string; msg : string }

let exec = function
  | Verify_mac { pre; tag; msg } -> Hmac.verify_precomputed pre ~tag msg
  | Check_digest { expect; msg } -> String.equal expect (Sha256.digest msg)

type t = { mutable c_batches : int; mutable c_items : int; mutable c_hwm : int }

let global = { c_batches = 0; c_items = 0; c_hwm = 0 }
let default () = global

let run jobs =
  let n = Array.length jobs in
  global.c_batches <- global.c_batches + 1;
  global.c_items <- global.c_items + n;
  if n > global.c_hwm then global.c_hwm <- n;
  Array.map exec jobs

type stats = { st_batches : int; st_items : int; st_merge_hwm : int }

let stats t = { st_batches = t.c_batches; st_items = t.c_items; st_merge_hwm = t.c_hwm }

let set_default_domains n =
  if n <> 1 then invalid_arg "Vpool.set_default_domains: verification runs on one domain"
