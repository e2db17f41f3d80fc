type t = unit

let default () = ()

type stats = { st_items : int }

let stats () = { st_items = Auth.mac_verifications () }

let set_default_domains n =
  if n <> 1 then invalid_arg "Vpool.set_default_domains: verification runs on one domain"
