(* the shape of bad_c_stub.ml, but the stub carries a [@@lint.pure]
   declaration with its reason: its summary is bottom and the
   protocol-reachable root that reaches it is clean *)
external c_mix : string -> int = "fixture_c_mix"
[@@noalloc] [@@lint.pure "fixture: deterministic byte mixing; no I/O, no raise"]

let mix s = c_mix s land 0xff

let handle_request req = mix req
