(* an undeclared C stub is opaque, so the effect pass widens it to top
   and the protocol-reachable root that reaches it is flagged; a
   [@@lint.pure] declaration with an empty reason does not count *)
external c_mix : string -> int = "fixture_c_mix"

external c_fold : string -> int = "fixture_c_fold" [@@lint.pure " "]

let mix s = c_mix s land 0xff

let handle_request req = mix req

let on_fold req = c_fold req
