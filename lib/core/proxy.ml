type reply = { tentative : bool; digest : string; full : string option }

(* One slot per replica id: a replica's later reply replaces its earlier
   one, and ids outside [0, n) have no slot. *)
type t = { replies : reply option array; mutable retries : int }

let create cfg = { replies = Array.make cfg.Config.n None; retries = 0 }
let retries t = t.retries
let retry t =
  t.retries <- t.retries + 1;
  t.retries
let clear t = Array.fill t.replies 0 (Array.length t.replies) None

let accept t net ~id ~verify (rp : Message.reply) =
  let ok = rp.rp_replica >= 0 && rp.rp_replica < Array.length t.replies && verify () in
  if ok then
    t.replies.(rp.rp_replica) <-
      Some
        (match rp.rp_result with
        | Full s ->
            Bft_net.(Network.charge net ~id (Costs.digest_us (Network.costs net) (String.length s)));
            { tentative = rp.rp_tentative; digest = Wire.result_digest s; full = Some s }
        | Result_digest d -> { tentative = rp.rp_tentative; digest = d; full = None });
  ok

(* Only a group holding a full result can complete, so each full result's
   group is counted by one pass over the n slots. *)
let result t cfg ~read_only =
  let completes digest =
    let all, committed =
      Array.fold_left
        (fun (a, c) -> function
          | Some r when String.equal r.digest digest -> (a + 1, if r.tentative then c else c + 1)
          | _ -> (a, c))
        (0, 0) t.replies
    in
    all >= Config.quorum cfg || ((not read_only) && committed >= Config.weak cfg)
  in
  Array.find_map
    (function Some { full = Some s; digest; _ } when completes digest -> Some s | _ -> None)
    t.replies

let note_view t ~guess view =
  if view > guess then t.retries <- 0;
  max guess view

(* capped at [client_retry_max_us]: an uncapped 2^retries overflows to
   infinity, and a request that waits forever is never retried *)
let retry_delay cfg ~srtt_us ~retries =
  let base = Float.max cfg.Config.client_retry_us (3.0 *. srtt_us) in
  Float.min (base *. (2.0 ** float_of_int (min retries 30))) cfg.Config.client_retry_max_us

let render b t =
  Array.iteri
    (fun r -> function
      | Some ri ->
          Printf.bprintf b "%d:%b:%s:%b;" r ri.tentative (Bft_util.Hex.encode ri.digest)
            (ri.full <> None)
      | None -> ())
    t.replies
