[@@@lint.protocol_core]

type bucket = {
  mutable tokens : int;
  mutable window_start : int64; (* virtual nanoseconds *)
  mutable backoff : float; (* multiplier on the refill interval *)
  mutable exhausted : bool; (* the bucket ran dry within this window *)
}

type t = (int, bucket) Hashtbl.t

let create () : t = Hashtbl.create 8

let allow t ~budget ~interval_us ~now peer =
  let b =
    match Hashtbl.find_opt t peer with
    | Some b -> b
    | None ->
        let b = { tokens = budget; window_start = now; backoff = 1.0; exhausted = false } in
        Hashtbl.replace t peer b;
        b
  in
  let window = Int64.of_float (b.backoff *. interval_us *. 1_000.0) in
  if Int64.compare (Int64.sub now b.window_start) window >= 0 then begin
    (* refill; a peer that drained the previous window dry waits
       geometrically longer for the next one (capped) *)
    b.backoff <- (if b.exhausted then Float.min 16.0 (b.backoff *. 2.0) else 1.0);
    b.tokens <- budget;
    b.window_start <- now;
    b.exhausted <- false
  end;
  if b.tokens > 0 then begin
    b.tokens <- b.tokens - 1;
    true
  end
  else begin
    b.exhausted <- true;
    false
  end

let reset = Hashtbl.reset

(* without the clock-derived window starts *)
let digest (t : t) buf =
  Buffer.add_string buf "|retx:";
  List.iter
    (fun (peer, { tokens; window_start = _; backoff; exhausted }) ->
      Printf.bprintf buf "%d:%d:%h:%b;" peer tokens backoff exhausted)
    (List.sort
       (fun (a, _) (b, _) -> Int.compare a b)
       (Hashtbl.fold (fun p b acc -> (p, b) :: acc) t []))
