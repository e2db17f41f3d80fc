type phase = Preprepared | Prepared | Committed | Executed | Replied

let phase_index = function
  | Preprepared -> 0
  | Prepared -> 1
  | Committed -> 2
  | Executed -> 3
  | Replied -> 4

let phase_label = function
  | Preprepared -> "preprepared"
  | Prepared -> "prepared"
  | Committed -> "committed"
  | Executed -> "executed"
  | Replied -> "replied"

(* interval i ends at phase i *)
let phase_name = function
  | 0 -> "req->preprep"
  | 1 -> "preprep->prepared"
  | 2 -> "prepared->committed"
  | 3 -> "committed->executed"
  | 4 -> "executed->replied"
  | _ -> invalid_arg "Obs.phase_name"

type event =
  | Request_arrival of { client : int; digest : string }
  | Phase_transition of { phase : phase; view : int; seq : int }
  | Reply_sent of { client : int; seq : int; tentative : bool }
  | Client_retransmit of { timestamp : int64; retries : int; delay_us : float }
  | Client_complete of { timestamp : int64; latency_us : float }
  | View_change_start of { from_view : int; to_view : int }
  | New_view_entered of { view : int }
  | Checkpoint_stable of { seq : int }
  | Transfer_start of { target : int }
  | Transfer_fetch of { level : int; index : int }
  | Transfer_done of { target : int }
  | Recovery_phase of { phase : string }
  | Snapshot_rejected of { reason : string }
  | Invoke_timeout of { op : string }
  | Checkpoint_taken of { seq : int; bytes : int; dirty : int; clean : int }
  | Admission_drop of { client : int }
  | Retransmit_suppressed of { peer : int }
  | Slowness_view_change of { view : int; ewma_us : float; baseline_us : float }

type entry = { at : int64; ev : event }

let num_phases = 5
let unmarked = Int64.min_int

type t = {
  t_enabled : bool;
  ring : entry Ring.t;
  (* interval histograms: phase_hists.(i) holds the latency of the
     interval ending at phase i (phase_name i) *)
  phase_hists : Hist.t array;
  e2e : Hist.t;
  ckpt_bytes : Hist.t; (* bytes digested per checkpoint (values are bytes, not us) *)
  batch_occ : Hist.t; (* requests per formed batch (values are counts, not us) *)
  arrivals : (string, int64) Hashtbl.t; (* request digest -> arrival time *)
  marks : (int, int64 array) Hashtbl.t; (* seq -> per-phase first-transition times *)
  mutable n_retransmissions : int;
  mutable n_snapshot_rejected : int;
  mutable n_timeouts : int;
  mutable n_ckpt_dirty_pages : int;
  mutable n_ckpt_clean_pages : int;
  (* defenses against Chondros-style "practicality" attacks *)
  mutable n_admission_dropped : int;
  mutable n_retransmit_suppressed : int;
  mutable n_slowness_vc : int;
}

let make ~enabled ~capacity =
  {
    t_enabled = enabled;
    ring = Ring.create capacity;
    phase_hists = Array.init num_phases (fun _ -> Hist.create ());
    e2e = Hist.create ();
    ckpt_bytes = Hist.create ();
    batch_occ = Hist.create ();
    arrivals = Hashtbl.create (if enabled then 64 else 1);
    marks = Hashtbl.create (if enabled then 64 else 1);
    n_retransmissions = 0;
    n_snapshot_rejected = 0;
    n_timeouts = 0;
    n_ckpt_dirty_pages = 0;
    n_ckpt_clean_pages = 0;
    n_admission_dropped = 0;
    n_retransmit_suppressed = 0;
    n_slowness_vc = 0;
  }

let null = make ~enabled:false ~capacity:1
let enabled t = t.t_enabled

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)
(* ------------------------------------------------------------------ *)

let record t ~at ev = Ring.push t.ring { at; ev }

let request_arrival t ~now ~client ~digest =
  if t.t_enabled then begin
    if not (Hashtbl.mem t.arrivals digest) then Hashtbl.replace t.arrivals digest now;
    record t ~at:now (Request_arrival { client; digest })
  end

let marks_for t seq =
  match Hashtbl.find_opt t.marks seq with
  | Some a -> a
  | None ->
      let a = Array.make num_phases unmarked in
      Hashtbl.replace t.marks seq a;
      a

let batch_assigned t ~now ~digests =
  if t.t_enabled then
    List.iter
      (fun d ->
        match Hashtbl.find_opt t.arrivals d with
        | Some at ->
            Hist.add t.phase_hists.(0) (Int64.to_float (Int64.sub now at) /. 1_000.0)
        | None -> ())
      digests

let phase t ~now ph ~view ~seq =
  if t.t_enabled then begin
    let i = phase_index ph in
    let m = marks_for t seq in
    if Int64.equal m.(i) unmarked then begin
      m.(i) <- now;
      (* latency from the nearest earlier recorded phase of this seq *)
      if i > 0 then begin
        let j = ref (i - 1) in
        while !j > 0 && Int64.equal m.(!j) unmarked do decr j done;
        if not (Int64.equal m.(!j) unmarked) then
          Hist.add t.phase_hists.(i) (Int64.to_float (Int64.sub now m.(!j)) /. 1_000.0)
      end;
      record t ~at:now (Phase_transition { phase = ph; view; seq })
    end
  end

let reply_sent t ~now ~client ~seq ~digest ~tentative =
  if t.t_enabled then begin
    phase t ~now Replied ~view:0 ~seq;
    (match Hashtbl.find_opt t.arrivals digest with
    | Some at ->
        Hist.add t.e2e (Int64.to_float (Int64.sub now at) /. 1_000.0);
        Hashtbl.remove t.arrivals digest
    | None -> ());
    record t ~at:now (Reply_sent { client; seq; tentative })
  end

let client_retransmit t ~now ~timestamp ~retries ~delay_us =
  if t.t_enabled then begin
    t.n_retransmissions <- t.n_retransmissions + 1;
    record t ~at:now (Client_retransmit { timestamp; retries; delay_us })
  end

let client_complete t ~now ~timestamp ~latency_us =
  if t.t_enabled then begin
    Hist.add t.e2e latency_us;
    record t ~at:now (Client_complete { timestamp; latency_us })
  end

let view_change_start t ~now ~from_view ~to_view =
  if t.t_enabled then record t ~at:now (View_change_start { from_view; to_view })

let new_view_entered t ~now ~view =
  if t.t_enabled then record t ~at:now (New_view_entered { view })

let checkpoint_stable t ~now ~seq =
  if t.t_enabled then begin
    Hashtbl.filter_map_inplace (fun s m -> if s <= seq then None else Some m) t.marks;
    record t ~at:now (Checkpoint_stable { seq })
  end

let transfer_start t ~now ~target =
  if t.t_enabled then record t ~at:now (Transfer_start { target })

let transfer_fetch t ~now ~level ~index =
  if t.t_enabled then record t ~at:now (Transfer_fetch { level; index })

let transfer_done t ~now ~target =
  if t.t_enabled then record t ~at:now (Transfer_done { target })

let recovery_phase t ~now phase =
  if t.t_enabled then record t ~at:now (Recovery_phase { phase })

let snapshot_rejected t ~now ~reason =
  if t.t_enabled then begin
    t.n_snapshot_rejected <- t.n_snapshot_rejected + 1;
    record t ~at:now (Snapshot_rejected { reason })
  end

let checkpoint_taken t ~now ~seq ~bytes ~dirty ~clean =
  if t.t_enabled then begin
    Hist.add t.ckpt_bytes (float_of_int bytes);
    t.n_ckpt_dirty_pages <- t.n_ckpt_dirty_pages + dirty;
    t.n_ckpt_clean_pages <- t.n_ckpt_clean_pages + clean;
    record t ~at:now (Checkpoint_taken { seq; bytes; dirty; clean })
  end

let batch_formed t ~len = if t.t_enabled then Hist.add t.batch_occ (float_of_int len)

let admission_drop t ~now ~client =
  if t.t_enabled then begin
    t.n_admission_dropped <- t.n_admission_dropped + 1;
    record t ~at:now (Admission_drop { client })
  end

let retransmit_suppress t ~now ~peer =
  if t.t_enabled then begin
    t.n_retransmit_suppressed <- t.n_retransmit_suppressed + 1;
    record t ~at:now (Retransmit_suppressed { peer })
  end

let slowness_view_change t ~now ~view ~ewma_us ~baseline_us =
  if t.t_enabled then begin
    t.n_slowness_vc <- t.n_slowness_vc + 1;
    record t ~at:now (Slowness_view_change { view; ewma_us; baseline_us })
  end

let invoke_timeout t ~now ~op =
  if t.t_enabled then begin
    t.n_timeouts <- t.n_timeouts + 1;
    record t ~at:now (Invoke_timeout { op })
  end

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

let events ?last t =
  let l = Ring.to_list t.ring in
  match last with
  | None -> l
  | Some n ->
      let len = List.length l in
      if len <= n then l else List.filteri (fun i _ -> i >= len - n) l

(* digests are raw hash bytes; show a short hex prefix *)
let short_digest d =
  let n = min 4 (String.length d) in
  let b = Buffer.create (n * 2) in
  for i = 0 to n - 1 do
    Buffer.add_string b (Printf.sprintf "%02x" (Char.code d.[i]))
  done;
  Buffer.contents b

let event_to_string = function
  | Request_arrival { client; digest } ->
      Printf.sprintf "request-arrival client=%d req=%s" client (short_digest digest)
  | Phase_transition { phase = Replied; view = _; seq } ->
      (* the reply path records this mark without a meaningful view *)
      Printf.sprintf "replied n=%d" seq
  | Phase_transition { phase; view; seq } ->
      Printf.sprintf "%s v=%d n=%d" (phase_label phase) view seq
  | Reply_sent { client; seq; tentative } ->
      Printf.sprintf "reply-sent client=%d n=%d%s" client seq
        (if tentative then " tentative" else "")
  | Client_retransmit { timestamp; retries; delay_us } ->
      Printf.sprintf "client-retransmit t=%Ld retries=%d after=%.0fus" timestamp retries
        delay_us
  | Client_complete { timestamp; latency_us } ->
      Printf.sprintf "client-complete t=%Ld latency=%.1fus" timestamp latency_us
  | View_change_start { from_view; to_view } ->
      Printf.sprintf "view-change-start %d->%d" from_view to_view
  | New_view_entered { view } -> Printf.sprintf "new-view v=%d" view
  | Checkpoint_stable { seq } -> Printf.sprintf "checkpoint-stable n=%d" seq
  | Transfer_start { target } -> Printf.sprintf "state-transfer-start target=%d" target
  | Transfer_fetch { level; index } ->
      Printf.sprintf "state-transfer-fetch level=%d index=%d" level index
  | Transfer_done { target } -> Printf.sprintf "state-transfer-done target=%d" target
  | Recovery_phase { phase } -> Printf.sprintf "recovery %s" phase
  | Snapshot_rejected { reason } -> Printf.sprintf "snapshot-rejected: %s" reason
  | Invoke_timeout { op } -> Printf.sprintf "invoke-timeout op=%S" op
  | Checkpoint_taken { seq; bytes; dirty; clean } ->
      Printf.sprintf "checkpoint-taken n=%d digested=%dB dirty=%d clean=%d" seq bytes dirty
        clean
  | Admission_drop { client } -> Printf.sprintf "admission-drop client=%d" client
  | Retransmit_suppressed { peer } -> Printf.sprintf "retransmit-suppressed peer=%d" peer
  | Slowness_view_change { view; ewma_us; baseline_us } ->
      Printf.sprintf "slowness-view-change v=%d ewma=%.1fus baseline=%.1fus" view ewma_us
        baseline_us

let entry_to_string e =
  Printf.sprintf "[%10.1fus] %s" (Int64.to_float e.at /. 1_000.0) (event_to_string e.ev)

let phase_hist t i = t.phase_hists.(i)
let e2e_hist t = t.e2e
let checkpoint_bytes_hist t = t.ckpt_bytes
let batch_occupancy_hist t = t.batch_occ
let snapshot_rejections t = t.n_snapshot_rejected
let timeouts t = t.n_timeouts
let checkpoint_dirty_pages t = t.n_ckpt_dirty_pages
let checkpoint_clean_pages t = t.n_ckpt_clean_pages

let hist_line name h =
  Printf.sprintf "  %-20s count=%-6d mean=%8.1fus p50=%8.1fus p99=%8.1fus max=%8.1fus"
    name (Hist.count h) (Hist.mean_us h) (Hist.percentile_us h 0.5)
    (Hist.percentile_us h 0.99) (Hist.max_us h)

let summary_lines t =
  let phases =
    List.init num_phases (fun i -> hist_line (phase_name i) t.phase_hists.(i))
  in
  phases
  @ [ hist_line "request->reply" t.e2e ]
  @ [
      Printf.sprintf
        "  %-20s count=%-6d mean=%8.0fB  p99=%8.0fB  max=%8.0fB  dirty=%d clean=%d"
        "checkpoint-digest"
        (Hist.count t.ckpt_bytes) (Hist.mean_us t.ckpt_bytes)
        (Hist.percentile_us t.ckpt_bytes 0.99) (Hist.max_us t.ckpt_bytes)
        t.n_ckpt_dirty_pages t.n_ckpt_clean_pages;
    ]
  @ [
      Printf.sprintf
        "  %-20s count=%-6d mean=%8.1f   p50=%8.0f   p99=%8.0f   max=%8.0f  (reqs/batch)"
        "batch-occupancy" (Hist.count t.batch_occ) (Hist.mean_us t.batch_occ)
        (Hist.percentile_us t.batch_occ 0.5) (Hist.percentile_us t.batch_occ 0.99)
        (Hist.max_us t.batch_occ);
    ]
  @ [
      Printf.sprintf "  retransmissions=%d timeouts=%d snapshot_rejected=%d events=%d"
        t.n_retransmissions t.n_timeouts t.n_snapshot_rejected (Ring.total t.ring);
      Printf.sprintf
        "  admission_dropped=%d retransmit_suppressed=%d slowness_view_changes=%d"
        t.n_admission_dropped t.n_retransmit_suppressed t.n_slowness_vc;
    ]

let hist_json h =
  Printf.sprintf
    "{ \"count\": %d, \"mean_us\": %.1f, \"p50_us\": %.1f, \"p99_us\": %.1f, \"max_us\": \
     %.1f }"
    (Hist.count h) (Hist.mean_us h) (Hist.percentile_us h 0.5) (Hist.percentile_us h 0.99)
    (Hist.max_us h)

let to_json t =
  let b = Buffer.create 512 in
  Buffer.add_string b "{ \"phases\": {";
  for i = 0 to num_phases - 1 do
    Buffer.add_string b
      (Printf.sprintf "%s \"%s\": %s" (if i = 0 then "" else ",") (phase_name i)
         (hist_json t.phase_hists.(i)))
  done;
  Buffer.add_string b (Printf.sprintf " }, \"e2e\": %s" (hist_json t.e2e));
  Buffer.add_string b
    (Printf.sprintf
       ", \"checkpoint\": { \"count\": %d, \"mean_bytes\": %.0f, \"p99_bytes\": %.0f, \
        \"max_bytes\": %.0f, \"dirty_pages\": %d, \"clean_pages\": %d }"
       (Hist.count t.ckpt_bytes) (Hist.mean_us t.ckpt_bytes)
       (Hist.percentile_us t.ckpt_bytes 0.99) (Hist.max_us t.ckpt_bytes)
       t.n_ckpt_dirty_pages t.n_ckpt_clean_pages);
  Buffer.add_string b
    (Printf.sprintf
       ", \"batch_occupancy\": { \"count\": %d, \"mean\": %.1f, \"p50\": %.0f, \"p99\": \
        %.0f, \"max\": %.0f }"
       (Hist.count t.batch_occ) (Hist.mean_us t.batch_occ)
       (Hist.percentile_us t.batch_occ 0.5)
       (Hist.percentile_us t.batch_occ 0.99) (Hist.max_us t.batch_occ));
  Buffer.add_string b
    (Printf.sprintf
       ", \"admission_dropped\": %d, \"retransmit_suppressed\": %d, \
        \"slowness_view_changes\": %d"
       t.n_admission_dropped t.n_retransmit_suppressed t.n_slowness_vc);
  Buffer.add_string b
    (Printf.sprintf
       ", \"retransmissions\": %d, \"timeouts\": %d, \"snapshot_rejected\": %d, \
        \"events\": %d }"
       t.n_retransmissions t.n_timeouts t.n_snapshot_rejected (Ring.total t.ring));
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

type registry = { cap : int; tbl : (int, t) Hashtbl.t }

let registry ?(capacity = 1024) () = { cap = capacity; tbl = Hashtbl.create 16 }

let for_node r id =
  match Hashtbl.find_opt r.tbl id with
  | Some t -> t
  | None ->
      let t = make ~enabled:true ~capacity:r.cap in
      Hashtbl.replace r.tbl id t;
      t

let nodes r =
  Hashtbl.fold (fun id t acc -> (id, t) :: acc) r.tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let registry_to_json r =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  let ns = nodes r in
  List.iteri
    (fun i (id, t) ->
      Buffer.add_string b
        (Printf.sprintf "  \"node%d\": %s%s\n" id (to_json t)
           (if i = List.length ns - 1 then "" else ",")))
    ns;
  Buffer.add_string b "}\n";
  Buffer.contents b
