[@@@lint.protocol_core]
open Message

type t = {
  pset : (int, pset_entry) Hashtbl.t;
  qset : (int, (string * int) list) Hashtbl.t;
  my_vcs : (int, view_change) Hashtbl.t; (* view -> our view-change *)
  (* (view, sender) -> vc, verified. A new-view's S set and the status
     messages list view-changes in this table's iteration order, so its
     key type and insert/remove sequence are part of the protocol's bytes. *)
  vcs : (int * int, view_change * bool) Hashtbl.t;
  acks : (int * int, (int, string) Hashtbl.t) Hashtbl.t;
      (* (view, origin) -> acker -> digest *)
  my_acks : (int, view_change_ack list) Hashtbl.t; (* view -> acks we sent *)
  new_views : (int, new_view) Hashtbl.t; (* view -> accepted/sent new-view *)
  mutable deferred_nv : new_view option; (* waiting for vcs or batches *)
}

let create () =
  {
    pset = Hashtbl.create 16;
    qset = Hashtbl.create 16;
    my_vcs = Hashtbl.create 4;
    vcs = Hashtbl.create 16;
    acks = Hashtbl.create 16;
    my_acks = Hashtbl.create 4;
    new_views = Hashtbl.create 4;
    deferred_nv = None;
  }

(* ------------------------------------------------------------------ *)
(* View-changes and acknowledgments                                   *)
(* ------------------------------------------------------------------ *)

(* Entries outside the log window are dropped; inside it, the log's
   prepared certificate replaces the P entry, and a batch this replica
   pre-prepared moves to the front of the Q entry. *)
let compute_pq t log ~log_size =
  let h = Log.low_mark log in
  let in_window n x = if n > h && n <= h + log_size then Some x else None in
  Hashtbl.filter_map_inplace in_window t.pset;
  Hashtbl.filter_map_inplace in_window t.qset;
  for n = h + 1 to h + log_size do
    match Log.entry log n with
    | Some ({ Log.pp_digest = Some d; _ } as e) ->
        let v = e.Log.pp_view in
        if Log.prepared log ~view:v ~seq:n || Log.committed log ~view:v ~seq:n then
          Hashtbl.replace t.pset n { pe_seq = n; pe_digest = d; pe_view = v };
        if e.Log.self_preprepared then begin
          let prev = Option.value ~default:[] (Hashtbl.find_opt t.qset n) in
          Hashtbl.replace t.qset n
            ((d, v) :: List.filter (fun (d', _) -> not (String.equal d' d)) prev)
        end
    | _ -> ()
  done

let start t cfg ~self ~view log ckpts =
  compute_pq t log ~log_size:cfg.Config.log_size;
  let vc =
    {
      vc_view = view;
      vc_h = Checkpoint_store.stable_seq ckpts;
      vc_cset = Checkpoint_store.held ckpts;
      vc_pset =
        Hashtbl.fold (fun _ e acc -> e :: acc) t.pset []
        |> List.sort (fun a b -> Int.compare a.pe_seq b.pe_seq);
      vc_qset =
        Hashtbl.fold (fun n l acc -> { qe_seq = n; qe_entries = l } :: acc) t.qset []
        |> List.sort (fun a b -> Int.compare a.qe_seq b.qe_seq);
      vc_replica = self;
    }
  in
  Hashtbl.replace t.my_vcs view vc;
  Hashtbl.replace t.vcs (view, self) (vc, true);
  vc

type received =
  | Refused
  | Stored of { ack : view_change_ack option; join : int option }

(* The smallest view above [above] for which [weak] other replicas sent
   view-changes. *)
let join_view t ~above ~self ~weak =
  let others v =
    Hashtbl.fold (fun (v', r) _ n -> if v' = v && r <> self then n + 1 else n) t.vcs 0
  in
  Hashtbl.fold (fun (v, r) _ acc -> if v > above && r <> self then v :: acc else acc) t.vcs []
  |> List.sort_uniq Int.compare
  |> List.find_opt (fun v -> others v >= weak)

let receive t cfg ~self ~view (vc : view_change) ~verified =
  let v = vc.vc_view in
  if
    v < view || vc.vc_replica = self
    || List.exists (fun e -> e.pe_view >= v) vc.vc_pset
    || List.exists (fun q -> List.exists (fun (_, qv) -> qv >= v) q.qe_entries) vc.vc_qset
  then Refused
  else begin
    (match Hashtbl.find_opt t.vcs (v, vc.vc_replica) with
    | Some (_, true) -> ()
    | _ -> Hashtbl.replace t.vcs (v, vc.vc_replica) (vc, verified));
    let ack =
      if not verified then None
      else
        let a =
          { va_view = v; va_replica = self; va_origin = vc.vc_replica;
            va_digest = Wire.view_change_digest vc }
        in
        let prev = Option.value ~default:[] (Hashtbl.find_opt t.my_acks v) in
        if List.exists (fun a' -> a'.va_origin = a.va_origin) prev then None
        else begin
          Hashtbl.replace t.my_acks v (a :: prev);
          Some a
        end
    in
    let join = if v > view then join_view t ~above:view ~self ~weak:(Config.weak cfg) else None in
    Stored { ack; join }
  end

let ack_table t ~view ~origin =
  match Hashtbl.find_opt t.acks (view, origin) with
  | Some h -> h
  | None ->
      let h = Hashtbl.create 8 in
      Hashtbl.replace t.acks (view, origin) h;
      h

let add_ack t (a : view_change_ack) =
  Hashtbl.replace (ack_table t ~view:a.va_view ~origin:a.va_origin) a.va_replica a.va_digest

(* Acks for [origin]'s view-change of [view] that match [digest], from
   replicas other than [origin] and [except]. *)
let matching_acks t ~view ~origin ~except digest =
  Hashtbl.fold
    (fun acker d n ->
      if acker <> origin && acker <> except && String.equal d digest then n + 1 else n)
    (ack_table t ~view ~origin) 0

let my_vc t v = Hashtbl.find_opt t.my_vcs v
let my_acks t v = Option.value ~default:[] (Hashtbl.find_opt t.my_acks v)

let senders t v =
  Hashtbl.fold (fun (v', sender) _ acc -> if v' = v then sender :: acc else acc) t.vcs []

let iter_view t v fn = Hashtbl.iter (fun (v', sender) (vc, _) -> if v' = v then fn sender vc) t.vcs

(* ------------------------------------------------------------------ *)
(* New-views                                                          *)
(* ------------------------------------------------------------------ *)

let new_view t v = Hashtbl.find_opt t.new_views v
let has_new_view t v = v = 0 || Hashtbl.mem t.new_views v

let offer_new_view t (nv : new_view) =
  match t.deferred_nv with
  | Some old when old.nv_view >= nv.nv_view -> ()
  | _ -> t.deferred_nv <- Some nv

(* Accept the new-view we send or enter, and forget the evidence of
   earlier views. *)
let accept t (nv : new_view) =
  Hashtbl.replace t.new_views nv.nv_view nv;
  t.deferred_nv <- None;
  let keep v' x = if v' >= nv.nv_view then Some x else None in
  Hashtbl.filter_map_inplace (fun (v', _) x -> keep v' x) t.vcs;
  Hashtbl.filter_map_inplace (fun (v', _) x -> keep v' x) t.acks;
  Hashtbl.filter_map_inplace keep t.my_acks;
  Hashtbl.filter_map_inplace keep t.my_vcs;
  Hashtbl.filter_map_inplace keep t.new_views

(* ------------------------------------------------------------------ *)
(* The new-view decision (Fig 3-3)                                    *)
(* ------------------------------------------------------------------ *)

let new_view_of cfg ~view (s : (int * view_change) list) ~has_batch =
  let quorum = Config.quorum cfg and weak = Config.weak cfg in
  let msgs = List.map snd s in
  let count p = List.length (List.filter p msgs) in
  (* the start checkpoint: the highest one certified *)
  let certified (n, d) =
    count (fun m -> m.vc_h <= n) >= quorum
    && count (fun m -> List.exists (fun cd -> cd = (n, d)) m.vc_cset) >= weak
  in
  match
    List.concat_map (fun m -> m.vc_cset) msgs
    |> List.sort_uniq compare |> List.filter certified |> List.rev
  with
  | [] -> None
  | (start, start_digest) :: _ ->
      let max_n =
        List.fold_left
          (fun acc m -> List.fold_left (fun acc e -> max acc e.pe_seq) acc m.vc_pset)
          start msgs
      in
      let choose n =
        (* A: a prepared batch proposed for n, latest view first *)
        let a1 e =
          count (fun m ->
              m.vc_h < n
              && List.for_all
                   (fun e' ->
                     e'.pe_seq <> n || e'.pe_view < e.pe_view
                     || (e'.pe_view = e.pe_view && String.equal e'.pe_digest e.pe_digest))
                   m.vc_pset)
          >= quorum
        and a2 e =
          count (fun m ->
              List.exists
                (fun q ->
                  q.qe_seq = n
                  && List.exists
                       (fun (d, v) -> String.equal d e.pe_digest && v >= e.pe_view)
                       q.qe_entries)
                m.vc_qset)
          >= weak
        in
        match
          List.concat_map (fun m -> List.filter (fun e -> e.pe_seq = n) m.vc_pset) msgs
          |> List.sort (fun a b -> compare (b.pe_view, b.pe_digest) (a.pe_view, a.pe_digest))
          |> List.find_opt (fun e -> a1 e && a2 e && has_batch e.pe_digest)
        with
        | Some e -> Some e.pe_digest
        | None ->
            (* B: 2f+1 messages with h < n and no P entry for n *)
            let nothing m = m.vc_h < n && List.for_all (fun e -> e.pe_seq <> n) m.vc_pset in
            if count nothing >= quorum then Some Wire.null_batch_digest
            else None
      in
      let rec go n acc =
        if n > max_n then
          Some
            {
              nv_view = view;
              nv_vcs = List.map (fun (sender, vc) -> (sender, Wire.view_change_digest vc)) s;
              nv_start = start;
              nv_start_digest = start_digest;
              nv_chosen = List.rev acc;
            }
        else
          match choose n with
          | Some d -> go (n + 1) ({ nc_seq = n; nc_digest = d } :: acc)
          | None -> None
      in
      go (start + 1) []

type step =
  | Nothing
  | Fetch of digest list
  | Announce of new_view
  | Enter of new_view
  | Next_view of int

(* S: our own view-change plus every view-change with 2f-1 acks. *)
let s_set t ~self ~f v =
  Hashtbl.fold
    (fun (v', sender) (vc, _verified) acc ->
      if v' <> v then acc
      else if sender = self then (sender, vc) :: acc
      else if
        matching_acks t ~view:v ~origin:sender ~except:sender (Wire.view_change_digest vc)
        >= (2 * f) - 1
      then (sender, vc) :: acc
      else acc)
    t.vcs []

let decide t cfg ~self ~view rq =
  if Config.primary cfg ~view <> self || Hashtbl.mem t.new_views view then Nothing
  else
    let s = s_set t ~self ~f:cfg.Config.f view in
    if List.length s < Config.quorum cfg then Nothing
    else
      let has_batch = Request_store.have_batch_bodies rq in
      match new_view_of cfg ~view s ~has_batch with
      | Some nv ->
          accept t nv;
          Announce nv
      | None ->
          Fetch
            (List.concat_map
               (fun (_, vc) ->
                 List.filter_map
                   (fun e -> if has_batch e.pe_digest then None else Some e.pe_digest)
                   vc.vc_pset)
               s)

(* The view-change [sender] sent for [v], if we hold it with [digest] and
   either verified it or hold f matching acknowledgments from replicas
   other than its sender and us (Section 3.2.4). *)
let available t ~self ~f v (sender, digest) =
  match Hashtbl.find_opt t.vcs (v, sender) with
  | Some (vc, verified)
    when String.equal (Wire.view_change_digest vc) digest
         && (verified || matching_acks t ~view:v ~origin:sender ~except:self digest >= f) ->
      Some (sender, vc)
  | _ -> None

let check t cfg ~self ~view rq =
  match t.deferred_nv with
  | None -> Nothing
  | Some nv when nv.nv_view < view ->
      t.deferred_nv <- None;
      Nothing
  | Some nv -> (
      let v = nv.nv_view in
      let vcs = List.filter_map (available t ~self ~f:cfg.Config.f v) nv.nv_vcs in
      if List.length vcs <> List.length nv.nv_vcs || List.length vcs < Config.quorum cfg then
        Nothing
      else if new_view_of cfg ~view:v vcs ~has_batch:(fun _ -> true) <> Some nv then
        (* invalid or undecidable: move to the next view *)
        Next_view (v + 1)
      else
        match
          List.filter (fun c -> not (Request_store.have_batch_bodies rq c.nc_digest)) nv.nv_chosen
        with
        | [] ->
            accept t nv;
            Enter nv
        | missing -> Fetch (List.map (fun c -> c.nc_digest) missing))

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                          *)
(* ------------------------------------------------------------------ *)

let prune_stable t seq =
  let above n x = if n > seq then Some x else None in
  Hashtbl.filter_map_inplace above t.pset;
  Hashtbl.filter_map_inplace above t.qset

let crash_reset t = t.deferred_nv <- None

let digest { pset; qset; my_vcs; vcs; acks; my_acks; new_views; deferred_nv } b =
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let hexd = Bft_util.Hex.encode in
  let hstr s = Bft_crypto.Sha256.hexdigest s in
  (* keys are ints or (int, int) pairs, so [compare] on them is total *)
  let sorted h =
    List.sort (fun (a, _) (b, _) -> compare a b) (Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [])
  in
  add "|pset:";
  List.iter
    (fun (k, pe) -> add "%d:%d:%d:%s;" k pe.pe_seq pe.pe_view (hexd pe.pe_digest))
    (sorted pset);
  add "|qset:";
  List.iter
    (fun (k, l) ->
      add "%d(" k;
      List.iter (fun (d, v) -> add "%s:%d;" (hexd d) v) l;
      add ")")
    (sorted qset);
  add "|myvc:";
  List.iter (fun (v, vc) -> add "%d:%s;" v (hexd (Wire.view_change_digest vc))) (sorted my_vcs);
  add "|vcs:";
  List.iter
    (fun ((v, s), (vc, verified)) ->
      add "%d:%d:%s:%b;" v s (hexd (Wire.view_change_digest vc)) verified)
    (sorted vcs);
  add "|acks:";
  List.iter
    (fun ((v, o), inner) ->
      add "%d:%d(" v o;
      List.iter (fun (a, d) -> add "%d:%s;" a (hexd d)) (sorted inner);
      add ")")
    (sorted acks);
  add "|myacks:";
  List.iter (fun (v, l) -> add "%d:%d;" v (List.length l)) (sorted my_acks);
  add "|nv:";
  List.iter (fun (v, nv) -> add "%d:%s;" v (hstr (Wire.encode (New_view nv)))) (sorted new_views);
  add "|defnv=%s"
    (match deferred_nv with Some nv -> hstr (Wire.encode (New_view nv)) | None -> "-")
