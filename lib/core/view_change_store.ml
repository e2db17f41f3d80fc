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

let pq_lists t =
  ( Hashtbl.fold (fun _ e acc -> e :: acc) t.pset []
    |> List.sort (fun a b -> Int.compare a.pe_seq b.pe_seq),
    Hashtbl.fold (fun n l acc -> { qe_seq = n; qe_entries = l } :: acc) t.qset []
    |> List.sort (fun a b -> Int.compare a.qe_seq b.qe_seq) )

let prune_stable t seq =
  let above n x = if n > seq then Some x else None in
  Hashtbl.filter_map_inplace above t.pset;
  Hashtbl.filter_map_inplace above t.qset

let prune_below t v =
  let keep v' x = if v' >= v then Some x else None in
  Hashtbl.filter_map_inplace (fun (v', _) x -> keep v' x) t.vcs;
  Hashtbl.filter_map_inplace (fun (v', _) x -> keep v' x) t.acks;
  Hashtbl.filter_map_inplace keep t.my_acks;
  Hashtbl.filter_map_inplace keep t.my_vcs;
  Hashtbl.filter_map_inplace keep t.new_views

let record_own t (vc : view_change) =
  Hashtbl.replace t.my_vcs vc.vc_view vc;
  Hashtbl.replace t.vcs (vc.vc_view, vc.vc_replica) (vc, true)

let my_vc t v = Hashtbl.find_opt t.my_vcs v

(* A verified copy is never replaced by an unverified one. *)
let add t (vc : view_change) ~verified =
  match Hashtbl.find_opt t.vcs (vc.vc_view, vc.vc_replica) with
  | Some (_, true) -> ()
  | _ -> Hashtbl.replace t.vcs (vc.vc_view, vc.vc_replica) (vc, verified)

let note_my_ack t (a : view_change_ack) =
  let prev = Option.value ~default:[] (Hashtbl.find_opt t.my_acks a.va_view) in
  if List.exists (fun a' -> a'.va_origin = a.va_origin) prev then false
  else begin
    Hashtbl.replace t.my_acks a.va_view (a :: prev);
    true
  end

let my_acks t v = Option.value ~default:[] (Hashtbl.find_opt t.my_acks v)

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

let available t ~self ~f v (sender, digest) =
  match Hashtbl.find_opt t.vcs (v, sender) with
  | Some (vc, verified) ->
      if not (String.equal (Wire.view_change_digest vc) digest) then None
      else if verified then Some vc
      else if
        (* accept an unverified view-change when f acks from other replicas
           match the digest in the new-view (Section 3.2.4) *)
        matching_acks t ~view:v ~origin:sender ~except:self digest >= f
      then Some vc
      else None
  | None -> None

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

let senders t v =
  Hashtbl.fold (fun (v', sender) _ acc -> if v' = v then sender :: acc else acc) t.vcs []

let iter_view t v fn = Hashtbl.iter (fun (v', sender) (vc, _) -> if v' = v then fn sender vc) t.vcs

let join_view t ~above ~self ~weak =
  let others v' =
    Hashtbl.fold
      (fun (v'', sender) _ acc -> if v'' = v' && sender <> self then sender :: acc else acc)
      t.vcs []
    |> List.sort_uniq Int.compare
  in
  Hashtbl.fold
    (fun (v', sender) _ acc -> if v' > above && sender <> self then v' :: acc else acc)
    t.vcs []
  |> List.sort_uniq Int.compare
  |> List.find_opt (fun v' -> List.length (others v') >= weak)

let new_view t v = Hashtbl.find_opt t.new_views v
let has_new_view t v = v = 0 || Hashtbl.mem t.new_views v
let accept_new_view t (nv : new_view) = Hashtbl.replace t.new_views nv.nv_view nv
let deferred_nv t = t.deferred_nv
let set_deferred_nv t nv = t.deferred_nv <- nv
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
