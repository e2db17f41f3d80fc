(* The view change as data, with no cluster. First the new-view decision
   procedure (paper Fig 3-3), the heart of view-change safety: committed
   requests must keep their sequence numbers; unprepared gaps become null
   requests; insufficient information defers the decision. Then the
   decision table of View_change, one input per case: what a replica does
   with a view-change, an acknowledgment or a new-view. *)

open Bft_core
open Message

let cfg = Config.make ~f:1 () (* quorum 3, weak 2 *)
let d_a = String.make 32 'a'
let d_b = String.make 32 'b'
let ck0 = String.make 32 '0'

let vc ?(view = 1) ?(h = 0) ?(cset = [ (0, ck0) ]) ?(pset = []) ?(qset = []) replica =
  (replica, { vc_view = view; vc_h = h; vc_cset = cset; vc_pset = pset; vc_qset = qset; vc_replica = replica })

let pe ~seq ~d ~view = { pe_seq = seq; pe_digest = d; pe_view = view }
let qe ~seq entries = { qe_seq = seq; qe_entries = entries }
let has_all _ = true

(* The new-view the primary of view 1 builds from S. *)
let decide s ~has_batch = View_change.new_view_of cfg ~view:1 s ~has_batch

let check_decision name result ~start ~chosen =
  match result with
  | None -> Alcotest.failf "%s: undecided" name
  | Some nv ->
      Alcotest.(check int) (name ^ " start") start nv.nv_start;
      Alcotest.(check (list (pair int string)))
        (name ^ " chosen") chosen
        (List.map (fun c -> (c.nc_seq, c.nc_digest)) nv.nv_chosen)

let test_empty_is_wait () =
  Alcotest.(check bool) "no messages" true
    (decide [] ~has_batch:has_all = None)

let test_quorum_no_activity_decides_empty () =
  let s = [ vc 0; vc 1; vc 2 ] in
  check_decision "idle" (decide s ~has_batch:has_all) ~start:0 ~chosen:[]

let test_prepared_request_is_chosen () =
  (* one replica prepared (n=1, d_a, v=0); the others pre-prepared it *)
  let q = [ qe ~seq:1 [ (d_a, 0) ] ] in
  let s =
    [
      vc ~pset:[ pe ~seq:1 ~d:d_a ~view:0 ] ~qset:q 0;
      vc ~qset:q 1;
      vc 2;
    ]
  in
  check_decision "prepared chosen" (decide s ~has_batch:has_all)
    ~start:0 ~chosen:[ (1, d_a) ]

let test_a2_blocks_unsupported_claim () =
  (* a single (possibly faulty) replica claims n=1 prepared, but no other
     replica pre-prepared that digest: condition A2 fails; with 2f+1
     showing nothing prepared, B chooses null *)
  let s = [ vc ~pset:[ pe ~seq:1 ~d:d_a ~view:0 ] 0; vc 1; vc 2; vc 3 ] in
  check_decision "unsupported claim nulled" (decide s ~has_batch:has_all)
    ~start:0 ~chosen:[ (1, Wire.null_batch_digest) ]

let test_b_needs_quorum () =
  (* only 3 messages and one claims prepared: B cannot gather 2f+1 `nothing
     prepared' messages, A2 lacks support: must wait *)
  let s = [ vc ~pset:[ pe ~seq:1 ~d:d_a ~view:0 ] 0; vc 1; vc 2 ] in
  Alcotest.(check bool) "wait" true
    (decide s ~has_batch:has_all = None)

let test_higher_view_wins () =
  (* conflicting prepared certificates for n=1: view 2 beats view 1
     (re-proposals across views, Theorem 3.2.1) *)
  let qa = [ qe ~seq:1 [ (d_a, 1) ] ] and qb = [ qe ~seq:1 [ (d_b, 2) ] ] in
  let s =
    [
      vc ~pset:[ pe ~seq:1 ~d:d_a ~view:1 ] ~qset:qa 0;
      vc ~pset:[ pe ~seq:1 ~d:d_b ~view:2 ] ~qset:qb 1;
      vc ~qset:qb 2;
      vc 3;
    ]
  in
  check_decision "later view wins" (decide s ~has_batch:has_all)
    ~start:0 ~chosen:[ (1, d_b) ]

let test_committed_request_survives () =
  (* a committed request (prepared at a quorum): every quorum of
     view-changes contains it, so it must be re-chosen *)
  let p = [ pe ~seq:1 ~d:d_a ~view:0 ] and q = [ qe ~seq:1 [ (d_a, 0) ] ] in
  let s = [ vc ~pset:p ~qset:q 0; vc ~pset:p ~qset:q 1; vc ~pset:p ~qset:q 2 ] in
  check_decision "committed survives" (decide s ~has_batch:has_all)
    ~start:0 ~chosen:[ (1, d_a) ]

let test_gap_filled_with_null () =
  (* n=2 prepared but nothing at n=1: the gap becomes a null request *)
  let p = [ pe ~seq:2 ~d:d_a ~view:0 ] and q = [ qe ~seq:2 [ (d_a, 0) ] ] in
  let s = [ vc ~pset:p ~qset:q 0; vc ~pset:p ~qset:q 1; vc ~qset:q 2 ] in
  check_decision "gap nulled" (decide s ~has_batch:has_all)
    ~start:0
    ~chosen:[ (1, Wire.null_batch_digest); (2, d_a) ]

let test_checkpoint_selection_highest_certified () =
  let ck10 = String.make 32 'x' in
  let cset = [ (0, ck0); (10, ck10) ] in
  (* 10 is vouched by f+1 = 2 and 2f+1 have h <= 10 *)
  let s = [ vc ~cset 0; vc ~cset ~h:10 1; vc 2 ] in
  check_decision "highest checkpoint" (decide s ~has_batch:has_all)
    ~start:10 ~chosen:[]

let test_checkpoint_needs_weak_cert () =
  let ck10 = String.make 32 'x' in
  (* only one replica vouches for checkpoint 10: start stays at 0 *)
  let s = [ vc ~cset:[ (0, ck0); (10, ck10) ] 0; vc 1; vc 2 ] in
  check_decision "uncertified checkpoint skipped" (decide s ~has_batch:has_all)
    ~start:0 ~chosen:[]

let test_a3_missing_batch_waits () =
  let p = [ pe ~seq:1 ~d:d_a ~view:0 ] and q = [ qe ~seq:1 [ (d_a, 0) ] ] in
  let s = [ vc ~pset:p ~qset:q 0; vc ~pset:p ~qset:q 1; vc ~pset:p ~qset:q 2 ] in
  Alcotest.(check bool) "missing body waits" true
    (decide s ~has_batch:(fun _ -> false) = None)

let test_entries_below_h_ignored () =
  (* a prepared entry at n=5 with all h >= 5 is below the window: the
     checkpoint covers it and chosen stays empty *)
  let p = [ pe ~seq:5 ~d:d_a ~view:0 ] in
  let ck5 = String.make 32 'y' in
  let cset = [ (5, ck5) ] in
  let s = [ vc ~cset ~h:5 ~pset:p 0; vc ~cset ~h:5 1; vc ~cset ~h:5 2 ] in
  check_decision "below h ignored" (decide s ~has_batch:has_all)
    ~start:5 ~chosen:[]

(* --- the decision table of View_change --- *)

let show_step = function
  | View_change.Nothing -> "nothing"
  | Fetch ds -> "fetch " ^ String.concat "," (List.map (fun d -> String.make 1 d.[0]) ds)
  | Announce nv -> Printf.sprintf "announce %d" nv.nv_view
  | Enter nv -> Printf.sprintf "enter %d" nv.nv_view
  | Next_view v -> Printf.sprintf "next view %d" v

let step = Alcotest.(check string)

(* Checkpoint 0 held, as a started replica holds it. *)
let genesis () =
  let store = Checkpoint_store.create cfg ~page_size:4096 ~branching:16 in
  Checkpoint_store.install store (Partition_tree.build ~seq:0 ~page_size:4096 ~branching:16 "");
  store

let root = snd (List.hd (Checkpoint_store.held (genesis ())))

let peer ?(view = 1) ?(pset = []) ?(qset = []) r =
  { vc_view = view; vc_h = 0; vc_cset = [ (0, root) ]; vc_pset = pset; vc_qset = qset;
    vc_replica = r }

(* Replica [self], moved to view 1 with its own view-change, having
   received [peers]' view-changes (verified unless listed in
   [unverified]). *)
let moved ?(unverified = []) ~self peers =
  let t = View_change.create () in
  let own = View_change.start t cfg ~self ~view:1 (Log.create cfg) (genesis ()) in
  List.iter
    (fun vc ->
      match
        View_change.receive t cfg ~self ~view:1 vc
          ~verified:(not (List.mem vc.vc_replica unverified))
      with
      | View_change.Refused -> Alcotest.fail "refused"
      | Stored _ -> ())
    peers;
  (t, own)

(* Batches 1 = a, 2 = null (a gap), 3 = b, prepared at replicas 0 and 1. *)
let prepared_pset = [ pe ~seq:1 ~d:d_a ~view:0; pe ~seq:3 ~d:d_b ~view:0 ]
let prepared_qset = [ qe ~seq:1 [ (d_a, 0) ]; qe ~seq:3 [ (d_b, 0) ] ]

(* Backup 2 in view 1 and the new-view primary 1 sends from 0's, 1's and
   2's view-changes. *)
let backup ?unverified () =
  let peers = List.map (fun r -> peer ~pset:prepared_pset ~qset:prepared_qset r) [ 0; 1 ] in
  let t, own = moved ?unverified ~self:2 peers in
  let s = List.map (fun vc -> (vc.vc_replica, vc)) (peers @ [ own ]) in
  (t, Option.get (View_change.new_view_of cfg ~view:1 s ~has_batch:has_all))

let with_bodies digests =
  let rq = Request_store.create () in
  List.iter (fun d -> Request_store.store_batch rq d [] "") digests;
  rq

let check_backup t rq = show_step (View_change.check t cfg ~self:2 ~view:1 rq)

let test_backup_enters () =
  let t, nv = backup () in
  Alcotest.(check (list (pair int string))) "the new-view chooses a, null, b"
    [ (1, d_a); (2, Wire.null_batch_digest); (3, d_b) ]
    (List.map (fun c -> (c.nc_seq, c.nc_digest)) nv.nv_chosen);
  let rq = with_bodies [ d_a; d_b ] in
  step "nothing waits" "nothing" (check_backup t rq);
  View_change.offer_new_view t nv;
  Alcotest.(check bool) "not yet accepted" false (View_change.has_new_view t 1);
  step "a matching new-view: enter" "enter 1" (check_backup t rq);
  Alcotest.(check bool) "accepted" true (View_change.has_new_view t 1);
  step "and it waits no more" "nothing" (check_backup t rq)

(* The replica checks for a waiting new-view on every batch body it
   receives, so with none waiting the check must not allocate. *)
let test_nothing_waits_no_allocation () =
  let t, _ = backup () in
  let rq = with_bodies [ d_a ] in
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    match View_change.check t cfg ~self:2 ~view:1 rq with
    | View_change.Nothing -> ()
    | _ -> Alcotest.fail "something waits"
  done;
  Alcotest.(check bool) "under a word per call" true (Gc.minor_words () -. before < 1000.)

let test_backup_fetches () =
  let t, nv = backup () in
  View_change.offer_new_view t nv;
  step "both missing bodies, in order; never the null batch" "fetch a,b"
    (check_backup t (Request_store.create ()));
  step "only the one still missing" "fetch b" (check_backup t (with_bodies [ d_a ]));
  step "then enter" "enter 1" (check_backup t (with_bodies [ d_a; d_b ]))

let test_backup_wrong_o () =
  let t, nv = backup () in
  let swapped =
    List.map
      (fun c -> if c.nc_seq = 3 then { c with nc_digest = Wire.null_batch_digest } else c)
      nv.nv_chosen
  in
  View_change.offer_new_view t { nv with nv_chosen = swapped };
  step "an O set that differs from the re-derived one: the next view" "next view 2"
    (check_backup t (with_bodies [ d_a; d_b ]));
  let t, nv = backup () in
  View_change.offer_new_view t { nv with nv_start_digest = d_b };
  step "so does another start checkpoint" "next view 2" (check_backup t (with_bodies [ d_a; d_b ]))

let test_backup_stale () =
  let t, nv = backup () in
  View_change.offer_new_view t nv;
  step "a new-view for a view below ours is dropped" "nothing"
    (show_step (View_change.check t cfg ~self:2 ~view:2 (with_bodies [ d_a; d_b ])));
  step "for good" "nothing" (check_backup t (with_bodies [ d_a; d_b ]))

let test_unverified_needs_acks () =
  let t, nv = backup ~unverified:[ 0 ] () in
  View_change.offer_new_view t nv;
  let rq = with_bodies [ d_a; d_b ] in
  step "0's unverified view-change alone does not count" "nothing" (check_backup t rq);
  let digest = Wire.view_change_digest (peer ~pset:prepared_pset ~qset:prepared_qset 0) in
  let ack_from r =
    View_change.add_ack t { va_view = 1; va_replica = r; va_origin = 0; va_digest = digest }
  in
  ack_from 0;
  step "nor with an ack from its sender" "nothing" (check_backup t rq);
  ack_from 2;
  step "nor from us" "nothing" (check_backup t rq);
  ack_from 3;
  step "f = 1 ack from another replica vouches for it" "enter 1" (check_backup t rq)

let test_refused () =
  let receive ?(view = 1) vc =
    let t, _ = moved ~self:2 [] in
    match View_change.receive t cfg ~self:2 ~view vc ~verified:true with
    | View_change.Refused -> "refused"
    | Stored { ack = Some a; _ } -> Printf.sprintf "ack %d for %d" a.va_view a.va_origin
    | Stored { ack = None; _ } -> "stored"
  in
  let s = Alcotest.(check string) in
  s "a P tuple at this view" "refused" (receive (peer ~pset:[ pe ~seq:1 ~d:d_a ~view:1 ] 0));
  s "a P tuple at a later view" "refused" (receive (peer ~pset:[ pe ~seq:1 ~d:d_a ~view:2 ] 0));
  s "a Q tuple at this view" "refused"
    (receive (peer ~qset:[ qe ~seq:1 [ (d_a, 0); (d_b, 1) ] ] 0));
  s "a Q tuple at a later view" "refused" (receive (peer ~qset:[ qe ~seq:1 [ (d_a, 3) ] ] 0));
  s "an earlier view" "refused" (receive ~view:2 (peer 0));
  s "our own" "refused" (receive (peer 2));
  s "tuples of earlier views: acknowledged" "ack 1 for 0"
    (receive (peer ~pset:[ pe ~seq:1 ~d:d_a ~view:0 ] ~qset:[ qe ~seq:1 [ (d_a, 0) ] ] 0));
  let t, _ = moved ~self:2 [] in
  let acks () =
    match View_change.receive t cfg ~self:2 ~view:1 (peer 0) ~verified:true with
    | Stored { ack; _ } -> Option.is_some ack
    | Refused -> Alcotest.fail "refused"
  in
  let first = acks () in
  let second = acks () in
  Alcotest.(check (list bool)) "acknowledged once" [ true; false ] [ first; second ];
  Alcotest.(check bool) "an unverified one is not acknowledged" true
    (match View_change.receive t cfg ~self:2 ~view:1 (peer 1) ~verified:false with
    | Stored { ack = None; _ } -> true
    | _ -> false)

let test_join () =
  let t, _ = moved ~self:2 [] in
  let join vc =
    match View_change.receive t cfg ~self:2 ~view:1 vc ~verified:true with
    | Stored { join; _ } -> join
    | Refused -> Alcotest.fail "refused"
  in
  let j = Alcotest.(check (option int)) in
  j "one other replica at view 3" None (join (peer ~view:3 0));
  j "one at view 5" None (join (peer ~view:5 1));
  j "f+1 at view 5: join it" (Some 5) (join (peer ~view:5 3));
  j "f+1 at view 3 too: join the smallest" (Some 3) (join (peer ~view:3 1));
  j "a view-change for our own view joins nothing" None (join (peer ~view:1 0))

let test_primary () =
  (* primary 1 of view 1 *)
  let peers =
    List.map
      (fun r -> peer ~pset:[ pe ~seq:1 ~d:d_a ~view:0 ] ~qset:[ qe ~seq:1 [ (d_a, 0) ] ] r)
      [ 0; 2 ]
  in
  let t, _ = moved ~self:1 peers in
  let decide rq = show_step (View_change.decide t cfg ~self:1 ~view:1 rq) in
  let empty = Request_store.create () in
  step "a backup decides nothing" "nothing"
    (show_step (View_change.decide t cfg ~self:2 ~view:1 empty));
  step "S holds only our own view-change" "nothing" (decide empty);
  let ack ~origin ~from =
    View_change.add_ack t
      { va_view = 1; va_replica = from; va_origin = origin;
        va_digest = Wire.view_change_digest (List.nth peers (if origin = 0 then 0 else 1)) }
  in
  ack ~origin:0 ~from:0;
  step "an ack from the view-change's sender does not count" "nothing" (decide empty);
  ack ~origin:0 ~from:3;
  step "2f-1 acks admit 0's: S still short of a quorum" "nothing" (decide empty);
  ack ~origin:2 ~from:3;
  step "S undecided without a's body: one fetch per P entry of each view-change in S" "fetch a,a"
    (decide empty);
  step "with it: announce" "announce 1" (decide (with_bodies [ d_a ]));
  Alcotest.(check bool) "recorded as accepted" true (View_change.has_new_view t 1);
  step "and never again" "nothing" (decide (with_bodies [ d_a ]))

(* ROADMAP item 9: the QSet keeps every digest this replica pre-prepared at
   a sequence number, in any view, until a checkpoint becomes stable. Over
   k views, each pre-preparing a fresh digest at sequence number 1 with no
   checkpoint stabilizing, the Q entry grows to k digests, and so does
   every view-change that carries it. The bound of thesis Section 3.2.5
   changes only [expected]. *)
let test_qset_growth () =
  let k = 6 in
  let t = View_change.create () and store = genesis () in
  let log = Log.create cfg in
  let sizes =
    List.init k (fun v ->
        Log.clear_entries log;
        let d = Wire.batch_digest [] (string_of_int v) in
        let pp = { pp_view = v; pp_seq = 1; pp_batch = []; pp_nondet = string_of_int v } in
        ignore (Log.accept_pre_prepare log ~view:v pp d);
        Log.mark_self_preprepared log 1;
        let vc = View_change.start t cfg ~self:0 ~view:(v + 1) log store in
        List.concat_map (fun q -> q.qe_entries) vc.vc_qset |> List.length)
  in
  let expected = List.init k (fun v -> v + 1) in
  Alcotest.(check (list int)) "one more digest per view" expected sizes

let suites =
  [
    ( "core.nv_decision",
      [
        Alcotest.test_case "empty waits" `Quick test_empty_is_wait;
        Alcotest.test_case "idle quorum decides" `Quick test_quorum_no_activity_decides_empty;
        Alcotest.test_case "prepared chosen" `Quick test_prepared_request_is_chosen;
        Alcotest.test_case "A2 blocks unsupported" `Quick test_a2_blocks_unsupported_claim;
        Alcotest.test_case "B needs quorum" `Quick test_b_needs_quorum;
        Alcotest.test_case "higher view wins" `Quick test_higher_view_wins;
        Alcotest.test_case "committed survives" `Quick test_committed_request_survives;
        Alcotest.test_case "gap nulled" `Quick test_gap_filled_with_null;
        Alcotest.test_case "checkpoint selection" `Quick test_checkpoint_selection_highest_certified;
        Alcotest.test_case "checkpoint weak cert" `Quick test_checkpoint_needs_weak_cert;
        Alcotest.test_case "A3 missing batch" `Quick test_a3_missing_batch_waits;
        Alcotest.test_case "below h ignored" `Quick test_entries_below_h_ignored;
      ] );
    ( "core.view_change",
      [
        Alcotest.test_case "backup: a matching new-view enters" `Quick test_backup_enters;
        Alcotest.test_case "backup: missing bodies fetched in order" `Quick test_backup_fetches;
        Alcotest.test_case "nothing waiting: no allocation" `Quick
          test_nothing_waits_no_allocation;
        Alcotest.test_case "backup: a wrong decision moves to v+1" `Quick test_backup_wrong_o;
        Alcotest.test_case "backup: a stale new-view is dropped" `Quick test_backup_stale;
        Alcotest.test_case "unverified: f acks from others" `Quick test_unverified_needs_acks;
        Alcotest.test_case "P/Q tuples at or above the view refused" `Quick test_refused;
        Alcotest.test_case "f+1 above our view: join the smallest" `Quick test_join;
        Alcotest.test_case "primary: S, fetch, announce" `Quick test_primary;
        Alcotest.test_case "QSet grows one digest per view" `Quick test_qset_growth;
      ] );
  ]
