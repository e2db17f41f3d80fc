(* Status and retransmission (Section 5.2) and the performance watchdog,
   each driven as a pure module: no replica, no port. *)

open Bft_core
open Message

let cfg = Config.make ~f:1 ()
let d = String.make 32 'd'
let pp n = { pp_view = 0; pp_seq = n; pp_batch = []; pp_nondet = "n" }
let prep n r = { pr_view = 0; pr_seq = n; pr_digest = d; pr_replica = r }
let com n r = { cm_view = 0; cm_seq = n; cm_digest = d; cm_replica = r }

let show = function
  | Pre_prepare p -> Printf.sprintf "pre-prepare %d" p.pp_seq
  | Prepare p -> Printf.sprintf "prepare %d" p.pr_seq
  | Commit c -> Printf.sprintf "commit %d" c.cm_seq
  | Checkpoint c -> Printf.sprintf "checkpoint %d" c.ck_seq
  | View_change vc -> Printf.sprintf "view-change %d from %d" vc.vc_view vc.vc_replica
  | View_change_ack a -> Printf.sprintf "ack %d for %d" a.va_view a.va_origin
  | New_view nv -> Printf.sprintf "new-view %d" nv.nv_view
  | m -> Message.tag m

(* Seqnos 1-3 pre-prepared in view 0, each with [self]'s own votes: a
   prepare unless [self] is the primary, and a commit. *)
let own_log ~self =
  let log = Log.create cfg in
  List.iter
    (fun n ->
      ignore (Log.accept_pre_prepare log ~view:0 (pp n) d);
      if self <> 0 then Log.add_prepare log (prep n self);
      Log.add_commit log (com n self))
    [ 1; 2; 3 ];
  log

let ckpts () = Checkpoint_store.create cfg ~page_size:4096 ~branching:16

let active ?(view = 0) ?(h = 0) ?(prepared = []) ?(committed = []) () =
  {
    sa_replica = 2;
    sa_view = view;
    sa_h = h;
    sa_last_exec = h;
    sa_prepared = prepared;
    sa_committed = committed;
  }

let answer ?(view = 0) ?(vc = View_change.create ()) ?(ckpts = ckpts ()) ~self log s =
  List.map show (Retransmission.answer_active cfg ~self ~view ~active:true log vc ckpts s)

let test_claims () =
  Alcotest.(check (list string))
    "unclaimed: prepare and commit; claimed prepared: commit; claimed committed: nothing"
    [ "prepare 1"; "commit 1"; "commit 2" ]
    (answer ~self:1 (own_log ~self:1) (active ~prepared:[ 2 ] ~committed:[ 3 ] ()));
  Alcotest.(check (list string)) "nothing at or below the peer's low mark" [ "commit 2" ]
    (answer ~self:1 (own_log ~self:1) (active ~h:1 ~prepared:[ 2 ] ~committed:[ 3 ] ()))

let test_pre_prepare_from_primary () =
  Alcotest.(check (list string)) "the view's primary re-sends its pre-prepare"
    [ "pre-prepare 1"; "commit 1"; "commit 2" ]
    (answer ~self:0 (own_log ~self:0) (active ~prepared:[ 2 ] ~committed:[ 3 ] ()));
  Alcotest.(check bool) "a backup never does" false
    (List.exists
       (fun m -> String.starts_with ~prefix:"pre-prepare" m)
       (answer ~self:1 (own_log ~self:1) (active ())))

let test_peer_behind_view () =
  let vc = View_change.create () in
  ignore (View_change.start vc cfg ~self:1 ~view:1 (Log.create cfg) (ckpts ()));
  Alcotest.(check (list string)) "our view-change, and no window" [ "view-change 1 from 1" ]
    (answer ~view:1 ~vc ~self:1 (own_log ~self:1) (active ()))

let test_stable_checkpoint () =
  let store = ckpts () in
  let tree = Partition_tree.build ~seq:10 ~page_size:4096 ~branching:16 "state" in
  Checkpoint_store.install store tree;
  List.iter
    (fun r -> Checkpoint_store.add_message store (Checkpoint_store.message tree ~replica:r))
    [ 0; 1; 2 ];
  ignore (Checkpoint_store.try_stabilize store);
  Alcotest.(check int) "stable at 10" 10 (Checkpoint_store.stable_seq store);
  Alcotest.(check (list string)) "sa_h below it: our checkpoint message" [ "checkpoint 10" ]
    (answer ~ckpts:store ~self:1 (Log.create cfg) (active ~h:5 ()));
  Alcotest.(check (list string)) "sa_h at it: nothing" []
    (answer ~ckpts:store ~self:1 (Log.create cfg) (active ~h:10 ()))

let test_understate () =
  (* seq 1 committed, seq 2 prepared, seq 3 only pre-prepared *)
  let log = Log.create cfg in
  List.iter (fun n -> ignore (Log.accept_pre_prepare log ~view:0 (pp n) d)) [ 1; 2; 3 ];
  List.iter (fun n -> List.iter (fun r -> Log.add_prepare log (prep n r)) [ 1; 2 ]) [ 1; 2 ];
  List.iter (fun r -> Log.add_commit log (com 1 r)) [ 0; 1; 2 ];
  let vc = View_change.create () in
  let status understate =
    Retransmission.status ~self:1 ~view:0 ~active:true ~understate ~last_exec:3 log vc
  in
  (match status false with
  | Status_active s ->
      Alcotest.(check (list int)) "prepared" [ 2 ] s.sa_prepared;
      Alcotest.(check (list int)) "committed" [ 1 ] s.sa_committed;
      Alcotest.(check int) "last executed" 3 s.sa_last_exec
  | _ -> Alcotest.fail "not a status-active");
  (match status true with
  | Status_active s ->
      Alcotest.(check (list int)) "wrong_mac: nothing prepared" [] s.sa_prepared;
      Alcotest.(check (list int)) "nothing committed" [] s.sa_committed;
      Alcotest.(check int) "nothing executed past the low mark" 0 s.sa_last_exec
  | _ -> Alcotest.fail "not a status-active");
  match Retransmission.status ~self:1 ~view:0 ~active:false ~understate:false ~last_exec:3 log vc with
  | Status_pending s -> Alcotest.(check int) "inactive: status-pending" 3 s.sp_last_exec
  | _ -> Alcotest.fail "not a status-pending"

(* Replica 1, primary of view 1, holds its own view-change, 2's and 3's,
   its acks of both, and the new-view it sent. *)
let test_pending () =
  let vc = View_change.create () and store = ckpts () in
  Checkpoint_store.install store (Partition_tree.build ~seq:0 ~page_size:4096 ~branching:16 "");
  ignore (View_change.start vc cfg ~self:1 ~view:1 (Log.create cfg) store);
  let vc_of r =
    { vc_view = 1; vc_h = 0; vc_cset = Checkpoint_store.held store; vc_pset = []; vc_qset = [];
      vc_replica = r }
  in
  List.iter
    (fun r ->
      ignore (View_change.receive vc cfg ~self:1 ~view:1 (vc_of r) ~verified:true);
      (* 2f-1 = 1 ack from another replica puts it in S *)
      View_change.add_ack vc
        { va_view = 1; va_replica = 5 - r; va_origin = r;
          va_digest = Wire.view_change_digest (vc_of r) })
    [ 2; 3 ];
  (match View_change.decide vc cfg ~self:1 ~view:1 (Request_store.create ()) with
  | View_change.Announce _ -> ()
  | _ -> Alcotest.fail "no new-view");
  let answer ~view ~seen ~has_nv =
    List.map show
      (Retransmission.answer_pending cfg ~self:1 ~view:1 vc
         {
           sp_replica = 2;
           sp_view = view;
           sp_h = 0;
           sp_last_exec = 0;
           sp_has_new_view = has_nv;
           sp_vcs_seen = seen;
         })
  in
  Alcotest.(check (list string)) "acks, the new-view and the view-changes the peer lacks"
    [ "ack 1 for 3"; "new-view 1"; "view-change 1 from 3" ]
    (answer ~view:1 ~seen:[ 1; 2 ] ~has_nv:false);
  Alcotest.(check (list string)) "a peer holding the new-view gets only acks" [ "ack 1 for 3" ]
    (answer ~view:1 ~seen:[ 1; 2 ] ~has_nv:true);
  Alcotest.(check (list string)) "our view-change first when the peer lacks it"
    [ "view-change 1 from 1"; "ack 1 for 3" ]
    (answer ~view:1 ~seen:[ 2 ] ~has_nv:true);
  Alcotest.(check (list string)) "a peer behind our view is pulled forward"
    [ "view-change 1 from 1" ]
    (answer ~view:0 ~seen:[ 0; 1; 2; 3 ] ~has_nv:false)

(* --- the performance watchdog --- *)

let watched = Config.make ~f:1 ~perf_watchdog:true ()

let samples w =
  let b = Buffer.create 16 in
  Perf_watchdog.digest w b;
  Buffer.contents b

(* One execution [lat_us] after an arrival at [now - lat_us]. *)
let note ?(view = 0) ?(primary = false) ?(active = true) w ~now ~lat_us =
  let now = Int64.of_int now in
  Perf_watchdog.note w ~now ~arrival:(Int64.sub now (Int64.of_int (lat_us * 1000))) ~view
    ~primary ~active

let test_silent_until_trusted () =
  let w = Perf_watchdog.create watched in
  for i = 1 to 7 do
    Alcotest.(check bool) "silent" false (note w ~now:(i * 1_000_000) ~lat_us:(100 * i * i))
  done;
  Alcotest.(check string) "7 samples" "|perf=7:-1" (samples w);
  let p = Perf_watchdog.create watched in
  for i = 1 to 20 do
    Alcotest.(check bool) "the primary: silent" false
      (note p ~primary:true ~now:(i * 1_000_000) ~lat_us:(if i > 10 then 100_000 else 100))
  done;
  Alcotest.(check string) "and feeds nothing" "|perf=0:-1" (samples p);
  let off = Perf_watchdog.create cfg in
  for i = 1 to 20 do
    Alcotest.(check bool) "off: silent" false
      (note off ~now:(i * 1_000_000) ~lat_us:(if i > 10 then 100_000 else 100))
  done;
  Alcotest.(check string) "and feeds nothing" "|perf=0:-1" (samples off)

let test_fires_once_per_view () =
  let w = Perf_watchdog.create watched in
  for i = 1 to 8 do
    ignore (note w ~now:(i * 1_000_000) ~lat_us:100)
  done;
  Alcotest.(check (float 1e-9)) "baseline" 100.0 (Perf_watchdog.baseline_us w);
  Alcotest.(check bool) "5x the baseline: silent" false (note w ~now:9_000_000 ~lat_us:500);
  Alcotest.(check bool) "inactive: silent" false
    (note w ~active:false ~now:10_000_000 ~lat_us:10_000);
  Alcotest.(check bool) "past 6x: fires" true (note w ~now:11_000_000 ~lat_us:10_000);
  Alcotest.(check bool) "once per view" false (note w ~now:12_000_000 ~lat_us:10_000);
  Alcotest.(check bool) "and again in the next view" true
    (note w ~view:1 ~now:13_000_000 ~lat_us:10_000);
  Alcotest.(check string) "fired in view 1" "|perf=13:1" (samples w)

let test_epoch () =
  let w = Perf_watchdog.create watched in
  for i = 1 to 8 do
    ignore (note w ~now:(i * 1_000_000) ~lat_us:100)
  done;
  Perf_watchdog.new_epoch w ~now:20_000_000L;
  Alcotest.(check string) "a new epoch starts counting again" "|perf=0:-1" (samples w);
  Alcotest.(check bool) "an arrival before the view began is ignored" false
    (note w ~view:1 ~now:21_000_000 ~lat_us:10_000);
  Alcotest.(check string) "not counted" "|perf=0:-1" (samples w);
  ignore (note w ~view:1 ~now:21_000_000 ~lat_us:100);
  Alcotest.(check string) "a later one is" "|perf=1:-1" (samples w);
  Alcotest.(check (float 1e-9)) "the baseline survives the epoch" 100.0 (Perf_watchdog.baseline_us w);
  Perf_watchdog.reset w ~now:30_000_000L;
  Alcotest.(check (float 1e-9)) "a reboot forgets it" 0.0 (Perf_watchdog.baseline_us w)

let suites =
  [
    ( "retransmission",
      [
        Alcotest.test_case "own messages per claim" `Quick test_claims;
        Alcotest.test_case "pre-prepare only from its view's primary" `Quick
          test_pre_prepare_from_primary;
        Alcotest.test_case "peer behind our view gets our view-change" `Quick test_peer_behind_view;
        Alcotest.test_case "peer behind our stable checkpoint" `Quick test_stable_checkpoint;
        Alcotest.test_case "status body, understated under wrong_mac" `Quick test_understate;
        Alcotest.test_case "pending peer's answers" `Quick test_pending;
      ] );
    ( "perf_watchdog",
      [
        Alcotest.test_case "silent before 8 samples and for the primary" `Quick
          test_silent_until_trusted;
        Alcotest.test_case "fires once per view past 6x the baseline" `Quick
          test_fires_once_per_view;
        Alcotest.test_case "a new epoch ignores earlier arrivals" `Quick test_epoch;
      ] );
  ]
