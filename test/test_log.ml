(* Message log: water marks, certificates, garbage collection. *)

open Bft_core
open Message

let cfg = Config.make ~f:1 ~checkpoint_interval:10 ()

(* a small window, so random seqnos wrap the ring and leave the window *)
let qcfg = Config.make ~f:1 ~checkpoint_interval:4 ()
let d1 = String.make 32 'a'
let d2 = String.make 32 'b'

let pp ?(view = 0) seq = { pp_view = view; pp_seq = seq; pp_batch = []; pp_nondet = "n" }
let prep ?(view = 0) ~seq ~d i = { pr_view = view; pr_seq = seq; pr_digest = d; pr_replica = i }
let com ?(view = 0) ~seq ~d i = { cm_view = view; cm_seq = seq; cm_digest = d; cm_replica = i }

let test_window () =
  let log = Log.create cfg in
  Alcotest.(check bool) "0 outside" false (Log.in_window log 0);
  Alcotest.(check bool) "1 inside" true (Log.in_window log 1);
  Alcotest.(check bool) "L inside" true (Log.in_window log cfg.Config.log_size);
  Alcotest.(check bool) "L+1 outside" false (Log.in_window log (cfg.Config.log_size + 1));
  Alcotest.check_raises "pre-prepare outside"
    (Invalid_argument "Log: seq 0 outside window (h=0)") (fun () ->
      ignore (Log.accept_pre_prepare log ~view:0 (pp 0) d1))

let test_accept_pre_prepare_conflict () =
  let log = Log.create cfg in
  Alcotest.(check bool) "first accept" true (Log.accept_pre_prepare log ~view:0 (pp 1) d1);
  Alcotest.(check bool) "same digest idempotent" true
    (Log.accept_pre_prepare log ~view:0 (pp 1) d1);
  Alcotest.(check bool) "conflicting digest rejected" false
    (Log.accept_pre_prepare log ~view:0 (pp 1) d2);
  (* a later view may rebind the sequence number *)
  Alcotest.(check bool) "new view may rebind" true
    (Log.accept_pre_prepare log ~view:1 (pp ~view:1 1) d2)

let test_prepared_certificate () =
  let log = Log.create cfg in
  ignore (Log.accept_pre_prepare log ~view:0 (pp 1) d1);
  Alcotest.(check bool) "not prepared yet" false (Log.prepared log ~view:0 ~seq:1);
  Log.add_prepare log (prep ~seq:1 ~d:d1 1);
  Alcotest.(check bool) "one prepare insufficient" false (Log.prepared log ~view:0 ~seq:1);
  Log.add_prepare log (prep ~seq:1 ~d:d1 2);
  Alcotest.(check bool) "2f matching prepares" true (Log.prepared log ~view:0 ~seq:1)

let test_prepared_requires_matching_digest_and_view () =
  let log = Log.create cfg in
  ignore (Log.accept_pre_prepare log ~view:0 (pp 1) d1);
  Log.add_prepare log (prep ~seq:1 ~d:d2 1);
  Log.add_prepare log (prep ~seq:1 ~d:d1 2);
  Alcotest.(check bool) "digest mismatch does not count" false (Log.prepared log ~view:0 ~seq:1);
  Log.add_prepare log (prep ~view:1 ~seq:1 ~d:d1 3);
  Alcotest.(check bool) "view mismatch does not count" false (Log.prepared log ~view:0 ~seq:1)

let test_primary_prepare_does_not_count () =
  let log = Log.create cfg in
  ignore (Log.accept_pre_prepare log ~view:0 (pp 1) d1);
  (* replica 0 is the primary of view 0; its prepares must be ignored *)
  Log.add_prepare log (prep ~seq:1 ~d:d1 0);
  Log.add_prepare log (prep ~seq:1 ~d:d1 1);
  Alcotest.(check bool) "primary prepare ignored" false (Log.prepared log ~view:0 ~seq:1)

let test_committed_certificate () =
  let log = Log.create cfg in
  ignore (Log.accept_pre_prepare log ~view:0 (pp 1) d1);
  Log.add_prepare log (prep ~seq:1 ~d:d1 1);
  Log.add_prepare log (prep ~seq:1 ~d:d1 2);
  Log.add_commit log (com ~seq:1 ~d:d1 0);
  Log.add_commit log (com ~seq:1 ~d:d1 1);
  Alcotest.(check bool) "2 commits insufficient" false (Log.committed log ~view:0 ~seq:1);
  Log.add_commit log (com ~seq:1 ~d:d1 2);
  Alcotest.(check bool) "2f+1 commits" true (Log.committed log ~view:0 ~seq:1);
  Alcotest.(check (pair int int)) "counts" (2, 3) (Log.counts log ~seq:1)

let test_commit_digest_mismatch () =
  let log = Log.create cfg in
  ignore (Log.accept_pre_prepare log ~view:0 (pp 1) d1);
  Log.add_prepare log (prep ~seq:1 ~d:d1 1);
  Log.add_prepare log (prep ~seq:1 ~d:d1 2);
  Log.add_commit log (com ~seq:1 ~d:d2 0);
  Log.add_commit log (com ~seq:1 ~d:d2 1);
  Log.add_commit log (com ~seq:1 ~d:d2 2);
  Alcotest.(check bool) "mismatching commits do not commit" false
    (Log.committed log ~view:0 ~seq:1)

let test_early_prepare_creates_entry () =
  let log = Log.create cfg in
  Log.add_prepare log (prep ~seq:3 ~d:d1 1);
  Alcotest.(check bool) "entry exists" true (Log.entry log 3 <> None);
  ignore (Log.accept_pre_prepare log ~view:0 (pp 3) d1);
  Log.add_prepare log (prep ~seq:3 ~d:d1 2);
  Alcotest.(check bool) "prepared with early prepare" true (Log.prepared log ~view:0 ~seq:3)

let test_truncate () =
  let log = Log.create cfg in
  for n = 1 to 15 do
    ignore (Log.accept_pre_prepare log ~view:0 (pp n) d1)
  done;
  Log.truncate log 10;
  Alcotest.(check int) "low mark" 10 (Log.low_mark log);
  Alcotest.(check bool) "10 dropped" true (Log.entry log 10 = None);
  Alcotest.(check bool) "11 kept" true (Log.entry log 11 <> None);
  Alcotest.(check bool) "window shifted" true (Log.in_window log (10 + cfg.Config.log_size));
  (* truncation never moves backwards *)
  Log.truncate log 5;
  Alcotest.(check int) "no backward truncate" 10 (Log.low_mark log)

let test_iter_window_ordered () =
  let log = Log.create cfg in
  List.iter (fun n -> ignore (Log.accept_pre_prepare log ~view:0 (pp n) d1)) [ 5; 2; 9 ];
  let seen = ref [] in
  Log.iter_window log (fun e -> seen := e.Log.seq :: !seen);
  Alcotest.(check (list int)) "ascending" [ 2; 5; 9 ] (List.rev !seen)

let test_clear_entries () =
  let log = Log.create cfg in
  Log.truncate log 7;
  ignore (Log.accept_pre_prepare log ~view:0 (pp 8) d1);
  Log.clear_entries log;
  Alcotest.(check bool) "entries gone" true (Log.entry log 8 = None);
  Alcotest.(check int) "low mark kept" 7 (Log.low_mark log)

(* --- equivalence with a reference model --- *)

(* The log as association lists: entries keyed by sequence number, votes
   keyed by replica, a window check on every access. Votes from ids outside
   [0, n) and out-of-window seqnos are dropped; a pre-prepare outside the
   window is refused. *)
module Model = struct
  type entry = {
    mutable pp_digest : string option;
    mutable pp_view : int;
    mutable prepares : (int * (int * string)) list;
    mutable commits : (int * (int * string)) list;
  }

  type t = { mutable h : int; mutable entries : (int * entry) list }

  let create () = { h = 0; entries = [] }
  let in_window m n = Config.in_window qcfg ~h:m.h n
  let entry m n = if in_window m n then List.assoc_opt n m.entries else None

  let find m n =
    match List.assoc_opt n m.entries with
    | Some e -> e
    | None ->
        let e = { pp_digest = None; pp_view = -1; prepares = []; commits = [] } in
        m.entries <- (n, e) :: m.entries;
        e

  let accept m ~view ~seq d =
    if not (in_window m seq) then None
    else
      let e = find m seq in
      match e.pp_digest with
      | Some d' when e.pp_view = view && not (String.equal d' d) -> Some false
      | _ ->
          e.pp_digest <- Some d;
          e.pp_view <- view;
          Some true

  let takes_vote m ~seq r = in_window m seq && r >= 0 && r < qcfg.Config.n

  let add_prepare m ~view ~seq ~d r =
    if takes_vote m ~seq r then begin
      let e = find m seq in
      e.prepares <- (r, (view, d)) :: List.remove_assoc r e.prepares
    end

  let add_commit m ~view ~seq ~d r =
    if takes_vote m ~seq r then begin
      let e = find m seq in
      e.commits <- (r, (view, d)) :: List.remove_assoc r e.commits
    end

  let prepared m ~view ~seq =
    match entry m seq with
    | Some { pp_digest = Some d; pp_view; prepares; _ } when pp_view = view ->
        let primary = Config.primary qcfg ~view in
        List.length
          (List.filter
             (fun (r, (v, d')) -> r <> primary && v = view && String.equal d' d)
             prepares)
        >= 2 * qcfg.Config.f
    | _ -> false

  let commit_count m ~seq d =
    match entry m seq with
    | None -> 0
    | Some e -> List.length (List.filter (fun (_, (_, d')) -> String.equal d' d) e.commits)

  let committed m ~view ~seq =
    prepared m ~view ~seq
    &&
    match entry m seq with
    | Some { pp_digest = Some d; _ } -> commit_count m ~seq d >= Config.quorum qcfg
    | _ -> false

  let truncate m n =
    if n > m.h then begin
      m.h <- n;
      m.entries <- List.filter (fun (s, _) -> s > n) m.entries
    end

  let window m = List.sort Int.compare (List.map fst m.entries)
end

type op =
  | Pp of int * int * int (* view, seq, digest *)
  | Prep of int * int * int * int (* view, seq, digest, replica *)
  | Com of int * int * int * int
  | Trunc of int
  | Clear

let show_op = function
  | Pp (v, n, d) -> Printf.sprintf "pp(v%d,n%d,d%d)" v n d
  | Prep (v, n, d, r) -> Printf.sprintf "prep(v%d,n%d,d%d,r%d)" v n d r
  | Com (v, n, d, r) -> Printf.sprintf "com(v%d,n%d,d%d,r%d)" v n d r
  | Trunc n -> Printf.sprintf "trunc(%d)" n
  | Clear -> "clear"

let digests = [| d1; d2 |]

(* seqnos reach past the window and below the low mark, ids past [0, n) *)
let gen_op =
  QCheck.Gen.(
    let view = int_range 0 2 and seq = int_range (-1) 30 and d = int_range 0 1 in
    let replica = int_range (-1) (qcfg.Config.n + 1) in
    frequency
      [
        (3, map3 (fun v n d -> Pp (v, n, d)) view seq d);
        (6, map2 (fun (v, n) (d, r) -> Prep (v, n, d, r)) (pair view seq) (pair d replica));
        (6, map2 (fun (v, n) (d, r) -> Com (v, n, d, r)) (pair view seq) (pair d replica));
        (1, map (fun n -> Trunc n) (int_range 0 24));
        (1, return Clear);
      ])

let votes a =
  Array.to_list a |> List.mapi (fun r v -> Option.map (fun v -> (r, v)) v) |> List.filter_map Fun.id

let prop_log_matches_model =
  QCheck.Test.make ~name:"log agrees with association-list model" ~count:500
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_op ops))
       QCheck.Gen.(list_size (int_range 0 80) gen_op))
    (fun ops ->
      let log = Log.create qcfg and m = Model.create () in
      let agree () =
        for seq = -1 to 32 do
          for view = 0 to 2 do
            if Log.prepared log ~view ~seq <> Model.prepared m ~view ~seq then
              QCheck.Test.fail_reportf "prepared v%d n%d" view seq;
            if Log.committed log ~view ~seq <> Model.committed m ~view ~seq then
              QCheck.Test.fail_reportf "committed v%d n%d" view seq
          done;
          let model_commits =
            match Model.entry m seq with
            | Some { pp_digest = Some d; _ } -> Model.commit_count m ~seq d
            | _ -> 0
          in
          if snd (Log.counts log ~seq) <> model_commits then
            QCheck.Test.fail_reportf "commit count n%d" seq;
          let real =
            Option.map
              (fun e -> (e.Log.pp_digest, e.Log.pp_view, votes e.Log.prepares, votes e.Log.commits))
              (Log.entry log seq)
          and model =
            Option.map
              (fun (e : Model.entry) ->
                ( e.pp_digest,
                  e.pp_view,
                  List.sort compare e.prepares,
                  List.sort compare e.commits ))
              (Model.entry m seq)
          in
          if real <> model then QCheck.Test.fail_reportf "entry n%d" seq
        done;
        let seqs = ref [] in
        Log.iter_window log (fun e -> seqs := e.Log.seq :: !seqs);
        if List.rev !seqs <> Model.window m then QCheck.Test.fail_reportf "iter_window order"
      in
      List.iter
        (fun op ->
          (match op with
          | Pp (view, seq, d) ->
              let real =
                match Log.accept_pre_prepare log ~view (pp ~view seq) digests.(d) with
                | ok -> Some ok
                | exception Invalid_argument _ -> None
              in
              if real <> Model.accept m ~view ~seq digests.(d) then
                QCheck.Test.fail_reportf "accept_pre_prepare %s" (show_op op)
          | Prep (view, seq, d, r) ->
              Log.add_prepare log (prep ~view ~seq ~d:digests.(d) r);
              Model.add_prepare m ~view ~seq ~d:digests.(d) r
          | Com (view, seq, d, r) ->
              Log.add_commit log (com ~view ~seq ~d:digests.(d) r);
              Model.add_commit m ~view ~seq ~d:digests.(d) r
          | Trunc n ->
              Log.truncate log n;
              Model.truncate m n
          | Clear ->
              Log.clear_entries log;
              m.entries <- []);
          agree ())
        ops;
      true)

(* The counts [prepared] and [committed] read, kept as votes arrive, equal
   a recount over the entry's votes after every step: pre-prepares
   (a later view rebinding a seqno included), replaced votes, votes out of
   the window or from ids outside [0, n), truncation and clearing. *)
let prop_counts_match_recount =
  QCheck.Test.make ~name:"vote counts match a recount" ~count:500
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_op ops))
       QCheck.Gen.(list_size (int_range 0 80) gen_op))
    (fun ops ->
      let log = Log.create qcfg in
      let recount seq =
        match Log.entry log seq with
        | None -> (0, 0)
        | Some { Log.pp_digest = None; _ } -> (0, 0)
        | Some ({ Log.pp_digest = Some d; _ } as e) ->
            let primary = Config.primary qcfg ~view:e.Log.pp_view in
            let count p a = List.length (List.filter p (votes a)) in
            ( count
                (fun (r, (v, d')) -> r <> primary && v = e.Log.pp_view && String.equal d' d)
                e.Log.prepares,
              count (fun (_, (_, d')) -> String.equal d' d) e.Log.commits )
      in
      List.iter
        (fun op ->
          (match op with
          | Pp (view, seq, d) -> (
              try ignore (Log.accept_pre_prepare log ~view (pp ~view seq) digests.(d))
              with Invalid_argument _ -> ())
          | Prep (view, seq, d, r) -> Log.add_prepare log (prep ~view ~seq ~d:digests.(d) r)
          | Com (view, seq, d, r) -> Log.add_commit log (com ~view ~seq ~d:digests.(d) r)
          | Trunc n -> Log.truncate log n
          | Clear -> Log.clear_entries log);
          for seq = -1 to 32 do
            if Log.counts log ~seq <> recount seq then
              QCheck.Test.fail_reportf "counts n%d after %s" seq (show_op op)
          done)
        ops;
      true)

(* --- status claims --- *)

(* Reference: [List.mem] over the raw lists. The lists are shaped as a
   Byzantine peer may send them: duplicates, any order, negative and
   out-of-window seqnos, longer than the window. *)
let prop_claims_match_list_mem =
  let gen =
    QCheck.Gen.(
      let seqs = list_size (int_range 0 (3 * qcfg.Config.log_size)) (int_range (-5) 40) in
      triple (int_range 0 20) seqs seqs)
  in
  QCheck.Test.make ~name:"status claims match the List.mem rule" ~count:500
    (QCheck.make ~print:QCheck.Print.(triple int (list int) (list int)) gen)
    (fun (h, prepared, committed) ->
      let log = Log.create qcfg in
      Log.truncate log h;
      let claim = Log.claims log ~prepared ~committed in
      let expected n =
        if not (Log.in_window log n) then Log.Unclaimed
        else if List.mem n committed then Log.Claimed_committed
        else if List.mem n prepared then Log.Claimed_prepared
        else Log.Unclaimed
      in
      List.for_all (fun n -> claim n = expected n) (List.init 50 (fun i -> i - 5)))

let suites =
  [
    ( "core.log",
      [
        Alcotest.test_case "window" `Quick test_window;
        Alcotest.test_case "pre-prepare conflict" `Quick test_accept_pre_prepare_conflict;
        Alcotest.test_case "prepared certificate" `Quick test_prepared_certificate;
        Alcotest.test_case "prepared digest/view match" `Quick test_prepared_requires_matching_digest_and_view;
        Alcotest.test_case "primary prepare ignored" `Quick test_primary_prepare_does_not_count;
        Alcotest.test_case "committed certificate" `Quick test_committed_certificate;
        Alcotest.test_case "commit digest mismatch" `Quick test_commit_digest_mismatch;
        Alcotest.test_case "early prepare" `Quick test_early_prepare_creates_entry;
        Alcotest.test_case "truncate" `Quick test_truncate;
        Alcotest.test_case "iter ordered" `Quick test_iter_window_ordered;
        Alcotest.test_case "clear entries" `Quick test_clear_entries;
        QCheck_alcotest.to_alcotest prop_log_matches_model;
        QCheck_alcotest.to_alcotest prop_counts_match_recount;
        QCheck_alcotest.to_alcotest prop_claims_match_list_mem;
      ] );
  ]
