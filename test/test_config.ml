(* Configuration invariants: quorum arithmetic, primary rotation, windows. *)

open Bft_core

let test_group_sizes () =
  List.iter
    (fun f ->
      let cfg = Config.make ~f () in
      Alcotest.(check int) (Printf.sprintf "n for f=%d" f) ((3 * f) + 1) cfg.Config.n;
      Alcotest.(check int) "quorum" ((2 * f) + 1) (Config.quorum cfg);
      Alcotest.(check int) "weak" (f + 1) (Config.weak cfg);
      (* quorum intersection: any two quorums share >= f+1 replicas, so at
         least one correct one (Section 2.3.1) *)
      Alcotest.(check bool) "intersection has a correct replica" true
        ((2 * Config.quorum cfg) - cfg.Config.n >= f + 1);
      (* availability: a quorum exists among the n - f non-faulty replicas *)
      Alcotest.(check bool) "availability" true (cfg.Config.n - f >= Config.quorum cfg))
    [ 1; 2; 3; 4; 10 ]

let test_primary_rotation () =
  let cfg = Config.make ~f:1 () in
  Alcotest.(check int) "view 0" 0 (Config.primary cfg ~view:0);
  Alcotest.(check int) "view 3" 3 (Config.primary cfg ~view:3);
  Alcotest.(check int) "view 4 wraps" 0 (Config.primary cfg ~view:4);
  (* the primary cannot be the same replica for more than 1 consecutive
     view in a 4-replica group *)
  Alcotest.(check bool) "rotation" true
    (Config.primary cfg ~view:7 <> Config.primary cfg ~view:8);
  Alcotest.(check bool) "is_primary" true (Config.is_primary cfg ~view:5 ~id:1)

let test_in_window () =
  let cfg = Config.make ~f:1 ~checkpoint_interval:10 () in
  Alcotest.(check int) "default log size 2K" 20 cfg.Config.log_size;
  Alcotest.(check bool) "h excluded" false (Config.in_window cfg ~h:5 5);
  Alcotest.(check bool) "h+1" true (Config.in_window cfg ~h:5 6);
  Alcotest.(check bool) "h+L" true (Config.in_window cfg ~h:5 25);
  Alcotest.(check bool) "h+L+1" false (Config.in_window cfg ~h:5 26)

let test_validation () =
  Alcotest.check_raises "f >= 1" (Invalid_argument "Config.make: f must be >= 1") (fun () ->
      ignore (Config.make ~f:0 ()));
  (* replicas divide by the checkpoint interval, and a zero batch or
     window orders nothing *)
  List.iter
    (fun (field, make) ->
      Alcotest.check_raises field
        (Invalid_argument (Printf.sprintf "Config.make: %s must be >= 1" field))
        (fun () -> ignore (make ())))
    [
      ("checkpoint_interval", fun () -> Config.make ~f:1 ~checkpoint_interval:0 ~log_size:16 ());
      ("max_batch", fun () -> Config.make ~f:1 ~max_batch:0 ());
      ("window", fun () -> Config.make ~f:1 ~window:0 ());
      ("window", fun () -> Config.make ~f:1 ~window:(-1) ());
    ];
  (* a timer period of zero re-arms at the same virtual instant forever *)
  List.iter
    (fun (field, make) ->
      Alcotest.check_raises field
        (Invalid_argument (Printf.sprintf "Config.make: %s must be finite and > 0" field))
        (fun () -> ignore (make ())))
    [
      ("client_retry_us", fun () -> Config.make ~f:1 ~client_retry_us:0.0 ());
      ("client_retry_max_us", fun () -> Config.make ~f:1 ~client_retry_max_us:(-1.0) ());
      ("vc_timeout_us", fun () -> Config.make ~f:1 ~vc_timeout_us:0.0 ());
      ("vc_timeout_us", fun () -> Config.make ~f:1 ~vc_timeout_us:Float.nan ());
      ("status_interval_us", fun () -> Config.make ~f:1 ~status_interval_us:0.0 ());
      ("status_interval_us", fun () -> Config.make ~f:1 ~status_interval_us:Float.infinity ());
      ("watchdog_period_us", fun () -> Config.make ~f:1 ~watchdog_period_us:(-0.5) ());
      ("key_refresh_us", fun () -> Config.make ~f:1 ~key_refresh_us:0.0 ());
    ];
  Alcotest.check_raises "log size"
    (Invalid_argument "Config.make: log_size must be >= checkpoint_interval") (fun () ->
      ignore (Config.make ~f:1 ~checkpoint_interval:10 ~log_size:5 ()))

let test_replica_ids () =
  let cfg = Config.make ~f:2 () in
  Alcotest.(check (list int)) "ids" [ 0; 1; 2; 3; 4; 5; 6 ] (Config.replica_ids cfg)

let suites =
  [
    ( "core.config",
      [
        Alcotest.test_case "group sizes" `Quick test_group_sizes;
        Alcotest.test_case "primary rotation" `Quick test_primary_rotation;
        Alcotest.test_case "in window" `Quick test_in_window;
        Alcotest.test_case "validation" `Quick test_validation;
        Alcotest.test_case "replica ids" `Quick test_replica_ids;
      ] );
  ]
