(* I/O is not nondeterminism: a protocol-reachable root that prints,
   tests for a file and reads a line, all through a helper, is clean *)
let report ic =
  print_endline "status";
  Printf.printf "exists: %b\n" (Sys.file_exists "state");
  In_channel.input_line ic

let handle_status ic = report ic
