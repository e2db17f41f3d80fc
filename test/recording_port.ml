(* A replica port that performs nothing and records every effect in the
   order the replica makes it, so a replica can be driven with no Network
   and no Engine: deliver with [Replica.handle], fire with
   [Replica.on_timer], and read what came out with [take]. *)

open Bft_core

type io =
  | Send of int * Message.envelope
  | Multicast of int list * Message.envelope
  | Charge of float
  | Arm of Replica.timer * float
  | Cancel of Replica.timer

type t = { mutable ios : io list; (* newest first *) mutable backlog : int }

let create () = { ios = []; backlog = 0 }
let record t io = t.ios <- io :: t.ios

let port t =
  {
    Replica.send = (fun ~dst ~size:_ env -> record t (Send (dst, env)));
    multicast = (fun ~dsts ~size:_ env -> record t (Multicast (dsts, env)));
    charge = (fun us -> record t (Charge us));
    arm = (fun _ timer ~delay_us -> record t (Arm (timer, delay_us)));
    cancel = (fun timer -> record t (Cancel timer));
    now = (fun () -> 0L);
    backlog = (fun () -> t.backlog);
    busy_until = (fun () -> 0L);
  }

(* The effects recorded since the last [take], oldest first. *)
let take t =
  let ios = List.rev t.ios in
  t.ios <- [];
  ios
