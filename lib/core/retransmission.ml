[@@@lint.protocol_core]
open Message

(* sa_prepared: prepared but not committed; sa_committed: committed. The
   understatement (mac_storm) claims an empty window and nothing executed,
   so every peer re-sends its whole window to us at each status beat (the
   amplification the per-peer retransmission budget bounds). *)
let status ~self ~view ~active ~understate ~last_exec log vc =
  let h = Log.low_mark log in
  if active then begin
    let prepared = ref [] and committed = ref [] in
    if not understate then
      Log.iter_window log (fun { Log.seq; _ } ->
          if Log.committed log ~view ~seq then committed := seq :: !committed
          else if Log.prepared log ~view ~seq then prepared := seq :: !prepared);
    let sa_last_exec = if understate then h else last_exec in
    Status_active
      { sa_replica = self; sa_view = view; sa_h = h; sa_last_exec; sa_prepared = !prepared;
        sa_committed = !committed }
  end
  else
    Status_pending
      { sp_replica = self; sp_view = view; sp_h = h; sp_last_exec = last_exec;
        sp_has_new_view = View_change.has_new_view vc view;
        sp_vcs_seen = View_change.senders vc view }

let answer_active cfg ~self ~view ~active log vc ckpts (s : status_active) =
  let out = ref [] in
  let send m = out := m :: !out in
  if s.sa_view < view then
    (* bring the peer to our view *)
    Option.iter (fun m -> send (View_change m)) (View_change.my_vc vc view)
  else if s.sa_view = view && active then begin
    (* our own protocol messages the peer is missing *)
    let claim = Log.claims log ~prepared:s.sa_prepared ~committed:s.sa_committed in
    Log.iter_window log (fun e ->
        let n = e.Log.seq in
        if n > s.sa_h && Option.is_some e.Log.pp_digest then begin
          let claimed = claim n in
          (match (claimed, e.Log.pp) with
          | Log.Unclaimed, Some pp when e.Log.pp_view = view && Config.primary cfg ~view = self ->
              send (Pre_prepare pp)
          | _ -> ());
          (match (claimed, e.Log.prepares.(self)) with
          | Log.Unclaimed, Some (v, d) when v = view ->
              send (Prepare { pr_view = v; pr_seq = n; pr_digest = d; pr_replica = self })
          | _ -> ());
          match (claimed, e.Log.commits.(self)) with
          | (Log.Unclaimed | Log.Claimed_prepared), Some (v, d) ->
              send (Commit { cm_view = v; cm_seq = n; cm_digest = d; cm_replica = self })
          | _ -> ()
        end)
  end;
  (* a peer behind on checkpoints gets our stable checkpoint message *)
  if s.sa_h < Checkpoint_store.stable_seq ckpts then
    Option.iter
      (fun tree -> send (Checkpoint (Checkpoint_store.message tree ~replica:self)))
      (Checkpoint_store.stable_tree ckpts);
  List.rev !out

let answer_pending cfg ~self ~view vc (s : status_pending) =
  (* the peer's list read once, whatever its length *)
  let n = cfg.Config.n in
  let seen = Array.make n false in
  List.iter (fun i -> if i >= 0 && i < n then seen.(i) <- true) s.sp_vcs_seen;
  let peer_holds i = i >= 0 && i < n && seen.(i) in
  let out = ref [] in
  let send m = out := m :: !out in
  (* our view-change for the peer's pending view (or ours, to pull it
     forward) *)
  (match View_change.my_vc vc (max s.sp_view view) with
  | Some m when (not (peer_holds self)) || s.sp_view < view -> send (View_change m)
  | _ -> ());
  (* acks for view-changes the peer lacks *)
  List.iter
    (fun a -> if not (peer_holds a.va_origin) then send (View_change_ack a))
    (View_change.my_acks vc s.sp_view);
  if not s.sp_has_new_view then begin
    (* the primary's new-view, and the view-changes backing it *)
    (match View_change.new_view vc s.sp_view with
    | Some nv when Config.primary cfg ~view:s.sp_view = self -> send (New_view nv)
    | _ -> ());
    View_change.iter_view vc s.sp_view (fun sender m ->
        if not (peer_holds sender) then send (View_change m))
  end;
  List.rev !out
