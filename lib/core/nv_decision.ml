[@@@lint.protocol_core]
open Message

type result =
  | Wait
  | Decision of {
      start : int;
      start_digest : Message.digest;
      chosen : Message.nv_choice list;
    }

let decide cfg (vcs : (int * view_change) list) ~has_batch =
  let quorum = Config.quorum cfg and weak = Config.weak cfg in
  let msgs = List.map snd vcs in
  (* checkpoint selection *)
  let candidates =
    List.concat_map (fun m -> m.vc_cset) msgs
    |> List.sort_uniq compare
    |> List.filter (fun (n, d) ->
           List.length (List.filter (fun m -> m.vc_h <= n) msgs) >= quorum
           && List.length
                (List.filter (fun m -> List.exists (fun cd -> cd = (n, d)) m.vc_cset) msgs)
              >= weak)
  in
  match List.rev (List.sort compare candidates) with
  | [] -> Wait
  | (start, start_digest) :: _ -> (
      let max_n =
        List.fold_left
          (fun acc m ->
            List.fold_left (fun acc e -> max acc e.pe_seq) acc m.vc_pset)
          start msgs
      in
      let decide_one n =
        (* A: a prepared batch proposed for n *)
        let proposals =
          List.concat_map
            (fun m -> List.filter (fun e -> e.pe_seq = n) m.vc_pset)
            msgs
          |> List.sort (fun a b -> compare (b.pe_view, b.pe_digest) (a.pe_view, a.pe_digest))
        in
        let verifies e =
          let a1 =
            List.length
              (List.filter
                 (fun m ->
                   m.vc_h < n
                   && List.for_all
                        (fun e' ->
                          e'.pe_seq <> n || e'.pe_view < e.pe_view
                          || (e'.pe_view = e.pe_view && String.equal e'.pe_digest e.pe_digest))
                        m.vc_pset)
                 msgs)
            >= quorum
          in
          let a2 =
            List.length
              (List.filter
                 (fun m ->
                   List.exists
                     (fun q ->
                       q.qe_seq = n
                       && List.exists
                            (fun (d, v) -> String.equal d e.pe_digest && v >= e.pe_view)
                            q.qe_entries)
                     m.vc_qset)
                 msgs)
            >= weak
          in
          a1 && a2 && has_batch e.pe_digest
        in
        match List.find_opt verifies proposals with
        | Some e -> `Chosen e.pe_digest
        | None ->
            (* B: 2f+1 messages with h < n and no P entry for n *)
            let b =
              List.length
                (List.filter
                   (fun m -> m.vc_h < n && List.for_all (fun e -> e.pe_seq <> n) m.vc_pset)
                   msgs)
              >= quorum
            in
            if b then `Chosen Wire.null_batch_digest else `Wait
      in
      let rec go n acc =
        if n > max_n then Decision { start; start_digest; chosen = List.rev acc }
        else
          match decide_one n with
          | `Chosen d -> go (n + 1) ({ nc_seq = n; nc_digest = d } :: acc)
          | `Wait -> Wait
      in
      go (start + 1) [])

