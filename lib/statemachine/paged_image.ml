(* Deterministic paged record arena backing the dirty-aware snapshot
   interface. See the .mli for the determinism argument; the key
   constraints are: pure bump allocation (no free-list), freed regions
   zeroed in place, and the bump pointer persisted in a fixed-width
   header so a restored arena is byte-identical and continues to allocate
   at the same offsets. *)

type t = {
  page_size : int;
  mutable buf : Bytes.t; (* capacity is always a multiple of page_size *)
  mutable used : int; (* bump pointer, includes the header *)
  index : (string, int * int) Hashtbl.t; (* key -> (offset, record length) *)
  dirty : (int, unit) Hashtbl.t; (* pages touched since last drain *)
  stale : (int, unit) Hashtbl.t; (* pages whose cached string is outdated *)
  mutable cache : string array; (* one immutable string per page *)
}

let header_len = 19 (* "ARENA " ^ 12 digits ^ "\n" *)

let min_page_size = 32

let header_bytes used = Printf.sprintf "ARENA %012d\n" used

let num_pages t = Bytes.length t.buf / t.page_size
let page_size t = t.page_size

let touch t pg =
  Hashtbl.replace t.dirty pg ();
  Hashtbl.replace t.stale pg ()

let touch_range t off len =
  if len > 0 then
    for pg = off / t.page_size to (off + len - 1) / t.page_size do
      touch t pg
    done

let write_header t =
  Bytes.blit_string (header_bytes t.used) 0 t.buf 0 header_len;
  touch_range t 0 header_len

let create ?(initial_pages = 1) ~page_size () =
  if page_size < min_page_size then invalid_arg "Paged_image.create: page_size";
  if initial_pages < 1 then invalid_arg "Paged_image.create: initial_pages";
  let t =
    {
      page_size;
      buf = Bytes.make (initial_pages * page_size) '\x00';
      used = header_len;
      index = Hashtbl.create 64;
      dirty = Hashtbl.create 16;
      stale = Hashtbl.create 16;
      cache = Array.make initial_pages "";
    }
  in
  write_header t;
  t

let record_string key value =
  let b =
    Buffer.create (String.length key + String.length value + 16)
  in
  Buffer.add_string b "R ";
  Buffer.add_string b (string_of_int (String.length key));
  Buffer.add_char b ' ';
  Buffer.add_string b (string_of_int (String.length value));
  Buffer.add_char b '\n';
  Buffer.add_string b key;
  Buffer.add_string b value;
  Buffer.add_char b '\n';
  Buffer.contents b

let grow t needed =
  let cap = Bytes.length t.buf in
  let new_cap = ref (max cap t.page_size) in
  while !new_cap < needed do
    new_cap := !new_cap * 2
  done;
  (* round up to a page multiple (already one: cap and doubling keep it) *)
  if !new_cap > cap then begin
    let nb = Bytes.make !new_cap '\x00' in
    Bytes.blit t.buf 0 nb 0 cap;
    t.buf <- nb;
    let old_pages = Array.length t.cache in
    let pages = !new_cap / t.page_size in
    let nc = Array.make pages "" in
    Array.blit t.cache 0 nc 0 old_pages;
    t.cache <- nc;
    (* fresh pages enter the image: they count as dirty *)
    for pg = old_pages to pages - 1 do
      touch t pg
    done
  end

(* Overwrite [off, off+len) with [r], dirtying only pages whose bytes
   actually change. *)
let diff_write t off r =
  let len = String.length r in
  if len > 0 then begin
    let last = off + len - 1 in
    for pg = off / t.page_size to last / t.page_size do
      let seg_start = max off (pg * t.page_size) in
      let seg_end = min (off + len) ((pg + 1) * t.page_size) in
      let seg_len = seg_end - seg_start in
      let same =
        String.equal
          (Bytes.sub_string t.buf seg_start seg_len)
          (String.sub r (seg_start - off) seg_len)
      in
      if not same then begin
        Bytes.blit_string r (seg_start - off) t.buf seg_start seg_len;
        touch t pg
      end
    done
  end

let free_region t off len =
  Bytes.fill t.buf off len '\x00';
  touch_range t off len

let append t r =
  let len = String.length r in
  grow t (t.used + len);
  let off = t.used in
  Bytes.blit_string r 0 t.buf off len;
  touch_range t off len;
  t.used <- t.used + len;
  write_header t;
  off

let set t ~key ~value =
  let r = record_string key value in
  match Hashtbl.find_opt t.index key with
  | Some (off, len) when String.length r = len -> diff_write t off r
  | Some (off, len) ->
      free_region t off len;
      let off = append t r in
      Hashtbl.replace t.index key (off, String.length r)
  | None ->
      let off = append t r in
      Hashtbl.replace t.index key (off, String.length r)

let remove t ~key =
  match Hashtbl.find_opt t.index key with
  | None -> false
  | Some (off, len) ->
      free_region t off len;
      Hashtbl.remove t.index key;
      true

let find t ~key =
  match Hashtbl.find_opt t.index key with
  | None -> None
  | Some (off, len) ->
      (* re-parse lengths from the record header *)
      let sp1 = Bytes.index_from t.buf (off + 2) ' ' in
      let nl = Bytes.index_from t.buf (sp1 + 1) '\n' in
      let klen = int_of_string (Bytes.sub_string t.buf (off + 2) (sp1 - off - 2)) in
      let vlen = int_of_string (Bytes.sub_string t.buf (sp1 + 1) (nl - sp1 - 1)) in
      ignore len;
      Some (Bytes.sub_string t.buf (nl + 1 + klen) vlen)

let iter t f =
  Hashtbl.iter
    (fun key _ -> match find t ~key with Some v -> f key v | None -> ())
    t.index

let pages t =
  Hashtbl.iter
    (fun pg () ->
      t.cache.(pg) <- Bytes.sub_string t.buf (pg * t.page_size) t.page_size)
    t.stale;
  Hashtbl.reset t.stale;
  Array.copy t.cache

let drain_dirty t =
  let l = Hashtbl.fold (fun pg () acc -> pg :: acc) t.dirty [] in
  Hashtbl.reset t.dirty;
  List.sort compare l

let mark_all_dirty t =
  for pg = 0 to num_pages t - 1 do
    touch t pg
  done

let reset t =
  t.buf <- Bytes.make t.page_size '\x00';
  t.used <- header_len;
  Hashtbl.reset t.index;
  Hashtbl.reset t.dirty;
  Hashtbl.reset t.stale;
  t.cache <- Array.make 1 "";
  write_header t;
  touch t 0

let image t = Bytes.to_string t.buf

(* --- decoding ------------------------------------------------------- *)

let is_digits s lo hi =
  let ok = ref (hi > lo) in
  for i = lo to hi - 1 do
    match s.[i] with '0' .. '9' -> () | _ -> ok := false
  done;
  !ok

let decode_raw ~page_size s =
  let len = String.length s in
  let err fmt = Printf.ksprintf (fun m -> Error ("Paged_image: " ^ m)) fmt in
  if page_size < min_page_size then err "bad page size"
  else if len < page_size || len mod page_size <> 0 then err "image not page-aligned"
  else if len < header_len
          || (not (String.equal (String.sub s 0 6) "ARENA "))
          || s.[header_len - 1] <> '\n'
          || not (is_digits s 6 (header_len - 1))
  then err "bad arena header"
  else begin
    let used = int_of_string (String.sub s 6 12) in
    if used < header_len || used > len then err "bad bump pointer"
    else begin
      let records = ref [] in
      let seen = Hashtbl.create 64 in
      let pos = ref header_len in
      let bad = ref None in
      let fail m = if !bad = None then bad := Some m in
      while !bad = None && !pos < used do
        if s.[!pos] = '\x00' then incr pos
        else if s.[!pos] <> 'R' || !pos + 1 >= used || s.[!pos + 1] <> ' ' then
          fail "bad record tag"
        else begin
          match String.index_from_opt s (!pos + 2) ' ' with
          | None -> fail "truncated record header"
          | Some sp -> (
              match String.index_from_opt s (sp + 1) '\n' with
              | None -> fail "truncated record header"
              | Some nl ->
                  if
                    nl >= used || not (is_digits s (!pos + 2) sp)
                    || not (is_digits s (sp + 1) nl)
                  then fail "bad record lengths"
                  else begin
                    let klen = int_of_string (String.sub s (!pos + 2) (sp - !pos - 2)) in
                    let vlen = int_of_string (String.sub s (sp + 1) (nl - sp - 1)) in
                    let rec_end = nl + 1 + klen + vlen in
                    if rec_end >= used || s.[rec_end] <> '\n' then
                      fail "truncated record body"
                    else begin
                      let key = String.sub s (nl + 1) klen in
                      let value = String.sub s (nl + 1 + klen) vlen in
                      if Hashtbl.mem seen key then fail "duplicate key"
                      else begin
                        Hashtbl.replace seen key ();
                        records := (key, value, !pos, rec_end + 1 - !pos) :: !records;
                        pos := rec_end + 1
                      end
                    end
                  end)
        end
      done;
      (* the unallocated tail must be zero: it is part of the digested image *)
      if !bad = None then
        for i = used to len - 1 do
          if s.[i] <> '\x00' then fail "nonzero tail"
        done;
      match !bad with
      | Some m -> err "%s" m
      | None -> Ok (used, List.rev !records)
    end
  end

let decode ~page_size s =
  match decode_raw ~page_size s with
  | Error _ as e -> e
  | Ok (_, records) -> Ok (List.map (fun (k, v, _, _) -> (k, v)) records)

let restore t s =
  match decode_raw ~page_size:t.page_size s with
  | Error _ as e -> e
  | Ok (used, records) ->
      t.buf <- Bytes.of_string s;
      t.used <- used;
      Hashtbl.reset t.index;
      List.iter (fun (k, _, off, len) -> Hashtbl.replace t.index k (off, len)) records;
      t.cache <- Array.make (String.length s / t.page_size) "";
      Hashtbl.reset t.dirty;
      Hashtbl.reset t.stale;
      mark_all_dirty t;
      Ok (List.map (fun (k, v, _, _) -> (k, v)) records)
