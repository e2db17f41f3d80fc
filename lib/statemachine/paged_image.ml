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
  mutable flags : Bytes.t; (* one byte per page: [dirty] lor [stale] bits *)
  mutable cache : string array; (* one immutable string per page *)
}

let dirty = 1 (* touched since the last drain *)
let stale = 2 (* cached string outdated *)

let header_len = 19 (* "ARENA " ^ 12 digits ^ "\n" *)

let min_page_size = 32

let num_pages t = Bytes.length t.buf / t.page_size
let page_size t = t.page_size

let touch t pg = Bytes.set t.flags pg (Char.unsafe_chr (dirty lor stale))

let touch_range t off len =
  if len > 0 then
    for pg = off / t.page_size to (off + len - 1) / t.page_size do
      touch t pg
    done

(* The header's constant bytes are written once per fresh buffer; each
   allocation rewrites only the bump pointer's 12 digits, in place. *)
let write_header t =
  let n = ref t.used in
  for i = header_len - 2 downto 6 do
    Bytes.set t.buf i (Char.unsafe_chr (Char.code '0' + (!n mod 10)));
    n := !n / 10
  done;
  touch_range t 0 header_len

let init_header t =
  Bytes.blit_string "ARENA " 0 t.buf 0 6;
  Bytes.set t.buf (header_len - 1) '\n';
  write_header t

let create ?(initial_pages = 1) ~page_size () =
  if page_size < min_page_size then invalid_arg "Paged_image.create: page_size";
  if initial_pages < 1 then invalid_arg "Paged_image.create: initial_pages";
  let t =
    {
      page_size;
      buf = Bytes.make (initial_pages * page_size) '\x00';
      used = header_len;
      index = Hashtbl.create 64;
      flags = Bytes.make initial_pages '\x00';
      cache = Array.make initial_pages "";
    }
  in
  init_header t;
  t

(* A record is "R <klen> <vlen>\n<key><value>\n". *)
let rec digits n = if n < 10 then 1 else 1 + digits (n / 10)
let record_len klen vlen = 2 + digits klen + 1 + digits vlen + 1 + klen + vlen + 1

(* decimal [n] at [pos]; returns the position after it *)
let put_int b pos n =
  let d = digits n in
  let n = ref n in
  for i = pos + d - 1 downto pos do
    Bytes.set b i (Char.unsafe_chr (Char.code '0' + (!n mod 10)));
    n := !n / 10
  done;
  pos + d

let write_record b off key value =
  let klen = String.length key and vlen = String.length value in
  Bytes.set b off 'R';
  Bytes.set b (off + 1) ' ';
  let pos = put_int b (off + 2) klen in
  Bytes.set b pos ' ';
  let pos = put_int b (pos + 1) vlen in
  Bytes.set b pos '\n';
  Bytes.blit_string key 0 b (pos + 1) klen;
  Bytes.blit_string value 0 b (pos + 1 + klen) vlen;
  Bytes.set b (pos + 1 + klen + vlen) '\n'

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
    let nf = Bytes.make pages '\x00' in
    Bytes.blit t.flags 0 nf 0 old_pages;
    t.flags <- nf;
    (* fresh pages enter the image: they count as dirty *)
    for pg = old_pages to pages - 1 do
      touch t pg
    done
  end

(* Overwrite [off, off+len) with [value], dirtying only pages whose bytes
   actually change. *)
let diff_write t off value =
  let len = String.length value in
  if len > 0 then begin
    let last = off + len - 1 in
    for pg = off / t.page_size to last / t.page_size do
      let seg_start = max off (pg * t.page_size) in
      let seg_end = min (off + len) ((pg + 1) * t.page_size) in
      let i = ref seg_start in
      while !i < seg_end && Bytes.get t.buf !i = String.get value (!i - off) do
        incr i
      done;
      if !i < seg_end then begin
        Bytes.blit_string value (seg_start - off) t.buf seg_start (seg_end - seg_start);
        touch t pg
      end
    done
  end

let free_region t off len =
  Bytes.fill t.buf off len '\x00';
  touch_range t off len

let append t key value len =
  grow t (t.used + len);
  let off = t.used in
  write_record t.buf off key value;
  touch_range t off len;
  t.used <- t.used + len;
  write_header t;
  off

let set t ~key ~value =
  let vlen = String.length value in
  let len = record_len (String.length key) vlen in
  match Hashtbl.find_opt t.index key with
  | Some (off, l) when l = len ->
      (* same key and record size, so the same value length (v + digits v
         is increasing): the header and key bytes are unchanged, and only
         the value can differ *)
      diff_write t (off + len - 1 - vlen) value
  | Some (off, l) ->
      free_region t off l;
      Hashtbl.replace t.index key (append t key value len, len)
  | None -> Hashtbl.replace t.index key (append t key value len, len)

let remove t ~key =
  match Hashtbl.find_opt t.index key with
  | None -> false
  | Some (off, len) ->
      free_region t off len;
      Hashtbl.remove t.index key;
      true

(* the value is the [vlen] bytes before the record's closing newline *)
let find t ~key =
  match Hashtbl.find_opt t.index key with
  | None -> None
  | Some (off, len) ->
      let sp1 = Bytes.index_from t.buf (off + 2) ' ' in
      let nl = Bytes.index_from t.buf (sp1 + 1) '\n' in
      let vlen = int_of_string (Bytes.sub_string t.buf (sp1 + 1) (nl - sp1 - 1)) in
      Some (Bytes.sub_string t.buf (off + len - 1 - vlen) vlen)

let length t = Hashtbl.length t.index

let pages t =
  for pg = 0 to num_pages t - 1 do
    let f = Char.code (Bytes.get t.flags pg) in
    if f land stale <> 0 then begin
      t.cache.(pg) <- Bytes.sub_string t.buf (pg * t.page_size) t.page_size;
      Bytes.set t.flags pg (Char.unsafe_chr (f land lnot stale))
    end
  done;
  Array.copy t.cache

let drain_dirty t =
  let l = ref [] in
  for pg = num_pages t - 1 downto 0 do
    let f = Char.code (Bytes.get t.flags pg) in
    if f land dirty <> 0 then begin
      l := pg :: !l;
      Bytes.set t.flags pg (Char.unsafe_chr (f land lnot dirty))
    end
  done;
  !l

let mark_all_dirty t =
  for pg = 0 to num_pages t - 1 do
    touch t pg
  done

let reset t =
  t.buf <- Bytes.make t.page_size '\x00';
  t.used <- header_len;
  Hashtbl.reset t.index;
  t.flags <- Bytes.make 1 '\x00';
  t.cache <- Array.make 1 "";
  init_header t

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
      t.flags <- Bytes.make (String.length s / t.page_size) '\x00';
      mark_all_dirty t;
      Ok (List.map (fun (k, v, _, _) -> (k, v)) records)
