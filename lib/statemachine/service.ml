type paged = {
  pg_page_size : int;
  pg_pages : unit -> string array;
  pg_drain_dirty : unit -> int list;
}

type t = {
  name : string;
  execute : client:int -> op:string -> nondet:string -> string;
  is_read_only : string -> bool;
  has_access : client:int -> string -> bool;
  exec_cost_us : string -> float;
  snapshot : unit -> string;
  restore : string -> (unit, string) result;
  paged : paged option;
}

let denied = "EACCES"
let invalid = "EINVAL"

let paged_of_image img =
  {
    pg_page_size = Paged_image.page_size img;
    pg_pages = (fun () -> Paged_image.pages img);
    pg_drain_dirty = (fun () -> Paged_image.drain_dirty img);
  }
