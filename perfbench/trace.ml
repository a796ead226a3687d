(* Spans recorded by the benchmark around its own calls into the
   program's layers (never from inside lib/). A span has a name, start,
   end, the span that caused it and the request it belongs to. Spans are
   kept in memory and written out once, when the run ends. *)

type span = { name : string; req : int; parent : int; t0 : float; mutable t1 : float }

let on = ref false
let spans : span array ref = ref [||]
let n = ref 0
let open_ = ref (-1)
let req = ref 0

let push s =
  if !n = Array.length !spans then begin
    let bigger = Array.make (max 1024 (2 * !n)) s in
    Array.blit !spans 0 bigger 0 !n;
    spans := bigger
  end;
  !spans.(!n) <- s;
  incr n

let span name f =
  if not !on then f ()
  else begin
    let id = !n and parent = !open_ in
    push { name; req = !req; parent; t0 = Unix.gettimeofday (); t1 = 0. };
    open_ := id;
    Fun.protect
      ~finally:(fun () ->
        !spans.(id).t1 <- Unix.gettimeofday ();
        open_ := parent)
      f
  end

(* A new request: every span opened inside [f] shares its identifier. *)
let request name f =
  if !on then incr req;
  span name f

(* Per span name: (count, total self seconds, total seconds). Self time
   is a span's duration minus the time its child spans cover. *)
let summary () =
  let child = Array.make !n 0. in
  for i = 0 to !n - 1 do
    let s = !spans.(i) in
    if s.parent >= 0 then child.(s.parent) <- child.(s.parent) +. (s.t1 -. s.t0)
  done;
  let tbl = Hashtbl.create 16 in
  for i = 0 to !n - 1 do
    let s = !spans.(i) in
    let c, self, tot =
      Option.value (Hashtbl.find_opt tbl s.name) ~default:(0, 0., 0.)
    in
    let d = s.t1 -. s.t0 in
    Hashtbl.replace tbl s.name (c + 1, self +. d -. child.(i), tot +. d)
  done;
  tbl

let write file =
  let oc = open_out file in
  for i = 0 to !n - 1 do
    let s = !spans.(i) in
    Printf.fprintf oc
      "{\"id\":%d,\"name\":%S,\"req\":%d,\"parent\":%d,\"start\":%.6f,\"end\":%.6f}\n"
      i s.name s.req s.parent s.t0 s.t1
  done;
  close_out oc
