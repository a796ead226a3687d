(** Xprof — execution profiling and metrics.

    Two layers (docs/OBSERVABILITY.md is the full metric catalogue):

    - a {b metrics registry} of named monotonic counters, gauges and
      histograms (p50/p95/p99), for process-lifetime aggregates such as
      per-statement latency distributions — the substrate under the
      [micro] bench gate's [BENCH_micro.json];
    - a {b per-statement execution profile} ({!t}): counter set (XQuery
      eval steps, nodes materialized, index probes, index entries
      scanned, documents scanned, B+Tree page reads/splits, SQL rows
      scanned, undo-log entries), a governor-headroom snapshot, and an
      EXPLAIN-ANALYZE-style operator tree with per-operator wall time.

    Cost discipline mirrors {!Xdm.Limits}: every charge function begins
    with a single [if p.on] branch, so a disabled profile (the default —
    and the shared {!disabled} instance) costs one branch per charge
    site. Wall clocks are only read while profiling is on.

    Operator-tree shape: operators with the same name under the same
    parent share one node; [op_count] is how many times it ran and
    [op_time] its cumulative {e inclusive} wall time (children are not
    subtracted, as in EXPLAIN ANALYZE "actual time"). Recursive
    operators therefore appear as a short aggregated chain rather than
    one node per invocation. *)

(* ------------------------------------------------------------------ *)
(* Minimal JSON emitter (no external dependency)                       *)
(* ------------------------------------------------------------------ *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  let escape (s : string) : string =
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let rec to_buffer buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f ->
        (* NaN / infinities are not valid JSON numbers *)
        if Float.is_nan f || f = infinity || f = neg_infinity then
          Buffer.add_string buf "null"
        else Buffer.add_string buf (Printf.sprintf "%.6g" f)
    | Str s ->
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape s);
        Buffer.add_char buf '"'
    | Arr items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i it ->
            if i > 0 then Buffer.add_char buf ',';
            to_buffer buf it)
          items;
        Buffer.add_char buf ']'
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_char buf '"';
            Buffer.add_string buf (escape k);
            Buffer.add_string buf "\":";
            to_buffer buf v)
          fields;
        Buffer.add_char buf '}'

  let to_string j =
    let buf = Buffer.create 256 in
    to_buffer buf j;
    Buffer.contents buf
end

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)
(* ------------------------------------------------------------------ *)

module Hist = struct
  (** Exact histogram: stores every observation in a growable array and
      answers percentile queries by nearest-rank over a sorted copy.
      Fine for the per-statement / per-benchmark-run cardinalities this
      repo produces (thousands, not billions). *)
  type t = { mutable data : float array; mutable n : int }

  let create () = { data = [||]; n = 0 }

  let clear h =
    h.data <- [||];
    h.n <- 0

  let add h v =
    if h.n = Array.length h.data then begin
      let grown = Array.make (max 64 (2 * h.n)) 0. in
      Array.blit h.data 0 grown 0 h.n;
      h.data <- grown
    end;
    h.data.(h.n) <- v;
    h.n <- h.n + 1

  let count h = h.n

  let sorted h =
    let a = Array.sub h.data 0 h.n in
    Array.sort Float.compare a;
    a

  (** Nearest-rank percentile; [nan] on an empty histogram. *)
  let percentile h (p : float) =
    if h.n = 0 then Float.nan
    else begin
      let a = sorted h in
      let rank = int_of_float (ceil (p /. 100. *. float_of_int h.n)) in
      a.(max 0 (min (h.n - 1) (rank - 1)))
    end

  let p50 h = percentile h 50.
  let p95 h = percentile h 95.
  let p99 h = percentile h 99.

  let mean h =
    if h.n = 0 then Float.nan
    else begin
      let s = ref 0. in
      for i = 0 to h.n - 1 do
        s := !s +. h.data.(i)
      done;
      !s /. float_of_int h.n
    end

  let max_value h =
    if h.n = 0 then Float.nan
    else Array.fold_left Float.max neg_infinity (Array.sub h.data 0 h.n)

  let summary_json h : Json.t =
    Json.Obj
      [
        ("n", Json.Int h.n);
        ("mean", Json.Float (mean h));
        ("p50", Json.Float (p50 h));
        ("p95", Json.Float (p95 h));
        ("p99", Json.Float (p99 h));
        ("max", Json.Float (max_value h));
      ]

  let summary_string h =
    Printf.sprintf "n=%d mean=%.3f p50=%.3f p95=%.3f p99=%.3f max=%.3f" h.n
      (mean h) (p50 h) (p95 h) (p99 h) (max_value h)
end

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)
(* ------------------------------------------------------------------ *)

module Registry = struct
  type metric = MCounter of int ref | MGauge of float ref | MHist of Hist.t

  type t = {
    tbl : (string, metric) Hashtbl.t;
    mutable names : string list;  (** reverse insertion order *)
    mu : Mutex.t;
        (** a registry is shared by every server session, so the table,
            the name list and counter read-modify-writes are guarded by
            this internal leaf mutex (real even on the sequential Xpar
            backend); it is never held while calling out *)
  }

  let create () = { tbl = Hashtbl.create 16; names = []; mu = Mutex.create () }

  let locked r f =
    Mutex.lock r.mu;
    match f () with
    | v ->
        Mutex.unlock r.mu;
        v
    | exception e ->
        Mutex.unlock r.mu;
        raise e

  let find_or_add r name mk =
    locked r (fun () ->
        match Hashtbl.find_opt r.tbl name with
        | Some m -> m
        | None ->
            let m = mk () in
            Hashtbl.add r.tbl name m;
            r.names <- name :: r.names;
            m)

  let kind_err name want =
    invalid_arg
      (Printf.sprintf "Xprof.Registry: metric %S already exists with a \
                       different kind (wanted %s)"
         name want)

  let counter r name =
    match find_or_add r name (fun () -> MCounter (ref 0)) with
    | MCounter c -> c
    | _ -> kind_err name "counter"

  (** Monotonic: [by] must be non-negative. *)
  let incr ?(by = 1) r name =
    if by < 0 then invalid_arg "Xprof.Registry.incr: negative increment";
    let c = counter r name in
    locked r (fun () -> c := !c + by)

  let gauge r name =
    match find_or_add r name (fun () -> MGauge (ref 0.)) with
    | MGauge g -> g
    | _ -> kind_err name "gauge"

  let set_gauge r name v = gauge r name := v

  let hist r name =
    match find_or_add r name (fun () -> MHist (Hist.create ())) with
    | MHist h -> h
    | _ -> kind_err name "histogram"

  let observe r name v =
    let h = hist r name in
    locked r (fun () -> Hist.add h v)

  let metrics r : (string * metric) list =
    locked r (fun () ->
        List.rev_map (fun n -> (n, Hashtbl.find r.tbl n)) r.names)

  let to_json r : Json.t =
    Json.Obj
      (List.map
         (fun (name, m) ->
           ( name,
             match m with
             | MCounter c -> Json.Int !c
             | MGauge g -> Json.Float !g
             | MHist h -> Hist.summary_json h ))
         (metrics r))

  let to_string r =
    let buf = Buffer.create 256 in
    List.iter
      (fun (name, m) ->
        match m with
        | MCounter c -> Buffer.add_string buf (Printf.sprintf "%-32s %d\n" name !c)
        | MGauge g -> Buffer.add_string buf (Printf.sprintf "%-32s %g\n" name !g)
        | MHist h ->
            Buffer.add_string buf
              (Printf.sprintf "%-32s %s\n" name (Hist.summary_string h)))
      (metrics r);
    Buffer.contents buf
end

(* ------------------------------------------------------------------ *)
(* Per-statement execution profile                                     *)
(* ------------------------------------------------------------------ *)

type op = {
  op_name : string;
  mutable op_count : int;
  mutable op_time : float;  (** cumulative inclusive seconds *)
  mutable op_rows : int;  (** items/rows produced, where the operator knows *)
  mutable op_children : op list;  (** reverse order of first entry *)
}

type t = {
  mutable on : bool;
  mutable eval_steps : int;
  mutable nodes_materialized : int;
  mutable rows_scanned : int;
  mutable docs_scanned : int;
  mutable index_probes : int;
  mutable index_entries_scanned : int;
  mutable struct_probes : int;  (** structural-join axis steps executed *)
  mutable struct_entries : int;
      (** encoding-table slots touched by structural joins *)
  mutable btree_page_reads : int;
  mutable btree_splits : int;
  mutable undo_entries : int;
  mutable xpar_tasks : int;  (** parallel regions executed *)
  mutable xpar_chunks : int;  (** chunks dispatched across all regions *)
  mutable xpar_gated : int;
      (** parallel AND/OR solves gated off (profiling armed) — work that
          *would* have gone parallel but ran sequentially *)
  mutable governor : (string * int * int) list;
      (** (resource, used, cap) — empty when the statement ran with the
          meter unarmed (no limits set) *)
  mutable root : op;
  mutable stack : op list;  (** head = innermost open operator *)
  mutable started : float;
  mutable total : float;  (** statement wall seconds, set by
                              {!finish_statement} *)
}

let fresh_root () =
  { op_name = "statement"; op_count = 1; op_time = 0.; op_rows = 0; op_children = [] }

let create () =
  {
    on = false;
    eval_steps = 0;
    nodes_materialized = 0;
    rows_scanned = 0;
    docs_scanned = 0;
    index_probes = 0;
    index_entries_scanned = 0;
    struct_probes = 0;
    struct_entries = 0;
    btree_page_reads = 0;
    btree_splits = 0;
    undo_entries = 0;
    xpar_tasks = 0;
    xpar_chunks = 0;
    xpar_gated = 0;
    governor = [];
    root = fresh_root ();
    stack = [];
    started = 0.;
    total = 0.;
  }

(** The shared always-off profile: the default for every context that is
    not explicitly profiled. Never enable it. *)
let disabled = create ()

let enable p b =
  if b && p == disabled then
    invalid_arg "Xprof.enable: cannot enable the shared disabled profile";
  p.on <- b

(** Zero all per-statement state (counters, operator tree, governor
    snapshot); the [on] switch and registry are untouched. *)
let reset p =
  p.eval_steps <- 0;
  p.nodes_materialized <- 0;
  p.rows_scanned <- 0;
  p.docs_scanned <- 0;
  p.index_probes <- 0;
  p.index_entries_scanned <- 0;
  p.struct_probes <- 0;
  p.struct_entries <- 0;
  p.btree_page_reads <- 0;
  p.btree_splits <- 0;
  p.undo_entries <- 0;
  p.xpar_tasks <- 0;
  p.xpar_chunks <- 0;
  p.xpar_gated <- 0;
  p.governor <- [];
  p.root <- fresh_root ();
  p.stack <- [];
  p.started <- 0.;
  p.total <- 0.

let start_statement p =
  if p.on then begin
    reset p;
    p.started <- Unix.gettimeofday ()
  end

let finish_statement p =
  if p.on then p.total <- Unix.gettimeofday () -. p.started

let total_ms p = p.total *. 1000.

let set_governor p entries = if p.on then p.governor <- entries

(* --- charge points (all one branch when off) ----------------------- *)

let step p = if p.on then p.eval_steps <- p.eval_steps + 1
let add_nodes p n = if p.on then p.nodes_materialized <- p.nodes_materialized + n
let row p = if p.on then p.rows_scanned <- p.rows_scanned + 1
let doc p = if p.on then p.docs_scanned <- p.docs_scanned + 1
let docs p n = if p.on then p.docs_scanned <- p.docs_scanned + n
let probe p = if p.on then p.index_probes <- p.index_probes + 1

let entry p =
  if p.on then p.index_entries_scanned <- p.index_entries_scanned + 1

(** Charge one structural-join axis step. *)
let struct_probe p = if p.on then p.struct_probes <- p.struct_probes + 1

(** Charge [n] encoding-table slots touched by structural joins. *)
let struct_entries p n =
  if p.on then p.struct_entries <- p.struct_entries + n

let page_read p = if p.on then p.btree_page_reads <- p.btree_page_reads + 1
let split p = if p.on then p.btree_splits <- p.btree_splits + 1
let undo p = if p.on then p.undo_entries <- p.undo_entries + 1

(** Charge one parallel region that dispatched [chunks] chunks. *)
let par p ~chunks =
  if p.on then begin
    p.xpar_tasks <- p.xpar_tasks + 1;
    p.xpar_chunks <- p.xpar_chunks + chunks
  end

(** Charge one parallel region that was *gated off* — eligible for
    parallel solving but forced sequential (index profiling armed). The
    registry mirror ([xpar_gated_total]) makes silently lost parallelism
    visible in [\metrics]. *)
let gated p = if p.on then p.xpar_gated <- p.xpar_gated + 1

(* --- operator spans ------------------------------------------------ *)

(** Open an operator span named [name] under the current operator.
    Returns the span start time; 0. (and no side effect) when off. *)
let enter p name : float =
  if not p.on then 0.
  else begin
    let parent = match p.stack with o :: _ -> o | [] -> p.root in
    let child =
      match List.find_opt (fun o -> o.op_name = name) parent.op_children with
      | Some o ->
          o.op_count <- o.op_count + 1;
          o
      | None ->
          let o =
            { op_name = name; op_count = 1; op_time = 0.; op_rows = 0;
              op_children = [] }
          in
          parent.op_children <- o :: parent.op_children;
          o
    in
    p.stack <- child :: p.stack;
    Unix.gettimeofday ()
  end

(** Close the innermost span opened at [t0], crediting [rows] produced. *)
let leave ?(rows = 0) p (t0 : float) =
  if p.on then
    match p.stack with
    | o :: rest ->
        o.op_time <- o.op_time +. (Unix.gettimeofday () -. t0);
        o.op_rows <- o.op_rows + rows;
        p.stack <- rest
    | [] -> ()

(** Run [f] inside a span; exception-safe. [rows] maps the result to a
    produced-row count for the span. *)
let spanned ?rows p name (f : unit -> 'a) : 'a =
  if not p.on then f ()
  else begin
    let t0 = enter p name in
    match f () with
    | r ->
        leave ?rows:(Option.map (fun g -> g r) rows) p t0;
        r
    | exception ex ->
        leave p t0;
        raise ex
  end

(** A lazily produced sequence under a span: every pull is one execution
    of [name], timing the production of one element (the inclusive time
    of whatever that pull forces) and counting it as a row. A producer
    pulled through a consumer nests exactly as its eager form would:
    pulling an outer scan forces the inner one inside the outer span. *)
let spanned_seq p name (s : 'a Seq.t) : 'a Seq.t =
  let rows = function Seq.Cons _ -> 1 | Seq.Nil -> 0 in
  let rec go s () =
    match spanned ~rows p name s with
    | Seq.Nil -> Seq.Nil
    | Seq.Cons (x, tl) -> Seq.Cons (x, go tl)
  in
  if p.on then go s else s

(** Merge a per-chunk child profile into [into]: counters are summed and
    the child's operator tree is grafted under [into]'s innermost open
    span. The parallel executor gives each chunk a private profile (the
    span stack is not thread-safe) and absorbs them in chunk order after
    the join, so profiled parallel runs report deterministic totals. *)
let absorb ~into:(p : t) (child : t) =
  if p.on then begin
    p.eval_steps <- p.eval_steps + child.eval_steps;
    p.nodes_materialized <- p.nodes_materialized + child.nodes_materialized;
    p.rows_scanned <- p.rows_scanned + child.rows_scanned;
    p.docs_scanned <- p.docs_scanned + child.docs_scanned;
    p.index_probes <- p.index_probes + child.index_probes;
    p.index_entries_scanned <-
      p.index_entries_scanned + child.index_entries_scanned;
    p.struct_probes <- p.struct_probes + child.struct_probes;
    p.struct_entries <- p.struct_entries + child.struct_entries;
    p.btree_page_reads <- p.btree_page_reads + child.btree_page_reads;
    p.btree_splits <- p.btree_splits + child.btree_splits;
    p.undo_entries <- p.undo_entries + child.undo_entries;
    p.xpar_tasks <- p.xpar_tasks + child.xpar_tasks;
    p.xpar_chunks <- p.xpar_chunks + child.xpar_chunks;
    p.xpar_gated <- p.xpar_gated + child.xpar_gated;
    let parent = match p.stack with o :: _ -> o | [] -> p.root in
    let rec graft parent ops =
      (* ops arrive oldest-first; find-or-create keeps [op_children]'s
         reverse-of-first-entry invariant *)
      List.iter
        (fun c ->
          match
            List.find_opt (fun o -> o.op_name = c.op_name) parent.op_children
          with
          | Some o ->
              o.op_count <- o.op_count + c.op_count;
              o.op_time <- o.op_time +. c.op_time;
              o.op_rows <- o.op_rows + c.op_rows;
              graft o (List.rev c.op_children)
          | None -> parent.op_children <- c :: parent.op_children)
        ops
    in
    graft parent (List.rev child.root.op_children)
  end

(* --- reporting ----------------------------------------------------- *)

let counters p : (string * int) list =
  [
    ("eval_steps", p.eval_steps);
    ("nodes_materialized", p.nodes_materialized);
    ("rows_scanned", p.rows_scanned);
    ("docs_scanned", p.docs_scanned);
    ("index_probes", p.index_probes);
    ("index_entries_scanned", p.index_entries_scanned);
    ("struct_probes", p.struct_probes);
    ("struct_entries", p.struct_entries);
    ("btree_page_reads", p.btree_page_reads);
    ("btree_splits", p.btree_splits);
    ("undo_entries", p.undo_entries);
    ("xpar_tasks", p.xpar_tasks);
    ("xpar_chunks", p.xpar_chunks);
    ("xpar_gated", p.xpar_gated);
  ]

let counters_json p : Json.t =
  Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (counters p))

let rec op_json (o : op) : Json.t =
  Json.Obj
    [
      ("op", Json.Str o.op_name);
      ("count", Json.Int o.op_count);
      ("ms", Json.Float (o.op_time *. 1000.));
      ("rows", Json.Int o.op_rows);
      ("children", Json.Arr (List.rev_map op_json o.op_children));
    ]

let governor_json p : Json.t =
  Json.Arr
    (List.map
       (fun (res, used, cap) ->
         Json.Obj
           [
             ("resource", Json.Str res);
             ("used", Json.Int used);
             ("cap", Json.Int cap);
           ])
       p.governor)

let to_json ?statement p : Json.t =
  Json.Obj
    ((match statement with
     | Some s -> [ ("statement", Json.Str s) ]
     | None -> [])
    @ [
        ("total_ms", Json.Float (total_ms p));
        ("counters", counters_json p);
        ("operators", Json.Arr (List.rev_map op_json p.root.op_children));
        ("governor", governor_json p);
      ])

(** EXPLAIN-ANALYZE-style text rendering of the last statement's
    profile: operator tree, counters, governor headroom. *)
let report p : string =
  if not p.on then "-- profiling is off (\\profile on)\n"
  else begin
    let buf = Buffer.create 512 in
    Buffer.add_string buf (Printf.sprintf "-- profile: %.3f ms\n" (total_ms p));
    let rec pr indent (o : op) =
      Buffer.add_string buf
        (Printf.sprintf "--   %s%-*s %6dx %10.3f ms%s\n" indent
           (max 1 (34 - String.length indent))
           o.op_name o.op_count (o.op_time *. 1000.)
           (if o.op_rows > 0 then Printf.sprintf "  (%d rows)" o.op_rows else ""));
      List.iter (pr (indent ^ "  ")) (List.rev o.op_children)
    in
    (match List.rev p.root.op_children with
    | [] -> Buffer.add_string buf "--   (no operators recorded)\n"
    | ops -> List.iter (pr "") ops);
    Buffer.add_string buf "-- counters:";
    List.iter
      (fun (k, v) -> Buffer.add_string buf (Printf.sprintf " %s=%d" k v))
      (counters p);
    Buffer.add_char buf '\n';
    (match p.governor with
    | [] -> Buffer.add_string buf "-- governor: unlimited (meter unarmed)\n"
    | gov ->
        Buffer.add_string buf "-- governor:";
        List.iter
          (fun (res, used, cap) ->
            Buffer.add_string buf
              (Printf.sprintf " %s %d/%d (%.1f%% used)" res used cap
                 (if cap = 0 then 0.
                  else float_of_int used /. float_of_int cap *. 100.)))
          gov;
        Buffer.add_char buf '\n');
    Buffer.contents buf
  end
