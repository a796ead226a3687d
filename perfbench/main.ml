(* perfbench: the repository's benchmark. One single-threaded client
   drives one closed-loop workload (probe, scan or ingest_wire) against a
   durable engine, checks the outputs and prints its metrics; with
   --trace 1 it prints the per-layer metrics instead. See README.md in
   this directory for the workloads, the metrics and how they relate. *)

let sp = Printf.sprintf
let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)
(* ------------------------------------------------------------------ *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10
let traced = ref false
let fixed_rounds = ref 0

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "probe | scan | ingest_wire");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_int seconds, "length of the timed phase");
      ("--trace", Arg.Int (fun i -> traced := i = 1), "1: per-layer metrics");
      ( "--rounds",
        Arg.Set_int fixed_rounds,
        "N: every timed slice runs exactly N rounds instead of its share \
         of --seconds; for the self-test only" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload [ "probe"; "scan"; "ingest_wire" ]) then begin
    prerr_endline "perfbench: --workload must be probe, scan or ingest_wire";
    exit 2
  end

let seed = !seed
let seconds = float_of_int (max 1 !seconds)

(* ------------------------------------------------------------------ *)
(* Samples, statistics, outcome accounting                              *)
(* ------------------------------------------------------------------ *)

module Samples = struct
  type t = { mutable a : float array; mutable len : int }

  let create () = { a = Array.make 1024 0.; len = 0 }

  let add s v =
    if s.len = Array.length s.a then begin
      let b = Array.make (2 * s.len) 0. in
      Array.blit s.a 0 b 0 s.len;
      s.a <- b
    end;
    s.a.(s.len) <- v;
    s.len <- s.len + 1

  let to_array s = Array.sub s.a 0 s.len

  (* the samples added since there were [k] *)
  let since s k = Array.sub s.a k (s.len - k)
end

(* nearest-rank percentile *)
let pct (a : float array) p =
  let a = Array.copy a in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p /. 100. *. float_of_int n)) - 1)))

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The tail is reported at the highest of these percentiles that leaves
   at least ten samples beyond it at the workload's fixed sample count,
   so the percentile never changes between runs of one workload. *)
let tail_pct ~nominal =
  List.find
    (fun p -> float_of_int nominal *. (1. -. (p /. 100.)) >= 10.)
    [ 99.9; 99.5; 99.; 98.; 97.5; 95.; 90.; 80.; 50. ]

let attempted = ref 0
let failed = ref 0
let problems = ref []

let problem msg =
  if List.length !problems < 20 then problems := msg :: !problems

let check cond msg = if not cond then problem msg

(* Individual timings behind a median, for the report line. *)
let details = ref []
let detail name xs = details := (name, xs) :: !details

(* Wall time spent in each kind of phase of the run, for the report line. *)
let phases = ref []
let last_mark = ref (now ())

let mark name =
  let t = now () in
  let prev = Option.value (List.assoc_opt name !phases) ~default:0. in
  phases := (name, prev +. t -. !last_mark) :: List.remove_assoc name !phases;
  last_mark := t

(* One client request; a failure is counted against the attempts. *)
let request f =
  incr attempted;
  match f () with
  | v -> Some v
  | exception e ->
      incr failed;
      problem ("request failed: " ^ Printexc.to_string e);
      None

(* ------------------------------------------------------------------ *)
(* Files                                                                *)
(* ------------------------------------------------------------------ *)

let work = ".perfbench_work"

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let dir_bytes dir =
  Array.fold_left
    (fun acc f -> acc + (Unix.stat (Filename.concat dir f)).Unix.st_size)
    0 (Sys.readdir dir)

let wal_bytes dir =
  Array.fold_left
    (fun acc f ->
      if Filename.check_suffix f ".log" then
        acc + (Unix.stat (Filename.concat dir f)).Unix.st_size
      else acc)
    0 (Sys.readdir dir)

(* ------------------------------------------------------------------ *)
(* Database                                                             *)
(* ------------------------------------------------------------------ *)

let coll = "db2-fn:xmlcolumn('ORDERS.ORDDOC')"

(* The XMLPATTERN indexes the paper's eligible queries probe, a
   relational index for the ingest deletes and the structural index the
   predicate-free axis pipelines are served from. *)
let index_ddl =
  [
    "CREATE INDEX li_price ON orders(orddoc) USING XMLPATTERN \
     '//lineitem/@price' AS DOUBLE";
    "CREATE INDEX li_price_v ON orders(orddoc) USING XMLPATTERN \
     '//lineitem/@price' AS VARCHAR(20)";
    "CREATE INDEX li_pid ON orders(orddoc) USING XMLPATTERN \
     '//lineitem/product/id' AS VARCHAR(20)";
    "CREATE INDEX o_id ON orders(ordid)";
    "CREATE STRUCTURAL INDEX s_ord ON orders(orddoc)";
  ]

let exec eng src = ignore (Engine.exec eng src)

(* Flush policy: sync:false on every side — each commit is written to
   the WAL file but not fsynced, so the figures measure the program and
   not the machine's disk. Parallelism is pinned to 1: one client, one
   core of work. *)
let open_db dir =
  let eng = Engine.open_db ~sync:false ~data_dir:dir () in
  Engine.set_parallelism eng 1;
  eng

(* Generate, parse, load, index and checkpoint a fresh collection of
   [n] orders. Returns the engine, the orders and the seconds taken. *)
let setup_once ~dir ~n =
  rm_rf dir;
  Gc.compact ();
  Trace.request "setup" (fun () ->
      let t0 = now () in
      let orders =
        Trace.span "gen.orders" (fun () -> Gen.orders ~seed ~stream:0 ~first:1 n)
      in
      let eng = open_db dir in
      exec eng "CREATE TABLE orders (ordid INTEGER, orddoc XML)";
      let docs =
        Trace.span "xmlparse.parse" (fun () ->
            Engine.parse_documents eng (List.map (fun o -> o.Gen.xml) orders))
      in
      Trace.span "engine.load" (fun () ->
          Engine.load_parsed_documents eng ~table:"orders" ~column:"orddoc" docs);
      Trace.span "engine.create_index" (fun () -> List.iter (exec eng) index_ddl);
      Trace.span "durable.checkpoint" (fun () -> Engine.checkpoint eng);
      (eng, orders, now () -. t0))

(* Set-up times. [setup_s] is their median: the set-up the run works on
   and one more in every cycle (see [run]), so that the samples are
   spread over the run and one slow spell of the host does not read as
   set-up cost. *)
let setup_times = ref []

let setup ~dir ~n =
  let eng, orders, dt = setup_once ~dir ~n in
  setup_times := dt :: !setup_times;
  (eng, orders)

(* A fresh set-up in a directory of its own, timed and thrown away. *)
let setup_sample ~dir ~n =
  let scratch = dir ^ "-setup" in
  let eng, _ = setup ~dir:scratch ~n in
  Engine.close eng;
  rm_rf scratch

(* ------------------------------------------------------------------ *)
(* Results: serialization and document identity                         *)
(* ------------------------------------------------------------------ *)

(* What a client receives: rows rendered as text, items serialized. *)
let render (o : Engine.outcome) =
  match o.Engine.payload with
  | Engine.Items items -> (List.length items, Engine.to_xml items)
  | Engine.Rows { rows; _ } ->
      ( List.length rows,
        String.concat "\n"
          (List.map
             (fun r -> String.concat "|" (List.map Storage.Sql_value.to_display r))
             rows) )

(* Distinct stored documents behind a result: node items by their
   document root, rows by their first column, the order id. [None] when
   the result does not tell (constructed nodes, atomic values). *)
let result_docs (o : Engine.outcome) =
  let distinct l = Some (List.length (List.sort_uniq compare l)) in
  match o.Engine.payload with
  | Engine.Items items ->
      let root = function
        | Xdm.Item.N nd ->
            let r = Xdm.Node.root nd in
            if r.Xdm.Node.kind = Xdm.Node.Document then Some r.Xdm.Node.id else None
        | Xdm.Item.A _ -> None
      in
      let roots = List.map root items in
      if List.mem None roots then None else distinct roots
  | Engine.Rows { rows; _ } -> distinct (List.map List.hd rows)

(* ------------------------------------------------------------------ *)
(* Per-statement work counters (profiled calls only)                    *)
(* ------------------------------------------------------------------ *)

(* Counters the program keeps per statement while profiling is on. *)
let counter_names =
  [
    "index_probes"; "index_entries_scanned"; "btree_page_reads"; "docs_scanned";
    "eval_steps"; "nodes_materialized"; "struct_probes"; "struct_entries";
    "btree_splits"; "undo_entries";
  ]

let counters eng =
  let all = Xprof.counters (Engine.profile eng) in
  List.map (fun k -> (k, List.assoc k all)) counter_names

let profiled eng f =
  Engine.set_profiling eng true;
  Fun.protect ~finally:(fun () -> Engine.set_profiling eng false) (fun () ->
      let r = f () in
      (r, counters eng))

module Counts = struct
  let tbl : (string, int) Hashtbl.t = Hashtbl.create 16
  let ops = ref 0

  let add cs =
    incr ops;
    List.iter
      (fun (k, v) ->
        Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
      cs

  let total k = Option.value ~default:0 (Hashtbl.find_opt tbl k)
  let per_op k = float_of_int (total k) /. float_of_int (max 1 !ops)
end

(* ------------------------------------------------------------------ *)
(* Statements                                                           *)
(* ------------------------------------------------------------------ *)

(* The predicate tree the planner receives for a probe statement. *)
let plan_tree (src, xml_params, mode) =
  let q = Xquery.Parser.parse_query src in
  let free = Xquery.Static.free_vars q in
  let q = Xquery.Static.resolve ~external_vars:free q in
  Eligibility.Extract.analyze ~xml_params
    ~scalar_params:
      (List.filter_map
         (fun v -> if List.mem_assoc v xml_params then None else Some (v, None))
         free)
    ~mode q

(* A probe statement: the paper's index-eligible shapes. The XQuery ones
   have one text, prepared once and bound to fresh seeded parameters,
   each cast explicitly (a bare $p is not eligible, Tip 1). SQL/XML
   passes only columns into an embedded query, so the SQL ones take
   their literal from a fixed set of eight texts: a few dozen distinct
   texts in all, well inside the plan cache. [bind] picks the text and
   the bindings of one call; [plan] gives the XML bindings and the
   analysis mode the planner sees. *)
type pstmt = {
  pid : string;
  texts : string array;
  bind : Gen.rng -> int * (string * string) list;
  plan : (string * string) list * [ `Value | `Exists ];
  plan_texts : string array;  (** the XQuery of each text *)
}

(* Thresholds that keep a call to a few tens of documents out of 5000. *)
let near_top r = [ ("p", Gen.price_text (99_800 + Gen.int r 100)) ]

let q1_src = coll ^ "//order[lineitem/@price > xs:double($p)]"

let probe_stmts =
  let xq pid src bind =
    { pid; texts = [| src |]; bind = (fun r -> (0, bind r)); plan = ([], `Value);
      plan_texts = [| src |] }
  in
  let sql pid fmt mode =
    let lit k = Gen.price_text (99_800 + (12 * k)) in
    {
      pid;
      texts = Array.init 8 (fun k -> fmt (lit k));
      bind = (fun r -> (Gen.int r 8, []));
      plan = ([ ("o", "ORDERS.ORDDOC") ], mode);
      plan_texts = Array.init 8 (fun k -> sp "$o//lineitem[@price > %s]" (lit k));
    }
  in
  [
    xq "Q1" q1_src near_top;
    xq "Q3"
      (coll ^ "//order[lineitem/@price > xs:string($s)]")
      (fun r -> [ ("s", sp "'998.%d'" (Gen.int r 10)) ]);
    sql "Q8"
      (sp "SELECT ordid FROM orders WHERE XMLExists('$o//lineitem[@price > %s]' \
           passing orddoc as \"o\")")
      `Exists;
    sql "Q11"
      (sp "SELECT o.ordid, t.li FROM orders o, XMLTable('$o//lineitem[@price > \
           %s]' passing o.orddoc as \"o\" COLUMNS \"li\" XML BY REF PATH '.') as \
           t(li)")
      `Value;
    xq "Q17"
      (sp "for $d in %s for $i in $d//lineitem[@price > xs:double($p)] \
           return <result>{$i}</result>" coll)
      near_top;
    xq "Q22" (sp "for $o in %s/order return $o/lineitem[@price > xs:double($p)]" coll) near_top;
    xq "Q27"
      (sp "for $i in %s/order/lineitem where $i/product/id = xs:string($pid) \
           return $i/quantity" coll)
      (fun r -> [ ("pid", sp "'p%d'" (1 + Gen.int r Gen.n_products)) ]);
    xq "Q30"
      (sp "for $i in %s//order[lineitem[@price > xs:double($lo) and @price < \
           xs:double($hi)]] return $i" coll)
      (fun r ->
        let lo = 99_700 + Gen.int r 200 in
        [ ("lo", Gen.price_text lo); ("hi", Gen.price_text (lo + 100)) ]);
  ]

let vars_of binds =
  List.map (fun (k, v) -> (k, [ Xdm.Item.A (Engine.atomic_of_string v) ])) binds

(* A probe statement's texts, each prepared once, with the predicate
   tree the planner receives for it. *)
type probe = {
  st : pstmt;
  stmts : (Engine.stmt * Eligibility.Predicate.t) array;
}

let prepare_probes eng =
  List.map
    (fun st ->
      {
        st;
        stmts =
          Array.mapi
            (fun k text ->
              (Engine.prepare eng text, plan_tree (st.plan_texts.(k), fst st.plan, snd st.plan)))
            st.texts;
      })
    probe_stmts

(* An ad-hoc scan statement: the ineligible twins of the paper's pairs
   and predicate-free axis pipelines, as text with fresh literals (and a
   request tag where the statement has no literal of its own), so that
   every call compiles. [expect] is its result count, computed from the
   generated orders. *)
type sstmt = { sid : string; text : string; expect : Gen.order list -> int }

let any_price_over x (o : Gen.order) =
  Array.exists (fun it -> float_of_int it.Gen.cents /. 100. > x) o.Gen.items

let lineitems os = List.fold_left (fun a o -> a + Array.length o.Gen.items) 0 os

(* a threshold no price equals: six decimals *)
let fresh_threshold r = sp "%d.%06d" (990 + Gen.int r 10) (Gen.int r 1_000_000)

let scan_stmt r k : sstmt =
  let x = fresh_threshold r in
  let xf = float_of_string x in
  let n os = List.length os in
  match k mod 12 with
  | 0 | 5 ->
      { sid = "Q2"; text = sp "%s//order[lineitem/@* > %s]" coll x;
        expect = (fun os -> List.length (List.filter (any_price_over xf) os)) }
  | 1 | 6 ->
      { sid = "Q9";
        text =
          sp "SELECT ordid FROM orders WHERE XMLExists('$o//lineitem/@price > \
              %s' passing orddoc as \"o\")" x;
        expect = n }
  | 2 | 7 ->
      { sid = "Q18";
        text =
          sp "for $d in %s let $i := $d//lineitem[@price > %s] return \
              <result>{$i}</result>" coll x;
        expect = n }
  | 3 | 8 ->
      { sid = "Q19";
        text =
          sp "for $o in %s/order return <result>{$o/lineitem[@price > %s]}</result>"
            coll x;
        expect = n }
  | 4 | 9 ->
      let pid = 1 + Gen.int r Gen.n_products in
      { sid = "Q26";
        text =
          sp "(: adhoc %d :) let $view := for $i in %s/order/lineitem return \
              <item quantity=\"{$i/quantity}\"><pid>{$i/product/id/data(.)}</pid></item> \
              for $j in $view where $j/pid = 'p%d' return $j" (Gen.int r 1_000_000_000)
            coll pid;
        expect =
          (fun os ->
            List.fold_left
              (fun a o ->
                a + Array.fold_left (fun a it -> if it.Gen.pid = pid then a + 1 else a) 0 o.Gen.items)
              0 os) }
  | 10 ->
      { sid = "S1";
        text = sp "(: adhoc %d :) %s//id/ancestor::lineitem" (Gen.int r 1_000_000_000) coll;
        expect = lineitems }
  | _ ->
      { sid = "S2";
        text = sp "(: adhoc %d :) %s//lineitem/preceding-sibling::*" (Gen.int r 1_000_000_000) coll;
        expect = (fun os -> lineitems os + List.length os) }

(* The paper's eligible / ineligible pairs, reported side by side: the
   eligible form's documents touched against its twin's full scan. *)
let pairs =
  let x = "998.5" in
  [
    ( "Q1/Q2",
      sp "%s//order[lineitem/@price > %s]" coll x,
      sp "%s//order[lineitem/@* > %s]" coll x );
    ( "Q8/Q9",
      sp "SELECT ordid FROM orders WHERE XMLExists('$o//lineitem[@price > %s]' \
          passing orddoc as \"o\")" x,
      sp "SELECT ordid FROM orders WHERE XMLExists('$o//lineitem/@price > %s' \
          passing orddoc as \"o\")" x );
    ( "Q17/Q18",
      sp "for $d in %s for $i in $d//lineitem[@price > %s] return \
          <result>{$i}</result>" coll x,
      sp "for $d in %s let $i := $d//lineitem[@price > %s] return \
          <result>{$i}</result>" coll x );
    ( "Q22/Q19",
      sp "for $o in %s/order return $o/lineitem[@price > %s]" coll x,
      sp "for $o in %s/order return <result>{$o/lineitem[@price > %s]}</result>" coll x );
    ( "Q27/Q26",
      sp "for $i in %s/order/lineitem where $i/product/id = 'p3' return \
          $i/quantity" coll,
      sp "let $view := for $i in %s/order/lineitem return <item \
          quantity=\"{$i/quantity}\"><pid>{$i/product/id/data(.)}</pid></item> \
          for $j in $view where $j/pid = 'p3' return $j" coll );
  ]

(* ------------------------------------------------------------------ *)
(* The timed loop                                                       *)
(* ------------------------------------------------------------------ *)

(* The mean of the middle half: robust to a hiccup like a median, but it
   averages over the fast and slow spells a shared host goes through
   instead of jumping between them. *)
let interquartile_mean l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  let lo = n / 4 and hi = max (n / 4 + 1) (n - (n / 4)) in
  let s = ref 0. in
  for i = lo to hi - 1 do
    s := !s +. a.(i)
  done;
  !s /. float_of_int (hi - lo)

(* Samples are kept only inside the timed slices, never in warm-ups. *)
let recording = ref false

let clock f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Read latencies, pooled for the tail and per statement for the typical
   latency: the geometric mean of each statement's median. The median of
   a pooled mix of statements would sit at the gap between two of them
   and jump across it from run to run. *)
let reads = Samples.create ()
let per_statement : (string, Samples.t) Hashtbl.t = Hashtbl.create 16

let read id f =
  let ((_, dt) as res) = clock f in
  if !recording then begin
    Samples.add reads (dt *. 1000.);
    let s =
      match Hashtbl.find_opt per_statement id with
      | Some s -> s
      | None ->
          let s = Samples.create () in
          Hashtbl.replace per_statement id s;
          s
    in
    Samples.add s (dt *. 1000.)
  end;
  res

(* Begin→Commit latencies of the timed phase (ingest_wire) and of the
   commit blocks between the slices (every workload). *)
let wire_commits = Samples.create ()
let block_commits = Samples.create ()

let commit samples f =
  let ((_, dt) as res) = clock f in
  if !recording || samples == block_commits then Samples.add samples (dt *. 1000.);
  res

(* The median of each commit phase: a timed slice on ingest_wire, a
   commit block elsewhere. Phases are short next to the host's spells,
   and a whole phase runs fast or slow; the pooled median of all commits
   would then jump between those levels with the share of slow phases.
   The typical commit latency is the geometric mean of the phase
   medians, which moves with that share smoothly. *)
let phase_p50s = ref []

let geo_mean l =
  exp (List.fold_left (fun a x -> a +. log x) 0. l /. float_of_int (max 1 (List.length l)))

let typical_ms () =
  geo_mean (Hashtbl.fold (fun _ s acc -> pct (Samples.to_array s) 50. :: acc) per_statement [])

(* Fixed loops, timed as context for the host's speed: one of pure
   arithmetic, one chasing pointers through 32 MiB (memory latency, which
   neighbours on a shared host move more than the arithmetic). They are
   reported, never gated, and never used to scale a metric. *)
let calibration () =
  let t0 = now () in
  let x = ref 0 in
  for i = 1 to 200_000_000 do
    x := (!x * 1103515245) + i land 0xffff
  done;
  ignore (Sys.opaque_identity !x);
  let t1 = now () in
  let n = 1 lsl 22 in
  let next = Array.init n (fun i -> i) in
  let r = Gen.rng 0 0 in
  for i = n - 1 downto 1 do
    let j = Gen.int r i in
    let t = next.(i) in
    next.(i) <- next.(j);
    next.(j) <- t
  done;
  let t2 = now () in
  let p = ref 0 in
  for _ = 1 to 4_000_000 do
    p := next.(!p)
  done;
  ignore (Sys.opaque_identity !p);
  (t1 -. t0, now () -. t2)

let layer_metrics : (string * string) list =
  [
    ("engine.prepare_ms", "ms");
    ("plan_cache.hit_ratio", "ratio");
    ("planner.plan_ms", "ms");
    ("planner.probe_precision", "ratio");
    ("xmlindex.index_probes", "count");
    ("xmlindex.entries_scanned", "count");
    ("btree.page_reads", "count");
    ("engine.execute_ms", "ms");
    ("engine.eval_ms", "ms");
    ("xquery.eval_steps", "count");
    ("xquery.nodes_materialized", "count");
    ("storage.docs_scanned", "count");
    ("storage.docs_scanned_per_row", "ratio");
    ("structindex.struct_probes", "count");
    ("structindex.struct_entries", "count");
    ("xmlparse.parse_us_per_kb", "us/KB");
    ("xmlparse.write_ms", "ms");
    ("engine.insert_ms", "ms");
    ("btree.splits", "count");
    ("storage.undo_entries", "count");
    ("wal.bytes_per_commit", "B");
    ("durable.checkpoint_ms", "ms");
    ("durable.redo_records", "count");
    ("durable.replay_ms", "ms");
    ("xnet.roundtrip_ms", "ms");
    ("xnet.server_ms", "ms");
    ("xnet.wire_overhead_ms", "ms");
    ("gc.minor_words_per_op", "words");
    ("gc.major_collections", "count");
    ("eligibility.pairs_probe_lt_scan", "count");
    ("eligibility.eligible_docs", "count");
    ("eligibility.ineligible_docs", "count");
    ("trace.untraced_ops_per_s", "1/s");
    ("trace.traced_ops_per_s", "1/s");
    ("trace.overhead_pct", "%");
    ("trace.span_self_ms", "ms");
    ("trace.residual_ms", "ms");
  ]

(* Per span name: mean self milliseconds per [per] operations. *)
let self_ms_per tbl name per =
  match Hashtbl.find_opt tbl name with
  | Some (_, self, _) -> self *. 1000. /. float_of_int (max 1 per)
  | None -> 0.

let mean_ms tbl name =
  match Hashtbl.find_opt tbl name with
  | Some (c, _, tot) -> tot *. 1000. /. float_of_int (max 1 c)
  | None -> 0.

(* Count, over a fixed sequence of profiled calls, the eligible/ineligible
   pairs whose eligible form touches fewer documents than its twin. *)
let eligibility_pairs eng =
  List.fold_left
    (fun (ok, e_docs, i_docs) (name, eligible, ineligible) ->
      let _, ce = profiled eng (fun () -> Engine.exec eng eligible) in
      let _, ci = profiled eng (fun () -> Engine.exec eng ineligible) in
      let d cs = List.assoc "docs_scanned" cs in
      let probes = List.assoc "index_probes" ce in
      Printf.eprintf "pair %s: eligible probes=%d docs=%d; ineligible docs=%d\n%!"
        name probes (d ce) (d ci);
      ((if probes > 0 && d ce < d ci then ok + 1 else ok), e_docs + d ce, i_docs + d ci))
    (0, 0, 0) pairs

(* ------------------------------------------------------------------ *)
(* Heap                                                                 *)
(* ------------------------------------------------------------------ *)

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(* The live heap the open engine in [cell] holds: the live heap with it,
   less the live heap once it is dropped. Everything else the process
   keeps cancels out. *)
let footprint_mb (cell : Engine.t option ref) =
  let w1 = live_words () in
  cell := None;
  let w0 = live_words () in
  float_of_int ((w1 - w0) * (Sys.word_size / 8)) /. 1048576.

(* ------------------------------------------------------------------ *)
(* The run shared by every workload                                     *)
(* ------------------------------------------------------------------ *)

(* A workload attached to an open engine: [round] runs its next round
   and returns (operations, seconds of client work), leaving out the
   time the benchmark spends checking outputs; [statements] is how many
   statements of a round could need compiling; [start] runs right before
   a timed slice, [detach] before the engine is closed. *)
type session = {
  round : unit -> int * float;
  statements : int;
  start : unit -> unit;
  detach : unit -> unit;
}

type workload = {
  n : int;  (** orders in the collection *)
  checks : Engine.t -> Gen.order list -> unit;  (** once, on the fresh set-up *)
  hit_bound : (string * (float -> bool)) option;
      (** the plan-cache hit ratio of the timed statements must satisfy it *)
  count_pass : Engine.t -> Gen.order Queue.t -> unit;
      (** traced runs: a fixed profiled sequence that fills [Counts] *)
  attach : Engine.t -> Gen.order Queue.t -> session;
  op_spans : string list;  (** the spans one operation consists of *)
  span_metrics : (string, int * float * float) Hashtbl.t -> ops:int -> (string * float) list;
  query_nominal : int;  (** the fixed sample counts the tails are taken at *)
  commit_nominal : int;
  commits_on_wire : bool;  (** commit metrics from the timed phase *)
}

(* The timed phase is cut into [cycles] slices. After each slice the
   workload detaches, a block of transactions commits, the engine is
   closed, a set-up sample runs, the data directory is reopened twice,
   and the next slice runs on the recovered database. Every measurement
   is thereby spread over the whole run, so a slow spell of the shared
   host moves a run less. *)
let cycles = 4
let block_txns = 125

let rates = ref []
let traced_rates = ref []

(* whether the current timed slice is traced *)
let slice_traced = ref false

(* Whole rounds until [secs] have passed (or exactly --rounds rounds). *)
let timed ~secs round =
  let k = ref 0 and ops = ref 0 in
  let t_end = now () +. secs in
  let more () = if !fixed_rounds > 0 then !k < !fixed_rounds else now () < t_end in
  while more () do
    let n, dt = round () in
    let r = float_of_int n /. dt in
    if !Trace.on then traced_rates := r :: !traced_rates else rates := r :: !rates;
    ops := !ops + n;
    incr k
  done;
  (!ops, !k)

let gc_mark () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.major_collections)

(* One new order in, the oldest order out, as one local transaction. *)
let commit_block eng live r ~m =
  let ins = Engine.prepare eng "INSERT INTO orders VALUES (?, ?)" in
  let del = Engine.prepare eng "DELETE FROM orders WHERE ordid = ?" in
  for _ = 1 to m do
    let o = Gen.order r !Gen.next_id in
    incr Gen.next_id;
    let old = Queue.pop live in
    Queue.push o live;
    ignore
      (request (fun () ->
           commit block_commits (fun () ->
               let tx = Engine.Txn.begin_ eng in
               ignore
                 (Engine.execute ~txn:tx
                    ~params:
                      [ Storage.Sql_value.Int (Int64.of_int o.Gen.oid);
                        Storage.Sql_value.Varchar o.Gen.xml ]
                    ins);
               ignore
                 (Engine.execute ~txn:tx
                    ~params:[ Storage.Sql_value.Int (Int64.of_int old.Gen.oid) ]
                    del);
               Engine.Txn.commit tx)))
  done

(* Four Q1 probes, compared before and after each recovery. *)
let sample eng =
  let stmt = Engine.prepare eng q1_src in
  List.init 4 (fun i ->
      let p = Gen.price_text (99_000 + (200 * i)) in
      snd (render (Engine.execute ~vars:(vars_of [ ("p", p) ]) stmt)))

let ids eng =
  List.map
    (fun r -> Storage.Sql_value.to_display (List.hd r))
    (Engine.outcome_rows (Engine.exec eng "SELECT ordid FROM orders"))

let rows eng =
  List.map
    (function
      | [ id; Storage.Sql_value.Xml items ] ->
          (Storage.Sql_value.to_display id, Engine.to_xml items)
      | _ -> ("?", ""))
    (Engine.outcome_rows (Engine.exec eng "SELECT ordid, orddoc FROM orders"))

(* per-layer values a workload fills in while it runs *)
let layer_values : (string * float) list ref = ref []
let set_layer k v = layer_values := (k, v) :: !layer_values

let run (w : workload) ~dir =
  Trace.on := !traced;
  let eng, orders = setup ~dir ~n:w.n in
  Trace.on := false;
  mark "setup";
  let kb = float_of_int (Gen.xml_bytes orders) /. 1024. in
  Gen.next_id := w.n + 1;
  let live = Queue.create () in
  List.iter (fun o -> Queue.push o live) orders;
  w.checks eng orders;
  if !traced then begin
    let ok, e_docs, i_docs = eligibility_pairs eng in
    set_layer "eligibility.pairs_probe_lt_scan" (float_of_int ok);
    set_layer "eligibility.eligible_docs" (float_of_int e_docs);
    set_layer "eligibility.ineligible_docs" (float_of_int i_docs);
    let g0 = gc_mark () in
    w.count_pass eng live;
    let g1 = gc_mark () in
    set_layer "gc.minor_words_per_op" ((fst g1 -. fst g0) /. float_of_int (max 1 !Counts.ops));
    set_layer "gc.major_collections" (float_of_int (snd g1 - snd g0))
  end;
  mark "checks";
  let cell = ref (Some eng) in
  let e () = Option.get !cell in
  let reopens = ref [] and compiled = ref 0 and statements = ref 0 and tops = ref 0 in
  let wal_grown = ref 0 and stored = ref 0 in
  let commit_r = Gen.rng seed 9 in
  for c = 1 to cycles do
    let s = w.attach (e ()) live in
    ignore (s.round ());
    Gc.compact ();
    mark "warm-up";
    let pc0 = Engine.plan_cache_stats (e ()) in
    slice_traced := !traced && c > cycles / 2;
    let wk0 = wire_commits.Samples.len in
    s.start ();
    recording := true;
    Trace.on := !slice_traced;
    let ops, rounds = timed ~secs:(seconds /. float_of_int cycles) s.round in
    if !Trace.on then tops := !tops + ops;
    Trace.on := false;
    recording := false;
    if w.commits_on_wire then
      phase_p50s := pct (Samples.since wire_commits wk0) 50. :: !phase_p50s;
    let pc1 = Engine.plan_cache_stats (e ()) in
    (* a stale entry is counted as a miss too *)
    compiled := !compiled + (pc1.misses - pc0.misses);
    statements := !statements + (rounds * s.statements);
    s.detach ();
    mark "timed";
    (* the slice ran a number of rounds that depends on the host's speed;
       a full collection puts the block at the same point of the GC's
       cycle in every run *)
    Gc.compact ();
    let w0 = wal_bytes dir in
    let bk0 = block_commits.Samples.len in
    commit_block (e ()) live commit_r ~m:block_txns;
    if not w.commits_on_wire then
      phase_p50s := pct (Samples.since block_commits bk0) 50. :: !phase_p50s;
    wal_grown := !wal_grown + (wal_bytes dir - w0);
    let before = sample (e ()) in
    let final = c = cycles in
    let rows_before = if final then rows (e ()) else [] in
    Engine.close (e ());
    if final then stored := dir_bytes dir;
    cell := None;
    mark "commits";
    (* a set-up sample, while no other engine is open *)
    setup_sample ~dir ~n:w.n;
    mark "setup";
    (* twice: the second reopen replays the same WAL *)
    for k = 1 to 2 do
      if k = 2 then begin
        Engine.close (e ());
        cell := None
      end;
      Gc.compact ();
      let t0 = now () in
      cell := Some (open_db dir);
      reopens := (now () -. t0) :: !reopens
    done;
    mark "reopen";
    check (sample (e ()) = before) "probe results differ before and after recovery";
    let want = List.of_seq (Seq.map (fun o -> string_of_int o.Gen.oid) (Queue.to_seq live)) in
    let got = ids (e ()) in
    check (got = want)
      (sp "recovered %d rows, not the %d committed" (List.length got) (List.length want));
    if final then begin
      check (rows (e ()) = rows_before) "recovered documents differ from the committed ones";
      List.iter
        (fun (idx, errs) ->
          if errs <> [] then problem (sp "index %s inconsistent: %s" idx (List.hd errs)))
        (Engine.check_consistency (e ()))
    end;
    mark "recovery checks"
  done;
  detail "reopen_runs_s" (List.rev !reopens);
  let redo = !(Xprof.Registry.counter (Engine.registry (e ())) "recovery_redo_records") in
  Engine.close (e ());
  let heap_mb = footprint_mb cell in
  let recovery_s = median !reopens in
  let live_xml = Seq.fold_left (fun a o -> a + String.length o.Gen.xml) 0 (Queue.to_seq live) in
  let hit = 1. -. (float_of_int !compiled /. float_of_int (max 1 !statements)) in
  Option.iter
    (fun (bound, ok) -> check (ok hit) (sp "plan-cache hit ratio %.4f, not %s" hit bound))
    w.hit_bound;
  detail "plan_cache_hit_ratio" [ hit ];
  detail "setup_runs_s" (List.rev !setup_times);
  let setup_s = median !setup_times in
  let commits = if w.commits_on_wire then wire_commits else block_commits in
  let reads = Samples.to_array reads and commits = Samples.to_array commits in
  let qpct = tail_pct ~nominal:w.query_nominal and cpct = tail_pct ~nominal:w.commit_nominal in
  let rate = interquartile_mean !rates in
  detail "query_tail_pct" [ qpct ];
  detail "commit_tail_pct" [ cpct ];
  detail "samples" [ float_of_int (Array.length reads); float_of_int (Array.length commits) ];
  detail "commit_phase_p50s_ms" (List.rev !phase_p50s);
  if not !traced then
    [
      ("setup_s", "s", setup_s);
      ("query_p50_ms", "ms", typical_ms ());
      ("query_tail_ms", "ms", pct reads qpct);
      ("ops_per_s", "1/s", rate);
      ("heap_live_mb", "MB", heap_mb);
      ("commit_p50_ms", "ms", geo_mean !phase_p50s);
      ("commit_tail_ms", "ms", pct commits cpct);
      ("recovery_s", "s", recovery_s);
      ("wal_bytes_per_doc_byte", "ratio", float_of_int !stored /. float_of_int (max 1 live_xml));
    ]
  else begin
    (* the snapshot-only reopen time, against which replay is the rest *)
    let e = open_db dir in
    Engine.checkpoint e;
    Engine.close e;
    let e, snap = clock (fun () -> open_db dir) in
    Engine.close e;
    let tbl = Trace.summary () in
    let self_sum =
      List.fold_left (fun a s -> a +. self_ms_per tbl s !tops) 0. w.op_spans
    in
    let trate = interquartile_mean !traced_rates in
    let values =
      [
        ("plan_cache.hit_ratio", hit);
        ("xmlindex.index_probes", Counts.per_op "index_probes");
        ("xmlindex.entries_scanned", Counts.per_op "index_entries_scanned");
        ("btree.page_reads", Counts.per_op "btree_page_reads");
        ("storage.docs_scanned", Counts.per_op "docs_scanned");
        ("xquery.eval_steps", Counts.per_op "eval_steps");
        ("xquery.nodes_materialized", Counts.per_op "nodes_materialized");
        ("structindex.struct_probes", Counts.per_op "struct_probes");
        ("structindex.struct_entries", Counts.per_op "struct_entries");
        ("btree.splits", Counts.per_op "btree_splits");
        ("storage.undo_entries", Counts.per_op "undo_entries");
        ( "xmlparse.parse_us_per_kb",
          match Hashtbl.find_opt tbl "xmlparse.parse" with
          | Some (n, _, tot) -> tot *. 1e6 /. float_of_int n /. kb
          | None -> 0. );
        ("wal.bytes_per_commit", float_of_int !wal_grown /. float_of_int (cycles * block_txns));
        ("durable.redo_records", float_of_int redo);
        ("durable.replay_ms", (recovery_s -. snap) *. 1000.);
        ("trace.untraced_ops_per_s", rate);
        ("trace.traced_ops_per_s", trate);
        ("trace.overhead_pct", (rate -. trate) /. rate *. 100.);
        ("trace.span_self_ms", self_sum);
        ("trace.residual_ms", (1000. /. rate) -. self_sum);
      ]
      @ List.rev !layer_values
      @ w.span_metrics tbl ~ops:!tops
    in
    (* the last value given wins; a layer this workload bypasses reads 0 *)
    List.map
      (fun (name, unit) ->
        (name, unit, List.fold_left (fun v (k, x) -> if k = name then x else v) 0. values))
      layer_metrics
  end

(* --- probe --------------------------------------------------------- *)

let probe =
  let probes_of eng = Array.of_list (prepare_probes eng) in
  let pick probes r i =
    let p = probes.(i mod Array.length probes) in
    let k, b = p.st.bind r in
    (p.st, fst p.stmts.(k), snd p.stmts.(k), b)
  in
  let run stmt b = Engine.execute ~vars:(vars_of b) stmt in
  let plan eng tree b =
    Planner.plan
      ~params:(List.map (fun (k, v) -> (k, Engine.atomic_of_string v)) b)
      (Engine.catalog eng) tree
  in
  let stream = Gen.rng seed 4 in
  {
    n = 5000;
    (* one seeded call of each statement: Definition 1 (index on ≡ index
       off), and at least one index probe *)
    checks =
      (fun eng _ ->
        let probes = probes_of eng and r = Gen.rng seed 3 in
        Array.iteri
          (fun i _ ->
            let st, stmt, _, b = pick probes r i in
            let o, cs = profiled eng (fun () -> run stmt b) in
            check (List.assoc "index_probes" cs >= 1) (sp "%s fired no index probe" st.pid);
            Engine.set_use_indexes eng false;
            let o' =
              Fun.protect ~finally:(fun () -> Engine.set_use_indexes eng true) (fun () ->
                  run stmt b)
            in
            check (render o = render o') (sp "%s: index on and index off disagree" st.pid))
          probes);
    hit_bound = Some (">= 0.99", fun h -> h >= 0.99);
    (* precision = result documents / documents the plan restricted to *)
    count_pass =
      (fun eng _ ->
        let probes = probes_of eng and r = Gen.rng seed 7 in
        let docs = ref 0 and restricted = ref 0 and scanned = ref 0 in
        for i = 0 to (2 * Array.length probes) - 1 do
          let _, stmt, tree, b = pick probes r i in
          let o, cs = profiled eng (fun () -> run stmt b) in
          Counts.add cs;
          match result_docs o with
          | Some d ->
              docs := !docs + d;
              scanned := !scanned + List.assoc "docs_scanned" cs;
              restricted :=
                List.fold_left
                  (fun a (_, s) -> a + Xdm.Int_set.cardinal s)
                  !restricted (plan eng tree b).Planner.restrictions
          | None -> ()
        done;
        set_layer "planner.probe_precision" (float_of_int !docs /. float_of_int (max 1 !restricted));
        set_layer "storage.docs_scanned_per_row" (float_of_int !scanned /. float_of_int (max 1 !docs)));
    attach =
      (fun eng _ ->
        let probes = probes_of eng in
        let n = 4 * Array.length probes in
        (* every text once, so the plan cache holds them all *)
        Array.iter
          (fun p -> Array.iter (fun (stmt, _) -> ignore (run stmt (snd (p.st.bind stream)))) p.stmts)
          probes;
        {
          round =
            (fun () ->
              let dt = ref 0. in
              for i = 0 to n - 1 do
                let st, stmt, tree, b = pick probes stream i in
                (match
                   request (fun () ->
                       Trace.request "probe.op" (fun () ->
                           read st.pid (fun () ->
                               let o = Trace.span "engine.execute" (fun () -> run stmt b) in
                               Trace.span "xmlparse.write" (fun () -> render o))))
                 with
                | Some (_, d) -> dt := !dt +. d
                | None -> ());
                (* traced: the same plan once more, apart, to time the planner *)
                if !Trace.on then
                  Trace.request "planner" (fun () ->
                      Trace.span "planner.plan" (fun () -> ignore (plan eng tree b)))
              done;
              (n, !dt));
          statements = n;
          start = ignore;
          detach = ignore;
        });
    op_spans = [ "probe.op"; "engine.execute"; "xmlparse.write" ];
    span_metrics =
      (fun tbl ~ops ->
        let exec_ms = self_ms_per tbl "engine.execute" ops in
        let plan_ms = mean_ms tbl "planner.plan" in
        [
          ("planner.plan_ms", plan_ms);
          ("engine.execute_ms", exec_ms);
          ("engine.eval_ms", exec_ms -. plan_ms);
          ("xmlparse.write_ms", self_ms_per tbl "xmlparse.write" ops);
          ("durable.checkpoint_ms", mean_ms tbl "durable.checkpoint");
        ]);
    query_nominal = 2000;
    commit_nominal = 500;
    commits_on_wire = false;
  }

(* --- scan ---------------------------------------------------------- *)

let scan =
  (* one ad-hoc call: compile, run, serialize *)
  let run_text eng text =
    let stmt = Trace.span "engine.prepare" (fun () -> Engine.prepare eng text) in
    let o = Trace.span "engine.execute" (fun () -> Engine.execute stmt) in
    fst (Trace.span "xmlparse.write" (fun () -> render o))
  in
  let stream = Gen.rng seed 4 in
  {
    n = 2000;
    (* one call of each statement: no index probe, and a scan of the
       whole collection (for the axis pipelines, a structural join) *)
    checks =
      (fun eng orders ->
        let r = Gen.rng seed 3 and n = List.length orders in
        for k = 0 to 11 do
          let st = scan_stmt r k in
          let got, cs = profiled eng (fun () -> run_text eng st.text) in
          let want = st.expect orders in
          check (got = want) (sp "%s returned %d, expected %d" st.sid got want);
          check (List.assoc "index_probes" cs = 0) (sp "%s probed an index" st.sid);
          if st.sid.[0] = 'Q' then
            check (List.assoc "docs_scanned" cs = n)
              (sp "%s scanned %d documents, not %d" st.sid (List.assoc "docs_scanned" cs) n)
          else check (List.assoc "struct_probes" cs > 0) (sp "%s made no structural join" st.sid)
        done);
    hit_bound = Some ("<= 0.01", fun h -> h <= 0.01);
    count_pass =
      (fun eng _ ->
        let r = Gen.rng seed 7 and rows = ref 0 in
        for k = 0 to 11 do
          let n, cs = profiled eng (fun () -> run_text eng (scan_stmt r k).text) in
          rows := !rows + n;
          Counts.add cs
        done;
        set_layer "storage.docs_scanned_per_row"
          (float_of_int (Counts.total "docs_scanned") /. float_of_int (max 1 !rows)));
    attach =
      (fun eng live ->
        let orders = List.of_seq (Queue.to_seq live) in
        {
          round =
            (fun () ->
              let dt = ref 0. in
              for i = 0 to 11 do
                let st = scan_stmt stream i in
                match
                  request (fun () ->
                      Trace.request "scan.op" (fun () ->
                          read st.sid (fun () -> run_text eng st.text)))
                with
                | Some (got, d) ->
                    dt := !dt +. d;
                    let want = st.expect orders in
                    check (got = want) (sp "%s returned %d, expected %d" st.sid got want)
                | None -> ()
              done;
              (12, !dt));
          statements = 12;
          start = ignore;
          detach = ignore;
        });
    op_spans = [ "scan.op"; "engine.prepare"; "engine.execute"; "xmlparse.write" ];
    span_metrics =
      (fun tbl ~ops ->
        let exec_ms = self_ms_per tbl "engine.execute" ops in
        [
          ("engine.prepare_ms", self_ms_per tbl "engine.prepare" ops);
          ("engine.execute_ms", exec_ms);
          ("engine.eval_ms", exec_ms);
          ("xmlparse.write_ms", self_ms_per tbl "xmlparse.write" ops);
          ("durable.checkpoint_ms", mean_ms tbl "durable.checkpoint");
        ]);
    query_nominal = 300;
    commit_nominal = 500;
    commits_on_wire = false;
  }

(* --- ingest_wire --------------------------------------------------- *)

let txns_per_round = 50
let wal_round_bytes = ref 0

(* One line of the server's stats text: the fields after [name]. *)
let stat_fields text name =
  List.find_map
    (fun line ->
      match String.split_on_char ' ' line |> List.filter (( <> ) "") with
      | n :: rest when n = name -> Some rest
      | _ -> None)
    (String.split_on_char '\n' text)

(* (observations, total ms) of the server's request-time histogram *)
let server_hist c =
  match stat_fields (Xnet.Client.stats c) "xnet_request_ms" with
  | Some (n :: m :: _) ->
      Scanf.sscanf (n ^ " " ^ m) "n=%d mean=%f" (fun n m -> (n, float_of_int n *. m))
  | _ -> (0, 0.)

let wire_spans =
  [ "xnet.begin"; "xnet.insert"; "xnet.delete"; "xnet.commit"; "xnet.execute";
    "xnet.cursor_open"; "xnet.fetch"; "xnet.cursor_close"; "xnet.checkpoint" ]

let ingest_wire =
  let cursor_src = sp "for $i in %s//order[lineitem/@price > xs:double($p)] return $i" coll in
  let gen_r = Gen.rng seed 5 and bind_r = Gen.rng seed 6 in
  let server_n = ref 0 and server_ms = ref 0. in
  let attach eng live =
    let server =
      Xnet.Server.start ~engine:eng { Xnet.Server.default_config with port = 0; max_sessions = 2 }
    in
    let c = Xnet.Client.connect ~host:"127.0.0.1" ~port:(Xnet.Server.port server) () in
    ignore (Xnet.Client.prepare c ~name:"ins" "INSERT INTO orders VALUES (?, ?)");
    ignore (Xnet.Client.prepare c ~name:"del" "DELETE FROM orders WHERE ordid = ?");
    ignore (Xnet.Client.prepare c ~name:"q1" q1_src);
    let nreq = ref 0 in
    let wire name f =
      incr nreq;
      request (fun () -> Trace.span name f)
    in
    let b ?(params = []) ?(vars = []) () = { Xnet.Proto.params; vars } in
    let dir = Option.get (Engine.data_dir eng) in
    let round () =
      let docs =
        Array.init (3 * txns_per_round) (fun i -> Gen.order gen_r (!Gen.next_id + i))
      in
      Gen.next_id := !Gen.next_id + Array.length docs;
      nreq := 0;
      let t0 = now () in
      for t = 0 to txns_per_round - 1 do
        Trace.request "ingest.txn" (fun () ->
            ignore
              (commit wire_commits (fun () ->
                   ignore (wire "xnet.begin" (fun () -> Xnet.Client.txn_begin c));
                   for j = 0 to 2 do
                     let o = docs.((3 * t) + j) in
                     let old = Queue.pop live in
                     Queue.push o live;
                     ignore
                       (wire "xnet.insert" (fun () ->
                            Xnet.Client.execute c "ins"
                              ~b:(b ~params:[ string_of_int o.Gen.oid; "'" ^ o.Gen.xml ^ "'" ] ())));
                     ignore
                       (wire "xnet.delete" (fun () ->
                            Xnet.Client.execute c "del"
                              ~b:(b ~params:[ string_of_int old.Gen.oid ] ())))
                   done;
                   ignore (wire "xnet.commit" (fun () -> Xnet.Client.txn_commit c)))));
        let vars = near_top bind_r in
        Trace.request "ingest.read" (fun () ->
            ignore
              (read "Q1" (fun () ->
                   wire "xnet.execute" (fun () -> Xnet.Client.execute c "q1" ~b:(b ~vars ())))))
      done;
      let vars = [ ("p", Gen.price_text (99_000 + Gen.int bind_r 500)) ] in
      Trace.request "ingest.cursor" (fun () ->
          match
            wire "xnet.cursor_open" (fun () -> Xnet.Client.open_cursor c cursor_src ~b:(b ~vars ()))
          with
          | Some (cur, _) -> (
              match wire "xnet.fetch" (fun () -> Xnet.Client.fetch c ~cursor:cur ~max:8) with
              | Some (_, false) ->
                  ignore (wire "xnet.cursor_close" (fun () -> Xnet.Client.close_cursor c cur))
              | _ -> ())
          | None -> ());
      (* the WAL just before the checkpoint holds this round's commits *)
      wal_round_bytes := wal_bytes dir;
      Trace.request "ingest.checkpoint" (fun () ->
          ignore (wire "xnet.checkpoint" (fun () -> Xnet.Client.checkpoint c)));
      (!nreq, now () -. t0)
    in
    let h0 = ref (0, 0.) in
    {
      round;
      (* the transactions' inserts and deletes, a read per transaction and
         the cursor *)
      statements = (7 * txns_per_round) + 1;
      start = (fun () -> if !slice_traced then h0 := server_hist c);
      detach =
        (fun () ->
          if !slice_traced then begin
            let n1, ms1 = server_hist c in
            server_n := !server_n + n1 - fst !h0;
            server_ms := !server_ms +. ms1 -. snd !h0
          end;
          Xnet.Client.close c;
          Xnet.Server.stop server);
    }
  in
  {
    n = 2000;
    checks = (fun _ _ -> ());
    hit_bound = None;
    (* one round with the engine's profiling on, counted by its registry:
       in concurrent (server) mode only the storage-level counters feed it *)
    count_pass =
      (fun eng live ->
        let reg = Engine.registry eng in
        let snap () =
          List.map (fun k -> (k, !(Xprof.Registry.counter reg (k ^ "_total")))) counter_names
        in
        let s = attach eng live in
        Engine.set_profiling eng true;
        let before = snap () in
        let n, _ = s.round () in
        let after = snap () in
        Engine.set_profiling eng false;
        s.detach ();
        Counts.add (List.map2 (fun (k, a) (_, b) -> (k, b - a)) before after);
        Counts.ops := n;
        set_layer "wal.bytes_per_commit"
          (float_of_int !wal_round_bytes /. float_of_int txns_per_round));
    attach;
    op_spans =
      [ "ingest.txn"; "ingest.read"; "ingest.cursor"; "ingest.checkpoint" ] @ wire_spans;
    span_metrics =
      (fun tbl ~ops:_ ->
        let sum spans =
          List.fold_left
            (fun (c, t) s ->
              match Hashtbl.find_opt tbl s with
              | Some (c', _, t') -> (c + c', t +. (t' *. 1000.))
              | None -> (c, t))
            (0, 0.) spans
        in
        let count, total = sum wire_spans in
        (* the server times the engine call of every request but a fetch
           or a cursor close; the rest of those requests' round trips is
           the wire *)
        let icount, itotal =
          sum (List.filter (fun s -> s <> "xnet.fetch" && s <> "xnet.cursor_close") wire_spans)
        in
        detail "xnet_requests_client_server" [ float_of_int icount; float_of_int !server_n ];
        [
          ("engine.insert_ms", mean_ms tbl "xnet.insert");
          ("engine.execute_ms", mean_ms tbl "xnet.execute");
          ("durable.checkpoint_ms", mean_ms tbl "xnet.checkpoint");
          ("xnet.roundtrip_ms", total /. float_of_int (max 1 count));
          ("xnet.server_ms", !server_ms /. float_of_int (max 1 !server_n));
          ("xnet.wire_overhead_ms", (itotal -. !server_ms) /. float_of_int (max 1 icount));
        ]);
    query_nominal = 500;
    commit_nominal = 500;
    commits_on_wire = true;
  }

(* ------------------------------------------------------------------ *)
(* Main                                                                 *)
(* ------------------------------------------------------------------ *)

let json_num v =
  if Float.is_finite v then sp "%.17g" v
  else begin
    problem "a metric is not a finite number";
    "0"
  end

let () =
  (try Unix.mkdir work 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let dir = Filename.concat work (sp "%s-%d" !workload (Unix.getpid ())) in
  at_exit (fun () ->
      rm_rf dir;
      rm_rf (dir ^ "-setup"));
  let calib_alu, calib_mem = calibration () in
  let w = match !workload with "probe" -> probe | "scan" -> scan | _ -> ingest_wire in
  let metrics = run w ~dir in
  if !traced then Trace.write (Filename.concat work (sp "trace-%s-%d.jsonl" !workload seed));
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit, v) -> sp "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit)
         metrics)
  in
  Printf.printf
    "{\"report\": {\"workload\": %S, \"seed\": %d, \"seconds\": %g, \"calibration_s\": %.4f, \
     \"calibration_mem_s\": %.4f, \"phases_s\": {%s}, %s\"problems\": [%s]}}\n"
    !workload seed seconds calib_alu calib_mem
    (String.concat ", " (List.rev_map (fun (k, v) -> sp "%S: %.3f" k v) !phases))
    (String.concat ""
       (List.rev_map
          (fun (k, xs) -> sp "%S: [%s], " k (String.concat ", " (List.map (sp "%.4f") xs)))
          !details))
    (String.concat ", " (List.map (sp "%S") (List.rev !problems)));
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (!problems = []) (max 1 !attempted) !failed body
