(** Benchmark harness: two tables and one loop.

    {b Experiments} ([main.exe] with no arguments): each pitfall section
    of the paper claims "the eligible formulation uses the index and wins,
    the seemingly-identical one scans the collection" (DESIGN.md §3). Each
    experiment builds its database, runs its DDL and times every variant:
    time per execution, result count, profiled probe/scan counters, the
    indexes the planner chose, speedup over the first variant. The numbers
    are ours (an in-memory engine, not DB2 on 2006 hardware); the *shape*
    is the reproduction target (EXPERIMENTS.md). E6 and E12 time nothing:
    test/t_construct.ml (Queries 23–25) and test/t_xindex.ml (tolerant
    indexing) assert their claims.

    {b Gates} ([main.exe [--out FILE] GATE...]): one record per CI gate —
    a measure function that returns a JSON section, and named assertions
    over that section. The loop runs the named gates, prints one line per
    assertion, writes every section as one JSON object to [FILE]
    (default [BENCH_micro.json]) and exits 1 if any assertion fails. *)

module J = Xprof.Json

(* ------------------------------------------------------------------ *)
(* The one timer                                                       *)
(* ------------------------------------------------------------------ *)

(** Batched samples of several workloads measured together. Each round
    takes one sample of every workload in turn — milliseconds per run
    over [batch] back-to-back runs, which amortizes clock-read noise on
    sub-millisecond statements — so scheduler drift and GC pressure land
    on all of them alike. Rounds stop after [iters], or once [secs] have
    elapsed; the first round always runs. *)
let sample ?(batch = 1) ?(secs = infinity) ~iters (fns : (unit -> unit) list)
    : Xprof.Hist.t list =
  let hists = List.map (fun _ -> Xprof.Hist.create ()) fns in
  let deadline = Unix.gettimeofday () +. secs in
  let rec round k =
    if k < iters && (k = 0 || Unix.gettimeofday () < deadline) then begin
      List.iter2
        (fun h f ->
          let t0 = Unix.gettimeofday () in
          for _ = 1 to batch do
            f ()
          done;
          Xprof.Hist.add h
            ((Unix.gettimeofday () -. t0) *. 1000. /. float_of_int batch))
        hists fns;
      round (k + 1)
    end
  in
  round 0;
  hists

(** Median ms/run of one workload. *)
let p50_ms ?batch ?secs ~iters f =
  Xprof.Hist.p50 (List.hd (sample ?batch ?secs ~iters [ f ]))

(** Per-run latencies of [f] run back to back for [secs]. *)
let for_secs secs f = List.hd (sample ~secs ~iters:max_int [ f ])

(* ------------------------------------------------------------------ *)
(* Databases and the paper-query corpus                                *)
(* ------------------------------------------------------------------ *)

let ddl db stmts = List.iter (fun s -> ignore (Engine.exec db s)) stmts

let index name on pattern ty =
  Printf.sprintf "CREATE INDEX %s ON %s USING XMLPATTERN '%s' AS %s" name on
    pattern ty

let li_price = index "li_price" "orders(orddoc)" "//lineitem/@price" "DOUBLE"

let li_price_v =
  index "li_price_v" "orders(orddoc)" "//lineitem/@price" "VARCHAR(20)"

let li_pid =
  index "li_pid" "orders(orddoc)" "//lineitem/product/id" "VARCHAR(20)"

let c_custid = index "c_custid" "customer(cdoc)" "/customer/id" "DOUBLE"

(** orders / customer / products with [n] generated orders. *)
let build_db n () =
  let db = Engine.create () in
  ddl db
    [
      "CREATE TABLE orders (ordid INTEGER, orddoc XML)";
      "CREATE TABLE customer (cid INTEGER, cdoc XML)";
      "CREATE TABLE products (id VARCHAR(13), name VARCHAR(32))";
    ];
  let p =
    { Workload.Orders_gen.default with n_customers = 200; n_products = 300 }
  in
  Engine.load_documents db ~table:"orders" ~column:"orddoc"
    (Workload.Orders_gen.orders p n);
  Engine.load_documents db ~table:"customer" ~column:"cdoc"
    (Workload.Orders_gen.customers p);
  ddl db
    (List.map
       (fun (id, name) ->
         Printf.sprintf "INSERT INTO products VALUES ('%s', '%s')" id name)
       (Workload.Orders_gen.products p));
  db

(** The gates' database: {!build_db} plus the four indexes the paper
    queries exercise. *)
let corpus_db ~n =
  let db = build_db n () in
  ddl db [ li_price; li_price_v; li_pid; c_custid ];
  db

(** Generated orders for bulk-load measurements. *)
let load_docs n =
  Workload.Orders_gen.orders
    { Workload.Orders_gen.default with n_customers = 50 }
    n

(** Every paper query whose evaluation is timing-meaningful, with a
    stable id: [(id, label, statement)]. Queries 4/6/10/12/14/20/23–25/
    28/29 are error-demonstration, namespace-setup or plan-inspection
    cases and are exercised in test/t_paper.ml instead. *)
let corpus : (string * string * string) list =
  [
    ( "Q1",
      "//order[lineitem/@price>990]",
      "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price>990]" );
    ( "Q2",
      "@* wildcard (scan)",
      "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@*>990]" );
    ( "Q3",
      "string predicate",
      "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price > \"990\"]" );
    ( "Q5",
      "XMLQuery select list",
      "SELECT XMLQuery('$o//lineitem[@price > 990]' passing orddoc as \
       \"o\") FROM orders" );
    ( "Q7",
      "stand-alone XQuery",
      "db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[@price > 990]" );
    ( "Q8",
      "XMLExists",
      "SELECT ordid, orddoc FROM orders WHERE \
       XMLExists('$o//lineitem[@price > 990]' passing orddoc as \"o\")" );
    ( "Q9",
      "boolean XMLExists (scan)",
      "SELECT ordid, orddoc FROM orders WHERE \
       XMLExists('$o//lineitem/@price > 990' passing orddoc as \"o\")" );
    ( "Q11",
      "XMLTable row-producer",
      "SELECT o.ordid, t.li FROM orders o, XMLTable('$o//lineitem[@price \
       > 990]' passing o.orddoc as \"o\" COLUMNS \"li\" XML BY REF PATH \
       '.') as t(li)" );
    ( "Q13",
      "product join in XQuery",
      "SELECT p.name FROM products p, orders o WHERE XMLExists('$o \
       //lineitem/product[id eq $pid]' passing o.orddoc as \"o\", p.id \
       as \"pid\")" );
    ( "Q15",
      "SQL-side XML join (scan)",
      "SELECT c.cid FROM orders o, customer c WHERE \
       XMLCast(XMLQuery('$o/order/custid' passing o.orddoc as \"o\") as \
       DOUBLE) = XMLCast(XMLQuery('$c/customer/id' passing c.cdoc as \
       \"c\") as DOUBLE)" );
    ( "Q16",
      "XQuery-side join + casts",
      "SELECT c.cid FROM orders o, customer c WHERE \
       XMLExists('$o/order[custid/xs:double(.) = \
       $c/customer/id/xs:double(.)]' passing o.orddoc as \"o\", c.cdoc \
       as \"c\")" );
    ( "Q17",
      "for binding",
      "for $d in db2-fn:xmlcolumn('ORDERS.ORDDOC') for $i in \
       $d//lineitem[@price > 990] return <result>{$i}</result>" );
    ( "Q18",
      "let binding (scan)",
      "for $d in db2-fn:xmlcolumn('ORDERS.ORDDOC') let $i := \
       $d//lineitem[@price > 990] return <result>{$i}</result>" );
    ( "Q19",
      "ctor in return (scan)",
      "for $o in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order return \
       <result>{$o/lineitem[@price > 990]}</result>" );
    ( "Q21",
      "let + where",
      "for $o in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order let $p := \
       $o/lineitem/@price where $p > 990 return \
       <result>{$o/lineitem}</result>" );
    ( "Q22",
      "bare path in return",
      "for $o in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order return \
       $o/lineitem[@price > 990]" );
    ( "Q26",
      "constructed view (scan)",
      "let $view := for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC') \
       /order/lineitem return <item quantity=\"{$i/quantity}\"> \
       <pid>{$i/product/id/data(.)}</pid></item> for $j in $view where \
       $j/pid = 'p3' return $j" );
    ( "Q27",
      "base collection",
      "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order/lineitem where \
       $i/product/id = 'p3' return $i/quantity" );
    ( "Q30",
      "attribute between",
      "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC') \
       //order[lineitem[@price>100 and @price<200]] return $i" );
  ]

let paper id =
  let _, _, src = List.find (fun (i, _, _) -> i = id) corpus in
  src

let count (o : Engine.outcome) =
  match o.Engine.payload with
  | Engine.Rows { rows; _ } -> List.length rows
  | Engine.Items items -> List.length items

(** One profiled run: the statement's outcome and its work counters. *)
let profiled db src =
  Engine.set_profiling db true;
  let o = Engine.exec db src in
  let counters = Xprof.counters (Engine.profile db) in
  Engine.set_profiling db false;
  (o, counters)

(* ------------------------------------------------------------------ *)
(* Experiments E1–E15                                                  *)
(* ------------------------------------------------------------------ *)

type stmt =
  | Query of string
  | Load of int
      (** bulk-load this many parsed orders into a fresh database from the
          experiment's spec, running the variant's DDL first *)

type variant = {
  label : string;
  stmt : stmt;
  indexed : bool;  (** false: the planner uses no index *)
  vddl : string list;
      (** run on the experiment's database first (for a [Load], on each
          fresh database) *)
}

type experiment = {
  id : string;
  claim : string;
  db : unit -> Engine.t;
  eddl : string list;
  variants : variant list;
}

let exp id claim db eddl variants = { id; claim; db; eddl; variants }

let v ?(indexed = true) ?(ddl = []) label src =
  { label; stmt = Query src; indexed; vddl = ddl }

let load ?(ddl = []) label n =
  { label; stmt = Load n; indexed = true; vddl = ddl }

(** A fresh engine with one table created and [docs] loaded into it. *)
let table_db create ~table ~column docs () =
  let db = Engine.create () in
  ddl db [ create ];
  Engine.load_documents db ~table ~column docs;
  db

let e13 n =
  let q = "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price>995]" in
  exp
    (Printf.sprintf "E13 (scaling, %d docs)" n)
    "eligible index probe vs collection scan as the collection grows \
     (selectivity fixed at ~1%)"
    (build_db n) [ li_price ]
    [ v ~indexed:false "scan" q; v "indexed" q ]

let experiments : experiment list =
  [
    exp "E1 (§2.2, Queries 1–2)"
      "li_price is eligible for Query 1 (pattern ⊇ query) but not Query 2 \
       (@* is less restrictive than the index)"
      (build_db 4000) [ li_price ]
      [
        v ~indexed:false "Query 1, collection scan" (paper "Q1");
        v "Query 1, indexed" (paper "Q1");
        v "Query 2 (@*), indexed plan = scan" (paper "Q2");
      ];
    exp "E2 (§3.1, Query 3)"
      "a quoted literal makes the predicate a *string* comparison: the \
       DOUBLE index is ineligible, a VARCHAR index serves it (with string \
       ordering!)"
      (build_db 4000) [ li_price; li_price_v ]
      [
        v ~indexed:false "numeric predicate, scan" (paper "Q1");
        v "numeric predicate (DOUBLE index)" (paper "Q1");
        v "string predicate (VARCHAR index)" (paper "Q3");
      ];
    exp "E3 (§3.2, Queries 5–12)"
      "XMLQuery in the select list cannot filter (all rows, no index); \
       XMLExists and the XMLTable row-producer can; a boolean inside \
       XMLExists silently selects everything"
      (build_db 4000) [ li_price ]
      [
        v "Query 5: XMLQuery select list" (paper "Q5");
        v "Query 8: XMLExists" (paper "Q8");
        v "Query 9: boolean XMLExists (trap)" (paper "Q9");
        v "Query 7: stand-alone XQuery" (paper "Q7");
        v "Query 11: XMLTable row-producer" (paper "Q11");
      ];
    exp "E4 (§3.3, Queries 13–16)"
      "joins expressed in XQuery use XML indexes (nested-loop probes); \
       SQL-side joins through XMLCast use none"
      (build_db 1500) [ li_pid; c_custid ]
      [
        v "Query 15: SQL-side XML join" (paper "Q15");
        v "Query 16: XQuery-side join + casts" (paper "Q16");
        v "Query 13: product join in XQuery" (paper "Q13");
        v ~indexed:false "Query 13 without li_pid (scan)" (paper "Q13");
      ];
    exp "E5 (§3.4, Queries 17–22)"
      "for-bindings and where-clauses filter (indexable); let-bindings and \
       constructor-wrapped predicates preserve empties (full scan, \
       different results)"
      (build_db 4000) [ li_price ]
      [
        v "Query 18: let (scan, 1 result/doc)" (paper "Q18");
        v "Query 17: for" (paper "Q17");
        v "Query 21: let + where" (paper "Q21");
        v "Query 19: ctor in return (scan)" (paper "Q19");
        v "Query 22: bare path in return" (paper "Q22");
      ];
    exp "E7 (§3.6, Queries 26–27)"
      "predicates over a constructed view cannot be pushed down (fresh node \
       identities, untypedAtomic): the view query materializes everything; \
       the base-collection rewrite uses the index"
      (build_db 4000) [ li_pid ]
      [
        v "Query 26: constructed view" (paper "Q26");
        v "Query 27: base collection" (paper "Q27");
      ];
    (let q =
       "declare namespace c=\"http://ournamespaces.com/customer\"; \
        db2-fn:xmlcolumn('CUSTOMER.CDOC')/c:customer[c:nation = 1]"
     in
     exp "E8 (§3.7, Query 28)"
       "an index without namespace declarations only holds no-namespace \
        elements: ineligible for namespaced queries; the *:wildcard index \
        works"
       (table_db "CREATE TABLE customer (cid INTEGER, cdoc XML)"
          ~table:"customer" ~column:"cdoc"
          (Workload.Orders_gen.customers
             {
               Workload.Orders_gen.default with
               n_customers = 4000;
               namespace = Some "http://ournamespaces.com/customer";
             }))
       [ index "c_nation" "customer(cdoc)" "//nation" "DOUBLE" ]
       [
         v "only ns-less c_nation = scan" q;
         v "with //*:nation wildcard index" q
           ~ddl:[ index "c_nation_ns2" "customer(cdoc)" "//*:nation" "DOUBLE" ];
       ]);
    (let q =
       "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/price/text() > \
        \"99\"]"
     in
     exp "E9 (§3.8, Query 29)"
       "a /text() query cannot use an element-value index (they disagree on \
        nodes like <price>99.50<currency>USD</currency></price>); it needs a \
        /text() index"
       (table_db "CREATE TABLE orders (ordid INTEGER, orddoc XML)"
          ~table:"orders" ~column:"orddoc"
          (Workload.Orders_gen.orders
             { Workload.Orders_gen.default with string_price_frac = 0.3 }
             4000))
       [ index "price_el" "orders(orddoc)" "//price" "VARCHAR(30)" ]
       [
         v "only element index = scan" q;
         v "with //price/text() index" q
           ~ddl:
             [
               index "price_tx" "orders(orddoc)" "//price/text()"
                 "VARCHAR(30)";
             ];
       ]);
    exp "E10 (§3.9, Tip 12)"
      "//* and //node() indexes contain no attribute nodes; the broad //@* \
       index covers a numeric predicate on *any* attribute"
      (build_db 4000)
      [ index "broad_el" "orders(orddoc)" "//*" "VARCHAR(50)" ]
      [
        v "only //* index = scan" (paper "Q1");
        v "with //@* broad attribute index" (paper "Q1")
          ~ddl:
            [
              "DROP INDEX broad_el";
              index "broad_at" "orders(orddoc)" "//@*" "DOUBLE";
            ];
      ];
    (let merged =
       "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem[@price>500 and \
        @price<510]]"
     in
     exp "E11 (§3.10, Query 30)"
       "between: a singleton-safe pair is ONE range scan (few entries \
        scanned); a general pair is index ANDing of two scans"
       (build_db 4000)
       [
         li_price;
         index "price_el" "orders(orddoc)" "//lineitem/price" "DOUBLE";
       ]
       [
         v "IXAND: two scans + intersect"
           "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/price > 500 and \
            lineitem/price < 510]";
         v "merged: single range scan" merged;
         v ~indexed:false "no index (scan)" merged;
       ]);
    e13 1000;
    e13 4000;
    e13 16000;
    exp "E14 (§2.1)"
      "maintenance: insert cost of 200 parsed orders vs number (and breadth) \
       of indexes (the paper's \"staggering\" index-everything warning)"
      (table_db "CREATE TABLE orders (ordid INTEGER, orddoc XML)"
         ~table:"orders" ~column:"orddoc" [])
      []
      [
        load "no indexes" 200;
        load "1 path index" 200
          ~ddl:[ index "i1" "orders(orddoc)" "//lineitem/@price" "DOUBLE" ];
        load "3 path indexes" 200
          ~ddl:
            [
              index "i1" "orders(orddoc)" "//lineitem/@price" "DOUBLE";
              index "i2" "orders(orddoc)" "//custid" "DOUBLE";
              index "i3" "orders(orddoc)" "//product/id" "VARCHAR(20)";
            ];
        load "broad //@* + //* indexes" 200
          ~ddl:
            [
              index "b1" "orders(orddoc)" "//@*" "DOUBLE";
              index "b2" "orders(orddoc)" "//*" "VARCHAR(60)";
            ];
      ];
    (* RSS feeds carry several numeric attributes (fileSize, lat, long,
       version): a broad //@* index is much larger than a targeted one *)
    (let q =
       "declare namespace media = \"http://search.yahoo.com/mrss/\"; \
        db2-fn:xmlcolumn('FEEDS.FEED')//item[media:content/@fileSize > \
        95000]"
     in
     exp "E15 (ablation, §2.1)"
       "path-specific vs broad indexing: thanks to the path table and \
        value-major keys a broad //@* index still probes one value range, \
        but it stores (and maintains) every numeric attribute"
       (table_db "CREATE TABLE feeds (fid INTEGER, feed XML)" ~table:"feeds"
          ~column:"feed"
          (Workload.Feeds_gen.feeds
             { Workload.Feeds_gen.default with extension_frac = 0.6 }
             4000))
       []
       [
         v ~indexed:false "no index (scan)" q;
         v "broad //@* index" q
           ~ddl:[ index "broad_at" "feeds(feed)" "//@*" "DOUBLE" ];
         v "targeted @fileSize index" q
           ~ddl:
             [
               "DROP INDEX broad_at";
               index "fsize" "feeds(feed)" "//*:content/@fileSize" "DOUBLE";
             ];
       ]);
  ]

(** Run [stmts] on [db], then print the entry count of every XML index
    (what a broad index costs to store). *)
let setup db stmts =
  if stmts <> [] then begin
    ddl db stmts;
    List.iter
      (fun (i : Xmlindex.Xindex.t) ->
        Printf.printf "  index %s: %d entries\n" i.def.iname
          (Xmlindex.Xindex.entry_count i))
      (Engine.xml_indexes db)
  end

(** Median ms per execution over about half a second of batched samples,
    each batch lasting at least a millisecond. *)
let time_per_exec run =
  let once = Float.max (p50_ms ~iters:1 run) 1e-3 in
  p50_ms ~batch:(max 1 (truncate (1. /. once))) ~secs:0.5 ~iters:max_int run

let run_experiment e =
  Printf.printf "\n%s — %s\n" e.id e.claim;
  let db = e.db () in
  setup db e.eddl;
  Printf.printf "  %-38s %12s %7s  %-20s %-18s %s\n" "variant" "time/exec"
    "results" "probes/entries/docs" "indexes" "speedup";
  let base = ref None in
  let variant v =
    let statement src =
      setup db v.vddl;
      Engine.set_use_indexes db v.indexed;
      let o, counters = profiled db src in
      let c name = List.assoc name counters in
      ( (fun () -> ignore (Engine.exec db src)),
        count o,
        Printf.sprintf "%d/%d/%d" (c "index_probes")
          (c "index_entries_scanned") (c "docs_scanned"),
        match o.indexes_used with [] -> "none" | l -> String.concat "," l )
    in
    let run, rows, counters, used =
      match v.stmt with
      | Query src -> statement src
      | Load n ->
          let parsed =
            Engine.parse_documents (Engine.create ()) (load_docs n)
          in
          let load () =
            let fresh = e.db () in
            ddl fresh v.vddl;
            Engine.load_parsed_documents fresh ~table:"orders" ~column:"orddoc"
              parsed
          in
          (load, n, "-", Printf.sprintf "%d" (List.length v.vddl))
    in
    let ms = time_per_exec run in
    Engine.set_use_indexes db true;
    let b = Option.value !base ~default:ms in
    base := Some b;
    Printf.printf "  %-38s %9.3f ms %7d  %-20s %-18s %.1fx\n%!" v.label ms rows
      counters used (b /. ms)
  in
  List.iter variant e.variants

(* ------------------------------------------------------------------ *)
(* Gates                                                               *)
(* ------------------------------------------------------------------ *)

(** Generous-but-armed limits: every budget far above what any corpus
    query uses, so the armed runs measure metering cost, not throttling. *)
let generous_limits =
  {
    Xdm.Limits.max_steps = Some 1_000_000_000;
    max_nodes = Some 1_000_000_000;
    max_depth = Some 10_000;
    timeout = Some 300.;
  }

let floats kvs = J.Obj (List.map (fun (k, f) -> (k, J.Float f)) kvs)
let ints kvs = J.Obj (List.map (fun (k, i) -> (k, J.Int i)) kvs)

let sample2 ?batch ~iters f g =
  match sample ?batch ~iters [ f; g ] with
  | [ a; b ] -> (a, b)
  | _ -> assert false

(** The paper-query corpus over 150 orders: per-query latency
    percentiles (profiling off), the counters of one profiled run, the
    eligible/ineligible probe-vs-scan pairs, and the governor overhead:
    each query is timed unarmed and with {!generous_limits} armed,
    interleaved. *)
let micro () =
  let db = corpus_db ~n:150 in
  let queries =
    List.map
      (fun (id, label, src) ->
        let o, counters = profiled db src in
        let lat, armed =
          sample2 ~iters:3
            (fun () -> ignore (Engine.exec db src))
            (fun () -> ignore (Engine.exec ~limits:generous_limits db src))
        in
        let off = Xprof.Hist.p50 lat and on = Xprof.Hist.p50 armed in
        ( (id, counters),
          (on -. off) /. off *. 100.,
          J.Obj
            [
              ("id", J.Str id);
              ("label", J.Str label);
              ("rows", J.Int (count o));
              ("latency_ms", Xprof.Hist.summary_json lat);
              ("armed_p50_ms", J.Float on);
              ("counters", ints counters);
            ] ))
      corpus
  in
  let counter id name =
    List.assoc name (List.assoc id (List.map (fun (c, _, _) -> c) queries))
  in
  let pair (elig, inelig) =
    J.Obj
      [
        ("pair", J.Str (elig ^ "/" ^ inelig));
        ("index_probes", J.Int (counter elig "index_probes"));
        ("docs_scanned", J.Int (counter inelig "docs_scanned"));
      ]
  in
  let gov = Xprof.Hist.create () in
  List.iter
    (fun (_, pct, _) -> if Float.is_finite pct then Xprof.Hist.add gov pct)
    queries;
  J.Obj
    [
      ("queries", J.Arr (List.map (fun (_, _, j) -> j) queries));
      ( "pairs",
        J.Arr
          (List.map pair
             [
               ("Q1", "Q2");
               ("Q8", "Q9");
               ("Q16", "Q15");
               ("Q17", "Q18");
               ("Q22", "Q19");
               ("Q27", "Q26");
             ]) );
      ("governor_overhead_pct", Xprof.Hist.summary_json gov);
    ]

(** Cold (plan cache dropped every run) vs warm (cache hit) vs prepared
    p50 on the compile-sensitive corpus subset — indexed, selective
    queries where parse + resolve + eligibility analysis is a visible
    share of latency — plus cursor first-row vs full-materialization
    latency on scan-heavy statements. *)
let prepared () =
  let db = corpus_db ~n:150 in
  let iters = 21 and batch = 5 in
  let query (id, _, src) =
    let st = Engine.prepare db src in
    let cold () =
      Engine.reset_plan_cache db;
      ignore (Engine.exec db src)
    in
    let warm () = ignore (Engine.exec db src) in
    let prep () = ignore (Engine.execute st) in
    let p50s =
      List.map Xprof.Hist.p50 (sample ~iters ~batch [ cold; warm; prep ])
    in
    J.Obj
      [
        ("id", J.Str id);
        ("rows", J.Int (count (Engine.exec db src)));
        ("cold_p50_ms", J.Float (List.nth p50s 0));
        ("warm_p50_ms", J.Float (List.nth p50s 1));
        ("prepared_p50_ms", J.Float (List.nth p50s 2));
      ]
  in
  let cursor src =
    let full, first_row =
      sample2 ~iters ~batch
        (fun () -> ignore (Engine.exec db src))
        (fun () ->
          let cur = Engine.open_cursor db src in
          ignore (Engine.Cursor.next cur);
          Engine.Cursor.close cur)
    in
    J.Obj
      [
        ("statement", J.Str src);
        ("rows", J.Int (count (Engine.exec db src)));
        ("first_row_p50_ms", J.Float (Xprof.Hist.p50 first_row));
        ("full_p50_ms", J.Float (Xprof.Hist.p50 full));
      ]
  in
  let queries =
    List.filter
      (fun (id, _, _) ->
        List.mem id [ "Q1"; "Q3"; "Q7"; "Q8"; "Q11"; "Q27"; "Q30" ])
      corpus
    |> List.map query
  in
  let cursors =
    List.map cursor
      [
        "db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem";
        "SELECT ordid FROM orders";
        "for $d in db2-fn:xmlcolumn('ORDERS.ORDDOC') return $d//order/lineitem";
      ]
  in
  let (c : Engine.Plan_cache.stats) = Engine.plan_cache_stats db in
  J.Obj
    [
      ("queries", J.Arr queries);
      ("cursor", J.Arr cursors);
      ("plan_cache", ints [ ("hits", c.hits); ("misses", c.misses) ]);
    ]

(** Sustained QPS and tail latency through the Xnet wire protocol at
    1/4/16 concurrent client connections, and the cold-vs-warm plan-cache
    contrast over the wire. The server runs in-process on an ephemeral
    port: the numbers include the full round trip (encode, loopback TCP,
    decode, engine, reply) but no second process. *)
let server () =
  let db = corpus_db ~n:150 in
  let srv =
    Xnet.Server.start ~engine:db
      { Xnet.Server.default_config with port = 0; max_sessions = 64 }
  in
  let port = Xnet.Server.port srv in
  (* an index-eligible paper query: the steady-state request mix the
     paper argues becomes servable *)
  let query = paper "Q1" in
  let conn = Xnet.Client.connect ~host:"127.0.0.1" ~port () in
  (* the reset happens between requests with no statement in flight, so
     it cannot race the session thread *)
  let cold, warm =
    sample2 ~iters:5
      (fun () ->
        Engine.reset_plan_cache db;
        ignore (Xnet.Client.exec conn query))
      (fun () -> ignore (Xnet.Client.exec conn query))
  in
  Xnet.Client.close conn;
  let hits () = (Engine.plan_cache_stats db).Engine.Plan_cache.hits in
  let hits_before = hits () in
  (* [clients] connections each firing the query back to back for 0.4 s *)
  let level clients =
    let lats = Array.make clients (Xprof.Hist.create ()) in
    let t0 = Unix.gettimeofday () in
    let body i =
      let c = Xnet.Client.connect ~host:"127.0.0.1" ~port () in
      Fun.protect
        ~finally:(fun () -> Xnet.Client.close c)
        (fun () ->
          lats.(i) <-
            for_secs 0.4 (fun () -> ignore (Xnet.Client.exec c query)))
    in
    List.iter Thread.join (List.init clients (Thread.create body));
    let elapsed = Unix.gettimeofday () -. t0 in
    let h = Xprof.Hist.create () in
    Array.iter
      (fun l -> Array.iter (Xprof.Hist.add h) (Xprof.Hist.sorted l))
      lats;
    ( string_of_int clients,
      J.Obj
        [
          ("qps", J.Float (float_of_int (Xprof.Hist.count h) /. elapsed));
          ("latency_ms", Xprof.Hist.summary_json h);
        ] )
  in
  let levels = List.map level [ 1; 4; 16 ] in
  Xnet.Server.stop srv;
  J.Obj
    [
      ("backend", J.Str Xpar.backend);
      ("cold_p50_ms", J.Float (Xprof.Hist.p50 cold));
      ("warm_p50_ms", J.Float (Xprof.Hist.p50 warm));
      ("clients", J.Obj levels);
      (* every concurrent client's compile after the first is a hit on
         the cache another session warmed *)
      ( "plan_cache",
        ints [ ("hits_before_load", hits_before); ("hits", hits ()) ] );
    ]

(** Reader tail latency while a bulk-loading read-write transaction
    runs, against an idle engine: reads run on pinned MVCC snapshots and
    must not queue behind the writer. Also reports writer throughput and
    the begin/commit round trip of an empty transaction. *)
let txn () =
  let db = corpus_db ~n:150 in
  Engine.enable_concurrent db;
  (* the reader probes a table the load never touches: the measurement
     is whether readers queue behind the writer, so the reader's own data
     must not grow under it mid-phase *)
  let query = "db2-fn:xmlcolumn('CUSTOMER.CDOC')/customer[id = 7]" in
  ignore (Engine.exec db query);
  let read () = for_secs 0.5 (fun () -> ignore (Engine.exec db query)) in
  let idle = read () in
  (* back-to-back explicit transactions of 20 inserts each. One constant
     statement text, so the load compiles once and then hits the shared
     plan cache: a flood of unique statements would measure cache
     eviction, not snapshot isolation *)
  let insert =
    "INSERT INTO orders VALUES (1000000, '<order id=\"1000000\"><lineitem \
     price=\"5.0\"><product><id>BULK</id></product></lineitem></order>')"
  in
  let stop = Atomic.make false in
  let commits = ref 0 in
  let writer =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          let tx = Engine.Txn.begin_ db in
          for _ = 1 to 20 do
            ignore (Engine.exec ~txn:tx db insert)
          done;
          Engine.Txn.commit tx;
          incr commits
        done)
      ()
  in
  let loaded = read () in
  Atomic.set stop true;
  Thread.join writer;
  let visible =
    Engine.exec db "SELECT ordid FROM orders WHERE ordid >= 1000000"
  in
  let empty_txn () = Engine.Txn.commit (Engine.Txn.begin_ db) in
  J.Obj
    [
      ( "reader_ms",
        J.Obj
          [
            ("idle", Xprof.Hist.summary_json idle);
            ("during_load", Xprof.Hist.summary_json loaded);
          ] );
      ( "writer",
        J.Obj
          [
            ("commits", J.Int !commits);
            ("rows", J.Int (20 * !commits));
            ("rows_per_s", J.Float (float_of_int (20 * !commits) /. 0.5));
          ] );
      ("visible_rows", J.Int (count visible));
      ("empty_txn_p50_ms", J.Float (p50_ms ~iters:5 ~batch:50 empty_txn));
    ]

(** A deterministic document of 3^[depth] shape: nested [s] sections
    bottoming out in [id] leaves, so [//id/ancestor::*] touches every
    level on the way back up. *)
let rec struct_doc ~depth seed k =
  if depth = 0 then Printf.sprintf "<id>%d</id>" (seed + k)
  else
    Printf.sprintf "<s i=\"%d\">%s</s>" k
      (String.concat ""
         (List.init 3 (fun c ->
              struct_doc ~depth:(depth - 1) seed ((k * 3) + c))))

(** Reverse-axis latency, structural join vs tree-walk, at three
    document sizes (~13 / ~120 / ~1100 elements per document). The query
    [//id/ancestor::*] is the staircase join's best case: navigation
    re-walks a parent chain per context node where the join's early stop
    makes the whole axis amortized linear. *)
let structural () =
  let q = "db2-fn:xmlcolumn('T.D')//id/ancestor::*" in
  let tier (name, docs, depth) =
    let db = Engine.create () in
    ignore (Engine.exec db "CREATE TABLE t (a integer, d XML)");
    let texts = List.init docs (fun i -> struct_doc ~depth (i * 10_000) 0) in
    Engine.load_documents db ~table:"t" ~column:"d" texts;
    let nodes =
      List.fold_left
        (fun acc d ->
          acc
          + Xmlindex.Structindex.tree_size
              (Xmlparse.Xml_parser.parse_document d))
        0 texts
    in
    let run () = ignore (Engine.exec db q) in
    let p50_with indexes =
      Engine.set_use_indexes db indexes;
      run ();
      p50_ms ~iters:7 run
    in
    let nav = p50_with false in
    let st = p50_with true in
    ( name,
      J.Obj
        [
          ("n_docs", J.Int docs);
          ("nodes_per_doc", J.Int (nodes / docs));
          ("treewalk_p50_ms", J.Float nav);
          ("structural_p50_ms", J.Float st);
        ] )
  in
  J.Obj
    (List.map tier [ ("small", 40, 2); ("medium", 40, 4); ("large", 12, 6) ])

(** p50 latency of scan-shaped work at parallelism 1/2/4: the
    index-ineligible collection scan (Q2's wildcard predicate), the
    multi-probe index AND (Q30's between merge) and a bulk load + index
    build. *)
let parallel () =
  let db = corpus_db ~n:300 in
  let docs = load_docs 150 in
  let load () =
    let fresh = Engine.create () in
    ddl fresh [ "CREATE TABLE orders (ordid INTEGER, orddoc XML)"; li_price ];
    Engine.set_parallelism fresh (Engine.parallelism db);
    Engine.load_documents fresh ~table:"orders" ~column:"orddoc" docs
  in
  let exec src () = ignore (Engine.exec db src) in
  let at_level run p =
    Engine.set_parallelism db p;
    run ();
    (string_of_int p, p50_ms ~iters:11 run)
  in
  let workload (name, run) =
    (name, J.Obj [ ("p50_ms", floats (List.map (at_level run) [ 1; 2; 4 ])) ])
  in
  let workloads =
    List.map workload
      [
        ("scan", exec (paper "Q2"));
        ("index_and", exec (paper "Q30"));
        ("load", load);
      ]
  in
  Engine.set_parallelism db 1;
  J.Obj (("backend", J.Str Xpar.backend) :: workloads)

(** Run [f] on a fresh data directory, removed afterwards. *)
let in_fresh_dir f =
  let dir = Filename.temp_file "xqdb-bench" ".xqdb" in
  Sys.remove dir;
  let rm () =
    Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
    Unix.rmdir dir
  in
  Fun.protect ~finally:rm (fun () -> f dir)

(** What durability costs and what recovery costs: bulk-load p50 of the
    same 120 orders in-memory vs durable (WAL, no fsync) vs
    durable+fsync, and cold-reopen time as a function of WAL length (a
    data directory whose whole history lives in the log). *)
let durability () =
  let docs = load_docs 120 in
  let load_into db =
    ddl db [ "CREATE TABLE orders (ordid INTEGER, orddoc XML)"; li_price ];
    Engine.load_documents db ~table:"orders" ~column:"orddoc" docs
  in
  let durable ~sync () =
    in_fresh_dir (fun dir ->
        let db = Engine.open_db ~sync ~data_dir:dir () in
        load_into db;
        Engine.close db)
  in
  let loads =
    List.map
      (fun (name, run) ->
        run ();
        (name, p50_ms ~iters:5 run))
      [
        ("memory", fun () -> load_into (Engine.create ()));
        ("durable", durable ~sync:false);
        ("durable_fsync", durable ~sync:true);
      ]
  in
  let recovery_point stmts =
    in_fresh_dir (fun dir ->
        let db = Engine.open_db ~sync:false ~data_dir:dir () in
        ddl db
          [
            "CREATE TABLE t (a integer, d XML)";
            "CREATE INDEX ip ON t(d) USING XMLPATTERN '//p' AS DOUBLE";
          ];
        ddl db
          (List.init stmts (fun i ->
               Printf.sprintf "INSERT INTO t VALUES (%d, '<a><p>%d</p></a>')"
                 (i + 1) (i + 1)));
        Engine.close db;
        let wal_bytes = (Unix.stat (Filename.concat dir "wal.0.log")).st_size in
        (* median-of-3 cold reopen: committed records survive a reopen,
           so each one replays the same history *)
        let opened = ref [] in
        let open_ms =
          p50_ms ~iters:3 (fun () ->
              opened := Engine.open_db ~data_dir:dir () :: !opened)
        in
        let db2 = List.hd !opened in
        let redo =
          Xprof.Registry.counter (Engine.registry db2) "recovery_redo_records"
        in
        let rows = count (Engine.exec db2 "SELECT a FROM t") in
        List.iter Engine.close !opened;
        J.Obj
          [
            ("statements", J.Int stmts);
            ("rows", J.Int rows);
            ("wal_bytes", J.Int wal_bytes);
            ("open_p50_ms", J.Float open_ms);
            ("redo_records", J.Int !redo);
          ])
  in
  J.Obj
    [
      ("load_p50_ms", floats loads);
      ("recovery_points", J.Arr (List.map recovery_point [ 50; 200 ]));
    ]

(* Reading a section back: the assertions judge the JSON that is
   written, addressing it by dotted paths as the CI jq filters once did. *)

let rec get (j : J.t) path =
  match (j, path) with
  | _, [] -> j
  | J.Obj kvs, k :: rest when List.mem_assoc k kvs ->
      get (List.assoc k kvs) rest
  | _ -> J.Null

let at j path = get j (String.split_on_char '.' path)

let num j path =
  match at j path with
  | J.Int i -> float_of_int i
  | J.Float f -> f
  | _ -> Float.nan

let items j path = match at j path with J.Arr l -> l | _ -> []
let has paths j = List.for_all (fun p -> at j p <> J.Null) paths
let all path ok j = List.for_all ok (items j path)
let at_least n path ok j = List.length (List.filter ok (items j path)) >= n
let any _ = true
let cmp op a b j = op (num j a) (num j b)
let positive path j = num j path > 0.
let domains j = at j "backend" = J.Str "domains"

type gate = {
  name : string;
  measure : unit -> J.t;
  asserts : (string * (J.t -> bool)) list;
}

let gate name measure asserts = { name; measure; asserts }

let gates : gate list =
  [
    gate "micro" micro
      [
        ("at least 15 queries", at_least 15 "queries" any);
        ( "every query: p50 >= 0 and p95 >= p50",
          all "queries" (fun q ->
              num q "latency_ms.p50" >= 0.
              && cmp ( >= ) "latency_ms.p95" "latency_ms.p50" q) );
        ( "every query counts index_probes and docs_scanned",
          all "queries"
            (has [ "counters.index_probes"; "counters.docs_scanned" ]) );
        ("at least 5 pairs", at_least 5 "pairs" any);
        ( "pairs ok: eligible index_probes < ineligible docs_scanned",
          all "pairs" (cmp ( < ) "index_probes" "docs_scanned") );
        ( "governor overhead has p50 and p95",
          has [ "governor_overhead_pct.p50"; "governor_overhead_pct.p95" ] );
      ];
    gate "prepared" prepared
      [
        ("at least 5 queries", at_least 5 "queries" any);
        ( "every query: prepared p50 < cold p50 and warm p50 < cold p50",
          all "queries" (fun q ->
              cmp ( < ) "prepared_p50_ms" "cold_p50_ms" q
              && cmp ( < ) "warm_p50_ms" "cold_p50_ms" q) );
        ( "at least 2 cursors: first-row p50 < full p50",
          at_least 2 "cursor" (cmp ( < ) "first_row_p50_ms" "full_p50_ms") );
        ("plan-cache hits > 0", positive "plan_cache.hits");
      ];
    gate "server" server
      [
        ("backend is domains", domains);
        ("clients 1, 4 and 16", has [ "clients.1"; "clients.4"; "clients.16" ]);
        ( "every level: qps > 0, requests > 0, p50 >= 0, p99 >= p95 >= p50",
          fun j ->
            List.for_all
              (fun n ->
                let c = at j ("clients." ^ n) in
                positive "qps" c && positive "latency_ms.n" c
                && num c "latency_ms.p50" >= 0.
                && cmp ( >= ) "latency_ms.p95" "latency_ms.p50" c
                && cmp ( >= ) "latency_ms.p99" "latency_ms.p95" c)
              [ "1"; "4"; "16" ] );
        ("warm p50 <= cold p50", cmp ( <= ) "warm_p50_ms" "cold_p50_ms");
        ( "shared_ok: plan-cache hits rose during the load levels",
          cmp ( > ) "plan_cache.hits" "plan_cache.hits_before_load" );
      ];
    gate "txn" txn
      [
        ( "reader during-load p95 <= 2 x idle p95 + 0.5 ms",
          cmp
            (fun load idle -> load <= (2. *. idle) +. 0.5)
            "reader_ms.during_load.p95" "reader_ms.idle.p95" );
        ("idle requests > 0", positive "reader_ms.idle.n");
        ("during-load requests > 0", positive "reader_ms.during_load.n");
        ("writer commits > 0", positive "writer.commits");
        ( "visibility: every committed row is visible",
          cmp ( = ) "visible_rows" "writer.rows" );
      ];
    gate "structural" structural
      [
        ( "every tier: tree-walk p50 > 0 and structural p50 > 0",
          fun j ->
            List.for_all
              (fun t ->
                positive (t ^ ".treewalk_p50_ms") j
                && positive (t ^ ".structural_p50_ms") j)
              [ "small"; "medium"; "large" ] );
        ( "large tier: structural p50 <= tree-walk p50",
          cmp ( <= ) "large.structural_p50_ms" "large.treewalk_p50_ms" );
      ];
    gate "parallel" parallel
      [
        ("backend is domains", domains);
        ( "scan, index_and and load have p50 at parallelism 1, 2 and 4",
          fun j ->
            List.for_all
              (fun w ->
                has [ w ^ ".p50_ms.1"; w ^ ".p50_ms.2"; w ^ ".p50_ms.4" ] j)
              [ "scan"; "index_and"; "load" ] );
        ( "scan: par4 p50 <= 1.05 x par1 p50",
          cmp (fun p4 p1 -> p4 <= p1 *. 1.05) "scan.p50_ms.4" "scan.p50_ms.1"
        );
      ];
    gate "durability" durability
      [
        ( "load p50 for memory, durable and durable_fsync",
          has
            (List.map (( ^ ) "load_p50_ms.")
               [ "memory"; "durable"; "durable_fsync" ]) );
        ("at least 2 recovery points", at_least 2 "recovery_points" any);
        ( "every recovery point replays its full history",
          all "recovery_points" (cmp ( = ) "rows" "statements") );
      ];
  ]

(** Run the named gates, one assertion per output line; a gate with a
    failing assertion also prints its whole section. All sections go to
    [out] in one write; the exit code is 1 if any assertion failed. *)
let run_gates ~out names =
  let find name =
    match List.find_opt (fun g -> g.name = name) gates with
    | Some g -> g
    | None ->
        Printf.eprintf "unknown gate %S (available: %s)\n" name
          (String.concat ", " (List.map (fun g -> g.name) gates));
        exit 2
  in
  let run g =
    Printf.printf "== %s (backend: %s)\n%!" g.name Xpar.backend;
    let section = g.measure () in
    let failed =
      List.filter
        (fun (label, check) ->
          let ok = check section in
          Printf.printf "%s %s: %s\n%!" (if ok then "ok  " else "FAIL") g.name
            label;
          not ok)
        g.asserts
    in
    if failed <> [] then print_endline (J.to_string section);
    ((g.name, section), failed = [])
  in
  let results = List.map run (List.map find names) in
  Out_channel.with_open_text out (fun oc ->
      output_string oc (J.to_string (J.Obj (List.map fst results)));
      output_char oc '\n');
  Printf.printf "wrote %s\n" out;
  exit (if List.for_all snd results then 0 else 1)

let () =
  let rec parse out names = function
    | "--out" :: file :: rest -> parse file names rest
    | name :: rest -> parse out (name :: names) rest
    | [] -> (out, List.rev names)
  in
  match parse "BENCH_micro.json" [] (List.tl (Array.to_list Sys.argv)) with
  | out, (_ :: _ as names) -> run_gates ~out names
  | _, [] ->
      Printf.printf
        "xqdb benchmark harness — reproducing the performance shape of \"On \
         the Path to Efficient XML Queries\" (VLDB 2006)\n";
      List.iter run_experiment experiments
