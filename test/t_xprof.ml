(** Tests for the Xprof profiling & metrics layer: histogram percentiles,
    the registry, per-statement counter reset, the zero-overhead disabled
    path, the paper's eligible/ineligible probe-vs-scan contrast, governor
    headroom, and the invariant that profiling never changes results. *)

open Helpers

(* ------------------------------------------------------------------ *)
(* Hist / Registry / Json units                                        *)
(* ------------------------------------------------------------------ *)

let t_hist_percentiles () =
  let h = Xprof.Hist.create () in
  check Alcotest.bool "empty percentile is nan" true
    (Float.is_nan (Xprof.Hist.p50 h));
  for i = 1 to 100 do
    Xprof.Hist.add h (float_of_int i)
  done;
  check Alcotest.int "count" 100 (Xprof.Hist.count h);
  check (Alcotest.float 1e-9) "p50" 50. (Xprof.Hist.p50 h);
  check (Alcotest.float 1e-9) "p95" 95. (Xprof.Hist.p95 h);
  check (Alcotest.float 1e-9) "p99" 99. (Xprof.Hist.p99 h);
  check (Alcotest.float 1e-9) "mean" 50.5 (Xprof.Hist.mean h);
  check (Alcotest.float 1e-9) "max" 100. (Xprof.Hist.max_value h);
  Xprof.Hist.clear h;
  check Alcotest.int "cleared" 0 (Xprof.Hist.count h)

let expect_invalid_arg f =
  match f () with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let t_registry () =
  let r = Xprof.Registry.create () in
  Xprof.Registry.incr r "a";
  Xprof.Registry.incr ~by:4 r "a";
  check Alcotest.int "counter" 5 !(Xprof.Registry.counter r "a");
  expect_invalid_arg (fun () -> Xprof.Registry.incr ~by:(-1) r "a");
  Xprof.Registry.set_gauge r "g" 2.5;
  check (Alcotest.float 1e-9) "gauge" 2.5 !(Xprof.Registry.gauge r "g");
  Xprof.Registry.observe r "h" 1.;
  Xprof.Registry.observe r "h" 3.;
  check Alcotest.int "hist n" 2 (Xprof.Hist.count (Xprof.Registry.hist r "h"));
  (* a name registered as one kind cannot be reused as another *)
  expect_invalid_arg (fun () -> Xprof.Registry.set_gauge r "a" 1.);
  let js = Xprof.Json.to_string (Xprof.Registry.to_json r) in
  check Alcotest.bool "json has counter" true (contains_sub ~affix:"\"a\":5" js)

let t_json () =
  let open Xprof.Json in
  check Alcotest.string "escape"
    "{\"s\":\"a\\\"b\\nc\",\"i\":-3,\"f\":1.5,\"nan\":null,\"arr\":[true,null]}"
    (to_string
       (Obj
          [
            ("s", Str "a\"b\nc");
            ("i", Int (-3));
            ("f", Float 1.5);
            ("nan", Float Float.nan);
            ("arr", Arr [ Bool true; Null ]);
          ]))

(* ------------------------------------------------------------------ *)
(* Engine-level profiling                                              *)
(* ------------------------------------------------------------------ *)

let idx_db ?(n_orders = 60) () =
  let db = paper_db ~n_orders () in
  List.iter
    (fun s -> ignore (sql db s))
    [
      "CREATE INDEX li_price ON orders(orddoc) USING XMLPATTERN \
       '//lineitem/@price' AS DOUBLE";
      "CREATE INDEX li_pid ON orders(orddoc) USING XMLPATTERN \
       '//lineitem/product/id' AS VARCHAR(20)";
      "CREATE INDEX c_custid ON customer(cdoc) USING XMLPATTERN \
       '/customer/id' AS DOUBLE";
    ];
  db

let counters_of db run =
  Engine.set_profiling db true;
  ignore (run ());
  let c = Xprof.counters (Engine.profile db) in
  Engine.set_profiling db false;
  c

let c_assoc name c = List.assoc name c

let xq_run db src () = List.length (fst (xquery db src))
let sql_run db src () = List.length (sql db src).Sqlxml.Sql_exec.rrows

let q1 = "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price>990]"
let q2 = "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@*>990]"

(** With profiling off (the default), nothing is ever charged: all
    counters stay zero and the operator tree stays empty. *)
let t_disabled_zero_overhead () =
  let db = idx_db () in
  check Alcotest.bool "off by default" false (Engine.profiling db);
  ignore (xquery db q1);
  ignore (sql db "SELECT ordid FROM orders");
  let p = Engine.profile db in
  List.iter
    (fun (name, v) -> check Alcotest.int ("counter " ^ name) 0 v)
    (Xprof.counters p);
  check Alcotest.int "no operators" 0 (List.length p.Xprof.root.Xprof.op_children);
  check Alcotest.bool "no governor snapshot" true (p.Xprof.governor = [])

(** Counters are reset at every statement start: running the same query
    twice yields identical (not accumulated) counters, and a cheap query
    after an expensive one does not inherit its charges. *)
let t_reset_between_statements () =
  let db = idx_db () in
  let first = counters_of db (xq_run db q2) in
  let again = counters_of db (xq_run db q2) in
  List.iter
    (fun (name, v) ->
      check Alcotest.int ("stable " ^ name) v (c_assoc name again))
    first;
  check Alcotest.int "scan sees every doc" 60 (c_assoc "docs_scanned" first);
  let eligible = counters_of db (xq_run db q1) in
  check Alcotest.bool "eligible run not polluted by prior scan" true
    (c_assoc "docs_scanned" eligible < 60)

(** The paper's Definition 1 contrast, asserted over profiled counters:
    for each eligible/ineligible twin, the eligible query's index probes
    are strictly fewer than the documents its ineligible twin scans. *)
let t_eligible_pairs () =
  let db = idx_db () in
  let pairs =
    [
      ( "Q1/Q2",
        xq_run db q1,
        xq_run db q2 );
      ( "Q8/Q9",
        sql_run db
          "SELECT ordid FROM orders WHERE XMLExists('$o//lineitem[@price > \
           990]' passing orddoc as \"o\")",
        sql_run db
          "SELECT ordid FROM orders WHERE XMLExists('$o//lineitem/@price > \
           990' passing orddoc as \"o\")" );
      ( "Q16/Q15",
        sql_run db
          "SELECT c.cid FROM orders o, customer c WHERE \
           XMLExists('$o/order[custid/xs:double(.) = \
           $c/customer/id/xs:double(.)]' passing o.orddoc as \"o\", c.cdoc \
           as \"c\")",
        sql_run db
          "SELECT c.cid FROM orders o, customer c WHERE \
           XMLCast(XMLQuery('$o/order/custid' passing o.orddoc as \"o\") as \
           DOUBLE) = XMLCast(XMLQuery('$c/customer/id' passing c.cdoc as \
           \"c\") as DOUBLE)" );
      ( "Q17/Q18",
        xq_run db
          "for $d in db2-fn:xmlcolumn('ORDERS.ORDDOC') for $i in \
           $d//lineitem[@price > 990] return <result>{$i}</result>",
        xq_run db
          "for $d in db2-fn:xmlcolumn('ORDERS.ORDDOC') let $i := \
           $d//lineitem[@price > 990] return <result>{$i}</result>" );
      ( "Q22/Q19",
        xq_run db
          "for $o in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order return \
           $o/lineitem[@price > 990]",
        xq_run db
          "for $o in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order return \
           <result>{$o/lineitem[@price > 990]}</result>" );
      ( "Q27/Q26",
        xq_run db
          "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order/lineitem \
           where $i/product/id = 'p3' return $i/quantity",
        xq_run db
          "let $view := for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC') \
           /order/lineitem return <item quantity=\"{$i/quantity}\"> \
           <pid>{$i/product/id/data(.)}</pid></item> for $j in $view \
           where $j/pid = 'p3' return $j" );
    ]
  in
  List.iter
    (fun (name, elig, inelig) ->
      let probes = c_assoc "index_probes" (counters_of db elig) in
      let docs = c_assoc "docs_scanned" (counters_of db inelig) in
      check Alcotest.bool (name ^ ": eligible twin probes an index") true
        (probes > 0);
      check Alcotest.bool
        (Printf.sprintf "%s: %d probes < %d docs scanned" name probes docs)
        true (probes < docs))
    pairs

(** The operator tree records the plan shape with counts and rows. *)
let t_operator_tree () =
  let db = idx_db () in
  Engine.set_profiling db true;
  ignore (xquery db q1);
  let p = Engine.profile db in
  let report = Xprof.report p in
  Engine.set_profiling db false;
  List.iter
    (fun op ->
      check Alcotest.bool ("report mentions " ^ op) true
        (contains_sub ~affix:op report))
    [ "PLAN"; "XISCAN li_price"; "XQUERY"; "PATH" ];
  check Alcotest.bool "total time is finite and non-negative" true
    (Xprof.total_ms p >= 0.)

(** Governor headroom: armed limits appear as (resource, used, cap)
    triples with used <= cap; unlimited statements snapshot nothing. *)
let t_governor_headroom () =
  let db = idx_db () in
  Engine.set_limits db
    {
      Xdm.Limits.unlimited with
      Xdm.Limits.max_steps = Some 1_000_000;
      max_depth = Some 100;
    };
  Engine.set_profiling db true;
  ignore (xquery db q2);
  let p = Engine.profile db in
  let gov = p.Xprof.governor in
  check Alcotest.bool "governor snapshot present" true (gov <> []);
  List.iter
    (fun (name, used, cap) ->
      check Alcotest.bool
        (Printf.sprintf "%s: 0 <= %d <= %d" name used cap)
        true
        (0 <= used && used <= cap))
    gov;
  check Alcotest.bool "steps metered" true
    (List.exists (fun (n, used, _) -> n = "steps" && used > 0) gov);
  Engine.set_limits db Xdm.Limits.unlimited;
  ignore (xquery db q2);
  check Alcotest.bool "unarmed statement has no snapshot" true
    (p.Xprof.governor = []);
  Engine.set_profiling db false

(** The registry accumulates across statements while profiling is on. *)
let t_registry_accumulates () =
  let db = idx_db () in
  Engine.set_profiling db true;
  ignore (xquery db q1);
  ignore (sql db "SELECT ordid FROM orders");
  Engine.set_profiling db false;
  let r = Engine.registry db in
  check Alcotest.int "statements_total" 2
    !(Xprof.Registry.counter r "statements_total");
  check Alcotest.int "statement_ms observations" 2
    (Xprof.Hist.count (Xprof.Registry.hist r "statement_ms"));
  check Alcotest.bool "cumulative docs_scanned" true
    (!(Xprof.Registry.counter r "docs_scanned_total") > 0);
  check (Alcotest.float 1e-9) "xml_indexes gauge" 3.
    !(Xprof.Registry.gauge r "xml_indexes")

(** Profiled statements emit valid JSON with the full counter set. *)
let t_profile_json () =
  let db = idx_db () in
  Engine.set_profiling db true;
  ignore (xquery db q1);
  let js = Xprof.Json.to_string (Xprof.to_json (Engine.profile db)) in
  Engine.set_profiling db false;
  List.iter
    (fun affix ->
      check Alcotest.bool ("json has " ^ affix) true (contains_sub ~affix js))
    [
      "\"total_ms\"";
      "\"counters\"";
      "\"index_probes\":1";
      "\"operators\"";
      "\"governor\"";
    ]

(* ------------------------------------------------------------------ *)
(* Property: profiling never changes results                           *)
(* ------------------------------------------------------------------ *)

let prop_profiling_transparent =
  QCheck.Test.make ~name:"profiling never changes query results" ~count:30
    QCheck.(int_range 0 1000)
    (let db = idx_db ~n_orders:25 () in
     fun threshold ->
       let src =
         Printf.sprintf
           "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price>%d]"
           threshold
       in
       let plain = Engine.to_xml (fst (xquery db src)) in
       Engine.set_profiling db true;
       let profiled = Engine.to_xml (fst (xquery db src)) in
       Engine.set_profiling db false;
       plain = profiled)

let suite =
  [
    ( "xprof",
      [
        tc "hist percentiles" t_hist_percentiles;
        tc "registry" t_registry;
        tc "json emitter" t_json;
        tc "disabled = zero overhead" t_disabled_zero_overhead;
        tc "counters reset between statements" t_reset_between_statements;
        tc "eligible pairs: probes < docs scanned" t_eligible_pairs;
        tc "operator tree" t_operator_tree;
        tc "governor headroom" t_governor_headroom;
        tc "registry accumulates" t_registry_accumulates;
        tc "profile json" t_profile_json;
        QCheck_alcotest.to_alcotest prop_profiling_transparent;
      ] );
  ]
