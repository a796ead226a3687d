(** Differential parallel ≡ sequential harness (the Xpar determinism
    contract).

    Every statement of the paper corpus — plus error-raising robustness
    statements and parameterized prepared statements — is executed at
    parallelism 1, 2 and 4 on the same engine, and the three runs must be
    byte-identical: same serialized payload, same [indexes_used], same
    error code when the statement fails. A qcheck property then drives
    random queries through random chunk sizes, and dedicated tests pin
    the non-result guarantees: the domain pool returns to idle after an
    early cursor close, the governor's [XQDB0001] still fires when the
    budget is charged across domains, and an injected fault inside a
    parallel chunk still rolls the whole statement back.

    On OCaml 4.x builds Xpar is the sequential fallback: every level
    runs the same chunked code single-threaded, so this file doubles as
    a determinism test of the chunk/merge machinery itself. *)

open Helpers
module SV = Storage.Sql_value

let levels = [ 1; 2; 4 ]

(* The paper database with the paper's four indexes (as in t_paper). *)
let mk_db () =
  let db = paper_db ~n_orders:80 () in
  List.iter
    (fun ddl -> ignore (sql db ddl))
    [
      "CREATE INDEX li_price ON orders(orddoc) USING XMLPATTERN \
       '//lineitem/@price' AS DOUBLE";
      "CREATE INDEX o_custid ON orders(orddoc) USING XMLPATTERN '//custid' \
       AS DOUBLE";
      "CREATE INDEX c_custid ON customer(cdoc) USING XMLPATTERN \
       '/customer/id' AS DOUBLE";
      "CREATE INDEX li_pid ON orders(orddoc) USING XMLPATTERN \
       '//lineitem/product/id' AS VARCHAR(20)";
    ];
  db

let shared_db = lazy (mk_db ())

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

let render (o : Engine.outcome) : string =
  match o.Engine.payload with
  | Engine.Items items -> Engine.to_xml items
  | Engine.Rows { cols; rows } ->
      String.concat "|" cols ^ "\n"
      ^ String.concat "\n"
          (List.map
             (fun r -> String.concat "|" (List.map SV.to_display r))
             rows)

(** One run of a statement, as a comparable string: payload and the
    indexes the plan used on success, the stable error code on failure.
    [outcome.diagnostics] is deliberately NOT compared — it records
    plan-cache hits/misses, which legitimately differ between the first
    and later runs of the same text. *)
let snapshot ?params ?vars db (src : string) : string =
  match Engine.exec ?params ?vars db src with
  | o ->
      Printf.sprintf "OK used=[%s]\n%s"
        (String.concat ";" o.Engine.indexes_used)
        (render o)
  | exception Xdm.Xerror.Error { code; _ } -> "ERROR " ^ code

let snapshot_at ?params ?vars db p src =
  Engine.set_parallelism db p;
  Fun.protect
    ~finally:(fun () -> Engine.set_parallelism db 1)
    (fun () -> snapshot ?params ?vars db src)

(** A successful stand-alone XQuery must also match strict evaluation
    without indexes (Definition 1): the parallelism-1 run goes through
    the same unit decomposition as the chunked runs, so only this
    reference catches a decomposition that is wrong at every level. A
    strict error where the indexed run succeeded is allowed: the index
    pre-filter may skip the failing documents. *)
let assert_strict db (id : string) (src : string) =
  match Engine.exec db src with
  | { Engine.payload = Engine.Items items; _ } -> (
      match xquery_strict db src with
      | strict ->
          check Alcotest.string
            (Printf.sprintf "%s: parallelism 1 ≡ strict" id)
            (Engine.to_xml strict) (Engine.to_xml items)
      | exception Xdm.Xerror.Error _ -> ())
  | _ | (exception Xdm.Xerror.Error _) -> ()

(** Run [src] at every parallelism level and require identical
    snapshots. *)
let assert_diff ?params ?vars db (id : string) (src : string) =
  if params = None && vars = None then assert_strict db id src;
  let base = snapshot_at ?params ?vars db 1 src in
  List.iter
    (fun p ->
      check Alcotest.string
        (Printf.sprintf "%s: parallelism %d ≡ 1" id p)
        base
        (snapshot_at ?params ?vars db p src))
    (List.filter (fun p -> p <> 1) levels)

(* ------------------------------------------------------------------ *)
(* The statement corpus (paper Queries 1–30 where timing-meaningful,    *)
(* both front ends, plus robustness statements)                         *)
(* ------------------------------------------------------------------ *)

let corpus : (string * string) list =
  [
    ( "Q1",
      "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price>100] \
       return $i" );
    ( "Q2",
      "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@*>100] \
       return $i" );
    ( "Q3",
      "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price > \
       \"100\" ] return $i" );
    ( "Q4",
      "for $i in db2-fn:xmlcolumn(\"ORDERS.ORDDOC\")/order for $j in \
       db2-fn:xmlcolumn(\"CUSTOMER.CDOC\")/customer where \
       $i/custid/xs:double(.) = $j/id/xs:double(.) return $i/@id/data(.)" );
    ( "Q5",
      "SELECT XMLQuery('$order//lineitem[@price > 100]' passing orddoc as \
       \"order\") FROM orders" );
    ( "Q6",
      "VALUES (XMLQuery('db2-fn:xmlcolumn(\"ORDERS.ORDDOC\") \
       //lineitem[@price > 100] '))" );
    ("Q7", "db2-fn:xmlcolumn('ORDERS.ORDDOC')// lineitem[@price > 100]");
    ( "Q8",
      "SELECT ordid, orddoc FROM orders WHERE \
       XMLExists('$order//lineitem[@price > 100]' passing orddoc as \
       \"order\")" );
    ( "Q9",
      "SELECT ordid, orddoc FROM orders WHERE \
       XMLExists('$order//lineitem/@price > 100' passing orddoc as \
       \"order\")" );
    ( "Q10",
      "SELECT ordid, XMLQuery('$order//lineitem[@price > 100]' passing \
       orddoc as \"order\") FROM orders WHERE \
       XMLExists('$order//lineitem[@price > 100]' passing orddoc as \
       \"order\")" );
    ( "Q11",
      "SELECT o.ordid, t.lineitem FROM orders o, XMLTable('$order \
       //lineitem[@price > 100]' passing o.orddoc as \"order\" COLUMNS \
       \"lineitem\" XML BY REF PATH '.') as t(lineitem)" );
    ( "Q12",
      "SELECT o.ordid, t.lineitem, t.price FROM orders o, \
       XMLTable('$order//lineitem' passing o.orddoc as \"order\" COLUMNS \
       \"lineitem\" XML BY REF PATH '.', \"price\" DECIMAL(6,3) PATH \
       '@price[. > 100]') as t(lineitem, price)" );
    ( "Q13",
      "SELECT p.name, XMLQuery('$order//lineitem' passing orddoc as \
       \"order\") FROM products p, orders o WHERE XMLExists('$order \
       //lineitem/product[id eq $pid]' passing o.orddoc as \"order\", p.id \
       as \"pid\")" );
    (* Q14: the paper's XMLCast-of-many failure — must fail with the same
       code at every level *)
    ( "Q14",
      "SELECT p.name FROM products p, orders o WHERE p.id = \
       XMLCast(XMLQuery('$order//lineitem/product/id' passing o.orddoc as \
       \"order\") as VARCHAR(13))" );
    ( "Q15",
      "SELECT c.cid FROM orders o, customer c WHERE \
       XMLCast(XMLQuery('$order/order/custid' passing o.orddoc as \
       \"order\") as DOUBLE) = XMLCast(XMLQuery('$cust/customer/id' \
       passing c.cdoc as \"cust\") as DOUBLE)" );
    ( "Q16",
      "SELECT c.cid FROM orders o, customer c WHERE \
       XMLExists('$order/order[custid/xs:double(.) = \
       $cust/customer/id/xs:double(.)]' passing o.orddoc as \"order\", \
       c.cdoc as \"cust\")" );
    ( "Q17",
      "for $doc in db2-fn:xmlcolumn('ORDERS.ORDDOC') for $item in \
       $doc//lineitem[@price > 100] return <result>{$item}</result>" );
    ( "Q18",
      "for $doc in db2-fn:xmlcolumn('ORDERS.ORDDOC') let $item := \
       $doc//lineitem[@price > 100] return <result>{$item}</result>" );
    ( "Q19",
      "for $ord in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order return \
       <result>{$ord/lineitem[@price > 100]}</result>" );
    ( "Q20",
      "for $ord in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order where \
       $ord/lineitem/@price > 100 return <result>{$ord/lineitem}</result>" );
    ( "Q21",
      "for $ord in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order let $price := \
       $ord/lineitem/@price where $price > 100 return \
       <result>{$ord/lineitem}</result>" );
    ( "Q22",
      "for $ord in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order return \
       $ord/lineitem[@price > 100]" );
    ( "Q26",
      "let $view := for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC') \
       /order/lineitem return <item quantity=\"{$i/quantity}\"> \
       <pid>{$i/product/id/data(.)}</pid></item> for $j in $view where \
       $j/pid = 'p3' return $j" );
    ( "Q27",
      "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order/lineitem where \
       $i/product/id = 'p3' return $i/quantity" );
    ( "Q30",
      "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC') \
       //order[lineitem[@price>100 and @price<200]] return $i" );
    ( "3.10-between",
      "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/price > 100 and \
       lineitem/price < 200]" );
    ( "count",
      "count(db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price>100])"
    );
    (* paths the evaluator must not split per node: nested nodes of one
       tree, and a later step that leaves the tree *)
    ("nested-first-step", "(db2-fn:xmlcolumn('ORDERS.ORDDOC')//*)//id");
    ( "tree-leaving-step",
      "db2-fn:xmlcolumn('ORDERS.ORDDOC')/db2-fn:xmlcolumn('CUSTOMER.CDOC')\
       /customer" );
    (* robustness: statements that fail must fail identically *)
    ("err-collection", "db2-fn:xmlcolumn('NOPE.NOPE')//order");
    ("err-cast", "xs:double(\"not-a-number\")");
    ("err-unknown-table", "SELECT x FROM no_such_table");
  ]

let corpus_tests =
  [
    tc "paper + robustness corpus at parallelism 1/2/4" (fun () ->
        let db = Lazy.force shared_db in
        Engine.set_limits db Xdm.Limits.unlimited;
        List.iter (fun (id, src) -> assert_diff db id src) corpus);
    tc "Query 28 (namespaces) at parallelism 1/2/4" (fun () ->
        let dbn = Engine.create () in
        ignore (sql dbn "CREATE TABLE orders (ordid integer, orddoc XML)");
        ignore (sql dbn "CREATE TABLE customer (cid integer, cdoc XML)");
        let p =
          {
            Workload.Orders_gen.default with
            n_customers = 10;
            n_products = 10;
            namespace = Some "http://ournamespaces.com/order";
          }
        in
        Engine.load_documents dbn ~table:"orders" ~column:"orddoc"
          (Workload.Orders_gen.orders p 30);
        Engine.load_documents dbn ~table:"customer" ~column:"cdoc"
          (Workload.Orders_gen.customers
             { p with namespace = Some "http://ournamespaces.com/customer" });
        ignore
          (sql dbn
             "CREATE INDEX c_nation_ns2 ON customer(cdoc) USING XMLPATTERN \
              '//*:nation' AS DOUBLE");
        ignore
          (sql dbn
             "CREATE INDEX li_price_ns ON orders(orddoc) USING XMLPATTERN \
              '//@price' AS DOUBLE");
        assert_diff dbn "Q28"
          "declare default element namespace \
           \"http://ournamespaces.com/order\"; declare namespace \
           c=\"http://ournamespaces.com/customer\"; for $ord in \
           db2-fn:xmlcolumn(\"ORDERS.ORDDOC\")/order[lineitem/@price > 600] \
           for $cust in \
           db2-fn:xmlcolumn(\"CUSTOMER.CDOC\")/c:customer[c:nation = 1] \
           where $ord/custid/xs:double(.) = $cust/c:id/xs:double(.) return \
           $ord");
    tc "Query 29 (/text() misalignment) at parallelism 1/2/4" (fun () ->
        let dbt = Engine.create () in
        ignore (sql dbt "CREATE TABLE orders (ordid integer, orddoc XML)");
        Engine.load_documents dbt ~table:"orders" ~column:"orddoc"
          [
            Workload.Orders_gen.usd_price_doc;
            "<order><lineitem><price>99.50</price></lineitem></order>";
          ];
        ignore
          (sql dbt
             "CREATE INDEX price_t ON orders(orddoc) USING XMLPATTERN \
              '//price/text()' AS VARCHAR(30)");
        assert_diff dbt "Q29"
          "for $ord in db2-fn:xmlcolumn(\"ORDERS.ORDDOC\") \
           /order[lineitem/price/text() = \"99.50\"] return $ord");
    tc "prepared statements at parallelism 1/2/4" (fun () ->
        let db = Lazy.force shared_db in
        (* XQuery free variable becomes a named parameter slot *)
        assert_diff db "prep-xq"
          ~vars:[ ("p", [ Xdm.Item.A (Xdm.Atomic.Double 100.) ]) ]
          "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC') \
           //order[lineitem/@price>$p] return $i";
        (* SQL positional parameter *)
        assert_diff db "prep-sql"
          ~params:[ SV.Int 40L ]
          "SELECT ordid FROM orders WHERE ordid < ? AND \
           XMLExists('$order//lineitem[@price > 100]' passing orddoc as \
           \"order\")";
        (* and via the explicit prepare/execute surface *)
        let st =
          Engine.prepare db
            "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC') \
             //lineitem[@price > $p] return $i"
        in
        let run p =
          Engine.set_parallelism db p;
          Fun.protect
            ~finally:(fun () -> Engine.set_parallelism db 1)
            (fun () ->
              render
                (Engine.execute
                   ~vars:[ ("p", [ Xdm.Item.A (Xdm.Atomic.Double 500.) ]) ]
                   st))
        in
        let base = run 1 in
        List.iter
          (fun p ->
            check Alcotest.string
              (Printf.sprintf "prepared execute: parallelism %d ≡ 1" p)
              base (run p))
          [ 2; 4 ]);
  ]

(* ------------------------------------------------------------------ *)
(* Property: random queries × random chunk sizes                        *)
(* ------------------------------------------------------------------ *)

let templates =
  [|
    (fun thr _ ->
      Printf.sprintf
        "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price>%d] \
         return $i"
        thr);
    (fun thr _ ->
      Printf.sprintf "db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[@price > %d]"
        thr);
    (fun thr _ ->
      Printf.sprintf
        "for $d in db2-fn:xmlcolumn('ORDERS.ORDDOC') for $i in \
         $d//lineitem[@price > %d] return <r>{$i}</r>"
        thr);
    (fun thr _ ->
      Printf.sprintf
        "for $o in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order where \
         $o/lineitem/@price > %d return $o/@id/data(.)"
        thr);
    (fun thr hi ->
      Printf.sprintf
        "count(db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem[@price>%d \
         and @price<%d]])"
        thr (thr + hi));
  |]

let gen_case =
  QCheck.Gen.(
    let* tmpl = int_bound (Array.length templates - 1) in
    let* thr = int_bound 1000 in
    let* hi = int_range 1 300 in
    let* par = int_range 2 4 in
    let* chunk = int_range 1 9 in
    return (tmpl, thr, hi, par, chunk))

let arb_case =
  QCheck.make gen_case ~print:(fun (tmpl, thr, hi, par, chunk) ->
      Printf.sprintf "query=%s parallelism=%d chunk_size=%d"
        (templates.(tmpl) thr hi)
        par chunk)

(** The pool parks asynchronously after the coordinator returns: a worker
    may still be between finishing its last chunk and decrementing the
    busy count. Bounded wait. *)
let wait_idle () =
  let rec go n =
    if Xpar.idle () then true
    else if n = 0 then false
    else begin
      Unix.sleepf 0.002;
      go (n - 1)
    end
  in
  go 500

let prop_par_equiv_seq =
  QCheck.Test.make ~count:40 ~name:"random query × chunk size: parallel ≡ sequential"
    arb_case
    (fun (tmpl, thr, hi, par, chunk) ->
      let db = Lazy.force shared_db in
      let cat = Engine.catalog db in
      let src = templates.(tmpl) thr hi in
      let c = Planner.compile src in
      let run ?chunk_size parallelism =
        let items, plan, _ =
          Planner.execute ~parallelism ?chunk_size cat c
        in
        (List.of_seq items, plan)
      in
      let seq_items, seq_plan = run 1 in
      let par_items, par_plan = run ~chunk_size:chunk par in
      let s = Xmlparse.Xml_writer.seq_to_string in
      (* both runs decompose the query; strict evaluation is the oracle *)
      let strict = s (xquery_strict db src) in
      s seq_items = strict
      && s par_items = strict
      && seq_plan.Planner.indexes_used = par_plan.Planner.indexes_used
      (* after every region the pool must return to idle *)
      && wait_idle ())

(* ------------------------------------------------------------------ *)
(* Pool hygiene, governor, fault injection                              *)
(* ------------------------------------------------------------------ *)

let guarantee_tests =
  [
    tc "early cursor close at parallelism 4 leaves the pool idle" (fun () ->
        let db = Lazy.force shared_db in
        Engine.set_parallelism db 4;
        Fun.protect
          ~finally:(fun () -> Engine.set_parallelism db 1)
          (fun () ->
            (* spin the pool up with a genuinely parallel statement *)
            ignore
              (Engine.exec db
                 "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@*>900]");
            let cur =
              Engine.open_cursor db
                "db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem"
            in
            ignore (Engine.Cursor.next cur);
            ignore (Engine.Cursor.next cur);
            Engine.Cursor.close cur;
            check Alcotest.bool "pool idle after early close" true
              (wait_idle ());
            check Alcotest.bool "pool never exceeds target workers" true
              (Xpar.pool_size () <= 3)));
    tc "LIMIT without a barrier stops the scan at parallelism 1/2/4"
      (fun () ->
        let db = Engine.create () in
        ignore (sql db "CREATE TABLE t (a integer, d XML)");
        (* row 2 fails the predicate; row 6 cannot be evaluated at all *)
        List.iter
          (fun a ->
            let p = match a with 2 -> "-2" | 6 -> "x" | _ -> string_of_int a in
            ignore
              (sql db
                 (Printf.sprintf "INSERT INTO t VALUES (%d, '<a><p>%s</p></a>')"
                    a p)))
          [ 1; 2; 3; 4; 5; 6; 7; 8 ];
        let q limit =
          Printf.sprintf
            "SELECT a FROM t WHERE XMLExists('$d/a[xs:double(p) > 0]' \
             passing d as \"d\") FETCH FIRST %d ROWS ONLY"
            limit
        in
        let at_levels src =
          List.map
            (fun p ->
              Engine.set_parallelism db p;
              Engine.set_profiling db true;
              let snap = snapshot db src in
              let c = Xprof.counters (Engine.profile db) in
              Engine.set_profiling db false;
              Engine.set_parallelism db 1;
              (snap, List.assoc "rows_scanned" c, List.assoc "docs_scanned" c))
            levels
        in
        (* 3 rows: rows 1, 3 and 4, after skipping row 2 *)
        List.iter
          (fun (snap, rows, docs) ->
            check Alcotest.string "first three matches" "OK used=[]\na\n1\n3\n4"
              snap;
            check Alcotest.bool
              (Printf.sprintf "rows_scanned %d <= 3 + 1 skipped" rows)
              true (rows <= 4);
            check Alcotest.bool
              (Printf.sprintf "docs_scanned %d <= 3 + 1 skipped" docs)
              true (docs <= 4))
          (at_levels (q 3));
        (* 5 rows reach past row 6: the same error at every level *)
        let snaps = List.map (fun (s, _, _) -> s) (at_levels (q 5)) in
        List.iter
          (check Alcotest.string "same error at every level" (List.hd snaps))
          snaps;
        check Alcotest.bool "the limit past row 6 fails" true
          (String.starts_with ~prefix:"ERROR" (List.hd snaps)));
    tc "XQDB0001 fires under parallelism (budget charged atomically)"
      (fun () ->
        let db = paper_db ~n_orders:40 () in
        Engine.set_parallelism db 4;
        Engine.set_limits db
          { Xdm.Limits.unlimited with Xdm.Limits.max_steps = Some 50 };
        expect_error "XQDB0001" (fun () ->
            Engine.exec db
              "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC') \
               //order[lineitem/@*>100] return $i");
        Engine.set_limits db Xdm.Limits.unlimited;
        (* with the budget lifted the same statement succeeds *)
        ignore
          (Engine.exec db
             "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC') \
              //order[lineitem/@*>100] return $i"));
    tc "storage.insert fault inside a parallel load rolls back" (fun () ->
        Fun.protect ~finally:Faultinject.reset (fun () ->
            let db = Engine.create () in
            ignore (sql db "CREATE TABLE t (id integer, doc XML)");
            ignore
              (sql db
                 "CREATE INDEX ti ON t(doc) USING XMLPATTERN '//@price' AS \
                  DOUBLE");
            let table () =
              Storage.Database.table_exn (Engine.database db) "t"
            in
            let docs =
              Workload.Orders_gen.orders Workload.Orders_gen.default 40
            in
            Engine.set_parallelism db 4;
            Faultinject.arm ~point:"storage.insert" ~n:17;
            (match Engine.load_documents db ~table:"t" ~column:"doc" docs with
            | () -> Alcotest.fail "expected an injected fault"
            | exception Faultinject.Injected { point; _ } ->
                check Alcotest.string "fault point" "storage.insert" point);
            check Alcotest.int "rows rolled back" 0
              (Storage.Table.row_count (table ()));
            List.iter
              (fun (iname, diffs) ->
                check
                  Alcotest.(list string)
                  (iname ^ " consistent after rollback")
                  [] diffs)
              (Engine.check_consistency db);
            (* disarmed (the trigger is one-shot): the same load succeeds *)
            Engine.load_documents db ~table:"t" ~column:"doc" docs;
            check Alcotest.int "all docs loaded after retry" 40
              (Storage.Table.row_count (table ()))));
    tc "index.insert_doc fault inside a parallel index build rolls back"
      (fun () ->
        Fun.protect ~finally:Faultinject.reset (fun () ->
            let db = Engine.create () in
            ignore (sql db "CREATE TABLE t (id integer, doc XML)");
            Engine.load_documents db ~table:"t" ~column:"doc"
              (Workload.Orders_gen.orders Workload.Orders_gen.default 40);
            let rows0 =
              Storage.Table.row_count
                (Storage.Database.table_exn (Engine.database db) "t")
            in
            Engine.set_parallelism db 4;
            Faultinject.arm ~point:"index.insert_doc" ~n:20;
            (match
               sql db
                 "CREATE INDEX ti ON t(doc) USING XMLPATTERN '//@price' AS \
                  DOUBLE"
             with
            | _ -> Alcotest.fail "expected an injected fault"
            | exception Faultinject.Injected { point; _ } ->
                check Alcotest.string "fault point" "index.insert_doc" point);
            check Alcotest.int "index creation rolled back" 0
              (List.length (Engine.xml_indexes db));
            check Alcotest.int "rows untouched" rows0
              (Storage.Table.row_count
                 (Storage.Database.table_exn (Engine.database db) "t"));
            List.iter
              (fun (iname, diffs) ->
                check
                  Alcotest.(list string)
                  (iname ^ " consistent after rollback")
                  [] diffs)
              (Engine.check_consistency db);
            (* retry succeeds and the index is complete *)
            ignore
              (sql db
                 "CREATE INDEX ti ON t(doc) USING XMLPATTERN '//@price' AS \
                  DOUBLE");
            check Alcotest.int "index created on retry" 1
              (List.length (Engine.xml_indexes db));
            List.iter
              (fun (iname, diffs) ->
                check
                  Alcotest.(list string)
                  (iname ^ " consistent after retry")
                  [] diffs)
              (Engine.check_consistency db)));
  ]

let suite =
  [
    ("par_diff:corpus", corpus_tests);
    ( "par_diff:props",
      [ QCheck_alcotest.to_alcotest prop_par_equiv_seq ] @ guarantee_tests );
  ]
