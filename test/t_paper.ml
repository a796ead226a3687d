(** End-to-end reproduction of the paper's Queries 1–30: results, index
    eligibility and EXPLAIN behaviour, one test per query (or pair). *)

open Helpers
module SV = Storage.Sql_value

(* A database with the paper's schema, the paper's indexes, and enough
   deterministic data for every query to have non-trivial results. *)
let mk_db () =
  let db = paper_db ~n_orders:80 () in
  ignore
    (sql db
       "CREATE INDEX li_price ON orders(orddoc) USING XMLPATTERN \
        '//lineitem/@price' AS DOUBLE");
  ignore
    (sql db
       "CREATE INDEX o_custid ON orders(orddoc) USING XMLPATTERN '//custid' \
        AS DOUBLE");
  ignore
    (sql db
       "CREATE INDEX c_custid ON customer(cdoc) USING XMLPATTERN \
        '/customer/id' AS DOUBLE");
  ignore
    (sql db
       "CREATE INDEX li_pid ON orders(orddoc) USING XMLPATTERN \
        '//lineitem/product/id' AS VARCHAR(20)");
  db

let db = lazy (mk_db ())

let uses_index plan name = List.mem name (used plan)

let q1_30 =
  [
    tc "Query 1: //order[lineitem/@price>100] uses li_price" (fun () ->
        let db = Lazy.force db in
        let plan =
          assert_def1 db
            "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price>100] return $i"
        in
        check Alcotest.bool "li_price used" true (uses_index plan "li_price"));
    tc "Query 2: @* wildcard makes li_price ineligible" (fun () ->
        let db = Lazy.force db in
        let plan =
          assert_def1 db
            "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@*>100] return $i"
        in
        check Alcotest.bool "no index" false (uses_index plan "li_price");
        check Alcotest.bool "reason logged" true
          (List.exists
             (fun n ->
               Helpers.contains_sub ~affix:"more restrictive" n
               || Helpers.contains_sub ~affix:"does not contain" n)
             plan.Planner.notes));
    tc "paper 2.2: missing-price document kept by Query 2, skipped by index"
      (fun () ->
        (* the no-price document must appear in Query 2's answer *)
        let db = Engine.create () in
        ignore (sql db "CREATE TABLE orders (ordid integer, orddoc XML)");
        Engine.load_documents db ~table:"orders" ~column:"orddoc"
          [
            Workload.Orders_gen.no_price_doc;
            "<order><lineitem price=\"99.50\" quantity=\"150\"/></order>";
          ];
        ignore
          (sql db
             "CREATE INDEX li_price ON orders(orddoc) USING XMLPATTERN \
              '//lineitem/@price' AS DOUBLE");
        let r, _ =
          xquery db
            "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@*>100]"
        in
        check Alcotest.int "both orders qualify" 2 (List.length r));
    tc "Query 3: string literal \"100\" → string predicate, double index \
        ineligible" (fun () ->
        let db = Lazy.force db in
        let plan =
          assert_def1 db
            "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price > \"100\" ] return $i"
        in
        check Alcotest.bool "no li_price" false (uses_index plan "li_price"));
    tc "Query 4: join with xs:double(.) casts on both sides" (fun () ->
        let db = Lazy.force db in
        let src =
          "for $i in db2-fn:xmlcolumn(\"ORDERS.ORDDOC\")/order \
           for $j in db2-fn:xmlcolumn(\"CUSTOMER.CDOC\")/customer \
           where $i/custid/xs:double(.) = $j/id/xs:double(.) \
           return $i/@id/data(.)"
        in
        let plan = assert_def1 db src in
        (* both sides' indexes are declared eligible (join probes) *)
        check Alcotest.bool "join noted" true
          (List.exists
             (fun n -> Helpers.contains_sub ~affix:"join" n)
             plan.Planner.notes));
    tc "Query 5: XMLQuery in select list returns one row per order, no \
        index" (fun () ->
        let db = Lazy.force db in
        let n =
          sql_count db
            "SELECT XMLQuery('$order//lineitem[@price > 100]' passing orddoc \
             as \"order\") FROM orders"
        in
        check Alcotest.int "all rows" 80 n;
        check Alcotest.(list string) "no index" [] (last_indexes_used db));
    tc "Query 6: VALUES XMLQuery over the whole column is one row and \
        indexable" (fun () ->
        let db = Lazy.force db in
        let r =
          sql db
            "VALUES (XMLQuery('db2-fn:xmlcolumn(\"ORDERS.ORDDOC\") \
             //lineitem[@price > 100] '))"
        in
        check Alcotest.int "one row" 1 (List.length r.Sqlxml.Sql_exec.rrows);
        check Alcotest.bool "li_price" true
          (List.mem "li_price" (last_indexes_used db)));
    tc "Query 7: stand-alone XQuery returns one row per lineitem" (fun () ->
        let db = Lazy.force db in
        let plan =
          assert_def1 db
            "db2-fn:xmlcolumn('ORDERS.ORDDOC')// lineitem[@price > 100]"
        in
        check Alcotest.bool "li_price" true (uses_index plan "li_price"));
    tc "Query 8: XMLExists filters rows and uses li_price" (fun () ->
        let db = Lazy.force db in
        let n8 =
          sql_count db
            "SELECT ordid, orddoc FROM orders WHERE \
             XMLExists('$order//lineitem[@price > 100]' passing orddoc as \
             \"order\")"
        in
        check Alcotest.bool "li_price" true
          (List.mem "li_price" (last_indexes_used db));
        check Alcotest.bool "filters" true (n8 < 80 && n8 > 0));
    tc "Query 9: boolean inside XMLExists returns ALL rows" (fun () ->
        let db = Lazy.force db in
        let n9 =
          sql_count db
            "SELECT ordid, orddoc FROM orders WHERE \
             XMLExists('$order//lineitem/@price > 100' passing orddoc as \
             \"order\")"
        in
        check Alcotest.int "all 80 rows" 80 n9;
        check Alcotest.(list string) "no index" [] (last_indexes_used db));
    tc "Query 10: XMLExists + XMLQuery combination filters" (fun () ->
        let db = Lazy.force db in
        let n =
          sql_count db
            "SELECT ordid, XMLQuery('$order//lineitem[@price > 100]' passing \
             orddoc as \"order\") FROM orders WHERE \
             XMLExists('$order//lineitem[@price > 100]' passing orddoc as \
             \"order\")"
        in
        check Alcotest.bool "filters" true (n < 80);
        check Alcotest.bool "li_price" true
          (List.mem "li_price" (last_indexes_used db)));
    tc "Query 11: XMLTable row-producer is index eligible; one row per \
        lineitem" (fun () ->
        let db = Lazy.force db in
        let n11 =
          sql_count db
            "SELECT o.ordid, t.lineitem FROM orders o, XMLTable('$order \
             //lineitem[@price > 100]' passing o.orddoc as \"order\" COLUMNS \
             \"lineitem\" XML BY REF PATH '.') as t(lineitem)"
        in
        check Alcotest.bool "li_price" true
          (List.mem "li_price" (last_indexes_used db));
        (* more lineitems than qualifying orders *)
        let n8 =
          sql_count db
            "SELECT ordid FROM orders WHERE XMLExists('$order \
             //lineitem[@price > 100]' passing orddoc as \"order\")"
        in
        check Alcotest.bool "lineitem-cardinality" true (n11 >= n8));
    tc "Query 12: predicate in COLUMNS gives NULLs, not filtering" (fun () ->
        let db = Lazy.force db in
        let r =
          sql db
            "SELECT o.ordid, t.lineitem, t.price FROM orders o, \
             XMLTable('$order//lineitem' passing o.orddoc as \"order\" \
             COLUMNS \"lineitem\" XML BY REF PATH '.', \"price\" \
             DECIMAL(6,3) PATH '@price[. > 100]') as t(lineitem, price)"
        in
        check Alcotest.(list string) "no index" [] (last_indexes_used db);
        let nulls =
          List.length
            (List.filter
               (fun row -> List.nth row 2 = SV.Null)
               r.Sqlxml.Sql_exec.rrows)
        in
        check Alcotest.bool "some NULL prices" true (nulls > 0));
    tc "Query 13: XQuery-side join uses the XML index (li_pid)" (fun () ->
        let db = Lazy.force db in
        let n =
          sql_count db
            "SELECT p.name, XMLQuery('$order//lineitem' passing orddoc as \
             \"order\") FROM products p, orders o WHERE XMLExists('$order \
             //lineitem/product[id eq $pid]' passing o.orddoc as \"order\", \
             p.id as \"pid\")"
        in
        check Alcotest.bool "rows" true (n > 0);
        check Alcotest.bool "li_pid used" true
          (List.mem "li_pid" (last_indexes_used db)));
    tc "Query 14: SQL-side join via XMLCast fails on multi-lineitem orders"
      (fun () ->
        let db = Lazy.force db in
        (* orders have several lineitems: XMLCast hits a multi-item
           sequence and raises, exactly the paper's warning *)
        match
          sql db
            "SELECT p.name FROM products p, orders o WHERE p.id = \
             XMLCast(XMLQuery('$order//lineitem/product/id' passing \
             o.orddoc as \"order\") as VARCHAR(13))"
        with
        | _ -> Alcotest.fail "expected an XMLCast type error"
        | exception Xdm.Xerror.Error e ->
            check Alcotest.string "coded" "XQDB0003" e.code;
            check Alcotest.bool "singleton error" true
              (Helpers.contains_sub ~affix:"more than one item" e.msg));
    tc "Query 14b: VARCHAR(13) length failure mode" (fun () ->
        let db = Engine.create () in
        ignore (sql db "CREATE TABLE orders (ordid integer, orddoc XML)");
        Engine.load_documents db ~table:"orders" ~column:"orddoc"
          [ "<order><lineitem><product><id>id-that-is-way-too-long</id></product></lineitem></order>" ];
        match
          sql db
            "SELECT ordid FROM orders o WHERE 'x' = \
             XMLCast(XMLQuery('$order//lineitem/product/id' passing \
             o.orddoc as \"order\") as VARCHAR(13))"
        with
        | _ -> Alcotest.fail "expected a length error"
        | exception Xdm.Xerror.Error e ->
            check Alcotest.string "coded" "XQDB0003" e.code;
            check Alcotest.bool "length error" true
              (Helpers.contains_sub ~affix:"too long" e.msg));
    tc "Query 15: SQL-side XML-XML join uses no index" (fun () ->
        let db = Lazy.force db in
        let n =
          sql_count db
            "SELECT c.cid FROM orders o, customer c WHERE \
             XMLCast(XMLQuery('$order/order/custid' passing o.orddoc as \
             \"order\") as DOUBLE) = XMLCast(XMLQuery('$cust/customer/id' \
             passing c.cdoc as \"cust\") as DOUBLE)"
        in
        check Alcotest.int "joined rows" 80 n;
        check Alcotest.(list string) "no index" [] (last_indexes_used db));
    tc "Query 16: XQuery-side XML-XML join probes c_custid per order"
      (fun () ->
        let db = Lazy.force db in
        let n =
          sql_count db
            "SELECT c.cid FROM orders o, customer c WHERE \
             XMLExists('$order/order[custid/xs:double(.) = \
             $cust/customer/id/xs:double(.)]' passing o.orddoc as \
             \"order\", c.cdoc as \"cust\")"
        in
        check Alcotest.int "same answer as Query 15" 80 n;
        check Alcotest.bool "c_custid used" true
          (List.mem "c_custid" (last_indexes_used db)));
    tc "Query 17 vs 18: for is indexable, let is not (Section 3.4)"
      (fun () ->
        let db = Lazy.force db in
        let p17 =
          assert_def1 db
            "for $doc in db2-fn:xmlcolumn('ORDERS.ORDDOC') for $item in \
             $doc//lineitem[@price > 100] return <result>{$item}</result>"
        in
        check Alcotest.bool "17 uses li_price" true (uses_index p17 "li_price");
        let p18 =
          assert_def1 db
            "for $doc in db2-fn:xmlcolumn('ORDERS.ORDDOC') let $item := \
             $doc//lineitem[@price > 100] return <result>{$item}</result>"
        in
        check Alcotest.(list string) "18 uses nothing" [] (used p18));
    tc "Queries 17/18 return different results (result per lineitem vs per \
        document)" (fun () ->
        let db = Lazy.force db in
        let r17, _ =
          xquery db
            "for $doc in db2-fn:xmlcolumn('ORDERS.ORDDOC') for $item in \
             $doc//lineitem[@price > 100] return <result>{$item}</result>"
        in
        let r18, _ =
          xquery db
            "for $doc in db2-fn:xmlcolumn('ORDERS.ORDDOC') let $item := \
             $doc//lineitem[@price > 100] return <result>{$item}</result>"
        in
        check Alcotest.int "18: one per document" 80 (List.length r18);
        check Alcotest.bool "17: per lineitem" true
          (List.length r17 <> List.length r18));
    tc "Query 19: constructor in return blocks the index" (fun () ->
        let db = Lazy.force db in
        let p =
          assert_def1 db
            "for $ord in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order return \
             <result>{$ord/lineitem[@price > 100]}</result>"
        in
        check Alcotest.(list string) "no index" [] (used p));
    tc "Query 20/21: where-clause predicates are indexable even via let"
      (fun () ->
        let db = Lazy.force db in
        let p20 =
          assert_def1 db
            "for $ord in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order where \
             $ord/lineitem/@price > 100 return <result>{$ord/lineitem}</result>"
        in
        check Alcotest.bool "20 uses index" true (uses_index p20 "li_price");
        let p21 =
          assert_def1 db
            "for $ord in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order let $price \
             := $ord/lineitem/@price where $price > 100 return \
             <result>{$ord/lineitem}</result>"
        in
        check Alcotest.bool "21 uses index" true (uses_index p21 "li_price"));
    tc "Query 22: bare path in return is indexable (bind-out iteration)"
      (fun () ->
        let db = Lazy.force db in
        let p =
          assert_def1 db
            "for $ord in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order return \
             $ord/lineitem[@price > 100]"
        in
        check Alcotest.bool "uses index" true (uses_index p "li_price"));
    tc "Query 28: namespaced data — ns-less index ineligible, wildcard and \
        @price indexes eligible (Section 3.7)" (fun () ->
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
        (* the paper's failing indexes *)
        ignore
          (sql dbn
             "CREATE INDEX li_price ON orders(orddoc) USING XMLPATTERN \
              '//lineitem/@price' AS DOUBLE");
        ignore
          (sql dbn
             "CREATE INDEX c_nation ON customer(cdoc) USING XMLPATTERN \
              '//nation' AS DOUBLE");
        let q28 =
          "declare default element namespace \
           \"http://ournamespaces.com/order\"; declare namespace \
           c=\"http://ournamespaces.com/customer\"; for $ord in \
           db2-fn:xmlcolumn(\"ORDERS.ORDDOC\")/order[lineitem/@price > 600] \
           for $cust in \
           db2-fn:xmlcolumn(\"CUSTOMER.CDOC\")/c:customer[c:nation = 1] \
           where $ord/custid/xs:double(.) = $cust/c:id/xs:double(.) return \
           $ord"
        in
        let plan = assert_def1 dbn q28 in
        check Alcotest.bool "c_nation NOT used" false
          (uses_index plan "c_nation");
        (* li_price IS eligible: default element namespaces do not apply to
           attributes, and its last step is an attribute... but its
           lineitem element step has an empty namespace → ineligible *)
        check Alcotest.bool "li_price NOT used" false
          (uses_index plan "li_price");
        (* the paper's fixes *)
        ignore
          (sql dbn
             "CREATE INDEX c_nation_ns2 ON customer(cdoc) USING XMLPATTERN \
              '//*:nation' AS DOUBLE");
        ignore
          (sql dbn
             "CREATE INDEX li_price_ns ON orders(orddoc) USING XMLPATTERN \
              '//@price' AS DOUBLE");
        let plan2 = assert_def1 dbn q28 in
        check Alcotest.bool "wildcard index used" true
          (uses_index plan2 "c_nation_ns2");
        check Alcotest.bool "//@price index used" true
          (uses_index plan2 "li_price_ns"));
    tc "Query 29: /text() misalignment (Section 3.8)" (fun () ->
        let dbt = Engine.create () in
        ignore (sql dbt "CREATE TABLE orders (ordid integer, orddoc XML)");
        Engine.load_documents dbt ~table:"orders" ~column:"orddoc"
          [
            Workload.Orders_gen.usd_price_doc;
            "<order><lineitem><price>99.50</price></lineitem></order>";
          ];
        ignore
          (sql dbt
             "CREATE INDEX price_text ON orders(orddoc) USING XMLPATTERN \
              '//price' AS VARCHAR(30)");
        let plan =
          assert_def1 dbt
            "for $ord in db2-fn:xmlcolumn(\"ORDERS.ORDDOC\") \
             /order[lineitem/price/text() = \"99.50\"] return $ord"
        in
        (* the element index indexes "99.50USD"; using it for the text()
           query would be wrong — it must be rejected *)
        check Alcotest.bool "price_text NOT used" false
          (uses_index plan "price_text");
        (* and the correct text() index works *)
        ignore
          (sql dbt
             "CREATE INDEX price_t ON orders(orddoc) USING XMLPATTERN \
              '//price/text()' AS VARCHAR(30)");
        let plan2 =
          assert_def1 dbt
            "for $ord in db2-fn:xmlcolumn(\"ORDERS.ORDDOC\") \
             /order[lineitem/price/text() = \"99.50\"] return $ord"
        in
        check Alcotest.bool "price_t used" true (uses_index plan2 "price_t"));
    tc "Query 30: attribute between merges into one range scan" (fun () ->
        let db = Lazy.force db in
        let plan =
          assert_def1 db
            "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC') \
             //order[lineitem[@price>100 and @price<200]] return $i"
        in
        check Alcotest.bool "merged" true
          (List.exists
             (fun n -> Helpers.contains_sub ~affix:"BETWEEN merged" n)
             plan.Planner.notes));
    tc "3.10: element between with general comparisons needs two scans"
      (fun () ->
        let db = Lazy.force db in
        ignore
          (sql db
             "CREATE INDEX li_price_el ON orders(orddoc) USING XMLPATTERN \
              '//lineitem/price' AS DOUBLE");
        let plan =
          assert_def1 db
            "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/price > 100 \
             and lineitem/price < 200]"
        in
        check Alcotest.bool "IXAND" true
          (List.exists
             (fun n -> Helpers.contains_sub ~affix:"IXAND" n)
             plan.Planner.notes);
        (* on the same database, Query 30's merged between scans one
           range while the element between ANDs two *)
        let entries src =
          Engine.set_profiling db true;
          ignore (Engine.exec db src);
          let c = Xprof.counters (Engine.profile db) in
          Engine.set_profiling db false;
          List.assoc "index_entries_scanned" c
        in
        let merged =
          entries
            "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC') \
             //order[lineitem[@price>100 and @price<200]] return $i"
        in
        let ixand =
          entries
            "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/price > 100 \
             and lineitem/price < 200]"
        in
        check Alcotest.bool
          (Printf.sprintf "merged scans %d entries < IXAND %d" merged ixand)
          true (merged < ixand));
    tc "3.10: multi-price lineitem satisfies the unmergeable between"
      (fun () ->
        (* prices 250 and 50: lineitem/price > 100 and < 200 is TRUE *)
        let r =
          xq
            ~collections:
              [
                ( "ORDERS.ORDDOC",
                  [
                    "<order><lineitem><price>250</price><price>50</price>\
                     </lineitem></order>";
                  ] );
              ]
            "count(db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/price \
             > 100 and lineitem/price < 200])"
        in
        check Alcotest.string "matches" "1"
          (Xmlparse.Xml_writer.seq_to_string r));
    tc "3.10: self-axis data() form allows multiple prices" (fun () ->
        let colls =
          [
            ( "ORDERS.ORDDOC",
              [
                "<order><lineitem><price>250</price><price>150</price>\
                 </lineitem></order>";
              ] );
          ]
        in
        let r =
          xq ~collections:colls
            "count(db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem/price/data()\
             [. > 100 and . < 200])"
        in
        check Alcotest.string "only 150 in range" "1"
          (Xmlparse.Xml_writer.seq_to_string r));
  ]

let suite = [ ("paper:queries", q1_30) ]
