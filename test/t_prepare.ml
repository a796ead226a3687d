(** The sealed Engine API: prepared statements, the compiled-plan cache
    (hit/miss/invalidation/eviction), parameter binding errors, streaming
    cursors and their governor interaction, and the prepared ≡ direct
    equivalence property over the paper's query corpus. *)

open Helpers
module SV = Storage.Sql_value
module PC = Engine.Plan_cache

let item_str s = [ Xdm.Item.A (Xdm.Atomic.Str s) ]

(** Serialize an outcome so both front ends compare with [string]. *)
let render (o : Engine.outcome) : string =
  match o.Engine.payload with
  | Engine.Rows { cols; rows } ->
      String.concat "," cols ^ "\n"
      ^ String.concat "\n"
          (List.map
             (fun row -> String.concat "|" (List.map SV.to_display row))
             rows)
  | Engine.Items items -> Engine.to_xml items

let diag_with (o : Engine.outcome) affix =
  List.exists (fun d -> contains_sub ~affix d) o.Engine.diagnostics

(* ------------------------------------------------------------------ *)
(* Plan_cache unit tests                                               *)
(* ------------------------------------------------------------------ *)

let cache_unit =
  [
    tc "plan cache: miss, add, hit, stale generation and fingerprint"
      (fun () ->
        let c = PC.create ~capacity:4 () in
        check Alcotest.bool "initial miss" true
          (PC.find c ~gen:0 ~fp:"lax" "q" = None);
        ignore (PC.add c ~gen:0 ~fp:"lax" "q" 42);
        check (Alcotest.option Alcotest.int) "hit" (Some 42)
          (PC.find c ~gen:0 ~fp:"lax" "q");
        (* a DDL-style generation bump invalidates *)
        check (Alcotest.option Alcotest.int) "stale gen" None
          (PC.find c ~gen:1 ~fp:"lax" "q");
        ignore (PC.add c ~gen:1 ~fp:"lax" "q" 43);
        (* a settings change invalidates independently of the catalog *)
        check (Alcotest.option Alcotest.int) "stale fingerprint" None
          (PC.find c ~gen:1 ~fp:"strict" "q");
        let s = PC.stats c in
        check Alcotest.int "hits" 1 s.PC.hits;
        check Alcotest.int "misses" 3 s.PC.misses;
        check Alcotest.int "invalidations" 2 s.PC.invalidations;
        check Alcotest.int "evictions" 0 s.PC.evictions);
    tc "plan cache: LRU eviction prefers the least recently used" (fun () ->
        let c = PC.create ~capacity:2 () in
        ignore (PC.add c ~gen:0 ~fp:"" "a" 1);
        ignore (PC.add c ~gen:0 ~fp:"" "b" 2);
        (* touch [a], making [b] the LRU victim *)
        ignore (PC.find c ~gen:0 ~fp:"" "a");
        check Alcotest.bool "adding c evicts" true
          (PC.add c ~gen:0 ~fp:"" "c" 3);
        check (Alcotest.option Alcotest.int) "a survives" (Some 1)
          (PC.find c ~gen:0 ~fp:"" "a");
        check (Alcotest.option Alcotest.int) "b evicted" None
          (PC.find c ~gen:0 ~fp:"" "b");
        (* replacing an existing key is not an eviction *)
        check Alcotest.bool "replace same key" false
          (PC.add c ~gen:0 ~fp:"" "c" 4);
        let s = PC.stats c in
        check Alcotest.int "size" 2 s.PC.size;
        check Alcotest.int "evictions" 1 s.PC.evictions);
  ]

(* ------------------------------------------------------------------ *)
(* Engine-level cache behaviour                                        *)
(* ------------------------------------------------------------------ *)

let q_scan = "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price>990]"

let engine_cache =
  [
    tc "exec: second run is a plan-cache hit, for both front ends"
      (fun () ->
        let db = paper_db ~n_orders:12 () in
        let s0 = Engine.plan_cache_stats db in
        let o1 = Engine.exec db q_scan in
        let o2 = Engine.exec db q_scan in
        check Alcotest.bool "first is a miss" true
          (diag_with o1 "miss, compiled");
        check Alcotest.bool "second is a hit" true (diag_with o2 "plan cache: hit");
        check Alcotest.string "same answer" (render o1) (render o2);
        let osql1 = Engine.exec db "SELECT ordid FROM orders" in
        let osql2 = Engine.exec db "SELECT ordid FROM orders" in
        check Alcotest.bool "sql miss then hit" true
          (diag_with osql1 "miss, compiled" && diag_with osql2 "plan cache: hit");
        let s1 = Engine.plan_cache_stats db in
        check Alcotest.int "two misses" (s0.PC.misses + 2) s1.PC.misses;
        check Alcotest.int "two hits" (s0.PC.hits + 2) s1.PC.hits);
    tc "CREATE INDEX invalidates and the recompiled plan uses the index"
      (fun () ->
        let db = paper_db ~n_orders:12 () in
        let o1 = Engine.exec db q_scan in
        check Alcotest.bool "no index yet" true (o1.Engine.indexes_used = []);
        ignore
          (Engine.exec db
             "CREATE INDEX li_price ON orders(orddoc) USING XMLPATTERN \
              '//lineitem/@price' AS DOUBLE");
        let o2 = Engine.exec db q_scan in
        check Alcotest.bool "diagnosed as invalidated" true
          (diag_with o2 "invalidated");
        check Alcotest.bool "new plan uses li_price" true
          (List.mem "li_price" o2.Engine.indexes_used);
        check Alcotest.string "same answer either way" (render o1) (render o2));
    tc "DROP INDEX and bulk load invalidate too" (fun () ->
        let db = paper_db ~n_orders:12 () in
        ignore
          (Engine.exec db
             "CREATE INDEX li_price ON orders(orddoc) USING XMLPATTERN \
              '//lineitem/@price' AS DOUBLE");
        ignore (Engine.exec db q_scan);
        let inv0 = (Engine.plan_cache_stats db).PC.invalidations in
        ignore (Engine.exec db "DROP INDEX li_price");
        let o = Engine.exec db q_scan in
        check Alcotest.bool "drop invalidates" true (diag_with o "invalidated");
        check Alcotest.bool "index no longer used" true
          (o.Engine.indexes_used = []);
        Engine.load_documents db ~table:"orders" ~column:"orddoc"
          [ "<order><lineitem price=\"995\"/></order>" ];
        let o2 = Engine.exec db q_scan in
        check Alcotest.bool "load invalidates" true (diag_with o2 "invalidated");
        check Alcotest.int "two invalidations counted" (inv0 + 2)
          (Engine.plan_cache_stats db).PC.invalidations);
    tc "settings fingerprint: toggling strict types forces a recompile"
      (fun () ->
        let db = paper_db ~n_orders:12 () in
        ignore (Engine.exec db q_scan);
        Engine.set_strict_types db true;
        let o = Engine.exec db q_scan in
        check Alcotest.bool "recompiled under new fingerprint" true
          (diag_with o "invalidated");
        Engine.set_strict_types db false);
    tc "cache capacity: distinct statements evict, answers stay correct"
      (fun () ->
        let db = Engine.create () in
        for i = 1 to 140 do
          ignore (Engine.exec db (Printf.sprintf "VALUES (%d)" i))
        done;
        let s = Engine.plan_cache_stats db in
        check Alcotest.bool "evictions happened" true (s.PC.evictions > 0);
        check Alcotest.bool "size bounded" true (s.PC.size <= s.PC.capacity);
        let o = Engine.exec db "VALUES (1)" in
        check Alcotest.int "evicted statement still answers" 1
          (List.length (Engine.outcome_rows o)));
  ]

(* ------------------------------------------------------------------ *)
(* Prepared statements & parameter binding                             *)
(* ------------------------------------------------------------------ *)

let prepared =
  [
    tc "prepare/execute: SQL ? parameters" (fun () ->
        let db = paper_db ~n_orders:12 () in
        let st = Engine.prepare db "SELECT ordid FROM orders WHERE ordid = ?" in
        check (Alcotest.list Alcotest.string) "one positional slot" [ "?1" ]
          (Engine.stmt_params st);
        let rows p = Engine.outcome_rows (Engine.execute ~params:p st) in
        check Alcotest.int "ordid=3 finds one row" 1
          (List.length (rows [ SV.Int 3L ]));
        check Alcotest.int "ordid=-1 finds none" 0
          (List.length (rows [ SV.Int (-1L) ]));
        expect_error "XPDY0002" (fun () -> rows []);
        expect_error "XPDY0002" (fun () -> rows [ SV.Int 1L; SV.Int 2L ]);
        (* named vars make no sense against a SQL statement *)
        expect_error "XPTY0004" (fun () ->
            Engine.execute ~vars:[ ("p", item_str "x") ] st));
    tc "prepare/execute: XQuery $var parameters" (fun () ->
        let db = paper_db ~n_orders:30 () in
        let st =
          Engine.prepare db
            "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order/lineitem \
             where $i/product/id = $pid return $i/quantity"
        in
        check (Alcotest.list Alcotest.string) "one named slot" [ "pid" ]
          (Engine.stmt_params st);
        let run v =
          Engine.outcome_items (Engine.execute ~vars:[ ("pid", item_str v) ] st)
        in
        check Alcotest.bool "pid=p3 finds quantities" true
          (List.length (run "p3") > 0);
        check Alcotest.int "pid=nope finds none" 0 (List.length (run "nope"));
        expect_error "XPDY0002" (fun () -> Engine.execute st);
        expect_error "XPST0008" (fun () ->
            Engine.execute ~vars:[ ("wrong", item_str "p3") ] st));
    tc "parameter literals: FORG0001 on a bad typed binding" (fun () ->
        expect_error "FORG0001" (fun () ->
            Engine.atomic_of_string ~ty:Xdm.Atomic.TInteger "not-a-number");
        expect_error "FORG0001" (fun () ->
            Engine.atomic_of_string ~ty:Xdm.Atomic.TDouble "p3");
        check Alcotest.string "good cast still works" "42"
          (Xdm.Atomic.string_value
             (Engine.atomic_of_string ~ty:Xdm.Atomic.TInteger "42")));
    tc "prepared statement survives invalidation transparently" (fun () ->
        let db = paper_db ~n_orders:12 () in
        let st = Engine.prepare db q_scan in
        let before = render (Engine.execute st) in
        ignore
          (Engine.exec db
             "CREATE INDEX li_price ON orders(orddoc) USING XMLPATTERN \
              '//lineitem/@price' AS DOUBLE");
        let o = Engine.execute st in
        check Alcotest.bool "re-planned against the new catalog" true
          (List.mem "li_price" o.Engine.indexes_used);
        check Alcotest.string "same answer" before (render o));
  ]

(* ------------------------------------------------------------------ *)
(* Error-path regression: sealed entry points raise coded errors only  *)
(* ------------------------------------------------------------------ *)

let errors =
  [
    tc "SQL front end: coded errors from exec" (fun () ->
        let db = paper_db ~n_orders:4 () in
        expect_error "XPST0003" (fun () -> Engine.exec db "SELECT FROM WHERE");
        expect_error "XQDB0003" (fun () ->
            Engine.exec db "SELECT nosuch FROM orders");
        expect_error "XQDB0003" (fun () ->
            Engine.exec db "INSERT INTO orders VALUES (1)"));
    tc "XQuery front end: coded errors from exec" (fun () ->
        let db = paper_db ~n_orders:4 () in
        expect_error "XPST0003" (fun () -> Engine.exec db "for $i in");
        expect_error "XPST0008" (fun () ->
            Engine.exec db ~vars:[ ("q", item_str "x") ]
              "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[@id = $p]"));
  ]

(* ------------------------------------------------------------------ *)
(* Cursors                                                             *)
(* ------------------------------------------------------------------ *)

let cursors =
  [
    tc "cursor: streams the same elements exec materializes" (fun () ->
        let db = paper_db ~n_orders:12 () in
        let src = "db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem" in
        let n_exec =
          List.length (Engine.outcome_items (Engine.exec db src))
        in
        let cur = Engine.open_cursor db src in
        let n_cur = Engine.Cursor.fold (fun n _ -> n + 1) 0 cur in
        check Alcotest.int "same cardinality" n_exec n_cur;
        check Alcotest.int "row_count agrees" n_exec
          (Engine.Cursor.row_count cur);
        check Alcotest.bool "drained cursor yields None" true
          (Engine.Cursor.next cur = None);
        Engine.Cursor.close cur;
        Engine.Cursor.close cur (* idempotent *));
    tc "cursor: bindings stay private while other statements run"
      (fun () ->
        let db = paper_db ~n_orders:12 () in
        let src = "SELECT ordid FROM orders WHERE ordid = ?" in
        let ordids (rows : SV.t list list) =
          List.map (fun r -> String.concat "|" (List.map SV.to_display r)) rows
        in
        let cur = Engine.open_cursor ~params:[ SV.Int 3L ] db src in
        let other = Engine.execute ~params:[ SV.Int 5L ] (Engine.prepare db src) in
        check (Alcotest.list Alcotest.string) "interleaved statement" [ "5" ]
          (ordids (Engine.outcome_rows other));
        let rows =
          Engine.Cursor.fold
            (fun acc -> function
              | Engine.Cursor.Row r -> r :: acc
              | Engine.Cursor.Item _ -> Alcotest.fail "item from SQL cursor")
            [] cur
        in
        check (Alcotest.list Alcotest.string) "cursor keeps its own binding"
          [ "3" ] (ordids (List.rev rows)));
    tc "cursor: close stops production" (fun () ->
        let db = paper_db ~n_orders:12 () in
        let cur = Engine.open_cursor db "SELECT ordid FROM orders" in
        check (Alcotest.list Alcotest.string) "columns" [ "ordid" ]
          (Engine.Cursor.columns cur);
        check Alcotest.bool "first pull" true (Engine.Cursor.next cur <> None);
        Engine.Cursor.close cur;
        check Alcotest.bool "closed cursor yields None" true
          (Engine.Cursor.next cur = None);
        check Alcotest.int "only one row produced" 1
          (Engine.Cursor.row_count cur));
    tc "cursor: early close releases the governor budget" (fun () ->
        let db = paper_db ~n_orders:60 () in
        (* the per-node predicate makes the meter charge per document as
           the cursor pulls (a bare path is a handful of eval steps no
           matter the collection size) *)
        let src =
          "db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[.//quantity[. >= 0]]"
        in
        (* find a step budget the full materialization blows *)
        let rec failing_budget b =
          if b < 8 then Alcotest.fail "no failing budget found"
          else begin
            Engine.set_limits db
              { Xdm.Limits.unlimited with max_steps = Some b };
            match Engine.exec db src with
            | _ -> failing_budget (b / 2)
            | exception Xdm.Xerror.Error e when e.code = "XQDB0001" -> b
          end
        in
        let b = failing_budget 1_000_000 in
        (* under the same budget, a cursor that pulls one element and
           closes never does the work that blew the budget above *)
        let cur = Engine.open_cursor db src in
        check Alcotest.bool "first pull fits the budget" true
          (Engine.Cursor.next cur <> None);
        Engine.Cursor.close cur;
        (* the budget still governs a cursor that is drained *)
        let cur2 = Engine.open_cursor db src in
        check Alcotest.bool "draining still trips the governor" true
          (match Engine.Cursor.fold (fun n _ -> n + 1) 0 cur2 with
          | _ -> false
          | exception Xdm.Xerror.Error e -> e.code = "XQDB0001");
        Engine.Cursor.close cur2;
        Engine.set_limits db Xdm.Limits.unlimited;
        ignore b);
  ]

(* ------------------------------------------------------------------ *)
(* Property: prepared-then-executed ≡ direct exec on the paper corpus  *)
(* ------------------------------------------------------------------ *)

(* One shared engine with the paper's schema and indexes: the property
   also exercises cache hits and cross-statement interleaving. *)
let corpus_db =
  lazy
    (let db = paper_db ~n_orders:30 () in
     ignore
       (sql db
          "CREATE INDEX li_price ON orders(orddoc) USING XMLPATTERN \
           '//lineitem/@price' AS DOUBLE");
     ignore
       (sql db
          "CREATE INDEX li_pid ON orders(orddoc) USING XMLPATTERN \
           '//lineitem/product/id' AS VARCHAR(20)");
     ignore
       (sql db
          "CREATE INDEX c_custid ON customer(cdoc) USING XMLPATTERN \
           '/customer/id' AS DOUBLE");
     db)

let corpus =
  [|
    "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price>990]";
    "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@*>990]";
    "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price > \"990\"]";
    "SELECT XMLQuery('$o//lineitem[@price > 990]' passing orddoc as \"o\") \
     FROM orders";
    "db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[@price > 990]";
    "SELECT ordid, orddoc FROM orders WHERE XMLExists('$o//lineitem[@price \
     > 990]' passing orddoc as \"o\")";
    "SELECT ordid, orddoc FROM orders WHERE XMLExists('$o//lineitem/@price \
     > 990' passing orddoc as \"o\")";
    "SELECT o.ordid, t.li FROM orders o, XMLTable('$o//lineitem[@price > \
     990]' passing o.orddoc as \"o\" COLUMNS \"li\" XML BY REF PATH '.') as \
     t(li)";
    "SELECT p.name FROM products p, orders o WHERE XMLExists('$o \
     //lineitem/product[id eq $pid]' passing o.orddoc as \"o\", p.id as \
     \"pid\")";
    "SELECT c.cid FROM orders o, customer c WHERE \
     XMLCast(XMLQuery('$o/order/custid' passing o.orddoc as \"o\") as \
     DOUBLE) = XMLCast(XMLQuery('$c/customer/id' passing c.cdoc as \"c\") \
     as DOUBLE)";
    "for $d in db2-fn:xmlcolumn('ORDERS.ORDDOC') for $i in $d//lineitem[@price \
     > 990] return <result>{$i}</result>";
    "for $d in db2-fn:xmlcolumn('ORDERS.ORDDOC') let $i := \
     $d//lineitem[@price > 990] return <result>{$i}</result>";
    "for $o in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order return \
     <result>{$o/lineitem[@price > 990]}</result>";
    "for $o in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order let $p := \
     $o/lineitem/@price where $p > 990 return <result>{$o/lineitem}</result>";
    "for $o in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order return \
     $o/lineitem[@price > 990]";
    "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order/lineitem where \
     $i/product/id = 'p3' return $i/quantity";
    "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC') //order[lineitem[@price>100 \
     and @price<200]] return $i";
    (* predicate-free axis pipelines: structural joins *)
    "db2-fn:xmlcolumn('ORDERS.ORDDOC')//id/ancestor::lineitem";
    "db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem/preceding-sibling::*";
    (* a first step yielding nested nodes of one tree, and a later step
       reaching into other trees: neither may be split per node *)
    "(db2-fn:xmlcolumn('ORDERS.ORDDOC')//*)//id";
    "db2-fn:xmlcolumn('ORDERS.ORDDOC')/db2-fn:xmlcolumn('CUSTOMER.CDOC')/customer";
  |]

let prop_prepared_equiv =
  QCheck.Test.make ~count:60 ~name:"prepared ≡ direct exec ≡ cursor"
    (QCheck.make
       QCheck.Gen.(int_bound (Array.length corpus - 1))
       ~print:(fun i -> corpus.(i)))
    (fun i ->
      let db = Lazy.force corpus_db in
      let src = corpus.(i) in
      (* direct exec, prepared and cursor all decompose the query, so a
         stand-alone XQuery is also held to strict evaluation *)
      let strict =
        lazy
          (match xquery_strict db src with
          | items -> Some (Engine.to_xml items)
          | exception Xdm.Xerror.Error _ -> None)
      in
      let at par =
        Engine.set_parallelism db par;
        Fun.protect ~finally:(fun () -> Engine.set_parallelism db 1)
        @@ fun () ->
        let direct = Engine.exec db src in
        let st = Engine.prepare db src in
        let via_prepare = Engine.execute st in
        let cur = Engine.open_cursor db src in
        let n_cursor = Engine.Cursor.fold (fun n _ -> n + 1) 0 cur in
        Engine.Cursor.close cur;
        let n_direct =
          match direct.Engine.payload with
          | Engine.Rows { rows; _ } -> List.length rows
          | Engine.Items items -> List.length items
        in
        if render direct <> render via_prepare then
          QCheck.Test.fail_reportf "prepared result differs on %s at \
                                    parallelism %d" src par
        else if n_cursor <> n_direct then
          QCheck.Test.fail_reportf "cursor yields %d of %d on %s at \
                                    parallelism %d" n_cursor n_direct src par
        else
          match (direct.Engine.payload, Lazy.force strict) with
          | Engine.Items items, Some expected
            when Engine.to_xml items <> expected ->
              QCheck.Test.fail_reportf "exec differs from strict on %s at \
                                        parallelism %d" src par
          | _ -> true
      in
      List.for_all at [ 1; 2; 4 ])

let props = [ QCheck_alcotest.to_alcotest prop_prepared_equiv ]

let suite =
  [
    ("prepare:cache", cache_unit);
    ("prepare:engine", engine_cache);
    ("prepare:stmt", prepared);
    ("prepare:errors", errors);
    ("prepare:cursor", cursors);
    ("prepare:props", props);
  ]
