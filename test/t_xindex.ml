(** XML index maintenance and probes: tolerance (Section 2.1), path-table
    restriction, range/equality/structural scans, delete consistency. *)

open Helpers
module X = Xmlindex.Xindex
module PT = Storage.Path_table

let mk_index ?(vtype = X.VDouble) pattern =
  X.create
    {
      X.iname = "t_idx";
      table = "t";
      column = "c";
      pattern = Xmlindex.Pattern.of_string pattern;
      vtype;
    }

let load idx pt docs =
  List.iteri (fun i xml -> X.insert_doc idx pt ~row:i (parse_doc xml)) docs

let probe ?(paths_pattern : string option) idx pt r =
  let qpat =
    Xmlindex.Pattern.of_string
      (Option.value paths_pattern ~default:(Xmlindex.Pattern.to_string idx.X.def.X.pattern))
  in
  let paths = X.matching_paths pt qpat in
  X.probe_range idx ~paths r

let index_tests =
  [
    tc "entries created per matching node" (fun () ->
        let idx = mk_index "//lineitem/@price" in
        let pt = PT.create () in
        load idx pt
          [
            "<order><lineitem price=\"10\"/><lineitem price=\"20\"/></order>";
            "<order><lineitem price=\"30\"/></order>";
          ];
        check Alcotest.int "entries" 3 (X.entry_count idx));
    tc "tolerant: uncastable values are skipped, insert succeeds (2.1)"
      (fun () ->
        let idx = mk_index "//lineitem/@price" in
        let pt = PT.create () in
        load idx pt
          [ "<order><lineitem price=\"99.50USD\"/><lineitem price=\"5\"/></order>" ];
        check Alcotest.int "entries" 1 (X.entry_count idx));
    tc "varchar index keeps every value (2.2)" (fun () ->
        let idx = mk_index ~vtype:X.VVarchar "//lineitem/@price" in
        let pt = PT.create () in
        load idx pt
          [ "<order><lineitem price=\"99.50USD\"/><lineitem price=\"5\"/></order>" ];
        check Alcotest.int "entries" 2 (X.entry_count idx));
    tc "tolerant: a postal-code load never fails, DOUBLE skips (2.1)"
      (fun () ->
        (* 30% Canadian codes ("K1A 0B1") are not castable to DOUBLE *)
        let db = Engine.create () in
        List.iter
          (fun s -> ignore (sql db s))
          [
            "CREATE TABLE addresses (aid integer, adoc XML)";
            "CREATE INDEX pc_num ON addresses(adoc) USING XMLPATTERN \
             '//postalcode' AS DOUBLE";
            "CREATE INDEX pc_str ON addresses(adoc) USING XMLPATTERN \
             '//postalcode' AS VARCHAR(12)";
          ];
        Engine.load_documents db ~table:"addresses" ~column:"adoc"
          (Workload.Feeds_gen.addresses ~canadian_frac:0.3 200);
        let entries name =
          X.entry_count
            (List.find
               (fun (i : X.t) -> i.X.def.X.iname = name)
               (Engine.xml_indexes db))
        in
        check Alcotest.int "every document inserted" 200
          (List.length (sql db "SELECT aid FROM addresses").rrows);
        check Alcotest.int "VARCHAR: one entry per document" 200
          (entries "pc_str");
        check Alcotest.bool "DOUBLE: fewer entries than VARCHAR" true
          (entries "pc_num" < entries "pc_str"));
    tc "broad //@* double index skips non-numeric attributes" (fun () ->
        let idx = mk_index "//@*" in
        let pt = PT.create () in
        load idx pt [ "<o a=\"1\" b=\"xyz\"><p c=\"2.5\"/></o>" ];
        check Alcotest.int "entries" 2 (X.entry_count idx));
    tc "date index accepts only ISO dates" (fun () ->
        let idx = mk_index ~vtype:X.VDate "//date" in
        let pt = PT.create () in
        load idx pt
          [
            "<o><date>2001-01-01</date></o>";
            "<o><date>January 1, 2001</date></o>";
          ];
        check Alcotest.int "entries" 1 (X.entry_count idx));
    tc "element values are the concatenated text (2.1)" (fun () ->
        let idx = mk_index ~vtype:X.VVarchar "//price" in
        let pt = PT.create () in
        load idx pt [ "<o><price>99.50<currency>USD</currency></price></o>" ];
        let rows =
          probe idx pt (X.eq_range (Xdm.Atomic.Str "99.50USD"))
        in
        check Alcotest.int "match concat" 1 (Xdm.Int_set.cardinal rows));
    tc "equality probe returns matching rows only" (fun () ->
        let idx = mk_index "//lineitem/@price" in
        let pt = PT.create () in
        load idx pt
          [
            "<order><lineitem price=\"10\"/></order>";
            "<order><lineitem price=\"20\"/></order>";
            "<order><lineitem price=\"10\"/></order>";
          ];
        let rows = probe idx pt (X.eq_range (Xdm.Atomic.Double 10.)) in
        check Alcotest.(list int) "rows" [ 0; 2 ] (Xdm.Int_set.elements rows));
    tc "range probe with open bounds" (fun () ->
        let idx = mk_index "//lineitem/@price" in
        let pt = PT.create () in
        load idx pt
          (List.init 10 (fun i ->
               Printf.sprintf "<order><lineitem price=\"%d\"/></order>" (i * 10)));
        let rows =
          probe idx pt
            { X.lo = Some (Xdm.Atomic.Double 25., false); hi = None }
        in
        check Alcotest.int "rows > 25" 7 (Xdm.Int_set.cardinal rows));
    tc "path restriction: query narrower than index" (fun () ->
        (* index //price, query //special/price *)
        let idx = mk_index "//price" in
        let pt = PT.create () in
        load idx pt
          [
            "<o><special><price>5</price></special></o>";
            "<o><normal><price>5</price></normal></o>";
          ];
        let rows =
          probe ~paths_pattern:"//special/price" idx pt
            (X.eq_range (Xdm.Atomic.Double 5.))
        in
        check Alcotest.(list int) "only special" [ 0 ]
          (Xdm.Int_set.elements rows));
    tc "structural probe finds rows with any value" (fun () ->
        let idx = mk_index ~vtype:X.VVarchar "//price" in
        let pt = PT.create () in
        load idx pt
          [ "<o><price>x</price></o>"; "<o><nope/></o>"; "<o><price>9</price></o>" ];
        let paths =
          X.matching_paths pt (Xmlindex.Pattern.of_string "//price")
        in
        check Alcotest.(list int) "rows" [ 0; 2 ]
          (Xdm.Int_set.elements (X.probe_structural idx ~paths)));
    tc "delete removes a document's entries" (fun () ->
        let idx = mk_index "//lineitem/@price" in
        let pt = PT.create () in
        let d0 = parse_doc "<order><lineitem price=\"10\"/></order>" in
        let d1 = parse_doc "<order><lineitem price=\"20\"/></order>" in
        X.insert_doc idx pt ~row:0 d0;
        X.insert_doc idx pt ~row:1 d1;
        X.delete_doc idx pt ~row:0 d0;
        check Alcotest.int "entries" 1 (X.entry_count idx);
        let rows = probe idx pt X.full_range in
        check Alcotest.(list int) "rows" [ 1 ] (Xdm.Int_set.elements rows));
    tc "probe statistics count scanned entries" (fun () ->
        let idx = mk_index "//lineitem/@price" in
        let pt = PT.create () in
        load idx pt
          (List.init 100 (fun i ->
               Printf.sprintf "<order><lineitem price=\"%d\"/></order>" i));
        X.reset_stats idx;
        ignore (probe idx pt { X.lo = Some (Xdm.Atomic.Double 89.5, false); hi = None });
        check Alcotest.int "scanned" 10 idx.X.stats.X.entries_scanned;
        check Alcotest.int "probes" 1 idx.X.stats.X.probes);
    tc "text() index vs element index store different nodes (3.8)" (fun () ->
        let e_idx = mk_index ~vtype:X.VVarchar "//price" in
        let t_idx = mk_index ~vtype:X.VVarchar "//price/text()" in
        let pt = PT.create () in
        let doc = "<o><price>99.50<currency>USD</currency></price></o>" in
        load e_idx pt [ doc ];
        let pt2 = PT.create () in
        List.iteri (fun i xml -> X.insert_doc t_idx pt2 ~row:i (parse_doc xml)) [ doc ];
        (* element index holds "99.50USD"; text index holds "99.50" *)
        let e_rows =
          X.probe_range e_idx
            ~paths:(X.matching_paths pt (Xmlindex.Pattern.of_string "//price"))
            (X.eq_range (Xdm.Atomic.Str "99.50"))
        in
        let t_rows =
          X.probe_range t_idx
            ~paths:
              (X.matching_paths pt2 (Xmlindex.Pattern.of_string "//price/text()"))
            (X.eq_range (Xdm.Atomic.Str "99.50"))
        in
        check Alcotest.int "element idx misses" 0 (Xdm.Int_set.cardinal e_rows);
        check Alcotest.int "text idx hits" 1 (Xdm.Int_set.cardinal t_rows));
  ]

let rel_tests =
  [
    tc "relational index probe" (fun () ->
        let ri = Xmlindex.Rel_index.create ~iname:"r" ~table:"t" ~column:"c" () in
        List.iteri
          (fun i v -> Xmlindex.Rel_index.insert ri ~row:i (Storage.Sql_value.Int (Int64.of_int v)))
          [ 5; 3; 8; 3 ];
        check Alcotest.(list int) "eq 3" [ 1; 3 ]
          (Xdm.Int_set.elements
             (Xmlindex.Rel_index.probe_eq ri (Storage.Sql_value.Int 3L))));
    tc "relational index ignores NULLs" (fun () ->
        let ri = Xmlindex.Rel_index.create ~iname:"r" ~table:"t" ~column:"c" () in
        Xmlindex.Rel_index.insert ri ~row:0 Storage.Sql_value.Null;
        check Alcotest.int "empty" 0 (Xmlindex.Rel_index.entry_count ri));
    tc "relational string probe is blank-padded (SQL semantics)" (fun () ->
        let ri = Xmlindex.Rel_index.create ~iname:"r" ~table:"t" ~column:"c" () in
        Xmlindex.Rel_index.insert ri ~row:0 (Storage.Sql_value.Varchar "abc  ");
        check Alcotest.int "found" 1
          (Xdm.Int_set.cardinal
             (Xmlindex.Rel_index.probe_eq ri (Storage.Sql_value.Varchar "abc"))));
  ]

let suite = [ ("xindex:xml", index_tests); ("xindex:relational", rel_tests) ]
