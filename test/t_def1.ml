(** Definition 1 as a property: for random collections, random indexes and
    random queries from the paper's template family,
    [Q(D) = Q(I(P, D))] — the indexed plan must return exactly what the
    full collection scan returns.

    This is the strongest check on the whole stack: predicate extraction,
    containment, type compatibility, probes, between-merging and the
    planner all have to be conservative-correct for it to hold. *)


(* ------------------------- generators --------------------------- *)

let gen_doc =
  (* order-like documents with the paper's anomalies *)
  let open QCheck.Gen in
  let* n_items = int_range 0 3 in
  let* items =
    list_repeat n_items
      (let* price = int_bound 300 in
       let* style =
         frequency
           [ (5, return `Attr); (2, return `Elem); (1, return `StrPrice);
             (1, return `NoPrice); (1, return `MultiPrice) ]
       in
       let* pid = int_bound 5 in
       return (price, style, pid))
  in
  let* custid = int_bound 20 in
  let buf = Buffer.create 256 in
  Buffer.add_string buf "<order>";
  Buffer.add_string buf (Printf.sprintf "<custid>%d</custid>" (1000 + custid));
  List.iter
    (fun (price, style, pid) ->
      (match style with
      | `Attr ->
          Buffer.add_string buf
            (Printf.sprintf "<lineitem price=\"%d\"><price>%d</price>" price price)
      | `Elem ->
          Buffer.add_string buf
            (Printf.sprintf "<lineitem><price>%d</price>" price)
      | `StrPrice ->
          Buffer.add_string buf
            (Printf.sprintf "<lineitem price=\"%dUSD\"><price>%dUSD</price>"
               price price)
      | `NoPrice -> Buffer.add_string buf "<lineitem>"
      | `MultiPrice ->
          Buffer.add_string buf
            (Printf.sprintf
               "<lineitem price=\"%d\"><price>%d</price><price>%d</price>"
               price (price + 200) (price / 2)));
      Buffer.add_string buf
        (Printf.sprintf "<product><id>p%d</id></product></lineitem>" pid))
    items;
  Buffer.add_string buf "</order>";
  return (Buffer.contents buf)

let query_templates =
  [|
    "db2-fn:xmlcolumn('T.D')//order[lineitem/@price > %d]";
    "db2-fn:xmlcolumn('T.D')//order[lineitem/@price = %d]";
    "db2-fn:xmlcolumn('T.D')//order[lineitem/@price < %d]";
    "db2-fn:xmlcolumn('T.D')//lineitem[@price > %d]";
    "db2-fn:xmlcolumn('T.D')//order[lineitem/price > %d]";
    "db2-fn:xmlcolumn('T.D')//order[lineitem/@price > \"%d\"]";
    "db2-fn:xmlcolumn('T.D')//order[lineitem[@price > %d and @price < 250]]";
    "db2-fn:xmlcolumn('T.D')//order[lineitem/price > %d and lineitem/price \
     < 250]";
    "for $o in db2-fn:xmlcolumn('T.D')/order where $o/lineitem/@price > %d \
     return $o/custid";
    "for $o in db2-fn:xmlcolumn('T.D')/order let $p := $o/lineitem/@price \
     where $p > %d return <r>{$o/custid}</r>";
    "for $o in db2-fn:xmlcolumn('T.D')/order return $o/lineitem[@price > %d]";
    "for $o in db2-fn:xmlcolumn('T.D')/order return <r>{$o/lineitem[@price \
     > %d]}</r>";
    "for $d in db2-fn:xmlcolumn('T.D') for $i in $d//lineitem[@price > %d] \
     return <r>{$i/product/id}</r>";
    "count(db2-fn:xmlcolumn('T.D')//order[custid = 10%d])";
    "db2-fn:xmlcolumn('T.D')//order[lineitem/product/id = 'p%d']";
    "db2-fn:xmlcolumn('T.D')//lineitem/price/data()[. > %d and . < 250]";
    "some $o in db2-fn:xmlcolumn('T.D')//order satisfies $o/lineitem/@price \
     > %d";
    "db2-fn:xmlcolumn('T.D')//order[lineitem/@price > %d][custid < 1015]";
  |]

let index_defs =
  [|
    "CREATE INDEX i0 ON t(d) USING XMLPATTERN '//lineitem/@price' AS DOUBLE";
    "CREATE INDEX i1 ON t(d) USING XMLPATTERN '//@price' AS DOUBLE";
    "CREATE INDEX i2 ON t(d) USING XMLPATTERN '//price' AS DOUBLE";
    "CREATE INDEX i3 ON t(d) USING XMLPATTERN '//price' AS VARCHAR(30)";
    "CREATE INDEX i4 ON t(d) USING XMLPATTERN '//lineitem/@price' AS \
     VARCHAR(30)";
    "CREATE INDEX i5 ON t(d) USING XMLPATTERN '//custid' AS DOUBLE";
    "CREATE INDEX i6 ON t(d) USING XMLPATTERN '//product/id' AS VARCHAR(30)";
    "CREATE INDEX i7 ON t(d) USING XMLPATTERN '//@*' AS DOUBLE";
    "CREATE INDEX i8 ON t(d) USING XMLPATTERN '//*' AS VARCHAR(50)";
    "CREATE INDEX i9 ON t(d) USING XMLPATTERN '/order/lineitem/price' AS \
     DOUBLE";
  |]

let gen_case =
  QCheck.Gen.(
    let* docs = list_size (int_range 1 12) gen_doc in
    let* tmpl = int_bound (Array.length query_templates - 1) in
    let* v = int_bound 9 in
    let* idxs = list_size (int_range 1 4) (int_bound (Array.length index_defs - 1)) in
    let value = v * 30 in
    let query =
      Scanf.format_from_string query_templates.(tmpl) "%d" |> fun fmt ->
      Printf.sprintf fmt value
    in
    return (docs, query, List.sort_uniq compare idxs))

let arb_case =
  QCheck.make gen_case ~print:(fun (docs, query, idxs) ->
      Printf.sprintf "query=%s\nindexes=%s\ndocs=\n%s" query
        (String.concat ","
           (List.map (fun i -> index_defs.(i)) idxs))
        (String.concat "\n" docs))

let run_case (docs, query, idxs) =
  let db = Engine.create () in
  ignore (Helpers.sql db "CREATE TABLE t (id integer, d XML)");
  Engine.load_documents db ~table:"t" ~column:"d" docs;
  List.iter (fun i -> ignore (Helpers.sql db index_defs.(i))) idxs;
  let serial r = Xmlparse.Xml_writer.seq_to_string r in
  let indexed =
    match Helpers.xquery db query with
    | r, _ -> Ok (serial r)
    | exception Xdm.Xerror.Error e -> Error e.code
  in
  let scanned =
    match Helpers.xquery_strict db query with
    | r -> Ok (serial r)
    | exception Xdm.Xerror.Error e -> Error e.code
  in
  (* Errors may legitimately be avoided by pre-filtering (XQuery permits
     not raising errors in filtered-away branches); but a *successful*
     scan must never disagree with a successful indexed run. *)
  match (indexed, scanned) with
  | Ok a, Ok b -> a = b
  | Error _, Error _ -> true
  | Ok _, Error _ -> true (* index pre-filter avoided a dynamic error *)
  | Error _, Ok _ -> false

let prop_def1 =
  QCheck.Test.make ~name:"Definition 1: Q(D) = Q(I(P,D))" ~count:400 arb_case
    run_case

(* Same property through the SQL/XML layer: XMLEXISTS row filtering with
   and without indexes. *)
let sql_templates =
  [|
    "SELECT id FROM t WHERE XMLExists('$d//lineitem[@price > %d]' passing d \
     as \"d\")";
    "SELECT id FROM t WHERE XMLExists('$d/order[custid = 10%d]' passing d \
     as \"d\")";
    "SELECT id FROM t WHERE XMLExists('$d//lineitem/@price > %d' passing d \
     as \"d\")";
    "SELECT id, t2.li FROM t, XMLTable('$d//lineitem[@price > %d]' passing \
     d as \"d\" COLUMNS \"li\" XML BY REF PATH '.') AS t2(li)";
  |]

let gen_sql_case =
  QCheck.Gen.(
    let* docs = list_size (int_range 1 10) gen_doc in
    let* tmpl = int_bound (Array.length sql_templates - 1) in
    let* v = int_bound 9 in
    let* idxs = list_size (int_range 1 3) (int_bound (Array.length index_defs - 1)) in
    let query =
      Scanf.format_from_string sql_templates.(tmpl) "%d" |> fun fmt ->
      Printf.sprintf fmt (v * 30)
    in
    return (docs, query, List.sort_uniq compare idxs))

let arb_sql_case =
  QCheck.make gen_sql_case ~print:(fun (docs, query, idxs) ->
      Printf.sprintf "sql=%s\nindexes=%s\ndocs=\n%s" query
        (String.concat "," (List.map (fun i -> index_defs.(i)) idxs))
        (String.concat "\n" docs))

let run_sql_case (docs, query, idxs) =
  let db = Engine.create () in
  ignore (Helpers.sql db "CREATE TABLE t (id integer, d XML)");
  Engine.load_documents db ~table:"t" ~column:"d" docs;
  List.iter (fun i -> ignore (Helpers.sql db index_defs.(i))) idxs;
  let show r =
    String.concat "\n"
      (List.map
         (fun row ->
           String.concat "|" (List.map Storage.Sql_value.to_display row))
         r.Sqlxml.Sql_exec.rrows)
  in
  let indexed =
    try Ok (show (Helpers.sql db query)) with _ -> Error ()
  in
  Engine.set_use_indexes db false;
  let scanned = try Ok (show (Helpers.sql db query)) with _ -> Error () in
  match (indexed, scanned) with
  | Ok a, Ok b -> a = b
  | Error _, Error _ | Ok _, Error _ -> true
  | Error _, Ok _ -> false

let prop_sql_def1 =
  QCheck.Test.make ~name:"Definition 1 through SQL/XML (XMLEXISTS/XMLTABLE)"
    ~count:200 arb_sql_case run_sql_case

let suite =
  [
    ( "def1:props",
      List.map QCheck_alcotest.to_alcotest [ prop_def1; prop_sql_def1 ] );
  ]
