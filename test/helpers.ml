(** Shared test helpers. *)

open Xdm

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let parse_doc s = Xmlparse.Xml_parser.parse_document s

(** Evaluate a stand-alone XQuery over named collections given as XML
    strings; returns the result sequence. *)
let xq ?(collections : (string * string list) list = []) (src : string) :
    Item.seq =
  let docs =
    List.map
      (fun (name, xmls) -> (name, List.map (fun x -> Item.N (parse_doc x)) xmls))
      collections
  in
  let resolver name =
    match
      List.assoc_opt (String.lowercase_ascii name)
        (List.map (fun (n, d) -> (String.lowercase_ascii n, d)) docs)
    with
    | Some d -> d
    | None -> Xerror.raise_err "FODC0002" "unknown collection %S" name
  in
  Xquery.Eval.run_string ~resolver src

(** Evaluate and serialize. *)
let xq_str ?collections src = Xmlparse.Xml_writer.seq_to_string (xq ?collections src)

(** Expect a dynamic/static error with the given code. *)
let expect_error code f =
  match f () with
  | _ -> Alcotest.failf "expected error [%s], got a result" code
  | exception Xerror.Error e ->
      check Alcotest.string "error code" code e.code

(** {2 Sealed-path statement helpers}

    The tests below predate the structured {!Engine.exec} API and were
    written against the deprecated one-shot wrappers. These helpers keep
    the historical shapes ([Sql_exec.result] rows, [(items, plan)]
    pairs, last-statement accessors) while routing every statement
    through the sealed path — plan cache, autocommit writer slot, coded
    errors. *)

let last_outcome : Engine.outcome option ref = ref None

let exec db src : Engine.outcome =
  let o = Engine.exec db src in
  last_outcome := Some o;
  o

(** [Engine.sql] replacement: same result record, sealed path. Errors
    arrive coded ([Xdm.Xerror.Error]) rather than layer-private. *)
let sql db src : Sqlxml.Sql_exec.result =
  match (exec db src).Engine.payload with
  | Engine.Rows { cols; rows } ->
      { Sqlxml.Sql_exec.rcols = cols; rrows = rows }
  | Engine.Items _ -> Alcotest.fail "expected a rows payload"

(** [Engine.xquery] replacement: [(items, plan)] with the plan rebuilt
    from the outcome (restrictions are not surfaced by [exec]). *)
let xquery db src : Item.seq * Planner.t =
  let o = exec db src in
  ( Engine.outcome_items o,
    {
      Planner.restrictions = [];
      notes = o.Engine.notes;
      indexes_used = o.Engine.indexes_used;
    } )

(** The reference every differential suite compares against: strict
    evaluation of a stand-alone XQuery over the full collections. It
    bypasses the planner, so no index pre-filter and no decomposition
    into lazily produced units is involved. *)
let xquery_strict db src : Item.seq =
  Xquery.Eval.run_string
    ~resolver:(Storage.Database.resolver (Engine.database db))
    src

let last_notes (_ : Engine.t) : string list =
  match !last_outcome with Some o -> o.Engine.notes | None -> []

let last_indexes_used (_ : Engine.t) : string list =
  match !last_outcome with Some o -> o.Engine.indexes_used | None -> []

(** A fresh engine preloaded with the paper's three tables and [n] orders
    with deterministic content. *)
let paper_db ?(n_orders = 60) ?(orders_params = Workload.Orders_gen.default)
    () =
  let db = Engine.create () in
  ignore (sql db "CREATE TABLE orders (ordid integer, orddoc XML)");
  ignore (sql db "CREATE TABLE customer (cid integer, cdoc XML)");
  ignore (sql db "CREATE TABLE products (id varchar(13), name varchar(32))");
  let p = { orders_params with Workload.Orders_gen.n_customers = 20; n_products = 30 } in
  Engine.load_documents db ~table:"orders" ~column:"orddoc"
    (Workload.Orders_gen.orders p n_orders);
  Engine.load_documents db ~table:"customer" ~column:"cdoc"
    (Workload.Orders_gen.customers p);
  List.iter
    (fun (id, name) ->
      ignore
        (sql db
           (Printf.sprintf "INSERT INTO products VALUES ('%s', '%s')" id name)))
    (Workload.Orders_gen.products p);
  db

(** Assert that an indexed run and a collection-scan run of a stand-alone
    XQuery produce identical serialized results (Definition 1), and
    return the plan. *)
let assert_def1 db src : Planner.t =
  let with_idx, plan = xquery db src in
  let without = xquery_strict db src in
  check Alcotest.string
    ("Definition 1: " ^ src)
    (Xmlparse.Xml_writer.seq_to_string without)
    (Xmlparse.Xml_writer.seq_to_string with_idx);
  plan

let used plan = plan.Planner.indexes_used

(** Row count of a SQL statement. *)
let sql_count db src = List.length (sql db src).Sqlxml.Sql_exec.rrows

(** Substring test (avoids external deps). *)
let contains_sub ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

(* Tests run from _build/default/test under `dune runtest`, but from the
   repo root under `dune exec test/test_main.exe`. *)
let fixture_path name =
  let cands =
    [
      Filename.concat "fixtures" name;
      Filename.concat (Filename.concat "test" "fixtures") name;
    ]
  in
  match List.find_opt Sys.file_exists cands with
  | Some p -> p
  | None -> Alcotest.failf "fixture not found: %s" name
