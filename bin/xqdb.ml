(** xqdb — interactive shell for the XML database.

    Accepts SQL/XML statements and stand-alone XQuery, prints results,
    EXPLAIN traces and advisor output.

    Meta commands:
    - [\q] quit
    - [\explain on|off]   print plan notes after each statement
    - [\indexes off|on]   disable/enable index usage
    - [\limits ...]       show / set resource budgets (see ROBUSTNESS.md)
    - [\advise <query>]   run the Tips 1-12 advisor
    - [\lint <query>]     run the full static analyzer (docs/LINTING.md)
    - [\strict on|off]    reject statically ill-typed statements
    - [\profile on|off]   print an EXPLAIN-ANALYZE-style execution profile
                          (operator tree + counters) after each statement
    - [\metrics]          session-lifetime metrics accumulated while
                          profiling is on (docs/OBSERVABILITY.md)
    - [\xsan]             lock-order report: observed lock acquisition
                          orderings and any potential-deadlock cycles
                          (docs/CONCURRENCY.md)
    - [\prepare N S]      compile statement S under name N (SQL [?] and
                          XQuery free [$var]s become parameter slots)
    - [\exec N ARGS]      execute prepared N; ARGS are positional values
                          for SQL, [var=value] pairs for XQuery
    - [\cursor K S]       stream at most K results of S through a cursor,
                          then close it (unpulled results never compute)
    - [\begin [read]]     open an explicit transaction (read-write by
                          default, read-only with [read]); statements run
                          inside it until [\commit] or [\rollback]
                          (docs/TRANSACTIONS.md)
    - [\commit]           publish the open transaction atomically
    - [\rollback]         discard it — rows and index entries revert
    - [\cache]            plan-cache statistics
    - [\tables] [\idx]    catalog listings
    - [\checkpoint]       durable mode: snapshot the catalog and truncate
                          the WAL (docs/DURABILITY.md)
    - [\demo]             load a small orders/customer/products demo db

    With [--data-dir DIR] the session is durable: every mutating
    statement is written ahead to DIR's log before it commits, and
    reopening the directory recovers committed data after a crash.

    With [--connect HOST:PORT] the shell runs against a remote [xqdbd]
    over the Xnet wire protocol instead of embedding an engine;
    statements, [\prepare]/[\exec], [\cursor], [\limits], [\metrics] and
    [\checkpoint] execute server-side (docs/SERVER.md).

    Batch linting: [xqdb --lint FILE...] analyzes each file (one
    statement per file) and exits non-zero if any Error-severity
    diagnostic is found; [--json] switches to machine-readable output. *)

let explain = ref false

(** With [--profile --json], per-statement profiles are emitted as one
    JSON object per statement instead of the text report. *)
let profile_json = ref false

let maybe_print_profile db =
  if Engine.profiling db then begin
    let p = Engine.profile db in
    if !profile_json then
      print_endline (Xprof.Json.to_string (Xprof.to_json p))
    else print_string (Xprof.report p)
  end

(** Merge whitespace-separated [steps=N nodes=N depth=N timeout=SECS]
    assignments into [cur] (shared by the local and remote [\limits]). *)
let limits_of_args (cur : Xdm.Limits.t) (args : string) : Xdm.Limits.t =
  let l = ref cur in
  String.split_on_char ' ' args
  |> List.filter (fun s -> s <> "")
  |> List.iter (fun kv ->
         match String.index_opt kv '=' with
         | None -> Printf.printf "bad \\limits argument %S (want key=value)\n" kv
         | Some i -> (
             let k = String.sub kv 0 i in
             let v = String.sub kv (i + 1) (String.length kv - i - 1) in
             match (k, int_of_string_opt v, float_of_string_opt v) with
             | "steps", Some n, _ -> l := { !l with Xdm.Limits.max_steps = Some n }
             | "nodes", Some n, _ -> l := { !l with Xdm.Limits.max_nodes = Some n }
             | "depth", Some n, _ -> l := { !l with Xdm.Limits.max_depth = Some n }
             | "timeout", _, Some s -> l := { !l with Xdm.Limits.timeout = Some s }
             | _ ->
                 Printf.printf
                   "bad \\limits argument %S (want steps=N nodes=N depth=N \
                    timeout=SECS)\n"
                   kv));
  !l

(** [\limits] — bare: show; [off]: clear; otherwise assignments merged
    into the current limits. *)
let set_limits_cmd db (args : string) =
  let args = String.trim args in
  if args = "" then
    print_endline (Xdm.Limits.to_string (Engine.limits db))
  else if args = "off" then begin
    Engine.set_limits db Xdm.Limits.unlimited;
    print_endline "limits cleared"
  end
  else begin
    Engine.set_limits db (limits_of_args (Engine.limits db) args);
    print_endline (Xdm.Limits.to_string (Engine.limits db))
  end

(* Prepared statements of this shell session, by user-chosen name. *)
let prepared : (string, Engine.stmt) Hashtbl.t = Hashtbl.create 8

(* The shell's open explicit transaction, if any: every statement,
   [\exec] and [\cursor] runs inside it until \commit/\rollback. *)
let current_txn : Engine.Txn.txn option ref = ref None

let txn_begin_cmd db (arg : string) =
  match (!current_txn, String.trim arg) with
  | Some _, _ ->
      print_endline
        "a transaction is already open (\\commit or \\rollback it first)"
  | None, "" ->
      current_txn := Some (Engine.Txn.begin_ db);
      print_endline "BEGIN (read-write)"
  | None, "read" ->
      current_txn := Some (Engine.Txn.begin_ ~mode:Engine.Txn.Read_only db);
      print_endline "BEGIN (read-only)"
  | None, a -> Printf.printf "bad \\begin argument %S (usage: \\begin [read])\n" a

let txn_end_cmd ~commit =
  match !current_txn with
  | None -> print_endline "no transaction is open (use \\begin)"
  | Some tx ->
      current_txn := None;
      if commit then begin
        Engine.Txn.commit tx;
        print_endline "COMMIT"
      end
      else begin
        Engine.Txn.rollback tx;
        print_endline "ROLLBACK"
      end

(** Split [\exec] arguments on whitespace; single quotes group (and stay
    in the token, so the value parsers can see them). *)
let split_args (s : string) : string list =
  let buf = Buffer.create 16 in
  let out = ref [] in
  let flush_tok () =
    if Buffer.length buf > 0 then begin
      out := Buffer.contents buf :: !out;
      Buffer.clear buf
    end
  in
  let in_quote = ref false in
  String.iter
    (fun c ->
      if !in_quote then begin
        Buffer.add_char buf c;
        if c = '\'' then in_quote := false
      end
      else if c = ' ' || c = '\t' then flush_tok ()
      else begin
        Buffer.add_char buf c;
        if c = '\'' then in_quote := true
      end)
    s;
  flush_tok ();
  List.rev !out

let is_ident s =
  s <> ""
  && String.for_all
       (fun c ->
         ('a' <= c && c <= 'z')
         || ('A' <= c && c <= 'Z')
         || ('0' <= c && c <= '9')
         || c = '_')
       s

(** Sort [\exec] arguments into positional SQL values and named XQuery
    bindings: a [name=value] token (identifier before the [=]) binds a
    variable, anything else is positional. *)
let parse_bindings (toks : string list) :
    Storage.Sql_value.t list * (string * Xdm.Item.seq) list =
  List.partition_map
    (fun tok ->
      match String.index_opt tok '=' with
      | Some i when i > 0 && is_ident (String.sub tok 0 i) ->
          let v = String.sub tok (i + 1) (String.length tok - i - 1) in
          Right
            (String.sub tok 0 i, [ Xdm.Item.A (Engine.atomic_of_string v) ])
      | _ -> Left (Engine.sql_value_of_string tok))
    toks

let print_outcome db (out : Engine.outcome) =
  (match out.Engine.payload with
  | Engine.Rows { cols; rows } ->
      if cols <> [] then print_endline (String.concat " | " cols);
      List.iter
        (fun row ->
          print_endline
            (String.concat " | " (List.map Storage.Sql_value.to_display row)))
        rows;
      Printf.printf "(%d rows)\n" (List.length rows)
  | Engine.Items items ->
      List.iter (fun it -> print_endline (Engine.to_xml [ it ])) items;
      Printf.printf "(%d items)\n" (List.length items));
  if !explain then begin
    List.iter (fun n -> Printf.printf "-- %s\n" n) out.Engine.notes;
    List.iter (fun n -> Printf.printf "-- %s\n" n) out.Engine.diagnostics
  end;
  maybe_print_profile db

let prepare_cmd db (args : string) =
  let args = String.trim args in
  match String.index_opt args ' ' with
  | None -> print_endline "usage: \\prepare NAME STATEMENT"
  | Some i ->
      let name = String.sub args 0 i in
      let src = String.trim (String.sub args (i + 1) (String.length args - i - 1)) in
      let st = Engine.prepare db src in
      Hashtbl.replace prepared name st;
      (match Engine.stmt_params st with
      | [] -> Printf.printf "prepared %s (no parameters)\n" name
      | ps ->
          Printf.printf "prepared %s (parameters: %s)\n" name
            (String.concat ", " ps))

let exec_cmd db (args : string) =
  let args = String.trim args in
  let name, rest =
    match String.index_opt args ' ' with
    | None -> (args, "")
    | Some i ->
        ( String.sub args 0 i,
          String.sub args (i + 1) (String.length args - i - 1) )
  in
  match Hashtbl.find_opt prepared name with
  | None -> Printf.printf "no prepared statement %S (use \\prepare)\n" name
  | Some st ->
      let params, vars = parse_bindings (split_args rest) in
      print_outcome db (Engine.execute ?txn:!current_txn ~params ~vars st)

let cursor_cmd db (args : string) =
  let args = String.trim args in
  let usage () = print_endline "usage: \\cursor COUNT STATEMENT" in
  match String.index_opt args ' ' with
  | None -> usage ()
  | Some i -> (
      match int_of_string_opt (String.sub args 0 i) with
      | None -> usage ()
      | Some n ->
          let src =
            String.trim (String.sub args (i + 1) (String.length args - i - 1))
          in
          let cur = Engine.open_cursor ?txn:!current_txn db src in
          Fun.protect
            ~finally:(fun () -> Engine.Cursor.close cur)
            (fun () ->
              if Engine.Cursor.columns cur <> [] then
                print_endline (String.concat " | " (Engine.Cursor.columns cur));
              let rec pull k =
                if k < n then
                  match Engine.Cursor.next cur with
                  | None -> ()
                  | Some (Engine.Cursor.Row row) ->
                      print_endline
                        (String.concat " | "
                           (List.map Storage.Sql_value.to_display row));
                      pull (k + 1)
                  | Some (Engine.Cursor.Item it) ->
                      print_endline (Engine.to_xml [ it ]);
                      pull (k + 1)
              in
              pull 0;
              Printf.printf "(%d pulled; cursor closed)\n"
                (Engine.Cursor.row_count cur)))

let cache_cmd db =
  let s = Engine.plan_cache_stats db in
  Printf.printf
    "plan cache: %d/%d entries, %d hits, %d misses, %d invalidations, %d \
     evictions\n"
    s.Engine.Plan_cache.size s.Engine.Plan_cache.capacity
    s.Engine.Plan_cache.hits s.Engine.Plan_cache.misses
    s.Engine.Plan_cache.invalidations s.Engine.Plan_cache.evictions

let load_demo db =
  ignore (Engine.exec db "CREATE TABLE orders (ordid integer, orddoc XML)");
  ignore (Engine.exec db "CREATE TABLE customer (cid integer, cdoc XML)");
  ignore
    (Engine.exec db "CREATE TABLE products (id varchar(13), name varchar(32))");
  let p = { Workload.Orders_gen.default with n_customers = 50; n_products = 40 } in
  Engine.load_documents db ~table:"orders" ~column:"orddoc"
    (Workload.Orders_gen.orders p 500);
  Engine.load_documents db ~table:"customer" ~column:"cdoc"
    (Workload.Orders_gen.customers p);
  List.iter
    (fun (id, name) ->
      ignore
        (Engine.exec db
           (Printf.sprintf "INSERT INTO products VALUES ('%s', '%s')" id name)))
    (Workload.Orders_gen.products p);
  print_endline
    "demo loaded: orders(500 docs), customer(50 docs), products(40 rows)"

let exec_one db (line : string) =
  let line = String.trim line in
  if line = "" then ()
  else if line = "\\q" then raise Exit
  else if line = "\\demo" then load_demo db
  else if line = "\\explain on" then explain := true
  else if line = "\\explain off" then explain := false
  else if line = "\\indexes off" then Engine.set_use_indexes db false
  else if line = "\\indexes on" then Engine.set_use_indexes db true
  else if line = "\\limits" then set_limits_cmd db ""
  else if String.length line > 8 && String.sub line 0 8 = "\\limits " then
    set_limits_cmd db (String.sub line 8 (String.length line - 8))
  else if line = "\\parallel" then
    Printf.printf "parallelism: %d (backend: %s)\n" (Engine.parallelism db)
      Xpar.backend
  else if String.length line > 10 && String.sub line 0 10 = "\\parallel " then begin
    let arg = String.trim (String.sub line 10 (String.length line - 10)) in
    match int_of_string_opt arg with
    | Some n when n >= 1 ->
        Engine.set_parallelism db n;
        Printf.printf "parallelism: %d (backend: %s)\n" (Engine.parallelism db)
          Xpar.backend
    | _ ->
        print_endline
          "bad \\parallel argument; usage: \\parallel N (N >= 1)"
  end
  else if line = "\\tables" then
    List.iter
      (fun (t : Storage.Table.t) ->
        Printf.printf "%s (%d rows): %s\n" t.Storage.Table.name
          (Storage.Table.row_count t)
          (String.concat ", "
             (List.map
                (fun (c : Storage.Table.col_def) ->
                  c.Storage.Table.col_name ^ " "
                  ^ Storage.Sql_value.type_name c.Storage.Table.col_type)
                t.Storage.Table.cols)))
      (Storage.Database.tables (Engine.database db))
  else if line = "\\idx" then begin
    List.iter
      (fun (i : Xmlindex.Xindex.t) ->
        Printf.printf "%s ON %s(%s) XMLPATTERN %s AS %s (%d entries)\n"
          i.Xmlindex.Xindex.def.Xmlindex.Xindex.iname
          i.Xmlindex.Xindex.def.Xmlindex.Xindex.table
          i.Xmlindex.Xindex.def.Xmlindex.Xindex.column
          (Xmlindex.Pattern.to_string i.Xmlindex.Xindex.def.Xmlindex.Xindex.pattern)
          (Xmlindex.Xindex.vtype_to_string
             i.Xmlindex.Xindex.def.Xmlindex.Xindex.vtype)
          (Xmlindex.Xindex.entry_count i))
      (Engine.xml_indexes db);
    List.iter
      (fun (i : Xmlindex.Rel_index.t) ->
        Printf.printf "%s ON %s(%s) relational (%d entries)\n"
          i.Xmlindex.Rel_index.iname i.Xmlindex.Rel_index.table
          i.Xmlindex.Rel_index.column
          (Xmlindex.Rel_index.entry_count i))
      (Engine.rel_indexes db)
  end
  else if String.length line > 8 && String.sub line 0 8 = "\\advise " then begin
    let q = String.sub line 8 (String.length line - 8) in
    match Engine.advise db q with
    | [] -> print_endline "no advice: the query follows the guidelines"
    | advs -> List.iter (fun a -> print_endline (Engine.Advisor.to_string a)) advs
  end
  else if line = "\\strict on" then Engine.set_strict_types db true
  else if line = "\\strict off" then Engine.set_strict_types db false
  else if line = "\\profile on" then Engine.set_profiling db true
  else if line = "\\profile off" then Engine.set_profiling db false
  else if line = "\\metrics" then begin
    Engine.refresh_lock_metrics db;
    print_string (Xprof.Registry.to_string (Engine.registry db));
    cache_cmd db
  end
  else if line = "\\begin" then txn_begin_cmd db ""
  else if String.length line > 7 && String.sub line 0 7 = "\\begin " then
    txn_begin_cmd db (String.sub line 7 (String.length line - 7))
  else if line = "\\commit" then txn_end_cmd ~commit:true
  else if line = "\\rollback" then txn_end_cmd ~commit:false
  else if line = "\\xsan" then print_string (Xpar.Lockorder.report ())
  else if line = "\\cache" then cache_cmd db
  else if line = "\\checkpoint" then (
    match Engine.data_dir db with
    | None -> print_endline "in-memory session: nothing to checkpoint"
    | Some dir ->
        Engine.checkpoint db;
        Printf.printf "checkpoint written (%s)\n" dir)
  else if String.length line > 9 && String.sub line 0 9 = "\\prepare " then
    prepare_cmd db (String.sub line 9 (String.length line - 9))
  else if String.length line > 6 && String.sub line 0 6 = "\\exec " then
    exec_cmd db (String.sub line 6 (String.length line - 6))
  else if String.length line > 8 && String.sub line 0 8 = "\\cursor " then
    cursor_cmd db (String.sub line 8 (String.length line - 8))
  else if String.length line > 6 && String.sub line 0 6 = "\\lint " then begin
    let q = String.sub line 6 (String.length line - 6) in
    match List.sort Analysis.Diag.compare (Engine.analyze db q) with
    | [] -> print_endline "no findings"
    | ds -> List.iter (fun d -> print_endline (Analysis.Diag.to_string ~src:q d)) ds
  end
  else
    (* The sealed entry point auto-detects SQL vs stand-alone XQuery,
       goes through the plan cache (repeated statements compile once) and
       applies the strict-mode static gate at compile time. *)
    print_outcome db (Engine.exec ?txn:!current_txn db line)

(** Report any statement failure without killing the session. The final
    catch-all matters: a statement that parses as SQL but dies on an
    exception no handler names must not take the shell down with it. *)
let report_error = function
  | Xdm.Xerror.Error { code; msg } -> Printf.printf "ERROR [%s] %s\n" code msg
  | Sqlxml.Sql_exec.Sql_runtime_error m -> Printf.printf "SQL ERROR: %s\n" m
  | Sqlxml.Sql_lexer.Sql_syntax_error m -> Printf.printf "SYNTAX ERROR: %s\n" m
  | Xmlparse.Xml_parser.Xml_error { pos; msg } ->
      Printf.printf "XML ERROR at offset %d: %s\n" pos msg
  | Faultinject.Injected { point; msg } ->
      Printf.printf "FAULT [%s] %s (statement rolled back)\n" point msg
  | Failure m -> Printf.printf "ERROR: %s\n" m
  | e -> Printf.printf "UNEXPECTED ERROR: %s\n" (Printexc.to_string e)

let exec_line db line =
  try exec_one db line with
  | Exit -> raise Exit
  | e -> report_error e

(* ------------------------------------------------------------------ *)
(* Remote mode: --connect HOST:PORT speaks the Xnet wire protocol to a
   running xqdbd instead of embedding an engine. The same meta-command
   surface where it makes sense remotely: statements, \prepare, \exec,
   \cursor, \limits, \metrics, \checkpoint, \begin/\commit/\rollback
   (the server holds the transaction), \explain, \q. Values travel
   as literal strings and are parsed server-side with the same rules as
   the local \exec.                                                    *)
(* ------------------------------------------------------------------ *)

(** Like {!parse_bindings} but keeping the literal strings: the server
    does the parsing. *)
let parse_raw_bindings (toks : string list) : Xnet.Proto.bindings =
  let params, vars =
    List.partition_map
      (fun tok ->
        match String.index_opt tok '=' with
        | Some i when i > 0 && is_ident (String.sub tok 0 i) ->
            Either.Right
              ( String.sub tok 0 i,
                String.sub tok (i + 1) (String.length tok - i - 1) )
        | _ -> Either.Left tok)
      toks
  in
  { Xnet.Proto.params; vars }

let print_remote_okay (o : Xnet.Client.okay) =
  (match o.Xnet.Client.payload with
  | Xnet.Proto.Wrows { cols; rows } ->
      if cols <> [] then print_endline (String.concat " | " cols);
      List.iter (fun row -> print_endline (String.concat " | " row)) rows;
      Printf.printf "(%d rows)\n" (List.length rows)
  | Xnet.Proto.Witems items ->
      List.iter print_endline items;
      Printf.printf "(%d items)\n" (List.length items));
  if !explain then begin
    List.iter (fun n -> Printf.printf "-- %s\n" n) o.Xnet.Client.notes;
    List.iter (fun n -> Printf.printf "-- %s\n" n) o.Xnet.Client.diagnostics
  end

(* The server enforces limits per session; the client only needs the
   current value to support incremental \limits merges. *)
let remote_limits = ref Xdm.Limits.unlimited

let remote_limits_cmd conn (args : string) =
  let args = String.trim args in
  if args = "" then print_endline (Xdm.Limits.to_string !remote_limits)
  else begin
    (if args = "off" then remote_limits := Xdm.Limits.unlimited
     else remote_limits := limits_of_args !remote_limits args);
    Xnet.Client.set_limits conn !remote_limits;
    print_endline (Xdm.Limits.to_string !remote_limits)
  end

let remote_prepare_cmd conn (args : string) =
  let args = String.trim args in
  match String.index_opt args ' ' with
  | None -> print_endline "usage: \\prepare NAME STATEMENT"
  | Some i ->
      let name = String.sub args 0 i in
      let src =
        String.trim (String.sub args (i + 1) (String.length args - i - 1))
      in
      (match Xnet.Client.prepare conn ~name src with
      | [] -> Printf.printf "prepared %s (no parameters)\n" name
      | ps ->
          Printf.printf "prepared %s (parameters: %s)\n" name
            (String.concat ", " ps))

let remote_exec_cmd conn (args : string) =
  let args = String.trim args in
  let name, rest =
    match String.index_opt args ' ' with
    | None -> (args, "")
    | Some i ->
        ( String.sub args 0 i,
          String.sub args (i + 1) (String.length args - i - 1) )
  in
  let b = parse_raw_bindings (split_args rest) in
  print_remote_okay (Xnet.Client.execute ~b conn name)

let remote_cursor_cmd conn (args : string) =
  let args = String.trim args in
  let usage () = print_endline "usage: \\cursor COUNT STATEMENT" in
  match String.index_opt args ' ' with
  | None -> usage ()
  | Some i -> (
      match int_of_string_opt (String.sub args 0 i) with
      | None -> usage ()
      | Some n ->
          let src =
            String.trim (String.sub args (i + 1) (String.length args - i - 1))
          in
          let cursor, cols = Xnet.Client.open_cursor conn src in
          if cols <> [] then print_endline (String.concat " | " cols);
          let elems, finished = Xnet.Client.fetch conn ~cursor ~max:n in
          List.iter
            (function
              | Xnet.Proto.Brow row ->
                  print_endline (String.concat " | " row)
              | Xnet.Proto.Bitem xml -> print_endline xml)
            elems;
          if not finished then Xnet.Client.close_cursor conn cursor;
          Printf.printf "(%d pulled; cursor closed)\n" (List.length elems))

let remote_exec_one conn (line : string) =
  let line = String.trim line in
  let has_prefix p =
    String.length line > String.length p
    && String.sub line 0 (String.length p) = p
  in
  let after p =
    String.sub line (String.length p) (String.length line - String.length p)
  in
  if line = "" then ()
  else if line = "\\q" then raise Exit
  else if line = "\\explain on" then explain := true
  else if line = "\\explain off" then explain := false
  else if line = "\\limits" then remote_limits_cmd conn ""
  else if has_prefix "\\limits " then remote_limits_cmd conn (after "\\limits ")
  else if line = "\\begin" then begin
    Xnet.Client.txn_begin conn;
    print_endline "BEGIN (read-write)"
  end
  else if line = "\\begin read" then begin
    Xnet.Client.txn_begin ~mode:Xnet.Proto.Read_only conn;
    print_endline "BEGIN (read-only)"
  end
  else if line = "\\commit" then begin
    Xnet.Client.txn_commit conn;
    print_endline "COMMIT"
  end
  else if line = "\\rollback" then begin
    Xnet.Client.txn_rollback conn;
    print_endline "ROLLBACK"
  end
  else if line = "\\metrics" then print_string (Xnet.Client.stats conn)
  else if line = "\\checkpoint" then begin
    Xnet.Client.checkpoint conn;
    print_endline "checkpoint requested"
  end
  else if has_prefix "\\prepare " then remote_prepare_cmd conn (after "\\prepare ")
  else if has_prefix "\\exec " then remote_exec_cmd conn (after "\\exec ")
  else if has_prefix "\\cursor " then remote_cursor_cmd conn (after "\\cursor ")
  else if String.length line > 0 && line.[0] = '\\' then
    Printf.printf "meta command not available over --connect: %s\n" line
  else print_remote_okay (Xnet.Client.exec conn line)

let remote_exec_line conn line =
  try remote_exec_one conn line with
  | Exit -> raise Exit
  | Xnet.Client.Net_error m ->
      Printf.printf "CONNECTION ERROR: %s\n" m;
      raise Exit
  | e -> report_error e

let remote_main (hostport : string) (script : string option) : unit =
  let host, port =
    match String.rindex_opt hostport ':' with
    | Some i -> (
        let h = String.sub hostport 0 i in
        let p = String.sub hostport (i + 1) (String.length hostport - i - 1) in
        match int_of_string_opt p with
        | Some p -> ((if h = "" then "127.0.0.1" else h), p)
        | None -> failwith (Printf.sprintf "bad --connect address %S" hostport))
    | None -> failwith (Printf.sprintf "bad --connect address %S (want HOST:PORT)" hostport)
  in
  let conn = Xnet.Client.connect ~user:(Sys.getenv_opt "USER" |> Option.value ~default:"anon") ~host ~port () in
  Printf.printf "connected to %s (session %d)\n"
    (Xnet.Client.server conn) (Xnet.Client.session conn);
  Fun.protect
    ~finally:(fun () -> Xnet.Client.close conn)
    (fun () ->
      match script with
      | Some f ->
          In_channel.with_open_text f (fun ic ->
              try
                while true do
                  match In_channel.input_line ic with
                  | None -> raise Exit
                  | Some line -> remote_exec_line conn line
                done
              with Exit -> ())
      | None ->
          (try
             while true do
               print_string "xqdb> ";
               flush stdout;
               match In_channel.input_line stdin with
               | None -> raise Exit
               | Some line -> remote_exec_line conn line
             done
           with Exit | End_of_file -> ());
          print_endline "bye")

let repl db =
  (try
     while true do
       print_string "xqdb> ";
       flush stdout;
       match In_channel.input_line stdin with
       | None -> raise Exit
       | Some line -> exec_line db line
     done
   with Exit | End_of_file -> ());
  print_endline "bye"

open Cmdliner

let script =
  Arg.(
    value
    & opt (some file) None
    & info [ "f"; "file" ] ~docv:"FILE" ~doc:"Execute statements from $(docv) (one per line), then exit.")

let demo =
  Arg.(value & flag & info [ "demo" ] ~doc:"Preload the demo database.")

let parallel =
  Arg.(
    value & opt int 1
    & info [ "parallel" ] ~docv:"N"
        ~doc:
          "Evaluate scan-shaped work (collection scans, multi-index \
           AND/OR, bulk loads) on $(docv) domains. Results are \
           deterministic at any level. On OCaml 4.x builds the value is \
           accepted but execution stays sequential.")

let do_explain =
  Arg.(value & flag & info [ "explain" ] ~doc:"Print plan notes after each statement.")

let lint_files =
  Arg.(
    value
    & opt_all file []
    & info [ "lint" ] ~docv:"FILE"
        ~doc:
          "Run the static analyzer on $(docv) (one statement per file) and \
           exit. Repeatable. Exit status 1 if any Error-severity \
           diagnostic is reported.")

let json_out =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "With $(b,--lint): emit diagnostics as JSON. With \
           $(b,--profile): emit one JSON profile object per statement.")

let data_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "data-dir" ] ~docv:"DIR"
        ~doc:
          "Open (or create) a durable database in $(docv): statements are \
           written ahead to a log and survive crashes; reopening the \
           directory runs recovery. Without this flag the session is \
           in-memory. See docs/DURABILITY.md.")

let no_fsync =
  Arg.(
    value & flag
    & info [ "no-fsync" ]
        ~doc:
          "With $(b,--data-dir): skip the per-commit fsync (still durable \
           against process crashes, not against power loss).")

let connect_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "connect" ] ~docv:"HOST:PORT"
        ~doc:
          "Remote mode: connect to a running $(b,xqdbd) over the Xnet \
           wire protocol instead of embedding an engine. Statements, \
           \\\\prepare/\\\\exec, \\\\cursor, \\\\limits, \\\\metrics and \
           \\\\checkpoint run server-side; engine flags like \
           $(b,--data-dir) and $(b,--parallel) are the server's business \
           and are rejected here. See docs/SERVER.md.")

let profile_file =
  Arg.(
    value
    & opt (some file) None
    & info [ "profile" ] ~docv:"FILE"
        ~doc:
          "Execute statements from $(docv) (one per line) with profiling \
           on, printing an execution profile after each statement, then \
           exit. Combine with $(b,--json) for machine-readable output.")

(** [--lint FILE...]: analyze each file as one statement; human output
    shows caret snippets, [--json] emits one JSON object per file. *)
let lint_main db (files : string list) (json : bool) : int =
  let failed = ref false in
  List.iter
    (fun f ->
      let src = String.trim (In_channel.with_open_text f In_channel.input_all) in
      let ds = List.sort Analysis.Diag.compare (Engine.analyze db src) in
      if List.exists Analysis.Diag.is_error ds then failed := true;
      if json then
        Printf.printf "{\"file\":\"%s\",\"diagnostics\":%s}\n"
          (Analysis.Diag.json_escape f)
          (Analysis.Diag.list_to_json ds)
      else begin
        Printf.printf "== %s\n" f;
        if ds = [] then print_endline "no findings"
        else
          List.iter
            (fun d -> print_endline (Analysis.Diag.to_string ~src d))
            ds
      end)
    files;
  if !failed then 1 else 0

let run_file db f =
  In_channel.with_open_text f (fun ic ->
      try
        while true do
          match In_channel.input_line ic with
          | None -> raise Exit
          | Some line -> exec_line db line
        done
      with Exit -> ())

let main script demo parallel do_explain lint json profile data_dir no_fsync
    connect =
  match connect with
  | Some hostport ->
      explain := do_explain;
      if demo || parallel > 1 || lint <> [] || profile <> None
         || data_dir <> None || no_fsync
      then begin
        prerr_endline
          "xqdb: --connect is incompatible with --demo/--parallel/--lint/\
           --profile/--data-dir/--no-fsync (those belong to the server)";
        exit 2
      end;
      (try remote_main hostport script with
      | Failure m ->
          prerr_endline ("xqdb: " ^ m);
          exit 2
      | Xnet.Client.Net_error m ->
          prerr_endline ("xqdb: " ^ m);
          exit 1
      | Xdm.Xerror.Error { code; msg } ->
          Printf.eprintf "xqdb: ERROR [%s] %s\n" code msg;
          exit 1)
  | None ->
  let db =
    match data_dir with
    | None -> Engine.create ()
    | Some dir -> Engine.open_db ~sync:(not no_fsync) ~data_dir:dir ()
  in
  explain := do_explain;
  if parallel > 1 then Engine.set_parallelism db parallel;
  if demo then load_demo db;
  if lint <> [] then exit (lint_main db lint json);
  Fun.protect
    ~finally:(fun () ->
      (* a transaction left open at exit is rolled back, like a dropped
         server session *)
      (match !current_txn with
      | Some tx -> ( try Engine.Txn.rollback tx with _ -> ())
      | None -> ());
      Engine.close db)
    (fun () ->
      match (profile, script) with
      | Some f, _ ->
          Engine.set_profiling db true;
          profile_json := json;
          run_file db f
      | None, Some f -> run_file db f
      | None, None -> repl db)

let cmd =
  Cmd.v
    (Cmd.info "xqdb" ~doc:"XML database shell (XQuery + SQL/XML + XML indexes)")
    Term.(
      const main $ script $ demo $ parallel $ do_explain $ lint_files
      $ json_out $ profile_file $ data_dir_arg $ no_fsync $ connect_arg)

let () = exit (Cmd.eval cmd)
