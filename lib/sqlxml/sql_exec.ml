(** SQL/XML executor.

    Semantics deliberately faithful to the paper:

    - [XMLQuery] in a select list never eliminates rows (Query 5): empty
      results surface as empty sequences;
    - [XMLExists] tests *non-emptiness* — an embedded boolean expression
      makes it constantly true (Query 9);
    - [XMLTable]'s row producer drives the output cardinality (its
      predicates are index-eligible), while COLUMNS PATH expressions yield
      NULL on empty (Query 12) and never filter;
    - [XMLCast] demands a singleton and enforces VARCHAR lengths
      (Query 14/15 failure modes);
    - SQL comparisons use SQL typing (trailing-blank-insensitive strings),
      XQuery comparisons use XML Schema typing (Section 3.3).

    Index use: before iterating a base table the executor consults the
    eligibility analyzer for every XMLExists conjunct and XMLTable row
    producer that passes one of the table's XML columns, plus relational
    predicates — constants give a global restriction, bound outer rows
    give index nested-loop probes. *)

open Sql_ast
module SV = Storage.Sql_value
module P = Eligibility.Predicate

exception Sql_runtime_error of string

let rt_fail fmt = Format.kasprintf (fun m -> raise (Sql_runtime_error m)) fmt

type ctx = {
  db : Storage.Database.t;
  mutable xindexes : Xmlindex.Xindex.t list;
  mutable rindexes : Xmlindex.Rel_index.t list;
  mutable use_indexes : bool;
  mutable notes : string list;  (** EXPLAIN trace of the last statement *)
  mutable used : string list;  (** indexes used by the last statement *)
  resolved : (string, Xquery.Ast.query) Hashtbl.t;
      (** memo: embedded query source → statically resolved query *)
  embed_plans : (string, (string * Xdm.Int_set.t) list) Hashtbl.t;
      (** per-statement memo: embed source → constant-plan restrictions *)
  mutable limits : Xdm.Limits.t;  (** resource budgets per statement *)
  mutable meter : Xdm.Limits.meter;
      (** the running statement's meter; fresh per [exec] so every
          embedded XQuery draws from one shared per-statement budget *)
  mutable params : SV.t array;
      (** positional [?] parameter values for the running statement,
          installed by the prepared-statement layer before [exec] *)
  mutable catalog_gen : int;
      (** generation counter bumped by every DDL / index / bulk-load
          change; compiled-plan caches embed it in their keys so catalog
          changes invalidate cached compilations *)
  mutable strict_static : bool;
      (** reject statically ill-typed statements before execution *)
  mutable static_check : (src:string -> Sql_ast.stmt -> unit) option;
      (** the checker run when [strict_static] is on; installed by the
          engine facade (the analyzer lives above this library) *)
  prof : Xprof.t;
      (** execution profile for the running statement; disabled unless
          the engine turns profiling on, in which case [exec] resets it
          at every statement start (same lifecycle as the meter) *)
  mutable parallelism : int;
      (** chunked-scan parallelism (1 = sequential); set through the
          engine facade together with the Xpar pool size *)
  memo_lock : Xpar.Lock.t;
      (** guards [resolved]/[embed_plans] when parallel scan chunks race
          to memoize an embedded query (no-op lock on the sequential
          backend) *)
  mutable txn_undo : Storage.Undo.t option;
      (** transaction-level undo sink: when set (engine read-write
          transactions), [exec] absorbs each committed statement's undo
          log here instead of discarding it, so the whole transaction
          can roll back in LIFO order *)
}

let create ?memo_lock db =
  let memo_lock =
    match memo_lock with
    | Some l -> l
    | None -> Xpar.Lock.create ~name:"sqlexec.memo" ()
  in
  {
    db;
    xindexes = [];
    rindexes = [];
    use_indexes = true;
    notes = [];
    used = [];
    resolved = Hashtbl.create 32;
    embed_plans = Hashtbl.create 32;
    limits = Xdm.Limits.unlimited;
    meter = Xdm.Limits.meter ();
    params = [||];
    catalog_gen = 0;
    strict_static = false;
    static_check = None;
    prof = Xprof.create ();
    parallelism = 1;
    memo_lock;
    txn_undo = None;
  }

let note ctx fmt =
  Format.kasprintf (fun m -> ctx.notes <- m :: ctx.notes) fmt

let catalog ctx : Planner.catalog =
  { Planner.db = ctx.db; indexes = ctx.xindexes }

(* ------------------------------------------------------------------ *)
(* Accessors — the supported surface for callers (engine facade,       *)
(* shell); nothing outside this library should reach into [ctx]'s      *)
(* mutable fields directly.                                            *)
(* ------------------------------------------------------------------ *)

let database ctx = ctx.db
let xml_indexes ctx = ctx.xindexes
let rel_indexes ctx = ctx.rindexes
let use_indexes ctx = ctx.use_indexes
let set_use_indexes ctx b = ctx.use_indexes <- b
let limits ctx = ctx.limits
let set_limits ctx l = ctx.limits <- l

(** EXPLAIN trace of the last statement, oldest note first. *)
let last_notes ctx = List.rev ctx.notes

(** Indexes used by the last statement. *)
let last_used ctx = ctx.used

let profile ctx = ctx.prof
let strict_static ctx = ctx.strict_static
let set_strict_static ctx b = ctx.strict_static <- b
let set_static_check ctx f = ctx.static_check <- f
let static_check ctx = ctx.static_check
let catalog_gen ctx = ctx.catalog_gen
let parallelism ctx = ctx.parallelism

(** Set the chunked-scan parallelism (clamped to at least 1). The engine
    facade keeps this in sync with [Xpar.set_parallelism]. *)
let set_parallelism ctx n = ctx.parallelism <- max 1 n

(** Record a catalog change (DDL, index create/drop, bulk load) so cached
    compiled plans keyed on the old generation go stale. *)
let bump_catalog_gen ctx = ctx.catalog_gen <- ctx.catalog_gen + 1

(** Install the positional [?] parameter values for the next statement. *)
let set_params ctx ps = ctx.params <- ps

(** Install (or clear) the transaction-level undo sink; see [txn_undo]. *)
let set_txn_undo ctx u = ctx.txn_undo <- u

(** A private context over [ctx]'s database and indexes: the same
    settings and profile, its own parameters, EXPLAIN notes, memo tables
    and meter. A cursor drains it lazily while other statements run on
    [ctx]; it must not run DDL (catalog changes would stay private). *)
let fork ctx =
  {
    ctx with
    notes = [];
    used = [];
    params = [||];
    resolved = Hashtbl.create 32;
    embed_plans = Hashtbl.create 32;
    meter = Xdm.Limits.meter ();
  }

(** The memo lock, so the engine can share one lock across the ephemeral
    contexts it builds over MVCC snapshots (creating a named lock per
    context would grow the Lockorder tables without bound). *)
let memo_lock ctx = ctx.memo_lock

type result = { rcols : string list; rrows : SV.t list list }

(* ------------------------------------------------------------------ *)
(* Row environment                                                     *)
(* ------------------------------------------------------------------ *)

type frame = {
  f_alias : string;
  f_cols : string list;
  f_vals : SV.t array;
  f_row_id : int option;  (** base-table frames only *)
  f_table : string option;
}

exception Unbound of string

let env_lookup (env : frame list) (qual : string option) (col : string) : SV.t
    =
  let lc = String.lowercase_ascii in
  let matches f =
    match qual with
    | Some q -> lc f.f_alias = lc q
    | None -> true
  in
  let rec go = function
    | [] ->
        raise
          (Unbound
             (match qual with
             | Some q -> q ^ "." ^ col
             | None -> col))
    | f :: rest ->
        if matches f then
          (* hand-rolled find_index: List.find_index is OCaml >= 5.1 and
             CI also builds on 4.14 *)
          let rec idx i = function
            | [] -> None
            | c :: cs -> if lc c = lc col then Some i else idx (i + 1) cs
          in
          match idx 0 f.f_cols with
          | Some i -> f.f_vals.(i)
          | None -> go rest
        else go rest
  in
  go env

(* ------------------------------------------------------------------ *)
(* Embedded XQuery evaluation                                          *)
(* ------------------------------------------------------------------ *)

let resolved_query ctx (e : xq_embed) : Xquery.Ast.query =
  match Hashtbl.find_opt ctx.resolved e.xq_src with
  | Some q -> q
  | None ->
      let q =
        Xquery.Static.resolve
          ~external_vars:(List.map fst e.xq_passing)
          e.xq_query
      in
      Hashtbl.add ctx.resolved e.xq_src q;
      q

(** Analysis of an embedded query for eligibility purposes: which passing
    variables are XML columns of base tables, which are scalars. *)
let embed_analysis ?(mode = `Value) ctx
    (env_aliases : (string * string) list) (e : xq_embed) :
    P.t * (string * string) list =
  (* env_aliases: alias → table name, for resolving column references *)
  let xml_params = ref [] and scalar_params = ref [] in
  let var_alias = ref [] in
  List.iter
    (fun (var, se) ->
      match se with
      | SCol (qual, col) -> (
          let alias_table =
            match qual with
            | Some q ->
                List.find_opt
                  (fun (a, _) -> String.lowercase_ascii a = String.lowercase_ascii q)
                  env_aliases
            | None ->
                List.find_opt
                  (fun (_, t) ->
                    match Storage.Database.find_table ctx.db t with
                    | Some tbl -> Storage.Table.col_index tbl col <> None
                    | None -> false)
                  env_aliases
          in
          match alias_table with
          | None -> ()
          | Some (alias, tname) -> (
              match Storage.Database.find_table ctx.db tname with
              | None -> ()
              | Some tbl -> (
                  match Storage.Table.col_index tbl col with
                  | None -> ()
                  | Some i ->
                      let def = List.nth tbl.Storage.Table.cols i in
                      var_alias := (var, alias) :: !var_alias;
                      if def.Storage.Table.col_type = SV.TXml then
                        xml_params :=
                          (var, tname ^ "." ^ def.Storage.Table.col_name)
                          :: !xml_params
                      else
                        let aty =
                          match def.Storage.Table.col_type with
                          | SV.TInt -> Some Xdm.Atomic.TInteger
                          | SV.TDouble -> Some Xdm.Atomic.TDouble
                          | SV.TDecimal _ -> Some Xdm.Atomic.TDecimal
                          | SV.TVarchar _ -> Some Xdm.Atomic.TString
                          | SV.TDate -> Some Xdm.Atomic.TDate
                          | SV.TTimestamp -> Some Xdm.Atomic.TDateTime
                          | SV.TXml -> None
                        in
                        scalar_params := (var, aty) :: !scalar_params)))
      | _ -> ())
    e.xq_passing;
  let q = resolved_query ctx e in
  let tree =
    Eligibility.Extract.analyze ~xml_params:!xml_params
      ~scalar_params:!scalar_params ~mode q
  in
  (tree, !var_alias)

let atomic_of_sql (v : SV.t) : Xdm.Atomic.t option =
  match v with
  | SV.Null | SV.Xml _ -> None
  | SV.Int i -> Some (Xdm.Atomic.Integer i)
  | SV.Double f -> Some (Xdm.Atomic.Double f)
  | SV.Varchar s -> Some (Xdm.Atomic.Str s)
  | SV.Date d -> Some (Xdm.Atomic.Date d)
  | SV.Timestamp t -> Some (Xdm.Atomic.DateTime t)

(** Evaluate an embedded XQuery with PASSING values from the current row.
    The collection resolver is restricted by the embed's own
    constant-predicate plan (Definition 1 applied to the embed itself —
    this is what makes Query 6/7-style whole-column XQuery indexable). *)
let rec eval_embed ctx (env : frame list) (e : xq_embed) : Xdm.Item.seq =
  (* the resolve memo is shared across parallel scan chunks — serialize
     the find-or-add (the lock is a no-op on the sequential backend) *)
  let q = Xpar.Lock.with_lock ctx.memo_lock (fun () -> resolved_query ctx e) in
  let vars =
    List.map (fun (v, se) -> (v, SV.to_xdm (eval_sexpr ctx env se))) e.xq_passing
  in
  (* A per-row XML value passed into the embed is a document the engine
     must walk — charge it as a scan, so the SQL-side join formulations
     (Query 15-style XMLEXISTS over every row's document) profile as
     document scans even though they never touch the collection
     resolver. *)
  if ctx.prof.Xprof.on then
    List.iter
      (fun (_, seq) ->
        List.iter
          (function Xdm.Item.N _ -> Xprof.doc ctx.prof | Xdm.Item.A _ -> ())
          seq)
      vars;
  let resolver =
    if ctx.use_indexes then begin
      (* like [resolved], the embed-plan memo is shared across parallel
         scan chunks; the lock also serializes the planner's index
         probes (XISCAN spans on the indexes' shared profile) on the
         memo-miss path, so profiled parallel scans stay span-safe *)
      let restrictions =
        Xpar.Lock.with_lock ctx.memo_lock (fun () ->
            match Hashtbl.find_opt ctx.embed_plans e.xq_src with
            | Some r -> r
            | None ->
                let tree, _ = embed_analysis ctx [] e in
                let plan =
                  Xprof.spanned ctx.prof "PLAN" (fun () ->
                      Planner.plan ~prof:ctx.prof (catalog ctx) tree)
                in
                if plan.Planner.restrictions <> [] then begin
                  ctx.used <-
                    List.sort_uniq compare
                      (plan.Planner.indexes_used @ ctx.used);
                  List.iter (fun n -> note ctx "%s" n) plan.Planner.notes
                end;
                Hashtbl.add ctx.embed_plans e.xq_src plan.Planner.restrictions;
                plan.Planner.restrictions)
      in
      Storage.Database.resolver ~prof:ctx.prof ~restrict_to:restrictions ctx.db
    end
    else Storage.Database.resolver ~prof:ctx.prof ctx.db
  in
  let xctx =
    Xquery.Ctx.init ~resolver
      ~construction_preserve:
        q.Xquery.Ast.prolog.Xquery.Ast.construction_preserve
      ~meter:ctx.meter ~prof:ctx.prof ()
  in
  let xctx = Xquery.Ctx.bind_all xctx vars in
  Xprof.spanned ~rows:List.length ctx.prof "XMLQUERY" (fun () ->
      Xquery.Eval.eval xctx q.Xquery.Ast.body)

(* ------------------------------------------------------------------ *)
(* Scalar expression evaluation                                        *)
(* ------------------------------------------------------------------ *)

and eval_sexpr ctx (env : frame list) (e : sexpr) : SV.t =
  match e with
  | SNull -> SV.Null
  | SLitInt i -> SV.Int i
  | SLitDouble f -> SV.Double f
  | SLitString s -> SV.Varchar s
  | SCol (q, c) -> env_lookup env q c
  | SParam i ->
      if i < Array.length ctx.params then ctx.params.(i)
      else
        rt_fail "parameter ?%d is not bound (%d value%s supplied)" (i + 1)
          (Array.length ctx.params)
          (if Array.length ctx.params = 1 then "" else "s")
  | SAgg _ ->
      rt_fail "aggregate function used outside a grouped projection"
  | SXmlQuery embed -> SV.Xml (eval_embed ctx env embed)
  | SXmlCast (inner, ty) -> xmlcast ctx env inner ty
  | SXmlElement (name, args) ->
      let el = Xdm.Node.element (Xdm.Qname.make name) in
      List.iter
        (fun a ->
          match eval_sexpr ctx env a with
          | SV.Null -> ()
          | SV.Xml seq ->
              List.iter
                (function
                  | Xdm.Item.N n ->
                      Xdm.Node.append_child el (Xdm.Node.copy n)
                  | Xdm.Item.A at ->
                      Xdm.Node.append_child el
                        (Xdm.Node.text (Xdm.Atomic.string_value at)))
                seq
          | v -> Xdm.Node.append_child el (Xdm.Node.text (SV.to_display v)))
        args;
      SV.Xml [ Xdm.Item.N el ]

(** XMLCast: XML → SQL. Singleton-enforcing and length-checking — the
    paper's Query 14/15 failure modes are real runtime errors here. *)
and xmlcast ctx env (inner : sexpr) (ty : sqltype) : SV.t =
  let v = eval_sexpr ctx env inner in
  match v with
  | SV.Xml seq -> (
      match Xdm.Item.atomize seq with
      | [] -> SV.Null
      | [ a ] -> (
          let fail_cast () =
            rt_fail "XMLCAST: cannot cast %S to %s"
              (Xdm.Atomic.string_value a) (SV.type_name ty)
          in
          match ty with
          | SV.TInt -> (
              match Xdm.Atomic.cast_opt a Xdm.Atomic.TInteger with
              | Some (Xdm.Atomic.Integer i) -> SV.Int i
              | _ -> fail_cast ())
          | SV.TDouble | SV.TDecimal _ -> (
              match Xdm.Atomic.cast_opt a Xdm.Atomic.TDouble with
              | Some (Xdm.Atomic.Double f) -> SV.Double f
              | _ -> fail_cast ())
          | SV.TVarchar n ->
              let s = Xdm.Atomic.string_value a in
              if String.length s > n then
                rt_fail
                  "XMLCAST: value %S too long for VARCHAR(%d)" s n
              else SV.Varchar s
          | SV.TDate -> (
              match Xdm.Atomic.cast_opt a Xdm.Atomic.TDate with
              | Some (Xdm.Atomic.Date d) -> SV.Date d
              | _ -> fail_cast ())
          | SV.TTimestamp -> (
              match Xdm.Atomic.cast_opt a Xdm.Atomic.TDateTime with
              | Some (Xdm.Atomic.DateTime t) -> SV.Timestamp t
              | _ -> fail_cast ())
          | SV.TXml -> v)
      | _ ->
          rt_fail
            "XMLCAST: sequence of more than one item (XPTY0004-style type \
             error)")
  | v -> SV.coerce ty v

(* ------------------------------------------------------------------ *)
(* Conditions (three-valued logic)                                     *)
(* ------------------------------------------------------------------ *)

and eval_cond ctx env (c : cond) : bool option =
  match c with
  | CAnd (a, b) -> (
      match (eval_cond ctx env a, eval_cond ctx env b) with
      | Some false, _ | _, Some false -> Some false
      | Some true, Some true -> Some true
      | _ -> None)
  | COr (a, b) -> (
      match (eval_cond ctx env a, eval_cond ctx env b) with
      | Some true, _ | _, Some true -> Some true
      | Some false, Some false -> Some false
      | _ -> None)
  | CNot a -> Option.map not (eval_cond ctx env a)
  | CCmp (op, a, b) -> (
      let va = eval_sexpr ctx env a and vb = eval_sexpr ctx env b in
      match SV.compare_sql va vb with
      | None -> None
      | Some c ->
          Some
            (match op with
            | SEq -> c = 0
            | SNe -> c <> 0
            | SLt -> c < 0
            | SLe -> c <= 0
            | SGt -> c > 0
            | SGe -> c >= 0))
  | CXmlExists embed ->
      (* non-emptiness — a boolean result is still one item (Query 9) *)
      Some (eval_embed ctx env embed <> [])
  | CIsNull (e, want_null) ->
      let v = eval_sexpr ctx env e in
      Some (if want_null then v = SV.Null else v <> SV.Null)

(* ------------------------------------------------------------------ *)
(* SELECT                                                              *)
(* ------------------------------------------------------------------ *)

(** One prepared restriction source: an embedded query whose predicate
    tree can restrict the rows of base-table aliases. *)
type restriction_src = {
  rs_tree : P.t;
  rs_var_alias : (string * string) list;  (** XQuery var → SQL alias *)
  rs_embed : xq_embed;
  rs_origin : string;
}

let prepare_restrictions ctx (s : select) : restriction_src list =
  let env_aliases =
    List.filter_map
      (function
        | TRTable { name; alias } -> Some (alias, name)
        | TRXmlTable _ -> None)
      s.from
  in
  let srcs = ref [] in
  let add_embed ?mode origin e =
    let tree, var_alias = embed_analysis ?mode ctx env_aliases e in
    if tree <> P.PTrue then
      srcs :=
        { rs_tree = tree; rs_var_alias = var_alias; rs_embed = e; rs_origin = origin }
        :: !srcs
  in
  (match s.where with
  | Some w ->
      List.iter
        (function
          | CXmlExists e -> add_embed ~mode:`Exists "XMLEXISTS" e
          | _ -> ())
        (conjuncts w)
  | None -> ());
  List.iter
    (function
      | TRXmlTable xt -> add_embed ~mode:`Exists "XMLTABLE row-producer" xt.xt_embed
      | TRTable _ -> ())
    s.from;
  List.rev !srcs

let flip_cmp = function
  | SEq -> SEq
  | SNe -> SNe
  | SLt -> SGt
  | SLe -> SGe
  | SGt -> SLt
  | SGe -> SLe

(** Restriction of base table [alias] (table [t]) given the current outer
    bindings: intersect restrictions from every applicable source. *)
let table_restriction ctx (srcs : restriction_src list)
    (rel_conjuncts : cond list) (env : frame list) ~(alias : string)
    (t : Storage.Table.t) : Xdm.Int_set.t option =
  if not ctx.use_indexes then None
  else begin
    let lc = String.lowercase_ascii in
    let acc = ref None in
    let add r =
      acc :=
        Some
          (match !acc with None -> r | Some prev -> Xdm.Int_set.inter prev r)
    in
    (* XML restrictions from embedded queries *)
    List.iter
      (fun src ->
        (* does this source constrain a collection of [t] passed from
           [alias]? *)
        let collections =
          List.sort_uniq compare (P.collections src.rs_tree)
        in
        List.iter
          (fun coll ->
            match Storage.Database.split_colref coll with
            | Some (tn, _) when lc tn = lc t.Storage.Table.name ->
                (* the variable that passes this collection must come from
                   our alias *)
                let from_our_alias =
                  List.exists
                    (fun (var, a) ->
                      lc a = lc alias
                      &&
                      match
                        List.assoc_opt var src.rs_embed.xq_passing
                      with
                      | Some _ -> true
                      | None -> false)
                    src.rs_var_alias
                in
                if from_our_alias then begin
                  (* bind scalar/xml parameters available from outer rows *)
                  let params, xml_bindings =
                    List.fold_left
                      (fun (ps, xs) (var, a) ->
                        if lc a = lc alias then (ps, xs)
                        else
                          match
                            List.assoc_opt var src.rs_embed.xq_passing
                          with
                          | Some se -> (
                              match eval_sexpr ctx env se with
                              | exception Unbound _ -> (ps, xs)
                              | SV.Xml seq -> (ps, (var, seq) :: xs)
                              | v -> (
                                  match atomic_of_sql v with
                                  | Some a -> ((var, a) :: ps, xs)
                                  | None -> (ps, xs)))
                          | None -> (ps, xs))
                      ([], []) src.rs_var_alias
                  in
                  let r, notes, used =
                    Planner.restrict_collection ~params ~xml_bindings
                      ~prof:ctx.prof (catalog ctx) src.rs_tree coll
                  in
                  List.iter (fun n -> note ctx "%s" n) notes;
                  ctx.used <- List.sort_uniq compare (used @ ctx.used);
                  match r with
                  | Some rows ->
                      note ctx "%s restricts %s (%s) to %d rows"
                        src.rs_origin alias coll (Xdm.Int_set.cardinal rows);
                      add rows
                  | None -> ()
                end
            | _ -> ())
          collections)
      srcs;
    (* relational restrictions *)
    List.iter
      (fun c ->
        match c with
        | CCmp (op, a, b) ->
            let try_side col_side other flip_op =
              match col_side with
              | SCol (qual, col)
                when (match qual with
                     | Some q -> lc q = lc alias
                     | None -> Storage.Table.col_index t col <> None) -> (
                  match
                    List.find_opt
                      (fun (ri : Xmlindex.Rel_index.t) ->
                        lc ri.Xmlindex.Rel_index.table
                        = lc t.Storage.Table.name
                        && lc ri.Xmlindex.Rel_index.column = lc col)
                      ctx.rindexes
                  with
                  | None -> ()
                  | Some ri -> (
                      match eval_sexpr ctx env other with
                      | exception Unbound _ -> ()
                      | exception Sql_runtime_error _ -> ()
                      | SV.Null -> add Xdm.Int_set.empty
                      | v -> (
                          let op = if flip_op then flip_cmp op else op in
                          let probe lo hi =
                            Xmlindex.Rel_index.probe ri ~lo ~hi
                          in
                          let rows =
                            match op with
                            | SEq -> Some (Xmlindex.Rel_index.probe_eq ri v)
                            | SLt -> Some (probe None (Some (v, false)))
                            | SLe -> Some (probe None (Some (v, true)))
                            | SGt -> Some (probe (Some (v, false)) None)
                            | SGe -> Some (probe (Some (v, true)) None)
                            | SNe -> None
                          in
                          match rows with
                          | Some rows ->
                              ctx.used <-
                                List.sort_uniq compare
                                  (ri.Xmlindex.Rel_index.iname :: ctx.used);
                              note ctx
                                "  RELSCAN %s on %s.%s → %d rows"
                                ri.Xmlindex.Rel_index.iname alias col
                                (Xdm.Int_set.cardinal rows);
                              add rows
                          | None -> ())))
              | _ -> ()
            in
            try_side a b false;
            try_side b a true
        | _ -> ())
      rel_conjuncts;
    !acc
  end

(** Convert an XMLTable column value. XML columns keep node references
    ([BY REF]) or copies ([BY VALUE]); others cast with empty → NULL
    (Query 12: a failed column predicate NULLs the cell, never drops the
    row). *)
let xmltable_column ctx (item : Xdm.Item.t) (col : xt_col) : SV.t =
  let q =
    match Hashtbl.find_opt ctx.resolved ("xtcol:" ^ col.xc_path_src) with
    | Some q -> q
    | None ->
        let q = Xquery.Static.resolve col.xc_query in
        Hashtbl.add ctx.resolved ("xtcol:" ^ col.xc_path_src) q;
        q
  in
  let resolver = Storage.Database.resolver ~prof:ctx.prof ctx.db in
  let xctx =
    Xquery.Ctx.init ~resolver ~meter:ctx.meter ~prof:ctx.prof ()
  in
  let xctx = Xquery.Ctx.with_focus xctx item 1 1 in
  let seq = Xquery.Eval.eval xctx q.Xquery.Ast.body in
  match col.xc_type with
  | SV.TXml ->
      if seq = [] then SV.Null
      else if col.xc_by_ref then SV.Xml seq
      else
        SV.Xml
          (List.map
             (function
               | Xdm.Item.N n -> Xdm.Item.N (Xdm.Node.copy n)
               | a -> a)
             seq)
  | ty -> (
      match Xdm.Item.atomize seq with
      | [] -> SV.Null
      | [ a ] -> (
          let cast_to t k =
            match Xdm.Atomic.cast_opt a t with
            | Some v -> k v
            | None ->
                rt_fail "XMLTABLE column %s: cannot cast %S" col.xc_name
                  (Xdm.Atomic.string_value a)
          in
          match ty with
          | SV.TInt ->
              cast_to Xdm.Atomic.TInteger (function
                | Xdm.Atomic.Integer i -> SV.Int i
                | _ -> assert false)
          | SV.TDouble | SV.TDecimal _ ->
              cast_to Xdm.Atomic.TDouble (function
                | Xdm.Atomic.Double f -> SV.Double f
                | _ -> assert false)
          | SV.TVarchar n ->
              let s = Xdm.Atomic.string_value a in
              if String.length s > n then
                rt_fail "XMLTABLE column %s: value too long for VARCHAR(%d)"
                  col.xc_name n
              else SV.Varchar s
          | SV.TDate ->
              cast_to Xdm.Atomic.TDate (function
                | Xdm.Atomic.Date d -> SV.Date d
                | _ -> assert false)
          | SV.TTimestamp ->
              cast_to Xdm.Atomic.TDateTime (function
                | Xdm.Atomic.DateTime t -> SV.Timestamp t
                | _ -> assert false)
          | SV.TXml -> assert false)
      | _ -> rt_fail "XMLTABLE column %s: more than one item" col.xc_name)

(** Static column check: every column reference in the statement must
    resolve against the FROM list (so "SELECT nosuch FROM t" fails even on
    an empty table). *)
let check_columns ctx (s : select) : unit =
  let lc = String.lowercase_ascii in
  let frames =
    List.map
      (function
        | TRTable { name; alias } ->
            let t = Storage.Database.table_exn ctx.db name in
            ( alias,
              List.map (fun (c : Storage.Table.col_def) -> c.Storage.Table.col_name)
                t.Storage.Table.cols )
        | TRXmlTable xt ->
            ( xt.xt_alias,
              if xt.xt_colnames <> [] then xt.xt_colnames
              else List.map (fun c -> c.xc_name) xt.xt_cols ))
      s.from
  in
  let resolves qual col =
    List.exists
      (fun (alias, cols) ->
        (match qual with Some q -> lc q = lc alias | None -> true)
        && List.exists (fun c -> lc c = lc col) cols)
      frames
  in
  let rec walk_sexpr = function
    | SCol (q, c) ->
        if not (resolves q c) then
          rt_fail "unknown column %s"
            (match q with Some q -> q ^ "." ^ c | None -> c)
    | SXmlQuery e -> List.iter (fun (_, se) -> walk_sexpr se) e.xq_passing
    | SXmlCast (e, _) -> walk_sexpr e
    | SXmlElement (_, args) -> List.iter walk_sexpr args
    | SAgg (_, arg) -> Option.iter walk_sexpr arg
    | SNull | SLitInt _ | SLitDouble _ | SLitString _ | SParam _ -> ()
  in
  let rec walk_cond = function
    | CAnd (a, b) | COr (a, b) ->
        walk_cond a;
        walk_cond b
    | CNot a -> walk_cond a
    | CCmp (_, a, b) ->
        walk_sexpr a;
        walk_sexpr b
    | CXmlExists e -> List.iter (fun (_, se) -> walk_sexpr se) e.xq_passing
    | CIsNull (e, _) -> walk_sexpr e
  in
  List.iter
    (function SelExpr (e, _) -> walk_sexpr e | SelStar -> ())
    s.sel_list;
  List.iter
    (function
      | TRXmlTable xt ->
          List.iter (fun (_, se) -> walk_sexpr se) xt.xt_embed.xq_passing
      | TRTable _ -> ())
    s.from;
  Option.iter walk_cond s.where

(** Output column names of a SELECT ([*] expanded against the catalog). *)
let select_columns ctx (s : select) : string list =
  List.concat_map
    (function
      | SelStar ->
          List.concat_map
            (function
              | TRTable { name; alias = _ } ->
                  let t = Storage.Database.table_exn ctx.db name in
                  List.map
                    (fun (c : Storage.Table.col_def) -> c.Storage.Table.col_name)
                    t.Storage.Table.cols
              | TRXmlTable xt ->
                  if xt.xt_colnames <> [] then xt.xt_colnames
                  else List.map (fun c -> c.xc_name) xt.xt_cols)
            s.from
      | SelExpr (e, alias) ->
          [
            (match (alias, e) with
            | Some a, _ -> a
            | None, SCol (_, c) -> c
            | None, _ -> "?column?");
          ])
    s.sel_list

let table_frame ~alias (t : Storage.Table.t) : Storage.Table.row -> frame =
  let cols =
    List.map
      (fun (c : Storage.Table.col_def) -> c.Storage.Table.col_name)
      t.Storage.Table.cols
  in
  fun r ->
    {
      f_alias = alias;
      f_cols = cols;
      f_vals = r.Storage.Table.values;
      f_row_id = Some r.Storage.Table.row_id;
      f_table = Some t.Storage.Table.name;
    }

(** The one FROM / restriction / WHERE producer. Column checking and
    restriction planning happen at the call, so catalog errors raise at
    open time; joined rows surface as the consumer pulls, each finished
    by [f] once it passes WHERE — so the resource meter is charged
    incrementally and a cursor closed after the first row never pays for
    the rest of the scan. With [parallelism > 1] the innermost scan of a
    single-table FROM runs [f] over contiguous row chunks (forced at the
    first pull) and merges rows, notes and index-use sets in chunk order,
    identical to the sequential run (see docs/PARALLELISM.md). *)
let select_rows ctx (s : select) ~parallelism (f : ctx -> frame list -> 'a) :
    'a Seq.t =
  ctx.notes <- [];
  ctx.used <- [];
  check_columns ctx s;
  let srcs = prepare_restrictions ctx s in
  let rel_conjuncts =
    match s.where with Some w -> conjuncts w | None -> []
  in
  let finish c env =
    match s.where with
    | Some w when eval_cond c env w <> Some true -> None
    | _ -> Some (f c env)
  in
  let many = function _ :: _ :: _ -> true | _ -> false in
  (* one joined row: charge it, then build its frame and continue the
     FROM list *)
  let rec step c env rest frame =
    Xdm.Limits.tick c.meter;
    Xprof.row c.prof;
    envs c (frame () :: env) rest ()
  and chunked frame (rows : Storage.Table.row array) () =
    let slices =
      Xquery.Ctx.chunked ~parallelism ~meter:ctx.meter ~prof:ctx.prof
        (fun meter prof chunk ->
          let c = { ctx with meter; prof; notes = []; used = [] } in
          ( c,
            List.concat_map
              (fun r ->
                List.of_seq (fun () -> step c [] [] (fun () -> frame r)))
              (Array.to_list chunk) ))
        rows
    in
    List.iter
      (fun (c, _) ->
        ctx.notes <- c.notes @ ctx.notes;
        if c.used <> [] then
          ctx.used <- List.sort_uniq compare (c.used @ ctx.used))
      slices;
    List.to_seq (List.concat_map snd slices) ()
  and envs c (env : frame list) (from : table_ref list) : 'a Seq.t =
    match from with
    | [] -> ( match finish c env with Some x -> Seq.return x | None -> Seq.empty)
    | TRTable { name; alias } :: rest ->
        fun () ->
          let t = Storage.Database.table_exn c.db name in
          let restriction =
            table_restriction c srcs rel_conjuncts env ~alias t
          in
          let rows = Storage.Table.rows t in
          let rows =
            match restriction with
            | None -> rows
            | Some keep ->
                List.filter
                  (fun (r : Storage.Table.row) ->
                    Xdm.Int_set.mem r.Storage.Table.row_id keep)
                  rows
          in
          let frame = table_frame ~alias t in
          Xprof.spanned_seq c.prof ("SCAN " ^ alias)
            (if rest = [] && env = [] && parallelism > 1 && many rows then
               chunked frame (Array.of_list rows)
             else
               Seq.concat_map
                 (fun r () -> step c env rest (fun () -> frame r))
                 (List.to_seq rows))
            ()
    | TRXmlTable xt :: rest ->
        fun () ->
          let items = eval_embed c env xt.xt_embed in
          let colnames =
            if xt.xt_colnames <> [] then xt.xt_colnames
            else List.map (fun col -> col.xc_name) xt.xt_cols
          in
          Xprof.spanned_seq c.prof ("XMLTABLE " ^ xt.xt_alias)
            (Seq.concat_map
               (fun item () ->
                 step c env rest (fun () ->
                     {
                       f_alias = xt.xt_alias;
                       f_cols = colnames;
                       f_vals =
                         Array.of_list
                           (List.map (xmltable_column c item) xt.xt_cols);
                       f_row_id = None;
                       f_table = None;
                     }))
               (List.to_seq items))
            ()
  in
  envs ctx [] s.from

(** Strict SELECT: drain the producer, then the GROUP BY and ORDER BY
    barriers, then LIMIT. Without a barrier, LIMIT n takes n rows from the
    sequential producer (as {!exec_seq} does), so rows past the limit are
    never evaluated and a failure past the limit cannot surface at any
    parallelism. *)
let rec exec_select ctx (s : select) : result =
  let drain f =
    match s.limit with
    | Some n when (not (has_aggregates s)) && s.order_by = [] ->
        List.of_seq (Seq.take n (select_rows ctx s ~parallelism:1 f))
    | _ -> List.of_seq (select_rows ctx s ~parallelism:ctx.parallelism f)
  in
  (* Grouped projection: partition captured environments by GROUP BY key
     values, then evaluate the select list once per group (aggregates over
     the group's environments, other expressions on a representative). *)
  let rows =
    if not (has_aggregates s) then
      drain (fun c env ->
          ( List.map (fun (e, asc) -> (eval_sexpr c env e, asc)) s.order_by,
            project c env s.sel_list ))
    else begin
      let envs = drain (fun _ env -> env) in
      let groups = Hashtbl.create 16 in
      let order = ref [] in
      List.iter
        (fun env ->
          let key = List.map (fun e -> eval_sexpr ctx env e) s.group_by in
          let kstr = String.concat "\x00" (List.map SV.to_display key) in
          (match Hashtbl.find_opt groups kstr with
          | Some l -> l := env :: !l
          | None ->
              Hashtbl.add groups kstr (ref [ env ]);
              order := kstr :: !order))
        envs;
      List.rev_map
        (fun kstr ->
          let genvs = List.rev !(Hashtbl.find groups kstr) in
          let rep = List.hd genvs in
          let row = project_grouped ctx genvs rep s.sel_list in
          let okeys =
            List.map
              (fun (e, asc) ->
                ((if sexpr_has_agg e then eval_agg ctx genvs rep e
                  else eval_sexpr ctx rep e),
                  asc))
              s.order_by
          in
          (okeys, row))
        !order
    end
  in
  let rows =
    if s.order_by = [] then rows
    else
      Xprof.spanned
        ~rows:(fun r -> List.length r)
        ctx.prof "SORT"
        (fun () ->
          List.stable_sort
            (fun (ka, _) (kb, _) ->
              let rec go = function
                | [] -> 0
                | ((va, asc), (vb, _)) :: rest -> (
                    (* SQL: NULLs sort last ascending *)
                    let c =
                      match (va, vb) with
                      | SV.Null, SV.Null -> 0
                      | SV.Null, _ -> 1
                      | _, SV.Null -> -1
                      | _ -> (
                          match SV.compare_sql va vb with
                          | Some c -> c
                          | None -> 0)
                    in
                    let c = if asc then c else -c in
                    if c <> 0 then c else go rest)
              in
              go (List.combine ka kb))
            rows)
  in
  let rows =
    match s.limit with
    | None -> rows
    | Some n -> List.filteri (fun i _ -> i < n) rows
  in
  { rcols = select_columns ctx s; rrows = List.map snd rows }

and eval_agg ctx (genvs : frame list list) (rep : frame list) (e : sexpr) :
    SV.t =
  match e with
  | SAgg (agg, arg) -> (
      let vals =
        match arg with
        | None -> List.map (fun _ -> SV.Int 1L) genvs
        | Some a ->
            List.filter_map
              (fun env ->
                match eval_sexpr ctx env a with
                | SV.Null -> None
                | v -> Some v)
              genvs
      in
      match agg with
      | ACount -> SV.Int (Int64.of_int (List.length vals))
      | ASum | AAvg -> (
          let total =
            List.fold_left
              (fun acc v ->
                match (acc, v) with
                | SV.Null, v -> v
                | acc, SV.Int i -> (
                    match acc with
                    | SV.Int a -> SV.Int (Int64.add a i)
                    | SV.Double a -> SV.Double (a +. Int64.to_float i)
                    | _ -> rt_fail "SUM over non-numeric values")
                | acc, SV.Double f -> (
                    match acc with
                    | SV.Int a -> SV.Double (Int64.to_float a +. f)
                    | SV.Double a -> SV.Double (a +. f)
                    | _ -> rt_fail "SUM over non-numeric values")
                | _ -> rt_fail "SUM over non-numeric values")
              SV.Null vals
          in
          match (agg, total) with
          | ASum, t -> t
          | AAvg, SV.Null -> SV.Null
          | AAvg, SV.Int a ->
              SV.Double (Int64.to_float a /. float_of_int (List.length vals))
          | AAvg, SV.Double a ->
              SV.Double (a /. float_of_int (List.length vals))
          | _ -> assert false)
      | AXmlAgg ->
          (* XMLAGG: concatenate the group's XML values into one sequence *)
          SV.Xml
            (List.concat_map
               (function SV.Xml seq -> seq | _ -> [])
               vals)
      | AMin | AMax ->
          List.fold_left
            (fun acc v ->
              match acc with
              | SV.Null -> v
              | acc -> (
                  match SV.compare_sql v acc with
                  | Some c ->
                      if (agg = AMin && c < 0) || (agg = AMax && c > 0) then v
                      else acc
                  | None -> acc))
            SV.Null vals)
  | SXmlCast (inner, ty) -> (
      match eval_agg ctx genvs rep inner with
      | SV.Null -> SV.Null
      | v -> SV.coerce ty v)
  | e -> eval_sexpr ctx rep e

and project_grouped ctx (genvs : frame list list) (rep : frame list)
    (items : sel_item list) : SV.t list =
  List.concat_map
    (function
      | SelStar -> List.concat_map (fun f -> Array.to_list f.f_vals) (List.rev rep)
      | SelExpr (e, _) -> [ eval_agg ctx genvs rep e ])
    items

and project ctx (env : frame list) (items : sel_item list) : SV.t list =
  List.concat_map
    (function
      | SelStar ->
          List.concat_map (fun f -> Array.to_list f.f_vals) (List.rev env)
      | SelExpr (e, _) -> [ eval_sexpr ctx env e ])
    items

(* ------------------------------------------------------------------ *)
(* DDL / DML / entry point                                             *)
(* ------------------------------------------------------------------ *)

(** Wire the maintenance hooks of an XML index into its table; shared by
    CREATE INDEX (which follows with a backfill) and snapshot recovery
    (where the tree was bulk-loaded already). Returns the table, its
    path table and the column's document extractor for the backfill. *)
let wire_xml_index_hooks ctx (idx : Xmlindex.Xindex.t) =
  let d = idx.Xmlindex.Xindex.def in
  let t = Storage.Database.table_exn ctx.db d.Xmlindex.Xindex.table in
  let coli = Storage.Table.col_index_exn t d.Xmlindex.Xindex.column in
  let pt = Storage.Table.path_table_exn t d.Xmlindex.Xindex.column in
  let docs_of (r : Storage.Table.row) =
    match r.Storage.Table.values.(coli) with
    | SV.Xml seq ->
        List.filter_map
          (function Xdm.Item.N n -> Some n | Xdm.Item.A _ -> None)
          seq
    | _ -> []
  in
  Storage.Table.add_hook t
    {
      on_insert =
        (fun r ->
          List.iter
            (Xmlindex.Xindex.insert_doc idx pt ~row:r.Storage.Table.row_id)
            (docs_of r));
      on_delete =
        (fun r ->
          List.iter
            (Xmlindex.Xindex.delete_doc idx pt ~row:r.Storage.Table.row_id)
            (docs_of r));
    };
  (t, pt, docs_of)

(** Attach an already-populated XML index (snapshot recovery): wire hooks
    and register it in the catalog, with no backfill. *)
let attach_xml_index ctx (idx : Xmlindex.Xindex.t) : unit =
  ignore (wire_xml_index_hooks ctx idx);
  ctx.xindexes <- idx :: ctx.xindexes;
  bump_catalog_gen ctx

(** Wire index maintenance hooks for a new XML index and backfill it from
    existing rows. *)
let install_xml_index ctx (d : Xmlindex.Xindex.def) : Xmlindex.Xindex.t =
  let idx = Xmlindex.Xindex.create ~prof:ctx.prof d in
  let t, pt, docs_of = wire_xml_index_hooks ctx idx in
  (* Bulk backfill. With parallelism the pure compute half (pattern
     matching + typed-value casts) runs in contiguous row chunks; the
     mutating half (path-table interning, B+Tree inserts) is applied
     single-threaded in row order, so the resulting tree — and undo-log
     atomicity for the enclosing statement — are identical to a
     sequential build. *)
  let backfill = Storage.Table.rows t in
  let many = match backfill with _ :: _ :: _ -> true | _ -> false in
  if ctx.parallelism > 1 && many then begin
    let computed =
      Xpar.map_chunks ~parallelism:ctx.parallelism
        (fun _ chunk ->
          Array.map
            (fun (r : Storage.Table.row) ->
              ( r.Storage.Table.row_id,
                List.map (Xmlindex.Xindex.doc_entries idx) (docs_of r) ))
            chunk)
        (Array.of_list backfill)
    in
    Xprof.par ctx.prof ~chunks:(Array.length computed);
    Array.iter
      (fun chunk ->
        Array.iter
          (fun (row, per_doc) ->
            List.iter (Xmlindex.Xindex.insert_entries idx pt ~row) per_doc)
          chunk)
      (Xpar.join computed)
  end
  else
    List.iter
      (fun (r : Storage.Table.row) ->
        List.iter
          (Xmlindex.Xindex.insert_doc idx pt ~row:r.Storage.Table.row_id)
          (docs_of r))
      backfill;
  ctx.xindexes <- idx :: ctx.xindexes;
  idx

let wire_rel_index_hooks ctx (ri : Xmlindex.Rel_index.t) =
  let t = Storage.Database.table_exn ctx.db ri.Xmlindex.Rel_index.table in
  let coli = Storage.Table.col_index_exn t ri.Xmlindex.Rel_index.column in
  Storage.Table.add_hook t
    {
      on_insert =
        (fun r ->
          Xmlindex.Rel_index.insert ri ~row:r.Storage.Table.row_id
            r.Storage.Table.values.(coli));
      on_delete =
        (fun r ->
          ignore
            (Xmlindex.Rel_index.delete ri ~row:r.Storage.Table.row_id
               r.Storage.Table.values.(coli)));
    };
  (t, coli)

(** Attach an already-populated relational index (snapshot recovery). *)
let attach_rel_index ctx (ri : Xmlindex.Rel_index.t) : unit =
  ignore (wire_rel_index_hooks ctx ri);
  ctx.rindexes <- ri :: ctx.rindexes;
  bump_catalog_gen ctx

let install_rel_index ctx ~iname ~table ~column : Xmlindex.Rel_index.t =
  let ri = Xmlindex.Rel_index.create ~prof:ctx.prof ~iname ~table ~column () in
  let t, coli = wire_rel_index_hooks ctx ri in
  List.iter
    (fun (r : Storage.Table.row) ->
      Xmlindex.Rel_index.insert ri ~row:r.Storage.Table.row_id
        r.Storage.Table.values.(coli))
    (Storage.Table.rows t);
  ctx.rindexes <- ri :: ctx.rindexes;
  ri

(** Register existing index objects without wiring hooks — for read-only
    snapshot contexts, which share the publisher's indexes (snapshot
    index views) and never mutate tables. Hooks would be dead
    weight there: snapshot tables are reused across statements until a
    writer touches them, so each statement would stack one more. *)
let adopt_indexes ctx ~xml ~rel : unit =
  ctx.xindexes <- xml;
  ctx.rindexes <- rel

(** Execute one SQL/XML statement with statement-level atomicity: every
    table/index mutation records its compensation in a per-statement undo
    log, and ANY failure — cast error, XML parse error, resource budget,
    injected fault — rolls the catalog back to the pre-statement state
    before re-raising. A fresh resource meter is armed from [ctx.limits]
    so all embedded XQuery evaluation draws from one shared budget. *)
let rec exec ctx (stmt : stmt) : result =
  Hashtbl.reset ctx.embed_plans;
  ctx.meter <- Xdm.Limits.meter ~limits:ctx.limits ();
  Xprof.start_statement ctx.prof;
  let log = Storage.Undo.create ~prof:ctx.prof () in
  (* snapshot governor headroom and stamp the total even on failure, so a
     rolled-back statement still leaves an inspectable profile *)
  let finish () =
    Xprof.set_governor ctx.prof (Xdm.Limits.usage ctx.meter);
    Xprof.finish_statement ctx.prof
  in
  match exec_inner ctx log stmt with
  | r ->
      (match ctx.txn_undo with
      | None -> Storage.Undo.commit log
      | Some txn -> Storage.Undo.absorb ~into:txn log);
      finish ();
      r
  | exception Unbound c ->
      Storage.Undo.rollback log;
      finish ();
      rt_fail "unknown column %S" c
  | exception ex ->
      Storage.Undo.rollback log;
      finish ();
      raise ex

and exec_inner ctx log (stmt : stmt) : result =
  match stmt with
  | Select s ->
      Xprof.spanned
        ~rows:(fun r -> List.length r.rrows)
        ctx.prof "SELECT"
        (fun () -> exec_select ctx s)
  | Values exprs ->
      ctx.notes <- [];
      ctx.used <- [];
      {
        rcols = List.mapi (fun i _ -> Printf.sprintf "c%d" (i + 1)) exprs;
        rrows = [ List.map (fun e -> eval_sexpr ctx [] e) exprs ];
      }
  | CreateTable (name, cols) ->
      ignore
        (Storage.Database.create_table ctx.db name
           (List.map
              (fun (c, ty) -> { Storage.Table.col_name = c; col_type = ty })
              cols));
      bump_catalog_gen ctx;
      { rcols = []; rrows = [] }
  | CreateXmlIndex { ci_name; ci_table; ci_column; ci_pattern; ci_vtype } ->
      let pattern =
        try Xmlindex.Pattern.of_string ci_pattern
        with Xmlindex.Pattern.Invalid m -> rt_fail "CREATE INDEX: %s" m
      in
      ignore
        (install_xml_index ctx
           {
             Xmlindex.Xindex.iname = ci_name;
             table = ci_table;
             column = ci_column;
             pattern;
             vtype = ci_vtype;
           });
      bump_catalog_gen ctx;
      { rcols = []; rrows = [] }
  | CreateRelIndex { cr_name; cr_table; cr_column } ->
      ignore
        (install_rel_index ctx ~iname:cr_name ~table:cr_table
           ~column:cr_column);
      bump_catalog_gen ctx;
      { rcols = []; rrows = [] }
  | CreateStructIndex { cs_name = _; cs_table; cs_column } ->
      (* accepted for compatibility (scripts, old WALs replay it): the
         structural join needs no index, each document's encoding is
         memoized on its root at first use; the names are still checked *)
      let t = Storage.Database.table_exn ctx.db cs_table in
      ignore (Storage.Table.col_index_exn t cs_column);
      { rcols = []; rrows = [] }
  | Insert (name, rows) ->
      let t = Storage.Database.table_exn ctx.db name in
      Xprof.spanned ctx.prof "INSERT" (fun () ->
          List.iter
            (fun vals ->
              Xprof.row ctx.prof;
              ignore
                (Storage.Table.insert ~log t
                   (List.map (eval_sexpr ctx []) vals)))
            rows);
      { rcols = []; rrows = [] }
  | Explain inner ->
      let _ = exec_inner ctx log inner in
      { rcols = [ "plan" ]; rrows = List.rev_map (fun n -> [ SV.Varchar n ]) ctx.notes }
  | Delete { del_table; del_where } ->
      let t = Storage.Database.table_exn ctx.db del_table in
      Xprof.spanned ctx.prof "DELETE" (fun () ->
      let victims =
        List.filter
          (fun (r : Storage.Table.row) ->
            Xdm.Limits.tick ctx.meter;
            Xprof.row ctx.prof;
            match del_where with
            | None -> true
            | Some w ->
                eval_cond ctx [ table_frame ~alias:del_table t r ] w
                = Some true)
          (Storage.Table.rows t)
      in
      List.iter
        (fun (r : Storage.Table.row) ->
          ignore (Storage.Table.delete ~log t r.Storage.Table.row_id))
        victims;
      {
        rcols = [ "deleted" ];
        rrows = [ [ SV.Int (Int64.of_int (List.length victims)) ] ];
      })
  | Update { upd_table; upd_set; upd_where } ->
      let t = Storage.Database.table_exn ctx.db upd_table in
      (* validate SET column names up front (catalog error if unknown) *)
      List.iter
        (fun (col, _) -> ignore (Storage.Table.col_index_exn t col))
        upd_set;
      let lc = String.lowercase_ascii in
      Xprof.spanned ctx.prof "UPDATE" (fun () ->
      let victims =
        List.filter
          (fun (r : Storage.Table.row) ->
            Xdm.Limits.tick ctx.meter;
            Xprof.row ctx.prof;
            match upd_where with
            | None -> true
            | Some w ->
                eval_cond ctx [ table_frame ~alias:upd_table t r ] w
                = Some true)
          (Storage.Table.rows t)
      in
      List.iter
        (fun (r : Storage.Table.row) ->
          let env = [ table_frame ~alias:upd_table t r ] in
          let new_vals =
            List.mapi
              (fun i (c : Storage.Table.col_def) ->
                match
                  List.find_opt
                    (fun (col, _) -> lc col = lc c.Storage.Table.col_name)
                    upd_set
                with
                | Some (_, se) -> eval_sexpr ctx env se
                | None -> r.Storage.Table.values.(i))
              t.Storage.Table.cols
          in
          ignore (Storage.Table.update ~log t r.Storage.Table.row_id new_vals))
        victims;
      {
        rcols = [ "updated" ];
        rrows = [ [ SV.Int (Int64.of_int (List.length victims)) ] ];
      })
  | DropIndex name ->
      let lc = String.lowercase_ascii in
      ctx.xindexes <-
        List.filter
          (fun (i : Xmlindex.Xindex.t) ->
            lc i.Xmlindex.Xindex.def.Xmlindex.Xindex.iname <> lc name)
          ctx.xindexes;
      ctx.rindexes <-
        List.filter
          (fun (i : Xmlindex.Rel_index.t) ->
            lc i.Xmlindex.Rel_index.iname <> lc name)
          ctx.rindexes;
      bump_catalog_gen ctx;
      { rcols = []; rrows = [] }

(** Durability classification of a statement (WAL grouping): [`Read]
    statements touch no catalog state and bypass the log; [`Dml] effects
    are captured as row-level journal records; [`Ddl] is logged as
    statement text and re-executed on replay. EXPLAIN executes its inner
    statement, so it classifies as its inner statement does. *)
let rec stmt_class (stmt : stmt) : [ `Read | `Dml | `Ddl ] =
  match stmt with
  | Select _ | Values _ -> `Read
  | Insert _ | Delete _ | Update _ -> `Dml
  | CreateTable _ | CreateXmlIndex _ | CreateRelIndex _ | CreateStructIndex _
  | DropIndex _ ->
      `Ddl
  | Explain inner -> stmt_class inner

(** Parse and execute. *)
let exec_string ctx (src : string) : result =
  let stmt = Sql_parser.parse src in
  (match (ctx.strict_static, ctx.static_check) with
  | true, Some check -> check ~src stmt
  | _ -> ());
  exec ctx stmt

(* ------------------------------------------------------------------ *)
(* Streaming entry point                                               *)
(* ------------------------------------------------------------------ *)

(** Re-raise lazily-surfacing [Unbound] as the runtime error [exec] would
    have produced for the strict path. *)
let translate_unbound (seq : 'a Seq.t) : 'a Seq.t =
  let rec go s () =
    match s () with
    | exception Unbound c -> rt_fail "unknown column %S" c
    | Seq.Nil -> Seq.Nil
    | Seq.Cons (x, rest) -> Seq.Cons (x, go rest)
  in
  go seq

(** Execute a statement for cursor consumption: a SELECT without a GROUP
    BY or ORDER BY barrier streams off {!select_rows} under a fresh
    resource meter; everything else runs through the strict, atomic
    [exec] and replays its materialized rows. *)
let exec_seq ctx (stmt : stmt) : string list * SV.t list Seq.t =
  match stmt with
  | Select s when (not (has_aggregates s)) && s.order_by = [] ->
      Hashtbl.reset ctx.embed_plans;
      ctx.meter <- Xdm.Limits.meter ~limits:ctx.limits ();
      let cols = select_columns ctx s in
      let rows =
        select_rows ctx s ~parallelism:1 (fun c env -> project c env s.sel_list)
      in
      let rows = match s.limit with None -> rows | Some n -> Seq.take n rows in
      (cols, translate_unbound rows)
  | _ ->
      let r = exec ctx stmt in
      (r.rcols, List.to_seq r.rrows)
