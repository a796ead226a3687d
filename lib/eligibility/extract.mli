(** Predicate extraction (the paper's Section 3): walk a statically
    resolved query and derive the {!Predicate.t} tree of conditions a
    document must satisfy to contribute to the result.

    The extractor is conservative by construction: any expression it
    cannot prove filtering collapses to [Predicate.PTrue], never to a
    stronger condition — so index pre-filtering through the result stays
    sound (Definition 1). *)

(** Is a predicate expression positional — a numeric value compared
    against the context position, or a position()/last()-based test?
    Positional predicates never eliminate documents (every document that
    has a first match keeps it). *)
val is_positional : Xquery.Ast.expr -> bool

(** Analyze a statically resolved query.

    [xml_params]: external variables bound to XML column documents
    (SQL/XML [PASSING col AS "v"]) — (variable, "TABLE.COLUMN").
    [scalar_params]: external non-XML variables with their SQL-derived
    XML schema types ([None] = unknown, e.g. an untyped prepared
    parameter). [mode]: [`Exists] analyzes under XMLEXISTS semantics,
    where only result emptiness matters (the paper's Query 9 trap). *)
val analyze :
  ?xml_params:(string * string) list ->
  ?scalar_params:(string * Xdm.Atomic.atomic_type option) list ->
  ?mode:[ `Value | `Exists ] ->
  Xquery.Ast.query ->
  Predicate.t

(** The reverse and sibling axes used anywhere in a query, in first-use
    order — the steps only the structural join can accelerate
    (tree-walked otherwise). Feeds the planner's [nav-axis] EXPLAIN
    notes. *)
val reverse_axes : Xquery.Ast.query -> Xquery.Ast.axis list

(** The stored collections ("TABLE.COLUMN") a query reads through
    [db2-fn:xmlcolumn]/[fn:collection] literals, in first-use order. *)
val collections : Xquery.Ast.query -> string list
