(** Abstract syntax for the SQL/XML subset.

    Covers everything the paper's Queries 5–16 and 23–30 use: SELECT /
    FROM / WHERE with joins, [XMLQuery], [XMLExists], [XMLTable] (PASSING,
    COLUMNS ... PATH, BY REF/VALUE), [XMLCast], [XMLElement] publishing,
    VALUES, and the DDL: CREATE TABLE, CREATE INDEX (relational and
    [USING XMLPATTERN ... AS type]), INSERT. *)

type sqltype = Storage.Sql_value.sqltype

(** An XQuery expression embedded in SQL, with its PASSING clause. The
    query text is parsed once at statement-parse time. *)
type xq_embed = {
  xq_src : string;
  xq_query : Xquery.Ast.query;
  xq_passing : (string * sexpr) list;  (** XQuery variable ← SQL expression *)
  xq_offset : int;
      (** offset of the embedded query's string literal in the SQL text
          (at the opening quote); positions inside [xq_src] map to the
          outer statement by adding [xq_offset + 1] *)
  xq_locs : Xquery.Ast.Locs.t;  (** positions of [xq_query]'s nodes *)
}

and sexpr =
  | SNull
  | SLitInt of int64
  | SLitDouble of float
  | SLitString of string
  | SCol of string option * string  (** qualifier (table/alias), column *)
  | SParam of int  (** [?] positional parameter, 0-based slot index *)
  | SXmlQuery of xq_embed
  | SXmlCast of sexpr * sqltype
  | SXmlElement of string * sexpr list
      (** XMLELEMENT(NAME n, content...) — simplified publishing *)
  | SAgg of agg * sexpr option
      (** aggregate; [None] argument means count-star *)

and agg = ACount | ASum | AAvg | AMin | AMax | AXmlAgg

type cmp = SEq | SNe | SLt | SLe | SGt | SGe

type cond =
  | CAnd of cond * cond
  | COr of cond * cond
  | CNot of cond
  | CCmp of cmp * sexpr * sexpr
  | CXmlExists of xq_embed
  | CIsNull of sexpr * bool  (** [IS NULL] (true) / [IS NOT NULL] (false) *)

type xt_col = {
  xc_name : string;
  xc_type : sqltype;
  xc_by_ref : bool;
  xc_path_src : string;
  xc_query : Xquery.Ast.query;
  xc_offset : int;  (** offset of the PATH literal in the SQL text *)
  xc_locs : Xquery.Ast.Locs.t;
}

type xmltable = {
  xt_embed : xq_embed;  (** the "row producer" *)
  xt_cols : xt_col list;
  xt_alias : string;
  xt_colnames : string list;  (** from [AS t(c1, ...)]; may rename *)
}

type table_ref =
  | TRTable of { name : string; alias : string }
  | TRXmlTable of xmltable

type sel_item = SelExpr of sexpr * string option | SelStar

type select = {
  sel_list : sel_item list;
  from : table_ref list;
  where : cond option;
  group_by : sexpr list;
  order_by : (sexpr * bool) list;  (** (key, ascending) *)
  limit : int option;  (** FETCH FIRST n ROWS ONLY *)
}

(** Does a select list contain aggregates? *)
let rec sexpr_has_agg = function
  | SAgg _ -> true
  | SXmlCast (e, _) -> sexpr_has_agg e
  | SXmlElement (_, args) -> List.exists sexpr_has_agg args
  | _ -> false

let has_aggregates (s : select) =
  s.group_by <> []
  || List.exists
       (function SelExpr (e, _) -> sexpr_has_agg e | SelStar -> false)
       s.sel_list

type stmt =
  | Select of select
  | Values of sexpr list
  | CreateTable of string * (string * sqltype) list
  | CreateXmlIndex of {
      ci_name : string;
      ci_table : string;
      ci_column : string;
      ci_pattern : string;
      ci_vtype : Xmlindex.Xindex.vtype;
    }
  | CreateRelIndex of { cr_name : string; cr_table : string; cr_column : string }
  | CreateStructIndex of {
      cs_name : string;
      cs_table : string;
      cs_column : string;
    }
      (** CREATE STRUCTURAL INDEX: validates the table and column and
          creates nothing (the structural join needs no index) *)
  | Insert of string * sexpr list list
  | Update of {
      upd_table : string;
      upd_set : (string * sexpr) list;
      upd_where : cond option;
    }
  | Delete of { del_table : string; del_where : cond option }
  | Explain of stmt  (** EXPLAIN <select>: plan notes as rows *)
  | DropIndex of string

(** Flatten a WHERE condition into top-level conjuncts. *)
let rec conjuncts = function
  | CAnd (a, b) -> conjuncts a @ conjuncts b
  | c -> [ c ]
