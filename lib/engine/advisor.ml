(** The codified advisor: the paper's Tips 1–12 (plus the Section 3.10
    "between" guidance) rendered from the static analyzer's rule engine.

    The checks themselves live in [Analysis.Lint] (shared with
    [Engine.analyze] and the [\lint] / [--lint] surfaces, which add
    source positions and the non-tip [XQLINT0xx] rules on top); this
    module keeps the original advisor interface — a list of
    [{tip; title; detail}] records for the tip-numbered findings. *)

type advice = {
  tip : int;
      (** 1–12 = the paper's Tips; 13 = Section 3.10 (between) *)
  title : string;
  detail : string;
}

let tip_title = Analysis.Rules.tip_title

let of_diags (diags : Analysis.Diag.t list) : advice list =
  List.filter_map
    (fun (d : Analysis.Diag.t) ->
      Option.map
        (fun tip -> { tip; title = tip_title tip; detail = d.Analysis.Diag.message })
        d.Analysis.Diag.tip)
    diags

(** Advise on a statement: SQL/XML if it parses as SQL, else stand-alone
    XQuery. *)
let advise ?(catalog : Planner.catalog option) (src : string) : advice list
    =
  of_diags
    (match Sqlxml.Sql_parser.parse src with
    | stmt -> Analysis.Lint.sql_lint ?catalog ~src stmt
    | exception Sqlxml.Sql_lexer.Sql_syntax_error _ ->
        let q, locs = Xquery.Parser.parse_query_loc src in
        let q = try Xquery.Static.resolve ~locs q with _ -> q in
        Analysis.Lint.xquery_lint ?catalog ~locs q)

let to_string (a : advice) = Printf.sprintf "[%s] %s" a.title a.detail
