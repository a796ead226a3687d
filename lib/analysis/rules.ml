(** The lint-rule registry.

    Every pitfall the analyzer can report as a *lint* finding (as opposed
    to a hard W3C type error) has a stable [XQLINT0xx] code here.
    Codes 001–012 are the paper's Tips 1–12 verbatim; 013 is the
    Section 3.10 "between" guidance; codes from 014 up are additional
    rules the analyzer derives from the same semantics. [docs/LINTING.md]
    catalogues all of them.

    The registry is data, not behavior: the checks live in {!Lint},
    {!Typecheck} and {!Pathcheck} and tag their diagnostics with these
    codes; the advisor renders the tip-numbered subset. *)

type rule = {
  code : string;  (** stable diagnostic code, [XQLINT0xx] *)
  tip : int option;  (** paper tip number, when the rule is a tip *)
  severity : Diag.severity;  (** default severity *)
  title : string;  (** one-line summary (the advisor's tip title) *)
  paper : string;  (** where in the paper the rule comes from *)
}

let tip_title = function
  | 1 -> "Tip 1: use type-cast expressions in XQuery join predicates"
  | 2 ->
      "Tip 2: to retrieve XML fragments, use the stand-alone XQuery \
       interface"
  | 3 ->
      "Tip 3: make sure the XQuery inside XMLEXISTS returns nodes, not a \
       boolean"
  | 4 -> "Tip 4: express predicates in the XMLTABLE row-producer"
  | 5 ->
      "Tip 5: express the join condition on the side that has the index"
  | 6 -> "Tip 6: always express XML joins on the XQuery side"
  | 7 ->
      "Tip 7: do not put predicates inside element constructors in return \
       clauses"
  | 8 ->
      "Tip 8: do not use absolute paths when the context is a constructed \
       element"
  | 9 -> "Tip 9: write predicates on the data before any construction"
  | 10 ->
      "Tip 10: keep namespace declarations consistent between data, \
       queries and indexes"
  | 11 -> "Tip 11: align /text() steps between queries and indexes"
  | 12 -> "Tip 12: to index all attributes use //@*, not //* or //node()"
  | 13 ->
      "Section 3.10: make 'between' predicates singleton-safe (value \
       comparisons, self axis, or attributes)"
  | _ -> "?"

let code_of_tip (n : int) : string = Printf.sprintf "XQLINT%03d" n

let tip_rule ?(severity = Diag.Warning) n paper =
  { code = code_of_tip n; tip = Some n; severity; title = tip_title n; paper }

let all : rule list =
  [
    tip_rule 1 "Section 3.2, Queries 10-11";
    tip_rule 2 "Section 3.2, Queries 5-7";
    tip_rule 3 "Section 3.2, Queries 8-9";
    tip_rule 4 "Section 3.2, Query 12";
    tip_rule 5 "Section 3.3, Queries 13-14";
    tip_rule 6 "Section 3.3, Queries 15-16";
    tip_rule 7 "Section 3.5, Queries 19-22";
    tip_rule 8 "Section 3.6, Query 25";
    tip_rule 9 "Section 3.6, Queries 26-27";
    tip_rule 10 "Section 3.7, Query 28";
    tip_rule 11 "Section 3.8, Query 29";
    tip_rule 12 "Section 3.9, Query 30";
    tip_rule 13 "Section 3.10";
    {
      code = "XQLINT014";
      tip = None;
      severity = Diag.Warning;
      title = "absolute path inside an embedded XQuery has no context item";
      paper = "Section 3.2 (XMLEXISTS/XMLQUERY evaluate without a context \
               item; root paths at a PASSING variable)";
    };
    {
      code = "XQLINT015";
      tip = None;
      severity = Diag.Warning;
      title = "positional predicate is never index-eligible";
      paper = "Section 2.2 (positional predicates cannot eliminate \
               documents)";
    };
    {
      code = "XQLINT016";
      tip = None;
      severity = Diag.Warning;
      title = "string literal compared against a numeric-indexed path";
      paper = "Section 3.1 (untyped data compares as string against a \
               string literal, so a DOUBLE index cannot serve the \
               predicate)";
    };
    {
      code = "XQLINT020";
      tip = None;
      severity = Diag.Warning;
      title = "contradictory predicates on a singleton path";
      paper = "derived: [@x = a][@x = b] with a <> b selects nothing";
    };
    {
      code = "XQLINT021";
      tip = None;
      severity = Diag.Warning;
      title = "predicate is constant (always true or always false)";
      paper = "derived: constant-foldable predicate";
    };
    {
      code = "XQLINT022";
      tip = None;
      severity = Diag.Warning;
      title = "step name does not occur in the registered schema";
      paper = "Sections 2.1/3.1 (schema-impossible steps select nothing)";
    };
    {
      code = "XQLINT023";
      tip = None;
      severity = Diag.Warning;
      title = "step after an attribute or text() step never selects \
               anything";
      paper = "Section 3.9 (attributes and text nodes have no children or \
               attributes)";
    };
  ]

let find (code : string) : rule option =
  List.find_opt (fun r -> r.code = code) all

(** Default severity for a code; unknown codes default to Warning. *)
let severity_of (code : string) : Diag.severity =
  match find code with Some r -> r.severity | None -> Diag.Warning
