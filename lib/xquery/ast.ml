(** Abstract syntax of the XQuery subset.

    The subset covers every construct used by the paper's Queries 1–30:
    FLWOR expressions, quantified expressions, path expressions over the
    child / descendant / self / descendant-or-self / attribute / parent
    axes with name tests (including namespace wildcards [*], [p:*],
    [*:local]) and kind tests, predicates, general and value comparisons,
    node comparisons, arithmetic, set operations, direct element
    constructors with enclosed expressions, cast/castable, and a prolog
    with namespace declarations.

    Name tests are parsed with their lexical prefix; the [Static] pass
    resolves prefixes to URIs (filling the [Qname.uri] field) before
    evaluation or eligibility analysis. *)

type atomic_type = Xdm.Atomic.atomic_type

type axis =
  | Child
  | Descendant
  | Self
  | DescOrSelf
  | Attr
  | Parent
  | Ancestor
  | AncestorOrSelf
  | FollowingSibling
  | PrecedingSibling

type nametest =
  | TName of Xdm.Qname.t  (** [uri] filled by [Static.resolve] *)
  | TStar  (** [*] *)
  | TNsStar of { prefix : string; uri : string }  (** [p:*] *)
  | TLocalStar of string  (** [*:local] *)

type kindtest =
  | KAnyNode  (** [node()] *)
  | KText
  | KComment
  | KPi of string option  (** [processing-instruction(target?)] *)
  | KDocument  (** [document-node()] *)

type nodetest = Name of nametest | Kind of kindtest

type gcmp = GEq | GNe | GLt | GLe | GGt | GGe
type vcmp = VEq | VNe | VLt | VLe | VGt | VGe
type ncmp = NIs | NPrecedes | NFollows
type arith = Add | Sub | Mul | Div | IDiv | Mod
type quant = QSome | QEvery

(** How a path expression starts. *)
type path_start =
  | Absolute  (** leading [/]: [fn:root(.) treat as document-node()] — the
                  Section 3.5 type-error source *)
  | AbsDesc  (** leading [//] *)
  | Relative  (** starts with its first step *)

type expr =
  | ELit of Xdm.Atomic.t
  | EVar of string
  | EContext  (** [.] *)
  | ESeq of expr list  (** comma operator; [()] is [ESeq []] *)
  | EPath of path_start * step list
  | EFlwor of clause list * expr
  | EQuant of quant * (string * expr) list * expr
  | EIf of expr * expr * expr
  | EAnd of expr * expr
  | EOr of expr * expr
  | EGCmp of gcmp * expr * expr
  | EVCmp of vcmp * expr * expr
  | ENCmp of ncmp * expr * expr
  | EArith of arith * expr * expr
  | ENeg of expr
  | ERange of expr * expr  (** [to] *)
  | EUnion of expr * expr
  | EIntersect of expr * expr
  | EExcept of expr * expr
  | ECall of { prefix : string; local : string; args : expr list }
  | ECast of expr * atomic_type
  | ECastable of expr * atomic_type
  | EInstanceOf of expr * seqtype
  | EElem of ctor  (** direct element constructor *)
  | EElemComp of { cn_static : Xdm.Qname.t option; cn_expr : expr option; cbody : expr }
      (** computed element constructor: [element n { e }] /
          [element { ne } { e }] *)
  | EAttrComp of { an_static : Xdm.Qname.t option; an_expr : expr option; abody : expr }
      (** computed attribute constructor *)
  | ETextComp of expr  (** computed text constructor: [text { e }] *)

and step =
  | SAxis of { axis : axis; test : nodetest; preds : expr list }
  | SExpr of { expr : expr; preds : expr list }
      (** a primary expression used as a step, e.g. [$i/xs:double(.)] *)

and clause =
  | CFor of (string * expr) list
  | CLet of (string * expr) list
  | CWhere of expr
  | COrder of (expr * [ `Asc | `Desc ]) list

and ctor = {
  cname : Xdm.Qname.t;  (** resolved by [Static] *)
  cattrs : (Xdm.Qname.t * attr_piece list) list;
  ccontent : content_piece list;
  cns : (string * string) list;
      (** xmlns declarations written on the constructor itself
          (prefix → uri; prefix [""] = default) *)
}

and attr_piece = APText of string | APExpr of expr
and content_piece = CPText of string | CPExpr of expr

(** Sequence types for [instance of] (a pragmatic subset). *)
and item_type =
  | ITAtomic of atomic_type
  | ITAnyNode
  | ITElement
  | ITAttribute
  | ITText
  | ITDocument
  | ITItem

and occurrence = OccOne | OccOpt | OccStar | OccPlus

and seqtype = STEmpty | STItems of item_type * occurrence

(** A full query: prolog + body. *)
type prolog = {
  namespaces : (string * string) list;  (** declare namespace p = "uri" *)
  default_elem_ns : string option;
      (** declare default element namespace "uri" *)
  construction_preserve : bool;
      (** [declare construction preserve]: copied nodes keep their type
          annotations — the knob the paper's Section 4 says could
          alleviate the Section 3.6 rewrite obstacles (default: strip) *)
}

type query = { prolog : prolog; body : expr }

let empty_prolog =
  { namespaces = []; default_elem_ns = None; construction_preserve = false }

(* ------------------------------------------------------------------ *)
(* Source locations                                                    *)
(* ------------------------------------------------------------------ *)

(** Side table mapping expression nodes to source positions, keyed by
    physical identity (the parser allocates each node exactly once, so
    [==] identifies "this occurrence in the source"). Keeping locations
    out of the AST keeps every consumer (evaluator, extractor, planner)
    untouched; [Static.resolve] copies entries onto the nodes it
    rebuilds.

    [EContext] is the one constant constructor of [expr] — all its
    occurrences are physically equal — so it is never recorded; consumers
    fall back to the location of the nearest enclosing expression. *)
module Locs = struct
  type t = { mutable entries : (expr * Xdm.Srcloc.pos) list }

  let create () = { entries = [] }

  let locatable = function EContext -> false | _ -> true

  (** First record wins: the innermost production that saw the node. *)
  let record t (e : expr) (pos : Xdm.Srcloc.pos) =
    if locatable e && not (List.exists (fun (e', _) -> e' == e) t.entries)
    then t.entries <- (e, pos) :: t.entries

  let find t (e : expr) : Xdm.Srcloc.pos option =
    if locatable e then
      Option.map snd (List.find_opt (fun (e', _) -> e' == e) t.entries)
    else None

  (** Give [dst] (a rebuilt node) the position recorded for [src]. *)
  let copy t ~(src : expr) ~(dst : expr) =
    match find t src with Some p -> record t dst p | None -> ()
end

(* ------------------------------------------------------------------ *)
(* Pretty-printing (for EXPLAIN and advisor output)                    *)
(* ------------------------------------------------------------------ *)

let axis_name = function
  | Child -> "child"
  | Descendant -> "descendant"
  | Self -> "self"
  | DescOrSelf -> "descendant-or-self"
  | Attr -> "attribute"
  | Parent -> "parent"
  | Ancestor -> "ancestor"
  | AncestorOrSelf -> "ancestor-or-self"
  | FollowingSibling -> "following-sibling"
  | PrecedingSibling -> "preceding-sibling"

(** Reverse axes (and the sibling axes, which likewise escape the
    downward XMLPATTERN fragment): the steps the structural join can
    answer but a path-value index cannot. *)
let is_reverse_or_sibling = function
  | Parent | Ancestor | AncestorOrSelf | FollowingSibling | PrecedingSibling
    ->
      true
  | Child | Descendant | Self | DescOrSelf | Attr -> false

let nametest_to_string = function
  | TName q -> Xdm.Qname.to_string q
  | TStar -> "*"
  | TNsStar { prefix; _ } -> prefix ^ ":*"
  | TLocalStar l -> "*:" ^ l

let kindtest_to_string = function
  | KAnyNode -> "node()"
  | KText -> "text()"
  | KComment -> "comment()"
  | KPi None -> "processing-instruction()"
  | KPi (Some t) -> "processing-instruction(" ^ t ^ ")"
  | KDocument -> "document-node()"

let nodetest_to_string = function
  | Name n -> nametest_to_string n
  | Kind k -> kindtest_to_string k

let gcmp_to_string = function
  | GEq -> "="
  | GNe -> "!="
  | GLt -> "<"
  | GLe -> "<="
  | GGt -> ">"
  | GGe -> ">="

let vcmp_to_string = function
  | VEq -> "eq"
  | VNe -> "ne"
  | VLt -> "lt"
  | VLe -> "le"
  | VGt -> "gt"
  | VGe -> "ge"

let rec expr_to_string e =
  match e with
  | ELit a -> (
      match a with
      | Xdm.Atomic.Str s -> "\"" ^ s ^ "\""
      | a -> Xdm.Atomic.string_value a)
  | EVar v -> "$" ^ v
  | EContext -> "."
  | ESeq es -> "(" ^ String.concat ", " (List.map expr_to_string es) ^ ")"
  | EPath (start, steps) ->
      let s0 =
        match start with Absolute -> "/" | AbsDesc -> "//" | Relative -> ""
      in
      s0 ^ String.concat "/" (List.map step_to_string steps)
  | EFlwor (clauses, ret) ->
      String.concat " " (List.map clause_to_string clauses)
      ^ " return " ^ expr_to_string ret
  | EQuant (q, binds, sat) ->
      (match q with QSome -> "some " | QEvery -> "every ")
      ^ String.concat ", "
          (List.map (fun (v, e) -> "$" ^ v ^ " in " ^ expr_to_string e) binds)
      ^ " satisfies " ^ expr_to_string sat
  | EIf (c, t, e) ->
      "if (" ^ expr_to_string c ^ ") then " ^ expr_to_string t ^ " else "
      ^ expr_to_string e
  | EAnd (a, b) -> expr_to_string a ^ " and " ^ expr_to_string b
  | EOr (a, b) -> expr_to_string a ^ " or " ^ expr_to_string b
  | EGCmp (op, a, b) ->
      expr_to_string a ^ " " ^ gcmp_to_string op ^ " " ^ expr_to_string b
  | EVCmp (op, a, b) ->
      expr_to_string a ^ " " ^ vcmp_to_string op ^ " " ^ expr_to_string b
  | ENCmp (op, a, b) ->
      let s = match op with NIs -> "is" | NPrecedes -> "<<" | NFollows -> ">>" in
      expr_to_string a ^ " " ^ s ^ " " ^ expr_to_string b
  | EArith (op, a, b) ->
      let s =
        match op with
        | Add -> "+"
        | Sub -> "-"
        | Mul -> "*"
        | Div -> "div"
        | IDiv -> "idiv"
        | Mod -> "mod"
      in
      expr_to_string a ^ " " ^ s ^ " " ^ expr_to_string b
  | ENeg e -> "-" ^ expr_to_string e
  | ERange (a, b) -> expr_to_string a ^ " to " ^ expr_to_string b
  | EUnion (a, b) -> expr_to_string a ^ " | " ^ expr_to_string b
  | EIntersect (a, b) -> expr_to_string a ^ " intersect " ^ expr_to_string b
  | EExcept (a, b) -> expr_to_string a ^ " except " ^ expr_to_string b
  | ECall { prefix; local; args } ->
      (if prefix = "" then local else prefix ^ ":" ^ local)
      ^ "(" ^ String.concat ", " (List.map expr_to_string args) ^ ")"
  | ECast (e, t) ->
      expr_to_string e ^ " cast as " ^ Xdm.Atomic.type_name t
  | ECastable (e, t) ->
      expr_to_string e ^ " castable as " ^ Xdm.Atomic.type_name t
  | EInstanceOf (e, st) ->
      expr_to_string e ^ " instance of "
      ^ (match st with
        | STEmpty -> "empty-sequence()"
        | STItems (it, occ) ->
            (match it with
            | ITAtomic t -> Xdm.Atomic.type_name t
            | ITAnyNode -> "node()"
            | ITElement -> "element()"
            | ITAttribute -> "attribute()"
            | ITText -> "text()"
            | ITDocument -> "document-node()"
            | ITItem -> "item()")
            ^
            match occ with
            | OccOne -> ""
            | OccOpt -> "?"
            | OccStar -> "*"
            | OccPlus -> "+")
  | EElem c ->
      "<" ^ Xdm.Qname.to_string c.cname ^ ">"
      ^ String.concat ""
          (List.map
             (function
               | CPText s -> s
               | CPExpr e -> "{" ^ expr_to_string e ^ "}")
             c.ccontent)
      ^ "</" ^ Xdm.Qname.to_string c.cname ^ ">"
  | EElemComp { cn_static; cn_expr; cbody } ->
      "element "
      ^ (match (cn_static, cn_expr) with
        | Some q, _ -> Xdm.Qname.to_string q
        | None, Some e -> "{" ^ expr_to_string e ^ "}"
        | None, None -> "?")
      ^ " {" ^ expr_to_string cbody ^ "}"
  | EAttrComp { an_static; an_expr; abody } ->
      "attribute "
      ^ (match (an_static, an_expr) with
        | Some q, _ -> Xdm.Qname.to_string q
        | None, Some e -> "{" ^ expr_to_string e ^ "}"
        | None, None -> "?")
      ^ " {" ^ expr_to_string abody ^ "}"
  | ETextComp e -> "text {" ^ expr_to_string e ^ "}"

and step_to_string = function
  | SAxis { axis; test; preds } ->
      let base =
        match (axis, test) with
        | Child, t -> nodetest_to_string t
        | Attr, Name n -> "@" ^ nametest_to_string n
        | a, t -> axis_name a ^ "::" ^ nodetest_to_string t
      in
      base ^ String.concat "" (List.map (fun p -> "[" ^ expr_to_string p ^ "]") preds)
  | SExpr { expr; preds } ->
      expr_to_string expr
      ^ String.concat "" (List.map (fun p -> "[" ^ expr_to_string p ^ "]") preds)

and clause_to_string = function
  | CFor binds ->
      "for "
      ^ String.concat ", "
          (List.map (fun (v, e) -> "$" ^ v ^ " in " ^ expr_to_string e) binds)
  | CLet binds ->
      "let "
      ^ String.concat ", "
          (List.map (fun (v, e) -> "$" ^ v ^ " := " ^ expr_to_string e) binds)
  | CWhere e -> "where " ^ expr_to_string e
  | COrder keys ->
      "order by "
      ^ String.concat ", "
          (List.map
             (fun (e, d) ->
               expr_to_string e ^ match d with `Asc -> "" | `Desc -> " descending")
             keys)
