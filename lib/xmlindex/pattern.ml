(** XMLPATTERN index patterns (paper Section 2.1).

    Grammar (from the paper's CREATE INDEX DDL):
    {v
    pattern   ::= namespace-decls? (( / | // ) axis? (name-test | kind-test))+
    axis      ::= @ | child:: | attribute:: | self:: | descendant:: |
                  descendant-or-self::
    name-test ::= qname | * | ncname:* | *:ncname
    kind-test ::= node() | text() | comment() | processing-instruction(nc?)
    v}

    The pattern may contain descendant axes and wildcards but no
    predicates. We reuse the XQuery front end to parse it, then validate
    and convert into a canonical step list that both the index maintainer
    (matching nodes on insert) and the eligibility analyzer (containment)
    consume.

    A canonical pattern is a list of consuming steps, each optionally
    preceded by a descendant gap ([//]); [self::] steps are conjoined
    into their neighbour as extra tests. *)

open Xquery.Ast

(** One node-label test in canonical form. *)
type test =
  | TestName of Xdm.Qname.t  (** uri + local, exact *)
  | TestNsStar of string  (** fixed uri, any local *)
  | TestLocalStar of string  (** any uri, fixed local *)
  | TestStar  (** any element/attribute name *)
  | TestKindAny  (** node() *)
  | TestKindText
  | TestKindComment
  | TestKindPi of string option

(** A consuming step: [gap] is true when preceded by [//]. [PAttr] steps
    consume an attribute path component, [PChild] everything else. *)
type pstep = { gap : bool; attr : bool; tests : test list }

type t = {
  steps : pstep list;
  source : string;  (** original pattern text *)
  default_ns : string;  (** default element namespace of the pattern *)
}

let to_string p = p.source

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

exception Invalid of string

let invalid fmt = Format.kasprintf (fun m -> raise (Invalid m)) fmt

let test_of_nodetest (nt : nodetest) : test =
  match nt with
  | Name (TName q) -> TestName q
  | Name TStar -> TestStar
  | Name (TNsStar { uri; _ }) -> TestNsStar uri
  | Name (TLocalStar l) -> TestLocalStar l
  | Kind KAnyNode -> TestKindAny
  | Kind KText -> TestKindText
  | Kind KComment -> TestKindComment
  | Kind (KPi t) -> TestKindPi t
  | Kind KDocument -> invalid "document-node() not allowed in XMLPATTERN"

(** Parse and canonicalize an XMLPATTERN. *)
let of_string (src : string) : t =
  let q =
    try Xquery.Parser.parse_query src
    with Xdm.Xerror.Error { msg; _ } -> invalid "bad XMLPATTERN: %s" msg
  in
  let q = Xquery.Static.resolve q in
  let steps =
    match q.body with
    | EPath (Absolute, steps) -> steps
    | _ -> invalid "XMLPATTERN must be an absolute path (start with / or //)"
  in
  (* Convert, folding descendant-or-self::node() separators into gaps and
     self:: steps into test conjunctions. *)
  let rec go ~gap acc = function
    | [] ->
        if gap then invalid "XMLPATTERN cannot end with //";
        List.rev acc
    | SAxis { axis = DescOrSelf; test = Kind KAnyNode; preds = [] } :: rest ->
        go ~gap:true acc rest
    | SAxis { axis; test; preds } :: rest -> (
        if preds <> [] then invalid "XMLPATTERN cannot contain predicates";
        let t = test_of_nodetest test in
        match axis with
        | Child -> go ~gap:false ({ gap; attr = false; tests = [ t ] } :: acc) rest
        | Attr -> go ~gap:false ({ gap; attr = true; tests = [ t ] } :: acc) rest
        | Self -> (
            (* conjoin into the previous consuming step *)
            match acc with
            | prev :: acc' ->
                go ~gap:false ({ prev with tests = t :: prev.tests } :: acc') rest
            | [] -> invalid "XMLPATTERN cannot start with self::")
        | Descendant ->
            go ~gap:false ({ gap = true; attr = false; tests = [ t ] } :: acc) rest
        | DescOrSelf ->
            (* descendant-or-self with a non-trivial test: approximate as
               descendant (the or-self case is only observable for the
               root element); keep indexes slightly narrower, which is the
               safe direction for maintenance + we refuse containment. *)
            invalid
              "descendant-or-self:: with a test is not supported in \
               XMLPATTERN; use // or descendant::"
        | Parent -> invalid "parent axis not allowed in XMLPATTERN"
        | Ancestor | AncestorOrSelf | FollowingSibling | PrecedingSibling ->
            invalid "%s axis not allowed in XMLPATTERN (reverse and \
                     sibling axes are served by the structural join)"
              (axis_name axis))
    | SExpr _ :: _ -> invalid "XMLPATTERN cannot contain general expressions"
  in
  let steps = go ~gap:false [] steps in
  if steps = [] then invalid "empty XMLPATTERN";
  {
    steps;
    source = src;
    default_ns = Option.value q.prolog.default_elem_ns ~default:"";
  }

(** Build a pattern from canonical steps directly (used by the
    eligibility analyzer for paths *derived* from query navigation). *)
let of_steps ?(source = "<derived>") steps =
  { steps; source; default_ns = "" }

(* ------------------------------------------------------------------ *)
(* Matching against rooted paths                                       *)
(* ------------------------------------------------------------------ *)

(** Does [test] accept the path component [s]? [attr_step] tells whether
    the component is consumed via the attribute axis (name tests apply to
    attribute names there) or a child-ish axis (name tests apply to
    element names). *)
let test_matches ~attr_step (test : test) (s : Xdm.Node.path_step) : bool =
  match (test, s, attr_step) with
  | TestKindAny, _, false -> (
      (* child axis: node() matches elements, text, comments, PIs — but
         never attributes (paper Section 3.9) *)
      match s with `Attr _ -> false | _ -> true)
  | TestKindAny, `Attr _, true -> true
  | TestKindAny, _, true -> false
  | TestKindText, `Text, false -> true
  | TestKindText, _, _ -> false
  | TestKindComment, `Comment, false -> true
  | TestKindComment, _, _ -> false
  | TestKindPi None, `Pi _, false -> true
  | TestKindPi (Some t), `Pi target, false -> String.equal t target
  | TestKindPi _, _, _ -> false
  | TestName q, `Elem eq, false -> Xdm.Qname.equal q eq
  | TestName q, `Attr aq, true -> Xdm.Qname.equal q aq
  | TestName _, _, _ -> false
  | TestNsStar uri, `Elem eq, false -> String.equal uri eq.Xdm.Qname.uri
  | TestNsStar uri, `Attr aq, true -> String.equal uri aq.Xdm.Qname.uri
  | TestNsStar _, _, _ -> false
  | TestLocalStar l, `Elem eq, false -> String.equal l eq.Xdm.Qname.local
  | TestLocalStar l, `Attr aq, true -> String.equal l aq.Xdm.Qname.local
  | TestLocalStar _, _, _ -> false
  | TestStar, `Elem _, false -> true
  | TestStar, `Attr _, true -> true
  | TestStar, _, _ -> false

let step_matches (p : pstep) (s : Xdm.Node.path_step) : bool =
  List.for_all (fun t -> test_matches ~attr_step:p.attr t s) p.tests

(** Does the pattern match a node with the given rooted path
    (root-first)? *)
let matches (p : t) (path : Xdm.Node.path_step list) : bool =
  let arr = Array.of_list path in
  let n = Array.length arr in
  let is_elem i = match arr.(i) with `Elem _ -> true | _ -> false in
  (* steps.(k) must consume arr.(i); gaps allow skipping element
     components. *)
  let steps = Array.of_list p.steps in
  let m = Array.length steps in
  let rec go k i =
    if k = m then i = n
    else
      let st = steps.(k) in
      let direct = i < n && step_matches st arr.(i) && go (k + 1) (i + 1) in
      if direct then true
      else if st.gap then
        (* consume one more element component under the gap *)
        i < n && is_elem i && go k (i + 1)
      else false
  in
  go 0 0

(** Convenience: does the pattern match this node? *)
let matches_node (p : t) (node : Xdm.Node.t) : bool =
  matches p (Xdm.Node.rooted_path node)

(* ------------------------------------------------------------------ *)
(* Display                                                             *)
(* ------------------------------------------------------------------ *)

let test_to_string = function
  | TestName q -> Xdm.Qname.to_clark q
  | TestNsStar uri -> "{" ^ uri ^ "}*"
  | TestLocalStar l -> "*:" ^ l
  | TestStar -> "*"
  | TestKindAny -> "node()"
  | TestKindText -> "text()"
  | TestKindComment -> "comment()"
  | TestKindPi None -> "processing-instruction()"
  | TestKindPi (Some t) -> "processing-instruction(" ^ t ^ ")"

let step_to_string (s : pstep) =
  (if s.gap then "//" else "/")
  ^ (if s.attr then "@" else "")
  ^ String.concat "[self]" (List.map test_to_string s.tests)

let canonical_string (p : t) =
  String.concat "" (List.map step_to_string p.steps)
