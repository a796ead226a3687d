(** The codified advisor: the paper's Tips 1–12 (plus the Section 3.10
    "between" guidance) rendered from the static analyzer's rule
    engine. *)

type advice = {
  tip : int;
      (** 1–12 = the paper's Tips; 13 = Section 3.10 (between) *)
  title : string;
  detail : string;
}

(** Canonical short title of a tip number. *)
val tip_title : int -> string

(** Keep only the tip-numbered findings of an analyzer run. *)
val of_diags : Analysis.Diag.t list -> advice list

(** Advise on a statement: SQL/XML if it parses as SQL, else stand-alone
    XQuery. *)
val advise : ?catalog:Planner.catalog -> string -> advice list

val to_string : advice -> string
