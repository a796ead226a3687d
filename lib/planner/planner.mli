(** Access-path selection: predicate tree → index probes → row-id sets.

    The plan model follows the paper's Section 2.2: indexes *pre-filter
    documents* (rows); the full query then runs over the filtered
    collection, so by construction [Q(I(P, D))] is what executes, and
    eligibility guarantees it equals [Q(D)]. *)

(** What the planner plans against: the stored tables plus the installed
    XML indexes. *)
type catalog = { db : Storage.Database.t; indexes : Xmlindex.Xindex.t list }

(** A plan: per-collection row restrictions plus its EXPLAIN trace. *)
type t = {
  restrictions : (string * Xdm.Int_set.t) list;
      (** per collection ("TABLE.COLUMN"): row ids that may qualify *)
  notes : string list;  (** EXPLAIN output *)
  indexes_used : string list;
}

(** Plan a predicate tree: per collection, attempt a row-set restriction.
    [params] are runtime values of externally bound scalar variables;
    [xml_bindings] of XML variables (enables index nested-loop probes).
    [prof] is charged ([xpar_gated]) when a parallel AND/OR solve is
    gated off because index profiling is armed. *)
val plan :
  ?params:(string * Xdm.Atomic.t) list ->
  ?xml_bindings:(string * Xdm.Item.seq) list ->
  ?parallelism:int ->
  ?prof:Xprof.t ->
  catalog ->
  Eligibility.Predicate.t ->
  t

(** Restrict a single collection under runtime bindings; [None] = no
    usable index (full scan). Returns [(restriction, notes, indexes
    used)]. Used by the SQL executor's lateral (per-outer-row)
    restriction. *)
val restrict_collection :
  ?params:(string * Xdm.Atomic.t) list ->
  ?xml_bindings:(string * Xdm.Item.seq) list ->
  ?parallelism:int ->
  ?prof:Xprof.t ->
  catalog ->
  Eligibility.Predicate.t ->
  string ->
  Xdm.Int_set.t option * string list * string list

(** {1 Compiled statements (the prepared-statement front half)} *)

(** The data-independent front half of a stand-alone XQuery: parsed,
    statically resolved, eligibility predicate tree extracted. Index
    probing is data-dependent, so it happens per execution. *)
type compiled

val compiled_src : compiled -> string

(** Free variables of the compiled query, in first-use order — the named
    parameter slots bound at execute time. *)
val compiled_params : compiled -> string list

(** Parse, statically resolve and analyze once. Free variables become
    parameter slots (analyzed as untyped scalar parameters, so indexes
    stay eligible for [\@price > $p]-style predicates). Raises
    [Xdm.Xerror.Error] on syntax or static errors. *)
val compile : string -> compiled

(** Plan a compiled query under runtime parameter bindings and return
    its producer, the plan and the statement's governor. Planning (index
    probes) happens at the call; items are produced as the consumer
    pulls — per document or per [for] binding where the query
    decomposes, through the structural join when the body is a
    predicate-free axis pipeline over a collection, in contiguous chunks when
    [parallelism > 1]. Materializing is [List.of_seq]; a cursor that
    closes early stops charging the meter. [use_indexes] defaults to
    [true] ([false] is the baseline collection scan, Definition 1's
    [Q(D)]); [vars] binds parameter slots. *)
val execute :
  ?limits:Xdm.Limits.t ->
  ?prof:Xprof.t ->
  ?use_indexes:bool ->
  ?vars:(string * Xdm.Item.seq) list ->
  ?parallelism:int ->
  ?chunk_size:int ->
  catalog ->
  compiled ->
  Xdm.Item.t Seq.t * t * Xdm.Limits.meter
