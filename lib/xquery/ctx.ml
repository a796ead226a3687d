(** Dynamic evaluation context. *)

module SMap = Map.Make (String)

type t = {
  item : Xdm.Item.t option;  (** context item (focus) *)
  pos : int;  (** fn:position() *)
  size : int;  (** fn:last() *)
  vars : Xdm.Item.seq SMap.t;
  resolver : string -> Xdm.Item.seq;
      (** resolves [db2-fn:xmlcolumn('T.C')] to a sequence of document
          nodes; injected by the storage layer so this library stays
          storage-agnostic *)
  construction_preserve : bool;
      (** [declare construction preserve] in effect *)
  meter : Xdm.Limits.meter;
      (** resource-governor counters charged during evaluation; an
          unarmed meter (the default) costs one branch per eval step *)
  prof : Xprof.t;
      (** execution profile charged during evaluation (eval steps, nodes
          materialized, operator spans); {!Xprof.disabled} by default, so
          unprofiled evaluation pays one branch per step *)
}

let no_resolver name =
  Xdm.Xerror.raise_err "FODC0002" "no collection resolver for %S" name

let init ?(resolver = no_resolver) ?(construction_preserve = false)
    ?(meter = Xdm.Limits.meter ()) ?(prof = Xprof.disabled) () =
  {
    item = None;
    pos = 0;
    size = 0;
    vars = SMap.empty;
    resolver;
    construction_preserve;
    meter;
    prof;
  }

let with_focus ctx item pos size = { ctx with item = Some item; pos; size }

let bind ctx name seq = { ctx with vars = SMap.add name seq ctx.vars }

let bind_all ctx bindings =
  List.fold_left (fun c (n, s) -> bind c n s) ctx bindings

let lookup ctx name =
  match SMap.find_opt name ctx.vars with
  | Some v -> v
  | None -> Xdm.Xerror.undefined "unbound variable $%s" name

let context_item ctx =
  match ctx.item with
  | Some i -> i
  | None -> Xdm.Xerror.no_context "context item is undefined"

let context_node ctx =
  match context_item ctx with
  | Xdm.Item.N n -> n
  | Xdm.Item.A _ ->
      Xdm.Xerror.type_error "context item is not a node"

(** Run [f] over contiguous chunks of [items] in parallel: the one
    chunk-merge helper behind every chunked producer. Each chunk gets a
    forked view of [meter] (the step/node budget stays shared, so
    [XQDB0001] fires as in a sequential run) and a private profile (span
    stacks are not domain-safe). After the join the first chunk error is
    re-raised, else the profiles are absorbed into [prof] in chunk order,
    so results and counters match a sequential run. Returns the chunk
    results in chunk order. *)
let chunked ~parallelism ?chunk_size ~(meter : Xdm.Limits.meter)
    ~(prof : Xprof.t) (f : Xdm.Limits.meter -> Xprof.t -> 'a array -> 'b)
    (items : 'a array) : 'b list =
  let profiled = prof.Xprof.on in
  let slots =
    Xpar.map_chunks ~parallelism ?chunk_size
      (fun _ chunk ->
        let cprof =
          if profiled then begin
            let p = Xprof.create () in
            Xprof.enable p true;
            p
          end
          else Xprof.disabled
        in
        (cprof, f (Xdm.Limits.fork meter) cprof chunk))
      items
  in
  Xprof.par prof ~chunks:(Array.length slots);
  List.map
    (fun (cprof, out) ->
      if profiled then Xprof.absorb ~into:prof cprof;
      out)
    (Array.to_list (Xpar.join slots))
