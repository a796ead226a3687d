(** Fault-injection harness.

    Tests (and the bench) arm named trigger points sprinkled through the
    storage, index, B+Tree, evaluator and durability layers; the Nth
    operation that passes an armed point raises [Injected]. The
    statement-atomicity machinery must then roll the catalog back to its
    pre-statement state — that is what the robustness tests assert — and
    the durable engine must recover the on-disk state on reopen — that is
    what the crash-recovery torture suite asserts.

    A trigger is one-shot: it disarms itself when it fires, so rollback
    code running in the wake of an injected fault cannot re-trigger it.
    The [hit] fast path is a single atomic read when nothing is armed, so
    leaving the calls compiled in costs effectively nothing.

    Thread-safety: countdowns are [int Atomic.t] decremented with
    [fetch_and_add], so parallel domains racing through the same armed
    point (Xpar worker pools) fire it exactly once; the table itself is
    guarded by a named [Xpar.Lock] (so the acquisition shows up in the
    lock-order tracker) on the (rare) arm/disarm path. *)

exception Injected of { point : string; msg : string }

(** Every trigger point wired into the engine. Keep in sync with the
    [Faultinject.hit] call sites; [t_robustness.ml] sweeps this list so a
    new point can never be silently untested. *)
let points () =
  [
    "storage.insert";     (* entry of Storage.Table.insert (per row) *)
    "storage.update";     (* entry of Storage.Table.update (per row) *)
    "index.insert_doc";   (* entry of Xmlindex.Xindex.insert_doc (per doc) *)
    "index.delete_doc";   (* entry of Xmlindex.Xindex.delete_doc (per doc) *)
    "btree.split";        (* a B+Tree leaf is about to split *)
    "eval.step";          (* every Xquery.Eval.eval step *)
    "wal.append";         (* a WAL record is about to be appended *)
    "wal.fsync";          (* the WAL is about to be fsynced (commit) *)
    "checkpoint.begin";   (* a checkpoint is starting *)
    "checkpoint.end";     (* a checkpoint is about to publish its manifest *)
  ]

let enabled = Atomic.make false
let lock = Xpar.Lock.create ~name:"faultinject.registry" ()
let armed : (string, int Atomic.t) Hashtbl.t = Hashtbl.create 8
let with_lock f = Xpar.Lock.with_lock lock f

(** Arm [point] to fail its [n]th hit from now (1-based). *)
let arm ~point ~n =
  if n < 1 then invalid_arg "Faultinject.arm: n must be >= 1";
  with_lock (fun () ->
      Hashtbl.replace armed point (Atomic.make n);
      Atomic.set enabled true)

let disarm point =
  with_lock (fun () ->
      Hashtbl.remove armed point;
      if Hashtbl.length armed = 0 then Atomic.set enabled false)

(** Disarm everything (call between tests). *)
let reset () =
  with_lock (fun () ->
      Hashtbl.reset armed;
      Atomic.set enabled false)

(** Currently armed points with their remaining countdown. *)
let armed_points () =
  with_lock (fun () ->
      Hashtbl.fold (fun p c acc -> (p, Atomic.get c) :: acc) armed [])
  |> List.sort compare

let fire point =
  disarm point;
  raise (Injected { point; msg = Printf.sprintf "injected fault at %s" point })

(** Trigger point: decrements the countdown of [point] if armed and raises
    [Injected] when it reaches zero. Exactly one domain observes the
    transition to zero, so a racing pool fires the fault once. *)
let hit point =
  if Atomic.get enabled then
    let c = with_lock (fun () -> Hashtbl.find_opt armed point) in
    match c with
    | None -> ()
    | Some c -> if Atomic.fetch_and_add c (-1) = 1 then fire point

(** Run [f] with [point] armed at countdown [n]; the point is disarmed on
    the way out even when [f] raises (including [Injected] itself). *)
let with_fault ~point ~n f =
  arm ~point ~n;
  Fun.protect ~finally:(fun () -> disarm point) f

(** Arm each registered point in turn (countdown [n], default 1) and call
    [f point]; any exception other than [Injected] aborts the sweep. Used
    by the robustness and crash-recovery suites so every point gets
    exercised. *)
let sweep ?(n = 1) f =
  List.iter
    (fun point ->
      with_fault ~point ~n (fun () ->
          try f point with Injected _ -> ()))
    (points ())
