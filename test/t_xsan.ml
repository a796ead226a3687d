(** Xsan test suite: the static domain-safety lint (source scan +
    annotation registry), the runtime lock-order/deadlock tracker, the
    schedule-perturbing stress mode, and contention stress over the two
    lock-guarded shared structures (the resource governor's forked
    meters and the plan cache).

    The lint half runs against a committed seed fixture
    ([fixtures/racy_fixture.ml], never compiled) and asserts each
    diagnostic class fires; the lock-order half builds a real two-lock
    inversion and asserts the tracker reports the cycle with both lock
    names. *)

open Helpers
module D = Analysis.Diag
module Src = Xsan.Srccheck
module Reg = Xsan.Registry
module LO = Xpar.Lockorder
module Plan_cache = Engine.Plan_cache

let codes (ds : D.t list) : string list =
  List.sort_uniq compare (List.map (fun d -> d.D.code) ds)

(* ------------------------------------------------------------------ *)
(* Source lint                                                         *)
(* ------------------------------------------------------------------ *)

let lint_tests =
  [
    tc "seeded race fixture trips every diagnostic class" (fun () ->
        let ds = Src.check_file (fixture_path "racy_fixture.ml") in
        let cs = codes ds in
        List.iter
          (fun c ->
            check Alcotest.bool (c ^ " reported") true (List.mem c cs))
          [ "XSAN001"; "XSAN002"; "XSAN003"; "XSAN004"; "XSAN005" ];
        (* ref, Hashtbl, lazy, Mutex are errors; Random use is a warning *)
        List.iter
          (fun d ->
            let want =
              if d.D.code = "XSAN004" then D.Warning else D.Error
            in
            check Alcotest.bool (d.D.code ^ " severity") true
              (d.D.severity = want))
          ds);
    tc "function-local state is not flagged" (fun () ->
        let src =
          "let f () =\n\
          \  let h = Hashtbl.create 8 in\n\
          \  let c = ref 0 in\n\
          \  incr c; Hashtbl.replace h !c !c; Hashtbl.length h\n\
           let g = fun () -> lazy (f ())\n"
        in
        check Alcotest.(list string) "no findings" []
          (codes (Src.check_source ~filename:"clean.ml" src)));
    tc "top-level creations inside let/seq/module bindings are found"
      (fun () ->
        let src =
          "let a = let x = 1 in (x, Hashtbl.create 4)\n\
           module M = struct\n\
          \  let b = if true then ref 0 else ref 1\n\
           end\n\
           let () = ignore (Queue.create ())\n"
        in
        let cs = codes (Src.check_source ~filename:"nested.ml" src) in
        check Alcotest.(list string) "codes" [ "XSAN001"; "XSAN002" ] cs);
    tc "Random.State is allowed, global Random is not" (fun () ->
        let src =
          "let mk seed = Random.State.make [| seed |]\n\
           let roll st = Random.State.int st 6\n"
        in
        check Alcotest.(list string) "State ok" []
          (codes (Src.check_source ~filename:"rand_ok.ml" src));
        let bad = "let roll () = Random.int 6\n" in
        check
          Alcotest.(list string)
          "global flagged" [ "XSAN004" ]
          (codes (Src.check_source ~filename:"rand_bad.ml" bad)));
    tc "unparseable source is XSAN009, not an exception" (fun () ->
        let ds = Src.check_source ~filename:"broken.ml" "let let = in" in
        check Alcotest.(list string) "parse diag" [ "XSAN009" ] (codes ds));
  ]

(* ------------------------------------------------------------------ *)
(* Annotation registry                                                 *)
(* ------------------------------------------------------------------ *)

let registry_tests =
  [
    tc "parses policies, reasons and lock names" (fun () ->
        let src =
          "# comment\n\
           [module \"engine/plan_cache\"]\n\
           policy = \"guarded_by:engine.plan_cache\"\n\
           reason = \"LRU guarded internally\"\n\n\
           [module \"eligibility/extract\"]\n\
           policy = \"seq_only\"\n"
        in
        let t, diags = Reg.parse ~path:"xsan.toml" src in
        check Alcotest.int "no diags" 0 (List.length diags);
        check Alcotest.int "two entries" 2 (List.length (Reg.entries t));
        (match Reg.find t "engine/plan_cache" with
        | Some e ->
            check Alcotest.bool "guarded_by lock name" true
              (e.Reg.policy = Reg.Guarded_by "engine.plan_cache");
            check
              Alcotest.(option string)
              "reason kept"
              (Some "LRU guarded internally")
              e.Reg.reason
        | None -> Alcotest.fail "plan_cache entry missing");
        match Reg.find t "eligibility/extract" with
        | Some e ->
            check Alcotest.bool "seq_only" true (e.Reg.policy = Reg.Seq_only)
        | None -> Alcotest.fail "extract entry missing");
    tc "a section without a policy line is an error" (fun () ->
        let src = "[module \"a/b\"]\nreason = \"oops\"\n" in
        let t, diags = Reg.parse ~path:"xsan.toml" src in
        check Alcotest.(list string) "XSAN009" [ "XSAN009" ] (codes diags);
        check Alcotest.int "entry dropped" 0 (List.length (Reg.entries t)));
    tc "duplicate sections are an error" (fun () ->
        let src =
          "[module \"a/b\"]\npolicy = \"seq_only\"\n\
           [module \"a/b\"]\npolicy = \"domain_safe\"\n"
        in
        let _, diags = Reg.parse ~path:"xsan.toml" src in
        check Alcotest.(list string) "XSAN009" [ "XSAN009" ] (codes diags));
    tc "policy_of_string round-trips and rejects junk" (fun () ->
        List.iter
          (fun p ->
            check Alcotest.bool
              (Reg.policy_to_string p ^ " round-trips")
              true
              (Reg.policy_of_string (Reg.policy_to_string p) = Some p))
          [ Reg.Domain_safe; Reg.Seq_only; Reg.Guarded_by "x.y" ];
        check Alcotest.bool "junk rejected" true
          (Reg.policy_of_string "bogus" = None);
        check Alcotest.bool "bare guarded_by rejected" true
          (Reg.policy_of_string "guarded_by:" = None));
  ]

(* ------------------------------------------------------------------ *)
(* End-to-end scan: suppression and stale entries                      *)
(* ------------------------------------------------------------------ *)

let with_temp_module f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "xsan_scan_%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat dir "racy.ml" in
  let oc = open_out path in
  output_string oc "let cache = Hashtbl.create 8\nlet n = ref 0\n";
  close_out oc;
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove path with Sys_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f ~dir ~path)

let scan_tests =
  [
    tc "unannotated findings count as errors" (fun () ->
        with_temp_module (fun ~dir ~path:_ ->
            let r = Src.scan [ dir ] in
            check Alcotest.int "one file" 1 r.Src.files;
            check Alcotest.int "two findings" 2 r.Src.findings;
            check Alcotest.int "both errors" 2 r.Src.errors));
    tc "a registry policy suppresses but counts" (fun () ->
        with_temp_module (fun ~dir ~path ->
            let key = Src.modkey_of_path path in
            let src =
              Printf.sprintf "[module %S]\npolicy = \"domain_safe\"\n" key
            in
            let reg, diags = Reg.parse ~path:"inline" src in
            let r = Src.scan ~registry:reg ~registry_diags:diags [ dir ] in
            check Alcotest.int "no findings" 0 r.Src.findings;
            check Alcotest.int "no errors" 0 r.Src.errors;
            match r.Src.reports with
            | [ rep ] ->
                check Alcotest.int "suppressed count" 2 rep.Src.suppressed
            | _ -> Alcotest.fail "expected one report"));
    tc "a stale registry entry fails the scan (XSAN008)" (fun () ->
        with_temp_module (fun ~dir ~path ->
            let key = Src.modkey_of_path path in
            let src =
              Printf.sprintf
                "[module %S]\npolicy = \"domain_safe\"\n\
                 [module \"ghost/module\"]\npolicy = \"seq_only\"\n"
                key
            in
            let reg, diags = Reg.parse ~path:"inline" src in
            let r = Src.scan ~registry:reg ~registry_diags:diags [ dir ] in
            check
              Alcotest.(list string)
              "stale diag" [ "XSAN008" ]
              (codes r.Src.registry_diags);
            check Alcotest.bool "scan fails" true (r.Src.errors > 0)));
    tc "the real codebase registry has no stale entries" (fun () ->
        (* mirrors @racecheck: every xsan.toml key must still resolve *)
        let root =
          if Sys.file_exists "xsan.toml" then "."
          else Filename.concat ".." ".."
        in
        let reg_path = Filename.concat root "xsan.toml" in
        if Sys.file_exists reg_path then begin
          let reg, diags = Reg.load reg_path in
          check Alcotest.int "registry parses" 0 (List.length diags);
          let r =
            Src.scan ~registry:reg
              ~exclude:[ "xpar_backend.ml" ]
              [ Filename.concat root "lib" ]
          in
          check
            Alcotest.(list string)
            "no stale entries" []
            (codes r.Src.registry_diags)
        end);
  ]

(* ------------------------------------------------------------------ *)
(* Lock-order tracker                                                  *)
(* ------------------------------------------------------------------ *)

let lockorder_tests =
  [
    tc "consistent ordering yields edges but no cycle" (fun () ->
        LO.reset ();
        let a = Xpar.Lock.create ~name:"xsan.test.c1" () in
        let b = Xpar.Lock.create ~name:"xsan.test.c2" () in
        for _ = 1 to 3 do
          Xpar.Lock.with_lock a (fun () ->
              Xpar.Lock.with_lock b (fun () -> ()))
        done;
        let s = LO.stats () in
        check Alcotest.bool "edge recorded" true (s.LO.edges >= 1);
        check Alcotest.int "no cycle" 0 s.LO.cycles;
        check Alcotest.int "acquisitions tracked" 6 s.LO.acquisitions);
    tc "two-lock inversion is reported as a potential deadlock" (fun () ->
        LO.reset ();
        let a = Xpar.Lock.create ~name:"xsan.test.inv_a" () in
        let b = Xpar.Lock.create ~name:"xsan.test.inv_b" () in
        Xpar.Lock.with_lock a (fun () ->
            Xpar.Lock.with_lock b (fun () -> ()));
        Xpar.Lock.with_lock b (fun () ->
            Xpar.Lock.with_lock a (fun () -> ()));
        let s = LO.stats () in
        check Alcotest.bool "cycle detected" true (s.LO.cycles >= 1);
        let cyc = LO.cycles () in
        check Alcotest.bool "cycle names both locks" true
          (List.exists
             (fun names ->
               List.mem "xsan.test.inv_a" names
               && List.mem "xsan.test.inv_b" names)
             cyc);
        let rep = LO.report () in
        let has needle =
          let nl = String.length needle and rl = String.length rep in
          let rec go i =
            i + nl <= rl && (String.sub rep i nl = needle || go (i + 1))
          in
          go 0
        in
        check Alcotest.bool "report flags the deadlock" true
          (has "POTENTIAL DEADLOCK");
        check Alcotest.bool "report names the locks" true
          (has "xsan.test.inv_a" && has "xsan.test.inv_b");
        LO.reset ();
        check Alcotest.int "reset clears cycles" 0 (LO.stats ()).LO.cycles);
    tc "nested reacquisition of the same lock is not an edge" (fun () ->
        (* with_lock on the sequential backend is reentrant-by-noop; the
           tracker must not invent a self-edge for a->a *)
        LO.reset ();
        let a = Xpar.Lock.create ~name:"xsan.test.self" () in
        Xpar.Lock.with_lock a (fun () -> ());
        Xpar.Lock.with_lock a (fun () -> ());
        check Alcotest.int "no self edge" 0 (LO.stats ()).LO.edges);
  ]

(* ------------------------------------------------------------------ *)
(* Stress mode + contention                                            *)
(* ------------------------------------------------------------------ *)

let with_stress seed f =
  let prev = Xpar.stress () in
  Xpar.set_stress (Some seed);
  Fun.protect ~finally:(fun () -> Xpar.set_stress prev) f

let stress_tests =
  [
    tc "stress dispatch preserves the determinism contract" (fun () ->
        let xs = List.init 500 (fun i -> i) in
        let expect = List.map (fun i -> (i * 37) mod 101) xs in
        with_stress 42 (fun () ->
            check
              Alcotest.(list int)
              "map_list under stress" expect
              (Xpar.map_list ~parallelism:4 ~chunk_size:16
                 (fun i -> (i * 37) mod 101)
                 xs));
        (* a different seed must give the same (merged) answer *)
        with_stress 7 (fun () ->
            check
              Alcotest.(list int)
              "seed-independent" expect
              (Xpar.map_list ~parallelism:4 ~chunk_size:16
                 (fun i -> (i * 37) mod 101)
                 xs)));
    tc "governor: forked meters charge one shared budget" (fun () ->
        let n = 5000 in
        let limits =
          { Xdm.Limits.unlimited with Xdm.Limits.max_steps = Some (10 * n) }
        in
        let m = Xdm.Limits.meter ~limits () in
        let chunks =
          Xpar.map_chunks ~parallelism:4 ~chunk_size:64
            (fun _ arr ->
              let fm = Xdm.Limits.fork m in
              Array.iter (fun _ -> Xdm.Limits.step fm) arr;
              Array.length arr)
            (Array.init n (fun i -> i))
        in
        let total =
          Array.fold_left ( + ) 0 (Xpar.join chunks)
        in
        check Alcotest.int "every item ran once" n total;
        match List.assoc_opt "steps" (
          List.map (fun (k, u, c) -> (k, (u, c))) (Xdm.Limits.usage m))
        with
        | Some (used, _) -> check Alcotest.int "steps counted exactly" n used
        | None -> Alcotest.fail "steps cap missing from usage");
    tc "governor: XQDB0001 parity between parallel and sequential"
      (fun () ->
        let n = 2000 in
        let limits =
          { Xdm.Limits.unlimited with Xdm.Limits.max_steps = Some (n / 2) }
        in
        let run par () =
          let m = Xdm.Limits.meter ~limits () in
          Array.iter ignore
            (Xpar.join
               (Xpar.map_chunks ~parallelism:par ~chunk_size:64
                  (fun _ arr ->
                    let fm = Xdm.Limits.fork m in
                    Array.iter (fun _ -> Xdm.Limits.step fm) arr)
                  (Array.init n (fun i -> i))))
        in
        expect_error "XQDB0001" (run 1);
        with_stress 3 (fun () -> expect_error "XQDB0001" (run 4)));
    tc "plan cache: hammered stats stay coherent" (fun () ->
        let cache : int Plan_cache.t = Plan_cache.create ~capacity:8 () in
        let n = 1000 in
        with_stress 11 (fun () ->
            Xpar.parallel_for ~parallelism:4 ~chunk_size:32 0 n (fun i ->
                let key = "k" ^ string_of_int (i mod 32) in
                match Plan_cache.find cache ~gen:1 ~fp:"fp" key with
                | Some _ -> ()
                | None -> ignore (Plan_cache.add cache ~gen:1 ~fp:"fp" key i)));
        let s = Plan_cache.stats cache in
        check Alcotest.bool "size bounded" true
          (s.Plan_cache.size <= s.Plan_cache.capacity);
        check Alcotest.int "size = length" (Plan_cache.length cache)
          s.Plan_cache.size;
        check Alcotest.int "every lookup accounted" n
          (s.Plan_cache.hits + s.Plan_cache.misses);
        check Alcotest.int "no invalidations under one generation" 0
          s.Plan_cache.invalidations);
    tc "plan cache: generation bump invalidates under contention" (fun () ->
        let cache : int Plan_cache.t = Plan_cache.create ~capacity:64 () in
        for i = 0 to 15 do
          ignore
            (Plan_cache.add cache ~gen:1 ~fp:"fp"
               ("k" ^ string_of_int i)
               i)
        done;
        (* workers only record; the calling domain asserts — Alcotest
           prints through Format's shared queue, which is not
           domain-safe *)
        let dropped = Array.make 16 false in
        Xpar.parallel_for ~parallelism:4 0 16 (fun i ->
            dropped.(i) <-
              Plan_cache.find cache ~gen:2 ~fp:"fp" ("k" ^ string_of_int i)
              = None);
        Array.iter (check Alcotest.bool "stale entry dropped" true) dropped;
        let s = Plan_cache.stats cache in
        check Alcotest.int "all 16 invalidated" 16
          s.Plan_cache.invalidations;
        check Alcotest.int "cache emptied" 0 s.Plan_cache.size);
  ]

let suite =
  [
    ("xsan:lint", lint_tests);
    ("xsan:registry", registry_tests);
    ("xsan:scan", scan_tests);
    ("xsan:lockorder", lockorder_tests);
    ("xsan:stress", stress_tests);
  ]
