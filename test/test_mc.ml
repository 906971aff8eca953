(* Bounded model checker: the published-TDV hole is found as a
   minimum-length counterexample that replays verbatim in the chaos
   harness; the corrected flavors exhaust small scopes clean; the search
   is deterministic; symmetry reduction only shrinks the state count.
   Set DYNVOTE_MC_DEPTH to also sweep the paper's four-copy example at a
   chosen bound (the cram test covers depth 8 of that scope). *)

module Checker = Dynvote_mc.Checker
module Explorer = Dynvote_mc.Explorer
module Space = Dynvote_mc.Space
module Striped_seen = Dynvote_mc.Striped_seen
module Harness = Dynvote_chaos.Harness

let policy name =
  match Harness.policy_of_string name with
  | Some p -> p
  | None -> Alcotest.failf "no policy %S" name

(* Two sites on one segment: the smallest scope exhibiting the hole. *)
let two_sites flavor =
  Checker.make_config ~flavor ~universe:(Site_set.of_list [ 0; 1 ])
    ~segment_of:(fun _ -> 0) ()

let config_for p = two_sites p.Harness.flavor

let test_tdv_hole_found () =
  let p = policy "tdv" in
  let report = Checker.check ~policy:p ~depth:5 (config_for p) in
  (match report.Checker.verdict with
  | Checker.Counterexample { schedule; violations; replay_matches; _ } ->
      Alcotest.(check bool) "replays identically in the harness" true
        replay_matches;
      Alcotest.(check bool) "at most five steps" true
        (List.length schedule.Dynvote_chaos.Schedule.steps <= 5);
      Alcotest.(check bool) "a violation is reported" true (violations <> [])
  | Checker.Clean _ -> Alcotest.fail "tdv hole not found at depth 5"
  | Checker.Inconclusive -> Alcotest.fail "state budget exhausted");
  Alcotest.(check bool) "counterexample on an expected-unsafe policy is ok" true
    (Checker.verdict_ok report)

let test_safe_policies_clean () =
  List.iter
    (fun name ->
      let p = policy name in
      let report = Checker.check ~policy:p ~depth:6 (config_for p) in
      (match report.Checker.verdict with
      | Checker.Clean _ -> ()
      | Checker.Counterexample { violations; _ } ->
          Alcotest.failf "%s unsafe: %a" name
            Fmt.(Dump.list Dynvote_chaos.Oracle.pp_violation)
            violations
      | Checker.Inconclusive -> Alcotest.failf "%s: budget exhausted" name);
      Alcotest.(check bool) (name ^ " verdict ok") true (Checker.verdict_ok report))
    [ "dv"; "odv"; "tdv-safe" ]

let test_deterministic () =
  let run () =
    Explorer.search ~config:(two_sites Decision.ldv_flavor) ~depth:5 ()
  in
  Alcotest.(check bool) "two searches, identical results" true (run () = run ())

(* Relabeling sites within a segment must never change the verdict, only
   fold equivalent states: same outcome, no larger seen table. *)
let test_symmetry_sound () =
  let config = Checker.paper_config ~flavor:Decision.dv_flavor () in
  let folded = Explorer.search ~symmetry:true ~config ~depth:4 () in
  let plain = Explorer.search ~symmetry:false ~config ~depth:4 () in
  (match (folded.Explorer.outcome, plain.Explorer.outcome) with
  | Explorer.Safe _, Explorer.Safe _ -> ()
  | _ -> Alcotest.fail "dv must be safe at depth 4 with and without symmetry");
  Alcotest.(check bool) "symmetry never grows the state count" true
    (folded.Explorer.distinct <= plain.Explorer.distinct);
  Alcotest.(check bool) "symmetry actually folds states" true
    (folded.Explorer.distinct < plain.Explorer.distinct)

let test_budget_exhaustion () =
  let result =
    Explorer.search ~max_states:50 ~config:(two_sites Decision.dv_flavor)
      ~depth:8 ()
  in
  match result.Explorer.outcome with
  | Explorer.Out_of_budget -> ()
  | _ -> Alcotest.fail "a 50-state budget cannot cover depth 8"

(* Regression: the distinct-state counter must move only on admission.
   The old per-shard tables bumped it on the Budget path too, so under
   contention the reported count drifted past max_states.  Exhaust a
   tiny budget from four workers and demand exact accounting (the
   explorer additionally asserts [length = distinct] internally). *)
let test_budget_no_drift_parallel () =
  let result =
    Explorer.search ~jobs:4 ~max_states:100
      ~config:(Checker.paper_config ~flavor:Decision.tdv_safe_flavor ())
      ~depth:6 ()
  in
  (match result.Explorer.outcome with
  | Explorer.Out_of_budget -> ()
  | _ -> Alcotest.fail "a 100-state budget cannot cover the paper scope");
  Alcotest.(check int) "exactly max_states admitted, none past the cap" 100
    result.Explorer.distinct

(* The partial-order reduction soundness gate: reduced and full
   exploration must produce identical verdicts, counterexample lengths
   and distinct-state counts on a completed bound — at small depth, for
   every distinct policy, sequentially and under a 4-worker pool.  This
   is the empirical half of the commutation proof in lib/mc/por.ml. *)
let test_por_equivalence () =
  (* Equally short counterexamples are interchangeable: the reduction
     (and worker scheduling) may pick a different representative, so a
     violation compares by length and kind, not by its site details. *)
  let kind = function
    | Dynvote_chaos.Oracle.Generation_conflict _ -> "generation"
    | Dynvote_chaos.Oracle.Non_monotone_op _ -> "op"
    | Dynvote_chaos.Oracle.Version_regression _ -> "version"
    | Dynvote_chaos.Oracle.Stale_read _ -> "read"
    | Dynvote_chaos.Oracle.Content_fork _ -> "fork"
  in
  let summary (r : Explorer.result) =
    match r.Explorer.outcome with
    | Explorer.Safe { closed } -> `Safe (closed, r.Explorer.distinct)
    | Explorer.Violation { trace; violations } ->
        `Violation (List.length trace, List.sort compare (List.map kind violations))
    | Explorer.Out_of_budget -> `Out_of_budget
  in
  List.iter
    (fun name ->
      let p = policy name in
      let config =
        {
          (Checker.paper_config ()) with
          Harness.flavor = p.Harness.flavor;
        }
      in
      let run ~por ~jobs = Explorer.search ~por ~jobs ~config ~depth:5 () in
      let full = summary (run ~por:false ~jobs:1) in
      List.iter
        (fun jobs ->
          let reduced = summary (run ~por:true ~jobs) in
          if reduced <> full then
            Alcotest.failf "%s (-j%d): reduced and full verdicts differ" name jobs)
        [ 1; 4 ];
      (* Transitions must never grow on the policy's own search. *)
      let t_full = (run ~por:false ~jobs:1).Explorer.transitions in
      let t_red = (run ~por:true ~jobs:1).Explorer.transitions in
      Alcotest.(check bool)
        (name ^ ": reduction does not add transitions")
        true (t_red <= t_full))
    [ "dv"; "odv"; "tdv"; "tdv-safe" ]

(* The fingerprint store in isolation: admission caps, the
   context-tagged transposition rule, and the spill tier. *)
let test_seen_store_claim () =
  let t = Striped_seen.create ~shards:1 ~max_states:3 () in
  let fp i = Printf.sprintf "state-%d" i in
  (* Admission: exactly max_states distinct fingerprints, then Budget —
     and the bounced state is never counted. *)
  for i = 1 to 3 do
    match Striped_seen.claim t (fp i) ~budget:4 ~ctx:0 with
    | Striped_seen.Expand { filter; covered } ->
        Alcotest.(check int) "fresh expansion under own ctx" 0 filter;
        Alcotest.(check int) "fresh expansion is full" 0 covered
    | _ -> Alcotest.failf "state %d should admit" i
  done;
  (match Striped_seen.claim t (fp 4) ~budget:4 ~ctx:0 with
  | Striped_seen.Budget -> ()
  | _ -> Alcotest.fail "4th state must bounce");
  Alcotest.(check int) "bounced state not counted" 3 (Striped_seen.distinct t);
  Alcotest.(check int) "length = distinct" 3 (Striped_seen.length t);
  (* Transposition: smaller budget prunes, larger re-expands. *)
  (match Striped_seen.claim t (fp 1) ~budget:2 ~ctx:0 with
  | Striped_seen.Prune -> ()
  | _ -> Alcotest.fail "covered revisit must prune");
  (match Striped_seen.claim t (fp 1) ~budget:6 ~ctx:0 with
  | Striped_seen.Expand { covered = 0; _ } -> ()
  | _ -> Alcotest.fail "deeper revisit must re-expand in full");
  Alcotest.(check int) "revisits never recount" 3 (Striped_seen.distinct t);
  Striped_seen.close t;
  (* Context conflict at a covered budget: only the difference, and the
     new statement joins the stored pair. *)
  let t = Striped_seen.create ~shards:1 ~max_states:10 () in
  let ctx_a = 0x1_0001 and ctx_b = 0x1_0002 in
  (match Striped_seen.claim t "conflicted" ~budget:4 ~ctx:ctx_a with
  | Striped_seen.Expand { filter; covered } ->
      Alcotest.(check int) "fresh: filter is the incoming ctx" ctx_a filter;
      Alcotest.(check int) "fresh: full expansion" 0 covered
  | _ -> Alcotest.fail "fresh state admits");
  (match Striped_seen.claim t "conflicted" ~budget:4 ~ctx:ctx_b with
  | Striped_seen.Expand { filter; covered } ->
      Alcotest.(check int) "conflict: filter is our ctx" ctx_b filter;
      Alcotest.(check int) "conflict: difference against the stored ctx" ctx_a
        covered
  | _ -> Alcotest.fail "conflicting ctx at covered budget expands difference");
  (match Striped_seen.claim t "conflicted" ~budget:4 ~ctx:ctx_b with
  | Striped_seen.Prune -> ()
  | _ -> Alcotest.fail "joined statement must prune the repeat");
  (match Striped_seen.claim t "conflicted" ~budget:3 ~ctx:0 with
  | Striped_seen.Expand { filter = 0; covered } ->
      Alcotest.(check bool) "unfiltered arrival diffs against a stored ctx" true
        (covered = ctx_a || covered = ctx_b)
  | _ -> Alcotest.fail "unfiltered arrival under covered budget diffs");
  Striped_seen.close t

(* Spilling moves entries to disk without changing a single answer:
   replay one deterministic claim sequence against a resident-only store
   and a spill-at-16 store and demand identical verdicts throughout. *)
let test_seen_store_spill_equivalence () =
  let resident = Striped_seen.create ~shards:1 ~max_states:10_000 () in
  let spilly = Striped_seen.create ~shards:1 ~spill:16 ~max_states:10_000 () in
  let mix i = (i * 2654435761) land 0xfff in
  for i = 0 to 2_000 do
    let fp = Printf.sprintf "s-%d" (mix i) in
    let budget = i mod 7 and ctx = if i mod 3 = 0 then 0 else 0x1_0000 lor (i mod 5) in
    let a = Striped_seen.claim resident fp ~budget ~ctx in
    let b = Striped_seen.claim spilly fp ~budget ~ctx in
    if a <> b then Alcotest.failf "claim %d diverges with spilling on" i
  done;
  Alcotest.(check int) "same distinct count"
    (Striped_seen.distinct resident)
    (Striped_seen.distinct spilly);
  Alcotest.(check bool) "the spill tier actually engaged" true
    (Striped_seen.spilled spilly > 0);
  Striped_seen.close resident;
  Striped_seen.close spilly

(* The same equivalence end-to-end: DYNVOTE_MC_SPILL forces the search's
   seen store onto the disk tier; verdict and statistics must not move. *)
let test_search_spill_equivalence () =
  let config = two_sites Decision.tdv_safe_flavor in
  let plain = Explorer.search ~config ~depth:6 () in
  Unix.putenv "DYNVOTE_MC_SPILL" "64";
  let spilled =
    Fun.protect
      ~finally:(fun () -> Unix.putenv "DYNVOTE_MC_SPILL" "")
      (fun () -> Explorer.search ~config ~depth:6 ())
  in
  Alcotest.(check bool) "identical result up to the spill statistic" true
    ({ plain with Explorer.spilled = 0 } = { spilled with Explorer.spilled = 0 });
  Alcotest.(check bool) "the spill tier actually engaged" true
    (spilled.Explorer.spilled > 0)

(* Job-count independence of the one search: the verdict, the
   counterexample length, and the distinct count on a completed bound
   must be the same at -j1, -j2 and -j4 — for a safe, an unsafe, and a
   patched policy.  (Transitions may differ: which worker first admits a
   state decides who expands it, and POR contexts can differ across
   interleavings.  The summary deliberately excludes them.) *)
let test_root_shard_verdict_parity () =
  let summary (r : Explorer.result) =
    match r.Explorer.outcome with
    | Explorer.Safe { closed } -> `Safe (closed, r.Explorer.distinct)
    | Explorer.Violation { trace; _ } -> `Violation (List.length trace)
    | Explorer.Out_of_budget -> `Out_of_budget
  in
  List.iter
    (fun (name, depth) ->
      let p = policy name in
      let config =
        { (Checker.paper_config ()) with Harness.flavor = p.Harness.flavor }
      in
      let run jobs = Explorer.search ~jobs ~config ~depth () in
      let seq = summary (run 1) in
      List.iter
        (fun jobs ->
          if summary (run jobs) <> seq then
            Alcotest.failf "%s: -j%d root shards diverge from -j1" name jobs)
        [ 2; 4 ])
    [ ("dv", 4); ("tdv", 5); ("tdv-safe", 4) ]

(* The root cursor's ledger ([result.workers]).  [roots] is the size of
   the root alphabet; [bounds] counts the deepening iterations through
   the [progress] callback, which fires once per iteration. *)
let root_count config =
  let session = Harness.make_session config in
  List.length
    (Space.enabled Space.default ~config ~cluster:(Harness.cluster session))

let search_counting_bounds ?max_states ~jobs ~config ~depth () =
  let bounds = ref 0 in
  let r =
    Explorer.search ?max_states ~jobs ~config ~depth
      ~progress:(fun ~depth:_ ~distinct:_ ~transitions:_ -> incr bounds)
      ()
  in
  (r, !bounds)

let total_taken (r : Explorer.result) =
  Array.fold_left (fun acc w -> acc + w.Dynvote_exec.Pool.steals) 0 r.Explorer.workers

(* At one job the single worker takes every root action once per bound,
   in order, and ends each bound with exactly one probe past the end. *)
let test_root_cursor_one_job () =
  let config = two_sites Decision.dv_flavor in
  let r, bounds = search_counting_bounds ~jobs:1 ~config ~depth:5 () in
  (match r.Explorer.outcome with
  | Explorer.Safe _ -> ()
  | _ -> Alcotest.fail "dv must be safe on two sites at depth 5");
  Alcotest.(check int) "one bound per reported depth" r.Explorer.depth bounds;
  Alcotest.(check int) "one worker record" 1 (Array.length r.Explorer.workers);
  let w = r.Explorer.workers.(0) in
  Alcotest.(check int) "every root taken once per bound"
    (root_count config * bounds) w.Dynvote_exec.Pool.steals;
  Alcotest.(check int) "one empty probe per bound" bounds
    w.Dynvote_exec.Pool.failed_steals

(* At four jobs the workers split the root actions: each is taken by
   exactly one worker per bound, and every worker leaves every bound
   through exactly one empty probe (nothing stops a safe search). *)
let test_root_cursor_split () =
  let p = policy "tdv-safe" in
  let config = { (Checker.paper_config ()) with Harness.flavor = p.Harness.flavor } in
  let r, bounds = search_counting_bounds ~jobs:4 ~config ~depth:4 () in
  (match r.Explorer.outcome with
  | Explorer.Safe _ -> ()
  | _ -> Alcotest.fail "tdv-safe must be safe at depth 4");
  Alcotest.(check int) "one record per worker" 4 (Array.length r.Explorer.workers);
  Alcotest.(check int) "every root taken exactly once per bound"
    (root_count config * bounds) (total_taken r);
  Array.iteri
    (fun i w ->
      Alcotest.(check int)
        (Printf.sprintf "worker %d: one empty probe per bound" i)
        bounds w.Dynvote_exec.Pool.failed_steals)
    r.Explorer.workers

(* A violation stops the search inside its last bound: every earlier
   bound took all the roots, the last took at least the violating one
   and not all of them past it at one job, which then never probes the
   cursor again. *)
let test_root_cursor_stops_on_violation () =
  let p = policy "tdv" in
  let config = { (Checker.paper_config ()) with Harness.flavor = p.Harness.flavor } in
  let roots = root_count config in
  List.iter
    (fun jobs ->
      let r, bounds = search_counting_bounds ~jobs ~config ~depth:5 () in
      (match r.Explorer.outcome with
      | Explorer.Violation _ -> ()
      | _ -> Alcotest.failf "-j%d: tdv hole not found at depth 5" jobs);
      let taken = total_taken r in
      if taken <= roots * (bounds - 1) || taken > roots * bounds then
        Alcotest.failf "-j%d: %d roots taken over %d bounds of %d roots" jobs
          taken bounds roots;
      if jobs = 1 then
        Alcotest.(check int) "-j1: no empty probe in the stopped bound"
          (bounds - 1) r.Explorer.workers.(0).Dynvote_exec.Pool.failed_steals)
    [ 1; 4 ]

(* The state budget is the other way a bound stops early; its verdict
   and accounting must not depend on the job count either. *)
let test_budget_jobs_identical () =
  let config = Checker.paper_config ~flavor:Decision.tdv_safe_flavor () in
  let run jobs =
    fst (search_counting_bounds ~max_states:100 ~jobs ~config ~depth:6 ())
  in
  let seq = run 1 in
  (match seq.Explorer.outcome with
  | Explorer.Out_of_budget -> ()
  | _ -> Alcotest.fail "a 100-state budget cannot cover the paper scope");
  Alcotest.(check int) "-j1: exactly max_states admitted" 100 seq.Explorer.distinct;
  let par = run 4 in
  Alcotest.(check bool) "-j4: out of budget too" true
    (par.Explorer.outcome = Explorer.Out_of_budget);
  Alcotest.(check int) "same last completed bound" seq.Explorer.depth par.Explorer.depth

(* No bound, no search: a depth-0 call runs no deepening iteration, so
   it reports no worker records and no work at any width. *)
let test_depth_zero_no_workers () =
  List.iter
    (fun jobs ->
      let r = Explorer.search ~jobs ~config:(two_sites Decision.dv_flavor) ~depth:0 () in
      Alcotest.(check int) "no worker records" 0 (Array.length r.Explorer.workers);
      Alcotest.(check int) "no transitions" 0 r.Explorer.transitions;
      Alcotest.(check bool) "safe, not closed" true
        (r.Explorer.outcome = Explorer.Safe { closed = false }))
    [ 1; 4 ]

(* The paper's §3 four-copy topology: the published violation surfaces as
   a short schedule even at a shallow bound. *)
let test_paper_example_tdv () =
  let p = policy "tdv" in
  let report = Checker.check ~policy:p ~depth:5 (Checker.paper_config ()) in
  match report.Checker.verdict with
  | Checker.Counterexample { replay_matches; _ } ->
      Alcotest.(check bool) "replays identically" true replay_matches
  | _ -> Alcotest.fail "tdv hole not found on the paper example at depth 5"

(* Deep sweep of the paper scope, opt-in: DYNVOTE_MC_DEPTH=8 runs the
   full acceptance bound (~1 minute for all four policies). *)
let test_deep_sweep () =
  match Sys.getenv_opt "DYNVOTE_MC_DEPTH" with
  | None | Some "" -> ()
  | Some depth ->
      let depth = int_of_string depth in
      List.iter
        (fun name ->
          let p = policy name in
          let report =
            Checker.check ~policy:p ~depth (Checker.paper_config ())
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s verdict ok at depth %d" name depth)
            true (Checker.verdict_ok report);
          match (p.Harness.expect_safe, report.Checker.verdict) with
          | true, Checker.Counterexample _ ->
              Alcotest.failf "%s expected safe, found a counterexample" name
          | false, Checker.Clean _ ->
              Alcotest.failf "%s expected unsafe, swept clean" name
          | _ -> ())
        [ "dv"; "odv"; "tdv"; "tdv-safe" ]

let suite =
  [
    Alcotest.test_case "tdv hole found and replayed" `Quick test_tdv_hole_found;
    Alcotest.test_case "safe policies sweep clean" `Quick test_safe_policies_clean;
    Alcotest.test_case "search is deterministic" `Quick test_deterministic;
    Alcotest.test_case "symmetry reduction is sound" `Quick test_symmetry_sound;
    Alcotest.test_case "state budget reported" `Quick test_budget_exhaustion;
    Alcotest.test_case "budget counter never drifts (-j4)" `Quick
      test_budget_no_drift_parallel;
    Alcotest.test_case "partial-order reduction is sound (-j1/-j4)" `Quick
      test_por_equivalence;
    Alcotest.test_case "seen store: claim rule and admission cap" `Quick
      test_seen_store_claim;
    Alcotest.test_case "seen store: spilling changes no answer" `Quick
      test_seen_store_spill_equivalence;
    Alcotest.test_case "search under DYNVOTE_MC_SPILL is identical" `Quick
      test_search_spill_equivalence;
    Alcotest.test_case "root-shard verdicts agree at -j1/-j2/-j4" `Quick
      test_root_shard_verdict_parity;
    Alcotest.test_case "root cursor: -j1 takes every root once per bound" `Quick
      test_root_cursor_one_job;
    Alcotest.test_case "root cursor: -j4 workers split the roots" `Quick
      test_root_cursor_split;
    Alcotest.test_case "root cursor: a violation stops the bound" `Quick
      test_root_cursor_stops_on_violation;
    Alcotest.test_case "budget verdict identical at -j1 and -j4" `Quick
      test_budget_jobs_identical;
    Alcotest.test_case "depth 0 runs no workers" `Quick test_depth_zero_no_workers;
    Alcotest.test_case "paper example: tdv counterexample" `Quick
      test_paper_example_tdv;
    Alcotest.test_case "deep sweep (DYNVOTE_MC_DEPTH)" `Slow test_deep_sweep;
  ]
