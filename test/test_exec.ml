(* The domain-pool execution layer: deterministic fan-out ordering,
   exception propagation, the no-nested-pools rule, and the end-to-end
   guarantee the layer is sold on — study results and model-checker
   verdicts independent of the job count. *)

module Pool = Dynvote_exec.Pool
module Study = Dynvote_sim.Study
module Config = Dynvote_sim.Config
module Checker = Dynvote_mc.Checker
module Explorer = Dynvote_mc.Explorer
module Harness = Dynvote_chaos.Harness

let test_map_ordering () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let xs = Array.init 257 (fun i -> i) in
      (* Uneven per-item work, so completion order differs from index
         order and only index-keyed joining gives the right answer. *)
      let f i =
        let acc = ref 0 in
        for k = 0 to (i * 37 mod 1000) + 1 do
          acc := !acc + ((i + k) * (i + k))
        done;
        (i, !acc)
      in
      Alcotest.(check bool)
        "map_array joins by index" true
        (Pool.map_array pool f xs = Array.map f xs);
      let ys = List.init 100 (fun i -> i * 3) in
      Alcotest.(check (list int))
        "map_list preserves order"
        (List.map (fun x -> x + 1) ys)
        (Pool.map_list pool (fun x -> x + 1) ys))

exception Boom of int

let test_exception_propagation () =
  Pool.with_pool ~jobs:4 (fun pool ->
      (match
         Pool.map_array pool
           (fun i -> if i = 37 || i = 73 then raise (Boom i) else i)
           (Array.init 128 (fun i -> i))
       with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i ->
          Alcotest.(check int) "lowest failing index re-raised" 37 i);
      (* The pool survives a failed batch. *)
      Alcotest.(check bool)
        "pool usable after exception" true
        (Pool.map_array pool (fun i -> i * 2) (Array.init 16 (fun i -> i))
        = Array.init 16 (fun i -> i * 2)))

let test_no_nested_pools () =
  Alcotest.(check bool) "not in a worker outside" false (Pool.in_worker ());
  let observe pool items =
    Pool.map_list pool (fun _ -> (Pool.in_worker (), Pool.with_pool ~jobs:4 Pool.jobs)) items
    |> List.iter (fun (in_worker, inner_jobs) ->
           Alcotest.(check bool) "task sees in_worker" true in_worker;
           Alcotest.(check int) "inner pool collapses to sequential" 1 inner_jobs)
  in
  Pool.with_pool ~jobs:4 (fun pool ->
      observe pool [ 1; 2; 3; 4 ];
      (* One item takes the sequential branch of a wide pool. *)
      observe pool [ 1 ]);
  (* So does every call on a one-job pool. *)
  Pool.with_pool ~jobs:1 (fun pool -> observe pool [ 1; 2; 3 ]);
  Alcotest.(check bool) "in_worker restored after the call" false (Pool.in_worker ())

(* A raising task must not leave the caller marked as a worker: after the
   exception propagates, [in_worker] is back to what it was, on the
   sequential branches (one job, one item) and the parallel one, so a
   later pool built by the caller is not collapsed to one job. *)
let test_in_worker_restored_after_exception () =
  let raises pool items =
    match Pool.map_list pool (fun i -> raise (Boom i)) items with
    | _ -> Alcotest.fail "expected Boom"
    | exception Boom _ -> ()
  in
  Pool.with_pool ~jobs:1 (fun pool -> raises pool [ 1; 2 ]);
  Alcotest.(check bool) "cleared after a one-job failure" false (Pool.in_worker ());
  Pool.with_pool ~jobs:4 (fun pool ->
      raises pool [ 1 ];
      Alcotest.(check bool) "cleared after a one-item failure" false (Pool.in_worker ());
      raises pool [ 1; 2; 3; 4 ];
      Alcotest.(check bool) "cleared after a parallel failure" false (Pool.in_worker ()));
  Alcotest.(check int) "a later pool is still wide" 4 (Pool.with_pool ~jobs:4 Pool.jobs)

(* Long enough (about 5,800 transitions) that the trace spans more than
   one chunk, so chunk boundaries are part of what must not depend on
   [jobs]. *)
let small_parameters = { Study.default_parameters with Study.horizon = 12_360.0 }

let small_configs =
  List.filter (fun c -> List.mem (Config.label c) [ "A"; "E" ]) Config.ucsd_configurations

let test_study_jobs_identical () =
  let run jobs =
    Study.run ~parameters:small_parameters ~configs:small_configs
      ~kinds:[ Policy.Mcv; Policy.Ldv; Policy.Tdv ] ~jobs ()
  in
  (* [compare], not [=]: mean_outage_days is nan for never-unavailable
     cells, and nan must compare equal to itself here. *)
  Alcotest.(check bool)
    "Study.run bit-identical at -j1 and -j4" true
    (compare (run 1) (run 4) = 0)

let test_replicate_jobs_identical () =
  let replicate jobs =
    Study.replicate ~parameters:small_parameters ~replications:3
      ~configs:small_configs ~kinds:[ Policy.Ldv ] ~jobs ()
  in
  Alcotest.(check bool)
    "Study.replicate identical at -j1 and -j4" true
    (compare (replicate 1) (replicate 4) = 0)

let mc_summary (report : Checker.report) =
  let r = report.Checker.result in
  match r.Explorer.outcome with
  | Explorer.Safe { closed } ->
      Printf.sprintf "safe depth=%d closed=%b distinct=%d" r.Explorer.depth closed
        r.Explorer.distinct
  | Explorer.Violation { trace; _ } ->
      Printf.sprintf "violation len=%d replays=%b" (List.length trace)
        (match report.Checker.verdict with
        | Checker.Counterexample { replay_matches; _ } -> replay_matches
        | _ -> false)
  | Explorer.Out_of_budget -> Printf.sprintf "budget depth=%d" r.Explorer.depth

let check_mc_parity ~name ~depth =
  let p = Option.get (Harness.policy_of_string name) in
  let report jobs = Checker.check ~policy:p ~depth ~jobs (Checker.paper_config ()) in
  Alcotest.(check string)
    (name ^ " verdict identical at -j1 and -j4")
    (mc_summary (report 1))
    (mc_summary (report 4))

let test_mc_safe_jobs_identical () = check_mc_parity ~name:"dv" ~depth:4

let test_mc_violation_jobs_identical () = check_mc_parity ~name:"tdv" ~depth:5

let test_mc_patched_jobs_identical () = check_mc_parity ~name:"tdv-safe" ~depth:4

(* A search started inside a pool task gets a one-job pool (no nested
   pools), so whatever [jobs] it asks for it must return exactly the
   record of a top-level one-job search — traversal statistics and
   per-worker cursor counts included. *)
let test_mc_nested_search_is_sequential () =
  let p = Option.get (Harness.policy_of_string "tdv-safe") in
  let config = { (Checker.paper_config ()) with Harness.flavor = p.Harness.flavor } in
  let top = Explorer.search ~jobs:1 ~config ~depth:4 () in
  let nested =
    Pool.with_pool ~jobs:2 (fun pool ->
        Pool.map_list pool (fun () -> Explorer.search ~jobs:4 ~config ~depth:4 ()) [ (); () ])
  in
  List.iter
    (fun (r : Explorer.result) ->
      Alcotest.(check int) "visited" top.Explorer.visited r.Explorer.visited;
      Alcotest.(check int) "transitions" top.Explorer.transitions r.Explorer.transitions;
      Alcotest.(check int) "distinct" top.Explorer.distinct r.Explorer.distinct;
      Alcotest.(check int) "peak_seen" top.Explorer.peak_seen r.Explorer.peak_seen;
      Alcotest.(check bool) "identical result record" true (r = top))
    nested

let suite =
  [
    Alcotest.test_case "pool map ordering" `Quick test_map_ordering;
    Alcotest.test_case "pool exception propagation" `Quick test_exception_propagation;
    Alcotest.test_case "no nested pools" `Quick test_no_nested_pools;
    Alcotest.test_case "study identical across jobs" `Quick test_study_jobs_identical;
    Alcotest.test_case "replicate identical across jobs" `Quick
      test_replicate_jobs_identical;
    Alcotest.test_case "mc safe verdict identical across jobs" `Quick
      test_mc_safe_jobs_identical;
    Alcotest.test_case "mc violation verdict identical across jobs" `Quick
      test_mc_violation_jobs_identical;
    Alcotest.test_case "mc patched-policy verdict identical across jobs" `Quick
      test_mc_patched_jobs_identical;
    Alcotest.test_case "mc search inside a pool task is the -j1 search" `Quick
      test_mc_nested_search_is_sequential;
    Alcotest.test_case "in_worker restored after a raising task" `Quick
      test_in_worker_restored_after_exception;
  ]
