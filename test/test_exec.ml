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
  Pool.with_pool ~jobs:4 (fun pool ->
      let observations =
        Pool.map_list pool
          (fun _ -> (Pool.in_worker (), Pool.with_pool ~jobs:4 Pool.jobs))
          [ 1; 2; 3; 4 ]
      in
      List.iter
        (fun (in_worker, inner_jobs) ->
          Alcotest.(check bool) "task sees in_worker" true in_worker;
          Alcotest.(check int) "inner pool collapses to sequential" 1 inner_jobs)
        observations)

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

(* --- the work-stealing frontier -------------------------------------- *)

module Deque = Dynvote_exec.Deque

(* Single-domain oracle check: with no concurrency the Chase–Lev CAS
   always succeeds, so [Retry] is impossible and every operation must
   agree exactly with a reference two-ended queue (push at the back, pop
   from the back, steal from the front).  Ops are encoded as ints:
   0 = pop, 1 = steal, n >= 2 = push n. *)
let deque_matches_model ops =
  let d = Deque.create () in
  let model = ref [] (* front .. back *) in
  let ok = ref true in
  let push v =
    Deque.push d v;
    model := !model @ [ v ]
  in
  let pop () =
    let expected =
      match List.rev !model with
      | [] -> None
      | v :: rest ->
          model := List.rev rest;
          Some v
    in
    if Deque.pop d <> expected then ok := false
  in
  let steal () =
    let expected =
      match !model with
      | [] -> Deque.Empty
      | v :: rest ->
          model := rest;
          Deque.Stolen v
    in
    if Deque.steal d <> expected then ok := false
  in
  List.iter
    (fun op -> if op = 0 then pop () else if op = 1 then steal () else push op)
    ops;
  if Deque.size d <> List.length !model then ok := false;
  while !model <> [] do
    pop ()
  done;
  !ok && Deque.pop d = None && Deque.steal d = Deque.Empty

let test_deque_model =
  Helpers.qcheck_case ~count:500 ~name:"deque agrees with two-ended queue model"
    QCheck.(list (int_range 0 50))
    deque_matches_model

(* The concurrent contract: under one owner (pushing and popping) and
   several thief domains, every pushed value is consumed exactly once —
   nothing lost, nothing duplicated.  An atomic consumed counter is the
   join condition; the merged multiset of everyone's takes must be
   exactly the pushed set. *)
let test_deque_concurrent_exactly_once () =
  let n = 20_000 and thieves = 3 in
  let d = Deque.create () in
  let consumed = Atomic.make 0 in
  let thief_domains =
    List.init thieves (fun _ ->
        Domain.spawn (fun () ->
            let mine = ref [] in
            while Atomic.get consumed < n do
              match Deque.steal d with
              | Deque.Stolen v ->
                  mine := v :: !mine;
                  Atomic.incr consumed
              | Deque.Empty | Deque.Retry -> Domain.cpu_relax ()
            done;
            !mine))
  in
  let owner = ref [] in
  let take = function
    | Some v ->
        owner := v :: !owner;
        Atomic.incr consumed
    | None -> Domain.cpu_relax ()
  in
  for v = 0 to n - 1 do
    Deque.push d v;
    (* Interleave owner pops so the owner/thief last-element race is
       actually exercised, not just bulk stealing. *)
    if v mod 3 = 0 then take (Deque.pop d)
  done;
  while Atomic.get consumed < n do
    take (Deque.pop d)
  done;
  let stolen = List.concat_map Domain.join thief_domains in
  Alcotest.(check bool)
    "every pushed value consumed exactly once" true
    (List.sort compare (!owner @ stolen) = List.init n (fun i -> i))

(* [run_stealing] on a task tree of known size: every node must be
   executed exactly once regardless of the worker count, and the
   scheduler must return one stats record per worker. *)
let tree_nodes ~fanout ~depth =
  let rec go d = if d = 0 then 1 else 1 + (fanout * go (d - 1)) in
  go depth

let total_tasks stats =
  Array.fold_left (fun acc s -> acc + s.Pool.tasks_executed) 0 stats

let test_run_stealing_counts () =
  let fanout = 3 and depth = 7 in
  let expected = tree_nodes ~fanout ~depth in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let stats =
            Pool.run_stealing pool ~roots:[| depth |]
              ~init:(fun _ -> ())
              ~run:(fun () ~push d ->
                if d > 0 then
                  for _ = 1 to fanout do
                    push (d - 1)
                  done)
              ()
          in
          Alcotest.(check int) "one stats record per worker" (Pool.jobs pool)
            (Array.length stats);
          Alcotest.(check int)
            (Printf.sprintf "all %d tree tasks executed once at -j%d" expected
               jobs)
            expected (total_tasks stats)))
    [ 1; 4 ]

let test_run_stealing_exception () =
  Pool.with_pool ~jobs:4 (fun pool ->
      (match
         Pool.run_stealing pool ~roots:[| 6 |]
           ~init:(fun _ -> ())
           ~run:(fun () ~push d ->
             if d = 2 then raise (Boom d)
             else if d > 0 then (
               push (d - 1);
               push (d - 1)))
           ()
       with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i -> Alcotest.(check int) "task exception re-raised" 2 i);
      (* The pool survives an aborted schedule. *)
      let stats =
        Pool.run_stealing pool ~roots:[| 0 |]
          ~init:(fun _ -> ())
          ~run:(fun () ~push:_ _ -> ())
          ()
      in
      Alcotest.(check int) "pool usable after abort" 1 (total_tasks stats))

(* The end-to-end guarantee the frontier is sold on: model-checker
   verdicts independent of both the job count and the scheduling policy
   (stealing frontier vs root-alphabet shards). *)
let check_mc_steal_parity ~name ~depth =
  let p = Option.get (Harness.policy_of_string name) in
  let report ~jobs ~steal =
    Checker.check ~policy:p ~depth ~jobs ~steal (Checker.paper_config ())
  in
  let base = mc_summary (report ~jobs:1 ~steal:true) in
  Alcotest.(check string)
    (name ^ " -j4 stealing matches -j1")
    base
    (mc_summary (report ~jobs:4 ~steal:true));
  Alcotest.(check string)
    (name ^ " -j4 sharded matches -j1")
    base
    (mc_summary (report ~jobs:4 ~steal:false))

let test_mc_steal_parity_dv () = check_mc_steal_parity ~name:"dv" ~depth:4

let test_mc_steal_parity_tdv () = check_mc_steal_parity ~name:"tdv" ~depth:5

let test_mc_steal_parity_tdv_safe () =
  check_mc_steal_parity ~name:"tdv-safe" ~depth:4

let steal_suite =
  [
    test_deque_model;
    Alcotest.test_case "deque concurrent exactly-once" `Quick
      test_deque_concurrent_exactly_once;
    Alcotest.test_case "run_stealing executes the whole tree" `Quick
      test_run_stealing_counts;
    Alcotest.test_case "run_stealing exception propagation" `Quick
      test_run_stealing_exception;
    Alcotest.test_case "mc dv parity across jobs and steal" `Quick
      test_mc_steal_parity_dv;
    Alcotest.test_case "mc tdv parity across jobs and steal" `Quick
      test_mc_steal_parity_tdv;
    Alcotest.test_case "mc tdv-safe parity across jobs and steal" `Quick
      test_mc_steal_parity_tdv_safe;
  ]

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
  ]
