(* Study: the end-to-end availability simulation.  These use short
   horizons — statistical agreement with the paper is checked in the
   benchmark harness; here we check structure, determinism and the
   relations that must hold exactly because all policies share a trace. *)

open Helpers
module Study = Dynvote_sim.Study
module Config = Dynvote_sim.Config

let params =
  { Study.default_parameters with horizon = 20_360.0; batches = 4; seed = 123 }

let results = lazy (Study.run ~parameters:params ())

let find config kind =
  List.find
    (fun r -> Config.label r.Study.config = config && r.Study.kind = kind)
    (Lazy.force results)

let test_shape () =
  let rs = Lazy.force results in
  Alcotest.(check int) "8 configs x 6 policies" 48 (List.length rs);
  List.iter
    (fun r ->
      let u = r.Study.unavailability in
      if u < 0.0 || u > 1.0 then Alcotest.failf "unavailability out of range: %f" u;
      check_float_tol 1e-6 "observed = horizon - warmup" 20_000.0 r.Study.observed_days)
    rs

let test_determinism () =
  let a = Study.run ~parameters:params ~configs:[ List.hd Config.ucsd_configurations ] () in
  let b = Study.run ~parameters:params ~configs:[ List.hd Config.ucsd_configurations ] () in
  List.iter2
    (fun x y ->
      check_float "same unavailability" x.Study.unavailability y.Study.unavailability;
      Alcotest.(check int) "same outages" x.Study.outages y.Study.outages)
    a b

let test_seed_matters () =
  let other = { params with seed = 999 } in
  let a = Study.run ~parameters:params ~kinds:[ Policy.Mcv ] () in
  let b = Study.run ~parameters:other ~kinds:[ Policy.Mcv ] () in
  Alcotest.(check bool) "different seeds differ somewhere" true
    (List.exists2 (fun x y -> x.Study.unavailability <> y.Study.unavailability) a b)

(* Exact identity from the paper: when every copy sits on its own segment
   (config C), topological claiming can never fire, so TDV = LDV and
   OTDV = ODV on the same trace, number for number. *)
let test_config_c_identities () =
  check_float "TDV = LDV on C" (find "C" Policy.Ldv).Study.unavailability
    (find "C" Policy.Tdv).Study.unavailability;
  check_float "OTDV = ODV on C" (find "C" Policy.Odv).Study.unavailability
    (find "C" Policy.Otdv).Study.unavailability;
  Alcotest.(check int) "same outage count (TDV/LDV)" (find "C" Policy.Ldv).Study.outages
    (find "C" Policy.Tdv).Study.outages

(* Orderings that hold with large margins in the paper and must hold on
   any reasonable trace. *)
let test_paper_orderings () =
  (* LDV dominates plain DV everywhere (it only adds grants). *)
  List.iter
    (fun label ->
      Alcotest.(check bool)
        (label ^ ": LDV <= DV")
        true
        ((find label Policy.Ldv).Study.unavailability
        <= (find label Policy.Dv).Study.unavailability +. 1e-12))
    [ "A"; "B"; "C"; "D"; "E"; "F"; "G"; "H" ];
  (* TDV dominates LDV (claiming only adds grants). *)
  List.iter
    (fun label ->
      Alcotest.(check bool)
        (label ^ ": TDV <= LDV")
        true
        ((find label Policy.Tdv).Study.unavailability
        <= (find label Policy.Ldv).Study.unavailability +. 1e-12))
    [ "A"; "B"; "C"; "D"; "E"; "F"; "G"; "H" ];
  (* DV is worse than MCV with three copies (the known DV weakness). *)
  List.iter
    (fun label ->
      Alcotest.(check bool)
        (label ^ ": DV >= MCV (3 copies)")
        true
        ((find label Policy.Dv).Study.unavailability
        >= (find label Policy.Mcv).Study.unavailability))
    [ "A"; "B"; "C"; "D" ];
  (* Config F's signature: DV collapses, far worse than everyone. *)
  Alcotest.(check bool) "F: DV at least 10x MCV" true
    ((find "F" Policy.Dv).Study.unavailability
    > 10.0 *. (find "F" Policy.Mcv).Study.unavailability)

let test_no_failures_always_available () =
  (* Indestructible sites: zero unavailability for every policy. *)
  let specs =
    Array.map
      (fun _ ->
        Dynvote_failures.Site_spec.create ~name:"solid" ~mttf_days:1e12
          ~hardware_fraction:0.0 ~restart_minutes:1.0 ~repair_constant_hours:0.0
          ~repair_exp_hours:0.0 ())
      (Array.make 8 ())
  in
  let results =
    Study.run
      ~parameters:{ params with horizon = 5_360.0; batches = 2 }
      ~specs ()
  in
  List.iter
    (fun r ->
      check_float
        (Policy.kind_name r.Study.kind ^ " never unavailable")
        0.0 r.Study.unavailability)
    results

let test_run_drivers_custom () =
  (* Strict MCV must be at least as unavailable as tie-breaking MCV. *)
  let universe = Config.copies (Option.get (Config.find "H")) in
  let ordering = Ordering.default 8 in
  let strict = Policy_extra.strict_mcv ~universe in
  let lex =
    Driver.of_policy
      (Policy.create Policy.Mcv ~universe ~n_sites:8
         ~segment_of:(Dynvote_net.Topology.segment_of Dynvote_net.Topology.ucsd)
         ~ordering)
  in
  match
    Study.run_drivers ~parameters:params
      ~drivers:[ ("strict", strict); ("lex", lex) ]
      ()
  with
  | [ ("strict", s); ("lex", l) ] ->
      Alcotest.(check bool) "strict >= lexicographic" true
        (s.Study.unavailability >= l.Study.unavailability -. 1e-12)
  | _ -> Alcotest.fail "unexpected result shape"

let test_parameter_validation () =
  Alcotest.check_raises "horizon" (Invalid_argument "Study: horizon must exceed warmup")
    (fun () ->
      ignore (Study.run ~parameters:{ params with horizon = 100.0; warmup = 360.0 } ()));
  Alcotest.check_raises "batches" (Invalid_argument "Study: need at least two batches")
    (fun () -> ignore (Study.run ~parameters:{ params with batches = 1 } ()));
  Alcotest.check_raises "access interval"
    (Invalid_argument "Study: access interval must be positive") (fun () ->
      ignore (Study.run ~parameters:{ params with access_interval = 0.0 } ()))

let test_access_rate_extremes () =
  (* As the access interval shrinks, ODV approaches LDV. *)
  let config = Option.get (Config.find "B") in
  let run interval =
    let parameters = { params with access_interval = interval } in
    let rs = Study.run ~parameters ~configs:[ config ] ~kinds:[ Policy.Odv; Policy.Ldv ] () in
    ( (List.find (fun r -> r.Study.kind = Policy.Odv) rs).Study.unavailability,
      (List.find (fun r -> r.Study.kind = Policy.Ldv) rs).Study.unavailability )
  in
  let odv_fast, ldv = run 0.0001 in
  Alcotest.(check bool) "frequent accesses converge to LDV" true
    (close_rel ~rel:0.05 ldv odv_fast || Float.abs (odv_fast -. ldv) < 1e-5)

let test_replicate () =
  let config = Option.get (Config.find "B") in
  let parameters = { Study.default_parameters with horizon = 10_360.0; batches = 2 } in
  let pooled =
    Study.replicate ~parameters ~replications:3 ~configs:[ config ]
      ~kinds:[ Policy.Mcv; Policy.Ldv ] ()
  in
  Alcotest.(check int) "one cell per (config, kind)" 2 (List.length pooled);
  List.iter
    (fun ((_, kind), (r : Study.replicated)) ->
      Alcotest.(check int)
        (Policy.kind_name kind ^ " three seeds")
        3
        (List.length r.Study.per_seed);
      (* The pooled mean is the average of the per-seed values. *)
      let mean = List.fold_left ( +. ) 0.0 r.Study.per_seed /. 3.0 in
      check_float_tol 1e-12 "pooled mean" mean r.Study.mean_unavailability;
      Alcotest.(check bool) "half width finite and non-negative" true
        (r.Study.half_width_95 >= 0.0);
      (* Different seeds give different (but same-magnitude) values. *)
      Alcotest.(check bool) "seeds differ" true
        (List.sort_uniq compare r.Study.per_seed <> [ List.hd r.Study.per_seed ]
        || List.for_all (fun x -> x = 0.0) r.Study.per_seed))
    pooled;
  (* MCV pooled unavailability exceeds LDV's. *)
  let get kind =
    (snd (List.find (fun ((_, k), _) -> k = kind) pooled)).Study.mean_unavailability
  in
  Alcotest.(check bool) "MCV > LDV pooled" true (get Policy.Mcv > get Policy.Ldv)

(* The exact calls a driver receives, checked against a direct replay of
   the failure trace over more than four chunks: every transition is
   delivered once, in order, and an access that fell due since the
   previous transition comes first and sees the view from before it —
   across chunk boundaries too. *)
let test_driver_calls_match_replay () =
  let parameters = { params with horizon = 40_360.0 } in
  let topology = Dynvote_net.Topology.ucsd in
  let components (v : Policy.view) = List.map Site_set.to_int v.Policy.components in
  let log = ref [] in
  let record entry = log := entry :: !log in
  let driver =
    {
      Driver.name = "recorder";
      optimistic = true;
      on_topology_change = (fun v -> record (`Topology (components v)));
      on_repair = (fun v site -> record (`Repair (components v, site)));
      on_access = (fun v -> record (`Access (components v)); true);
      available = (fun v -> record (`Available (components v)); true);
    }
  in
  ignore (Study.run_drivers ~parameters ~drivers:[ ((), driver) ] ());
  let actual = List.rev !log in
  let module Event_gen = Dynvote_failures.Event_gen in
  let generator =
    Event_gen.create ~seed:parameters.seed Dynvote_failures.Site_spec.ucsd_sites
  in
  let connectivity = Dynvote_net.Connectivity.create topology in
  let up = ref (Dynvote_net.Topology.all_sites topology) in
  let before = ref (Dynvote_net.Connectivity.view connectivity ~up:!up) in
  let next_access = ref infinity and expected = ref [] and transitions = ref 0 in
  let rec replay () =
    let { Event_gen.time; site; now_up; _ } = Event_gen.next generator in
    if time < parameters.horizon then begin
      incr transitions;
      if !next_access < time then expected := `Access (components !before) :: !expected;
      up := (if now_up then Site_set.add site !up else Site_set.remove site !up);
      let view = Dynvote_net.Connectivity.view connectivity ~up:!up in
      expected := `Topology (components view) :: !expected;
      if now_up then expected := `Repair (components view, site) :: !expected;
      expected := `Available (components view) :: !expected;
      (* One access a day: the next falls at the next whole day. *)
      next_access := Float.floor time +. 1.0;
      before := view;
      replay ()
    end
  in
  replay ();
  Alcotest.(check bool) "more than four chunks" true (!transitions > 4 * 4096);
  Alcotest.(check int) "as many calls" (List.length !expected) (List.length actual);
  Alcotest.(check bool) "the same calls in the same order" true (List.rev !expected = actual)

(* [progress] fires at every [jobs], between chunks of the trace, with
   [completed] strictly increasing and short of the horizon. *)
let test_progress_any_jobs () =
  let parameters = { params with horizon = 40_360.0 } in
  List.iter
    (fun jobs ->
      let calls = ref [] in
      let progress ~completed ~total =
        check_float "total is the horizon" parameters.horizon total;
        calls := completed :: !calls
      in
      ignore
        (Study.run ~parameters ~configs:[ List.hd Config.ucsd_configurations ]
           ~kinds:[ Policy.Mcv ] ~progress ~jobs ());
      let completed = List.rev !calls in
      let name = Printf.sprintf "-j%d" jobs in
      Alcotest.(check bool) (name ^ ": fired several times") true (List.length completed >= 3);
      let rec increasing = function
        | a :: (b :: _ as rest) -> a < b && increasing rest
        | _ -> true
      in
      Alcotest.(check bool) (name ^ ": increasing") true (increasing completed);
      Alcotest.(check bool) (name ^ ": below the horizon") true
        (List.for_all (fun c -> c > 0.0 && c < parameters.horizon) completed))
    [ 1; 2 ]

let test_replicate_validation () =
  Alcotest.check_raises "needs two"
    (Invalid_argument "Study.replicate: need at least two replications") (fun () ->
      ignore (Study.replicate ~replications:1 ()))

let suite =
  [
    Alcotest.test_case "result shape" `Quick test_shape;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed matters" `Quick test_seed_matters;
    Alcotest.test_case "config C: TDV=LDV, OTDV=ODV" `Quick test_config_c_identities;
    Alcotest.test_case "paper orderings" `Quick test_paper_orderings;
    Alcotest.test_case "no failures, no unavailability" `Quick test_no_failures_always_available;
    Alcotest.test_case "custom drivers" `Quick test_run_drivers_custom;
    Alcotest.test_case "parameter validation" `Quick test_parameter_validation;
    Alcotest.test_case "access-rate extremes" `Quick test_access_rate_extremes;
    Alcotest.test_case "replications" `Quick test_replicate;
    Alcotest.test_case "replication validation" `Quick test_replicate_validation;
    Alcotest.test_case "progress at any jobs" `Quick test_progress_any_jobs;
    Alcotest.test_case "driver calls match a direct replay" `Quick
      test_driver_calls_match_replay;
  ]
