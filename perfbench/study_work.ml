(* The study workload: [Study.run] at the paper's parameters (8
   configurations x 6 policies over 400,360 simulated days), the path
   that regenerates Tables 2 and 3.  The seed picks the failure history. *)

module Study = Dynvote_sim.Study
module Config = Dynvote_sim.Config
module Event_gen = Dynvote_failures.Event_gen
module Site_spec = Dynvote_failures.Site_spec
module Topology = Dynvote_net.Topology
module Connectivity = Dynvote_net.Connectivity
module Pool = Dynvote_exec.Pool
module Clock = Dynvote_obs.Clock
open Perfbench

let parameters seed = { Study.default_parameters with Study.seed }
let topology = Topology.ucsd
let configs = Config.ucsd_configurations
let cells = List.length configs * List.length Policy.all_kinds

(* Every figure of a cell, floats by their bits, so equality is
   bit-identity. *)
let cell_bits (config, kind, (i : Dynvote_stats.Batch_means.interval), u, mean_outage, outages, up, obs) =
  let b = Int64.bits_of_float in
  ( Config.label config, Policy.kind_name kind,
    List.map b [ i.mean; i.half_width; i.lower; i.upper; u; mean_outage; up; obs ],
    (i.batches, outages) )

let bits_of_results =
  List.map (fun (r : Study.result) ->
      cell_bits
        (r.config, r.kind, r.interval, r.unavailability, r.mean_outage_days, r.outages,
         r.longest_up_days, r.observed_days))

let sane =
  List.for_all (fun (r : Study.result) -> r.unavailability >= 0.0 && r.unavailability <= 1.0)

(* The policy drivers [Study.run] builds for its cells, in its order. *)
let drivers () =
  let n_sites = Topology.n_sites topology in
  let segment_of = Topology.segment_of topology in
  let ordering = Ordering.default n_sites in
  List.concat_map
    (fun config ->
      List.map
        (fun kind ->
          ( (config, kind),
            Driver.of_policy
              (Policy.create kind ~universe:(Config.copies config) ~n_sites ~segment_of ~ordering) ))
        Policy.all_kinds)
    configs

(* One set-up: the cells' policy drivers, a domain pool of the run's
   width, and a warm-up study over a hundredth of the horizon.  Alone,
   drivers and pool take a fraction of a millisecond, which the
   machine's scheduling noise swamps. *)
let setup ~jobs ~seed =
  let t0 = Clock.now () in
  ignore (Sys.opaque_identity (drivers ()));
  Pool.shutdown (Pool.create ~jobs ());
  let p = parameters seed in
  let horizon = p.Study.warmup +. ((p.Study.horizon -. p.Study.warmup) /. 100.0) in
  ignore (Study.run ~parameters:{ p with Study.horizon } ~jobs ());
  Clock.now () -. t0

(* Failure-trace transitions inside the horizon, with the time spent in
   [Event_gen.next] and in [Connectivity.view] on each. *)
let replay_trace ~seed =
  let p = parameters seed in
  let gen = Event_gen.create ~seed:p.Study.seed Site_spec.ucsd_sites in
  let conn = Connectivity.create topology in
  let up = ref (Topology.all_sites topology) in
  let n = ref 0 and next_s = ref 0.0 and view_s = ref 0.0 in
  let rec go () =
    let t0 = Clock.now () in
    let tr = Event_gen.next gen in
    let t1 = Clock.now () in
    next_s := !next_s +. (t1 -. t0);
    if tr.Event_gen.time < p.Study.horizon then begin
      incr n;
      up :=
        (if tr.Event_gen.now_up then Site_set.add else Site_set.remove) tr.Event_gen.site !up;
      let t2 = Clock.now () in
      ignore (Sys.opaque_identity (Connectivity.view conn ~up:!up));
      view_s := !view_s +. (Clock.now () -. t2);
      go ()
    end
  in
  go ();
  (!n, !next_s, !view_s)

let run ~jobs ~seed = Study.run ~parameters:(parameters seed) ~jobs ()

let end_to_end ctx =
  let jobs = ctx.Outcome.jobs and seed = ctx.Outcome.seed in
  let setup_s = Stats.median (Array.init 11 (fun _ -> setup ~jobs ~seed)) in
  let transitions, _, _ = replay_trace ~seed in
  (* The -j1 reference also warms the heap before timing. *)
  let reference = bits_of_results (run ~jobs:1 ~seed) in
  Procfs.reset_peak ();
  let t_end = Clock.now () +. ctx.Outcome.seconds in
  let rec go acc =
    let r, wall, _ = Procfs.timed (fun () -> run ~jobs ~seed) in
    let acc = (r, wall) :: acc in
    if Clock.now () < t_end then go acc else List.rev acc
  in
  let runs = go [] in
  let peak_rss_mb = Procfs.peak_rss_mb () in
  let ok r = sane r && bits_of_results r = reference in
  let walls = Array.of_list (List.map snd runs) in
  let study = Stats.median walls and tail = Stats.tail walls in
  { Outcome.checks =
      [ ("cells_in_range", List.for_all (fun (r, _) -> sane r) runs);
        ("jN_cells_equal_j1", List.for_all (fun (r, _) -> bits_of_results r = reference) runs) ];
    attempted = List.length runs;
    failed = List.length (List.filter (fun (r, _) -> not (ok r)) runs);
    metrics =
      [ ("setup_s", setup_s);
        ("peak_rss_mb", peak_rss_mb);
        ("goodput_ops_s",
          Option.bind study (Stats.ratio (float_of_int (transitions * cells))));
        ("latency_p50_ms", Option.map (fun v -> v *. 1e3) study);
        ("latency_tail_ms", Option.map (fun t -> t.Stats.value *. 1e3) tail) ];
    notes =
      [ ("studies", Json.Int (List.length runs));
        ("walls_s", Json.List (List.map (fun (_, w) -> Json.Float w) runs)); ("transitions", Json.Int transitions);
        ("cells", Json.Int cells);
        ("tail_percentile", Json.String (match tail with Some t -> Stats.tail_label t | None -> "none")) ] }

let per_layer ctx =
  let jobs = ctx.Outcome.jobs and seed = ctx.Outcome.seed and spans = ctx.Outcome.spans in
  let traced ~jobs =
    let id = Printf.sprintf "study-j%d" jobs in
    Span.time spans ~track:0 ~id "study.run" (fun () -> Procfs.timed (fun () -> run ~jobs ~seed))
  in
  let words0 = Gc.minor_words () and sys0 = Procfs.syscalls () and sw0 = Procfs.ctx_switches () in
  let r1, wall1, (u1, s1) = traced ~jobs:1 in
  let words1 = Gc.minor_words () and sys1 = Procfs.syscalls () and sw1 = Procfs.ctx_switches () in
  let rn, walln, (un, sn) = traced ~jobs in
  (* The -j1 study again with every driver closure timed. *)
  let calls = ref 0 and secs = ref 0.0 in
  let time f x =
    let t0 = Clock.now () in
    let r = f x in
    secs := !secs +. (Clock.now () -. t0);
    incr calls;
    r
  in
  let wrap (d : Driver.t) =
    { d with
      Driver.on_topology_change = time d.Driver.on_topology_change;
      on_repair = (fun v s -> time (d.Driver.on_repair v) s);
      on_access = time d.Driver.on_access;
      available = time d.Driver.available }
  in
  let wrapped, wall_wrapped, _ =
    Span.time spans ~track:0 ~id:"study-drivers" "study.run_drivers" (fun () ->
        Procfs.timed (fun () ->
            Study.run_drivers ~parameters:(parameters seed)
              ~drivers:(List.map (fun (k, d) -> (k, wrap d)) (drivers ()))
              ()))
  in
  let transitions, next_s, view_s =
    Span.time spans ~track:0 ~id:"trace-replay" "event_gen.replay" (fun () -> replay_trace ~seed)
  in
  let cost = Procfs.clock_cost () in
  let wrapped_bits =
    List.map
      (fun ((config, kind), (s : Study.summary)) ->
        cell_bits
          (config, kind, s.interval, s.unavailability, s.mean_outage_days, s.outages,
           s.longest_up_days, s.observed_days))
      wrapped
  in
  let reference = bits_of_results r1 in
  let failed = List.length (List.filter (fun r -> not (sane r && bits_of_results r = reference)) [ r1; rn ]) in
  let ops = transitions * cells in
  let diff x y = match (x, y) with Some x, Some y -> Stats.per_op (x - y) ~ops | _ -> None in
  let ns total count = Option.map (fun s -> Float.max 0.0 s *. 1e9)
      (Stats.ratio (total -. (float_of_int count *. cost)) (float_of_int count)) in
  { Outcome.checks =
      [ ("cells_in_range", sane r1 && sane rn);
        ("jN_cells_equal_j1", bits_of_results rn = reference);
        ("wrapped_drivers_equal_j1", wrapped_bits = reference) ];
    attempted = 2;
    failed;
    metrics =
      [ ("failed_share", Stats.failed_share ~attempted:2 ~failed);
        ("trace_overhead_pct", Option.map (fun r -> (r -. 1.0) *. 100.0) (Stats.ratio wall_wrapped wall1));
        ("failures.transitions", Some (float_of_int transitions));
        ("failures.next_ns", ns next_s (transitions + 1));
        ("connectivity.view_ns", ns view_s transitions);
        ("driver.call_ns", ns !secs !calls);
        ("study.transitions_per_s",
          Stats.ratio (float_of_int (transitions * List.length configs)) walln);
        ("exec.parallel_speedup", Stats.ratio wall1 walln);
        ("exec.cpu_inflation", Stats.ratio (un +. sn) (u1 +. s1));
        ("exec.cpu_per_wall", Stats.ratio (un +. sn) walln);
        ("proc.user_ms_per_op", Stats.ratio (1e3 *. u1) (float_of_int ops));
        ("proc.sys_ms_per_op", Stats.ratio (1e3 *. s1) (float_of_int ops));
        ("proc.syscalls_per_op", diff sys1 sys0);
        ("proc.ctx_switches_per_op", diff sw1 sw0);
        ("gc.minor_words_per_op", Stats.ratio (words1 -. words0) (float_of_int ops)) ];
    notes =
      [ ("j1_s", Json.Float wall1); ("jN_s", Json.Float walln);
        ("drivers_wrapped_s", Json.Float wall_wrapped); ("driver_calls", Json.Int !calls);
        ("transitions", Json.Int transitions); ("cells", Json.Int cells) ] }
