(* Command-line front-end: regenerate the paper's tables, inspect the
   topology, trace scenarios, sweep parameters. *)

module Policy = Dynvote.Policy
module Site_set = Dynvote.Site_set
module Ordering = Dynvote.Ordering
module Decision = Dynvote.Decision
module Topology = Dynvote_net.Topology
module Config = Dynvote_sim.Config
module Study = Dynvote_sim.Study
module Table = Dynvote_sim.Table
module Site_spec = Dynvote_failures.Site_spec
module Event_gen = Dynvote_failures.Event_gen
module Timeline = Dynvote_sim.Timeline
module Text_table = Dynvote_report.Text_table
module Csv = Dynvote_report.Csv
module Voting_model = Dynvote_analytic.Voting_model
module Kofn = Dynvote_analytic.Kofn
module Harness = Dynvote_chaos.Harness
module Pool = Dynvote_exec.Pool

open Cmdliner

(* Shared options. *)

let seed =
  let doc = "Random seed for the failure trace." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let horizon =
  let doc = "Total simulated days (including the 360-day warm-up)." in
  Arg.(value & opt float 400_360.0 & info [ "horizon" ] ~docv:"DAYS" ~doc)

let batches =
  let doc = "Number of batches for the batch-means confidence intervals." in
  Arg.(value & opt int 20 & info [ "batches" ] ~docv:"N" ~doc)

let access_interval =
  let doc = "Days between file accesses for the optimistic policies." in
  Arg.(value & opt float 1.0 & info [ "access-interval" ] ~docv:"DAYS" ~doc)

let quiet =
  let doc = "Suppress progress output." in
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the compute-bound paths (per-configuration study \
     fan-out, model-checker root shards).  0 means the DYNVOTE_JOBS \
     environment variable, falling back to the hardware's recommended \
     domain count.  Results are independent of $(docv)."
  in
  Arg.(value & opt int 0 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let resolve_jobs n = if n > 0 then min n Pool.max_jobs else Pool.default_jobs ()

let parameters seed horizon batches access_interval =
  { Study.default_parameters with seed; horizon; batches; access_interval }

let progress quiet =
  if quiet then None
  else
    Some
      (fun ~completed ~total ->
        Printf.eprintf "\rsimulated %.0f / %.0f days (%.0f%%)%!" completed total
          (100.0 *. completed /. total);
        if completed >= total then prerr_newline ())

let run_study ~params ~quiet ~jobs ?kinds ?configs () =
  let results =
    Study.run ~parameters:params ?kinds ?configs ?progress:(progress quiet)
      ~jobs:(resolve_jobs jobs) ()
  in
  if not quiet then prerr_newline ();
  results

(* Subcommand: table1. *)

let table1_cmd =
  let run () =
    Text_table.print (Table.table1 Site_spec.ucsd_sites);
    print_endline "Note: sites 1, 3 and 5 are down 3 hours every 90 days for maintenance."
  in
  Cmd.v (Cmd.info "table1" ~doc:"Print the site characteristics (paper Table 1).")
    Term.(const run $ const ())

(* Subcommand: topology. *)

let topology_cmd =
  let run () =
    Fmt.pr "%a@." Topology.pp_ascii Topology.ucsd;
    Fmt.pr "@.%a@." Topology.pp Topology.ucsd
  in
  Cmd.v (Cmd.info "topology" ~doc:"Show the Figure 8 network.") Term.(const run $ const ())

(* Subcommands: table2 / table3. *)

let make_tables_cmd name doc which =
  let run seed horizon batches access_interval quiet jobs compare csv =
    let params = parameters seed horizon batches access_interval in
    let results = run_study ~params ~quiet ~jobs () in
    (match which with
    | `Two -> Text_table.print (Table.table2 results)
    | `Three -> Text_table.print (Table.table3 results));
    if compare then begin
      print_endline "\nPaper vs measured:";
      let kind =
        match which with `Two -> Table.Unavailability | `Three -> Table.Outage_duration
      in
      Text_table.print (Table.comparison kind results)
    end;
    match csv with
    | None -> ()
    | Some path ->
        let rows =
          List.map
            (fun r ->
              [ Config.label r.Study.config;
                Policy.kind_name r.Study.kind;
                Printf.sprintf "%.8f" r.Study.unavailability;
                Printf.sprintf "%.8f" r.Study.interval.Dynvote_stats.Batch_means.half_width;
                Printf.sprintf "%.6f" r.Study.mean_outage_days;
                string_of_int r.Study.outages;
                Printf.sprintf "%.2f" r.Study.longest_up_days ])
            results
        in
        Csv.write ~path
          ~header:
            [ "config"; "policy"; "unavailability"; "ci95_half_width";
              "mean_outage_days"; "outages"; "longest_up_days" ]
          rows;
        Printf.eprintf "wrote %s\n" path
  in
  let compare =
    Arg.(value & flag & info [ "compare" ] ~doc:"Also print paper-vs-measured ratios.")
  in
  let csv =
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE"
           ~doc:"Also write the full results as CSV.")
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const run $ seed $ horizon $ batches $ access_interval $ quiet $ jobs_arg
      $ compare $ csv)

let table2_cmd =
  make_tables_cmd "table2" "Reproduce the unavailability study (paper Table 2)." `Two

let table3_cmd =
  make_tables_cmd "table3" "Reproduce the outage-duration study (paper Table 3)." `Three

(* Subcommand: simulate (one configuration, chosen policies, full detail). *)

let simulate_cmd =
  let config_arg =
    let doc = "Configuration label (A-H)." in
    Arg.(value & opt string "A" & info [ "config" ] ~docv:"LABEL" ~doc)
  in
  let kinds_arg =
    let doc = "Comma-separated policies (MCV,DV,LDV,ODV,TDV,OTDV)." in
    Arg.(value & opt string "MCV,DV,LDV,ODV,TDV,OTDV" & info [ "policies" ] ~docv:"LIST" ~doc)
  in
  let run seed horizon batches access_interval quiet jobs config_label kinds_text =
    let params = parameters seed horizon batches access_interval in
    let config =
      match Config.find config_label with
      | Some c -> c
      | None -> Fmt.failwith "unknown configuration %S (expected A-H)" config_label
    in
    let kinds =
      String.split_on_char ',' kinds_text
      |> List.map (fun name ->
             match Policy.kind_of_string (String.trim name) with
             | Some k -> k
             | None -> Fmt.failwith "unknown policy %S" name)
    in
    let results = run_study ~params ~quiet ~jobs ~kinds ~configs:[ config ] () in
    Text_table.print (Table.intervals results)
  in
  Cmd.v (Cmd.info "simulate" ~doc:"Simulate one configuration in detail.")
    Term.(
      const run $ seed $ horizon $ batches $ access_interval $ quiet $ jobs_arg
      $ config_arg $ kinds_arg)

(* Subcommand: sweep (access-rate ablation). *)

let sweep_cmd =
  let config_arg =
    let doc = "Configuration label (A-H)." in
    Arg.(value & opt string "F" & info [ "config" ] ~docv:"LABEL" ~doc)
  in
  let run seed horizon batches quiet jobs config_label =
    let params = { Study.default_parameters with seed; horizon; batches } in
    let table =
      Text_table.create
        ~aligns:[ Text_table.Right; Text_table.Right; Text_table.Right; Text_table.Right ]
        ~header:[ "Accesses/day"; "ODV"; "OTDV"; "LDV (ref)" ] ()
    in
    let sweep_data =
      Study.sweep_access_rate ~parameters:params ~config_label
        ~jobs:(resolve_jobs jobs) ()
    in
    List.iter
      (fun (rate, results) ->
        let cell kind =
          match List.find_opt (fun r -> r.Study.kind = kind) results with
          | Some r -> Text_table.cell_float r.Study.unavailability
          | None -> ""
        in
        Text_table.add_row table
          [ Printf.sprintf "%g" rate; cell Policy.Odv; cell Policy.Otdv; cell Policy.Ldv ])
      sweep_data;
    ignore quiet;
    Text_table.print table;
    (* The same data as a curve (log-log view of the optimism effect). *)
    let series kind label =
      {
        Dynvote_report.Ascii_plot.label;
        points =
          List.filter_map
            (fun (rate, results) ->
              List.find_opt (fun r -> r.Study.kind = kind) results
              |> Option.map (fun r -> (rate, Float.max r.Study.unavailability 1e-7)))
            sweep_data;
      }
    in
    Fmt.pr "@.Unavailability vs access rate (log y):@.";
    Dynvote_report.Ascii_plot.print ~scale:Dynvote_report.Ascii_plot.Log10
      [ series Policy.Odv "ODV"; series Policy.Ldv "LDV" ]
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Sweep the access rate for the optimistic policies (ablation).")
    Term.(const run $ seed $ horizon $ batches $ quiet $ jobs_arg $ config_arg)

(* Subcommand: partitions. *)

let partitions_cmd =
  let config_arg =
    Arg.(value & opt string "C" & info [ "config" ] ~docv:"LABEL" ~doc:"Configuration label (A-H).")
  in
  let run config_label =
    let config =
      match Config.find config_label with
      | Some c -> c
      | None -> Fmt.failwith "unknown configuration %S (expected A-H)" config_label
    in
    let names = Topology.site_names Topology.ucsd in
    let copies = Config.copies config in
    Fmt.pr "Configuration %a@.@." Config.pp config;
    Fmt.pr "Partition points (gateways whose lone failure splits the copies): %a@.@."
      (Site_set.pp_names names)
      (Dynvote_net.Partition_enum.partition_points Topology.ucsd ~among:copies);
    Fmt.pr "All partitions achievable through gateway failures:@.";
    List.iter
      (fun groups ->
        Fmt.pr "  %s@."
          (String.concat " | "
             (List.map (fun g -> Fmt.str "%a" (Site_set.pp_names names) g) groups)))
      (Dynvote_net.Partition_enum.gateway_partitions Topology.ucsd ~among:copies)
  in
  Cmd.v
    (Cmd.info "partitions"
       ~doc:"Enumerate the partitions a configuration's copies can suffer.")
    Term.(const run $ config_arg)

(* Subcommand: timeline. *)

let timeline_cmd =
  let config_arg =
    Arg.(value & opt string "F" & info [ "config" ] ~docv:"LABEL" ~doc:"Configuration label (A-H).")
  in
  let start_arg =
    Arg.(value & opt float 360.0 & info [ "start" ] ~docv:"DAY" ~doc:"Window start (days).")
  in
  let days_arg =
    Arg.(value & opt float 1500.0 & info [ "days" ] ~docv:"N" ~doc:"Window length (days).")
  in
  let columns_arg =
    Arg.(value & opt int 72 & info [ "columns" ] ~docv:"N" ~doc:"Strip width in cells.")
  in
  let run seed config_label start days columns =
    let config =
      match Config.find config_label with
      | Some c -> c
      | None -> Fmt.failwith "unknown configuration %S (expected A-H)" config_label
    in
    let parameters = { Study.default_parameters with seed } in
    let timeline = Timeline.collect ~parameters ~config ~start ~duration:days () in
    Fmt.pr "Configuration %a@.@." Config.pp config;
    Fmt.pr "%a" (Timeline.pp ~columns) timeline
  in
  Cmd.v
    (Cmd.info "timeline"
       ~doc:"Render each policy's availability over a window of the failure trace.")
    Term.(const run $ seed $ config_arg $ start_arg $ days_arg $ columns_arg)

(* Subcommand: trace. *)

let trace_cmd =
  let days_arg =
    Arg.(value & opt float 120.0 & info [ "days" ] ~docv:"N" ~doc:"How many days to print.")
  in
  let run seed days =
    let generator = Event_gen.create ~seed Site_spec.ucsd_sites in
    let names = Topology.site_names Topology.ucsd in
    let rec loop () =
      let tr = Event_gen.next generator in
      if tr.Event_gen.time < days then begin
        Fmt.pr "%10.4f  %-8s %-4s %a@." tr.Event_gen.time
          names.(tr.Event_gen.site)
          (if tr.Event_gen.now_up then "UP" else "DOWN")
          Event_gen.pp_cause tr.Event_gen.cause;
        loop ()
      end
    in
    loop ()
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Print the site failure/repair/maintenance event stream.")
    Term.(const run $ seed $ days_arg)

(* Subcommand: reliability (exact CTMC analysis, no simulation). *)

let reliability_cmd =
  let copies_arg =
    Arg.(value & opt int 3 & info [ "copies" ] ~docv:"N" ~doc:"Number of identical copies (<= 10).")
  in
  let mttf_arg =
    Arg.(value & opt float 10.0 & info [ "mttf" ] ~docv:"DAYS" ~doc:"Per-site mean time to fail.")
  in
  let mttr_arg =
    Arg.(value & opt float 1.0 & info [ "mttr" ] ~docv:"DAYS" ~doc:"Per-site mean repair time.")
  in
  let run copies mttf mttr =
    if copies < 1 || copies > 10 then Fmt.failwith "copies must be within 1..10";
    let fail_rate = Array.make copies (1.0 /. mttf) in
    let repair_rate = Array.make copies (1.0 /. mttr) in
    let ordering = Ordering.default copies in
    let table =
      Text_table.create
        ~aligns:[ Text_table.Left; Text_table.Right; Text_table.Right; Text_table.Right;
                  Text_table.Right; Text_table.Right; Text_table.Right ]
        ~header:
          [ "Policy"; "Unavail"; "Mean up (d)"; "Mean down (d)"; "MTTF (d)"; "R(30d)";
            "R(365d)" ]
        ()
    in
    let add ?access_rate name flavor =
      let p =
        Voting_model.period_statistics ~flavor ?access_rate ~fail_rate ~repair_rate
          ~ordering ()
      in
      let mttf_file =
        Voting_model.mean_time_to_unavailability ~flavor ?access_rate ~fail_rate
          ~repair_rate ~ordering ()
      in
      let r t =
        Voting_model.survival ~flavor ?access_rate ~fail_rate ~repair_rate ~ordering ~t ()
      in
      Text_table.add_row table
        [ name;
          Text_table.cell_float (1.0 -. p.Voting_model.availability);
          Printf.sprintf "%.2f" p.Voting_model.mean_up_days;
          Printf.sprintf "%.4f" p.Voting_model.mean_down_days;
          Printf.sprintf "%.1f" mttf_file;
          Printf.sprintf "%.4f" (r 30.0);
          Printf.sprintf "%.4f" (r 365.0) ]
    in
    add "DV" Decision.dv_flavor;
    add "LDV" Decision.ldv_flavor;
    add "TDV (paper)" Decision.tdv_flavor;
    add "TDV (safe)" Decision.tdv_safe_flavor;
    add ~access_rate:1.0 "ODV (Poisson 1/day)" Decision.ldv_flavor;
    add ~access_rate:1.0 "OTDV (Poisson 1/day)" Decision.tdv_flavor;
    Fmt.pr "Exact Markov analysis: %d identical copies on one segment,@." copies;
    Fmt.pr "MTTF %g days, exponential repair of mean %g days.@.@." mttf mttr;
    Text_table.print table;
    (* Closed-form cross-check for static majority voting. *)
    let a = mttf /. (mttf +. mttr) in
    Fmt.pr "@.(static MCV closed form: unavailability %.6f)@."
      (1.0 -. Kofn.mcv_lexicographic_availability (Array.make copies a) ~ordering)
  in
  Cmd.v
    (Cmd.info "reliability"
       ~doc:"Exact Markov analysis of availability and reliability (no simulation).")
    Term.(const run $ copies_arg $ mttf_arg $ mttr_arg)

(* Subcommand: chaos (adversarial fault injection + safety oracle). *)

let chaos_cmd =
  let schedules_arg =
    Arg.(value & opt int 1000
         & info [ "schedules" ] ~docv:"K" ~doc:"Randomized fault schedules per policy.")
  in
  let policy_arg =
    let doc =
      "Policy to attack (dv, ldv, odv, tdv, otdv, tdv-safe, otdv-safe, or 'all'). \
       MCV is stateless at the message level and is not driven by the chaos engine."
    in
    Arg.(value & opt string "all" & info [ "policy" ] ~docv:"P" ~doc)
  in
  let unsafe_commits_arg =
    Arg.(value & flag
         & info [ "unsafe-commits" ]
             ~doc:"Drop the paper's atomic-update assumption: expose COMMIT messages \
                   to faults and strike coordinators mid-commit.  The oracle then \
                   reports the resulting divergences for every policy.")
  in
  let run seed schedules policy_text unsafe_commits verbose =
    let policies =
      if String.lowercase_ascii policy_text = "all" then Harness.policies
      else
        match Harness.policy_of_string policy_text with
        | Some p -> [ p ]
        | None ->
            Fmt.epr "dynvote: unknown policy %S (try --policy all)@." policy_text;
            exit 2
    in
    let exit_code = ref 0 in
    List.iter
      (fun (p : Harness.policy) ->
        let p = if unsafe_commits then { p with Harness.expect_safe = false } else p in
        let config =
          let c = Harness.default_config ~flavor:p.Harness.flavor () in
          if unsafe_commits then
            { c with Harness.crash_point = `Mid_commit; expose_commits = true }
          else c
        in
        let summary =
          Harness.run_many ~config ~policy:p ~seed:(Int64.of_int seed) ~schedules ()
        in
        Fmt.pr "%a@." Harness.pp_summary summary;
        if verbose && summary.Harness.failures > 0 then
          Fmt.pr "@[<v>%a@]@." Harness.pp_failure summary;
        if not (Harness.verdict_ok summary) then exit_code := 1)
      policies;
    if !exit_code <> 0 then exit !exit_code
  in
  let verbose =
    Arg.(value & flag
         & info [ "verbose" ] ~doc:"Print the first failing schedule and its violations.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Attack the message-level protocols with seeded fault schedules (loss, \
          duplication, delay, link flaps, crashes, torn stable records) and check the \
          safety oracle.  Deterministic for a fixed seed; exits non-zero if a policy \
          expected to be safe shows a violation.")
    Term.(const run $ seed $ schedules_arg $ policy_arg $ unsafe_commits_arg $ verbose)

(* Subcommand: mc (bounded model checking of the message protocols). *)

let mc_cmd =
  let module Checker = Dynvote_mc.Checker in
  let module Space = Dynvote_mc.Space in
  let module Report = Dynvote_mc.Report in
  let policy_arg =
    let doc =
      "Policy to check (dv, ldv, odv, tdv, otdv, tdv-safe, otdv-safe, or 'all' \
       for the distinct decision flavors: dv, odv, tdv, tdv-safe)."
    in
    Arg.(value & opt string "all" & info [ "policy" ] ~docv:"P" ~doc)
  in
  let sites_arg =
    Arg.(value & opt int 4
         & info [ "sites" ] ~docv:"N"
             ~doc:"Number of copies.  The default 4 reproduces the paper's §3 \
                   four-copy example (segments 0,0,1,2).")
  in
  let segments_arg =
    Arg.(value & opt (some string) None
         & info [ "segments" ] ~docv:"S0,S1,..."
             ~doc:"Comma-separated segment id per site.  Defaults to the §3 \
                   example for 4 sites, two sites per segment otherwise.")
  in
  let depth_arg =
    Arg.(value & opt int 8
         & info [ "depth" ] ~docv:"D" ~doc:"Iterative-deepening search bound.")
  in
  let max_states_arg =
    Arg.(value & opt int 1_000_000
         & info [ "max-states" ] ~docv:"K" ~doc:"Seen-state table budget.")
  in
  let symmetry_arg =
    let parse = Arg.enum [ ("auto", None); ("on", Some true); ("off", Some false) ] in
    Arg.(value & opt parse None
         & info [ "symmetry" ] ~docv:"auto|on|off"
             ~doc:"Within-segment site-relabeling reduction.  'auto' (default) \
                   enables it exactly for flavors without the lexicographic \
                   tie-break, where relabeling is a sound symmetry.")
  in
  let full_arg =
    Arg.(value & flag
         & info [ "full" ]
             ~doc:"Use the full action alphabet: READ operations and zeroed-record \
                   restarts in addition to the default writes, crashes, clean \
                   restarts, recoveries and partitions.  Roughly doubles the \
                   branching factor; reachable depth drops accordingly.")
  in
  let por_arg =
    let parse = Arg.enum [ ("on", true); ("off", false) ] in
    Arg.(value & opt parse true
         & info [ "por" ] ~docv:"on|off"
             ~doc:"Partial-order reduction over commuting fault actions (default \
                   on).  Sound: verdicts, counterexample lengths and \
                   distinct-state counts are identical either way; only the \
                   transition count changes.")
  in
  let steal_arg =
    let parse = Arg.enum [ ("on", true); ("off", false) ] in
    Arg.(value & opt parse true
         & info [ "steal" ] ~docv:"on|off"
             ~doc:"Work-stealing parallel frontier (default on; only matters \
                   with -j > 1).  'off' falls back to static root-alphabet \
                   sharding.  Verdicts, counterexample lengths and \
                   distinct-state counts are identical either way; only wall \
                   time and the traversal statistics move.")
  in
  let verbose_arg =
    Arg.(value & flag
         & info [ "verbose"; "v" ]
             ~doc:"Report each completed deepening iteration, and the \
                   work-stealing frontier's per-worker counters, on stderr.")
  in
  let run policy_text sites segments_text depth max_states symmetry por steal full
      verbose jobs =
    if sites < 2 || sites > 16 then begin
      Fmt.epr "dynvote: mc needs 2..16 sites@.";
      exit 2
    end;
    let policies =
      if String.lowercase_ascii policy_text = "all" then
        List.filter
          (fun (p : Harness.policy) ->
            List.mem p.Harness.name [ "dv"; "odv"; "tdv"; "tdv-safe" ])
          Harness.policies
      else
        match Harness.policy_of_string policy_text with
        | Some p -> [ p ]
        | None ->
            Fmt.epr "dynvote: unknown policy %S (try --policy all)@." policy_text;
            exit 2
    in
    let segment_of =
      match segments_text with
      | None -> if sites = 4 then Checker.paper_segment_of else fun site -> site / 2
      | Some text ->
          let segs =
            try List.map int_of_string (String.split_on_char ',' text)
            with Failure _ ->
              Fmt.epr "dynvote: --segments expects integers, e.g. 0,0,1,2@.";
              exit 2
          in
          if List.length segs <> sites then begin
            Fmt.epr "dynvote: --segments needs one id per site (%d)@." sites;
            exit 2
          end;
          let table = Array.of_list segs in
          fun site -> table.(site)
    in
    let universe = Site_set.universe sites in
    let config = Checker.make_config ~universe ~segment_of () in
    let space = if full then Space.full else Space.default in
    let segments_doc =
      String.concat ","
        (List.map (fun s -> string_of_int (segment_of s)) (Site_set.to_list universe))
    in
    Fmt.pr "mc: %d sites (segments %s), depth %d, max %d states%s@." sites
      segments_doc depth max_states
      (if full then ", full alphabet" else "");
    let progress =
      if verbose then
        Some
          (fun ~depth ~distinct ~transitions ->
            Fmt.epr "  depth %d: %d states, %d transitions@." depth distinct
              transitions)
      else None
    in
    let exit_code = ref 0 in
    List.iter
      (fun (p : Harness.policy) ->
        let t0 = Sys.time () in
        let report =
          Checker.check ~space ?symmetry ~por ~max_states ?progress ~steal
            ~jobs:(resolve_jobs jobs) ~policy:p ~depth config
        in
        let elapsed = Sys.time () -. t0 in
        Fmt.pr "@[<v>%a@,  %a@]@." Report.pp report Report.pp_expectation report;
        Fmt.epr "  (%s: %.1f s, %d transitions)@." p.Harness.name elapsed
          report.Checker.result.Dynvote_mc.Explorer.transitions;
        let workers = report.Checker.result.Dynvote_mc.Explorer.workers in
        if verbose && Array.length workers > 0 then
          Fmt.epr "%a" Report.pp_workers workers;
        if not (Checker.verdict_ok report) then exit_code := 1)
      policies;
    if !exit_code <> 0 then exit !exit_code
  in
  Cmd.v
    (Cmd.info "mc"
       ~doc:
         "Exhaustively check the message-level protocols by bounded explicit-state \
          search: iterative-deepening DFS over client operations, crashes, restarts \
          (clean or corrupted), recoveries and partitions, with the safety oracle \
          checked at every state.  Counterexamples are minimum-length Schedule \
          traces, re-validated by replay through the chaos harness.  Deterministic; \
          exits non-zero if a policy expected safe has a violation (or a replay \
          diverges).")
    Term.(const run $ policy_arg $ sites_arg $ segments_arg $ depth_arg
          $ max_states_arg $ symmetry_arg $ por_arg $ steal_arg $ full_arg
          $ verbose_arg $ jobs_arg)

(* Subcommands: serve / loadgen (the live socket-backed service). *)

module Live = Dynvote_live.Cluster
module Loadgen = Dynvote_live.Loadgen
module Live_node = Dynvote_live.Node
module Crash_matrix = Dynvote_live.Crash_matrix
module Oracle = Dynvote_chaos.Oracle
module Storage_fault = Dynvote_chaos.Fault_plan.Storage
module Faultfs = Dynvote_faultfs.Faultfs
module Obs_metrics = Dynvote_obs.Metrics
module Obs_trace = Dynvote_obs.Trace
module Obs_hub = Dynvote_obs.Hub

let live_sites =
  let doc = "Number of replica sites (one server thread each)." in
  Arg.(value & opt int 4 & info [ "sites" ] ~docv:"N" ~doc)

let live_policy =
  let doc = "Voting policy (dv, ldv, odv, tdv, otdv, tdv-safe, otdv-safe)." in
  Arg.(value & opt string "ldv" & info [ "policy" ] ~docv:"P" ~doc)

let live_buffered =
  let doc =
    "Skip the per-commit fsyncs (atomic replace only).  Faster, but a power cut \
     can lose the stable record the paper's protocol depends on."
  in
  Arg.(value & flag & info [ "buffered" ] ~doc)

let live_pipeline =
  let doc =
    "Client operations a coordinator admits concurrently, as \
     effect-suspended fibers behind a ticket turnstile.  1 (the default) \
     is the fully sequential coordinator."
  in
  Arg.(value & opt int 1 & info [ "pipeline" ] ~docv:"N" ~doc)

let live_max_reuse =
  let doc =
    "Operations that may join an anchored lock round and decide against \
     its cached gather before a fresh round is forced.  0 (the default) \
     disables anchoring: every operation runs its own lock round."
  in
  Arg.(value & opt int 0 & info [ "max-reuse" ] ~docv:"N" ~doc)

let live_shards =
  let doc =
    "Turn on the sharded object space: every key is an independently-voted \
     (o, v, P) object, persisted across $(docv) per-site append logs and \
     coordinated by group-quorum rounds that cover every key of a scheduler \
     burst in one wire exchange.  0 (the default) votes on the paper's \
     single replicated file: every key maps to one object."
  in
  Arg.(value & opt int 0 & info [ "shards" ] ~docv:"N" ~doc)

let live_resident =
  let doc =
    "Keys materialized in volatile memory at once (the shard map's LRU \
     capacity); only meaningful with --shards."
  in
  Arg.(value & opt int 4096 & info [ "resident" ] ~docv:"N" ~doc)

let live_flavor text =
  match Harness.policy_of_string text with
  | Some p -> p.Harness.flavor
  | None ->
      Fmt.epr "dynvote: unknown policy %S@." text;
      exit 2

(* Loopback tuning: the library default (0.2 s rounds) is patience for a
   real network; here every peer is micro-seconds away and snappy rounds
   keep lock contention cheap. *)
let live_config ?(pipeline = 1) ?(max_reuse = 0) ?(shards = 0) ?(resident = 4096)
    ~buffered () =
  {
    Live_node.default_config with
    Live_node.gather_timeout = 0.05;
    lock_backoff = 0.02;
    durable = not buffered;
    pipeline;
    max_reuse;
    shards;
    resident;
  }

let fresh_temp_dir () =
  let base = Filename.temp_file "dynvote-live" "" in
  Sys.remove base;
  Unix.mkdir base 0o700;
  base

let pp_audit ppf (audit : Live.audit) =
  let violations = Oracle.violations audit.Live.oracle in
  Fmt.pf ppf "audit: %d log records, %d commits, %d reads checked@,"
    audit.Live.records
    (Oracle.commits_seen audit.Live.oracle)
    (Oracle.reads_checked audit.Live.oracle);
  if not (Site_set.is_empty audit.Live.torn) then
    Fmt.pf ppf "torn log tails at sites %a (mid-append kill)@," Site_set.pp
      audit.Live.torn;
  if audit.Live.corrupt > 0 then
    Fmt.pf ppf "mid-log corrupt records: %d (damage no crash explains)@,"
      audit.Live.corrupt;
  if audit.Live.dup_applies > 0 then
    Fmt.pf ppf "requests applied more than once: %d (exactly-once violated)@,"
      audit.Live.dup_applies;
  if audit.Live.keys > 0 then
    Fmt.pf ppf "sharded object space: %d keys audited, each via its own oracle@,"
      audit.Live.keys;
  List.iter
    (fun (key, v) -> Fmt.pf ppf "key %S: %a@," key Oracle.pp_violation v)
    audit.Live.kviolations;
  match (violations, audit.Live.kviolations) with
  | [], [] ->
      if audit.Live.dup_applies = 0 then Fmt.pf ppf "audit: SAFE (0 violations)"
      else Fmt.pf ppf "audit: UNSAFE (duplicate applies)"
  | vs, kvs ->
      List.iter (fun v -> Fmt.pf ppf "%a@," Oracle.pp_violation v) vs;
      Fmt.pf ppf "audit: UNSAFE (%d violations)" (List.length vs + List.length kvs)

(* The serve console: one command per line, usable both from a script
   and interactively.  Groups are comma-separated sites split by '/'. *)

let parse_groups text =
  text
  |> String.split_on_char '/'
  |> List.map (fun g ->
         g
         |> String.split_on_char ','
         |> List.filter_map (fun s ->
                match String.trim s with "" -> None | s -> Some (int_of_string s))
         |> Site_set.of_list)

let pp_reply ppf (r : Live.reply) =
  match r.Live.status with
  | Dynvote_live.Wire.Granted -> (
      match r.Live.value with
      | Some v -> Fmt.pf ppf "granted %S" v
      | None ->
          if r.Live.info = "" then Fmt.string ppf "granted"
          else Fmt.pf ppf "granted (%s)" r.Live.info)
  | Dynvote_live.Wire.Denied -> Fmt.pf ppf "denied (%s)" r.Live.info
  | Dynvote_live.Wire.Aborted -> Fmt.pf ppf "aborted (%s)" r.Live.info
  | Dynvote_live.Wire.Degraded -> Fmt.pf ppf "degraded (%s)" r.Live.info

(* "SITE:FAULT[@nth][:file]", e.g. "0:fsync-lie:shard" — the part after
   the first colon is a Fault_plan.Storage trigger spec. *)
let parse_fault_spec text =
  match String.index_opt text ':' with
  | None -> Error "expected SITE:FAULT[@nth][:file], e.g. 0:fsync-lie:shard"
  | Some i -> (
      match int_of_string_opt (String.sub text 0 i) with
      | None -> Error (Printf.sprintf "bad site %S" (String.sub text 0 i))
      | Some site -> (
          let spec = String.sub text (i + 1) (String.length text - i - 1) in
          match Storage_fault.trigger_of_string spec with
          | Error reason -> Error reason
          | Ok trigger -> Ok (site, trigger)))

let serve_command cluster ~faultfs_of client line =
  let fail reason = Fmt.pr "error: %s@." reason in
  let dispatch () =
    match
      line |> String.split_on_char ' ' |> List.filter (fun s -> s <> "")
    with
    | [] -> `Ok
    | cmd :: _ when cmd.[0] = '#' -> `Ok
    | [ "put"; site; key; value ] ->
        Fmt.pr "%a@." pp_reply
          (Live.put client ~at:(int_of_string site) ~key ~value);
        `Ok
    | [ "get"; site; key ] ->
        Fmt.pr "%a@." pp_reply (Live.get client ~at:(int_of_string site) ~key);
        `Ok
    | [ "recover"; site ] ->
        Fmt.pr "%a@." pp_reply (Live.recover_site client (int_of_string site));
        `Ok
    | [ "partition"; groups ] -> (
        match Live.partition cluster (parse_groups groups) with
        | () -> Fmt.pr "partitioned %s@." groups
        | exception Invalid_argument reason -> fail reason);
        `Ok
    | [ "heal" ] ->
        Live.heal cluster;
        Fmt.pr "healed@.";
        `Ok
    | [ "kill"; site ] ->
        Live.kill cluster (int_of_string site);
        Fmt.pr "killed %s@." site;
        `Ok
    | [ "restart"; site ] ->
        Live.restart cluster (int_of_string site);
        Fmt.pr "restarted %s@." site;
        `Ok
    | [ "fault"; spec ] ->
        (match parse_fault_spec spec with
        | Error reason -> fail reason
        | Ok (site, trigger) ->
            if not (Site_set.mem site (Live.universe cluster)) then
              fail (Printf.sprintf "no such site %d" site)
            else if not (Site_set.mem site (Live.up_sites cluster)) then
              fail
                (Printf.sprintf "site %d is down — restart it before arming"
                   site)
            else begin
              (* Relative arming: "the next matching operation", however
                 many the site has already done. *)
              Faultfs.arm_next (faultfs_of site) trigger;
              Fmt.pr "armed %a at site %d@." Storage_fault.pp_trigger trigger
                site
            end);
        `Ok
    | [ "crash-sim"; site ] ->
        (* A power cut, not just a process kill: un-fsynced bytes and
           volatile renames are rolled back before any restart. *)
        let site_no = int_of_string site in
        if Site_set.mem site_no (Live.up_sites cluster) then
          fail (Printf.sprintf "site %d is up — kill it first" site_no)
        else begin
          Faultfs.simulate_crash (faultfs_of site_no);
          Fmt.pr "simulated power cut at site %s@." site
        end;
        `Ok
    | [ "degraded" ] ->
        Site_set.iter
          (fun site ->
            match Live.degraded cluster site with
            | Some reason -> Fmt.pr "site %d: degraded (%s)@." site reason
            | None -> ())
          (Live.up_sites cluster);
        Fmt.pr "up: %a@." Site_set.pp (Live.up_sites cluster);
        `Ok
    | [ "status" ] ->
        Fmt.pr "up: %a@." Site_set.pp (Live.up_sites cluster);
        `Ok
    | [ "check" ] ->
        Fmt.pr "@[<v>%a@]@." pp_audit (Live.check cluster);
        `Ok
    | [ "stats" ] ->
        let hub = Live.obs cluster in
        Fmt.pr "%a" Obs_metrics.pp_snapshot
          (Obs_metrics.snapshot hub.Obs_hub.metrics);
        let entries = Obs_trace.recent ~n:12 hub.Obs_hub.trace in
        Fmt.pr "trace: %d recorded, %d dropped, last %d:@."
          (Obs_trace.recorded hub.Obs_hub.trace)
          (Obs_trace.dropped hub.Obs_hub.trace)
          (List.length entries);
        List.iter (fun e -> Fmt.pr "  %a@." Obs_trace.pp_entry e) entries;
        `Ok
    | [ "sleep"; seconds ] ->
        Thread.delay (float_of_string seconds);
        `Ok
    | _ ->
        fail
          (Printf.sprintf
             "unknown command %S (put/get/recover/partition/heal/kill/restart/\
              fault/crash-sim/degraded/status/check/stats/sleep)"
             line);
        `Ok
  in
  (* A malformed operand (non-numeric site, bad sleep time) must not tear
     down the whole console: scripts keep going past a bad line. *)
  match dispatch () with
  | `Ok -> ()
  | exception Failure _ -> fail (Printf.sprintf "malformed command %S" line)
  | exception Invalid_argument reason ->
      fail (Printf.sprintf "%s (in %S)" reason line)

let serve_cmd =
  let dir_arg =
    let doc =
      "State directory (one subdirectory per site; reused across runs, so a \
       stopped cluster resumes from its stable records)."
    in
    Arg.(value & opt (some string) None & info [ "dir" ] ~docv:"DIR" ~doc)
  in
  let script_arg =
    let doc = "Run commands from $(docv) instead of stdin; lines are echoed." in
    Arg.(value & opt (some file) None & info [ "script" ] ~docv:"FILE" ~doc)
  in
  let fault_arg =
    let doc =
      "Arm a storage-fault trigger at boot: SITE:FAULT[@nth][:file], e.g. \
       0:fsync-lie:shard or 2:eio\\@2:oplog.  Repeatable.  Faults are eio, \
       enospc, short-write, fsync-fail, fsync-lie, rename-loss, read-eio, \
       crash; files are shard (the object logs) and oplog.  The console's \
       fault command arms more at runtime."
    in
    Arg.(value & opt_all string [] & info [ "fault" ] ~docv:"SPEC" ~doc)
  in
  let run sites policy_text buffered pipeline max_reuse shards resident seed dir
      script fault_specs =
    let dir = match dir with Some d -> d | None -> fresh_temp_dir () in
    let universe = Site_set.universe sites in
    (* Every site's storage runs through its own fault-injection
       filesystem (pass-through until a trigger is armed), so the
       console can arm faults or simulate power cuts at any moment. *)
    let instances = Hashtbl.create 8 in
    let faultfs_of site =
      match Hashtbl.find_opt instances site with
      | Some ff -> ff
      | None ->
          let ff = Faultfs.create ~seed:(seed + site) () in
          Hashtbl.add instances site ff;
          ff
    in
    let boot_triggers =
      List.map
        (fun spec ->
          match parse_fault_spec spec with
          | Ok st -> st
          | Error reason ->
              Fmt.epr "bad --fault %S: %s@." spec reason;
              exit 2)
        fault_specs
    in
    let cluster =
      Live.create ~flavor:(live_flavor policy_text)
        ~config:(live_config ~pipeline ~max_reuse ~shards ~resident ~buffered ())
        ~vfs_of:(fun site -> Faultfs.vfs (faultfs_of site))
        ~universe ~dir ()
    in
    (* Arm after boot: triggers mean "the nth matching operation of the
       workload", not of the boot sequence. *)
    List.iter
      (fun (site, trigger) -> Faultfs.arm_next (faultfs_of site) trigger)
      boot_triggers;
    Fmt.pr "serving %d sites from %s (port %d)@." sites dir (Live.port cluster);
    let client = Live.client cluster in
    (match script with
    | Some path ->
        let ic = open_in path in
        (try
           while true do
             let line = input_line ic in
             if String.trim line <> "" then Fmt.pr "> %s@." (String.trim line);
             serve_command cluster ~faultfs_of client line
           done
         with End_of_file -> close_in ic)
    | None -> (
        try
          while true do
            Fmt.epr "dynvote> %!";
            serve_command cluster ~faultfs_of client (input_line stdin)
          done
        with End_of_file -> ()));
    Live.shutdown cluster;
    Fmt.pr "stopped@."
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run a live replicated KV cluster: one server thread per site behind \
          real sockets, a console for client operations (put/get/recover), \
          fault injection (partition/heal/kill/restart, plus storage faults \
          via --fault and the fault/crash-sim commands), and an on-demand \
          safety audit that replays every node's on-disk operation log \
          through the oracle.")
    Term.(const run $ live_sites $ live_policy $ live_buffered $ live_pipeline
          $ live_max_reuse $ live_shards $ live_resident $ seed $ dir_arg
          $ script_arg $ fault_arg)

let loadgen_cmd =
  let clients_arg =
    Arg.(value & opt int 4
         & info [ "clients" ] ~docv:"N" ~doc:"Concurrent client workers.")
  in
  let duration_arg =
    Arg.(value & opt float 5.0
         & info [ "duration" ] ~docv:"SECONDS" ~doc:"Length of the run.")
  in
  let write_ratio_arg =
    Arg.(value & opt float 0.3
         & info [ "write-ratio" ] ~docv:"R" ~doc:"Fraction of operations that are puts.")
  in
  let keys_arg =
    Arg.(value & opt (some int) None
         & info [ "keys" ] ~docv:"K" ~doc:"Key-space size (default 16).")
  in
  let zipf_arg =
    let doc =
      "Zipf key-popularity exponent: rank k is drawn with probability \
       proportional to 1/(k+1)^s.  Requires an explicit --keys (a skewed \
       draw over an unstated key space is almost never what you meant).  \
       Default: uniform."
    in
    Arg.(value & opt (some float) None & info [ "zipf" ] ~docv:"S" ~doc)
  in
  let value_bytes_arg =
    Arg.(value & opt int 64
         & info [ "value-bytes" ] ~docv:"B" ~doc:"Payload bytes per put.")
  in
  let rate_arg =
    let doc =
      "Open-loop target rate (ops/s, Poisson arrivals; latency measured from \
       the intended start).  Default: closed loop."
    in
    Arg.(value & opt (some float) None & info [ "rate" ] ~docv:"OPS" ~doc)
  in
  let no_check_arg =
    Arg.(value & flag
         & info [ "no-check" ] ~doc:"Skip the end-of-run safety audit.")
  in
  let retries_arg =
    let doc =
      "Retry an aborted or degraded-site call at up to $(docv) other sites, \
       under the same request number (exactly-once via the sites' dedup \
       tables)."
    in
    Arg.(value & opt int 0 & info [ "retries" ] ~docv:"N" ~doc)
  in
  let mux_arg =
    let doc =
      "Multiplex every client onto one thread through a readiness loop of \
       nonblocking connections (closed loop only, no cross-site retries).  \
       Thousands of clients are thousands of descriptors, not threads."
    in
    Arg.(value & flag & info [ "mux" ] ~doc)
  in
  let site_arg =
    let doc =
      "Coordinate every call at site $(docv) (default: spread uniformly \
       over all sites).  A single coordinator is where lock anchoring and \
       pipelining pay off — rival coordinators at other sites contend for \
       the same global locks."
    in
    Arg.(value & opt (some int) None & info [ "site" ] ~docv:"S" ~doc)
  in
  let net_stats_arg =
    Arg.(value & flag
         & info [ "net-stats" ]
             ~doc:
               "Also print the event-loop and pipelining counters (wakeups, \
                batch sizes, rounds in flight, anchor reuse).")
  in
  let run sites policy_text buffered pipeline max_reuse shards resident seed
      clients duration write_ratio keys zipf value_bytes rate retries mux site
      net_stats no_check =
    let zipf =
      match (zipf, keys) with
      | Some _, None ->
          Fmt.epr
            "dynvote: --zipf needs an explicit --keys (the skew is over the \
             key space; say how big it is)@.";
          exit 2
      | Some s, Some _ -> s
      | None, _ -> 0.0
    in
    let keys = Option.value ~default:16 keys in
    let dir = fresh_temp_dir () in
    let universe = Site_set.universe sites in
    let cluster =
      Live.create ~flavor:(live_flavor policy_text)
        ~config:(live_config ~pipeline ~max_reuse ~shards ~resident ~buffered ())
        ~universe ~dir ()
    in
    let target_sites =
      match site with
      | None -> None
      | Some s ->
          if not (Site_set.mem s universe) then begin
            Fmt.epr "dynvote: --site %d is not in the universe@." s;
            exit 2
          end;
          Some (Site_set.singleton s)
    in
    let config =
      { Loadgen.clients; duration; write_ratio; keys; zipf; value_bytes; rate;
        seed; sites = target_sites; retries;
        mode = (if mux then `Mux else `Threads) }
    in
    let result = Loadgen.run cluster config in
    Fmt.pr "%a@." Loadgen.pp_result result;
    (* The same latencies, read back from the hub's log-scaled registry
       histograms (bucketed, vs. the exact sorted-sample numbers above). *)
    let m = (Live.obs cluster).Obs_hub.metrics in
    let pp_q ppf (h, q) =
      let v = Obs_metrics.quantile h q in
      if Float.is_nan v then Fmt.string ppf "-"
      else Fmt.pf ppf "%.2f ms" (v *. 1e3)
    in
    List.iter
      (fun (label, name) ->
        let h = Obs_metrics.histogram m name in
        Fmt.pr "hist %-6s n=%d  p50 %a  p95 %a  p99 %a@." label
          (Obs_metrics.histogram_count h)
          pp_q (h, 0.50) pp_q (h, 0.95) pp_q (h, 0.99))
      [ ("reads", "loadgen.read.seconds"); ("writes", "loadgen.write.seconds") ];
    if net_stats then begin
      Fmt.pr "loop %s: %d wakeups@." (Live.backend cluster)
        (Obs_metrics.counter_value
           (Obs_metrics.counter m "net.loop.wakeups"));
      List.iter
        (fun (label, name) ->
          let h = Obs_metrics.histogram m name in
          Fmt.pr "hist %-16s n=%-7d mean %.2f  max %.0f@." label
            (Obs_metrics.histogram_count h)
            (Obs_metrics.histogram_mean h)
            (Obs_metrics.histogram_max h))
        [ ("batch.frames", "net.batch.frames");
          ("rounds.inflight", "live.rounds.inflight");
          ("commit.batch", "live.commit.batch") ];
      List.iter
        (fun name ->
          Fmt.pr "ctr  %-20s %d@." name
            (Obs_metrics.counter_value (Obs_metrics.counter m name)))
        [ "live.lock.rounds"; "live.gather.reused"; "live.commit.waves";
          "live.op.granted" ]
    end;
    let ok =
      no_check
      ||
      let audit = Live.check cluster in
      Fmt.pr "@[<v>%a@]@." pp_audit audit;
      Oracle.is_safe audit.Live.oracle
      && audit.Live.dup_applies = 0
      && audit.Live.kviolations = []
    in
    Live.shutdown cluster;
    if not ok then exit 1
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Boot a live cluster in a temporary directory and drive it with \
          concurrent client workers (closed loop, or open loop with --rate).  \
          Reports goodput with a batch-means 95% confidence interval, exact \
          latency percentiles (plus the registry's log-scaled histograms), \
          and the end-of-run safety audit.")
    Term.(const run $ live_sites $ live_policy $ live_buffered $ live_pipeline
          $ live_max_reuse $ live_shards $ live_resident $ seed $ clients_arg
          $ duration_arg $ write_ratio_arg $ keys_arg $ zipf_arg
          $ value_bytes_arg $ rate_arg $ retries_arg $ mux_arg $ site_arg
          $ net_stats_arg $ no_check_arg)

let stats_cmd =
  let json_arg =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit the snapshot as machine-readable JSON.")
  in
  let duration_arg =
    Arg.(value & opt float 1.0
         & info [ "duration" ] ~docv:"SECONDS" ~doc:"Length of the warm-up workload.")
  in
  let trace_arg =
    Arg.(value & opt int 12
         & info [ "trace" ] ~docv:"N" ~doc:"Trace events to dump (text mode).")
  in
  let run sites policy_text buffered shards resident seed duration json trace_n
      =
    let dir = fresh_temp_dir () in
    let universe = Site_set.universe sites in
    let cluster =
      Live.create ~flavor:(live_flavor policy_text)
        ~config:(live_config ~shards ~resident ~buffered ())
        ~universe ~dir ()
    in
    let config = { Loadgen.default with Loadgen.clients = 2; duration; seed } in
    ignore (Loadgen.run cluster config : Loadgen.result);
    let hub = Live.obs cluster in
    let snap = Obs_metrics.snapshot hub.Obs_hub.metrics in
    let entries = Obs_trace.recent ~n:trace_n hub.Obs_hub.trace in
    let recorded = Obs_trace.recorded hub.Obs_hub.trace in
    let dropped = Obs_trace.dropped hub.Obs_hub.trace in
    Live.shutdown cluster;
    if json then print_endline (Obs_metrics.snapshot_to_json snap)
    else begin
      Fmt.pr "%a" Obs_metrics.pp_snapshot snap;
      Fmt.pr "trace: %d recorded, %d dropped, last %d:@." recorded dropped
        (List.length entries);
      List.iter (fun e -> Fmt.pr "  %a@." Obs_trace.pp_entry e) entries
    end
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Boot a live cluster, drive it briefly, and dump the observability \
          snapshot: every counter and log-scaled latency histogram in the \
          metrics registry (text or --json) plus the tail of the structured \
          trace ring.  The same instruments a long-running serve session \
          exposes through its console's stats command.")
    Term.(const run $ live_sites $ live_policy $ live_buffered $ live_shards
          $ live_resident $ seed $ duration_arg $ json_arg $ trace_arg)

let crashmat_cmd =
  let full_arg =
    let doc =
      "Run the full cross product (every persist point x every fault class). \
       Default: a representative slice, unless DYNVOTE_CRASH_SOAK=1."
    in
    Arg.(value & flag & info [ "full" ] ~doc)
  in
  let points_arg =
    let doc =
      "Comma-separated persist points (e.g. data.fsync,oplog.write); default \
       depends on --full."
    in
    Arg.(value & opt (some string) None & info [ "points" ] ~docv:"LIST" ~doc)
  in
  let faults_arg =
    let doc =
      "Comma-separated fault classes (e.g. fsync-lie,crash); default depends \
       on --full."
    in
    Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"LIST" ~doc)
  in
  let dir_arg =
    let doc = "Keep cell state under $(docv) (default: a temp directory)." in
    Arg.(value & opt (some string) None & info [ "dir" ] ~docv:"DIR" ~doc)
  in
  let split_list text = String.split_on_char ',' text |> List.map String.trim in
  let run seed jobs full points_text faults_text dir =
    let soak =
      full || (match Sys.getenv_opt "DYNVOTE_CRASH_SOAK" with
              | Some ("" | "0") | None -> false
              | Some _ -> true)
    in
    let all_points = Crash_matrix.points @ Crash_matrix.compaction_points in
    let points =
      match points_text with
      | Some text ->
          List.map
            (fun name ->
              match
                List.find_opt
                  (fun p -> Crash_matrix.point_name p = name)
                  all_points
              with
              | Some p -> p
              | None ->
                  Fmt.epr "unknown persist point %S (have: %s)@." name
                    (String.concat ", "
                       (List.map Crash_matrix.point_name all_points));
                  exit 2)
            (split_list text)
      | None ->
          if soak then all_points
          else
            (* The commit path's three points plus the compaction
               rewrite's rename. *)
            List.filter
              (fun p ->
                List.mem (Crash_matrix.point_name p)
                  [ "shard.write"; "shard.fsync"; "oplog.write";
                    "compaction.rename" ])
              all_points
    in
    let faults =
      match faults_text with
      | Some text ->
          List.map
            (fun name ->
              match Storage_fault.fault_of_name name with
              | Some f -> f
              | None ->
                  Fmt.epr "unknown fault %S (have: %s)@." name
                    (String.concat ", "
                       (List.map Storage_fault.fault_name
                          Storage_fault.all_faults));
                  exit 2)
            (split_list text)
      | None ->
          if soak then Storage_fault.all_faults
          else [ Storage_fault.Eio; Storage_fault.Fsync_lie; Storage_fault.Crash ]
    in
    let dir = match dir with Some d -> d | None -> fresh_temp_dir () in
    let cells =
      Crash_matrix.run ~jobs:(resolve_jobs jobs) ~seed ~faults ~points ~dir ()
    in
    Fmt.pr "%a@." Crash_matrix.pp_table cells;
    if List.exists (fun c -> not (Crash_matrix.ok c.Crash_matrix.c_outcome)) cells
    then exit 1
  in
  Cmd.v
    (Cmd.info "crashmat"
       ~doc:
         "The crash-point recovery matrix: for every persist point of the \
          commit path crossed with every storage fault class, boot a small \
          live cluster, strike a victim site at exactly that point, simulate \
          a power cut, restart, and grade recovery.  Every cell must end \
          Recovered or explicitly Fenced; Unavailable or Corrupt cells fail \
          the run (exit 1).")
    Term.(const run $ seed $ jobs_arg $ full_arg $ points_arg $ faults_arg
          $ dir_arg)

let main_cmd =
  let doc = "Dynamic voting algorithms for replicated data (Paris & Long, ICDE 1988)." in
  Cmd.group (Cmd.info "dynvote" ~version:"1.0.0" ~doc)
    [ table1_cmd; table2_cmd; table3_cmd; topology_cmd; simulate_cmd; sweep_cmd;
      partitions_cmd; timeline_cmd; trace_cmd; reliability_cmd; chaos_cmd; mc_cmd;
      serve_cmd; loadgen_cmd; stats_cmd; crashmat_cmd ]

let () = exit (Cmd.eval main_cmd)
