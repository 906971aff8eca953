(* The repository's benchmark (see BENCHMARK.json at the root):

     run.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics, --trace 1 the per-layer
   ledger (spans on, layer costs timed, written as Chrome trace-event
   JSON under perfbench/out/).  Both run every correctness gate; a failed
   gate still prints the result line, then exits 1.  The last line of
   standard output is the result object.  The compute workloads run on
   one domain per core. *)

open Perfbench

let end_to_end_units =
  [ ("setup_s", "s"); ("peak_rss_mb", "MB"); ("goodput_ops_s", "ops/s");
    ("latency_p50_ms", "ms"); ("latency_tail_ms", "ms") ]

let per_layer_units =
  [ ("failed_share", "share"); ("trace_overhead_pct", "%");
    ("node.lock_rounds_per_op", "count"); ("node.lock_denied_per_op", "count");
    ("node.gather_rounds_per_op", "count"); ("node.gather_reuse_ratio", "share");
    ("node.fetch_per_op", "count"); ("node.fetch_failure_ratio", "share");
    ("node.commit_waves_per_op", "count"); ("node.commit_batch_mean", "count");
    ("node.rounds_inflight_mean", "count"); ("node.group_batch_mean", "count");
    ("node.op_p50_ms", "ms");
    ("persist.fsyncs_per_op", "count"); ("persist.fsync_ms_per_op", "ms");
    ("persist.write_bytes_per_op", "bytes"); ("persist.busy_share", "share");
    ("switchboard.frames_per_op", "count"); ("switchboard.client_hop_ms", "ms");
    ("evloop.wakeups_per_op", "count"); ("evloop.batch_frames_mean", "count");
    ("wire.encode_ns", "ns"); ("wire.decode_ns", "ns");
    ("shard_map.materialized_per_op", "count"); ("shard_map.evicted_per_op", "count");
    ("proc.user_ms_per_op", "ms"); ("proc.sys_ms_per_op", "ms");
    ("proc.syscalls_per_op", "count"); ("proc.ctx_switches_per_op", "count");
    ("gc.minor_words_per_op", "words");
    ("mc.states_per_s", "1/s"); ("mc.transitions_per_state", "count"); ("mc.peak_seen", "count");
    ("harness.step_us", "us"); ("harness.step_share", "share");
    ("oracle.check_us", "us"); ("oracle.check_share", "share");
    ("fingerprint.canonical_us", "us"); ("fingerprint.canonical_share", "share");
    ("striped_seen.claim_ns", "ns"); ("striped_seen.claim_share", "share");
    ("exec.steal_success_ratio", "share"); ("exec.parallel_speedup", "x");
    ("exec.cpu_per_wall", "x"); ("exec.cpu_inflation", "x");
    ("failures.transitions", "count"); ("failures.next_ns", "ns");
    ("connectivity.view_ns", "ns"); ("driver.call_ns", "ns");
    ("study.transitions_per_s", "1/s") ]

let workloads =
  [ ("keys-pipelined", (Live_work.end_to_end, Live_work.per_layer));
    ("mc-tdv-safe", (Mc_work.end_to_end, Mc_work.per_layer));
    ("study-tables", (Study_work.end_to_end, Study_work.per_layer)) ]

let usage () =
  prerr_endline
    ("usage: run.exe --workload {" ^ String.concat "|" (List.map fst workloads)
   ^ "} --seed N --seconds S --trace 0|1");
  exit 2

let parse argv =
  let rec go acc = function
    | key :: value :: rest when String.starts_with ~prefix:"--" key -> go ((key, value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = go [] (List.tl (Array.to_list argv)) in
  let get key conv = Option.bind (List.assoc_opt key opts) conv in
  List.iter
    (fun (k, _) -> if not (List.mem k [ "--workload"; "--seed"; "--seconds"; "--trace" ]) then usage ())
    opts;
  match
    ( get "--workload" (fun w -> List.assoc_opt w workloads |> Option.map (fun f -> (w, f))),
      get "--seed" int_of_string_opt,
      get "--seconds" float_of_string_opt,
      get "--trace" (function "0" -> Some false | "1" -> Some true | _ -> None) )
  with
  | Some workload, Some seed, Some seconds, Some trace when seconds > 0.0 ->
      (workload, seed, seconds, trace)
  | _ -> usage ()

(* A ratio that can truly lack its denominator on a sound run: with no
   lagging replica the keyed service fetches nothing.  Any other figure a
   workload measures must come out, or the run fails. *)
let may_lack_denominator = [ "node.fetch_failure_ratio" ]

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let () =
  let (name, (e2e, layers)), seed, seconds, trace = parse Sys.argv in
  let cores = Domain.recommended_domain_count () in
  let jobs = cores in
  let out_dir = Filename.concat "perfbench" "out" in
  let work_dir = Filename.concat "perfbench" (Printf.sprintf ".work-%d" (Unix.getpid ())) in
  mkdir_p out_dir;
  mkdir_p work_dir;
  let spans = Span.create ~on:trace in
  let ctx = { Outcome.seed; seconds; jobs; spans; work_dir } in
  let outcome =
    Fun.protect ~finally:(fun () -> Live_work.rm_rf work_dir) (fun () ->
        if trace then layers ctx else e2e ctx)
  in
  let fs = Procfs.fs_type out_dir in
  let units = if trace then per_layer_units else end_to_end_units in
  let metrics =
    List.map
      (fun (m, unit) ->
        (m, unit, Option.join (List.assoc_opt m outcome.Outcome.metrics)))
      units
  in
  (* Every end-to-end metric, and every per-layer metric of the layers
     this workload runs. *)
  let expected =
    if trace then List.map fst outcome.Outcome.metrics else List.map fst end_to_end_units
  in
  let lost =
    List.filter
      (fun (m, _, v) -> v = None && List.mem m expected && not (List.mem m may_lack_denominator))
      metrics
    |> List.map (fun (m, _, _) -> m)
  in
  let outcome = { outcome with Outcome.checks = outcome.Outcome.checks @ [ ("figures_measured", lost = []) ] } in
  let correct = Outcome.correct outcome in
  let env =
    [ ("workload", Json.String name); ("seed", Json.Int seed); ("seconds", Json.Float seconds);
      ("trace", Json.Bool trace); ("cores", Json.Int cores); ("jobs", Json.Int jobs);
      ("backend", Option.value ~default:(Json.String "none") (List.assoc_opt "backend" outcome.Outcome.notes));
      ("data_fs", Json.String fs); ("ocaml", Json.String Sys.ocaml_version) ]
  in
  let missing = List.filter_map (fun (m, _, v) -> if v = None then Some m else None) metrics in
  let stem = Filename.concat out_dir (Printf.sprintf "%s-seed%d-trace%d" name seed (Bool.to_int trace)) in
  Out_channel.with_open_bin (stem ^ ".ledger.json") (fun oc ->
      Out_channel.output_string oc
        (Json.to_string
           (Json.Obj
              [ ("env", Json.Obj env);
                ("checks", Json.Obj (List.map (fun (c, ok) -> (c, Json.Bool ok)) outcome.Outcome.checks));
                ("attempted", Json.Int outcome.Outcome.attempted); ("failed", Json.Int outcome.Outcome.failed);
                ("metrics",
                  Json.Obj
                    (List.map
                       (fun (m, unit, v) ->
                         (m, Json.Obj [ ("value", Json.float_or_null v); ("unit", Json.String unit) ]))
                       metrics));
                ("missing", Json.List (List.map (fun m -> Json.String m) missing));
                ("lost", Json.List (List.map (fun m -> Json.String m) lost));
                ("notes", Json.Obj outcome.Outcome.notes) ])));
  if trace then Span.write spans (stem ^ ".trace.json");
  Printf.printf "env %s\n" (Json.to_string (Json.Obj env));
  List.iter (fun (c, ok) -> Printf.printf "check %-28s %s\n" c (if ok then "ok" else "FAIL")) outcome.Outcome.checks;
  Printf.printf "ops   %d attempted, %d failed\n" outcome.Outcome.attempted outcome.Outcome.failed;
  List.iter
    (fun (m, unit, v) ->
      match v with
      | Some v -> Printf.printf "metric %-32s %14.6g %s\n" m v unit
      | None ->
          Printf.printf "metric %-32s %14s %s\n" m (if List.mem m lost then "LOST" else "missing") unit)
    metrics;
  Printf.printf "notes %s\n" (Json.to_string (Json.Obj outcome.Outcome.notes));
  Printf.printf "ledger %s.ledger.json%s\n" stem (if trace then Printf.sprintf ", trace %s.trace.json" stem else "");
  (* The result line.  Its format has no "missing": a figure of a layer
     this workload does not run, or a ratio without a denominator, is
     written as 0 here and named in the ledger and the lines above.  A
     figure lost from a layer that runs has failed the run above. *)
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool correct); ("attempted", Json.Int outcome.Outcome.attempted);
            ("failed", Json.Int outcome.Outcome.failed);
            ("metrics",
              Json.Obj
                (List.map
                   (fun (m, unit, v) ->
                     (m, Json.Obj [ ("value", Json.Float (Option.value ~default:0.0 v)); ("unit", Json.String unit) ]))
                   metrics)) ]));
  if not correct then exit 1
