(* The model-checker workload: [Checker.check] on tdv-safe over the §3
   four-copy example, full alphabet, partial-order reduction on.  No
   sockets and no disk: the deep, narrow search alone.  Its input is
   fixed, so the verdict and the distinct-state count are recorded here
   and every run must reproduce them. *)

module Checker = Dynvote_mc.Checker
module Explorer = Dynvote_mc.Explorer
module Space = Dynvote_mc.Space
module Por = Dynvote_mc.Por
module Fingerprint = Dynvote_mc.Fingerprint
module Striped_seen = Dynvote_mc.Striped_seen
module Harness = Dynvote_chaos.Harness
module Oracle = Dynvote_chaos.Oracle
module Pool = Dynvote_exec.Pool
module Clock = Dynvote_obs.Clock
open Perfbench

let policy = Option.get (Harness.policy_of_string "tdv-safe")
let config = { (Checker.paper_config ()) with Harness.flavor = policy.Harness.flavor }

(* Sized so one verdict takes a few seconds on two cores. *)
let depth = 6
let recorded_distinct = 124_761

let check ?progress ?(depth = depth) ~jobs () =
  Checker.check ~space:Space.full ~por:true ?progress ~jobs ~policy ~depth config

let verdict_checks ?(label = "") (r : Checker.report) =
  [ (label ^ "_clean_to_bound",
      Checker.verdict_ok r
      && match r.Checker.verdict with Checker.Clean { closed = false } -> true | _ -> false);
    (label ^ "_distinct_recorded", r.Checker.result.Explorer.distinct = recorded_distinct) ]

let ok r = List.for_all snd (verdict_checks r)

(* One set-up: the checker's session over the paper configuration, a
   domain pool of the run's width, and a shallow warm-up check.  Alone,
   session and pool take a fraction of a millisecond, which the machine's
   scheduling noise swamps. *)
let setup ~jobs =
  let t0 = Clock.now () in
  ignore (Sys.opaque_identity (Harness.make_session config));
  Pool.shutdown (Pool.create ~jobs ());
  ignore (check ~depth:(depth - 2) ~jobs ());
  Clock.now () -. t0

let end_to_end ctx =
  let jobs = ctx.Outcome.jobs in
  let setup_s = Stats.median (Array.init 11 (fun _ -> setup ~jobs)) in
  Procfs.reset_peak ();
  let t_end = Clock.now () +. ctx.Outcome.seconds in
  let rec go acc =
    let r, wall, _ = Procfs.timed (fun () -> check ~jobs ()) in
    let acc = (r, wall) :: acc in
    if Clock.now () < t_end then go acc else List.rev acc
  in
  let runs = go [] in
  let peak_rss_mb = Procfs.peak_rss_mb () in
  let walls = Array.of_list (List.map snd runs) in
  let verdict = Stats.median walls in
  let tail = Stats.tail walls in
  let checks = List.map (fun (r, _) -> verdict_checks ~label:"jN" r) runs in
  { Outcome.checks =
      List.map (fun (name, _) -> (name, List.for_all (List.assoc name) checks)) (List.hd checks);
    attempted = List.length runs;
    failed = List.length (List.filter (fun (r, _) -> not (ok r)) runs);
    metrics =
      [ ("setup_s", setup_s);
        ("peak_rss_mb", peak_rss_mb);
        ("goodput_ops_s", Option.bind verdict (Stats.ratio (float_of_int recorded_distinct)));
        ("latency_p50_ms", Option.map (fun v -> v *. 1e3) verdict);
        ("latency_tail_ms", Option.map (fun t -> t.Stats.value *. 1e3) tail) ];
    notes =
      [ ("verdicts", Json.Int (List.length runs));
        ("distinct", Json.List (List.sort_uniq compare (List.map (fun ((r : Checker.report), _) -> Json.Int r.Checker.result.Explorer.distinct) runs)));
        ("walls_s", Json.List (List.map (fun (_, w) -> Json.Float w) runs)); ("depth", Json.Int depth);
        ("tail_percentile", Json.String (match tail with Some t -> Stats.tail_label t | None -> "none")) ] }

type layer = { mutable calls : int; mutable secs : float }

let layer () = { calls = 0; secs = 0.0 }

let timed_call l f =
  let t0 = Clock.now () in
  let r = f () in
  l.secs <- l.secs +. (Clock.now () -. t0);
  l.calls <- l.calls + 1;
  r

(* The explorer's last deepening iteration, re-run from outside with
   every call into a layer timed: the same sequence of steps, oracle
   checks, fingerprints and seen-table claims [Explorer] makes at -j1. *)
let replay () =
  let step = layer () and oracle_l = layer () and fp = layer () and claim = layer () in
  let session = Harness.make_session config in
  let cluster = Harness.cluster session and oracle = Harness.oracle session in
  let perms =
    if config.Harness.flavor.Decision.tie_break then [ Fingerprint.identity ~n_sites:4 ]
    else
      Fingerprint.segment_perms ~universe:config.Harness.universe
        ~segment_of:config.Harness.segment_of
  in
  let buf = Buffer.create 256 in
  let gc = Space.amnesia_free Space.full in
  let fingerprint () = timed_call fp (fun () -> Fingerprint.canonical ~buf ~gc ~perms session) in
  let seen = Striped_seen.create ~shards:1 ~max_states:1_000_000 () in
  let t0 = Clock.now () in
  ignore (Striped_seen.claim seen (fingerprint ()) ~budget:depth ~ctx:0);
  let rec dfs remaining ctx covered =
    if remaining > 0 then begin
      let ck = Harness.checkpoint session in
      let steps = Space.enabled Space.full ~config ~cluster in
      let steps =
        if covered = 0 then Por.filter ~ctx steps else Por.filter_uncovered ~ctx ~covered steps
      in
      List.iter
        (fun s ->
          timed_call step (fun () -> Harness.apply_step session s);
          timed_call oracle_l (fun () -> Oracle.check_step oracle cluster);
          let f = fingerprint () in
          (match
             timed_call claim (fun () ->
                 Striped_seen.claim seen f ~budget:(remaining - 1) ~ctx:(Por.rank s))
           with
          | Striped_seen.Expand { filter; covered } -> dfs (remaining - 1) filter covered
          | Striped_seen.Prune | Striped_seen.Budget -> ());
          Harness.rollback session ck)
        steps
    end
  in
  dfs depth 0 0;
  let wall = Clock.now () -. t0 in
  let distinct = Striped_seen.distinct seen in
  Striped_seen.close seen;
  (wall, distinct, Oracle.is_safe oracle, [ ("harness.step", step); ("oracle.check", oracle_l);
                                             ("fingerprint.canonical", fp); ("striped_seen.claim", claim) ])

let per_layer ctx =
  let jobs = ctx.Outcome.jobs and spans = ctx.Outcome.spans in
  let traced_check ~jobs =
    let id = Printf.sprintf "check-j%d" jobs in
    let last = ref (Clock.now ()) in
    let progress ~depth ~distinct ~transitions =
      let now = Clock.now () in
      Span.add spans ~track:0 ~id:(Printf.sprintf "%s.d%d" id depth) ~parent:id ~start:!last ~stop:now
        ~args:[ ("distinct", Json.Int distinct); ("transitions", Json.Int transitions) ]
        "explorer.iteration";
      last := now
    in
    Span.time spans ~track:0 ~id "checker.check" (fun () ->
        Procfs.timed (fun () -> check ~progress ~jobs ()))
  in
  let words0 = Gc.minor_words () and sys0 = Procfs.syscalls () and sw0 = Procfs.ctx_switches () in
  let r1, wall1, cpu1 = traced_check ~jobs:1 in
  let words1 = Gc.minor_words () and sys1 = Procfs.syscalls () and sw1 = Procfs.ctx_switches () in
  let rn, walln, (un, sn) = traced_check ~jobs in
  let _, walln_plain, _ = Procfs.timed (fun () -> check ~jobs ()) in
  let cost = Procfs.clock_cost () in
  let replay_wall, replay_distinct, replay_safe, layers =
    Span.time spans ~track:0 ~id:"replay" "mc.replay" replay
  in
  let result = rn.Checker.result in
  let steals = Array.fold_left (fun k (w : Pool.steal_stats) -> k + w.Pool.steals) 0 result.Explorer.workers in
  let failed_steals =
    Array.fold_left (fun k (w : Pool.steal_stats) -> k + w.Pool.failed_steals) 0 result.Explorer.workers
  in
  let states = r1.Checker.result.Explorer.distinct in
  let diff x y = match (x, y) with Some x, Some y -> Stats.per_op (x - y) ~ops:states | _ -> None in
  let layer_metrics =
    List.concat_map
      (fun (name, l) ->
        let per_call = Stats.ratio (l.secs -. (float_of_int l.calls *. cost)) (float_of_int l.calls) in
        let unit_scale, suffix = if name = "striped_seen.claim" then (1e9, "_ns") else (1e6, "_us") in
        [ (name ^ suffix, Option.map (fun s -> Float.max 0.0 s *. unit_scale) per_call);
          (name ^ "_share", Stats.ratio l.secs replay_wall) ])
      layers
  in
  let failed = List.length (List.filter (fun r -> not (ok r)) [ r1; rn ]) in
  let same (a : Checker.report) (b : Checker.report) =
    a.Checker.verdict = b.Checker.verdict
    && a.Checker.result.Explorer.distinct = b.Checker.result.Explorer.distinct
  in
  { Outcome.checks =
      verdict_checks ~label:"j1" r1 @ verdict_checks ~label:"jN" rn
      @ [ ("j1_equals_jN", same r1 rn);
          ("replay_distinct_recorded", replay_distinct = recorded_distinct);
          ("replay_safe", replay_safe) ];
    attempted = 2;
    failed;
    metrics =
      [ ("failed_share", Stats.failed_share ~attempted:2 ~failed);
        ("trace_overhead_pct", Option.map (fun r -> (r -. 1.0) *. 100.0) (Stats.ratio walln walln_plain));
        ("mc.states_per_s", Stats.ratio (float_of_int result.Explorer.distinct) walln);
        ("mc.transitions_per_state",
          Stats.ratio (float_of_int result.Explorer.transitions) (float_of_int result.Explorer.visited));
        ("mc.peak_seen", Some (float_of_int result.Explorer.peak_seen));
        ("exec.steal_success_ratio",
          Stats.ratio (float_of_int steals) (float_of_int (steals + failed_steals)));
        ("exec.parallel_speedup", Stats.ratio wall1 walln);
        ("exec.cpu_per_wall", Stats.ratio (un +. sn) walln);
        ("proc.user_ms_per_op", Stats.ratio (1e3 *. fst cpu1) (float_of_int states));
        ("proc.sys_ms_per_op", Stats.ratio (1e3 *. snd cpu1) (float_of_int states));
        ("proc.syscalls_per_op", diff sys1 sys0);
        ("proc.ctx_switches_per_op", diff sw1 sw0);
        ("gc.minor_words_per_op", Stats.ratio (words1 -. words0) (float_of_int states)) ]
      @ layer_metrics;
    notes =
      [ ("depth", Json.Int depth); ("j1_s", Json.Float wall1); ("jN_s", Json.Float walln);
        ("jN_untraced_s", Json.Float walln_plain); ("j1_cpu_s", Json.Float (fst cpu1 +. snd cpu1));
        ("replay_s", Json.Float replay_wall); ("clock_read_ns", Json.Float (cost *. 1e9)) ] }
