(* The availability study of §4.

   One stochastic failure/repair/maintenance trace (from
   {!Dynvote_failures.Event_gen}) drives every (configuration x policy)
   instance simultaneously, so all cells of Tables 2 and 3 are paired on
   the same history.  Between transitions the connectivity is constant;
   the availability indicator of each instance is therefore piecewise
   constant and only needs re-evaluation at transitions — with one twist
   for the optimistic policies:

   Optimistic policies adjust their quorums at file accesses (one per day
   in the paper).  An access never changes the *current* availability
   indicator — a granted refresh remains granted afterwards, a denial
   changes nothing — but it does change the partition sets consulted at
   the *next* topology change.  So it suffices to apply, per instance, the
   first access epoch that falls between two consecutive transitions,
   evaluated against the old connectivity.  This makes the cost per
   transition O(instances) regardless of the access rate.

   The trace is generated once per run, in chunks of [chunk_size]
   transitions held in flat buffers reused from chunk to chunk: each
   transition's time, its site, direction and access-due flag, and the
   view after it.  Views are memoized by up-set, so equal up-sets share
   one physical view and [Connectivity.view] runs once per distinct
   up-set; the instantaneous policies' settled-refresh rule
   ({!Policy.is_available}) then answers the indicator without a probe.
   Only the evaluation fans out: every chunk runs each group of instances
   as one {!Dynvote_exec.Pool} task, and each group carries its view
   across chunk boundaries.  [run] makes every cell its own group;
   [run_drivers] keeps all drivers in one group, so [observe] reports
   changes in transition order, then in driver order.  Instances never
   interact and each sees the same transitions in the same order, so
   every cell is bit-identical whatever the number of jobs. *)

module Event_gen = Dynvote_failures.Event_gen
module Site_spec = Dynvote_failures.Site_spec
module Pool = Dynvote_exec.Pool

type parameters = {
  seed : int;
  warmup : float;        (* days *)
  horizon : float;       (* total simulated days, warm-up included *)
  batches : int;         (* batch count for the confidence intervals *)
  access_interval : float; (* days between file accesses (optimistic) *)
}

let default_parameters =
  { seed = 42; warmup = 360.0; horizon = 400_360.0; batches = 20; access_interval = 1.0 }

type summary = {
  interval : Dynvote_stats.Batch_means.interval;
  unavailability : float;
  mean_outage_days : float;
  outages : int;
  longest_up_days : float;
  observed_days : float;
}

type result = {
  config : Config.t;
  kind : Policy.kind;
  interval : Dynvote_stats.Batch_means.interval;
  unavailability : float;
  mean_outage_days : float;
  outages : int;
  longest_up_days : float;
  observed_days : float;
}

type 'key instance = { key : 'key; driver : Driver.t; metrics : Metrics.t }

(* Instances replayed together, in order, as one pool task per chunk;
   [view] is the view in effect before the chunk's first transition,
   carried across chunk boundaries. *)
type 'key group = { members : 'key instance array; mutable view : Policy.view }

let validate p =
  if p.horizon <= p.warmup then invalid_arg "Study: horizon must exceed warmup";
  if p.batches < 2 then invalid_arg "Study: need at least two batches";
  if p.access_interval <= 0.0 then invalid_arg "Study: access interval must be positive"

(* First access epoch strictly after [time]. *)
let next_access_epoch ~interval time =
  let k = Float.to_int (Float.floor (time /. interval)) in
  let candidate = float_of_int (k + 1) *. interval in
  if candidate > time then candidate else candidate +. interval

let summarize metrics =
  {
    interval = Metrics.interval metrics;
    unavailability = Metrics.unavailability metrics;
    mean_outage_days = Metrics.mean_outage_duration metrics;
    outages = Metrics.outages metrics;
    longest_up_days = Metrics.longest_up metrics;
    observed_days = Metrics.observed_time metrics;
  }

(* Transitions per chunk: large enough that the per-chunk fan-out barrier
   is rare, small enough that the buffers stay a few tens of kilobytes
   whatever the horizon. *)
let chunk_size = 4096

(* One chunk of the trace: transition [i] happens at [times.(i)], moves
   site [steps.(i) lsr 2] up ([now_up] bit set) or down, and leaves the
   network in [views.(i)].  The [access_due] bit marks an access epoch
   strictly between the previous transition and this one: the optimistic
   policies' access, applied against the old view. *)
type chunk = {
  times : Float.Array.t;
  steps : int array;
  views : Policy.view array;
  mutable length : int;
}

let now_up_bit = 1
let access_due_bit = 2

type trace = {
  generator : Event_gen.t;
  connectivity : Dynvote_net.Connectivity.t;
  memo : (Site_set.t, Policy.view) Hashtbl.t;
  horizon : float;
  access_interval : float;
  mutable next_access : float; (* first access epoch after the last transition *)
  mutable up : Site_set.t;
  mutable finished : bool;
}

let view_of trace up =
  match Hashtbl.find_opt trace.memo up with
  | Some view -> view
  | None ->
      let view = Dynvote_net.Connectivity.view trace.connectivity ~up in
      Hashtbl.add trace.memo up view;
      view

(* Refill [chunk] with the next transitions before the horizon. *)
let fill trace chunk =
  chunk.length <- 0;
  while (not trace.finished) && chunk.length < chunk_size do
    let transition = Event_gen.next trace.generator in
    let time = transition.Event_gen.time in
    if time >= trace.horizon then trace.finished <- true
    else begin
      let i = chunk.length and site = transition.Event_gen.site in
      let now_up = transition.Event_gen.now_up in
      trace.up <-
        (if now_up then Site_set.add site trace.up else Site_set.remove site trace.up);
      Float.Array.set chunk.times i time;
      chunk.steps.(i) <-
        (site lsl 2)
        lor (if now_up then now_up_bit else 0)
        lor if trace.next_access < time then access_due_bit else 0;
      chunk.views.(i) <- view_of trace trace.up;
      trace.next_access <- next_access_epoch ~interval:trace.access_interval time;
      chunk.length <- i + 1
    end
  done

(* Replay one chunk through one group, keeping every member's
   availability indicator and quorum state up to date. *)
let evaluate ~observe chunk group =
  let members = group.members in
  let before = ref group.view in
  for i = 0 to chunk.length - 1 do
    let time = Float.Array.get chunk.times i in
    let step = chunk.steps.(i) and view = chunk.views.(i) in
    for k = 0 to Array.length members - 1 do
      let inst = members.(k) in
      let driver = inst.driver in
      (* 1. Apply the access epoch that fell before this transition, if
            any, against the old connectivity. *)
      if step land access_due_bit <> 0 && driver.Driver.optimistic then
        ignore (driver.Driver.on_access !before);
      (* 2. Integrate the indicator up to the transition. *)
      Metrics.advance inst.metrics ~upto:time;
      (* 3. Let the policy react and re-evaluate the indicator. *)
      driver.Driver.on_topology_change view;
      if step land now_up_bit <> 0 then driver.Driver.on_repair view (step lsr 2);
      let available = driver.Driver.available view in
      if available <> Metrics.is_available inst.metrics then begin
        Metrics.set_available inst.metrics available;
        match observe with Some f -> f inst.key ~time ~available | None -> ()
      end
    done;
    before := view
  done;
  group.view <- !before

(* The shared simulation loop: generate the trace chunk by chunk and
   replay each chunk through every group.  [progress] fires between
   chunks, from the calling domain. *)
let simulate ~(parameters : parameters) ~topology ~specs ~jobs ~groups ?progress ?observe
    () =
  if Array.length specs <> Dynvote_net.Topology.n_sites topology then
    invalid_arg "Study: one site spec per topology site required";
  let horizon = parameters.horizon in
  let trace =
    {
      generator = Event_gen.create ~seed:parameters.seed specs;
      connectivity = Dynvote_net.Connectivity.create topology;
      memo = Hashtbl.create 64;
      horizon;
      access_interval = parameters.access_interval;
      next_access = infinity;
      up = Dynvote_net.Topology.all_sites topology;
      finished = false;
    }
  in
  let initial = view_of trace trace.up in
  let chunk =
    {
      times = Float.Array.make chunk_size 0.0;
      steps = Array.make chunk_size 0;
      views = Array.make chunk_size initial;
      length = 0;
    }
  in
  let groups = Array.map (fun members -> { members; view = initial }) groups in
  let progress_step = horizon /. 100.0 in
  let next_progress = ref progress_step in
  Pool.with_pool ~jobs (fun pool ->
      fill trace chunk;
      while chunk.length > 0 do
        ignore (Pool.map_array pool (evaluate ~observe chunk) groups);
        let last = Float.Array.get chunk.times (chunk.length - 1) in
        (match progress with
        | Some f when last >= !next_progress ->
            f ~completed:last ~total:horizon;
            while !next_progress <= last do
              next_progress := !next_progress +. progress_step
            done
        | _ -> ());
        fill trace chunk
      done);
  Array.iter
    (fun group ->
      Array.iter (fun inst -> Metrics.finish inst.metrics ~upto:horizon) group.members)
    groups

(* Every cell is its own group, so the pool's cursor balances them.  The
   cursor hands groups out in array order, and groups claimed together run
   at the same time on different domains; cells built one after another
   sit next to each other in memory, and two domains writing neighbouring
   cells every transition would fight over shared cache lines.  So deal
   the cells out in [jobs] interleaved runs: consecutive groups are
   [n / jobs] cells apart. *)
let dealt ~jobs instances =
  let stride = (Array.length instances + jobs - 1) / jobs in
  List.init (Array.length instances) Fun.id
  |> List.stable_sort (fun a b -> compare (a mod stride) (b mod stride))
  |> List.map (fun i -> [| instances.(i) |])
  |> Array.of_list

let batch_length_of (parameters : parameters) =
  (parameters.horizon -. parameters.warmup) /. float_of_int parameters.batches

let instances_of (parameters : parameters) drivers =
  validate parameters;
  let batch_length = batch_length_of parameters in
  Array.of_list
    (List.map
       (fun (key, driver) ->
         {
           key;
           driver;
           metrics = Metrics.create ~warmup:parameters.warmup ~batch_length ();
         })
       drivers)

let summaries instances =
  Array.to_list (Array.map (fun inst -> (inst.key, summarize inst.metrics)) instances)

(* Run arbitrary drivers as one group, so [observe] sees every instance's
   changes in transition order, then in driver order. *)
let run_drivers ?(parameters = default_parameters) ?(specs = Site_spec.ucsd_sites)
    ?(topology = Dynvote_net.Topology.ucsd) ?progress ?observe ~drivers () =
  let instances = instances_of parameters drivers in
  simulate ~parameters ~topology ~specs ~jobs:1 ~groups:[| instances |] ?progress ?observe ();
  summaries instances

let run ?(parameters = default_parameters) ?(kinds = Policy.all_kinds)
    ?(configs = Config.ucsd_configurations) ?(specs = Site_spec.ucsd_sites)
    ?(topology = Dynvote_net.Topology.ucsd) ?ordering ?recovery ?progress ?(jobs = 1)
    () =
  let n_sites = Dynvote_net.Topology.n_sites topology in
  let ordering = match ordering with Some o -> o | None -> Ordering.default n_sites in
  let segment_of = Dynvote_net.Topology.segment_of topology in
  let drivers =
    List.concat_map
      (fun config ->
        List.map
          (fun kind ->
            let policy =
              Policy.create ?recovery kind ~universe:(Config.copies config) ~n_sites
                ~segment_of ~ordering
            in
            ((config, kind), Driver.of_policy policy))
          kinds)
      configs
  in
  let instances = instances_of parameters drivers in
  let jobs = max 1 jobs in
  simulate ~parameters ~topology ~specs ~jobs ~groups:(dealt ~jobs instances) ?progress ();
  List.map
    (fun ((config, kind), (s : summary)) ->
      {
        config;
        kind;
        interval = s.interval;
        unavailability = s.unavailability;
        mean_outage_days = s.mean_outage_days;
        outages = s.outages;
        longest_up_days = s.longest_up_days;
        observed_days = s.observed_days;
      })
    (summaries instances)

(* Independent replications: re-run the whole study under several seeds
   and pool each cell across replications.  Complements batch means: batch
   means quantify within-run noise, replications quantify run-to-run noise
   (e.g. whether an ODV-vs-LDV crossover is real or a fluke of one failure
   history). *)
type replicated = {
  mean_unavailability : float;
  half_width_95 : float;   (* Student-t across replications *)
  per_seed : float list;
  mean_outage_days : float;
}

let replicate ?(parameters = default_parameters) ?(replications = 5)
    ?(kinds = Policy.all_kinds) ?(configs = Config.ucsd_configurations)
    ?(specs = Site_spec.ucsd_sites) ?(topology = Dynvote_net.Topology.ucsd) ?ordering
    ?recovery ?(jobs = 1) () =
  if replications < 2 then invalid_arg "Study.replicate: need at least two replications";
  (* One task per seed: replications are independent by construction. *)
  let runs =
    Pool.with_pool ~jobs (fun pool ->
        Pool.map_list pool
          (fun i ->
            run
              ~parameters:{ parameters with seed = parameters.seed + (1009 * i) }
              ~kinds ~configs ~specs ~topology ?ordering ?recovery ())
          (List.init replications Fun.id))
  in
  List.concat_map
    (fun config ->
      List.map
        (fun kind ->
          let cells : result list =
            List.map
              (fun results ->
                List.find
                  (fun (r : result) ->
                    Config.label r.config = Config.label config && r.kind = kind)
                  results)
              runs
          in
          let xs = List.map (fun (r : result) -> r.unavailability) cells in
          let n = float_of_int replications in
          let mean = List.fold_left ( +. ) 0.0 xs /. n in
          let variance =
            List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 xs /. (n -. 1.0)
          in
          let half_width =
            Dynvote_stats.Student_t.critical_975 (replications - 1)
            *. sqrt (variance /. n)
          in
          let outages =
            List.filter_map
              (fun (r : result) ->
                if Float.is_nan r.mean_outage_days then None else Some r.mean_outage_days)
              cells
          in
          let mean_outage_days =
            match outages with
            | [] -> nan
            | _ ->
                List.fold_left ( +. ) 0.0 outages /. float_of_int (List.length outages)
          in
          ( (config, kind),
            { mean_unavailability = mean; half_width_95 = half_width; per_seed = xs;
              mean_outage_days } ))
        kinds)
    configs

(* Sweep the access interval for the optimistic policies: the ablation that
   quantifies how much staleness helps or hurts (extra experiment E1). *)
let sweep_access_rate ?(parameters = default_parameters) ?(config_label = "F")
    ?(rates_per_day = [ 0.125; 0.25; 0.5; 1.0; 2.0; 4.0; 8.0; 24.0 ]) ?(jobs = 1) () =
  let config =
    match Config.find config_label with
    | Some c -> c
    | None -> invalid_arg "Study.sweep_access_rate: unknown configuration"
  in
  (* One task per rate: each point re-runs the study independently. *)
  Pool.with_pool ~jobs (fun pool ->
      Pool.map_list pool
        (fun rate ->
          let parameters = { parameters with access_interval = 1.0 /. rate } in
          let results =
            run ~parameters ~kinds:[ Policy.Odv; Policy.Otdv; Policy.Ldv ]
              ~configs:[ config ] ()
          in
          (rate, results))
        rates_per_day)
