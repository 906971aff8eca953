(* Bounded explicit-state exploration: iterative-deepening DFS over the
   enabled actions, with a seen-state table and the safety oracle checked
   at every state.

   Each worker carries its part of the search in one chaos session;
   branching rewinds it with {!Dynvote_chaos.Harness.checkpoint}/
   [rollback], so every explored path executes the exact code a chaos
   replay would.  The seen table maps a canonical fingerprint to the
   largest remaining-depth budget it was expanded with, tagged by the
   {!Por} context the expansion was filtered under: a revisit with no
   more budget under a covering context is pruned, anything else is
   re-expanded (the transposition rule that keeps iterative deepening —
   and partial-order reduction under state caching — sound; see
   {!Striped_seen.claim}).

   Partial-order reduction (on by default, [?por]) explores commuting
   fault actions in sorted order only: every pruned interleaving is a
   permutation of an explored one with identical length, end state and
   violation observations (the commutation proof lives in {!Por}).  The
   set of distinct states within a completed bound is unchanged —
   reduction removes transitions, not states — so Safe verdicts report
   identical state counts with the reduction on or off, and iterative
   deepening still finds a minimum-length counterexample first.

   Iterative deepening guarantees the first counterexample found is one
   of minimum length.  When an iteration completes without ever hitting
   the depth cutoff, the entire reachable space (under the configured
   alphabet) has been exhausted and deeper iterations are skipped — the
   search is [closed].

   One search serves every job count, in the spirit of Stern & Dill's
   parallel Murphi: each deepening iteration hands the root actions out
   through a shared cursor to the workers of a {!Dynvote_exec.Pool},
   every worker drives its own freshly built session (cluster and oracle
   are mutable and never shared), and deduplication goes through one
   lock-striped {!Striped_seen} fingerprint store so the
   [distinct]/[max_states] accounting stays global.  The set of distinct
   states within a bound — and with it every Safe/Out_of_budget verdict —
   is independent of worker interleaving; only the traversal statistics
   ([visited], [transitions]) and the choice among equally short
   counterexamples may differ.  At one job the single worker takes the
   root actions in order over a one-shard store, so the traversal is
   fully deterministic (the cram tests pin its statistics). *)

module Harness = Dynvote_chaos.Harness
module Oracle = Dynvote_chaos.Oracle
module Schedule = Dynvote_chaos.Schedule
module Pool = Dynvote_exec.Pool

type outcome =
  | Safe of { closed : bool }
  | Violation of { trace : Schedule.step list; violations : Oracle.violation list }
  | Out_of_budget

type result = {
  outcome : outcome;
  depth : int;
  visited : int;
  distinct : int;
  transitions : int;
  peak_seen : int;
  spilled : int;
  workers : Pool.steal_stats array;
}

(* Symmetry defaults off for tie-break flavors: site relabeling commutes
   with the transition relation only without the lexicographic tie-break
   (site identity is load-bearing in the ordering). *)
let resolve_symmetry ?symmetry (config : Harness.config) =
  match symmetry with
  | Some s -> s
  | None -> not config.Harness.flavor.Decision.tie_break

let perms_for ~symmetry (config : Harness.config) =
  if symmetry then
    Fingerprint.segment_perms ~universe:config.Harness.universe
      ~segment_of:config.Harness.segment_of
  else [ Fingerprint.identity ~n_sites:(Site_set.max_elt config.Harness.universe + 1) ]

(* The report path's accounting invariant: every admitted state was
   counted exactly once, and nothing the budget bounced was. *)
let checked_distinct seen =
  let distinct = Striped_seen.distinct seen in
  assert (Striped_seen.length seen = distinct);
  distinct

exception Stop_worker

type worker_tally = {
  w_visited : int;
  w_transitions : int;
  w_cutoff : bool;
  w_budget : bool;
  w_violation : (int * Schedule.step list * Oracle.violation list) option;
      (* root-action index, trace, violations *)
  w_cursor : Pool.steal_stats;
}

(* One worker's share of a single deepening iteration: pull root-action
   indices from [next_root], run the DFS below each, dedup through the
   shared striped store.  The session, oracle, fingerprint buffer and
   checkpoints are all worker-private — only [seen], [next_root] and
   [stop] are shared. *)
let bound_worker ~space ~gc ~perms ~por ~(config : Harness.config)
    ~(roots : Schedule.step array) ~seen ~next_root ~(stop : bool Atomic.t) ~bound () =
  let session = Harness.make_session config in
  let cluster = Harness.cluster session in
  let oracle = Harness.oracle session in
  let buf = Buffer.create 256 in
  let fingerprint () = Fingerprint.canonical ~buf ~gc ~perms session in
  let visited = ref 0 in
  let transitions = ref 0 in
  let cutoff = ref false in
  let budget_hit = ref false in
  let violation = ref None in
  let taken = ref 0 in
  let empty_probes = ref 0 in
  let root_ck = Harness.checkpoint session in
  let found root_idx trace =
    violation := Some (root_idx, trace, Oracle.violations oracle);
    Atomic.set stop true;
    raise_notrace Stop_worker
  in
  (* [ctx] filters a state's successors: the {!Por.rank} of the action
     the state was entered by, or 0 with the reduction off.  A nonzero
     [covered] narrows the expansion to the sleep difference against an
     already-recorded context. *)
  let claim root_idx fp ~budget ~ctx recurse =
    match Striped_seen.claim seen fp ~budget ~ctx with
    | Striped_seen.Prune -> ()
    | Striped_seen.Budget ->
        budget_hit := true;
        Atomic.set stop true;
        raise_notrace Stop_worker
    | Striped_seen.Expand { filter; covered } ->
        incr visited;
        recurse root_idx budget filter covered
  in
  let rec dfs root_idx remaining trace ctx covered =
    if remaining = 0 then cutoff := true
    else begin
      let ck = Harness.checkpoint session in
      let steps = Space.enabled space ~config ~cluster in
      let steps =
        if not por then steps
        else if covered = 0 then Por.filter ~ctx steps
        else Por.filter_uncovered ~ctx ~covered steps
      in
      List.iter
        (fun step ->
          if Atomic.get stop then raise_notrace Stop_worker;
          incr transitions;
          Harness.apply_step session step;
          Oracle.check_step oracle cluster;
          if not (Oracle.is_safe oracle) then
            found root_idx (List.rev (step :: trace));
          claim root_idx (fingerprint ()) ~budget:(remaining - 1)
            ~ctx:(if por then Por.rank step else 0)
            (fun root_idx budget filter covered ->
              dfs root_idx budget (step :: trace) filter covered);
          Harness.rollback session ck)
        steps
    end
  in
  (try
     let rec next () =
       let idx = Atomic.fetch_and_add next_root 1 in
       if idx < Array.length roots && not (Atomic.get stop) then begin
         incr taken;
         let step = roots.(idx) in
         incr transitions;
         Harness.apply_step session step;
         Oracle.check_step oracle cluster;
         if not (Oracle.is_safe oracle) then found idx [ step ];
         claim idx (fingerprint ()) ~budget:(bound - 1)
           ~ctx:(if por then Por.rank step else 0)
           (fun root_idx budget filter covered ->
             dfs root_idx budget [ step ] filter covered);
         Harness.rollback session root_ck;
         next ()
       end
       else incr empty_probes
     in
     next ()
   with Stop_worker -> ());
  {
    w_visited = !visited;
    w_transitions = !transitions;
    w_cutoff = !cutoff;
    w_budget = !budget_hit;
    w_violation = !violation;
    w_cursor = { Pool.steals = !taken; failed_steals = !empty_probes };
  }

let add_cursor (a : Pool.steal_stats) (b : Pool.steal_stats) =
  { Pool.steals = a.Pool.steals + b.Pool.steals;
    failed_steals = a.Pool.failed_steals + b.Pool.failed_steals }

let search ?(space = Space.default) ?symmetry ?(por = true) ?(max_states = 1_000_000)
    ?progress ?(jobs = 1) ~(config : Harness.config) ~depth () =
  let symmetry = resolve_symmetry ?symmetry config in
  let perms = perms_for ~symmetry config in
  let gc = Space.amnesia_free space in
  (* The caller keeps a session of its own for the initial-state check,
     the root fingerprint and the root alphabet (constant across
     iterations — the root state never changes).  The root alphabet is
     unfiltered: [Por.filter ~ctx:0] keeps every step. *)
  let session = Harness.make_session config in
  let cluster = Harness.cluster session in
  let oracle = Harness.oracle session in
  let buf = Buffer.create 256 in
  let root_fp () = Fingerprint.canonical ~buf ~gc ~perms session in
  let visited = ref 0 in
  let transitions = ref 0 in
  let peak_seen = ref 0 in
  let distinct = ref 0 in
  let spilled = ref 0 in
  let workers = ref [||] in
  let result outcome depth =
    {
      outcome;
      depth;
      visited = !visited;
      distinct = !distinct;
      transitions = !transitions;
      peak_seen = !peak_seen;
      spilled = !spilled;
      workers = !workers;
    }
  in
  Oracle.check_step oracle cluster;
  if not (Oracle.is_safe oracle) then
    result (Violation { trace = []; violations = Oracle.violations oracle }) 0
  else if depth <= 0 then result (Safe { closed = false }) 0
  else begin
    let roots = Array.of_list (Space.enabled space ~config ~cluster) in
    (* Inside another pool's worker this pool collapses to one job. *)
    Pool.with_pool ~jobs (fun pool ->
        let n = Pool.jobs pool in
        (* One job runs over one uncontended shard; the spill tier and
           the admission accounting are the same code at every width. *)
        let shards = if n = 1 then Some 1 else None in
        workers := Array.make n { Pool.steals = 0; failed_steals = 0 };
        let search_to bound =
          let seen = Striped_seen.create ?shards ~max_states () in
          ignore (Striped_seen.claim seen (root_fp ()) ~budget:bound ~ctx:0);
          incr visited;
          let next_root = Atomic.make 0 in
          let stop = Atomic.make false in
          let tallies =
            Pool.map_array pool
              (fun _worker ->
                bound_worker ~space ~gc ~perms ~por ~config ~roots ~seen ~next_root
                  ~stop ~bound ())
              (Array.init n Fun.id)
          in
          Array.iter
            (fun t ->
              visited := !visited + t.w_visited;
              transitions := !transitions + t.w_transitions)
            tallies;
          workers := Array.map2 (fun w t -> add_cursor w t.w_cursor) !workers tallies;
          distinct := checked_distinct seen;
          peak_seen := max !peak_seen !distinct;
          spilled := max !spilled (Striped_seen.spilled seen);
          Striped_seen.close seen;
          (match progress with
          | Some f -> f ~depth:bound ~distinct:!distinct ~transitions:!transitions
          | None -> ());
          (* Merge in worker-index order; among counterexamples the
             lowest root-action index wins, as in a left-to-right root
             scan.  A violation outranks the state budget (it is the more
             informative verdict). *)
          let violation =
            Array.fold_left
              (fun best t ->
                match (best, t.w_violation) with
                | None, v -> v
                | v, None -> v
                | Some (i, _, _), Some (j, _, _) when j < i -> t.w_violation
                | best, _ -> best)
              None tallies
          in
          match violation with
          | Some (_, trace, violations) -> `Found (trace, violations)
          | None ->
              if Array.exists (fun t -> t.w_budget) tallies then `Budget
              else if Array.exists (fun t -> t.w_cutoff) tallies then `Cutoff
              else `Closed
        in
        let rec iterate bound =
          match search_to bound with
          | `Found (trace, violations) ->
              result (Violation { trace; violations }) (List.length trace)
          | `Budget -> result Out_of_budget (bound - 1)
          | `Closed -> result (Safe { closed = true }) bound
          | `Cutoff ->
              if bound >= depth then result (Safe { closed = false }) bound
              else iterate (bound + 1)
        in
        iterate 1)
  end
