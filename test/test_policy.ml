(* Policy: the six paper policies as view-driven state machines. *)

open Helpers

let ordering = Ordering.default 8
let one_segment = fun _ -> 0

let view components = { Policy.components = List.map ss components }

let make ?(universe = [ 0; 1; 2 ]) ?(segment_of = one_segment) kind =
  Policy.create kind ~universe:(ss universe) ~n_sites:8 ~segment_of ~ordering

let test_kind_names () =
  Alcotest.(check (list string)) "names"
    [ "MCV"; "DV"; "LDV"; "ODV"; "TDV"; "OTDV" ]
    (List.map Policy.kind_name Policy.all_kinds);
  List.iter
    (fun kind ->
      Alcotest.(check bool) "round trip" true
        (Policy.kind_of_string (Policy.kind_name kind) = Some kind))
    Policy.all_kinds;
  Alcotest.(check bool) "unknown" true (Policy.kind_of_string "XYZ" = None);
  Alcotest.(check bool) "case insensitive" true (Policy.kind_of_string "odv" = Some Policy.Odv)

let test_optimistic_classification () =
  Alcotest.(check (list bool)) "optimistic flags"
    [ false; false; false; true; false; true ]
    (List.map Policy.is_optimistic Policy.all_kinds)

let test_mcv_simple_majority () =
  let p = make Policy.Mcv in
  Alcotest.(check bool) "3 of 3" true (Policy.is_available p (view [ [ 0; 1; 2 ] ]));
  Alcotest.(check bool) "2 of 3" true (Policy.is_available p (view [ [ 0; 2 ]; [ 1 ] ]));
  Alcotest.(check bool) "1 of 3" false (Policy.is_available p (view [ [ 2 ] ]));
  Alcotest.(check bool) "split 1/1/1" false
    (Policy.is_available p (view [ [ 0 ]; [ 1 ]; [ 2 ] ]))

let test_mcv_even_tie_break () =
  let p = make ~universe:[ 0; 1; 2; 3 ] Policy.Mcv in
  (* Exactly half, holding site 0 (the maximum): available. *)
  Alcotest.(check bool) "half with max" true
    (Policy.is_available p (view [ [ 0; 1 ]; [ 2; 3 ] ]));
  (* The complementary half is not. *)
  Alcotest.(check bool) "half without max" false
    (Policy.is_available p (view [ [ 2; 3 ] ]));
  Alcotest.(check bool) "three of four" true (Policy.is_available p (view [ [ 1; 2; 3 ] ]))

let test_mcv_is_static () =
  let p = make Policy.Mcv in
  (* Quorums never adjust: repeated failures below majority always deny. *)
  Policy.handle_topology_change p (view [ [ 0; 1 ] ]);
  Policy.handle_topology_change p (view [ [ 0 ] ]);
  Alcotest.(check bool) "single copy never enough" false
    (Policy.is_available p (view [ [ 0 ] ]))

let test_dv_adapts () =
  let p = make Policy.Dv in
  (* 3 up -> 1 fails (instantaneous refresh shrinks quorum to {0,1}) *)
  Policy.handle_topology_change p (view [ [ 0; 1 ] ]);
  Alcotest.(check bool) "two of three" true (Policy.is_available p (view [ [ 0; 1 ] ]));
  (* Another failure: {0} is half of {0,1} — plain DV cannot proceed. *)
  Policy.handle_topology_change p (view [ [ 0 ] ]);
  Alcotest.(check bool) "tie unresolved" false (Policy.is_available p (view [ [ 0 ] ]))

let test_ldv_breaks_tie () =
  let p = make Policy.Ldv in
  Policy.handle_topology_change p (view [ [ 0; 1 ] ]);
  Policy.handle_topology_change p (view [ [ 0 ] ]);
  Alcotest.(check bool) "site 0 carries the tie" true (Policy.is_available p (view [ [ 0 ] ]));
  (* The mirror image: sites 1 then 0 fail; site 2 cannot carry it. *)
  let p = make Policy.Ldv in
  Policy.handle_topology_change p (view [ [ 1; 2 ] ]);
  Policy.handle_topology_change p (view [ [ 2 ] ]);
  Alcotest.(check bool) "site 2 loses the tie" false (Policy.is_available p (view [ [ 2 ] ]))

let test_dv_recovers_when_majority_returns () =
  let p = make Policy.Dv in
  Policy.handle_topology_change p (view [ [ 0; 1 ] ]);
  Policy.handle_topology_change p (view [ [ 0 ] ]);
  Alcotest.(check bool) "down" false (Policy.is_available p (view [ [ 0 ] ]));
  (* Site 1 repairs: {0,1} is again a majority of the block {0,1}. *)
  Policy.handle_topology_change p (view [ [ 0; 1 ] ]);
  Alcotest.(check bool) "back up" true (Policy.is_available p (view [ [ 0; 1 ] ]))

(* The optimistic policy keeps the stale quorum until an access happens —
   which is exactly what saves it when the partition heals first. *)
let test_odv_stale_quorum_semantics () =
  let p = make Policy.Odv in
  (* Site 0 fails; no access happens; ODV still has P = {0,1,2}. *)
  Policy.handle_topology_change p (view [ [ 1; 2 ] ]);
  Alcotest.(check bool) "still available on stale P" true
    (Policy.is_available p (view [ [ 1; 2 ] ]));
  (* Now site 1 also fails before any access: {2} is 1 of 3 — denied
     (LDV, having refreshed to {1,2} on the first failure, would also deny;
     but with P={0,1,2} a lone site denies too). *)
  Alcotest.(check bool) "one of three denied" false (Policy.is_available p (view [ [ 2 ] ]));
  (* Replay: failure of 0, then an access commits P = {1,2}, then 1 fails:
     {2} loses the tie to 1.  Still denied — but for the tie reason. *)
  let p = make Policy.Odv in
  Policy.handle_topology_change p (view [ [ 1; 2 ] ]);
  Alcotest.(check bool) "access granted" true (Policy.handle_access p (view [ [ 1; 2 ] ]));
  Alcotest.check replica_testable "access committed P={1,2}"
    (Replica.make ~op_no:2 ~version:1 ~partition:(ss [ 1; 2 ]))
    (Policy.replica p 1);
  Alcotest.(check bool) "2 loses tie to 1" false (Policy.is_available p (view [ [ 2 ] ]));
  (* Mirror: had site 2 failed instead, site 1 would carry the tie. *)
  Alcotest.(check bool) "1 carries tie" true (Policy.is_available p (view [ [ 1 ] ]))

(* ODV's advantage (the paper's configuration F discussion): a fast-
   repairing site fails; LDV immediately shrinks the quorum, ODV (with no
   access in between) does not.  A gateway holding a copy then fails,
   partitioning the survivors.  When the fast site returns, ODV's full
   partition set lets the pair {0,1} win the even-split tie, while LDV's
   shrunken quorum {1,3,5} leaves every group below a majority until the
   slow gateway is repaired. *)
let test_odv_beats_ldv_without_access () =
  let universe = [ 0; 1; 3; 5 ] in
  let odv = make ~universe Policy.Odv in
  let ldv = make ~universe Policy.Ldv in
  let feed p v = Policy.handle_topology_change p (view v) in
  (* Site 0 (fast repair) fails. *)
  feed odv [ [ 1; 3; 5 ] ];
  feed ldv [ [ 1; 3; 5 ] ];
  (* Gateway site 3 fails too, splitting 1 from 5. *)
  feed odv [ [ 1 ]; [ 5 ] ];
  feed ldv [ [ 1 ]; [ 5 ] ];
  Alcotest.(check bool) "both down during the double outage" false
    (Policy.is_available odv (view [ [ 1 ]; [ 5 ] ])
    || Policy.is_available ldv (view [ [ 1 ]; [ 5 ] ]));
  (* Site 0 returns (site 3 still down): components {0,1} and {5}. *)
  feed odv [ [ 0; 1 ]; [ 5 ] ];
  feed ldv [ [ 0; 1 ]; [ 5 ] ];
  Alcotest.(check bool) "ODV rides through on the stale quorum" true
    (Policy.is_available odv (view [ [ 0; 1 ]; [ 5 ] ]));
  Alcotest.(check bool) "LDV stuck until the gateway repairs" false
    (Policy.is_available ldv (view [ [ 0; 1 ]; [ 5 ] ]))

(* The two recovery disciplines for optimistic policies: reintegration at
   the next access (default) vs immediately at repair (Figure 3's retry
   loop). *)
let test_odv_recovery_disciplines () =
  let run recovery =
    let p =
      Policy.create ~recovery Policy.Odv ~universe:(ss [ 0; 1; 2 ]) ~n_sites:8
        ~segment_of:one_segment ~ordering
    in
    (* Site 2 fails; an access shrinks the quorum to {0, 1}. *)
    Policy.handle_topology_change p (view [ [ 0; 1 ] ]);
    ignore (Policy.handle_access p (view [ [ 0; 1 ] ]));
    Alcotest.check set_testable "quorum shrank" (ss [ 0; 1 ])
      (Replica.partition (Policy.replica p 0));
    (* Site 2 repairs. *)
    Policy.handle_topology_change p (view [ [ 0; 1; 2 ] ]);
    Policy.handle_repair p (view [ [ 0; 1; 2 ] ]) ~site:2;
    Replica.partition (Policy.replica p 0)
  in
  Alcotest.check set_testable "at-access: still {0,1} until the next access"
    (ss [ 0; 1 ]) (run `At_access);
  Alcotest.check set_testable "at-repair: reintegrated immediately"
    (ss [ 0; 1; 2 ]) (run `At_repair)

let test_recovery_at_repair_denied_in_minority () =
  let p =
    Policy.create ~recovery:`At_repair Policy.Odv ~universe:(ss [ 0; 1; 2 ]) ~n_sites:8
      ~segment_of:one_segment ~ordering
  in
  (* Quorum shrinks to {0, 1}; then both fail; 2 restarts alone. *)
  Policy.handle_topology_change p (view [ [ 0; 1 ] ]);
  ignore (Policy.handle_access p (view [ [ 0; 1 ] ]));
  Policy.handle_topology_change p (view []);
  Policy.handle_topology_change p (view [ [ 2 ] ]);
  Policy.handle_repair p (view [ [ 2 ] ]) ~site:2;
  Alcotest.(check bool) "stale lone site cannot rejoin" false
    (Policy.is_available p (view [ [ 2 ] ]));
  Alcotest.check set_testable "its state is untouched" (ss [ 0; 1; 2 ])
    (Replica.partition (Policy.replica p 2))

let segmented site = match site with 0 | 1 -> 0 | 2 -> 1 | _ -> 2

let test_tdv_carries_segment_votes () =
  let p = make ~universe:[ 0; 1; 2 ] ~segment_of:segmented Policy.Tdv in
  (* Sites 0, 1 share a segment; 2 is alone.  0 fails: 1 claims 0's vote
     immediately (2 of 3 counted: itself plus the dead 0). *)
  Policy.handle_topology_change p (view [ [ 1; 2 ] ]);
  Policy.handle_topology_change p (view [ [ 1 ] ]);
  Alcotest.(check bool) "1 alone, claiming 0" true (Policy.is_available p (view [ [ 1 ] ]))

(* Freshness at the policy level: with all copies on one segment, TDV acts
   as available copy — and a stale restarted site must NOT resurrect the
   file while the real last copy is still down. *)
let test_tdv_freshness_blocks_resurrection () =
  let p =
    Policy.create ~flavor:Decision.tdv_safe_flavor Policy.Tdv ~universe:(ss [ 0; 1; 2 ])
      ~n_sites:8 ~segment_of:one_segment ~ordering
  in
  let feed v = Policy.handle_topology_change p (view v) in
  feed [ [ 1; 2 ] ]; (* 0 fails; block -> {1,2} *)
  feed [ [ 2 ] ];    (* 1 fails; 2 claims 1's vote; block -> {2} *)
  feed [];           (* 2 fails: everyone down *)
  feed [ [ 0 ] ];    (* 0 restarts, stale and not fresh *)
  Alcotest.(check bool) "stale restart cannot resurrect" false
    (Policy.is_available p (view [ [ 0 ] ]));
  feed [ [ 0; 2 ] ]; (* the real last copy returns *)
  Alcotest.(check bool) "block member's return restores the file" true
    (Policy.is_available p (view [ [ 0; 2 ] ]));
  Alcotest.check set_testable "both fresh again" (ss [ 0; 2 ]) (Policy.fresh p)

let test_mutual_exclusion_across_components () =
  (* Feed views with several components; assert at most one grants.  The
     partition separates {0,1} from {2,3}, so give each pair its own
     segment — a partition may not split a segment (TDV's requirement). *)
  let segment_of site = if site <= 1 then 0 else 1 in
  List.iter
    (fun kind ->
      let p = make ~universe:[ 0; 1; 2; 3 ] ~segment_of kind in
      let v = view [ [ 0; 1 ]; [ 2; 3 ] ] in
      Policy.handle_topology_change p v;
      let granted_groups =
        List.filter
          (fun c -> Policy.is_available p { Policy.components = [ ss c ] })
          [ [ 0; 1 ]; [ 2; 3 ] ]
      in
      Alcotest.(check bool)
        (Policy.kind_name kind ^ ": at most one side granted")
        true
        (List.length granted_groups <= 1))
    Policy.all_kinds

(* Safety sweep: across random segmented topologies, random copy
   placements and random failure/repair walks, no policy ever grants two
   disjoint groups at once.  TDV runs in its safe flavor (the paper-literal
   flavor is knowingly unsafe under restarts, demonstrated elsewhere). *)
module Topology_gen = Dynvote_net.Topology_gen
module Connectivity = Dynvote_net.Connectivity
module Net_topology = Dynvote_net.Topology

let prop_safety_sweep =
  qcheck_case ~count:200 ~name:"no double grant on random topologies"
    QCheck.small_int
    (fun seed ->
      let rng = Dynvote_prng.Rng.of_seed (seed * 7919) in
      let topology = Topology_gen.random rng in
      let n_sites = Net_topology.n_sites topology in
      let universe = Topology_gen.random_placement rng topology in
      let connectivity = Connectivity.create topology in
      let ordering = Ordering.default n_sites in
      let policies =
        List.map
          (fun kind ->
            let flavor =
              match kind with
              | Policy.Tdv | Policy.Otdv -> Some Decision.tdv_safe_flavor
              | _ -> None
            in
            Policy.create ?flavor kind ~universe ~n_sites
              ~segment_of:(Net_topology.segment_of topology) ~ordering)
          Policy.all_kinds
      in
      let up = ref (Net_topology.all_sites topology) in
      let ok = ref true in
      for _ = 1 to 40 do
        (* Toggle one random site. *)
        let site = Dynvote_prng.Rng.int rng n_sites in
        up :=
          (if Site_set.mem site !up then Site_set.remove site !up
           else Site_set.add site !up);
        let v = Connectivity.view connectivity ~up:!up in
        List.iter
          (fun p ->
            Policy.handle_topology_change p v;
            if Site_set.mem site !up then Policy.handle_repair p v ~site;
            (* Occasionally deliver an access (drives the optimistic
               policies' commits). *)
            if Dynvote_prng.Rng.bool rng then ignore (Policy.handle_access p v);
            (* Mutual exclusion: probe each live component separately. *)
            let grants =
              List.filter
                (fun component ->
                  Policy.is_available p { Policy.components = [ component ] })
                v.Policy.components
            in
            if List.length grants > 1 then ok := false)
          policies
      done;
      !ok)

(* The settled-refresh rule: right after [handle_topology_change v], the
   instantaneous policies answer [is_available v] from that refresh, with
   no probe.  A structurally equal copy of [v] is not the same view, so it
   forces a real probe; the two answers must agree, over random
   failure/repair walks on the Figure 8 topology and random copy sets. *)
let prop_settled_refresh =
  qcheck_case ~count:200 ~name:"settled refresh answers as a real probe"
    QCheck.small_int
    (fun seed ->
      let rng = Dynvote_prng.Rng.of_seed ((seed * 104_729) + 11) in
      let topology = Net_topology.ucsd in
      let n_sites = Net_topology.n_sites topology in
      let all = Net_topology.all_sites topology in
      let connectivity = Connectivity.create topology in
      let universe =
        match Site_set.filter (fun _ -> Dynvote_prng.Rng.bool rng) all with
        | u when Site_set.is_empty u -> Site_set.singleton (Dynvote_prng.Rng.int rng n_sites)
        | u -> u
      in
      let policies =
        List.map
          (fun (kind, flavor) ->
            Policy.create ?flavor kind ~universe ~n_sites
              ~segment_of:(Net_topology.segment_of topology) ~ordering)
          [ (Policy.Dv, None); (Policy.Ldv, None); (Policy.Tdv, None);
            (Policy.Tdv, Some Decision.tdv_safe_flavor) ]
      in
      let up = ref all and ok = ref true in
      for _ = 1 to 60 do
        let site = Dynvote_prng.Rng.int rng n_sites in
        up :=
          (if Site_set.mem site !up then Site_set.remove site !up
           else Site_set.add site !up);
        let v = Connectivity.view connectivity ~up:!up in
        List.iter
          (fun p ->
            Policy.handle_topology_change p v;
            let settled = Policy.is_available p v in
            let probed = Policy.is_available p { Policy.components = v.Policy.components } in
            if settled <> probed then ok := false)
          policies
      done;
      !ok)

let test_create_validation () =
  Alcotest.check_raises "empty universe" (Invalid_argument "Policy.create: empty universe")
    (fun () ->
      ignore
        (Policy.create Policy.Mcv ~universe:Site_set.empty ~n_sites:8
           ~segment_of:one_segment ~ordering))

let suite =
  [
    Alcotest.test_case "kind names" `Quick test_kind_names;
    Alcotest.test_case "optimistic classification" `Quick test_optimistic_classification;
    Alcotest.test_case "MCV simple majority" `Quick test_mcv_simple_majority;
    Alcotest.test_case "MCV even-split tie-break" `Quick test_mcv_even_tie_break;
    Alcotest.test_case "MCV is static" `Quick test_mcv_is_static;
    Alcotest.test_case "DV adapts quorums" `Quick test_dv_adapts;
    Alcotest.test_case "LDV breaks ties" `Quick test_ldv_breaks_tie;
    Alcotest.test_case "DV recovers with majority" `Quick test_dv_recovers_when_majority_returns;
    Alcotest.test_case "ODV stale-quorum semantics" `Quick test_odv_stale_quorum_semantics;
    Alcotest.test_case "ODV vs LDV without accesses" `Quick test_odv_beats_ldv_without_access;
    Alcotest.test_case "TDV carries segment votes" `Quick test_tdv_carries_segment_votes;
    Alcotest.test_case "ODV recovery disciplines" `Quick test_odv_recovery_disciplines;
    Alcotest.test_case "at-repair recovery denied in minority" `Quick
      test_recovery_at_repair_denied_in_minority;
    Alcotest.test_case "TDV freshness blocks resurrection" `Quick
      test_tdv_freshness_blocks_resurrection;
    Alcotest.test_case "mutual exclusion across components" `Quick
      test_mutual_exclusion_across_components;
    Alcotest.test_case "creation validation" `Quick test_create_validation;
    prop_safety_sweep;
    prop_settled_refresh;
  ]
