(* Decision: Algorithm 1 with all three flavors, including the worked
   states of the paper's §2 and §3, and the central mutual-exclusion
   property. *)

open Helpers

let ordering8 = Ordering.default 8
let same_segment = fun _ -> 0

let eval ?(flavor = Decision.ldv_flavor) ?(segment_of = same_segment) ?fresh states reachable
    =
  Decision.evaluate flavor ~ordering:ordering8 ~segment_of ?fresh ~states
    ~reachable:(ss reachable) ()

let granted = function Decision.Granted _ -> true | Decision.Denied _ -> false

(* Initial state: everyone participates, any single majority works. *)
let test_initial_majority () =
  let states = states ~universe:[ 0; 1; 2 ] [] in
  Alcotest.(check bool) "all three" true (granted (eval states [ 0; 1; 2 ]));
  Alcotest.(check bool) "two of three" true (granted (eval states [ 0; 2 ]));
  Alcotest.(check bool) "one of three" false (granted (eval states [ 1 ]))

let test_empty_reachable () =
  let states = states ~universe:[ 0; 1; 2 ] [] in
  match eval states [] with
  | Decision.Denied Decision.No_reachable_copy -> ()
  | v -> Alcotest.failf "expected No_reachable_copy, got %a" Decision.pp_verdict v

(* The paper's §2 walkthrough: after B fails and the quorum shrank to
   {A, C}, the A-C link fails.  A alone wins the tie (A > C); C loses. *)
let test_paper_tie_break () =
  let states =
    states ~universe:[ 0; 1; 2 ]
      [ (0, 11, 11, [ 0; 2 ]); (2, 11, 11, [ 0; 2 ]); (1, 8, 8, [ 0; 1; 2 ]) ]
  in
  Alcotest.(check bool) "A alone wins the tie" true (granted (eval states [ 0 ]));
  Alcotest.(check bool) "C alone loses the tie" false (granted (eval states [ 2 ]));
  (match eval states [ 2 ] with
  | Decision.Denied (Decision.Tie_lost { max_element }) ->
      Alcotest.(check int) "tie lost to A" 0 max_element
  | v -> Alcotest.failf "expected Tie_lost, got %a" Decision.pp_verdict v);
  (* Plain DV cannot break the tie on either side. *)
  (match eval ~flavor:Decision.dv_flavor states [ 0 ] with
  | Decision.Denied Decision.Tie_unbroken -> ()
  | v -> Alcotest.failf "expected Tie_unbroken, got %a" Decision.pp_verdict v);
  Alcotest.(check bool) "DV: C denied too" false
    (granted (eval ~flavor:Decision.dv_flavor states [ 2 ]))

(* The stale copy B cannot grant against the advanced quorum {A, C}. *)
let test_stale_minority () =
  let states =
    states ~universe:[ 0; 1; 2 ]
      [ (0, 11, 11, [ 0; 2 ]); (2, 11, 11, [ 0; 2 ]); (1, 8, 8, [ 0; 1; 2 ]) ]
  in
  (match eval states [ 1 ] with
  | Decision.Denied (Decision.Below_majority { have; quorum_size }) ->
      Alcotest.(check int) "one supporter" 1 have;
      Alcotest.(check int) "of three" 3 quorum_size
  | v -> Alcotest.failf "expected Below_majority, got %a" Decision.pp_verdict v);
  (* B together with a current copy is decided by the current copy's
     partition set — {A, C} — so {B, C} holds half with C not the max... *)
  Alcotest.(check bool) "B+C: tie lost (A is max)" false (granted (eval states [ 1; 2 ]));
  (* ...while {A, B} holds the max element A. *)
  Alcotest.(check bool) "A+B: tie won" true (granted (eval states [ 0; 1 ]))

let test_q_and_s_fields () =
  let states =
    states ~universe:[ 0; 1; 2 ]
      [ (0, 12, 11, [ 0; 2 ]); (2, 12, 11, [ 0; 2 ]); (1, 8, 8, [ 0; 1; 2 ]) ]
  in
  match eval states [ 0; 1; 2 ] with
  | Decision.Granted g ->
      Alcotest.check set_testable "Q = current sites" (ss [ 0; 2 ]) g.Decision.q;
      Alcotest.check set_testable "S = max version" (ss [ 0; 2 ]) g.Decision.s;
      Alcotest.check set_testable "P_m" (ss [ 0; 2 ]) g.Decision.p_m
  | v -> Alcotest.failf "expected grant, got %a" Decision.pp_verdict v

(* S can be wider than Q: a copy that missed read-quorum updates (lower o)
   but holds the newest data (same v). *)
let test_s_wider_than_q () =
  let states =
    states ~universe:[ 0; 1; 2 ]
      [ (0, 12, 9, [ 0; 2 ]); (2, 12, 9, [ 0; 2 ]); (1, 10, 9, [ 0; 1; 2 ]) ]
  in
  match eval states [ 0; 1; 2 ] with
  | Decision.Granted g ->
      Alcotest.check set_testable "Q excludes the op-stale copy" (ss [ 0; 2 ]) g.Decision.q;
      Alcotest.check set_testable "S includes it" (ss [ 0; 1; 2 ]) g.Decision.s
  | v -> Alcotest.failf "expected grant, got %a" Decision.pp_verdict v

(* §3 topological example: A and B on segment alpha, C on gamma, D on
   delta.  With quorum {A, B}, B alone can claim A's vote. *)
let segment_3 site = match site with 0 | 1 -> 0 | 2 -> 1 | _ -> 2

let test_topological_claim () =
  let states =
    states ~universe:[ 0; 1; 2; 3 ]
      [
        (0, 15, 15, [ 0; 1 ]); (1, 15, 15, [ 0; 1 ]);
        (2, 11, 11, [ 0; 1; 2 ]); (3, 8, 8, [ 0; 1; 2; 3 ]);
      ]
  in
  (* Under LDV, B alone loses the tie to A... *)
  Alcotest.(check bool) "LDV: B alone denied" false
    (granted (eval ~segment_of:segment_3 states [ 1 ]));
  (* ...but under TDV, B claims A's vote since they share segment alpha. *)
  (match eval ~flavor:Decision.tdv_flavor ~segment_of:segment_3 states [ 1 ] with
  | Decision.Granted g ->
      Alcotest.check set_testable "claimed set is {A, B}" (ss [ 0; 1 ]) g.Decision.claimed
  | v -> Alcotest.failf "expected TDV grant, got %a" Decision.pp_verdict v);
  (* C cannot claim anything: it is alone on its segment. *)
  Alcotest.(check bool) "TDV: C alone denied" false
    (granted (eval ~flavor:Decision.tdv_flavor ~segment_of:segment_3 states [ 2 ]))

(* A claimed dead site cannot carry the lexicographic tie-break: with
   P_m = {A, B, C, D}, A+B down, C claiming nothing... arrange a tie where
   T reaches exactly half through claiming but max(P_m) is dead. *)
let test_claimed_votes_no_tie_break () =
  (* A, B share a segment; C, D share another.  P = {A,B,C,D}.  C alone:
     T = {C, D} = half, but max(P) = A is not in Q = {C}. *)
  let seg site = if site <= 1 then 0 else 1 in
  let states = states ~universe:[ 0; 1; 2; 3 ] [] in
  (match eval ~flavor:Decision.tdv_flavor ~segment_of:seg states [ 2 ] with
  | Decision.Denied (Decision.Tie_lost _) -> ()
  | v -> Alcotest.failf "expected Tie_lost, got %a" Decision.pp_verdict v);
  (* A alone: T = {A, B} = half and A = max(P) is present: granted. *)
  Alcotest.(check bool) "A claims B and wins tie" true
    (granted (eval ~flavor:Decision.tdv_flavor ~segment_of:seg states [ 0 ]))

(* The freshness condition: a restarted (non-fresh) site cannot claim dead
   same-segment votes.  Without the condition, site 0 — which crashed at
   o = 5 and restarted while the real majority block {2} (o = 9) is down —
   would claim its dead segment-mates and resurrect the file with stale
   data. *)
let test_stale_site_cannot_resurrect () =
  let states =
    states ~universe:[ 0; 1; 2 ]
      [ (0, 5, 5, [ 0; 1; 2 ]); (1, 7, 7, [ 1; 2 ]); (2, 9, 9, [ 2 ]) ]
  in
  (* Site 0 restarted: it is reachable but not fresh. *)
  (match
     eval ~flavor:Decision.tdv_safe_flavor ~fresh:Site_set.empty states [ 0 ]
   with
  | Decision.Denied (Decision.Rival_possible { rivals }) ->
      (* The dead sites 1 and 2 — unsilenced, since nobody here is fresh —
         could have continued the file by claiming their segment-mates. *)
      Alcotest.check set_testable "rival lineage identified" (ss [ 0; 1; 2 ]) rivals
  | v -> Alcotest.failf "expected Rival_possible, got %a" Decision.pp_verdict v);
  (* The figure-literal flavor grants here even when told nobody is fresh
     — documenting exactly the split-brain the safe variant prevents. *)
  Alcotest.(check bool) "paper flavor is unsafe here" true
    (granted (eval ~flavor:Decision.tdv_flavor ~fresh:Site_set.empty states [ 0 ]));
  (* The true majority block member restarting alone *can* proceed: it is
     a majority of its own (singleton) quorum, no claiming needed. *)
  Alcotest.(check bool) "block member restarts fine" true
    (granted (eval ~flavor:Decision.tdv_safe_flavor ~fresh:Site_set.empty states [ 2 ]))

(* When every copy shares one segment, TDV degenerates to available copy:
   any single live quorum member suffices. *)
let test_tdv_available_copy_degeneration () =
  let states = states ~universe:[ 0; 1; 2; 3 ] [] in
  List.iter
    (fun site ->
      Alcotest.(check bool)
        (Printf.sprintf "site %d alone suffices" site)
        true
        (granted (eval ~flavor:Decision.tdv_flavor ~segment_of:same_segment states [ site ])))
    [ 0; 1; 2; 3 ]

(* Mutual exclusion: whatever the (reachable-consistent) replica states,
   no two disjoint groups are granted simultaneously.  We generate states
   by running random refresh histories — which is how reachable states
   arise — then test every 2-partition of the universe. *)

let random_history_states rng n_ops =
  let universe = ss [ 0; 1; 2; 3; 4 ] in
  let arr = Array.make 8 (Replica.initial universe) in
  let ctx =
    { Operation.flavor = Decision.ldv_flavor; ordering = ordering8; segment_of = same_segment }
  in
  for _ = 1 to n_ops do
    (* Random subset as the live component. *)
    let live =
      Site_set.filter (fun _ -> QCheck.Gen.bool rng) universe
    in
    if not (Site_set.is_empty live) then ignore (Operation.refresh ctx arr ~reachable:live ())
  done;
  arr

let arb_history_states =
  QCheck.make
    (QCheck.Gen.map
       (fun (seed_ops : int) ->
         let rng = Random.State.make [| seed_ops |] in
         random_history_states rng (5 + (seed_ops mod 20)))
       QCheck.Gen.(0 -- 10_000))
    ~print:(fun arr ->
      String.concat "; "
        (List.init 5 (fun i -> Fmt.str "%d:%a" i Replica.pp arr.(i))))

let all_two_partitions universe =
  let members = Site_set.to_list universe in
  let n = List.length members in
  let out = ref [] in
  for mask = 1 to (1 lsl n) - 2 do
    let a =
      List.fold_left
        (fun (i, acc) site ->
          (i + 1, if mask land (1 lsl i) <> 0 then Site_set.add site acc else acc))
        (0, Site_set.empty) members
      |> snd
    in
    let b = Site_set.diff universe a in
    out := (a, b) :: !out
  done;
  !out

(* Physically possible partitions never split a segment (carrier-sense
   networks cannot partition internally) — the assumption TDV's safety
   rests on. *)
let segment_respecting partitions segment_of =
  List.filter
    (fun (a, b) ->
      let intact side =
        Site_set.for_all
          (fun i ->
            Site_set.for_all
              (fun j -> segment_of i <> segment_of j || Site_set.mem j side)
              (Site_set.union a b))
          side
      in
      intact a && intact b)
    partitions

let mutual_exclusion_prop ?(respect_segments = false) flavor segment_of states =
  let universe = ss [ 0; 1; 2; 3; 4 ] in
  let partitions = all_two_partitions universe in
  let partitions =
    if respect_segments then segment_respecting partitions segment_of else partitions
  in
  List.for_all
    (fun (a, b) ->
      let va =
        Decision.evaluate flavor ~ordering:ordering8 ~segment_of ~states ~reachable:a ()
      in
      let vb =
        Decision.evaluate flavor ~ordering:ordering8 ~segment_of ~states ~reachable:b ()
      in
      not (Decision.is_granted va && Decision.is_granted vb))
    partitions

let seg_mixed site = match site with 0 | 1 -> 0 | 2 | 3 -> 1 | _ -> 2

(* The flip side: if a partition could split a segment, TDV would grant two
   disjoint groups — demonstrating why the indivisible-segment assumption
   is load-bearing. *)
let test_tdv_unsafe_on_split_segment () =
  let states = Array.make 8 (Replica.initial (ss [ 0; 1 ])) in
  let seg = fun _ -> 0 in
  let eval r =
    Decision.evaluate Decision.tdv_flavor ~ordering:ordering8 ~segment_of:seg ~states
      ~reachable:(ss r) ()
  in
  Alcotest.(check bool) "left half grants" true (Decision.is_granted (eval [ 0 ]));
  Alcotest.(check bool) "right half grants too" true (Decision.is_granted (eval [ 1 ]))

(* The reference decision rule: Algorithm 1 as first written here, with
   tuple maxima and list-based same-segment tests.  [Decision.evaluate]
   computes the same sets with allocation-free bit loops and must return
   the very same verdict on any input. *)
module Reference = struct
  let op_maxima states r =
    Site_set.fold
      (fun site ((best, set) as acc) ->
        let o = Replica.op_no states.(site) in
        if o > best then (o, Site_set.singleton site)
        else if o = best then (best, Site_set.add site set)
        else acc)
      r
      (min_int, Site_set.empty)

  let version_maxima states r =
    Site_set.fold
      (fun site ((best, set) as acc) ->
        let v = Replica.version states.(site) in
        if v > best then (v, Site_set.singleton site)
        else if v = best then (best, Site_set.add site set)
        else acc)
      r
      (min_int, Site_set.empty)

  let claimed_votes ~segment_of ~p_m ~r ~fresh ~q =
    let sponsors = Site_set.inter (Site_set.inter p_m r) fresh in
    let sponsor_segments =
      Site_set.fold (fun site acc -> segment_of site :: acc) sponsors []
    in
    Site_set.union q
      (Site_set.filter (fun site -> List.mem (segment_of site) sponsor_segments) p_m)

  let rival_claimants ~segment_of ~ordering ~p_m ~r ~q ~fresh =
    let d = Site_set.diff p_m r in
    let witnesses = Site_set.inter q fresh in
    let witness_segments =
      Site_set.fold (fun site acc -> segment_of site :: acc) witnesses []
    in
    let d_eff =
      Site_set.filter (fun i -> not (List.mem (segment_of i) witness_segments)) d
    in
    if Site_set.is_empty d_eff then None
    else begin
      let rival_segments =
        Site_set.fold (fun site acc -> segment_of site :: acc) d_eff []
      in
      let rival =
        Site_set.union d_eff
          (Site_set.filter (fun j -> List.mem (segment_of j) rival_segments) p_m)
      in
      let have = 2 * Site_set.cardinal rival in
      let size = Site_set.cardinal p_m in
      if
        have > size
        || (have = size && Site_set.mem (Ordering.max_element ordering p_m) d_eff)
      then Some rival
      else None
    end

  let evaluate (flavor : Decision.flavor) ~ordering ~segment_of ?fresh ~states ~reachable:r
      () =
    if Site_set.is_empty r then Decision.Denied Decision.No_reachable_copy
    else begin
      let fresh = if flavor.safe_claims then Option.value fresh ~default:r else r in
      let _, q = op_maxima states r in
      let _, s = version_maxima states r in
      let m = Site_set.min_elt q in
      let p_m = Replica.partition states.(m) in
      let claimed =
        if flavor.topological then claimed_votes ~segment_of ~p_m ~r ~fresh ~q else q
      in
      let rival =
        if flavor.topological && flavor.safe_claims then
          rival_claimants ~segment_of ~ordering ~p_m ~r ~q ~fresh
        else None
      in
      match rival with
      | Some rivals -> Decision.Denied (Decision.Rival_possible { rivals })
      | None ->
          let have = Site_set.cardinal claimed in
          let quorum_size = Site_set.cardinal p_m in
          let grant = Decision.Granted { Decision.q; s; m; p_m; claimed } in
          if 2 * have > quorum_size then grant
          else if 2 * have = quorum_size then begin
            if not flavor.tie_break then Decision.Denied Decision.Tie_unbroken
            else begin
              let max_element = Ordering.max_element ordering p_m in
              let claim_proof =
                (not flavor.topological)
                || (not flavor.safe_claims)
                || Site_set.mem max_element fresh
                || Site_set.for_all
                     (fun j -> j = max_element || segment_of j <> segment_of max_element)
                     p_m
              in
              if Site_set.mem max_element q && claim_proof then grant
              else Decision.Denied (Decision.Tie_lost { max_element })
            end
          end
          else Decision.Denied (Decision.Below_majority { have; quorum_size })
    end
end

(* Random inputs over eight sites: arbitrary replica states (not only
   reachable ones), segments, a ranking, the reachable set and, half the
   time, a freshness set. *)
let arb_decision_input =
  let open QCheck.Gen in
  let set = map Site_set.of_int_unsafe (int_bound 255) in
  let replica =
    map3
      (fun op_no version partition -> Replica.make ~op_no ~version ~partition)
      (int_range 1 4) (int_range 1 3) set
  in
  QCheck.make
    (tup5 (array_size (return 8) replica) (array_size (return 8) (int_bound 2))
       (shuffle_l (List.init 8 Fun.id)) set (opt set))
    ~print:(fun (states, segments, ranking, reachable, fresh) ->
      Fmt.str "states [%a] segments [%a] ranking [%a] R=%a fresh=%a"
        Fmt.(array ~sep:(any "; ") Replica.pp) states
        Fmt.(array ~sep:(any " ") int) segments
        Fmt.(list ~sep:(any " ") int) ranking
        Site_set.pp reachable
        Fmt.(option ~none:(any "none") Site_set.pp) fresh)

let prop_matches_reference flavor (states, segments, ranking, reachable, fresh) =
  let ordering = Ordering.of_ranking ranking in
  let segment_of site = segments.(site) in
  Decision.evaluate flavor ~ordering ~segment_of ?fresh ~states ~reachable ()
  = Reference.evaluate flavor ~ordering ~segment_of ?fresh ~states ~reachable ()

let props =
  [
    qcheck_case ~count:1000 ~name:"same verdict as the reference (DV)" arb_decision_input
      (prop_matches_reference Decision.dv_flavor);
    qcheck_case ~count:1000 ~name:"same verdict as the reference (LDV)" arb_decision_input
      (prop_matches_reference Decision.ldv_flavor);
    qcheck_case ~count:1000 ~name:"same verdict as the reference (TDV)" arb_decision_input
      (prop_matches_reference Decision.tdv_flavor);
    qcheck_case ~count:1000 ~name:"same verdict as the reference (TDV-safe)"
      arb_decision_input
      (prop_matches_reference Decision.tdv_safe_flavor);
    qcheck_case ~count:300 ~name:"mutual exclusion (DV)" arb_history_states
      (mutual_exclusion_prop Decision.dv_flavor same_segment);
    qcheck_case ~count:300 ~name:"mutual exclusion (LDV)" arb_history_states
      (mutual_exclusion_prop Decision.ldv_flavor same_segment);
    qcheck_case ~count:300 ~name:"mutual exclusion (TDV, segment-respecting)"
      arb_history_states
      (mutual_exclusion_prop ~respect_segments:true Decision.tdv_flavor seg_mixed);
    qcheck_case ~count:300 ~name:"DV grants imply LDV grants" arb_history_states
      (fun states ->
        let universe = ss [ 0; 1; 2; 3; 4 ] in
        List.for_all
          (fun (a, _) ->
            let dv =
              Decision.evaluate Decision.dv_flavor ~ordering:ordering8
                ~segment_of:same_segment ~states ~reachable:a ()
            in
            let ldv =
              Decision.evaluate Decision.ldv_flavor ~ordering:ordering8
                ~segment_of:same_segment ~states ~reachable:a ()
            in
            (not (Decision.is_granted dv)) || Decision.is_granted ldv)
          (all_two_partitions universe));
  ]

let suite =
  [
    Alcotest.test_case "initial majority" `Quick test_initial_majority;
    Alcotest.test_case "empty reachable set" `Quick test_empty_reachable;
    Alcotest.test_case "paper tie-break (A beats C)" `Quick test_paper_tie_break;
    Alcotest.test_case "stale minority denied" `Quick test_stale_minority;
    Alcotest.test_case "Q and S fields" `Quick test_q_and_s_fields;
    Alcotest.test_case "S wider than Q" `Quick test_s_wider_than_q;
    Alcotest.test_case "topological vote claiming" `Quick test_topological_claim;
    Alcotest.test_case "claimed votes cannot tie-break" `Quick test_claimed_votes_no_tie_break;
    Alcotest.test_case "stale site cannot resurrect (freshness)" `Quick
      test_stale_site_cannot_resurrect;
    Alcotest.test_case "TDV degenerates to available copy" `Quick
      test_tdv_available_copy_degeneration;
    Alcotest.test_case "TDV unsafe if a segment could split" `Quick
      test_tdv_unsafe_on_split_segment;
  ]
  @ props
