(* The six consistency policies compared in the paper's Table 2, packaged
   as state machines driven by connectivity views.

   A view is the partition of the *live* sites of the whole network into
   mutually communicating components.  Policies only care about the sites
   holding copies (their universe); other sites are ignored.

   The unified execution model (paper §2 and §4):

   - MCV is stateless: the file is available iff some component contains a
     strict majority of all copies.
   - DV, LDV and TDV assume instantaneous state information: we run a
     quorum refresh on every topology change.
   - ODV and OTDV operate on possibly stale information: the refresh runs
     only when the file is accessed (once a day in the paper's study).

   The decision rules differ per {!Decision.flavor}. *)

type kind = Mcv | Dv | Ldv | Odv | Tdv | Otdv

let all_kinds = [ Mcv; Dv; Ldv; Odv; Tdv; Otdv ]

let kind_name = function
  | Mcv -> "MCV"
  | Dv -> "DV"
  | Ldv -> "LDV"
  | Odv -> "ODV"
  | Tdv -> "TDV"
  | Otdv -> "OTDV"

let kind_of_string s =
  match String.uppercase_ascii s with
  | "MCV" -> Some Mcv
  | "DV" -> Some Dv
  | "LDV" -> Some Ldv
  | "ODV" -> Some Odv
  | "TDV" -> Some Tdv
  | "OTDV" -> Some Otdv
  | _ -> None

let is_optimistic = function Odv | Otdv -> true | Mcv | Dv | Ldv | Tdv -> false

let flavor_of_kind = function
  | Mcv -> None
  | Dv -> Some Decision.dv_flavor
  | Ldv | Odv -> Some Decision.ldv_flavor
  | Tdv | Otdv -> Some Decision.tdv_flavor

type view = { components : Site_set.t list }
(** Partition of the live sites into mutually communicating groups. *)

(* When does a repaired site run its RECOVER protocol (Figure 3, "repeat
   until successful")?  [`At_access] folds recovery into the next file
   access — the least message traffic, and this project's default reading
   of the optimistic algorithms.  [`At_repair] lets the recovering site
   drive its reintegration immediately, as the figure's retry loop
   suggests; quorums then still shrink lazily but grow eagerly.  The
   instantaneous policies refresh on every event either way. *)
type recovery = [ `At_access | `At_repair ]

type t = {
  kind : kind;
  universe : Site_set.t; (* the sites holding copies *)
  ctx : Operation.ctx;   (* unused by MCV *)
  states : Replica.t array;
  majority : int;        (* MCV quorum: strict majority of all copies *)
  recovery : recovery;
  (* Sites continuously up since their last commit — the sponsors allowed
     to claim dead same-segment votes under TDV/OTDV (see Decision). *)
  mutable fresh : Site_set.t;
  (* The view the last [handle_topology_change] refreshed (DV/LDV/TDV)
     and whether that refresh granted; see [is_available]. *)
  mutable settled_view : view;
  mutable settled : bool;
}

(* No component, so no grant: the answer [settled] starts with. *)
let no_view = { components = [] }

let create ?flavor ?(recovery = `At_access) kind ~universe ~n_sites ~segment_of ~ordering =
  if Site_set.is_empty universe then invalid_arg "Policy.create: empty universe";
  let flavor =
    match flavor with
    | Some f -> f
    | None -> Option.value (flavor_of_kind kind) ~default:Decision.ldv_flavor
  in
  {
    kind;
    universe;
    ctx = { Operation.flavor; ordering; segment_of };
    states = Array.make n_sites (Replica.initial universe);
    majority = (Site_set.cardinal universe / 2) + 1;
    recovery;
    fresh = universe;
    settled_view = no_view;
    settled = false;
  }

let kind t = t.kind
let universe t = t.universe
let fresh t = t.fresh
let states t = t.states
let replica t site = t.states.(site)

(* The walks below visit the view's components directly, each restricted
   to the copy-holding sites, without building an intermediate list. *)

(* Static majority consensus.  With an even number of copies an exact half
   is resolved in favour of the group holding the ordering's maximum site
   (static lexicographic tie-breaking, standard for even vote totals; the
   paper's four-copy MCV figures are only consistent with this rule —
   strict 3-of-4 would leave configuration F unavailable for every site 4
   outage, far above the 0.0028 reported). *)
let rec mcv_majority t total = function
  | [] -> false
  | component :: rest ->
      let copies = Site_set.inter component t.universe in
      let have = Site_set.cardinal copies in
      2 * have > total
      || (2 * have = total
         && Site_set.mem (Ordering.max_element t.ctx.Operation.ordering t.universe) copies)
      || mcv_majority t total rest

let mcv_available t view = mcv_majority t (Site_set.cardinal t.universe) view.components

(* Run a refresh attempt in every component; the mutual-exclusion property
   of the decision rule guarantees at most one grant.  A grant freshens
   every participant (they all just committed).  Returns whether any
   component was granted. *)
let rec refresh_components t granted = function
  | [] -> granted
  | component :: rest ->
      let copies = Site_set.inter component t.universe in
      let granted =
        if Site_set.is_empty copies then granted
        else
          match Operation.refresh t.ctx t.states ~fresh:t.fresh ~reachable:copies () with
          | Decision.Granted _ ->
              t.fresh <- Site_set.union t.fresh copies;
              true
          | Decision.Denied _ -> granted
      in
      refresh_components t granted rest

let refresh_all t view = refresh_components t false view.components

let rec probe_components t = function
  | [] -> false
  | component :: rest ->
      let copies = Site_set.inter component t.universe in
      ((not (Site_set.is_empty copies))
      && Decision.is_granted
           (Operation.evaluate t.ctx t.states ~fresh:t.fresh ~reachable:copies ()))
      || probe_components t rest

let probe t view = probe_components t view.components

(* A crashed site loses its freshness until it participates in a commit
   again; this is local knowledge ("I rebooted"), independent of the
   policy's refresh discipline, so it is updated on every topology
   change for every policy. *)
let note_up_set t view =
  let up = List.fold_left Site_set.union Site_set.empty view.components in
  t.fresh <- Site_set.inter t.fresh up

(* Notification that the network state changed (site failure or repair,
   partition or heal).  Instantaneous policies adjust quorums right away;
   optimistic ones do nothing until the next access. *)
let handle_topology_change t view =
  note_up_set t view;
  match t.kind with
  | Mcv | Odv | Otdv -> ()
  | Dv | Ldv | Tdv ->
      t.settled <- refresh_all t view;
      t.settled_view <- view

(* A file access.  For optimistic policies this is when quorums adjust. *)
let handle_access t view =
  match t.kind with
  | Mcv -> mcv_available t view
  | Dv | Ldv | Tdv ->
      (* State is already a fixpoint for the current view. *)
      probe t view
  | Odv | Otdv -> refresh_all t view

(* A site repaired.  Under [`At_repair] the optimistic policies run the
   site's RECOVER protocol right away (the instantaneous ones already
   refreshed in {!handle_topology_change}). *)
let handle_repair t view ~site =
  match (t.kind, t.recovery) with
  | (Mcv | Dv | Ldv | Tdv), _ | _, `At_access -> ()
  | (Odv | Otdv), `At_repair ->
      if Site_set.mem site t.universe then begin
        let component =
          List.find_opt (fun c -> Site_set.mem site c) view.components
        in
        match component with
        | None -> ()
        | Some component -> (
            let reachable = Site_set.inter component t.universe in
            match
              Operation.recover t.ctx t.states ~fresh:t.fresh ~site ~reachable ()
            with
            | Decision.Granted g ->
                t.fresh <-
                  Site_set.union t.fresh (Site_set.add site g.Decision.s)
            | Decision.Denied _ -> ())
      end

(* Would an access succeed right now?  Pure: no state change, so usable as
   the availability indicator between events.

   The settled-refresh rule: for DV/LDV/TDV, on the very view (physically)
   that the last [handle_topology_change] refreshed, the answer is that
   refresh's result, with no probe.  This is exact.  A granted refresh of
   component C leaves every copy in C at one (o, v, P = C), so the probe
   on C grants.  A refresh with no grant committed nothing and left
   [fresh] as it was, so the probe would repeat the same denials. *)
let is_available t view =
  match t.kind with
  | Mcv -> mcv_available t view
  | (Dv | Ldv | Tdv) when view == t.settled_view -> t.settled
  | Dv | Ldv | Tdv | Odv | Otdv -> probe t view

let pp_states ?names ppf t =
  let pp_replica =
    match names with Some n -> Replica.pp_names n | None -> Replica.pp
  in
  Fmt.pf ppf "@[<v>";
  Site_set.iter
    (fun site -> Fmt.pf ppf "site %d: %a@," site pp_replica t.states.(site))
    t.universe;
  Fmt.pf ppf "@]"
