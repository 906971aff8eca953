(* The READ / WRITE / RECOVER procedures of Figures 1-3 (and their
   topological twins, Figures 5-7), expressed as transitions on an array of
   replica states.  The verdict comes from {!Decision}; on a grant this
   module performs the COMMIT: it installs the new (operation number,
   version number, partition set) ensemble at the appropriate copies.

   A [refresh] is the composite operation the availability simulator uses:
   one read followed by the recovery of every reachable out-of-date copy,
   leaving the whole component current with partition set R.  For the
   non-optimistic policies a refresh models the instantaneous quorum
   adjustment performed on every change of the network state; for the
   optimistic ones it models what a daily file access does. *)

type ctx = {
  flavor : Decision.flavor;
  ordering : Ordering.t;
  segment_of : Site_set.site -> int;
}

let make_ctx ?(flavor = Decision.ldv_flavor) ?(segment_of = fun _ -> 0) ordering =
  { flavor; ordering; segment_of }

let evaluate ctx states ?fresh ~reachable () =
  Decision.evaluate ctx.flavor ~ordering:ctx.ordering ~segment_of:ctx.segment_of ?fresh
    ~states ~reachable ()

(* COMMIT(recipients, o, v, P): install the new ensemble at [recipients],
   one bit at a time (no closure). *)
let rec commit states ~recipients ~op_no ~version ~partition =
  if not (Site_set.is_empty recipients) then begin
    let site = Site_set.min_elt recipients in
    states.(site) <- Replica.with_commit states.(site) ~op_no ~version ~partition;
    commit states ~recipients:(Site_set.remove site recipients) ~op_no ~version ~partition
  end

let read ctx states ?fresh ~reachable () =
  match evaluate ctx states ?fresh ~reachable () with
  | Decision.Denied _ as verdict -> verdict
  | Decision.Granted g as verdict ->
      let m = g.Decision.m in
      let o = Replica.op_no states.(m) and v = Replica.version states.(m) in
      commit states ~recipients:g.Decision.s ~op_no:(o + 1) ~version:v
        ~partition:g.Decision.s;
      verdict

let write ctx states ?fresh ~reachable () =
  match evaluate ctx states ?fresh ~reachable () with
  | Decision.Denied _ as verdict -> verdict
  | Decision.Granted g as verdict ->
      let m = g.Decision.m in
      let o = Replica.op_no states.(m) and v = Replica.version states.(m) in
      commit states ~recipients:g.Decision.s ~op_no:(o + 1) ~version:(v + 1)
        ~partition:g.Decision.s;
      verdict

(* RECOVER for a single site [l]; [reachable] must contain l. *)
let recover ctx states ?fresh ~site:l ~reachable () =
  if not (Site_set.mem l reachable) then
    invalid_arg "Operation.recover: recovering site not in reachable set";
  match evaluate ctx states ?fresh ~reachable () with
  | Decision.Denied _ as verdict -> verdict
  | Decision.Granted g as verdict ->
      let m = g.Decision.m in
      let o = Replica.op_no states.(m) and v = Replica.version states.(m) in
      (* If v_l < v_m the file data is copied from m (modelled by the
         version assignment); the new partition set is S ∪ {l}. *)
      let recipients = Site_set.add l g.Decision.s in
      commit states ~recipients ~op_no:(o + 1) ~version:v ~partition:recipients;
      verdict

(* Recover every site of [stale] in turn, lowest id first. *)
let rec recover_stale ctx states ?fresh ~reachable stale =
  if not (Site_set.is_empty stale) then begin
    let l = Site_set.min_elt stale in
    (match recover ctx states ?fresh ~site:l ~reachable () with
    | Decision.Granted _ -> ()
    | Decision.Denied d ->
        (* Unreachable in practice: once the read succeeded the component
           *is* the majority partition and every recovery within it must
           also succeed. *)
        Fmt.failwith "Operation.refresh: recovery of %d denied (%a)" l Decision.pp_denial d);
    recover_stale ctx states ?fresh ~reachable (Site_set.remove l stale)
  end

(* One read, then recovery of every reachable out-of-date copy.  When
   granted, every site of [reachable] ends current with partition set
   [reachable]. *)
let refresh ctx states ?fresh ~reachable () =
  match read ctx states ?fresh ~reachable () with
  | Decision.Denied _ as verdict -> verdict
  | Decision.Granted g as verdict ->
      recover_stale ctx states ?fresh ~reachable (Site_set.diff reachable g.Decision.s);
      verdict
