(* The arithmetic behind every reported figure, apart from the workloads
   so the unit tests can pin it.  Percentiles are nearest-rank, through
   the same function the load generator reports with. *)

let percentile = Dynvote_live.Loadgen.percentile

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let median xs =
  if Array.length xs = 0 then None else Some (percentile (sorted xs) 0.5)

(* Samples strictly above the nearest-rank [p]-quantile of [n] samples:
   the quantile sits at rank ceil(p n), so n - ceil(p n) lie beyond it.
   Written with the expression [percentile] indexes by, so the two can
   never disagree on a rounding edge. *)
let beyond ~n p = n - int_of_float (ceil (p *. float_of_int n))

(* p99 and p95 are left off: on the live workload they swing by more
   than a fifth between runs as the machine's speed drifts, p90 by about
   a sixth. *)
let tail_ladder = [ 0.90; 0.75; 0.50 ]

(* A timing is reported as its median and the highest percentile of the
   ladder that still has at least ten samples beyond it. *)
let tail_quantile n = List.find_opt (fun p -> beyond ~n p >= 10) tail_ladder

type tail = {
  q : float option;
      (** the percentile reported; [None] when even the median has fewer
          than ten samples beyond it, and the tail is the maximum *)
  value : float;
}

let tail xs =
  let n = Array.length xs in
  if n = 0 then None
  else
    let s = sorted xs in
    match tail_quantile n with
    | Some p -> Some { q = Some p; value = percentile s p }
    | None -> Some { q = None; value = s.(n - 1) }

let tail_label = function
  | { q = Some p; _ } -> Printf.sprintf "p%g" (100.0 *. p)
  | { q = None; _ } -> "max"

(* A ratio whose denominator is zero is missing, never nan or infinite. *)
let ratio num den = if den = 0.0 then None else Some (num /. den)

let per_op count ~ops = ratio (float_of_int count) (float_of_int ops)

let failed_share ~attempted ~failed = per_op failed ~ops:attempted

(* Mean of the observations a cumulative (count, mean) histogram summary
   gained between two readings; missing when it gained none. *)
let window_mean ~before:(n0, m0) ~after:(n1, m1) =
  let sum n m = if n = 0 then 0.0 else float_of_int n *. m in
  ratio (sum n1 m1 -. sum n0 m0) (float_of_int (n1 - n0))

(* Events per second in each of [windows] equal windows tiling
   [[t0, t0 + windows * width)]; events outside are ignored. *)
let window_rates ~t0 ~width ~windows times =
  let counts = Array.make windows 0 in
  Array.iter
    (fun t ->
      let w = int_of_float (Float.floor ((t -. t0) /. width)) in
      if t >= t0 && w >= 0 && w < windows then counts.(w) <- counts.(w) + 1)
    times;
  Array.map (fun c -> float_of_int c /. width) counts
