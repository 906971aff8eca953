(* Unit tests of the benchmark's own arithmetic. *)

open Perfbench

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b)

let check_opt name got want =
  check name
    (match (got, want) with
    | None, None -> true
    | Some g, Some w -> close g w
    | _ -> false)

let ramp n = Array.init n (fun i -> float_of_int (n - i))  (* n .. 1, unsorted *)

let () =
  (* The tail rule: the highest percentile with at least ten samples
     beyond it. *)
  check "the ladder tops out at p90" (Stats.tail_quantile 100_000 = Some 0.90);
  check "100 samples give p90" (Stats.tail_quantile 100 = Some 0.90);
  check "99 samples fall back to p75" (Stats.tail_quantile 99 = Some 0.75);
  check "40 samples give p75" (Stats.tail_quantile 40 = Some 0.75);
  check "39 samples fall back to the median" (Stats.tail_quantile 39 = Some 0.5);
  check "20 samples give the median" (Stats.tail_quantile 20 = Some 0.5);
  check "19 samples give no percentile" (Stats.tail_quantile 19 = None);
  List.iter
    (fun n ->
      match Stats.tail_quantile n with
      | Some p ->
          let s = Stats.sorted (ramp n) in
          let v = Stats.percentile s p in
          let above = Array.fold_left (fun k x -> if x > v then k + 1 else k) 0 s in
          check (Printf.sprintf "ten beyond at n=%d" n) (above >= 10 && above = Stats.beyond ~n p)
      | None -> check (Printf.sprintf "n=%d below twenty" n) (n < 20))
    [ 1; 19; 20; 21; 99; 100; 199; 200; 999; 1000; 1001; 4321 ];
  (match Stats.tail (ramp 40) with
  | Some t -> check "p75 of 1..40 is 30" (t.Stats.q = Some 0.75 && t.Stats.value = 30.0)
  | None -> check "tail of 40" false);
  (match Stats.tail (ramp 1000) with
  | Some t -> check "p90 of 1..1000 is 900" (t.Stats.q = Some 0.90 && t.Stats.value = 900.0)
  | None -> check "tail of 1000" false);
  (match Stats.tail [| 3.0; 1.0; 2.0 |] with
  | Some t -> check "tail of three is the maximum" (t.Stats.q = None && t.Stats.value = 3.0)
  | None -> check "tail of three" false);
  check "no tail of nothing" (Stats.tail [||] = None);
  check_opt "median of 1..9" (Stats.median (ramp 9)) (Some 5.0);
  check_opt "median of nothing" (Stats.median [||]) None;
  (* Failure accounting and per-op ratios: a zero denominator is missing. *)
  check_opt "failed share" (Stats.failed_share ~attempted:200 ~failed:14) (Some 0.07);
  check_opt "failed share of nothing" (Stats.failed_share ~attempted:0 ~failed:0) None;
  check_opt "no failures" (Stats.failed_share ~attempted:5 ~failed:0) (Some 0.0);
  check_opt "per op" (Stats.per_op 30 ~ops:12) (Some 2.5);
  check_opt "per op of no ops" (Stats.per_op 30 ~ops:0) None;
  check_opt "zero per op" (Stats.per_op 0 ~ops:7) (Some 0.0);
  check_opt "ratio" (Stats.ratio 1.0 4.0) (Some 0.25);
  check_opt "ratio by zero" (Stats.ratio 1.0 0.0) None;
  check_opt "window mean"
    (Stats.window_mean ~before:(2, 3.0) ~after:(4, 2.5))
    (Some 2.0);
  check_opt "window mean from empty" (Stats.window_mean ~before:(0, nan) ~after:(2, 1.5)) (Some 1.5);
  check_opt "window mean of nothing new" (Stats.window_mean ~before:(3, 1.0) ~after:(3, 1.0)) None;
  let rates =
    Stats.window_rates ~t0:10.0 ~width:0.5 ~windows:3
      [| 9.9; 10.0; 10.2; 10.5; 11.49; 11.5; 12.0 |]
  in
  check "window rates" (rates = [| 4.0; 2.0; 2.0 |]);
  check "json"
    (Json.to_string
       (Json.Obj
          [ ("a", Json.Float 1.5); ("b", Json.Float nan); ("c", Json.String "q\"\n");
            ("d", Json.List [ Json.Int 3; Json.Null; Json.Bool true ]) ])
    = {|{"a":1.5,"b":null,"c":"q\"\n","d":[3,null,true]}|});
  if !failures > 0 then exit 1
