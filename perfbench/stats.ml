(* Order statistics for the benchmark's samples.

   A timing is reported as its median and the highest percentile that
   still has at least [min_beyond] samples above it, with the sample
   count: a p99 from 200 samples rests on two values, so it is not
   reported as one. Quantiles interpolate linearly between order
   statistics ({!Stat_summary.quantile}). *)

let min_beyond = 10

(* Candidate tail percentiles, highest first. *)
let tail_ladder = [ 99.9; 99.; 98.; 95.; 90.; 80.; 75. ]

let percentile xs p = Stat_summary.quantile xs (p /. 100.)

let median xs = percentile xs 50.

(* Samples of [n] that lie strictly above the [p]th percentile's
   position [p/100 * (n-1)] in sorted order. *)
let beyond n p = n - 1 - int_of_float (Float.floor (p /. 100. *. float_of_int (n - 1)))

(* The highest ladder percentile with at least [min_beyond] samples
   beyond it, or [None] when [n] is too small for any. *)
let tail_percentile n = List.find_opt (fun p -> beyond n p >= min_beyond) tail_ladder

type summary = {
  n : int;
  p50 : float;
  tail : (float * float) option;  (* (percentile, value) *)
}

let summarize xs =
  { n = List.length xs;
    p50 = median xs;
    tail = Option.map (fun p -> (p, percentile xs p)) (tail_percentile (List.length xs));
  }

(* The tail value, or the median when there are too few samples for
   any tail percentile. *)
let tail_or_median s = match s.tail with Some (_, v) -> v | None -> s.p50

let pp_summary ~unit s =
  match s.tail with
  | Some (p, v) ->
      Printf.sprintf "median %.6g %s, p%g %.6g %s, n=%d" s.p50 unit p v unit s.n
  | None ->
      Printf.sprintf "median %.6g %s, too few samples for a tail, n=%d" s.p50 unit s.n
