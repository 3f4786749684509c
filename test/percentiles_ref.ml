(* The sort-based nearest-rank percentiles: the executable specification
   of [Obs.Profile.percentiles_of], which selects instead of sorting.
   A property in test_obs.ml requires the two to agree. *)

let percentile_of sorted n q =
  (* nearest-rank on a sorted array: the ceil(q*n)-th value *)
  let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

(* the total sums the sorted array, so it can differ from the kernel's
   input-order sum in the last bits unless every partial sum is exact *)
let percentiles_of durs =
  let n = Array.length durs in
  if n = 0 then None
  else begin
    let sorted = Array.copy durs in
    Array.sort compare sorted;
    Some
      { Obs.Profile.count = n;
        p50 = percentile_of sorted n 0.50;
        p90 = percentile_of sorted n 0.90;
        p99 = percentile_of sorted n 0.99;
        p999 = percentile_of sorted n 0.999;
        max_us = sorted.(n - 1);
        total_us = Array.fold_left ( +. ) 0. sorted }
  end
