(* Order statistics over timing samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Summary.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Python's [statistics.quantiles xs ~n:4] (the default "exclusive"
   method), so that quartiles printed here match the ones any reader
   recomputes from the raw samples. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Summary.quartiles: no samples"
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

let iqr_share xs =
  let q1, q2, q3 = quartiles xs in
  if q2 = 0.0 then 0.0 else (q3 -. q1) /. Float.abs q2

let min_tail = 10

(* Nearest rank: the smallest sample with at least [p]% of the samples
   at or below it. A tail percentile (above the median) is refused when
   fewer than [min_tail] samples lie beyond it: such a figure is set by
   one or two outliers, not by the distribution. *)
let percentile xs p =
  if p <= 0.0 || p > 100.0 then invalid_arg "Summary.percentile: p outside (0, 100]";
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Error "no samples"
  else
    let rank = max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n))) in
    let beyond = n - rank in
    if p > 50.0 && beyond < min_tail then
      Error
        (Printf.sprintf "p%g of %d samples has %d beyond it (needs %d)" p n beyond
           min_tail)
    else Ok a.(rank - 1)

(* The walls of the (wall, stolen share) samples during which no more
   CPU time was stolen than during the median sample, or than 1%,
   whichever is more. On a shared 2-core host, steal bursts of 10-20%
   slowed calls by up to 70% and would otherwise set the spread of every
   timing; on a host with little steal every sample is kept. *)
let kept samples =
  let threshold = Float.max 0.01 (median (List.map snd samples)) in
  List.map (fun (_, st) -> st <= threshold) samples

let least_stolen samples =
  List.concat (List.map2 (fun (w, _) k -> if k then [ w ] else []) samples (kept samples))
