(* Order statistics for latency samples and for comparing runs. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks (the R-7 / NumPy
   default): [percentile 50.] of an even-sized sample is the mean of
   the two middle values. *)
let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then nan
  else if n = 1 then a.(0)
  else
    let h = p /. 100. *. float_of_int (n - 1) in
    let lo = max 0 (min (n - 1) (int_of_float h)) in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let percentile xs p = percentile_sorted (sorted xs) p

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The median of the values of the (time, value) [samples] taken in
   [a, b), or, with fewer than 3 taken there, of the 4 taken nearest
   its middle; nan without samples. *)
let median_during samples a b =
  let inside = List.filter_map (fun (t, v) -> if t >= a && t < b then Some v else None) samples in
  if List.length inside >= 3 then median inside
  else
    let mid = (a +. b) /. 2. in
    List.sort (fun (x, _) (y, _) -> compare (Float.abs (x -. mid)) (Float.abs (y -. mid))) samples
    |> List.filteri (fun i _ -> i < 4)
    |> List.map snd |> median

(* First and third quartiles exactly as Python's
   [statistics.quantiles(data, n=4)] (method "exclusive") computes
   them, so a spread printed here matches the one a script computes
   from the same values.  A single value is its own quartiles. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then (nan, nan)
  else if ld = 1 then (a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 3)

(* Inter-quartile distance as a share of the median: the run-to-run
   spread a bound is compared against. *)
let relative_spread xs =
  let q1, q3 = quartiles xs in
  let m = median xs in
  if m = 0. then if q3 -. q1 = 0. then 0. else infinity
  else (q3 -. q1) /. Float.abs m

(* How many of [times] fall in each window [b.(i), b.(i+1)) between
   consecutive [bounds], which ascend. *)
let counts_between bounds times =
  let b = Array.of_list bounds in
  let counts = Array.make (max 0 (Array.length b - 1)) 0 in
  (* the window [b.(lo), b.(hi)) holds x; narrow it to one *)
  let rec find x lo hi =
    if hi - lo <= 1 then lo
    else
      let mid = (lo + hi) / 2 in
      if b.(mid) <= x then find x mid hi else find x lo mid
  in
  List.iter
    (fun x ->
      let last = Array.length b - 1 in
      if last > 0 && x >= b.(0) && x < b.(last) then begin
        let i = find x 0 last in
        counts.(i) <- counts.(i) + 1
      end)
    times;
  Array.to_list counts

(* The highest percentile with at least ten samples beyond it, so a
   tail is only ever reported where the sample supports it. *)
let supported_tail n =
  if n >= 1000 then 99. else if n >= 100 then 90. else 50.
