(* Comparing two sets of runs of one metric on one workload.

   Side [a] is the parent (baseline), side [b] the change.  The rules
   follow the pair discipline of a small sandbox: a gain is claimed
   only when the change wins at least nine tenths of the pairs and the
   medians differ by more than the parent's own inter-quartile
   distance; a regression is a median worse by more than the metric's
   bound; and where either side spreads wider than the bound the
   metric is unresolved, unless every run of the change beats every
   run of the parent. *)

type better = Lower | Higher

type t = Better | Within_bound | Worse | Unresolved

let to_string = function
  | Better -> "better"
  | Within_bound -> "within bound"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

let better_of_string = function
  | "lower" -> Some Lower
  | "higher" -> Some Higher
  | _ -> None

let beats better x y = match better with Lower -> x < y | Higher -> x > y

(* Pairs are formed in run order (the i-th run of each side); ties
   count for neither side but stay in the denominator. *)
let pairs_won better ~a ~b =
  let rec go won n a b =
    match (a, b) with
    | x :: a', y :: b' -> go (if beats better y x then won + 1 else won) (n + 1) a' b'
    | _ -> if n = 0 then 0. else float_of_int won /. float_of_int n
  in
  go 0 0 a b

(* How much worse [b]'s median is than [a]'s, as a share of [a]'s
   (negative when [b] is better). *)
let worse_by better ~a ~b =
  let ma = Stats.median a and mb = Stats.median b in
  let d = match better with Lower -> mb -. ma | Higher -> ma -. mb in
  if ma = 0. then if d = 0. then 0. else if d > 0. then infinity else neg_infinity
  else d /. Float.abs ma

let verdict better ~bound ~a ~b =
  let spread = Float.max (Stats.relative_spread a) (Stats.relative_spread b) in
  let all_better =
    a <> [] && b <> [] && List.for_all (fun y -> List.for_all (fun x -> beats better y x) a) b
  in
  if spread > bound then if all_better then Better else Unresolved
  else
    let w = worse_by better ~a ~b in
    if w > bound then Worse
    else
      let q1, q3 = Stats.quartiles a in
      let gap = Float.abs (Stats.median b -. Stats.median a) in
      if w < 0. && pairs_won better ~a ~b >= 0.9 && gap > q3 -. q1 then Better
      else Within_bound
