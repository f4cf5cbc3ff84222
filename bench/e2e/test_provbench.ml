(* Unit tests for provbench's statistics, span accounting, verdicts
   and JSON: everything that decides a number or a verdict without
   needing a daemon. *)

open Provbench_lib

let close = Alcotest.float 1e-9

let test_percentile () =
  Alcotest.check close "p50 of even sample" 2.5 (Stats.percentile [ 4.; 1.; 3.; 2. ] 50.);
  Alcotest.check close "p0 is the minimum" 1. (Stats.percentile [ 4.; 1.; 3.; 2. ] 0.);
  Alcotest.check close "p100 is the maximum" 4. (Stats.percentile [ 4.; 1.; 3.; 2. ] 100.);
  Alcotest.check close "interpolates" 9.1 (Stats.percentile (List.init 11 float_of_int) 91.);
  Alcotest.check close "single value" 7. (Stats.percentile [ 7. ] 99.);
  Alcotest.check close "odd median" 3. (Stats.median [ 5.; 1.; 4.; 2.; 3. ]);
  Alcotest.check close "even median" 1.5 (Stats.median [ 2.; 1. ])

(* Reference values from Python's statistics.quantiles(data, n=4). *)
let test_quartiles () =
  List.iter
    (fun (data, (q1, q3)) ->
      let a, b = Stats.quartiles data in
      Alcotest.check close "q1" q1 a;
      Alcotest.check close "q3" q3 b)
    [
      ([ 1.; 2. ], (0.75, 2.25));
      ([ 1.; 2.; 3. ], (1., 3.));
      (List.init 10 (fun i -> float_of_int (i + 1)), (2.75, 8.25));
      ([ 5.; 1.; 4.; 2.; 3. ], (1.5, 4.5));
      ([ 3.5; 1.25; 9.; 4.; 4.; 7.; 2.5 ], (2.5, 7.));
    ];
  Alcotest.check close "relative spread" 1. (Stats.relative_spread (List.init 10 (fun i -> float_of_int (i + 1))) );
  Alcotest.(check (list int))
    "window counts: half-open, outside dropped" [ 2; 0; 2 ]
    (Stats.counts_between [ 0.; 1.; 2.; 3. ] [ 0.; 0.5; 2.; 2.5; 3.; -1. ]);
  Alcotest.(check (list int)) "one bound: no window" [] (Stats.counts_between [ 0. ] [ 0. ]);
  let samples = [ (0., 1.); (1., 2.); (2., 3.); (3., 10.) ] in
  Alcotest.check close "median of the samples inside" 2. (Stats.median_during samples 0. 3.);
  Alcotest.check close "too few inside: the 4 nearest" 2.5 (Stats.median_during samples 10. 11.);
  Alcotest.(check bool) "no samples: nan" true (Float.is_nan (Stats.median_during [] 0. 1.));
  Alcotest.(check (float 0.)) "tail for 20 samples" 50. (Stats.supported_tail 20);
  Alcotest.(check (float 0.)) "tail for 100 samples" 90. (Stats.supported_tail 100);
  Alcotest.(check (float 0.)) "tail for 1000 samples" 99. (Stats.supported_tail 1000)

let self_of spans id =
  snd (List.find (fun ((s : Span.span), _) -> s.Span.id = id) (Span.self_times spans))

let test_self_time () =
  let t = Span.create ~enabled:true in
  let p = Span.record t ~req:1 ~parent:(-1) "core.commit" 0. 10. in
  (* two overlapping children and one running past the parent's end *)
  ignore (Span.record t ~req:1 ~parent:p "crypto.sign" 1. 3.);
  ignore (Span.record t ~req:1 ~parent:p "crypto.sign" 2. 5.);
  let late = Span.record t ~req:1 ~parent:p "tree.hash" 9. 12. in
  let spans = Span.spans t in
  Alcotest.check close "parent self: 10 - |[1,5] u [9,10]|" 5. (self_of spans p);
  Alcotest.check close "a leaf's self time is its duration" 3. (self_of spans late);
  let totals = Span.by_name spans in
  let sign = Hashtbl.find totals "crypto.sign" in
  Alcotest.(check int) "count per name" 2 sign.Span.count;
  Alcotest.check close "duration per name" 5. sign.Span.dur

let test_nesting () =
  let t = Span.create ~enabled:true in
  let v =
    Span.with_span t ~req:7 "core.complex_op" (fun () ->
        Span.with_span t ~req:7 "core.apply" (fun () -> 42))
  in
  Alcotest.(check int) "value passes through" 42 v;
  match Span.spans t with
  | [ inner; outer ] ->
      Alcotest.(check string) "inner closes first" "core.apply" inner.Span.name;
      Alcotest.(check int) "inner's parent is outer" outer.Span.id inner.Span.parent;
      Alcotest.(check int) "outer is top-level" (-1) outer.Span.parent;
      Alcotest.(check int) "request id kept" 7 inner.Span.req
  | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l)

let test_disabled () =
  let t = Span.create ~enabled:false in
  Alcotest.(check int) "runs the call" 3 (Span.with_span t ~req:0 "x" (fun () -> 3));
  ignore (Span.record t ~req:0 ~parent:(-1) "y" 0. 1.);
  Alcotest.(check int) "records nothing" 0 (List.length (Span.spans t))

let verdict_t = Alcotest.testable (Fmt.of_to_string Verdict.to_string) ( = )
let around x = List.init 10 (fun i -> x *. (1. +. (0.002 *. float_of_int (i - 5))))

let test_verdicts () =
  let open Verdict in
  Alcotest.check verdict_t "same runs" Within_bound (verdict Lower ~bound:0.1 ~a:(around 10.) ~b:(around 10.));
  Alcotest.check verdict_t "30% slower" Worse (verdict Lower ~bound:0.1 ~a:(around 10.) ~b:(around 13.));
  Alcotest.check verdict_t "5% slower is within a 10% bound" Within_bound
    (verdict Lower ~bound:0.1 ~a:(around 10.) ~b:(around 10.5));
  Alcotest.check verdict_t "30% faster" Better (verdict Lower ~bound:0.1 ~a:(around 10.) ~b:(around 7.));
  Alcotest.check verdict_t "higher is better: a drop is worse" Worse
    (verdict Higher ~bound:0.1 ~a:(around 100.) ~b:(around 70.));
  let noisy = [ 5.; 15.; 8.; 12.; 10.; 6.; 14.; 9.; 11.; 10. ] in
  Alcotest.check verdict_t "spread wider than the bound" Unresolved
    (verdict Lower ~bound:0.1 ~a:noisy ~b:(List.map (fun x -> x *. 1.05) noisy));
  Alcotest.check verdict_t "noisy, but every run better" Better
    (verdict Lower ~bound:0.1 ~a:noisy ~b:(List.map (fun x -> x /. 4.) noisy));
  Alcotest.check close "pairs won, ties for neither" 0.5
    (pairs_won Lower ~a:[ 1.; 2.; 3.; 4. ] ~b:[ 0.5; 2.; 2.5; 5. ]);
  Alcotest.check close "worse_by is signed" (-0.3) (worse_by Higher ~a:[ 10. ] ~b:[ 13. ])

let test_json () =
  let v =
    Json.Obj
      [
        ("correct", Json.Bool true);
        ("n", Json.Num 1000.);
        ("x", Json.Num 0.1);
        ("s", Json.Str "a \"q\"\n");
        ("l", Json.Arr [ Json.Null; Json.Num (-2.5e-7) ]);
      ]
  in
  let s = Json.to_string v in
  Alcotest.(check bool) "round trip" true (Json.of_string s = v);
  Alcotest.(check string) "integers print plainly" "1000" (Json.to_string (Json.Num 1000.));
  Alcotest.(check bool) "all digits kept" true (float_of_string (Json.to_string (Json.Num 0.1)) = 0.1);
  Alcotest.(check bool) "garbage rejected" true
    (match Json.of_string "{\"a\": }" with _ -> false | exception Json.Parse_error _ -> true)

let () =
  Alcotest.run "provbench"
    [
      ( "stats",
        [
          Alcotest.test_case "percentiles" `Quick test_percentile;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "nesting" `Quick test_nesting;
          Alcotest.test_case "disabled" `Quick test_disabled;
        ] );
      ("verdict", [ Alcotest.test_case "rules" `Quick test_verdicts ]);
      ("json", [ Alcotest.test_case "round trip" `Quick test_json ]);
    ]
