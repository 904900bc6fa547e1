let check_float = Alcotest.(check (float 1e-9))

let test_summary_stats () =
  check_float "mean" 2.0 (Analysis.Summary.mean [ 1.0; 2.0; 3.0 ]);
  check_float "median odd" 2.0 (Analysis.Summary.median [ 3.0; 1.0; 2.0 ]);
  check_float "median even" 2.5 (Analysis.Summary.median [ 4.0; 1.0; 2.0; 3.0 ]);
  check_float "geomean" 2.0 (Analysis.Summary.geomean [ 1.0; 2.0; 4.0 ]);
  check_float "max" 4.0 (Analysis.Summary.maximum [ 4.0; 1.0; 2.0 ]);
  check_float "min" 1.0 (Analysis.Summary.minimum [ 4.0; 1.0; 2.0 ])

let test_summary_validation () =
  Alcotest.check_raises "empty mean" (Invalid_argument "Summary.mean: empty") (fun () ->
      ignore (Analysis.Summary.mean []));
  Alcotest.check_raises "geomean non-positive"
    (Invalid_argument "Summary.geomean: non-positive value") (fun () ->
      ignore (Analysis.Summary.geomean [ 1.0; 0.0 ]))

let test_regression_exact_line () =
  let points = List.map (fun x -> (float_of_int x, (2.0 *. float_of_int x) +. 1.0)) [ 0; 1; 2; 3 ] in
  let fit = Analysis.Regression.fit points in
  check_float "b0" 1.0 fit.Analysis.Regression.b0;
  check_float "b1" 2.0 fit.b1;
  check_float "perfect R2" 1.0 fit.r2;
  check_float "predict" 7.0 (Analysis.Regression.predict fit 3.0)

let test_regression_noisy () =
  let points = [ (0.0, 0.1); (1.0, 0.9); (2.0, 2.2); (3.0, 2.8); (4.0, 4.1) ] in
  let fit = Analysis.Regression.fit points in
  Alcotest.(check bool) "good but imperfect fit" true (fit.Analysis.Regression.r2 > 0.9 && fit.r2 < 1.0)

let test_regression_validation () =
  Alcotest.check_raises "too few points"
    (Invalid_argument "Regression.fit: need at least two points") (fun () ->
      ignore (Analysis.Regression.fit [ (1.0, 1.0) ]));
  Alcotest.check_raises "degenerate x" (Invalid_argument "Regression.fit: degenerate x values")
    (fun () -> ignore (Analysis.Regression.fit [ (1.0, 1.0); (1.0, 2.0) ]))

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_table_rendering () =
  let t = Analysis.Table.make ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333"; "4" ] ] in
  let s = Fmt.str "%a" Analysis.Table.pp t in
  Alcotest.(check bool) "contains rule" true (contains ~sub:"---" s);
  Alcotest.(check bool) "contains cells" true (contains ~sub:"333" s)

let test_table_validation () =
  Alcotest.check_raises "ragged rows" (Invalid_argument "Table.make: row width differs from header")
    (fun () -> ignore (Analysis.Table.make ~header:[ "a" ] [ [ "1"; "2" ] ]))

let test_formatters () =
  Alcotest.(check string) "f2" "3.14" (Analysis.Table.f2 3.14159);
  Alcotest.(check string) "xf" "2.40X" (Analysis.Table.xf 2.4);
  Alcotest.(check string) "i" "42" (Analysis.Table.i 42)

let test_delta_small_values () =
  let d =
    { Analysis.Bench_record.metric = "p99_latency_s"; baseline = 0.012; current = 0.018;
      change_pct = 50.0 }
  in
  let line = Fmt.str "%a" Analysis.Bench_record.pp_delta d in
  let has sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length line && (String.sub line i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) ("baseline shown in " ^ line) true (has " 0.012 ");
  Alcotest.(check bool) ("current shown in " ^ line) true (has " 0.018 ")

(* Property: median is invariant under permutation and lies within
   min..max. *)
let prop_median_bounds =
  QCheck.Test.make ~name:"median within bounds" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 30) (float_range (-1000.) 1000.))
    (fun l ->
      let m = Analysis.Summary.median l in
      m >= Analysis.Summary.minimum l && m <= Analysis.Summary.maximum l)

let suite =
  [
    Alcotest.test_case "summary statistics" `Quick test_summary_stats;
    Alcotest.test_case "summary validation" `Quick test_summary_validation;
    Alcotest.test_case "regression on exact line" `Quick test_regression_exact_line;
    Alcotest.test_case "regression on noisy data" `Quick test_regression_noisy;
    Alcotest.test_case "regression validation" `Quick test_regression_validation;
    Alcotest.test_case "table rendering" `Quick test_table_rendering;
    Alcotest.test_case "table validation" `Quick test_table_validation;
    Alcotest.test_case "cell formatters" `Quick test_formatters;
    Alcotest.test_case "bench delta keeps small values" `Quick test_delta_small_values;
    QCheck_alcotest.to_alcotest prop_median_bounds;
  ]
