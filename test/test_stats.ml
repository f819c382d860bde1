(* Statistics substrate: Welford summaries, HDR-style histograms
   (including bounded relative quantile error vs exact), table/CSV
   rendering. *)

module Summary = C4_stats.Summary
module Histogram = C4_stats.Histogram
module Table = C4_stats.Table
module Csv = C4_stats.Csv

let feq ?(eps = 1e-9) name a b =
  if abs_float (a -. b) > eps then Alcotest.failf "%s: %f <> %f" name a b

(* ---------------- Summary ---------------- *)

let test_summary_basic () =
  let s = Summary.create () in
  List.iter (Summary.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  Alcotest.(check int) "count" 8 (Summary.count s);
  feq "mean" 5.0 (Summary.mean s);
  feq ~eps:1e-6 "variance (unbiased)" (32.0 /. 7.0) (Summary.variance s);
  feq "min" 2.0 (Summary.min s);
  feq "max" 9.0 (Summary.max s);
  feq "total" 40.0 (Summary.total s)

let test_summary_empty () =
  let s = Summary.create () in
  feq "mean of empty" 0.0 (Summary.mean s);
  feq "variance of empty" 0.0 (Summary.variance s)

let test_summary_merge () =
  let a = Summary.create () and b = Summary.create () and whole = Summary.create () in
  let xs = [ 1.0; 5.0; 2.0; 8.0; 3.0; 9.0; 4.0 ] in
  List.iteri (fun i x -> Summary.add (if i < 3 then a else b) x) xs;
  List.iter (Summary.add whole) xs;
  Summary.merge a ~other:b;
  Alcotest.(check int) "merged count" (Summary.count whole) (Summary.count a);
  feq ~eps:1e-9 "merged mean" (Summary.mean whole) (Summary.mean a);
  feq ~eps:1e-6 "merged variance" (Summary.variance whole) (Summary.variance a)

let test_summary_reset () =
  let s = Summary.create () in
  Summary.add s 5.0;
  Summary.reset s;
  Alcotest.(check int) "reset count" 0 (Summary.count s)

let prop_summary_mean_matches_list =
  QCheck.Test.make ~name:"Welford mean = naive mean" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 100) (float_bound_exclusive 1000.0))
    (fun xs ->
      let s = Summary.create () in
      List.iter (Summary.add s) xs;
      let naive = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
      abs_float (Summary.mean s -. naive) < 1e-6)

(* ---------------- Histogram ---------------- *)

let test_histogram_exact_small_values () =
  (* Values below one sub-bucket range (default 64) are recorded exactly. *)
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  feq "p50 small" 3.0 (Histogram.median h);
  feq "max quantile" 5.0 (Histogram.quantile h 1.0)

let test_histogram_relative_error () =
  (* Quantiles must track exact values within the configured relative
     error (2^-6 with 6 sub-bucket bits) over a wide dynamic range. *)
  let h = Histogram.create () in
  let values = Array.init 10_000 (fun i -> 10.0 +. (float_of_int i *. 97.3)) in
  Array.iter (Histogram.add h) values;
  let exact = Array.copy values in
  Array.sort compare exact;
  List.iter
    (fun q ->
      let approx = Histogram.quantile h q in
      let rank = max 0 (min (Array.length exact - 1)
        (int_of_float (ceil (q *. float_of_int (Array.length exact))) - 1)) in
      let truth = exact.(rank) in
      let rel = abs_float (approx -. truth) /. truth in
      if rel > 0.04 then Alcotest.failf "q=%f: approx %f vs %f (rel %f)" q approx truth rel)
    [ 0.5; 0.9; 0.95; 0.99; 0.999 ]

let test_histogram_mean_max () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 100.0; 200.0; 300.0 ];
  feq "mean" 200.0 (Histogram.mean h);
  feq "max" 300.0 (Histogram.max_recorded h)

let test_histogram_empty () =
  let h = Histogram.create () in
  feq "p99 empty" 0.0 (Histogram.p99 h);
  feq "mean empty" 0.0 (Histogram.mean h)

let test_histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  for i = 1 to 500 do
    Histogram.add a (float_of_int i)
  done;
  for i = 501 to 1000 do
    Histogram.add b (float_of_int i)
  done;
  Histogram.merge a ~other:b;
  Alcotest.(check int) "merged count" 1000 (Histogram.count a);
  let p50 = Histogram.median a in
  if abs_float (p50 -. 500.0) > 20.0 then Alcotest.failf "merged p50 %f" p50

let test_histogram_negative_clamped () =
  let h = Histogram.create () in
  Histogram.add h (-5.0);
  Alcotest.(check int) "recorded" 1 (Histogram.count h);
  feq "clamped to 0" 0.0 (Histogram.quantile h 1.0)

let test_histogram_add_many () =
  let h = Histogram.create () in
  Histogram.add_many h 100.0 50;
  Histogram.add_many h 1000.0 50;
  Alcotest.(check int) "count" 100 (Histogram.count h);
  let p25 = Histogram.quantile h 0.25 in
  if p25 > 110.0 then Alcotest.failf "p25 %f should be ~100" p25

let prop_histogram_quantile_monotone =
  QCheck.Test.make ~name:"histogram quantiles are monotone in q" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 200) (float_range 1.0 1e6))
    (fun xs ->
      let h = Histogram.create () in
      List.iter (Histogram.add h) xs;
      let qs = [ 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ] in
      let vals = List.map (Histogram.quantile h) qs in
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b && mono rest
        | _ -> true
      in
      mono vals)

let prop_histogram_p99_bounds_p50 =
  QCheck.Test.make ~name:"p99 >= p50 >= min bucket" ~count:200
    QCheck.(list_of_size Gen.(int_range 2 300) (float_range 1.0 1e5))
    (fun xs ->
      let h = Histogram.create () in
      List.iter (Histogram.add h) xs;
      Histogram.p99 h >= Histogram.median h)


let test_histogram_merge_edges () =
  (* Merging an empty histogram is the identity; merging INTO an empty
     one copies the other side; a single sample survives either way. *)
  let a = Histogram.create () and empty = Histogram.create () in
  Histogram.add a 42.0;
  Histogram.merge a ~other:empty;
  Alcotest.(check int) "merge empty: count" 1 (Histogram.count a);
  feq "merge empty: p99 unchanged" 42.0 (Histogram.p99 a);
  let b = Histogram.create () in
  Histogram.merge b ~other:a;
  Alcotest.(check int) "merge into empty: count" 1 (Histogram.count b);
  feq "merge into empty: quantiles copied" 42.0 (Histogram.median b);
  feq "single sample: every quantile is it" (Histogram.quantile b 0.01)
    (Histogram.quantile b 1.0)

let prop_histogram_merged_p99_monotone =
  (* p99 of a merged histogram is bracketed by its components' p99s:
     pooling two populations cannot push the tail outside either tail.
     Bracketing holds up to one bucket of relative error (2^-6 with the
     default 6 sub-bucket bits): quantile clamps to the histogram's own
     max, which merge can raise past a component's reported p99. *)
  QCheck.Test.make ~name:"merged p99 within component p99 bounds" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 300) (float_range 1.0 1e6))
        (list_of_size Gen.(int_range 1 300) (float_range 1.0 1e6)))
    (fun (xs, ys) ->
      let a = Histogram.create () and b = Histogram.create () in
      List.iter (Histogram.add a) xs;
      List.iter (Histogram.add b) ys;
      let pa = Histogram.p99 a and pb = Histogram.p99 b in
      Histogram.merge a ~other:b;
      let pm = Histogram.p99 a in
      let slack = 2.0 /. 64.0 in
      Float.min pa pb *. (1.0 -. slack) <= pm
      && pm <= Float.max pa pb *. (1.0 +. slack))

(* ---------------- Table / CSV ---------------- *)

let test_table_render () =
  let t = Table.create ~columns:[ ("name", Table.Left); ("value", Table.Right) ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let rendered = Table.render t in
  let lines = String.split_on_char '\n' rendered in
  Alcotest.(check int) "header + rule + 2 rows" 4 (List.length lines);
  Alcotest.(check bool) "right-aligned value" true
    (String.length (List.nth lines 2) = String.length (List.nth lines 3))

let test_table_arity_checked () =
  let t = Table.create ~columns:[ ("a", Table.Left) ] in
  Alcotest.check_raises "wrong arity" (Invalid_argument "Table.add_row: wrong number of cells")
    (fun () -> Table.add_row t [ "x"; "y" ])

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec loop i = i + n <= h && (String.sub haystack i n = needle || loop (i + 1)) in
  n = 0 || loop 0

let test_csv_roundtrip_quoting () =
  let c = Csv.create ~header:[ "k"; "v" ] in
  Csv.add_row c [ "plain"; "with,comma" ];
  Csv.add_row c [ "quote\"inside"; "multi\nline" ];
  let s = Csv.to_string c in
  Alcotest.(check bool) "comma cell quoted" true (contains ~needle:"\"with,comma\"" s);
  Alcotest.(check bool) "quote escaped" true (contains ~needle:"\"quote\"\"inside\"" s);
  Alcotest.(check bool) "plain cell unquoted" true (contains ~needle:"plain,\"with" s)

let test_csv_header_mismatch () =
  let c = Csv.create ~header:[ "a"; "b" ] in
  Alcotest.check_raises "arity" (Invalid_argument "Csv.add_row: wrong number of cells")
    (fun () -> Csv.add_row c [ "1" ])

let tests =
  [
    Alcotest.test_case "summary moments" `Quick test_summary_basic;
    Alcotest.test_case "summary on empty" `Quick test_summary_empty;
    Alcotest.test_case "summary merge = whole" `Quick test_summary_merge;
    Alcotest.test_case "summary reset" `Quick test_summary_reset;
    QCheck_alcotest.to_alcotest prop_summary_mean_matches_list;
    Alcotest.test_case "histogram exact for small values" `Quick test_histogram_exact_small_values;
    Alcotest.test_case "histogram bounded relative error" `Quick test_histogram_relative_error;
    Alcotest.test_case "histogram mean/max" `Quick test_histogram_mean_max;
    Alcotest.test_case "histogram empty" `Quick test_histogram_empty;
    Alcotest.test_case "histogram merge" `Quick test_histogram_merge;
    Alcotest.test_case "histogram clamps negatives" `Quick test_histogram_negative_clamped;
    Alcotest.test_case "histogram add_many" `Quick test_histogram_add_many;
    QCheck_alcotest.to_alcotest prop_histogram_quantile_monotone;
    QCheck_alcotest.to_alcotest prop_histogram_p99_bounds_p50;
    Alcotest.test_case "histogram merge edge cases" `Quick test_histogram_merge_edges;
    QCheck_alcotest.to_alcotest prop_histogram_merged_p99_monotone;
    Alcotest.test_case "table rendering" `Quick test_table_render;
    Alcotest.test_case "table arity check" `Quick test_table_arity_checked;
    Alcotest.test_case "csv quoting" `Quick test_csv_roundtrip_quoting;
    Alcotest.test_case "csv arity check" `Quick test_csv_header_mismatch;
  ]
