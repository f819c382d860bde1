module H = C4_stats.Histogram

(* Prometheus metric names admit [a-zA-Z_:][a-zA-Z0-9_:]*; registry
   names use dots ("net.set_ns"), which map to underscores. *)
let metric_name s =
  let buf = Buffer.create (String.length s) in
  String.iteri
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> Buffer.add_char buf c
      | '0' .. '9' ->
        if i = 0 then Buffer.add_char buf '_';
        Buffer.add_char buf c
      | _ -> Buffer.add_char buf '_')
    s;
  Buffer.contents buf

(* Prometheus floats: Go-style; %.17g round-trips and "Inf"/"NaN" never
   escape a histogram, so plain %g-with-fallback is enough. *)
let num f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

let quantiles = [ 0.5; 0.9; 0.99; 0.999 ]

let render_metric buf name reading =
  let n = metric_name name in
  match (reading : Registry.reading) with
  | Registry.Counter_reading v ->
    Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n" n);
    Buffer.add_string buf (Printf.sprintf "%s %d\n" n v)
  | Registry.Gauge_reading v ->
    Buffer.add_string buf (Printf.sprintf "# TYPE %s gauge\n" n);
    Buffer.add_string buf (Printf.sprintf "%s %s\n" n (num v))
  | Registry.Histogram_reading h ->
    (* Summary, not histogram: the log-linear buckets are not the
       cumulative le-buckets Prometheus histograms require, but the
       quantiles are exactly what the paper's tail-latency story
       needs. The reading is a private copy, so count and sum agree. *)
    Buffer.add_string buf (Printf.sprintf "# TYPE %s summary\n" n);
    List.iter
      (fun q ->
        Buffer.add_string buf
          (Printf.sprintf "%s{quantile=\"%s\"} %s\n" n (num q) (num (H.quantile h q))))
      quantiles;
    Buffer.add_string buf (Printf.sprintf "%s_sum %s\n" n (num (H.sum h)));
    Buffer.add_string buf (Printf.sprintf "%s_count %d\n" n (H.count h))

let of_snapshot readings =
  let buf = Buffer.create 1024 in
  List.iter (fun (name, r) -> render_metric buf name r) readings;
  Buffer.contents buf

let of_registry reg = of_snapshot (Registry.snapshot reg)
