module Histogram = C4_stats.Histogram
module Summary = C4_stats.Summary

type t = {
  n_workers : int;
  lat_all : Histogram.t;
  lat_write : Histogram.t;
  lat_small : Histogram.t;
  lat_large : Histogram.t;
  completed_n : int array;
  writes_n : int array;
  busy_ns : float array;
  service : Summary.t array;
  mutable compacted_n : int;
  mutable drops_queue_full_n : int;
  mutable drops_ewt_n : int;
  mutable drops_slo_n : int;
  mutable drops_bad_packet_n : int;
  mutable drops_shed_n : int;
  mutable t_start : float;
  mutable t_stop : float;
  mutable on : bool;
}

let create ~n_workers =
  {
    n_workers;
    lat_all = Histogram.create ();
    lat_write = Histogram.create ();
    lat_small = Histogram.create ();
    lat_large = Histogram.create ();
    completed_n = Array.make n_workers 0;
    writes_n = Array.make n_workers 0;
    busy_ns = Array.make n_workers 0.0;
    service = Array.init n_workers (fun _ -> Summary.create ());
    compacted_n = 0;
    drops_queue_full_n = 0;
    drops_ewt_n = 0;
    drops_slo_n = 0;
    drops_bad_packet_n = 0;
    drops_shed_n = 0;
    t_start = 0.0;
    t_stop = 0.0;
    on = false;
  }

let start_measuring t ~now =
  t.t_start <- now;
  t.on <- true

let measuring t = t.on

let stop t ~now =
  t.t_stop <- now;
  t.on <- false

let record_service t ~op ~worker ~service =
  if t.on then begin
    (match op with
    | C4_workload.Request.Read -> ()
    | C4_workload.Request.Write -> t.writes_n.(worker) <- t.writes_n.(worker) + 1);
    t.completed_n.(worker) <- t.completed_n.(worker) + 1;
    Summary.add t.service.(worker) service
  end

let size_class_boundary = 4096

let record_latency t ~op ~latency ~compacted ~value_size =
  if t.on then begin
    Histogram.add t.lat_all latency;
    (match op with
    | C4_workload.Request.Read -> ()
    | C4_workload.Request.Write -> Histogram.add t.lat_write latency);
    Histogram.add
      (if value_size >= size_class_boundary then t.lat_large else t.lat_small)
      latency;
    if compacted then t.compacted_n <- t.compacted_n + 1
  end

let add_busy t ~worker ns = if t.on then t.busy_ns.(worker) <- t.busy_ns.(worker) +. ns

type drop_reason = Queue_full | Ewt_exhausted | Slo_expired | Bad_packet | Shed

let note_drop t ~reason =
  if t.on then
    match reason with
    | Queue_full -> t.drops_queue_full_n <- t.drops_queue_full_n + 1
    | Ewt_exhausted -> t.drops_ewt_n <- t.drops_ewt_n + 1
    | Slo_expired -> t.drops_slo_n <- t.drops_slo_n + 1
    | Bad_packet -> t.drops_bad_packet_n <- t.drops_bad_packet_n + 1
    | Shed -> t.drops_shed_n <- t.drops_shed_n + 1

let drops_by_reason t ~reason =
  match reason with
  | Queue_full -> t.drops_queue_full_n
  | Ewt_exhausted -> t.drops_ewt_n
  | Slo_expired -> t.drops_slo_n
  | Bad_packet -> t.drops_bad_packet_n
  | Shed -> t.drops_shed_n

let duration t = Float.max 0.0 (t.t_stop -. t.t_start)

let completed t = Array.fold_left ( + ) 0 t.completed_n

let throughput t =
  let d = duration t in
  if d <= 0.0 then 0.0 else float_of_int (completed t) /. d

let throughput_mrps t = throughput t *. 1e3
let latency t = t.lat_all
let write_latency t = t.lat_write
let small_latency t = t.lat_small
let large_latency t = t.lat_large
let p99 t = Histogram.p99 t.lat_all
let mean_latency t = Histogram.mean t.lat_all
let drops t =
  t.drops_queue_full_n + t.drops_ewt_n + t.drops_slo_n + t.drops_bad_packet_n
  + t.drops_shed_n
let compacted_count t = t.compacted_n

let worker_throughput_mrps t =
  let d = duration t in
  Array.map
    (fun c -> if d <= 0.0 then 0.0 else float_of_int c /. d *. 1e3)
    t.completed_n

let worker_utilization t =
  let d = duration t in
  Array.map (fun b -> if d <= 0.0 then 0.0 else Float.min 1.0 (b /. d)) t.busy_ns

let worker_mean_service t = Array.map Summary.mean t.service

let hottest_worker t =
  let best = ref 0 in
  Array.iteri (fun i w -> if w > t.writes_n.(!best) then best := i) t.writes_n;
  !best

let pp_summary ppf t =
  Format.fprintf ppf "tput=%.1f MRPS p99=%.0f ns mean=%.0f ns drops=%d"
    (throughput_mrps t) (p99 t) (mean_latency t) (drops t)
