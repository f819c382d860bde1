(** Measurement collected by one simulation run.

    Latencies are end-to-end (arrival at the NIC to response leaving),
    matching the paper's server-side measurement. Per-worker on-core
    service times and busy/idle accounting support the Fig. 11b / Fig. 12
    analyses. Requests completing before the warm-up boundary are
    excluded from all aggregates. *)

type t

val create : n_workers:int -> t

(** Begin the measurement interval (end of warm-up). *)
val start_measuring : t -> now:float -> unit

val measuring : t -> bool

(** Close the measurement interval. *)
val stop : t -> now:float -> unit

(** Record the on-core completion of one request at [worker]: bumps the
    per-worker counters and service-time summary. Called for every
    request a worker processes, including writes absorbed into a
    compaction window (whose responses are still pending). *)
val record_service :
  t -> op:C4_workload.Request.op -> worker:int -> service:float -> unit

(** Record a response leaving the system with end-to-end [latency].
    For compacted writes this happens at window close, long after
    {!record_service}. [value_size] additionally files the sample under
    the small- or large-item histogram (boundary: {!size_class_boundary}
    bytes), so heterogeneous-item studies can separate the classes. *)
val record_latency :
  t ->
  op:C4_workload.Request.op ->
  latency:float ->
  compacted:bool ->
  value_size:int ->
  unit

(** Item-size boundary between the small/large latency histograms (4 KiB). *)
val size_class_boundary : int

(** Account busy time on a worker (ns within the measuring window are
    the caller's responsibility to clip). *)
val add_busy : t -> worker:int -> float -> unit

(** Why an admitted-or-arriving request was dropped: NIC buffers full
    (flow control), the EWT could not accommodate the write, the
    request's SLO expired before service, the packet failed header
    parsing (fault-injected corruption), or the overloaded server shed
    it to protect the SLO of admitted work. *)
type drop_reason = Queue_full | Ewt_exhausted | Slo_expired | Bad_packet | Shed

val note_drop : t -> reason:drop_reason -> unit

(* -- Results ---------------------------------------------------------- *)

(** Measurement interval length (ns). *)
val duration : t -> float

(** Completed requests in the interval. *)
val completed : t -> int

(** Requests per ns (multiply by 1e3 for MRPS). *)
val throughput : t -> float

(** In MRPS, the paper's unit. *)
val throughput_mrps : t -> float

val latency : t -> C4_stats.Histogram.t
val write_latency : t -> C4_stats.Histogram.t

(** Latency of requests below / at-or-above the size boundary. *)
val small_latency : t -> C4_stats.Histogram.t

val large_latency : t -> C4_stats.Histogram.t
val p99 : t -> float
val mean_latency : t -> float

(** Total drops across all reasons. *)
val drops : t -> int

val drops_by_reason : t -> reason:drop_reason -> int
val compacted_count : t -> int

(** Per-worker views (length [n_workers]). *)
val worker_throughput_mrps : t -> float array
val worker_utilization : t -> float array
val worker_mean_service : t -> float array

(** The busiest writer: worker with the most completed writes. *)
val hottest_worker : t -> int

val pp_summary : Format.formatter -> t -> unit
