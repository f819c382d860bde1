(** Named run-time metrics: counters, gauges and histograms.

    Every instrumented layer (NIC pipeline, EWT, model server, kvs
    compaction log) registers its metrics here by name; exporters walk
    the registry in registration order. Registration is find-or-create,
    so the 64 per-worker compaction logs asking for
    ["compaction.windows"] all share one counter.

    Handles are plain mutable records: bumping a plain registry's
    counter is one integer store (a thread-safe one adds an uncontended
    per-domain lock), cheap enough to leave permanently enabled (the zero-cost
    story for the {!Trace} spans does not apply here). A module that is
    instantiated without a registry can still instrument itself against
    a private throwaway registry. *)

type t

(** A monotonically increasing integer. *)
type counter

(** A point-in-time float, overwritten by each {!set}. *)
type gauge

(** A value distribution, backed by {!C4_stats.Histogram}. *)
type histogram

(** [thread_safe] (default false) makes every handle safe to update
    and read from any domain or thread (the network serving layer).
    Each handle is split into per-domain shards
    ([(Domain.self () :> int) mod n_shards], [n_shards] the smallest
    power of two above {!Domain.recommended_domain_count}, at most 64),
    each with its own lock and its
    own padded cells: an update takes only its domain's shard lock, so
    worker domains never contend on their own updates, and a second
    systhread on the same domain stays safe. A shard's histogram is
    allocated on that shard's first {!observe}. Readers merge the shards
    while holding every shard lock. The default stays lock-free: the
    simulator is single-threaded and bumps counters on its hot path. *)
val create : ?thread_safe:bool -> unit -> t

(** Find-or-create. Raises [Invalid_argument] if [name] is already
    registered as a different metric kind. *)
val counter : t -> string -> counter

val gauge : t -> string -> gauge

(** [sampled_gauge t name f] registers a gauge whose value is [f ()],
    called by each reader ({!snapshot}, {!read}, {!csv_row},
    {!to_table}) instead of being pushed by {!set}: for a value some
    module already keeps (an atomic), so its hot path writes nothing
    here. Registering [name] again re-points it to the new [f]. [f]
    runs under the registry's locks: keep it cheap, and never call the
    registry from it. Raises [Invalid_argument] if [name] is registered
    as another kind. *)
val sampled_gauge : t -> string -> (unit -> float) -> unit

val histogram : t -> string -> histogram

val incr : ?by:int -> counter -> unit
val counter_value : counter -> int
val set : gauge -> float -> unit
val observe : histogram -> float -> unit

(** A plain registry's live histogram (safe to read only quiescently);
    a thread-safe registry's shards merged into a fresh copy. *)
val histogram_values : histogram -> C4_stats.Histogram.t

(** Registered names, in registration order. *)
val names : t -> string list

(** One value per metric. Histogram readings are private copies: a
    thread-safe registry merges each histogram's shards into a fresh
    histogram while holding every shard lock, so a snapshot racing
    concurrent [observe]s can never expose torn totals (a count/sum
    mismatch). Exporters (the telemetry endpoint's Prometheus
    rendering) read through this. *)
type reading =
  | Counter_reading of int
  | Gauge_reading of float
  | Histogram_reading of C4_stats.Histogram.t

(** Every metric's current {!reading}, in registration order, taken
    while holding every shard lock (acquired in a fixed order) — one
    consistent cut for thread-safe registries: no update is
    half-applied, and none is seen without the updates that preceded
    it on other domains. *)
val snapshot : t -> (string * reading) list

(** Current scalar reading of metric [name]: a counter's count, a
    gauge's value, a histogram's sample count. *)
val read : t -> string -> float option

(** One CSV cell label / current-value cell per metric, in registration
    order (the time-series snapshot row format). *)
val csv_header : t -> string list

val csv_row : t -> string list

(** Human-readable end-of-run table: one row per metric with count,
    mean and p99 where applicable. *)
val to_table : t -> C4_stats.Table.t
