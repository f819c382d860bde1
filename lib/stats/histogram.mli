(** Log-linear latency histogram (HdrHistogram-style).

    Values are bucketed with bounded relative error: each power-of-two
    range is split into [2^sub_bucket_bits] linear buckets, giving a
    worst-case relative quantile error of [2^-sub_bucket_bits]. The
    default (6 bits) bounds error at ~1.6 %, ample for 99th-percentile
    comparisons, with O(1) record and O(buckets) quantile queries. *)

type t

(** [create ()] covers values in [1, max_value] (ns by convention).
    @param sub_bucket_bits linear resolution per octave, default 6.
    @param max_value largest trackable value, default 1e9 (1 s). *)
val create : ?sub_bucket_bits:int -> ?max_value:float -> unit -> t

(** Record one value; values below 1 count as 1, values above
    [max_value] saturate into the top bucket. *)
val add : t -> float -> unit

(** Record a value [n] times. *)
val add_many : t -> float -> int -> unit

val count : t -> int

(** [quantile t q] for [q] in [0, 1]; representative (upper-edge) value
    of the bucket containing the [q]-th ordered observation. 0 when
    empty. *)
val quantile : t -> float -> float

(** Convenience accessors. *)
val median : t -> float

val p90 : t -> float
val p99 : t -> float
val p999 : t -> float

val mean : t -> float

(** Sum of every recorded value, negative ones counted as 0. *)
val sum : t -> float

val max_recorded : t -> float
val reset : t -> unit

(** Add [other]'s recordings into [t]; both must have the same layout.
    The consistent-snapshot building block: {!C4_obs.Registry} merges
    its per-domain shards into a fresh histogram under their locks, so
    exporters never read torn totals. *)
val merge : t -> other:t -> unit

(** Nonempty buckets as [(upper_edge, count)] pairs, ascending. *)
val buckets : t -> (float * int) list

val pp : Format.formatter -> t -> unit
