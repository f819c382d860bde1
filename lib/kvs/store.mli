(** MICA-like in-memory key-value store.

    Keys map to partitions through the f() shared with the NIC
    ({!Hash.partition_of_key}: [n_buckets] buckets grouped into
    [n_partitions] partitions). Each partition holds its own
    open-addressing table (linear probing, keys unboxed in an [int
    array], values in a parallel array) that doubles at a load factor
    of 3/4 and deletes by backward shift, so the index grows with the
    keys and a lookup touches O(1) cache lines. Each partition is
    protected by a {!Seqlock}: readers run the optimistic protocol
    (read, version-check, retry); writers follow the CREW discipline —
    whoever calls [set] must hold the exclusive write right for the
    key's partition, which is exactly what the NIC-side policies
    guarantee. Only that writer grows the table, inside its write
    section, by publishing a complete new table with one field write.

    Keys are 63-bit integers (the workload's key ids); values are byte
    strings mutated in place so concurrent readers genuinely need the
    version protocol. *)

type t

(** Tokens remembered per partition before FIFO eviction kicks in (see
    {!set_idempotent}); the default. *)
val default_token_capacity : int

(** [token_capacity] bounds per-partition idempotency-token retention
    (default {!default_token_capacity}); [registry] receives a
    [store.tokens_evicted] counter when supplied. *)
val create :
  ?n_buckets:int ->
  ?n_partitions:int ->
  ?token_capacity:int ->
  ?registry:C4_obs.Registry.t ->
  unit ->
  t

(** Granularity of the partition function (not a table size). *)
val n_buckets : t -> int
val n_partitions : t -> int

(** The f() shared with the NIC (Sec. 5.1). *)
val partition_of_key : t -> int -> int

(** Insert or update. Runs one seqlock write section on the partition. *)
val set : t -> key:int -> value:bytes -> unit

(** [set_sub t ~key ~value ~off ~len] is [set] of the slice
    [value.[off .. off + len)], read before it returns: an update of
    the same size blits the slice straight into the slot, so a caller
    can pass a slice of a buffer it is about to reuse. *)
val set_sub : t -> key:int -> value:bytes -> off:int -> len:int -> unit

(** Insert or update, deduplicated by idempotency [token]: if a write
    carrying the same token was already applied to this key's partition
    (a client retry whose original ack was lost), the store leaves the
    value untouched and reports [`Duplicate]. Tokens are tracked per
    partition, inside the partition's write section, so the CREW single
    writer sees an exact record.

    Retention is bounded: each partition remembers at most
    [token_capacity] tokens, evicting the oldest (FIFO) to admit a new
    one, so long-lived servers do not leak. The implied guarantee: a
    retry dedups as long as fewer than [token_capacity] {e newer}
    tokened writes reached its partition since the original applied —
    a retry window that dwarfs any client retry deadline at the
    default capacity. Evictions are counted in {!stats} and in the
    registry's [store.tokens_evicted]. *)
val set_idempotent :
  t -> key:int -> value:bytes -> token:int -> [ `Applied | `Duplicate ]

(** [read_into t ~key ~retries f x] looks [key] up under its
    partition's seqlock and returns [f v x], [v] being the slot's live
    value buffer, or [-1] if [key] is absent. [v] is read racily: [f]
    must only copy from it, and must not keep it; when an attempt fails
    the version check, what [f] did is stale and [f] runs again, with
    the same [x]. Failed attempts are added to [retries] (see
    {!Seqlock.read_begin}). With a closure-free [f] nothing is
    allocated: a server copies a value straight into its output
    buffer. *)
val read_into : t -> key:int -> retries:int ref -> (bytes -> 'a -> int) -> 'a -> int

(** Optimistic read ({!read_into}); returns a private copy of the value
    and the number of failed attempts. *)
val get : t -> key:int -> (bytes option * int)

(** {2 Prefetch hints}

    A caller about to look up a batch of keys runs [prefetch_slot] over
    all of them, then [prefetch_value], then the lookups, so the cache
    misses of the batch overlap instead of queueing one behind the
    other. Each hint only issues prefetch instructions: it never
    changes the store, never takes the seqlock, and never raises. It
    may run on any domain, racing the partition's writer (a grow, a
    backward shift): what it reads is the partition's current table,
    memory-safe whatever it sees, and it feeds no answer. Neither
    allocates. *)

(** Prefetch the lines holding [key]'s home slot: its key and value
    pointer. *)
val prefetch_slot : t -> key:int -> unit

(** Probe for [key] and, if present, prefetch every line of its value
    block. Run after {!prefetch_slot} on the same key, the probe finds
    its slot in cache; an absent key costs the probe alone. *)
val prefetch_value : t -> key:int -> unit

val mem : t -> key:int -> bool

(** Remove a key; true if it was present. *)
val remove : t -> key:int -> bool

(** Apply a batch of writes to a single key as ONE update: the combined
    write a closing compaction window performs (Sec. 4.3). Only the
    final value becomes visible; one version bump covers the batch. *)
val set_batched : t -> key:int -> values:bytes list -> unit

(** Number of items stored: the sum of the partitions' counts, exact
    when no write is in flight. *)
val size : t -> int

(** Partition version, for tests asserting update counts. *)
val partition_version : t -> partition:int -> int

(** Write-side counters, kept per partition by its single writer and
    summed here. Reads and read retries are counted by the caller
    ([C4_runtime.Server.stats] counts them per worker). *)
type stats = {
  writes : int;
  duplicate_writes : int;
  tokens_evicted : int;  (** idempotency tokens dropped by the FIFO bound *)
}

val stats : t -> stats

(** Zero [writes] and [duplicate_writes]. Call only while no writer
    runs. *)
val reset_stats : t -> unit
