(** Exclusive Writer Table (Sec. 5.2), as one pin word per partition.

    The hardware keeps one exact-match entry per partition currently in
    exclusive-write mode:

    {v  partition id (30b) -> { thread id (6b); outstanding writes (6b) }  v}

    Here every partition owns one [int Atomic.t] word that packs the
    holder, the holder's incarnation and the outstanding-write count, so
    every transition is one compare-and-set and no lock is needed:

    - a write to a free partition pins it ({!pin}): holder and
      incarnation set, count = 1;
    - a write to a held partition rides the pin ({!route}): count += 1,
      saturating at [max_outstanding], after which the NIC must apply
      flow control;
    - a write response releases with its {!stamp} ({!release}):
      count -= 1, and at zero the word is free and the partition
      balanceable again. A release whose stamp the word no longer
      carries (the pin was evicted, or re-pinned by a later
      incarnation) changes nothing.

    A table with fewer entries than partitions is the NIC's CAM: it
    keeps a census of live entries, refuses a pin once [capacity] are
    live, and samples its occupancy at every mutation, because the
    paper sizes the hardware from those samples (avg 30 / max 64
    entries at f_wr = 50 %, avg 52 / max 90 at 85 %, Sec. 7.1.1). A
    table with an entry for every partition can never fill, so it keeps
    no census: its transitions touch nothing but the partition's word. *)

type t

(** A write's admission stamp: the holder and its incarnation. *)
type stamp = private int

(** Holders must lie in [0, max_holders). *)
val max_holders : int

(** [create ~n_partitions ()] builds a table with every word free.
    @param registry observability registry receiving the table's
    counters ([ewt.hit], [ewt.miss], [ewt.insert], [ewt.evict],
    [ewt.reject_full], [ewt.reject_saturated], [ewt.stale_evict],
    [ewt.orphan_release]); a private registry is used when omitted.
    @param capacity live-entry limit (default 128, the paper's sizing).
    @param max_outstanding per-entry write counter limit (default 64,
    the 6-bit field; at most 2{^21} - 1). *)
val create :
  ?registry:C4_obs.Registry.t ->
  ?capacity:int ->
  ?max_outstanding:int ->
  n_partitions:int ->
  unit ->
  t

val capacity : t -> int

(** {2 Pin words} *)

(** The partition's current word: one atomic load. *)
val word : t -> partition:int -> int

val is_free : int -> bool

(** Holder of a word that is not free. *)
val holder : int -> int

(** Outstanding writes a word counts (0 when free). *)
val count : int -> int

(** The stamp a held word carries. *)
val stamp_of : int -> stamp

val stamp : holder:int -> incarnation:int -> stamp
val stamp_holder : stamp -> int

(** Pin the free partition to [holder] at [incarnation], with one CAS
    from the free word. [`Moved]: the word was not free (another pin
    won the race; re-read and retry). [`Full]: the table's live-entry
    limit is reached. [now] stamps the entry for {!expire_stale}. *)
val pin :
  ?now:float ->
  t ->
  partition:int ->
  holder:int ->
  incarnation:int ->
  [ `Ok | `Full | `Moved ]

(** Ride the held pin [seen] (a word read with {!word}) with one CAS
    that bumps its count. [`Moved]: the word changed since [seen].
    [`Counter_saturated]: the count is at its limit. *)
val route :
  ?now:float -> t -> partition:int -> seen:int -> [ `Ok | `Counter_saturated | `Moved ]

(** Release one write admitted under [stamp]: one CAS that decrements
    the count, freeing the word at zero. [`Stale] when the word does
    not carry [stamp] (free, or pinned by another holder or
    incarnation): nothing changes and an [ewt.orphan_release] is
    counted. *)
val release : t -> partition:int -> stamp:stamp -> [ `Held | `Freed | `Stale ]

(** Holder of [partition] if it is pinned, counting an [ewt.hit] or an
    [ewt.miss]. *)
val lookup : t -> partition:int -> int option

(** Free every word [holder] holds (ascending partition order, each
    counted as [ewt.evict]) and return those partitions. Crash
    recovery uses this: a dead worker's pins must not keep routing
    writes to its channel once its partitions are re-owned elsewhere. *)
val evict_holder : t -> holder:int -> int list

(** Free every held word whose last write is older than [ttl] (ns
    before [now]), returning the partitions in ascending order, each
    counted as [ewt.stale_evict]. A leaked response (a write whose
    completion never decremented the counter) would otherwise pin its
    partition to one worker forever; the sweep bounds that blast
    radius. Requires [ttl > 0]. *)
val expire_stale_partitions : t -> now:float -> ttl:float -> int list

(** {!expire_stale_partitions}, counted. *)
val expire_stale : t -> now:float -> ttl:float -> int

(** Total stale evictions / orphan releases so far. *)
val stale_evictions : t -> int

val orphan_releases : t -> int

(** Live entries: the census, or a scan of the words when the table
    keeps none. *)
val occupancy : t -> int

(** Outstanding-write count of [partition] (0 when free). *)
val outstanding : t -> partition:int -> int

(** Occupancy sampled at every mutation: time-average and peak. All
    zero for a table with an entry for every partition. *)
type occupancy_stats = { average : float; peak : int; samples : int }

val occupancy_stats : t -> occupancy_stats
val reset_stats : t -> unit
