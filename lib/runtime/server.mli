(** A real, multicore in-process KVS server: worker domains serving the
    {!C4_kvs.Store} under the shared d-CREW policy core
    ([C4_crew.Core]), with optional write compaction and crash
    recovery.

    Since the policy extraction this module is a {e wall-clock driver}
    around the same core the discrete-event model drives: the core
    decides (pins, routes, window opens/closes, shed levels, stale
    evictions), and this driver turns those decisions into mechanism —
    worker domains, MPSC channels, completion callbacks, a crash
    monitor. The
    differential parity test replays one recorded trace through both
    drivers and holds their decision streams equal.

    - writes are admitted through [Core.admit_write] and routed to the
      partition's pinned owner (CREW), so the store's per-partition
      seqlocks never see two writers — the invariant the NIC enforces
      in C-4;
    - reads are sprayed across live workers round-robin and run the
      seqlock's optimistic protocol against concurrent in-place updates;
    - with compaction enabled (via {!config.crew}), a worker that pops
      a write drains the queued writes to the same key from its channel,
      up to the batch cap (the dependent-write harvest; later ones keep
      their place in the queue), runs the core's window
      lifecycle (open / absorb / close), applies ONE batched update,
      and only then answers all of them — C-4's deferred-response rule,
      so recorded histories remain linearizable, which the test suite
      verifies on real executions;
    - writes may carry an idempotency token: a retried write whose first
      attempt was applied (only the ack was lost) is detected in the
      store and NOT applied twice;
    - a monitor domain watches for worker death — an injected crash
      ({!inject_crash}) or any exception escaping a worker: on a death
      it re-owns the dead worker's partitions on a survivor
      through [Core.reassign] (which also evicts the dead worker's EWT
      pins, so no stale pin keeps routing at the corpse), requeues the
      dead channel's backlog along the new routes, and restarts the
      worker — no acknowledged write is lost, and the recorded history
      stays linearizable;
    - with a WAL configured ({!config.wal}), every mutation is appended
      to its partition's log BEFORE the ack, and the ack is routed
      through the WAL's group-commit machinery ([C4_wal.Wal.commit]) so
      fsync-gated policies acknowledge from the WAL's sync domain —
      workers never block on fsync. A compaction window's deferred
      responses form one group-commit batch (one fsync covers the whole
      window). On {!start} the log is replayed into the store before
      any worker exists; tokened records go back through
      [Store.set_idempotent], so client retries still dedup across a
      restart.

    On a many-core machine this is a usable (if minimal) concurrent KVS;
    on a single core it still exercises every synchronisation path via
    preemptive interleaving. *)

type t

(** Raised by every operation once {!stop} has begun (or won the race
    against an in-flight submission). Distinct from the store/channel
    [Invalid_argument]s so callers can retry-or-abandon cleanly. *)
exception Stopped

type config = {
  n_workers : int;
  n_buckets : int;
  n_partitions : int;
  crew : C4_crew.Config.t;
      (** the shared d-CREW policy configuration — the same record type
          the model server takes, so the two engines cannot drift on
          thresholds. Compaction on/off and the batch cap now live
          here. The EWT capacity is raised to [n_partitions] at start
          if smaller: the runtime's table is bookkeeping, not a scarce
          CAM *)
  recovery : bool;  (** run the crash-monitor domain (default true) *)
  monitor_interval : float;  (** seconds between monitor sweeps *)
  clock : unit -> float;
      (** the time source fed to the policy core, in ns. Defaults to
          wall clock; the parity test injects a logical clock so both
          engines see the same timestamps *)
  on_decision : (C4_crew.Decision.t -> unit) option;
      (** called with every policy decision the core takes, in decision
          order — the differential parity test's recorder, and the
          tracing hook that stamps admission decisions onto request
          spans ([C4_obs.Span.annotate_current]: admission decisions
          fire synchronously on the submitting thread). Called with
          [route_lock] held for routing decisions; keep it cheap *)
  registry : C4_obs.Registry.t option;
      (** receives the policy core's crew.* / EWT / compaction metrics.
          Must be thread-safe when supplied (worker domains bump it);
          a private thread-safe registry is used when [None]. Share one
          registry with [C4_net.Server] and the telemetry endpoint to
          expose the whole stack in one scrape *)
  wal : C4_wal.Wal.config option;
      (** durability tier: [None] (default) keeps the in-memory-only
          behaviour; [Some cfg] opens (and, on restart, replays) a
          per-partition write-ahead log under [cfg.dir] before serving.
          [cfg.n_partitions] must equal [n_partitions] — the key→
          partition map fixes per-key replay order, so it may not drift
          across restarts of the same log directory *)
}

(** 4 workers, {!C4_crew.Config.queued} policy profile (compaction on,
    effectively unbounded outstanding-write counters — the channels
    provide the backpressure), recovery on, wall clock. *)
val default_config : config

(** Start the worker domains (plus the monitor when [recovery]). *)
val start : config -> t

(** {2 Submission}

    The [submit_*] calls route one op and return at once (thread-safe,
    callable from any domain); its completion [k] later runs exactly
    once, on the thread that completes the op: a worker domain, the
    WAL's sync domain under an fsync-gated policy, a cluster
    replication-ack reader behind a quorum gate, or the caller of
    {!stop} for ops it applies itself. [k] must not block — it runs on
    those threads' critical paths — and should not raise: an exception
    escaping [k] kills the worker that ran it (the monitor then
    recovers it) and leaves the rest of that worker's batch
    unanswered. A SET's [k] runs only after the store apply (and, with
    a WAL, the append and its durability policy). [token] is an
    idempotency key: two sets carrying the same token apply at most
    once — pass the same token on a client retry and the duplicate is
    suppressed. Submissions raise {!Stopped} once {!stop} has begun;
    [k] then never runs. *)

val submit_get : t -> key:int -> (bytes option -> unit) -> unit

val submit_set :
  ?token:int -> t -> key:int -> value:bytes -> (unit -> unit) -> unit

(** Deletes are routed to the partition owner like writes, since they
    mutate partition state; [k] gets [true] if the key was present. *)
val submit_delete : t -> key:int -> (bool -> unit) -> unit

(** {2 Blocking and promise wrappers}

    The same ops for callers that may block (tests, a replica's apply
    loop, examples): each submits with a completion that fulfils a
    promise. *)

val get : t -> key:int -> bytes option
val set : t -> key:int -> value:bytes -> unit
val delete : t -> key:int -> bool
val get_async : t -> key:int -> bytes option Promise.t
val set_async : ?token:int -> t -> key:int -> value:bytes -> unit Promise.t
val delete_async : t -> key:int -> bool Promise.t

(** Simulated fail-stop of one worker domain: the worker dies between
    operations (never mid-write — acks are sent only after the store
    apply, so acknowledged writes survive by construction) and the
    monitor recovers as described above. *)
val inject_crash : t -> worker:int -> unit

(** Park a worker: the call blocks until the worker has entered the
    gate, then returns a release closure. While parked the worker pops
    nothing, so ops submitted to it queue in its channel — the
    deterministic-replay hook the parity test uses to force a harvest
    batch. The caller MUST invoke the release before {!stop} (a parked
    worker never drains its backlog). *)
val pause_worker : t -> worker:int -> unit -> unit

(** Run the core's EWT TTL staleness sweep at logical time [now];
    returns the evicted partitions (ascending). Exposed for harnesses
    and tests — the server does not tick this itself. *)
val sweep_stale : t -> now:float -> int list

(** Run the core's load-shed check at logical time [now]; returns the
    (possibly new) level. Exposed for harnesses — this server never
    rejects on shed itself (its channels backpressure instead). *)
val shed_check : t -> now:float -> int

val shed_level : t -> int

(** Drain queues, join the domains. Two-phase: [stop] first rejects new
    submissions (they raise {!Stopped}), then lets the still-running
    workers drain every queued backlog op before tearing the domains
    down — so a front-end (e.g. [C4_net.Server]) that flushes its
    connection backlogs before calling [stop] never has an
    accepted-but-unanswered request dropped. Idempotent, and safe to
    race with in-flight operations: every op submitted before [stop]
    completes (including the backlog of a worker that crashed in the
    stop window, which [stop] applies itself). With a WAL, [stop] finishes by
    flushing and fsyncing every partition's log and closing it — a clean
    shutdown leaves no torn tail. Concurrent [stop]s serialise; the
    loser returns after shutdown completes. *)
val stop : t -> unit

(** [true] once {!stop} has begun: submissions will raise {!Stopped}.
    Front-ends poll this to fail fast instead of catching. *)
val is_stopping : t -> bool

type stats = {
  ops_completed : int;
  writes : int;
  batches : int;  (** batched updates applied (compaction only) *)
  batched_writes : int;  (** writes answered from a batch *)
  read_retries : int;  (** seqlock retries observed by readers *)
  per_worker_ops : int array;
  recoveries : int;  (** worker crashes recovered *)
  requeued_ops : int;  (** backlog ops requeued by recoveries *)
  duplicate_writes : int;  (** tokened writes suppressed as duplicates *)
  wal_replayed : int;  (** records replayed from the WAL at {!start} *)
  tokens_evicted : int;
      (** idempotency tokens dropped by the store's FIFO retention bound *)
}

val stats : t -> stats

(** Workers currently marked alive (exposed for tests). *)
val alive_workers : t -> int

(** The worker that owns a key's partition — the core's pin-aware
    ownership view ([Core.route_owner]), which the network stack also
    routes through. After a recovery this reflects the re-owned map. *)
val owner_of_key : t -> int -> int

(** {2 Client-side routing helpers}

    The key→partition mapping this server computes, exported so network
    clients can shard the memcached way: [C4_net.Client] uses
    {!C4_kvs.Hash.node_of_key} to pick an endpoint and can use these to
    reason about per-server partition placement. *)

(** The partition a key hashes to (same f() as the store and the NIC). *)
val partition_of_key : t -> int -> int

val n_partitions : t -> int
val n_workers : t -> int

(** The runtime's WAL, when {!config.wal} enabled one — exposed so the
    cluster runtime ([C4_clusterd.Member]) can install its replication
    tap ({!C4_wal.Wal.set_append_hook}) and quorum ack gate
    ({!C4_wal.Wal.set_ack_gate}) before serving traffic. Owned by the
    runtime: do not close it. *)
val wal_handle : t -> C4_wal.Wal.t option

(** Per-worker durable partition-ownership census
    ([C4_crew.Core.ownership_counts] under the routing lock, so it
    never interleaves with a recovery remap): [counts.(w)] partitions
    currently assigned to worker [w]. The health-document view of who
    owns how much — uniform at start, visibly skewed after a crash
    moves a dead worker's partitions to a survivor. *)
val ownership_counts : t -> int array
