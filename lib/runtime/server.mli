(** A real, multicore in-process KVS server: worker domains serving the
    {!C4_kvs.Store} under the shared d-CREW policy core
    ([C4_crew.Core]), with optional write compaction, crash recovery
    and a write-ahead log. The core decides (pins, routes, windows,
    shed levels, remaps); this wall-clock driver turns the decisions
    into mechanism. The differential parity test replays one trace
    through this driver and the discrete-event model and holds their
    decision streams equal.

    Each worker is an event loop: every iteration it drains its inbox,
    then sleeps in poll(2) on its self-pipe plus whatever connections
    an attached front-end ({!attach}; [C4_net.Server]) gave it, and
    runs the requests it decodes to completion on the spot:

    - a read runs inline, lock-free, under the store's seqlock;
    - a write is admitted by [Core.admit_write], one CAS on the
      partition's pin word and no lock: a free partition (or one pinned
      here, with the inbox empty) is pinned here and written inline, a
      partition pinned elsewhere gets the write forwarded to the
      holder's inbox — so only the pin holder ever writes a partition
      (CREW) — and its completion back to this worker's. A worker runs
      queued work and completions before each request it admits
      itself. Threads outside the workers (tests, a replica's apply
      loop) pin at the durable owner under the routing lock and go
      through its inbox;
    - with compaction on ({!config.crew}), a worker that pops a write
      harvests the queued writes to the same key (up to the batch cap),
      applies ONE batched update and only then answers them all — C-4's
      deferred-response rule, which keeps histories linearizable;
    - a tokened write whose first attempt was applied is not applied
      twice;
    - a monitor thread sleeps until a worker dies (an injected crash or
      any escaping exception), retires its incarnation and re-owns its
      partitions on a survivor through [Core.reassign] (freeing its
      pins), requeues its inbox along the new routes and restarts it;
      the restarted domain resumes serving its connections. A write
      that rode a pin of the retired incarnation is admitted again when
      popped, never applied on its old stamp. No acknowledged write is
      lost;
    - with a WAL ({!config.wal}) every mutation is appended before its
      ack, and the ack goes through [C4_wal.Wal.commit], so fsync-gated
      policies acknowledge from the WAL's sync domain. {!start} replays
      the log before any worker exists. *)

type t

(** Raised by every operation once {!stop} has begun (or won the race
    against an in-flight submission). *)
exception Stopped

type config = {
  n_workers : int;
  n_buckets : int;
  n_partitions : int;
  crew : C4_crew.Config.t;
      (** the policy configuration shared with the model server
          (compaction, batch cap, thresholds). The EWT capacity is
          raised to [n_partitions] and the per-pin write limit to the
          [queued] profile's: here the table is one pin word per
          partition, not a scarce CAM, and the inboxes hold the
          backlog. The runtime runs no TTL sweep and no load shedding *)
  recovery : bool;  (** run the crash-monitor thread (default true) *)
  clock : unit -> float;
      (** the policy core's time source, in ns (wall clock by default;
          the parity test injects a logical one) *)
  on_decision : (C4_crew.Decision.t -> unit) option;
      (** every policy decision — the parity recorder and the tracing
          hook. It runs on the thread that took the decision (admission
          decisions on the submitting thread), from several workers at
          once: make it thread-safe and cheap. Decisions are built only
          when it is set, and then admission and release serialise on
          one lock so the hook sees them in the order they took
          effect *)
  registry : C4_obs.Registry.t option;
      (** receives the crew.* metrics; must be thread-safe. Private
          when [None] *)
  wal : C4_wal.Wal.config option;
      (** [Some cfg] opens (replaying it) a per-partition log under
          [cfg.dir]; [cfg.n_partitions] must equal [n_partitions] *)
}

(** 4 workers, {!C4_crew.Config.queued} (compaction on, effectively
    unbounded pin counters), recovery on, wall clock, no WAL. *)
val default_config : config

(** Start the worker domains (plus the monitor thread when [recovery]). *)
val start : config -> t

(** {2 Submission}

    The [submit_*] calls return at once and may be called from any
    thread ([on]: the calling worker's handle from its {!io} round, else
    looked up). The completion [k] runs exactly once. Completions come
    home: a worker's own submission completes on that worker — inline,
    or from its inbox, one hop, when the pin holder, the WAL sync domain
    or a replication-ack reader finishes it (the pin is released where
    the write finished). One queued on a worker that dies waits for its
    restart. Other threads' submissions, and any once {!stop} has
    begun, complete where they finish. [k] must not block and should
    not raise: an exception on a worker's inbox path kills the worker
    (the monitor recovers it); on the inline path it reaches the
    caller, as does one from the inline apply itself, after the write's
    pin is released. A SET's [k] runs only after the store
    apply (and the WAL append and its durability policy). Two sets
    carrying the same [token] apply at most once. Submissions raise
    {!Stopped} once {!stop} has begun; [k] then never runs.
    [submit_set] and [submit_delete] return the worker that executes
    the write. [admitted] runs once admission has placed the op, before
    it can run anywhere — where a tracer closes its admission span.

    A SET's value is the slice [value.[off .. off + len)]. A write a
    worker applies inline blits the slice straight into the store slot
    and keeps nothing, so the caller may reuse the buffer once
    [submit_set] returns; only a write that outlives the call — one
    forwarded or queued to another worker, its WAL record, a tokened
    write's check — takes a private copy. A slice that is the whole
    buffer is kept as is instead: do not mutate it until [k] runs. *)

(** A worker, as its own {!io} round sees it. *)
type worker

val worker_id : worker -> int

val submit_get :
  ?admitted:(unit -> unit) -> ?on:worker -> t -> key:int -> (bytes option -> unit) -> unit

val submit_set :
  ?admitted:(unit -> unit) ->
  ?token:int ->
  ?on:worker ->
  t ->
  key:int ->
  value:bytes ->
  off:int ->
  len:int ->
  (unit -> unit) ->
  int

(** Admitted like a write; [k] gets [true] if the key was present. *)
val submit_delete :
  ?admitted:(unit -> unit) -> ?on:worker -> t -> key:int -> (bool -> unit) -> int

(** [read_into t w ~key f x] is an inline GET into the caller's own
    buffer, for a front-end's request path on worker [w]: like
    [submit_get]'s inline case (raises {!Stopped}, runs the work and
    completions queued here, then [admitted]), but the value is not
    copied out: it returns {!C4_kvs.Store.read_into}'s [f v x] on the
    slot's live buffer, or [-1] if [key] is absent, and counts the read
    and its failed attempts against [w]. With a closure-free [f] it
    allocates nothing. *)
val read_into :
  ?admitted:(unit -> unit) -> t -> worker -> key:int -> (bytes -> 'a -> int) -> 'a -> int

(** [run_on t ~worker k] runs [k] on [worker]'s loop, the hop every
    foreign completion takes: at once when called there, else from its
    inbox (for a front-end's completion another thread releases). *)
val run_on : t -> worker:int -> (unit -> unit) -> unit

(** The store's prefetch hints ({!C4_kvs.Store.prefetch_slot},
    {!C4_kvs.Store.prefetch_value}), for a front-end about to serve a
    batch of requests: run [prefetch_slot] over the batch's keys, then
    [prefetch_value], then serve it. Any thread; no admission, no
    effect on the store or on any answer. *)
val prefetch_slot : t -> key:int -> unit

val prefetch_value : t -> key:int -> unit

(** {2 Blocking and promise wrappers}

    For callers that may block (tests, a replica's apply loop,
    examples). *)

val get : t -> key:int -> bytes option
val set : t -> key:int -> value:bytes -> unit
val delete : t -> key:int -> bool
val get_async : t -> key:int -> bytes option Promise.t
val set_async : ?token:int -> t -> key:int -> value:bytes -> unit Promise.t
val delete_async : t -> key:int -> bool Promise.t

(** Simulated fail-stop of one worker: it dies between operations
    (never mid-write, so acknowledged writes survive) and the monitor
    recovers it as described above. *)
val inject_crash : t -> worker:int -> unit

(** Park a worker: blocks until the worker has entered the gate, then
    returns a release closure. While parked the worker serves nothing,
    so ops submitted to it queue in its inbox — the parity test's way
    to force a harvest batch. Release before {!stop}. *)
val pause_worker : t -> worker:int -> unit -> unit

(** Reject new submissions, let the workers drain their inboxes, join
    them, then complete whatever a crashed worker left queued — every
    op submitted before [stop] completes. Stop an attached front-end
    first, so no accepted request is left unanswered. With a WAL, ends
    by fsyncing and closing every partition's log. Idempotent;
    concurrent [stop]s serialise. *)
val stop : t -> unit

type stats = {
  ops_completed : int;
  writes : int;
  batches : int;  (** batched updates applied (compaction only) *)
  batched_writes : int;  (** writes answered from a batch *)
  read_retries : int;  (** seqlock retries observed by readers *)
  per_worker_ops : int array;  (** ops each worker executed *)
  recoveries : int;  (** worker crashes recovered *)
  requeued_ops : int;  (** backlog ops requeued by recoveries *)
  duplicate_writes : int;  (** tokened writes suppressed as duplicates *)
  wal_replayed : int;  (** records replayed from the WAL at {!start} *)
  tokens_evicted : int;
      (** idempotency tokens dropped by the store's FIFO retention bound *)
}

val stats : t -> stats

(** Workers currently marked alive. *)
val alive_workers : t -> int

(** The core's pin-aware ownership view ([Core.route_owner]): the pin
    holder while a write is outstanding, else the durable owner (where
    writes from outside the workers go). *)
val owner_of_key : t -> int -> int

(** The partition a key hashes to (same f() as the store and the NIC). *)
val partition_of_key : t -> int -> int

val n_partitions : t -> int
val n_workers : t -> int

(** The runtime's WAL, for [C4_clusterd.Member] to install its
    replication tap and quorum ack gate. Owned by the runtime. *)
val wal_handle : t -> C4_wal.Wal.t option

(** Durable partition-ownership census: [counts.(w)] partitions are
    assigned to worker [w] — skewed after a crash moves a dead
    worker's partitions to a survivor. *)
val ownership_counts : t -> int array

(** {2 Front-end hooks}

    How [C4_net.Server] turns the workers into its event loops. *)

(** One I/O round of a worker, run after each inbox drain: block in
    poll(2) on [wake] (the worker's self-pipe) plus the front-end's own
    descriptors, serve what became ready — submissions made here with
    [~on] set to the worker run inline — and return [true] when [wake]
    was readable. *)
type io = worker -> wake:Unix.file_descr -> bool

(** Install [io] on every worker. Raises [Invalid_argument] if a
    front-end is already attached. *)
val attach : t -> io -> unit

(** Back to polling the self-pipe alone, once the front-end holds no
    connections. *)
val detach : t -> unit

(** Make [worker] start a new iteration soon: any thread, never blocks,
    coalesced, and a no-op on [worker]'s own domain (which picks up
    what it published before it next blocks). *)
val wake : t -> worker:int -> unit
