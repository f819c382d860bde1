(** The engine-agnostic d-CREW policy core.

    One explicit-state machine holds every policy the paper contributes
    — EWT exclusive-writer ownership, JBSQ(k) queue selection, the
    compaction-window lifecycle (open / absorb / apply / deferred
    respond / close), EWT TTL staleness sweeps, and adaptive load-shed
    levels — as transition functions with no wall-clock, no threads and
    no I/O inside. Both execution engines drive the same instance of
    this code: the discrete-event model feeds it simulated time, the
    multicore runtime feeds it wall-clock time, and the differential
    parity test checks that the two produce identical
    {!Decision.t} sequences for one recorded trace.

    {2 The clock/effects signature}

    The core is pure with respect to its engine: time only enters
    through explicit [~now] arguments, and effects only leave through
    return values and the {!Decision.t} stream. {!ENGINE} names the
    obligations a driver discharges around the core; it is the contract
    both [C4_model.Server] (simulated) and [C4_runtime.Server]
    (domains + channels) implement. *)

(** What a driving engine must supply around the core. The core never
    calls these — inversion of control runs the other way: the engine
    reads the clock, hands [now] to each transition, and turns the
    returned instructions into mechanism. *)
module type ENGINE = sig
  (** Current time in ns (simulated or wall-clock — the core does not
      care, only that it is monotone per driver). *)
  val now : unit -> float

  (** Arrange for a callback at an absolute deadline — window-close
      timers and periodic sweep/shed ticks. A queued engine that closes
      windows as soon as the harvest is applied may discharge this
      trivially. *)
  val at : float -> (unit -> unit) -> unit

  (** Look ahead in the worker's queue for a dependent (same-key)
      write, up to the core's scan depth. *)
  val dependent_queued : worker:int -> key:int -> bool

  (** Deliver a response. The compaction contract: responses for
      absorbed writes are delivered only after {!val-close_window}
      returns them — never early — which is what keeps compacted
      histories linearizable on both engines. *)
  val respond : request:int -> unit
end

type t

(** A write's admission stamp: the worker whose pin counted it and that
    worker's incarnation. Release the write with it ({!write_done}). *)
type stamp = C4_nic.Ewt.stamp

(** The admission verdict for one write. *)
type admit =
  | Admitted of { worker : int; fresh : bool; stamp : stamp }
      (** route to [worker]; [fresh] means this write created the pin
          (an EWT miss), otherwise it rode an existing one (a hit) *)
  | No_slot
      (** partition unowned and no balanced slot free: the engine
          should park the write in its central queue and retry via
          [pick:`Worker] when a slot frees *)
  | Rejected of { reason : Decision.reject_reason; owner : int option }
      (** dropped by the EWT; [owner] is the pinned worker when the
          reject was a saturated counter (a hit), [None] on a full
          table (a miss) *)

(** [create ~cfg ~n_workers ~n_partitions ()] validates [cfg]
    ({!Config.validate}) and builds the initial state: durable
    ownership assigns partition [p] to worker [p mod n_workers], the
    EWT is empty, no windows are open, shed level 0.

    Admission ({!admit_write}) with a [`Local] or [`Static] pick,
    release ({!write_done}) and {!route_owner} may be called by workers
    on several domains at once, and take no lock unless [on_decision]
    is set. Every other transition expects one caller at a time (the
    engine's own lock, or its single thread).

    @param registry receives the EWT / compaction metrics plus one
    [crew.*] counter per decision kind; private when omitted. Pass a
    thread-safe registry when workers on several domains drive the
    core.
    @param on_decision called synchronously with every decision, on the
    thread that took it — the parity recorder. Decisions are built only
    when it is set, and then admission, release, {!reassign} and
    {!sweep_stale} each run with their decisions under one lock, so the
    hook sees pin decisions in the order they took effect. *)
val create :
  ?registry:C4_obs.Registry.t ->
  ?on_decision:(Decision.t -> unit) ->
  cfg:Config.t ->
  n_workers:int ->
  n_partitions:int ->
  unit ->
  t

val config : t -> Config.t
val n_workers : t -> int
val n_partitions : t -> int

(** {2 Ownership}

    Two layers, consulted pin-first. The durable assignment is the
    crash-recovery ground truth (what the runtime's owner map used to
    be); the EWT pin is the transient exclusive-writer mapping the NIC
    holds while writes are outstanding. *)

(** Durable assignment of [partition]. *)
val assigned_owner : t -> partition:int -> int

(** Per-worker durable-assignment census: [counts.(w)] partitions are
    assigned to worker [w] (they sum to [n_partitions]). The balance —
    and, after a {!reassign}, the skew — a telemetry plane should show.
    Snapshot semantics only under the engine's routing lock, like every
    other read of the ownership map. *)
val ownership_counts : t -> int array

(** Pin-aware view: the EWT pin when one exists (it always agrees with
    the durable assignment under static pinning), else the durable
    assignment. This is the ownership view the network stack routes
    through. *)
val route_owner : t -> partition:int -> int

(** Crash recovery: retire [from_worker]'s incarnation, free every pin
    word it holds (emitting [Unpin] per partition, ascending), then move
    its durable assignments to [to_worker], emitting one [Remap] per
    moved partition; returns how many moved. A write admitted under the
    retired incarnation is no longer {!stamp_live}, and its release
    frees nothing. Nothing moves when [from_worker = to_worker]
    (sole-survivor recovery), but the incarnation still retires. *)
val reassign : t -> from_worker:int -> to_worker:int -> int

(** The worker a stamp routes to. *)
val stamp_worker : stamp -> int

(** Was [stamp] issued to its worker's current incarnation? A write
    whose stamp is not live must be admitted again before it is
    applied: its pin was evicted by a {!reassign}. *)
val stamp_live : t -> stamp -> bool

(** The static hash fallback for unowned writes confined to the worker
    range [lo, hi) — pure, shared by both engines so they cannot
    disagree on it. *)
val static_owner : partition:int -> lo:int -> hi:int -> int

(** {2 JBSQ(k) queue selection}

    Occupancy counts and choice logic only; the request objects live in
    the engine's queues. *)

val try_dispatch : t -> lo:int -> hi:int -> int option
val dispatch_to : t -> worker:int -> unit
val complete : t -> worker:int -> unit
val has_slot : t -> worker:int -> bool
val occupancy : t -> worker:int -> int

(** {2 EWT write admission}

    [admit_write] runs the paper's d-CREW dispatch for one write with
    one compare-and-set on the partition's pin word: on a hit bump the
    pin's counter and route to the holder; on a miss pick a worker —
    [`Balanced (lo, hi)] asks JBSQ (or the static hash, per
    {!Config.pin_fallback}), [`Worker w] pins to a given worker
    (central-queue hand-out), [`Local w] pins to the engine worker [w]
    that is admitting the write itself, [`Static] uses the durable
    assignment — and install the pin. A lost race re-reads the word and
    tries again; a pin left by a retired incarnation is freed, never
    ridden. JBSQ occupancy is charged for every admission except
    [`Static] and [`Local] picks, whose engine owns its own queue
    accounting (the runtime's inboxes). [now] stamps the pin for the
    TTL sweep and is ignored when no TTL is configured. *)
val admit_write :
  ?now:float ->
  t ->
  partition:int ->
  pick:[ `Balanced of int * int | `Local of int | `Static | `Worker of int ] ->
  admit

(** The write's response left: one compare-and-set decrements the
    pin's counter, emitting [Unpin] when it frees — but only while the
    word still carries [stamp], so a late release never touches a pin a
    later write installed. Without [stamp] the release takes the word's
    current stamp: enough for an engine that drives the core from one
    thread and never reassigns. [strict] defaults to [true] exactly
    when no TTL is configured: then a missing pin is a protocol
    violation and raises; with a TTL (or [~strict:false]) it counts an
    orphan release instead — the sweep may legitimately have reclaimed
    the mapping. *)
val write_done : ?strict:bool -> ?stamp:stamp -> t -> partition:int -> unit

(** Evict pins idle past the TTL, emitting [Stale_evict] per partition
    (ascending); no-op returning [[]] when no TTL is configured. *)
val sweep_stale : t -> now:float -> int list

val ewt_occupancy : t -> int
val ewt_outstanding : t -> partition:int -> int
val ewt_stats : t -> C4_nic.Ewt.occupancy_stats

(** {2 Compaction windows}

    One window per worker, at most. The engine detects the trigger (a
    dependent write within scan depth — a queue scan in the model, a
    channel harvest in the runtime), and the core owns the lifecycle:
    when a window may open, what its deadline is, what it absorbed, and
    when it must close. Absorbed writes are answered only from the list
    {!close_window} returns. *)

val compaction_enabled : t -> bool

(** Scan depth (0 when compaction is disabled). *)
val scan_depth : t -> int

(** Max writes per window (1 when compaction is disabled). *)
val max_batch : t -> int

(** Service-time cost of scanning [queued] slots (capped at scan
    depth); 0 when compaction is disabled. *)
val scan_cost : t -> queued:int -> float

val window_is_open : t -> worker:int -> bool

(** Does [worker]'s open window accept [key]? (False when no window.) *)
val window_accepts : t -> worker:int -> key:int -> bool

val window_buffered : t -> worker:int -> int

(** Open a window on [worker] for [key] and return its absolute close
    deadline: [max now (anchor + S̄·(multiplier−1)·budget)] where the
    anchor is [arrival] or [now] per {!Config.compaction}. Emits
    [Window_open]. Raises if compaction is off or a window is already
    open on this worker. *)
val open_window :
  t -> worker:int -> key:int -> now:float -> arrival:float -> mean_service:float -> float

(** Buffer write [id] into the open window (deferring its response). *)
val absorb : t -> worker:int -> key:int -> id:int -> now:float -> unit

(** Must [worker]'s window close now — deadline reached, or queue dry
    under adaptive close? False when no window is open. *)
val must_close : t -> worker:int -> now:float -> queue_empty:bool -> bool

(** Close the window and return the absorbed writes in buffering order
    — the engine applies ONE combined update and only then delivers
    these responses. Emits [Window_close]; [None] if no window. *)
val close_window : t -> worker:int -> now:float -> C4_kvs.Compaction_log.closed option

(** Lifetime window stats merged across workers; [None] when
    compaction is disabled. *)
val compaction_stats : t -> C4_kvs.Compaction_log.stats option

(** {2 Adaptive load shedding}

    The engine feeds arrival/drop counts and a periodic tick; the core
    owns the thresholds and the level. *)

val shed_level : t -> int

(** Count [n] (default 1) arrivals in the current window. *)
val note_arrival : ?n:int -> t -> unit

(** Count one non-shed drop in the current window. *)
val note_drop : t -> unit

(** Periodic tick: compare the window's drop rate against the
    thresholds, move the level one step, reset the window, return the
    (possibly new) level. Emits [Shed_level] on change. *)
val shed_check : t -> now:float -> int

(** Would the current level reject this request? Level ≥ 1 sheds reads;
    level ≥ 2 also sheds writes when compaction cannot absorb them. *)
val shed_rejects : t -> is_read:bool -> bool
