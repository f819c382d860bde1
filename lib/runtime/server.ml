module Store = C4_kvs.Store
module Crew_config = C4_crew.Config
module Core = C4_crew.Core
module Registry = C4_obs.Registry
module Wal = C4_wal.Wal
module Record = C4_wal.Record

exception Stopped

(* Raised by [inject_crash]'s poison op: the worker dies between (never
   inside) store operations, and since acks follow the apply, a crash
   never loses an acknowledged write. *)
exception Crash_injected

(* A write's admission stamp: the worker whose pin counted it, and that
   worker's incarnation. A recovery evicts the dead worker's pins and
   bumps its incarnation, so a release with the old stamp is dropped
   instead of decrementing a pin a later write installed. *)
type pin = { p_worker : int; p_epoch : int }

(* Each op carries its completion, run once by whoever completes it. *)
type op =
  | Get of int * (bytes option -> unit)
  | Set of int * bytes * int option * pin * (unit -> unit)
      (** key, value, idempotency token, admission stamp, ack *)
  | Delete of int * pin * (bool -> unit)
  | Gate of unit Promise.t * unit Promise.t
      (** park the worker: fulfil [entered], block on [release] —
          deterministic-replay support (see [pause_worker]) *)
  | Crash

type worker_state = {
  id : int;
  inbox : op Channel.t;
  alive : bool Atomic.t;
  mutable epoch : int;  (* incarnation; bumped by recovery under route_lock *)
  (* Self-pipe wakeup: only the caller that sets [wake_pending] writes
     the pipe. The worker clears the flag before it looks at its inbox
     or connections, so whatever a waker published before finding the
     flag set is seen by this iteration or the next, already woken. *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  wake_pending : bool Atomic.t;
  mutable domain : unit Domain.t option;
  (* Domain-private counters, read racily by [stats] and [shed_check]. *)
  mutable ops : int;
  mutable writes_n : int;
  mutable batches : int;
  mutable batched_writes : int;
  mutable retries : int;
  mutable dups : int;
  mutable arrivals : int;
  mutable arrivals_folded : int;  (* under route_lock *)
  mutable doomed : exn option;  (* an inbox op raised mid-round; see [catch_up] *)
}

type config = {
  n_workers : int;
  n_buckets : int;
  n_partitions : int;
  crew : Crew_config.t;
  recovery : bool;
  clock : unit -> float;
  on_decision : (C4_crew.Decision.t -> unit) option;
  registry : Registry.t option;
  wal : Wal.config option;
}

let default_config =
  {
    n_workers = 4;
    n_buckets = 4096;
    n_partitions = 256;
    crew = Crew_config.queued;
    recovery = true;
    (* ns, to match the policy core's time unit across both engines *)
    clock = (fun () -> Unix.gettimeofday () *. 1e9);
    on_decision = None;
    registry = None;
    wal = None;
  }

type io = worker:int -> wake:Unix.file_descr -> bool

(* The runtime's half of the {!C4_crew.Core.ENGINE} contract. Core
   transitions on shared routing state (admission, releases, sweeps,
   remaps) run under [route_lock]; window transitions are per worker. *)
type t = {
  cfg : config;
  store : Store.t;
  workers : worker_state array;
  core : Core.t;
  (* Also guards the reader cursor and every inbox push, so a recovery
     remap never races a push along a stale route. *)
  route_lock : Mutex.t;
  mutable next_reader : int;
  stopped : bool Atomic.t;
  stop_lock : Mutex.t;
  (* A dying worker signals [mon_cond]; the monitor sleeps on it. *)
  mon_lock : Mutex.t;
  mon_cond : Condition.t;
  mutable monitor : Thread.t option;
  mutable recoveries_n : int;
  mutable requeued_n : int;
  io : io Atomic.t;
  wal : Wal.t option;
  wal_replayed_n : int;
}

(* The worker this domain runs, whatever runtime it belongs to, and the
   id of its loop's thread: other threads started on a worker's domain
   (a replication sender, say) are not that worker. *)
let self_key : (worker_state * int) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let self_worker () =
  match Domain.DLS.get self_key with
  | Some (w, tid) when tid = Thread.id (Thread.self ()) -> Some w
  | Some _ | None -> None

let on_worker t =
  match self_worker () with
  | Some w when w.id < Array.length t.workers && t.workers.(w.id) == w -> Some w
  | Some _ | None -> None

(* ---------------- wakeups ---------------- *)

let wake_byte = Bytes.make 1 'w'

(* A worker never wakes itself: what it publishes during an iteration is
   picked up before it next blocks. The pipe is nonblocking (a full pipe
   already means a wakeup is pending). *)
let wake_worker w =
  let self = match self_worker () with Some s -> s == w | None -> false in
  if (not self)
     && (not (Atomic.get w.wake_pending))
     && Atomic.compare_and_set w.wake_pending false true
  then try ignore (Unix.write w.wake_w wake_byte 0 1) with Unix.Unix_error _ -> ()

let wake t ~worker = wake_worker t.workers.(worker)

(* Wakes are coalesced, so one read empties the pipe; a byte it misses
   only costs one spurious round. *)
let drain_wake w =
  try ignore (Unix.read w.wake_r (Bytes.create 64) 0 64) with Unix.Unix_error _ -> ()

(* The I/O round of a worker with no front-end attached: sleep in
   poll(2) on the self-pipe alone. *)
let idle_io ~worker:_ ~wake =
  let events = [| Poll.pollin |] and revents = [| 0 |] in
  Poll.poll ~fds:[| wake |] ~events ~revents ~n:1 ~timeout_ms:(-1) > 0

let attach t io =
  if not (Atomic.compare_and_set t.io idle_io io) then
    invalid_arg "Server.attach: a front-end is already attached";
  Array.iter wake_worker t.workers

let detach t =
  Atomic.set t.io idle_io;
  Array.iter wake_worker t.workers

(* ---------------- routing ---------------- *)

let owner_of_key t key =
  Sync.with_lock t.route_lock (fun () ->
      Core.route_owner t.core ~partition:(Store.partition_of_key t.store key))

(* CREW admission, [route_lock] held: ride an existing pin, else pin
   where [pick] says — [`Local w] for a worker admitting its own
   request, [`Static] (the durable owner) for anyone else. A reject is
   unreachable with the queued profile's unbounded counters; if one
   fires, route to the pin holder or the durable owner anyway. *)
let admit_locked t ~key ~pick =
  let partition = Store.partition_of_key t.store key in
  let worker =
    match Core.admit_write t.core ~partition ~now:(t.cfg.clock ()) ~pick with
    | Core.Admitted { worker; _ } | Core.Rejected { owner = Some worker; _ } -> worker
    | Core.Rejected { owner = None; _ } -> Core.assigned_owner t.core ~partition
    | Core.No_slot -> assert false
  in
  { p_worker = worker; p_epoch = t.workers.(worker).epoch }

(* The write's response left. Non-strict: a TTL sweep may have reclaimed
   the pin (the core counts the orphan). A stale stamp releases nothing:
   the recovery evicted that pin, counts and all. *)
let release_write t key pin =
  Sync.with_lock t.route_lock (fun () ->
      if t.workers.(pin.p_worker).epoch = pin.p_epoch then
        Core.write_done ~strict:false t.core
          ~partition:(Store.partition_of_key t.store key))

(* Only token-free writes are harvested into a compaction batch: a
   tokened (retried) write must go through [Store.set_idempotent]'s
   check-and-record, which a combined batched update would bypass. *)
let is_plain_set_to key = function
  | Set (k, _, None, _, _) -> k = key
  | Set _ | Get _ | Delete _ | Gate _ | Crash -> false

(* ---------------- execution (on a worker) ---------------- *)

(* Append the mutation BEFORE any ack exists, then route [ack] (release
   + completion) through [Wal.commit], so fsync-gated policies complete
   from the WAL's sync domain. [group] marks a window close (one
   group-commit batch); [record] is [None] for a suppressed duplicate,
   whose original is already logged. *)
let log_then_ack t ~key ~record ~group ack =
  match t.wal with
  | None -> ack ()
  | Some wal ->
    let partition = Store.partition_of_key t.store key in
    (match record with
    | Some op -> ignore (Wal.append wal ~partition ~op)
    | None -> ());
    Wal.commit wal ~partition ~group ack

(* Domain-private: only the worker's own domain bumps its counters. *)
let count w ~ops ~writes =
  w.ops <- w.ops + ops;
  w.writes_n <- w.writes_n + writes

let read t w ~key =
  let value, retries = Store.get t.store ~key in
  w.retries <- w.retries + retries;
  count w ~ops:1 ~writes:0;
  value

(* [release] hands the write's pin back once its ack is due. *)
let apply_set t w ~key ~value ~token ~release k =
  let applied =
    match token with
    | None ->
      Store.set t.store ~key ~value;
      true
    | Some token -> (
      match Store.set_idempotent t.store ~key ~value ~token with
      | `Applied -> true
      | `Duplicate ->
        w.dups <- w.dups + 1;
        false)
  in
  count w ~ops:1 ~writes:1;
  let record = if applied then Some (Record.Set { key; value; token }) else None in
  log_then_ack t ~key ~record ~group:false (fun () ->
      release ();
      k ())

let apply_delete t w ~key ~release k =
  let present = Store.remove t.store ~key in
  count w ~ops:1 ~writes:1;
  log_then_ack t ~key ~record:(Some (Record.Delete { key })) ~group:false (fun () ->
      release ();
      k present)

(* The compaction fast path: [key]'s popped write plus the [dependents]
   harvested behind it, as (value, pin, ack), form one window. With no
   SLO budget the window closes as soon as the harvest is absorbed —
   the adaptive-close limit of the model's policy. *)
let apply_window t w ~key ~value ~pin k dependents =
  let now = t.cfg.clock () in
  ignore
    (Core.open_window t.core ~worker:w.id ~key ~now ~arrival:now ~mean_service:0.0);
  Core.absorb t.core ~worker:w.id ~key ~id:0 ~now;
  List.iteri
    (fun i _ -> Core.absorb t.core ~worker:w.id ~key ~id:(i + 1) ~now)
    dependents;
  let values = value :: List.map (fun (v, _, _) -> v) dependents in
  Store.set_batched t.store ~key ~values;
  ignore (Core.close_window t.core ~worker:w.id ~now:(t.cfg.clock ()));
  let n = List.length values in
  count w ~ops:n ~writes:n;
  w.batches <- w.batches + 1;
  w.batched_writes <- w.batched_writes + n;
  (* Each absorbed write is logged (replay converges on the same final
     value); the deferred responses form ONE group-commit batch. *)
  (match t.wal with
  | None -> ()
  | Some wal ->
    let partition = Store.partition_of_key t.store key in
    List.iter
      (fun value ->
        ignore (Wal.append wal ~partition ~op:(Record.Set { key; value; token = None })))
      values);
  log_then_ack t ~key ~record:None ~group:true (fun () ->
      release_write t key pin;
      k ();
      List.iter
        (fun (_, dep_pin, dep_k) ->
          release_write t key dep_pin;
          dep_k ())
        dependents)

(* One inbox op. A popped plain write harvests the queued writes to the
   same key (up to the batch cap; later ones keep their place) into a
   window. An exception here kills the worker. *)
let exec t w op =
  let released key pin () = release_write t key pin in
  match op with
  | Crash -> raise Crash_injected
  | Gate (entered, release) ->
    Promise.fulfil entered ();
    Promise.await release
  | Get (key, k) -> k (read t w ~key)
  | Delete (key, pin, k) -> apply_delete t w ~key ~release:(released key pin) k
  | Set (key, value, token, pin, k) -> (
    let dependents =
      if token = None && Core.compaction_enabled t.core then
        List.map
          (function Set (_, v, _, pin, k) -> (v, pin, k) | _ -> assert false)
          (Channel.drain_matching ~limit:(Core.max_batch t.core - 1) w.inbox
             ~f:(is_plain_set_to key))
      else []
    in
    match dependents with
    | [] -> apply_set t w ~key ~value ~token ~release:(released key pin) k
    | _ :: _ -> apply_window t w ~key ~value ~pin k dependents)

(* Run up to [n] queued ops, in order, while [f] accepts the oldest. *)
let rec run_queued t w ~f n =
  if n > 0 then
    match Channel.pop_if w.inbox ~f with
    | Some op ->
      exec t w op;
      run_queued t w ~f (n - 1)
    | None -> ()

let is_request = function Get _ | Set _ | Delete _ -> true | Gate _ | Crash -> false

(* Run what was queued here ahead of a request this worker admits
   itself: a write forwarded to this pin holder waits for one apply, not
   for the rest of the batch the holder is reading. Control ops wait for
   the next iteration; an exception kills the worker at the end of its
   round. *)
let catch_up t w =
  if w.doomed = None && not (Channel.is_empty w.inbox) then
    try run_queued t w ~f:is_request (Channel.length w.inbox)
    with e -> w.doomed <- Some e

(* Drain the inbox, then one I/O round (poll(2) on the self-pipe plus the
   front-end's connections); exit once [stop] has closed the inbox. *)
let worker_loop t w =
  Domain.DLS.set self_key (Some (w, Thread.id (Thread.self ())));
  let rec go () =
    Atomic.set w.wake_pending false;
    (* What was queued when the iteration began; ops pushed meanwhile
       wait for the next one, so connections are never starved. *)
    run_queued t w ~f:(fun _ -> true) (Channel.length w.inbox);
    if not (Channel.is_closed w.inbox) then begin
      if (Atomic.get t.io) ~worker:w.id ~wake:w.wake_r then drain_wake w;
      Option.iter raise w.doomed;
      go ()
    end
  in
  go ()

(* Always publish death through [alive] and wake the monitor: any
   exception counts as a crash, or the worker would never be recovered.
   A clean exit at [stop] is ignored, [stopped] being set first. *)
let run_worker t w () =
  (try worker_loop t w with _ -> ());
  Sync.with_lock t.mon_lock (fun () ->
      Atomic.set w.alive false;
      Condition.signal t.mon_cond)

let spawn_worker t w =
  w.doomed <- None;
  Atomic.set w.alive true;
  w.domain <- Some (Domain.spawn (run_worker t w))

(* ---------------- crash recovery ---------------- *)

(* With [route_lock] held: join the corpse (so it provably writes no
   more), remap its partitions to a survivor (evicting its pins),
   restart it — it resumes serving its connections — and requeue its
   backlog along the new routes, admitting every write afresh so its
   pin lives where it will be applied. Ownership stays with the
   survivor. Returns the workers to wake once the lock is released. *)
let recover_locked t w =
  (match w.domain with Some d -> Domain.join d | None -> ());
  w.domain <- None;
  w.epoch <- w.epoch + 1;
  let survivor =
    let rec find i =
      if i >= t.cfg.n_workers then w.id
      else if i <> w.id && Atomic.get t.workers.(i).alive then i
      else find (i + 1)
    in
    find 0
  in
  ignore (Core.reassign t.core ~from_worker:w.id ~to_worker:survivor);
  let backlog = Channel.drain_matching w.inbox ~f:(fun _ -> true) in
  spawn_worker t w;
  let requeue op dst =
    ignore (Channel.try_push t.workers.(dst).inbox op);
    t.requeued_n <- t.requeued_n + 1;
    Some dst
  in
  let woken =
    List.filter_map
      (fun op ->
        match op with
        | Crash ->
          (* A queued crash targeted the worker that already died; do not
             let it chase the backlog onto the survivor. *)
          None
        | Get _ | Gate _ -> requeue op survivor
        | Set (key, value, token, _, k) ->
          let pin = admit_locked t ~key ~pick:`Static in
          requeue (Set (key, value, token, pin, k)) pin.p_worker
        | Delete (key, _, k) ->
          let pin = admit_locked t ~key ~pick:`Static in
          requeue (Delete (key, pin, k)) pin.p_worker)
      backlog
  in
  t.recoveries_n <- t.recoveries_n + 1;
  List.sort_uniq compare woken

(* Sleeps until a worker publishes its death (or [stop] begins). *)
let rec monitor_loop t =
  let dead =
    Sync.with_lock t.mon_lock (fun () ->
        let rec wait () =
          if Atomic.get t.stopped then None
          else
            match Array.find_opt (fun w -> not (Atomic.get w.alive)) t.workers with
            | Some w -> Some w
            | None ->
              Condition.wait t.mon_cond t.mon_lock;
              wait ()
        in
        wait ())
  in
  match dead with
  | None -> ()
  | Some w ->
    let woken =
      Sync.with_lock t.route_lock (fun () ->
          (* Re-check under the lock: [stop] may have won the race, in
             which case it owns the backlog (see [stop]'s final drain). *)
          if (not (Atomic.get t.stopped)) && not (Atomic.get w.alive) then
            recover_locked t w
          else [])
    in
    List.iter (fun worker -> wake t ~worker) woken;
    monitor_loop t

(* ---------------- lifecycle ---------------- *)

let start cfg =
  if cfg.n_workers < 1 then invalid_arg "Server.start: n_workers";
  let registry =
    match cfg.registry with
    | Some r -> r
    | None -> Registry.create ~thread_safe:true ()
  in
  let store =
    Store.create ~n_buckets:cfg.n_buckets ~n_partitions:cfg.n_partitions ~registry ()
  in
  (* Replay the WAL before any worker exists (trivially CREW). Tokened
     records re-install their token, so a retry of a persisted but
     unacked write is still suppressed; replay leaves no counts. *)
  let wal, wal_replayed =
    match cfg.wal with
    | None -> (None, 0)
    | Some wcfg ->
      if wcfg.Wal.n_partitions <> cfg.n_partitions then
        invalid_arg "Server.start: wal.n_partitions must match n_partitions";
      let replay ~partition:_ (r : Record.t) =
        match r.Record.op with
        | Record.Set { key; value; token = None } -> Store.set store ~key ~value
        | Record.Set { key; value; token = Some token } ->
          ignore (Store.set_idempotent store ~key ~value ~token)
        | Record.Delete { key } -> ignore (Store.remove store ~key)
      in
      let w, rstats = Wal.open_ ~registry ~replay wcfg in
      Store.reset_stats store;
      (Some w, rstats.Wal.replayed)
  in
  let workers =
    Array.init cfg.n_workers (fun id ->
        let wake_r, wake_w = Unix.pipe ~cloexec:true () in
        Unix.set_nonblock wake_r;
        Unix.set_nonblock wake_w;
        {
          id;
          inbox = Channel.create ();
          alive = Atomic.make false;
          epoch = 0;
          wake_r;
          wake_w;
          wake_pending = Atomic.make false;
          domain = None;
          ops = 0;
          writes_n = 0;
          batches = 0;
          batched_writes = 0;
          retries = 0;
          dups = 0;
          arrivals = 0;
          arrivals_folded = 0;
          doomed = None;
        })
  in
  (* The runtime's EWT is bookkeeping, not a scarce CAM: fit every
     partition. *)
  let crew_cfg =
    {
      cfg.crew with
      Crew_config.ewt_capacity =
        max cfg.crew.Crew_config.ewt_capacity cfg.n_partitions;
    }
  in
  let core =
    Core.create ~registry ?on_decision:cfg.on_decision
      ~cfg:crew_cfg ~n_workers:cfg.n_workers ~n_partitions:cfg.n_partitions ()
  in
  let t =
    {
      cfg;
      store;
      workers;
      core;
      route_lock = Mutex.create ();
      next_reader = 0;
      stopped = Atomic.make false;
      stop_lock = Mutex.create ();
      mon_lock = Mutex.create ();
      mon_cond = Condition.create ();
      monitor = None;
      recoveries_n = 0;
      requeued_n = 0;
      io = Atomic.make idle_io;
      wal;
      wal_replayed_n = wal_replayed;
    }
  in
  Array.iter (fun w -> spawn_worker t w) workers;
  if cfg.recovery then t.monitor <- Some (Thread.create monitor_loop t);
  t

(* ---------------- submission ---------------- *)

(* With [route_lock] held; [stop] closes the inboxes under it after
   setting [stopped], so a push that saw [stopped] unset cannot fail. *)
let push_locked t dst op =
  if Atomic.get t.stopped || not (Channel.try_push t.workers.(dst).inbox op) then
    raise Stopped

(* Reads from outside the workers: round-robin over live workers (any
   inbox if none is live — the monitor requeues). *)
let pick_reader t =
  let n = t.cfg.n_workers in
  let rec find i tries =
    if tries = 0 then i
    else if Atomic.get t.workers.(i).alive then i
    else find ((i + 1) mod n) (tries - 1)
  in
  let r = find t.next_reader n in
  t.next_reader <- (r + 1) mod n;
  r

(* A read on a worker runs right here, lock-free: the store's seqlock
   makes it safe against the partition's writer on another worker. *)
let submit_get ?(admitted = ignore) t ~key k =
  match on_worker t with
  | Some w ->
    if Atomic.get t.stopped then raise Stopped;
    w.arrivals <- w.arrivals + 1;
    catch_up t w;
    admitted ();
    k (read t w ~key)
  | None ->
    let dst =
      Sync.with_lock t.route_lock (fun () ->
          if Atomic.get t.stopped then raise Stopped;
          Core.note_arrival t.core;
          let dst = pick_reader t in
          admitted ();
          push_locked t dst (Get (key, k));
          dst)
    in
    wake t ~worker:dst

(* CREW: a partition is written only by its pin holder. A worker
   admitting its own request pins a free partition to itself and
   applies the write inline, unless its inbox still holds work (maybe
   an earlier write to the same partition); a partition pinned
   elsewhere gets the write forwarded to the holder. Threads outside
   the workers pin at the durable owner and always go through its
   inbox. Returns the executing worker. An exception from an inline
   apply releases the pin (unless the ack did) and reaches the caller. *)
let submit_write t ~admitted ~key ~queued ~inline =
  let self = on_worker t in
  Option.iter (fun w -> w.arrivals <- w.arrivals + 1; catch_up t w) self;
  let pin, here =
    Sync.with_lock t.route_lock (fun () ->
        if Atomic.get t.stopped then raise Stopped;
        let pick =
          match self with
          | Some w -> `Local w.id
          | None ->
            Core.note_arrival t.core;
            `Static
        in
        let pin = admit_locked t ~key ~pick in
        let here =
          match self with
          | Some w -> pin.p_worker = w.id && Channel.is_empty w.inbox
          | None -> false
        in
        admitted ();
        if not here then push_locked t pin.p_worker (queued pin);
        (pin, here))
  in
  (match self with
  | Some w when here -> (
    let released = ref false in
    let release () =
      released := true;
      release_write t key pin
    in
    try inline w ~release
    with e ->
      if not !released then release_write t key pin;
      raise e)
  | Some _ | None -> wake t ~worker:pin.p_worker);
  pin.p_worker

let submit_set ?(admitted = ignore) ?token t ~key ~value k =
  submit_write t ~admitted ~key
    ~queued:(fun pin -> Set (key, value, token, pin, k))
    ~inline:(fun w ~release -> apply_set t w ~key ~value ~token ~release k)

(* Deletes mutate the partition, so CREW routes them like writes. *)
let submit_delete ?(admitted = ignore) t ~key k =
  submit_write t ~admitted ~key
    ~queued:(fun pin -> Delete (key, pin, k))
    ~inline:(fun w ~release -> apply_delete t w ~key ~release k)

(* Promise wrappers for blocking callers. *)
let promised submit =
  let promise = Promise.create () in
  submit (Promise.fulfil promise);
  promise

let get_async t ~key = promised (submit_get t ~key)

let set_async ?token t ~key ~value =
  promised (fun k -> ignore (submit_set ?token t ~key ~value k))

let delete_async t ~key = promised (fun k -> ignore (submit_delete t ~key k))

let get t ~key = Promise.await (get_async t ~key)
let set t ~key ~value = Promise.await (set_async t ~key ~value)
let delete t ~key = Promise.await (delete_async t ~key)

let submit_control t ~worker op =
  Sync.with_lock t.route_lock (fun () -> push_locked t worker op);
  wake t ~worker

let inject_crash t ~worker =
  if worker < 0 || worker >= t.cfg.n_workers then invalid_arg "Server.inject_crash";
  submit_control t ~worker Crash

let pause_worker t ~worker =
  if worker < 0 || worker >= t.cfg.n_workers then invalid_arg "Server.pause_worker";
  let entered = Promise.create () in
  let release = Promise.create () in
  submit_control t ~worker (Gate (entered, release));
  Promise.await entered;
  fun () -> Promise.fulfil release ()

let sweep_stale t ~now =
  Sync.with_lock t.route_lock (fun () -> Core.sweep_stale t.core ~now)

(* Workers count their own arrivals without a lock; fold what they
   counted since the last check into the core's window first. A racy
   read of a counter only defers arrivals to the next check. *)
let shed_check t ~now =
  Sync.with_lock t.route_lock (fun () ->
      Array.iter
        (fun w ->
          let n = w.arrivals in
          Core.note_arrival ~n:(n - w.arrivals_folded) t.core;
          w.arrivals_folded <- n)
        t.workers;
      Core.shed_check t.core ~now)

let shed_level t = Core.shed_level t.core

(* [stop]'s last sweep over an inbox, once every domain is joined: the
   single remaining thread trivially satisfies CREW. *)
let finish_backlog t w =
  List.iter
    (function
      | Crash -> ()
      | Gate (entered, _) ->
        (* Unblock a waiting [pause_worker]; nobody is left to park. *)
        if Promise.peek entered = None then Promise.fulfil entered ()
      | op -> exec t w op)
    (Channel.drain_matching w.inbox ~f:(fun _ -> true))

let stop t =
  Sync.with_lock t.stop_lock (fun () ->
      if not (Atomic.get t.stopped) then begin
        Sync.with_lock t.mon_lock (fun () ->
            Atomic.set t.stopped true;
            Condition.broadcast t.mon_cond);
        (* Under route_lock: no push or recovery is in flight, so the
           domains joined below are final. Each worker drains what it
           holds and exits. *)
        Sync.with_lock t.route_lock (fun () ->
            Array.iter (fun w -> Channel.close w.inbox) t.workers);
        Array.iter wake_worker t.workers;
        Array.iter
          (fun w -> match w.domain with Some d -> Domain.join d | None -> ())
          t.workers;
        Option.iter Thread.join t.monitor;
        t.monitor <- None;
        (* Whatever is left (a crashed worker's backlog, a push that
           raced the close) still completes. *)
        Array.iter (finish_backlog t) t.workers;
        (* Drain the sync domain's acks, fsync and close every log. *)
        Option.iter Wal.close t.wal;
        (* Last, once no thread that could wake a worker is left. *)
        Array.iter
          (fun w ->
            (try Unix.close w.wake_r with Unix.Unix_error _ -> ());
            try Unix.close w.wake_w with Unix.Unix_error _ -> ())
          t.workers
      end)

(* ---------------- stats ---------------- *)

type stats = {
  ops_completed : int;
  writes : int;
  batches : int;
  batched_writes : int;
  read_retries : int;
  per_worker_ops : int array;
  recoveries : int;
  requeued_ops : int;
  duplicate_writes : int;
  wal_replayed : int;
  tokens_evicted : int;
}

let stats t =
  let sum f = Array.fold_left (fun acc w -> acc + f w) 0 t.workers in
  let recoveries, requeued_ops =
    Sync.with_lock t.route_lock (fun () -> (t.recoveries_n, t.requeued_n))
  in
  {
    ops_completed = sum (fun w -> w.ops);
    writes = sum (fun w -> w.writes_n);
    batches = sum (fun w -> w.batches);
    batched_writes = sum (fun w -> w.batched_writes);
    read_retries = sum (fun w -> w.retries);
    per_worker_ops = Array.map (fun w -> w.ops) t.workers;
    recoveries;
    requeued_ops;
    duplicate_writes = sum (fun w -> w.dups);
    wal_replayed = t.wal_replayed_n;
    tokens_evicted = (Store.stats t.store).Store.tokens_evicted;
  }

let alive_workers t =
  Array.fold_left (fun acc w -> if Atomic.get w.alive then acc + 1 else acc) 0 t.workers

let partition_of_key t key = Store.partition_of_key t.store key
let n_partitions t = t.cfg.n_partitions
let n_workers t = t.cfg.n_workers
let wal_handle t = t.wal

let ownership_counts t =
  Sync.with_lock t.route_lock (fun () -> Core.ownership_counts t.core)
