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

(* Each op carries its completion, run once by whoever completes it. A
   write carries its admission stamp (its pin holder and that worker's
   incarnation): a recovery retires the incarnation and frees its pins,
   so a release with the old stamp frees nothing, and a popped write
   with the old stamp is admitted again. A worker's own submission that
   completes elsewhere sends its completion home as a [Home] op. *)
type op =
  | Get of int * (bytes option -> unit)
  | Set of int * bytes * int option * Core.stamp * (unit -> unit)
      (** key, value, idempotency token, admission stamp, ack *)
  | Delete of int * Core.stamp * (bool -> unit)
  | Home of (unit -> unit)  (** a completion, back on its submitter's worker *)
  | Gate of unit Promise.t * unit Promise.t
      (** park the worker: fulfil [entered], block on [release] —
          deterministic-replay support (see [pause_worker]) *)
  | Crash

type worker = {
  id : int;
  inbox : op Channel.t;
  alive : bool Atomic.t;
  (* Self-pipe wakeup: only the caller that sets [wake_pending] writes
     the pipe. The worker clears the flag before it looks at its inbox
     or connections, so whatever a waker published before finding the
     flag set is seen by this iteration or the next, already woken. *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  wake_pending : bool Atomic.t;
  mutable domain : unit Domain.t option;
  tid : int Atomic.t;  (* the worker loop's thread, on [domain] *)
  local : [ `Balanced of int * int | `Local of int | `Static | `Worker of int ];
      (* [`Local id], this worker's admission pick, built once *)
  (* Domain-private counters, read racily by [stats]. *)
  mutable ops : int;
  mutable writes_n : int;
  mutable batches : int;
  mutable batched_writes : int;
  retries : int ref;  (* failed seqlock read attempts *)
  mutable dups : int;
  (* Minor words this worker's domains allocated: [minor_words] is the
     current domain's [Gc.minor_words], stored once per round and read
     by scrapes; [minor_base] what the domains a crash retired had
     allocated. *)
  minor_words : int Atomic.t;
  mutable minor_base : int;
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

type io = worker -> wake:Unix.file_descr -> bool

let worker_id w = w.id

(* The runtime's half of the {!C4_crew.Core.ENGINE} contract. Admission
   and release are one CAS each on the partition's pin word, taken by
   any thread without a lock; window transitions are per worker. *)
type t = {
  cfg : config;
  store : Store.t;
  workers : worker array;
  core : Core.t;
  (* Orders recovery remaps, the durable-owner reads and pushes of
     threads outside the workers, and the reader cursor against each
     other and against [stop] closing the inboxes. Workers never take
     it: a push of theirs that a recovery outruns carries a dead stamp,
     which the popping worker admits again. *)
  route_lock : Mutex.t;
  (* Writes a worker re-admitted while [stop] was closing the inboxes:
     [stop] runs them once every domain is joined. *)
  stray : op Channel.t;
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

let new_worker id ~wake_r ~wake_w =
  {
    id;
    inbox = Channel.create ();
    alive = Atomic.make false;
    wake_r;
    wake_w;
    wake_pending = Atomic.make false;
    domain = None;
    tid = Atomic.make (-1);
    local = `Local id;
    ops = 0;
    writes_n = 0;
    batches = 0;
    batched_writes = 0;
    retries = ref 0;
    dups = 0;
    minor_words = Atomic.make 0;
    minor_base = 0;
    doomed = None;
  }

(* What [self_worker] answers off a worker: a sentinel rather than an
   option, so asking costs no allocation on the request path. *)
let nobody = new_worker (-1) ~wake_r:Unix.stdin ~wake_w:Unix.stdin

(* The worker this domain runs, whatever runtime it belongs to. Other
   threads started on a worker's domain (a replication sender, say) are
   not that worker: the loop's thread id tells them apart. *)
let self_key : worker Domain.DLS.key = Domain.DLS.new_key (fun () -> nobody)

let self_worker () =
  let w = Domain.DLS.get self_key in
  if w != nobody && Atomic.get w.tid = Thread.id (Thread.self ()) then w else nobody

let on_worker t =
  let w = self_worker () in
  if w != nobody && w.id < Array.length t.workers && t.workers.(w.id) == w then w else nobody

(* The submitting worker: the front-end's handle, else this thread's. *)
let caller t = function Some w -> w | None -> on_worker t

(* ---------------- wakeups ---------------- *)

let wake_byte = Bytes.make 1 'w'

(* A worker never wakes itself: what it publishes during an iteration is
   picked up before it next blocks. The pipe is nonblocking (a full pipe
   already means a wakeup is pending). *)
let wake_worker w =
  if self_worker () != w
     && (not (Atomic.get w.wake_pending))
     && Atomic.compare_and_set w.wake_pending false true
  then try ignore (Unix.write w.wake_w wake_byte 0 1) with Unix.Unix_error _ -> ()

let wake t ~worker = wake_worker t.workers.(worker)

(* Run [k] on [w]'s own loop: here if this is it, else from its inbox,
   behind a wake (a dead worker's keeps it for its restart), or here
   once [stop] has closed the inbox. *)
let send_home w k =
  if self_worker () == w then k ()
  else if Channel.try_push w.inbox (Home k) then wake_worker w
  else k ()

let run_on t ~worker k = send_home t.workers.(worker) k

(* Wakes are coalesced, so one read empties the pipe; a byte it misses
   only costs one spurious round. *)
let drain_wake w =
  try ignore (Unix.read w.wake_r (Bytes.create 64) 0 64) with Unix.Unix_error _ -> ()

(* The I/O round of a worker with no front-end attached: sleep in
   poll(2) on the self-pipe alone. *)
let idle_io _ ~wake =
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

(* CREW admission, one CAS on the partition's pin word: ride a pin, else
   pin where [pick] says — [`Local w] for a worker admitting its own
   request, [`Static] (the durable owner, under [route_lock]) for anyone
   else. A pin refuses a write only at a million outstanding writes
   (see [start]). *)
let admit t ~key ~pick =
  match Core.admit_write t.core ~partition:(Store.partition_of_key t.store key) ~pick with
  | Core.Admitted { stamp; _ } -> stamp
  | Core.Rejected _ | Core.No_slot -> failwith "Server: pin word saturated"

(* The write's response left. A stale stamp releases nothing: the
   recovery evicted that pin, counts and all. *)
let release_write t key stamp =
  Core.write_done ~strict:false ~stamp t.core ~partition:(Store.partition_of_key t.store key)

(* Only token-free writes are harvested into a compaction batch: a
   tokened (retried) write must go through [Store.set_idempotent]'s
   check-and-record, which a combined batched update would bypass. *)
let is_plain_set_to key = function
  | Set (k, _, None, _, _) -> k = key
  | Set _ | Get _ | Delete _ | Home _ | Gate _ | Crash -> false

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
  w.retries := !(w.retries) + retries;
  count w ~ops:1 ~writes:0;
  value

(* A SET's value is the slice [value.[off .. off + len)]. What keeps it
   past the call — a queued op, a WAL record, the token check — gets a
   private copy, unless the slice is the whole buffer, which the caller
   hands over as it always has. *)
let owned value ~off ~len =
  if off = 0 && len = Bytes.length value then value else Bytes.sub value off len

(* The store half of a SET: [true] if it applied (a tokened duplicate
   does not). The slice is blitted straight into the slot. *)
let store_set t w ~key ~value ~off ~len ~token =
  match token with
  | None ->
    Store.set_sub t.store ~key ~value ~off ~len;
    true
  | Some token -> (
    match Store.set_idempotent t.store ~key ~value:(owned value ~off ~len) ~token with
    | `Applied -> true
    | `Duplicate ->
      w.dups <- w.dups + 1;
      false)

(* Log then ack through the WAL. The ack may run later, on the sync
   domain, so whether the pin is back when the append (or its tap, or
   the ack gate) raises is tracked rather than assumed: a write that
   raised before its ack hands its pin back here. *)
let logged_ack t ~key ~stamp ~record k =
  let released = ref false in
  try
    log_then_ack t ~key ~record ~group:false (fun () ->
        released := true;
        release_write t key stamp;
        k ())
  with e ->
    if not !released then release_write t key stamp;
    raise e

(* The ack half: release the write's pin, then complete it — at once
   without a WAL, else once [log_then_ack] says the record may be. *)
let ack_set t w ~key ~value ~off ~len ~token ~stamp ~applied k =
  count w ~ops:1 ~writes:1;
  match t.wal with
  | None ->
    release_write t key stamp;
    k ()
  | Some _ ->
    let record =
      if applied then Some (Record.Set { key; value = owned value ~off ~len; token }) else None
    in
    logged_ack t ~key ~stamp ~record k

let apply_set t w ~key ~value ~off ~len ~token ~stamp k =
  let applied = store_set t w ~key ~value ~off ~len ~token in
  ack_set t w ~key ~value ~off ~len ~token ~stamp ~applied k

let ack_delete t w ~key ~stamp ~present k =
  count w ~ops:1 ~writes:1;
  match t.wal with
  | None ->
    release_write t key stamp;
    k present
  | Some _ -> logged_ack t ~key ~stamp ~record:(Some (Record.Delete { key })) (fun () -> k present)

let apply_delete t w ~key ~stamp k =
  let present = Store.remove t.store ~key in
  ack_delete t w ~key ~stamp ~present k

(* The compaction fast path: [key]'s popped write plus the [dependents]
   harvested behind it, as (value, stamp, ack), form one window. With no
   SLO budget the window closes as soon as the harvest is absorbed —
   the adaptive-close limit of the model's policy. *)
let apply_window t w ~key ~value ~stamp k dependents =
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
      release_write t key stamp;
      k ();
      List.iter
        (fun (_, dep_stamp, dep_k) ->
          release_write t key dep_stamp;
          dep_k ())
        dependents)

(* A worker's push onto a pin holder's inbox, taking only the channel's
   own mutex; [false] once [stop] has closed it. *)
let forward t ~stamp op =
  let dst = Core.stamp_worker stamp in
  let pushed = Channel.try_push t.workers.(dst).inbox op in
  if pushed then wake t ~worker:dst;
  pushed

let restamp stamp = function
  | Set (key, value, token, _, k) -> Set (key, value, token, stamp, k)
  | Delete (key, _, k) -> Delete (key, stamp, k)
  | (Get _ | Home _ | Gate _ | Crash) as op -> op

(* One inbox op. A popped write whose stamp a recovery retired (a push
   that raced the recovery) lost its pin: admit it again — it heads this
   inbox, so it may run here at once — or forward it. A popped plain
   write harvests the queued writes to the same key (up to the batch
   cap; later ones keep their place) into a window. An exception here
   kills the worker. *)
let rec exec t w op =
  match op with
  | Crash -> raise Crash_injected
  | Gate (entered, release) ->
    Promise.fulfil entered ();
    Promise.await release
  | Get (key, k) -> k (read t w ~key)
  | Home k -> k ()
  | (Set (key, _, _, stamp, _) | Delete (key, stamp, _))
    when not (Core.stamp_live t.core stamp) ->
    let stamp = admit t ~key ~pick:w.local in
    let op = restamp stamp op in
    if Core.stamp_worker stamp = w.id then exec t w op
    else if not (forward t ~stamp op) then
      (* [stop] closed the inboxes: it runs strays once it is alone,
         and the write keeps its pin until then. *)
      Channel.push t.stray op
  | Delete (key, stamp, k) -> apply_delete t w ~key ~stamp k
  | Set (key, value, token, stamp, k) -> (
    let dependents =
      if token = None && Core.compaction_enabled t.core then
        List.map
          (function Set (_, v, _, stamp, k) -> (v, stamp, k) | _ -> assert false)
          (Channel.drain_matching ~limit:(Core.max_batch t.core - 1) w.inbox
             ~f:(is_plain_set_to key))
      else []
    in
    match dependents with
    | [] -> apply_set t w ~key ~value ~off:0 ~len:(Bytes.length value) ~token ~stamp k
    | _ :: _ -> apply_window t w ~key ~value ~stamp k dependents)

(* Run up to [n] queued ops, in order, while [f] accepts the oldest. *)
let rec run_queued t w ~f n =
  if n > 0 then
    match Channel.pop_if w.inbox ~f with
    | Some op ->
      exec t w op;
      run_queued t w ~f (n - 1)
    | None -> ()

let is_request = function Get _ | Set _ | Delete _ | Home _ -> true | Gate _ | Crash -> false

(* Run what was queued here ahead of a request this worker admits
   itself: a write forwarded to this pin holder waits for one apply, not
   for the rest of the batch the holder is reading. Control ops wait for
   the next iteration; an exception kills the worker at the end of its
   round. *)
let catch_up t w =
  match w.doomed with
  | None when not (Channel.is_empty w.inbox) -> (
    try run_queued t w ~f:is_request (Channel.length w.inbox) with e -> w.doomed <- Some e)
  | Some _ | None -> ()

(* Drain the inbox, then one I/O round (poll(2) on the self-pipe plus the
   front-end's connections); exit once [stop] has closed the inbox. *)
let worker_loop t w =
  Atomic.set w.tid (Thread.id (Thread.self ()));
  Domain.DLS.set self_key w;
  let rec go () =
    Atomic.set w.wake_pending false;
    Atomic.set w.minor_words (int_of_float (Gc.minor_words ()));
    (* What was queued when the iteration began; ops pushed meanwhile
       wait for the next one, so connections are never starved. *)
    run_queued t w ~f:(fun _ -> true) (Channel.length w.inbox);
    if not (Channel.is_closed w.inbox) then begin
      if (Atomic.get t.io) w ~wake:w.wake_r then drain_wake w;
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
  (* A new domain counts its minor words from zero. *)
  w.minor_base <- w.minor_base + Atomic.get w.minor_words;
  Atomic.set w.minor_words 0;
  Atomic.set w.alive true;
  w.domain <- Some (Domain.spawn (run_worker t w))

(* ---------------- crash recovery ---------------- *)

(* With [route_lock] held: join the corpse (so it provably writes no
   more), retire its incarnation and remap its partitions to a survivor
   (freeing its pin words), restart it — it resumes serving its
   connections — and requeue its backlog along the new routes,
   admitting every write afresh so its pin lives where it will be
   applied. A worker's push that lands after the drain is admitted
   again when popped. Ownership stays with the survivor. Returns the
   workers to wake once the lock is released. *)
let recover_locked t w =
  (match w.domain with Some d -> Domain.join d | None -> ());
  w.domain <- None;
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
        | Home _ -> requeue op w.id
        | Get _ | Gate _ -> requeue op survivor
        | Set (key, _, _, _, _) | Delete (key, _, _) ->
          let stamp = admit t ~key ~pick:`Static in
          requeue (restamp stamp op) (Core.stamp_worker stamp))
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
        new_worker id ~wake_r ~wake_w)
  in
  (* The GC as a layer, sampled at scrape time: what the workers stored
     at their last round (no request writes anything), and the
     process's minor collections, each of which stops every domain. *)
  Registry.sampled_gauge registry "gc.minor_words" (fun () ->
      float_of_int
        (Array.fold_left (fun acc w -> acc + w.minor_base + Atomic.get w.minor_words) 0 workers));
  Registry.sampled_gauge registry "gc.minor_collections" (fun () ->
      float_of_int (Gc.quick_stat ()).Gc.minor_collections);
  (* The runtime's EWT is bookkeeping, not a scarce CAM: fit every
     partition. The inboxes hold the backlog, so a pin's counter must
     not refuse a write either (see [Crew_config.queued]). *)
  let crew = cfg.crew and queued = Crew_config.queued in
  let core =
    Core.create ~registry ?on_decision:cfg.on_decision
      ~cfg:
        {
          crew with
          ewt_capacity = max crew.ewt_capacity cfg.n_partitions;
          ewt_max_outstanding = max crew.ewt_max_outstanding queued.ewt_max_outstanding;
        }
      ~n_workers:cfg.n_workers ~n_partitions:cfg.n_partitions ()
  in
  let t =
    {
      cfg;
      store;
      workers;
      core;
      route_lock = Mutex.create ();
      stray = Channel.create ();
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
let submit_get ?(admitted = ignore) ?on t ~key k =
  let w = caller t on in
  if w != nobody then begin
    if Atomic.get t.stopped then raise Stopped;
    catch_up t w;
    admitted ();
    k (read t w ~key)
  end
  else
    let dst =
      Sync.with_lock t.route_lock (fun () ->
          if Atomic.get t.stopped then raise Stopped;
          let dst = pick_reader t in
          admitted ();
          push_locked t dst (Get (key, k));
          dst)
    in
    wake t ~worker:dst

let read_into ?(admitted = ignore) t w ~key f x =
  if Atomic.get t.stopped then raise Stopped;
  catch_up t w;
  admitted ();
  count w ~ops:1 ~writes:0;
  Store.read_into t.store ~key ~retries:w.retries f x

let prefetch_slot t ~key = Store.prefetch_slot t.store ~key
let prefetch_value t ~key = Store.prefetch_value t.store ~key

(* CREW admission for a worker admitting its own request: no lock, one
   CAS pins a free partition here or rides the holder's pin. [true] if
   the write may run inline: pinned here with nothing queued ahead of it
   (maybe an earlier write to the same partition). *)
let admit_local t w ~admitted ~key =
  if Atomic.get t.stopped then raise Stopped;
  catch_up t w;
  let stamp = admit t ~key ~pick:w.local in
  admitted ();
  stamp

let inline_ok w stamp = Core.stamp_worker stamp = w.id && Channel.is_empty w.inbox

(* The write goes onto the pin holder's inbox, its completion bound for
   home; a push that [stop] refuses hands the pin back and raises
   [Stopped]. *)
let forward_or_stop t ~key ~stamp op =
  if not (forward t ~stamp op) then begin
    release_write t key stamp;
    raise Stopped
  end

(* Threads outside the workers admit under [route_lock], pinning at the
   durable owner, and always go through its inbox. *)
let submit_queued t ~admitted ~key op =
  let stamp =
    Sync.with_lock t.route_lock (fun () ->
        if Atomic.get t.stopped then raise Stopped;
        let stamp = admit t ~key ~pick:`Static in
        admitted ();
        push_locked t (Core.stamp_worker stamp) (op stamp);
        stamp)
  in
  let dst = Core.stamp_worker stamp in
  wake t ~worker:dst;
  dst

(* A completion bound for [w], wherever the write finishes. *)
let homeward w k x = send_home w (fun () -> k x)

let logged_home t w k = match t.wal with None -> k | Some _ -> homeward w k

(* CREW: a partition is written only by its pin holder. A worker
   applies its own write inline when [inline_ok]; otherwise it goes to
   the holder's inbox. An exception from the inline store apply releases
   the pin and reaches the caller; one from [k] does too, the pin being
   released before [k] runs. Returns the executing worker. *)
let submit_set ?(admitted = ignore) ?token ?on t ~key ~value ~off ~len k =
  if off < 0 || len < 0 || off + len > Bytes.length value then
    invalid_arg "Server.submit_set: slice";
  let w = caller t on in
  if w != nobody then begin
    let stamp = admit_local t w ~admitted ~key in
    if inline_ok w stamp then begin
      let applied =
        match store_set t w ~key ~value ~off ~len ~token with
        | applied -> applied
        | exception e ->
          release_write t key stamp;
          raise e
      in
      ack_set t w ~key ~value ~off ~len ~token ~stamp ~applied (logged_home t w k)
    end
    else
      forward_or_stop t ~key ~stamp (Set (key, owned value ~off ~len, token, stamp, homeward w k));
    Core.stamp_worker stamp
  end
  else
    let value = owned value ~off ~len in
    submit_queued t ~admitted ~key (fun stamp -> Set (key, value, token, stamp, k))

(* Deletes mutate the partition, so CREW routes them like writes. *)
let submit_delete ?(admitted = ignore) ?on t ~key k =
  let w = caller t on in
  if w != nobody then begin
    let stamp = admit_local t w ~admitted ~key in
    if inline_ok w stamp then begin
      let present =
        match Store.remove t.store ~key with
        | present -> present
        | exception e ->
          release_write t key stamp;
          raise e
      in
      ack_delete t w ~key ~stamp ~present (logged_home t w k)
    end
    else forward_or_stop t ~key ~stamp (Delete (key, stamp, homeward w k));
    Core.stamp_worker stamp
  end
  else submit_queued t ~admitted ~key (fun stamp -> Delete (key, stamp, k))

(* Promise wrappers for blocking callers. *)
let promised submit =
  let promise = Promise.create () in
  submit (Promise.fulfil promise);
  promise

let get_async t ~key = promised (submit_get t ~key)

let set_async ?token t ~key ~value =
  promised (fun k -> ignore (submit_set ?token t ~key ~value ~off:0 ~len:(Bytes.length value) k))

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

(* [stop]'s last sweep over an inbox, once every domain is joined: the
   single remaining thread trivially satisfies CREW. *)
let finish_backlog t w inbox =
  List.iter
    (function
      | Crash -> ()
      | Gate (entered, _) ->
        (* Unblock a waiting [pause_worker]; nobody is left to park. *)
        if Promise.peek entered = None then Promise.fulfil entered ()
      | op -> exec t w op)
    (Channel.drain_matching inbox ~f:(fun _ -> true))

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
        Array.iter (fun w -> finish_backlog t w w.inbox) t.workers;
        (* Re-admitted writes the closing inboxes refused, last. *)
        finish_backlog t t.workers.(0) t.stray;
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
    read_retries = sum (fun w -> !(w.retries));
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
