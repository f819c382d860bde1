module Store = C4_kvs.Store
module Crew_config = C4_crew.Config
module Core = C4_crew.Core
module Registry = C4_obs.Registry
module Wal = C4_wal.Wal
module Record = C4_wal.Record

exception Stopped

(* Poison value used by [inject_crash]: popping it kills the worker loop
   mid-stream, as an abrupt domain death would, except between (not
   inside) store operations — OCaml gives us no way to kill a domain
   mid-instruction, and the store's seqlock would be irrecoverable if we
   could. Acknowledged writes are still the interesting invariant: an
   ack is only sent after the store apply, so a crash never loses one. *)
exception Crash_injected

(* Each op carries its completion: a plain callback run once, on the
   thread that completes the op (see [submit_get]). *)
type op =
  | Get of int * (bytes option -> unit)
  | Set of int * bytes * int option * (unit -> unit)
      (** key, value, idempotency token, ack *)
  | Delete of int * (bool -> unit)
  | Gate of unit Promise.t * unit Promise.t
      (** park the worker: fulfil [entered], block on [release] —
          deterministic-replay support (see [pause_worker]) *)
  | Crash

type worker_state = {
  id : int;
  channel : op Channel.t;
  alive : bool Atomic.t;
  mutable domain : unit Domain.t option;
  mutable ops : int;
  mutable writes_n : int;
  mutable batches : int;
  mutable batched_writes : int;
  mutable retries : int;
  mutable dups : int;
}

type config = {
  n_workers : int;
  n_buckets : int;
  n_partitions : int;
  crew : Crew_config.t;
  recovery : bool;
  monitor_interval : float;
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
    monitor_interval = 0.0005;
    (* ns, to match the policy core's time unit across both engines *)
    clock = (fun () -> Unix.gettimeofday () *. 1e9);
    on_decision = None;
    registry = None;
    wal = None;
  }

(* The multicore driver around the crew policy core (the runtime's half
   of the {!C4_crew.Core.ENGINE} contract): the core decides, worker
   domains and channels execute. All core transitions that touch shared
   routing state (admission, releases, sweeps, recovery remaps) run
   under [route_lock]; per-worker window transitions are worker-private
   and rely on the thread-safe registry for their counters. *)
type t = {
  cfg : config;
  store : Store.t;
  workers : worker_state array;
  core : Core.t;
  (* Routing state — the core's ownership view, the reader cursor, and
     every channel push — is guarded by [route_lock], so a recovery that
     remaps ownership can never race a producer pushing along a stale
     route (the classic two-writers-after-failover bug). *)
  route_lock : Mutex.t;
  mutable next_reader : int;
  stopped : bool Atomic.t;
  stop_lock : Mutex.t;
  mutable monitor : unit Domain.t option;
  mutable recoveries_n : int;
  mutable requeued_n : int;
  (* Durability tier: [None] keeps the pre-WAL behaviour (everything
     dies with the process). With a WAL, every mutation is appended
     BEFORE its completion runs, and the completion itself is
     routed through [Wal.commit] so an ack can additionally wait for
     the group-commit fsync — on the WAL's sync domain, never a worker. *)
  wal : Wal.t option;
  wal_replayed_n : int;
}

let owner_of_key t key =
  Sync.with_lock t.route_lock (fun () ->
      Core.route_owner t.core ~partition:(Store.partition_of_key t.store key))

(* Only token-free writes are harvested into a compaction batch: a
   tokened (retried) write must go through [Store.set_idempotent]'s
   check-and-record, which a combined batched update would bypass. *)
let is_plain_set_to key = function
  | Set (k, _, None, _) -> k = key
  | Set _ | Get _ | Delete _ | Gate _ | Crash -> false

(* The write's response left: hand the release to the policy core.
   Non-strict because a TTL sweep (or a recovery eviction) may have
   legitimately reclaimed the pin — the core counts the orphan. *)
let release_write t key =
  Sync.with_lock t.route_lock (fun () ->
      Core.write_done ~strict:false t.core
        ~partition:(Store.partition_of_key t.store key))

(* Log the mutation (when a WAL is configured) and route [ack] — the
   release + completion step — through the durability policy. Append runs
   here, on the worker, BEFORE any acknowledgement exists; the ack
   itself runs inline without a WAL, and through [Wal.commit] with one,
   so fsync-gated policies complete from the WAL's sync domain after the
   group commit. [group] marks a compaction-window close (the window's
   deferred responses are the natural group-commit batch). [record] is
   [None] for a mutation that changed nothing worth logging (a
   suppressed duplicate — its original is already in the log). *)
let log_then_ack t ~key ~record ~group ack =
  match t.wal with
  | None -> ack ()
  | Some wal ->
    let partition = Store.partition_of_key t.store key in
    (match record with
    | Some op -> ignore (Wal.append wal ~partition ~op)
    | None -> ());
    Wal.commit wal ~partition ~group ack

(* Worker loop: CREW writes for owned partitions, balanced reads, and
   the compaction fast path — pop a write, harvest every queued write to
   the same key, and drive the core's window lifecycle: open, absorb
   each harvested write, apply ONE batched update, close, and only then
   answer all of them (deferred responses). *)
let worker_loop t (w : worker_state) =
  let store = t.store in
  let apply_set key value token k =
    let applied =
      match token with
      | None ->
        Store.set store ~key ~value;
        true
      | Some token -> (
        match Store.set_idempotent store ~key ~value ~token with
        | `Applied -> true
        | `Duplicate ->
          w.dups <- w.dups + 1;
          false)
    in
    w.ops <- w.ops + 1;
    w.writes_n <- w.writes_n + 1;
    let record = if applied then Some (Record.Set { key; value; token }) else None in
    log_then_ack t ~key ~record ~group:false (fun () ->
        release_write t key;
        k ())
  in
  let rec loop () =
    match Channel.pop w.channel with
    | None -> ()
    | Some Crash -> raise Crash_injected
    | Some (Gate (entered, release)) ->
      Promise.fulfil entered ();
      Promise.await release;
      loop ()
    | Some (Get (key, k)) ->
      let value, retries = Store.get store ~key in
      w.retries <- w.retries + retries;
      w.ops <- w.ops + 1;
      k value;
      loop ()
    | Some (Delete (key, k)) ->
      let present = Store.remove store ~key in
      w.ops <- w.ops + 1;
      w.writes_n <- w.writes_n + 1;
      log_then_ack t ~key ~record:(Some (Record.Delete { key })) ~group:false
        (fun () ->
          release_write t key;
          k present);
      loop ()
    | Some (Set (key, value, (Some _ as token), k)) ->
      (* Tokened writes bypass batching; see [is_plain_set_to]. *)
      apply_set key value token k;
      loop ()
    | Some (Set (key, value, None, k)) ->
      if Core.compaction_enabled t.core then begin
        (* The window stays bounded: later writes to the key stay queued
           in place, behind this batch and ahead of anything newer. *)
        let dependents =
          Channel.drain_matching ~limit:(Core.max_batch t.core - 1) w.channel
            ~f:(is_plain_set_to key)
        in
        match dependents with
        | [] ->
          apply_set key value None k;
          loop ()
        | _ :: _ ->
          (* The harvest found dependent writes: a compaction window in
             core terms. Wall-clock engines hold no SLO budget, so the
             window's deadline is "now" and it closes as soon as the
             harvest is absorbed — the adaptive-close limit of the
             model's policy (the queue IS empty: we just drained it). *)
          let now = t.cfg.clock () in
          ignore
            (Core.open_window t.core ~worker:w.id ~key ~now ~arrival:now
               ~mean_service:0.0);
          Core.absorb t.core ~worker:w.id ~key ~id:0 ~now;
          List.iteri
            (fun i _ -> Core.absorb t.core ~worker:w.id ~key ~id:(i + 1) ~now)
            dependents;
          let values =
            value
            :: List.map
                 (function
                   | Set (_, v, _, _) -> v
                   | Get _ | Delete _ | Gate _ | Crash -> assert false)
                 dependents
          in
          Store.set_batched store ~key ~values;
          ignore (Core.close_window t.core ~worker:w.id ~now:(t.cfg.clock ()));
          let n = List.length values in
          w.ops <- w.ops + n;
          w.writes_n <- w.writes_n + n;
          w.batches <- w.batches + 1;
          w.batched_writes <- w.batched_writes + n;
          (* Durability at window close: every absorbed write is logged
             individually (replay re-applies them in order and converges
             on the same final value the combined update produced), and
             the window's deferred responses form ONE group-commit batch
             — a single fsync covers them all. *)
          (match t.wal with
          | None -> ()
          | Some wal ->
            let partition = Store.partition_of_key store key in
            List.iter
              (fun value ->
                ignore
                  (Wal.append wal ~partition ~op:(Record.Set { key; value; token = None })))
              values);
          (* Deferred responses: nothing was acknowledged before the
             combined update hit the store, and nothing is released
             before the window closed (nor, with a WAL, before the
             group commit). *)
          log_then_ack t ~key ~record:None ~group:true (fun () ->
              release_write t key;
              k ();
              List.iter
                (function
                  | Set (dep_key, _, _, dep_k) ->
                    release_write t dep_key;
                    dep_k ()
                  | Get _ | Delete _ | Gate _ | Crash -> assert false)
                dependents);
          loop ()
      end
      else begin
        apply_set key value None k;
        loop ()
      end
  in
  loop ()

(* Run [worker_loop] and always publish death through [alive] — the
   signal the monitor (crash) and [stop] (clean exit, ignored because
   [stopped] is set first) both read. Any exception counts as a crash,
   not only [Crash_injected]: a worker that died of anything else
   without clearing [alive] would never be recovered, and every op
   routed to it would wait forever. *)
let run_worker t (w : worker_state) () =
  (try worker_loop t w with _ -> ());
  Atomic.set w.alive false

let spawn_worker t w =
  Atomic.set w.alive true;
  w.domain <- Some (Domain.spawn (run_worker t w))

(* ---------------- crash recovery ---------------- *)

(* Called by the monitor with [route_lock] HELD and producers therefore
   blocked. Ordering: join the corpse (so the old writer provably runs
   no more store operations), remap its partitions to a survivor through
   the core (which also evicts the dead worker's EWT pins — a stale pin
   would keep routing writes at the corpse's channel), drain its
   backlog, restart it, then requeue the backlog along the new routes.
   Ownership stays with the survivor — handing partitions back would
   reopen the stale-route window; the restarted worker rejoins as read
   capacity and as a future failover target. *)
let recover_locked t (w : worker_state) =
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
  let backlog = Channel.drain_matching w.channel ~f:(fun _ -> true) in
  spawn_worker t w;
  List.iter
    (fun op ->
      match op with
      | Crash ->
        (* A queued crash targeted the worker that already died; do not
           let it chase the backlog onto the survivor. *)
        ()
      | Get _ | Gate _ ->
        ignore (Channel.try_push t.workers.(survivor).channel op);
        t.requeued_n <- t.requeued_n + 1
      | Set (key, _, _, _) | Delete (key, _) ->
        let dst =
          Core.route_owner t.core ~partition:(Store.partition_of_key t.store key)
        in
        ignore (Channel.try_push t.workers.(dst).channel op);
        t.requeued_n <- t.requeued_n + 1)
    backlog;
  t.recoveries_n <- t.recoveries_n + 1

let rec monitor_loop t =
  if not (Atomic.get t.stopped) then begin
    Array.iter
      (fun w ->
        if not (Atomic.get w.alive) then
          Sync.with_lock t.route_lock (fun () ->
              (* Re-check under the lock: [stop] may have won the race, in
                 which case it owns the backlog (see [stop]'s final drain). *)
              if (not (Atomic.get t.stopped)) && not (Atomic.get w.alive) then
                recover_locked t w))
      t.workers;
    Unix.sleepf t.cfg.monitor_interval;
    monitor_loop t
  end

(* ---------------- lifecycle ---------------- *)

let start cfg =
  if cfg.n_workers < 1 then invalid_arg "Server.start: n_workers";
  let registry =
    (* A caller-supplied registry must be thread-safe (workers on
       several domains bump the crew counters); the private fallback
       always is. Sharing one registry with the network front-end is
       what lets a single telemetry scrape expose crew.*, wal.* and
       net.* metrics together. *)
    match cfg.registry with
    | Some r -> r
    | None -> Registry.create ~thread_safe:true ()
  in
  let store =
    Store.create ~n_buckets:cfg.n_buckets ~n_partitions:cfg.n_partitions ~registry ()
  in
  (* Durability: open (and recover) the WAL before any worker exists.
     Replay is single-threaded here, so it trivially satisfies CREW;
     records carrying an idempotency token go back through
     [Store.set_idempotent], re-installing the token so a client retry
     of a persisted-but-unacked write is still suppressed after the
     restart. Serving counters are reset afterwards so replay traffic
     never pollutes them. *)
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
        {
          id;
          channel = Channel.create ();
          alive = Atomic.make false;
          domain = None;
          ops = 0;
          writes_n = 0;
          batches = 0;
          batched_writes = 0;
          retries = 0;
          dups = 0;
        })
  in
  (* The model's EWT is a scarce CAM; the runtime's is bookkeeping, so
     size it to hold every partition — a capacity reject here would
     only degrade the decision stream, never protect hardware. *)
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
      monitor = None;
      recoveries_n = 0;
      requeued_n = 0;
      wal;
      wal_replayed_n = wal_replayed;
    }
  in
  Array.iter (fun w -> spawn_worker t w) workers;
  if cfg.recovery then t.monitor <- Some (Domain.spawn (fun () -> monitor_loop t));
  t

(* Route + push as one atomic step under [route_lock]. [try_push] maps a
   closed channel (stop won the race) to [Stopped] rather than a raw
   [Invalid_argument] escaping from the channel layer. *)
let submit_routed t pick op =
  let ok =
    Sync.with_lock t.route_lock (fun () ->
        (not (Atomic.get t.stopped))
        && Channel.try_push t.workers.(pick t).channel op)
  in
  if not ok then raise Stopped

(* CREW admission through the policy core: on a pinned partition ride
   the pin, otherwise pin at the durable assignment ([`Static] — the
   runtime's channels do their own queue accounting, so no JBSQ charge).
   A reject is unreachable with the queued profile's effectively
   unbounded counter; if it ever fires, route durably anyway. *)
let pick_writer key t =
  let partition = Store.partition_of_key t.store key in
  Core.note_arrival t.core;
  match
    Core.admit_write t.core ~partition ~now:(t.cfg.clock ()) ~pick:`Static
  with
  | Core.Admitted { worker; _ } -> worker
  | Core.Rejected _ -> Core.assigned_owner t.core ~partition
  | Core.No_slot -> assert false

(* Round-robin over live workers; if none is live (every worker crashed
   at once, pre-recovery) any channel works — the monitor requeues. Read
   spray is engine mechanism, not a policy decision: the model balances
   reads through JBSQ slots, the runtime through this cursor. *)
let pick_reader t =
  Core.note_arrival t.core;
  let n = t.cfg.n_workers in
  let rec find i tries =
    if tries = 0 then i
    else if Atomic.get t.workers.(i).alive then i
    else find ((i + 1) mod n) (tries - 1)
  in
  let r = find t.next_reader n in
  t.next_reader <- (r + 1) mod n;
  r

let submit_get t ~key k = submit_routed t pick_reader (Get (key, k))

(* CREW: the partition owner is the only worker that ever writes it. *)
let submit_set ?token t ~key ~value k =
  submit_routed t (pick_writer key) (Set (key, value, token, k))

(* Deletes mutate the partition, so CREW routes them to the owner. *)
let submit_delete t ~key k = submit_routed t (pick_writer key) (Delete (key, k))

(* Promise wrappers for blocking callers. *)
let promised submit =
  let promise = Promise.create () in
  submit (Promise.fulfil promise);
  promise

let get_async t ~key = promised (submit_get t ~key)
let set_async ?token t ~key ~value = promised (submit_set ?token t ~key ~value)
let delete_async t ~key = promised (submit_delete t ~key)

let get t ~key = Promise.await (get_async t ~key)
let set t ~key ~value = Promise.await (set_async t ~key ~value)
let delete t ~key = Promise.await (delete_async t ~key)

let inject_crash t ~worker =
  if worker < 0 || worker >= t.cfg.n_workers then invalid_arg "Server.inject_crash";
  submit_routed t (fun _ -> worker) Crash

let pause_worker t ~worker =
  if worker < 0 || worker >= t.cfg.n_workers then invalid_arg "Server.pause_worker";
  let entered = Promise.create () in
  let release = Promise.create () in
  submit_routed t (fun _ -> worker) (Gate (entered, release));
  Promise.await entered;
  fun () -> Promise.fulfil release ()

let sweep_stale t ~now =
  Sync.with_lock t.route_lock (fun () -> Core.sweep_stale t.core ~now)

let shed_check t ~now =
  Sync.with_lock t.route_lock (fun () -> Core.shed_check t.core ~now)

let shed_level t = Core.shed_level t.core

(* Apply an op inline — only used by [stop] once every domain is joined,
   so the single remaining thread trivially satisfies CREW. Mutations
   are still appended to the WAL (the [Wal.close] that follows fsyncs
   them), but the acks run directly: the sync domain is about to be
   drained anyway and every completion must run before [stop]
   returns. *)
let apply_directly t op =
  let log key op =
    match t.wal with
    | None -> ()
    | Some wal ->
      ignore (Wal.append wal ~partition:(Store.partition_of_key t.store key) ~op)
  in
  match op with
  | Crash -> ()
  | Gate (entered, _) ->
    (* Unblock a waiting [pause_worker]; the release side no longer has
       a worker to wake. *)
    if Promise.peek entered = None then Promise.fulfil entered ()
  | Get (key, k) -> k (fst (Store.get t.store ~key))
  | Delete (key, k) ->
    let present = Store.remove t.store ~key in
    log key (Record.Delete { key });
    k present
  | Set (key, value, None, k) ->
    Store.set t.store ~key ~value;
    log key (Record.Set { key; value; token = None });
    k ()
  | Set (key, value, (Some tok as token), k) ->
    (match Store.set_idempotent t.store ~key ~value ~token:tok with
    | `Applied -> log key (Record.Set { key; value; token })
    | `Duplicate -> ());
    k ()

let is_stopping t = Atomic.get t.stopped

(* Phase 2 of [stop]: with new submissions already rejected, wait for
   the still-running workers to drain their queued backlogs before any
   channel is closed. A dead worker's backlog cannot drain (the monitor
   skips recovery once [stopped] is set), so it is excluded here and
   applied directly by [stop]'s final sweep. *)
let await_backlogs_drained t =
  let drained () =
    Array.for_all
      (fun w -> Channel.length w.channel = 0 || not (Atomic.get w.alive))
      t.workers
  in
  while not (drained ()) do
    Domain.cpu_relax ()
  done

let stop t =
  (* [stop_lock] serialises concurrent stops end-to-end: the loser
     blocks until the winner has fully shut down, then returns. *)
  Sync.with_lock t.stop_lock (fun () ->
      if not (Atomic.get t.stopped) then begin
        Atomic.set t.stopped true;
        (* Reject-new is now in force; drain in-flight backlogs while
           the workers are still up, then tear down. *)
        await_backlogs_drained t;
        (* Taking route_lock serialises with any in-flight recovery, so
           the domain handles we join below are final. *)
        Sync.with_lock t.route_lock (fun () ->
            Array.iter (fun w -> Channel.close w.channel) t.workers);
        Array.iter
          (fun w -> match w.domain with Some d -> Domain.join d | None -> ())
          t.workers;
        (match t.monitor with Some d -> Domain.join d | None -> ());
        t.monitor <- None;
        (* A worker that crashed in the stop window leaves a backlog the
           monitor never got to requeue. Every op submitted before
           [stop] must still complete, so apply the leftovers here. *)
        Array.iter
          (fun w ->
            List.iter (apply_directly t)
              (Channel.drain_matching w.channel ~f:(fun _ -> true)))
          t.workers;
        (* Durability epilogue: drain the sync domain's pending acks,
           fsync every partition, close the segment fds. After this a
           restart replays the full log with no torn tail. *)
        Option.iter Wal.close t.wal
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
