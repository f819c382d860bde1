module Sim = C4_dsim.Sim
module Rng = C4_dsim.Rng
module Fifo = C4_dsim.Fifo
module Request = C4_workload.Request
module Generator = C4_workload.Generator
module Ewt = C4_nic.Ewt
module Flow_control = C4_nic.Flow_control
module Coherence = C4_cache.Coherence
module Compaction_log = C4_kvs.Compaction_log
module Trace = C4_obs.Trace
module Registry = C4_obs.Registry
module Snapshot = C4_obs.Snapshot
module Crew_config = C4_crew.Config
module Core = C4_crew.Core

(* Deterministic fault-injection hooks (built by C4_resilience.Fault
   from a seeded schedule; the server only consults them). Every hook is
   called in simulation-event order, so a deterministic hook keeps the
   whole run deterministic. *)
type fault_hooks = {
  corrupt : Request.t -> now:float -> bool;
      (* packet fails header parsing at the NIC: dropped before admission *)
  service_scale : worker:int -> now:float -> float;
      (* straggler / GC-pause model: multiplies on-core service time *)
  leak_release : Request.t -> now:float -> bool;
      (* the write's EWT release is lost: the outstanding counter sticks *)
}

type config = {
  n_workers : int;
  policy : Policy.t;
  service : Service.params;
  crew : Crew_config.t;
  cache : Coherence.params option;
  max_outstanding : int;
  ewt_release_delay : float;
  boosted_workers : (int * float) list;
  seed : int;
  trace : Trace.t;
  registry : Registry.t option;
  metrics_interval : float option;
  faults : fault_hooks option;
  on_decision : (C4_crew.Decision.t -> unit) option;
  on_drop : (Request.t -> now:float -> reason:Metrics.drop_reason -> Request.t option) option;
}

let default_config =
  {
    n_workers = 64;
    policy = Policy.Crew;
    service = Service.default;
    crew = Crew_config.default;
    cache = None;
    max_outstanding = 4096;
    ewt_release_delay = 0.0;
    boosted_workers = [];
    seed = 42;
    trace = Trace.null;
    registry = None;
    metrics_interval = None;
    faults = None;
    on_decision = None;
    on_drop = None;
  }

type result = {
  metrics : Metrics.t;
  ewt : Ewt.occupancy_stats option;
  compaction : Compaction_log.stats option;
  flow_drops : int;
  ewt_drops : int;
  offered_rate : float;
  mean_service : float;
  snapshot : C4_stats.Csv.t option;
  retries_injected : int;
}

(* ------------------------------------------------------------------ *)

type worker = {
  wid : int;
  queue : Request.t Fifo.t;
  mutable busy : bool;
  window_reqs : (int, Request.t) Hashtbl.t; (* request id -> request *)
  mutable window_timer : Sim.event_id option;
  mutable rlu_writes : int;
}

(* The discrete-event driver around the crew policy core (the model's
   half of the {!C4_crew.Core.ENGINE} contract): the core decides, this
   state machine turns decisions into simulated mechanism — queue
   pushes, service events, window-close timers. *)
type state = {
  cfg : config;
  sim : Sim.t;
  svc : Service.t;
  tr : Trace.t;
  rlu_rng : Rng.t;
  workers : worker array;
  core : Core.t;
  centrals : Request.t Fifo.t array; (* one per worker class *)
  flow : Flow_control.t;
  cache : Coherence.t option;
  metrics : Metrics.t;
  jbsq_depth_h : Registry.histogram;
  drop_queue_c : Registry.counter;
  drop_ewt_c : Registry.counter;
  drop_slo_c : Registry.counter;
  drop_bad_c : Registry.counter;
  drop_shed_c : Registry.counter;
  retry_c : Registry.counter;
  leak_c : Registry.counter;
  shed_level_g : Registry.gauge;
  mutable expected : int; (* grows as dropped requests are retried *)
  warmup : int;
  mutable done_count : int;
  mutable ewt_drop_count : int;
  mutable rlu_global_writes : int;
}

let static_owner st partition =
  Core.static_owner ~partition ~lo:0 ~hi:st.cfg.n_workers

(* Size-aware partitioning of the worker pool: the last
   [reserved_workers] ids serve large items, everyone else small ones.
   Other policies see a single class spanning the whole pool. *)
let class_of_request st (r : Request.t) =
  match st.cfg.policy with
  | Policy.Size_aware p when r.value_size >= p.Policy.size_threshold -> 1
  | _ -> 0

let class_of_worker st wid =
  match st.cfg.policy with
  | Policy.Size_aware p when wid >= st.cfg.n_workers - p.Policy.reserved_workers -> 1
  | _ -> 0

let class_range st cls =
  match st.cfg.policy with
  | Policy.Size_aware p ->
    let boundary = st.cfg.n_workers - p.Policy.reserved_workers in
    if cls = 1 then (boundary, st.cfg.n_workers) else (0, boundary)
  | _ -> (0, st.cfg.n_workers)

let try_dispatch_class st cls =
  let lo, hi = class_range st cls in
  Core.try_dispatch st.core ~lo ~hi

(* The partition owner for statically hashed requests, confined to the
   request's class range under size-aware partitioning. *)
let static_owner_in_class st cls partition =
  let lo, hi = class_range st cls in
  Core.static_owner ~partition ~lo ~hi

let note_done st =
  st.done_count <- st.done_count + 1;
  if st.done_count = st.warmup then Metrics.start_measuring st.metrics ~now:(Sim.now st.sim);
  if st.done_count = st.expected then Metrics.stop st.metrics ~now:(Sim.now st.sim)

let fault_scale st wid =
  match st.cfg.faults with
  | None -> 1.0
  | Some f -> f.service_scale ~worker:wid ~now:(Sim.now st.sim)

(* Treat every request as a read under Ideal: the paper's Ideal is the
   baseline running a read-only workload, i.e. perfect balance and no
   writer-induced coherence traffic. *)
let effective_op st (r : Request.t) =
  match st.cfg.policy with Policy.Ideal -> Request.Read | _ -> r.op

let boost_factor st wid =
  match List.assoc_opt wid st.cfg.boosted_workers with
  | Some f when f > 0.0 -> f
  | _ -> 1.0

(* Service duration of a normally processed (non-compacted) request:
   the data-movement term follows the request's own value size, so
   heterogeneous (size-aware) workloads cost what they carry. *)
let normal_service st w (r : Request.t) =
  let kvs =
    Service.sample_kvs_sized st.svc ~value_size:r.value_size /. boost_factor st w.wid
  in
  let p = Service.params st.svc in
  let kvs =
    match (st.cfg.policy, effective_op st r) with
    | Policy.Crcw_rlu rlu, Request.Read -> kvs *. rlu.read_factor
    | Policy.Crcw_rlu rlu, Request.Write ->
      let kvs = kvs *. rlu.write_factor in
      st.rlu_global_writes <- st.rlu_global_writes + 1;
      (* Version-chain garbage collection is on the critical path: the
         write that needs a reclaimed slot waits out the whole cleanup
         (the ~70 µs stalls Sec. 7.1 reports for MV-RLU). *)
      if rlu.gc_period > 0 && st.rlu_global_writes mod rlu.gc_period = 0 then
        kvs +. rlu.gc_stall
      else kvs
    | _ -> kvs
  in
  let coherence_cost =
    match st.cache with
    | None -> 0.0
    | Some cache -> (
      let lines = Service.lines_for st.svc ~value_size:r.value_size in
      match effective_op st r with
      | Request.Read -> Coherence.read_cost cache ~core:w.wid ~partition:r.partition ~lines
      | Request.Write -> Coherence.write_cost cache ~core:w.wid ~partition:r.partition ~lines)
  in
  (kvs +. p.Service.t_fixed +. coherence_cost) *. fault_scale st w.wid

(* The combined write a closing window performs against the datastore. *)
let final_write_service st w ~partition =
  let kvs = Service.sample_kvs st.svc /. boost_factor st w.wid in
  let coherence_cost =
    match st.cache with
    | None -> 0.0
    | Some cache ->
      Coherence.write_cost cache ~core:w.wid ~partition ~lines:(Service.lines st.svc)
  in
  (kvs +. coherence_cost) *. fault_scale st w.wid

(* RLU log promotion runs on the worker AFTER the triggering write's
   response leaves (commit deferral): the promoting request meets its
   own SLO, but the worker is occupied for 10-20 µs. The occupancy is
   charged to the JBSQ counters, so at low load the balancer routes
   around the promoting worker; once load leaves no idle workers,
   requests pile up behind promotions — the deep-queue failure mode
   that caps RLU's throughput under SLO (Sec. 7.1). *)
let rlu_background_work st w (r : Request.t) =
  match (st.cfg.policy, r.op) with
  | Policy.Crcw_rlu rlu, Request.Write ->
    w.rlu_writes <- w.rlu_writes + 1;
    if rlu.commit_degree > 0 && w.rlu_writes mod rlu.commit_degree = 0 then
      Rng.uniform st.rlu_rng ~lo:rlu.promotion_lo ~hi:rlu.promotion_hi
    else 0.0
  | _ -> 0.0

let scan_cost st w = Core.scan_cost st.core ~queued:(Fifo.length w.queue)

(* Decrement the EWT's outstanding-write counter, either immediately
   (the paper's release-on-completion) or after a lingering delay that
   keeps the partition sticky to its writer for a while longer. A
   fault-injected leak swallows the release entirely: the counter
   sticks until the staleness sweep (if configured) reclaims it. *)
let release_exclusive st (r : Request.t) =
  let now = Sim.now st.sim in
  let leaked =
    match st.cfg.faults with
    | Some f when f.leak_release r ~now ->
      Registry.incr st.leak_c;
      Trace.instant st.tr ~name:"ewt_leak"
        ~args:[ ("partition", string_of_int r.partition) ] ~ts:now ();
      true
    | _ -> false
  in
  if not leaked then begin
    let release () = Core.write_done st.core ~partition:r.partition in
    if st.cfg.ewt_release_delay <= 0.0 then release ()
    else ignore (Sim.schedule st.sim ~after:st.cfg.ewt_release_delay (fun _ -> release ()))
  end

let shed_rejects st (r : Request.t) =
  Core.shed_rejects st.core ~is_read:(effective_op st r = Request.Read)

(* ------------------------------------------------------------------ *)

let rec start_next st w =
  if not w.busy then begin
    (* A window whose deadline passed while the worker was busy (or that
       must close because the queue ran dry under adaptive close) closes
       before new work starts. *)
    if
      Core.must_close st.core ~worker:w.wid ~now:(Sim.now st.sim)
        ~queue_empty:(Fifo.is_empty w.queue)
    then close_window st w
    else begin
      match Fifo.pop w.queue with
      | None -> ()
      | Some r -> process st w r
    end
  end

and process st w (r : Request.t) =
  let now = Sim.now st.sim in
  match (st.cfg.policy, r.op) with
  | Policy.Delegate d, Request.Write when static_owner st r.partition <> w.wid ->
    (* Software delegation: this worker does not own the partition, so
       it spends the hand-off cost shuffling the write to the owner's
       queue, where it waits again — CREW rebuilt in software. *)
    forward st w r ~t_forward:d.Policy.t_forward
  | _ -> process_local st w r ~now

and process_local st w (r : Request.t) ~now =
  match r.op with
  | Request.Write when Core.window_accepts st.core ~worker:w.wid ~key:r.key ->
    absorb st w r ~extra:0.0
  | Request.Write
    when Core.compaction_enabled st.core
         && not (Core.window_is_open st.core ~worker:w.wid) ->
    (* Hunt for dependent writes among the next few queue slots. *)
    let cost = scan_cost st w in
    let dependent =
      Fifo.exists w.queue ~depth:(Core.scan_depth st.core) ~f:(fun (q : Request.t) ->
          q.op = Request.Write && q.key = r.key)
    in
    if dependent then begin
      let deadline =
        Core.open_window st.core ~worker:w.wid ~key:r.key ~now ~arrival:r.arrival
          ~mean_service:(Service.mean_service st.svc)
      in
      Trace.request_event st.tr ~id:r.id ~name:"window_open"
        ~args:
          [ ("key", string_of_int r.key); ("deadline", Printf.sprintf "%.1f" deadline) ]
        ~ts:now ();
      let timer =
        Sim.schedule_at st.sim ~time:deadline (fun _ ->
            w.window_timer <- None;
            if not w.busy then start_next st w)
      in
      w.window_timer <- Some timer;
      absorb st w r ~extra:cost
    end
    else run_for st w r ~service:(normal_service st w r +. cost)
  | Request.Write when Core.compaction_enabled st.core ->
    (* Window open for a different key: this write is independent of the
       batch and runs normally (plus the mandatory scan). *)
    run_for st w r ~service:(normal_service st w r +. scan_cost st w)
  | _ -> run_for st w r ~service:(normal_service st w r)

and forward st w (r : Request.t) ~t_forward =
  Trace.service_begin st.tr ~id:r.id ~lane:w.wid ~ts:(Sim.now st.sim);
  w.busy <- true;
  Metrics.add_busy st.metrics ~worker:w.wid t_forward;
  ignore
    (Sim.schedule st.sim ~after:t_forward (fun _ ->
         w.busy <- false;
         Core.complete st.core ~worker:w.wid;
         Trace.service_end st.tr ~id:r.id ~lane:w.wid ~phase:Trace.Forward
           ~ts:(Sim.now st.sim);
         let owner = static_owner st r.Request.partition in
         Core.dispatch_to st.core ~worker:owner;
         let target = st.workers.(owner) in
         Fifo.push target.queue r;
         if not target.busy then start_next st target;
         refill_from_central st w.wid;
         start_next st w))

(* Buffer a write into the open window: occupies the core for
   T_fixed + T_comp, touches no shared lines, defers the response. *)
and absorb st w (r : Request.t) ~extra =
  let p = Service.params st.svc in
  let service = (p.Service.t_fixed +. p.Service.t_comp +. extra) *. fault_scale st w.wid in
  Trace.service_begin st.tr ~id:r.id ~lane:w.wid ~ts:(Sim.now st.sim);
  Core.absorb st.core ~worker:w.wid ~key:r.key ~id:r.id ~now:(Sim.now st.sim);
  Hashtbl.replace w.window_reqs r.id r;
  w.busy <- true;
  Metrics.add_busy st.metrics ~worker:w.wid service;
  ignore
    (Sim.schedule st.sim ~after:service (fun _ ->
         w.busy <- false;
         (* The request left the worker's queue slot; balancing capacity
            frees now, while the NIC buffer stays held until the
            response goes out at window close. *)
         Core.complete st.core ~worker:w.wid;
         Trace.service_end st.tr ~id:r.id ~lane:w.wid ~phase:Trace.Absorb
           ~ts:(Sim.now st.sim);
         Metrics.record_service st.metrics ~op:r.op ~worker:w.wid ~service;
         refill_from_central st w.wid;
         start_next st w))

and run_for st w (r : Request.t) ~service =
  Trace.service_begin st.tr ~id:r.id ~lane:w.wid ~ts:(Sim.now st.sim);
  w.busy <- true;
  Metrics.add_busy st.metrics ~worker:w.wid service;
  ignore
    (Sim.schedule st.sim ~after:service (fun _ ->
         let now = Sim.now st.sim in
         w.busy <- false;
         Core.complete st.core ~worker:w.wid;
         Flow_control.release st.flow;
         if Policy.uses_ewt st.cfg.policy && r.op = Request.Write then
           release_exclusive st r;
         Trace.service_end st.tr ~id:r.id ~lane:w.wid ~phase:Trace.Service ~ts:now;
         Trace.departure st.tr ~id:r.id ~lane:w.wid ~ts:now;
         Metrics.record_service st.metrics ~op:r.op ~worker:w.wid ~service;
         Metrics.record_latency st.metrics ~op:r.op ~latency:(now -. r.arrival)
           ~compacted:false ~value_size:r.value_size;
         note_done st;
         let background = rlu_background_work st w r in
         if background > 0.0 then begin
           w.busy <- true;
           Core.dispatch_to st.core ~worker:w.wid;
           Trace.lane_span st.tr ~lane:w.wid ~phase:Trace.Background ~t0:now
             ~t1:(now +. background);
           Metrics.add_busy st.metrics ~worker:w.wid background;
           ignore
             (Sim.schedule st.sim ~after:background (fun _ ->
                  w.busy <- false;
                  Core.complete st.core ~worker:w.wid;
                  refill_from_central st w.wid;
                  start_next st w))
         end
         else begin
           refill_from_central st w.wid;
           start_next st w
         end))

and close_window st w =
  (match w.window_timer with
  | Some timer ->
    Sim.cancel st.sim timer;
    w.window_timer <- None
  | None -> ());
  match Core.close_window st.core ~worker:w.wid ~now:(Sim.now st.sim) with
  | None -> start_next st w
  | Some closed ->
    let partition =
      match Hashtbl.length w.window_reqs with
      | 0 -> 0
      | _ ->
        (* All buffered requests share the key, hence the partition. *)
        let any = List.hd closed.Compaction_log.writes in
        (Hashtbl.find w.window_reqs any.Compaction_log.request_id).Request.partition
    in
    let service = final_write_service st w ~partition in
    let flush_start = Sim.now st.sim in
    w.busy <- true;
    Metrics.add_busy st.metrics ~worker:w.wid service;
    ignore
      (Sim.schedule st.sim ~after:service (fun _ ->
           let now = Sim.now st.sim in
           w.busy <- false;
           Trace.lane_span st.tr ~lane:w.wid ~phase:Trace.Flush ~t0:flush_start
             ~t1:now;
           List.iter
             (fun (pending : Compaction_log.pending) ->
               let r = Hashtbl.find w.window_reqs pending.Compaction_log.request_id in
               Hashtbl.remove w.window_reqs pending.Compaction_log.request_id;
               Flow_control.release st.flow;
               if Policy.uses_ewt st.cfg.policy then release_exclusive st r;
               Trace.departure st.tr ~id:r.Request.id ~lane:w.wid ~ts:now;
               Metrics.record_latency st.metrics ~op:r.op
                 ~latency:(now -. r.Request.arrival) ~compacted:true
                 ~value_size:r.Request.value_size;
               note_done st)
             closed.Compaction_log.writes;
           refill_from_central st w.wid;
           start_next st w))

(* After a worker frees a balanced slot, pull waiting work from the
   NIC's central queue. Pinned d-CREW writes re-resolve against the EWT
   at hand-out time and may route to a different worker. *)
and refill_from_central st wid =
  let w = st.workers.(wid) in
  let central = st.centrals.(class_of_worker st wid) in
  let rec loop () =
    if Core.has_slot st.core ~worker:wid && not (Fifo.is_empty central) then begin
      match Fifo.pop central with
      | None -> ()
      | Some r ->
        let routed_here = route_from_central st ~free_worker:wid r in
        if routed_here then begin
          if not w.busy then start_next st w;
          loop ()
        end
        else loop ()
    end
  in
  loop ()

(* Returns true when the request consumed [free_worker]'s slot. *)
and route_from_central st ~free_worker (r : Request.t) =
  let now = Sim.now st.sim in
  let enqueue wid =
    Fifo.push st.workers.(wid).queue r;
    Trace.request_event st.tr ~id:r.id ~name:"enqueue"
      ~args:[ ("worker", string_of_int wid) ] ~ts:now ();
    Registry.observe st.jbsq_depth_h (float_of_int (Core.occupancy st.core ~worker:wid));
    let target = st.workers.(wid) in
    if not target.busy then start_next st target
  in
  if Policy.uses_ewt st.cfg.policy && r.op = Request.Write then begin
    match Core.admit_write st.core ~partition:r.partition ~now ~pick:(`Worker free_worker) with
    | Core.Admitted { worker; fresh } ->
      if fresh then Trace.request_event st.tr ~id:r.id ~name:"ewt_miss" ~ts:now ()
      else
        Trace.request_event st.tr ~id:r.id ~name:"ewt_hit"
          ~args:[ ("owner", string_of_int worker) ] ~ts:now ();
      enqueue worker;
      worker = free_worker
    | Core.No_slot ->
      (* [`Worker _] picks never come back empty-handed. *)
      assert false
    | Core.Rejected { owner; _ } ->
      (match owner with
      | Some o ->
        Trace.request_event st.tr ~id:r.id ~name:"ewt_hit"
          ~args:[ ("owner", string_of_int o) ] ~ts:now ()
      | None -> Trace.request_event st.tr ~id:r.id ~name:"ewt_miss" ~ts:now ());
      drop_late st r;
      false
  end
  else begin
    Core.dispatch_to st.core ~worker:free_worker;
    enqueue free_worker;
    true
  end

(* A request already admitted by flow control that the EWT cannot
   accommodate: dropped, releasing its NIC buffer. *)
and drop_late st (r : Request.t) =
  Flow_control.release st.flow;
  st.ewt_drop_count <- st.ewt_drop_count + 1;
  Core.note_drop st.core;
  Registry.incr st.drop_ewt_c;
  Metrics.note_drop st.metrics ~reason:Metrics.Ewt_exhausted;
  Trace.drop st.tr ~id:r.id ~reason:"ewt_exhausted" ~ts:(Sim.now st.sim);
  offer_retry st r ~reason:Metrics.Ewt_exhausted;
  note_done st

(* A dropped request may come back: the client-side retry policy (when
   wired in) decides whether and when, and the re-arrival joins the
   expected-completion count so accounting stays exact. *)
and offer_retry st (r : Request.t) ~reason =
  match st.cfg.on_drop with
  | None -> ()
  | Some hook -> (
    let now = Sim.now st.sim in
    match hook r ~now ~reason with
    | None -> ()
    | Some retry ->
      st.expected <- st.expected + 1;
      Registry.incr st.retry_c;
      ignore
        (Sim.schedule st.sim
           ~after:(Float.max 0.0 (retry.Request.arrival -. now))
           (fun _ -> on_arrival st retry)))

(* ------------------------------------------------------------------ *)

and enqueue_at st wid (r : Request.t) =
  let w = st.workers.(wid) in
  Fifo.push w.queue r;
  Trace.request_event st.tr ~id:r.id ~name:"enqueue"
    ~args:[ ("worker", string_of_int wid) ] ~ts:(Sim.now st.sim) ();
  Registry.observe st.jbsq_depth_h (float_of_int (Core.occupancy st.core ~worker:wid));
  if not w.busy then start_next st w

and on_arrival st (r : Request.t) =
  let now = Sim.now st.sim in
  Core.note_arrival st.core;
  Trace.arrival st.tr ~id:r.id
    ~op:(match r.op with Request.Read -> "R" | Request.Write -> "W")
    ~partition:r.partition ~ts:now;
  let corrupt = match st.cfg.faults with Some f -> f.corrupt r ~now | None -> false in
  if corrupt then begin
    (* Header parsing precedes admission (the NIC parses before its
       EWT -> JBSQ stages), so a corrupted packet never charges a
       flow-control slot. *)
    Core.note_drop st.core;
    Registry.incr st.drop_bad_c;
    Metrics.note_drop st.metrics ~reason:Metrics.Bad_packet;
    Trace.drop st.tr ~id:r.id ~reason:"bad_packet" ~ts:now;
    offer_retry st r ~reason:Metrics.Bad_packet;
    note_done st
  end
  else if shed_rejects st r then begin
    Registry.incr st.drop_shed_c;
    Metrics.note_drop st.metrics ~reason:Metrics.Shed;
    Trace.drop st.tr ~id:r.id ~reason:"shed" ~ts:now;
    offer_retry st r ~reason:Metrics.Shed;
    note_done st
  end
  else if not (Flow_control.admit st.flow) then begin
    Core.note_drop st.core;
    Registry.incr st.drop_queue_c;
    Metrics.note_drop st.metrics ~reason:Metrics.Queue_full;
    Trace.drop st.tr ~id:r.id ~reason:"queue_full" ~ts:now;
    offer_retry st r ~reason:Metrics.Queue_full;
    note_done st
  end
  else begin
    let policy = st.cfg.policy in
    let op = effective_op st r in
    let cls = class_of_request st r in
    if Policy.uses_ewt policy && op = Request.Write then begin
      let lo, hi = class_range st cls in
      match Core.admit_write st.core ~partition:r.partition ~now ~pick:(`Balanced (lo, hi)) with
      | Core.Admitted { worker; fresh } ->
        if fresh then Trace.request_event st.tr ~id:r.id ~name:"ewt_miss" ~ts:now ()
        else
          Trace.request_event st.tr ~id:r.id ~name:"ewt_hit"
            ~args:[ ("owner", string_of_int worker) ] ~ts:now ();
        enqueue_at st worker r
      | Core.No_slot ->
        Trace.request_event st.tr ~id:r.id ~name:"ewt_miss" ~ts:now ();
        Fifo.push st.centrals.(cls) r
      | Core.Rejected { owner; _ } ->
        (match owner with
        | Some o ->
          Trace.request_event st.tr ~id:r.id ~name:"ewt_hit"
            ~args:[ ("owner", string_of_int o) ] ~ts:now ()
        | None -> Trace.request_event st.tr ~id:r.id ~name:"ewt_miss" ~ts:now ());
        drop_late st r
    end
    else if Policy.balanceable policy op then begin
      match try_dispatch_class st cls with
      | Some wid -> enqueue_at st wid r
      | None -> Fifo.push st.centrals.(cls) r
    end
    else begin
      let wid = static_owner_in_class st cls r.partition in
      Core.dispatch_to st.core ~worker:wid;
      enqueue_at st wid r
    end
  end

(* Shared driver: [next_request] yields the stream (generator- or
   trace-backed); [n_requests] is its known length. *)
let run_stream ?(warmup_fraction = 0.2) cfg ~next_request ~n_requests ~n_partitions
    ~offered_rate =
  if n_requests <= 0 then invalid_arg "Server.run: n_requests";
  (match cfg.policy with
  | Policy.Size_aware p ->
    if p.Policy.reserved_workers < 1 || p.Policy.reserved_workers >= cfg.n_workers then
      invalid_arg "Server.run: reserved_workers must leave both classes nonempty"
  | _ -> ());
  let sim = Sim.create () in
  let root = Rng.create cfg.seed in
  let svc = Service.create cfg.service (Rng.split root) in
  let rlu_rng = Rng.split root in
  (* All layers instrument against one registry; a private one when the
     caller did not ask to observe the run. *)
  let reg = match cfg.registry with Some r -> r | None -> Registry.create () in
  (* Register server-level metrics up front: record-literal evaluation
     order is unspecified, and the registry's registration order is the
     exporters' column order. *)
  let drop_queue_c = Registry.counter reg "drops.queue_full" in
  let drop_ewt_c = Registry.counter reg "drops.ewt_exhausted" in
  let drop_slo_c = Registry.counter reg "drops.slo_expired" in
  let drop_bad_c = Registry.counter reg "drops.bad_packet" in
  let drop_shed_c = Registry.counter reg "drops.shed" in
  let retry_c = Registry.counter reg "retry.injected" in
  let leak_c = Registry.counter reg "fault.ewt_leak" in
  let shed_level_g = Registry.gauge reg "shed.level" in
  let jbsq_depth_h = Registry.histogram reg "jbsq.depth" in
  let core =
    Core.create ~registry:reg ?on_decision:cfg.on_decision ~cfg:cfg.crew
      ~n_workers:cfg.n_workers ~n_partitions ()
  in
  let make_worker wid =
    {
      wid;
      queue = Fifo.create ();
      busy = false;
      window_reqs = Hashtbl.create 64;
      window_timer = None;
      rlu_writes = 0;
    }
  in
  let st =
    {
      cfg;
      sim;
      svc;
      tr = cfg.trace;
      rlu_rng;
      workers = Array.init cfg.n_workers make_worker;
      core;
      centrals = [| Fifo.create (); Fifo.create () |];
      flow = Flow_control.create ~max_outstanding:cfg.max_outstanding;
      cache =
        Option.map
          (fun params ->
            Coherence.create ~params ~n_cores:cfg.n_workers ~n_partitions ())
          cfg.cache;
      metrics = Metrics.create ~n_workers:cfg.n_workers;
      jbsq_depth_h;
      drop_queue_c;
      drop_ewt_c;
      drop_slo_c;
      drop_bad_c;
      drop_shed_c;
      retry_c;
      leak_c;
      shed_level_g;
      expected = n_requests;
      warmup = int_of_float (warmup_fraction *. float_of_int n_requests);
      done_count = 0;
      ewt_drop_count = 0;
      rlu_global_writes = 0;
    }
  in
  if st.warmup = 0 then Metrics.start_measuring st.metrics ~now:0.0;
  (* Periodic time-series rows: polled gauges are refreshed just before
     each sample. Started after every layer has registered its metrics,
     so the CSV header is complete. *)
  let flow_g = Registry.gauge reg "flow.in_flight" in
  let ewt_occ_g = Registry.gauge reg "ewt.occupancy" in
  let central_g = Registry.gauge reg "central.depth" in
  let snapshot =
    Option.map
      (fun interval_ns ->
        Snapshot.start
          ~pre:(fun () ->
            Registry.set flow_g (float_of_int (Flow_control.in_flight st.flow));
            Registry.set ewt_occ_g (float_of_int (Core.ewt_occupancy st.core));
            Registry.set central_g
              (float_of_int
                 (Fifo.length st.centrals.(0) + Fifo.length st.centrals.(1))))
          ~sim ~registry:reg ~interval_ns ())
      cfg.metrics_interval
  in
  (* Staleness sweep: reclaim EWT entries whose leaked releases would
     otherwise pin their partitions forever. Self-rescheduling stops
     once every expected request is accounted for, so the event queue
     still drains. *)
  (match cfg.crew.Crew_config.ewt_ttl with
  | None -> ()
  | Some { Crew_config.sweep_interval; _ } ->
    let rec sweep () =
      ignore
        (Sim.schedule sim ~after:sweep_interval (fun _ ->
             let evicted = Core.sweep_stale st.core ~now:(Sim.now sim) in
             if evicted <> [] then
               Trace.instant st.tr ~name:"ewt_stale_sweep"
                 ~args:[ ("evicted", string_of_int (List.length evicted)) ]
                 ~ts:(Sim.now sim) ();
             if st.done_count < st.expected then sweep ()))
    in
    sweep ());
  (* Adaptive load shedding: the periodic tick; the thresholds and the
     level live in the core. *)
  (match cfg.crew.Crew_config.shed with
  | None -> ()
  | Some sc ->
    let rec check () =
      ignore
        (Sim.schedule sim ~after:sc.Crew_config.check_interval (fun _ ->
             let prev = Core.shed_level st.core in
             let level = Core.shed_check st.core ~now:(Sim.now sim) in
             if level <> prev then begin
               Registry.set st.shed_level_g (float_of_int level);
               Trace.instant st.tr ~name:"shed_level"
                 ~args:[ ("level", string_of_int level) ]
                 ~ts:(Sim.now sim) ()
             end;
             if st.done_count < st.expected then check ()))
    in
    check ());
  let rec pump () =
    match next_request () with
    | None -> ()
    | Some r ->
      ignore
        (Sim.schedule_at st.sim ~time:r.Request.arrival (fun _ ->
             on_arrival st r;
             pump ()))
  in
  pump ();
  Sim.run st.sim;
  (* Guard against unterminated runs (a bug, not a workload property). *)
  if st.done_count <> st.expected then
    failwith
      (Printf.sprintf "Server.run: %d of %d requests unaccounted for"
         (st.expected - st.done_count) st.expected);
  {
    metrics = st.metrics;
    ewt =
      (if Policy.uses_ewt cfg.policy then Some (Core.ewt_stats st.core) else None);
    compaction = Core.compaction_stats st.core;
    flow_drops = Flow_control.rejected st.flow;
    ewt_drops = st.ewt_drop_count;
    offered_rate;
    mean_service = Service.mean_service st.svc;
    snapshot = Option.map Snapshot.csv snapshot;
    retries_injected = Registry.counter_value st.retry_c;
  }

let run ?warmup_fraction cfg ~workload ~n_requests =
  let gen = Generator.create workload ~seed:(cfg.seed lxor 0x5bd1e995) in
  let remaining = ref n_requests in
  let next_request () =
    if !remaining <= 0 then None
    else begin
      decr remaining;
      Some (Generator.next gen)
    end
  in
  run_stream ?warmup_fraction cfg ~next_request ~n_requests
    ~n_partitions:workload.Generator.n_partitions
    ~offered_rate:workload.Generator.rate

let run_trace ?warmup_fraction cfg ~trace ~n_partitions =
  let n_requests = C4_workload.Trace.length trace in
  let index = ref 0 in
  let next_request () =
    if !index >= n_requests then None
    else begin
      let r = C4_workload.Trace.get trace !index in
      incr index;
      Some r
    end
  in
  run_stream ?warmup_fraction cfg ~next_request ~n_requests ~n_partitions
    ~offered_rate:(C4_workload.Trace.offered_rate trace)
