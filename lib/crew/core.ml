module Ewt = C4_nic.Ewt
module Jbsq = C4_nic.Jbsq
module Compaction_log = C4_kvs.Compaction_log
module Registry = C4_obs.Registry

module type ENGINE = sig
  val now : unit -> float
  val at : float -> (unit -> unit) -> unit
  val dependent_queued : worker:int -> key:int -> bool
  val respond : request:int -> unit
end

type t = {
  cfg : Config.t;
  n_workers : int;
  n_partitions : int;
  owners : int array; (* durable partition -> worker assignment *)
  ewt : Ewt.t;
  incarnations : int Atomic.t array; (* per worker; bumped by [reassign] *)
  jbsq : Jbsq.t;
  logs : Compaction_log.t array; (* empty when compaction is off *)
  mutable shed : int;
  mutable win_arrivals : int;
  mutable win_drops : int;
  on_decision : (Decision.t -> unit) option;
  hook_lock : Mutex.t; (* taken only when [on_decision] is set; see [ordered] *)
  pin_c : Registry.counter;
  route_c : Registry.counter;
  unpin_c : Registry.counter;
  reject_c : Registry.counter;
  window_open_c : Registry.counter;
  window_close_c : Registry.counter;
  shed_c : Registry.counter;
  stale_c : Registry.counter;
  remap_c : Registry.counter;
}

let emit t counter d =
  Registry.incr counter;
  match t.on_decision with None -> () | Some f -> f d

(* With a hook, a pin-word transition and its decision happen under one
   lock, so the hook sees the decisions in the order the transitions
   took effect; without one, admission and release take no lock. *)
let ordered t f =
  match t.on_decision with None -> f () | Some _ -> Mutex.protect t.hook_lock f

let create ?registry ?on_decision ~cfg ~n_workers ~n_partitions () =
  Config.validate cfg;
  if n_workers < 1 || n_workers > Ewt.max_holders then
    invalid_arg "Crew.Core.create: n_workers";
  if n_partitions < 1 then invalid_arg "Crew.Core.create: n_partitions";
  let reg = match registry with Some r -> r | None -> Registry.create () in
  let ewt =
    Ewt.create ~registry:reg ~capacity:cfg.Config.ewt_capacity
      ~max_outstanding:cfg.Config.ewt_max_outstanding ~n_partitions ()
  in
  let logs =
    match cfg.Config.compaction with
    | None -> [||]
    | Some c ->
      Array.init n_workers (fun _ ->
          Compaction_log.create ~registry:reg ~scan_depth:c.Config.scan_depth ())
  in
  {
    cfg;
    n_workers;
    n_partitions;
    owners = Array.init n_partitions (fun p -> p mod n_workers);
    ewt;
    incarnations = Array.init n_workers (fun _ -> Atomic.make 0);
    jbsq = Jbsq.create ~n_workers ~bound:cfg.Config.jbsq_bound;
    logs;
    shed = 0;
    win_arrivals = 0;
    win_drops = 0;
    on_decision;
    hook_lock = Mutex.create ();
    pin_c = Registry.counter reg "crew.pin";
    route_c = Registry.counter reg "crew.route";
    unpin_c = Registry.counter reg "crew.unpin";
    reject_c = Registry.counter reg "crew.reject";
    window_open_c = Registry.counter reg "crew.window_open";
    window_close_c = Registry.counter reg "crew.window_close";
    shed_c = Registry.counter reg "crew.shed_change";
    stale_c = Registry.counter reg "crew.stale_evict";
    remap_c = Registry.counter reg "crew.remap";
  }

let config t = t.cfg
let n_workers t = t.n_workers
let n_partitions t = t.n_partitions

(* ---------------- ownership ---------------- *)

let assigned_owner t ~partition = t.owners.(partition)

let ownership_counts t =
  let counts = Array.make t.n_workers 0 in
  Array.iter (fun w -> counts.(w) <- counts.(w) + 1) t.owners;
  counts

let route_owner t ~partition =
  match Ewt.lookup t.ewt ~partition with
  | Some owner -> owner
  | None -> t.owners.(partition)

type stamp = Ewt.stamp

let stamp_worker = Ewt.stamp_holder

let stamp_live t stamp =
  let worker = Ewt.stamp_holder stamp in
  Ewt.stamp ~holder:worker ~incarnation:(Atomic.get t.incarnations.(worker)) = stamp

let reassign t ~from_worker ~to_worker =
  ordered t @@ fun () ->
  (* Retire the incarnation before freeing its words: a write that rode
     one of them a moment ago now carries a dead stamp, so it is
     admitted again rather than applied, and its release frees nothing. *)
  Atomic.incr t.incarnations.(from_worker);
  List.iter
    (fun partition -> emit t t.unpin_c (Decision.Unpin { partition }))
    (Ewt.evict_holder t.ewt ~holder:from_worker);
  if from_worker = to_worker then 0
  else begin
    let moved = ref 0 in
    Array.iteri
      (fun partition owner ->
        if owner = from_worker then begin
          t.owners.(partition) <- to_worker;
          incr moved;
          emit t t.remap_c (Decision.Remap { partition; from_worker; to_worker })
        end)
      t.owners;
    !moved
  end

let static_owner ~partition ~lo ~hi = lo + (partition mod (hi - lo))

(* ---------------- JBSQ ---------------- *)

let try_dispatch t ~lo ~hi = Jbsq.try_dispatch_range t.jbsq ~lo ~hi
let dispatch_to t ~worker = Jbsq.dispatch_to t.jbsq worker
let complete t ~worker = Jbsq.complete t.jbsq worker
let has_slot t ~worker = Jbsq.has_slot t.jbsq worker
let occupancy t ~worker = Jbsq.occupancy t.jbsq worker

(* ---------------- EWT admission ---------------- *)

type admit =
  | Admitted of { worker : int; fresh : bool; stamp : stamp }
  | No_slot
  | Rejected of { reason : Decision.reject_reason; owner : int option }

let reject t ~partition ~reason ~owner =
  emit t t.reject_c (Decision.Reject { partition; reason });
  Rejected { reason; owner }

(* The hot transitions build their decision only for a hook. *)
let admitted t ~partition ~worker ~fresh ~stamp =
  if fresh then begin
    Registry.incr t.pin_c;
    match t.on_decision with
    | None -> ()
    | Some f -> f (Decision.Pin { partition; worker })
  end
  else begin
    Registry.incr t.route_c;
    match t.on_decision with
    | None -> ()
    | Some f -> f (Decision.Route { partition; worker })
  end;
  Admitted { worker; fresh; stamp }

let unpinned t ~partition =
  Registry.incr t.unpin_c;
  match t.on_decision with
  | None -> ()
  | Some f -> f (Decision.Unpin { partition })

(* A balanced JBSQ pick charges its slot as a side effect of picking;
   a pin that does not happen hands the slot back. *)
let refund t ~pick w =
  match pick with
  | `Balanced _ when t.cfg.Config.pin_fallback = Config.Balanced -> Jbsq.complete t.jbsq w
  | `Balanced _ | `Local _ | `Static | `Worker _ -> ()

(* Admission proper: ride the partition's pin, or pin it where [pick]
   says. Top-level functions, not local closures, so an admission
   allocates only its [Admitted] answer. *)
let rec claim t ~partition ~pick ~now ~charge =
  let seen = Ewt.word t.ewt ~partition in
  if not (Ewt.is_free seen) then begin
    let owner = Ewt.holder seen in
    let stamp = Ewt.stamp_of seen in
    if not (stamp_live t stamp) then begin
      (* Left by a retired incarnation: whatever it counts will be
         admitted again, so free it rather than ride it. *)
      (match Ewt.release t.ewt ~partition ~stamp with
      | `Freed -> unpinned t ~partition
      | `Held | `Stale -> ());
      claim t ~partition ~pick ~now ~charge
    end
    else
      match Ewt.route ?now t.ewt ~partition ~seen with
      | `Ok ->
        if charge then Jbsq.dispatch_to t.jbsq owner;
        admitted t ~partition ~worker:owner ~fresh:false ~stamp
      | `Counter_saturated ->
        reject t ~partition ~reason:Decision.Counter_saturated ~owner:(Some owner)
      | `Moved -> claim t ~partition ~pick ~now ~charge
  end
  else
    match pick with
    | `Worker w -> pin_at t ~partition ~pick ~now ~charge w ~charge_now:charge
    | `Local w -> pin_at t ~partition ~pick ~now ~charge w ~charge_now:false
    | `Static -> pin_at t ~partition ~pick ~now ~charge t.owners.(partition) ~charge_now:false
    | `Balanced (lo, hi) -> (
      match t.cfg.Config.pin_fallback with
      | Config.Static ->
        pin_at t ~partition ~pick ~now ~charge (static_owner ~partition ~lo ~hi) ~charge_now:charge
      | Config.Balanced -> (
        match Jbsq.try_dispatch_range t.jbsq ~lo ~hi with
        | None -> No_slot
        | Some w ->
          (* try_dispatch already charged *)
          pin_at t ~partition ~pick ~now ~charge w ~charge_now:false))

and pin_at t ~partition ~pick ~now ~charge w ~charge_now =
  let incarnation = Atomic.get t.incarnations.(w) in
  match Ewt.pin ?now t.ewt ~partition ~holder:w ~incarnation with
  | `Ok ->
    if charge_now then Jbsq.dispatch_to t.jbsq w;
    admitted t ~partition ~worker:w ~fresh:true ~stamp:(Ewt.stamp ~holder:w ~incarnation)
  | `Full ->
    refund t ~pick w;
    reject t ~partition ~reason:Decision.Table_full ~owner:None
  | `Moved ->
    refund t ~pick w;
    claim t ~partition ~pick ~now ~charge

let admit_write ?now t ~partition ~pick =
  let now = match t.cfg.Config.ewt_ttl with None -> None | Some _ -> now in
  (* JBSQ occupancy is the NIC's queue accounting; the runtime's
     [`Static] and [`Local] picks account for its own inboxes instead. *)
  let charge =
    match pick with `Static | `Local _ -> false | `Balanced _ | `Worker _ -> true
  in
  match t.on_decision with
  | None -> claim t ~partition ~pick ~now ~charge
  | Some _ -> ordered t (fun () -> claim t ~partition ~pick ~now ~charge)

let release_word ?strict ?stamp t ~partition =
  let stamp =
    match stamp with
    | Some s -> s
    | None -> Ewt.stamp_of (Ewt.word t.ewt ~partition)
  in
  match Ewt.release t.ewt ~partition ~stamp with
  | `Held -> ()
  | `Freed -> unpinned t ~partition
  | `Stale ->
    let strict =
      match strict with Some s -> s | None -> t.cfg.Config.ewt_ttl = None
    in
    if strict then invalid_arg "Crew.Core.write_done: release of an unpinned partition"

let write_done ?strict ?stamp t ~partition =
  match t.on_decision with
  | None -> release_word ?strict ?stamp t ~partition
  | Some _ -> ordered t (fun () -> release_word ?strict ?stamp t ~partition)

let sweep_stale t ~now =
  match t.cfg.Config.ewt_ttl with
  | None -> []
  | Some { Config.ttl; _ } ->
    ordered t @@ fun () ->
    let evicted = Ewt.expire_stale_partitions t.ewt ~now ~ttl in
    List.iter
      (fun partition -> emit t t.stale_c (Decision.Stale_evict { partition }))
      evicted;
    evicted

let ewt_occupancy t = Ewt.occupancy t.ewt
let ewt_outstanding t ~partition = Ewt.outstanding t.ewt ~partition
let ewt_stats t = Ewt.occupancy_stats t.ewt

(* ---------------- compaction windows ---------------- *)

let compaction_enabled t = t.cfg.Config.compaction <> None

let scan_depth t =
  match t.cfg.Config.compaction with None -> 0 | Some c -> c.Config.scan_depth

let max_batch t =
  match t.cfg.Config.compaction with None -> 1 | Some c -> c.Config.max_batch

let scan_cost t ~queued =
  match t.cfg.Config.compaction with
  | None -> 0.0
  | Some c ->
    c.Config.scan_cost_per_slot *. float_of_int (min queued c.Config.scan_depth)

let window_is_open t ~worker =
  compaction_enabled t && Compaction_log.window_open t.logs.(worker)

let window_accepts t ~worker ~key =
  compaction_enabled t && Compaction_log.is_open_for t.logs.(worker) ~key

let window_buffered t ~worker =
  if compaction_enabled t then Compaction_log.buffered t.logs.(worker) else 0

let open_window t ~worker ~key ~now ~arrival ~mean_service =
  match t.cfg.Config.compaction with
  | None -> invalid_arg "Crew.Core.open_window: compaction disabled"
  | Some c ->
    (* "Just in time before the SLO expires": the batch must complete
       before the opener's own deadline. Each window consumes at most
       [window_budget_fraction] of the SLO slack S̄·(SLO−1), so a write
       that waits out one window's tail and rides the whole next one
       still answers within SLO; the paper's formula is the
       fraction-1, anchor-at-open special case. *)
    let anchor = if c.Config.deadline_from_arrival then arrival else now in
    let slack =
      mean_service
      *. (c.Config.window_slo_multiplier -. 1.0)
      *. c.Config.window_budget_fraction
    in
    let deadline = Float.max now (anchor +. slack) in
    Compaction_log.open_window t.logs.(worker) ~key ~now ~expires_at:deadline;
    emit t t.window_open_c (Decision.Window_open { worker; key });
    deadline

let absorb t ~worker ~key ~id ~now =
  Compaction_log.absorb t.logs.(worker) ~key
    { Compaction_log.request_id = id; sender = 0; value = Bytes.empty; buffered_at = now }

let must_close t ~worker ~now ~queue_empty =
  match t.cfg.Config.compaction with
  | None -> false
  | Some c ->
    let log = t.logs.(worker) in
    Compaction_log.window_open log
    && (Compaction_log.expired log ~now || (c.Config.adaptive_close && queue_empty))

let close_window t ~worker ~now =
  if not (compaction_enabled t) then None
  else
    match Compaction_log.close t.logs.(worker) ~now with
    | None -> None
    | Some closed ->
      emit t t.window_close_c
        (Decision.Window_close
           {
             worker;
             key = closed.Compaction_log.key;
             absorbed = List.length closed.Compaction_log.writes;
           });
      Some closed

let compaction_stats t =
  if not (compaction_enabled t) then None
  else
    Array.fold_left
      (fun acc log ->
        let s = Compaction_log.stats log in
        match acc with
        | None -> Some s
        | Some a ->
          Some
            {
              Compaction_log.windows_opened =
                a.Compaction_log.windows_opened + s.Compaction_log.windows_opened;
              writes_compacted =
                a.Compaction_log.writes_compacted + s.Compaction_log.writes_compacted;
              largest_window =
                max a.Compaction_log.largest_window s.Compaction_log.largest_window;
            })
      None t.logs

(* ---------------- adaptive load shedding ---------------- *)

let shed_level t = t.shed
let note_arrival ?(n = 1) t = t.win_arrivals <- t.win_arrivals + n
let note_drop t = t.win_drops <- t.win_drops + 1

let shed_check t ~now:_ =
  match t.cfg.Config.shed with
  | None -> t.shed
  | Some sc ->
    let rate =
      if t.win_arrivals = 0 then 0.0
      else float_of_int t.win_drops /. float_of_int t.win_arrivals
    in
    let level =
      if rate > sc.Config.shed_threshold then min 2 (t.shed + 1)
      else if rate < sc.Config.recover_threshold then max 0 (t.shed - 1)
      else t.shed
    in
    if level <> t.shed then begin
      t.shed <- level;
      emit t t.shed_c (Decision.Shed_level { level })
    end;
    t.win_arrivals <- 0;
    t.win_drops <- 0;
    t.shed

(* Shed cheap-to-retry work first: reads, then only the writes
   compaction cannot absorb — losing an absorbable write would forfeit
   the batching capacity that is digging the server out. *)
let shed_rejects t ~is_read =
  t.shed >= 1 && (is_read || (t.shed >= 2 && t.cfg.Config.compaction = None))
