(* Tests for the engine-agnostic d-CREW policy core (lib/crew): the
   transition functions themselves, the TTL-sweep-vs-open-window
   interaction, and the differential parity check — one recorded trace
   driven through BOTH execution engines (the discrete-event model
   server and the multicore runtime server) must produce identical
   decision sequences. *)

module Config = C4_crew.Config
module Core = C4_crew.Core
module Decision = C4_crew.Decision
module Registry = C4_obs.Registry
module Request = C4_workload.Request
module Wtrace = C4_workload.Trace
module MServer = C4_model.Server
module RServer = C4_runtime.Server
module Promise = C4_runtime.Promise

let decision =
  Alcotest.testable
    (fun ppf d -> Format.pp_print_string ppf (Decision.to_string d))
    ( = )

(* A recorder for the core's decision stream. The runtime emits from
   worker domains as well as the submitter, so guard with a mutex. *)
let recorder () =
  let lock = Mutex.create () in
  let log = ref [] in
  let record d =
    Mutex.lock lock;
    log := d :: !log;
    Mutex.unlock lock
  in
  let dump () =
    Mutex.lock lock;
    let l = List.rev !log in
    Mutex.unlock lock;
    l
  in
  (record, dump)

(* ---------------- configuration validation ---------------- *)

let test_config_validate () =
  let cases =
    [
      ( { Config.default with Config.jbsq_bound = 0 },
        "Crew.Config: jbsq_bound must be >= 1" );
      ( { Config.default with Config.ewt_capacity = 0 },
        "Crew.Config: ewt_capacity must be >= 1" );
      ( { Config.default with Config.ewt_max_outstanding = 0 },
        "Crew.Config: ewt_max_outstanding must be >= 1" );
      ( {
          Config.default with
          Config.compaction =
            Some { Config.default_compaction with Config.scan_depth = 0 };
        },
        "Crew.Config: scan_depth must be >= 1" );
      ( {
          Config.default with
          Config.compaction =
            Some { Config.default_compaction with Config.max_batch = 0 };
        },
        "Crew.Config: max_batch must be >= 1" );
      ( {
          Config.default with
          Config.ewt_ttl = Some { Config.ttl = -1.0; sweep_interval = 10.0 };
        },
        "Crew.Config: ewt_ttl fields must be positive" );
      ( {
          Config.default with
          Config.shed = Some { Config.default_shed with Config.check_interval = 0.0 };
        },
        "Crew.Config: shed.check_interval must be positive" );
    ]
  in
  List.iter
    (fun (cfg, msg) ->
      Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
          ignore (Core.create ~cfg ~n_workers:2 ~n_partitions:4 ())))
    cases;
  (* create's own argument validation *)
  Alcotest.check_raises "n_workers" (Invalid_argument "Crew.Core.create: n_workers")
    (fun () -> ignore (Core.create ~cfg:Config.default ~n_workers:0 ~n_partitions:4 ()))

(* ---------------- pin / route / unpin lifecycle ---------------- *)

let test_pin_route_unpin () =
  let record, dump = recorder () in
  let core =
    Core.create ~on_decision:record ~cfg:Config.default ~n_workers:4 ~n_partitions:8 ()
  in
  Alcotest.(check int) "durable owner" 2 (Core.assigned_owner core ~partition:6);
  (match Core.admit_write core ~partition:6 ~now:0.0 ~pick:`Static with
  | Core.Admitted { worker; fresh; _ } ->
    Alcotest.(check int) "pinned at durable owner" 2 worker;
    Alcotest.(check bool) "first write is a miss" true fresh
  | _ -> Alcotest.fail "expected Admitted");
  (match Core.admit_write core ~partition:6 ~now:1.0 ~pick:`Static with
  | Core.Admitted { worker; fresh; _ } ->
    Alcotest.(check int) "routed to pin" 2 worker;
    Alcotest.(check bool) "second write is a hit" false fresh
  | _ -> Alcotest.fail "expected Admitted");
  Alcotest.(check int) "outstanding" 2 (Core.ewt_outstanding core ~partition:6);
  Alcotest.(check int) "route follows pin" 2 (Core.route_owner core ~partition:6);
  Core.write_done core ~partition:6;
  Alcotest.(check int) "one release" 1 (Core.ewt_outstanding core ~partition:6);
  Core.write_done core ~partition:6;
  Alcotest.(check int) "entry freed" 0 (Core.ewt_occupancy core);
  Alcotest.(check (list decision)) "decision stream"
    [
      Decision.Pin { partition = 6; worker = 2 };
      Decision.Route { partition = 6; worker = 2 };
      Decision.Unpin { partition = 6 };
    ]
    (dump ())

let test_rejects () =
  (* Saturated counter: the pin survives, so the reject names the owner. *)
  let record, dump = recorder () in
  let cfg = { Config.default with Config.ewt_max_outstanding = 1 } in
  let core = Core.create ~on_decision:record ~cfg ~n_workers:2 ~n_partitions:4 () in
  (match Core.admit_write core ~partition:1 ~now:0.0 ~pick:`Static with
  | Core.Admitted _ -> ()
  | _ -> Alcotest.fail "expected Admitted");
  (match Core.admit_write core ~partition:1 ~now:1.0 ~pick:`Static with
  | Core.Rejected { reason = Decision.Counter_saturated; owner = Some 1 } -> ()
  | _ -> Alcotest.fail "expected saturated reject naming owner 1");
  Alcotest.(check decision) "reject decision"
    (Decision.Reject { partition = 1; reason = Decision.Counter_saturated })
    (List.nth (dump ()) 1);
  (* Full table: no entry was installed, so there is no owner to name. *)
  let cfg = { Config.default with Config.ewt_capacity = 1 } in
  let core = Core.create ~cfg ~n_workers:2 ~n_partitions:4 () in
  (match Core.admit_write core ~partition:0 ~now:0.0 ~pick:`Static with
  | Core.Admitted _ -> ()
  | _ -> Alcotest.fail "expected Admitted");
  match Core.admit_write core ~partition:1 ~now:1.0 ~pick:`Static with
  | Core.Rejected { reason = Decision.Table_full; owner = None } -> ()
  | _ -> Alcotest.fail "expected table-full reject"

(* The model's central queue (lib/model/server.ml): a balanced pick with
   every worker in range at the JBSQ bound gets No_slot and leaves no
   trace; once a response frees a slot, the held write is handed out
   with [`Worker w], which pins and charges that slot. *)
let test_central_queue_handout () =
  let record, dump = recorder () in
  let core =
    Core.create ~on_decision:record ~cfg:Config.default ~n_workers:2 ~n_partitions:8 ()
  in
  let admit partition pick =
    match Core.admit_write core ~partition ~now:0.0 ~pick with
    | Core.Admitted { worker; _ } -> worker
    | Core.No_slot -> Alcotest.failf "partition %d: unexpected No_slot" partition
    | Core.Rejected _ -> Alcotest.failf "partition %d: unexpected reject" partition
  in
  (* JBSQ(2) over two workers: four fresh partitions fill every slot. *)
  List.iter (fun p -> ignore (admit p (`Balanced (0, 2)))) [ 0; 1; 2; 3 ];
  Alcotest.(check (list int)) "both workers at the bound" [ 2; 2 ]
    [ Core.occupancy core ~worker:0; Core.occupancy core ~worker:1 ];
  let before = List.length (dump ()) in
  (match Core.admit_write core ~partition:4 ~now:1.0 ~pick:(`Balanced (0, 2)) with
  | Core.No_slot -> ()
  | _ -> Alcotest.fail "expected No_slot with every worker at the bound");
  Alcotest.(check int) "No_slot installs no pin" 0
    (Core.ewt_outstanding core ~partition:4);
  Alcotest.(check int) "No_slot emits no decision" before (List.length (dump ()));
  Alcotest.(check (list int)) "No_slot charges no slot" [ 2; 2 ]
    [ Core.occupancy core ~worker:0; Core.occupancy core ~worker:1 ];
  (* A hit never waits for a slot: it follows its pin past the bound. *)
  let owner = Core.route_owner core ~partition:0 in
  Alcotest.(check int) "hit routes to its pin" owner (admit 0 (`Balanced (0, 2)));
  Alcotest.(check int) "hit charged above the bound" 3
    (Core.occupancy core ~worker:owner);
  (* A response leaves worker 1; the held write is handed to it. *)
  Core.complete core ~worker:1;
  Alcotest.(check bool) "slot freed" true (Core.has_slot core ~worker:1);
  Alcotest.(check int) "hand-out pins to the freed worker" 1 (admit 4 (`Worker 1));
  Alcotest.(check int) "hand-out charged the slot" 2 (Core.occupancy core ~worker:1);
  Alcotest.(check int) "held write now owns its partition" 1
    (Core.route_owner core ~partition:4);
  Alcotest.(check decision) "hand-out is a pin"
    (Decision.Pin { partition = 4; worker = 1 })
    (List.nth (dump ()) (before + 1))

(* A balanced pick charges its JBSQ slot while picking; when the EWT then
   refuses the pin, the slot must go back, or the worker looks busier
   than it is for ever. *)
let test_reject_refunds_slot () =
  let record, dump = recorder () in
  let cfg = { Config.default with Config.ewt_capacity = 1 } in
  let core = Core.create ~on_decision:record ~cfg ~n_workers:2 ~n_partitions:4 () in
  (match Core.admit_write core ~partition:0 ~now:0.0 ~pick:(`Balanced (0, 2)) with
  | Core.Admitted { worker = 0; fresh = true; _ } -> ()
  | _ -> Alcotest.fail "expected a fresh pin on worker 0");
  (* Worker 1 is least loaded, so JBSQ picks and charges it; the full
     table then says no. *)
  (match Core.admit_write core ~partition:1 ~now:1.0 ~pick:(`Balanced (0, 2)) with
  | Core.Rejected { reason = Decision.Table_full; owner = None } -> ()
  | _ -> Alcotest.fail "expected a table-full reject");
  Alcotest.(check int) "refused pick refunded its slot" 0
    (Core.occupancy core ~worker:1);
  Alcotest.(check int) "the admitted write keeps its slot" 1
    (Core.occupancy core ~worker:0);
  (* An explicit pick charges only on success, so it has nothing to refund. *)
  (match Core.admit_write core ~partition:2 ~now:2.0 ~pick:(`Worker 1) with
  | Core.Rejected { reason = Decision.Table_full; _ } -> ()
  | _ -> Alcotest.fail "expected a table-full reject");
  Alcotest.(check int) "explicit pick charged nothing" 0
    (Core.occupancy core ~worker:1);
  Alcotest.(check (list decision)) "decisions"
    [
      Decision.Pin { partition = 0; worker = 0 };
      Decision.Reject { partition = 1; reason = Decision.Table_full };
      Decision.Reject { partition = 2; reason = Decision.Table_full };
    ]
    (dump ())

(* Random admissions (all four picks, both pin fallbacks, a small EWT so
   both reject kinds occur) interleaved with responses: a write to a
   partition with outstanding writes is admitted only to that
   partition's route owner, and Pin/Unpin decisions balance — at every
   step as many pins stand as partitions have outstanding writes. *)
let prop_single_writer =
  let op =
    QCheck.Gen.(
      frequency
        [
          ( 3,
            map3
              (fun p k w -> `Admit (p, k, w))
              (int_bound 7) (int_bound 4) (int_bound 3) );
          (2, map (fun p -> `Done p) (int_bound 7));
        ])
  in
  let print_op = function
    | `Admit (p, k, w) -> Printf.sprintf "admit(p%d,k%d,w%d)" p k w
    | `Done p -> Printf.sprintf "done(p%d)" p
  in
  QCheck.Test.make ~name:"admission keeps one writer per partition" ~count:500
    (QCheck.pair QCheck.bool
       (QCheck.make ~print:(QCheck.Print.list print_op)
          QCheck.Gen.(list_size (int_range 1 120) op)))
    (fun (balanced, ops) ->
      let pins = ref 0 in
      let on_decision = function
        | Decision.Pin _ -> incr pins
        | Decision.Unpin _ -> decr pins
        | _ -> ()
      in
      let cfg =
        {
          Config.default with
          Config.ewt_capacity = 4;
          ewt_max_outstanding = 3;
          pin_fallback = (if balanced then Config.Balanced else Config.Static);
        }
      in
      let core = Core.create ~on_decision ~cfg ~n_workers:4 ~n_partitions:8 () in
      (* partition -> outstanding (worker, charged) writes, oldest last *)
      let outstanding = Array.make 8 [] in
      let ok = ref true in
      let expect cond = if not cond then ok := false in
      let pick k w =
        match k with
        | 0 -> `Balanced (0, 4)
        | 1 -> `Balanced (2 * (w land 1), (2 * (w land 1)) + 2)
        | 2 -> `Local w
        | 3 -> `Static
        | _ -> `Worker w
      in
      let respond p =
        match outstanding.(p) with
        | [] -> ()
        | (worker, charged) :: rest ->
          outstanding.(p) <- rest;
          Core.write_done core ~partition:p;
          if charged then Core.complete core ~worker
      in
      let step = function
        | `Admit (p, k, w) -> (
          let pick = pick k w in
          let held = outstanding.(p) <> [] in
          let owner = Core.route_owner core ~partition:p in
          match Core.admit_write core ~partition:p ~now:0.0 ~pick with
          | Core.Admitted { worker; fresh; _ } ->
            expect (fresh = not held);
            if held then expect (worker = owner);
            let charged =
              match pick with `Balanced _ | `Worker _ -> true | _ -> false
            in
            outstanding.(p) <- (worker, charged) :: outstanding.(p);
            expect (Core.route_owner core ~partition:p = worker)
          | Core.Rejected { owner = Some o; _ } -> expect (held && o = owner)
          | Core.Rejected { owner = None; _ } | Core.No_slot -> expect (not held))
        | `Done p -> respond p
      in
      List.iter
        (fun o ->
          step o;
          let held =
            Array.fold_left (fun n l -> if l = [] then n else n + 1) 0 outstanding
          in
          expect (!pins = held);
          Array.iteri
            (fun p l ->
              List.iter
                (fun (w, _) -> expect (Core.route_owner core ~partition:p = w))
                l)
            outstanding)
        ops;
      Array.iteri (fun p l -> List.iter (fun _ -> respond p) l) outstanding;
      !ok && !pins = 0
      && Core.ewt_occupancy core = 0
      && List.for_all (fun worker -> Core.occupancy core ~worker = 0) [ 0; 1; 2; 3 ])

let test_pin_fallback () =
  (* Static fallback: a balanced pick degrades to the static hash. *)
  Alcotest.(check int) "static hash" 2 (Core.static_owner ~partition:6 ~lo:2 ~hi:4);
  let cfg = { Config.default with Config.pin_fallback = Config.Static } in
  let core = Core.create ~cfg ~n_workers:4 ~n_partitions:8 () in
  (match Core.admit_write core ~partition:6 ~now:0.0 ~pick:(`Balanced (0, 4)) with
  | Core.Admitted { worker; _ } -> Alcotest.(check int) "static pin" 2 worker
  | _ -> Alcotest.fail "expected Admitted");
  (* Balanced fallback: JBSQ picks the least-loaded worker in range. *)
  let core = Core.create ~cfg:Config.default ~n_workers:4 ~n_partitions:8 () in
  Core.dispatch_to core ~worker:0;
  Core.dispatch_to core ~worker:1;
  Core.dispatch_to core ~worker:2;
  (match Core.admit_write core ~partition:6 ~now:0.0 ~pick:(`Balanced (0, 4)) with
  | Core.Admitted { worker; _ } -> Alcotest.(check int) "least loaded" 3 worker
  | _ -> Alcotest.fail "expected Admitted");
  Alcotest.(check int) "pick charged a slot" 1 (Core.occupancy core ~worker:3);
  (* Explicit worker pick (central-queue hand-out). *)
  match Core.admit_write core ~partition:7 ~now:0.0 ~pick:(`Worker 1) with
  | Core.Admitted { worker; _ } -> Alcotest.(check int) "explicit pick" 1 worker
  | _ -> Alcotest.fail "expected Admitted"

let test_reassign () =
  let record, dump = recorder () in
  let core =
    Core.create ~on_decision:record ~cfg:Config.default ~n_workers:4 ~n_partitions:8 ()
  in
  (match Core.admit_write core ~partition:1 ~now:0.0 ~pick:`Static with
  | Core.Admitted { worker = 1; _ } -> ()
  | _ -> Alcotest.fail "expected pin at worker 1");
  Alcotest.(check int) "no-op self reassign" 0
    (Core.reassign core ~from_worker:1 ~to_worker:1);
  Alcotest.(check int) "partitions moved" 2
    (Core.reassign core ~from_worker:1 ~to_worker:3);
  Alcotest.(check int) "pin evicted" 0 (Core.ewt_occupancy core);
  Alcotest.(check int) "durable moved" 3 (Core.assigned_owner core ~partition:5);
  Alcotest.(check int) "route follows remap" 3 (Core.route_owner core ~partition:1);
  Alcotest.(check (list decision)) "eviction precedes remaps"
    [
      Decision.Pin { partition = 1; worker = 1 };
      Decision.Unpin { partition = 1 };
      Decision.Remap { partition = 1; from_worker = 1; to_worker = 3 };
      Decision.Remap { partition = 5; from_worker = 1; to_worker = 3 };
    ]
    (dump ())

let test_window_lifecycle () =
  let record, dump = recorder () in
  let cfg =
    { Config.default with Config.compaction = Some Config.default_compaction }
  in
  let core = Core.create ~on_decision:record ~cfg ~n_workers:2 ~n_partitions:4 () in
  Alcotest.(check bool) "enabled" true (Core.compaction_enabled core);
  Alcotest.(check int) "scan depth" 8 (Core.scan_depth core);
  Alcotest.(check int) "max batch" 64 (Core.max_batch core);
  Alcotest.(check (float 1e-9)) "scan cost" 15.0 (Core.scan_cost core ~queued:3);
  Alcotest.(check (float 1e-9)) "scan cost capped" 40.0 (Core.scan_cost core ~queued:20);
  let deadline =
    Core.open_window core ~worker:0 ~key:9 ~now:100.0 ~arrival:50.0 ~mean_service:100.0
  in
  (* anchor = now, slack = 100 * (10-1) * 0.5 *)
  Alcotest.(check (float 1e-9)) "deadline" 550.0 deadline;
  Alcotest.(check bool) "open" true (Core.window_is_open core ~worker:0);
  Alcotest.(check bool) "accepts its key" true (Core.window_accepts core ~worker:0 ~key:9);
  Alcotest.(check bool) "rejects other keys" false
    (Core.window_accepts core ~worker:0 ~key:8);
  Core.absorb core ~worker:0 ~key:9 ~id:5 ~now:110.0;
  Core.absorb core ~worker:0 ~key:9 ~id:6 ~now:120.0;
  Core.absorb core ~worker:0 ~key:9 ~id:7 ~now:130.0;
  Alcotest.(check int) "buffered" 3 (Core.window_buffered core ~worker:0);
  Alcotest.(check bool) "not expired" false
    (Core.must_close core ~worker:0 ~now:200.0 ~queue_empty:true);
  Alcotest.(check bool) "expired" true
    (Core.must_close core ~worker:0 ~now:600.0 ~queue_empty:false);
  (match Core.close_window core ~worker:0 ~now:600.0 with
  | None -> Alcotest.fail "expected a closed window"
  | Some closed ->
    Alcotest.(check (list int)) "answers in buffering order" [ 5; 6; 7 ]
      (List.map
         (fun (p : C4_kvs.Compaction_log.pending) -> p.C4_kvs.Compaction_log.request_id)
         closed.C4_kvs.Compaction_log.writes));
  Alcotest.(check bool) "closed" false (Core.window_is_open core ~worker:0);
  (match Core.close_window core ~worker:0 ~now:700.0 with
  | None -> ()
  | Some _ -> Alcotest.fail "double close");
  Alcotest.(check (list decision)) "window decisions"
    [
      Decision.Window_open { worker = 0; key = 9 };
      Decision.Window_close { worker = 0; key = 9; absorbed = 3 };
    ]
    (dump ())

let test_shed_levels () =
  let record, dump = recorder () in
  let shed =
    Some
      {
        Config.check_interval = 10.0;
        shed_threshold = 0.5;
        recover_threshold = 0.1;
      }
  in
  let cfg = { Config.default with Config.shed } in
  let core = Core.create ~on_decision:record ~cfg ~n_workers:2 ~n_partitions:4 () in
  let drive ~arrivals ~drops =
    for _ = 1 to arrivals do
      Core.note_arrival core
    done;
    for _ = 1 to drops do
      Core.note_drop core
    done;
    Core.shed_check core ~now:0.0
  in
  Alcotest.(check int) "level 1" 1 (drive ~arrivals:10 ~drops:8);
  Alcotest.(check bool) "level 1 sheds reads" true (Core.shed_rejects core ~is_read:true);
  Alcotest.(check bool) "level 1 keeps writes" false
    (Core.shed_rejects core ~is_read:false);
  Alcotest.(check int) "level 2" 2 (drive ~arrivals:10 ~drops:8);
  Alcotest.(check bool) "level 2 sheds writes without compaction" true
    (Core.shed_rejects core ~is_read:false);
  Alcotest.(check int) "recovery" 1 (drive ~arrivals:10 ~drops:0);
  Alcotest.(check (list decision)) "level changes"
    [
      Decision.Shed_level { level = 1 };
      Decision.Shed_level { level = 2 };
      Decision.Shed_level { level = 1 };
    ]
    (dump ());
  (* With compaction on, level 2 still admits writes — the window can
     absorb them, and losing them would forfeit the batching capacity. *)
  let cfg =
    {
      Config.default with
      Config.shed;
      compaction = Some Config.default_compaction;
    }
  in
  let core = Core.create ~cfg ~n_workers:2 ~n_partitions:4 () in
  for _ = 1 to 2 do
    Core.note_arrival core;
    Core.note_drop core;
    ignore (Core.shed_check core ~now:0.0)
  done;
  Alcotest.(check int) "at level 2" 2 (Core.shed_level core);
  Alcotest.(check bool) "absorbable writes still admitted" false
    (Core.shed_rejects core ~is_read:false)

(* ---------------- TTL sweep vs. open window ---------------- *)

(* A staleness sweep firing while a compaction window is open must not
   orphan the buffered-but-unanswered writes: the window lifecycle is
   per-worker state, independent of the EWT mapping, so the close still
   returns every absorbed id; the release that then finds its pin gone
   counts an orphan instead of raising. *)
let test_ttl_sweep_during_open_window () =
  let record, dump = recorder () in
  let reg = Registry.create () in
  let cfg =
    {
      Config.default with
      Config.compaction = Some Config.default_compaction;
      ewt_ttl = Some { Config.ttl = 100.0; sweep_interval = 50.0 };
    }
  in
  let core =
    Core.create ~registry:reg ~on_decision:record ~cfg ~n_workers:2 ~n_partitions:4 ()
  in
  (match Core.admit_write core ~partition:1 ~now:0.0 ~pick:`Static with
  | Core.Admitted { worker = 1; fresh = true; _ } -> ()
  | _ -> Alcotest.fail "expected a fresh pin at worker 1");
  ignore (Core.open_window core ~worker:1 ~key:42 ~now:0.0 ~arrival:0.0 ~mean_service:100.0);
  Core.absorb core ~worker:1 ~key:42 ~id:10 ~now:0.0;
  Core.absorb core ~worker:1 ~key:42 ~id:11 ~now:1.0;
  Core.absorb core ~worker:1 ~key:42 ~id:12 ~now:2.0;
  (* The sweep fires mid-window and reclaims the idle pin. *)
  Alcotest.(check (list int)) "pin evicted" [ 1 ] (Core.sweep_stale core ~now:1000.0);
  Alcotest.(check int) "table empty" 0 (Core.ewt_occupancy core);
  Alcotest.(check bool) "window survives the sweep" true
    (Core.window_is_open core ~worker:1);
  Alcotest.(check int) "nothing lost" 3 (Core.window_buffered core ~worker:1);
  (match Core.close_window core ~worker:1 ~now:1000.0 with
  | None -> Alcotest.fail "expected a closed window"
  | Some closed ->
    Alcotest.(check (list int)) "all absorbed writes answered" [ 10; 11; 12 ]
      (List.map
         (fun (p : C4_kvs.Compaction_log.pending) -> p.C4_kvs.Compaction_log.request_id)
         closed.C4_kvs.Compaction_log.writes));
  (* The deferred releases find no pin: orphans, not protocol errors. *)
  for _ = 1 to 3 do
    Core.write_done ~strict:false core ~partition:1
  done;
  Alcotest.(check int) "orphan releases counted" 3
    (Registry.counter_value (Registry.counter reg "ewt.orphan_release"));
  Alcotest.(check int) "route back at durable owner" 1
    (Core.route_owner core ~partition:1);
  Alcotest.(check (list decision)) "decision order"
    [
      Decision.Pin { partition = 1; worker = 1 };
      Decision.Window_open { worker = 1; key = 42 };
      Decision.Stale_evict { partition = 1 };
      Decision.Window_close { worker = 1; key = 42; absorbed = 3 };
    ]
    (dump ())

(* ---------------- differential engine parity ---------------- *)

(* One recorded trace, two engines, one policy core: the discrete-event
   model (simulated ns) and the multicore runtime (wall clock, real
   domains) must emit identical decision sequences. The trace has a
   sequential phase (each write completes before the next arrives:
   pin/unpin parity) and a burst phase (K same-key writes queued behind
   a warm write on the pinned worker: window-lifecycle parity). On the
   runtime side the queue build-up is made deterministic by parking the
   owning worker on a gate while the burst is submitted. *)
let test_engine_parity () =
  let crew =
    {
      Config.queued with
      Config.pin_fallback = Config.Static;
      compaction =
        Some { Config.default_compaction with Config.adaptive_close = true };
    }
  in
  let n_workers = 2 and n_partitions = 8 in
  (* --- runtime side --- *)
  let record_rt, dump_rt = recorder () in
  let rt =
    RServer.start
      {
        RServer.default_config with
        RServer.n_workers;
        n_buckets = 512;
        n_partitions;
        crew;
        recovery = false;
        on_decision = Some record_rt;
      }
  in
  (* The trace must carry the partitions the runtime's store hash will
     compute, so probe for the keys first: a warm/burst pair sharing a
     partition, plus distinct keys for the sequential phase. *)
  let partition_of k = RServer.partition_of_key rt k in
  let key_a, key_b =
    let rec find a =
      let rec scan b =
        if b > 256 then None
        else if partition_of b = partition_of a then Some b
        else scan (b + 1)
      in
      match scan (a + 1) with
      | Some b -> (a, b)
      | None -> find (a + 1)
    in
    find 1
  in
  let burst_partition = partition_of key_a in
  let owner = burst_partition mod n_workers in
  let seq_keys = [ 301; 302; 303; 304; 305 ] in
  let value = Bytes.of_string "v" in
  List.iter (fun key -> RServer.set rt ~key ~value) seq_keys;
  (* Burst: park the owner, preload its channel with the warm write and
     K same-key writes, then release — the worker applies the warm
     write, then harvests the rest into one compaction window. *)
  let k = 4 in
  let release = RServer.pause_worker rt ~worker:owner in
  let warm = RServer.set_async rt ~key:key_a ~value in
  let burst = List.init k (fun _ -> RServer.set_async rt ~key:key_b ~value) in
  release ();
  Promise.await warm;
  List.iter Promise.await burst;
  Alcotest.(check (option bytes)) "burst write applied" (Some value)
    (RServer.get rt ~key:key_b);
  RServer.stop rt;
  let runtime_decisions = dump_rt () in
  (* --- model side: the same arrivals as a recorded trace --- *)
  let record_m, dump_m = recorder () in
  let mk id key arrival =
    {
      Request.id;
      op = Request.Write;
      key;
      partition = partition_of key;
      arrival;
      value_size = 512;
    }
  in
  let seq_reqs =
    List.mapi (fun i key -> mk i key (float_of_int i *. 1.0e6)) seq_keys
  in
  let t0 = 1.0e7 in
  let burst_reqs =
    mk 100 key_a t0
    :: List.init k (fun i -> mk (101 + i) key_b (t0 +. float_of_int (i + 1)))
  in
  let trace = Wtrace.of_array (Array.of_list (seq_reqs @ burst_reqs)) in
  let cfg =
    {
      MServer.default_config with
      MServer.n_workers;
      policy = C4_model.Policy.Dcrew;
      crew;
      on_decision = Some record_m;
    }
  in
  ignore (MServer.run_trace cfg ~trace ~n_partitions);
  let model_decisions = dump_m () in
  (* Guard against degenerate agreement: the burst must actually have
     exercised the window lifecycle on both engines. *)
  Alcotest.(check decision) "burst compacted"
    (Decision.Window_close { worker = owner; key = key_b; absorbed = k })
    (List.find
       (function Decision.Window_close _ -> true | _ -> false)
       runtime_decisions);
  Alcotest.(check int) "decision count"
    (List.length model_decisions)
    (List.length runtime_decisions);
  Alcotest.(check (list decision)) "identical decision sequences" model_decisions
    runtime_decisions

let tests =
  [
    Alcotest.test_case "config validation" `Quick test_config_validate;
    Alcotest.test_case "pin/route/unpin lifecycle" `Quick test_pin_route_unpin;
    Alcotest.test_case "admission rejects" `Quick test_rejects;
    Alcotest.test_case "central-queue hand-out" `Quick test_central_queue_handout;
    Alcotest.test_case "refused balanced pick refunds its slot" `Quick
      test_reject_refunds_slot;
    QCheck_alcotest.to_alcotest prop_single_writer;
    Alcotest.test_case "pin fallback" `Quick test_pin_fallback;
    Alcotest.test_case "crash-recovery reassign" `Quick test_reassign;
    Alcotest.test_case "window lifecycle" `Quick test_window_lifecycle;
    Alcotest.test_case "shed levels" `Quick test_shed_levels;
    Alcotest.test_case "ttl sweep during open window" `Quick
      test_ttl_sweep_during_open_window;
    Alcotest.test_case "model/runtime decision parity" `Quick test_engine_parity;
  ]
