(* Real-runtime tests: promises and inbox channels under actual domains, the
   server's CREW routing and compaction batching, and — the crown — a
   linearizability check over a history recorded from genuinely
   concurrent execution. *)

module Promise = C4_runtime.Promise
module Channel = C4_runtime.Channel
module Server = C4_runtime.Server
module History = C4_consistency.History
module Lin = C4_consistency.Linearizability

(* ---------------- Promise ---------------- *)

let test_promise_basic () =
  let p = Promise.create () in
  Alcotest.(check (option int)) "unfulfilled" None (Promise.peek p);
  Promise.fulfil p 42;
  Alcotest.(check int) "await" 42 (Promise.await p);
  Alcotest.(check (option int)) "peek" (Some 42) (Promise.peek p)

let test_promise_double_fulfil () =
  let p = Promise.create () in
  Promise.fulfil p 1;
  Alcotest.check_raises "double fulfil" (Invalid_argument "Promise.fulfil: already fulfilled")
    (fun () -> Promise.fulfil p 2)

let test_promise_cross_domain () =
  let p = Promise.create () in
  let d = Domain.spawn (fun () -> Promise.await p) in
  Promise.fulfil p "hello";
  Alcotest.(check string) "woken across domains" "hello" (Domain.join d)

(* ---------------- Channel ---------------- *)

let test_channel_fifo () =
  let c = Channel.create () in
  Channel.push c 1;
  Channel.push c 2;
  Alcotest.(check (option int)) "pop 1" (Some 1) (Channel.try_pop c);
  Alcotest.(check (option int)) "pop 2" (Some 2) (Channel.try_pop c);
  Alcotest.(check (option int)) "try_pop empty" None (Channel.try_pop c)

let test_channel_close_semantics () =
  let c = Channel.create () in
  Channel.push c 7;
  Channel.close c;
  Alcotest.(check bool) "closed" true (Channel.is_closed c);
  Alcotest.(check (option int)) "backlog drains" (Some 7) (Channel.try_pop c);
  Alcotest.(check (option int)) "then None" None (Channel.try_pop c);
  Alcotest.(check bool) "try_push after close" false (Channel.try_push c 8);
  Alcotest.check_raises "push after close" (Invalid_argument "Channel.push: closed")
    (fun () -> Channel.push c 9)

let test_channel_drain_matching () =
  let c = Channel.create () in
  List.iter (Channel.push c) [ 1; 2; 3; 4; 5; 6 ];
  let evens = Channel.drain_matching c ~f:(fun x -> x mod 2 = 0) in
  Alcotest.(check (list int)) "drained in order" [ 2; 4; 6 ] evens;
  Alcotest.(check int) "odds remain" 3 (Channel.length c);
  Alcotest.(check (option int)) "order preserved" (Some 1) (Channel.try_pop c);
  List.iter (Channel.push c) [ 8; 7; 10; 12 ];
  let two = Channel.drain_matching ~limit:2 c ~f:(fun x -> x mod 2 = 0) in
  Alcotest.(check (list int)) "limit takes the first matches" [ 8; 10 ] two;
  Alcotest.(check (list int)) "later matches keep their place" [ 3; 5; 7; 12 ]
    (Channel.drain_matching c ~f:(fun _ -> true))

(* Workers sleep in poll(2) on their self-pipe, not on the inbox: a
   submission from outside the workers must wake the one it pushed to. *)
let test_idle_worker_wakes () =
  let t = Server.start { Server.default_config with Server.n_workers = 2 } in
  Fun.protect ~finally:(fun () -> Server.stop t) (fun () ->
      for key = 0 to 9 do
        (* Give the workers time to block before each submission. *)
        Unix.sleepf 0.002;
        Server.set t ~key ~value:(Bytes.of_string "w");
        Alcotest.(check (option string)) "read back" (Some "w")
          (Option.map Bytes.to_string (Server.get t ~key))
      done)

let test_channel_mpsc_stress () =
  let c = Channel.create () in
  let n_producers = 4 and per_producer = 2_000 in
  let producers =
    List.init n_producers (fun p ->
        Domain.spawn (fun () ->
            for i = 0 to per_producer - 1 do
              Channel.push c ((p * per_producer) + i)
            done))
  in
  let seen = Hashtbl.create 1024 in
  let received = ref 0 in
  while !received < n_producers * per_producer do
    match Channel.try_pop c with
    | Some v ->
      if Hashtbl.mem seen v then Alcotest.failf "duplicate %d" v;
      Hashtbl.replace seen v ();
      incr received
    | None -> Domain.cpu_relax ()
  done;
  List.iter Domain.join producers;
  Alcotest.(check int) "all delivered exactly once" (n_producers * per_producer)
    (Hashtbl.length seen)

(* ---------------- Server ---------------- *)

let with_server ?(cfg = Server.default_config) f =
  let t = Server.start cfg in
  Fun.protect ~finally:(fun () -> Server.stop t) (fun () -> f t)

let test_server_set_get () =
  with_server (fun t ->
      Server.set t ~key:1 ~value:(Bytes.of_string "one");
      Server.set t ~key:2 ~value:(Bytes.of_string "two");
      Alcotest.(check (option string)) "get 1" (Some "one")
        (Option.map Bytes.to_string (Server.get t ~key:1));
      Alcotest.(check (option string)) "get 2" (Some "two")
        (Option.map Bytes.to_string (Server.get t ~key:2));
      Alcotest.(check (option string)) "miss" None
        (Option.map Bytes.to_string (Server.get t ~key:3)))

let test_server_delete () =
  with_server (fun t ->
      Server.set t ~key:5 ~value:(Bytes.of_string "five");
      Alcotest.(check bool) "delete present" true (Server.delete t ~key:5);
      Alcotest.(check (option string)) "gone" None
        (Option.map Bytes.to_string (Server.get t ~key:5));
      Alcotest.(check bool) "delete absent" false (Server.delete t ~key:5);
      (* Async variant routes like a write and fulfils with presence. *)
      Server.set t ~key:6 ~value:(Bytes.of_string "six");
      Alcotest.(check bool) "async delete" true
        (Promise.await (Server.delete_async t ~key:6));
      Alcotest.(check (option string)) "async gone" None
        (Option.map Bytes.to_string (Server.get t ~key:6)))

let test_server_partition_exports () =
  with_server (fun t ->
      let n = Server.n_partitions t in
      Alcotest.(check int) "matches config" Server.default_config.Server.n_partitions n;
      for key = 0 to 499 do
        let p = Server.partition_of_key t key in
        Alcotest.(check bool) "partition in range" true (p >= 0 && p < n);
        Alcotest.(check int) "stable" p (Server.partition_of_key t key)
      done)

(* [stop] must reject new submissions but drain queued backlogs: pile
   async writes onto the channels, stop immediately, and every promise
   must still be fulfilled with the write applied. *)
let test_server_stop_drains_backlog () =
  let t = Server.start { Server.default_config with Server.n_workers = 2 } in
  let n = 2_000 in
  let promises = List.init n (fun i ->
      Server.set_async t ~key:i ~value:(Bytes.of_string (string_of_int i)))
  in
  Server.stop t;
  (* Every submission accepted before stop is applied, not dropped. *)
  List.iter Promise.await promises;
  Alcotest.(check bool) "all backlogged ops completed" true
    ((Server.stats t).Server.ops_completed >= n)

let test_server_overwrite () =
  with_server (fun t ->
      for i = 1 to 50 do
        Server.set t ~key:9 ~value:(Bytes.of_string (string_of_int i))
      done;
      Alcotest.(check (option string)) "last write wins" (Some "50")
        (Option.map Bytes.to_string (Server.get t ~key:9)))

let test_server_stop_idempotent () =
  let t = Server.start Server.default_config in
  Server.stop t;
  Server.stop t;
  Alcotest.check_raises "post-stop get raises Stopped" Server.Stopped (fun () ->
      ignore (Server.get t ~key:1));
  Alcotest.check_raises "post-stop set raises Stopped" Server.Stopped (fun () ->
      Server.set t ~key:1 ~value:(Bytes.of_string "x"))

(* Regression: [stop] racing in-flight submissions and a concurrent
   second [stop]. Every submission either returns a promise that
   resolves (it beat the stop) or raises [Stopped] — never a raw
   channel/store error, never a hung promise. *)
let test_server_stop_race () =
  for round = 0 to 4 do
    let t = Server.start { Server.default_config with Server.n_workers = 3 } in
    let resolved = Atomic.make 0 and rejected = Atomic.make 0 in
    let clients =
      List.init 4 (fun c ->
          Domain.spawn (fun () ->
              (try
                 for i = 0 to 499 do
                   let p =
                     Server.set_async t ~key:((c * 1000) + i)
                       ~value:(Bytes.of_string (string_of_int i))
                   in
                   (* A promise handed out before stop MUST resolve. *)
                   Promise.await p;
                   Atomic.incr resolved
                 done
               with Server.Stopped -> Atomic.incr rejected);
              (* Everything after stop must keep raising Stopped. *)
              match Server.get_async t ~key:0 with
              | _ -> ()
              | exception Server.Stopped -> ()))
    in
    (* Let the clients get going, then yank the server from under them
       while a second stop races the first. *)
    Unix.sleepf (0.001 *. float_of_int round);
    let stopper = Domain.spawn (fun () -> Server.stop t) in
    Server.stop t;
    Domain.join stopper;
    List.iter Domain.join clients;
    Alcotest.(check bool) "some submissions observed" true
      (Atomic.get resolved + Atomic.get rejected > 0)
  done

let test_server_crew_routing () =
  with_server (fun t ->
      (* Every write to the same key goes to one worker; a full sweep of
         keys touches all workers. *)
      let owners = Hashtbl.create 8 in
      for key = 0 to 999 do
        Hashtbl.replace owners (Server.owner_of_key t key) ()
      done;
      Alcotest.(check int) "all workers own partitions"
        Server.default_config.Server.n_workers (Hashtbl.length owners))

let test_server_async_pipeline () =
  with_server (fun t ->
      let promises =
        List.init 100 (fun i -> Server.set_async t ~key:i ~value:(Bytes.of_string (string_of_int i)))
      in
      List.iter Promise.await promises;
      let reads = List.init 100 (fun i -> (i, Server.get_async t ~key:i)) in
      List.iter
        (fun (i, p) ->
          Alcotest.(check (option string)) "async read" (Some (string_of_int i))
            (Option.map Bytes.to_string (Promise.await p)))
        reads)

let test_server_compaction_batches () =
  with_server
    ~cfg:{ Server.default_config with Server.n_workers = 2 }
    (fun t ->
      (* Fire many async writes to one key so they pile up in the
         owner's channel, then confirm batching happened. *)
      let promises =
        List.init 500 (fun i -> Server.set_async t ~key:7 ~value:(Bytes.of_string (string_of_int i)))
      in
      List.iter Promise.await promises;
      let stats = Server.stats t in
      Alcotest.(check int) "all writes answered" 500 stats.Server.writes;
      Alcotest.(check bool) "batches formed" true (stats.Server.batches > 0);
      Alcotest.(check bool) "batched writes counted" true
        (stats.Server.batched_writes > stats.Server.batches);
      Alcotest.(check (option string)) "final value is the last submitted" (Some "499")
        (Option.map Bytes.to_string (Server.get t ~key:7)))

let test_server_no_compaction_no_batches () =
  with_server
    ~cfg:
      {
        Server.default_config with
        Server.crew = { C4_crew.Config.queued with C4_crew.Config.compaction = None };
      }
    (fun t ->
      List.iter Promise.await
        (List.init 200 (fun i ->
             Server.set_async t ~key:3 ~value:(Bytes.of_string (string_of_int i))));
      Alcotest.(check int) "no batches" 0 (Server.stats t).Server.batches)

let test_server_concurrent_load () =
  (* Several client domains hammer the server with mixed ops; the CREW
     invariant must hold (the store raises on concurrent writers), every
     op must complete, and per-key last-write state must be a value some
     client actually wrote. *)
  with_server ~cfg:{ Server.default_config with Server.n_workers = 3 } (fun t ->
      let n_clients = 4 and per_client = 1_500 in
      let clients =
        List.init n_clients (fun c ->
            Domain.spawn (fun () ->
                let rng = C4_dsim.Rng.create (c + 1) in
                for i = 0 to per_client - 1 do
                  let key = C4_dsim.Rng.int rng 50 in
                  if C4_dsim.Rng.bernoulli rng ~p:0.5 then
                    Server.set t ~key ~value:(Bytes.of_string (Printf.sprintf "%d.%d" c i))
                  else ignore (Server.get t ~key)
                done))
      in
      List.iter Domain.join clients;
      let stats = Server.stats t in
      Alcotest.(check int) "every op completed" (n_clients * per_client)
        stats.Server.ops_completed)

(* Concurrent producers race [close] and [drain_matching]: every element
   a producer successfully pushed must surface exactly once — via
   drain, pop, or the post-close backlog — with none half-drained. *)
let test_channel_drain_close_race () =
  for _round = 0 to 2 do
    let c = Channel.create () in
    let n_producers = 4 and per_producer = 2_000 in
    let accepted = Array.make n_producers 0 in
    let producers =
      List.init n_producers (fun p ->
          Domain.spawn (fun () ->
              for i = 0 to per_producer - 1 do
                if Channel.try_push c ((p * per_producer) + i) then
                  accepted.(p) <- accepted.(p) + 1
              done))
    in
    let seen = Hashtbl.create 1024 in
    let account v =
      if Hashtbl.mem seen v then Alcotest.failf "element %d seen twice" v;
      Hashtbl.replace seen v ()
    in
    let drainer =
      Domain.spawn (fun () ->
          let drained = ref [] in
          for _ = 0 to 99 do
            drained := Channel.drain_matching c ~f:(fun x -> x mod 3 = 0) :: !drained
          done;
          List.concat !drained)
    in
    (* Consume while draining and closing are in flight. *)
    for _ = 0 to 999 do
      match Channel.try_pop c with Some v -> account v | None -> Domain.cpu_relax ()
    done;
    Channel.close c;
    List.iter Domain.join producers;
    List.iter account (Domain.join drainer);
    let rec mop () =
      match Channel.try_pop c with
      | Some v ->
        account v;
        mop ()
      | None -> ()
    in
    mop ();
    let total = Array.fold_left ( + ) 0 accepted in
    Alcotest.(check int) "accepted elements all surface exactly once" total
      (Hashtbl.length seen)
  done

(* ---------------- crash recovery ---------------- *)

let rec await_recovery ?(tries = 5_000) t ~expect =
  if tries = 0 then Alcotest.fail "recovery did not complete in time"
  else if
    Server.alive_workers t = expect && (Server.stats t).Server.recoveries > 0
  then ()
  else begin
    Unix.sleepf 0.001;
    await_recovery ~tries:(tries - 1) t ~expect
  end

let test_server_crash_recovery () =
  let cfg = { Server.default_config with Server.n_workers = 4 } in
  with_server ~cfg (fun t ->
      let value_of k = Bytes.of_string (Printf.sprintf "v%d" k) in
      for key = 0 to 999 do
        Server.set t ~key ~value:(value_of key)
      done;
      let victim = Server.owner_of_key t 0 in
      Server.inject_crash t ~worker:victim;
      (* Hammer the server THROUGH the crash window: ops racing the
         recovery either queue on the dead worker (requeued later) or
         route normally; all must complete. *)
      for key = 1000 to 1999 do
        Server.set t ~key ~value:(value_of key)
      done;
      await_recovery t ~expect:4;
      let new_owner = Server.owner_of_key t 0 in
      Alcotest.(check bool) "partitions re-owned off the dead worker" true
        (new_owner <> victim);
      (* Every acknowledged write — before, during, and after the crash —
         is present and correct. *)
      for key = 0 to 1999 do
        Alcotest.(check (option string))
          (Printf.sprintf "key %d survives the crash" key)
          (Some (Bytes.to_string (value_of key)))
          (Option.map Bytes.to_string (Server.get t ~key))
      done;
      let stats = Server.stats t in
      Alcotest.(check bool) "recovery recorded" true (stats.Server.recoveries >= 1);
      Alcotest.(check int) "restarted worker back in service" 4 (Server.alive_workers t))

(* A worker that dies of an arbitrary exception — here one escaping a
   completion — must be recovered like an injected crash; otherwise it
   stays "alive" and every op routed to it goes unanswered. *)
let test_server_worker_exception_recovered () =
  let cfg = { Server.default_config with Server.n_workers = 2 } in
  with_server ~cfg (fun t ->
      Server.set t ~key:1 ~value:(Bytes.of_string "before");
      Server.submit_get t ~key:1 (fun _ -> failwith "completion raised");
      await_recovery t ~expect:2;
      Alcotest.(check int) "exactly one recovery" 1
        (Server.stats t).Server.recoveries;
      (* Reads spray over both workers and writes reach every owner:
         every later op is answered. *)
      for key = 0 to 199 do
        Server.set t ~key ~value:(Bytes.of_string (string_of_int key))
      done;
      for key = 0 to 199 do
        Alcotest.(check (option string))
          (Printf.sprintf "key %d answered" key)
          (Some (string_of_int key))
          (Option.map Bytes.to_string (Server.get t ~key))
      done)

(* A worker crash in the middle of a recorded single-key history: the
   operations that span the crash + recovery must still linearize. *)
let test_server_crash_history_linearizable () =
  let cfg = { Server.default_config with Server.n_workers = 3 } in
  with_server ~cfg (fun t ->
      let key = 23 in
      Server.set t ~key ~value:(Bytes.of_string "0");
      let now () = Unix.gettimeofday () *. 1e6 in
      let record_client c n_ops =
        Domain.spawn (fun () ->
            let rng = C4_dsim.Rng.create (7_000 + c) in
            List.init n_ops (fun i ->
                if c = 0 && i = 3 then
                  Server.inject_crash t ~worker:(Server.owner_of_key t key);
                let invoked = now () in
                if C4_dsim.Rng.bernoulli rng ~p:0.4 then begin
                  let v = (c * 100) + i + 1 in
                  Server.set t ~key ~value:(Bytes.of_string (string_of_int v));
                  History.set ~client:(string_of_int c) ~value:v ~invoked
                    ~responded:(now ())
                end
                else begin
                  let seen =
                    match Server.get t ~key with
                    | Some b -> int_of_string (Bytes.to_string b)
                    | None -> -1
                  in
                  History.get ~client:(string_of_int c) ~value:seen ~invoked
                    ~responded:(now ())
                end))
      in
      let domains = List.init 3 (fun c -> record_client c 8) in
      let history = List.concat_map Domain.join domains in
      (match Lin.check ~initial:0 (History.of_ops history) with
      | Lin.Linearizable _ -> ()
      | Lin.Not_linearizable ->
        Alcotest.failf "post-crash execution not linearizable:@.%a" History.pp
          (History.of_ops history));
      Alcotest.(check bool) "the crash actually happened" true
        ((Server.stats t).Server.recoveries >= 1))

(* A worker forwards a write with no lock held: one CAS counts it on the
   holder's pin, then the push. Here the holder crashes and is recovered
   between the two, so the write lands in the restarted worker's inbox
   stamped with the retired incarnation, whose pin the recovery freed.
   The restarted worker must admit it again, not apply it: the
   partition's admissions number four — the first write and its
   recovery requeue, the forwarded write and its re-admission. *)
let test_server_stale_stamp_readmitted () =
  let lock = Mutex.create () and log = ref [] in
  let record d = C4_runtime.Sync.with_lock lock (fun () -> log := d :: !log) in
  let registry = C4_obs.Registry.create ~thread_safe:true () in
  let cfg =
    {
      Server.default_config with
      Server.n_workers = 2;
      n_partitions = 16;
      on_decision = Some record;
      registry = Some registry;
    }
  in
  with_server ~cfg (fun t ->
      let rec owned_by w k = if Server.owner_of_key t k = w then k else owned_by w (k + 1) in
      let hot = owned_by 1 0 and home = owned_by 0 0 in
      let release = Server.pause_worker t ~worker:1 in
      Server.inject_crash t ~worker:1;
      (* Pins [hot]'s partition on worker 1, queued behind the gate. *)
      let first = Server.set_async t ~key:hot ~value:(Bytes.of_string "first") in
      let second = Promise.create () in
      (* The ack of a write to [home] runs on worker 0's loop, which then
         submits to [hot] as a worker: it rides worker 1's pin, and its
         [admitted] hook lets worker 1 die and recover before the push. *)
      ignore
        (Server.submit_set t ~key:home ~value:(Bytes.of_string "h") ~off:0 ~len:1 (fun () ->
             ignore
               (Server.submit_set t ~key:hot ~value:(Bytes.of_string "second") ~off:0 ~len:6
                  ~admitted:(fun () ->
                    release ();
                    await_recovery t ~expect:2)
                  (fun () -> Promise.fulfil second ()))));
      Promise.await first;
      Promise.await second;
      Alcotest.(check (option string)) "the forwarded write is the last" (Some "second")
        (Option.map Bytes.to_string (Server.get t ~key:hot));
      let partition = Server.partition_of_key t hot in
      let admissions =
        C4_runtime.Sync.with_lock lock (fun () ->
            List.length
              (List.filter
                 (function
                   | C4_crew.Decision.Pin { partition = p; _ }
                   | C4_crew.Decision.Route { partition = p; _ } ->
                     p = partition
                   | _ -> false)
                 !log))
      in
      Alcotest.(check int) "the stale write was admitted again" 4 admissions;
      let counter name =
        C4_obs.Registry.counter_value (C4_obs.Registry.counter registry name)
      in
      Alcotest.(check int) "every pin released" (counter "crew.pin") (counter "crew.unpin"))

(* The inboxes, not a pin's counter, bound the backlog: under a profile
   whose counter saturates at 64 ([Config.default]), 100 writes queued
   behind a parked holder are all admitted on one pin and all release
   it, with no orphan release. *)
let test_server_pin_counter_never_refuses () =
  let registry = C4_obs.Registry.create ~thread_safe:true () in
  let cfg =
    {
      Server.default_config with
      Server.n_workers = 2;
      crew = C4_crew.Config.default;
      registry = Some registry;
    }
  in
  with_server ~cfg (fun t ->
      let release = Server.pause_worker t ~worker:0 in
      let rec owned_by_0 k = if Server.owner_of_key t k = 0 then k else owned_by_0 (k + 1) in
      let key = owned_by_0 0 in
      let writes =
        Fun.protect ~finally:release (fun () ->
            List.init 100 (fun i ->
                Server.set_async t ~key ~value:(Bytes.of_string (string_of_int i))))
      in
      List.iter Promise.await writes;
      let counter name =
        C4_obs.Registry.counter_value (C4_obs.Registry.counter registry name)
      in
      Alcotest.(check int) "one pin" 1 (counter "crew.pin");
      Alcotest.(check int) "ridden by the rest" 99 (counter "crew.route");
      Alcotest.(check int) "released once" 1 (counter "crew.unpin");
      Alcotest.(check int) "no orphan release" 0 (counter "ewt.orphan_release");
      Alcotest.(check (option string)) "last write wins" (Some "99")
        (Option.map Bytes.to_string (Server.get t ~key)))

let test_server_idempotent_retry () =
  with_server (fun t ->
      Server.set t ~key:5 ~value:(Bytes.of_string "orig");
      (* An at-least-once client re-sends a write whose ack it lost; the
         token makes the second apply a no-op. *)
      let token = 0xfeed in
      Promise.await (Server.set_async ~token t ~key:5 ~value:(Bytes.of_string "retry"));
      Promise.await (Server.set_async ~token t ~key:5 ~value:(Bytes.of_string "retry"));
      Alcotest.(check int) "duplicate suppressed" 1
        (Server.stats t).Server.duplicate_writes;
      Alcotest.(check (option string)) "value applied once" (Some "retry")
        (Option.map Bytes.to_string (Server.get t ~key:5));
      (* Distinct tokens are distinct writes. *)
      Promise.await (Server.set_async ~token:1 t ~key:5 ~value:(Bytes.of_string "a"));
      Promise.await (Server.set_async ~token:2 t ~key:5 ~value:(Bytes.of_string "b"));
      Alcotest.(check (option string)) "later token wins" (Some "b")
        (Option.map Bytes.to_string (Server.get t ~key:5));
      Alcotest.(check int) "no extra duplicates" 1
        (Server.stats t).Server.duplicate_writes)

(* Record a timestamped history from real concurrent execution against
   one key and check it linearizes. Timestamps come from the wall clock;
   invocation is taken before submission and response after the promise
   resolves, so the recorded spans safely cover the true ones. *)
let test_server_real_history_linearizable () =
  with_server ~cfg:{ Server.default_config with Server.n_workers = 3 } (fun t ->
      let key = 11 in
      Server.set t ~key ~value:(Bytes.of_string "0");
      let now () = Unix.gettimeofday () *. 1e6 in
      let record_client c n_ops =
        Domain.spawn (fun () ->
            let rng = C4_dsim.Rng.create (1000 + c) in
            List.init n_ops (fun i ->
                let invoked = now () in
                if C4_dsim.Rng.bernoulli rng ~p:0.4 then begin
                  let v = (c * 100) + i + 1 in
                  Server.set t ~key ~value:(Bytes.of_string (string_of_int v));
                  History.set ~client:(string_of_int c) ~value:v ~invoked ~responded:(now ())
                end
                else begin
                  let seen =
                    match Server.get t ~key with
                    | Some b -> int_of_string (Bytes.to_string b)
                    | None -> -1
                  in
                  History.get ~client:(string_of_int c) ~value:seen ~invoked
                    ~responded:(now ())
                end))
      in
      let domains = List.init 3 (fun c -> record_client c 8) in
      let history = List.concat_map Domain.join domains in
      match Lin.check ~initial:0 (History.of_ops history) with
      | Lin.Linearizable _ -> ()
      | Lin.Not_linearizable ->
        Alcotest.failf "real execution not linearizable:@.%a" History.pp
          (History.of_ops history))

(* A worker's own writes that ride another worker's pin complete back
   home. Crashed with those completions queued in its inbox, the worker
   gets them back once it restarts — not the survivor — and every one
   runs exactly once, on the restarted loop. *)
let test_home_completions_follow_restart () =
  let cfg = { Server.default_config with Server.n_workers = 2; n_partitions = 16 } in
  with_server ~cfg (fun t ->
      let rec owned_by w k = if Server.owner_of_key t k = w then k else owned_by w (k + 1) in
      let key = owned_by 1 0 and n = 5 in
      let lock = Mutex.create () in
      let loop_tid = Array.make 2 (-1) and ran = ref [] in
      let submitted = Atomic.make false and started = Atomic.make false in
      let sync f = C4_runtime.Sync.with_lock lock f in
      let release1 = Server.pause_worker t ~worker:1 in
      let pinned = Server.set_async t ~key ~value:(Bytes.of_string "pin") in
      (* Worker 0's first round submits [n] writes to [key] as itself:
         each rides worker 1's pin, so it is forwarded there and its
         completion is bound for worker 0. *)
      let io w ~wake =
        let id = Server.worker_id w in
        sync (fun () -> loop_tid.(id) <- Thread.id (Thread.self ()));
        if id = 0 && not (Atomic.exchange started true) then begin
          for i = 1 to n do
            let value = Bytes.of_string (string_of_int i) in
            ignore
              (Server.submit_set ~on:w t ~key ~value ~off:0 ~len:(Bytes.length value) (fun () ->
                   sync (fun () -> ran := (i, Thread.id (Thread.self ())) :: !ran)))
          done;
          Atomic.set submitted true
        end;
        match Unix.select [ wake ] [] [] 0.05 with _ :: _, _, _ -> true | [], _, _ -> false
      in
      Server.attach t io;
      Fun.protect ~finally:(fun () -> Server.detach t) (fun () ->
          let await what cond =
            let deadline = Unix.gettimeofday () +. 10.0 in
            while (not (cond ())) && Unix.gettimeofday () < deadline do
              Unix.sleepf 0.001
            done;
            if not (cond ()) then Alcotest.failf "timed out waiting for %s" what
          in
          await "worker 0's submissions" (fun () -> Atomic.get submitted);
          let first_tid = sync (fun () -> loop_tid.(0)) in
          (* Park worker 0 with a crash queued behind the gate; then let
             worker 1 apply the writes, so their completions queue in
             worker 0's inbox behind the crash. *)
          let release0 = Server.pause_worker t ~worker:0 in
          let parked = ref true in
          Fun.protect
            ~finally:(fun () -> if !parked then release0 ())
            (fun () ->
              Server.inject_crash t ~worker:0;
              release1 ();
              Promise.await pinned;
              Unix.sleepf 0.05;
              Alcotest.(check int) "nothing ran while worker 0 was parked" 0
                (sync (fun () -> List.length !ran));
              parked := false;
              release0 ());
          await_recovery t ~expect:2;
          await "every completion" (fun () -> sync (fun () -> List.length !ran) = n);
          await "the restarted loop's round" (fun () ->
              sync (fun () -> loop_tid.(0) <> first_tid));
          let ran, tid0, tid1 = sync (fun () -> (!ran, loop_tid.(0), loop_tid.(1))) in
          Alcotest.(check (list int)) "each completion ran once" (List.init n (fun i -> i + 1))
            (List.sort compare (List.map fst ran));
          List.iter
            (fun (_, tid) ->
              Alcotest.(check int) "ran on the restarted worker 0" tid0 tid;
              Alcotest.(check bool) "not on the survivor" true (tid <> tid1))
            ran;
          Alcotest.(check int) "one recovery" 1 (Server.stats t).Server.recoveries;
          Alcotest.(check bool) "the completions were requeued" true
            ((Server.stats t).Server.requeued_ops >= n)))

let tests =
  [
    Alcotest.test_case "promise fulfil/await" `Quick test_promise_basic;
    Alcotest.test_case "promise rejects double fulfil" `Quick test_promise_double_fulfil;
    Alcotest.test_case "promise crosses domains" `Quick test_promise_cross_domain;
    Alcotest.test_case "channel FIFO" `Quick test_channel_fifo;
    Alcotest.test_case "channel close semantics" `Quick test_channel_close_semantics;
    Alcotest.test_case "channel drain_matching" `Quick test_channel_drain_matching;
    Alcotest.test_case "idle worker wakes on submit" `Quick test_idle_worker_wakes;
    Alcotest.test_case "channel MPSC stress" `Slow test_channel_mpsc_stress;
    Alcotest.test_case "channel drain/close race" `Slow test_channel_drain_close_race;
    Alcotest.test_case "server set/get" `Quick test_server_set_get;
    Alcotest.test_case "server overwrite" `Quick test_server_overwrite;
    Alcotest.test_case "server delete" `Quick test_server_delete;
    Alcotest.test_case "server partition exports" `Quick test_server_partition_exports;
    Alcotest.test_case "server stop drains backlog" `Quick test_server_stop_drains_backlog;
    Alcotest.test_case "server stop idempotent" `Quick test_server_stop_idempotent;
    Alcotest.test_case "server stop races in-flight submits" `Slow test_server_stop_race;
    Alcotest.test_case "server crash recovery keeps acked writes" `Slow
      test_server_crash_recovery;
    Alcotest.test_case "history across crash linearizes" `Slow
      test_server_crash_history_linearizable;
    Alcotest.test_case "worker dying of any exception is recovered" `Quick
      test_server_worker_exception_recovered;
    Alcotest.test_case "stale-stamped forward is admitted again" `Quick
      test_server_stale_stamp_readmitted;
    Alcotest.test_case "home-bound completions follow their worker's restart" `Quick
      test_home_completions_follow_restart;
    Alcotest.test_case "pin counter never refuses a queued write" `Quick
      test_server_pin_counter_never_refuses;
    Alcotest.test_case "server idempotent retry applies once" `Quick
      test_server_idempotent_retry;
    Alcotest.test_case "server CREW routing covers workers" `Quick test_server_crew_routing;
    Alcotest.test_case "server async pipeline" `Quick test_server_async_pipeline;
    Alcotest.test_case "server compaction batches writes" `Quick test_server_compaction_batches;
    Alcotest.test_case "server without compaction never batches" `Quick
      test_server_no_compaction_no_batches;
    Alcotest.test_case "server concurrent mixed load" `Slow test_server_concurrent_load;
    Alcotest.test_case "real concurrent history linearizes" `Slow
      test_server_real_history_linearizable;
  ]
