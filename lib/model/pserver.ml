(* c4-lint: allow test-only-module — the differential reference for
   Server: a second implementation of the queueing model that the test
   suite compares point by point against the first. Its client is the
   test by design. *)

module Sim = C4_dsim.Sim
module Process = C4_dsim.Process
module Rng = C4_dsim.Rng
module Generator = C4_workload.Generator
module Request = C4_workload.Request
module Histogram = C4_stats.Histogram

type policy = Ideal | Crew | Erew

type result = {
  latency : Histogram.t;
  completed : int;
  duration : float;
}

let throughput_mrps r =
  if r.duration <= 0.0 then 0.0 else float_of_int r.completed /. r.duration *. 1e3

(* Messages the dispatcher process consumes: request arrivals from the
   generator process, completion notices from workers. *)
type msg = Arrival of Request.t | Done of int

let run ?(seed = 42) ?(jbsq_bound = 2) ~policy ~workload ~n_requests () =
  if n_requests <= 0 then invalid_arg "Pserver.run: n_requests";
  let sim = Sim.create () in
  let p = Process.create sim in
  let svc = Service.create Service.default (Rng.create (seed * 31)) in
  let gen = Generator.create workload ~seed:(seed lxor 0x5bd1e995) in
  let n_workers = 64 in
  let dispatcher_box : msg Process.Mailbox.t = Process.Mailbox.create () in
  let worker_boxes : Request.t Process.Mailbox.t array =
    Array.init n_workers (fun _ -> Process.Mailbox.create ())
  in
  let outstanding = Array.make n_workers 0 in
  let central : Request.t Queue.t = Queue.create () in
  let latency = Histogram.create () in
  let warmup = n_requests / 5 in
  let completed_total = ref 0 in
  let measured = ref 0 in
  let t_start = ref 0.0 and t_stop = ref 0.0 in

  let balanceable (r : Request.t) =
    match (policy, r.Request.op) with
    | Ideal, _ -> true
    | Crew, Request.Read -> true
    | Crew, Request.Write -> false
    | Erew, _ -> false
  in
  let least_loaded_below_bound () =
    let best = ref (-1) and best_count = ref jbsq_bound in
    for i = 0 to n_workers - 1 do
      if outstanding.(i) < !best_count then begin
        best := i;
        best_count := outstanding.(i)
      end
    done;
    if !best < 0 then None else Some !best
  in
  let dispatch wid (r : Request.t) =
    outstanding.(wid) <- outstanding.(wid) + 1;
    Process.Mailbox.send p worker_boxes.(wid) r
  in

  (* Worker process: serve requests one at a time; every completion is
     reported to the dispatcher, which owns all balancing state. *)
  let worker wid () =
    let rec loop () =
      let r = Process.Mailbox.recv p worker_boxes.(wid) in
      Process.wait p (Service.sample_kvs svc +. (Service.params svc).Service.t_fixed);
      incr completed_total;
      if !completed_total = warmup then t_start := Process.now p;
      if !completed_total > warmup && !completed_total <= n_requests then begin
        Histogram.add latency (Process.now p -. r.Request.arrival);
        incr measured;
        t_stop := Process.now p
      end;
      Process.Mailbox.send p dispatcher_box (Done wid);
      if !completed_total < n_requests then loop ()
    in
    loop ()
  in

  (* Generator process: one arrival per inter-arrival gap. *)
  let generator () =
    for _ = 1 to n_requests do
      let r = Generator.next gen in
      let gap = r.Request.arrival -. Process.now p in
      if gap > 0.0 then Process.wait p gap;
      Process.Mailbox.send p dispatcher_box (Arrival r)
    done
  in

  (* Dispatcher process: the NIC. *)
  let dispatcher () =
    let remaining = ref n_requests in
    while !remaining > 0 do
      match Process.Mailbox.recv p dispatcher_box with
      | Arrival r ->
        decr remaining;
        if balanceable r then begin
          match least_loaded_below_bound () with
          | Some wid -> dispatch wid r
          | None -> Queue.push r central
        end
        else dispatch (r.Request.partition mod n_workers) r
      | Done wid ->
        outstanding.(wid) <- outstanding.(wid) - 1;
        if (not (Queue.is_empty central)) && outstanding.(wid) < jbsq_bound then
          dispatch wid (Queue.pop central)
    done;
    (* Drain remaining completions so the central queue empties. *)
    let rec drain () =
      if !completed_total < n_requests then begin
        match Process.Mailbox.recv p dispatcher_box with
        | Done wid ->
          outstanding.(wid) <- outstanding.(wid) - 1;
          if (not (Queue.is_empty central)) && outstanding.(wid) < jbsq_bound then
            dispatch wid (Queue.pop central);
          drain ()
        | Arrival _ -> drain ()
      end
    in
    drain ()
  in

  for wid = 0 to n_workers - 1 do
    Process.spawn p (worker wid)
  done;
  Process.spawn p dispatcher;
  Process.spawn p generator;
  Sim.run sim;
  { latency; completed = !measured; duration = Float.max 0.0 (!t_stop -. !t_start) }
