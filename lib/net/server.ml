module Runtime = C4_runtime.Server
module Sync = C4_runtime.Sync
module Registry = C4_obs.Registry
module Span = C4_obs.Span

(* Cluster hooks are plain functions over bytes (the encoded shard map)
   so this module needs no dependency on the cluster runtime that
   implements them — C4_clusterd sits above c4_net in the build graph
   and injects its member state here. *)
type cluster = {
  cl_check : key:int -> write:bool -> (unit, bytes) result;
  cl_read_fence : key:int -> (unit -> unit) -> unit;
  cl_info : bytes -> (bytes, string) result;
}

type config = {
  host : string;
  port : int;
  backlog : int;
  max_frame : int;
  spans : Span.t option;
  cluster : cluster option;
  max_pending : int;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    backlog = 64;
    max_frame = 1 lsl 20;
    spans = None;
    cluster = None;
    max_pending = 1024;
  }

type metrics = {
  conns_accepted_c : Registry.counter;
  bytes_in_c : Registry.counter;
  bytes_out_c : Registry.counter;
  protocol_errors_c : Registry.counter;
  requests_c : Registry.counter;
  wrong_shard_c : Registry.counter;
  get_h : Registry.histogram;
  set_h : Registry.histogram;
  delete_h : Registry.histogram;
  routed_c : Registry.counter array;  (* per-worker mutation attribution *)
  accept_errors_c : Registry.counter;  (* EMFILE/ENFILE backoffs survived *)
  slow_client_drops_c : Registry.counter;
}

(* A connection belongs to one worker: membership, the decoder and the
   [eof]/[drained] flags are touched only by it, so they need no lock;
   the reorder slots, the output buffer and the pending count are
   shared with completing threads and guarded by the per-connection
   mutex. A completion only parks its response; the owning worker
   encodes the contiguous ready prefix and flushes it with one
   coalesced write per round, firing each response's [on_written] hook
   as the flush crosses its boundary. *)
type conn = {
  id : int;
  fd : Unix.file_descr;
  worker : int;  (* the owning worker, woken by completions *)
  decoder : Wire.Decoder.decoder;
  lock : Mutex.t;  (* guards every mutable field below except [eof]/[drained] *)
  (* Reorder slots, a ring indexed by arrival number: the response to
     request [seq] parks at [seq land (length - 1)] until every earlier
     one has been staged. [no_response] marks a slot still waiting. *)
  mutable ready : Wire.response array;
  mutable hooks : (unit -> unit) array;  (* on_written of each parked response *)
  mutable next_seq : int;  (* arrival number of the next request *)
  mutable head_seq : int;  (* oldest arrival not yet staged *)
  mutable obuf : Bytes.t;  (* encoded responses, [o_start, o_end) valid *)
  mutable o_start : int;
  mutable o_end : int;
  (* (queued_total offset at end of frame, on_written): crossed by the
     flush cursor in order. *)
  bounds : (int * (unit -> unit)) Queue.t;
  mutable queued_total : int;
  mutable flushed_total : int;
  mutable pending : int;  (* accepted, response not yet retired *)
  mutable eof : bool;  (* worker-only: no further frames will be decoded *)
  mutable dead : bool;  (* peer unwritable (gone, dropped as slow, or aborted) *)
  mutable drained : bool;  (* worker-only: receive side already shut down *)
}

(* One accepted request's place in its connection's response order. *)
type slot = { s_conn : conn; s_seq : int; mutable s_done : bool (* under lock *) }

(* One worker's connection set. *)
type loop = {
  l_lock : Mutex.t;  (* guards [incoming] *)
  incoming : conn Queue.t;  (* accepted, not yet taken by the worker *)
  conns : (int, conn) Hashtbl.t;  (* owning worker only *)
  scratch : Bytes.t;  (* per-worker read buffer, shared by its conns *)
  mutable pfds : Unix.file_descr array;
  mutable pevents : int array;
  mutable prevents : int array;
  mutable porder : conn option array;
}

type t = {
  cfg : config;
  runtime : Runtime.t;
  wire : Wire.t;
  listen_fd : Unix.file_descr;
  bound_port : int;
  reg : Registry.t;
  m : metrics;
  loops : loop array;  (* one per runtime worker *)
  mutable acceptor : Thread.t option;
  active : int Atomic.t;  (* open connections *)
  inflight : int Atomic.t;
  stopping : bool Atomic.t;
  q_lock : Mutex.t;  (* with q_cond: [active] reaching zero, [stopped] *)
  q_cond : Condition.t;
  mutable stopped : bool;  (* under q_lock: the drain has finished *)
}

let now_ns () = Unix.gettimeofday () *. 1e9

(* [net.conns_active] and [net.inflight] are sampled from the server's
   own atomics at scrape time: no request writes a gauge. *)
let metrics_of reg ~n_workers ~active ~inflight =
  let sampled name a = Registry.sampled_gauge reg name (fun () -> float_of_int (Atomic.get a)) in
  let conns_accepted_c = Registry.counter reg "net.conns_accepted" in
  sampled "net.conns_active" active;
  let bytes_in_c = Registry.counter reg "net.bytes_in" in
  let bytes_out_c = Registry.counter reg "net.bytes_out" in
  sampled "net.inflight" inflight;
  {
    conns_accepted_c;
    bytes_in_c;
    bytes_out_c;
    protocol_errors_c = Registry.counter reg "net.protocol_errors";
    requests_c = Registry.counter reg "net.requests";
    wrong_shard_c = Registry.counter reg "net.wrong_shard";
    get_h = Registry.histogram reg "net.get_ns";
    set_h = Registry.histogram reg "net.set_ns";
    delete_h = Registry.histogram reg "net.delete_ns";
    (* Eagerly registered for every worker the runtime was started
       with: a telemetry scrape sees all owners at zero from the first
       request, and a routed count can only ever land on a real worker
       id — never a dangling one minted from a stale ownership view. *)
    routed_c =
      Array.init n_workers (fun w ->
          Registry.counter reg (Printf.sprintf "net.routed_w%d" w));
    accept_errors_c = Registry.counter reg "net.accept_errors";
    slow_client_drops_c = Registry.counter reg "net.slow_client_drops";
  }

(* ---------------- reorder slots and output buffer (under c.lock) ---------------- *)

let no_response =
  { Wire.resp_id = -1; status = Wire.Err; timing_ns = 0; resp_value = Bytes.empty }

let no_hook () = ()

(* Double the ring, keeping every outstanding arrival at its index
   under the new mask. *)
let grow c =
  let cap = Array.length c.ready in
  let ready = Array.make (2 * cap) no_response in
  let hooks = Array.make (2 * cap) no_hook in
  for seq = c.head_seq to c.next_seq - 1 do
    ready.(seq land ((2 * cap) - 1)) <- c.ready.(seq land (cap - 1));
    hooks.(seq land ((2 * cap) - 1)) <- c.hooks.(seq land (cap - 1))
  done;
  c.ready <- ready;
  c.hooks <- hooks

let append_out c frame on_written =
  let flen = Bytes.length frame in
  let len = c.o_end - c.o_start in
  let cap = Bytes.length c.obuf in
  if c.o_end + flen > cap then begin
    if len + flen <= cap then Bytes.blit c.obuf c.o_start c.obuf 0 len
    else begin
      let nb = Bytes.create (max (cap * 2) (len + flen)) in
      Bytes.blit c.obuf c.o_start nb 0 len;
      c.obuf <- nb
    end;
    c.o_start <- 0;
    c.o_end <- len
  end;
  Bytes.blit frame 0 c.obuf c.o_end flen;
  c.o_end <- c.o_end + flen;
  c.queued_total <- c.queued_total + flen;
  Queue.add (c.queued_total, on_written) c.bounds

(* Encode the contiguous ready prefix of slots into the output buffer;
   [true] if it staged anything. *)
let stage wire c =
  let first = c.head_seq in
  let continue = ref (not c.dead) in
  while !continue && c.head_seq < c.next_seq do
    let i = c.head_seq land (Array.length c.ready - 1) in
    let resp = c.ready.(i) in
    if resp == no_response then continue := false
    else begin
      append_out c (Wire.encode_response wire resp) c.hooks.(i);
      c.ready.(i) <- no_response;
      c.hooks.(i) <- no_hook;
      c.head_seq <- c.head_seq + 1
    end
  done;
  c.head_seq > first

(* Fire on_written for every boundary the flush cursor has crossed, in
   wire order. *)
let retire_flushed c =
  let continue = ref true in
  while !continue && not (Queue.is_empty c.bounds) do
    let off, on_written = Queue.peek c.bounds in
    if off <= c.flushed_total then begin
      ignore (Queue.pop c.bounds);
      c.pending <- c.pending - 1;
      on_written ()
    end
    else continue := false
  done

(* Peer unwritable: abandon buffered output, but retire every owed
   response that is already here — staged or parked — through its hook:
   a response's lifecycle ends (and its respond span closes) whether or
   not the ack could be delivered. Responses still being computed
   retire when they arrive (see [respond]). *)
let mark_dead c =
  if not c.dead then begin
    c.dead <- true;
    while not (Queue.is_empty c.bounds) do
      let _, on_written = Queue.pop c.bounds in
      c.pending <- c.pending - 1;
      on_written ()
    done;
    for seq = c.head_seq to c.next_seq - 1 do
      let i = seq land (Array.length c.ready - 1) in
      if c.ready.(i) != no_response then begin
        let on_written = c.hooks.(i) in
        c.ready.(i) <- no_response;
        c.hooks.(i) <- no_hook;
        c.pending <- c.pending - 1;
        on_written ()
      end
    done;
    c.head_seq <- c.next_seq;
    c.o_start <- 0;
    c.o_end <- 0
  end

(* One coalesced write: everything buffered goes out in a single
   write(2); a partial write leaves the tail for the next POLLOUT.
   Nonblocking, so holding c.lock across it cannot stall a completing
   thread for long. Owning worker only. *)
let rec write_out t c =
  if (not c.dead) && c.o_start < c.o_end then
    match Unix.write c.fd c.obuf c.o_start (c.o_end - c.o_start) with
    | n ->
      c.o_start <- c.o_start + n;
      c.flushed_total <- c.flushed_total + n;
      Registry.incr ~by:n t.m.bytes_out_c;
      retire_flushed c;
      if c.o_start = c.o_end then begin
        c.o_start <- 0;
        c.o_end <- 0
      end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_out t c
    | exception Unix.Unix_error (_, _, _) ->
      mark_dead c;
      c.eof <- true

(* ---------------- completion side (any thread) ---------------- *)

(* Park the response to [s]; never blocks, never encodes. [on_written]
   runs exactly once: after the response's last byte reaches the
   socket, or at once if the connection is already dead or the slot
   was aborted. *)
let respond t s ~on_written resp =
  let c = s.s_conn in
  let parked =
    Sync.with_lock c.lock (fun () ->
        if s.s_done then false
        else begin
          s.s_done <- true;
          if c.dead then begin
            c.pending <- c.pending - 1;
            false
          end
          else begin
            let i = s.s_seq land (Array.length c.ready - 1) in
            c.ready.(i) <- resp;
            c.hooks.(i) <- on_written;
            true
          end
        end)
  in
  (* Outside the lock; the worker's self-pipe outlives every
     connection, so a wake after the worker has closed this one is
     harmless. *)
  if parked then Runtime.wake t.runtime ~worker:c.worker else on_written ()

(* The response to [s] cannot be produced (its completion raised):
   retire the slot and kill the connection — buffered output is
   abandoned, the socket shut down. A later [respond] on the slot only
   runs its hook. *)
let abort t s =
  let c = s.s_conn in
  Sync.with_lock c.lock (fun () ->
      if not s.s_done then begin
        s.s_done <- true;
        c.pending <- c.pending - 1;
        mark_dead c;
        Registry.incr t.m.protocol_errors_c;
        (* The worker's poll sees the socket hang up and closes the
           connection. Under the lock: once [pending] is released the
           worker may close the fd, and the number could be reused. *)
        try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()
      end)

(* ---------------- serving one request ---------------- *)

let op_name = function
  | Wire.Get -> "GET"
  | Wire.Set -> "SET"
  | Wire.Delete -> "DELETE"
  | Wire.Cluster_info -> "CLUSTER_INFO"

let status_name = function
  | Wire.Ok -> "ok"
  | Wire.Not_found -> "not_found"
  | Wire.Err -> "err"
  | Wire.Wrong_shard -> "wrong_shard"
  | Wire.Cluster_ok -> "cluster_ok"

(* Per-request server spans, built only when the server has a span
   buffer AND the request carried a trace context to adopt:

     server.recv    decode + crew admission, child of the client's
                    in-band context; admission decisions the policy
                    core emits on this worker land here as annotations
                    via [Span.with_current]
     server.apply   admitted to completed (queueing + store apply,
                    compaction windows, WAL and cluster fences included)
     server.respond response parked, encoded and written, closed by the
                    connection's [on_written] hook

   Each parents on the previous, so the client's dispatch span and
   these three form one chain walkable from either end. The runtime
   calls [admitted] before the op can run anywhere, so a completion on
   any thread finds the apply span open; a request answered without the
   runtime opens it at its reply. *)
type req_trace = {
  tr_buf : Span.t;
  tr_recv : Span.span;
  mutable tr_apply : Span.span option;  (* set before any completion can run *)
}

let start_trace t (req : Wire.request) ~ts =
  match (t.cfg.spans, req.Wire.trace) with
  | Some buf, Some ctx ->
    let parent =
      { Span.trace_id = ctx.Wire.trace_id; span_id = ctx.Wire.parent_span }
    in
    let recv = Span.start ~parent buf ~name:"server.recv" ~ts in
    Span.annotate buf recv ~key:"op" ~value:(op_name req.Wire.op);
    Span.annotate buf recv ~key:"key" ~value:(string_of_int req.Wire.key);
    Span.annotate buf recv ~key:"req_id" ~value:(string_of_int req.Wire.id);
    Some { tr_buf = buf; tr_recv = recv; tr_apply = None }
  | _ -> None

let open_apply tr =
  let now = now_ns () in
  Span.finish tr.tr_buf tr.tr_recv ~ts:now;
  let apply =
    Span.start ~parent:(Span.context tr.tr_recv) tr.tr_buf ~name:"server.apply" ~ts:now
  in
  tr.tr_apply <- Some apply;
  apply

let admitted = Option.map (fun tr () -> ignore (open_apply tr))

(* Run the submission with the recv span current on the worker, so the
   policy core's on_decision hook can annotate it. *)
let traced_submit tr f =
  match tr with None -> f () | Some tr -> Span.with_current tr.tr_buf tr.tr_recv f

(* Hand a finished response to its connection: close apply, open
   respond (closed by [on_written] when the bytes are out). *)
let send t tr slot (resp : Wire.response) =
  match tr with
  | None -> respond t slot ~on_written:ignore resp
  | Some tr ->
    let apply = match tr.tr_apply with Some a -> a | None -> open_apply tr in
    let buf = tr.tr_buf in
    let now = now_ns () in
    Span.finish buf apply ~ts:now;
    let sp =
      Span.start ~parent:(Span.context apply) buf ~name:"server.respond" ~ts:now
    in
    Span.annotate buf sp ~key:"status" ~value:(status_name resp.Wire.status);
    respond t slot ~on_written:(fun () -> Span.finish buf sp ~ts:(now_ns ())) resp

(* Serve one decoded request on the worker that decoded it. Submission
   never blocks; the response is built and handed to [slot] by whichever
   thread completes the request — usually this worker, inline, before
   the submission returns; otherwise the partition's pin holder, the WAL
   sync domain, or a replication-ack reader releasing a read fence.
   Completions must not block or raise: one that raises kills its
   connection ([abort]) instead of escaping into the completing
   thread. Inflight counts submitted-but-unanswered requests. Each
   mutation bumps [net.routed_w<i>] for the worker its admission chose
   to execute it. *)
let handle t (req : Wire.request) slot =
  Registry.incr t.m.requests_c;
  let start = now_ns () in
  let tr = start_trace t req ~ts:start in
  Atomic.incr t.inflight;
  let reply hist status resp_value =
    try
      let dt = now_ns () -. start in
      Registry.observe hist dt;
      Atomic.decr t.inflight;
      send t tr slot
        { Wire.resp_id = req.Wire.id; status; timing_ns = int_of_float dt; resp_value }
    with _ -> abort t slot
  in
  let stopped hist = reply hist Wire.Err (Bytes.of_string "server shutting down") in
  let admitted = admitted tr in
  let key = req.Wire.key in
  (* Cluster routing happens before any runtime submission: a request
     for a shard this node does not lead is answered WRONG_SHARD with
     the node's current map, and CLUSTER_INFO never touches the store. *)
  let misrouted =
    match (t.cfg.cluster, req.Wire.op) with
    | Some cl, (Wire.Get | Wire.Set | Wire.Delete) -> (
      match cl.cl_check ~key ~write:(req.Wire.op <> Wire.Get) with
      | Ok () -> None
      | Error map -> Some map)
    | _ -> None
  in
  traced_submit tr (fun () ->
      match (misrouted, req.Wire.op) with
      | Some map, _ ->
        Registry.incr t.m.wrong_shard_c;
        reply t.m.get_h Wire.Wrong_shard map
      | None, Wire.Cluster_info -> (
        match t.cfg.cluster with
        | None -> reply t.m.get_h Wire.Err (Bytes.of_string "not a cluster member")
        | Some cl -> (
          match cl.cl_info req.Wire.value with
          | Ok map -> reply t.m.get_h Wire.Cluster_ok map
          | Error e -> reply t.m.get_h Wire.Err (Bytes.of_string e)))
      | None, Wire.Get -> (
        let answer value =
          match value with
          | Some v -> reply t.m.get_h Wire.Ok v
          | None -> reply t.m.get_h Wire.Not_found Bytes.empty
        in
        try
          Runtime.submit_get ?admitted t.runtime ~key (fun value ->
              (* Quorum-read fence: the value just read may include
                 writes applied locally but not yet replicated; in
                 quorum-ack cluster mode the response waits (without
                 blocking anyone) until the key's partition has no
                 unreplicated suffix, so an observed value can never
                 vanish in a failover. *)
              match t.cfg.cluster with
              | None -> answer value
              | Some cl -> (
                try cl.cl_read_fence ~key (fun () -> answer value)
                with _ -> abort t slot))
        with Runtime.Stopped -> stopped t.m.get_h)
      | None, Wire.Set -> (
        match
          Runtime.submit_set ?admitted ?token:req.Wire.token t.runtime ~key
            ~value:req.Wire.value (fun () -> reply t.m.set_h Wire.Ok Bytes.empty)
        with
        | worker -> Registry.incr t.m.routed_c.(worker)
        | exception Runtime.Stopped -> stopped t.m.set_h)
      | None, Wire.Delete -> (
        match
          Runtime.submit_delete ?admitted t.runtime ~key (fun present ->
              reply t.m.delete_h
                (if present then Wire.Ok else Wire.Not_found)
                Bytes.empty)
        with
        | worker -> Registry.incr t.m.routed_c.(worker)
        | exception Runtime.Stopped -> stopped t.m.delete_h))

(* ---------------- read path (owning worker) ---------------- *)

let slow_drop t c =
  Registry.incr t.m.slow_client_drops_c;
  (match t.cfg.spans with
  | Some buf -> Span.event buf ~name:"net.slow_client_drop" ~ts:(now_ns ())
  | None -> ());
  Registry.incr t.m.protocol_errors_c;
  Sync.with_lock c.lock (fun () -> mark_dead c);
  c.eof <- true;
  try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()

(* Number the next arrival and count it pending; -1 at the bound. *)
let reserve t c =
  Sync.with_lock c.lock (fun () ->
      if c.pending >= t.cfg.max_pending then -1
      else begin
        let seq = c.next_seq in
        (* A dead connection stages nothing: keep its ring empty. *)
        if c.dead then c.head_seq <- seq + 1
        else if seq - c.head_seq = Array.length c.ready then grow c;
        c.next_seq <- seq + 1;
        c.pending <- c.pending + 1;
        seq
      end)

(* Decode and serve every complete frame buffered so far. A corrupt or
   undecodable frame is connection-fatal, but responses already owed
   still flush. *)
let process_frames t c =
  let rec go () =
    if not c.eof then
      match Wire.Decoder.next_frame c.decoder with
      | `Awaiting -> ()
      | `Corrupt _ ->
        Registry.incr t.m.protocol_errors_c;
        c.eof <- true
      | `Frame body -> (
        match Wire.decode_request t.wire body with
        | Error _ ->
          Registry.incr t.m.protocol_errors_c;
          c.eof <- true
        | Ok req ->
          let seq = reserve t c in
          if seq < 0 then slow_drop t c
          else begin
            let s = { s_conn = c; s_seq = seq; s_done = false } in
            match handle t req s with
            | () -> go ()
            | exception _ ->
              abort t s;
              c.eof <- true
          end)
  in
  go ()

let read_conn t l c =
  (* Batched reads: drain the socket up to a per-wakeup budget (poll is
     level-triggered, so leftover bytes re-report as readable — the
     budget is fairness across the worker's conns, not a correctness
     bound). *)
  let budget = ref 8 in
  let continue = ref true in
  while !continue && !budget > 0 && not c.eof do
    decr budget;
    match Unix.read c.fd l.scratch 0 (Bytes.length l.scratch) with
    | 0 ->
      c.eof <- true;
      continue := false
    | n ->
      Registry.incr ~by:n t.m.bytes_in_c;
      Wire.Decoder.feed c.decoder l.scratch ~off:0 ~len:n;
      process_frames t c
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (_, _, _) ->
      c.eof <- true;
      Sync.with_lock c.lock (fun () -> mark_dead c);
      continue := false
  done

(* ---------------- one I/O round (owning worker) ---------------- *)

let close_conn t l c =
  Hashtbl.remove l.conns c.id;
  (try Unix.close c.fd with Unix.Unix_error _ -> ());
  if Atomic.fetch_and_add t.active (-1) = 1 then
    Sync.with_lock t.q_lock (fun () -> Condition.broadcast t.q_cond)

let ensure_capacity l n =
  if Array.length l.pfds < n then begin
    let cap = max n (2 * Array.length l.pfds) in
    l.pfds <- Array.make cap l.pfds.(0);
    l.pevents <- Array.make cap 0;
    l.prevents <- Array.make cap 0;
    l.porder <- Array.make cap None
  end

let take_incoming l =
  Sync.with_lock l.l_lock (fun () ->
      let xs = List.rev (Queue.fold (fun acc c -> c :: acc) [] l.incoming) in
      Queue.clear l.incoming;
      xs)

(* Worker [worker]'s I/O round, its [C4_runtime.Server.io] hook: flush
   what completed, poll(2) on [wake] plus the worker's connections,
   read and serve what arrived, flush again, close finished
   connections. Returns whether [wake] was readable. *)
let step t ~worker ~wake =
  let l = t.loops.(worker) in
  List.iter (fun c -> Hashtbl.replace l.conns c.id c) (take_incoming l);
  (* Graceful drain: half-close every receive side once; buffered bytes
     still read out (and decode, and get answered) before EOF shows. *)
  if Atomic.get t.stopping then
    Hashtbl.iter
      (fun _ c ->
        if not c.drained then begin
          c.drained <- true;
          try Unix.shutdown c.fd Unix.SHUTDOWN_RECEIVE
          with Unix.Unix_error _ -> ()
        end)
      l.conns;
  (* Send what completed since the last round, then build the interest
     set: self-pipe + every conn (read unless EOF, write while output is
     still buffered). *)
  let n = 1 + Hashtbl.length l.conns in
  ensure_capacity l n;
  l.pfds.(0) <- wake;
  l.pevents.(0) <- Poll.pollin;
  l.porder.(0) <- None;
  let i = ref 1 in
  Hashtbl.iter
    (fun _ c ->
      let out =
        Sync.with_lock c.lock (fun () ->
            if stage t.wire c then write_out t c;
            (not c.dead) && c.o_start < c.o_end)
      in
      let ev = if c.eof then 0 else Poll.pollin in
      l.pfds.(!i) <- c.fd;
      l.pevents.(!i) <- (if out then ev lor Poll.pollout else ev);
      l.porder.(!i) <- Some c;
      incr i)
    l.conns;
  ignore
    (Poll.poll ~fds:l.pfds ~events:l.pevents ~revents:l.prevents ~n:!i
       ~timeout_ms:250);
  for j = 1 to !i - 1 do
    match l.porder.(j) with
    | None -> ()
    | Some c ->
      let re = l.prevents.(j) in
      if (Poll.readable re || Poll.errored re) && not c.eof then
        read_conn t l c;
      l.porder.(j) <- None
  done;
  (* Flush everything that completed during the poll or was answered
     inline by the reads above — this also serves POLLOUT — and retire
     the connections that are done. *)
  let finished =
    Hashtbl.fold
      (fun _ c acc ->
        let done_ =
          Sync.with_lock c.lock (fun () ->
              ignore (stage t.wire c);
              write_out t c;
              c.eof && c.pending = 0)
        in
        if done_ then c :: acc else acc)
      l.conns []
  in
  List.iter (fun c -> close_conn t l c) finished;
  let re = l.prevents.(0) in
  Poll.readable re || Poll.errored re

(* ---------------- accepting ---------------- *)

(* Connection [id] goes to worker [id mod workers]: set it nonblocking,
   queue it for that worker and wake it. *)
let add t ~id fd =
  Registry.incr t.m.conns_accepted_c;
  Atomic.incr t.active;
  Unix.set_nonblock fd;
  let worker = id mod Array.length t.loops in
  let l = t.loops.(worker) in
  let c =
    {
      id;
      fd;
      worker;
      decoder = Wire.Decoder.create t.wire;
      lock = Mutex.create ();
      ready = Array.make 16 no_response;
      hooks = Array.make 16 no_hook;
      next_seq = 0;
      head_seq = 0;
      obuf = Bytes.create 4096;
      o_start = 0;
      o_end = 0;
      bounds = Queue.create ();
      queued_total = 0;
      flushed_total = 0;
      pending = 0;
      eof = false;
      dead = false;
      drained = false;
    }
  in
  Sync.with_lock l.l_lock (fun () -> Queue.add c l.incoming);
  Runtime.wake t.runtime ~worker

let acceptor_loop t =
  let rec loop id =
    match Unix.accept t.listen_fd with
    | fd, _addr ->
      if Atomic.get t.stopping then
        (try Unix.close fd with Unix.Unix_error _ -> ())
      else begin
        Unix.setsockopt fd Unix.TCP_NODELAY true;
        add t ~id fd;
        loop (id + 1)
      end
    | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL | Unix.ENOTCONN), _, _) ->
      (* Listening socket shut down by [stop]. *)
      ()
    | exception Unix.Unix_error ((Unix.ECONNABORTED | Unix.EINTR), _, _) ->
      if Atomic.get t.stopping then () else loop id
    | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
      (* Out of file descriptors — process- or system-wide. Shed this
         accept and back off briefly instead of dying: the listener
         stays open (pending peers wait in the backlog), existing
         connections keep being served, and the counter makes the
         episode visible to telemetry. *)
      Registry.incr t.m.accept_errors_c;
      if Atomic.get t.stopping then ()
      else begin
        (try Unix.sleepf 0.05
         with Unix.Unix_error (Unix.EINTR, _, _) -> ());
        loop id
      end
  in
  loop 0

(* ---------------- lifecycle ---------------- *)

let start ?registry cfg ~runtime =
  if cfg.backlog < 1 then invalid_arg "Net.Server.start: backlog";
  if cfg.max_pending < 1 then invalid_arg "Net.Server.start: max_pending";
  (* A peer closing mid-write must not kill the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let reg =
    match registry with Some r -> r | None -> Registry.create ~thread_safe:true ()
  in
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
     Unix.bind listen_fd
       (Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, cfg.port));
     Unix.listen listen_fd cfg.backlog
   with e ->
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     raise e);
  let bound_port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> cfg.port
  in
  let n_workers = Runtime.n_workers runtime in
  let active = Atomic.make 0 and inflight = Atomic.make 0 in
  let mk_loop _ =
    {
      l_lock = Mutex.create ();
      incoming = Queue.create ();
      conns = Hashtbl.create 64;
      scratch = Bytes.create 65536;
      pfds = Array.make 16 Unix.stdin;
      pevents = Array.make 16 0;
      prevents = Array.make 16 0;
      porder = Array.make 16 None;
    }
  in
  let t =
    {
      cfg;
      runtime;
      wire = Wire.create ~max_frame:cfg.max_frame ();
      listen_fd;
      bound_port;
      reg;
      m = metrics_of reg ~n_workers ~active ~inflight;
      loops = Array.init n_workers mk_loop;
      acceptor = None;
      active;
      inflight;
      stopping = Atomic.make false;
      q_lock = Mutex.create ();
      q_cond = Condition.create ();
      stopped = false;
    }
  in
  (try Runtime.attach runtime (step t)
   with e ->
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     raise e);
  t.acceptor <- Some (Thread.create acceptor_loop t);
  t

let port t = t.bound_port
let registry t = t.reg

(* The first caller drains; a concurrent caller waits until that drain
   has finished, so every [stop] returns with the server stopped. *)
let stop t =
  if Atomic.exchange t.stopping true then
    Sync.with_lock t.q_lock (fun () ->
        while not t.stopped do
          Condition.wait t.q_cond t.q_lock
        done)
  else
    Fun.protect
      ~finally:(fun () ->
        Sync.with_lock t.q_lock (fun () ->
            t.stopped <- true;
            Condition.broadcast t.q_cond))
      (fun () ->
        (* shutdown(2), not close(2): closing an fd does not wake a
           thread blocked in accept(2); shutting the listener down does
           (the accept fails with EINVAL), and the fd is closed only
           after the acceptor has exited. *)
        (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL
         with Unix.Unix_error _ -> ());
        (match t.acceptor with Some a -> Thread.join a | None -> ());
        t.acceptor <- None;
        (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
        (* Drain every connection: the workers, woken to see [stopping],
           half-close the receive sides, answer everything accepted,
           flush and close; then hand them back their idle loop. *)
        Array.iteri (fun worker _ -> Runtime.wake t.runtime ~worker) t.loops;
        Sync.with_lock t.q_lock (fun () ->
            while Atomic.get t.active > 0 do
              Condition.wait t.q_cond t.q_lock
            done);
        Runtime.detach t.runtime)

type stats = {
  conns_accepted : int;
  conns_active : int;
  requests : int;
  inflight : int;
  bytes_in : int;
  bytes_out : int;
  protocol_errors : int;
  accept_errors : int;
  slow_client_drops : int;
}

let stats t =
  {
    conns_accepted = Registry.counter_value t.m.conns_accepted_c;
    conns_active = Atomic.get t.active;
    requests = Registry.counter_value t.m.requests_c;
    inflight = Atomic.get t.inflight;
    bytes_in = Registry.counter_value t.m.bytes_in_c;
    bytes_out = Registry.counter_value t.m.bytes_out_c;
    protocol_errors = Registry.counter_value t.m.protocol_errors_c;
    accept_errors = Registry.counter_value t.m.accept_errors_c;
    slow_client_drops = Registry.counter_value t.m.slow_client_drops_c;
  }
