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

type t = {
  cfg : config;
  runtime : Runtime.t;
  listen_fd : Unix.file_descr;
  bound_port : int;
  reg : Registry.t;
  m : metrics;
  ev : Evloop.t;
  mutable acceptor : Thread.t option;
  active : int Atomic.t;  (* open connections *)
  inflight : int Atomic.t;
  stopping : bool Atomic.t;
  stop_lock : Mutex.t;
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
let send tr slot (resp : Wire.response) =
  match tr with
  | None -> Evloop.respond slot ~on_written:ignore resp
  | Some tr ->
    let apply = match tr.tr_apply with Some a -> a | None -> open_apply tr in
    let buf = tr.tr_buf in
    let now = now_ns () in
    Span.finish buf apply ~ts:now;
    let sp =
      Span.start ~parent:(Span.context apply) buf ~name:"server.respond" ~ts:now
    in
    Span.annotate buf sp ~key:"status" ~value:(status_name resp.Wire.status);
    Evloop.respond slot ~on_written:(fun () -> Span.finish buf sp ~ts:(now_ns ())) resp

(* Serve one decoded request on the worker that decoded it. Submission
   never blocks; the response is built and handed to [slot] by whichever
   thread completes the request — usually this worker, inline, before
   the submission returns; otherwise the partition's pin holder, the WAL
   sync domain, or a replication-ack reader releasing a read fence.
   Completions must not block or raise: one that raises kills its
   connection ([Evloop.abort]) instead of escaping into the completing
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
      send tr slot
        { Wire.resp_id = req.Wire.id; status; timing_ns = int_of_float dt; resp_value }
    with _ -> Evloop.abort slot
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
                with _ -> Evloop.abort slot))
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

let callbacks t =
  {
    Evloop.handle = handle t;
    on_bytes_in = (fun n -> Registry.incr ~by:n t.m.bytes_in_c);
    on_bytes_out = (fun n -> Registry.incr ~by:n t.m.bytes_out_c);
    on_protocol_error = (fun _msg -> Registry.incr t.m.protocol_errors_c);
    on_closed = (fun () -> Atomic.decr t.active);
  }

let spawn_conn t cb fd =
  Registry.incr t.m.conns_accepted_c;
  Atomic.incr t.active;
  Evloop.add t.ev ~fd cb

let acceptor_loop t cb () =
  let rec loop () =
    match Unix.accept t.listen_fd with
    | fd, _addr ->
      if Atomic.get t.stopping then
        (try Unix.close fd with Unix.Unix_error _ -> ())
      else begin
        Unix.setsockopt fd Unix.TCP_NODELAY true;
        spawn_conn t cb fd;
        loop ()
      end
    | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL | Unix.ENOTCONN), _, _) ->
      (* Listening socket shut down by [stop]. *)
      ()
    | exception Unix.Unix_error ((Unix.ECONNABORTED | Unix.EINTR), _, _) ->
      if Atomic.get t.stopping then () else loop ()
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
        loop ()
      end
  in
  loop ()

let start ?registry cfg ~runtime =
  if cfg.backlog < 1 then invalid_arg "Net.Server.start: backlog";
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
  let active = Atomic.make 0 and inflight = Atomic.make 0 in
  let m = metrics_of reg ~n_workers:(Runtime.n_workers runtime) ~active ~inflight in
  let on_slow_drop () =
    Registry.incr m.slow_client_drops_c;
    match cfg.spans with
    | Some buf -> Span.event buf ~name:"net.slow_client_drop" ~ts:(now_ns ())
    | None -> ()
  in
  let t =
    {
      cfg;
      runtime;
      listen_fd;
      bound_port;
      reg;
      m;
      ev =
        Evloop.create
          ~wire:(Wire.create ~max_frame:cfg.max_frame ())
          ~loops:(Runtime.n_workers runtime) ~max_pending:cfg.max_pending
          ~on_slow_drop
          ~wake:(fun worker -> Runtime.wake runtime ~worker)
          ();
      acceptor = None;
      active;
      inflight;
      stopping = Atomic.make false;
      stop_lock = Mutex.create ();
    }
  in
  (try Runtime.attach runtime (Evloop.step t.ev)
   with e ->
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     raise e);
  let cb = callbacks t in
  t.acceptor <- Some (Thread.create (fun () -> acceptor_loop t cb ()) ());
  t

let port t = t.bound_port
let registry t = t.reg

let stop t =
  Sync.with_lock t.stop_lock (fun () ->
      if not (Atomic.exchange t.stopping true) then begin
        (* shutdown(2), not close(2): closing an fd does not wake a
           thread blocked in accept(2); shutting the listener down does
           (the accept fails with EINVAL), and the fd is closed only
           after the acceptor has exited. *)
        (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL
         with Unix.Unix_error _ -> ());
        (match t.acceptor with Some a -> Thread.join a | None -> ());
        t.acceptor <- None;
        (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
        (* Drain every connection: half-close the receive sides, answer
           everything accepted, flush, close; then hand the workers
           back their idle loop. *)
        Evloop.stop t.ev;
        Runtime.detach t.runtime
      end)

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
