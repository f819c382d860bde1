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
  max_frame : int;
  spans : Span.t option;
  cluster : cluster option;
  max_pending : int;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    max_frame = 1 lsl 20;
    spans = None;
    cluster = None;
    max_pending = 1024;
  }

type metrics = {
  conns_accepted_c : Registry.counter;
  protocol_errors_c : Registry.counter;
  wrong_shard_c : Registry.counter;
  get_h : Registry.histogram;
  set_h : Registry.histogram;
  delete_h : Registry.histogram;
  counted : Registry.counter array;  (* what a worker counts per round; see [requests] *)
  accept_errors_c : Registry.counter;  (* EMFILE/ENFILE backoffs survived *)
  slow_client_drops_c : Registry.counter;
}

(* One place in a connection's response order, reused as the ring
   turns. Arrivals in [flush_seq, head_seq) are staged: encoded into the
   output buffer, [e_end] the queued total at their last byte, waiting
   for the flush to pass it. Arrivals in [head_seq, next_seq) wait for
   their response, parked here ([e_ready]) when it completes behind one
   still owed. Each ring position is allocated once, so parking and
   staging a response allocate nothing. *)
type entry = {
  mutable e_ready : bool;
  mutable e_status : Wire.status;
  mutable e_id : int;
  mutable e_timing : int;
  mutable e_value : bytes;
  mutable e_end : int;
  mutable e_hook : unit -> unit;  (* on_written *)
}

(* A connection belongs to one worker, and so does every completion of
   its requests (one finished elsewhere comes home through the worker's
   inbox), so nothing here needs a lock. A response completing at the
   head of the order is encoded straight into [obuf], with the ready
   ones parked behind it, so the head entry is never ready between two
   requests. Each round ends with one coalesced write, which fires each
   response's [on_written] hook as it crosses its end. *)
type conn = {
  id : int;
  fd : Unix.file_descr;
  worker : int;  (* the owning worker *)
  decoder : Wire.Decoder.decoder;
  mutable ring : entry array;  (* arrival [seq] at [seq land (length - 1)] *)
  mutable next_seq : int;  (* arrival number of the next request *)
  mutable head_seq : int;  (* oldest arrival not yet staged *)
  mutable flush_seq : int;  (* oldest staged arrival not yet flushed *)
  mutable obuf : Bytes.t;  (* encoded responses, [o_start, o_end) valid *)
  mutable o_start : int;
  mutable o_end : int;
  mutable queued_total : int;
  mutable flushed_total : int;
  mutable pending : int;  (* accepted, response not yet retired *)
  mutable eof : bool;  (* no further frames will be decoded *)
  mutable dead : bool;  (* peer unwritable (gone, dropped as slow, or aborted) *)
  mutable drained : bool;  (* receive side already shut down *)
}

(* One accepted request's place in its connection's response order. *)
type slot = { s_conn : conn; s_seq : int; mutable s_done : bool }

(* One worker's connection set, and the metrics it has not published
   yet: counts parallel to [metrics.counted], and service times. *)
type loop = {
  l_lock : Mutex.t;  (* guards [incoming] *)
  incoming : conn Queue.t;  (* accepted, not yet taken by the worker *)
  conns : (int, conn) Hashtbl.t;
  scratch : Bytes.t;  (* per-worker read buffer, shared by its conns *)
  view : Wire.view;  (* the request being served, decoded in place *)
  hl : int;  (* a response header's length *)
  (* The GET being served inline: [read_value]'s view of it. *)
  mutable g_conn : conn;
  mutable g_direct : bool;  (* the value was copied to [obuf] past [o_end] *)
  mutable g_copy : bytes;  (* otherwise, the value's private copy; else empty *)
  (* The batch [process_frames] is serving: the frames delimited in a
     connection's decoder buffer, at most [batch_bound], and the keys
     of those the store is hinted at. *)
  b_off : int array;
  b_len : int array;
  b_keys : int array;
  mutable b_last : Wire.Decoder.frame;  (* why delimiting stopped; [Frame]: the batch is full *)
  mutable pfds : Unix.file_descr array;
  mutable pevents : int array;
  mutable prevents : int array;
  mutable porder : conn option array;
  mutable on : C4_runtime.Server.worker option;  (* this loop's worker, from its round *)
  mutable clock : int;  (* [Poll.now_ns] at the last request's end: the next one's start *)
  mutable inflight : int;  (* submitted, not yet answered; sampled racily *)
  counts : int array;
  get_s : Registry.buffer;
  set_s : Registry.buffer;
  delete_s : Registry.buffer;
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
  stopping : bool Atomic.t;
  q_lock : Mutex.t;  (* with q_cond: [active] reaching zero, [stopped] *)
  q_cond : Condition.t;
  mutable stopped : bool;  (* under q_lock: the drain has finished *)
}

(* Span timestamps; service times read [Poll.now_ns]. *)
let now_ns () = Unix.gettimeofday () *. 1e9

let metrics_of reg ~n_workers =
  let counter = Registry.counter reg in
  {
    conns_accepted_c = counter "net.conns_accepted";
    protocol_errors_c = counter "net.protocol_errors";
    wrong_shard_c = counter "net.wrong_shard";
    get_h = Registry.histogram reg "net.get_ns";
    set_h = Registry.histogram reg "net.set_ns";
    delete_h = Registry.histogram reg "net.delete_ns";
    (* [net.routed_w<i>] is registered eagerly for every worker the
       runtime was started with: a telemetry scrape sees all owners at
       zero from the first request, and a routed count can only ever
       land on a real worker id. *)
    counted =
      Array.append
        (Array.map counter [| "net.requests"; "net.bytes_in"; "net.bytes_out" |])
        (Array.init n_workers (fun w -> counter (Printf.sprintf "net.routed_w%d" w)));
    accept_errors_c = counter "net.accept_errors";
    slow_client_drops_c = counter "net.slow_client_drops";
  }

(* ---------------- per-round metrics ---------------- *)

(* Indices into [loop.counts] and [metrics.counted]; [routed + w] counts
   the writes routed to worker [w]. *)
let requests = 0
let bytes_in = 1
let bytes_out = 2
let routed = 3
let add l i n = l.counts.(i) <- l.counts.(i) + n

(* What the worker counted since its last flush, before the next one:
   a request's counts are in the registry by the time its response can
   be read. *)
let publish t l =
  for i = 0 to Array.length l.counts - 1 do
    if l.counts.(i) > 0 then Registry.incr ~by:l.counts.(i) t.m.counted.(i);
    l.counts.(i) <- 0
  done;
  Registry.flush l.get_s;
  Registry.flush l.set_s;
  Registry.flush l.delete_s

(* ---------------- reorder ring and output buffer ---------------- *)

let no_hook () = ()

let new_entry _ =
  {
    e_ready = false;
    e_status = Wire.Ok;
    e_id = 0;
    e_timing = 0;
    e_value = Bytes.empty;
    e_end = 0;
    e_hook = no_hook;
  }

let new_conn wire ~id fd ~worker =
  {
    id;
    fd;
    worker;
    decoder = Wire.Decoder.create wire;
    ring = Array.init 16 new_entry;
    next_seq = 0;
    head_seq = 0;
    flush_seq = 0;
    obuf = Bytes.create 4096;
    o_start = 0;
    o_end = 0;
    queued_total = 0;
    flushed_total = 0;
    pending = 0;
    eof = false;
    dead = false;
    drained = false;
  }

(* Double the ring, keeping every arrival not yet flushed at its index
   under the new mask. *)
let grow c =
  let cap = Array.length c.ring in
  let ring = Array.init (2 * cap) new_entry in
  for seq = c.flush_seq to c.next_seq - 1 do
    ring.(seq land ((2 * cap) - 1)) <- c.ring.(seq land (cap - 1))
  done;
  c.ring <- ring

let entry c seq = c.ring.(seq land (Array.length c.ring - 1))

(* Room for [n] more bytes at [o_end]. *)
let ensure_out c n =
  let len = c.o_end - c.o_start in
  let cap = Bytes.length c.obuf in
  if c.o_end + n > cap then begin
    if len + n <= cap then Bytes.blit c.obuf c.o_start c.obuf 0 len
    else begin
      let nb = Bytes.create (Int.max (cap * 2) (len + n)) in
      Bytes.blit c.obuf c.o_start nb 0 len;
      c.obuf <- nb
    end;
    c.o_start <- 0;
    c.o_end <- len
  end

(* The [n] bytes at [o_end] are arrival [head_seq]'s whole response;
   stage it. Most responses have no hook: storing the one already there
   would only cost a write barrier. *)
let staged c n ~on_written =
  c.o_end <- c.o_end + n;
  c.queued_total <- c.queued_total + n;
  let e = entry c c.head_seq in
  e.e_end <- c.queued_total;
  if e.e_hook != on_written then e.e_hook <- on_written;
  c.head_seq <- c.head_seq + 1

(* Encode arrival [head_seq]'s response into the output buffer. *)
let encode wire c ~id ~status ~timing_ns value ~on_written =
  let hl = Wire.response_header_len wire and n = Bytes.length value in
  ensure_out c (hl + n);
  Wire.write_response_header wire c.obuf ~off:c.o_end ~id ~status ~timing_ns ~value_len:n;
  Bytes.blit value 0 c.obuf (c.o_end + hl) n;
  staged c (hl + n) ~on_written

(* Encode the contiguous ready prefix of parked responses. *)
let stage wire c =
  while (not c.dead) && c.head_seq < c.next_seq && (entry c c.head_seq).e_ready do
    let e = entry c c.head_seq in
    let value = e.e_value in
    e.e_ready <- false;
    e.e_value <- Bytes.empty;
    encode wire c ~id:e.e_id ~status:e.e_status ~timing_ns:e.e_timing value ~on_written:e.e_hook
  done

(* Retire arrival [seq]'s entry: its lifecycle is over, bytes sent or
   not. Only a parked entry still holds a value. *)
let retire c e =
  let on_written = e.e_hook in
  if e.e_ready then begin
    e.e_ready <- false;
    e.e_value <- Bytes.empty
  end;
  if on_written != no_hook then e.e_hook <- no_hook;
  c.pending <- c.pending - 1;
  on_written ()

(* Fire on_written for every staged response the flush cursor has
   passed, in wire order. *)
let retire_flushed c =
  while c.flush_seq < c.head_seq && (entry c c.flush_seq).e_end <= c.flushed_total do
    let e = entry c c.flush_seq in
    c.flush_seq <- c.flush_seq + 1;
    retire c e
  done

(* Peer unwritable: abandon buffered output, but retire every owed
   response that is already here — staged or parked — through its hook:
   a response's lifecycle ends (and its respond span closes) whether or
   not the ack could be delivered. Responses still being computed
   retire when they arrive (see [respond]). *)
let mark_dead c =
  if not c.dead then begin
    c.dead <- true;
    for seq = c.flush_seq to c.next_seq - 1 do
      let e = entry c seq in
      if seq < c.head_seq || e.e_ready then retire c e
    done;
    c.head_seq <- c.next_seq;
    c.flush_seq <- c.next_seq
  end

(* One coalesced write: everything buffered goes out in a single
   write(2); a partial write leaves the tail for the next POLLOUT. *)
let rec write_out l c =
  if (not c.dead) && c.o_start < c.o_end then
    match Unix.write c.fd c.obuf c.o_start (c.o_end - c.o_start) with
    | n ->
      c.o_start <- c.o_start + n;
      c.flushed_total <- c.flushed_total + n;
      add l bytes_out n;
      retire_flushed c;
      if c.o_start = c.o_end then begin
        c.o_start <- 0;
        c.o_end <- 0
      end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_out l c
    | exception Unix.Unix_error (_, _, _) ->
      mark_dead c;
      c.eof <- true

(* ---------------- completion side (the owning worker) ---------------- *)

(* Stage the response to [s]: encoded at once if it heads the order,
   with the ready responses parked behind it, else parked. [on_written]
   runs exactly once: after the response's last byte reaches the socket,
   or at once if the connection is already dead or the slot was
   aborted. *)
let respond t s ~on_written ~id ~status ~timing_ns value =
  let c = s.s_conn in
  if s.s_done then on_written ()
  else begin
    s.s_done <- true;
    if c.dead then begin
      c.pending <- c.pending - 1;
      on_written ()
    end
    else if c.head_seq = s.s_seq then begin
      encode t.wire c ~id ~status ~timing_ns value ~on_written;
      stage t.wire c
    end
    else begin
      let e = entry c s.s_seq in
      e.e_status <- status;
      e.e_id <- id;
      e.e_timing <- timing_ns;
      e.e_value <- value;
      e.e_hook <- on_written;
      e.e_ready <- true
    end
  end

(* Kill [c]: abandon its output, count a protocol error, and shut the
   socket down, which the worker's poll then sees hang up. *)
let kill t c =
  mark_dead c;
  Registry.incr t.m.protocol_errors_c;
  try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()

(* The response to [s] cannot be produced (its completion raised):
   retire the slot and kill the connection. A later [respond] on the
   slot only runs its hook. *)
let abort t s =
  if not s.s_done then begin
    s.s_done <- true;
    s.s_conn.pending <- s.s_conn.pending - 1;
    kill t s.s_conn
  end

(* ---------------- serving one request ---------------- *)

(* Per-request server spans, built only when the server has a span
   buffer AND the request carried a trace context to adopt:

     server.recv    decode + crew admission, child of the client's
                    in-band context; admission decisions the policy
                    core emits on this worker land here as annotations
                    via [Span.with_current]
     server.apply   admitted to completed (queueing + store apply,
                    compaction windows, WAL and cluster fences included)
     server.respond response staged and written, closed by the
                    connection's [on_written] hook

   Each parents on the previous, so the client's dispatch span and
   these three form one chain walkable from either end. The runtime
   calls [admitted] before the op can run anywhere, so a completion
   finds the apply span open; a request answered without the runtime
   opens it at its reply. *)
type req_trace = {
  tr_buf : Span.t;
  tr_recv : Span.span;
  mutable tr_apply : Span.span option;  (* set before any completion can run *)
}

let start_trace t (v : Wire.view) =
  match t.cfg.spans with
  | Some buf when Wire.has_trace v ->
    let parent = { Span.trace_id = v.Wire.v_trace_id; span_id = v.Wire.v_parent_span } in
    let recv = Span.start ~parent buf ~name:"server.recv" ~ts:(now_ns ()) in
    Span.annotate buf recv ~key:"op" ~value:(Wire.op_name v.Wire.v_op);
    Span.annotate buf recv ~key:"key" ~value:(string_of_int v.Wire.v_key);
    Span.annotate buf recv ~key:"req_id" ~value:(string_of_int v.Wire.v_id);
    Some { tr_buf = buf; tr_recv = recv; tr_apply = None }
  | Some _ | None -> None

let open_apply tr =
  let now = now_ns () in
  Span.finish tr.tr_buf tr.tr_recv ~ts:now;
  let apply =
    Span.start ~parent:(Span.context tr.tr_recv) tr.tr_buf ~name:"server.apply" ~ts:now
  in
  tr.tr_apply <- Some apply;
  apply

let admitted = function None -> None | Some tr -> Some (fun () -> ignore (open_apply tr))

(* Run the submission with the recv span current on the worker, so the
   policy core's on_decision hook can annotate it. *)
let traced_submit tr f =
  match tr with None -> f () | Some tr -> Span.with_current tr.tr_buf tr.tr_recv f

(* A finished response is on its way: close apply, open respond, and
   return the hook that closes it once the bytes are out. *)
let on_written_of tr status =
  match tr with
  | None -> no_hook
  | Some tr ->
    let apply = match tr.tr_apply with Some a -> a | None -> open_apply tr in
    let buf = tr.tr_buf in
    let now = now_ns () in
    Span.finish buf apply ~ts:now;
    let sp = Span.start ~parent:(Span.context apply) buf ~name:"server.respond" ~ts:now in
    Span.annotate buf sp ~key:"status" ~value:(Wire.status_name status);
    fun () -> Span.finish buf sp ~ts:(now_ns ())

let shutting_down = Bytes.of_string "server shutting down"

(* The request's service time ends now, and the worker's next request
   starts: one clock read serves both. *)
let lap l ~start =
  let now = Poll.now_ns () in
  l.clock <- now;
  now - start

(* The response to [s], on the connection's worker: record its service
   time, and stage it. One that raises kills its connection ([abort]). *)
let reply t s ~id ~hist ~start ~tr status value =
  try
    let l = t.loops.(s.s_conn.worker) in
    let dt = lap l ~start in
    Registry.buffered hist dt;
    l.inflight <- l.inflight - 1;
    respond t s ~on_written:(on_written_of tr status) ~id ~status ~timing_ns:dt value
  with _ -> abort t s

(* ---------------- read path ---------------- *)

let slow_drop t c =
  Registry.incr t.m.slow_client_drops_c;
  (match t.cfg.spans with
  | Some buf -> Span.event buf ~name:"net.slow_client_drop" ~ts:(now_ns ())
  | None -> ());
  c.eof <- true;
  kill t c

(* Number the next arrival and count it pending; -1 at the bound. *)
let next_arrival ~max_pending c =
  if c.pending >= max_pending then -1
  else begin
    let seq = c.next_seq in
    (* A dead connection stages nothing: keep its ring empty. *)
    if c.dead then begin
      c.head_seq <- seq + 1;
      c.flush_seq <- seq + 1
    end
    else if seq - c.flush_seq = Array.length c.ring then grow c;
    c.next_seq <- seq + 1;
    c.pending <- c.pending + 1;
    seq
  end

(* A slot for the next arrival; [None] drops a slow client. *)
let reserve t c =
  let seq = next_arrival ~max_pending:t.cfg.max_pending c in
  if seq < 0 then begin
    slow_drop t c;
    None
  end
  else Some { s_conn = c; s_seq = seq; s_done = false }

(* [Store.read_into]'s copy step for a GET, run on each read attempt
   with the slot's live buffer: at the head of its connection's order,
   into the output buffer after room for the header [serve_get] writes
   once the read has validated; else into a private copy to park. *)
let read_value v l =
  let c = l.g_conn in
  let n = Bytes.length v in
  if (not c.dead) && c.head_seq = c.next_seq then begin
    ensure_out c (l.hl + n);
    Bytes.blit v 0 c.obuf (c.o_end + l.hl) n;
    l.g_direct <- true
  end
  else begin
    l.g_copy <- Bytes.copy v;
    l.g_direct <- false
  end;
  n

(* A GET that went straight into the output buffer, or found nothing
   while heading the order, takes the next arrival number and is staged
   on the spot, its header written in front of the value (first, so a
   header that cannot be encoded reserves nothing). Else the arrival
   number to park its response at; [-1] at the pending bound, [-2] once
   staged. *)
let commit_get t l ~id ~status ~timing_ns ~value_len ~on_written =
  let c = l.g_conn in
  let at_head = (not c.dead) && c.head_seq = c.next_seq && (l.g_direct || value_len = 0) in
  if at_head then begin
    if not l.g_direct then ensure_out c l.hl;
    Wire.write_response_header t.wire c.obuf ~off:c.o_end ~id ~status ~timing_ns ~value_len
  end;
  let seq = next_arrival ~max_pending:t.cfg.max_pending c in
  if seq >= 0 && at_head then begin
    staged c (l.hl + value_len) ~on_written;
    -2
  end
  else seq

(* A GET without a read fence (not a cluster member's) runs inline on
   this worker. Its value is copied once, from the store slot into the
   connection's output buffer inside the seqlock read (a failed attempt
   redoes the copy at the same offset), when it heads the connection's
   order; behind a response still owed it parks a private copy. *)
let serve_get t l c (v : Wire.view) ~start ~tr =
  if l.g_conn != c then l.g_conn <- c;
  l.g_direct <- false;
  let key = v.Wire.v_key and id = v.Wire.v_id in
  match
    match tr with
    | None -> Runtime.read_into t.runtime (Option.get l.on) ~key read_value l
    | Some _ ->
      traced_submit tr (fun () ->
          Runtime.read_into ?admitted:(admitted tr) t.runtime (Option.get l.on) ~key read_value l)
  with
  | exception Runtime.Stopped -> (
    match reserve t c with
    | Some s ->
      l.inflight <- l.inflight + 1;
      reply t s ~id ~hist:l.get_s ~start ~tr Wire.Err shutting_down
    | None -> ())
  | n ->
    let status = if n < 0 then Wire.Not_found else Wire.Ok in
    let copy = l.g_copy and direct = l.g_direct in
    if copy != Bytes.empty then l.g_copy <- Bytes.empty;
    let timing_ns = lap l ~start in
    Registry.buffered l.get_s timing_ns;
    let on_written = on_written_of tr status in
    let r = commit_get t l ~id ~status ~timing_ns ~value_len:(Int.max n 0) ~on_written in
    if r = -1 then begin
      on_written ();
      slow_drop t c
    end
    else if r >= 0 then begin
      let s = { s_conn = c; s_seq = r; s_done = false } in
      (* A direct copy is always committed unless the connection died
         since [read_value], and a dead connection's response is only
         retired. *)
      if direct && not c.dead then abort t s
      else respond t s ~on_written ~id ~status ~timing_ns copy
    end

(* Submit a request other than an unfenced GET; its completion stages
   the response to [s]. *)
let submit t l s (v : Wire.view) ~misrouted ~start ~tr =
  let admitted = admitted tr and key = v.Wire.v_key and id = v.Wire.v_id in
  match (misrouted, v.Wire.v_op) with
  | Some map, _ ->
    Registry.incr t.m.wrong_shard_c;
    reply t s ~id ~hist:l.get_s ~start ~tr Wire.Wrong_shard map
  | None, Wire.Cluster_info -> (
    let reply = reply t s ~id ~hist:l.get_s ~start ~tr in
    match t.cfg.cluster with
    | None -> reply Wire.Err (Bytes.of_string "not a cluster member")
    | Some cl -> (
      match cl.cl_info (Bytes.sub v.Wire.v_buf v.Wire.v_off v.Wire.v_len) with
      | Ok map -> reply Wire.Cluster_ok map
      | Error e -> reply Wire.Err (Bytes.of_string e)))
  | None, Wire.Get -> (
    (* A cluster member's GET: quorum-read fence. The value just read
       may include writes applied locally but not yet replicated; in
       quorum-ack cluster mode the response waits (without blocking
       anyone) until the key's partition has no unreplicated suffix, so
       an observed value can never vanish in a failover. A fence
       released on another thread sends the answer home. *)
    match
      Runtime.submit_get ?admitted ?on:l.on t.runtime ~key (fun value ->
          let status, value =
            match value with Some v -> (Wire.Ok, v) | None -> (Wire.Not_found, Bytes.empty)
          in
          let answer () = reply t s ~id ~hist:l.get_s ~start ~tr status value in
          match t.cfg.cluster with
          | None -> answer ()
          | Some cl -> (
            try cl.cl_read_fence ~key (fun () -> Runtime.run_on t.runtime ~worker:s.s_conn.worker answer)
            with _ -> abort t s))
    with
    | () -> ()
    | exception Runtime.Stopped -> reply t s ~id ~hist:l.get_s ~start ~tr Wire.Err shutting_down)
  | None, Wire.Set -> (
    let token = if Wire.has_token v then Some v.Wire.v_token else None in
    match
      Runtime.submit_set ?admitted ?token ?on:l.on t.runtime ~key ~value:v.Wire.v_buf
        ~off:v.Wire.v_off ~len:v.Wire.v_len (fun () ->
          reply t s ~id ~hist:l.set_s ~start ~tr Wire.Ok Bytes.empty)
    with
    | worker -> add l (routed + worker) 1
    | exception Runtime.Stopped -> reply t s ~id ~hist:l.set_s ~start ~tr Wire.Err shutting_down)
  | None, Wire.Delete -> (
    match
      Runtime.submit_delete ?admitted ?on:l.on t.runtime ~key (fun present ->
          reply t s ~id ~hist:l.delete_s ~start ~tr
            (if present then Wire.Ok else Wire.Not_found)
            Bytes.empty)
    with
    | worker -> add l (routed + worker) 1
    | exception Runtime.Stopped ->
      reply t s ~id ~hist:l.delete_s ~start ~tr Wire.Err shutting_down)

(* Serve one decoded request on the worker that decoded it. Submission
   never blocks; the request's completion stages the response — inline,
   or once it comes home from the pin holder, the WAL sync domain or a
   replication-ack reader. Each mutation counts toward
   [net.routed_w<i>] for the worker its admission chose to execute it.
   A SET's value is the view's slice of the decoder buffer: the runtime
   copies it only if the write leaves this worker. An exception escaping
   here is connection-fatal. *)
let handle t l c (v : Wire.view) =
  add l requests 1;
  let start = l.clock in
  match (t.cfg.cluster, v.Wire.v_op) with
  | None, Wire.Get -> serve_get t l c v ~start ~tr:(start_trace t v)
  | cluster, op -> (
    (* Cluster routing precedes any submission: a request for a shard
       this node does not lead is answered WRONG_SHARD with the node's
       current map; CLUSTER_INFO never touches the store. *)
    let misrouted =
      match (cluster, op) with
      | Some cl, (Wire.Get | Wire.Set | Wire.Delete) -> (
        match cl.cl_check ~key:v.Wire.v_key ~write:(op <> Wire.Get) with
        | Ok () -> None
        | Error map -> Some map)
      | _ -> None
    in
    match reserve t c with
    | None -> ()
    | Some s ->
      let tr = start_trace t v in
      l.inflight <- l.inflight + 1;
      (try
         match tr with
         | None -> submit t l s v ~misrouted ~start ~tr
         | Some _ -> traced_submit tr (fun () -> submit t l s v ~misrouted ~start ~tr)
       with e ->
         abort t s;
         raise e);
      (* Completing elsewhere: the next request starts now. *)
      if not s.s_done then l.clock <- Poll.now_ns ())

(* Frames delimited, prefetched and served together: a loaded servbench
   connection keeps 32 requests outstanding. *)
let batch_bound = 32

(* Delimit up to [batch_bound] complete frames in [d]'s buffer. Only
   [feed] moves those bytes, so each body stays where it was delimited
   until the batch is served. *)
let delimit l d =
  let n = ref 0 and last = ref Wire.Decoder.Frame in
  while !n < batch_bound && !last == Wire.Decoder.Frame do
    last := Wire.Decoder.next d;
    if !last == Wire.Decoder.Frame then begin
      l.b_off.(!n) <- Wire.Decoder.body_off d;
      l.b_len.(!n) <- Wire.Decoder.body_len d;
      incr n
    end
  done;
  l.b_last <- !last;
  !n

(* Hint the store at the keys of frames [1, n), the first being served
   at once: every slot first, then every value block, so the second
   pass probes slots the first has loaded and the misses of the batch
   overlap. *)
let prefetch t l buf n =
  let m = ref 0 in
  for i = 1 to n - 1 do
    let off = l.b_off.(i) in
    if Wire.store_op t.wire buf ~off ~len:l.b_len.(i) then begin
      let key = Wire.body_key t.wire buf ~off in
      Runtime.prefetch_slot t.runtime ~key;
      l.b_keys.(!m) <- key;
      incr m
    end
  done;
  for j = 0 to !m - 1 do
    Runtime.prefetch_value t.runtime ~key:l.b_keys.(j)
  done

(* Decode and serve frames [0, n) in order, each in place into the
   worker's view. An undecodable frame is connection-fatal: nothing
   after it is served, but responses already owed still flush. *)
let serve_batch t l c buf n =
  let i = ref 0 in
  while !i < n && not c.eof do
    (match Wire.decode_into t.wire l.view buf ~off:l.b_off.(!i) ~len:l.b_len.(!i) with
    | Error _ ->
      Registry.incr t.m.protocol_errors_c;
      c.eof <- true
    | Ok () -> ( try handle t l c l.view with _ -> c.eof <- true));
    incr i
  done


(* Serve every complete frame buffered so far, a batch at a time:
   delimit, prefetch, serve. A batch's first request starts once its
   prefetch is issued. A corrupt stream is connection-fatal once the
   frames ahead of the corruption are served. *)
let process_frames t l c =
  let d = c.decoder in
  let continue = ref true in
  while !continue && not c.eof do
    let n = delimit l d in
    let buf = Wire.Decoder.buffer d in
    if n > 1 then prefetch t l buf n;
    l.clock <- Poll.now_ns ();
    serve_batch t l c buf n;
    match l.b_last with
    | Wire.Decoder.Frame -> ()
    | Wire.Decoder.Awaiting -> continue := false
    | Wire.Decoder.Corrupt ->
      if not c.eof then begin
        Registry.incr t.m.protocol_errors_c;
        c.eof <- true
      end
  done

let read_conn t l c =
  (* Batched reads: drain the socket up to a per-wakeup budget, and
     stop at the first short read, which emptied it. Poll is
     level-triggered, so bytes left or arriving later re-report as
     readable: the budget is fairness across the worker's conns, not a
     correctness bound. *)
  let budget = ref 8 in
  let continue = ref true in
  while !continue && !budget > 0 && not c.eof do
    decr budget;
    match Unix.read c.fd l.scratch 0 (Bytes.length l.scratch) with
    | 0 ->
      c.eof <- true;
      continue := false
    | n ->
      add l bytes_in n;
      Wire.Decoder.feed c.decoder l.scratch ~off:0 ~len:n;
      process_frames t l c;
      if n < Bytes.length l.scratch then continue := false
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (_, _, _) ->
      c.eof <- true;
      mark_dead c;
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
    let cap = Int.max n (2 * Array.length l.pfds) in
    l.pfds <- Array.make cap l.pfds.(0);
    l.pevents <- Array.make cap 0;
    l.prevents <- Array.make cap 0;
    l.porder <- Array.make cap None
  end

let take_incoming l =
  let q = Queue.create () in
  Sync.with_lock l.l_lock (fun () -> Queue.transfer l.incoming q);
  q

(* A worker's I/O round, its [C4_runtime.Server.io] hook: flush what
   completed, poll(2) on [wake] plus the worker's connections, read and
   serve what arrived, flush again, close finished connections. Each
   flush first publishes what the worker counted, so a request is in
   the metrics before its response can be read. Returns whether [wake]
   was readable. *)
let step t w ~wake =
  let l = t.loops.(Runtime.worker_id w) in
  (match l.on with Some w' when w' == w -> () | Some _ | None -> l.on <- Some w);
  Queue.iter (fun c -> Hashtbl.replace l.conns c.id c) (take_incoming l);
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
  publish t l;
  let n = 1 + Hashtbl.length l.conns in
  ensure_capacity l n;
  l.pfds.(0) <- wake;
  l.pevents.(0) <- Poll.pollin;
  l.porder.(0) <- None;
  let i = ref 1 in
  Hashtbl.iter
    (fun _ c ->
      write_out l c;
      let ev = if c.eof then 0 else Poll.pollin in
      l.pfds.(!i) <- c.fd;
      l.pevents.(!i) <-
        (if (not c.dead) && c.o_start < c.o_end then ev lor Poll.pollout else ev);
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
      if (Poll.readable re || Poll.errored re) && not c.eof then read_conn t l c;
      l.porder.(j) <- None
  done;
  (* Flush what the reads above answered — this also serves POLLOUT —
     and retire the connections that are done. *)
  publish t l;
  let finished =
    Hashtbl.fold
      (fun _ c acc ->
        write_out l c;
        if c.eof && c.pending = 0 then c :: acc else acc)
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
  let c = new_conn t.wire ~id fd ~worker in
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

(* Each worker's count, read racily. *)
let inflight loops = Array.fold_left (fun n l -> n + l.inflight) 0 loops

(* Linux clamps this to net.core.somaxconn. A shallow queue overflows
   under a burst of connects, and each dropped handshake then waits out
   a 1 s SYN-ACK retransmit. *)
let listen_backlog = 4096

let start ?registry cfg ~runtime =
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
     Unix.listen listen_fd listen_backlog
   with e ->
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     raise e);
  let bound_port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> cfg.port
  in
  let n_workers = Runtime.n_workers runtime in
  let active = Atomic.make 0 in
  let wire = Wire.create ~max_frame:cfg.max_frame () in
  let m = metrics_of reg ~n_workers in
  let mk_loop _ =
    {
      l_lock = Mutex.create ();
      incoming = Queue.create ();
      conns = Hashtbl.create 64;
      scratch = Bytes.create 65536;
      view = Wire.view ();
      hl = Wire.response_header_len wire;
      g_conn = new_conn wire ~id:(-1) Unix.stdin ~worker:(-1);
      g_direct = false;
      g_copy = Bytes.empty;
      b_off = Array.make batch_bound 0;
      b_len = Array.make batch_bound 0;
      b_keys = Array.make batch_bound 0;
      b_last = Wire.Decoder.Awaiting;
      pfds = Array.make 16 Unix.stdin;
      pevents = Array.make 16 0;
      prevents = Array.make 16 0;
      porder = Array.make 16 None;
      on = None;
      clock = 0;
      inflight = 0;
      counts = Array.make (routed + n_workers) 0;
      get_s = Registry.buffer m.get_h;
      set_s = Registry.buffer m.set_h;
      delete_s = Registry.buffer m.delete_h;
    }
  in
  let loops = Array.init n_workers mk_loop in
  (* Sampled at scrape time: no request writes a gauge. *)
  Registry.sampled_gauge reg "net.conns_active" (fun () -> float_of_int (Atomic.get active));
  Registry.sampled_gauge reg "net.inflight" (fun () -> float_of_int (inflight loops));
  let t =
    {
      cfg;
      runtime;
      wire;
      listen_fd;
      bound_port;
      reg;
      m;
      loops;
      acceptor = None;
      active;
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
    requests = Registry.counter_value t.m.counted.(requests);
    inflight = inflight t.loops;
    bytes_in = Registry.counter_value t.m.counted.(bytes_in);
    bytes_out = Registry.counter_value t.m.counted.(bytes_out);
    protocol_errors = Registry.counter_value t.m.protocol_errors_c;
    accept_errors = Registry.counter_value t.m.accept_errors_c;
    slow_client_drops = Registry.counter_value t.m.slow_client_drops_c;
  }
