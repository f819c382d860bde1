module Sync = C4_runtime.Sync

(* The connection side of the runtime's worker loops (see evloop.mli).
   Each loop's connections belong to one worker: membership, the
   decoder and the [eof]/[drained] flags are touched only by it, so
   they need no lock; the reorder slots, the output buffer and the
   pending count are shared with completing threads and guarded by the
   per-connection mutex. A completion only parks its response; the
   owning worker encodes the contiguous ready prefix and flushes it
   with one coalesced write per round, firing each response's
   [on_written] hook as the flush crosses its boundary. *)

type callbacks = {
  handle : Wire.request -> slot -> unit;
  on_bytes_in : int -> unit;
  on_bytes_out : int -> unit;
  on_protocol_error : string -> unit;
  on_closed : unit -> unit;
}

and conn = {
  id : int;
  fd : Unix.file_descr;
  cb : callbacks;
  decoder : Wire.Decoder.decoder;
  c_wake : unit -> unit;  (* wake the owning worker *)
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
  mutable eof : bool;  (* loop-only: no further frames will be decoded *)
  mutable dead : bool;  (* peer unwritable (gone, dropped as slow, or aborted) *)
  mutable drained : bool;  (* loop-only: receive side already shut down *)
}

and slot = { s_conn : conn; s_seq : int; mutable s_done : bool (* under lock *) }

and loop = {
  l_wake : unit -> unit;
  l_lock : Mutex.t;  (* guards [incoming] *)
  incoming : conn Queue.t;
  conns : (int, conn) Hashtbl.t;  (* owning worker only *)
  scratch : Bytes.t;  (* per-loop read buffer, shared by its conns *)
  mutable pfds : Unix.file_descr array;
  mutable pevents : int array;
  mutable prevents : int array;
  mutable porder : conn option array;
}

type t = {
  wire : Wire.t;
  max_pending : int;
  on_slow_drop : unit -> unit;
  loops : loop array;
  mutable next_loop : int;  (* under p_lock *)
  mutable next_id : int;  (* under p_lock *)
  p_lock : Mutex.t;
  active : int Atomic.t;
  stopping : bool Atomic.t;
  q_lock : Mutex.t;  (* with q_cond: signals active reaching zero *)
  q_cond : Condition.t;
}

let no_response =
  { Wire.resp_id = -1; status = Wire.Err; timing_ns = 0; resp_value = Bytes.empty }

let no_hook () = ()

(* --- reorder slots and output buffer (under c.lock) --- *)

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
let rec write_out c =
  if (not c.dead) && c.o_start < c.o_end then
    match Unix.write c.fd c.obuf c.o_start (c.o_end - c.o_start) with
    | n ->
      c.o_start <- c.o_start + n;
      c.flushed_total <- c.flushed_total + n;
      c.cb.on_bytes_out n;
      retire_flushed c;
      if c.o_start = c.o_end then begin
        c.o_start <- 0;
        c.o_end <- 0
      end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_out c
    | exception Unix.Unix_error (_, _, _) ->
      mark_dead c;
      c.eof <- true

(* --- completion side (any thread) --- *)

let respond s ~on_written resp =
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
     connection, so a wake after the loop has closed this one is
     harmless. *)
  if parked then c.c_wake () else on_written ()

let abort s =
  let c = s.s_conn in
  Sync.with_lock c.lock (fun () ->
      if not s.s_done then begin
        s.s_done <- true;
        c.pending <- c.pending - 1;
        mark_dead c;
        c.cb.on_protocol_error "handler raised";
        (* The loop's poll sees the socket hang up and closes the
           connection. Under the lock: once [pending] is released the
           loop may close the fd, and the number could be reused. *)
        try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()
      end)

(* --- read path (owning worker) --- *)

let slow_drop pool c =
  pool.on_slow_drop ();
  c.cb.on_protocol_error "slow client: pending-response bound exceeded";
  Sync.with_lock c.lock (fun () -> mark_dead c);
  c.eof <- true;
  try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()

(* Number the next arrival and count it pending; -1 at the bound. *)
let reserve pool c =
  Sync.with_lock c.lock (fun () ->
      if c.pending >= pool.max_pending then -1
      else begin
        let seq = c.next_seq in
        (* A dead connection stages nothing: keep its ring empty. *)
        if c.dead then c.head_seq <- seq + 1
        else if seq - c.head_seq = Array.length c.ready then grow c;
        c.next_seq <- seq + 1;
        c.pending <- c.pending + 1;
        seq
      end)

let process_frames pool c =
  let rec go () =
    if not c.eof then
      match Wire.Decoder.next_frame c.decoder with
      | `Awaiting -> ()
      | `Corrupt msg ->
        c.cb.on_protocol_error msg;
        c.eof <- true
      | `Frame body -> (
        match Wire.decode_request pool.wire body with
        | Error msg ->
          c.cb.on_protocol_error msg;
          c.eof <- true
        | Ok req ->
          let seq = reserve pool c in
          if seq < 0 then slow_drop pool c
          else begin
            let s = { s_conn = c; s_seq = seq; s_done = false } in
            match c.cb.handle req s with
            | () -> go ()
            | exception _ ->
              abort s;
              c.eof <- true
          end)
  in
  go ()

let read_conn pool l c =
  (* Batched reads: drain the socket up to a per-wakeup budget (poll is
     level-triggered, so leftover bytes re-report as readable — the
     budget is fairness across the loop's conns, not a correctness
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
      c.cb.on_bytes_in n;
      Wire.Decoder.feed c.decoder l.scratch ~off:0 ~len:n;
      process_frames pool c
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (_, _, _) ->
      c.eof <- true;
      Sync.with_lock c.lock (fun () -> mark_dead c);
      continue := false
  done

(* --- one I/O round (owning worker) --- *)

let close_conn pool l c =
  Hashtbl.remove l.conns c.id;
  (try Unix.close c.fd with Unix.Unix_error _ -> ());
  c.cb.on_closed ();
  let now = Atomic.fetch_and_add pool.active (-1) - 1 in
  if now = 0 then
    Sync.with_lock pool.q_lock (fun () -> Condition.broadcast pool.q_cond)

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

let step pool ~worker ~wake =
  let l = pool.loops.(worker) in
  List.iter (fun c -> Hashtbl.replace l.conns c.id c) (take_incoming l);
  (* Graceful drain: half-close every receive side once; buffered bytes
     still read out (and decode, and get answered) before EOF shows. *)
  if Atomic.get pool.stopping then
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
            if stage pool.wire c then write_out c;
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
        read_conn pool l c;
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
              ignore (stage pool.wire c);
              write_out c;
              c.eof && c.pending = 0)
        in
        if done_ then c :: acc else acc)
      l.conns []
  in
  List.iter (fun c -> close_conn pool l c) finished;
  let re = l.prevents.(0) in
  Poll.readable re || Poll.errored re

(* --- pool lifecycle --- *)

let create ~wire ~loops ~max_pending ~on_slow_drop ~wake () =
  if loops < 1 then invalid_arg "Evloop.create: loops";
  if max_pending < 1 then invalid_arg "Evloop.create: max_pending";
  let mk_loop worker =
    {
      l_wake = (fun () -> wake worker);
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
  {
    wire;
    max_pending;
    on_slow_drop;
    loops = Array.init loops mk_loop;
    next_loop = 0;
    next_id = 0;
    p_lock = Mutex.create ();
    active = Atomic.make 0;
    stopping = Atomic.make false;
    q_lock = Mutex.create ();
    q_cond = Condition.create ();
  }

let add pool ~fd cb =
  if Atomic.get pool.stopping then begin
    (try Unix.close fd with Unix.Unix_error _ -> ());
    cb.on_closed ()
  end
  else begin
    Unix.set_nonblock fd;
    let id, l =
      Sync.with_lock pool.p_lock (fun () ->
          let id = pool.next_id in
          pool.next_id <- id + 1;
          let l = pool.loops.(pool.next_loop mod Array.length pool.loops) in
          pool.next_loop <- pool.next_loop + 1;
          (id, l))
    in
    let c =
      {
        id;
        fd;
        cb;
        decoder = Wire.Decoder.create pool.wire;
        c_wake = l.l_wake;
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
    Atomic.incr pool.active;
    Sync.with_lock l.l_lock (fun () -> Queue.add c l.incoming);
    l.l_wake ()
  end

let stop pool =
  if not (Atomic.exchange pool.stopping true) then begin
    Array.iter (fun l -> l.l_wake ()) pool.loops;
    (* The workers keep running their rounds while connections drain —
       they do the flushing; return once every connection is closed. *)
    Sync.with_lock pool.q_lock (fun () ->
        while Atomic.get pool.active > 0 do
          Condition.wait pool.q_cond pool.q_lock
        done)
  end
