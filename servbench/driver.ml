(* Closed-loop load driver: one thread, at most a few connections
   multiplexed with poll(2), speaking {!C4_net.Wire} directly. Each
   connection keeps [depth] requests outstanding and sends the next one
   as soon as an answer arrives, so a slower server is offered less
   load rather than a growing queue. Every answer goes through the
   {!Checker}; answers must arrive in request-id order per
   connection. *)

module Wire = C4_net.Wire
module Poll = C4_net.Poll
module Span = C4_obs.Span

type pend = {
  id : int;
  req : Workload.req;
  cand : Checker.cand option;
  t0 : int;  (* monotonic ns when queued for sending *)
  span : Span.span option;  (* client span, traced runs only *)
}

type conn = {
  fd : Unix.file_descr;
  dec : Wire.Decoder.decoder;
  mutable obuf : Bytes.t;
  mutable olen : int;
  mutable ooff : int;
  pending : pend Queue.t;
  mutable next_id : int;
  mutable dead : bool;
}

let connect wire ~port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.set_nonblock fd;
  {
    fd;
    dec = Wire.Decoder.create wire;
    obuf = Bytes.create 65536;
    olen = 0;
    ooff = 0;
    pending = Queue.create ();
    next_id = 0;
    dead = false;
  }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* Pair an answer with the request it must answer: the oldest one
   outstanding on its connection. *)
let take_response c (r : Wire.response) =
  match Queue.peek_opt c.pending with
  | None -> Error (Printf.sprintf "unsolicited response id %d" r.Wire.resp_id)
  | Some p when p.id <> r.Wire.resp_id ->
    Error
      (Printf.sprintf "response id %d arrived while id %d was due"
         r.Wire.resp_id p.id)
  | Some _ -> Ok (Queue.pop c.pending)

let append c b =
  let n = Bytes.length b in
  if c.olen + n > Bytes.length c.obuf then begin
    let live = c.olen - c.ooff in
    let nb = Bytes.create (max (2 * Bytes.length c.obuf) (live + n)) in
    Bytes.blit c.obuf c.ooff nb 0 live;
    c.obuf <- nb;
    c.olen <- live;
    c.ooff <- 0
  end;
  Bytes.blit b 0 c.obuf c.olen n;
  c.olen <- c.olen + n

(* What a phase measured. Latencies are ns; [done_at] is the monotonic
   completion time of each latency in [all_lat] and [kind] its op
   ([kind_get], [kind_set] or [kind_other]), for windowing. *)
type result = {
  t_start : int;
  t_end : int;  (* when the last answer arrived *)
  attempted : int;
  completed : int;
  failed : int;
  get_lat : Stats.samples;
  set_lat : Stats.samples;
  all_lat : Stats.samples;
  done_at : Stats.samples;
  kind : Stats.samples;
  client_sum_ns : float;  (* sum of all answered latencies *)
}

(* A traced run's client side: every request gets a client span whose
   context rides in [Wire.request.trace]. Span clocks are wall ns, the
   clock the server's spans use. *)
type tracer = { buf : Span.t; mutable finished : (Span.span * Workload.op) list }

let kind_get = 0.0
let kind_set = 1.0
let kind_other = 2.0

let wall_ns () = Unix.gettimeofday () *. 1e9

(* A server that answers nothing for this long while requests are
   outstanding is stalled; its connections are given up as failed. *)
let stall_timeout_ns = 10_000_000_000

(* Drive [conns] with [depth] outstanding each until [source] runs dry
   or [deadline] (monotonic ns) passes, then wait for every answer.
   Unanswered requests, dead connections and a stalled server count as
   failed. With [every = (period, f)], [f now] runs at the start and
   then once per [period] ns, between polls. *)
let run ?tracer ?every ~wire ~checker ~conns ~depth ~deadline ~source () =
  let scratch = Bytes.create 65536 in
  let get_lat = Stats.samples () and set_lat = Stats.samples () in
  let all_lat = Stats.samples () and done_at = Stats.samples () in
  let kind = Stats.samples () in
  let attempted = ref 0 and completed = ref 0 and failed = ref 0 in
  let client_sum = ref 0.0 in
  let issuing = ref true in
  let last_answer = ref 0 in
  let conns = Array.of_list conns in
  let kill c why =
    if not c.dead then begin
      ignore (Checker.violation checker "connection dropped: %s" why);
      c.dead <- true;
      failed := !failed + Queue.length c.pending;
      Queue.clear c.pending
    end
  in
  let issue c (r : Workload.req) =
    let cand, value =
      match r.Workload.op with
      | Workload.Set ->
        let cand = Checker.issue_write checker ~key:r.key ~del:false in
        (Some cand, Workload.stamp ~key:r.key ~wn:cand.Checker.wn)
      | Workload.Del ->
        (Some (Checker.issue_write checker ~key:r.key ~del:true), Bytes.empty)
      | Workload.Load -> (None, Workload.stamp ~key:r.key ~wn:0)
      | Workload.Get | Workload.Final -> (None, Bytes.empty)
    in
    let span, trace =
      match tracer with
      | None -> (None, None)
      | Some tr ->
        let sp = Span.start tr.buf ~name:"client.request" ~ts:(wall_ns ()) in
        let ctx = Span.context sp in
        (Some sp, Some { Wire.trace_id = ctx.Span.trace_id; parent_span = ctx.Span.span_id })
    in
    let id = c.next_id in
    c.next_id <- id + 1;
    append c
      (Wire.encode_request wire
         { Wire.id; op = Workload.wire_op r.op; key = r.key; token = None; trace; value });
    incr attempted;
    Queue.push { id; req = r; cand; t0 = Stats.now_ns (); span } c.pending
  in
  let answer c (r : Wire.response) =
    match take_response c r with
    | Error why -> kill c why
    | Ok p ->
      let now = Stats.now_ns () in
      last_answer := now;
      let key = p.req.Workload.key in
      let ok =
        match (p.req.Workload.op, p.cand) with
        | Workload.Get, _ -> Checker.check_get checker ~key r.Wire.status r.Wire.resp_value
        | Workload.Final, _ -> Checker.check_final checker ~key r.Wire.status r.Wire.resp_value
        | Workload.Load, _ -> Checker.ack_load checker ~key r.Wire.status
        | (Workload.Set | Workload.Del), Some cand ->
          Checker.ack_write checker ~key cand r.Wire.status
        | (Workload.Set | Workload.Del), None -> assert false
      in
      (match (tracer, p.span) with
      | Some tr, Some sp ->
        Span.finish tr.buf sp ~ts:(wall_ns ());
        tr.finished <- (sp, p.req.Workload.op) :: tr.finished
      | _ -> ());
      if ok then begin
        incr completed;
        let lat = float_of_int (now - p.t0) in
        client_sum := !client_sum +. lat;
        (match p.req.Workload.op with
        | Workload.Get | Workload.Final -> Stats.add get_lat lat; Stats.add kind kind_get
        | Workload.Set | Workload.Load -> Stats.add set_lat lat; Stats.add kind kind_set
        | Workload.Del -> Stats.add kind kind_other);
        Stats.add all_lat lat;
        Stats.add done_at (float_of_int now)
      end
      else incr failed
  in
  let read c =
    match Unix.read c.fd scratch 0 (Bytes.length scratch) with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error (e, _, _) -> kill c (Unix.error_message e)
    | 0 -> kill c "server closed the connection"
    | n ->
      Wire.Decoder.feed c.dec scratch ~off:0 ~len:n;
      let rec drain () =
        if not c.dead then
          match Wire.Decoder.next_frame c.dec with
          | `Awaiting -> ()
          | `Corrupt why -> kill c ("corrupt stream: " ^ why)
          | `Frame body -> (
            match Wire.decode_response wire body with
            | Error why -> kill c ("undecodable response: " ^ why)
            | Ok r -> answer c r; drain ())
      in
      drain ()
  in
  let flush c =
    if c.ooff < c.olen then
      match Unix.single_write c.fd c.obuf c.ooff (c.olen - c.ooff) with
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error (e, _, _) -> kill c (Unix.error_message e)
      | n ->
        c.ooff <- c.ooff + n;
        if c.ooff = c.olen then begin
          c.ooff <- 0;
          c.olen <- 0
        end
  in
  let n = Array.length conns in
  let fds = Array.map (fun c -> c.fd) conns in
  let events = Array.make n 0 and revents = Array.make n 0 in
  let t_start = Stats.now_ns () in
  let t_last = ref t_start in
  last_answer := t_start;
  let next_tick = ref t_start in
  let rec loop () =
    let now = Stats.now_ns () in
    (match every with
    | Some (period, f) when now >= !next_tick ->
      f now;
      next_tick := now + period
    | _ -> ());
    if now >= deadline then issuing := false;
    Array.iter
      (fun c ->
        if not c.dead then begin
          while !issuing && Queue.length c.pending < depth do
            match source () with
            | Some r -> issue c r
            | None -> issuing := false
          done;
          flush c
        end)
      conns;
    let outstanding =
      Array.fold_left (fun acc c -> acc + Queue.length c.pending) 0 conns
    in
    if outstanding = 0 && (not !issuing || Array.for_all (fun c -> c.dead) conns)
    then ()
    else if now - !last_answer > stall_timeout_ns then
      Array.iter (fun c -> kill c "no answer for 10 s with requests outstanding") conns
    else begin
      Array.iteri
        (fun i c ->
          events.(i) <-
            (if c.dead then 0
             else Poll.pollin lor if c.ooff < c.olen then Poll.pollout else 0))
        conns;
      let ready = Poll.poll ~fds ~events ~revents ~n ~timeout_ms:50 in
      if ready > 0 then
        Array.iteri
          (fun i c ->
            let re = revents.(i) in
            if re <> 0 && not c.dead then begin
              if Poll.readable re || Poll.errored re then read c;
              if (not c.dead) && Poll.writable re then flush c
            end)
          conns;
      t_last := Stats.now_ns ();
      loop ()
    end
  in
  loop ();
  {
    t_start;
    t_end = !t_last;
    attempted = !attempted;
    completed = !completed;
    failed = !failed;
    get_lat;
    set_lat;
    all_lat;
    done_at;
    kind;
    client_sum_ns = !client_sum;
  }

(* A monotonic deadline [seconds] from now. *)
let after seconds = Stats.now_ns () + int_of_float (seconds *. 1e9)

(* A finite request list as a source. *)
let of_list reqs =
  let rest = ref reqs in
  fun () ->
    match !rest with
    | [] -> None
    | r :: tl -> rest := tl; Some r

(* Keys [0, n) as preload SETs. *)
let preload_source n =
  let k = ref 0 in
  fun () ->
    if !k >= n then None
    else begin
      let r = { Workload.op = Workload.Load; key = !k } in
      incr k;
      Some r
    end
