(* Loopback load test. The server runs as a separate child process
   (`serve`; its fd table, thread count and domain pool must not share
   this process's limits), and the client side is a single-threaded
   poll(2) multiplexer over raw sockets — the same primitive the
   server's workers use — so one driver process holds tens of thousands
   of connections without a thread per connection. Every connection
   pipelines its share of one Zipf request stream; every response must
   come back in order with a non-error status, and the child must drain
   and exit 0 on SIGTERM. *)

open Cmdliner
open Cmd_common
module Json = C4_obs.Json
module Wire = C4_net.Wire
module Poll = C4_net.Poll
module Generator = C4_workload.Generator
module Request = C4_workload.Request
module Proc = C4_resilience.Proc

type state = Connecting | Active | Done | Failed

type conn = {
  fd : Unix.file_descr;
  out : bytes;  (* every request of the connection, pre-encoded *)
  mutable sent : int;
  dec : Wire.Decoder.decoder;
  mutable got : int;  (* responses decoded, also the next expected id *)
  mutable state : state;
}

(* Outcome of one run. [dnf] carries the honest reason a run could not
   finish (fd rlimit, timeout) — recorded in the trajectory rather than
   silently skipped. *)
type result = {
  completed : int;
  errors : int;
  unanswered : int;
  connect_failures : int;
  duration_s : float;
  dnf : string option;
}

(* Write->DELETE demotion hashed on the request id: decorrelated from
   the key choice, and a seed reproduces the exact op sequence. *)
let is_delete ~delete_frac (req : Request.t) =
  Request.is_write req
  && C4_kvs.Hash.mix_int (req.Request.id lxor 0x9E3779B9) land 0xFFFF
     < int_of_float (delete_frac /. 100.0 *. 65536.0)

(* One generator stream (seed 42) dealt to the connections in order:
   request [j] goes to connection [j mod conns] with request id
   [j / conns]. Reads become GETs, writes SETs of the generator's value
   size. The serving contract under test is response order (ids march
   0, 1, 2, ... per connection) and zero failures, not
   read-your-write: a GET may answer [Not_found]. *)
let requests wire ~theta ~write_frac ~delete_frac ~conns ~ops =
  let workload =
    { Generator.default with theta; write_fraction = write_frac /. 100.0 }
  in
  let gen = Generator.create workload ~seed:42 in
  let value = Bytes.make workload.Generator.value_size 'v' in
  let bufs = Array.init conns (fun _ -> Buffer.create (ops * 32)) in
  for j = 0 to (conns * ops) - 1 do
    let req = Generator.next gen in
    let op, value =
      if is_delete ~delete_frac req then (Wire.Delete, Bytes.empty)
      else if Request.is_write req then (Wire.Set, value)
      else (Wire.Get, Bytes.empty)
    in
    Buffer.add_bytes bufs.(j mod conns)
      (Wire.encode_request wire
         { Wire.id = j / conns; op; key = req.Request.key; token = None;
           trace = None; value })
  done;
  Array.map Buffer.to_bytes bufs

exception Out_of_fds of string

let connect ~port =
  match Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
    raise (Out_of_fds "fd rlimit: EMFILE creating client socket")
  | fd ->
    Unix.set_nonblock fd;
    let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
    (match Unix.connect fd addr with
    | () -> Some (fd, Active)
    | exception Unix.Unix_error (Unix.EINPROGRESS, _, _) ->
      Some (fd, Connecting)
    | exception Unix.Unix_error _ -> Unix.close fd; None)

(* Drive one connection per element of [outs] against
   127.0.0.1:[port]: establish them all (at most [max_connecting]
   connect(2)s outstanding), pipeline each connection's requests, and
   keep every finished connection open until the last one answers, so
   the server really holds every connection at peak. *)
let drive wire ~port ~outs ~ops ~timeout_s =
  let conns = Array.length outs in
  let deadline = Unix.gettimeofday () +. timeout_s in
  let t0 = Unix.gettimeofday () in
  let max_connecting = 256 in
  let scratch = Bytes.create 65536 in
  let cs = Array.make conns None in
  let started = ref 0 in
  let connecting = ref 0 in
  let unfinished = ref conns in
  let errors = ref 0 in
  let completed = ref 0 in
  let connect_failures = ref 0 in
  let fds = Array.make conns Unix.stdin in
  let events = Array.make conns 0 in
  let revents = Array.make conns 0 in
  let order = Array.make conns 0 in
  let fail c =
    if c.state <> Done && c.state <> Failed then begin
      if c.state = Connecting then begin
        decr connecting;
        incr connect_failures
      end;
      c.state <- Failed;
      decr unfinished
    end
  in
  let finish c =
    if c.state = Active then begin
      c.state <- Done;
      decr unfinished
    end
  in
  let on_response c body =
    match Wire.decode_response wire body with
    | Error _ -> incr errors; fail c
    | Ok r ->
      let ok_status =
        match r.Wire.status with
        | Wire.Ok | Wire.Not_found -> true
        | Wire.Err | Wire.Wrong_shard | Wire.Cluster_ok -> false
      in
      if r.Wire.resp_id <> c.got || not ok_status then begin
        incr errors; fail c
      end
      else begin
        c.got <- c.got + 1;
        incr completed;
        if c.got = ops then finish c
      end
  in
  let read_conn c =
    match Unix.read c.fd scratch 0 (Bytes.length scratch) with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> fail c
    | 0 -> fail c  (* server closed before every response arrived *)
    | n ->
      Wire.Decoder.feed c.dec scratch ~off:0 ~len:n;
      let rec drain () =
        if c.state = Active then
          match Wire.Decoder.next_frame c.dec with
          | `Frame body -> on_response c body; drain ()
          | `Awaiting -> ()
          | `Corrupt _ -> incr errors; fail c
      in
      drain ()
  in
  let write_conn c =
    let remaining = Bytes.length c.out - c.sent in
    if remaining > 0 then
      match Unix.write c.fd c.out c.sent remaining with
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error _ -> fail c
      | n -> c.sent <- c.sent + n
  in
  let dnf = ref None in
  (try
     while !unfinished > 0 && !dnf = None do
       if Unix.gettimeofday () > deadline then
         dnf := Some (Printf.sprintf "timeout: %.0fs elapsed with %d of %d \
                                      connections unfinished"
                        timeout_s !unfinished conns)
       else begin
         while !connecting < max_connecting && !started < conns do
           let idx = !started in
           (match connect ~port with
           | None ->
             incr connect_failures;
             decr unfinished
           | Some (fd, st) ->
             if st = Connecting then incr connecting;
             cs.(idx) <-
               Some
                 {
                   fd;
                   out = outs.(idx);
                   sent = 0;
                   dec = Wire.Decoder.create wire;
                   got = 0;
                   state = st;
                 });
           incr started
         done;
         let n = ref 0 in
         Array.iteri
           (fun idx slot ->
             match slot with
             | None -> ()
             | Some c ->
               let interest =
                 match c.state with
                 | Connecting -> Poll.pollout
                 | Active ->
                   Poll.pollin
                   lor (if c.sent < Bytes.length c.out then Poll.pollout else 0)
                 | Done | Failed -> 0
               in
               if interest <> 0 then begin
                 fds.(!n) <- c.fd;
                 events.(!n) <- interest;
                 order.(!n) <- idx;
                 incr n
               end)
           cs;
         let ready = Poll.poll ~fds ~events ~revents ~n:!n ~timeout_ms:100 in
         if ready > 0 then
           for i = 0 to !n - 1 do
             let re = revents.(i) in
             if re <> 0 then begin
               let c = Option.get cs.(order.(i)) in
               match c.state with
               | Connecting ->
                 decr connecting;
                 (match Unix.getsockopt_error c.fd with
                 | Some _ -> incr connect_failures; c.state <- Failed;
                   decr unfinished
                 | None -> c.state <- Active; write_conn c)
               | Active ->
                 if Poll.errored re && not (Poll.readable re) then fail c
                 else begin
                   if Poll.readable re then read_conn c;
                   if c.state = Active && Poll.writable re then write_conn c
                 end
               | Done | Failed -> ()
             end
           done
       end
     done
   with Out_of_fds reason -> dnf := Some reason);
  let duration = Unix.gettimeofday () -. t0 in
  Array.iter
    (function None -> () | Some c -> (try Unix.close c.fd with Unix.Unix_error _ -> ()))
    cs;
  {
    completed = !completed;
    errors = !errors;
    unanswered = (conns * ops) - !completed;
    connect_failures = !connect_failures;
    duration_s = duration;
    dnf = !dnf;
  }

let record ~n_workers ~n_partitions ~compaction ~write_frac ~theta ~delete_frac
    ~conns ~ops ~wal_dir ~fsync_policy r =
  let throughput =
    if r.duration_s > 0.0 then float_of_int r.completed /. r.duration_s else 0.0
  in
  C4_obs.Benchlog.record ~kind:"netbench"
    ~config:
      [
        ("workers", Json.Int n_workers);
        ("partitions", Json.Int n_partitions);
        ("compaction", Json.Bool compaction);
        ("write_frac_pct", Json.Float write_frac);
        ("theta", Json.Float theta);
        ("delete_frac_pct", Json.Float delete_frac);
        ("conns", Json.Int conns);
        ("ops_per_conn", Json.Int ops);
        ("wal", Json.Bool (wal_dir <> None));
        ("fsync_policy", Json.Str (C4_wal.Wal.fsync_policy_to_string fsync_policy));
      ]
    ~results:
      ([
         ("throughput_ops_s", Json.Float throughput);
         ("completed", Json.Int r.completed);
         ("errors", Json.Int r.errors);
         ("unanswered", Json.Int r.unanswered);
         ("connect_failures", Json.Int r.connect_failures);
         ("duration_s", Json.Float r.duration_s);
         ("dnf", Json.Bool (r.dnf <> None));
       ]
      @ match r.dnf with
        | None -> []
        | Some reason -> [ ("dnf_reason", Json.Str reason) ])

let spawn_server ~n_workers ~n_partitions ~compaction ~wal_dir ~fsync_policy =
  let child =
    Proc.spawn ~prog:Sys.executable_name
      ~args:
        ([
           "serve"; "-p"; "0";
           "--workers"; string_of_int n_workers;
           "--partitions"; string_of_int n_partitions;
         ]
        @ (if compaction then [] else [ "--no-compaction" ])
        @
        match wal_dir with
        | None -> []
        | Some dir ->
          [
            "--wal-dir"; dir;
            "--fsync-policy"; C4_wal.Wal.fsync_policy_to_string fsync_policy;
          ])
  in
  let rec find_port tries =
    if tries = 0 then None
    else
      match Proc.await_line ~timeout:20.0 child with
      | None -> None
      | Some line -> (
        match
          Scanf.sscanf line "c4 server listening on 127.0.0.1:%d" Fun.id
        with
        | port -> Some port
        | exception Scanf.Scan_failure _ | exception End_of_file ->
          find_port (tries - 1))
  in
  match find_port 10 with
  | Some port -> (child, port)
  | None ->
    Proc.kill child;
    ignore (Proc.wait child);
    failwith "netbench: server child never printed its listening line"

(* SIGTERM the child, read its stdout to EOF for the summary line
   `serve` prints after its graceful drain, and reap it. [Ok n] is a
   clean exit 0 whose server counted [n] protocol errors. *)
let stop_server child =
  Proc.kill ~signal:Sys.sigterm child;
  let rec summary found =
    match Proc.await_line ~timeout:30.0 child with
    | None -> found
    | Some line ->
      summary
        (match
           Scanf.sscanf line
             "served %_d requests on %_d connections (%_d B in, %_d B out, \
              %d protocol errors)"
             Fun.id
         with
        | n -> Some n
        | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> found)
  in
  let protocol_errors = summary None in
  match (Proc.wait ~timeout:30.0 child, protocol_errors) with
  | Some (Unix.WEXITED 0), Some n -> Ok n
  | Some (Unix.WEXITED 0), None -> Error "server printed no summary line"
  | Some (Unix.WEXITED n), _ -> Error (Printf.sprintf "server exited %d" n)
  | Some (Unix.WSIGNALED s | Unix.WSTOPPED s), _ ->
    Error (Printf.sprintf "server stopped by signal %d" s)
  | None, _ ->
    Proc.kill child;
    ignore (Proc.wait child);
    Error "server did not exit within 30 s of SIGTERM"

let netbench_run n_workers n_partitions compaction write_frac theta delete_frac
    conns ops wal_dir fsync_policy bench_json timeout_s =
  if conns < 1 || ops < 1 || delete_frac < 0.0 || delete_frac > 100.0 then begin
    prerr_endline
      "netbench: --conns and --ops-per-conn must be positive and \
       --delete-frac within [0, 100]";
    exit 2
  end;
  (* A server that drops a connection mid-write must surface as EPIPE,
     not kill the driver. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Printf.printf "netbench: %d connections x %d ops (%.0f%% writes, %.0f%% of \
                 them DELETE, theta %.2f)%s\n%!"
    conns ops write_frac delete_frac theta
    (match wal_dir with
    | None -> ""
    | Some _ -> ", wal " ^ C4_wal.Wal.fsync_policy_to_string fsync_policy);
  let wire = Wire.create () in
  let outs = requests wire ~theta ~write_frac ~delete_frac ~conns ~ops in
  let child, port =
    spawn_server ~n_workers ~n_partitions ~compaction ~wal_dir ~fsync_policy
  in
  let r = drive wire ~port ~outs ~ops ~timeout_s in
  let stopped = stop_server child in
  (match r.dnf with
  | Some reason -> Printf.printf "DNF: %s\n" reason
  | None ->
    Printf.printf
      "%d/%d responses in %.2f s (%.0f ops/s), %d errors, %d connect failures\n"
      r.completed (conns * ops) r.duration_s
      (float_of_int r.completed /. r.duration_s)
      r.errors r.connect_failures);
  (match bench_json with
  | None -> ()
  | Some path ->
    C4_obs.Benchlog.append ~path
      (record ~n_workers ~n_partitions ~compaction ~write_frac ~theta
         ~delete_frac ~conns ~ops ~wal_dir ~fsync_policy r);
    Printf.printf "appended run to %s\n" path);
  (* A DNF is an honest recorded outcome (the row says why), not a test
     failure; anything else must be a perfect run, and the server must
     drain and exit cleanly either way. *)
  let failure =
    match (stopped, r.dnf) with
    | Error reason, _ -> Some reason
    | Ok _, Some _ -> None
    | Ok n, None when n > 0 -> Some (Printf.sprintf "server counted %d protocol errors" n)
    | Ok _, None when r.errors > 0 || r.unanswered > 0 ->
      Some (Printf.sprintf "%d errors, %d unanswered" r.errors r.unanswered)
    | Ok _, None -> None
  in
  match failure with
  | None -> ()
  | Some reason ->
    Printf.printf "NETBENCH FAILED: %s\n" reason;
    exit 1

let cmd =
  let delete_frac =
    Arg.(value & opt float 5.0 & info [ "delete-frac" ] ~docv:"PCT"
           ~doc:"Share of writes issued as DELETE.")
  in
  let conns =
    Arg.(value & opt int 4 & info [ "conns" ] ~docv:"N"
           ~doc:"Concurrent connections, held open until the last answers.")
  in
  let ops_per_conn =
    Arg.(value & opt int 8 & info [ "ops-per-conn" ] ~docv:"N"
           ~doc:"Requests pipelined on each connection. Keep it below the \
                 server's 1024-response slow-client bound.")
  in
  let bench_json =
    Arg.(value & opt (some string) None & info [ "bench-json" ] ~docv:"FILE"
           ~doc:"Append this run's config fingerprint and results to $(docv) \
                 as one JSON line (the perf trajectory log).")
  in
  let conn_timeout =
    Arg.(value & opt float 120.0 & info [ "conn-timeout" ] ~docv:"SECONDS"
           ~doc:"Deadline: a run still unfinished after $(docv) is recorded \
                 as DNF rather than hanging.")
  in
  let run workers partitions no_compaction write_frac theta delete_frac conns
      wal_dir fsync_policy bench_json ops_per_conn conn_timeout =
    netbench_run workers partitions (not no_compaction) write_frac theta
      delete_frac conns ops_per_conn wal_dir fsync_policy bench_json conn_timeout
  in
  Cmd.v
    (Cmd.info "netbench"
       ~doc:"Loopback load test: spawn $(b,serve) as a child process \
             ($(b,--workers), $(b,--partitions), $(b,--no-compaction), \
             $(b,--wal-dir) and $(b,--fsync-policy) go to it), hold \
             $(b,--conns) connections against it from one poll-multiplexed \
             driver and pipeline $(b,--ops-per-conn) requests of the Zipf \
             mix on each. Exits nonzero on any out-of-order or error \
             response, unanswered request, server protocol error, or a \
             server that does not drain and exit 0 on SIGTERM.")
    Term.(
      const run $ workers_arg $ partitions_arg $ no_compaction_arg
      $ write_frac_arg ~default:30.0 ~doc:"Write percentage of the Zipf mix." ()
      $ theta_arg ~default:0.99 () $ delete_frac $ conns $ wal_dir_arg
      $ fsync_policy_arg $ bench_json $ ops_per_conn $ conn_timeout)
