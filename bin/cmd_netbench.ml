(* Loopback load test: spin up the TCP server over the multicore
   runtime, drive it open-loop with the Zipf workload, report
   throughput and latency percentiles — optionally appending the run
   to the BENCH_net.json trajectory and exporting a stitched
   client+server Chrome trace. *)

open Cmdliner
open Cmd_common
module Json = C4_obs.Json
module Span = C4_obs.Span

let now_ns () = Unix.gettimeofday () *. 1e9

let bench_record ~n_workers ~n_partitions ~compaction ~write_frac ~theta ~rate
    ~n_ops ~delete_frac ~conns ~wal ~fsync_policy report =
  let open C4_net.Loadgen in
  let hist name h = (name, Json.Obj (C4_obs.Benchlog.percentiles_of h)) in
  C4_obs.Benchlog.record ~kind:"netbench"
    ~config:
      [
        ("workers", Json.Int n_workers);
        ("partitions", Json.Int n_partitions);
        ("compaction", Json.Bool compaction);
        ("write_frac_pct", Json.Float write_frac);
        ("theta", Json.Float theta);
        ("rate_ops_s", Json.Float rate);
        ("n_ops", Json.Int n_ops);
        ("delete_frac_pct", Json.Float delete_frac);
        ("conns", Json.Int conns);
        ("wal", Json.Bool wal);
        ("fsync_policy", Json.Str (C4_wal.Wal.fsync_policy_to_string fsync_policy));
      ]
    ~results:
      [
        ("throughput_ops_s", Json.Float report.throughput);
        ("issued", Json.Int report.issued);
        ("completed", Json.Int report.completed);
        ("errors", Json.Int report.errors);
        ("unanswered", Json.Int report.unanswered);
        ("duration_s", Json.Float report.duration_s);
        hist "get_ns" report.get_ns;
        hist "set_ns" report.set_ns;
        hist "delete_ns" report.delete_ns;
        hist "all_ns" report.all_ns;
      ]

(* ------------------------------------------------------------------ *)
(* Connection-scaling mode (--conn-scale): how many concurrent
   connections can the serving layer hold while answering pipelined
   requests on every one of them?  The server runs as a separate child
   process (its fd table, thread count and domain pool must not share
   this process's limits), and the client side is a single-threaded
   poll(2) multiplexer over raw sockets — the same primitive the
   server's event loops use — so one driver process sustains tens of
   thousands of connections without a thread per connection. *)

module Wire = C4_net.Wire
module Poll = C4_net.Poll

type cs_state = Cs_connecting | Cs_active | Cs_done | Cs_failed

type cs_conn = {
  cs_fd : Unix.file_descr;
  cs_out : bytes;  (* every request of the connection, pre-encoded *)
  mutable cs_sent : int;
  cs_dec : Wire.Decoder.decoder;
  mutable cs_got : int;  (* responses decoded, also the next expected id *)
  mutable cs_state : cs_state;
}

(* Outcome of one conn-scale run. [dnf] carries the honest reason a
   run could not finish (fd rlimit, timeout) — recorded in
   the trajectory rather than silently skipped. *)
type cs_result = {
  r_completed : int;
  r_errors : int;
  r_unanswered : int;
  r_connect_failures : int;
  r_duration_s : float;
  r_dnf : string option;
}

(* SET k then GET k, pipelined in pairs sharing a key. The serving
   contract under test is response {e order} (resp_id must march 0, 1,
   2, ... per connection) and zero failures — not read-your-write: a
   CREW read does not queue behind a still-compacting write, so the GET
   may legitimately answer [Not_found]. *)
let cs_requests wire ~conn_idx ~ops =
  let b = Buffer.create (ops * 32) in
  for i = 0 to ops - 1 do
    let key = (conn_idx * ops) + (i land lnot 1) in
    let req =
      if i land 1 = 0 then
        { Wire.id = i; op = Wire.Set; key; token = None; trace = None;
          value = Bytes.of_string (Printf.sprintf "v%d" key) }
      else
        { Wire.id = i; op = Wire.Get; key; token = None; trace = None;
          value = Bytes.empty }
    in
    Buffer.add_bytes b (Wire.encode_request wire req)
  done;
  Buffer.to_bytes b

exception Cs_out_of_fds of string

let cs_connect ~port =
  match Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
    raise (Cs_out_of_fds "fd rlimit: EMFILE creating client socket")
  | fd ->
    Unix.set_nonblock fd;
    let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
    (match Unix.connect fd addr with
    | () -> Some (fd, Cs_active)
    | exception Unix.Unix_error (Unix.EINPROGRESS, _, _) ->
      Some (fd, Cs_connecting)
    | exception Unix.Unix_error _ -> Unix.close fd; None)

(* Drive [conns] connections against 127.0.0.1:[port]: establish them
   all (at most [max_connecting] connect(2)s outstanding — kind to the
   64-deep accept backlog), pipeline [ops] requests on each, and keep
   every finished connection open until the last one answers, so the
   server really holds [conns] live connections at peak. *)
let cs_drive ~port ~conns ~ops ~timeout_s =
  let wire = Wire.create () in
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
    if c.cs_state <> Cs_done && c.cs_state <> Cs_failed then begin
      if c.cs_state = Cs_connecting then begin
        decr connecting;
        incr connect_failures
      end;
      c.cs_state <- Cs_failed;
      decr unfinished
    end
  in
  let finish c =
    if c.cs_state = Cs_active then begin
      c.cs_state <- Cs_done;
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
      if r.Wire.resp_id <> c.cs_got || not ok_status then begin
        incr errors; fail c
      end
      else begin
        c.cs_got <- c.cs_got + 1;
        incr completed;
        if c.cs_got = ops then finish c
      end
  in
  let read_conn c =
    match Unix.read c.cs_fd scratch 0 (Bytes.length scratch) with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> fail c
    | 0 -> fail c  (* server closed before every response arrived *)
    | n ->
      Wire.Decoder.feed c.cs_dec scratch ~off:0 ~len:n;
      let rec drain () =
        if c.cs_state = Cs_active then
          match Wire.Decoder.next_frame c.cs_dec with
          | `Frame body -> on_response c body; drain ()
          | `Awaiting -> ()
          | `Corrupt _ -> incr errors; fail c
      in
      drain ()
  in
  let write_conn c =
    let remaining = Bytes.length c.cs_out - c.cs_sent in
    if remaining > 0 then
      match Unix.write c.cs_fd c.cs_out c.cs_sent remaining with
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error _ -> fail c
      | n -> c.cs_sent <- c.cs_sent + n
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
           (match cs_connect ~port with
           | None ->
             incr connect_failures;
             decr unfinished
           | Some (fd, st) ->
             if st = Cs_connecting then incr connecting;
             cs.(idx) <-
               Some
                 {
                   cs_fd = fd;
                   cs_out = cs_requests wire ~conn_idx:idx ~ops;
                   cs_sent = 0;
                   cs_dec = Wire.Decoder.create wire;
                   cs_got = 0;
                   cs_state = st;
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
                 match c.cs_state with
                 | Cs_connecting -> Poll.pollout
                 | Cs_active ->
                   Poll.pollin
                   lor (if c.cs_sent < Bytes.length c.cs_out then Poll.pollout
                        else 0)
                 | Cs_done | Cs_failed -> 0
               in
               if interest <> 0 then begin
                 fds.(!n) <- c.cs_fd;
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
               match c.cs_state with
               | Cs_connecting ->
                 decr connecting;
                 (match Unix.getsockopt_error c.cs_fd with
                 | Some _ -> incr connect_failures; c.cs_state <- Cs_failed;
                   decr unfinished
                 | None -> c.cs_state <- Cs_active; write_conn c)
               | Cs_active ->
                 if Poll.errored re && not (Poll.readable re) then fail c
                 else begin
                   if Poll.readable re then read_conn c;
                   if c.cs_state = Cs_active && Poll.writable re then
                     write_conn c
                 end
               | Cs_done | Cs_failed -> ()
             end
           done
       end
     done
   with Cs_out_of_fds reason -> dnf := Some reason);
  let duration = Unix.gettimeofday () -. t0 in
  Array.iter
    (function None -> () | Some c -> (try Unix.close c.cs_fd with Unix.Unix_error _ -> ()))
    cs;
  {
    r_completed = !completed;
    r_errors = !errors;
    r_unanswered = (conns * ops) - !completed;
    r_connect_failures = !connect_failures;
    r_duration_s = duration;
    r_dnf = !dnf;
  }

let cs_record ~n_workers ~n_partitions ~wal_dir ~fsync_policy ~conns ~ops r =
  let throughput =
    if r.r_duration_s > 0.0 then float_of_int r.r_completed /. r.r_duration_s
    else 0.0
  in
  C4_obs.Benchlog.record ~kind:"netbench"
    ~config:
      [
        ("mode", Json.Str "conn-scale");
        ("workers", Json.Int n_workers);
        ("partitions", Json.Int n_partitions);
        ("conns", Json.Int conns);
        ("ops_per_conn", Json.Int ops);
        ("wal", Json.Bool (wal_dir <> None));
        ("fsync_policy", Json.Str (C4_wal.Wal.fsync_policy_to_string fsync_policy));
      ]
    ~results:
      ([
         ("throughput_ops_s", Json.Float throughput);
         ("completed", Json.Int r.r_completed);
         ("errors", Json.Int r.r_errors);
         ("unanswered", Json.Int r.r_unanswered);
         ("connect_failures", Json.Int r.r_connect_failures);
         ("duration_s", Json.Float r.r_duration_s);
         ("dnf", Json.Bool (r.r_dnf <> None));
       ]
      @ match r.r_dnf with
        | None -> []
        | Some reason -> [ ("dnf_reason", Json.Str reason) ])

let cs_spawn_server ~n_workers ~n_partitions ~wal_dir ~fsync_policy =
  let child =
    C4_resilience.Proc.spawn ~prog:Sys.executable_name
      ~args:
        ([
           "serve"; "-p"; "0";
           "--workers"; string_of_int n_workers;
           "--partitions"; string_of_int n_partitions;
         ]
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
      match C4_resilience.Proc.await_line ~timeout:20.0 child with
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
    C4_resilience.Proc.kill child;
    ignore (C4_resilience.Proc.wait child);
    failwith "conn-scale: server child never printed its listening line"

let cs_stop_server child =
  C4_resilience.Proc.kill ~signal:Sys.sigterm child;
  (match C4_resilience.Proc.wait ~timeout:30.0 child with
  | Some _ -> ()
  | None ->
    C4_resilience.Proc.kill child;
    ignore (C4_resilience.Proc.wait child))

let conn_scale_run n_workers n_partitions wal_dir fsync_policy conns ops
    timeout_s bench_json =
  Printf.printf "conn-scale: %d connections x %d ops%s\n%!" conns ops
    (match wal_dir with
    | None -> ""
    | Some _ ->
      ", wal " ^ C4_wal.Wal.fsync_policy_to_string fsync_policy);
  let child, port =
    cs_spawn_server ~n_workers ~n_partitions ~wal_dir ~fsync_policy
  in
  let r = cs_drive ~port ~conns ~ops ~timeout_s in
  cs_stop_server child;
  (match r.r_dnf with
  | Some reason -> Printf.printf "DNF: %s\n" reason
  | None ->
    Printf.printf
      "%d/%d responses in %.2f s (%.0f ops/s), %d errors, %d connect failures\n"
      r.r_completed (conns * ops) r.r_duration_s
      (float_of_int r.r_completed /. r.r_duration_s)
      r.r_errors r.r_connect_failures);
  (match bench_json with
  | None -> ()
  | Some path ->
    C4_obs.Benchlog.append ~path
      (cs_record ~n_workers ~n_partitions ~wal_dir ~fsync_policy ~conns ~ops r);
    Printf.printf "appended run to %s\n" path);
  (* A DNF is an honest recorded outcome (the row says why), not a test
     failure; anything else must be a perfect run. *)
  if r.r_dnf = None && (r.r_errors > 0 || r.r_unanswered > 0) then begin
    Printf.printf "NETBENCH FAILED\n";
    exit 1
  end

let netbench_run n_workers n_partitions compaction write_frac theta rate n_ops
    warmup delete_frac conns wal_dir fsync_policy bench_json trace_out =
  let tracing = trace_out <> None in
  let client_spans = if tracing then Some (Span.create ~process:"client" ()) else None in
  let server_spans = if tracing then Some (Span.create ~process:"server" ()) else None in
  let on_decision =
    match server_spans with
    | None -> None
    | Some buf ->
      (* Stamp each admission decision on the request span being
         admitted; decisions taken with no request in flight (monitor
         sweeps) land as free-standing events instead. *)
      Some
        (fun d ->
          let s = C4_crew.Decision.to_string d in
          if not (Span.annotate_current buf ~key:"crew" ~value:s) then
            Span.event buf ~name:"crew" ~args:[ ("decision", s) ]
              ~ts:(now_ns ()))
  in
  let wal = wal_config ~wal_dir ~fsync_policy ~n_partitions in
  let runtime =
    C4_runtime.Server.start
      (runtime_config ?on_decision ?wal n_workers n_partitions compaction)
  in
  let srv =
    C4_net.Server.start
      { C4_net.Server.default_config with spans = server_spans }
      ~runtime
  in
  let client =
    C4_net.Client.create
      {
        (C4_net.Client.default_config
           ~hosts:[ ("127.0.0.1", C4_net.Server.port srv) ])
        with
        conns_per_host = conns;
        retry = Some C4_resilience.Retry.default;
        spans = client_spans;
      }
  in
  let workload =
    {
      C4_workload.Generator.default with
      theta;
      write_fraction = write_frac /. 100.0;
      rate = rate *. 1e-9;  (* ops/s -> ops/ns *)
      n_partitions;
    }
  in
  let cfg =
    {
      (C4_net.Loadgen.default_config ~workload ~seed:42) with
      n_ops;
      warmup = min warmup (n_ops / 2);
      delete_fraction = delete_frac /. 100.0;
    }
  in
  let report = C4_net.Loadgen.run client cfg in
  C4_net.Client.close client;
  C4_net.Server.stop srv;
  C4_runtime.Server.stop runtime;
  let sstats = C4_net.Server.stats srv in
  let cstats = C4_net.Client.stats client in
  C4_stats.Table.print (C4_net.Loadgen.to_table report);
  Printf.printf
    "throughput %.0f ops/s (%d/%d completed, %d errors, %d unanswered) in %.2f s\n"
    report.C4_net.Loadgen.throughput report.C4_net.Loadgen.completed
    report.C4_net.Loadgen.issued report.C4_net.Loadgen.errors
    report.C4_net.Loadgen.unanswered report.C4_net.Loadgen.duration_s;
  Printf.printf "client: %d sent, %d retries, %d transport errors; server: %d protocol errors\n"
    cstats.C4_net.Client.sent cstats.C4_net.Client.retries
    cstats.C4_net.Client.transport_errors sstats.C4_net.Server.protocol_errors;
  (match bench_json with
  | None -> ()
  | Some path ->
    C4_obs.Benchlog.append ~path
      (bench_record ~n_workers ~n_partitions ~compaction ~write_frac ~theta
         ~rate ~n_ops ~delete_frac ~conns ~wal:(wal_dir <> None) ~fsync_policy
         report);
    Printf.printf "appended run to %s\n" path);
  (match (trace_out, client_spans, server_spans) with
  | Some path, Some cbuf, Some sbuf ->
    Span.save_chrome ~extra:[ sbuf ] cbuf ~path;
    Printf.printf "wrote stitched trace (%d client + %d server spans) to %s\n"
      (List.length (Span.spans cbuf))
      (List.length (Span.spans sbuf))
      path
  | _ -> ());
  if
    report.C4_net.Loadgen.completed = 0
    || report.C4_net.Loadgen.errors > 0
    || report.C4_net.Loadgen.unanswered > 0
    || sstats.C4_net.Server.protocol_errors > 0
  then begin
    Printf.printf "NETBENCH FAILED\n";
    exit 1
  end

let cmd =
  let rate =
    Arg.(value & opt float 50_000.0 & info [ "rate" ] ~docv:"OPS_PER_SEC"
           ~doc:"Open-loop offered rate.")
  in
  let n_ops =
    Arg.(value & opt int 20_000 & info [ "n" ] ~docv:"N" ~doc:"Requests to issue.")
  in
  let warmup =
    Arg.(value & opt int 1_000 & info [ "warmup" ] ~docv:"N"
           ~doc:"Responses excluded from latency stats.")
  in
  let delete_frac =
    Arg.(value & opt float 5.0 & info [ "delete-frac" ] ~docv:"PCT"
           ~doc:"Share of writes issued as DELETE.")
  in
  let conns =
    Arg.(value & opt int 4 & info [ "conns" ] ~docv:"N" ~doc:"Pipelined connections.")
  in
  let bench_json =
    Arg.(value & opt (some string) None & info [ "bench-json" ] ~docv:"FILE"
           ~doc:"Append this run's config fingerprint and results to $(docv) \
                 as one JSON line (the perf trajectory log).")
  in
  let trace_out =
    Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Enable distributed tracing and write the stitched \
                 client+server Chrome trace to $(docv).")
  in
  let conn_scale =
    Arg.(value & flag & info [ "conn-scale" ]
           ~doc:"Connection-scaling mode: spawn the server as a child \
                 process and hold $(b,--conns) concurrent connections \
                 against it from one poll-multiplexed driver, pipelining \
                 $(b,--ops-per-conn) requests on each. Ignores the \
                 open-loop workload flags; $(b,--wal-dir) and \
                 $(b,--fsync-policy) go to the server child.")
  in
  let ops_per_conn =
    Arg.(value & opt int 8 & info [ "ops-per-conn" ] ~docv:"N"
           ~doc:"Pipelined requests per connection (conn-scale mode).")
  in
  let conn_timeout =
    Arg.(value & opt float 120.0 & info [ "conn-timeout" ] ~docv:"SECONDS"
           ~doc:"Conn-scale deadline: a cell still unfinished after \
                 $(docv) is recorded as DNF rather than hanging the run.")
  in
  let run workers partitions no_compaction write_frac theta rate n_ops warmup
      delete_frac conns wal_dir fsync_policy bench_json trace_out conn_scale
      ops_per_conn conn_timeout =
    if conn_scale then
      conn_scale_run workers partitions wal_dir fsync_policy conns ops_per_conn
        conn_timeout bench_json
    else
      netbench_run workers partitions (not no_compaction) write_frac theta rate
        n_ops warmup delete_frac conns wal_dir fsync_policy bench_json
        trace_out
  in
  Cmd.v
    (Cmd.info "netbench"
       ~doc:"Loopback load test: spin up the TCP server, drive it open-loop with \
             the Zipf workload (optionally durable via --wal-dir, to measure \
             the fsync-policy cost), report throughput and latency \
             percentiles; or, with --conn-scale, measure concurrent-connection \
             capacity against a child server process. Exits nonzero on any \
             protocol error or unanswered request.")
    Term.(
      const run $ workers_arg $ partitions_arg $ no_compaction_arg
      $ write_frac_arg ~default:30.0 ~doc:"Write percentage of the Zipf mix." ()
      $ theta_arg ~default:0.99 () $ rate $ n_ops $ warmup $ delete_frac
      $ conns $ wal_dir_arg $ fsync_policy_arg $ bench_json $ trace_out
      $ conn_scale $ ops_per_conn $ conn_timeout)
