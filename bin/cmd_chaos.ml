(* Seeded chaos run: deform the workload with a fault profile, inject
   faults into the server, let the client retry policy fight back, and
   report what survived. Same --fault-seed => byte-identical run.

   With --kill-server the harness moves up a level of realism: it forks
   a real `c4_sim serve` child on a WAL directory, SIGKILLs it mid-load
   at a seeded point, restarts it on the same directory, and judges the
   merged pre/post-restart history with the linearizability checker —
   the durability proof that acknowledged writes survive kill -9. *)

open Cmdliner
open Cmd_common

(* ---------------- kill -9 durability harness ---------------- *)

module Proc = C4_resilience.Proc
module History = C4_consistency.History
module Lin = C4_consistency.Linearizability

let now () = Unix.gettimeofday ()
let int_value v = Bytes.of_string (string_of_int v)
let value_int b = try int_of_string (Bytes.to_string b) with _ -> -1

(* One recorded operation on the judged key. [responded = None] marks an
   ambiguous write: the kill ate the ack, so we do not know whether it
   applied — it enters the history with response = end-of-run, the span
   that gives the checker maximal placement freedom. *)
type recorded = {
  client : string;
  kind : [ `Set of int | `Get of int ];
  invoked : float;
  responded : float option;
}

let fsync_policy_string = C4_wal.Wal.fsync_policy_to_string

(* Retry policy for a client that must ride out a kill + restart: the
   default 500 µs deadline gives up long before a process respawn, so
   stretch everything to seconds. *)
let kill_retry =
  {
    C4_resilience.Retry.max_attempts = 500;
    base_backoff = 2e6 (* 2 ms *);
    max_backoff = 1e8 (* 100 ms *);
    deadline = 20e9 (* 20 s past the original attempt *);
    budget_ratio = 10.0;
    budget_burst = 1e4;
  }

let make_client port =
  C4_net.Client.create
    {
      (C4_net.Client.default_config ~host:"127.0.0.1" ~port) with
      C4_net.Client.retry = Some kill_retry;
    }

(* Fork `c4_sim serve` (this very binary) and handshake over its stdout:
   the wal recovery line, then the listening line carrying the port. *)
let spawn_server ~port ~wal_dir ~workers ~partitions ~fsync_policy =
  let args =
    [
      "serve"; "--port"; string_of_int port;
      "--wal-dir"; wal_dir;
      "--workers"; string_of_int workers;
      "--partitions"; string_of_int partitions;
      "--fsync-policy"; fsync_policy_string fsync_policy;
    ]
  in
  let child = Proc.spawn ~prog:Sys.executable_name ~args in
  let rec handshake replayed =
    match Proc.await_line ~timeout:30.0 child with
    | None -> Error "server never printed its listening line"
    | Some line -> (
      match
        Scanf.sscanf line "wal: dir %s@, replayed %d records, %d torn"
          (fun _ r t -> (r, t))
      with
      | replayed -> handshake (Some replayed)
      | exception _ -> (
        match
          Scanf.sscanf line "c4 server listening on 127.0.0.1:%d" Fun.id
        with
        | port -> Ok (child, port, replayed)
        | exception _ -> handshake replayed))
  in
  handshake None

(* A paced writer on the judged key: each op records its span; an
   [Error] leaves the response side open (ambiguous). *)
let judged_writer ~port ~client ~first ~count ~pace ~key () =
  let cl = make_client port in
  let ops = ref [] in
  for i = 0 to count - 1 do
    let v = first + i in
    let invoked = now () in
    let responded =
      match C4_net.Client.set cl ~key ~value:(int_value v) with
      | Ok () -> Some (now ())
      | Error _ -> None
    in
    ops := { client; kind = `Set v; invoked; responded } :: !ops;
    Unix.sleepf pace
  done;
  C4_net.Client.close cl;
  List.rev !ops

(* A paced reader: only successful reads enter the history (a failed
   read observed nothing). [None] reads the register's initial 0. *)
let judged_reader ~port ~client ~count ~pace ~key () =
  let cl = make_client port in
  let ops = ref [] in
  for _ = 1 to count do
    let invoked = now () in
    (match C4_net.Client.get cl ~key with
    | Ok v ->
      let v = match v with Some b -> value_int b | None -> 0 in
      ops := { client; kind = `Get v; invoked; responded = Some (now ()) } :: !ops
    | Error _ -> ());
    Unix.sleepf pace
  done;
  C4_net.Client.close cl;
  List.rev !ops

let kill_chaos_run wal_dir fsync_policy workers partitions kill_after fault_seed =
  let wal_dir =
    match wal_dir with
    | Some d -> d
    | None ->
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "c4-kill-chaos-%d" (Unix.getpid ()))
  in
  let kill_after =
    match kill_after with Some n -> max 1 n | None -> 6 + (fault_seed mod 6)
  in
  let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("c4_sim: " ^ m); exit 2) fmt in
  Printf.printf "kill-chaos: wal %s, fsync %s, SIGKILL after %d sealed acks\n%!"
    wal_dir (fsync_policy_string fsync_policy) kill_after;
  (* Boot the victim. *)
  let child, port, _ =
    match spawn_server ~port:0 ~wal_dir ~workers ~partitions ~fsync_policy with
    | Ok r -> r
    | Error e -> fail "spawn: %s" e
  in
  (* Concurrent load on one judged key while the seal-and-kill sequence
     runs: two writers with disjoint value ranges and a reader, all
     riding the long-deadline retry policy so ops in flight at the kill
     survive into the restarted server (and exercise cross-restart
     idempotency-token dedup on their retries). *)
  let judged_key = 0 in
  let wa =
    Domain.spawn
      (judged_writer ~port ~client:"A" ~first:1 ~count:8 ~pace:0.04 ~key:judged_key)
  and wb =
    Domain.spawn
      (judged_writer ~port ~client:"B" ~first:101 ~count:8 ~pace:0.04 ~key:judged_key)
  and rr =
    Domain.spawn
      (judged_reader ~port ~client:"R" ~count:10 ~pace:0.035 ~key:judged_key)
  in
  (* Seal writes: [kill_after] distinct keys, each acknowledged before
     the SIGKILL — the set the restarted server MUST still serve. *)
  let sealed_base = 10_000 in
  let sealed_value i = (fault_seed * 1000) + i in
  let sealer = make_client port in
  for i = 0 to kill_after - 1 do
    match
      C4_net.Client.set sealer ~key:(sealed_base + i)
        ~value:(int_value (sealed_value i))
    with
    | Ok () -> ()
    | Error e -> fail "sealed write %d not acknowledged pre-kill: %s" i e
  done;
  C4_net.Client.close sealer;
  (* The crash: kill -9, no warning, mid-load. *)
  Proc.kill child;
  (match Proc.wait child with
  | Some (Unix.WSIGNALED s) when s = Sys.sigkill ->
    Printf.printf "kill-chaos: server pid %d SIGKILLed\n%!" (Proc.pid child)
  | Some _ | None -> fail "victim did not die by SIGKILL");
  (* Restart on the same WAL directory and port; recovery replays. *)
  let child2, port2, replayed =
    match spawn_server ~port ~wal_dir ~workers ~partitions ~fsync_policy with
    | Ok r -> r
    | Error e -> fail "restart: %s" e
  in
  if port2 <> port then fail "restart bound port %d, wanted %d" port2 port;
  let replayed, truncations =
    match replayed with Some r -> r | None -> fail "restart printed no wal line"
  in
  Printf.printf "kill-chaos: restarted, replayed %d records (%d torn truncations)\n%!"
    replayed truncations;
  (* Collect the concurrent clients (their tail ops retried into the
     restarted server or timed out as ambiguous). *)
  let ops_a = Domain.join wa and ops_b = Domain.join wb and ops_r = Domain.join rr in
  (* Post-restart observations on the judged key. *)
  let post = make_client port in
  let post_ops = ref [] in
  for _ = 1 to 4 do
    let invoked = now () in
    match C4_net.Client.get post ~key:judged_key with
    | Ok v ->
      let v = match v with Some b -> value_int b | None -> 0 in
      post_ops :=
        { client = "M"; kind = `Get v; invoked; responded = Some (now ()) }
        :: !post_ops
    | Error e -> fail "post-restart read failed: %s" e
  done;
  (* Durability check: every sealed (acknowledged) key must read back
     its exact value from the restarted server. *)
  let lost = ref 0 in
  for i = 0 to kill_after - 1 do
    match C4_net.Client.get post ~key:(sealed_base + i) with
    | Ok (Some b) when value_int b = sealed_value i -> ()
    | Ok (Some b) ->
      incr lost;
      Printf.printf "LOST: sealed key %d read %d, wanted %d\n" (sealed_base + i)
        (value_int b) (sealed_value i)
    | Ok None ->
      incr lost;
      Printf.printf "LOST: sealed key %d missing after restart\n" (sealed_base + i)
    | Error e ->
      incr lost;
      Printf.printf "LOST: sealed key %d unreadable after restart: %s\n"
        (sealed_base + i) e
  done;
  C4_net.Client.close post;
  (* Clean shutdown of the restarted server (SIGTERM drains + closes the
     WAL — the graceful half of the durability contract). *)
  Proc.kill ~signal:Sys.sigterm child2;
  (match Proc.wait ~timeout:30.0 child2 with
  | Some (Unix.WEXITED 0) -> ()
  | Some _ | None -> fail "restarted server did not exit cleanly on SIGTERM");
  (* Judge the merged pre/post-restart history. *)
  let end_time = now () +. 1e-6 in
  let to_history_op { client; kind; invoked; responded } =
    let responded = Option.value responded ~default:end_time in
    match kind with
    | `Set v -> History.set ~client ~value:v ~invoked ~responded
    | `Get v -> History.get ~client ~value:v ~invoked ~responded
  in
  let all = ops_a @ ops_b @ ops_r @ List.rev !post_ops in
  let history = History.of_ops (List.map to_history_op all) in
  let ambiguous =
    List.length (List.filter (fun o -> o.responded = None) all)
  in
  Printf.printf
    "kill-chaos: judging %d ops (%d ambiguous at the kill) across the restart\n%!"
    (History.length history) ambiguous;
  let verdict = Lin.check history in
  let linearizable = match verdict with Lin.Linearizable _ -> true | Lin.Not_linearizable -> false in
  if (not linearizable) || !lost > 0 || replayed < kill_after then begin
    if not linearizable then begin
      Printf.printf "history NOT linearizable:\n";
      List.iter
        (fun { client; kind; invoked; responded } ->
          let k, v = match kind with `Set v -> ("set", v) | `Get v -> ("get", v) in
          Printf.printf "  %s %s %d [%.6f, %s]\n" client k v invoked
            (match responded with
            | Some r -> Printf.sprintf "%.6f" r
            | None -> "?"))
        all
    end;
    if replayed < kill_after then
      Printf.printf "replayed %d < %d sealed acknowledged writes\n" replayed
        kill_after;
    Printf.printf "KILL CHAOS FAILED (%d sealed writes lost)\n" !lost;
    exit 1
  end;
  Printf.printf
    "KILL CHAOS OK: %d sealed writes survived kill -9, %d-op merged history linearizable\n"
    kill_after (History.length history)

let chaos_run system write_frac theta rate n_requests fault_seed fault_profile
    no_retry budget_ratio shed ewt_ttl trace_file =
  let module Server = C4_model.Server in
  let module Fault = C4_resilience.Fault in
  let module Retry = C4_resilience.Retry in
  let module Chaos = C4_resilience.Chaos in
  let profile =
    match fault_profile with
    | "default" -> Fault.default
    | "none" -> Fault.none
    | s -> (
      match Fault.parse s with
      | Ok p -> p
      | Error e ->
        prerr_endline ("c4_sim: " ^ e);
        exit 2)
  in
  let tracer =
    match trace_file with Some _ -> C4_obs.Trace.create () | None -> C4_obs.Trace.null
  in
  let registry = C4_obs.Registry.create () in
  let base = C4.Config.model system in
  let server =
    {
      base with
      Server.trace = tracer;
      registry = Some registry;
      crew =
        {
          base.Server.crew with
          C4_crew.Config.shed =
            (if shed then Some C4_crew.Config.default_shed else None);
          ewt_ttl =
            (if ewt_ttl > 0.0 then
               Some { C4_crew.Config.ttl = ewt_ttl; sweep_interval = ewt_ttl /. 4.0 }
             else None);
        };
    }
  in
  let workload =
    {
      (C4.Config.workload_rw_sk ~theta ~write_fraction:(write_frac /. 100.0)) with
      C4_workload.Generator.rate = rate /. 1e3;
    }
  in
  let retry =
    if no_retry then None
    else Some { Retry.default with Retry.budget_ratio }
  in
  let report =
    Chaos.run ?retry ~server ~workload ~n_requests ~profile ~fault_seed ()
  in
  Printf.printf "system=%s gamma=%.2f f_wr=%.0f%% @ %.0f MRPS\n"
    (C4.Config.name system) theta write_frac rate;
  Format.printf "%a@." Chaos.pp_report report;
  print_newline ();
  print_endline "registered metrics:";
  C4_stats.Table.print (C4_obs.Registry.to_table registry);
  match trace_file with
  | None -> ()
  | Some path ->
    (try C4_obs.Chrome.save tracer ~path
     with Sys_error msg ->
       prerr_endline ("c4_sim: cannot write trace: " ^ msg);
       exit 1);
    Printf.printf "\nwrote %s\n" path

let cmd =
  let fault_seed =
    Arg.(value & opt int 42 & info [ "fault-seed" ] ~docv:"SEED"
           ~doc:"Seed of the fault schedule; equal seeds replay byte-identically.")
  in
  let fault_profile =
    Arg.(value & opt string "default" & info [ "fault-profile" ] ~docv:"PROFILE"
           ~doc:"Fault intensities: $(b,default), $(b,none), or \
                 corrupt=P,leak=P,straggler=P,straggler_scale=X,straggler_len=NS,\
                 burst=P,burst_factor=X,burst_window=NS (unset keys are zero/neutral).")
  in
  let no_retry =
    Arg.(value & flag & info [ "no-retry" ] ~doc:"Disable the client retry policy.")
  in
  let budget_ratio =
    Arg.(value & opt float 0.5 & info [ "retry-budget" ] ~docv:"RATIO"
           ~doc:"Retry-budget credits granted per dropped original.")
  in
  let shed =
    Arg.(value & flag & info [ "shed" ] ~doc:"Enable adaptive load shedding.")
  in
  let ewt_ttl =
    Arg.(value & opt float 0.0 & info [ "ewt-ttl" ] ~docv:"NS"
           ~doc:"Reclaim EWT entries idle for $(docv) ns (0 = never); the \
                 countermeasure to leaked releases.")
  in
  let trace_file =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write a Chrome trace-event JSON of the chaotic run to $(docv).")
  in
  let kill_server =
    Arg.(value & flag & info [ "kill-server" ]
           ~doc:"Process-level chaos instead of the simulator: fork a real \
                 serve child on --wal-dir, SIGKILL it mid-load at a seeded \
                 point, restart it on the same directory, and judge the \
                 merged pre/post-restart history for linearizability. Exits \
                 nonzero if an acknowledged write was lost or the history \
                 is not linearizable.")
  in
  let kill_after =
    Arg.(value & opt (some int) None & info [ "kill-after" ] ~docv:"N"
           ~doc:"With --kill-server: SIGKILL after $(docv) sealed \
                 acknowledged writes (default: derived from --fault-seed).")
  in
  let run kill_server wal_dir fsync_policy workers partitions kill_after system
      write_frac theta rate n_requests fault_seed fault_profile no_retry
      budget_ratio shed ewt_ttl trace_file =
    if kill_server then
      kill_chaos_run wal_dir fsync_policy workers partitions kill_after
        fault_seed
    else
      chaos_run system write_frac theta rate n_requests fault_seed
        fault_profile no_retry budget_ratio shed ewt_ttl trace_file
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Deterministic fault-injection run: corrupted packets, stragglers, \
             EWT leaks, bursts — with client retries fighting back. With \
             $(b,--kill-server), real process-kill chaos: SIGKILL a forked \
             serve child mid-load and prove durability across its restart.")
    Term.(
      const run $ kill_server $ wal_dir_arg $ fsync_policy_arg $ workers_arg
      $ partitions_arg $ kill_after $ system_arg ~default:C4.Config.Comp ()
      $ write_frac_arg ~default:30.0 () $ theta_arg ~default:0.99 () $ rate_arg ()
      $ n_requests_arg () $ fault_seed $ fault_profile $ no_retry $ budget_ratio
      $ shed $ ewt_ttl $ trace_file)
