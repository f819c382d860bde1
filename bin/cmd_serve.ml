(* Network serving: a real TCP front-end over the multicore runtime,
   with an optional live telemetry plane on a second port and an
   optional per-partition WAL for durability across restarts. *)

open Cmdliner
open Cmd_common
module Json = C4_obs.Json

(* The /healthz document: liveness plus the load-visible runtime state
   (inflight, per-worker ownership census, durability). *)
let health_doc ~t0 ~runtime ~srv ~wal_enabled ~member () =
  let sstats = C4_net.Server.stats srv in
  let rstats = C4_runtime.Server.stats runtime in
  let ownership =
    Array.to_list (C4_runtime.Server.ownership_counts runtime)
  in
  let cluster_fields =
    match member with
    | None -> []
    | Some m -> [ C4_clusterd.Member.health_json m ]
  in
  Json.Obj
    (cluster_fields
    @ [
      ("status", Json.Str "ok");
      ("uptime_s", Json.Float (Unix.gettimeofday () -. t0));
      ("port", Json.Int (C4_net.Server.port srv));
      ("conns_active", Json.Int sstats.C4_net.Server.conns_active);
      ("conns_accepted", Json.Int sstats.C4_net.Server.conns_accepted);
      ("requests", Json.Int sstats.C4_net.Server.requests);
      ("inflight", Json.Int sstats.C4_net.Server.inflight);
      ("protocol_errors", Json.Int sstats.C4_net.Server.protocol_errors);
      ("alive_workers", Json.Int (C4_runtime.Server.alive_workers runtime));
      ("recoveries", Json.Int rstats.C4_runtime.Server.recoveries);
      ("wal_enabled", Json.Bool wal_enabled);
      ("wal_replayed", Json.Int rstats.C4_runtime.Server.wal_replayed);
      ( "ownership_counts",
        Json.List (List.map (fun c -> Json.Int c) ownership) );
    ])

(* Cluster membership is file-configured: the map names every node's
   addresses, so in cluster mode the map (not -p/--telemetry-port)
   decides where this node listens. *)
let load_cluster_map path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let b = Bytes.create len in
  really_input ic b 0 len;
  close_in ic;
  match C4_clusterd.Shardmap.decode b with
  | Ok m -> m
  | Error e -> failwith (Printf.sprintf "bad cluster map %s: %s" path e)

let serve_run port telemetry_port n_workers n_partitions compaction wal_dir
    fsync_policy duration cluster_map node_id repl_ack =
  let t0 = Unix.gettimeofday () in
  let cluster =
    match cluster_map with
    | None -> None
    | Some path ->
      if wal_dir = None then
        failwith "--cluster-map requires --wal-dir (replication rides the WAL)";
      let map = load_cluster_map path in
      if node_id < 0 || node_id >= C4_clusterd.Shardmap.n_nodes map then
        failwith "--node-id out of range for the cluster map";
      Some (map, C4_clusterd.Shardmap.node map node_id)
  in
  let port, telemetry_port =
    match cluster with
    | None -> (port, telemetry_port)
    | Some (_, me) ->
      (me.C4_clusterd.Shardmap.port, Some me.C4_clusterd.Shardmap.telemetry_port)
  in
  (* One shared thread-safe registry: crew.* (runtime), net.* (server),
     wal.* and the telemetry endpoint all see the same namespace. *)
  let registry = C4_obs.Registry.create ~thread_safe:true () in
  let wal = wal_config ~wal_dir ~fsync_policy ~n_partitions in
  let runtime =
    C4_runtime.Server.start
      (runtime_config ~registry ?wal n_workers n_partitions compaction)
  in
  (* Parseable recovery line (before the listening line, so harnesses
     reading stdout sequentially see recovery state first). *)
  (match wal_dir with
  | None -> ()
  | Some dir ->
    let rstats = C4_runtime.Server.stats runtime in
    let read name =
      match C4_obs.Registry.read registry name with
      | Some v -> int_of_float v
      | None -> 0
    in
    Printf.printf
      "wal: dir %s, replayed %d records, %d torn truncations, policy %s\n%!"
      dir
      rstats.C4_runtime.Server.wal_replayed
      (read "wal.torn_truncations")
      (C4_wal.Wal.fsync_policy_to_string fsync_policy));
  let member =
    match cluster with
    | None -> None
    | Some (map, me) ->
      let m =
        C4_clusterd.Member.create ~registry ~runtime
          {
            (C4_clusterd.Member.default_config ~node_id
               ~initial_map:map
               ~repl_dir:(Filename.concat (Option.get wal_dir) "repl"))
            with
            C4_clusterd.Member.ack = repl_ack;
            repl_fsync = fsync_policy;
          }
      in
      (* Parseable cluster line for harnesses, mirroring the wal line. *)
      Printf.printf "cluster: node %d, epoch %d, %d shards, repl %s:%d, ack %s\n%!"
        node_id
        (C4_clusterd.Shardmap.epoch map)
        (C4_clusterd.Shardmap.n_shards map)
        me.C4_clusterd.Shardmap.host me.C4_clusterd.Shardmap.repl_port
        (C4_clusterd.Member.ack_mode_to_string repl_ack);
      Some m
  in
  let srv =
    C4_net.Server.start ~registry
      {
        C4_net.Server.default_config with
        port;
        cluster = Option.map C4_clusterd.Member.hooks member;
      }
      ~runtime
  in
  let telemetry =
    match telemetry_port with
    | None -> None
    | Some tport -> (
      match
        C4_obs.Telemetry.try_start ~port:tport ~registry
          ~health:
            (health_doc ~t0 ~runtime ~srv ~wal_enabled:(wal_dir <> None)
               ~member)
          ()
      with
      | Ok tel ->
        Printf.printf "telemetry on http://127.0.0.1:%d (/metrics, /healthz)\n%!"
          (C4_obs.Telemetry.port tel);
        Some tel
      | Error msg ->
        (* Port collisions are routine on shared boxes; keep serving. *)
        Printf.printf "telemetry disabled: %s\n%!" msg;
        None)
  in
  Printf.printf
    "c4 server listening on 127.0.0.1:%d (%d workers, %d partitions%s%s%s)\n%!"
    (C4_net.Server.port srv) n_workers n_partitions
    (if compaction then ", compaction on" else "")
    (if wal_dir <> None then ", wal on" else "")
    (if Option.is_some member then ", cluster on" else "");
  (match duration with
  | Some s -> (try Unix.sleepf s with Unix.Unix_error (Unix.EINTR, _, _) -> ())
  | None ->
    let stop_flag = Atomic.make false in
    let on_sig _ = Atomic.set stop_flag true in
    Sys.set_signal Sys.sigint (Sys.Signal_handle on_sig);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle on_sig);
    while not (Atomic.get stop_flag) do
      try Unix.sleepf 0.2 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done);
  (* Telemetry first (health reads server stats), then net layer, then
     runtime: the drain order that guarantees every accepted request is
     answered before workers tear down. Runtime [stop] finishes by
     flushing + fsyncing + closing the WAL, so a SIGTERM'd server leaves
     no torn tail — the clean-shutdown durability contract. *)
  Option.iter C4_obs.Telemetry.stop telemetry;
  (* Member before net stop: it releases quorum-held acks and detaches
     the WAL hooks, so the net drain cannot wait on replication. *)
  Option.iter C4_clusterd.Member.close member;
  C4_net.Server.stop srv;
  C4_runtime.Server.stop runtime;
  let st = C4_net.Server.stats srv in
  Printf.printf
    "served %d requests on %d connections (%d B in, %d B out, %d protocol errors)\n"
    st.C4_net.Server.requests st.C4_net.Server.conns_accepted
    st.C4_net.Server.bytes_in st.C4_net.Server.bytes_out
    st.C4_net.Server.protocol_errors;
  C4_stats.Table.print (C4_obs.Registry.to_table (C4_net.Server.registry srv))

let cmd =
  let port =
    Arg.(value & opt int 4150 & info [ "p"; "port" ] ~docv:"PORT"
           ~doc:"TCP port to listen on (0 = ephemeral).")
  in
  let telemetry_port =
    Arg.(value & opt (some int) None & info [ "telemetry-port" ] ~docv:"PORT"
           ~doc:"Serve Prometheus /metrics and JSON /healthz over HTTP on \
                 $(docv) (0 = ephemeral; default: no telemetry listener).")
  in
  let duration =
    Arg.(value & opt (some float) None & info [ "duration" ] ~docv:"SECONDS"
           ~doc:"Serve for $(docv) then drain and exit (default: until SIGINT).")
  in
  let cluster_map =
    Arg.(value & opt (some file) None & info [ "cluster-map" ] ~docv:"FILE"
           ~doc:"Join the cluster described by the shard-map JSON in $(docv) \
                 (requires --wal-dir; the map's node entry overrides -p and \
                 --telemetry-port).")
  in
  let node_id =
    Arg.(value & opt int 0 & info [ "node-id" ] ~docv:"N"
           ~doc:"This node's index in the cluster map's node table.")
  in
  let repl_ack =
    let ack_conv =
      Arg.conv
        ( (fun s ->
            Result.map_error
              (fun m -> `Msg m)
              (C4_clusterd.Member.ack_mode_of_string s)),
          fun ppf m ->
            Format.pp_print_string ppf (C4_clusterd.Member.ack_mode_to_string m) )
    in
    Arg.(value & opt ack_conv C4_clusterd.Member.Quorum & info [ "repl-ack" ]
           ~docv:"MODE"
           ~doc:"Replication ack mode: $(b,quorum) (a write is acknowledged \
                 once a majority of its shard's replicas hold it) or \
                 $(b,leader) (ack on local durability, replicate \
                 asynchronously).")
  in
  let run port telemetry_port workers partitions no_compaction wal_dir
      fsync_policy duration cluster_map node_id repl_ack =
    serve_run port telemetry_port workers partitions (not no_compaction)
      wal_dir fsync_policy duration cluster_map node_id repl_ack
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve the multicore KVS over TCP (CREW routing, compaction, \
             recovery), optionally durable via a per-partition write-ahead \
             log, observable via live telemetry on a second port, and \
             optionally a member of a replicated cluster (--cluster-map).")
    Term.(
      const run $ port $ telemetry_port $ workers_arg $ partitions_arg
      $ no_compaction_arg $ wal_dir_arg $ fsync_policy_arg $ duration
      $ cluster_map $ node_id $ repl_ack)
