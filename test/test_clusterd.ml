(* Cluster runtime tests: shard-map codec and promotion algebra, the
   replication wire over a socketpair, the routing client's epoch
   convergence against fake nodes (exactly-once tokens, bounded
   refetches), and the full 3-node kill-the-leader chaos proof. *)

module Shardmap = C4_clusterd.Shardmap
module Routing = C4_clusterd.Routing
module Repl = C4_clusterd.Repl
module Wire = C4_net.Wire
module Record = C4_wal.Record
module Retry = C4_resilience.Retry

let two_nodes =
  List.init 2 (fun i ->
      {
        Shardmap.id = i;
        host = "127.0.0.1";
        port = 0;
        repl_port = 1;
        telemetry_port = 1;
      })

(* ---------------- Shardmap ---------------- *)

let test_shardmap_initial () =
  let m = Shardmap.initial ~nodes:two_nodes ~n_shards:4 in
  Alcotest.(check int) "epoch 1" 1 (Shardmap.epoch m);
  Alcotest.(check int) "shards" 4 (Shardmap.n_shards m);
  Alcotest.(check int) "nodes" 2 (Shardmap.n_nodes m);
  (match Shardmap.validate m with
  | Ok () -> ()
  | Error e -> Alcotest.failf "initial map invalid: %s" e);
  for s = 0 to 3 do
    Alcotest.(check int) "round-robin leader" (s mod 2)
      (Shardmap.leader_of_shard m s);
    Alcotest.(check (list int)) "replicas = the others"
      [ 1 - (s mod 2) ]
      (Shardmap.replicas_of_shard m s)
  done

let test_shardmap_codec_roundtrip () =
  let m = Shardmap.initial ~nodes:two_nodes ~n_shards:4 in
  let m = Shardmap.promote m ~dead:0 ~new_leaders:[ (0, 1); (2, 1) ] in
  match Shardmap.decode (Shardmap.encode m) with
  | Error e -> Alcotest.failf "decode: %s" e
  | Ok m' ->
    Alcotest.(check int) "epoch" (Shardmap.epoch m) (Shardmap.epoch m');
    Alcotest.(check int) "n_shards" (Shardmap.n_shards m) (Shardmap.n_shards m');
    for s = 0 to Shardmap.n_shards m - 1 do
      Alcotest.(check int) "leader" (Shardmap.leader_of_shard m s)
        (Shardmap.leader_of_shard m' s);
      Alcotest.(check (list int)) "replicas" (Shardmap.replicas_of_shard m s)
        (Shardmap.replicas_of_shard m' s)
    done;
    let n = Shardmap.node m 1 and n' = Shardmap.node m' 1 in
    Alcotest.(check string) "host" n.Shardmap.host n'.Shardmap.host;
    Alcotest.(check int) "repl_port" n.Shardmap.repl_port n'.Shardmap.repl_port

let test_shardmap_decode_rejects_garbage () =
  (match Shardmap.decode (Bytes.of_string "not json") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage decoded");
  (* Structurally valid JSON, semantically invalid map (leader out of
     range) must be rejected by the embedded validate. *)
  match
    Shardmap.decode
      (Bytes.of_string
         {|{"epoch":1,"n_shards":1,"nodes":[{"id":0,"host":"h","port":1,"repl_port":2,"telemetry_port":3}],"shards":[{"leader":7,"replicas":[]}]}|})
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "out-of-range leader accepted"

let test_shardmap_promote () =
  let m = Shardmap.initial ~nodes:two_nodes ~n_shards:4 in
  (* Node 0 led shards 0 and 2; hand both to node 1. *)
  let m' = Shardmap.promote m ~dead:0 ~new_leaders:[ (0, 1); (2, 1) ] in
  Alcotest.(check int) "one epoch bump" 2 (Shardmap.epoch m');
  for s = 0 to 3 do
    Alcotest.(check int) "node 1 leads everything" 1
      (Shardmap.leader_of_shard m' s);
    Alcotest.(check (list int)) "dead node dropped from replicas" []
      (Shardmap.replicas_of_shard m' s)
  done;
  match Shardmap.validate m' with
  | Ok () -> ()
  | Error e -> Alcotest.failf "promoted map invalid: %s" e

let test_shardmap_routing_contract () =
  (* shard_of_key must be Hash.node_of_key with n_nodes = n_shards:
     the one routing function every layer shares. *)
  let m = Shardmap.initial ~nodes:two_nodes ~n_shards:8 in
  for key = 0 to 999 do
    Alcotest.(check int) "shard_of_key = node_of_key over shards"
      (C4_kvs.Hash.node_of_key ~n_nodes:8 key)
      (Shardmap.shard_of_key m key)
  done

let test_quorum_needed () =
  let m = Shardmap.initial ~nodes:two_nodes ~n_shards:2 in
  (* 1 replica: majority of the 2-member group needs 1 replica ack. *)
  Alcotest.(check int) "1 replica -> 1 ack" 1 (Shardmap.quorum_needed m ~shard:0);
  let nodes3 =
    List.init 3 (fun i ->
        { (List.hd two_nodes) with Shardmap.id = i })
  in
  let m3 = Shardmap.initial ~nodes:nodes3 ~n_shards:1 in
  (* 2 replicas: majority of 3 = 2, leader counts for itself -> 1 ack. *)
  Alcotest.(check int) "2 replicas -> 1 ack" 1 (Shardmap.quorum_needed m3 ~shard:0)

(* ---------------- replication wire over a socketpair ---------------- *)

let test_repl_codec_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
    (fun () ->
      Repl.write_hello a { Repl.h_epoch = 7; h_node_id = 2 };
      (match Repl.read_hello b with
      | Ok h ->
        Alcotest.(check int) "hello epoch" 7 h.Repl.h_epoch;
        Alcotest.(check int) "hello node" 2 h.Repl.h_node_id
      | Error e -> Alcotest.failf "read_hello: %s" e);
      Repl.write_welcome b (Repl.Accept [| 3; 0; 12 |]);
      (match Repl.read_welcome a with
      | Ok (Repl.Accept wms) ->
        Alcotest.(check (array int)) "watermarks" [| 3; 0; 12 |] wms
      | Ok (Repl.Reject _) -> Alcotest.fail "unexpected reject"
      | Error e -> Alcotest.failf "read_welcome: %s" e);
      Repl.write_welcome b (Repl.Reject { r_epoch = 9 });
      (match Repl.read_welcome a with
      | Ok (Repl.Reject { r_epoch }) -> Alcotest.(check int) "reject epoch" 9 r_epoch
      | Ok (Repl.Accept _) -> Alcotest.fail "unexpected accept"
      | Error e -> Alcotest.failf "read_welcome: %s" e);
      let buf = Buffer.create 64 in
      let record =
        {
          Record.seqno = 42;
          op = Record.Set { key = 5; value = Bytes.of_string "v"; token = Some 99 };
        }
      in
      Repl.write_record buf a ~shard:3 record;
      (match Repl.read_record b ~max_frame:(1 lsl 16) with
      | Ok (shard, r) ->
        Alcotest.(check int) "record shard" 3 shard;
        Alcotest.(check bool) "record payload" true (Record.equal record r)
      | Error e -> Alcotest.failf "read_record: %s" e);
      Repl.write_ack b ~shard:3 ~sseq:42;
      match Repl.read_ack a with
      | Ok (shard, sseq) ->
        Alcotest.(check int) "ack shard" 3 shard;
        Alcotest.(check int) "ack sseq" 42 sseq
      | Error e -> Alcotest.failf "read_ack: %s" e)

(* ---------------- fake nodes for routing tests ---------------- *)

(* A scripted node: a real TCP listener speaking the KVS wire protocol,
   answering every request through [respond] and logging what it saw.
   Single connection at a time is plenty for the routing client. *)
type fake = {
  f_port : int;
  f_fd : Unix.file_descr;
  f_thread : Thread.t;
  f_log : (Wire.op * int * int option) list ref;  (* op, key, token; newest first *)
  f_log_lock : Mutex.t;
  f_stop : bool Atomic.t;
}

let start_fake ~respond =
  let wire = Wire.create () in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen fd 8;
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  let log = ref [] in
  let log_lock = Mutex.create () in
  let stop = Atomic.make false in
  let serve_conn conn =
    let d = Wire.Decoder.create wire in
    let chunk = Bytes.create 4096 in
    let rec loop () =
      match Unix.read conn chunk 0 4096 with
      | 0 -> ()
      | n ->
        Wire.Decoder.feed d chunk ~off:0 ~len:n;
        let rec drain () =
          match Wire.Decoder.next_frame d with
          | `Awaiting -> loop ()
          | `Corrupt _ -> ()
          | `Frame body -> (
            match Wire.decode_request wire body with
            | Error _ -> ()
            | Ok req ->
              Mutex.lock log_lock;
              log := (req.Wire.op, req.Wire.key, req.Wire.token) :: !log;
              Mutex.unlock log_lock;
              let resp = respond req in
              let out = Wire.encode_response wire resp in
              let _ = Unix.write conn out 0 (Bytes.length out) in
              drain ())
        in
        drain ()
      | exception Unix.Unix_error _ -> ()
    in
    loop ();
    try Unix.close conn with Unix.Unix_error _ -> ()
  in
  let thread =
    Thread.create
      (fun () ->
        let rec accept_loop () =
          match Unix.accept fd with
          | conn, _ ->
            serve_conn conn;
            if not (Atomic.get stop) then accept_loop ()
          | exception Unix.Unix_error _ -> ()
        in
        accept_loop ())
      ()
  in
  { f_port = port; f_fd = fd; f_thread = thread; f_log = log;
    f_log_lock = log_lock; f_stop = stop }

let stop_fake f =
  Atomic.set f.f_stop true;
  (try Unix.shutdown f.f_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  (try Unix.close f.f_fd with Unix.Unix_error _ -> ());
  Thread.join f.f_thread

let fake_log f =
  Mutex.lock f.f_log_lock;
  let l = List.rev !(f.f_log) in
  Mutex.unlock f.f_log_lock;
  l

let ok_response req =
  { Wire.resp_id = req.Wire.id; status = Wire.Ok; timing_ns = 0;
    resp_value = Bytes.empty }

let status_response req status value =
  { Wire.resp_id = req.Wire.id; status; timing_ns = 0; resp_value = value }

(* Map over two fake ports: one shard, [leader] leads it. *)
let fake_map ~port_a ~port_b ~epoch ~leader =
  let nodes =
    List.mapi
      (fun i p ->
        { Shardmap.id = i; host = "127.0.0.1"; port = p; repl_port = 1;
          telemetry_port = 1 })
      [ port_a; port_b ]
  in
  let m = Shardmap.initial ~nodes ~n_shards:1 in
  if leader = 0 then (
    assert (epoch = 1);
    m)
  else begin
    assert (epoch = 2);
    Shardmap.promote m ~dead:0 ~new_leaders:[ (0, 1) ]
  end

let tight_retry =
  {
    Retry.max_attempts = 4;
    base_backoff = 1e6;
    max_backoff = 1e7;
    deadline = 5e9;
    budget_ratio = 10.0;
    budget_burst = 100.0;
  }

(* The epoch-retry contract: a WRONG_SHARD redirect carries the newer
   map inline; the client installs it and re-dispatches — and the SET
   keeps its original idempotency token wherever it lands, so the
   cluster applies the logical write at most once. *)
let test_routing_wrong_shard_redirect () =
  (* Fake B (the real leader at epoch 2) answers Ok. *)
  let fake_b = ref None in
  let b = start_fake ~respond:ok_response in
  fake_b := Some b;
  (* Fake A (stale epoch-1 leader) redirects every request, carrying
     the epoch-2 map that points at B. *)
  let map2 = ref None in
  let a =
    start_fake ~respond:(fun req ->
        status_response req Wire.Wrong_shard
          (Shardmap.encode (Option.get !map2)))
  in
  map2 := Some (fake_map ~port_a:a.f_port ~port_b:b.f_port ~epoch:2 ~leader:1);
  let map1 = fake_map ~port_a:a.f_port ~port_b:b.f_port ~epoch:1 ~leader:0 in
  let rt = Routing.create (Routing.default_config ~retry:tight_retry) ~map:map1 in
  (match Routing.set rt ~key:123 ~value:(Bytes.of_string "v") with
  | Ok () -> ()
  | Error e -> Alcotest.failf "set via redirect: %s" e);
  let st = Routing.stats rt in
  Alcotest.(check int) "one redirect" 1 st.Routing.wrong_shard_redirects;
  Alcotest.(check int) "map installed from redirect payload" 1
    st.Routing.map_installs;
  Alcotest.(check int) "no refetch sweep needed" 0 st.Routing.map_refetches;
  Alcotest.(check int) "epoch converged" 2 st.Routing.epoch;
  (* Exactly-once: A saw the SET once, B saw it once, same token. *)
  let set_log f =
    List.filter_map
      (function Wire.Set, key, token -> Some (key, token) | _ -> None)
      (fake_log f)
  in
  (match (set_log a, set_log b) with
  | [ (ka, Some ta) ], [ (kb, Some tb) ] ->
    Alcotest.(check int) "same key at both nodes" ka kb;
    Alcotest.(check bool) "token fixed across nodes" true (ta = tb)
  | la, lb ->
    Alcotest.failf "expected one SET per node, got %d at A, %d at B"
      (List.length la) (List.length lb));
  Routing.close rt;
  stop_fake a;
  stop_fake b

(* Refetch path: the cached leader fails outright (no redirect), so the
   client sweeps the other nodes with CLUSTER_INFO, installs the newer
   map, and lands the retry — with the original token — on the new
   leader. Refetches stay bounded by the retry policy. *)
let test_routing_refetch_after_failure () =
  let map2 = ref None in
  let b =
    start_fake ~respond:(fun req ->
        match req.Wire.op with
        | Wire.Cluster_info ->
          status_response req Wire.Cluster_ok
            (Shardmap.encode (Option.get !map2))
        | Wire.Get | Wire.Set | Wire.Delete -> ok_response req)
  in
  (* A always errors: a sick node that still answers. *)
  let a =
    start_fake ~respond:(fun req ->
        status_response req Wire.Err (Bytes.of_string "sick"))
  in
  map2 := Some (fake_map ~port_a:a.f_port ~port_b:b.f_port ~epoch:2 ~leader:1);
  let map1 = fake_map ~port_a:a.f_port ~port_b:b.f_port ~epoch:1 ~leader:0 in
  let rt = Routing.create (Routing.default_config ~retry:tight_retry) ~map:map1 in
  (match Routing.set rt ~key:7 ~value:(Bytes.of_string "v") with
  | Ok () -> ()
  | Error e -> Alcotest.failf "set via refetch: %s" e);
  let st = Routing.stats rt in
  Alcotest.(check int) "one refetch sweep" 1 st.Routing.map_refetches;
  Alcotest.(check int) "newer map installed" 1 st.Routing.map_installs;
  Alcotest.(check int) "epoch converged" 2 st.Routing.epoch;
  let tokens_of f =
    List.filter_map
      (function Wire.Set, _, token -> token | _ -> None)
      (fake_log f)
  in
  (match (tokens_of a, tokens_of b) with
  | [ ta ], [ tb ] -> Alcotest.(check bool) "token survives refetch" true (ta = tb)
  | la, lb ->
    Alcotest.failf "expected one SET per node, got %d at A, %d at B"
      (List.length la) (List.length lb));
  Routing.close rt;
  stop_fake a;
  stop_fake b

(* When no node ever produces a newer map, the client must give up
   within the retry policy — bounded refetches, not an infinite sweep. *)
let test_routing_refetch_bounded () =
  let sick req = status_response req Wire.Err (Bytes.of_string "sick") in
  let a = start_fake ~respond:sick in
  let b = start_fake ~respond:sick in
  let map1 = fake_map ~port_a:a.f_port ~port_b:b.f_port ~epoch:1 ~leader:0 in
  let rt = Routing.create (Routing.default_config ~retry:tight_retry) ~map:map1 in
  (match Routing.set rt ~key:9 ~value:(Bytes.of_string "v") with
  | Ok () -> Alcotest.fail "set against all-sick cluster succeeded"
  | Error _ -> ());
  let st = Routing.stats rt in
  Alcotest.(check bool)
    (Printf.sprintf "refetches (%d) bounded by max_attempts (%d)"
       st.Routing.map_refetches tight_retry.Retry.max_attempts)
    true
    (st.Routing.map_refetches <= tight_retry.Retry.max_attempts);
  Alcotest.(check int) "nothing installed" 0 st.Routing.map_installs;
  Routing.close rt;
  stop_fake a;
  stop_fake b

(* ---------------- 3-node kill-the-leader chaos ---------------- *)

let rm_rf dir = ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)))

(* Everything a run leaves goes into one per-pid directory: the WAL
   root and the child's log. A failed run keeps both and names them; a
   passing one removes them. *)
let test_cluster_chaos () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "c4-clusterd-test-%d" (Unix.getpid ()))
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  let wal_root = Filename.concat dir "wal" and log = Filename.concat dir "cluster_chaos.log" in
  let exe = Filename.concat (Filename.dirname Sys.executable_name) "../bin/c4_sim.exe" in
  let exe = if Sys.file_exists exe then exe else "../bin/c4_sim.exe" in
  let cmd =
    Printf.sprintf
      "%s clusterd --chaos --nodes 3 --shards 4 --workers 2 --partitions 8 \
       --wal-root %s > %s 2>&1"
      (Filename.quote exe) (Filename.quote wal_root) (Filename.quote log)
  in
  let passed = ref false in
  Fun.protect
    ~finally:(fun () -> if !passed then rm_rf dir)
    (fun () ->
      let rc = Sys.command cmd in
      if rc <> 0 then begin
        let ic = open_in log in
        let n = in_channel_length ic in
        let out = really_input_string ic n in
        close_in ic;
        Alcotest.failf "cluster-chaos exited %d; kept its log %s and WAL root %s:\n%s" rc log
          wal_root out
      end;
      passed := true)

let tests =
  [
    Alcotest.test_case "shardmap initial layout" `Quick test_shardmap_initial;
    Alcotest.test_case "shardmap codec roundtrip" `Quick test_shardmap_codec_roundtrip;
    Alcotest.test_case "shardmap decode validates" `Quick test_shardmap_decode_rejects_garbage;
    Alcotest.test_case "shardmap promote bumps epoch once" `Quick test_shardmap_promote;
    Alcotest.test_case "shardmap shares the node_of_key contract" `Quick test_shardmap_routing_contract;
    Alcotest.test_case "quorum arithmetic" `Quick test_quorum_needed;
    Alcotest.test_case "replication wire roundtrip" `Quick test_repl_codec_roundtrip;
    Alcotest.test_case "routing follows WRONG_SHARD with one token" `Quick test_routing_wrong_shard_redirect;
    Alcotest.test_case "routing refetches map after node failure" `Quick test_routing_refetch_after_failure;
    Alcotest.test_case "routing refetches are bounded" `Quick test_routing_refetch_bounded;
    Alcotest.test_case "3-node kill-the-leader chaos passes" `Slow test_cluster_chaos;
  ]
