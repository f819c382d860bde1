module Json = C4_obs.Json
module Client = C4_net.Client
module Sync = C4_runtime.Sync

type event =
  | Probe_failed of { node : int; consecutive : int }
  | Node_dead of int
  | Promoted of { epoch : int; dead : int; new_leaders : (int * int) list }
  | Published of { epoch : int; node : int }
  | Publish_failed of { node : int; reason : string }
  | Shard_stranded of int

type config = {
  poll_interval : float;
  fail_threshold : int;
  probe_timeout : float;
  on_event : event -> unit;
}

let default_config =
  {
    poll_interval = 0.15;
    fail_threshold = 2;
    probe_timeout = 1.0;
    on_event = (fun _ -> ());
  }

type t = {
  cfg : config;
  lock : Mutex.t;
  mutable map : Shardmap.t;
  mutable dead : int list;  (* nodes already failed over *)
  mutable stop : bool;
  mutable thread : Thread.t option;
}

(* ---------------- /healthz probe ---------------- *)

(* Minimal HTTP/1.0 GET against the node's telemetry endpoint; the
   response is tiny and Connection: close, so read-to-EOF is the
   framing. *)
let http_get_health ~timeout node =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      try
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
        Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout;
        Unix.connect fd
          (Unix.ADDR_INET
             ( Unix.inet_addr_of_string node.Shardmap.host,
               node.Shardmap.telemetry_port ));
        let req = Bytes.of_string "GET /healthz HTTP/1.0\r\n\r\n" in
        let _ = Unix.write fd req 0 (Bytes.length req) in
        let buf = Buffer.create 1024 in
        let chunk = Bytes.create 4096 in
        let rec drain () =
          match Unix.read fd chunk 0 4096 with
          | 0 -> ()
          | n ->
            Buffer.add_subbytes buf chunk 0 n;
            drain ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
        in
        drain ();
        let s = Buffer.contents buf in
        match String.index_opt s '{' with
        | None -> Error "no JSON body"
        | Some i -> (
          match Json.of_string (String.sub s i (String.length s - i)) with
          | j -> Ok j
          | exception Json.Parse_error msg -> Error msg)
      with Unix.Unix_error (e, _, _) -> Error (Unix.error_message e))

let watermarks_of_health j =
  match Option.bind (Json.member "cluster" j) (Json.member "watermarks") with
  | None -> None
  | Some wms ->
    Option.map
      (fun l -> Array.of_list (List.map (fun v -> Option.value ~default:0 (Json.to_int_opt v)) l))
      (Json.to_list_opt wms)

(* ---------------- failover ---------------- *)

let publish t m =
  let nodes =
    List.filter
      (fun i -> not (List.mem i t.dead))
      (List.init (Shardmap.n_nodes m) (fun i -> i))
  in
  List.iter
    (fun i ->
      let nd = Shardmap.node m i in
      let client =
        Client.create
          (Client.default_config ~host:nd.Shardmap.host ~port:nd.Shardmap.port)
      in
      (match Client.cluster_info client ~payload:(Shardmap.encode m) () with
      | Ok _ -> t.cfg.on_event (Published { epoch = Shardmap.epoch m; node = i })
      | Error reason -> t.cfg.on_event (Publish_failed { node = i; reason }));
      Client.close client)
    nodes

(* Promote, per shard the dead node led, the live replica whose
   repl-log watermark for that shard is highest — by the quorum-ack
   invariant every acknowledged write sits at or below some majority
   member's watermark, so the argmax replica holds all of them. *)
let failover t ~dead =
  let map = t.map in
  let led = ref [] in
  for s = Shardmap.n_shards map - 1 downto 0 do
    if Shardmap.leader_of_shard map s = dead then led := s :: !led
  done;
  (* Fresh watermarks from every live replica of an affected shard. *)
  let health = Hashtbl.create 8 in
  let wm_of node shard =
    let wms =
      match Hashtbl.find_opt health node with
      | Some wms -> wms
      | None ->
        let wms =
          match http_get_health ~timeout:t.cfg.probe_timeout (Shardmap.node map node) with
          | Ok j -> Option.value ~default:[||] (watermarks_of_health j)
          | Error _ -> [||]
        in
        Hashtbl.replace health node wms;
        wms
    in
    if shard < Array.length wms then wms.(shard) else -1
  in
  let new_leaders =
    List.filter_map
      (fun s ->
        let live =
          List.filter (fun r -> not (List.mem r t.dead) && r <> dead)
            (Shardmap.replicas_of_shard map s)
        in
        let best =
          List.fold_left
            (fun acc r ->
              let wm = wm_of r s in
              match acc with
              | Some (_, best_wm) when best_wm >= wm -> acc
              | _ when wm >= 0 -> Some (r, wm)
              | _ -> acc)
            None live
        in
        match best with
        | Some (r, _) -> Some (s, r)
        | None ->
          t.cfg.on_event (Shard_stranded s);
          None)
      !led
  in
  let m = Shardmap.promote map ~dead ~new_leaders in
  t.map <- m;
  t.dead <- dead :: t.dead;
  t.cfg.on_event (Promoted { epoch = Shardmap.epoch m; dead; new_leaders });
  publish t m

(* ---------------- poll loop ---------------- *)

let loop t () =
  let n = Shardmap.n_nodes t.map in
  let failures = Array.make n 0 in
  let stopped () = Sync.with_lock t.lock (fun () -> t.stop) in
  while not (stopped ()) do
    for i = 0 to n - 1 do
      if not (stopped ()) && not (List.mem i t.dead) then begin
        match http_get_health ~timeout:t.cfg.probe_timeout (Shardmap.node t.map i) with
        | Ok _ -> failures.(i) <- 0
        | Error _ ->
          failures.(i) <- failures.(i) + 1;
          t.cfg.on_event (Probe_failed { node = i; consecutive = failures.(i) });
          if failures.(i) >= t.cfg.fail_threshold then begin
            t.cfg.on_event (Node_dead i);
            failover t ~dead:i
          end
      end
    done;
    if not (stopped ()) then Unix.sleepf t.cfg.poll_interval
  done

let start config ~map =
  (match Shardmap.validate map with
  | Ok () -> ()
  | Error e -> invalid_arg ("Supervisor.start: bad map: " ^ e));
  let t =
    { cfg = config; lock = Mutex.create (); map; dead = []; stop = false; thread = None }
  in
  t.thread <- Some (Thread.create (loop t) ());
  t

let current_map t = t.map
let dead_nodes t = t.dead

let stop t =
  Sync.with_lock t.lock (fun () -> t.stop <- true);
  match t.thread with
  | Some th ->
    Thread.join th;
    t.thread <- None
  | None -> ()
