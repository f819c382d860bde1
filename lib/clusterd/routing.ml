module Wire = C4_net.Wire
module Client = C4_net.Client
module Retry = C4_resilience.Retry
module Sync = C4_runtime.Sync
module Promise = C4_runtime.Promise

type config = {
  retry : Retry.config;
  retry_seed : int;
  conns_per_host : int;
  max_frame : int;
}

let default_config ~retry = { retry; retry_seed = 1; conns_per_host = 1; max_frame = 1 lsl 20 }

type t = {
  cfg : config;
  lock : Mutex.t;
  mutable map : Shardmap.t;
  mutable closed : bool;
  clients : (int, Client.t) Hashtbl.t;  (* node id -> single-node client *)
  budget : Retry.Budget.budget;
  budget_lock : Mutex.t;
  token_nonce : int;
  next_token : int Atomic.t;
  refetch_cursor : int Atomic.t;
  s_wrong_shard : int Atomic.t;
  s_refetches : int Atomic.t;
  s_installs : int Atomic.t;
  s_retries : int Atomic.t;
}

(* Same construction as Net.Client's token nonce: unique-enough across
   client instances sharing a server, folded into 60 bits so tokens
   stay non-negative after xor-ing in the counter. *)
let make_nonce () =
  let h =
    Hashtbl.hash (Unix.getpid (), Unix.gettimeofday (), Sys.opaque_identity (ref ()))
  in
  (h lsl 30) lxor Hashtbl.hash (Unix.gettimeofday ()) land max_int

let create config ~map =
  (match Shardmap.validate map with
  | Ok () -> ()
  | Error e -> invalid_arg ("Routing.create: bad map: " ^ e));
  {
    cfg = config;
    lock = Mutex.create ();
    map;
    closed = false;
    clients = Hashtbl.create 8;
    budget = Retry.Budget.create config.retry;
    budget_lock = Mutex.create ();
    token_nonce = make_nonce ();
    next_token = Atomic.make 1;
    refetch_cursor = Atomic.make 0;
    s_wrong_shard = Atomic.make 0;
    s_refetches = Atomic.make 0;
    s_installs = Atomic.make 0;
    s_retries = Atomic.make 0;
  }

let current_map t = Sync.with_lock t.lock (fun () -> t.map)

(* Node identity (host/ports) is epoch-invariant, so clients cache by
   node id for the routing handle's lifetime. *)
let client_of t node =
  Sync.with_lock t.lock (fun () ->
      if t.closed then invalid_arg "Routing: closed";
      match Hashtbl.find_opt t.clients node with
      | Some c -> c
      | None ->
        let nd = Shardmap.node t.map node in
        let c =
          Client.create
            {
              (Client.default_config ~host:nd.Shardmap.host ~port:nd.Shardmap.port) with
              Client.conns = t.cfg.conns_per_host;
              max_frame = t.cfg.max_frame;
              retry = None;  (* this layer drives all retries itself *)
            }
        in
        Hashtbl.replace t.clients node c;
        c)

let install t m =
  Sync.with_lock t.lock (fun () ->
      if Shardmap.epoch m > Shardmap.epoch t.map then begin
        t.map <- m;
        Atomic.incr t.s_installs
      end)

let install_bytes t b =
  match Shardmap.decode b with Ok m -> install t m | Error _ -> ()

(* One CLUSTER_INFO sweep over the other nodes (round-robin start so a
   hot retry loop doesn't hammer node 0), installing the first newer
   map found. *)
let refetch_map t ~exclude =
  Atomic.incr t.s_refetches;
  let map = current_map t in
  let n = Shardmap.n_nodes map in
  let start = Atomic.fetch_and_add t.refetch_cursor 1 in
  let rec go i =
    if i < n then begin
      let node = (start + i) mod n in
      if node = exclude then go (i + 1)
      else begin
        match Client.cluster_info (client_of t node) () with
        | Ok b ->
          install_bytes t b;
          ()
        | Error _ -> go (i + 1)
      end
    end
  in
  if n > 1 then go 0

let one_shot client ~op ~key ~value ~token =
  let p = Promise.create () in
  let (_ : int) =
    Client.dispatch client ~op ~key ~value ?token
      ~on_response:(fun r -> Promise.fulfil p r)
      ()
  in
  Promise.await p

let budget_allows t =
  Sync.with_lock t.budget_lock (fun () -> Retry.Budget.try_charge t.budget)

let note_failed_original t =
  Sync.with_lock t.budget_lock (fun () -> Retry.Budget.note_failed_original t.budget)

(* The retry loop. One idempotency token per logical SET, fixed across
   every attempt and every node it lands on — the cross-node
   exactly-once story: however many duplicates reach however many
   leaders (replicas preserve the token when re-applying), each node's
   idempotent store applies one.

   WRONG_SHARD answers carry the answering node's map inline: install
   it and go again without backoff (a redirect is fresh routing
   information, not congestion). Transport errors and [Err] mean the
   cached leader may be dead: refetch the map from the surviving nodes
   and back off under the shared {!Retry.Budget}. *)
let call t ~op ~key ~value =
  let cfg = t.cfg.retry in
  let original = Atomic.fetch_and_add t.next_token 1 in
  let token =
    match op with Wire.Set -> Some (t.token_nonce lxor original) | _ -> None
  in
  let start = Unix.gettimeofday () in
  let deadline_ok () =
    cfg.Retry.deadline <= 0.0
    || (Unix.gettimeofday () -. start) *. 1e9 < cfg.Retry.deadline
  in
  let rec attempt n =
    let map = current_map t in
    let node = Shardmap.leader_of_key map key in
    let resp = one_shot (client_of t node) ~op ~key ~value ~token in
    match resp.Wire.status with
    | Wire.Ok | Wire.Not_found -> resp
    | Wire.Wrong_shard ->
      Atomic.incr t.s_wrong_shard;
      install_bytes t resp.Wire.resp_value;
      if n >= cfg.Retry.max_attempts || not (deadline_ok ()) then resp
      else attempt (n + 1)
    | Wire.Cluster_ok -> resp  (* protocol violation; surface as-is *)
    | Wire.Err ->
      if n = 1 then note_failed_original t;
      if n >= cfg.Retry.max_attempts || not (deadline_ok ()) || not (budget_allows t)
      then resp
      else begin
        refetch_map t ~exclude:node;
        Atomic.incr t.s_retries;
        let ns = Retry.backoff_ns cfg ~seed:t.cfg.retry_seed ~original ~attempt:n in
        Unix.sleepf (ns /. 1e9);
        if deadline_ok () then attempt (n + 1) else resp
      end
  in
  attempt 1

let error_of resp =
  if Bytes.length resp.Wire.resp_value > 0 then Bytes.to_string resp.Wire.resp_value
  else "request failed"

let get t ~key =
  let resp = call t ~op:Wire.Get ~key ~value:Bytes.empty in
  match resp.Wire.status with
  | Wire.Ok -> Ok (Some resp.Wire.resp_value)
  | Wire.Not_found -> Ok None
  | Wire.Err -> Error (error_of resp)
  | Wire.Wrong_shard -> Error "no route to shard (map churn outlasted the retry policy)"
  | Wire.Cluster_ok -> Error "protocol violation: CLUSTER_OK to GET"

let set t ~key ~value =
  let resp = call t ~op:Wire.Set ~key ~value in
  match resp.Wire.status with
  | Wire.Ok | Wire.Not_found -> Ok ()
  | Wire.Err -> Error (error_of resp)
  | Wire.Wrong_shard -> Error "no route to shard (map churn outlasted the retry policy)"
  | Wire.Cluster_ok -> Error "protocol violation: CLUSTER_OK to SET"

let delete t ~key =
  let resp = call t ~op:Wire.Delete ~key ~value:Bytes.empty in
  match resp.Wire.status with
  | Wire.Ok -> Ok true
  | Wire.Not_found -> Ok false
  | Wire.Err -> Error (error_of resp)
  | Wire.Wrong_shard -> Error "no route to shard (map churn outlasted the retry policy)"
  | Wire.Cluster_ok -> Error "protocol violation: CLUSTER_OK to DELETE"

type stats = {
  epoch : int;
  wrong_shard_redirects : int;
  map_refetches : int;
  map_installs : int;
  retries : int;
}

let stats t =
  {
    epoch = Shardmap.epoch (current_map t);
    wrong_shard_redirects = Atomic.get t.s_wrong_shard;
    map_refetches = Atomic.get t.s_refetches;
    map_installs = Atomic.get t.s_installs;
    retries = Atomic.get t.s_retries;
  }

let close t =
  let clients =
    Sync.with_lock t.lock (fun () ->
        if t.closed then []
        else begin
          t.closed <- true;
          let cs = Hashtbl.fold (fun _ c acc -> c :: acc) t.clients [] in
          Hashtbl.reset t.clients;
          cs
        end)
  in
  List.iter Client.close clients
