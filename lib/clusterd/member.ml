module Sync = C4_runtime.Sync
module Runtime = C4_runtime.Server
module Promise = C4_runtime.Promise
module Wal = C4_wal.Wal
module Record = C4_wal.Record
module Registry = C4_obs.Registry
module Json = C4_obs.Json

type ack_mode = Leader | Quorum

let ack_mode_of_string = function
  | "leader" -> Ok Leader
  | "quorum" -> Ok Quorum
  | s -> Error (Printf.sprintf "unknown ack mode %S (leader|quorum)" s)

let ack_mode_to_string = function Leader -> "leader" | Quorum -> "quorum"

type config = {
  node_id : int;
  initial_map : Shardmap.t;
  repl_dir : string;
  ack : ack_mode;
  repl_fsync : Wal.fsync_policy;
  max_frame : int;
}

let default_config ~node_id ~initial_map ~repl_dir =
  {
    node_id;
    initial_map;
    repl_dir;
    ack = Quorum;
    repl_fsync = Wal.Window;
    max_frame = 1 lsl 20;
  }

(* A record this node streamed but has not yet seen quorum-acked:
   runtime WAL position (partition implicit in the queue it sits in,
   [o_rseq] its seqno there) and replication position (shard + sseq). *)
type outstanding = { o_rseq : int; o_shard : int; o_sseq : int }

type sender = {
  sn_node : int;
  sn_lock : Mutex.t;
  sn_cond : Condition.t;
  mutable sn_queue : (int * Record.t) list;  (* newest first *)
  mutable sn_stop : bool;
  mutable sn_fd : Unix.file_descr option;
  mutable sn_threads : Thread.t list;
}

type inbound = { in_fd : Unix.file_descr; in_epoch : int; mutable in_open : bool }

type t = {
  cfg : config;
  runtime : Runtime.t;
  repl_log : Wal.t;
  lock : Mutex.t;
  mutable map : Shardmap.t;
  mutable map_bytes : bytes;  (* encoded [map]; re-encoded once per install *)
  senders : (int, sender) Hashtbl.t;
  mutable retired : sender list;  (* stopped by [install], joined by [close] *)
  mutable inbound : inbound list;
  mutable listener : Unix.file_descr option;
  mutable listener_thread : Thread.t option;
  mutable inbound_threads : Thread.t list;
  mutable closing : bool;
  outstanding : outstanding Queue.t array;  (* per runtime partition, rseq order *)
  repl_wm : (int, int array) Hashtbl.t;  (* replica node -> per-shard acked sseq *)
  mutable waiters : (int * int * (unit -> unit)) list;  (* partition, rseq, cb *)
  epoch_g : Registry.gauge;
  records_out_c : Registry.counter;
  records_in_c : Registry.counter;
  acks_in_c : Registry.counter;
  reconnects_c : Registry.counter;
  stale_epoch_c : Registry.counter;
}

let key_of_op = function Record.Set { key; _ } -> key | Record.Delete { key } -> key

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()
let shutdown_fd fd = try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()

(* ---------------- quorum bookkeeping (under [t.lock]) ---------------- *)

let quorum_reached t entry =
  let needed = Shardmap.quorum_needed t.map ~shard:entry.o_shard in
  if needed = 0 then true
  else begin
    let acks = ref 0 in
    Hashtbl.iter
      (fun _node wm ->
        if entry.o_shard < Array.length wm && wm.(entry.o_shard) >= entry.o_sseq then
          incr acks)
      t.repl_wm;
    !acks >= needed
  end

(* [true] when no streamed-and-unacked record with runtime seqno <= [rseq]
   remains in [partition] — i.e. everything a durability callback or a
   read fence up to [rseq] covers has reached quorum. *)
let drained_locked t ~partition ~rseq =
  match Queue.peek_opt t.outstanding.(partition) with
  | None -> true
  | Some head -> head.o_rseq > rseq

(* Pop every quorum-satisfied queue head and collect the newly-satisfied
   waiters (durability callbacks and read fences). Returns callbacks to
   run with the lock released. *)
let advance_locked t =
  let progressed = ref false in
  Array.iter
    (fun q ->
      let rec pop () =
        match Queue.peek_opt q with
        | Some head when quorum_reached t head ->
          ignore (Queue.pop q);
          progressed := true;
          pop ()
        | _ -> ()
      in
      pop ())
    t.outstanding;
  if !progressed then begin
    let fire, keep =
      List.partition
        (fun (p, rseq, _) -> drained_locked t ~partition:p ~rseq)
        t.waiters
    in
    t.waiters <- keep;
    List.rev_map (fun (_, _, cb) -> cb) fire
  end
  else []

let note_ack t ~node ~shard ~sseq =
  Registry.incr t.acks_in_c;
  let cbs =
    Sync.with_lock t.lock (fun () ->
        let wm =
          match Hashtbl.find_opt t.repl_wm node with
          | Some wm -> wm
          | None ->
            let wm = Array.make (Shardmap.n_shards t.map) 0 in
            Hashtbl.replace t.repl_wm node wm;
            wm
        in
        if shard >= 0 && shard < Array.length wm && sseq > wm.(shard) then
          wm.(shard) <- sseq;
        advance_locked t)
  in
  List.iter (fun cb -> cb ()) cbs

(* ---------------- runtime WAL hooks ---------------- *)

let sender_enqueue sn item =
  Sync.with_lock sn.sn_lock (fun () ->
      sn.sn_queue <- item :: sn.sn_queue;
      Condition.signal sn.sn_cond)

(* Runs on the runtime worker inside the runtime WAL's partition lock:
   per-partition, records arrive here in exactly runtime-seqno order,
   which keeps [t.outstanding] queues sorted and the replication stream
   in order per shard. Replica-applied records also pass through (their
   apply hits this node's runtime WAL) but fail the leadership test —
   the no-echo rule that stops replication loops. *)
let on_append t ~partition record =
  Sync.with_lock t.lock (fun () ->
      if not t.closing then begin
        let key = key_of_op record.Record.op in
        let shard = Shardmap.shard_of_key t.map key in
        if Shardmap.leader_of_shard t.map shard = t.cfg.node_id then begin
          let sseq = Wal.append t.repl_log ~partition:shard ~op:record.Record.op in
          let out = { Record.seqno = sseq; op = record.Record.op } in
          if t.cfg.ack = Quorum && Shardmap.quorum_needed t.map ~shard > 0 then
            Queue.push
              { o_rseq = record.Record.seqno; o_shard = shard; o_sseq = sseq }
              t.outstanding.(partition);
          List.iter
            (fun rep ->
              match Hashtbl.find_opt t.senders rep with
              | Some sn -> sender_enqueue sn (shard, out)
              | None -> ())
            (Shardmap.replicas_of_shard t.map shard);
          Registry.incr t.records_out_c
        end
      end)

(* Run [cb] once every streamed record of [partition] up to runtime
   seqno [seqno] is quorum-acked. Never blocks — it registers and the
   replication ack readers fire it. Installed on the runtime WAL as the
   durability-ack gate (quorum mode), and behind {!read_fence}. *)
let gate t ~partition ~seqno cb =
  let run_now =
    Sync.with_lock t.lock (fun () ->
        if t.closing || drained_locked t ~partition ~rseq:seqno then true
        else begin
          t.waiters <- (partition, seqno, cb) :: t.waiters;
          false
        end)
  in
  if run_now then cb ()

(* GET fence (quorum mode): run [k] once the key's partition has no
   locally-applied-but-unacked suffix, so a read can never observe a
   value that a failover then forgets. Called by the thread that
   completed the read (a runtime worker); never blocks — a read behind
   an unacked suffix registers on [waiters] like a durability callback
   and is answered by the ack reader that drains the suffix. *)
let read_fence t ~key k =
  if t.cfg.ack = Leader then k ()
  else begin
    let partition = Runtime.partition_of_key t.runtime key in
    match
      Sync.with_lock t.lock (fun () ->
          Queue.fold (fun acc e -> max acc e.o_rseq) 0 t.outstanding.(partition))
    with
    | 0 -> k ()
    | target -> gate t ~partition ~seqno:target k
  end

(* ---------------- sender (this node as leader) ---------------- *)

let led_shards_for t ~replica =
  Sync.with_lock t.lock (fun () ->
      let shards = ref [] in
      for s = Shardmap.n_shards t.map - 1 downto 0 do
        if
          Shardmap.leader_of_shard t.map s = t.cfg.node_id
          && List.mem replica (Shardmap.replicas_of_shard t.map s)
        then shards := s :: !shards
      done;
      !shards)

let sender_loop t sn () =
  let buf = Buffer.create 256 in
  let last_sent = Array.make (Shardmap.n_shards t.cfg.initial_map) 0 in
  let stop () = Sync.with_lock sn.sn_lock (fun () -> sn.sn_stop) in
  let rec connect () =
    if stop () then None
    else begin
      let node =
        Sync.with_lock t.lock (fun () -> Shardmap.node t.map sn.sn_node)
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      match
        Unix.connect fd
          (Unix.ADDR_INET (Unix.inet_addr_of_string node.Shardmap.host, node.Shardmap.repl_port))
      with
      | () ->
        Sync.with_lock sn.sn_lock (fun () -> sn.sn_fd <- Some fd);
        if stop () then begin
          close_fd fd;
          None
        end
        else Some fd
      | exception Unix.Unix_error _ ->
        close_fd fd;
        Unix.sleepf 0.05;
        connect ()
    end
  in
  let session fd acker =
    let epoch = Sync.with_lock t.lock (fun () -> Shardmap.epoch t.map) in
    Repl.write_hello fd { Repl.h_epoch = epoch; h_node_id = t.cfg.node_id };
    match Repl.read_welcome fd with
    | Error _ -> ()
    | Ok (Repl.Reject _) ->
      (* Our map is stale; a newer one arrives via CLUSTER_INFO. *)
      Registry.incr t.stale_epoch_c;
      Unix.sleepf 0.1
    | Ok (Repl.Accept wms) ->
      (* Ack reader rides the same socket and dies with it. It must
         only start now — after [read_welcome] — or it would race the
         handshake read and swallow the welcome bytes as acks. When the
         replica drops the session (an epoch install cuts it), the
         reader wakes the live loop to reconnect: a sender blocked
         between records would otherwise write the next record into the
         dead socket and its quorum ack would never come. *)
      let dropped = ref false in
      acker :=
        Some
          (Thread.create
             (fun () ->
               let rec loop () =
                 match Repl.read_ack fd with
                 | Ok (shard, sseq) ->
                   note_ack t ~node:sn.sn_node ~shard ~sseq;
                   loop ()
                 | Error _ ->
                   Sync.with_lock sn.sn_lock (fun () ->
                       dropped := true;
                       Condition.broadcast sn.sn_cond)
               in
               loop ())
             ());
      (* Drop the backlog: everything appended before this instant is
         in the repl-log (append precedes enqueue under [t.lock]), so
         the export below covers it; [last_sent] dedups the overlap. *)
      Sync.with_lock sn.sn_lock (fun () -> sn.sn_queue <- []);
      let shards = led_shards_for t ~replica:sn.sn_node in
      List.iter
        (fun shard ->
          let wm = if shard < Array.length wms then wms.(shard) else 0 in
          last_sent.(shard) <- wm;
          Wal.export t.repl_log ~partition:shard ~from_seqno:(wm + 1) ~f:(fun r ->
              Repl.write_record buf fd ~shard r;
              last_sent.(shard) <- r.Record.seqno))
        shards;
      (* Live loop: drain the queue in arrival (= per-shard seqno)
         order, skipping anything the catch-up already sent. A dropped
         session returns, and the next one's catch-up covers the batch. *)
      let rec live () =
        let batch, gone =
          Sync.with_lock sn.sn_lock (fun () ->
              while sn.sn_queue = [] && (not sn.sn_stop) && not !dropped do
                Condition.wait sn.sn_cond sn.sn_lock
              done;
              let b = List.rev sn.sn_queue in
              sn.sn_queue <- [];
              (b, !dropped))
        in
        if not (gone || stop ()) then begin
          List.iter
            (fun (shard, r) ->
              if r.Record.seqno > last_sent.(shard) then begin
                Repl.write_record buf fd ~shard r;
                last_sent.(shard) <- r.Record.seqno
              end)
            batch;
          live ()
        end
      in
      live ()
  in
  let rec run () =
    match connect () with
    | None -> ()
    | Some fd ->
      let acker = ref None in
      (try session fd acker with Unix.Unix_error _ -> ());
      shutdown_fd fd;
      close_fd fd;
      Option.iter Thread.join !acker;
      Sync.with_lock sn.sn_lock (fun () -> sn.sn_fd <- None);
      if not (stop ()) then begin
        Registry.incr t.reconnects_c;
        Unix.sleepf 0.05;
        run ()
      end
  in
  run ()

let start_sender t node =
  let sn =
    {
      sn_node = node;
      sn_lock = Mutex.create ();
      sn_cond = Condition.create ();
      sn_queue = [];
      sn_stop = false;
      sn_fd = None;
      sn_threads = [];
    }
  in
  sn.sn_threads <- [ Thread.create (sender_loop t sn) () ];
  sn

(* Tell a sender to stop; never blocks. Its threads exit on their own
   and are joined by [close]. *)
let signal_stop sn =
  Sync.with_lock sn.sn_lock (fun () ->
      sn.sn_stop <- true;
      (match sn.sn_fd with
      | Some fd -> shutdown_fd fd
      | None -> ());
      Condition.broadcast sn.sn_cond)

(* Replicas of shards this node leads — who it must stream to. *)
let desired_replicas_locked t =
  let nodes = ref [] in
  for s = 0 to Shardmap.n_shards t.map - 1 do
    if Shardmap.leader_of_shard t.map s = t.cfg.node_id then
      List.iter
        (fun r -> if not (List.mem r !nodes) then nodes := r :: !nodes)
        (Shardmap.replicas_of_shard t.map s)
  done;
  !nodes

(* ---------------- receiver (this node as replica) ---------------- *)

let handle_inbound t fd =
  match Repl.read_hello fd with
  | Error _ -> close_fd fd
  | Ok { Repl.h_epoch; h_node_id = _ } ->
    let verdict =
      Sync.with_lock t.lock (fun () ->
          let my_epoch = Shardmap.epoch t.map in
          if h_epoch < my_epoch then Error my_epoch
          else begin
            let n = Shardmap.n_shards t.map in
            let wms =
              Array.init n (fun s -> Wal.last_seqno t.repl_log ~partition:s)
            in
            let inb = { in_fd = fd; in_epoch = h_epoch; in_open = true } in
            t.inbound <- inb :: t.inbound;
            Ok (wms, inb)
          end)
    in
    (match verdict with
    | Error my_epoch ->
      Repl.write_welcome fd (Repl.Reject { r_epoch = my_epoch });
      close_fd fd
    | Ok (wms, inb) ->
      Repl.write_welcome fd (Repl.Accept wms);
      let rec loop () =
        match Repl.read_record fd ~max_frame:t.cfg.max_frame with
        | Error _ -> ()
        | Ok (shard, r) ->
          if shard < 0 || shard >= Shardmap.n_shards t.cfg.initial_map then ()
          else begin
            let expected = Wal.last_seqno t.repl_log ~partition:shard + 1 in
            if r.Record.seqno < expected then begin
              (* Duplicate from a catch-up/live overlap: already held
                 durably, just re-ack. *)
              Repl.write_ack fd ~shard ~sseq:r.Record.seqno;
              loop ()
            end
            else if r.Record.seqno > expected then
              (* Gap: drop the connection, the sender re-handshakes and
                 catch-up restarts from our watermark. *)
              ()
            else begin
              (* Apply to the runtime first (its own WAL makes the write
                 durable here; idempotency tokens ride along so a
                 re-send after a crash dedups), then append our
                 repl-log — in-order apply makes its auto-assigned
                 seqno equal sseq by construction — then ack. *)
              (match r.Record.op with
              | Record.Set { key; value; token } ->
                Promise.await (Runtime.set_async ?token t.runtime ~key ~value)
              | Record.Delete { key } ->
                ignore (Promise.await (Runtime.delete_async t.runtime ~key)));
              let got = Wal.append t.repl_log ~partition:shard ~op:r.Record.op in
              if got <> r.Record.seqno then
                (* Impossible unless another sender interleaved — drop
                   the connection rather than diverge. *)
                ()
              else begin
                Registry.incr t.records_in_c;
                Repl.write_ack fd ~shard ~sseq:r.Record.seqno;
                loop ()
              end
            end
          end
      in
      (try loop () with Unix.Unix_error _ -> ());
      Sync.with_lock t.lock (fun () ->
          inb.in_open <- false;
          t.inbound <- List.filter (fun i -> i != inb) t.inbound);
      close_fd fd)

let listener_loop t lsock () =
  let rec loop () =
    match Unix.accept lsock with
    | fd, _ ->
      let th = Thread.create (fun () -> handle_inbound t fd) () in
      Sync.with_lock t.lock (fun () ->
          t.inbound_threads <- th :: t.inbound_threads);
      loop ()
    | exception Unix.Unix_error _ -> ()  (* listener closed: shutting down *)
  in
  loop ()

(* ---------------- shard map serving / install ---------------- *)

let current_map t = Sync.with_lock t.lock (fun () -> t.map)

(* Install [m] if strictly newer. Fences stale replication senders
   (connections whose hello carried an older epoch are cut — a deposed
   leader cannot keep feeding us) and reconciles outbound senders with
   the new replica sets. Never blocks: it serves CLUSTER_INFO on a runtime
   worker, so senders no longer wanted are only told to stop. *)
let install t m =
  let to_stop, stale =
    Sync.with_lock t.lock (fun () ->
        if Shardmap.epoch m <= Shardmap.epoch t.map then ([], [])
        else begin
          t.map <- m;
          t.map_bytes <- Shardmap.encode m;
          Registry.set t.epoch_g (float_of_int (Shardmap.epoch m));
          let stale =
            List.filter (fun i -> i.in_open && i.in_epoch < Shardmap.epoch m) t.inbound
          in
          let desired = desired_replicas_locked t in
          let to_stop = ref [] in
          Hashtbl.iter
            (fun node sn -> if not (List.mem node desired) then to_stop := sn :: !to_stop)
            t.senders;
          List.iter (fun sn -> Hashtbl.remove t.senders sn.sn_node) !to_stop;
          t.retired <- !to_stop @ t.retired;
          (* Start missing senders while still holding the lock, so a
             racing install cannot double-start one; the spawned thread
             blocks on [t.lock] until we release, which is fine. *)
          List.iter
            (fun n ->
              if not (Hashtbl.mem t.senders n) then
                Hashtbl.replace t.senders n (start_sender t n))
            desired;
          (!to_stop, stale)
        end)
  in
  List.iter (fun i -> shutdown_fd i.in_fd) stale;
  List.iter signal_stop to_stop

(* ---------------- Net.Server hooks ---------------- *)

let check t ~key ~write:_ =
  Sync.with_lock t.lock (fun () ->
      if Shardmap.leader_of_key t.map key = t.cfg.node_id then Ok ()
      else Error (Bytes.copy t.map_bytes))

let info t payload =
  if Bytes.length payload > 0 then begin
    match Shardmap.decode payload with
    | Ok m -> install t m
    | Error _ -> ()  (* malformed offers are ignored, current map returned *)
  end;
  Ok (Sync.with_lock t.lock (fun () -> Bytes.copy t.map_bytes))

let hooks t =
  {
    C4_net.Server.cl_check = (fun ~key ~write -> check t ~key ~write);
    cl_read_fence = (fun ~key k -> read_fence t ~key k);
    cl_info = (fun payload -> info t payload);
  }

(* ---------------- health ---------------- *)

let health_json t =
  Sync.with_lock t.lock (fun () ->
      let n = Shardmap.n_shards t.map in
      let led = ref [] in
      for s = n - 1 downto 0 do
        if Shardmap.leader_of_shard t.map s = t.cfg.node_id then led := s :: !led
      done;
      let outstanding =
        Array.fold_left (fun acc q -> acc + Queue.length q) 0 t.outstanding
      in
      ( "cluster",
        Json.Obj
          [
            ("node_id", Json.Int t.cfg.node_id);
            ("epoch", Json.Int (Shardmap.epoch t.map));
            ("ack", Json.Str (ack_mode_to_string t.cfg.ack));
            ("led_shards", Json.List (List.map (fun s -> Json.Int s) !led));
            ( "watermarks",
              Json.List
                (List.init n (fun s ->
                     Json.Int (Wal.last_seqno t.repl_log ~partition:s))) );
            ("outstanding", Json.Int outstanding);
          ] ))

(* ---------------- lifecycle ---------------- *)

let create ?registry ~runtime cfg =
  (match Shardmap.validate cfg.initial_map with
  | Ok () -> ()
  | Error e -> invalid_arg ("Member.create: bad map: " ^ e));
  if cfg.node_id < 0 || cfg.node_id >= Shardmap.n_nodes cfg.initial_map then
    invalid_arg "Member.create: node_id out of range";
  let runtime_wal =
    match Runtime.wal_handle runtime with
    | Some w -> w
    | None -> invalid_arg "Member.create: cluster mode requires a runtime WAL"
  in
  let reg =
    match registry with Some r -> r | None -> Registry.create ~thread_safe:true ()
  in
  let n_shards = Shardmap.n_shards cfg.initial_map in
  (* Private registry: a second Wal in the node's main registry would
     share (and double-count) the runtime WAL's wal.* metrics. *)
  let repl_log, _ =
    Wal.open_
      ~replay:(fun ~partition:_ _ -> ())
      {
        Wal.dir = cfg.repl_dir;
        n_partitions = n_shards;
        fsync = cfg.repl_fsync;
        segment_bytes = 8 * 1024 * 1024;
      }
  in
  let t =
    {
      cfg;
      runtime;
      repl_log;
      lock = Mutex.create ();
      map = cfg.initial_map;
      map_bytes = Shardmap.encode cfg.initial_map;
      senders = Hashtbl.create 8;
      retired = [];
      inbound = [];
      listener = None;
      listener_thread = None;
      inbound_threads = [];
      closing = false;
      outstanding = Array.init (Runtime.n_partitions runtime) (fun _ -> Queue.create ());
      repl_wm = Hashtbl.create 8;
      waiters = [];
      epoch_g = Registry.gauge reg "cluster.epoch";
      records_out_c = Registry.counter reg "cluster.repl_records_out";
      records_in_c = Registry.counter reg "cluster.repl_records_in";
      acks_in_c = Registry.counter reg "cluster.repl_acks_in";
      reconnects_c = Registry.counter reg "cluster.repl_reconnects";
      stale_epoch_c = Registry.counter reg "cluster.stale_epoch_rejects";
    }
  in
  Registry.set t.epoch_g (float_of_int (Shardmap.epoch cfg.initial_map));
  (* Replication listener. *)
  let me = Shardmap.node cfg.initial_map cfg.node_id in
  let lsock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lsock Unix.SO_REUSEADDR true;
  (try
     Unix.bind lsock
       (Unix.ADDR_INET (Unix.inet_addr_of_string me.Shardmap.host, me.Shardmap.repl_port))
   with e ->
     close_fd lsock;
     raise e);
  Unix.listen lsock 16;
  t.listener <- Some lsock;
  t.listener_thread <- Some (Thread.create (listener_loop t lsock) ());
  (* Outbound streams to every node replicating a shard we lead. *)
  List.iter
    (fun node -> Hashtbl.replace t.senders node (start_sender t node))
    (Sync.with_lock t.lock (fun () -> desired_replicas_locked t));
  (* Tap the runtime WAL last: everything is in place to stream. *)
  Wal.set_append_hook runtime_wal (Some (fun ~partition record -> on_append t ~partition record));
  if cfg.ack = Quorum then
    Wal.set_ack_gate runtime_wal
      (Some (fun ~partition ~seqno cb -> gate t ~partition ~seqno cb));
  t

let close t =
  let pending =
    Sync.with_lock t.lock (fun () ->
        if t.closing then None
        else begin
          t.closing <- true;
          let w = t.waiters in
          t.waiters <- [];
          Some w
        end)
  in
  match pending with
  | None -> ()
  | Some waiters ->
    (* Detach from the runtime WAL first so no new work arrives. *)
    (match Runtime.wal_handle t.runtime with
    | Some w ->
      Wal.set_append_hook w None;
      Wal.set_ack_gate w None
    | None -> ());
    (* Shutdown-flush: durability callbacks held for quorum run now —
       the runtime is stopping and will drain them through its normal
       path; holding them would hang its stop. *)
    List.iter (fun (_, _, cb) -> cb ()) (List.rev waiters);
    (match t.listener with
    | Some fd ->
      shutdown_fd fd;
      close_fd fd;
      t.listener <- None
    | None -> ());
    (match t.listener_thread with
    | Some th ->
      Thread.join th;
      t.listener_thread <- None
    | None -> ());
    let inbound, senders =
      Sync.with_lock t.lock (fun () ->
          let i = t.inbound in
          let s = Hashtbl.fold (fun _ sn acc -> sn :: acc) t.senders t.retired in
          Hashtbl.reset t.senders;
          t.retired <- [];
          (i, s))
    in
    List.iter (fun i -> shutdown_fd i.in_fd) inbound;
    List.iter signal_stop senders;
    List.iter (fun sn -> List.iter Thread.join sn.sn_threads) senders;
    List.iter Thread.join
      (Sync.with_lock t.lock (fun () ->
           let th = t.inbound_threads in
           t.inbound_threads <- [];
           th));
    Wal.close t.repl_log

type stats = {
  epoch : int;
  records_out : int;
  records_in : int;
  acks_in : int;
  reconnects : int;
  outstanding : int;
}

let stats t =
  Sync.with_lock t.lock (fun () ->
      {
        epoch = Shardmap.epoch t.map;
        records_out = Registry.counter_value t.records_out_c;
        records_in = Registry.counter_value t.records_in_c;
        acks_in = Registry.counter_value t.acks_in_c;
        reconnects = Registry.counter_value t.reconnects_c;
        outstanding =
          Array.fold_left (fun acc q -> acc + Queue.length q) 0 t.outstanding;
      })
