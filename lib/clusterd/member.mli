(** One node's cluster runtime: shard-map serving, leader-based
    replication, and the durability/read gates that keep acknowledged
    writes alive across failover.

    A member wraps an already-started {!C4_runtime.Server} (which must
    have a WAL — cluster mode is meaningless without local durability)
    and plugs into it at two points:

    + the runtime WAL's {e append hook}: every locally-applied mutation
      whose key's shard this node currently {e leads} is re-appended to
      a second, per-shard WAL (the {b repl-log}, [n_partitions] =
      number of shards) and streamed to the shard's replicas. The
      repl-log's auto-assigned seqno {e is} the shard sequence number
      (sseq): dense per shard, independent of which node produced it,
      and comparable across failovers — a promoted leader simply keeps
      appending where its repl-log left off. Mutations applied {e as a
      replica} also traverse the hook but fail the leadership test (the
      no-echo rule), so replication never loops;
    + the runtime WAL's {e ack gate} (quorum mode): a mutation's
      durability callback — what ultimately releases the client's
      response — is held until a majority of the shard's replicas have
      acknowledged the covering sseq, so an acked write provably
      survives the leader dying: some majority member holds it, and
      failover promotes the most-caught-up replica.

    As a {e replica} the member listens on its [repl_port]: per
    inbound stream it checks the sender's epoch (stale leaders are
    rejected — the split-brain fence), reports per-shard watermarks so
    the sender can catch it up from its repl-log, then applies records
    strictly in sseq order — runtime apply first (local durability +
    token dedup), own repl-log append second (in-order apply makes the
    assigned seqno equal the received sseq), ack third.

    Reads: {!hooks}'s [cl_read_fence] holds a GET response (quorum
    mode) until the key's partition has no applied-but-unacked suffix,
    so no client can observe a value that a subsequent failover
    forgets. It never blocks: the response's continuation waits on the
    same list as the held durability callbacks, and the replication-ack
    reader that drains the suffix runs it. Serving CLUSTER_INFO
    ([cl_info]) never blocks either — senders a new map no longer
    needs are told to stop and joined at {!close}.

    Metrics (in [registry]): [cluster.epoch] (gauge),
    [cluster.repl_records_out], [cluster.repl_records_in],
    [cluster.repl_acks_in], [cluster.repl_reconnects],
    [cluster.stale_epoch_rejects]. The repl-log's wal.* metrics go to a
    private registry so they cannot be conflated with the runtime
    WAL's. *)

type ack_mode =
  | Leader  (** ack on local durability; replication is asynchronous *)
  | Quorum
      (** ack only after a majority of the shard's replicas hold the
          write ({!Shardmap.quorum_needed}); GETs fence likewise *)

val ack_mode_of_string : string -> (ack_mode, string) result
val ack_mode_to_string : ack_mode -> string

type config = {
  node_id : int;  (** this node's index in [initial_map]'s node table *)
  initial_map : Shardmap.t;
  repl_dir : string;  (** repl-log directory (e.g. [<wal_dir>/repl]) *)
  ack : ack_mode;
  repl_fsync : C4_wal.Wal.fsync_policy;
  max_frame : int;  (** replication-frame size bound *)
}

(** Quorum acks, [Window] repl-log fsync, 1 MiB frames. *)
val default_config :
  node_id:int -> initial_map:Shardmap.t -> repl_dir:string -> config

type t

(** Open (or recover) the repl-log, start the replication listener and
    the outbound streams to every replica of a led shard, and install
    the WAL hooks. Call {e before} the node starts accepting client
    traffic. Raises [Invalid_argument] on an invalid map, an
    out-of-range node id, or a runtime without a WAL. *)
val create : ?registry:C4_obs.Registry.t -> runtime:C4_runtime.Server.t -> config -> t

(** The hooks to place in {!C4_net.Server.config.cluster}. *)
val hooks : t -> C4_net.Server.cluster

(** Install [m] if its epoch is strictly newer than the current map's:
    updates routing, cuts replication streams from deposed leaders, and
    reconciles outbound streams (also reachable remotely via
    CLUSTER_INFO-with-payload). No-op otherwise. *)
val install : t -> Shardmap.t -> unit

val current_map : t -> Shardmap.t

(** A ["cluster"] health-document field: node id, epoch, ack mode, led
    shards, per-shard repl-log watermarks (what the supervisor compares
    to pick the most-caught-up replica), and the count of
    streamed-but-unacked records. *)
val health_json : t -> string * C4_obs.Json.t

type stats = {
  epoch : int;
  records_out : int;  (** records streamed as leader *)
  records_in : int;  (** records applied as replica *)
  acks_in : int;
  reconnects : int;
  outstanding : int;  (** streamed, not yet quorum-acked *)
}

val stats : t -> stats

(** Detach the WAL hooks, release every held durability callback and
    read fence (the runtime is about to drain), stop all replication
    I/O and close the repl-log. Idempotent. Call before [C4_net.Server.stop]. *)
val close : t -> unit
