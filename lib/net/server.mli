(** TCP front-end for the multicore runtime KVS: an acceptor thread plus
    a fixed pool of {!config.loops} event-loop domains (see {!Evloop}),
    all feeding one {!C4_runtime.Server} — CREW routing, write
    compaction, and crash recovery apply to network traffic unchanged.
    Each loop multiplexes its share of the connections with poll(2)
    plus a self-pipe wakeup — batched nonblocking reads into per-loop
    scratch buffers, pipelined responses coalesced into one write per
    wakeup — which scales to tens of thousands of connections on a
    handful of domains.

    Request handling: GET/SET/DELETE frames are submitted through the
    runtime's callback API from the loop domain (submission never
    blocks). The thread that completes a request — a runtime worker,
    the WAL sync domain, or a replication-ack reader — builds its
    response and parks it in the connection's reorder slot; the loop
    sends the contiguous ready prefix, so per-connection pipelining
    order is preserved while operations from different connections (and
    different keys) proceed in parallel. SET acks are only emitted
    after the store apply (the runtime's deferred-response rule), so an
    acknowledged write observed by a client survives worker crashes.

    Shutdown ({!stop}) drains gracefully: the listening socket closes
    first (no new connections), every live connection is half-closed and
    its already-received requests submitted, all pending responses are
    flushed, and only then does [stop] return. The runtime server is
    {e not} stopped — it is owned by the caller, who should call
    {!C4_runtime.Server.stop} after this returns (that order, plus the
    runtime's reject-then-drain stop, is what guarantees no
    accepted-but-unanswered request is ever dropped).

    Metrics (all in [registry], which must be thread-safe):
    [net.conns_accepted], [net.conns_active], [net.bytes_in],
    [net.bytes_out], [net.inflight], [net.protocol_errors],
    [net.requests], [net.accept_errors] (accepts shed to
    [EMFILE]/[ENFILE] fd exhaustion — the acceptor backs off and
    survives instead of dying), [net.slow_client_drops] (connections
    dropped for exceeding {!config.max_pending}), and per-op
    service-time histograms [net.get_ns],
    [net.set_ns], [net.delete_ns]. Each mutation additionally bumps a
    [net.routed_w<i>] counter for the worker the d-CREW policy core's
    ownership view ([C4_runtime.Server.owner_of_key], i.e.
    [C4_crew.Core.route_owner]) routes it to. One counter per worker is
    registered eagerly at start, so a telemetry scrape sees every owner
    from the first request and a count can never land on a dangling
    worker id — after a crash recovery the counts visibly migrate to
    the surviving owner while the dead worker's counter freezes.

    Tracing: with {!config.spans} set, a request that arrives carrying
    a {!Wire.trace_context} grows a three-span chain in the buffer —
    [server.recv] (decode + crew admission, annotated with the policy
    decisions taken while submitting, parented on the client's in-band
    context), [server.apply] (submission to completion) and
    [server.respond] (closed when the response's last byte reached the
    socket) — one connected chain with the client's dispatch span.
    Context-free requests trace nothing. *)

(** Cluster-runtime hooks, injected by [C4_clusterd.Member] (which sits
    {e above} this library in the build graph — hence plain functions
    over the encoded-shard-map bytes rather than cluster types).

    With [config.cluster] set, every GET/SET/DELETE first passes
    [cl_check ~key ~write]: [Error map] answers the request with
    {!Wire.Wrong_shard} carrying [map] (the node's current encoded
    shard map) and never reaches the runtime. {!Wire.Cluster_info}
    requests are answered by [cl_info] (payload = an encoded map to
    install if newer, or empty to just fetch) with {!Wire.Cluster_ok}
    carrying the node's current map; it runs on a loop domain and must
    not block. [cl_read_fence ~key k] is called on the thread that
    completed a GET's store read, before its response goes out; it must
    run [k] — at once, or later from another thread — once the key's
    partition has no locally-applied-but-unreplicated suffix
    (quorum-ack mode), so a value a client observed can never be lost
    to a failover. It must not block. Requests answered WRONG_SHARD
    bump [net.wrong_shard]. *)
type cluster = {
  cl_check : key:int -> write:bool -> (unit, bytes) result;
  cl_read_fence : key:int -> (unit -> unit) -> unit;
  cl_info : bytes -> (bytes, string) result;
}

type config = {
  host : string;  (** address to bind, e.g. "127.0.0.1" *)
  port : int;  (** 0 = pick an ephemeral port (see {!port}) *)
  backlog : int;
  max_frame : int;  (** connection-fatal bound on frame size *)
  spans : C4_obs.Span.t option;
      (** adopt incoming trace contexts into this buffer; [None] (the
          default) disables server-side tracing *)
  cluster : cluster option;
      (** shard-map routing + replication hooks; [None] (the default)
          serves every key and rejects CLUSTER_INFO *)
  loops : int;  (** event-loop domains *)
  max_pending : int;
      (** slow-client bound: a connection holding this many submitted
          but not-yet-flushed responses is dropped (counted in
          [net.slow_client_drops], annotated as a protocol error on
          its trace) instead of buffering unboundedly *)
}

(** Loopback, ephemeral port, 64-deep backlog, 1 MiB frames, no span
    buffer, no cluster hooks; 2 loop domains and a 1024-response
    slow-client bound. *)
val default_config : config

type t

(** Bind, listen, and start accepting. [registry] (created with
    [~thread_safe:true] when supplied) receives the metrics; a private
    thread-safe registry is used when omitted. Raises [Unix.Unix_error]
    when the address cannot be bound. *)
val start : ?registry:C4_obs.Registry.t -> config -> runtime:C4_runtime.Server.t -> t

(** The port actually bound (resolves port 0). *)
val port : t -> int

val registry : t -> C4_obs.Registry.t

(** Graceful drain as described above. Idempotent. *)
val stop : t -> unit

type stats = {
  conns_accepted : int;
  conns_active : int;
  requests : int;  (** frames decoded and submitted *)
  inflight : int;  (** submitted but not yet answered *)
  bytes_in : int;
  bytes_out : int;
  protocol_errors : int;
  accept_errors : int;  (** accepts shed to fd exhaustion *)
  slow_client_drops : int;  (** conns dropped at the max_pending bound *)
}

val stats : t -> stats
