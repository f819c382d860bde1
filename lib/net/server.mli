(** TCP front-end for the multicore runtime KVS: one module owns a
    connection from [accept] to [close]. An acceptor thread hands
    connection [i] to runtime worker [i mod n_workers]; each worker
    serves its connections in its I/O round, multiplexing them with
    poll(2) (see {!Poll}) alongside its self-pipe — CREW routing, write
    compaction and crash recovery apply to network traffic unchanged.
    No domain of its own: {!start} attaches the round to the runtime's
    workers ({!C4_runtime.Server.attach}), {!stop} detaches it.

    A request runs to completion on the worker that decoded it: decode
    → admit → apply → stage → flush. The worker reads its connections
    with nonblocking batched reads into a per-worker scratch buffer and
    feeds each connection's incremental {!Wire.Decoder}. It then takes
    the buffered frames up to {!batch_bound} at a time in three passes:
    it delimits them, prefetches the store slots and value blocks of
    every frame after the first ({!C4_runtime.Server.prefetch_slot}),
    and serves them in order, decoding each in place
    ({!Wire.decode_into}): a SET's value stays a slice of the decoder's
    buffer. A GET reads the store inline; a SET/DELETE is applied inline
    when its partition is free or pinned to this worker (with nothing
    queued there), its value blitted from the slice straight into the
    store slot, and forwarded to the pin holder's inbox (with a copy of
    the value) otherwise. SET acks follow the store apply, so an
    acknowledged write survives worker crashes.

    Reorder slots: each accepted request gets a slot, its place in the
    connection's response order, in a ring allocated with the
    connection. Completions come home: a request finished by another
    thread — the pin holder, the WAL sync domain, a replication-ack
    reader releasing a read fence — has its completion sent to the
    connection's worker ({!C4_runtime.Server.run_on}), so a connection
    has one thread and takes no lock. A response that heads its
    connection's order is encoded straight into the output buffer (a
    GET's value copied there from the store slot inside the seqlock
    read, the one copy it costs), with the responses parked behind it;
    one behind a response still owed is parked. Each round ends with
    one coalesced write, so responses leave in request arrival order
    however their completions interleave. Untraced, a GET allocates no
    closure and a request takes no lock.

    Protocol errors (a corrupt or undecodable frame, a completion that
    raised) are connection-fatal, but responses already owed still
    flush. A dead peer's requests still complete — an acknowledged
    write is applied whether or not the ack is deliverable — and their
    response spans still close.

    Slow clients: a connection whose pending-response count (accepted
    but not yet written, parked slots included) reaches
    {!config.max_pending} is dropped — counted in
    [net.slow_client_drops] and [net.protocol_errors], its buffered
    output abandoned; operations it already submitted still apply.

    Shutdown ({!stop}) drains gracefully: the listening socket closes
    first (no new connections), every live connection is half-closed and
    its already-received requests decoded and submitted, all pending
    responses are flushed, every connection is closed, and only then
    does [stop] return; the workers keep running their rounds
    meanwhile. The runtime server is {e not} stopped — it is owned by
    the caller, who should call {!C4_runtime.Server.stop} after this
    returns (that order, plus the runtime's reject-then-drain stop, is
    what guarantees no accepted-but-unanswered request is ever
    dropped).

    Metrics (all in [registry], which must be thread-safe):
    [net.conns_accepted], [net.conns_active], [net.bytes_in],
    [net.bytes_out], [net.inflight] (the two gauges sampled at scrape
    time: open connections, and the workers' own in-flight counts),
    [net.protocol_errors], [net.requests], [net.accept_errors] (accepts
    shed to [EMFILE]/[ENFILE] fd exhaustion — the acceptor backs off
    and survives instead of dying), [net.slow_client_drops]
    (connections dropped for exceeding {!config.max_pending}), and
    per-op service-time histograms [net.get_ns], [net.set_ns],
    [net.delete_ns]. Each mutation additionally counts toward
    [net.routed_w<i>] for the worker its admission chose to execute it
    (the decoding worker, or the partition's pin holder), registered
    eagerly for every worker. A worker keeps the per-request counts
    and service times itself and publishes them once per round, before
    its flush.

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
    carrying the node's current map; it runs on a worker and must not
    block. [cl_read_fence ~key k] is called on the thread that
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
  max_frame : int;  (** connection-fatal bound on frame size *)
  spans : C4_obs.Span.t option;
      (** adopt incoming trace contexts into this buffer; [None] (the
          default) disables server-side tracing *)
  cluster : cluster option;
      (** shard-map routing + replication hooks; [None] (the default)
          serves every key and rejects CLUSTER_INFO *)
  max_pending : int;
      (** slow-client bound: a connection holding this many submitted
          but not-yet-flushed responses is dropped (counted in
          [net.slow_client_drops], annotated as a protocol error on
          its trace) instead of buffering unboundedly *)
}

(** Loopback, ephemeral port, 1 MiB frames, no span buffer, no
    cluster hooks, a 1024-response slow-client bound. *)
val default_config : config

(** The most frames one pass delimits, prefetches and serves. A
    constant, not a setting: a read that delivers more is served in
    several batches, in order. *)
val batch_bound : int

type t

(** Bind, listen, attach to [runtime]'s workers
    ({!C4_runtime.Server.attach}) and start accepting. [registry]
    (created with [~thread_safe:true] when supplied) receives the
    metrics; a private thread-safe registry is used when omitted.
    The listen backlog is 4096 (Linux clamps it to
    [net.core.somaxconn]), deep enough for a burst of thousands of
    connects. Raises [Unix.Unix_error] when the address cannot be
    bound, and [Invalid_argument] when [max_pending] is below 1 or
    another front-end is attached to [runtime]. *)
val start : ?registry:C4_obs.Registry.t -> config -> runtime:C4_runtime.Server.t -> t

(** The port actually bound (resolves port 0). *)
val port : t -> int

val registry : t -> C4_obs.Registry.t

(** Graceful drain as described above. Idempotent: a concurrent call
    returns once the first call's drain has finished. *)
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
