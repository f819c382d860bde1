(** Pipelined, pooled TCP client for the {!Server} wire protocol,
    talking to one server. Requests round-robin over [conns] pooled
    connections, and each connection pipelines: many requests can be in
    flight before the first response returns. Placing keys on the nodes
    of a cluster is [C4_clusterd.Routing]'s job, one client per node.

    Retries: when [retry] is set, the synchronous {!get}/{!set}/
    {!delete} calls re-issue failed requests with the policy's capped
    exponential backoff, wall-clock deadline, and shared token-bucket
    budget ({!C4_resilience.Retry}). A SET is made safe to retry by
    attaching an idempotency token — the {e first} attempt's id mixed
    with a per-client-instance nonce, so tokens are unique across every
    client sharing a server — from the very first try, so however many
    duplicates reach the server, {!C4_runtime.Server} applies exactly
    one. Transport errors
    (connection reset, decode failure) and [Err] responses are
    retryable; [Not_found] is a successful outcome, never retried. *)

type config = {
  host : string;  (** the server's address, e.g. "127.0.0.1" *)
  port : int;
  conns : int;  (** pooled connections *)
  max_frame : int;
  retry : C4_resilience.Retry.config option;
      (** [None] = fail fast, no retries, no tokens *)
  retry_seed : int;  (** jitter determinism for {!C4_resilience.Retry.backoff_ns} *)
  spans : C4_obs.Span.t option;
      (** when set, every dispatch opens a [client.dispatch] span in
          this buffer and propagates its context in-band
          ({!Wire.request}[.trace]), making the client the root of a
          cross-process trace the server's spans stitch onto. [None]
          (the default) keeps the wire format at version 1 and costs
          nothing. *)
}

(** One connection, 1 MiB frames, no retry, seed 1, no span buffer. *)
val default_config : host:string -> port:int -> config

type t

(** Connect lazily: sockets are opened on first use (and re-opened
    after a connection dies). Raises [Invalid_argument] on a
    non-positive pool size. *)
val create : config -> t

(** {2 Asynchronous pipelined interface}

    [dispatch] assigns a fresh request id, sends the frame, and returns
    the id immediately; [on_response] fires in the connection's reader
    thread when the response arrives (or, on a transport failure, with
    a synthesised [Err] response — every dispatch gets exactly one
    callback). Raises [Invalid_argument] if [value] is given for a
    non-SET op.

    With {!config.spans} set, the dispatch's span starts a fresh trace,
    or joins the caller's when [parent] is given. *)
val dispatch :
  t ->
  op:Wire.op ->
  key:int ->
  ?value:bytes ->
  ?token:int ->
  ?parent:C4_obs.Span.context ->
  on_response:(Wire.response -> unit) ->
  unit ->
  int

(** {2 Synchronous interface (retrying)} *)

val get : t -> key:int -> (bytes option, string) result
val set : t -> key:int -> value:bytes -> (unit, string) result

(** [Ok true] when the key was present. *)
val delete : t -> key:int -> (bool, string) result

(** One CLUSTER_INFO exchange with the server — no retry loop, the
    caller (normally [C4_clusterd.Routing]) drives its own. Empty
    [payload] (the default) fetches the node's shard map; a non-empty
    payload is an encoded map to install if newer. [Ok bytes] is the
    node's current encoded map ({!Wire.Cluster_ok}); single-node
    servers answer [Err]. *)
val cluster_info : t -> ?payload:bytes -> unit -> (bytes, string) result

(** Close every pooled connection; in-flight dispatches get their
    synthesised [Err] callback. Idempotent. *)
val close : t -> unit
