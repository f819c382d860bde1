(** Distributed request spans: parent-linked, cross-process, buffered.

    {!Trace} records the {e simulator's} request lifecycle on logical
    lanes; this module records the {e serving path's} — a client
    dispatch, its wire transit, the server's admission/apply/respond
    stages — as spans that carry explicit identity: a trace id shared
    by every span of one request, a span id, and a parent span id.
    Because identity is explicit, the chain survives a process
    boundary: {!C4_net.Wire} carries a {!context} in-band, the server
    starts its spans with [~parent] set to the client's context, and
    either side's buffer can be exported (or both merged) as one
    stitched Chrome trace, parent links intact.

    Buffers are thread-safe (client reader threads, connection threads
    and worker domains record concurrently). Timestamps are wall-clock
    ns supplied by the caller, so spans from the two ends of a loopback
    connection share a clock. *)

type t
(** A span buffer, normally one per process role ("client", "server"). *)

type span

(** The in-band identity of a span: what {!C4_net.Wire} serialises and
    a downstream process adopts as its parent. Both ids are
    non-negative and fit 8 wire bytes. *)
type context = { trace_id : int; span_id : int }

(** [create ~process ()] names the buffer's process row in Chrome
    exports (default ["main"]). *)
val create : ?process:string -> unit -> t

val process_name : t -> string

(** Open a span at [ts] (ns). Without [parent] this starts a new trace
    (fresh trace id, no parent link); with it the span joins the
    parent's trace. Ids are unique within the process and salted per
    process, so spans minted on both ends of a connection never
    collide when merged. *)
val start : ?parent:context -> t -> name:string -> ts:float -> span

(** The identity to propagate to children (in-process or over the
    wire). *)
val context : span -> context

(** Close the span. [ts] earlier than the start is clamped to it. *)
val finish : t -> span -> ts:float -> unit

(** Attach a [key]=[value] annotation (policy decisions, op names,
    status codes). *)
val annotate : t -> span -> key:string -> value:string -> unit

(** A point-in-time occurrence not tied to any span (e.g. a policy
    decision taken on a thread with no request in flight). *)
val event : ?args:(string * string) list -> t -> name:string -> ts:float -> unit

(** {2 Ambient current span}

    [with_current t s f] marks [s] as the calling thread's innermost
    span while [f] runs (nesting restores the outer one), and
    [annotate_current] annotates that span from anywhere on the same
    thread — the hook that lets [Crew.Core]'s [on_decision] callback,
    which knows nothing about requests, stamp pin/route decisions onto
    the request span being admitted. Returns [false] (and drops the
    annotation) when the thread has no current span. *)

val with_current : t -> span -> (unit -> 'a) -> 'a

val annotate_current : t -> key:string -> value:string -> bool

(** {2 Reading back} *)

(** All spans in creation order (open ones included). *)
val spans : t -> span list

type event = { ev_name : string; ev_ts : float; ev_args : (string * string) list }

val events : t -> event list
val find : t -> id:int -> span option
val span_id : span -> int
val parent_id : span -> int option
val trace_id : span -> int
val name : span -> string
val t0 : span -> float
val t1 : span -> float option  (** [None] while open *)

val finished : span -> bool

(** Annotations in attachment order. *)
val annotations : span -> (string * string) list

(** {2 Chrome export}

    The JSON-object trace-event flavour: this buffer as pid 0, each
    [extra] buffer as the next pid (with its own process_name row) —
    pass the peer's buffer to see client and server rows of one trace
    side by side. Every span event carries [trace_id]/[span_id]/
    [parent_id] args, so the stitching is greppable in the export. *)
val to_chrome : ?extra:t list -> t -> string
