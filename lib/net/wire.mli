(** Versioned, length-prefixed binary wire protocol for the network
    serving layer.

    Every frame on the socket is

    {v [length : 4 B LE] [version : 1 B] [body : length-1 B] v}

    where [length] counts the version byte plus the body, so a decoder
    can delimit frames without understanding their contents.

    A {e request} body reuses the NIC's registered header geometry
    ({!C4_nic.Header.layout}): the opcode byte and the little-endian key
    sit at exactly the offsets the simulated NIC parses, so
    [C4_nic.Header.parse] recovers (op, key, partition) from the same
    bytes the TCP server decodes — the paper's premise that NIC and
    software agree on one fixed layout (Sec. 5.1), made literal. After
    the fixed header come the request id (8 B LE), a flags byte (bit 0:
    idempotency token present; bit 1: trace context present), the
    optional token (8 B LE), the optional trace context (trace id then
    parent span id, 8 B LE each), and the value (SET only):

    {v [opcode : 1 B] [key : <=8 B LE]   <- Header.layout geometry
       [request id : 8 B LE]
       [flags : 1 B] ([token : 8 B LE] if bit 0)
       ([trace id : 8 B LE] [parent span id : 8 B LE] if bit 1)
       [value : rest]                    v}

    Versioning: the trace-context field is what bumped the protocol to
    version 2. An encoder stamps each frame with the {e lowest} version
    that can represent it — a request without trace context still goes
    out as a byte-identical version-1 frame, so a v2 client talking to
    a v1 decoder only breaks on frames that genuinely carry the new
    field (which a v1 decoder rejects cleanly, by version byte). A v2
    decoder accepts versions 1..{!version}.

    A {e response} body reuses {!C4_nic.Header.default_response_layout}
    for its first bytes (status byte, value length), then carries the
    request id it answers and the server-side service time:

    {v [status : 1 B] [value length : 4 B LE]   <- response layout
       [request id : 8 B LE]
       [server timing : 8 B LE ns]
       [value : value-length B]                 v}

    The incremental {!Decoder} tolerates torn frames and partial reads
    (bytes arrive in any segmentation) and rejects oversized frames and
    unknown versions as connection-fatal corruption. *)

type op =
  | Get
  | Set
  | Delete
  | Cluster_info
      (** cluster-runtime control op (opcode 3): an empty value asks
          the node for its current shard map; a non-empty value is an
          encoded map the node should install if the epoch is newer
          (and it still answers with its current map). Answered with
          {!Cluster_ok} by cluster members, [Err] by single-node
          servers. *)

(** In-band distributed-tracing identity ({!C4_obs.Span.context}'s wire
    shape): the request's trace id and the span id of the client span
    that caused it. Both non-negative, 8 B LE each on the wire. *)
type trace_context = { trace_id : int; parent_span : int }

type request = {
  id : int;  (** per-client request id; responses echo it *)
  op : op;
  key : int;
  token : int option;  (** idempotency token, attached on retries *)
  trace : trace_context option;
      (** propagated trace context; forces a version-2 frame *)
  value : bytes;
      (** SET payload or CLUSTER_INFO map; must be empty for GET/DELETE *)
}

type status =
  | Ok
  | Not_found
  | Err
  | Wrong_shard
      (** the node does not own the key's shard under its current map;
          [resp_value] is the node's encoded shard map so the client can
          re-route without a second round trip *)
  | Cluster_ok  (** CLUSTER_INFO answer; [resp_value] is the encoded map *)

type response = {
  resp_id : int;  (** the request id this answers *)
  status : status;
  timing_ns : int;  (** server-side service time *)
  resp_value : bytes;  (** GET value, or an error message for [Err] *)
}

(** The newest protocol version this codec speaks (2: trace context). *)
val version : int

(** Names for traces and errors: ["GET"], ["ok"], ... *)
val op_name : op -> string

val status_name : status -> string

type t

(** [create ()] builds a codec. [max_frame] (default 1 MiB) bounds the
    length prefix a decoder will accept; [layout] (default
    {!C4_nic.Header.default_layout}) fixes the request geometry. Raises
    [Invalid_argument] on a layout {!C4_nic.Header.check_layout} rejects
    or a non-positive [max_frame]. *)
val create : ?max_frame:int -> ?layout:C4_nic.Header.layout -> unit -> t

val layout : t -> C4_nic.Header.layout
val max_frame : t -> int

(** Encode a full frame (length prefix included). Raises
    [Invalid_argument] when the key does not fit the layout's
    [key_length], a GET/DELETE carries a value, or the frame would
    exceed [max_frame]. *)
val encode_request : t -> request -> bytes

val encode_response : t -> response -> bytes

(** Bytes a response frame takes before its value. *)
val response_header_len : t -> int

(** [write_response_header t buf ~off ~id ~status ~timing_ns
    ~value_len] writes a response frame's first {!response_header_len}
    bytes at [off]; the frame is complete once its [value_len] value
    bytes follow them. How a server encodes straight into its output
    buffer; {!encode_response} is this plus the value, in a fresh
    buffer. Allocates nothing. Raises [Invalid_argument] as
    {!encode_response} does. *)
val write_response_header :
  t -> bytes -> off:int -> id:int -> status:status -> timing_ns:int -> value_len:int -> unit

(** A request decoded in place, for a server's request path: the
    scalar fields copied out of the frame, the value left as a slice
    [v_buf.[v_off .. v_off + v_len)] of the buffer it arrived in. A
    server reuses one view for every frame it decodes, so decoding
    allocates nothing. The fields are written only by {!decode_into};
    [v_token] is meaningful only when {!has_token}, the trace fields
    only when {!has_trace}.

    {b The value slice is valid only until the next {!Decoder.feed}} on
    the decoder whose buffer holds it (a feed may move or overwrite
    those bytes): whatever keeps the value longer must copy it. *)
type view = {
  mutable v_id : int;
  mutable v_op : op;
  mutable v_key : int;
  mutable v_flags : int;  (** the frame's flags byte *)
  mutable v_token : int;
  mutable v_trace_id : int;
  mutable v_parent_span : int;
  mutable v_buf : bytes;
  mutable v_off : int;
  mutable v_len : int;
}

val view : unit -> view
val has_token : view -> bool
val has_trace : view -> bool

(** [decode_into t v buf ~off ~len] decodes the request body at
    [buf.[off .. off + len)] (as {!Decoder.next} delimits it) into [v].
    On [Error] the view is left as it was. Raises [Invalid_argument] on
    a range outside [buf]. *)
val decode_into : t -> view -> bytes -> off:int -> len:int -> (unit, string) result

(** [store_op t buf ~off ~len]: the body at [buf.[off .. off + len)]
    is long enough for a request's fixed fields and its opcode is GET,
    SET or DELETE. With {!body_key}, a look at the key a frame will
    touch before it is decoded, for a prefetch hint: nothing else is
    validated, so a body that passes may still fail {!decode_into}. *)
val store_op : t -> bytes -> off:int -> len:int -> bool

(** The key of a body {!store_op} accepted. *)
val body_key : t -> bytes -> off:int -> int

(** Decode a frame {e body} (as yielded by {!Decoder.next_frame}):
    {!decode_into} on a fresh view, then the view as a self-contained
    request, its value copied. *)
val decode_request : t -> bytes -> (request, string) result

val decode_response : t -> bytes -> (response, string) result

(** NIC interop: a request body's first bytes are a {!C4_nic.Header}
    packet, and this is the op a NIC parses from them. [Cluster_info] is
    net-layer-only (the NIC never parses cluster control frames), so it
    raises [Invalid_argument]. *)
val header_op : op -> C4_nic.Header.op

(** Incremental frame decoder: feed bytes as they arrive off a socket,
    pull complete frame bodies out. Torn frames — a partial length
    prefix, a body split across reads — simply wait for more bytes. *)
module Decoder : sig
  type decoder

  val create : t -> decoder

  (** Append [len] bytes of [b] starting at [off]. *)
  val feed : decoder -> bytes -> off:int -> len:int -> unit

  type frame =
    | Frame  (** a complete frame: see {!buffer}, {!body_off}, {!body_len} *)
    | Awaiting  (** more bytes are needed *)
    | Corrupt  (** see {!error} *)

  (** The next complete frame, in arrival order, decoded in place: its
      body is [buffer d.[body_off d .. body_off d + body_len d)], valid
      until the next {!feed}. [Corrupt] on an oversized length prefix
      or unknown version — connection-fatal, the stream cannot be
      resynchronised, and every subsequent call returns [Corrupt].
      Allocates nothing. *)
  val next : decoder -> frame

  val buffer : decoder -> bytes
  val body_off : decoder -> int
  val body_len : decoder -> int

  (** Why the stream is corrupt ([""] while it is not). *)
  val error : decoder -> string

  (** {!next}, with the body copied out: [`Frame body] for each complete
      frame, [`Awaiting] when more bytes are needed, [`Corrupt msg]
      once the stream is corrupt. *)
  val next_frame : decoder -> [ `Frame of bytes | `Awaiting | `Corrupt of string ]

  (** Bytes buffered but not yet yielded. *)
  val buffered : decoder -> int
end
