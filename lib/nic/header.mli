(** Fixed-format application header parsing (Sec. 5.1).

    d-CREW needs the NIC to recover (request type, key) from each
    packet's application-level header. The KVS registers the field
    geometry — offsets and lengths within the payload — during the setup
    phase (the ioctl analogue here is {!register}), plus the number of
    hash buckets so the NIC can compute the same key→partition function
    as the software.

    The wire format modelled is the simple fixed layout of MICA/eRPC
    requests:

    {v offset 0: opcode (1 B; 0 = GET, 1 = SET, 2 = DELETE)
       offset [key_offset]: key ([key_length] <= 8 B, little endian)
       remainder: value v}

    The same geometry is what [C4_net.Wire] puts on real sockets: a
    network frame's body begins with exactly these bytes, so the
    simulated NIC and the TCP server parse identical headers. *)

type layout = {
  opcode_offset : int;
  key_offset : int;
  key_length : int;  (** 1..8 bytes *)
}

val default_layout : layout

(** [Error] names the first fault of a layout: a [key_length] outside
    1..8, a negative offset, or an opcode byte inside the key field
    (where {!encode} would overwrite it with key bytes). *)
val check_layout : layout -> (unit, string) result

type t

(** NIC-side parser state, configured once at setup time. Raises
    [Invalid_argument] on a layout {!check_layout} rejects, or on a
    non-positive bucket or partition count. *)
val register : layout:layout -> n_buckets:int -> n_partitions:int -> t

type op = [ `Read | `Write | `Delete ]

type parsed = { op : op; key : int; partition : int }

(** Does the operation mutate the store? Deletes follow the write path
    (CREW exclusivity, EWT tracking): they change partition state. *)
val mutates : op -> bool

(** Parse a packet; [Error] on short packets or unknown opcodes.
    Backward compatible: opcodes 0 (GET) and 1 (SET) parse exactly as
    they always did; 2 (DELETE) is the only addition. *)
val parse : t -> bytes -> (parsed, string) result

(** The registered layout. *)
val layout : t -> layout

(** Bytes occupied by the fixed header; the value starts here. *)
val header_size : t -> int

(** Encode a request into a packet (client-side helper used by tests and
    examples; round-trips with {!parse}). *)
val encode : t -> op:op -> key:int -> value:bytes -> bytes

(** {2 Response-side layout}

    Responses carry a status byte and an explicit value length, so a
    NIC (or any middlebox) can delimit the value without knowing the
    request it answers:

    {v offset [status_offset]: status (1 B; 0 = OK, 1 = NOT_FOUND, 2 = ERR,
                                       3 = WRONG_SHARD, 4 = CLUSTER_OK)
       offset [value_len_offset]: value length ([value_len_bytes] <= 4 B, LE)
       remainder (after {!response_size}): value v}

    Statuses 3 and 4 belong to the cluster runtime ([C4_clusterd]): a
    WRONG_SHARD response carries the answering node's current shard map
    as its value, and CLUSTER_OK answers a CLUSTER_INFO request the same
    way. Single-node deployments never emit either. *)

type response_layout = {
  status_offset : int;
  value_len_offset : int;
  value_len_bytes : int;  (** 1..4 bytes *)
}

val default_response_layout : response_layout

type status = [ `Ok | `Not_found | `Err | `Wrong_shard | `Cluster_ok ]

type parsed_response = { status : status; value_len : int }

(** Bytes occupied by the fixed response header. *)
val response_size : response_layout -> int

(** Encode a response header + value into a packet. Raises
    [Invalid_argument] when the value length does not fit in
    [value_len_bytes]. *)
val encode_response : response_layout -> status:status -> value:bytes -> bytes

(** Parse a response packet; [Error] on short packets, unknown status
    bytes, or a declared value length exceeding the bytes present. *)
val parse_response :
  response_layout -> bytes -> (parsed_response * bytes, string) result
