module Header = C4_nic.Header

type op = Get | Set | Delete | Cluster_info

type trace_context = { trace_id : int; parent_span : int }

type request = {
  id : int;
  op : op;
  key : int;
  token : int option;
  trace : trace_context option;
  value : bytes;
}

type status = Ok | Not_found | Err | Wrong_shard | Cluster_ok

type response = {
  resp_id : int;
  status : status;
  timing_ns : int;
  resp_value : bytes;
}

let version = 2
let min_version = 1

type t = {
  layout : Header.layout;
  resp_layout : Header.response_layout;
  header_size : int;  (* request fixed-header bytes (opcode + key) *)
  resp_size : int;  (* response fixed-header bytes (status + value len) *)
  max_frame : int;
}

let create ?(max_frame = 1 lsl 20) ?(layout = Header.default_layout) () =
  if max_frame <= 0 then invalid_arg "Wire.create: max_frame";
  (match Header.check_layout layout with
  | Ok () -> ()
  | Error m -> invalid_arg ("Wire.create: " ^ m));
  let resp_layout = Header.default_response_layout in
  {
    layout;
    resp_layout;
    header_size =
      max (layout.Header.opcode_offset + 1)
        (layout.Header.key_offset + layout.Header.key_length);
    resp_size = Header.response_size resp_layout;
    max_frame;
  }

let layout t = t.layout
let max_frame t = t.max_frame

(* ---------------- little-endian field helpers ---------------- *)

(* 8-byte fields go through the compiler's unboxed 64-bit loads and
   stores; the narrower key and length fields are assembled in plain
   int arithmetic. Neither allocates. *)
let put64 b off v = Bytes.set_int64_le b off (Int64.of_int v)
let get64 b off = Int64.to_int (Bytes.get_int64_le b off)

let put_le b ~off ~len v =
  if len = 8 then put64 b off v
  else
    for i = 0 to len - 1 do
      Bytes.set b (off + i) (Char.unsafe_chr ((v asr (8 * i)) land 0xFF))
    done

let get_le b ~off ~len =
  if len = 8 then get64 b off
  else begin
    let v = ref 0 in
    for i = len - 1 downto 0 do
      v := (!v lsl 8) lor Char.code (Bytes.get b (off + i))
    done;
    !v
  end

(* ---------------- request codec ---------------- *)

let opcode_byte = function
  | Get -> '\000'
  | Set -> '\001'
  | Delete -> '\002'
  | Cluster_info -> '\003'

let header_op = function
  | Get -> `Read
  | Set -> `Write
  | Delete -> `Delete
  | Cluster_info ->
    (* The NIC header has no cluster opcode: CLUSTER_INFO frames are a
       net-layer control plane the simulated NIC never parses. *)
    invalid_arg "Wire.header_op: Cluster_info has no NIC equivalent"

let frame_of_body ~version:v body =
  let n = Bytes.length body in
  let frame = Bytes.create (4 + 1 + n) in
  put_le frame ~off:0 ~len:4 (n + 1);
  Bytes.set frame 4 (Char.chr v);
  Bytes.blit body 0 frame 5 n;
  frame

let check_frame_size t ~body_len =
  if 1 + body_len > t.max_frame then
    invalid_arg
      (Printf.sprintf "Wire: frame of %d bytes exceeds max_frame %d" (1 + body_len)
         t.max_frame)

let encode_request t r =
  if r.id < 0 then invalid_arg "Wire.encode_request: negative id";
  let kl = t.layout.Header.key_length in
  if r.key < 0 || (kl < 8 && r.key >= 1 lsl (8 * kl)) then
    invalid_arg "Wire.encode_request: key does not fit key_length";
  (match r.op with
  | Set | Cluster_info -> ()
  | Get | Delete ->
    if Bytes.length r.value > 0 then
      invalid_arg "Wire.encode_request: GET/DELETE carry no value");
  let token_bytes = match r.token with None -> 0 | Some _ -> 8 in
  let trace_bytes = match r.trace with None -> 0 | Some _ -> 16 in
  let body =
    Bytes.make
      (t.header_size + 8 + 1 + token_bytes + trace_bytes + Bytes.length r.value)
      '\000'
  in
  Bytes.set body t.layout.Header.opcode_offset (opcode_byte r.op);
  put_le body ~off:t.layout.Header.key_offset ~len:kl r.key;
  put_le body ~off:t.header_size ~len:8 r.id;
  let flags =
    (if r.token = None then 0 else 1) lor if r.trace = None then 0 else 2
  in
  Bytes.set body (t.header_size + 8) (Char.chr flags);
  (match r.token with
  | None -> ()
  | Some tok ->
    if tok < 0 then invalid_arg "Wire.encode_request: negative token";
    put_le body ~off:(t.header_size + 9) ~len:8 tok);
  (match r.trace with
  | None -> ()
  | Some ctx ->
    if ctx.trace_id < 0 || ctx.parent_span < 0 then
      invalid_arg "Wire.encode_request: negative trace context id";
    put_le body ~off:(t.header_size + 9 + token_bytes) ~len:8 ctx.trace_id;
    put_le body ~off:(t.header_size + 9 + token_bytes + 8) ~len:8 ctx.parent_span);
  Bytes.blit r.value 0 body
    (t.header_size + 9 + token_bytes + trace_bytes)
    (Bytes.length r.value);
  check_frame_size t ~body_len:(Bytes.length body);
  (* Trace-context-free requests still frame as version 1 — byte-
     identical to what a v1 encoder produces, so old decoders keep
     working until a frame actually carries the new field. *)
  frame_of_body ~version:(if r.trace = None then min_version else version) body

(* A request decoded in place: the fields a server acts on, copied out
   of the frame, and the value left where it lies in the frame's
   buffer. *)
type view = {
  mutable v_id : int;
  mutable v_op : op;
  mutable v_key : int;
  mutable v_flags : int;
  mutable v_token : int;
  mutable v_trace_id : int;
  mutable v_parent_span : int;
  mutable v_buf : bytes;
  mutable v_off : int;
  mutable v_len : int;
}

let view () =
  {
    v_id = 0;
    v_op = Get;
    v_key = 0;
    v_flags = 0;
    v_token = 0;
    v_trace_id = 0;
    v_parent_span = 0;
    v_buf = Bytes.empty;
    v_off = 0;
    v_len = 0;
  }

let has_token v = v.v_flags land 1 = 1
let has_trace v = v.v_flags land 2 = 2

let op_name = function
  | Get -> "GET"
  | Set -> "SET"
  | Delete -> "DELETE"
  | Cluster_info -> "CLUSTER_INFO"

let status_name = function
  | Ok -> "ok"
  | Not_found -> "not_found"
  | Err -> "err"
  | Wrong_shard -> "wrong_shard"
  | Cluster_ok -> "cluster_ok"

let op_of_code = function 0 -> Get | 1 -> Set | 2 -> Delete | _ -> Cluster_info

(* Every check runs before the first field is written, so a view that
   fails to decode keeps the previous request's fields whole. *)
let decode_into t v buf ~off ~len =
  let fixed = t.header_size + 8 + 1 in
  if off < 0 || len < 0 || off + len > Bytes.length buf then
    invalid_arg "Wire.decode_into";
  if len < fixed then Error (Printf.sprintf "short request body: %d bytes, need %d" len fixed)
  else
    let code = Char.code (Bytes.get buf (off + t.layout.Header.opcode_offset)) in
    let flags = Char.code (Bytes.get buf (off + t.header_size + 8)) in
    if code > 3 then Error (Printf.sprintf "unknown opcode %d" code)
    else if flags land lnot 3 <> 0 then Error (Printf.sprintf "unknown flags 0x%02x" flags)
    else begin
      let token_bytes = if flags land 1 = 1 then 8 else 0 in
      let trace_bytes = if flags land 2 = 2 then 16 else 0 in
      let value_off = fixed + token_bytes + trace_bytes in
      if len < value_off then Error "request body truncated inside token/trace context"
      else if code <> 1 && code <> 3 && len > value_off then
        Error "GET/DELETE request carries a value"
      else begin
        v.v_op <- op_of_code code;
        v.v_key <-
          get_le buf ~off:(off + t.layout.Header.key_offset) ~len:t.layout.Header.key_length;
        v.v_id <- get64 buf (off + t.header_size);
        v.v_flags <- flags;
        if token_bytes > 0 then v.v_token <- get64 buf (off + fixed);
        if trace_bytes > 0 then begin
          v.v_trace_id <- get64 buf (off + fixed + token_bytes);
          v.v_parent_span <- get64 buf (off + fixed + token_bytes + 8)
        end;
        v.v_buf <- buf;
        v.v_off <- off + value_off;
        v.v_len <- len - value_off;
        Stdlib.Ok ()
      end
    end

(* A look at a delimited body before it is decoded, for a prefetch
   hint: no field is validated beyond the opcode. *)
let store_op t buf ~off ~len =
  len >= t.header_size + 8 + 1
  && Char.code (Bytes.get buf (off + t.layout.Header.opcode_offset)) <= 2

let body_key t buf ~off =
  get_le buf ~off:(off + t.layout.Header.key_offset) ~len:t.layout.Header.key_length

let request_of_view v =
  {
    id = v.v_id;
    op = v.v_op;
    key = v.v_key;
    token = (if has_token v then Some v.v_token else None);
    trace =
      (if has_trace v then Some { trace_id = v.v_trace_id; parent_span = v.v_parent_span }
       else None);
    value = (if v.v_len = 0 then Bytes.empty else Bytes.sub v.v_buf v.v_off v.v_len);
  }

let decode_request t body =
  let v = view () in
  match decode_into t v body ~off:0 ~len:(Bytes.length body) with
  | Stdlib.Ok () -> Stdlib.Ok (request_of_view v)
  | Error e -> Error e

(* ---------------- response codec ---------------- *)

let header_status = function
  | Ok -> `Ok
  | Not_found -> `Not_found
  | Err -> `Err
  | Wrong_shard -> `Wrong_shard
  | Cluster_ok -> `Cluster_ok

let status_of_header = function
  | `Ok -> Ok
  | `Not_found -> Not_found
  | `Err -> Err
  | `Wrong_shard -> Wrong_shard
  | `Cluster_ok -> Cluster_ok

(* Frame prefix, the fixed response header in the NIC-registered
   geometry, then the net-layer trailer (request id, timing). *)
let response_header_len t = 5 + t.resp_size + 16

(* One frame written where it will be sent from. Responses carry nothing
   v2 added, so they stay decodable by v1 peers. *)
let write_response_header t buf ~off ~id ~status ~timing_ns ~value_len =
  if id < 0 then invalid_arg "Wire.encode_response: negative id";
  if timing_ns < 0 then invalid_arg "Wire.encode_response: negative timing";
  let body_len = t.resp_size + 16 + value_len in
  check_frame_size t ~body_len;
  put_le buf ~off ~len:4 (body_len + 1);
  Bytes.set buf (off + 4) (Char.chr min_version);
  Header.write_response_header t.resp_layout buf ~off:(off + 5)
    ~status:(header_status status) ~value_len;
  put64 buf (off + 5 + t.resp_size) id;
  put64 buf (off + 5 + t.resp_size + 8) timing_ns

let encode_response t r =
  let len = Bytes.length r.resp_value in
  let hl = response_header_len t in
  let frame = Bytes.create (hl + len) in
  write_response_header t frame ~off:0 ~id:r.resp_id ~status:r.status ~timing_ns:r.timing_ns
    ~value_len:len;
  Bytes.blit r.resp_value 0 frame hl len;
  frame

let decode_response t body =
  let fixed = t.resp_size + 16 in
  if Bytes.length body < fixed then
    Error
      (Printf.sprintf "short response body: %d bytes, need %d" (Bytes.length body) fixed)
  else
    (* Header.parse_response wants the value directly after the fixed
       header; here the net-layer trailer intervenes, so re-join header
       and value without it before parsing. *)
    let nic_packet =
      Bytes.cat (Bytes.sub body 0 t.resp_size)
        (Bytes.sub body fixed (Bytes.length body - fixed))
    in
    match Header.parse_response t.resp_layout nic_packet with
    | Error e -> Error e
    | Ok (parsed, value) ->
      if Bytes.length nic_packet - t.resp_size <> parsed.Header.value_len then
        Error
          (Printf.sprintf "response value length mismatch: declared %d, %d present"
             parsed.Header.value_len
             (Bytes.length nic_packet - t.resp_size))
      else
        Ok
          {
            resp_id = get64 body t.resp_size;
            status = status_of_header parsed.Header.status;
            timing_ns = get64 body (t.resp_size + 8);
            resp_value = value;
          }

(* ---------------- incremental decoder ---------------- *)

module Decoder = struct
  type decoder = {
    codec : t;
    mutable buf : bytes;
    mutable start : int;  (* first unconsumed byte *)
    mutable len : int;  (* unconsumed byte count *)
    mutable body_off : int;  (* the last frame [next] yielded *)
    mutable body_len : int;
    mutable corrupt : string option;
  }

  type frame = Frame | Awaiting | Corrupt

  let create codec =
    {
      codec;
      buf = Bytes.create 4096;
      start = 0;
      len = 0;
      body_off = 0;
      body_len = 0;
      corrupt = None;
    }

  let buffered d = d.len
  let buffer d = d.buf
  let body_off d = d.body_off
  let body_len d = d.body_len
  let error d = Option.value d.corrupt ~default:""

  (* Slide pending bytes to the front when that frees enough room;
     allocate (2x growth) only when they genuinely don't fit. *)
  let ensure_room d extra =
    if d.start + d.len + extra > Bytes.length d.buf then begin
      if d.len + extra <= Bytes.length d.buf then
        (* In-place compaction: Bytes.blit handles overlapping ranges. *)
        Bytes.blit d.buf d.start d.buf 0 d.len
      else begin
        let nb = Bytes.create (max (d.len + extra) (2 * Bytes.length d.buf)) in
        Bytes.blit d.buf d.start nb 0 d.len;
        d.buf <- nb
      end;
      d.start <- 0
    end

  let feed d b ~off ~len =
    if off < 0 || len < 0 || off + len > Bytes.length b then
      invalid_arg "Wire.Decoder.feed";
    ensure_room d len;
    Bytes.blit b off d.buf (d.start + d.len) len;
    d.len <- d.len + len

  let fail d msg =
    d.corrupt <- Some msg;
    Corrupt

  (* The body stays in [buf]: consuming a frame only moves [start], and
     only [feed] ever moves or overwrites bytes. *)
  let next d =
    if Option.is_some d.corrupt then Corrupt
    else if d.len < 4 then Awaiting
    else begin
      let frame_len = get_le d.buf ~off:d.start ~len:4 in
      if frame_len < 1 || frame_len > d.codec.max_frame then
        fail d
          (Printf.sprintf "frame length %d out of bounds (max %d)" frame_len
             d.codec.max_frame)
      else if d.len < 4 + frame_len then Awaiting
      else begin
        let v = Char.code (Bytes.get d.buf (d.start + 4)) in
        if v < min_version || v > version then
          fail d (Printf.sprintf "unknown protocol version %d" v)
        else begin
          d.body_off <- d.start + 5;
          d.body_len <- frame_len - 1;
          d.start <- d.start + 4 + frame_len;
          d.len <- d.len - (4 + frame_len);
          if d.len = 0 then d.start <- 0;
          Frame
        end
      end
    end

  let next_frame d =
    match next d with
    | Frame -> `Frame (Bytes.sub d.buf d.body_off d.body_len)
    | Awaiting -> `Awaiting
    | Corrupt -> `Corrupt (error d)
end
