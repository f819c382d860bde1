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

let put_le b ~off ~len v =
  let v = ref (Int64.of_int v) in
  for i = 0 to len - 1 do
    Bytes.set b (off + i) (Char.chr (Int64.to_int (Int64.logand !v 0xFFL)));
    v := Int64.shift_right_logical !v 8
  done

let get_le b ~off ~len =
  let v = ref 0L in
  for i = len - 1 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code (Bytes.get b (off + i))))
  done;
  Int64.to_int !v

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

let decode_request t body =
  let fixed = t.header_size + 8 + 1 in
  if Bytes.length body < fixed then
    Error (Printf.sprintf "short request body: %d bytes, need %d" (Bytes.length body) fixed)
  else
    match Char.code (Bytes.get body t.layout.Header.opcode_offset) with
    | (0 | 1 | 2 | 3) as c ->
      let op =
        match c with 0 -> Get | 1 -> Set | 2 -> Delete | _ -> Cluster_info
      in
      let key =
        get_le body ~off:t.layout.Header.key_offset ~len:t.layout.Header.key_length
      in
      let id = get_le body ~off:t.header_size ~len:8 in
      let flags = Char.code (Bytes.get body (t.header_size + 8)) in
      if flags land lnot 3 <> 0 then Error (Printf.sprintf "unknown flags 0x%02x" flags)
      else begin
        let token_bytes = if flags land 1 = 1 then 8 else 0 in
        let trace_bytes = if flags land 2 = 2 then 16 else 0 in
        if Bytes.length body < fixed + token_bytes + trace_bytes then
          Error "request body truncated inside token/trace context"
        else begin
          let token =
            if token_bytes = 0 then None else Some (get_le body ~off:fixed ~len:8)
          in
          let trace =
            if trace_bytes = 0 then None
            else
              Some
                {
                  trace_id = get_le body ~off:(fixed + token_bytes) ~len:8;
                  parent_span = get_le body ~off:(fixed + token_bytes + 8) ~len:8;
                }
          in
          let value_off = fixed + token_bytes + trace_bytes in
          let value = Bytes.sub body value_off (Bytes.length body - value_off) in
          match op with
          | Set | Cluster_info -> Ok { id; op; key; token; trace; value }
          | Get | Delete ->
            if Bytes.length value > 0 then
              Error "GET/DELETE request carries a value"
            else Ok { id; op; key; token; trace; value = Bytes.empty }
        end
      end
    | c -> Error (Printf.sprintf "unknown opcode %d" c)

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

let encode_response t r =
  if r.resp_id < 0 then invalid_arg "Wire.encode_response: negative id";
  if r.timing_ns < 0 then invalid_arg "Wire.encode_response: negative timing";
  (* One buffer: frame prefix, the fixed response header in the
     NIC-registered geometry, the net-layer trailer (request id,
     timing), then the value. Responses carry nothing v2 added, so they
     stay decodable by v1 peers. *)
  let len = Bytes.length r.resp_value in
  let body_len = t.resp_size + 16 + len in
  check_frame_size t ~body_len;
  let frame = Bytes.create (5 + body_len) in
  put_le frame ~off:0 ~len:4 (body_len + 1);
  Bytes.set frame 4 (Char.chr min_version);
  Header.write_response_header t.resp_layout frame ~off:5
    ~status:(header_status r.status) ~value_len:len;
  put_le frame ~off:(5 + t.resp_size) ~len:8 r.resp_id;
  put_le frame ~off:(5 + t.resp_size + 8) ~len:8 r.timing_ns;
  Bytes.blit r.resp_value 0 frame (5 + t.resp_size + 16) len;
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
            resp_id = get_le body ~off:t.resp_size ~len:8;
            status = status_of_header parsed.Header.status;
            timing_ns = get_le body ~off:(t.resp_size + 8) ~len:8;
            resp_value = value;
          }

(* ---------------- incremental decoder ---------------- *)

module Decoder = struct
  type decoder = {
    codec : t;
    mutable buf : bytes;
    mutable start : int;  (* first unconsumed byte *)
    mutable len : int;  (* unconsumed byte count *)
    mutable corrupt : string option;
  }

  let create codec =
    { codec; buf = Bytes.create 4096; start = 0; len = 0; corrupt = None }

  let buffered d = d.len

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

  let next_frame d =
    match d.corrupt with
    | Some msg -> `Corrupt msg
    | None ->
      if d.len < 4 then `Awaiting
      else begin
        let frame_len = get_le d.buf ~off:d.start ~len:4 in
        if frame_len < 1 || frame_len > d.codec.max_frame then begin
          let msg =
            Printf.sprintf "frame length %d out of bounds (max %d)" frame_len
              d.codec.max_frame
          in
          d.corrupt <- Some msg;
          `Corrupt msg
        end
        else if d.len < 4 + frame_len then `Awaiting
        else begin
          let v = Char.code (Bytes.get d.buf (d.start + 4)) in
          if v < min_version || v > version then begin
            let msg = Printf.sprintf "unknown protocol version %d" v in
            d.corrupt <- Some msg;
            `Corrupt msg
          end
          else begin
            let body = Bytes.sub d.buf (d.start + 5) (frame_len - 1) in
            d.start <- d.start + 4 + frame_len;
            d.len <- d.len - (4 + frame_len);
            if d.len = 0 then d.start <- 0;
            `Frame body
          end
        end
      end
end

