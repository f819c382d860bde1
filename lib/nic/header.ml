type layout = { opcode_offset : int; key_offset : int; key_length : int }

let default_layout = { opcode_offset = 0; key_offset = 1; key_length = 8 }

type t = { layout : layout; n_buckets : int; n_partitions : int }

let check_layout { opcode_offset; key_offset; key_length } =
  if key_length < 1 || key_length > 8 then Error "key_length must be in 1..8"
  else if opcode_offset < 0 || key_offset < 0 then Error "negative offset"
  else if opcode_offset >= key_offset && opcode_offset < key_offset + key_length then
    Error "opcode overlaps key"
  else Ok ()

let register ~layout ~n_buckets ~n_partitions =
  (match check_layout layout with
  | Ok () -> ()
  | Error m -> invalid_arg ("Header.register: " ^ m));
  if n_buckets <= 0 || n_partitions <= 0 then invalid_arg "Header.register";
  { layout; n_buckets; n_partitions }

type op = [ `Read | `Write | `Delete ]

type parsed = { op : op; key : int; partition : int }

let mutates = function `Write | `Delete -> true | `Read -> false

(* Same mix as C4_kvs.Hash.mix_int; duplicated numerically (not as a
   dependency) because the NIC and KVS are distinct subsystems that
   must merely agree on f() — which this constant layout guarantees. *)
let mix_int key =
  let z = Int64.of_int key in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  Int64.to_int z land ((1 lsl 62) - 1)

let partition_of_key t key =
  let bucket = mix_int key mod t.n_buckets in
  if t.n_partitions >= t.n_buckets then bucket mod t.n_partitions
  else bucket * t.n_partitions / t.n_buckets

let read_key_le packet ~offset ~length =
  let v = ref 0L in
  for i = length - 1 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code (Bytes.get packet (offset + i))))
  done;
  Int64.to_int !v

let write_key_le packet ~offset ~length key =
  let v = ref (Int64.of_int key) in
  for i = 0 to length - 1 do
    Bytes.set packet (offset + i) (Char.chr (Int64.to_int (Int64.logand !v 0xFFL)));
    v := Int64.shift_right_logical !v 8
  done

let layout t = t.layout

let header_size t =
  max (t.layout.opcode_offset + 1) (t.layout.key_offset + t.layout.key_length)

let parse t packet =
  let { opcode_offset; key_offset; key_length } = t.layout in
  let needed = max (opcode_offset + 1) (key_offset + key_length) in
  if Bytes.length packet < needed then
    Error
      (Printf.sprintf "short packet: %d bytes, need %d" (Bytes.length packet) needed)
  else begin
    match Char.code (Bytes.get packet opcode_offset) with
    | (0 | 1 | 2) as c ->
      let op = match c with 0 -> `Read | 1 -> `Write | _ -> `Delete in
      let key = read_key_le packet ~offset:key_offset ~length:key_length in
      Ok { op; key; partition = partition_of_key t key }
    | c -> Error (Printf.sprintf "unknown opcode %d" c)
  end

let encode t ~op ~key ~value =
  let { opcode_offset; key_offset; key_length } = t.layout in
  let header_end = max (opcode_offset + 1) (key_offset + key_length) in
  let packet = Bytes.make (header_end + Bytes.length value) '\000' in
  Bytes.set packet opcode_offset
    (match op with `Read -> '\000' | `Write -> '\001' | `Delete -> '\002');
  write_key_le packet ~offset:key_offset ~length:key_length key;
  Bytes.blit value 0 packet header_end (Bytes.length value);
  packet

(* ---------------- response side ---------------- *)

type response_layout = {
  status_offset : int;
  value_len_offset : int;
  value_len_bytes : int;
}

let default_response_layout =
  { status_offset = 0; value_len_offset = 1; value_len_bytes = 4 }

type status = [ `Ok | `Not_found | `Err | `Wrong_shard | `Cluster_ok ]

type parsed_response = { status : status; value_len : int }

let response_size rl =
  max (rl.status_offset + 1) (rl.value_len_offset + rl.value_len_bytes)

let status_byte = function
  | `Ok -> '\000'
  | `Not_found -> '\001'
  | `Err -> '\002'
  | `Wrong_shard -> '\003'
  | `Cluster_ok -> '\004'

let encode_response rl ~status ~value =
  if rl.value_len_bytes < 1 || rl.value_len_bytes > 4 then
    invalid_arg "Header.encode_response: value_len_bytes must be in 1..4";
  let len = Bytes.length value in
  if rl.value_len_bytes < 4 && len >= 1 lsl (8 * rl.value_len_bytes) then
    invalid_arg "Header.encode_response: value too long for value_len_bytes";
  let header_end = response_size rl in
  let packet = Bytes.make (header_end + len) '\000' in
  Bytes.set packet rl.status_offset (status_byte status);
  write_key_le packet ~offset:rl.value_len_offset ~length:rl.value_len_bytes len;
  Bytes.blit value 0 packet header_end len;
  packet

let parse_response rl packet =
  let needed = response_size rl in
  if Bytes.length packet < needed then
    Error
      (Printf.sprintf "short response: %d bytes, need %d" (Bytes.length packet) needed)
  else
    match Char.code (Bytes.get packet rl.status_offset) with
    | (0 | 1 | 2 | 3 | 4) as c ->
      let status =
        match c with
        | 0 -> `Ok
        | 1 -> `Not_found
        | 2 -> `Err
        | 3 -> `Wrong_shard
        | _ -> `Cluster_ok
      in
      let value_len =
        read_key_le packet ~offset:rl.value_len_offset ~length:rl.value_len_bytes
      in
      if Bytes.length packet - needed < value_len then
        Error
          (Printf.sprintf "response value truncated: declared %d, %d present"
             value_len
             (Bytes.length packet - needed))
      else Ok ({ status; value_len }, Bytes.sub packet needed value_len)
    | c -> Error (Printf.sprintf "unknown status %d" c)

