(* Allocation budget of the inline request path: minor words per call
   of each step a GET takes (decode in place, encode into a buffer, read
   the store into a buffer, hint the store at a batch's keys, bump a
   counter), and per pipelined GET and SET end to end through a loopback
   server, read from the worker's own gc.minor_words gauge. A step that starts allocating again fails here the way a lint
   rule fails, before any benchmark notices. *)

module Wire = C4_net.Wire
module Store = C4_kvs.Store
module Registry = C4_obs.Registry
module Runtime = C4_runtime.Server
module NetServer = C4_net.Server

(* Minor words [f] allocates per call, over [n] calls after one warm-up
   call (which may size buffers). *)
let words_per_call ?(n = 10_000) f =
  f ();
  let before = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int n

let check_budget name ~budget words =
  Printf.printf "%s: %.2f words per call\n" name words;
  if words > budget then Alcotest.failf "%s: %.2f words per call, budget %.0f" name words budget

let wire = Wire.create ()
let value = Bytes.make 512 'v'

let get_frame =
  Wire.encode_request wire
    { Wire.id = 42; op = Wire.Get; key = 1234; token = None; trace = None; value = Bytes.empty }

let test_decode_in_place () =
  let d = Wire.Decoder.create wire and v = Wire.view () in
  let words =
    words_per_call (fun () ->
        Wire.Decoder.feed d get_frame ~off:0 ~len:(Bytes.length get_frame);
        match Wire.Decoder.next d with
        | Wire.Decoder.Frame -> (
          match
            Wire.decode_into wire v (Wire.Decoder.buffer d) ~off:(Wire.Decoder.body_off d)
              ~len:(Wire.Decoder.body_len d)
          with
          | Ok () -> ()
          | Error e -> failwith e)
        | Wire.Decoder.Awaiting | Wire.Decoder.Corrupt -> failwith "no frame")
  in
  Alcotest.(check int) "decoded key" 1234 v.Wire.v_key;
  Alcotest.(check int) "decoded id" 42 v.Wire.v_id;
  check_budget "in-place GET decode" ~budget:4.0 words

let test_set_value_stays_in_place () =
  let d = Wire.Decoder.create wire and v = Wire.view () in
  let frame =
    Wire.encode_request wire
      { Wire.id = 1; op = Wire.Set; key = 9; token = None; trace = None; value }
  in
  Wire.Decoder.feed d frame ~off:0 ~len:(Bytes.length frame);
  (match Wire.Decoder.next d with
  | Wire.Decoder.Frame -> ()
  | Wire.Decoder.Awaiting | Wire.Decoder.Corrupt -> Alcotest.fail "no frame");
  (match
     Wire.decode_into wire v (Wire.Decoder.buffer d) ~off:(Wire.Decoder.body_off d)
       ~len:(Wire.Decoder.body_len d)
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "the value is a slice of the decoder's buffer" true
    (v.Wire.v_buf == Wire.Decoder.buffer d);
  Alcotest.(check string) "slice contents" (Bytes.to_string value)
    (Bytes.sub_string v.Wire.v_buf v.Wire.v_off v.Wire.v_len)

let test_encode_into_buffer () =
  let buf = Bytes.create 4096 in
  let hl = Wire.response_header_len wire in
  let words =
    words_per_call (fun () ->
        Wire.write_response_header wire buf ~off:0 ~id:42 ~status:Wire.Ok ~timing_ns:1000
          ~value_len:(Bytes.length value);
        Bytes.blit value 0 buf hl (Bytes.length value))
  in
  let expect =
    Wire.encode_response wire
      { Wire.resp_id = 42; status = Wire.Ok; timing_ns = 1000; resp_value = value }
  in
  Alcotest.(check string) "same bytes as encode_response" (Bytes.to_string expect)
    (Bytes.sub_string buf 0 (Bytes.length expect));
  check_budget "response encoded into a buffer" ~budget:0.0 words

(* The copy step a server runs inside the seqlock read: top-level, so it
   is no closure. *)
let copy_into v dst =
  Bytes.blit v 0 dst 0 (Bytes.length v);
  Bytes.length v

let test_store_read_into_buffer () =
  let store = Store.create ~n_buckets:4096 ~n_partitions:64 () in
  for key = 0 to 9_999 do
    Store.set store ~key ~value
  done;
  let dst = Bytes.create 1024 and retries = ref 0 and i = ref 0 in
  let words =
    words_per_call (fun () ->
        incr i;
        if Store.read_into store ~key:(!i mod 10_000) ~retries copy_into dst <> 512 then
          failwith "miss")
  in
  Alcotest.(check int) "no retries without writers" 0 !retries;
  check_budget "store read into a buffer" ~budget:0.0 words

(* The prefetch pass of a batch, per frame: look at the body's key, hint
   the store at its slot and at its value. *)
let test_prefetch_hints () =
  let store = Store.create ~n_buckets:4096 ~n_partitions:64 () in
  for key = 0 to 9_999 do
    Store.set store ~key ~value
  done;
  let body = Bytes.sub get_frame 5 (Bytes.length get_frame - 5) in
  let len = Bytes.length body and i = ref 0 in
  let words =
    words_per_call (fun () ->
        incr i;
        if Wire.store_op wire body ~off:0 ~len then begin
          let key = Wire.body_key wire body ~off:0 + !i in
          Store.prefetch_slot store ~key;
          Store.prefetch_value store ~key
        end
        else failwith "not a store op")
  in
  Alcotest.(check int) "the body's key" 1234 (Wire.body_key wire body ~off:0);
  check_budget "prefetch hints" ~budget:0.0 words

let test_registry_incr () =
  let reg = Registry.create ~thread_safe:true () in
  let c = Registry.counter reg "requests" in
  let words = words_per_call (fun () -> Registry.incr c) in
  Alcotest.(check int) "every bump counted" 10_001 (Registry.counter_value c);
  check_budget "Registry.incr" ~budget:0.0 words

(* ---------------- end to end ---------------- *)

let rec write_all fd b off =
  if off < Bytes.length b then write_all fd b (off + Unix.write fd b off (Bytes.length b - off))

(* Read [n] responses off [fd]; each must be Ok with a value of
   [value_len] bytes. *)
let read_responses fd d ~n ~value_len =
  let chunk = Bytes.create 65536 in
  let got = ref 0 in
  while !got < n do
    let k = Unix.read fd chunk 0 (Bytes.length chunk) in
    if k = 0 then Alcotest.fail "server closed the connection";
    Wire.Decoder.feed d chunk ~off:0 ~len:k;
    let rec drain () =
      match Wire.Decoder.next_frame d with
      | `Frame body -> (
        match Wire.decode_response wire body with
        | Ok r ->
          if r.Wire.status <> Wire.Ok || Bytes.length r.Wire.resp_value <> value_len then
            Alcotest.fail "answered without its value, or not Ok";
          incr got;
          drain ()
        | Error e -> Alcotest.fail e)
      | `Awaiting -> ()
      | `Corrupt e -> Alcotest.fail e
    in
    drain ()
  done

let requests ~op ~n ~from =
  Bytes.concat Bytes.empty
    (List.init n (fun i ->
         Wire.encode_request wire
           {
             Wire.id = from + i;
             op;
             key = (from + i) mod 1000;
             token = None;
             trace = None;
             value = (if op = Wire.Set then value else Bytes.empty);
           }))

(* Minor words per pipelined [op] on the worker of a 1-worker loopback
   server, over 1000 preloaded keys. *)
let loopback_words ~op =
  let registry = Registry.create ~thread_safe:true () in
  let runtime =
    Runtime.start
      {
        Runtime.default_config with
        Runtime.n_workers = 1;
        n_partitions = 64;
        registry = Some registry;
      }
  in
  let srv = NetServer.start ~registry NetServer.default_config ~runtime in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close fd;
      NetServer.stop srv;
      Runtime.stop runtime)
    (fun () ->
      for key = 0 to 999 do
        Runtime.set runtime ~key ~value
      done;
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, NetServer.port srv));
      let d = Wire.Decoder.create wire in
      let batch = 250 and value_len = if op = Wire.Set then 0 else 512 in
      let run ~n ~from =
        let i = ref 0 in
        while !i < n do
          write_all fd (requests ~op ~n:batch ~from:(from + !i)) 0;
          read_responses fd d ~n:batch ~value_len;
          i := !i + batch
        done
      in
      (* The worker stores its domain's count at the top of each round:
         a round trip after the measured GETs makes it cover them all. *)
      let minor_words () =
        run ~n:batch ~from:0;
        Option.get (Registry.read registry "gc.minor_words")
      in
      run ~n:2_000 ~from:0;
      let before = minor_words () in
      let n = 10_000 in
      run ~n ~from:1_000_000;
      (minor_words () -. before) /. float_of_int (n + batch))

let check_loopback ~op ~name ~budget =
  let words = loopback_words ~op in
  Printf.printf "%.1f minor words per pipelined %s on the worker\n" words name;
  if words >= budget then
    Alcotest.failf "%.1f minor words per pipelined %s on the worker, budget %.0f" words name budget

let test_loopback_get_budget () = check_loopback ~op:Wire.Get ~name:"GET" ~budget:40.0

(* A SET applied inline stages its ack in the output buffer; what it
   still allocates is its reorder slot and completion. *)
let test_loopback_set_budget () = check_loopback ~op:Wire.Set ~name:"SET" ~budget:25.0

let tests =
  [
    Alcotest.test_case "in-place GET decode allocates at most 4 words" `Quick
      test_decode_in_place;
    Alcotest.test_case "a SET's value stays a slice of the decoder buffer" `Quick
      test_set_value_stays_in_place;
    Alcotest.test_case "response encoded into a buffer allocates nothing" `Quick
      test_encode_into_buffer;
    Alcotest.test_case "store read into a buffer allocates nothing" `Quick
      test_store_read_into_buffer;
    Alcotest.test_case "Registry.incr allocates nothing" `Quick test_registry_incr;
    Alcotest.test_case "loopback GET: under 40 minor words on the worker" `Quick
      test_loopback_get_budget;
    Alcotest.test_case "prefetch hints allocate nothing" `Quick test_prefetch_hints;
    Alcotest.test_case "loopback SET: under 25 minor words on the worker" `Quick
      test_loopback_set_budget;
  ]
