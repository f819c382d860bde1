(* Network serving tests: wire codec round-trips (qcheck), torn-frame
   and corruption handling, NIC header interop, and live loopback
   integration — pipelining order, concurrent-client linearizability,
   crash recovery observed through real sockets, graceful drain. *)

module Wire = C4_net.Wire
module NetServer = C4_net.Server
module NetClient = C4_net.Client
module Header = C4_nic.Header
module Runtime = C4_runtime.Server
module History = C4_consistency.History
module Lin = C4_consistency.Linearizability

let wire = Wire.create ()

(* ---------------- codec: round trips ---------------- *)

let request_equal (a : Wire.request) (b : Wire.request) =
  a.Wire.id = b.Wire.id && a.Wire.op = b.Wire.op && a.Wire.key = b.Wire.key
  && a.Wire.token = b.Wire.token && a.Wire.trace = b.Wire.trace
  && Bytes.equal a.Wire.value b.Wire.value

(* Body = frame minus length prefix and version byte, as the decoder
   would yield it. *)
let body_of_frame frame = Bytes.sub frame 5 (Bytes.length frame - 5)

let prop_request_roundtrip =
  QCheck.Test.make ~name:"wire request encode/decode round-trips" ~count:300
    QCheck.(
      pair
        (quad (int_bound 2)
           (int_bound ((1 lsl 40) - 1))
           (int_bound ((1 lsl 40) - 1))
           (option (int_bound ((1 lsl 40) - 1))))
        (string_of_size Gen.(int_bound 600)))
    (fun ((op_i, id, key, token), value) ->
      let op = match op_i with 0 -> Wire.Get | 1 -> Wire.Set | _ -> Wire.Delete in
      let value = if op = Wire.Set then Bytes.of_string value else Bytes.empty in
      let req = { Wire.id; op; key; token; trace = None; value } in
      match Wire.decode_request wire (body_of_frame (Wire.encode_request wire req)) with
      | Ok req' -> request_equal req req'
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e)

let prop_traced_request_roundtrip =
  QCheck.Test.make ~name:"wire trace-context encode/decode round-trips"
    ~count:300
    QCheck.(
      pair
        (quad (int_bound 2)
           (int_bound ((1 lsl 40) - 1))
           (option (int_bound ((1 lsl 40) - 1)))
           (pair (int_bound max_int) (int_bound max_int)))
        (string_of_size Gen.(int_bound 600)))
    (fun ((op_i, id, token, (trace_id, parent_span)), value) ->
      let op = match op_i with 0 -> Wire.Get | 1 -> Wire.Set | _ -> Wire.Delete in
      let value = if op = Wire.Set then Bytes.of_string value else Bytes.empty in
      let req =
        { Wire.id; op; key = id * 3; token;
          trace = Some { Wire.trace_id; parent_span }; value }
      in
      let frame = Wire.encode_request wire req in
      (* Trace context needs the v2 layout. *)
      if Bytes.get_uint8 frame 4 <> 2 then
        QCheck.Test.fail_reportf "traced frame stamped v%d" (Bytes.get_uint8 frame 4);
      match Wire.decode_request wire (body_of_frame frame) with
      | Ok req' -> request_equal req req'
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e)

let prop_response_roundtrip =
  QCheck.Test.make ~name:"wire response encode/decode round-trips" ~count:300
    QCheck.(
      quad (int_bound 2)
        (int_bound ((1 lsl 40) - 1))
        (int_bound ((1 lsl 40) - 1))
        (string_of_size Gen.(int_bound 600)))
    (fun (st_i, resp_id, timing_ns, value) ->
      let status =
        match st_i with 0 -> Wire.Ok | 1 -> Wire.Not_found | _ -> Wire.Err
      in
      let resp =
        { Wire.resp_id; status; timing_ns; resp_value = Bytes.of_string value }
      in
      match
        Wire.decode_response wire (body_of_frame (Wire.encode_response wire resp))
      with
      | Ok r ->
        r.Wire.resp_id = resp_id && r.Wire.status = status
        && r.Wire.timing_ns = timing_ns
        && Bytes.equal r.Wire.resp_value resp.Wire.resp_value
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e)

(* Response frames are built in one buffer; these are the exact bytes
   the header-then-body-then-frame encoder produced, for every status,
   with an empty and a 512 B value: the 26 bytes before the value (length
   prefix, version, status, value length, request id, timing) in hex,
   then the value itself. *)
let test_response_golden_bytes () =
  let hex b =
    String.concat ""
      (List.init (Bytes.length b) (fun i -> Printf.sprintf "%02x" (Bytes.get_uint8 b i)))
  in
  let golden =
    [
      (Wire.Ok, 0, "160000000100000000000504030201000000b168de3a00000000");
      (Wire.Ok, 512, "160200000100000200000504030201000000b168de3a00000000");
      (Wire.Not_found, 0, "160000000101000000000504030201000000b168de3a00000000");
      (Wire.Not_found, 512, "160200000101000200000504030201000000b168de3a00000000");
      (Wire.Err, 0, "160000000102000000000504030201000000b168de3a00000000");
      (Wire.Err, 512, "160200000102000200000504030201000000b168de3a00000000");
      (Wire.Wrong_shard, 0, "160000000103000000000504030201000000b168de3a00000000");
      (Wire.Wrong_shard, 512, "160200000103000200000504030201000000b168de3a00000000");
      (Wire.Cluster_ok, 0, "160000000104000000000504030201000000b168de3a00000000");
      (Wire.Cluster_ok, 512, "160200000104000200000504030201000000b168de3a00000000");
    ]
  in
  List.iter
    (fun (status, len, prefix) ->
      let value = Bytes.init len (fun i -> Char.chr ((i * 7 + 3) land 0xff)) in
      let frame =
        Wire.encode_response wire
          {
            Wire.resp_id = 0x0102030405;
            status;
            timing_ns = 987654321;
            resp_value = value;
          }
      in
      Alcotest.(check int) "frame length" (26 + len) (Bytes.length frame);
      Alcotest.(check string) "header bytes" prefix (hex (Bytes.sub frame 0 26));
      Alcotest.(check bool) "value bytes" true (Bytes.equal value (Bytes.sub frame 26 len)))
    golden

(* ---------------- codec: decoder resilience ---------------- *)

let test_torn_frames () =
  let reqs =
    List.init 20 (fun i ->
        {
          Wire.id = i;
          op = (match i mod 3 with 0 -> Wire.Get | 1 -> Wire.Set | _ -> Wire.Delete);
          key = i * 17;
          token = (if i mod 4 = 0 then Some (1000 + i) else None);
          trace =
            (* Mix v1 (ctx-free) and v2 (traced) frames in one stream. *)
            (if i mod 5 = 0 then
               Some { Wire.trace_id = (i * 7) + 1; parent_span = (i * 11) + 2 }
             else None);
          value = (if i mod 3 = 1 then Bytes.make (i * 13) 'x' else Bytes.empty);
        })
  in
  let stream =
    Bytes.concat Bytes.empty (List.map (Wire.encode_request wire) reqs)
  in
  let d = Wire.Decoder.create wire in
  let decoded = ref [] in
  (* One byte at a time: every frame arrives torn in every position. *)
  for i = 0 to Bytes.length stream - 1 do
    Wire.Decoder.feed d stream ~off:i ~len:1;
    let rec pull () =
      match Wire.Decoder.next_frame d with
      | `Awaiting -> ()
      | `Corrupt msg -> Alcotest.failf "corrupt at byte %d: %s" i msg
      | `Frame body ->
        (match Wire.decode_request wire body with
        | Ok r -> decoded := r :: !decoded
        | Error e -> Alcotest.failf "decode at byte %d: %s" i e);
        pull ()
    in
    pull ()
  done;
  Alcotest.(check int) "all frames recovered" (List.length reqs)
    (List.length !decoded);
  Alcotest.(check bool) "frames identical and in order" true
    (List.for_all2 request_equal reqs (List.rev !decoded));
  Alcotest.(check int) "no residue" 0 (Wire.Decoder.buffered d)

let test_oversized_frame_rejected () =
  let small = Wire.create ~max_frame:64 () in
  let d = Wire.Decoder.create small in
  let b = Bytes.make 8 '\000' in
  Bytes.set b 0 '\xff';
  Bytes.set b 1 '\xff';
  (* length prefix 0xffff > 64 *)
  Wire.Decoder.feed d b ~off:0 ~len:8;
  (match Wire.Decoder.next_frame d with
  | `Corrupt _ -> ()
  | `Frame _ | `Awaiting -> Alcotest.fail "oversized frame accepted");
  (* Corruption is sticky: the stream cannot be resynchronised. *)
  let good =
    Wire.encode_request small
      { Wire.id = 1; op = Wire.Get; key = 2; token = None; trace = None;
        value = Bytes.empty }
  in
  Wire.Decoder.feed d good ~off:0 ~len:(Bytes.length good);
  match Wire.Decoder.next_frame d with
  | `Corrupt _ -> ()
  | `Frame _ | `Awaiting -> Alcotest.fail "decoder resynchronised after corruption"

let test_bad_version_rejected () =
  let frame =
    Wire.encode_request wire
      { Wire.id = 7; op = Wire.Get; key = 3; token = None; trace = None;
        value = Bytes.empty }
  in
  Bytes.set frame 4 '\042';
  let d = Wire.Decoder.create wire in
  Wire.Decoder.feed d frame ~off:0 ~len:(Bytes.length frame);
  match Wire.Decoder.next_frame d with
  | `Corrupt _ -> ()
  | `Frame _ | `Awaiting -> Alcotest.fail "unknown version accepted"

let test_strict_request_decode () =
  Alcotest.check_raises "value on GET rejected at encode"
    (Invalid_argument "Wire.encode_request: GET/DELETE carry no value")
    (fun () ->
      ignore
        (Wire.encode_request wire
           { Wire.id = 1; op = Wire.Get; key = 2; token = None; trace = None;
             value = Bytes.of_string "x" }));
  (* Unknown flag bits are rejected, not ignored. *)
  let hdr =
    Header.register ~layout:(Wire.layout wire) ~n_buckets:64 ~n_partitions:4
  in
  let body =
    body_of_frame
      (Wire.encode_request wire
         { Wire.id = 1; op = Wire.Set; key = 2; token = None; trace = None;
           value = Bytes.of_string "v" })
  in
  Bytes.set body (Header.header_size hdr + 8) '\x80';
  (match Wire.decode_request wire body with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown flag bits accepted");
  (* A GET whose body has trailing bytes after the flags is rejected. *)
  let get_body =
    body_of_frame
      (Wire.encode_request wire
         { Wire.id = 1; op = Wire.Get; key = 2; token = None; trace = None;
           value = Bytes.empty })
  in
  let padded = Bytes.cat get_body (Bytes.of_string "junk") in
  match Wire.decode_request wire padded with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "GET with trailing value accepted"

(* ---------------- codec: NIC header interop ---------------- *)

let test_nic_header_interop () =
  let hdr =
    Header.register ~layout:(Wire.layout wire) ~n_buckets:1024 ~n_partitions:16
  in
  List.iter
    (fun (op, key, value) ->
      let frame =
        Wire.encode_request wire
          { Wire.id = 99; op; key; token = Some 5; trace = None; value }
      in
      match Header.parse hdr (body_of_frame frame) with
      | Error e -> Alcotest.failf "NIC failed to parse wire body: %s" e
      | Ok parsed ->
        Alcotest.(check bool) "op agrees" true
          (parsed.Header.op = Wire.header_op op);
        Alcotest.(check int) "key agrees" key parsed.Header.key;
        Alcotest.(check int) "partition agrees"
          (C4_kvs.Hash.partition_of_key ~n_buckets:1024 ~n_partitions:16 key)
          parsed.Header.partition)
    [
      (Wire.Get, 12345, Bytes.empty);
      (Wire.Set, 777, Bytes.make 32 'v');
      (Wire.Delete, 31, Bytes.empty);
    ]

(* ---------------- loopback integration ---------------- *)

let with_net ?(runtime_cfg = { Runtime.default_config with Runtime.n_workers = 2 })
    ?(server_cfg = NetServer.default_config) f =
  let runtime = Runtime.start runtime_cfg in
  let srv = NetServer.start server_cfg ~runtime in
  let client =
    NetClient.create
      (NetClient.default_config ~host:"127.0.0.1" ~port:(NetServer.port srv))
  in
  Fun.protect
    ~finally:(fun () ->
      NetClient.close client;
      NetServer.stop srv;
      Runtime.stop runtime)
    (fun () -> f runtime srv client)

let test_loopback_ops () =
  with_net (fun _ _ client ->
      Alcotest.(check bool) "get missing" true (NetClient.get client ~key:1 = Ok None);
      Alcotest.(check bool) "set" true
        (NetClient.set client ~key:1 ~value:(Bytes.of_string "alpha") = Ok ());
      Alcotest.(check bool) "get back" true
        (NetClient.get client ~key:1 = Ok (Some (Bytes.of_string "alpha")));
      Alcotest.(check bool) "delete present" true
        (NetClient.delete client ~key:1 = Ok true);
      Alcotest.(check bool) "delete absent" true
        (NetClient.delete client ~key:1 = Ok false);
      Alcotest.(check bool) "gone" true (NetClient.get client ~key:1 = Ok None))

let test_pipelining_order () =
  with_net (fun _ _ client ->
      let n = 500 in
      let order = ref [] in
      let lock = Mutex.create () in
      let remaining = Atomic.make n in
      for i = 0 to n - 1 do
        let op = if i mod 2 = 0 then Wire.Set else Wire.Get in
        let value = if op = Wire.Set then Bytes.of_string "v" else Bytes.empty in
        ignore
          (NetClient.dispatch client ~op ~key:7 ~value
             ~on_response:(fun r ->
               C4_runtime.Sync.with_lock lock (fun () ->
                   order := r.Wire.resp_id :: !order);
               Atomic.decr remaining)
             ())
      done;
      let deadline = Unix.gettimeofday () +. 10.0 in
      while Atomic.get remaining > 0 && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.001
      done;
      Alcotest.(check int) "all answered" 0 (Atomic.get remaining);
      (* One connection, one key: responses must arrive in dispatch
         order — the per-connection pipelining guarantee. *)
      Alcotest.(check (list int)) "responses in dispatch order"
        (List.init n (fun i -> i))
        (List.rev !order))

let test_concurrent_clients_linearizable () =
  with_net (fun _ srv _ ->
      let key = 42 in
      let now () = Unix.gettimeofday () *. 1e6 in
      let n_clients = 4 and per_client = 12 in
      let results = Array.make n_clients [] in
      let run_client c =
        Thread.create
          (fun () ->
            (* Each thread gets its own connection = its own client in
               the recorded history. *)
            let cl =
              NetClient.create
                (NetClient.default_config
                   ~host:"127.0.0.1" ~port:(NetServer.port srv))
            in
            results.(c) <-
              List.init per_client (fun i ->
                  let invoked = now () in
                  if (i + c) mod 3 = 0 then begin
                    let v = (c * 100) + i + 1 in
                    (match
                       NetClient.set cl ~key
                         ~value:(Bytes.of_string (string_of_int v))
                     with
                    | Ok () -> ()
                    | Error e -> Alcotest.failf "set failed: %s" e);
                    History.set ~client:(string_of_int c) ~value:v ~invoked
                      ~responded:(now ())
                  end
                  else begin
                    let seen =
                      match NetClient.get cl ~key with
                      | Ok (Some b) -> int_of_string (Bytes.to_string b)
                      | Ok None -> 0
                      | Error e -> Alcotest.failf "get failed: %s" e
                    in
                    History.get ~client:(string_of_int c) ~value:seen ~invoked
                      ~responded:(now ())
                  end);
            NetClient.close cl)
          ()
      in
      let threads = List.init n_clients run_client in
      List.iter Thread.join threads;
      let history = History.of_ops (List.concat (Array.to_list results)) in
      Alcotest.(check int) "history complete" (n_clients * per_client)
        (History.length history);
      match Lin.check ~initial:0 history with
      | Lin.Linearizable _ -> ()
      | Lin.Not_linearizable ->
        Alcotest.failf "networked execution not linearizable:@.%a" History.pp
          history)

let test_crash_recovery_over_network () =
  let runtime_cfg =
    { Runtime.default_config with Runtime.n_workers = 4 }
  in
  with_net ~runtime_cfg (fun runtime _ client ->
      let value_of k = Bytes.of_string (Printf.sprintf "net%d" k) in
      for key = 0 to 199 do
        match NetClient.set client ~key ~value:(value_of key) with
        | Ok () -> ()
        | Error e -> Alcotest.failf "set %d failed: %s" key e
      done;
      Runtime.inject_crash runtime ~worker:(Runtime.owner_of_key runtime 0);
      (* Write through the crash window too. *)
      for key = 200 to 399 do
        match NetClient.set client ~key ~value:(value_of key) with
        | Ok () -> ()
        | Error e -> Alcotest.failf "set %d (crash window) failed: %s" key e
      done;
      let rec await tries =
        if tries = 0 then Alcotest.fail "recovery did not complete"
        else if
          Runtime.alive_workers runtime = 4
          && (Runtime.stats runtime).Runtime.recoveries > 0
        then ()
        else begin
          Unix.sleepf 0.001;
          await (tries - 1)
        end
      in
      await 5_000;
      (* Every acknowledged write is readable through the network. *)
      for key = 0 to 399 do
        Alcotest.(check (option string))
          (Printf.sprintf "key %d survives worker crash" key)
          (Some (Bytes.to_string (value_of key)))
          (match NetClient.get client ~key with
          | Ok v -> Option.map Bytes.to_string v
          | Error e -> Alcotest.failf "get %d failed: %s" key e)
      done)

let test_graceful_drain () =
  let runtime = Runtime.start { Runtime.default_config with Runtime.n_workers = 2 } in
  let srv = NetServer.start NetServer.default_config ~runtime in
  let client =
    NetClient.create
      (NetClient.default_config ~host:"127.0.0.1" ~port:(NetServer.port srv))
  in
  let n = 300 in
  let ok = Atomic.make 0 and answered = Atomic.make 0 in
  for i = 0 to n - 1 do
    ignore
      (NetClient.dispatch client ~op:Wire.Set ~key:i ~value:(Bytes.of_string "d")
         ~on_response:(fun r ->
           if r.Wire.status = Wire.Ok then Atomic.incr ok;
           Atomic.incr answered)
         ())
  done;
  (* Wait until the server has decoded every frame, then stop: the
     drain must answer all of them before tearing anything down. *)
  let deadline = Unix.gettimeofday () +. 10.0 in
  while
    (NetServer.stats srv).NetServer.requests < n
    && Unix.gettimeofday () < deadline
  do
    Unix.sleepf 0.001
  done;
  Alcotest.(check int) "all requests reached the server" n
    (NetServer.stats srv).NetServer.requests;
  NetServer.stop srv;
  Runtime.stop runtime;
  let deadline = Unix.gettimeofday () +. 10.0 in
  while Atomic.get answered < n && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  NetClient.close client;
  Alcotest.(check int) "every accepted request answered" n (Atomic.get answered);
  Alcotest.(check int) "every answer is OK (no drops during drain)" n
    (Atomic.get ok)

(* Regression: with retries configured, a SET must carry its idempotency
   token (the first attempt's request id) from the very first attempt —
   a tokenless original cannot be deduplicated against its retry — and
   every retry must repeat that same token under a fresh request id. *)
let test_set_token_from_first_attempt () =
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  Unix.bind listen_fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listen_fd 1;
  let port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  (* (id, op, token) per decoded request, newest first. *)
  let seen = ref [] in
  let lock = Mutex.create () in
  let failures = ref 1 in
  (* Raw single-connection server: record every request, answer the
     first SET with Err to force one retry, everything else Ok. *)
  let server =
    Thread.create
      (fun () ->
        let fd, _ = Unix.accept listen_fd in
        let d = Wire.Decoder.create wire in
        let chunk = Bytes.create 4096 in
        let rec serve () =
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> ()
          | exception Unix.Unix_error _ -> ()
          | n ->
            Wire.Decoder.feed d chunk ~off:0 ~len:n;
            let rec pull () =
              match Wire.Decoder.next_frame d with
              | `Awaiting -> ()
              | `Corrupt _ -> ()
              | `Frame body ->
                (match Wire.decode_request wire body with
                | Error _ -> ()
                | Ok req ->
                  C4_runtime.Sync.with_lock lock (fun () ->
                      seen := (req.Wire.id, req.Wire.op, req.Wire.token) :: !seen);
                  let status =
                    if req.Wire.op = Wire.Set && !failures > 0 then begin
                      decr failures;
                      Wire.Err
                    end
                    else Wire.Ok
                  in
                  let frame =
                    Wire.encode_response wire
                      { Wire.resp_id = req.Wire.id; status; timing_ns = 0;
                        resp_value = Bytes.empty }
                  in
                  ignore (Unix.write fd frame 0 (Bytes.length frame)));
                pull ()
            in
            pull ();
            serve ()
        in
        serve ();
        try Unix.close fd with Unix.Unix_error _ -> ())
      ()
  in
  let client =
    NetClient.create
      {
        (NetClient.default_config ~host:"127.0.0.1" ~port) with
        NetClient.retry =
          Some
            {
              C4_resilience.Retry.default with
              C4_resilience.Retry.max_attempts = 3;
              deadline = 0.0;
            };
      }
  in
  Alcotest.(check bool) "set succeeds after one retry" true
    (NetClient.set client ~key:9 ~value:(Bytes.of_string "tok") = Ok ());
  NetClient.close client;
  Unix.close listen_fd;
  Thread.join server;
  match List.rev !seen with
  | [ (id1, Wire.Set, tok1); (id2, Wire.Set, tok2) ] ->
    Alcotest.(check bool) "first attempt already carries a token" true
      (tok1 <> None);
    (* The token mixes a per-instance nonce with the first attempt's id,
       so it is NOT the bare id — that made tokens collide across client
       instances sharing a server. *)
    Alcotest.(check (option int)) "retry repeats the original token" tok1 tok2;
    Alcotest.(check bool) "retry uses a fresh request id" true (id2 <> id1)
  | l -> Alcotest.failf "expected exactly 2 SET attempts, saw %d" (List.length l)

(* ---------------- versioning compatibility ---------------- *)

(* A context-free request must still go out as a version-1 frame,
   byte-compatible with pre-trace decoders: the encoder stamps the
   lowest version that can represent the content. *)
let test_ctx_free_frames_stay_v1 () =
  let frame =
    Wire.encode_request wire
      { Wire.id = 11; op = Wire.Set; key = 4; token = Some 8; trace = None;
        value = Bytes.of_string "v1" }
  in
  Alcotest.(check int) "ctx-free frame stamped v1" 1 (Bytes.get_uint8 frame 4);
  let traced =
    Wire.encode_request wire
      { Wire.id = 11; op = Wire.Set; key = 4; token = Some 8;
        trace = Some { Wire.trace_id = 5; parent_span = 6 };
        value = Bytes.of_string "v2" }
  in
  Alcotest.(check int) "traced frame stamped v2" 2 (Bytes.get_uint8 traced 4);
  (* Responses never carry context: always v1. *)
  let resp =
    Wire.encode_response wire
      { Wire.resp_id = 11; status = Wire.Ok; timing_ns = 1;
        resp_value = Bytes.empty }
  in
  Alcotest.(check int) "responses stamped v1" 1 (Bytes.get_uint8 resp 4);
  (* The decoder accepts both versions in one stream. *)
  let d = Wire.Decoder.create wire in
  Wire.Decoder.feed d frame ~off:0 ~len:(Bytes.length frame);
  Wire.Decoder.feed d traced ~off:0 ~len:(Bytes.length traced);
  let next () =
    match Wire.Decoder.next_frame d with
    | `Frame body -> (
      match Wire.decode_request wire body with
      | Ok r -> r
      | Error e -> Alcotest.failf "decode: %s" e)
    | `Awaiting | `Corrupt _ -> Alcotest.fail "frame not yielded"
  in
  Alcotest.(check bool) "v1 frame decodes ctx-free" true ((next ()).Wire.trace = None);
  Alcotest.(check bool) "v2 frame decodes with ctx" true
    ((next ()).Wire.trace = Some { Wire.trace_id = 5; parent_span = 6 })

(* ---------------- distributed tracing ---------------- *)

(* One traced request must yield one connected span chain across both
   processes: client.dispatch -> server.recv -> server.apply ->
   server.respond, all in one trace, with the crew admission decision
   stamped on the recv span. *)
let test_stitched_span_chain () =
  let module Span = C4_obs.Span in
  let client_buf = Span.create ~process:"client" () in
  let server_buf = Span.create ~process:"server" () in
  let runtime_cfg =
    {
      Runtime.default_config with
      Runtime.n_workers = 2;
      on_decision =
        Some
          (fun d ->
            ignore
              (Span.annotate_current server_buf ~key:"crew"
                 ~value:(C4_crew.Decision.to_string d)));
    }
  in
  let runtime = Runtime.start runtime_cfg in
  let srv =
    NetServer.start
      { NetServer.default_config with NetServer.spans = Some server_buf }
      ~runtime
  in
  let client =
    NetClient.create
      {
        (NetClient.default_config ~host:"127.0.0.1" ~port:(NetServer.port srv))
        with
        NetClient.spans = Some client_buf;
      }
  in
  Fun.protect
    ~finally:(fun () ->
      NetClient.close client;
      NetServer.stop srv;
      Runtime.stop runtime)
    (fun () ->
      Alcotest.(check bool) "set ok" true
        (NetClient.set client ~key:5 ~value:(Bytes.of_string "traced") = Ok ());
      (* The respond span closes on the server's worker after the
         response bytes go out — strictly after the client's callback
         fired, so give it a moment. *)
      let deadline = Unix.gettimeofday () +. 5.0 in
      let all_finished () =
        let spans = Span.spans server_buf in
        List.length spans = 3 && List.for_all Span.finished spans
      in
      while (not (all_finished ())) && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.001
      done;
      let dispatch =
        match Span.spans client_buf with
        | [ s ] -> s
        | l -> Alcotest.failf "expected 1 client span, got %d" (List.length l)
      in
      Alcotest.(check string) "client span name" "client.dispatch"
        (Span.name dispatch);
      Alcotest.(check bool) "client span is the root" true
        (Span.parent_id dispatch = None);
      let find_server name =
        match
          List.find_opt (fun s -> Span.name s = name) (Span.spans server_buf)
        with
        | Some s -> s
        | None -> Alcotest.failf "server span %s missing" name
      in
      let recv = find_server "server.recv" in
      let apply = find_server "server.apply" in
      let respond = find_server "server.respond" in
      (* Walk the parent links back across the process boundary. *)
      Alcotest.(check (option int)) "respond parented on apply"
        (Some (Span.span_id apply))
        (Span.parent_id respond);
      Alcotest.(check (option int)) "apply parented on recv"
        (Some (Span.span_id recv))
        (Span.parent_id apply);
      Alcotest.(check (option int)) "recv parented on the client dispatch"
        (Some (Span.span_id dispatch))
        (Span.parent_id recv);
      List.iter
        (fun s ->
          Alcotest.(check int) "one trace id end to end"
            (Span.trace_id dispatch) (Span.trace_id s);
          Alcotest.(check bool) "span finished" true (Span.finished s))
        [ dispatch; recv; apply; respond ];
      (* The admission decision the policy core took while the reader
         submitted this write landed on the recv span. *)
      Alcotest.(check bool) "crew decision stamped on recv" true
        (List.mem_assoc "crew" (Span.annotations recv));
      (* The merged Chrome export contains both process rows. *)
      let chrome = Span.to_chrome ~extra:[ server_buf ] client_buf in
      let contains needle =
        let nl = String.length needle and hl = String.length chrome in
        let rec scan i =
          i + nl <= hl && (String.sub chrome i nl = needle || scan (i + 1))
        in
        scan 0
      in
      List.iter
        (fun needle ->
          Alcotest.(check bool)
            (Printf.sprintf "chrome export mentions %s" needle)
            true (contains needle))
        [ "client.dispatch"; "server.recv"; "server.respond" ])

(* ---------------- metric migration on recovery ---------------- *)

let counter_value reg name =
  match List.assoc_opt name (C4_obs.Registry.snapshot reg) with
  | Some (C4_obs.Registry.Counter_reading n) -> n
  | Some _ -> Alcotest.failf "%s is not a counter" name
  | None -> Alcotest.failf "counter %s not registered" name

let await_true ~what cond =
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not (cond ())) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  if not (cond ()) then Alcotest.failf "timed out waiting for %s" what

(* The one worker [per_worker_ops] grew on between two snapshots; fails
   unless exactly one did, by [n]. *)
let sole_executor ~what before after n =
  let grew = ref [] in
  Array.iteri
    (fun w a -> if a <> before.(w) then grew := (w, a - before.(w)) :: !grew)
    after;
  match !grew with
  | [ (w, d) ] when d = n -> w
  | _ -> Alcotest.failf "%s: expected one worker to run %d ops" what n

(* Routed-write counts attribute to the worker that executes the write
   (the admission result): the connection's own worker while the
   partition is free, the pin holder while another worker holds it. A
   pin holder that crashes with forwarded writes queued has them
   requeued onto the survivor; its counter freezes, and once the
   partition is free again the connection's worker runs the writes. *)
let test_routed_counter_migration () =
  let runtime_cfg = { Runtime.default_config with Runtime.n_workers = 4 } in
  with_net ~runtime_cfg (fun runtime srv client ->
      let reg = NetServer.registry srv in
      let routed w = counter_value reg (Printf.sprintf "net.routed_w%d" w) in
      let ops () = (Runtime.stats runtime).Runtime.per_worker_ops in
      (* Eager registration: every worker's counter is scrapable before
         any traffic reaches it. *)
      for w = 0 to 3 do
        Alcotest.(check int) (Printf.sprintf "routed_w%d starts at 0" w) 0 (routed w)
      done;
      let set key =
        match NetClient.set client ~key ~value:(Bytes.of_string "m") with
        | Ok () -> ()
        | Error e -> Alcotest.failf "set failed: %s" e
      in
      let before = ops () in
      for _ = 1 to 25 do set 0 done;
      let home = sole_executor ~what:"free partition" before (ops ()) 25 in
      Alcotest.(check int) "sets routed to the connection's worker" 25 (routed home);
      (* Hold a pin on another worker: park it, queue a crash behind the
         gate, then pin the key there with a write from outside the
         workers. *)
      let key =
        let rec find k =
          if Runtime.owner_of_key runtime k <> home then k else find (k + 1)
        in
        find 1
      in
      let holder = Runtime.owner_of_key runtime key in
      let release = Runtime.pause_worker runtime ~worker:holder in
      Runtime.inject_crash runtime ~worker:holder;
      let pinned = Runtime.set_async runtime ~key ~value:(Bytes.of_string "x") in
      let acked = Atomic.make 0 in
      for _ = 1 to 5 do
        ignore
          (NetClient.dispatch client ~op:Wire.Set ~key ~value:(Bytes.of_string "f")
             ~on_response:(fun r -> if r.Wire.status = Wire.Ok then Atomic.incr acked)
             ())
      done;
      await_true ~what:"forwarded writes" (fun () -> routed holder = 5);
      Alcotest.(check int) "nothing ran on the connection's worker" 25 (routed home);
      release ();
      C4_runtime.Promise.await pinned;
      await_true ~what:"requeued writes acked" (fun () -> Atomic.get acked = 5);
      await_true ~what:"recovery" (fun () ->
          Runtime.alive_workers runtime = 4
          && (Runtime.stats runtime).Runtime.recoveries = 1);
      Alcotest.(check int) "backlog requeued onto the survivor" 6
        (Runtime.stats runtime).Runtime.requeued_ops;
      Alcotest.(check bool) "ownership moved off the dead worker" true
        (Runtime.owner_of_key runtime key <> holder);
      let frozen = routed holder in
      let before = ops () in
      for _ = 1 to 25 do set key done;
      Alcotest.(check int) "post-recovery sets run on the connection's worker"
        home
        (sole_executor ~what:"freed partition" before (ops ()) 25);
      Alcotest.(check int) "post-recovery sets attribute to it" 50 (routed home);
      Alcotest.(check int) "dead worker's counter is frozen" frozen (routed holder);
      (* The ownership census agrees: the dead worker re-registered with
         zero partitions, the survivor absorbed them. *)
      let counts = Runtime.ownership_counts runtime in
      Alcotest.(check int) "dead worker owns nothing" 0 counts.(holder);
      Alcotest.(check int) "census sums to the partition count"
        (Runtime.n_partitions runtime)
        (Array.fold_left ( + ) 0 counts))

(* [net.inflight] is sampled from the server's own counter at scrape
   time, not written per request. With the pin holder parked, [k]
   writes forwarded to it stay outstanding: the /metrics gauge and the
   /healthz field (built from [Server.stats], as [c4_sim serve] builds
   it) must both read [k], and both read 0 once the holder is released
   and every write is acknowledged. *)
let test_sampled_inflight_gauge () =
  let k = 6 in
  with_net (fun runtime srv client ->
      let health () =
        C4_obs.Json.Obj
          [ ("inflight", C4_obs.Json.Int (NetServer.stats srv).NetServer.inflight) ]
      in
      let tel =
        C4_obs.Telemetry.start ~port:0 ~registry:(NetServer.registry srv) ~health ()
      in
      Fun.protect ~finally:(fun () -> C4_obs.Telemetry.stop tel) @@ fun () ->
      let port = C4_obs.Telemetry.port tel in
      let metrics_inflight () =
        let _, body = Test_obs.http_get ~port "/metrics" in
        List.find_map
          (fun l ->
            match String.split_on_char ' ' l with
            | [ "net_inflight"; v ] -> Some (float_of_string v)
            | _ -> None)
          (String.split_on_char '\n' body)
      in
      let health_inflight () =
        let _, body = Test_obs.http_get ~port "/healthz" in
        Test_obs.obj_field "inflight" (Test_obs.parse_json body)
      in
      let check_both what n =
        Alcotest.(check (option (float 0.0)))
          (what ^ ": /metrics net_inflight") (Some (float_of_int n)) (metrics_inflight ());
        Alcotest.(check bool)
          (what ^ ": /healthz inflight") true
          (health_inflight () = Some (Test_obs.Num (float_of_int n)))
      in
      check_both "idle" 0;
      let set key =
        match NetClient.set client ~key ~value:(Bytes.of_string "v") with
        | Ok () -> ()
        | Error e -> Alcotest.failf "set failed: %s" e
      in
      let ops () = (Runtime.stats runtime).Runtime.per_worker_ops in
      let before = ops () in
      set 0;
      let home = sole_executor ~what:"free partition" before (ops ()) 1 in
      let key =
        let rec find k = if Runtime.owner_of_key runtime k <> home then k else find (k + 1) in
        find 1
      in
      let release = Runtime.pause_worker runtime ~worker:(Runtime.owner_of_key runtime key) in
      let pinned = Runtime.set_async runtime ~key ~value:(Bytes.of_string "pin") in
      let acked = Atomic.make 0 in
      (* Released on failure too: the server cannot stop while parked. *)
      Fun.protect ~finally:release (fun () ->
          for _ = 1 to k do
            ignore
              (NetClient.dispatch client ~op:Wire.Set ~key ~value:(Bytes.of_string "f")
                 ~on_response:(fun r -> if r.Wire.status = Wire.Ok then Atomic.incr acked)
                 ())
          done;
          await_true ~what:"forwarded writes outstanding" (fun () ->
              metrics_inflight () = Some (float_of_int k));
          check_both "held" k);
      C4_runtime.Promise.await pinned;
      await_true ~what:"writes acked" (fun () -> Atomic.get acked = k);
      check_both "drained" 0)

(* ---------------- event-loop edge cases ---------------- *)

(* Raw blocking socket straight at the server, no NetClient. *)
let raw_connect srv =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd
    (Unix.ADDR_INET (Unix.inet_addr_loopback, NetServer.port srv));
  fd

let write_all fd b =
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

(* The wire decoder promises byte-at-a-time reassembly; this drives the
   same promise through the real serving stack: a client that dribbles
   one byte per write(2) — every frame torn across hundreds of loop
   wakeups — and then reads one byte per read(2) must still get every
   pipelined GET/SET/DELETE response, in order. *)
let test_one_byte_dribble () =
  with_net (fun _ srv _ ->
      let fd = raw_connect srv in
      Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let key = 77 in
          let req i op value =
            { Wire.id = i; op; key; token = None; trace = None; value }
          in
          let reqs =
            [
              req 0 Wire.Set (Bytes.of_string "dribble");
              req 1 Wire.Get Bytes.empty;
              req 2 Wire.Delete Bytes.empty;
              req 3 Wire.Set (Bytes.of_string "again");
              req 4 Wire.Get Bytes.empty;
              req 5 Wire.Delete Bytes.empty;
            ]
          in
          let out = Buffer.create 256 in
          List.iter
            (fun r -> Buffer.add_bytes out (Wire.encode_request wire r))
            reqs;
          let out = Buffer.to_bytes out in
          let one = Bytes.create 1 in
          Bytes.iter
            (fun ch ->
              Bytes.set one 0 ch;
              let n = Unix.write fd one 0 1 in
              Alcotest.(check int) "wrote the byte" 1 n)
            out;
          let dec = Wire.Decoder.create wire in
          let got = ref [] in
          let deadline = Unix.gettimeofday () +. 10.0 in
          while List.length !got < List.length reqs do
            if Unix.gettimeofday () > deadline then
              Alcotest.fail "timed out awaiting dribbled responses";
            (match Unix.read fd one 0 1 with
            | 0 -> Alcotest.fail "server closed mid-dribble"
            | _ -> Wire.Decoder.feed dec one ~off:0 ~len:1);
            let rec drain () =
              match Wire.Decoder.next_frame dec with
              | `Frame body -> (
                match Wire.decode_response wire body with
                | Ok r -> got := r :: !got; drain ()
                | Error e -> Alcotest.failf "bad response: %s" e)
              | `Awaiting -> ()
              | `Corrupt e -> Alcotest.failf "corrupt response stream: %s" e
            in
            drain ()
          done;
          let got = List.rev !got in
          Alcotest.(check (list int)) "responses in pipeline order"
            [ 0; 1; 2; 3; 4; 5 ]
            (List.map (fun r -> r.Wire.resp_id) got);
          List.iter
            (fun r ->
              match (r.Wire.resp_id, r.Wire.status) with
              | (0 | 3), Wire.Ok -> ()
              | (0 | 3), _ -> Alcotest.failf "SET %d not Ok" r.Wire.resp_id
              | _, (Wire.Ok | Wire.Not_found) -> ()
              | _, _ -> Alcotest.failf "response %d errored" r.Wire.resp_id)
            got))

(* A client that pipelines requests with large responses and never reads
   must be dropped at the max_pending bound (counted in
   net.slow_client_drops), with the server still serving everyone
   else — not buffer the abandoned output without bound. *)
let test_slow_client_dropped () =
  let server_cfg = { NetServer.default_config with NetServer.max_pending = 4 } in
  with_net ~server_cfg (fun _ srv client ->
      let key = 9 in
      let big = Bytes.make (512 * 1024) 'x' in
      (match NetClient.set client ~key ~value:big with
      | Ok () -> ()
      | Error e -> Alcotest.failf "priming set failed: %s" e);
      let fd = raw_connect srv in
      Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (* 64 pipelined GETs of a 512 KiB value, never reading: the
             responses cannot fit any socket buffer, so pending must hit
             the bound. *)
          (* The drop may land while we are still sending: EPIPE or
             ECONNRESET here is the drop arriving early, and every
             assertion below still has to hold. *)
          (try
             for i = 0 to 63 do
               write_all fd
                 (Wire.encode_request wire
                    { Wire.id = i; op = Wire.Get; key; token = None;
                      trace = None; value = Bytes.empty })
             done
           with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
          let reg = NetServer.registry srv in
          let drops () = counter_value reg "net.slow_client_drops" in
          let deadline = Unix.gettimeofday () +. 10.0 in
          while drops () = 0 && Unix.gettimeofday () < deadline do
            Unix.sleepf 0.005
          done;
          Alcotest.(check bool) "slow client dropped" true (drops () >= 1);
          (* The drop closes the connection: reading drains whatever was
             already in flight, then hits EOF or a reset. *)
          let buf = Bytes.create 65536 in
          let closed = ref false in
          let deadline = Unix.gettimeofday () +. 10.0 in
          while (not !closed) && Unix.gettimeofday () < deadline do
            match Unix.read fd buf 0 (Bytes.length buf) with
            | 0 -> closed := true
            | _ -> ()
            | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _)
              -> closed := true
          done;
          Alcotest.(check bool) "connection closed after drop" true !closed);
      (* The server survives its slow client: a well-behaved client
         still gets answers. *)
      Alcotest.(check bool) "server still serves" true
        (NetClient.get client ~key = Ok (Some big)))

(* Cluster hooks that serve every key, with a scripted read fence. *)
let fence_hooks fence =
  {
    NetServer.cl_check = (fun ~key:_ ~write:_ -> Ok ());
    cl_read_fence = fence;
    cl_info = (fun _ -> Ok Bytes.empty);
  }

let read_response fd dec =
  let buf = Bytes.create 4096 in
  let rec go () =
    match Wire.Decoder.next_frame dec with
    | `Frame body -> (
      match Wire.decode_response wire body with
      | Ok r -> r
      | Error e -> Alcotest.failf "bad response: %s" e)
    | `Corrupt e -> Alcotest.failf "corrupt response stream: %s" e
    | `Awaiting -> (
      match Unix.read fd buf 0 (Bytes.length buf) with
      | 0 -> Alcotest.fail "server closed the connection"
      | n ->
        Wire.Decoder.feed dec buf ~off:0 ~len:n;
        go ())
  in
  go ()

(* Completions finish out of order — a GET held by its read fence, a
   SET behind it that completes at once — and the responses still leave
   in arrival order: the SET's response waits in its reorder slot until
   the fence is released from another thread. *)
let test_reorder_slots_hold_arrival_order () =
  let held = ref None in
  let lock = Mutex.create () in
  let fence ~key k =
    if key = 21 then C4_runtime.Sync.with_lock lock (fun () -> held := Some k)
    else k ()
  in
  let server_cfg =
    { NetServer.default_config with NetServer.cluster = Some (fence_hooks fence) }
  in
  with_net ~server_cfg (fun _ srv _ ->
      let fd = raw_connect srv in
      Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let req id op key value =
            Wire.encode_request wire
              { Wire.id; op; key; token = None; trace = None; value }
          in
          write_all fd (req 0 Wire.Get 21 Bytes.empty);
          write_all fd (req 1 Wire.Set 22 (Bytes.of_string "later"));
          let reg = NetServer.registry srv in
          let deadline = Unix.gettimeofday () +. 10.0 in
          let fenced () = C4_runtime.Sync.with_lock lock (fun () -> !held <> None) in
          while
            (not (fenced () && counter_value reg "net.bytes_in" > 0))
            && Unix.gettimeofday () < deadline
          do
            Unix.sleepf 0.001
          done;
          Alcotest.(check bool) "GET held at its fence" true (fenced ());
          (* Give the SET time to complete and park behind the GET. *)
          Unix.sleepf 0.05;
          Alcotest.(check int) "nothing sent while the head is held" 0
            (counter_value reg "net.bytes_out");
          let release = C4_runtime.Sync.with_lock lock (fun () -> !held) in
          Thread.join (Thread.create (fun () -> Option.iter (fun k -> k ()) release) ());
          let dec = Wire.Decoder.create wire in
          let first = read_response fd dec in
          let second = read_response fd dec in
          Alcotest.(check (list int)) "arrival order" [ 0; 1 ]
            [ first.Wire.resp_id; second.Wire.resp_id ];
          Alcotest.(check bool) "GET answered" true (first.Wire.status = Wire.Not_found);
          Alcotest.(check bool) "SET acked" true (second.Wire.status = Wire.Ok)))

(* A completion that raises kills its own connection — never the thread
   that ran it — and the server keeps serving and still drains. *)
let test_raising_completion_kills_only_its_conn () =
  let fence ~key k = if key = 13 then failwith "fence raised" else k () in
  let server_cfg =
    { NetServer.default_config with NetServer.cluster = Some (fence_hooks fence) }
  in
  with_net ~server_cfg (fun runtime srv client ->
      let fd = raw_connect srv in
      Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          write_all fd
            (Wire.encode_request wire
               { Wire.id = 0; op = Wire.Get; key = 13; token = None; trace = None;
                 value = Bytes.empty });
          let buf = Bytes.create 256 in
          let closed =
            match Unix.read fd buf 0 (Bytes.length buf) with
            | 0 -> true
            | _ -> false
            | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> true
          in
          Alcotest.(check bool) "connection closed without a response" true closed);
      Alcotest.(check bool) "counted as a protocol error" true
        ((NetServer.stats srv).NetServer.protocol_errors >= 1);
      Alcotest.(check int) "no worker died" 0 (Runtime.stats runtime).Runtime.recoveries;
      Alcotest.(check bool) "other connections still served" true
        (NetClient.set client ~key:14 ~value:(Bytes.of_string "ok") = Ok ()
        && NetClient.get client ~key:14 = Ok (Some (Bytes.of_string "ok"))))

(* ---------------- run to completion on the decoding worker ---------------- *)

let frame id op key value =
  Wire.encode_request wire { Wire.id; op; key; token = None; trace = None; value }

(* With one request outstanding, every GET and SET on a free partition
   runs on the worker that owns the connection: one worker per
   connection, and the two connections land on different workers. *)
let test_inline_on_own_worker () =
  with_net (fun runtime srv _ ->
      let ops () = (Runtime.stats runtime).Runtime.per_worker_ops in
      let run fd =
        let dec = Wire.Decoder.create wire in
        let before = ops () in
        for i = 0 to 19 do
          let key = 500 + i and value = Bytes.of_string (string_of_int i) in
          write_all fd (frame (2 * i) Wire.Set key value);
          Alcotest.(check bool) "SET acked" true
            ((read_response fd dec).Wire.status = Wire.Ok);
          write_all fd (frame ((2 * i) + 1) Wire.Get key Bytes.empty);
          Alcotest.(check bytes) "GET sees it" value (read_response fd dec).Wire.resp_value
        done;
        sole_executor ~what:"one connection" before (ops ()) 40
      in
      let a = raw_connect srv and b = raw_connect srv in
      Fun.protect
        ~finally:(fun () -> List.iter Unix.close [ a; b ])
        (fun () ->
          let wa = run a and wb = run b in
          Alcotest.(check bool) "connections served by different workers" true (wa <> wb)))

(* ---------------- batches: delimit, prefetch, serve ---------------- *)

(* Responses off [fd] until the server closes the connection. *)
let responses_until_close fd =
  let dec = Wire.Decoder.create wire and buf = Bytes.create 65536 in
  let got = ref [] and closed = ref false in
  while not !closed do
    (match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> closed := true
    | n -> Wire.Decoder.feed dec buf ~off:0 ~len:n
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> closed := true);
    let rec drain () =
      match Wire.Decoder.next_frame dec with
      | `Frame body -> (
        match Wire.decode_response wire body with
        | Ok r ->
          got := r :: !got;
          drain ()
        | Error e -> Alcotest.failf "bad response: %s" e)
      | `Awaiting -> ()
      | `Corrupt e -> Alcotest.failf "corrupt response stream: %s" e
    in
    drain ()
  done;
  List.rev !got

(* One write(2) carries several batches' worth of pipelined frames:
   each group SETs a key, GETs it back and DELETEs it, over keys that
   repeat across batches. Every response comes back in order with the
   answer serving the frames one by one would give. *)
let test_batches_answered_in_order () =
  with_net (fun _ srv _ ->
      let fd = raw_connect srv in
      Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let groups = (2 * NetServer.batch_bound) + 5 in
          let value g = Bytes.of_string (Printf.sprintf "value-%d" g) in
          let key g = 3000 + (g mod 11) in
          let out =
            Bytes.concat Bytes.empty
              (List.concat
                 (List.init groups (fun g ->
                      [
                        frame (3 * g) Wire.Set (key g) (value g);
                        frame ((3 * g) + 1) Wire.Get (key g) Bytes.empty;
                        frame ((3 * g) + 2) Wire.Delete (key g) Bytes.empty;
                      ])))
          in
          Alcotest.(check int) "one write(2) carries every frame" (Bytes.length out)
            (Unix.write fd out 0 (Bytes.length out));
          let dec = Wire.Decoder.create wire in
          for g = 0 to groups - 1 do
            let set = read_response fd dec in
            let get = read_response fd dec in
            let del = read_response fd dec in
            Alcotest.(check (list int)) "arrival order"
              [ 3 * g; (3 * g) + 1; (3 * g) + 2 ]
              [ set.Wire.resp_id; get.Wire.resp_id; del.Wire.resp_id ];
            Alcotest.(check bool) "SET acked" true (set.Wire.status = Wire.Ok);
            Alcotest.(check bytes) "GET sees its SET" (value g) get.Wire.resp_value;
            Alcotest.(check bool) "DELETE found the key" true (del.Wire.status = Wire.Ok)
          done))

(* A batch whose K-th frame is corrupt is answered up to frame K-1 and
   no further, whether the decoder cannot delimit the frame (a length
   prefix past max_frame) or the request inside it does not decode (an
   unknown opcode); the connection then closes. *)
let test_corrupt_frame_ends_batch () =
  let k = 5 in
  let bad_length = Bytes.of_string "\xff\xff\xff\x7f\x02" in
  let bad_opcode =
    let f = frame (k - 1) Wire.Get 1 Bytes.empty in
    Bytes.set f (5 + Header.default_layout.Header.opcode_offset) '\x09';
    f
  in
  with_net (fun _ srv _ ->
      List.iter
        (fun (what, corrupt) ->
          let fd = raw_connect srv in
          Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              let before = (NetServer.stats srv).NetServer.protocol_errors in
              let frames =
                List.init (k - 1) (fun i ->
                    if i mod 2 = 0 then frame i Wire.Set (40 + i) (Bytes.of_string "v")
                    else frame i Wire.Get (40 + i - 1) Bytes.empty)
                @ [ corrupt ]
                @ List.init 6 (fun i -> frame (k + i) Wire.Get (40 + i) Bytes.empty)
              in
              write_all fd (Bytes.concat Bytes.empty frames);
              let got = responses_until_close fd in
              Alcotest.(check (list int))
                (what ^ ": frames before the corrupt one answered, none after")
                (List.init (k - 1) Fun.id)
                (List.map (fun r -> r.Wire.resp_id) got);
              List.iter
                (fun r ->
                  if r.Wire.status <> Wire.Ok then
                    Alcotest.failf "%s: response %d not Ok" what r.Wire.resp_id)
                got;
              Alcotest.(check int) (what ^ ": one protocol error") (before + 1)
                (NetServer.stats srv).NetServer.protocol_errors))
        [ ("length prefix", bad_length); ("opcode", bad_opcode) ])

let decision_recorder () =
  let lock = Mutex.create () and log = ref [] in
  ( (fun d -> C4_runtime.Sync.with_lock lock (fun () -> log := d :: !log)),
    fun () -> C4_runtime.Sync.with_lock lock (fun () -> List.rev !log) )

(* Replay a decision stream against a pin table: a route must name the
   current pin holder, a pin must find the partition free, an unpin must
   find it pinned. Returns the pins left and the number of routes. *)
let check_pin_stream decisions =
  let module D = C4_crew.Decision in
  let holder = Hashtbl.create 16 and routes = ref 0 in
  List.iter
    (function
      | D.Pin { partition; worker } ->
        if Hashtbl.mem holder partition then
          Alcotest.failf "partition %d pinned twice" partition;
        Hashtbl.replace holder partition worker
      | D.Route { partition; worker } ->
        incr routes;
        if Hashtbl.find_opt holder partition <> Some worker then
          Alcotest.failf "route of partition %d to %d, not its pin holder" partition
            worker
      | D.Unpin { partition } ->
        if not (Hashtbl.mem holder partition) then
          Alcotest.failf "partition %d unpinned while free" partition;
        Hashtbl.remove holder partition
      | _ -> ())
    decisions;
  (holder, !routes)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Tests run in the build sandbox: a relative directory is private. *)
let with_wal_dir name f =
  let dir = Printf.sprintf "net_wal_%s_%d" name (Unix.getpid ()) in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* Two connections — one per worker — pipeline rounds of writes and
   reads at one key. Under fsync-always every ack waits for the group
   commit, so pins stay held and the other worker's writes are
   forwarded to the holder: the decision stream must route every write
   to the current pin holder, and the merged history must linearize. *)
let test_hot_key_follows_the_pin () =
  with_wal_dir "hot" (fun dir ->
      let record, decisions = decision_recorder () in
      let runtime_cfg =
        {
          Runtime.default_config with
          Runtime.n_workers = 2;
          n_partitions = 16;
          on_decision = Some record;
          wal =
            Some
              { (C4_wal.Wal.default_config ~dir ~n_partitions:16) with
                C4_wal.Wal.fsync = C4_wal.Wal.Always };
        }
      in
      with_net ~runtime_cfg (fun runtime srv _ ->
          let key = 7 and rounds = 6 in
          let now () = Unix.gettimeofday () *. 1e6 in
          let client c fd =
            let dec = Wire.Decoder.create wire in
            List.concat
              (List.init rounds (fun r ->
                   (* 3 pipelined SETs then a GET, all in one write. *)
                   let value i = (c * 1000) + (r * 10) + i + 1 in
                   let batch =
                     List.init 3 (fun i ->
                         frame i Wire.Set key (Bytes.of_string (string_of_int (value i))))
                     @ [ frame 3 Wire.Get key Bytes.empty ]
                   in
                   let invoked = now () in
                   write_all fd (Bytes.concat Bytes.empty batch);
                   List.init 4 (fun i ->
                       let resp = read_response fd dec in
                       let responded = now () in
                       let client = string_of_int c in
                       if i < 3 then begin
                         if resp.Wire.status <> Wire.Ok then Alcotest.fail "SET failed";
                         History.set ~client ~value:(value i) ~invoked ~responded
                       end
                       else
                         let seen =
                           match resp.Wire.status with
                           | Wire.Ok -> int_of_string (Bytes.to_string resp.Wire.resp_value)
                           | _ -> 0
                         in
                         History.get ~client ~value:seen ~invoked ~responded)))
          in
          let fds = [ raw_connect srv; raw_connect srv ] in
          let results = Array.make 2 [] in
          Fun.protect
            ~finally:(fun () -> List.iter Unix.close fds)
            (fun () ->
              let threads =
                List.mapi
                  (fun c fd -> Thread.create (fun () -> results.(c) <- client c fd) ())
                  fds
              in
              List.iter Thread.join threads);
          let history = History.of_ops (List.concat (Array.to_list results)) in
          Alcotest.(check int) "history complete" (2 * rounds * 4) (History.length history);
          (match Lin.check ~initial:0 history with
          | Lin.Linearizable _ -> ()
          | Lin.Not_linearizable ->
            Alcotest.failf "hot-key history not linearizable:@.%a" History.pp history);
          let pinned, routes = check_pin_stream (decisions ()) in
          Alcotest.(check bool) "writes rode an existing pin" true (routes > 0);
          Alcotest.(check int) "every pin released" 0 (Hashtbl.length pinned);
          Alcotest.(check int) "no worker died" 0 (Runtime.stats runtime).Runtime.recoveries))

(* Both workers' connections pipeline writes to one hot key. Every
   write is admitted lock-free on the key's pin word, so the pin passes
   between the workers as it frees and is taken again (whether a write
   ever finds it held by the other worker depends on timing). The
   store's seqlock raises on a second concurrent writer, which would
   kill a worker: none may die. The key then reads back the last
   acknowledged value, and once quiet every pin taken has been
   released. *)
let test_hot_key_two_workers () =
  let registry = C4_obs.Registry.create ~thread_safe:true () in
  let runtime_cfg =
    { Runtime.default_config with Runtime.n_workers = 2; registry = Some registry }
  in
  with_net ~runtime_cfg (fun runtime srv _ ->
      let key = 11 and rounds = 150 and depth = 8 in
      let counter name =
        C4_obs.Registry.counter_value (C4_obs.Registry.counter registry name)
      in
      let fds = [| raw_connect srv; raw_connect srv |] in
      let decs = Array.map (fun _ -> Wire.Decoder.create wire) fds in
      let failed = Atomic.make 0 in
      let client c =
        for r = 1 to rounds do
          let value i = Bytes.of_string (Printf.sprintf "%d-%d-%d" c r i) in
          write_all fds.(c)
            (Bytes.concat Bytes.empty
               (List.init depth (fun i -> frame i Wire.Set key (value i))));
          for _ = 1 to depth do
            if (read_response fds.(c) decs.(c)).Wire.status <> Wire.Ok then
              Atomic.incr failed
          done
        done
      in
      Fun.protect
        ~finally:(fun () -> Array.iter Unix.close fds)
        (fun () ->
          let threads = List.init 2 (fun c -> Thread.create client c) in
          List.iter Thread.join threads;
          Alcotest.(check int) "every write acknowledged" 0 (Atomic.get failed);
          write_all fds.(0) (frame 0 Wire.Set key (Bytes.of_string "last"));
          Alcotest.(check bool) "last write acknowledged" true
            ((read_response fds.(0) decs.(0)).Wire.status = Wire.Ok);
          write_all fds.(1) (frame 1 Wire.Get key Bytes.empty);
          Alcotest.(check string) "read-back on the other worker" "last"
            (Bytes.to_string (read_response fds.(1) decs.(1)).Wire.resp_value));
      Alcotest.(check int) "no worker died" 0 (Runtime.stats runtime).Runtime.recoveries;
      Alcotest.(check int) "both workers alive" 2 (Runtime.alive_workers runtime);
      await_true ~what:"every pin released" (fun () ->
          counter "crew.pin" = counter "crew.unpin");
      Alcotest.(check int) "every word free" (counter "ewt.insert") (counter "ewt.evict"))

(* Only the worker's own loop thread runs requests inline: another
   thread started on a worker's domain (as a cluster hook may start a
   replication sender) submits from outside, so each write goes to its
   partition's durable owner rather than being pinned where it was
   submitted. *)
let test_thread_on_worker_domain_submits_from_outside () =
  let runtime = ref None and routed = ref [] in
  let cl_info _ =
    let rt = Option.get !runtime in
    let submit () =
      routed :=
        List.map
          (fun key ->
            (Runtime.owner_of_key rt key, Runtime.submit_set rt ~key ~value:Bytes.empty ~off:0 ~len:0 ignore))
          [ 0; 1; 2; 3; 4; 5; 6; 7 ]
    in
    Thread.join (Thread.create submit ());
    Ok Bytes.empty
  in
  let hooks = { (fence_hooks (fun ~key:_ k -> k ())) with NetServer.cl_info } in
  let server_cfg = { NetServer.default_config with NetServer.cluster = Some hooks } in
  with_net ~server_cfg (fun rt srv _ ->
      runtime := Some rt;
      let fd = raw_connect srv in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
          write_all fd (frame 0 Wire.Cluster_info 0 Bytes.empty);
          let resp = read_response fd (Wire.Decoder.create wire) in
          Alcotest.(check bool) "CLUSTER_INFO answered" true (resp.Wire.status = Wire.Cluster_ok));
      Alcotest.(check int) "every write submitted" 8 (List.length !routed);
      Alcotest.(check bool) "keys span both owners" true
        (List.exists (fun (o, _) -> o = 0) !routed && List.exists (fun (o, _) -> o = 1) !routed);
      List.iter
        (fun (owner, worker) ->
          Alcotest.(check int) "executed by the durable owner" owner worker)
        !routed)

(* An exception inside an inline apply (here the WAL append, through
   its replication tap) releases the write's pin and kills only its
   connection: the worker keeps serving, and the key stays writable. *)
let test_raising_apply_releases_pin () =
  with_wal_dir "raise" (fun dir ->
      let record, decisions = decision_recorder () in
      let runtime_cfg =
        {
          Runtime.default_config with
          Runtime.n_workers = 2;
          n_partitions = 16;
          on_decision = Some record;
          wal = Some (C4_wal.Wal.default_config ~dir ~n_partitions:16);
        }
      in
      with_net ~runtime_cfg (fun runtime srv client ->
          let armed = Atomic.make true in
          let wal = Option.get (Runtime.wal_handle runtime) in
          C4_wal.Wal.set_append_hook wal
            (Some (fun ~partition:_ _ -> if Atomic.get armed then failwith "append raised"));
          let fd = raw_connect srv in
          Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
              write_all fd (frame 0 Wire.Set 3 (Bytes.of_string "lost"));
              let buf = Bytes.create 256 in
              let closed =
                match Unix.read fd buf 0 (Bytes.length buf) with
                | 0 -> true
                | _ -> false
                | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> true
              in
              Alcotest.(check bool) "connection closed without a response" true closed);
          Atomic.set armed false;
          let pinned, _ = check_pin_stream (decisions ()) in
          Alcotest.(check int) "the failed write's pin was released" 0 (Hashtbl.length pinned);
          Alcotest.(check bool) "counted as a protocol error" true
            ((NetServer.stats srv).NetServer.protocol_errors >= 1);
          Alcotest.(check int) "no worker died" 0 (Runtime.stats runtime).Runtime.recoveries;
          Alcotest.(check bool) "the key is still writable" true
            (NetClient.set client ~key:3 ~value:(Bytes.of_string "ok") = Ok ()
            && NetClient.get client ~key:3 = Ok (Some (Bytes.of_string "ok")))))

(* Connection accounting, from accept to close: three raw connections
   each send one SET and one GET. All three count as accepted and
   active (in [stats] and in the /metrics gauge), and bytes in/out
   equal the exact encoded frame lengths. Closing one connection drops
   the active count to 2; [stop] closes the rest and keeps the
   accepted total. *)
let test_connection_accounting () =
  let runtime = Runtime.start { Runtime.default_config with Runtime.n_workers = 2 } in
  Fun.protect ~finally:(fun () -> Runtime.stop runtime) @@ fun () ->
  let srv = NetServer.start NetServer.default_config ~runtime in
  let fds = List.init 3 (fun _ -> raw_connect srv) in
  Fun.protect
    ~finally:(fun () ->
      NetServer.stop srv;
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) fds)
  @@ fun () ->
  let tel =
    C4_obs.Telemetry.start ~port:0 ~registry:(NetServer.registry srv)
      ~health:(fun () -> C4_obs.Json.Obj []) ()
  in
  Fun.protect ~finally:(fun () -> C4_obs.Telemetry.stop tel) @@ fun () ->
  let gauge () =
    let _, body = Test_obs.http_get ~port:(C4_obs.Telemetry.port tel) "/metrics" in
    List.find_map
      (fun l ->
        match String.split_on_char ' ' l with
        | [ "net_conns_active"; v ] -> Some (int_of_float (float_of_string v))
        | _ -> None)
      (String.split_on_char '\n' body)
  in
  let stats () = NetServer.stats srv in
  let value = Bytes.of_string "accounted" in
  let sent = ref 0 and expected_out = ref 0 in
  List.iteri
    (fun i fd ->
      let key = 300 + i in
      let send id op value =
        let frame =
          Wire.encode_request wire { Wire.id; op; key; token = None; trace = None; value }
        in
        sent := !sent + Bytes.length frame;
        write_all fd frame
      in
      send 0 Wire.Set value;
      send 1 Wire.Get Bytes.empty;
      let dec = Wire.Decoder.create wire in
      List.iter
        (fun (id, resp_value) ->
          let r = read_response fd dec in
          Alcotest.(check int) "response in order" id r.Wire.resp_id;
          Alcotest.(check bool) "answered Ok" true (r.Wire.status = Wire.Ok);
          Alcotest.(check bool) "value" true (Bytes.equal resp_value r.Wire.resp_value);
          expected_out :=
            !expected_out
            + Bytes.length
                (Wire.encode_response wire
                   { Wire.resp_id = id; status = Wire.Ok; timing_ns = 0; resp_value }))
        [ (0, Bytes.empty); (1, value) ])
    fds;
  Alcotest.(check int) "accepted" 3 (stats ()).NetServer.conns_accepted;
  Alcotest.(check int) "active" 3 (stats ()).NetServer.conns_active;
  Alcotest.(check (option int)) "/metrics net_conns_active" (Some 3) (gauge ());
  Alcotest.(check int) "bytes in = request frames" !sent (stats ()).NetServer.bytes_in;
  (* The counter follows the write(2) that the client's read can
     overtake. *)
  await_true ~what:"bytes out counted" (fun () ->
      (stats ()).NetServer.bytes_out >= !expected_out);
  Alcotest.(check int) "bytes out = response frames" !expected_out
    (stats ()).NetServer.bytes_out;
  Unix.close (List.hd fds);
  await_true ~what:"one connection closed" (fun () ->
      (stats ()).NetServer.conns_active = 2);
  Alcotest.(check (option int)) "/metrics after one close" (Some 2) (gauge ());
  NetServer.stop srv;
  Alcotest.(check int) "none active after stop" 0 (stats ()).NetServer.conns_active;
  Alcotest.(check (option int)) "/metrics after stop" (Some 0) (gauge ());
  Alcotest.(check int) "accepted total kept" 3 (stats ()).NetServer.conns_accepted

(* A burst of connects must fit the listen queue. A handshake dropped
   by a full queue waits out a 1 s SYN-ACK retransmit, so 300
   nonblocking connects, each sending one GET, are all answered within
   1 s only when the backlog holds the burst. *)
let test_connect_burst_fits_backlog () =
  let n = 300 in
  let runtime = Runtime.start { Runtime.default_config with Runtime.n_workers = 2 } in
  Fun.protect ~finally:(fun () -> Runtime.stop runtime) @@ fun () ->
  let srv = NetServer.start NetServer.default_config ~runtime in
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, NetServer.port srv) in
  let fds = Array.make n Unix.stdin and opened = ref 0 in
  Fun.protect
    ~finally:(fun () ->
      NetServer.stop srv;
      for i = 0 to !opened - 1 do
        try Unix.close fds.(i) with Unix.Unix_error _ -> ()
      done)
  @@ fun () ->
  let frame =
    Wire.encode_request wire
      { Wire.id = 0; op = Wire.Get; key = 1; token = None; trace = None; value = Bytes.empty }
  in
  let t0 = Unix.gettimeofday () in
  for i = 0 to n - 1 do
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    fds.(i) <- fd;
    incr opened;
    Unix.set_nonblock fd;
    try Unix.connect fd addr with Unix.Unix_error (Unix.EINPROGRESS, _, _) -> ()
  done;
  let sent = Array.make n false and answered = Array.make n false in
  let decs = Array.init n (fun _ -> Wire.Decoder.create wire) in
  let events = Array.make n 0 and revents = Array.make n 0 in
  let chunk = Bytes.create 4096 in
  let n_answered = ref 0 in
  while !n_answered < n && Unix.gettimeofday () -. t0 < 1.0 do
    Array.iteri
      (fun i _ ->
        events.(i) <-
          (if answered.(i) then 0
           else if sent.(i) then C4_net.Poll.pollin
           else C4_net.Poll.pollout))
      fds;
    ignore (C4_net.Poll.poll ~fds ~events ~revents ~n ~timeout_ms:10);
    Array.iteri
      (fun i fd ->
        let re = revents.(i) in
        if events.(i) = C4_net.Poll.pollout && C4_net.Poll.writable re then begin
          Alcotest.(check bool) "connected" true (Unix.getsockopt_error fd = None);
          Alcotest.(check int) "GET sent whole" (Bytes.length frame)
            (Unix.write fd frame 0 (Bytes.length frame));
          sent.(i) <- true
        end
        else if events.(i) = C4_net.Poll.pollin && C4_net.Poll.readable re then begin
          let got = Unix.read fd chunk 0 (Bytes.length chunk) in
          Alcotest.(check bool) "connection open" true (got > 0);
          Wire.Decoder.feed decs.(i) chunk ~off:0 ~len:got;
          match Wire.Decoder.next_frame decs.(i) with
          | `Frame body ->
            (match Wire.decode_response wire body with
            | Ok r ->
              Alcotest.(check int) "answers the GET" 0 r.Wire.resp_id;
              Alcotest.(check bool) "not found" true (r.Wire.status = Wire.Not_found)
            | Error e -> Alcotest.failf "bad response: %s" e);
            answered.(i) <- true;
            incr n_answered
          | `Awaiting -> ()
          | `Corrupt e -> Alcotest.failf "corrupt stream: %s" e
        end)
      fds
  done;
  Alcotest.(check int) "every connection answered within 1 s" n !n_answered

(* ---------------- completions come home ---------------- *)

(* The worker that owns [fd]'s connection: the one a GET on it runs on. *)
let conn_worker runtime fd dec ~id =
  let ops () = (Runtime.stats runtime).Runtime.per_worker_ops in
  let before = ops () in
  write_all fd (frame id Wire.Get 999_999 Bytes.empty);
  ignore (read_response fd dec);
  sole_executor ~what:"the connection's worker" before (ops ()) 1

let inflight srv = (NetServer.stats srv).NetServer.inflight

(* [ids] are submitted on [fd] and one of them (the only one in flight)
   waits for a completion that [release] lets go from another thread.
   With the connection's worker parked, nothing of the reply may happen
   ([net.inflight] counts down only in it), however long the completion
   has had; once the worker runs again every response arrives, in
   order. *)
let completes_at_home runtime srv fd dec ~home ~requests ~release ~ids =
  await_true ~what:"requests submitted" (fun () ->
      (NetServer.stats srv).NetServer.requests >= requests && inflight srv = 1);
  let resume = Runtime.pause_worker runtime ~worker:home in
  let parked = ref true in
  Fun.protect
    ~finally:(fun () -> if !parked then resume ())
    (fun () ->
      Thread.join (Thread.create release ());
      Unix.sleepf 0.05;
      Alcotest.(check int) "no reply while the connection's worker is parked" 1 (inflight srv);
      parked := false;
      resume ());
  Alcotest.(check (list int)) "responses in arrival order" ids
    (List.map (fun _ -> (read_response fd dec).Wire.resp_id) ids);
  await_true ~what:"every request answered" (fun () -> inflight srv = 0)

(* Three foreign completions — a write forwarded to the other worker's
   pin, an ack from a fsync-always WAL, a read fence released from a
   test thread — each run the reply on the connection's own worker. *)
let test_completions_come_home () =
  let runtime_cfg = { Runtime.default_config with Runtime.n_workers = 2; n_partitions = 16 } in
  (* A write forwarded to the pin holder. *)
  with_net ~runtime_cfg (fun runtime srv _ ->
      let fd = raw_connect srv and dec = Wire.Decoder.create wire in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
          let home = conn_worker runtime fd dec ~id:0 in
          let rec find ok k = if ok k then k else find ok (k + 1) in
          let key = find (fun k -> Runtime.owner_of_key runtime k <> home) 1 in
          let part k = Runtime.partition_of_key runtime k in
          let free = find (fun k -> part k <> part key) (key + 1) in
          let holder = Runtime.owner_of_key runtime key in
          let release_holder = Runtime.pause_worker runtime ~worker:holder in
          let pinned = Runtime.set_async runtime ~key ~value:(Bytes.of_string "pin") in
          write_all fd
            (Bytes.concat Bytes.empty
               [
                 frame 1 Wire.Set key (Bytes.of_string "forwarded");
                 frame 2 Wire.Get free Bytes.empty;
                 frame 3 Wire.Set free (Bytes.of_string "inline");
               ]);
          completes_at_home runtime srv fd dec ~home ~requests:4 ~ids:[ 1; 2; 3 ]
            ~release:(fun () ->
              release_holder ();
              C4_runtime.Promise.await pinned)));
  (* An ack from the WAL's sync domain, held by an ack gate. *)
  with_wal_dir "home" (fun dir ->
      let runtime_cfg =
        {
          runtime_cfg with
          Runtime.wal =
            Some
              { (C4_wal.Wal.default_config ~dir ~n_partitions:16) with
                C4_wal.Wal.fsync = C4_wal.Wal.Always };
        }
      in
      with_net ~runtime_cfg (fun runtime srv _ ->
          let held = ref [] and lock = Mutex.create () in
          C4_wal.Wal.set_ack_gate
            (Option.get (Runtime.wal_handle runtime))
            (Some
               (fun ~partition:_ ~seqno:_ cb ->
                 C4_runtime.Sync.with_lock lock (fun () -> held := cb :: !held)));
          let fd = raw_connect srv and dec = Wire.Decoder.create wire in
          Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
              let home = conn_worker runtime fd dec ~id:0 in
              write_all fd
                (Bytes.concat Bytes.empty
                   [ frame 1 Wire.Set 5 (Bytes.of_string "logged"); frame 2 Wire.Get 6 Bytes.empty ]);
              await_true ~what:"the ack held at the gate" (fun () ->
                  C4_runtime.Sync.with_lock lock (fun () -> !held <> []));
              completes_at_home runtime srv fd dec ~home ~requests:3 ~ids:[ 1; 2 ]
                ~release:(fun () ->
                  List.iter (fun cb -> cb ()) (C4_runtime.Sync.with_lock lock (fun () -> !held))))));
  (* A quorum read fence released from a test thread. *)
  let held = ref None and lock = Mutex.create () in
  let fence ~key k =
    if key = 21 then C4_runtime.Sync.with_lock lock (fun () -> held := Some k) else k ()
  in
  let server_cfg =
    { NetServer.default_config with NetServer.cluster = Some (fence_hooks fence) }
  in
  with_net ~runtime_cfg ~server_cfg (fun runtime srv _ ->
      let fd = raw_connect srv and dec = Wire.Decoder.create wire in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
          let home = conn_worker runtime fd dec ~id:0 in
          write_all fd
            (Bytes.concat Bytes.empty
               [ frame 1 Wire.Get 21 Bytes.empty; frame 2 Wire.Set 22 (Bytes.of_string "v") ]);
          completes_at_home runtime srv fd dec ~home ~requests:3 ~ids:[ 1; 2 ]
            ~release:(fun () ->
              Option.iter (fun k -> k ()) (C4_runtime.Sync.with_lock lock (fun () -> !held)))))

(* The per-request metrics are the worker's own, published once per
   round: at quiescence after [n] pipelined requests they are exact. *)
let test_round_published_metrics_exact () =
  with_net (fun _ srv _ ->
      let reg = NetServer.registry srv in
      let count name = int_of_float (Option.value ~default:0.0 (C4_obs.Registry.read reg name)) in
      let names =
        [ "net.requests"; "net.routed_w0"; "net.routed_w1"; "net.bytes_in"; "net.bytes_out";
          "net.get_ns"; "net.set_ns"; "net.delete_ns" ]
      in
      let snapshot () = List.map count names in
      let before = snapshot () in
      let fd = raw_connect srv and dec = Wire.Decoder.create wire in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
          let n = 90 in
          let frames =
            List.init n (fun i ->
                let key = 3000 + (i / 3) in
                match i mod 3 with
                | 0 -> frame i Wire.Set key (Bytes.of_string (string_of_int i))
                | 1 -> frame i Wire.Get key Bytes.empty
                | _ -> frame i Wire.Delete key Bytes.empty)
          in
          let sent = List.fold_left (fun acc f -> acc + Bytes.length f) 0 frames in
          write_all fd (Bytes.concat Bytes.empty frames);
          let received = ref 0 in
          for i = 0 to n - 1 do
            let r = read_response fd dec in
            Alcotest.(check int) "in order" i r.Wire.resp_id;
            Alcotest.(check bool) "answered Ok" true (r.Wire.status = Wire.Ok);
            received :=
              !received + Bytes.length (Wire.encode_response wire { r with Wire.timing_ns = 0 })
          done;
          await_true ~what:"the last round published" (fun () ->
              count "net.bytes_out" - List.nth before 4 >= !received);
          let delta = List.map2 ( - ) (snapshot ()) before in
          let expect =
            [ ("net.requests", n); ("net.bytes_in", sent); ("net.bytes_out", !received);
              ("net.get_ns", n / 3); ("net.set_ns", n / 3); ("net.delete_ns", n / 3) ]
          in
          List.iter
            (fun (name, v) ->
              Alcotest.(check int) name v (List.assoc name (List.combine names delta)))
            expect;
          Alcotest.(check int) "net.routed_w<i>: every mutation" (2 * n / 3)
            (List.assoc "net.routed_w0" (List.combine names delta)
            + List.assoc "net.routed_w1" (List.combine names delta))))

let tests =
  [
    QCheck_alcotest.to_alcotest prop_request_roundtrip;
    QCheck_alcotest.to_alcotest prop_traced_request_roundtrip;
    QCheck_alcotest.to_alcotest prop_response_roundtrip;
    Alcotest.test_case "response frames keep their golden bytes" `Quick
      test_response_golden_bytes;
    Alcotest.test_case "torn frames reassemble byte-by-byte" `Quick test_torn_frames;
    Alcotest.test_case "oversized frame is sticky-fatal" `Quick
      test_oversized_frame_rejected;
    Alcotest.test_case "unknown version rejected" `Quick test_bad_version_rejected;
    Alcotest.test_case "strict request decoding" `Quick test_strict_request_decode;
    Alcotest.test_case "NIC parses wire request bodies" `Quick test_nic_header_interop;
    Alcotest.test_case "loopback set/get/delete" `Quick test_loopback_ops;
    Alcotest.test_case "per-connection pipelining order" `Quick test_pipelining_order;
    Alcotest.test_case "concurrent clients linearizable" `Quick
      test_concurrent_clients_linearizable;
    Alcotest.test_case "crash recovery over the network" `Quick
      test_crash_recovery_over_network;
    Alcotest.test_case "graceful drain answers everything" `Quick test_graceful_drain;
    Alcotest.test_case "SET idempotency token from first attempt" `Quick
      test_set_token_from_first_attempt;
    Alcotest.test_case "ctx-free frames stay version 1" `Quick
      test_ctx_free_frames_stay_v1;
    Alcotest.test_case "one request, one stitched span chain" `Quick
      test_stitched_span_chain;
    Alcotest.test_case "routed counters migrate on recovery" `Quick
      test_routed_counter_migration;
    Alcotest.test_case "sampled net.inflight gauge" `Quick test_sampled_inflight_gauge;
    Alcotest.test_case "one-byte dribble completes in order" `Quick
      test_one_byte_dribble;
    Alcotest.test_case "slow client dropped at the pending bound" `Quick
      test_slow_client_dropped;
    Alcotest.test_case "reorder slots hold arrival order" `Quick
      test_reorder_slots_hold_arrival_order;
    Alcotest.test_case "completions run on the connection's worker" `Quick
      test_completions_come_home;
    Alcotest.test_case "round-published metrics are exact at quiescence" `Quick
      test_round_published_metrics_exact;
    Alcotest.test_case "a write of several batches is answered in order" `Quick
      test_batches_answered_in_order;
    Alcotest.test_case "a corrupt frame ends its batch" `Quick test_corrupt_frame_ends_batch;
    Alcotest.test_case "requests run on their own worker" `Quick
      test_inline_on_own_worker;
    Alcotest.test_case "hot key written from both workers" `Quick test_hot_key_two_workers;
    Alcotest.test_case "hot-key writes follow the pin" `Quick
      test_hot_key_follows_the_pin;
    Alcotest.test_case "raising apply releases its pin" `Quick
      test_raising_apply_releases_pin;
    Alcotest.test_case "other threads on a worker's domain submit from outside" `Quick
      test_thread_on_worker_domain_submits_from_outside;
    Alcotest.test_case "raising completion kills only its connection" `Quick
      test_raising_completion_kills_only_its_conn;
    Alcotest.test_case "connection accounting from accept to close" `Quick
      test_connection_accounting;
    Alcotest.test_case "connect burst fits the listen backlog" `Quick
      test_connect_burst_fits_backlog;
  ]
