(* NIC substrate: EWT protocol and occupancy accounting, JBSQ(k)
   dispatch, header parse/encode round-trips and layout validation, and
   flow control. *)

module Ewt = C4_nic.Ewt
module Jbsq = C4_nic.Jbsq
module Header = C4_nic.Header
module Flow = C4_nic.Flow_control

(* ---------------- EWT ---------------- *)

(* A table of 1024 pin words: more partitions than the default 128
   entries, so it behaves as the NIC's CAM (census, capacity). *)
let ewt ?capacity ?max_outstanding () =
  Ewt.create ?capacity ?max_outstanding ~n_partitions:1024 ()

(* One dispatch: ride the partition's pin, or pin it to [thread]. *)
let rec note_write ?now e ~partition ~thread =
  let seen = Ewt.word e ~partition in
  if Ewt.is_free seen then
    match Ewt.pin ?now e ~partition ~holder:thread ~incarnation:0 with
    | `Moved -> note_write ?now e ~partition ~thread
    | (`Ok | `Full) as r -> r
  else
    match Ewt.route ?now e ~partition ~seen with
    | `Moved -> note_write ?now e ~partition ~thread
    | (`Ok | `Counter_saturated) as r -> r

let release e ~partition =
  Ewt.release e ~partition ~stamp:(Ewt.stamp_of (Ewt.word e ~partition))

let test_ewt_map_and_release () =
  let e = ewt () in
  Alcotest.(check (option int)) "initially unmapped" None (Ewt.lookup e ~partition:5);
  Alcotest.(check bool) "first write maps" true (note_write e ~partition:5 ~thread:3 = `Ok);
  Alcotest.(check (option int)) "mapped to thread" (Some 3) (Ewt.lookup e ~partition:5);
  Alcotest.(check int) "one outstanding" 1 (Ewt.outstanding e ~partition:5);
  Alcotest.(check bool) "second write bumps" true (note_write e ~partition:5 ~thread:3 = `Ok);
  Alcotest.(check int) "two outstanding" 2 (Ewt.outstanding e ~partition:5);
  ignore (release e ~partition:5);
  Alcotest.(check (option int)) "still mapped at one" (Some 3) (Ewt.lookup e ~partition:5);
  ignore (release e ~partition:5);
  Alcotest.(check (option int)) "freed at zero" None (Ewt.lookup e ~partition:5);
  Alcotest.(check int) "occupancy zero" 0 (Ewt.occupancy e)

let test_ewt_capacity_full () =
  let e = ewt ~capacity:2 () in
  Alcotest.(check bool) "p1" true (note_write e ~partition:1 ~thread:0 = `Ok);
  Alcotest.(check bool) "p2" true (note_write e ~partition:2 ~thread:1 = `Ok);
  Alcotest.(check bool) "p3 rejected" true (note_write e ~partition:3 ~thread:2 = `Full);
  Alcotest.(check bool) "existing entry still bumps" true
    (note_write e ~partition:1 ~thread:0 = `Ok)

let test_ewt_counter_saturation () =
  let e = ewt ~max_outstanding:3 () in
  for _ = 1 to 3 do
    Alcotest.(check bool) "ok" true (note_write e ~partition:9 ~thread:1 = `Ok)
  done;
  Alcotest.(check bool) "saturated" true
    (note_write e ~partition:9 ~thread:1 = `Counter_saturated)

(* A release must carry the stamp the word holds: one for a free word,
   or for a pin of another holder or incarnation, changes nothing. *)
let test_ewt_response_without_mapping () =
  let e = ewt () in
  let stamp = Ewt.stamp ~holder:2 ~incarnation:0 in
  Alcotest.(check bool) "unmapped release is stale" true
    (Ewt.release e ~partition:42 ~stamp = `Stale);
  ignore (note_write e ~partition:42 ~thread:2);
  Alcotest.(check bool) "retired incarnation is stale" true
    (Ewt.release e ~partition:42 ~stamp:(Ewt.stamp ~holder:2 ~incarnation:1) = `Stale);
  Alcotest.(check bool) "other holder is stale" true
    (Ewt.release e ~partition:42 ~stamp:(Ewt.stamp ~holder:3 ~incarnation:0) = `Stale);
  Alcotest.(check int) "pin untouched" 1 (Ewt.outstanding e ~partition:42);
  Alcotest.(check bool) "matching stamp frees" true (Ewt.release e ~partition:42 ~stamp = `Freed);
  Alcotest.(check int) "orphans counted" 3 (Ewt.orphan_releases e)

let test_ewt_occupancy_stats () =
  let e = ewt () in
  ignore (note_write e ~partition:1 ~thread:0);
  ignore (note_write e ~partition:2 ~thread:1);
  ignore (note_write e ~partition:3 ~thread:2);
  ignore (release e ~partition:1);
  let st = Ewt.occupancy_stats e in
  Alcotest.(check int) "peak" 3 st.Ewt.peak;
  Alcotest.(check int) "samples" 4 st.Ewt.samples;
  Alcotest.(check bool) "average sensible" true (st.Ewt.average > 0.0 && st.Ewt.average <= 3.0);
  Ewt.reset_stats e;
  Alcotest.(check int) "reset" 0 (Ewt.occupancy_stats e).Ewt.samples

let prop_ewt_single_writer_invariant =
  (* Under any interleaving of writes and matching responses, a
     partition never reports two different owner threads while mapped. *)
  QCheck.Test.make ~name:"EWT single-writer invariant" ~count:200
    QCheck.(list (pair (int_range 0 5) (int_range 0 7)))
    (fun writes ->
      let e = ewt () in
      let owners = Hashtbl.create 8 in
      let outstanding = Hashtbl.create 8 in
      List.for_all
        (fun (partition, thread) ->
          let routed_thread =
            match Ewt.lookup e ~partition with Some t -> t | None -> thread
          in
          match note_write e ~partition ~thread:routed_thread with
          | `Ok ->
            let prev = Hashtbl.find_opt owners partition in
            Hashtbl.replace owners partition routed_thread;
            Hashtbl.replace outstanding partition
              (1 + Option.value ~default:0 (Hashtbl.find_opt outstanding partition));
            (match prev with Some t -> t = routed_thread | None -> true)
          | `Full | `Counter_saturated -> true)
        writes
      && Hashtbl.fold
           (fun partition n ok ->
             (* Drain and confirm the entry frees exactly at zero. *)
             let rec drain i =
               if i = 0 then Ewt.lookup e ~partition = None
               else begin
                 let still = Ewt.lookup e ~partition <> None in
                 ignore (release e ~partition);
                 still && drain (i - 1)
               end
             in
             ok && drain n)
           outstanding true)

(* ---------------- JBSQ ---------------- *)

let test_jbsq_prefers_least_loaded () =
  let j = Jbsq.create ~n_workers:3 ~bound:2 in
  Alcotest.(check (option int)) "first to 0" (Some 0) (Jbsq.try_dispatch j);
  Alcotest.(check (option int)) "then 1" (Some 1) (Jbsq.try_dispatch j);
  Alcotest.(check (option int)) "then 2" (Some 2) (Jbsq.try_dispatch j);
  Jbsq.complete j 1;
  Alcotest.(check (option int)) "freed worker preferred" (Some 1) (Jbsq.try_dispatch j)

let test_jbsq_bound () =
  let j = Jbsq.create ~n_workers:2 ~bound:2 in
  for _ = 1 to 4 do
    ignore (Jbsq.try_dispatch j)
  done;
  Alcotest.(check (option int)) "all at bound" None (Jbsq.try_dispatch j);
  Jbsq.complete j 0;
  Alcotest.(check (option int)) "slot freed" (Some 0) (Jbsq.try_dispatch j)

let test_jbsq_dispatch_to_bypasses_bound () =
  let j = Jbsq.create ~n_workers:2 ~bound:1 in
  ignore (Jbsq.try_dispatch j);
  ignore (Jbsq.try_dispatch j);
  Jbsq.dispatch_to j 0;
  Alcotest.(check int) "pinned request exceeds bound" 2 (Jbsq.occupancy j 0);
  Alcotest.(check bool) "no balanced slot" false (Jbsq.has_slot j 0)

let test_jbsq_complete_underflow () =
  let j = Jbsq.create ~n_workers:1 ~bound:1 in
  Alcotest.check_raises "underflow"
    (Invalid_argument "Jbsq.complete: worker has no in-flight requests") (fun () ->
      Jbsq.complete j 0)

(* ---------------- Header ---------------- *)

let header () = Header.register ~layout:Header.default_layout ~n_buckets:1024 ~n_partitions:64

let test_header_roundtrip () =
  let h = header () in
  List.iter
    (fun (op, key) ->
      let packet = Header.encode h ~op ~key ~value:(Bytes.of_string "payload") in
      match Header.parse h packet with
      | Error e -> Alcotest.failf "parse failed: %s" e
      | Ok parsed ->
        Alcotest.(check bool) "op" true (parsed.Header.op = op);
        Alcotest.(check int) "key" key parsed.Header.key;
        Alcotest.(check bool) "partition in range" true
          (parsed.Header.partition >= 0 && parsed.Header.partition < 64))
    [ (`Read, 0); (`Write, 1); (`Read, 123456789); (`Write, (1 lsl 53) + 17) ]

let test_header_short_packet () =
  let h = header () in
  match Header.parse h (Bytes.create 3) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "short packet accepted"

let test_header_bad_opcode () =
  let h = header () in
  let packet = Header.encode h ~op:`Read ~key:1 ~value:Bytes.empty in
  Bytes.set packet 0 '\007';
  match Header.parse h packet with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad opcode accepted"

let test_header_size () =
  let h = header () in
  Alcotest.(check int) "1B opcode + 8B key" 9 (Header.header_size h)

(* The NIC header and the wire codec ([C4_net.Wire], which takes its
   check from the header) reject the same layouts. *)
let test_header_key_length_validation () =
  List.iter
    (fun (layout, fault) ->
      Alcotest.check_raises ("NIC: " ^ fault)
        (Invalid_argument ("Header.register: " ^ fault))
        (fun () -> ignore (Header.register ~layout ~n_buckets:16 ~n_partitions:4));
      Alcotest.check_raises ("codec: " ^ fault)
        (Invalid_argument ("Wire.create: " ^ fault))
        (fun () -> ignore (C4_net.Wire.create ~layout ())))
    [
      ( { Header.opcode_offset = 0; key_offset = 1; key_length = 9 },
        "key_length must be in 1..8" );
      ( { Header.opcode_offset = 0; key_offset = -1; key_length = 8 },
        "negative offset" );
      ( { Header.opcode_offset = -2; key_offset = 1; key_length = 8 },
        "negative offset" );
      (* An opcode inside the key field would be overwritten by encode. *)
      ( { Header.opcode_offset = 2; key_offset = 0; key_length = 8 },
        "opcode overlaps key" );
      ( { Header.opcode_offset = 8; key_offset = 1; key_length = 8 },
        "opcode overlaps key" );
    ];
  (* Adjacent fields, either order, are fine and round-trip. *)
  List.iter
    (fun layout ->
      let h = Header.register ~layout ~n_buckets:16 ~n_partitions:4 in
      let packet = Header.encode h ~op:`Write ~key:0xABCD ~value:Bytes.empty in
      match Header.parse h packet with
      | Ok p ->
        Alcotest.(check bool) "op survives" true (p.Header.op = `Write);
        Alcotest.(check int) "key survives" 0xABCD p.Header.key
      | Error e -> Alcotest.failf "adjacent layout rejected: %s" e)
    [
      { Header.opcode_offset = 4; key_offset = 0; key_length = 4 };
      { Header.opcode_offset = 0; key_offset = 1; key_length = 2 };
    ]

let prop_header_roundtrip =
  QCheck.Test.make ~name:"header encode/parse round-trips" ~count:300
    QCheck.(pair bool (int_bound ((1 lsl 60) - 1)))
    (fun (is_write, key) ->
      let h = header () in
      let op = if is_write then `Write else `Read in
      let packet = Header.encode h ~op ~key ~value:Bytes.empty in
      match Header.parse h packet with
      | Ok parsed -> parsed.Header.op = op && parsed.Header.key = key
      | Error _ -> false)

let test_header_delete_roundtrip () =
  let h = header () in
  let packet = Header.encode h ~op:`Delete ~key:9001 ~value:Bytes.empty in
  (match Header.parse h packet with
  | Ok parsed ->
    Alcotest.(check bool) "op is delete" true (parsed.Header.op = `Delete);
    Alcotest.(check int) "key" 9001 parsed.Header.key
  | Error e -> Alcotest.failf "delete packet rejected: %s" e);
  Alcotest.(check bool) "delete mutates" true (Header.mutates `Delete);
  Alcotest.(check bool) "write mutates" true (Header.mutates `Write);
  Alcotest.(check bool) "read does not" false (Header.mutates `Read)

(* GET/SET packets must parse byte-identically to the pre-DELETE
   format: opcode 0/1 at the same offset, same key bytes. *)
let test_header_backward_compat () =
  let h = header () in
  List.iter
    (fun (op, code) ->
      let packet = Header.encode h ~op ~key:123 ~value:Bytes.empty in
      Alcotest.(check char)
        (Printf.sprintf "opcode byte for %c unchanged" code)
        code (Bytes.get packet 0);
      match Header.parse h packet with
      | Ok parsed -> Alcotest.(check bool) "parses back" true (parsed.Header.op = op)
      | Error e -> Alcotest.failf "legacy opcode rejected: %s" e)
    [ (`Read, '\000'); (`Write, '\001') ]

let test_response_layout_roundtrip () =
  let rl = Header.default_response_layout in
  List.iter
    (fun (status, value) ->
      let packet = Header.encode_response rl ~status ~value in
      match Header.parse_response rl packet with
      | Ok (parsed, v) ->
        Alcotest.(check bool) "status round-trips" true (parsed.Header.status = status);
        Alcotest.(check int) "value_len" (Bytes.length value) parsed.Header.value_len;
        Alcotest.(check bytes) "value" value v
      | Error e -> Alcotest.failf "response rejected: %s" e)
    [
      (`Ok, Bytes.of_string "hello");
      (`Ok, Bytes.empty);
      (`Not_found, Bytes.empty);
      (`Err, Bytes.of_string "boom");
    ]

let test_response_layout_rejects () =
  let rl = Header.default_response_layout in
  (match Header.parse_response rl (Bytes.create 2) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "short response accepted");
  let packet = Header.encode_response rl ~status:`Ok ~value:(Bytes.of_string "xyz") in
  Bytes.set packet rl.Header.status_offset '\009';
  (match Header.parse_response rl packet with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown status accepted");
  (* Declared value length exceeding the packet is truncation. *)
  let truncated = Header.encode_response rl ~status:`Ok ~value:(Bytes.of_string "xyz") in
  let cut = Bytes.sub truncated 0 (Bytes.length truncated - 1) in
  match Header.parse_response rl cut with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated value accepted"

(* ---------------- Flow control ---------------- *)

let test_flow_control () =
  let f = Flow.create ~max_outstanding:2 in
  Alcotest.(check bool) "admit 1" true (Flow.admit f);
  Alcotest.(check bool) "admit 2" true (Flow.admit f);
  Alcotest.(check bool) "reject 3" false (Flow.admit f);
  Alcotest.(check int) "in flight" 2 (Flow.in_flight f);
  Alcotest.(check int) "rejected" 1 (Flow.rejected f);
  Flow.release f;
  Alcotest.(check bool) "admit after release" true (Flow.admit f);
  Alcotest.(check (float 1e-9)) "drop rate" (1.0 /. 4.0) (Flow.drop_rate f)

let test_flow_release_underflow () =
  (* An unmatched release (response for a request dropped elsewhere, or a
     duplicated completion) must not wedge the NIC: in-flight clamps at
     zero and the anomaly is counted instead of raised. *)
  let f = Flow.create ~max_outstanding:1 in
  Flow.release f;
  Alcotest.(check int) "clamped at zero" 0 (Flow.in_flight f);
  Alcotest.(check int) "counted" 1 (Flow.unmatched_releases f);
  Alcotest.(check bool) "still admits" true (Flow.admit f);
  Flow.release f;
  Alcotest.(check int) "matched release not counted" 1 (Flow.unmatched_releases f);
  Flow.release f;
  Alcotest.(check int) "second unmatched counted" 2 (Flow.unmatched_releases f);
  Alcotest.(check bool) "capacity intact after anomalies" true (Flow.admit f)

(* ---------------- EWT staleness ---------------- *)

let test_ewt_stale_expiry () =
  let e = ewt () in
  ignore (note_write ~now:0.0 e ~partition:1 ~thread:0);
  ignore (note_write ~now:50.0 e ~partition:2 ~thread:1);
  (* Partition 1's release leaks; partition 2 stays fresh via a later
     write. The sweep reclaims only the stale entry. *)
  ignore (note_write ~now:900.0 e ~partition:2 ~thread:1);
  let evicted = Ewt.expire_stale e ~now:1000.0 ~ttl:500.0 in
  Alcotest.(check int) "one stale entry evicted" 1 evicted;
  Alcotest.(check (option int)) "leaked mapping reclaimed" None (Ewt.lookup e ~partition:1);
  Alcotest.(check (option int)) "fresh mapping survives" (Some 1) (Ewt.lookup e ~partition:2);
  Alcotest.(check int) "evictions counted" 1 (Ewt.stale_evictions e);
  Alcotest.check_raises "ttl must be positive"
    (Invalid_argument "Ewt.expire_stale: ttl must be positive") (fun () ->
      ignore (Ewt.expire_stale e ~now:0.0 ~ttl:0.0))

let test_ewt_orphan_release () =
  let e = ewt () in
  ignore (note_write ~now:0.0 e ~partition:7 ~thread:2);
  let stamp = Ewt.stamp_of (Ewt.word e ~partition:7) in
  ignore (Ewt.expire_stale e ~now:1000.0 ~ttl:100.0);
  (* The response of the write whose entry was swept arrives late: the
     release reports the orphan instead of raising. *)
  Alcotest.(check bool) "orphan tolerated" true (Ewt.release e ~partition:7 ~stamp = `Stale);
  Alcotest.(check int) "orphan counted" 1 (Ewt.orphan_releases e);
  ignore (note_write ~now:2000.0 e ~partition:7 ~thread:2);
  Alcotest.(check bool) "matched release works" true (Ewt.release e ~partition:7 ~stamp = `Freed);
  Alcotest.(check (option int)) "freed at zero" None (Ewt.lookup e ~partition:7)

let tests =
  [
    Alcotest.test_case "EWT map/bump/release" `Quick test_ewt_map_and_release;
    Alcotest.test_case "EWT capacity exhaustion" `Quick test_ewt_capacity_full;
    Alcotest.test_case "EWT counter saturation" `Quick test_ewt_counter_saturation;
    Alcotest.test_case "EWT response protocol check" `Quick test_ewt_response_without_mapping;
    Alcotest.test_case "EWT occupancy stats" `Quick test_ewt_occupancy_stats;
    QCheck_alcotest.to_alcotest prop_ewt_single_writer_invariant;
    Alcotest.test_case "JBSQ picks least loaded" `Quick test_jbsq_prefers_least_loaded;
    Alcotest.test_case "JBSQ bound enforced" `Quick test_jbsq_bound;
    Alcotest.test_case "pinned dispatch bypasses bound" `Quick test_jbsq_dispatch_to_bypasses_bound;
    Alcotest.test_case "JBSQ completion underflow" `Quick test_jbsq_complete_underflow;
    Alcotest.test_case "header round-trip" `Quick test_header_roundtrip;
    Alcotest.test_case "header rejects short packets" `Quick test_header_short_packet;
    Alcotest.test_case "header rejects bad opcodes" `Quick test_header_bad_opcode;
    Alcotest.test_case "header size" `Quick test_header_size;
    Alcotest.test_case "header layout validation" `Quick test_header_key_length_validation;
    QCheck_alcotest.to_alcotest prop_header_roundtrip;
    Alcotest.test_case "header DELETE opcode round-trips" `Quick
      test_header_delete_roundtrip;
    Alcotest.test_case "header GET/SET backward compatible" `Quick
      test_header_backward_compat;
    Alcotest.test_case "response layout round-trips" `Quick
      test_response_layout_roundtrip;
    Alcotest.test_case "response layout rejections" `Quick
      test_response_layout_rejects;
    Alcotest.test_case "flow control admit/reject/release" `Quick test_flow_control;
    Alcotest.test_case "flow control underflow" `Quick test_flow_release_underflow;
    Alcotest.test_case "EWT stale entries expire" `Quick test_ewt_stale_expiry;
    Alcotest.test_case "EWT orphan release tolerated" `Quick test_ewt_orphan_release;
  ]
