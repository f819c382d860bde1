(* KVS substrate: hashing, item geometry, seqlock protocol (including a
   real multi-domain reader/writer stress), store semantics, batched
   updates, and the compaction log state machine. *)

module Hash = C4_kvs.Hash
module Item = C4_kvs.Item
module Seqlock = C4_kvs.Seqlock
module Store = C4_kvs.Store
module Log = C4_kvs.Compaction_log

(* ---------------- Hash ---------------- *)

let test_fnv1a_stable () =
  (* Known values pin the implementation against accidental change. *)
  Alcotest.(check bool) "nonneg" true (Hash.fnv1a "hello" >= 0);
  Alcotest.(check int) "deterministic" (Hash.fnv1a "hello") (Hash.fnv1a "hello");
  Alcotest.(check bool) "distinct inputs differ" true
    (Hash.fnv1a "hello" <> Hash.fnv1a "hellp")

let test_mix_int_nonnegative () =
  List.iter
    (fun k ->
      if Hash.mix_int k < 0 then Alcotest.failf "mix_int %d negative" k)
    [ 0; 1; -1; max_int; min_int; 123456789 ]

let test_bucket_partition_ranges () =
  for key = 0 to 10_000 do
    let b = Hash.bucket_of_key ~n_buckets:1024 key in
    if b < 0 || b >= 1024 then Alcotest.failf "bucket %d" b;
    let p = Hash.partition_of_key ~n_buckets:1024 ~n_partitions:64 key in
    if p < 0 || p >= 64 then Alcotest.failf "partition %d" p
  done

let test_partition_of_bucket_contiguous () =
  (* Buckets map to partitions in contiguous groups covering the range. *)
  let seen = Array.make 16 false in
  for b = 0 to 255 do
    let p = Hash.partition_of_bucket ~n_buckets:256 ~n_partitions:16 b in
    seen.(p) <- true;
    Alcotest.(check int) "group arithmetic" (b / 16) p
  done;
  Array.iteri (fun i s -> Alcotest.(check bool) (Printf.sprintf "partition %d hit" i) true s) seen

let prop_hash_distribution =
  QCheck.Test.make ~name:"bucket distribution is roughly uniform" ~count:5
    QCheck.(int_range 1 1000)
    (fun seed ->
      let n_buckets = 64 in
      let counts = Array.make n_buckets 0 in
      let n = 64_000 in
      for key = seed to seed + n - 1 do
        let b = Hash.bucket_of_key ~n_buckets key in
        counts.(b) <- counts.(b) + 1
      done;
      (* Expect 1000 per bucket; allow generous 25% deviation. *)
      Array.for_all (fun c -> c > 750 && c < 1250) counts)

(* node_of_key is the routing contract shared by Cluster and
   Clusterd.Shardmap: pin the two properties routing relies on. *)

let prop_node_of_key_stable =
  QCheck.Test.make ~name:"node_of_key is a pure function of (key, n_nodes)"
    ~count:500
    QCheck.(pair (int_range 1 64) int)
    (fun (n_nodes, key) ->
      let n = Hash.node_of_key ~n_nodes key in
      n >= 0 && n < n_nodes
      (* Recomputation (any process, any time) gives the same node —
         no hidden seed or global state may leak in. *)
      && n = Hash.node_of_key ~n_nodes key)

let prop_node_of_key_uniform =
  QCheck.Test.make ~name:"node_of_key spreads keys near-uniformly" ~count:5
    QCheck.(pair (int_range 2 16) (int_range 1 1_000_000))
    (fun (n_nodes, seed) ->
      let per_node = 4_000 in
      let n = n_nodes * per_node in
      let counts = Array.make n_nodes 0 in
      for key = seed to seed + n - 1 do
        let node = Hash.node_of_key ~n_nodes key in
        counts.(node) <- counts.(node) + 1
      done;
      (* Sequential keys (the worst realistic case) must still balance
         to within 25% of the ideal share. *)
      Array.for_all
        (fun c ->
          float_of_int c > 0.75 *. float_of_int per_node
          && float_of_int c < 1.25 *. float_of_int per_node)
        counts)

(* ---------------- Item ---------------- *)

let test_item_lines () =
  Alcotest.(check int) "tiny fits one line" 1 (Item.total_lines Item.tiny);
  Alcotest.(check int) "medium value lines" 2 (Item.value_lines Item.medium);
  Alcotest.(check int) "medium total" 3 (Item.total_lines Item.medium);
  Alcotest.(check int) "large value lines" 8 (Item.value_lines Item.large);
  Alcotest.(check int) "large total" 9 (Item.total_lines Item.large)

let test_item_names () =
  Alcotest.(check string) "tiny" "Tiny" (Item.name Item.tiny);
  Alcotest.(check string) "custom" "4B/100B"
    (Item.name { Item.key_size = 4; value_size = 100 })

(* ---------------- Seqlock ---------------- *)

let test_seqlock_protocol () =
  let l = Seqlock.create () in
  Alcotest.(check int) "initial version" 0 (Seqlock.version l);
  Seqlock.write_begin l;
  Alcotest.(check bool) "in flight" true (Seqlock.write_in_flight l);
  Alcotest.(check int) "odd during write" 1 (Seqlock.version l);
  Seqlock.write_end l;
  Alcotest.(check int) "even after write" 2 (Seqlock.version l);
  Alcotest.(check bool) "not in flight" false (Seqlock.write_in_flight l)

let test_seqlock_crew_violation () =
  let l = Seqlock.create () in
  Seqlock.write_begin l;
  Alcotest.check_raises "second writer rejected"
    (Failure "Seqlock.write_begin: concurrent writer (CREW violation)") (fun () ->
      Seqlock.write_begin l)

let test_seqlock_end_without_begin () =
  let l = Seqlock.create () in
  Alcotest.check_raises "end without begin"
    (Failure "Seqlock.write_end: no update in flight") (fun () -> Seqlock.write_end l)

let test_seqlock_read_stable () =
  let l = Seqlock.create () in
  let v, retries = Seqlock.read l (fun () -> 42) in
  Alcotest.(check int) "value" 42 v;
  Alcotest.(check int) "no retries uncontended" 0 retries

(* A retry is a failed attempt, not a spin. A read that finds a write
   in flight waits it out: one retry, however long the writer holds the
   version odd (spin-counting read thousands here). *)
let test_seqlock_wait_counts_once () =
  let l = Seqlock.create () in
  Seqlock.write_begin l;
  let writer =
    Domain.spawn (fun () ->
        Unix.sleepf 0.05;
        Seqlock.write_end l)
  in
  let v, retries = Seqlock.read l (fun () -> 42) in
  Domain.join writer;
  Alcotest.(check int) "value" 42 v;
  Alcotest.(check int) "one wait, one retry" 1 retries

(* The store's read loop, the one a server's copy into its output
   buffer runs: a version change under the copy discards it and counts
   one retry, and the copy runs again with the same argument. *)
let test_store_read_into_retry_count () =
  let s = Store.create ~n_buckets:64 ~n_partitions:4 () in
  Store.set s ~key:1 ~value:(Bytes.of_string "old!");
  let dst = Bytes.create 4 and calls = ref 0 and retries = ref 0 in
  let copy v () =
    incr calls;
    Bytes.blit v 0 dst 0 (Bytes.length v);
    (* A write to the partition lands while the first copy runs. *)
    if !calls = 1 then Store.set s ~key:1 ~value:(Bytes.of_string "new!");
    Bytes.length v
  in
  let n = Store.read_into s ~key:1 ~retries copy () in
  Alcotest.(check int) "length" 4 n;
  Alcotest.(check int) "copied twice" 2 !calls;
  Alcotest.(check int) "one retry" 1 !retries;
  Alcotest.(check string) "the copy that validated" "new!" (Bytes.to_string dst);
  Alcotest.(check int) "absent key" (-1) (Store.read_into s ~key:2 ~retries copy ())

(* Real concurrency: one writer domain mutating a two-word "item" under
   the seqlock, reader domains verifying they never observe a torn pair.
   This is the invariant the whole OCC scheme rests on. *)
let test_seqlock_multicore () =
  let l = Seqlock.create () in
  let a = ref 0 and b = ref 0 in
  let iterations = 20_000 in
  let writer () =
    for i = 1 to iterations do
      Seqlock.write_begin l;
      a := i;
      (* Widen the race window a little. *)
      if i mod 64 = 0 then Domain.cpu_relax ();
      b := i;
      Seqlock.write_end l
    done
  in
  let torn = Atomic.make 0 in
  let total_retries = Atomic.make 0 in
  let reader () =
    for _ = 1 to iterations do
      let (x, y), retries = Seqlock.read l (fun () -> (!a, !b)) in
      if x <> y then Atomic.incr torn;
      if retries < 0 then Atomic.incr torn;
      ignore (Atomic.fetch_and_add total_retries retries)
    done
  in
  let wd = Domain.spawn writer in
  let readers = List.init 3 (fun _ -> Domain.spawn reader) in
  Domain.join wd;
  List.iter Domain.join readers;
  Alcotest.(check int) "no torn reads" 0 (Atomic.get torn);
  Alcotest.(check int) "version = 2 x writes" (2 * iterations) (Seqlock.version l);
  (* Retry counter sanity: contended retries were counted somewhere in
     [0, readers x iterations x slack], and an uncontended read after
     all domains joined never retries. *)
  Alcotest.(check bool) "retry counter sane" true
    (Atomic.get total_retries >= 0);
  let _, quiescent_retries = Seqlock.read l (fun () -> (!a, !b)) in
  Alcotest.(check int) "no retries once quiescent" 0 quiescent_retries

(* ---------------- Store ---------------- *)

let bytes_of s = Bytes.of_string s

let test_store_set_get () =
  let s = Store.create ~n_buckets:128 ~n_partitions:8 () in
  Store.set s ~key:1 ~value:(bytes_of "one");
  Store.set s ~key:2 ~value:(bytes_of "two");
  Alcotest.(check (option string)) "get 1" (Some "one")
    (Option.map Bytes.to_string (fst (Store.get s ~key:1)));
  Alcotest.(check (option string)) "get 2" (Some "two")
    (Option.map Bytes.to_string (fst (Store.get s ~key:2)));
  Alcotest.(check (option string)) "miss" None
    (Option.map Bytes.to_string (fst (Store.get s ~key:3)));
  Alcotest.(check int) "size" 2 (Store.size s)

let test_store_update_in_place () =
  let s = Store.create () in
  Store.set s ~key:5 ~value:(bytes_of "aaaa");
  Store.set s ~key:5 ~value:(bytes_of "bbbb");
  Alcotest.(check (option string)) "updated" (Some "bbbb")
    (Option.map Bytes.to_string (fst (Store.get s ~key:5)));
  Alcotest.(check int) "no duplicate" 1 (Store.size s)

let test_store_get_returns_copy () =
  let s = Store.create () in
  Store.set s ~key:1 ~value:(bytes_of "orig");
  (match fst (Store.get s ~key:1) with
  | Some b -> Bytes.set b 0 'X'
  | None -> Alcotest.fail "missing");
  Alcotest.(check (option string)) "store unaffected by caller mutation" (Some "orig")
    (Option.map Bytes.to_string (fst (Store.get s ~key:1)))

let test_store_set_copies_input () =
  let s = Store.create () in
  let v = bytes_of "orig" in
  Store.set s ~key:1 ~value:v;
  Bytes.set v 0 'X';
  Alcotest.(check (option string)) "store unaffected by input mutation" (Some "orig")
    (Option.map Bytes.to_string (fst (Store.get s ~key:1)))

let test_store_remove () =
  let s = Store.create () in
  Store.set s ~key:9 ~value:(bytes_of "x");
  Alcotest.(check bool) "mem" true (Store.mem s ~key:9);
  Alcotest.(check bool) "removed" true (Store.remove s ~key:9);
  Alcotest.(check bool) "gone" false (Store.mem s ~key:9);
  Alcotest.(check bool) "idempotent" false (Store.remove s ~key:9);
  Alcotest.(check int) "size back to 0" 0 (Store.size s)

let test_store_versions_count_updates () =
  let s = Store.create ~n_buckets:64 ~n_partitions:4 () in
  let key = 11 in
  let p = Store.partition_of_key s key in
  Store.set s ~key ~value:(bytes_of "a");
  Store.set s ~key ~value:(bytes_of "b");
  Alcotest.(check int) "two updates = version 4" 4 (Store.partition_version s ~partition:p)

let test_store_batched_single_version_bump () =
  let s = Store.create ~n_buckets:64 ~n_partitions:4 () in
  let key = 3 in
  let p = Store.partition_of_key s key in
  Store.set_batched s ~key
    ~values:[ bytes_of "v1"; bytes_of "v2"; bytes_of "v3" ];
  Alcotest.(check int) "one version bump for the batch" 2
    (Store.partition_version s ~partition:p);
  Alcotest.(check (option string)) "final value visible" (Some "v3")
    (Option.map Bytes.to_string (fst (Store.get s ~key)));
  Store.set_batched s ~key ~values:[];
  Alcotest.(check int) "empty batch is free" 2 (Store.partition_version s ~partition:p)

(* Write counters live in each partition and are summed by [stats]:
   writes spread over every partition must all be counted. *)
let test_store_stats () =
  let s = Store.create ~n_partitions:4 () in
  for key = 0 to 99 do
    Store.set s ~key ~value:(bytes_of "v")
  done;
  Store.set_batched s ~key:1 ~values:[ bytes_of "a"; bytes_of "b" ];
  ignore (Store.set_idempotent s ~key:2 ~value:(bytes_of "w") ~token:5);
  ignore (Store.set_idempotent s ~key:2 ~value:(bytes_of "w") ~token:5);
  ignore (Store.get s ~key:1);
  let st = Store.stats s in
  Alcotest.(check int) "writes" 102 st.Store.writes;
  Alcotest.(check int) "duplicates" 1 st.Store.duplicate_writes;
  Alcotest.(check int) "size" 100 (Store.size s);
  Store.reset_stats s;
  Alcotest.(check int) "writes reset" 0 (Store.stats s).Store.writes;
  Alcotest.(check int) "duplicates reset" 0 (Store.stats s).Store.duplicate_writes

(* Two writer domains on disjoint partitions (CREW holds) must not lose
   each other's counts: a store-wide counter would. *)
let test_store_stats_concurrent_writers () =
  let s = Store.create ~n_partitions:8 () in
  let keys parity =
    List.filter (fun k -> Store.partition_of_key s k mod 2 = parity) (List.init 4000 Fun.id)
  in
  let writer parity () =
    let ks = keys parity in
    for round = 1 to 10 do
      List.iter (fun k -> Store.set s ~key:k ~value:(bytes_of (string_of_int round))) ks
    done;
    List.length ks
  in
  let a = Domain.spawn (writer 0) and b = Domain.spawn (writer 1) in
  let n = Domain.join a + Domain.join b in
  Alcotest.(check int) "keys" 4000 n;
  Alcotest.(check int) "every write counted" (10 * n) (Store.stats s).Store.writes;
  Alcotest.(check int) "every insert counted" n (Store.size s)

let test_store_token_dedup () =
  let s = Store.create () in
  Alcotest.(check bool) "first applies" true
    (Store.set_idempotent s ~key:1 ~value:(bytes_of "a") ~token:7 = `Applied);
  Alcotest.(check bool) "same token suppressed" true
    (Store.set_idempotent s ~key:1 ~value:(bytes_of "b") ~token:7 = `Duplicate);
  Alcotest.(check (option string)) "value untouched" (Some "a")
    (Option.map Bytes.to_string (fst (Store.get s ~key:1)));
  Alcotest.(check int) "duplicate counted" 1 (Store.stats s).Store.duplicate_writes

let test_store_token_fifo_eviction () =
  (* One partition so every token lands in the same FIFO; capacity 2
     means the third token evicts the first. *)
  let registry = C4_obs.Registry.create () in
  let s = Store.create ~n_partitions:1 ~token_capacity:2 ~registry () in
  ignore (Store.set_idempotent s ~key:1 ~value:(bytes_of "a") ~token:100);
  ignore (Store.set_idempotent s ~key:2 ~value:(bytes_of "b") ~token:200);
  Alcotest.(check int) "within capacity, nothing evicted" 0
    (Store.stats s).Store.tokens_evicted;
  ignore (Store.set_idempotent s ~key:3 ~value:(bytes_of "c") ~token:300);
  Alcotest.(check int) "oldest evicted at capacity" 1
    (Store.stats s).Store.tokens_evicted;
  Alcotest.(check (option (float 0.0))) "evictions exported" (Some 1.0)
    (C4_obs.Registry.read registry "store.tokens_evicted");
  (* The evicted token no longer dedups (bounded retention, not a leak):
     its retry applies again. Newer tokens still dedup. *)
  Alcotest.(check bool) "evicted token reapplies" true
    (Store.set_idempotent s ~key:1 ~value:(bytes_of "a2") ~token:100 = `Applied);
  Alcotest.(check bool) "recent token still dedups" true
    (Store.set_idempotent s ~key:3 ~value:(bytes_of "c2") ~token:300 = `Duplicate);
  Alcotest.(check int) "memory stays flat: another eviction" 2
    (Store.stats s).Store.tokens_evicted

let test_store_token_eviction_bounds_memory () =
  let s = Store.create ~n_partitions:1 ~token_capacity:8 () in
  for i = 0 to 999 do
    ignore (Store.set_idempotent s ~key:(i mod 10) ~value:(bytes_of "v") ~token:i)
  done;
  Alcotest.(check int) "exactly capacity survives" (1000 - 8)
    (Store.stats s).Store.tokens_evicted;
  (* The newest [capacity] tokens all still dedup. *)
  for i = 992 to 999 do
    Alcotest.(check bool) (Printf.sprintf "token %d retained" i) true
      (Store.set_idempotent s ~key:(i mod 10) ~value:(bytes_of "w") ~token:i
      = `Duplicate)
  done

let test_store_many_keys_small_index () =
  (* More keys than buckets: the partitions' tables outgrow n_buckets. *)
  let s = Store.create ~n_buckets:16 ~n_partitions:4 () in
  for key = 0 to 499 do
    Store.set s ~key ~value:(bytes_of (string_of_int key))
  done;
  Alcotest.(check int) "all stored" 500 (Store.size s);
  for key = 0 to 499 do
    match fst (Store.get s ~key) with
    | Some v when Bytes.to_string v = string_of_int key -> ()
    | _ -> Alcotest.failf "key %d corrupted" key
  done

let prop_store_models_map =
  let op =
    QCheck.(
      oneof
        [
          map (fun (k, v) -> `Set (k, v)) (pair (int_range 0 20) (int_range 0 1000));
          map (fun k -> `Remove k) (int_range 0 20);
          map (fun k -> `Get k) (int_range 0 20);
        ])
  in
  QCheck.Test.make ~name:"store behaves like a map" ~count:200 (QCheck.list op)
    (fun ops ->
      let s = Store.create ~n_buckets:8 ~n_partitions:2 () in
      let model = Hashtbl.create 16 in
      List.for_all
        (fun operation ->
          match operation with
          | `Set (k, v) ->
            Store.set s ~key:k ~value:(bytes_of (string_of_int v));
            Hashtbl.replace model k (string_of_int v);
            true
          | `Remove k ->
            let expected = Hashtbl.mem model k in
            Hashtbl.remove model k;
            Store.remove s ~key:k = expected
          | `Get k ->
            let got = Option.map Bytes.to_string (fst (Store.get s ~key:k)) in
            got = Hashtbl.find_opt model k)
        ops)

(* The open-addressing tables against a map model, over enough keys that
   every partition's table doubles several times. The key pool mixes
   plain keys with groups that share a partition and a home slot at every
   capacity up to 4096: with [n_buckets] = 4096 the slot hash is the
   [Hash.mix_int] bits above the low 12, so keys agreeing on the next 12
   bits probe the same run, and removing them exercises backward shift
   over long runs. *)
let collision_groups ~n_partitions ~n_groups ~group_size =
  let seen = Hashtbl.create 4096 in
  let groups = ref [] in
  let key = ref 1_000_000 in
  while List.length !groups < n_groups do
    let k = !key in
    incr key;
    let home =
      ( Hash.partition_of_key ~n_buckets:4096 ~n_partitions k,
        (Hash.mix_int k lsr 12) land 4095 )
    in
    let members = k :: Option.value ~default:[] (Hashtbl.find_opt seen home) in
    if List.length members = group_size then begin
      groups := Array.of_list (List.rev members) :: !groups;
      Hashtbl.remove seen home
    end
    else Hashtbl.replace seen home members
  done;
  Array.of_list !groups

let prop_store_tables_model_map =
  let n_plain = 2500 in
  (* Indices past [n_plain] pick the 8 groups' 6 keys each. *)
  let last = n_plain + 47 in
  let groups =
    Array.map
      (fun n_partitions -> collision_groups ~n_partitions ~n_groups:8 ~group_size:6)
      [| 1; 4 |]
  in
  let op =
    QCheck.Gen.(
      frequency
        [
          (6, map2 (fun k v -> `Set (k, v)) (int_bound last) (int_bound 1000));
          (2, map (fun k -> `Remove k) (int_bound last));
          (1, map (fun g -> `Remove_run g) (int_bound 7));
          (1, map2 (fun k n -> `Batched (k, n)) (int_bound last) (int_range 1 3));
          ( 1,
            map3
              (fun k v tok -> `Idempotent (k, v, tok))
              (int_bound last) (int_bound 1000) (int_bound 200) );
        ])
  in
  QCheck.Test.make ~name:"store tables grow and shift like a map" ~count:12
    QCheck.(
      pair (int_bound 1)
        (make ~print:(fun l -> Printf.sprintf "<%d ops>" (List.length l))
           Gen.(list_size (return 4000) op)))
    (fun (which, ops) ->
      let n_partitions = if which = 0 then 1 else 4 in
      let groups = groups.(which) in
      let key_of i =
        if i < n_plain then i else groups.((i - n_plain) / 6).((i - n_plain) mod 6)
      in
      let s = Store.create ~n_buckets:4096 ~n_partitions () in
      let model = Hashtbl.create 4096 in
      let tokens = Hashtbl.create 256 in
      let value v = bytes_of (string_of_int v) in
      let agrees k =
        Option.map Bytes.to_string (fst (Store.get s ~key:k))
        = Option.map (fun v -> Bytes.to_string (value v)) (Hashtbl.find_opt model k)
      in
      let step = function
        | `Set (i, v) ->
          let k = key_of i in
          Store.set s ~key:k ~value:(value v);
          Hashtbl.replace model k v;
          agrees k
        | `Remove i ->
          let k = key_of i in
          let expected = Hashtbl.mem model k in
          Hashtbl.remove model k;
          Store.remove s ~key:k = expected && agrees k
        | `Remove_run g ->
          (* Fill the whole colliding run, then empty it from the front
             so every removal shifts the rest of the run back. *)
          Array.iteri
            (fun j k ->
              Store.set s ~key:k ~value:(value j);
              Hashtbl.replace model k j)
            groups.(g);
          Array.for_all
            (fun k ->
              Hashtbl.remove model k;
              Store.remove s ~key:k && Array.for_all agrees groups.(g))
            groups.(g)
        | `Batched (i, n) ->
          let k = key_of i in
          Store.set_batched s ~key:k ~values:(List.init n (fun j -> value (j + 1)));
          Hashtbl.replace model k n;
          agrees k
        | `Idempotent (i, v, tok) ->
          let k = key_of i in
          let seen = (Store.partition_of_key s k, tok) in
          let expected = if Hashtbl.mem tokens seen then `Duplicate else `Applied in
          if expected = `Applied then begin
            Hashtbl.replace tokens seen ();
            Hashtbl.replace model k v
          end;
          Store.set_idempotent s ~key:k ~value:(value v) ~token:tok = expected
          && agrees k
      in
      List.for_all step ops
      && Store.size s = Hashtbl.length model
      && List.for_all agrees (List.init (last + 1) key_of))

(* A writer domain grows one partition's table from its initial size,
   again and again on fresh stores, and deletes half of what it inserts
   (backward shifts); a reader domain meanwhile gets a fixed set of
   stable keys. Every get must return the exact stable value: a reader
   that saw a table mid-grow or mid-shift and was not sent round again
   by the version check shows up as [None], a wrong value or an
   exception. This runs the real code on real domains; a fault whose
   window is a few instructions wide (keys and values published by two
   writes) it hits only by luck, and [C4_check.Models.store_grow]
   explores that interleaving exhaustively instead. *)
let test_store_grow_concurrent_reader () =
  let stable = Array.init 4 (fun i -> max_int - i) in
  let stable_value k = Bytes.init 64 (fun j -> Char.chr ((k + j) land 0xff)) in
  let current = Atomic.make None in
  let finished = Atomic.make false in
  let missing = Atomic.make 0 and wrong = Atomic.make 0 and raised = Atomic.make 0 in
  let reads = Atomic.make 0 in
  let reader () =
    while not (Atomic.get finished) do
      match Atomic.get current with
      | None -> Domain.cpu_relax ()
      | Some s ->
        Array.iter
          (fun k ->
            (match fst (Store.get s ~key:k) with
            | None -> Atomic.incr missing
            | Some v -> if not (Bytes.equal v (stable_value k)) then Atomic.incr wrong
            | exception _ -> Atomic.incr raised);
            Atomic.incr reads)
          stable
    done
  in
  let writer () =
    for round = 1 to 300 do
      let s = Store.create ~n_partitions:1 () in
      Array.iter (fun k -> Store.set s ~key:k ~value:(stable_value k)) stable;
      Atomic.set current (Some s);
      let base = round * 100_000 in
      for i = 0 to 1999 do
        Store.set s ~key:(base + i) ~value:(bytes_of "fresh");
        if i land 1 = 1 then ignore (Store.remove s ~key:(base + i - 3))
      done
    done;
    Atomic.set finished true
  in
  let rd = Domain.spawn reader in
  let wd = Domain.spawn writer in
  Domain.join wd;
  Domain.join rd;
  Alcotest.(check bool) "reader ran" true (Atomic.get reads > 0);
  Alcotest.(check int) "no stable key missing" 0 (Atomic.get missing);
  Alcotest.(check int) "no wrong or torn value" 0 (Atomic.get wrong);
  Alcotest.(check int) "no reader exception" 0 (Atomic.get raised)

(* The prefetch hints race the partition's writer by design: one domain
   hints at present and absent keys while another grows a partition's
   table from 8 to 2048 slots, again on fresh stores, deleting about
   half of what it inserts (backward shifts: about 1200 keys stay
   live, past the 1024-slot table's bound of 768) and swapping values
   of new sizes in. No hint may raise, and each store must end holding
   exactly what its writer wrote. *)
let test_store_hints_vs_grow () =
  let current = Atomic.make None and finished = Atomic.make false in
  let hints = Atomic.make 0 and raised = Atomic.make 0 in
  let n = 2400 in
  let hinter () =
    let i = ref 0 in
    while not (Atomic.get finished) do
      match Atomic.get current with
      | None -> Domain.cpu_relax ()
      | Some (s, base) ->
        (* Every fourth key is one the writer never inserts. *)
        let key = if !i land 3 = 0 then -base - !i else base + (!i mod n) in
        (try
           Store.prefetch_slot s ~key;
           Store.prefetch_value s ~key
         with _ -> Atomic.incr raised);
        Atomic.incr hints;
        incr i
    done
  in
  let writer () =
    let mismatches = ref 0 in
    for round = 1 to 40 do
      let s = Store.create ~n_partitions:1 () and model = Hashtbl.create n in
      let base = round * 100_000 in
      Atomic.set current (Some (s, base));
      for i = 0 to n - 1 do
        let key = base + i and value = Bytes.make (8 + (i mod 3 * 56)) (Char.chr (i land 0xff)) in
        Store.set s ~key ~value;
        Hashtbl.replace model key value;
        if i land 1 = 1 then begin
          ignore (Store.remove s ~key:(base + i - 3));
          Hashtbl.remove model (base + i - 3)
        end;
        (* Rewrite an older key with a value of another size. *)
        if i mod 7 = 0 && i >= 14 && Hashtbl.mem model (base + i - 14) then begin
          let value = Bytes.make 200 'r' in
          Store.set s ~key:(base + i - 14) ~value;
          Hashtbl.replace model (base + i - 14) value
        end
      done;
      if Store.size s <> Hashtbl.length model then incr mismatches;
      Hashtbl.iter
        (fun key value ->
          match fst (Store.get s ~key) with
          | Some v when Bytes.equal v value -> ()
          | Some _ | None -> incr mismatches)
        model
    done;
    Atomic.set finished true;
    !mismatches
  in
  let hd = Domain.spawn hinter in
  let wd = Domain.spawn writer in
  let mismatches = Domain.join wd in
  Domain.join hd;
  Alcotest.(check bool) "hints ran" true (Atomic.get hints > 0);
  Alcotest.(check int) "no hint raised" 0 (Atomic.get raised);
  Alcotest.(check int) "every store holds what its writer wrote" 0 mismatches

(* ---------------- Compaction log ---------------- *)

let pending id = { Log.request_id = id; sender = 0; value = Bytes.empty; buffered_at = 0.0 }

let test_log_lifecycle () =
  let log = Log.create () in
  Alcotest.(check bool) "initially closed" false (Log.window_open log);
  Log.open_window log ~key:7 ~now:0.0 ~expires_at:100.0;
  Alcotest.(check bool) "open" true (Log.window_open log);
  Alcotest.(check bool) "open for key" true (Log.is_open_for log ~key:7);
  Alcotest.(check bool) "not for other key" false (Log.is_open_for log ~key:8);
  Alcotest.(check (option int)) "current key" (Some 7) (Log.current_key log);
  Alcotest.(check (option (float 0.0))) "deadline" (Some 100.0) (Log.expires_at log);
  Log.absorb log ~key:7 (pending 1);
  Log.absorb log ~key:7 (pending 2);
  Alcotest.(check int) "buffered" 2 (Log.buffered log);
  Alcotest.(check bool) "not yet expired" false (Log.expired log ~now:99.0);
  Alcotest.(check bool) "expired" true (Log.expired log ~now:100.0);
  match Log.close log ~now:100.0 with
  | None -> Alcotest.fail "close returned nothing"
  | Some closed ->
    Alcotest.(check int) "key" 7 closed.Log.key;
    Alcotest.(check (list int)) "writes in order" [ 1; 2 ]
      (List.map (fun (p : Log.pending) -> p.Log.request_id) closed.Log.writes);
    Alcotest.(check bool) "closed now" false (Log.window_open log)

let test_log_double_open_rejected () =
  let log = Log.create () in
  Log.open_window log ~key:1 ~now:0.0 ~expires_at:10.0;
  Alcotest.check_raises "one window at a time"
    (Failure "Compaction_log.open_window: window already open") (fun () ->
      Log.open_window log ~key:2 ~now:0.0 ~expires_at:10.0)

let test_log_absorb_guards () =
  let log = Log.create () in
  Alcotest.check_raises "absorb without window"
    (Failure "Compaction_log.absorb: no window open") (fun () ->
      Log.absorb log ~key:1 (pending 1));
  Log.open_window log ~key:1 ~now:0.0 ~expires_at:10.0;
  Alcotest.check_raises "absorb wrong key" (Failure "Compaction_log.absorb: key mismatch")
    (fun () -> Log.absorb log ~key:2 (pending 1))

let test_log_close_idempotent () =
  let log = Log.create () in
  Alcotest.(check bool) "close on closed log" true (Log.close log ~now:0.0 = None)

let test_log_stats () =
  let log = Log.create () in
  Log.open_window log ~key:1 ~now:0.0 ~expires_at:10.0;
  Log.absorb log ~key:1 (pending 1);
  Log.absorb log ~key:1 (pending 2);
  Log.absorb log ~key:1 (pending 3);
  ignore (Log.close log ~now:10.0);
  Log.open_window log ~key:2 ~now:20.0 ~expires_at:30.0;
  Log.absorb log ~key:2 (pending 4);
  ignore (Log.close log ~now:30.0);
  let st = Log.stats log in
  Alcotest.(check int) "windows" 2 st.Log.windows_opened;
  Alcotest.(check int) "compacted" 4 st.Log.writes_compacted;
  Alcotest.(check int) "largest" 3 st.Log.largest_window

let test_log_scan_depth_validation () =
  Alcotest.check_raises "scan_depth >= 1"
    (Invalid_argument "Compaction_log.create: scan_depth") (fun () ->
      ignore (Log.create ~scan_depth:0 ()))

let prop_log_preserves_order =
  QCheck.Test.make ~name:"compaction log preserves buffering order" ~count:200
    QCheck.(list_of_size Gen.(int_range 0 30) small_int)
    (fun ids ->
      let log = Log.create () in
      Log.open_window log ~key:0 ~now:0.0 ~expires_at:1.0;
      List.iter (fun id -> Log.absorb log ~key:0 (pending id)) ids;
      match Log.close log ~now:1.0 with
      | None -> false
      | Some closed ->
        List.map (fun (p : Log.pending) -> p.Log.request_id) closed.Log.writes = ids)

let tests =
  [
    Alcotest.test_case "fnv1a stability" `Quick test_fnv1a_stable;
    Alcotest.test_case "mix_int nonnegative" `Quick test_mix_int_nonnegative;
    Alcotest.test_case "bucket/partition ranges" `Quick test_bucket_partition_ranges;
    Alcotest.test_case "partition grouping is contiguous" `Quick test_partition_of_bucket_contiguous;
    QCheck_alcotest.to_alcotest prop_hash_distribution;
    QCheck_alcotest.to_alcotest prop_node_of_key_stable;
    QCheck_alcotest.to_alcotest prop_node_of_key_uniform;
    Alcotest.test_case "item cache-line geometry" `Quick test_item_lines;
    Alcotest.test_case "item names" `Quick test_item_names;
    Alcotest.test_case "seqlock version protocol" `Quick test_seqlock_protocol;
    Alcotest.test_case "seqlock rejects second writer" `Quick test_seqlock_crew_violation;
    Alcotest.test_case "seqlock end without begin" `Quick test_seqlock_end_without_begin;
    Alcotest.test_case "seqlock uncontended read" `Quick test_seqlock_read_stable;
    Alcotest.test_case "seqlock wait on a write counts one retry" `Quick
      test_seqlock_wait_counts_once;
    Alcotest.test_case "store read_into retries once per version change" `Quick
      test_store_read_into_retry_count;
    Alcotest.test_case "seqlock multi-domain: no torn reads" `Slow test_seqlock_multicore;
    Alcotest.test_case "store set/get/miss" `Quick test_store_set_get;
    Alcotest.test_case "store update in place" `Quick test_store_update_in_place;
    Alcotest.test_case "store get returns a copy" `Quick test_store_get_returns_copy;
    Alcotest.test_case "store set copies input" `Quick test_store_set_copies_input;
    Alcotest.test_case "store remove" `Quick test_store_remove;
    Alcotest.test_case "store versions count updates" `Quick test_store_versions_count_updates;
    Alcotest.test_case "batched write = one version bump" `Quick test_store_batched_single_version_bump;
    Alcotest.test_case "store stats" `Quick test_store_stats;
    Alcotest.test_case "store stats under concurrent writers" `Quick
      test_store_stats_concurrent_writers;
    Alcotest.test_case "store token dedup" `Quick test_store_token_dedup;
    Alcotest.test_case "store token FIFO eviction" `Quick test_store_token_fifo_eviction;
    Alcotest.test_case "store token retention is bounded" `Quick test_store_token_eviction_bounds_memory;
    Alcotest.test_case "store grows past a small index" `Quick
      test_store_many_keys_small_index;
    QCheck_alcotest.to_alcotest prop_store_tables_model_map;
    Alcotest.test_case "store grow/shift vs concurrent reader" `Slow
      test_store_grow_concurrent_reader;
    QCheck_alcotest.to_alcotest prop_store_models_map;
    Alcotest.test_case "store prefetch hints vs grow/shift" `Quick test_store_hints_vs_grow;
    Alcotest.test_case "compaction log lifecycle" `Quick test_log_lifecycle;
    Alcotest.test_case "compaction log: single window" `Quick test_log_double_open_rejected;
    Alcotest.test_case "compaction log absorb guards" `Quick test_log_absorb_guards;
    Alcotest.test_case "compaction log close idempotent" `Quick test_log_close_idempotent;
    Alcotest.test_case "compaction log stats" `Quick test_log_stats;
    Alcotest.test_case "compaction log scan-depth validation" `Quick test_log_scan_depth_validation;
    QCheck_alcotest.to_alcotest prop_log_preserves_order;
  ]
