(* One open-addressing table per partition. [keys.(i)] and [vals.(i)]
   form slot [i]; a slot is free iff its value is physically [free]
   (stored values are always private copies, never [free] itself), so
   every int is a valid key. The two arrays live in one immutable
   record: a grow builds the next record off to the side and publishes
   it with a single field write, so a reader that loads [table] once
   always holds a matched pair of equal-length arrays. *)
type table = { keys : int array; vals : bytes array }

let free = Bytes.create 0

type partition = {
  lock : Seqlock.t;
  mutable table : table;
  (* Everything below is touched only by the partition's single CREW
     writer, so plain fields count exactly. *)
  mutable count : int;
  mutable writes_n : int;
  mutable dup_writes_n : int;
  mutable tokens_evicted_n : int;
  (* Idempotency tokens. Retention is bounded: [token_order] remembers
     arrival order and once a partition holds [token_capacity] tokens
     the oldest is evicted per new one, so a long-lived server's memory
     stays flat. The dedup guarantee this implies: a retry is
     suppressed as long as fewer than [token_capacity] newer tokened
     writes have hit its partition since the original applied — far
     beyond any client's retry deadline at the default capacity. *)
  applied_tokens : (int, unit) Hashtbl.t;
  token_order : int Queue.t;
}

type t = {
  parts : partition array;
  n_buckets : int;
  (* Bits of [Hash.mix_int] below [slot_shift] choose the bucket, hence
     the partition; the slot hash uses the bits above them. *)
  slot_shift : int;
  token_capacity : int;
  evicted_c : C4_obs.Registry.counter option;
}

let default_token_capacity = 8192
let initial_capacity = 8

let empty_table capacity =
  { keys = Array.make capacity 0; vals = Array.make capacity free }

let create ?(n_buckets = 65536) ?(n_partitions = 1024)
    ?(token_capacity = default_token_capacity) ?registry () =
  if n_buckets <= 0 || n_partitions <= 0 || token_capacity <= 0 then
    invalid_arg "Store.create";
  let rec bits n = if n <= 1 then 0 else 1 + bits ((n + 1) / 2) in
  {
    parts =
      Array.init n_partitions (fun _ ->
          {
            lock = Seqlock.create ();
            table = empty_table initial_capacity;
            count = 0;
            writes_n = 0;
            dup_writes_n = 0;
            tokens_evicted_n = 0;
            applied_tokens = Hashtbl.create 16;
            token_order = Queue.create ();
          });
    n_buckets;
    slot_shift = bits n_buckets;
    token_capacity;
    evicted_c =
      Option.map (fun reg -> C4_obs.Registry.counter reg "store.tokens_evicted") registry;
  }

let n_buckets t = t.n_buckets
let n_partitions t = Array.length t.parts

let partition_of_key t key =
  Hash.partition_of_key ~n_buckets:t.n_buckets ~n_partitions:(n_partitions t) key

let partition t key = t.parts.(partition_of_key t key)
let slot_hash t key = Hash.mix_int key lsr t.slot_shift

(* Slot holding [key], or -1. The probe is bounded by the capacity, so a
   reader racing a writer's backward shift terminates whatever it sees;
   the seqlock version check then discards the answer. A top-level loop,
   not a local closure: a lookup allocates nothing. *)
let rec probe tbl ~key ~mask i n =
  if n > mask then -1
  else
    let v = tbl.vals.(i) in
    if v == free then -1
    else if tbl.keys.(i) = key then i
    else probe tbl ~key ~mask ((i + 1) land mask) (n + 1)

let find tbl ~key ~hash =
  let mask = Array.length tbl.keys - 1 in
  probe tbl ~key ~mask (hash land mask) 0

(* Writer only: first free slot on [hash]'s probe path. *)
let free_slot tbl ~hash =
  let mask = Array.length tbl.keys - 1 in
  let rec probe i = if tbl.vals.(i) == free then i else probe ((i + 1) land mask) in
  probe (hash land mask)

(* Double the table at a load factor of 3/4. The new record is complete
   before the one write that publishes it. *)
let grow t p =
  let old = p.table in
  let next = empty_table (2 * Array.length old.keys) in
  Array.iteri
    (fun i v ->
      if v != free then begin
        let key = old.keys.(i) in
        let j = free_slot next ~hash:(slot_hash t key) in
        next.keys.(j) <- key;
        next.vals.(j) <- v
      end)
    old.vals;
  p.table <- next

(* Write [value.[off .. off + len)] into the slot in place when sizes
   match (the common case for fixed-size KVS items), otherwise swap in a
   private copy. *)
let set_locked t p ~key ~value ~off ~len =
  let hash = slot_hash t key in
  let i = find p.table ~key ~hash in
  if i >= 0 then begin
    let cur = p.table.vals.(i) in
    if Bytes.length cur = len then Bytes.blit value off cur 0 len
    else p.table.vals.(i) <- Bytes.sub value off len
  end
  else begin
    if 4 * (p.count + 1) > 3 * Array.length p.table.keys then grow t p;
    let tbl = p.table in
    let j = free_slot tbl ~hash in
    tbl.keys.(j) <- key;
    tbl.vals.(j) <- Bytes.sub value off len;
    p.count <- p.count + 1
  end;
  p.writes_n <- p.writes_n + 1

let set_sub t ~key ~value ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length value then invalid_arg "Store.set_sub";
  let p = partition t key in
  Seqlock.write_begin p.lock;
  set_locked t p ~key ~value ~off ~len;
  Seqlock.write_end p.lock

let set t ~key ~value = set_sub t ~key ~value ~off:0 ~len:(Bytes.length value)

(* Idempotent write: a retried write whose first attempt was actually
   applied (the ack was lost, not the write) must not be applied twice.
   The token set is checked and updated inside the partition's write
   section, so a duplicate can never slip between check and apply. *)
let set_idempotent t ~key ~value ~token =
  let p = partition t key in
  if Hashtbl.mem p.applied_tokens token then begin
    p.dup_writes_n <- p.dup_writes_n + 1;
    `Duplicate
  end
  else begin
    Seqlock.write_begin p.lock;
    (* FIFO retention bound: make room before recording the new token,
       inside the write section so the CREW single writer sees an exact
       record at every instant. *)
    if Queue.length p.token_order >= t.token_capacity then begin
      Hashtbl.remove p.applied_tokens (Queue.pop p.token_order);
      p.tokens_evicted_n <- p.tokens_evicted_n + 1;
      Option.iter C4_obs.Registry.incr t.evicted_c
    end;
    Hashtbl.replace p.applied_tokens token ();
    Queue.push token p.token_order;
    set_locked t p ~key ~value ~off:0 ~len:(Bytes.length value);
    Seqlock.write_end p.lock;
    `Applied
  end

let set_batched t ~key ~values =
  match List.rev values with
  | [] -> ()
  | final :: _earlier ->
    let p = partition t key in
    Seqlock.write_begin p.lock;
    (* The batch counts as one combined update: one version bump, one
       data-store write, regardless of how many writes were compacted. *)
    set_locked t p ~key ~value:final ~off:0 ~len:(Bytes.length final);
    Seqlock.write_end p.lock

(* The one read loop. [f] runs on the live slot buffer, maybe more than
   once: a failed attempt discards what it did and the next calls it
   again with the same [x]. Refs that never escape stay in registers, so
   with a top-level [f] the loop allocates nothing. *)
let read_into t ~key ~retries f x =
  let p = partition t key in
  let hash = slot_hash t key in
  let result = ref (-1) and valid = ref false in
  while not !valid do
    let v0 = Seqlock.read_begin p.lock ~retries in
    let tbl = p.table in
    let i = find tbl ~key ~hash in
    result := if i < 0 then -1 else f tbl.vals.(i) x;
    valid := Seqlock.read_valid p.lock v0 ~retries
  done;
  !result

let copy_out v out =
  out := Some (Bytes.copy v);
  0

let get t ~key =
  let retries = ref 0 and out = ref None in
  let found = read_into t ~key ~retries copy_out out in
  ((if found < 0 then None else !out), !retries)

(* Prefetch hints, outside any seqlock section. They read the table
   record the partition holds now, racing its writer: a grow may
   replace it and a shift may move or free the slot under them. Either
   way they load only a matched pair of arrays, an index below their
   length and a bytes block, and nothing they read reaches an answer. *)
external prefetch_slot_lines : int array -> bytes array -> (int[@untagged]) -> unit
  = "c4_prefetch_slot_byte" "c4_prefetch_slot"
[@@noalloc]

external prefetch_block : bytes -> unit = "c4_prefetch_block" [@@noalloc]

let prefetch_slot t ~key =
  let tbl = (partition t key).table in
  prefetch_slot_lines tbl.keys tbl.vals (slot_hash t key land (Array.length tbl.keys - 1))

let prefetch_value t ~key =
  let tbl = (partition t key).table in
  let i = find tbl ~key ~hash:(slot_hash t key) in
  if i >= 0 then prefetch_block tbl.vals.(i)

let mem t ~key =
  let p = partition t key in
  let hash = slot_hash t key in
  fst (Seqlock.read p.lock (fun () -> find p.table ~key ~hash >= 0))

(* Backward-shift deletion: walk the run after the hole and move back
   every entry whose home slot does not lie strictly between the hole
   and itself, so no probe path ever crosses a free slot it should not
   and no tombstone is needed. *)
let remove t ~key =
  let p = partition t key in
  Seqlock.write_begin p.lock;
  let tbl = p.table in
  let i = find tbl ~key ~hash:(slot_hash t key) in
  if i >= 0 then begin
    let mask = Array.length tbl.keys - 1 in
    let rec shift hole j =
      let v = tbl.vals.(j) in
      if v == free then tbl.vals.(hole) <- free
      else begin
        let k = tbl.keys.(j) in
        let home = slot_hash t k land mask in
        if (j - home) land mask >= (j - hole) land mask then begin
          tbl.keys.(hole) <- k;
          tbl.vals.(hole) <- v;
          shift j ((j + 1) land mask)
        end
        else shift hole ((j + 1) land mask)
      end
    in
    shift i ((i + 1) land mask);
    p.count <- p.count - 1
  end;
  Seqlock.write_end p.lock;
  i >= 0

let sum t f = Array.fold_left (fun acc p -> acc + f p) 0 t.parts
let size t = sum t (fun p -> p.count)
let partition_version t ~partition = Seqlock.version t.parts.(partition).lock

type stats = { writes : int; duplicate_writes : int; tokens_evicted : int }

let stats t =
  {
    writes = sum t (fun p -> p.writes_n);
    duplicate_writes = sum t (fun p -> p.dup_writes_n);
    tokens_evicted = sum t (fun p -> p.tokens_evicted_n);
  }

let reset_stats t =
  Array.iter
    (fun p ->
      p.writes_n <- 0;
      p.dup_writes_n <- 0)
    t.parts
