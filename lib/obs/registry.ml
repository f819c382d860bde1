(* c4-lint: allow bare-mutex-lock — this is the one base-layer module
   (below c4_runtime, so Sync.with_lock is unavailable) that needs a
   lock; [guarded] and the shard updates below are the same
   exception-safe pattern. *)

module H = C4_stats.Histogram
module Table = C4_stats.Table

(* A thread-safe registry splits every handle into shards, one per
   domain slot ((Domain.self () :> int) mod n_shards). A counter bump is
   one [Atomic.fetch_and_add] on its domain's own cell: no lock, and a
   second systhread on the same domain (the acceptor, a replication
   sender) or a respawned domain sharing the slot cannot tear it.
   Gauges and histograms keep a lock per shard, since a histogram
   update is several stores; a domain's updates only ever take its own
   shard's lock, which another domain takes only when a reader merges
   the shards. Readers take every shard lock in index order, so the
   gauges and histograms they merge are one consistent cut. A plain
   registry has one unlocked shard ([locks = [||]]) and plain int
   counter cells. *)

(* Cells between two shards' cells of one counter: the padding atomics
   in between are allocated with them, one after another, so two
   domains' cells sit 128 bytes apart (an Atomic.t is two words) once
   the minor GC promotes them in array order. By hand rather than
   [Atomic.make_contended], which OCaml 5.1 lacks. *)
let stride = 8

(* At least one shard per domain the machine can usefully run, plus
   the main domain; a power of two, so a domain's slot is a mask of its
   id. Domains past that (respawned workers) share a shard. *)
let n_shards =
  let rec pow2 n = if n >= Domain.recommended_domain_count () + 1 || n >= 64 then n else pow2 (2 * n) in
  pow2 1

(* The calling domain's shard, worked out once per domain. *)
let shard_key = Domain.DLS.new_key (fun () -> (Domain.self () :> int) land (n_shards - 1))

(* [cells] when thread-safe, [plain] otherwise; the other is empty. *)
type counter = { plain : int array; cells : int Atomic.t array }
type gauge = { mutable v : float; g_locks : Mutex.t array }

(* A shard's histogram is allocated on its first observation, so only
   the domains that record pay for one. *)
type histogram = { hists : H.t option array; h_locks : Mutex.t array }
type sampled = { mutable sample : unit -> float }

type metric =
  | Counter of counter
  | Gauge of gauge
  | Sampled of sampled
  | Histogram of histogram

type t = {
  tbl : (string, metric) Hashtbl.t;
  mutable order : string list; (* registration order, reversed *)
  lock : Mutex.t option; (* registration; readers take it before [locks] *)
  locks : Mutex.t array; (* one per shard; [||] when not thread_safe *)
}

let guarded lock f =
  match lock with
  | None -> f ()
  | Some m ->
    Mutex.lock m;
    Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* Every shard lock, in index order: the one acquisition order, so two
   readers never deadlock and a writer (one lock) never inverts it. *)
let all_shards locks f =
  Array.iter Mutex.lock locks;
  Fun.protect ~finally:(fun () -> Array.iter Mutex.unlock locks) f

let create ?(thread_safe = false) () =
  {
    tbl = Hashtbl.create 32;
    order = [];
    lock = (if thread_safe then Some (Mutex.create ()) else None);
    locks = (if thread_safe then Array.init n_shards (fun _ -> Mutex.create ()) else [||]);
  }

let register t name make =
  guarded t.lock (fun () ->
      match Hashtbl.find_opt t.tbl name with
      | Some m -> m
      | None ->
        let m = make () in
        Hashtbl.replace t.tbl name m;
        t.order <- name :: t.order;
        m)

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Sampled _ -> "sampled gauge"
  | Histogram _ -> "histogram"

let wrong_kind name ~want m =
  invalid_arg
    (Printf.sprintf "Registry.%s: %S already registered as a %s" want name
       (kind_name m))

let counter t name =
  let make () =
    match t.locks with
    | [||] -> Counter { plain = [| 0 |]; cells = [||] }
    | _ -> Counter { plain = [||]; cells = Array.init (n_shards * stride) (fun _ -> Atomic.make 0) }
  in
  match register t name make with
  | Counter c -> c
  | m -> wrong_kind name ~want:"counter" m

let gauge t name =
  match register t name (fun () -> Gauge { v = 0.0; g_locks = t.locks }) with
  | Gauge g -> g
  | m -> wrong_kind name ~want:"gauge" m

let sampled_gauge t name f =
  match register t name (fun () -> Sampled { sample = f }) with
  | Sampled s -> s.sample <- f
  | m -> wrong_kind name ~want:"sampled_gauge" m

let histogram t name =
  let make () =
    Histogram
      {
        hists =
          (match t.locks with
          | [||] -> [| Some (H.create ()) |]
          | locks -> Array.make (Array.length locks) None);
        h_locks = t.locks;
      }
  in
  match register t name make with
  | Histogram h -> h
  | m -> wrong_kind name ~want:"histogram" m

(* Updates: a gauge store cannot raise, so it needs no handler to
   release the lock. *)
let incr ?(by = 1) c =
  match c.cells with
  | [||] -> c.plain.(0) <- c.plain.(0) + by
  | cells -> ignore (Atomic.fetch_and_add cells.(Domain.DLS.get shard_key * stride) by)

let set g v =
  match g.g_locks with
  | [||] -> g.v <- v
  | locks ->
    let s = Domain.DLS.get shard_key in
    Mutex.lock locks.(s);
    g.v <- v;
    Mutex.unlock locks.(s)

let shard_hist h s =
  match h.hists.(s) with
  | Some x -> x
  | None ->
    let x = H.create () in
    h.hists.(s) <- Some x;
    x

let observe h v =
  match h.h_locks with
  | [||] -> H.add (shard_hist h 0) v
  | locks -> (
    let s = Domain.DLS.get shard_key in
    Mutex.lock locks.(s);
    match H.add (shard_hist h s) v with
    | () -> Mutex.unlock locks.(s)
    | exception e ->
      Mutex.unlock locks.(s);
      raise e)

(* One thread's samples, published a batch at a time: one shard lock
   per batch instead of one per sample. *)
type buffer = { b_hist : histogram; b_vals : float array; mutable b_n : int }

let buffer h = { b_hist = h; b_vals = Array.make 256 0.0; b_n = 0 }

let flush b =
  if b.b_n > 0 then begin
    let n = b.b_n in
    b.b_n <- 0;
    match b.b_hist.h_locks with
    | [||] ->
      let x = shard_hist b.b_hist 0 in
      for i = 0 to n - 1 do
        H.add x b.b_vals.(i)
      done
    | locks -> (
      let s = Domain.DLS.get shard_key in
      Mutex.lock locks.(s);
      let x = shard_hist b.b_hist s in
      match
        for i = 0 to n - 1 do
          H.add x b.b_vals.(i)
        done
      with
      | () -> Mutex.unlock locks.(s)
      | exception e ->
        Mutex.unlock locks.(s);
        raise e)
  end

let buffered b v =
  if b.b_n = Array.length b.b_vals then flush b;
  b.b_vals.(b.b_n) <- float_of_int v;
  b.b_n <- b.b_n + 1

(* Counters need no lock to read: each cell is read atomically. The
   histogram merges below are taken with every shard lock held (or the
   registry is plain). *)
let sum c =
  match c.cells with
  | [||] -> c.plain.(0)
  | cells ->
    let rec go i acc =
      if i >= Array.length cells then acc else go (i + stride) (acc + Atomic.get cells.(i))
    in
    go 0 0

let merged h =
  let acc = H.create () in
  Array.iter (Option.iter (fun x -> H.merge acc ~other:x)) h.hists;
  acc

let hist_count h =
  Array.fold_left (fun n -> function Some x -> n + H.count x | None -> n) 0 h.hists

let counter_value c = sum c

let histogram_values h =
  match h.h_locks with
  | [||] -> shard_hist h 0
  | locks -> all_shards locks (fun () -> merged h)

let names t = guarded t.lock (fun () -> List.rev t.order)

(* Registration lock, then every shard lock: the table is stable and no
   update is half-applied while [f] reads. *)
let consistent t f = guarded t.lock (fun () -> all_shards t.locks f)

type reading =
  | Counter_reading of int
  | Gauge_reading of float
  | Histogram_reading of H.t

(* Merging into a fresh histogram under the shard locks is what makes
   the reading tear-free — a concurrent [observe] can never be
   half-applied (count bumped, sum not) in it. *)
let reading_of = function
  | Counter c -> Counter_reading (sum c)
  | Gauge g -> Gauge_reading g.v
  | Sampled s -> Gauge_reading (s.sample ())
  | Histogram h -> Histogram_reading (merged h)

let in_order t f = List.rev_map (fun name -> f name (Hashtbl.find t.tbl name)) t.order

let snapshot t = consistent t (fun () -> in_order t (fun name m -> (name, reading_of m)))

let read_metric = function
  | Counter c -> float_of_int (sum c)
  | Gauge g -> g.v
  | Sampled s -> s.sample ()
  | Histogram h -> float_of_int (hist_count h)

let read t name =
  consistent t (fun () -> Option.map read_metric (Hashtbl.find_opt t.tbl name))

let csv_header t = names t

let cell_of = function
  | Counter c -> string_of_int (sum c)
  | Gauge g -> Printf.sprintf "%g" g.v
  | Sampled s -> Printf.sprintf "%g" (s.sample ())
  | Histogram h -> string_of_int (hist_count h)

let csv_row t = consistent t (fun () -> in_order t (fun _ m -> cell_of m))

let to_table t =
  let table =
    Table.create
      ~columns:
        [
          ("metric", Table.Left);
          ("kind", Table.Left);
          ("value", Table.Right);
          ("mean", Table.Right);
          ("p99", Table.Right);
        ]
  in
  let row name m =
    match reading_of m with
    | Counter_reading n -> [ name; "counter"; string_of_int n; "-"; "-" ]
    | Gauge_reading v -> [ name; "gauge"; Printf.sprintf "%g" v; "-"; "-" ]
    | Histogram_reading h ->
      [
        name;
        "histogram";
        string_of_int (H.count h);
        Table.cell_f ~decimals:1 (H.mean h);
        Table.cell_f ~decimals:1 (H.p99 h);
      ]
  in
  List.iter (Table.add_row table) (consistent t (fun () -> in_order t row));
  table
