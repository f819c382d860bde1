module Registry = C4_obs.Registry

(* Word layout, low to high: outstanding count (21 bits), holder
   (14 bits), holder's incarnation (27 bits, wrapping). The free word
   is 0; a stamp is a held word with its count bits cleared. *)
let count_bits = 21
let count_mask = (1 lsl count_bits) - 1
let holder_bits = 14
let holder_mask = (1 lsl holder_bits) - 1
let incarnation_shift = count_bits + holder_bits
let incarnation_mask = (1 lsl 27) - 1
let max_holders = holder_mask + 1

type stamp = int

let stamp ~holder ~incarnation =
  (holder lsl count_bits) lor ((incarnation land incarnation_mask) lsl incarnation_shift)

let stamp_holder s = (s lsr count_bits) land holder_mask
let is_free w = w land count_mask = 0
let holder w = stamp_holder w
let count w = w land count_mask
let stamp_of w = w land lnot count_mask

(* The census of a table smaller than its partition space. *)
type census = {
  live : int Atomic.t;
  occ_sum : int Atomic.t;
  sample_n : int Atomic.t;
  peak_n : int Atomic.t;
}

type t = {
  cap : int;
  max_outstanding : int;
  words : int Atomic.t array;
  last_write : float array;  (* written only by callers passing [now] *)
  census : census option;
  hit_c : Registry.counter;
  miss_c : Registry.counter;
  insert_c : Registry.counter;
  evict_c : Registry.counter;
  reject_full_c : Registry.counter;
  reject_saturated_c : Registry.counter;
  stale_evict_c : Registry.counter;
  orphan_release_c : Registry.counter;
}

let create ?registry ?(capacity = 128) ?(max_outstanding = 64) ~n_partitions () =
  if capacity <= 0 || max_outstanding <= 0 || max_outstanding > count_mask
     || n_partitions <= 0
  then invalid_arg "Ewt.create";
  (* Without a caller-supplied registry the counters live in a private
     one: instrumentation stays branch-free either way. *)
  let reg = match registry with Some r -> r | None -> Registry.create () in
  let census =
    if capacity >= n_partitions then None
    else
      Some
        {
          live = Atomic.make 0;
          occ_sum = Atomic.make 0;
          sample_n = Atomic.make 0;
          peak_n = Atomic.make 0;
        }
  in
  {
    cap = capacity;
    max_outstanding;
    words = Array.init n_partitions (fun _ -> Atomic.make 0);
    last_write = Array.make n_partitions 0.0;
    census;
    hit_c = Registry.counter reg "ewt.hit";
    miss_c = Registry.counter reg "ewt.miss";
    insert_c = Registry.counter reg "ewt.insert";
    evict_c = Registry.counter reg "ewt.evict";
    reject_full_c = Registry.counter reg "ewt.reject_full";
    reject_saturated_c = Registry.counter reg "ewt.reject_saturated";
    stale_evict_c = Registry.counter reg "ewt.stale_evict";
    orphan_release_c = Registry.counter reg "ewt.orphan_release";
  }

let capacity t = t.cap
let word t ~partition = Atomic.get t.words.(partition)

let occupancy t =
  match t.census with
  | Some c -> Atomic.get c.live
  | None ->
    Array.fold_left (fun n w -> if is_free (Atomic.get w) then n else n + 1) 0 t.words

let sample t =
  match t.census with
  | None -> ()
  | Some c ->
    let occ = Atomic.get c.live in
    ignore (Atomic.fetch_and_add c.occ_sum occ);
    Atomic.incr c.sample_n;
    let rec raise_peak () =
      let p = Atomic.get c.peak_n in
      if occ > p && not (Atomic.compare_and_set c.peak_n p occ) then raise_peak ()
    in
    raise_peak ()

(* A word just went free (by release or eviction). *)
let freed t =
  match t.census with None -> () | Some c -> Atomic.decr c.live

let touch ?now t ~partition =
  match now with None -> () | Some now -> t.last_write.(partition) <- now

let pin ?now t ~partition ~holder ~incarnation =
  (* Reserve the census slot first, so a full table never holds more
     than [capacity] words even while pins race. *)
  let reserved =
    match t.census with
    | None -> true
    | Some c ->
      if Atomic.fetch_and_add c.live 1 < t.cap then true
      else begin
        Atomic.decr c.live;
        false
      end
  in
  if not reserved then begin
    Registry.incr t.miss_c;
    Registry.incr t.reject_full_c;
    `Full
  end
  else if Atomic.compare_and_set t.words.(partition) 0 (stamp ~holder ~incarnation lor 1)
  then begin
    touch ?now t ~partition;
    Registry.incr t.miss_c;
    Registry.incr t.insert_c;
    sample t;
    `Ok
  end
  else begin
    freed t;
    `Moved
  end

let route ?now t ~partition ~seen =
  if is_free seen then `Moved
  else if count seen >= t.max_outstanding then begin
    Registry.incr t.hit_c;
    Registry.incr t.reject_saturated_c;
    `Counter_saturated
  end
  else if Atomic.compare_and_set t.words.(partition) seen (seen + 1) then begin
    touch ?now t ~partition;
    Registry.incr t.hit_c;
    sample t;
    `Ok
  end
  else `Moved

let rec release t ~partition ~stamp =
  let cell = t.words.(partition) in
  let w = Atomic.get cell in
  if is_free w || stamp_of w <> stamp then begin
    Registry.incr t.orphan_release_c;
    `Stale
  end
  else
    let next = if count w = 1 then 0 else w - 1 in
    if not (Atomic.compare_and_set cell w next) then release t ~partition ~stamp
    else if next = 0 then begin
      freed t;
      Registry.incr t.evict_c;
      sample t;
      `Freed
    end
    else begin
      sample t;
      `Held
    end

let lookup t ~partition =
  let w = word t ~partition in
  if is_free w then begin
    Registry.incr t.miss_c;
    None
  end
  else begin
    Registry.incr t.hit_c;
    Some (holder w)
  end

(* Free every held word [evict] selects, in ascending partition order. *)
let evict_where t counter ~evict =
  let evicted = ref [] in
  Array.iteri
    (fun partition cell ->
      let rec go () =
        let w = Atomic.get cell in
        if (not (is_free w)) && evict partition w then
          if Atomic.compare_and_set cell w 0 then begin
            freed t;
            Registry.incr counter;
            sample t;
            evicted := partition :: !evicted
          end
          else go ()
      in
      go ())
    t.words;
  List.rev !evicted

let evict_holder t ~holder:h =
  evict_where t t.evict_c ~evict:(fun _ w -> holder w = h)

let expire_stale_partitions t ~now ~ttl =
  if ttl <= 0.0 then invalid_arg "Ewt.expire_stale: ttl must be positive";
  evict_where t t.stale_evict_c ~evict:(fun partition _ ->
      now -. t.last_write.(partition) > ttl)

let expire_stale t ~now ~ttl = List.length (expire_stale_partitions t ~now ~ttl)
let stale_evictions t = Registry.counter_value t.stale_evict_c
let orphan_releases t = Registry.counter_value t.orphan_release_c
let outstanding t ~partition = count (word t ~partition)

type occupancy_stats = { average : float; peak : int; samples : int }

let occupancy_stats t =
  match t.census with
  | None -> { average = 0.0; peak = 0; samples = 0 }
  | Some c ->
    let n = Atomic.get c.sample_n in
    {
      average =
        (if n = 0 then 0.0 else float_of_int (Atomic.get c.occ_sum) /. float_of_int n);
      peak = Atomic.get c.peak_n;
      samples = n;
    }

let reset_stats t =
  match t.census with
  | None -> ()
  | Some c ->
    Atomic.set c.occ_sum 0;
    Atomic.set c.sample_n 0;
    Atomic.set c.peak_n 0
