type t = {
  sub_bits : int;
  sub_count : int; (* 2^sub_bits linear buckets per octave *)
  octaves : int;
  counts : int array;
  mutable total : int;
  mutable sum : float;
  mutable max_seen : float;
}

let create ?(sub_bucket_bits = 6) ?(max_value = 1e9) () =
  assert (sub_bucket_bits >= 1 && sub_bucket_bits <= 16);
  let sub_count = 1 lsl sub_bucket_bits in
  (* Octave [o] covers values in [2^o * sub_count, 2^(o+1) * sub_count).
     Octave 0 additionally holds the linear range [0, sub_count). *)
  let octaves =
    let rec needed o =
      if float_of_int sub_count *. Float.of_int (1 lsl o) >= max_value || o > 50
      then o + 1
      else needed (o + 1)
    in
    needed 0
  in
  {
    sub_bits = sub_bucket_bits;
    sub_count;
    octaves;
    counts = Array.make (octaves * sub_count) 0;
    total = 0;
    sum = 0.0;
    max_seen = 0.0;
  }

(* Index of the bucket holding integer value [v >= 0]. *)
let index t v =
  if v < t.sub_count then v
  else begin
    (* Highest set bit beyond the sub-bucket range selects the octave. *)
    let msb =
      let rec loop v acc = if v <= 1 then acc else loop (v lsr 1) (acc + 1) in
      loop v 0
    in
    let octave = msb - t.sub_bits + 1 in
    let octave = if octave >= t.octaves then t.octaves - 1 else octave in
    let sub = (v lsr octave) - (t.sub_count / 2) in
    let sub = if sub < 0 then 0 else if sub >= t.sub_count then t.sub_count - 1 else sub in
    (* Upper half of each octave row is used past octave 0; fold into the
       flat array as octave * sub_count + (sub_count/2 + sub). *)
    (octave * t.sub_count) + (t.sub_count / 2) + sub
  end

(* Upper edge of bucket [i], i.e. the largest value mapping to it. *)
let upper_edge t i =
  if i < t.sub_count then float_of_int i
  else begin
    let octave = i / t.sub_count in
    let sub = (i mod t.sub_count) - (t.sub_count / 2) in
    let base = (t.sub_count / 2) + sub in
    float_of_int (((base + 1) lsl octave) - 1)
  end

let add_many t v n =
  let v = if v < 0.0 then 0.0 else v in
  if v > t.max_seen then t.max_seen <- v;
  let iv = int_of_float v in
  let i = index t iv in
  let i = if i >= Array.length t.counts then Array.length t.counts - 1 else i in
  t.counts.(i) <- t.counts.(i) + n;
  t.total <- t.total + n;
  t.sum <- t.sum +. (v *. float_of_int n)

let add t v = add_many t v 1
let count t = t.total

let quantile t q =
  if t.total = 0 then 0.0
  else begin
    let q = if q < 0.0 then 0.0 else if q > 1.0 then 1.0 else q in
    let rank = int_of_float (ceil (q *. float_of_int t.total)) in
    let rank = if rank < 1 then 1 else rank in
    let rec loop i acc =
      if i >= Array.length t.counts then t.max_seen
      else begin
        let acc = acc + t.counts.(i) in
        if acc >= rank then Float.min (upper_edge t i) t.max_seen else loop (i + 1) acc
      end
    in
    loop 0 0
  end

let median t = quantile t 0.5
let p90 t = quantile t 0.90
let p99 t = quantile t 0.99
let p999 t = quantile t 0.999
let mean t = if t.total = 0 then 0.0 else t.sum /. float_of_int t.total
let sum t = t.sum
let max_recorded t = t.max_seen

let reset t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.total <- 0;
  t.sum <- 0.0;
  t.max_seen <- 0.0

let merge t ~other =
  if t.sub_bits <> other.sub_bits || Array.length t.counts <> Array.length other.counts
  then invalid_arg "Histogram.merge: incompatible layouts";
  Array.iteri (fun i c -> t.counts.(i) <- t.counts.(i) + c) other.counts;
  t.total <- t.total + other.total;
  t.sum <- t.sum +. other.sum;
  if other.max_seen > t.max_seen then t.max_seen <- other.max_seen

let buckets t =
  let acc = ref [] in
  for i = Array.length t.counts - 1 downto 0 do
    if t.counts.(i) > 0 then acc := (upper_edge t i, t.counts.(i)) :: !acc
  done;
  !acc

let pp ppf t =
  Format.fprintf ppf "n=%d mean=%.1f p50=%.1f p99=%.1f max=%.1f" t.total
    (mean t) (median t) (p99 t) t.max_seen
