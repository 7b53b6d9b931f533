(* Log-bucketed latency histogram.

   A long-lived serving process must report percentiles over an unbounded
   stream of per-query latencies; keeping raw samples would grow without
   bound, so observations land in geometrically spaced buckets and
   percentiles are read back as the representative value (geometric
   midpoint) of the bucket holding the requested rank.  With [gamma]
   = 1.05 the relative error of a reported quantile is under ~2.5%, far
   inside run-to-run noise, and the whole histogram is one small int
   array.

   Thread-safe: a serve daemon records from many connection threads and
   pool domains; every operation takes the histogram's own mutex (the
   critical sections are a few array writes). *)

type t = {
  mu : Mutex.t;
  counts : int array;
  mutable n : int;
  mutable sum : float;
  mutable minv : float;
  mutable maxv : float;
}

(* Buckets span [lo, lo * gamma^buckets): 1µs to >1000s for latencies in
   seconds.  Values outside clamp to the edge buckets. *)
let lo = 1e-6
let gamma = 1.05
let log_gamma = Float.log gamma
let buckets = 430

let create () =
  { mu = Mutex.create ();
    counts = Array.make buckets 0;
    n = 0;
    sum = 0.0;
    minv = Float.infinity;
    maxv = Float.neg_infinity }

let bucket_of x =
  if x <= lo then 0
  else
    let b = int_of_float (Float.log (x /. lo) /. log_gamma) in
    if b >= buckets then buckets - 1 else b

(* Geometric midpoint of bucket [b] — the value reported for ranks that
   land in it. *)
let value_of b = lo *. (gamma ** (float_of_int b +. 0.5))

let with_lock t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let add t x =
  let x = if Float.is_finite x && x >= 0.0 then x else 0.0 in
  with_lock t (fun () ->
      t.counts.(bucket_of x) <- t.counts.(bucket_of x) + 1;
      t.n <- t.n + 1;
      t.sum <- t.sum +. x;
      if x < t.minv then t.minv <- x;
      if x > t.maxv then t.maxv <- x)

(* Interpolated quantile on the bucketed distribution, caller holding
   the lock and [t.n > 0].  The real-valued rank [r = p * (n - 1)] falls
   inside some bucket; treating that bucket's [c] samples as spread at
   positions [(i + 0.5) / c] of its geometric span gives a within-bucket
   fraction, and the reported value is [lo * gamma^(b + frac)] — so
   quantiles move smoothly with [p] instead of snapping to bucket
   midpoints, which matters for p99 at low counts.  The result clamps to
   the exact observed min/max so p0/p100 are never bucket-quantised. *)
let quantile t p =
  let p = Float.max 0.0 (Float.min 1.0 p) in
  let r = p *. float_of_int (t.n - 1) in
  let b = ref 0 and cum = ref 0 in
  while
    !b < buckets - 1
    && float_of_int (!cum + t.counts.(!b)) <= r
  do
    cum := !cum + t.counts.(!b);
    incr b
  done;
  let c = t.counts.(!b) in
  let v =
    if c = 0 then value_of !b
    else begin
      let frac = (r -. float_of_int !cum +. 0.5) /. float_of_int c in
      let frac = Float.max 0.0 (Float.min 1.0 frac) in
      lo *. (gamma ** (float_of_int !b +. frac))
    end
  in
  Float.max t.minv (Float.min t.maxv v)

type snapshot = {
  count : int;
  sum : float;
  min : float option;
  max : float option;
  quantiles : (float * float option) list;
}

let snapshot t ps =
  with_lock t (fun () ->
      let defined v = if t.n = 0 then None else Some v in
      { count = t.n;
        sum = t.sum;
        min = defined t.minv;
        max = defined t.maxv;
        quantiles =
          List.map (fun p -> (p, if t.n = 0 then None else Some (quantile t p))) ps })

let count t = (snapshot t []).count
let minimum t = (snapshot t []).min
let maximum t = (snapshot t []).max
let percentile t p = snd (List.hd (snapshot t [ p ]).quantiles)

let mean t =
  let s = snapshot t [] in
  if s.count = 0 then None else Some (s.sum /. float_of_int s.count)

(* Fold [src] into [dst].  The source is snapshotted under its own lock
   first and the copy folded in under the destination's lock, so the two
   mutexes are never held together (no ordering to get wrong, merging in
   both directions concurrently cannot deadlock). *)
let merge dst ~from =
  let counts, n, sum, minv, maxv =
    with_lock from (fun () ->
        (Array.copy from.counts, from.n, from.sum, from.minv, from.maxv))
  in
  with_lock dst (fun () ->
      Array.iteri (fun b c -> dst.counts.(b) <- dst.counts.(b) + c) counts;
      dst.n <- dst.n + n;
      dst.sum <- dst.sum +. sum;
      if minv < dst.minv then dst.minv <- minv;
      if maxv > dst.maxv then dst.maxv <- maxv)

let reset t =
  with_lock t (fun () ->
      Array.fill t.counts 0 buckets 0;
      t.n <- 0;
      t.sum <- 0.0;
      t.minv <- Float.infinity;
      t.maxv <- Float.neg_infinity)
