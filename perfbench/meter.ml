(* Host-time instruments shared by every workload: the wall clock, GC
   counters, order statistics, the metric record [run.py] reads,
   and optional Chrome-trace spans.

   Host time (real seconds, GC words) is what this module measures.
   Simulated time only ever appears in the workloads' [sim_*] outputs;
   spans borrow [Sim.Time.t] purely as a nanosecond carrier so that
   [Obs.Export.chrome_trace] can render them, and their timestamps are
   host nanoseconds since the traced phase began. *)

let now = Unix.gettimeofday

(* --- GC counters ------------------------------------------------------ *)

(* [Gc.quick_stat] sums over every domain, including finished ones, so
   these deltas cover the parallel shard workers too. *)
type gc = { minor : float; major : float; minor_gcs : int; major_gcs : int }

let gc () =
  let s = Gc.quick_stat () in
  {
    minor = s.Gc.minor_words;
    major = s.Gc.major_words;
    minor_gcs = s.Gc.minor_collections;
    major_gcs = s.Gc.major_collections;
  }

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* One timed call: host seconds and the words it allocated. *)
type sample = { secs : float; minor_words : float; major_words : float }

let timed f =
  let g0 = gc () in
  let t0 = now () in
  let v = f () in
  let t1 = now () in
  let g1 = gc () in
  ( v,
    {
      secs = t1 -. t0;
      minor_words = g1.minor -. g0.minor;
      major_words = g1.major -. g0.major;
    } )

(* A timed phase starts from a collected heap so that the garbage of
   set-up is not collected on the phase's clock. *)
let settle () = Gc.full_major ()

(* --- order statistics -------------------------------------------------- *)

(* Linear interpolation between closest ranks ([numpy]'s default). *)
let percentile p xs =
  match List.sort Float.compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    let pos = p *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = Stdlib.min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = percentile 0.5 xs
let sum xs = List.fold_left ( +. ) 0.0 xs

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Host seconds of one [build ()] that takes microseconds: timed over
   batches of 1,000 calls, the median of fifteen batches. *)
let setup_seconds build =
  let batch = 1000 in
  median
    (List.init 15 (fun _ ->
         let t0 = now () in
         for _ = 1 to batch do ignore (Sys.opaque_identity (build ())) done;
         (now () -. t0) /. float_of_int batch))

(* --- metrics ------------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* The closed loop's timing metrics.  [rounds] holds each round's
   per-operation host seconds, and every round runs the same operations
   in the same order.  An operation's time is its median over the
   rounds, which keeps a burst of host noise in one round out of it;
   the percentiles are taken across the operations, and [units_per_s]
   divides a round's units by the sum of the operations' times. *)
let op_metrics ~units_per_round rounds =
  let per_op =
    match rounds with
    | [] -> []
    | first :: _ ->
      List.mapi
        (fun j _ -> median (List.map (fun r -> List.nth r j) rounds))
        first
  in
  [ m "units_per_s" "1/s" (units_per_round /. sum per_op);
    m "op_p50_ms" "ms" (1000.0 *. median per_op);
    m "op_p90_ms" "ms" (1000.0 *. percentile 0.9 per_op) ]

(* GC activity over a traced phase, from two [gc ()] readings. *)
let gc_metrics g0 g1 =
  [ m "ocaml.gc.minor_collections" "count"
      (float_of_int (g1.minor_gcs - g0.minor_gcs));
    m "ocaml.gc.major_collections" "count"
      (float_of_int (g1.major_gcs - g0.major_gcs));
    m "ocaml.gc.top_heap_mb" "MB" (top_heap_mb ()) ]

(* --- spans --------------------------------------------------------------- *)

type tracing = {
  tracer : Obs.Tracer.t;
  origin : float;
  mutable stack : Obs.Span.t list;  (* innermost open span first *)
}

let tracing : tracing option ref = ref None

let start_tracing () =
  tracing :=
    Some
      { tracer = Obs.Tracer.create ~capacity:1_000_000 (); origin = now ();
        stack = [] }

let stop_tracing () =
  let t = !tracing in
  tracing := None;
  Option.map (fun t -> t.tracer) t

let at t = Sim.Time.ns (int_of_float ((now () -. t.origin) *. 1e9))

(* [span ~layer name f] records [f ()] as a span on the [layer] track,
   nested under whatever span is open; a no-op when tracing is off. *)
let span ~layer name f =
  match !tracing with
  | None -> f ()
  | Some t ->
    let parent = match t.stack with p :: _ -> Some p | [] -> None in
    let s = Obs.Tracer.start t.tracer ~at:(at t) ?parent ~track:layer name in
    t.stack <- s :: t.stack;
    let close () =
      t.stack <- List.tl t.stack;
      Obs.Tracer.finish t.tracer s ~at:(at t)
    in
    (match f () with
     | v -> close (); v
     | exception e -> close (); raise e)
