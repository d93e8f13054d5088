(* One benchmark invocation: which workload, its seed, how long to
   measure, whether spans are on, and the stored references its outputs
   are checked against. *)

type size = Full | Tiny  (* [Tiny] is the self-test size *)

type t = {
  workload : string;
  slot : int;
      (* the input set: [seed mod slots].  Every slot has stored
         reference outputs, so any seed is checkable. *)
  seconds : float;
  traced : bool;
  size : size;
  refs : Refs.t;
}

let slots = 16

let ref_workload t =
  match t.size with Full -> t.workload | Tiny -> t.workload ^ "@tiny"

(* [slot] overrides the job's slot for outputs that do not depend on
   it. *)
let check ?slot t key actual =
  let slot = Option.value slot ~default:t.slot in
  Refs.check t.refs ~workload:(ref_workload t) ~slot key actual

(* A number stored beside the digests (a journal length, say); [None]
   when no reference exists for this slot. *)
let stored_int ?slot t key =
  let slot = Option.value slot ~default:t.slot in
  Option.map int_of_string
    (Refs.find t.refs ~workload:(ref_workload t) ~slot key)

(* Inputs are generated from the slot alone, through a stream salted
   per workload. *)
let rng t ~salt = Sim.Rng.create (Int64.of_int ((t.slot * 1_000_003) + salt))

type result = {
  attempted : int;
  failed : int;
  e2e : Meter.metric list;  (* the declared end-to-end metrics *)
  sim : Meter.metric list;
      (* simulated outputs: deterministic, pinned exactly by the
         reference check, printed for the record *)
  layers : Meter.metric list;  (* per-layer metrics (traced run) *)
  trace : Obs.Tracer.t option;
}

(* The closed loop: run [round] back to back until [t.seconds] is used
   up, stopping before a round that would overrun it at the run's mean
   round time (at least one round).  A run therefore lasts about as long
   on a slow box as on a fast one, and a slow box makes fewer rounds.
   The timing metrics are medians over rounds, so the count changes how
   steady they are, not what they estimate.

   Returns the process's heap peak (MB) after the first round; later
   rounds repeat the same work but can raise the peak while the first
   one's garbage is still being reclaimed. *)
let rounds t round =
  let t0 = Meter.now () in
  let peak = ref 0.0 in
  let rec go i =
    round i;
    if i = 0 then peak := Meter.top_heap_mb ();
    let done_ = float_of_int (i + 1) in
    let elapsed = Meter.now () -. t0 in
    if elapsed *. (done_ +. 1.0) /. done_ <= t.seconds then go (i + 1)
  in
  go 0;
  !peak
