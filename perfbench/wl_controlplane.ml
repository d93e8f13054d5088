(* Workload controlplane: [Cluster.Controlplane] on 16 regions x 1,000
   hosts x 8 VMs with per-host crash / timeout / flap probabilities,
   one sub-controller crash, and one root crash whose bundle is written
   out, read back and handed to [Controlplane.resume].

   The campaign layer's worst case per host, measured apart from
   [run_fleet].  The seed picks the host-fault and jitter seeds and
   where the two controller crashes land. *)

open Meter
module CP = Cluster.Controlplane

let shape (job : Job.t) =
  match job.Job.size with Job.Full -> (16, 1_000) | Job.Tiny -> (4, 50)

type inputs = { config : CP.config; calm : Fault.injection list; seed : int64 }

let inputs (job : Job.t) =
  let regions, hosts_per_region = shape job in
  let rng = Job.rng job ~salt:0xC7A1 in
  let seed = Sim.Rng.int64 rng in
  {
    config =
      { CP.default_config with
        CP.regions;
        hosts_per_region;
        vms_per_host = 8;
        global_concurrency = 8 * regions;
        seed = Sim.Rng.int64 rng };
    calm =
      [ { Fault.site = Fault.Host_crash; trigger = Fault.Probability 0.15 };
        { Fault.site = Fault.Host_timeout; trigger = Fault.Probability 0.05 };
        { Fault.site = Fault.Host_flap; trigger = Fault.Probability 0.05 } ];
    seed;
  }

(* The sub-controller dies between 25% and 35% of the journal appends,
   the root between 50% and 60% of the heartbeat ticks, both measured
   on the uninterrupted run.  Recovery replays journal prefixes, so the
   crash points move the work of a pass; the bands keep that small. *)
let chaos (job : Job.t) inp =
  let rng = Job.rng job ~salt:0xC7A2 in
  let at lo key =
    Option.map
      (fun n ->
        Stdlib.max 1
          (int_of_float ((lo +. Sim.Rng.float rng 0.1) *. float_of_int n)))
      (Job.stored_int job key)
  in
  match (at 0.25 "entries", at 0.5 "ticks") with
  | Some sub, Some root ->
    Fault.make ~seed:inp.seed
      (inp.calm
      @ [ { Fault.site = Fault.Subctl_crash; trigger = Fault.Nth_hit sub };
          { Fault.site = Fault.Root_crash; trigger = Fault.Nth_hit root } ])
  | _ -> failwith "controlplane: no stored crash points for this slot"

let digests r b =
  (Refs.digest (CP.summary r), Refs.digest (CP.merged_to_string b))

(* The uninterrupted run, recorded as the reference. *)
let record (job : Job.t) inp =
  match CP.run ~fault:(Fault.make ~seed:inp.seed inp.calm) inp.config with
  | CP.Finished (r, b) ->
    let summary, merged = digests r b in
    let ticks =
      Sim.Time.to_ns r.CP.cp_wall_clock
      / Sim.Time.to_ns inp.config.CP.heartbeat_every
    in
    List.iter
      (fun (k, v) -> ignore (Job.check job k v))
      [ ("entries", string_of_int (CP.bundle_length b));
        ("ticks", string_of_int ticks); ("summary", summary);
        ("merged", merged) ]
  | CP.Crashed _ -> failwith "controlplane: calm run crashed"

type pass = {
  report : CP.report;
  bundle : CP.bundle;
  run_s : float;
  resume_s : float;
  to_string_s : float;
  of_string_s : float;
  bundle_bytes : int;
  s : sample;
}

exception Unexpected of string

let pass inp fault metrics =
  settle ();
  let parts = ref (0.0, 0.0, 0.0, 0.0, 0) in
  let (report, bundle), s =
    timed (fun () ->
        let crashed, run =
          timed (fun () ->
              span ~layer:"controlplane" "Cluster.Controlplane.run" (fun () ->
                  CP.run ~fault ?metrics inp.config))
        in
        let bundle =
          match crashed with
          | CP.Crashed b -> b
          | CP.Finished _ -> raise (Unexpected "the root never crashed")
        in
        let text, w =
          timed (fun () ->
              span ~layer:"controlplane" "Cluster.Controlplane.bundle_to_string"
                (fun () -> CP.bundle_to_string bundle))
        in
        let bundle, r =
          timed (fun () ->
              span ~layer:"controlplane" "Cluster.Controlplane.bundle_of_string"
                (fun () -> CP.bundle_of_string text))
        in
        let bundle =
          match bundle with Ok b -> b | Error e -> raise (Unexpected e)
        in
        let finished, res =
          timed (fun () ->
              span ~layer:"controlplane" "Cluster.Controlplane.resume"
                (fun () -> CP.resume ~fault ?metrics bundle))
        in
        parts := (run.secs, res.secs, w.secs, r.secs, String.length text);
        match finished with
        | CP.Finished (r, b) -> (r, b)
        | CP.Crashed _ -> raise (Unexpected "the new root crashed too"))
  in
  let run_s, resume_s, to_string_s, of_string_s, bundle_bytes = !parts in
  { report; bundle; run_s; resume_s; to_string_s; of_string_s; bundle_bytes; s }

let restarts metrics regions =
  List.fold_left
    (fun acc region ->
      acc
      + int_of_float
          (Obs.Metrics.value
             (Obs.Metrics.counter metrics
                ~labels:
                  [ ("engine", "controlplane"); ("kind", "crash");
                    ("region", Printf.sprintf "r%d" region) ]
                "hypertp_ctl_restarts_total")))
    0 (List.init regions Fun.id)

let hosts inp = float_of_int (inp.config.CP.regions * inp.config.CP.hosts_per_region)

(* One campaign through both crashes, checked against its reference.
   The chaos plan is consulted as given across run and resume, so each
   pass starts from a fresh copy. *)
let checked_pass (job : Job.t) inp fault failed metrics =
  let p = pass inp (Fault.restart fault) metrics in
  let summary, merged = digests p.report p.bundle in
  if not (Job.check job "summary" summary && Job.check job "merged" merged)
  then incr failed;
  p

(* The control plane's layer metrics from one pass run with [metrics],
   plus a [run_fleet] of the same topology for scale. *)
let layer_metrics inp metrics p =
  let _, fleet =
    timed (fun () ->
        settle ();
        span ~layer:"campaign" "Cluster.Campaign.run_fleet" (fun () ->
            Cluster.Campaign.run_fleet
              ~topology:
                (Cluster.Topology.uniform ~regions:inp.config.CP.regions
                   ~hosts:(int_of_float (hosts inp)) ~vms_per_host:8 ())
              Cluster.Campaign.default_config))
  in
  [ m "controlplane.run_s" "s" p.run_s;
    m "controlplane.resume_s" "s" p.resume_s;
    m "controlplane.bundle_bytes" "B" (float_of_int p.bundle_bytes);
    m "controlplane.bundle_to_string_ms" "ms" (1000.0 *. p.to_string_s);
    m "controlplane.bundle_of_string_ms" "ms" (1000.0 *. p.of_string_s);
    m "controlplane.entries" "count" (float_of_int (CP.bundle_length p.bundle));
    m "controlplane.subctl_restarts" "count"
      (float_of_int (restarts metrics inp.config.CP.regions));
    m "controlplane.minor_words_per_host" "words/host"
      (p.s.minor_words /. hosts inp);
    m "controlplane.vs_run_fleet" "x" (p.s.secs /. fleet.secs) ]

(* One pass measured for its layer metrics alone, inside another
   workload's traced run: the metrics, the passes attempted and the
   passes that failed their check. *)
let layers (job : Job.t) =
  let inp = inputs job in
  let failed = ref 0 and metrics = Obs.Metrics.create () in
  let p = checked_pass job inp (chaos job inp) failed (Some metrics) in
  (layer_metrics inp metrics p, 1, !failed)

let run (job : Job.t) =
  let inp = inputs job in
  if Refs.recording job.Job.refs then record job inp;
  let setup_s =
    setup_seconds (fun () ->
        let inp = inputs job in
        (inp, chaos job inp))
  in
  let fault = chaos job inp in
  let hosts = hosts inp in
  let failed = ref 0 and passes = ref [] and peak = ref 0.0 in
  let one = checked_pass job inp fault failed in
  let layers, trace =
    if not job.Job.traced then begin
      peak :=
        Job.rounds job (fun _ -> passes := one None :: !passes);
      ([], None)
    end
    else begin
      let base = one None in
      let metrics = Obs.Metrics.create () in
      start_tracing ();
      let g0 = gc () in
      let traced = one (Some metrics) in
      let g1 = gc () in
      peak := top_heap_mb ();
      passes := [ traced; base ];
      ( layer_metrics inp metrics traced
        @ [ m "trace.overhead_pct" "%"
              (100.0 *. (traced.s.secs -. base.s.secs) /. base.s.secs) ]
        @ gc_metrics g0 g1,
        stop_tracing () )
    end
  in
  let passes = List.rev !passes in
  let n = float_of_int (List.length passes) in
  let e2e =
    (m "setup_s" "s" setup_s
    :: op_metrics ~units_per_round:hosts
         (List.map (fun p -> [ p.s.secs ]) passes))
    @ [ m "minor_words_per_unit" "words/unit"
        (sum (List.map (fun p -> p.s.minor_words) passes) /. (hosts *. n));
      m "major_words_per_unit" "words/unit"
        (sum (List.map (fun p -> p.s.major_words) passes) /. (hosts *. n));
      m "peak_heap_mb" "MB" !peak ]
  in
  {
    Job.attempted = List.length passes;
    failed = !failed;
    e2e;
    sim =
      [ m "sim_exposed_host_hours" "host-h"
          (List.hd passes).report.CP.cp_exposed_host_hours ];
    layers;
    trace;
  }
