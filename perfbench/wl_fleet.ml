(* Workloads fleet-64k and fleet-1m: [Campaign.run_fleet] over
   [Topology.uniform] with 64 regions, 64,000 or 1,000,000 hosts and 8
   VMs per host, sharded [parallel:64xD] with D = min 2 nproc.

   Per-host campaign settle work, [Sim.Shard] and the GC do all of the
   work; the substrate and the engines do none.  The seed picks the
   campaign seed (per-host jitter and flaky-fallback coins), so every
   slot is a different fleet with the same shape.

   fleet-64k is the one whose timing holds steady on a shared box: its
   calls take a fraction of a second, so a run makes a hundred of them,
   and its heap stays near the caches.  A fleet-1m call takes seconds
   against a heap of hundreds of MB, and on a box whose memory system is
   shared with other tenants the same call swings by a fifth from one
   minute to the next.

   The traced run also measures the other two users of the campaign
   layer, [Stream.Service] and [Controlplane], once each at the sizes of
   the [cve-stream] and [controlplane] workloads, so that their layer
   metrics come from the benchmark's declared workloads. *)

open Meter

let shape (job : Job.t) =
  match (job.Job.size, job.Job.workload) with
  | Job.Full, "fleet-1m" -> (64, 1_000_000)
  | Job.Full, _ -> (64, 64_000)
  | Job.Tiny, _ -> (4, 2_000)

let vms_per_host = 8

let domains () = Stdlib.max 1 (Stdlib.min 2 (Domain.recommended_domain_count ()))

type inputs = {
  topology : Cluster.Topology.t;
  config : Cluster.Campaign.config;
  mode : Sim.Shard.mode;
}

let inputs (job : Job.t) =
  let regions, hosts = shape job in
  let rng = Job.rng job ~salt:0xF1EE7 in
  let topology =
    Cluster.Topology.validate_exn
      (Cluster.Topology.uniform ~regions ~hosts ~vms_per_host ())
  in
  { topology;
    config = { Cluster.Campaign.default_config with seed = Sim.Rng.int64 rng };
    mode = Sim.Shard.Parallel { shards = regions; domains = domains () } }

let run_fleet inp mode =
  span ~layer:"campaign" "Cluster.Campaign.run_fleet" (fun () ->
      Cluster.Campaign.run_fleet ~sharding:mode ~topology:inp.topology
        inp.config)

(* What a call leaves behind once its report is dropped: a million-host
   report is large, and keeping several would inflate the heap peak. *)
type call = { s : sample; f_minor : float; exposed : float; digest : int }

let call inp mode =
  settle ();
  let fr, s = timed (fun () -> run_fleet inp mode) in
  ( fr,
    { s; f_minor = fr.Cluster.Campaign.f_minor_words;
      exposed = fr.Cluster.Campaign.f_exposed_host_hours;
      digest = Cluster.Campaign.fleet_digest fr } )

(* The traced parallel call, and what the layer metrics need from its
   report; the report itself is dropped on return, before the [seq]
   re-run allocates another. *)
let traced_call inp =
  let fr, c = call inp inp.mode in
  let _, to_string =
    timed (fun () ->
        span ~layer:"campaign" "Cluster.Campaign.fleet_journals_to_string"
          (fun () -> String.length (Cluster.Campaign.fleet_journals_to_string fr)))
  in
  let events =
    Array.fold_left
      (fun a s -> a + s.Cluster.Campaign.s_events)
      0 fr.Cluster.Campaign.f_summaries
  in
  (c, events, fr.Cluster.Campaign.f_domains, to_string)

let run (job : Job.t) =
  let setup_s = setup_seconds (fun () -> inputs job) in
  let inp = inputs job in
  let hosts = float_of_int (Cluster.Topology.hosts inp.topology) in
  let failed = ref 0 in
  let ok c = Job.check job "fleet_digest" (Printf.sprintf "%x" c.digest) in
  let correct c = if not (ok c) then incr failed in
  let calls = ref [] and peak = ref 0.0 and extra = ref 0 in
  let layers, trace =
    if not job.Job.traced then begin
      peak :=
        Job.rounds job (fun _ ->
            let _, c = call inp inp.mode in
            correct c;
            calls := c :: !calls);
      ([], None)
    end
    else begin
      let _, base = call inp inp.mode in
      correct base;
      start_tracing ();
      let g0 = gc () in
      let traced, events, domains, to_string = traced_call inp in
      let gc_layer = gc_metrics g0 (gc ()) in
      peak := top_heap_mb ();
      correct traced;
      let _, seq = call inp Sim.Shard.Sequential in
      (* The schedule may only trade host time, never results. *)
      if not (ok seq && seq.digest = traced.digest) then incr failed;
      calls := [ traced; base ];
      let others =
        List.map
          (fun (workload, layers) ->
            let metrics, n, f = layers { job with Job.workload } in
            extra := !extra + n;
            failed := !failed + f;
            metrics)
          [ ("cve-stream", Wl_stream.layers);
            ("controlplane", Wl_controlplane.layers) ]
      in
      ( [ m "campaign.run_fleet_s" "s" traced.s.secs;
          m "campaign.journal_entries" "count" (float_of_int events);
          m "campaign.minor_words_per_host" "words/host"
            (traced.f_minor /. hosts);
          m "campaign.fleet_journals_to_string_s" "s" to_string.secs;
          m "shard.seq_s" "s" seq.s.secs;
          m "shard.speedup" "x" (seq.s.secs /. traced.s.secs);
          m "shard.domains" "count" (float_of_int domains);
          m "trace.overhead_pct" "%"
            (100.0 *. (traced.s.secs -. base.s.secs) /. base.s.secs) ]
        @ gc_layer @ List.concat others,
        stop_tracing () )
    end
  in
  let calls = List.rev !calls in
  (* Minor words come from the shard tasks themselves (the fleet
     report's own count), major words from the process-wide counter. *)
  let e2e =
    (m "setup_s" "s" setup_s
    :: op_metrics ~units_per_round:hosts
         (List.map (fun c -> [ c.s.secs ]) calls))
    @ [ m "minor_words_per_unit" "words/unit"
        (median (List.map (fun c -> c.f_minor) calls) /. hosts);
      m "major_words_per_unit" "words/unit"
        (median (List.map (fun c -> c.s.major_words) calls) /. hosts);
      m "peak_heap_mb" "MB" !peak ]
  in
  {
    Job.attempted =
      List.length calls + (if job.Job.traced then 1 + !extra else 0);
    failed = !failed;
    e2e;
    sim =
      [ m "sim_exposed_host_hours" "host-h" (List.hd calls).exposed ];
    layers;
    trace;
  }
