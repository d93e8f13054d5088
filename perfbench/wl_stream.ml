(* Workload cve-stream: [Stream.Service] on 10k hosts x 5 virtual
   years at 30 CVEs per year and tempo 2000, the cost-aware and
   transplant-all policies served in turn.  Each policy run takes one
   [controller_crash] midway, its journal goes through a text round
   trip, and [Service.resume] finishes it.

   The campaign layer is used as the stream's pricing backend: hundreds
   of mid-size [Campaign] runs rather than one huge sharded one.  The
   CVE stream itself is the one the committed cvestream benchmark
   serves (seed 0x5EED): a Poisson stream redrawn per seed would swing
   the amount of work by tens of percent between seeds.  The seed picks
   where each policy run crashes, and so how much journal is replayed. *)

open Meter

let policies = [ Stream.Policy.Cost_aware; Stream.Policy.Transplant_all ]

let config (job : Job.t) policy =
  let hosts, years =
    match job.Job.size with Job.Full -> (10_000, 5.0) | Job.Tiny -> (400, 1.0)
  in
  {
    Stream.Service.default_config with
    Stream.Service.mix =
      { Stream.Service.xen_hosts = hosts / 2; kvm_hosts = hosts / 2;
        bhyve_hosts = 0 };
    vms_per_host = 8;
    years;
    rate_per_year = 30.0;
    tempo = 2000.0;
    concurrency = 64;
    policy;
    seed = 0x5EEDL;
  }

let host_years (c : Stream.Service.config) =
  float_of_int (c.mix.xen_hosts + c.mix.kvm_hosts + c.mix.bhyve_hosts)
  *. c.years

let name p = Stream.Policy.kind_to_string p

(* The crash lands on a seeded journal append between 45% and 55% of
   the uninterrupted run's journal.  A resume replays the prefix, so the
   crash point moves the work of a serve; the band keeps that small. *)
let crash_plan (job : Job.t) rng policy =
  let u = 0.45 +. Sim.Rng.float rng 0.1 in
  match Job.stored_int ~slot:0 job (name policy ^ ".entries") with
  | Some n ->
    Some
      (Fault.make
         [ { Fault.site = Fault.Controller_crash;
             trigger = Fault.Nth_hit (Stdlib.max 1 (int_of_float (u *. float_of_int n))) } ])
  | None -> None

type serve = {
  report : Stream.Service.report;
  run_s : float;
  resume_s : float;
  to_string_s : float;
  of_string_s : float;
  s : sample;  (* the whole serve: run, journal round trip, resume *)
}

exception Unexpected of string

(* One policy served through a crash: run until the controller dies,
   write the journal out and read it back, resume to the end. *)
let serve cfg fault =
  settle ();
  let parts = ref (0.0, 0.0, 0.0, 0.0) in
  let report, s =
    timed (fun () ->
        let crashed, run =
          timed (fun () ->
              span ~layer:"stream" "Stream.Service.run" (fun () ->
                  Stream.Service.run ~fault cfg))
        in
        let journal =
          match crashed with
          | Stream.Service.Crashed j -> j
          | Stream.Service.Finished _ -> raise (Unexpected "no crash")
        in
        let text, w =
          timed (fun () ->
              span ~layer:"stream" "Stream.Service.journal_to_string"
                (fun () -> Stream.Service.journal_to_string journal))
        in
        let journal, r =
          timed (fun () ->
              span ~layer:"stream" "Stream.Service.journal_of_string"
                (fun () -> Stream.Service.journal_of_string text))
        in
        let journal =
          match journal with Ok j -> j | Error e -> raise (Unexpected e)
        in
        let finished, res =
          timed (fun () ->
              span ~layer:"stream" "Stream.Service.resume" (fun () ->
                  Stream.Service.resume ~fault journal))
        in
        parts := (run.secs, res.secs, w.secs, r.secs);
        match finished with
        | Stream.Service.Finished (report, _) -> report
        | Stream.Service.Crashed _ -> raise (Unexpected "crashed twice"))
  in
  let run_s, resume_s, to_string_s, of_string_s = !parts in
  { report; run_s; resume_s; to_string_s; of_string_s; s }

(* The uninterrupted run, recorded as the reference.  The stream is the
   same in every slot, so its references live under slot 0. *)
let record (job : Job.t) =
  List.iter
    (fun p ->
      let r, j = Stream.Service.run_to_completion (config job p) in
      ignore
        (Job.check ~slot:0 job (name p ^ ".entries")
           (string_of_int (Stream.Service.journal_length j)));
      ignore
        (Job.check ~slot:0 job (name p ^ ".report")
           (Refs.digest (Stream.Service.report_to_string r))))
    policies

let inputs (job : Job.t) =
  let rng = Job.rng job ~salt:0x5EED in
  List.map
    (fun p ->
      match crash_plan job rng p with
      | Some fault -> (p, config job p, fault)
      | None -> raise (Unexpected ("no stored journal length for " ^ name p)))
    policies

(* Both policies served once, each checked against its reference. *)
let pass (job : Job.t) inputs failed =
  List.map
    (fun (p, cfg, fault) ->
      (* A plan counts its hits: every serve starts from a fresh copy. *)
      let sv = serve cfg (Fault.restart fault) in
      if not
           (Job.check ~slot:0 job (name p ^ ".report")
              (Refs.digest (Stream.Service.report_to_string sv.report)))
      then incr failed;
      sv)
    inputs

(* The stream layer's metrics from one pass, plus one standalone
   campaign at population size, configured as the service configures
   its backend. *)
let layer_metrics (job : Job.t) serves =
  let cfg = config job Stream.Policy.Cost_aware in
  let camp =
    { Cluster.Campaign.default_config with
      Cluster.Campaign.nodes = cfg.mix.xen_hosts;
      vms_per_node = cfg.vms_per_host;
      vm_ram = Hw.Units.gib 1;
      node_ram = Hw.Units.gib (Stdlib.max 8 (4 * cfg.vms_per_host));
      concurrency = cfg.concurrency;
      jitter_pct = 0.02 }
  in
  let episode_s =
    median
      (List.init 3 (fun _ ->
           settle ();
           (snd
              (timed (fun () ->
                   span ~layer:"campaign" "Cluster.Campaign.run_to_completion"
                     (fun () -> Cluster.Campaign.run_to_completion camp))))
             .secs))
  in
  let total f = sum (List.map f serves) in
  let count f =
    float_of_int (List.fold_left (fun a x -> a + f x.report) 0 serves)
  in
  let episodes = count (fun r -> r.Stream.Service.episodes) in
  [ m "stream.run_s" "s" (total (fun x -> x.run_s));
    m "stream.resume_s" "s" (total (fun x -> x.resume_s));
    m "stream.journal_entries" "count"
      (count (fun r -> r.Stream.Service.journal_entries));
    m "stream.journal_to_string_ms" "ms"
      (1000.0 *. total (fun x -> x.to_string_s));
    m "stream.journal_of_string_ms" "ms"
      (1000.0 *. total (fun x -> x.of_string_s));
    m "stream.episodes" "count" episodes;
    m "stream.campaigns" "count" (count (fun r -> r.Stream.Service.campaigns));
    m "stream.preemptions" "count"
      (count (fun r -> r.Stream.Service.preemptions));
    m "campaign.episode_ms" "ms" (1000.0 *. episode_s);
    m "stream.campaign_share_est" "ratio"
      (episodes *. episode_s /. total (fun x -> x.s.secs)) ]

(* One pass measured for its layer metrics alone, inside another
   workload's traced run: the metrics, the serves attempted and the
   serves that failed their check. *)
let layers (job : Job.t) =
  let failed = ref 0 in
  let serves = pass job (inputs job) failed in
  (layer_metrics job serves, List.length serves, !failed)

let run (job : Job.t) =
  if Refs.recording job.Job.refs then record job;
  let setup_s =
    let rng = Job.rng job ~salt:0x5EED in
    setup_seconds (fun () ->
        List.map (fun p -> (config job p, crash_plan job rng p)) policies)
  in
  let inputs = inputs job in
  let rounds = ref [] and failed = ref 0 and peak = ref 0.0 in
  let layers, trace =
    if not job.Job.traced then begin
      peak :=
        Job.rounds job (fun _ ->
            rounds := pass job inputs failed :: !rounds);
      ([], None)
    end
    else begin
      let base = pass job inputs failed in
      start_tracing ();
      let g0 = gc () in
      let traced = pass job inputs failed in
      let g1 = gc () in
      peak := top_heap_mb ();
      rounds := [ traced; base ];
      let secs l = sum (List.map (fun x -> x.s.secs) l) in
      ( layer_metrics job traced
        @ [ m "trace.overhead_pct" "%"
              (100.0 *. (secs traced -. secs base) /. secs base) ]
        @ gc_metrics g0 g1,
        stop_tracing () )
    end
  in
  let rounds = List.rev !rounds in
  let serves = List.concat rounds in
  let units =
    sum (List.map (fun x -> host_years x.report.Stream.Service.r_config) serves)
  in
  let per_unit f = sum (List.map f serves) /. units in
  let e2e =
    (m "setup_s" "s" setup_s
    :: op_metrics
         ~units_per_round:(units /. float_of_int (List.length rounds))
         (List.map (List.map (fun x -> x.s.secs)) rounds))
    @ [ m "minor_words_per_unit" "words/unit" (per_unit (fun x -> x.s.minor_words));
      m "major_words_per_unit" "words/unit" (per_unit (fun x -> x.s.major_words));
      m "peak_heap_mb" "MB" !peak ]
  in
  {
    Job.attempted = List.length serves;
    failed = !failed;
    e2e;
    sim =
      [ m "sim_exposed_host_hours" "host-h"
          (sum
             (List.filteri
                (fun i _ -> i < List.length policies)
                (List.map (fun x -> x.report.Stream.Service.exposed_host_hours) serves))) ];
    layers;
    trace;
  }
