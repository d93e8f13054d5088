(* Control-plane benchmark: a 1k-host fleet split across 4 regional
   sub-controllers, with and without a sub-controller crash in the
   middle of the campaign.  Reports real wall-clock, allocation and
   journal volume for both runs, the recovery overhead (the crashed
   run's extra real time), and pins the headline robustness invariant —
   the crashed run's report and merged journal are byte-identical to
   the undisturbed run's.

   Emits BENCH_controlplane.json (consumed by the control-plane
   fault-sweep CI job). *)

open Bench_util
module CP = Cluster.Controlplane

let hosts = 1_000
let regions = 4
let vms_per_host = 8
let fault_seed = 29L

let config =
  {
    CP.default_config with
    CP.regions;
    hosts_per_region = hosts / regions;
    vms_per_host;
    global_concurrency = 32;
  }

let host_injections =
  [
    { Fault.site = Fault.Host_crash; trigger = Fault.Probability 0.15 };
    { Fault.site = Fault.Host_timeout; trigger = Fault.Probability 0.05 };
    { Fault.site = Fault.Host_flap; trigger = Fault.Probability 0.05 };
  ]

type point = {
  p_label : string;
  p_wall_s : float;  (* real time *)
  p_minor_words : float;
  p_entries : int;  (* journal entries across all regions *)
  p_restarts : int;  (* sub-controller incarnations beyond the first *)
  p_exposed_hh : float;
  p_sim_wall_s : float;
}

let run_once ~label ~extra () =
  let fault = Fault.make ~seed:fault_seed (host_injections @ extra) in
  let metrics = Obs.Metrics.create () in
  let words0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let r, b =
    match CP.run ~fault ~metrics config with
    | CP.Finished (r, b) -> (r, b)
    | CP.Crashed _ ->
      (* Only sub-controller crashes are armed; those are absorbed
         inside the run by heartbeat detection and journal recovery. *)
      assert false
  in
  let wall = Unix.gettimeofday () -. t0 in
  let restarts =
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
      0
      (List.init regions Fun.id)
  in
  ( {
      p_label = label;
      p_wall_s = wall;
      p_minor_words = Gc.minor_words () -. words0;
      p_entries = CP.bundle_length b;
      p_restarts = restarts;
      p_exposed_hh = r.CP.cp_exposed_host_hours;
      p_sim_wall_s = Sim.Time.to_sec_f r.CP.cp_wall_clock;
    },
    CP.summary r,
    CP.merged_to_string b )

let emit points identical =
  write_bench_json ~full:true "BENCH_controlplane.json" (fun oc ->
    Printf.fprintf oc
      "{\n  \"benchmark\": \"controlplane\",\n  \"hosts\": %d,\n  \
       \"regions\": %d,\n  \"vms_per_host\": %d,\n  \
       \"global_concurrency\": %d,\n  \"crash_byte_identical\": %b,\n  \
       \"points\": [\n"
      hosts regions vms_per_host config.CP.global_concurrency identical;
    List.iteri
      (fun i p ->
        Printf.fprintf oc
          "    {\"label\": \"%s\", \"wall_clock_s\": %.3f, \"minor_words\": \
           %.0f, \"entries\": %d, \"subctl_restarts\": %d, \
           \"exposed_host_hours\": %.4f, \"sim_wall_clock_s\": %.3f}%s\n"
          p.p_label p.p_wall_s p.p_minor_words p.p_entries p.p_restarts
          p.p_exposed_hh p.p_sim_wall_s
          (if i = List.length points - 1 then "" else ","))
      points;
    Printf.fprintf oc "  ]\n}\n")

let run () =
  header
    (Printf.sprintf
       "Hierarchical control plane: %d hosts / %d regions, calm vs crashed"
       hosts regions);
  Format.printf "%-10s %-10s %-14s %-9s %-9s %-12s %s@." "run" "wall(s)"
    "minor-words" "entries" "restarts" "exposed-hh" "sim-wall";
  let show p =
    Format.printf "%-10s %-10.3f %-14.0f %-9d %-9d %-12.3f %.1fs@." p.p_label
      p.p_wall_s p.p_minor_words p.p_entries p.p_restarts p.p_exposed_hh
      p.p_sim_wall_s
  in
  let calm, calm_summary, calm_merged = run_once ~label:"calm" ~extra:[] () in
  show calm;
  (* Kill a sub-controller roughly mid-campaign (the calm run journals
     ~2 entries per host, so half the fleet in is halfway through), and
     once more late in the tail. *)
  let crashed, crashed_summary, crashed_merged =
    run_once ~label:"crashed"
      ~extra:
        [ { Fault.site = Fault.Subctl_crash;
            trigger = Fault.Nth_hit (calm.p_entries / 2) };
          { Fault.site = Fault.Subctl_crash;
            trigger = Fault.Nth_hit (calm.p_entries - 50) } ]
      ()
  in
  show crashed;
  let identical =
    calm_summary = crashed_summary && calm_merged = crashed_merged
  in
  if not identical then begin
    Format.eprintf
      "FATAL: crashed control-plane run diverged from the calm run@.";
    exit 1
  end;
  if crashed.p_restarts < 2 then begin
    Format.eprintf "FATAL: the armed sub-controller crashes never fired@.";
    exit 1
  end;
  note "crashed run byte-identical to calm run (%d restarts absorbed)@."
    crashed.p_restarts;
  note "recovery overhead: %+.3fs real (%+.0f%% of calm)@."
    (crashed.p_wall_s -. calm.p_wall_s)
    ((crashed.p_wall_s -. calm.p_wall_s) /. calm.p_wall_s *. 100.0);
  emit [ calm; crashed ] identical
