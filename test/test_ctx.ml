(* Tests for the unified run-context API (Hypertp.Ctx) and for the
   incremental exposure accounting the fleet-scale engines rely on.

   The contract under test: every entry point that accepts [?ctx]
   produces byte-identical reports, traces, metrics and journals
   whether its inputs arrive bundled in a Ctx or through the deprecated
   scattered optional arguments. *)

let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string

let small_vm ?(name = "vm0") ?(mib = 256) () =
  Vmstate.Vm.config ~name ~ram:(Hw.Units.mib mib) ()

let xen_host () =
  Hypertp.Api.provision ~name:"h" ~machine:(Hw.Machine.m1 ())
    ~hv:Hv.Kind.Xen
    [ small_vm (); small_vm ~name:"vm1" () ]

(* --- Ctx construction and resolution --- *)

let test_ctx_builders () =
  let c = Hypertp.Ctx.default in
  checkb "default has no rng" true (c.Hypertp.Ctx.rng = None);
  checkb "default has no fault" true (c.Hypertp.Ctx.fault = None);
  let rng = Sim.Rng.create 7L in
  let c' = Hypertp.Ctx.with_rng rng c in
  checkb "with_rng sets" true (c'.Hypertp.Ctx.rng = Some rng);
  checkb "with_rng leaves options" true
    (c'.Hypertp.Ctx.options == c.Hypertp.Ctx.options);
  (* Explicit optional arguments override the bundled field. *)
  let rng2 = Sim.Rng.create 8L in
  let r = Hypertp.Ctx.resolve ~ctx:c' ~rng:rng2 () in
  checkb "explicit arg wins over ctx" true (r.Hypertp.Ctx.rng = Some rng2);
  let r' = Hypertp.Ctx.resolve ~ctx:c' () in
  checkb "ctx field survives otherwise" true (r'.Hypertp.Ctx.rng = Some rng)

(* --- old-API vs Ctx-API equivalence --- *)

(* A fault plan plus tracer/metrics exercise every Ctx field the
   in-place engine consumes. *)
let inplace_with ~use_ctx () =
  let host = xen_host () in
  let rng = Sim.Rng.create 0xCAFEL in
  let fault =
    Fault.make ~seed:0xF00DL
      [ { Fault.site = Fault.Vm_restore; trigger = Fault.Nth_hit 1 } ]
  in
  let obs = Obs.Tracer.create () in
  let metrics = Obs.Metrics.create () in
  let report =
    if use_ctx then
      let ctx = Hypertp.Ctx.make ~rng ~fault ~obs ~metrics () in
      Hypertp.Api.transplant_inplace ~ctx ~host ~target:Hv.Kind.Kvm ()
    else
      Hypertp.Api.transplant_inplace ~rng ~fault ~obs ~metrics ~host
        ~target:Hv.Kind.Kvm ()
  in
  (report, Obs.Export.chrome_trace obs, Obs.Export.open_metrics metrics)

let test_inplace_ctx_equivalence () =
  let r_old, trace_old, metrics_old = inplace_with ~use_ctx:false () in
  let r_ctx, trace_ctx, metrics_ctx = inplace_with ~use_ctx:true () in
  checkb "same outcome" true
    (r_old.Hypertp.Inplace.outcome = r_ctx.Hypertp.Inplace.outcome);
  checkb "same phases" true
    (r_old.Hypertp.Inplace.phases = r_ctx.Hypertp.Inplace.phases);
  checkb "same checks" true
    (r_old.Hypertp.Inplace.checks = r_ctx.Hypertp.Inplace.checks);
  checks "byte-identical chrome trace" trace_old trace_ctx;
  checks "byte-identical open metrics" metrics_old metrics_ctx

let campaign_with ~use_ctx () =
  let cfg =
    { Cluster.Campaign.default_config with Cluster.Campaign.nodes = 12 }
  in
  let fault =
    Fault.make ~seed:0xBEEFL
      [ { Fault.site = Fault.Host_crash; trigger = Fault.Probability 0.3 } ]
  in
  let metrics = Obs.Metrics.create () in
  let result =
    if use_ctx then
      let ctx = Hypertp.Ctx.make ~fault ~metrics () in
      Cluster.Campaign.run ~ctx cfg
    else Cluster.Campaign.run ~fault ~metrics cfg
  in
  match result with
  | Cluster.Campaign.Finished (r, j) ->
    ( Cluster.Campaign.journal_to_string j,
      r.Cluster.Campaign.exposed_host_hours,
      Obs.Export.open_metrics metrics )
  | Cluster.Campaign.Crashed j ->
    (Cluster.Campaign.journal_to_string j, -1.0, Obs.Export.open_metrics metrics)

let test_campaign_ctx_equivalence () =
  let j_old, e_old, m_old = campaign_with ~use_ctx:false () in
  let j_ctx, e_ctx, m_ctx = campaign_with ~use_ctx:true () in
  checks "byte-identical journal" j_old j_ctx;
  checkb "identical exposure" true (e_old = e_ctx);
  checks "byte-identical metrics" m_old m_ctx

(* --- incremental exposure accounting == recomputed integral --- *)

(* Fleet: the running sum kept as transplants fire must equal the
   integral recomputed from the event log after the fact. *)
let fleet_integral (o : Cluster.Fleet.outcome) =
  let firsts = Hashtbl.create 16 in
  let disclosed = ref Sim.Time.zero in
  Array.iter
    (fun (t, ev) ->
      match ev with
      | Cluster.Fleet.Disclosed _ -> disclosed := t
      | Cluster.Fleet.Host_transplanted { host; _ } ->
        if not (Hashtbl.mem firsts host) then Hashtbl.add firsts host t
      | Cluster.Fleet.Patch_released | Cluster.Fleet.Host_patched _ -> ())
    o.Cluster.Fleet.events;
  Hashtbl.fold
    (fun _ t acc ->
      acc +. (Sim.Time.to_sec_f (Sim.Time.sub t !disclosed) /. 3600.0))
    firsts 0.0

let test_fleet_incremental_exposure_qcheck () =
  let gen =
    QCheck.(
      pair (int_range 2 12)
        (pair (int_range 1 3) (int_range 30 3600)))
  in
  let prop (hosts, (vms_per_host, stagger_s)) =
    let o =
      Cluster.Fleet.simulate
        ~topology:(Cluster.Topology.flat ~hosts ~vms_per_host)
        ~stagger:(Sim.Time.sec stagger_s) ~cve_id:"CVE-2016-6258" ()
    in
    let integral = fleet_integral o in
    if Float.abs (integral -. o.Cluster.Fleet.exposed_host_hours) > 1e-6 then
      QCheck.Test.fail_reportf
        "incremental %.9f <> integral %.9f (hosts=%d stagger=%ds)"
        o.Cluster.Fleet.exposed_host_hours integral hosts stagger_s;
    true
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:30 ~name:"fleet incremental exposure" gen prop)

(* Campaign: the accumulator updated on each host completion must equal
   the per-host fold over the final report. *)
let test_campaign_incremental_exposure_qcheck () =
  let gen =
    QCheck.(pair (int_range 2 30) (pair (int_range 1 4) small_int))
  in
  let prop (nodes, (vms_per_node, seed)) =
    (* The int_range shrinker can step below the range; skip those. *)
    QCheck.assume (nodes >= 2 && vms_per_node >= 1 && seed >= 0);
    let cfg =
      {
        Cluster.Campaign.default_config with
        Cluster.Campaign.nodes;
        vms_per_node;
        seed = Int64.of_int seed;
      }
    in
    let fault =
      Fault.make
        ~seed:(Int64.of_int (seed + 1))
        [ { Fault.site = Fault.Host_crash; trigger = Fault.Probability 0.3 } ]
    in
    let r = Cluster.Campaign.run_to_completion ~fault cfg in
    let folded =
      List.fold_left
        (fun acc h -> acc +. h.Cluster.Campaign.hr_exposure_hours)
        0.0 r.Cluster.Campaign.hosts
    in
    if Float.abs (folded -. r.Cluster.Campaign.exposed_host_hours) > 1e-6 then
      QCheck.Test.fail_reportf
        "incremental %.9f <> fold %.9f (nodes=%d seed=%d)"
        r.Cluster.Campaign.exposed_host_hours folded nodes seed;
    true
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:25 ~name:"campaign incremental exposure" gen prop)

(* --- fleet-scale determinism --- *)

let test_large_campaign_deterministic () =
  let cfg =
    {
      Cluster.Campaign.default_config with
      Cluster.Campaign.nodes = 1000;
      vms_per_node = 8;
    }
  in
  let snap () =
    match Cluster.Campaign.run cfg with
    | Cluster.Campaign.Finished (r, j) ->
      ( Cluster.Campaign.journal_to_string j,
        r.Cluster.Campaign.exposed_host_hours,
        r.Cluster.Campaign.wall_clock )
    | Cluster.Campaign.Crashed _ -> Alcotest.fail "no fault plan: cannot crash"
  in
  let j1, e1, w1 = snap () in
  let j2, e2, w2 = snap () in
  checks "identical 1k-host journal" j1 j2;
  checkb "identical exposure" true (e1 = e2);
  checkb "identical wall clock" true (w1 = w2)

let suites =
  [
    ( "ctx.api",
      [
        Alcotest.test_case "builders and resolve" `Quick test_ctx_builders;
        Alcotest.test_case "inplace equivalence" `Quick
          test_inplace_ctx_equivalence;
        Alcotest.test_case "campaign equivalence" `Quick
          test_campaign_ctx_equivalence;
      ] );
    ( "ctx.exposure",
      [
        Alcotest.test_case "fleet incremental (qcheck)" `Slow
          test_fleet_incremental_exposure_qcheck;
        Alcotest.test_case "campaign incremental (qcheck)" `Slow
          test_campaign_incremental_exposure_qcheck;
        Alcotest.test_case "1k-host determinism" `Slow
          test_large_campaign_deterministic;
      ] );
  ]
