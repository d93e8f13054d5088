(* Tests for the observability subsystem: span tracer, metrics
   registry, exporters, and the engine instrumentation — in particular
   the reconciliation property that [Phases.of_trace] over an engine's
   span tree equals the hand-accumulated phase record exactly. *)

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg
let checks = Alcotest.check Alcotest.string

let small_vm ?(name = "vm0") ?(mib = 256) ?(workload = Vmstate.Vm.Wl_idle) () =
  Vmstate.Vm.config ~name ~vcpus:1 ~ram:(Hw.Units.mib mib) ~workload
    ~inplace_compatible:true ()

let xen_host ?(vms = [ small_vm () ]) () =
  Hypertp.Api.provision ~name:"h" ~machine:(Hw.Machine.m1 ()) ~hv:Hv.Kind.Xen
    vms

let kvm_host ?(name = "dst") () =
  Hypertp.Api.provision ~name ~machine:(Hw.Machine.m1 ()) ~hv:Hv.Kind.Kvm []

(* --- Tracer --- *)

let test_tracer_nesting () =
  let tr = Obs.Tracer.create () in
  let root = Obs.Tracer.start tr ~at:Sim.Time.zero ~track:"a" "root" in
  let child =
    Obs.Tracer.start tr ~at:(Sim.Time.ms 10) ~parent:root ~track:"a" "child"
  in
  Obs.Tracer.finish tr child ~at:(Sim.Time.ms 20);
  Obs.Tracer.finish tr root ~at:(Sim.Time.ms 30);
  checki "two spans" 2 (Obs.Tracer.count tr);
  match Obs.Tracer.spans tr with
  | [ r; c ] ->
    checks "oldest first" "root" (Obs.Span.name r);
    checkb "child parented" true (Obs.Span.parent c = Some (Obs.Span.id r));
    checkb "root has no parent" true (Obs.Span.parent r = None);
    checkb "child duration" true
      (Obs.Span.duration c = Some (Sim.Time.ms 10));
    checkb "root still longer" true
      (Obs.Span.duration r = Some (Sim.Time.ms 30))
  | _ -> Alcotest.fail "expected exactly two spans"

let test_tracer_ring_buffer () =
  let tr = Obs.Tracer.create ~capacity:4 () in
  for i = 1 to 6 do
    let s =
      Obs.Tracer.start tr ~at:(Sim.Time.ms i) (Printf.sprintf "s%d" i)
    in
    Obs.Tracer.finish tr s ~at:(Sim.Time.ms (i + 1))
  done;
  checki "bounded" 4 (Obs.Tracer.count tr);
  checki "capacity" 4 (Obs.Tracer.capacity tr);
  checki "dropped" 2 (Obs.Tracer.dropped tr);
  checks "oldest survivor is s3" "s3"
    (Obs.Span.name (List.hd (Obs.Tracer.spans tr)))

let test_tracer_hook () =
  let tr = Obs.Tracer.create () in
  let log = ref [] in
  Obs.Tracer.set_hook tr (fun dir sp _at ->
      log := (dir, Obs.Span.name sp) :: !log);
  let s = Obs.Tracer.start tr ~at:Sim.Time.zero "work" in
  Obs.Tracer.finish tr s ~at:(Sim.Time.ms 5);
  Obs.Tracer.instant tr ~at:(Sim.Time.ms 6) "blip";
  checkb "open/close/instant routed" true
    (List.rev !log
    = [ (`Open, "work"); (`Close, "work"); (`Open, "blip") ]);
  Obs.Tracer.clear_hook tr;
  Obs.Tracer.instant tr ~at:(Sim.Time.ms 7) "silent";
  checki "hook cleared" 3 (List.length !log)

let test_tracer_finish_before_start_rejected () =
  let tr = Obs.Tracer.create () in
  let s = Obs.Tracer.start tr ~at:(Sim.Time.ms 10) "s" in
  Alcotest.check_raises "backwards finish"
    (Invalid_argument "Span.finish: stop before start: s") (fun () ->
      Obs.Tracer.finish tr s ~at:(Sim.Time.ms 5))

(* --- Metrics --- *)

let test_metrics_counter_identity () =
  let m = Obs.Metrics.create () in
  let a = Obs.Metrics.counter m ~labels:[ ("k", "v") ] "c" in
  let b = Obs.Metrics.counter m ~labels:[ ("k", "v") ] "c" in
  let other = Obs.Metrics.counter m ~labels:[ ("k", "w") ] "c" in
  Obs.Metrics.inc a;
  Obs.Metrics.inc ~by:2.0 b;
  checkf "same (name,labels) shares state" 3.0 (Obs.Metrics.value a);
  checkf "different labels independent" 0.0 (Obs.Metrics.value other)

let test_metrics_gauge () =
  let m = Obs.Metrics.create () in
  let g = Obs.Metrics.gauge m "g" in
  Obs.Metrics.set g 4.5;
  Obs.Metrics.set g 2.5;
  checkf "last write wins" 2.5 (Obs.Metrics.value g)

let test_metrics_kind_mismatch () =
  let m = Obs.Metrics.create () in
  ignore (Obs.Metrics.counter m "x");
  Alcotest.check_raises "kind clash"
    (Invalid_argument "Metrics: x already registered as a counter") (fun () ->
      ignore (Obs.Metrics.gauge m "x"))

let test_histogram_bucket_boundaries () =
  (* Upper-bound inclusive: a value equal to a bound lands in that
     bucket, the first value strictly above goes to the next. *)
  let m = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram m ~buckets:[ 1.0; 2.0; 5.0 ] "h" in
  checki "below first bound" 0 (Obs.Metrics.bucket_index h 0.5);
  checki "exactly on bound -> that bucket" 0 (Obs.Metrics.bucket_index h 1.0);
  checki "just above" 1 (Obs.Metrics.bucket_index h 1.0000001);
  checki "on second bound" 1 (Obs.Metrics.bucket_index h 2.0);
  checki "mid" 2 (Obs.Metrics.bucket_index h 2.5);
  checki "overflow" 3 (Obs.Metrics.bucket_index h 6.0);
  List.iter (Obs.Metrics.observe h) [ 0.5; 1.0; 2.0; 6.0 ];
  checkb "per-bucket counts" true
    (Obs.Metrics.bucket_counts h = [ 2; 1; 0; 1 ]);
  checki "observations" 4 (Obs.Metrics.observations h);
  checkf "sum" 9.5 (Obs.Metrics.sum h)

let test_histogram_bad_buckets () =
  let m = Obs.Metrics.create () in
  Alcotest.check_raises "non-increasing"
    (Invalid_argument "Metrics: histogram buckets must be strictly increasing")
    (fun () ->
      ignore (Obs.Metrics.histogram m ~buckets:[ 1.0; 1.0 ] "bad"))

let test_histogram_summary () =
  let m = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram m ~buckets:[ 10.0 ] "s" in
  checkb "no samples, no summary" true (Obs.Metrics.summary h = None);
  List.iter (Obs.Metrics.observe h) [ 1.0; 2.0; 3.0; 4.0 ];
  match Obs.Metrics.summary h with
  | None -> Alcotest.fail "summary expected"
  | Some s -> checkf "mean" 2.5 s.Sim.Stats.mean

(* --- Exporters --- *)

let contains hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec go i =
    i + nl <= hl && (String.sub hay i nl = needle || go (i + 1))
  in
  go 0

let test_open_metrics_format () =
  let m = Obs.Metrics.create () in
  let c = Obs.Metrics.counter m ~labels:[ ("engine", "inplace") ] "t_total" in
  Obs.Metrics.inc ~by:3.0 c;
  let h = Obs.Metrics.histogram m ~buckets:[ 1.0; 2.0 ] "d_seconds" in
  Obs.Metrics.observe h 1.5;
  let out = Obs.Export.open_metrics m in
  checkb "counter TYPE" true (contains out "# TYPE t_total counter");
  checkb "labelled sample" true
    (contains out "t_total{engine=\"inplace\"} 3");
  checkb "histogram TYPE" true (contains out "# TYPE d_seconds histogram");
  checkb "cumulative le buckets" true
    (contains out "d_seconds_bucket{le=\"1\"} 0"
    && contains out "d_seconds_bucket{le=\"2\"} 1"
    && contains out "d_seconds_bucket{le=\"+Inf\"} 1");
  checkb "sum and count" true
    (contains out "d_seconds_sum 1.5" && contains out "d_seconds_count 1");
  checkb "terminated" true (contains out "# EOF\n")

let test_chrome_trace_format () =
  let tr = Obs.Tracer.create () in
  let s =
    Obs.Tracer.start tr ~at:(Sim.Time.us 1500) ~track:"main"
      ~attrs:[ ("k", "v") ] "work"
  in
  Obs.Tracer.finish tr s ~at:(Sim.Time.us 2500);
  Obs.Tracer.instant tr ~at:(Sim.Time.us 3000) "blip";
  let out = Obs.Export.chrome_trace tr in
  checkb "complete event" true (contains out "\"ph\":\"X\"");
  checkb "instant event" true (contains out "\"ph\":\"i\"");
  checkb "us timestamps" true (contains out "\"ts\":1500.000");
  checkb "duration" true (contains out "\"dur\":1000.000");
  checkb "args carried" true (contains out "\"k\":\"v\"");
  checkb "thread metadata" true (contains out "\"thread_name\"")

(* --- Engine reconciliation: InPlaceTP --- *)

let phases_equal a b =
  let open Hypertp.Phases in
  Sim.Time.equal a.pram b.pram
  && Sim.Time.equal a.translation b.translation
  && Sim.Time.equal a.reboot b.reboot
  && Sim.Time.equal a.restoration b.restoration
  && Sim.Time.equal a.recovery b.recovery
  && Sim.Time.equal a.network b.network

let traced_inplace ?fault ~vms () =
  let host = xen_host ~vms () in
  let tr = Obs.Tracer.create () in
  let m = Obs.Metrics.create () in
  let r =
    Hypertp.Api.transplant_inplace ?fault ~obs:tr ~metrics:m ~host
      ~target:Hv.Kind.Kvm ()
  in
  (r, tr, m)

let test_inplace_reconciles_fault_free () =
  let r, tr, m =
    traced_inplace ~vms:[ small_vm (); small_vm ~name:"vm1" () ] ()
  in
  checkb "committed" true (r.Hypertp.Inplace.outcome = Hypertp.Inplace.Committed);
  let derived = Hypertp.Phases.of_trace (Obs.Tracer.spans tr) in
  checkb "phases reconcile exactly" true
    (phases_equal derived r.Hypertp.Inplace.phases);
  checkb "downtime reconciles exactly" true
    (Sim.Time.equal
       (Hypertp.Phases.downtime derived)
       (Hypertp.Phases.downtime r.Hypertp.Inplace.phases));
  (* Per-VM restore spans ride on their own tracks. *)
  let restores =
    List.filter
      (fun s ->
        String.length (Obs.Span.name s) >= 8
        && String.sub (Obs.Span.name s) 0 8 = "restore:")
      (Obs.Tracer.spans tr)
  in
  checki "one restore span per VM" 2 (List.length restores);
  checkf "transplant counted" 1.0
    (Obs.Metrics.value
       (Obs.Metrics.counter m
          ~labels:[ ("engine", "inplace"); ("outcome", "committed") ]
          "hypertp_transplants_total"))

let test_inplace_reconciles_faulty () =
  List.iter
    (fun site ->
      let fault =
        Fault.make ~seed:7L [ { Fault.site; trigger = Fault.Nth_hit 1 } ]
      in
      let r, tr, _ = traced_inplace ~fault ~vms:[ small_vm () ] () in
      checkb "recovered" true
        (match r.Hypertp.Inplace.outcome with
        | Hypertp.Inplace.Recovered _ -> true
        | _ -> false);
      let derived = Hypertp.Phases.of_trace (Obs.Tracer.spans tr) in
      checkb "faulty phases reconcile exactly" true
        (phases_equal derived r.Hypertp.Inplace.phases);
      checkb "recovery phase non-zero" true
        Sim.Time.(Sim.Time.zero < derived.Hypertp.Phases.recovery);
      (* The recovery ladder shows up as rung spans. *)
      checkb "rung span present" true
        (List.exists
           (fun s ->
             String.length (Obs.Span.name s) >= 5
             && String.sub (Obs.Span.name s) 0 5 = "rung:")
           (Obs.Tracer.spans tr)))
    [ Fault.Vm_restore; Fault.Uisr_corrupt ]

let test_inplace_reconciles_rollback () =
  let fault =
    Fault.make ~seed:3L
      [ { Fault.site = Fault.Kexec_load; trigger = Fault.Nth_hit 1 } ]
  in
  let r, tr, m = traced_inplace ~fault ~vms:[ small_vm () ] () in
  checkb "rolled back" true
    (match r.Hypertp.Inplace.outcome with
    | Hypertp.Inplace.Rolled_back Fault.Kexec_load -> true
    | _ -> false);
  let derived = Hypertp.Phases.of_trace (Obs.Tracer.spans tr) in
  checkb "rollback phases reconcile exactly" true
    (phases_equal derived r.Hypertp.Inplace.phases);
  checkf "fault counted at its site" 1.0
    (Obs.Metrics.value
       (Obs.Metrics.counter m
          ~labels:[ ("engine", "inplace"); ("site", "kexec_load") ]
          "hypertp_faults_total"));
  checkf "rollback outcome counted" 1.0
    (Obs.Metrics.value
       (Obs.Metrics.counter m
          ~labels:[ ("engine", "inplace"); ("outcome", "rolled_back") ]
          "hypertp_transplants_total"))

let test_chrome_trace_deterministic () =
  let export () =
    let _, tr, _ = traced_inplace ~vms:[ small_vm (); small_vm ~name:"vm1" () ] () in
    Obs.Export.chrome_trace tr
  in
  checkb "byte-identical across same-seed runs" true (export () = export ())

let test_open_metrics_deterministic () =
  let export () =
    let _, _, m = traced_inplace ~vms:[ small_vm () ] () in
    Obs.Export.open_metrics m
  in
  checkb "byte-identical across same-seed runs" true (export () = export ())

(* --- Engine reconciliation: MigrationTP --- *)

let test_migrate_span_extent_and_counters () =
  let src = xen_host ~vms:[ small_vm ~mib:512 () ] () in
  let dst = kvm_host () in
  let tr = Obs.Tracer.create () in
  let m = Obs.Metrics.create () in
  let r =
    Hypertp.Api.transplant_migration ~obs:tr ~metrics:m ~src ~dst ()
  in
  let v = List.hd r.Hypertp.Migrate.per_vm in
  let root =
    List.find
      (fun s -> Obs.Span.name s = "migrate:vm0")
      (Obs.Tracer.spans tr)
  in
  checkb "root span extent = total_time" true
    (Obs.Span.duration root = Some v.Hypertp.Migrate.total_time);
  checkb "per-round children present" true
    (List.exists (fun s -> Obs.Span.name s = "round") (Obs.Tracer.spans tr));
  checkf "migration counted" 1.0
    (Obs.Metrics.value
       (Obs.Metrics.counter m
          ~labels:[ ("engine", "migrate"); ("outcome", "completed") ]
          "hypertp_migrations_total"));
  checkf "no retries" 0.0
    (Obs.Metrics.value
       (Obs.Metrics.counter m ~labels:[ ("engine", "migrate") ]
          "hypertp_migration_retries_total"));
  checkb "wire bytes counted" true
    (Obs.Metrics.value
       (Obs.Metrics.counter m ~labels:[ ("engine", "migrate") ]
          "hypertp_wire_bytes_total")
    > 0.0)

let test_migrate_retry_instrumentation () =
  let src = xen_host ~vms:[ small_vm ~mib:512 () ] () in
  let dst = kvm_host () in
  let fault =
    Fault.make
      [ { Fault.site = Fault.Migration_link_drop;
          trigger = Fault.Nth_hit 1 } ]
  in
  let tr = Obs.Tracer.create () in
  let m = Obs.Metrics.create () in
  let r =
    Hypertp.Api.transplant_migration ~fault ~obs:tr ~metrics:m ~src ~dst ()
  in
  let v = List.hd r.Hypertp.Migrate.per_vm in
  checkb "completed after retry" true
    (match v.Hypertp.Migrate.outcome with
    | Hypertp.Migrate.Completed_after_retries 1 -> true
    | _ -> false);
  checkf "retry counted" 1.0
    (Obs.Metrics.value
       (Obs.Metrics.counter m ~labels:[ ("engine", "migrate") ]
          "hypertp_migration_retries_total"));
  checkb "dropped attempt + backoff spans" true
    (List.exists
       (fun s -> Obs.Span.name s = "precopy_attempt")
       (Obs.Tracer.spans tr)
    && List.exists (fun s -> Obs.Span.name s = "backoff") (Obs.Tracer.spans tr));
  let root =
    List.find
      (fun s -> Obs.Span.name s = "migrate:vm0")
      (Obs.Tracer.spans tr)
  in
  checkb "root extent still = total_time" true
    (Obs.Span.duration root = Some v.Hypertp.Migrate.total_time)

(* --- Campaign instrumentation --- *)

module C = Cluster.Campaign

let attempt_spans tr =
  List.filter
    (fun s ->
      String.length (Obs.Span.name s) >= 8
      && String.sub (Obs.Span.name s) 0 8 = "attempt:")
    (Obs.Tracer.spans tr)

let test_campaign_timeline () =
  let tr = Obs.Tracer.create () in
  let m = Obs.Metrics.create () in
  (match C.run ~obs:tr ~metrics:m C.default_config with
  | C.Finished (r, _) ->
    checki "one attempt span per host" (List.length r.C.hosts)
      (List.length (attempt_spans tr));
    checkb "all attempts closed with result" true
      (List.for_all
         (fun s ->
           Obs.Span.stop s <> None
           && List.mem_assoc "result" (Obs.Span.attrs s))
         (attempt_spans tr));
    let root =
      List.find (fun s -> Obs.Span.name s = "campaign") (Obs.Tracer.spans tr)
    in
    checkb "root span covers the wall clock minus rebalance" true
      (Obs.Span.duration root
      = Some (Sim.Time.sub r.C.wall_clock r.C.rebalance_time));
    checkb "journal checkpoints traced" true
      (List.exists
         (fun s -> Obs.Span.name s = "journal:checkpoint")
         (Obs.Tracer.spans tr));
    checkf "attempts counted" 10.0
      (Obs.Metrics.value
         (Obs.Metrics.counter m
            ~labels:[ ("engine", "campaign"); ("step", "inplace") ]
            "hypertp_campaign_attempts_total"));
    checkf "gauge settles at zero" 0.0
      (Obs.Metrics.value
         (Obs.Metrics.gauge m ~labels:[ ("engine", "campaign") ]
            "hypertp_campaign_running"))
  | C.Crashed _ -> Alcotest.fail "clean campaign crashed")

let test_campaign_resume_reemits_timeline () =
  let fault () =
    Fault.make ~seed:11L
      [ { Fault.site = Fault.Controller_crash; trigger = Fault.Nth_hit 4 } ]
  in
  let j =
    match C.run ~fault:(fault ()) C.default_config with
    | C.Crashed j -> j
    | C.Finished _ -> Alcotest.fail "expected a controller crash"
  in
  (* A fresh tracer given to [resume] sees the whole campaign again:
     journal replay funnels through the same apply path as live events. *)
  let tr = Obs.Tracer.create () in
  match C.resume ~fault:(fault ()) ~obs:tr j with
  | C.Finished (r, _) ->
    checki "full timeline re-emitted" (List.length r.C.hosts)
      (List.length (attempt_spans tr));
    checkb "root span present and closed" true
      (List.exists
         (fun s -> Obs.Span.name s = "campaign" && Obs.Span.stop s <> None)
         (Obs.Tracer.spans tr))
  | C.Crashed _ -> Alcotest.fail "resume crashed"

(* --- faulted-engine goldens ---

   Each golden is the Chrome trace followed by the OpenMetrics text of
   one faulted CLI scenario at [--seed 42 --vms 2] (m1, 1 vCPU, 1 GiB
   per VM), i.e. [cat trace.json metrics.txt] of
     inplace --audit --fault residual_leak:1 --fault vm_restore:1
     migrate --audit --fault migration_link_drop:1 --fault residual_leak:1
             --fault scrub_fail:1
     shadow --fault shadow_stream_drop:1
   rebuilt here in-process through the same entry points. *)

let read_golden name =
  let path =
    List.find Sys.file_exists [ "golden/" ^ name; "test/golden/" ^ name ]
  in
  In_channel.with_open_bin path In_channel.input_all

let cli_host ?(name = "cli-host") ?(seed = 42L) hv vms =
  Hypertp.Api.provision ~seed ~name ~machine:(Hw.Machine.m1 ()) ~hv
    (List.init vms (fun i ->
         Vmstate.Vm.config ~name:(Printf.sprintf "vm%d" i) ~vcpus:1
           ~ram:(Hw.Units.gib 1) ()))

let faulted_ctx ?audit specs =
  let fault =
    Fault.of_specs
      (List.map
         (fun s ->
           match Fault.parse_spec s with
           | Ok sp -> sp
           | Error e -> Alcotest.fail e)
         specs)
  in
  let obs = Obs.Tracer.create () and metrics = Obs.Metrics.create () in
  ( Hypertp.Ctx.make ~rng:(Sim.Rng.create 42L) ~fault ~obs ~metrics ?audit (),
    fun () -> Obs.Export.chrome_trace obs ^ Obs.Export.open_metrics metrics )

let test_golden_inplace_faulted () =
  let ctx, dump =
    faulted_ctx ~audit:Hypertp.Ctx.audit_default
      [ "residual_leak:1"; "vm_restore:1" ]
  in
  ignore
    (Hypertp.Api.transplant_inplace ~ctx ~host:(cli_host Hv.Kind.Xen 2)
       ~target:Hv.Kind.Kvm ());
  checks "inplace faulted trace+metrics" (read_golden "inplace_faulted.txt")
    (dump ())

let test_golden_migrate_faulted () =
  let ctx, dump =
    faulted_ctx ~audit:Hypertp.Ctx.audit_default
      [ "migration_link_drop:1"; "residual_leak:1"; "scrub_fail:1" ]
  in
  let dst = cli_host ~name:"cli-dst" ~seed:43L Hv.Kind.Kvm 0 in
  ignore
    (Hypertp.Api.transplant_migration ~ctx ~src:(cli_host Hv.Kind.Xen 2) ~dst
       ());
  checks "migrate faulted trace+metrics" (read_golden "migrate_faulted.txt")
    (dump ())

let test_golden_shadow_faulted () =
  let ctx, dump = faulted_ctx [ "shadow_stream_drop:1" ] in
  let spare = Hv.Host.create ~name:"cli-spare" (Hw.Machine.m1 ()) in
  ignore
    (Hypertp.Api.transplant_shadow ~ctx ~src:(cli_host Hv.Kind.Xen 2) ~spare
       ~target:Hv.Kind.Kvm ());
  checks "shadow faulted trace+metrics" (read_golden "shadow_faulted.txt")
    (dump ())

let suites =
  [ ( "obs.tracer",
      [ Alcotest.test_case "nesting" `Quick test_tracer_nesting;
        Alcotest.test_case "ring buffer" `Quick test_tracer_ring_buffer;
        Alcotest.test_case "hook" `Quick test_tracer_hook;
        Alcotest.test_case "backwards finish" `Quick
          test_tracer_finish_before_start_rejected ] );
    ( "obs.metrics",
      [ Alcotest.test_case "counter identity" `Quick
          test_metrics_counter_identity;
        Alcotest.test_case "gauge" `Quick test_metrics_gauge;
        Alcotest.test_case "kind mismatch" `Quick test_metrics_kind_mismatch;
        Alcotest.test_case "bucket boundaries" `Quick
          test_histogram_bucket_boundaries;
        Alcotest.test_case "bad buckets" `Quick test_histogram_bad_buckets;
        Alcotest.test_case "summary" `Quick test_histogram_summary ] );
    ( "obs.export",
      [ Alcotest.test_case "openmetrics format" `Quick
          test_open_metrics_format;
        Alcotest.test_case "chrome trace format" `Quick
          test_chrome_trace_format ] );
    ( "obs.engines",
      [ Alcotest.test_case "inplace reconciles (fault-free)" `Quick
          test_inplace_reconciles_fault_free;
        Alcotest.test_case "inplace reconciles (faulty)" `Quick
          test_inplace_reconciles_faulty;
        Alcotest.test_case "inplace reconciles (rollback)" `Quick
          test_inplace_reconciles_rollback;
        Alcotest.test_case "chrome trace deterministic" `Quick
          test_chrome_trace_deterministic;
        Alcotest.test_case "openmetrics deterministic" `Quick
          test_open_metrics_deterministic;
        Alcotest.test_case "migrate span extent" `Quick
          test_migrate_span_extent_and_counters;
        Alcotest.test_case "migrate retries" `Quick
          test_migrate_retry_instrumentation;
        Alcotest.test_case "campaign timeline" `Quick test_campaign_timeline;
        Alcotest.test_case "campaign resume re-emits" `Quick
          test_campaign_resume_reemits_timeline ] );
    ( "obs.goldens",
      [ Alcotest.test_case "inplace faulted" `Quick
          test_golden_inplace_faulted;
        Alcotest.test_case "migrate faulted" `Quick
          test_golden_migrate_faulted;
        Alcotest.test_case "shadow faulted" `Quick
          test_golden_shadow_faulted ] ) ]
