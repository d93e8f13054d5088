(* Edge-case and cross-cutting tests accumulated during hardening:
   the xl G1 tool, snapshot/Nova edge cases, planner group sizes,
   engine corner cases. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* --- xl (G1) --- *)

let xen_host () =
  Hypertp.Api.provision ~seed:1201L ~name:"xl-host" ~machine:(Hw.Machine.m1 ())
    ~hv:Hv.Kind.Xen
    [
      Vmstate.Vm.config ~name:"alpha" ~vcpus:2 ~ram:(Hw.Units.mib 256) ();
      Vmstate.Vm.config ~name:"beta" ~ram:(Hw.Units.mib 128) ();
    ]

let test_xl_list_and_ops () =
  let host = xen_host () in
  let xl = Xenhv.Xl.attach host in
  let doms = Xenhv.Xl.list xl in
  checki "two domains" 2 (List.length doms);
  (match doms with
  | (_, name, vcpus, mem) :: _ ->
    Alcotest.check Alcotest.string "first name" "alpha" name;
    checki "vcpus" 2 vcpus;
    checki "mem MiB" 256 mem
  | [] -> Alcotest.fail "empty xl list");
  Xenhv.Xl.pause xl "beta";
  checkb "paused" false
    (Vmstate.Vm.is_running (Option.get (Hv.Host.find_vm host "beta")));
  Xenhv.Xl.unpause xl "beta";
  checki "domid lookup" 1 (Xenhv.Xl.domid xl "alpha");
  checkb "info mentions xen" true
    (String.length (Xenhv.Xl.info xl) > 0)

let test_xl_breaks_after_transplant () =
  (* The G1 failure mode of section 4.5.1: a transplant strands every
     hypervisor-specific workflow. *)
  let host = xen_host () in
  let xl = Xenhv.Xl.attach host in
  ignore (Xenhv.Xl.list xl);
  ignore (Hypertp.Api.transplant_inplace ~host ~target:Hv.Kind.Kvm ());
  checkb "xl stranded" true
    (try
       ignore (Xenhv.Xl.list xl);
       false
     with Xenhv.Xl.Not_xen "kvm" -> true);
  (* The G2 path keeps working (after reconnect). *)
  let names =
    Cluster.Libvirt.hypervisor_agnostic
      (fun c ->
        List.map
          (fun d -> d.Cluster.Libvirt.dom_name)
          (Cluster.Libvirt.list_all_domains c))
      host
  in
  checki "libvirt still sees both" 2 (List.length names)

(* --- snapshot edge cases --- *)

let test_snapshot_duplicate_name_rejected () =
  let host = xen_host () in
  let snap = Hypertp.Snapshot.capture host "alpha" in
  checkb "restore onto a host with the name taken" true
    (try
       ignore (Hypertp.Snapshot.restore snap host);
       false
     with Invalid_argument _ -> true)

let test_snapshot_unknown_vm () =
  let host = xen_host () in
  Alcotest.check_raises "unknown"
    (Invalid_argument "Snapshot.capture: no VM named zz") (fun () ->
      ignore (Hypertp.Snapshot.capture host "zz"))

(* --- planner group sizes --- *)

let paper_model ?(inplace_fraction = 0.5) () =
  Cluster.Model.make ~nodes:10 ~vms_per_node:10 ~vm_ram:(Hw.Units.gib 4)
    ~node_ram:(Hw.Units.gib 96) ~inplace_fraction
    ~workload_mix:[ (Vmstate.Vm.Wl_idle, 1.0) ] ()

let test_plan_group_sizes () =
  List.iter
    (fun group_size ->
      let m = paper_model () in
      let plan = Cluster.Btrplace.plan_upgrade ~group_size m in
      checkb "capacity safe" true (Cluster.Btrplace.capacity_safe m);
      checki "all vms placed" 100 (Cluster.Model.total_vms m);
      checkb "work done" true (plan.Cluster.Btrplace.migration_count > 0);
      List.iter
        (fun n -> checkb "upgraded" true n.Cluster.Model.upgraded)
        m.Cluster.Model.nodes)
    [ 1; 2 ];
  (* Taking half the cluster offline at once cannot place the evictions:
     the planner must refuse rather than overload the survivors. *)
  checkb "oversized group refused" true
    (try
       ignore (Cluster.Btrplace.plan_upgrade ~group_size:5 (paper_model ()));
       false
     with Cluster.Btrplace.No_capacity _ -> true)

(* --- Nova boot onto explicit host --- *)

let test_nova_boot_explicit_host () =
  let h0 =
    Hypertp.Api.provision ~seed:1301L ~name:"e0" ~machine:(Hw.Machine.m1 ())
      ~hv:Hv.Kind.Kvm []
  in
  let h1 =
    Hypertp.Api.provision ~seed:1302L ~name:"e1" ~machine:(Hw.Machine.m1 ())
      ~hv:Hv.Kind.Kvm []
  in
  let nova = Cluster.Nova.create () in
  Cluster.Nova.add_host nova h0;
  Cluster.Nova.add_host nova h1;
  let placed =
    Cluster.Nova.boot_instance nova ~host:"e1"
      (Vmstate.Vm.config ~name:"pinned" ~ram:(Hw.Units.mib 128) ())
  in
  Alcotest.check Alcotest.string "pinned placement honoured" "e1" placed;
  checkb "db consistent" true (Cluster.Nova.db_consistent nova);
  checkb "really there" true (Hv.Host.find_vm h1 "pinned" <> None)

(* --- engine corner cases --- *)

let test_engine_empty_run_until () =
  let e = Sim.Engine.create () in
  Sim.Engine.run_until e (Sim.Time.sec 5);
  checki "clock advanced to limit" (Sim.Time.to_ns (Sim.Time.sec 5))
    (Sim.Time.to_ns (Sim.Engine.now e));
  Sim.Engine.run e (* no-op on empty queue *)

let test_engine_schedule_at_now () =
  let e = Sim.Engine.create () in
  let hits = ref 0 in
  Sim.Engine.schedule_at e (Sim.Time.ms 5) (fun () ->
      (* Scheduling at exactly `now` from inside a handler is legal. *)
      Sim.Engine.schedule_at e (Sim.Engine.now e) (fun () -> incr hits));
  Sim.Engine.run e;
  checki "same-time event ran" 1 !hits

(* --- xenstore root listing --- *)

let test_xenstore_root () =
  let xs = Xenhv.Xenstore.create () in
  Xenhv.Xenstore.write xs "/a/b" "1";
  Xenhv.Xenstore.write xs "/c" "2";
  Alcotest.check (Alcotest.list Alcotest.string) "root children" [ "a"; "c" ]
    (Xenhv.Xenstore.list xs "/")

(* --- kexec double load / interleaving --- *)

let test_kexec_two_images_coexist () =
  let pmem = Hw.Pmem.create ~frames:(512 * 64) () in
  let a = Kexec.load ~pmem ~kernel:"kvm" ~size:(Hw.Units.mib 2) ~cmdline:"" in
  let b = Kexec.load ~pmem ~kernel:"xen" ~size:(Hw.Units.mib 2) ~cmdline:"" in
  (* Executing a's jump must not clobber b's staged image (both are
     reserved). *)
  let report = Kexec.execute ~pmem a ~preserve:(Hw.Frame.Extents.of_extents []) in
  checkb "a intact" true report.Kexec.image_intact;
  let report_b = Kexec.execute ~pmem b ~preserve:(Hw.Frame.Extents.of_extents []) in
  checkb "b intact" true report_b.Kexec.image_intact;
  Kexec.unload ~pmem a;
  Kexec.unload ~pmem b

(* --- memsep consistency across hypervisors --- *)

let test_memsep_all_hypervisors () =
  List.iter
    (fun hv ->
      let host =
        Hypertp.Api.provision
          ~seed:(Int64.of_int (1400 + Hashtbl.hash hv))
          ~name:"ms" ~machine:(Hw.Machine.m1 ()) ~hv
          [ Vmstate.Vm.config ~name:"v" ~ram:(Hw.Units.mib 512) () ]
      in
      let r = Hypertp.Memsep.of_host host in
      checkb "guest dominates under every hypervisor" true
        (r.Hypertp.Memsep.guest_state_bytes > r.Hypertp.Memsep.vmi_state_bytes);
      checkb "fraction small" true (Hypertp.Memsep.translated_fraction r < 0.05))
    Hv.Kind.all

let suites =
  [
    ( "extras.xl_g1",
      [
        Alcotest.test_case "xl list/pause/info" `Quick test_xl_list_and_ops;
        Alcotest.test_case "xl breaks after transplant, libvirt survives" `Quick
          test_xl_breaks_after_transplant;
      ] );
    ( "extras.edge_cases",
      [
        Alcotest.test_case "snapshot duplicate name" `Quick
          test_snapshot_duplicate_name_rejected;
        Alcotest.test_case "snapshot unknown vm" `Quick test_snapshot_unknown_vm;
        Alcotest.test_case "planner group sizes" `Quick test_plan_group_sizes;
        Alcotest.test_case "nova explicit placement" `Quick
          test_nova_boot_explicit_host;
        Alcotest.test_case "engine empty run_until" `Quick
          test_engine_empty_run_until;
        Alcotest.test_case "engine schedule at now" `Quick
          test_engine_schedule_at_now;
        Alcotest.test_case "xenstore root listing" `Quick test_xenstore_root;
        Alcotest.test_case "kexec staged images coexist" `Quick
          test_kexec_two_images_coexist;
        Alcotest.test_case "memsep across hypervisors" `Quick
          test_memsep_all_hypervisors;
      ] );
  ]
