type timing = {
  migration_count : int;
  inplace_vm_count : int;
  migration_time : Sim.Time.t;
  upgrade_tail : Sim.Time.t;
  total : Sim.Time.t;
}

(* Per-action setup: BtrPlace/Nova round-trips, pre-migration checks,
   storage hand-off.  Calibrated so a ~150-migration plan lands near the
   paper's "up to 19 minutes". *)
let migration_setup = Sim.Time.of_sec_f 3.5

(* Both estimates are pure in a small profile key — (nic, RAM,
   workload) and the riding-VM count respectively — but campaign
   planning asks for them once per host.  Memoised so a 10k-host fleet
   computes each distinct profile once instead of building 10k
   identical Precopy plans and boot models. *)
let mig_memo :
    (Hw.Nic.t * Hw.Units.bytes_ * Vmstate.Vm.workload_kind, Sim.Time.t)
    Hypertp.Costs.Memo.t =
  Hypertp.Costs.Memo.create 64

let migration_op_time ~nic ~(vm : Model.vm) =
  Hypertp.Costs.Memo.find_or_add mig_memo
    (nic, vm.Model.ram, vm.Model.workload)
    (fun (nic, ram, workload) ->
      let params = Migration.Precopy.default_params ~nic () in
      let plan =
        Migration.Precopy.plan params ~page_bytes:Hw.Units.page_size_4k
          ~total_pages:(Hw.Units.frames_of_bytes ram)
          ~dirty_pages_per_sec:
            (Workload.Profile.dirty_pages_per_sec workload ~ram
               ~page_kind:Hw.Units.Page_2m)
      in
      Sim.Time.sum
        [ migration_setup; plan.Migration.Precopy.precopy_time;
          plan.Migration.Precopy.stop_copy_time ])

let inplace_memo : (int, Sim.Time.t) Hypertp.Costs.Memo.t =
  Hypertp.Costs.Memo.create 16

let inplace_host_time ~vms =
  (* kexec into the target on a G5K node + per-VM translate/restore.
     Host-level, not per-VM downtime: boot dominates.  The same estimate
     feeds Campaign's straggler deadlines. *)
  Hypertp.Costs.Memo.find_or_add inplace_memo vms (fun vms ->
      let machine = Hw.Machine.g5k_node () in
      let boot = Sim.Time.to_sec_f (Xenhv.Xen.boot_time ~machine) in
      Sim.Time.of_sec_f
        (Hypertp.Costs.expected_host_upgrade_seconds ~boot_seconds:boot ~vms))

let reboot_host_time = Sim.Time.sec 60 (* firmware + full kernel boot *)

let execute ~nic (plan : Btrplace.plan) =
  Hypertp.Log.info (fun m ->
      m "upgrade: executing plan with %d migrations, %d VMs in place"
        plan.Btrplace.migration_count plan.Btrplace.inplace_vm_count);
  let migration_time = ref Sim.Time.zero in
  let last_upgrade = ref Sim.Time.zero in
  Array.iter
    (fun action ->
      match action with
      | Btrplace.Migrate { vm; src; dst } ->
        let op = migration_op_time ~nic ~vm in
        Hypertp.Log.debug (fun m ->
            m "upgrade: migrate %s %s -> %s (%a)" vm.Model.vm_name src dst
              Sim.Time.pp op);
        migration_time := Sim.Time.add !migration_time op
      | Btrplace.Upgrade_inplace { node; vms_in_place } ->
        Hypertp.Log.debug (fun m ->
            m "upgrade: in-place %s with %d VMs riding" node vms_in_place);
        last_upgrade :=
          (if vms_in_place > 0 then inplace_host_time ~vms:vms_in_place
           else reboot_host_time)
      | Btrplace.Take_offline _ | Btrplace.Bring_online _ -> ())
    plan.Btrplace.actions;
  let t =
    {
      migration_count = plan.Btrplace.migration_count;
      inplace_vm_count = plan.Btrplace.inplace_vm_count;
      migration_time = !migration_time;
      upgrade_tail = !last_upgrade;
      total = Sim.Time.add !migration_time !last_upgrade;
    }
  in
  Hypertp.Log.info (fun m ->
      m "upgrade: plan executed, total %a" Sim.Time.pp t.total);
  t

let sweep ?(nodes = 10) ?(vms_per_node = 10) ~fractions () =
  let nic = Hw.Nic.create ~bandwidth_gbps:10.0 () in
  List.map
    (fun fraction ->
      let model =
        Model.make ~nodes ~vms_per_node ~vm_ram:(Hw.Units.gib 4)
          ~node_ram:(Hw.Units.gib 96) ~inplace_fraction:fraction
          ~workload_mix:
            [ (Vmstate.Vm.Wl_streaming, 0.3); (Vmstate.Vm.Wl_spec "mcf", 0.3);
              (Vmstate.Vm.Wl_idle, 0.4) ]
          ()
      in
      let plan = Btrplace.plan_upgrade model in
      assert (Btrplace.capacity_safe model);
      (fraction, execute ~nic plan))
    fractions

(* ---- Fault-aware execution: per-host InPlaceTP failure fallback ---- *)

type fallback = Migrate_and_reboot | Recovered_reboot

type host_failure = {
  failed_node : string;
  failed_vms : int;
  fallback : fallback;
  added : Sim.Time.t;
}

type faulty_timing = {
  base : timing;
  failures : host_failure list;
  vms_inplace_ok : int;
  vms_migrated_fallback : int;
  vms_recovered : int;
  added_time : Sim.Time.t;
  total_with_faults : Sim.Time.t;
}

let vms_accounted t =
  t.vms_inplace_ok + t.vms_migrated_fallback + t.vms_recovered

let execute_faulty ?(ctx = Hypertp.Ctx.default)
    ?(fallback_vm_ram = Hw.Units.gib 4)
    ?(fallback_workload = Vmstate.Vm.Wl_idle) ~nic (plan : Btrplace.plan) =
  let fault = ctx.Hypertp.Ctx.fault in
  let base = execute ~nic plan in
  let fire ~vm site =
    match fault with Some f -> Fault.fire f ~vm site | None -> false
  in
  let failures = ref [] in
  let ok = ref 0 and migrated = ref 0 and recovered = ref 0 in
  let added = ref Sim.Time.zero in
  Array.iter
    (fun action ->
      match action with
      | Btrplace.Upgrade_inplace { node; vms_in_place } when vms_in_place > 0 ->
        if fire ~vm:node Fault.Host_crash then begin
          (* Whether the fault landed before or after the host's
             point-of-no-return is decided by a per-host RNG that is
             independent of the fault plan's stream, so raising the
             failure probability never perturbs which hosts fail. *)
          let coin = Sim.Rng.create (Int64.of_int (Hashtbl.hash node)) in
          let pre_pnr = Sim.Rng.float coin 1.0 < 0.5 in
          let failure =
            if pre_pnr then begin
              (* InPlaceTP rolled back: VMs are intact on the source, so
                 fall back to MigrationTP-draining the host, then reboot
                 it empty. *)
              let vm i =
                {
                  Model.vm_name = Printf.sprintf "%s-fb%d" node i;
                  ram = fallback_vm_ram;
                  inplace_compatible = false;
                  workload = fallback_workload;
                }
              in
              let drain =
                Sim.Time.sum
                  (List.init vms_in_place (fun i ->
                       migration_op_time ~nic ~vm:(vm i)))
              in
              migrated := !migrated + vms_in_place;
              Hypertp.Log.warn (fun m ->
                  m "upgrade: %s failed pre-PNR; draining %d VMs then \
                     rebooting"
                    node vms_in_place);
              {
                failed_node = node;
                failed_vms = vms_in_place;
                fallback = Migrate_and_reboot;
                added = Sim.Time.add drain reboot_host_time;
              }
            end
            else begin
              (* Post-PNR: the ReHype-style ladder recovered the VMs on
                 the target, at the cost of a full host reboot. *)
              recovered := !recovered + vms_in_place;
              Hypertp.Log.warn (fun m ->
                  m "upgrade: %s failed post-PNR; %d VMs recovered, full \
                     reboot"
                    node vms_in_place);
              {
                failed_node = node;
                failed_vms = vms_in_place;
                fallback = Recovered_reboot;
                added = reboot_host_time;
              }
            end
          in
          failures := failure :: !failures;
          added := Sim.Time.add !added failure.added
        end
        else ok := !ok + vms_in_place
      | Btrplace.Upgrade_inplace _ | Btrplace.Migrate _
      | Btrplace.Take_offline _ | Btrplace.Bring_online _ ->
        ())
    plan.Btrplace.actions;
  {
    base;
    failures = List.rev !failures;
    vms_inplace_ok = !ok;
    vms_migrated_fallback = !migrated;
    vms_recovered = !recovered;
    added_time = !added;
    total_with_faults = Sim.Time.add base.total !added;
  }

let sweep_faulty ?(nodes = 10) ?(vms_per_node = 10) ?(seed = 0xC1A5L)
    ~probabilities () =
  let nic = Hw.Nic.create ~bandwidth_gbps:10.0 () in
  List.map
    (fun p ->
      let model =
        Model.make ~nodes ~vms_per_node ~vm_ram:(Hw.Units.gib 4)
          ~node_ram:(Hw.Units.gib 96) ~inplace_fraction:1.0
          ~workload_mix:
            [ (Vmstate.Vm.Wl_streaming, 0.3); (Vmstate.Vm.Wl_spec "mcf", 0.3);
              (Vmstate.Vm.Wl_idle, 0.4) ]
          ()
      in
      let plan = Btrplace.plan_upgrade model in
      assert (Btrplace.capacity_safe model);
      let fault =
        Fault.make ~seed
          [ { Fault.site = Fault.Host_crash; trigger = Fault.Probability p } ]
      in
      (p, execute_faulty ~ctx:(Hypertp.Ctx.make ~fault ()) ~nic plan))
    probabilities

let pp_timing fmt t =
  Format.fprintf fmt
    "%d migrations (%a) + %d VMs in place (tail %a) => total %a"
    t.migration_count Sim.Time.pp t.migration_time t.inplace_vm_count
    Sim.Time.pp t.upgrade_tail Sim.Time.pp t.total

let pp_faulty_timing fmt t =
  Format.fprintf fmt
    "%a; %d host failures (+%a): %d VMs in place ok, %d drained by fallback \
     migration, %d recovered post-PNR => total %a"
    pp_timing t.base (List.length t.failures) Sim.Time.pp t.added_time
    t.vms_inplace_ok t.vms_migrated_fallback t.vms_recovered Sim.Time.pp
    t.total_with_faults
