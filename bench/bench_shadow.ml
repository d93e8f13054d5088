(* Shadow-host MigrationTP benchmark: the downtime-vs-spares-vs-wire
   frontier.

   Two layers:

   1. A head-to-head pair: the same source host evacuated once by a
      shadow-host cutover (pre-staged spare, streamed checkpoint,
      atomic identity swap) and once by classic MigrationTP
      (stop-and-copy).  The cutover pays only the final dirty set plus
      the ARP/route flip, so its downtime must come in well under the
      classic stop-and-copy blackout — the committed JSON pins the
      ratio below 0.2.

   2. A fleet frontier: Btrplace.choose_strategies over an N-host model
      with a mixed InPlaceTP-compatibility placement, swept across
      spare-lane counts and wire budgets.  Each point reports the
      strategy mix, the wire total and the worst migration-path
      downtime (shadow hosts pay the measured cutover downtime, classic
      hosts the measured stop-and-copy downtime) — more spares buy
      downtime with wire bytes, a tighter budget pushes hosts down to
      classic and then to defer.

   Emits BENCH_shadow.json at the default 200 hosts; any other --hosts
   writes _build/BENCH_shadow.json instead. *)

open Bench_util

let default_hosts = 200
let vms_per_host = 4
let inplace_fraction = 0.6
let seed = 7L

let provision_src name =
  Hypertp.Api.provision ~seed ~name ~machine:(Hw.Machine.m1 ())
    ~hv:Hv.Kind.Xen
    (List.init vms_per_host (fun i ->
         Vmstate.Vm.config
           ~name:(Printf.sprintf "vm%d" i)
           ~ram:(Hw.Units.gib 1) ()))

type pair = {
  shadow_downtime_s : float;
  classic_downtime_s : float;
  downtime_ratio : float;
  shadow_wire_bytes : int;
  classic_wire_bytes : int;
}

let measure_pair () =
  let src = provision_src "bench-src" in
  let spare = Hv.Host.create ~name:"bench-spare" (Hw.Machine.m1 ()) in
  let sh =
    Hypertp.Api.transplant_shadow ~rng:(Sim.Rng.create seed) ~src ~spare
      ~target:Hv.Kind.Kvm ()
  in
  assert (sh.Hypertp.Migrate.sh_strategy = Hypertp.Migrate.Shadow_cutover);
  let csrc = provision_src "bench-csrc" in
  let cdst = Hv.Host.create ~name:"bench-cdst" (Hw.Machine.m1 ()) in
  Hv.Host.boot_hypervisor cdst (Hypertp.Api.hypervisor_of Hv.Kind.Kvm);
  let cl =
    Hypertp.Api.transplant_migration ~rng:(Sim.Rng.create seed) ~src:csrc
      ~dst:cdst ()
  in
  let classic_downtime =
    List.fold_left
      (fun acc (v : Hypertp.Migrate.vm_report) ->
        Float.max acc (Sim.Time.to_sec_f v.Hypertp.Migrate.downtime))
      0.0 cl.Hypertp.Migrate.per_vm
  in
  let classic_wire =
    List.fold_left
      (fun acc (v : Hypertp.Migrate.vm_report) ->
        acc + v.Hypertp.Migrate.wire_bytes)
      0 cl.Hypertp.Migrate.per_vm
  in
  {
    shadow_downtime_s = Sim.Time.to_sec_f sh.Hypertp.Migrate.sh_downtime;
    classic_downtime_s = classic_downtime;
    downtime_ratio =
      Sim.Time.to_sec_f sh.Hypertp.Migrate.sh_downtime /. classic_downtime;
    shadow_wire_bytes = sh.Hypertp.Migrate.sh_wire_bytes;
    classic_wire_bytes = classic_wire;
  }

type point = {
  f_spares : int;
  f_budget : int option; (* None = unbounded *)
  f_inplace : int;
  f_shadow : int;
  f_migrate : int;
  f_defer : int;
  f_wire : int;
  f_downtime_s : float; (* worst migration-path downtime *)
}

let frontier ~hosts pair =
  let model () =
    Cluster.Model.make ~nodes:hosts ~vms_per_node:vms_per_host
      ~vm_ram:(Hw.Units.gib 4) ~node_ram:(Hw.Units.gib 96) ~inplace_fraction
      ~workload_mix:
        [ (Vmstate.Vm.Wl_streaming, 0.3); (Vmstate.Vm.Wl_spec "mcf", 0.3);
          (Vmstate.Vm.Wl_idle, 0.4) ]
      ()
  in
  (* Budgets as fractions of the unbounded all-shadow wire total, so
     the sweep spans "everyone fits" down to "most hosts defer". *)
  let full =
    (Cluster.Btrplace.choose_strategies ~spare_hosts:1 (model ()))
      .Cluster.Btrplace.wire_total
  in
  let budgets =
    [ None; Some full; Some (full / 2); Some (full / 4); Some (full / 10) ]
  in
  let spares = [ 0; 1; 2; 4 ] in
  List.concat_map
    (fun s ->
      List.map
        (fun b ->
          let p =
            Cluster.Btrplace.choose_strategies ~spare_hosts:s ?wire_budget:b
              (model ())
          in
          let downtime =
            if p.Cluster.Btrplace.n_migrate > 0 then pair.classic_downtime_s
            else if p.Cluster.Btrplace.n_shadow > 0 then
              pair.shadow_downtime_s
            else 0.0
          in
          {
            f_spares = s;
            f_budget = b;
            f_inplace = p.Cluster.Btrplace.n_inplace;
            f_shadow = p.Cluster.Btrplace.n_shadow;
            f_migrate = p.Cluster.Btrplace.n_migrate;
            f_defer = p.Cluster.Btrplace.n_defer;
            f_wire = p.Cluster.Btrplace.wire_total;
            f_downtime_s = downtime;
          })
        budgets)
    spares

let emit ~hosts pair points =
  write_bench_json ~full:(hosts = default_hosts) "BENCH_shadow.json" (fun oc ->
    Printf.fprintf oc
      "{\n  \"benchmark\": \"shadow\",\n  \"hosts\": %d,\n  \
       \"vms_per_host\": %d,\n  \"inplace_fraction\": %.2f,\n  \"pair\": \
       {\"shadow_downtime_s\": %.6f, \"classic_downtime_s\": %.6f, \
       \"downtime_ratio\": %.4f, \"shadow_wire_bytes\": %d, \
       \"classic_wire_bytes\": %d},\n  \"frontier\": [\n"
      hosts vms_per_host inplace_fraction pair.shadow_downtime_s
      pair.classic_downtime_s pair.downtime_ratio pair.shadow_wire_bytes
      pair.classic_wire_bytes;
    List.iteri
      (fun i p ->
        Printf.fprintf oc
          "    {\"spares\": %d, \"wire_budget_bytes\": %s, \"inplace\": %d, \
           \"shadow\": %d, \"migrate\": %d, \"defer\": %d, \
           \"wire_total_bytes\": %d, \"max_migration_downtime_s\": %.6f}%s\n"
          p.f_spares
          (match p.f_budget with None -> "null" | Some b -> string_of_int b)
          p.f_inplace p.f_shadow p.f_migrate p.f_defer p.f_wire p.f_downtime_s
          (if i = List.length points - 1 then "" else ","))
      points;
    Printf.fprintf oc "  ]\n}\n")

let run ?(hosts = default_hosts) () =
  note "== shadow-host cutover: downtime vs spares vs wire ==@.";
  let pair = measure_pair () in
  note
    "pair: shadow cutover %.3f ms vs classic stop-and-copy %.3f ms (ratio \
     %.3f)@."
    (pair.shadow_downtime_s *. 1e3)
    (pair.classic_downtime_s *. 1e3)
    pair.downtime_ratio;
  let points = frontier ~hosts pair in
  note "%-7s %-12s %-8s %-8s %-8s %-7s %-12s %s@." "spares" "budget" "inplace"
    "shadow" "migrate" "defer" "wire-GiB" "worst-mig-downtime";
  List.iter
    (fun p ->
      note "%-7d %-12s %-8d %-8d %-8d %-7d %-12.1f %.3f ms@." p.f_spares
        (match p.f_budget with
        | None -> "unbounded"
        | Some b ->
          Printf.sprintf "%.1fG" (float_of_int b /. float_of_int (Hw.Units.gib 1)))
        p.f_inplace p.f_shadow p.f_migrate p.f_defer
        (float_of_int p.f_wire /. float_of_int (Hw.Units.gib 1))
        (p.f_downtime_s *. 1e3))
    points;
  emit ~hosts pair points
