(* Shared helpers for the experiment harness: repetition, reporting in
   the paper's style (mean when variance is low, box plot otherwise). *)

let repetitions = 5 (* the paper repeats each experiment 5 times *)

let seeds = [ 11L; 23L; 37L; 51L; 73L ]

let repeat f =
  List.map (fun seed -> f (Sim.Rng.create seed)) seeds

let summarize_seconds times = Sim.Stats.summarize (List.map Sim.Time.to_sec_f times)

let pp_measure fmt s =
  if Sim.Stats.low_variance s then Format.fprintf fmt "%.3f s" s.Sim.Stats.mean
  else Format.fprintf fmt "box[%a] s" Sim.Stats.pp_boxplot s

let header title =
  Format.printf "@.==================================================================@.";
  Format.printf "%s@." title;
  Format.printf "==================================================================@."

let subheader title = Format.printf "@.--- %s ---@." title

let note fmt = Format.printf fmt

(* Write one BENCH_*.json document through [emit].  Only a run at the
   full default size writes the committed file at the repository root;
   a run with a size override (the CI smoke modes) writes under _build/,
   so a smoke run never replaces committed numbers with its own. *)
let write_bench_json ~full name emit =
  let path = if full then name else Filename.concat "_build" name in
  if not (full || Sys.file_exists "_build") then Sys.mkdir "_build" 0o755;
  Out_channel.with_open_text path emit;
  note "wrote %s@." path

let vm_config ?(name = "vm0") ?(vcpus = 1) ?(gib = 1) ?(workload = Vmstate.Vm.Wl_idle) () =
  Vmstate.Vm.config ~name ~vcpus ~ram:(Hw.Units.gib gib) ~workload ()

let fresh_xen_host ?(machine = Hw.Machine.m1 ()) ~seed vms =
  Hypertp.Api.provision ~seed ~name:"bench-src" ~machine ~hv:Hv.Kind.Xen vms

let fresh_kvm_host ?(machine = Hw.Machine.m1 ()) ~seed vms =
  Hypertp.Api.provision ~seed ~name:"bench-src" ~machine ~hv:Hv.Kind.Kvm vms

let fresh_dst ?(machine = Hw.Machine.m1 ()) ~seed kind =
  Hypertp.Api.provision ~seed ~name:"bench-dst" ~machine ~hv:kind []

let seed_of_rng rng = Sim.Rng.int64 rng
