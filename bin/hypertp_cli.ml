(* hypertp-cli: drive the HyperTP simulator from the command line.

   A thin shell over the library.  Each verb parses its flags through
   the shared groups below into the library's own config or one
   [Hypertp.Ctx.t], and the library validates that value before any
   work or output.  A rejected input leaves through one of two doors:
   cmdliner's usage error (exit 124) for a flag its converter refuses,
   or the [Hypertp.Error] handler at the bottom (exit 3) for a value
   the library refuses. *)

open Cmdliner

(* --- converters --- *)

let machine_conv =
  let parse = function
    | "m1" | "M1" -> Ok (Hw.Machine.m1 ())
    | "m2" | "M2" -> Ok (Hw.Machine.m2 ())
    | "g5k" | "G5K" -> Ok (Hw.Machine.g5k_node ())
    | s -> Error (Printf.sprintf "unknown machine %S (m1|m2|g5k)" s)
  in
  Arg.conv' (parse, fun fmt (m : Hw.Machine.t) -> Format.pp_print_string fmt m.name)

let hv_conv =
  let parse s =
    Option.to_result (Hv.Kind.of_string s)
      ~none:(Printf.sprintf "unknown hypervisor %S (xen|kvm)" s)
  in
  Arg.conv' (parse, Hv.Kind.pp)

let fault_conv =
  let print fmt (sp : Fault.spec) =
    Format.fprintf fmt "%a:..." Fault.pp_site sp.Fault.spec_injection.Fault.site
  in
  Arg.conv' (Fault.parse_spec, print)

let topology_conv =
  Arg.conv'
    ( Cluster.Topology.of_spec,
      fun fmt t -> Format.pp_print_string fmt (Cluster.Topology.spec t) )

let shard_mode_conv =
  Arg.conv'
    (Sim.Shard.of_string, fun fmt m -> Format.pp_print_string fmt (Sim.Shard.to_string m))

(* The one converter for bare sizes that no library config checks
   ([--vms], [--vcpus], [--gib], [--cases], [serve --hosts]): an integer
   in [min, max]. *)
let count ?(max = max_int) min =
  let parse s =
    match int_of_string_opt s with
    | None -> Error (Printf.sprintf "invalid value '%s', expected an integer" s)
    | Some n when n < min -> Error (Printf.sprintf "%d is below the minimum of %d" n min)
    | Some n when n > max -> Error (Printf.sprintf "%d is above the maximum of %d" n max)
    | Some n -> Ok n
  in
  Arg.conv' (parse, Format.pp_print_int)

(* The one converter for durations: finite, non-negative seconds, at
   most 1e9 (about 31 years, well inside [Sim.Time]'s range). *)
let seconds =
  let parse s =
    match float_of_string_opt s with
    | Some f when f >= 0.0 && f <= 1e9 -> Ok (Sim.Time.of_sec_f f)
    | Some _ -> Error (Printf.sprintf "%s is outside [0, 1e9] seconds" s)
    | None -> Error (Printf.sprintf "invalid value '%s', expected seconds" s)
  in
  Arg.conv' (parse, fun fmt t -> Format.pp_print_float fmt (Sim.Time.to_sec_f t))

(* --- files --- *)

(* Write [contents] to [path]; an unwritable path ends the command with
   [cannot write: ...], exit 1. *)
let write_file path contents =
  try Out_channel.with_open_bin path (fun oc -> output_string oc contents)
  with Sys_error e ->
    Format.eprintf "cannot write: %s@." e;
    exit 1

let save path (what, contents) =
  write_file path contents;
  Format.printf "%s written to %s@." what path

(* Read a whole file; an unreadable one ends the command with
   [cannot <verb>: ...], exit 1, like a rejected artifact. *)
let read_file ?(verb = "read") path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error e ->
    Format.eprintf "cannot %s: %s@." verb e;
    exit 1

let load_artifact decode path =
  match decode (read_file ~verb:"resume" path) with
  | Ok v -> v
  | Error e ->
    Format.eprintf "cannot resume: %s@." e;
    exit 1

(* --- shared flags --- *)

(* One [--name] option with a default. *)
let opt ?(docv = "N") c default name doc =
  Arg.(value & opt c default & info [ name ] ~docv ~doc)

let machine_arg =
  opt ~docv:"MACHINE" machine_conv (Hw.Machine.m1 ()) "machine"
    "Host machine model (m1|m2|g5k)."

let source_arg =
  opt ~docv:"HV" hv_conv Hv.Kind.Xen "source" "Hypervisor the host starts on."

let target_arg =
  opt ~docv:"HV" hv_conv Hv.Kind.Kvm "target" "Hypervisor to transplant onto."

let vms_arg = opt (count 1) 1 "vms" "Number of VMs."
let vcpus_arg = opt (count 1) 1 "vcpus" "vCPUs per VM."

let gib_arg =
  opt (count ~max:(max_int / Hw.Units.gib 1) 1) 1 "gib" "GiB of RAM per VM."

let seed_arg = opt ~docv:"SEED" Arg.int64 42L "seed" "Simulation seed."

let topology_arg ~doc =
  opt ~docv:"SPEC" (Arg.some topology_conv) None "topology" doc

let path_arg name doc = opt ~docv:"PATH" Arg.(some string) None name doc
let flag name doc = Arg.(value & flag & info [ name ] ~doc)

let verbose_arg =
  let setup verbosity =
    Logs.set_reporter (Logs_fmt.reporter ());
    Logs.set_level
      (Some
         (match List.length verbosity with
         | 0 -> Logs.Warning
         | 1 -> Logs.Info
         | _ -> Logs.Debug))
  in
  Term.(const setup
        $ Arg.(value & flag_all
               & info [ "v"; "verbose" ]
                   ~doc:"Increase log verbosity (repeatable): $(b,-v) \
                         narrates each workflow step, $(b,-v -v) adds \
                         span-level debug detail."))

(* --- the simulated host of the single-host verbs --- *)

type host = {
  machine : Hw.Machine.t;
  source : Hv.Kind.t;
  vms : int;
  vcpus : int;
  gib : int;
  seed : int64;
}

let host =
  let make machine source vms vcpus gib seed =
    { machine; source; vms; vcpus; gib; seed }
  in
  Term.(const make $ machine_arg $ source_arg $ vms_arg $ vcpus_arg $ gib_arg
        $ seed_arg)

(* [host] plus the hypervisor to transplant onto; [~distinct] adds
   InPlaceTP's rule that the two differ. *)
let transplant ?(distinct = false) () =
  let check h target =
    if distinct && Hv.Kind.equal h.source target then
      `Error (true, "source and target hypervisors must differ")
    else `Ok (h, target)
  in
  Term.(ret (const check $ host $ target_arg))

let provision h =
  Hypertp.Api.provision ~seed:h.seed ~name:"cli-host" ~machine:h.machine
    ~hv:h.source
    (List.init h.vms (fun i ->
         Vmstate.Vm.config ~name:(Printf.sprintf "vm%d" i) ~vcpus:h.vcpus
           ~ram:(Hw.Units.gib h.gib) ()))

(* The guest-free destination of a migration. *)
let destination h ~name target =
  Hypertp.Api.provision ~seed:(Int64.add h.seed 1L) ~name ~machine:h.machine
    ~hv:target []

(* --- run context: seed, faults, audit rung, shard schedule, sinks --- *)

type run = {
  seed : int64;
  ctx : Hypertp.Ctx.t;
  flush : unit -> unit;  (* write the --trace-out / --metrics-out files *)
}

let audit_flag =
  let arm armed = if armed then Some Hypertp.Ctx.audit_default else None in
  Term.(const arm
        $ flag "audit"
            "Arm the post-commit residual audit: sweep the target world \
             against a fresh-boot reference after the transplant, \
             scrub-and-recheck on findings.")

let run_ctx ?(audit = Term.const None) ?(mode = Term.const None)
    ?(sinks = true) () =
  let fault_arg =
    Arg.(value & opt_all fault_conv []
         & info [ "fault" ] ~docv:"SITE:TRIGGER[,seed=N]"
             ~doc:"Arm a fault injection, e.g. $(b,kexec_jump:1) (fire on the \
                   first hit), $(b,vm_restore:vm=vm0) (fire for that VM), or \
                   $(b,migration_link_drop:p=0.1,seed=7) (fire with \
                   probability 0.1, RNG seeded with 7).  Repeatable.")
  in
  let sink name doc = if sinks then path_arg name doc else Term.const None in
  let make seed specs audit mode trace_out metrics_out =
    let fault = match specs with [] -> None | s -> Some (Fault.of_specs s) in
    let traced = Option.map (fun p -> (p, Obs.Tracer.create ())) trace_out in
    let metered = Option.map (fun p -> (p, Obs.Metrics.create ())) metrics_out in
    let ctx =
      Hypertp.Ctx.make ~rng:(Sim.Rng.create seed) ?fault
        ?obs:(Option.map snd traced) ?metrics:(Option.map snd metered) ?audit
        ?sharding:mode ()
    in
    let flush () =
      Option.iter
        (fun (p, tr) ->
          save p
            ( Printf.sprintf "trace (%d spans)" (Obs.Tracer.count tr),
              Obs.Export.chrome_trace tr ))
        traced;
      Option.iter
        (fun (p, m) -> save p ("metrics", Obs.Export.open_metrics m))
        metered
    in
    { seed; ctx; flush }
  in
  Term.(const make $ seed_arg $ fault_arg $ audit $ mode
        $ sink "trace-out"
            "Write a Chrome trace_event JSON recording of the run here (open \
             in Perfetto or chrome://tracing)."
        $ sink "metrics-out"
            "Write an OpenMetrics text snapshot of the run's counters, gauges \
             and histograms here.")

(* A context with its own seeded stream and nothing else armed, for an
   engine call beside the verb's main one. *)
let fresh seed = Hypertp.Ctx.with_rng (Sim.Rng.create seed) Hypertp.Ctx.default

let print_fault_trace (ctx : Hypertp.Ctx.t) =
  Option.iter (Format.printf "fault trace:@.%a@." Fault.pp_trace) ctx.fault

(* --- cluster shape (cluster, campaign) --- *)

type shape = { nodes : int; vms_per_node : int; fraction : float }

let cluster_shape ~fraction =
  Term.(const (fun nodes vms_per_node fraction -> { nodes; vms_per_node; fraction })
        $ opt Arg.int 10 "nodes" "Cluster size."
        $ opt Arg.int 10 "vms-per-node" "VMs per node."
        $ opt ~docv:"F" Arg.float fraction "inplace-fraction"
            "Share of VMs tolerating InPlaceTP downtime.")

(* --- breaker and straggler knobs (campaign, controlplane) --- *)

type breaker = {
  straggler : float;
  window : int;
  threshold : float;
  cooldown : Sim.Time.t;
}

let breaker_knobs d =
  let make straggler window threshold cooldown =
    { straggler; window; threshold; cooldown }
  in
  Term.(const make
        $ opt ~docv:"F" Arg.float d.straggler "straggler-factor"
            "Escalate a host attempt after F x its expected duration."
        $ opt ~docv:"K" Arg.int d.window "breaker-window"
            "Circuit-breaker rolling window (last K attempts)."
        $ opt ~docv:"F" Arg.float d.threshold "breaker-threshold"
            "Trip when failures/K reaches F."
        $ opt ~docv:"SECONDS" seconds d.cooldown "breaker-cooldown"
            "Pause admission for this long after a trip.")

(* --- checkpoint (campaign, controlplane, serve) --- *)

type checkpoint = { save_to : string option; resume_from : string option }

let checkpoint ~flag ~save_doc ~resume_doc =
  Term.(const (fun save_to resume_from -> { save_to; resume_from })
        $ path_arg flag save_doc $ path_arg "resume-from" resume_doc)

(* Run fresh, or resume from [--resume-from].  On either outcome print
   it, write the checkpoint ([describe] names it) and flush the sinks;
   the verb then picks its exit code from the result. *)
let checkpointed ck rc ~decode ~resume ~run ~print ~describe =
  let result =
    match ck.resume_from with
    | Some path -> resume (load_artifact decode path)
    | None -> run ()
  in
  print result;
  Option.iter (fun path -> save path (describe result)) ck.save_to;
  rc.flush ();
  result

(* --- cve --- *)

let cve_cmd =
  let action =
    Arg.(value & pos 0 (enum [ ("table", `Table); ("show", `Show); ("windows", `Windows) ]) `Table
         & info [] ~docv:"ACTION" ~doc:"table | show | windows")
  in
  let id =
    Arg.(value & pos 1 string "" & info [] ~docv:"CVE-ID" ~doc:"CVE identifier for 'show'.")
  in
  let run action id =
    match action with
    | `Table ->
      let rows = Cve.Nvd.table1 () in
      Format.printf "year   xen crit/med   kvm crit/med   common@.";
      List.iter
        (fun (r : Cve.Nvd.table1_row) ->
          Format.printf "%4d   %3d / %3d      %3d / %3d      %d / %d@."
            r.row_year r.xen_crit r.xen_med r.kvm_crit r.kvm_med
            r.common_crit r.common_med)
        rows
    | `Windows ->
      Format.printf "KVM: %a@." Cve.Window.pp_stats (Cve.Window.kvm_stats ());
      Format.printf "Xen: %a@." Cve.Window.pp_stats (Cve.Window.xen_stats ())
    | `Show -> (
      match Cve.Nvd.find id with
      | Some r ->
        Format.printf "%a@." Cve.Nvd.pp_record r;
        Format.printf "advice for a Xen fleet: %a@." Cve.Window.pp_advice
          (Cve.Window.advise ~fleet:[ "xen"; "kvm" ] ~current:"xen" r);
        Format.printf "advice for a KVM fleet: %a@." Cve.Window.pp_advice
          (Cve.Window.advise ~fleet:[ "xen"; "kvm" ] ~current:"kvm" r)
      | None ->
        Format.eprintf "unknown CVE %s@." id;
        exit 1)
  in
  Cmd.v (Cmd.info "cve" ~doc:"Query the vulnerability study (Table 1, section 2.2)")
    Term.(const run $ action $ id)

(* --- inplace --- *)

let inplace_cmd =
  let run () (h, target) rc =
    let host = provision h in
    let report = Hypertp.Api.transplant_inplace ~ctx:rc.ctx ~host ~target () in
    Format.printf "%a@." Hypertp.Inplace.pp_report report;
    Format.printf "fixups:@.";
    List.iter
      (fun (vm, fixes) -> Format.printf "  %s: %a@." vm Uisr.Fixup.pp_list fixes)
      report.fixups;
    Option.iter (Format.printf "%a@." Audit.pp_report) report.Hypertp.Inplace.audit;
    print_fault_trace rc.ctx;
    rc.flush ();
    if not (Hypertp.Inplace.all_ok report.checks) then exit 2
  in
  Cmd.v
    (Cmd.info "inplace" ~doc:"Run an InPlaceTP micro-reboot transplant")
    Term.(const run $ verbose_arg $ transplant ~distinct:true ()
          $ run_ctx ~audit:audit_flag ())

(* --- migrate --- *)

let migrate_cmd =
  let run () (h, target) rc =
    let src = provision h in
    let dst = destination h ~name:"cli-dst" target in
    let report = Hypertp.Api.transplant_migration ~ctx:rc.ctx ~src ~dst () in
    Format.printf "%a@." Hypertp.Migrate.pp_report report;
    Option.iter (Format.printf "%a@." Audit.pp_report) report.Hypertp.Migrate.audit;
    print_fault_trace rc.ctx;
    rc.flush ();
    if not report.Hypertp.Migrate.checks.Hypertp.Migrate.residual_clean then
      exit 2
  in
  Cmd.v
    (Cmd.info "migrate"
       ~doc:"Run a MigrationTP (heterogeneous) or homogeneous live migration")
    Term.(const run $ verbose_arg $ transplant () $ run_ctx ~audit:audit_flag ())

(* --- shadow --- *)

let shadow_cmd =
  let no_ladder =
    flag "no-ladder"
      "Disable the degradation ladder: any pre-swap abort defers (the source \
       keeps serving) instead of falling back to classic MigrationTP on the \
       staged spare."
  in
  let compare_flag =
    flag "compare"
      "Also run classic MigrationTP on an identical pair and print the \
       downtime ratio."
  in
  let run () (h, target) no_ladder compare rc =
    let src = provision h in
    let spare = Hv.Host.create ~name:"cli-spare" h.machine in
    let r =
      Hypertp.Api.transplant_shadow ~ctx:rc.ctx ~ladder:(not no_ladder) ~src
        ~spare ~target ()
    in
    Format.printf "%a@." Hypertp.Migrate.pp_shadow_report r;
    if compare then begin
      let csrc = provision h in
      let cspare = Hv.Host.create ~name:"cli-spare" h.machine in
      Hv.Host.boot_hypervisor cspare (Hypertp.Api.hypervisor_of target);
      let classic =
        Hypertp.Api.transplant_migration ~ctx:(fresh h.seed) ~src:csrc
          ~dst:cspare ()
      in
      let classic_downtime =
        List.fold_left
          (fun acc (v : Hypertp.Migrate.vm_report) ->
            Sim.Time.max acc v.Hypertp.Migrate.downtime)
          Sim.Time.zero classic.Hypertp.Migrate.per_vm
      in
      Format.printf
        "classic MigrationTP downtime: %a@.shadow/classic downtime ratio: \
         %.3f@."
        Sim.Time.pp classic_downtime
        (Sim.Time.to_sec_f r.Hypertp.Migrate.sh_downtime
        /. Sim.Time.to_sec_f classic_downtime)
    end;
    print_fault_trace rc.ctx;
    rc.flush ();
    if not r.Hypertp.Migrate.sh_source_intact then exit 2
  in
  Cmd.v
    (Cmd.info "shadow"
       ~doc:"Run a shadow-host MigrationTP: pre-stage the target on a \
             spare, stream and converge while the source serves, swap \
             identities atomically; pre-swap faults abort with the source \
             verified intact and walk the degradation ladder")
    Term.(const run $ verbose_arg $ transplant () $ no_ladder $ compare_flag
          $ run_ctx ())

(* --- audit --- *)

let audit_cmd =
  let scrub =
    let arm no_scrub = Some { Hypertp.Ctx.audit_scrub = not no_scrub } in
    Term.(const arm
          $ flag "no-scrub" "Report findings without remediating them.")
  in
  let out =
    path_arg "out"
      "Write the serialized audit report here (deterministic for a fixed \
       seed; the CI golden diffs against it)."
  in
  let run () (h, target) out rc =
    let host = provision h in
    let report = Hypertp.Api.transplant_inplace ~ctx:rc.ctx ~host ~target () in
    let a = Option.get report.Hypertp.Inplace.audit (* armed above *) in
    Format.printf "%a@.outcome: %a@." Audit.pp_report a
      Hypertp.Inplace.pp_outcome report.Hypertp.Inplace.outcome;
    Option.iter (fun path -> save path ("report", Audit.to_string a)) out;
    print_fault_trace rc.ctx;
    (* Exit discipline mirrors the severity ladder on the FINAL world:
       2 = exploitable residue left, 1 = fingerprintable residue left. *)
    if Audit.worst a = Some Audit.Exploitable then exit 2
    else if not (Audit.clean a) then exit 1
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:"Run an audited InPlaceTP transplant and report residual \
             source-hypervisor state (exit 2 if an exploitable finding is \
             left in the final world)")
    Term.(const run $ verbose_arg $ transplant ~distinct:true () $ out
          $ run_ctx ~audit:scrub ~sinks:false ())

(* --- memsep --- *)

let memsep_cmd =
  let run h =
    let host = provision h in
    Format.printf "%a@.%a@." Hv.Host.pp host Hypertp.Memsep.pp
      (Hypertp.Memsep.of_host host)
  in
  Cmd.v
    (Cmd.info "memsep"
       ~doc:"Show the Fig. 2 memory-separation classification of a host")
    Term.(const run $ host)

(* --- cluster --- *)

let cluster_cmd =
  let run (s : shape) =
    let sweep =
      Cluster.Upgrade.sweep ~nodes:s.nodes ~vms_per_node:s.vms_per_node
        ~fractions:[ 0.0; s.fraction ] ()
    in
    match sweep with
    | [ (_, base); (_, t) ] ->
      Format.printf "migration-only baseline: %a@." Cluster.Upgrade.pp_timing base;
      Format.printf "with %.0f%% in-place:      %a@." (100.0 *. s.fraction)
        Cluster.Upgrade.pp_timing t;
      Format.printf "time gain: %.0f%%@."
        (100.0
        *. (1.0
           -. Sim.Time.to_sec_f t.Cluster.Upgrade.total
              /. Sim.Time.to_sec_f base.Cluster.Upgrade.total))
    | _ -> assert false
  in
  Cmd.v
    (Cmd.info "cluster" ~doc:"Plan and time a rolling cluster upgrade (Fig. 13)")
    Term.(const run $ cluster_shape ~fraction:0.8)

(* --- respond --- *)

let respond_cmd =
  let id =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"CVE-ID" ~doc:"The disclosed vulnerability.")
  in
  let apply = flag "apply" "Actually run the transplant." in
  let run h id apply =
    let host = provision h in
    let mode = if apply then `Apply else `Advise in
    let r = Hypertp.Api.respond_to_cve ~host ~cve_id:id ~mode () in
    Format.printf "advice: %a@." Cve.Window.pp_advice r.advice;
    match r.outcome with
    | `Applied report -> Format.printf "%a@." Hypertp.Inplace.pp_report report
    | `Advised target ->
      Format.printf "(advice only; pass --apply to transplant to %a)@."
        Hv.Kind.pp target
    | `No_action -> Format.printf "(no transplant performed)@."
    | `No_safe_alternative ->
      Format.printf "(no safe alternative in the repertoire)@."
  in
  Cmd.v
    (Cmd.info "respond" ~doc:"One-click CVE response (Fig. 1b)")
    Term.(const run $ host $ id $ apply)

(* --- snapshot --- *)

let snapshot_cmd =
  let file =
    Arg.(required & opt (some string) None
         & info [ "file"; "f" ] ~docv:"PATH" ~doc:"Snapshot file.")
  in
  let action =
    Arg.(value & pos 0 (enum [ ("save", `Save); ("restore", `Restore) ]) `Save
         & info [] ~docv:"ACTION" ~doc:"save | restore")
  in
  let run action file (h, target) =
    match action with
    | `Save ->
      let snap = Hypertp.Snapshot.capture (provision h) "vm0" in
      let blob = Hypertp.Snapshot.to_bytes snap in
      write_file file (Bytes.unsafe_to_string blob);
      Format.printf "saved %s (%d bytes, %d bytes of guest memory) to %s@."
        (Hypertp.Snapshot.vm_name snap) (Bytes.length blob)
        (Hypertp.Snapshot.memory_bytes snap) file
    | `Restore -> (
      match Hypertp.Snapshot.of_bytes (Bytes.of_string (read_file file)) with
      | Error e ->
        Format.eprintf "cannot restore: %s@." e;
        exit 1
      | Ok snap ->
        let host =
          Hypertp.Api.provision ~seed:h.seed ~name:"restore-host"
            ~machine:h.machine ~hv:target []
        in
        let fixups = Hypertp.Snapshot.restore snap host in
        Format.printf
          "restored %s (suspended under %s) onto %s@.fixups: %a@."
          (Hypertp.Snapshot.vm_name snap)
          (Hypertp.Snapshot.source_hypervisor snap)
          (Hv.Host.hypervisor_name host) Uisr.Fixup.pp_list fixups)
  in
  Cmd.v
    (Cmd.info "snapshot"
       ~doc:"Suspend a VM to a file and resume it under any hypervisor")
    Term.(const run $ action $ file $ transplant ())

(* --- fault-campaign --- *)

let fault_campaign_cmd =
  let list_flag =
    flag "list"
      "List every injection site with its consulting engine and the valid \
       trigger forms, without running anything."
  in
  let list_sites () =
    (* Triggers are uniform across sites: parse_injection accepts
       site:N (fire on the Nth hit), site:p=F (per-hit probability) and
       site:vm=NAME (fire for that VM only). *)
    Format.printf "%-24s %-14s %s@." "site" "consulted by"
      "valid triggers (--fault site:TRIGGER[,seed=N])";
    let row engine site =
      Format.printf "%-24s %-14s %s@."
        (Fault.site_to_string site) engine "N | p=F | vm=NAME"
    in
    let link = [ Fault.Migration_link_drop; Fault.Migration_link_degrade ] in
    List.iter (row "inplace")
      (List.filter (fun s -> not (List.mem s link)) Fault.engine_sites);
    List.iter (row "migration") link;
    List.iter (row "shadow") Fault.shadow_sites;
    List.iter (row "campaign") Fault.cluster_sites;
    List.iter (row "controlplane") Fault.controlplane_sites;
    List.iter (row "stream") Fault.stream_sites
  in
  (* One run per engine-level injection site, fault fired on its first
     hit: the exhaustive deterministic campaign.  Every row runs before
     the table prints, so a host that cannot be provisioned leaves
     stdout empty.  Cluster-level sites are listed separately — they
     are consulted by the campaign controller, not by a single
     transplant. *)
  let run_campaign ((h : host), target) =
    let armed site =
      Hypertp.Ctx.with_fault
        (Fault.make ~seed:h.seed [ { Fault.site; trigger = Fault.Nth_hit 1 } ])
        (fresh h.seed)
    in
    let row site engine alive outcome =
      Format.asprintf "%-24s %-12s %d/%-8d %s" (Fault.site_to_string site)
        engine alive h.vms outcome
    in
    let engine_row site =
      match site with
      | Fault.Migration_link_drop | Fault.Migration_link_degrade ->
        let src = provision h in
        let dst = destination h ~name:"c-dst" target in
        let r =
          Hypertp.Api.transplant_migration ~ctx:(armed site) ~src ~dst ()
        in
        row site "migration"
          (Hv.Host.vm_count src + Hv.Host.vm_count dst)
          (String.concat "; "
             (List.map
                (fun (v : Hypertp.Migrate.vm_report) ->
                  Format.asprintf "%s %a" v.vm_name Hypertp.Migrate.pp_outcome
                    v.outcome)
                r.Hypertp.Migrate.per_vm))
      | _ ->
        let host = provision h in
        let r =
          Hypertp.Api.transplant_inplace ~ctx:(armed site) ~host ~target ()
        in
        row site "inplace" (Hv.Host.vm_count host)
          (Format.asprintf "%a" Hypertp.Inplace.pp_outcome
             r.Hypertp.Inplace.outcome)
    in
    (* Shadow sites, against the shadow-host engine: every one is
       pre-swap, so the source must survive each abort and the report
       must name the rung of the degradation ladder actually taken. *)
    let shadow_row site =
      let src = provision h in
      let spare = Hv.Host.create ~name:"c-spare" h.machine in
      let r =
        Hypertp.Api.transplant_shadow ~ctx:(armed site) ~src ~spare ~target ()
      in
      row site "shadow"
        (Hv.Host.vm_count src + Hv.Host.vm_count spare)
        (Format.asprintf "%a%s" Hypertp.Migrate.pp_shadow_strategy
           r.Hypertp.Migrate.sh_strategy
           (if r.Hypertp.Migrate.sh_source_intact then ""
            else " [SOURCE DAMAGED]"))
    in
    let engine_rows = List.map engine_row Fault.engine_sites in
    let shadow_rows = List.map shadow_row Fault.shadow_sites in
    Format.printf "%-24s %-12s %-10s %s@." "site" "engine" "survival" "outcome";
    List.iter (Format.printf "%s@.") (engine_rows @ shadow_rows);
    let sites l = String.concat ", " (List.map Fault.site_to_string l) in
    Format.printf
      "@.cluster-level sites (exercised by 'campaign --fault' and 'campaign \
       --sweep', not per-transplant): %s@."
      (sites Fault.cluster_sites);
    Format.printf
      "control-plane sites (exercised by 'controlplane --fault' against the \
       hierarchical root/sub-controller supervisor): %s@."
      (sites Fault.controlplane_sites);
    Format.printf
      "stream sites (exercised by 'serve --fault' against the CVE-stream \
       campaign service): %s@."
      (sites Fault.stream_sites)
  in
  let run transplant list =
    if list then list_sites () else run_campaign transplant
  in
  Cmd.v
    (Cmd.info "fault-campaign"
       ~doc:"Exhaustive fault-injection campaign: one transplant per \
             injection site, printing the outcome and VM survival")
    Term.(const run $ transplant () $ list_flag)

(* --- campaign --- *)

let campaign_cmd =
  let module C = Cluster.Campaign in
  let d = C.default_config in
  let concurrency =
    opt Arg.int d.C.concurrency "concurrency"
      "Hosts upgraded in parallel (clamped by spare capacity)."
  in
  let shadow_spares =
    opt Arg.int d.C.shadow_spares "shadow-spares"
      "Staged spare lanes for the shadow-cutover rung of the degradation \
       ladder (0 disables the rung; journals are then byte-identical to \
       pre-shadow campaigns)."
  in
  let topology =
    topology_arg
      ~doc:"Run a region-sharded fleet campaign over this topology instead \
            of a single cluster ($(b,--nodes)/$(b,--vms-per-node) are \
            ignored).  SPEC is $(b,RxHxV) (R regions of H hosts x V VMs) or \
            $(b,name:hosts:vms[:spares[:wire]];...).  Prints the \
            schedule-independent fleet report; $(b,--journal) then writes \
            the concatenated per-region journals."
  in
  let shard_mode =
    Arg.(value & opt (some shard_mode_conv) None
         & info [ "mode"; "shards" ] ~docv:"MODE"
             ~doc:"Shard schedule for $(b,--topology): $(b,seq), \
                   $(b,rotated:K) or $(b,parallel:SxD) (S shards on D \
                   domains).  Results are byte-identical across modes; only \
                   wall-clock changes.")
  in
  let ck =
    checkpoint ~flag:"journal"
      ~save_doc:"Write the campaign journal here (crash or success)."
      ~resume_doc:"Resume a crashed campaign from this journal (cluster \
                   shape and knobs come from the journal; pass the same \
                   $(b,--fault) specs as the original run)."
  in
  let sweep =
    opt ~docv:"P1,P2,..." Arg.(some (list float)) None "sweep"
      "Run one campaign per host-crash probability instead of a single \
       campaign."
  in
  let run () (s : shape) concurrency b shadow_spares topology shard_mode ck
      sweep rc =
    let config =
      { d with
        C.nodes = s.nodes;
        vms_per_node = s.vms_per_node;
        inplace_fraction = s.fraction;
        concurrency;
        straggler_factor = b.straggler;
        breaker_window = b.window;
        breaker_threshold = b.threshold;
        breaker_cooldown = b.cooldown;
        shadow_spares;
        seed = rc.seed }
    in
    match (topology, sweep, ck.resume_from) with
    | Some _, Some _, _ | Some _, _, Some _ ->
      `Error (true, "--topology is incompatible with --sweep and --resume-from")
    | None, _, _ when shard_mode <> None ->
      `Error (true, "--mode requires --topology")
    | Some tp, None, None ->
      let fr = C.run_fleet ~ctx:rc.ctx ~topology:tp config in
      Format.printf "%a@." C.pp_fleet fr;
      Option.iter
        (fun path ->
          save path ("fleet journals", C.fleet_journals_to_string fr))
        ck.save_to;
      `Ok ()
    | None, Some probabilities, _ ->
      let rows = C.sweep ~config ~probabilities () in
      Format.printf "%-6s %-10s %-9s %-9s %-8s %s@." "p" "wall" "exposed-hh"
        "deferred" "trips" "statuses";
      List.iter
        (fun (p, (r : C.report)) ->
          let count st =
            List.length (List.filter (fun h -> h.C.hr_status = st) r.C.hosts)
          in
          Format.printf "%-6.2f %-10s %-9.3f %-9d %-8d %d/%d/%d/%d/%d@." p
            (Sim.Time.to_string r.C.wall_clock)
            r.C.exposed_host_hours (List.length r.C.deferred) r.C.breaker_trips
            (count C.Upgraded_inplace) (count C.Shadow_cutover)
            (count C.Drained) (count C.Deferred_resolved)
            (count C.Deferred_exposed))
        rows;
      `Ok ()
    | None, None, _ ->
      let print = function
        | C.Finished (r, _) ->
          Format.printf "%a@." C.pp_report r;
          List.iter
            (fun h -> Format.printf "  %a@." C.pp_host_record h)
            r.C.hosts
        | C.Crashed j ->
          Format.printf
            "controller crashed after %d journaled events; resume with \
             --resume-from@."
            (C.journal_length j)
      in
      let describe (C.Finished (_, j) | C.Crashed j) =
        ( Printf.sprintf "journal (%d entries)" (C.journal_length j),
          C.journal_to_string j )
      in
      ignore
        (checkpointed ck rc ~decode:C.journal_of_string
           ~resume:(C.resume ~ctx:rc.ctx)
           ~run:(fun () -> C.run ~ctx:rc.ctx config)
           ~print ~describe);
      `Ok ()
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:"Run a supervised rolling-transplant campaign on the event \
             engine: admission control, straggler deadlines, degradation \
             ladder, circuit breaker, checkpoint/resume")
    Term.(ret
            (const run $ verbose_arg $ cluster_shape ~fraction:1.0 $ concurrency
             $ breaker_knobs
                 { straggler = d.C.straggler_factor;
                   window = d.C.breaker_window;
                   threshold = d.C.breaker_threshold;
                   cooldown = d.C.breaker_cooldown }
             $ shadow_spares $ topology $ shard_mode $ ck $ sweep
             $ run_ctx ~mode:shard_mode ()))

(* --- controlplane --- *)

let controlplane_cmd =
  let module CP = Cluster.Controlplane in
  let d = CP.default_config in
  let regions =
    opt Arg.int d.CP.regions "regions"
      "Regions, each run by its own sub-controller."
  in
  let hosts_per_region =
    opt Arg.int d.CP.hosts_per_region "hosts-per-region" "Hosts per region."
  in
  let vms_per_host =
    opt Arg.int d.CP.vms_per_host "vms-per-host"
      "VMs riding through each in-place upgrade."
  in
  let concurrency =
    opt Arg.int d.CP.global_concurrency "concurrency"
      "Fleet-wide admission budget, split across regions and reallocated as \
       regions finish."
  in
  let hb_every =
    opt ~docv:"SECONDS" seconds d.CP.heartbeat_every "hb-every"
      "Sub-controller heartbeat period."
  in
  let hb_timeout =
    opt ~docv:"SECONDS" seconds d.CP.heartbeat_timeout "hb-timeout"
      "The root declares a sub-controller dead after this much heartbeat \
       silence and rebuilds it from its journal."
  in
  let realloc_lag =
    opt ~docv:"SECONDS" seconds d.CP.realloc_lag "realloc-lag"
      "Lease delay before a finished region's admission slots take effect \
       elsewhere; must be at least hb-timeout + 2 x hb-every."
  in
  let topology =
    topology_arg
      ~doc:"Take the region grid from this topology spec ($(b,RxHxV) or \
            $(b,name:hosts:vms;...)) instead of \
            $(b,--regions)/$(b,--hosts-per-region)/$(b,--vms-per-host).  \
            Must be uniform: every region the same hosts x VMs."
  in
  let ck =
    checkpoint ~flag:"bundle"
      ~save_doc:"Write the region journals (the leader-handoff bundle) \
                 here, on success or on a root crash."
      ~resume_doc:"Leader handoff: rebuild the global view from this bundle \
                   and drive the campaign to completion.  Pass the same \
                   host-site $(b,--fault) specs (and seed) as the crashed \
                   run; control-plane triggers (root_crash, ...) are not \
                   cursor-tracked and may be dropped so the new leader does \
                   not die the same death."
  in
  let timeline =
    flag "timeline"
      "Print the merged journal (all regions, one line per entry) after the \
       run."
  in
  let run () regions hosts_per_region vms_per_host concurrency b hb_every
      hb_timeout realloc_lag topology ck timeline rc =
    let config =
      { d with
        CP.regions;
        hosts_per_region;
        vms_per_host;
        global_concurrency = concurrency;
        straggler_factor = b.straggler;
        breaker_window = b.window;
        breaker_threshold = b.threshold;
        breaker_cooldown = b.cooldown;
        heartbeat_every = hb_every;
        heartbeat_timeout = hb_timeout;
        realloc_lag;
        seed = rc.seed }
    in
    let config =
      Option.fold ~none:config ~some:(fun tp -> CP.config_of_topology tp config)
        topology
    in
    let print = function
      | CP.Finished (r, b) ->
        print_string (CP.summary r);
        if timeline then print_string (CP.merged_to_string b)
      | CP.Crashed b ->
        Format.printf
          "root supervisor died with %d journaled events; hand off with \
           --resume-from@."
          (CP.bundle_length b)
    in
    let describe (CP.Finished (_, b) | CP.Crashed b) =
      ( Printf.sprintf "bundle (%d entries across %d regions)"
          (CP.bundle_length b) (CP.bundle_config b).CP.regions,
        CP.bundle_to_string b )
    in
    match
      checkpointed ck rc ~decode:CP.bundle_of_string
        ~resume:(CP.resume ~ctx:rc.ctx)
        ~run:(fun () -> CP.run ~ctx:rc.ctx config)
        ~print ~describe
    with
    | CP.Finished _ -> ()
    | CP.Crashed _ -> exit 2
  in
  Cmd.v
    (Cmd.info "controlplane"
       ~doc:"Run the replicated hierarchical control plane: regional \
             sub-controllers with private journals under a root supervisor \
             with heartbeat detection; survives sub-controller crashes, \
             supervision partitions, root crashes and crashes during resume \
             with a byte-identical final report")
    Term.(const run $ verbose_arg $ regions $ hosts_per_region $ vms_per_host
          $ concurrency
          $ breaker_knobs
              { straggler = d.CP.straggler_factor;
                window = d.CP.breaker_window;
                threshold = d.CP.breaker_threshold;
                cooldown = d.CP.breaker_cooldown }
          $ hb_every $ hb_timeout $ realloc_lag $ topology $ ck $ timeline
          $ run_ctx ())

(* --- serve --- *)

let serve_cmd =
  let module S = Stream.Service in
  let d = S.default_config in
  let years =
    opt ~docv:"Y" Arg.float d.S.years "years"
      "Virtual years of CVE traffic to serve."
  in
  let hosts =
    opt (count 0) (d.S.mix.S.xen_hosts + d.S.mix.S.kvm_hosts) "hosts"
      "Xen+KVM fleet size, split evenly (Xen gets the odd host)."
  in
  let bhyve_hosts =
    opt Arg.int d.S.mix.S.bhyve_hosts "bhyve-hosts"
      "Hosts whose home hypervisor is bhyve, on top of $(b,--hosts)."
  in
  let vms_per_host =
    opt Arg.int d.S.vms_per_host "vms-per-host"
      "VMs riding through each host transplant."
  in
  let rate =
    opt ~docv:"R" Arg.float d.S.rate_per_year "rate"
      "Mean CVE arrivals per year across the taxonomy classes."
  in
  let policy =
    opt ~docv:"KIND"
      (Arg.enum
         (List.map
            (fun k -> (Stream.Policy.kind_to_string k, k))
            Stream.Policy.all_kinds))
      d.S.policy "policy"
      "Mitigation policy: $(b,cost-aware), $(b,transplant-all) \
       or $(b,defer-all)."
  in
  let tempo =
    opt ~docv:"F" Arg.float d.S.tempo "tempo"
      "Operational stretch: one simulated campaign second occupies F calendar \
       seconds (maintenance windows, soak gates)."
  in
  let concurrency =
    opt Arg.int d.S.concurrency "concurrency"
      "Hosts upgraded in parallel within a campaign."
  in
  let batch_days =
    opt ~docv:"D" Arg.float d.S.batch_days "batch-days"
      "Admission tick: arrivals are drained every D virtual days."
  in
  let preempt =
    flag "preempt"
      "Let every critical arrival preempt in-flight campaigns on its \
       population (otherwise only the $(b,campaign_preempt) fault site does)."
  in
  let topology =
    topology_arg
      ~doc:"Take the host populations from this topology's regions, mapped \
            by name onto the repertoire (e.g. $(b,xen:20:4;kvm:16:4)); \
            overrides $(b,--hosts)/$(b,--bhyve-hosts)/$(b,--vms-per-host) \
            (the VM density comes from the first region)."
  in
  let ck =
    checkpoint ~flag:"journal"
      ~save_doc:"Write the service journal here (crash or success)."
      ~resume_doc:"Resume a crashed service from this journal (config and \
                   seed come from the journal; pass the same $(b,--fault) \
                   specs as the original run)."
  in
  let run () years hosts bhyve_hosts vms_per_host topology rate policy tempo
      concurrency batch_days preempt ck rc =
    let mix, vms_per_host =
      match topology with
      | Some tp ->
        ( S.mix_of_topology tp,
          (Cluster.Topology.regions tp).(0).Cluster.Topology.rg_vms_per_host )
      | None ->
        ( { S.xen_hosts = (hosts + 1) / 2; kvm_hosts = hosts / 2; bhyve_hosts },
          vms_per_host )
    in
    let config =
      { d with
        S.years;
        mix;
        vms_per_host;
        rate_per_year = rate;
        policy;
        tempo;
        concurrency;
        batch_days;
        preempt;
        seed = rc.seed }
    in
    (* The one engine without a [?ctx]: unpack the context by hand. *)
    let { Hypertp.Ctx.fault; obs; metrics; _ } = rc.ctx in
    let print = function
      | S.Finished (r, _) -> Format.printf "%a@." S.pp_report r
      | S.Crashed j ->
        Format.printf
          "service crashed after %d journaled events; resume with \
           --resume-from@."
          (S.journal_length j)
    in
    let describe (S.Finished (_, j) | S.Crashed j) =
      ( Printf.sprintf "journal (%d entries)" (S.journal_length j),
        S.journal_to_string j )
    in
    match
      checkpointed ck rc ~decode:S.journal_of_string
        ~resume:(S.resume ?fault ?obs ?metrics)
        ~run:(fun () -> S.run ?fault ?obs ?metrics config)
        ~print ~describe
    with
    | S.Finished (r, _) when r.S.uncovered_critical > 0 ->
      Format.eprintf
        "serve: %d critical windows stayed uncovered though a campaign was \
         cheaper@."
        r.S.uncovered_critical;
      exit 2
    | S.Finished _ -> ()
    | S.Crashed _ -> exit 3
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the CVE-stream campaign service: a seeded multi-year \
             vulnerability stream against a static fleet, with cost-aware \
             per-CVE decisions, contention-safe campaign booking, \
             preemption and a crash-survivable journal (exit 2 if any \
             critical window stayed uncovered though a campaign was \
             cheaper, 3 on a controller crash)")
    Term.(const run $ verbose_arg $ years $ hosts $ bhyve_hosts
          $ vms_per_host $ topology $ rate $ policy $ tempo $ concurrency
          $ batch_days $ preempt $ ck $ run_ctx ())

(* --- fleet --- *)

let fleet_cmd =
  let id =
    Arg.(value & pos 0 string "CVE-2016-6258"
         & info [] ~docv:"CVE-ID" ~doc:"The disclosed vulnerability.")
  in
  let hosts =
    opt Arg.int 8 "hosts" "Fleet size: a flat fleet of N hosts x 4 VMs (N >= 2)."
  in
  let topology =
    topology_arg
      ~doc:"Region-aware fleet shape ($(b,RxHxV) or \
            $(b,name:hosts:vms;...)); overrides $(b,--hosts) and sets each \
            host's VM density from its region."
  in
  let run id hosts topology =
    let topology =
      match topology with
      | Some t -> t
      | None -> Cluster.Topology.flat ~hosts ~vms_per_host:4
    in
    let o = Cluster.Fleet.simulate ~topology ~cve_id:id () in
    Array.iter
      (fun (at, ev) ->
        match ev with
        | Cluster.Fleet.Disclosed id ->
          Format.printf "%8.0fs  disclosed %s@." (Sim.Time.to_sec_f at) id
        | Cluster.Fleet.Host_transplanted { host; to_hv; downtime } ->
          Format.printf "%8.0fs  %s -> %s (downtime %a)@."
            (Sim.Time.to_sec_f at) host to_hv Sim.Time.pp downtime
        | Cluster.Fleet.Patch_released ->
          Format.printf "%8.0fs  patch released@." (Sim.Time.to_sec_f at)
        | Cluster.Fleet.Host_patched { host; downtime } ->
          Format.printf "%8.0fs  %s patched (downtime %a)@."
            (Sim.Time.to_sec_f at) host Sim.Time.pp downtime)
      o.Cluster.Fleet.events;
    Format.printf "%a@." Cluster.Fleet.pp_outcome o
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:"Simulate the Fig. 1 vulnerability-window timeline on a fleet")
    Term.(const run $ id $ hosts $ topology)

(* --- verify --- *)

let verify_cmd =
  let file =
    Arg.(value & opt (some string) None
         & info [ "file"; "f" ] ~docv:"PATH"
             ~doc:"UISR blob to verify; omit to verify a freshly generated \
                   one (seeded).")
  in
  let corrupt =
    let sections =
      [ ("vm_info", Uisr.Codec.tag_vm_info); ("vcpu", Uisr.Codec.tag_vcpu);
        ("ioapic", Uisr.Codec.tag_ioapic); ("pit", Uisr.Codec.tag_pit);
        ("devices", Uisr.Codec.tag_devices); ("memmap", Uisr.Codec.tag_memmap) ]
    in
    opt ~docv:"SECTION" Arg.(some (enum sections)) None "corrupt"
      "Flip a payload byte in that section before verifying (demonstrates \
       salvage vs quarantine)."
  in
  let run file corrupt seed =
    let blob =
      match file with
      | Some path -> Bytes.of_string (read_file path)
      | None -> Integrity.Gen.blob ~seed ()
    in
    let blob =
      match corrupt with
      | None -> blob
      | Some tag -> Uisr.Codec.corrupt_section ~tag blob
    in
    let report = Uisr.Codec.decode_verified blob in
    Format.printf "%a@." Uisr.Integrity.pp_report report;
    match report.Uisr.Integrity.verdict with
    | Uisr.Integrity.Intact | Uisr.Integrity.Salvaged _ -> ()
    | Uisr.Integrity.Rejected _ -> exit 1
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Run the salvage decoder over a UISR blob and print its \
             integrity report (exit 1 on a quarantine verdict)")
    Term.(const run $ file $ corrupt $ seed_arg)

(* --- fuzz --- *)

let fuzz_cmd =
  let cases =
    opt (count 1) 500 "cases" "Mutated payloads to run."
  in
  let run cases vcpus seed =
    let stats = Integrity.Fuzz.run ~vcpus ~seed ~cases () in
    Format.printf "%a@." Integrity.Fuzz.pp stats;
    if not (Integrity.Fuzz.ok stats) then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Seeded corruption campaign against the salvage decoder (exit 1 \
             if any mutant raises or is accepted as pristine)")
    Term.(const run $ cases $ vcpus_arg $ seed_arg)

let () =
  let info =
    Cmd.info "hypertp-cli" ~version:"1.0.0"
      ~doc:"HyperTP: hypervisor transplant simulator (EuroSys'21 reproduction)"
  in
  (* ~catch:false so structured simulator errors reach our handler and
     render uniformly instead of as cmdliner backtraces. *)
  try
    exit
      (Cmd.eval ~catch:false
         (Cmd.group info
            [ cve_cmd; inplace_cmd; migrate_cmd; shadow_cmd; audit_cmd;
              memsep_cmd; cluster_cmd; campaign_cmd; controlplane_cmd;
              respond_cmd; fleet_cmd; serve_cmd; snapshot_cmd; fault_campaign_cmd;
              verify_cmd; fuzz_cmd ]))
  with Hypertp.Error.Error e ->
    Format.eprintf "hypertp-cli: %s@." (Hypertp.Error.to_string e);
    exit 3
