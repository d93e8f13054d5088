(* Plumbing the three transplant engines ([Inplace.run], [Migrate.run],
   [Migrate.run_shadow]) share: the fault hook, the VM-name prologue and
   the post-commit residual-audit rung.  Private to the library; each
   engine keeps only its own escalation on top. *)

(* Log and count one injected fault.  Split from [fire] for sites that
   a callee consults on the engine's behalf (the shadow stream walk). *)
let note_fault ~engine (c : Ctx.t) ?vm site =
  Log.warn (fun m ->
      m "fault injected at %a%s" Fault.pp_site site
        (match vm with Some v -> " (" ^ v ^ ")" | None -> ""));
  Otrace.count c.Ctx.metrics
    ~labels:
      [ ("engine", engine); ("site", Format.asprintf "%a" Fault.pp_site site) ]
    "hypertp_faults_total"

(* Consult [c]'s fault plan at [site]; a firing is logged and counted. *)
let fire ~engine (c : Ctx.t) ?vm site =
  match c.Ctx.fault with
  | None -> false
  | Some f ->
    let fired = Fault.fire f ?vm site in
    if fired then note_fault ~engine c ?vm site;
    fired

(* The VMs to move: [names] (default: every VM on [host]), each known
   to [host] and named once.  Raises [Invalid_argument] before anything
   is touched. *)
let vm_names ~who host names =
  let names =
    match names with Some l -> l | None -> Hv.Host.vm_names host
  in
  if names = [] then invalid_arg (who ^ ": no VMs to transplant");
  ignore
    (List.fold_left
       (fun seen n ->
         if Hv.Host.find_vm host n = None then
           invalid_arg (who ^ ": unknown VM " ^ n);
         if List.mem n seen then invalid_arg (who ^ ": duplicate VM " ^ n);
         n :: seen)
       [] names);
  names

type scrub_outcome =
  | No_scrub  (** the first sweep was clean, or scrubbing is off *)
  | Scrub_failed  (** findings left in place: the [scrub_fail] site fired *)
  | Rescanned of Audit.report  (** scrubbed; the re-sweep's report *)

(* The post-commit residual-audit rung over [host]'s world: sweep it
   against fresh-boot references of [target] and [source], after
   planting [plants] when the [residual_leak] site fires; on findings,
   scrub and re-sweep unless scrubbing is off or [scrub_fail] fires.
   Every sweep and scrub is charged through [charge name attrs seconds].
   Returns the first sweep's report and what the scrub came to. *)
let audit_rung ~fire ~charge ~(acfg : Ctx.audit_config) ~what ~source ~target
    ~baseline ~downtime ?salvaged ~plants host =
  let machine = host.Hv.Host.machine in
  let reference = Audit.reference_of_fresh_boot ~machine target in
  let source = Audit.reference_of_fresh_boot ~machine source in
  let world = Audit.world ~baseline ~downtime ?salvaged host in
  let world =
    if fire Fault.Residual_leak then
      Audit.Plant.apply ~reference ~source world plants
    else world
  in
  let sweep w =
    let r = Audit.run ~reference ~source w in
    charge "audit"
      [ ("findings", string_of_int (List.length r.Audit.r_findings)) ]
      (Costs.audit_sweep_seconds machine ~frames_swept:r.Audit.r_frames_swept
         ~vms:(List.length (Hv.Host.vms host)));
    r
  in
  let first = sweep world in
  if Audit.clean first then (first, No_scrub)
  else begin
    let findings = List.length first.Audit.r_findings in
    Log.warn (fun m -> m "%s audit: %d residual finding(s)" what findings);
    if not acfg.Ctx.audit_scrub then (first, No_scrub)
    else if fire Fault.Scrub_fail then (first, Scrub_failed)
    else begin
      let sc = Audit.scrub world first in
      charge "scrub"
        [ ("freed", string_of_int sc.Audit.sc_frames_freed) ]
        (Costs.scrub_seconds machine ~frames_freed:sc.Audit.sc_frames_freed
           ~findings);
      (first, Rescanned (sweep sc.Audit.sc_world))
    end
  end
