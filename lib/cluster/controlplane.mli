(** Replicated hierarchical control plane: crash-survivable campaigns
    at fleet scale.

    The fleet is partitioned into regions.  Each region is run by a
    {e sub-controller} that owns its own append-only journal, circuit
    breaker and admission budget — a scaled-down {!Campaign} controller.
    A {e root supervisor} allocates the global concurrency budget across
    regions, collects sub-controller heartbeats on the simulation
    engine's timer surface ({!Sim.Engine.schedule_every}), and detects
    sub-controller death by heartbeat timeout.

    {b No root-private state is load-bearing.}  Everything the root
    knows — which regions have finished, who holds reallocated
    admission slots, where each in-flight attempt stands — is re-derived
    from the surviving sub-journals: recovery of a crashed
    sub-controller replays its journal and then catches up to the
    present, and a root crash aborts the incarnation with a {!bundle}
    of the sub-journals from which {!resume} (leader handoff) rebuilds
    the entire global view.

    {b Timeline neutrality.}  Every journal entry is stamped with the
    event's {e derived} logical time — a pure function of the journal
    prefix and the config — never with the engine clock at the moment
    the entry happened to be written.  A sub-controller recovered after
    a detection delay writes its backlog with the original stamps, so
    for any seeded schedule of crashes, partitions and resumes
    (including a crash in the middle of a resume replay) the final
    report and merged journal are byte-identical to the uninterrupted
    run.  The property-based tests pin exactly this invariant.

    Control-plane fault sites ({!Fault.controlplane_sites}) are
    consulted on a caller-supplied plan that is deliberately {e not}
    cursor-tracked in the journals: a chaotic run's journals stay
    byte-identical to a calm run's.  Per-host fault decisions are drawn
    from {e per-region derived plans} (seeded from the caller plan's
    seed and the region index), so cross-region interleaving never
    perturbs a region's fault stream. *)

type config = {
  regions : int;  (** number of sub-controllers *)
  hosts_per_region : int;
      (** [regions x hosts_per_region] is at most 1,000,000 *)
  vms_per_host : int;  (** VMs riding through each in-place upgrade *)
  global_concurrency : int;
      (** fleet-wide admission budget, split evenly across regions
          (remainder to the lowest indices) and reallocated as regions
          finish *)
  straggler_factor : float;  (** deadline = factor x expected, >= 1.2 *)
  breaker_window : int;  (** 1 to 62 *)
  breaker_threshold : float;
  breaker_cooldown : Sim.Time.t;
  jitter_pct : float;  (** success-time jitter, <= 0.1 *)
  drain_flakiness : float;  (** per-host probability a fallback drain fails *)
  heartbeat_every : Sim.Time.t;  (** sub-controller heartbeat period *)
  heartbeat_timeout : Sim.Time.t;
      (** root declares a sub-controller dead after this much silence;
          must exceed [heartbeat_every] *)
  realloc_lag : Sim.Time.t;
      (** lease delay between a region finishing and its admission
          slots taking effect elsewhere; must be at least
          [heartbeat_timeout + 2 x heartbeat_every] so a reallocation
          never lands inside the detection window of the region that
          granted it *)
  seed : int64;  (** drives drain coins and success jitter *)
}

val default_config : config
(** 4 regions x 25 hosts, 8 VMs/host, global concurrency 8, heartbeats
    every 5s with a 12s timeout, reallocation lag 22s. *)

val config_of_topology : Topology.t -> config -> config
(** [base] with its region grid replaced by [topology]'s shape.  The
    control plane splits its admission budget over equal regions, so
    the topology must be uniform (every region the same hosts x VMs);
    raises [Hypertp.Error.Error] (site ["Controlplane"]) otherwise —
    use [Campaign.run_fleet] for ragged fleets. *)

type step = Inplace | Drain
type manifestation = Campaign_kernel.manifestation = Crash | Timeout | Flap

type host_status =
  | Upgraded_inplace
  | Drained  (** in-place failed; fallback drain + reboot succeeded *)
  | Deferred_exposed  (** both rungs failed; still on the old hypervisor *)

type event =
  | Admitted of step
  | Flap_failure  (** first flap leg: host failed, then recovered *)
  | Straggler_cancelled
  | Attempt_failed of { step : step; manifestation : manifestation }
  | Attempt_completed of step
  | Breaker_opened
  | Breaker_half_opened
  | Breaker_closed
  | Limit_raised of { from_region : int; slots : int }
      (** a finished region's admission slots arriving, [realloc_lag]
          after its finish stamp *)
  | Region_finished

type host_record = {
  h_name : string;  (** ["r<region>-h<index>"] *)
  h_status : host_status;
  h_attempts : int;
  h_manifestations : manifestation list;
  h_done_at : Sim.Time.t;
  h_exposure_hours : float;
}

type region_report = {
  rr_region : int;
  rr_hosts : host_record list;
  rr_finished_at : Sim.Time.t;
  rr_breaker_trips : int;
  rr_deferred : string list;
}

type report = {
  cp_cfg : config;
  cp_regions : region_report list;
  cp_wall_clock : Sim.Time.t;  (** latest region finish stamp *)
  cp_exposed_host_hours : float;
  cp_baseline_exposed_host_hours : float;
  cp_hosts_inplace : int;
  cp_hosts_drained : int;
  cp_hosts_exposed : int;
}
(** Reports carry {e only} timeline-derived data.  Supervision
    accounting — restarts, spurious restarts, partitions, handoffs — is
    deliberately kept out (it lives in the metrics registry), because
    the byte-identity invariant says a chaotic run's report equals the
    calm run's. *)

val summary : report -> string
(** A stable multi-line rendering, suitable for golden tests. *)

type bundle
(** The durable state of one incarnation: the config plus every
    region's journal.  This is all a new leader needs. *)

val bundle_config : bundle -> config
val bundle_length : bundle -> int
(** Total entries across all region journals. *)

val merged_to_string : bundle -> string
(** The global campaign timeline: all region journals merged by
    (stamp, region, in-region order), one line per entry.  Two bundles
    from byte-identical runs merge to byte-identical strings. *)

val bundle_to_string : bundle -> string
(** Self-describing text serialisation (config + per-region entries);
    round-trips through {!bundle_of_string}. *)

val bundle_of_string : string -> (bundle, string) result
(** Inverse of {!bundle_to_string}.  The config is validated as {!run}
    validates it, and its region count must match the bundle's region
    headers, before any region is allocated. *)

type run_result =
  | Finished of report * bundle
  | Crashed of bundle
      (** the root supervisor died ([Root_crash], or
          [Crash_during_resume] while it was recovering a
          sub-controller); hand the bundle to {!resume} *)

val run :
  ?ctx:Hypertp.Ctx.t ->
  ?fault:Fault.t ->
  ?obs:Obs.Tracer.t ->
  ?metrics:Obs.Metrics.t ->
  config ->
  run_result
(** Run a fresh campaign.  [fault] arms both the per-host sites
    (Host_flap / Host_crash / Host_timeout, re-seeded per region) and
    the control-plane sites ([Subctl_crash] consulted per sub-controller
    journal append, [Root_crash] per root heartbeat tick,
    [Ctl_partition] per heartbeat receipt, [Crash_during_resume] per
    entry replayed during any recovery).  Sub-controller crashes and
    partitions are absorbed {e inside} the run by heartbeat detection
    and journal recovery; only a root death surfaces as [Crashed]. *)

val resume :
  ?ctx:Hypertp.Ctx.t ->
  ?fault:Fault.t ->
  ?obs:Obs.Tracer.t ->
  ?metrics:Obs.Metrics.t ->
  bundle ->
  run_result
(** Leader handoff: replay every region journal (re-validating each
    region's derived fault cursor), re-emit the merged timeline to
    [obs], finish any settle the crash interrupted, and drive the
    campaign to completion.  Unlike the per-host plans, the
    control-plane chaos plan is used {e as given} — not restarted — so
    an [Nth_hit] on [Crash_during_resume] fires once across a
    run/resume chain instead of re-killing every resume (pass the same
    plan value you passed to {!run}). *)

val run_to_completion :
  ?ctx:Hypertp.Ctx.t ->
  ?fault:Fault.t ->
  ?obs:Obs.Tracer.t ->
  ?metrics:Obs.Metrics.t ->
  config ->
  report
(** [run] then [resume] until [Finished], threading one chaos plan
    through the whole chain. *)
