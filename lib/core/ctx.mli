(** Unified run context for engine entry points.

    [Ctx.t] bundles the seven cross-cutting knobs of a run:

    - [options] — InPlaceTP optimisation toggles ({!Options.t})
    - [rng] — deterministic random stream ([None] = engine default)
    - [fault] — fault-injection plan
    - [obs] — span tracer
    - [metrics] — metrics registry
    - [audit] — arms the post-commit residual-audit rung
    - [sharding] — region-shard schedule of fleet entry points

    Thread one [?ctx] value through {!Api.transplant_inplace},
    {!Api.transplant_migration}, {!Api.transplant_shadow},
    {!Api.respond_to_cve}, {!Inplace.run}, {!Migrate.run},
    {!Migrate.run_shadow}, [Upgrade.*] and [Campaign.run]/[resume]
    instead of repeating the argument list.  The three transplant
    engines read [fault] and [metrics] through one shared fault hook
    (each firing is logged and counted as [hypertp_faults_total]) and
    [audit] through one shared audit rung; the shadow cutover's
    degradation ladder is the engine's own [?ladder] argument, not a
    context field.  The old per-argument forms still work
    (deprecated): when both are given, the explicit legacy argument
    overrides the corresponding [ctx] field, and either spelling
    produces byte-identical reports, traces and metrics for the same
    seed (pinned by the Ctx-equivalence tests). *)

type audit_config = {
  audit_scrub : bool;
      (** scrub-and-recheck on findings (default); [false] reports the
          findings but leaves the residue in place *)
}

val audit_default : audit_config
(** Scrub enabled. *)

type sharding = Sim.Shard.mode =
  | Sequential
  | Rotated of int
  | Parallel of { shards : int; domains : int }
(** Region-shard schedule for fleet-level entry points
    ({!Sim.Shard.mode}, re-exported so call sites can write
    [Ctx.Parallel {shards; domains}]).  All modes are byte-identical
    for the same seed; the knob only trades wall-clock. *)

type t = {
  options : Options.t;
  rng : Sim.Rng.t option;
  fault : Fault.t option;
  obs : Obs.Tracer.t option;
  metrics : Obs.Metrics.t option;
  audit : audit_config option;
      (** [Some _] arms the post-commit residual audit rung in
          {!Inplace.run} and {!Migrate.run}; [None] (the default) skips
          it entirely, so default runs stay byte-identical to previous
          releases *)
  sharding : sharding;
      (** region-shard schedule for fleet entry points
          ([Campaign.run_fleet] and the sharded benchmarks);
          [Sequential] is the default and what every legacy entry
          point resolves to, pinned byte-identical *)
}

val default : t
(** [Options.default] and no rng/fault/obs/metrics/audit — exactly the
    behaviour of calling an entry point with no optional arguments. *)

val make :
  ?options:Options.t -> ?rng:Sim.Rng.t -> ?fault:Fault.t ->
  ?obs:Obs.Tracer.t -> ?metrics:Obs.Metrics.t -> ?audit:audit_config ->
  ?sharding:sharding -> unit -> t

val with_rng : Sim.Rng.t -> t -> t
val with_fault : Fault.t -> t -> t
val with_sharding : sharding -> t -> t

val resolve :
  ?ctx:t -> ?options:Options.t -> ?rng:Sim.Rng.t -> ?fault:Fault.t ->
  ?obs:Obs.Tracer.t -> ?metrics:Obs.Metrics.t -> ?audit:audit_config ->
  ?sharding:sharding -> unit -> t
(** Merge legacy optional arguments over [ctx] (default {!default});
    an explicit legacy argument wins over the [ctx] field.  Engines
    call this once at their boundary. *)
