(* The unified run context.  Every engine entry point used to take the
   same five optional arguments (options, rng, fault, obs, metrics);
   [Ctx.t] bundles them so call sites thread one value and new knobs
   can be added without touching every signature.

   [resolve] implements the compatibility contract: legacy optional
   arguments, when given, override the corresponding [ctx] field, so
   the deprecated entry points are thin wrappers that delegate here
   and produce byte-identical behaviour. *)

type audit_config = { audit_scrub : bool }

let audit_default = { audit_scrub = true }

type sharding = Sim.Shard.mode =
  | Sequential
  | Rotated of int
  | Parallel of { shards : int; domains : int }

type t = {
  options : Options.t;  (** InPlaceTP optimisation toggles *)
  rng : Sim.Rng.t option;  (** [None] means each engine's default stream *)
  fault : Fault.t option;
  obs : Obs.Tracer.t option;
  metrics : Obs.Metrics.t option;
  audit : audit_config option;
      (** [Some _] arms the post-commit residual audit; [None] (the
          default) skips it, keeping default runs byte-identical *)
  sharding : sharding;
      (** region-shard schedule for fleet-level entry points;
          [Sequential] (the default) is what every legacy entry point
          resolves to, and all modes are byte-identical for the same
          seed — the knob only trades wall-clock *)
}

let default =
  { options = Options.default; rng = None; fault = None; obs = None;
    metrics = None; audit = None; sharding = Sequential }

let make ?(options = Options.default) ?rng ?fault ?obs ?metrics ?audit
    ?(sharding = Sequential) () =
  { options; rng; fault; obs; metrics; audit; sharding }

let with_rng rng t = { t with rng = Some rng }
let with_fault fault t = { t with fault = Some fault }
let with_sharding sharding t = { t with sharding }

let resolve ?ctx ?options ?rng ?fault ?obs ?metrics ?audit ?sharding () =
  let base = match ctx with Some c -> c | None -> default in
  {
    options = (match options with Some o -> o | None -> base.options);
    rng = (match rng with Some _ -> rng | None -> base.rng);
    fault = (match fault with Some _ -> fault | None -> base.fault);
    obs = (match obs with Some _ -> obs | None -> base.obs);
    metrics = (match metrics with Some _ -> metrics | None -> base.metrics);
    audit = (match audit with Some _ -> audit | None -> base.audit);
    sharding = (match sharding with Some s -> s | None -> base.sharding);
  }
