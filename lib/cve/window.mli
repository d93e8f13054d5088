(** Vulnerability-window statistics (section 2.2) and the transplant
    decision (section 1).

    A vulnerability window is the time between a flaw's identification
    and the patched hypervisor running in the datacenter; HyperTP exists
    to cover exactly this interval. *)

type stats = {
  count : int;
  mean_days : float;
  min_days : int;
  max_days : int;
  over_60_fraction : float;
}

val kvm_stats : unit -> stats
(** Statistics over the KVM vulnerabilities with documented windows
    (Red Hat tracker subset: avg 71 days, 60%+ above 60 days). *)

val xen_stats : unit -> stats

type advice =
  | No_action            (** severity below the transplant threshold *)
  | Transplant_to of string  (** a safe alternate hypervisor exists *)
  | No_safe_alternative  (** every hypervisor in the fleet is affected *)

val advise : fleet:string list -> current:string -> Nvd.record -> advice
(** The operator's decision procedure: on a critical flaw affecting
    [current], pick the first fleet member not affected by it.
    [fleet]/[current] use "xen" / "kvm" names. *)

val affected : Nvd.record -> string -> bool
(** Whether the record affects the named hypervisor ("xen" / "kvm" /
    "bhyve" — bhyve shares neither studied codebase, so it is never
    affected).  Raises [Invalid_argument] on an unknown name. *)

val empirical_windows : unit -> int list
(** The documented vulnerability windows (days) the synthetic streams
    sample patch delays from. *)

val sample_patch_delay :
  rng:Sim.Rng.t -> ?coordinated_fraction:float -> unit -> float
(** Draw a patch-availability delay in days: with probability
    [coordinated_fraction] (default 0.3) the patch ships with the
    advisory (0.25-3 days, the XSA-style coordinated release);
    otherwise one of {!empirical_windows}, jittered +/-20 %.  Exactly
    two RNG draws per call, so seeded streams stay aligned.  Raises
    [Invalid_argument] if the fraction is outside [0, 1]. *)

val transplants_needed_per_year :
  fleet:string list -> current:string -> (int * int) list
(** For each studied year, how many transplants the policy would have
    triggered — the paper's argument that the count stays low. *)

val pp_stats : Format.formatter -> stats -> unit
val pp_advice : Format.formatter -> advice -> unit
