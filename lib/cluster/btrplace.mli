(** BtrPlace-style reconfiguration planning (Hermenier et al. [20]).

    The cluster upgrade of section 5.4: hosts are taken offline in
    groups; VMs that cannot tolerate InPlaceTP downtime are migrated to
    online hosts under capacity constraints, the host is upgraded
    (InPlaceTP transplants the remaining VMs with it), and the next
    group follows.  A final rebalance restores an even spread.  The plan
    lists every action in execution order. *)

type action =
  | Migrate of { vm : Model.vm; src : string; dst : string }
  | Take_offline of string
  | Upgrade_inplace of { node : string; vms_in_place : int }
  | Bring_online of string

type plan = {
  actions : action array;  (** every action, in execution order *)
  migration_count : int;
  inplace_vm_count : int; (** VMs upgraded without moving *)
}

val plan_upgrade : ?group_size:int -> Model.t -> plan
(** Generate and {e apply} the rolling-upgrade plan on the model (the
    model ends fully upgraded and rebalanced).  Raises [Hypertp.Error.Error]
    (site ["Btrplace"], naming the VM) if an evicted VM cannot be placed
    anywhere.  Default group size 1. *)

val capacity_safe : Model.t -> bool
(** No node over capacity, every VM placed exactly once. *)

(** {1 Per-host strategy selection}

    The transplant repertoire grew a third option: besides InPlaceTP
    (kexec micro-reboot) and classic MigrationTP (stop-and-copy
    evacuation of the InPlaceTP-incompatible VMs), a host can be
    retired by a {e shadow-host cutover} — the whole placement streamed
    onto a pre-staged spare and swapped with near-zero downtime.
    {!choose_strategies} picks per host under two budgets. *)

type host_strategy =
  | Use_inplace  (** every VM rides InPlaceTP; no wire cost *)
  | Use_shadow
      (** whole placement streamed to a staged spare; near-zero cutover
          downtime at ~1.25x the placement's RAM on the wire *)
  | Use_migrate
      (** classic MigrationTP for the incompatible VMs only (~1.10x
          their RAM); the rest ride InPlaceTP's blackout *)
  | Use_defer  (** no budget left; host stays on the vulnerable hv *)

type strategy_choice = {
  sc_node : string;
  sc_strategy : host_strategy;
  sc_wire_bytes : Hw.Units.bytes_;  (** estimated wire cost, 0 for
                                        inplace/defer *)
  sc_vms : int;  (** VMs placed on the host at planning time *)
}

type strategy_plan = {
  choices : strategy_choice list;  (** in model node order *)
  shadow_lanes : int;  (** the [spare_hosts] bound: concurrent shadow
                           pipelines, not a per-host consumable — a
                           cutover frees its source as the next spare *)
  wire_total : Hw.Units.bytes_;
  n_inplace : int;
  n_shadow : int;
  n_migrate : int;
  n_defer : int;
}

val choose_strategies :
  ?spare_hosts:int -> ?wire_budget:Hw.Units.bytes_ -> Model.t -> strategy_plan
(** Planning-only (the model is not mutated): walk the nodes in order
    and pick the cheapest-downtime strategy that fits.  A host whose
    placement is fully InPlaceTP-compatible always takes {!Use_inplace}.
    Otherwise shadow is preferred when [spare_hosts > 0] and its wire
    estimate fits the remaining [wire_budget]; then classic
    {!Use_migrate}; then {!Use_defer}.  Defaults — [spare_hosts = 0],
    unbounded [wire_budget] — reproduce the pre-shadow behaviour
    (inplace or migrate only, nothing deferred).  Raises
    [Invalid_argument] on a negative budget. *)

val strategy_to_string : host_strategy -> string
val pp_host_strategy : Format.formatter -> host_strategy -> unit
val pp_strategy_plan : Format.formatter -> strategy_plan -> unit

val max_concurrent_drains : Model.t -> int
(** Capacity-aware admission bound for a supervised rolling upgrade:
    the largest number of hosts that may drain simultaneously while the
    remaining online nodes can still absorb their whole VM load (the
    fallback path drains even InPlaceTP-compatible VMs, so each
    draining host is charged its full placement).  Always at least 1 —
    with no spare capacity at all the plan itself would have raised
    (site ["Btrplace"]). *)

val pp_plan : Format.formatter -> plan -> unit
