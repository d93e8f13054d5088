(** Cluster-upgrade execution timing (Fig. 13).

    BtrPlace executes migration actions sequentially (the conservative
    setting operators use — cf. Alibaba's 15-day, 45k-VM maintenance
    [59]); host upgrades overlap with the following group's migrations,
    so the wall-clock is dominated by the migration chain plus the last
    upgrade. *)

type timing = {
  migration_count : int;
  inplace_vm_count : int;
  migration_time : Sim.Time.t;   (** sum of sequential migration ops *)
  upgrade_tail : Sim.Time.t;     (** the non-overlapped last host upgrade *)
  total : Sim.Time.t;
}

val migration_op_time :
  nic:Hw.Nic.t -> vm:Model.vm -> Sim.Time.t
(** One live-migration action: setup + pre-copy + stop-and-copy over
    the cluster network.  Memoised on (nic, VM RAM, workload) — see
    {!Hypertp.Costs.Memo} — so fleet-scale planning computes each
    distinct VM profile once. *)

val inplace_host_time : vms:int -> Sim.Time.t
(** One InPlaceTP host upgrade (kexec + restore of [vms] VMs) on a
    cluster node.  Memoised on the riding-VM count. *)

val reboot_host_time : Sim.Time.t
(** Full reboot of a drained host (the migration-only path). *)

val execute : nic:Hw.Nic.t -> Btrplace.plan -> timing

val sweep :
  ?nodes:int -> ?vms_per_node:int -> fractions:float list -> unit ->
  (float * timing) list
(** Run the section 5.4 experiment for each InPlaceTP-compatible
    fraction: 10 nodes x 10 VMs (1 vCPU / 4 GiB; 30 % streaming, 30 %
    CPU+memory, 40 % idle) on a 10 Gbps network. *)

val pp_timing : Format.formatter -> timing -> unit

(** {1 Fault-aware execution}

    Per-host failure handling during the rolling upgrade: an
    InPlaceTP host hit by a {!Fault.Host_crash} either rolled back
    before its point of no return — its VMs are drained with
    MigrationTP and the host rebooted empty — or failed after it and
    was recovered by the ReHype-style ladder at the cost of a full
    reboot.  Either way every VM survives; only wall-clock is lost. *)

type fallback =
  | Migrate_and_reboot  (** pre-PNR rollback: drain via MigrationTP *)
  | Recovered_reboot    (** post-PNR: recovery ladder + full reboot *)

type host_failure = {
  failed_node : string;
  failed_vms : int;
  fallback : fallback;
  added : Sim.Time.t;  (** wall-clock this failure added *)
}

type faulty_timing = {
  base : timing;
  failures : host_failure list;
  vms_inplace_ok : int;         (** upgraded in place, no fault *)
  vms_migrated_fallback : int;  (** drained after a pre-PNR rollback *)
  vms_recovered : int;          (** survived post-PNR recovery *)
  added_time : Sim.Time.t;
  total_with_faults : Sim.Time.t;
}

val vms_accounted : faulty_timing -> int
(** [vms_inplace_ok + vms_migrated_fallback + vms_recovered]; equals
    [base.inplace_vm_count] — no VM is ever lost, only delayed. *)

val execute_faulty :
  ?ctx:Hypertp.Ctx.t -> ?fallback_vm_ram:Hw.Units.bytes_ ->
  ?fallback_workload:Vmstate.Vm.workload_kind -> nic:Hw.Nic.t ->
  Btrplace.plan -> faulty_timing
(** Like {!execute}, but consults the fault plan of [?ctx]
    ({!Hypertp.Ctx.t}) once per in-place host
    upgrade ({!Fault.Host_crash}, the host name as the VM key).  The
    pre/post-PNR split of a failed host is drawn from a per-host RNG
    independent of the plan's stream, so which hosts fail depends only
    on the fault plan's seed and probability. *)

val sweep_faulty :
  ?nodes:int -> ?vms_per_node:int -> ?seed:int64 ->
  probabilities:float list -> unit -> (float * faulty_timing) list
(** Sweep the per-host failure probability over a fully
    InPlaceTP-compatible 10x10 cluster, one fresh fault plan per point,
    all sharing [seed] — so the set of failing hosts grows monotonically
    with the probability and added wall-clock is comparable across
    points. *)

val pp_faulty_timing : Format.formatter -> faulty_timing -> unit
