(** Abstract cluster model for reconfiguration planning (section 5.4).

    Planning works on a lightweight view of the datacenter — nodes with
    capacities and VM placements — because the planner only needs shapes
    and counts; the per-machine mechanics are exercised by the `hypertp`
    machine-scale paths and by the Nova driver on real simulated
    hosts. *)

type vm = {
  vm_name : string;
  ram : Hw.Units.bytes_;
  inplace_compatible : bool;
  workload : Vmstate.Vm.workload_kind;
}

type node = {
  node_name : string;
  ram_capacity : Hw.Units.bytes_;
  mutable placed : vm list;
  mutable placed_count : int;
      (** always [List.length placed]; cached so planners probing
          thousands of candidate nodes stay O(1) per probe.  Mutate
          placements only through {!place}/{!evict}, which keep it (and
          {!used_ram}) in sync. *)
  mutable used_bytes : Hw.Units.bytes_;
      (** always the sum of [placed] RAM — same contract as
          [placed_count] *)
  mutable upgraded : bool;
  mutable online : bool;
}

type t = { nodes : node list }

val make :
  ?seed:int64 -> nodes:int -> vms_per_node:int -> vm_ram:Hw.Units.bytes_ ->
  node_ram:Hw.Units.bytes_ -> inplace_fraction:float ->
  workload_mix:(Vmstate.Vm.workload_kind * float) list -> unit -> t
(** Build the paper's cluster: [nodes] hosts each holding
    [vms_per_node] VMs; [inplace_fraction] of all VMs tolerate a few
    seconds of downtime; workloads are drawn from the mix (fractions
    must sum to 1).  Raises [Hypertp.Error.Error] (site ["Model"]) on
    non-positive sizes, a fraction outside [0, 1] or a mix that does
    not sum to 1. *)

val used_ram : node -> Hw.Units.bytes_
val free_ram : node -> Hw.Units.bytes_
val fits : node -> vm -> bool
val place : node -> vm -> unit
val evict : node -> vm -> unit
val find_node : t -> string -> node
val total_vms : t -> int
val pp : Format.formatter -> t -> unit
