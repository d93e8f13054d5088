type action =
  | Migrate of { vm : Model.vm; src : string; dst : string }
  | Take_offline of string
  | Upgrade_inplace of { node : string; vms_in_place : int }
  | Bring_online of string

type plan = {
  actions : action array; (* execution order; built once, scanned many times *)
  migration_count : int;
  inplace_vm_count : int;
}

(* Soft spread constraint: the planner avoids piling more than
   vms_per_node + 2 VMs on one node while a neighbour drains. *)
let soft_cap model =
  let nodes = List.length model.Model.nodes in
  let vms = Model.total_vms model in
  (vms / Stdlib.max 1 nodes) + 2

(* Pick a destination for an evicted VM.  Upgraded nodes are preferred:
   a VM parked on a not-yet-upgraded node would have to move again when
   that node's turn comes (the planner's "keep transplantable VMs
   together" filter of section 4.5.2). *)
let pick_destination model ~cap ~excluding vm =
  let candidates =
    List.filter
      (fun n ->
        n.Model.online
        && (not (List.memq n excluding))
        && Model.fits n vm
        && n.Model.placed_count < cap)
      model.Model.nodes
  in
  let upgraded, pending =
    List.partition (fun n -> n.Model.upgraded) candidates
  in
  let least_loaded pool =
    List.fold_left
      (fun best n ->
        match best with
        | None -> Some n
        | Some b ->
          if n.Model.placed_count < b.Model.placed_count then Some n else best)
      None pool
  in
  match least_loaded upgraded with
  | Some n -> Some n
  | None -> least_loaded pending

let plan_upgrade ?(group_size = 1) model =
  if group_size <= 0 then invalid_arg "Btrplace.plan_upgrade: bad group size";
  let cap = soft_cap model in
  let actions = Sim.Vec.create ~capacity:64 (Take_offline "") in
  let migrations = ref 0 in
  let inplace_vms = ref 0 in
  let emit a = Sim.Vec.push actions a in
  let rec groups = function
    | [] -> []
    | nodes ->
      let rec take k = function
        | [] -> ([], [])
        | rest when k = 0 -> ([], rest)
        | n :: rest ->
          let g, others = take (k - 1) rest in
          (n :: g, others)
      in
      let g, rest = take group_size nodes in
      g :: groups rest
  in
  let migrate_off group node =
    let victims =
      List.filter (fun vm -> not vm.Model.inplace_compatible) node.Model.placed
    in
    List.iter
      (fun vm ->
        match pick_destination model ~cap ~excluding:group vm with
        | None ->
          Hypertp_error.raise_errorf ~site:"Btrplace"
            ~hint:"add nodes or raise the in-place fraction"
            "no online node can take evicted VM %s" vm.Model.vm_name
        | Some dst ->
          Model.evict node vm;
          Model.place dst vm;
          incr migrations;
          emit
            (Migrate
               { vm; src = node.Model.node_name; dst = dst.Model.node_name }))
      victims
  in
  List.iter
    (fun group ->
      (* Offline the group: evacuate incompatible VMs first. *)
      List.iter
        (fun node ->
          emit (Take_offline node.Model.node_name);
          node.Model.online <- false)
        group;
      List.iter (fun node -> migrate_off group node) group;
      (* Upgrade in place: remaining VMs ride through the transplant. *)
      List.iter
        (fun node ->
          let staying = node.Model.placed_count in
          inplace_vms := !inplace_vms + staying;
          emit
            (Upgrade_inplace
               { node = node.Model.node_name; vms_in_place = staying });
          node.Model.upgraded <- true;
          node.Model.online <- true;
          emit (Bring_online node.Model.node_name))
        group)
    (groups model.Model.nodes);
  (* Final rebalance: drain any node above the average until the spread
     is within one VM. *)
  let avg =
    (Model.total_vms model + List.length model.Model.nodes - 1)
    / List.length model.Model.nodes
  in
  let continue_balancing = ref true in
  while !continue_balancing do
    let heaviest =
      List.fold_left
        (fun best n ->
          match best with
          | None -> Some n
          | Some b ->
            if n.Model.placed_count > b.Model.placed_count then Some n else best)
        None model.Model.nodes
    in
    let lightest =
      List.fold_left
        (fun best n ->
          match best with
          | None -> Some n
          | Some b ->
            if n.Model.placed_count < b.Model.placed_count then Some n else best)
        None model.Model.nodes
    in
    match (heaviest, lightest) with
    | Some h, Some l
      when h.Model.placed_count > avg
           && h.Model.placed_count - l.Model.placed_count > 1 -> (
      match h.Model.placed with
      | vm :: _ ->
        Model.evict h vm;
        Model.place l vm;
        incr migrations;
        emit
          (Migrate { vm; src = h.Model.node_name; dst = l.Model.node_name })
      | [] -> continue_balancing := false)
    | _ -> continue_balancing := false
  done;
  {
    actions = Sim.Vec.to_array actions;
    migration_count = !migrations;
    inplace_vm_count = !inplace_vms;
  }

(* --- per-host strategy selection --- *)

type host_strategy = Use_inplace | Use_shadow | Use_migrate | Use_defer

type strategy_choice = {
  sc_node : string;
  sc_strategy : host_strategy;
  sc_wire_bytes : Hw.Units.bytes_;
  sc_vms : int;
}

type strategy_plan = {
  choices : strategy_choice list;
  shadow_lanes : int;
  wire_total : Hw.Units.bytes_;
  n_inplace : int;
  n_shadow : int;
  n_migrate : int;
  n_defer : int;
}

(* Wire-cost factors relative to the RAM actually moved.  The shadow
   stream pays the full checkpoint plus the dirty-page replay rounds
   (~25 % overhead at the paper's workload mix); a classic stop-and-copy
   migration only retransmits what dirties during the single downtime
   window (~10 %). *)
let shadow_wire_factor = 1.25
let migrate_wire_factor = 1.10

let choose_strategies ?(spare_hosts = 0) ?wire_budget model =
  if spare_hosts < 0 then
    invalid_arg "Btrplace.choose_strategies: negative spare_hosts";
  (match wire_budget with
  | Some b when b < 0 ->
    invalid_arg "Btrplace.choose_strategies: negative wire_budget"
  | _ -> ());
  let remaining =
    ref (match wire_budget with Some b -> b | None -> max_int)
  in
  let wire factor bytes = int_of_float (factor *. float_of_int bytes) in
  let choose node =
    let incompatible =
      List.filter
        (fun v -> not v.Model.inplace_compatible)
        node.Model.placed
    in
    let strategy, cost =
      if incompatible = [] then (Use_inplace, 0)
      else begin
        (* Shadow moves the whole placement onto a staged spare for a
           near-zero cutover; classic MigrationTP only evacuates the
           incompatible VMs and lets the rest ride InPlaceTP.  Shadow is
           preferred whenever a spare lane exists and its (larger) wire
           cost still fits; with no lane or no budget headroom the host
           degrades to classic, then to defer. *)
        let shadow_cost = wire shadow_wire_factor (Model.used_ram node) in
        let migrate_cost =
          wire migrate_wire_factor
            (List.fold_left (fun acc v -> acc + v.Model.ram) 0 incompatible)
        in
        if spare_hosts > 0 && shadow_cost <= !remaining then
          (Use_shadow, shadow_cost)
        else if migrate_cost <= !remaining then (Use_migrate, migrate_cost)
        else (Use_defer, 0)
      end
    in
    remaining := !remaining - cost;
    {
      sc_node = node.Model.node_name;
      sc_strategy = strategy;
      sc_wire_bytes = cost;
      sc_vms = node.Model.placed_count;
    }
  in
  let choices = List.map choose model.Model.nodes in
  let count s =
    List.length (List.filter (fun c -> c.sc_strategy = s) choices)
  in
  {
    choices;
    shadow_lanes = spare_hosts;
    wire_total = List.fold_left (fun acc c -> acc + c.sc_wire_bytes) 0 choices;
    n_inplace = count Use_inplace;
    n_shadow = count Use_shadow;
    n_migrate = count Use_migrate;
    n_defer = count Use_defer;
  }

let strategy_to_string = function
  | Use_inplace -> "inplace"
  | Use_shadow -> "shadow"
  | Use_migrate -> "migrate"
  | Use_defer -> "defer"

let pp_host_strategy fmt s = Format.pp_print_string fmt (strategy_to_string s)

let pp_strategy_plan fmt p =
  Format.fprintf fmt
    "strategies: %d inplace, %d shadow, %d migrate, %d deferred (%d spare \
     lane%s, %.2f GiB on the wire)"
    p.n_inplace p.n_shadow p.n_migrate p.n_defer p.shadow_lanes
    (if p.shadow_lanes = 1 then "" else "s")
    (float_of_int p.wire_total /. float_of_int (Hw.Units.gib 1))

let max_concurrent_drains model =
  (* How many hosts may be offline at once such that, in the worst case,
     every offline host's full VM load can be parked on the remaining
     online nodes.  Conservative on both sides: drains are charged their
     whole placement (the fallback path drains even in-place VMs), and
     the k candidate drain nodes are the heaviest-loaded while the spare
     capacity lost to them is the largest free shares. *)
  let n = List.length model.Model.nodes in
  let used_desc = Array.make n 0 and free_desc = Array.make n 0 in
  let total_free = ref 0 in
  List.iteri
    (fun i node ->
      used_desc.(i) <- Model.used_ram node;
      let f = Model.free_ram node in
      free_desc.(i) <- f;
      total_free := !total_free + f)
    model.Model.nodes;
  (* Descending; the intermediate sorted lists used to cost ~6 words a
     node, noticeable when every region shard rebuilds them. *)
  let desc a b = compare b a in
  Array.sort desc used_desc;
  Array.sort desc free_desc;
  let total_free = !total_free in
  (* Running prefix sums: each widening step extends the previous
     demand/lost-spare totals by one node instead of re-summing the
     whole prefix, so the search is O(n) after sorting. *)
  let rec widen k demand lost_spare =
    if k >= n then Stdlib.max 1 (n - 1)
    else begin
      let demand = demand + used_desc.(k - 1) in
      let lost_spare = lost_spare + free_desc.(k - 1) in
      if demand <= total_free - lost_spare then widen (k + 1) demand lost_spare
      else Stdlib.max 1 (k - 1)
    end
  in
  widen 1 0 0

let capacity_safe model =
  List.for_all
    (fun n -> Model.used_ram n <= n.Model.ram_capacity)
    model.Model.nodes

let pp_plan fmt p =
  Format.fprintf fmt "plan: %d actions, %d migrations, %d VMs upgraded in place"
    (Array.length p.actions) p.migration_count p.inplace_vm_count
