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
  mutable placed_count : int; (* = List.length placed, maintained by place/evict *)
  mutable used_bytes : Hw.Units.bytes_; (* = sum of placed RAM, ditto *)
  mutable upgraded : bool;
  mutable online : bool;
}

type t = { nodes : node list }

let make ?(seed = 0xC1D2L) ~nodes ~vms_per_node ~vm_ram ~node_ram
    ~inplace_fraction ~workload_mix () =
  let bad fmt = Hypertp_error.raise_errorf ~site:"Model" fmt in
  if nodes <= 0 || vms_per_node <= 0 then
    bad "non-positive sizes (%d nodes x %d VMs per node)" nodes vms_per_node;
  if not (inplace_fraction >= 0.0 && inplace_fraction <= 1.0) then
    bad "inplace fraction %g outside [0, 1]" inplace_fraction;
  let mix_total = List.fold_left (fun acc (_, f) -> acc +. f) 0.0 workload_mix in
  if not (Float.abs (mix_total -. 1.0) <= 1e-6) then
    bad "workload mix sums to %g, not 1" mix_total;
  let rng = Sim.Rng.create seed in
  let total = nodes * vms_per_node in
  let n_inplace =
    int_of_float (Float.round (inplace_fraction *. float_of_int total))
  in
  (* Deterministic workload assignment by cumulative fractions.  The
     per-VM float test [pos < cum] is hoisted into integer boundaries
     (least [i] with [i/total >= cum], found by binary search on the
     same float expression, so the classification is bit-identical to
     the old walk), and the hot loop compares ints — at a million VMs
     the float walk used to dominate [make]. *)
  let bounds =
    let pos i = float_of_int i /. float_of_int total in
    let cum = ref 0.0 in
    List.map
      (fun (w, f) ->
        cum := !cum +. f;
        let c = !cum in
        let lo = ref 0 and hi = ref total in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if pos mid < c then lo := mid + 1 else hi := mid
        done;
        (w, !lo))
      workload_mix
  in
  let workload_of i =
    let rec pick = function
      | [] -> Vmstate.Vm.Wl_idle
      | (w, b) :: rest -> if i < b then w else pick rest
    in
    pick bounds
  in
  (* Names match [Printf.sprintf "vm%03d"] / ["node%02d"] byte-for-byte;
     the sprintf pair allocated ~10x more and was the single largest
     heap cost of building a fleet-scale model. *)
  let vm_name i =
    if i < 10 then "vm00" ^ string_of_int i
    else if i < 100 then "vm0" ^ string_of_int i
    else "vm" ^ string_of_int i
  in
  let node_name j =
    if j < 10 then "node0" ^ string_of_int j else "node" ^ string_of_int j
  in
  (* Spread the InPlaceTP-compatible VMs uniformly across nodes. *)
  let flags = Array.init total (fun i -> i < n_inplace) in
  Sim.Rng.shuffle rng flags;
  let vm i =
    {
      vm_name = vm_name i;
      ram = vm_ram;
      inplace_compatible = flags.(i);
      workload = workload_of i;
    }
  in
  let node j =
    let placed =
      List.init vms_per_node (fun k -> vm ((j * vms_per_node) + k))
    in
    {
      node_name = node_name j;
      ram_capacity = node_ram;
      placed;
      placed_count = vms_per_node;
      used_bytes = List.fold_left (fun acc v -> acc + v.ram) 0 placed;
      upgraded = false;
      online = true;
    }
  in
  { nodes = List.init nodes node }

let used_ram node = node.used_bytes
let free_ram node = node.ram_capacity - node.used_bytes

let fits node vm =
  (* Keep 2 GiB of headroom for the hypervisor and administration OS. *)
  node.online && free_ram node - Hw.Units.gib 2 >= vm.ram

let place node vm =
  node.placed <- vm :: node.placed;
  node.placed_count <- node.placed_count + 1;
  node.used_bytes <- node.used_bytes + vm.ram

let evict node vm =
  if not (List.memq vm node.placed) then
    invalid_arg "Model.evict: VM not placed here";
  node.placed <- List.filter (fun v -> not (v == vm)) node.placed;
  node.placed_count <- node.placed_count - 1;
  node.used_bytes <- node.used_bytes - vm.ram

let find_node t name =
  match List.find_opt (fun n -> String.equal n.node_name name) t.nodes with
  | Some n -> n
  | None -> invalid_arg ("Model.find_node: " ^ name)

let total_vms t = List.fold_left (fun acc n -> acc + n.placed_count) 0 t.nodes

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun n ->
      Format.fprintf fmt "%s: %d VMs (%a used)%s%s@," n.node_name
        n.placed_count Hw.Units.pp_bytes (used_ram n)
        (if n.upgraded then " [upgraded]" else "")
        (if n.online then "" else " [offline]"))
    t.nodes;
  Format.fprintf fmt "@]"
