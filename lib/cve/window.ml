type stats = {
  count : int;
  mean_days : float;
  min_days : int;
  max_days : int;
  over_60_fraction : float;
}

let stats_of windows =
  match windows with
  | [] -> invalid_arg "Window.stats_of: no documented windows"
  | _ ->
    let count = List.length windows in
    let sum = List.fold_left ( + ) 0 windows in
    let over_60 = List.length (List.filter (fun w -> w > 60) windows) in
    {
      count;
      mean_days = float_of_int sum /. float_of_int count;
      min_days = List.fold_left Stdlib.min max_int windows;
      max_days = List.fold_left Stdlib.max 0 windows;
      over_60_fraction = float_of_int over_60 /. float_of_int count;
    }

let documented_windows affected =
  List.filter_map
    (fun r -> if affected r then r.Nvd.window_days else None)
    Nvd.all

let kvm_stats () = stats_of (documented_windows Nvd.affects_kvm)
let xen_stats () = stats_of (documented_windows Nvd.affects_xen)

type advice =
  | No_action
  | Transplant_to of string
  | No_safe_alternative

let affects_name (r : Nvd.record) = function
  | "xen" -> Nvd.affects_xen r
  | "kvm" -> Nvd.affects_kvm r
  | "bhyve" ->
    (* The studied dataset is a Xen/KVM history; bhyve shares neither
       codebase.  Only their common QEMU-derived device emulation could
       overlap, which bhyve does not use. *)
    false
  | other -> invalid_arg ("Window.advise: unknown hypervisor " ^ other)

let advise ~fleet ~current (r : Nvd.record) =
  if Nvd.is_hardware_level r then
    (* Spectre-class flaws live in the CPU: every hypervisor in any
       repertoire runs on the same silicon.  Transplant cannot help. *)
    No_safe_alternative
  else if not (affects_name r current) then No_action
  else if r.severity <> Cvss.Critical then No_action
  else begin
    let safe =
      List.find_opt
        (fun hv -> (not (String.equal hv current)) && not (affects_name r hv))
        fleet
    in
    match safe with
    | Some hv -> Transplant_to hv
    | None -> No_safe_alternative
  end

let affected r hv = affects_name r hv

(* Patch-availability delays for synthetic streams, drawn from the
   documented window statistics: a coordinated-disclosure mass (the
   patch ships with the advisory, as with most XSAs) plus the Red Hat
   empirical window set, jittered.  Exactly two RNG draws per call, so
   seeded streams stay aligned whichever branch is taken. *)
let empirical_windows () = documented_windows Nvd.affects_kvm

let sample_patch_delay ~rng ?(coordinated_fraction = 0.3) () =
  if coordinated_fraction < 0.0 || coordinated_fraction > 1.0 then
    invalid_arg "Window.sample_patch_delay: fraction outside [0, 1]";
  let u = Sim.Rng.float rng 1.0 in
  if u < coordinated_fraction then 0.25 +. Sim.Rng.float rng 2.75
  else begin
    let windows = Array.of_list (empirical_windows ()) in
    let w = windows.(Sim.Rng.int rng (Array.length windows)) in
    float_of_int w *. (0.8 +. 0.4 *. (u -. coordinated_fraction)
                              /. (1.0 -. coordinated_fraction))
  end

let transplants_needed_per_year ~fleet ~current =
  let years = List.sort_uniq Int.compare (List.map (fun r -> r.Nvd.year) Nvd.all) in
  List.map
    (fun year ->
      let n =
        List.length
          (List.filter
             (fun r ->
               r.Nvd.year = year
               &&
               match advise ~fleet ~current r with
               | Transplant_to _ -> true
               | No_action | No_safe_alternative -> false)
             Nvd.all)
      in
      (year, n))
    years

let pp_stats fmt s =
  Format.fprintf fmt
    "%d windows: mean %.1f days, min %d, max %d, %.0f%% over 60 days" s.count
    s.mean_days s.min_days s.max_days (100.0 *. s.over_60_fraction)

let pp_advice fmt = function
  | No_action -> Format.pp_print_string fmt "no action needed"
  | Transplant_to hv -> Format.fprintf fmt "transplant to %s" hv
  | No_safe_alternative -> Format.pp_print_string fmt "no safe alternative"
