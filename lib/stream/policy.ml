(* Per-CVE, per-population mitigation decisions.

   The lattice: [Transplant_all] always moves when somewhere safe
   exists, [Defer_all] never moves, [Cost_aware] compares the two
   exposures — the realized campaign simulation against waiting out the
   patch delay — and takes the cheaper.  Because the cost-aware choice
   is the exact minimum of the two other policies' per-episode
   exposures (computed on the same cohort with the same campaign seed),
   it can never score worse than either baseline. *)

type kind = Cost_aware | Transplant_all | Defer_all

let all_kinds = [ Cost_aware; Transplant_all; Defer_all ]

let kind_to_string = function
  | Cost_aware -> "cost-aware"
  | Transplant_all -> "transplant-all"
  | Defer_all -> "defer-all"

let kind_of_string = function
  | "cost-aware" -> Some Cost_aware
  | "transplant-all" -> Some Transplant_all
  | "defer-all" -> Some Defer_all
  | _ -> None

let pp_kind fmt k = Format.pp_print_string fmt (kind_to_string k)

type action =
  | Transplant of string
  | Wait
  | Defer

let action_to_string = function
  | Transplant hv -> "transplant:" ^ hv
  | Wait -> "wait"
  | Defer -> "defer"

let action_of_string s =
  match String.index_opt s ':' with
  | Some i when String.equal (String.sub s 0 i) "transplant" ->
    Some (Transplant (String.sub s (i + 1) (String.length s - i - 1)))
  | _ -> ( match s with "wait" -> Some Wait | "defer" -> Some Defer | _ -> None)

let pp_action fmt a = Format.pp_print_string fmt (action_to_string a)

let decide kind ~advice ~transplant_hh ~wait_hh =
  match (advice, kind) with
  | Cve.Window.No_action, _ -> Wait
  | Cve.Window.No_safe_alternative, _ -> Defer
  | Cve.Window.Transplant_to _, Defer_all -> Defer
  | Cve.Window.Transplant_to hv, Transplant_all -> Transplant hv
  | Cve.Window.Transplant_to hv, Cost_aware -> (
    (* Strict inequality: on a tie the wait branch is the exact
       defer-all exposure, so ties keep the dominance bound. *)
    match transplant_hh with
    | Some t when t < wait_hh -> Transplant hv
    | Some _ | None -> Wait)

(* A scalar, simulation-free transplant estimate for the coverage
   audit: campaign wall ~ serial batches of the expected host upgrade,
   stretched by the operational tempo; the average host is covered at
   half the wall. *)
let scalar_transplant_hh ~hosts ~vms_per_host ~concurrency ~tempo =
  if hosts <= 0 then 0.0
  else begin
    let per_host =
      Hypertp.Costs.expected_host_upgrade_seconds ~boot_seconds:30.0
        ~vms:vms_per_host
    in
    let batches =
      float_of_int ((hosts + concurrency - 1) / Stdlib.max 1 concurrency)
    in
    let wall_hours = per_host *. batches *. tempo /. 3600.0 in
    float_of_int hosts *. wall_hours /. 2.0
  end
