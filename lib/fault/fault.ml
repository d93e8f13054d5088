type site =
  | Pram_build
  | Uisr_encode
  | Uisr_decode
  | Uisr_corrupt
  | Pram_corrupt
  | Kexec_load
  | Kexec_jump
  | Vm_restore
  | Mgmt_rebuild
  | Residual_leak
  | Scrub_fail
  | Migration_link_drop
  | Migration_link_degrade
  | Shadow_stage_fail
  | Shadow_stream_drop
  | Shadow_diverge
  | Swap_partition
  | Spare_exhausted
  | Host_crash
  | Host_timeout
  | Host_flap
  | Controller_crash
  | Subctl_crash
  | Root_crash
  | Ctl_partition
  | Crash_during_resume
  | Cve_burst
  | Campaign_preempt

let all_sites =
  [ Pram_build; Uisr_encode; Uisr_decode; Uisr_corrupt; Pram_corrupt;
    Kexec_load; Kexec_jump; Vm_restore;
    Mgmt_rebuild; Residual_leak; Scrub_fail;
    Migration_link_drop; Migration_link_degrade;
    Shadow_stage_fail; Shadow_stream_drop; Shadow_diverge; Swap_partition;
    Spare_exhausted; Host_crash;
    Host_timeout; Host_flap; Controller_crash; Subctl_crash; Root_crash;
    Ctl_partition; Crash_during_resume; Cve_burst; Campaign_preempt ]

let engine_sites =
  [ Pram_build; Uisr_encode; Uisr_decode; Uisr_corrupt; Pram_corrupt;
    Kexec_load; Kexec_jump; Vm_restore;
    Mgmt_rebuild; Residual_leak; Scrub_fail;
    Migration_link_drop; Migration_link_degrade; Host_crash ]

let shadow_sites =
  [ Shadow_stage_fail; Shadow_stream_drop; Shadow_diverge; Swap_partition;
    Spare_exhausted ]

let cluster_sites = [ Host_crash; Host_timeout; Host_flap; Controller_crash ]

let controlplane_sites =
  [ Subctl_crash; Root_crash; Ctl_partition; Crash_during_resume ]

let stream_sites = [ Cve_burst; Campaign_preempt ]

let site_to_string = function
  | Pram_build -> "pram_build"
  | Uisr_encode -> "uisr_encode"
  | Uisr_decode -> "uisr_decode"
  | Uisr_corrupt -> "uisr_corrupt"
  | Pram_corrupt -> "pram_corrupt"
  | Kexec_load -> "kexec_load"
  | Kexec_jump -> "kexec_jump"
  | Vm_restore -> "vm_restore"
  | Mgmt_rebuild -> "mgmt_rebuild"
  | Residual_leak -> "residual_leak"
  | Scrub_fail -> "scrub_fail"
  | Migration_link_drop -> "migration_link_drop"
  | Migration_link_degrade -> "migration_link_degrade"
  | Shadow_stage_fail -> "shadow_stage_fail"
  | Shadow_stream_drop -> "shadow_stream_drop"
  | Shadow_diverge -> "shadow_diverge"
  | Swap_partition -> "swap_partition"
  | Spare_exhausted -> "spare_exhausted"
  | Host_crash -> "host_crash"
  | Host_timeout -> "host_timeout"
  | Host_flap -> "host_flap"
  | Controller_crash -> "controller_crash"
  | Subctl_crash -> "subctl_crash"
  | Root_crash -> "root_crash"
  | Ctl_partition -> "ctl_partition"
  | Crash_during_resume -> "crash_during_resume"
  | Cve_burst -> "cve_burst"
  | Campaign_preempt -> "campaign_preempt"

let site_of_string s =
  List.find_opt (fun site -> String.equal (site_to_string site) s) all_sites

let pp_site fmt s = Format.pp_print_string fmt (site_to_string s)

let pre_pnr = function
  | Pram_build | Uisr_encode | Kexec_load -> true
  | Uisr_decode | Uisr_corrupt | Pram_corrupt | Kexec_jump | Vm_restore
  | Mgmt_rebuild | Residual_leak | Scrub_fail
  | Migration_link_drop | Migration_link_degrade
  | Shadow_stage_fail | Shadow_stream_drop | Shadow_diverge | Swap_partition
  | Spare_exhausted | Host_crash
  | Host_timeout | Host_flap | Controller_crash | Subctl_crash | Root_crash
  | Ctl_partition | Crash_during_resume | Cve_burst | Campaign_preempt ->
    false

type trigger =
  | Nth_hit of int
  | On_vm of string
  | Probability of float

type injection = { site : site; trigger : trigger }

type event = {
  ev_site : site;
  ev_vm : string option;
  ev_hit : int;
  ev_fired : bool;
}

type t = {
  plan_injections : injection list;
  plan_seed : int64;
  rng : Sim.Rng.t;
  counters : (site, int) Hashtbl.t;
  mutable events : event list; (* reverse chronological *)
  mutable n_events : int; (* O(1) [List.length events] *)
  mutable fired : int;
}

let default_seed = 0xFA17L

let validate { site; trigger } =
  match trigger with
  | Nth_hit n when n <= 0 ->
    Hypertp_error.raise_errorf ~site:"Fault.make"
      ~hint:"Nth_hit counts hits starting at 1" "%s: Nth_hit must be positive"
      (site_to_string site)
  | Probability p when not (p >= 0.0 && p <= 1.0) ->
    Hypertp_error.raise_errorf ~site:"Fault.make"
      ~hint:"use a probability in [0, 1], e.g. p=0.25"
      "%s: probability outside [0, 1]" (site_to_string site)
  | Nth_hit _ | On_vm _ | Probability _ -> ()

let make ?(seed = default_seed) injections =
  List.iter validate injections;
  {
    plan_injections = injections;
    plan_seed = seed;
    rng = Sim.Rng.create seed;
    counters = Hashtbl.create 8;
    events = [];
    n_events = 0;
    fired = 0;
  }

let restart t = make ~seed:t.plan_seed t.plan_injections
let injections t = t.plan_injections
let seed t = t.plan_seed

let fire t ?vm site =
  let hit = 1 + Option.value ~default:0 (Hashtbl.find_opt t.counters site) in
  Hashtbl.replace t.counters site hit;
  (* Exactly one probability draw per hit of a probability-armed site,
     fired or not, so equal seeds give aligned streams and higher
     probabilities fire on supersets of the same hit sequence. *)
  let armed = List.filter (fun i -> i.site = site) t.plan_injections in
  let draw =
    if List.exists (fun i -> match i.trigger with Probability _ -> true | _ -> false) armed
    then Some (Sim.Rng.float t.rng 1.0)
    else None
  in
  let fired =
    List.exists
      (fun i ->
        match i.trigger with
        | Nth_hit n -> n = hit
        | On_vm name -> (match vm with Some v -> String.equal v name | None -> false)
        | Probability p -> (match draw with Some u -> u < p | None -> false))
      armed
  in
  if fired then t.fired <- t.fired + 1;
  t.events <- { ev_site = site; ev_vm = vm; ev_hit = hit; ev_fired = fired } :: t.events;
  t.n_events <- t.n_events + 1;
  fired

let hits t site = Option.value ~default:0 (Hashtbl.find_opt t.counters site)
let fired_count t = t.fired
let trace t = List.rev t.events
let trace_length t = t.n_events

let pp_trace fmt t =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun e ->
      Format.fprintf fmt "%a#%d%s %s@," pp_site e.ev_site e.ev_hit
        (match e.ev_vm with Some v -> "(" ^ v ^ ")" | None -> "")
        (if e.ev_fired then "FIRED" else "pass"))
    (trace t);
  Format.fprintf fmt "@]"

(* --- CLI parsing --- *)

let parse_trigger s =
  match String.index_opt s '=' with
  | None -> (
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok (Nth_hit n)
    | Some _ -> Error "nth-hit trigger must be positive"
    | None -> Error (Printf.sprintf "bad trigger %S (want N | p=F | vm=NAME)" s))
  | Some i -> (
    let key = String.sub s 0 i in
    let v = String.sub s (i + 1) (String.length s - i - 1) in
    match key with
    | "p" -> (
      match float_of_string_opt v with
      | Some p when p >= 0.0 && p <= 1.0 -> Ok (Probability p)
      | Some _ -> Error "probability outside [0, 1]"
      | None -> Error (Printf.sprintf "bad probability %S" v))
    | "vm" -> if v = "" then Error "empty vm name" else Ok (On_vm v)
    | _ -> Error (Printf.sprintf "unknown trigger key %S (want p= or vm=)" key))

let valid_site_names () = String.concat "|" (List.map site_to_string all_sites)

(* Plain Levenshtein over the short site names; the table is small
   enough that a full matrix per candidate is fine. *)
let edit_distance a b =
  let la = String.length a and lb = String.length b in
  let d = Array.make_matrix (la + 1) (lb + 1) 0 in
  for i = 0 to la do
    d.(i).(0) <- i
  done;
  for j = 0 to lb do
    d.(0).(j) <- j
  done;
  for i = 1 to la do
    for j = 1 to lb do
      let cost = if Char.equal a.[i - 1] b.[j - 1] then 0 else 1 in
      d.(i).(j) <-
        Stdlib.min
          (Stdlib.min (d.(i - 1).(j) + 1) (d.(i).(j - 1) + 1))
          (d.(i - 1).(j - 1) + cost)
    done
  done;
  d.(la).(lb)

let nearest_site s =
  let s = String.lowercase_ascii s in
  fst
    (List.fold_left
       (fun (best, bd) site ->
         let name = site_to_string site in
         let dist = edit_distance s name in
         if dist < bd then (name, dist) else (best, bd))
       ("", Stdlib.max_int) all_sites)

let parse_injection s =
  match String.index_opt s ':' with
  | None ->
    Error
      (Printf.sprintf "bad fault spec %S (want SITE:TRIGGER with SITE one of %s)"
         s (valid_site_names ()))
  | Some i -> (
    let site_s = String.sub s 0 i in
    let trig_s = String.sub s (i + 1) (String.length s - i - 1) in
    match site_of_string site_s with
    | None ->
      Error
        (Printf.sprintf "unknown site %S (did you mean %S? valid sites: %s)"
           site_s (nearest_site site_s) (valid_site_names ()))
    | Some site -> (
      match parse_trigger trig_s with
      | Ok trigger -> Ok { site; trigger }
      | Error e -> Error e))

type spec = { spec_injection : injection; spec_seed : int64 option }

let parse_spec s =
  let parts = String.split_on_char ',' s in
  let inj_part, opts =
    match parts with [] -> ("", []) | hd :: tl -> (hd, tl)
  in
  let seed =
    List.fold_left
      (fun acc opt ->
        match acc with
        | Error _ -> acc
        | Ok _ -> (
          match String.index_opt opt '=' with
          | Some i when String.sub opt 0 i = "seed" -> (
            let v = String.sub opt (i + 1) (String.length opt - i - 1) in
            match Int64.of_string_opt v with
            | Some n -> Ok (Some n)
            | None -> Error (Printf.sprintf "bad seed %S" v))
          | _ -> Error (Printf.sprintf "unknown option %S (want seed=N)" opt)))
      (Ok None) opts
  in
  match (parse_injection inj_part, seed) with
  | Ok spec_injection, Ok spec_seed -> Ok { spec_injection; spec_seed }
  | Error e, _ | _, Error e -> Error e

let of_specs specs =
  let seed =
    List.fold_left
      (fun acc s -> match s.spec_seed with Some v -> v | None -> acc)
      default_seed specs
  in
  make ~seed (List.map (fun s -> s.spec_injection) specs)
