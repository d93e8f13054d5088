module K = Campaign_kernel

type config = {
  nodes : int;
  vms_per_node : int;
  vm_ram : Hw.Units.bytes_;
  node_ram : Hw.Units.bytes_;
  inplace_fraction : float;
  concurrency : int;
  straggler_factor : float;
  breaker_window : int;
  breaker_threshold : float;
  breaker_cooldown : Sim.Time.t;
  jitter_pct : float;
  drain_flakiness : float;
  retry_flakiness : float;
  seed : int64;
  shadow_spares : int;
}

let default_config =
  {
    nodes = 10;
    vms_per_node = 10;
    vm_ram = Hw.Units.gib 4;
    node_ram = Hw.Units.gib 96;
    inplace_fraction = 1.0;
    concurrency = 4;
    straggler_factor = 2.0;
    breaker_window = 5;
    breaker_threshold = 0.4;
    breaker_cooldown = Sim.Time.sec 120;
    jitter_pct = 0.05;
    drain_flakiness = 0.25;
    retry_flakiness = 0.25;
    seed = 0x5EEDL;
    shadow_spares = 0;
  }

type ladder_step = Inplace | Shadow | Drain | Retry

type manifestation = K.manifestation = Crash | Timeout | Flap

type event =
  | Admitted of ladder_step
  | Flap_failure
  | Straggler_cancelled
  | Attempt_failed of { step : ladder_step; manifestation : manifestation }
  | Attempt_completed of ladder_step
  | Deferred
  | Breaker_opened
  | Breaker_half_opened
  | Breaker_closed
  | Campaign_finished

type host_status =
  | Upgraded_inplace
  | Shadow_cutover
  | Drained
  | Deferred_resolved
  | Deferred_exposed

type audit_verdict = A_clean | A_scrubbed | A_failed

type host_record = {
  hr_node : string;
  hr_vms_in_place : int;
  hr_drain_migrations : int;
  hr_status : host_status;
  hr_attempts : int;
  hr_manifestations : manifestation list;
  hr_timeline : (Sim.Time.t * event) list;
  hr_expected : Sim.Time.t;
  hr_done_at : Sim.Time.t;
  hr_exposure_hours : float;
  hr_audit : audit_verdict option;
}

type report = {
  cfg : config;
  base : Upgrade.timing;
  effective_concurrency : int;
  hosts : host_record list;
  wall_clock : Sim.Time.t;
  rebalance_time : Sim.Time.t;
  exposed_host_hours : float;
  baseline_exposed_host_hours : float;
  deferred : string list;
  deferred_exposure_hours : float;
  breaker_trips : int;
  vms_total : int;
  vms_inplace_ok : int;
  vms_shadow : int;
  vms_drained : int;
  vms_on_deferred : int;
  vms_migrated_planned : int;
  audit_verdicts : (string * audit_verdict) list;
}

let vms_accounted r =
  r.vms_inplace_ok + r.vms_shadow + r.vms_drained + r.vms_on_deferred
  + r.vms_migrated_planned

(* Timing of the rungs only this ladder has; the shared ones live in
   [Campaign_kernel]. *)
let retry_fail_frac = 0.5
let shadow_fail_frac = 0.6

let max_nodes = 1_000_000
let max_vms = 10_000_000

let validate_config cfg =
  let bad msg = Hypertp_error.raise_error ~site:"Campaign" msg in
  if cfg.nodes < 2 then bad "need at least 2 nodes";
  if cfg.nodes > max_nodes then
    Hypertp_error.raise_errorf ~site:"Campaign"
      "nodes %d above the bound of %d per campaign (shard larger fleets \
       with run_fleet)"
      cfg.nodes max_nodes;
  if cfg.vms_per_node < 1 then bad "vms_per_node must be at least 1";
  if cfg.vms_per_node > max_vms / cfg.nodes then
    Hypertp_error.raise_errorf ~site:"Campaign"
      "nodes x vms_per_node (%d x %d) above the bound of %d VMs" cfg.nodes
      cfg.vms_per_node max_vms;
  if cfg.vm_ram < 1 || cfg.node_ram < 1 then
    bad "vm_ram and node_ram must be positive";
  if cfg.inplace_fraction < 0.0 || cfg.inplace_fraction > 1.0 then
    bad "inplace_fraction outside [0, 1]";
  if cfg.concurrency < 1 then bad "concurrency must be at least 1";
  K.validate ~site:"Campaign" ~straggler_factor:cfg.straggler_factor
    ~breaker_window:cfg.breaker_window ~breaker_threshold:cfg.breaker_threshold
    ~jitter_pct:cfg.jitter_pct ~drain_flakiness:cfg.drain_flakiness;
  if cfg.retry_flakiness < 0.0 || cfg.retry_flakiness > 1.0 then
    bad "retry_flakiness outside [0, 1]";
  if cfg.shadow_spares < 0 then bad "shadow_spares must be non-negative"

(* --- host tasks, derived once from the BtrPlace plan --- *)

type task = {
  t_index : int;
  t_node : string;
  t_vms_in_place : int;
  t_drain_migs : int;
  t_up : Sim.Time.t;       (* the InPlaceTP upgrade part alone *)
  t_expected : Sim.Time.t; (* pre-migrations + upgrade *)
  t_deadline : Sim.Time.t; (* straggler_factor x expected *)
  t_drain : Sim.Time.t;    (* fallback: drain whole placement + reboot *)
  t_shadow : Sim.Time.t;   (* fallback: pre-stage a spare + stream the
                              whole placement (no source reboot) *)
}

type setup = {
  su_tasks : task array; (* in plan (= admission) order *)
  su_index : (string, int) Hashtbl.t;
  su_names : string array; (* task index -> node name (journal intern table) *)
  su_base : Upgrade.timing;
  su_rebalance : Sim.Time.t;
  su_effective : int;
}

let paper_mix =
  [ (Vmstate.Vm.Wl_streaming, 0.3); (Vmstate.Vm.Wl_spec "mcf", 0.3);
    (Vmstate.Vm.Wl_idle, 0.4) ]

let build_setup cfg =
  let nic = Hw.Nic.create ~bandwidth_gbps:10.0 () in
  let model =
    Model.make ~nodes:cfg.nodes ~vms_per_node:cfg.vms_per_node
      ~vm_ram:cfg.vm_ram ~node_ram:cfg.node_ram
      ~inplace_fraction:cfg.inplace_fraction ~workload_mix:paper_mix ()
  in
  (* Snapshot what rides through on each host before the planner mutates
     the model, and size the admission bound on the initial placement.
     Hashtbl-indexed: the per-action lookups below used to walk an
     assoc list, O(hosts) per host. *)
  let keepers = Hashtbl.create (Stdlib.max 16 cfg.nodes) in
  List.iter
    (fun n ->
      Hashtbl.replace keepers n.Model.node_name
        (List.filter (fun v -> v.Model.inplace_compatible) n.Model.placed))
    model.Model.nodes;
  let max_drains = Btrplace.max_concurrent_drains model in
  let plan = Btrplace.plan_upgrade model in
  let base = Upgrade.execute ~nic plan in
  let mig vm = Upgrade.migration_op_time ~nic ~vm in
  let upgraded = Hashtbl.create (Stdlib.max 16 cfg.nodes) in
  let drains = Hashtbl.create (Stdlib.max 16 cfg.nodes) in
  let rebalance = ref Sim.Time.zero in
  let tasks = ref [] in
  let ntasks = ref 0 in
  Array.iter
    (fun action ->
      match action with
      | Btrplace.Migrate { vm; src; _ } ->
        if Hashtbl.mem upgraded src then
          rebalance := Sim.Time.add !rebalance (mig vm)
        else
          Hashtbl.replace drains src
            (vm :: Option.value ~default:[] (Hashtbl.find_opt drains src))
      | Btrplace.Upgrade_inplace { node; vms_in_place } ->
        Hashtbl.replace upgraded node ();
        let riding =
          Option.value ~default:[] (Hashtbl.find_opt keepers node)
        in
        let evacuated =
          List.rev (Option.value ~default:[] (Hashtbl.find_opt drains node))
        in
        let premig = Sim.Time.sum (List.map mig evacuated) in
        let up =
          if vms_in_place > 0 then Upgrade.inplace_host_time ~vms:vms_in_place
          else Upgrade.reboot_host_time
        in
        let expected = Sim.Time.add premig up in
        let deadline =
          Sim.Time.of_sec_f
            (Hypertp.Costs.straggler_deadline_seconds
               ~factor:cfg.straggler_factor
               ~expected:(Sim.Time.to_sec_f expected))
        in
        (* The fallback drain must clear whatever is still on the host
           when the attempt died: evacuees plus the riding VMs. *)
        let stream = Sim.Time.sum (List.map mig (evacuated @ riding)) in
        let drain = Sim.Time.add stream Upgrade.reboot_host_time in
        (* Shadow fallback: stage the target on a spare (boot plus the
           per-VM skeleton pre-restore) while the source serves, then
           stream the whole placement.  No source reboot — the host is
           retired by the identity swap. *)
        let shadow =
          Sim.Time.add stream
            (Sim.Time.of_sec_f
               (Hypertp.Costs.shadow_stage_seconds ~boot_seconds:20.0
                  ~vms:(List.length evacuated + List.length riding)))
        in
        tasks :=
          {
            t_index = !ntasks;
            t_node = node;
            t_vms_in_place = vms_in_place;
            t_drain_migs = List.length evacuated;
            t_up = up;
            t_expected = expected;
            t_deadline = deadline;
            t_drain = drain;
            t_shadow = shadow;
          }
          :: !tasks;
        incr ntasks
      | Btrplace.Take_offline _ | Btrplace.Bring_online _ -> ())
    plan.Btrplace.actions;
  let su_tasks = Array.of_list (List.rev !tasks) in
  let su_index = Hashtbl.create (Array.length su_tasks) in
  Array.iter (fun t -> Hashtbl.replace su_index t.t_node t.t_index) su_tasks;
  {
    su_tasks;
    su_index;
    su_names = Array.map (fun t -> t.t_node) su_tasks;
    su_base = base;
    su_rebalance = !rebalance;
    su_effective = Stdlib.max 1 (Stdlib.min cfg.concurrency max_drains);
  }

(* --- journal --- *)

type decision = K.decision = { d_flap : bool; d_crash : bool; d_timeout : bool }

(* Fault-plan decisions for a shadow admission, one per shadow site, in
   the fixed consultation order (spare, stage, drop, diverge,
   partition).  Journaled like the in-place [decision] so resume can
   re-fire and validate them. *)
type shadow_decision = {
  s_spare : bool;
  s_stage : bool;
  s_drop : bool;
  s_diverge : bool;
  s_partition : bool;
}

let shadow_failed s =
  s.s_spare || s.s_stage || s.s_drop || s.s_diverge || s.s_partition

let verdict_to_string = function
  | A_clean -> "clean"
  | A_scrubbed -> "scrubbed"
  | A_failed -> "failed"

let verdict_of_string = function
  | "clean" -> Some A_clean
  | "scrubbed" -> Some A_scrubbed
  | "failed" -> Some A_failed
  | _ -> None

type entry = {
  je_at : Sim.Time.t;
  je_host : string option;
  je_event : event;
  je_decision : decision option; (* Some iff Admitted Inplace *)
  je_audit : audit_verdict option;
      (* Some iff Attempt_completed Inplace/Retry with audit sites armed *)
  je_shadow : shadow_decision option;
      (* Some iff Admitted Shadow with shadow sites armed *)
  je_cursor : int; (* fault-plan trace length after this entry *)
}

(* Journal entries are stored packed, three unboxed ints per entry, in
   one [int Sim.Vec]; hosts are interned in a side table.  The [entry]
   record above survives only as the transient decoded form handed to
   [apply]/serialisation.  At a million hosts the journal dominates the
   controller's allocation, and the packed form costs 3 minor words per
   entry against the ~18 the boxed record chain used to (record + four
   option/variant boxes + host string pointer), with no change to the
   serialised format.

   Word 0 — the event time in ns.
   Word 1 — a bitfield:
     bits  0-3   event kind (0 adm, 1 flapleg, 2 strag, 3 fail, 4 done,
                 5 defer, 6 bopen, 7 bhalf, 8 bclosed, 9 fin)
     bits  4-5   ladder step (inplace 0, shadow 1, drain 2, retry 3)
     bits  6-7   manifestation (crash 0, timeout 1, flap 2)
     bit   8     decision present
     bits  9-11  d_flap / d_crash / d_timeout
     bits 12-13  audit (0 none, 1 clean, 2 scrubbed, 3 failed)
     bit  14     shadow decision present
     bits 15-19  s_spare / s_stage / s_drop / s_diverge / s_partition
     bits 20-..  host index + 1 (0 = no host)
   Word 2 — the fault-plan cursor after the entry. *)
type journal = {
  j_config : config;
  j_words : int Sim.Vec.t; (* 3 words per entry, chronological *)
  j_names : string array;  (* host index -> name *)
}

let journal_config j = j.j_config
let journal_length j = Sim.Vec.length j.j_words / 3

let step_to_int = function Inplace -> 0 | Shadow -> 1 | Drain -> 2 | Retry -> 3
let step_of_int = function 0 -> Inplace | 1 -> Shadow | 2 -> Drain | _ -> Retry
let man_to_int = function Crash -> 0 | Timeout -> 1 | Flap -> 2
let man_of_int = function 0 -> Crash | 1 -> Timeout | _ -> Flap

let pack_entry ~host_idx e =
  let kind, step, man =
    match e.je_event with
    | Admitted s -> (0, step_to_int s, 0)
    | Flap_failure -> (1, 0, 0)
    | Straggler_cancelled -> (2, 0, 0)
    | Attempt_failed { step; manifestation } ->
      (3, step_to_int step, man_to_int manifestation)
    | Attempt_completed s -> (4, step_to_int s, 0)
    | Deferred -> (5, 0, 0)
    | Breaker_opened -> (6, 0, 0)
    | Breaker_half_opened -> (7, 0, 0)
    | Breaker_closed -> (8, 0, 0)
    | Campaign_finished -> (9, 0, 0)
  in
  let bit b v w = if v then w lor (1 lsl b) else w in
  let w = kind lor (step lsl 4) lor (man lsl 6) in
  let w =
    match e.je_decision with
    | None -> w
    | Some d ->
      bit 9 d.d_flap (bit 10 d.d_crash (bit 11 d.d_timeout (w lor (1 lsl 8))))
  in
  let w =
    match e.je_audit with
    | None -> w
    | Some v ->
      w
      lor ((match v with A_clean -> 1 | A_scrubbed -> 2 | A_failed -> 3)
          lsl 12)
  in
  let w =
    match e.je_shadow with
    | None -> w
    | Some s ->
      bit 15 s.s_spare
        (bit 16 s.s_stage
           (bit 17 s.s_drop
              (bit 18 s.s_diverge
                 (bit 19 s.s_partition (w lor (1 lsl 14))))))
  in
  let w = w lor ((host_idx + 1) lsl 20) in
  (Sim.Time.to_ns e.je_at, w, e.je_cursor)

let unpack_entry names w0 w1 w2 =
  let bit b = w1 land (1 lsl b) <> 0 in
  let step = step_of_int ((w1 lsr 4) land 3) in
  let event =
    match w1 land 0xf with
    | 0 -> Admitted step
    | 1 -> Flap_failure
    | 2 -> Straggler_cancelled
    | 3 -> Attempt_failed { step; manifestation = man_of_int ((w1 lsr 6) land 3) }
    | 4 -> Attempt_completed step
    | 5 -> Deferred
    | 6 -> Breaker_opened
    | 7 -> Breaker_half_opened
    | 8 -> Breaker_closed
    | _ -> Campaign_finished
  in
  {
    je_at = Sim.Time.ns w0;
    je_host =
      (match w1 lsr 20 with 0 -> None | i -> Some names.(i - 1));
    je_event = event;
    je_decision =
      (if bit 8 then
         Some { d_flap = bit 9; d_crash = bit 10; d_timeout = bit 11 }
       else None);
    je_audit =
      (match (w1 lsr 12) land 3 with
      | 0 -> None
      | 1 -> Some A_clean
      | 2 -> Some A_scrubbed
      | _ -> Some A_failed);
    je_shadow =
      (if bit 14 then
         Some
           { s_spare = bit 15; s_stage = bit 16; s_drop = bit 17;
             s_diverge = bit 18; s_partition = bit 19 }
       else None);
    je_cursor = w2;
  }

let journal_iter f j =
  let words = j.j_words in
  let n = Sim.Vec.length words / 3 in
  for k = 0 to n - 1 do
    f
      (unpack_entry j.j_names
         (Sim.Vec.get words (3 * k))
         (Sim.Vec.get words ((3 * k) + 1))
         (Sim.Vec.get words ((3 * k) + 2)))
  done

let journal_last j =
  match Sim.Vec.length j.j_words with
  | 0 -> None
  | n ->
    Some
      (unpack_entry j.j_names
         (Sim.Vec.get j.j_words (n - 3))
         (Sim.Vec.get j.j_words (n - 2))
         (Sim.Vec.get j.j_words (n - 1)))

(* --- controller state (shared between live execution and replay) --- *)

type running = {
  r_step : ladder_step;
  r_started : Sim.Time.t;
  r_decision : decision option;
  r_shadow : shadow_decision option;
  mutable r_flapped : bool;
}

type hstate =
  | H_pending
  | H_running of running
  | H_failed_needs_drain
  | H_failed_needs_defer
  | H_awaiting_retry
  | H_done of host_status * Sim.Time.t

type st = {
  cfg : config;
  setup : setup;
  hstates : hstate array;
  manifests : manifestation list array; (* newest first *)
  attempts : int array;
  breaker : K.breaker;
  mutable limit : int;
  mutable running : int;
  mutable finished_at : Sim.Time.t option;
  entries : int Sim.Vec.t; (* packed, 3 words per entry, chronological *)
  (* Incremental bookkeeping so [settle] never rescans the host array:
     [next_pending] is a monotone admission cursor (admission is
     lowest-index-first and a host never returns to [H_pending], so
     every pending host sits at an index >= the cursor);
     [needs_drain] / [needs_defer] are work-lists pushed by
     [resolve_failure]; [retry_cursor] only advances during the retry
     phase, when no new [H_awaiting_retry] host can appear behind it;
     [n_done] counts terminal hosts; [exposure_acc] accumulates
     exposure hours as hosts finish (Deferred_exposed hosts are counted
     separately — they stay exposed until the campaign's wall clock). *)
  mutable next_pending : int;
  mutable needs_drain : int list;
  mutable needs_defer : int list;
  mutable retry_cursor : int;
  mutable n_done : int;
  mutable exposure_acc : float;
  mutable n_deferred_exposed : int;
  audits : audit_verdict option array;
      (* post-commit audit verdict of the host's successful attempt *)
  (* Shadow lane accounting: [spares_free] counts idle staged spares
     (a completed cutover frees its source as the next spare, so the
     lane returns on resolution either way); [shadow_tried] pins the
     degradation ladder — a host whose shadow attempt failed must fall
     through to drain, never shadow again. *)
  mutable spares_free : int;
  shadow_tried : bool array;
  fault : Fault.t option;
  obs : Obs.Tracer.t option;
  metrics : Obs.Metrics.t option;
  o_log : bool;
      (* info logging enabled when the state was built; cached so the
         hot path skips the per-event closure when nobody listens *)
  ospans : Obs.Span.t option array; (* open attempt span per host *)
  mutable root_span : Obs.Span.t option;
}

let make_st ?fault ?obs ?metrics cfg setup =
  let n = Array.length setup.su_tasks in
  let obs = Option.map Hypertp.Otrace.attach obs in
  {
    cfg;
    setup;
    hstates = Array.make n H_pending;
    manifests = Array.make n [];
    attempts = Array.make n 0;
    breaker =
      K.breaker ~window:cfg.breaker_window ~threshold:cfg.breaker_threshold
        ~cooldown:cfg.breaker_cooldown;
    limit = setup.su_effective;
    running = 0;
    finished_at = None;
    entries = Sim.Vec.create ~capacity:(Stdlib.max 16 (12 * n)) 0;
    next_pending = 0;
    needs_drain = [];
    needs_defer = [];
    retry_cursor = 0;
    n_done = 0;
    exposure_acc = 0.0;
    n_deferred_exposed = 0;
    audits = Array.make n None;
    spares_free = cfg.shadow_spares;
    shadow_tried = Array.make n false;
    fault;
    obs;
    metrics;
    o_log =
      (match Logs.Src.level Hypertp.Log.src with
      | Some (Logs.Info | Logs.Debug) -> true
      | Some (Logs.App | Logs.Error | Logs.Warning) | None -> false);
    ospans = Array.make n None;
    root_span =
      Hypertp.Otrace.start obs ~at:Sim.Time.zero ~track:"controller"
        ~attrs:
          [ ("engine", "campaign");
            ("hosts", string_of_int n);
            ("concurrency", string_of_int setup.su_effective) ]
        "campaign";
  }

let idx st host =
  match Hashtbl.find_opt st.setup.su_index host with
  | Some i -> i
  | None ->
    Hypertp_error.raise_errorf ~site:"Campaign"
      ~hint:"the journal must come from a campaign with the same config"
      "unknown host in journal: %s" host

let hours t = Sim.Time.to_sec_f t /. 3600.0

let resolve_failure st i manifestation at =
  st.running <- st.running - 1;
  st.manifests.(i) <- manifestation :: st.manifests.(i);
  match st.hstates.(i) with
  | H_running r -> (
    match r.r_step with
    | Inplace ->
      st.hstates.(i) <- H_failed_needs_drain;
      st.needs_drain <- i :: st.needs_drain;
      K.record st.breaker false
    | Shadow ->
      (* Degradation ladder: the staged spare is torn down (the lane
         returns) and the host falls through to the classic drain. *)
      st.spares_free <- st.spares_free + 1;
      st.hstates.(i) <- H_failed_needs_drain;
      st.needs_drain <- i :: st.needs_drain;
      K.record st.breaker false
    | Drain ->
      st.hstates.(i) <- H_failed_needs_defer;
      st.needs_defer <- i :: st.needs_defer;
      K.record st.breaker false
    | Retry ->
      st.hstates.(i) <- H_done (Deferred_exposed, at);
      st.n_done <- st.n_done + 1;
      st.n_deferred_exposed <- st.n_deferred_exposed + 1)
  | _ ->
    Hypertp_error.raise_error ~site:"Campaign"
      "failure recorded for a host not running"

let step_to_string = function
  | Inplace -> "inplace"
  | Shadow -> "shadow"
  | Drain -> "drain"
  | Retry -> "retry"

let pp_event fmt = function
  | Admitted step -> Format.fprintf fmt "admitted(%s)" (step_to_string step)
  | Flap_failure -> Format.pp_print_string fmt "flap-leg (failed, recovered)"
  | Straggler_cancelled -> Format.pp_print_string fmt "straggler-cancelled"
  | Attempt_failed { step; manifestation } ->
    Format.fprintf fmt "failed(%s, %s)" (step_to_string step)
      (K.man_to_string manifestation)
  | Attempt_completed step ->
    Format.fprintf fmt "completed(%s)" (step_to_string step)
  | Deferred -> Format.pp_print_string fmt "deferred"
  | Breaker_opened -> Format.pp_print_string fmt "breaker-opened"
  | Breaker_half_opened -> Format.pp_print_string fmt "breaker-half-open"
  | Breaker_closed -> Format.pp_print_string fmt "breaker-closed"
  | Campaign_finished -> Format.pp_print_string fmt "campaign-finished"

(* Narration + span/metric bookkeeping for one applied event.  Runs at
   the end of [apply], so a live run and [resume]'s replay emit the
   same log lines, the same span tree and the same counters. *)
let observe st e =
  let at = e.je_at in
  let obs = st.obs and metrics = st.metrics in
  if st.o_log then
    Hypertp.Log.info (fun m ->
        m "campaign%s: %a at %a"
          (match e.je_host with Some h -> " " ^ h | None -> "")
          pp_event e.je_event Sim.Time.pp at);
  let close i attrs =
    (match st.ospans.(i) with
    | Some s -> List.iter (fun (k, v) -> Obs.Span.set_attr s k v) attrs
    | None -> ());
    Hypertp.Otrace.finish obs st.ospans.(i) ~at;
    st.ospans.(i) <- None
  in
  (* The span/metric bookkeeping below allocates its label lists before
     the (no-op) Otrace calls see the [None]s, so skip the whole block
     when nothing is attached — the common case for large fleets. *)
  if obs = None && metrics = None then ()
  else begin
  (match (e.je_event, e.je_host) with
  | Admitted step, Some h ->
    let i = idx st h in
    st.ospans.(i) <-
      Hypertp.Otrace.start obs ~at ?parent:st.root_span
        ~track:("host:" ^ h)
        ~attrs:
          [ ("host", h); ("step", step_to_string step);
            ("attempt", string_of_int st.attempts.(i)) ]
        ("attempt:" ^ step_to_string step);
    Hypertp.Otrace.count metrics
      ~labels:[ ("engine", "campaign"); ("step", step_to_string step) ]
      "hypertp_campaign_attempts_total"
  | Flap_failure, Some h ->
    Hypertp.Otrace.event st.ospans.(idx st h) ~at "flap_leg"
  | Straggler_cancelled, Some h ->
    close (idx st h) [ ("result", "straggler_cancelled") ];
    Hypertp.Otrace.count metrics
      ~labels:[ ("engine", "campaign"); ("manifestation", "timeout") ]
      "hypertp_campaign_failures_total"
  | Attempt_failed { step; manifestation }, Some h ->
    close (idx st h)
      [ ("result", "failed"); ("step", step_to_string step);
        ("manifestation", K.man_to_string manifestation) ];
    Hypertp.Otrace.count metrics
      ~labels:
        [ ("engine", "campaign");
          ("manifestation", K.man_to_string manifestation) ]
      "hypertp_campaign_failures_total"
  | Attempt_completed step, Some h ->
    close (idx st h)
      (("result", "completed")
      ::
      (match e.je_audit with
      | Some v -> [ ("audit", verdict_to_string v) ]
      | None -> []));
    Hypertp.Otrace.count metrics
      ~labels:[ ("engine", "campaign"); ("step", step_to_string step) ]
      "hypertp_campaign_completions_total";
    (match e.je_audit with
    | Some v ->
      Hypertp.Otrace.count metrics
        ~labels:
          [ ("engine", "campaign"); ("verdict", verdict_to_string v) ]
        "hypertp_campaign_audits_total"
    | None -> ())
  | Deferred, Some h ->
    Hypertp.Otrace.instant obs ~at ~track:("host:" ^ h)
      ~attrs:[ ("host", h) ] "deferred"
  | Breaker_opened, None ->
    Hypertp.Otrace.instant obs ~at ?parent:st.root_span ~track:"controller"
      "breaker:opened";
    Hypertp.Otrace.count metrics
      ~labels:[ ("engine", "campaign") ]
      "hypertp_breaker_trips_total"
  | Breaker_half_opened, None ->
    Hypertp.Otrace.instant obs ~at ?parent:st.root_span ~track:"controller"
      "breaker:half_open"
  | Breaker_closed, None ->
    Hypertp.Otrace.instant obs ~at ?parent:st.root_span ~track:"controller"
      "breaker:closed"
  | Campaign_finished, None ->
    Hypertp.Otrace.finish obs st.root_span ~at;
    st.root_span <- None
  | _ -> ());
  Hypertp.Otrace.gauge_set metrics
    ~labels:[ ("engine", "campaign") ]
    "hypertp_campaign_running"
    (float_of_int st.running)
  end

(* Apply one journal entry to the state.  Both the live controller and
   [resume]'s replay funnel every mutation through here, which is what
   makes a resumed campaign land in exactly the state the crashed one
   had. *)
(* Host timelines are no longer tracked live — [make_report] rebuilds
   them from the packed journal, so the steady-state controller keeps no
   per-event boxed state at all. *)
let apply_state st e =
  match (e.je_event, e.je_host) with
  | Admitted step, Some h ->
    let i = idx st h in
    (match (step, st.hstates.(i)) with
    | Inplace, H_pending
    | (Shadow | Drain), H_failed_needs_drain
    | Retry, H_awaiting_retry ->
      ()
    | _ ->
      Hypertp_error.raise_error ~site:"Campaign"
        "admission out of ladder order");
    if step = Inplace && e.je_decision = None then
      Hypertp_error.raise_error ~site:"Campaign"
        "in-place admission without a fault decision";
    if step = Shadow then begin
      if st.shadow_tried.(i) then
        Hypertp_error.raise_error ~site:"Campaign"
          "second shadow admission for the same host";
      if st.spares_free <= 0 then
        Hypertp_error.raise_error ~site:"Campaign"
          "shadow admission without a free spare lane";
      st.shadow_tried.(i) <- true;
      st.spares_free <- st.spares_free - 1
    end;
    st.hstates.(i) <-
      H_running
        {
          r_step = step;
          r_started = e.je_at;
          r_decision = e.je_decision;
          r_shadow = e.je_shadow;
          r_flapped = false;
        };
    st.running <- st.running + 1;
    st.attempts.(i) <- st.attempts.(i) + 1
  | Flap_failure, Some h -> (
    match st.hstates.(idx st h) with
    | H_running r -> r.r_flapped <- true
    | _ ->
      Hypertp_error.raise_error ~site:"Campaign"
        "flap leg for a host not running")
  | Straggler_cancelled, Some h -> resolve_failure st (idx st h) Timeout e.je_at
  | Attempt_failed { manifestation; _ }, Some h ->
    resolve_failure st (idx st h) manifestation e.je_at
  | Attempt_completed step, Some h ->
    let i = idx st h in
    st.running <- st.running - 1;
    (match e.je_audit with
    | Some v -> st.audits.(i) <- Some v
    | None -> ());
    (match step with
    | Inplace -> st.hstates.(i) <- H_done (Upgraded_inplace, e.je_at)
    | Shadow ->
      (* The freed source becomes the next staged spare (pipeline
         lane), so the lane returns on success too. *)
      st.spares_free <- st.spares_free + 1;
      st.hstates.(i) <- H_done (Shadow_cutover, e.je_at)
    | Drain -> st.hstates.(i) <- H_done (Drained, e.je_at)
    | Retry -> st.hstates.(i) <- H_done (Deferred_resolved, e.je_at));
    st.n_done <- st.n_done + 1;
    st.exposure_acc <- st.exposure_acc +. hours e.je_at;
    if step <> Retry then K.record st.breaker true
  | Deferred, Some h ->
    let i = idx st h in
    (match st.hstates.(i) with
    | H_failed_needs_defer -> st.hstates.(i) <- H_awaiting_retry
    | _ ->
      Hypertp_error.raise_error ~site:"Campaign" "defer out of ladder order")
  | Breaker_opened, None -> K.trip st.breaker ~at:e.je_at
  | Breaker_half_opened, None ->
    K.half_open st.breaker;
    st.limit <- Stdlib.max 1 (st.setup.su_effective / 2)
  | Breaker_closed, None ->
    K.close st.breaker;
    st.limit <- st.setup.su_effective
  | Campaign_finished, None -> st.finished_at <- Some e.je_at
  | _ -> Hypertp_error.raise_error ~site:"Campaign" "malformed journal entry"

let apply st e =
  apply_state st e;
  observe st e

(* --- live execution --- *)

exception Controller_died

type ctx = {
  st : st;
  eng : Sim.Engine.t;
  timers : Sim.Engine.timer list ref array;
}

let cursor st =
  match st.fault with None -> 0 | Some f -> Fault.trace_length f

let fire_opt st ?vm site =
  match st.fault with None -> false | Some f -> Fault.fire f ?vm site

(* The audit and shadow sites are only consulted when the plan arms
   them: firing them unconditionally would shift the fault cursor of
   every journal recorded before the audit or the shadow ladder
   existed. *)
let armed st sites =
  match st.fault with
  | None -> false
  | Some f ->
    List.exists
      (fun (inj : Fault.injection) -> List.mem inj.Fault.site sites)
      (Fault.injections f)

(* All five shadow sites, in a fixed order, for the same
   stream-alignment reason as the in-place decision. *)
let shadow_decide st ~host =
  let s_spare = fire_opt st ~vm:host Fault.Spare_exhausted in
  let s_stage = fire_opt st ~vm:host Fault.Shadow_stage_fail in
  let s_drop = fire_opt st ~vm:host Fault.Shadow_stream_drop in
  let s_diverge = fire_opt st ~vm:host Fault.Shadow_diverge in
  let s_partition = fire_opt st ~vm:host Fault.Swap_partition in
  { s_spare; s_stage; s_drop; s_diverge; s_partition }

(* Both audit sites are consulted in a fixed order even when the first
   misses, for the same stream-alignment reason. *)
let audit_decide st ~host =
  let leak = fire_opt st ~vm:host Fault.Residual_leak in
  let scrub_failed = fire_opt st ~vm:host Fault.Scrub_fail in
  if not leak then A_clean else if scrub_failed then A_failed else A_scrubbed

(* Journal-then-crash: the entry is applied and persisted first, and
   only then may the controller die, so a resumed run never loses the
   event that was being recorded. *)
(* Re-encode and push an already-validated entry (live append and
   resume's replay both end here). *)
let push_entry st e ~cursor =
  let host_idx = match e.je_host with None -> -1 | Some h -> idx st h in
  let w0, w1, _ = pack_entry ~host_idx { e with je_cursor = cursor } in
  Sim.Vec.push st.entries w0;
  Sim.Vec.push st.entries w1;
  Sim.Vec.push st.entries cursor

let append st ?host ?decision ?audit ?shadow ~at event =
  let e =
    { je_at = at; je_host = host; je_event = event; je_decision = decision;
      je_audit = audit; je_shadow = shadow; je_cursor = 0 }
  in
  apply st e;
  let crashed = fire_opt st Fault.Controller_crash in
  push_entry st e ~cursor:(cursor st);
  if st.obs <> None then
    Hypertp.Otrace.instant st.obs ~at ~track:"journal"
      ~attrs:[ ("cursor", string_of_int (cursor st)) ]
      "journal:checkpoint";
  if crashed then raise Controller_died

let clear_timers ctx i =
  List.iter Sim.Engine.cancel !(ctx.timers.(i));
  ctx.timers.(i) := []

(* Arm a guarded timer: it is a no-op unless host [i] is still on the
   same attempt it was armed for. *)
let arm ctx i at f =
  let epoch = ctx.st.attempts.(i) in
  let tm =
    Sim.Engine.schedule_timer_at ctx.eng at (fun () ->
        match ctx.st.hstates.(i) with
        | H_running _ when ctx.st.attempts.(i) = epoch -> f ()
        | _ -> ())
  in
  ctx.timers.(i) := tm :: !(ctx.timers.(i))

let rec settle ctx =
  let st = ctx.st in
  let at = Sim.Engine.now ctx.eng in
  (* 1. Ladder escalations: a failed in-place attempt drains next.
     Escalation keeps the host's admission slot and ignores the breaker
     — remediation of an in-flight host must not be paused.  The
     work-list is drained sorted so the event order matches the array
     scan this replaces; the state guard skips entries already handled
     (e.g. re-pushed by a replay). *)
  let drainable = List.sort compare st.needs_drain in
  st.needs_drain <- [];
  List.iter
    (fun i ->
      if st.hstates.(i) = H_failed_needs_drain then
        (* Shadow rung of the ladder: with a staged spare lane free and
           no earlier shadow failure on this host, evacuate by cutover
           before falling back to the disruptive drain. *)
        if
          st.cfg.shadow_spares > 0 && st.spares_free > 0
          && not st.shadow_tried.(i)
        then admit ctx i Shadow
        else admit ctx i Drain)
    drainable;
  (* 2. Ladder exhausted: park the host, retried at campaign end. *)
  let deferrable = List.sort compare st.needs_defer in
  st.needs_defer <- [];
  List.iter
    (fun i ->
      if st.hstates.(i) = H_failed_needs_defer then
        append st ~host:st.setup.su_tasks.(i).t_node ~at Deferred)
    deferrable;
  (* 3. Breaker transitions. *)
  (match K.verdict st.breaker with
  | K.Trip -> (
    append st ~at Breaker_opened;
    match K.state st.breaker with
    | K.B_open_until u ->
      Sim.Engine.schedule_at ctx.eng u (fun () -> reopen ctx)
    | K.B_closed | K.B_half_open -> ())
  | K.Close -> append st ~at Breaker_closed
  | K.Hold -> ());
  (* 4. Admission: fill free slots with pending hosts, lowest index
     first, unless the breaker is open.  [next_pending] lazily skips
     past hosts that left [H_pending]; it never needs to back up, so
     admission over the whole campaign costs O(hosts). *)
  let n = Array.length st.hstates in
  let skip_admitted () =
    while
      st.next_pending < n && st.hstates.(st.next_pending) <> H_pending
    do
      st.next_pending <- st.next_pending + 1
    done
  in
  (match K.state st.breaker with
  | K.B_open_until _ -> ()
  | K.B_closed | K.B_half_open ->
    skip_admitted ();
    while st.next_pending < n && st.running < st.limit do
      admit ctx st.next_pending Inplace;
      skip_admitted ()
    done);
  (* 5. End of the main phase: retry deferred hosts one at a time, then
     declare the campaign finished.  [retry_cursor] is monotone: it
     only moves while the retry phase is active, when every host behind
     it is terminal. *)
  skip_admitted ();
  if st.running = 0 && st.next_pending >= n then begin
    (* Phases 1-2 emptied the failed states, so every host here is
       either H_awaiting_retry or terminal — the cursor never skips a
       host that could become awaiting later. *)
    while
      st.retry_cursor < n && st.hstates.(st.retry_cursor) <> H_awaiting_retry
    do
      st.retry_cursor <- st.retry_cursor + 1
    done;
    if st.retry_cursor < n then admit ctx st.retry_cursor Retry
    else if st.finished_at = None && st.n_done = n then
      append st ~at Campaign_finished
  end

and reopen ctx =
  let st = ctx.st in
  (match K.state st.breaker with
  | K.B_open_until _ ->
    append st ~at:(Sim.Engine.now ctx.eng) Breaker_half_opened
  | K.B_closed | K.B_half_open -> ());
  settle ctx

and admit ctx i step =
  let st = ctx.st in
  let at = Sim.Engine.now ctx.eng in
  let t = st.setup.su_tasks.(i) in
  let decision =
    match step with
    | Inplace -> K.decide st.fault ~host:t.t_node
    | Shadow | Drain | Retry -> None
  in
  let shadow =
    match step with
    | Shadow when armed st Fault.shadow_sites ->
      Some (shadow_decide st ~host:t.t_node)
    | _ -> None
  in
  append st ~host:t.t_node ?decision ?shadow ~at (Admitted step);
  schedule_attempt ctx i

(* Schedule the engine events for a host currently in [H_running].  All
   times are absolute (relative to the attempt's recorded start), so the
   same function reconstructs in-flight attempts on resume. *)
and schedule_attempt ctx i =
  let st = ctx.st in
  let t = st.setup.su_tasks.(i) in
  match st.hstates.(i) with
  | H_running r -> (
    let from_start span = Sim.Time.add r.r_started span in
    match r.r_step with
    | Inplace ->
      let d =
        match r.r_decision with
        | Some d -> d
        | None ->
          Hypertp_error.raise_error ~site:"Campaign"
            "in-place attempt without decision"
      in
      (* The supervisor's deadline races the attempt; whichever loses is
         cancelled. *)
      arm ctx i (from_start t.t_deadline) (fun () -> on_deadline ctx i);
      let next = K.inplace_next d ~flapped:r.r_flapped in
      let at =
        from_start
          (K.inplace_offset ~seed:st.cfg.seed ~jitter_pct:st.cfg.jitter_pct
             ~host:t.t_node ~expected:t.t_expected ~deadline:t.t_deadline next)
      in
      (match next with
      | K.Deadline -> ()
      | K.Flap_leg -> arm ctx i at (fun () -> on_flap_leg ctx i)
      | K.Fail m -> arm ctx i at (fun () -> on_fail ctx i m)
      | K.Complete -> arm ctx i at (fun () -> on_complete ctx i Inplace))
    | Shadow ->
      (* The pre-swap abort points are all analytic: a fired shadow
         site surfaces as one failed attempt (the engine's abort +
         source-intact verification), costed like a drain that died
         mid-stream.  Which site fired was journaled at admission. *)
      if (match r.r_shadow with Some s -> shadow_failed s | None -> false)
      then
        arm ctx i
          (from_start (Sim.Time.scale shadow_fail_frac t.t_shadow))
          (fun () -> on_fail ctx i Crash)
      else
        arm ctx i
          (from_start
             (Sim.Time.scale
                (K.host_jitter st.cfg.seed st.cfg.jitter_pct t.t_node)
                t.t_shadow))
          (fun () -> on_complete ctx i Shadow)
    | Drain -> (
      let next =
        K.drain_next ~seed:st.cfg.seed ~flakiness:st.cfg.drain_flakiness
          ~host:t.t_node
      in
      let at = from_start (K.drain_offset ~span:t.t_drain next) in
      match next with
      | K.Complete -> arm ctx i at (fun () -> on_complete ctx i Drain)
      | K.Fail m -> arm ctx i at (fun () -> on_fail ctx i m)
      | K.Flap_leg | K.Deadline -> assert false)
    | Retry ->
      if K.coin st.cfg.seed "retry" t.t_node st.cfg.retry_flakiness then
        arm ctx i
          (from_start (Sim.Time.scale retry_fail_frac t.t_up))
          (fun () -> on_fail ctx i Crash)
      else
        arm ctx i
          (from_start
             (Sim.Time.scale
                (K.host_jitter st.cfg.seed st.cfg.jitter_pct t.t_node)
                t.t_up))
          (fun () -> on_complete ctx i Retry))
  | _ ->
    Hypertp_error.raise_error ~site:"Campaign"
      "scheduling for a host not running"

and on_deadline ctx i =
  clear_timers ctx i;
  append ctx.st
    ~host:ctx.st.setup.su_tasks.(i).t_node
    ~at:(Sim.Engine.now ctx.eng) Straggler_cancelled;
  settle ctx

and on_fail ctx i manifestation =
  let st = ctx.st in
  let step =
    match st.hstates.(i) with H_running r -> r.r_step | _ -> assert false
  in
  clear_timers ctx i;
  append st
    ~host:st.setup.su_tasks.(i).t_node
    ~at:(Sim.Engine.now ctx.eng)
    (Attempt_failed { step; manifestation });
  settle ctx

and on_complete ctx i step =
  let st = ctx.st in
  clear_timers ctx i;
  let node = st.setup.su_tasks.(i).t_node in
  (* Post-commit audit verdict for steps that end on the new hypervisor
     via InPlaceTP.  Only consulted when the plan arms the audit sites,
     so journals recorded under audit-free plans keep their fault
     cursors bit-for-bit (and the probability stream stays aligned for
     everyone else). *)
  let audit =
    match step with
    | (Inplace | Retry) when armed st [ Fault.Residual_leak; Fault.Scrub_fail ]
      ->
      Some (audit_decide st ~host:node)
    | _ -> None
  in
  append st ~host:node ?audit ~at:(Sim.Engine.now ctx.eng)
    (Attempt_completed step);
  settle ctx

and on_flap_leg ctx i =
  (* First leg: the host fails, then recovers.  Not an attempt outcome —
     it must not count toward the breaker — so only the leg itself is
     journaled and the final failure is re-armed. *)
  append ctx.st
    ~host:ctx.st.setup.su_tasks.(i).t_node
    ~at:(Sim.Engine.now ctx.eng) Flap_failure;
  schedule_attempt ctx i

(* --- results --- *)

let make_journal st =
  { j_config = st.cfg; j_words = st.entries; j_names = st.setup.su_names }

(* Campaign end: the finish event plus the final rebalance tail. *)
let wall_clock st =
  match st.finished_at with
  | Some t -> Sim.Time.add t st.setup.su_rebalance
  | None ->
    Hypertp_error.raise_error ~site:"Campaign"
      "result requested before the finish event"

let make_report st =
  let wall = wall_clock st in
  (* Rebuild per-host timelines from the packed journal (newest first,
     reversed below) — the controller stopped tracking them live. *)
  let n = Array.length st.setup.su_tasks in
  let timelines = Array.make n [] in
  let words = st.entries in
  for k = 0 to (Sim.Vec.length words / 3) - 1 do
    let w1 = Sim.Vec.get words ((3 * k) + 1) in
    match w1 lsr 20 with
    | 0 -> ()
    | i ->
      let e = unpack_entry st.setup.su_names (Sim.Vec.get words (3 * k)) w1 0 in
      timelines.(i - 1) <- (e.je_at, e.je_event) :: timelines.(i - 1)
  done;
  let hosts =
    Array.to_list
      (Array.mapi
         (fun i t ->
           let status, done_at =
             match st.hstates.(i) with
             | H_done (Deferred_exposed, _) -> (Deferred_exposed, wall)
             | H_done (s, at) -> (s, at)
             | _ ->
               Hypertp_error.raise_error ~site:"Campaign"
                 "unfinished host in report"
           in
           {
             hr_node = t.t_node;
             hr_vms_in_place = t.t_vms_in_place;
             hr_drain_migrations = t.t_drain_migs;
             hr_status = status;
             hr_attempts = st.attempts.(i);
             hr_manifestations = List.rev st.manifests.(i);
             hr_timeline = List.rev timelines.(i);
             hr_expected = t.t_expected;
             hr_done_at = done_at;
             hr_exposure_hours = hours done_at;
             hr_audit = st.audits.(i);
           })
         st.setup.su_tasks)
  in
  let deferred_hosts =
    List.filter
      (fun h ->
        match h.hr_status with
        | Deferred_resolved | Deferred_exposed -> true
        | Upgraded_inplace | Shadow_cutover | Drained -> false)
      hosts
  in
  let sum_vms pred =
    List.fold_left
      (fun acc h -> if pred h.hr_status then acc + h.hr_vms_in_place else acc)
      0 hosts
  in
  let vms_total = st.cfg.nodes * st.cfg.vms_per_node in
  let vms_in_place_total =
    List.fold_left (fun acc h -> acc + h.hr_vms_in_place) 0 hosts
  in
  let r =
    {
    cfg = st.cfg;
    base = st.setup.su_base;
    effective_concurrency = st.setup.su_effective;
    hosts;
    wall_clock = wall;
    rebalance_time = st.setup.su_rebalance;
    (* Accumulated incrementally as hosts finished; deferred-exposed
       hosts stay exposed until the campaign's wall clock.  The test
       suite pins this equal to the per-host fold over [hosts]. *)
    exposed_host_hours =
      st.exposure_acc +. (float_of_int st.n_deferred_exposed *. hours wall);
    baseline_exposed_host_hours = float_of_int st.cfg.nodes *. hours wall;
    deferred = List.map (fun h -> h.hr_node) deferred_hosts;
    deferred_exposure_hours =
      List.fold_left (fun acc h -> acc +. h.hr_exposure_hours) 0.0
        deferred_hosts;
    breaker_trips = K.trips st.breaker;
    vms_total;
    vms_inplace_ok =
      sum_vms (function
        | Upgraded_inplace | Deferred_resolved -> true
        | Shadow_cutover | Drained | Deferred_exposed -> false);
    vms_shadow = sum_vms (function Shadow_cutover -> true | _ -> false);
    vms_drained = sum_vms (function Drained -> true | _ -> false);
    vms_on_deferred =
      sum_vms (function Deferred_exposed -> true | _ -> false);
    vms_migrated_planned = vms_total - vms_in_place_total;
    audit_verdicts =
      List.filter_map
        (fun h ->
          match h.hr_audit with Some v -> Some (h.hr_node, v) | None -> None)
        hosts;
    }
  in
  let labels = [ ("engine", "campaign") ] in
  Hypertp.Otrace.gauge_set st.metrics ~labels
    "hypertp_campaign_exposed_host_hours" r.exposed_host_hours;
  Hypertp.Otrace.gauge_set st.metrics ~labels
    "hypertp_campaign_wall_clock_seconds"
    (Sim.Time.to_sec_f r.wall_clock);
  r

type run_result = Finished of report * journal | Crashed of journal

let make_ctx st =
  let eng = Sim.Engine.create () in
  (* Timer lifecycle on its own track: every straggler deadline and
     attempt completion timer shows up as fired or cancelled. *)
  (match st.obs with
  | Some tr ->
    Sim.Engine.set_timer_hook eng (fun at notice ->
        Obs.Tracer.instant tr ~at ~track:"engine"
          (match notice with
          | `Fired -> "timer:fired"
          | `Cancelled -> "timer:cancelled"))
  | None -> ());
  {
    st;
    eng;
    timers = Array.init (Array.length st.setup.su_tasks) (fun _ -> ref []);
  }

let drive ctx =
  try
    Sim.Engine.run ctx.eng;
    Finished (make_report ctx.st, make_journal ctx.st)
  with Controller_died -> Crashed (make_journal ctx.st)

(* Fresh controller, first settle scheduled, nothing driven yet. *)
let start_st ?fault ?obs ?metrics cfg =
  validate_config cfg;
  let setup = build_setup cfg in
  let ctx = make_ctx (make_st ?fault ?obs ?metrics cfg setup) in
  Sim.Engine.schedule_at ctx.eng Sim.Time.zero (fun () -> settle ctx);
  ctx

let run ?ctx:run_ctx ?fault ?obs ?metrics cfg =
  let c = Hypertp.Ctx.resolve ?ctx:run_ctx ?fault ?obs ?metrics () in
  drive
    (start_st ?fault:c.Hypertp.Ctx.fault ?obs:c.Hypertp.Ctx.obs
       ?metrics:c.Hypertp.Ctx.metrics cfg)

(* Replayed controller: journal re-applied and validated, in-flight
   attempts re-armed, nothing driven yet.  [fault] is the crashed run's
   plan, restarted here. *)
let resume_st ?fault ?obs ?metrics journal =
  let cfg = journal.j_config in
  validate_config cfg;
  let fault = Option.map Fault.restart fault in
  let setup = build_setup cfg in
  let st = make_st ?fault ?obs ?metrics cfg setup in
  (* Replay: every entry is re-applied and re-validated against the
     restarted fault plan — the same sites fire in the same order, so
     the plan's counters, probability stream and trace end up exactly
     where the crashed run left them.  Validation failures name the
     exact entry and which recorded cursor diverged, so a journal file
     resumed under the wrong --fault specs (or seed) is diagnosable. *)
  let plan_seed () =
    match st.fault with Some f -> Fault.seed f | None -> 0L
  in
  let entry_no = ref 0 in
  let disagree h e what =
    Hypertp_error.raise_errorf ~site:"Campaign.resume"
      ~hint:
        (Printf.sprintf
           "the journal was recorded under a different fault plan: pass the \
            exact --fault specs (and seed) of the crashed run; the restarted \
            plan (seed %Ld) decides differently here" (plan_seed ()))
      "journal entry %d (host %s %s at %s) disagrees with the fault plan on \
       the %s"
      !entry_no h
      (match e.je_event with
      | Admitted Shadow -> "shadow admission"
      | Admitted _ -> "admission"
      | _ -> "completion")
      (Sim.Time.to_string e.je_at) what
  in
  (* The named decisions that differ between journal and plan. *)
  let diverged pairs =
    String.concat ", "
      (List.filter_map
         (fun (name, journalled, replayed) ->
           if journalled <> replayed then
             Some
               (Printf.sprintf "%s (journal %b, plan %b)" name journalled
                  replayed)
           else None)
         pairs)
    ^ " decision"
  in
  journal_iter
    (fun e ->
      incr entry_no;
      (* Admissions and audited completions re-fire their sites: the
         entry carries a decision iff the recording run consulted them
         there. *)
      (match
         (e.je_event, e.je_host, e.je_decision, e.je_shadow, e.je_audit)
       with
      | Admitted Inplace, Some h, Some d, _, _ ->
        let r = Option.get (K.decide st.fault ~host:h) in
        if st.fault <> None && r <> d then
          disagree h e
            (diverged
               [ ("flap", d.d_flap, r.d_flap); ("crash", d.d_crash, r.d_crash);
                 ("timeout", d.d_timeout, r.d_timeout) ])
      | Admitted Inplace, _, None, _, _ ->
        Hypertp_error.raise_errorf ~site:"Campaign.resume"
          "journal entry %d: in-place admission without decision" !entry_no
      | Admitted Shadow, Some h, _, Some s, _ ->
        let r = shadow_decide st ~host:h in
        if st.fault <> None && r <> s then
          disagree h e
            (diverged
               [ ("spare", s.s_spare, r.s_spare);
                 ("stage", s.s_stage, r.s_stage);
                 ("drop", s.s_drop, r.s_drop);
                 ("diverge", s.s_diverge, r.s_diverge);
                 ("partition", s.s_partition, r.s_partition) ])
      | Attempt_completed (Inplace | Retry), Some h, _, _, Some v ->
        let r = audit_decide st ~host:h in
        if st.fault <> None && r <> v then
          disagree h e
            (Printf.sprintf "audit verdict (journal %s, plan %s)"
               (verdict_to_string v) (verdict_to_string r))
      | _ -> ());
      apply st e;
      ignore (fire_opt st Fault.Controller_crash);
      if st.fault <> None && cursor st <> e.je_cursor then
        Hypertp_error.raise_errorf ~site:"Campaign.resume"
          ~hint:
            (Printf.sprintf
               "every earlier entry matched, so the --fault specs differ \
                from the crashed run's (or its seed was not %Ld): a \
                different injection list consumes a different number of \
                fire decisions per event" (plan_seed ()))
          "journal entry %d (%s at %s): fault-plan cursor diverged — the \
           journal records %d fire decisions taken by this point, the \
           replayed plan took %d"
          !entry_no
          (match e.je_host with Some h -> "host " ^ h | None -> "campaign")
          (Sim.Time.to_string e.je_at) e.je_cursor (cursor st);
      push_entry st e ~cursor:e.je_cursor)
    journal;
  let ctx = make_ctx st in
  let t_last =
    match journal_last journal with None -> Sim.Time.zero | Some e -> e.je_at
  in
  (* The crashed run died mid-settle at [t_last]; continue it first,
     then let the in-flight attempts race again from their recorded
     start times. *)
  Sim.Engine.schedule_at ctx.eng t_last (fun () -> settle ctx);
  Array.iteri
    (fun i h ->
      match h with H_running _ -> schedule_attempt ctx i | _ -> ())
    st.hstates;
  (match K.state st.breaker with
  | K.B_open_until u -> Sim.Engine.schedule_at ctx.eng u (fun () -> reopen ctx)
  | K.B_closed | K.B_half_open -> ());
  ctx

let resume ?ctx:run_ctx ?fault ?obs ?metrics journal =
  let c = Hypertp.Ctx.resolve ?ctx:run_ctx ?fault ?obs ?metrics () in
  drive
    (resume_st ?fault:c.Hypertp.Ctx.fault ?obs:c.Hypertp.Ctx.obs
       ?metrics:c.Hypertp.Ctx.metrics journal)

let run_to_completion ?ctx ?fault ?obs ?metrics cfg =
  let c = Hypertp.Ctx.resolve ?ctx ?fault ?obs ?metrics () in
  let fault = c.Hypertp.Ctx.fault
  and obs = c.Hypertp.Ctx.obs
  and metrics = c.Hypertp.Ctx.metrics in
  let rec go = function
    | Finished (report, _) -> report
    | Crashed j -> go (resume ?fault ?obs ?metrics j)
  in
  go (run ?fault ?obs ?metrics cfg)

let sweep ?(config = default_config) ?(seed = 0xC1A5L) ~probabilities () =
  List.map
    (fun p ->
      let fault =
        Fault.make ~seed
          [ { Fault.site = Fault.Host_crash; trigger = Fault.Probability p } ]
      in
      (p, run_to_completion ~fault config))
    probabilities

(* --- journal serialisation --- *)

let step_of_string = function
  | "inplace" -> Some Inplace
  | "shadow" -> Some Shadow
  | "drain" -> Some Drain
  | "retry" -> Some Retry
  | _ -> None

let journal_magic = "hypertp-campaign-journal v1"

let journal_to_string j =
  let buf = Buffer.create 4096 in
  let c = j.j_config in
  Buffer.add_string buf (journal_magic ^ "\n");
  Buffer.add_string buf
    (Printf.sprintf
       "config nodes=%d vms_per_node=%d vm_ram=%d node_ram=%d fraction=%.17g \
        concurrency=%d straggler=%.17g window=%d threshold=%.17g \
        cooldown_ns=%d jitter=%.17g drain=%.17g retry=%.17g seed=%Ld%s\n"
       c.nodes c.vms_per_node c.vm_ram c.node_ram c.inplace_fraction
       c.concurrency c.straggler_factor c.breaker_window c.breaker_threshold
       (Sim.Time.to_ns c.breaker_cooldown)
       c.jitter_pct c.drain_flakiness c.retry_flakiness c.seed
       (* Optional token: absent for shadow-free campaigns, so journals
          recorded before the shadow rung existed serialise
          byte-identically. *)
       (if c.shadow_spares > 0 then
          Printf.sprintf " shadow_spares=%d" c.shadow_spares
        else ""));
  journal_iter
    (fun e ->
      let tag =
        match e.je_event with
        | Admitted step -> K.Adm step
        | Flap_failure -> K.Flapleg
        | Straggler_cancelled -> K.Strag
        | Attempt_failed { step; manifestation } ->
          K.Failed (step, manifestation)
        | Attempt_completed step -> K.Done step
        | Deferred -> K.Own "defer"
        | Breaker_opened -> K.Bopen
        | Breaker_half_opened -> K.Bhalf
        | Breaker_closed -> K.Bclosed
        | Campaign_finished -> K.Own "fin"
      in
      (* Optional tokens: absent on audit- and shadow-free entries, so
         journals written before either existed serialise
         byte-identically. *)
      let audit =
        match e.je_audit with
        | Some v -> " audit=" ^ verdict_to_string v
        | None -> ""
      in
      let shadow =
        match e.je_shadow with
        | Some s ->
          Printf.sprintf " sspare=%d sstage=%d sdrop=%d sdiverge=%d spart=%d"
            (Bool.to_int s.s_spare) (Bool.to_int s.s_stage)
            (Bool.to_int s.s_drop) (Bool.to_int s.s_diverge)
            (Bool.to_int s.s_partition)
        | None -> ""
      in
      K.print_entry buf ~step:step_to_string ~at:e.je_at ~host:e.je_host ~tag
        ~decision:e.je_decision ~suffix:(audit ^ shadow) ~cursor:e.je_cursor)
    j;
  Buffer.contents buf

let journal_of_string s =
  let module L = Sim.Lines in
  Sim.Lines.decode ~magic:journal_magic ~what:"campaign journal"
    (fun lines ->
      let l, entry_lines =
        match lines with
        | l :: rest when L.keyword l = "config" -> (l, rest)
        | _ -> raise (L.Malformed "truncated journal (need a config line)")
      in
      let config =
        L.checked l validate_config
          {
            nodes = L.int l "nodes";
            vms_per_node = L.int l "vms_per_node";
            vm_ram = L.int l "vm_ram";
            node_ram = L.int l "node_ram";
            inplace_fraction = L.float l "fraction";
            concurrency = L.int l "concurrency";
            straggler_factor = L.float l "straggler";
            breaker_window = L.int l "window";
            breaker_threshold = L.float l "threshold";
            breaker_cooldown = L.ns l "cooldown_ns";
            jitter_pct = L.float l "jitter";
            drain_flakiness = L.float l "drain";
            retry_flakiness = L.float l "retry";
            seed = L.int64 l "seed";
            shadow_spares =
              (match L.opt l "shadow_spares" with
              | None -> 0
              | Some _ -> L.int l "shadow_spares");
          }
      in
      (* Parsed entries are interned straight into the packed form;
         hosts get side-table indices in first-appearance order. *)
      let words = Sim.Vec.create ~capacity:(4 * List.length entry_lines) 0 in
      let names = Sim.Vec.create "" in
      let name_idx = Hashtbl.create 64 in
      let intern h =
        match Hashtbl.find_opt name_idx h with
        | Some i -> i
        | None ->
          Hashtbl.replace name_idx h (Sim.Vec.length names);
          Sim.Vec.push names h;
          Sim.Vec.length names - 1
      in
      List.iter
        (fun l ->
          let t = K.parse_entry ~step:step_of_string l in
          let event =
            match t.K.t_tag with
            | K.Adm step -> Admitted step
            | K.Flapleg -> Flap_failure
            | K.Strag -> Straggler_cancelled
            | K.Failed (step, manifestation) ->
              Attempt_failed { step; manifestation }
            | K.Done step -> Attempt_completed step
            | K.Own "defer" -> Deferred
            | K.Bopen -> Breaker_opened
            | K.Bhalf -> Breaker_half_opened
            | K.Bclosed -> Breaker_closed
            | K.Own "fin" -> Campaign_finished
            | K.Own k -> L.fail l "unknown entry kind %S" k
          in
          let e =
            {
              je_at = t.K.t_at;
              je_host = t.K.t_host;
              je_event = event;
              je_decision = t.K.t_decision;
              je_audit =
                (match L.opt l "audit" with
                | None -> None
                | Some _ -> Some (L.conv l "audit" verdict_of_string));
              je_shadow =
                (match L.opt l "sspare" with
                | None -> None
                | Some _ ->
                  Some
                    {
                      s_spare = L.flag l "sspare";
                      s_stage = L.flag l "sstage";
                      s_drop = L.flag l "sdrop";
                      s_diverge = L.flag l "sdiverge";
                      s_partition = L.flag l "spart";
                    });
              je_cursor = t.K.t_cursor;
            }
          in
          let host_idx =
            match e.je_host with None -> -1 | Some h -> intern h
          in
          let w0, w1, w2 = pack_entry ~host_idx e in
          Sim.Vec.push words w0;
          Sim.Vec.push words w1;
          Sim.Vec.push words w2)
        entry_lines;
      { j_config = config; j_words = words; j_names = Sim.Vec.to_array names })
    s

(* --- pretty printing --- *)

let status_to_string = function
  | Upgraded_inplace -> "inplace"
  | Shadow_cutover -> "shadow-cutover"
  | Drained -> "drained"
  | Deferred_resolved -> "deferred+retried"
  | Deferred_exposed -> "deferred+EXPOSED"

let pp_host_record fmt h =
  Format.fprintf fmt "%s: %s after %d attempt%s at %a (%.3f h exposed)%s"
    h.hr_node (status_to_string h.hr_status) h.hr_attempts
    (if h.hr_attempts = 1 then "" else "s")
    Sim.Time.pp h.hr_done_at h.hr_exposure_hours
    (match h.hr_audit with
    | None -> ""
    | Some v -> ", audit " ^ verdict_to_string v)

let pp_report fmt r =
  let count s =
    List.length (List.filter (fun h -> h.hr_status = s) r.hosts)
  in
  Format.fprintf fmt
    "@[<v>campaign: %d hosts, concurrency %d (requested %d), wall-clock %a \
     (unsupervised %a, rebalance %a)@,\
     statuses: %d inplace / %d shadow / %d drained / %d retried / %d \
     exposed; breaker trips %d@,\
     exposure %.3f host-hours (baseline %.3f, deferred share %.3f)@,\
     VMs: %d total = %d inplace-ok + %d shadow + %d drained + %d on \
     deferred + %d migrated by plan%s@]"
    (List.length r.hosts) r.effective_concurrency r.cfg.concurrency
    Sim.Time.pp r.wall_clock Sim.Time.pp r.base.Upgrade.total Sim.Time.pp
    r.rebalance_time (count Upgraded_inplace) (count Shadow_cutover)
    (count Drained) (count Deferred_resolved) (count Deferred_exposed)
    r.breaker_trips r.exposed_host_hours r.baseline_exposed_host_hours
    r.deferred_exposure_hours r.vms_total r.vms_inplace_ok r.vms_shadow
    r.vms_drained r.vms_on_deferred r.vms_migrated_planned
    (match r.audit_verdicts with
    | [] -> ""
    | vs ->
      let n v = List.length (List.filter (fun (_, x) -> x = v) vs) in
      Format.asprintf "@,audits: %d clean / %d scrubbed / %d failed"
        (n A_clean) (n A_scrubbed) (n A_failed))

(* --- region-sharded fleets --- *)

type summary = {
  s_region : string;
  s_hosts : int;
  s_vms : int;
  s_wall_clock : Sim.Time.t;
  s_exposed_host_hours : float;
  s_baseline_exposed_host_hours : float;
  s_breaker_trips : int;
  s_inplace : int;
  s_shadow : int;
  s_drained : int;
  s_retried : int;
  s_exposed : int;
  s_attempts : int;
  s_events : int;
  s_resumes : int;
}

type fleet_report = {
  f_topology : Topology.t;
  f_mode : Hypertp.Ctx.sharding;
  f_shards : int;
  f_domains : int;
  f_summaries : summary array; (* region order *)
  f_journals : journal array;  (* region order *)
  f_wall_clock : Sim.Time.t;
  f_exposed_host_hours : float;
  f_baseline_exposed_host_hours : float;
  f_breaker_trips : int;
  f_resumes : int;
  f_minor_words : float;
}

(* Scalar-only digest of a finished controller: what [run_fleet] keeps
   per region instead of a [report], whose per-host records would put a
   million boxed timelines back on the heap. *)
let make_summary ~region ~resumes st =
  let wall = wall_clock st in
  let inplace = ref 0 and shadow = ref 0 and drained = ref 0 in
  let retried = ref 0 and exposed = ref 0 in
  Array.iter
    (function
      | H_done (Upgraded_inplace, _) -> incr inplace
      | H_done (Shadow_cutover, _) -> incr shadow
      | H_done (Drained, _) -> incr drained
      | H_done (Deferred_resolved, _) -> incr retried
      | H_done (Deferred_exposed, _) -> incr exposed
      | _ ->
        Hypertp_error.raise_error ~site:"Campaign" "unfinished host in summary")
    st.hstates;
  {
    s_region = region;
    s_hosts = Array.length st.setup.su_tasks;
    s_vms = st.cfg.nodes * st.cfg.vms_per_node;
    s_wall_clock = wall;
    s_exposed_host_hours =
      st.exposure_acc +. (float_of_int st.n_deferred_exposed *. hours wall);
    s_baseline_exposed_host_hours = float_of_int st.cfg.nodes *. hours wall;
    s_breaker_trips = K.trips st.breaker;
    s_inplace = !inplace;
    s_shadow = !shadow;
    s_drained = !drained;
    s_retried = !retried;
    s_exposed = !exposed;
    s_attempts = Array.fold_left ( + ) 0 st.attempts;
    s_events = Sim.Vec.length st.entries / 3;
    s_resumes = resumes;
  }

(* Each region is a full campaign whose seed is derived from the fleet
   seed and the region name — the same pure-function-of-(config, key)
   scheme the admission decisions use — so a region's entire journal is
   independent of when, where, or on which domain it ran.  That is the
   whole byte-identity argument: Sequential, Rotated and Parallel only
   reorder calls to pure functions. *)
let region_config cfg (r : Topology.region) =
  {
    cfg with
    nodes = r.Topology.rg_hosts;
    vms_per_node = r.Topology.rg_vms_per_host;
    shadow_spares =
      (if r.Topology.rg_spares > 0 then r.Topology.rg_spares
       else cfg.shadow_spares);
    seed =
      Int64.logxor cfg.seed
        (Int64.of_int (Hashtbl.hash ("fleet-region", r.Topology.rg_name)));
  }

let region_fault fault (r : Topology.region) =
  Option.map
    (fun f ->
      Fault.make
        ~seed:
          (Int64.logxor (Fault.seed f)
             (Int64.of_int (Hashtbl.hash ("fleet-region", r.Topology.rg_name))))
        (Fault.injections f))
    fault

(* Run one region's campaign to completion, surviving controller
   crashes the way [run_to_completion] does, without ever building the
   per-host report. *)
let complete_st ?fault cfg =
  let rec go resumes ctx =
    match
      try
        Sim.Engine.run ctx.eng;
        None
      with Controller_died -> Some (make_journal ctx.st)
    with
    | None -> (ctx.st, resumes)
    | Some j -> go (resumes + 1) (resume_st ?fault j)
  in
  go 0 (start_st ?fault cfg)

let tmax a b = if Sim.Time.to_ns a >= Sim.Time.to_ns b then a else b

let run_fleet ?ctx:run_ctx ?fault ?sharding ~topology cfg =
  let c = Hypertp.Ctx.resolve ?ctx:run_ctx ?fault ?sharding () in
  let topology = Topology.validate_exn topology in
  let mode = c.Hypertp.Ctx.sharding in
  (match Sim.Shard.validate mode with
  | Ok () -> ()
  | Error msg -> Hypertp_error.raise_error ~site:"Campaign.run_fleet" msg);
  let regions = Topology.regions topology in
  let n = Array.length regions in
  (* obs/metrics are deliberately not threaded into the shards: a
     shared tracer is not domain-safe, and attaching one would make the
     emitted trace depend on the schedule.  The fleet-level knobs that
     matter (fault plan, config) are re-derived per region. *)
  let outcomes =
    Sim.Shard.map mode n (fun i ->
        let r = regions.(i) in
        let rcfg = region_config cfg r in
        let rfault = region_fault c.Hypertp.Ctx.fault r in
        (* OCaml 5 GC counters are per-domain and a task runs on one
           domain start to finish, so the delta is this region's own
           allocation even under [Parallel]. *)
        let w0 = Gc.minor_words () in
        let st, resumes = complete_st ?fault:rfault rcfg in
        let words = Gc.minor_words () -. w0 in
        (make_summary ~region:r.Topology.rg_name ~resumes st,
         make_journal st, words))
  in
  let summaries = Array.map (fun (s, _, _) -> s) outcomes in
  let journals = Array.map (fun (_, j, _) -> j) outcomes in
  {
    f_topology = topology;
    f_mode = mode;
    f_shards = Sim.Shard.shards_used mode n;
    f_domains = Sim.Shard.domains_used mode n;
    f_summaries = summaries;
    f_journals = journals;
    f_wall_clock =
      Array.fold_left (fun acc s -> tmax acc s.s_wall_clock) Sim.Time.zero
        summaries;
    f_exposed_host_hours =
      Array.fold_left (fun acc s -> acc +. s.s_exposed_host_hours) 0.0
        summaries;
    f_baseline_exposed_host_hours =
      Array.fold_left
        (fun acc s -> acc +. s.s_baseline_exposed_host_hours)
        0.0 summaries;
    f_breaker_trips =
      Array.fold_left (fun acc s -> acc + s.s_breaker_trips) 0 summaries;
    f_resumes = Array.fold_left (fun acc s -> acc + s.s_resumes) 0 summaries;
    f_minor_words =
      Array.fold_left (fun acc (_, _, w) -> acc +. w) 0.0 outcomes;
  }

(* Order-insensitive inputs only: the digest covers topology, config,
   every region's summary scalars and packed journal words — and
   nothing schedule-dependent (mode, domains, timings, allocation), so
   Sequential, Rotated and Parallel runs of the same fleet must agree
   on it.  The bench self-check and CI pin exactly that. *)
let fleet_digest fr =
  let h = ref 0x1505 in
  let mix v = h := (((!h lsl 5) + !h) lxor v) land max_int in
  mix (Hashtbl.hash (Topology.spec fr.f_topology));
  Array.iter2
    (fun s j ->
      mix (Hashtbl.hash s.s_region);
      mix (Sim.Time.to_ns s.s_wall_clock);
      mix (Hashtbl.hash (Int64.bits_of_float s.s_exposed_host_hours));
      mix s.s_breaker_trips;
      mix s.s_inplace;
      mix s.s_shadow;
      mix s.s_drained;
      mix s.s_retried;
      mix s.s_exposed;
      mix s.s_attempts;
      mix s.s_events;
      mix s.s_resumes;
      mix (Hashtbl.hash j.j_config);
      Array.iter (fun nm -> mix (Hashtbl.hash nm)) j.j_names;
      Sim.Vec.iter mix j.j_words)
    fr.f_summaries fr.f_journals;
  !h

let fleet_magic = "hypertp-fleet-journal v1"

let fleet_journals_to_string fr =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (fleet_magic ^ "\n");
  Buffer.add_string buf ("topology " ^ Topology.spec fr.f_topology ^ "\n");
  Array.iter2
    (fun s j ->
      Buffer.add_string buf ("region " ^ s.s_region ^ "\n");
      Buffer.add_string buf (journal_to_string j))
    fr.f_summaries fr.f_journals;
  Buffer.contents buf

let pp_summary fmt s =
  Format.fprintf fmt
    "%s: %d hosts / %d VMs, wall-clock %a, exposure %.3f host-hours \
     (baseline %.3f); %d inplace / %d shadow / %d drained / %d retried / \
     %d exposed; %d attempts, %d events, %d trips, %d resumes"
    s.s_region s.s_hosts s.s_vms Sim.Time.pp s.s_wall_clock
    s.s_exposed_host_hours s.s_baseline_exposed_host_hours s.s_inplace
    s.s_shadow s.s_drained s.s_retried s.s_exposed s.s_attempts s.s_events
    s.s_breaker_trips s.s_resumes

(* Deliberately schedule-free (no mode, no domain count, no timings):
   CI diffs this output byte-for-byte between sequential and sharded
   runs of the same fleet. *)
let pp_fleet fmt fr =
  Format.fprintf fmt
    "@[<v>fleet: %d regions, %d hosts, %d VMs (topology %s)@,\
     wall-clock %a, exposure %.3f host-hours (baseline %.3f), breaker \
     trips %d, resumes %d@,digest %x@,%a@]"
    (Topology.n_regions fr.f_topology)
    (Topology.hosts fr.f_topology)
    (Topology.vms fr.f_topology)
    (Topology.spec fr.f_topology)
    Sim.Time.pp fr.f_wall_clock fr.f_exposed_host_hours
    fr.f_baseline_exposed_host_hours fr.f_breaker_trips fr.f_resumes
    (fleet_digest fr)
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_summary)
    (Array.to_list fr.f_summaries)
