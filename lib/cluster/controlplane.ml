module K = Campaign_kernel

type config = {
  regions : int;
  hosts_per_region : int;
  vms_per_host : int;
  global_concurrency : int;
  straggler_factor : float;
  breaker_window : int;
  breaker_threshold : float;
  breaker_cooldown : Sim.Time.t;
  jitter_pct : float;
  drain_flakiness : float;
  heartbeat_every : Sim.Time.t;
  heartbeat_timeout : Sim.Time.t;
  realloc_lag : Sim.Time.t;
  seed : int64;
}

let default_config =
  {
    regions = 4;
    hosts_per_region = 25;
    vms_per_host = 8;
    global_concurrency = 8;
    straggler_factor = 2.0;
    breaker_window = 5;
    breaker_threshold = 0.4;
    breaker_cooldown = Sim.Time.sec 120;
    jitter_pct = 0.05;
    drain_flakiness = 0.25;
    heartbeat_every = Sim.Time.sec 5;
    heartbeat_timeout = Sim.Time.sec 12;
    realloc_lag = Sim.Time.sec 22;
    seed = 0x5EEDL;
  }

(* The control plane's region grid is uniform by construction (its
   admission-budget split assumes equal regions), so only a uniform
   topology maps onto it; anything ragged is a structured error rather
   than a silent reshape. *)
let config_of_topology topology base =
  let topology = Topology.validate_exn topology in
  let rs = Topology.regions topology in
  let r0 = rs.(0) in
  Array.iter
    (fun (r : Topology.region) ->
      if
        r.Topology.rg_hosts <> r0.Topology.rg_hosts
        || r.Topology.rg_vms_per_host <> r0.Topology.rg_vms_per_host
      then
        Hypertp_error.raise_errorf ~site:"Controlplane"
          ~hint:
            "the control plane splits its admission budget over equal \
             regions; use Campaign.run_fleet for ragged topologies"
          "non-uniform topology: region %s is %dx%d but %s is %dx%d"
          r.Topology.rg_name r.Topology.rg_hosts r.Topology.rg_vms_per_host
          r0.Topology.rg_name r0.Topology.rg_hosts r0.Topology.rg_vms_per_host)
    rs;
  {
    base with
    regions = Array.length rs;
    hosts_per_region = r0.Topology.rg_hosts;
    vms_per_host = r0.Topology.rg_vms_per_host;
  }

type step = Inplace | Drain
type manifestation = K.manifestation = Crash | Timeout | Flap

type host_status = Upgraded_inplace | Drained | Deferred_exposed

type event =
  | Admitted of step
  | Flap_failure
  | Straggler_cancelled
  | Attempt_failed of { step : step; manifestation : manifestation }
  | Attempt_completed of step
  | Breaker_opened
  | Breaker_half_opened
  | Breaker_closed
  | Limit_raised of { from_region : int; slots : int }
  | Region_finished

type host_record = {
  h_name : string;
  h_status : host_status;
  h_attempts : int;
  h_manifestations : manifestation list;
  h_done_at : Sim.Time.t;
  h_exposure_hours : float;
}

type region_report = {
  rr_region : int;
  rr_hosts : host_record list;
  rr_finished_at : Sim.Time.t;
  rr_breaker_trips : int;
  rr_deferred : string list;
}

type report = {
  cp_cfg : config;
  cp_regions : region_report list;
  cp_wall_clock : Sim.Time.t;
  cp_exposed_host_hours : float;
  cp_baseline_exposed_host_hours : float;
  cp_hosts_inplace : int;
  cp_hosts_drained : int;
  cp_hosts_exposed : int;
}

let max_hosts = 1_000_000

let validate_config (cfg : config) =
  let bad msg = Hypertp_error.raise_error ~site:"Controlplane" msg in
  if cfg.regions < 1 then bad "need at least 1 region";
  if cfg.hosts_per_region < 1 then bad "hosts_per_region must be at least 1";
  if cfg.hosts_per_region > max_hosts / cfg.regions then
    Hypertp_error.raise_errorf ~site:"Controlplane"
      "regions x hosts_per_region (%d x %d) above the bound of %d hosts"
      cfg.regions cfg.hosts_per_region max_hosts;
  if cfg.vms_per_host < 1 then bad "vms_per_host must be at least 1";
  if cfg.global_concurrency < cfg.regions then
    bad "global_concurrency below the region count (each region needs a slot)";
  K.validate ~site:"Controlplane" ~straggler_factor:cfg.straggler_factor
    ~breaker_window:cfg.breaker_window ~breaker_threshold:cfg.breaker_threshold
    ~jitter_pct:cfg.jitter_pct ~drain_flakiness:cfg.drain_flakiness;
  if Sim.Time.(cfg.heartbeat_every <= zero) then
    bad "heartbeat_every must be positive";
  if Sim.Time.(cfg.heartbeat_timeout <= cfg.heartbeat_every) then
    bad "heartbeat_timeout must exceed heartbeat_every";
  if
    Sim.Time.(
      cfg.realloc_lag
      < add cfg.heartbeat_timeout
          (add cfg.heartbeat_every cfg.heartbeat_every))
  then
    bad
      "realloc_lag below heartbeat_timeout + 2 x heartbeat_every (a \
       reallocation could land inside the grantor's detection window)"

let region_name r = Printf.sprintf "r%d" r
let host_name r i = Printf.sprintf "r%d-h%d" r i

(* Per-region host fault plans: the caller plan's host-site injections,
   re-seeded per region, so one region's fault stream never shifts when
   another region's interleaving changes.  Region journal cursors track
   these derived plans only. *)
let host_sites = [ Fault.Host_flap; Fault.Host_crash; Fault.Host_timeout ]

let derive_hplan fault r =
  Option.map
    (fun f ->
      let inj =
        List.filter (fun i -> List.mem i.Fault.site host_sites)
          (Fault.injections f)
      in
      Fault.make
        ~seed:
          (Int64.logxor (Fault.seed f)
             (Int64.of_int (Hashtbl.hash ("region", r))))
        inj)
    fault

(* --- journal --- *)

type decision = K.decision = { d_flap : bool; d_crash : bool; d_timeout : bool }

type entry = {
  ce_at : Sim.Time.t; (* derived logical time, never the engine clock *)
  ce_host : string option;
  ce_event : event;
  ce_decision : decision option; (* Some iff Admitted Inplace *)
  ce_cursor : int; (* region host-plan trace length after this entry *)
}

let dummy_entry =
  { ce_at = Sim.Time.zero; ce_host = None; ce_event = Region_finished;
    ce_decision = None; ce_cursor = 0 }

type bundle = { b_config : config; b_journals : entry Sim.Vec.t array }

let bundle_config b = b.b_config

let bundle_length b =
  Array.fold_left (fun acc j -> acc + Sim.Vec.length j) 0 b.b_journals

(* --- controller state --- *)

type running_att = {
  ra_step : step;
  ra_started : Sim.Time.t;
  ra_decision : decision option;
  mutable ra_flapped : bool;
}

type hstate =
  | H_pending
  | H_running of running_att
  | H_failed_needs_drain
  | H_done of host_status * Sim.Time.t

type rstate = {
  r_index : int;
  base_limit : int;
  hstates : hstate array;
  attempts : int array;
  manifests : manifestation list array; (* newest first *)
  mutable breaker : K.breaker;
  mutable granted : int; (* slots received via Limit_raised *)
  mutable limit : int;
  mutable running : int;
  mutable next_pending : int;
  mutable needs_drain : int list;
  mutable n_done : int;
  mutable finished_at : Sim.Time.t option;
  mutable hplan : Fault.t option; (* derived; rebuilt on every replay *)
  mutable entries : entry Sim.Vec.t; (* the durable journal *)
  (* supervision (root-side, volatile — never load-bearing) *)
  mutable alive : bool;
  mutable incarnation : int;
  mutable last_seen : Sim.Time.t;
  mutable partitioned_until : Sim.Time.t;
  mutable span : Obs.Span.t option;
}

type st = {
  cfg : config;
  expected : Sim.Time.t;
  deadline : Sim.Time.t;
  drain_span : Sim.Time.t;
  regions : rstate array;
  chaos : Fault.t option; (* caller plan: control-plane sites only *)
  partition_rng : Sim.Rng.t array; (* per-region heal-delay stream *)
  realloc_done : bool array; (* volatile ledger, re-derived on handoff *)
  obs : Obs.Tracer.t option;
  metrics : Obs.Metrics.t option;
  mutable root_span : Obs.Span.t option;
  mutable dispatch_gen : int;
}

exception Root_died
exception Subctl_died

let new_breaker (cfg : config) =
  K.breaker ~window:cfg.breaker_window ~threshold:cfg.breaker_threshold
    ~cooldown:cfg.breaker_cooldown

let base_limit_of (cfg : config) r =
  (cfg.global_concurrency / cfg.regions)
  + (if r < cfg.global_concurrency mod cfg.regions then 1 else 0)

let make_st ?fault ?obs ?metrics (cfg : config) =
  let obs = Option.map Hypertp.Otrace.attach obs in
  let chaos_seed =
    match fault with Some f -> Fault.seed f | None -> 0xC7A05L
  in
  let root_span =
    Hypertp.Otrace.start obs ~at:Sim.Time.zero ~track:"root"
      ~attrs:
        [ ("engine", "controlplane");
          ("regions", string_of_int cfg.regions);
          ("hosts", string_of_int (cfg.regions * cfg.hosts_per_region));
          ("concurrency", string_of_int cfg.global_concurrency) ]
      "controlplane"
  in
  let regions =
    Array.init cfg.regions (fun r ->
        let base = base_limit_of cfg r in
        {
          r_index = r;
          base_limit = base;
          hstates = Array.make cfg.hosts_per_region H_pending;
          attempts = Array.make cfg.hosts_per_region 0;
          manifests = Array.make cfg.hosts_per_region [];
          breaker = new_breaker cfg;
          granted = 0;
          limit = base;
          running = 0;
          next_pending = 0;
          needs_drain = [];
          n_done = 0;
          finished_at = None;
          hplan = derive_hplan fault r;
          entries =
            Sim.Vec.create
              ~capacity:(Stdlib.max 16 (4 * cfg.hosts_per_region))
              dummy_entry;
          alive = true;
          incarnation = 0;
          last_seen = Sim.Time.zero;
          partitioned_until = Sim.Time.zero;
          span =
            Hypertp.Otrace.start obs ~at:Sim.Time.zero ?parent:root_span
              ~track:("region:" ^ region_name r)
              ~attrs:
                [ ("region", region_name r); ("base_limit", string_of_int base) ]
              ("subctl:" ^ region_name r);
        })
  in
  let expected = Upgrade.inplace_host_time ~vms:cfg.vms_per_host in
  {
    cfg;
    expected;
    deadline =
      Sim.Time.of_sec_f
        (Hypertp.Costs.straggler_deadline_seconds ~factor:cfg.straggler_factor
           ~expected:(Sim.Time.to_sec_f expected));
    drain_span =
      Sim.Time.add (Sim.Time.scale 2.0 expected) Upgrade.reboot_host_time;
    regions;
    chaos = fault;
    partition_rng =
      Array.init cfg.regions (fun r ->
          K.derived chaos_seed "partition" (region_name r));
    realloc_done = Array.make cfg.regions false;
    obs;
    metrics;
    root_span;
    dispatch_gen = 0;
  }

let all_finished st =
  Array.for_all (fun r -> r.finished_at <> None) st.regions

let fire_chaos st ?vm site =
  match st.chaos with None -> false | Some f -> Fault.fire f ?vm site

let cursor r =
  match r.hplan with None -> 0 | Some f -> Fault.trace_length f

let hours t = Sim.Time.to_sec_f t /. 3600.0

(* --- event naming (logs, obs attrs, serialisation) --- *)

let step_to_string = function Inplace -> "inplace" | Drain -> "drain"

let event_label = function
  | Admitted step -> "admitted(" ^ step_to_string step ^ ")"
  | Flap_failure -> "flap-leg"
  | Straggler_cancelled -> "straggler-cancelled"
  | Attempt_failed { step; manifestation } ->
    Printf.sprintf "failed(%s, %s)" (step_to_string step)
      (K.man_to_string manifestation)
  | Attempt_completed step -> "completed(" ^ step_to_string step ^ ")"
  | Breaker_opened -> "breaker-opened"
  | Breaker_half_opened -> "breaker-half-open"
  | Breaker_closed -> "breaker-closed"
  | Limit_raised { from_region; slots } ->
    Printf.sprintf "limit-raised(+%d from r%d)" slots from_region
  | Region_finished -> "region-finished"

(* --- apply: the single funnel every mutation goes through --- *)

let full_limit r = r.base_limit + r.granted

let recompute_limit r =
  r.limit <-
    (match K.state r.breaker with
    | K.B_half_open -> Stdlib.max 1 (full_limit r / 2)
    | K.B_closed | K.B_open_until _ -> full_limit r)

(* Host names are [r<R>-h<I>]: read [I] back and accept the name only
   if it is exactly the one this region gives host [I]. *)
let host_idx r h =
  let i =
    match String.index_opt h '-' with
    | Some d when d + 2 < String.length h && h.[d + 1] = 'h' ->
      int_of_string_opt (String.sub h (d + 2) (String.length h - d - 2))
    | _ -> None
  in
  match i with
  | Some i
    when i >= 0
         && i < Array.length r.hstates
         && String.equal (host_name r.r_index i) h ->
    i
  | _ ->
    Hypertp_error.raise_errorf ~site:"Controlplane"
      ~hint:"the journal must come from a campaign with the same config"
      "unknown host in journal: %s" h

let resolve_failure r i manifestation at =
  r.running <- r.running - 1;
  r.manifests.(i) <- manifestation :: r.manifests.(i);
  match r.hstates.(i) with
  | H_running ra -> (
    match ra.ra_step with
    | Inplace ->
      r.hstates.(i) <- H_failed_needs_drain;
      r.needs_drain <- i :: r.needs_drain;
      K.record r.breaker false
    | Drain ->
      r.hstates.(i) <- H_done (Deferred_exposed, at);
      r.n_done <- r.n_done + 1;
      K.record r.breaker false)
  | _ ->
    Hypertp_error.raise_error ~site:"Controlplane"
      "failure recorded for a host not running"

let apply r e =
  let at = e.ce_at in
  match (e.ce_event, e.ce_host) with
  | Admitted step, Some h ->
    let i = host_idx r h in
    (match (step, r.hstates.(i)) with
    | Inplace, H_pending | Drain, H_failed_needs_drain -> ()
    | _ ->
      Hypertp_error.raise_error ~site:"Controlplane"
        "admission out of ladder order");
    if step = Inplace && e.ce_decision = None then
      Hypertp_error.raise_error ~site:"Controlplane"
        "in-place admission without a fault decision";
    r.hstates.(i) <-
      H_running
        { ra_step = step; ra_started = at; ra_decision = e.ce_decision;
          ra_flapped = false };
    r.running <- r.running + 1;
    r.attempts.(i) <- r.attempts.(i) + 1
  | Flap_failure, Some h -> (
    match r.hstates.(host_idx r h) with
    | H_running ra -> ra.ra_flapped <- true
    | _ ->
      Hypertp_error.raise_error ~site:"Controlplane"
        "flap leg for a host not running")
  | Straggler_cancelled, Some h ->
    resolve_failure r (host_idx r h) Timeout at
  | Attempt_failed { manifestation; _ }, Some h ->
    resolve_failure r (host_idx r h) manifestation at
  | Attempt_completed step, Some h ->
    let i = host_idx r h in
    r.running <- r.running - 1;
    (match step with
    | Inplace -> r.hstates.(i) <- H_done (Upgraded_inplace, at)
    | Drain -> r.hstates.(i) <- H_done (Drained, at));
    r.n_done <- r.n_done + 1;
    K.record r.breaker true
  | Breaker_opened, None -> K.trip r.breaker ~at
  | Breaker_half_opened, None ->
    K.half_open r.breaker;
    recompute_limit r
  | Breaker_closed, None ->
    K.close r.breaker;
    recompute_limit r
  | Limit_raised { slots; _ }, None ->
    r.granted <- r.granted + slots;
    recompute_limit r
  | Region_finished, None -> r.finished_at <- Some at
  | _ ->
    Hypertp_error.raise_error ~site:"Controlplane" "malformed journal entry"

(* Narration + span/metric bookkeeping for one applied entry.  Live
   appends and [resume]'s replay both funnel through here, so a leader
   handoff re-emits the merged timeline the crashed incarnations
   emitted. *)
let observe st r e =
  let at = e.ce_at in
  let rname = region_name r.r_index in
  let track = "region:" ^ rname in
  let labels = [ ("engine", "controlplane"); ("region", rname) ] in
  Hypertp.Log.info (fun m ->
      m "controlplane %s%s: %s at %a" rname
        (match e.ce_host with Some h -> " " ^ h | None -> "")
        (event_label e.ce_event) Sim.Time.pp at);
  let host_attrs =
    match e.ce_host with Some h -> [ ("host", h) ] | None -> []
  in
  (match e.ce_event with
  | Admitted step ->
    Hypertp.Otrace.instant st.obs ~at ?parent:r.span ~track
      ~attrs:(("step", step_to_string step) :: host_attrs)
      "admitted";
    Hypertp.Otrace.count st.metrics
      ~labels:(("step", step_to_string step) :: labels)
      "hypertp_ctl_attempts_total"
  | Flap_failure ->
    Hypertp.Otrace.instant st.obs ~at ?parent:r.span ~track ~attrs:host_attrs
      "flap_leg"
  | Straggler_cancelled ->
    Hypertp.Otrace.instant st.obs ~at ?parent:r.span ~track ~attrs:host_attrs
      "straggler_cancelled";
    Hypertp.Otrace.count st.metrics
      ~labels:(("manifestation", "timeout") :: labels)
      "hypertp_ctl_failures_total"
  | Attempt_failed { manifestation; step } ->
    Hypertp.Otrace.instant st.obs ~at ?parent:r.span ~track
      ~attrs:
        (("step", step_to_string step)
        :: ("manifestation", K.man_to_string manifestation)
        :: host_attrs)
      "attempt_failed";
    Hypertp.Otrace.count st.metrics
      ~labels:(("manifestation", K.man_to_string manifestation) :: labels)
      "hypertp_ctl_failures_total"
  | Attempt_completed step ->
    Hypertp.Otrace.instant st.obs ~at ?parent:r.span ~track
      ~attrs:(("step", step_to_string step) :: host_attrs)
      "attempt_completed";
    Hypertp.Otrace.count st.metrics
      ~labels:(("step", step_to_string step) :: labels)
      "hypertp_ctl_completions_total"
  | Breaker_opened ->
    Hypertp.Otrace.instant st.obs ~at ?parent:r.span ~track "breaker:opened";
    Hypertp.Otrace.count st.metrics ~labels "hypertp_ctl_breaker_trips_total"
  | Breaker_half_opened ->
    Hypertp.Otrace.instant st.obs ~at ?parent:r.span ~track
      "breaker:half_open"
  | Breaker_closed ->
    Hypertp.Otrace.instant st.obs ~at ?parent:r.span ~track "breaker:closed"
  | Limit_raised { from_region; slots } ->
    Hypertp.Otrace.instant st.obs ~at ?parent:st.root_span ~track:"root"
      ~attrs:
        [ ("to", rname); ("from", region_name from_region);
          ("slots", string_of_int slots) ]
      "realloc";
    Hypertp.Otrace.count st.metrics ~labels "hypertp_ctl_reallocs_total"
  | Region_finished ->
    (match r.span with
    | Some s -> Obs.Span.set_attr s "trips" (string_of_int (K.trips r.breaker))
    | None -> ());
    Hypertp.Otrace.finish st.obs r.span ~at;
    r.span <- None);
  Hypertp.Otrace.gauge_set st.metrics ~labels "hypertp_ctl_running"
    (float_of_int r.running)

(* Journal-then-crash: the entry is applied, observed and persisted
   before [Subctl_crash] is consulted, so every recovery makes at least
   one entry of progress and a crashed sub-controller never loses the
   event it was recording.  The chaos consult happens on the caller
   plan, not the cursor-tracked region plan, so crashing runs journal
   byte-identically to calm ones. *)
let append st r ?host ?decision ~at ev =
  let e =
    { ce_at = at; ce_host = host; ce_event = ev; ce_decision = decision;
      ce_cursor = 0 }
  in
  apply r e;
  observe st r e;
  let crashed =
    r.alive && fire_chaos st ~vm:(region_name r.r_index) Fault.Subctl_crash
  in
  Sim.Vec.push r.entries { e with ce_cursor = cursor r };
  if crashed then begin
    r.alive <- false;
    Hypertp.Otrace.instant st.obs ~at ?parent:st.root_span ~track:"root"
      ~attrs:
        [ ("region", region_name r.r_index);
          ("incarnation", string_of_int r.incarnation) ]
      "subctl:crashed";
    Hypertp.Otrace.count st.metrics
      ~labels:[ ("engine", "controlplane"); ("region", region_name r.r_index) ]
      "hypertp_ctl_subctl_crashes_total";
    raise Subctl_died
  end

(* --- derived logical events ---

   A region's future is a pure function of its journal-applied state:
   each running host carries exactly one next event at a derived
   absolute time, and an open breaker carries its reopen instant.  The
   dispatcher and crash catch-up both consume the same derivation in
   the same total order (time, kind, region, host), which is what makes
   recovery timeline-neutral. *)

type raction = R_reopen | R_host of int * K.next

let kind_reopen = 1
let kind_host = 2

let next_of_running st r i ra =
  let host = host_name r.r_index i in
  let from span = Sim.Time.add ra.ra_started span in
  match ra.ra_step with
  | Inplace ->
    let d =
      match ra.ra_decision with
      | Some d -> d
      | None ->
        Hypertp_error.raise_error ~site:"Controlplane"
          "in-place attempt without decision"
    in
    let next = K.inplace_next d ~flapped:ra.ra_flapped in
    ( from
        (K.inplace_offset ~seed:st.cfg.seed ~jitter_pct:st.cfg.jitter_pct ~host
           ~expected:st.expected ~deadline:st.deadline next),
      next )
  | Drain ->
    let next =
      K.drain_next ~seed:st.cfg.seed ~flakiness:st.cfg.drain_flakiness ~host
    in
    (from (K.drain_offset ~span:st.drain_span next), next)

(* Minimum pending logical event of one region, keyed for the global
   comparator. *)
let region_candidate st r =
  if r.finished_at <> None then None
  else begin
    let best = ref None in
    let consider t kind host act =
      match !best with
      | Some (t', kind', host', _)
        when Sim.Time.(t' < t)
             || (Sim.Time.equal t' t
                && (kind' < kind || (kind' = kind && host' <= host))) ->
        ()
      | _ -> best := Some (t, kind, host, act)
    in
    (match K.state r.breaker with
    | K.B_open_until u -> consider u kind_reopen (-1) R_reopen
    | K.B_closed | K.B_half_open -> ());
    Array.iteri
      (fun i h ->
        match h with
        | H_running ra ->
          let t, ev = next_of_running st r i ra in
          consider t kind_host i (R_host (i, ev))
        | _ -> ())
      r.hstates;
    !best
  end

(* --- live execution: settle + admission --- *)

let rec settle st r ~at =
  (* 1. Ladder escalations: a failed in-place attempt drains next.
     Escalation keeps the host's admission slot and ignores the breaker.
     The work-list is drained sorted; the state guard skips entries a
     replay re-pushed for hosts already escalated. *)
  let drainable = List.sort compare r.needs_drain in
  r.needs_drain <- [];
  List.iter
    (fun i -> if r.hstates.(i) = H_failed_needs_drain then admit st r i Drain ~at)
    drainable;
  (* 2. Breaker transitions. *)
  (match K.verdict r.breaker with
  | K.Trip -> append st r ~at Breaker_opened
  | K.Close -> append st r ~at Breaker_closed
  | K.Hold -> ());
  (* 3. Admission: fill free slots lowest-index first unless the breaker
     is open.  [next_pending] is a monotone cursor — a host never
     returns to [H_pending]. *)
  let n = Array.length r.hstates in
  let skip () =
    while r.next_pending < n && r.hstates.(r.next_pending) <> H_pending do
      r.next_pending <- r.next_pending + 1
    done
  in
  (match K.state r.breaker with
  | K.B_open_until _ -> ()
  | K.B_closed | K.B_half_open ->
    skip ();
    while r.next_pending < n && r.running < r.limit do
      admit st r r.next_pending Inplace ~at;
      skip ()
    done);
  skip ();
  (* 4. Region end: every host terminal. *)
  if r.running = 0 && r.next_pending >= n && r.n_done = n && r.finished_at = None
  then append st r ~at Region_finished

and admit st r i step ~at =
  let name = host_name r.r_index i in
  let decision =
    match step with Inplace -> K.decide r.hplan ~host:name | Drain -> None
  in
  append st r ~host:name ?decision ~at (Admitted step)

(* Process one derived logical event of one region, stamping its derived
   time — the dispatcher calls this at [at] on the engine clock, crash
   catch-up calls it later with the same stamp, and the journal cannot
   tell the difference. *)
let process_raction st r ~at act =
  match act with
  | R_reopen -> (
    match K.state r.breaker with
    | K.B_open_until _ ->
      append st r ~at Breaker_half_opened;
      settle st r ~at
    | K.B_closed | K.B_half_open -> ())
  | R_host (i, hv) -> (
    let name = host_name r.r_index i in
    match r.hstates.(i) with
    | H_running ra -> (
      match hv with
      | K.Flap_leg ->
        (* First leg: the host fails, then recovers.  Not an attempt
           outcome — it must not count toward the breaker. *)
        append st r ~host:name ~at Flap_failure
      | K.Deadline ->
        append st r ~host:name ~at Straggler_cancelled;
        settle st r ~at
      | K.Fail m ->
        append st r ~host:name ~at
          (Attempt_failed { step = ra.ra_step; manifestation = m });
        settle st r ~at
      | K.Complete ->
        append st r ~host:name ~at (Attempt_completed ra.ra_step);
        settle st r ~at)
    | _ ->
      Hypertp_error.raise_error ~site:"Controlplane"
        "derived event for a host not running")

(* --- journal replay (recovery and leader handoff) --- *)

let reset_region st r =
  Array.fill r.hstates 0 (Array.length r.hstates) H_pending;
  Array.fill r.attempts 0 (Array.length r.attempts) 0;
  Array.fill r.manifests 0 (Array.length r.manifests) [];
  r.breaker <- new_breaker st.cfg;
  r.granted <- 0;
  r.limit <- r.base_limit;
  r.running <- 0;
  r.next_pending <- 0;
  r.needs_drain <- [];
  r.n_done <- 0;
  r.finished_at <- None;
  r.hplan <- derive_hplan st.chaos r.r_index

(* Replay a region journal from scratch: rebuild the volatile state and
   re-validate every entry against a freshly derived region fault plan.
   [Crash_during_resume] is consulted once per replayed entry — it kills
   the recovering controller (the root), aborting the incarnation. *)
let replay st r ~emit =
  reset_region st r;
  let rname = region_name r.r_index in
  let plan_seed () =
    match r.hplan with Some f -> Fault.seed f | None -> 0L
  in
  let entry_no = ref 0 in
  Sim.Vec.iter
    (fun e ->
      incr entry_no;
      if fire_chaos st ~vm:rname Fault.Crash_during_resume then begin
        Hypertp.Otrace.instant st.obs ~at:e.ce_at ?parent:st.root_span
          ~track:"root"
          ~attrs:[ ("region", rname); ("entry", string_of_int !entry_no) ]
          "crash_during_resume";
        Hypertp.Otrace.count st.metrics
          ~labels:[ ("engine", "controlplane"); ("region", rname) ]
          "hypertp_ctl_resume_crashes_total";
        raise Root_died
      end;
      (match (e.ce_event, e.ce_host, e.ce_decision) with
      | Admitted Inplace, Some h, Some d ->
        if r.hplan <> None && K.decide r.hplan ~host:h <> Some d then
          Hypertp_error.raise_errorf ~site:"Controlplane.resume"
            ~hint:
              "resume with the fault plan the crashed run used: region \
               plans derive from its seed, so a different seed or \
               injection list decides host faults differently"
            "region %s journal entry %d (host %s admission at %s) disagrees \
             with the derived fault plan (seed %Ld)"
            rname !entry_no h (Sim.Time.to_string e.ce_at) (plan_seed ())
      | Admitted Inplace, _, None ->
        Hypertp_error.raise_errorf ~site:"Controlplane.resume"
          "region %s journal entry %d: in-place admission without decision"
          rname !entry_no
      | _ -> ());
      apply r e;
      if emit then observe st r e;
      if r.hplan <> None && cursor r <> e.ce_cursor then
        Hypertp_error.raise_errorf ~site:"Controlplane.resume"
          ~hint:
            "every earlier entry matched, so the fault specs (or seed) \
             differ from the crashed run's"
          "region %s journal entry %d (%s at %s): fault-plan cursor \
           diverged — the journal records %d fire decisions, the replayed \
           plan took %d"
          rname !entry_no
          (match e.ce_host with Some h -> "host " ^ h | None -> "region")
          (Sim.Time.to_string e.ce_at) e.ce_cursor (cursor r))
    r.entries

(* Recover a sub-controller at engine time [upto]: replay the journal,
   finish whatever settle the crash interrupted (stamped at the last
   entry), then catch up — process the backlog of derived events with
   stamps strictly below [upto], each at its original stamp.  If the
   fresh incarnation crashes again mid-recovery the root restarts it
   immediately (journal-then-crash guarantees an entry of progress per
   attempt, so this terminates); only [Crash_during_resume] escapes, by
   killing the root itself. *)
let recover st r ~upto ~spurious =
  let first = ref true in
  let again = ref true in
  while !again do
    r.incarnation <- r.incarnation + 1;
    r.alive <- false;
    let kind = if !first && spurious then "spurious" else "crash" in
    first := false;
    Hypertp.Otrace.instant st.obs ~at:upto ?parent:st.root_span ~track:"root"
      ~attrs:
        [ ("region", region_name r.r_index);
          ("incarnation", string_of_int r.incarnation); ("kind", kind) ]
      "subctl:restart";
    Hypertp.Otrace.count st.metrics
      ~labels:
        [ ("engine", "controlplane"); ("region", region_name r.r_index);
          ("kind", kind) ]
      "hypertp_ctl_restarts_total";
    try
      replay st r ~emit:false;
      r.alive <- true;
      let t_last =
        match Sim.Vec.last r.entries with
        | Some e -> e.ce_at
        | None -> Sim.Time.zero
      in
      settle st r ~at:t_last;
      let rec catch_up () =
        if r.finished_at = None then
          match region_candidate st r with
          | Some (t, _, _, act) when Sim.Time.(t < upto) ->
            process_raction st r ~at:t act;
            catch_up ()
          | _ -> ()
      in
      catch_up ();
      again := false
    with Subctl_died -> ()
  done;
  r.last_seen <- upto

(* --- results --- *)

let make_bundle st =
  { b_config = st.cfg; b_journals = Array.map (fun r -> r.entries) st.regions }

let make_report st =
  let wall =
    Array.fold_left
      (fun acc r ->
        match r.finished_at with
        | Some t -> Sim.Time.max acc t
        | None ->
          Hypertp_error.raise_error ~site:"Controlplane"
            "report requested before all regions finished")
      Sim.Time.zero st.regions
  in
  let region_reports =
    Array.to_list
      (Array.map
         (fun r ->
           let hosts =
             Array.to_list
               (Array.mapi
                  (fun i h ->
                    let status, done_at =
                      match h with
                      | H_done (Deferred_exposed, _) -> (Deferred_exposed, wall)
                      | H_done (s, at) -> (s, at)
                      | _ ->
                        Hypertp_error.raise_error ~site:"Controlplane"
                          "unfinished host in report"
                    in
                    {
                      h_name = host_name r.r_index i;
                      h_status = status;
                      h_attempts = r.attempts.(i);
                      h_manifestations = List.rev r.manifests.(i);
                      h_done_at = done_at;
                      h_exposure_hours = hours done_at;
                    })
                  r.hstates)
           in
           {
             rr_region = r.r_index;
             rr_hosts = hosts;
             rr_finished_at =
               (match r.finished_at with Some t -> t | None -> assert false);
             rr_breaker_trips = K.trips r.breaker;
             rr_deferred =
               List.filter_map
                 (fun h ->
                   if h.h_status = Deferred_exposed then Some h.h_name
                   else None)
                 hosts;
           })
         st.regions)
  in
  let all_hosts = List.concat_map (fun rr -> rr.rr_hosts) region_reports in
  let count p =
    List.length (List.filter (fun h -> p h.h_status) all_hosts)
  in
  let r =
    {
      cp_cfg = st.cfg;
      cp_regions = region_reports;
      cp_wall_clock = wall;
      cp_exposed_host_hours =
        List.fold_left (fun a h -> a +. h.h_exposure_hours) 0.0 all_hosts;
      cp_baseline_exposed_host_hours =
        float_of_int (st.cfg.regions * st.cfg.hosts_per_region) *. hours wall;
      cp_hosts_inplace = count (( = ) Upgraded_inplace);
      cp_hosts_drained = count (( = ) Drained);
      cp_hosts_exposed = count (( = ) Deferred_exposed);
    }
  in
  let labels = [ ("engine", "controlplane") ] in
  Hypertp.Otrace.gauge_set st.metrics ~labels "hypertp_ctl_exposed_host_hours"
    r.cp_exposed_host_hours;
  Hypertp.Otrace.gauge_set st.metrics ~labels
    "hypertp_ctl_wall_clock_seconds"
    (Sim.Time.to_sec_f r.cp_wall_clock);
  Hypertp.Otrace.finish st.obs st.root_span ~at:wall;
  st.root_span <- None;
  r

type run_result = Finished of report * bundle | Crashed of bundle

(* --- the root supervisor: dispatcher + heartbeats --- *)

type ctx = { st : st; eng : Sim.Engine.t }

let make_ctx st = { st; eng = Sim.Engine.create () }

type gaction = G_realloc of int | G_region of int * raction

(* Minimum pending derived event across the whole fleet, in the total
   order (time, kind, region, host) with reallocation first. *)
let global_next st =
  if all_finished st then None
  else begin
    let best = ref None in
    let consider t kind region host act =
      match !best with
      | Some (t', k', r', h', _)
        when Sim.Time.(t' < t)
             || (Sim.Time.equal t' t
                && (k' < kind
                   || (k' = kind && (r' < region || (r' = region && h' <= host)))))
        ->
        ()
      | _ -> best := Some (t, kind, region, host, act)
    in
    Array.iteri
      (fun j r ->
        (match r.finished_at with
        | Some tf when not st.realloc_done.(j) ->
          consider (Sim.Time.add tf st.cfg.realloc_lag) 0 j (-1) (G_realloc j)
        | _ -> ());
        if r.alive then
          match region_candidate st r with
          | Some (t, kind, host, act) ->
            consider t kind j host (G_region (j, act))
          | None -> ())
      st.regions;
    !best
  end

(* A finished region's slots arrive [realloc_lag] after its finish
   stamp.  Reconcile-on-read: a dead region's journal may be missing
   derived events (including its own finish) that logically precede
   this reallocation, so recover every dead region before reading who
   is still unfinished.  The grant is durable — a [Limit_raised] entry
   in the recipient's journal — so a leader handoff re-derives the
   ledger with no root-private state. *)
let process_realloc st ~at j =
  st.realloc_done.(j) <- true;
  Array.iter
    (fun r ->
      if (not r.alive) && r.finished_at = None then
        recover st r ~upto:at ~spurious:false)
    st.regions;
  match Array.find_opt (fun r -> r.finished_at = None) st.regions with
  | None -> ()
  | Some recipient -> (
    let slots = full_limit st.regions.(j) in
    try
      append st recipient ~at (Limit_raised { from_region = j; slots });
      settle st recipient ~at
    with Subctl_died -> ())

let rec arm_dispatch ctx =
  let st = ctx.st in
  st.dispatch_gen <- st.dispatch_gen + 1;
  let gen = st.dispatch_gen in
  match global_next st with
  | None -> ()
  | Some (at, _, _, _, act) ->
    Sim.Engine.schedule_at ctx.eng at (fun () ->
        if st.dispatch_gen = gen then begin
          (match act with
          | G_realloc j -> process_realloc st ~at j
          | G_region (ridx, ract) -> (
            let r = st.regions.(ridx) in
            if r.alive then
              try process_raction st r ~at ract with Subctl_died -> ()));
          arm_dispatch ctx
        end)

(* One root heartbeat tick: consult [Root_crash], collect heartbeats
   (dropping them through active partitions, arming new partitions via
   [Ctl_partition]), then detect and recover any sub-controller silent
   past the timeout. *)
let tick ctx () =
  let st = ctx.st in
  if all_finished st then `Stop
  else begin
    let now = Sim.Engine.now ctx.eng in
    if fire_chaos st ~vm:"root" Fault.Root_crash then begin
      Hypertp.Otrace.instant st.obs ~at:now ?parent:st.root_span ~track:"root"
        "root:crashed";
      Hypertp.Otrace.count st.metrics
        ~labels:[ ("engine", "controlplane") ]
        "hypertp_ctl_root_crashes_total";
      raise Root_died
    end;
    Array.iter
      (fun r ->
        if r.finished_at = None && r.alive then begin
          if fire_chaos st ~vm:(region_name r.r_index) Fault.Ctl_partition
          then begin
            let u = Sim.Rng.float st.partition_rng.(r.r_index) 1.0 in
            r.partitioned_until <-
              Sim.Time.add now
                (Sim.Time.scale (1.0 +. (2.0 *. u)) st.cfg.heartbeat_timeout);
            Hypertp.Otrace.instant st.obs ~at:now ?parent:st.root_span
              ~track:"root"
              ~attrs:
                [ ("region", region_name r.r_index);
                  ("heals_at", Sim.Time.to_string r.partitioned_until) ]
              "ctl:partitioned";
            Hypertp.Otrace.count st.metrics
              ~labels:
                [ ("engine", "controlplane");
                  ("region", region_name r.r_index) ]
              "hypertp_ctl_partitions_total"
          end;
          if Sim.Time.(r.partitioned_until <= now) then r.last_seen <- now
        end)
      st.regions;
    let recovered = ref false in
    Array.iter
      (fun r ->
        if
          r.finished_at = None
          && Sim.Time.(st.cfg.heartbeat_timeout < diff now r.last_seen)
        then begin
          recover st r ~upto:now ~spurious:r.alive;
          recovered := true
        end)
      st.regions;
    if !recovered then arm_dispatch ctx;
    `Continue
  end

let drive ctx =
  Sim.Engine.schedule_every ctx.eng ctx.st.cfg.heartbeat_every (tick ctx);
  try
    arm_dispatch ctx;
    Sim.Engine.run ctx.eng;
    Finished (make_report ctx.st, make_bundle ctx.st)
  with Root_died -> Crashed (make_bundle ctx.st)

let run ?ctx:run_ctx ?fault ?obs ?metrics cfg =
  let c = Hypertp.Ctx.resolve ?ctx:run_ctx ?fault ?obs ?metrics () in
  validate_config cfg;
  let st =
    make_st ?fault:c.Hypertp.Ctx.fault ?obs:c.Hypertp.Ctx.obs
      ?metrics:c.Hypertp.Ctx.metrics cfg
  in
  let ctx = make_ctx st in
  Array.iter
    (fun r -> try settle st r ~at:Sim.Time.zero with Subctl_died -> ())
    st.regions;
  drive ctx

let resume ?ctx:run_ctx ?fault ?obs ?metrics bundle =
  let c = Hypertp.Ctx.resolve ?ctx:run_ctx ?fault ?obs ?metrics () in
  validate_config bundle.b_config;
  let st =
    make_st ?fault:c.Hypertp.Ctx.fault ?obs:c.Hypertp.Ctx.obs
      ?metrics:c.Hypertp.Ctx.metrics bundle.b_config
  in
  Array.iteri
    (fun i r ->
      r.entries <-
        Sim.Vec.of_list dummy_entry (Sim.Vec.to_list bundle.b_journals.(i)))
    st.regions;
  let ctx = make_ctx st in
  Hypertp.Otrace.instant st.obs ~at:Sim.Time.zero ?parent:st.root_span
    ~track:"root" "leader:handoff";
  Hypertp.Otrace.count st.metrics
    ~labels:[ ("engine", "controlplane") ]
    "hypertp_ctl_handoffs_total";
  try
    (* Leader handoff: the new root's entire view is re-derived from the
       sub-journals — replay them all (re-emitting the merged timeline),
       rebuild the reallocation ledger from the durable [Limit_raised]
       grants, and finish whatever settle each crash interrupted. *)
    Array.iter (fun r -> replay st r ~emit:true) st.regions;
    Array.iter
      (fun r ->
        Sim.Vec.iter
          (fun e ->
            match e.ce_event with
            | Limit_raised { from_region; _ } ->
              st.realloc_done.(from_region) <- true
            | _ -> ())
          r.entries)
      st.regions;
    Array.iter
      (fun r ->
        if r.finished_at = None then begin
          let t_last =
            match Sim.Vec.last r.entries with
            | Some e -> e.ce_at
            | None -> Sim.Time.zero
          in
          try settle st r ~at:t_last with Subctl_died -> ()
        end)
      st.regions;
    drive ctx
  with Root_died -> Crashed (make_bundle st)

let run_to_completion ?ctx ?fault ?obs ?metrics cfg =
  let c = Hypertp.Ctx.resolve ?ctx ?fault ?obs ?metrics () in
  let fault = c.Hypertp.Ctx.fault
  and obs = c.Hypertp.Ctx.obs
  and metrics = c.Hypertp.Ctx.metrics in
  (* The chaos plan is passed through as-is (not restarted), so an
     Nth_hit on a control-plane site fires once across the whole
     run/resume chain. *)
  let rec go = function
    | Finished (report, _) -> report
    | Crashed b -> go (resume ?fault ?obs ?metrics b)
  in
  go (run ?fault ?obs ?metrics cfg)

(* --- rendering + serialisation --- *)

let summary r =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "controlplane: %d regions x %d hosts, global concurrency %d, wall %s\n"
       r.cp_cfg.regions r.cp_cfg.hosts_per_region r.cp_cfg.global_concurrency
       (Sim.Time.to_string r.cp_wall_clock));
  List.iter
    (fun rr ->
      let c s = List.length (List.filter (fun h -> h.h_status = s) rr.rr_hosts) in
      Buffer.add_string buf
        (Printf.sprintf
           "region %d: finished %s | inplace %d drained %d exposed %d | \
            breaker trips %d\n"
           rr.rr_region
           (Sim.Time.to_string rr.rr_finished_at)
           (c Upgraded_inplace) (c Drained) (c Deferred_exposed)
           rr.rr_breaker_trips))
    r.cp_regions;
  Buffer.add_string buf
    (Printf.sprintf
       "fleet: inplace %d drained %d exposed %d | exposed-host-hours %.6f \
        (baseline %.6f)\n"
       r.cp_hosts_inplace r.cp_hosts_drained r.cp_hosts_exposed
       r.cp_exposed_host_hours r.cp_baseline_exposed_host_hours);
  Buffer.contents buf

let merged_to_string b =
  let items = ref [] in
  Array.iteri
    (fun ridx j ->
      let seq = ref 0 in
      Sim.Vec.iter
        (fun e ->
          items := (e.ce_at, ridx, !seq, e) :: !items;
          incr seq)
        j)
    b.b_journals;
  let sorted =
    List.sort
      (fun (t1, r1, s1, _) (t2, r2, s2, _) ->
        match Sim.Time.compare t1 t2 with
        | 0 -> ( match compare r1 r2 with 0 -> compare s1 s2 | c -> c)
        | c -> c)
      (List.rev !items)
  in
  let buf = Buffer.create 4096 in
  List.iter
    (fun (t, ridx, _, e) ->
      Buffer.add_string buf
        (Printf.sprintf "t=%d r%d %s %s\n" (Sim.Time.to_ns t) ridx
           (match e.ce_host with Some h -> h | None -> "-")
           (event_label e.ce_event)))
    sorted;
  Buffer.contents buf

let bundle_magic = "hypertp-controlplane-bundle v1"

let entry_line buf e =
  let tag =
    match e.ce_event with
    | Admitted step -> K.Adm step
    | Flap_failure -> K.Flapleg
    | Straggler_cancelled -> K.Strag
    | Attempt_failed { step; manifestation } -> K.Failed (step, manifestation)
    | Attempt_completed step -> K.Done step
    | Breaker_opened -> K.Bopen
    | Breaker_half_opened -> K.Bhalf
    | Breaker_closed -> K.Bclosed
    | Limit_raised { from_region; slots } ->
      K.Own (Printf.sprintf "raise from=%d slots=%d" from_region slots)
    | Region_finished -> K.Own "rfin"
  in
  K.print_entry buf ~step:step_to_string ~at:e.ce_at ~host:e.ce_host ~tag
    ~decision:e.ce_decision ~suffix:"" ~cursor:e.ce_cursor

let config_line (c : config) =
  Printf.sprintf
    "config regions=%d hosts=%d vms=%d conc=%d straggler=%.17g window=%d \
     threshold=%.17g cooldown_ns=%d jitter=%.17g drain=%.17g hb_every_ns=%d \
     hb_timeout_ns=%d lag_ns=%d seed=%Ld"
    c.regions c.hosts_per_region c.vms_per_host c.global_concurrency
    c.straggler_factor c.breaker_window c.breaker_threshold
    (Sim.Time.to_ns c.breaker_cooldown)
    c.jitter_pct c.drain_flakiness
    (Sim.Time.to_ns c.heartbeat_every)
    (Sim.Time.to_ns c.heartbeat_timeout)
    (Sim.Time.to_ns c.realloc_lag)
    c.seed

let bundle_to_string b =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (bundle_magic ^ "\n");
  Buffer.add_string buf (config_line b.b_config ^ "\n");
  Array.iteri
    (fun i j ->
      Buffer.add_string buf
        (Printf.sprintf "region idx=%d entries=%d\n" i (Sim.Vec.length j));
      Sim.Vec.iter (entry_line buf) j)
    b.b_journals;
  Buffer.contents buf

let step_of_string = function
  | "inplace" -> Some Inplace
  | "drain" -> Some Drain
  | _ -> None

let bundle_of_string s =
  let module L = Sim.Lines in
  L.decode ~magic:bundle_magic ~what:"control-plane bundle"
    (fun lines ->
      let l, rest =
        match lines with
        | l :: rest when L.keyword l = "config" -> (l, rest)
        | _ -> raise (L.Malformed "truncated bundle (want a config line)")
      in
      let config =
        L.checked l validate_config
          {
            regions = L.int l "regions";
            hosts_per_region = L.int l "hosts";
            vms_per_host = L.int l "vms";
            global_concurrency = L.int l "conc";
            straggler_factor = L.float l "straggler";
            breaker_window = L.int l "window";
            breaker_threshold = L.float l "threshold";
            breaker_cooldown = L.ns l "cooldown_ns";
            jitter_pct = L.float l "jitter";
            drain_flakiness = L.float l "drain";
            heartbeat_every = L.ns l "hb_every_ns";
            heartbeat_timeout = L.ns l "hb_timeout_ns";
            realloc_lag = L.ns l "lag_ns";
            seed = L.int64 l "seed";
          }
      in
      (* The header count is checked before any region is allocated: the
         config line alone must not size the decoder's memory. *)
      let is_header l = L.keyword l = "region" in
      let headers = List.length (List.filter is_header rest) in
      if headers <> config.regions then
        L.fail l "config names %d regions but the bundle has %d region headers"
          config.regions headers;
      let journals =
        Array.init config.regions (fun _ -> Sim.Vec.create dummy_entry)
      in
      let current = ref (-1) in
      List.iter
        (fun l ->
          if is_header l then begin
            let idx = L.int l "idx" in
            if idx <> !current + 1 then
              L.fail l "region idx=%d out of order (want %d)" idx
                (!current + 1);
            current := idx
          end
          else begin
            if !current < 0 then
              L.fail l "journal entry before any region header";
            let t = K.parse_entry ~step:step_of_string l in
            let event =
              match t.K.t_tag with
              | K.Adm step -> Admitted step
              | K.Flapleg -> Flap_failure
              | K.Strag -> Straggler_cancelled
              | K.Failed (step, manifestation) ->
                Attempt_failed { step; manifestation }
              | K.Done step -> Attempt_completed step
              | K.Bopen -> Breaker_opened
              | K.Bhalf -> Breaker_half_opened
              | K.Bclosed -> Breaker_closed
              | K.Own "raise" ->
                let from_region = L.int l "from" in
                if from_region < 0 || from_region >= config.regions then
                  L.fail l "raise from region %d out of range" from_region;
                Limit_raised { from_region; slots = L.int l "slots" }
              | K.Own "rfin" -> Region_finished
              | K.Own k -> L.fail l "unknown entry kind %S" k
            in
            Sim.Vec.push journals.(!current)
              {
                ce_at = t.K.t_at;
                ce_host = t.K.t_host;
                ce_event = event;
                ce_decision = t.K.t_decision;
                ce_cursor = t.K.t_cursor;
              }
          end)
        rest;
      { b_config = config; b_journals = journals })
    s
