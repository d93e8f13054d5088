(* The cost order timeout > flap > crash: the deadline (>= 1.2x, validated)
   dominates the final flap leg (1.1x), a crash (0.5x) and any jittered
   success (<= 1.1x). *)
let crash_frac = 0.5
let flap_leg1_frac = 0.55
let flap_final_frac = 1.10
let drain_fail_frac = 0.6
let min_straggler_factor = 1.2
let max_jitter_pct = 0.1

let validate ~site ~straggler_factor ~breaker_window ~breaker_threshold
    ~jitter_pct ~drain_flakiness =
  let bad msg = Hypertp_error.raise_error ~site msg in
  if straggler_factor < min_straggler_factor then
    bad "straggler_factor below 1.2 (deadline must dominate a flap)";
  if breaker_window < 1 then bad "breaker_window must be at least 1";
  if breaker_window > 62 then
    bad "breaker_window above 62 (outcomes are tracked in one word)";
  if breaker_threshold < 0.0 || breaker_threshold > 1.0 then
    bad "breaker_threshold outside [0, 1]";
  if jitter_pct < 0.0 || jitter_pct > max_jitter_pct then
    bad "jitter_pct outside [0, 0.1] (success must beat the deadline)";
  if drain_flakiness < 0.0 || drain_flakiness > 1.0 then
    bad "drain_flakiness outside [0, 1]"

type manifestation = Crash | Timeout | Flap
type decision = { d_flap : bool; d_crash : bool; d_timeout : bool }

let derived seed salt key =
  Sim.Rng.create (Int64.logxor seed (Int64.of_int (Hashtbl.hash (salt, key))))

let coin seed salt key p = Sim.Rng.float (derived seed salt key) 1.0 < p
let host_jitter seed pct key = Sim.Rng.jitter (derived seed "jitter" key) pct

(* Static, so a plan-free admission allocates no decision. *)
let calm = Some { d_flap = false; d_crash = false; d_timeout = false }

let decide plan ~host =
  match plan with
  | None -> calm
  | Some f ->
    let d_flap = Fault.fire f ~vm:host Fault.Host_flap in
    let d_crash = Fault.fire f ~vm:host Fault.Host_crash in
    let d_timeout = Fault.fire f ~vm:host Fault.Host_timeout in
    Some { d_flap; d_crash; d_timeout }

type next = Flap_leg | Fail of manifestation | Complete | Deadline

let inplace_next d ~flapped =
  if d.d_timeout then Deadline
  else if d.d_flap then if flapped then Fail Flap else Flap_leg
  else if d.d_crash then Fail Crash
  else Complete

let inplace_offset ~seed ~jitter_pct ~host ~expected ~deadline = function
  | Deadline | Fail Timeout -> deadline
  | Flap_leg -> Sim.Time.scale flap_leg1_frac expected
  | Fail Flap -> Sim.Time.scale flap_final_frac expected
  | Fail Crash -> Sim.Time.scale crash_frac expected
  | Complete -> Sim.Time.scale (host_jitter seed jitter_pct host) expected

let drain_next ~seed ~flakiness ~host =
  if coin seed "drain" host flakiness then Fail Crash else Complete

let drain_offset ~span = function
  | Complete -> span
  | Flap_leg | Fail _ | Deadline -> Sim.Time.scale drain_fail_frac span

type breaker_state = B_closed | B_open_until of Sim.Time.t | B_half_open

type breaker = {
  window : int;
  threshold : float;
  cooldown : Sim.Time.t;
  mutable state : breaker_state;
  mutable bits : int; (* newest outcome in bit 0; [len] live bits *)
  mutable len : int;
  mutable half_successes : int;
  mutable half_failed : bool;
  mutable trips : int;
}

let breaker ~window ~threshold ~cooldown =
  { window; threshold; cooldown; state = B_closed; bits = 0; len = 0;
    half_successes = 0; half_failed = false; trips = 0 }

let state b = b.state
let trips b = b.trips

let record b ok =
  (match b.state with
  | B_half_open ->
    if ok then b.half_successes <- b.half_successes + 1
    else begin
      b.half_successes <- 0;
      b.half_failed <- true
    end
  | B_closed | B_open_until _ -> ());
  b.bits <- ((b.bits lsl 1) lor Bool.to_int ok) land ((1 lsl b.window) - 1);
  b.len <- Stdlib.min (b.len + 1) b.window

type verdict = Hold | Trip | Close

let verdict b =
  let rec ones acc bits =
    if bits = 0 then acc else ones (acc + (bits land 1)) (bits lsr 1)
  in
  match b.state with
  | B_open_until _ -> Hold
  | B_closed | B_half_open ->
    let half = b.state = B_half_open in
    let fails = b.len - ones 0 b.bits in
    let rate = float_of_int fails /. float_of_int b.window in
    if (half && b.half_failed) || (fails > 0 && rate >= b.threshold) then Trip
    else if half && b.half_successes >= b.window then Close
    else Hold

let trip b ~at =
  b.trips <- b.trips + 1;
  b.state <- B_open_until (Sim.Time.add at b.cooldown);
  b.bits <- 0;
  b.len <- 0;
  b.half_failed <- false

let half_open b =
  b.state <- B_half_open;
  b.half_successes <- 0;
  b.half_failed <- false

let close b = b.state <- B_closed

type 'step tag =
  | Adm of 'step
  | Flapleg
  | Strag
  | Failed of 'step * manifestation
  | Done of 'step
  | Bopen
  | Bhalf
  | Bclosed
  | Own of string

let man_to_string = function
  | Crash -> "crash"
  | Timeout -> "timeout"
  | Flap -> "flap"

let man_of_string = function
  | "crash" -> Some Crash
  | "timeout" -> Some Timeout
  | "flap" -> Some Flap
  | _ -> None

let print_entry buf ~step ~at ~host ~tag ~decision ~suffix ~cursor =
  Printf.bprintf buf "e at=%d host=%s " (Sim.Time.to_ns at)
    (match host with Some h -> h | None -> "-");
  (match tag with
  | Adm s -> Printf.bprintf buf "adm step=%s" (step s)
  | Flapleg -> Buffer.add_string buf "flapleg"
  | Strag -> Buffer.add_string buf "strag"
  | Failed (s, m) ->
    Printf.bprintf buf "fail step=%s man=%s" (step s) (man_to_string m)
  | Done s -> Printf.bprintf buf "done step=%s" (step s)
  | Bopen -> Buffer.add_string buf "bopen"
  | Bhalf -> Buffer.add_string buf "bhalf"
  | Bclosed -> Buffer.add_string buf "bclosed"
  | Own text -> Buffer.add_string buf text);
  (match decision with
  | Some d ->
    Printf.bprintf buf " flap=%d crash=%d timeout=%d" (Bool.to_int d.d_flap)
      (Bool.to_int d.d_crash) (Bool.to_int d.d_timeout)
  | None -> ());
  Printf.bprintf buf "%s cursor=%d\n" suffix cursor

type 'step entry_text = {
  t_at : Sim.Time.t;
  t_host : string option;
  t_tag : 'step tag;
  t_decision : decision option;
  t_cursor : int;
}

let parse_entry ~step l =
  let module L = Sim.Lines in
  let kind =
    match L.words l with
    | "e" :: kind :: _ -> kind
    | _ -> L.fail l "not a journal entry: %S" (L.text l)
  in
  let step () = L.conv l "step" step in
  let t_tag =
    match kind with
    | "adm" -> Adm (step ())
    | "flapleg" -> Flapleg
    | "strag" -> Strag
    | "fail" -> Failed (step (), L.conv l "man" man_of_string)
    | "done" -> Done (step ())
    | "bopen" -> Bopen
    | "bhalf" -> Bhalf
    | "bclosed" -> Bclosed
    | own -> Own own
  in
  let t_decision =
    match L.opt l "flap" with
    | None -> None
    | Some _ ->
      Some
        { d_flap = L.flag l "flap"; d_crash = L.flag l "crash";
          d_timeout = L.flag l "timeout" }
  in
  { t_at = L.ns l "at";
    t_host = (match L.str l "host" with "-" -> None | h -> Some h);
    t_tag; t_decision; t_cursor = L.int l "cursor" }
