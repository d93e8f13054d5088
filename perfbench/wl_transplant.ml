(* Workload host-transplant: a seeded sequence of single-host
   operations on M1, M2 and G5K machines — InPlaceTP round trips
   (Xen->KVM then KVM->Xen on the same host, what [Fleet.simulate]
   does per host), MigrationTP and shadow cutover — plus the paper's
   anchor configurations (Fig 6 on M1 and M2, Table 4 on an M1 pair).

   The substrate and the engines do all of the work here; the campaign
   layer does none.  Provisioning is set-up and stays off the
   operation clock. *)

open Meter

type machine = M1 | M2 | G5k
type kind = Roundtrip | Migration | Shadow

type item = {
  kind : kind;
  mach : machine;
  vms : (int * int) list;  (* (vCPUs, GiB) per VM *)
  pseed : int64;  (* provisioning and engine seed *)
  anchor : float option;  (* the paper's downtime for it, seconds *)
}

let hw_machine = function
  | M1 -> Hw.Machine.m1 ()
  | M2 -> Hw.Machine.m2 ()
  | G5k -> Hw.Machine.g5k_node ()

(* Guest RAM a host of each type can carry with room for PRAM, the
   staged kernel and the hypervisor itself. *)
let cap_gib = function M1 -> 12 | M2 -> 60 | G5k -> 92

(* The operations are the same in every slot, in the same order: each
   kind sees VM counts 1, 2, 4 and 8 once per pass, on a fixed machine
   rotation, with VM sizes cycling through 1..4 GiB and vCPUs through
   1..4.  The seed picks every provisioning and engine seed (memory
   scatter, jitter, dirty rates).  So the simulated outputs depend on
   the seed while the amount of work does not, and neither does the
   heap peak, which depends on the order operations run in. *)
let plan (job : Job.t) =
  let rng = Job.rng job ~salt:0x7A11 in
  let counts, max_gib =
    match job.Job.size with
    | Job.Full -> ([ 1; 2; 4; 8 ], 4)
    | Job.Tiny -> ([ 1; 2 ], 1)
  in
  let shaped ki kind n =
    let mach = [| M1; M2; G5k |].((n + ki) mod 3) in
    let gib i = 1 + ((n + i) mod max_gib) in
    let total = List.fold_left ( + ) 0 (List.init n gib) in
    let gib i =
      if total > cap_gib mach then Stdlib.max 1 (cap_gib mach / n) else gib i
    in
    { kind; mach; anchor = None; pseed = Sim.Rng.int64 rng;
      vms = List.init n (fun i -> (1 + ((n + ki + i) mod 4), gib i)) }
  in
  let anchor kind mach paper =
    { kind; mach; vms = [ (1, 1) ]; pseed = Sim.Rng.int64 rng;
      anchor = Some paper }
  in
  let items =
    (* Fig 6 on M1 and M2, Table 4's MigrationTP on an M1 pair. *)
    [ anchor Roundtrip M1 1.7; anchor Roundtrip M2 3.01;
      anchor Migration M1 0.00496 ]
    @ List.concat
        (List.mapi
           (fun ki kind -> List.map (shaped ki kind) counts)
           [ Roundtrip; Migration; Shadow ])
  in
  Array.of_list items

let vm_configs item =
  List.mapi
    (fun i (vcpus, gib) ->
      Vmstate.Vm.config ~name:(Printf.sprintf "vm%d" i) ~vcpus
        ~ram:(Hw.Units.gib gib) ())
    item.vms

let provision_src item =
  Hypertp.Api.provision ~seed:item.pseed ~name:"src"
    ~machine:(hw_machine item.mach) ~hv:Hv.Kind.Xen (vm_configs item)

(* The second host an operation needs: a running KVM destination for
   MigrationTP, an idle spare for shadow cutover. *)
let provision_peer item =
  let seed = Int64.add item.pseed 1L in
  match item.kind with
  | Roundtrip -> None
  | Migration ->
    Some
      (Hypertp.Api.provision ~seed ~name:"dst" ~machine:(hw_machine item.mach)
         ~hv:Hv.Kind.Kvm [])
  | Shadow -> Some (Hv.Host.create ~seed ~name:"spare" (hw_machine item.mach))

(* --- one operation ------------------------------------------------------ *)

type engine = Inplace | Migrate | Shadow_tp

let engine_name = function
  | Inplace -> "inplace"
  | Migrate -> "migrate"
  | Shadow_tp -> "shadow"

type outcome = {
  engine : engine;
  ok : bool;  (* the engine's own checks *)
  sim : string;  (* the simulated phases, rendered *)
  downtimes : float list;  (* simulated per-VM downtime, seconds *)
  rolled_back : int;
  recovered : int;
  retries : int;
  degraded : int;
}

let ns t = Sim.Time.to_ns t

let inplace ~seed ~host ~target =
  let r =
    Hypertp.Inplace.run ~rng:(Sim.Rng.create seed) ~host
      ~target:(Hypertp.Api.hypervisor_of target) ()
  in
  let p = r.Hypertp.Inplace.phases in
  let down = Hypertp.Phases.downtime p in
  let outcome = Format.asprintf "%a" Hypertp.Inplace.pp_outcome r.outcome in
  {
    engine = Inplace;
    ok =
      Hypertp.Inplace.all_ok r.checks && r.outcome = Hypertp.Inplace.Committed;
    sim =
      Printf.sprintf
        "inplace %s->%s vms=%d pram=%d transl=%d reboot=%d restore=%d \
         recovery=%d net=%d wiped=%d uisr=%d entries=%d %s"
        r.source r.target r.vm_count (ns p.pram) (ns p.translation)
        (ns p.reboot) (ns p.restoration) (ns p.recovery) (ns p.network)
        r.frames_wiped r.uisr_platform_bytes
        r.pram_accounting.Pram.Layout.entry_count outcome;
    downtimes = List.init r.vm_count (fun _ -> Sim.Time.to_sec_f down);
    rolled_back =
      (match r.outcome with Hypertp.Inplace.Rolled_back _ -> 1 | _ -> 0);
    recovered =
      (match r.outcome with Hypertp.Inplace.Recovered _ -> 1 | _ -> 0);
    retries = 0;
    degraded = 0;
  }

let checks_ok (c : Hypertp.Migrate.checks) =
  c.memory_equal && c.connections_preserved && c.management_consistent
  && c.residual_clean

let migrate ~seed ~src ~dst =
  let r = Hypertp.Api.transplant_migration ~rng:(Sim.Rng.create seed) ~src ~dst () in
  let vm (v : Hypertp.Migrate.vm_report) =
    Printf.sprintf "%s:%d:%d:%d:%d:%d" v.vm_name v.rounds (ns v.downtime)
      (ns v.total_time) v.wire_bytes v.state_bytes
  in
  {
    engine = Migrate;
    ok =
      checks_ok r.checks
      && List.for_all
           (fun (v : Hypertp.Migrate.vm_report) ->
             v.outcome = Hypertp.Migrate.Completed)
           r.per_vm;
    sim =
      Printf.sprintf "migrate %s->%s total=%d %s" r.src_hv r.dst_hv
        (ns r.total_time)
        (String.concat " " (List.map vm r.per_vm));
    downtimes =
      List.map
        (fun (v : Hypertp.Migrate.vm_report) -> Sim.Time.to_sec_f v.downtime)
        r.per_vm;
    rolled_back = 0;
    recovered = 0;
    retries =
      List.fold_left
        (fun a (v : Hypertp.Migrate.vm_report) -> a + v.retries)
        0 r.per_vm;
    degraded = 0;
  }

let shadow ~seed ~src ~spare =
  let r =
    Hypertp.Api.transplant_shadow ~rng:(Sim.Rng.create seed) ~src ~spare
      ~target:Hv.Kind.Kvm ()
  in
  let cut = r.Hypertp.Migrate.sh_strategy = Hypertp.Migrate.Shadow_cutover in
  let vm (v : Hypertp.Migrate.shadow_vm) =
    Printf.sprintf "%s:%d:%d:%d" v.sv_name (ns v.sv_downtime) v.sv_wire_bytes
      v.sv_state_bytes
  in
  {
    engine = Shadow_tp;
    ok =
      cut && r.sh_source_intact
      && (match r.sh_checks with Some c -> checks_ok c | None -> false);
    sim =
      Printf.sprintf "shadow %s->%s %s down=%d total=%d wire=%d %s"
        r.sh_src_hv r.sh_target_hv
        (Format.asprintf "%a" Hypertp.Migrate.pp_shadow_strategy r.sh_strategy)
        (ns r.sh_downtime) (ns r.sh_total_time) r.sh_wire_bytes
        (String.concat " " (List.map vm r.sh_per_vm));
    downtimes =
      List.map
        (fun (v : Hypertp.Migrate.shadow_vm) -> Sim.Time.to_sec_f v.sv_downtime)
        r.sh_per_vm;
    rolled_back = 0;
    recovered = 0;
    retries = 0;
    degraded = (if cut then 0 else 1);
  }

(* --- substrate replay ------------------------------------------------------ *)

(* The substrate calls InPlaceTP makes, replayed one by one on a
   replica host so each can be timed on its own: stage the kernel,
   build PRAM, encode every VM's UISR, scrub memory as the kexec jump
   does, parse PRAM back, decode the UISR blobs.  The replica is thrown
   away afterwards. *)
type substrate = {
  mutable replays : int;
  mutable frames_reset : int;
  mutable reset_s : float;
  mutable entries : int;
  mutable build_parse_s : float;
  mutable uisr_vms : int;
  mutable uisr_bytes : int;
  mutable encode_s : float;
  mutable decode_s : float;
  mutable kexec_s : float;
}

let substrate () =
  { replays = 0; frames_reset = 0; reset_s = 0.0; entries = 0; build_parse_s = 0.0;
    uisr_vms = 0; uisr_bytes = 0; encode_s = 0.0; decode_s = 0.0;
    kexec_s = 0.0 }

exception Replay_failed of string

(* Replays on [host] and returns the host seconds the replayed calls
   took, which is the substrate's share of one InPlaceTP. *)
let replay_substrate acc ~target host =
  let pmem = host.Hv.Host.pmem in
  let module T = (val Hypertp.Api.hypervisor_of target : Hv.Intf.S) in
  let vms =
    List.map
      (fun n -> (n, Option.get (Hv.Host.find_vm host n)))
      (Hv.Host.vm_names host)
  in
  let _, k =
    timed (fun () ->
        span ~layer:"substrate" "Kexec.load" (fun () ->
            Kexec.load ~pmem ~kernel:T.name ~size:T.kernel_image_bytes
              ~cmdline:"console=ttyS0"))
  in
  let inputs =
    List.map
      (fun (n, vm) ->
        ( n,
          vm.Vmstate.Vm.config.Vmstate.Vm.ram,
          Uisr.Vm_state.memmap_of_guest_mem vm.Vmstate.Vm.mem ))
      vms
  in
  let pram, b =
    timed (fun () ->
        span ~layer:"substrate" "Pram.Build.build" (fun () ->
            Pram.Build.build ~pmem ~granularity:Hw.Units.Page_2m inputs))
  in
  Hv.Host.pause_all host;
  let uisrs = Hv.Host.to_uisr_all host in
  let blobs, e =
    timed (fun () ->
        span ~layer:"substrate" "Uisr.Codec.encode" (fun () ->
            List.map (fun (_, u) -> Uisr.Codec.encode u) uisrs))
  in
  let preserve = Pram.Build.preserve_predicate pram in
  let frames, r =
    timed (fun () ->
        span ~layer:"substrate" "Hw.Pmem.reboot_reset" (fun () ->
            Hw.Pmem.reboot_reset pmem ~preserve))
  in
  let parsed, p =
    timed (fun () ->
        span ~layer:"substrate" "Pram.Parse.parse" (fun () ->
            Pram.Parse.parse ~pmem ~image:pram (Pram.Build.pointer_mfn pram)))
  in
  let decoded, d =
    timed (fun () ->
        span ~layer:"substrate" "Uisr.Codec.decode" (fun () ->
            List.map Uisr.Codec.decode blobs))
  in
  (match parsed with
   | Ok files when List.length files = List.length vms -> ()
   | _ -> raise (Replay_failed "PRAM did not parse back"));
  if not (List.for_all Result.is_ok decoded) then
    raise (Replay_failed "UISR did not decode");
  acc.replays <- acc.replays + 1;
  acc.frames_reset <- acc.frames_reset + frames;
  acc.reset_s <- acc.reset_s +. r.secs;
  acc.entries <-
    acc.entries + (Pram.Build.accounting pram).Pram.Layout.entry_count;
  acc.build_parse_s <- acc.build_parse_s +. b.secs +. p.secs;
  acc.uisr_vms <- acc.uisr_vms + List.length blobs;
  acc.uisr_bytes <-
    acc.uisr_bytes + List.fold_left (fun a x -> a + Bytes.length x) 0 blobs;
  acc.encode_s <- acc.encode_s +. e.secs;
  acc.decode_s <- acc.decode_s +. d.secs;
  acc.kexec_s <- acc.kexec_s +. k.secs;
  k.secs +. b.secs +. e.secs +. r.secs +. p.secs +. d.secs

(* --- passes ----------------------------------------------------------------- *)

type op_sample = {
  o : outcome;
  s : sample;
  substrate_s : float option;  (* replayed substrate time, traced runs *)
}

type pass = {
  ops : op_sample list;  (* in execution order *)
  provision_s : float;  (* host seconds spent provisioning the pass *)
  provision_each : float list;
  failures : int;
}

(* One pass over the plan.  Each operation is provisioned, then timed
   from a settled heap; with [replay], every InPlaceTP leg is preceded
   by a substrate replay on a replica of the host it will run on. *)
let run_pass (job : Job.t) items ~replay ~acc =
  let ops = ref [] and prov = ref [] and failures = ref 0 in
  let provisioned f =
    let v, s = timed (fun () -> span ~layer:"setup" "provision" f) in
    prov := s.secs :: !prov;
    v
  in
  let record idx leg o s substrate_s =
    let key = Printf.sprintf "op%d.%d" idx leg in
    if not (o.ok && Job.check job key (Refs.digest o.sim)) then incr failures;
    ops := { o; s; substrate_s } :: !ops
  in
  let op engine f =
    settle ();
    timed (fun () -> span ~layer:"engines" engine f)
  in
  let replay_on target make =
    if not replay then None
    else
      let host = span ~layer:"setup" "replica" make in
      Some (replay_substrate acc ~target host)
  in
  Array.iteri
    (fun idx item ->
      let src, peer =
        provisioned (fun () ->
            let src = provision_src item in
            (src, provision_peer item))
      in
      match (item.kind, peer) with
      | Roundtrip, _ ->
        let seed = Int64.add item.pseed 7L in
        let sub = replay_on Hv.Kind.Kvm (fun () -> provision_src item) in
        let o, s =
          op "Hypertp.Inplace.run" (fun () ->
              inplace ~seed ~host:src ~target:Hv.Kind.Kvm)
        in
        record idx 0 o s sub;
        (* The way back starts from the host the first leg left. *)
        let sub =
          replay_on Hv.Kind.Xen (fun () ->
              let h = provision_src item in
              ignore (inplace ~seed ~host:h ~target:Hv.Kind.Kvm);
              h)
        in
        let o, s =
          op "Hypertp.Inplace.run" (fun () ->
              inplace ~seed:(Int64.add seed 1L) ~host:src ~target:Hv.Kind.Xen)
        in
        record idx 1 o s sub
      | Migration, Some dst ->
        let o, s =
          op "Hypertp.Migrate.run" (fun () ->
              migrate ~seed:(Int64.add item.pseed 7L) ~src ~dst)
        in
        record idx 0 o s None
      | Shadow, Some spare ->
        let o, s =
          op "Hypertp.Migrate.run_shadow" (fun () ->
              shadow ~seed:(Int64.add item.pseed 7L) ~src ~spare)
        in
        record idx 0 o s None
      | (Migration | Shadow), None -> assert false)
    items;
  { ops = List.rev !ops; provision_s = sum !prov;
    provision_each = List.rev !prov; failures = !failures }

(* --- metrics ------------------------------------------------------------------ *)

let sim_metrics items (p : pass) =
  let downs = List.concat_map (fun x -> x.o.downtimes) p.ops in
  (* Anchor error: each anchor's first leg against the paper. *)
  let anchor_err =
    let k = ref 0 in
    Array.fold_left
      (fun acc item ->
        let legs = match item.kind with Roundtrip -> 2 | _ -> 1 in
        let first = List.nth p.ops !k in
        k := !k + legs;
        match item.anchor with
        | None -> acc
        | Some paper ->
          let sim = List.fold_left Float.max 0.0 first.o.downtimes in
          Float.max acc (Float.abs (sim -. paper) /. paper *. 100.0))
      0.0 items
  in
  [ m "sim_downtime_ms" "ms" (1000.0 *. sum downs /. float_of_int (List.length downs));
    m "model_err_pct" "%" anchor_err ]

let per_engine ops e = List.filter (fun x -> x.o.engine = e) ops

let engine_metrics ops =
  List.concat_map
    (fun e ->
      let xs = per_engine ops e in
      let name = engine_name e in
      let ms = List.map (fun x -> 1000.0 *. x.s.secs) xs in
      let n = float_of_int (List.length xs) in
      [ m (name ^ ".run_ms_p50") "ms/op" (if xs = [] then 0.0 else median ms);
        m (name ^ ".run_ms_p90") "ms/op"
          (if xs = [] then 0.0 else percentile 0.9 ms);
        m (name ^ ".minor_words_per_op") "words/op"
          (ratio (sum (List.map (fun x -> x.s.minor_words) xs)) n) ])
    [ Inplace; Migrate; Shadow_tp ]
  @
  let count f = float_of_int (List.fold_left (fun a x -> a + f x.o) 0 ops) in
  let self =
    List.filter_map
      (fun x ->
        Option.map (fun sub -> 1000.0 *. (x.s.secs -. sub)) x.substrate_s)
      ops
  in
  [ m "inplace.self_ms_p50" "ms/op" (if self = [] then 0.0 else median self);
    m "inplace.rolled_back" "count" (count (fun o -> o.rolled_back));
    m "inplace.recovered" "count" (count (fun o -> o.recovered));
    m "migrate.retries" "count" (count (fun o -> o.retries));
    m "shadow.degraded" "count" (count (fun o -> o.degraded)) ]

let substrate_metrics acc provision_each =
  let per n secs = ratio (secs *. 1e9) (float_of_int n) in
  [ m "hw.pmem.reboot_reset_ns_per_frame" "ns/frame"
      (per acc.frames_reset acc.reset_s);
    m "hw.pmem.frames_reset" "count" (float_of_int acc.frames_reset);
    m "pram.build_parse_ns_per_entry" "ns/entry"
      (per acc.entries acc.build_parse_s);
    m "pram.entries" "count" (float_of_int acc.entries);
    m "uisr.encode_ns_per_vm" "ns/vm" (per acc.uisr_vms acc.encode_s);
    m "uisr.decode_ns_per_vm" "ns/vm" (per acc.uisr_vms acc.decode_s);
    m "uisr.bytes_per_vm" "B/vm"
      (ratio (float_of_int acc.uisr_bytes) (float_of_int acc.uisr_vms));
    m "kexec.load_ns_per_op" "ns/op"
      (ratio (acc.kexec_s *. 1e9) (float_of_int acc.replays));
    m "guest_mem.provision_ms" "ms/op"
      (1000.0 *. median provision_each) ]

let run (job : Job.t) =
  let items = plan job in
  let acc = substrate () in
  let passes, peak, layers, trace =
    if job.Job.traced then begin
      (* One untraced pass as the overhead baseline, then the traced
         pass with the substrate replays. *)
      let base = run_pass job items ~replay:false ~acc in
      start_tracing ();
      let g0 = gc () in
      let traced = run_pass job items ~replay:true ~acc in
      let gc_layer = gc_metrics g0 (gc ()) in
      let peak = top_heap_mb () in
      let secs p = sum (List.map (fun x -> x.s.secs) p.ops) in
      ( [ base; traced ],
        peak,
        engine_metrics traced.ops
        @ substrate_metrics acc traced.provision_each
        @ [ m "trace.overhead_pct" "%"
              (100.0 *. (secs traced -. secs base) /. secs base) ]
        @ gc_layer,
        stop_tracing () )
    end
    else begin
      let passes = ref [] in
      let peak =
        Job.rounds job (fun _ ->
            passes := run_pass job items ~replay:false ~acc :: !passes)
      in
      (List.rev !passes, peak, [], None)
    end
  in
  let ops = List.concat_map (fun p -> p.ops) passes in
  let n = float_of_int (List.length ops) in
  let e2e =
    (m "setup_s" "s" (median (List.map (fun p -> p.provision_s) passes))
    :: op_metrics
         ~units_per_round:(float_of_int (List.length (List.hd passes).ops))
         (List.map (fun p -> List.map (fun x -> x.s.secs) p.ops) passes))
    @ [ m "minor_words_per_unit" "words/unit"
          (sum (List.map (fun x -> x.s.minor_words) ops) /. n);
        m "major_words_per_unit" "words/unit"
          (sum (List.map (fun x -> x.s.major_words) ops) /. n);
        m "peak_heap_mb" "MB" peak ]
  in
  {
    Job.attempted = List.length ops;
    failed = List.fold_left (fun a p -> a + p.failures) 0 passes;
    e2e;
    sim = sim_metrics items (List.hd passes);
    layers;
    trace;
  }
