(* Tests for the hardware substrate: units, frames, physical memory,
   CPU, NIC, machine catalog. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg
let qtest = QCheck_alcotest.to_alcotest

(* --- Units --- *)

let test_units_sizes () =
  checki "kib" 1024 (Hw.Units.kib 1);
  checki "mib" (1024 * 1024) (Hw.Units.mib 1);
  checki "gib" (1024 * 1024 * 1024) (Hw.Units.gib 1);
  checki "frames per 2m page" 512 (Hw.Units.frames_per_page Hw.Units.Page_2m);
  checki "4k pages in 1gib" 262144
    (Hw.Units.pages_of_bytes Hw.Units.Page_4k (Hw.Units.gib 1));
  checki "2m pages in 1gib" 512
    (Hw.Units.pages_of_bytes Hw.Units.Page_2m (Hw.Units.gib 1))

let test_units_rounding () =
  checki "round up" 2 (Hw.Units.pages_of_bytes Hw.Units.Page_4k 4097);
  checki "exact" 1 (Hw.Units.pages_of_bytes Hw.Units.Page_4k 4096);
  checki "zero" 0 (Hw.Units.pages_of_bytes Hw.Units.Page_4k 0)

let test_units_to_float () =
  checkf "gib" 2.0 (Hw.Units.to_gib_f (Hw.Units.gib 2));
  checkf "kib" 148.0 (Hw.Units.to_kib_f (Hw.Units.kib 148))

(* --- Frame --- *)

let test_frame_typed () =
  let g = Hw.Frame.Gfn.of_int 100 in
  let m = Hw.Frame.Mfn.of_int 200 in
  checki "gfn add" 105 (Hw.Frame.Gfn.to_int (Hw.Frame.Gfn.add g 5));
  checki "mfn offset" 50
    (Hw.Frame.Mfn.offset (Hw.Frame.Mfn.of_int 250) m);
  Alcotest.check_raises "negative gfn"
    (Invalid_argument "gfn.of_int: negative") (fun () ->
      ignore (Hw.Frame.Gfn.of_int (-1)))

(* Unsorted, overlapping, adjacent and empty extents merge into
   [10, 25) and [40, 41). *)
let test_frame_extents () =
  let m = Hw.Frame.Mfn.of_int in
  let set =
    Hw.Frame.Extents.of_extents
      [ (m 20, 5); (m 40, 1); (m 10, 6); (m 16, 4); (m 30, 0); (m 12, 2) ]
  in
  List.iter
    (fun (f, want) ->
      checkb (Printf.sprintf "mem %d" f) want (Hw.Frame.Extents.mem set (m f)))
    [ (9, false); (10, true); (19, true); (24, true); (25, false);
      (30, false); (39, false); (40, true); (41, false) ];
  List.iter
    (fun (s, l, want) ->
      checki (Printf.sprintf "covered [%d,+%d)" s l) want
        (Hw.Frame.Extents.covered set (m s) l))
    [ (0, 10, 0); (0, 11, 1); (12, 3, 3); (20, 30, 6); (0, 100, 16);
      (25, 15, 0); (41, 5, 0) ];
  checki "empty set" 0
    (Hw.Frame.Extents.covered (Hw.Frame.Extents.of_extents []) (m 0) 512);
  Alcotest.check_raises "negative length"
    (Invalid_argument "Extents: negative length") (fun () ->
      ignore (Hw.Frame.Extents.of_extents [ (m 1, -1) ]))

(* --- Pmem --- *)

let mk_pmem ?(frames = 512 * 64) () = Hw.Pmem.create ~frames ()

let test_pmem_alloc_free_counts () =
  let p = mk_pmem () in
  let total = Hw.Pmem.total_frames p in
  let extents = Hw.Pmem.alloc_extents p 1000 in
  checki "allocated count" 1000
    (List.fold_left (fun acc (_, len) -> acc + len) 0 extents);
  checki "used" 1000 (Hw.Pmem.used_frames p);
  List.iter (fun (s, l) -> Hw.Pmem.free_extent p s l) extents;
  checki "all free again" total (Hw.Pmem.free_frames p)

let test_pmem_alignment () =
  let p = mk_pmem () in
  let extents = Hw.Pmem.alloc_extents p ~align:512 1024 in
  List.iter
    (fun (start, len) ->
      checki "aligned start" 0 (Hw.Frame.Mfn.to_int start mod 512);
      checkb "aligned len" true (len mod 512 = 0))
    extents

let test_pmem_no_overlap () =
  let p = mk_pmem () in
  let seen = Hashtbl.create 64 in
  for _ = 1 to 20 do
    let frames = Hw.Pmem.alloc_frames p 100 in
    List.iter
      (fun mfn ->
        let f = Hw.Frame.Mfn.to_int mfn in
        checkb "never handed out twice" false (Hashtbl.mem seen f);
        Hashtbl.replace seen f ())
      frames
  done

let test_pmem_oom () =
  let p = mk_pmem ~frames:512 () in
  Alcotest.check_raises "oom" Hw.Pmem.Out_of_memory (fun () ->
      ignore (Hw.Pmem.alloc_extents p 513))

let test_pmem_contents () =
  let p = mk_pmem () in
  let frames = Hw.Pmem.alloc_frames p 10 in
  let mfn = List.nth frames 3 in
  Alcotest.check (Alcotest.option Alcotest.int64) "unwritten" None
    (Hw.Pmem.read p mfn);
  Hw.Pmem.write p mfn 0xDEADL;
  Alcotest.check (Alcotest.option Alcotest.int64) "written" (Some 0xDEADL)
    (Hw.Pmem.read p mfn)

let test_pmem_write_unallocated () =
  let p = mk_pmem () in
  Alcotest.check_raises "unallocated write"
    (Invalid_argument "Pmem.write: frame not allocated") (fun () ->
      Hw.Pmem.write p (Hw.Frame.Mfn.of_int 7) 1L)

let test_pmem_reserve_protects () =
  let p = mk_pmem () in
  let extents = Hw.Pmem.alloc_extents p 4 in
  let start, len = List.hd extents in
  Hw.Pmem.reserve_extent p start len;
  checkb "is reserved" true (Hw.Pmem.is_reserved p start);
  Alcotest.check_raises "reserved free rejected"
    (Invalid_argument "Pmem.free_extent: frame is reserved") (fun () ->
      Hw.Pmem.free_extent p start len);
  Hw.Pmem.unreserve_extent p start len;
  Hw.Pmem.free_extent p start len;
  checkb "freed after unreserve" false (Hw.Pmem.is_allocated p start)

let test_pmem_reboot_reset () =
  let p = mk_pmem () in
  let preserved = Hw.Pmem.alloc_frames p 8 in
  let reserved = Hw.Pmem.alloc_frames p 4 in
  let doomed = Hw.Pmem.alloc_frames p 16 in
  List.iter (fun m -> Hw.Pmem.write p m 7L) (preserved @ reserved @ doomed);
  List.iter (fun m -> Hw.Pmem.reserve_extent p m 1) reserved;
  let reclaimed =
    Hw.Pmem.reboot_reset p
      ~preserve:
        (Hw.Frame.Extents.of_extents (List.map (fun m -> (m, 1)) preserved))
  in
  checki "reclaimed only the doomed" 16 reclaimed;
  List.iter
    (fun m -> checkb "doomed frames freed" false (Hw.Pmem.is_allocated p m))
    doomed;
  List.iter
    (fun m -> checkb "preserved still allocated" true (Hw.Pmem.is_allocated p m))
    preserved;
  List.iter
    (fun m -> checkb "reserved still allocated" true (Hw.Pmem.is_allocated p m))
    reserved

(* Stateful property: under random interleavings of alloc/free/reserve
   operations, the allocator's counters stay consistent and no frame is
   ever handed out twice. *)
let prop_pmem_random_ops =
  QCheck.Test.make ~name:"pmem invariants under random op sequences" ~count:30
    QCheck.(list_of_size (Gen.int_range 1 60) (int_range 0 999))
    (fun ops ->
      let p = Hw.Pmem.create ~frames:(512 * 32) () in
      let total = Hw.Pmem.total_frames p in
      let live = ref [] in (* (start, len, reserved) *)
      let ok = ref true in
      let live_frames () =
        List.fold_left (fun acc (_, len, _) -> acc + len) 0 !live
      in
      List.iter
        (fun op ->
          match op mod 4 with
          | 0 | 1 -> (
            (* Allocate a small extent list. *)
            let n = 1 + (op mod 700) in
            match Hw.Pmem.alloc_extents p n with
            | extents ->
              List.iter (fun (s, l) -> live := (s, l, false) :: !live) extents
            | exception Hw.Pmem.Out_of_memory -> ())
          | 2 -> (
            (* Free the most recent unreserved extent. *)
            match List.partition (fun (_, _, r) -> not r) !live with
            | (s, l, _) :: rest_un, reserved ->
              Hw.Pmem.free_extent p s l;
              live := rest_un @ reserved
            | [], _ -> ())
          | _ -> (
            (* Reserve the most recent unreserved extent. *)
            match List.partition (fun (_, _, r) -> not r) !live with
            | (s, l, _) :: rest_un, reserved ->
              Hw.Pmem.reserve_extent p s l;
              live := rest_un @ ((s, l, true) :: reserved)
            | [], _ -> ()))
        ops;
      (* Counter consistency. *)
      if Hw.Pmem.used_frames p <> live_frames () then ok := false;
      if Hw.Pmem.free_frames p + Hw.Pmem.used_frames p <> total then ok := false;
      (* Every live extent is still allocated; reserved ones reserved. *)
      List.iter
        (fun (s, l, r) ->
          for i = 0 to l - 1 do
            let m = Hw.Frame.Mfn.add s i in
            if not (Hw.Pmem.is_allocated p m) then ok := false;
            if r && not (Hw.Pmem.is_reserved p m) then ok := false
          done)
        !live;
      (* No overlaps among live extents. *)
      let seen = Hashtbl.create 512 in
      List.iter
        (fun (s, l, _) ->
          for i = 0 to l - 1 do
            let f = Hw.Frame.Mfn.to_int s + i in
            if Hashtbl.mem seen f then ok := false;
            Hashtbl.replace seen f ()
          done)
        !live;
      !ok)

let prop_pmem_alloc_free_idempotent =
  QCheck.Test.make ~name:"pmem alloc/free restores free count"
    QCheck.(list_of_size (Gen.int_range 1 20) (int_range 1 600))
    (fun sizes ->
      let p = mk_pmem () in
      let before = Hw.Pmem.free_frames p in
      let all = List.map (fun n -> Hw.Pmem.alloc_extents p n) sizes in
      List.iter
        (fun extents ->
          List.iter (fun (s, l) -> Hw.Pmem.free_extent p s l) extents)
        all;
      Hw.Pmem.free_frames p = before)

(* Chunk-granular [free_extent] and [reboot_reset] against a naive
   per-frame model.  A random history of alloc / reserve / write / free
   (whole and partial frees, and refused frees of reserved frames) runs
   on both; then a random extent set drives the reset.  The set mixes
   arbitrary extents, whole chunks, extents straddling a chunk boundary
   and exact copies of live (possibly reserved) extents. *)
let prop_pmem_reclaim_model =
  let chunks = 16 in
  let total = 512 * chunks in
  QCheck.Test.make ~count:200
    ~name:"chunk-granular reclaim matches a per-frame model"
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 40)
           (pair (int_range 0 4) (int_range 0 1_000_000)))
        (list_of_size (Gen.int_range 0 8)
           (pair (int_range 0 3) (int_range 0 1_000_000))))
    (fun (ops, set_spec) ->
      let p = Hw.Pmem.create ~frames:total () in
      let alloc = Array.make total false and res = Array.make total false in
      let tag = Array.make total None in
      (* Live extents: (start, length, reserved sub-range). *)
      let live = ref [||] in
      let mfn = Hw.Frame.Mfn.of_int in
      let pick r = (!live).(r mod Array.length !live) in
      let replace_live i e = (!live).(i mod Array.length !live) <- e in
      let drop_live i =
        let i = i mod Array.length !live in
        live :=
          Array.of_list (List.filteri (fun j _ -> j <> i) (Array.to_list !live))
      in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      let free_chunks () =
        let n = ref 0 in
        for c = 0 to chunks - 1 do
          if not (Array.exists Fun.id (Array.sub alloc (c * 512) 512)) then incr n
        done;
        !n
      in
      let do_op (kind, r) =
        if kind = 0 || Array.length !live = 0 then begin
          let n = 1 + (r mod 1100) and align = if r mod 3 = 0 then 512 else 1 in
          (* Ask only for what fresh chunks can hold, so no allocation
             runs out half-way. *)
          if (n / 512) + 2 <= free_chunks () then
            List.iter
              (fun (s, l) ->
                for f = Hw.Frame.Mfn.to_int s to Hw.Frame.Mfn.to_int s + l - 1 do
                  if alloc.(f) then fail "frame %d handed out twice" f;
                  alloc.(f) <- true
                done;
                live := Array.append !live [| (Hw.Frame.Mfn.to_int s, l, None) |])
              (Hw.Pmem.alloc_extents p ~align n)
        end
        else
          let s, l, rsv = pick r in
          let a = r mod l in
          let b = 1 + (r / 7 mod (l - a)) in
          match (kind, rsv) with
          | 1, None ->
            Hw.Pmem.reserve_extent p (mfn (s + a)) b;
            for f = s + a to s + a + b - 1 do res.(f) <- true done;
            replace_live r (s, l, Some (s + a, b))
          | 2, _ ->
            for f = s + a to s + a + b - 1 do
              let v = Int64.of_int (r + f) in
              Hw.Pmem.write p (mfn f) v;
              tag.(f) <- Some v
            done
          | 3, None ->
            (* Free the whole extent, or its first [b] frames. *)
            let b = if r mod 2 = 0 then l else b in
            Hw.Pmem.free_extent p (mfn s) b;
            for f = s to s + b - 1 do
              alloc.(f) <- false;
              tag.(f) <- None
            done;
            if b = l then drop_live r else replace_live r (s + b, l - b, None)
          | _, Some (rs, rl) ->
            (match Hw.Pmem.free_extent p (mfn s) l with
            | () -> fail "freed reserved frames at %d" s
            | exception Invalid_argument _ -> ());
            Hw.Pmem.unreserve_extent p (mfn rs) rl;
            for f = rs to rs + rl - 1 do res.(f) <- false done;
            replace_live r (s, l, None)
          | _, None -> ()
      in
      let check what ~allocated =
        let used = ref 0 in
        for f = 0 to total - 1 do
          let m = mfn f in
          if allocated f then incr used;
          if Hw.Pmem.is_allocated p m <> allocated f then
            fail "%s: frame %d allocated=%b" what f (Hw.Pmem.is_allocated p m);
          if Hw.Pmem.is_reserved p m <> res.(f) then
            fail "%s: frame %d reserved mismatch" what f;
          let want = if allocated f then tag.(f) else None in
          if Hw.Pmem.read p m <> want then fail "%s: frame %d tag mismatch" what f
        done;
        if Hw.Pmem.used_frames p <> !used then
          fail "%s: used %d, model %d" what (Hw.Pmem.used_frames p) !used;
        if Hw.Pmem.free_frames p + Hw.Pmem.used_frames p <> total then
          fail "%s: free + used <> total" what
      in
      List.iter do_op ops;
      check "history" ~allocated:(fun f -> alloc.(f));
      let set =
        List.map
          (fun (kind, r) ->
            match kind with
            | 0 -> (r mod total, 1 + (r / total mod 1200))
            | 1 -> (r mod chunks * 512, 512 * (1 + (r / chunks mod 2)))
            | 2 ->
              let into = 1 + (r mod 300) in
              ((1 + (r / 300 mod (chunks - 1))) * 512 - into,
               into + 1 + (r / 5000 mod 300))
            | _ when Array.length !live = 0 -> (0, 0)
            | _ ->
              let s, l, _ = pick r in
              (s, l))
          set_spec
      in
      let preserved f = List.exists (fun (s, l) -> f >= s && f < s + l) set in
      let kept f = alloc.(f) && (res.(f) || preserved f) in
      let used_before = Hw.Pmem.used_frames p in
      let reclaimed =
        Hw.Pmem.reboot_reset p
          ~preserve:
            (Hw.Frame.Extents.of_extents
               (List.map (fun (s, l) -> (mfn s, l)) set))
      in
      check "reset" ~allocated:kept;
      if reclaimed <> used_before - Hw.Pmem.used_frames p then
        fail "reclaimed %d, used fell by %d" reclaimed
          (used_before - Hw.Pmem.used_frames p);
      true)

(* --- Cpu / Nic / Machine --- *)

let test_cpu () =
  let c = Hw.Cpu.create ~sockets:2 ~cores_per_socket:14 ~threads_per_core:2 ~freq_ghz:1.7 in
  checki "cores" 28 (Hw.Cpu.total_cores c);
  checki "threads" 56 (Hw.Cpu.total_threads c);
  checki "usable" 54 (Hw.Cpu.usable_threads c ~reserved:2);
  checki "usable floor" 1 (Hw.Cpu.usable_threads c ~reserved:100)

let test_nic_transfer () =
  let nic = Hw.Nic.create ~bandwidth_gbps:1.0 ~efficiency:1.0 ~latency:Sim.Time.zero () in
  (* 1 Gbps = 125 MB/s; 125 MB should take 1 s. *)
  let t = Hw.Nic.transfer_time nic ~streams:1 125_000_000 in
  checkb "1s +- 1ms" true
    (Float.abs (Sim.Time.to_sec_f t -. 1.0) < 0.001)

let test_nic_stream_sharing () =
  let nic = Hw.Nic.create ~bandwidth_gbps:10.0 () in
  let t1 = Hw.Nic.throughput_bytes_per_sec nic ~streams:1 in
  let t4 = Hw.Nic.throughput_bytes_per_sec nic ~streams:4 in
  checkb "4 streams quarter" true (Float.abs ((t1 /. 4.0) -. t4) < 1.0)

let test_machine_catalog () =
  let m1 = Hw.Machine.m1 () and m2 = Hw.Machine.m2 () in
  checki "m1 threads" 8 (Hw.Cpu.total_threads m1.Hw.Machine.cpu);
  checki "m2 threads" 56 (Hw.Cpu.total_threads m2.Hw.Machine.cpu);
  checki "m1 workers" 6 (Hw.Machine.worker_threads m1);
  checki "m1 hosts 12 x 1GiB + 2GiB admin" 14
    (Hw.Machine.max_vms m1 ~vm_ram:(Hw.Units.gib 1));
  checkb "m2 slower per core" true
    (m2.Hw.Machine.costs.Hw.Machine.cpu_factor > 1.0)

let test_machine_pmem () =
  let m1 = Hw.Machine.m1 () in
  let p = Hw.Machine.fresh_pmem m1 in
  checki "16GiB of frames" (16 * 262144) (Hw.Pmem.total_frames p)

let suites =
  [
    ( "hw.units",
      [
        Alcotest.test_case "sizes" `Quick test_units_sizes;
        Alcotest.test_case "rounding" `Quick test_units_rounding;
        Alcotest.test_case "float conversions" `Quick test_units_to_float;
      ] );
    ( "hw.frame",
      [
        Alcotest.test_case "typed frames" `Quick test_frame_typed;
        Alcotest.test_case "extent sets" `Quick test_frame_extents;
      ] );
    ( "hw.pmem",
      [
        Alcotest.test_case "alloc/free counts" `Quick test_pmem_alloc_free_counts;
        Alcotest.test_case "alignment" `Quick test_pmem_alignment;
        Alcotest.test_case "no double allocation" `Quick test_pmem_no_overlap;
        Alcotest.test_case "out of memory" `Quick test_pmem_oom;
        Alcotest.test_case "content tags" `Quick test_pmem_contents;
        Alcotest.test_case "unallocated write rejected" `Quick
          test_pmem_write_unallocated;
        Alcotest.test_case "reservation protects" `Quick test_pmem_reserve_protects;
        Alcotest.test_case "reboot reset reclaims" `Quick test_pmem_reboot_reset;
        qtest prop_pmem_alloc_free_idempotent;
        qtest prop_pmem_random_ops;
        QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 13 |])
          prop_pmem_reclaim_model;
      ] );
    ( "hw.machine",
      [
        Alcotest.test_case "cpu topology" `Quick test_cpu;
        Alcotest.test_case "nic transfer time" `Quick test_nic_transfer;
        Alcotest.test_case "nic stream sharing" `Quick test_nic_stream_sharing;
        Alcotest.test_case "catalog" `Quick test_machine_catalog;
        Alcotest.test_case "pmem sizing" `Quick test_machine_pmem;
      ] );
  ]
