(* Tests for the kexec micro-reboot machinery. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let mk_pmem () = Hw.Pmem.create ~frames:(512 * 64) ()

let test_load_reserves () =
  let pmem = mk_pmem () in
  let img =
    Kexec.load ~pmem ~kernel:"kvm-5.3.1" ~size:(Hw.Units.mib 24) ~cmdline:""
  in
  checki "frames" (Hw.Units.frames_of_bytes (Hw.Units.mib 24))
    (Kexec.image_frames img);
  Alcotest.check Alcotest.string "kernel" "kvm-5.3.1" (Kexec.kernel img)

let test_cmdline_pram_pointer () =
  let pmem = mk_pmem () in
  let img =
    Kexec.load ~pmem ~kernel:"xen" ~size:(Hw.Units.mib 1)
      ~cmdline:"console=ttyS0 loglevel=7"
  in
  let img = Kexec.with_pram_pointer img (Hw.Frame.Mfn.of_int 0xBEEF) in
  checkb "appended" true
    (String.length (Kexec.cmdline img) > String.length "console=ttyS0 loglevel=7");
  (match Kexec.pram_pointer_of_cmdline (Kexec.cmdline img) with
  | Some mfn -> checki "parsed back" 0xBEEF (Hw.Frame.Mfn.to_int mfn)
  | None -> Alcotest.fail "pointer lost");
  Alcotest.check (Alcotest.option Alcotest.int) "absent" None
    (Option.map Hw.Frame.Mfn.to_int
       (Kexec.pram_pointer_of_cmdline "console=ttyS0"))

let test_cmdline_malformed_pointer () =
  Alcotest.check (Alcotest.option Alcotest.int) "garbage value" None
    (Option.map Hw.Frame.Mfn.to_int
       (Kexec.pram_pointer_of_cmdline "pram=zzz quiet"))

let test_execute_wipes_and_preserves () =
  let pmem = mk_pmem () in
  let keep = Hw.Pmem.alloc_frames pmem 6 in
  let lose = Hw.Pmem.alloc_frames pmem 10 in
  List.iter (fun m -> Hw.Pmem.write pmem m 1L) keep;
  List.iter (fun m -> Hw.Pmem.write pmem m 2L) lose;
  let img = Kexec.load ~pmem ~kernel:"kvm" ~size:(Hw.Units.kib 64) ~cmdline:"" in
  let report =
    Kexec.execute ~pmem img
      ~preserve:(Hw.Frame.Extents.of_extents (List.map (fun m -> (m, 1)) keep))
  in
  checki "wiped the rest" 10 report.Kexec.frames_wiped;
  checkb "image intact" true report.Kexec.image_intact;
  List.iter
    (fun m ->
      Alcotest.check (Alcotest.option Alcotest.int64) "kept" (Some 1L)
        (Hw.Pmem.read pmem m))
    keep;
  List.iter
    (fun m -> checkb "reclaimed" false (Hw.Pmem.is_allocated pmem m))
    lose

let test_execute_detects_image_clobber () =
  let pmem = mk_pmem () in
  let img = Kexec.load ~pmem ~kernel:"kvm" ~size:(Hw.Units.kib 8) ~cmdline:"" in
  (* Overwrite one image frame behind kexec's back.  The frame is
     reserved, so it survives the jump, but the content is wrong. *)
  (match Hw.Pmem.alloc_extents pmem 1 with
  | _ -> ());
  let victim =
    (* Find an image frame by probing reserved frames. *)
    let found = ref None in
    for f = 0 to Hw.Pmem.total_frames pmem - 1 do
      let m = Hw.Frame.Mfn.of_int f in
      if !found = None && Hw.Pmem.is_reserved pmem m then found := Some m
    done;
    Option.get !found
  in
  Hw.Pmem.write pmem victim 0xBAD0BAD0L;
  let report = Kexec.execute ~pmem img ~preserve:(Hw.Frame.Extents.of_extents []) in
  checkb "clobbered image detected" false report.Kexec.image_intact

let test_unload_frees () =
  let pmem = mk_pmem () in
  let before = Hw.Pmem.free_frames pmem in
  let img = Kexec.load ~pmem ~kernel:"kvm" ~size:(Hw.Units.mib 2) ~cmdline:"" in
  checkb "frames taken" true (Hw.Pmem.free_frames pmem < before);
  Kexec.unload ~pmem img;
  checki "all returned" before (Hw.Pmem.free_frames pmem)

let test_image_survives_own_jump () =
  let pmem = mk_pmem () in
  let img = Kexec.load ~pmem ~kernel:"xen" ~size:(Hw.Units.mib 4) ~cmdline:"" in
  let report = Kexec.execute ~pmem img ~preserve:(Hw.Frame.Extents.of_extents []) in
  checkb "reserved image not wiped" true report.Kexec.image_intact

let suites =
  [
    ( "kexec",
      [
        Alcotest.test_case "load reserves frames" `Quick test_load_reserves;
        Alcotest.test_case "pram pointer on cmdline" `Quick test_cmdline_pram_pointer;
        Alcotest.test_case "malformed pointer" `Quick test_cmdline_malformed_pointer;
        Alcotest.test_case "execute wipes and preserves" `Quick
          test_execute_wipes_and_preserves;
        Alcotest.test_case "image clobber detected" `Quick
          test_execute_detects_image_clobber;
        Alcotest.test_case "unload frees" `Quick test_unload_frees;
        Alcotest.test_case "image survives its jump" `Quick
          test_image_survives_own_jump;
      ] );
  ]
