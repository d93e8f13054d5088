(* Tests for the vulnerability study: CVSS v2 scoring, the Table 1
   dataset, window statistics and the transplant policy. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf msg = Alcotest.check (Alcotest.float 0.051) msg
let qtest = QCheck_alcotest.to_alcotest

(* --- Cvss --- *)

let score s =
  match Cve.Cvss.parse s with
  | Ok v -> Cve.Cvss.base_score v
  | Error e -> Alcotest.fail e

(* Reference scores from the CVSS v2 specification / NVD calculator. *)
let test_cvss_known_scores () =
  checkf "worst case" 10.0 (score "AV:N/AC:L/Au:N/C:C/I:C/A:C");
  checkf "venom-like" 7.7 (score "AV:A/AC:L/Au:S/C:C/I:C/A:C");
  checkf "dos only" 5.0 (score "AV:N/AC:L/Au:N/C:N/I:N/A:P");
  checkf "local full" 7.2 (score "AV:L/AC:L/Au:N/C:C/I:C/A:C");
  checkf "no impact" 0.0 (score "AV:N/AC:L/Au:N/C:N/I:N/A:N")

let test_cvss_parse_roundtrip () =
  let s = "AV:A/AC:M/Au:S/C:P/I:N/A:C" in
  match Cve.Cvss.parse s with
  | Ok v -> Alcotest.check Alcotest.string "roundtrip" s (Cve.Cvss.to_string v)
  | Error e -> Alcotest.fail e

let test_cvss_parse_errors () =
  checkb "missing field" true (Result.is_error (Cve.Cvss.parse "AV:N/AC:L"));
  checkb "bad value" true
    (Result.is_error (Cve.Cvss.parse "AV:X/AC:L/Au:N/C:C/I:C/A:C"))

let test_severity_thresholds () =
  checkb "7.0 critical" true (Cve.Cvss.severity_of_score 7.0 = Cve.Cvss.Critical);
  checkb "6.9 medium" true (Cve.Cvss.severity_of_score 6.9 = Cve.Cvss.Medium);
  checkb "4.0 medium" true (Cve.Cvss.severity_of_score 4.0 = Cve.Cvss.Medium);
  checkb "3.9 low" true (Cve.Cvss.severity_of_score 3.9 = Cve.Cvss.Low)

let prop_cvss_score_bounds =
  let gen =
    QCheck.Gen.(
      let av = oneofl Cve.Cvss.[ Local; Adjacent_network; Network ] in
      let ac = oneofl Cve.Cvss.[ High; Medium_c; Low_c ] in
      let au = oneofl Cve.Cvss.[ Multiple; Single; None_a ] in
      let imp = oneofl Cve.Cvss.[ None_i; Partial; Complete ] in
      map
        (fun (av, ac, au, (c, i, a)) ->
          { Cve.Cvss.av; ac; au; conf = c; integ = i; avail = a })
        (quad av ac au (triple imp imp imp)))
  in
  QCheck.Test.make ~name:"cvss scores within [0, 10]"
    (QCheck.make gen)
    (fun v ->
      let s = Cve.Cvss.base_score v in
      s >= 0.0 && s <= 10.0)

let prop_cvss_impact_monotone =
  QCheck.Test.make ~name:"raising availability impact never lowers the score"
    (QCheck.make
       QCheck.Gen.(
         let av = oneofl Cve.Cvss.[ Local; Adjacent_network; Network ] in
         let imp = oneofl Cve.Cvss.[ None_i; Partial; Complete ] in
         pair av imp))
    (fun (av, conf) ->
      let mk avail =
        { Cve.Cvss.av; ac = Cve.Cvss.Low_c; au = Cve.Cvss.None_a; conf;
          integ = Cve.Cvss.None_i; avail }
      in
      Cve.Cvss.base_score (mk Cve.Cvss.Partial)
      >= Cve.Cvss.base_score (mk Cve.Cvss.None_i)
      && Cve.Cvss.base_score (mk Cve.Cvss.Complete)
         >= Cve.Cvss.base_score (mk Cve.Cvss.Partial))

(* --- Nvd dataset --- *)

let test_table1_matches_paper () =
  let rows = Cve.Nvd.table1 () in
  let expect =
    [ (2013, 3, 38, 3, 21, 0, 0); (2014, 4, 27, 1, 12, 0, 0);
      (2015, 11, 20, 1, 4, 1, 2); (2016, 6, 12, 3, 3, 0, 0);
      (2017, 17, 38, 1, 7, 0, 0); (2018, 7, 21, 2, 5, 0, 0);
      (2019, 7, 15, 2, 4, 0, 0) ]
  in
  List.iter2
    (fun (y, xc, xm, kc, km, cc, cm) (r : Cve.Nvd.table1_row) ->
      checki (Printf.sprintf "%d year" y) y r.row_year;
      checki (Printf.sprintf "%d xen crit" y) xc r.xen_crit;
      checki (Printf.sprintf "%d xen med" y) xm r.xen_med;
      checki (Printf.sprintf "%d kvm crit" y) kc r.kvm_crit;
      checki (Printf.sprintf "%d kvm med" y) km r.kvm_med;
      checki (Printf.sprintf "%d common crit" y) cc r.common_crit;
      checki (Printf.sprintf "%d common med" y) cm r.common_med)
    expect rows;
  let t = Cve.Nvd.total rows in
  checki "xen crit total" 55 t.xen_crit;
  checki "kvm crit total" 13 t.kvm_crit;
  checki "kvm med total" 56 t.kvm_med;
  checki "common crit total" 1 t.common_crit;
  checki "common med total" 2 t.common_med
  (* Note: the paper's total row says 136 Xen medium but its own column
     sums to 171; we follow the per-year values. *)

let test_real_cves_present () =
  checkb "VENOM" true (Cve.Nvd.find "CVE-2015-3456" <> None);
  checkb "alignment check DoS" true (Cve.Nvd.find "CVE-2015-8104" <> None);
  checkb "debug exception DoS" true (Cve.Nvd.find "CVE-2015-5307" <> None);
  (match Cve.Nvd.find "CVE-2016-6258" with
  | Some r ->
    checkb "7 day window" true (r.window_days = Some 7);
    checkb "xen only" true
      (Cve.Nvd.affects_xen r && not (Cve.Nvd.affects_kvm r))
  | None -> Alcotest.fail "CVE-2016-6258 missing");
  match Cve.Nvd.find "CVE-2015-3456" with
  | Some venom ->
    checkb "affects both" true
      (Cve.Nvd.affects_xen venom && Cve.Nvd.affects_kvm venom);
    checkb "critical" true (venom.severity = Cve.Cvss.Critical);
    checkb "qemu category" true (venom.category = Cve.Nvd.Qemu)
  | None -> Alcotest.fail "VENOM missing"

let test_vectors_match_severity () =
  List.iter
    (fun (r : Cve.Nvd.record) ->
      let s = Cve.Cvss.base_score r.vector in
      checkb
        (Printf.sprintf "%s vector band (%.1f)" r.id s)
        true
        (Cve.Cvss.severity_of_score s = r.severity))
    Cve.Nvd.all

let test_category_breakdown_shape () =
  let xen_crit = Cve.Nvd.category_breakdown ~xen:true Cve.Cvss.Critical in
  (* Section 2.1: PV mechanisms dominate Xen's critical flaws. *)
  (match xen_crit with
  | (Cve.Nvd.Pv_mechanisms, n) :: _ -> checkb "PV > 1/3" true (n * 3 >= 55)
  | _ -> Alcotest.fail "PV mechanisms should lead");
  let kvm_crit = Cve.Nvd.category_breakdown ~xen:false Cve.Cvss.Critical in
  checkb "no PV category for kvm" true
    (not (List.mem_assoc Cve.Nvd.Pv_mechanisms kvm_crit))

(* --- Window --- *)

let test_kvm_window_stats () =
  let s = Cve.Window.kvm_stats () in
  checki "24 documented windows" 24 s.Cve.Window.count;
  checkb "mean 71 (section 2.2)" true
    (Float.abs (s.Cve.Window.mean_days -. 71.0) < 0.5);
  checki "min 8 (CVE-2013-0311)" 8 s.Cve.Window.min_days;
  checki "max 180 (CVE-2017-12188)" 180 s.Cve.Window.max_days;
  checkb "60%+ above 60 days" true (s.Cve.Window.over_60_fraction >= 0.60)

let test_advice () =
  let fleet = [ "xen"; "kvm" ] in
  let venom = Option.get (Cve.Nvd.find "CVE-2015-3456") in
  checkb "no safe alternative for a common flaw" true
    (Cve.Window.advise ~fleet ~current:"xen" venom
    = Cve.Window.No_safe_alternative);
  let xen_only = Option.get (Cve.Nvd.find "CVE-2016-6258") in
  checkb "transplant to kvm" true
    (Cve.Window.advise ~fleet ~current:"xen" xen_only
    = Cve.Window.Transplant_to "kvm");
  checkb "kvm fleet unaffected" true
    (Cve.Window.advise ~fleet ~current:"kvm" xen_only = Cve.Window.No_action);
  let medium = Option.get (Cve.Nvd.find "CVE-2015-8104") in
  checkb "medium: no transplant" true
    (Cve.Window.advise ~fleet ~current:"xen" medium = Cve.Window.No_action)

let test_patch_delay_sampler () =
  let rng = Sim.Rng.create 11L in
  for _ = 1 to 200 do
    let d = Cve.Window.sample_patch_delay ~rng () in
    checkb "delay positive" true (d > 0.0)
  done;
  let rng = Sim.Rng.create 12L in
  for _ = 1 to 100 do
    let d = Cve.Window.sample_patch_delay ~rng ~coordinated_fraction:1.0 () in
    checkb "coordinated delays ship with the advisory" true
      (d >= 0.25 && d <= 3.0)
  done;
  let rng = Sim.Rng.create 13L in
  let min_window =
    float_of_int (List.fold_left Stdlib.min max_int (Cve.Window.empirical_windows ()))
  in
  for _ = 1 to 100 do
    let d = Cve.Window.sample_patch_delay ~rng ~coordinated_fraction:0.0 () in
    checkb "empirical delays stay near the documented windows" true
      (d >= 0.8 *. min_window)
  done;
  match Cve.Window.sample_patch_delay ~rng ~coordinated_fraction:1.5 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "fraction outside [0, 1] must be rejected"

let test_taxonomy () =
  (* Every dataset record lands in exactly one class, and the string
     conversion round-trips. *)
  List.iter
    (fun r ->
      let t = Cve.Nvd.classify r in
      checkb "taxonomy round-trips" true
        (Cve.Nvd.taxonomy_of_string (Cve.Nvd.taxonomy_to_string t) = Some t))
    Cve.Nvd.all;
  let venom = Option.get (Cve.Nvd.find "CVE-2015-3456") in
  checkb "shared QEMU code is cross-domain" true
    (Cve.Nvd.classify venom = Cve.Nvd.Cross_domain);
  let meltdown = Option.get (Cve.Nvd.find "CVE-2017-5754") in
  checkb "hardware-level flaws are cross-domain" true
    (Cve.Nvd.classify meltdown = Cve.Nvd.Cross_domain);
  (* The timed wrapper: documented window as the default delay, the
     30-day low estimate otherwise, negatives rejected. *)
  let xen_only = Option.get (Cve.Nvd.find "CVE-2016-6258") in
  let t = Cve.Nvd.timed xen_only in
  checkf "documented window is the default delay"
    (float_of_int (Option.get xen_only.Cve.Nvd.window_days))
    t.Cve.Nvd.patch_delay_days;
  let undocumented =
    { xen_only with Cve.Nvd.id = "CVE-2016-9999"; window_days = None }
  in
  checkf "30-day low estimate when undocumented" 30.0
    (Cve.Nvd.timed undocumented).Cve.Nvd.patch_delay_days;
  match Cve.Nvd.timed ~patch_delay_days:(-1.0) xen_only with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative delay must be rejected"

let test_hardware_level_flaws () =
  checki "spectre v1/v2 + meltdown" 3 (List.length Cve.Nvd.hardware_level);
  (* Excluded from Table 1, per the paper's footnote. *)
  checkb "not in the table dataset" true
    (List.for_all
       (fun (h : Cve.Nvd.record) ->
         not (List.exists (fun r -> r.Cve.Nvd.id = h.Cve.Nvd.id) Cve.Nvd.all))
       Cve.Nvd.hardware_level);
  (match Cve.Nvd.find "CVE-2017-5754" with
  | Some meltdown ->
    checkb "hardware level" true (Cve.Nvd.is_hardware_level meltdown);
    checkb "216-day window" true (meltdown.window_days = Some 216);
    (* Transplant cannot escape the CPU, no matter the repertoire. *)
    checkb "no safe alternative even with three hypervisors" true
      (Cve.Window.advise ~fleet:[ "xen"; "kvm"; "bhyve" ] ~current:"xen"
         meltdown
      = Cve.Window.No_safe_alternative)
  | None -> Alcotest.fail "meltdown missing")

let test_transplants_per_year_low () =
  let per_year =
    Cve.Window.transplants_needed_per_year ~fleet:[ "xen"; "kvm" ]
      ~current:"xen"
  in
  checki "seven years" 7 (List.length per_year);
  (* Critical-only policy: a handful to a few dozen per year, never the
     medium flood. *)
  List.iter
    (fun (_, n) -> checkb "bounded" true (n >= 0 && n <= 20))
    per_year

let suites =
  [
    ( "cve.cvss",
      [
        Alcotest.test_case "known scores" `Quick test_cvss_known_scores;
        Alcotest.test_case "parse roundtrip" `Quick test_cvss_parse_roundtrip;
        Alcotest.test_case "parse errors" `Quick test_cvss_parse_errors;
        Alcotest.test_case "severity thresholds" `Quick test_severity_thresholds;
        qtest prop_cvss_score_bounds;
        qtest prop_cvss_impact_monotone;
      ] );
    ( "cve.nvd",
      [
        Alcotest.test_case "Table 1 counts" `Quick test_table1_matches_paper;
        Alcotest.test_case "real CVEs embedded" `Quick test_real_cves_present;
        Alcotest.test_case "vectors match declared severity" `Quick
          test_vectors_match_severity;
        Alcotest.test_case "category breakdown" `Quick test_category_breakdown_shape;
      ] );
    ( "cve.window",
      [
        Alcotest.test_case "kvm window stats" `Quick test_kvm_window_stats;
        Alcotest.test_case "transplant advice" `Quick test_advice;
        Alcotest.test_case "patch-delay sampler" `Quick test_patch_delay_sampler;
        Alcotest.test_case "attack-surface taxonomy" `Quick test_taxonomy;
        Alcotest.test_case "hardware-level flaws (Spectre/Meltdown)" `Quick
          test_hardware_level_flaws;
        Alcotest.test_case "transplants/year stays low" `Quick
          test_transplants_per_year_low;
      ] );
  ]
