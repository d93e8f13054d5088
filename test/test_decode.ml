(* Tests for the artifact decoders: every file read back (campaign
   journal, control-plane bundle, CVE-stream journal) either resumes
   within bounded work or ends in a structured error.  Each mutant
   inflates (or negates) one header value of a real artifact; none may
   abort the process or escape as [Out_of_memory] or [Invalid_argument]. *)

module C = Cluster.Campaign
module CP = Cluster.Controlplane
module S = Stream.Service

let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string

(* Replace the one space-delimited token [from] in [text]. *)
let inflate text ~from ~into =
  let toks = String.split_on_char ' ' text in
  checkb (Printf.sprintf "artifact holds %s once" from) true
    (List.length (List.filter (String.equal from) toks) = 1);
  String.concat " " (List.map (fun t -> if t = from then into else t) toks)

let campaign_journal () =
  match C.run { C.default_config with C.nodes = 8 } with
  | C.Finished (_, j) | C.Crashed j -> C.journal_to_string j

let controlplane_bundle () =
  match
    CP.run
      { CP.default_config with
        CP.regions = 2; hosts_per_region = 4; global_concurrency = 4 }
  with
  | CP.Finished (_, b) | CP.Crashed b -> CP.bundle_to_string b

let stream_journal () =
  let cfg =
    { S.default_config with
      S.mix = { S.xen_hosts = 4; kvm_hosts = 4; bhyve_hosts = 0 };
      years = 0.5 }
  in
  S.journal_to_string (snd (S.run_to_completion cfg))

(* Decode, then resume what decoded: [Ok] only if neither step
   rejected the artifact. *)
let campaign_resume text =
  Result.map (fun j () -> ignore (C.resume j)) (C.journal_of_string text)

let controlplane_resume text =
  Result.map (fun b () -> ignore (CP.resume b)) (CP.bundle_of_string text)

let stream_resume text =
  Result.map (fun j () -> ignore (S.resume j)) (S.journal_of_string text)

let mutants =
  [ ("campaign nodes", campaign_journal, campaign_resume, "nodes=8",
     "nodes=800000000");
    ("campaign vms", campaign_journal, campaign_resume, "vms_per_node=10",
     "vms_per_node=800000000");
    ("campaign vm ram", campaign_journal, campaign_resume, "vm_ram=4294967296",
     "vm_ram=-5");
    ("bundle regions", controlplane_bundle, controlplane_resume, "regions=2",
     "regions=200000000");
    (* Passes config validation: only the header count can catch it. *)
    ("bundle region headers", controlplane_bundle, controlplane_resume,
     "regions=2", "regions=3");
    ("stream years", stream_journal, stream_resume, "years=0.500000",
     "years=07500000");
    ("stream rate", stream_journal, stream_resume, "rate=14.000000",
     "rate=14000000000.000000") ]

let test_inflated_headers () =
  List.iter
    (fun (name, artifact, resume, from, into) ->
      let text = artifact () in
      (match resume text with
      | Ok go -> go ()
      | Error e -> Alcotest.failf "%s: intact artifact rejected: %s" name e);
      match resume (inflate text ~from ~into) with
      | Error e ->
        checkb (name ^ ": error names a line") true
          (String.length e > 5 && String.sub e 0 5 = "line ")
      | Ok go -> (
        match go () with
        | exception Hypertp_error.Error _ -> ()
        | () -> Alcotest.failf "%s: inflated artifact was accepted" name))
    mutants

let test_line_errors () =
  let module L = Sim.Lines in
  let decode text =
    L.decode ~magic:"m v1" ~what:"test artifact"
      (fun lines -> List.map (fun l -> L.int l "n") lines)
      text
  in
  checkb "round trip" true (decode "m v1\n\nn=1\nx n=2\n" = Ok [ 1; 2 ]);
  let error = function Error e -> e | Ok _ -> Alcotest.fail "accepted" in
  checks "bad magic"
    "line 1: not a test artifact (bad magic line, want \"m v1\")"
    (error (decode "m v2\nn=1"));
  checks "missing field" "line 3: missing field \"n\""
    (error (decode "m v1\nn=1\nk=2"));
  checks "bad value" "line 2: bad value \"x\" in field \"n\""
    (error (decode "m v1\nn=x"))

let suites =
  [ ( "decode.bounds",
      [ Alcotest.test_case "inflated header counts are rejected" `Quick
          test_inflated_headers;
        Alcotest.test_case "errors name line and field" `Quick
          test_line_errors ] ) ]
