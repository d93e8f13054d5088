(* Entry point of the layered host-time benchmark: runs one workload in
   this process and prints one JSON object as its last line.

     perfbench.exe --workload host-transplant --seed 3 --seconds 15
       --trace 0 --refs perfbench/refs.txt [--out result.json]
       [--trace-out trace.json] [--size tiny] [--record refs.txt]

   Each workload runs in its own process, so the heap peak it reports
   is its own.  run.py builds this program and drives it. *)

let workloads =
  [ ("host-transplant", Wl_transplant.run); ("fleet-64k", Wl_fleet.run);
    ("fleet-1m", Wl_fleet.run);
    ("cve-stream", Wl_stream.run); ("controlplane", Wl_controlplane.run) ]

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let json_metrics ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun { Meter.name; value; unit_ } ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
             (json_float value) unit_)
         ms)
  ^ "}"

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 in
  let trace = ref 0 and size = ref "full" and refs = ref "" in
  let record = ref "" and out = ref "" and trace_out = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S host seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--size", Arg.Set_string size, "full|tiny input size");
      ("--refs", Arg.Set_string refs, "FILE stored reference outputs");
      ("--record", Arg.Set_string record, "FILE append references instead");
      ("--out", Arg.Set_string out, "FILE also write the result here");
      ("--trace-out", Arg.Set_string trace_out, "FILE Chrome trace (traced)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1 --refs FILE";
  let run =
    match List.assoc_opt !workload workloads with
    | Some run -> run
    | None ->
      prerr_endline ("perfbench: unknown workload " ^ !workload);
      exit 2
  in
  let size =
    match !size with
    | "full" -> Job.Full
    | "tiny" -> Job.Tiny
    | s ->
      prerr_endline ("perfbench: unknown size " ^ s);
      exit 2
  in
  let refs =
    Refs.load ?record:(if !record = "" then None else Some !record) !refs
  in
  let job =
    { Job.workload = !workload;
      slot = ((!seed mod Job.slots) + Job.slots) mod Job.slots;
      seconds = !seconds; traced = !trace = 1; size; refs }
  in
  let r = run job in
  Refs.close refs;
  (match (r.Job.trace, !trace_out) with
   | Some tr, path when path <> "" ->
     let oc = open_out path in
     output_string oc (Obs.Export.chrome_trace ~process:("perfbench " ^ !workload) tr);
     close_out oc
   | _ -> ());
  let line =
    Printf.sprintf
      "{\"workload\": %S, \"seed\": %d, \"slot\": %d, \"trace\": %d, \
       \"attempted\": %d, \"failed\": %d, \"e2e\": %s, \"sim\": %s, \
       \"layers\": %s}"
      !workload !seed job.Job.slot !trace r.Job.attempted r.Job.failed
      (json_metrics r.Job.e2e) (json_metrics r.Job.sim)
      (json_metrics r.Job.layers)
  in
  if !out <> "" then begin
    let oc = open_out !out in
    output_string oc (line ^ "\n");
    close_out oc
  end;
  print_endline line;
  exit (if r.Job.failed = 0 then 0 else 1)
