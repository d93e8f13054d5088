(* Stored reference outputs.  Each line of the reference file is
   [workload slot key value]: a simulated output for that input slot,
   as recorded from the simulator the benchmark was defined against.  A run compares its outputs against
   these; in record mode ([--record FILE]) it writes them instead.

   Values are short hex digests of the simulated outputs, or plain
   integers where the workload needs the number itself (journal
   lengths used to place a crash). *)

type t = {
  table : (string * int * string, string) Hashtbl.t;
  record : out_channel option;
}

let load ?record path =
  let table = Hashtbl.create 1024 in
  (match open_in path with
   | exception Sys_error _ -> ()
   | ic ->
     (try
        while true do
          match String.split_on_char ' ' (String.trim (input_line ic)) with
          | [ w; slot; key; value ] ->
            Hashtbl.replace table (w, int_of_string slot, key) value
          | _ -> ()
        done
      with End_of_file -> ());
     close_in ic);
  let record =
    Option.map
      (fun f -> open_out_gen [ Open_append; Open_creat ] 0o644 f)
      record
  in
  { table; record }

let recording t = t.record <> None
let find t ~workload ~slot key = Hashtbl.find_opt t.table (workload, slot, key)

let digest s = String.sub (Digest.to_hex (Digest.string s)) 0 16

(* [check] answers whether [actual] is the stored value.  In record
   mode a value not stored yet is stored and accepted, so the first
   output of a key becomes its reference and any later output of the
   same key (a resumed run, another pass) must match it.  Outside
   record mode a missing reference is a failure. *)
let check t ~workload ~slot key actual =
  match (find t ~workload ~slot key, t.record) with
  | Some expected, _ -> expected = actual
  | None, Some oc ->
    Hashtbl.replace t.table (workload, slot, key) actual;
    Printf.fprintf oc "%s %d %s %s\n%!" workload slot key actual;
    true
  | None, None -> false

let close t = Option.iter close_out t.record
