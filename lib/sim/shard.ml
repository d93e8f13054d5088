(* Deterministic sharded execution of independent simulation tasks.

   A fleet simulation is partitioned into region shards, each a pure
   function of its index (own [Engine], own derived seed).  [map] runs
   the tasks under one of three schedules — sequential, rotated
   batches, or parallel on stdlib domains — and always returns results
   in task-index order.  Because every task is independent and
   deterministic, all three schedules produce identical result arrays;
   the mode only decides wall-clock, never bytes.  The qcheck suite
   pins exactly that. *)

type mode =
  | Sequential
  | Rotated of int
  | Parallel of { shards : int; domains : int }

let validate = function
  | Sequential -> Ok ()
  | Rotated k ->
    if k >= 1 then Ok ()
    else Error (Printf.sprintf "rotation count must be >= 1 (got %d)" k)
  | Parallel { shards; domains } ->
    if shards >= 1 && domains >= 1 then Ok ()
    else
      Error
        (Printf.sprintf
           "parallel shards and domains must be >= 1 (got %dx%d)" shards
           domains)

let to_string = function
  | Sequential -> "seq"
  | Rotated k -> Printf.sprintf "rotated:%d" k
  | Parallel { shards; domains } -> Printf.sprintf "parallel:%dx%d" shards domains

let of_string s =
  let int_of v = match int_of_string_opt v with
    | Some i when i >= 1 -> Some i
    | _ -> None
  in
  match String.split_on_char ':' (String.trim s) with
  | [ ("seq" | "sequential") ] -> Ok Sequential
  | [ ("rotated" | "rot"); k ] -> (
    match int_of k with
    | Some k -> Ok (Rotated k)
    | None -> Error (Printf.sprintf "bad rotation count %S" k))
  | [ ("parallel" | "par"); spec ] -> (
    match String.split_on_char 'x' spec with
    | [ sh; dm ] -> (
      match (int_of sh, int_of dm) with
      | Some shards, Some domains -> Ok (Parallel { shards; domains })
      | _ -> Error (Printf.sprintf "bad parallel spec %S (want SHARDSxDOMAINS)" spec))
    | [ sh ] -> (
      match int_of sh with
      | Some shards -> Ok (Parallel { shards; domains = shards })
      | None -> Error (Printf.sprintf "bad parallel spec %S" spec))
    | _ -> Error (Printf.sprintf "bad parallel spec %S (want SHARDSxDOMAINS)" spec))
  | _ ->
    Error
      (Printf.sprintf
         "unknown sharding mode %S (want seq, rotated:K or parallel:SxD)" s)

(* How many worker batches / domains a mode uses over [n] tasks; the
   answer feeds benchmark metadata, not scheduling decisions. *)
let shards_used mode n =
  match mode with
  | Sequential -> 1
  | Rotated k -> Stdlib.min (Stdlib.max 1 k) (Stdlib.max 1 n)
  | Parallel { shards; _ } -> Stdlib.min (Stdlib.max 1 shards) (Stdlib.max 1 n)

let domains_used mode n =
  match mode with
  | Sequential | Rotated _ -> 1
  | Parallel { domains; _ } as m -> Stdlib.min (Stdlib.max 1 domains) (shards_used m n)

let map mode n f =
  if n < 0 then invalid_arg "Shard.map: negative task count";
  (match validate mode with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Shard.map: " ^ msg));
  let out = Array.make n None in
  (* The lowest-index failure so far.  Every schedule re-raises the one
     Sequential would have hit first, so the error, like the result,
     does not depend on the mode. *)
  let failed = Atomic.make None in
  let rec record i e =
    match Atomic.get failed with
    | Some (j, _) when j <= i -> ()
    | cur -> if not (Atomic.compare_and_set failed cur (Some (i, e))) then record i e
  in
  let below_failure i =
    match Atomic.get failed with Some (j, _) -> i < j | None -> true
  in
  (* Run task [i]; false once it has failed. *)
  let run i =
    match f i with
    | v ->
      out.(i) <- Some v;
      true
    | exception e ->
      record i e;
      false
  in
  (match mode with
  | Sequential ->
    let i = ref 0 in
    while !i < n && run !i do incr i done
  | Rotated k ->
    (* k rotation batches: batch r serves tasks r, r+k, r+2k, ...  A
       different execution order from Sequential, the same results.
       After a failure only lower-index tasks still run. *)
    let k = Stdlib.min (Stdlib.max 1 k) (Stdlib.max 1 n) in
    for r = 0 to k - 1 do
      let i = ref r in
      while !i < n && below_failure !i && run !i do
        i := !i + k
      done
    done
  | Parallel { shards; domains } ->
    (* Contiguous chunks dealt to domains through an atomic counter.
       Each result lands in its own slot, so no ordering between
       domains is observable; [Domain.join] publishes the writes.
       Chunks are claimed in increasing order, so once one fails every
       lower chunk is already claimed: workers stop dealing, finish
       what they hold, and [record] keeps the lowest failing index. *)
    let shards = Stdlib.min (Stdlib.max 1 shards) (Stdlib.max 1 n) in
    let chunk = (n + shards - 1) / shards in
    let next = Atomic.make 0 in
    let worker () =
      let continue_ = ref true in
      while !continue_ do
        let c = Atomic.fetch_and_add next 1 in
        if c >= shards || Option.is_some (Atomic.get failed) then
          continue_ := false
        else begin
          let i = ref (c * chunk) and hi = Stdlib.min n ((c + 1) * chunk) in
          while !i < hi && run !i do incr i done
        end
      done
    in
    let workers = Stdlib.min (Stdlib.max 1 domains) shards in
    if workers <= 1 then worker ()
    else begin
      let doms = Array.init (workers - 1) (fun _ -> Domain.spawn worker) in
      worker ();
      Array.iter Domain.join doms
    end);
  Option.iter (fun (_, e) -> raise e) (Atomic.get failed);
  Array.map
    (function
      | Some v -> v
      | None -> invalid_arg "Shard.map: task produced no result")
    out
