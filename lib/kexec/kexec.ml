type image = {
  kernel : string;
  cmdline : string;
  extents : (Hw.Frame.Mfn.t * int) list;
  nframes : int;
  stamp : int64;
}

let stamp_of kernel =
  (* Content tag marking image frames, derived from the kernel name. *)
  let h = Hashtbl.hash kernel in
  Int64.logor 0x4B45584543000000L (Int64.of_int (h land 0xFFFFFF))

let load ~pmem ~kernel ~size ~cmdline =
  if size <= 0 then invalid_arg "Kexec.load: non-positive image size";
  let nframes = Hw.Units.frames_of_bytes size in
  let extents = Hw.Pmem.alloc_extents pmem nframes in
  let stamp = stamp_of kernel in
  List.iter
    (fun (start, len) ->
      for i = 0 to len - 1 do
        Hw.Pmem.write pmem (Hw.Frame.Mfn.add start i) stamp
      done;
      Hw.Pmem.reserve_extent pmem start len)
    extents;
  { kernel; cmdline; extents; nframes; stamp }

let kernel t = t.kernel
let cmdline t = t.cmdline
let image_frames t = t.nframes

let with_pram_pointer t mfn =
  let arg = Printf.sprintf "pram=0x%x" (Hw.Frame.Mfn.to_int mfn) in
  let cmdline = if t.cmdline = "" then arg else t.cmdline ^ " " ^ arg in
  { t with cmdline }

let pram_pointer_of_cmdline cmdline =
  match Sim.Lines.opt (Sim.Lines.make ~no:1 cmdline) "pram" with
  | None -> None
  | Some v -> (
    try Some (Hw.Frame.Mfn.of_int (int_of_string v)) with
    | Failure _ | Invalid_argument _ -> None)

let clobber ~pmem t =
  (* Overwrite the image's first frame with a wrong tag — the stray-DMA
     / buggy-driver scenario the integrity check exists to catch. *)
  match t.extents with
  | [] -> ()
  | (start, _) :: _ -> Hw.Pmem.write pmem start (Int64.lognot t.stamp)

type jump_report = { frames_wiped : int; image_intact : bool }

let execute ~pmem t ~preserve =
  let frames_wiped = Hw.Pmem.reboot_reset pmem ~preserve in
  let image_intact =
    List.for_all
      (fun (start, len) ->
        let ok = ref true in
        for i = 0 to len - 1 do
          match Hw.Pmem.read pmem (Hw.Frame.Mfn.add start i) with
          | Some tag when Int64.equal tag t.stamp -> ()
          | Some _ | None -> ok := false
        done;
        !ok)
      t.extents
  in
  { frames_wiped; image_intact }

let unload ~pmem t =
  List.iter
    (fun (start, len) ->
      Hw.Pmem.unreserve_extent pmem start len;
      Hw.Pmem.free_extent pmem start len)
    t.extents

let pp fmt t =
  Format.fprintf fmt "kexec image %s (%d frames) cmdline=%S" t.kernel
    t.nframes t.cmdline
