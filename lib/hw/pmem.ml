let chunk_frames = 512 (* one 2 MiB chunk *)

(* A chunk is in exactly one state: free (on the [free_stack]), fully
   allocated (member of [full]), or partially allocated (entry in
   [partial_free] listing its free offsets; its allocated frames are in
   [palloc]).  Tracking full chunks as single entries keeps multi-GiB
   guest allocations and the kexec reboot reclaim O(chunks), not
   O(frames); the per-chunk counts of reserved and tagged frames let a
   chunk be classified or released without looking at its frames. *)
type t = {
  total_frames : int;
  free_stack : int array; (* free chunks at [free_top..]; top = next out *)
  mutable free_top : int;
  full : (int, unit) Hashtbl.t; (* chunk index -> () *)
  partial_free : (int, int list) Hashtbl.t; (* chunk -> free offsets, sorted *)
  palloc : (int, unit) Hashtbl.t; (* frame -> (), partial chunks only *)
  mutable free_count : int;
  reserved : (int, unit) Hashtbl.t;
  contents : (int, int64) Hashtbl.t;
  nreserved : Bytes.t; (* u16 per chunk: its frames in [reserved] *)
  ntagged : Bytes.t; (* u16 per chunk: its frames in [contents] *)
}

exception Out_of_memory

let create ?(seed = 0x5EEDL) ~frames () =
  if frames <= 0 || frames mod chunk_frames <> 0 then
    invalid_arg "Pmem.create: frames must be a positive multiple of 512";
  let nchunks = frames / chunk_frames in
  let order = Array.init nchunks (fun i -> i) in
  let rng = Sim.Rng.create seed in
  Sim.Rng.shuffle rng order;
  {
    total_frames = frames;
    free_stack = order;
    free_top = 0;
    full = Hashtbl.create 4096;
    partial_free = Hashtbl.create 64;
    palloc = Hashtbl.create 4096;
    free_count = frames;
    reserved = Hashtbl.create 64;
    contents = Hashtbl.create 4096;
    nreserved = Bytes.make (2 * nchunks) '\000';
    ntagged = Bytes.make (2 * nchunks) '\000';
  }

let total_frames t = t.total_frames
let free_frames t = t.free_count
let used_frames t = t.total_frames - t.free_count

let count counts chunk = Bytes.get_uint16_le counts (2 * chunk)

let add_count counts frame d =
  let i = 2 * (frame / chunk_frames) in
  Bytes.set_uint16_le counts i (Bytes.get_uint16_le counts i + d)

(* Insert into / remove from a per-frame table, keeping the owning
   chunk's count in step; the length comparison saves a second lookup. *)
let set_frame tbl counts frame v =
  let n = Hashtbl.length tbl in
  Hashtbl.replace tbl frame v;
  if Hashtbl.length tbl > n then add_count counts frame 1

let unset_frame tbl counts frame =
  let n = Hashtbl.length tbl in
  Hashtbl.remove tbl frame;
  if Hashtbl.length tbl < n then add_count counts frame (-1)

(* The stack grows downwards, so the shuffled order is its initial
   content as is; it never holds more than every chunk. *)
let pop_free t =
  if t.free_top = Array.length t.free_stack then raise Out_of_memory;
  t.free_top <- t.free_top + 1;
  t.free_stack.(t.free_top - 1)

let push_free t chunk =
  t.free_top <- t.free_top - 1;
  t.free_stack.(t.free_top) <- chunk

let is_allocated t mfn =
  let frame = Frame.Mfn.to_int mfn in
  Hashtbl.mem t.full (frame / chunk_frames) || Hashtbl.mem t.palloc frame

(* Take a whole fresh chunk as one fully-allocated extent. *)
let take_full_chunk t =
  let chunk = pop_free t in
  Hashtbl.replace t.full chunk ();
  t.free_count <- t.free_count - chunk_frames;
  (Frame.Mfn.of_int (chunk * chunk_frames), chunk_frames)

(* Take [n] < 512 frames from a fresh chunk, leaving the rest partial. *)
let take_from_fresh_chunk t n =
  let chunk = pop_free t in
  let base = chunk * chunk_frames in
  for i = 0 to n - 1 do
    Hashtbl.replace t.palloc (base + i) ()
  done;
  Hashtbl.replace t.partial_free chunk
    (List.init (chunk_frames - n) (fun i -> n + i));
  t.free_count <- t.free_count - n;
  (Frame.Mfn.of_int base, n)

(* Carve an aligned run of [n] frames out of a partially-used chunk. *)
let take_from_partial t ~align n =
  let found = ref None in
  let check chunk offsets =
    if !found = None then begin
      let arr = Array.of_list offsets in
      let len = Array.length arr in
      let i = ref 0 in
      while !found = None && !i < len do
        let start = arr.(!i) in
        if start mod align = 0 && !i + n <= len && arr.(!i + n - 1) = start + n - 1
        then begin
          let ok = ref true in
          for k = 0 to n - 1 do
            if arr.(!i + k) <> start + k then ok := false
          done;
          if !ok then found := Some (chunk, start)
        end;
        incr i
      done
    end
  in
  Hashtbl.iter check t.partial_free;
  match !found with
  | None -> None
  | Some (chunk, start) ->
    let offsets = Hashtbl.find t.partial_free chunk in
    let remaining = List.filter (fun o -> o < start || o >= start + n) offsets in
    let base = (chunk * chunk_frames) + start in
    for i = 0 to n - 1 do
      Hashtbl.replace t.palloc (base + i) ()
    done;
    if remaining = [] then begin
      (* Chunk became full: promote. *)
      Hashtbl.remove t.partial_free chunk;
      for off = 0 to chunk_frames - 1 do
        Hashtbl.remove t.palloc ((chunk * chunk_frames) + off)
      done;
      Hashtbl.replace t.full chunk ()
    end
    else Hashtbl.replace t.partial_free chunk remaining;
    t.free_count <- t.free_count - n;
    Some (Frame.Mfn.of_int base, n)

let alloc_extents t ?(align = 1) n =
  if n <= 0 then invalid_arg "Pmem.alloc_extents: non-positive count";
  if align <= 0 || chunk_frames mod align <> 0 then
    invalid_arg "Pmem.alloc_extents: align must divide 512";
  if n > t.free_count then raise Out_of_memory;
  let rec go remaining acc =
    if remaining = 0 then List.rev acc
    else if remaining >= chunk_frames then
      go (remaining - chunk_frames) (take_full_chunk t :: acc)
    else begin
      let want = remaining in
      let want = if want mod align = 0 then want else want - (want mod align) + align in
      let want = Stdlib.min want chunk_frames in
      let extent =
        if want = chunk_frames then take_full_chunk t
        else
          match take_from_partial t ~align want with
          | Some e -> e
          | None -> take_from_fresh_chunk t want
      in
      let _, len = extent in
      go (Stdlib.max 0 (remaining - len)) (extent :: acc)
    end
  in
  go n []

let alloc_frames t ?align n =
  let extents = alloc_extents t ?align n in
  List.concat_map
    (fun (start, len) -> List.init len (fun i -> Frame.Mfn.add start i))
    extents

let iter_extent f start len =
  let base = Frame.Mfn.to_int start in
  for i = 0 to len - 1 do
    f (base + i)
  done

(* Demote a full chunk to partial with every frame allocated. *)
let demote_full t chunk =
  Hashtbl.remove t.full chunk;
  Hashtbl.replace t.partial_free chunk [];
  for off = 0 to chunk_frames - 1 do
    Hashtbl.replace t.palloc ((chunk * chunk_frames) + off) ()
  done

let release_full_chunk t chunk =
  Hashtbl.remove t.full chunk;
  (* Untag only as many frames as the chunk has tagged: guest pages
     carry one tag at their first frame, so this usually stops at once. *)
  let base = chunk * chunk_frames and off = ref 0 in
  while !off < chunk_frames && count t.ntagged chunk > 0 do
    unset_frame t.contents t.ntagged (base + !off);
    incr off
  done;
  push_free t chunk;
  t.free_count <- t.free_count + chunk_frames

let free_partial_frame t frame =
  Hashtbl.remove t.palloc frame;
  unset_frame t.contents t.ntagged frame;
  t.free_count <- t.free_count + 1;
  let chunk = frame / chunk_frames and off = frame mod chunk_frames in
  let offsets = Option.value ~default:[] (Hashtbl.find_opt t.partial_free chunk) in
  let offsets = List.merge Int.compare [ off ] offsets in
  if List.length offsets = chunk_frames then begin
    Hashtbl.remove t.partial_free chunk;
    push_free t chunk
  end
  else Hashtbl.replace t.partial_free chunk offsets

(* A full chunk with no reserved frame starting at [frame], wholly
   inside an extent of [rest] frames: it can go back in one step. *)
let whole_free_chunk t frame rest =
  let chunk = frame / chunk_frames in
  frame mod chunk_frames = 0 && rest >= chunk_frames
  && Hashtbl.mem t.full chunk && count t.nreserved chunk = 0

let free_extent t start len =
  if len <= 0 then invalid_arg "Pmem.free_extent: non-positive length";
  let base = Frame.Mfn.to_int start in
  (* Validate everything before changing anything; whole unreserved
     full chunks are valid by construction. *)
  let i = ref 0 in
  while !i < len do
    let frame = base + !i in
    if whole_free_chunk t frame (len - !i) then i := !i + chunk_frames
    else begin
      if not (is_allocated t (Frame.Mfn.of_int frame)) then
        invalid_arg "Pmem.free_extent: frame not allocated";
      if Hashtbl.mem t.reserved frame then
        invalid_arg "Pmem.free_extent: frame is reserved";
      incr i
    end
  done;
  let i = ref 0 in
  while !i < len do
    let frame = base + !i in
    let chunk = frame / chunk_frames in
    if whole_free_chunk t frame (len - !i) then begin
      release_full_chunk t chunk;
      i := !i + chunk_frames
    end
    else begin
      if Hashtbl.mem t.full chunk then demote_full t chunk;
      free_partial_frame t frame;
      incr i
    end
  done

let reserve_extent t start len =
  iter_extent
    (fun frame ->
      if not (is_allocated t (Frame.Mfn.of_int frame)) then
        invalid_arg "Pmem.reserve_extent: frame not allocated")
    start len;
  iter_extent (fun frame -> set_frame t.reserved t.nreserved frame ()) start len

let unreserve_extent t start len =
  iter_extent (fun frame -> unset_frame t.reserved t.nreserved frame) start len

let is_reserved t mfn = Hashtbl.mem t.reserved (Frame.Mfn.to_int mfn)

let write t mfn v =
  if not (is_allocated t mfn) then
    invalid_arg "Pmem.write: frame not allocated";
  set_frame t.contents t.ntagged (Frame.Mfn.to_int mfn) v

let read t mfn = Hashtbl.find_opt t.contents (Frame.Mfn.to_int mfn)

let expendable t preserve frame =
  (not (Hashtbl.mem t.reserved frame))
  && not (Frame.Extents.mem preserve (Frame.Mfn.of_int frame))

let reboot_reset t ~preserve =
  let reclaimed = ref 0 in
  (* Full chunks: one extent-set query and the reserved count classify
     each; only a chunk that is partly kept is walked frame by frame. *)
  let full_chunks = Hashtbl.fold (fun c () acc -> c :: acc) t.full [] in
  List.iter
    (fun chunk ->
      let base = chunk * chunk_frames in
      let covered =
        Frame.Extents.covered preserve (Frame.Mfn.of_int base) chunk_frames
      and reserved = count t.nreserved chunk in
      if covered = 0 && reserved = 0 then begin
        release_full_chunk t chunk;
        reclaimed := !reclaimed + chunk_frames
      end
      else if covered < chunk_frames && reserved < chunk_frames then begin
        let victims = ref [] in
        for o = 0 to chunk_frames - 1 do
          if expendable t preserve (base + o) then victims := (base + o) :: !victims
        done;
        if !victims <> [] then begin
          demote_full t chunk;
          List.iter
            (fun frame ->
              free_partial_frame t frame;
              incr reclaimed)
            !victims
        end
      end)
    full_chunks;
  (* Frames in partial chunks. *)
  let part = Hashtbl.fold (fun frame () acc -> frame :: acc) t.palloc [] in
  List.iter
    (fun frame ->
      if expendable t preserve frame then begin
        free_partial_frame t frame;
        incr reclaimed
      end)
    part;
  !reclaimed

let iter_allocated t f =
  (* Deterministic ascending frame order regardless of Hashtbl layout:
     full chunks first by sorted chunk index, then frames of partial
     chunks by sorted frame number.  Two same-shaped pools always
     enumerate identically — the residual audit's sweep depends on it. *)
  let full_chunks =
    List.sort Int.compare (Hashtbl.fold (fun c () acc -> c :: acc) t.full [])
  in
  List.iter
    (fun chunk ->
      let base = chunk * chunk_frames in
      for off = 0 to chunk_frames - 1 do
        let frame = base + off in
        f (Frame.Mfn.of_int frame) (Hashtbl.find_opt t.contents frame)
      done)
    full_chunks;
  let part =
    List.sort Int.compare (Hashtbl.fold (fun fr () acc -> fr :: acc) t.palloc [])
  in
  List.iter
    (fun frame -> f (Frame.Mfn.of_int frame) (Hashtbl.find_opt t.contents frame))
    part

