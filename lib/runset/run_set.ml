module Ikey = Wip_util.Ikey
module Env = Wip_storage.Env
module Io_stats = Wip_storage.Io_stats
module Block_cache = Wip_storage.Block_cache
module Table = Wip_sstable.Table
module Merge_iter = Wip_sstable.Merge_iter
module Sorted_view = Wip_sstable.Sorted_view
module Manifest = Wip_manifest.Manifest
module Intf = Wip_kv.Store_intf

(* A table retired while snapshots were live: file, reader and cached
   blocks stay usable until every snapshot that could still be streaming it
   releases. [z_pinners] holds the ids of the snapshots live at retirement. *)
type zombie = {
  z_meta : Table.meta;
  mutable z_pinners : int list; (* guarded_by: caller *)
}

type t = {
  env : Env.t;
  manifest : Manifest.t;
  cache : Block_cache.t option;
  name : string;
  suffix : string;
  bits_per_key : int;
  ph_index : bool;
  sorted_view : bool;
  sorted_view_min_runs : int;
  readers : (string, Table.Reader.t) Hashtbl.t;
  mutable next_file : int; (* guarded_by: caller *)
  mutable next_snap_id : int; (* guarded_by: caller *)
  live_snaps : (int, int64) Hashtbl.t; (* snapshot id -> pinned seq *)
  zombies : (string, zombie) Hashtbl.t; (* retired-but-pinned, by file *)
}

let create ?cache env manifest ~name ~suffix ~bits_per_key ~ph_index
    ~sorted_view ~sorted_view_min_runs =
  {
    env;
    manifest;
    cache;
    name;
    suffix;
    bits_per_key;
    ph_index;
    sorted_view;
    sorted_view_min_runs;
    readers = Hashtbl.create 64;
    next_file = 1;
    next_snap_id = 0;
    live_snaps = Hashtbl.create 8;
    zombies = Hashtbl.create 8;
  }

(* ------------------------------------------------------------------ *)
(* Tables *)

let builder t ~category ~expected_keys =
  let n = t.next_file in
  t.next_file <- n + 1;
  Table.Builder.create t.env
    ~name:(Printf.sprintf "%s-%06d%s" t.name n t.suffix)
    ~category ~bits_per_key:t.bits_per_key ~ph_index:t.ph_index ~expected_keys
    ()

let finish b =
  if Table.Builder.entry_count b > 0 then Some (Table.Builder.finish b)
  else begin
    Table.Builder.abandon b;
    None
  end

(* Ascending encoded entries into new tables. A table ends where the stream
   passes a cut key, or once it reaches [max_bytes] — but never between two
   versions of one user key: with a version-GC floor several versions of a
   key can flow through one pass, and a leveled point read probes exactly
   one table per level. Tables are started lazily, so empty ones never
   exist. *)
let write t ~category ~expected_keys ?(max_bytes = max_int) ?(cuts = []) entries =
  let outputs = ref [] and current = ref None and last = ref None in
  let cuts = ref (List.map Ikey.encode_user cuts) in
  let finish_current () =
    Option.iter
      (fun b -> Option.iter (fun m -> outputs := m :: !outputs) (finish b))
      !current;
    current := None
  in
  Seq.iter
    (fun (key, value) ->
      let passed = ref false in
      while
        match !cuts with
        | c :: rest when Ikey.compare_encoded_user c key <= 0 ->
          cuts := rest;
          true
        | _ -> false
      do
        passed := true
      done;
      (match (!current, !last) with
      | Some b, Some prev
        when !passed
             || Table.Builder.estimated_size b >= max_bytes
                && not (Ikey.encoded_same_user prev key) ->
        finish_current ()
      | _ -> ());
      last := Some key;
      let b =
        match !current with
        | Some b -> b
        | None ->
          let b = builder t ~category ~expected_keys in
          current := Some b;
          b
      in
      Table.Builder.add_encoded b ~key ~value)
    entries;
  finish_current ();
  List.rev !outputs

let reader t (meta : Table.meta) =
  match Hashtbl.find_opt t.readers meta.Table.name with
  | Some r -> r
  | None ->
    let r = Table.Reader.open_ ?cache:t.cache t.env ~name:meta.Table.name in
    Hashtbl.replace t.readers meta.Table.name r;
    r

let stream t ~category meta =
  Table.Reader.stream (reader t meta) ~category ~fill_cache:false ()

let forget t name =
  (match Hashtbl.find_opt t.readers name with
  | Some r ->
    Table.Reader.close r;
    Hashtbl.remove t.readers name
  | None -> ());
  Option.iter (fun cache -> Block_cache.evict_file cache name) t.cache

let reclaim t name =
  forget t name;
  Env.delete t.env name

(* With no live snapshot a retired table is reclaimed at once; otherwise a
   pinned snapshot may still be lazily streaming its blocks, so it becomes a
   zombie until the last snapshot live now releases. *)
let retire t (meta : Table.meta) =
  if Hashtbl.length t.live_snaps = 0 then reclaim t meta.Table.name
  else
    Hashtbl.replace t.zombies meta.Table.name
      {
        z_meta = meta;
        z_pinners = Hashtbl.fold (fun id _ acc -> id :: acc) t.live_snaps [];
      }

(* ------------------------------------------------------------------ *)
(* Snapshots *)

let oldest_snapshot_seq t =
  Hashtbl.fold
    (fun _ s acc -> if Int64.compare s acc < 0 then s else acc)
    t.live_snaps Int64.max_int

let live_snapshot_count t = Hashtbl.length t.live_snaps

let zombie_table_files t = Hashtbl.fold (fun name _ acc -> name :: acc) t.zombies []

let zombie_bytes t =
  Hashtbl.fold (fun _ z acc -> acc + z.z_meta.Table.size) t.zombies 0

let release t id =
  if Hashtbl.mem t.live_snaps id then begin
    Hashtbl.remove t.live_snaps id;
    let dead =
      Hashtbl.fold
        (fun name z acc ->
          z.z_pinners <- List.filter (fun p -> p <> id) z.z_pinners;
          if z.z_pinners = [] then name :: acc else acc)
        t.zombies []
    in
    List.iter
      (fun name ->
        Hashtbl.remove t.zombies name;
        reclaim t name)
      dead
  end

let snapshot t ~seq =
  let id = t.next_snap_id in
  t.next_snap_id <- id + 1;
  Hashtbl.replace t.live_snaps id seq;
  { Intf.snap_seq = seq; snap_id = id; snap_release = (fun () -> release t id) }

(* ------------------------------------------------------------------ *)
(* Manifest and recovery *)

let log_add t ~bucket ~level (meta : Table.meta) =
  Manifest.append t.manifest
    (Manifest.Add_table
       {
         bucket;
         level;
         name = meta.Table.name;
         size = meta.Table.size;
         entry_count = meta.Table.entry_count;
         smallest = meta.Table.smallest;
         largest = meta.Table.largest;
       })

let log_remove t ~bucket ~level (meta : Table.meta) =
  Manifest.append t.manifest
    (Manifest.Remove_table { bucket; level; name = meta.Table.name })

let log_watermark t ~seq =
  Manifest.append t.manifest
    (Manifest.Watermark { seq; next_file = t.next_file })

(* The file number of one of this store's table files ("<name>-NNNNNN<suffix>"). *)
let table_number t file =
  let plen = String.length t.name + 1 and slen = String.length t.suffix in
  let n = String.length file - plen - slen in
  if
    n > 0
    && String.equal (String.sub file 0 plen) (t.name ^ "-")
    && Filename.check_suffix file t.suffix
    && String.for_all (fun c -> c >= '0' && c <= '9') (String.sub file plen n)
  then int_of_string_opt (String.sub file plen n)
  else None

let recover t ~next_file live =
  let names = Hashtbl.create 64 in
  t.next_file <- max t.next_file next_file;
  List.iter
    (fun (m : Table.meta) ->
      Hashtbl.replace names m.Table.name ();
      match table_number t m.Table.name with
      | Some n -> t.next_file <- max t.next_file (n + 1)
      | None -> ())
    live;
  List.iter
    (fun f ->
      if Option.is_some (table_number t f) && not (Hashtbl.mem names f) then
        Env.delete t.env f)
    (Env.list_files t.env)

(* ------------------------------------------------------------------ *)
(* Sorted views (REMIX-style; see Sorted_view and DESIGN.md). Run streams
   are always scan-resistant: replaying a run set must not evict the
   point-get working set. *)

type slot = {
  mutable view : (Sorted_view.t * Table.meta array) option; (* guarded_by: caller *)
}

let slot () = { view = None }

let invalidate slot = slot.view <- None

(* A run's entries from encoded key [from] on, for the read path. *)
let read_from t meta ~from =
  Table.Reader.stream (reader t meta) ~category:Io_stats.Read_path
    ~fill_cache:false ~from ()

let open_run t (runs : Table.meta array) r ~from = read_from t runs.(r) ~from

let timed_rebuild t f =
  let started = Unix.gettimeofday () in
  let view = f () in
  Io_stats.record_view_rebuild (Env.stats t.env)
    ~ns:(int_of_float ((Unix.gettimeofday () -. started) *. 1e9));
  view

(* The slot's view, built on demand when the run count is in the profitable
   window. *)
let view t slot runs =
  match slot.view with
  | Some _ as vr -> vr
  | None ->
    let n = List.length runs in
    if (not t.sorted_view) || n < t.sorted_view_min_runs || n > Sorted_view.max_runs
    then None
    else begin
      let runs = Array.of_list runs in
      let view =
        timed_rebuild t (fun () ->
            Sorted_view.build
              (Array.map (stream t ~category:Io_stats.Read_path) runs))
      in
      slot.view <- Some (view, runs);
      slot.view
    end

let extend t slot (meta : Table.meta) =
  match slot.view with
  | None -> ()
  | Some (view, runs) ->
    if (not t.sorted_view) || Sorted_view.run_count view >= Sorted_view.max_runs
    then invalidate slot
    else begin
      let view' =
        timed_rebuild t (fun () ->
            Sorted_view.add_run view ~open_run:(open_run t runs)
              (stream t ~category:Io_stats.Read_path meta))
      in
      slot.view <- Some (view', Array.append runs [| meta |])
    end

let range t slot runs ~mem ~lo ~hi ~snapshot =
  (* Encoded bounds, computed once: tables seek [from] directly and the
     take-while compares [hi_enc] against each entry's escaped-user prefix. *)
  let from = Ikey.encode_seek lo ~seq:Ikey.max_seq in
  let hi_enc = Ikey.encode_user hi in
  let below_hi seq =
    let src = ref seq in
    let rec next () =
      match !src () with
      | Seq.Cons (((k, _) as entry), rest) when Ikey.compare_encoded_user hi_enc k > 0 ->
        src := rest;
        Seq.Cons (entry, next)
      | Seq.Nil | Seq.Cons _ ->
        src := Seq.empty;
        Seq.Nil
    in
    next
  in
  let mem =
    mem
    |> Seq.filter (fun ((ik : Ikey.t), _) ->
           Ikey.compare_user ik.Ikey.user_key lo >= 0
           && Ikey.compare_user ik.Ikey.user_key hi < 0)
    |> Seq.map (fun (ik, v) -> (Ikey.encode ik, v))
  in
  let table_seqs =
    (* Sorted view first: one selector-driven walk replaces the heap merge
       of the whole run set. Without one, stream every run overlapping the
       range — exclusive bound: a table whose smallest key is [hi] holds
       nothing in [lo, hi), so it is never opened. *)
    match view t slot runs with
    | Some (view, vruns) ->
      [ below_hi (Sorted_view.walk view ~from ~open_run:(open_run t vruns)) ]
    | None ->
      List.filter_map
        (fun (m : Table.meta) ->
          if Table.overlaps_excl m ~lo ~hi_excl:hi then
            Some (below_hi (read_from t m ~from))
          else None)
        runs
  in
  Merge_iter.compact ~dedup_user_keys:true ~drop_tombstones:false
    ~snapshot_floor:snapshot (mem :: table_seqs)

(* Entries newer than the snapshot are skipped (§III-D sequence-number
   rule); among the rest the first (newest) version per user key decides,
   and tombstones are dropped. [last] starts as "", which matches no encoded
   key (each carries an 8-byte trailer). *)
let visible ~snapshot merged =
  let src = ref merged and last = ref "" in
  let rec next () =
    match !src () with
    | Seq.Nil -> Seq.Nil
    | Seq.Cons ((k, v), rest) ->
      src := rest;
      if Ikey.encoded_seq_gt k snapshot then next ()
      else begin
        let dup = Ikey.encoded_same_user !last k in
        last := k;
        if dup then next ()
        else
          match Ikey.encoded_kind k with
          | Ikey.Value -> Seq.Cons ((Ikey.user_key_of_encoded k, v), next)
          | Ikey.Deletion -> next ()
      end
  in
  next

let take limit seq =
  let rec go n seq acc =
    if n <= 0 then List.rev acc
    else
      match seq () with
      | Seq.Nil -> List.rev acc
      | Seq.Cons (x, rest) -> go (n - 1) rest (x :: acc)
  in
  go limit seq []
