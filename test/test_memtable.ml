(* Tests for wip_memtable: skiplist, the paper's hash memtable, and the
   unified front, checked against a reference model. *)

module Ikey = Wip_util.Ikey
module Skiplist = Wip_memtable.Skiplist
module Hash_memtable = Wip_memtable.Hash_memtable
module Memtable = Wip_memtable.Memtable

module Model = Map.Make (String)

let ik ?(kind = Ikey.Value) key seq = Ikey.make ~kind key ~seq:(Int64.of_int seq)

(* ------------------------------------------------------------------ *)
(* Skiplist *)

let test_skiplist_basic () =
  let s = Skiplist.create () in
  Skiplist.add s (ik "b" 1) "vb";
  Skiplist.add s (ik "a" 2) "va";
  Skiplist.add s (ik "c" 3) "vc";
  Alcotest.(check int) "count" 3 (Skiplist.count s);
  (match Skiplist.find s "a" ~snapshot:10L with
  | Some (Ikey.Value, v) -> Alcotest.(check string) "a" "va" v
  | _ -> Alcotest.fail "a not found");
  Alcotest.(check bool) "missing" true (Skiplist.find s "zz" ~snapshot:10L = None)

let test_skiplist_versions_and_snapshots () =
  let s = Skiplist.create () in
  Skiplist.add s (ik "k" 1) "v1";
  Skiplist.add s (ik "k" 5) "v5";
  Skiplist.add s (ik ~kind:Ikey.Deletion "k" 8) "";
  (match Skiplist.find s "k" ~snapshot:10L with
  | Some (Ikey.Deletion, _) -> ()
  | _ -> Alcotest.fail "newest is the tombstone");
  (match Skiplist.find s "k" ~snapshot:6L with
  | Some (Ikey.Value, v) -> Alcotest.(check string) "snapshot 6" "v5" v
  | _ -> Alcotest.fail "v5 expected");
  (match Skiplist.find s "k" ~snapshot:1L with
  | Some (Ikey.Value, v) -> Alcotest.(check string) "snapshot 1" "v1" v
  | _ -> Alcotest.fail "v1 expected");
  Alcotest.(check bool) "before any write" true
    (Skiplist.find s "k" ~snapshot:0L = None)

let test_skiplist_sorted_iteration () =
  let s = Skiplist.create () in
  let rng = Wip_util.Rng.create ~seed:5L in
  for i = 1 to 500 do
    let key = Printf.sprintf "%05d" (Wip_util.Rng.int rng 1000) in
    Skiplist.add s (ik key i) "v"
  done;
  let entries = List.of_seq (Skiplist.to_sorted_seq s) in
  Alcotest.(check int) "all entries" 500 (List.length entries);
  let rec sorted = function
    | (a, _) :: ((b, _) :: _ as rest) ->
      Ikey.compare a b < 0 && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted by internal key" true (sorted entries)

let test_skiplist_range () =
  let s = Skiplist.create () in
  Skiplist.add s (ik "a" 1) "va";
  Skiplist.add s (ik "b" 2) "vb-old";
  Skiplist.add s (ik "b" 3) "vb-new";
  Skiplist.add s (ik ~kind:Ikey.Deletion "c" 4) "";
  Skiplist.add s (ik "d" 5) "vd";
  let r = Skiplist.range s ~lo:"a" ~hi:"d" ~snapshot:10L in
  Alcotest.(check (list (pair string string)))
    "newest visible, tombstones dropped"
    [ ("a", "va"); ("b", "vb-new") ]
    r;
  let r = Skiplist.range s ~lo:"a" ~hi:"d" ~snapshot:2L in
  Alcotest.(check (list (pair string string)))
    "old snapshot sees old version"
    [ ("a", "va"); ("b", "vb-old") ]
    r

(* ------------------------------------------------------------------ *)
(* Hash memtable *)

let test_hash_basic () =
  let h = Hash_memtable.create ~capacity_items:100 in
  Alcotest.(check bool) "add" true (Hash_memtable.try_add h (ik "x" 1) "vx");
  Alcotest.(check bool) "add" true (Hash_memtable.try_add h (ik "y" 2) "vy");
  (match Hash_memtable.find h "x" ~snapshot:10L with
  | Some (Ikey.Value, v) -> Alcotest.(check string) "x" "vx" v
  | _ -> Alcotest.fail "x missing");
  Alcotest.(check bool) "absent" true (Hash_memtable.find h "z" ~snapshot:10L = None)

let test_hash_newest_wins () =
  let h = Hash_memtable.create ~capacity_items:100 in
  ignore (Hash_memtable.try_add h (ik "k" 1) "old");
  ignore (Hash_memtable.try_add h (ik "k" 2) "new");
  (match Hash_memtable.find h "k" ~snapshot:10L with
  | Some (Ikey.Value, v) -> Alcotest.(check string) "newest" "new" v
  | _ -> Alcotest.fail "missing");
  (match Hash_memtable.find h "k" ~snapshot:1L with
  | Some (Ikey.Value, v) -> Alcotest.(check string) "snapshot sees old" "old" v
  | _ -> Alcotest.fail "missing")

let test_hash_capacity_full () =
  let h = Hash_memtable.create ~capacity_items:8 in
  let added = ref 0 in
  (try
     for i = 0 to 100 do
       if Hash_memtable.try_add h (ik (Printf.sprintf "key%d" i) i) "v" then
         incr added
       else raise Exit
     done
   with Exit -> ());
  Alcotest.(check int) "stops at capacity" 8 !added

let test_hash_entry_overflow_freezes () =
  (* With a big arena but only 2 directory entries (capacity 8 -> 2 entries),
     nine keys hashing anywhere must overflow some 8-slot entry before 17
     insertions; the table reports full rather than relocating. *)
  let h = Hash_memtable.create ~capacity_items:1000 in
  let full = ref false in
  (try
     for i = 0 to 999 do
       if not (Hash_memtable.try_add h (ik (Printf.sprintf "key%d" i) i) "v")
       then begin
         full := true;
         raise Exit
       end
     done
   with Exit -> ());
  (* 1000-item capacity gives 256 entries * 8 slots = 2048 slots, but uneven
     hashing can overflow one entry early; either way it must not crash and
     sorted output must contain exactly what was accepted. *)
  let entries = Hash_memtable.to_sorted_entries h in
  Alcotest.(check int) "sorted output size" (Hash_memtable.count h)
    (Array.length entries);
  ignore !full

let test_hash_sorted_entries () =
  let h = Hash_memtable.create ~capacity_items:512 in
  let rng = Wip_util.Rng.create ~seed:9L in
  let n = 300 in
  for i = 1 to n do
    ignore
      (Hash_memtable.try_add h
         (ik (Printf.sprintf "%06d" (Wip_util.Rng.int rng 100000)) i)
         ("v" ^ string_of_int i))
  done;
  let entries = Hash_memtable.to_sorted_entries h in
  Alcotest.(check int) "count" n (Array.length entries);
  for i = 1 to Array.length entries - 1 do
    if Ikey.compare (fst entries.(i - 1)) (fst entries.(i)) >= 0 then
      Alcotest.fail "not sorted"
  done

(* ------------------------------------------------------------------ *)
(* Unified memtable, model-based *)

let model_check structure =
  let mt =
    Memtable.create ~structure ~capacity_items:10_000
      ~capacity_bytes:(1 lsl 30)
  in
  let model = ref Model.empty in
  let rng = Wip_util.Rng.create ~seed:77L in
  for seq = 1 to 2000 do
    let key = Printf.sprintf "%04d" (Wip_util.Rng.int rng 300) in
    (* A rejected insert (hash-entry overflow) means the table is full in
       real use; the model must not record it. *)
    if Wip_util.Rng.int rng 10 = 0 then begin
      if Memtable.try_add mt (ik ~kind:Ikey.Deletion key seq) "" then
        model := Model.add key None !model
    end
    else begin
      let v = Printf.sprintf "v%d" seq in
      if Memtable.try_add mt (ik key seq) v then
        model := Model.add key (Some v) !model
    end
  done;
  Model.iter
    (fun key expected ->
      match (Memtable.find mt key ~snapshot:Int64.max_int, expected) with
      | Some (Ikey.Value, v), Some v' when String.equal v v' -> ()
      | Some (Ikey.Deletion, _), None -> ()
      | got, _ ->
        Alcotest.failf "mismatch on %s (got %s)" key
          (match got with
          | None -> "none"
          | Some (Ikey.Value, v) -> "value " ^ v
          | Some (Ikey.Deletion, _) -> "tombstone"))
    !model

let test_memtable_model_hash () = model_check Memtable.Hash

let test_memtable_model_sorted () = model_check Memtable.Sorted

let test_memtable_min_seq () =
  let mt =
    Memtable.create ~structure:Memtable.Hash ~capacity_items:100
      ~capacity_bytes:(1 lsl 20)
  in
  Alcotest.(check bool) "empty" true (Memtable.min_seq mt = None);
  ignore (Memtable.try_add mt (ik "a" 5) "v");
  ignore (Memtable.try_add mt (ik "b" 3) "v");
  ignore (Memtable.try_add mt (ik "c" 9) "v");
  Alcotest.(check bool) "min is 3" true (Memtable.min_seq mt = Some 3L)

let test_memtable_capacity_bytes () =
  let mt =
    Memtable.create ~structure:Memtable.Sorted ~capacity_items:1_000_000
      ~capacity_bytes:100
  in
  let accepted = ref 0 in
  (try
     for i = 1 to 100 do
       if Memtable.try_add mt (ik (Printf.sprintf "%05d" i) i) "0123456789" then
         incr accepted
       else raise Exit
     done
   with Exit -> ());
  Alcotest.(check bool) "byte capacity enforced" true (!accepted < 100)

let test_memtable_range_includes_tombstones () =
  let mt =
    Memtable.create ~structure:Memtable.Hash ~capacity_items:100
      ~capacity_bytes:(1 lsl 20)
  in
  ignore (Memtable.try_add mt (ik "a" 1) "va");
  ignore (Memtable.try_add mt (ik ~kind:Ikey.Deletion "b" 2) "");
  let r = Memtable.range mt ~lo:"a" ~hi:"z" ~snapshot:10L in
  Alcotest.(check int) "two results incl tombstone" 2 (List.length r);
  (match List.assoc "b" r with
  | Ikey.Deletion, _, _ -> ()
  | _ -> Alcotest.fail "b should be a tombstone")

let qcheck_hash_vs_skiplist =
  QCheck.Test.make ~name:"hash and skiplist memtables agree" ~count:50
    QCheck.(small_list (pair (int_bound 50) (int_bound 2)))
    (fun ops ->
      let h =
        Memtable.create ~structure:Memtable.Hash ~capacity_items:10_000
          ~capacity_bytes:(1 lsl 30)
      and s =
        Memtable.create ~structure:Memtable.Sorted ~capacity_items:10_000
          ~capacity_bytes:(1 lsl 30)
      in
      List.iteri
        (fun i (k, op) ->
          let key = Printf.sprintf "%03d" k in
          let kind = if op = 0 then Ikey.Deletion else Ikey.Value in
          let ikey = ik ~kind key (i + 1) in
          let v = "v" ^ string_of_int i in
          (* Keep the two tables in lockstep: skip the skiplist insert when
             the hash table rejects (overflow). *)
          if Memtable.try_add h ikey v then ignore (Memtable.try_add s ikey v))
        ops;
      List.for_all
        (fun (k, _) ->
          let key = Printf.sprintf "%03d" k in
          Memtable.find h key ~snapshot:Int64.max_int
          = Memtable.find s key ~snapshot:Int64.max_int)
        ops)

(* A scan reaching a bucket sorts its memtable. With more than 256 entries,
   building the sorted array must not force a minor collection — each one
   stops every domain. Entries are fresh (young) when the array is built,
   which is when an [Array.make]/[Array.init] with a young filler forces
   one. *)
let test_sorted_entries_no_forced_minor () =
  List.iter
    (fun structure ->
      Gc.minor ();
      let mt =
        Memtable.create ~structure ~capacity_items:1000 ~capacity_bytes:(1 lsl 30)
      in
      for i = 0 to 999 do
        ignore (Memtable.try_add mt (ik (Printf.sprintf "k%04d" (i * 7919 mod 1000)) (i + 1)) "v")
      done;
      let before = (Gc.quick_stat ()).Gc.minor_collections in
      let entries = Memtable.sorted_entries mt in
      let after = (Gc.quick_stat ()).Gc.minor_collections in
      Alcotest.(check int) "entries" 1000 (Array.length entries);
      Alcotest.(check int) "minor collections while sorting" 0 (after - before))
    [ Memtable.Hash; Memtable.Sorted ]

let suite =
  [
    Alcotest.test_case "sorted entries force no minor GC" `Quick
      test_sorted_entries_no_forced_minor;
    Alcotest.test_case "skiplist basic" `Quick test_skiplist_basic;
    Alcotest.test_case "skiplist versions" `Quick
      test_skiplist_versions_and_snapshots;
    Alcotest.test_case "skiplist sorted" `Quick test_skiplist_sorted_iteration;
    Alcotest.test_case "skiplist range" `Quick test_skiplist_range;
    Alcotest.test_case "hash basic" `Quick test_hash_basic;
    Alcotest.test_case "hash newest wins" `Quick test_hash_newest_wins;
    Alcotest.test_case "hash capacity" `Quick test_hash_capacity_full;
    Alcotest.test_case "hash overflow freeze" `Quick
      test_hash_entry_overflow_freezes;
    Alcotest.test_case "hash sorted entries" `Quick test_hash_sorted_entries;
    Alcotest.test_case "memtable model (hash)" `Quick test_memtable_model_hash;
    Alcotest.test_case "memtable model (sorted)" `Quick
      test_memtable_model_sorted;
    Alcotest.test_case "memtable min_seq" `Quick test_memtable_min_seq;
    Alcotest.test_case "memtable byte capacity" `Quick
      test_memtable_capacity_bytes;
    Alcotest.test_case "memtable range tombstones" `Quick
      test_memtable_range_includes_tombstones;
    QCheck_alcotest.to_alcotest qcheck_hash_vs_skiplist;
  ]
