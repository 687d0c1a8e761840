module Ikey = Wip_util.Ikey

type structure = Hash | Sorted

type impl = I_hash of Hash_memtable.t | I_sorted of Skiplist.t

type t = {
  impl : impl;
  capacity_items : int;
  capacity_bytes : int;
  mutable min_seq : int64 option;
}

let create ~structure ~capacity_items ~capacity_bytes =
  let impl =
    match structure with
    | Hash -> I_hash (Hash_memtable.create ~capacity_items)
    | Sorted -> I_sorted (Skiplist.create ())
  in
  { impl; capacity_items; capacity_bytes; min_seq = None }

let structure t = match t.impl with I_hash _ -> Hash | I_sorted _ -> Sorted

let count t =
  match t.impl with
  | I_hash h -> Hash_memtable.count h
  | I_sorted s -> Skiplist.count s

let byte_size t =
  match t.impl with
  | I_hash h -> Hash_memtable.byte_size h
  | I_sorted s -> Skiplist.byte_size s

let note_seq t seq =
  match t.min_seq with
  | None -> t.min_seq <- Some seq
  | Some m -> if Int64.compare seq m < 0 then t.min_seq <- Some seq

let try_add t ikey value =
  if count t >= t.capacity_items || byte_size t >= t.capacity_bytes then false
  else
    match t.impl with
    | I_hash h ->
      let ok = Hash_memtable.try_add h ikey value in
      if ok then note_seq t ikey.Ikey.seq;
      ok
    | I_sorted s ->
      Skiplist.add s ikey value;
      note_seq t ikey.Ikey.seq;
      true

let find t user_key ~snapshot =
  match t.impl with
  | I_hash h -> Hash_memtable.find h user_key ~snapshot
  | I_sorted s -> Skiplist.find s user_key ~snapshot

let find_with_seq t user_key ~snapshot =
  match t.impl with
  | I_hash h -> Hash_memtable.find_with_seq h user_key ~snapshot
  | I_sorted s -> Skiplist.find_with_seq s user_key ~snapshot

let sorted_entries t =
  match t.impl with
  | I_hash h -> Hash_memtable.to_sorted_entries h
  | I_sorted s ->
    (* Filled in place from a long-lived filler: [Array.of_seq] would start
       from a young one (see [Hash_memtable.no_entry]). *)
    let entries = Array.make (Skiplist.count s) Hash_memtable.no_entry in
    Seq.iteri (fun i e -> entries.(i) <- e) (Skiplist.to_sorted_seq s);
    entries

let range t ~lo ~hi ~snapshot =
  let entries = sorted_entries t in
  let acc = ref [] in
  let last_key = ref None in
  Array.iter
    (fun ((k : Ikey.t), v) ->
      if
        Ikey.compare_user k.Ikey.user_key lo >= 0
        && Ikey.compare_user k.Ikey.user_key hi < 0
        && Int64.compare k.Ikey.seq snapshot <= 0
        && not
             (match !last_key with
             | Some prev -> String.equal prev k.Ikey.user_key
             | None -> false)
      then begin
        last_key := Some k.Ikey.user_key;
        acc := (k.Ikey.user_key, (k.Ikey.kind, v, k.Ikey.seq)) :: !acc
      end)
    entries;
  List.rev !acc

let probes t =
  match t.impl with
  | I_hash h -> Hash_memtable.probes h
  | I_sorted s -> Skiplist.probes s

let is_empty t = count t = 0

let min_seq t = t.min_seq
