(* Tests for the sharded concurrent front: key routing, cross-shard batches
   and scans, the parallel compaction pool, and a writer/reader stress run
   that doubles as the torn-value check for the shared statistics and the
   block cache counters. *)

module Sh = Wip_concurrent.Sharded_store.Make (Wipdb.Store)
module Shard_layout = Wip_concurrent.Shard_layout
module Config = Wipdb.Config
module Env = Wip_storage.Env
module Block_cache = Wip_storage.Block_cache
module Histogram = Wip_stats.Histogram
module Throughput = Wip_stats.Throughput
module Sync = Wip_util.Sync
module M = Map.Make (String)

(* The engine-call test reads [Sync.held_count] and relies on the rank
   validator to reject any shard lock taken under the last shard's. *)
let () = Sync.set_debug true

let base_config =
  {
    Config.default with
    Config.memtable_items = 64;
    memtable_bytes = 8 * 1024;
    t_sublevels = 4;
    min_count = 2;
    max_count = 8;
    (* Leave eligible compactions entirely to the background pool. *)
    compaction_budget_per_batch = 0;
    name = "shard";
  }

(* Spread [i] of [count] uniformly across the engine key space so keys
   actually land on different shards (shard boundaries live at fractions of
   [initial_key_space], formatted "%016Ld"). *)
let key_of ~count i =
  Printf.sprintf "%016Ld"
    Int64.(
      div
        (mul (of_int i) base_config.Config.initial_key_space)
        (of_int count))

let mk_store ?(shards = 4) ?(pool_threads = 2) () =
  let bounds = Config.shard_boundaries base_config ~shards in
  let stores =
    List.mapi
      (fun i lo ->
        let cfg = { base_config with Config.name = Printf.sprintf "shard-%d" i } in
        (lo, Wipdb.Store.create cfg))
      bounds
  in
  Sh.create ~pool_threads ~idle_sleep:0.0005 stores

let test_routing_and_shape () =
  let c = mk_store ~shards:4 () in
  Alcotest.(check int) "shard count" 4 (Sh.shard_count c);
  Alcotest.(check int) "pool size" 2 (Sh.pool_size c);
  let n = 400 in
  for i = 0 to n - 1 do
    Sh.put c ~key:(key_of ~count:n i) ~value:(string_of_int i)
  done;
  for i = 0 to n - 1 do
    Alcotest.(check (option string))
      (Printf.sprintf "key %d" i)
      (Some (string_of_int i))
      (Sh.get c (key_of ~count:n i))
  done;
  (* Every shard saw a share of the traffic. *)
  let populated =
    Sh.fold_shards c ~init:0 ~f:(fun acc s ->
        if Wipdb.Store.sequence s > 0L then acc + 1 else acc)
  in
  Alcotest.(check int) "all shards populated" 4 populated;
  Sh.stop c

let test_invalid_partitions () =
  let mk bounds =
    Sh.create ~pool_threads:0
      (List.map (fun lo -> (lo, Wipdb.Store.create base_config)) bounds)
  in
  Alcotest.check_raises "empty" (Invalid_argument
    "Sharded_store.create: at least one shard") (fun () -> ignore (mk []));
  (match mk [ "a"; "b" ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "first bound must be \"\"");
  match mk [ ""; "m"; "m" ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bounds must be strictly increasing"

let test_cross_shard_write_batch () =
  let c = mk_store ~shards:4 () in
  let n = 40 in
  (* One batch spanning every shard, including a delete of a key written by
     the same batch's predecessor. *)
  Sh.put c ~key:(key_of ~count:n 1) ~value:"doomed";
  let batch =
    List.init n (fun i -> (Wip_util.Ikey.Value, key_of ~count:n i, "b" ^ string_of_int i))
    @ [ (Wip_util.Ikey.Deletion, key_of ~count:n 1, "") ]
  in
  Sh.write_batch c batch;
  Alcotest.(check (option string)) "deleted" None (Sh.get c (key_of ~count:n 1));
  for i = 0 to n - 1 do
    if i <> 1 then
      Alcotest.(check (option string))
        (Printf.sprintf "batch key %d" i)
        (Some ("b" ^ string_of_int i))
        (Sh.get c (key_of ~count:n i))
  done;
  Sh.flush c;
  Alcotest.(check (option string)) "still deleted after flush" None
    (Sh.get c (key_of ~count:n 1));
  Sh.stop c

let test_scan_across_shards () =
  let c = mk_store ~shards:4 () in
  let n = 200 in
  for i = 0 to n - 1 do
    Sh.put c ~key:(key_of ~count:n i) ~value:(string_of_int i)
  done;
  (* Range spanning all four shards. *)
  let lo = key_of ~count:n 10 and hi = key_of ~count:n 190 in
  let r = Sh.scan c ~lo ~hi () in
  Alcotest.(check int) "span size" 180 (List.length r);
  let rec ordered = function
    | (a, _) :: ((b, _) :: _ as rest) ->
      if String.compare a b >= 0 then Alcotest.fail "scan out of order";
      ordered rest
    | _ -> ()
  in
  ordered r;
  Alcotest.(check string) "first" (string_of_int 10) (snd (List.hd r));
  (* Limit cuts across the shard walk, not per shard. *)
  let limited = Sh.scan c ~lo ~hi ~limit:7 () in
  Alcotest.(check int) "limit" 7 (List.length limited);
  Alcotest.(check (list string)) "limited prefix"
    (List.filteri (fun i _ -> i < 7) (List.map snd r))
    (List.map snd limited);
  (* Empty and inverted ranges. *)
  Alcotest.(check int) "inverted" 0 (List.length (Sh.scan c ~lo:hi ~hi:lo ()));
  Sh.stop c

(* ---------------------------------------------------------------- *)
(* The ordered shard walk behind [scan] and [scan_at]. *)

(* Four hand-placed shards; shard 2 ([d, f)) never receives a key. *)
let walk_bounds = [ ""; "b"; "d"; "f" ]

let walk_stores () =
  List.mapi
    (fun i lo ->
      let cfg = { base_config with Config.name = Printf.sprintf "walk-%d" i } in
      (lo, Wipdb.Store.create cfg))
    walk_bounds

(* Above every key the walk tests write. *)
let top = String.make 40 '\xff'

(* Keys for shards 0, 1 and 3, including 17+ byte all-[\xff] keys. *)
let walk_key rng =
  match Random.State.int rng 6 with
  | 0 -> String.make (17 + Random.State.int rng 6) '\xff'
  | 1 -> String.make 17 '\xff' ^ String.make 1 (Char.chr (Random.State.int rng 256))
  | k ->
    [| "a"; "b"; "c"; "g" |].(k - 2) ^ string_of_int (Random.State.int rng 60)

let model_scan m ~lo ~hi ~limit =
  if String.compare lo hi >= 0 then []
  else
    let s =
      Seq.take_while (fun (k, _) -> String.compare k hi < 0) (M.to_seq_from lo m)
    in
    List.of_seq (match limit with Some l -> Seq.take (max 0 l) s | None -> s)

(* The limit that takes exactly what [lo]'s shard holds of [\[lo, hi)]. *)
let exhausting m ~lo ~hi =
  let upper =
    match List.find_opt (fun b -> String.compare b lo > 0) walk_bounds with
    | Some b when String.compare b hi < 0 -> b
    | _ -> hi
  in
  Some (List.length (model_scan m ~lo ~hi:upper ~limit:None))

let populate c m rng n =
  for i = 1 to n do
    let key = walk_key rng in
    if Random.State.int rng 5 = 0 then begin
      Sh.delete c ~key;
      m := M.remove key !m
    end
    else begin
      let value = Printf.sprintf "%s@%d" key i in
      Sh.put c ~key ~value;
      m := M.add key value !m
    end
  done

let test_walk_matches_model () =
  let c = Sh.create ~pool_threads:0 (walk_stores ()) in
  let rng = Random.State.make [| 12 |] in
  let m = ref M.empty in
  populate c m rng 300;
  Sh.flush c;
  populate c m rng 300;
  let snap = Sh.snapshot c in
  let pinned = !m in
  populate c m rng 300;
  let check ~lo ~hi limit =
    let name what limit =
      Printf.sprintf "%s [%S, %S) limit %s" what lo hi
        (Option.fold ~none:"none" ~some:string_of_int limit)
    in
    let pairs = Alcotest.(list (pair string string)) in
    let now = limit !m and then_ = limit pinned in
    Alcotest.check pairs (name "scan" now)
      (model_scan !m ~lo ~hi ~limit:now)
      (Sh.scan c ~lo ~hi ?limit:now ());
    Alcotest.check pairs (name "scan_at" then_)
      (model_scan pinned ~lo ~hi ~limit:then_)
      (Sh.scan_at c ~lo ~hi ?limit:then_ ~snapshot:snap ())
  in
  let fixed l _ = l in
  let ff17 = String.make 17 '\xff' in
  check ~lo:"" ~hi:top (fixed None);
  check ~lo:"" ~hi:top (fixed (Some 0));
  check ~lo:"" ~hi:top (fixed (Some (-3)));
  check ~lo:"" ~hi:"b" (fixed None);
  check ~lo:"" ~hi:"d" (fixed None);
  check ~lo:"c" ~hi:"f" (fixed None);
  check ~lo:"b" ~hi:top (fixed None);
  check ~lo:"c" ~hi:"g" (fixed (Some 1000));
  check ~lo:ff17 ~hi:top (fixed None);
  check ~lo:ff17 ~hi:(ff17 ^ "\xff") (fixed (Some 2));
  check ~lo:"a" ~hi:"a" (fixed None);
  check ~lo:"g" ~hi:"b" (fixed None);
  check ~lo:"" ~hi:top (exhausting ~lo:"" ~hi:top);
  check ~lo:"b" ~hi:top (exhausting ~lo:"b" ~hi:top);
  check ~lo:"a3" ~hi:"c5" (exhausting ~lo:"a3" ~hi:"c5");
  let bound () =
    match Random.State.int rng 5 with
    | 0 -> List.nth walk_bounds (Random.State.int rng 4)
    | 1 -> top
    | 2 -> String.make (16 + Random.State.int rng 4) '\xff'
    | _ -> walk_key rng
  in
  for _ = 1 to 500 do
    let lo = bound () and hi = bound () in
    let limit =
      match Random.State.int rng 5 with
      | 0 -> fixed None
      | 1 -> fixed (Some 0)
      | 2 -> exhausting ~lo ~hi
      | _ -> fixed (Some (1 + Random.State.int rng 40))
    in
    check ~lo ~hi limit
  done;
  Alcotest.(check bool) "shard 2 stayed empty" true
    (Sh.scan c ~lo:"d" ~hi:"f" () = []);
  Sh.release c snap;
  Sh.stop c

(* Records every engine scan: entry point, requested limit, and how many
   locks the calling thread held during the read. *)
module Counting = struct
  include Wipdb.Store

  let calls = ref []

  let scan t ~lo ~hi ?limit () =
    calls := ("scan", limit, Sync.held_count ()) :: !calls;
    Wipdb.Store.scan t ~lo ~hi ?limit ()

  let scan_at t ~lo ~hi ?limit ~snapshot () =
    calls := ("scan_at", limit, Sync.held_count ()) :: !calls;
    Wipdb.Store.scan_at t ~lo ~hi ?limit ~snapshot ()
end

module Csh = Wip_concurrent.Sharded_store.Make (Counting)

let test_walk_engine_calls () =
  let c = Csh.create ~pool_threads:0 (walk_stores ()) in
  List.iter
    (fun k -> Csh.put c ~key:k ~value:k)
    [ "a1"; "a2"; "a3"; "c1"; "g1" ];
  let snap = Csh.snapshot c in
  let taken () =
    let r = List.rev !Counting.calls in
    Counting.calls := [];
    r
  in
  Counting.calls := [];
  let pairs = Alcotest.(list (pair string string)) in
  let calls = Alcotest.(list (triple string (option int) int)) in
  let kv ks = List.map (fun k -> (k, k)) ks in
  Alcotest.check pairs "first shard suffices" (kv [ "a1"; "a2" ])
    (Csh.scan c ~lo:"a" ~hi:top ~limit:2 ());
  Alcotest.check calls "one engine call under one lock"
    [ ("scan", Some 2, 1) ] (taken ());
  Alcotest.check pairs "scan_at, first shard suffices" (kv [ "a1"; "a2" ])
    (Csh.scan_at c ~lo:"a" ~hi:top ~limit:2 ~snapshot:snap ());
  Alcotest.check calls "scan_at: one engine call"
    [ ("scan_at", Some 2, 1) ] (taken ());
  Alcotest.check pairs "spill into the next shard" (kv [ "a2"; "a3"; "c1" ])
    (Csh.scan c ~lo:"a2" ~hi:top ~limit:3 ());
  Alcotest.check calls "each shard asked for what is missing, locks held"
    [ ("scan", Some 3, 1); ("scan", Some 1, 2) ] (taken ());
  Alcotest.check pairs "scan_at spill" (kv [ "a2"; "a3"; "c1" ])
    (Csh.scan_at c ~lo:"a2" ~hi:top ~limit:3 ~snapshot:snap ());
  Alcotest.check calls "scan_at locks one shard at a time"
    [ ("scan_at", Some 3, 1); ("scan_at", Some 1, 1) ] (taken ());
  Alcotest.check pairs "across the empty shard" (kv [ "c1"; "g1" ])
    (Csh.scan c ~lo:"c" ~hi:top ());
  Alcotest.check calls "shards 1, 2 and 3 visited"
    [ ("scan", None, 1); ("scan", None, 2); ("scan", None, 3) ] (taken ());
  Alcotest.check pairs "hi at a shard's lower bound"
    (kv [ "a1"; "a2"; "a3"; "c1" ])
    (Csh.scan c ~lo:"a" ~hi:"d" ());
  Alcotest.check calls "the shard starting at hi is not visited"
    [ ("scan", None, 1); ("scan", None, 2) ] (taken ());
  (* Under the last shard's lock, taking any shard lock would violate the
     ascending rank order and raise. *)
  let violations = Sync.violation_count () in
  Csh.with_shard c ~key:top (fun _ ->
      Alcotest.check pairs "limit 0" [] (Csh.scan c ~lo:"" ~hi:top ~limit:0 ());
      Alcotest.check pairs "negative limit" []
        (Csh.scan c ~lo:"" ~hi:top ~limit:(-1) ());
      Alcotest.check pairs "lo = hi" [] (Csh.scan c ~lo:"c" ~hi:"c" ());
      Alcotest.check pairs "lo > hi" [] (Csh.scan c ~lo:"g" ~hi:"a" ());
      Alcotest.check pairs "scan_at limit 0" []
        (Csh.scan_at c ~lo:"" ~hi:top ~limit:0 ~snapshot:snap ());
      Alcotest.check pairs "scan_at lo > hi" []
        (Csh.scan_at c ~lo:"g" ~hi:"a" ~snapshot:snap ()));
  Alcotest.check calls "no engine call" [] (taken ());
  Alcotest.(check int) "no shard lock taken" violations (Sync.violation_count ());
  Csh.release c snap;
  Csh.stop c

(* A writer commits cross-shard batches that give one key in shard 0 and one
   in shard 3 the same version; scanners, limited and not, must never see
   the two keys at different versions. *)
let test_scan_consistent_cut () =
  let stores = walk_stores () in
  let c = Sh.create ~pool_threads:2 ~idle_sleep:0.0005 stores in
  let ka = "a" and kb = "g" in
  (* Filler in shard 1; shard 2 stays empty, so the walk crosses it. *)
  Sh.put c ~key:"c" ~value:"filler";
  Alcotest.(check bool) "keys in shards 0 and 3" true
    (Sh.with_shard c ~key:ka (fun s -> s == snd (List.nth stores 0))
    && Sh.with_shard c ~key:kb (fun s -> s == snd (List.nth stores 3)));
  let rounds = 2000 in
  let done_ = Atomic.make false in
  let torn = Atomic.make 0 and seen = Atomic.make 0 in
  let writer () =
    for v = 1 to rounds do
      let value = Printf.sprintf "%06d" v in
      let batch =
        [ (Wip_util.Ikey.Value, ka, value); (Wip_util.Ikey.Value, kb, value) ]
      in
      if v mod 2 = 0 then Sh.write_batch c batch
      else
        match Sh.commit_batches c [| batch |] with
        | [| Ok () |] -> ()
        | _ -> Alcotest.fail "commit refused"
    done;
    Atomic.set done_ true
  in
  let scanner seed () =
    let rng = Random.State.make [| seed |] in
    while not (Atomic.get done_) do
      let r =
        if Random.State.bool rng then Sh.scan c ~lo:"" ~hi:top ()
        else Sh.scan c ~lo:ka ~hi:top ~limit:(1 + Random.State.int rng 4) ()
      in
      match (List.assoc_opt ka r, List.assoc_opt kb r) with
      | Some va, Some vb ->
        Atomic.incr seen;
        if va <> vb then Atomic.incr torn
      | _ -> ()
    done
  in
  let ds = Domain.spawn writer :: List.init 2 (fun i -> Domain.spawn (scanner i)) in
  List.iter Domain.join ds;
  Sh.stop c;
  Alcotest.(check int) "no torn cross-shard batch" 0 (Atomic.get torn);
  Alcotest.(check bool) "scans saw both keys" true (Atomic.get seen > 0)

(* ---------------------------------------------------------------- *)
(* The recorded shard count guards a directory against reopening with a
   different layout. *)

let test_shard_layout_guard () =
  let root = Filename.temp_file "wipdb-layout" "" in
  Sys.remove root;
  let claim ?(name = "db") shards =
    (* A fresh Env per call: each claim is a process restart. *)
    Shard_layout.claim (Env.posix ~root) ~name ~shards
  in
  let result = Alcotest.(result unit string) in
  Alcotest.check result "first open records" (Ok ()) (claim 4);
  Alcotest.check result "same count reopens" (Ok ()) (claim 4);
  (match claim 2 with
  | Error msg ->
    Alcotest.(check bool)
      ("refusal names both counts: " ^ msg)
      true
      (Test_sync.contains msg "4 shards" && Test_sync.contains msg "not 2")
  | Ok () -> Alcotest.fail "a different shard count was accepted");
  Alcotest.check result "the record survives a refusal" (Ok ()) (claim 4);
  (match claim ~name:"zero" 0 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "0 shards accepted");
  let env = Env.posix ~root in
  Alcotest.(check bool) "nothing recorded for a refused count" false
    (Env.exists env "zero.shards");
  let w = Env.create_file env "bad.shards" in
  Env.append w ~category:Manifest "four\n";
  Env.close_writer w;
  (match claim ~name:"bad" 4 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "an unreadable record was accepted");
  Alcotest.(check (list string)) "only the records remain"
    [ "bad.shards"; "db.shards" ] (Env.list_files env);
  List.iter (Env.delete env) (Env.list_files env);
  Unix.rmdir root

let test_pool_compacts_in_background () =
  let c = mk_store ~shards:4 ~pool_threads:3 () in
  let n = 3000 in
  for i = 0 to (3 * n) - 1 do
    Sh.put c ~key:(key_of ~count:n (i mod n)) ~value:("v" ^ string_of_int i)
  done;
  Sh.stop c;
  let compactions =
    Sh.fold_shards c ~init:0 ~f:(fun acc s -> acc + Wipdb.Store.compaction_count s)
  in
  Alcotest.(check bool)
    (Printf.sprintf "compactions ran (%d over %d pool cycles)" compactions
       (Sh.compaction_cycles c))
    true (compactions > 0);
  Alcotest.(check int) "drained" 0 (Sh.maintenance_pending c);
  for i = 0 to n - 1 do
    if Sh.get c (key_of ~count:n i) = None then Alcotest.failf "lost key %d" i
  done

(* The ISSUE's stress shape: N writer domains + M reader domains over
   disjoint and overlapping ranges. Every read must return a
   previously-written value or None — never a torn value. *)
let test_stress_writers_readers () =
  let c = mk_store ~shards:4 ~pool_threads:2 () in
  let writers = 4 and readers = 4 in
  let per_writer = 600 in
  let disjoint = writers * per_writer in
  (* Overlap range: a band of keys every writer fights over. *)
  let overlap = 64 in
  let overlap_key j = "ovl:" ^ Printf.sprintf "%04d" j in
  let failures = Atomic.make 0 in
  let writer w () =
    for i = 0 to per_writer - 1 do
      let idx = (w * per_writer) + i in
      let k = key_of ~count:disjoint idx in
      Sh.put c ~key:k ~value:(Printf.sprintf "w%d:%s" w k);
      if i mod 7 = 0 then begin
        let j = (idx * 13) mod overlap in
        Sh.put c ~key:(overlap_key j)
          ~value:(Printf.sprintf "%s#%d" (overlap_key j) w)
      end
    done
  in
  let reader _ () =
    for _ = 0 to (2 * disjoint) - 1 do
      let idx = Random.int disjoint in
      let k = key_of ~count:disjoint idx in
      (match Sh.get c k with
      | None -> ()
      | Some v ->
        (* The only writer of this key is its range owner: the value is
           either absent or exactly what that writer put. *)
        let w = idx / per_writer in
        if v <> Printf.sprintf "w%d:%s" w k then Atomic.incr failures);
      let j = Random.int overlap in
      (match Sh.get c (overlap_key j) with
      | None -> ()
      | Some v ->
        (* Contended key: any writer may own it, but the value must be a
           well-formed write, never an interleaving of two. *)
        let prefix = overlap_key j ^ "#" in
        let plen = String.length prefix in
        if
          String.length v <= plen
          || String.sub v 0 plen <> prefix
          || int_of_string_opt (String.sub v plen (String.length v - plen))
             = None
        then Atomic.incr failures)
    done
  in
  let ds =
    List.init writers (fun w -> Domain.spawn (writer w))
    @ List.init readers (fun r -> Domain.spawn (reader r))
  in
  List.iter Domain.join ds;
  Sh.stop c;
  Alcotest.(check int) "no torn values" 0 (Atomic.get failures);
  for idx = 0 to disjoint - 1 do
    let k = key_of ~count:disjoint idx in
    let w = idx / per_writer in
    Alcotest.(check (option string))
      (Printf.sprintf "final key %d" idx)
      (Some (Printf.sprintf "w%d:%s" w k))
      (Sh.get c k)
  done

let test_block_cache_counters_under_contention () =
  let cache = Block_cache.create ~capacity_bytes:(64 * 1024) in
  let domains = 4 and per_domain = 20_000 in
  let ds =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to per_domain - 1 do
              let file = Printf.sprintf "f%d" (i mod 8) in
              let offset = (d + i) mod 32 in
              (match Block_cache.find cache ~file ~offset with
              | Some _ -> ()
              | None -> Block_cache.add cache ~file ~offset "0123456789abcdef");
              ignore (Block_cache.used_bytes cache)
            done))
  in
  List.iter Domain.join ds;
  (* Exactly one counter bumps per lookup — lost updates would break this. *)
  let cc = Block_cache.counters cache in
  Alcotest.(check int) "hits + misses = lookups" (domains * per_domain)
    (cc.Block_cache.c_hits + cc.Block_cache.c_misses)

let test_stats_under_contention () =
  let h = Histogram.create () in
  let tp = Throughput.create ~window:100 in
  let domains = 4 and per_domain = 25_000 in
  let ds =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            let local = Histogram.create () in
            for i = 1 to per_domain do
              Histogram.add h (float_of_int (i mod 1000));
              Histogram.add local (float_of_int ((d * per_domain) + i));
              Throughput.tick tp ()
            done;
            Histogram.merge h local))
  in
  List.iter Domain.join ds;
  Alcotest.(check int) "histogram count (direct + merged)"
    (2 * domains * per_domain) (Histogram.count h);
  Alcotest.(check int) "throughput total" (domains * per_domain)
    (Throughput.total_ops tp);
  let s = Throughput.series tp in
  Alcotest.(check int) "series reaches total" (domains * per_domain)
    (fst (List.nth s (List.length s - 1)))

let suite =
  [
    Alcotest.test_case "routing and shape" `Quick test_routing_and_shape;
    Alcotest.test_case "invalid partitions" `Quick test_invalid_partitions;
    Alcotest.test_case "cross-shard write_batch" `Quick
      test_cross_shard_write_batch;
    Alcotest.test_case "scan across shards" `Quick test_scan_across_shards;
    Alcotest.test_case "walk matches model" `Quick test_walk_matches_model;
    Alcotest.test_case "walk engine calls" `Quick test_walk_engine_calls;
    Alcotest.test_case "scan consistent cut" `Slow test_scan_consistent_cut;
    Alcotest.test_case "shard layout guard" `Quick test_shard_layout_guard;
    Alcotest.test_case "pool compacts in background" `Quick
      test_pool_compacts_in_background;
    Alcotest.test_case "stress writers+readers" `Slow
      test_stress_writers_readers;
    Alcotest.test_case "block cache counters" `Slow
      test_block_cache_counters_under_contention;
    Alcotest.test_case "stats under contention" `Slow
      test_stats_under_contention;
  ]
