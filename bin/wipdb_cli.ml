(* wipdb_cli: an interactive/administrative front end for a WipDB store on
   a real filesystem directory. Subcommands mirror the public API:

     wipdb_cli put    --db /tmp/db key value
     wipdb_cli get    --db /tmp/db key
     wipdb_cli delete --db /tmp/db key
     wipdb_cli scan   --db /tmp/db --lo a --hi z [--limit N]
     wipdb_cli load   --db /tmp/db --ops 100000 [--dist uniform|zipfian|...]
     wipdb_cli stats  --db /tmp/db
     wipdb_cli compact --db /tmp/db

   plus the service layer: `serve` exposes a sharded store over the
   binary wire protocol, and `client` speaks it from the command line:

     wipdb_cli serve  --db /tmp/db --addr 127.0.0.1 --port 7070 --shards 4
     wipdb_cli client get   --port 7070 key
     wipdb_cli client put   --port 7070 key value
     wipdb_cli client bench --port 7070 --ops 100000 *)

open Cmdliner

let open_store dir =
  let env = Wip_storage.Env.posix ~root:dir in
  let cfg = { Wipdb.Config.default with Wipdb.Config.name = "wipdb" } in
  (env, Wipdb.Store.recover ~env cfg)

let db_arg =
  let doc = "Store directory (created on first use)." in
  Arg.(required & opt (some string) None & info [ "db" ] ~docv:"DIR" ~doc)

let finish db =
  Wipdb.Store.checkpoint db;
  `Ok ()

let put_cmd =
  let run dir key value =
    let _, db = open_store dir in
    Wipdb.Store.put db ~key ~value;
    finish db
  in
  let key = Arg.(required & pos 0 (some string) None & info [] ~docv:"KEY") in
  let value = Arg.(required & pos 1 (some string) None & info [] ~docv:"VALUE") in
  Cmd.v (Cmd.info "put" ~doc:"Insert or update one key")
    Term.(ret (const run $ db_arg $ key $ value))

let get_cmd =
  let run dir key =
    let _, db = open_store dir in
    (match Wipdb.Store.get db key with
    | Some v -> print_endline v
    | None ->
      prerr_endline "(not found)";
      exit 1);
    `Ok ()
  in
  let key = Arg.(required & pos 0 (some string) None & info [] ~docv:"KEY") in
  Cmd.v (Cmd.info "get" ~doc:"Look up one key")
    Term.(ret (const run $ db_arg $ key))

let delete_cmd =
  let run dir key =
    let _, db = open_store dir in
    Wipdb.Store.delete db ~key;
    finish db
  in
  let key = Arg.(required & pos 0 (some string) None & info [] ~docv:"KEY") in
  Cmd.v (Cmd.info "delete" ~doc:"Delete one key")
    Term.(ret (const run $ db_arg $ key))

let scan_cmd =
  let run dir lo hi limit =
    let _, db = open_store dir in
    List.iter
      (fun (k, v) -> Printf.printf "%s\t%s\n" k v)
      (Wipdb.Store.scan db ~lo ~hi ~limit ());
    `Ok ()
  in
  let lo = Arg.(value & opt string "" & info [ "lo" ] ~docv:"KEY") in
  let hi = Arg.(value & opt string "\255" & info [ "hi" ] ~docv:"KEY") in
  let limit = Arg.(value & opt int 100 & info [ "limit" ] ~docv:"N") in
  Cmd.v (Cmd.info "scan" ~doc:"Range scan [lo, hi)")
    Term.(ret (const run $ db_arg $ lo $ hi $ limit))

let dist_conv =
  let parse = function
    | "uniform" -> Ok Wip_workload.Distribution.Uniform
    | "zipfian" ->
      Ok (Wip_workload.Distribution.Zipfian { theta = 0.99; scrambled = true })
    | "exponential" -> Ok (Wip_workload.Distribution.Exponential { rate = 10.0 })
    | "normal" ->
      Ok (Wip_workload.Distribution.Normal { mean_frac = 0.5; stddev_frac = 0.125 })
    | "sequential" -> Ok Wip_workload.Distribution.Sequential
    | s -> Error (`Msg ("unknown distribution: " ^ s))
  in
  Arg.conv (parse, fun fmt d ->
      Format.pp_print_string fmt (Wip_workload.Distribution.shape_name d))

let load_cmd =
  let run dir ops shape value_size =
    let _, db = open_store dir in
    let dist =
      Wip_workload.Distribution.make shape ~space:1_000_000_000L ~seed:42L
    in
    let rng = Wip_util.Rng.create ~seed:7L in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to ops do
      let key = Wip_workload.Key_codec.encode (Wip_workload.Distribution.next dist) in
      Wipdb.Store.put db ~key
        ~value:(Bytes.to_string (Wip_util.Rng.bytes rng value_size))
    done;
    let dt = Unix.gettimeofday () -. t0 in
    Printf.printf "loaded %d items in %.2f s (%.0f ops/s)\n" ops dt
      (float_of_int ops /. dt);
    finish db
  in
  let ops = Arg.(value & opt int 100_000 & info [ "ops" ] ~docv:"N") in
  let dist =
    Arg.(value & opt dist_conv Wip_workload.Distribution.Uniform
         & info [ "dist" ] ~docv:"DIST")
  in
  let vsize = Arg.(value & opt int 100 & info [ "value-size" ] ~docv:"BYTES") in
  Cmd.v (Cmd.info "load" ~doc:"Bulk-load synthetic data")
    Term.(ret (const run $ db_arg $ ops $ dist $ vsize))

let stats_cmd =
  let run dir =
    let env, db = open_store dir in
    let stats = Wip_storage.Env.stats env in
    Printf.printf "buckets:       %d\n" (Wipdb.Store.bucket_count db);
    Printf.printf "splits:        %d\n" (Wipdb.Store.split_count db);
    Printf.printf "compactions:   %d\n" (Wipdb.Store.compaction_count db);
    Printf.printf "sequence:      %Ld\n" (Wipdb.Store.sequence db);
    Printf.printf "wal bytes:     %d\n" (Wipdb.Store.wal_bytes db);
    Printf.printf "files:         %d\n" (List.length (Wipdb.Store.file_sizes db));
    Printf.printf "live bytes:    %d\n" (Wip_storage.Env.total_live_bytes env);
    Printf.printf "session WA:    %.2f\n"
      (Wip_storage.Io_stats.write_amplification stats);
    List.iteri
      (fun i (info : Wipdb.Store.bucket_info) ->
        if i < 20 then
          Printf.printf "  bucket %3d lo=%-18s mem=%-5d sublevels=%s bytes=%d\n" i
            (if info.Wipdb.Store.lo = "" then "(min)" else info.Wipdb.Store.lo)
            info.Wipdb.Store.memtable_items
            (String.concat "/"
               (List.map string_of_int info.Wipdb.Store.sublevels_per_level))
            info.Wipdb.Store.bytes)
      (Wipdb.Store.bucket_infos db);
    `Ok ()
  in
  Cmd.v (Cmd.info "stats" ~doc:"Show store statistics")
    Term.(ret (const run $ db_arg))

let compact_cmd =
  let run dir =
    let _, db = open_store dir in
    Wipdb.Store.flush db;
    Wipdb.Store.maintenance db ();
    finish db
  in
  Cmd.v (Cmd.info "compact" ~doc:"Flush memtables and run all compactions")
    Term.(ret (const run $ db_arg))

(* db_bench-style micro-benchmark suite over a fresh in-memory store. *)
let bench_cmd =
  let run ops value_size names =
    let fresh () =
      Wipdb.Store.create
        { Wipdb.Config.default with Wipdb.Config.name = "bench" }
    in
    let rng = Wip_util.Rng.create ~seed:0xD8L in
    let value () = Bytes.to_string (Wip_util.Rng.bytes rng value_size) in
    let rand_key () =
      Wip_workload.Key_codec.encode (Wip_util.Rng.int64 rng 1_000_000_000L)
    in
    let timed name f =
      let t0 = Unix.gettimeofday () in
      f ();
      let dt = Unix.gettimeofday () -. t0 in
      Printf.printf "%-14s %10d ops in %7.3f s  = %9.0f ops/s\n%!" name ops dt
        (float_of_int ops /. dt)
    in
    let preloaded = lazy (
      let db = fresh () in
      for i = 0 to ops - 1 do
        Wipdb.Store.put db ~key:(Wip_workload.Key_codec.encode (Int64.of_int i))
          ~value:(value ())
      done;
      Wipdb.Store.flush db;
      Wipdb.Store.maintenance db ();
      db)
    in
    let run_one = function
      | "fillseq" ->
        let db = fresh () in
        timed "fillseq" (fun () ->
            for i = 0 to ops - 1 do
              Wipdb.Store.put db
                ~key:(Wip_workload.Key_codec.encode (Int64.of_int i))
                ~value:(value ())
            done)
      | "fillrandom" ->
        let db = fresh () in
        timed "fillrandom" (fun () ->
            for _ = 0 to ops - 1 do
              Wipdb.Store.put db ~key:(rand_key ()) ~value:(value ())
            done)
      | "overwrite" ->
        let db = Lazy.force preloaded in
        timed "overwrite" (fun () ->
            for _ = 0 to ops - 1 do
              Wipdb.Store.put db
                ~key:(Wip_workload.Key_codec.encode
                        (Wip_util.Rng.int64 rng (Int64.of_int ops)))
                ~value:(value ())
            done)
      | "readrandom" ->
        let db = Lazy.force preloaded in
        timed "readrandom" (fun () ->
            for _ = 0 to ops - 1 do
              ignore
                (Wipdb.Store.get db
                   (Wip_workload.Key_codec.encode
                      (Wip_util.Rng.int64 rng (Int64.of_int ops))))
            done)
      | "readseq" ->
        let db = Lazy.force preloaded in
        timed "readseq" (fun () ->
            let n = ref 0 in
            Seq.iter (fun _ -> incr n)
              (Wipdb.Store.iter_range db ~lo:"" ~hi:"\255" ()
              |> Seq.take ops);
            assert (!n <= ops))
      | "seekrandom" ->
        let db = Lazy.force preloaded in
        timed "seekrandom" (fun () ->
            for _ = 0 to ops - 1 do
              let lo =
                Wip_workload.Key_codec.encode
                  (Wip_util.Rng.int64 rng (Int64.of_int ops))
              in
              ignore
                (Wipdb.Store.iter_range db ~lo ~hi:"\255" ()
                |> Seq.take 1 |> List.of_seq)
            done)
      | "deleterandom" ->
        let db = Lazy.force preloaded in
        timed "deleterandom" (fun () ->
            for _ = 0 to ops - 1 do
              Wipdb.Store.delete db
                ~key:(Wip_workload.Key_codec.encode
                        (Wip_util.Rng.int64 rng (Int64.of_int ops)))
            done)
      | other -> Printf.eprintf "unknown benchmark: %s\n" other
    in
    let names =
      if names = [] then
        [ "fillseq"; "fillrandom"; "overwrite"; "readrandom"; "readseq";
          "seekrandom"; "deleterandom" ]
      else names
    in
    List.iter run_one names;
    `Ok ()
  in
  let ops = Arg.(value & opt int 100_000 & info [ "num" ] ~docv:"N") in
  let vsize = Arg.(value & opt int 100 & info [ "value-size" ] ~docv:"BYTES") in
  let names = Arg.(value & pos_all string [] & info [] ~docv:"BENCH") in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "db_bench-style microbenchmarks (fillseq fillrandom overwrite \
          readrandom readseq seekrandom deleterandom)")
    Term.(ret (const run $ ops $ vsize $ names))

(* --- service layer ----------------------------------------------------- *)

module Server = Wip_server.Server
module Net_client = Wip_server.Client
module Sharded = Wip_concurrent.Sharded_store.Make (Wipdb.Store)

let serve_cmd =
  let run dir addr port shards workers no_group_commit =
    let env = Wip_storage.Env.posix ~root:dir in
    (match Wip_concurrent.Shard_layout.claim env ~name:"wipdb" ~shards with
    | Ok () -> ()
    | Error msg ->
      prerr_endline ("serve: " ^ msg);
      exit 1);
    let base =
      {
        Wipdb.Config.default with
        Wipdb.Config.name = "wipdb";
        (* The pool compacts; the serving path must not compact inline. *)
        compaction_budget_per_batch = 0;
      }
    in
    let bounds = Wipdb.Config.shard_boundaries base ~shards in
    let stores =
      List.mapi
        (fun i lo ->
          (* "wipdb.shard-N", not "wipdb-shard-N": orphan GC reclaims
             unreferenced "<name>-*.lvt" files, so no shard's files may
             carry another store's "<name>-" prefix. *)
          let cfg =
            { base with Wipdb.Config.name = Printf.sprintf "wipdb.shard-%d" i }
          in
          (lo, Wipdb.Store.recover ~env cfg))
        bounds
    in
    let st = Sharded.create stores in
    let ops =
      {
        Server.get = (fun key -> Sharded.get st key);
        scan = (fun ~lo ~hi ~limit -> Sharded.scan st ~lo ~hi ?limit ());
        commit = (fun batches -> Sharded.commit_batches st batches);
        stats =
          (fun () ->
            [
              ("shards", Int64.of_int (Sharded.shard_count st));
              ("compaction_cycles",
               Int64.of_int (Sharded.compaction_cycles st));
              ("inflight_bytes", Int64.of_int (Sharded.inflight_bytes st));
            ]);
      }
    in
    let srv =
      Server.start ~addr ~port ~workers ~group_commit:(not no_group_commit)
        ~ops ()
    in
    Printf.printf
      "serving %s on %s:%d (%d shards, %d workers, group commit %s)\n%!" dir
      addr (Server.port srv) shards workers
      (if no_group_commit then "off" else "on");
    let stop_now = ref false in
    let handler = Sys.Signal_handle (fun _ -> stop_now := true) in
    Sys.set_signal Sys.sigint handler;
    Sys.set_signal Sys.sigterm handler;
    while not !stop_now do
      try Unix.sleepf 0.2 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done;
    prerr_endline "shutting down";
    Server.stop srv;
    Sharded.stop st;
    `Ok ()
  in
  let addr =
    Arg.(value & opt string "127.0.0.1" & info [ "addr" ] ~docv:"HOST")
  in
  let port = Arg.(value & opt int 7070 & info [ "port" ] ~docv:"PORT") in
  let shards =
    let doc =
      "Number of key-range shards. Recorded in the store directory on first \
       use; a later start with a different count is refused."
    in
    Arg.(value & opt int 4 & info [ "shards" ] ~docv:"N" ~doc)
  in
  let workers = Arg.(value & opt int 4 & info [ "workers" ] ~docv:"N") in
  let no_gc =
    let doc = "Commit every write alone (per-request fsync baseline)." in
    Arg.(value & flag & info [ "no-group-commit" ] ~doc)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve a store directory over the binary wire protocol (group-commit \
          WAL, pipelined connections); stop with SIGINT")
    Term.(ret (const run $ db_arg $ addr $ port $ shards $ workers $ no_gc))

let caddr_arg =
  Arg.(value & opt string "127.0.0.1" & info [ "addr" ] ~docv:"HOST")

let cport_arg = Arg.(value & opt int 7070 & info [ "port" ] ~docv:"PORT")

let with_conn addr port f =
  let c = Net_client.connect ~addr ~port () in
  Fun.protect ~finally:(fun () -> Net_client.close c) (fun () -> f c)

let unwrap name = function
  | Ok v -> v
  | Error e ->
    Printf.eprintf "%s: %s\n" name (Net_client.error_to_string e);
    exit 1

let client_get_cmd =
  let run addr port key =
    with_conn addr port (fun c ->
        match unwrap "get" (Net_client.get c key) with
        | Some v ->
          print_endline v;
          `Ok ()
        | None ->
          prerr_endline "(not found)";
          exit 1)
  in
  let key = Arg.(required & pos 0 (some string) None & info [] ~docv:"KEY") in
  Cmd.v (Cmd.info "get" ~doc:"Look up one key over the wire")
    Term.(ret (const run $ caddr_arg $ cport_arg $ key))

let client_put_cmd =
  let run addr port key value =
    with_conn addr port (fun c ->
        unwrap "put" (Net_client.put c ~key ~value);
        `Ok ())
  in
  let key = Arg.(required & pos 0 (some string) None & info [] ~docv:"KEY") in
  let value = Arg.(required & pos 1 (some string) None & info [] ~docv:"VALUE") in
  Cmd.v (Cmd.info "put" ~doc:"Durable put over the wire (ack = fsynced)")
    Term.(ret (const run $ caddr_arg $ cport_arg $ key $ value))

let client_delete_cmd =
  let run addr port key =
    with_conn addr port (fun c ->
        unwrap "delete" (Net_client.delete c ~key);
        `Ok ())
  in
  let key = Arg.(required & pos 0 (some string) None & info [] ~docv:"KEY") in
  Cmd.v (Cmd.info "delete" ~doc:"Durable delete over the wire")
    Term.(ret (const run $ caddr_arg $ cport_arg $ key))

let client_scan_cmd =
  let run addr port lo hi limit =
    with_conn addr port (fun c ->
        List.iter
          (fun (k, v) -> Printf.printf "%s\t%s\n" k v)
          (unwrap "scan" (Net_client.scan c ~lo ~hi ~limit ()));
        `Ok ())
  in
  let lo = Arg.(value & opt string "" & info [ "lo" ] ~docv:"KEY") in
  let hi = Arg.(value & opt string "\255" & info [ "hi" ] ~docv:"KEY") in
  let limit = Arg.(value & opt int 100 & info [ "limit" ] ~docv:"N") in
  Cmd.v (Cmd.info "scan" ~doc:"Range scan [lo, hi) over the wire")
    Term.(ret (const run $ caddr_arg $ cport_arg $ lo $ hi $ limit))

let client_ping_cmd =
  let run addr port =
    with_conn addr port (fun c ->
        unwrap "ping" (Net_client.ping c);
        print_endline "pong";
        `Ok ())
  in
  Cmd.v (Cmd.info "ping" ~doc:"Round-trip liveness check")
    Term.(ret (const run $ caddr_arg $ cport_arg))

let client_stats_cmd =
  let run addr port =
    with_conn addr port (fun c ->
        List.iter
          (fun (k, v) -> Printf.printf "%-20s %Ld\n" k v)
          (unwrap "stats" (Net_client.stats c));
        `Ok ())
  in
  Cmd.v (Cmd.info "stats" ~doc:"Server-side counters")
    Term.(ret (const run $ caddr_arg $ cport_arg))

let client_bench_cmd =
  let run addr port ops value_size =
    with_conn addr port (fun c ->
        let rng = Wip_util.Rng.create ~seed:0xC11E47L in
        let h = Wip_stats.Histogram.create () in
        let acked = ref 0 and errors = ref 0 in
        let t0 = Unix.gettimeofday () in
        for _ = 1 to ops do
          let key =
            Wip_workload.Key_codec.encode
              (Wip_util.Rng.int64 rng 1_000_000_000L)
          in
          let value = Bytes.to_string (Wip_util.Rng.bytes rng value_size) in
          let s0 = Unix.gettimeofday () in
          (match Net_client.put c ~key ~value with
          | Ok () -> incr acked
          | Error _ -> incr errors);
          Wip_stats.Histogram.add h ((Unix.gettimeofday () -. s0) *. 1.0e6)
        done;
        let dt = Unix.gettimeofday () -. t0 in
        Printf.printf
          "%d puts in %.2f s = %.0f ops/s  p50 %.1f us  p99 %.1f us  \
           (acked %d, errors %d)\n"
          ops dt
          (float_of_int ops /. dt)
          (Wip_stats.Histogram.percentile h 50.0)
          (Wip_stats.Histogram.percentile h 99.0)
          !acked !errors;
        `Ok ())
  in
  let ops = Arg.(value & opt int 100_000 & info [ "ops" ] ~docv:"N") in
  let vsize = Arg.(value & opt int 100 & info [ "value-size" ] ~docv:"BYTES") in
  Cmd.v
    (Cmd.info "bench"
       ~doc:"Synchronous durable puts against a live server; ops/s + latency")
    Term.(ret (const run $ caddr_arg $ cport_arg $ ops $ vsize))

let client_cmd =
  Cmd.group
    (Cmd.info "client" ~doc:"Talk to a served store over the wire protocol")
    [
      client_get_cmd; client_put_cmd; client_delete_cmd; client_scan_cmd;
      client_ping_cmd; client_stats_cmd; client_bench_cmd;
    ]

let () =
  let info =
    Cmd.info "wipdb_cli" ~version:"1.0.0"
      ~doc:"Command-line front end for a WipDB store"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            put_cmd; get_cmd; delete_cmd; scan_cmd; load_cmd; stats_cmd;
            compact_cmd; bench_cmd; serve_cmd; client_cmd;
          ]))
