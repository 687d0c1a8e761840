(* Golden I/O: a fixed, seeded put/delete/get/scan/flush/maintenance/snapshot
   mix on each engine (WipDB, the leveled baseline, the FLSM baseline) over an
   in-memory Env, checked against exact constants — device bytes written and
   read per Io_stats category, the live file sizes, and a digest of every
   scan result. Structural refactors of the engines must leave all of these
   byte-identical; a mismatch prints the observed record so an intended
   behaviour change can be re-recorded deliberately. *)

module Store_intf = Wip_kv.Store_intf
module Io_stats = Wip_storage.Io_stats
module Rng = Wip_util.Rng

type golden = {
  io : (string * int * int) list;  (** category, bytes written, bytes read *)
  file_sizes : int list;
  scanned : int;  (** entries returned by all scans together *)
  scan_digest : string;  (** hex MD5 over every scan result, in order *)
}

let categories =
  [
    ("user", Io_stats.User_write);
    ("wal", Io_stats.Wal);
    ("flush", Io_stats.Flush);
    ("split", Io_stats.Split);
    ("read_path", Io_stats.Read_path);
    ("manifest", Io_stats.Manifest);
    ("table_meta", Io_stats.Table_meta);
  ]
  @ List.concat_map
      (fun l ->
        [
          (Printf.sprintf "compaction%d" l, Io_stats.Compaction l);
          (Printf.sprintf "compaction_read%d" l, Io_stats.Compaction_read l);
        ])
      [ 0; 1; 2; 3; 4; 5; 6 ]

let key i = Printf.sprintf "%08d" i

let run s =
  let rng = Rng.create ~seed:0x601DL in
  let digest = Buffer.create 4096 in
  let scanned = ref 0 in
  let snaps = ref [] in
  let record_scan result =
    scanned := !scanned + List.length result;
    List.iter
      (fun (k, v) ->
        Buffer.add_string digest k;
        Buffer.add_char digest '=';
        Buffer.add_string digest v;
        Buffer.add_char digest ';')
      result;
    Buffer.add_char digest '|'
  in
  for step = 0 to 4999 do
    let r = Rng.int rng 100 in
    if r < 55 then
      Store_intf.put s
        ~key:(key (Rng.int rng 1500))
        ~value:(Printf.sprintf "v%d-%s" step (String.make (Rng.int rng 40) 'x'))
    else if r < 65 then Store_intf.delete s ~key:(key (Rng.int rng 1500))
    else if r < 75 then ignore (Store_intf.get s (key (Rng.int rng 1500)))
    else if r < 92 then begin
      let a = Rng.int rng 1500 in
      let lo = key a and hi = key (a + 1 + Rng.int rng 300) in
      let limit = 1 + Rng.int rng 60 in
      match !snaps with
      | snap :: _ when Rng.bool rng ->
        record_scan (Store_intf.scan_at s ~lo ~hi ~limit ~snapshot:snap ())
      | _ -> record_scan (Store_intf.scan s ~lo ~hi ~limit ())
    end
    else if r < 94 then Store_intf.flush s
    else if r < 96 then Store_intf.maintenance s ()
    else if r < 98 then begin
      if List.length !snaps < 3 then snaps := Store_intf.snapshot s :: !snaps
    end
    else
      match List.rev !snaps with
      | [] -> ()
      | oldest :: rest ->
        Store_intf.release oldest;
        snaps := List.rev rest
  done;
  List.iter Store_intf.release !snaps;
  record_scan (Store_intf.scan s ~lo:"" ~hi:"\255" ());
  Store_intf.flush s;
  Store_intf.maintenance s ();
  record_scan (Store_intf.scan s ~lo:"" ~hi:"\255" ());
  let stats = Store_intf.io_stats s in
  {
    io =
      List.filter_map
        (fun (label, c) ->
          let w = Io_stats.written_by stats c and rd = Io_stats.read_by stats c in
          if w = 0 && rd = 0 then None else Some (label, w, rd))
        categories;
    file_sizes = Store_intf.file_sizes s;
    scanned = !scanned;
    scan_digest = Digest.to_hex (Digest.string (Buffer.contents digest));
  }

let show g =
  Printf.sprintf
    "{ io = [ %s ];\n  file_sizes = [ %s ];\n  scanned = %d;\n  scan_digest = %S }"
    (String.concat "; "
       (List.map (fun (l, w, r) -> Printf.sprintf "(%S, %d, %d)" l w r) g.io))
    (String.concat "; " (List.map string_of_int g.file_sizes))
    g.scanned g.scan_digest

let check s expected () =
  let got = run s in
  if got <> expected then
    Alcotest.failf "%s diverged from its golden record; observed:\n%s"
      (Store_intf.store_name s) (show got)

let wipdb () =
  let cfg =
    {
      Wipdb.Config.default with
      Wipdb.Config.memtable_items = 64;
      memtable_bytes = 4 * 1024;
      t_sublevels = 4;
      min_count = 2;
      max_count = 8;
      bucket_capacity_bytes = 24 * 1024;
      block_cache_bytes = 16 * 1024;
      name = "gwip";
    }
  in
  Store_intf.Store ((module Wipdb.Store), Wipdb.Store.create cfg)

let leveled () =
  let cfg =
    {
      (Wip_lsm.Leveled.leveldb_config ~scale:1) with
      Wip_lsm.Leveled.memtable_bytes = 2 * 1024;
      sstable_bytes = 1024;
      level1_bytes = 8 * 1024;
      name = "glvl";
    }
  in
  Store_intf.Store ((module Wip_lsm.Leveled), Wip_lsm.Leveled.create cfg)

let flsm () =
  let cfg =
    {
      (Wip_flsm.Flsm.default_config ~scale:1) with
      Wip_flsm.Flsm.memtable_bytes = 2 * 1024;
      top_level_bits = 8;
      name = "gflsm";
    }
  in
  Store_intf.Store ((module Wip_flsm.Flsm), Wip_flsm.Flsm.create cfg)

let wipdb_golden =
  {
    io =
      [
        ("user", 93571, 93571);
        ("wal", 157531, 0);
        ("flush", 165911, 0);
        ("split", 735897, 730354);
        ("read_path", 0, 8967592);
        ("manifest", 45199, 0);
        ("table_meta", 0, 240033);
        ("compaction0", 0, 100557);
        ("compaction_read0", 100557, 100557);
        ("compaction1", 137821, 87665);
        ("compaction_read1", 87665, 87665);
        ("compaction2", 111889, 0);
      ];
    file_sizes =
      [
        436; 545; 2588; 703; 2074; 1483; 1625; 13107; 321; 389; 16265;
        635; 2292; 1740; 2057; 15654; 291; 1422; 1352; 1221; 9359;
      ];
    scanned = 22977;
    scan_digest = "f8c482e6bfe61c00b4c1bd6b41c32858";
  }

let leveled_golden =
  {
    io =
      [
        ("user", 93571, 93571);
        ("wal", 157531, 0);
        ("flush", 155026, 0);
        ("read_path", 0, 12820412);
        ("manifest", 57369, 0);
        ("table_meta", 0, 226904);
        ("compaction0", 0, 120117);
        ("compaction_read0", 120117, 120117);
        ("compaction1", 329071, 240822);
        ("compaction_read1", 240822, 240822);
        ("compaction2", 423962, 271788);
        ("compaction_read2", 271788, 271788);
      ];
    file_sizes =
      [
        1401; 1391; 1383; 1397; 1391; 1373; 1404; 1389; 1384; 1214;
        1200; 1404; 1424; 1356; 1385; 1376; 1374; 1378; 1421; 1114;
        1405; 549; 1410; 1373; 1379; 1409; 1392; 1356; 1367; 1377;
        1437; 887; 1371; 1393; 1413; 1384; 282; 1372; 1394; 1195;
        1397; 1368; 1387; 1379; 1412; 1367; 1399; 1399; 1403; 1412;
        1375;
      ];
    scanned = 22977;
    scan_digest = "f8c482e6bfe61c00b4c1bd6b41c32858";
  }

let flsm_golden =
  {
    io =
      [
        ("user", 93571, 93571);
        ("wal", 157531, 0);
        ("flush", 161013, 0);
        ("split", 100648, 148606);
        ("read_path", 0, 16935429);
        ("manifest", 39566, 0);
        ("table_meta", 0, 179433);
        ("compaction0", 0, 120117);
        ("compaction_read0", 120117, 120117);
        ("compaction1", 168852, 103194);
        ("compaction_read1", 103194, 103194);
        ("compaction2", 125372, 59117);
        ("compaction_read2", 59117, 59117);
        ("compaction3", 66080, 0);
      ];
    file_sizes =
      [
        1230; 810; 889; 335; 2274; 1895; 2329; 405; 335; 342; 2017;
        1728; 1726; 867; 669; 955; 418; 323; 281; 2293; 2333; 552;
        509; 387; 466; 353; 283; 468; 351; 404; 368; 3382; 2699; 447;
        434; 2993; 2534; 2062; 1959; 339; 1570; 1278; 890; 1303; 1236;
        773; 378; 203; 2469; 2704; 1131; 1133; 2607; 2270; 599; 756;
        2425; 394; 1784; 800; 751; 584; 374; 575; 222; 249; 293; 328;
        305; 799; 1217; 581; 821; 3626; 1459; 436; 808; 1110; 618;
        2988; 982; 644; 1094; 1763; 1596; 1854; 1686; 425; 345; 494;
        685; 1509; 1582; 1027; 944; 375; 660; 750; 1411; 1070; 1215;
        1035; 1393; 392; 740; 590; 699; 1579; 1118; 796; 1403; 648;
        1311; 676; 1705; 1475; 552; 426; 545; 414; 576; 265; 336; 1698;
      ];
    scanned = 22977;
    scan_digest = "f8c482e6bfe61c00b4c1bd6b41c32858";
  }

let suite =
  [
    Alcotest.test_case "wipdb" `Quick (fun () -> check (wipdb ()) wipdb_golden ());
    Alcotest.test_case "leveled" `Quick (fun () ->
        check (leveled ()) leveled_golden ());
    Alcotest.test_case "flsm" `Quick (fun () -> check (flsm ()) flsm_golden ());
  ]
