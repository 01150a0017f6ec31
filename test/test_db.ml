(** Tests for the persistent coverage database (lib/db): manifest
    round-trips, incremental aggregate maintenance, format versioning,
    run diffs and greedy set-cover ranking. *)

module Counts = Sic_coverage.Counts
module Db = Sic_db.Db

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* Each test gets its own directory under the sandbox cwd. *)
let fresh_dir =
  let n = ref 0 in
  fun prefix ->
    incr n;
    Printf.sprintf "%s_%d_%d" prefix (Unix.getpid ()) !n

let add_ok db ~design ~backend ?(seed = 0) points =
  Db.add db ~design ~backend ~workload:"random" ~seed ~cycles:100
    (Ok (Counts.of_list points))

let test_round_trip () =
  let dir = fresh_dir "db_rt" in
  let db = Db.init dir in
  let r1 = add_ok db ~design:"gcd" ~backend:"compiled" [ ("p1", 3); ("p2", 0) ] in
  let r2 = add_ok db ~design:"fifo" ~backend:"interp" ~seed:7 [ ("p1", 1); ("p3", 2) ] in
  let rf =
    Db.add db ~design:"gcd" ~backend:"fuzz" ~workload:"fuzz" ~seed:9 ~cycles:50
      (Error "worker killed by signal SIGKILL")
  in
  Alcotest.(check (list string)) "ids in arrival order" [ "r0001"; "r0002"; "r0003" ]
    (List.map (fun r -> r.Db.id) (Db.runs db));
  (* reload from disk and compare the manifest view *)
  let db' = Db.load dir in
  Alcotest.(check int) "reload sees all runs" 3 (List.length (Db.runs db'));
  Alcotest.(check int) "reload sees ok runs" 2 (List.length (Db.ok_runs db'));
  (match Db.find db' rf.Db.id with
  | Some r -> (
      match r.Db.status with
      | Db.Run_failed why ->
          Alcotest.(check bool) "failure reason kept" true (contains ~needle:"SIGKILL" why)
      | Db.Run_ok -> Alcotest.fail "failed run reloaded as ok")
  | None -> Alcotest.fail "failed run missing after reload");
  (* counts files round-trip, including zero-count points *)
  let c1 = Db.load_counts db' (Option.get (Db.find db' r1.Db.id)) in
  Alcotest.(check bool) "r1 counts round-trip" true
    (Counts.equal c1 (Counts.of_list [ ("p1", 3); ("p2", 0) ]));
  let r2' = Option.get (Db.find db' r2.Db.id) in
  Alcotest.(check string) "metadata survives" "fifo" r2'.Db.design;
  Alcotest.(check int) "seed survives" 7 r2'.Db.seed;
  Alcotest.(check int) "points_covered recorded" 2 r2'.Db.points_covered

let test_aggregate_incremental () =
  let dir = fresh_dir "db_agg" in
  let db = Db.init dir in
  let batches =
    [ [ ("a", 1); ("b", 0) ]; [ ("a", 2); ("c", 5) ]; [ ("b", 1); ("c", 1); ("d", 0) ] ]
  in
  List.iteri
    (fun i pts ->
      ignore (add_ok db ~design:"gcd" ~backend:"compiled" ~seed:i pts);
      (* the incrementally maintained cache must equal a full re-merge *)
      Alcotest.(check bool)
        (Printf.sprintf "cache = recompute after run %d" (i + 1))
        true
        (Counts.equal (Db.aggregate db) (Db.recompute_aggregate db)))
    batches;
  let expect = Counts.merge (List.map Counts.of_list batches) in
  Alcotest.(check bool) "aggregate = merge of all runs" true
    (Counts.equal (Db.aggregate db) expect);
  (* failed runs leave the aggregate untouched *)
  ignore
    (Db.add db ~design:"gcd" ~backend:"bmc" ~workload:"bmc" ~seed:0 ~cycles:10
       (Error "timeout"));
  Alcotest.(check bool) "failed run does not change aggregate" true
    (Counts.equal (Db.aggregate db) expect);
  (* deleting the cache forces an identical recompute on load *)
  Sys.remove (Filename.concat dir "aggregate.cnt");
  let db' = Db.load dir in
  Alcotest.(check bool) "aggregate recomputed after cache delete" true
    (Counts.equal (Db.aggregate db') expect);
  Alcotest.(check bool) "removal export is the aggregate" true
    (Counts.equal (Db.removal_counts db') expect)

let test_versioning () =
  (* load of a missing database fails loudly *)
  (try
     ignore (Db.load (fresh_dir "db_missing"));
     Alcotest.fail "load of missing db succeeded"
   with Db.Db_error _ -> ());
  (* init refuses to clobber an existing database *)
  let dir = fresh_dir "db_clobber" in
  ignore (Db.init dir);
  (try
     ignore (Db.init dir);
     Alcotest.fail "double init succeeded"
   with Db.Db_error _ -> ());
  (* a manifest from an incompatible future version is rejected *)
  let dir2 = fresh_dir "db_future" in
  ignore (Db.init dir2);
  let manifest = Filename.concat dir2 "manifest.ndjson" in
  let oc = open_out manifest in
  output_string oc "{\"type\":\"meta\",\"format\":\"sic-db\",\"version\":99}\n";
  close_out oc;
  try
    ignore (Db.load dir2);
    Alcotest.fail "future version accepted"
  with Db.Db_error m ->
    Alcotest.(check bool) "error names the version" true (contains ~needle:"99" m)

let test_diff () =
  let dir = fresh_dir "db_diff" in
  let db = Db.init dir in
  let r1 = add_ok db ~design:"gcd" ~backend:"compiled" [ ("a", 0); ("b", 2) ] in
  let r2 = add_ok db ~design:"gcd" ~backend:"fuzz" [ ("a", 4); ("b", 0) ] in
  let d = Db.diff db ~before:r1.Db.id ~after:r2.Db.id in
  Alcotest.(check (list string)) "newly covered" [ "a" ] d.Counts.newly_covered;
  Alcotest.(check (list string)) "lost" [ "b" ] d.Counts.lost;
  try
    ignore (Db.diff db ~before:"nope" ~after:r1.Db.id);
    Alcotest.fail "diff with unknown id succeeded"
  with Db.Db_error _ -> ()

let test_rank () =
  let dir = fresh_dir "db_rank" in
  let db = Db.init dir in
  (* crafted fixture with a known greedy solution:
     rA = {p1 p2 p3}  gain 3  -> picked first
     rB = {p3 p4 p5}  gain 2  -> picked second
     rC = {p5 p6}     gain 1  -> picked third
     rD = {p1}        gain 0  -> never picked *)
  let ra = add_ok db ~design:"d" ~backend:"compiled" [ ("p1", 1); ("p2", 1); ("p3", 1) ] in
  let rb = add_ok db ~design:"d" ~backend:"compiled" [ ("p3", 1); ("p4", 1); ("p5", 1) ] in
  let rc = add_ok db ~design:"d" ~backend:"compiled" [ ("p5", 1); ("p6", 1) ] in
  let _rd = add_ok db ~design:"d" ~backend:"compiled" [ ("p1", 9) ] in
  let picked = Db.rank db in
  Alcotest.(check (list string)) "greedy pick order"
    [ ra.Db.id; rb.Db.id; rc.Db.id ]
    (List.map (fun r -> r.Db.id) picked);
  (* the ranked subset's merged coverage equals the whole database's *)
  let subset = Counts.merge (List.map (Db.load_counts db) picked) in
  Alcotest.(check (list string)) "subset covers everything"
    (Counts.covered (Db.aggregate db))
    (Counts.covered subset);
  (* at a higher threshold the cheap runs stop sufficing *)
  let picked5 = Db.rank ~threshold:5 db in
  Alcotest.(check bool) "threshold changes the answer" true
    (List.length picked5 <= List.length (Db.ok_runs db));
  let sub5 = Counts.merge (List.map (Db.load_counts db) picked5) in
  Alcotest.(check (list string)) "threshold-5 subset matches aggregate"
    (Counts.covered ~threshold:5 (Db.aggregate db))
    (Counts.covered ~threshold:5 sub5);
  (* renderers stay in sync with the data *)
  Alcotest.(check bool) "list renders every run" true
    (contains ~needle:ra.Db.id (Db.render_list db));
  Alcotest.(check bool) "rank render names the winner" true
    (contains ~needle:ra.Db.id (Db.render_rank db));
  Alcotest.(check bool) "report renders" true
    (contains ~needle:"compiled" (Db.render_report db))

(* Artifacts are replaced whole (temp file + rename): a reader holding the
   old aggregate keeps the complete old map, never a torn or truncated
   one, and a temp file a killed writer left behind is ignored. *)
let test_atomic_save () =
  let dir = fresh_dir "db_atomic" in
  let db = Db.init dir in
  let old = Counts.of_list [ ("p1", 3); ("p2", 0); ("p3", 1) ] in
  ignore (add_ok db ~design:"gcd" ~backend:"compiled" (Counts.to_sorted_list old));
  let ic = open_in_bin (Filename.concat dir "aggregate.cnt") in
  ignore (add_ok db ~design:"gcd" ~backend:"compiled" ~seed:1 [ ("p2", 5); ("p4", 1) ]);
  let seen = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic) in
  Alcotest.(check bool) "an open reader still sees the whole old aggregate" true
    (Counts.equal old (Counts.of_string seen));
  Alcotest.(check (list string)) "no temp file is left behind" []
    (List.filter (fun f -> contains ~needle:".tmp" f) (Array.to_list (Sys.readdir dir)));
  (* a symlinked target is written through the link, which stays a link *)
  let target = Filename.concat dir "target.cnt" and link = Filename.concat dir "link.cnt" in
  Counts.save target old;
  Unix.symlink "target.cnt" link;
  Counts.save link (Counts.of_list [ ("p9", 9) ]);
  Alcotest.(check bool) "a symlink stays a symlink" true
    ((Unix.lstat link).Unix.st_kind = Unix.S_LNK && Counts.get (Counts.load target) "p9" = 9);
  Out_channel.with_open_bin (Filename.concat dir "aggregate.cnt.x1y2z3.tmp") (fun oc ->
      output_string oc "12 p");
  let db' = Db.load dir in
  Alcotest.(check int) "a leftover temp file is ignored" 2 (List.length (Db.runs db'));
  Alcotest.(check int) "aggregate unaffected" 1 (Counts.get (Db.aggregate db') "p4");
  Alcotest.(check bool) "report path unaffected" true
    (String.length (Db.render_report db') > 0
    && Counts.equal (Db.union_counts db')
         (Counts.of_list [ ("p1", 3); ("p2", 5); ("p3", 1); ("p4", 1) ]))

let ids db = List.map (fun r -> r.Db.id) (Db.runs db)

(* Two handles opened on one database both add a run. Each add syncs its
   handle with the disk under the lock first, so the second handle sees
   the first handle's run: distinct ids, both counts files kept, and an
   aggregate over both. *)
let test_stale_handles () =
  let dir = fresh_dir "db_stale" in
  ignore (Db.init dir);
  let a = Db.load dir and b = Db.load dir in
  let pa = [ ("p", 5); ("q", 0) ] and pb = [ ("p", 0); ("q", 7) ] in
  let ra = add_ok a ~design:"d" ~backend:"compiled" pa in
  let rb = add_ok b ~design:"d" ~backend:"compiled" ~seed:1 pb in
  Alcotest.(check (list string)) "distinct ids" [ "r0001"; "r0002" ] [ ra.Db.id; rb.Db.id ];
  let cnt id = Counts.load (Filename.concat dir (id ^ ".cnt")) in
  Alcotest.(check bool) "first counts file intact" true (Counts.equal (cnt "r0001") (Counts.of_list pa));
  Alcotest.(check bool) "second counts file intact" true
    (Counts.equal (cnt "r0002") (Counts.of_list pb));
  Alcotest.(check (list (pair string int))) "aggregate over both runs" [ ("p", 5); ("q", 7) ]
    (Counts.to_sorted_list (Db.aggregate (Db.load dir)));
  Db.sync a;
  Alcotest.(check (list string)) "the first handle catches up" [ "r0001"; "r0002" ] (ids a);
  Alcotest.(check int) "counters follow" 2 (Db.ok_count a)

(* Random adds interleaved across two handles, each followed by a sync of
   both: every handle's incremental union and the cached aggregate equal
   a full merge over the ok runs a fresh load sees. *)
let prop_two_handles =
  let point = QCheck.Gen.(pair (oneofl [ "a"; "b"; "c"; "d" ]) (int_bound 9)) in
  let step = QCheck.Gen.(triple bool (int_bound 5) (list_size (int_range 1 4) point)) in
  QCheck.Test.make ~count:40 ~name:"two handles: union and aggregate follow the disk"
    (QCheck.make
       ~print:
         QCheck.Print.(list (triple bool int (list (pair string int))))
       QCheck.Gen.(list_size (int_range 1 8) step))
    (fun steps ->
      let dir = fresh_dir "db_prop" in
      ignore (Db.init dir);
      let a = Db.load dir and b = Db.load dir in
      List.for_all
        (fun (on_a, kind, points) ->
          let h = if on_a then a else b in
          (* one step in six records a failed run *)
          ignore
            (Db.add h ~design:"d" ~backend:"compiled" ~workload:"random" ~seed:kind
               ~cycles:(kind + 1)
               (if kind = 0 then Error "crashed" else Ok (Counts.of_list points)));
          Db.sync a;
          Db.sync b;
          let fresh = Db.load dir in
          let all = List.map (Db.load_counts fresh) (Db.ok_runs fresh) in
          let union = Counts.union_max all and sum = Counts.merge all in
          let expected_ids =
            List.init (List.length (Db.runs fresh)) (fun i -> Printf.sprintf "r%04d" (i + 1))
          in
          let ids_ok = ids fresh = expected_ids && ids a = expected_ids && ids b = expected_ids in
          let counters_ok =
            List.for_all
              (fun h ->
                Db.run_count h = List.length (Db.runs fresh)
                && Db.ok_count h = List.length (Db.ok_runs fresh)
                && Db.ok_cycles h
                   = List.fold_left (fun acc r -> acc + r.Db.cycles) 0 (Db.ok_runs fresh))
              [ a; b ]
          in
          ids_ok && counters_ok
          && Counts.equal (Db.union_counts a) union
          && Counts.equal (Db.union_counts b) union
          && Counts.equal (Db.aggregate fresh) sum)
        steps)

(* The union memo extends one counts file at a time: a file that fails to
   load raises, and once it reads again the union is whole. *)
let test_union_memo_recovers () =
  let dir = fresh_dir "db_union" in
  let db = Db.init dir in
  ignore (add_ok db ~design:"d" ~backend:"compiled" [ ("a", 1) ]);
  ignore (Db.union_counts db);
  ignore (add_ok db ~design:"d" ~backend:"compiled" ~seed:1 [ ("b", 2) ]);
  ignore (add_ok db ~design:"d" ~backend:"compiled" ~seed:2 [ ("c", 3) ]);
  let r3 = Filename.concat dir "r0003.cnt" in
  let good = In_channel.with_open_bin r3 In_channel.input_all in
  Out_channel.with_open_bin r3 (fun oc -> output_string oc "nope c\n");
  (match Db.union_counts db with
  | _ -> Alcotest.fail "a corrupt counts file went unnoticed"
  | exception Sic_coverage.Artifact.Error _ -> ());
  Out_channel.with_open_bin r3 (fun oc -> output_string oc good);
  Alcotest.(check (list (pair string int))) "the union is whole again"
    [ ("a", 1); ("b", 2); ("c", 3) ]
    (Counts.to_sorted_list (Db.union_counts db))

(* The newline is a record's commit point. A torn last line, left by a
   writer killed mid-append, is not a run: load ignores it, and the next
   add cuts it before appending, so the manifest re-reads cleanly. *)
let test_torn_tail () =
  let dir = fresh_dir "db_torn" in
  let db = Db.init dir in
  ignore (add_ok db ~design:"d" ~backend:"compiled" [ ("p", 1) ]);
  ignore (add_ok db ~design:"d" ~backend:"compiled" ~seed:1 [ ("q", 2) ]);
  let manifest = Filename.concat dir "manifest.ndjson" in
  let append path text =
    Out_channel.with_open_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path (fun oc ->
        output_string oc text)
  in
  append manifest "{\"type\":\"run\",\"id\":\"r0003\",\"des";
  let db' = Db.load dir in
  Alcotest.(check (list string)) "load ignores the torn tail" [ "r0001"; "r0002" ] (ids db');
  Db.sync db;
  Alcotest.(check (list string)) "sync ignores it too" [ "r0001"; "r0002" ] (ids db);
  let r = add_ok db' ~design:"d" ~backend:"compiled" ~seed:2 [ ("r", 3) ] in
  Alcotest.(check string) "the next add takes the next id" "r0003" r.Db.id;
  let reread = Db.load dir in
  Alcotest.(check (list string)) "the manifest re-reads cleanly"
    [ "r0001"; "r0002"; "r0003" ] (ids reread);
  Alcotest.(check int) "the torn bytes are gone" 4
    (List.length (In_channel.with_open_bin manifest In_channel.input_lines));
  Alcotest.(check (list (pair string int))) "aggregate over the committed runs"
    [ ("p", 1); ("q", 2); ("r", 3) ]
    (Counts.to_sorted_list (Db.aggregate reread));
  (* the exclusions file follows the same rule *)
  let ex name = { Db.ex_name = name; ex_reason = "test"; ex_design = "d"; ex_wave = 0 } in
  Db.add_exclusions reread [ ex "p" ];
  append (Filename.concat dir "exclusions.ndjson") "{\"type\":\"exclusion\",\"na";
  Alcotest.(check (list string)) "a torn exclusion is not read" [ "p" ]
    (Db.excluded_names (Db.load dir));
  Db.add_exclusions (Db.load dir) [ ex "q" ];
  Alcotest.(check (list string)) "and the next append cuts it" [ "p"; "q" ]
    (Db.excluded_names (Db.load dir))

let tests =
  [
    Alcotest.test_case "manifest round-trip" `Quick test_round_trip;
    Alcotest.test_case "incremental aggregate" `Quick test_aggregate_incremental;
    Alcotest.test_case "format versioning" `Quick test_versioning;
    Alcotest.test_case "run diff" `Quick test_diff;
    Alcotest.test_case "greedy rank" `Quick test_rank;
    Alcotest.test_case "atomic artifact save" `Quick test_atomic_save;
    Alcotest.test_case "stale handles get distinct ids" `Quick test_stale_handles;
    QCheck_alcotest.to_alcotest prop_two_handles;
    Alcotest.test_case "union memo recovers from a bad counts file" `Quick
      test_union_memo_recovers;
    Alcotest.test_case "torn manifest tail is not committed" `Quick test_torn_tail;
  ]
