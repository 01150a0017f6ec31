(* CLI regression for [sic campaign] / [sic db]: the coverage database a
   campaign produces must be byte-for-byte independent of -j, a crashed
   worker must be recorded as a failed run without killing the campaign,
   [sic db rank] must pick a run subset whose merged coverage equals the
   full aggregate, and a corrupt artifact in a database must be reported
   as a located error, not an uncaught exception.

   Usage: check_campaign.exe SIC.exe *)

module Counts = Sic_coverage.Counts
module Db = Sic_db.Db

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("check_campaign: " ^ m); exit 1) fmt

let sic = ref "sic"

let run_expect expected fmt =
  Printf.ksprintf
    (fun args ->
      let cmd = Printf.sprintf "%s %s >> check_campaign.log 2>&1" (Filename.quote !sic) args in
      let rc = Sys.command cmd in
      if rc <> expected then fail "command exited %d (wanted %d): sic %s" rc expected args)
    fmt

let run fmt = run_expect 0 fmt

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let campaign_args =
  "--design gcd --design fifo --design counter --backend compiled --backend interp \
   --seeds 1 --cycles 300 --seed 7"

let () =
  (match Sys.argv with [| _; exe |] -> sic := exe | _ -> fail "usage: check_campaign.exe SIC.exe");
  (* the same campaign at -j 1 and -j 4: 3 designs x 2 backends *)
  run "campaign --db db_j1 -j 1 %s" campaign_args;
  run "campaign --db db_j4 -j 4 %s" campaign_args;
  (* every counts file — per-run and the cached aggregate — byte-identical *)
  let cnt_files dir =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f ->
           Filename.check_suffix f ".cnt" || Filename.check_suffix f ".tl")
    |> List.sort compare
  in
  let f1 = cnt_files "db_j1" and f4 = cnt_files "db_j4" in
  if f1 <> f4 then fail "different counts files: [%s] vs [%s]" (String.concat " " f1) (String.concat " " f4);
  if not (List.mem "aggregate.cnt" f1) then fail "no aggregate.cnt in db_j1";
  if not (List.exists (fun f -> Filename.check_suffix f ".tl") f1) then
    fail "no convergence timelines persisted in db_j1";
  List.iter
    (fun f ->
      let a = read_file (Filename.concat "db_j1" f) and b = read_file (Filename.concat "db_j4" f) in
      if a <> b then fail "%s differs between -j 1 and -j 4" f)
    f1;
  (* manifests agree on everything but wall time *)
  let view db = List.map (fun r -> { r with Db.wall_us = 0. }) (Db.runs db) in
  let db1 = Db.load "db_j1" and db4 = Db.load "db_j4" in
  if view db1 <> view db4 then fail "manifests differ between -j 1 and -j 4";
  if List.length (Db.runs db1) <> 6 then
    fail "expected 6 runs (3 designs x 2 backends), got %d" (List.length (Db.runs db1));
  (* an injected worker crash: recorded as a failed run, campaign completes
     — and the exhausted retries surface as a nonzero exit for CI *)
  run_expect 1
    "campaign --db db_crash -j 2 --inject-crash 0 --retries 1 --design gcd --design counter \
     --backend compiled --seeds 1 --cycles 200";
  let dbc = Db.load "db_crash" in
  let failed =
    List.filter (fun r -> match r.Db.status with Db.Run_failed _ -> true | _ -> false) (Db.runs dbc)
  in
  if List.length failed <> 1 then fail "expected 1 failed run, got %d" (List.length failed);
  if List.length (Db.ok_runs dbc) <> 1 then
    fail "expected the surviving job to be recorded ok";
  (* the db subcommands run over the result *)
  run "db list db_j4";
  run "db report db_j4 --save-counts db_j4_aggregate.cnt";
  run "db report db_j4 --timeline --html db_j4_report.html";
  if not (Sys.file_exists "db_j4_report.html") then fail "db report --html wrote nothing";
  let html = read_file "db_j4_report.html" in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  if not (contains html "coverage convergence") then
    fail "HTML report lacks the convergence-curve section";
  run "db rank db_j4";
  run "db diff db_j4 r0001 r0002";
  if not (Counts.equal (Counts.load "db_j4_aggregate.cnt") (Db.aggregate db4)) then
    fail "exported aggregate differs from the library view";
  (* rank: the picked subset's merged coverage equals the aggregate's *)
  let picked = Db.rank db4 in
  if picked = [] then fail "rank picked nothing";
  let subset = Counts.merge (List.map (Db.load_counts db4) picked) in
  if Counts.covered subset <> Counts.covered (Db.aggregate db4) then
    fail "rank subset does not cover the aggregate";
  if List.length picked > List.length (Db.ok_runs db4) then fail "rank picked too many runs";
  (* scan --db: §5.3 removal against the database before instrumentation *)
  run "scan --design gcd -m line --width 8 --db db_j4 --threshold 1";
  (* atomic saves leave no temp files behind *)
  List.iter
    (fun dir ->
      Array.iter
        (fun f -> if contains f ".tmp" then fail "leftover temp file %s/%s" dir f)
        (Sys.readdir dir))
    [ "db_j1"; "db_j4"; "db_crash" ];
  (* a corrupt timeline: a located error on stderr and exit 1 *)
  run "campaign --db db_corrupt -j 1 --design counter --backend compiled --seeds 1 --cycles 100";
  let tl = Filename.concat "db_corrupt" "r0001.tl" in
  Out_channel.with_open_bin tl (fun oc -> output_string oc "# sic coverage timeline v1\ntotal x\n");
  let rc =
    Sys.command
      (Printf.sprintf "%s db report db_corrupt --timeline > /dev/null 2> db_corrupt.err"
         (Filename.quote !sic))
  in
  if rc <> 1 then fail "db report on a corrupt timeline exited %d (wanted 1)" rc;
  let err = read_file "db_corrupt.err" in
  if not (contains err (Printf.sprintf "error: %s:2: bad total" tl)) then
    fail "corrupt timeline error is not located: %s" err;
  print_endline "check_campaign: ok"
