(** Every artifact parser — counts, timeline, profile, replay trace, and
    the database's manifest and exclusions NDJSON files — under random
    bytes and single-byte mutations of real files: only the typed error
    ({!Sic_coverage.Artifact.Error}, or [Db_error] for the NDJSON files)
    may escape. Each format's v1 bytes are pinned by a golden string. *)

module Artifact = Sic_coverage.Artifact
module Counts = Sic_coverage.Counts
module Timeline = Sic_coverage.Timeline
module Profile = Sic_sim.Profile
module Replay = Sic_sim.Replay
module Db = Sic_db.Db
module Bv = Sic_bv.Bv

(* --- golden v1 bytes --------------------------------------------------- *)

let counts_v1 = "# sic coverage counts v1\n3 top.a\n0 top.b c\n12 z\n"

let timeline_v1 = "# sic coverage timeline v1\ntotal 4\n10 1\n20 3\n"

let profile_v1 =
  "# sic profile v1\nd alu 1 9\n0 1 0 1 eq e a b.v:1\nd gcd 2 50\n0 7 120 1 add x gcd.fir:3\n\
   1 0 0 0 mux y -\n"

let replay_v1 =
  "# sic replay trace v1\ninputs reset a b\nframes 2\n1 101 11001000\n0 010 00000000\n"

let manifest_v1 =
  "{\"type\":\"meta\",\"format\":\"sic-db\",\"version\":1}\n\
   {\"type\":\"run\",\"id\":\"r0001\",\"design\":\"gcd\",\"circuit_hash\":\"abc\",\
   \"backend\":\"compiled\",\"workload\":\"random\",\"seed\":3,\"cycles\":100,\"wave\":1,\
   \"wall_us\":12.5,\"points_total\":2,\"points_covered\":1,\"status\":\"ok\"}\n\
   {\"type\":\"run\",\"id\":\"r0002\",\"design\":\"gcd\",\"circuit_hash\":\"-\",\
   \"backend\":\"fuzz\",\"workload\":\"fuzz\",\"seed\":4,\"cycles\":10,\"wave\":0,\
   \"wall_us\":0.0,\"points_total\":0,\"points_covered\":0,\"status\":\"failed\",\
   \"error\":\"worker killed\"}\n"

let exclusions_v1 =
  "{\"type\":\"meta\",\"format\":\"sic-exclusions\",\"version\":1}\n\
   {\"type\":\"exclusion\",\"name\":\"dead\",\"reason\":\"unreachable within bound 8\",\
   \"design\":\"gcd\",\"wave\":2}\n"

let read path = In_channel.with_open_bin path In_channel.input_all

let write path text = Out_channel.with_open_bin path (fun oc -> output_string oc text)

let fresh_dir =
  let n = ref 0 in
  fun prefix ->
    incr n;
    Printf.sprintf "%s_%d_%d" prefix (Unix.getpid ()) !n

let test_golden () =
  let check name golden s = Alcotest.(check string) (name ^ " v1 bytes") golden s in
  check "counts" counts_v1
    (Counts.to_string (Counts.of_list [ ("top.b c", 0); ("top.a", 3); ("z", 12) ]));
  check "timeline" timeline_v1
    (Timeline.to_string { Timeline.total = 4; samples = [ (10, 1); (20, 3) ] });
  let row idx hits time_ns is_root op root loc =
    { Profile.idx; hits; time_ns; is_root; op; root; loc }
  in
  check "profile" profile_v1
    (Profile.to_string
       [
         {
           Profile.design = "gcd";
           runs = 2;
           cycles = 50;
           rows = [| row 0 7 120 true "add" "x" "gcd.fir:3"; row 1 0 0 false "mux" "y" "-" |];
         };
         {
           Profile.design = "alu";
           runs = 1;
           cycles = 9;
           rows = [| row 0 1 0 true "eq" "e" "a b.v:1" |];
         };
       ]);
  let bv w n = Bv.of_int ~width:w n in
  check "replay" replay_v1
    (Replay.to_string
       {
         Replay.input_names = [ "reset"; "a"; "b" ];
         frames = [| [| bv 1 1; bv 3 5; bv 8 200 |]; [| bv 1 0; bv 3 2; bv 8 0 |] |];
       });
  let dir = fresh_dir "artifact_golden" in
  let db = Db.init dir in
  ignore
    (Db.add db ~design:"gcd" ~circuit_hash:"abc" ~backend:"compiled" ~workload:"random" ~seed:3
       ~cycles:100 ~wave:1 ~wall_us:12.5
       (Ok (Counts.of_list [ ("a", 1); ("b", 0) ])));
  ignore
    (Db.add db ~design:"gcd" ~backend:"fuzz" ~workload:"fuzz" ~seed:4 ~cycles:10
       (Error "worker killed"));
  Db.add_exclusions db
    [
      {
        Db.ex_name = "dead";
        ex_reason = "unreachable within bound 8";
        ex_design = "gcd";
        ex_wave = 2;
      };
    ];
  check "manifest" manifest_v1 (read (Filename.concat dir "manifest.ndjson"));
  check "exclusions" exclusions_v1 (read (Filename.concat dir "exclusions.ndjson"));
  (* and every golden file reads back to the same bytes *)
  check "counts re-read" counts_v1 (Counts.to_string (Counts.of_string counts_v1));
  check "timeline re-read" timeline_v1 (Timeline.to_string (Timeline.of_string timeline_v1));
  check "profile re-read" profile_v1 (Profile.to_string (Profile.of_string profile_v1));
  check "replay re-read" replay_v1 (Replay.to_string (Replay.of_string replay_v1));
  Alcotest.(check int) "manifest re-read" 2 (List.length (Db.runs (Db.load dir)));
  Alcotest.(check (list string)) "exclusions re-read" [ "dead" ]
    (Db.excluded_names (Db.load dir))

(* --- the parsers under test -------------------------------------------- *)

(* The NDJSON files are read by [Db.load] from a directory: the manifest
   alone, or a valid manifest with the exclusions file under test. *)
let db_parser file =
  let dir =
    lazy
      (let d = fresh_dir ("artifact_" ^ file) in
       ignore (Db.init d);
       d)
  in
  fun text ->
    let dir = Lazy.force dir in
    write (Filename.concat dir file) text;
    ignore (Db.load dir)

let parsers : (string * string * (string -> unit)) list =
  [
    ("counts", counts_v1, fun s -> ignore (Counts.of_string s));
    ("timeline", timeline_v1, fun s -> ignore (Timeline.of_string s));
    ("profile", profile_v1, fun s -> ignore (Profile.of_string s));
    ("replay", replay_v1, fun s -> ignore (Replay.of_string s));
    ("manifest", manifest_v1, db_parser "manifest.ndjson");
    ("exclusions", exclusions_v1, db_parser "exclusions.ndjson");
  ]

let only_typed_errors (name, _, parse) text =
  match parse text with
  | () | (exception Artifact.Error _) | (exception Db.Db_error _) -> true
  | exception e ->
      QCheck.Test.fail_reportf "%s parser raised %s on %S" name (Printexc.to_string e) text

(* each format's own alphabet, so the soup reaches past the first token *)
let soup_char =
  QCheck.Gen.frequency
    [
      (6, QCheck.Gen.oneofl [ '0'; '1'; '2'; '9'; '-'; ' '; ' '; '\n'; '\n'; '#' ]);
      (4, QCheck.Gen.oneofl [ 's'; 'i'; 'c'; 'v'; 'd'; 't'; 'o'; 'a'; 'l'; 'n'; 'p'; 'u'; 'f' ]);
      (3, QCheck.Gen.oneofl [ '{'; '}'; '"'; ':'; ','; '['; ']'; '.'; 'e'; '\\'; '\t'; '\r' ]);
      (1, QCheck.Gen.char);
    ]

(* half the cases start with the format's own first line, so the soup is
   parsed as records rather than rejected at the header *)
let byte_soup =
  QCheck.Test.make ~count:300 ~name:"byte soup only raises the typed artifact errors"
    (QCheck.make
       QCheck.Gen.(pair bool (string_size ~gen:soup_char (int_bound 300)))
       ~print:(fun (h, s) -> Printf.sprintf "headed=%b %S" h s))
    (fun (headed, soup) ->
      List.for_all
        (fun ((_, golden, _) as p) ->
          let first = List.hd (String.split_on_char '\n' golden) in
          only_typed_errors p (if headed then first ^ "\n" ^ soup else soup))
        parsers)

let mutate rng src =
  let b = Bytes.of_string src in
  let n = Bytes.length b in
  for _ = 1 to 1 + (Sic_fuzz.Rng.bits30 rng () mod 8) do
    let i = Sic_fuzz.Rng.bits30 rng () mod n in
    let r = Sic_fuzz.Rng.bits30 rng () mod 96 in
    Bytes.set b i (if r = 95 then '\n' else Char.chr (32 + r))
  done;
  Bytes.to_string b

let mutated_golden =
  QCheck.Test.make ~count:300 ~name:"mutated golden files only raise the typed artifact errors"
    QCheck.small_int
    (fun seed ->
      let rng = Sic_fuzz.Rng.create seed in
      List.for_all (fun ((_, golden, _) as p) -> only_typed_errors p (mutate rng golden)) parsers)

let tests =
  [
    Alcotest.test_case "v1 bytes are pinned" `Quick test_golden;
    QCheck_alcotest.to_alcotest byte_soup;
    QCheck_alcotest.to_alcotest mutated_golden;
  ]
