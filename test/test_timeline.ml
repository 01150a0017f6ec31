(** Unit tests for coverage-convergence timelines: the builder's
    monotonicity contract, the versioned text format, saturation detection
    and the sparkline renderer. *)

module Timeline = Sic_coverage.Timeline

let mk samples total =
  let b = Timeline.builder () in
  List.iter (fun (at, covered) -> Timeline.record b ~at ~covered) samples;
  Timeline.build ~total b

let test_builder () =
  let tl = mk [ (100, 2); (200, 5); (300, 5) ] 10 in
  Alcotest.(check (list (pair int int)))
    "samples in order"
    [ (100, 2); (200, 5); (300, 5) ]
    tl.Timeline.samples;
  Alcotest.(check int) "final covered" 5 (Timeline.final_covered tl);
  Alcotest.(check int) "last at" 300 (Timeline.last_at tl);
  (* a repeated [at] replaces: the final partial-chunk sample may land
     exactly on a sampling boundary *)
  let tl = mk [ (100, 2); (200, 4); (200, 6) ] 10 in
  Alcotest.(check (list (pair int int))) "repeat replaces" [ (100, 2); (200, 6) ]
    tl.Timeline.samples;
  (* going backwards in work is a programming error *)
  let b = Timeline.builder () in
  Timeline.record b ~at:200 ~covered:1;
  (match Timeline.record b ~at:100 ~covered:2 with
  | () -> Alcotest.fail "decreasing at accepted"
  | exception Invalid_argument _ -> ());
  Alcotest.(check int) "empty timeline is all zeros" 0
    (Timeline.final_covered Timeline.empty)

let test_text_round_trip () =
  let tl = mk [ (50, 1); (100, 3); (250, 7) ] 9 in
  let round = Timeline.of_string (Timeline.to_string tl) in
  Alcotest.(check bool) "survives print/parse" true (tl = round);
  (* comments and blank lines are ignored; stray whitespace is trimmed *)
  let parsed =
    Timeline.of_string
      "# sic coverage timeline v1\n\n# a comment\ntotal 4\n  10 1  \n20 3\n"
  in
  Alcotest.(check int) "total parsed" 4 parsed.Timeline.total;
  Alcotest.(check (list (pair int int))) "samples parsed" [ (10, 1); (20, 3) ]
    parsed.Timeline.samples

let check_bad name input =
  match Timeline.of_string input with
  | _ -> Alcotest.fail (name ^ ": accepted")
  | exception Sic_coverage.Artifact.Error e ->
      Alcotest.(check bool) (name ^ ": error has a message") true
        (String.length (Sic_coverage.Artifact.message e) > 0)

let test_bad_format () =
  check_bad "missing header" "total 3\n10 1\n";
  check_bad "future version" "# sic coverage timeline v9\ntotal 3\n";
  check_bad "malformed sample" "# sic coverage timeline v1\nten 1\n";
  check_bad "negative covered" "# sic coverage timeline v1\n10 -1\n";
  check_bad "non-increasing at" "# sic coverage timeline v1\n10 1\n10 2\n";
  (* the error message carries a line number *)
  match Timeline.of_string "# sic coverage timeline v1\ntotal 3\nbad line here\n" with
  | _ -> Alcotest.fail "malformed line accepted"
  | exception Sic_coverage.Artifact.Error e ->
      let msg = Sic_coverage.Artifact.message e in
      Alcotest.(check bool) "line number in message" true
        (String.length msg >= 7 && String.sub msg 0 7 = "line 3:")

let test_saturation () =
  Alcotest.(check (option int)) "empty has no saturation" None
    (Timeline.saturation_at Timeline.empty);
  Alcotest.(check (option int)) "all-zero has no saturation" None
    (Timeline.saturation_at (mk [ (10, 0); (20, 0) ] 5));
  (* final = 10; 99% needs >= 10, first reached at 300 *)
  let tl = mk [ (100, 5); (200, 9); (300, 10); (400, 10) ] 10 in
  Alcotest.(check (option int)) "p99 saturation" (Some 300) (Timeline.saturation_at tl);
  Alcotest.(check (option int)) "p50 saturation" (Some 100)
    (Timeline.saturation_at ~frac:0.5 tl)

let test_sparkline () =
  let line = Timeline.sparkline ~width:8 (mk [ (40, 5); (80, 10) ] 10) in
  Alcotest.(check int) "fixed width" 8 (String.length line);
  Alcotest.(check char) "fully covered ends at the top" '@' line.[7];
  Alcotest.(check string) "deterministic" line
    (Timeline.sparkline ~width:8 (mk [ (40, 5); (80, 10) ] 10));
  Alcotest.(check string) "empty timeline renders blank" (String.make 4 ' ')
    (Timeline.sparkline ~width:4 Timeline.empty)

let test_file_round_trip () =
  let path = Printf.sprintf "timeline_%d.tl" (Unix.getpid ()) in
  let tl = mk [ (10, 1); (20, 2) ] 3 in
  Timeline.save path tl;
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () -> Alcotest.(check bool) "save/load round-trip" true (Timeline.load path = tl))

let tests =
  [
    Alcotest.test_case "builder monotonicity" `Quick test_builder;
    Alcotest.test_case "text format round-trip" `Quick test_text_round_trip;
    Alcotest.test_case "bad formats rejected with line numbers" `Quick test_bad_format;
    Alcotest.test_case "saturation detection" `Quick test_saturation;
    Alcotest.test_case "sparkline rendering" `Quick test_sparkline;
    Alcotest.test_case "file round-trip" `Quick test_file_round_trip;
  ]
