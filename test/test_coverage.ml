(** Tests for the coverage instrumentation passes, report generators, and
    the §3 contract: every backend reports the *same* counts map for the
    same stimulus. *)

module Bv = Sic_bv.Bv
module Counts = Sic_coverage.Counts
module Line = Sic_coverage.Line_coverage
module Toggle = Sic_coverage.Toggle_coverage
module Fsm = Sic_coverage.Fsm_coverage
module Rv = Sic_coverage.Ready_valid_coverage
module Mux = Sic_coverage.Mux_coverage
open Helpers
open Sic_sim

(* instrument with line coverage, then lower *)
let line_instrumented c =
  let c, db = Line.instrument c in
  (Sic_passes.Compile.lower c, db)

let test_line_gcd () =
  let low, db = line_instrumented (gcd_circuit ()) in
  let b = Compiled.create low in
  let result = run_gcd b 12 8 in
  Alcotest.(check int) "gcd still correct" 4 result;
  let counts = b.Backend.counts () in
  let r = Line.report db counts in
  (* every branch of the GCD is exercised by gcd(12,8): load, iterate with
     x>y and x<=y, and output fire *)
  Alcotest.(check int) "all branches covered" r.Line.branches_total r.Line.branches_covered;
  Alcotest.(check bool) "has branches" true (r.Line.branches_total > 5)

let test_line_partial () =
  (* gcd(8, 8): x > y never holds, so that branch stays uncovered *)
  let low, db = line_instrumented (gcd_circuit ()) in
  let b = Compiled.create low in
  ignore (run_gcd b 8 8);
  let r = Line.report db (b.Backend.counts ()) in
  Alcotest.(check bool) "some branch uncovered" true
    (r.Line.branches_covered < r.Line.branches_total);
  Alcotest.(check bool) "uncovered branches reported" true (r.Line.never_covered <> [])

let test_line_report_renders () =
  let low, db = line_instrumented (gcd_circuit ()) in
  let b = Compiled.create low in
  ignore (run_gcd b 270 192);
  let text = Line.render db (b.Backend.counts ()) in
  let contains ~needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions the source file" true (contains ~needle:"helpers.ml" text);
  Alcotest.(check bool) "has a branches summary" true (contains ~needle:"branches:" text)

let test_line_counts_identical_across_backends () =
  let low, _db = line_instrumented (gcd_circuit ()) in
  let runs =
    List.map
      (fun (_, create) ->
        let b = create low in
        ignore (run_gcd b 270 192);
        b.Backend.counts ())
      backends
  in
  match runs with
  | first :: rest ->
      List.iteri
        (fun i c ->
          Alcotest.(check bool)
            (Printf.sprintf "backend %d equals backend 0" (i + 1))
            true (Counts.equal first c))
        rest
  | [] -> Alcotest.fail "no backends"

let test_toggle () =
  let c = Sic_passes.Compile.lower (gcd_circuit ()) in
  let c, db = Toggle.instrument c in
  let b = Compiled.create c in
  ignore (run_gcd b 270 192);
  let r = Toggle.report db (b.Backend.counts ()) in
  Alcotest.(check bool) "bits instrumented" true (r.Toggle.bits_total > 50);
  Alcotest.(check bool) "some toggled" true (r.Toggle.bits_toggled > 10);
  Alcotest.(check bool) "some stuck (upper result bits)" true (r.Toggle.stuck <> [])

let test_toggle_alias_dedup () =
  (* a wire chain a -> b -> c must be instrumented once, not three times *)
  let cb = Sic_ir.Dsl.create_circuit "Chain" in
  Sic_ir.Dsl.module_ cb "Chain" (fun m ->
      let open Sic_ir.Dsl in
      let x = input m "x" (Sic_ir.Ty.UInt 4) in
      let a = wire m "a" (Sic_ir.Ty.UInt 4) in
      let b = wire m "b" (Sic_ir.Ty.UInt 4) in
      let out = output m "out" (Sic_ir.Ty.UInt 4) in
      connect m a x;
      connect m b a;
      connect m out b);
  let c = Sic_ir.Dsl.finalize cb in
  let low = Sic_passes.Compile.lower c in
  let _, db = Toggle.instrument low in
  (* x, a, b, out always carry the same value: one alias group, 4 bits,
     plus the (1-bit) reset input — 5 points instead of 13 *)
  Alcotest.(check int) "5 cover points only" 5 (List.length db.Toggle.points);
  let aliased =
    List.filter (fun p -> List.length p.Toggle.aliases >= 1) db.Toggle.points
  in
  (* the x/a/b/out group is covered by one representative with 3 aliases *)
  Alcotest.(check int) "4 aliased points (one per bit)" 4 (List.length aliased);
  List.iter
    (fun (p : Toggle.point) ->
      Alcotest.(check int) "3 aliases" 3 (List.length p.Toggle.aliases))
    aliased

let test_toggle_first_cycle_disabled () =
  (* an input toggling at cycle boundary 0 must not count: the previous
     value register is not yet valid *)
  let c = Sic_passes.Compile.lower (Sic_designs.Counter.circuit ~width:4 ~limit:15 ()) in
  let c, db = Toggle.instrument c in
  let b = Compiled.create c in
  (* do nothing but step: only the enable-tracking bits may move *)
  b.Backend.step 1;
  let counts = b.Backend.counts () in
  List.iter
    (fun (p : Toggle.point) ->
      Alcotest.(check int) ("no first-cycle toggle for " ^ p.Toggle.cover_name) 0
        (Counts.get counts p.Toggle.cover_name))
    db.Toggle.points

let test_fsm_analysis () =
  let c, _ = fsm_circuit () in
  let low = Sic_passes.Compile.lower c in
  let low, db = Fsm.instrument low in
  (match db with
  | [ f ] ->
      Alcotest.(check int) "three states" 3 (List.length f.Fsm.state_covers);
      let ts =
        List.map (fun (t, _) -> (t.Fsm.from_state, t.Fsm.to_state)) f.Fsm.transition_covers
      in
      let expect = [ ("A", "A"); ("A", "B"); ("B", "B"); ("B", "C"); ("C", "C") ] in
      List.iter
        (fun e -> Alcotest.(check bool) "expected transition found" true (List.mem e ts))
        expect;
      Alcotest.(check int) "exactly the five real transitions" 5 (List.length ts);
      Alcotest.(check bool) "not over-approximated" false f.Fsm.over_approximated
  | _ -> Alcotest.fail "expected exactly one fsm");
  (* drive it: A->A, A->B, B->B, B->C, C->C *)
  let b = Compiled.create low in
  Backend.reset_sequence b;
  let poke v = b.Backend.poke "in" (Bv.of_int ~width:1 v) in
  poke 1;
  b.Backend.step 1;
  poke 0;
  b.Backend.step 1;
  (* now in B *)
  poke 1;
  b.Backend.step 1;
  poke 0;
  b.Backend.step 2;
  let counts = b.Backend.counts () in
  let r = Fsm.report db counts in
  Alcotest.(check int) "all 3 states covered" 3 r.Fsm.states_covered;
  Alcotest.(check int) "all 5 transitions covered" 5 r.Fsm.transitions_covered

let test_fsm_over_approximation () =
  (* a state register whose next value comes through an opaque arithmetic
     op must be conservatively over-approximated *)
  let cb = Sic_ir.Dsl.create_circuit "Opaque" in
  let s = Sic_ir.Dsl.enum cb "OpaqueS" [ "X"; "Y" ] in
  Sic_ir.Dsl.module_ cb "Opaque" (fun m ->
      let open Sic_ir.Dsl in
      let in_ = input m "in" (Sic_ir.Ty.UInt 1) in
      let out = output m "out" (Sic_ir.Ty.UInt 1) in
      let st = reg_enum m "st" s "X" in
      connect m st (bits_s (st +: resize in_ 1) ~hi:0 ~lo:0);
      connect m out st);
  let c = Sic_ir.Dsl.finalize cb in
  let low = Sic_passes.Compile.lower c in
  let _, db = Fsm.instrument low in
  match db with
  | [ f ] ->
      Alcotest.(check bool) "over-approximated" true f.Fsm.over_approximated;
      Alcotest.(check int) "all 2x2 transitions assumed" 4
        (List.length f.Fsm.transition_covers)
  | _ -> Alcotest.fail "expected one fsm"

let test_ready_valid () =
  let low = Sic_passes.Compile.lower (gcd_circuit ()) in
  let low, db = Rv.instrument low in
  Alcotest.(check int) "two decoupled bundles" 2 (List.length db);
  let b = Compiled.create low in
  ignore (run_gcd b 12 8);
  let counts = b.Backend.counts () in
  List.iter
    (fun (p : Rv.point) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s fired" p.Rv.prefix)
        true
        (Counts.get counts p.Rv.cover_name > 0))
    db

let test_mux_coverage () =
  let low = Sic_passes.Compile.lower (gcd_circuit ()) in
  let low, db = Mux.instrument low in
  Alcotest.(check bool) "found mux selects" true (List.length db > 3);
  let b = Compiled.create low in
  ignore (run_gcd b 270 192);
  let counts = b.Backend.counts () in
  let both =
    List.filter
      (fun (p : Mux.point) ->
        Counts.get counts p.Mux.cover_true > 0 && Counts.get counts p.Mux.cover_false > 0)
      db
  in
  Alcotest.(check bool) "some selects toggled both ways" true (List.length both > 0)

let test_merge_and_removal () =
  let low, _db = line_instrumented (gcd_circuit ()) in
  (* run 1 covers only the x>y path, run 2 only the y>x path *)
  let b1 = Compiled.create low in
  ignore (run_gcd b1 64 4);
  let b2 = Compiled.create low in
  ignore (run_gcd b2 4 64);
  let c1 = b1.Backend.counts () and c2 = b2.Backend.counts () in
  let merged = Counts.merge [ c1; c2 ] in
  Alcotest.(check bool) "merged covers more than either" true
    (Counts.covered_points merged >= max (Counts.covered_points c1) (Counts.covered_points c2));
  List.iter
    (fun name ->
      Alcotest.(check int) "merge adds counts" (Counts.get c1 name + Counts.get c2 name)
        (Counts.get merged name))
    (Counts.names merged);
  (* removal: drop everything covered >= 1, rerun, check fewer counters *)
  let { Sic_coverage.Removal.circuit = stripped; removed; kept } =
    Sic_coverage.Removal.remove_covered ~threshold:1 merged low
  in
  Alcotest.(check int) "removed + kept = total" (Counts.total_points merged)
    (List.length removed + List.length kept);
  let b3 = Compiled.create stripped in
  ignore (run_gcd b3 12 8);
  Alcotest.(check int) "stripped circuit reports only kept covers"
    (List.length kept)
    (Counts.total_points (b3.Backend.counts ()))

let test_line_on_parsed_circuit () =
  (* a circuit parsed from text without info tokens still gets branch
     coverage; the line report just has no source lines *)
  let src =
    "circuit P :\n\
    \  module P :\n\
    \    input clock : Clock\n\
    \    input reset : UInt<1>\n\
    \    input x : UInt<2>\n\
    \    output y : UInt<2>\n\n\
    \    connect y, UInt<2>(0)\n\
    \    when eq(x, UInt<2>(3)) :\n\
    \      connect y, UInt<2>(1)\n\
    \    else :\n\
    \      connect y, UInt<2>(2)\n"
  in
  let c = Sic_ir.Parser.parse_circuit src in
  let c, db = Line.instrument c in
  let low = Sic_passes.Compile.lower c in
  let b = Compiled.create low in
  Backend.reset_sequence b;
  b.Backend.poke "x" (Bv.of_int ~width:2 3);
  b.Backend.step 1;
  b.Backend.poke "x" (Bv.of_int ~width:2 1);
  b.Backend.step 1;
  let r = Line.report db (b.Backend.counts ()) in
  Alcotest.(check int) "3 branches (when, else, root)" 3 r.Line.branches_total;
  Alcotest.(check int) "all covered" 3 r.Line.branches_covered;
  Alcotest.(check int) "no source lines available" 0 r.Line.lines_total;
  (* render must not crash without locators *)
  Alcotest.(check bool) "renders" true (String.length (Line.render db (b.Backend.counts ())) > 0)

let test_counts_io () =
  let c = Counts.of_list [ ("a.b.cov_1", 42); ("z", 0); ("m", 7) ] in
  let round = Counts.of_string (Counts.to_string c) in
  Alcotest.(check bool) "counts round-trip" true (Counts.equal c round)

(* toggle counts must equal the number of adjacent differing value pairs
   (after the first cycle) for each bit of a driven input *)
let toggle_count_semantics =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"toggle counts = adjacent-pair differences"
       QCheck.(list_of_size (QCheck.Gen.int_range 2 30) (int_bound 15))
       (fun values ->
         let cb = Sic_ir.Dsl.create_circuit "T" in
         Sic_ir.Dsl.module_ cb "T" (fun m ->
             let open Sic_ir.Dsl in
             let x = input m "x" (Sic_ir.Ty.UInt 4) in
             let out = output m "out" (Sic_ir.Ty.UInt 4) in
             connect m out x);
         let low = Sic_passes.Compile.lower (Sic_ir.Dsl.finalize cb) in
         let low, db = Toggle.instrument low in
         let b = Compiled.create low in
         List.iter
           (fun v ->
             b.Backend.poke "x" (Bv.of_int ~width:4 v);
             b.Backend.step 1)
           values;
         let counts = b.Backend.counts () in
         (* expected toggles per bit of x: x is sampled per cycle; the
            first comparison (cycle 1 vs power-on 0) is disabled *)
         let expected bit =
           let rec go prev rest acc =
             match rest with
             | [] -> acc
             | v :: tl ->
                 let b0 = (prev lsr bit) land 1 and b1 = (v lsr bit) land 1 in
                 go v tl (if b0 <> b1 then acc + 1 else acc)
           in
           match values with [] -> 0 | first :: tl -> go first tl 0
         in
         List.for_all
           (fun (p : Toggle.point) ->
             if p.Toggle.signal = "x" then
               Counts.get counts p.Toggle.cover_name = expected p.Toggle.bit
             else true)
           db.Toggle.points))

let test_fsm_exact_transition_counts () =
  let c, _ = fsm_circuit () in
  let low = Sic_passes.Compile.lower c in
  let low, db = Fsm.instrument low in
  let b = Compiled.create low in
  Backend.reset_sequence b;
  (* scripted walk: A -A-> A (in=1), A->B (0), B->B (1), B->B (1),
     B->C (0), C->C x2 (any) *)
  List.iter
    (fun v ->
      b.Backend.poke "in" (Bv.of_int ~width:1 v);
      b.Backend.step 1)
    [ 1; 0; 1; 1; 0; 1; 0 ];
  let counts = b.Backend.counts () in
  let f = List.hd db in
  let count from_ to_ =
    let _, cover =
      List.find
        (fun (t, _) -> t.Fsm.from_state = from_ && t.Fsm.to_state = to_)
        f.Fsm.transition_covers
    in
    Counts.get counts cover
  in
  Alcotest.(check int) "A->A once" 1 (count "A" "A");
  Alcotest.(check int) "A->B once" 1 (count "A" "B");
  Alcotest.(check int) "B->B twice" 2 (count "B" "B");
  Alcotest.(check int) "B->C once" 1 (count "B" "C");
  Alcotest.(check int) "C->C twice" 2 (count "C" "C")

let test_cover_values_equivalence () =
  (* native cover-values vs expansion into 2^w covers: same totals *)
  let build () =
    let cb = Sic_ir.Dsl.create_circuit "Cv" in
    Sic_ir.Dsl.module_ cb "Cv" (fun m ->
        let open Sic_ir.Dsl in
        let x = input m "x" (Sic_ir.Ty.UInt 3) in
        let out = output m "out" (Sic_ir.Ty.UInt 3) in
        connect m out x;
        cover_values m "vals" x);
    Sic_ir.Dsl.finalize cb
  in
  let low = Sic_passes.Compile.lower (build ()) in
  let expanded = Sic_coverage.Cover_values.expand low in
  let drive b =
    Backend.reset_sequence b;
    List.iter
      (fun v ->
        b.Backend.poke "x" (Bv.of_int ~width:3 v);
        b.Backend.step 1)
      [ 0; 1; 1; 2; 5; 5; 5; 7 ]
  in
  let bn = Compiled.create low in
  drive bn;
  let be = Compiled.create expanded in
  drive be;
  Alcotest.(check bool) "native = expanded counts" true
    (Counts.equal (bn.Backend.counts ()) (be.Backend.counts ()))

let test_fsm_reset_cover () =
  let c, _ = fsm_circuit () in
  let low = Sic_passes.Compile.lower c in
  let low, db = Fsm.instrument low in
  let f = List.hd db in
  match f.Fsm.reset_cover with
  | None -> Alcotest.fail "reset cover expected"
  | Some (init, cover) ->
      Alcotest.(check string) "resets into A" "A" init;
      let b = Compiled.create low in
      Backend.reset_sequence b;
      b.Backend.step 5;
      Alcotest.(check int) "reset entry counted once" 1 (Counts.get (b.Backend.counts ()) cover);
      Backend.reset_sequence b;
      Alcotest.(check int) "second reset counted" 2 (Counts.get (b.Backend.counts ()) cover)

let test_switch_default () =
  let cb = Sic_ir.Dsl.create_circuit "Sw" in
  Sic_ir.Dsl.module_ cb "Sw" (fun m ->
      let open Sic_ir.Dsl in
      let x = input m "x" (Sic_ir.Ty.UInt 2) in
      let out = output m "out" (Sic_ir.Ty.UInt 4) in
      connect m out (lit 4 0);
      switch m x
        ~default:(fun () -> connect m out (lit 4 15))
        [
          (lit 2 0, fun () -> connect m out (lit 4 5));
          (lit 2 1, fun () -> connect m out (lit 4 6));
        ]);
  let b = Compiled.create (lower (Sic_ir.Dsl.finalize cb)) in
  let expect x v =
    b.Backend.poke "x" (Bv.of_int ~width:2 x);
    Alcotest.(check int) (Printf.sprintf "x=%d" x) v (Bv.to_int_trunc (b.Backend.peek "out"))
  in
  expect 0 5;
  expect 1 6;
  expect 2 15;
  expect 3 15

let test_waivers () =
  let open Sic_coverage.Removal in
  (* glob semantics *)
  Alcotest.(check bool) "literal" true (matches ~pattern:"a.b" "a.b");
  Alcotest.(check bool) "star middle" true (matches ~pattern:"core*.l_Alu_0" "core0.alu.l_Alu_0");
  Alcotest.(check bool) "star all" true (matches ~pattern:"*" "anything");
  Alcotest.(check bool) "no match" false (matches ~pattern:"icache.*" "dcache.state");
  Alcotest.(check bool) "multi star" true (matches ~pattern:"*fsm*WriteThrough*" "fsm_icache.state_state_WriteThrough");
  (* ? matches exactly one character *)
  Alcotest.(check bool) "qmark one char" true (matches ~pattern:"core?.alu" "core0.alu");
  Alcotest.(check bool) "qmark not empty" false (matches ~pattern:"core?.alu" "core.alu");
  Alcotest.(check bool) "qmark not two chars" false (matches ~pattern:"core?.alu" "core10.alu");
  Alcotest.(check bool) "qmark matches dot" true (matches ~pattern:"a?b" "a.b");
  Alcotest.(check bool) "qmark with star" true (matches ~pattern:"l_???_*" "l_GCD_12");
  Alcotest.(check bool) "qmark with star, wrong width" false (matches ~pattern:"l_???_*" "l_IO_12");
  Alcotest.(check bool) "trailing qmark" true (matches ~pattern:"l_Alu_?" "l_Alu_7");
  Alcotest.(check bool) "trailing qmark needs a char" false (matches ~pattern:"l_Alu_?" "l_Alu_");
  (* parse waiver text *)
  Alcotest.(check (list string)) "parse" [ "a*"; "b.c" ]
    (parse_waivers "# comment\na*\n\n  b.c  \n");
  (* apply to an instrumented circuit *)
  let c, _ = Line.instrument (gcd_circuit ()) in
  let low = Sic_passes.Compile.lower c in
  let total = List.length (Sic_ir.Circuit.covers_of (Sic_ir.Circuit.main low)) in
  let r = remove_matching ~patterns:[ "l_GCD_1"; "l_GCD_2" ] low in
  Alcotest.(check int) "two waived" 2 (List.length r.removed);
  Alcotest.(check int) "rest kept" (total - 2) (List.length r.kept);
  let b = Compiled.create r.circuit in
  ignore (run_gcd b 12 8);
  Alcotest.(check int) "waived covers gone from counts" (total - 2)
    (Counts.total_points (b.Backend.counts ()))

let counts_merge_props =
  let gen_counts =
    QCheck.Gen.(
      map Counts.of_list
        (small_list (pair (map (Printf.sprintf "c%d") (int_bound 10)) (int_bound 1000))))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"counts merge: commutative, associative, identity"
       (QCheck.make QCheck.Gen.(triple gen_counts gen_counts gen_counts))
       (fun (a, b, c) ->
         Counts.equal (Counts.merge [ a; b ]) (Counts.merge [ b; a ])
         && Counts.equal
              (Counts.merge [ Counts.merge [ a; b ]; c ])
              (Counts.merge [ a; Counts.merge [ b; c ] ])
         && Counts.equal (Counts.merge [ a; Counts.create () ]) (Counts.merge [ a ])))

let counts_union_props =
  let gen_counts =
    QCheck.Gen.(
      map Counts.of_list
        (small_list (pair (map (Printf.sprintf "c%d") (int_bound 10)) (int_bound 1000))))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200
       ~name:"counts union_max: commutative, associative, idempotent; merge is not"
       (QCheck.make QCheck.Gen.(triple gen_counts gen_counts gen_counts))
       (fun (a, b, c) ->
         Counts.equal (Counts.union_max [ a; b ]) (Counts.union_max [ b; a ])
         && Counts.equal
              (Counts.union_max [ Counts.union_max [ a; b ]; c ])
              (Counts.union_max [ a; Counts.union_max [ b; c ] ])
         (* idempotent: re-delivering the same run is a no-op *)
         && Counts.equal (Counts.union_max [ a; a ]) (Counts.union_max [ a ])
         && Counts.equal (Counts.union_max [ a; Counts.create () ]) (Counts.union_max [ a ])
         (* merge, by contrast, is only idempotent on all-zero maps *)
         && Counts.equal (Counts.merge [ a; a ]) a
            = List.for_all (fun (_, v) -> v = 0) (Counts.to_sorted_list a)
         (* union_max never exceeds merge pointwise *)
         && List.for_all
              (fun (n, v) -> v <= Counts.get (Counts.merge [ a; b ]) n)
              (Counts.to_sorted_list (Counts.union_max [ a; b ]))))

let test_union_max_zeros () =
  let a = Counts.of_list [ ("p", 0); ("q", 2) ] in
  let b = Counts.of_list [ ("q", 1); ("r", 0) ] in
  let u = Counts.union_max [ a; b ] in
  Alcotest.(check int) "zero-count keys preserved" 3 (Counts.total_points u);
  Alcotest.(check int) "max wins" 2 (Counts.get u "q");
  Alcotest.(check (list string)) "covered set is the union of covered sets" [ "q" ]
    (Counts.covered u)

let test_counts_format () =
  let contains ~needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  let c = Counts.of_list [ ("a", 1); ("b", 0) ] in
  let s = Counts.to_string c in
  (* the first line is the versioned header, and it round-trips *)
  (match String.split_on_char '\n' s with
  | first :: _ -> Alcotest.(check string) "versioned header" "# sic coverage counts v1" first
  | [] -> Alcotest.fail "empty counts text");
  Alcotest.(check bool) "round-trips" true (Counts.equal c (Counts.of_string s));
  (* an incompatible future header is rejected, naming its line *)
  (try
     ignore (Counts.of_string "# sic coverage counts v2\n1 a\n");
     Alcotest.fail "v2 header accepted"
   with Sic_coverage.Artifact.Error e ->
     Alcotest.(check bool) "v2 error has line number" true (e.Sic_coverage.Artifact.line = Some 1));
  (try
     ignore (Counts.of_string "# a comment\n1 a\n# sic coverage counts v9\n");
     Alcotest.fail "late v9 header accepted"
   with Sic_coverage.Artifact.Error e ->
     Alcotest.(check bool) "late header error has line number" true
       (e.Sic_coverage.Artifact.line = Some 3));
  (* malformed data lines carry their line number too *)
  (try
     ignore (Counts.of_string "# sic coverage counts v1\n1 a\nnope b\n");
     Alcotest.fail "bad count accepted"
   with Sic_coverage.Artifact.Error e ->
     Alcotest.(check bool) "bad count names line 3" true
       (contains ~needle:"line 3" (Sic_coverage.Artifact.message e)));
  (* ordinary comments and blank lines are still skipped *)
  let c' = Counts.of_string "# sic coverage counts v1\n\n# note\n3 x\n" in
  Alcotest.(check int) "data parsed around comments" 3 (Counts.get c' "x")

let tests =
  [
    Alcotest.test_case "fsm: reset entry cover" `Quick test_fsm_reset_cover;
    Alcotest.test_case "dsl: switch default" `Quick test_switch_default;
    Alcotest.test_case "waivers" `Quick test_waivers;
    counts_merge_props;
    counts_union_props;
    Alcotest.test_case "union_max keeps zero-count keys" `Quick test_union_max_zeros;
    Alcotest.test_case "counts format: header, versions, line numbers" `Quick
      test_counts_format;
    Alcotest.test_case "line: full coverage on gcd" `Quick test_line_gcd;
    Alcotest.test_case "line: partial coverage detected" `Quick test_line_partial;
    Alcotest.test_case "line: report renders" `Quick test_line_report_renders;
    Alcotest.test_case "identical counts across backends" `Quick
      test_line_counts_identical_across_backends;
    Alcotest.test_case "toggle: gcd" `Quick test_toggle;
    Alcotest.test_case "toggle: alias dedup" `Quick test_toggle_alias_dedup;
    Alcotest.test_case "toggle: first cycle disabled" `Quick test_toggle_first_cycle_disabled;
    Alcotest.test_case "fsm: figure 7 analysis" `Quick test_fsm_analysis;
    Alcotest.test_case "fsm: over-approximation" `Quick test_fsm_over_approximation;
    Alcotest.test_case "ready/valid: gcd" `Quick test_ready_valid;
    Alcotest.test_case "mux toggle: gcd" `Quick test_mux_coverage;
    Alcotest.test_case "merge and removal" `Quick test_merge_and_removal;
    Alcotest.test_case "counts file round-trip" `Quick test_counts_io;
    Alcotest.test_case "line coverage on parsed circuits" `Quick test_line_on_parsed_circuit;
    Alcotest.test_case "cover-values: native = expanded" `Quick test_cover_values_equivalence;
    toggle_count_semantics;
    Alcotest.test_case "fsm: exact transition counts" `Quick test_fsm_exact_transition_counts;
  ]
