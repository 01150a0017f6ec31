(** Engine profiler tests: the artifact format round-trips byte-exactly,
    merge is a positional pointwise sum that rejects shape mismatches, the
    word-level profiler's per-statement hit counts agree with the value
    changes the reference interpreter shows, and the artifact bytes are
    deterministic — independent of the [~activity] flag and of whether
    timing sampling is on. *)

module Bv = Sic_bv.Bv
open Helpers
open Sic_sim

(* drive a backend with deterministic pseudo-random inputs; the exact
   poke/step sequence is what both engines must see to be comparable *)
let drive (b : Backend.t) ~seed ~cycles =
  let rng = Sic_fuzz.Rng.create seed in
  let inputs = Backend.data_inputs b in
  Backend.reset_sequence b;
  for _ = 1 to cycles do
    List.iter
      (fun (n, ty) ->
        let w = Sic_ir.Ty.width ty in
        b.Backend.poke n (Bv.random ~width:w (Sic_fuzz.Rng.bits30 rng)))
      inputs;
    b.Backend.step 1
  done

let lower c = Sic_passes.Compile.lower c

let profiled_run ?(activity = false) ?(mode = Compiled.Counts_only) c ~seed ~cycles =
  let sim = Compiled.build ~activity ~profile:mode (lower c) in
  drive (Compiled.to_backend ~name:"compiled" sim) ~seed ~cycles;
  match Compiled.profile sim with
  | Some dp -> dp
  | None -> Alcotest.fail "profiled build returned no profile"

(* --- artifact format --------------------------------------------------- *)

let test_format_roundtrip () =
  let dp = profiled_run (gcd_circuit ()) ~mode:(Compiled.Sampled 3) ~seed:7 ~cycles:50 in
  let p = [ dp ] in
  let s = Profile.to_string p in
  let p' = Profile.of_string s in
  Alcotest.(check string) "to_string . of_string is the identity" s (Profile.to_string p');
  Alcotest.(check bool) "rows survived" true
    (match p' with [ d ] -> Array.length d.Profile.rows = Array.length dp.Profile.rows | _ -> false);
  Alcotest.(check bool) "some instruction was hit" true
    (Array.exists (fun (r : Profile.row) -> r.Profile.hits > 0) dp.Profile.rows);
  Alcotest.(check bool) "sampling recorded time" true (Profile.sampled dp);
  (* render and folded never fail on a real profile *)
  Alcotest.(check bool) "render is non-empty" true (String.length (Profile.render p) > 0);
  Alcotest.(check bool) "folded is non-empty" true (String.length (Profile.folded p) > 0)

let test_bad_format () =
  (match Profile.of_string "# sic profile v99\n" with
  | _ -> Alcotest.fail "unknown version must raise"
  | exception Sic_coverage.Artifact.Error _ -> ());
  (match Profile.of_string "# sic profile v1\nd g 1 1\nnot a row\n" with
  | _ -> Alcotest.fail "malformed row must raise"
  | exception Sic_coverage.Artifact.Error _ -> ());
  (* counts are never negative: a design line or a row that says so is
     rejected at its line *)
  List.iter
    (fun (what, text) ->
      match Profile.of_string text with
      | _ -> Alcotest.fail (what ^ " must raise")
      | exception Sic_coverage.Artifact.Error e ->
          Alcotest.(check (option int))
            (what ^ " is located") (Some 2) e.Sic_coverage.Artifact.line)
    [
      ("negative runs/cycles", "# sic profile v1\nd g -1 -5\n");
      ("negative hits/time", "d g 1 1\n0 -3 -7 1 node x -\n");
    ]

let test_merge () =
  let dp = profiled_run (gcd_circuit ()) ~seed:3 ~cycles:40 in
  let doubled =
    match Profile.merge [ [ dp ]; [ dp ] ] with
    | [ d ] -> d
    | _ -> Alcotest.fail "merge of one design yields one design"
  in
  Array.iteri
    (fun i (r : Profile.row) ->
      Alcotest.(check int)
        (Printf.sprintf "row %d hits doubled" i)
        (2 * r.Profile.hits) doubled.Profile.rows.(i).Profile.hits)
    dp.Profile.rows;
  Alcotest.(check int) "runs summed" (2 * dp.Profile.runs) doubled.Profile.runs;
  (* mismatched tape shapes for the same design are corruption, not data *)
  let truncated =
    { dp with Profile.rows = Array.sub dp.Profile.rows 0 (Array.length dp.Profile.rows - 1) }
  in
  match Profile.merge [ [ dp ]; [ truncated ] ] with
  | _ -> Alcotest.fail "shape mismatch must raise"
  | exception Sic_coverage.Artifact.Error _ -> ()

(* --- differential: hit counts vs interp --------------------------------- *)

(* The word-level engine counts value-changing evaluations per named
   statement. The interpreter is the reference: drive it with the same
   poke/step sequence (reset step included), peek every root statement
   before each edge, and count value changes from zero — the counts must
   be identical. A register's row counts its next-value connect, which
   its peeked value shows one edge later, so registers are peeked once
   more after the final edge. *)
let check_against_interp name c =
  let seed = 11 and cycles = 60 in
  let low = lower c in
  let dp = profiled_run c ~seed ~cycles in
  let regs = Hashtbl.create 16 in
  Sic_ir.Stmt.iter
    (function Sic_ir.Stmt.Reg { name; _ } -> Hashtbl.replace regs name () | _ -> ())
    (Sic_ir.Circuit.main low).Sic_ir.Circuit.body;
  let roots =
    List.filter (fun (r : Profile.row) -> r.Profile.is_root) (Array.to_list dp.Profile.rows)
  in
  let b = Interp.create low in
  let watched = List.map (fun (r : Profile.row) -> (r.Profile.root, ref None, ref 0)) roots in
  let sample ~regs_only =
    List.iter
      (fun (n, prev, hits) ->
        if (not regs_only) || Hashtbl.mem regs n then begin
          let v = b.Backend.peek n in
          let changed =
            match !prev with None -> not (Bv.is_zero v) | Some p -> not (Bv.equal p v)
          in
          if changed then incr hits;
          prev := Some v
        end)
      watched
  in
  let step n =
    for _ = 1 to n do
      sample ~regs_only:false;
      b.Backend.step 1
    done
  in
  drive { b with Backend.step } ~seed ~cycles;
  sample ~regs_only:true;
  List.iter2
    (fun (r : Profile.row) (n, _, hits) ->
      Alcotest.(check int) (Printf.sprintf "%s: hits of %s" name n) !hits r.Profile.hits)
    roots watched;
  Alcotest.(check bool)
    (Printf.sprintf "%s: compared registers and other statements (%d)" name (List.length roots))
    true
    (Hashtbl.length regs > 0 && List.length roots > Hashtbl.length regs)

let test_hits_match_interp () =
  List.iter
    (fun (name, c) -> check_against_interp name c)
    [
      ("gcd", gcd_circuit ());
      ("fifo", Sic_designs.Fifo.circuit ());
      ("arbiter", Sic_designs.Arbiter.circuit ());
      ("riscv-mini", Sic_designs.Riscv_mini.circuit ());
    ]

(* --- determinism ------------------------------------------------------- *)

(* Same design, seed and cycle count must produce byte-identical artifacts
   whatever the engine configuration: the [~activity] flag (profiled builds
   always run the change-driven schedule) and — for the hit columns —
   whether timing sampling is on. *)
let artifact_deterministic =
  let designs =
    [|
      ("gcd", fun () -> gcd_circuit ());
      ("fifo", fun () -> Sic_designs.Fifo.circuit ());
      ("counter", fun () -> Sic_designs.Counter.circuit ());
    |]
  in
  QCheck.Test.make ~count:20 ~name:"profile artifact bytes are schedule-independent"
    QCheck.(triple (int_bound 2) (int_bound 1000) (int_range 1 60))
    (fun (di, seed, cycles) ->
      let _, build = designs.(di) in
      let run ~activity ~mode = profiled_run ~activity ~mode (build ()) ~seed ~cycles in
      let plain = run ~activity:false ~mode:Compiled.Counts_only in
      let act = run ~activity:true ~mode:Compiled.Counts_only in
      let sampled = run ~activity:false ~mode:(Compiled.Sampled 2) in
      Profile.to_string [ plain ] = Profile.to_string [ act ]
      && Array.for_all2
           (fun (a : Profile.row) (b : Profile.row) -> a.Profile.hits = b.Profile.hits)
           plain.Profile.rows sampled.Profile.rows)

let tests =
  [
    Alcotest.test_case "artifact round-trips byte-exactly" `Quick test_format_roundtrip;
    Alcotest.test_case "malformed artifacts raise Bad_format" `Quick test_bad_format;
    Alcotest.test_case "merge sums pointwise, rejects shape mismatch" `Quick test_merge;
    Alcotest.test_case "hit counts agree with the reference tape" `Quick
      test_hits_match_interp;
    QCheck_alcotest.to_alcotest artifact_deterministic;
  ]
