(* fuzz: one Fuzzer.run per round on rv.v with sic fuzz's settings (line
   feedback, seed_cycles 32, max_cycles 128) and snapshot_every 10. One op
   is one block of 10 executions, timed between on_snapshot calls. Round
   [r] runs with the fuzzer seed of slot [r mod seed_slots]. *)

open Common
module Fuzzer = Sic_fuzz.Fuzzer
module Backend = Sic_sim.Backend

type env = {
  ctx : ctx;
  harness : Fuzzer.harness;
  execs : int;
  fuzz_seeds : int array;  (** per seed slot *)
  mutable rounds : int;
  first : (Fuzzer.result * string) option array;
      (** per seed slot, its first round and that round's fingerprint *)
}

(* instrument the way [sic fuzz -m line] does *)
let instrument c =
  let c, _ = Sic_coverage.Line_coverage.instrument c in
  Sic_passes.Compile.lower c

let setup ctx =
  let rv =
    Layers.timed ~scale:1e3 "verilog.load_ms" (fun () ->
        Sic_verilog.Verilog.load_file W_campaign.rv_path)
  in
  let low = Layers.timed ~scale:1e3 "passes.instrument_ms" (fun () -> instrument rv) in
  (* under tracing the engine is wrapped to time its calls *)
  let create c =
    if not (Obs.on ()) then Sic_sim.Compiled.create c
    else begin
      let b = Layers.timed ~scale:1e3 "sim.create_ms" (fun () -> Sic_sim.Compiled.create c) in
      let counts () = Layers.timed ~scale:1e6 "sim.harvest_us" b.Backend.counts in
      { b with Backend.counts }
    end
  in
  {
    ctx;
    harness = Fuzzer.make_harness ~create low;
    execs = (if ctx.small then 20 else 500);
    fuzz_seeds = Array.init seed_slots (slot_seed ctx.seed);
    rounds = 0;
    first = Array.make seed_slots None;
  }

let teardown _ = ()
type input = ctx

let prepare ctx = ctx

let fingerprint (res : Fuzzer.result) =
  let f = res.Fuzzer.final in
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%d %d %d %s %s" f.Fuzzer.execs f.Fuzzer.corpus_size f.Fuzzer.seen_pairs
          (digest_counts f.Fuzzer.cumulative)
          (String.concat ","
             (List.map (fun b -> Digest.to_hex (Digest.bytes b)) res.Fuzzer.corpus))))

let run_fuzzer ?(harness = fun h -> h) env ~slot ~on_snapshot =
  Fuzzer.run ~seed:env.fuzz_seeds.(slot) ~execs:env.execs ~snapshot_every:10 ~max_cycles:128
    ~seed_cycles:32 ~on_snapshot (harness env.harness)

let round env =
  let r = env.rounds in
  let slot = r mod seed_slots in
  env.rounds <- r + 1;
  let ops = ref [] in
  let last = ref (now_s ()) in
  let on_snapshot ~execs ~covered:_ =
    let t = now_s () in
    record_span ~op:(execs / 10) ~parent:"fuzz.round" "fuzz.block" ~start_s:!last
      ~dur_s:(t -. !last);
    ops := { kind = "block"; round = r; lat_s = t -. !last; ok = true } :: !ops;
    last := t
  in
  let res = span ~op:r "fuzz.round" (fun () -> run_fuzzer env ~slot ~on_snapshot) in
  let ops = List.rev !ops in
  let fp = fingerprint res in
  (match env.first.(slot) with
  | None -> env.first.(slot) <- Some (res, fp)
  | Some (_, f) ->
      if not (check (f = fp) "fuzz round %d differs from round %d" r slot) then
        fail_ops (fun o -> o.round = r) ops);
  ops

let finish env ops =
  (* each slot's final corpus, re-executed on the reference interpreter,
     must cover exactly the points of its cumulative counts *)
  let h = Fuzzer.make_harness ~create:Sic_sim.Interp.create env.harness.Fuzzer.circuit in
  let slots = List.filter_map Fun.id (Array.to_list env.first) in
  List.iteri
    (fun slot ((res : Fuzzer.result), _) ->
      let replayed = Counts.merge (List.map (Fuzzer.execute h) res.Fuzzer.corpus) in
      if
        not
          (check
             (Counts.covered replayed = Counts.covered res.Fuzzer.final.Fuzzer.cumulative)
             "fuzz: slot %d's corpus re-executed on interp covers other points than its \
              cumulative counts"
             slot)
      then fail_ops (fun o -> o.round mod seed_slots = slot) ops)
    slots;
  let f = (fst (List.hd slots)).Fuzzer.final in
  Layers.add "fuzz.execs" (float_of_int f.Fuzzer.execs);
  Layers.add "fuzz.new_coverage_ratio"
    (float_of_int (f.Fuzzer.corpus_size - 1) /. float_of_int f.Fuzzer.execs);
  let per_slot g = Json.List (List.map g slots) in
  [
    ("fuzz.execs", Json.Int f.Fuzzer.execs);
    ( "corpus_size",
      per_slot (fun ((res : Fuzzer.result), _) -> Json.Int res.Fuzzer.final.Fuzzer.corpus_size) );
    ( "points_covered",
      per_slot (fun ((res : Fuzzer.result), _) ->
          Json.Int (Counts.covered_points res.Fuzzer.final.Fuzzer.cumulative)) );
    ("result_digest", per_slot (fun (_, fp) -> Json.String fp));
  ]

let rss_mb _ = peak_rss_mb_of_status "/proc/self/status"

(* Re-execute slot 0's corpus in-process: Fuzzer.execute per input, a
   havoc round per input, and one input stepped by hand for the per-cycle
   split. *)
let split env =
  let res, _ = Option.get env.first.(0) in
  let h = { env.harness with Fuzzer.create = Sic_sim.Compiled.create } in
  let corpus = Array.of_list res.Fuzzer.corpus in
  let rng = Sic_fuzz.Rng.create env.fuzz_seeds.(0) in
  Array.iteri
    (fun i input ->
      ignore
        (Layers.timed ~op:i ~parent:"fuzz.split" ~scale:1e3 "fuzz.exec_ms" (fun () ->
             Fuzzer.execute h input));
      ignore
        (Layers.timed ~op:i ~parent:"fuzz.split" ~scale:1e6 "fuzz.mutate_us" (fun () ->
             Fuzzer.mutate rng corpus input)))
    corpus;
  Array.iteri
    (fun i input ->
      let b = Layers.timed ~op:i ~parent:"fuzz.split" ~scale:1e3 "sim.create_ms" (fun () ->
          Sic_sim.Compiled.create h.Fuzzer.circuit)
      in
      Layers.timed ~op:i ~parent:"fuzz.split" ~scale:1e6 "sim.reset_us" (fun () ->
          Backend.reset_sequence ~cycles:h.Fuzzer.reset_cycles b);
      (* the harness's own unpacking, one cycle at a time *)
      let n = Bytes.length input / h.Fuzzer.bytes_per_cycle in
      let stim = ref 0. and step = ref 0. in
      for c = 0 to n - 1 do
        let frame = Bytes.sub input (c * h.Fuzzer.bytes_per_cycle) h.Fuzzer.bytes_per_cycle in
        let t0 = now_s () in
        let bit i = (Char.code (Bytes.get frame (i / 8)) lsr (i mod 8)) land 1 = 1 in
        let off = ref 0 in
        List.iter
          (fun (name, w) ->
            let v = ref (Sic_bv.Bv.zero w) in
            for k = 0 to w - 1 do
              if bit (!off + k) then
                v := Sic_bv.Bv.logor ~width:w !v (Sic_bv.Bv.shift_left ~width:w (Sic_bv.Bv.one w) k)
            done;
            off := !off + w;
            b.Backend.poke name !v)
          h.Fuzzer.inputs;
        let t1 = now_s () in
        b.Backend.step 1;
        stim := !stim +. (t1 -. t0);
        step := !step +. (now_s () -. t1)
      done;
      if n > 0 then begin
        Layers.add "sim.stimulus_ns_per_cycle" (1e9 *. !stim /. float_of_int n);
        Layers.add "sim.step_ns_per_cycle" (1e9 *. !step /. float_of_int n)
      end;
      let counts =
        Layers.timed ~op:i ~parent:"fuzz.split" ~scale:1e6 "sim.harvest_us" b.Backend.counts
      in
      ignore
        (check
           (Counts.equal counts (Fuzzer.execute h input))
           "fuzz split: hand-stepped input %d differs from Fuzzer.execute" i))
    corpus;
  (* slot 0's round once more, counting the cycles it simulates *)
  let cycles = ref 0 in
  let counting c =
    let b = Sic_sim.Compiled.create c in
    let step n =
      cycles := !cycles + n;
      b.Backend.step n
    in
    { b with Backend.step }
  in
  ignore
    (run_fuzzer env ~slot:0
       ~harness:(fun h -> { h with Fuzzer.create = counting })
       ~on_snapshot:(fun ~execs:_ ~covered:_ -> ()));
  Layers.add "sim.cycles" (float_of_int !cycles)
