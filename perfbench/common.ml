(* Shared plumbing: the monotonic clock, op records and their statistics,
   metric lists, tracing spans, layer samples and the host fingerprint. *)

module Obs = Sic_obs.Obs
module Json = Sic_obs.Json
module Counts = Sic_coverage.Counts

let now_s () = float_of_int (Obs.now_ns ()) *. 1e-9

let time f =
  let t0 = now_s () in
  let r = f () in
  (r, now_s () -. t0)

(* ------------------------------------------------------------------ *)
(* Run context                                                          *)
(* ------------------------------------------------------------------ *)

type ctx = {
  seed : int;  (** the workload seed; every generated input derives from it *)
  seconds : float;  (** length of the timed phase *)
  min_ops : int;  (** the timed phase also runs until this many ops are done *)
  out : string;  (** this workload's scratch directory *)
  sic : string;  (** the sic binary, for the ingest server *)
  small : bool;  (** smoke mode: shrink rounds to a few ops *)
}

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end

(* a fresh, empty directory under the workload's scratch area *)
let fresh_dir ctx name =
  mkdir_p ctx.out;
  let d = Filename.concat ctx.out name in
  rm_rf d;
  d

(* ------------------------------------------------------------------ *)
(* Ops                                                                  *)
(* ------------------------------------------------------------------ *)

type op = {
  kind : string;  (** design or request kind, for the per-kind check *)
  round : int;
  lat_s : float;
  mutable ok : bool;  (** cleared by a failed output check *)
}

let failures : string list ref = ref []

(* record a failed check; the caller marks the affected ops *)
let check cond fmt =
  Printf.ksprintf
    (fun msg ->
      if not cond then begin
        failures := msg :: !failures;
        prerr_endline ("check failed: " ^ msg)
      end;
      cond)
    fmt

let fail_ops pred ops = List.iter (fun o -> if pred o then o.ok <- false) ops

(* Where one seed fixes a whole op's work (a fuzzer trajectory, a
   closure), rounds cycle through this many seeds derived from the
   workload seed, so that a run's percentiles do not hang on one
   trajectory. Round [r] repeats round [r mod seed_slots]. *)
let seed_slots = 4

let slot_seed seed slot =
  Int64.to_int
    (Int64.logand
       (Sic_fuzz.Rng.next64 (Sic_fuzz.Rng.split (Sic_fuzz.Rng.create seed) slot))
       0x3FFFFFFFL)

(* nearest-rank percentile; a failed op counts as +infinity *)
let percentile q values =
  let a = Array.of_list values in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q /. 100. *. float_of_int n)) - 1)))

let median l = percentile 50. l

let latencies ops = List.map (fun o -> if o.ok then o.lat_s else infinity) ops
let passed ops = List.length (List.filter (fun o -> o.ok) ops)

(* ------------------------------------------------------------------ *)
(* Host speed                                                           *)
(* ------------------------------------------------------------------ *)

(* A shared host's speed drifts: the same fixed work can take half as
   long again a few minutes later, and no run length averages that out.
   So the harness times a fixed kernel between rounds and set-ups, and
   reports every timing scaled to the host speed at which that kernel
   takes [calib_reference_s]. The drift hits the memory system more than
   the cores, and the kernel has two parts that the drift moves by
   different amounts: pseudo-random updates of a 512 KiB table for about
   a quarter of its time, then allocation of short-lived maps and lists. On repeated identical campaign and fuzz rounds, over
   four stretches of a few minutes, that mix tracked the program's own
   slowdowns best (README.md has the figures).

   The kernel runs in a child forked at start-up, whose heap holds nothing
   but the kernel's own data: run in the harness, its garbage collection
   would also pay for the program's live heap, and a program that kept
   more memory would read as a slower host. The harness waits while the
   child runs, so the two never compete for a core. *)
let calib_reference_s = 0.01

module Int_map = Map.Make (Int)

let calib_tbl = Array.make 65536 0

let calib_kernel () =
  let x = ref 88172645463325252 in
  for i = 0 to 599_999 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    let j = !x land 65535 in
    calib_tbl.(j) <- calib_tbl.(j) + i
  done;
  let m = ref Int_map.empty in
  for i = 0 to 20_000 do
    m := Int_map.add (i * 7919 land 4095) i !m
  done;
  let l = List.init 20_000 (fun i -> i * 31337 land 65535) in
  ignore (Sys.opaque_identity (List.sort compare l, !m))

type calibrator = { pid : int; req : out_channel; resp : in_channel }

let calibrator : calibrator option ref = ref None

(* Fork the calibration child; call before any thread starts. It answers
   each byte on its request pipe with one kernel's time, and exits when
   the pipe closes. *)
let start_calibrator () =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close req_w;
      Unix.close resp_r;
      let ic = Unix.in_channel_of_descr req_r and oc = Unix.out_channel_of_descr resp_w in
      (try
         while true do
           ignore (input_char ic);
           let (), t = time calib_kernel in
           Printf.fprintf oc "%h\n%!" t
         done
       with End_of_file | Sys_error _ -> ());
      Unix._exit 0
  | pid ->
      Unix.close req_r;
      Unix.close resp_w;
      calibrator :=
        Some
          { pid; req = Unix.out_channel_of_descr req_w; resp = Unix.in_channel_of_descr resp_r }

let stop_calibrator () =
  Option.iter
    (fun c ->
      close_out_noerr c.req;
      ignore (Unix.waitpid [] c.pid);
      close_in_noerr c.resp)
    !calibrator;
  calibrator := None

let () = at_exit stop_calibrator

let calib_samples : float list ref = ref []

(* Run the kernel for about [budget] seconds, and at least once. Returns
   the host's slowdown over those samples, their median kernel time over
   [calib_reference_s], and the time spent. *)
let calibrate budget =
  let c = Option.get !calibrator in
  let t0 = now_s () in
  let rec go acc =
    output_char c.req 'k';
    flush c.req;
    let acc = float_of_string (input_line c.resp) :: acc in
    if now_s () -. t0 < budget then go acc else acc
  in
  let samples = go [] in
  calib_samples := samples @ !calib_samples;
  (median samples /. calib_reference_s, now_s () -. t0)

(* the slowdown over every sample of the run *)
let host_slowdown () = median !calib_samples /. calib_reference_s

type phase = {
  ops : op list;  (** in order; latencies at the reference speed *)
  wall_s : float;  (** the rounds' time at the reference speed *)
  raw_ops : op list;  (** the same on this host's clock *)
  raw_wall_s : float;
}

(* Run rounds until [seconds] have passed at the reference speed and at
   least [min_ops] ops completed. Each round is bracketed by calibrations,
   the one after it taking a tenth of its time, and its time and latencies
   are scaled by the mean slowdown of the two: the host's speed moves
   within a run too. Timing at the reference speed also keeps a run's op
   count, and so the size of the ingest database, off the host's speed;
   on a host slower than the reference by half or more, the rounds stop
   after [1.5 *. seconds] on its own clock. *)
let run_rounds ~seconds ~min_ops round =
  let before, c0 = calibrate 0.02 in
  let t0 = now_s () in
  let acc = ref [] and raw = ref [] and n = ref 0 in
  let calib = ref c0 and wall = ref 0. and before = ref before in
  while (!wall < seconds && now_s () -. t0 -. !calib < 1.5 *. seconds) || !n < min_ops do
    let ops, t = time round in
    let after, c = calibrate (t /. 10.) in
    let k = (!before +. after) /. 2. in
    before := after;
    calib := !calib +. c;
    wall := !wall +. (t /. k);
    n := !n + List.length ops;
    raw := List.rev_append ops !raw;
    acc := List.rev_append (List.map (fun o -> { o with lat_s = o.lat_s /. k }) ops) !acc
  done;
  {
    ops = List.rev !acc;
    wall_s = !wall;
    raw_ops = List.rev !raw;
    raw_wall_s = now_s () -. t0 -. !calib;
  }

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let peak_rss_mb_of_status path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> nan
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                  float_of_int kb /. 1024.)
            else go ()
      in
      go ())

let end_to_end ~setup_s ~ops ~wall_s ~rss_mb =
  let lat = latencies ops in
  [
    m "setup_s" "s" setup_s;
    m "ops_per_s" "1/s" (float_of_int (passed ops) /. wall_s);
    m "latency_p50_ms" "ms" (1e3 *. percentile 50. lat);
    m "latency_p90_ms" "ms" (1e3 *. percentile 90. lat);
    m "peak_rss_mb" "MB" rss_mb;
  ]

(* Set up [k] times and keep the last environment; earlier ones are torn
   down. Each set-up is bracketed by calibrations and scaled like a round.
   Returns the median set-up time at the reference speed and on this
   host's clock. *)
let repeated_setup ~k ~setup ~teardown =
  let before = ref (fst (calibrate 0.02)) in
  let rec go i times raw =
    let env, t = time setup in
    let after, _ = calibrate (Float.min 0.1 (Float.max 0.02 t)) in
    let times = (t /. ((!before +. after) /. 2.)) :: times and raw = t :: raw in
    before := after;
    if i + 1 >= k then (env, median times, median raw)
    else begin
      teardown env;
      go (i + 1) times raw
    end
  in
  go 0 [] []

(* ------------------------------------------------------------------ *)
(* Tracing                                                              *)
(* ------------------------------------------------------------------ *)

(* Spans are recorded from the benchmark's own code around calls into the
   program; each carries the op id and its parent span's name. *)
let span ?(op = -1) ?(parent = "run") name f =
  if not (Obs.on ()) then f ()
  else begin
    let t0 = Obs.now_us () in
    let r = f () in
    Obs.record_span ~name ~start_us:t0 ~dur_us:(Obs.now_us () -. t0)
      [ ("op", Obs.Int op); ("parent", Obs.Str parent) ];
    r
  end

(* Obs.enable restarts the trace clock at zero; pin every enable to the
   first one's instant, so a trace switched off and on again keeps one
   time base *)
let trace_t0 = lazy (now_s ())

let trace_on () =
  let t0 = Lazy.force trace_t0 in
  Obs.set_clock (fun () -> t0);
  Obs.enable ();
  Obs.set_clock now_s

let record_span ?(op = -1) ?(parent = "run") name ~start_s ~dur_s =
  if Obs.on () then
    Obs.record_span ~name ~start_us:(start_s *. 1e6) ~dur_us:(dur_s *. 1e6)
      [ ("op", Obs.Int op); ("parent", Obs.Str parent) ]

(* Per-layer samples, keyed by metric name; a metric's value is the median
   of its samples. *)
module Layers = struct
  let tbl : (string, float list) Hashtbl.t = Hashtbl.create 32

  let frozen : (string, unit) Hashtbl.t = Hashtbl.create 32

  (* keep the samples taken so far as they are: later samples of the same
     names are dropped *)
  let freeze () = Hashtbl.iter (fun name _ -> Hashtbl.replace frozen name ()) tbl

  let add name v =
    if not (Hashtbl.mem frozen name) then
      Hashtbl.replace tbl name (v :: Option.value ~default:[] (Hashtbl.find_opt tbl name))

  (* time [f] as a span named [name] and add its duration, scaled, as a
     sample ([scale] 1e3 for ms, 1e6 for us) *)
  let timed ?op ?parent ~scale name f =
    let t0 = now_s () in
    let r = span ?op ?parent name f in
    add name ((now_s () -. t0) *. scale);
    r

  let mem name = Hashtbl.mem tbl name
  let count name = List.length (Option.value ~default:[] (Hashtbl.find_opt tbl name))
  let sample_median name = median (Hashtbl.find tbl name)
end

(* ------------------------------------------------------------------ *)
(* Host fingerprint                                                     *)
(* ------------------------------------------------------------------ *)

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec go acc =
            match input_line ic with exception End_of_file -> List.rev acc | l -> go (l :: acc)
          in
          go [])

let command_output cmd =
  let ic = Unix.open_process_in (cmd ^ " 2>/dev/null") in
  let line = try input_line ic with End_of_file -> "" in
  match Unix.close_process_in ic with Unix.WEXITED 0 when line <> "" -> line | _ -> "unknown"

let host_json () =
  let cpuinfo = read_lines "/proc/cpuinfo" in
  let field name =
    List.filter_map
      (fun l ->
        match String.index_opt l ':' with
        | Some i when String.trim (String.sub l 0 i) = name ->
            Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
        | _ -> None)
      cpuinfo
  in
  Json.Obj
    [
      ("nproc", Json.Int (List.length (field "processor")));
      ("cpu_model", Json.String (match field "model name" with m :: _ -> m | [] -> "unknown"));
      ("ocaml", Json.String Sys.ocaml_version);
      ( "git_rev",
        Json.String
          (if Sys.file_exists ".git" then command_output "git rev-parse HEAD" else "unknown") );
    ]

let digest_counts c = Digest.to_hex (Digest.string (Counts.to_string c))
