(** Record-and-replay testbenches (§5.1 methodology).

    [record] runs a stimulus program against a backend while capturing the
    top-level inputs each cycle; [replay] plays a captured trace into any
    backend — a minimal testbench that isolates raw simulation time from
    stimulus generation, and the mechanism behind the cross-backend
    "identical counts" tests. *)

module Bv = Sic_bv.Bv
module Artifact = Sic_coverage.Artifact

type trace = {
  input_names : string list;  (** includes reset *)
  frames : Bv.t array array;  (** frames.(cycle).(input index) *)
}

let cycles (t : trace) = Array.length t.frames

(** [record backend ~cycles drive] steps [backend] for [cycles] edges; each
    cycle [drive backend cycle] is called first to poke inputs, then the
    pre-edge input values are captured. *)
let record (b : Backend.t) ~cycles (drive : Backend.t -> int -> unit) : trace =
  let input_names =
    "reset" :: List.map fst (Backend.data_inputs b)
  in
  let frames = Array.make cycles [||] in
  for cycle = 0 to cycles - 1 do
    drive b cycle;
    frames.(cycle) <- Array.of_list (List.map b.Backend.peek input_names);
    b.Backend.step 1
  done;
  { input_names; frames }

(** Replay a trace from the beginning into a fresh backend instance.
    Trace channels that are not inputs of the target (e.g. a full
    waveform dump that also recorded outputs and registers) are
    ignored. *)
let replay (b : Backend.t) (t : trace) =
  let pokable =
    "reset" :: List.map fst (Backend.data_inputs b)
  in
  let names = Array.of_list t.input_names in
  let keep = Array.map (fun n -> List.mem n pokable) names in
  Array.iter
    (fun frame ->
      Array.iteri (fun i v -> if keep.(i) then b.Backend.poke names.(i) v) frame;
      b.Backend.step 1)
    t.frames

(* ------------------------------------------------------------------ *)
(* Text interchange                                                     *)
(* ------------------------------------------------------------------ *)

let kind = "replay trace"

let format_header = Artifact.header kind

(** The pipe/artifact serialization: a versioned header, the input-channel
    names, then one line per cycle of space-separated binary values (the
    string length {e is} each value's width). Line-oriented and fully
    self-describing, under the shared {!Sic_coverage.Artifact} rules —
    fleet workers ship BMC witnesses back over their result pipes in
    exactly this text. *)
let to_string (t : trace) : string =
  let buf = Buffer.create 256 in
  Buffer.add_string buf format_header;
  Buffer.add_char buf '\n';
  Buffer.add_string buf ("inputs " ^ String.concat " " t.input_names);
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Printf.sprintf "frames %d\n" (Array.length t.frames));
  Array.iter
    (fun frame ->
      Array.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ' ';
          Buffer.add_string buf (Bv.to_binary_string v))
        frame;
      Buffer.add_char buf '\n')
    t.frames;
  Buffer.contents buf

let of_string (s : string) : trace =
  let inputs = ref None and declared = ref None in
  let frames = ref [] and n = ref 0 and last = ref 0 in
  let headed =
    Artifact.iter_records kind s (fun lineno line ->
        last := lineno;
        let words = String.split_on_char ' ' line in
        match (!inputs, !declared) with
        | None, _ -> (
            match words with
            | "inputs" :: names when names <> [] -> inputs := Some names
            | _ -> Artifact.fail_at lineno "expected `inputs <name>...'")
        | Some _, None -> (
            match words with
            | [ "frames"; k ] -> (
                match int_of_string_opt k with
                | Some k when k >= 0 -> declared := Some k
                | _ -> Artifact.fail_at lineno "bad frame count %S" k)
            | _ -> Artifact.fail_at lineno "expected `frames <n>'")
        | Some names, Some k ->
            if !n >= k then Artifact.fail_at lineno "more than the %d declared frames" k;
            let cells = List.filter (fun c -> c <> "") words in
            let width = List.length names in
            if List.length cells <> width then
              Artifact.fail_at lineno "%d values for %d inputs" (List.length cells) width;
            let value c =
              try Bv.of_binary_string c
              with Invalid_argument _ -> Artifact.fail_at lineno "bad value %S" c
            in
            frames := Array.of_list (List.map value cells) :: !frames;
            incr n)
  in
  if not headed then Artifact.fail "missing %S header" format_header;
  match (!inputs, !declared) with
  | Some input_names, Some k ->
      if !n < k then Artifact.fail_at (!last + 1) "truncated trace: %d of %d frames" !n k;
      { input_names; frames = Array.of_list (List.rev !frames) }
  | _ -> Artifact.fail "truncated trace header"

(** Save / load a trace as a VCD file, so recorded workloads are ordinary
    waveform artifacts. *)
let save_vcd path (b : Backend.t) (t : trace) =
  let widths =
    List.map
      (fun n ->
        if n = "reset" then ("reset", 1)
        else (n, Sic_ir.Ty.width (List.assoc n (Backend.data_inputs b))))
      t.input_names
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let w = Vcd.create_writer oc ~scope:"replay" widths in
      Array.iter
        (fun frame ->
          Vcd.sample w (List.mapi (fun i n -> (n, frame.(i))) t.input_names))
        t.frames)

let load_vcd path : trace =
  let wave = Vcd.read_file path in
  let input_names = List.map fst wave.Vcd.signals in
  let frames =
    Array.map
      (fun assignment ->
        Array.of_list
          (List.map
             (fun n ->
               match List.assoc_opt n assignment with
               | Some v -> v
               | None -> Bv.zero 1)
             input_names))
      wave.Vcd.frames
  in
  { input_names; frames }
