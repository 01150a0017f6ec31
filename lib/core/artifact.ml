(** The rules every versioned text artifact shares; see artifact.mli. *)

type error = { file : string option; line : int option; msg : string }

exception Error of error

let message e =
  match (e.file, e.line) with
  | Some f, Some l -> Printf.sprintf "%s:%d: %s" f l e.msg
  | Some f, None -> Printf.sprintf "%s: %s" f e.msg
  | None, Some l -> Printf.sprintf "line %d: %s" l e.msg
  | None, None -> e.msg

let () =
  Printexc.register_printer (function Error e -> Some ("artifact error: " ^ message e) | _ -> None)

let raise_at line msg = raise (Error { file = None; line; msg })

let fail fmt = Printf.ksprintf (raise_at None) fmt

let fail_at line fmt = Printf.ksprintf (raise_at (Some line)) fmt

let header kind = "# sic " ^ kind ^ " v1"

(* only lines starting with '#' are compared against the header prefix, so
   a record line costs no more than splitting and trimming it *)
let iter_records kind text f =
  let header = header kind and prefix = "# sic " ^ kind in
  let headed = ref false and recorded = ref false in
  List.iteri
    (fun i line ->
      let line = String.trim line in
      if line = "" then ()
      else if line.[0] <> '#' then begin
        recorded := true;
        f (i + 1) line
      end
      else if String.starts_with ~prefix line then begin
        if line <> header then
          fail_at (i + 1) "unsupported %s format %S (this reader understands %S)" kind line header;
        if !recorded then fail_at (i + 1) "%S after the first record" header;
        headed := true
      end)
    (String.split_on_char '\n' text);
  !headed

let save path text =
  (* renaming over a symlink would replace the link, not its target, and a
     device or pipe ([/dev/stdout]) cannot be renamed over: write those in
     place *)
  let plain = try (Unix.lstat path).Unix.st_kind = Unix.S_REG with Unix.Unix_error _ -> true in
  if not plain then Out_channel.with_open_bin path (fun oc -> output_string oc text)
  else begin
    let tmp, oc =
      Filename.open_temp_file ~mode:[ Open_binary ] ~perms:0o666
        ~temp_dir:(Filename.dirname path) (Filename.basename path ^ ".") ".tmp"
    in
    try
      output_string oc text;
      close_out oc;
      Sys.rename tmp path
    with e ->
      close_out_noerr oc;
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e
  end

let load of_string path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  try of_string text with Error e when e.file = None -> raise (Error { e with file = Some path })
