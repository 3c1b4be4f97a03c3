(** Scratch directories for the subprocess campaigns (E17, E18): one fresh
    directory per scenario under the system temp dir, removed after. *)

(** A new empty directory named [<prefix>-<pid>-<n>]. *)
let fresh =
  let n = ref 0 in
  fun ~prefix ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) !n)
    in
    Unix.mkdir d 0o755;
    d

let rm_rf dir =
  let rec go p =
    if Sys.is_directory p then begin
      Array.iter (fun f -> go (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
    end
    else Sys.remove p
  in
  if Sys.file_exists dir then go dir

(** [f] over a {!fresh} directory, removed after. *)
let with_fresh ~prefix f =
  let d = fresh ~prefix in
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

exception Exists of string
(** A scenario directory was already there: a kept campaign's store. *)

(** A new empty directory [<base>/<name>]: one scenario's store.
    @raise Exists (with its path) if it is already there, so a campaign
    never runs over an earlier one's kept stores. *)
let sub base name =
  let d = Filename.concat base name in
  (try Unix.mkdir d 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> raise (Exists d));
  d
