(* The server binary's link mode (DESIGN.md, "Link mode"): on Linux
   [onll] is a static, fixed-address executable. Its ELF header says
   [ET_EXEC] (a PIE reads [ET_DYN]) and no program header asks for a
   dynamic loader ([PT_INTERP]). A dependency change that quietly brought
   the dynamic link back fails here. *)

let exe = "../../bin/onll_cli.exe"
let et_exec = 2
let pt_interp = 3

(* The ELF file type and the type of every program header, for either
   class and either byte order. *)
let read_elf path =
  In_channel.with_open_bin path @@ fun ic ->
  let bytes off len =
    In_channel.seek ic (Int64.of_int off);
    match In_channel.really_input_string ic len with
    | Some s -> s
    | None -> Alcotest.failf "%s: truncated at byte %d" path off
  in
  let ident = bytes 0 16 in
  if String.sub ident 0 4 <> "\x7fELF" then
    Alcotest.failf "%s: not an ELF file" path;
  let wide = ident.[4] = '\002' and le = ident.[5] = '\001' in
  let u16 s o =
    if le then String.get_uint16_le s o else String.get_uint16_be s o
  in
  let u32 s o =
    let w = if le then String.get_int32_le s o else String.get_int32_be s o in
    Int32.to_int w land 0xffff_ffff
  in
  let h = bytes 0 (if wide then 64 else 52) in
  let phoff =
    if wide then
      Int64.to_int
        (if le then String.get_int64_le h 32 else String.get_int64_be h 32)
    else u32 h 28
  in
  let phentsize = u16 h (if wide then 54 else 42) in
  let phnum = u16 h (if wide then 56 else 44) in
  let p_type i = u32 (bytes (phoff + (i * phentsize)) 4) 0 in
  (u16 h 16, List.init phnum p_type)

let test_static_fixed_address () =
  if Build_system.name <> "linux" then Alcotest.skip ();
  let e_type, p_types = read_elf exe in
  Alcotest.(check int) "e_type = ET_EXEC (not a PIE)" et_exec e_type;
  Alcotest.(check bool)
    "no PT_INTERP (no dynamic loader)" false
    (List.mem pt_interp p_types)

let () =
  Alcotest.run "link"
    [
      ( "onll",
        [
          Alcotest.test_case "static, fixed-address on Linux" `Quick
            test_static_fixed_address;
        ] );
    ]
