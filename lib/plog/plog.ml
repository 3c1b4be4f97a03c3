open Onll_util

let header_size = 64
let slot_a = 0
let slot_b = 32
let slot_bytes = 32
let no_slot = -1

(* Salvage skip markers: a 16-byte pseudo-entry [neg_span:int64
   crc32(neg_span‖magic):int64] written over the start of a quarantined
   corrupt span. Negative length distinguishes it from real entries; the
   CRC distinguishes it from garbage. Any quarantined span is >= 17 bytes
   (a real entry is 16 bytes of header plus a non-empty payload), so the
   marker always fits. *)
let skip_magic = 0x534B49504D41524BL (* "SKIPMARK" *)

(* Bounded retry budget for transiently failing flush/fence pairs. Fault
   plans cap consecutive transient failures well below this, so a durable
   operation always eventually lands. *)
let retry_budget = 8

(* Mirror replicas live in sibling regions named with a '~' separator,
   which never appears in caller-chosen log names (ONLL names its logs
   "spec.N.plog.P"). Fault plans target one side of a mirrored log by
   region name. *)
let mirror_sep = '~'

let replica_region_name name r =
  if r = 0 then name else Printf.sprintf "%s%c%d" name mirror_sep r

let is_mirror_region name = String.contains name mirror_sep

let crc_of_int64s a b = Crc32.int64 ~init:(Crc32.int64 a) b

(* A header slot's checksum: over seq, head and bound. *)
let slot_crc seq head bound =
  Crc32.int64 ~init:(crc_of_int64s seq head) bound

let crc_to_int64 c = Int64.logand (Int64.of_int32 c) 0xFFFFFFFFL

exception Full

(* An entry's checksum covers [len:int64 ‖ payload], taken in one call
   with no frame built, as an int: the stored int64 is compared with it
   unboxed. *)
let entry_crc_int payload =
  Crc32.length_prefixed payload ~pos:0 ~len:(String.length payload)

let entry_crc payload = Int32.of_int (entry_crc_int payload)

(* A native-endian int64 load with no bounds check. Only whether a word is
   zero matters below, so the byte order does not. *)
external get64u : string -> int -> int64 = "%caml_string_get64u"

(* Index of the last nonzero byte of [s], or -1 if it is all zeros: the
   bytes past the last whole word one at a time, then backward 32 bytes
   at a time (four words OR-ed together) while a whole block remains, a
   word at a time below that, finishing inside the first nonzero word
   byte by byte. Every load is at [0, whole - 8], inside [s]. *)
let rec last_nonzero_byte s i lo =
  if i < lo then -1
  else if String.unsafe_get s i <> '\000' then i
  else last_nonzero_byte s (i - 1) lo

let rec last_nonzero_word s w =
  if w < 0 then -1
  else if get64u s w <> 0L then last_nonzero_byte s (w + 7) w
  else last_nonzero_word s (w - 8)

let rec last_nonzero_block s w =
  if w < 24 then last_nonzero_word s w
  else if
    Int64.logor
      (Int64.logor (get64u s w) (get64u s (w - 8)))
      (Int64.logor (get64u s (w - 16)) (get64u s (w - 24)))
    <> 0L
  then last_nonzero_word s w
  else last_nonzero_block s (w - 32)

let last_nonzero s =
  let whole = String.length s land lnot 7 in
  match last_nonzero_byte s (String.length s - 1) whole with
  | -1 -> last_nonzero_block s (whole - 8)
  | i -> i

(* Recovery's clean-end check loads a free remainder in pieces of at most
   [zero_chunk] bytes (see [classify]), and a header's written bound runs
   this far past the bytes the log has written (see [next_bound]), so the
   check of a healthy log is one such piece. *)
let zero_chunk = 1 lsl 16

(* One shared block of zeros: a span is zeroed by storing it again and
   again ([Make.store_zeros]), and the CRC of zeros is taken over it, so
   neither allocates in proportion to the span. *)
let zeros = String.make zero_chunk '\000'

(* The CRC of [n] zero bytes, continuing [init]. *)
let rec crc_zeros init n =
  if n = 0 then init
  else
    let k = min n zero_chunk in
    crc_zeros
      (Crc32.bytes ~init (Bytes.unsafe_of_string zeros) ~pos:0 ~len:k)
      (n - k)

type salvage_report = {
  torn_tail_bytes : int;
  quarantined_spans : int;
  quarantined_bytes : int;
  skip_markers : int;
  repaired_entries : int;
  repaired_bytes : int;
}

let clean_report =
  {
    torn_tail_bytes = 0;
    quarantined_spans = 0;
    quarantined_bytes = 0;
    skip_markers = 0;
    repaired_entries = 0;
    repaired_bytes = 0;
  }

let report_lost r = r.torn_tail_bytes + r.quarantined_bytes

let pp_salvage_report ppf r =
  Format.fprintf ppf
    "@[<h>torn_tail=%dB quarantined=%d spans (%dB) markers=%d repaired=%d \
     (%dB)@]"
    r.torn_tail_bytes r.quarantined_spans r.quarantined_bytes r.skip_markers
    r.repaired_entries r.repaired_bytes

type scrub_report = {
  scrubbed_entries : int;
  scrub_repaired_entries : int;
  scrub_repaired_bytes : int;
  unrepairable_spans : int;
}

let clean_scrub =
  {
    scrubbed_entries = 0;
    scrub_repaired_entries = 0;
    scrub_repaired_bytes = 0;
    unrepairable_spans = 0;
  }

let add_scrub a b =
  {
    scrubbed_entries = a.scrubbed_entries + b.scrubbed_entries;
    scrub_repaired_entries =
      a.scrub_repaired_entries + b.scrub_repaired_entries;
    scrub_repaired_bytes = a.scrub_repaired_bytes + b.scrub_repaired_bytes;
    unrepairable_spans = a.unrepairable_spans + b.unrepairable_spans;
  }

let pp_scrub_report ppf r =
  Format.fprintf ppf
    "@[<h>scrubbed=%d repaired=%d (%dB) unrepairable=%d@]" r.scrubbed_entries
    r.scrub_repaired_entries r.scrub_repaired_bytes r.unrepairable_spans

(* A log's live entries in log order, each as its offset and its
   record's key, in a ring of two arrays. Clearing it keeps the arrays,
   and a push allocates only when the ring is full, so appends and
   recovery walks that refill it allocate nothing for it; a drop that
   leaves a large ring less than an eighth full shrinks it to a
   quarter, so a log that dropped most of its entries does not keep the
   arrays it needed then. *)
module Account = struct
  type t = {
    mutable offs : int array;
    mutable keys : int array;  (* capacity a power of two, at least 16 *)
    mutable first : int;
    mutable len : int;
  }

  let create () =
    { offs = Array.make 16 0; keys = Array.make 16 0; first = 0; len = 0 }

  let length a = a.len
  let clear a =
    a.first <- 0;
    a.len <- 0

  (* The slot of the [i]th live entry. *)
  let slot a i = (a.first + i) land (Array.length a.offs - 1)
  let off a i = a.offs.(slot a i)
  let key a i = a.keys.(slot a i)

  let resize a cap =
    let offs = Array.make cap 0 and keys = Array.make cap 0 in
    for i = 0 to a.len - 1 do
      offs.(i) <- off a i;
      keys.(i) <- key a i
    done;
    a.offs <- offs;
    a.keys <- keys;
    a.first <- 0

  let push a ~off ~key =
    if a.len = Array.length a.offs then resize a (2 * a.len);
    let i = slot a a.len in
    a.offs.(i) <- off;
    a.keys.(i) <- key;
    a.len <- a.len + 1

  (* Drop the oldest [n] entries, [n <= length a]. *)
  let drop a n =
    a.first <- slot a n;
    a.len <- a.len - n;
    let cap = Array.length a.offs in
    if cap > 1024 && a.len < cap / 8 then resize a (cap / 4)

  let shift a by =
    for i = 0 to a.len - 1 do
      let j = slot a i in
      a.offs.(j) <- a.offs.(j) + by
    done
end

module Make (M : Onll_machine.Machine_sig.S) = struct
  type t = {
    regions : M.Pm.t array;  (* replica 0 is the primary *)
    log_name : string;
    log_capacity : int;  (* entries area bytes, per replica *)
    sink : Onll_obs.Sink.t;
    mutable tail : int;  (* next append offset (absolute) *)
    mutable head : int;  (* first live entry offset (absolute) *)
    mutable header_seq : int64;
    mutable bound : int;
        (* the written bound of the durable header: the one slot
           [header_seq] holds, the log end while no slot holds one *)
    mutable written_upto : int;
        (* the furthest byte this log may have left nonzero since its last
           recovery; a crashed append's bytes above the bound, which
           recovery does not look at, are not counted (see the
           interface) *)
    key : string -> int;  (* the caller's per-record key, see [drop_upto] *)
    offs : Account.t;
        (* the live entries in log order, rebuilt by [recover]'s walk and
           maintained incrementally by [append] and [relocate], so neither
           [set_head], [drop_upto] nor [entry_count] pays a CRC-validating
           scan of the whole live span *)
    mutable offs_valid : bool;
        (* a scrub, or a relocation that quarantines, can rewrite record
           boundaries out from under the account; they clear this and the
           next use rebuilds it with one scan *)
    mutable ckpt_key : int option;  (* the newest live checkpoint's key *)
    mutable footprint : int;
        (* bytes of the newest checkpoint written, noted or measured; 0
           while unknown *)
    mutable undrained : bool;
        (* a restart's zeroing of the old live span is flushed but no fence
           has drained it yet (see [restart]) *)
  }

  (* One live entry found by a scan: its offset and its record's key. *)
  type live = { l_off : int; l_key : int }

  let name t = t.log_name
  let capacity t = t.log_capacity
  let replicas t = Array.length t.regions
  let log_end t = header_size + t.log_capacity
  let primary t = t.regions.(0)

  let region_names t =
    Array.to_list
      (Array.mapi (fun r _ -> replica_region_name t.log_name r) t.regions)

  let emit_retry t ~site ~attempt =
    if Onll_obs.Sink.active t.sink then
      Onll_obs.Sink.emit t.sink ~proc:(M.self ())
        (Onll_obs.Event.Retry { site; attempt })

  (* Make [off, off+len) durable in every replica, and with it the header
     slot at [slot] unless that is [no_slot]: flush each replica's
     ranges, then ONE fence — pending write-backs are per process, so all
     replica flushes drain under the same persistent fence and neither
     mirroring nor a second range ever costs an extra one. Transient
     faults retry the whole sequence: a failed flush queued nothing, a
     failed fence left the pending set intact, and re-flushing re-queues
     snapshots of the same dirty lines, so the retry is idempotent. *)
  let rec persist_attempt t ~site ~off ~len ~slot attempt =
    match
      for r = 0 to Array.length t.regions - 1 do
        if len > 0 then M.Pm.flush t.regions.(r) ~off ~len;
        if slot <> no_slot then
          M.Pm.flush t.regions.(r) ~off:slot ~len:slot_bytes
      done;
      M.fence ()
    with
    | () -> t.undrained <- false
    | exception Onll_nvm.Memory.Transient_fault _ when attempt <= retry_budget
      ->
        emit_retry t ~site ~attempt;
        persist_attempt t ~site ~off ~len ~slot (attempt + 1)

  let persist ?(slot = no_slot) t ~site ~off ~len =
    persist_attempt t ~site ~off ~len ~slot 1

  (* Flush [off, off+len) in every replica with no fence: the log's next
     fence drains it. Retried as [persist] is. *)
  let rec flush_attempt t ~site ~off ~len attempt =
    match
      for r = 0 to Array.length t.regions - 1 do
        M.Pm.flush t.regions.(r) ~off ~len
      done
    with
    | () -> ()
    | exception Onll_nvm.Memory.Transient_fault _ when attempt <= retry_budget
      ->
        emit_retry t ~site ~attempt;
        flush_attempt t ~site ~off ~len (attempt + 1)

  (* Store the same bytes at [off] in every replica. *)
  let store_all t ~off s =
    for r = 0 to Array.length t.regions - 1 do
      M.Pm.store t.regions.(r) ~off s
    done

  let store_int64_all t ~off v =
    for r = 0 to Array.length t.regions - 1 do
      M.Pm.store_int64 t.regions.(r) ~off v
    done

  (* Zero [off, off+len) in every replica from the one shared block: whole
     blocks, then a last block ending at the span's end (overlapping the
     one before it); only a span shorter than a block stores a copy. *)
  let store_zeros t ~off ~len =
    if len >= zero_chunk then begin
      let fin = off + len in
      let rec go off =
        if off + zero_chunk < fin then begin
          store_all t ~off zeros;
          go (off + zero_chunk)
        end
        else store_all t ~off:(fin - zero_chunk) zeros
      in
      go off
    end
    else if len > 0 then store_all t ~off (String.sub zeros 0 len)

  (* The slot header [seq] lives in: the two alternate, so a torn header
     write leaves the other slot intact. *)
  let slot_of seq = if Int64.rem seq 2L = 0L then slot_a else slot_b

  let int64_pair a b =
    let buf = Bytes.create 16 in
    Bytes.set_int64_le buf 0 (Int64.of_int a);
    Bytes.set_int64_le buf 8 (Int64.of_int b);
    Bytes.unsafe_to_string buf

  (* Store header slot [seq] — [seq | head | bound | crc32(seq, head,
     bound)], little-endian int64s — in [regions], field by field across
     them, in three stores: the seq, the head and bound as one, the
     checksum. *)
  let store_slot regions ~seq ~head ~bound =
    let off = slot_of seq in
    let head_bound = int64_pair head bound in
    let crc =
      crc_to_int64 (slot_crc seq (Int64.of_int head) (Int64.of_int bound))
    in
    Array.iter (fun r -> M.Pm.store_int64 r ~off seq) regions;
    Array.iter (fun r -> M.Pm.store r ~off:(off + 8) head_bound) regions;
    Array.iter (fun r -> M.Pm.store_int64 r ~off:(off + 24) crc) regions

  (* Read one header slot of one replica, with three loads; [Some (seq,
     head, bound)] if its checksum validates and the head and bound are in
     range. A slot that fails its checksum but holds, where the bound is,
     the checksum of its seq and head alone was written before slots
     carried a bound: nothing bounds what that log wrote, so it reads as
     [log_end]. *)
  let read_slot t region off =
    let seq = M.Pm.load_int64 region ~off in
    let pair = M.Pm.load region ~off:(off + 8) ~len:16 in
    let crc = M.Pm.load_int64 region ~off:(off + 24) in
    let head = String.get_int64_le pair 0 and bound = String.get_int64_le pair 8 in
    let stop = Int64.of_int (log_end t) in
    let bound =
      if crc = crc_to_int64 (slot_crc seq head bound) then bound
      else if bound = crc_to_int64 (crc_of_int64s seq head) then stop
      else -1L
    in
    if
      seq > 0L
      && head >= Int64.of_int header_size
      && head <= bound && bound <= stop
    then Some (seq, Int64.to_int head, Int64.to_int bound)
    else None

  let no_header t = (0L, header_size, log_end t)

  (* Both slots of one replica, read once. *)
  let read_slots t region =
    (read_slot t region slot_a, read_slot t region slot_b)

  let newest_of t = function
    | None, None -> no_header t
    | Some h, None | None, Some h -> h
    | Some ((sa, _, _) as a), Some ((sb, _, _) as b) -> if sa >= sb then a else b

  let read_header_of t region = newest_of t (read_slots t region)

  (* The newest valid header across every replica and both slots, and
     each replica's two slots as read. *)
  let read_header t =
    let slots = Array.map (read_slots t) t.regions in
    ( Array.fold_left
        (fun ((bs, _, _) as best) pair ->
          let (s, _, _) as h = newest_of t pair in
          if s > bs then h else best)
        (no_header t) slots,
      slots )

  (* The written bound a header stored now records: the reserve past
     [written_upto]. *)
  let next_bound t = min (log_end t) (t.written_upto + zero_chunk)

  (* The fence that drains a restart's zeroing of the old live span, when
     no fence has since. A header write pays it before storing its slot,
     which overwrites the slot that lets recovery redo the zeroing. *)
  let drain t =
    if t.undrained then persist t ~site:"plog.drain" ~off:header_size ~len:0

  (* Store the next header slot — the next seq, [head] and the bound now
     due — in every replica, and return the bound; the slot to persist is
     [slot_of] the next seq. *)
  let store_next_header t ~head =
    drain t;
    let bound = next_bound t in
    store_slot t.regions ~seq:(Int64.add t.header_seq 1L) ~head ~bound;
    bound

  (* The next header slot stored and persisted (under its own fence
     here, or with an append's record under the append's): it is now the
     durable header. *)
  let next_header_durable t ~bound =
    t.header_seq <- Int64.add t.header_seq 1L;
    t.bound <- bound

  (* Durably switch the header to (next seq, [head], the bound now due). *)
  let write_header t ~site ~head =
    let bound = store_next_header t ~head in
    let slot = slot_of (Int64.add t.header_seq 1L) in
    persist t ~site ~off:slot ~len:slot_bytes;
    next_header_durable t ~bound;
    t.head <- head

  (* The valid record one replica holds at [pos], read with two loads for
     the 16-byte record header and, for an entry, one load of its
     payload, checked once: a valid entry's span, its payload then in
     [found]; minus a valid skip marker's span; 0 when the replica holds
     neither. An entry's read allocates only the payload and the two
     header words the machine returns boxed. The payload handed back is
     the bytes checked: media rot can strike between two loads of the
     same record (the scrubber runs under active rot), so a copy made
     from a later load could spread fresh damage onto the intact replicas
     — turning a repairable single-copy fault into an unrepairable
     all-copy one. Working only from these bytes closes that window. The
     length checks are written so a forged length cannot overflow
     them. *)
  let read_at t region pos found =
    let room = log_end t - pos in
    if room < 16 then 0
    else
      let len64 = M.Pm.load_int64 region ~off:pos in
      if len64 = 0L then 0
      else
        let stored = M.Pm.load_int64 region ~off:(pos + 8) in
        let len = Int64.to_int len64 in
        if len >= 1 then
          if len > room - 16 then 0
          else
            let payload = M.Pm.load region ~off:(pos + 16) ~len in
            if stored = Int64.of_int (entry_crc_int payload) then begin
              found := payload;
              16 + len
            end
            else 0
        else
          let span = Int64.to_int (Int64.neg len64) in
          if
            stored = crc_to_int64 (crc_of_int64s len64 skip_magic)
            && span >= 16 && span <= room
          then -span
          else 0

  (* A valid record, as the replicas' reads are compared. *)
  type record =
    | Entry of string  (* payload *)
    | Skip of int  (* quarantined span *)

  let read_record t region pos =
    let found = ref "" in
    match read_at t region pos found with
    | 0 -> None
    | span when span > 0 -> Some (Entry !found)
    | span -> Some (Skip (-span))

  (* The byte length of a record in the log. *)
  let record_span = function
    | Entry payload -> 16 + String.length payload
    | Skip span -> span

  (* The bytes a record occupies at its offset: a skip marker covers only
     the first 16 bytes of its span. *)
  let record_bytes r =
    let len64, stored, payload =
      match r with
      | Entry payload ->
          ( Int64.of_int (String.length payload),
            Int64.of_int (entry_crc_int payload),
            payload )
      | Skip span ->
          let len64 = Int64.neg (Int64.of_int span) in
          (len64, crc_to_int64 (crc_of_int64s len64 skip_magic), "")
    in
    let b = Bytes.create (16 + String.length payload) in
    Bytes.set_int64_le b 0 len64;
    Bytes.set_int64_le b 8 stored;
    Bytes.blit_string payload 0 b 16 (String.length payload);
    Bytes.unsafe_to_string b

  (* One [read_at] per replica, primary first. *)
  let read_all t pos = Array.map (fun r -> read_record t r pos) t.regions

  (* The canonical record at [pos] and the replica it came from: the first
     valid entry, else the first valid skip marker, else none — the caller
     falls through to classify/quarantine. Entries come first across every
     replica: an entry can never reappear under a marker (quarantine only
     happens when no replica had one), so preferring the entry can only
     resurrect real data. *)
  let canonical reads =
    let first is =
      Array.find_mapi
        (fun i read ->
          match read with Some r when is r -> Some (i, r) | _ -> None)
        reads
    in
    match first (function Entry _ -> true | Skip _ -> false) with
    | Some _ as c -> c
    | None -> first (function Skip _ -> true | Entry _ -> false)

  (* Durably write the canonical record over every replica whose read at
     [off] differs. Returns the number of replica ranges rewritten; 0 when
     all replicas already agree (no fence paid). Two reads are equal
     exactly when their bytes are: both were checked, and identical bytes
     check identically. Idempotent: re-running copies identical bytes. *)
  let heal t ~off reads (c, canon) =
    let stale = ref [] in
    Array.iteri
      (fun i read -> if i <> c && read <> Some canon then stale := i :: !stale)
      reads;
    if !stale <> [] then begin
      let bytes = record_bytes canon in
      List.iter (fun i -> M.Pm.store t.regions.(i) ~off bytes) !stale;
      persist t ~site:"plog.repair" ~off ~len:(String.length bytes)
    end;
    List.length !stale

  (* The canonical record at [pos], every replica healed to it, as
     [read_at] gives it: its span (negative for a skip marker), an
     entry's payload in [found]. The replica ranges healing an entry
     rewrote, and their bytes, are added to [repaired] and [rep_bytes];
     propagating a marker is not a data repair. A single replica is its
     own canonical copy, so nothing is compared. *)
  let settle t pos found ~repaired ~rep_bytes =
    if Array.length t.regions = 1 then read_at t t.regions.(0) pos found
    else
      let reads = read_all t pos in
      match canonical reads with
      | None -> 0
      | Some ((_, Skip span) as c) ->
          ignore (heal t ~off:pos reads c : int);
          -span
      | Some ((_, (Entry payload as canon)) as c) ->
          let healed = heal t ~off:pos reads c and span = record_span canon in
          repaired := !repaired + healed;
          rep_bytes := !rep_bytes + (healed * span);
          found := payload;
          span

  (* Re-converge replica headers on the merged (seq, head, bound):
     rewrite the canonical slot of every replica whose slot disagrees —
     as [slots] read it, when the caller has just read every replica's
     slots, else read now. The replicas holding the merged header are
     never written, so the merged header survives a crash mid-heal;
     rewriting is byte-identical, hence idempotent. *)
  let heal_headers ?slots t ~seq ~head ~bound =
    if seq > 0L then begin
      let slot = slot_of seq in
      let held i r =
        match slots with
        | Some slots -> (if slot = slot_a then fst else snd) slots.(i)
        | None -> read_slot t r slot
      in
      let dirty =
        List.filteri
          (fun i r -> held i r <> Some (seq, head, bound))
          (Array.to_list t.regions)
      in
      if dirty <> [] then begin
        store_slot (Array.of_list dirty) ~seq ~head ~bound;
        persist t ~site:"plog.repair" ~off:slot ~len:slot_bytes
      end
    end

  (* Scan the valid entries from [head] in the primary, transparently
     stepping over valid skip markers left by salvage; returns (payload,
     offset) pairs in order and the end-of-valid-prefix offset. The
     primary is canonical after any recovery/scrub, so the ordinary read
     path never consults mirrors. *)
  let scan t head =
    let region = primary t and found = ref "" in
    let rec loop pos acc =
      match read_at t region pos found with
      | 0 -> (List.rev acc, pos)
      | span when span > 0 -> loop (pos + span) ((!found, pos) :: acc)
      | span -> loop (pos - span) acc
    in
    loop head []

  let create ?(sink = Onll_obs.Sink.null) ?(replicas = 1) ?(key = fun _ -> 0)
      ~name ~capacity () =
    if capacity <= 0 then invalid_arg "Plog.create: non-positive capacity";
    if replicas < 1 then invalid_arg "Plog.create: replicas < 1";
    {
      regions =
        Array.init replicas (fun r ->
            M.Pm.create
              ~name:(replica_region_name name r)
              ~size:(header_size + capacity));
      log_name = name;
      log_capacity = capacity;
      sink;
      tail = header_size;
      head = header_size;
      header_seq = 0L;
      bound = header_size + capacity;
      written_upto = header_size;
      key;
      offs = Account.create ();
      offs_valid = true;
      ckpt_key = None;
      footprint = 0;
      undrained = false;
    }

  let forget_checkpoint t =
    t.ckpt_key <- None;
    t.footprint <- 0

  (* What lies at the end of the valid prefix [pos] below the written
     bound [stop], judged across EVERY replica:
     - [Clean]: zeros up to the bound in each replica — a well-formed log
       end.
     - [Torn n]: [n] bytes of garbage with no valid entry anywhere after,
       in any replica — a torn final write (every replica's tail tore,
       because no copy of the unacknowledged append was ever fenced), or
       media damage that hit all copies. Truncation loses nothing a clean
       append acknowledged; the span is zeroed everywhere.
     - [Corrupt_span span]: a CRC-valid entry (or marker) resumes [span]
       bytes further on in some replica — interior corruption with no
       intact copy of the span itself. The span is quarantined behind a
       skip marker in every replica; the entries after it survive. *)
  type tail_class = Clean | Torn of int | Corrupt_span of int

  (* Is there a whole CRC-valid record (an entry, or an earlier salvage's
     skip marker — equally good as a resync point) at offset [r] of a
     span of [n] bytes whose first bytes are [rest] and whose other bytes
     are zero? The resync searches work over buffered copies rather than
     per-byte [Pm] probes: every durable load ticks the fault hooks, so a
     byte-wise probe of a long corrupt span would itself accelerate rot
     injection mid-scan. A record may run past [rest] into the zeros (an
     encoded record can end in zero bytes), so its bytes there read as
     zero. *)
  let buffer_valid_at ~n rest r =
    let have = String.length rest in
    let int64_at i =
      if i + 8 <= have then String.get_int64_le rest i
      else begin
        let b = Bytes.make 8 '\000' in
        if i < have then Bytes.blit_string rest i b 0 (have - i);
        Bytes.get_int64_le b 0
      end
    in
    if r + 16 > n then false
    else
      let len64 = int64_at r in
      let len = Int64.to_int len64 in
      if len >= 1 then
        len <= n - r - 16
        &&
        let pos = r + 16 in
        let inside = max 0 (min len (have - pos)) in
        let crc =
          crc_zeros
            (Crc32.bytes
               ~init:(Crc32.int64 len64)
               (Bytes.unsafe_of_string rest) ~pos:(min pos have) ~len:inside)
            (len - inside)
        in
        int64_at (r + 8) = crc_to_int64 crc
      else if Int64.compare len64 0L < 0 then
        let span = Int64.to_int (Int64.neg len64) in
        span >= 16
        && span <= n - r
        && int64_at (r + 8) = crc_to_int64 (crc_of_int64s len64 skip_magic)
      else false

  (* A replica's bytes from [pos] up to and including its last nonzero
     byte before [stop] ([""] if they are all zero). The zero check runs
     backward in chunks of at most [zero_chunk] bytes, so the check never
     holds more than one chunk, and the nonzero prefix is loaded only when
     some byte is nonzero. *)
  let nonzero_prefix region ~pos ~stop =
    let rec down hi =
      if hi <= pos then ""
      else
        let lo = max pos (hi - zero_chunk) in
        let chunk = M.Pm.load region ~off:lo ~len:(hi - lo) in
        match last_nonzero chunk with
        | -1 -> down lo
        | i when lo = pos -> String.sub chunk 0 (i + 1)
        | i -> M.Pm.load region ~off:pos ~len:(lo - pos + i + 1)
    in
    down stop

  (* The verdict on [pos, stop), from each replica's nonzero prefix. The
     last nonzero byte across replicas bounds the search: an entry has a
     nonzero length field, so none can start in the all-zero suffix. No
     acknowledged byte lies at or past the written bound [stop], so no
     record worth a resync can either. *)
  let classify t ~pos ~stop =
    if pos >= stop then Clean
    else begin
      let rests =
        Array.map (fun r -> nonzero_prefix r ~pos ~stop) t.regions
      in
      let last_nz =
        Array.fold_left
          (fun m rest -> max m (String.length rest - 1))
          (-1) rests
      in
      if last_nz < 0 then Clean
      else begin
        (* Resync search. The corrupted entry at [pos] originally occupied
           >= 17 bytes, so the next real boundary is at pos+17 or later —
           which also guarantees a quarantined span can hold the 16-byte
           marker. *)
        let n = stop - pos in
        let resync = ref None in
        let r = ref 17 in
        while !resync = None && !r <= last_nz do
          if Array.exists (fun rest -> buffer_valid_at ~n rest !r) rests then
            resync := Some !r;
          incr r
        done;
        match !resync with
        | Some r -> Corrupt_span r
        | None -> Torn (last_nz + 1)
      end
    end

  (* The next offset in (pos, stop) at which some replica holds a whole
     CRC-valid record — the resync point bounding a span corrupt in every
     replica — or [None] if no record revalidates before [stop]. Searches
     buffered copies, one bulk load per replica (see [buffer_valid_at]).
     The corrupted record at [pos] originally occupied >= 17 bytes, so
     the search starts at pos+17 — which also guarantees the quarantined
     span can hold the 16-byte skip marker. *)
  let resync_offset t ~pos ~stop =
    let rests =
      Array.map (fun r -> M.Pm.load r ~off:pos ~len:(stop - pos)) t.regions
    in
    let n = stop - pos in
    let found = ref None in
    let r = ref 17 in
    while !found = None && !r + 16 <= n do
      if Array.exists (fun rest -> buffer_valid_at ~n rest !r) rests then
        found := Some (pos + !r);
      incr r
    done;
    !found

  let write_skip_marker t ~off ~span =
    let len64 = Int64.neg (Int64.of_int span) in
    store_int64_all t ~off len64;
    store_int64_all t ~off:(off + 8)
      (crc_to_int64 (crc_of_int64s len64 skip_magic));
    persist t ~site:"plog.salvage" ~off ~len:16

  let zero_span ?(site = "plog.salvage") t ~off ~len =
    store_zeros t ~off ~len;
    persist t ~site ~off ~len

  (* A Salvage event for bytes recovery is about to discard, emitted
     before the discard is made durable: a recovery that crashes after
     zeroing a torn tail leaves the next one nothing to find, so a report
     made after the walk would lose the loss. *)
  let salvaged t ~quarantined ~bytes_lost =
    if Onll_obs.Sink.active t.sink then
      Onll_obs.Sink.emit t.sink ~proc:(M.self ())
        (Onll_obs.Event.Salvage { log = t.log_name; quarantined; bytes_lost })

  (* A valid slot whose head lies above the newest header's [head] was
     written before a restart (or a relocation) switched the head back to
     the front, and no header write has replaced it since. A restart
     zeroes the old live span only after its switch, and drains that
     zeroing at the log's next fence or before its next header write, so
     the zeroing may not have landed: zero again, durably, from that
     slot's head (the restart fenced the zeros below it), the walk's end
     and the newest bound, up to that slot's bound, which covers every
     byte the old span wrote. Nothing live lies there, and it runs before
     anything appends. *)
  let redo_restart_zeroing t slots ~head ~bound =
    let lo = ref max_int and hi = ref 0 in
    let older = function
      | Some (_, h, b) when h > head ->
          lo := min !lo h;
          hi := max !hi b
      | Some _ | None -> ()
    in
    Array.iter
      (fun (a, b) ->
        older a;
        older b)
      slots;
    let lo = max !lo (max t.tail bound) in
    if lo < !hi then zero_span t ~site:"plog.recover" ~off:lo ~len:(!hi - lo);
    t.undrained <- false

  (* The one recovery walk; [entry] is given each live payload in log
     order and returns its key for the account. *)
  let recover_walk t ~entry =
    let (seq, head, bound), slots = read_header t in
    heal_headers ~slots t ~seq ~head ~bound;
    t.header_seq <- seq;
    t.head <- head;
    t.bound <- bound;
    (* the walk rebuilds the account; it is valid once the walk is done *)
    Account.clear t.offs;
    t.offs_valid <- false;
    forget_checkpoint t;
    let torn = ref 0 and qspans = ref 0 and qbytes = ref 0 in
    let repaired = ref 0 and rep_bytes = ref 0 in
    let markers = ref 0 in
    (* Settle the log in one walk: read each record once per replica,
       heal replica divergence from a copy that checked valid,
       quarantine spans corrupt everywhere, truncate a tail no replica
       can vouch for — and list every live entry in the account and in
       the payloads returned, so no caller reads the log again. A record
       no replica holds intact falls through to classify/quarantine — the
       walk never advances past an offset it could neither vouch for nor
       heal, so the primary is always either intact or the span is named
       as lost. Every repair is idempotent — healing copies CRC-valid
       canonical bytes, rewriting a marker is byte-identical and
       re-zeroing zeros is a no-op — so a crash at any point during
       salvage converges on the next recovery. The walk itself runs to
       the log end — an unacknowledged append can land whole past the
       bound — but the clean-end check and the resync search stop at the
       bound. *)
    let stop = log_end t in
    let found = ref "" in
    let rec walk pos =
      if pos + 16 > stop then pos
      else
        match settle t pos found ~repaired ~rep_bytes with
        | 0 -> (
            match classify t ~pos ~stop:bound with
            | Clean -> pos
            | Torn n ->
                salvaged t ~quarantined:0 ~bytes_lost:n;
                zero_span t ~off:pos ~len:n;
                torn := !torn + n;
                pos
            | Corrupt_span span ->
                salvaged t ~quarantined:1 ~bytes_lost:span;
                write_skip_marker t ~off:pos ~span;
                incr qspans;
                incr markers;
                qbytes := !qbytes + span;
                walk (pos + span))
        | span when span > 0 ->
            Account.push t.offs ~off:pos ~key:(entry !found);
            walk (pos + span)
        | span ->
            incr markers;
            walk (pos - span)
    in
    t.tail <- walk head;
    redo_restart_zeroing t slots ~head ~bound;
    (* everything from the tail up to the bound is zero now *)
    t.written_upto <- t.tail;
    (* an unacknowledged append the walk found past the bound is now a
       live entry: raise the bound over it before anything relies on it *)
    if t.tail > bound then write_header t ~site:"plog.recover" ~head;
    t.offs_valid <- true;
    if !repaired > 0 && Onll_obs.Sink.active t.sink then
      Onll_obs.Sink.emit t.sink ~proc:(M.self ())
        (Onll_obs.Event.Repair
           { log = t.log_name; entries = !repaired; bytes = !rep_bytes });
    {
      torn_tail_bytes = !torn;
      quarantined_spans = !qspans;
      quarantined_bytes = !qbytes;
      skip_markers = !markers;
      repaired_entries = !repaired;
      repaired_bytes = !rep_bytes;
    }

  let recover t =
    let payloads = ref [] in
    let r =
      recover_walk t ~entry:(fun p ->
          payloads := p :: !payloads;
          t.key p)
    in
    (r, List.rev !payloads)

  (* The pre-hardening recovery: truncate the primary at the first invalid
     entry — no resync, no mirror consultation, no repair, no report. Kept
     as the calibration baseline the chaos campaigns must catch silently
     losing interior entries. *)
  let recover_unhardened t =
    let region = primary t in
    let seq, head, bound = read_header_of t region in
    let stop = log_end t in
    let rec loop pos =
      if pos + 16 > stop then pos
      else
        let len = Int64.to_int (M.Pm.load_int64 region ~off:pos) in
        if len <= 0 || pos + 16 + len > stop then pos
        else
          let stored = M.Pm.load_int64 region ~off:(pos + 8) in
          let payload = M.Pm.load region ~off:(pos + 16) ~len in
          if stored <> Int64.of_int (entry_crc_int payload) then pos
          else loop (pos + 16 + len)
    in
    t.header_seq <- seq;
    t.head <- head;
    t.bound <- bound;
    t.tail <- loop head;
    t.written_upto <- t.tail;
    t.undrained <- false;
    t.offs_valid <- false;
    forget_checkpoint t

  (* Online self-healing: CRC-walk the live span [head, tail) across all
     replicas while the log is in use — the in-memory cursors are
     authoritative, so unlike recovery the walk knows exactly where the
     acknowledged entries end. Divergence with an intact copy is healed in
     place; a span corrupt in every replica is quarantined immediately
     (the data is already gone from the media — naming it now beats
     letting a later crash find it). Fences are paid only for actual
     repairs. *)
  let scrub t =
    heal_headers t ~seq:t.header_seq ~head:t.head ~bound:t.bound;
    (* quarantine can rewrite record boundaries in place *)
    t.offs_valid <- false;
    let scrubbed = ref 0 and repaired = ref 0 and rep_bytes = ref 0 in
    let unrep = ref 0 in
    let found = ref "" in
    let rec walk pos =
      if pos >= t.tail then ()
      else
        match settle t pos found ~repaired ~rep_bytes with
        | 0 ->
            (* Corrupt in every replica: resync at the next offset some
               replica holds a valid record (bounded by the live tail),
               else the rest of the live span is gone. Either way the span
               is >= 17 bytes (whole entries), so the marker fits. *)
            let upto =
              match resync_offset t ~pos ~stop:t.tail with
              | Some r -> r
              | None -> t.tail
            in
            write_skip_marker t ~off:pos ~span:(upto - pos);
            incr unrep;
            walk upto
        | span when span > 0 ->
            incr scrubbed;
            walk (pos + span)
        | span -> walk (pos - span)
    in
    walk t.head;
    (* a rewritten or quarantined span may have held the checkpoint *)
    if !repaired > 0 || !unrep > 0 then forget_checkpoint t;
    if Onll_obs.Sink.active t.sink then
      Onll_obs.Sink.emit t.sink ~proc:(M.self ())
        (Onll_obs.Event.Scrub
           {
             log = t.log_name;
             entries = !scrubbed;
             repaired = !repaired;
             unrepairable = !unrep;
           });
    {
      scrubbed_entries = !scrubbed;
      scrub_repaired_entries = !repaired;
      scrub_repaired_bytes = !rep_bytes;
      unrepairable_spans = !unrep;
    }

  (* Store an entry — [len | crc | payload] — at [off] in every replica. *)
  let store_entry t ~off payload =
    store_int64_all t ~off (Int64.of_int (String.length payload));
    store_int64_all t ~off:(off + 8) (Int64.of_int (entry_crc_int payload));
    store_all t ~off:(off + 16) payload

  let append ?key t payload =
    let len = String.length payload in
    if len = 0 then invalid_arg "Plog.append: empty payload";
    let need = 16 + len in
    if t.tail + need > log_end t then raise Full;
    let off = t.tail in
    let fin = off + need in
    t.written_upto <- max t.written_upto fin;
    (* An append that would pass the written bound raises it: the next
       header slot, stored before the record and drained with it under
       the append's one fence. *)
    let raised = fin > t.bound in
    let bound = if raised then store_next_header t ~head:t.head else t.bound in
    store_entry t ~off payload;
    if raised then begin
      persist t ~site:"plog.append" ~off ~len:need
        ~slot:(slot_of (Int64.add t.header_seq 1L));
      next_header_durable t ~bound
    end
    else persist t ~site:"plog.append" ~off ~len:need;
    t.tail <- fin;
    if t.offs_valid then
      Account.push t.offs ~off
        ~key:(match key with Some k -> k | None -> t.key payload);
    if Onll_obs.Sink.active t.sink then
      Onll_obs.Sink.emit t.sink ~proc:(M.self ())
        (Onll_obs.Event.Log_append { log = t.log_name; bytes = need })

  let entries t = List.map fst (fst (scan t t.head))

  let advance_head t ~new_head ~dropped =
    write_header t ~site:"plog.set_head" ~head:new_head;
    if Onll_obs.Sink.active t.sink then
      Onll_obs.Sink.emit t.sink ~proc:(M.self ())
        (Onll_obs.Event.Log_compact { log = t.log_name; dropped })

  (* Where the live entries are listed: in the account, or — when the
     account cannot represent the log — in the scan that tried to rebuild
     it (the live entries oldest first and the end of the valid prefix). *)
  type span = Account | Scanned of live list * int

  (* The live span, rebuilding an invalid account with one scan. The
     rebuild leaves the account invalid when the valid prefix stops short
     of the tail (unrepaired mid-log damage): offsets beyond the damage
     are unreachable by a scan, so the caller works from the scan itself. *)
  let live_span t =
    if t.offs_valid then Account
    else begin
      let es, tail_off = scan t t.head in
      let live =
        List.map
          (fun (payload, off) -> { l_off = off; l_key = t.key payload })
          es
      in
      Account.clear t.offs;
      List.iter (fun l -> Account.push t.offs ~off:l.l_off ~key:l.l_key) live;
      t.offs_valid <- tail_off = t.tail;
      if t.offs_valid then Account else Scanned (live, tail_off)
    end

  (* Durably drop the oldest [n] entries of [span] (1 <= n <= its length). *)
  let drop_first t span n =
    let new_head =
      match span with
      | Account ->
          let a = t.offs in
          let head = if n < Account.length a then Account.off a n else t.tail in
          Account.drop a n;
          head
      | Scanned (live, stop) -> (
          match List.nth_opt live n with Some l -> l.l_off | None -> stop)
    in
    advance_head t ~new_head ~dropped:n

  let span_length t = function
    | Account -> Account.length t.offs
    | Scanned (live, _) -> List.length live

  let entry_count t = span_length t (live_span t)

  let set_head t n =
    if n < 0 then invalid_arg "Plog.set_head: negative count";
    if n > 0 then begin
      let span = live_span t in
      if n > span_length t span then
        invalid_arg "Plog.set_head: fewer entries than requested";
      drop_first t span n
    end

  (* How many leading entries of [span] key to at most [k]. *)
  let covered t span k =
    match span with
    | Account ->
        let a = t.offs in
        let rec count i =
          if i < Account.length a && Account.key a i <= k then count (i + 1)
          else i
        in
        count 0
    | Scanned (live, _) ->
        Seq.length (Seq.take_while (fun l -> l.l_key <= k) (List.to_seq live))

  let drop_upto t k =
    let span = live_span t in
    let n = covered t span k in
    if n > 0 then drop_first t span n;
    n

  let excise t ~from =
    let es, _ = scan t t.head in
    match List.rev es with
    | [] -> ()
    | (_, last) :: _ -> (
        match
          List.find_opt (fun (payload, off) -> off < last && from payload) es
        with
        | None -> ()
        | Some (_, cut) ->
            (* one marker over whole records: each is >= 17 bytes *)
            write_skip_marker t ~off:cut ~span:(last - cut);
            t.offs_valid <- false)

  let used_bytes t = t.tail - header_size
  let live_bytes t = t.tail - t.head
  let free_bytes t = log_end t - t.tail

  (* Physically move the live span to the front of the entries area,
     reclaiming the dead pre-head bytes for appends (set_head only advances a
     pointer, and appends never wrap: without this, or a checkpoint that
     restarts the log at its front, the area fills for good).
     The copy walks the live span record by record, sourcing each record from
     whichever replica's copy checks valid as loaded ([read_all], [canonical])
     — a bulk primary-only copy would propagate a rotted primary record onto
     every mirror while the zeroing below destroys the mirrors' intact copy at
     the old offsets, converting a repairable single-replica fault into
     unrepairable loss. A span corrupt in every replica is rewritten at the
     destination as a skip marker — exactly the quarantine an in-place scrub
     would perform — and reported with a Salvage event. Every byte landing at
     the destination was therefore validated (or is a fresh CRC-protected
     marker) at copy time, so the old span is dead weight by the time it is
     zeroed.

     Crash-atomic: the live records are first durably copied into the dead
     zone at the start of the entries area — strictly below [head], so the
     source is untouched — and only then does a two-slot header update
     switch the head to the front. A crash before the switch leaves the
     old header and the old live span intact (the partial copy sits in
     dead bytes recovery never reads); replicas that diverge mid-copy or
     mid-switch re-converge on the next recovery's header heal and entry
     walk. The stale old span beyond the new tail is zeroed last; a crash
     before that zeroing leaves stale CRC-valid records past the tail,
     which the next recovery either ignores (their content predates the
     checkpoint the live span starts with) or quarantines — both
     converge. *)
  let relocate t =
    let live = t.tail - t.head in
    if t.head > header_size && header_size + live <= t.head then begin
      let quarantined = ref 0 and qbytes = ref 0 in
      if live > 0 then begin
        let rec copy pos =
          if pos >= t.tail then ()
          else
            let dst = header_size + (pos - t.head) in
            match canonical (read_all t pos) with
            | Some (_, canon) ->
                (* a marker's span is relative, so it covers the same
                   bytes at the destination *)
                store_all t ~off:dst (record_bytes canon);
                copy (pos + record_span canon)
            | None ->
                let upto =
                  match resync_offset t ~pos ~stop:t.tail with
                  | Some r -> r
                  | None -> t.tail
                in
                let span = upto - pos in
                let len64 = Int64.neg (Int64.of_int span) in
                store_int64_all t ~off:dst len64;
                store_int64_all t ~off:(dst + 8)
                  (crc_to_int64 (crc_of_int64s len64 skip_magic));
                incr quarantined;
                qbytes := !qbytes + span;
                copy upto
        in
        copy t.head;
        persist t ~site:"plog.relocate" ~off:header_size ~len:live
      end;
      let shift = t.head - header_size in
      (* The switch keeps the bound over the old span: until its zeroing
         is durable, a crash leaves those bytes for recovery to judge. *)
      write_header t ~site:"plog.relocate" ~head:header_size;
      (* every record moved by the same distance, so a valid account
         stays valid shifted — unless a quarantine redrew a boundary *)
      if !quarantined = 0 then
        Account.shift t.offs (-shift)
      else begin
        t.offs_valid <- false;
        forget_checkpoint t
      end;
      t.tail <- header_size + live;
      let stale = t.written_upto - t.tail in
      if stale > 0 then begin
        zero_span t ~site:"plog.relocate" ~off:t.tail ~len:stale;
        t.written_upto <- t.tail
      end;
      if !quarantined > 0 && Onll_obs.Sink.active t.sink then
        Onll_obs.Sink.emit t.sink ~proc:(M.self ())
          (Onll_obs.Event.Salvage
             {
               log = t.log_name;
               quarantined = !quarantined;
               bytes_lost = !qbytes;
             })
    end

  (* {2 Checkpoints and the headroom rule}

     A checkpoint is appended before the prefix it summarises can be
     dropped, so compaction must run while the next one still fits (see
     the interface). Before any footprint is known, the live span bounds
     the checkpoint that summarises it. *)

  let note_keyed_checkpoint t ~key payload =
    t.ckpt_key <- Some key;
    t.footprint <- 16 + String.length payload

  let note_checkpoint t payload =
    note_keyed_checkpoint t ~key:(t.key payload) payload

  let decode_recovered t codec ~checkpoint ~failures payloads =
    List.filter_map
      (fun p ->
        match Codec.decode codec p with
        | r ->
            (* the last one noted is the log's newest *)
            if checkpoint r then note_checkpoint t p;
            Some r
        | exception _ ->
            incr failures;
            None)
      payloads

  (* Each payload is decoded as the walk finds it, so it is garbage before
     the next is read, and a decoded one gives its key without a second
     decode. *)
  let recover_decoded t codec ~key ~checkpoint ~failures =
    let records = ref [] in
    let r =
      recover_walk t ~entry:(fun p ->
          match Codec.decode codec p with
          | r ->
              let k = key r in
              if checkpoint r then note_keyed_checkpoint t ~key:k p;
              records := r :: !records;
              k
          | exception _ ->
              incr failures;
              t.key p)
    in
    (r, List.rev !records)

  (* {3 Restarting at the front}

     A checkpoint that drops every live record, and whose record and one
     [zero_chunk] fit in the dead bytes below the head ([restarts]),
     writes its record
     at the front of the entries area instead of at the tail, in two
     fences, as an appended checkpoint and its head update take:
     - F1: store the record at [header_size], zero the rest of the dead
       prefix, fence. The head still names the old live span, which
       nothing has touched, so a crash here loses nothing.
     - F2: switch the header to the front, its bound the record's end
       plus one [zero_chunk], fence. A recovery now walks the record and
       stops at the zeros F1 made durable.
     Then the old live span, now past the tail, is zeroed with flushed
     stores that the log's next fence drains (an append's, normally). A
     header write due before that fence drains them first ([drain]): it
     would overwrite the slot naming the old head, which is how recovery
     knows to zero the span again ([redo_restart_zeroing]). So the bytes
     from the tail to the bound stay durably zero, and the appends that
     follow reuse the front of the log. *)
  let restart t ~key payload =
    let old_head = t.head and old_end = t.written_upto in
    let dropped = Account.length t.offs in
    let need = 16 + String.length payload in
    let fin = header_size + need in
    store_entry t ~off:header_size payload;
    store_zeros t ~off:fin ~len:(old_head - fin);
    persist t ~site:"plog.restart" ~off:header_size
      ~len:(old_head - header_size);
    t.written_upto <- fin;
    write_header t ~site:"plog.restart" ~head:header_size;
    t.tail <- fin;
    Account.clear t.offs;
    Account.push t.offs ~off:header_size ~key;
    if old_end > old_head then begin
      store_zeros t ~off:old_head ~len:(old_end - old_head);
      flush_attempt t ~site:"plog.restart" ~off:old_head
        ~len:(old_end - old_head) 1;
      t.undrained <- true
    end;
    if Onll_obs.Sink.active t.sink then begin
      Onll_obs.Sink.emit t.sink ~proc:(M.self ())
        (Onll_obs.Event.Log_append { log = t.log_name; bytes = need });
      Onll_obs.Sink.emit t.sink ~proc:(M.self ())
        (Onll_obs.Event.Log_compact { log = t.log_name; dropped })
    end

  (* Does a checkpoint of [payload] covering [upto] restart the log? The
     bound it writes stays 16 bytes short of the old head, so until the
     old span's zeroing drains, a recovery's walk stops at zeros below
     the bound, however the appends in between fill it. *)
  let restarts t ~upto payload =
    t.offs_valid
    && covered t Account upto = Account.length t.offs
    && header_size + 16 + String.length payload + zero_chunk + 16 <= t.head

  let checkpoint t ~upto ~worth record =
    match t.ckpt_key with
    | Some key when key - 1 >= upto -> Some (key - 1)
    | Some _ | None ->
        let payload = record () in
        if not (worth payload) then None
        else begin
          let key = upto + 1 in
          if restarts t ~upto payload then restart t ~key payload
          else begin
            (try append ~key t payload
             with Full ->
               (* an earlier drop may have left dead bytes to reclaim *)
               relocate t;
               append ~key t payload);
            ignore (drop_upto t upto)
          end;
          note_keyed_checkpoint t ~key payload;
          if Onll_obs.Sink.active t.sink then
            Onll_obs.Sink.emit t.sink ~proc:(M.self ())
              (Onll_obs.Event.Checkpoint { upto });
          Some upto
        end

  let append_compacting ?key t ~compact payload =
    let short reserve = free_bytes t < 16 + String.length payload + reserve in
    let known = t.footprint > 0 in
    if short (if known then 2 * t.footprint else live_bytes t) then begin
      let worth ckpt =
        known
        || begin
          t.footprint <- 16 + String.length ckpt;
          short (2 * t.footprint)
        end
      in
      try compact ~worth with Full -> ()
    end;
    append ?key t payload
end
