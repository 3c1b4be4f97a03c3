(* A persistent qp-trie over the keys' nibbles (see ordered_map.mli). *)

module type Key = sig
  type t

  val equal : t -> t -> bool
  val nibble : t -> int -> int
  val diff : t -> t -> int
end

(* What [Key.diff] answers: nibble index [i], where the first key takes
   nibble [na] and the second [nb]. *)
let parting i na nb = (i lsl 10) lor (na lsl 5) lor nb

module String_key = struct
  type t = string

  let equal = String.equal

  let nibble k i =
    let b = i lsr 1 in
    if b >= String.length k then 0
    else
      (* the high nibble at an even [i], the low one at an odd [i] *)
      let shift = (lnot i land 1) lsl 2 in
      1 + ((Char.code (String.unsafe_get k b) lsr shift) land 15)

  (* the first byte index in [i, n) at which [a] and [b] differ, [n]
     when none does; eight bytes a step while eight remain *)
  let rec part a b i n =
    if
      i + 8 <= n
      && Int64.equal (String.get_int64_ne a i) (String.get_int64_ne b i)
    then part a b (i + 8) n
    else if i = n || String.unsafe_get a i <> String.unsafe_get b i then i
    else part a b (i + 1) n

  let diff a b =
    let la = String.length a and lb = String.length b in
    let i = part a b 0 (if la < lb then la else lb) in
    if i = la then
      if i = lb then -1
      else parting (2 * i) 0 (1 + (Char.code (String.unsafe_get b i) lsr 4))
    else if i = lb then
      parting (2 * i) (1 + (Char.code (String.unsafe_get a i) lsr 4)) 0
    else
      let ca = Char.code (String.unsafe_get a i)
      and cb = Char.code (String.unsafe_get b i) in
      if ca lxor cb > 15 then
        parting (2 * i) (1 + (ca lsr 4)) (1 + (cb lsr 4))
      else parting ((2 * i) + 1) (1 + (ca land 15)) (1 + (cb land 15))
end

module Int_key = struct
  type t = int

  let equal = Int.equal

  (* [asr] extends the 63-bit int to the 64-bit word whose big-endian
     nibbles these are; the first has its sign bit flipped. *)
  let nibble k i =
    1 + (((k asr (60 - (4 * i))) land 15) lxor if i = 0 then 8 else 0)

  let rec diff_from x i =
    if (x asr (60 - (4 * i))) land 15 = 0 then diff_from x (i + 1) else i

  let diff a b =
    if a = b then -1
    else
      let i = diff_from (a lxor b) 0 in
      parting i (nibble a i) (nibble b i)
end

module type S = sig
  type key
  type +'a t

  val empty : 'a t
  val mem : key -> 'a t -> bool
  val find_opt : key -> 'a t -> 'a option
  val add : key -> 'a -> 'a t -> 'a t
  val update : key -> ('a option -> 'a option) -> 'a t -> 'a t
  val iter : (key -> 'a -> unit) -> 'a t -> unit
  val fold : (key -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
  val bindings : 'a t -> (key * 'a) list
  val cardinal : 'a t -> int
  val equal : ('a -> 'a -> bool) -> 'a t -> 'a t -> bool
  val of_arrays : key array -> 'a array -> 'a t
  val codec : key Codec.t -> 'a Codec.t -> 'a t Codec.t
  val invariant : 'a t -> bool
end

module Make (K : Key) = struct
  type key = K.t

  (* A branch splits its keys on the nibble at one index: its header is
     that index, shifted above a 17-bit bitmap of the nibble values its
     children take (bit 0 is the key's end). All its keys agree on every
     nibble before the index. [Empty] is only ever the whole map. *)
  type 'a t =
    | Empty
    | Branch of { header : int; first : 'a t }
    | Leaf of { key : key; value : 'a }
  [@@warning "-unused-constructor"] (* branches are made by [branch] *)

  (* A branch is one block: slot 0 of an array holds the header and the
     slots after it the children, in nibble order, so a lookup reads one
     block per level. [Branch] is the first constructor with fields,
     whose tag an array's is, and names the first two slots; [slots]
     gives the block as the array it was made, which nothing writes
     once it is a branch. *)
  let slots (t : 'a t) : 'a t array = Obj.magic t
  let branch (a : 'a t array) : 'a t = Obj.magic a
  let header_slot (h : int) : 'a t = Obj.magic h
  let bitmap_bits = 17
  let index h = h lsr bitmap_bits

  (* a [K.diff]'s nibble index, and the nibbles its first and second
     keys take there *)
  let part_at p = p lsr 10
  let part_first p = (p lsr 5) land 31
  let part_second p = p land 31

  (* set bits in [x < 2^17] *)
  let popcount x =
    let x = x - ((x lsr 1) land 0x5555_5555) in
    let x = (x land 0x3333_3333) + ((x lsr 2) land 0x3333_3333) in
    (((x + (x lsr 4)) land 0x0f0f_0f0f) * 0x0101_0101) lsr 24 land 0xff

  (* the slot of the child for nibble bit [bit] ([1 lsl nibble]) in a
     branch with header [h], whether the child is there or would go there *)
  let slot h bit = 1 + popcount (h land (bit - 1))
  let empty = Empty

  let rec find_opt k = function
    | Branch { header; _ } as t ->
        let bit = 1 lsl K.nibble k (index header) in
        if header land bit = 0 then None
        else find_opt k (Array.unsafe_get (slots t) (slot header bit))
    | Leaf { key; value } -> if K.equal k key then Some value else None
    | Empty -> None

  let rec mem k = function
    | Branch { header; _ } as t ->
        let bit = 1 lsl K.nibble k (index header) in
        header land bit <> 0
        && mem k (Array.unsafe_get (slots t) (slot header bit))
    | Leaf { key; _ } -> K.equal k key
    | Empty -> false

  (* The leaf [k]'s nibbles lead to, taking a branch's first child where
     [k]'s nibble has none: the first nibble at which [k] differs from
     its key is where [k] leaves the map's keys. [Empty] for the empty
     map. *)
  let rec nearest k = function
    | Branch { header; first } as t ->
        let bit = 1 lsl K.nibble k (index header) in
        nearest k
          (if header land bit = 0 then first
           else Array.unsafe_get (slots t) (slot header bit))
    | t -> t

  let with_slot a i x =
    let b = Array.copy a in
    Array.unsafe_set b i x;
    branch b

  (* [t] with [leaf], of key [k], in place of [k]'s leaf *)
  let rec replace k leaf = function
    | Branch { header; _ } as t ->
        let i = slot header (1 lsl K.nibble k (index header)) in
        let a = slots t in
        with_slot a i (replace k leaf (Array.unsafe_get a i))
    | _ -> leaf

  (* [t] with [leaf], of key [k], added, where [k] first differs from
     [t]'s keys at nibble [d], at which they take nibble [nt] and [k]
     takes [nk] *)
  let rec insert k d nt nk leaf t =
    match t with
    | Branch { header; _ } when index header < d ->
        let i = slot header (1 lsl K.nibble k (index header)) in
        let a = slots t in
        with_slot a i (insert k d nt nk leaf (Array.unsafe_get a i))
    | Branch { header; _ } when index header = d ->
        let bit = 1 lsl nk in
        let i = slot header bit and a = slots t in
        let n = Array.length a in
        let b = Array.make (n + 1) leaf in
        Array.unsafe_set b 0 (header_slot (header lor bit));
        Array.blit a 1 b 1 (i - 1);
        Array.blit a i b (i + 1) (n - i);
        branch b
    | _ ->
        let h = (d lsl bitmap_bits) lor (1 lsl nt) lor (1 lsl nk) in
        branch
          (if nk < nt then [| header_slot h; leaf; t |]
           else [| header_slot h; t; leaf |])

  (* [t] without [k]'s leaf, which it holds *)
  let rec remove k = function
    | Branch { header; _ } as t -> (
        let bit = 1 lsl K.nibble k (index header) in
        let i = slot header bit and a = slots t in
        match Array.unsafe_get a i with
        | Leaf _ ->
            let n = Array.length a in
            if n = 3 then Array.unsafe_get a (3 - i)
            else
              let b = Array.make (n - 1) (header_slot (header lxor bit)) in
              Array.blit a 1 b 1 (i - 1);
              Array.blit a (i + 1) b i (n - 1 - i);
              branch b
        | kid -> with_slot a i (remove k kid))
    | _ -> Empty

  (* [t] with [k]'s binding to [old] rebound to [v] *)
  let rebind k v old t =
    if v == old then t else replace k (Leaf { key = k; value = v }) t

  (* [t], which does not bind [k], with [k] bound to [v], given
     [nearest k t] *)
  let extend k v near t =
    match near with
    | Leaf { key; _ } ->
        let p = K.diff key k in
        insert k (part_at p) (part_first p) (part_second p)
          (Leaf { key = k; value = v })
          t
    | _ -> Leaf { key = k; value = v }

  let add k v t =
    match nearest k t with
    | Leaf { key; value } when K.equal key k -> rebind k v value t
    | near -> extend k v near t

  let update k f t =
    match nearest k t with
    | Leaf { key; value } when K.equal key k -> (
        match f (Some value) with
        | None -> remove k t
        | Some v -> rebind k v value t)
    | near -> ( match f None with None -> t | Some v -> extend k v near t)

  let rec iter f = function
    | Branch _ as t ->
        let a = slots t in
        for i = 1 to Array.length a - 1 do
          iter f (Array.unsafe_get a i)
        done
    | Leaf { key; value } -> f key value
    | Empty -> ()

  let rec fold f t acc =
    match t with
    | Branch _ ->
        let a = slots t in
        let acc = ref acc in
        for i = 1 to Array.length a - 1 do
          acc := fold f (Array.unsafe_get a i) !acc
        done;
        !acc
    | Leaf { key; value } -> f key value acc
    | Empty -> acc

  let bindings t =
    let rec go t acc =
      match t with
      | Branch _ ->
          let a = slots t in
          let acc = ref acc in
          for i = Array.length a - 1 downto 1 do
            acc := go (Array.unsafe_get a i) !acc
          done;
          !acc
      | Leaf { key; value } -> (key, value) :: acc
      | Empty -> acc
    in
    go t []

  let rec cardinal = function
    | Branch _ as t ->
        let a = slots t in
        let n = ref 0 in
        for i = 1 to Array.length a - 1 do
          n := !n + cardinal (Array.unsafe_get a i)
        done;
        !n
    | Leaf _ -> 1
    | Empty -> 0

  (* One set of keys has one trie, so equal maps have equal shapes. *)
  let rec equal eq t1 t2 =
    match (t1, t2) with
    | Branch { header = h1; _ }, Branch { header = h2; _ } ->
        h1 = h2
        &&
        let a1 = slots t1 and a2 = slots t2 in
        let rec kids i =
          i = Array.length a1
          || (equal eq (Array.unsafe_get a1 i) (Array.unsafe_get a2 i)
             && kids (i + 1))
        in
        kids 1
    | Leaf l1, Leaf l2 -> K.equal l1.key l2.key && eq l1.value l2.value
    | Empty, Empty -> true
    | _ -> false

  (* The branches a sorted build has open, along the trie's right edge,
     outermost first: branch [j] splits at nibble [at.(j)], deeper than
     the one before it, and its block is laid out in [slots] from
     [stride * j]: the header, written when it closes, then the children
     it has so far, [width.(j)] of them, their nibbles in [map.(j)]. *)
  type 'a build = {
    mutable depth : int;
    mutable at : int array;
    mutable map : int array;
    mutable width : int array;
    mutable slots : 'a t array;
  }

  let stride = bitmap_bits + 1

  (* [cur], whose nibble at the top branch's index is [nd], as that
     branch's next child *)
  let push b nd cur =
    let j = b.depth - 1 in
    let w = Array.unsafe_get b.width j in
    Array.unsafe_set b.slots ((j * stride) + 1 + w) cur;
    Array.unsafe_set b.width j (w + 1);
    Array.unsafe_set b.map j (Array.unsafe_get b.map j lor (1 lsl nd))

  let open_branch b at =
    if b.depth = Array.length b.at then (
      let grow a fill =
        let a' = Array.make (2 * Array.length a) fill in
        Array.blit a 0 a' 0 (Array.length a);
        a'
      in
      b.at <- grow b.at 0;
      b.map <- grow b.map 0;
      b.width <- grow b.width 0;
      b.slots <- grow b.slots Empty);
    let j = b.depth in
    b.depth <- j + 1;
    Array.unsafe_set b.at j at;
    Array.unsafe_set b.map j 0;
    Array.unsafe_set b.width j 0

  (* Closes every open branch deeper than nibble [d] over [cur], the
     subtree of the last keys read, [last] among them, and gives the
     subtree they make. *)
  let rec close_above b d last cur =
    let j = b.depth - 1 in
    if j < 0 || Array.unsafe_get b.at j <= d then cur
    else (
      push b (K.nibble last (Array.unsafe_get b.at j)) cur;
      b.depth <- j;
      let h =
        (Array.unsafe_get b.at j lsl bitmap_bits) lor Array.unsafe_get b.map j
      in
      Array.unsafe_set b.slots (j * stride) (header_slot h);
      let w = Array.unsafe_get b.width j in
      close_above b d last (branch (Array.sub b.slots (j * stride) (w + 1))))

  (* [n] bindings, read in input order by calling [key] then [value] for
     each. While the keys strictly increase, the trie is built bottom-up
     along its right edge: each key closes the open branches deeper than
     the nibble where it leaves the previous key, and joins the branch
     at that nibble, opening it if none is open there, so every branch
     is allocated once, at its final size. The first key that does not
     increase ends the build: it and the rest are added to what was
     built, as adding every binding in order would. *)
  let of_reader n ~key ~value =
    if n = 0 then Empty
    else
      let b =
        {
          depth = 0;
          at = Array.make 8 0;
          map = Array.make 8 0;
          width = Array.make 8 0;
          slots = Array.make (8 * stride) Empty;
        }
      in
      let k0 = key () in
      let v0 = value () in
      let rec sorted i last cur =
        if i = n then close_above b (-1) last cur
        else
          let k = key () in
          let v = value () in
          let p = K.diff last k in
          if p >= 0 && part_first p < part_second p then (
            let d = part_at p in
            let j = b.depth - 1 in
            (* mostly [k] is the next child of the deepest open branch *)
            if j >= 0 && Array.unsafe_get b.at j = d then
              push b (part_first p) cur
            else (
              let cur = close_above b d last cur in
              if b.depth = 0 || Array.unsafe_get b.at (b.depth - 1) <> d then
                open_branch b d;
              push b (part_first p) cur);
            sorted (i + 1) k (Leaf { key = k; value = v }))
          else
            let rec unsorted i m =
              if i = n then m
              else
                let k = key () in
                unsorted (i + 1) (add k (value ()) m)
            in
            unsorted (i + 1) (add k v (close_above b (-1) last cur))
      in
      sorted 1 k0 (Leaf { key = k0; value = v0 })

  let of_arrays keys values =
    if Array.length values <> Array.length keys then
      invalid_arg "Ordered_map.of_arrays";
    let i = ref (-1) in
    of_reader (Array.length keys)
      ~key:(fun () ->
        incr i;
        keys.(!i))
      ~value:(fun () -> values.(!i))

  let codec key value = Codec.bindings ~iter ~of_reader key value

  let invariant t =
    let keys t = fold (fun k _ acc -> k :: acc) t [] in
    (* every branch splits deeper than its parent, on nibbles its keys
       take, into at least two children, and its keys agree before the
       nibble it splits on *)
    let rec ok above = function
      | Branch { header; first } as t ->
          let at = index header and a = slots t in
          let nibbles =
            List.filter
              (fun b -> header land (1 lsl b) <> 0)
              (List.init bitmap_bits Fun.id)
          in
          let r = List.hd (keys first) in
          at > above
          && Array.length a >= 3
          && List.length nibbles = Array.length a - 1
          && List.for_all2
               (fun b kid ->
                 ok at kid
                 && List.for_all
                      (fun k ->
                        let p = K.diff r k in
                        K.nibble k at = b && (p < 0 || part_at p >= at))
                      (keys kid))
               nibbles
               (List.tl (Array.to_list a))
      | Leaf _ -> true
      | Empty -> false
    in
    match t with Empty -> true | t -> ok (-1) t
end
