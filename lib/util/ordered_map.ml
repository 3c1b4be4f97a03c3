(* Stdlib [Map]'s AVL trees (see ordered_map.mli), cut to what the
   durable states use, plus [of_reader]: the decoder's build. *)

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

module Make (Ord : Map.OrderedType) = struct
  type key = Ord.t

  type 'a t = Empty | Node of { l : 'a t; v : key; d : 'a; r : 'a t; h : int }

  let height = function Empty -> 0 | Node { h; _ } -> h

  let create l v d r =
    let hl = height l and hr = height r in
    Node { l; v; d; r; h = (if hl >= hr then hl + 1 else hr + 1) }

  (* [create], rotating once or twice when the heights of [l] and [r]
     differ by more than 2 (never by more than 3: one insertion or removal
     below a balanced node). *)
  let bal l v d r =
    let hl = height l and hr = height r in
    if hl > hr + 2 then
      match l with
      | Node { l = ll; v = lv; d = ld; r = lr; _ } -> (
          if height ll >= height lr then create ll lv ld (create lr v d r)
          else
            match lr with
            | Node { l = lrl; v = lrv; d = lrd; r = lrr; _ } ->
                create (create ll lv ld lrl) lrv lrd (create lrr v d r)
            | Empty -> invalid_arg "Ordered_map.bal")
      | Empty -> invalid_arg "Ordered_map.bal"
    else if hr > hl + 2 then
      match r with
      | Node { l = rl; v = rv; d = rd; r = rr; _ } -> (
          if height rr >= height rl then create (create l v d rl) rv rd rr
          else
            match rl with
            | Node { l = rll; v = rlv; d = rld; r = rlr; _ } ->
                create (create l v d rll) rlv rld (create rlr rv rd rr)
            | Empty -> invalid_arg "Ordered_map.bal")
      | Empty -> invalid_arg "Ordered_map.bal"
    else Node { l; v; d; r; h = (if hl >= hr then hl + 1 else hr + 1) }

  let empty = Empty

  let rec mem x = function
    | Empty -> false
    | Node { l; v; r; _ } ->
        let c = Ord.compare x v in
        c = 0 || mem x (if c < 0 then l else r)

  let rec find_opt x = function
    | Empty -> None
    | Node { l; v; d; r; _ } ->
        let c = Ord.compare x v in
        if c = 0 then Some d else find_opt x (if c < 0 then l else r)

  let rec add x data = function
    | Empty -> Node { l = Empty; v = x; d = data; r = Empty; h = 1 }
    | Node { l; v; d; r; h } as m ->
        let c = Ord.compare x v in
        if c = 0 then if d == data then m else Node { l; v = x; d = data; r; h }
        else if c < 0 then
          let ll = add x data l in
          if l == ll then m else bal ll v d r
        else
          let rr = add x data r in
          if r == rr then m else bal l v d rr

  let rec min_binding = function
    | Node { l = Empty; v; d; _ } -> (v, d)
    | Node { l; _ } -> min_binding l
    | Empty -> invalid_arg "Ordered_map.min_binding"

  let rec remove_min_binding = function
    | Node { l = Empty; r; _ } -> r
    | Node { l; v; d; r; _ } -> bal (remove_min_binding l) v d r
    | Empty -> invalid_arg "Ordered_map.remove_min_binding"

  (* Two trees whose keys are ordered [t1] before [t2] and whose heights
     differ by at most 2. *)
  let merge t1 t2 =
    match (t1, t2) with
    | Empty, t | t, Empty -> t
    | _ ->
        let x, d = min_binding t2 in
        bal t1 x d (remove_min_binding t2)

  let rec update x f = function
    | Empty -> (
        match f None with
        | None -> Empty
        | Some data -> Node { l = Empty; v = x; d = data; r = Empty; h = 1 })
    | Node { l; v; d; r; h } as m ->
        let c = Ord.compare x v in
        if c = 0 then
          match f (Some d) with
          | None -> merge l r
          | Some data ->
              if d == data then m else Node { l; v = x; d = data; r; h }
        else if c < 0 then
          let ll = update x f l in
          if l == ll then m else bal ll v d r
        else
          let rr = update x f r in
          if r == rr then m else bal l v d rr

  let rec iter f = function
    | Empty -> ()
    | Node { l; v; d; r; _ } ->
        iter f l;
        f v d;
        iter f r

  let rec fold f m acc =
    match m with
    | Empty -> acc
    | Node { l; v; d; r; _ } -> fold f r (f v d (fold f l acc))

  let bindings m =
    let rec go acc = function
      | Empty -> acc
      | Node { l; v; d; r; _ } -> go ((v, d) :: go acc r) l
    in
    go [] m

  let rec cardinal = function
    | Empty -> 0
    | Node { l; r; _ } -> cardinal l + 1 + cardinal r

  (* In-order walks for [equal]: the bindings left to visit, as each
     pending node's key, value and right subtree, leftmost first. *)
  type 'a walk = End | More of key * 'a * 'a t * 'a walk

  let rec descend m w =
    match m with
    | Empty -> w
    | Node { l; v; d; r; _ } -> descend l (More (v, d, r, w))

  let equal eq m1 m2 =
    let rec go w1 w2 =
      match (w1, w2) with
      | End, End -> true
      | End, _ | _, End -> false
      | More (k1, d1, r1, w1), More (k2, d2, r2, w2) ->
          Ord.compare k1 k2 = 0
          && eq d1 d2
          && go (descend r1 w1) (descend r2 w2)
    in
    go (descend m1 End) (descend m2 End)

  (* [n] bindings, read in input order by calling [key] then [value] for
     each. The middle binding at the root and each half built the same
     way below it, so the halves' sizes differ by at most one, their
     heights do too, and every node is allocated once, in its place;
     reading the left half first reads the bindings in order. Unless the
     keys strictly increase the result is no search tree, and its
     bindings, in order, are added to an empty map instead. *)
  let of_reader n ~key ~value =
    (* The previous key sits in one cell made at the first key, so the
       check allocates nothing per binding. *)
    let sorted = ref true and last = ref None in
    let rec build n =
      if n = 0 then Empty
      else
        let l = build (n / 2) in
        let k = key () in
        let d = value () in
        (match !last with
        | None -> last := Some (ref k)
        | Some p ->
            if Ord.compare !p k >= 0 then sorted := false;
            p := k);
        create l k d (build (n - 1 - (n / 2)))
    in
    let m = build n in
    if !sorted then m else fold add m Empty

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

  let invariant m =
    (* the subtree's height when it is an AVL tree whose keys lie strictly
       between [lo] and [hi] *)
    let before a b =
      match (a, b) with Some a, Some b -> Ord.compare a b < 0 | _ -> true
    in
    let rec check ~lo ~hi = function
      | Empty -> Some 0
      | Node { l; v; r; h; _ } -> (
          if not (before lo (Some v) && before (Some v) hi) then None
          else
            match (check ~lo ~hi:(Some v) l, check ~lo:(Some v) ~hi r) with
            | Some hl, Some hr when abs (hl - hr) <= 2 && h = 1 + max hl hr ->
                Some h
            | _ -> None)
    in
    check ~lo:None ~hi:None m <> None
end
