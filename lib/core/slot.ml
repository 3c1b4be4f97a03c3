(** The write-once slot of every execution-trace node (§8 read
    acceleration). The first fold through a node publishes the state
    after it and its operation's value there, so each operation is
    applied once, and a read or owner at a published node applies
    nothing. Plain fields: a racy reader sees nothing or the one
    deterministic result. A state leaves its slot when the node two links
    above is published (no fold starts there any more), through the link
    each slot keeps to the one it was folded from; the value leaves when
    the node's owner takes it. *)

type ('state, 'value) t =
  | Empty
  | Published of {
      mutable value : 'value option;  (** until the owner takes it *)
      mutable state : 'state option;
      mutable below : ('state, 'value) t;
          (** the slot this one was folded from, until the next is *)
    }

let state = function Published p -> p.state | Empty -> None

(* The value, for the node's owner, who asks once; [None] while empty. *)
let take = function
  | Empty -> None
  | Published p -> (
      match p.value with
      | Some _ as v ->
          p.value <- None;
          v
      | None -> invalid_arg "Slot.take: the value was taken")

(* The slot of a node just above [below]'s, publishing [state] and
   [value]: the state two links down leaves its slot, and [below] forgets
   it, so the chain never grows past two. *)
let publish ~below state value =
  (match below with
  | Published b ->
      (match b.below with Published bb -> bb.state <- None | Empty -> ());
      b.below <- Empty
  | Empty -> ());
  Published { value = Some value; state = Some state; below }

(* Apply [nodes] (oldest first) to [state], the state published in
   [below] (or a base's, with [below] empty), publishing each node not yet
   published. A node a concurrent fold published since lends its state;
   one whose state has left its slot since is applied again, not
   republished. Returns the state after the last node. *)
let rec replay ~slot ~set ~env ~apply state below = function
  | [] -> state
  | n :: rest -> (
      match slot n with
      | Published { state = Some s; _ } as p ->
          replay ~slot ~set ~env ~apply s p rest
      | Published { state = None; _ } as p ->
          replay ~slot ~set ~env ~apply (fst (apply state (env n))) p rest
      | Empty ->
          let s, v = apply state (env n) in
          let p = publish ~below s v in
          set n p;
          replay ~slot ~set ~env ~apply s p rest)
