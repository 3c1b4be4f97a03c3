(* lib-kv-nvm: [Onll.Make(Native)(Kv)] through its public API, one caller,
   closed loop. 200k keys are preloaded, then a fixed number of ops runs in
   rounds: 80% [Get] / 20% [Put], keys drawn from a seeded Zipf(0.99),
   with checkpoint + prune halfway through each round and timed
   recoveries after it.

   The explicit checkpoint cadence is the documented §8 practice, and it
   also keeps the workload clear of a known defect: with ten or more keys
   the construction's own emergency checkpoint fires too late to fit,
   and [update] raises [Log_full] after ~600 updates on a 64 KiB log.
   That defect is an open finding for its own fix (NOTES.md). *)

module Kv = Onll_specs.Kv

let keys = 200_000
let zipf_s = 0.99

(* Closed loop: the op count is fixed from [seconds], never from how fast
   the host runs, so every run does the same work: every fifth op is a
   [Put]. The ops run in [rounds] equal rounds, each with a checkpoint +
   prune halfway, which leaves the same tail for recovery to replay; the
   untraced pass then times [recovers_per_round] recoveries. Throughput
   and the p50s are medians over the rounds, and the recoveries are
   spread over the run, so a burst of host speed that covers a minority
   of the run moves none of them (NOTES.md, Steadiness). *)
let ops_per_second = 50_000
let rounds = 8
let recovers_per_round = 2

(* The untraced pass sets up this many stores and reports the median; the
   last one runs the window. *)
let setups = 3

(* Explicit checkpoints drop log entries logically; only the emergency
   path compacts physically. The log is sized so that a run never reaches
   that path: the preload's records (~113 B each, 22.7 MB), one 200k-key
   checkpoint per round and the preload's (~6.5 MB each) and the window's
   put records, with room to spare. *)
let log_capacity ~n_ops = (32 + (7 * (rounds + 1)) + ((n_ops / 5 * 128) lsr 20)) lsl 20

(* An op slower than this misses [ok_frac]. *)
let limit_us = 1000.
let key k = Printf.sprintf "key%07d" k

(* Zipf ranks are mapped to keys through a seeded permutation, so hot keys
   are spread over the key space. *)
type gen = { rng : Onll_util.Splitmix.t; cdf : float array; perm : int array }

let gen seed =
  let rng = Onll_util.Splitmix.create seed in
  let cdf = Array.make keys 0. in
  let acc = ref 0. in
  for r = 0 to keys - 1 do
    acc := !acc +. (1. /. Float.pow (float_of_int (r + 1)) zipf_s);
    cdf.(r) <- !acc
  done;
  let perm = Array.init keys Fun.id in
  Onll_util.Splitmix.shuffle rng perm;
  { rng; cdf; perm }

let draw g =
  let u = Onll_util.Splitmix.float g.rng g.cdf.(keys - 1) in
  let lo = ref 0 and hi = ref (keys - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if g.cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  g.perm.(!lo)

type result = {
  setup_s : float;
  window_s : float;
  ops : int;
  updates : Stats.Samples.t;  (* us *)
  reads : Stats.Samples.t;
  thr : float list;  (* per round: correct ops per second, its checkpoint included *)
  upd_p50 : float list;  (* per round *)
  rd_p50 : float list;
  ok : int;
  failed : int;
  recover_s : float;  (* untraced pass only *)
  violations : string list;
  (* traced pass only *)
  update_self_ns : int;
  read_self_ns : int;
  checkpoint_ns : int;
  checkpoints : int;
  spans_ns : int;
  layers : Stats.metric list;  (* machine and spec, traced pass only *)
}

(* One pass over machine [M] and spec [S]; [traced] adds the span
   bookkeeping around each call (the wrappers themselves are in M and S). *)
module Pass (M : Onll_machine.Machine_sig.S) (S : Onll_core.Spec.S
  with type state = Kv.state and type update_op = Kv.update_op
   and type read_op = Kv.read_op and type value = Kv.value) =
struct
  module C = Onll_core.Onll.Make (M) (S)

  let run ~traced ~seed ~seconds ~t_launch =
    let n_ops = seconds * ops_per_second in
    let per_round = n_ops / rounds in
    (* a fresh store, preloaded and checkpointed; the first set-up also
       counts the process start *)
    let setup t0 =
      let obj =
        C.make
          { Onll_core.Onll.Config.default with log_capacity = log_capacity ~n_ops; local_views = true }
      in
      let shadow = Array.make keys None in
      for k = 0 to keys - 1 do
        let v = "v" ^ string_of_int k in
        ignore (C.update obj (Kv.Put (key k, v)) : Kv.value);
        shadow.(k) <- Some v
      done;
      C.prune obj ~below:(C.checkpoint obj);
      (obj, shadow, Stats.now_s () -. t0)
    in
    let setup_times = ref [] and store = ref None in
    for i = 1 to if traced then 1 else setups do
      let t0 =
        if i = 1 then t_launch
        else begin
          (* the previous store's memory is reclaimed before the next is timed *)
          store := None;
          Gc.compact ();
          Stats.now_s ()
        end
      in
      let obj, shadow, t = setup t0 in
      setup_times := t :: !setup_times;
      store := Some (obj, shadow)
    done;
    let obj, shadow = Option.get !store in
    let g = gen seed in
    let updates = Stats.Samples.create () and reads = Stats.Samples.create () in
    let ok = ref 0 and failed = ref 0 and violations = ref [] in
    let upd_self = ref 0 and read_self = ref 0 and ckpt_ns = ref 0 and ckpts = ref 0 in
    let spans = ref 0 and puts = ref 0 and window_ns = ref 0 in
    let thr = ref [] and upd_p50 = ref [] and rd_p50 = ref [] and recs = ref [] in
    let setup_s = Stats.median_of !setup_times in
    Timed.reset ();
    let op i =
      let k = draw g in
      let is_put = i mod 5 = 0 in
      let mk = Timed.mark () in
      let t0 = Stats.now_ns () in
      let v =
        if is_put then C.update obj (Kv.Put (key k, Printf.sprintf "%x" i))
        else C.read obj (Kv.Get (key k))
      in
      let t1 = Stats.now_ns () in
      let us = float_of_int (t1 - t0) /. 1e3 in
      if traced then begin
        spans := !spans + (t1 - t0);
        let self = Timed.self_ns mk ~t0 ~t1 in
        if is_put then upd_self := !upd_self + self else read_self := !read_self + self
      end;
      let correct =
        match v with
        | Kv.Previous p when is_put -> p = shadow.(k)
        | Kv.Found f when not is_put -> f = shadow.(k)
        | _ -> false
      in
      if correct then begin
        if us <= limit_us then incr ok;
        Stats.Samples.add (if is_put then updates else reads) us
      end
      else begin
        incr failed;
        if List.length !violations < 5 then
          violations := Printf.sprintf "op %d on key %d returned a wrong value" i k :: !violations
      end;
      if is_put then begin
        shadow.(k) <- Some (Printf.sprintf "%x" i);
        incr puts
      end
    in
    (* Recovery from the durable logs (Listing 5); the final check then
       reads every key through the recovered object. *)
    let recover () =
      let t0 = Stats.now_s () in
      C.recover obj;
      recs := (Stats.now_s () -. t0) :: !recs
    in
    for r = 0 to rounds - 1 do
      let w0 = Stats.now_ns () and u0 = Stats.Samples.count updates and d0 = Stats.Samples.count reads in
      for j = 1 to per_round do
        op ((r * per_round) + j);
        if j = per_round / 2 then begin
          let t0 = Stats.now_ns () in
          C.prune obj ~below:(C.checkpoint obj);
          let d = Stats.now_ns () - t0 in
          ckpt_ns := !ckpt_ns + d;
          spans := !spans + d;
          incr ckpts
        end
      done;
      let w = Stats.now_ns () - w0 in
      window_ns := !window_ns + w;
      let upd = Stats.Samples.since updates u0 and rd = Stats.Samples.since reads d0 in
      thr := (float_of_int (Stats.Samples.count upd + Stats.Samples.count rd) /. (float_of_int w /. 1e9)) :: !thr;
      upd_p50 := Stats.Samples.median upd :: !upd_p50;
      rd_p50 := Stats.Samples.median rd :: !rd_p50;
      (* the traced pass leaves recovery out of its machine accounting *)
      if not traced then for _ = 1 to recovers_per_round do recover () done
    done;
    let window_ns = !window_ns in
    let layers =
      if traced then Timed.machine_metrics (Timed.summary ()) ~updates:!puts ~window_ns @ Timed.spec_metrics ()
      else []
    in
    if traced then recover ();
    let violations =
      List.rev !violations
      @ Checks.check_kv ~expected:shadow
          ~get:(fun k ->
            match C.read obj (Kv.Get (key k)) with Kv.Found f -> f | _ -> Some "<not Found>")
    in
    {
      setup_s; window_s = float_of_int window_ns /. 1e9; ops = rounds * per_round; updates; reads;
      thr = !thr; upd_p50 = !upd_p50; rd_p50 = !rd_p50; ok = !ok; failed = !failed;
      recover_s = Stats.median_of !recs; violations; update_self_ns = !upd_self;
      read_self_ns = !read_self; checkpoint_ns = !ckpt_ns; checkpoints = !ckpts;
      spans_ns = !spans; layers;
    } [@ocamlformat "disable"]
end

let native () =
  let nat = Onll_machine.Native.create ~fence_ns:500 ~max_processes:1 () in
  ignore (Onll_machine.Native.register nat);
  Onll_machine.Native.machine nat

let run_plain ~seed ~seconds ~t_launch =
  let module M = (val native ()) in
  let module P = Pass (M) (Kv) in
  P.run ~traced:false ~seed ~seconds ~t_launch

let run_traced ~seed ~seconds =
  let module M = Timed.Machine ((val native ())) in
  let module P = Pass (M) (Timed.Spec (Kv)) in
  P.run ~traced:true ~seed ~seconds ~t_launch:(Stats.now_s ())

let e2e r ~rss =
  let m = Stats.m in
  [
    m "setup_s" "s" r.setup_s;
    m "recover_s" "s" r.recover_s;
    m "throughput_ops_s" "ops/s" (Stats.median_of r.thr);
    m "update_p50_us" "us" (Stats.median_of r.upd_p50);
    m "update_p99_slice_median_us" "us" (Stats.Samples.slice_p99 r.updates);
    m "read_p50_us" "us" (Stats.median_of r.rd_p50);
    m "read_p99_slice_median_us" "us" (Stats.Samples.slice_p99 r.reads);
    m "ok_frac" "ratio" (float_of_int r.ok /. float_of_int r.ops);
    m "peak_rss_mb" "MiB" rss;
  ]

(* The share of the traced window the spans must cover (NOTES.md). *)
let min_coverage = 0.8
let coverage r = float_of_int r.spans_ns /. (r.window_s *. 1e9)

let per_layer ~untraced ~traced:r =
  let m = Stats.m in
  let window_ns = r.window_s *. 1e9 in
  let n = Stats.Samples.count in
  let per_op ns k = if k = 0 then 0. else float_of_int ns /. float_of_int k /. 1e3 in
  r.layers
  @ [
      m "core.update_self_us" "us" (per_op r.update_self_ns (n r.updates));
      m "core.read_self_us" "us" (per_op r.read_self_ns (n r.reads));
      m "core.checkpoint_ms" "ms" (per_op r.checkpoint_ns r.checkpoints /. 1e3);
      m "core.checkpoint_share" "ratio" (float_of_int r.checkpoint_ns /. window_ns);
      (* no session, service, protocol, server or generator on this path *)
      m "session.shed_frac" "ratio" 0.;
      m "service.handle_us" "us" 0.;
      m "protocol.codec_us" "us" 0.;
      m "protocol.bytes_per_op" "B" 0.;
      m "server.socket_us" "us" 0.;
      m "server.restart_ready_s" "s" 0.;
      m "service.reattach_ms" "ms" 0.;
      m "tail.update_p99_pooled_us" "us" (Stats.Samples.p99 untraced.updates);
      m "tail.read_p99_pooled_us" "us" (Stats.Samples.p99 untraced.reads);
      m "loadgen.late_p99_us" "us" 0.;
      m "trace.overhead_frac" "ratio" ((r.window_s /. untraced.window_s) -. 1.);
      m "trace.coverage" "ratio" (coverage r);
    ]
