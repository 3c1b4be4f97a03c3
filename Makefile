# Convenience targets; everything is plain dune underneath.

.PHONY: all build test check gate chaos-smoke bench examples fuzz explore soak doc clean outputs

all: build test

build:
	dune build @all

test:
	dune runtest

# The pre-merge gate: everything compiles (including docs, where odoc is
# available), every test passes, a quick chaos campaign stays clean, and
# the bench-regression gate matches the committed snapshots.
check:
	dune build @all
	dune runtest
	$(MAKE) chaos-smoke
	$(MAKE) gate
	@command -v odoc >/dev/null 2>&1 && dune build @doc \
	  || echo "odoc not installed; skipping doc build"

# The bench-regression gate: re-run the asserted sim invariants (E1 fence
# bounds, F2, the deterministic E14 slices) and diff the fresh snapshots
# against the committed goldens in bench/snapshots/. --self-test first
# proves the gate is still capable of failing.
gate:
	dune build bench/bench_gate.exe
	./_build/default/bench/bench_gate.exe --self-test

# A fast slice of every chaos campaign, E12 through E20: media faults +
# nested recovery crashes on two objects, the unhardened calibration
# baseline (which must be caught losing data; E19's no-sweep calibration
# too), a mirrored slice where
# primary-only faults must cost nothing, the same pair against the
# 4-shard partitioned construction, the group-commit object with the
# crash landing mid-window (alone, composed with --mirrored, and sharded
# group commit under --sharded), exactly-once
# client sessions (E15), cross-shard transactions (E19: all-or-nothing
# across a crash sweep, plain and mirrored, and the no-sweep calibration
# on both), a kill -9 slice of the E17
# file-backend campaign (real files, real fsync, every epoch a forked
# child SIGKILLed mid-fence), a slice of the E18 service campaign (`onll serve`
# subprocesses over real sockets, audited for exactly-once), and the E20
# bounded-staleness campaign (risk-budgeted lazy fences; crash loss must
# be the budgeted suffix, exactly reported — plain and mirrored).
#
# CHAOS_SMOKE_SLICES below is the single source of truth for the slice
# list — ci.yml's smoke step runs this target and documents nothing of
# its own. One slice per line, each a full `onll` CLI invocation.
# Full campaigns: dune exec bench/main.exe e12 e13 e14 e15 e16 e17 e18 e19
define CHAOS_SMOKE_SLICES
chaos -s kv --seeds 15
chaos -s counter --seeds 15
chaos -s kv --seeds 15 --unhardened
chaos -s kv --seeds 10 --mirrored
chaos -s kv --seeds 10 --sharded
chaos -s kv --seeds 10 --sharded --mirrored
chaos -s kv --seeds 10 --batched
chaos -s kv --seeds 10 --batched --mirrored
chaos -s kv --seeds 10 --batched --sharded
chaos -s kv --seeds 15 --batched --unhardened
chaos --session --seeds 10
chaos -s kv --txn --seeds 10
chaos -s kv --txn --mirrored --seeds 10
chaos -s kv --txn --unhardened --seeds 8
chaos -s kv --txn --mirrored --unhardened --seeds 8
chaos -s kv --relaxed --seeds 10
chaos -s kv --relaxed --mirrored --seeds 10
store campaign --seeds 4
service campaign --seeds 2
endef
export CHAOS_SMOKE_SLICES

# Built once up front: the slices reuse one set of artifacts instead of
# per-run dune exec rebuild checks. Each slice is timed and the target
# ends with a per-slice wall-clock summary, so a slice that quietly got
# slow shows up in the CI log without artifact spelunking.
ONLL_CLI := ./_build/default/bin/onll_cli.exe
chaos-smoke:
	dune build bin/onll_cli.exe
	@echo "$$CHAOS_SMOKE_SLICES" | { total0=$$(date +%s); summary=""; \
	  while IFS= read -r slice; do \
	    [ -n "$$slice" ] || continue; \
	    t0=$$(date +%s); \
	    $(ONLL_CLI) $$slice || exit 1; \
	    summary="$$summary  $$(( $$(date +%s) - t0 ))s	onll $$slice\n"; \
	  done; \
	  printf 'chaos-smoke wall clock per slice (total %ds):\n' \
	    $$(( $$(date +%s) - total0 )); \
	  printf "$$summary"; }
	@# A campaign that records violations must exit with the distinct
	@# code 4 even under --quiet: the E20 unhardened calibration is the
	@# deliberately violating campaign, so assert on its exit code alone.
	@st=0; $(ONLL_CLI) chaos -s kv --relaxed --unhardened --quiet --seeds 6 || st=$$?; \
	  if [ "$$st" -ne 4 ]; then \
	    echo "chaos-smoke: expected exit 4 from the quiet violating campaign, got $$st"; \
	    exit 1; \
	  fi; \
	  echo "quiet violating campaign exited with code 4 (asserted)"
	@# --session runs its own grid: combining it with another campaign
	@# flag is a usage error (exit 1), never a silently different run.
	@st=0; $(ONLL_CLI) chaos --session --unhardened --quiet --seeds 2 \
	  2>/dev/null || st=$$?; \
	  if [ "$$st" -ne 1 ]; then \
	    echo "chaos-smoke: expected exit 1 from --session --unhardened, got $$st"; \
	    exit 1; \
	  fi; \
	  echo "chaos --session --unhardened refused with code 1 (asserted)"
	@# --session reads no -s either: its grid is counter and ledger (two
	@# seeds, where the grid itself would pass: only the refusal exits 1).
	@st=0; $(ONLL_CLI) chaos --session -s queue --quiet --seeds 2 \
	  2>/dev/null || st=$$?; \
	  if [ "$$st" -ne 1 ]; then \
	    echo "chaos-smoke: expected exit 1 from --session -s queue, got $$st"; \
	    exit 1; \
	  fi; \
	  echo "chaos --session -s queue refused with code 1 (asserted)"
	@# A forked campaign in which nothing was killed proves nothing: with
	@# no kill schedule (--seeds 0) each must exit 1, the code of an unmet
	@# At_least, and name its kills requirement on an UNMET line.
	@for verb in store service; do \
	  st=0; out=$$($(ONLL_CLI) $$verb campaign --seeds 0 2>&1) || st=$$?; \
	  if [ "$$st" -ne 1 ] || ! echo "$$out" | grep -q '^UNMET: .*kills'; then \
	    echo "$$out"; \
	    echo "chaos-smoke: expected exit 1 and an UNMET kills line from $$verb campaign --seeds 0, got $$st"; \
	    exit 1; \
	  fi; \
	  echo "$$verb campaign --seeds 0 exited with code 1, kills UNMET (asserted)"; \
	done

bench:
	dune exec bench/main.exe

examples:
	dune exec examples/quickstart.exe
	dune exec examples/persistent_kv.exe
	dune exec examples/bank_ledger.exe
	dune exec examples/durable_queue.exe
	dune exec examples/task_scheduler.exe
	dune exec examples/exactly_once.exe
	dune exec examples/self_healing.exe
	dune exec examples/atomic_transfer.exe
	dune exec examples/disk_persistence.exe -- write /tmp/onll-demo.img
	dune exec examples/disk_persistence.exe -- recover /tmp/onll-demo.img

fuzz:
	dune exec bin/onll_cli.exe -- fuzz -s counter --seeds 200
	dune exec bin/onll_cli.exe -- fuzz -s ledger --seeds 200

explore:
	dune exec bench/main.exe e9

soak:
	dune exec test/soak/soak.exe

doc:
	dune build @doc 2>/dev/null || true

# The repository's final evidence files.
outputs:
	dune runtest --force --no-buffer 2>&1 | tee test_output.txt
	dune exec bench/main.exe 2>&1 | tee bench_output.txt

clean:
	dune clean
