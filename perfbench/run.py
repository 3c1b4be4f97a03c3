#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the benchmark (perfbench/bench.ml
and the modules beside it) and the `onll` CLI from source with dune, prints
a machine fingerprint, then runs one workload. The last line of stdout is
the result: {"correct", "attempted", "failed", "metrics"}. Exits non-zero,
printing no result, when the build fails or the run does not complete.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("serve-eo-mem", "serve-stale-mem", "lib-kv-nvm", "serve-eo-file")
BENCH = "_build/default/perfbench/bench.exe"
ONLL = "_build/default/bin/onll_cli.exe"
RUN_DIR = "perfbench/_run"
RUN_TIMEOUT_S = 170


def dune():
    return ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]


def first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
        return out.stdout.strip().splitlines()[0] if out.returncode == 0 else "unknown"
    except (OSError, IndexError, subprocess.TimeoutExpired):
        return "unknown"


def fs_type(path):
    """Filesystem type of the mount holding `path`, from /proc/mounts."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                fields = line.split()
                mnt = fields[1]
                inside = path == mnt or path.startswith(mnt.rstrip("/") + "/")
                if inside and len(mnt) > len(best):
                    best, kind = mnt, fields[2]
    except OSError:
        pass
    return kind


def fingerprint():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "store_fs": fs_type(RUN_DIR),
        "ocaml": first_line(["ocamlfind", "ocamlopt", "-version"]),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    os.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    build = subprocess.run(
        dune() + ["build", "--root", ".", "./perfbench/bench.exe", "./bin/onll_cli.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit("perfbench: build failed")

    os.makedirs(RUN_DIR, exist_ok=True)
    print("fingerprint: " + json.dumps(fingerprint()), flush=True)
    cmd = [BENCH, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--onll", ONLL]
    # One CPU for the benchmark and every server it starts: a request then
    # wakes its peer on the same CPU, which a busy VM host delays far less
    # than a wake-up sent to another vCPU (NOTES.md, Steadiness). Its own
    # process group, so that whatever it started can be stopped if it dies
    # or overruns.
    cpu = max(os.sched_getaffinity(0))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True,
                            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit("perfbench: run timed out")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shutil.rmtree(RUN_DIR, ignore_errors=True)

    lines = out.rstrip("\n").splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    if result is None:
        sys.stdout.write(out)
        sys.exit("perfbench: the run printed no result (exit %d)" % proc.returncode)
    sys.stdout.write(out)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
