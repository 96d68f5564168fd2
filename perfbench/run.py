#!/usr/bin/env python3
"""Builds and runs one workload of the TAPS benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` package and, for the
daemon workloads, the `taps-serviced` binary (release profile, offline,
into `$CARGO_TARGET_DIR`, default `.bench_build`), then runs the workload
and relays its output. The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`; it is checked
against `BENCHMARK.json` before it is printed. A failed build, a failed
output check or a malformed result exits non-zero without a result line.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
RUN_DIR = ".bench_run"
# The whole run, including a warm build, must end well inside 180 s.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 870


def die(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def cargo_build(args, target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"build failed: {e}")
    if done.returncode != 0:
        die(f"build failed: {' '.join(cmd)}")


def check_result(line, spec, trace):
    try:
        res = json.loads(line)
    except json.JSONDecodeError:
        die(f"last line is not JSON: {line!r}")
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        die(f"result keys are {sorted(res)}")
    if res["correct"] is not True:
        die("the run reports incorrect output")
    for k in ("attempted", "failed"):
        if not isinstance(res[k], int) or res[k] < 0:
            die(f"{k} is not a whole number: {res[k]!r}")
    if res["attempted"] < 1:
        die("nothing was attempted")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = res["metrics"]
    if set(got) != set(want):
        die(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
    for name, m in got.items():
        v = m.get("value")
        if m.get("unit") != want[name] or not isinstance(v, (int, float)) or not math.isfinite(v):
            die(f"bad metric {name}: {m!r}")
        if not trace and v == 0:
            die(f"end-to-end metric {name} is 0")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()
    if a.seconds < 1:
        die("--seconds must be at least 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if a.workload not in {w["name"] for w in spec["workloads"]}:
        die(f"unknown workload {a.workload}")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    cargo_build(["--manifest-path", os.path.join(HERE, "Cargo.toml")], target)
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", a.workload, "--seed", str(a.seed),
        "--seconds", str(a.seconds), "--trace", str(a.trace),
    ]
    if a.workload.startswith("daemon_"):
        cargo_build(["-p", "taps-service", "--bin", "taps-serviced"], target)
        cmd += ["--daemon-bin", os.path.join(target, "release", "taps-serviced")]

    # Only the latest run's span files and sockets are kept.
    shutil.rmtree(os.path.join(ROOT, RUN_DIR), ignore_errors=True)
    os.makedirs(os.path.join(ROOT, RUN_DIR), exist_ok=True)

    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    # The workload and any daemon it started share one process group.
    timed_out = threading.Event()

    def kill():
        timed_out.set()
        os.killpg(proc.pid, signal.SIGKILL)

    watchdog = threading.Timer(RUN_TIMEOUT_S, kill)
    watchdog.start()
    last = None
    try:
        for line in proc.stdout:
            if last is not None:
                print(last, flush=True)
            last = line.rstrip("\n")
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if timed_out.is_set():
        die(f"the run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        if last is not None and not last.startswith("{"):
            print(last, flush=True)
        die(f"the workload exited with code {proc.returncode}")
    if last is None:
        die("the workload printed nothing")
    check_result(last, spec, a.trace == 1)
    print(last, flush=True)


if __name__ == "__main__":
    main()
