#!/usr/bin/env python3
"""Repository benchmark entry point (see BENCHMARK.json at the root).

    python3 perfbench/run.py --workload paper-grid|trace-replay|serve-mix \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Builds the benchmark executable
(perfbench/main.ml) and the dpmsim daemon with dune, then runs the
benchmark, which prints every metric by name and unit and, as its last
line, one JSON object with the keys correct, attempted, failed and
metrics.  Exits non-zero when the checkout is incomplete, the build
fails, or any output fails its check.  Every process the benchmark
starts is stopped and waited for before this script exits.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
OUT_DIR = "_perfbench"
BENCH_EXE = os.path.join("_build", "default", "perfbench", "main.exe")
DPMSIM_EXE = os.path.join("_build", "default", "bin", "dpmsim.exe")
REQUIRED = ["dune-project", "lib", os.path.join("bin", "dpmsim.ml"),
            os.path.join("test", "golden", "fig3.expected")]


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(env):
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe",
             "./bin/dpmsim.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env,
            timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune is not installed")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if proc.returncode != 0:
        fail("build failed")


def stop_group(pgid):
    """Terminate whatever is left of the benchmark's process group (the
    daemon, should the benchmark have died before stopping it) and wait
    until no member remains."""
    for sig, grace in ((signal.SIGTERM, 5.0), (signal.SIGKILL, 5.0)):
        try:
            os.killpg(pgid, sig)
        except ProcessLookupError:
            return
        deadline = time.monotonic() + grace
        while time.monotonic() < deadline:
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.05)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["paper-grid", "trace-replay", "serve-mix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    missing = [p for p in REQUIRED if not os.path.exists(p)]
    if missing:
        fail("not a source checkout (missing %s); run from the repository root"
             % ", ".join(missing))

    # Keep every build artefact inside the checkout: no shared dune cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    env.pop("DPM_DOMAINS", None)
    build(env)
    os.makedirs(OUT_DIR, exist_ok=True)

    cmd = [BENCH_EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dpmsim", DPMSIM_EXE, "--out", OUT_DIR]
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        code = 124
    finally:
        stop_group(proc.pid)
        proc.wait()
    sys.exit(code)


if __name__ == "__main__":
    main()
