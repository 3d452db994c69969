"""sympair benchmark: one workload, one run, every metric by name and unit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
`src/`.  Every measurement runs in a fresh interpreter (module-level
caches such as the free-Lie bracket cache must not warm up across runs)
with numpy/BLAS capped at one thread.  With `--trace 0`, set-up is also
repeated in separate interpreters and reported as a median.  The last
line of stdout is the result object; the line before it records the
seed, versions, pass and call counts and any failure messages.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: set-up-only interpreters per untraced run, half before and half after
#: the measured one; with its own set-up they give the set-up median
SETUP_REPEATS = 8

#: a run must finish within this many seconds, children included
DEADLINE_S = 170.0

WORKLOADS = ("products-wide", "lie-series", "graph-weights")


class ChildFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args: list[str], deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), *args]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"{' '.join(args)}: timed out")
    if proc.returncode != 0:
        raise ChildFailed(f"{' '.join(args)}: exit {proc.returncode}\n{err}")
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise ChildFailed(f"{' '.join(args)}: no result\n{out}\n{err}") from None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "sympair" / "__init__.py").is_file():
        print(f"error: no sympair sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setup_only = [*common, "--seconds", "0", "--setup-only"]
    repeats = 0 if args.trace else SETUP_REPEATS // 2
    try:
        setups = [run_child(setup_only, deadline)["setup_s"] for _ in range(repeats)]
        run = run_child([*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
        setups += [run_child(setup_only, deadline)["setup_s"] for _ in range(repeats)]
    except ChildFailed as exc:
        print(f"error: benchmark child failed: {exc}", file=sys.stderr)
        return 1

    metrics = dict(run["metrics"])
    if not args.trace:
        setups.append(run["setup_s"])
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = run["peak_rss_mb"]
        run["info"]["setup_samples_s"] = setups
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(run["info"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
