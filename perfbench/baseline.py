"""Repeat the benchmark over seeds and summarize each metric's spread.

    python3 perfbench/baseline.py [--out FILE]

Runs `run.py` once per seed for each workload of BENCHMARK.json, one run
at a time: ten plain runs (seeds 1-10) for the end-to-end metrics, then
two traced runs (seeds 1-2) for the per-layer metrics.  Prints every
metric's median and quartile spread (Q3 - Q1 over the median, quartiles
from statistics.quantiles(n=4)), next to a third of its bound where it
has one.  `--out` writes every value and each run's info line as JSON;
BENCH_seed.json is this output at the seed commit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

RUNS, TRACED_RUNS = 10, 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {"info": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def summarize(values: list[float]) -> dict:
    out = {"median": statistics.median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / out["median"] if out["median"] else None)
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    seconds = spec["run_seconds"]
    report = {"command": spec["command"], "seconds": seconds, "end_to_end": {}, "per_layer": {}}
    for trace, group, count in ((0, "end_to_end", RUNS), (1, "per_layer", TRACED_RUNS)):
        for workload in (w["name"] for w in spec["workloads"]):
            runs = []
            for seed in range(1, count + 1):
                runs.append(run_once(workload, seed, seconds, trace))
                r = runs[-1]["result"]
                print(f"{workload} --trace {trace} seed {seed}: correct={r['correct']} "
                      f"attempted={r['attempted']} failed={r['failed']}", flush=True)
            summary = {}
            for m in spec[group]:
                values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
                s = summary[m["name"]] = {"unit": m["unit"], **summarize(values), "values": values}
                limit = f"  (bound/3 {m['bound'] / 3:.3f})" if "bound" in m else ""
                spread = f"  spread {s['spread']:.3f}" if s.get("spread") is not None else ""
                print(f"  {m['name']:30s} median {s['median']:.6g} {m['unit']}{spread}{limit}", flush=True)
            report[group][workload] = {
                "metrics": summary,
                "runs": [{"seed": i + 1, "correct": r["result"]["correct"],
                          "attempted": r["result"]["attempted"], "failed": r["result"]["failed"],
                          "info": r["info"]} for i, r in enumerate(runs)],
            }
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
