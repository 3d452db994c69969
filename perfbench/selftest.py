"""Smoke-size self-test of the benchmark.

    python3 perfbench/selftest.py

Checks that one short run of every workload, plain and traced, prints
exactly the metrics BENCHMARK.json names with their units; that a
deliberately wrong expected value is counted in failed_share; and that
the benchmark fails without a result when the sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)


def check_metrics_emitted(spec: dict):
    for w in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, w["name"], trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (w["name"], trace, set(want) ^ set(got))
            assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
            print(f"ok  {w['name']} --trace {trace}: {len(got)} metrics", flush=True)


def check_wrong_expectation_fails():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import child
    import workloads

    workloads.WEDGE_WEIGHT = 0.7  # the wedge weighs 1/2
    runner = child.Runner("graph-weights", 7)
    metrics, _ = child.measure(runner, 0)
    share = runner.failed / runner.attempted
    assert share > 0, "a wrong expected weight was not detected"
    print(f"ok  wrong expected wedge weight: failed_share = {share:.3f}", flush=True)


def check_fails_without_sources():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(Path(tmp), "graph-weights", 0)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print(f"ok  without sources: exit {proc.returncode}, no result", flush=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_fails_without_sources()
    check_wrong_expectation_fails()
    check_metrics_emitted(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
