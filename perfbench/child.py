"""One run of one workload, in a fresh interpreter; prints one JSON object.

    python3 child.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

The loop is closed with one client: each call starts when the previous
one has returned and been checked.  A run draws one pass of inputs from
the seed and runs that identical pass again and again; a pass starts
while the last pass's duration still fits in `--seconds` (at least one
pass runs).  With `--trace 1` every round runs the pass twice, once plain
and once under the tracer, alternating which goes first; layer metrics
come from the traced passes, everything else from the plain ones.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up time counts from here: imports included

import argparse
import json
import math
import platform
import random
import resource
import statistics
import sys
from fractions import Fraction

import oracles
import tracer as tracing
import workloads

FAMILIES = ("rouviere", "star_dk", "star_cf", "exp_coord", "free_lie")

#: percentile of the calls' latencies reported as op_tail_s
TAIL_PERCENTILE = 90

#: per-workload percentile of the latencies of every execution of a run,
#: recorded in the info line only; at the seed commit each leaves at least
#: ten of the run's executions beyond it
EXECUTION_TAIL_PERCENTILE = {"products-wide": 98, "lie-series": 97, "graph-weights": 99}

#: fastest time of `probe()` on the machine the benchmark was calibrated
#: (a shared two-CPU Xeon VM at 2.1 GHz, Python 3.11)
PROBE_REF_S = 3.3e-3

SELF, INCL, CALLS = 2, 1, 0

#: per-layer metric -> (phase, span, statistic); set-up metrics are seconds
#: of one set-up, pass metrics are per pass
LAYER_METRICS = {
    "io.parse_s": ("setup", "io.parse", SELF),
    "liealg.build_s": ("setup", "liealg.build", INCL),
    "polyops.invariants_s": ("setup", "polyops.invariants", INCL),
    "util.linalg_s": ("setup", "util.linalg", INCL),
    "graphs.enumerate_s": ("setup", "graphs.enumerate", INCL),
    "graphs.predicate_s": ("setup", "graphs.predicate", INCL),
    "series.density_s": ("pass", "series.density", INCL),
    "series.compile_s": ("pass", "series.compile", INCL),
    "series.compile_calls": ("pass", "series.compile", CALLS),
    "polyops.apply_series_s": ("pass", "polyops.apply_series", INCL),
    "polyops.invariance_check_s": ("pass", "polyops.invariance_check", INCL),
    "uea.context_s": ("pass", "uea.context", INCL),
    "uea.context_calls": ("pass", "uea.context", CALLS),
    "uea.beta_s": ("pass", "uea.beta", INCL),
    "uea.beta_calls": ("pass", "uea.beta", CALLS),
    "uea.project_s": ("pass", "uea.project", INCL),
    "uea.multiply_s": ("pass", "uea.multiply", INCL),
    "uea.beta_inverse_s": ("pass", "uea.beta_inverse", INCL),
    "starprod.star_cf_self_s": ("pass", "starprod.star_cf", SELF),
    "starprod.exp_coord_self_s": ("pass", "starprod.exp_coord", SELF),
    "freelie.assoc_mul_s": ("pass", "freelie.assoc_mul", INCL),
    "freelie.assoc_mul_calls": ("pass", "freelie.assoc_mul", CALLS),
    "freelie.assoc_explog_s": ("pass", "freelie.assoc_explog", INCL),
    "freelie.lyndon_peel_s": ("pass", "freelie.lyndon_peel", INCL),
    "freelie.evaluate_poly_s": ("pass", "freelie.evaluate_poly", INCL),
    "poly.mul_s": ("pass", "poly.mul", INCL),
    "poly.mul_calls": ("pass", "poly.mul", CALLS),
    "poly.add_s": ("pass", "poly.add", INCL),
    "poly.subs_s": ("pass", "poly.subs", INCL),
    "poly.exp_s": ("pass", "poly.exp", INCL),
    "poly.diff_s": ("pass", "poly.diff", INCL),
    "graphs.weight_mc_s": ("pass", "graphs.weight_mc", INCL),
}


class RepeatCounter:
    """Counts calls whose key was already seen earlier in the same pass."""

    def __init__(self, tracer, name, key):
        self.tracer, self.name, self.key, self.seen = tracer, name, key, set()

    def __call__(self, args, kwargs):
        try:
            key = self.key(*args, **kwargs)
        except (TypeError, AttributeError):  # signature changed: the share is absent
            if self.name + ".key" not in self.tracer.absent:
                self.tracer.absent.append(self.name + ".key")
            return
        self.tracer.count(self.name + ".keyed")
        if key in self.seen:
            self.tracer.count(self.name + ".repeats")
        self.seen.add(key)


def _compile_key(series, pair, over, *rest, **kw):
    return id(pair), over, series.truncation_order, frozenset(series.terms.items())


def _context_key(ctx, pair, vectors=None, k_start=None, *rest, **kw):
    vecs = None if vectors is None else tuple(tuple(v) for v in vectors)
    return id(pair), vecs, k_start


def _count_terms(tracer, name, get):
    def hook(*hook_args):
        try:
            tracer.count(name, get(*hook_args))
        except (TypeError, AttributeError, IndexError):
            pass
    return hook


def trace_targets(tr):
    """(module, attribute, span, hooks) for every wrapped public function."""
    compile_seen = RepeatCounter(tr, "series.compile", _compile_key)
    context_seen = RepeatCounter(tr, "uea.context", _context_key)
    beta_terms = _count_terms(tr, "uea.beta_input_terms", lambda a, kw: len(a[1].poly.terms))
    mul_terms = _count_terms(tr, "uea.multiply_terms_out", lambda a, kw, out: len(out.terms))
    samples = _count_terms(tr, "graphs.samples", lambda a, kw: a[1] if len(a) > 1 else kw["samples"])
    linalg = [("sympair.util", f, "util.linalg") for f in
              ("rref", "nullspace", "solve", "span_rref", "span_contains", "span_eq", "span_intersect")]
    targets = linalg + [
        ("sympair.io", "load_algebra_file", "io.parse"),
        ("sympair.io", "parse_algebra", "io.parse"),
        ("sympair.io", "load_graph_file", "io.parse"),
        ("sympair.liealg", "LieAlgebraDef.__init__", "liealg.build"),
        ("sympair.liealg", "SymmetricPair.__init__", "liealg.build"),
        ("sympair.polyops", "invariant_subspace", "polyops.invariants"),
        ("sympair.polyops", "apply_series_operator", "polyops.apply_series"),
        ("sympair.polyops", "is_invariant", "polyops.invariance_check"),
        ("sympair.series", "density_series", "series.density"),
        ("sympair.series", "TraceSeries.as_polynomial", "series.compile", {"before": compile_seen}),
        ("sympair.uea", "PBWContext.__init__", "uea.context", {"before": context_seen}),
        ("sympair.uea", "beta", "uea.beta", {"before": beta_terms}),
        ("sympair.uea", "project_mod_k_lambda", "uea.project"),
        ("sympair.uea", "pbw_multiply", "uea.multiply", {"after": mul_terms}),
        ("sympair.uea", "beta_inverse", "uea.beta_inverse"),
        ("sympair.starprod", "star_cf", "starprod.star_cf"),
        ("sympair.starprod", "exp_coord_operator", "starprod.exp_coord"),
        ("sympair.freelie", "FreeAssocSeries.__mul__", "freelie.assoc_mul"),
        ("sympair.freelie", "FreeAssocSeries.exp", "freelie.assoc_explog"),
        ("sympair.freelie", "FreeAssocSeries.log", "freelie.assoc_explog"),
        ("sympair.freelie", "lie_from_assoc", "freelie.lyndon_peel"),
        ("sympair.freelie", "FreeLieSeries.evaluate_poly", "freelie.evaluate_poly"),
        ("sympair.poly", "Poly.mul", "poly.mul"),
        ("sympair.poly", "Poly.__add__", "poly.add"),
        ("sympair.poly", "Poly.subs", "poly.subs"),
        ("sympair.poly", "poly_exp", "poly.exp"),
        ("sympair.poly", "Poly.diff", "poly.diff"),
        ("sympair.poly", "Poly.diff_mono", "poly.diff"),
        ("sympair.graphs", "weight_mc", "graphs.weight_mc", {"before": samples}),
        ("sympair.graphs", "enumerate_graphs", "graphs.enumerate"),
        ("sympair.graphs", "zero_weight_predicate", "graphs.predicate"),
    ]
    return targets, (compile_seen, context_seen)


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct / 100 * len(ordered))) - 1]


class Runner:
    def __init__(self, workload: str, seed: int):
        import sympair

        self.sp = sympair
        self.workload, self.seed = workload, seed
        self.setup, self.make_pass = workloads.WORKLOADS[workload]
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.verdicts: dict = {}
        self.tracer = None
        self.state = None

    def ops(self):
        return self.make_pass(self.sp, self.state, random.Random(f"{self.workload}/{self.seed}"))

    def run_pass(self, ops) -> list[tuple]:
        """Run the calls in order; returns (op, seconds, output or None)."""
        records = []
        for position, op in enumerate(ops):
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                out = op.call()
            except Exception as exc:  # a failed call is counted, the run goes on
                records.append((op, time.perf_counter() - t0, None))
                self._fail(op, f"{type(exc).__name__}: {exc}")
                continue
            records.append((op, time.perf_counter() - t0, out))
            if self.tracer is not None:
                self.tracer.on = False
            try:
                if not self._check(position, op, out):
                    self._fail(op, "check failed")
            except Exception as exc:
                self._fail(op, f"check raised {type(exc).__name__}: {exc}")
            if self.tracer is not None:
                self.tracer.on = True
        return records

    def _check(self, position: int, op, out) -> bool:
        """The verdict on an output equal to one this call returned before is reused."""
        key = (position, op.memo(out))
        if key not in self.verdicts:
            self.verdicts[key] = op.check(out)
        return self.verdicts[key]

    def _fail(self, op, why: str):
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(f"{op.label}: {why}")


def fastest(passes: list[list[tuple]]) -> list[tuple]:
    """(op, seconds, output) per call of the pass: its fastest execution.

    Every pass repeats identical calls, so the minimum is taken over
    executions of the same call, as in timeit: the machine's speed changes
    by up to 1.5x within seconds and between runs, and the fastest
    execution is the figure least disturbed by it.  A cost that only the
    first execution of a call pays (a cold cache) is therefore left out.
    """
    return [min(column, key=lambda rec: rec[1]) for column in zip(*passes)]


def family_metrics(passes: list[list[tuple]]) -> dict:
    """Seconds per pass of each product family, and the MC error per second."""
    best = fastest(passes)
    out = {f"{fam}_s": sum(dt for op, dt, _ in best if op.family == fam) for fam in FAMILIES}
    per_graph = [est.std_error ** 2 * dt for op, dt, est in best
                 if op.family == "weight" and est is not None and est.std_error > oracles.ROUNDING]
    out["weight_err2_s"] = statistics.median(per_graph) if per_graph else 0.0
    return out


def end_to_end(workload: str, passes: list[list[tuple]]) -> tuple[dict, dict]:
    """Throughput and percentiles over the calls of a pass, each at its fastest execution.

    The percentile of every execution's latency, which includes the
    machine's slow phases, is recorded in the info line.
    """
    best = [dt for _, dt, _ in fastest(passes)]
    tail = nearest_rank(best, TAIL_PERCENTILE)
    raw = [dt for p in passes for _, dt, _ in p]
    pct = EXECUTION_TAIL_PERCENTILE[workload]
    raw_tail = nearest_rank(raw, pct)
    metrics = {"ops_per_s": len(best) / sum(best), "op_p50_s": statistics.median(best), "op_tail_s": tail}
    info = {"passes": len(passes), "calls_per_pass": len(best), "tail_percentile": TAIL_PERCENTILE,
            "calls_beyond_tail": sum(1 for dt in best if dt > tail),
            "executions": len(raw), "execution_tail_percentile": pct, "execution_tail_s": raw_tail,
            "executions_beyond_tail": sum(1 for dt in raw if dt > raw_tail),
            "first_pass_s": sum(dt for _, dt, _ in passes[0])}
    return metrics, info


def probe() -> dict:
    """Fixed exact arithmetic that shares no code with sympair: a product of
    two dicts of Fractions, the kind of work the library's inner loops do."""
    a = {(i, j): Fraction(i + 1, j + 2) for i in range(6) for j in range(6)}
    acc: dict = {}
    for (i, j), c in a.items():
        for (k, l), d in a.items():
            m = (i + k, j + l)
            acc[m] = acc.get(m, 0) + c * d
    return acc


def run_passes(seconds: float, run_pass) -> list:
    """Passes while the last pass's duration still fits in `seconds` (at least one)."""
    passes, last = [], 0.0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        passes.append(run_pass())
        last = time.perf_counter() - t0
    return passes


def measure(runner: Runner, seconds: float) -> tuple[dict, dict]:
    runner.state = runner.setup()
    setup_s = time.perf_counter() - T0
    ops = runner.ops()
    probes = []

    def run_pass():
        t0 = time.perf_counter()
        probe()
        probes.append(time.perf_counter() - t0)
        return runner.run_pass(ops)

    passes = run_passes(seconds, run_pass)
    raw, info = end_to_end(runner.workload, passes)
    # The machine's speed drifts by up to 1.6x over minutes, and a slow
    # spell lifts even the fastest executions; the probe, timed before
    # every pass, slows with it.  Latencies are reported at the reference
    # speed: scaled by PROBE_REF_S over the run's fastest probe.
    scale = PROBE_REF_S / min(probes)
    metrics = {"ops_per_s": raw["ops_per_s"] / scale, "op_p50_s": raw["op_p50_s"] * scale,
               "op_tail_s": raw["op_tail_s"] * scale}
    metrics.update(family_metrics(passes))
    info.update(setup_s=setup_s, probe_s=min(probes), unscaled=raw)
    return metrics, info


def measure_traced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    tr = tracing.Tracer()
    targets, repeat_counters = trace_targets(tr)
    tr.install(targets)
    tr.on = True
    runner.state = runner.setup()
    tr.on = False
    tr.remove()
    setup_stats = {k: list(v) for k, v in tr.stats.items()}
    tr.reset()

    ops = runner.ops()
    traced_passes = []

    def run_round():
        plain = None
        for on in ((False, True) if len(traced_passes) % 2 == 0 else (True, False)):
            if on:
                for counter in repeat_counters:
                    counter.seen.clear()
                tr.install(targets)
                runner.tracer, tr.on = tr, True
            records = runner.run_pass(ops)
            if on:
                runner.tracer, tr.on = None, False
                tr.remove()
                traced_passes.append(records)
            else:
                plain = records
        return plain

    passes = run_passes(seconds, run_round)
    n = len(traced_passes)
    metrics = family_metrics(passes)
    for name, (phase, span, stat) in LAYER_METRICS.items():
        value = (setup_stats if phase == "setup" else tr.stats).get(span, [0, 0.0, 0.0])[stat]
        metrics[name] = value if phase == "setup" else value / n
    c = tr.counters
    metrics["series.compile_repeat_share"] = c.get("series.compile.repeats", 0) / max(1, c.get("series.compile.keyed", 0))
    metrics["uea.context_repeat_share"] = c.get("uea.context.repeats", 0) / max(1, c.get("uea.context.keyed", 0))
    metrics["uea.beta_input_terms"] = c.get("uea.beta_input_terms", 0) / n
    metrics["uea.multiply_terms_out"] = c.get("uea.multiply_terms_out", 0) / n
    mc_s = tr.stats.get("graphs.weight_mc", [0, 0.0, 0.0])[INCL]
    metrics["graphs.samples_per_s"] = c.get("graphs.samples", 0) / mc_s if mc_s else 0.0
    walls = {traced: sum(dt for _, dt, _ in fastest(ps)) for traced, ps in ((False, passes), (True, traced_passes))}
    metrics["trace.overhead_share"] = (walls[True] - walls[False]) / walls[False]
    info = {"passes": n, "absent": tr.absent, "traced_s": walls[True], "plain_s": walls[False]}
    return metrics, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    runner = Runner(args.workload, args.seed)
    if args.setup_only:
        runner.state = runner.setup()
        print(json.dumps({"setup_s": time.perf_counter() - T0}))
        return 0
    measure_fn = measure_traced if args.trace else measure
    metrics, info = measure_fn(runner, args.seconds)
    metrics["failed_share"] = runner.failed / runner.attempted
    import numpy

    info.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        errors=runner.errors,
        provenance={"sympair": getattr(runner.sp, "__version__", "unknown"),
                    "python": platform.python_version(), "numpy": numpy.__version__},
    )
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"metrics": metrics, "setup_s": info.pop("setup_s", None), "peak_rss_mb": peak_mb,
                      "attempted": runner.attempted, "failed": runner.failed, "info": info}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
