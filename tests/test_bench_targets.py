"""Every name the benchmark's tracer wraps exists where the tracer patches it.

`perfbench/tracer.py` wraps each (module, attribute) listed by
`perfbench/child.py::trace_targets`.  A name that does not resolve is only
recorded as absent, and an attribute its holder inherits instead of
defining is not patched at all, so a rename would silently drop a layer
metric.  The same holds for the keys its repeat counters read from the
arguments of a wrapped call.  The benchmark files are read, not changed.
"""

import importlib
import inspect
import sys
from pathlib import Path

from sympair.series import density_series
from sympair.uea import PBWContext

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_trace_targets_resolve_in_their_holders(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    child = importlib.import_module("child")
    tracer = importlib.import_module("tracer")
    targets, _ = child.trace_targets(tracer.Tracer())
    unresolved = []
    for module_name, attr, *_ in targets:
        module = importlib.import_module(module_name)
        owner, _, leaf = attr.rpartition(".")
        try:
            holder = getattr(module, owner) if owner else module
            inspect.getattr_static(holder, leaf)
        except AttributeError:
            unresolved.append(f"{module_name}.{attr}")
            continue
        if leaf not in vars(holder):
            unresolved.append(f"{module_name}.{attr} (inherited)")
    assert len(targets) > 30 and not unresolved


def test_repeat_keys_read_real_arguments(monkeypatch, sl2_pair):
    # the arguments of TraceSeries.as_polynomial and PBWContext.__init__
    monkeypatch.syspath_prepend(str(PERFBENCH))
    child = importlib.import_module("child")
    compiled = [child._compile_key(density_series("J_half", 4), sl2_pair, "p") for _ in range(2)]
    assert compiled[0] == compiled[1] != child._compile_key(density_series("J_half", 6), sl2_pair, "p")
    contexts = [child._context_key(PBWContext(sl2_pair), sl2_pair) for _ in range(2)]
    assert contexts[0] == contexts[1]
