"""Layer timings taken from outside the library by wrapping its functions.

Each wrapped function reports under a metric name.  For a name the tracer
keeps the call count, the inclusive time of its outermost calls (a nested
call to the same name is not counted twice) and the self time (duration
minus the time of wrapped calls made inside it).  Aggregates, not
individual spans, are kept: Poly arithmetic alone makes tens of thousands
of calls per pass.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time


class Tracer:
    def __init__(self):
        self.on = False
        self.stats: dict[str, list] = {}    # name -> [calls, inclusive_s, self_s]
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []
        self._patches: list[tuple] = []     # (holder, alias, original)
        self._stack: list[float] = []       # child time of each open span
        self._depth: dict[str, int] = {}

    def reset(self):
        self.stats.clear()
        self.counters.clear()

    def count(self, name: str, k: float = 1):
        self.counters[name] = self.counters.get(name, 0) + k

    def wrap(self, fn, name: str, before=None, after=None):
        """A wrapper of fn that records under `name` while tracing is on.

        `before(args, kwargs)` and `after(args, kwargs, result)` may add
        counters; they run outside the timed interval.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            stack = tracer._stack
            depth = tracer._depth.get(name, 0)
            tracer._depth[name] = depth + 1
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                tracer._depth[name] = depth
                if stack:
                    stack[-1] += dt
                st = tracer.stats.setdefault(name, [0, 0.0, 0.0])
                st[0] += 1
                st[2] += dt - child
                if depth == 0:
                    st[1] += dt
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def install(self, targets):
        """Patch every target of (module, qualified attribute, metric, hooks).

        A module-level function is replaced in its own module and in every
        loaded sympair module that imported it by name.  A name missing
        from the library is recorded in `absent` instead of failing.
        `remove` restores the originals, so untraced code runs unwrapped.
        """
        for module_name, attr, metric, *hooks in targets:
            hooks = hooks[0] if hooks else {}
            try:
                module = importlib.import_module(module_name)
                owner, _, leaf = attr.rpartition(".")
                holder = getattr(module, owner) if owner else module
                raw = inspect.getattr_static(holder, leaf)
            except (ImportError, AttributeError):
                if f"{module_name}.{attr}" not in self.absent:
                    self.absent.append(f"{module_name}.{attr}")
                continue
            wrapped = self.wrap(raw, metric, **hooks)
            holders = [holder] if owner else [
                mod for name, mod in list(sys.modules.items())
                if name == "sympair" or name.startswith("sympair.")]
            for h in holders:
                for alias, value in list(vars(h).items()):
                    if value is raw:
                        setattr(h, alias, wrapped)
                        self._patches.append((h, alias, raw))

    def remove(self):
        for holder, alias, raw in reversed(self._patches):
            setattr(holder, alias, raw)
        self._patches = []
