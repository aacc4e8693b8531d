"""Span tracing of logdetreg from outside the package.

`Tracer.install` wraps every public function of the traced modules, and
`SpdMatrix.solve`, and puts each wrapper at every name a caller looks the
function up by: module globals (``from .x import f`` copies) and dicts of
functions such as ``simulate._ESTIMATORS``.  A span records name, start,
end, parent span and thread.  A span opened on a thread with no open span
of its own (a replication-pool worker) takes as parent the innermost open
span of the installing thread.  Spans stay in memory until `write`.
"""

from __future__ import annotations

import gzip
import inspect
import itertools
import json
import statistics
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter_ns

LAYERS = ("cli", "data", "simulate", "inference", "estimate", "optimize", "cost", "model", "linalg")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start_ns, end_ns, parent_id, thread)
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root = self._stack()
        self._patched: list[tuple] = []  # (owner, attr, original, setter)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        stack = self._stack()
        parent = None
        if stack:
            parent = stack[-1]
        elif self._root:
            try:
                parent = self._root[-1]
            except IndexError:  # the installing thread closed its span meanwhile
                pass
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent

    def _close(self, name, stack, sid, parent, start):
        end = perf_counter_ns()
        stack.pop()
        self.spans.append((sid, name, start, end, parent, threading.get_ident()))

    def wrap(self, name: str, fn, after=None):
        def wrapper(*args, **kwargs):
            stack, sid, parent = self._open()
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, stack, sid, parent, start)
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, key: str, amount: int = 1) -> None:
        with self._lock:  # replication workers count concurrently
            self.counts[key] += amount

    def _wrap_bfgs(self, fn):
        """bfgs_minimize: one start.  Wraps the objective it is given as the
        span ``estimate.objective`` and counts iterations and terminations."""

        def bfgs(objective, *args, **kwargs):
            def counted(x):
                self.count("objective_calls")
                return objective(x)

            try:
                x, f, reason, iters = fn(self.wrap("estimate.objective", counted), *args, **kwargs)
            except Exception as exc:
                self.count(f"termination.{type(exc).__name__}")
                raise
            self.count("iterations", iters)
            self.count(f"termination.{reason}")
            return x, f, reason, iters

        return self.wrap("optimize.bfgs_minimize", bfgs)

    def _count_jacobian(self, jac):
        self.count("jacobian_bytes", jac.nbytes)

    def install(self, package: str = "logdetreg") -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name == "optimize.bfgs_minimize":
                    wrappers[obj] = self._wrap_bfgs(obj)
                elif name == "model.jacobian_batch":
                    wrappers[obj] = self.wrap(name, obj, after=self._count_jacobian)
                else:
                    wrappers[obj] = self.wrap(name, obj)
        spd = sys.modules[f"{package}.linalg"].SpdMatrix
        self._patch(spd, "solve", self.wrap("linalg.solve", spd.solve), setattr)

        def traced(obj):
            return inspect.isfunction(obj) and obj in wrappers

        for modname, module in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for attr, obj in list(vars(module).items()):
                if traced(obj):
                    self._patch(module, attr, wrappers[obj], setattr)
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if traced(value):
                            self._patch(obj, key, wrappers[value], dict.__setitem__)

    def _patch(self, owner, attr, wrapper, assign) -> None:
        original = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        self._patched.append((owner, attr, original, assign))
        assign(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original function back."""
        while self._patched:
            owner, attr, original, assign = self._patched.pop()
            assign(owner, attr, original)

    def mark(self) -> int:
        """Position in the span list; pass to `layer_stats` as `since`."""
        return len(self.spans)

    def layer_stats(self, since: int = 0) -> dict[str, dict]:
        """Per span name: calls, self_s (span time minus the union of its
        children's time) and p50_us (median inclusive time per call)."""
        spans = self.spans[since:]
        children = defaultdict(list)
        for _, _, start, end, parent, _ in spans:
            if parent is not None:
                children[parent].append((start, end))
        durations = defaultdict(list)
        self_ns = Counter()
        for sid, name, start, end, _, _ in spans:
            covered, cursor = 0, start
            for lo, hi in sorted(children.get(sid, ())):
                lo, hi = max(lo, cursor), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            self_ns[name] += end - start - covered
            durations[name].append(end - start)
        return {
            name: {
                "calls": len(d),
                "self_s": self_ns[name] / 1e9,
                "p50_us": statistics.median(d) / 1e3,
            }
            for name, d in durations.items()
        }

    def write(self, path) -> None:
        """Gzipped lines, one JSON array per span: id, name, start_ns,
        end_ns, parent id, thread."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")
