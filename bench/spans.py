"""In-memory span tracing of ranksel's public functions, from outside the package.

``Tracer.install`` replaces every public function of the traced modules
with a wrapper that records a span (name, start, end, parent, run id) into
a list; ``Tracer.uninstall`` puts the originals back.  The replacement is
made on every ranksel module attribute that refers to the function, so
calls that go through module globals (the engine's ``pol.<fn>``,
``sa_minimize`` calling ``gmcl_gradient``, ``run_experiment`` calling its
imported ``gmcl_fit``) are caught as well as calls from the benchmark.

Spans stay in memory and are written as JSON lines by ``Tracer.dump``.
The analysis helpers turn a pass's spans into inclusive times, self
times and layer times in which nested spans are never counted twice.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import types

TRACED_MODULES = ("cli", "experiment", "policies", "vfa", "exact")

# Engine entry points: their spans are the experiment layer's work.
ENGINE_FNS = ("experiment.estimate_ipcs", "experiment.replication_features",
              "experiment.run_fixed_truths")


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name)
        if isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__:
            yield name, obj


def _rep_steps(fn_name, bound):
    """Replications x allocation steps of one engine call, from its arguments."""
    args = bound.arguments
    if fn_name == "run_fixed_truths":
        return len(args["truths"]) * int(args["steps"])
    sc = args["scenario"]
    steps = sc.horizon - sc.warmup
    if fn_name == "estimate_ipcs":
        return sc.macro_reps * steps
    return len(args["indices"]) * steps


def _bits_bytes(fn_name, bound):
    """Size of the (replications x recorded steps) uint8 correctness matrix."""
    if fn_name == "run_fixed_truths":
        return 0
    args = bound.arguments
    sc = args["scenario"]
    n = sc.macro_reps if fn_name == "estimate_ipcs" else len(args["indices"])
    return n * len(sc.step_grid)


class Tracer:
    """Records spans of traced calls; one run id per traced pass."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.run_id = ""
        self.counters: dict[str, int] = {}
        self._saved: list = []

    # -- installation -----------------------------------------------------

    def install(self, package) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == package.__name__ or name.startswith(package.__name__ + ".")]
        for short in TRACED_MODULES:
            module = sys.modules[f"{package.__name__}.{short}"]
            for fn_name, fn in _public_functions(module):
                wrapper = self._wrap(f"{short}.{fn_name}", fn)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            self._saved.append((m, attr, fn))
                            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, fn in reversed(self._saved):
            setattr(m, attr, fn)
        self._saved.clear()

    def start_run(self, run_id: str) -> None:
        self.run_id = run_id
        self.stack.clear()
        self.counters = {}

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        perf = time.perf_counter
        fn_name = name.split(".", 1)[1]
        sig = inspect.signature(fn) if name in ENGINE_FNS else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            tag = None
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                tag = bound.arguments.get("policy_id")
                c = tracer.counters
                c["rep_steps"] = c.get("rep_steps", 0) + _rep_steps(fn_name, bound)
                c["bits_bytes"] = max(c.get("bits_bytes", 0), _bits_bytes(fn_name, bound))
            spans.append(None)
            stack.append(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, tracer.run_id, tag)
            if name == "exact.solve_bellman":
                tracer.counters["states"] = tracer.counters.get("states", 0) + sum(
                    len(level) for level in result.values.values())
            return result

        return wrapper

    # -- output -----------------------------------------------------------

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for name, t0, t1, parent, run_id, tag in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "run": run_id, "tag": tag}) + "\n")


class SpanTree:
    """Analysis of one pass's spans (a contiguous slice of a tracer's list)."""

    def __init__(self, spans, lo: int, hi: int):
        self.spans = spans
        self.idx = range(lo, hi)
        self.children: dict[int, list[int]] = {}
        self.by_name: dict[str, list[int]] = {}
        for i in self.idx:
            self.children.setdefault(spans[i][3], []).append(i)
            self.by_name.setdefault(spans[i][0], []).append(i)

    def dur(self, i: int) -> float:
        return self.spans[i][2] - self.spans[i][1]

    def covered(self, i: int, pred) -> float:
        """Time inside span ``i`` covered by its outermost descendants matching ``pred``."""
        total = 0.0
        for c in self.children.get(i, ()):
            total += self.dur(c) if pred(self.spans[c]) else self.covered(c, pred)
        return total

    def outermost(self, name: str, pred=None) -> list[int]:
        """Spans named ``name`` (and matching ``pred``) with no such ancestor."""
        pred = pred or (lambda s: s[0] == name)
        out = []
        for i in self.by_name.get(name, ()):
            if not pred(self.spans[i]):
                continue
            p = self.spans[i][3]
            while p >= 0 and not pred(self.spans[p]):
                p = self.spans[p][3]
            if p < 0:
                out.append(i)
        return out

    def calls(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def inclusive(self, name: str, tag=None) -> float:
        """Seconds inside calls of ``name`` (optionally with ``tag``), nesting counted once."""
        def pred(s):
            return s[0] == name and (tag is None or s[5] == tag)
        return sum(self.dur(i) for i in self.outermost(name, pred))

    def self_minus(self, name: str, pred) -> float:
        """Seconds in ``name`` spans not covered by descendants matching ``pred``."""
        return sum(self.dur(i) - self.covered(i, pred)
                   for i in self.outermost(name))

    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus the durations of direct children."""
        out: dict[str, float] = {}
        for i in self.idx:
            own = self.dur(i) - sum(self.dur(c) for c in self.children.get(i, ()))
            name = self.spans[i][0]
            out[name] = out.get(name, 0.0) + own
        return out
