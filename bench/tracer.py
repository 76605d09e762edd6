"""Layer tracing from outside the program.

The tracer wraps spanlab's public functions where they are bound: the
module attribute, every other spanlab module that imported the same
function by name, or the class attribute for methods.  Nothing inside the
program changes.  Each wrapped call is a span with a name, start, end,
parent and request id, kept on a per-thread stack; a generator gets one
span per resumption.  A span's self time is its duration minus the part of
it that its child spans cover, including children that ran on other
threads (a suite's inner requests).

Calls of the hottest functions run to millions, so finished spans are
folded into one row per (request, parent, name) holding the span count,
the items yielded, and the total and self time; the rows are written out
when the run ends.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import types
from time import perf_counter

# Functions timed as spans; names are module.attribute or module.Class.attribute
# inside the spanlab package, and double as the metric prefixes.
SPANS = (
    "fincat.FinSetCategory.limit_of_diagram",
    "fincat.FinSetCategory.factor_through_limit",
    "fincat.FinSetCategory.pullback",
    "fincat.FinCategory.limit_of_diagram",
    "fincat.core",
    "fincat.slice_over_pair",
    "spans.enumerate_lambda_data",
    "spans.sample_lambda_data",
    "spans.kan_extend",
    "spans.is_cartesian",
    "spans.natural_families",
    "spans.extend_natural_family",
    "spans.span_level",
    "spans.compose_spans",
    "groupoid.equivalent",
    "groupoid.groupoids_equivalent",
    "groupoid.groups_isomorphic",
    "groupoid.iso_comma",
    "groupoid.FinGroupoid.components",
    "duality.build_adjunction",
    "duality.triangle_check",
    "duality.object_duality_check",
    "locsys.all_locsys_spans",
    "locsys.compose_locsys",
    "locsys.locsys_span_isos",
    "locsys.locsys_level",
    "lagrangian.rref",
    "lagrangian.apply_form",
    "lagrangian.compose_lagrangian",
    "lagrangian.is_lagrangian",
    "lagrangian.random_correspondence",
    "cli.run_request",
    # The checks the CLI dispatches to.  They carry no metric of their own;
    # they keep the checks' own work out of cli.run_request's self time.
    "spans.segal_check",
    "spans.invertible_span_check",
    "spans.completeness_check",
    "spans.mapping_category_check",
    "spans.mapping_fiber",
    "locsys.locsys_battery_check",
    "locsys.locsys_equivalence_check",
    "locsys.locsys_mapping_fiber_check",
    "lagrangian.random_pair_check",
    "lagrangian.duality_zigzag_check",
)

# Functions that are only counted: each call is far too cheap to time.
COUNTS = (
    "shapes.SigmaShape.leq",
    "shapes.sigma_shape",
    "fincat.FinSetCategory.compose",
    "fincat.FinFunction.__init__",
)

# The json.dumps that cli.main applies to every report.
SERIALIZE = "cli.serialize"


class _ThreadState:
    __slots__ = ("stack", "rows", "calls")

    def __init__(self, n_names):
        self.stack = []
        self.rows = {}
        self.calls = [0] * n_names


class Tracer:
    """Collects spans and call counts for one interpreter."""

    def __init__(self):
        self.names = list(SPANS) + [SERIALIZE] + list(COUNTS)
        self.index = {name: i for i, name in enumerate(self.names)}
        self.request = None  # id of the request in flight, set by the caller
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._main = self._state()

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState(len(self.names))
            self._local.state = state
            with self._lock:
                self._states.append(state)
            return state

    # -- spans

    def _enter(self, state, idx):
        stack = state.stack
        foreign = None
        if stack:
            parent = stack[-1][0]
        else:
            # A thread's first span belongs to whatever the main thread is
            # running (the suite request that started the thread).
            try:
                foreign = self._main.stack[-1] if state is not self._main else None
            except IndexError:
                foreign = None
            parent = foreign[0] if foreign is not None else -1
        frame = [idx, parent, 0.0, None, foreign, perf_counter()]
        stack.append(frame)
        return frame

    def _exit(self, state, frame, items=0):
        end = perf_counter()
        state.stack.pop()
        idx, parent, child, remote, foreign, start = frame
        duration = end - start
        if remote:
            child += _covered(remote, start, end)
        if state.stack:
            state.stack[-1][2] += duration
        elif foreign is not None:
            with self._lock:
                if foreign[3] is None:
                    foreign[3] = []
                foreign[3].append((start, end))
        key = (self.request, parent, idx)
        row = state.rows.get(key)
        if row is None:
            row = state.rows[key] = [0, 0, 0.0, 0.0]
        row[0] += 1
        row[1] += items
        row[2] += duration
        row[3] += duration - child

    def _span(self, idx, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer._state()
            state.calls[idx] += 1
            frame = tracer._enter(state, idx)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(state, frame)

        return traced

    def _generator(self, idx, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._state().calls[idx] += 1
            return tracer._resumptions(idx, fn(*args, **kwargs))

        return traced

    def _resumptions(self, idx, gen):
        try:
            while True:
                state = self._state()
                frame = self._enter(state, idx)
                try:
                    item = next(gen)
                except StopIteration:
                    self._exit(state, frame)
                    return
                except BaseException:
                    self._exit(state, frame)
                    raise
                self._exit(state, frame, items=1)
                yield item
        finally:
            gen.close()

    def _counted(self, idx, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer._state().calls[idx] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation

    def install(self) -> None:
        """Wrap every listed function at each of its bindings."""
        modules = [m for name, m in sys.modules.items() if name == "spanlab" or name.startswith("spanlab.")]
        for name in SPANS + COUNTS:
            idx = self.index[name]
            module, *path = name.split(".")
            owner = sys.modules[f"spanlab.{module}"]
            for attr in path[:-1]:
                owner = getattr(owner, attr)
            original = getattr(owner, path[-1])
            if name in COUNTS:
                wrapper = self._counted(idx, original)
            elif inspect.isgeneratorfunction(original):
                wrapper = self._generator(idx, original)
            else:
                wrapper = self._span(idx, original)
            if isinstance(owner, type):
                setattr(owner, path[-1], wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        cli = sys.modules["spanlab.cli"]
        proxy = types.SimpleNamespace(**{k: getattr(json, k) for k in dir(json) if not k.startswith("__")})
        proxy.dumps = self._span(self.index[SERIALIZE], json.dumps)
        cli.json = proxy

    # -- results

    def snapshot(self) -> dict:
        """Call counts per name and the folded span rows of every thread."""
        calls = [0] * len(self.names)
        merged = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for i, n in enumerate(state.calls):
                calls[i] += n
            for key, row in state.rows.items():
                acc = merged.setdefault(key, [0, 0, 0.0, 0.0])
                for i, v in enumerate(row):
                    acc[i] += v
        rows = [
            {
                "request": request,
                "parent": self.names[parent] if parent >= 0 else None,
                "name": self.names[idx],
                "spans": r[0],
                "items": r[1],
                "total_s": r[2],
                "self_s": r[3],
            }
            for (request, parent, idx), r in merged.items()
        ]
        return {"calls": dict(zip(self.names, calls)), "rows": rows}


def _covered(intervals, start, end) -> float:
    """Length of the union of intervals, clipped to [start, end]."""
    total = 0.0
    reach = start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total
