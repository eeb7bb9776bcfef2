"""In-memory span tracing around the layer entry points of ``sixv``.

Used only by the traced run.  ``install`` replaces each entry point listed in
``LAYERS`` with a wrapper that records a span (id, name, start, end, parent)
and accumulates per-layer call counts and self time (a span's duration minus
the time its child spans cover).  An entry point that the code no longer has
is reported as absent instead of failing the run, so later changes may delete
or rename internals such as ``_evolve`` and its caches.

The wrapper is installed on every ``sixv`` module global bound to the entry
point, which catches both direct calls and ``from ... import`` aliases.
"""

from __future__ import annotations

import itertools
import json
import operator
import sys
from time import perf_counter
from typing import Callable

SPAN_CAP = 200_000  # spans kept for the trace file; totals always cover every call


def _size(result) -> int:
    return len(getattr(result, "entries", result))


def _nonzero(value) -> int:
    return int(value != 0)


# span name -> entry points as (module, attribute, record), where record is
# None or (metric, measure of the result, how measures combine)
LAYERS = {
    "verify.sweep": [("sixv.verify", "run_sweep", None)],
    "verify.check": [("sixv.verify", "check_duality", None)],
    "duality.expect": [("sixv.duality", "expect_forward", None),
                       ("sixv.duality", "expect_reversed", None)],
    "duality.evolve": [("sixv.duality", "_evolve", ("duality.evolve.max_states", _size, max))],
    "duality.functional": [("sixv.duality", "_functional_at_points",
                            ("duality.functional.nonzero", _nonzero, operator.add))],
    "dynamics.step_law": [("sixv.dynamics", "_step_distribution",
                           ("dynamics.step_law.max_outcomes", _size, max))],
    "duality.mc": [("sixv.duality", "mc_expectation", None)],
    "dynamics.trajectory_rng": [("sixv.dynamics", "trajectory_rng", None)],
    "dynamics.sample_step": [("sixv.dynamics", "_sample_step", None)],
}
# Counted, not timed: called far too often for a span per call.
COUNTED = {"model.b2_at": ("sixv.model", "Params", "b2_at")}


class Tracer:
    """Spans and per-layer totals for one process; nothing leaves memory until ``dump``."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.recorded: dict[str, int] = {}
        self.absent: set[str] = set()
        self._stack: list[list] = []
        self._ids = itertools.count()

    def wrap(self, name: str, fn: Callable, record=None) -> Callable:
        """``fn`` with a span named ``name`` around each call."""
        self.calls.setdefault(name, 0)
        self.self_s.setdefault(name, 0.0)
        stack, spans, ids = self._stack, self.spans, self._ids
        calls, self_s, recorded = self.calls, self.self_s, self.recorded

        def traced(*args, **kwargs):
            frame = [next(ids), perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[1]
                calls[name] += 1
                self_s[name] += duration - frame[2]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += duration
                if len(spans) < SPAN_CAP:
                    spans.append((frame[0], name, frame[1], end,
                                  None if parent is None else parent[0]))
            if record is not None:
                metric, measure, combine = record
                recorded[metric] = combine(recorded.get(metric, 0), measure(result))
            return result

        return traced

    def count(self, name: str, fn: Callable) -> Callable:
        calls = self.calls
        calls.setdefault(name, 0)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Wrap every entry point in LAYERS and COUNTED that the code still has."""
        modules = [m for n, m in list(sys.modules.items()) if n == "sixv" or n.startswith("sixv.")]
        for name, targets in LAYERS.items():
            found = False
            for module_name, attr, record in targets:
                original = getattr(sys.modules.get(module_name), attr, None)
                if original is None:
                    continue
                found = True
                wrapper = self.wrap(name, original, record)
                for module in modules:
                    for alias, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, alias, wrapper)
            if not found:
                self.absent.add(name)
        for name, (module_name, cls_name, attr) in COUNTED.items():
            cls = getattr(sys.modules.get(module_name), cls_name, None)
            original = getattr(cls, attr, None)
            if original is None:
                self.absent.add(name)
            else:
                setattr(cls, attr, self.count(name, original))

    def dump(self, path: str) -> None:
        """Write the recorded spans, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
