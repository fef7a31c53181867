"""Outside-in tracer for the benchmark's traced run.

Wraps pulsecal's public functions at the module attributes where
pulsecal itself looks them up (``pulsecal.optimize.cost_and_gradient``,
``pulsecal.calibrate.minimize``, ``pulsecal.evaluate.locate``, ...), so
nothing inside the package changes. Each call of a wrapped function
while the tracer is active becomes one span: name, start, end, parent
and an optional note taken from its result. Spans stay in memory until
``write``.

Parents come from one process-wide stack, not a per-thread one: the
benchmark pins pulsecal to one worker thread, and the caller blocks
while that worker runs, so calls never overlap and a call made in the
worker is correctly a child of the span that submitted it.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

# (span name, module, attribute path). One name may cover several
# attributes when modules bind the same function under their own names.
TARGETS = [
    ("pulses.cost_and_gradient", "pulsecal.optimize", "cost_and_gradient"),
    ("pulses.evolve", "pulsecal.calibrate", "evolve"),
    ("pulses.evolve", "pulsecal.evaluate", "evolve"),
    ("pulses.evolve", "pulsecal.cli", "evolve"),
    ("optimize.minimize", "pulsecal.calibrate", "minimize"),
    ("calibrate.calibrate", "pulsecal.calibrate", "calibrate"),
    ("calibrate.initial_round", "pulsecal.calibrate", "initial_round"),
    ("calibrate.reoptimization_round", "pulsecal.calibrate", "reoptimization_round"),
    ("mesh.build_mesh", "pulsecal.calibrate", "build_mesh"),
    ("mesh.locate", "pulsecal.evaluate", "locate"),
    ("families.grid", "pulsecal.families", "GateFamily.grid"),
    ("families.unitary", "pulsecal.families", "GateFamily.unitary"),
    ("evaluate.evaluate_grid", "pulsecal.evaluate", "evaluate_grid"),
    ("evaluate.interpolate", "pulsecal.evaluate", "interpolate"),
    ("io.load_landscape", "pulsecal.io", "load_landscape"),
    ("io.load_landscape", "pulsecal.cli", "load_landscape"),
    ("io.save_landscape", "pulsecal.io", "save_landscape"),
    ("cli.main", "pulsecal.cli", "main"),
]


def _minimize_note(result):
    report = result[1]
    return [report.iterations, report.n_evaluations, report.converged_by]


NOTES = {"optimize.minimize": _minimize_note}

NAME, PARENT, START, END, NOTE = range(5)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end, note]
        self.absent = []  # "module:attribute" targets that do not exist
        self.active = False
        self._stack = []
        self._patched = []

    def install(self) -> None:
        """Wrap every target that exists; record the others as absent."""
        for name, module, path in TARGETS:
            owner_path, _, attr = path.rpartition(".")
            try:
                owner = importlib.import_module(module)
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module}:{path}")
                continue
            setattr(owner, attr, self.wrap(name, fn))
            self._patched.append((owner, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def wrap(self, name, fn):
        """``fn`` recording a span named ``name`` per call while active."""
        note = NOTES.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, stack[-1] if stack else -1, time.perf_counter(), 0.0, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = time.perf_counter()
            if note is not None:
                span[NOTE] = note(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def totals(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds.

        A span's self time is its duration minus that of its direct
        children, so the self times under a root span add up to the
        root's duration.
        """
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child_time[s[PARENT]] += s[END] - s[START]
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for s, below in zip(self.spans, child_time):
            t = out[s[NAME]]
            t["calls"] += 1
            t["s"] += s[END] - s[START]
            t["self_s"] += s[END] - s[START] - below
        return dict(out)

    def notes(self, name) -> list:
        return [s[NOTE] for s in self.spans if s[NAME] == name]

    def orphans(self, roots) -> list:
        """Names of spans without a parent that are not among ``roots``."""
        return [s[NAME] for s in self.spans if s[PARENT] < 0 and s[NAME] not in roots]

    def write(self, path, metrics: dict) -> None:
        with open(path, "w") as f:
            json.dump({"absent": self.absent, "metrics": metrics, "layers": self.totals(),
                       "fields": ["name", "parent", "start", "end", "note"],
                       "spans": self.spans}, f)
