"""In-memory spans around brickforge's public functions, installed from outside.

A traced run wraps every public function and every public method of the
layer modules.  Under ``from .x import y`` each importing module holds its
own binding of ``y``, so a wrapper replaces the name in the defining module
and in every ``brickforge`` module bound to the same object.  The ``cli``
layer is not wrapped here: the harness opens one ``cli.<command>`` span
around each ``cli.main`` call, so that span's self time is the glue outside
every wrapped layer.

Spans (name, start, end, parent span, run id) are appended to flat arrays
while the run goes on and written out once it ends.  A span's self time is
its duration minus the part of it covered by its child spans.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("ntkernel", "master", "blockers", "fibration", "ecq", "mw", "families", "store", "cli")
PACKAGE = "brickforge"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.run = array("i")
        self.run_id = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        # run id -> counter name -> value, filled by the observers below
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.maxima: dict[int, dict[str, float]] = defaultdict(dict)

    # -- recording -----------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        i = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    def count(self, key: str, value: int = 1) -> None:
        self.counts[self.run_id][key] += int(value)

    def maximum(self, key: str, value: float) -> None:
        run = self.maxima[self.run_id]
        run[key] = max(run.get(key, value), value)

    def _wrap(self, fn, name: str):
        nid = self._intern(name)
        observe = OBSERVERS.get(name)
        name_id, start, end, parent, run, stack = (
            self.name_id, self.start, self.end, self.parent, self.run, self._stack)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            run.append(self.run_id)
            end.append(0)
            start.append(0)
            stack.append(i)
            t0 = start[i] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = end[i] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result, (t1 - t0) / 1e9)
            return result

        return wrapper

    # -- installing ----------------------------------------------------

    def _set(self, target, attr: str, value) -> None:
        self._restore.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def install(self) -> None:
        """Wrap the public functions and methods of every layer but cli."""
        layers = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        modules = [mod for key, mod in sys.modules.items()
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for layer, mod in layers.items():
            if layer == "cli":
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(obj, f"{layer}.{attr}")
                    for other in modules:
                        for key, value in list(vars(other).items()):
                            if value is obj:
                                self._set(other, key, wrapper)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._set(obj, meth, self._wrap(fn, f"{layer}.{attr}.{meth}"))

    def uninstall(self) -> None:
        while self._restore:
            target, attr, value = self._restore.pop()
            setattr(target, attr, value)

    # -- reading -------------------------------------------------------

    def self_times(self) -> dict[int, dict[str, tuple[int, float]]]:
        """run id -> span name -> (calls, self seconds)."""
        n = len(self.start)
        covered = array("q", bytes(8 * n))
        last_end = array("q", bytes(8 * n))
        start, end, parent = self.start, self.end, self.parent
        # children are appended in start order, so one sweep merges them
        for i in range(n):
            p = parent[i]
            if p < 0:
                continue
            s = max(start[i], last_end[p])
            if end[i] > s:
                covered[p] += end[i] - s
                last_end[p] = end[i]
        calls: dict[tuple[int, int], int] = defaultdict(int)
        self_ns: dict[tuple[int, int], int] = defaultdict(int)
        name_id, run = self.name_id, self.run
        for i in range(n):
            key = (run[i], name_id[i])
            calls[key] += 1
            self_ns[key] += end[i] - start[i] - covered[i]
        out: dict[int, dict[str, tuple[int, float]]] = defaultdict(dict)
        for (run_id, nid), c in calls.items():
            out[run_id][self.names[nid]] = (c, self_ns[(run_id, nid)] / 1e9)
        return out

    def write(self, path) -> None:
        """Writes the spans to PATH, one tab-separated line each in the order
        they opened (the line number is the span id), with times in
        nanoseconds from the first span; span names go to PATH.names, one
        per line, numbered from 0."""
        t0 = self.start[0] if self.start else 0
        with open(f"{path}.names", "w", encoding="ascii") as fh:
            fh.writelines(f"{name}\n" for name in self.names)
        with open(path, "w", encoding="ascii") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\trun\n")
            for nid, start, end, parent, run in zip(self.name_id, self.start, self.end,
                                                    self.parent, self.run):
                fh.write(f"{nid}\t{start - t0}\t{end - t0}\t{parent}\t{run}\n")


# -- counters taken where the work happens, from arguments and results ----

def _argument(args, kwargs, index: int, name: str, default):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _csv_bytes(dirpath) -> int:
    from brickforge.store import CSV_NAMES
    return sum(os.path.getsize(os.path.join(dirpath, name)) for name in CSV_NAMES
               if os.path.exists(os.path.join(dirpath, name)))


def _observe_factor(tr, args, kwargs, result, seconds):
    from brickforge.ntkernel import DEFAULT_BUDGET
    tr.count("ntkernel.factor.full", result.status == "full")
    budget = _argument(args, kwargs, 1, "budget", DEFAULT_BUDGET)
    tr.maximum("ntkernel.factor.overrun_max_s", seconds - budget)


def _observe_enumerate(tr, args, kwargs, result, seconds):
    for what in ("candidates", "lifted", "certified", "skipped_large"):
        tr.count(f"mw.enumerate_and_certify.{what}", getattr(result.stats, what))
    tr.count("mw.enumerate_and_certify.outputs", len(result.outputs))


def _observe_verdict(tr, args, kwargs, result, seconds):
    tr.count(f"blockers.verify_blocker_conjecture.{result.verdict}")


OBSERVERS = {
    "ecq.torsion_subgroup": lambda tr, a, k, r, s: tr.count(
        "ecq.torsion_subgroup.lower_bound_only", r.lower_bound_only),
    "fibration.lift_point": lambda tr, a, k, r, s: tr.count(
        "fibration.lift_point.lifted", r is not None),
    "mw.enumerate_and_certify": _observe_enumerate,
    "ntkernel.factor": _observe_factor,
    "blockers.verify_blocker_conjecture": _observe_verdict,
    "store.import_csv": lambda tr, a, k, r, s: tr.count(
        "store.import_csv.bytes", _csv_bytes(_argument(a, k, 0, "dirpath", None))),
    "store.export_csv": lambda tr, a, k, r, s: tr.count(
        "store.export_csv.bytes", _csv_bytes(_argument(a, k, 1, "dirpath", None))),
    "store.Store.insert_hit": lambda tr, a, k, r, s: tr.count(
        "store.Store.insert_hit.created", r[1]),
}
