"""In-memory span tracer that rebinds library functions from the outside.

A traced name such as ``risgroups.sim.simulate_block`` is replaced by a
wrapper in its defining module and in every other module under the same
package that imported it (``from .sim import simulate_block`` binds a second
name to the same object, and calls through that name must be seen too).
Each call records one span ``(name, start, end, parent, run_id)``, named by
the target without its package (``sim.simulate_block``); spans stay
in memory until ``write`` is called.  Leaving the ``with`` block restores
every rebound name, even when the body raised.
"""

import csv
import functools
import sys
import time


class Tracer:
    """Rebind ``targets`` (dotted ``module.function`` names) while active.

    ``observers`` maps a target to ``fn(args, kwargs, result)``, called after
    each successful call, so counters are taken where the work happens.
    """

    def __init__(self, targets, observers=None, clock=time.perf_counter):
        self.targets = list(targets)
        self.observers = dict(observers or {})
        self.clock = clock
        self.spans = []         # [name, start, end, parent, run_id]
        self.run_id = 0
        self._stack = []
        self._rebound = []      # (module, attribute, original)

    def __enter__(self):
        try:
            for target in self.targets:
                self._rebind(target)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _rebind(self, target):
        module_name, _, attr = target.rpartition(".")
        package = module_name.split(".", 1)[0]
        original = getattr(sys.modules[module_name], attr)  # KeyError/AttributeError: renamed
        if not callable(original):
            raise TypeError(f"{target} is not callable")
        wrapper = self._wrap(target.removeprefix(package + "."), original,
                             self.observers.get(target))
        for name, module in list(sys.modules.items()):
            if module is None or not (name == package or name.startswith(package + ".")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._rebound.append((module, key, original))

    def _wrap(self, name, fn, observer):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self.clock(), 0.0,
                    self._stack[-1] if self._stack else -1, self.run_id]
            sid = len(self.spans)
            self.spans.append(span)
            self._stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = self.clock()
            if observer is not None:
                observer(args, kwargs, result)
            return result

        return traced

    def restore(self):
        """Put every original function back; safe to call twice."""
        while self._rebound:
            module, key, original = self._rebound.pop()
            setattr(module, key, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "name", "start", "end", "parent", "run_id"])
            for sid, (name, start, end, parent, run_id) in enumerate(self.spans):
                out.writerow([sid, name, repr(start), repr(end), parent, run_id])


def covered_length(interval, children):
    """Length of ``interval`` covered by the union of ``children`` intervals."""
    lo, hi = interval
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in children if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Per span: its duration minus the part its direct children cover."""
    children = [[] for _ in spans]
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - covered_length((start, end), children[sid])
        for sid, (name, start, end, parent, _) in enumerate(spans)
    ]


def group_totals(spans, group_of, run_id):
    """``{group: (calls, seconds)}`` over the spans of one run.

    ``group_of`` maps a span name to its group, or None for no group.  Only
    spans with no ancestor in the same group count, so a nested call
    (``outage_ebgs`` calling ``outage_sbgs``) is never counted twice.
    """
    totals = {}
    for name, start, end, parent, rid in spans:
        group = group_of(name)
        if group is None or rid != run_id:
            continue
        while parent >= 0 and group_of(spans[parent][0]) != group:
            parent = spans[parent][3]
        if parent < 0:
            calls, seconds = totals.get(group, (0, 0.0))
            totals[group] = (calls + 1, seconds + (end - start))
    return totals
