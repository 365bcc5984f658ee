"""Function replacement and in-memory spans around trtmg's public functions.

Everything here works from outside the solver: a function is replaced in
every trtmg namespace that holds it, because a name imported with
`from .x import f` is a binding of its own (cli.run_simulation is not
cycles.run_simulation once cycles.run_simulation is replaced), and every
replacement is undone when its context exits.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from time import perf_counter


def _trtmg_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "trtmg" or name.startswith("trtmg."))]


@contextmanager
def replaced(owner, attr, make_wrapper):
    """Swap owner.attr for make_wrapper(original) while the context is open.

    owner is a trtmg module (every trtmg module binding the same function is
    swapped too) or a class (plain functions and classmethods)."""
    if isinstance(owner, type):
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            new = classmethod(make_wrapper(original.__func__))
        else:
            new = make_wrapper(original)
        sites = [(owner, attr)]
    else:
        original = getattr(owner, attr)
        new = make_wrapper(original)
        sites = [(m, name) for m in _trtmg_modules()
                 for name, value in vars(m).items() if value is original]
    for obj, name in sites:
        setattr(obj, name, new)
    try:
        yield
    finally:
        for obj, name in sites:
            setattr(obj, name, original)


class Tracer:
    """Spans kept in memory as [label, start, end, parent, work] lists.

    parent is the index of the innermost span open when this one started
    (-1 at top level); work is a per-call count supplied by the caller of
    wrap (points, cell-directions, intervals, l_max)."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, label, work=None):
        """Return a make_wrapper for `replaced`; label is a string or a
        function of (args, kwargs) naming the span per call."""
        spans, open_ = self.spans, self._open

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                name = label(args, kwargs) if callable(label) else label
                rec = [name, 0.0, 0.0, open_[-1] if open_ else -1,
                       work(args, kwargs) if work else 0]
                open_.append(len(spans))
                spans.append(rec)
                rec[1] = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec[2] = perf_counter()
                    open_.pop()
            return traced
        return make

    def summary(self) -> dict:
        """Per label: calls, inclusive seconds, self seconds (inclusive minus
        the time covered by child spans), summed work, and for each span
        the number of direct children per child label."""
        child_time = [0.0] * len(self.spans)
        out = {}
        for name, start, end, parent, work in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, work) in enumerate(self.spans):
            s = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0,
                                      "work": 0})
            s["calls"] += 1
            s["total"] += end - start
            s["self"] += end - start - child_time[i]
            s["work"] += work
        return out

    def children(self, parent_label: str, child_label: str) -> list:
        """(work, number of direct child_label spans) per parent_label span."""
        counts = {i: 0 for i, rec in enumerate(self.spans)
                  if rec[0] == parent_label}
        for rec in self.spans:
            if rec[0] == child_label and rec[3] in counts:
                counts[rec[3]] += 1
        return [(self.spans[i][4], n) for i, n in counts.items()]
