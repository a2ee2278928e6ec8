"""Outside-in layer tracing, from the benchmark's own files.

Each traced public function is replaced, at every `xdiscord.*` module
attribute bound to it, by a wrapper that records a span (name, start, end,
parent span, op id). Spans live in flat arrays in memory; self time, totals
and counts are derived from them after the run, and the arrays are written
out when the run ends.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

#: Traced functions, as `<module>.<function>` under the xdiscord package.
FUNCTIONS = (
    "cli.main",
    "dynamics.trajectory",
    "dynamics.evolve",
    "dynamics.find_zeros",
    "discord.discord",
    "discord.minimize_numeric",
    "xstate.require_valid",
    "xstate.entropy_bits",
    "xstate.eigenvalues",
    "oracle.compare",
    "oracle.integrate",
    "oracle.trace_out_field",
    "sampling.random_xstate",
)


class Tracer:
    """Span recorder. `install()` wraps, `uninstall()` restores."""

    def __init__(self):
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.current_op = -1
        self._stack = []
        self._patches = []  # (module, attribute, original)

    def _wrap(self, name_id, fn):
        start, end, names, parents, ops = self.start, self.end, self.name, self.parent, self.op
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.current_op)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap each function wherever an xdiscord module binds it. A function
        the program no longer has is skipped and reports zero calls."""
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "xdiscord" and m]
        for name_id, qualname in enumerate(FUNCTIONS):
            mod_name, attr = qualname.rsplit(".", 1)
            home = sys.modules.get(f"xdiscord.{mod_name}")
            original = getattr(home, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name_id, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self):
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def arrays(self) -> dict:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
        }


def summarize(spans: dict, ops) -> dict:
    """Per-function calls, total and self time (seconds) over the spans whose
    op id is in `ops`, and evolve calls made under a find_zeros span.

    Self time is a span's duration minus the durations of its direct children;
    children never outlive their parent, so this is the uncovered part.
    """
    start, end, name, parent, op = (spans[k] for k in ("start", "end", "name", "parent", "op"))
    dur = end - start
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child_time
    keep = np.isin(op, np.asarray(list(ops), dtype=np.int32))

    zeros_id = FUNCTIONS.index("dynamics.find_zeros")
    evolve_id = FUNCTIONS.index("dynamics.evolve")
    # Parents precede children, so one forward sweep marks every span with a
    # find_zeros ancestor.
    names = name.tolist()
    under = [False] * len(names)
    for i, p in enumerate(parent.tolist()):
        if p >= 0:
            under[i] = under[p] or names[p] == zeros_id
    under = np.array(under, dtype=bool)

    out = {}
    for fid, qualname in enumerate(FUNCTIONS):
        mask = keep & (name == fid)
        out[qualname] = {
            "calls": int(mask.sum()),
            "total_s": float(dur[mask].sum()),
            "self_s": float(self_time[mask].sum()),
        }
    out["dynamics.find_zeros"]["refine_evals"] = int((keep & under & (name == evolve_id)).sum())
    return out
