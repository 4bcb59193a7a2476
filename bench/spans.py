"""In-memory span tracing of sostree's layer functions, from outside the package.

`Tracer.install()` wraps the public functions of each layer module and
rebinds every name in every loaded `sostree` module that refers to the
original, so calls made through `from .boundary import law_map` are seen as
well as calls through the module attribute.  No file in `src/` changes.
`uninstall()` puts every original back.

Each span records its name, start, end, parent span and op id.  Spans stay in
memory and are aggregated (or written out) when the pass ends.  A span's self
time is its duration minus the time its direct child spans cover; the self
times of all spans of an op sum to the op's root span.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter_ns

# (module, function) pairs timed as spans; metric prefix "<module>.<function>".
SPAN_FUNCTIONS = [
    ("cli", "main"),
    ("tree", "cached_ball"), ("tree", "vertex_addresses"),
    ("boundary", "law_map"), ("boundary", "law_map_jac"), ("boundary", "constant_field"),
    ("boundary", "compatibility_residual"), ("boundary", "perturb_field"),
    ("roots", "find_roots"),
    ("ti", "solve"), ("ti", "solve_symmetric_roots"), ("ti", "solve_full"),
    ("ti", "locate_symmetric_threshold"),
    ("periodic", "classify_by_subgroup"), ("periodic", "cycle_instability"),
    ("periodic", "solve_two_cycle_symmetric"), ("periodic", "alternating_limits"),
    ("periodic", "solve_two_cycle_full"), ("periodic", "iterate_parity_system"),
    ("periodic", "expand_two_cycle_field"),
    ("nonti", "build_field"), ("nonti", "split_components"), ("nonti", "extreme_laws"),
    ("nonti", "root_convergence"),
    ("measure", "ball_geometry"), ("measure", "log_weight_table"),
    ("measure", "finite_volume_measure"), ("measure", "log_partition"),
    ("measure", "root_marginal"), ("measure", "compatibility_oracle"),
    ("measure", "dlr_breakdown"), ("measure", "symmetry_check"),
    ("measure", "transition_kernel"), ("measure", "sample"), ("measure", "samples_to_csv"),
]

# (module, class, method, span name): serialisers timed as spans.
SPAN_METHODS = [
    ("boundary", "BoundaryLawField", "to_json_dict", "boundary.to_json"),
    ("nonti", "NonTiField", "to_json_dict", "nonti.to_json"),
]

# Hot one-line helpers: counted, not timed, so tracing stays cheap.
COUNTED_FUNCTIONS = [("tree", "direct_successors"), ("roots", "bisect")]

ROOT_SPAN = "bench.op"


class Tracer:
    """Span recorder plus the rebinding that feeds it."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.op_ids: list[int] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op_id = -1
        self._undo: list[tuple[object, str, object]] = []
        self.active = False

    # -- recording -------------------------------------------------------

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.op_ids.append(self._op_id)
        self.ends.append(0)
        self._stack.append(i)
        self.starts.append(perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = perf_counter_ns()
        self._stack.pop()

    def begin_op(self, op_id: int) -> int:
        self._op_id = op_id
        return self.open(ROOT_SPAN)

    def _span_wrapper(self, name: str, fn, on_return=None):
        """Time `fn` as a span; `on_return(*args, **kwargs)` records counters."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            i = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if on_return is not None:
                on_return(*args, **kwargs)
            return out

        return wrapper

    def _count_wrapper(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function and rebind all references to it."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        import numpy as np

        tree = importlib.import_module("sostree.tree")
        counts = self.counts

        def law_map_rows(h, m, *args, **kwargs):
            counts["boundary.law_map.rows"] += int(np.size(h)) // m

        def configs(fld, params, n, *args, **kwargs):
            counts["measure.configs_enumerated"] += (params.m + 1) ** tree.ball_size(params.k, n)

        # counters derived from the arguments, recorded once the call returns
        on_return = {"boundary.law_map": law_map_rows, "measure.log_weight_table": configs}

        for module, fname in SPAN_FUNCTIONS:
            name = f"{module}.{fname}"
            orig = getattr(importlib.import_module(f"sostree.{module}"), fname)
            self._rebind(orig, self._span_wrapper(name, orig, on_return.get(name)))
        for module, fname in COUNTED_FUNCTIONS:
            orig = getattr(importlib.import_module(f"sostree.{module}"), fname)
            self._rebind(orig, self._count_wrapper(f"{module}.{fname}.calls", orig))
        for module, cls_name, meth, name in SPAN_METHODS:
            cls = getattr(importlib.import_module(f"sostree.{module}"), cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, self._span_wrapper(name, orig))
            self._undo.append((cls, meth, orig))

    def _rebind(self, orig, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "sostree" or mod_name.startswith("sostree.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, orig))

    def uninstall(self) -> None:
        """Restore every name that install() rebound."""
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)

    # -- results ---------------------------------------------------------

    def aggregate(self, op_factors: list[float] | None = None) -> dict:
        """Per-name calls / total / self time (ns), plus counters and retries.

        With `op_factors`, each span's times are divided by the speed factor
        of its op (see pace.py).
        """
        scale = None
        if op_factors is not None:
            scale = [op_factors[op] if op >= 0 else 1.0 for op in self.op_ids]
        per_name = self_times(self.names, self.starts, self.ends, self.parents, scale)
        counts = dict(self.counts)
        counts["ti.solve_symmetric_roots.retries"] = extra_children(
            self.names, self.parents, "ti.solve_symmetric_roots", "roots.find_roots")
        return {"spans": per_name, "counts": counts}

    def dump(self) -> dict:
        """All spans as parallel columns (names interned through a table)."""
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        return {"names": table, "name": [index[n] for n in self.names],
                "start_ns": self.starts, "end_ns": self.ends,
                "parent": self.parents, "op": self.op_ids}


def self_times(names, starts, ends, parents, scale=None) -> dict[str, dict[str, float]]:
    """Aggregate spans by name: calls, total_ns and self_ns.

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly because the traced program is single
    threaded, so the children never overlap.  `scale`, if given, holds a
    divisor per span, applied to its duration and to its children's.
    """
    covered = [0] * len(names)
    for i, p in enumerate(parents):
        if p >= 0:
            covered[p] += ends[i] - starts[i]
    out: dict[str, dict[str, float]] = {}
    for i, name in enumerate(names):
        dur = ends[i] - starts[i]
        if scale is not None:
            dur, covered[i] = dur / scale[i], covered[i] / scale[i]
        agg = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
        agg["calls"] += 1
        agg["total_ns"] += dur
        agg["self_ns"] += dur - covered[i]
    return out


def extra_children(names, parents, parent_name: str, child_name: str) -> int:
    """Direct `child_name` spans under each `parent_name` span, beyond the first."""
    per_parent = Counter(p for i, p in enumerate(parents)
                         if p >= 0 and names[i] == child_name and names[p] == parent_name)
    return sum(c - 1 for c in per_parent.values())
