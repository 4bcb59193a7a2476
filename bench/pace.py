"""Host-speed reference for the benchmark's timings.

The benchmark runs on shared virtual machines whose speed drifts by tens of
percent over seconds to minutes: a fixed pure-Python loop, timed in
20-second windows, spread by about 19% (interquartile range over median) on
a 2-core Xeon VM, with a slow state about 1.5 times slower than the fast one.
Differences that large between runs would drown any change to sostree.

So each timing is paired with a fixed reference slice of work, run right
next to it, that does not touch sostree: tuple-keyed dicts, float
arithmetic, JSON formatting, small numpy calls and a numpy pass over a
2 MB array, the kinds of work sostree's ops are made of.  A timing is
reported divided by the host's speed factor, the slice's measured time over
`REF_NOMINAL_MS`.  The figures are then seconds on a host where the slice
takes `REF_NOMINAL_MS`; the raw figures stay in the result file.  A change
to sostree moves them as it would move raw time, since the slice does not
run sostree code.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter_ns

import numpy as np

# About the slice's time on the 2-core Xeon VM (2.1 GHz) the benchmark was
# tuned on.
REF_NOMINAL_MS = 1.8

# An op's speed factor is the median of the slices within this many
# positions of it, so that it follows the host through a pass.
WINDOW = 5

# The slice allocates nothing that outlives it and nothing large: a slice
# that built a fresh 3000-entry dict each time ran either 1.7 or 5.7 ms,
# depending on whether the allocator had to map fresh pages, which is a
# property of the heap the preceding ops left behind, not of the host.
# Its three parts (dict work, small numpy calls, a numpy pass over 2 MB)
# take about 0.75, 0.3 and 0.9 ms.  Timed apart over 50 passes of the three
# workloads, each part alone followed the ops' speed worse than the mix on
# at least one workload (bench/README.md has the figures).
_KEYS = [(i & 7, i >> 3, i % 5) for i in range(1500)]
_TABLE = dict.fromkeys(_KEYS, 0.5)
_PARTIAL = {(a, b): 0.25 for a, b, _ in _KEYS}
_DOC = {str(k): 0.5 for k in _KEYS[:150]}
_SMALL = np.array([0.3, -1.2, 2.5])
_BULK = np.linspace(0.0, 1.0, 1 << 18)
_OUT = np.empty_like(_BULK)


def ref_slice() -> float:
    """Run the fixed reference work once; its wall time in ms."""
    t0 = perf_counter_ns()
    table, partial = _TABLE, _PARTIAL
    for key in _KEYS:
        table[key] = table[key] * 0.999 + partial.get(key[:2], 0.5)
    json.dumps(_DOC)
    x = _SMALL
    for _ in range(50):
        x = np.log1p(np.exp(x) / (1.0 + np.exp(x).sum()))
    float(np.log1p(_BULK, out=_OUT).sum())
    return (perf_counter_ns() - t0) / 1e6


def op_factors(refs: list[float]) -> list[float]:
    """Speed factor of each op from the slices run around the ops of a pass.

    `refs[i]` is the slice run just before op i and `refs[-1]` the slice
    after the last op, so there is one slice more than there are ops.  Op i takes the
    median of slices i - WINDOW .. i + 1 + WINDOW, over REF_NOMINAL_MS.
    """
    return [statistics.median(refs[max(0, i - WINDOW): i + 2 + WINDOW]) / REF_NOMINAL_MS
            for i in range(len(refs) - 1)]
