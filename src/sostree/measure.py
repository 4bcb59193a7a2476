"""Finite-volume splitting measures, brute-force oracles, and exact sampling.

A boundary-law field determines, on each ball, the probability table

    mu_n(sigma) ~ exp(J*beta * sum_edges |gaps| + sum over the outer sphere
                      of the unreduced law component at the vertex's spin),

with the root law standing in for the sphere term at depth 0, handed out
by finite_volume_measure as (log Z, table).  It is a tree-indexed Markov
chain: one upward message sweep gives its partition function, root marginal
and edge kernels at any size, and transition_kernel hands out the chain as
(root law, kernels).  Enumerating the table is the independent oracle, up
to EXACT_TABLE_CAP configurations:
marginalisation consistency between depths, the DLR property against raw
Gibbs kernels, spin-flip symmetry, and the sweep itself.  The table is a
(q,)^N tensor of edge-gap sums with one axis per vertex, not an array of
configurations.  Past the cap the oracles compare chains from the sweep
(worst root-law or edge-kernel gap).

The oracles (compatibility_oracle, dlr_breakdown, symmetry_check) read their
tables and sweeps through a lookup table = Tables(fld, params): table(n)
builds the depth-n table on first use, normalises it in place, and hands
it out again after that; table.messages(n) does the same for the depth-n
sweep.  An oracle called without a lookup makes its own; `verify` passes one
lookup to all of its checks (compatibility at --depth, DLR at depth 0, and
for a TI field the spin flip at --depth), so each depth is enumerated or
swept once per run.

Fields, messages, kernels and the table's axes follow tree.ball_geometry
(breadth-first, root first), so the sweep and the sampler take one numpy
step per level.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .boundary import BoundaryLawField, gap_table, pair_exponents, softmax, sorted_lse, unreduce
from .model import ModelParams
from .tree import BallGeometry, ball_geometry

EXACT_TABLE_CAP = 10 ** 6
# Vertices of a ball, times the samples drawn on it, that a command may build;
# build-nonti peaks at about 0.6 kB a vertex, some 6 GB at the cap.
SIZE_CAP = 10 ** 7
SYMMETRY_TOL = 1e-10   # flip gap (table total variation, else chain gap) counted as symmetric


class ScaleError(Exception):
    """The requested enumeration exceeds the exact-mode cap."""


def enumerable(q: int, n_vertices: int) -> bool:
    """Whether the q^n_vertices configurations fit under EXACT_TABLE_CAP.

    With q >= 2, 2^64 is past the cap, so the power stops at 64 vertices.
    """
    return q ** min(n_vertices, 64) <= EXACT_TABLE_CAP


def _edge_tensor(table: np.ndarray, geo: BallGeometry, edges: range) -> np.ndarray:
    """Sum of table[s(parent j), s(j)] over the edges j, for every configuration.

    Flat, in the C order of one axis of length q per vertex of `geo`, breadth-first:
    the first vertex is the most significant digit, and the index factorises as
    inner-ball index times outer-sphere block, as the marginalisation oracles need.
    Grown from zeros by one axis per edge (`edges` runs to the last vertex), so edge
    terms are added in vertex order, starting from zero; spin s of j is the outer
    loop of an add, so numpy's inner loop runs along the axes between parent and j.
    """
    q, n_vertices = len(table), geo.n_vertices
    if not enumerable(q, n_vertices):
        raise ScaleError(
            f"{q}^{n_vertices} configurations exceed the exact-mode cap {EXACT_TABLE_CAP}")
    parents, pairs = geo.parent_index.tolist(), table[:, None]
    total = np.zeros(q ** edges.start, dtype=table.dtype)
    for j in edges:
        block = q ** (j - 1 - parents[j])
        if block < 64:    # a plain broadcast add costs less per call
            total = total.reshape(-1, q, block, 1) + pairs
        else:
            prev = total.reshape(-1, q, block)
            total = np.empty(prev.shape + (q,), dtype=table.dtype)
            np.add(prev, table.T[:, None, :, None], out=total.transpose(3, 0, 1, 2), order="C")
    return total.reshape(-1)


def _sphere_laws(fld: BoundaryLawField, params: ModelParams, n: int) -> np.ndarray:
    """Unreduced laws of the radius-n sphere (the root law at n = 0), one row per vertex."""
    if fld.k != params.k or not 0 <= n <= fld.depth:
        raise ValueError(f"a depth-{fld.depth} field of order {fld.k} does not cover "
                         f"the depth-{n} ball of order {params.k}")
    return unreduce(fld.laws[ball_geometry(params.k, n).level(n)])


def log_weight_table(fld: BoundaryLawField, params: ModelParams, n: int) -> np.ndarray:
    """Unnormalised log weights of every configuration of the depth-n ball."""
    geo = ball_geometry(params.k, n)
    q = params.m + 1
    logw = params.J * params.beta * _edge_tensor(gap_table(q), geo, range(1, geo.n_vertices))
    for j, h in enumerate(_sphere_laws(fld, params, n)[:, :, None], start=geo.offsets[n]):
        block = q ** (geo.n_vertices - 1 - j)     # entries per spin of vertex j
        if q * block <= q ** 6 < logw.size:       # short blocks: add h as a row of q^6
            h = h.repeat(block, 1).reshape(1, -1).repeat(q ** 5 // block, 0).reshape(-1)
            rows = logw.reshape(-1, h.size)
        else:
            rows = logw.reshape(-1, q, block)
        rows += h
    return logw


def finite_volume_measure(fld: BoundaryLawField, params: ModelParams,
                          n: int) -> tuple[float, np.ndarray]:
    """(log Z, table): the depth-n measure as a normalised log_weight_table."""
    probs = log_weight_table(fld, params, n)   # normalised in place
    hi = float(np.max(probs))
    probs -= hi
    np.exp(probs, out=probs)
    total = float(np.sum(probs))
    probs /= total
    return hi + math.log(total), probs


class Tables:
    """table(n): the depth-n table of one field, built on first use and then
    shared; table.messages(n): its depth-n message sweep, likewise.

    The oracles only read a shared table or sweep; their in-place steps run
    on buffers of their own.
    """

    def __init__(self, fld: BoundaryLawField, params: ModelParams):
        self._measure = functools.cache(functools.partial(finite_volume_measure, fld, params))
        self.messages = functools.cache(functools.partial(_messages, fld, params))

    def __call__(self, n: int) -> np.ndarray:
        return self._measure(n)[1]


def _messages(fld: BoundaryLawField, params: ModelParams, n: int) -> np.ndarray:
    """Upward log messages of every vertex of the depth-n ball, shape (n_vertices, q).

    Row x is the log weight of the ball beneath x given the spin at x: the
    unreduced law on the outer sphere, else the sum over successors y of the
    log-sum-exp of pair_exponents(row y).  Row 0 gives log Z and the root marginal.
    """
    geo = ball_geometry(params.k, n)
    msgs = np.empty((geo.n_vertices, params.m + 1))
    msgs[geo.level(n)] = _sphere_laws(fld, params, n)
    # sweep inward: each level's messages, summed over every sibling block
    for d in range(n - 1, -1, -1):
        lse = sorted_lse(pair_exponents(msgs[geo.level(d + 1)], params.theta))
        msgs[geo.level(d)] = geo.successor_blocks(lse, d).sum(axis=1)
    return msgs


def log_partition(fld: BoundaryLawField, params: ModelParams, n: int,
                  method: str = "transfer") -> float:
    """Log normalising constant, by the message sweep or by table enumeration."""
    if method == "transfer":
        return float(sorted_lse(_messages(fld, params, n)[0]))
    if method == "enumerate":
        return finite_volume_measure(fld, params, n)[0]
    raise ValueError(f"unknown method {method!r}")


def root_marginal(fld: BoundaryLawField, params: ModelParams, n: int,
                  method: str = "transfer") -> np.ndarray:
    """Exact root marginal of the depth-n measure, by the message sweep or the table."""
    if method == "transfer":
        return softmax(_messages(fld, params, n)[0])
    if method == "table":
        # the root is the most significant axis of the table
        return finite_volume_measure(fld, params, n)[1].reshape(params.m + 1, -1).sum(axis=1)
    raise ValueError(f"unknown method {method!r}")


def _chain_gap(a: np.ndarray, b: np.ndarray, theta: float) -> float:
    """Worst absolute gap between two message arrays' root laws and shared-row kernels."""
    rows = slice(1, min(len(a), len(b)))
    chains = [(softmax(x[0]), softmax(pair_exponents(x[rows], theta))) for x in (a, b)]
    return float(np.max([np.abs(u - v).max(initial=0.0) for u, v in zip(*chains)]))


def compatibility_oracle(fld: BoundaryLawField, params: ModelParams, n: int,
                         table: Tables | None = None) -> float:
    """Worst defect of marginalisation consistency between depths n and n-1.

    Brute force on both tables: the depth-n table is summed over the outer
    sphere and compared entrywise with the depth-(n-1) table built from the
    same field.  Past the cap: the chain gap over the depth-(n-1) ball.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    table = table or Tables(fld, params)
    if not enumerable(params.m + 1, ball_geometry(params.k, n).n_vertices):
        return _chain_gap(table.messages(n), table.messages(n - 1), params.theta)
    inner = table(n - 1)
    collapsed = table(n).reshape(inner.size, -1).sum(axis=1)
    collapsed -= inner
    return float(np.max(np.abs(collapsed, out=collapsed)))


def _gibbs_kernel_table(params: ModelParams, n: int) -> np.ndarray:
    """nu[inner, outer]: Gibbs kernel of the depth-n ball given a sphere config.

    Built from raw energies only (no boundary law), normalised per boundary
    configuration.
    """
    geo_in = ball_geometry(params.k, n)
    geo_out = ball_geometry(params.k, n + 1)
    gaps = gap_table(params.m + 1)
    jb = params.J * params.beta

    energy_in = jb * _edge_tensor(gaps, geo_in, range(1, geo_in.n_vertices))
    cross = _edge_tensor(jb * gaps, geo_out, range(geo_in.n_vertices, geo_out.n_vertices))
    cross = cross.reshape(energy_in.size, -1)

    # the logits, then the kernel, in the buffer of the cross terms
    cross += energy_in[:, None]
    cross -= cross.max(axis=0, keepdims=True)
    np.exp(cross, out=cross)
    cross /= cross.sum(axis=0, keepdims=True)
    return cross


@dataclass
class DlrBreakdown:
    conditional_tv: float     # conditioned table vs Gibbs kernel, worst boundary config
    equation_tv: float        # depth-n table vs kernel mixed over the boundary marginal

    @property
    def max_violation(self) -> float:
        return float(np.maximum(self.conditional_tv, self.equation_tv))


def dlr_breakdown(fld: BoundaryLawField, params: ModelParams, n: int,
                  table: Tables | None = None) -> DlrBreakdown:
    """Both faces of the DLR property at depth n, by enumeration at depth n+1.

    The conditional face (conditioning the depth-(n+1) table on its sphere)
    agrees with the Gibbs kernel identically in exact arithmetic, whatever
    the field; the equation face compares the separately built depth-n table
    against the kernel averaged over the sphere marginal, and detects fields
    that fail the consistency recursion.  Past the cap the conditional face
    is 0.0, as raw theta^|i-j| weights condition to the Gibbs kernel by
    construction, and the equation face is the depth n+1 vs n chain gap.
    """
    table = table or Tables(fld, params)
    if not enumerable(params.m + 1, ball_geometry(params.k, n + 1).n_vertices):
        return DlrBreakdown(conditional_tv=0.0,
                            equation_tv=compatibility_oracle(fld, params, n + 1, table))
    inner = table(n)
    joint = table(n + 1).reshape(inner.size, -1)
    boundary = joint.sum(axis=0)
    kernel = _gibbs_kernel_table(params, n)

    # Columns under 8 entries (n = 0: the root's q spins) are summed in order in
    # any layout, as numpy sums pairwise from 8 on, so that quotient is row-major;
    # longer ones stay column-major, which fixes how the sum rounds.  Zero-mass
    # columns (0/0) are left out of the max; a nan column stays in.
    with np.errstate(invalid="ignore"):
        cond = np.divide(joint, boundary, order="C" if inner.size < 8 else "F")
    cond -= kernel
    np.abs(cond, out=cond)
    cond *= 0.5
    conditional_tv = float(np.max(cond.sum(axis=0), where=boundary != 0, initial=0.0))

    mixed = kernel @ boundary
    mixed -= inner
    equation_tv = float(0.5 * np.abs(mixed, out=mixed).sum())
    return DlrBreakdown(conditional_tv=conditional_tv, equation_tv=equation_tv)


def symmetry_check(fld: BoundaryLawField, params: ModelParams, n: int,
                   table: Tables | None = None) -> bool:
    """Whether the depth-n measure is invariant under the global spin flip.

    Flipping every spin j -> m-j maps the table index i to (m+1)^N - 1 - i,
    so the flipped table is the reversed one.  Past the cap, the chain gap to
    its flip (reversed messages: root law and kernels reversed on both axes).
    """
    table = table or Tables(fld, params)
    if not enumerable(params.m + 1, ball_geometry(params.k, n).n_vertices):
        msgs = table.messages(n)
        return _chain_gap(msgs, msgs[:, ::-1], params.theta) <= SYMMETRY_TOL
    probs = table(n)
    flip = probs - probs[::-1]
    tv = 0.5 * float(np.abs(flip, out=flip).sum())
    return tv <= SYMMETRY_TOL


def transition_kernel(fld: BoundaryLawField, params: ModelParams,
                      depth: int) -> tuple[np.ndarray, np.ndarray]:
    """The depth-`depth` measure as a chain: (root law, child kernels).

    kernels[j, i] is the law of the spin at vertex j given its parent's spin
    i: mass on s proportional to theta^|i-s| * exp(message of j at s).  The
    (n_vertices, q, q) kernels follow the breadth-first layout; row 0 (the
    root) is never used.
    """
    msgs = _messages(fld, params, depth)
    return softmax(msgs[0]), softmax(pair_exponents(msgs, params.theta))


def sample(fld: BoundaryLawField, params: ModelParams, depth: int,
           seed: int, count: int) -> tuple[np.ndarray, tuple[str, ...]]:
    """Exact forward samples of the depth-`depth` measure of any field.

    Returns the (count, n_vertices) spin array and the vertex labels of its
    columns.  Stream contract: one generator seeded with `seed`; one block
    of `count` uniforms is drawn per vertex, vertices in breadth-first order
    (root first, successors in generator order); spins come from inverse-CDF
    lookups.  Each level draws its blocks as one (level size, count) array,
    which is the same stream.  Bit-reproducible for a fixed seed.
    """
    geo = ball_geometry(params.k, depth)
    root_dist, kernels = transition_kernel(fld, params, depth)
    rng = np.random.default_rng(seed)
    out = np.empty((count, geo.n_vertices), dtype=np.int8)

    cum_root = np.cumsum(root_dist)
    out[:, 0] = np.searchsorted(cum_root, rng.random(count), side="right")
    cum = np.cumsum(kernels, axis=-1)
    q = cum.shape[-1]
    for d in range(1, depth + 1):
        rows = np.arange(geo.offsets[d], geo.offsets[d + 1])
        u = rng.random((rows.size, count))
        parents = out[:, geo.parent_index[rows]].T
        # inverse CDF: count the CDF entries below u in the row of the parent's
        # spin; looping over (spin, entry) pairs keeps temporaries at 1 byte/draw
        spins = np.zeros(u.shape, dtype=np.int8)
        for i in range(q):
            is_i = parents == i
            for c in range(q):
                spins += is_i & (cum[rows, i, c, None] < u)
        out[:, rows] = spins.T
    np.clip(out, 0, params.m, out=out)
    return out, geo.labels


def samples_to_csv(samples: np.ndarray, labels: Sequence[str]) -> str:
    """CSV text: header of vertex labels, one row per configuration.

    The body is one byte buffer.  Each cell gathers its spin's text, ended
    by "," or, in the last column, by a newline, from a table of null-padded
    tokens; dropping the null bytes leaves the rows.  Spins are small integers.
    """
    header = ",".join(labels) + "\n"
    if not samples.size:
        return header
    lo = int(samples.min())
    tokens = [str(v) for v in range(lo, int(samples.max()) + 1)]
    table = np.array([(t + end).encode() for end in ",\n" for t in tokens])
    # row-end tokens follow the comma-ended ones in the table
    row_end = np.where(np.arange(samples.shape[1]) == samples.shape[1] - 1, len(tokens), 0)
    cells = table[row_end + samples - lo].view(np.uint8)
    return header + cells[cells != 0].tobytes().decode()
