"""Finite-volume splitting measures, brute-force oracles, and exact sampling.

A boundary-law field determines, on each ball, the probability table

    mu_n(sigma) ~ exp(J*beta * sum_edges |gaps| + sum over the outer sphere
                      of the unreduced law component at the vertex's spin),

with the root law standing in for the sphere term at depth 0.  The table
route enumerates every configuration (guarded by a size cap) and is the
independent oracle for everything else: marginalisation consistency between
depths, the DLR property against raw Gibbs kernels, spin-flip symmetry, and
the per-edge sampling kernels.

Fields, transfer messages, sampling kernels and configurations are arrays
whose vertex axis follows tree.ball_geometry (breadth-first, root first), so
the transfer recursion and the sampler take one numpy step per level and the
enumeration loops only over the columns of its table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .boundary import BoundaryLawField, _sorted_lse, pair_exponents, unreduce
from .model import ModelParams, edge_gap_sum
from .tree import BallGeometry, Word, ball_geometry, ball_size

EXACT_TABLE_CAP = 10 ** 6
SYMMETRY_TOL = 1e-10   # total-variation gap below which a measure counts as flip-symmetric


class ScaleError(Exception):
    """The requested enumeration exceeds the exact-mode cap."""


def enumerable(q: int, n_vertices: int) -> bool:
    """Whether the q^n_vertices configurations fit under EXACT_TABLE_CAP."""
    return q ** n_vertices <= EXACT_TABLE_CAP


def _config_columns(q: int, n_vertices: int) -> np.ndarray:
    """All configurations as an (N, n_vertices) array.

    The first (breadth-first) vertex is the most significant digit, so the
    table index factorises as inner-ball index times outer-sphere block; the
    marginalisation oracles lean on that layout.
    """
    if not enumerable(q, n_vertices):
        raise ScaleError(
            f"{q}^{n_vertices} configurations exceed the exact-mode cap {EXACT_TABLE_CAP}")
    size = q ** n_vertices
    idx = np.arange(size, dtype=np.int64)
    cols = np.empty((size, n_vertices), dtype=np.int8)
    for j in range(n_vertices):
        cols[:, j] = (idx // q ** (n_vertices - 1 - j)) % q
    return cols


def _ball_laws(fld: BoundaryLawField, params: ModelParams, n: int) -> np.ndarray:
    """Unreduced laws of the depth-n ball, one row per vertex."""
    if fld.k != params.k or not 0 <= n <= fld.depth:
        raise ValueError(f"a depth-{fld.depth} field of order {fld.k} does not cover "
                         f"the depth-{n} ball of order {params.k}")
    return unreduce(fld.laws[:ball_size(params.k, n)])


def log_weight_table(fld: BoundaryLawField, params: ModelParams, n: int) -> np.ndarray:
    """Unnormalised log weights of every configuration of the depth-n ball."""
    q = params.m + 1
    geo = ball_geometry(params.k, n)
    cols = _config_columns(q, geo.n_vertices)
    logw = params.J * params.beta * edge_gap_sum(cols, params.k, n)
    # the outer sphere's laws, or the root law standing in for them at depth 0
    outer = geo.level(n)
    for j, h in enumerate(_ball_laws(fld, params, n)[outer], start=outer.start):
        logw += h[cols[:, j]]
    return logw


@dataclass
class FiniteVolumeMeasure:
    """Explicit probability table over the configurations of a ball."""

    params: ModelParams
    depth: int
    field: BoundaryLawField
    log_z: float
    probs: np.ndarray

    @property
    def geometry(self) -> BallGeometry:
        return ball_geometry(self.params.k, self.depth)

    def marginal(self, vertices: Sequence[Word]) -> np.ndarray:
        """Exact marginal over the given vertices, axes in the given order."""
        geo = self.geometry
        q = self.params.m + 1
        positions = [geo.index[w] for w in vertices]
        shaped = self.probs.reshape((q,) * geo.n_vertices)
        keep = sorted(positions)
        drop = tuple(ax for ax in range(geo.n_vertices) if ax not in keep)
        reduced = shaped.sum(axis=drop)
        order = [keep.index(p) for p in positions]
        return np.transpose(reduced, axes=order)


def finite_volume_measure(fld: BoundaryLawField, params: ModelParams,
                          n: int) -> FiniteVolumeMeasure:
    logw = log_weight_table(fld, params, n)
    hi = float(np.max(logw))
    w = np.exp(logw - hi)
    total = float(np.sum(w))
    return FiniteVolumeMeasure(params=params, depth=n, field=fld,
                               log_z=hi + math.log(total), probs=w / total)


def _transfer_child_sums(fld: BoundaryLawField, params: ModelParams, n: int) -> np.ndarray:
    """Summed upward log messages at the root, one entry per root spin."""
    geo = ball_geometry(params.k, n)
    sums = _ball_laws(fld, params, n)[geo.level(n)]
    # sweep inward: each level's messages, summed over every sibling block
    for d in range(n - 1, -1, -1):
        msgs = _sorted_lse(pair_exponents(sums, params.theta), axis=-1)
        sums = geo.successor_blocks(msgs, d).sum(axis=1)
    return sums[0]


def log_partition(fld: BoundaryLawField, params: ModelParams, n: int,
                  method: str = "auto") -> float:
    """Log normalising constant, by table enumeration or transfer recursion."""
    if method not in ("auto", "enumerate", "transfer"):
        raise ValueError(f"unknown method {method!r}")
    if method == "enumerate" or (
            method == "auto" and enumerable(params.m + 1, ball_size(params.k, n))):
        logw = log_weight_table(fld, params, n)
        hi = float(np.max(logw))
        return hi + math.log(float(np.sum(np.exp(logw - hi))))
    return float(_sorted_lse(_transfer_child_sums(fld, params, n), axis=-1))


def root_marginal(fld: BoundaryLawField, params: ModelParams, n: int,
                  method: str = "transfer") -> np.ndarray:
    """Exact root marginal of the depth-n measure."""
    if method == "table":
        mu = finite_volume_measure(fld, params, n)
        return mu.marginal([Word()])
    s = _transfer_child_sums(fld, params, n)
    w = np.exp(s - np.max(s))
    return w / np.sum(w)


def compatibility_oracle(fld: BoundaryLawField, params: ModelParams, n: int) -> float:
    """Worst defect of marginalisation consistency between depths n and n-1.

    Brute force on both tables: the depth-n table is summed over the outer
    sphere and compared entrywise with the depth-(n-1) table built from the
    same field.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    q = params.m + 1
    inner = finite_volume_measure(fld, params, n - 1)
    outer = finite_volume_measure(fld, params, n)
    inner_size = inner.probs.shape[0]
    collapsed = outer.probs.reshape(inner_size, -1).sum(axis=1)
    return float(np.max(np.abs(collapsed - inner.probs)))


def _gibbs_kernel_table(params: ModelParams, n: int) -> np.ndarray:
    """nu[inner, outer]: Gibbs kernel of the depth-n ball given a sphere config.

    Built from raw energies only (no boundary law), normalised per boundary
    configuration.
    """
    q = params.m + 1
    geo_in = ball_geometry(params.k, n)
    geo_out = ball_geometry(params.k, n + 1)
    cols_in = _config_columns(q, geo_in.n_vertices)
    n_outer = geo_out.n_vertices - geo_in.n_vertices
    cols_out = _config_columns(q, n_outer)
    jb = params.J * params.beta

    energy_in = jb * edge_gap_sum(cols_in, params.k, n)
    cross = np.zeros((cols_in.shape[0], cols_out.shape[0]))
    for jo in range(n_outer):
        pj = geo_out.parent_index[geo_in.n_vertices + jo]
        gaps = np.abs(cols_in[:, pj].astype(np.int16)[:, None]
                      - cols_out[:, jo].astype(np.int16)[None, :])
        cross += jb * gaps

    logits = energy_in[:, None] + cross
    logits -= logits.max(axis=0, keepdims=True)
    table = np.exp(logits)
    return table / table.sum(axis=0, keepdims=True)


@dataclass
class DlrBreakdown:
    conditional_tv: float     # conditioned table vs Gibbs kernel, worst boundary config
    equation_tv: float        # depth-n table vs kernel mixed over the boundary marginal

    @property
    def max_violation(self) -> float:
        return max(self.conditional_tv, self.equation_tv)


def dlr_breakdown(fld: BoundaryLawField, params: ModelParams, n: int) -> DlrBreakdown:
    """Both faces of the DLR property at depth n, by enumeration at depth n+1.

    The conditional face (conditioning the depth-(n+1) table on its sphere)
    agrees with the Gibbs kernel identically in exact arithmetic, whatever
    the field; the equation face compares the separately built depth-n table
    against the kernel averaged over the sphere marginal, and detects fields
    that fail the consistency recursion.
    """
    outer = finite_volume_measure(fld, params, n + 1)
    inner = finite_volume_measure(fld, params, n)
    inner_size = inner.probs.shape[0]
    joint = outer.probs.reshape(inner_size, -1)
    boundary = joint.sum(axis=0)
    kernel = _gibbs_kernel_table(params, n)

    positive = boundary > 0
    cond = joint[:, positive] / boundary[positive]
    conditional_tv = float(np.max(0.5 * np.abs(cond - kernel[:, positive]).sum(axis=0)))

    mixed = kernel @ boundary
    equation_tv = float(0.5 * np.abs(mixed - inner.probs).sum())
    return DlrBreakdown(conditional_tv=conditional_tv, equation_tv=equation_tv)


def dlr_oracle(fld: BoundaryLawField, params: ModelParams, n: int) -> float:
    return dlr_breakdown(fld, params, n).max_violation


def symmetry_check(fld: BoundaryLawField, params: ModelParams, n: int) -> bool:
    """Whether the depth-n measure is invariant under the global spin flip.

    Flipping every spin j -> m-j maps the table index i to (m+1)^N - 1 - i,
    so the flipped table is the reversed one.
    """
    mu = finite_volume_measure(fld, params, n)
    tv = 0.5 * float(np.abs(mu.probs - mu.probs[::-1]).sum())
    return tv <= SYMMETRY_TOL


@dataclass
class TransitionKernel:
    """Root distribution plus the per-vertex child kernels used for sampling.

    kernels[j, i] is the distribution of the spin at vertex j beneath a
    parent with spin i: mass on spin s proportional to theta^|i-s| * exp(the
    unreduced law component s at j).  Rows follow the breadth-first layout;
    row 0 (the root) is never used, because the root spin comes from
    root_dist, the exact root marginal of the depth-1 measure, which is what
    the root convention prescribes.
    """

    root_dist: np.ndarray
    kernels: np.ndarray           # (n_vertices, q, q)


def transition_kernel(fld: BoundaryLawField, params: ModelParams,
                      depth: int) -> TransitionKernel:
    root_dist = root_marginal(fld, params, 1, method="table")
    logits = pair_exponents(_ball_laws(fld, params, depth), params.theta)
    logits -= logits.max(axis=-1, keepdims=True)
    table = np.exp(logits)
    return TransitionKernel(root_dist=root_dist,
                            kernels=table / table.sum(axis=-1, keepdims=True))


def sample(fld: BoundaryLawField, params: ModelParams, depth: int,
           seed: int, count: int) -> tuple[np.ndarray, tuple[str, ...]]:
    """Forward samples of the depth-`depth` splitting measure.

    Returns the (count, n_vertices) spin array and the vertex labels of its
    columns.  Stream contract: one generator seeded with `seed`; one block
    of `count` uniforms is drawn per vertex, vertices in breadth-first order
    (root first, successors in generator order); spins come from inverse-CDF
    lookups.  Each level draws its blocks as one (level size, count) array,
    which is the same stream.  Bit-reproducible for a fixed seed.
    """
    geo = ball_geometry(params.k, depth)
    kern = transition_kernel(fld, params, depth)
    rng = np.random.default_rng(seed)
    out = np.empty((count, geo.n_vertices), dtype=np.int8)

    cum_root = np.cumsum(kern.root_dist)
    out[:, 0] = np.searchsorted(cum_root, rng.random(count), side="right")
    cum = np.cumsum(kern.kernels, axis=-1)
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
    """CSV text: header of vertex labels, one row per configuration."""
    lines = [",".join(labels)]
    lines += [",".join(map(str, row.tolist())) for row in samples]
    return "\n".join(lines) + "\n"
