"""Boundary-law recursion on the tree.

A boundary law assigns to each non-root vertex a reduced real vector h of
length m (the last component of the unreduced vector is gauged to zero, so
the unreduced single-site weights are exp(h_0), ..., exp(h_{m-1}), 1).  A law
family is consistent exactly when every non-root vertex satisfies

    h_x = sum over direct successors y of law_map(h_y, m, theta),

where law_map is the per-child update

    law_map(h)_i = ln[ (sum_j theta^|i-j| e^{h_j} + theta^{m-i})
                     / (sum_j theta^{m-j} e^{h_j} + 1) ].

A field of laws on the depth-n ball is one (ball_size, m) array whose rows
follow the breadth-first layout of tree.ball_geometry, root law at row 0.
The successors of each level form consecutive blocks of the next level, so
the recursion and its residual run as one numpy step per level.

Everything here is evaluated in log space.  The exponent terms are sorted
before each log-sum-exp so that identical term multisets produce bit-identical
sums; this keeps component 0 of the m=2 update exactly zero on the symmetric
slice h_0 = 0, and it is what lets downstream constructions preserve that
slice exactly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .model import ModelParams
from .tree import BallGeometry, ball_geometry, ball_size


def sorted_lse(terms: np.ndarray) -> np.ndarray:
    """Log-sum-exp over the last axis, of the terms in ascending order."""
    t = np.sort(terms, axis=-1)
    hi = np.max(t, axis=-1, keepdims=True)
    return np.squeeze(hi, axis=-1) + np.log(np.sum(np.exp(t - hi), axis=-1))


@functools.cache
def gap_table(q: int) -> np.ndarray:
    """|i - j| over q spins, as a read-only int16 table.

    Any gap sum under the enumeration cap is below 1000, and int16 converts
    to float64 exactly.
    """
    spins = np.arange(q, dtype=np.int16)
    gaps = np.abs(spins[:, None] - spins[None, :])
    gaps.flags.writeable = False
    return gaps


def pair_exponents(unreduced: np.ndarray, theta: float) -> np.ndarray:
    """Exponent table E[..., i, j] = h_j + |i-j| ln(theta) over the full spin set.

    `unreduced` carries the m+1 unreduced components (last one zero for a
    reduced law).  Row i of E is the log-weight vector for a child beneath a
    parent with spin i; it drives the recursion, the transfer messages and
    the sampling kernels alike.
    """
    if theta <= 0:
        raise ValueError("theta must be positive")
    return unreduced[..., None, :] + np.log(theta) * gap_table(unreduced.shape[-1])


def unreduce(h: np.ndarray) -> np.ndarray:
    """Append the gauged zero component."""
    h = np.asarray(h, dtype=float)
    return np.concatenate([h, np.zeros(h.shape[:-1] + (1,))], axis=-1)


# a float copy, not a gap_table lookup per call: the m = 2 kernel is hot
_GAPS_M2 = gap_table(3).astype(float)
# Rows per block of the m = 2 kernel.  From about 3000 rows its buffers come
# back from the allocator with fresh page faults (about 130 per call), so on
# a 2-core Xeon VM a 20,000-row law_map took about twice as long in blocks of
# 4096 as in blocks of 2048.
_BLOCK_M2 = 2048


def _law_map_m2(rows: np.ndarray, theta: float, out: np.ndarray) -> None:
    """The m = 2 update of (n, 2) rows into out, bit-identical to the generic path.

    The exponents of pair_exponents, as (3, n) planes (row i = parent spin i),
    are sorted into lo, mid, hi by a min/max network (lo and mid need no order:
    IEEE addition commutes) and summed in sorted order, with one exp over the
    stacked differences from hi, `hi - hi` included.
    """
    lt_gaps = np.log(theta) * _GAPS_M2
    # order="C": by default the planes would follow rows' strides, interleaved
    a, b = np.add(rows.T[:, None], lt_gaps.T[:2, :, None], order="C")
    c = lt_gaps[:, 2:]
    srt = np.empty((3,) + a.shape)
    np.minimum(a, b, out=srt[0])
    q = np.maximum(a, b, out=srt[2])
    np.minimum(q, c, out=srt[1])
    hi = np.maximum(q, c, out=srt[2])
    e = srt - hi
    s = np.add.reduce(np.exp(e, out=e))
    s = np.add(hi, np.log(s, out=s), out=s)
    np.subtract(s[:2], s[2], out=out.T)


def law_map(h: np.ndarray, m: int, theta: float) -> np.ndarray:
    """One-child update of the boundary-law recursion (vectorised over h).

    Accepts shape (..., m) and returns the same shape: component i is the log
    of the i-th message ratio against the last spin level.  The m = 2 update,
    which every solver runs, takes the closed-form kernel.
    """
    h = np.asarray(h, dtype=float)
    if h.shape[-1] != m:
        raise ValueError(f"law must have {m} reduced components")
    if theta <= 0:
        raise ValueError("theta must be positive")
    if m == 2:
        out = np.empty(h.shape)
        rows, out_rows = h.reshape(-1, 2), out.reshape(-1, 2)
        for i in range(0, len(rows), _BLOCK_M2):
            _law_map_m2(rows[i:i + _BLOCK_M2], theta, out_rows[i:i + _BLOCK_M2])
        return out
    s = sorted_lse(pair_exponents(unreduce(h), theta))
    return s[..., :m] - s[..., m:]


def law_map_jac(h: np.ndarray, theta: float) -> np.ndarray:
    """Analytic Jacobian of the m=2 update, shape (..., 2, 2).

    Every entry is homogeneous of degree 0 in the unreduced weights
    (e^h0, e^h1, u = 1).  Where some h_j passes 300, all three weights of
    its row are divided by e^(max_j h_j - 300), so that products of two stay
    below e^600 and cannot overflow; elsewhere u is exactly 1.
    """
    h = np.asarray(h, dtype=float)
    u = 1.0
    if h.size and h.max() > 300.0:
        s = np.maximum(h.max(axis=-1, keepdims=True), 300.0) - 300.0
        h, u = h - s, np.exp(-s[..., 0])
    e0, e1 = np.exp(h[..., 0]), np.exp(h[..., 1])
    t = theta
    n0 = e0 + t * e1 + t * t * u
    n1 = t * e0 + e1 + t * u
    d = t * t * e0 + t * e1 + u
    jac = np.empty(h.shape[:-1] + (2, 2))
    jac[..., 0, 0] = e0 * (1 - t * t) * (t * e1 + t * t * u + u) / (n0 * d)
    jac[..., 0, 1] = t * e1 * (t * t - 1) * (e0 - u) / (n0 * d)
    jac[..., 1, 0] = t * e0 * ((1 - t * t) * u) / (n1 * d)
    jac[..., 1, 1] = e1 * ((1 - t * t) * u) / (n1 * d)
    return jac


@dataclass
class BoundaryLawField:
    """Reduced laws on every vertex of the depth ball, as one array.

    `laws` has one row per ball vertex in breadth-first order (see
    tree.ball_geometry), root first.  The consistency equation defines laws
    away from the origin only; the root law (row 0) is fixed by the
    convention root = sum of law_map over all k+1 origin successors, which is
    the unique choice making the depth-0 marginal agree with the depth-1
    measure.  Builders fill it in; it is stored (not recomputed) so that
    deliberate perturbations are visible to the oracles.
    """

    k: int
    depth: int
    laws: np.ndarray

    def __post_init__(self):
        rows = ball_size(self.k, self.depth)
        if self.laws.ndim != 2 or self.laws.shape[0] != rows:
            raise ValueError(f"a depth-{self.depth} field of order {self.k} needs "
                             f"{rows} law rows, got shape {self.laws.shape}")

    @property
    def root(self) -> np.ndarray:
        return self.laws[0]

    def to_json_dict(self) -> dict:
        labels = ball_geometry(self.k, self.depth).labels
        return {"depth": self.depth,
                "entries": [{"vertex": v, "h": h} for v, h in zip(labels, self.laws.tolist())]}


def constant_field(h: np.ndarray, params: ModelParams, depth: int) -> BoundaryLawField:
    """Field equal to h at every non-root vertex (root set by the convention)."""
    h = np.asarray(h, dtype=float)
    laws = np.tile(h, (ball_size(params.k, depth), 1))
    # the root's k+1 successor updates, summed as successor_law_sums sums them
    laws[0] = law_map(np.tile(h, (1, params.k + 1, 1)), params.m, params.theta).sum(axis=1)[0]
    return BoundaryLawField(k=params.k, depth=depth, laws=laws)


def perturb_field(fld: BoundaryLawField, eps: float) -> BoundaryLawField:
    """Shift the last component of every stored law (negative-control helper)."""
    laws = fld.laws.copy()
    laws[:, -1] += eps
    return BoundaryLawField(k=fld.k, depth=fld.depth, laws=laws)


def successor_law_sums(laws: np.ndarray, geo: BallGeometry, d: int,
                       params: ModelParams) -> np.ndarray:
    """Right-hand side of the consistency equation at every level-d vertex.

    Row i is the sum of law_map over the direct successors of the i-th vertex
    of level d, which form one block of level d+1.  Builders and the residual
    check share it, so a field filled from its successors checks to exactly 0.
    """
    children = geo.successor_blocks(laws[geo.level(d + 1)], d)
    return law_map(children, params.m, params.theta).sum(axis=1)


def compatibility_residual(fld: BoundaryLawField, params: ModelParams) -> float:
    """Max-norm defect of the consistency equation at the checkable vertices.

    A field on the depth-n ball determines the equation at every vertex of
    the depth-(n-1) ball, the root included (its law is the sum over its k+1
    successors); the returned value is the worst max-norm gap between a
    stored law and the successor-sum of updates.
    """
    if fld.k != params.k:
        raise ValueError(f"field of order {fld.k} checked against k = {params.k}")
    geo = ball_geometry(fld.k, fld.depth)
    worst = 0.0
    for d in range(fld.depth):
        gap = fld.laws[geo.level(d)] - successor_law_sums(fld.laws, geo, d, params)
        worst = max(worst, float(np.max(np.abs(gap))))
    return worst
