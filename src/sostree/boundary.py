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

Everything here is evaluated in log space.  Each log-sum-exp adds its terms
in ascending order (three terms are sorted by a min/max network, _lse3), so
identical term multisets give bit-identical sums; this keeps component 0 of
the m=2 update exactly zero on the symmetric slice h_0 = 0, and it is what
lets downstream constructions preserve that slice exactly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .model import ModelParams
from .tree import BallGeometry, ball_geometry, ball_size, sphere_size


def sorted_lse(terms: np.ndarray) -> np.ndarray:
    """Log-sum-exp over the last axis, of the terms in ascending order (three by _lse3)."""
    if terms.shape[-1] == 3:
        return _lse3(*terms.reshape(-1, 3).T).reshape(terms.shape[:-1])
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


@functools.lru_cache(maxsize=64)
def _log_gaps_m2(theta: float) -> np.ndarray:
    """ln(theta) |i - j| over the 3 spins of m = 2, as a read-only table per theta."""
    lt_gaps = np.log(theta) * _GAPS_M2
    lt_gaps.flags.writeable = False
    return lt_gaps


def _lse3(a: np.ndarray, b, c) -> np.ndarray:
    """sorted_lse of the terms a, b, c (at least 1-D; b, c broadcast to a's shape).

    A min/max network sorts them into lo, mid, hi (lo and mid need no order:
    IEEE addition commutes), summed in that order as the sort's last axis is,
    with one exp over the stacked differences from hi, `hi - hi` included, so
    rows holding +-inf or nan keep the sort's bits too.
    """
    srt = np.empty((3,) + a.shape)
    np.minimum(a, b, out=srt[0])
    q = np.maximum(a, b, out=srt[2])
    np.minimum(q, c, out=srt[1])
    hi = np.maximum(q, c, out=srt[2])
    e = srt - hi
    s = np.add.reduce(np.exp(e, out=e))
    return np.add(hi, np.log(s, out=s), out=s)


def law_map(h: np.ndarray, m: int, theta: float) -> np.ndarray:
    """One-child update of the boundary-law recursion (vectorised over h).

    Accepts shape (..., m) and returns the same shape: component i is the log
    of the i-th message ratio against the last spin level.  The m = 2 update,
    which every solver runs, is _lse3 of blocks of rows, with the sort's bits.
    """
    h = np.asarray(h, dtype=float)
    if h.shape[-1] != m:
        raise ValueError(f"law must have {m} reduced components")
    if theta <= 0:
        raise ValueError("theta must be positive")
    if m == 2:
        out = np.empty(h.shape)
        rows, out_rows = h.reshape(-1, 2), out.reshape(-1, 2)
        lt_gaps = _log_gaps_m2(theta)
        for i in range(0, len(rows), _BLOCK_M2):
            # the exponents of pair_exponents as (3, n) planes, one row per parent spin;
            # order="C": by default they would follow rows' strides, interleaved
            a, b = np.add(rows[i:i + _BLOCK_M2].T[:, None], lt_gaps.T[:2, :, None], order="C")
            s = _lse3(a, b, lt_gaps[:, 2:])
            np.subtract(s[:2], s[2], out=out_rows[i:i + _BLOCK_M2].T)
        return out
    s = sorted_lse(pair_exponents(unreduce(h), theta))
    return s[..., :m] - s[..., m:]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Normalised exp over the last axis, shifted by its maximum.  Three terms are
    reduced column by column, with the axis reductions' bits (a sum left to right)."""
    # below about 20 rows the axis reductions cost less (2-core Xeon VM)
    if logits.size < 64 or logits.shape[-1] != 3:
        w = np.exp(logits - logits.max(axis=-1, keepdims=True))
        return w / w.sum(axis=-1, keepdims=True)
    x = logits.reshape(-1, 3)
    hi = np.maximum(x[:, 0], x[:, 1])
    w = x - np.maximum(hi, x[:, 2], out=hi)[:, None]
    np.exp(w, out=w)
    s = np.add(w[:, 0], w[:, 1])
    np.add(s, w[:, 2], out=s)
    return np.divide(w, s[:, None], out=w).reshape(logits.shape)


def law_map_jac(h: np.ndarray, theta: float) -> np.ndarray:
    """Jacobian of the m=2 update, shape (..., 2, 2), from the child kernel.

    law_map(h)_i is ln S_i - ln S_2 with S_i = sum_j theta^|i-j| e^{h_j}, and
    d ln S_i / d h_j is K(j|i), the child kernel softmax(pair_exponents)
    that measure samples from, so entry (i, j) is K(j|i) - K(j|2).
    """
    k = softmax(pair_exponents(unreduce(h), theta))
    return k[..., :2, :2] - k[..., 2:, :2]


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

    def to_json_dict(self) -> dict:
        labels = ball_geometry(self.k, self.depth).labels
        return {"depth": self.depth,
                "entries": [{"vertex": v, "h": h} for v, h in zip(labels, self.laws.tolist())]}


def constant_field(h: np.ndarray, params: ModelParams, depth: int) -> BoundaryLawField:
    """Field of one law (C = 1) or a (C, m) array of coset laws: level d gets
    h[d % C] (C = 2: even words, then odd words), and the root is set by the
    convention from level 1's law h[1 % C]."""
    h = np.atleast_2d(np.asarray(h, dtype=float))
    sizes = [sphere_size(params.k, d) for d in range(depth + 1)]
    laws = np.repeat(h[np.arange(depth + 1) % len(h)], sizes, axis=0)
    # the root's k+1 successor updates, summed as successor_law_sums sums them
    child = np.tile(h[1 % len(h)], (1, params.k + 1, 1))
    laws[0] = law_map(child, params.m, params.theta).sum(axis=1)[0]
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
    stored law and the successor-sum of updates, nan where any gap is nan.
    """
    if fld.k != params.k:
        raise ValueError(f"field of order {fld.k} checked against k = {params.k}")
    geo = ball_geometry(fld.k, fld.depth)
    gaps = [np.max(np.abs(fld.laws[geo.level(d)] - successor_law_sums(fld.laws, geo, d, params)))
            for d in range(fld.depth)]
    return float(np.max(gaps, initial=0.0))
