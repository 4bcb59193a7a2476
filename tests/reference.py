"""Reference code that only the tests run.

The package solves and verifies; these are the independent walks and the
paper's lemmas that the tests hold it against:

- the word walk of the tree (reduction, parents, spheres), against which the
  breadth-first layout and the coset counts are checked;
- the edge Hamiltonian, summed edge by edge, against `measure`'s weight table;
- the broadcast-add forms of `measure`'s edge tensor and weight table, whose
  bits the grown tensors must keep, and the marginal over any rows of a table;
- the tiled constant field and the level-overwritten two-cycle field, whose
  bits `boundary.constant_field` must keep;
- a sign scan of the reduced scalar family, against its closed-form
  classification;
- the block construction of the coset-constant Newton system, whose bits
  `ti.coset_system`'s one-coset shortcut must keep, and the pure-state
  Newton search that `ti.solve_full` skips at theta >= 1;
- the slice period doubling theta_D of order k, solved from its equations
  in mpmath, and the Neel onset theta_N, bisected from its closed form;
- the damped fixed-point iteration for any m;
- the sort-based log-sum-exp and the axis-reduced softmax, whose bits the
  m = 2 kernel, `boundary.sorted_lse` and `boundary.softmax` must keep;
- the injectivity and derivative / Lipschitz lemmas of the m = 2 update;
- pairwise distances of path-pair fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import mpmath
import numpy as np

from sostree import nonti, ti
from sostree.boundary import BoundaryLawField, gap_table, law_map, law_map_jac, unreduce
from sostree.model import ModelParams
from sostree.roots import POLISH_STEPS, batched_newton, dedupe, find_roots
from sostree.tree import (IDENTITY, BallGeometry, Word, ball_geometry, ball_size,
                          direct_successors)

# -- the word walk -------------------------------------------------------


def reduce_letters(letters: Sequence[int], k: int) -> Word:
    """Cancel adjacent equal letters (a_i^2 = e) until the word is reduced."""
    for a in letters:
        if not 1 <= a <= k + 1:
            raise ValueError(f"generator index {a} outside 1..{k + 1}")
    stack: list[int] = []
    for a in letters:
        if stack and stack[-1] == a:
            stack.pop()
        else:
            stack.append(a)
    return Word(tuple(stack))


def parent(w: Word) -> Word | None:
    """The neighbour of w on the path toward the origin (None at the origin)."""
    if not w.letters:
        return None
    return Word(w.letters[:-1])


def sphere(k: int, n: int) -> list[Word]:
    """All reduced words of length n, in breadth-first generator order."""
    if n < 0:
        raise ValueError("depth must be >= 0")
    level = [IDENTITY]
    for _ in range(n):
        level = [s for w in level for s in direct_successors(w, k)]
    return level


# -- the edge Hamiltonian ------------------------------------------------


def hamiltonian(spins, params: ModelParams, depth: int) -> np.ndarray:
    """Energy over all edges with both endpoints inside the ball.

    `spins` is a breadth-first spin array of shape (..., ball_size(k, depth));
    the result has shape spins.shape[:-1].
    """
    spins = np.asarray(spins)
    width = ball_size(params.k, depth)
    if spins.shape[-1:] != (width,):
        raise ValueError(f"configuration needs {width} spins, one per ball vertex")
    if spins.size and not (spins.min() >= 0 and spins.max() <= params.m):
        raise ValueError(f"spins must lie in 0..{params.m}")
    # gaps are added one edge at a time, so no (rows x edges) array is formed
    parent_index = ball_geometry(params.k, depth).parent_index
    total = np.zeros(spins.shape[:-1])
    for j in range(1, width):
        total += np.abs(spins[..., j].astype(np.int16) - spins[..., parent_index[j]])
    return -params.J * total


def edge_tensor(table: np.ndarray, geo: BallGeometry, edges: range) -> np.ndarray:
    """measure._edge_tensor as one broadcast add over the whole tensor per edge.

    Edge terms are added in vertex order, starting from zero, into a tensor
    with one axis of length q per vertex; the flat result is its C order.
    """
    q, n_vertices = len(table), geo.n_vertices
    total = np.zeros((q,) * n_vertices, dtype=table.dtype)
    for j in edges:
        shape = [1] * n_vertices
        shape[geo.parent_index[j]] = shape[j] = q
        total += table.reshape(shape)
    return total.reshape(-1)


def log_weight_table(fld: BoundaryLawField, params: ModelParams, n: int) -> np.ndarray:
    """measure.log_weight_table with each sphere law broadcast over the whole tensor."""
    geo = ball_geometry(params.k, n)
    q = params.m + 1
    logw = params.J * params.beta * edge_tensor(gap_table(q), geo, range(1, geo.n_vertices))
    logw = logw.reshape((q,) * geo.n_vertices)
    for j, h in enumerate(unreduce(fld.laws[geo.level(n)]), start=geo.offsets[n]):
        logw += h.reshape((-1,) + (1,) * (geo.n_vertices - 1 - j))
    return logw.reshape(-1)


def marginal(probs: np.ndarray, q: int, rows: Sequence[int]) -> np.ndarray:
    """Exact marginal of a normalised table over the given breadth-first rows,
    axes in the given order: the other axes of the (q,)^N tensor summed away."""
    n_vertices = round(math.log(probs.size, q))
    shaped = probs.reshape((q,) * n_vertices)
    keep = sorted(rows)
    reduced = shaped.sum(axis=tuple(ax for ax in range(n_vertices) if ax not in keep))
    return np.transpose(reduced, axes=[keep.index(r) for r in rows])


# -- coset-constant fields -----------------------------------------------


def tiled_constant_field(h: np.ndarray, params: ModelParams, depth: int) -> BoundaryLawField:
    """boundary.constant_field of one law: the law tiled over the ball, root by the convention."""
    h = np.asarray(h, dtype=float)
    laws = np.tile(h, (ball_size(params.k, depth), 1))
    laws[0] = law_map(np.tile(h, (1, params.k + 1, 1)), params.m, params.theta).sum(axis=1)[0]
    return BoundaryLawField(k=params.k, depth=depth, laws=laws)


def overwritten_two_cycle_field(z: float, t: float, params: ModelParams,
                                depth: int) -> BoundaryLawField:
    """periodic.expand_two_cycle_field as the odd law (0, ln t) tiled, then
    each even level overwritten with (0, ln z)."""
    fld = tiled_constant_field(np.array([0.0, math.log(t)]), params, depth)
    geo = ball_geometry(params.k, depth)
    for d in range(2, depth + 1, 2):
        fld.laws[geo.level(d)] = (0.0, math.log(z))
    return fld


# -- translation-invariant references ------------------------------------


def scan_scalar_roots(a: float, b: float, k: int) -> list[float]:
    """Sign-scan oracle for the reduced family, independent of the classification."""

    def g(x):
        r = np.exp(k * (np.log1p(x) - np.log(b + x)))
        return r - a * x, r * k * (b - 1.0) / ((1.0 + x) * (b + x)) - a

    ratio_lo, ratio_hi = sorted((b ** (-k), 1.0))
    lo = 0.25 * ratio_lo / a
    hi = 4.0 * ratio_hi / a
    return find_roots(g, lo, hi, ti.SCAN_GRID)


def coset_system(equations: list[tuple[int, tuple[int, ...]]], theta: float):
    """ti.coset_system built block by block for every family, one coset included:
    residuals side by side, each summed as counts[0] F(h_0) + counts[1] F(h_1)
    + ..., and a Jacobian block of I on h_c less counts[j] F'(h_j) on each h_j,
    from zeros."""
    eye = np.eye(2)

    def cosets(x):
        return x.reshape(len(x), -1, 2).swapaxes(0, 1)

    def residual(x):
        h = cosets(x)
        f = law_map(h, 2, theta)
        return np.concatenate([h[c] - sum((cj * fj for cj, fj in zip(counts[1:], f[1:])),
                                          counts[0] * f[0])
                               for c, counts in equations], axis=-1)

    def jacobian(x):
        df = law_map_jac(cosets(x), theta)
        jac = np.zeros((len(x), 2 * len(equations), x.shape[1]))
        for i, (c, counts) in enumerate(equations):
            block = jac[:, 2 * i:2 * i + 2]
            block[:, :, 2 * c:2 * c + 2] = eye
            for j, cj in enumerate(counts):
                if cj:
                    block[:, :, 2 * j:2 * j + 2] -= cj * df[j]
        return jac

    return residual, jacobian


def pure_state_polish(params: ModelParams) -> tuple[list[tuple[float, float]], float]:
    """The Newton search that ti.solve_full ran at theta >= 1 before it returned
    the slice alone: its kept off-slice solutions (z0, z1) and its h_max.

    The seeds are the pure states +-(2k ln theta, k ln theta) (the u-scan
    seeds none there), polished by POLISH_STEPS batched Newton steps;
    limits with a defect over RESID_TOL, limits on the slice and limits
    past h_max are dropped, and the rest deduped.
    """
    k, theta, lt = params.k, params.theta, math.log(params.theta)
    bound = min(2.0 * k * abs(lt) + 1.0, ti.LOG_WEIGHT_MAX)
    h_max = math.log(max(1e6, math.exp(bound))) + 1e-9
    seeds = np.array([(2.0 * k * lt, k * lt), (-2.0 * k * lt, -k * lt)])
    x, defect = batched_newton(*coset_system([(0, (k,))], theta), seeds, POLISH_STEPS,
                               2.0 * k * abs(lt) + 20.0)
    x = x[defect <= ti.RESID_TOL]
    x = x[np.abs(x[:, 0]) > ti.DEDUPE_TOL * np.maximum(1.0, np.max(np.abs(x), axis=-1))]
    kept = [(math.exp(a), math.exp(b)) for a, b in dedupe(x, ti.DEDUPE_TOL)
            if max(abs(a), abs(b)) <= h_max]
    return kept, h_max


def slice_doubling(k: int, dps: int = 40) -> tuple[mpmath.mpf, mpmath.mpf]:
    """theta_D and z* where psi'(z*) = -1 on the slice of order k, in dps digits.

    With r = M(z*), z* = r^k, the fixed point reads
    r(1 + theta^2 + theta r^k) = 2 theta + r^k and psi'(z*) = -1 reads
    k(theta^2 - 1) r^(k+1) = (2 theta + r^k)^2.  Newton on that pair starts
    from theta = 1 + 11/k and the fixed point there, whose r is bracketed by
    0 and 1.  Slice cycles exist only from k = 164 on; this is for such k.
    """
    with mpmath.workdps(dps):
        def fixed(theta, r):
            return r * (1 + theta**2 + theta * r**k) - 2 * theta - r**k

        theta0 = 1 + mpmath.mpf(11) / k
        r0 = mpmath.findroot(lambda r: fixed(theta0, r), (0, 1), solver="anderson")
        theta, r = mpmath.findroot(
            lambda t, r: [fixed(t, r), k * (t**2 - 1) * r**(k + 1) - (2 * t + r**k)**2],
            (theta0, r0))
        return +theta, r**k


def neel_onset(k: int) -> float:
    """theta_N of order k >= 2, where the flip-odd eigenvalue of k F' at the
    slice point, k(1 - theta^2)/(1 + theta^2 + theta z*), is -1 and flip
    pairs are born.

    With that eigenvalue -1, z* = psi(z*) becomes one equation in theta:
    k^k theta^(k-1)((k-1) theta^2 - (k+1)) = (k+1)^k, whose left side rises
    from 0 to inf on theta > sqrt((k+1)/(k-1)).  Its log form
    (k-1) ln theta + ln((k-1) theta^2 - (k+1)) - k ln(1 + 1/k) is bisected
    there until the bracket stops shrinking.
    """
    def g(theta: float) -> float:
        q = (k - 1) * theta * theta - (k + 1)
        if q <= 0.0:
            return -math.inf
        return (k - 1) * math.log(theta) + math.log(q) - k * math.log1p(1.0 / k)

    lo = math.sqrt((k + 1) / (k - 1))
    hi = 2.0 * lo
    while g(hi) <= 0.0:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if g(mid) > 0.0:
            hi = mid
        else:
            lo = mid


DAMPING = 0.5             # weight of the new iterate in iterate_general_m
GENERAL_M_TOL = 1e-12     # step size at which iterate_general_m stops
GENERAL_M_STEPS = 2000    # ... or after this many damped steps


@dataclass
class GeneralMReport:
    """Outcome of the damped fixed-point iteration for general m."""

    converged: bool
    iterations: int
    h: np.ndarray
    residual: float
    symmetric: bool


def iterate_general_m(params: ModelParams) -> GeneralMReport:
    """Damped iteration h <- (1-d) h + d * k * law_map(h) for any m >= 2, from h = 0.

    It stops once a step moves h by at most GENERAL_M_TOL, or after
    GENERAL_M_STEPS steps.  Divergence is reported, never raised.  The
    symmetry flag records whether the limit has equal unreduced weights for
    spins j and m-j (within 1e-8).
    """
    m, k, theta = params.m, params.k, params.theta
    h = np.zeros(m)
    delta = math.inf
    iterations = 0
    for iterations in range(1, GENERAL_M_STEPS + 1):
        nxt = (1.0 - DAMPING) * h + DAMPING * k * law_map(h, m, theta)
        delta = float(np.max(np.abs(nxt - h)))
        h = nxt
        if not np.all(np.isfinite(h)):
            return GeneralMReport(False, iterations, h, math.inf, False)
        if delta <= GENERAL_M_TOL:
            break
    residual = float(np.max(np.abs(h - k * law_map(h, m, theta))))
    u = np.concatenate([h, [0.0]])
    symmetric = bool(np.max(np.abs(u - u[::-1])) <= 1e-8)
    return GeneralMReport(delta <= GENERAL_M_TOL, iterations, h, residual, symmetric)


# -- the sort-based reductions over the spins ----------------------------


def sorted_lse(terms: np.ndarray) -> np.ndarray:
    """Log-sum-exp over the last axis, of the terms sorted ascending by np.sort."""
    t = np.sort(terms, axis=-1)
    hi = np.max(t, axis=-1, keepdims=True)
    return np.squeeze(hi, axis=-1) + np.log(np.sum(np.exp(t - hi), axis=-1))


def softmax(logits: np.ndarray) -> np.ndarray:
    """Normalised exp over the last axis, by axis reductions."""
    w = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return w / w.sum(axis=-1, keepdims=True)


# -- lemmas on the m = 2 update ------------------------------------------

INJECTIVITY_TOL_IN = 1e-10   # update images this close count as equal
INJECTIVITY_TOL_OUT = 1e-6   # arguments must then be this close
BOUNDS_STEP = 1e-5           # central-difference step of derivative_bounds
BOUNDS_TOL = 1e-6            # slack over each ceiling before derivative_bounds counts a violation


def injectivity_check(h, l, theta: float) -> bool:
    """Numerical form of injectivity of the m=2 update away from theta = 1.

    Returns whether "update images within INJECTIVITY_TOL_IN implies
    arguments within INJECTIVITY_TOL_OUT" holds for this pair; h = l is
    always accepted.
    """
    if theta == 1.0:
        raise ValueError("theta = 1 is excluded: the update is constant there")
    h = np.asarray(h, dtype=float)
    l = np.asarray(l, dtype=float)
    df = float(np.max(np.abs(law_map(h, 2, theta) - law_map(l, 2, theta))))
    if df > INJECTIVITY_TOL_IN:
        return True
    return float(np.max(np.abs(h - l))) <= INJECTIVITY_TOL_OUT


def slice_contraction_constant(theta: float) -> float:
    """Sharp Lipschitz constant of the m=2 update along the slice h = (0, h1)."""
    t2 = theta * theta
    return abs(t2 - 1.0) / (1.0 + 3.0 * t2 + 2.0 * theta * np.sqrt(2.0 * (t2 + 1.0)))


@dataclass
class BoundsReport:
    """Outcome of the sampled derivative / Lipschitz checks (m = 2)."""

    bound_partial: float          # ceiling for each |dF_i/dh_j|
    bound_pair: float             # ceiling for max-norm ratios of arbitrary pairs
    bound_slice: float            # ceiling for ratios of slice pairs (0, h1)
    bound_first: float            # ceiling for |F_0(h)| / |h_0|
    violations: dict = field(default_factory=dict)
    worst: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(v == 0 for v in self.violations.values())


def _ratio_check(num: np.ndarray, den: np.ndarray, ceiling: float) -> tuple[float, int]:
    """Largest num/den over den > 1e-12 (0 if none), and how many ratios pass the ceiling."""
    keep = den > 1e-12
    ratios = num[keep] / den[keep]
    return (float(np.max(ratios)) if ratios.size else 0.0), int(np.sum(ratios > ceiling))


def derivative_bounds(theta: float, sample_count: int, seed: int) -> BoundsReport:
    """Sampled verification of the m=2 derivative and Lipschitz ceilings.

    Draws `sample_count` points (and pairs) from [-10, 10]^2, estimates the
    four partials by central differences with step BOUNDS_STEP, and counts
    violations of each ceiling beyond BOUNDS_TOL.
    """
    rng = np.random.default_rng(seed)
    t2 = theta * theta
    c_partial = abs(t2 - 1.0) / t2
    c_pair = 2.0 * c_partial
    c_slice = slice_contraction_constant(theta)
    c_first = abs(t2 - 1.0) / (t2 + 1.0)

    h = rng.uniform(-10.0, 10.0, size=(sample_count, 2))
    l = rng.uniform(-10.0, 10.0, size=(sample_count, 2))

    worst: dict[str, float] = {}
    violations: dict[str, int] = {}

    # (a) partial derivatives by central differences
    max_partial = 0.0
    for j in (0, 1):
        dh = np.zeros((1, 2))
        dh[0, j] = BOUNDS_STEP
        diff = (law_map(h + dh, 2, theta) - law_map(h - dh, 2, theta)) / (2 * BOUNDS_STEP)
        max_partial = max(max_partial, float(np.max(np.abs(diff))))
    worst["partial"] = max_partial
    violations["partial"] = int(max_partial > c_partial + BOUNDS_TOL)

    # (b) pair ratios in the max norm
    num = np.max(np.abs(law_map(h, 2, theta) - law_map(l, 2, theta)), axis=-1)
    worst["pair"], violations["pair"] = _ratio_check(num, np.max(np.abs(h - l), axis=-1),
                                                     c_pair + BOUNDS_TOL)

    # (c) slice pairs (0, h1) vs (0, l1)
    hs = np.column_stack([np.zeros(sample_count), rng.uniform(-10, 10, sample_count)])
    ls = np.column_stack([np.zeros(sample_count), rng.uniform(-10, 10, sample_count)])
    num = np.max(np.abs(law_map(hs, 2, theta) - law_map(ls, 2, theta)), axis=-1)
    worst["slice"], violations["slice"] = _ratio_check(num, np.max(np.abs(hs - ls), axis=-1),
                                                       c_slice + BOUNDS_TOL)

    # (d) first component against |h_0|
    worst["first"], violations["first"] = _ratio_check(
        np.abs(law_map(h, 2, theta)[..., 0]), np.abs(h[..., 0]), c_first + BOUNDS_TOL)

    return BoundsReport(bound_partial=c_partial, bound_pair=c_pair,
                        bound_slice=c_slice, bound_first=c_first,
                        violations=violations, worst=worst)


# -- path-pair fields ----------------------------------------------------


def field_distance(a: nonti.NonTiField, b: nonti.NonTiField) -> float:
    """Max-norm distance over the common ball (root included).

    A shallower ball is a row prefix of a deeper one.
    """
    rows = min(len(a.field.laws), len(b.field.laws))
    return float(np.max(np.abs(a.field.laws[:rows] - b.field.laws[:rows])))


def distinctness_check(pairs: list[tuple[float, float]], params: ModelParams,
                       depth: int) -> np.ndarray:
    """Pairwise max-norm distances of the fields built for each (t, s) pair."""
    # through the module, so that a test counting the scans sees this one
    roots = ti.solve_symmetric_roots(params)
    fields = [nonti.build_field(t, s, params, depth, roots) for t, s in pairs]
    n = len(fields)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            out[i, j] = out[j, i] = field_distance(fields[i], fields[j])
    return out
