"""Period-2 (chess-board) solutions and periodic solutions by parity subgroups.

A two-coset-periodic law family alternates two constant laws h, l between the
cosets of an index-2 subgroup.  For the subgroup of even-length words the
consistency equations decouple into h = k*F(l), l = k*F(h); on the symmetric
slice these reduce to the scalar system z = psi(t), t = psi(z) whose genuine
two-cycles exist only in the antiferromagnetic regime and only when the
translation-invariant fixed point of psi is unstable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ti
from .boundary import BoundaryLawField, law_map, law_map_jac
from .model import ModelParams
from .roots import batched_newton, find_roots
from .tree import SubgroupSpec, ball_geometry

FIXED = "FIXED"
CYCLE = "CYCLE"


@dataclass
class Period2Solution:
    """A solution (z, t) of the alternating slice system; z = psi(t), t = psi(z)."""

    z: float
    t: float
    type: str
    full_pair: tuple[tuple[float, float], tuple[float, float]] | None = None

    def to_json_dict(self) -> dict:
        out = {"type": self.type, "z": self.z, "t": self.t}
        if self.full_pair is not None:
            out["z_full"] = list(self.full_pair[0])
            out["t_full"] = list(self.full_pair[1])
        return out


def cycle_instability(params: ModelParams,
                      roots: list[float] | None = None) -> tuple[float, bool]:
    """Slope magnitude of the slice recursion at its fixed point, and whether
    it exceeds one (the chess-board existence criterion).

    Only meaningful in the antiferromagnetic regime, where the fixed point is
    unique; the value equals |psi'(z*)|.  `roots` (the symmetric roots) are
    scanned unless given.
    """
    if params.theta <= 1.0:
        raise ValueError("instability criterion applies to theta > 1 only")
    if params.m != 2:
        raise ValueError("criterion is specific to m = 2")
    if roots is None:
        roots = ti.solve_symmetric_roots(params)
    if len(roots) != 1:
        raise RuntimeError("expected a unique fixed point for theta > 1")
    z = roots[0]
    t, k = params.theta, params.k
    value = k * z * (t * t - 1.0) / ((2 * t + z) * (1 + t * t + t * z))
    return value, value > 1.0


def solve_two_cycle_symmetric(params: ModelParams, n_grid: int = 1000,
                              pair_tol: float = 1e-8) -> list[Period2Solution]:
    """All fixed points of psi∘psi on the invariant interval, paired as (z, psi(z)).

    Genuine cycles appear twice, in swapped order.  The search interval is the
    closure of the range of psi, slightly inflated; every solution of the
    alternating system lies inside it.
    """
    if params.m != 2:
        raise ValueError("the slice system is specific to m = 2")
    psi = ti.SliceMap(params.theta, params.k)
    lo, hi = psi.range_interval()
    lo *= 1.0 - 1e-3
    hi *= 1.0 + 1e-3

    def f(z):
        return psi(psi(z)) - z

    def df(z):
        pz = psi(z)
        return psi.deriv(pz) * psi.deriv(z) - 1.0

    sols = []
    for z in find_roots(f, lo, hi, df=df, n_grid=n_grid):
        t = float(psi(z))
        kind = FIXED if abs(z - t) <= pair_tol * max(1.0, z, t) else CYCLE
        sols.append(Period2Solution(z=z, t=t, type=kind,
                                    full_pair=((1.0, z), (1.0, t))))
    return sols


def alternating_limits(params: ModelParams, n_starts: int = 100, seed: int = 0,
                       iters: int = 600, damping: float = 0.5,
                       newton_iters: int = 40):
    """Damped alternating iteration h <- kF(l), l <- kF(h) from random starts.

    Returns (h, l, residual) arrays after a batched Newton polish of the full
    four-dimensional system; residual is the max-norm defect per start.  Each
    step maps h and l in one stacked law_map call.
    """
    k, theta, m = params.k, params.theta, params.m
    if m != 2:
        raise ValueError("the alternating system is specific to m = 2")
    rng = np.random.default_rng(seed)
    c = 2.0 * k * abs(math.log(theta)) + 1.0
    hl = rng.uniform(-c, c, size=(2, n_starts, 2))   # h then l, as two draws would give
    for _ in range(iters):
        hl = (1 - damping) * hl + damping * k * law_map(hl[::-1], 2, theta)

    def system(x):   # x rows are (h, l)
        hl = x.reshape(-1, 2, 2).swapaxes(0, 1)
        jac = np.tile(np.eye(4), (n_starts, 1, 1))
        jac[:, :2, 2:], jac[:, 2:, :2] = -k * law_map_jac(hl[::-1], theta)
        return (hl - k * law_map(hl[::-1], 2, theta)).swapaxes(0, 1).reshape(-1, 4), jac

    x = batched_newton(system, hl.swapaxes(0, 1).reshape(-1, 4), newton_iters, c + 20.0)
    hl = x.reshape(-1, 2, 2).swapaxes(0, 1)
    resid = np.max(np.abs(hl - k * law_map(hl[::-1], 2, theta)), axis=-1)
    return hl[0], hl[1], np.maximum(resid[0], resid[1])


def solve_two_cycle_full(params: ModelParams, n_starts: int = 100, seed: int = 0,
                         resid_tol: float = 1e-10, pair_tol: float = 1e-8,
                         dedupe_tol: float = 1e-8) -> list[Period2Solution]:
    """Solutions of the full four-dimensional alternating system."""
    h, l, resid = alternating_limits(params, n_starts=n_starts, seed=seed)
    kept: list[np.ndarray] = []
    for i in np.nonzero(resid <= resid_tol)[0]:
        v = np.concatenate([h[i], l[i]])
        if all(np.max(np.abs(v - other)) > dedupe_tol for other in kept):
            kept.append(v)
    sols = []
    for v in sorted(map(tuple, kept)):
        z0, z1, t0, t1 = (math.exp(x) for x in v)
        kind = FIXED if max(abs(v[0] - v[2]), abs(v[1] - v[3])) <= pair_tol else CYCLE
        sols.append(Period2Solution(z=z1, t=t1, type=kind,
                                    full_pair=((z0, z1), (t0, t1))))
    return sols


@dataclass
class ParityIterationResult:
    """Limits of the coset-resolved iteration from random periodic starts."""

    h_even: np.ndarray        # (n, 2) limit law on the subgroup coset
    h_odd: np.ndarray         # (n, 2) limit law on the other coset
    residual: np.ndarray      # (n,) worst defect over all coset equations
    converged: np.ndarray     # (n,) bool
    ti: np.ndarray            # (n,) bool: both coset laws equal

    @property
    def all_ti(self) -> bool:
        return bool(np.all(self.converged) and np.all(self.ti[self.converged]))


def parity_residuals(h0: np.ndarray, h1: np.ndarray, spec: SubgroupSpec,
                     params: ModelParams) -> np.ndarray:
    """Defects of every coset equation of a two-coset-periodic family.

    For a proper parity set both parent cosets occur beneath both cosets, so
    there are four successor-sum equations; for the full set the system is the
    alternating pair h0 = k*F(h1), h1 = k*F(h0).
    """
    k, m, theta = params.k, params.m, params.theta
    f0, f1 = law_map(h0, m, theta), law_map(h1, m, theta)
    if spec.is_full:
        eqs = [h0 - k * f1, h1 - k * f0]
    else:
        cross = len(spec.parity_set)
        same = k + 1 - cross
        f = [f0, f1]
        h = [h0, h1]
        eqs = []
        for n in (0, 1):
            total = same * f[n] + cross * f[1 - n]
            for p in (0, 1):
                eqs.append(h[n] - (total - f[p]))
    return np.max(np.abs(np.stack(eqs, axis=0)), axis=(0, -1))


def iterate_parity_system(spec: SubgroupSpec, params: ModelParams,
                          n_starts: int = 50, seed: int = 0,
                          sweeps: int = 4000, damping: float = 0.5,
                          delta_tol: float = 1e-13,
                          resid_tol: float = 1e-10) -> ParityIterationResult:
    """Damped cyclic iteration of the coset equations from random starts.

    A converged limit of the cyclic sweep satisfies every equation in the
    cycle simultaneously, so for a proper parity set it forces equal update
    images on the two cosets and hence (away from theta = 1) a
    translation-invariant limit.
    """
    k, m, theta = params.k, params.m, params.theta
    rng = np.random.default_rng(seed)
    c = 2.0 * k * abs(math.log(theta)) + 1.0
    h = [rng.uniform(-c, c, size=(n_starts, 2)), rng.uniform(-c, c, size=(n_starts, 2))]

    if spec.is_full:
        updates = [(0, None), (1, None)]
        cross, same = None, None
    else:
        cross = len(spec.parity_set)
        same = k + 1 - cross
        updates = [(0, 0), (0, 1), (1, 0), (1, 1)]

    # image of each coset law, renewed only when that law changes
    f = [law_map(x, m, theta) for x in h]
    for _ in range(sweeps):
        delta = 0.0
        for n, p in updates:
            if spec.is_full:
                rhs = k * f[1 - n]
            else:
                rhs = same * f[n] + cross * f[1 - n] - f[p]
            new = (1 - damping) * h[n] + damping * rhs
            delta = max(delta, float(np.max(np.abs(new - h[n]))))
            h[n] = new
            f[n] = law_map(new, m, theta)
        if delta <= delta_tol:
            break

    resid = parity_residuals(h[0], h[1], spec, params)
    converged = resid <= resid_tol
    is_ti = np.max(np.abs(h[0] - h[1]), axis=-1) <= 1e-8
    return ParityIterationResult(h_even=h[0], h_odd=h[1], residual=resid,
                                 converged=converged, ti=is_ti)


def expand_two_cycle_field(z: float, t: float, params: ModelParams,
                           depth: int) -> BoundaryLawField:
    """Two-coset-periodic field: law (0, ln z) on even words, (0, ln t) on odd."""
    law_even = np.array([0.0, math.log(z)])
    law_odd = np.array([0.0, math.log(t)])
    geo = ball_geometry(params.k, depth)
    laws = np.empty((geo.n_vertices, 2))
    laws[0] = (params.k + 1) * law_map(law_odd, params.m, params.theta)
    for d in range(1, depth + 1):
        laws[geo.level(d)] = law_even if d % 2 == 0 else law_odd
    return BoundaryLawField(k=params.k, depth=depth, laws=laws)


def classify_by_subgroup(spec: SubgroupSpec, params: ModelParams) -> dict:
    """Periodic solution families for an index-2 parity subgroup.

    Ferromagnetic / free coupling, or a subgroup containing a generator:
    the periodic measures coincide with the translation-invariant ones.
    Antiferromagnetic coupling with the even-word subgroup: the chess-board
    two-cycles join the list when the instability criterion admits them.
    """
    ti_set = ti.solve(params, full=True)
    afm = params.theta > 1.0
    instability = None
    if afm and params.m == 2:
        value, holds = cycle_instability(params, ti_set.symmetric_roots)
        instability = {"value": value, "holds": holds}

    if not spec.is_full:
        statement = ("subgroup contains a generator: periodic solutions "
                     "coincide with the translation-invariant ones")
        solutions = [Period2Solution(z=z1, t=z1, type=FIXED, full_pair=((z0, z1), (z0, z1)))
                     for z0, z1 in ti_set.full_solutions]
    elif not afm:
        statement = ("nonpositive coupling: the alternating system admits only "
                     "equal pairs, so periodic solutions are translation-invariant")
        solutions = [Period2Solution(z=z1, t=z1, type=FIXED, full_pair=((z0, z1), (z0, z1)))
                     for z0, z1 in ti_set.full_solutions]
    else:
        solutions = solve_two_cycle_symmetric(params)
        n_cyc = sum(1 for s in solutions if s.type == CYCLE)
        statement = (f"even-word subgroup, antiferromagnetic regime: "
                     f"{n_cyc} chess-board solutions alongside the translation-invariant ones")

    return {
        "params": params.to_dict(),
        "subgroup": {"A": sorted(spec.parity_set)},
        "I_nonempty": spec.contains_generator,
        "ti_solutions": [list(s) for s in ti_set.full_solutions],
        "solutions": [s.to_json_dict() for s in solutions],
        "instability": instability,
        "statement": statement,
    }
