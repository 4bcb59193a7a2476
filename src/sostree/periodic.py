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
from .boundary import BoundaryLawField, constant_field, law_map
from .model import ModelParams, UsageError
from .roots import batched_newton, bisect, dedupe, newton_polish
from .tree import SubgroupSpec

FIXED = "FIXED"
CYCLE = "CYCLE"

PAIR_TOL = 1e-8      # coset log laws closer than this (max norm) are one law: FIXED
RESID_TOL = 1e-10    # limits with a larger defect are not solutions
DEDUPE_TOL = 1e-8    # 4D solutions closer than this (log space) are one
DAMPING = 0.5        # weight of the new iterate in the damped iterations
HANDOVER_STEP = 1e-3  # damped loops hand over to Newton once no step is larger
DAMPED_BUDGET = 200  # ... or once this many damped steps (or sweeps) are spent
NEWTON_STEPS = 40    # cap of the Newton polish that finishes each damped loop
STEP_TOL = 1e-13     # the polish stops once no residual is larger


@dataclass
class Period2Solution:
    """A solution (z, t) of the alternating slice system; z = psi(t), t = psi(z)."""

    z: float
    t: float
    type: str
    full_pair: tuple[tuple[float, float], tuple[float, float]]

    def to_json_dict(self) -> dict:
        return {"type": self.type, "z": self.z, "t": self.t,
                "z_full": list(self.full_pair[0]), "t_full": list(self.full_pair[1])}


def _one_law(a: np.ndarray, b: np.ndarray):
    """Whether log laws a and b (last axis) are one law: their max-norm gap is within tolerance."""
    return np.max(np.abs(a - b), axis=-1) <= PAIR_TOL


def _solution(z_pair: tuple, t_pair: tuple) -> Period2Solution:
    """The record of coset weight pairs z_pair, t_pair: FIXED iff their log laws are one law."""
    kind = FIXED if _one_law(np.log(z_pair), np.log(t_pair)) else CYCLE
    return Period2Solution(z=z_pair[1], t=t_pair[1], type=kind, full_pair=(z_pair, t_pair))


def cycle_instability(params: ModelParams,
                      roots: list[float] | None = None) -> tuple[float, bool]:
    """|psi'(z*)| at the slice fixed point z*, and whether it exceeds one: the
    slice 2-cycle criterion, for theta > 1, where z* is unique.  `roots` are
    the symmetric roots, ti.solve_symmetric_roots(params), scanned here when
    not given; theta and m are checked before that scan.
    """
    if params.theta <= 1.0:
        raise UsageError("instability criterion applies to theta > 1 only")
    if params.m != 2:
        raise UsageError("criterion is specific to m = 2")
    if roots is None:
        roots = ti.solve_symmetric_roots(params)
    if len(roots) != 1:
        raise RuntimeError("expected a unique fixed point for theta > 1")
    value = abs(ti.SliceMap(params.theta, params.k).fixed_point_slope(roots[0]))
    return value, value > 1.0


def solve_two_cycle_symmetric(params: ModelParams,
                              roots: list[float] | None = None) -> list[Period2Solution]:
    """Slice solutions of the alternating system, sorted by z: FIXED (z, z)
    per symmetric root (`roots`, ti.solve_symmetric_roots(params), scanned
    when not given) and the CYCLE entries (z_a, psi(z_a)), (psi(z_a), z_a).

    psi = M^k, M Möbius, has Schwarzian (1 - k^2) M'^2/(2 M^2) < 0 (k >= 2,
    theta != 1), so psi∘psi(z) - z has z* and at most one 2-cycle z_a < z* <
    psi(z_a) (Singer, SIAM J. Appl. Math. 35, 1978; de Melo and van Strien,
    One-Dimensional Dynamics, 1993), present exactly when |psi'(z*)| > 1
    (cycle_instability); for theta <= 1 psi increases.  z_a is bisected on
    [lo, z*], lo below psi's range, with signs + at lo and - at z* (known,
    not evaluated), then Newton-polished.
    """
    if params.m != 2:
        raise UsageError("the slice system is specific to m = 2")
    if roots is None:
        roots = ti.solve_symmetric_roots(params)
    out = [_solution((1.0, z), (1.0, z)) for z in roots]
    if params.theta <= 1.0 or not cycle_instability(params, roots)[1]:
        return out
    psi, z_star = ti.SliceMap(params.theta, params.k), roots[0]

    def fdf(z):
        p, dp = psi.with_deriv(z)
        pp, dpp = psi.with_deriv(p)
        return float(pp) - z, float(dpp * dp) - 1.0

    lo = psi.range_interval()[0] * (1.0 - 1e-3)
    z_a = bisect(lambda z: fdf(z)[0] if z < z_star else -1.0, lo, z_star)
    z_a = newton_polish(fdf, z_a, lo, z_star)
    t_a = float(psi(z_a))
    out += [_solution((1.0, z_a), (1.0, t_a)), _solution((1.0, t_a), (1.0, z_a))]
    return sorted(out, key=lambda s: s.z)


def _random_starts(params: ModelParams, n_starts: int, seed: int) -> tuple[np.ndarray, float]:
    """Two (n_starts, 2) blocks of starts, drawn uniformly from [-c, c]^2 as one
    (2, n_starts, 2) draw, and the box size c = 2k|ln theta| + 1.  The laws
    have the two reduced components of m = 2; any other m is refused."""
    if params.m != 2:
        raise UsageError("the alternating system is specific to m = 2")
    c = 2.0 * params.k * abs(math.log(params.theta)) + 1.0
    return np.random.default_rng(seed).uniform(-c, c, size=(2, n_starts, 2)), c


def alternating_limits(params: ModelParams, n_starts: int = 100, seed: int = 0):
    """Damped alternating iteration h <- kF(l), l <- kF(h) from random starts,
    finished by Newton on the four-dimensional system.

    Returns (h, l, residual) arrays; residual is the max-norm defect per
    start.  Each damped step maps h and l in one stacked law_map call (a
    Jacobi update).  The damped loop hands over to `batched_newton` on the
    even-word coset system after the first step in which no start moved by
    more than HANDOVER_STEP, or after DAMPED_BUDGET steps; the polish stops
    after the step taken from the first evaluation where every residual is
    at most STEP_TOL, or after NEWTON_STEPS steps.  At k = 200 the damped
    map settles nowhere, so the loop spends its whole budget.
    """
    k, theta = params.k, params.theta
    hl, c = _random_starts(params, n_starts, seed)   # h then l
    for _ in range(DAMPED_BUDGET):
        new = (1 - DAMPING) * hl + DAMPING * k * law_map(hl[::-1], 2, theta)
        settled = (np.abs(new - hl) <= HANDOVER_STEP).all()
        hl = new
        if settled:
            break

    eqs = coset_equations(SubgroupSpec(k=k, parity_set=frozenset(range(1, k + 2))))
    return _newton_finish(eqs, params, hl.swapaxes(0, 1).reshape(-1, 4), c + 20.0)


def solve_two_cycle_full(params: ModelParams, n_starts: int = 100,
                         seed: int = 0) -> list[Period2Solution]:
    """Solutions of the full four-dimensional alternating system."""
    h, l, resid = alternating_limits(params, n_starts=n_starts, seed=seed)
    good = resid <= RESID_TOL
    return [_solution(tuple(map(math.exp, v[:2])), tuple(map(math.exp, v[2:])))
            for v in dedupe(np.concatenate([h[good], l[good]], axis=-1), DEDUPE_TOL)]


@dataclass
class ParityIterationResult:
    """Limits of the coset-resolved iteration from random periodic starts."""

    h_even: np.ndarray        # (n, 2) limit law on the subgroup coset
    h_odd: np.ndarray         # (n, 2) limit law on the other coset
    residual: np.ndarray      # (n,) worst defect over all coset equations
    converged: np.ndarray     # (n,) bool
    ti: np.ndarray            # (n,) bool: both coset laws equal


def coset_equations(spec: SubgroupSpec) -> list[tuple[int, tuple[int, int]]]:
    """The consistency equations of a two-coset-periodic family, as the
    (n, counts) pairs that ti.coset_system takes.

    Coset 0 is the subgroup.  Of a vertex's k + 1 neighbours, the |A| reached
    by a letter of the parity set lie in the other coset and the rest in its
    own.  A vertex of coset n whose parent lies in coset p has counts[c]
    direct successors in coset c: its neighbours there, less the parent.  A
    pair (n, p) occurs only when coset-n vertices have a neighbour in coset
    p, so for the even-word subgroup only p = 1 - n is listed.
    """
    switch = len(spec.parity_set)
    keep = spec.k + 1 - switch
    eqs = []
    for n, counts in enumerate([(keep, switch), (switch, keep)]):
        for p in (0, 1):
            if counts[p]:
                eqs.append((n, (counts[0] - (p == 0), counts[1] - (p == 1))))
    return eqs


def _newton_finish(eqs: list[tuple[int, tuple[int, int]]], params: ModelParams,
                   x: np.ndarray, cap: float):
    """Newton on the coset equations eqs from rows x = (h0, h1): the
    polished h0, h1 and the worst defect of each row's equations."""
    x, defect = batched_newton(*ti.coset_system(eqs, params.theta), x, NEWTON_STEPS, cap,
                               tol=STEP_TOL)
    return x[:, :2], x[:, 2:], defect


def iterate_parity_system(spec: SubgroupSpec, params: ModelParams,
                          n_starts: int = 50, seed: int = 0) -> ParityIterationResult:
    """Damped cyclic iteration of the coset equations from random starts,
    finished by Newton on the coset system.

    The damped sweep updates the cosets in turn (Gauss-Seidel), each from the
    latest images.  It hands over to `batched_newton` after the first sweep
    in which no start moved by more than HANDOVER_STEP, or after
    DAMPED_BUDGET sweeps, with the stop rules of `alternating_limits`; for a
    proper parity set the system is overdetermined and Newton takes
    Gauss-Newton steps.  A limit satisfies every equation at once, so for a
    proper parity set it forces equal update images on the two cosets and
    hence (away from theta = 1) a translation-invariant limit.
    """
    theta = params.theta
    starts, c = _random_starts(params, n_starts, seed)
    h = list(starts)
    eqs = coset_equations(spec)

    # image of each coset law, renewed only when that law changes
    f = [law_map(x, 2, theta) for x in h]
    for _ in range(DAMPED_BUDGET):
        delta = 0.0
        for n, (c0, c1) in eqs:
            new = (1 - DAMPING) * h[n] + DAMPING * (c0 * f[0] + c1 * f[1])
            delta = max(delta, float(np.abs(new - h[n]).max()))
            h[n] = new
            f[n] = law_map(new, 2, theta)
        if delta <= HANDOVER_STEP:
            break

    h0, h1, resid = _newton_finish(eqs, params, np.concatenate(h, axis=-1), c + 20.0)
    return ParityIterationResult(h_even=h0, h_odd=h1, residual=resid,
                                 converged=resid <= RESID_TOL, ti=_one_law(h0, h1))


def expand_two_cycle_field(z: float, t: float, params: ModelParams,
                           depth: int) -> BoundaryLawField:
    """Two-coset-periodic field: law (0, ln z) on even words, (0, ln t) on odd."""
    return constant_field(np.array([[0.0, math.log(z)], [0.0, math.log(t)]]), params, depth)


def classify_by_subgroup(spec: SubgroupSpec, params: ModelParams) -> dict:
    """Periodic solution families for an index-2 parity subgroup.

    Every translation-invariant solution of ti.solve is a FIXED entry.  The
    even-word subgroup at theta > 1 adds the CYCLE entries of
    solve_two_cycle_symmetric on ti.solve's roots, sorted by z: two if
    instability.holds, else none, by the negative-Schwarzian theorem stated
    there (Singer, 1978); off-slice pairs are not sought.  Otherwise the
    periodic solutions are the translation-invariant ones.
    """
    ti_set = ti.solve(params)
    roots, afm, instability = ti_set["symmetric_roots"], params.theta > 1.0, None
    if afm:
        value, holds = cycle_instability(params, roots)
        instability = {"value": value, "holds": holds}

    solutions = [_solution(tuple(pair), tuple(pair)) for pair in ti_set["full_solutions"]]
    if spec.is_full and afm:
        cycles = [s for s in solve_two_cycle_symmetric(params, roots) if s.type == CYCLE]
        solutions = sorted(solutions + cycles, key=lambda s: s.z)
        statement = (f"even-word subgroup, antiferromagnetic regime: {len(cycles)} "
                     "chess-board solutions alongside the translation-invariant ones")
    elif not spec.is_full:
        statement = ("subgroup contains a generator: periodic solutions "
                     "coincide with the translation-invariant ones")
    else:
        statement = ("nonpositive coupling: the alternating system admits only "
                     "equal pairs, so periodic solutions are translation-invariant")

    return {
        "params": params.to_dict(),
        "subgroup": {"A": sorted(spec.parity_set)},
        "I_nonempty": not spec.is_full,
        "ti_solutions": ti_set["full_solutions"],
        "solutions": [s.to_json_dict() for s in solutions],
        "instability": instability,
        "statement": statement,
    }
