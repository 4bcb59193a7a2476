"""Translation-invariant solutions of the boundary-law recursion (m = 2).

A constant law h = (h0, h1) solves the recursion iff h = k * law_map(h).  In
single-site weights z_i = exp(h_i) this is a pair of fixed-point equations
whose z0 = 1 branch reduces to the scalar problem z = SliceMap(theta, k)(z);
the change of variables x = z/(2 theta), a = 2 theta^(k+1), b = (1+theta^2) /
(2 theta^2) turns that into the one-parameter family a*x = ((1+x)/(b+x))^k
whose root count has a closed-form classification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boundary import law_map, law_map_jac
from .model import ModelParams
from .roots import batched_newton, dedupe, find_roots

UNIQUE = "UNIQUE"
BOUNDARY_TWO = "BOUNDARY_TWO"
THREE = "THREE"

SCAN_GRID = 4096          # points of the log-grid sign scans
TANGENCY_REL_TOL = 1e-12  # a within this of nu1 or nu2 counts as tangent
RESID_TOL = 1e-11         # 2D Newton limits with a larger defect are dropped
DEDUPE_TOL = 1e-8         # 2D solutions closer than this (log space) are one
DAMPING = 0.5             # weight of the new iterate in iterate_general_m
GENERAL_M_TOL = 1e-12     # step size at which iterate_general_m stops
# |ln z| up to which a weight z is a normal float (the limits are -708.4, 709.8)
LOG_WEIGHT_MAX = 708.0


class FloatRangeError(ValueError):
    """The solutions of a parameter set lie outside the float range."""


@dataclass(frozen=True)
class SliceMap:
    """Scalar recursion step for the middle-spin weight on the slice z0 = 1.

    psi(z) = ((2 theta + z) / (1 + theta^2 + theta z))^k.  Strictly increasing
    for theta < 1 and strictly decreasing for theta > 1; its range is the
    interval between psi(0) and the limit at infinity, theta^(-k).
    """

    theta: float
    k: int

    def __call__(self, z):
        z = np.asarray(z, dtype=float)
        t = self.theta
        return np.exp(self.k * (np.log(2 * t + z) - np.log(1 + t * t + t * z)))

    def deriv(self, z):
        z = np.asarray(z, dtype=float)
        t = self.theta
        return self.k * self(z) * (1 - t * t) / ((2 * t + z) * (1 + t * t + t * z))

    @property
    def at_zero(self) -> float:
        t = self.theta
        return (2 * t / (1 + t * t)) ** self.k

    @property
    def at_infinity(self) -> float:
        """theta^(-k), or inf where that leaves the float range (e^709.78)."""
        return self.theta ** (-self.k) if -self.k * math.log(self.theta) < 709.0 else math.inf

    def range_interval(self) -> tuple[float, float]:
        lo, hi = sorted((self.at_zero, self.at_infinity))
        return lo, hi


@dataclass(frozen=True)
class ReducedForm:
    """Parameters of the reduced scalar family a*x = ((1+x)/(b+x))^k."""

    a: float
    b: float

    @staticmethod
    def from_params(params: ModelParams) -> "ReducedForm":
        t = params.theta
        return ReducedForm(a=2.0 * t ** (params.k + 1), b=(1.0 + t * t) / (2.0 * t * t))


@dataclass(frozen=True)
class ScalarFamilyInfo:
    """Tangency data of the reduced family: critical x's and a-thresholds."""

    x1: float
    x2: float
    nu1: float
    nu2: float


def scalar_family_info(b: float, k: int) -> ScalarFamilyInfo | None:
    """Critical values nu_i(b, k); None when only one root is possible."""
    if b <= 0:
        raise ValueError("b must be positive")
    if k == 1 or b <= ((k + 1) / (k - 1)) ** 2:
        return None
    p = 2.0 - (b - 1.0) * (k - 1.0)
    disc = max(p * p - 4.0 * b, 0.0)
    sq = math.sqrt(disc)
    x1 = (-p - sq) / 2.0
    x2 = (-p + sq) / 2.0

    def nu(x: float) -> float:
        return (1.0 / x) * ((1.0 + x) / (b + x)) ** k

    n1, n2 = nu(x1), nu(x2)
    return ScalarFamilyInfo(x1=x1, x2=x2, nu1=min(n1, n2), nu2=max(n1, n2))


def classify_scalar_family(a: float, b: float,
                           k: int) -> tuple[int, str, ScalarFamilyInfo | None]:
    """Root count of the reduced family plus the tangency data."""
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be positive")
    info = scalar_family_info(b, k)
    if info is None:
        return 1, UNIQUE, None
    if (abs(a - info.nu1) <= TANGENCY_REL_TOL * info.nu1
            or abs(a - info.nu2) <= TANGENCY_REL_TOL * info.nu2):
        return 2, BOUNDARY_TWO, info
    if info.nu1 < a < info.nu2:
        return 3, THREE, info
    return 1, UNIQUE, info


def scan_scalar_roots(a: float, b: float, k: int) -> list[float]:
    """Sign-scan oracle for the reduced family, independent of the classification."""

    def g(x):
        x = np.asarray(x, dtype=float)
        return np.exp(k * (np.log1p(x) - np.log(b + x))) - a * x

    def dg(x):
        x = np.asarray(x, dtype=float)
        r = np.exp(k * (np.log1p(x) - np.log(b + x)))
        return r * k * (b - 1.0) / ((1.0 + x) * (b + x)) - a

    ratio_lo, ratio_hi = sorted((b ** (-k), 1.0))
    lo = 0.25 * ratio_lo / a
    hi = 4.0 * ratio_hi / a
    return find_roots(g, lo, hi, df=dg, n_grid=SCAN_GRID)


def critical_beta(J: float, k: int) -> float:
    """Closed-form threshold where the symmetric solution count jumps 1 -> 3."""
    if J >= 0:
        raise ValueError("the threshold exists only for negative coupling")
    if k < 2:
        raise ValueError("the threshold exists only for tree order k >= 2")
    return math.log((k - 1) ** 2 / (k * k + 6 * k + 1)) / (2 * J)


def solve_symmetric_roots(params: ModelParams) -> list[float]:
    """All positive fixed points of the slice recursion, sorted ascending.

    Sign scan on a log grid (with tangent-pair refinement through the
    analytic derivative) plus bisection and a Newton polish; the count is
    cross-checked against the closed-form classification.
    """
    if params.m != 2:
        raise ValueError("the symmetric-slice solver is specific to m = 2")
    psi = SliceMap(params.theta, params.k)

    def f(z):
        return psi(z) - z

    def df(z):
        return psi.deriv(z) - 1.0

    r_lo, r_hi = psi.range_interval()
    if r_lo == 0.0 or r_hi == math.inf:
        raise FloatRangeError(f"the symmetric solutions at k = {params.k}, theta = "
                              f"{params.theta!r} leave the float range")
    lo = min(1e-12, 0.5 * r_lo)
    # the cap 1e300 is e^690.8, so past e^691 the capped power is the cap and
    # the power, which may overflow, is not taken
    far = 1e300 if -2 * params.k * math.log(params.theta) > 691.0 \
        else min(params.theta ** (-2 * params.k), 1e300)
    hi = max(10.0, far, 2.0 * r_hi)
    roots = find_roots(f, lo, hi, df=df, n_grid=SCAN_GRID)

    expected, label, _ = classify_scalar_family(
        *_reduced_ab(params), params.k)
    if label != BOUNDARY_TWO and len(roots) != expected:
        roots = find_roots(f, lo, hi, df=df, n_grid=16 * SCAN_GRID)
        if len(roots) != expected:
            raise RuntimeError(
                f"scan found {len(roots)} symmetric roots, classification expects {expected}")
    return roots


def _reduced_ab(params: ModelParams) -> tuple[float, float]:
    form = ReducedForm.from_params(params)
    return form.a, form.b


@dataclass
class TiSolutionSet:
    """Constant-law solutions in weight coordinates, with classification."""

    params: ModelParams
    symmetric_roots: list[float]
    classification: str
    full_solutions: list[tuple[float, float]]
    beta_cr: float | None

    def to_json_dict(self) -> dict:
        return {
            "params": self.params.to_dict(),
            "classification": self.classification,
            "symmetric_roots": self.symmetric_roots,
            "full_solutions": [list(zz) for zz in self.full_solutions],
            "beta_cr": self.beta_cr,
        }


def solve(params: ModelParams) -> TiSolutionSet:
    """Symmetric-branch roots plus the full 2D solution scan."""
    roots = solve_symmetric_roots(params)
    _, label, _ = classify_scalar_family(*_reduced_ab(params), params.k)
    beta_cr = critical_beta(params.J, params.k) if (params.J < 0 and params.k >= 2) else None
    return TiSolutionSet(params=params, symmetric_roots=roots, classification=label,
                         full_solutions=solve_full(params, symmetric_roots=roots),
                         beta_cr=beta_cr)


def solve_full(params: ModelParams, grid: tuple[int, int] = (200, 200),
               symmetric_roots: list[float] | None = None) -> list[tuple[float, float]]:
    """All constant-law solutions (z0, z1) whose weights are normal floats.

    Dense residual scan on a grid of h = ln z, batched damped Newton from
    every local minimum (and from the symmetric-branch seeds, scanned here
    unless given), then deduplication.  Each component of k * law_map lies in
    k * [-2|ln theta|, 2|ln theta|], so every solution has |h_i| below
    2k|ln theta| + 1; the grid spans that, at least ln(1e6) and at most
    LOG_WEIGHT_MAX, and solutions past LOG_WEIGHT_MAX, which no weight can
    express, are left out.  The z0 = 1 branch is always present; for
    nonnegative coupling the result is a single solution on that branch.
    """
    if params.m != 2:
        raise ValueError("the 2D solver is specific to m = 2")
    k, theta = params.k, params.theta
    bound = min(2.0 * k * abs(math.log(theta)) + 1.0, LOG_WEIGHT_MAX)
    lo, hi = min(1e-6, math.exp(-bound)), max(1e6, math.exp(bound))
    axes = [np.log(np.geomspace(lo, hi, n)) for n in grid]
    hh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    r = np.abs(hh - k * law_map(hh, 2, theta))
    norm = np.maximum(r[..., 0], r[..., 1])

    padded = np.pad(norm, 1, constant_values=np.inf)
    is_min = np.ones_like(norm, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            is_min &= norm <= padded[1 + di:1 + di + norm.shape[0],
                                     1 + dj:1 + dj + norm.shape[1]]
    starts = [hh[idx] for idx in zip(*np.nonzero(is_min))]
    if symmetric_roots is None:
        symmetric_roots = solve_symmetric_roots(params)
    starts += [np.array([0.0, math.log(z)]) for z in symmetric_roots]

    eye = np.eye(2)

    def system(x):
        return x - k * law_map(x, 2, theta), eye - k * law_map_jac(x, theta)

    x = batched_newton(system, np.array(starts), 60, 2.0 * k * abs(math.log(theta)) + 20.0)

    r = np.max(np.abs(x - k * law_map(x, 2, theta)), axis=-1)
    kept = dedupe(x[r <= RESID_TOL], DEDUPE_TOL)
    kept = kept[np.max(np.abs(kept), axis=-1) <= math.log(hi) + 1e-9]
    return sorted((math.exp(a), math.exp(b)) for a, b in kept)


@dataclass
class GeneralMReport:
    """Outcome of the damped fixed-point iteration for general m."""

    converged: bool
    iterations: int
    h: np.ndarray
    residual: float
    symmetric: bool
    last_delta: float


def iterate_general_m(params: ModelParams, init=None, max_iter: int = 2000) -> GeneralMReport:
    """Damped iteration h <- (1-d) h + d * k * law_map(h) for any m >= 2.

    Divergence is reported, never raised.  The symmetry flag records whether
    the limit has equal unreduced weights for spins j and m-j (within 1e-8).
    """
    m, k, theta = params.m, params.k, params.theta
    h = np.zeros(m) if init is None else np.asarray(init, dtype=float).copy()
    delta = math.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        nxt = (1.0 - DAMPING) * h + DAMPING * k * law_map(h, m, theta)
        delta = float(np.max(np.abs(nxt - h)))
        h = nxt
        if not np.all(np.isfinite(h)):
            return GeneralMReport(False, iterations, h, math.inf, False, delta)
        if delta <= GENERAL_M_TOL:
            break
    residual = float(np.max(np.abs(h - k * law_map(h, m, theta))))
    u = np.concatenate([h, [0.0]])
    symmetric = bool(np.max(np.abs(u - u[::-1])) <= 1e-8)
    return GeneralMReport(delta <= GENERAL_M_TOL, iterations, h, residual, symmetric, delta)


def locate_symmetric_threshold(J: float, k: int, lo: float, hi: float,
                               beta_tol: float = 1e-7) -> float:
    """Bisection on the symmetric root count between a 1-root and a 3-root beta."""
    def count(beta: float) -> int:
        return len(solve_symmetric_roots(ModelParams(k=k, m=2, J=J, beta=beta)))

    c_lo, c_hi = count(lo), count(hi)
    if c_lo != 1 or c_hi < 3:
        raise ValueError(f"bracket does not straddle the transition: counts {c_lo}, {c_hi}")
    while hi - lo > beta_tol:
        mid = 0.5 * (lo + hi)
        c = count(mid)
        if c == 1:
            lo = mid
        elif c >= 3:
            hi = mid
        else:
            return mid
    return 0.5 * (lo + hi)
