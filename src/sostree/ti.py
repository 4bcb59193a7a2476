"""Translation-invariant solutions of the boundary-law recursion (m = 2).

A constant law h = (h0, h1) solves the recursion iff h = k * law_map(h).  In
single-site weights z_i = exp(h_i) this is a pair of fixed-point equations
whose z0 = 1 branch reduces to the scalar problem z = SliceMap(theta, k)(z);
the change of variables x = z/(2 theta), a = 2 theta^(k+1), b = (1+theta^2) /
(2 theta^2) turns that into the one-parameter family a*x = ((1+x)/(b+x))^k
whose root count has a closed-form classification.  Off that branch,
z0 = u^k eliminates z1 = w(u) exactly, and the rest is one scalar equation
in u (see solve_full)."""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from .boundary import law_map, law_map_jac
from .model import ModelParams
from .roots import POLISH_STEPS, ROOT_REL_TOL, batched_newton, bisect, dedupe, find_roots

UNIQUE = "UNIQUE"
BOUNDARY_TWO = "BOUNDARY_TWO"
THREE = "THREE"

SCAN_GRID = 4096          # points of the log-grid sign scans
TANGENCY_REL_TOL = 1e-12  # a within this of nu1 or nu2 counts as tangent
RESID_TOL = 1e-11         # 2D Newton limits with a larger defect are dropped
DEDUPE_TOL = 1e-8         # 2D solutions closer than this (log space) are one
THRESHOLD_TOL = 1e-7      # bracket width at which the threshold bisection stops
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
        return self.with_deriv(z)[0]

    def with_deriv(self, z):
        """(psi(z), psi'(z)), with psi computed once."""
        t = self.theta
        return _psi_with_deriv(2 * t, 1 + t * t, 1 - t * t, t, self.k, z)

    def range_interval(self) -> tuple[float, float]:
        """psi(0) and theta^(-k), in ascending order; theta^(-k) is inf where
        it leaves the float range (e^709.78)."""
        t, k = self.theta, self.k
        at_zero = (2 * t / (1 + t * t)) ** k
        at_infinity = t ** (-k) if -k * math.log(t) < 709.0 else math.inf
        lo, hi = sorted((at_zero, at_infinity))
        return lo, hi


def _psi_with_deriv(two_t, one_plus, one_minus, t, k, z):
    """SliceMap(t, k).with_deriv(z) from 2t, 1 + t^2 and 1 - t^2, which are
    formed first there too; every argument may be an array matching z."""
    num, den = two_t + z, one_plus + t * z
    p = np.exp(k * (np.log(num) - np.log(den)))
    return p, k * p * one_minus / (num * den)


@dataclass(frozen=True)
class ReducedForm:
    """Parameters of the reduced scalar family a*x = ((1+x)/(b+x))^k."""

    a: float
    b: float

    @staticmethod
    def from_params(params: ModelParams) -> "ReducedForm":
        """a and b of params; FloatRangeError where they leave the floats."""
        t = params.theta
        try:
            form = ReducedForm(a=2.0 * t ** (params.k + 1), b=(1.0 + t * t) / (2.0 * t * t))
        except (OverflowError, ZeroDivisionError):   # theta^(k+1) overflows, theta^2 underflows
            form = None
        if form is None or form.a == 0.0 or form.b == math.inf:
            raise FloatRangeError(f"the reduced family at k = {params.k}, theta = "
                                  f"{params.theta!r} leaves the float range")
        return form


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
    # x1, x2 are the roots of x^2 + p x + b; p < 0 here, so -p + sq does not
    # cancel, and x1 comes from x1 x2 = b, since -p - sq cancels at large b
    p = 2.0 - (b - 1.0) * (k - 1.0)
    if p * p == math.inf:
        raise FloatRangeError(f"the tangency points at b = {b!r}, k = {k} leave the float range")
    sq = math.sqrt(max(p * p - 4.0 * b, 0.0))
    x2 = (-p + sq) / 2.0
    x1 = b / x2

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
    cross-checked against the closed-form classification.  This is the
    one-lane case of symmetric_root_lanes.
    """
    return symmetric_root_lanes([params])[0]


def symmetric_root_lanes(sweep: list[ModelParams]) -> list[list[float]]:
    """solve_symmetric_roots of every parameter set, scanned as lanes of one find_roots.

    Each lane's roots have the bits of its own scan, and the first
    parameter set that fails raises what solve_symmetric_roots raises for it.
    """
    lanes = _symmetric_lanes(sweep)
    for roots in lanes:
        if isinstance(roots, Exception):
            raise roots
    return lanes


def _symmetric_lanes(sweep: list[ModelParams]) -> list:
    """The symmetric roots of each parameter set, or the error it raises."""
    out: list = [None] * len(sweep)
    lanes, lo, hi, expected = [], [], [], []
    for i, params in enumerate(sweep):
        try:
            bounds, count = _scan_setup(params)
        except ValueError as bad:
            out[i] = bad
            continue
        lanes.append(i)
        lo.append(bounds[0])
        hi.append(bounds[1])
        expected.append(count)
    found = find_roots(_slice_residual([sweep[i] for i in lanes]), lo, hi, SCAN_GRID) \
        if lanes else []
    retry = [j for j, roots in enumerate(found) if expected[j] not in (None, len(roots))]
    if retry:
        again = find_roots(_slice_residual([sweep[lanes[j]] for j in retry]),
                           [lo[j] for j in retry], [hi[j] for j in retry], 16 * SCAN_GRID)
        for j, roots in zip(retry, again):
            found[j] = roots if len(roots) == expected[j] else RuntimeError(
                f"scan found {len(roots)} symmetric roots, classification expects {expected[j]}")
    for i, roots in zip(lanes, found):
        out[i] = roots
    return out


def _scan_setup(params: ModelParams) -> tuple[tuple[float, float], int | None]:
    """The scan interval of params and the root count the classification
    expects there (None at a tangency, where the scan decides)."""
    if params.m != 2:
        raise ValueError("the symmetric-slice solver is specific to m = 2")
    psi = SliceMap(params.theta, params.k)
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
    form = ReducedForm.from_params(params)
    count, label, _ = classify_scalar_family(form.a, form.b, params.k)
    return (lo, hi), None if label == BOUNDARY_TWO else count


def _slice_residual(sweep: list[ModelParams]):
    """psi(z) - z and its derivative on the lanes of sweep, as find_roots takes them.

    theta is each ModelParams' own float (math.exp); np.exp(J * beta) can
    differ in the last bit, and so move the roots.
    """
    # per lane: 2t, 1 + t^2, 1 - t^2, t and k, as Python floats and as arrays
    consts = [(2 * p.theta, 1 + p.theta * p.theta, 1 - p.theta * p.theta, p.theta, p.k)
              for p in sweep]
    arrays = [np.array(column) for column in zip(*consts)]

    def f(z, lane):
        # an int lane takes Python floats, which are cheaper than numpy scalars
        lane_consts = consts[lane] if isinstance(lane, int) else [a[lane] for a in arrays]
        p, dp = _psi_with_deriv(*lane_consts, z)
        return p - z, dp - 1.0

    return f


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
    _, label, _ = classify_scalar_family(*astuple(ReducedForm.from_params(params)), params.k)
    beta_cr = critical_beta(params.J, params.k) if (params.J < 0 and params.k >= 2) else None
    return TiSolutionSet(params=params, symmetric_roots=roots, classification=label,
                         full_solutions=solve_full(params, roots),
                         beta_cr=beta_cr)


def _log_e(a: int, t):
    """ln E_a(u) = ln((u^a - 1) / (u - 1)) at u = e^-t < 1, and its t-derivative.

    Written in e^-t, nothing overflows.
    """
    ma, m1 = -np.expm1(-a * t), -np.expm1(-t)
    return np.log(ma / m1), a * np.exp(-a * t) / ma - np.exp(-t) / m1


def solve_full(params: ModelParams, symmetric_roots: list[float]) -> list[tuple[float, float]]:
    """All constant-law solutions (z0, z1) whose weights are normal floats.

    With z0 = u^k, off the slice u = 1 the first fixed-point equation gives
    z1 = w(u) = (u E_(k-1) - theta^2 E_(k+1)) / theta, and the second becomes
    g(u) = 0, scanned over u < 1 on {w > 0}, cut just inside the zero e^-t_r
    of w (its numerator is palindromic with signs - + ... + - or all -, so it
    has two positive zeros r, 1/r or none).  Each root u seeds (k ln u, ln w)
    and its spin-flip image (-h0, h1 - h0), which is the root 1/u of the
    mirror half u > 1, left unscanned; so do the pure states
    +-(2k ln theta, k ln theta), where w drops below the precision of u.
    POLISH_STEPS batched Newton steps polish the seeds.  Every solution has
    |h_i| <= 2k|ln theta|; those past LOG_WEIGHT_MAX, which no weight can
    express, are left out.  The z0 = 1 branch is exact: (1.0, z) for each
    symmetric root z of `symmetric_roots` (solve_symmetric_roots of params),
    and Newton limits within the dedupe tolerance of it are dropped.
    """
    if params.m != 2:
        raise ValueError("the 2D solver is specific to m = 2")
    k, theta, lt = params.k, params.theta, math.log(params.theta)
    bound = min(2.0 * k * abs(lt) + 1.0, LOG_WEIGHT_MAX)

    def sign_w(t):   # ln(u E_(k-1) / E_(k+1)) - 2 ln theta at |ln u| = t: > 0 iff w > 0 (k > 1)
        (gm, dm), (gp, dp) = _log_e(k - 1, t), _log_e(k + 1, t)
        return -t + gm - gp - 2.0 * lt, -1.0 + dm - dp, gp, dp

    def g(u):        # g, dg/du and ln w at u < 1
        t = -np.log(u)
        q, dq, gp, dp = sign_w(t)
        lw = gp + lt + np.log(np.expm1(q))
        dlw = dq / np.expm1(-q) - dp
        a, w = theta * np.exp(-k * t), np.exp(lw)
        d, p, c = theta * (a + w) + 1.0, a + w + theta, k * a + w * dlw
        return lw / k + np.log(d) - np.log(p), (dlw / k + theta * c / d - c / p) / u, lw

    seeds = [(2.0 * k * lt, k * lt), (-2.0 * k * lt, -k * lt)]
    t0, t_end = DEDUPE_TOL / k, bound / k   # k|ln u| <= DEDUPE_TOL lies on the slice
    if k > 1 and sign_w(t0)[0] > 0 >= sign_w(t_end)[0]:
        t_r = bisect(lambda t: sign_w(t)[0], t0, t_end)
        t_end = t_r - ROOT_REL_TOL * max(1.0, t_r)   # past the bracket, inside w > 0
    if k > 1 and t_end > 2.0 * t0 and sign_w(t_end)[0] > 0:
        # u > 1 roots are the flip images 1/u of these, seeded from each below
        for u in find_roots(lambda v: g(v)[:2], math.exp(-t_end), math.exp(-t0), SCAN_GRID):
            s, lw = k * math.log(u), float(g(u)[2])
            seeds += [(s, lw), (-s, lw - s)]

    eye = np.eye(2)

    def system(x):
        return x - k * law_map(x, 2, theta), eye - k * law_map_jac(x, theta)

    x = batched_newton(system, np.array(seeds), POLISH_STEPS, 2.0 * k * abs(lt) + 20.0)
    r = np.max(np.abs(x - k * law_map(x, 2, theta)), axis=-1)
    x = x[r <= RESID_TOL]
    # limits that dedupe would merge with the slice give way to the exact roots
    x = x[np.abs(x[:, 0]) > DEDUPE_TOL * np.maximum(1.0, np.max(np.abs(x), axis=-1))]
    h_max = math.log(max(1e6, math.exp(bound))) + 1e-9
    kept = [(math.exp(a), math.exp(b)) for a, b in dedupe(x, DEDUPE_TOL)
            if max(abs(a), abs(b)) <= h_max]
    return sorted(kept + [(1.0, z) for z in symmetric_roots if abs(math.log(z)) <= h_max])


def locate_symmetric_threshold(J: float, k: int, lo: float, hi: float) -> float:
    """Bisection on the symmetric root count between a 1-root and a 3-root beta,
    down to a bracket of width THRESHOLD_TOL.

    The scan enforces the classification's count away from tangencies, so
    the betas the bisection will visit are predicted from the classification
    and scanned as one lane batch.  The bisection then follows the scanned
    counts; from the first beta whose scanned count differs from the
    prediction it predicts and scans again, so the result rests on the scans
    alone and equals a scan-by-scan bisection bit for bit.
    """
    def params(beta: float) -> ModelParams:
        return ModelParams(k=k, m=2, J=J, beta=beta)

    def predicted(lo: float, hi: float) -> int:
        # the classification's count at the midpoint, or 2, which ends the
        # bisection, at a tangency or where the scan raises
        try:
            return _scan_setup(params(0.5 * (lo + hi)))[1] or 2
        except ValueError:
            return 2

    scanned: dict[float, object] = {}

    def count(lo: float, hi: float) -> int:
        mid = 0.5 * (lo + hi)
        if mid not in scanned:
            path = _count_bisection(lo, hi, predicted)[1]
            scanned.update(zip(path, _symmetric_lanes([params(b) for b in path])))
        if isinstance(scanned[mid], Exception):
            raise scanned[mid]
        return len(scanned[mid])

    c_lo, c_hi = (len(roots) for roots in symmetric_root_lanes([params(lo), params(hi)]))
    if c_lo != 1 or c_hi < 3:
        raise ValueError(f"bracket does not straddle the transition: counts {c_lo}, {c_hi}")
    return _count_bisection(lo, hi, count)[0]


def _count_bisection(lo: float, hi: float, count) -> tuple[float, list[float]]:
    """Bisection of [lo, hi] on count(lo, hi), the root count at its midpoint:
    the beta found and the midpoints visited."""
    visited = []
    while hi - lo > THRESHOLD_TOL:
        mid = 0.5 * (lo + hi)
        visited.append(mid)
        c = count(lo, hi)
        if c == 1:
            lo = mid
        elif c >= 3:
            hi = mid
        else:
            return mid, visited
    return 0.5 * (lo + hi), visited
