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
import sys
from dataclasses import astuple, dataclass
from functools import cached_property

import numpy as np

from .boundary import law_map, law_map_jac
from .model import ModelParams, UsageError
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
# 16 eps, eps = 2^-52: 8 times the relative gap that two float64 log and exp
# within 1 ulp, libm's and numpy's, can leave between two values of psi
_EPS = 2.0 ** -52
_SIGN_TOL = 16 * _EPS
_FLOOR = _SIGN_TOL * 2.0 ** -1022   # 16 ulps of a subnormal


class FloatRangeError(UsageError):
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

    @cached_property
    def terms(self) -> tuple:
        """2 theta, 1 + theta^2, 1 - theta^2, theta and k: what _psi and _psi_slope take."""
        t = self.theta
        return 2 * t, 1 + t * t, 1 - t * t, t, self.k

    def __call__(self, z):
        return _psi(self.terms, z)[0]

    def with_deriv(self, z):
        """(psi(z), psi'(z)), with psi computed once."""
        p, num, den = _psi(self.terms, z)
        return p, _psi_slope(self.terms, p, num, den)

    def fixed_point_slope(self, z):
        """psi'(z) at a fixed point z = psi(z): the slope kernel with p = z."""
        return _psi_slope(self.terms, z, *_psi(self.terms, z)[1:])

    def range_interval(self) -> tuple[float, float]:
        """psi(0) and theta^(-k), in ascending order; theta^(-k) is inf where
        it leaves the float range (e^709.78)."""
        t, k = self.theta, self.k
        at_zero = (2 * t / (1 + t * t)) ** k
        at_infinity = t ** (-k) if -k * math.log(t) < 709.0 else math.inf
        return tuple(sorted((at_zero, at_infinity)))


def _psi(terms, z):
    """psi(z), 2t + z and 1 + t^2 + t z, from SliceMap.terms (or arrays matching z)."""
    two_t, one_plus, _, t, k = terms
    num, den = two_t + z, one_plus + t * z
    return np.exp(k * (np.log(num) - np.log(den))), num, den


def _psi_slope(terms, p, num, den):
    """psi'(z) = k p (1 - t^2) / (num den), from SliceMap.terms and _psi(z) = (p, num, den)."""
    return terms[4] * p * terms[2] / (num * den)


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
        if form is None or not (0.0 < form.a < math.inf and 0.0 < form.b < math.inf):
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
    if not math.isfinite(J):
        raise UsageError(f"the coupling J must be finite, got {J!r}")
    if J >= 0:
        raise UsageError("the threshold exists only for negative coupling")
    if k < 2:
        raise UsageError("the threshold exists only for tree order k >= 2")
    # ln((k-1)^2 / (k^2+6k+1)) = -ln(1 + 8k/(k-1)^2); the integer ratio is correctly rounded
    beta = math.log1p(8 * k / (k - 1) ** 2) / (-2 * J)
    if beta == math.inf:    # a subnormal J
        raise UsageError(f"the threshold at J = {J!r} exceeds the float range")
    return beta


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

    Each lane's roots have the bits of its own scan; at k = 1, where psi is
    Möbius, the root of z^2 + theta z - 2 = 0 needs no scan and no setup
    (_k1_root).  Every lane is scanned first; then the first parameter set
    that failed raises what solve_symmetric_roots raises for it.
    """
    failed, setup, found = {}, {}, {}    # by index in sweep: setup errors, _scan_setup, roots
    for i, params in enumerate(sweep):
        try:
            if params.k == 1 and params.m == 2:
                found[i] = [_k1_root(params.theta)]
            else:
                setup[i] = _scan_setup(params)
        except ValueError as bad:
            failed[i] = bad
    lanes = list(setup)
    for grid in (SCAN_GRID, 16 * SCAN_GRID):    # the finer grid retries a count that is off
        if not lanes:
            break
        fdf, sign, quiet = _slice_scan([sweep[i] for i in lanes])
        found.update(zip(lanes, find_roots(fdf, [setup[i][0][0] for i in lanes],
                                           [setup[i][0][1] for i in lanes], grid, sign, quiet)))
        lanes = [i for i in lanes if setup[i][1] not in (None, len(found[i]))]
    for i in lanes:
        failed[i] = RuntimeError(f"scan found {len(found[i])} symmetric roots, "
                                 f"classification expects {setup[i][1]}")
    if failed:
        raise failed[min(failed)]
    return [found[i] for i in range(len(sweep))]


def _k1_root(theta: float) -> float:
    """The slice root at k = 1, the positive root of z^2 + theta z - 2 = 0,
    as 4 / (theta + sqrt(theta^2 + 8)), which does not cancel; FloatRangeError
    where it is not a normal float (theta past about 9e307)."""
    z = 4.0 / (theta + math.hypot(theta, math.sqrt(8.0)))
    if z < sys.float_info.min:
        raise FloatRangeError(f"the symmetric solution at k = 1, theta = {theta!r} "
                              "leaves the float range")
    return z


def _scan_setup(params: ModelParams) -> tuple[tuple[float, float], int | None]:
    """The scan interval of params and the root count the classification
    expects there (None at a tangency, where the scan decides)."""
    if params.m != 2:
        raise UsageError("the symmetric-slice solver is specific to m = 2")
    r_lo, r_hi = SliceMap(params.theta, params.k).range_interval()
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


def _slice_scan(sweep: list[ModelParams]):
    """find_roots' (fdf, sign, quiet) for psi(z) - z on the lanes of sweep, from
    each lane's SliceMap.terms of its own theta (np.exp(J * beta) can differ
    in the last bit, and so move the roots).

    fdf gives psi(z) - z and its derivative; an int lane takes Python floats,
    which are cheaper than numpy scalars.  sign gives +-1.0 where math.log
    and math.exp certify the sign of psi(z) - z, else 0.0: with
    a = ln(2t + z), b = ln(1 + t^2 + t z), d = a - b, y = k d and p = e^y,
    two float64 log and exp within 1 ulp (libm's here, numpy's in fdf) give
    values of p at most p (2 eps (k (|a| + |b| + |d|) + |y|) + 2 eps) apart,
    so a gap |p - z| over 8 times that has numpy's sign.

    quiet rests on psi' being unimodal: psi' = k (1 - t^2) num^(k-1) /
    den^(k+1) with num = 2t + z, den = 1 + t^2 + t z, so d ln|psi'|/dz =
    (k-1)/num - (k+1) t/den has its one zero at z_peak = ((k-1)(1 + t^2) -
    2(k+1) t^2) / (2t).  On a cell clear of z_peak, f' = psi' - 1 and
    |psi'| are monotone, and p, a, b, d and y are monotone everywhere; so
    where f' keeps one sign at both ends it keeps it inside, f is monotone,
    and f keeps the sign of its ends too.  numpy's f is within p R of the
    exact psi(z) - z, with R the sign bound's 16 eps terms plus 2 k eps for
    the rounding of num and den; its f' is within |psi'| (R + 4 eps) +
    2 eps (1 + t^2) k p/(num den), the second term for 1 - t^2, rounded
    apart from 1 + t^2.  R summed over both ends, and p and k p/(num den)
    at the larger end, bound the error over the whole cell, as each term is
    monotone there; so ends whose values clear twice that bound,
    with one strict sign each for f and f', leave the same signs at every
    point between.  Where num den overflows, numpy's f' is -1 and its error
    is all of |psi'|, at most k p |1 - t^2| over the largest float, which
    the bound then adds.
    """
    terms = [SliceMap(p.theta, p.k).terms for p in sweep]
    arrays = [np.array(column) for column in zip(*terms)]

    def fdf(z, lane):
        lane_terms = terms[lane] if isinstance(lane, int) else [a[lane] for a in arrays]
        p, num, den = _psi(lane_terms, z)
        return p - z, _psi_slope(lane_terms, p, num, den) - 1.0

    def sign(z: float, lane: int) -> float:
        two_t, one_plus, _, t, k = terms[lane]
        a, b = math.log(two_t + z), math.log(one_plus + t * z)
        d = a - b
        y = k * d
        if -700.0 < y < 700.0:
            p = math.exp(y)
            bound = p * (_SIGN_TOL * (k * (abs(a) + abs(b) + abs(d)) + abs(y)) + _SIGN_TOL)
            if p - z > bound:
                return 1.0
            if p - z < -bound:
                return -1.0
        return 0.0

    def quiet(z, f, df, lanes):
        two_t, one_plus, one_minus, t, k = (a[lanes, None] for a in arrays)
        num, den = two_t + z, one_plus + t * z
        a, b = np.log(num), np.log(den)
        y = k * (a - b)
        # the sign bound's terms, plus 2 k eps for the rounding of num and den
        rel = _SIGN_TOL * (k * (np.abs(a) + np.abs(b) + np.abs(a - b)) + np.abs(y) + 1.0)
        rel += 2.0 * _EPS * k
        rel = rel[:, 1:] + rel[:, :-1]
        p, num_den = np.exp(y), num * den
        f_bound = _larger_end(p) * rel + _FLOOR
        # where num den overflows, numpy's f' is -1 and misses all of psi'
        lost = num_den == math.inf
        df_bound = (_larger_end(k * p / np.minimum(num_den, sys.float_info.max))
                    * (np.abs(one_minus) * (rel + 4.0 * _EPS + _larger_end(lost))
                       + 2.0 * _EPS * one_plus) + _FLOOR)
        peak = ((k - 1) * one_plus - (k + 1) * t * two_t) / (2.0 * t)
        # peak's rounding error, a few eps times its terms' sizes, is far inside this
        margin = 1e-9 * ((k - 1) * one_plus + (k + 1) * t * two_t) / (2.0 * t)
        clear = (z[:, 1:] < peak - margin) | (z[:, :-1] > peak + margin)
        return clear & _clears(f, f_bound) & _clears(df, df_bound)

    return fdf, sign, quiet


def _larger_end(v):
    """The larger of each cell's two end values, for rows of points v."""
    return np.maximum(v[:, 1:], v[:, :-1])


def _clears(v, bound):
    """Cells whose two end values share one strict sign and both exceed 2 bound in size."""
    return (np.sign(v[:, 1:]) == np.sign(v[:, :-1])) & (np.minimum(np.abs(v[:, 1:]),
                                                                   np.abs(v[:, :-1])) > 2 * bound)


def solve(params: ModelParams) -> dict:
    """Symmetric-branch roots plus the full 2D solution scan, as `solve-ti` prints them."""
    roots = solve_symmetric_roots(params)
    # k = 1 has one root at every theta, also where the reduced family leaves the floats
    label = UNIQUE if params.k == 1 else \
        classify_scalar_family(*astuple(ReducedForm.from_params(params)), params.k)[1]
    beta_cr = critical_beta(params.J, params.k) if (params.J < 0 and params.k >= 2) else None
    return {"params": params.to_dict(), "classification": label, "symmetric_roots": roots,
            "full_solutions": [list(zz) for zz in solve_full(params, roots)], "beta_cr": beta_cr}


def coset_system(equations: list[tuple[int, tuple[int, ...]]], theta: float):
    """The consistency equations of a coset-constant family as batched_newton's
    (residual, jacobian) on rows x = (h_0, ..., h_{C-1}) of m = 2 laws.

    An equation (c, counts) reads h_c = counts[0] F(h_0) + counts[1] F(h_1)
    + ..., F = law_map (a constant law: [(0, (k,))]); its residual stands
    beside the others and its Jacobian block is I on h_c less counts[j] F'(h_j)
    on each h_j.  Every coset is mapped in one stacked law_map call.  One
    equation on one coset, h = k F(h), gives h - k F(h) and I - k F'(h)
    directly, with the bits of the blocks.
    """
    eye = np.eye(2)
    if len(equations) == 1 and len(equations[0][1]) == 1:
        (_, (k,)), = equations
        return (lambda x: x - k * law_map(x, 2, theta),
                lambda x: eye - k * law_map_jac(x, theta))

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


def _log_e(a: int, t):
    """ln E_a(u) = ln((u^a - 1) / (u - 1)) at u = e^-t < 1, with 1 - u^a and 1 - u.

    Written in e^-t, nothing overflows.
    """
    ma, m1 = -np.expm1(-a * t), -np.expm1(-t)
    return np.log(ma / m1), ma, m1


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

    For theta >= 1 the slice entries are all there is: w's numerator
    -theta^2 + (1 - theta^2)(u + ... + u^(k-1)) - theta^2 u^k has no
    positive coefficient, so w < 0 for every u > 0, and nothing is seeded.
    So it is at k = 1, where w = -theta (1 + u).
    """
    if params.m != 2:
        raise UsageError("the 2D solver is specific to m = 2")
    k, theta, lt = params.k, params.theta, math.log(params.theta)
    bound = min(2.0 * k * abs(lt) + 1.0, LOG_WEIGHT_MAX)
    h_max = math.log(max(1e6, math.exp(bound))) + 1e-9
    on_slice = [(1.0, z) for z in symmetric_roots if abs(math.log(z)) <= h_max]
    if theta >= 1.0 or k == 1:    # w < 0 for every u > 0: no solution off the slice
        return sorted(on_slice)

    # ln(u E_(k-1) / E_(k+1)) - 2 ln theta at |ln u| = t, > 0 iff w > 0, and both _log_e
    def sign_w(t):
        em, ep = _log_e(k - 1, t), _log_e(k + 1, t)
        return -t + em[0] - ep[0] - 2.0 * lt, em, ep

    def g_value(u):  # g and ln w at u < 1, and the terms dg/du takes from them
        t = -np.log(u)
        q, em, ep = sign_w(t)
        lw = ep[0] + lt + np.log(np.expm1(q))
        a, w = theta * np.exp(-k * t), np.exp(lw)
        d, p = theta * (a + w) + 1.0, a + w + theta
        return lw / k + np.log(d) - np.log(p), lw, (t, q, em, ep, a, w, d, p)

    def g(u):        # g and dg/du at u < 1
        value, _, (t, q, em, ep, a, w, d, p) = g_value(u)
        # the t-derivatives of ln E_(k-1) and ln E_(k+1), from 1 - u^j and 1 - u
        dm, dp = (j * np.exp(-j * t) / mj - np.exp(-t) / m1
                  for j, (_, mj, m1) in ((k - 1, em), (k + 1, ep)))
        dlw = (-1.0 + dm - dp) / np.expm1(-q) - dp
        c = k * a + w * dlw
        return value, (dlw / k + theta * c / d - c / p) / u

    seeds = [(2.0 * k * lt, k * lt), (-2.0 * k * lt, -k * lt)]
    t0, t_end = DEDUPE_TOL / k, bound / k   # k|ln u| <= DEDUPE_TOL lies on the slice
    if sign_w(t0)[0] > 0 >= sign_w(t_end)[0]:
        t_r = bisect(lambda t: sign_w(t)[0], t0, t_end)
        t_end = t_r - ROOT_REL_TOL * max(1.0, t_r)   # past the bracket, inside w > 0
    if t_end > 2.0 * t0 and sign_w(t_end)[0] > 0:
        # u > 1 roots are the flip images 1/u of these, seeded from each below
        for u in find_roots(g, math.exp(-t_end), math.exp(-t0), SCAN_GRID,
                            lambda v: g_value(v)[0]):
            s, lw = k * math.log(u), float(g_value(u)[1])
            seeds += [(s, lw), (-s, lw - s)]

    x, defect = batched_newton(*coset_system([(0, (k,))], theta), np.array(seeds),
                               POLISH_STEPS, 2.0 * k * abs(lt) + 20.0)
    x = x[defect <= RESID_TOL]
    # limits that dedupe would merge with the slice give way to the exact roots
    x = x[np.abs(x[:, 0]) > DEDUPE_TOL * np.maximum(1.0, np.max(np.abs(x), axis=-1))]
    kept = [(math.exp(a), math.exp(b)) for a, b in dedupe(x, DEDUPE_TOL)
            if max(abs(a), abs(b)) <= h_max]
    return sorted(kept + on_slice)


def locate_symmetric_threshold(J: float, k: int, lo: float, hi: float) -> float:
    """Bisection on the symmetric root count between a 1-root and a 3-root beta,
    down to a bracket of width THRESHOLD_TOL.

    Each walk bisects [lo, hi] on the counts scanned so far.  From the first
    midpoint not yet scanned it goes on with the classification's count,
    which the scan enforces away from tangencies, and stops at a tangency or
    a beta whose setup fails.  The midpoints it predicted are scanned as one
    lane batch for the next walk; a walk that predicted none returns, so the
    result rests on the scans alone and equals a scan-by-scan bisection bit
    for bit.  A batch raises what that bisection raises: each predicted beta
    before the last has its predicted count or fails its scan, so the first
    beta that fails is one the bisection reaches.
    """
    def params(beta: float) -> ModelParams:
        return ModelParams(k=k, m=2, J=J, beta=beta)

    c_lo, c_hi = (len(roots) for roots in symmetric_root_lanes([params(lo), params(hi)]))
    if c_lo != 1 or c_hi < 3:
        raise ValueError(f"bracket does not straddle the transition: counts {c_lo}, {c_hi}")
    scanned: dict[float, int] = {}
    while True:
        a, b, predicted = lo, hi, []
        while b - a > THRESHOLD_TOL:
            mid = 0.5 * (a + b)
            if mid in scanned:
                c = scanned[mid]
            else:
                predicted.append(mid)
                try:    # a tangency or a failing setup counts as 2, which ends the walk
                    c = _scan_setup(params(mid))[1] or 2
                except ValueError:
                    c = 2
            if c == 1:
                a = mid
            elif c >= 3:
                b = mid
            else:
                break
        else:   # the bracket closed
            mid = 0.5 * (a + b)
        if not predicted:
            return mid
        counts = map(len, symmetric_root_lanes([params(beta) for beta in predicted]))
        scanned.update(zip(predicted, counts))
