"""Bracketed scalar root isolation (sign scan, bisection, Newton polish) and
the batched damped Newton of the 2D and 4D solvers.

Built for fixed-point residuals whose polynomial forms have extreme
coefficient ranges; everything works on sign changes over a log grid, with an
extra pass that splits brackets hiding an extremum (nearly tangent root
pairs), so nascent pairs near a bifurcation are not missed.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

BISECT_STEPS = 200      # halvings before bisect gives up on rel_tol
POLISH_STEPS = 8        # guarded Newton steps after each bisection
ROOT_REL_TOL = 1e-12    # bracket width at which find_roots stops bisecting
ROOT_DEDUPE_TOL = 1e-9  # roots closer than this (relative) are one root
# refinements of this few jobs run them one at a time, on np.float64 points:
# a scan function costs about 3 us there and 17 us on any short array
FEW_JOBS = 4
_SEQUENCES = (list, tuple, np.ndarray)   # bounds of several brackets or lanes


def bisect(f: Callable, lo, hi, rel_tol: float = ROOT_REL_TOL):
    """A root of f in [lo, hi], whose ends f gives opposite signs, by halving.

    With float bounds f(x) gives the value at a point and one float comes
    back.  With equal-length sequences of bounds every bracket is bisected
    at once, each with the steps it would take alone, and the list of roots
    comes back.  Then f is a pair (one, many) of evaluators: one(x, j) gives
    the value at x of bracket j, many(xs, ids) the values (any sequence) at
    the array of points xs of the brackets in the int array ids.  At most
    FEW_JOBS brackets run one after another on one; more run as arrays, one
    call of many per step for all brackets still running.  Only the signs
    of the values count.
    """
    if not isinstance(lo, _SEQUENCES):
        return _halving(f, lo, hi, rel_tol)
    one, many = f
    if len(lo) > FEW_JOBS:
        return _halving_arrays(many, lo, hi, rel_tol)
    return [_halving(lambda x, j=j: one(x, j), a, b, rel_tol)
            for j, (a, b) in enumerate(zip(lo, hi))]


def _halving(f: Callable, lo: float, hi: float, rel_tol: float) -> float:
    """Bisection of one bracket, with f(x) the value at x.

    Only the signs of f count, compared strictly (a product of two tiny
    values of opposite sign would underflow to 0.0 and read as one sign),
    so a nan end leaves the root unbracketed.
    """
    flo = f(lo)
    if flo == 0.0:
        return lo
    fhi = f(hi)
    if fhi == 0.0:
        return hi
    if not (flo < 0 < fhi or fhi < 0 < flo):
        raise ValueError("root not bracketed")
    for _ in range(BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        if hi - lo <= rel_tol * max(1.0, abs(mid)):
            return mid
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if flo < 0 < fmid or fmid < 0 < flo:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def newton_polish(fdf: Callable, x0: float, lo: float, hi: float) -> float:
    """Newton polish of one start, with fdf(x) the pair (f, f') at x.

    At most POLISH_STEPS guarded steps stay inside [lo, hi]; the start falls
    back to x0 if its steps do not improve |f|.
    """
    x, (fx, d) = x0, fdf(x0)
    best, best_f = x0, abs(fx)
    for _ in range(POLISH_STEPS):
        if d == 0.0 or not math.isfinite(d):
            break
        x_new = x - fx / d
        if not (lo <= x_new <= hi) or not math.isfinite(x_new):
            break
        fx, d = fdf(x_new)
        x = x_new
        if abs(fx) < best_f:
            best, best_f = x, abs(fx)
        if fx == 0.0:
            break
    return best


def _halving_arrays(many: Callable, lo, hi, rel_tol: float) -> list:
    """`_halving` of every bracket [lo[j], hi[j]] as arrays: the same tests
    and the same IEEE operations on each bracket, so the same roots.

    Both ends are evaluated in one call.  Each later step evaluates the
    midpoints of the brackets still running; a bracket that stops drops out.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    n = len(lo)
    out, ids = np.empty(n), np.arange(n)
    ends = np.asarray(many(np.concatenate([lo, hi]), np.concatenate([ids, ids])), dtype=float)
    flo, fhi = ends[:n], ends[n:]
    # an end where f is 0 is the root; at lo first, as _halving evaluates it first
    at_lo, at_hi = flo == 0.0, (fhi == 0.0) & (flo != 0.0)
    if not ((flo < 0) & (0 < fhi) | (fhi < 0) & (0 < flo) | at_lo | at_hi).all():
        raise ValueError("root not bracketed")
    out[at_lo], out[at_hi] = lo[at_lo], hi[at_hi]
    keep = ~(at_lo | at_hi)
    ids, lo, hi, flo = (a[keep] for a in (ids, lo, hi, flo))
    for _ in range(BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        stop = hi - lo <= rel_tol * np.maximum(1.0, np.abs(mid))
        if stop.any():
            out[ids[stop]] = mid[stop]
            keep = ~stop
            ids, lo, hi, flo, mid = (a[keep] for a in (ids, lo, hi, flo, mid))
            if not len(ids):
                break
        fmid = np.asarray(many(mid, ids), dtype=float)
        left = (flo < 0) & (0 < fmid) | (fmid < 0) & (0 < flo)
        # where f(mid) is 0 both ends move to mid, whose next width test returns
        # 0.5 * (mid + mid), which is mid
        hi = np.where(left | (fmid == 0.0), mid, hi)
        lo, flo = np.where(left, lo, mid), np.where(left, flo, fmid)
    out[ids] = 0.5 * (lo + hi)
    return out.tolist()


def _newton_arrays(many: Callable, x0, lo, hi) -> np.ndarray:
    """`newton_polish` of every start x0[j] in [lo[j], hi[j]] as arrays, with the
    same guards, steps and fallback; many(xs, ids) gives (f, f') at the
    points xs of starts ids."""
    x = np.array(x0, dtype=float)
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    ids = np.arange(len(x))
    fx, d = (np.asarray(v, dtype=float) for v in many(x, ids))
    best, best_f = x.copy(), np.abs(fx)
    for _ in range(POLISH_STEPS):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            x_new = x - fx / d
        # newton_polish's guards and its stop where f is 0; at a start x0 > 0 where
        # f is 0, newton_polish's step lands on x0 itself and stops there too
        go = (fx != 0.0) & (d != 0.0) & np.isfinite(d) & (lo <= x_new) & (x_new <= hi)
        go &= np.isfinite(x_new)
        if not go.all():
            ids, x_new, lo, hi = (a[go] for a in (ids, x_new, lo, hi))
            if not len(ids):
                break
        fx, d = (np.asarray(v, dtype=float) for v in many(x_new, ids))
        x, f_abs = x_new, np.abs(fx)
        better = f_abs < best_f[ids]
        to = ids[better]
        best[to], best_f[to] = x[better], f_abs[better]
    return best


def batched_newton(residual: Callable, jacobian: Callable, x: np.ndarray, iters: int,
                   cap: float, tol: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton from starts x (n, d): the limits and their max-norm defects.

    Residuals may have more components than x (an (n, e, d) Jacobian with
    e > d); the step then solves the normal equations J^T J s = J^T r
    (Gauss-Newton), and square systems take the plain Newton step.
    Steps longer than 5 in the max norm are scaled to 5 and iterates clipped
    to [-cap, cap].  A start with a singular Jacobian sits out that step.
    At most `iters` steps run: the step taken from the first evaluation where
    every residual r (not J^T r) is at most `tol` (a nan residual never is)
    is the last, so a converged start gets one more quadratic step at no
    extra evaluation.  With the default `tol = 0.0` that needs an exactly
    zero residual, where a step does not move x, so every step counts as
    run.  The defect, max |residual|, takes one more `residual` call alone.
    """
    for _ in range(iters):
        r, jac = residual(x), jacobian(x)
        done = (np.abs(r) <= tol).all()
        rhs = r[..., None]
        if jac.shape[-2] > jac.shape[-1]:
            jac_t = jac.swapaxes(-1, -2)
            jac, rhs = jac_t @ jac, jac_t @ rhs
        try:
            step = np.linalg.solve(jac, rhs)[..., 0]
        except np.linalg.LinAlgError:
            step = np.zeros_like(x)
            for i in range(len(x)):
                try:
                    step[i] = np.linalg.solve(jac[i:i + 1], rhs[i:i + 1])[0, :, 0]
                except np.linalg.LinAlgError:
                    pass
        scale = np.maximum(1.0, np.abs(step).max(axis=-1, keepdims=True) / 5.0)
        x = np.minimum(np.maximum(x - step / scale, -cap), cap)   # np.clip, without its wrapper
        if done:
            break
    return x, np.abs(residual(x)).max(axis=-1)


def dedupe(rows: np.ndarray, tol: float) -> np.ndarray:
    """Sorted rows of an (n, d) array, one per cluster of near-equal rows.

    Rows are sorted lexicographically, and a row is dropped when it lies
    within tol * max(1, |row|) of a row already kept, both in the max norm,
    so each cluster keeps its sorted-first row and large values dedupe
    relative to their size.  The rows are few, so plain floats are faster
    than numpy calls here.
    """
    rows = np.asarray(rows, dtype=float)
    return np.array(_dedupe_rows(rows.tolist(), tol), dtype=float).reshape(-1, rows.shape[1])


def _dedupe_rows(rows: list, tol: float) -> list:
    """`dedupe` on a list of rows (sequences of floats), as a sorted list."""
    kept: list = []
    for row in sorted(rows):
        scale = tol * max(1.0, max(map(abs, row)))
        if all(max(abs(a - b) for a, b in zip(row, other)) > scale for other in kept):
            kept.append(row)
    return kept


def _log_grid(lo: float, hi: float, n: int) -> np.ndarray:
    """np.geomspace(lo, hi, n) for 0 < lo < hi, bit for bit, at half its cost.

    geomspace takes 10 ** linspace(log10 lo, log10 hi, n) with both ends
    set exactly; this forms the same linspace (steps times the step, plus
    the start) without geomspace's sign and dtype handling.
    """
    start, stop = np.log10(lo), np.log10(hi)
    y = np.arange(n, dtype=float) * ((stop - start) / (n - 1))
    y += start
    xs = np.power(10.0, y)
    xs[0], xs[-1] = lo, hi
    return xs


@np.errstate(over="ignore", invalid="ignore")
def find_roots(fdf: Callable, lo, hi, n_grid: int, sign: Callable | None = None):
    """All isolated roots of f on [lo, hi] via a log-spaced sign scan.

    `fdf` returns f and f' together.  With float bounds it is called as
    fdf(x) and the sorted roots come back as a list.  With P bounds each
    (`lo` and `hi` sequences) it scans P parameter lanes at once: fdf(x,
    lane) gets an int lane with that lane's grid and an int array matching
    x in a refinement batch, and one root list per lane comes back.  Each
    lane's grid, sign tests and brackets are its own; the refinement of all
    lanes (extremum splits, bisections, Newton polish) runs as one batch of
    `bisect` and `newton_polish` steps, as arrays past FEW_JOBS jobs and one
    job at a time at `np.float64` points below, so a lane's roots have the
    bits of a scan of that lane alone.

    `sign`, called like fdf but on a float point, gives any number with f's
    sign there (f alone, or +-1.0 where a bound certifies the sign), and 0.0
    where it cannot tell.  A scan of at most FEW_JOBS brackets asks it first
    at each point that bisection evaluates alone, the ends included, and
    calls fdf only where it gives 0.0.  The grid, the splits, the polish and
    larger batches call fdf alone.

    A cell where f' changes sign but f does not is split at the interior
    extremum, which recovers root pairs too close for the grid to separate,
    unless f has one sign at both ends and f' that sign at the left end: f
    then moves away from zero first.  Far from the roots f may overflow to
    inf by design, so the scan keeps overflow warnings off.
    """
    single = not isinstance(lo, _SEQUENCES)
    if single:
        fdf, lo, hi = (lambda x, lane, f=fdf: f(x)), [lo], [hi]
        sign = sign and (lambda x, lane, s=sign: s(x))
    if not all(0 < a < b for a, b in zip(lo, hi)):
        raise ValueError("need 0 < lo < hi for a log grid")
    roots: list[list[float]] = []
    brackets: list[tuple[int, float, float]] = []    # (lane, a, b) with one sign change
    splits: list[tuple[int, float, float]] = []      # cells where only f' changes sign
    split_f: list[float] = []                        # f at each split cell's left end
    for lane, (a, b) in enumerate(zip(lo, hi)):
        xs = _log_grid(a, b, n_grid)
        fs, ds = (np.asarray(v, dtype=float) for v in fdf(xs, lane))
        roots.append(xs[fs == 0.0].tolist())
        # signs of each cell's ends; a zero or nan end has neither sign
        pos, neg, dpos, dneg = fs > 0, fs < 0, ds > 0, ds < 0
        cross = pos[:-1] & neg[1:] | neg[:-1] & pos[1:]
        brackets += [(lane, float(xs[i]), float(xs[i + 1])) for i in np.nonzero(cross)[0]]
        # split cells where f' changes sign but f does not, unless f moves away from zero
        turn = dpos[:-1] & dneg[1:] | dneg[:-1] & dpos[1:]
        away = pos[:-1] & pos[1:] & dpos[:-1] | neg[:-1] & neg[1:] & dneg[:-1]
        for i in np.nonzero(turn & ~cross & ~away)[0]:
            splits.append((lane, float(xs[i]), float(xs[i + 1])))
            split_f.append(fs[i])

    if splits:
        lanes, a, b = zip(*splits)
        xe = bisect(_batch(fdf, lanes, 1), a, b, rel_tol=1e-13)
        fe = np.asarray(fdf(np.array(xe), np.array(lanes))[0], dtype=float).tolist()
        for lane, a, b, x, f_x, f_a in zip(lanes, a, b, xe, fe, split_f):
            if f_x == 0.0:
                roots[lane].append(x)
            elif f_x < 0 < f_a or f_a < 0 < f_x:
                brackets += [(lane, a, x), (lane, x, b)]
    if brackets:
        lanes, a, b = zip(*brackets)
        one, many = _batch(fdf, lanes, 0)
        if sign is not None and len(brackets) <= FEW_JOBS:
            one = lambda x, j, f=one: sign(x, lanes[j]) or f(x, j)
        x0 = bisect((one, many), a, b)
        one, many = _batch(fdf, lanes)
        if len(brackets) > FEW_JOBS:
            polished = _newton_arrays(many, x0, a, b).tolist()
        else:
            polished = [newton_polish(lambda x, j=j: one(x, j), x, lo_x, hi_x)
                        for j, (x, lo_x, hi_x) in enumerate(zip(x0, a, b))]
        for lane, x in zip(lanes, polished):
            roots[lane].append(x)
    out = [[x for x, in _dedupe_rows([(x,) for x in r], ROOT_DEDUPE_TOL)] for r in roots]
    return out[0] if single else out


def _batch(fdf: Callable, lanes: tuple[int, ...], part: int | None = None):
    """Evaluators (one, many) of `bisect` for jobs whose lanes are `lanes`:
    f (part 0), f' (part 1) or the pair (f, f').

    one(x, j) calls fdf at an np.float64 point and gives floats; many(xs, ids)
    calls it once at an array of points and gives its arrays, which have
    the same bits.
    """
    lane_ids = np.array(lanes)

    def one(x, j):
        f, d = fdf(np.float64(x), lanes[j])
        if part is None:
            return float(f), float(d)
        return float(d) if part else float(f)

    def many(xs, ids):
        values = fdf(xs, lane_ids[ids])
        return values if part is None else values[part]

    return one, many
