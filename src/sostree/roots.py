"""Bracketed scalar root isolation (sign scan, bisection, Newton polish) and
the batched damped Newton of the 2D and 4D solvers.

Built for fixed-point residuals whose polynomial forms have extreme
coefficient ranges; everything works on sign changes over a log grid, with an
extra pass that splits brackets hiding an extremum (nearly tangent root
pairs), so nascent pairs near a bifurcation are not missed.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

BISECT_STEPS = 200      # halvings before bisect gives up on rel_tol
POLISH_STEPS = 8        # guarded Newton steps after each bisection
ROOT_REL_TOL = 1e-12    # bracket width at which find_roots stops bisecting
ROOT_DEDUPE_TOL = 1e-9  # roots closer than this (relative) are one root


def bisect(f: Callable[[float], float], lo: float, hi: float,
           rel_tol: float = ROOT_REL_TOL) -> float:
    flo = f(lo)
    if flo == 0.0:
        return lo
    fhi = f(hi)
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise ValueError("root not bracketed")
    for _ in range(BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        if hi - lo <= rel_tol * max(1.0, abs(mid)):
            return mid
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def newton_polish(f: Callable[[float], float], df: Callable[[float], float],
                  x0: float, lo: float, hi: float) -> float:
    """A few guarded Newton steps; falls back to x0 if they do not improve."""
    x, fx = x0, f(x0)
    best, best_f = x0, abs(fx)
    for _ in range(POLISH_STEPS):
        d = df(x)
        if d == 0.0 or not np.isfinite(d):
            break
        step = fx / d
        x_new = x - step
        if not (lo <= x_new <= hi) or not np.isfinite(x_new):
            break
        fx = f(x_new)
        x = x_new
        if abs(fx) < best_f:
            best, best_f = x, abs(fx)
        if fx == 0.0:
            break
    return best


def batched_newton(system: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
                   x: np.ndarray, iters: int, cap: float) -> np.ndarray:
    """Damped Newton from starts x (n, d); `system(x)` gives residuals and Jacobians.

    Steps longer than 5 in the max norm are scaled to 5 and iterates clipped
    to [-cap, cap].  A start with a singular Jacobian sits out that step.
    """
    for _ in range(iters):
        r, jac = system(x)
        try:
            step = np.linalg.solve(jac, r[..., None])[..., 0]
        except np.linalg.LinAlgError:
            step = np.zeros_like(r)
            for i in range(len(r)):
                try:
                    step[i] = np.linalg.solve(jac[i:i + 1], r[i:i + 1, :, None])[0, :, 0]
                except np.linalg.LinAlgError:
                    pass
        scale = np.maximum(1.0, np.max(np.abs(step), axis=-1, keepdims=True) / 5.0)
        x = np.clip(x - step / scale, -cap, cap)
    return x


def dedupe(rows: np.ndarray, tol: float) -> np.ndarray:
    """Sorted rows of an (n, d) array, one per cluster of near-equal rows.

    Rows are sorted lexicographically, and a row is dropped when it lies
    within tol * max(1, |row|) of a row already kept, both in the max norm,
    so each cluster keeps its sorted-first row and large values dedupe
    relative to their size.  The rows are few, so plain floats are faster
    than numpy calls here.
    """
    rows = np.asarray(rows, dtype=float)
    kept: list[list[float]] = []
    for row in sorted(rows.tolist()):
        scale = tol * max(1.0, max(map(abs, row)))
        if all(max(abs(a - b) for a, b in zip(row, other)) > scale for other in kept):
            kept.append(row)
    return np.array(kept, dtype=float).reshape(-1, rows.shape[1])


@np.errstate(over="ignore", invalid="ignore")
def find_roots(f: Callable, lo: float, hi: float, df: Callable,
               n_grid: int = 4096) -> list[float]:
    """All isolated roots of f on [lo, hi] via a log-spaced sign scan.

    `f` and its derivative `df` receive both the grid array and single
    `np.float64` points (bisection, extremum splits, Newton polish); numpy
    scalars give the same bits as 1-element arrays at a fraction of the
    cost.  Brackets containing a sign change of `df` are additionally split
    at the interior extremum, which recovers root pairs too close for the
    base grid to separate.  Far from the roots f and the bracket products may
    overflow to inf by design, so the scan keeps overflow warnings off.
    """
    if not (0 < lo < hi):
        raise ValueError("need 0 < lo < hi for a log grid")
    xs = np.geomspace(lo, hi, n_grid)
    fs = np.asarray(f(xs), dtype=float)

    def f1(x: float) -> float:
        return float(f(np.float64(x)))

    def df1(x: float) -> float:
        return float(df(np.float64(x)))

    roots: list[float] = [float(xs[i]) for i in np.nonzero(fs == 0.0)[0]]
    sign = np.sign(fs)
    cross = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    brackets = [(float(xs[i]), float(xs[i + 1])) for i in cross]

    # split cells where the derivative changes sign but f does not
    dsign = np.sign(np.asarray(df(xs), dtype=float))
    for i in np.nonzero(dsign[:-1] * dsign[1:] < 0)[0]:
        if sign[i] * sign[i + 1] < 0:
            continue  # already a plain bracket
        a, b = float(xs[i]), float(xs[i + 1])
        xe = bisect(df1, a, b, rel_tol=1e-13)
        fe = f1(xe)
        if fe == 0.0:
            roots.append(xe)
        elif fe * fs[i] < 0:
            brackets.append((a, xe))
            brackets.append((xe, b))

    for a, b in brackets:
        roots.append(newton_polish(f1, df1, bisect(f1, a, b), a, b))
    return dedupe(np.reshape(roots, (-1, 1)), ROOT_DEDUPE_TOL)[:, 0].tolist()
