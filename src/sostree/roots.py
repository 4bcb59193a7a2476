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


def newton_polish(fdf: Callable[[float], tuple[float, float]],
                  x0: float, lo: float, hi: float) -> float:
    """A few guarded Newton steps; falls back to x0 if they do not improve."""
    x, (fx, d) = x0, fdf(x0)
    best, best_f = x0, abs(fx)
    for _ in range(POLISH_STEPS):
        if d == 0.0 or not np.isfinite(d):
            break
        step = fx / d
        x_new = x - step
        if not (lo <= x_new <= hi) or not np.isfinite(x_new):
            break
        fx, d = fdf(x_new)
        x = x_new
        if abs(fx) < best_f:
            best, best_f = x, abs(fx)
        if fx == 0.0:
            break
    return best


def batched_newton(system: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
                   x: np.ndarray, iters: int, cap: float, tol: float = 0.0) -> np.ndarray:
    """Damped Newton from starts x (n, d); `system(x)` gives residuals and Jacobians.

    Steps longer than 5 in the max norm are scaled to 5 and iterates clipped
    to [-cap, cap].  A start with a singular Jacobian sits out that step.
    At most `iters` steps run: the step taken from the first evaluation where
    every residual is at most `tol` (a nan residual never is) is the last,
    so a converged start gets one more quadratic step at no extra call of
    `system`.  With the default `tol = 0.0` that needs an exactly zero
    residual, where a step does not move x, so every step counts as run.
    """
    for _ in range(iters):
        r, jac = system(x)
        done = np.all(np.abs(r) <= tol)
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
        if done:
            break
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
def find_roots(fdf: Callable, lo: float, hi: float, n_grid: int = 4096) -> list[float]:
    """All isolated roots of f on [lo, hi] via a log-spaced sign scan.

    `fdf` returns f and its derivative together, for both the grid array and
    single `np.float64` points (bisection, extremum splits, Newton polish);
    numpy scalars give the same bits as 1-element arrays at a fraction of the
    cost.  Brackets containing a sign change of f' are additionally split at
    the interior extremum, which recovers root pairs too close for the base
    grid to separate.  A cell is skipped when f has one sign at both ends
    and f' has that sign at the left end: f first moves away from zero, so
    the extremum is a maximum above zero or a minimum below it.  Far from the
    roots f and the bracket products may overflow to inf by design, so the
    scan keeps overflow warnings off.
    """
    if not (0 < lo < hi):
        raise ValueError("need 0 < lo < hi for a log grid")
    xs = np.geomspace(lo, hi, n_grid)
    fs, ds = (np.asarray(v, dtype=float) for v in fdf(xs))

    def fdf1(x: float) -> tuple[float, float]:
        fx, dx = fdf(np.float64(x))
        return float(fx), float(dx)

    roots: list[float] = [float(xs[i]) for i in np.nonzero(fs == 0.0)[0]]
    sign, dsign = np.sign(fs), np.sign(ds)
    sprod = sign[:-1] * sign[1:]
    brackets = [(float(xs[i]), float(xs[i + 1])) for i in np.nonzero(sprod < 0)[0]]

    # split cells where the derivative changes sign but f does not
    plain_or_away = (sprod < 0) | (sprod > 0) & (sign[:-1] == dsign[:-1])
    for i in np.nonzero((dsign[:-1] * dsign[1:] < 0) & ~plain_or_away)[0]:
        a, b = float(xs[i]), float(xs[i + 1])
        xe = bisect(lambda x: fdf1(x)[1], a, b, rel_tol=1e-13)
        fe = fdf1(xe)[0]
        if fe == 0.0:
            roots.append(xe)
        elif fe * fs[i] < 0:
            brackets.append((a, xe))
            brackets.append((xe, b))

    for a, b in brackets:
        roots.append(newton_polish(fdf1, bisect(lambda x: fdf1(x)[0], a, b), a, b))
    return dedupe(np.reshape(roots, (-1, 1)), ROOT_DEDUPE_TOL)[:, 0].tolist()
