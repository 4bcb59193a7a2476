import numpy as np
import pytest

from sostree import periodic, roots, ti
from sostree.model import ModelParams
from sostree.roots import batched_newton, dedupe, find_roots


def test_batched_newton_skips_only_singular_starts():
    # x_i^2 = (4, 9) componentwise; the Jacobian diag(2x) is singular where a
    # component is 0, so the first two starts never move and the others converge
    target = np.array([4.0, 9.0])

    def system(x):
        jac = np.zeros(x.shape + (2,))
        jac[:, 0, 0] = 2.0 * x[:, 0]
        jac[:, 1, 1] = 2.0 * x[:, 1]
        return x * x - target, jac

    starts = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 5.0], [30.0, -0.5]])
    x = batched_newton(system, starts, 40, 100.0)
    np.testing.assert_array_equal(x[:2], starts[:2])
    np.testing.assert_allclose(x[2:], [[2.0, 3.0], [-2.0, 3.0], [2.0, -3.0]], rtol=1e-14)


def test_batched_newton_caps_steps_and_clips():
    # a linear system with its root far away: each step moves at most 5 in the
    # max norm, and the iterate stays inside [-cap, cap]
    def system(x):
        return x - 100.0, np.broadcast_to(np.eye(2), x.shape + (2,))

    x = batched_newton(system, np.zeros((1, 2)), 3, 12.0)
    np.testing.assert_array_equal(x, [[12.0, 12.0]])
    x = batched_newton(system, np.zeros((1, 2)), 2, 50.0)
    np.testing.assert_array_equal(x, [[10.0, 10.0]])


def test_dedupe_keeps_the_sorted_first_row_of_each_cluster():
    # the threshold is tol * max(1, |row|) = 2e-8 here, in the max norm
    tol = 1e-8
    rows = np.array([[1.0 + 0.5e-8, 2.0], [3.0, 0.0], [1.0, 2.0 + 1.98e-8], [1.0, 2.0]])
    np.testing.assert_array_equal(dedupe(rows, tol), [[1.0, 2.0], [3.0, 0.0]])
    # just past tol, both rows stay
    far = np.array([[1.0, 2.0], [1.0, 2.0 + 2.02e-8]])
    np.testing.assert_array_equal(dedupe(far[::-1], tol), far)
    assert dedupe(np.empty((0, 3)), tol).shape == (0, 3)


def test_dedupe_is_relative_for_large_roots():
    # roots near 1e300 are 1e291 apart at a relative gap of 1e-9
    big = 1e300
    roots = np.array([[big * (1 + 5e-10)], [big], [big * (1 + 2e-9)]])
    np.testing.assert_array_equal(dedupe(roots, 1e-9), [[big], [big * (1 + 2e-9)]])

    def f(x):
        return (x / big - 1.0) * (x / big - 2.0)

    def df(x):
        return (2.0 * x / big - 3.0) / big

    assert find_roots(f, 0.1 * big, 3 * big, df) == pytest.approx([big, 2 * big], rel=1e-12)


def _bits(fn, xs):
    """fn on each point as an np.float64 and as a 1-element array, as int64 bits."""
    with np.errstate(over="ignore", invalid="ignore"):
        scalar = np.array([fn(x) for x in xs])   # iterating xs gives np.float64
        array = np.concatenate([fn(x) for x in xs[:, None]])
    return scalar.view(np.int64), array.view(np.int64)


@pytest.mark.parametrize("k", [2, 3, 6, 200])
@pytest.mark.parametrize("theta", [0.2, 1.4])
def test_scan_points_have_the_same_bits_as_scalars_and_arrays(monkeypatch, k, theta):
    # find_roots evaluates single points as np.float64 scalars; the scans'
    # functions must give the same bits there as on 1-element arrays, over
    # 1e4 log-spaced points of each scan's own [lo, hi]
    scans = []

    def recording(f, lo, hi, df, n_grid=4096):
        scans.append((f, df, lo, hi))
        return roots.find_roots(f, lo, hi, df, n_grid)

    monkeypatch.setattr(ti, "find_roots", recording)
    monkeypatch.setattr(periodic, "find_roots", recording)
    params = ModelParams.from_theta(k, 2, theta)
    ti.solve_symmetric_roots(params)
    periodic.solve_two_cycle_symmetric(params)
    (_, _, sym_lo, sym_hi), (residual, _, pp_lo, pp_hi) = scans[0], scans[-1]

    psi = ti.SliceMap(params.theta, k)
    xs = np.geomspace(sym_lo, sym_hi, 10_000)
    for fn in (psi, psi.deriv):
        np.testing.assert_array_equal(*_bits(fn, xs))
    # the psi∘psi residual of the two-cycle scan
    np.testing.assert_array_equal(*_bits(residual, np.geomspace(pp_lo, pp_hi, 10_000)))
