import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sostree import roots, ti
from sostree.model import ModelParams
from sostree.roots import batched_newton, bisect, dedupe, find_roots


@pytest.mark.parametrize("lo, hi", [(2.0, 1.0), (1.0, 1.0), ([1.0, 3.0], [2.0, 3.0])])
def test_find_roots_refuses_an_empty_or_reversed_interval(lo, hi):
    with pytest.raises(ValueError, match="^need 0 < lo < hi for a log grid$"):
        find_roots(lambda x, *lane: (x - 1.5, np.ones_like(x)), lo, hi, 16)


def test_batched_newton_skips_only_singular_starts():
    # x_i^2 = (4, 9) componentwise; the Jacobian diag(2x) is singular where a
    # component is 0, so the first two starts never move and the others converge
    target = np.array([4.0, 9.0])

    def jacobian(x):
        jac = np.zeros(x.shape + (2,))
        jac[:, 0, 0] = 2.0 * x[:, 0]
        jac[:, 1, 1] = 2.0 * x[:, 1]
        return jac

    starts = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 5.0], [30.0, -0.5]])
    x, _ = batched_newton(lambda x: x * x - target, jacobian, starts, 40, 100.0)
    np.testing.assert_array_equal(x[:2], starts[:2])
    np.testing.assert_allclose(x[2:], [[2.0, 3.0], [-2.0, 3.0], [2.0, -3.0]], rtol=1e-14)


def test_batched_newton_caps_steps_and_clips():
    # a linear system with its root far away: each step moves at most 5 in the
    # max norm, and the iterate stays inside [-cap, cap]
    def residual(x):
        return x - 100.0

    def jacobian(x):
        return np.broadcast_to(np.eye(2), x.shape + (2,))

    x, _ = batched_newton(residual, jacobian, np.zeros((1, 2)), 3, 12.0)
    np.testing.assert_array_equal(x, [[12.0, 12.0]])
    x, _ = batched_newton(residual, jacobian, np.zeros((1, 2)), 2, 50.0)
    np.testing.assert_array_equal(x, [[10.0, 10.0]])
    # iterates stepped to +-inf clip to +-cap and nan ones stay nan, as np.clip
    # leaves them: a row at +-inf keeps its place under a 0 step, and a nan
    # residual makes a nan step
    starts = np.array([[np.inf, -np.inf], [1.0, 2.0], [-np.inf, np.inf]])

    def flat(x):
        return np.where(np.isfinite(x), np.nan, 0.0)

    x, _ = batched_newton(flat, jacobian, starts, 1, 12.0)
    np.testing.assert_array_equal(x, [[12.0, -12.0], [np.nan, np.nan], [-12.0, 12.0]])
    np.testing.assert_array_equal(x, np.clip(starts - flat(starts), -12.0, 12.0))


def _counted_square(target, evals):
    """x^2 = target componentwise as (residual, jacobian), appending to evals
    at each Newton evaluation (the jacobian's; the final defect takes the
    residual alone)."""
    def jacobian(x):
        evals.append(x.copy())
        jac = np.zeros(x.shape + (x.shape[1],))
        for i in range(x.shape[1]):
            jac[:, i, i] = 2.0 * x[:, i]
        return jac

    return (lambda x: x * x - target), jacobian


def test_batched_newton_stops_at_the_first_evaluation_within_tol():
    # from 3 the residuals of x^2 = 4 run 5, 0.69, 0.026, 4.1e-5, 1.1e-10;
    # the start at the root has residual 0 throughout, so the slow row
    # decides; the step from the fifth evaluation is still taken, and lands
    # on the root
    evals = []
    x, _ = batched_newton(*_counted_square(4.0, evals), np.array([[2.0], [3.0]]), 40, 100.0,
                          tol=1e-6)
    assert len(evals) == 5
    assert np.max(np.abs(evals[-1] ** 2 - 4.0)) <= 1e-6 < np.max(np.abs(evals[-2] ** 2 - 4.0))
    np.testing.assert_array_equal(x, [[2.0], [2.0]])


def test_batched_newton_default_tol_runs_every_step():
    # no double squares to exactly 2, so no residual is ever 0 and all 40
    # steps run, as they did before the stop rule
    evals = []
    x, _ = batched_newton(*_counted_square(2.0, evals), np.array([[1.0], [3.0]]), 40, 100.0)
    assert len(evals) == 40
    np.testing.assert_allclose(x, [[np.sqrt(2.0)], [np.sqrt(2.0)]], rtol=1e-15)


def test_batched_newton_nan_residual_never_stops_the_loop():
    # the nan row never compares <= tol, however loose, while the other row
    # converges
    evals = []
    x, _ = batched_newton(*_counted_square(4.0, evals), np.array([[np.nan], [3.0]]), 12,
                          100.0, tol=1.0)
    assert len(evals) == 12
    assert np.isnan(x[0, 0]) and x[1, 0] == 2.0


def test_batched_newton_takes_gauss_newton_steps_on_tall_systems():
    # three equations in two unknowns, consistent at (2, 3): the normal
    # equations give Newton's quadratic convergence there; the start at the
    # origin has J^T J singular and sits out every step
    def residual(x):
        a, b = x[:, 0], x[:, 1]
        return np.stack([a * a - 4.0, b * b - 9.0, a * b - 6.0], axis=-1)

    def jacobian(x):
        a, b = x[:, 0], x[:, 1]
        jac = np.zeros((len(x), 3, 2))
        jac[:, 0, 0], jac[:, 1, 1] = 2.0 * a, 2.0 * b
        jac[:, 2, 0], jac[:, 2, 1] = b, a
        return jac

    starts = np.array([[0.0, 0.0], [3.0, 4.0], [1.5, 2.5]])
    x, _ = batched_newton(residual, jacobian, starts, 40, 100.0, tol=1e-12)
    np.testing.assert_array_equal(x[0], starts[0])
    np.testing.assert_allclose(x[1:], [[2.0, 3.0], [2.0, 3.0]], rtol=1e-15)


def test_batched_newton_tall_stop_rule_tests_the_residual():
    # x = 1 and x = 3 at once: the least-squares point x = 2 has J^T r = 0
    # but r = (1, -1), so the loop never stops early
    evals = []

    def jacobian(x):
        evals.append(x.copy())
        return np.ones((len(x), 2, 1))

    x, _ = batched_newton(lambda x: np.concatenate([x - 1.0, x - 3.0], axis=-1), jacobian,
                          np.array([[0.0]]), 6, 100.0, tol=1e-6)
    assert len(evals) == 6
    np.testing.assert_array_equal(x, [[2.0]])


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 6), theta=st.floats(0.2, 5.0), iters=st.integers(0, 8),
       tol=st.sampled_from([0.0, 1e-13, 1e-3]),
       x=hnp.arrays(float, (3, 2), elements=st.floats(-5.0, 5.0)))
def test_batched_newton_returns_the_defect_at_its_limits(k, theta, iters, tol, x):
    residual, jacobian = ti.coset_system([(0, (k,))], theta)
    res_args, jac_args = [], []

    def spied(f, args):
        return lambda x: args.append(x) or f(x)

    out, defect = batched_newton(spied(residual, res_args), spied(jacobian, jac_args), x,
                                 iters, 50.0, tol=tol)
    assert defect.tobytes() == np.max(np.abs(residual(out)), -1).tobytes()
    # each step evaluates both at one point; the defect is the one residual
    # call without a Jacobian, at the returned limits
    assert len(res_args) == len(jac_args) + 1
    assert all(r is j for r, j in zip(res_args, jac_args))
    assert res_args[-1] is out and not any(j is out for j in jac_args)


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

    def fdf(x):
        return (x / big - 1.0) * (x / big - 2.0), (2.0 * x / big - 3.0) / big

    assert find_roots(fdf, 0.1 * big, 3 * big, 4096) == pytest.approx([big, 2 * big], rel=1e-12)


def test_bisection_compares_signs_not_products():
    # two values below about 1e-162 multiply to +-0.0, which read as one sign:
    # the product test bisected towards hi and returned 1.99999999999909
    def f(x):
        return (x - 1.3) * 1e-200

    assert bisect(f, 1.0, 2.0) == pytest.approx(1.3, rel=1e-12)
    assert bisect((lambda x, j: f(x), lambda xs, ids: [f(x) for x in xs]),
                  [1.0] * 6, [2.0] * 6) == pytest.approx([1.3] * 6, rel=1e-12)
    with pytest.raises(ValueError, match="not bracketed"):
        bisect(lambda x: (x - 0.5) * 1e-200, 1.0, 2.0)


@pytest.mark.parametrize("f", [lambda x: math.nan, lambda x: -1.0 if x < 1 else math.nan],
                         ids=["nan-ends", "nan-hi"])
def test_a_nan_end_leaves_the_root_unbracketed(f):
    # a nan end has no sign; both once bisected to 0.9999999999995453
    with pytest.raises(ValueError, match="not bracketed"):
        bisect(f, 0.0, 1.0)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_a_root_pair_inside_one_grid_cell_is_found(sign):
    # the grid 1, 1.19, 1.41, 1.68, 2 puts both roots in one cell with ends of
    # one sign; f moves towards zero at the cell's left end, so the extremum
    # split runs and brackets each root
    def fdf(x):
        return sign * (x - 1.3) * (x - 1.301), sign * (2.0 * x - 2.601)

    assert find_roots(fdf, 1.0, 2.0, n_grid=5) == pytest.approx([1.3, 1.301], rel=1e-12)


@pytest.mark.parametrize("sign", [1e-200, -1e-200])
def test_a_root_pair_is_found_where_the_split_product_underflows(sign):
    # f at the extremum times f at the cell's end underflows to -0.0, which
    # the product test took for one sign, so the pair went unbracketed
    test_a_root_pair_inside_one_grid_cell_is_found(sign)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_a_cell_where_f_turns_away_from_zero_runs_no_bisection(monkeypatch, sign):
    # f' changes sign inside the cell (1.19, 1.41), but f moves away from zero
    # at its left end, so the extremum is a maximum above zero (a minimum
    # below it) and no root pair can hide there
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return bisect(*args, **kwargs)

    monkeypatch.setattr(roots, "bisect", counting)

    def fdf(x):
        return sign * (1.0 - (x - 1.3) ** 2), sign * -2.0 * (x - 1.3)

    assert find_roots(fdf, 1.0, 2.0, n_grid=5) == []
    assert calls == []


def _counted(fdf):
    """fdf, recording each call's points in `calls`: a float for a scalar
    point, a list for an array."""
    calls = []

    def counting(x, *lane):
        calls.append(np.asarray(x).tolist())
        return fdf(x, *lane)

    return counting, calls


@pytest.mark.parametrize("lanes", [False, True])
def test_the_sign_hook_stands_in_for_f_at_bisection_points(lanes):
    # a hook that is sure of f's sign away from the roots keeps every root's
    # bits and leaves fdf a few bisection points per root, and no bracket end
    # (a grid point, whose sign the hook gives); a hook that is never sure
    # changes no call
    def fdf(x, *lane):
        return (x - 1.3) * (x - 1.7), 2.0 * x - 3.0

    def sure(x, *lane):
        f = (x - 1.3) * (x - 1.7)
        return 0.0 if abs(f) < 1e-9 else math.copysign(1.0, f)

    def scan(f, sign):
        if lanes:
            return find_roots(f, [1.0, 1.1], [2.0, 2.0], 5, sign)
        return find_roots(lambda x: f(x), 1.0, 2.0, 5, sign and (lambda x: sign(x)))

    plain, calls = _counted(fdf)
    expected = scan(plain, None)
    unsure, unsure_calls = _counted(fdf)
    assert scan(unsure, lambda x, *lane: 0.0) == expected and unsure_calls == calls
    hooked, hooked_calls = _counted(fdf)
    assert scan(hooked, sure) == expected
    assert len(calls) > 2 * 32 * (1 + lanes) and len(hooked_calls) < len(calls) // 2
    grid = {x for a in ([1.0, 1.1] if lanes else [1.0]) for x in roots._log_grid(a, 2.0, 5).tolist()}
    scalar = {x for x in hooked_calls if isinstance(x, float)}
    assert scalar and not scalar & grid


def test_the_sign_hook_is_left_out_of_large_batches():
    # more than FEW_JOBS brackets bisect as one batch, on fdf alone
    def fdf(x):
        return np.sin(x), np.cos(x)

    def never(x):
        raise AssertionError("the hook was consulted")

    found = find_roots(fdf, 1.0, 7 * math.pi, 4096, never)
    assert len(found) > roots.FEW_JOBS
    assert found == find_roots(fdf, 1.0, 7 * math.pi, 4096)


@settings(max_examples=300, deadline=None)
@given(lo=st.floats(5e-324, 1e308), ratio=st.floats(1.0, 1e300),
       n=st.sampled_from([2, 3, 5, 4096, 65536]))
def test_log_grid_is_geomspace(lo, ratio, n):
    # the scan's grid has the bits of np.geomspace over the whole float range
    hi = lo * ratio
    if not lo < hi < np.inf:
        return
    np.testing.assert_array_equal(roots._log_grid(lo, hi, n).view(np.int64),
                                  np.geomspace(lo, hi, n).view(np.int64))


@settings(max_examples=100, deadline=None)
@given(bounds=st.lists(st.tuples(st.floats(1e-300, 1e100), st.floats(1e-12, 1e200)),
                       min_size=1, max_size=8),
       n=st.sampled_from([2, 3, 64, 65, 66, 129, 4096]), data=st.data())
def test_two_level_points_have_the_bits_of_the_log_grid(bounds, n, data):
    # the coarse points the hook sees and every point of the runs of busy
    # cells, whichever cells those are, have the bits of _log_grid at the
    # same indices; a nan closes each run
    lo = [a for a, _ in bounds]
    hi = [a * (1.0 + r) for a, r in bounds]
    assume(all(a < b < np.inf for a, b in zip(lo, hi)))
    grids = np.array([roots._log_grid(a, b, n) for a, b in zip(lo, hi)])
    coarse = np.r_[0:n - 1:roots.COARSE_STEP, n - 1]
    busy = data.draw(hnp.arrays(bool, (len(lo), len(coarse) - 1)))

    def quiet(xs, fs, ds, lanes):
        np.testing.assert_array_equal(xs.view(np.int64), grids[:, coarse].view(np.int64))
        np.testing.assert_array_equal(lanes, np.arange(len(lo)))
        return ~busy

    lanes, xs, fs, ds = roots._busy_runs(lambda x, lane: (x, -x), lo, hi, n, quiet)
    expected, expected_lanes = [], []
    for lane, row in enumerate(busy):
        cells = np.nonzero(row)[0]
        for run in np.split(cells, np.nonzero(np.diff(cells) > 1)[0] + 1) if len(cells) else []:
            points = grids[lane, coarse[run[0]]:coarse[run[-1] + 1] + 1].tolist() + [math.nan]
            expected += points
            expected_lanes += [lane] * len(points)
    np.testing.assert_array_equal(xs.view(np.int64), _int_bits(expected))
    np.testing.assert_array_equal(fs.view(np.int64), _int_bits(expected))
    assert lanes.tolist() == expected_lanes


def _bits(fn, xs, lanes=None):
    """fn on each point of xs as an np.float64, as a 1-element array, and on
    all of xs in one call, as int64 bits; with lanes, fn(x, lane) takes each
    point's lane (an int, a 1-element array, the whole array).

    A fn returning (f, f') gives one column per component."""
    with np.errstate(over="ignore", invalid="ignore"):
        if lanes is None:
            scalar = np.array([fn(x) for x in xs])   # iterating xs gives np.float64
            single = np.array([fn(x) for x in xs[:, None]])
            whole = np.array(fn(xs))
        else:
            scalar = np.array([fn(x, int(j)) for x, j in zip(xs, lanes)])
            single = np.array([fn(x, j) for x, j in zip(xs[:, None], lanes[:, None])])
            whole = np.array(fn(xs, lanes))
    return (scalar.view(np.int64), single.reshape(scalar.shape).view(np.int64),
            whole.T.reshape(scalar.shape).view(np.int64))


@pytest.mark.parametrize("k", [2, 3, 6, 200])
@pytest.mark.parametrize("theta", [0.2, 1.4])
def test_scan_points_have_the_same_bits_as_scalars_and_arrays(monkeypatch, k, theta):
    # find_roots evaluates single points as np.float64 scalars and refinement
    # batches as arrays whose points belong to different lanes; the slice
    # scan's function must give the same bits on a scalar, a 1-element array
    # and a many-element array with a theta and k per point, over 1e4
    # log-spaced points of the scan's own [lo, hi]
    scans = []

    def recording(fdf, lo, hi, n_grid=4096, sign=None, quiet=None):
        scans.append((fdf, lo, hi))
        return roots.find_roots(fdf, lo, hi, n_grid, sign, quiet)

    monkeypatch.setattr(ti, "find_roots", recording)
    params = ModelParams.from_theta(k, 2, theta)
    sweep = [params, ModelParams.from_theta(k, 2, 1.1 * theta), ModelParams.from_theta(2, 2, 0.5)]
    ti.symmetric_root_lanes(sweep)
    residual, sym_lo, sym_hi = scans[0]

    psi = ti.SliceMap(params.theta, k)
    xs = np.geomspace(sym_lo[0], sym_hi[0], 10_000)
    lanes = np.random.default_rng(k).integers(0, len(sweep), xs.size)
    bits = {name: _bits(*args) for name, args in [
        ("psi", (psi, xs)), ("with_deriv", (psi.with_deriv, xs)),
        ("residual", (residual, xs, lanes))]}
    for name, (scalar, single, whole) in bits.items():
        np.testing.assert_array_equal(scalar, single, err_msg=name)
        np.testing.assert_array_equal(scalar, whole, err_msg=name)
    # psi comes out of with_deriv with the bits of psi itself
    np.testing.assert_array_equal(bits["psi"][0], bits["with_deriv"][0][:, 0])


def _cubics(r, scale, c):
    """fdf(x, lane) of f = scale u (1 + c u^2), u = x - r, one (r, scale, c)
    per lane: one root at r, f' never 0 where scale is not, and + - * alone,
    so scalars and arrays give the same bits."""
    r, scale, c = (np.array(v, dtype=float) for v in (r, scale, c))

    def fdf(x, lane):
        u = x - r[lane]
        s, cu2 = scale[lane], c[lane] * u * u
        return s * u * (1.0 + cu2), s * (1.0 + 3.0 * cu2)

    return fdf


_BRACKETS = st.lists(st.tuples(
    st.floats(1e-3, 1e3), st.floats(1e-9, 10.0), st.floats(0.01, 0.99),
    st.sampled_from(["inside", "lo", "hi", "mid"]),
    st.sampled_from([1.0, -1.0, 1e-170, -1e-200, 3e-300]), st.floats(0.0, 10.0)),
    min_size=roots.FEW_JOBS + 1, max_size=64)


def _bracket_set(brackets, c_sign=1.0):
    """(lo, hi, fdf) of brackets drawn from _BRACKETS: each bracket's root
    lies inside it, at one of its ends or at its first midpoint.  With
    c_sign -1.0, f' may vanish or change sign in a bracket."""
    lo, hi, r, scale, c = [], [], [], [], []
    for a, width, frac, where, s, cc in brackets:
        b = a * (1.0 + width)
        lo.append(a)
        hi.append(b)
        r.append({"inside": a + frac * (b - a), "lo": a, "hi": b, "mid": 0.5 * (a + b)}[where])
        scale.append(s)
        c.append(c_sign * cc)
    return lo, hi, _cubics(r, scale, c)


def _int_bits(values):
    return np.array(values, dtype=float).view(np.int64)


def _outcome(refine):
    """What refine() returns, or the message of the ValueError it raises."""
    try:
        return refine()
    except ValueError as error:
        return str(error)


@seed(1)
@settings(max_examples=80, deadline=None)
@given(brackets=_BRACKETS, nan_at=st.none() | st.integers(0, 63))
def test_array_bisection_has_the_bits_of_each_bracket_alone(brackets, nan_at):
    # batches of more than FEW_JOBS brackets bisect as arrays; each root must
    # be the one the scalar path gives that bracket alone, with roots at
    # bracket ends and midpoints, values far below 1e-162 and a nan end among
    # them; a bracket that raises alone makes the batch raise the same
    lo, hi, fdf = _bracket_set(brackets)
    if nan_at is not None:
        hi[nan_at % len(hi)] = math.nan
    alone = [_outcome(lambda: bisect(lambda x: fdf(x, j)[0], a, b))
             for j, (a, b) in enumerate(zip(lo, hi))]
    pair = ((lambda x, j: fdf(np.float64(x), j)[0]), (lambda xs, ids: fdf(xs, ids)[0]))
    together = _outcome(lambda: bisect(pair, lo, hi))
    raised = [r for r in alone if isinstance(r, str)]
    if raised:
        assert together == raised[0] == "root not bracketed"
    else:
        np.testing.assert_array_equal(_int_bits(together), _int_bits(alone))
    # a nan end raises unless f is 0 at lo, which bisection evaluates first
    assert bool(raised) == (nan_at is not None and brackets[nan_at % len(hi)][3] != "lo")


@seed(2)
@settings(max_examples=40, deadline=None)
@given(brackets=_BRACKETS, n_grid=st.sampled_from([2, 5, 33]))
def test_array_polish_has_the_bits_of_each_lane_alone(brackets, n_grid):
    # the lanes of one scan refine more than FEW_JOBS brackets as arrays, and a
    # lane scanned alone refines its one bracket on scalars: the same roots
    lo, hi, fdf = _bracket_set(brackets)
    together = find_roots(fdf, lo, hi, n_grid)
    alone = [find_roots(lambda x, j=j: fdf(x, j), a, b, n_grid)
             for j, (a, b) in enumerate(zip(lo, hi))]
    assert [len(r) for r in together] == [len(r) for r in alone]
    np.testing.assert_array_equal(_int_bits(sum(together, [])), _int_bits(sum(alone, [])))


@seed(3)
@settings(max_examples=80, deadline=None)
@given(brackets=_BRACKETS, c_sign=st.sampled_from([1.0, -1.0]))
def test_array_newton_polish_has_the_bits_of_each_start_alone(brackets, c_sign):
    # Newton from anywhere in each bracket, where a step may leave it, meet
    # f' = 0 or fail to improve |f|: the array polish of more than FEW_JOBS
    # starts gives each start the bits of its scalar polish
    lo, hi, fdf = _bracket_set(brackets, c_sign)
    x0 = [a + (1.0 - frac) * (b - a) for a, b, (_, _, frac, *_) in zip(lo, hi, brackets)]
    one, many = roots._batch(fdf, tuple(range(len(lo))))
    alone = [roots.newton_polish(lambda x, j=j: one(x, j), x, a, b)
             for j, (x, a, b) in enumerate(zip(x0, lo, hi))]
    together = roots._newton_arrays(many, x0, lo, hi)
    np.testing.assert_array_equal(together.view(np.int64), _int_bits(alone))


def test_a_zero_derivative_in_an_array_polish_keeps_the_bisection_point():
    # lane 0 reports f' = 0 at its root: its Newton step divides by zero,
    # which the polish neither warns about nor takes, so the root stays where
    # bisection put it; the other lanes polish as usual
    fdf = _cubics([1.3, 1.5, 1.7, 1.9, 2.1, 2.3], [1.0] * 6, [1.0] * 6)

    def flat_first(x, lane):
        f, d = fdf(x, lane)
        return f, np.where(lane == 0, 0.0, d)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        found = find_roots(flat_first, [1.0] * 6, [2.5] * 6, 9)
    assert sum(map(len, found)) > roots.FEW_JOBS
    grid = roots._log_grid(1.0, 2.5, 9)
    cell = np.searchsorted(grid, 1.3)
    bisected = bisect(lambda x: fdf(x, 0)[0], float(grid[cell - 1]), float(grid[cell]))
    assert found[0] == [bisected]
    assert found[1:] == [find_roots(lambda x, j=j: fdf(x, j), 1.0, 2.5, 9) for j in range(1, 6)]
