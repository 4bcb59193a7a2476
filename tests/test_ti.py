import math
import random
import re
import warnings

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from sostree import boundary, roots, ti
from sostree.model import ModelParams

import reference

# count transitions located by bisection on the solver's own root count and
# confirmed by companion-matrix root counts of the polynomial forms; the
# tangency-condition closed form (critical_beta) sits strictly below them,
# which the acceptance suite checks and reports as a red criterion.
TRUE_THRESHOLD_K2 = 1.9562154316
TRUE_THRESHOLD_K3 = 1.4957444124


def test_critical_beta_closed_form():
    assert ti.critical_beta(-1.0, 2) == pytest.approx(math.log(17) / 2, abs=1e-14)
    assert ti.critical_beta(-1.0, 3) == pytest.approx(math.log(7) / 2, abs=1e-14)
    assert ti.critical_beta(-2.0, 2) == pytest.approx(math.log(17) / 4, abs=1e-14)
    with pytest.raises(ValueError):
        ti.critical_beta(1.0, 2)
    with pytest.raises(ValueError):
        ti.critical_beta(-1.0, 1)


def test_classify_unique_cases():
    count, label, info = ti.classify_scalar_family(1.0, 1.0, 5)
    assert (count, label, info) == (1, ti.UNIQUE, None)
    count, label, _ = ti.classify_scalar_family(0.5, 10.0, 1)
    assert (count, label) == (1, ti.UNIQUE)


def test_classify_family_info_exact():
    info = ti.scalar_family_info(10.0, 2)
    assert info.x1 == pytest.approx(2.0, abs=1e-12)
    assert info.x2 == pytest.approx(5.0, abs=1e-12)
    assert info.nu1 == pytest.approx(0.03125, abs=1e-12)
    assert info.nu2 == pytest.approx(0.032, abs=1e-12)
    count, label, _ = ti.classify_scalar_family(0.0315, 10.0, 2)
    assert (count, label) == (3, ti.THREE)
    assert ti.classify_scalar_family(0.03125, 10.0, 2)[1] == ti.BOUNDARY_TWO
    assert len(reference.scan_scalar_roots(0.0315, 10.0, 2)) == 3


def test_classification_matches_scan_oracle():
    rng = np.random.default_rng(12345)
    checked = 0
    while checked < 60:
        k = int(rng.integers(1, 7))
        b = float(np.exp(rng.uniform(np.log(0.2), np.log(50))))
        info = ti.scalar_family_info(b, k)
        if checked % 2 == 0 and info is not None:
            a = float(np.exp(rng.uniform(np.log(info.nu1), np.log(info.nu2))))
        else:
            a = float(np.exp(rng.uniform(np.log(1e-3), np.log(10))))
        count, label, info2 = ti.classify_scalar_family(a, b, k)
        if label == ti.BOUNDARY_TWO:
            continue
        if info2 is not None and min(abs(a - info2.nu1) / info2.nu1,
                                     abs(a - info2.nu2) / info2.nu2) < 1e-9:
            continue
        assert len(reference.scan_scalar_roots(a, b, k)) == count
        checked += 1


def test_symmetric_roots_free_regime():
    p = ModelParams(k=2, m=2, J=0.0, beta=7.0)
    roots = ti.solve_symmetric_roots(p)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(1.0, abs=1e-12)


def test_symmetric_roots_fm_above_transition(fm_params, fm_roots):
    assert len(fm_roots) == 3
    assert fm_roots[0] < fm_roots[1] < fm_roots[2]
    psi = ti.SliceMap(fm_params.theta, fm_params.k)
    for z in fm_roots:
        assert float(psi(z)) == pytest.approx(z, abs=1e-11)


def test_symmetric_roots_are_quiet_where_the_scan_overflows():
    # at k = 200 the slice map's derivative (beta = 1.612) and the extremum
    # split's bracket product (beta = 2.225) overflow to inf by design
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for beta in (1.612, 2.225):
            assert len(ti.solve_symmetric_roots(ModelParams(200, 2, -1.0, beta))) == 3


def test_symmetric_roots_afm_unique(afm_params):
    assert len(ti.solve_symmetric_roots(afm_params)) == 1


def test_transform_consistency(fm_params, fm_roots):
    # roots of the weight equation map bijectively onto the reduced family's
    form = ti.ReducedForm.from_params(fm_params)
    xs = reference.scan_scalar_roots(form.a, form.b, fm_params.k)
    assert len(xs) == len(fm_roots)
    for x, z in zip(xs, fm_roots):
        assert 2.0 * fm_params.theta * x == pytest.approx(z, rel=1e-9)


def test_count_transition_against_true_thresholds():
    # the actual 1 -> 3 transition, located by bisection on the count
    found2 = ti.locate_symmetric_threshold(-1.0, 2, 1.5, 2.5)
    assert found2 == pytest.approx(TRUE_THRESHOLD_K2, abs=1e-6)
    found3 = ti.locate_symmetric_threshold(-1.0, 3, 1.0, 2.0)
    assert found3 == pytest.approx(TRUE_THRESHOLD_K3, abs=1e-6)
    for d in (-1e-4, 1e-4):
        n = len(ti.solve_symmetric_roots(ModelParams(k=2, m=2, J=-1.0, beta=found2 + d)))
        assert n == (1 if d < 0 else 3)


def _scan_by_scan_threshold(J, k, lo, hi, beta_tol=1e-7):
    # the bisection on the root count with one scan per beta, in the order
    # the betas are visited
    def count(beta):
        return len(ti.solve_symmetric_roots(ModelParams(k=k, m=2, J=J, beta=beta)))

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


THRESHOLD_BRACKETS = [(2, 1.5, 2.5, 1e-7), (2, 1.9, 1.96, 1e-9), (2, 1.0, 1.9, 1e-7),
                      (3, 1.0, 2.0, 1e-7), (3, 1.45, 1.6, 1e-10), (3, 1.6, 2.0, 1e-7)]


@pytest.mark.parametrize("k, lo, hi, tol", THRESHOLD_BRACKETS)
def test_threshold_equals_the_scan_by_scan_bisection(monkeypatch, k, lo, hi, tol):
    # the lane batch over the predicted midpoints returns the float of the
    # scan-by-scan bisection, and the same error where the bracket does not
    # straddle the transition (1.0-1.9 and 1.6-2.0)
    monkeypatch.setattr(ti, "THRESHOLD_TOL", tol)
    try:
        expected = _scan_by_scan_threshold(-1.0, k, lo, hi, tol)
    except ValueError as bad:
        with pytest.raises(ValueError, match=re.escape(str(bad))):
            ti.locate_symmetric_threshold(-1.0, k, lo, hi)
        return
    scans = []

    def counting(fdf, lo, hi, n_grid=4096):
        scans.append(len(lo))
        return roots.find_roots(fdf, lo, hi, n_grid)

    monkeypatch.setattr(ti, "find_roots", counting)
    assert ti.locate_symmetric_threshold(-1.0, k, lo, hi) == expected
    # one scan of both ends, one of every midpoint
    assert len(scans) == 2 and scans[0] == 2 and scans[1] > 20


@pytest.mark.parametrize("k", [2, 3])
def test_threshold_rescans_where_the_prediction_fails(monkeypatch, k):
    # a classification that calls every beta a tangency predicts that the
    # bisection stops at each midpoint, and the scan never agrees, so every
    # midpoint is predicted and scanned anew; the result does not change
    expected = _scan_by_scan_threshold(-1.0, k, 1.0, 2.5)

    def all_tangent(a, b, k):
        return 2, ti.BOUNDARY_TWO, None

    monkeypatch.setattr(ti, "classify_scalar_family", all_tangent)
    scans = []

    def counting(fdf, lo, hi, n_grid=4096):
        scans.append(len(lo))
        return roots.find_roots(fdf, lo, hi, n_grid)

    monkeypatch.setattr(ti, "find_roots", counting)
    assert ti.locate_symmetric_threshold(-1.0, k, 1.0, 2.5) == expected
    assert scans[0] == 2 and set(scans[1:]) == {1} and len(scans) > 20


def _counting_scans(monkeypatch):
    """Patch ti's find_roots to record (grid, lanes) of each scan."""
    scans = []

    def counting(fdf, lo, hi, n_grid=4096):
        scans.append((n_grid, len(lo)))
        return roots.find_roots(fdf, lo, hi, n_grid)

    monkeypatch.setattr(ti, "find_roots", counting)
    return scans


def test_lanes_that_miss_roots_are_rescanned_on_a_finer_grid(monkeypatch):
    # a 4-point grid finds one root of the 3-root lanes; only those lanes are
    # scanned again, on the 16x grid, which recovers the classification's count
    sweep = [ModelParams(k=2, m=2, J=-1.0, beta=b) for b in (1.0, 2.0, 2.5)]
    expected = ti.symmetric_root_lanes(sweep)
    monkeypatch.setattr(ti, "SCAN_GRID", 4)
    scans = _counting_scans(monkeypatch)
    found = ti.symmetric_root_lanes(sweep)
    assert scans == [(4, 3), (64, 2)]
    assert [len(r) for r in found] == [1, 3, 3]
    for got, want in zip(found, expected):
        assert got == pytest.approx(want, rel=1e-14)


def test_a_lane_the_finer_grid_cannot_settle_raises(monkeypatch):
    # a classification that expects 5 roots at beta = 2 is never met: that
    # lane holds the error, the others their roots, and the solver raises it
    setup = ti._scan_setup

    def five_at_two(params):
        bounds, count = setup(params)
        return bounds, 5 if params.beta == 2.0 else count

    monkeypatch.setattr(ti, "_scan_setup", five_at_two)
    scans = _counting_scans(monkeypatch)
    sweep = [ModelParams(k=2, m=2, J=-1.0, beta=b) for b in (1.0, 2.0, 2.5)]
    lanes = ti._symmetric_lanes(sweep)
    assert scans == [(ti.SCAN_GRID, 3), (16 * ti.SCAN_GRID, 1)]
    assert [len(lanes[0]), len(lanes[2])] == [1, 3]
    message = "scan found 3 symmetric roots, classification expects 5"
    assert isinstance(lanes[1], RuntimeError) and str(lanes[1]) == message
    with pytest.raises(RuntimeError, match=message):
        ti.solve_symmetric_roots(sweep[1])


def test_threshold_raises_what_a_midpoint_scan_raises(monkeypatch):
    # a scan that raises at the sixth midpoint (1.953125) ends the predicted
    # path there, and the batch raises its error, as the scan-by-scan
    # bisection does
    setup = ti._scan_setup

    def out_of_range_near_the_transition(params):
        if 1.95 < params.beta < 1.955:
            raise ti.FloatRangeError(f"no scan at beta = {params.beta!r}")
        return setup(params)

    monkeypatch.setattr(ti, "_scan_setup", out_of_range_near_the_transition)
    with pytest.raises(ti.FloatRangeError) as scan_by_scan:
        _scan_by_scan_threshold(-1.0, 2, 1.5, 2.5)
    assert str(scan_by_scan.value) == "no scan at beta = 1.953125"
    scans = _counting_scans(monkeypatch)
    with pytest.raises(ti.FloatRangeError, match=re.escape(str(scan_by_scan.value))):
        ti.locate_symmetric_threshold(-1.0, 2, 1.5, 2.5)
    # both ends, then the five midpoints before the one that raises, in one batch
    assert scans == [(ti.SCAN_GRID, 2), (ti.SCAN_GRID, 5)]


TRANSITIONS = {2: TRUE_THRESHOLD_K2, 3: TRUE_THRESHOLD_K3}
IN_RANGE = st.one_of(
    st.tuples(st.sampled_from([2, 3, 4, 5, 6, 200]), st.sampled_from([-1.0, 1.0]),
              st.floats(0.1, 3.0)),
    st.builds(lambda k, d: (k, -1.0, TRANSITIONS[k] + d), st.sampled_from([2, 3]),
              st.floats(-0.03, 0.03)))
# past the float range: theta^-k overflows at k = 200, p^2 at k = 2, and
# a = 2 theta^(k+1) underflows at k = 10
PAST_RANGE = st.one_of(st.tuples(st.just(200), st.just(-1.0), st.floats(3.6, 5.0)),
                       st.tuples(st.just(2), st.just(-1.0), st.floats(178.0, 300.0)),
                       st.tuples(st.just(10), st.just(-1.0), st.floats(68.0, 70.0)))


def _outcome(call):
    try:
        return [np.array(r, dtype=float).view(np.int64).tolist() for r in call()]
    except Exception as bad:     # compared by type and message
        return type(bad), str(bad)


@settings(max_examples=40, deadline=None)
@given(sets=st.integers(1, 40).flatmap(lambda n: st.lists(IN_RANGE, min_size=n, max_size=n)),
       past=st.lists(st.tuples(st.integers(0, 40), PAST_RANGE), max_size=2))
def test_lanes_equal_the_per_params_loop(sets, past):
    # one scan of every parameter set as lanes gives each set the bits of its
    # own scan, or raises at the first set that fails, with its message
    for i, bad in past:
        sets.insert(i, bad)
    sweep = [ModelParams(k, 2, J, beta) for k, J, beta in sets]

    def loop():
        return [ti.solve_symmetric_roots(p) for p in sweep]

    assert _outcome(lambda: ti.symmetric_root_lanes(sweep)) == _outcome(loop)


@pytest.mark.parametrize("k", [2, 3, 4, 6, 10, 20])
def test_large_beta_is_solved_or_out_of_float_range(k):
    # from beta = 19.5 (k = 2) to 16.5 (k = 20) the tangency point x1 = b/x2
    # cancelled to 0 when computed as (-p - sq)/2; every beta now either
    # gets the classification's count or raises FloatRangeError, and once
    # raised, it raises for every larger beta
    out_of_range = False
    for beta in np.arange(0.5, 746.0, 0.5).tolist():
        try:
            p = ModelParams(k, 2, -1.0, beta)
        except ValueError:      # theta = exp(-beta) underflows
            break
        try:
            found = len(ti.solve_symmetric_roots(p))
        except ti.FloatRangeError:
            out_of_range = True
            continue
        assert not out_of_range, beta
        form = ti.ReducedForm.from_params(p)
        count, label, _ = ti.classify_scalar_family(form.a, form.b, k)
        assert label == ti.BOUNDARY_TWO or found == count, beta
    assert out_of_range


def test_threshold_is_wedge_entry():
    # at the located transition the curve crosses the lower tangency level
    p = ModelParams(k=2, m=2, J=-1.0, beta=TRUE_THRESHOLD_K2)
    form = ti.ReducedForm.from_params(p)
    info = ti.scalar_family_info(form.b, 2)
    assert form.a == pytest.approx(info.nu1, rel=1e-7)


def test_solutions_satisfy_field_residual(fm_params, fm_roots):
    for z in fm_roots:
        fld = boundary.constant_field(np.array([0.0, math.log(z)]), fm_params, 2)
        assert boundary.compatibility_residual(fld, fm_params) <= 1e-10


def test_solve_full_afm_unique(afm_params):
    sols = ti.solve(afm_params).full_solutions
    assert len(sols) == 1
    assert sols[0][0] == pytest.approx(1.0, abs=1e-12)


def test_solve_full_fm_below_transition():
    p = ModelParams(k=2, m=2, J=-1.0, beta=0.5)
    sols = ti.solve(p).full_solutions
    assert len(sols) == 1
    assert sols[0][0] == pytest.approx(1.0, abs=1e-12)


def test_solve_full_fm_above_transition(fm_params, fm_roots):
    sols = ti.solve_full(fm_params, symmetric_roots=fm_roots)
    # contains the whole symmetric branch
    sym = [s for s in sols if abs(s[0] - 1.0) <= 1e-9]
    assert len(sym) == 3
    for (_, z1), z in zip(sym, fm_roots):
        assert z1 == pytest.approx(z, rel=1e-9)
    # extras pair up under the spin flip (z0, z1) -> (1/z0, z1/z0)
    extras = [s for s in sols if abs(s[0] - 1.0) > 1e-9]
    assert len(extras) % 2 == 0
    for z0, z1 in extras:
        partner = min(extras, key=lambda s: abs(s[0] - 1 / z0) + abs(s[1] - z1 / z0))
        assert partner[0] == pytest.approx(1 / z0, rel=1e-7)
        assert partner[1] == pytest.approx(z1 / z0, rel=1e-7)
    # every solution is confirmed by the finite-volume oracle
    from sostree import measure
    for z0, z1 in sols:
        fld = boundary.constant_field(np.array([math.log(z0), math.log(z1)]), fm_params, 2)
        assert measure.compatibility_oracle(fld, fm_params, 2) <= 1e-10


def test_solve_full_slice_is_exact():
    # slice entries are the symmetric roots verbatim, never a Newton limit
    # a few ulps off z0 = 1
    rng = random.Random(1)
    for _ in range(40):
        p = ModelParams(k=rng.randint(2, 6), m=2, J=-1.0, beta=rng.uniform(0.3, 3.0))
        roots = ti.solve_symmetric_roots(p)
        for z0, z1 in ti.solve_full(p, symmetric_roots=roots):
            if abs(z0 - 1.0) < 1e-6:
                assert z0 == 1.0 and z1 in roots, (p, z0, z1)


def test_solve_full_leaves_out_slice_roots_past_the_weight_range():
    # theta^-k = e^708.5: the top symmetric root is a float, but its weight
    # lies past LOG_WEIGHT_MAX like any off-slice solution there
    p = ModelParams(k=200, m=2, J=-1.0, beta=3.5425)
    roots = ti.solve_symmetric_roots(p)
    assert math.log(roots[2]) > ti.LOG_WEIGHT_MAX
    assert ti.solve_full(p, symmetric_roots=roots) == [(1.0, z) for z in roots[:2]]


def _certified_off_slice_count(params: ModelParams) -> int:
    # with z0 = u^k, z1 = w(u) off the slice, the solutions are the real roots
    # u > 0, u != 1 with w(u) > 0 of w D^k - P^k (degree k^2), here isolated
    # exactly over the rational value of the float theta
    k, th, u = params.k, sympy.Rational(params.theta), sympy.Symbol("u")
    w = sympy.Poly((u * sum(u**j for j in range(k - 1))
                    - th**2 * sum(u**j for j in range(k + 1))) / th, u)
    d = sympy.Poly(th**2 * u**k + 1, u) + th * w
    p = sympy.Poly(th * u**k + th, u) + w
    poly = (w * d**k - p**k).sqf_part()
    assert poly.degree() <= k * k
    count = 0
    for (a, b), _ in poly.intervals(inf=0, eps=sympy.Rational(1, 10**20)):
        if b <= 0 or (a <= 1 <= b and poly.eval(1) == 0):
            continue
        # w does not vanish at a root (there the polynomial is -(theta u^k + theta)^k)
        wa, wb = w.eval(a), w.eval(b)
        assert wa * wb > 0
        count += bool(wa > 0)
    return count


@settings(max_examples=25, deadline=None)
@given(k=st.integers(2, 5), J=st.sampled_from([-1.0, 1.0]), beta=st.floats(0.3, 3.0))
def test_solve_full_off_slice_count_is_certified(k, J, beta):
    p = ModelParams(k=k, m=2, J=J, beta=beta)
    found = sum(z0 != 1.0 for z0, _ in ti.solve(p).full_solutions)
    assert found == _certified_off_slice_count(p)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 200])
@pytest.mark.parametrize("J", [-1.0, 1.0])
def test_solve_full_is_closed_under_the_spin_flip(k, J):
    # (z0, z1) -> (1/z0, z1/z0) maps solutions to solutions; each image whose
    # weights are normal floats is listed too
    for beta in (0.5, 1.612, 2.3, 3.0):
        p = ModelParams(k=k, m=2, J=J, beta=beta)
        hs = np.log(np.array(ti.solve(p).full_solutions))
        for h0, h1 in hs:
            image = np.array([-h0, h1 - h0])
            if np.max(np.abs(image)) <= ti.LOG_WEIGHT_MAX:
                gap = np.min(np.max(np.abs(hs - image), axis=1))
                assert gap <= ti.DEDUPE_TOL * max(1.0, np.max(np.abs(image))), (p, h0, h1)


def test_solve_full_is_quiet_at_k_200():
    # the u-scan reaches u^k = e^708 and w down to its zeros; nothing may
    # overflow or divide by zero.  At beta = 3 the pure-state pair near
    # h = +-(1200, 600) lies past the float range and is left out
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        counts = [len(ti.solve(ModelParams(200, 2, -1.0, beta)).full_solutions)
                  for beta in (0.5, 1.612, 3.0)]
    assert counts == [7, 7, 5]


def test_beta_trend_of_outer_roots():
    # low root shrinks and high root grows along increasing beta
    zs = [ti.solve_symmetric_roots(ModelParams(k=2, m=2, J=-1.0, beta=b))
          for b in (2.0, 3.0, 4.0, 5.0)]
    assert all(len(r) == 3 for r in zs)
    lows = [r[0] for r in zs]
    highs = [r[2] for r in zs]
    assert all(b < a for a, b in zip(lows, lows[1:]))
    assert all(b > a for a, b in zip(highs, highs[1:]))


def test_general_m_iteration_theta_one():
    p = ModelParams(k=2, m=3, J=0.0, beta=2.0)
    report = reference.iterate_general_m(p)
    assert report.converged and report.iterations == 1
    np.testing.assert_array_equal(report.h, np.zeros(3))


def test_general_m_iteration_m2_lands_on_symmetric_root(fm_params, fm_roots):
    report = reference.iterate_general_m(fm_params)
    assert report.converged
    assert report.residual <= 1e-10
    z = math.exp(report.h[1])
    assert min(abs(z - r) for r in fm_roots) <= 1e-8
    assert abs(report.h[0]) <= 1e-12


def test_general_m_iteration_m3_probe():
    # exploratory: record convergence and the symmetry flag, no truth claim
    p = ModelParams(k=2, m=3, J=-1.0, beta=2.0)
    report = reference.iterate_general_m(p)
    assert report.converged
    assert report.residual <= 1e-10
    assert isinstance(report.symmetric, bool)


def test_solve_assembles_solution_set(fm_params):
    result = ti.solve(fm_params)
    assert result.classification == ti.THREE
    assert result.beta_cr == pytest.approx(math.log(17) / 2, abs=1e-12)
    sym = [tuple(s) for s in result.full_solutions if abs(s[0] - 1) < 1e-9]
    assert len(sym) == 3
    payload = result.to_json_dict()
    assert set(payload) == {"params", "classification", "symmetric_roots",
                            "full_solutions", "beta_cr"}


def test_solve_scans_symmetric_roots_once(monkeypatch, fm_params):
    calls = []
    original = ti.solve_symmetric_roots

    def counted(params):
        calls.append(params)
        return original(params)

    monkeypatch.setattr(ti, "solve_symmetric_roots", counted)
    result = ti.solve(fm_params)
    assert len(calls) == 1
    assert len([s for s in result.full_solutions if s[0] == 1.0]) == 3


def test_solve_full_scans_one_mirror_half(monkeypatch, fm_params, fm_roots):
    # the u > 1 roots are the spin-flip images 1/u of the u < 1 roots, so one
    # u-scan, over u < 1, seeds every off-slice solution
    scans = []

    def recording(fdf, lo, hi, n_grid=4096):
        scans.append((lo, hi))
        return roots.find_roots(fdf, lo, hi, n_grid)

    monkeypatch.setattr(ti, "find_roots", recording)
    sols = ti.solve_full(fm_params, symmetric_roots=fm_roots)
    assert len(scans) == 1 and scans[0][1] < 1.0
    assert any(z0 < 1.0 for z0, _ in sols) and any(z0 > 1.0 for z0, _ in sols)
