import json
import math
import random
import re
import sys
import warnings

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sostree import boundary, cli, roots, ti
from sostree.model import ModelParams, UsageError

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
    # a NaN, -inf or subnormal J gave NaN, 0.0 or inf
    for J in (math.nan, -math.inf, -1e-320):
        with pytest.raises(ValueError):
            ti.critical_beta(J, 2)
    assert ti.critical_beta(-1e-300, 2) == pytest.approx(math.log(17) / 2e-300, rel=1e-14)


@pytest.mark.parametrize("J", [-1.0, -0.3, -2.5])
def test_critical_beta_is_within_two_ulps_at_every_order(J):
    # the paper's ln((k^2+6k+1)/(k-1)^2) / (-2J) in mpmath, with 60 digits
    # beyond the ratio's distance from 1; at k = 10^20 the direct float ratio
    # rounds to 1 and gave beta_cr = -0.0
    orders = (list(range(2, 5001)) + [10 ** e for e in range(6, 301)]
              + [7 * 10 ** e + 3 for e in range(6, 301)])
    for k in orders:
        beta = ti.critical_beta(J, k)
        assert beta > 0
        with mpmath.workdps(60 + 2 * len(str(k))):
            exact = mpmath.log(mpmath.mpf(k * k + 6 * k + 1) / (k - 1) ** 2) / (-2 * mpmath.mpf(J))
            assert float(abs(mpmath.mpf(beta) - exact)) <= 2 * math.ulp(float(exact)), k


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


M3 = ModelParams(k=2, m=3, J=-1.0, beta=2.0)


@pytest.mark.parametrize("call, error, message", [
    (lambda: ti.scalar_family_info(0.0, 2), ValueError, "b must be positive"),
    (lambda: ti.classify_scalar_family(0.0, 1.0, 2), ValueError, "a and b must be positive"),
    (lambda: ti.solve_symmetric_roots(M3), UsageError,
     "the symmetric-slice solver is specific to m = 2"),
    (lambda: ti.solve_full(M3, []), UsageError, "the 2D solver is specific to m = 2"),
], ids=["family-info-b", "classify-a", "symmetric-m3", "full-m3"])
def test_ti_refusals(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


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


def _scan_by_scan_threshold(J, k, lo, hi):
    # the bisection on the root count with one scan per beta, in the order
    # the betas are visited, down to ti.THRESHOLD_TOL
    def count(beta):
        return len(ti.solve_symmetric_roots(ModelParams(k=k, m=2, J=J, beta=beta)))

    c_lo, c_hi = count(lo), count(hi)
    if c_lo != 1 or c_hi < 3:
        raise ValueError(f"bracket does not straddle the transition: counts {c_lo}, {c_hi}")
    while hi - lo > ti.THRESHOLD_TOL:
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
    # the float of the scan-by-scan bisection, or its error where the bracket
    # does not straddle the transition (1.0-1.9 and 1.6-2.0); one batch scans
    # both ends, and one more the midpoints that bisection visits, each once
    monkeypatch.setattr(ti, "THRESHOLD_TOL", tol)
    lanes = ti.symmetric_root_lanes
    batches = []

    def recording(sweep):
        batches.append([p.beta for p in sweep])
        return lanes(sweep)

    def run(locate):
        batches.clear()
        try:
            return locate(-1.0, k, lo, hi)
        except ValueError as bad:
            return type(bad), str(bad)

    monkeypatch.setattr(ti, "symmetric_root_lanes", recording)
    expected = run(_scan_by_scan_threshold)
    visited = [beta for batch in batches for beta in batch]
    assert run(ti.locate_symmetric_threshold) == expected
    assert batches[0] == visited[:2] == [lo, hi]
    if isinstance(expected, float):
        assert len(batches) == 2 and len(batches[1]) > 20
        assert sorted(batches[1]) == sorted(visited[2:])
    else:
        assert len(batches) == 1 and len(visited) == 2


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

    def counting(fdf, lo, hi, n_grid=4096, sign=None, quiet=None):
        scans.append(len(lo))
        return roots.find_roots(fdf, lo, hi, n_grid, sign, quiet)

    monkeypatch.setattr(ti, "find_roots", counting)
    assert ti.locate_symmetric_threshold(-1.0, k, 1.0, 2.5) == expected
    assert scans[0] == 2 and set(scans[1:]) == {1} and len(scans) > 20


def _counting_scans(monkeypatch):
    """Patch ti's find_roots to record (grid, lanes) of each scan."""
    scans = []

    def counting(fdf, lo, hi, n_grid=4096, sign=None, quiet=None):
        scans.append((n_grid, len(lo)))
        return roots.find_roots(fdf, lo, hi, n_grid, sign, quiet)

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
    # a classification that expects 5 roots at beta = 2 is never met: every
    # lane is scanned, and the batch raises that lane's error, or the error
    # of an earlier set that failed
    setup = ti._scan_setup

    def five_at_two(params):
        bounds, count = setup(params)
        return bounds, 5 if params.beta == 2.0 else count

    monkeypatch.setattr(ti, "_scan_setup", five_at_two)
    scans = _counting_scans(monkeypatch)
    sweep = [ModelParams(k=2, m=2, J=-1.0, beta=b) for b in (1.0, 2.0, 2.5)]
    message = "scan found 3 symmetric roots, classification expects 5"
    with pytest.raises(RuntimeError, match=f"^{message}$"):
        ti.symmetric_root_lanes(sweep)
    assert scans == [(ti.SCAN_GRID, 3), (16 * ti.SCAN_GRID, 1)]
    assert [len(r) for r in ti.symmetric_root_lanes([sweep[0], sweep[2]])] == [1, 3]
    with pytest.raises(RuntimeError, match=f"^{message}$"):
        ti.solve_symmetric_roots(sweep[1])
    # theta^(-k) = e^800 leaves the float range before or after that lane
    past = ModelParams(k=200, m=2, J=-1.0, beta=4.0)
    with pytest.raises(RuntimeError, match=f"^{message}$"):
        ti.symmetric_root_lanes(sweep + [past])
    with pytest.raises(ti.FloatRangeError):
        ti.symmetric_root_lanes([past] + sweep)


def test_threshold_raises_what_a_scan_raises_mid_path(monkeypatch):
    # a classification that expects 5 roots at the third midpoint (1.875)
    # predicts a path past it; the batch scans that path and raises the
    # error of that midpoint, the first failing beta the bisection reaches,
    # as the scan-by-scan bisection does
    setup = ti._scan_setup

    def five_at_third_midpoint(params):
        bounds, count = setup(params)
        return bounds, 5 if params.beta == 1.875 else count

    monkeypatch.setattr(ti, "_scan_setup", five_at_third_midpoint)
    message = "scan found 1 symmetric roots, classification expects 5"
    with pytest.raises(RuntimeError, match=f"^{message}$"):
        _scan_by_scan_threshold(-1.0, 2, 1.5, 2.5)
    scans = _counting_scans(monkeypatch)
    with pytest.raises(RuntimeError, match=f"^{message}$"):
        ti.locate_symmetric_threshold(-1.0, 2, 1.5, 2.5)
    # both ends, the predicted path of every midpoint, then 1.875 again
    assert scans == [(ti.SCAN_GRID, 2), (ti.SCAN_GRID, 24), (16 * ti.SCAN_GRID, 1)]


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


# the beta of the slice fold at J = -1, where two symmetric roots are born
SLICE_FOLD = {2: 1.956215431644924, 3: 1.4957444124352473}
NEAR_FOLD = st.builds(lambda k, d: (k, -1.0, SLICE_FOLD[k] + d), st.sampled_from([2, 3]),
                      st.floats(-1e-9, 1e-9))
WIDE_RANGE = st.tuples(st.sampled_from([2, 3, 4, 10, 20, 50, 200, 1000]),
                       st.sampled_from([-1.0, 1.0]), st.floats(1e-4, 1.0)).map(
    lambda s: (s[0], s[1], s[2] * 700.0 / s[0]))


@settings(max_examples=30, deadline=None)
@given(sets=st.lists(st.one_of(IN_RANGE, NEAR_FOLD, WIDE_RANGE), min_size=5, max_size=64),
       grid=st.sampled_from([8, 256, 4096]))
def test_two_level_lanes_equal_the_per_params_loop(sets, grid):
    # more than FEW_JOBS lanes scan their grid in two levels; each set keeps
    # the bits (or the error) of its own one-level scan, on coarse grids too,
    # where lanes miss roots and rescan together on the 16x grid
    sweep = [ModelParams(k, 2, J, beta) for k, J, beta in sets]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ti, "SCAN_GRID", grid)
        assert _outcome(lambda: ti.symmetric_root_lanes(sweep)) == \
            _outcome(lambda: [ti.solve_symmetric_roots(p) for p in sweep])


def test_two_level_rescans_of_many_lanes_keep_their_bits(monkeypatch):
    # on an 8-point grid half of these 3-root lanes miss roots, so more than
    # FEW_JOBS lanes rescan as one two-level scan of 128 points (two cells)
    monkeypatch.setattr(ti, "SCAN_GRID", 8)
    scans = _counting_scans(monkeypatch)
    sweep = [ModelParams(2, 2, -1.0, beta) for beta in np.linspace(1.96, 2.2, 12).tolist()]
    together = _outcome(lambda: ti.symmetric_root_lanes(sweep))
    assert scans[0] == (8, 12) and scans[1][0] == 128 and scans[1][1] > roots.FEW_JOBS
    assert together == _outcome(lambda: [ti.solve_symmetric_roots(p) for p in sweep])
    assert [len(r) for r in together] == [3] * 12


@settings(max_examples=200, deadline=None)
@given(k=st.integers(1, 1000), theta=st.floats(0.05, 20.0), data=st.data())
def test_the_slice_sign_agrees_with_the_residual_where_it_commits(k, theta, data):
    # math.log and math.exp decide a sign only where it is numpy's, on the
    # scan's grid and next to its roots
    params = ModelParams.from_theta(k, 2, theta)
    try:
        (lo, hi), _ = ti._scan_setup(params)
        found = ti.solve_symmetric_roots(params)
    except (ValueError, RuntimeError):    # past the float range
        return
    grid = st.integers(0, ti.SCAN_GRID - 1).map(
        lambda i: float(roots._log_grid(lo, hi, ti.SCAN_GRID)[i]))
    near = st.builds(lambda z, r: z * (1.0 + r), st.sampled_from(found), st.floats(-1e-6, 1e-6))
    z = data.draw(st.one_of(grid, near))
    sign = ti._slice_scan([params])[1](z, 0)
    with np.errstate(over="ignore", invalid="ignore"):    # as in the scan
        f = float(ti._slice_scan([params])[0](np.float64(z), 0)[0])
    assert sign in (-1.0, 0.0, 1.0)
    if sign:
        assert f != 0.0 and sign == math.copysign(1.0, f)


def test_the_slice_sign_commits_only_to_numpy_signs_next_to_roots():
    # within 64 ulps of a root libm's and numpy's residuals can differ in
    # sign; the hook must leave every such point to numpy
    rng = random.Random(31)
    checked = 0
    for _ in range(300):
        params = ModelParams.from_theta(rng.randint(1, 1000), 2, rng.uniform(0.05, 20.0))
        try:
            found = ti.solve_symmetric_roots(params)
        except (ValueError, RuntimeError):    # past the float range
            continue
        residual, sign, _ = ti._slice_scan([params])
        for root in found:
            for z in (root + i * math.ulp(root) for i in range(-64, 65)):
                with np.errstate(over="ignore", invalid="ignore"):
                    f = float(residual(np.float64(z), 0)[0])
                committed = sign(z, 0)
                assert not committed or (f != 0.0 and committed == math.copysign(1.0, f))
                checked += 1
    assert checked > 10_000


# sets whose low root lies below 1e-150, where a product of two residuals underflows
TINY_ROOTS = [(50, -1.0, 10.0), (100, -1.0, 5.0), (100, 1.0, 5.0), (200, -1.0, 3.0),
              (200, 1.0, 3.0)]


def test_symmetric_roots_keep_their_bits_under_the_sign_hook(monkeypatch):
    # each set scanned alone takes its bisection signs from the hook where it
    # commits; its roots, or its error, are those of a scan on numpy alone
    rng = random.Random(30)
    sets = TINY_ROOTS + [(rng.randint(1, 1000), rng.choice([1.0, -1.0, -0.3, 2.0, -3.0]),
                          rng.uniform(0.01, 6.0)) for _ in range(300)]
    sweeps = [[ModelParams(k, 2, J, beta)] for k, J, beta in sets]
    assert all(ti.solve_symmetric_roots(s[0])[0] < 1e-150 for s in sweeps[:len(TINY_ROOTS)])
    commits = []

    def counted_scan(sweep):
        fdf, sign, quiet = real_scan(sweep)

        def counting(z, lane):
            commits.append(sign(z, lane))
            return commits[-1]

        return fdf, counting, quiet

    real_scan = ti._slice_scan
    monkeypatch.setattr(ti, "_slice_scan", counted_scan)
    hooked = [_outcome(lambda: ti.symmetric_root_lanes(s)) for s in sweeps]
    assert sum(c != 0.0 for c in commits) > len(commits) / 2 > 0
    real_find_roots = ti.find_roots
    monkeypatch.setattr(ti, "find_roots", lambda fdf, lo, hi, n_grid, sign=None, quiet=None:
                        real_find_roots(fdf, lo, hi, n_grid))
    assert hooked == [_outcome(lambda: ti.symmetric_root_lanes(s)) for s in sweeps]


def _quiet_cell_sets():
    """Lane batches for the quiet hook: random beta at k = 2..10, 20, 50,
    200 and 1000 and both signs of J; theta a little below (k-1)/(k+1),
    where psi' peaks just above 1 inside one coarse cell; FM k beta past
    345, where the scan runs to 1e300 and (2t + z)(1 + t^2 + t z) overflows;
    beta within 1e-9 of the slice fold."""
    rng = random.Random(42)
    for k in [*range(2, 11), 20, 50, 200, 1000]:
        for J in (-1.0, 1.0):
            yield [ModelParams(k, 2, J, 700.0 / k * 10.0 ** rng.uniform(-4.0, 0.0))
                   for _ in range(12)]
        yield [ModelParams(k, 2, -1.0, k_beta / k) for k_beta in (400.0, 550.0, 690.0)]
        yield [ModelParams.from_theta(k, 2, (k - 1) / (k + 1) * (1.0 - 10.0 ** -j))
               for j in range(2, 9)]
    for k, fold in SLICE_FOLD.items():
        yield [ModelParams(k, 2, -1.0, fold + d) for d in (-1e-9, -1e-10, 0.0, 1e-10, 1e-9)]


def _scannable(params):
    try:
        ti._scan_setup(params)
    except ValueError:    # past the float range
        return False
    return True


def _one_sign(v):
    return bool(np.all(v > 0) or np.all(v < 0))


def test_quiet_cells_hold_one_sign_of_f_and_f_prime():
    # every coarse cell the hook calls quiet has one strict sign of f and one
    # of f' at every point of the full grid inside it; among the cells are
    # ones whose ends agree in f and f' while f' changes sign twice inside
    # (psi' peaking just above 1), ones around a nascent root pair, and ones
    # where numpy's f' is -1 because the product in psi' overflows
    n = ti.SCAN_GRID
    coarse = np.r_[0:n - 1:roots.COARSE_STEP, n - 1]
    quiet_cells = hidden_turns = cells = overflowed = 0
    for sweep in _quiet_cell_sets():
        sweep = [p for p in sweep if _scannable(p)]
        if not sweep:
            continue
        bounds = [ti._scan_setup(p)[0] for p in sweep]
        fdf, _, quiet = ti._slice_scan(sweep)
        xs = np.array([roots._log_grid(lo, hi, n) for lo, hi in bounds])
        lanes = np.arange(len(sweep))
        with np.errstate(over="ignore", invalid="ignore"):
            f, df = (np.asarray(v).reshape(xs.shape)
                     for v in fdf(xs.ravel(), np.repeat(lanes, n)))
            verdict = quiet(xs[:, coarse], f[:, coarse], df[:, coarse], lanes)
            two_t, one_plus, _, t, _ = (np.array(column)[:, None] for column in
                                        zip(*(ti.SliceMap(p.theta, p.k).terms for p in sweep)))
            z = xs[:, coarse[1:]]
            overflowed += np.sum(verdict & ((two_t + z) * (one_plus + t * z) == np.inf))
        assert verdict.shape == (len(sweep), len(coarse) - 1)
        for lane, cell in np.ndindex(verdict.shape):
            part = slice(coarse[cell], coarse[cell + 1] + 1)
            ends = [coarse[cell], coarse[cell + 1]]
            smooth = _one_sign(f[lane, part]) and _one_sign(df[lane, part])
            if verdict[lane, cell]:
                assert smooth, (sweep[lane], cell)
            hidden_turns += (_one_sign(f[lane, ends]) and _one_sign(df[lane, ends])
                             and not _one_sign(df[lane, part]))
            quiet_cells += bool(verdict[lane, cell])
            cells += 1
    assert hidden_turns >= 4 and overflowed > 100 and quiet_cells > 0.8 * cells


def _exact_slice(terms, z):
    """psi(z) - z and its derivative in mpmath, from the float terms of the scan."""
    two_t, one_plus, _, t, k = (mpmath.mpf(v) for v in terms)
    z = mpmath.mpf(z)
    num, den = two_t + z, one_plus + t * z
    p = (num / den) ** k
    return p - z, k * p * (one_plus - t * two_t) / (num * den) - 1


SIZES = np.geomspace(1e-320, 1e300, 20001)


def _threshold(quiet, z, sizes, sign, f_part):
    """The largest of the ascending `sizes` below the smallest that the hook
    calls quiet on the cell z, given with `sign` as f (f_part) or as f' at
    both ends, the other one far from zero: a lower bound of its threshold.
    None where no size is quiet."""
    rows = len(sizes)
    v = np.repeat(sign * np.asarray(sizes)[:, None], 2, axis=1)
    far = np.full((rows, 2), sign * 1e300)
    zs = np.repeat(np.asarray(z)[None, :], rows, axis=0)
    with np.errstate(over="ignore", invalid="ignore"):    # as in the scan
        verdict = quiet(zs, v, far, np.zeros(rows, dtype=int)) if f_part \
            else quiet(zs, far, v, np.zeros(rows, dtype=int))
    assert not verdict[0, 0]
    return sizes[np.argmax(verdict[:, 0]) - 1] if verdict[-1, 0] else None


@pytest.mark.parametrize("k, theta", [(100, 1e-3), (30, 1e-9), (2, 0.3), (3, 0.3), (10, 0.5),
                                      (200, 0.99), (2, 4.0), (1000, 1.2)])
def test_the_quiet_bounds_cover_numpy_rounding(k, theta):
    # on a cell of relative width 2e-12 around each root, half the hook's
    # threshold for f, and for f', is at least numpy's distance from the
    # exact psi(z) - z and its derivative (from the same float terms) at 101
    # points of the cell
    params = ModelParams.from_theta(k, 2, theta)
    fdf, _, quiet = ti._slice_scan([params])
    terms = ti.SliceMap(theta, k).terms
    for root in ti.solve_symmetric_roots(params):
        z = np.array([root * (1 - 1e-12), root * (1 + 1e-12)])
        points = np.linspace(z[0], z[1], 101)
        with np.errstate(over="ignore", invalid="ignore"):
            f, df = fdf(points, np.zeros(points.size, dtype=int))
        exact = [_exact_slice(terms, x) for x in points.tolist()]
        f_err = max(float(abs(a - e)) for a, (e, _) in zip(f.tolist(), exact))
        df_err = max(float(abs(a - e)) for a, (_, e) in zip(df.tolist(), exact))
        slope = float(exact[50][1])
        f_at, df_at = (_threshold(quiet, z, SIZES, sign, part)
                       for sign, part in ((1.0, True), (math.copysign(1.0, slope), False)))
        if f_at is None or df_at is None:    # only where (2t + z)(1 + t^2 + t z) overflows
            assert root * root * theta > 1e308
            continue
        assert f_at / 2 >= f_err and df_at / 2 >= df_err


@pytest.mark.parametrize("k, theta", [(100, 1e-3), (60, 1e-4), (2, 0.3), (200, 0.99),
                                      (1000, 1.2)])
def test_the_quiet_bound_covers_rounding_the_map_arguments(k, theta):
    # numpy rounds 2t + z within half an ulp and 1 + t^2 + t z (a product,
    # then a sum) within one; half the hook's f threshold on a cell around
    # each root covers the largest change of psi such roundings make at the
    # cell's ends (mpmath).  At k = 100, theta = 1e-3 that change, about
    # 1.5 k eps psi, is 4 times the log and exp terms of the bound: only its
    # 2 k eps term covers it
    params = ModelParams.from_theta(k, 2, theta)
    _, _, quiet = ti._slice_scan([params])
    two_t, one_plus, _, t, _ = (mpmath.mpf(v) for v in ti.SliceMap(theta, k).terms)
    u = mpmath.mpf(2) ** -53
    for root in ti.solve_symmetric_roots(params):
        z = np.array([root * (1 - 1e-12), root * (1 + 1e-12)])
        change = 0.0
        with mpmath.workdps(50):
            for end in z.tolist():
                num, den = two_t + end, one_plus + t * end
                exact = (num / den) ** k
                change = max(change, *(float(abs((num * (1 + s * u) / (den * (1 - 2 * s * u))) ** k
                                                 - exact)) for s in (-1, 1)))
        threshold = _threshold(quiet, z, SIZES, 1.0, True)
        assert threshold is None or threshold / 2 >= change


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
    sols = ti.solve(afm_params)["full_solutions"]
    assert len(sols) == 1
    assert sols[0][0] == pytest.approx(1.0, abs=1e-12)


def _afm_sets():
    # theta >= 1: J in {0.3, 1, 2} with beta log-uniform from 1e-4 up to where
    # 2 theta^(k+1) of the reduced family nears the float limit, and theta = 1
    rng = random.Random(40)
    for k in [*range(1, 11), 20, 50, 200, 1000]:
        yield ModelParams.from_theta(k, 2, 1.0)
        for J in (0.3, 1.0, 2.0):
            beta_max = 700.0 / ((k + 1) * J)
            for _ in range(25):
                yield ModelParams(k, 2, J, 1e-4 * (beta_max / 1e-4) ** rng.random())


def _k1_fm_sets():
    # k = 1, theta < 1: J in {-0.3, -1, -2} with beta log-uniform from 1e-4
    # up to where theta^2 of the reduced family nears the float limit
    rng = random.Random(41)
    for J in (-0.3, -1.0, -2.0):
        for _ in range(25):
            yield ModelParams(1, 2, J, 1e-4 * (350.0 / -J / 1e-4) ** rng.random())


def test_solve_full_at_theta_at_least_one_skips_a_search_that_finds_nothing():
    # w < 0 for every u > 0 at theta >= 1, and at k = 1 (w = -theta (1 + u)),
    # so solve_full returns the slice alone; the pure-state Newton search it
    # skips keeps no row either
    sets = list(_afm_sets())
    assert len(sets) >= 1000 and min(p.theta for p in sets) == 1.0
    for p in sets + list(_k1_fm_sets()):
        kept, h_max = reference.pure_state_polish(p)
        assert kept == [], p
        roots = ti.solve_symmetric_roots(p)
        assert ti.solve_full(p, roots) == [(1.0, z) for z in roots
                                           if abs(math.log(z)) <= h_max], p


def _k1_root(theta):
    """The positive root of z^2 + theta z - 2 = 0, z = psi(z) at k = 1, in mpmath."""
    with mpmath.workdps(60):
        t = mpmath.mpf(theta)
        return 4 / (t + mpmath.sqrt(t * t + 8))


def test_k1_slice_root_is_the_closed_form():
    # psi is Möbius at k = 1, and within about theta of the identity as
    # theta -> 0, where a sign scan of psi(z) - z loses the root; the closed
    # form is within a few ulps at every theta where the root is a normal
    # float, also where theta^2 of the reduced family leaves the floats, and
    # solve labels it UNIQUE there
    for theta in np.geomspace(1e-300, 1e300, 601).tolist():
        params = ModelParams.from_theta(1, 2, theta)
        z, = ti.solve_symmetric_roots(params)
        exact = _k1_root(theta)
        assert float(abs(z - exact)) <= 3 * math.ulp(float(exact)), theta
        assert ti.solve(params)["classification"] == ti.UNIQUE
    # past theta = 9e307 the root 2/theta is subnormal: refused
    for theta in (1e308, sys.float_info.max):
        with pytest.raises(ti.FloatRangeError):
            ti.solve_symmetric_roots(ModelParams.from_theta(1, 2, theta))


@pytest.mark.parametrize("beta", [30, 40])
def test_k1_strong_coupling_solves(beta, capsys):
    # the 4096-point scan gave z = 1.4146494530529243 at beta = 30, 3e-4 off,
    # and found 3180 roots at beta = 40
    assert cli.main(["solve-ti", "--k", "1", "--J", "-1", "--beta", str(beta)]) == 0
    report = json.loads(capsys.readouterr().out)
    z, = report["symmetric_roots"]
    exact = _k1_root(math.exp(-beta))
    assert float(abs(z - exact)) <= 3 * math.ulp(float(exact))
    assert report["full_solutions"] == [[1.0, z]]


def test_solve_full_fm_below_transition():
    p = ModelParams(k=2, m=2, J=-1.0, beta=0.5)
    sols = ti.solve(p)["full_solutions"]
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
    found = sum(z0 != 1.0 for z0, _ in ti.solve(p)["full_solutions"])
    assert found == _certified_off_slice_count(p)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 200])
@pytest.mark.parametrize("J", [-1.0, 1.0])
def test_solve_full_is_closed_under_the_spin_flip(k, J):
    # (z0, z1) -> (1/z0, z1/z0) maps solutions to solutions; each image whose
    # weights are normal floats is listed too
    for beta in (0.5, 1.612, 2.3, 3.0):
        p = ModelParams(k=k, m=2, J=J, beta=beta)
        hs = np.log(np.array(ti.solve(p)["full_solutions"]))
        for h0, h1 in hs:
            image = np.array([-h0, h1 - h0])
            if np.max(np.abs(image)) <= ti.LOG_WEIGHT_MAX:
                gap = np.min(np.max(np.abs(hs - image), axis=1))
                assert gap <= ti.DEDUPE_TOL * max(1.0, np.max(np.abs(image))), (p, h0, h1)


def test_value_hook_gives_the_bits_of_the_scanned_function(monkeypatch):
    # solve_full's u-scan bisects on values alone; at a float point its hook
    # gives the bits of f that fdf gives at np.float64(x), over the scan
    # interval and next to the roots
    scans = []

    def recording(fdf, lo, hi, n_grid, sign=None, quiet=None):
        found = roots.find_roots(fdf, lo, hi, n_grid, sign, quiet)
        scans.append((fdf, lo, hi, sign, found))
        return found

    monkeypatch.setattr(ti, "find_roots", recording)
    rng = random.Random(35)
    for _ in range(40):
        k, J = rng.choice([2, 3, 4, 10, 200]), rng.choice([-1.0, -0.3, 1.0])
        try:
            ti.solve_full(ModelParams(k=k, m=2, J=J, beta=rng.uniform(0.05, 4.0)), [])
        except ValueError:    # past the float range
            pass
    assert len(scans) > 20 and all(sign is not None for *_, sign, _ in scans)
    for fdf, lo, hi, sign, found in scans:
        points = [lo * (hi / lo) ** rng.random() for _ in range(50)]
        points += [x + i * math.ulp(x) for x in found for i in range(-3, 4)]
        with np.errstate(all="ignore"):
            for x in points:
                assert np.float64(sign(x)).tobytes() == np.float64(fdf(np.float64(x))[0]).tobytes()


def test_solve_full_is_quiet_at_k_200():
    # the u-scan reaches u^k = e^708 and w down to its zeros; nothing may
    # overflow or divide by zero.  At beta = 3 the pure-state pair near
    # h = +-(1200, 600) lies past the float range and is left out
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        counts = [len(ti.solve(ModelParams(200, 2, -1.0, beta))["full_solutions"])
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
    assert result["classification"] == ti.THREE
    assert result["beta_cr"] == pytest.approx(math.log(17) / 2, abs=1e-12)
    sym = [tuple(s) for s in result["full_solutions"] if abs(s[0] - 1) < 1e-9]
    assert len(sym) == 3
    assert set(result) == {"params", "classification", "symmetric_roots",
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
    assert len([s for s in result["full_solutions"] if s[0] == 1.0]) == 3


def test_solve_full_scans_one_mirror_half(monkeypatch, fm_params, fm_roots):
    # the u > 1 roots are the spin-flip images 1/u of the u < 1 roots, so one
    # u-scan, over u < 1, seeds every off-slice solution
    scans = []

    def recording(fdf, lo, hi, n_grid=4096, sign=None, quiet=None):
        scans.append((lo, hi))
        return roots.find_roots(fdf, lo, hi, n_grid, sign, quiet)

    monkeypatch.setattr(ti, "find_roots", recording)
    sols = ti.solve_full(fm_params, symmetric_roots=fm_roots)
    assert len(scans) == 1 and scans[0][1] < 1.0
    assert any(z0 < 1.0 for z0, _ in sols) and any(z0 > 1.0 for z0, _ in sols)


@settings(max_examples=200, deadline=None)
@given(k=st.integers(1, 1000), log_theta=st.floats(-3.0, 3.0),
       x=hnp.arrays(float, st.integers(1, 12).map(lambda n: (n, 2)),
                    elements=st.floats(-700.0, 700.0)))
def test_one_coset_system_is_the_constant_law_system_bit_for_bit(k, log_theta, x):
    # solve_full's equation h = kF(h): coset_system forms h - kF(h) and
    # I - kF'(h) directly, with the bits of the block construction
    theta = 10.0 ** log_theta
    residual, jacobian = ti.coset_system([(0, (k,))], theta)
    ref_residual, ref_jacobian = reference.coset_system([(0, (k,))], theta)
    assert residual(x).tobytes() == ref_residual(x).tobytes()
    assert jacobian(x).tobytes() == ref_jacobian(x).tobytes()
    assert residual(x).tobytes() == (x - k * boundary.law_map(x, 2, theta)).tobytes()
