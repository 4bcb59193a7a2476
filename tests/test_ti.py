import math
import warnings

import numpy as np
import pytest

from sostree import boundary, ti
from sostree.model import ModelParams

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
    assert len(ti.scan_scalar_roots(0.0315, 10.0, 2)) == 3


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
        assert len(ti.scan_scalar_roots(a, b, k)) == count
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
    xs = ti.scan_scalar_roots(form.a, form.b, fm_params.k)
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
    sols = ti.solve_full(afm_params)
    assert len(sols) == 1
    assert sols[0][0] == pytest.approx(1.0, abs=1e-12)


def test_solve_full_fm_below_transition():
    p = ModelParams(k=2, m=2, J=-1.0, beta=0.5)
    sols = ti.solve_full(p)
    assert len(sols) == 1
    assert sols[0][0] == pytest.approx(1.0, abs=1e-12)


def test_solve_full_fm_above_transition(fm_params, fm_roots):
    sols = ti.solve_full(fm_params)
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
    report = ti.iterate_general_m(p)
    assert report.converged and report.iterations == 1
    np.testing.assert_array_equal(report.h, np.zeros(3))


def test_general_m_iteration_m2_lands_on_symmetric_root(fm_params, fm_roots):
    report = ti.iterate_general_m(fm_params, init=np.zeros(2))
    assert report.converged
    assert report.residual <= 1e-10
    z = math.exp(report.h[1])
    assert min(abs(z - r) for r in fm_roots) <= 1e-8
    assert abs(report.h[0]) <= 1e-12


def test_general_m_iteration_m3_probe():
    # exploratory: record convergence and the symmetry flag, no truth claim
    p = ModelParams(k=2, m=3, J=-1.0, beta=2.0)
    report = ti.iterate_general_m(p, init=np.zeros(3), max_iter=5000)
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
