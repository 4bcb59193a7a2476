import itertools
import json
import math
import re

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import reference
from sostree import boundary, cli, measure, periodic, ti
from sostree.model import ModelParams, UsageError
from sostree.roots import batched_newton
from sostree.tree import SubgroupSpec

# frozen from the solver itself after confirming the instability criterion
# held at the designated point; regression guards only
CYCLE_LOW = 0.0800034524222
CYCLE_HIGH = 0.3891711157846
CYCLE_FIXED = 0.2000528860818


def full_spec(k):
    return SubgroupSpec(k=k, parity_set=frozenset(range(1, k + 2)))


def test_slice_map_values():
    psi = ti.SliceMap(1.0, 4)
    for z in (0.0, 0.5, 3.0):
        assert float(psi(z)) == 1.0
    assert float(ti.SliceMap(2.0, 2)(0.0)) == pytest.approx(0.64, abs=1e-15)


def test_slice_map_monotonicity_and_range():
    zs = np.linspace(0.0, 50.0, 400)
    inc = ti.SliceMap(0.5, 3)
    vals = inc(zs)
    assert np.all(np.diff(vals) > 0)
    dec = ti.SliceMap(2.0, 3)
    assert np.all(np.diff(dec(zs)) < 0)
    for psi in (inc, dec):
        lo, hi = psi.range_interval()
        assert lo < hi
        assert np.all(vals >= min(inc.range_interval()) - 1e-12)


def test_slice_map_derivative_matches_finite_differences():
    rng = np.random.default_rng(0)
    for theta in (0.4, 1.07, 3.0):
        psi = ti.SliceMap(theta, 5)
        for _ in range(30):
            z = float(rng.uniform(0.01, 5.0))
            fd = (float(psi(z + 1e-6)) - float(psi(z - 1e-6))) / 2e-6
            value, slope = psi.with_deriv(z)
            assert value == psi(z)
            assert float(slope) == pytest.approx(fd, rel=1e-5, abs=1e-9)


def test_instability_value_is_slope_at_fixed_point(cycle_params):
    value, holds = periodic.cycle_instability(cycle_params,
                                              ti.solve_symmetric_roots(cycle_params))
    assert holds and value > 1.0
    assert value == pytest.approx(1.05026182719649, abs=1e-9)
    z = ti.solve_symmetric_roots(cycle_params)[0]
    psi = ti.SliceMap(cycle_params.theta, cycle_params.k)
    fd = abs((float(psi(z + 1e-6)) - float(psi(z - 1e-6))) / 2e-6)
    assert value == pytest.approx(fd, abs=1e-6)


def test_instability_small_k():
    p = ModelParams.from_theta(k=2, m=2, theta=3.0)
    value, holds = periodic.cycle_instability(p, ti.solve_symmetric_roots(p))
    assert not holds and value < 1.0
    fm = ModelParams(k=2, m=2, J=-1.0, beta=1.0)
    with pytest.raises(ValueError):
        periodic.cycle_instability(fm, ti.solve_symmetric_roots(fm))


def test_instability_checks_theta_before_scanning(monkeypatch):
    # without roots the criterion scans them itself, after refusing theta <= 1
    p = ModelParams.from_theta(k=2, m=2, theta=3.0)
    assert periodic.cycle_instability(p) == periodic.cycle_instability(
        p, ti.solve_symmetric_roots(p))
    monkeypatch.setattr(ti, "symmetric_root_lanes", None)
    with pytest.raises(ValueError, match="theta > 1 only"):
        periodic.cycle_instability(ModelParams(k=200, m=2, J=-1.0, beta=4.0))


@pytest.mark.parametrize("call, error, message", [
    (lambda: periodic.cycle_instability(ModelParams.from_theta(k=2, m=3, theta=3.0)),
     UsageError, "criterion is specific to m = 2"),
    (lambda: periodic.solve_two_cycle_symmetric(ModelParams.from_theta(k=2, m=3, theta=3.0)),
     UsageError, "the slice system is specific to m = 2"),
    (lambda: periodic.cycle_instability(ModelParams.from_theta(k=2, m=2, theta=3.0),
                                        [0.1, 0.2, 0.3]),
     RuntimeError, "expected a unique fixed point for theta > 1"),
], ids=["instability-m3", "two-cycle-m3", "instability-three-roots"])
def test_slice_cycle_refusals(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_classify_by_subgroup_scans_the_symmetric_roots_once(monkeypatch, afm_params):
    scans = []
    lanes = ti.symmetric_root_lanes
    monkeypatch.setattr(ti, "symmetric_root_lanes",
                        lambda sweep: scans.append(sweep) or lanes(sweep))
    report = periodic.classify_by_subgroup(full_spec(2), afm_params)
    assert report["instability"] is not None and len(scans) == 1


def slice_jacobian(p):
    """k DF at the slice fixed point h* = (0, ln z*) of the AFM regime."""
    z, = ti.solve_symmetric_roots(p)
    return p.k * boundary.law_map_jac(np.array([0.0, math.log(z)]), p.theta)


@pytest.mark.parametrize("k, thetas", [(2, (1.01, 1.5, 3.0, 10.0)), (3, (1.01, 1.5, 3.0, 10.0)),
                                       (6, (1.01, 1.3, 2.0, 6.0)),
                                       (200, (1.01, 1.05, 1.07, 1.1, 1.5))])
def test_kernel_jacobian_gives_the_paper_criterion(k, thetas):
    # on the slice F_0 stays 0, so DF is lower triangular there and its
    # slice entry kDF[1, 1] is the slope psi'(z*) of the paper's criterion
    for theta in thetas:
        p = ModelParams.from_theta(k=k, m=2, theta=theta)
        value, _ = periodic.cycle_instability(p, ti.solve_symmetric_roots(p))
        assert value == pytest.approx(-slice_jacobian(p)[1, 1], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("k, lo, hi", [(2, 2.02, 2.04), (3, 1.57, 1.59), (4, 1.40, 1.41),
                                       (6, 1.25, 1.26)])
def test_flip_odd_eigenvalue_crosses_minus_one_at_the_flip_pair_onset(k, lo, hi):
    # the flip-odd entry kDF[0, 0] passes -1 where the off-slice flip pairs
    # appear, while the slice slope stays far inside (-1, 0)
    jacs = [slice_jacobian(ModelParams.from_theta(k=k, m=2, theta=t)) for t in (lo, hi)]
    assert jacs[0][0, 0] > -1.0 > jacs[1][0, 0]
    assert all(-1.0 < jac[1, 1] < 0.0 for jac in jacs)


def test_two_cycle_at_designated_point(cycle_params):
    sols = periodic.solve_two_cycle_symmetric(cycle_params)
    fixed = [s for s in sols if s.type == periodic.FIXED]
    cycles = [s for s in sols if s.type == periodic.CYCLE]
    assert len(fixed) == 1 and len(cycles) == 2
    assert fixed[0].z == pytest.approx(CYCLE_FIXED, abs=1e-9)
    lo = min(c.z for c in cycles)
    hi = max(c.z for c in cycles)
    assert lo == pytest.approx(CYCLE_LOW, abs=1e-9)
    assert hi == pytest.approx(CYCLE_HIGH, abs=1e-9)
    assert lo < fixed[0].z < hi
    psi = ti.SliceMap(cycle_params.theta, cycle_params.k)
    for s in cycles:
        assert abs(s.z - float(psi(s.t))) <= 1e-12
        assert abs(s.t - float(psi(s.z))) <= 1e-12
    assert float(psi(hi)) == pytest.approx(lo, abs=1e-10)
    # swapped partners both present
    pairs = {(round(c.z, 9), round(c.t, 9)) for c in cycles}
    assert (round(lo, 9), round(hi, 9)) in pairs and (round(hi, 9), round(lo, 9)) in pairs


def test_forward_iteration_converges_to_high_cycle_point(cycle_params):
    # even iterates from z = 1 decrease monotonically onto the cycle
    psi = ti.SliceMap(cycle_params.theta, cycle_params.k)
    z = 1.0
    prev = None
    for _ in range(200):
        z = float(psi(psi(z)))
        if prev is not None:
            assert z <= prev + 1e-15
        prev = z
    assert z == pytest.approx(CYCLE_HIGH, abs=1e-8)


def test_two_cycle_fm_only_fixed(fm_params):
    sols = periodic.solve_two_cycle_symmetric(fm_params)
    assert len(sols) == 3
    assert all(s.type == periodic.FIXED for s in sols)


def test_two_cycle_theta_one():
    p = ModelParams(k=3, m=2, J=0.0, beta=1.0)
    sols = periodic.solve_two_cycle_symmetric(p)
    assert len(sols) == 1
    assert sols[0].type == periodic.FIXED
    assert sols[0].z == pytest.approx(1.0, abs=1e-12)


def test_double_step_fixed_points_contain_single_step(fm_params, fm_roots):
    zs = sorted(s.z for s in periodic.solve_two_cycle_symmetric(fm_params))
    for z in fm_roots:
        assert min(abs(z - w) for w in zs) <= 1e-9


def test_no_cycles_on_small_k_grid():
    # slice cycles need k >= 164, so the slice list is the symmetric root
    # alone, (z*, z*) and FIXED, as the bench's two-cycle fields (k = 2, 4)
    # take it
    for k in (2, 4, 5, 10):
        for theta in np.geomspace(1.01, 10.0, 12):
            p = ModelParams.from_theta(k=k, m=2, theta=float(theta))
            roots = ti.solve_symmetric_roots(p)
            _, holds = periodic.cycle_instability(p, roots)
            assert not holds
            sols = periodic.solve_two_cycle_symmetric(p)
            assert [(s.type, s.z, s.t) for s in sols] == [(periodic.FIXED, z, z) for z in roots]


@pytest.mark.parametrize("k", range(2, 11))
def test_slice_map_has_negative_schwarzian(k):
    # psi = M^k with M Möbius: S psi = (1 - k^2) M'^2 / (2 M^2), < 0 for
    # k >= 2 and theta != 1 (M' = (1 - theta^2)/(1 + theta^2 + theta z)^2);
    # so the slice has at most one 2-cycle
    z, theta = sympy.symbols("z theta", positive=True)
    m = (2 * theta + z) / (1 + theta**2 + theta * z)
    d1, d2, d3 = (sympy.diff(m**k, z, n) for n in (1, 2, 3))
    m1 = sympy.diff(m, z)
    assert sympy.cancel(m1 - (1 - theta**2) / (1 + theta**2 + theta * z) ** 2) == 0
    # S psi = d3/d1 - (3/2)(d2/d1)^2, divided by M'^2 / (2 M^2)
    ratio = 2 * m**2 * (d3 * d1 - sympy.Rational(3, 2) * d2**2) / (d1**2 * m1**2)
    assert sympy.factor(ratio) == 1 - k**2


@pytest.mark.parametrize("params", [
    ModelParams(k=2, m=2, J=-1.0, beta=2.0), ModelParams(k=3, m=2, J=0.0, beta=1.0),
    ModelParams.from_theta(k=2, m=2, theta=3.0), ModelParams.from_theta(k=200, m=2, theta=1.07),
], ids=["fm-three-roots", "theta-one", "afm-k2", "afm-k200-cycle"])
def test_two_cycle_takes_scanned_roots_without_change(params):
    # like cycle_instability, the slice producer scans the symmetric roots
    # itself only when it is not given them
    given = periodic.solve_two_cycle_symmetric(params, ti.solve_symmetric_roots(params))
    assert periodic.solve_two_cycle_symmetric(params) == given


@pytest.fixture(scope="module")
def doubling_200():
    """theta_D and z* of the k = 200 slice period doubling, from its equations."""
    return reference.slice_doubling(200)


def test_instability_crosses_one_at_the_slice_doubling(doubling_200):
    theta_d, z_star = doubling_200
    assert float(theta_d) == pytest.approx(1.0558230053628, abs=1e-13)
    assert float(z_star) == pytest.approx(0.24334221832, abs=1e-11)
    values = [periodic.cycle_instability(ModelParams.from_theta(200, 2, float(theta_d * f)))
              for f in (1 - 1e-9, 1 + 1e-9)]
    assert values[0][0] < 1.0 < values[1][0]
    assert [holds for _, holds in values] == [False, True]


def test_neel_onset_k2_is_the_root_of_its_cubic():
    # at k = 2 the onset equation is 4 theta^3 - 12 theta - 9 = 0
    theta = sympy.symbols("theta", positive=True)
    k2 = sympy.expand(2**2 * theta * (theta**2 - 3) - 3**2)
    assert k2 == 4 * theta**3 - 12 * theta - 9
    exact, = [r for r in sympy.Poly(k2).real_roots() if r > sympy.sqrt(3)]
    assert reference.neel_onset(2) == pytest.approx(float(exact.evalf(30)), rel=1e-15)
    assert reference.neel_onset(2) == pytest.approx(2.027279411321084, rel=1e-15)


@pytest.mark.parametrize("k", [*range(2, 51), 200, 1000])
def test_the_flip_odd_eigenvalue_is_minus_one_at_the_neel_onset(k):
    # k F' at the slice point (0, ln z*) has the eigenvalue
    # k(1 - theta^2)/(1 + theta^2 + theta z*), which is -1 at theta_N, where
    # flip pairs are born; the other eigenvalue is the slice's own psi'(z*)
    theta = reference.neel_onset(k)
    z, = ti.solve_symmetric_roots(ModelParams.from_theta(k, 2, theta))
    jac = k * boundary.law_map_jac(np.array([0.0, math.log(z)]), theta)
    eig = np.linalg.eigvals(jac)
    assert np.min(np.abs(eig + 1.0)) <= 1e-10
    assert np.min(np.abs(eig - ti.SliceMap(theta, k).fixed_point_slope(z))) <= 1e-10


def test_the_activation_matrix_is_invertible_off_theta_one():
    # S = Theta w with Theta = (theta^|i-j|), so F is injective wherever
    # det Theta = (1 - theta^2)^2 is not 0 (classify_by_subgroup's proof)
    theta = sympy.symbols("theta", positive=True)
    big = sympy.Matrix(3, 3, lambda i, j: theta ** abs(i - j))
    assert sympy.expand(big.det() - (1 - theta**2)**2) == 0


@pytest.mark.parametrize("k", range(1, 7))
def test_a_subgroup_with_a_generator_forces_equal_coset_laws(k):
    # for every proper parity set A each coset has two equations, one per
    # parent coset, whose counts differ by +-(1, -1): subtracted, they give
    # F(h_0) = F(h_1), so h_0 = h_1 by the injectivity of F, and every
    # periodic solution is translation-invariant
    f0, f1 = sympy.symbols("F0 F1")
    for size in range(1, k + 1):
        for parity_set in itertools.combinations(range(1, k + 2), size):
            eqs = periodic.coset_equations(SubgroupSpec(k=k, parity_set=frozenset(parity_set)))
            for n in (0, 1):
                (a0, a1), (b0, b1) = [counts for m, counts in eqs if m == n]
                assert a0 + a1 == b0 + b1 == k
                assert sympy.expand((a0 * f0 + a1 * f1) - (b0 * f0 + b1 * f1)) in (f0 - f1, f1 - f0)


def _solve_periodic_full(theta, capsys):
    assert cli.main(["solve-periodic", "--k", "200", "--theta", repr(theta),
                     "--subgroup", "full"]) == 0
    return json.loads(capsys.readouterr().out)


def test_slice_cycle_listing_straddles_the_doubling(doubling_200, capsys):
    # 0 or 2 CYCLE entries, 2 exactly where |psi'(z*)| > 1, from just below
    # theta_D to 1.10.  At 1.0558231 the 1,000-point psi∘psi grid listed one
    # of the two (the cycle and z* fell in one grid cell); 1.0558230054 lies
    # 4e-11 past theta_D, where psi∘psi - z sits at rounding level around
    # the cycle
    theta_d = float(doubling_200[0])
    thetas = [theta_d * (1 - 1e-9), theta_d * (1 + 1e-9), 1.0558230054, 1.0558231, 1.055824,
              *np.linspace(1.04, 1.10, 13).tolist()]
    holds_at = []
    for theta in thetas:
        report = _solve_periodic_full(theta, capsys)
        psi = ti.SliceMap(theta, 200)
        cycles = [s for s in report["solutions"] if s["type"] == periodic.CYCLE]
        assert len(cycles) == 2 * report["instability"]["holds"], theta
        assert report["statement"].startswith(
            f"even-word subgroup, antiferromagnetic regime: {len(cycles)} chess-board")
        for s in cycles:
            assert abs(float(psi(s["z"])) - s["t"]) <= periodic.PAIR_TOL
            assert abs(float(psi(s["t"])) - s["z"]) <= periodic.PAIR_TOL
        if cycles:
            assert (cycles[1]["z"], cycles[1]["t"]) == (cycles[0]["t"], cycles[0]["z"])
        holds_at.append(report["instability"]["holds"])
    assert holds_at == [theta > theta_d for theta in thetas]


@pytest.mark.parametrize("theta", [1.0558231, 1.06, 1.07, 1.08, 1.10])
def test_cycle_points_match_forty_digit_roots(theta):
    # each CYCLE z against the root of psi∘psi(z) = z in 40-digit mpmath at
    # the float theta: within 1e-11 relative, plus the shift psi's rounding
    # (about k eps relative, from its k-fold log) causes where psi∘psi(z) - z
    # has slope g'; g' = -2e-6 at theta = 1.0558231, -0.08 from 1.06 on
    p = ModelParams.from_theta(200, 2, theta)
    cycles = [s for s in periodic.solve_two_cycle_symmetric(p) if s.type == periodic.CYCLE]
    assert len(cycles) == 2
    with mpmath.workdps(40):
        t = mpmath.mpf(theta)

        def psi(x):
            return ((2 * t + x) / (1 + t * t + t * x)) ** 200

        def g(z):
            return psi(psi(z)) - z

        for s in cycles:
            root = mpmath.findroot(g, mpmath.mpf(s.z))
            assert abs(psi(root) - root) > 1e-6 * root   # a cycle point, not z*
            slope = abs(float(mpmath.diff(g, root)))
            tol = 1e-11 * s.z + 200 * 2.0 ** -52 * s.z / slope
            assert float(abs(root - s.z)) <= tol, (theta, s.z, float(root))


def test_alternating_full_free_coupling():
    p = ModelParams(k=2, m=2, J=0.0, beta=2.0)
    sols = periodic.solve_two_cycle_full(p, n_starts=20, seed=1)
    assert len(sols) == 1
    assert sols[0].type == periodic.FIXED
    np.testing.assert_allclose(sols[0].full_pair[0], (1.0, 1.0), atol=1e-10)


def test_alternating_full_fm_all_equal_pairs(monkeypatch, fm_params):
    calls = count_calls(monkeypatch, periodic, "law_map")
    h, l, resid = periodic.alternating_limits(fm_params, n_starts=100, seed=2)
    assert resid.max() <= 1e-10
    assert np.max(np.abs(h - l)) <= 1e-8
    # every limit is one of the translation-invariant solutions
    sols = np.log(ti.solve(fm_params)["full_solutions"])
    for row in h:
        gap = np.max(np.abs(sols - row), axis=-1) / max(1.0, np.max(np.abs(row)))
        assert gap.min() <= 1e-10
    # the loops stop once converged: a few dozen law_map calls, against the
    # damped budget + the Newton cap + the residual if every step ran
    assert len(calls) < (periodic.DAMPED_BUDGET + periodic.NEWTON_STEPS + 1) / 4


def test_alternating_full_afm_slice_solutions_match_scalar(cycle_params):
    # solutions on the z0 = t0 = 1 slice reproduce the scalar pair list
    sols = periodic.solve_two_cycle_full(cycle_params, n_starts=40, seed=3)
    on_slice = [s for s in sols
                if abs(s.full_pair[0][0] - 1) <= 1e-8 and abs(s.full_pair[1][0] - 1) <= 1e-8]
    scalar = periodic.solve_two_cycle_symmetric(cycle_params)
    for s in on_slice:
        assert min(abs(s.z - w.z) + abs(s.t - w.t) for w in scalar) <= 1e-7
    # whatever was found is a genuine solution; cycles exist in this regime
    assert any(s.type == periodic.CYCLE for s in sols)


def test_cycle_expanded_field_is_consistent(cycle_params):
    cyc = [s for s in periodic.solve_two_cycle_symmetric(cycle_params)
           if s.type == periodic.CYCLE][0]
    fld = periodic.expand_two_cycle_field(cyc.z, cyc.t, cycle_params, depth=2)
    assert boundary.compatibility_residual(fld, cycle_params) <= 1e-10


def _field_checks(fld, params):
    """Residual, then compatibility at depth 2 and DLR at depth 0 where k <= 3."""
    checks = [boundary.compatibility_residual(fld, params)]
    if params.k <= 3:
        checks += [measure.compatibility_oracle(fld, params, 2),
                   measure.dlr_breakdown(fld, params, 0).max_violation]
    return checks


@pytest.mark.parametrize("params, n_sols, n_off", [
    (ModelParams(k=2, m=2, J=-1.0, beta=3.0), 7, 4),
    (ModelParams(k=3, m=2, J=-1.0, beta=2.0), 7, 4),
    (ModelParams.from_theta(k=200, m=2, theta=1.07), None, None),
], ids=["ti-k2", "ti-k3", "cycle-k200"])
def test_every_printed_solution_builds_a_consistent_field(params, n_sols, n_off):
    # the laws each command prints, as constant_field's one law or two coset laws
    if n_sols is None:
        report = periodic.classify_by_subgroup(full_spec(params.k), params)
        laws = [np.log([s["z_full"], s["t_full"]]) for s in report["solutions"]
                if s["type"] == periodic.CYCLE]
        assert len(laws) == 2
    else:
        sols = ti.solve(params)["full_solutions"]
        assert len(sols) == n_sols and sum(z0 != 1.0 for z0, _ in sols) == n_off
        laws = np.log(sols)
    for h in laws:
        fld = boundary.constant_field(h, params, 2)
        assert max(_field_checks(fld, params)) <= 1e-10


def test_neel_pair_field_is_a_gibbs_measure():
    # an off-slice spin-flip two-cycle of the even-word cosets at k = 2,
    # theta = 4: h on even words, its flip image beside l on odd words
    params = ModelParams.from_theta(k=2, m=2, theta=4.0)
    eqs = periodic.coset_equations(full_spec(2))
    start = np.log([[0.00706, 0.0633, 141.65, 8.969]])
    x, defect = batched_newton(*ti.coset_system(eqs, params.theta), start, 40, 20.0, tol=1e-13)
    assert defect[0] <= 1e-14
    laws = x.reshape(2, 2)
    fld = boundary.constant_field(laws, params, 2)
    assert max(_field_checks(fld, params)) <= 1e-14
    # negative control: the root taken from the even law, the level-0 coset,
    # instead of its successors' odd law
    fld.laws[0] = 3 * boundary.law_map(laws[0], 2, params.theta)
    residual, _, dlr = _field_checks(fld, params)
    assert residual == pytest.approx(14.86, abs=0.01)
    assert dlr == pytest.approx(0.983, abs=0.001)


def test_coset_residual_swap_symmetry(cycle_params):
    # (z, t) solves the alternating system iff (t, z) does
    cyc = [s for s in periodic.solve_two_cycle_symmetric(cycle_params)
           if s.type == periodic.CYCLE][0]
    lz, lt = math.log(cyc.z), math.log(cyc.t)
    eqs = periodic.coset_equations(full_spec(cycle_params.k))
    residual, _ = ti.coset_system(eqs, cycle_params.theta)
    r = np.max(np.abs(residual(np.array([[0.0, lz, 0.0, lt], [0.0, lt, 0.0, lz]]))), axis=-1)
    assert r.shape == (2,) and np.all(r <= 1e-12)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), k=st.integers(1, 8), theta=st.floats(0.05, 20.0),
       x=hnp.arrays(float, (5, 4), elements=st.floats(-40.0, 40.0)))
def test_coset_system_keeps_the_two_coset_form_bit_for_bit(data, k, theta, x):
    # the residuals h_n - (c0 F(h0) + c1 F(h1)) of every equation, in that
    # order of operations; the even-word Jacobian is [[I, -kF'(h1)], [-kF'(h0), I]]
    parity = data.draw(st.sets(st.integers(1, k + 1), min_size=1))
    eqs = periodic.coset_equations(SubgroupSpec(k=k, parity_set=frozenset(parity)))
    residual, jacobian = ti.coset_system(eqs, theta)
    h = x.reshape(-1, 2, 2).swapaxes(0, 1)
    f, df = boundary.law_map(h, 2, theta), boundary.law_map_jac(h, theta)
    old = np.concatenate([h[n] - (c0 * f[0] + c1 * f[1]) for n, (c0, c1) in eqs], axis=-1)
    assert residual(x).tobytes() == old.tobytes()
    if len(parity) == k + 1:
        eye = np.broadcast_to(np.eye(2), df[0].shape)
        np.testing.assert_array_equal(jacobian(x), np.block([[eye, -k * df[1]],
                                                             [-k * df[0], eye]]))


def test_parity_iteration_proper_subgroups_reach_ti_only(fm_params, afm_params):
    full_sols = {p: ti.solve(p)["full_solutions"] for p in (fm_params, afm_params)}
    for r in (1, 2):
        for a_set in itertools.combinations((1, 2, 3), r):
            spec = SubgroupSpec(k=2, parity_set=frozenset(a_set))
            for p, sols in full_sols.items():
                res = periodic.iterate_parity_system(spec, p, n_starts=20, seed=8)
                assert res.converged.all()
                assert res.ti.all()
                for h in res.h_even:
                    z = tuple(np.exp(h))
                    assert min(abs(z[0] - s[0]) + abs(z[1] - s[1]) for s in sols) <= 1e-6


def test_iterative_solvers_refuse_m_other_than_two():
    # an m = 3 parity set once failed inside law_map ("law must have 3
    # reduced components"); both solvers now refuse it up front
    p = ModelParams(k=2, m=3, J=1.0, beta=1.0)
    for solve in (lambda: periodic.alternating_limits(p, n_starts=2),
                  lambda: periodic.iterate_parity_system(full_spec(2), p, n_starts=2)):
        with pytest.raises(ValueError, match="^the alternating system is specific to m = 2$"):
            solve()


def test_parity_iteration_full_subgroup_finds_cycles(cycle_params):
    res = periodic.iterate_parity_system(full_spec(cycle_params.k), cycle_params,
                                          n_starts=20, seed=9)
    assert res.converged.all()
    assert not res.ti.any()


def test_classify_by_subgroup_fm(fm_params):
    report = periodic.classify_by_subgroup(full_spec(2), fm_params)
    assert not report["I_nonempty"]
    assert report["instability"] is None
    assert all(s["type"] == periodic.FIXED for s in report["solutions"])


def test_classify_by_subgroup_afm_proper(afm_params):
    spec = SubgroupSpec(k=2, parity_set=frozenset({1}))
    report = periodic.classify_by_subgroup(spec, afm_params)
    assert report["I_nonempty"]
    assert len(report["solutions"]) == 1
    assert report["solutions"][0]["type"] == periodic.FIXED


def test_classify_by_subgroup_cycle_regime(cycle_params):
    report = periodic.classify_by_subgroup(full_spec(cycle_params.k), cycle_params)
    assert not report["I_nonempty"]
    assert report["instability"]["holds"]
    kinds = sorted(s["type"] for s in report["solutions"])
    assert kinds == [periodic.CYCLE, periodic.CYCLE, periodic.FIXED]


@pytest.mark.parametrize("k, theta", [(200, 1.08), (200, 1.0558231), (200, 1.07), (2, 4.0),
                                      (3, 1.8305)])
def test_afm_even_word_fixed_entries_are_the_ti_solutions(k, theta):
    # the list takes its FIXED entries from ti.solve, and only its CYCLE
    # entries from the slice producer
    report = periodic.classify_by_subgroup(full_spec(k), ModelParams.from_theta(k, 2, theta))
    fixed = [s for s in report["solutions"] if s["type"] == periodic.FIXED]
    assert all(s["z"] == s["t"] for s in fixed)
    assert [s["z_full"] for s in fixed] == report["ti_solutions"]
    zs = [s["z"] for s in report["solutions"]]
    assert zs == sorted(zs)


def _log_gap(a, b):
    """Max-norm gap of two log laws (last axis)."""
    return np.max(np.abs(a - b), axis=-1)


@pytest.mark.parametrize("case", ["k200-past-doubling", "k200-cycles", "fm-4d",
                                  "proper-subgroup"])
def test_every_producer_keeps_one_pair_rule(case, fm_params):
    # each record is FIXED iff its two coset log laws lie within PAIR_TOL (max
    # norm), and the parity iteration flags ti by the same rule
    if case.startswith("k200"):
        theta = 1.055824 if case == "k200-past-doubling" else 1.07
        params, spec = ModelParams.from_theta(k=200, m=2, theta=theta), full_spec(200)
        records = [s.to_json_dict() for s in periodic.solve_two_cycle_symmetric(params)]
        assert [r["type"] for r in records] == [periodic.CYCLE, periodic.FIXED, periodic.CYCLE]
    elif case == "fm-4d":
        params, spec = fm_params, full_spec(2)
        records = [s.to_json_dict() for s in periodic.solve_two_cycle_full(params)]
    else:
        params, spec = fm_params, SubgroupSpec(k=2, parity_set=frozenset({1}))
        records = periodic.classify_by_subgroup(spec, params)["solutions"]
    gaps = [_log_gap(np.log(r["z_full"]), np.log(r["t_full"])) for r in records]
    assert [r["type"] == periodic.FIXED for r in records] == [g <= periodic.PAIR_TOL
                                                             for g in gaps]
    if case == "k200-past-doubling":
        # just past the slice period doubling the FIXED entry is the symmetric
        # root itself, while the cycle's two points are 1.6e-2 apart
        assert gaps[1] == 0.0 and gaps[0] > 1e-2
    parity = periodic.iterate_parity_system(spec, params, n_starts=10, seed=3)
    assert parity.converged.all()
    np.testing.assert_array_equal(parity.ti,
                                  _log_gap(parity.h_even, parity.h_odd) <= periodic.PAIR_TOL)


def count_calls(monkeypatch, module, name, calls=None):
    calls = [] if calls is None else calls
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def count_update_calls(monkeypatch):
    """law_map calls of the damped loops (through periodic) and of the coset
    Newton system (through ti), in one list."""
    return count_calls(monkeypatch, ti, "law_map", count_calls(monkeypatch, periodic, "law_map"))


def spy_newton(monkeypatch, calls):
    """Wrap periodic.batched_newton; returns the law_map call counts at its
    entry and exit, and one entry per Newton evaluation of its system (a
    Jacobian call; the final defect takes the residual alone)."""
    bounds, evals = [], []
    newton = periodic.batched_newton

    def spy(residual, jacobian, x, *args, **kwargs):
        def counted(x):
            evals.append(x)
            return jacobian(x)

        bounds.append(len(calls))
        out = newton(residual, counted, x, *args, **kwargs)
        bounds.append(len(calls))
        return out

    monkeypatch.setattr(periodic, "batched_newton", spy)
    return bounds, evals


def test_solvers_make_one_update_call_per_step(monkeypatch, fm_params, afm_params):
    calls = count_update_calls(monkeypatch)
    bounds, evals = spy_newton(monkeypatch, calls)
    # one stacked call per damped step (these starts hand over to Newton
    # after 28 steps), one per Newton evaluation (the third finds every
    # residual below STEP_TOL and stops the polish), one for the residual,
    # which Newton returns
    periodic.alternating_limits(fm_params, n_starts=10, seed=0)
    assert len(evals) == 3
    assert bounds == [28, 28 + 3 + 1]
    assert len(calls) == 28 + 3 + 1
    # two images to start, one per coset update in each sweep up to the
    # hand-over, one per Newton evaluation, one for the final residuals
    for parity_set, per_sweep, sweeps in (({1}, 4, 7), ({1, 2, 3}, 2, 26)):
        del calls[:], bounds[:], evals[:]
        spec = SubgroupSpec(k=2, parity_set=frozenset(parity_set))
        periodic.iterate_parity_system(spec, afm_params, n_starts=5, seed=0)
        damped = 2 + per_sweep * sweeps
        assert len(evals) == 3
        assert bounds == [damped, damped + 3 + 1]
        assert len(calls) == damped + 3 + 1


def test_damped_loops_stop_at_their_budget(monkeypatch, fm_params, afm_params):
    # a negative hand-over step is never reached, so both loops spend the
    # whole budget; the Newton cap bounds the polish
    monkeypatch.setattr(periodic, "HANDOVER_STEP", -1.0)
    monkeypatch.setattr(periodic, "DAMPED_BUDGET", 7)
    monkeypatch.setattr(periodic, "NEWTON_STEPS", 2)
    calls = count_update_calls(monkeypatch)
    bounds, evals = spy_newton(monkeypatch, calls)
    periodic.alternating_limits(fm_params, n_starts=10, seed=0)
    assert bounds == [7, 7 + 2 + 1] and len(evals) == 2
    assert len(calls) == 7 + 2 + 1
    for parity_set, per_sweep in (({1}, 4), ({1, 2, 3}, 2)):
        del calls[:], bounds[:], evals[:]
        spec = SubgroupSpec(k=2, parity_set=frozenset(parity_set))
        periodic.iterate_parity_system(spec, afm_params, n_starts=5, seed=0)
        assert bounds == [2 + per_sweep * 7, 2 + per_sweep * 7 + 2 + 1]
        assert len(calls) == 2 + per_sweep * 7 + 2 + 1


def test_unsettled_damped_loop_runs_its_cap(monkeypatch, cycle_params):
    # at the k = 200 cycle point the damped map has no attracting fixed
    # point, so the loop never hands over and spends its whole budget; the
    # Newton polish still finds the cycles
    budget = periodic.DAMPED_BUDGET
    calls = count_update_calls(monkeypatch)
    bounds, evals = spy_newton(monkeypatch, calls)
    sols = periodic.solve_two_cycle_full(cycle_params, n_starts=40, seed=3)
    assert bounds == [budget, budget + len(evals) + 1]
    assert len(evals) < periodic.NEWTON_STEPS
    assert len(calls) == budget + len(evals) + 1
    assert any(s.type == periodic.CYCLE for s in sols)


@pytest.mark.parametrize("k, theta, seed, n_starts, before", [
    (5, 2.5, 0, 50, 0),      # the damped sweep alone converged no start
    (4, 0.3, 5, 20, 11),     # ... and 11 of 20 here, after 4,000 sweeps
])
def test_parity_newton_finishes_what_the_sweep_could_not(k, theta, seed, n_starts, before):
    p = ModelParams.from_theta(k=k, m=2, theta=theta)
    spec = SubgroupSpec(k=k, parity_set=frozenset({1}))
    res = periodic.iterate_parity_system(spec, p, n_starts=n_starts, seed=seed)
    assert res.converged.sum() > before
    assert res.ti[res.converged].all()
    sols = np.log(ti.solve(p)["full_solutions"])
    for row in res.h_even[res.converged]:
        gap = np.max(np.abs(sols - row), axis=-1) / np.maximum(1.0, np.max(np.abs(sols), axis=-1))
        assert gap.min() <= 1e-6


@pytest.mark.parametrize("run, before", [
    (lambda: periodic.solve_two_cycle_full(
        ModelParams.from_theta(k=2, m=2, theta=1.981), n_starts=100, seed=0), 604),
    (lambda: periodic.solve_two_cycle_full(
        ModelParams.from_theta(k=200, m=2, theta=1.07), n_starts=100, seed=0), 608),
    (lambda: periodic.iterate_parity_system(
        full_spec(2), ModelParams.from_theta(k=2, m=2, theta=2.1397), n_starts=50, seed=253),
     876),
], ids=["two-cycle-k2", "two-cycle-k200", "parity-k2-full"])
def test_periodic_ops_call_the_update_less_than_half_as_often(monkeypatch, run, before):
    # law_map calls of three periodic ops of the bench's solver sweep;
    # `before` is the count when the damped loops ran to STEP_TOL or to
    # their caps of 600 steps and 4,000 sweeps
    calls = count_update_calls(monkeypatch)
    run()
    assert len(calls) < before / 2


def test_classify_scans_symmetric_roots_once(monkeypatch, afm_params):
    calls = count_calls(monkeypatch, ti, "solve_symmetric_roots")
    report = periodic.classify_by_subgroup(full_spec(2), afm_params)
    assert report["instability"] is not None
    assert len(calls) == 1
