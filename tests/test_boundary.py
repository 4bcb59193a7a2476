import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sostree import boundary, ti
from sostree.boundary import (BoundaryLawField, compatibility_residual, constant_field,
                              law_map, law_map_jac, perturb_field)
from sostree.model import ModelParams
from sostree.tree import ball_size

from reference import derivative_bounds, injectivity_check, slice_contraction_constant


def naive_law_map(h, m, theta):
    # direct ratio evaluation, independent of the log-space implementation
    h = np.asarray(h, dtype=float)
    w = np.concatenate([np.exp(h), [1.0]])
    out = np.empty(m)
    for i in range(m):
        num = sum(theta ** abs(i - j) * w[j] for j in range(m)) + theta ** (m - i)
        den = sum(theta ** (m - j) * w[j] for j in range(m)) + 1.0
        out[i] = math.log(num / den)
    return out


def test_zero_law_at_theta_one_is_exactly_zero():
    for m in (1, 2, 3, 5):
        assert np.all(law_map(np.zeros(m), m, 1.0) == 0.0)
    # theta=1 kills the update for every argument, exactly
    rng = np.random.default_rng(0)
    for _ in range(20):
        h = rng.normal(size=4)
        assert np.all(law_map(h, 4, 1.0) == 0.0)


def sorted_lse_law_map(h, m, theta):
    # the generic sorted-term path, which every m takes but m = 2
    s = boundary.sorted_lse(boundary.pair_exponents(boundary.unreduce(h), theta))
    return s[..., :m] - s[..., m:]


# theta on both sides of 1, and 1 itself
thetas = st.one_of(st.floats(0.01, 0.99), st.floats(1.01, 100.0), st.just(1.0))
# law components up to the float range of e^h, signed zeros included
components = st.one_of(st.floats(-700.0, 700.0), st.sampled_from([0.0, -0.0]))
batch_shapes = st.sampled_from([(), (1,), (7,), (3, 4), (2, 1)])


@settings(max_examples=200, deadline=None)
@given(theta=thetas, h=batch_shapes.flatmap(
    lambda b: hnp.arrays(float, b + (2,), elements=components)))
def test_m2_kernel_matches_sorted_lse_bit_for_bit(theta, h):
    out = law_map(h, 2, theta)
    ref = sorted_lse_law_map(h, 2, theta)
    assert out.shape == ref.shape == h.shape
    assert out.flags.c_contiguous
    assert out.tobytes() == ref.tobytes()


def test_m2_kernel_blocks_match_sorted_lse():
    # 9000 distinct rows span three blocks of the kernel, the last one partial
    rng = np.random.default_rng(5)
    h = rng.uniform(-700, 700, size=(3, 3000, 2)) * rng.choice([0.0, -0.0, 1e-3, 1.0],
                                                               size=(3, 3000, 2))
    for theta in (0.05, 1.0, 3.0):
        assert law_map(h, 2, theta).tobytes() == sorted_lse_law_map(h, 2, theta).tobytes()


@pytest.mark.parametrize("n", [1, boundary._BLOCK_M2 - 1, boundary._BLOCK_M2,
                               boundary._BLOCK_M2 + 1, 2 * boundary._BLOCK_M2 + 3])
def test_m2_kernel_matches_sorted_lse_on_non_finite_rows(n):
    # rows holding +-inf and nan, on both sides of a block edge, give the
    # generic path's inf and nan bit for bit.  np.nan only: a nan with its
    # sign bit set loses it in the generic path
    rng = np.random.default_rng(n)
    h = rng.uniform(-700, 700, size=(n, 2)) * rng.choice([0.0, -0.0, 1e-3, 1.0], size=(n, 2))
    odd = rng.random((n, 2)) < 0.2
    h[odd] = rng.choice([np.inf, -np.inf, np.nan], size=int(odd.sum()))
    h[0] = (np.inf, -np.inf)
    with np.errstate(invalid="ignore"):
        for theta in (0.05, 1.0, 3.0):
            assert law_map(h, 2, theta).tobytes() == sorted_lse_law_map(h, 2, theta).tobytes()


@pytest.mark.parametrize("q", [2, 3, 4, 7])
def test_gap_table_is_one_shared_read_only_int16_table(q):
    gaps = boundary.gap_table(q)
    assert gaps is boundary.gap_table(q)
    assert gaps.dtype == np.int16 and not gaps.flags.writeable
    assert gaps.tolist() == [[abs(i - j) for j in range(q)] for i in range(q)]
    with pytest.raises(ValueError):
        gaps[0, 0] = 1
    # the exponents keep the bits of float gaps, as int16 -> float64 is exact
    rng = np.random.default_rng(q)
    u = rng.normal(scale=20.0, size=(5, q))
    float_gaps = np.abs(np.subtract.outer(np.arange(q), np.arange(q))).astype(float)
    for theta in (0.05, 1.0, 3.7):
        ref = u[..., None, :] + np.log(theta) * float_gaps
        assert boundary.pair_exponents(u, theta).tobytes() == ref.tobytes()


@settings(max_examples=100, deadline=None)
@given(theta=thetas, h0=st.sampled_from([0.0, -0.0]),
       h1=hnp.arrays(float, st.sampled_from([(), (5,), (2, 3)]), elements=components))
def test_component_zero_vanishes_on_symmetric_slice(theta, h0, h1):
    h = np.stack([np.full(h1.shape, h0), h1], axis=-1)
    assert np.all(law_map(h, 2, theta)[..., 0] == 0.0)


def flip_law(h):
    # global spin flip j -> m-j of reduced laws: reverse the unreduced
    # components and re-gauge the last one to zero
    u = boundary.unreduce(h)[..., ::-1]
    return (u - u[..., -1:])[..., :-1]


@settings(max_examples=100, deadline=None)
@given(theta=thetas, m=st.integers(1, 4), data=st.data())
def test_law_map_is_flip_equivariant(theta, m, data):
    h = data.draw(hnp.arrays(float, (3, m), elements=components))
    np.testing.assert_allclose(law_map(flip_law(h), m, theta), flip_law(law_map(h, m, theta)),
                               rtol=1e-12, atol=1e-9)


def test_known_value_half_theta():
    f = law_map(np.zeros(2), 2, 0.5)
    assert f[0] == 0.0
    assert f[1] == pytest.approx(math.log(8 / 7), abs=1e-15)


def test_matches_naive_evaluation():
    rng = np.random.default_rng(2)
    for m in (2, 3, 4):
        for theta in (0.2, 0.9, 1.5, 4.0):
            for _ in range(25):
                h = rng.normal(size=m) * 3
                np.testing.assert_allclose(
                    law_map(h, m, theta), naive_law_map(h, m, theta),
                    rtol=1e-12, atol=1e-12)


def test_law_map_rejects_bad_inputs():
    with pytest.raises(ValueError):
        law_map(np.zeros(2), 2, -1.0)
    with pytest.raises(ValueError):
        law_map(np.zeros(3), 2, 0.5)


@settings(max_examples=100, deadline=None)
@given(theta=st.floats(0.1, 10.0), h=hnp.arrays(float, (4, 2), elements=st.floats(-8.0, 8.0)))
def test_jacobian_matches_finite_differences(theta, h):
    # rounding in the difference quotient is about 1e-16 * |F| / step <= 1e-9
    step = 1e-6
    jac = law_map_jac(h, theta)
    for j in range(2):
        dh = np.zeros(2)
        dh[j] = step
        fd = (law_map(h + dh, 2, theta) - law_map(h - dh, 2, theta)) / (2 * step)
        np.testing.assert_allclose(jac[..., j], fd, atol=1e-8)


@pytest.mark.parametrize("theta", [math.exp(-3.0), 0.5, 1.8])
def test_jacobian_past_the_overflow_of_e_h(theta):
    # products of e^h overflowed past h ~ 355 and gave inf/inf = nan entries
    h = np.array([[600.0, 600.0], [800.0, -50.0], [-900.0, 2000.0], [710.0, 710.0]])
    step = 1e-5
    jac = law_map_jac(h, theta)
    assert np.all(np.isfinite(jac))
    for j in range(2):
        dh = np.zeros(2)
        dh[j] = step
        fd = (law_map(h + dh, 2, theta) - law_map(h - dh, 2, theta)) / (2 * step)
        np.testing.assert_allclose(jac[..., j], fd, atol=1e-8)


def test_compatibility_residual_fixed_point(fm_params, fm_roots):
    for z in fm_roots:
        fld = constant_field(np.array([0.0, math.log(z)]), fm_params, 2)
        assert compatibility_residual(fld, fm_params) <= 1e-12


def test_compatibility_residual_zero_field():
    p = ModelParams.from_theta(k=2, m=2, theta=0.5)
    fld = constant_field(np.zeros(2), p, 2)
    expected = p.k * math.log(8 / 7)
    assert compatibility_residual(fld, p) == pytest.approx(expected, abs=1e-12)
    # theta = 1: the all-zeros field is consistent
    p1 = ModelParams(k=2, m=2, J=0.0, beta=3.0)
    assert compatibility_residual(constant_field(np.zeros(2), p1, 2), p1) == 0.0


def test_compatibility_residual_checks_the_root(fm_params, fm_roots):
    # a depth-1 field has no non-root vertex to check: only the root
    # convention (the sum over its k+1 successors) can expose a bad root law
    fld = constant_field(np.array([0.0, math.log(fm_roots[-1])]), fm_params, 1)
    assert compatibility_residual(fld, fm_params) <= 1e-12
    laws = fld.laws.copy()
    laws[0, -1] += 1e-3
    shifted = BoundaryLawField(k=fld.k, depth=1, laws=laws)
    assert compatibility_residual(shifted, fm_params) == pytest.approx(1e-3, rel=1e-6)


def test_field_rejects_wrong_row_count():
    with pytest.raises(ValueError):
        BoundaryLawField(k=2, depth=2, laws=np.zeros((ball_size(2, 2) - 1, 2)))
    with pytest.raises(ValueError):
        BoundaryLawField(k=2, depth=1, laws=np.zeros(ball_size(2, 1)))


def test_injectivity_randomized():
    rng = np.random.default_rng(4)
    for _ in range(2000):
        h = rng.uniform(-10, 10, size=2)
        l = rng.uniform(-10, 10, size=2)
        if np.max(np.abs(h - l)) < 1e-3:
            continue
        assert injectivity_check(h, l, 0.5)
        f_h, f_l = law_map(h, 2, 0.5), law_map(l, 2, 0.5)
        assert np.max(np.abs(f_h - f_l)) > 0.0
    h = rng.uniform(-5, 5, size=2)
    assert injectivity_check(h, h.copy(), 0.5)
    with pytest.raises(ValueError):
        injectivity_check(h, h, 1.0)


def test_slice_contraction_constant_value():
    # |t^2-1| / (1 + 3t^2 + 2t sqrt(2(t^2+1))) at t = 0.5
    expected = 0.75 / (1.75 + math.sqrt(2.5))
    assert slice_contraction_constant(0.5) == pytest.approx(expected, abs=1e-15)
    assert slice_contraction_constant(0.5) == pytest.approx(0.22514822655441374, abs=1e-12)
    assert slice_contraction_constant(1.0) == 0.0


@pytest.mark.parametrize("theta", [0.5, 1.5])
def test_derivative_bounds_sampled(theta):
    report = derivative_bounds(theta, 2000, seed=99)
    assert report.ok, report.violations
    assert report.worst["partial"] <= report.bound_partial + 1e-6
    assert report.worst["slice"] <= report.bound_slice + 1e-6


def test_derivative_bounds_theta_one_trivial():
    report = derivative_bounds(1.0, 200, seed=1)
    assert report.ok
    # all four ceilings vanish and the update is constant
    assert report.bound_partial == 0.0
    assert report.worst["pair"] <= 1e-9


def test_perturb_field_shifts_all_laws(fm_high_field):
    bad = perturb_field(fm_high_field, 0.25)
    np.testing.assert_array_equal(bad.laws[:, -1], fm_high_field.laws[:, -1] + 0.25)
    np.testing.assert_array_equal(bad.laws[:, :-1], fm_high_field.laws[:, :-1])
    assert bad.root[-1] == fm_high_field.root[-1] + 0.25
