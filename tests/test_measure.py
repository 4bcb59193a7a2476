import functools
import math
from unittest import mock

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from sostree import boundary, measure, nonti, periodic, ti
from sostree.boundary import BoundaryLawField, constant_field, perturb_field
from sostree.model import ModelParams
from sostree.tree import ball_geometry, ball_size, cached_ball

import reference
from reference import hamiltonian


def random_field(params, depth, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    laws = rng.normal(scale=scale, size=(ball_size(params.k, depth), params.m))
    return BoundaryLawField(k=params.k, depth=depth, laws=laws)


def on_both_routes(test):
    """Run an oracle test by enumeration, then on the message sweep forced by a zero cap."""
    @functools.wraps(test)
    def run(*args, **kwargs):
        test(*args, **kwargs)
        with mock.patch.object(measure, "EXACT_TABLE_CAP", 0):
            test(*args, **kwargs)
    return run


def test_log_partition_uniform_cases():
    p = ModelParams(k=2, m=2, J=0.0, beta=3.0)
    fld = constant_field(np.zeros(2), p, 2)
    assert measure.log_partition(fld, p, 1) == pytest.approx(4 * math.log(3), abs=1e-12)
    assert measure.log_partition(fld, p, 0) == pytest.approx(math.log(3), abs=1e-12)


def test_log_partition_routes_agree_on_any_field(fm_params):
    # transfer recursion equals enumeration even for inconsistent fields
    for seed in range(5):
        fld = random_field(fm_params, 2, seed)
        a = measure.log_partition(fld, fm_params, 2, method="enumerate")
        b = measure.log_partition(fld, fm_params, 2, method="transfer")
        assert a == pytest.approx(b, abs=1e-10)


@settings(max_examples=30, deadline=None)
@given(k=st.integers(1, 4), n=st.integers(0, 3), m=st.integers(1, 3),
       theta=st.floats(0.05, 20.0), seed=st.integers(0, 2**32 - 1))
def test_transfer_matches_enumeration(k, n, m, theta, seed):
    # any field, consistent or not, on every ball under the enumeration cap
    params = ModelParams.from_theta(k=k, m=m, theta=theta)
    if (m + 1) ** ball_size(k, n) > 3 ** 10:
        n = 1 if (m + 1) ** ball_size(k, 1) <= 3 ** 10 else 0
    fld = random_field(params, n, seed, scale=3.0)
    exact = measure.log_partition(fld, params, n, method="enumerate")
    transfer = measure.log_partition(fld, params, n, method="transfer")
    assert abs(transfer - exact) <= 1e-9 * max(1.0, abs(exact))
    np.testing.assert_allclose(measure.root_marginal(fld, params, n, method="transfer"),
                               measure.root_marginal(fld, params, n, method="table"),
                               rtol=0, atol=1e-9)


def test_log_partition_default_is_the_sweep(fm_params):
    for n in range(3):
        fld = random_field(fm_params, n, seed=n)
        assert measure.log_partition(fld, fm_params, n) == \
            measure.log_partition(fld, fm_params, n, method="transfer")


def test_unknown_method_names_are_rejected(fm_params, fm_high_field):
    for method in ("auto", "table"):
        with pytest.raises(ValueError):
            measure.log_partition(fm_high_field, fm_params, 1, method=method)
    for method in ("auto", "enumerate"):
        with pytest.raises(ValueError):
            measure.root_marginal(fm_high_field, fm_params, 1, method=method)


def test_measure_rejects_field_not_covering_ball(fm_params, fm_high_field):
    with pytest.raises(ValueError):
        measure.log_partition(fm_high_field, fm_params, 4, method="transfer")
    with pytest.raises(ValueError):
        measure.log_partition(fm_high_field, ModelParams(k=3, m=2, J=-1.0, beta=2.0), 1)
    with pytest.raises(ValueError):
        measure.sample(fm_high_field, fm_params, 4, seed=0, count=1)


def test_log_partition_scale_guard(fm_params, fm_high_field):
    with pytest.raises(measure.ScaleError):
        measure.log_partition(fm_high_field, fm_params, 3, method="enumerate")
    # the recursive route handles the same depth
    assert np.isfinite(measure.log_partition(fm_high_field, fm_params, 3, method="transfer"))


def test_enumerable_is_the_exact_power_test():
    # the power stops at 64 vertices, past the cap for every q >= 2
    for q in (2, 3, 4):
        for n in range(81):
            assert measure.enumerable(q, n) == (q ** n <= measure.EXACT_TABLE_CAP)


@pytest.mark.parametrize("k, n", [(2, 2), (3, 1)])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_log_weight_table_matches_the_hamiltonian(k, n, m):
    # configurations enumerated independently: row i spells i in base q, first
    # vertex most significant, so this pins the table layout and edge set
    params = ModelParams(k=k, m=m, J=-0.7, beta=1.3)
    fld = random_field(params, n, seed=m)
    geo = ball_geometry(k, n)
    if not measure.enumerable(m + 1, geo.n_vertices):
        with pytest.raises(measure.ScaleError):
            measure.log_weight_table(fld, params, n)
        return
    spins = np.indices((m + 1,) * geo.n_vertices).reshape(geo.n_vertices, -1).T
    ref = -params.beta * hamiltonian(spins, params, n)
    sphere = boundary.unreduce(fld.laws[geo.level(n)])
    for j, law in zip(range(geo.offsets[n], geo.n_vertices), sphere):
        ref += law[spins[:, j]]
    table = measure.log_weight_table(fld, params, n)
    assert table.shape == ref.shape
    assert np.max(np.abs(table - ref)) <= 1e-12 * np.max(np.abs(ref))


def _table_bits(a):
    return a.view(np.int64) if a.dtype == np.float64 else a


@pytest.mark.parametrize("k, n", [(2, 0), (2, 1), (2, 2), (3, 1), (6, 1), (8, 1), (10, 1)])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_grown_tables_keep_the_reference_bits(monkeypatch, k, n, m):
    # the grown edge tensors (int16 gap sums and float J*beta cross terms, over
    # the whole ball and over the outer sphere), the weight table and the
    # Gibbs kernel carry the bits of the broadcast-add references
    rng = np.random.default_rng(100 * k + 10 * n + m)
    params = ModelParams(k=k, m=m, J=rng.uniform(-1.5, 1.5), beta=rng.uniform(0.5, 3.0))
    geo = ball_geometry(k, n)
    gaps = boundary.gap_table(m + 1)
    if not measure.enumerable(m + 1, geo.n_vertices):
        with pytest.raises(measure.ScaleError):
            measure._edge_tensor(gaps, geo, range(1, geo.n_vertices))
        return
    for table in (gaps, params.J * params.beta * gaps):
        # the whole ball's edges, and the outer sphere's as the Gibbs kernel takes them
        for edges in (range(1, geo.n_vertices), range(max(geo.offsets[n], 1), geo.n_vertices)):
            grown = measure._edge_tensor(table, geo, edges)
            ref = reference.edge_tensor(table, geo, edges)
            assert grown.dtype == ref.dtype
            np.testing.assert_array_equal(_table_bits(grown), _table_bits(ref))
    fld = random_field(params, n, seed=rng.integers(2 ** 32))
    np.testing.assert_array_equal(_table_bits(measure.log_weight_table(fld, params, n)),
                                  _table_bits(reference.log_weight_table(fld, params, n)))
    if n:
        kernel = measure._gibbs_kernel_table(params, n - 1)
        monkeypatch.setattr(measure, "_edge_tensor", reference.edge_tensor)
        np.testing.assert_array_equal(_table_bits(kernel),
                                      _table_bits(measure._gibbs_kernel_table(params, n - 1)))


def test_integer_parameters_give_the_float_tables():
    # J and beta are stored as floats, so J * beta * (int16 gap sums) is a
    # float table even at n = 0, where there are no edges
    ints = ModelParams(k=2, m=2, J=-1, beta=2)
    floats = ModelParams(k=2, m=2, J=-1.0, beta=2.0)
    assert ints == floats and type(ints.J) is float and type(ints.beta) is float
    fld = random_field(floats, 1, seed=7)
    for n in (0, 1):
        np.testing.assert_array_equal(_table_bits(measure.log_weight_table(fld, ints, n)),
                                      _table_bits(measure.log_weight_table(fld, floats, n)))
    np.testing.assert_array_equal(_table_bits(measure._gibbs_kernel_table(ints, 0)),
                                  _table_bits(measure._gibbs_kernel_table(floats, 0)))
    assert measure.dlr_breakdown(fld, ints, 0) == measure.dlr_breakdown(fld, floats, 0)


def test_table_probabilities_normalised(fm_params, fm_high_field):
    _, probs = measure.finite_volume_measure(fm_high_field, fm_params, 2)
    assert abs(probs.sum() - 1.0) <= 1e-12


@on_both_routes
def test_compatibility_oracle_on_solutions(fm_params, fm_roots, afm_params, afm_field):
    for z in fm_roots:
        fld = constant_field(np.array([0.0, math.log(z)]), fm_params, 2)
        assert measure.compatibility_oracle(fld, fm_params, 2) <= 1e-10
        assert measure.compatibility_oracle(fld, fm_params, 1) <= 1e-10
    assert measure.compatibility_oracle(afm_field, afm_params, 2) <= 1e-10


@on_both_routes
def test_compatibility_oracle_negative_control():
    p = ModelParams.from_theta(k=2, m=2, theta=0.5)
    fld = constant_field(np.zeros(2), p, 2)
    assert measure.compatibility_oracle(fld, p, 2) > 1e-3


@on_both_routes
def test_compatibility_oracle_uniform_case():
    p = ModelParams(k=2, m=2, J=0.0, beta=1.0)
    fld = constant_field(np.zeros(2), p, 2)
    assert measure.compatibility_oracle(fld, p, 2) <= 1e-12


@on_both_routes
def test_oracle_equivalence_with_field_residual(fm_params):
    # the enumeration oracle and the recursion defect agree on pass/fail
    good = constant_field(np.array([0.0, math.log(ti.solve_symmetric_roots(fm_params)[1])]),
                          fm_params, 2)
    assert boundary.compatibility_residual(good, fm_params) <= 1e-10
    assert measure.compatibility_oracle(good, fm_params, 2) <= 1e-10
    bad = perturb_field(good, 0.2)
    assert boundary.compatibility_residual(bad, fm_params) > 1e-3
    assert measure.compatibility_oracle(bad, fm_params, 2) > 1e-4


@on_both_routes
def test_dlr_oracle_compatible_fields(fm_params, fm_roots, afm_params, afm_field):
    for z in fm_roots:
        fld = constant_field(np.array([0.0, math.log(z)]), fm_params, 2)
        assert measure.dlr_breakdown(fld, fm_params, 0).max_violation <= 1e-10
        assert measure.dlr_breakdown(fld, fm_params, 1).max_violation <= 1e-10
    assert measure.dlr_breakdown(afm_field, afm_params, 0).max_violation <= 1e-10


@on_both_routes
def test_dlr_oracle_uniform(fm_params):
    p = ModelParams(k=2, m=2, J=0.0, beta=1.0)
    fld = constant_field(np.zeros(2), p, 1)
    assert measure.dlr_breakdown(fld, p, 0).max_violation <= 1e-12


@on_both_routes
def test_dlr_conditional_face_is_field_independent(fm_params):
    # conditioning on the sphere cancels the law, whatever the field
    fld = random_field(fm_params, 1, seed=13)
    br = measure.dlr_breakdown(fld, fm_params, 0)
    assert br.conditional_tv <= 1e-12
    assert br.equation_tv > 1e-3


def _dlr_reference(fld, params, n):
    """Both DLR faces at depth n from Hamiltonian energies, column by column."""
    q, n_in = params.m + 1, ball_size(params.k, n)
    n_out = ball_size(params.k, n + 1)
    laws = boundary.unreduce(fld.laws)

    def table(depth, n_vertices, with_laws):
        spins = np.indices((q,) * n_vertices).reshape(n_vertices, -1).T
        logw = -params.beta * hamiltonian(spins, params, depth)
        if with_laws:
            for j in range(ball_size(params.k, depth - 1) if depth else 0, n_vertices):
                logw += laws[j][spins[:, j]]
        return logw

    logw = table(n + 1, n_out, True).reshape(q ** n_in, -1)
    joint = np.exp(logw - logw.max())
    joint /= joint.sum()
    energy = table(n + 1, n_out, False).reshape(q ** n_in, -1)
    inner = np.exp(table(n, n_in, True))
    inner /= inner.sum()
    mass = joint.sum(axis=0)
    conditional, mixed = 0.0, np.zeros(q ** n_in)
    for c in range(joint.shape[1]):
        kernel = np.exp(energy[:, c] - energy[:, c].max())
        kernel /= kernel.sum()
        mixed += kernel * mass[c]
        if mass[c] > 0:
            conditional = max(conditional, 0.5 * np.abs(joint[:, c] / mass[c] - kernel).sum())
    return conditional, 0.5 * np.abs(mixed - inner).sum(), mass


def _dlr_field(params, n, masked):
    """A random depth-(n+1) field; masked: one sphere law component near -800
    leaves some sphere configurations with exactly zero mass."""
    fld = random_field(params, n + 1, seed=params.k + 10 * n)
    if masked:
        fld.laws[ball_geometry(params.k, n + 1).offsets[n + 1], 0] = -800.0
    return fld


@pytest.mark.parametrize("k, n", [(2, 0), (3, 0), (2, 1)])
@pytest.mark.parametrize("masked", [False, True])
def test_dlr_faces_match_a_reference(fm_params, k, n, masked):
    # the conditional face must skip the sphere configurations of zero mass
    params = ModelParams(k=k, m=2, J=fm_params.J, beta=fm_params.beta)
    fld = _dlr_field(params, n, masked)
    conditional, equation, mass = _dlr_reference(fld, params, n)
    assert bool((mass == 0).any()) == masked and mass.any()
    br = measure.dlr_breakdown(fld, params, n)
    assert br.conditional_tv == pytest.approx(conditional, abs=1e-12)
    assert br.equation_tv == pytest.approx(equation, rel=1e-9)
    assert br.equation_tv > 1e-3


def _bits(x):
    return np.float64(x).view(np.int64)


@pytest.mark.parametrize("k, n, beta, branch, eps", [
    pytest.param(2, 1, 2.5915, 1, 0.0, id="2.5915-1"),
    pytest.param(2, 1, 2.9, 0, 0.0, id="2.9-0"),
    pytest.param(2, 1, 2.9, 1, 0.0, id="2.9-1"),
    pytest.param(2, 1, 2.95, 0, 0.0, id="2.95-0"),
    pytest.param(2, 1, 2.0, None, 0.0, id="2.0-None"),
    pytest.param(2, 0, 2.5915, 1, 0.0, id="n0-k2-2.5915-1"),
    pytest.param(2, 0, 2.0, None, 0.0, id="n0-k2-2.0-None"),
    pytest.param(8, 0, 2.5, 2, 0.0, id="n0-k8-2.5-2"),
    pytest.param(10, 0, 2.5, 0, 1e-3, id="n0-k10-2.5-0-perturbed"),
])
def test_dlr_unmasked_path_keeps_the_masked_bits(k, n, beta, branch, eps):
    # the face divides the whole joint table and skips zero-mass columns in
    # the max; it keeps the bits of the masked copies.  At n >= 1 the
    # column-major quotient fixes how the axis-0 sum rounds (on the
    # symmetric-root fields a row-major sum lands an ulp away); at n = 0 the
    # q-entry columns are summed in order in any layout, and the quotient is
    # row-major.  Branch None is the zero-mass field of
    # test_dlr_faces_match_a_reference.
    params = ModelParams(k=k, m=2, J=-1.0, beta=beta)
    if branch is None:
        fld = _dlr_field(params, n, masked=True)
    else:
        z = ti.solve_symmetric_roots(params)[branch]
        fld = perturb_field(constant_field(np.array([0.0, math.log(z)]), params, n + 1), eps)
    inner = measure.finite_volume_measure(fld, params, n)[1]
    joint = measure.finite_volume_measure(fld, params, n + 1)[1].reshape(inner.size, -1)
    mass = joint.sum(axis=0)
    every = mass > 0
    assert every.all() == (branch is not None)
    kernel = measure._gibbs_kernel_table(params, n)
    masked = np.max(0.5 * np.abs(joint[:, every] / mass[every] - kernel[:, every]).sum(axis=0))
    assert _bits(measure.dlr_breakdown(fld, params, n).conditional_tv) == _bits(masked)


def test_dlr_conditional_face_propagates_nan(fm_params, fm_roots):
    # a nan sphere column is no zero-mass column: the face reads nan, not 0.0
    fld = constant_field(np.array([0.0, math.log(fm_roots[2])]), fm_params, 1)
    br = measure.dlr_breakdown(perturb_field(fld, math.nan), fm_params, 0)
    assert math.isnan(br.conditional_tv) and math.isnan(br.equation_tv)


@settings(max_examples=25, deadline=None)
@given(k=st.integers(2, 11), depth=st.integers(1, 2), branch=st.integers(0, 2),
       beta=st.floats(2.0, 3.0), eps=st.sampled_from([0.0, 1e-9, 1e-3, -0.5]))
@example(k=10, depth=1, branch=2, beta=2.5, eps=1e-3)
@example(k=11, depth=1, branch=0, beta=2.5, eps=0.0)
def test_shared_tables_give_the_public_oracles_bits(k, depth, branch, beta, eps):
    # verify's checks read one shared lookup in its order; called without
    # one, each oracle builds its own.  k = 11 is past the cap at depth 1,
    # k <= 10 enumerates
    params = ModelParams(k=k, m=2, J=-1.0, beta=beta)
    z = ti.solve_symmetric_roots(params)[branch]
    fld = constant_field(np.array([0.0, math.log(z)]), params, depth)
    if eps:
        fld = perturb_field(fld, eps)
    table = measure.Tables(fld, params)
    compat = measure.compatibility_oracle(fld, params, depth, table)
    dlr = measure.dlr_breakdown(fld, params, 0, table)
    flip = measure.symmetry_check(fld, params, depth, table)
    assert _bits(compat) == _bits(measure.compatibility_oracle(fld, params, depth))
    public = measure.dlr_breakdown(fld, params, 0)
    assert _bits(dlr.conditional_tv) == _bits(public.conditional_tv)
    assert _bits(dlr.equation_tv) == _bits(public.equation_tv)
    assert flip == measure.symmetry_check(fld, params, depth)


@on_both_routes
def test_dlr_oracle_negative_control(fm_params, fm_roots):
    fld = constant_field(np.array([0.0, math.log(fm_roots[2])]), fm_params, 2)
    bad = perturb_field(fld, 0.5)
    assert measure.dlr_breakdown(bad, fm_params, 0).max_violation >= 1e-3


def test_marginals_uniform_and_symmetric(fm_params, fm_roots):
    p = ModelParams(k=2, m=2, J=0.0, beta=1.0)
    fld = constant_field(np.zeros(2), p, 2)
    _, probs = measure.finite_volume_measure(fld, p, 2)
    for row in range(ball_size(p.k, 2)):
        np.testing.assert_allclose(reference.marginal(probs, 3, [row]), np.full(3, 1 / 3),
                                   atol=1e-12)
    # symmetric solution: root marginal has equal extreme-spin mass
    fld2 = constant_field(np.array([0.0, math.log(fm_roots[1])]), fm_params, 2)
    root = measure.root_marginal(fld2, fm_params, 2, method="table")
    assert root[0] == pytest.approx(root[2], abs=1e-12)


def test_marginal_routes_agree(fm_params, fm_high_field):
    table_root = measure.root_marginal(fm_high_field, fm_params, 2, method="table")
    kernel_root = measure.root_marginal(fm_high_field, fm_params, 2, method="transfer")
    np.testing.assert_allclose(table_root, kernel_root, atol=1e-10)


def test_two_site_marginal_consistency(fm_params, fm_high_field):
    _, probs = measure.finite_volume_measure(fm_high_field, fm_params, 2)
    pair = reference.marginal(probs, 3, [0, 1])
    np.testing.assert_allclose(pair.sum(axis=1), reference.marginal(probs, 3, [0]), atol=1e-12)
    np.testing.assert_allclose(pair.sum(axis=0), reference.marginal(probs, 3, [1]), atol=1e-12)
    np.testing.assert_array_equal(reference.marginal(probs, 3, [1, 0]), pair.T)


def _table_route_fields(seed):
    """Seeded (params, depth, field): constant and path-pair fields within the cap."""
    rng = np.random.default_rng(seed)
    for k in range(1, 6):
        params = ModelParams(k=k, m=2, J=-1.0, beta=float(rng.uniform(2.0, 3.0)))
        roots = ti.solve_symmetric_roots(params)
        for n in range(5):
            if not measure.enumerable(3, ball_size(k, n)):
                break
            yield params, n, constant_field(rng.normal(size=2), params, n)
            if n and len(roots) == 3:
                t, s = sorted(rng.uniform(0.0, (k + 1) / k, size=2))
                yield params, n, nonti.build_field(t, s, params, n, roots).field


def test_table_route_keeps_the_bits_of_the_general_marginal():
    # the root is the most significant axis: summing the rest of a (3, -1)
    # reshape gives the bits of summing every other axis of the (3,)^N tensor
    count = 0
    for seed in range(3):
        for params, n, fld in _table_route_fields(seed):
            _, probs = measure.finite_volume_measure(fld, params, n)
            np.testing.assert_array_equal(
                measure.root_marginal(fld, params, n, method="table").view(np.int64),
                reference.marginal(probs, 3, [0]).view(np.int64))
            count += 1
    assert count >= 30


def test_marginal_scale_guard(fm_params, fm_high_field):
    with pytest.raises(measure.ScaleError):
        measure.finite_volume_measure(fm_high_field, fm_params, 3)


def test_kernel_equivalence_for_built_field_types(fm_params):
    # constant, mixed path-built: root and edge marginals via both routes
    hi = (fm_params.k + 1) / fm_params.k
    built = nonti.build_field(0.0, hi, fm_params, 2)
    np.testing.assert_allclose(
        measure.root_marginal(built.field, fm_params, 2, method="table"),
        measure.root_marginal(built.field, fm_params, 2, method="transfer"), atol=1e-10)
    assert measure.compatibility_oracle(built.field, fm_params, 2) <= 1e-10
    assert measure.dlr_breakdown(built.field, fm_params, 0).max_violation <= 1e-10


@on_both_routes
def test_symmetry_check(fm_params, fm_roots):
    sym = constant_field(np.array([0.0, math.log(fm_roots[0])]), fm_params, 2)
    assert measure.symmetry_check(sym, fm_params, 2)
    asym = constant_field(np.array([math.log(2.0), 0.0]),
                          ModelParams.from_theta(k=2, m=2, theta=0.5), 2)
    assert not measure.symmetry_check(asym, ModelParams.from_theta(k=2, m=2, theta=0.5), 2)
    uni = constant_field(np.zeros(2), ModelParams(k=2, m=2, J=0.0, beta=1.0), 2)
    assert measure.symmetry_check(uni, ModelParams(k=2, m=2, J=0.0, beta=1.0), 2)


def test_sampling_deterministic(fm_params, fm_high_field):
    s1, v1 = measure.sample(fm_high_field, fm_params, 3, seed=42, count=500)
    s2, v2 = measure.sample(fm_high_field, fm_params, 3, seed=42, count=500)
    np.testing.assert_array_equal(s1, s2)
    assert v1 == v2
    s3, _ = measure.sample(fm_high_field, fm_params, 3, seed=43, count=500)
    assert not np.array_equal(s1, s3)


def test_sampling_golden_rows(fm_params, fm_roots):
    # frozen from the fixed generator contract (seed 42, breadth-first blocks)
    fld = constant_field(np.array([0.0, math.log(fm_roots[1])]), fm_params, 2)
    s, _ = measure.sample(fld, fm_params, 2, seed=42, count=6)
    golden = np.array([
        [2, 2, 2, 2, 2, 2, 2, 2, 2, 2],
        [1, 1, 2, 1, 1, 2, 2, 2, 0, 1],
        [2, 2, 2, 2, 2, 2, 2, 2, 2, 2],
        [2, 2, 2, 2, 1, 2, 2, 2, 0, 2],
        [0, 0, 0, 1, 0, 0, 0, 0, 1, 0],
        [2, 2, 1, 2, 2, 2, 2, 1, 2, 2],
    ], dtype=np.int8)
    np.testing.assert_array_equal(s, golden)


def test_sampling_uniform_chi_square():
    p = ModelParams(k=2, m=2, J=0.0, beta=1.0)
    fld = constant_field(np.zeros(2), p, 3)
    s, _ = measure.sample(fld, p, 3, seed=7, count=100_000)
    counts = np.bincount(s[:, 0], minlength=3)
    expected = s.shape[0] / 3
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    # two degrees of freedom: the 1e-3 critical value is -2 ln(1e-3)
    assert chi2 < -2 * math.log(1e-3)


def test_sampling_marginal_fidelity(fm_params, fm_high_field):
    s, _ = measure.sample(fm_high_field, fm_params, 3, seed=11, count=50_000)
    emp = np.bincount(s[:, 0], minlength=3) / s.shape[0]
    exact = measure.root_marginal(fm_high_field, fm_params, 3, method="transfer")
    assert 0.5 * np.abs(emp - exact).sum() <= 0.02


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 3), n=st.integers(0, 3), m=st.integers(1, 3),
       theta=st.floats(0.05, 20.0), seed=st.integers(0, 2**32 - 1))
def test_transition_kernel_chains_to_the_table_measure(k, n, m, theta, seed):
    # any field, consistent or not: root_dist chained through the kernels gives
    # the enumerated root marginal and every (parent, vertex) pair marginal
    params = ModelParams.from_theta(k=k, m=m, theta=theta)
    while (m + 1) ** ball_size(k, n) > 3 ** 10:
        n -= 1
    fld = random_field(params, n, seed, scale=3.0)
    root_dist, kernels = measure.transition_kernel(fld, params, n)
    _, probs = measure.finite_volume_measure(fld, params, n)
    geo = ball_geometry(k, n)
    np.testing.assert_allclose(root_dist, reference.marginal(probs, m + 1, [0]),
                               rtol=0, atol=1e-12)
    marginals = np.empty((geo.n_vertices, m + 1))
    marginals[0] = root_dist
    for v in range(1, geo.n_vertices):
        u = geo.parent_index[v]
        pair = marginals[u][:, None] * kernels[v]
        marginals[v] = pair.sum(axis=0)
        np.testing.assert_allclose(pair, reference.marginal(probs, m + 1, [u, v]),
                                   rtol=0, atol=1e-12)


def _table_chain(fld, params, n):
    """Root marginal and (parent, vertex) kernels of the enumerated depth-n table."""
    _, probs = measure.finite_volume_measure(fld, params, n)
    geo, q = ball_geometry(params.k, n), params.m + 1
    pairs = [reference.marginal(probs, q, [geo.parent_index[v], v])
             for v in range(1, geo.n_vertices)]
    kernels = np.array([pair / pair.sum(axis=1, keepdims=True) for pair in pairs])
    return reference.marginal(probs, q, [0]), kernels.reshape(-1, q, q)


def _filled_field(params, depth, seed, symmetric):
    """Random sphere laws, flip-symmetric on request, filled inward as the builders do."""
    geo = ball_geometry(params.k, depth)
    u = boundary.unreduce(np.random.default_rng(seed).normal(
        size=(geo.level_sizes[depth], params.m)))
    if symmetric:
        u = u + u[:, ::-1]
    laws = np.empty((geo.n_vertices, params.m))
    laws[geo.level(depth)] = (u - u[:, -1:])[:, :params.m]
    for d in range(depth - 1, -1, -1):
        laws[geo.level(d)] = boundary.successor_law_sums(laws, geo, d, params)
    return BoundaryLawField(k=params.k, depth=depth, laws=laws)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 3), n=st.integers(1, 3), m=st.integers(1, 3),
       theta=st.floats(0.05, 20.0), seed=st.integers(0, 2**32 - 1),
       eps=st.floats(1e-6, 0.1), sign=st.sampled_from([0, 1, -1]), symmetric=st.booleans())
def test_sweep_oracles_agree_with_the_tables(k, n, m, theta, seed, eps, sign, symmetric):
    params = ModelParams.from_theta(k=k, m=m, theta=theta)
    while (m + 1) ** ball_size(k, n) > 3 ** 10:
        n -= 1
    # on any field, the forced sweep is the root and kernel gap of the two tables
    fld = random_field(params, n, seed, scale=3.0)
    with mock.patch.object(measure, "EXACT_TABLE_CAP", 0):
        swept = measure.compatibility_oracle(fld, params, n)
    (root_n, kern_n), (root_in, kern_in) = (_table_chain(fld, params, d) for d in (n, n - 1))
    gap = max(np.abs(root_n - root_in).max(), np.abs(kern_n[:len(kern_in)] - kern_in).max(initial=0))
    assert abs(swept - gap) <= 1e-12
    # on builder fields, perturbed or not, both routes reach the same verdicts
    fld = _filled_field(params, n, seed, symmetric)
    if sign:
        fld = perturb_field(fld, sign * eps)

    def verdicts():
        return (measure.compatibility_oracle(fld, params, n) <= 1e-10,
                measure.dlr_breakdown(fld, params, n - 1).max_violation <= 1e-10,
                measure.symmetry_check(fld, params, n))

    table = verdicts()
    with mock.patch.object(measure, "EXACT_TABLE_CAP", 0):
        assert verdicts() == table
    if not sign:
        assert table == (True, True, symmetric)


def test_kernel_flip_equivariance(fm_params, fm_roots):
    fld = constant_field(np.array([0.0, math.log(fm_roots[1])]), fm_params, 2)
    root_dist, kernels = measure.transition_kernel(fld, fm_params, 2)
    np.testing.assert_allclose(root_dist, root_dist[::-1], atol=1e-14)
    assert kernels.shape == (ball_size(2, 2), 3, 3)
    for table in kernels[1:]:
        np.testing.assert_allclose(table, table[::-1, ::-1], atol=1e-14)
    # inverse-CDF draws map through the flip when the uniform is reflected
    cum = np.cumsum(root_dist)
    for u in np.linspace(0.01, 0.99, 37):
        a = int(np.searchsorted(cum, u, side="right"))
        b = int(np.searchsorted(cum, 1.0 - u, side="right"))
        assert a == 2 - b


def test_samples_to_csv(fm_params, fm_high_field):
    s, v = measure.sample(fm_high_field, fm_params, 1, seed=5, count=3)
    text = measure.samples_to_csv(s, v)
    lines = text.strip().split("\n")
    assert lines[0] == "e,1,2,3"
    assert len(lines) == 4
    assert all(len(line.split(",")) == 4 for line in lines[1:])


def _row_join_csv(samples, labels):
    return "\n".join([",".join(labels)] + [",".join(map(str, r.tolist())) for r in samples]) + "\n"


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("depth, count", [(0, 4), (2, 0), (3, 25)])
def test_samples_to_csv_is_the_row_join(m, depth, count):
    params = ModelParams.from_theta(k=2, m=m, theta=0.4)
    s, labels = measure.sample(random_field(params, depth, seed=m), params, depth,
                               seed=depth, count=count)
    assert measure.samples_to_csv(s, labels) == _row_join_csv(s, labels)


def test_samples_to_csv_writes_multi_digit_spins():
    rng = np.random.default_rng(3)
    labels = ball_geometry(3, 2).labels
    for low, high in [(0, 13), (8, 13), (-12, 200)]:
        s = rng.integers(low, high, size=(40, len(labels))).astype(np.int16)
        assert measure.samples_to_csv(s, labels) == _row_join_csv(s, labels)
    s = np.full((2, 1), 12, dtype=np.int8)
    assert measure.samples_to_csv(s, ("e",)) == "e\n12\n12\n"


def test_sample_configs_cover_ball(fm_params, fm_high_field):
    s, v = measure.sample(fm_high_field, fm_params, 2, seed=1, count=2)
    assert s.shape == (2, ball_size(2, 2))
    assert v == tuple(str(w) for w in cached_ball(2, 2))
    assert np.all(np.isfinite(hamiltonian(s, fm_params, 2)))


def test_extreme_boundary_condition_probe(fm_params, fm_roots, capsys):
    # trend probe, recorded without a pass/fail claim: the kernel conditioned
    # on the all-ones sphere configuration drifts toward the top-branch
    # measure as the ball grows
    top = constant_field(np.array([0.0, math.log(fm_roots[2])]), fm_params, 2)
    gaps = []
    for n in (0, 1):
        kernel = measure._gibbs_kernel_table(fm_params, n)
        n_outer = measure.ball_geometry(2, n + 1).n_vertices - measure.ball_geometry(2, n).n_vertices
        ones_idx = (3 ** n_outer - 1) // 2
        cond = kernel[:, ones_idx]
        n_in = measure.ball_geometry(2, n).n_vertices
        root = cond.reshape((3,) * n_in).sum(axis=tuple(range(1, n_in))) if n_in > 1 else cond
        ref = measure.root_marginal(top, fm_params, n, method="table")
        gaps.append(0.5 * float(np.abs(root - ref).sum()))
    print(f"all-ones boundary vs top-branch root marginal, TV by depth: {gaps}")
    assert all(np.isfinite(g) for g in gaps)
