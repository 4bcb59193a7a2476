import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sostree import boundary, nonti, ti
from sostree.model import ModelParams
from sostree.tree import ball_geometry, ball_size, vertex_addresses

import reference


def test_path_parameter_endpoints():
    k = 2
    hi = (k + 1) / k
    assert nonti.path_from_parameter(0.0, k, 6) == (0,) * 6
    assert nonti.path_from_parameter(hi, k, 6) == (2,) + (1,) * 5
    first = nonti.path_from_parameter(hi, k, 6)
    assert first[0] == k and all(d == k - 1 for d in first[1:])
    with pytest.raises(ValueError):
        nonti.path_from_parameter(-0.01, k, 4)
    with pytest.raises(ValueError):
        nonti.path_from_parameter(hi + 0.01, k, 4)


def test_path_parameter_monotone():
    rng = np.random.default_rng(0)
    k = 2
    hi = (k + 1) / k
    for _ in range(300):
        t1, t2 = sorted(rng.uniform(0, hi, size=2))
        d1 = nonti.path_from_parameter(t1, k, 8)
        d2 = nonti.path_from_parameter(t2, k, 8)
        assert d1 <= d2


def test_split_components_partition(fm_params):
    k, depth = 2, 3
    p1 = nonti.path_from_parameter(0.4, k, depth)
    p2 = nonti.path_from_parameter(1.1, k, depth)
    comp = nonti.split_components(p1, p2, k, depth)
    assert len(comp) == ball_size(k, depth)
    assert set(comp.tolist()) == {1, 2, 3}


def test_split_components_coincident_paths():
    k, depth = 2, 3
    p = nonti.path_from_parameter(0.7, k, depth)
    comp = nonti.split_components(p, p, k, depth)
    assert 2 not in comp.tolist()
    assert {1, 3} <= set(comp.tolist())


def test_split_components_extreme_paths():
    k, depth = 2, 2
    p1 = nonti.path_from_parameter(0.0, k, depth)
    p2 = nonti.path_from_parameter(1.5, k, depth)
    comp = nonti.split_components(p1, p2, k, depth)
    assert len(comp) == 10
    assert 1 in comp.tolist() and 3 in comp.tolist()
    with pytest.raises(ValueError):
        nonti.split_components(p2, p1, k, depth)


def _address_components(path1, path2, addressed):
    """Per-vertex reference: compare each address of vertex_addresses with each path prefix."""
    def compare(addr, path):
        for a, p in zip(addr, path):
            if a != p:
                return -1 if a < p else 1
        return 0

    cmp1 = [compare(addr, path1) for _, addr in addressed]
    cmp2 = [compare(addr, path2) for _, addr in addressed]
    any_right = any(c > 0 for c in cmp2)
    out = []
    for c1, c2 in zip(cmp1, cmp2):
        if c2 > 0:
            out.append(3)
        elif c1 < 0:
            out.append(1)
        elif c1 == 0 and c2 == 0:
            out.append(3 if any_right else 1)
        elif c2 == 0:
            out.append(3)
        elif c1 == 0:
            out.append(1)
        else:
            out.append(2)
    return out


def _split_last(path, k):
    """A path that leaves `path` only at its last level, or None if none can."""
    last = path[-1] + 1 if path[-1] + 1 < (k + 1 if len(path) == 1 else k) else path[-1] - 1
    return path[:-1] + (last,) if last >= 0 else None


def test_split_components_matches_address_comparison():
    rng = np.random.default_rng(3)
    for k in (1, 2, 3, 5, 10):
        hi = (k + 1) / k
        for depth in range(1, 9 if k <= 3 else 5):
            addressed = vertex_addresses(k, depth)
            # the endpoint paths, coincident pairs, seeded pairs and pairs
            # that split only at the last level
            low, high = (nonti.path_from_parameter(t, k, depth) for t in (0.0, hi))
            pairs = [(low, low), (high, high), (low, high)]
            for _ in range(10):
                t, s = sorted(rng.uniform(0, hi, size=2))
                p1 = nonti.path_from_parameter(t, k, depth)
                p2 = nonti.path_from_parameter(s, k, depth)
                pairs += [(p1, p2), (p1, p1)]
                if (split := _split_last(p1, k)) is not None:
                    pairs.append(tuple(sorted((p1, split))))
            for p1, p2 in pairs:
                assert nonti.split_components(p1, p2, k, depth).tolist() == \
                    _address_components(p1, p2, addressed)


def test_build_field_requires_three_solutions():
    p = ModelParams(k=2, m=2, J=-1.0, beta=0.5)
    with pytest.raises(ValueError):
        nonti.build_field(0.0, 0.0, p, 4)
    p2 = ModelParams(k=2, m=2, J=-1.0, beta=2.0)
    with pytest.raises(ValueError):
        nonti.build_field(1.0, 0.5, p2, 4)


def test_build_field_endpoint_constants(fm_params, fm_roots):
    hi = (fm_params.k + 1) / fm_params.k
    h_minus = np.array([0.0, math.log(fm_roots[0])])
    h_plus = np.array([0.0, math.log(fm_roots[2])])

    low = nonti.build_field(0.0, 0.0, fm_params, 6)
    assert all(np.array_equal(h, h_plus) for h in low.field.laws[1:])
    np.testing.assert_array_equal(low.field.laws[0], 1.5 * h_plus)

    high = nonti.build_field(hi, hi, fm_params, 6)
    assert all(np.array_equal(h, h_minus) for h in high.field.laws[1:])

    # the two extreme fields differ at least by the outer-root gap everywhere
    gap = math.log(fm_roots[2]) - math.log(fm_roots[0])
    assert reference.field_distance(low, high) >= gap - 1e-12
    # row 1 is the vertex "1"
    assert np.max(np.abs(low.field.laws[1] - high.field.laws[1])) \
        == pytest.approx(gap, abs=1e-12)


def test_build_field_interior_consistency_is_exact(fm_params):
    built = nonti.build_field(0.3, 1.2, fm_params, 5)
    assert boundary.compatibility_residual(built.field, fm_params) == 0.0


@settings(max_examples=20, deadline=None)
@given(k=st.integers(2, 4), depth=st.integers(1, 5), beta=st.floats(2.0, 3.0),
       ts=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
def test_build_field_is_exactly_consistent(k, depth, beta, ts):
    params = ModelParams(k=k, m=2, J=-1.0, beta=beta)
    hi = (k + 1) / k
    t, s = sorted(x * hi for x in ts)
    built = nonti.build_field(t, s, params, depth)
    assert boundary.compatibility_residual(built.field, params) == 0.0
    assert np.all(built.field.laws[:, 0] == 0.0)


def test_build_field_preserves_slice_and_sandwich(fm_params, fm_roots):
    rng = np.random.default_rng(1)
    hi = (fm_params.k + 1) / fm_params.k
    for _ in range(20):
        t, s = sorted(rng.uniform(0, hi, size=2))
        built = nonti.build_field(t, s, fm_params, 6)
        for h in built.field.laws[1:]:
            assert h[0] == 0.0
            z1 = math.exp(h[1])
            assert fm_roots[0] - 1e-9 <= z1 <= fm_roots[2] + 1e-9


def test_mixed_field_uses_middle_law_in_bulk(fm_params, fm_roots):
    hi = (fm_params.k + 1) / fm_params.k
    built = nonti.build_field(0.0, hi, fm_params, 4)
    counts = np.bincount(built.components[ball_geometry(2, 4).level(4)], minlength=4)
    # single leaf on each path, the rest of the sphere in the middle
    assert counts[1] == 1 and counts[3] == 1
    assert counts[2] == ball_size(2, 4) - ball_size(2, 3) - 2


def test_root_convergence_constant_case(fm_params):
    report = nonti.root_convergence(0.0, 0.0, fm_params, depths=[3, 4, 5, 6])
    assert report.differences == [0.0, 0.0, 0.0]
    assert report.cauchy


def test_root_convergence_mixed_case(fm_params):
    hi = (fm_params.k + 1) / fm_params.k
    report = nonti.root_convergence(0.0, hi, fm_params, depths=[4, 5, 6, 7, 8])
    assert all(b < a for a, b in zip(report.differences, report.differences[1:]))
    assert report.cauchy
    # empirical rate against the slice contraction ceiling when it contracts
    ceiling = fm_params.k * reference.slice_contraction_constant(fm_params.theta)
    if ceiling < 1:
        assert max(report.rates) <= ceiling + 1e-6


def test_distinctness_matrix(fm_params, fm_roots):
    hi = (fm_params.k + 1) / fm_params.k
    pairs = [(0.0, 0.0), (hi, hi), (0.0, hi), (0.0, 0.0)]
    mat = reference.distinctness_check(pairs, fm_params, depth=5)
    assert mat[0, 3] == 0.0
    gap = math.log(fm_roots[2]) - math.log(fm_roots[0])
    assert mat[0, 1] >= gap - 1e-12
    assert mat[0, 2] > 0 and mat[1, 2] > 0
    np.testing.assert_allclose(mat, mat.T)


def test_nonti_callers_scan_the_roots_once(monkeypatch, fm_params):
    # root_convergence builds a field per depth and distinctness_check one per
    # pair, and `verify --source nonti` needs the roots for its sandwich
    # check; each scans the symmetric roots once, with the bits of a fresh scan
    from sostree.cli import main

    hi = (fm_params.k + 1) / fm_params.k
    before = nonti.root_convergence(0.0, hi, fm_params, depths=[3, 4, 5])
    calls = []
    original = ti.solve_symmetric_roots

    def counted(params):
        calls.append(params)
        return original(params)

    monkeypatch.setattr(ti, "solve_symmetric_roots", counted)
    report = nonti.root_convergence(0.0, hi, fm_params, depths=[3, 4, 5])
    np.testing.assert_array_equal(report.root_laws, before.root_laws)
    reference.distinctness_check([(0.0, 0.0), (hi, hi), (0.0, hi)], fm_params, depth=4)
    assert main(["verify", "--source", "nonti", "--k", "2", "--J", "-1", "--beta", "2",
                 "--t", "0.3", "--s", "1.2", "--depth", "2"]) == 0
    assert calls == [fm_params] * 2 + [ModelParams(k=2, m=2, J=-1.0, beta=2.0)]


def test_paths_differing_beyond_depth_are_indistinguishable(fm_params):
    # two parameters whose digit expansions agree to the ball depth
    t1 = 0.4
    d = nonti.path_from_parameter(t1, 2, 12)
    t2 = t1 + 1e-9
    assert nonti.path_from_parameter(t2, 2, 6) == d[:6]
    mat = reference.distinctness_check([(0.0, t1), (0.0, t2)], fm_params, depth=6)
    assert mat[0, 1] == 0.0


def test_field_json_payload(fm_params):
    built = nonti.build_field(0.2, 1.0, fm_params, 3)
    data = built.to_json_dict()
    assert data["t"] == 0.2 and data["s"] == 1.0
    assert data["depth"] == 3
    assert len(data["component_map"]) == ball_size(2, 3)
    assert any(e["vertex"] == "e" for e in data["entries"])


def _dumps(nf):
    return json.dumps(nf.to_json_dict(), indent=2) + "\n"


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 4), depth=st.integers(0, 6), seed=st.integers(0, 2**32 - 1),
       t=st.floats(allow_nan=False), s=st.floats(allow_nan=False))
def test_field_json_text_is_json_dumps(k, depth, seed, t, s):
    rng = np.random.default_rng(seed)
    n = ball_size(k, depth)
    fld = boundary.BoundaryLawField(k=k, depth=depth, laws=rng.normal(scale=50.0, size=(n, 2)))
    nf = nonti.NonTiField(t=t, s=s, field=fld, components=rng.integers(1, 4, size=n))
    assert nf.to_json_text() == _dumps(nf)


def test_field_json_text_writes_json_floats():
    special = [-0.0, 0.0, 1e-300, 1e300, 5e-324, 0.1, math.nan, math.inf, -math.inf]
    fld = boundary.BoundaryLawField(k=2, depth=2, laws=np.resize(special, (ball_size(2, 2), 2)))
    for t, s in [(0.0, -0.0), (math.nan, math.inf), (-math.inf, 1e300), (1, 2)]:
        nf = nonti.NonTiField(t=t, s=s, field=fld,
                              components=np.arange(ball_size(2, 2)) % 3 + 1)
        text = nf.to_json_text()
        assert text == _dumps(nf)
        assert "NaN" in text and "Infinity" in text and "-Infinity" in text


# few values, so laws and components repeat: signed zeros, NaN, both
# infinities, the least subnormal, a huge float, and labels outside 1..3
LAW_POOL = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300, -2.5]
COMPONENT_POOL = [1, 2, 3, 0, -4, 10 ** 12]


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 4), depth=st.integers(0, 6), seed=st.integers(0, 2**32 - 1),
       laws=st.lists(st.sampled_from(LAW_POOL), min_size=1, max_size=4),
       components=st.lists(st.sampled_from(COMPONENT_POOL), min_size=1, max_size=3))
@example(k=2, depth=4, seed=0, laws=[-0.0, 0.0], components=[3])
def test_field_json_text_with_repeated_rows(k, depth, seed, laws, components):
    rng = np.random.default_rng(seed)
    n = ball_size(k, depth)
    fld = boundary.BoundaryLawField(k=k, depth=depth, laws=rng.choice(laws, size=(n, 2)))
    nf = nonti.NonTiField(t=0.5, s=1.0, field=fld, components=rng.choice(components, size=n))
    assert nf.to_json_text() == _dumps(nf)


@settings(max_examples=30, deadline=None)
@given(k=st.integers(2, 4), depth=st.integers(1, 6), beta=st.floats(2.0, 3.0),
       ts=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
@example(k=2, depth=6, beta=2.0, ts=(0.0, 0.0))
def test_built_field_json_text_is_json_dumps(k, depth, beta, ts):
    # k = 1 has one symmetric root at every beta, so no path-pair field
    params = ModelParams(k=k, m=2, J=-1.0, beta=beta)
    t, s = sorted(x * (k + 1) / k for x in ts)
    nf = nonti.build_field(t, s, params, depth)
    assert nf.to_json_text() == _dumps(nf)
