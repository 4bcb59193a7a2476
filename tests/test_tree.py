import itertools

import numpy as np
import pytest

from sostree.periodic import coset_equations
from sostree.tree import (IDENTITY, SubgroupSpec, Word, ball, ball_geometry, ball_size,
                          direct_successors, sphere_size, vertex_addresses)

from reference import parent, reduce_letters, sphere


def test_reduce_cancels_squares():
    assert reduce_letters([1, 1], 2) == IDENTITY
    assert reduce_letters([1, 2, 2, 1], 2) == IDENTITY
    assert reduce_letters([1, 2, 1], 2) == Word((1, 2, 1))


def test_reduce_rejects_bad_letters():
    with pytest.raises(ValueError):
        reduce_letters([0], 2)
    with pytest.raises(ValueError):
        reduce_letters([4], 2)


def test_sphere_sizes():
    assert sphere(2, 0) == [IDENTITY]
    assert len(sphere(2, 2)) == 6 == sphere_size(2, 2)
    assert len(sphere(3, 3)) == 36 == sphere_size(3, 3)


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_ball_size_formula(k, n):
    words = ball(k, n)
    assert len(words) == len(set(words))
    expected = 1 + (k + 1) * (k ** n - 1) // (k - 1)
    assert len(words) == expected == ball_size(k, n)


def test_direct_successors():
    assert len(direct_successors(IDENTITY, 2)) == 3
    a1 = Word((1,))
    assert direct_successors(a1, 2) == [Word((1, 2)), Word((1, 3))]
    for w in sphere(2, 3):
        assert len(direct_successors(w, 2)) == 2
        for s in direct_successors(w, 2):
            assert parent(s) == w


def test_group_operation_consistency():
    rng = np.random.default_rng(5)
    k = 3
    for _ in range(200):
        la = rng.integers(1, k + 2, size=rng.integers(0, 8)).tolist()
        lb = rng.integers(1, k + 2, size=rng.integers(0, 8)).tolist()
        a, b = reduce_letters(la, k), reduce_letters(lb, k)
        ab = reduce_letters(la + lb, k)
        assert reduce_letters(a.letters + b.letters, k) == ab
        # reduction is idempotent
        assert reduce_letters(ab.letters, k) == ab


# The word walk: the tests below build neighbours and cosets from words
# themselves and check coset_equations against them.

def _neighbours(w, k):
    """All k+1 neighbours w.a, in generator order."""
    return [reduce_letters(w.letters + (a,), k) for a in range(1, k + 2)]


def _coset(w, spec):
    """0 for the subgroup itself, 1 for the other coset."""
    return sum(a in spec.parity_set for a in w.letters) % 2


def _walk_counts(w, spec):
    """How many neighbours of w lie in cosets 0 and 1."""
    q = [0, 0]
    for y in _neighbours(w, spec.k):
        q[_coset(y, spec)] += 1
    return tuple(q)


def test_neighbors_structure():
    k = 2
    for w in ball(k, 3):
        ns = _neighbours(w, k)
        assert len(ns) == len(set(ns)) == k + 1
        if w.letters:
            assert parent(w) in ns
            assert set(direct_successors(w, k)) == set(ns) - {parent(w)}
        assert all(abs(len(y) - len(w)) == 1 for y in ns)


def _walk_equations(spec, n):
    """The (coset, successor counts) pairs met at the non-root vertices of the depth-n ball."""
    seen = set()
    for w in ball(spec.k, n)[1:]:
        succ = [0, 0]
        for s in direct_successors(w, spec.k):
            succ[_coset(s, spec)] += 1
        seen.add((_coset(w, spec), tuple(succ)))
    return seen


def test_coset_profile_even_words():
    k = 3
    spec = SubgroupSpec(k=k, parity_set=frozenset(range(1, k + 2)))
    assert spec.is_full
    assert _walk_counts(IDENTITY, spec) == (0, k + 1)
    # every vertex has all neighbours in the opposite-length-parity coset
    for w in ball(k, 3):
        q = _walk_counts(w, spec)
        assert q[_coset(w, spec)] == 0
        assert sorted(q) == [0, k + 1]
    # so every successor of a non-root vertex lies in the other coset
    assert coset_equations(spec) == [(0, (0, k)), (1, (k, 0))]
    assert set(coset_equations(spec)) == _walk_equations(spec, 3)


def test_coset_profile_single_generator():
    spec = SubgroupSpec(k=2, parity_set=frozenset({1}))
    assert not spec.is_full
    assert _coset(IDENTITY, spec) == 0
    assert _walk_counts(IDENTITY, spec) == (2, 1)
    # coset 0 first, and for each coset the parent in coset 0 first
    assert coset_equations(spec) == [(0, (1, 1)), (0, (2, 0)), (1, (0, 2)), (1, (1, 1))]
    assert set(coset_equations(spec)) == _walk_equations(spec, 3)


def test_profile_is_permutation_invariant():
    # q(x) is a permutation of q(e) and the nonzero count is constant, so the
    # coset equations of every ball agree
    k = 3
    for a_size in (1, 2, 3, 4):
        spec = SubgroupSpec(k=k, parity_set=frozenset(range(1, a_size + 1)))
        q_e = _walk_counts(IDENTITY, spec)
        n_e = sum(1 for v in q_e if v)
        for w in ball(k, 4):
            q = _walk_counts(w, spec)
            assert sorted(q) == sorted(q_e)
            assert sum(1 for v in q if v) == n_e
        assert set(coset_equations(spec)) == _walk_equations(spec, 4)
        assert all(sum(counts) == k for _, counts in coset_equations(spec))


@pytest.mark.parametrize("k", [2, 3])
def test_subgroup_counts_match_word_walk(k):
    # for every parity set A: every vertex of coset 0 has k + 1 - |A| neighbours
    # in coset 0 and |A| in coset 1 (coset 1 the reverse), and coset_equations
    # lists exactly the (coset, successor counts) pairs met in the ball
    generators = range(1, k + 2)
    for size in range(1, k + 2):
        for letters in itertools.combinations(generators, size):
            spec = SubgroupSpec(k=k, parity_set=frozenset(letters))
            assert spec.is_full == (size == k + 1)
            profile = (k + 1 - size, size)
            for w in ball(k, 3):
                q = _walk_counts(w, spec)
                assert q == (profile if _coset(w, spec) == 0 else profile[::-1])
            seen = _walk_equations(spec, 3)
            assert set(coset_equations(spec)) == seen
            assert len(coset_equations(spec)) == len(seen)


def test_subgroup_spec_validation():
    with pytest.raises(ValueError):
        SubgroupSpec(k=2, parity_set=frozenset())
    with pytest.raises(ValueError):
        SubgroupSpec(k=2, parity_set=frozenset({5}))


def test_vertex_addresses_cover_ball():
    k, n = 2, 3
    addressed = vertex_addresses(k, n)
    assert [w for w, _ in addressed] == ball(k, n)
    for w, addr in addressed:
        v = IDENTITY
        for digit in addr:
            v = direct_successors(v, k)[digit]
        assert v == w


def test_ball_geometry_refuses_a_negative_depth():
    with pytest.raises(ValueError, match="^depth must be >= 0$"):
        ball_geometry(2, -1)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 3])
def test_ball_geometry_layout(k, n):
    # row i of the layout is the i-th word of the word walk
    geo = ball_geometry(k, n)
    words = ball(k, n)
    assert geo.labels == tuple(str(w) for w in words)
    assert geo.level_sizes == tuple(sphere_size(k, d) for d in range(n + 1))
    assert geo.parent_index[0] == -1
    for i, w in enumerate(words):
        d = next(d for d in range(n + 1) if i < geo.offsets[d + 1])
        assert len(w) == d
        if i:
            p = geo.parent_index[i]
            assert words[p] == parent(w)
            # the position in the sibling block, from the row alone
            branching = k + 1 if d == 1 else k
            assert direct_successors(parent(w), k)[(i - geo.offsets[d]) % branching] == w
    # each level's successors are one block of the next level per vertex
    rows = np.arange(geo.n_vertices)
    for d in range(n):
        blocks = geo.successor_blocks(rows[geo.level(d + 1)], d)
        assert blocks.shape == (geo.level_sizes[d], k + 1 if d == 0 else k)
        assert np.all(geo.parent_index[blocks] == rows[geo.level(d)][:, None])


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_ball_labels_are_the_words(k):
    for n in range(7):
        assert ball_geometry(k, n).labels == tuple(map(str, ball(k, n)))


def test_word_serialization_round_trip():
    for w in ball(3, 3)[1:]:
        assert reduce_letters([int(a) for a in str(w).split(".")], 3) == w
    assert str(IDENTITY) == "e"
    assert str(Word((1, 2, 1))) == "1.2.1"
