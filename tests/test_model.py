import math

import numpy as np
import pytest

from sostree.model import ModelParams, parse_params_text
from sostree.tree import ball, ball_size

from reference import hamiltonian, parent


def test_theta_values():
    assert ModelParams(k=2, m=2, J=0.0, beta=5.0).theta == 1.0
    assert ModelParams(k=2, m=2, J=-1.0, beta=1.0).theta == pytest.approx(math.exp(-1), abs=1e-15)
    # inverting the exponential recovers the two-cycle test activation
    beta = math.log(1.07)
    assert ModelParams(k=200, m=2, J=1.0, beta=beta).theta == pytest.approx(1.07, abs=1e-15)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(k=0, m=2, J=1.0, beta=1.0)
    with pytest.raises(ValueError):
        ModelParams(k=2, m=0, J=1.0, beta=1.0)
    with pytest.raises(ValueError):
        ModelParams(k=2, m=2, J=1.0, beta=-0.1)


@pytest.mark.parametrize("J, beta", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0),
                                     (-math.inf, 1.0), (-1.0, math.inf), (1.0, 1e3),
                                     (-1.0, 1e3)])
def test_params_reject_non_finite(J, beta):
    # theta = exp(J*beta) must be a positive finite number as well
    with pytest.raises(ValueError):
        ModelParams(k=2, m=2, J=J, beta=beta)


def test_from_theta():
    p = ModelParams.from_theta(k=2, m=2, theta=0.5)
    assert p.theta == pytest.approx(0.5, abs=1e-15)
    for bad in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            ModelParams.from_theta(k=2, m=2, theta=bad)


def test_parse_params_text():
    p = parse_params_text("k = 2\nm = 2\nJ = -1.0\nbeta = 2.0\n# comment\n")
    assert (p.k, p.m, p.J, p.beta) == (2, 2, -1.0, 2.0)
    with pytest.raises(ValueError):
        parse_params_text("k = 2\nm = 2\nJ = -1.0\n")


def test_hamiltonian_constant_config_is_zero():
    p = ModelParams(k=2, m=2, J=-1.0, beta=2.0)
    for j in range(3):
        assert hamiltonian(np.full(10, j), p, 2) == 0.0


def test_hamiltonian_hand_values():
    # root 0, three children 2, J=-1: three edges of gap 2
    p = ModelParams(k=2, m=2, J=-1.0, beta=1.0)
    assert hamiltonian([0, 2, 2, 2], p, 1) == 6.0
    # root 1, children (0,1,2), J=+1: gaps 1,0,1
    p2 = ModelParams(k=2, m=2, J=1.0, beta=1.0)
    assert hamiltonian([1, 0, 1, 2], p2, 1) == -2.0
    # a batch of configurations gives one energy per row
    np.testing.assert_array_equal(hamiltonian([[0, 2, 2, 2], [1, 1, 1, 1]], p, 1), [6.0, 0.0])


def test_hamiltonian_matches_direct_edge_enumeration():
    rng = np.random.default_rng(3)
    p = ModelParams(k=2, m=2, J=-0.7, beta=1.3)
    words = ball(2, 2)
    spins = rng.integers(0, 3, size=(20, len(words)))
    energies = hamiltonian(spins, p, 2)
    for row, energy in zip(spins, energies):
        total = 0
        for i, w in enumerate(words):
            for j, y in enumerate(words):
                if len(y) == len(w) + 1 and y.letters[:-1] == w.letters:
                    total += abs(row[i] - row[j])
        assert energy == pytest.approx(-p.J * total, abs=1e-12)


def test_hamiltonian_flip_invariance():
    rng = np.random.default_rng(4)
    p = ModelParams(k=2, m=2, J=-1.0, beta=2.0)
    spins = rng.integers(0, 3, size=(20, ball_size(2, 2)))
    np.testing.assert_array_equal(hamiltonian(spins, p, 2), hamiltonian(2 - spins, p, 2))


def test_hamiltonian_missing_vertex():
    p = ModelParams(k=2, m=2, J=-1.0, beta=2.0)
    with pytest.raises(ValueError):
        hamiltonian([0], p, 1)
    with pytest.raises(ValueError):
        hamiltonian(np.zeros(11, dtype=int), p, 2)
    # spins outside 0..m
    with pytest.raises(ValueError):
        hamiltonian([0, 3, 0, 0], p, 1)
    with pytest.raises(ValueError):
        hamiltonian([0, -1, 0, 0], p, 1)


def test_energy_decomposition_is_additive():
    # ball energy at depth 2 = energy of its depth-1 row prefix + the edges
    # joining sphere 1 to sphere 2
    rng = np.random.default_rng(9)
    p = ModelParams(k=2, m=2, J=-1.0, beta=2.0)
    words2 = ball(2, 2)
    inner = ball_size(2, 1)
    index = {w: i for i, w in enumerate(words2)}
    for spins in rng.integers(0, 3, size=(10, len(words2))):
        boundary = sum(abs(spins[i] - spins[index[parent(w)]])
                       for i, w in enumerate(words2) if len(w) == 2)
        assert hamiltonian(spins, p, 2) == pytest.approx(
            hamiltonian(spins[:inner], p, 1) - p.J * boundary, abs=1e-12)
