"""Jordan algebra structure: products, spectra, frames, and rotations."""

import numpy as np
import pytest

from conelab import eja
from conftest import SIMPLE_FACTORIES, make_eja_system


@pytest.fixture(params=sorted(SIMPLE_FACTORIES))
def algebra(request):
    return SIMPLE_FACTORIES[request.param]()


def test_dimension_table():
    assert eja.family_dim("real", 3) == 6
    assert eja.family_dim("complex", 3) == 9
    assert eja.family_dim("quat", 2) == 6
    assert eja.family_dim("spin", 2, spin_dim=7) == 7


def test_jordan_and_euclidean_identities(algebra, rng):
    for _ in range(100):
        a = algebra.random_element(rng)
        b = algebra.random_element(rng)
        c = algebra.random_element(rng)
        aa = algebra.product(a, a)
        lhs = algebra.product(aa, algebra.product(b, a))
        rhs = algebra.product(algebra.product(aa, b), a)
        assert np.max(np.abs(lhs - rhs)) < 1e-10
        lhs2 = algebra.trace_inner(algebra.product(a, b), c)
        rhs2 = algebra.trace_inner(b, algebra.product(a, c))
        assert abs(lhs2 - rhs2) < 1e-10


def test_commutativity_and_unit(algebra, rng):
    a = algebra.random_element(rng)
    b = algebra.random_element(rng)
    assert np.allclose(algebra.product(a, b), algebra.product(b, a))
    assert np.allclose(algebra.product(algebra.unit(), a), a)


def test_spectral_reconstruction(algebra, rng):
    rank = sum(f.rank for f in algebra.factors)
    for _ in range(20):
        a = algebra.random_element(rng)
        dec = algebra.spectral(a)
        assert len(dec.eigenvalues) == rank
        recon = sum(l * p for l, p in zip(dec.eigenvalues, dec.idempotents))
        assert np.max(np.abs(recon - a)) < 1e-8
        total = sum(dec.idempotents)
        assert np.max(np.abs(total - algebra.unit())) < 1e-8
        for i, p in enumerate(dec.idempotents):
            assert np.max(np.abs(algebra.product(p, p) - p)) < 1e-8
            for q in dec.idempotents[i + 1:]:
                assert np.max(np.abs(algebra.product(p, q))) < 1e-8


def test_positivity_equivalence(algebra, rng):
    # squares are exactly the elements with nonnegative spectrum
    for _ in range(20):
        a = algebra.random_element(rng)
        sq = algebra.product(a, a)
        assert algebra.min_eigenvalue(sq) > -1e-9
    pos = algebra.random_positive(rng)
    root = algebra.sqrt(pos)
    assert np.max(np.abs(algebra.product(root, root) - pos)) < 1e-8


def test_quadratic_rep(algebra, rng):
    a = algebra.random_interior(rng)
    u = algebra.quadratic_rep(a)
    assert np.max(np.abs(u @ algebra.unit() - algebra.product(a, a))) < 1e-9
    # order automorphism: positive elements stay positive both ways
    inv = np.linalg.inv(u)
    for _ in range(10):
        p = algebra.random_positive(rng)
        assert algebra.min_eigenvalue(u @ p) > -1e-8
        assert algebra.min_eigenvalue(inv @ p) > -1e-8


def test_quadratic_rep_matrix_action():
    alg = eja.real_sym(2)
    f = alg.factors[0]
    a = f.from_matrix(np.diag([1.0, 2.0]))
    x = f.from_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    out = f.to_matrix(alg.quadratic_rep(a) @ x)
    assert np.allclose(out, np.array([[0.0, 2.0], [2.0, 0.0]]))


def test_frame_duality(algebra):
    states, effects = algebra.canonical_frame()
    for i, p in enumerate(states):
        for j, e in enumerate(effects):
            assert abs(float(e @ p) - (1.0 if i == j else 0.0)) < 1e-12


def test_overlap_state(algebra):
    if len(algebra.factors) > 1:
        pytest.skip("overlap state is defined per simple algebra")
    w = algebra.overlap_state()
    dec = algebra.spectral(w)
    assert np.sum(np.array(dec.eigenvalues) > 1e-9) == 1
    _, effects = algebra.canonical_frame()
    for e in effects:
        assert float(e @ w) > 1e-6


def test_rotation_generator_path(algebra, rng):
    f = algebra.factors[0]
    if len(algebra.factors) > 1:
        pytest.skip("rotations act within a simple factor")
    w1 = f.random_pure(rng)
    w2 = f.random_pure(rng)
    rot = f.rotation_generator(w1, w2)
    assert np.max(np.abs(rot(1.0) @ w1 - w2)) < 1e-9
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        m = rot(t)
        wt = m @ w1
        dec = f.spectral(wt)
        assert np.sum(np.abs(dec.eigenvalues) > 1e-7) == 1
        assert np.max(np.abs(m @ f.unit() - f.unit())) < 1e-9


def test_classical_is_orthant(rng):
    alg = eja.classical(3)
    assert alg.dim == 3
    x = np.array([0.5, 0.0, 2.0])
    assert alg.min_eigenvalue(x) >= 0
    assert alg.min_eigenvalue(np.array([0.5, -0.1, 2.0])) < 0
    assert np.allclose(alg.product(x, x), x * x)


def test_direct_sum_blocks(rng):
    alg = eja.JordanAlgebra([eja.complex_herm(2).factors[0],
                             eja.real_sym(2).factors[0]])
    assert alg.dim == 7
    a = alg.random_element(rng)
    b = alg.random_element(rng)
    prod = alg.product(a, b)
    f0, f1 = alg.factors
    assert np.allclose(prod[:4], f0.product(a[:4], b[:4]))
    assert np.allclose(prod[4:], f1.product(a[4:], b[4:]))
    w = alg.random_pure(rng, summand=1)
    assert alg.summand_of(w, tol=1e-7) == 1


@pytest.mark.parametrize("family", ["real", "complex", "quat"])
def test_basis_conversions_match_loops(family, rng):
    # Reference: the per-element loops over the basis.  No two basis
    # elements share a real or imaginary matrix entry, so to_matrix is
    # exact.  from_matrix sums two products per coordinate (exact in any
    # order) except off-diagonal quaternionic ones, which sum four.
    f = eja.SimpleFactor(family, 3)
    for _ in range(50):
        c = rng.standard_normal(f.dim)
        m = np.zeros_like(f._basis[0])
        for ci, b in zip(c, f._basis):
            m = m + ci * b
        assert np.array_equal(f.to_matrix(c), m)
        h = rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape)
        h = h + h.conj().T
        loop = np.array([f._kappa * np.trace(b.conj().T @ h).real
                         for b in f._basis])
        if family == "quat":
            bound = 8 * np.finfo(float).eps * np.abs(h).max()
            assert np.max(np.abs(f.from_matrix(h) - loop)) <= bound
        else:
            assert np.array_equal(f.from_matrix(h), loop)
