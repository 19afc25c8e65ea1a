"""Jordan algebra structure: products, spectra, frames, and rotations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conelab import classify, eja, fixtures
from conftest import SIMPLE_FACTORIES, make_eja_system
from eja_oracles import (basis_by_family_branches,
                         conjugation_matrix_by_columns,
                         kramers_columns_by_loop, quadratic_rep_by_columns,
                         quaternionic_spectral_by_element,
                         random_interior_by_point, random_pure_by_sample,
                         rotation_by_closure, spectral_map_by_summand,
                         spin_rotation_by_axes)
from helpers import (overlap_state, random_element, random_interior,
                     random_positive, trace_inner)


def spin_plus_complex() -> eja.JordanAlgebra:
    """A spin factor beside a matrix factor: the metric differs per block."""
    return eja.JordanAlgebra([eja.SimpleFactor(eja.SPIN, 2, spin_dim=5),
                              eja.SimpleFactor(eja.COMPLEX, 2)])


@pytest.fixture(params=sorted(SIMPLE_FACTORIES))
def algebra(request):
    return SIMPLE_FACTORIES[request.param]()


def test_dimension_table():
    # the dimension is the size of the basis; classify owns the table
    for family, name in ((eja.REAL, "RealSym"), (eja.COMPLEX, "ComplexHerm"),
                         (eja.QUAT, "QuatHerm")):
        for rank in (1, 2, 3, 4):
            assert (eja.SimpleFactor(family, rank).dim
                    == classify.dim_of(name, rank))
    for n in (3, 7):
        assert (eja.SimpleFactor(eja.SPIN, 2, spin_dim=n).dim
                == classify.dim_of("SpinFactor", 2, spin_dim=n))


def test_invalid_factors_rejected():
    for spin_dim in (None, 1, 2):
        with pytest.raises(ValueError, match="dim parameter >= 3"):
            eja.SimpleFactor(eja.SPIN, 2, spin_dim=spin_dim)
    with pytest.raises(ValueError, match="unknown family"):
        eja.SimpleFactor("octonion", 3)
    for family in (eja.REAL, eja.COMPLEX, eja.QUAT):
        with pytest.raises(ValueError, match="rank must be at least 1"):
            eja.SimpleFactor(family, 0)


def _trace_form(f: eja.SimpleFactor, a, b) -> float:
    """tr(a o b) from matrices (half the complex trace for quaternionic
    factors), or 2(st + x.y) for a spin factor."""
    if f.family == eja.SPIN:
        return 2.0 * (a[0] * b[0] + a[1:] @ b[1:])
    kappa = 0.5 if f.family == eja.QUAT else 1.0
    return kappa * float(np.trace(f.to_matrix(a) @ f.to_matrix(b)).real)


@pytest.mark.parametrize("factory", [*SIMPLE_FACTORIES.values(),
                                     spin_plus_complex])
def test_metric_is_the_trace_form(factory, rng):
    alg = factory()
    for _ in range(20):
        a = random_element(alg, rng)
        b = random_element(alg, rng)
        expected = sum(_trace_form(s.factor, a[s.sl], b[s.sl])
                       for s in alg.summands)
        assert abs((alg.metric * a) @ b - expected) < 1e-10
    assert np.array_equal(alg.trace_functional(), alg.metric * alg.unit())


def _unit_per_summand(alg: eja.JordanAlgebra) -> np.ndarray:
    """The unit effect as built summand by summand: 2 on the scalar
    coordinate of a spin factor, the algebra unit elsewhere."""
    unit = np.zeros(alg.dim)
    for s in alg.summands:
        if s.factor.family == "spin":
            unit[s.sl.start] = 2.0
        else:
            unit[s.sl] = s.factor.unit()
    return unit


def _spec_of(alg: eja.JordanAlgebra) -> fixtures.FixtureSpec:
    summands = [{"family": f.family, "dim": f.dim} if f.family == eja.SPIN
                else {"family": f.family, "rank": f.rank} for f in alg.factors]
    return fixtures.FixtureSpec("alg", "eja", {"summands": summands})


def test_unit_effect_matches_per_summand_construction():
    specs = fixtures.builtin_fixtures()
    registry = {s.name: s for s in specs}
    systems = [fixtures.build_system(s, registry)
               for s in specs if s.kind == "eja"]
    for factory in [*SIMPLE_FACTORIES.values(), spin_plus_complex]:
        systems.append(fixtures.build_system(_spec_of(factory()), {}))
        systems.append(make_eja_system(factory()))
    assert len(systems) == 14 + 2 * 7
    for system in systems:
        ref = _unit_per_summand(system.cone.algebra)
        assert system.unit.tobytes() == ref.tobytes()


def test_jordan_and_euclidean_identities(algebra, rng):
    for _ in range(100):
        a = random_element(algebra, rng)
        b = random_element(algebra, rng)
        c = random_element(algebra, rng)
        aa = algebra.product(a, a)
        lhs = algebra.product(aa, algebra.product(b, a))
        rhs = algebra.product(algebra.product(aa, b), a)
        assert np.max(np.abs(lhs - rhs)) < 1e-10
        lhs2 = trace_inner(algebra, algebra.product(a, b), c)
        rhs2 = trace_inner(algebra, b, algebra.product(a, c))
        assert abs(lhs2 - rhs2) < 1e-10


def test_commutativity_and_unit(algebra, rng):
    a = random_element(algebra, rng)
    b = random_element(algebra, rng)
    assert np.allclose(algebra.product(a, b), algebra.product(b, a))
    assert np.allclose(algebra.product(algebra.unit(), a), a)


def test_spectral_reconstruction(algebra, rng):
    rank = sum(f.rank for f in algebra.factors)
    for _ in range(20):
        a = random_element(algebra, rng)
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
        a = random_element(algebra, rng)
        sq = algebra.product(a, a)
        assert algebra.min_eigenvalues(sq) > -1e-9
    pos = random_positive(algebra, rng)
    root = algebra.sqrt(pos)
    assert np.max(np.abs(algebra.product(root, root) - pos)) < 1e-8


def test_quadratic_rep(algebra, rng):
    a = random_interior(algebra, rng)
    u = algebra.quadratic_rep(a)
    assert np.max(np.abs(u @ algebra.unit() - algebra.product(a, a))) < 1e-9
    # order automorphism: positive elements stay positive both ways
    inv = np.linalg.inv(u)
    for _ in range(10):
        p = random_positive(algebra, rng)
        assert algebra.min_eigenvalues(u @ p) > -1e-8
        assert algebra.min_eigenvalues(inv @ p) > -1e-8


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
    w = overlap_state(algebra)
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
    maps = f.rotation_maps(w1, w2, (0.0, 0.25, 0.5, 0.75, 1.0))
    assert np.max(np.abs(maps[-1] @ w1 - w2)) < 1e-9
    for m in maps:
        wt = m @ w1
        dec = f.spectral(wt)
        assert np.sum(np.abs(dec.eigenvalues) > 1e-7) == 1
        assert np.max(np.abs(m @ f.unit() - f.unit())) < 1e-9


def test_classical_is_orthant(rng):
    alg = eja.classical(3)
    assert alg.dim == 3
    x = np.array([0.5, 0.0, 2.0])
    assert alg.min_eigenvalues(x) >= 0
    assert alg.min_eigenvalues(np.array([0.5, -0.1, 2.0])) < 0
    assert np.allclose(alg.product(x, x), x * x)


def test_direct_sum_blocks(rng):
    alg = eja.JordanAlgebra([eja.complex_herm(2).factors[0],
                             eja.real_sym(2).factors[0]])
    assert alg.dim == 7
    a = random_element(alg, rng)
    b = random_element(alg, rng)
    prod = alg.product(a, b)
    f0, f1 = alg.factors
    assert np.allclose(prod[:4], f0.product(a[:4], b[:4]))
    assert np.allclose(prod[4:], f1.product(a[4:], b[4:]))
    w = alg.random_pure(rng, summand=1)
    assert alg.summand_of(w) == 1


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


@pytest.mark.parametrize("family", [eja.REAL, eja.COMPLEX, eja.QUAT])
def test_unit_table_basis_equals_family_branches(family):
    # bit for bit, signed zeros included: the complex lower unit -1j has
    # real part -0.0, which the adjoint of 1j would not give
    for rank in (1, 2, 3, 4):
        f = eja.SimpleFactor(family, rank)
        assert f._basis.tobytes() \
            == basis_by_family_branches(family, rank).tobytes()
        states, _ = f.canonical_frame()
        assert np.array_equal(states, np.eye(rank, f.dim))


@pytest.mark.parametrize("dim", range(3, 9))
def test_spin_plane_rotation_equals_axis_rotation(dim, rng):
    # a random pair, a state with itself, its antipode (spatial part
    # negated) and the canonical frame's two states, which are antipodal
    f = eja.SimpleFactor(eja.SPIN, 2, spin_dim=dim)
    w = f.random_pure(rng)
    antipode = np.concatenate([w[:1], -w[1:]])
    frame, _ = f.canonical_frame()
    antipodal = 0
    for w1, w2 in ((w, f.random_pure(rng)), (w, w), (w, antipode), frame):
        x1 = w1[1:] / np.linalg.norm(w1[1:])
        x2 = w2[1:] / np.linalg.norm(w2[1:])
        antipodal += x1 @ x2 < -1.0 + 1e-14
        maps = f.rotation_maps(w1, w2, (0.0, 0.3, 1.0))
        for m, t in zip(maps, (0.0, 0.3, 1.0)):
            assert m.tobytes() \
                == spin_rotation_by_axes(dim, x1, x2, t).tobytes()
    assert antipodal == 2


# -- the eigenvalue-only route ----------------------------------------------

EIGEN_ALGEBRAS = {
    **{f"{family}-{rank}": eja.JordanAlgebra([eja.SimpleFactor(family, rank)])
       for family in (eja.REAL, eja.COMPLEX, eja.QUAT) for rank in (1, 2, 3)},
    **{f"spin-{n}": eja.spin_factor(n) for n in range(3, 9)},
    "spin-5+complex-2": spin_plus_complex(),
}


def _eigen_test_element(alg, kind, rng):
    if kind == "pure":
        return alg.random_pure(rng)
    if kind == "unit":  # every eigenvalue equal
        return rng.standard_normal() * alg.unit()
    return random_element(alg, rng)


@given(name=st.sampled_from(sorted(EIGEN_ALGEBRAS)),
       seed=st.integers(0, 2**32 - 1),
       rows=st.lists(st.tuples(st.sampled_from(["random", "pure", "unit"]),
                               st.integers(-8, 6)), min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_eigenvalues_equal_spectral_bits(name, seed, rows):
    # Degenerate spectra (pure states, multiples of the unit) exercise the
    # quaternionic Kramers-pair selection; scales run from 1e-8 to 1e6.
    alg = EIGEN_ALGEBRAS[name]
    rng = np.random.default_rng(seed)
    stack = np.array([10.0 ** e * _eigen_test_element(alg, kind, rng)
                      for kind, e in rows])
    vals = alg.eigenvalues(stack)
    assert vals.shape == (len(rows), alg.rank)
    for row, v in zip(stack, vals):
        assert np.array_equal(v, alg.spectral(row).eigenvalues)
        assert np.array_equal(alg.eigenvalues(row), v)
        for s in alg.summands:
            assert np.array_equal(s.factor.eigenvalues(row[s.sl]),
                                  s.factor.spectral(row[s.sl]).eigenvalues)
    assert np.array_equal(alg.eigenvalues(stack[None]), vals[None])
    assert np.array_equal(alg.min_eigenvalues(stack), vals.min(axis=-1))


def test_eigenvalues_reject_bad_input():
    alg = spin_plus_complex()
    with pytest.raises(ValueError, match="non-finite"):
        alg.eigenvalues(np.full((2, alg.dim), np.nan))
    with pytest.raises(ValueError, match="dimension mismatch"):
        alg.eigenvalues(np.zeros((2, alg.dim + 1)))


def _degenerate_quaternionic_stack(f: eja.SimpleFactor, rng) -> np.ndarray:
    """Automorphic images of multiples of the unit (and, in rank 3, pure
    states and unit + pure) have 4-fold degenerate eigenspaces whose
    eigenvectors are not Kramers pairs, so the kept columns are not 0::2."""
    rows = [c * f.unit() for c in (1.0, -2.5, 1e-8, 3e5)]
    for _ in range(12):
        w1, w2 = f.random_pure(rng), f.random_pure(rng)
        scale = rng.standard_normal()
        [rot] = f.rotation_maps(w1, w2, [rng.random()])
        rows.append(scale * (rot @ f.unit()))
        rows.append(f.random_pure(rng))
        rows.append(f.unit() + f.random_pure(rng))
    return np.array(rows)


def test_quaternionic_selection_on_degenerate_stacks(rng):
    for rank in (2, 3):
        f = eja.SimpleFactor(eja.QUAT, rank)
        stack = _degenerate_quaternionic_stack(f, rng)
        vecs = f._eigh(stack)[1]
        keep = f._kramers_columns(vecs)
        for k, v in zip(keep, vecs):
            assert list(np.flatnonzero(k)) == kramers_columns_by_loop(f, v)
        assert not keep[:, 0::2].all(axis=1).all()
        vals = f.eigenvalues(stack)
        for row, v in zip(stack, vals):
            assert np.array_equal(v, f.spectral(row).eigenvalues)
            assert np.array_equal(f.eigenvalues(row), v)


def test_quaternionic_spectral_equals_element_loop(rng):
    # the Gram-Schmidt of the kept columns runs row by row inside one
    # stacked decomposition, with the bits of each element decomposed alone
    for rank in (1, 2, 3, 4):
        f = eja.SimpleFactor(eja.QUAT, rank)
        stack = np.concatenate([_degenerate_quaternionic_stack(f, rng),
                                rng.standard_normal((8, f.dim))])
        roots = f.apply_spectral(stack, np.abs)
        for x, root in zip(stack, roots):
            vals, idempotents = quaternionic_spectral_by_element(f, x)
            dec = f.spectral(x)
            assert vals.tobytes() == dec.eigenvalues.tobytes()
            assert len(dec.idempotents) == len(idempotents) == rank
            for c, ref in zip(dec.idempotents, idempotents):
                assert c.tobytes() == ref.tobytes()
            acc = np.zeros(f.dim)
            for lam, c in zip(vals, idempotents):
                acc += abs(lam) * c
            assert root.tobytes() == acc.tobytes()


# -- sampling on stacks -----------------------------------------------------


SAMPLED_ALGEBRAS = {
    **{f"{family}-{rank}": eja.JordanAlgebra([eja.SimpleFactor(family, rank)])
       for family in (eja.REAL, eja.COMPLEX, eja.QUAT)
       for rank in (1, 2, 3, 4)},
    **{f"spin-{n}": eja.spin_factor(n) for n in range(3, 9)},
    **{f"classical-{n}": eja.classical(n) for n in (1, 2, 3, 4)},
    "qubit+rebit": eja.JordanAlgebra([eja.SimpleFactor(eja.COMPLEX, 2),
                                      eja.SimpleFactor(eja.REAL, 2)]),
}


@given(name=st.sampled_from(sorted(SAMPLED_ALGEBRAS)),
       seed=st.integers(0, 2**32 - 1), count=st.integers(0, 12))
@settings(max_examples=300, deadline=None)
def test_stacked_pures_equal_sample_by_sample(name, seed, count):
    # the same draws in the same order, and each row the bits of its
    # sample alone; a sum picks each sample's summand before its draws
    alg = SAMPLED_ALGEBRAS[name]
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    stack = alg.random_pures(rng, count)
    assert stack.shape == (count, alg.dim)
    for row in stack:
        assert np.array_equal(row, random_pure_by_sample(alg, ref))
    assert rng.bit_generator.state == ref.bit_generator.state
    if alg.is_simple():
        again = np.random.default_rng(seed)
        assert np.array_equal(alg.factors[0].random_pures(again, count),
                              stack)
        assert again.bit_generator.state == ref.bit_generator.state


@given(name=st.sampled_from(sorted(SAMPLED_ALGEBRAS)),
       seed=st.integers(0, 2**32 - 1), count=st.integers(0, 8))
@settings(max_examples=100, deadline=None)
def test_stacked_interiors_equal_point_by_point(name, seed, count):
    alg = SAMPLED_ALGEBRAS[name]
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    stack = alg.random_interiors(rng, count)
    assert stack.shape == (count, alg.dim)
    for row in stack:
        assert np.array_equal(row, random_interior_by_point(alg, ref))
    assert rng.bit_generator.state == ref.bit_generator.state


def test_fixed_summand_draws_no_pick(rng):
    alg = SAMPLED_ALGEBRAS["qubit+rebit"]
    state = rng.bit_generator.state
    rows = alg.random_pures(rng, 5, summand=1)
    assert not rows[:, alg.summands[0].sl].any()
    again = np.random.default_rng()
    again.bit_generator.state = state
    assert np.array_equal(rows[:, alg.summands[1].sl],
                          alg.factors[1].random_pures(again, 5))


def test_stacked_square_roots_equal_row_loop(rng):
    # every family, and a sum with a quaternionic summand
    for alg in (*_builtin_eja_algebras().values(), spin_plus_complex(),
                eja.JordanAlgebra([eja.SimpleFactor(eja.QUAT, 2),
                                   eja.SimpleFactor(eja.SPIN, 2, spin_dim=4)])):
        stack = alg.random_interiors(rng, 6)
        for fn, scalar in ((alg.sqrt, lambda x: math.sqrt(max(x, 0.0))),
                           (alg.inv_sqrt, lambda x: 1.0 / math.sqrt(x))):
            rows = fn(stack)
            assert rows.shape == stack.shape
            for x, row in zip(stack, rows):
                assert fn(x).tobytes() == row.tobytes()
                assert spectral_map_by_summand(
                    alg, x, scalar).tobytes() == row.tobytes()
        quad = alg.quadratic_rep(stack)
        assert quad.shape == (6, alg.dim, alg.dim)
        for x, q in zip(stack, quad):
            assert q.tobytes() == quadratic_rep_by_columns(alg, x).tobytes()


# -- products on stacks -----------------------------------------------------


@given(name=st.sampled_from(sorted(EIGEN_ALGEBRAS)),
       seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 6),
       exps=st.tuples(st.integers(-8, 6), st.integers(-8, 6)))
@settings(max_examples=200, deadline=None)
def test_stacked_product_equals_row_loop(name, seed, rows, exps):
    # values and sign bits: each row of a stacked product is the single
    # call, for the factor and for the algebra (here also a two-summand sum)
    alg = EIGEN_ALGEBRAS[name]
    rng = np.random.default_rng(seed)
    a = 10.0 ** exps[0] * random_element(alg, rng)
    stack = 10.0 ** exps[1] * rng.standard_normal((rows, alg.dim))
    targets = [alg] if len(alg.summands) > 1 else [alg, alg.factors[0]]
    for op in targets:
        loop = np.array([op.product(a, b) for b in stack])
        assert op.product(a, stack).tobytes() == loop.tobytes()
        assert op.product(stack, a).tobytes() == np.array(
            [op.product(b, a) for b in stack]).tobytes()


def _builtin_eja_algebras():
    specs = fixtures.builtin_fixtures()
    registry = {s.name: s for s in specs}
    return {s.name: fixtures.build_system(s, registry).cone.algebra
            for s in specs if s.kind == "eja"}


def test_quadratic_rep_equals_column_loop(rng):
    algebras = _builtin_eja_algebras()
    assert len(algebras) == 14
    assert {"two-qubit-sum", "qubit-plus-rebit"} <= set(algebras)
    for name, alg in algebras.items():
        for _ in range(5):
            interior = random_interior(alg, rng)
            points = [interior, alg.random_pure(rng), alg.sqrt(interior),
                      alg.inv_sqrt(interior)]
            for a in points:
                fast = alg.quadratic_rep(a)
                slow = quadratic_rep_by_columns(alg, a)
                assert np.array_equal(fast, slow), name
                assert fast.tobytes() == slow.tobytes(), name


def test_quadratic_rep_makes_four_products_per_summand(monkeypatch, rng):
    calls = []
    product = eja.SimpleFactor.product

    def counting(self, a, b):
        calls.append(self)
        return product(self, a, b)

    monkeypatch.setattr(eja.SimpleFactor, "product", counting)
    for alg in _builtin_eja_algebras().values():
        a = random_interior(alg, rng)
        calls.clear()
        alg.quadratic_rep(a)
        assert 0 < len(calls) <= 4 * len(alg.summands)


@pytest.mark.parametrize("family,rank", [
    (eja.REAL, 3), (eja.COMPLEX, 2), (eja.COMPLEX, 3), (eja.COMPLEX, 4),
    (eja.QUAT, 2), (eja.QUAT, 3)])
def test_conjugation_matrix_equals_column_loop(family, rank, rng):
    f = eja.SimpleFactor(family, rank)
    side = f._basis.shape[-1]
    us = []
    for _ in range(5):
        z = rng.standard_normal((side, side))
        if family != eja.REAL:
            z = z + 1j * rng.standard_normal((side, side))
        us.append(np.linalg.qr(z)[0])
    fast = f.conjugation_matrix(np.array(us))
    slow = [conjugation_matrix_by_columns(f, u) for u in us]
    assert fast.flags.c_contiguous
    assert fast.tobytes() == np.array(slow).tobytes()


ROTATION_FACTORS = [(eja.REAL, 2), (eja.REAL, 3), (eja.COMPLEX, 2),
                    (eja.COMPLEX, 3), (eja.COMPLEX, 4), (eja.QUAT, 2),
                    (eja.QUAT, 3), (eja.SPIN, 3), (eja.SPIN, 4),
                    (eja.SPIN, 8)]


@pytest.mark.parametrize("family,size", ROTATION_FACTORS)
def test_rotation_maps_equal_the_closure(family, size, rng):
    # the stack at the 17 path values and at t = 1 has the bits of the
    # closure called once per t: random pairs, w1 = w2 and, on spin
    # factors, an antipodal pair
    f = (eja.SimpleFactor(family, 2, spin_dim=size) if family == eja.SPIN
         else eja.SimpleFactor(family, size))
    path = [k / 16 for k in range(17)]
    w = f.random_pure(rng)
    pairs = [(f.random_pure(rng), f.random_pure(rng)) for _ in range(8)]
    pairs.append((w, w))
    if family == eja.SPIN:
        pairs.append((w, np.concatenate([w[:1], -w[1:]])))
    for w1, w2 in pairs:
        rot = rotation_by_closure(f, w1, w2)
        for ts in (path, [1.0]):
            maps = f.rotation_maps(w1, w2, ts)
            assert maps.flags.c_contiguous
            assert maps.tobytes() == np.array([rot(t) for t in ts]).tobytes()
