"""Cone models, faces, extremality, order isomorphisms, measurements."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conelab import composite, eja, fixtures
from conelab.axioms import UNSUPPORTED
from conelab.cones import (DEFAULT_TOL, EJACone, PolyhedralCone, PositiveMap,
                           SharedCornerCone, System, UnsupportedQuery,
                           face_dimension, is_extremal_ray,
                           is_order_isomorphism, two_sided_probe,
                           validate_measurement)
from conftest import make_eja_system
from polyhedral_oracles import member_by_lp

SQUARE = [[1, 1, 0], [0, 1, 1], [-1, 1, 0], [0, 1, -1]]


@pytest.fixture
def square():
    return PolyhedralCone(SQUARE)


@pytest.fixture
def shared():
    return SharedCornerCone()


class TestMembership:
    def test_eja_qubit(self, qubit, rng):
        cone = qubit.cone
        assert cone.member(np.array([1.0, 1.0, 0.0, 0.0]))
        assert not cone.member(np.array([1.0, -0.1, 0.0, 0.0]))
        for _ in range(20):
            p = cone.algebra.random_positive(rng)
            assert cone.member(p)
            assert cone.dual_member(p)

    def test_polyhedral(self, square):
        assert square.member(np.array([0.0, 1.0, 0.0]))
        assert not square.member(np.array([2.0, 1.0, 0.0]))
        # dual membership means nonnegative on all generators
        assert square.dual_member(np.array([0.0, 1.0, 0.0]))
        assert not square.dual_member(np.array([1.0, 0.5, 0.0]))

    def test_polyhedral_float_routes(self, square, rng):
        # float member: margin within tol, else the exact test on the
        # tol-grid rounding; compared with an LP on that rounding
        data = square.data
        for _ in range(200):
            x = rng.standard_normal(3)
            if rng.random() < 0.5:
                n = np.array([float(v) for v in
                              data.facets()[rng.integers(4)]])
                x = x - (n @ x) / (n @ n) * n + 1e-10 * rng.standard_normal(3)
            for tol in (1e-9, 1e-6):
                expect = (member_by_lp(data, square._to_exact(x, tol))
                          or square.margin(x) >= -tol)
                assert square.member(x, tol) == expect

    def test_shared_corner(self, shared):
        assert shared.member(np.array([1.0, 1.0, 1.0, 0.0, 0.0]))
        assert shared.member(np.array([1.0, 1.0, 1.0, 1.0, 1.0]))
        assert not shared.member(np.array([1.0, 1.0, 1.0, 1.5, 0.0]))

    @given(scale=st.floats(min_value=1e-3, max_value=1e3),
           seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_scale_invariance(self, scale, seed):
        rng = np.random.default_rng(seed)
        cone = PolyhedralCone(SQUARE)
        x = rng.standard_normal(3)
        assert cone.member(x) == cone.member(scale * x)
        ejc = EJACone(eja.complex_herm(2))
        y = rng.standard_normal(4)
        assert ejc.member(y) == ejc.member(scale * y)


class TestFaceDimension:
    def test_eja(self, qubit):
        interior = np.array([1.0, 2.0, 0.3, -0.1])
        assert face_dimension(qubit.cone, interior) == 4
        assert face_dimension(qubit.cone, np.array([1.0, 0, 0, 0])) == 1

    def test_real_sym_boundary(self):
        cone = EJACone(eja.real_sym(2))
        alg = cone.algebra
        f = alg.factors[0]
        assert face_dimension(cone, f.from_matrix(np.diag([1.0, 1.0]))) == 3
        assert face_dimension(cone, f.from_matrix(np.diag([1.0, 0.0]))) == 1

    def test_square(self, square):
        assert face_dimension(square, np.array([0.0, 1.0, 0.0])) == 3
        assert face_dimension(square, np.array([1.0, 1.0, 0.0])) == 1
        assert face_dimension(square, np.array([0.5, 1.0, 0.5])) == 2

    def test_shared_corner_profiles(self, shared):
        p2 = np.array([0.0, 1.0, 0.0, 0.0, 0.0])
        p3 = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
        t00 = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        t11 = np.array([1.0, 1.0, 1.0, 1.0, 1.0])
        t_gen = np.array([1.0, 0.25, 4.0, 0.5, -2.0])
        assert face_dimension(shared, p2 + p3) == 2
        assert face_dimension(shared, p2 + t11) == 3
        assert face_dimension(shared, t00 + t11) == 5
        assert face_dimension(shared, t11 + t_gen) == 5
        for w in (p2, p3, t00, t11, t_gen):
            assert is_extremal_ray(shared, w)


def _rebit_max_tensor(rng):
    rebit = make_eja_system(eja.real_sym(2), "rebit")
    comp = composite.CompositeSystem(rebit, rebit, composite.MAX_TENSOR)
    w = comp.product_state(comp.factorA.sample_pure(rng),
                           comp.factorB.sample_pure(rng))
    return comp.cone, w


def _pure_qubit(rng):
    cone = EJACone(eja.complex_herm(2))
    return cone, cone.sample_extremal(rng)


# Extremal points of four cone variants: (cone, x) from a seeded rng.
EXTREMAL_POINTS = {
    "eja-pure-qubit": _pure_qubit,
    "polyhedral-square-ray": lambda rng: (PolyhedralCone(SQUARE),
                                          np.array([1.0, 1.0, 0.0])),
    "shared-corner-extremal": lambda rng: (
        SharedCornerCone(), np.array([1.0, 0.25, 4.0, 0.5, -2.0])),
    "max-tensor-rebit-product": _rebit_max_tensor,
}


def _orthogonal_complement(basis, dim):
    _, sv, vt = np.linalg.svd(np.reshape(basis, (len(basis), dim)))
    return vt[int(np.sum(sv > 1e-8)):]


class TestFaceProbe:
    @pytest.mark.parametrize("case", sorted(EXTREMAL_POINTS))
    def test_out_of_face_direction_fails(self, case, rng):
        cone, x = EXTREMAL_POINTS[case](rng)
        basis = cone.face_span_basis(x, DEFAULT_TOL)
        assert len(basis) == 1
        assert all(two_sided_probe(cone, x, d) for d in basis)
        complement = _orthogonal_complement(basis, cone.dim)
        assert len(complement) == cone.dim - 1
        assert not all(two_sided_probe(cone, x, c) for c in complement)
        assert face_dimension(cone, x) == 1

    def test_hollow_span_claim_is_not_counted(self, square, monkeypatch):
        # a structural span claiming the whole space at a ray: only x
        # itself survives, because every coordinate direction leaves the
        # cone on one side
        monkeypatch.setattr(PolyhedralCone, "face_span_basis",
                            lambda self, x, tol: list(np.eye(3)))
        assert face_dimension(square, np.array([1.0, 1.0, 0.0])) == 1

    def test_member_budget_max_tensor(self, rng, monkeypatch):
        cone, x = _rebit_max_tensor(rng)
        basis = cone.face_span_basis(x, DEFAULT_TOL)
        calls = []
        member = composite.MaxTensorCone.member

        def counted(self, y, tol=DEFAULT_TOL):
            calls.append(tol)
            return member(self, y, tol)

        monkeypatch.setattr(composite.MaxTensorCone, "member", counted)
        assert face_dimension(cone, x) == 1
        assert len(calls) <= 1 + 2 * len(basis) + 2 * (cone.dim - len(basis))

    def test_probe_that_accepts_everything_is_unsupported(self):
        class AcceptAll(SharedCornerCone):
            def member(self, x, tol=DEFAULT_TOL):
                return True

        cone = AcceptAll()
        with pytest.raises(UnsupportedQuery):
            face_dimension(cone, np.array([0.0, 1.0, 0.0, 0.0, 0.0]))
        spec = next(s for s in fixtures.builtin_fixtures()
                    if s.name == "shared-corner")
        system = System(cone, np.array([1.0, 1.0, 1.0, 0.0, 0.0]),
                        "accept-all")
        record = fixtures.run_check("pure-transitivity", spec, system,
                                    DEFAULT_TOL, 7)
        assert record["status"] == UNSUPPORTED


class TestExtremality:
    def test_fast_vs_generic_agree(self, rng):
        cone = EJACone(eja.complex_herm(2))
        alg = cone.algebra
        for _ in range(100):
            if rng.random() < 0.5:
                x = alg.random_pure(rng)
            else:
                x = alg.random_pure(rng) + alg.random_pure(rng)
            fast = is_extremal_ray(cone, x)
            generic = face_dimension(cone, x) == 1
            assert fast == generic

    def test_simplex_midpoint_not_extremal(self):
        cone = EJACone(eja.classical(3))
        assert not is_extremal_ray(cone, np.array([1.0, 1.0, 0.0]))
        assert is_extremal_ray(cone, np.array([0.0, 1.0, 0.0]))


class TestSharedCornerTransport:
    def test_transport_round_trip(self, shared, rng):
        for _ in range(20):
            shared_scale = 0.2 + rng.random()
            l1 = np.array([[shared_scale, 0.0],
                           [rng.standard_normal(), 0.2 + rng.random()]])
            l2 = np.array([[shared_scale, 0.0],
                           [rng.standard_normal(), 0.2 + rng.random()]])
            x = shared._congruence(l1, l2) @ shared.basepoint()
            assert shared.margin(x) > 0
            back = shared.transport_to_basepoint(x) @ x
            assert np.max(np.abs(back - shared.basepoint())) < 1e-10
            there = shared.transport_from_basepoint(x) @ shared.basepoint()
            assert np.max(np.abs(there - x)) < 1e-10


class TestOrderIso:
    def test_transpose_on_qubit(self, qubit):
        # transpose flips the sign of the imaginary coordinate
        t = np.diag([1.0, 1.0, 1.0, -1.0])
        pmap = PositiveMap(t, qubit, qubit)
        assert is_order_isomorphism(pmap, seed=1).ok

    def test_classical_shear_rejected(self):
        sys2 = make_eja_system(eja.classical(2), "bits")
        shear = np.array([[1.0, 0.0], [1.0, 1.0]])
        pmap = PositiveMap(shear, sys2, sys2)
        verdict = is_order_isomorphism(pmap, seed=1)
        assert not verdict.ok
        assert verdict.direction == "inverse"
        assert np.allclose(verdict.violation, [1.0, 0.0])


class TestMeasurements:
    def test_valid(self, qubit):
        e0 = np.array([1.0, 0.0, 0.0, 0.0])
        e1 = np.array([0.0, 1.0, 0.0, 0.0])
        assert validate_measurement(qubit, [e0, e1])

    def test_invalid_sum(self, qubit):
        e0 = np.array([1.0, 0.0, 0.0, 0.0])
        assert not validate_measurement(qubit, [e0, e0])

    def test_invalid_effect(self, qubit):
        bad = np.array([1.5, -0.5, 0.0, 0.0])
        good = np.array([-0.5, 1.5, 0.0, 0.0])
        assert not validate_measurement(qubit, [bad, good])


def test_polyhedral_reducibility(square):
    assert not square.reducible()
    orthant = PolyhedralCone([[1, 0], [0, 1]])
    assert orthant.reducible()
