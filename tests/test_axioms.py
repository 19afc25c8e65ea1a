"""Axiom checkers: self-duality, bijection searches, homogeneity,
pure transitivity, classical effects."""

import hashlib
import itertools
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conelab import axioms, eja, exact
from conelab.axioms import FAILS, HOLDS, INCONCLUSIVE
from conelab.cones import (ConeError, PolyhedralCone, SharedCornerCone,
                          System, UnsupportedQuery, is_order_isomorphism)
from conftest import make_eja_system
from polyhedral_oracles import bijection_system, spd_by_leading_minors

SQUARE = [[1, 1, 0], [0, 1, 1], [-1, 1, 0], [0, 1, -1]]
# The regular hexagon with coordinates rounded to denominators <= 100.
REGULAR_6 = [[F(x), F(y), F(1)] for x, y in [
    (1, 0), (F(1, 2), F(84, 97)), (F(-1, 2), F(84, 97)), (-1, 0),
    (F(-1, 2), F(-84, 97)), (F(1, 2), F(-84, 97))]]
# A lattice hexagon that is not projectively self-dual: both searches
# exhaust all 720 bijections.
LATTICE_6 = [[3, 1, 1], [1, 3, 1], [-3, 3, 1], [-4, 0, 1], [-1, -3, 1],
             [1, -4, 1]]


def _pentagon():
    from conelab.fixtures import builtin_fixtures
    spec = next(s for s in builtin_fixtures() if s.name == "pentagon-cone")
    return spec.params["generators"]


@pytest.fixture
def square_system():
    return System(PolyhedralCone(SQUARE), np.array([0.0, 1.0, 0.0]), "square")


@pytest.fixture
def shared_system():
    return System(SharedCornerCone(), np.array([1.0, 1.0, 1.0, 0.0, 0.0]),
                  "shared-corner")


class TestSelfDuality:
    def test_eja_holds(self, qubit):
        v = axioms.check_self_dual(qubit)
        assert v.status == HOLDS

    def test_orthant_holds(self):
        cone = PolyhedralCone([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        v = axioms.check_self_dual(System(cone, np.ones(3), "orthant"))
        assert v.status == HOLDS
        assert v.detail == "exact two-sided inclusion"

    def test_square_fails_with_witness(self, square_system):
        v = axioms.check_self_dual(square_system)
        assert v.status == FAILS
        assert "facet_normal" in v.violation

    def test_shared_corner_fails(self, shared_system):
        v = axioms.check_self_dual(shared_system)
        assert v.status == FAILS
        # the reported dual element really is outside the cone
        e = np.asarray(v.violation["dual_extremal"], dtype=float)
        assert not shared_system.cone.member(e)

    def test_rejects_indefinite_inner(self, qubit):
        with pytest.raises(ConeError):
            axioms.check_self_dual(qubit, inner=np.diag([1.0, -1.0, 1, 1]))


class TestBijectionSearches:
    def test_square_weak_holds_exact(self, square_system):
        cone = square_system.cone
        v = axioms.search_weak_self_duality(cone)
        assert v.status == HOLDS
        t = v.witness["map"]
        perm = v.witness["bijection"]
        scales = v.witness["scales"]
        rays = [cone.data.rays[i] for i in cone.data.extremal_ray_indices()]
        facets = cone.data.facets()
        assert exact.rank(t) == 3
        for i, r in enumerate(rays):
            img = exact.mat_vec(t, r)
            assert img == [scales[i] * v for v in facets[perm[i]]]
            assert scales[i] > 0

    def test_square_spd_exhaustive_certificate(self, square_system):
        v = axioms.search_spd_self_duality(square_system.cone)
        assert v.status == FAILS
        certs = v.violation["bijections"]
        assert len(certs) == 24
        assert all(c.get("certified", True) for c in certs)

    def test_orthant_spd_holds(self):
        cone = PolyhedralCone([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        v = axioms.search_spd_self_duality(cone)
        assert v.status == HOLDS

    def test_pentagon_spd_holds_exact(self):
        cone = PolyhedralCone(_pentagon())
        v = axioms.search_spd_self_duality(cone)
        assert v.status == HOLDS
        # re-verify the certificate independently: symmetric, and maps every
        # extremal ray to a positive multiple of the matched facet normal
        t = v.witness["gram"]
        assert t == [list(row) for row in zip(*t)]
        rays = [cone.data.rays[i] for i in cone.data.extremal_ray_indices()]
        facets = cone.data.facets()
        perm = v.witness["bijection"]
        for i, r in enumerate(rays):
            img = exact.mat_vec(t, r)
            assert img == [v.witness["scales"][i] * x
                           for x in facets[perm[i]]]
            assert v.witness["scales"][i] > 0

    def test_cap(self, square_system):
        with pytest.raises(UnsupportedQuery):
            axioms.search_spd_self_duality(square_system.cone, cap=3)

    @pytest.mark.parametrize("search", [axioms.search_weak_self_duality,
                                        axioms.search_spd_self_duality])
    def test_cap_checked_before_facets(self, search, monkeypatch):
        # an over-cap cone is refused from its extremal rays alone
        def no_facets(self):
            raise AssertionError("facets enumerated for an over-cap cone")

        monkeypatch.setattr(exact.PolyhedralData, "facets", no_facets)
        with pytest.raises(UnsupportedQuery):
            search(PolyhedralCone(_pentagon()), cap=4)

    @pytest.mark.parametrize("d", [2, 3])
    def test_orthant_weak_holds(self, d):
        # simplicial: no ray lies outside the ray basis, so the weak system
        # in the scales has no rows at all
        units = [[int(i == j) for j in range(d)] for i in range(d)]
        v = axioms.search_weak_self_duality(PolyhedralCone(units))
        assert v.status == HOLDS
        assert exact.rank(v.witness["map"]) == d
        assert all(m > 0 for m in v.witness["scales"])

    @pytest.mark.parametrize("fn, rays, n_fact", [
        ("search_spd_self_duality", SQUARE, 24),
        ("search_weak_self_duality", LATTICE_6, 720)],
        ids=["square-spd", "lattice-6-weak"])
    def test_one_null_space_per_bijection(self, monkeypatch, fn, rays,
                                          n_fact):
        calls = []
        inner = exact.null_space

        def counting(mat):
            calls.append(len(mat))
            return inner(mat)

        monkeypatch.setattr(exact, "null_space", counting)
        v = getattr(axioms, fn)(PolyhedralCone(rays))
        assert v.status == FAILS
        assert len(calls) == n_fact


# sha256 of repr((status, witness, violation, detail)), recorded with the
# searches that solved each bijection in all d*d + n unknowns.
SEARCH_DIGESTS = {
    ("square", "search_weak_self_duality"):
        "9dd3b400e13898559305fbffee8c9728181b715be43908829d1d5c078dfd42a5",
    ("square", "search_spd_self_duality"):
        "5ec2952b7f5eed0179ef44101fc0442b102a911c3f88f76d962303f3ace857e6",
    ("pentagon", "search_weak_self_duality"):
        "9e7db3844af0415079fea21b4f55d0140d7bee0c9eb3202dd6bb93e1ccc2e10f",
    ("pentagon", "search_spd_self_duality"):
        "1902a8c66be60c0caad2f817639e9c675d2a2c4f5722fbca60e2d430be27d1e6",
    ("regular-6", "search_weak_self_duality"):
        "46d3e628e13ea9864f7c445f519718db989c50bcb912ea1bad511415b50f1565",
    ("regular-6", "search_spd_self_duality"):
        "7c77f724990c5014fe01ed43b2d74febba524ee15266ff2e08b457ad92624a56",
}


@pytest.mark.parametrize("name, fn", sorted(SEARCH_DIGESTS))
def test_search_verdicts_pinned(name, fn):
    rays = {"square": SQUARE, "pentagon": _pentagon(),
            "regular-6": REGULAR_6}[name]
    v = getattr(axioms, fn)(PolyhedralCone(rays))
    text = repr((v.status, v.witness, v.violation, v.detail))
    assert hashlib.sha256(text.encode()).hexdigest() \
        == SEARCH_DIGESTS[name, fn]


def _lifted_scale_space(rays, facets, perm, symmetric):
    """The scale-only null basis, each vector lifted to (T row by row, mu)."""
    systems = axioms._ScaleSystems(rays, facets)
    out = []
    for mu in systems.scale_space(perm, symmetric):
        t = systems.map_from_scales(perm, mu)
        out.append([x for row in t for x in row] + mu)
    return out


@pytest.mark.parametrize("rays", [SQUARE, _pentagon()],
                         ids=["square", "pentagon"])
def test_scale_space_matches_oracle_on_every_bijection(rays):
    data = PolyhedralCone(rays).data
    facets = data.facets()
    for perm in itertools.permutations(range(len(facets))):
        for symmetric in (False, True):
            assert _lifted_scale_space(data.rays, facets, perm, symmetric) \
                == bijection_system(data.rays, facets, perm, symmetric)


def _convex_hull(points):
    """Strict convex hull vertices, counterclockwise (monotone chain)."""
    pts = sorted(set(points))

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and (
                    (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                    - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    return half(pts) + half(pts[::-1])


@st.composite
def lattice_polygon_cones(draw):
    """Rays of the cone over a random lattice polygon with 3 to 7 vertices,
    in random order, each scaled by a positive rational."""
    coord = st.integers(min_value=-5, max_value=5)
    points = draw(st.lists(st.tuples(coord, coord), min_size=3,
                           max_size=12))
    hull = _convex_hull(points)
    assume(3 <= len(hull) <= 7)
    order = draw(st.permutations(range(len(hull))))
    scales = draw(st.lists(st.fractions(min_value=F(1, 3), max_value=3),
                           min_size=len(hull), max_size=len(hull)))
    return [[q * hull[i][0], q * hull[i][1], q]
            for i, q in zip(order, scales)]


@given(rays=lattice_polygon_cones(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_scale_space_matches_oracle(rays, data):
    cone = PolyhedralCone(rays)
    assert cone.data.extremal_ray_indices() == list(range(len(rays)))
    rays, facets = cone.data.rays, cone.data.facets()
    perms = data.draw(st.lists(st.permutations(range(len(rays))),
                               min_size=1, max_size=3))
    if len(rays) <= 5:
        # a random bijection of a larger polygon has no solution; add one
        # that has, so that nonempty bases are compared too
        v = axioms.search_weak_self_duality(cone)
        if v.holds:
            perms.append(v.witness["bijection"])
    for perm in perms:
        for symmetric in (False, True):
            assert _lifted_scale_space(rays, facets, perm, symmetric) \
                == bijection_system(rays, facets, perm, symmetric)


@st.composite
def symmetric_matrices(draw):
    """Symmetric rational matrices of size 1-5: random entries, Gram
    matrices A^T A (singular when A has fewer rows than columns), and Gram
    matrices with a signed diagonal shift (often indefinite)."""
    k = draw(st.integers(1, 5))
    entry = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    kind = draw(st.sampled_from(["random", "gram", "shifted"]))
    if kind == "random":
        upper = {(i, j): draw(entry) for i in range(k) for j in range(i, k)}
        return [[upper[min(i, j), max(i, j)] for j in range(k)]
                for i in range(k)]
    a = draw(st.lists(st.lists(entry, min_size=k, max_size=k),
                      min_size=1, max_size=k + 1))
    gram = [[sum((row[i] * row[j] for row in a), F(0)) for j in range(k)]
            for i in range(k)]
    if kind == "shifted":
        for i in range(k):
            gram[i][i] += draw(entry)
    return gram


@given(t=symmetric_matrices())
@example(t=[[F(1), F(0)], [F(0), F(1)]])
@example(t=[[F(1), F(1)], [F(1), F(1)]])
@example(t=[[F(1), F(2)], [F(2), F(1)]])
@example(t=[[F(0), F(0)], [F(0), F(1)]])
@settings(max_examples=200, deadline=None)
def test_spd_exact_matches_leading_minors(t):
    assert axioms._spd_exact(t) == spd_by_leading_minors(t)


class TestHomogeneity:
    @pytest.mark.parametrize("factory", [
        lambda: eja.real_sym(3), lambda: eja.complex_herm(2),
        lambda: eja.quat_herm(2), lambda: eja.spin_factor(5)])
    def test_eja_witness(self, factory, rng):
        system = make_eja_system(factory())
        alg = system.cone.algebra
        for _ in range(10):
            rho = alg.random_interior(rng)
            sig = alg.random_interior(rng)
            pmap = axioms.homogeneity_witness(system, rho, sig)
            assert np.max(np.abs(pmap(rho) - sig)) < 1e-8
            assert pmap.check_positive(np.random.default_rng(0))

    def test_shared_corner_witness(self, shared_system, rng):
        cone = shared_system.cone
        rho = np.array([2.0, 1.5, 1.2, 0.3, -0.2])
        sig = np.array([1.0, 2.0, 3.0, 0.5, 0.7])
        pmap = axioms.homogeneity_witness(shared_system, rho, sig)
        assert np.max(np.abs(pmap(rho) - sig)) < 1e-9
        for _ in range(20):
            assert cone.member(pmap(cone.sample_extremal(rng)), 1e-8)

    def test_interior_precondition(self, qubit):
        boundary = np.array([1.0, 0.0, 0.0, 0.0])
        interior = np.array([1.0, 1.0, 0.0, 0.0])
        with pytest.raises(ConeError):
            axioms.homogeneity_witness(qubit, boundary, interior)

    def test_polyhedral_unsupported(self, square_system):
        with pytest.raises(UnsupportedQuery):
            axioms.homogeneity_witness(square_system,
                                       np.array([0.0, 1.0, 0.0]),
                                       np.array([0.1, 1.0, 0.0]))

    def test_probabilistic_inverse(self, qubit, rng):
        alg = qubit.cone.algebra
        pmap = axioms.homogeneity_witness(qubit, alg.random_interior(rng),
                                          alg.random_interior(rng))
        sharp, p = axioms.probabilistic_inverse(pmap, rng)
        assert 0 < p <= 1.0 + 1e-12
        assert np.max(np.abs(sharp @ pmap.matrix - p * np.eye(4))) < 1e-8


class TestPureTransitivity:
    def test_same_summand(self, qubit, rng):
        w1, w2 = qubit.sample_pure(rng), qubit.sample_pure(rng)
        v = axioms.pure_transitivity_witness(qubit, w1, w2)
        assert v.status == HOLDS
        assert np.max(np.abs(v.witness(w1) - w2)) < 1e-9
        assert is_order_isomorphism(v.witness, seed=2).ok
        assert v.witness.check_normalized()

    def test_cross_isomorphic_summands(self, rng):
        alg = eja.JordanAlgebra([eja.complex_herm(2).factors[0],
                                 eja.complex_herm(2).factors[0]])
        system = make_eja_system(alg)
        w1 = system.normalize(alg.random_pure(rng, summand=0))
        w2 = system.normalize(alg.random_pure(rng, summand=1))
        v = axioms.pure_transitivity_witness(system, w1, w2)
        assert v.status == HOLDS
        assert np.max(np.abs(v.witness(w1) - w2)) < 1e-9
        assert is_order_isomorphism(v.witness, seed=2).ok

    def test_non_isomorphic_summands(self, rng):
        alg = eja.JordanAlgebra([eja.complex_herm(2).factors[0],
                                 eja.real_sym(2).factors[0]])
        system = make_eja_system(alg)
        w1 = system.normalize(alg.random_pure(rng, summand=0))
        w2 = system.normalize(alg.random_pure(rng, summand=1))
        v = axioms.pure_transitivity_witness(system, w1, w2)
        assert v.status == FAILS
        assert v.violation["summands"] == (("complex", 2, 4), ("real", 2, 3))

    def test_shared_corner_profile_violation(self, shared_system):
        w1 = np.array([0.0, 1.0, 0.0, 0.0, 0.0])
        w2 = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        v = axioms.pure_transitivity_witness(shared_system, w1, w2)
        assert v.status == FAILS
        p1, p2 = v.violation["face_profiles"]
        assert p1 <= 3 and p2 == 5

    def test_requires_pure_inputs(self, qubit):
        mixed = np.array([0.5, 0.5, 0.0, 0.0])
        pure = np.array([1.0, 0.0, 0.0, 0.0])
        with pytest.raises(ConeError):
            axioms.pure_transitivity_witness(qubit, mixed, pure)


class TestContinuousPureTransitivity:
    def test_path(self, qubit, rng):
        w1, w2 = qubit.sample_pure(rng), qubit.sample_pure(rng)
        v = axioms.continuous_pure_transitivity(qubit, w1, w2, steps=16)
        assert v.status == HOLDS
        assert len(v.witness) == 17
        assert v.margin < 1e-9

    def test_cross_summand_obstruction(self, rng):
        alg = eja.JordanAlgebra([eja.complex_herm(2).factors[0],
                                 eja.complex_herm(2).factors[0]])
        system = make_eja_system(alg)
        w1 = system.normalize(alg.random_pure(rng, summand=0))
        w2 = system.normalize(alg.random_pure(rng, summand=1))
        v = axioms.continuous_pure_transitivity(system, w1, w2)
        assert v.status == FAILS
        assert v.violation["summands"] == (0, 1)


class TestClassicalEffects:
    def test_classical_simplex(self):
        system = make_eja_system(eja.classical(3))
        assert axioms.classical_effect_test(system, np.array([0.0, 1.0, 1.0]))
        assert not axioms.classical_effect_test(system,
                                                np.array([0.5, 1.0, 0.0]))

    def test_qubit(self, qubit):
        proj = np.array([1.0, 0.0, 0.0, 0.0])
        assert not axioms.classical_effect_test(qubit, proj)
        assert axioms.classical_effect_test(qubit, qubit.unit.copy())
        assert axioms.classical_effect_test(qubit, np.zeros(4))

    def test_direct_sum_summand_unit(self):
        alg = eja.JordanAlgebra([eja.complex_herm(2).factors[0],
                                 eja.complex_herm(2).factors[0]])
        system = make_eja_system(alg)
        e = np.zeros(8)
        e[:2] = 1.0  # the unit of the first summand
        assert axioms.classical_effect_test(system, e)

    def test_effect_precondition(self, qubit):
        with pytest.raises(ConeError):
            axioms.classical_effect_test(qubit, np.array([2.0, 0.0, 0.0, 0.0]))


def test_face_profile_invariant_under_automorphism(shared_system, rng):
    # transport a pure state by a cone automorphism: its profile is unchanged
    cone = shared_system.cone
    w = np.array([1.0, 1.0, 1.0, 1.0, 1.0])  # type-(ii) pure state
    p0 = axioms.face_profile(shared_system, w, samples=60)
    l1 = np.array([[1.3, 0.0], [0.4, 0.8]])
    l2 = np.array([[1.3, 0.0], [-0.2, 1.1]])
    phi = cone._congruence(l1, l2)
    p1 = axioms.face_profile(shared_system, phi @ w, samples=60)
    assert p0 == p1 == 5
