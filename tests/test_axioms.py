"""Axiom checkers: self-duality, bijection searches, homogeneity,
pure transitivity, classical effects."""

import hashlib
import itertools
import math
import time
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conelab import axioms, eja, exact, fixtures
from conelab.axioms import FAILS, HOLDS, INCONCLUSIVE
from conelab.composite import LinearImageCone
from conelab.cones import (DEFAULT_TOL, ConeError, ConeModel, EJACone,
                          PolyhedralCone, SharedCornerCone, System,
                          UnsupportedQuery, face_dimension,
                          is_order_isomorphism)
from conftest import make_eja_system
from eja_oracles import (continuous_pt_by_map, first_dual_extremal_outside,
                         homogeneity_margin_by_pairs, pure_pairs_by_sample,
                         pure_transitivity_by_pair, self_dual_by_pair_gather)
from helpers import (assert_same_verdict, check_positive,
                     classical_effect_test, face_profile_by_sampling,
                     probabilistic_inverse, random_element, random_interior,
                     same_bits)
from polyhedral_oracles import (bijection_system,
                                scale_system_in_all_scales,
                                self_dual_by_fractions, self_dual_by_solves,
                                spd_by_leading_minors)

SQUARE = [[1, 1, 0], [0, 1, 1], [-1, 1, 0], [0, 1, -1]]
# The regular hexagon with coordinates rounded to denominators <= 100.
REGULAR_6 = [[F(x), F(y), F(1)] for x, y in [
    (1, 0), (F(1, 2), F(84, 97)), (F(-1, 2), F(84, 97)), (-1, 0),
    (F(-1, 2), F(-84, 97)), (F(1, 2), F(-84, 97))]]
# A lattice hexagon that is not projectively self-dual: both searches
# exhaust all 720 bijections.  It is the random hexagon that perfbench's
# bijection-search workload draws at seed 1.
LATTICE_6 = [[3, 1, 1], [1, 3, 1], [-3, 3, 1], [-4, 0, 1], [-1, -3, 1],
             [1, -4, 1]]
# A lattice octagon at the search cap, not projectively self-dual: both
# searches exhaust all 8! bijections, the slowest path a user can hit.
LATTICE_8 = [[x, y, 1] for x, y in [(5, 0), (4, 3), (1, 5), (-2, 4), (-4, 1),
                                    (-4, -2), (-1, -4), (3, -3)]]
# The regular 7-gon with coordinates rounded to denominators <= 100.
REGULAR_7 = [[F(math.cos(2 * math.pi * k / 7)).limit_denominator(100),
              F(math.sin(2 * math.pi * k / 7)).limit_denominator(100), F(1)]
             for k in range(7)]
# The regular 9-gon rounded the same way: one ray over the search cap.
REGULAR_9 = [[F(math.cos(2 * math.pi * k / 9)).limit_denominator(100),
              F(math.sin(2 * math.pi * k / 9)).limit_denominator(100), F(1)]
             for k in range(9)]
# The cone over a square pyramid, base first: ray 3 = r0 - r1 + r2, so the
# ray basis is S = [0, 1, 2, 4], not a prefix.  A self-dual polytope.
PYRAMID = [[1, 0, 0, 1], [0, 1, 0, 1], [-1, 0, 0, 1], [0, -1, 0, 1],
           [0, 0, 1, 1]]
# Two opposite rays of this pyramid pair negatively under the dot product.
WIDE_PYRAMID = [[1, 2, 0], [1, -2, 0], [1, 0, 2], [1, 0, -2]]
# A simplicial cone in R^4: no ray lies outside the ray basis.
SIMPLICIAL_4 = [[1, 0, 0, 0], [1, 2, 0, 0], [0, 1, 3, 0], [1, 0, 1, 2]]


def _pentagon():
    from conelab.fixtures import builtin_fixtures
    spec = next(s for s in builtin_fixtures() if s.name == "pentagon-cone")
    return spec.params["generators"]


# a rotation of the plane's first two coordinates: the wide pyramid's
# image under it takes the sampled self-duality route
ROT = np.array([[0.6, -0.8, 0.0], [0.8, 0.6, 0.0], [0.0, 0.0, 1.0]])


def _sampled_route_systems():
    """(name, seed offset, system) of the cones `check_self_dual` samples:
    every builtin EJA fixture and the shared-corner cone, each with its
    fixture seed, and the rotated wide pyramid."""
    out = [(s.name, s.seed, fixtures.build_system(s, {}))
           for s in fixtures.builtin_fixtures()
           if s.kind in ("eja", "shared-corner")]
    cone = LinearImageCone(PolyhedralCone(WIDE_PYRAMID), ROT)
    out.append(("rotated-wide-pyramid", 0,
                System(cone, ROT.T @ [1.0, 0, 0])))
    return out


def _builtin_eja_systems():
    """(spec, system) of every builtin EJA fixture."""
    return [(s, fixtures.build_system(s, {}))
            for s in fixtures.builtin_fixtures() if s.kind == "eja"]


class _GivenMembers(ConeModel):
    """A cone model whose generators are given rows, every sample its
    second row: `check_self_dual` pairs them on its last, sampled route."""

    def __init__(self, rows):
        self.rows = np.array(rows, dtype=float)
        self.dim = self.rows.shape[1]

    def generators(self):
        return list(self.rows)

    def sample_extremals(self, rng, count):
        return np.tile(self.rows[1], (count, 1))


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

    def test_pairwise_violation_matches_loop(self):
        # A rotated wide pyramid takes the sampled route, and two of its
        # rays pair negatively under the dot product.  Reference: one
        # `a @ b` per pair, in combinations_with_replacement order,
        # stopping at the first violation; the same seed draws the same
        # members.
        cone = LinearImageCone(PolyhedralCone(WIDE_PYRAMID), ROT)
        v = axioms.check_self_dual(System(cone, ROT.T @ [1.0, 0, 0]), seed=0)
        rng = np.random.default_rng(0)
        members = list(cone.generators())
        members += [cone.sample_extremal(rng) for _ in range(200)]
        ref = next((a, b, float(a @ b)) for a, b in
                   itertools.combinations_with_replacement(members, 2)
                   if float(a @ b) < -1e-9)
        assert v.status == FAILS
        a, b = v.violation["pair"]
        assert np.array_equal(a, ref[0]) and np.array_equal(b, ref[1])
        assert v.violation["inner_value"] == ref[2] == v.margin < -2.9

    def test_holds_matches_loop_on_eja_fixtures(self):
        for spec in fixtures.builtin_fixtures():
            if spec.kind != "eja":
                continue
            system = fixtures.build_system(spec, {})
            v = axioms.check_self_dual(system, seed=spec.seed)
            assert v.status == HOLDS
            # the trace form's dual extremals are the sampled members; one
            # full decomposition each finds them in the cone
            cone = system.cone
            rng = np.random.default_rng(spec.seed)
            members = list(cone.generators())
            members += [cone.sample_extremal(rng) for _ in range(200)]
            assert first_dual_extremal_outside(
                cone.algebra, members, np.eye(cone.dim), 1e-9) is None

    @pytest.mark.parametrize("seed", [1, 7, 11])
    def test_sampled_route_matches_pair_oracle(self, seed):
        # the pairs read in place from the Gram matrix give the verdict,
        # pair, value and margin that gathering them gave
        statuses = set()
        for _, offset, system in _sampled_route_systems():
            v = axioms.check_self_dual(system, seed=seed + offset)
            ref = self_dual_by_pair_gather(system, seed=seed + offset)
            assert_same_verdict(v, ref)
            statuses.add(v.status)
        assert statuses == {HOLDS, FAILS}

    @pytest.mark.parametrize("seed", [1, 7, 11])
    def test_sampled_gram_is_exactly_symmetric(self, seed):
        # what lets one triangle stand for every pair
        for name, offset, system in _sampled_route_systems():
            cone = system.cone
            rng = np.random.default_rng(seed + offset)
            members = np.concatenate([
                np.reshape(cone.generators(), (-1, cone.dim)),
                cone.sample_extremals(rng, axioms.SELF_DUAL_SAMPLES)])
            gram = members @ members.T
            assert gram.tobytes() == gram.T.tobytes(), name

    def test_nan_pairing_hides_no_negative_pair(self):
        # row 0 pairs to NaN with every row, so the smallest entry is NaN;
        # the pair (1, 2) is still negative and is reported
        cone = _GivenMembers([[np.nan, 1.0], [1.0, 1.0], [-1.0, 0.5]])
        v = axioms.check_self_dual(System(cone, np.array([0.0, 1.0])))
        assert v.status == FAILS and v.margin == -0.5
        a, b = v.violation["pair"]
        assert a.tolist() == [1.0, 1.0] and b.tolist() == [-1.0, 0.5]

    def test_eja_membership_builds_no_idempotents(self, monkeypatch, rng):
        calls = []
        spectral = eja.SimpleFactor.spectral

        def counting(self, a):
            calls.append(1)
            return spectral(self, a)

        monkeypatch.setattr(eja.SimpleFactor, "spectral", counting)
        system = make_eja_system(eja.complex_herm(3), "complex-herm-3")
        for _ in range(20):
            system.cone.member(random_element(system.cone.algebra, rng))
        assert axioms.check_self_dual(system).status == HOLDS
        assert calls == []

    @pytest.mark.parametrize("shift, kinds", [
        (0, {"", "pair", "facet_normal"}),
        (F(1, 14), {"pair", "facet_normal"}),
        (F(-1, 14), {"pair", "facet_normal"})],
        ids=["identity", "plus", "minus"])
    def test_polyhedral_records_match_solve_loop(self, shift, kinds):
        # each builtin polyhedral cone and the wide pyramid, mapped by
        # A = I + shift (J - I): the image is self-dual under the dot
        # product exactly when the cone is self-dual under A^T A.  The
        # identity keeps the classical bit self-dual, a positive shift moves
        # its facet normals out of it, and a negative one makes its rays
        # pair negatively.
        specs = fixtures.builtin_fixtures()
        registry = {s.name: s for s in specs}
        cones = {"wide-pyramid": PolyhedralCone(WIDE_PYRAMID)}
        for spec in specs:
            if spec.kind in ("polyhedral", "composite"):
                system = fixtures.build_system(spec, registry)
                system = getattr(system, "system", system)
                if isinstance(system.cone, PolyhedralCone):
                    cones[spec.name] = system.cone
        seen = {}
        for name, cone in cones.items():
            d = cone.dim
            a = [[F(int(i == j)) + shift * (i != j) for j in range(d)]
                 for i in range(d)]
            image = PolyhedralCone([exact.mat_vec(a, r)
                                    for r in cone.data.rays])
            unit = np.sum(np.array(image.data.facets(), dtype=float), axis=0)
            v = axioms.check_self_dual(System(image, unit))
            assert (v.status, v.violation, v.detail) \
                == self_dual_by_solves(image, np.eye(d)), name
            seen[name] = next(iter(v.violation or {}), "")
        assert set(seen) == {"square-cone", "pentagon-cone", "wide-pyramid",
                             "min-square-square", "classical-bit-bit"}
        assert set(seen.values()) == kinds

    def test_exact_gram_entries_are_used_as_given(self):
        # the SPD search's gram is exact: the pentagon is self-dual under
        # it, and not once one entry moves by 10^-6
        cone = PolyhedralCone(_pentagon())
        gram = axioms.search_spd_self_duality(cone).witness["gram"]
        assert self_dual_by_fractions(cone, gram)[0] == HOLDS
        bumped = [row[:] for row in gram]
        bumped[0][0] += F(1, 10**6)
        assert self_dual_by_fractions(cone, bumped)[0] == FAILS


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

    def test_cap(self):
        # 9! bijections would take about a minute; the refusal takes one LP
        # per ray
        for search in (axioms.search_weak_self_duality,
                       axioms.search_spd_self_duality):
            t0 = time.perf_counter()
            with pytest.raises(UnsupportedQuery,
                               match=f"9 rays > cap {axioms.SEARCH_CAP}"):
                search(PolyhedralCone(REGULAR_9))
            assert time.perf_counter() - t0 < 1.0
        assert axioms.SEARCH_CAP == 8

    @pytest.mark.parametrize("search", [axioms.search_weak_self_duality,
                                        axioms.search_spd_self_duality])
    def test_cap_checked_before_facets(self, search, monkeypatch):
        # an over-cap cone is refused from its extremal rays alone
        def no_facets(self):
            raise AssertionError("facets enumerated for an over-cap cone")

        monkeypatch.setattr(exact.PolyhedralData, "facets", no_facets)
        with pytest.raises(UnsupportedQuery):
            search(PolyhedralCone(REGULAR_9))

    def test_one_ray_cone(self):
        # d = 1: a bijection's basis image is one index, still a tuple
        for search in (axioms.search_weak_self_duality,
                       axioms.search_spd_self_duality):
            assert search(PolyhedralCone([[2]])).status == HOLDS

    @pytest.mark.parametrize("d", [2, 3])
    def test_orthant_weak_holds(self, d):
        # simplicial: no ray lies outside the ray basis, so the weak system
        # in the scales has no rows at all
        units = [[int(i == j) for j in range(d)] for i in range(d)]
        v = axioms.search_weak_self_duality(PolyhedralCone(units))
        assert v.status == HOLDS
        assert exact.rank(v.witness["map"]) == d
        assert all(m > 0 for m in v.witness["scales"])

    # perfbench's bijection-search workload reads the bijections an
    # exhaustive search tried off these calls, and requires n! of them
    @pytest.mark.parametrize("fn, rays, n_fact", [
        ("search_spd_self_duality", SQUARE, 24),
        ("search_weak_self_duality", LATTICE_6, 720),
        ("search_spd_self_duality", LATTICE_6, 720),
        ("search_spd_self_duality", REGULAR_6, 720),
        ("search_weak_self_duality", LATTICE_8, 40320),
        ("search_spd_self_duality", LATTICE_8, 40320)],
        ids=["square-spd", "lattice-6-weak", "lattice-6-spd",
             "regular-6-spd", "lattice-8-weak", "lattice-8-spd"])
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
        # d - 1 wedge rows per ray outside the ray basis, and d(d-1)/2
        # symmetry rows for SPD
        n, d = len(rays), len(rays[0])
        rows = (n - d) * (d - 1) + (d * (d - 1) // 2 if "spd" in fn else 0)
        assert set(calls) == {rows}

    def test_zero_kernels_never_back_substitute(self, monkeypatch):
        # every bijection of the lattice hexagon's weak search has a zero
        # kernel, which the forward pass answers alone; the one
        # back-substitution is the dual basis of the ray basis
        cone = PolyhedralCone(LATTICE_6)
        cone.data.facets()
        subs = {"all": 0, "in_null_space": 0}
        solving = []
        back, null = exact._back_substitute, exact.null_space

        def counting_back(echelon):
            subs["all"] += 1
            subs["in_null_space"] += bool(solving)
            return back(echelon)

        def counting_null(mat):
            solving.append(mat)
            try:
                return null(mat)
            finally:
                solving.pop()

        monkeypatch.setattr(exact, "_back_substitute", counting_back)
        monkeypatch.setattr(exact, "null_space", counting_null)
        v = axioms.search_weak_self_duality(cone)
        assert v.status == FAILS
        assert v.detail == "no bijection admits an invertible solution"
        assert subs == {"all": 1, "in_null_space": 0}


def _skew_constructions(monkeypatch):
    """Every map the searches build is off by 1/1000 in one entry."""
    build = axioms._ScaleSystems.map_from_scales

    def skewed(self, perm, mu):
        t = build(self, perm, mu)
        t[0][0] += F(1, 1000)
        return t

    monkeypatch.setattr(axioms._ScaleSystems, "map_from_scales", skewed)


def test_failed_weak_construction_is_inconclusive(monkeypatch):
    # the square is weakly self-dual; maps that fail their own re-check
    # must not turn into "no bijection admits an invertible solution"
    _skew_constructions(monkeypatch)
    v = axioms.search_weak_self_duality(PolyhedralCone(SQUARE))
    assert v.status == INCONCLUSIVE
    assert v.violation["failed_constructions"]


def test_wrongly_lifted_scale_is_a_failed_construction(monkeypatch):
    # a lift that doubles the scale of the first ray outside the basis keeps
    # every scale positive, but T no longer carries that ray to its scaled
    # facet: the exact re-check must catch it
    lift = axioms._ScaleSystems._lift

    def corrupted(self, perm, mu_s):
        mu = lift(self, perm, mu_s)
        mu[self.outside[0][0]] *= 2
        return mu

    monkeypatch.setattr(axioms._ScaleSystems, "_lift", corrupted)
    v = axioms.search_weak_self_duality(PolyhedralCone(SQUARE))
    assert v.status == INCONCLUSIVE
    assert v.violation["failed_constructions"]


def test_failed_spd_construction_is_uncertified(monkeypatch):
    # an SPD map that does not carry the rays is no witness
    _skew_constructions(monkeypatch)
    v = axioms.search_spd_self_duality(PolyhedralCone(_pentagon()))
    assert v.status == INCONCLUSIVE
    certs = v.violation["bijections"]
    assert len(certs) == 120
    failed = [c for c in certs
              if c["reason"] == "constructed map fails the exact re-check"]
    assert failed and all(c["certified"] is False for c in failed)


def test_non_symmetric_spd_construction_is_uncertified(monkeypatch):
    # without its symmetry rows the system admits non-symmetric maps, which
    # Sylvester's criterion would pass as SPD; they are failed constructions
    space = axioms._ScaleSystems.scale_space
    monkeypatch.setattr(axioms._ScaleSystems, "scale_space",
                        lambda self, perm, symmetric: space(self, perm, False))
    v = axioms.search_spd_self_duality(PolyhedralCone(REGULAR_6))
    assert v.status == INCONCLUSIVE
    failed = [c for c in v.violation["bijections"]
              if c["reason"] == "constructed map fails the exact re-check"]
    assert failed and all(c["certified"] is False for c in failed)


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


def _assert_scale_space_matches_oracles(systems, perm, symmetric):
    """The scale basis is the null basis of the system in all n scales and,
    each vector lifted to (T row by row, mu), the null basis in (T, mu)."""
    rays, facets = systems.rays, systems.facets
    basis = systems.scale_space(perm, symmetric)
    assert basis == scale_system_in_all_scales(rays, facets, perm, symmetric)
    lifted = [[x for row in systems.map_from_scales(perm, mu) for x in row]
              + mu for mu in basis]
    assert lifted == bijection_system(rays, facets, perm, symmetric)


@pytest.mark.parametrize("rays, basis, step", [
    (SQUARE, [0, 1, 2], 1), (_pentagon(), [0, 1, 2], 1),
    (PYRAMID, [0, 1, 2, 4], 1), (SIMPLICIAL_4, [0, 1, 2, 3], 1),
    (REGULAR_7, [0, 1, 2], 20)],
    ids=["square", "pentagon", "pyramid", "simplicial-4", "regular-7"])
def test_scale_space_matches_oracle_on_every_bijection(rays, basis, step):
    # step > 1 takes every step-th bijection in lexicographic order
    data = PolyhedralCone(rays).data
    assert data.extremal_ray_indices() == list(range(len(rays)))
    systems = axioms._ScaleSystems(data.rays, data.facets())
    assert systems.basis == basis
    perms = itertools.permutations(range(len(rays)))
    for perm in itertools.islice(perms, 0, None, step):
        for symmetric in (False, True):
            _assert_scale_space_matches_oracles(systems, perm, symmetric)


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


@st.composite
def cones_over_lattice_polytopes(draw):
    """Extremal rays of the cone in R^4 over the convex hull of 4 to 7
    lattice points, each scaled by a positive rational."""
    coord = st.integers(min_value=-2, max_value=2)
    points = draw(st.lists(st.tuples(coord, coord, coord), min_size=4,
                           max_size=7, unique=True))
    scales = draw(st.lists(st.fractions(min_value=F(1, 3), max_value=3),
                           min_size=len(points), max_size=len(points)))
    rays = [[q * x, q * y, q * z, q] for (x, y, z), q in zip(points, scales)]
    data = exact.PolyhedralData(rays)
    assume(data.full_dimensional)
    return [rays[i] for i in data.extremal_ray_indices()]


@st.composite
def simplicial_cones(draw):
    """d independent integer rays in R^d, d = 2 to 4."""
    d = draw(st.integers(2, 4))
    entry = st.integers(min_value=-3, max_value=3)
    rays = draw(st.lists(st.lists(entry, min_size=d, max_size=d),
                         min_size=d, max_size=d))
    assume(exact.rank(rays) == d)
    return rays


@given(rays=st.one_of(lattice_polygon_cones(), cones_over_lattice_polytopes(),
                      simplicial_cones()),
       data=st.data())
@settings(max_examples=90, deadline=None)
def test_scale_space_matches_oracle(rays, data):
    cone = PolyhedralCone(rays)
    assert cone.data.extremal_ray_indices() == list(range(len(rays)))
    systems = axioms._ScaleSystems(cone.data.rays, cone.data.facets())
    n, m = len(rays), len(systems.facets)
    # rays to facets, one to one when there are enough facets
    maps = (st.permutations(range(m)).map(lambda p: p[:n]) if m >= n
            else st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    perms = data.draw(st.lists(maps, min_size=1, max_size=3))
    if n <= 5:
        # a random bijection of a larger cone has no solution; add one
        # that has, so that nonempty bases are compared too
        v = axioms.search_weak_self_duality(cone)
        if v.status == HOLDS:
            perms.append(v.witness["bijection"])
    for perm in perms:
        for symmetric in (False, True):
            _assert_scale_space_matches_oracles(systems, perm, symmetric)


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
            rho = random_interior(alg, rng)
            sig = random_interior(alg, rng)
            phi = axioms.homogeneity_witness(system, rho, sig)
            assert np.max(np.abs(phi @ rho - sig)) < 1e-8
            assert check_positive(phi, system, system,
                                  np.random.default_rng(0))

    @pytest.mark.parametrize("seed", [1, 7, 11])
    def test_stacked_margin_equals_pair_loop(self, seed):
        # all 20 points drawn first and all 10 witnesses built as one
        # stack: the margin of drawing and solving one pair at a time
        specs = fixtures.builtin_fixtures()
        registry = {s.name: s for s in specs}
        for spec in (s for s in specs if s.kind == "eja"):
            system = fixtures.build_system(spec, registry)
            record = fixtures.run_check("homogeneity", spec, system,
                                        DEFAULT_TOL, seed)
            ref = homogeneity_margin_by_pairs(
                system.cone.algebra, np.random.default_rng(seed + spec.seed),
                10)
            assert record["margin"] == ref, spec.name

    def test_shared_corner_witness(self, shared_system, rng):
        cone = shared_system.cone
        rho = np.array([2.0, 1.5, 1.2, 0.3, -0.2])
        sig = np.array([1.0, 2.0, 3.0, 0.5, 0.7])
        phi = axioms.homogeneity_witness(shared_system, rho, sig)
        assert np.max(np.abs(phi @ rho - sig)) < 1e-9
        for _ in range(20):
            assert cone.member(phi @ cone.sample_extremal(rng), 1e-8)

    def test_missed_witness_is_inconclusive(self, monkeypatch):
        # A witness that misses sigma by 1e-6 is a poor construction: the
        # check runner must not report it as a disproof.
        witness = axioms.homogeneity_witness

        def perturbed(system, rho, sigma, tol=DEFAULT_TOL):
            return witness(system, rho, sigma, tol) + 1e-6

        monkeypatch.setattr(axioms, "homogeneity_witness", perturbed)
        specs = fixtures.builtin_fixtures()
        spec = next(s for s in specs if s.name == "qubit")
        system = fixtures.build_system(spec, {s.name: s for s in specs})
        record = fixtures.run_check("homogeneity", spec, system,
                                    DEFAULT_TOL, 7)
        assert record["status"] == INCONCLUSIVE
        assert record["margin"] >= 1e-8

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
        phi = axioms.homogeneity_witness(qubit, random_interior(alg, rng),
                                         random_interior(alg, rng))
        sharp, p = probabilistic_inverse(phi, qubit, qubit, rng)
        assert 0 < p <= 1.0 + 1e-12
        assert np.max(np.abs(sharp @ phi - p * np.eye(4))) < 1e-8


class TestPureTransitivity:
    def test_same_summand(self, qubit, rng):
        w1, w2 = qubit.sample_pure(rng), qubit.sample_pure(rng)
        v = axioms.pure_transitivity_witness(qubit, w1, w2)
        assert v.status == HOLDS
        assert np.max(np.abs(v.witness @ w1 - w2)) < 1e-9
        assert is_order_isomorphism(v.witness, qubit.cone,
                                    qubit.cone).status == HOLDS
        assert axioms.preserves_unit(v.witness, qubit.unit)

    def test_cross_isomorphic_summands(self, rng):
        alg = eja.JordanAlgebra([eja.complex_herm(2).factors[0],
                                 eja.complex_herm(2).factors[0]])
        system = make_eja_system(alg)
        w1 = system.normalize(alg.random_pure(rng, summand=0))
        w2 = system.normalize(alg.random_pure(rng, summand=1))
        v = axioms.pure_transitivity_witness(system, w1, w2)
        assert v.status == HOLDS
        assert np.max(np.abs(v.witness @ w1 - w2)) < 1e-9
        assert is_order_isomorphism(v.witness, system.cone,
                                    system.cone).status == HOLDS

    def test_non_isomorphic_summands(self, rng):
        alg = eja.JordanAlgebra([eja.complex_herm(2).factors[0],
                                 eja.real_sym(2).factors[0]])
        system = make_eja_system(alg)
        w1 = system.normalize(alg.random_pure(rng, summand=0))
        w2 = system.normalize(alg.random_pure(rng, summand=1))
        v = axioms.pure_transitivity_witness(system, w1, w2)
        assert v.status == FAILS
        assert v.violation["summands"] == (("complex", 2, 4), ("real", 2, 3))

    @pytest.mark.parametrize("summands", [
        [{"family": "real", "rank": 2}, {"family": "spin", "dim": 3}],
        [{"family": "complex", "rank": 2}, {"family": "spin", "dim": 4}],
        [{"family": "real", "rank": 1}, {"family": "complex", "rank": 1}]],
        ids=["real2+spin3", "complex2+spin4", "real1+complex1"])
    def test_isomorphic_summands_of_other_families_stay_open(self, summands,
                                                             rng):
        # equal (rank, dim) is an isomorphism no map is built for: the
        # verdict stays open and is never a disproof
        spec = fixtures.FixtureSpec("sum", "eja", {"summands": summands})
        for seed in (1, 7, 11):
            report = fixtures.run_checks([spec], ["pure-transitivity"],
                                         seed=seed)
            record = report["fixtures"][0]["checks"][0]
            assert record["status"] == INCONCLUSIVE
            assert record["detail"] == "isomorphic summands; no map built"
        system = fixtures.build_system(spec, {})
        alg = system.cone.algebra
        w1 = system.normalize(alg.random_pure(rng, summand=0))
        w2 = system.normalize(alg.random_pure(rng, summand=1))
        assert axioms.pure_transitivity_witness(system, w1, w2).status \
            == INCONCLUSIVE

    def test_shared_corner_profile_violation(self, shared_system):
        w1 = np.array([0.0, 1.0, 0.0, 0.0, 0.0])
        w2 = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        v = axioms.pure_transitivity_witness(shared_system, w1, w2)
        assert v.status == FAILS
        p1, p2 = v.violation["face_profiles"]
        assert p1 == 3 and p2 == 5

    def test_shared_corner_profile_is_one_face_dimension(self, shared_system,
                                                         monkeypatch):
        # the closed form needs one face_dimension call per pure state, and
        # one that misses it leaves the verdict open
        calls = []

        def counted(cone, x, tol=DEFAULT_TOL):
            calls.append(x)
            return face_dimension(cone, x, tol)

        monkeypatch.setattr(axioms, "face_dimension", counted)
        w1 = np.array([0.0, 1.0, 0.0, 0.0, 0.0])
        w2 = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        v = axioms.pure_transitivity_witness(shared_system, w1, w2)
        assert v.status == FAILS and len(calls) == 2
        monkeypatch.setattr(axioms, "face_dimension",
                            lambda cone, x, tol=DEFAULT_TOL: 4)
        v = axioms.pure_transitivity_witness(shared_system, w1, w2)
        assert v.status == INCONCLUSIVE

    @pytest.mark.parametrize("w", [[0.0, 1.0, 0.0, 0.0, 0.0],
                                   [0.0, 0.0, 1.0, 0.0, 0.0],
                                   [1.0, 0.0, 0.0, 0.0, 0.0],
                                   [1.0, 0.25, 4.0, 0.5, -2.0]])
    def test_shared_corner_profile_matches_sampling(self, shared_system, w):
        w = shared_system.normalize(np.array(w))
        closed = axioms.face_profile(shared_system, w)
        assert closed in (3, 5)
        assert closed == face_profile_by_sampling(shared_system, w)

    def test_non_finite_map_is_a_failed_construction(self, qubit, rng,
                                                     monkeypatch):
        # a NaN map is a failed construction named as such, not a map
        # that misses w2 by a NaN residual
        rotation_maps = eja.SimpleFactor.rotation_maps

        def broken(self, w1, w2, ts):
            return rotation_maps(self, w1, w2, ts) * np.nan

        monkeypatch.setattr(eja.SimpleFactor, "rotation_maps", broken)
        w1, w2 = qubit.sample_pure(rng), qubit.sample_pure(rng)
        v = axioms.pure_transitivity_witness(qubit, w1, w2)
        assert v.status == INCONCLUSIVE
        assert v.detail == "constructed map is not finite"
        spec, system = _builtin_system("qubit")
        record = fixtures.run_check("pure-transitivity", spec, system,
                                    DEFAULT_TOL, 7)
        assert record["status"] == INCONCLUSIVE
        assert record["detail"] == v.detail

    @pytest.mark.parametrize("seed", [1, 7, 11])
    def test_stacked_pairs_match_sample_oracle(self, seed, monkeypatch):
        # every builtin EJA fixture, qubit + rebit and classical 3 among
        # them for the summand picks: the check's pairs, in order, are those
        # of ten `sample_pure` draws, all in its one stacked call, and its
        # verdict is that of validating and deciding them pair by pair
        witness = axioms.pure_transitivity_witness
        seen = []
        monkeypatch.setattr(
            axioms, "pure_transitivity_witness",
            lambda system, w1, w2, tol: seen.append((w1, w2))
            or witness(system, w1, w2, tol))
        statuses = set()
        for spec, system in _builtin_eja_systems():
            s = seed + spec.seed
            seen.clear()
            v = fixtures._pure_transitivity(fixtures._Inputs(
                system, DEFAULT_TOL, s, np.random.default_rng(s)))
            pairs = pure_pairs_by_sample(system, np.random.default_rng(s))
            stacked = tuple(np.array(side) for side in zip(*pairs))
            assert same_bits(seen, [stacked]), spec.name
            assert_same_verdict(
                v, pure_transitivity_by_pair(system, pairs, DEFAULT_TOL))
            statuses.add(v.status)
        assert statuses == {HOLDS, FAILS}

    def test_check_validates_its_states_once(self, monkeypatch):
        # all ten states (twelve on a direct sum) take one
        # `first_non_extremal` call and no per-point membership test
        stacked = []
        first = axioms.first_non_extremal
        monkeypatch.setattr(axioms, "first_non_extremal",
                            lambda cone, xs, tol: stacked.append(len(xs))
                            or first(cone, xs, tol))
        points = []
        member = EJACone.member
        monkeypatch.setattr(EJACone, "member",
                            lambda self, x, tol=DEFAULT_TOL: points.append(x)
                            or member(self, x, tol))
        for spec, system in _builtin_eja_systems():
            stacked.clear()
            fixtures._pure_transitivity(fixtures._Inputs(
                system, DEFAULT_TOL, 7, np.random.default_rng(7)))
            sums = len(system.cone.algebra.summands) > 1
            assert stacked == [12 if sums else 10], spec.name
        assert points == []

    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_invalid_state_raises_before_any_map(self, at, rng, monkeypatch):
        # qubit + rebit: a mixed, null or non-finite state in any pair
        # raises ConeError before any map is built, also after a pair that
        # holds and a cross-summand pair that FAILS
        built = []
        rotation_maps = eja.SimpleFactor.rotation_maps
        monkeypatch.setattr(eja.SimpleFactor, "rotation_maps",
                            lambda self, *args: built.append(args)
                            or rotation_maps(self, *args))
        alg = eja.JordanAlgebra([eja.complex_herm(2).factors[0],
                                 eja.real_sym(2).factors[0]])
        system = make_eja_system(alg)
        a, b = (system.normalize(alg.random_pure(rng, summand=0))
                for _ in range(2))
        rebit = system.normalize(alg.random_pure(rng, summand=1))
        mixed = system.normalize(alg.embed(0, np.array([1.0, 1.0, 0, 0])))
        pairs = [(a, b), (a, rebit), (b, a)]
        w1, w2 = (np.array(side) for side in zip(*pairs))
        assert axioms.pure_transitivity_witness(system, w1, w2).status \
            == FAILS
        for bad in (mixed, np.zeros(alg.dim), np.full(alg.dim, np.nan)):
            built.clear()
            w1[at] = bad
            with pytest.raises(ConeError):
                axioms.pure_transitivity_witness(system, w1, w2)
            with pytest.raises(ConeError):
                axioms.continuous_pure_transitivity(system, bad, b)
            assert built == []

    def test_requires_pure_inputs(self, qubit):
        mixed = np.array([0.5, 0.5, 0.0, 0.0])
        pure = np.array([1.0, 0.0, 0.0, 0.0])
        with pytest.raises(ConeError):
            axioms.pure_transitivity_witness(qubit, mixed, pure)


def test_unit_rule_pulls_the_unit_back():
    # m preserves the unit functional u when u(m x) = u(x) for every x,
    # that is m.T @ u = u; this m does, yet m @ u != u, so a rule that
    # applied m to u itself would reject it and accept its transpose
    u = make_eja_system(eja.classical(2)).unit
    m = np.array([[1.0, 0.5], [0.0, 0.5]])
    assert np.array_equal(u, [1.0, 1.0])
    assert not np.allclose(m @ u, u)
    assert axioms.preserves_unit(m, u)
    assert not axioms.preserves_unit(m.T, u)
    assert not axioms.preserves_unit(m + 1e-7, u)
    # a stack passes when every map in it does
    assert axioms.preserves_unit(np.array([np.eye(2), m]), u)
    assert not axioms.preserves_unit(np.array([m, m.T]), u)


def _faulty_rotations(monkeypatch, fault):
    """Patch every rotation: scaled by 1.01 (misses w2 and moves the unit),
    the identity (misses w2 only) or plus a rank-one term that kills w1 but
    moves the unit."""
    rotation_maps = eja.SimpleFactor.rotation_maps

    def faulty(self, w1, w2, ts):
        maps = rotation_maps(self, w1, w2, ts)
        if fault == "scaled":
            return 1.01 * maps
        if fault == "identity":
            return np.tile(np.eye(self.dim), (len(ts), 1, 1))
        u = self.trace_functional()
        b = u - (u @ w1) / (w1 @ w1) * w1
        return maps + 1e-3 * np.outer(u, b)

    monkeypatch.setattr(eja.SimpleFactor, "rotation_maps", faulty)


@pytest.mark.parametrize("fault", ["scaled", "identity", "unit"])
def test_faulty_transitivity_map_is_inconclusive(fault, qubit, rng,
                                                 monkeypatch):
    _faulty_rotations(monkeypatch, fault)
    w1, w2 = qubit.sample_pure(rng), qubit.sample_pure(rng)
    assert axioms.pure_transitivity_witness(qubit, w1, w2).status \
        == INCONCLUSIVE
    assert axioms.continuous_pure_transitivity(qubit, w1, w2).status \
        == INCONCLUSIVE
    specs = fixtures.builtin_fixtures()
    spec = next(s for s in specs if s.name == "qubit")
    system = fixtures.build_system(spec, {s.name: s for s in specs})
    for check in ("pure-transitivity", "continuous-pure-transitivity"):
        record = fixtures.run_check(check, spec, system, DEFAULT_TOL, 7)
        assert record["status"] == INCONCLUSIVE


def _builtin_system(name: str):
    specs = fixtures.builtin_fixtures()
    spec = next(s for s in specs if s.name == name)
    return spec, fixtures.build_system(spec, {s.name: s for s in specs})


@pytest.mark.parametrize("name", ["spin-factor-3", "spin-factor-4",
                                  "spin-factor-8"])
def test_transitivity_reaches_the_orthogonal_spin_state(name, rng):
    # w's orthogonal pure state negates its spatial part: the axes are
    # antipodal, so the rotation's plane is picked, not spanned by them
    _, system = _builtin_system(name)
    w1 = system.sample_pure(rng)
    w2 = np.concatenate([w1[:1], -w1[1:]])
    for check in (axioms.pure_transitivity_witness,
                  axioms.continuous_pure_transitivity):
        v = check(system, w1, w2)
        assert v.status == HOLDS, check
        assert v.margin < 1e-12


class TestContinuousPureTransitivity:
    def test_path(self, qubit, rng):
        w1, w2 = qubit.sample_pure(rng), qubit.sample_pure(rng)
        v = axioms.continuous_pure_transitivity(qubit, w1, w2)
        assert v.status == HOLDS
        assert len(v.witness) == 17
        assert v.margin < 1e-9

    @pytest.mark.parametrize("seed", [1, 7, 11])
    def test_stacked_path_matches_map_oracle(self, seed):
        # every builtin EJA fixture with both states in one summand: the
        # fixture's own draws on a simple algebra, two per summand on a
        # sum, so the path maps act on part of the coordinates there
        for spec, system in _builtin_eja_systems():
            alg = system.cone.algebra
            rng = np.random.default_rng(seed + spec.seed)
            if len(alg.summands) == 1:
                draws = [(system.sample_pure(rng), system.sample_pure(rng))]
            else:
                draws = [system.normalize(alg.random_pures(rng, 2, i))
                         for i in range(len(alg.summands))]
            for w1, w2 in draws:
                v = axioms.continuous_pure_transitivity(system, w1, w2)
                assert v.status == HOLDS, spec.name
                assert_same_verdict(
                    v, continuous_pt_by_map(system, w1, w2, DEFAULT_TOL))

    def test_path_names_the_first_state_that_loses_purity(self, qubit, rng,
                                                          monkeypatch):
        # the maps from t = 1/4 to t = 3/4 carry w1 to the unit, which is
        # not pure: the verdict names t = 1/4, not a later step
        rotation_maps = eja.SimpleFactor.rotation_maps

        def lossy(self, w1, w2, ts):
            to_unit = np.outer(self.unit(), w1) / (w1 @ w1)
            return np.array([to_unit if 0.25 <= t <= 0.75 else m for m, t
                             in zip(rotation_maps(self, w1, w2, ts), ts)])

        monkeypatch.setattr(eja.SimpleFactor, "rotation_maps", lossy)
        w1, w2 = qubit.sample_pure(rng), qubit.sample_pure(rng)
        v = axioms.continuous_pure_transitivity(qubit, w1, w2)
        assert v.status == INCONCLUSIVE
        assert v.detail == "constructed path loses purity at t=0.25"

    def test_non_finite_path_is_a_failed_construction(self, qubit, rng,
                                                      monkeypatch):
        # maps that are NaN for t in (0.4, 0.6) are a failed construction
        # named at their first step, t = 7/16, not an error
        rotation_maps = eja.SimpleFactor.rotation_maps

        def broken(self, w1, w2, ts):
            scale = [np.nan if 0.4 < t < 0.6 else 1.0 for t in ts]
            return rotation_maps(self, w1, w2, ts) * np.array(scale)[:, None,
                                                                      None]

        monkeypatch.setattr(eja.SimpleFactor, "rotation_maps", broken)
        w1, w2 = qubit.sample_pure(rng), qubit.sample_pure(rng)
        v = axioms.continuous_pure_transitivity(qubit, w1, w2)
        assert v.status == INCONCLUSIVE
        assert v.detail == "constructed path is not finite at t=0.4375"
        spec, system = _builtin_system("qubit")
        record = fixtures.run_check("continuous-pure-transitivity", spec,
                                    system, DEFAULT_TOL, 7)
        assert record["status"] == INCONCLUSIVE
        assert record["detail"] == v.detail

    @pytest.mark.parametrize("check", [
        axioms.pure_transitivity_witness, axioms.continuous_pure_transitivity])
    def test_either_input_must_be_pure(self, check, qubit, rng):
        pure = qubit.sample_pure(rng)
        mixed = qubit.normalize(pure + qubit.sample_pure(rng))
        for w1, w2 in ((mixed, pure), (pure, mixed)):
            with pytest.raises(ConeError):
                check(qubit, w1, w2)

    @pytest.mark.parametrize("check", [
        axioms.pure_transitivity_witness, axioms.continuous_pure_transitivity])
    def test_states_in_no_single_summand_are_rejected(self, check, rng):
        # 1e-8 times a pure state is extremal, but its norm is below the
        # summand lookup's 1e-7 in every summand
        system = make_eja_system(eja.JordanAlgebra(
            [eja.SimpleFactor(eja.COMPLEX, 2)] * 2))
        pure = system.normalize(system.cone.algebra.random_pure(rng))
        for w1, w2 in ((1e-8 * pure, pure), (pure, 1e-8 * pure)):
            with pytest.raises(ConeError, match="single summand"):
                check(system, w1, w2)

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
        assert classical_effect_test(system, np.array([0.0, 1.0, 1.0]))
        assert not classical_effect_test(system, np.array([0.5, 1.0, 0.0]))

    def test_qubit(self, qubit):
        proj = np.array([1.0, 0.0, 0.0, 0.0])
        assert not classical_effect_test(qubit, proj)
        assert classical_effect_test(qubit, qubit.unit.copy())
        assert classical_effect_test(qubit, np.zeros(4))

    def test_direct_sum_summand_unit(self):
        alg = eja.JordanAlgebra([eja.complex_herm(2).factors[0],
                                 eja.complex_herm(2).factors[0]])
        system = make_eja_system(alg)
        e = np.zeros(8)
        e[:2] = 1.0  # the unit of the first summand
        assert classical_effect_test(system, e)

    def test_polyhedral_effects_on_sampled_pure_states(self, square_system):
        # no spectral route: 0/1 values are read on sampled pure states
        for e, classical in [([0.0, 1.0, 0.0], True), ([0.0, 0.0, 0.0], True),
                             ([0.5, 0.5, -0.5], True),
                             ([0.5, 0.5, 0.0], False)]:
            assert classical_effect_test(square_system,
                                         np.array(e)) == classical

    def test_effect_precondition(self, qubit):
        with pytest.raises(ConeError):
            classical_effect_test(qubit, np.array([2.0, 0.0, 0.0, 0.0]))


def test_face_profile_invariant_under_automorphism(shared_system, rng):
    # transport a pure state by a cone automorphism: its profile is unchanged
    cone = shared_system.cone
    w = np.array([1.0, 1.0, 1.0, 1.0, 1.0])  # type-(ii) pure state
    p0 = axioms.face_profile(shared_system, w)
    l1 = np.array([[1.3, 0.0], [0.4, 0.8]])
    l2 = np.array([[1.3, 0.0], [-0.2, 1.1]])
    phi = cone._congruence(l1, l2)
    p1 = axioms.face_profile(shared_system, phi @ w)
    assert p0 == p1 == 5
    assert face_profile_by_sampling(shared_system, phi @ w, samples=60) == 5
