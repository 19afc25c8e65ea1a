"""Exact rational linear algebra and polyhedral geometry."""

import hashlib
import json
import random
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from hypothesis import Phase, assume, example, find, given, settings
from hypothesis import strategies as st

from conelab import axioms, cones, exact, fixtures
from conelab.composite import (MIN_TENSOR, CompositeSystem,
                               _extremal_among_generators)
from conelab.cones import PolyhedralCone, System, UnsupportedQuery
from conelab.exact import PolyhedralData
from polyhedral_oracles import (dual_basis_by_prefix,
                                dual_member_by_fractions,
                                extremal_among_generators_by_fractions,
                                extremal_by_rank, face_span,
                                face_span_by_fractions,
                                facets_by_subsets,
                                feasible_nonneg_by_fractions,
                                independent_prefix, member_by_fractions,
                                member_by_lp, null_space_by_fractions,
                                primitive, reducible_by_subsets,
                                rref_by_fractions, self_dual_by_fractions,
                                solve, to_exact_by_fractions)

SQUARE = [[1, 1, 0], [0, 1, 1], [-1, 1, 0], [0, 1, -1]]

# sha256 of the JSON list of min-square-square's facet normals (entries as
# strings), recorded from the subset enumerator, which takes about 25 s on
# this fixture and is therefore not rerun here
MIN_SQUARE_SQUARE_FACETS_SHA256 = (
    "bb5e17efee9edcacf992fc774ffeddebd8bab6c6bc7ced4391fa4b8723b6a993")


def builtin_polyhedral() -> dict[str, PolyhedralData]:
    """Exact data of every builtin fixture whose cone is polyhedral."""
    specs = fixtures.builtin_fixtures()
    registry = {s.name: s for s in specs}
    out = {}
    for spec in specs:
        if spec.kind in ("polyhedral", "composite"):
            cone = fixtures.build_system(spec, registry).cone
            if isinstance(cone, PolyhedralCone):
                out[spec.name] = cone.data
    return out


def test_rref_rank_null_space():
    mat = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    assert exact.rank(mat) == 2
    null = exact.null_space(mat)
    assert len(null) == 1
    for row in mat:
        assert exact.dot(row, null[0]) == 0


@st.composite
def rational_matrices(draw):
    """Rational matrices with zero rows, repeated rows and sums of rows
    mixed in, so that rank deficiency is common."""
    cols = draw(st.integers(1, 7))
    entry = st.fractions(min_value=-5, max_value=5, max_denominator=7)
    mat = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                        max_size=6))
    for kind, i, j in draw(st.lists(st.tuples(
            st.sampled_from(["zero", "copy", "sum"]), st.integers(0, 5),
            st.integers(0, 5)), max_size=3)):
        if kind == "zero":
            mat.append([F(0)] * cols)
        elif mat:
            a, b = mat[i % len(mat)], mat[j % len(mat)]
            mat.append([x * 3 for x in a] if kind == "copy"
                       else [x + y for x, y in zip(a, b)])
    order = draw(st.permutations(range(len(mat))))
    return [mat[i] for i in order]


@given(mat=rational_matrices())
@settings(max_examples=200, deadline=None)
def test_rref_matches_fraction_elimination(mat):
    red, pivots = exact.rref(mat)
    assert (red, pivots) == rref_by_fractions(mat)
    assert all(type(x) is F for row in red for x in row)


@given(mat=rational_matrices(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_int_fraction_and_mixed_entries_agree(mat, data):
    assume(mat)
    # 420 = lcm(1, ..., 7) clears every denominator the strategy draws
    ints = [[int(x * 420) for x in row] for row in mat]
    fractions = [[F(x) for x in row] for row in ints]
    mixed = [[x if data.draw(st.booleans()) else F(x) for x in row]
             for row in ints]
    expected = rref_by_fractions(fractions)
    null = null_space_by_fractions(fractions)
    for given_as in (ints, fractions, mixed):
        assert exact.rref(given_as) == expected
        basis = exact.null_space(given_as)
        assert basis == null
        assert all(type(x) is F for vec in basis for x in vec)


@st.composite
def tall_systems(draw):
    """Integer or `Fraction` systems of 1-8 columns and up to four times as
    many rows, and the bijection shapes 9x3, 12x3 and 18x3.  Zero rows and
    combinations of earlier rows are mixed in, so rows often arrive after
    the rank is full, and some systems never reach it."""
    rows, cols = draw(st.one_of(
        st.sampled_from([(9, 3), (12, 3), (18, 3)]),
        st.integers(1, 8).flatmap(
            lambda c: st.tuples(st.integers(1, 4 * c), st.just(c)))))
    entry = draw(st.sampled_from([
        st.integers(-9, 9),
        st.fractions(min_value=-5, max_value=5, max_denominator=7)]))
    mat = []
    for _ in range(rows):
        kind = draw(st.sampled_from(["new", "zero", "combination"]))
        if kind == "zero":
            mat.append([0] * cols)
        elif kind == "combination" and mat:
            a, b = draw(st.sampled_from(mat)), draw(st.sampled_from(mat))
            k = draw(st.integers(-3, 3))
            mat.append([x + k * y for x, y in zip(a, b)])
        else:
            mat.append(draw(st.lists(entry, min_size=cols, max_size=cols)))
    return mat


@given(mat=tall_systems())
@settings(max_examples=150, deadline=None)
def test_elimination_matches_fraction_oracle_on_tall_systems(mat):
    expected = rref_by_fractions(mat)
    assert exact.rref(mat) == expected
    assert exact.rank(mat) == len(expected[1])
    assert exact.null_space(mat) == null_space_by_fractions(mat)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), "x"])
def test_bad_entry_after_full_rank_raises(bad):
    # the first three rows already have full rank; the last is still read
    mat = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [1, bad, 0]]
    for fn in (exact.rref, exact.rank, exact.null_space):
        with pytest.raises((ValueError, OverflowError)):
            fn(mat)


def test_solve_exact():
    mat = [[2, 1], [1, 3]]
    sol = solve(mat, [F(5), F(10)])
    assert sol == [F(1), F(3)]
    assert solve([[1, 1], [2, 2]], [F(1), F(3)]) is None


def test_primitive_scaling():
    assert primitive([F(1, 2), F(3, 4), F(0)]) == [F(2), F(3), F(0)]
    # sign is canonicalized so the first nonzero entry is positive
    assert primitive([F(-2), F(-4)]) == [F(1), F(2)]
    assert primitive([F(0), F(0)]) == [F(0), F(0)]


def test_feasible_nonneg():
    # x + y = 3, x - y = 1 has the nonnegative solution (2, 1)
    sol = exact.feasible_nonneg([[1, 1], [1, -1]], [F(3), F(1)])
    assert sol == [F(2), F(1)]
    # x + y = -1 has no nonnegative solution
    assert exact.feasible_nonneg([[1, 1]], [F(-1)]) is None


@st.composite
def phase_one_lps(draw):
    """(mat, rhs) with 0-4 rows of ints and Fractions mixed, denominators
    small or up to 10^9, and either a random rhs (often infeasible, some
    rows negative) or mat @ x for a 0/1/half x, which makes ties and
    degenerate pivots common."""
    m = draw(st.integers(0, 4))
    n = draw(st.integers(1, 5))
    entry = st.one_of(
        st.integers(-2, 2),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        st.builds(F, st.integers(-10**9, 10**9), st.integers(1, 10**9)))
    mat = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                        min_size=m, max_size=m))
    if draw(st.booleans()):
        rhs = draw(st.lists(entry, min_size=m, max_size=m))
    else:
        x = draw(st.lists(st.sampled_from([0, 0, 1, F(1, 2)]),
                          min_size=n, max_size=n))
        rhs = [sum((a * b for a, b in zip(row, x)), F(0)) for row in mat]
    return mat, rhs


@given(lp=phase_one_lps())
# a negative rhs row, which must be flipped before the artificial basis
@example(lp=([[F(0)], [F(-1, 2)]], [F(0), F(-1, 2)]))
# rows of different scales: unit artificial weights pivot to another vertex
@example(lp=([[0, 1, 2], [F(-2, 3), F(-3, 4), 2]], [1, 0]))
# a degenerate ratio tie that only the basis index breaks as the rational
# tableau does
@example(lp=([[1, 2, 1, F(1, 2), 0], [0, -1, 2, 0, 0],
              [1, 1, 0, F(1, 2), -1]], [3, -1, 1]))
# denominators near 10^9, where a float quotient would not be exact
@example(lp=([[F(156374401, 579938224), F(63046331, 71111227),
               F(-939924191, 863899906), F(-619441715, 591370037),
               F(849002453, 98356260)],
              [3, -1, F(222750144, 37824421), F(-964157141, 486403748),
               F(622610242, 301932635)],
              [F(-764874969, 856081168), F(-21696461, 25974202),
               F(-131441359, 54807244), F(-638911479, 705079555),
               F(48011613, 28746292)],
              [F(-308506479, 533106008), F(-949245135, 335012743),
               F(-96084030, 854916473), F(-766436039, 272148611), 1]],
             [F(63046331, 71111227), -1, F(-21696461, 25974202),
              F(-949245135, 335012743)]))
@example(lp=([], []))
@settings(max_examples=300, deadline=None)
def test_feasible_nonneg_matches_fraction_tableau(lp):
    mat, rhs = lp
    assert exact.feasible_nonneg(mat, rhs) == \
        feasible_nonneg_by_fractions(mat, rhs)


# the distinct inputs of every `feasible_nonneg` call in one pass (seed 7)
# of the registry-check, bijection-search and composite-faces benchmark
# workloads, entries as strings
RECORDED_LPS = json.loads(
    (Path(__file__).parent / "data" / "feasible_nonneg_lps.json").read_text())


@pytest.mark.parametrize("workload", sorted(RECORDED_LPS))
def test_feasible_nonneg_replays_recorded_lps(workload):
    lps = RECORDED_LPS[workload]
    assert lps
    for mat, rhs in lps:
        mat = [[F(x) for x in row] for row in mat]
        rhs = [F(x) for x in rhs]
        assert exact.feasible_nonneg(mat, rhs) == \
            feasible_nonneg_by_fractions(mat, rhs)


def test_strictly_positive_in_span():
    basis = [[F(1), F(2)], [F(0), F(1)]]
    coeffs = exact.strictly_positive_in_span(basis)
    assert coeffs is not None and len(coeffs) == len(basis)
    # B^T c >= 1 entrywise
    combo = [exact.dot(coeffs, col) for col in zip(*basis)]
    assert all(v >= 1 for v in combo)
    # the span of (1, -1) contains no entrywise positive vector
    assert exact.strictly_positive_in_span([[F(1), F(-1)]]) is None


class TestPolyhedralData:
    def setup_method(self):
        self.cone = PolyhedralData(SQUARE)

    def test_pointed(self):
        assert self.cone.is_pointed()
        assert not PolyhedralData([[1, 0], [-1, 0], [0, 1]]).is_pointed()

    def test_membership_routes_agree(self):
        pts = [[F(0), F(1), F(0)], [F(1), F(1), F(0)], [F(2), F(1), F(0)],
               [F(1), F(2), F(1)], [F(0), F(-1), F(0)]]
        for p in pts:
            assert self.cone.member(p) == member_by_lp(self.cone, p)
        assert self.cone.member([F(0), F(1), F(0)])
        assert not self.cone.member([F(2), F(1), F(0)])
        cones = builtin_polyhedral()
        for name in ("square-cone", "pentagon-cone", "min-square-square"):
            data = cones[name]
            for p, inside in _membership_points(data, random.Random(name)):
                assert data.member(p) is inside, (name, p)
                assert member_by_lp(data, p) is inside, (name, p)

    def test_facets(self):
        facets = self.cone.facets()
        assert len(facets) == 4
        for f in facets:
            assert all(exact.dot(f, r) >= 0 for r in self.cone.rays)
            assert any(exact.dot(f, r) == 0 for r in self.cone.rays)

    def test_extremal_rays(self):
        assert self.cone.extremal_ray_indices() == [0, 1, 2, 3]
        padded = PolyhedralData(SQUARE + [[0, 1, 0]])
        assert padded.extremal_ray_indices() == [0, 1, 2, 3]

    def test_face_span_dimension(self):
        assert len(face_span(self.cone, [F(0), F(1), F(0)])) == 3
        assert len(face_span(self.cone, [F(1), F(1), F(0)])) == 1
        # midpoint of two adjacent rays lies on a 2-dimensional face
        assert len(face_span(self.cone, [F(1, 2), F(1), F(1, 2)])) == 2


def _positive_combination(rays, rng: random.Random):
    weights = [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in rays]
    return [sum((w * r[i] for w, r in zip(weights, rays)), F(0))
            for i in range(len(rays[0]))]


def _membership_points(data: PolyhedralData, rng: random.Random):
    """(point, inside) pairs: interior points, points exactly on each facet
    (positive sums of its tight rays), and exterior points pushed off each
    facet by a multiple of an interior point."""
    out = []
    interior = [_positive_combination(data.rays, rng) for _ in range(3)]
    out += [(p, True) for p in interior]
    for n in data.facets():
        tight = [r for r in data.rays if exact.dot(n, r) == 0]
        on = _positive_combination(tight, rng)
        assert exact.dot(n, on) == 0
        out.append((on, True))
        s = F(1, rng.randint(1, 9))
        off = [a - s * b for a, b in zip(on, interior[0])]
        assert exact.dot(n, off) < 0
        out.append((off, False))
    return out


def test_facets_match_subset_oracle():
    cones = builtin_polyhedral()
    checked = [name for name in cones if name != "min-square-square"]
    assert {"square-cone", "pentagon-cone", "classical-bit-bit"} <= set(checked)
    for name in checked:
        data = cones[name]
        assert data.facets() == facets_by_subsets(PolyhedralData(data.rays)), name


def test_min_square_square_facets_pinned():
    facets = builtin_polyhedral()["min-square-square"].facets()
    assert len(facets) == 24
    text = json.dumps([[str(v) for v in f] for f in facets])
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == MIN_SQUARE_SQUARE_FACETS_SHA256


@st.composite
def pointed_cones(draw):
    """Rays of a random pointed, full-dimensional rational cone: the first
    coordinate is positive on every ray, and parallel duplicates and sums of
    two rays are mixed in, in random order."""
    d = draw(st.sampled_from([3, 4, 5]))
    coord = st.integers(min_value=-3, max_value=3)
    rays = draw(st.lists(
        st.lists(coord, min_size=d - 1, max_size=d - 1).map(
            lambda v: [1] + v),
        min_size=d, max_size=d + 3))
    index = st.integers(min_value=0, max_value=len(rays) - 1)
    for i, j, k in draw(st.lists(st.tuples(index, index,
                                           st.integers(2, 3)), max_size=3)):
        if i == j:
            rays.append([k * a for a in rays[i]])
        else:
            rays.append([a + b for a, b in zip(rays[i], rays[j])])
    order = draw(st.permutations(range(len(rays))))
    dens = draw(st.lists(st.integers(1, 4), min_size=len(rays),
                         max_size=len(rays)))
    rays = [[F(a, q) for a in rays[i]] for i, q in zip(order, dens)]
    assume(exact.rank(rays) == d)
    return rays


@given(rays=pointed_cones())
@settings(max_examples=60, deadline=None)
def test_double_description_matches_subset_oracle(rays):
    data = PolyhedralData(rays)
    facets = data.facets()
    assert facets == facets_by_subsets(PolyhedralData(rays))
    for n in facets:
        assert all(exact.dot(n, r) >= 0 for r in rays)


def _pivot_columns(vecs) -> list[int]:
    return exact.rref([list(col) for col in zip(*vecs)])[1]


# the largest denominators of `PolyhedralCone._to_exact` at tol >= 0.2,
# 1e-8, near 1e-9 and 0
ROUNDING_GRIDS = (10, 2 * 10**8, 2 * 10**9, 10**12)


def rounding_inputs():
    """Floats to round: zeros of both signs, integers, values on every
    grid (k/8 exactly, p/q for q <= 10 as the nearest float) and magnitudes
    from 1e-12 to 1e12 of either sign."""
    magnitude = st.floats(1e-12, 1e12)
    return st.one_of(
        st.sampled_from([0.0, -0.0]),
        st.integers(-10**6, 10**6).map(float),
        st.builds(lambda p, e: p / 2**e, st.integers(-10**6, 10**6),
                  st.integers(0, 3)),
        st.builds(lambda p, q: p / q, st.integers(-10**6, 10**6),
                  st.integers(1, 10)),
        magnitude, magnitude.map(lambda v: -v))


# 1/32 and -3 - 1/32 lie halfway between their two candidates at
# denominators up to 16 (0 and 1/16, -3 and -49/16)
TIES = [2.0**-5, -3 - 2.0**-5]


@given(values=st.lists(rounding_inputs(), min_size=1, max_size=6),
       max_den=st.sampled_from(ROUNDING_GRIDS),
       tol=st.sampled_from([1.0, 1e-8, 1e-9, 0.0]))
@example(values=TIES, max_den=16, tol=0.0)
@settings(max_examples=300, deadline=None)
def test_integer_rounding_matches_limit_denominator(values, max_den, tol):
    fractions = [F(v).limit_denominator(max_den) for v in values]
    assert exact.rounded_row(values, max_den) \
        == exact._integer_row(fractions)
    x = np.array(values)
    assert PolyhedralCone._to_exact(x, tol) \
        == exact._integer_row(to_exact_by_fractions(x, tol))


def test_rounding_tie_takes_the_convergent():
    # limit_denominator keeps the convergent (0, -3) on a tie, and the
    # row is scaled by the lcm 1 of those denominators
    assert [F(v).limit_denominator(16) for v in TIES] == [0, -3]
    assert exact.rounded_row(TIES, 16) == [0, -3]
    assert exact.rounded_row([2.0**-5, 5.5], 16) == [0, 11]


def test_rounding_refuses_non_finite_values():
    for bad, error in ((np.nan, ValueError), (np.inf, OverflowError),
                       (-np.inf, OverflowError)):
        for tol in (1e-9, 0.0):
            with pytest.raises(error):
                PolyhedralCone._to_exact(np.array([1.0, bad]), tol)
        with pytest.raises(error):
            F(bad)


def test_refused_facet_enumeration_is_remembered(monkeypatch):
    # min(min(square, square), square) passes the facet bound; the refusal
    # is kept, so a later facets, member or face query raises it again
    # without a double-description cut (each cut takes `_dot` products)
    square = System(PolyhedralCone(SQUARE), np.array([0.0, 1.0, 0.0]))
    mss = CompositeSystem(square, square, MIN_TENSOR)
    cone = CompositeSystem(mss, square, MIN_TENSOR).cone
    with pytest.raises(UnsupportedQuery) as first:
        cone.data.facets()
    assert str(first.value).startswith(
        f"facet enumeration passed {exact.FACET_WORK_BOUND} partial "
        "generators after ")
    products = []
    dot = exact._dot
    monkeypatch.setattr(exact, "_dot",
                        lambda a, b: products.append(1) or dot(a, b))
    x = np.array(cone.generators()[0])
    for query in (cone.data.facets, lambda: cone.data.member([0] * 27),
                  lambda: cone.member(x),
                  lambda: cones.face_dimension(cone, x)):
        with pytest.raises(UnsupportedQuery) as again:
            query()
        assert str(again.value) == str(first.value)
    assert not products


@st.composite
def cone_points(draw):
    """(cone, points): a random pointed cone and rational points inside it,
    on its faces and just off them, with weights of mixed denominators up to
    10^6, each point also rounded from floats by `limit_denominator`, as
    `PolyhedralCone._to_exact` rounds at slack 1e-12 (denominators up to
    2 * 10^12)."""
    rays = draw(pointed_cones())
    cone = PolyhedralCone(rays)
    data = cone.data
    weight = st.builds(F, st.integers(1, 10**6), st.integers(1, 10**6))

    def combination(vecs):
        ws = draw(st.lists(weight, min_size=len(vecs), max_size=len(vecs)))
        return [sum((w * v[i] for w, v in zip(ws, vecs)), F(0))
                for i in range(data.dim)]

    inside = combination(rays)
    points = [inside]
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.sampled_from(data.facets()))
        tight = [r for r in rays if exact.dot(n, r) == 0]
        some = draw(st.lists(st.sampled_from(tight), min_size=1,
                             max_size=len(tight)))
        on = combination(some)
        step = F(1, 10 ** draw(st.integers(1, 12)))
        points += [on, [a - step * b for a, b in zip(on, n)],
                   [a + step * b for a, b in zip(on, inside)]]
    points += draw(st.lists(st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=10**6),
        min_size=data.dim, max_size=data.dim), max_size=2))
    rounded = [to_exact_by_fractions([float(v) for v in p], 1e-12)
               for p in points]
    return cone, points + rounded


@given(case=cone_points(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_integer_queries_match_fraction_oracles(case, data):
    cone, points = case
    rays = cone.data.rays
    members = 0
    for x in points:
        inside = cone.data.member(x)
        assert inside is member_by_fractions(cone.data, x)
        members += inside
        if inside:
            assert face_span(cone.data, x) == face_span_by_fractions(
                cone.data, x)
        sign = [(v > 0) - (v < 0) for v in cone.data.pairings(x)]
        assert sign == [(v > 0) - (v < 0)
                        for v in (exact.dot(x, r) for r in rays)]
        e = np.array([float(v) for v in x])
        for tol in (1e-9, 1e-12):
            assert cone.dual_member(e, tol) \
                == dual_member_by_fractions(cone, e, tol)
    assert members
    for n in cone.data.facets():
        e = np.array([float(v) for v in n])
        assert cone.dual_member(e) == dual_member_by_fractions(cone, e, 1e-9)
    ray = np.array([float(v) for v in data.draw(st.sampled_from(rays))])
    other = np.array([float(v) for v in points[0]])
    for w in (ray, 2.5 * ray, -ray, other):
        try:
            expected = extremal_among_generators_by_fractions(cone, w, 1e-9)
        except UnsupportedQuery:
            with pytest.raises(UnsupportedQuery):
                _extremal_among_generators(cone, w, 1e-9)
            continue
        assert _extremal_among_generators(cone, w, 1e-9) is expected
    d = len(rays[0])
    v = axioms.check_self_dual(System(cone, np.eye(d)[0]))
    assert (v.status, v.violation, v.detail) \
        == self_dual_by_fractions(cone, np.eye(d))


def test_polyhedral_self_dual_fails_carry_fractions():
    # a wide pyramid pairs two opposite rays negatively; a narrow one pairs
    # every two rays positively, but its facet normals lie outside it
    for rays, key in (([[1, 2, 0], [1, -2, 0], [1, 0, 2], [1, 0, -2]], "pair"),
                      ([[2, 1, 0], [2, -1, 0], [2, 0, 1], [2, 0, -1]],
                       "facet_normal")):
        cone = PolyhedralCone(rays)
        v = axioms.check_self_dual(System(cone, np.array([1.0, 0, 0])))
        assert v.status == axioms.FAILS
        assert set(v.violation) == ({"pair", "inner_value"} if key == "pair"
                                    else {"facet_normal"})
        if key == "pair":
            ri, rj = v.violation["pair"]
            assert all(type(x) is F for x in ri + rj)
            assert type(v.violation["inner_value"]) is F
            assert v.violation["inner_value"] == exact.dot(ri, rj) < 0
        else:
            n = v.violation["facet_normal"]
            assert all(type(x) is F for x in n)
            assert not cone.data.member(n)
        assert (v.status, v.violation, v.detail) \
            == self_dual_by_fractions(cone, np.eye(3))


def test_rays_through_takes_positive_multiples_only():
    data = PolyhedralData(SQUARE + [[2, 2, 0]])
    assert data.rays_through([F(3), F(3), F(0)]) == [0, 4]
    assert data.rays_through([F(-1), F(-1), F(0)]) == []
    assert data.rays_through([F(1), F(1), F(1)]) == []
    assert data.rays_through([0, 0, 0]) == []


@given(rays=pointed_cones(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_one_elimination_matches_fraction_prefix(rays, data):
    assert exact.dual_basis(rays) == dual_basis_by_prefix(rays)
    d = len(rays[0])
    order = data.draw(st.permutations(range(len(rays))))
    picked = [rays[i] for i in order]
    assert _pivot_columns(picked) \
        == independent_prefix(picked, range(len(picked)), d)
    # the facet-order key: pivot columns of each facet's tight rays
    for n in PolyhedralData(rays).facets():
        tight = [i for i, r in enumerate(rays) if exact.dot(n, r) == 0]
        key = [tight[p] for p in _pivot_columns([rays[i] for i in tight])]
        assert key == independent_prefix(rays, tight, d - 1)


def test_dual_basis_rejects_deficient_rank():
    for route in (exact.dual_basis, dual_basis_by_prefix):
        try:
            route([[F(1), F(2)], [F(2), F(4)]])
        except ValueError:
            continue
        raise AssertionError(f"{route.__name__} accepted a rank-1 family")


@given(rays=pointed_cones())
@example(rays=[[1, 0], [-1, 0], [0, 1]])  # not pointed: one line, two signs
@settings(max_examples=60, deadline=None)
def test_extremal_rays_match_rank_oracle(rays):
    data = PolyhedralData(rays)
    assert data.extremal_ray_indices() == extremal_by_rank(data)


@st.composite
def direct_sum_cones(draw):
    """(rays, split): the rays of a pointed cone that is a direct sum of two
    blocks in complementary coordinates when `split`, or of one block, under
    a random unimodular change of basis, with scaled duplicates and sums of
    two rays mixed in, in random order, each scaled by a positive rational.
    Each block's rays have a positive first block coordinate."""
    split = draw(st.booleans())
    dims = ([draw(st.integers(1, 3)), draw(st.integers(1, 3))] if split
            else [draw(st.integers(2, 5))])
    d = sum(dims)
    coord = st.integers(min_value=-2, max_value=2)
    rays, offset = [], 0
    for k in dims:
        block = draw(st.lists(st.lists(coord, min_size=k - 1,
                                       max_size=k - 1).map(lambda v: [1] + v),
                              min_size=k, max_size=k + 2))
        rays += [[0] * offset + r + [0] * (d - offset - k) for r in block]
        offset += k
    # unimodular: a few row additions and sign flips of the identity
    u = [[int(i == j) for j in range(d)] for i in range(d)]
    for i, j, c in draw(st.lists(st.tuples(st.integers(0, d - 1),
                                           st.integers(0, d - 1),
                                           st.integers(-2, 2)), max_size=6)):
        if i != j:
            u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    for i in draw(st.lists(st.integers(0, d - 1), max_size=2)):
        u[i] = [-a for a in u[i]]
    rays = [[sum(a * b for a, b in zip(row, r)) for row in u] for r in rays]
    index = st.integers(min_value=0, max_value=len(rays) - 1)
    for i, j, k in draw(st.lists(st.tuples(index, index, st.integers(2, 3)),
                                 max_size=3)):
        rays.append([k * a for a in rays[i]] if i == j
                    else [a + b for a, b in zip(rays[i], rays[j])])
    order = draw(st.permutations(range(len(rays))))
    dens = draw(st.lists(st.integers(1, 4), min_size=len(rays),
                         max_size=len(rays)))
    rays = [[F(a, q) for a in rays[i]] for i, q in zip(order, dens)]
    assume(exact.rank(rays) == d)
    return rays, split


@given(cone=direct_sum_cones())
@settings(max_examples=80, deadline=None)
def test_reducible_matches_subset_oracle_on_direct_sums(cone):
    rays, split = cone
    got = PolyhedralCone(rays).reducible()
    assert got == reducible_by_subsets(PolyhedralCone(rays))
    if split:
        assert got


@given(rays=pointed_cones())
# the first six rays are the basis and each later ray touches three of
# them; the last reaches the first block only through the basis ray that
# the second merge must keep, so only whole-block merges leave one block
@example(rays=[[1, 0, 0, 0, 0, 0], [1, 1, 0, 0, 0, 0], [1, 0, 1, 0, 0, 0],
               [1, 0, 0, 1, 0, 0], [1, 0, 0, 0, 1, 0], [1, 0, 0, 0, 0, 1],
               [3, 0, 0, -2, 3, 2], [3, -1, 0, 1, 3, 0], [3, 0, 3, 0, 0, 2]])
@settings(max_examples=40, deadline=None)
def test_reducible_matches_subset_oracle(rays):
    assert PolyhedralCone(rays).reducible() \
        == reducible_by_subsets(PolyhedralCone(rays))


def test_direct_sum_cones_show_both_outcomes():
    quiet = settings(max_examples=500, database=None, derandomize=True,
                     phases=[Phase.generate])
    for outcome in (True, False):
        find(direct_sum_cones(),
             lambda c: PolyhedralCone(c[0]).reducible() is outcome,
             settings=quiet)


def test_reducible_fails_fast(monkeypatch):
    # 24 points on a parabola: every ray is extremal, and a scan of the
    # splits would try 2^23 of them
    cone = PolyhedralCone([[t, t * t, 1] for t in range(24)])
    calls = {"rref": 0, "rank": 0}
    rref, rank = exact.rref, exact.rank

    def counting_rref(mat):
        calls["rref"] += 1
        return rref(mat)

    def counting_rank(mat):
        calls["rank"] += 1
        return rank(mat)

    monkeypatch.setattr(exact, "rref", counting_rref)
    monkeypatch.setattr(exact, "rank", counting_rank)
    assert not cone.reducible()
    assert len(cone.data.extremal_ray_indices()) == 24
    assert calls["rref"] <= 2 and calls["rank"] == 0
