"""Cone models, faces, extremality, order isomorphisms, measurements."""

from fractions import Fraction as F
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conelab import composite, cones, eja, fixtures
from conelab.cones import (DEFAULT_TOL, FAILS, HOLDS, EJACone,
                           PolyhedralCone, SharedCornerCone,
                           System, UnsupportedQuery,
                           ConeError, face_dimension, first_non_extremal,
                           is_extremal_ray, is_order_isomorphism,
                           validate_measurement)
from conftest import make_eja_system
from eja_oracles import (first_non_extremal_by_point,
                         is_order_isomorphism_by_point,
                         validate_measurement_by_effect)
from helpers import probe_face_span, random_positive
from polyhedral_oracles import face_span, member_by_lp, to_exact_by_fractions
from test_axioms import ROT, WIDE_PYRAMID

SQUARE = [[1, 1, 0], [0, 1, 1], [-1, 1, 0], [0, 1, -1]]
# the wider registry's lattice hexagon
HEXAGON = [[x, y, 1] for x, y in [(4, 1), (2, 3), (-2, 3), (-4, 0),
                                  (-2, -3), (3, -3)]]


@pytest.fixture
def square():
    return PolyhedralCone(SQUARE)


@pytest.fixture
def shared():
    return SharedCornerCone()


def test_eja_generators_are_built_once_and_copied(monkeypatch):
    cone = EJACone(eja.JordanAlgebra([eja.SimpleFactor(eja.COMPLEX, 2),
                                      eja.SimpleFactor(eja.REAL, 2)]))
    draws = []
    random_pure = eja.SimpleFactor.random_pure
    monkeypatch.setattr(eja.SimpleFactor, "random_pure",
                        lambda f, rng: draws.append(f) or random_pure(f, rng))
    first = cone.generators()
    kept = [g.copy() for g in first]
    for g in first:
        g[:] = 99.0
    second = cone.generators()
    assert len(draws) == 2  # one seeded pure state per summand, once
    assert len(second) == len(kept) == 6
    for g, k in zip(second, kept):
        assert np.array_equal(g, k)


class TestMembership:
    def test_eja_qubit(self, qubit, rng):
        cone = qubit.cone
        assert cone.member(np.array([1.0, 1.0, 0.0, 0.0]))
        assert not cone.member(np.array([1.0, -0.1, 0.0, 0.0]))
        for _ in range(20):
            p = random_positive(cone.algebra, rng)
            assert cone.member(p)
            assert cone.dual_member(p)

    def test_polyhedral(self, square):
        assert square.member(np.array([0.0, 1.0, 0.0]))
        assert not square.member(np.array([2.0, 1.0, 0.0]))
        # dual membership means nonnegative on all generators
        assert square.dual_member(np.array([0.0, 1.0, 0.0]))
        assert not square.dual_member(np.array([1.0, 0.5, 0.0]))

    def test_shared_corner_dual_matches_extremal_pairings(self, shared, rng):
        # dual membership is nonnegativity against every extremal: the two
        # isolated ones, a fine grid of (1, s^2, t^2, s, t) and samples;
        # each e sits 0.2 inside or outside the dual boundary, or has a
        # negative e2
        s, t = (g.ravel() for g in np.meshgrid(*2 * [np.linspace(-6, 6, 241)]))
        grid = np.column_stack([np.ones_like(s), s * s, t * t, s, t])
        extremals = np.vstack([np.eye(5)[1:3], grid,
                               [shared.sample_extremal(rng)
                                for _ in range(200)]])
        points = []
        for _ in range(60):
            e2, e3 = rng.uniform(0.2, 2.0, 2)
            e4, e5 = rng.uniform(-2.0, 2.0, 2)
            e1 = e4 * e4 / (4 * e2) + e5 * e5 / (4 * e3) + rng.choice([-0.2, 0.2])
            if rng.random() < 0.2:
                e2 = -e2
            points.append([e1, e2, e3, e4, e5])
        # degenerate quadratics: e2 < 0 alone, e2 = 0 with e4 != 0, e2 = 0
        points += [[1, -0.5, 1, 0, 0], [1, 0, 1, 0.5, 0], [1, 0, 1, 0, 0]]
        verdicts = []
        for e in np.array(points, dtype=float):
            inside = bool(np.min(extremals @ e) >= 0)
            assert shared.dual_member(e) == inside
            verdicts.append(inside)
        assert verdicts[-3:] == [False, False, True]
        assert 10 < sum(verdicts) < 50

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
                expect = (member_by_lp(data, to_exact_by_fractions(x, tol))
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

    def test_float_weighted_edge_point_is_not_extremal(self, square, rng):
        # a g0 + b g1 with float weights lies on one facet only
        g0, g1 = np.array(SQUARE[:2], dtype=float)
        for a, b in rng.uniform(0.01, 10, size=(200, 2)):
            x = a * g0 + b * g1
            assert face_dimension(square, x) == 2
            assert not is_extremal_ray(square, x)
            assert len(square.face_span_basis(x, DEFAULT_TOL)) == 2

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_ray_is_extremal_at_every_scale(self, square, rng, scale):
        # the tight bound scales with |x|: a ray point 1e-11 |x| inside both
        # of its facets, and one with 1e-13 |x| noise, read as the ray
        inward = np.sum(SQUARE, axis=0) / 4
        for g in np.array(SQUARE, dtype=float):
            x = scale * g
            noisy = x + 1e-13 * np.linalg.norm(x) * rng.standard_normal(3)
            for y in (x, noisy, scale * (g + 1e-11 * inward)):
                assert face_dimension(square, y) == 1
                assert is_extremal_ray(square, y)

    def test_polyhedral_non_member_raises(self, square):
        for x in ([0.0, 1.0, 2.0], [1.0, 1.0, -1e-6], [1e3, 1e3, -1e-6]):
            with pytest.raises(ConeError):
                face_dimension(square, np.array(x))
            with pytest.raises(ConeError):
                square.face_span_basis(np.array(x), DEFAULT_TOL)

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

    def test_cone_without_a_face_rule_is_unsupported(self):
        class Bare(cones.ConeModel):
            dim = 2

            def member(self, x, tol=DEFAULT_TOL):
                return True

        with pytest.raises(UnsupportedQuery, match="no face rule for Bare"):
            face_dimension(Bare(), np.array([1.0, 0.0]))


@cache
def _polyhedral(name: str) -> PolyhedralCone:
    if name == "square":
        return PolyhedralCone(SQUARE)
    if name == "lattice-hexagon":
        return PolyhedralCone(HEXAGON)
    registry = {s.name: s for s in fixtures.builtin_fixtures()}
    return fixtures.build_system(registry[name], registry).cone


@given(name=st.sampled_from(["square", "pentagon-cone", "lattice-hexagon",
                             "classical-bit-bit", "min-square-square"]),
       data=st.data())
@settings(max_examples=80, deadline=None)
def test_face_dimension_matches_exact_face_span(name, data):
    # a rational point on the face of 1-4 extremal rays, and one pushed a
    # tenth of its facet normal outside, passed as floats: exactly, scaled
    # by 10^-3 and 10^3, and with 1e-13 |x| noise
    cone = _polyhedral(name)
    rays = [cone.data.rays[i] for i in cone.data.extremal_ray_indices()]
    picks = data.draw(st.lists(st.integers(0, len(rays) - 1), min_size=1,
                               max_size=4, unique=True))
    weights = data.draw(st.lists(st.builds(F, st.integers(1, 100),
                                           st.integers(1, 100)),
                                 min_size=len(picks), max_size=len(picks)))
    x = [sum((w * rays[i][c] for w, i in zip(weights, picks)), F(0))
         for c in range(cone.dim)]
    n = data.draw(st.sampled_from(cone.data.facets()))
    step = sum(a * b for a, b in zip(n, x)) / sum(a * a for a in n) + F(1, 10)
    outside = [a - step * b for a, b in zip(x, n)]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    for point, expect in ((x, len(face_span(cone.data, x))), (outside, None)):
        xf = np.array([float(v) for v in point])
        noise = 1e-13 * np.linalg.norm(xf) * rng.standard_normal(cone.dim)
        for y in (xf, 1e-3 * xf, 1e3 * xf, xf + noise):
            if expect is None:
                with pytest.raises(ConeError):
                    face_dimension(cone, y)
                continue
            assert face_dimension(cone, y) == expect
            assert len(cone.face_span_basis(y, DEFAULT_TOL)) == expect
            assert is_extremal_ray(cone, y) == (expect == 1)


def _rebit_max_tensor(rng):
    rebit = make_eja_system(eja.real_sym(2), "rebit")
    comp = composite.CompositeSystem(rebit, rebit, composite.MAX_TENSOR)
    w = comp.product_state(comp.factorA.sample_pure(rng),
                           comp.factorB.sample_pure(rng))
    return comp.cone, w


def _pure_qubit(rng):
    cone = EJACone(eja.complex_herm(2))
    return cone, cone.sample_extremal(rng)


@cache
def _builtin(name: str) -> System:
    registry = {s.name: s for s in fixtures.builtin_fixtures()}
    return fixtures.build_system(registry[name], registry)


@cache
def _composite(model: str, a: str, b: str) -> composite.CompositeSystem:
    return composite.CompositeSystem(_builtin(a), _builtin(b), model)


def _hilbert_qubit_product(rng):
    comp = _composite(composite.HILBERT, "qubit", "qubit")
    return comp.cone, comp.cone.sample_extremal(rng)


# Extremal points of cones whose face span is not polyhedral: (cone, x)
# from a seeded rng.
EXTREMAL_POINTS = {
    "eja-pure-qubit": _pure_qubit,
    "shared-corner-block-ray": lambda rng: (
        SharedCornerCone(), np.array([0.0, 1.0, 0.0, 0.0, 0.0])),
    "shared-corner-extremal": lambda rng: (
        SharedCornerCone(), np.array([1.0, 0.25, 4.0, 0.5, -2.0])),
    "max-tensor-rebit-product": _rebit_max_tensor,
}


class TestFaceProbe:
    @pytest.mark.parametrize("case", sorted(EXTREMAL_POINTS))
    def test_out_of_face_direction_fails(self, case, rng):
        cone, x = EXTREMAL_POINTS[case](rng)
        basis = cone.face_span_basis(x, DEFAULT_TOL)
        assert len(basis) == 1
        assert probe_face_span(cone, x, basis) == (True, True)
        assert face_dimension(cone, x) == 1

    def test_one_member_call_per_face_dimension(self, rng, monkeypatch):
        # the member precondition is the only membership call: no face
        # rule probes the cone
        points = [EXTREMAL_POINTS[c](rng) for c in sorted(EXTREMAL_POINTS)]
        points.append(_hilbert_qubit_product(rng))
        for cone, x in points:
            calls = []
            member = type(cone).member
            with monkeypatch.context() as patch:
                patch.setattr(type(cone), "member",
                              lambda self, y, tol=DEFAULT_TOL:
                              calls.append(tol) or member(self, y, tol))
                assert face_dimension(cone, x) == 1
            assert len(calls) == 1, type(cone).__name__


def _weighted_sum(states: np.ndarray, rng) -> np.ndarray:
    """A sum of the rows with weights in [0.5, 2)."""
    return rng.uniform(0.5, 2.0, len(states)) @ states


def _frame_point(alg: eja.JordanAlgebra, k: int, rng) -> np.ndarray:
    """A weighted sum of k orthogonal pure states, from the spectral frame
    of a random element: its nonzero eigenvalues are the weights, far above
    the probe's step, which cannot resolve an eigenvalue near it."""
    frame = np.array(alg.spectral(rng.standard_normal(alg.dim)).idempotents)
    return _weighted_sum(frame[rng.choice(len(frame), k, replace=False)], rng)


def _eja_point(alg: eja.JordanAlgebra):
    """A sum of 1 + pick % rank pure states."""
    cone = EJACone(alg)
    return lambda pick, rng: (cone, _frame_point(alg, 1 + pick % alg.rank,
                                                 rng))


# (corner > 0, rank of block 1, rank of block 2): every pattern of a member
SHARED_CORNER_PATTERNS = ((False, 0, 0), (False, 0, 1), (False, 1, 0),
                          (False, 1, 1), (True, 1, 1), (True, 1, 2),
                          (True, 2, 1), (True, 2, 2))


def _shared_corner_point(pick, rng):
    # a rank-one block is [[c, s], [s, s^2 / c]], or [[0, 0], [0, t]] at a
    # zero corner c; a rank-two block adds t > 0 at the bottom right
    corner, *ranks = SHARED_CORNER_PATTERNS[pick % len(SHARED_CORNER_PATTERNS)]
    c = rng.uniform(0.5, 2.0) if corner else 0.0
    blocks = []
    for r in ranks:
        s = rng.standard_normal() if corner else 0.0
        full = r == 2 or (r == 1 and not corner)
        t = rng.uniform(0.5, 2.0) if full else 0.0
        bottom = (s * s / c if corner else 0.0) + t
        blocks.append(np.array([[c, s], [s, bottom]]))
    return SharedCornerCone(), SharedCornerCone.from_blocks(*blocks)


def _product_point(model: str, a: str, b: str):
    """A product of two factor states, each a sum of 1 to 3 pure states on
    a polyhedral factor, or of 1 to the rank on a symmetric one, as the
    digits of pick in those bases say."""
    def point(pick, rng):
        comp = _composite(model, a, b)
        states = []
        for factor in (comp.factorA, comp.factorB):
            if isinstance(factor.cone, EJACone):
                alg = factor.cone.algebra
                pick, k = divmod(pick, alg.rank)
                states.append(_frame_point(alg, 1 + k, rng))
                continue
            pick, k = divmod(pick, 3)
            pures = [factor.sample_pure(rng) for _ in range(1 + k)]
            states.append(_weighted_sum(np.array(pures), rng))
        return comp.cone, comp.product_state(*states)
    return point


FACE_POINTS = {
    **{f"{name}-{r}": _eja_point(make(r)) for r in (1, 2, 3)
       for name, make in (("real", eja.real_sym),
                          ("complex", eja.complex_herm),
                          ("quat", eja.quat_herm))},
    **{f"spin-{n}": _eja_point(eja.spin_factor(n)) for n in (3, 4, 5, 6)},
    "real-2+spin-4": _eja_point(eja.JordanAlgebra(
        eja.real_sym(2).factors + eja.spin_factor(4).factors)),
    "shared-corner": _shared_corner_point,
    "hilbert-qubit-qubit": _product_point(composite.HILBERT, "qubit",
                                          "qubit"),
    "max-rebit-rebit": _product_point(composite.MAX_TENSOR, "real-sym-2",
                                      "real-sym-2"),
    "max-square-qubit": _product_point(composite.MAX_TENSOR, "square-cone",
                                       "qubit"),
}


@given(case=st.sampled_from(sorted(FACE_POINTS)),
       pick=st.integers(0, 2**16), seed=st.integers(0, 2**32 - 1))
@example(case="complex-2", pick=0, seed=0)
@example(case="shared-corner", pick=4, seed=0)
@example(case="max-rebit-rebit", pick=0, seed=0)
@settings(max_examples=150, deadline=None)
def test_face_span_basis_passes_the_probe_oracle(case, pick, seed):
    # each kind's exact face span against the float probe: an independent
    # basis whose every direction the probe accepts, and, below the whole
    # space, some direction of its complement the probe rejects; the
    # examples are a pure qubit, both blocks of rank one and a pure product
    cone, x = FACE_POINTS[case](pick, np.random.default_rng(seed))
    basis = cone.face_span_basis(x, DEFAULT_TOL)
    if basis:
        assert np.linalg.matrix_rank(np.array(basis), tol=1e-8) == len(basis)
    assert probe_face_span(cone, x, basis) == (True, True)
    assert face_dimension(cone, x) == len(basis)


def _hilbert_point(pick, rng):
    """A pure product, the canonical entangled state, or a sum of 2 to 4
    orthogonal pure states of the global algebra, as pick % 5 says."""
    comp = _composite(composite.HILBERT, "qubit", "qubit")
    cone, kind = comp.cone, pick % 5
    if kind == 0:
        return cone, comp.product_state(comp.factorA.sample_pure(rng),
                                        comp.factorB.sample_pure(rng))
    if kind == 1:
        return cone, rng.uniform(0.5, 2.0) \
            * composite.canonical_self_steering_state(comp)
    return cone, cone.rot.T @ _frame_point(cone.inner.algebra, kind, rng)


@cache
def _rotated_pyramid() -> composite.LinearImageCone:
    return composite.LinearImageCone(PolyhedralCone(WIDE_PYRAMID), ROT)


def _rotated_pyramid_point(pick, rng):
    """A weighted sum of 1 to 3 of the rotated wide pyramid's rays."""
    rays = np.array(WIDE_PYRAMID, dtype=float) @ ROT
    picks = rng.choice(len(rays), 1 + pick % 3, replace=False)
    return _rotated_pyramid(), _weighted_sum(rays[picks], rng)


EXTREMALITY_POINTS = {
    **{case: FACE_POINTS[case] for case in FACE_POINTS
       if case.startswith(("real-", "complex-", "quat-", "spin-"))},
    "hilbert-qubit-qubit": _hilbert_point,
    "rotated-wide-pyramid": _rotated_pyramid_point,
}


@given(case=st.sampled_from(sorted(EXTREMALITY_POINTS)),
       picks=st.lists(st.integers(0, 2**16), min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1))
@example(case="hilbert-qubit-qubit", picks=[0, 1, 2], seed=0)
@example(case="rotated-wide-pyramid", picks=[0, 1], seed=0)
@settings(max_examples=150, deadline=None)
def test_extremal_rows_match_face_dimension(case, picks, seed):
    # the old route is the oracle: each member row is extremal exactly when
    # its face dimension is 1, and the first row that is not is the one
    # `first_non_extremal` names; a non-member, here -x, raises ConeError
    # on both routes, except that an EJA cone's eigenvalue count reads it
    # as not extremal
    rng = np.random.default_rng(seed)
    points = [EXTREMALITY_POINTS[case](pick, rng) for pick in picks]
    cone = points[0][0]
    xs = np.array([x for _, x in points])
    expect = [face_dimension(cone, x) == 1 for x in xs]
    assert cone.extremal_rows(xs, DEFAULT_TOL).tolist() == expect
    assert first_non_extremal(cone, xs) \
        == next((k for k, e in enumerate(expect) if not e), None)
    outside = np.concatenate([xs, -xs[:1]])
    with pytest.raises(ConeError):
        face_dimension(cone, outside[-1])
    if isinstance(cone, EJACone):
        assert cone.extremal_rows(outside, DEFAULT_TOL).tolist() \
            == expect + [False]
        return
    with pytest.raises(ConeError):
        cone.extremal_rows(outside, DEFAULT_TOL)


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


    @pytest.mark.parametrize("alg", [
        eja.complex_herm(2), eja.quat_herm(3), eja.spin_factor(5),
        eja.classical(3),
        eja.JordanAlgebra(eja.real_sym(2).factors + eja.spin_factor(4).factors)],
        ids=["complex-2", "quat-3", "spin-5", "classical-3", "real-2+spin-4"])
    def test_stack_names_the_first_non_extremal_row(self, alg, rng):
        cone = EJACone(alg)
        for _ in range(20):
            rows = [alg.random_pure(rng) if rng.random() < 0.7
                    else alg.random_pure(rng) + alg.random_pure(rng)
                    for _ in range(6)]
            xs = np.array(rows)
            assert first_non_extremal(cone, xs) \
                == first_non_extremal_by_point(alg, xs, DEFAULT_TOL)
            flags = [is_extremal_ray(cone, x) for x in xs]
            assert first_non_extremal(cone, xs) \
                == next((k for k, f in enumerate(flags) if not f), None)

    @pytest.mark.parametrize("cone,pure,mixed", [
        (EJACone(eja.complex_herm(2)), [1.0, 0, 0, 0], [1.0, 1, 0, 0]),
        (PolyhedralCone(SQUARE), SQUARE[0], [0.0, 1, 0])],
        ids=["qubit", "square"])
    def test_null_or_non_finite_row_raises_wherever_it_sits(
            self, cone, pure, mixed, monkeypatch):
        # a null or NaN row raises ConeError before any row is tested,
        # also behind a row that is not extremal
        tested = []
        eigenvalues = eja.JordanAlgebra.eigenvalues
        face = cones.face_dimension
        monkeypatch.setattr(eja.JordanAlgebra, "eigenvalues",
                            lambda self, xs: tested.append(1)
                            or eigenvalues(self, xs))
        monkeypatch.setattr(cones, "face_dimension",
                            lambda *args, **kw: tested.append(1)
                            or face(*args, **kw))
        assert first_non_extremal(cone, np.array([pure, mixed, pure])) == 1
        tested.clear()
        for bad in (np.zeros(cone.dim), np.full(cone.dim, np.nan)):
            for rows in ([bad, mixed], [pure, mixed, bad], [pure, bad]):
                with pytest.raises(ConeError, match="null ray and non-fin"):
                    first_non_extremal(cone, np.array(rows, dtype=float))
        assert tested == []

    def test_non_member_raises_behind_a_non_extremal_row(self, square, rng):
        # every row of a stack is tested, so a non-member raises ConeError
        # also behind a row that is not extremal
        comp = _composite(composite.HILBERT, "qubit", "qubit")
        pure, other = (comp.cone.sample_extremal(rng) for _ in range(2))
        for cone, rows in ((square, ([1.0, 1, 0], [0.0, 1, 0], [0.0, 1, 2])),
                           (comp.cone, (pure, pure + other, -pure))):
            xs = np.array(rows, dtype=float)
            assert first_non_extremal(cone, xs[:2]) == 1
            with pytest.raises(ConeError, match="not a member"):
                first_non_extremal(cone, xs)
            with pytest.raises(ConeError, match="not a member"):
                is_extremal_ray(cone, xs[2])

    def test_other_cones_test_row_by_row(self, square):
        rows = np.array([[1.0, 1, 0], [0, 1, 1], [1, 2, 1], [0, 1, 1],
                         [2, 3, 1]])
        assert first_non_extremal(square, rows) == 2
        assert first_non_extremal(square, rows[:2]) is None

    @pytest.mark.parametrize("kind", ["eja", "polyhedral", "shared-corner",
                                      "hilbert", "max-tensor"])
    def test_null_or_non_finite_ray_raises_one_error(self, kind):
        # one ConeError on every cone kind, for a single x as for a stack,
        # before the kind's own rule raises something of its own
        cone = {
            "eja": lambda: EJACone(eja.complex_herm(2)),
            "polyhedral": lambda: PolyhedralCone(SQUARE),
            "shared-corner": SharedCornerCone,
            "hilbert": lambda: _composite(composite.HILBERT, "qubit",
                                          "qubit").cone,
            "max-tensor": lambda: _composite(composite.MAX_TENSOR,
                                             "real-sym-2", "real-sym-2").cone,
        }[kind]()
        bad = [np.zeros(cone.dim)]
        for v in (np.nan, np.inf, -np.inf):
            one = np.ones(cone.dim)
            one[1] = v
            bad += [np.full(cone.dim, v), one]
        for x in bad:
            with pytest.raises(ConeError, match="null ray and non-finite"):
                is_extremal_ray(cone, x)
            with pytest.raises(ConeError, match="null ray and non-finite"):
                first_non_extremal(cone, x[None])

    def test_a_finite_x_whose_norm_overflows_is_tested(self):
        cone = EJACone(eja.classical(3))
        x = np.array([1e200, 0.0, 0.0])
        with np.errstate(over="ignore"):
            assert is_extremal_ray(cone, x)
            assert first_non_extremal(cone, x[None]) is None


class TestSharedCornerTransport:
    def test_transport_round_trip(self, shared, rng):
        for x in shared.sample_interiors(rng, 20):
            assert shared.margin(x) > 0
            back = shared.transport_to_basepoint(x) @ x
            assert np.max(np.abs(back - shared.basepoint())) < 1e-10
            there = shared.transport_from_basepoint(x) @ shared.basepoint()
            assert np.max(np.abs(there - x)) < 1e-10


class TestOrderIso:
    def test_transpose_on_qubit(self, qubit):
        # transpose flips the sign of the imaginary coordinate
        t = np.diag([1.0, 1.0, 1.0, -1.0])
        assert is_order_isomorphism(t, qubit.cone, qubit.cone).status \
            == HOLDS

    def test_classical_shear_rejected(self):
        sys2 = make_eja_system(eja.classical(2), "bits")
        shear = np.array([[1.0, 0.0], [1.0, 1.0]])
        verdict = is_order_isomorphism(shear, sys2.cone, sys2.cone)
        assert verdict.status == FAILS
        assert verdict.violation["direction"] == "inverse"
        assert np.allclose(verdict.violation["point"], [1.0, 0.0])

    def test_stacked_membership_names_the_first_failing_point(self, qubit):
        # the 0.7-depolarizing map x -> 0.7 x + 0.3 tr(x) unit / 2 keeps the
        # cone, and its inverse sends every pure state outside: many points
        # fail, and the verdict names the one the point loop meets first
        alg = qubit.cone.algebra
        m = 0.7 * np.eye(4) + 0.15 * np.outer(alg.unit(),
                                              alg.trace_functional())
        verdict = is_order_isomorphism(m, qubit.cone, qubit.cone)
        ref = is_order_isomorphism_by_point(m, qubit.cone, qubit.cone,
                                            DEFAULT_TOL)
        assert verdict.status == ref.status == FAILS
        assert verdict.violation["direction"] == "inverse"
        assert ref.violation["direction"] == "inverse"
        assert np.array_equal(verdict.violation["point"],
                              ref.violation["point"])

    def test_point_loop_route_for_other_cones(self, square):
        # polyhedral targets keep one `member` call per point
        assert is_order_isomorphism(np.eye(3), square, square).status == HOLDS
        shear = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        verdict = is_order_isomorphism(shear, square, square)
        ref = is_order_isomorphism_by_point(shear, square, square,
                                            DEFAULT_TOL)
        assert verdict.status == ref.status == FAILS
        assert verdict.violation["direction"] == ref.violation["direction"]
        assert np.array_equal(verdict.violation["point"],
                              ref.violation["point"])


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

    def test_stack_matches_effect_loop(self, qubit, rng):
        # three-outcome measurements t_i * unit moved by perturbations that
        # sum to zero, or by ones that do not: one stacked call answers each
        # as the loop over its effects does, on EJA and polyhedral cones
        bit = make_eja_system(eja.classical(2), "bit")
        square = System(PolyhedralCone([[1, 1, 0], [0, 1, 1], [-1, 1, 0],
                                        [0, 1, -1]]), np.array([0.0, 1, 0]))
        for system in (qubit, bit, square):
            stack = []
            for scale in (0.0, 1e-3, 0.2):
                for closed in (True, False):
                    t = rng.dirichlet(np.ones(3))
                    d = scale * rng.standard_normal((3, system.dim))
                    if closed:
                        d[2] = -d[0] - d[1]
                    stack.append(t[:, None] * system.unit + d)
            stack = np.array(stack)
            ref = [validate_measurement_by_effect(system, list(m))
                   for m in stack]
            assert validate_measurement(system, stack).tolist() == ref
            assert [validate_measurement(system, m) for m in stack] == ref
            assert True in ref and False in ref


def test_normalize_stack_equals_row_loop(rng):
    # each row of a stack has the bits of the row divided by the float of
    # its own `unit @ x`
    specs = fixtures.builtin_fixtures()
    for spec in specs:
        if spec.kind not in ("eja", "shared-corner"):
            continue
        system = fixtures.build_system(spec, {})
        xs = system.cone.sample_extremals(rng, 7) * (0.5 + rng.random((7, 1)))
        ref = np.array([x / float(system.unit @ x) for x in xs])
        assert system.normalize(xs).tobytes() == ref.tobytes(), spec.name
        assert system.normalize(xs[0]).tobytes() == ref[0].tobytes()


def test_polyhedral_reducibility(square):
    assert not square.reducible()
    orthant = PolyhedralCone([[1, 0], [0, 1]])
    assert orthant.reducible()


def test_eja_reducible_iff_more_than_one_summand():
    assert not EJACone(eja.complex_herm(2)).reducible()
    assert EJACone(eja.classical(2)).reducible()
    assert EJACone(eja.JordanAlgebra([eja.complex_herm(2).factors[0],
                                      eja.real_sym(2).factors[0]])).reducible()


# each kind method, asked of any cone, and the text of its refusal
KIND_QUESTIONS = {
    "sample_interiors": (lambda c: c.sample_interiors(
        np.random.default_rng(0), 2), "no interior sampler for this cone"),
    "homogeneity_maps": (lambda c: c.homogeneity_maps(
        np.ones((1, c.dim)), np.ones((1, c.dim)), DEFAULT_TOL),
        "no witness constructor for this cone variant"),
    "reducible": (lambda c: c.reducible(), "no splitting test for this cone"),
}


def test_kind_methods_refuse_with_one_text(square, shared, qubit):
    rebit = make_eja_system(eja.real_sym(2), "rebit")
    image = composite.CompositeSystem(qubit, qubit, composite.HILBERT).cone
    tensor = composite.CompositeSystem(rebit, rebit,
                                       composite.MAX_TENSOR).cone
    assert isinstance(image, composite.LinearImageCone)
    assert isinstance(tensor, composite.MaxTensorCone)
    refusals = [(square, ("sample_interiors", "homogeneity_maps")),
                (shared, ("reducible",)),
                (image, tuple(KIND_QUESTIONS)), (tensor, tuple(KIND_QUESTIONS))]
    for cone, names in refusals:
        for name in names:
            ask, text = KIND_QUESTIONS[name]
            with pytest.raises(UnsupportedQuery) as info:
                ask(cone)
            assert str(info.value) == text, (type(cone).__name__, name)


def test_shared_corner_interiors_are_basepoint_congruences(shared):
    # the sampler draws, pair by pair, a shared corner and two lower rows
    rng = np.random.default_rng(202)
    ref = []
    for _ in range(2):
        corner = 0.2 + rng.random()
        l1 = np.array([[corner, 0.0],
                       [rng.standard_normal(), 0.2 + rng.random()]])
        l2 = np.array([[corner, 0.0],
                       [rng.standard_normal(), 0.2 + rng.random()]])
        ref.append(shared._congruence(l1, l2) @ shared.basepoint())
    got = shared.sample_interiors(np.random.default_rng(202), 2)
    assert got.tobytes() == np.array(ref).tobytes()
