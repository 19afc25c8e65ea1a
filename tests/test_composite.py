"""Bipartite composites: products, marginals, conditioning, steering,
purity preservation."""

import itertools
import re
from fractions import Fraction as F
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conelab import composite as cp
from conelab import axioms, eja, exact, fixtures
from conelab.axioms import FAILS, HOLDS
from conelab.cones import (DEFAULT_TOL, ConeError, EJACone, PolyhedralCone,
                          System, UnsupportedQuery, face_dimension,
                          is_extremal_ray, validate_measurement)
from conftest import make_eja_system
from eja_oracles import (hilbert_pairings_by_pairs, hilbert_rotation_by_pairs,
                         pairing_minimum_by_starts,
                         pure_effect_minimizing_by_point,
                         random_ensemble_by_halving, steer_by_ensemble,
                         steering_check_by_ensemble)
from helpers import (assert_same_verdict, probe_face_span, product_effect,
                     same_bits, sample_state)
from polyhedral_oracles import (extremal_by_lp, max_tensor_pairing_signs,
                                steer_by_lp)
from test_cli import wider_registry

SQUARE = [[1, 1, 0], [0, 1, 1], [-1, 1, 0], [0, 1, -1]]
# the normalized pure states of the square, and its maximally mixed state
V1, V2, V3, V4 = (np.array(r, dtype=float) for r in SQUARE)
CENTER = np.array([0.0, 1.0, 0.0])


@pytest.fixture
def two_qubit(qubit):
    return cp.CompositeSystem(qubit, qubit, cp.HILBERT)


@pytest.fixture
def bit_bit():
    bit = make_eja_system(eja.classical(2), "bit")
    return cp.CompositeSystem(bit, bit, cp.CLASSICAL)


@pytest.fixture
def min_square():
    sq = System(PolyhedralCone(SQUARE), np.array([0.0, 1.0, 0.0]), "square")
    return cp.CompositeSystem(sq, sq, cp.MIN_TENSOR)


@pytest.fixture
def max_rebit():
    rs = make_eja_system(eja.real_sym(2), "rebit")
    return cp.CompositeSystem(rs, rs, cp.MAX_TENSOR)


class TestProducts:
    def test_pairing_law(self, two_qubit, rng):
        for _ in range(50):
            wa, wb = rng.standard_normal(4), rng.standard_normal(4)
            ea, eb = rng.standard_normal(4), rng.standard_normal(4)
            lhs = product_effect(two_qubit, ea, eb) @ \
                two_qubit.product_state(wa, wb)
            assert abs(lhs - (ea @ wa) * (eb @ wb)) < 1e-12

    def test_unit_is_product(self, two_qubit):
        assert np.allclose(two_qubit.unit,
                           product_effect(two_qubit, two_qubit.factorA.unit,
                                          two_qubit.factorB.unit))

    def test_basis_vector(self, bit_bit):
        w = bit_bit.product_state(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert np.allclose(w, [0.0, 1.0, 0.0, 0.0])

    def test_dimension_mismatch(self, two_qubit):
        with pytest.raises(ConeError):
            two_qubit.product_state(np.zeros(3), np.zeros(4))

    def test_frame_tensoring(self, two_qubit):
        alg = two_qubit.factorA.cone.algebra
        states, effects = alg.canonical_frame()
        for i, wi in enumerate(states):
            for j, wj in enumerate(states):
                w = two_qubit.product_state(wi, wj)
                for k, ek in enumerate(effects):
                    for l, el in enumerate(effects):
                        e = product_effect(two_qubit, ek, el)
                        expect = 1.0 if (i == k and j == l) else 0.0
                        assert abs(float(e @ w) - expect) < 1e-12
        total = sum(product_effect(two_qubit, ek, el)
                    for ek in effects for el in effects)
        assert np.max(np.abs(total - two_qubit.unit)) < 1e-12


class TestMarginals:
    def test_product_state_marginals(self, two_qubit, rng):
        wa = two_qubit.factorA.sample_pure(rng)
        wb = two_qubit.factorB.sample_pure(rng)
        w = two_qubit.product_state(wa, wb)
        assert np.max(np.abs(cp.marginal_of(two_qubit, w, "A") - wa)) < 1e-12
        assert np.max(np.abs(cp.marginal_of(two_qubit, w, "B") - wb)) < 1e-12

    def test_entangled_marginal(self, two_qubit):
        ment = cp.canonical_self_steering_state(two_qubit)
        half_id = np.array([0.5, 0.5, 0.0, 0.0])
        for side in "AB":
            assert np.max(np.abs(cp.marginal_of(two_qubit, ment, side)
                                 - half_id)) < 1e-12

    def test_conditioning_identity_exact(self, two_qubit, rng):
        for _ in range(100):
            w = sample_state(two_qubit, rng)
            cmap = cp.conditioning_map(two_qubit, w)
            assert np.array_equal(cmap @ two_qubit.factorA.unit,
                                  cp.marginal_of(two_qubit, w, "B"))

    def test_conditioning_positivity(self, two_qubit, rng):
        w = cp.canonical_self_steering_state(two_qubit)
        cmap = cp.conditioning_map(two_qubit, w)
        for _ in range(20):
            e = two_qubit.factorA.sample_pure(rng)  # pure effects = pure states
            assert two_qubit.factorB.cone.member(cmap @ e, 1e-9)

    def test_maximally_entangled_is_scaled_transpose(self, two_qubit):
        ment = cp.canonical_self_steering_state(two_qubit)
        cmap = cp.conditioning_map(two_qubit, ment)
        # the transpose flips the imaginary coordinate in this basis
        assert np.allclose(cmap, np.diag([0.5, 0.5, 0.5, -0.5]))

    def test_classical_correlated_is_scaled_identity(self, bit_bit):
        w = cp.canonical_self_steering_state(bit_bit)
        cmap = cp.conditioning_map(bit_bit, w)
        assert np.allclose(cmap, 0.5 * np.eye(2))

    def test_product_conditioning_rank_one(self, two_qubit, rng):
        wa = two_qubit.factorA.sample_pure(rng)
        wb = two_qubit.factorB.sample_pure(rng)
        cmap = cp.conditioning_map(two_qubit,
                                   two_qubit.product_state(wa, wb))
        assert np.linalg.matrix_rank(cmap, tol=1e-10) == 1


class TestSteering:
    def test_classical_correlated_bit(self, bit_bit):
        w = cp.canonical_self_steering_state(bit_bit)
        ens = [np.array([0.5, 0.0]), np.array([0.0, 0.5])]
        effects = cp.steer(bit_bit, w, ens)
        assert not isinstance(effects, str)
        assert np.allclose(effects[0], [1.0, 0.0])
        assert np.allclose(effects[1], [0.0, 1.0])

    def test_maximally_entangled_random_ensembles(self, two_qubit, rng):
        w = cp.canonical_self_steering_state(two_qubit)
        cmap = cp.conditioning_map(two_qubit, w)
        wb = cp.marginal_of(two_qubit, w, "B")
        for _ in range(10):
            ens = cp.random_ensemble(two_qubit.factorB, wb, 3, rng)
            effects = cp.steer(two_qubit, w, ens)
            assert not isinstance(effects, str)
            from conelab.cones import validate_measurement
            assert validate_measurement(two_qubit.factorA, effects, 1e-8)
            for e, t in zip(effects, ens):
                assert np.max(np.abs(cmap @ e - t)) < 1e-8

    def test_product_state_infeasible(self, two_qubit, rng):
        wb = np.array([0.5, 0.5, 0.0, 0.0])
        prod = two_qubit.product_state(np.array([0.5, 0.5, 0.0, 0.0]), wb)
        ens = cp.random_ensemble(two_qubit.factorB, wb, 2, rng)
        assert cp.steer(two_qubit, prod, ens) == cp.INFEASIBLE

    def test_inconsistent_ensemble_rejected(self, two_qubit, rng):
        w = cp.canonical_self_steering_state(two_qubit)
        bad = [np.array([0.5, 0.5, 0.0, 0.0]), np.array([0.5, 0.5, 0.0, 0.0])]
        with pytest.raises(ConeError):
            cp.steer(two_qubit, w, bad)

    def test_order_iso_check_holds(self, two_qubit, bit_bit):
        for comp in (two_qubit, bit_bit):
            w = cp.canonical_self_steering_state(comp)
            v = cp.steering_order_iso_check(comp, w)
            assert v.status == HOLDS
            assert v.margin < 1e-8

    def test_order_iso_check_product_fails(self, two_qubit):
        half = np.array([0.5, 0.5, 0.0, 0.0])
        prod = two_qubit.product_state(half, half)
        v = cp.steering_order_iso_check(two_qubit, prod)
        assert v.status == FAILS
        assert v.violation["rank"] == 1

    def test_boundary_marginal_rejected(self, two_qubit):
        pure = np.array([1.0, 0.0, 0.0, 0.0])
        prod = two_qubit.product_state(pure, pure)
        with pytest.raises(ConeError):
            cp.steering_order_iso_check(two_qubit, prod)


def _steering_states(seed: int):
    """(name, composite, state) for every builtin and wider-registry
    composite with a canonical self-steering state: that state, and that
    state mixed with a seeded pure product state."""
    rng = np.random.default_rng(seed)
    out, seen = [], set()
    for specs in (fixtures.builtin_fixtures(), wider_registry()):
        lookup = {s.name: s for s in specs}
        for spec in specs:
            if spec.kind != "composite" or spec.name in seen:
                continue
            seen.add(spec.name)
            comp = fixtures.build_system(spec, lookup)
            try:
                w = cp.canonical_self_steering_state(comp)
            except ConeError:
                continue
            product = comp.product_state(comp.factorA.sample_pure(rng),
                                         comp.factorB.sample_pure(rng))
            out += [(spec.name, comp, w),
                    (spec.name, comp, 0.7 * w + 0.3 * product)]
    return out


def _steer_by_loop(comp, w, stack):
    """`steer` on a stack, from the one-ensemble oracle: the effects of the
    ensembles before the first infeasible one."""
    out = []
    for ens in stack:
        effects = steer_by_ensemble(comp, w, list(ens))
        if isinstance(effects, str):
            break
        out.append(effects)
    return np.reshape(out, (len(out),) + stack.shape[1:-1] + (comp.dimA,))


class TestSteeringStack:
    """The steering spot check draws, steers and validates its ensembles as
    one stack; the oracles do it one ensemble and one effect at a time."""

    @pytest.mark.parametrize("seed", [1, 7, 11])
    def test_check_matches_ensemble_oracle(self, seed):
        statuses = set()
        for name, comp, w in _steering_states(seed):
            v = cp.steering_order_iso_check(comp, w)
            assert_same_verdict(v, steering_check_by_ensemble(comp, w))
            statuses.add(v.status)
        assert statuses == {HOLDS, FAILS}

    @pytest.mark.parametrize("seed", [1, 7, 11])
    @pytest.mark.parametrize("parts", [1, 2, 3])
    def test_ensembles_and_steering_match_loops(self, seed, parts):
        answers = set()
        for name, comp, w in _steering_states(seed):
            wb = cp.marginal_of(comp, w, "B")
            stack = cp.random_ensembles(comp.factorB, wb, parts,
                                        np.random.default_rng(seed), 8)
            rng = np.random.default_rng(seed)
            loop = [random_ensemble_by_halving(comp.factorB, wb, parts, rng)
                    for _ in range(8)]
            assert same_bits(stack, np.array(loop)), name
            one = cp.random_ensemble(comp.factorB, wb, parts,
                                     np.random.default_rng(seed))
            assert same_bits(one, loop[0]), name
            effects = cp.steer(comp, w, stack)
            assert same_bits(effects, _steer_by_loop(comp, w, stack)), name
            single = cp.steer(comp, w, loop[0])
            assert same_bits(single, steer_by_ensemble(comp, w, loop[0]))
            answers.add(len(effects))
        # one part is the marginal itself, which every state steers
        assert 8 in answers and (parts == 1 or min(answers) < 8)

    @pytest.mark.parametrize("k", [0, 7, 19])
    def test_forced_infeasible_ensemble_is_named(self, two_qubit, k,
                                                 monkeypatch):
        # ensemble k of the twenty fails validation: the FAILS names it,
        # as the loop that steers one ensemble at a time does
        validate = cp.validate_measurement

        def refuse_k(system, effects, tol):
            valid = validate(system, effects, tol)
            valid[k] = False
            return valid

        calls = []

        def steer_refusing_k(comp, wab, ens):
            calls.append(1)
            return (cp.INFEASIBLE if len(calls) == k + 1
                    else steer_by_ensemble(comp, wab, ens))

        monkeypatch.setattr(cp, "validate_measurement", refuse_k)
        w = cp.canonical_self_steering_state(two_qubit)
        v = cp.steering_order_iso_check(two_qubit, w)
        assert v.status == FAILS
        assert_same_verdict(v, steering_check_by_ensemble(
            two_qubit, w, steer=steer_refusing_k))

    def test_invalid_ensemble_raises_at_its_turn(self, two_qubit,
                                                 monkeypatch):
        # ensemble 2 does not sum to the marginal: the ensembles ahead of
        # it steer as the loop steers them, and a stack holding it raises
        # as the loop does at its turn, also after an infeasible ensemble 1
        w = cp.canonical_self_steering_state(two_qubit)
        wb = cp.marginal_of(two_qubit, w, "B")
        stack = cp.random_ensembles(two_qubit.factorB, wb, 3,
                                    np.random.default_rng(3), 4)
        stack[2] *= 1.5
        for head in (stack[:1], stack[:2]):
            assert same_bits(cp.steer(two_qubit, w, head),
                             _steer_by_loop(two_qubit, w, head))
        for tail in (stack, stack[2:]):
            with pytest.raises(ConeError, match="does not sum"):
                _steer_by_loop(two_qubit, w, tail)
            with pytest.raises(ConeError, match="does not sum"):
                cp.steer(two_qubit, w, tail)
        validate = cp.validate_measurement
        monkeypatch.setattr(
            cp, "validate_measurement",
            lambda system, effects, tol: validate(system, effects, tol)
            & (np.arange(len(effects)) != 1))
        assert len(cp.steer(two_qubit, w, stack[:2])) == 1
        with pytest.raises(ConeError, match="does not sum"):
            cp.steer(two_qubit, w, stack)

    @pytest.mark.parametrize("k", [0, 2, 3])
    @pytest.mark.parametrize("fault", ["does not sum", "outside"])
    def test_invalid_ensemble_raises_before_any_is_steered(
            self, two_qubit, k, fault, monkeypatch):
        # ensemble k leaves the marginal or the B cone: the stack raises
        # before any effect is validated, also when ensemble 1 is
        # infeasible
        w = cp.canonical_self_steering_state(two_qubit)
        wb = cp.marginal_of(two_qubit, w, "B")
        stack = cp.random_ensembles(two_qubit.factorB, wb, 3,
                                    np.random.default_rng(3), 4)
        if fault == "does not sum":
            stack[k] *= 1.5
        else:
            # parts 0 and 1 keep their sum; part 1 becomes minus itself
            stack[k, 0] += 2 * stack[k, 1]
            stack[k, 1] *= -1
        validated = []
        validate = cp.validate_measurement

        def refuse_1(system, effects, tol):
            validated.append(len(effects))
            return validate(system, effects, tol) & (
                np.arange(len(effects)) != 1)

        monkeypatch.setattr(cp, "validate_measurement", refuse_1)
        if k > 1:
            assert len(cp.steer(two_qubit, w, stack[:k])) == 1
        validated.clear()
        with pytest.raises(ConeError, match=fault):
            cp.steer(two_qubit, w, stack)
        assert validated == []


class TestSteeringLP:
    """The exact LP in effect coordinates, `steer_by_lp`, decides singular
    conditioning maps over a polyhedral A factor; production `steer`
    certifies only off-range targets there and answers in-range ones
    UNSUPPORTED."""

    def _steered(self, comp, w, ens):
        effects = steer_by_lp(comp, w, ens)
        assert not isinstance(effects, str)
        assert validate_measurement(comp.factorA, effects, 1e-8)
        assert np.max(np.abs(sum(effects) - comp.factorA.unit)) < 1e-12
        cmap = cp.conditioning_map(comp, w)
        for e, t in zip(effects, ens):
            assert np.max(np.abs(cmap @ e - t)) < 1e-8
        with pytest.raises(UnsupportedQuery):
            cp.steer(comp, w, ens)
        return effects

    def test_product_state_splits_its_marginal(self, min_square):
        w = min_square.product_state(V1, V2)
        self._steered(min_square, w, [0.3 * V2, 0.7 * V2])

    def test_mixture_steers_its_components(self, min_square):
        w = 0.5 * (min_square.product_state(V1, V2)
                   + min_square.product_state(V3, V4))
        self._steered(min_square, w, [0.5 * V2, 0.5 * V4])

    def test_ensemble_outside_the_range(self, min_square):
        w = min_square.product_state(V1, CENTER)
        ens = [0.5 * V2, 0.5 * V4]
        assert steer_by_lp(min_square, w, ens) == cp.INFEASIBLE
        assert cp.steer(min_square, w, ens) == cp.INFEASIBLE

    def test_infeasible_in_the_range(self, min_square):
        # the ensemble would need a measurement telling V1, V2 and V3 apart
        # perfectly, which the square does not have: V4 = V1 + V3 - V2
        w = (min_square.product_state(V1, V1)
             + min_square.product_state(V2, V3)
             + min_square.product_state(V3, CENTER)) / 3
        ens = [V1 / 3, V3 / 3, CENTER / 3]
        assert np.linalg.matrix_rank(cp.conditioning_map(min_square, w),
                                     tol=1e-10) == 2
        assert steer_by_lp(min_square, w, ens) == cp.INFEASIBLE
        with pytest.raises(UnsupportedQuery):
            cp.steer(min_square, w, ens)

    def test_rounded_mixtures_are_never_infeasible(self, min_square):
        # wa, wb: Dirichlet mixtures of the square's pure states.  The
        # effects lam*u and (1-lam)*u steer [lam*wb, (1-lam)*wb], but the
        # floats read as fractions break the LP's exact equalities
        rng = np.random.default_rng(1)
        pure = np.array(SQUARE, dtype=float)
        outcomes = []
        for _ in range(40):
            wa = rng.dirichlet(np.ones(4)) @ pure
            wb = rng.dirichlet(np.ones(4)) @ pure
            lam = rng.random()
            w = min_square.product_state(wa, wb)
            try:
                effects = steer_by_lp(min_square, w,
                                      [lam * wb, (1 - lam) * wb])
            except UnsupportedQuery:
                outcomes.append("unsupported")
                continue
            assert effects != cp.INFEASIBLE
            outcomes.append("steered")
        assert outcomes == ["unsupported"] * 40

    def test_unfaithful_reading_of_an_infeasible_lp(self, min_square):
        # the infeasible ensemble above, each entry moved by 1e-13: the
        # fractions no longer read back as the floats
        w = (min_square.product_state(V1, V1)
             + min_square.product_state(V2, V3)
             + min_square.product_state(V3, CENTER)) / 3
        ens = [V1 / 3 + 1e-13, V3 / 3, CENTER / 3 - 1e-13]
        with pytest.raises(UnsupportedQuery):
            steer_by_lp(min_square, w, ens)


class TestSteeringRoutesAgree:
    """On invertible conditioning maps the closed form `steer` and the LP
    oracle `steer_by_lp` give the same answer."""

    @staticmethod
    def _agree(comp, w, ens):
        by_inverse = cp.steer(comp, w, ens)
        by_lp = steer_by_lp(comp, w, ens)
        if isinstance(by_inverse, str) or isinstance(by_lp, str):
            assert by_inverse == by_lp
            return by_inverse
        assert len(by_inverse) == len(by_lp) == len(ens)
        for a, b in zip(by_inverse, by_lp):
            assert np.max(np.abs(a - b)) < 1e-12
        return by_inverse

    def test_classical_bit_bit(self, bit_bit):
        # the LP needs a polyhedral A factor: the min composite of two
        # polyhedral bits has the classical composite's cone, coordinates
        # and unit, so both take the classical canonical state as it is
        pbit = System(PolyhedralCone([[1, 0], [0, 1]]), np.ones(2), "pbit")
        poly = cp.CompositeSystem(pbit, pbit, cp.MIN_TENSOR)
        w = cp.canonical_self_steering_state(bit_bit)
        for ens, expect in (
                ([np.array([0.5, 0.0]), np.array([0.0, 0.5])],
                 [[1.0, 0.0], [0.0, 1.0]]),
                ([np.array([0.3, 0.1]), np.array([0.2, 0.4])],
                 [[0.6, 0.2], [0.4, 0.8]])):
            effects = self._agree(poly, w, ens)
            assert np.max(np.abs(np.array(effects) - expect)) < 1e-12
            classical = cp.steer(bit_bit, w, ens)
            assert np.array_equal(np.array(classical), np.array(effects))

    def test_min_square_square(self, min_square):
        w = (min_square.product_state(V1, V1)
             + min_square.product_state(V2, V2)
             + min_square.product_state(V3, V3)) / 3
        assert np.linalg.matrix_rank(cp.conditioning_map(min_square, w),
                                     tol=1e-10) == 3
        # a perfect three-outcome measurement, which the square lacks
        assert self._agree(min_square, w, [V1 / 3, V2 / 3, V3 / 3]) \
            == cp.INFEASIBLE
        effects = self._agree(min_square, w,
                              [V1 / 3 + V2 / 6, V2 / 6 + V3 / 3])
        assert np.max(np.abs(effects[0] - [0.5, 0.5, 0.0])) < 1e-12
        assert np.max(np.abs(effects[1] - [-0.5, 0.5, 0.0])) < 1e-12


def _density(comp, x):
    """The 4x4 matrix sum_ij x_ij kron(a_i, b_j) of a two-qubit element."""
    ba = comp.factorA.cone.algebra.factors[0]._basis
    bb = comp.factorB.cone.algebra.factors[0]._basis
    return np.einsum("ij,iab,jcd->acbd", x.reshape(4, 4), ba, bb).reshape(4, 4)


class TestLinearImageCone:
    def test_margin_is_the_least_eigenvalue(self, two_qubit, rng):
        cone = two_qubit.cone
        points = [sample_state(two_qubit, rng) for _ in range(5)]
        points += [rng.standard_normal(16) for _ in range(5)]
        for x in points:
            least = np.linalg.eigvalsh(_density(two_qubit, x))[0]
            assert abs(cone.margin(x) - least) < 1e-9

    def test_sampled_extremals_are_rank_one(self, two_qubit, rng):
        for _ in range(10):
            vals = np.linalg.eigvalsh(
                _density(two_qubit, two_qubit.cone.sample_extremal(rng)))
            assert np.all(np.abs(vals[:3]) < 1e-9) and vals[3] > 1e-3

    def test_dual_member_matches_extremal_pairings(self, two_qubit, rng):
        # e_ij = tr(H kron(a_i, b_j)) pairs with x as tr(H rho(x)); H is
        # positive, or has one eigenvalue -2 that sampled pure states find
        cone = two_qubit.cone
        extremals = np.array([cone.sample_extremal(rng) for _ in range(300)])
        f = two_qubit.factorA.cone.algebra.factors[0]
        verdicts = []
        for k in range(10):
            q, _ = np.linalg.qr(rng.standard_normal((4, 4))
                                + 1j * rng.standard_normal((4, 4)))
            vals = rng.uniform(0.1, 1.0, 4)
            if k % 2:
                vals[0] = -2.0
            h = q @ np.diag(vals) @ q.conj().T
            e = hilbert_pairings_by_pairs(f, f, h)
            inside = bool(np.min(extremals @ e) >= 0)
            assert cone.dual_member(e) == inside
            verdicts.append(inside)
        assert verdicts == [True, False] * 5


class TestCanonicalStates:
    def test_hilbert_membership(self, two_qubit):
        w = cp.canonical_self_steering_state(two_qubit)
        assert two_qubit.cone.member(w)
        assert is_extremal_ray(two_qubit.cone, w)

    def test_max_tensor_certificate(self, max_rebit):
        w = cp.canonical_self_steering_state(max_rebit)
        assert max_rebit.cone.margin(w) > -1e-9
        v = cp.steering_order_iso_check(max_rebit, w)
        assert v.status == HOLDS

    def test_non_simple_factor_rejected(self, bit_bit):
        comp = cp.CompositeSystem(bit_bit.factorA, bit_bit.factorB,
                                  cp.MAX_TENSOR)
        with pytest.raises(ConeError):
            cp.canonical_self_steering_state(comp)


class TestPurityPreservation:
    def test_hilbert(self, two_qubit, rng):
        for _ in range(10):
            wa = two_qubit.factorA.sample_pure(rng)
            wb = two_qubit.factorB.sample_pure(rng)
            assert cp.purity_preservation_check(two_qubit, wa, wb)

    def test_min_tensor_exact(self, min_square, rng):
        for _ in range(10):
            wa = min_square.factorA.sample_pure(rng)
            wb = min_square.factorB.sample_pure(rng)
            assert cp.purity_preservation_check(min_square, wa, wb)

    def test_classical(self, bit_bit):
        assert cp.purity_preservation_check(bit_bit, np.array([1.0, 0.0]),
                                            np.array([0.0, 1.0]))

    def test_max_tensor(self, max_rebit, rng):
        wa = max_rebit.factorA.sample_pure(rng)
        wb = max_rebit.factorB.sample_pure(rng)
        assert cp.purity_preservation_check(max_rebit, wa, wb)

    def test_hilbert_fails_through_a_wrong_coordinate_change(self, two_qubit,
                                                             rng):
        # the Kronecker change followed by a rotation that turns the
        # product's image a random share of its angle toward the unit: the
        # image is a member of full rank, so the global eigen-rank reads
        # the pure product as not pure
        inner, kron = two_qubit.cone.inner, two_qubit.cone.rot
        for _ in range(5):
            wa = two_qubit.factorA.sample_pure(rng)
            wb = two_qubit.factorB.sample_pure(rng)
            two_qubit.cone = _turned_toward_unit(
                inner, kron, two_qubit.product_state(wa, wb),
                rng.uniform(0.2, 0.8))
            assert not cp.purity_preservation_check(two_qubit, wa, wb)

    def test_rejects_mixed_input(self, two_qubit):
        mixed = np.array([0.5, 0.5, 0.0, 0.0])
        pure = np.array([1.0, 0.0, 0.0, 0.0])
        with pytest.raises(ConeError):
            cp.purity_preservation_check(two_qubit, mixed, pure)


def _turned_toward_unit(inner: EJACone, kron: np.ndarray, w: np.ndarray,
                        share: float) -> cp.LinearImageCone:
    """The image of inner under kron followed by a rotation that turns
    kron @ w the given share of its angle toward inner's unit."""
    u = inner.algebra.unit() / np.linalg.norm(inner.algebra.unit())
    v = kron @ w
    v /= np.linalg.norm(v)
    p = v - (v @ u) * u
    p /= np.linalg.norm(p)
    angle = share * np.arccos(v @ u)
    turn = (np.eye(len(u)) + np.sin(angle) * (np.outer(u, p) - np.outer(p, u))
            + (np.cos(angle) - 1) * (np.outer(u, u) + np.outer(p, p)))
    return cp.LinearImageCone(inner, turn @ kron)


def _builtin(name: str):
    specs = fixtures.builtin_fixtures()
    registry = {s.name: s for s in specs}
    return registry[name], fixtures.build_system(registry[name], registry)


def test_purity_fails_names_its_pair():
    # a wrong coordinate change that turns the run's first pure product
    # into the interior: the record names that pair and its product
    spec, comp = _builtin("two-qubit-hilbert")
    rng = np.random.default_rng(7 + spec.seed)
    wa, wb = comp.factorA.sample_pure(rng), comp.factorB.sample_pure(rng)
    w = comp.product_state(wa, wb)
    comp.cone = _turned_toward_unit(comp.cone.inner, comp.cone.rot, w, 0.5)
    record = fixtures.run_check("purity-preservation", spec, comp,
                                DEFAULT_TOL, 7)
    assert record["status"] == FAILS
    assert "hilbert" in record["detail"]
    assert "margin" not in record
    pair = record["payload"]["factor_states"]
    assert [x.tobytes() for x in pair] == [wa.tobytes(), wb.tobytes()]
    assert record["payload"]["product"].tobytes() == w.tobytes()
    assert not cp.purity_preservation_check(comp, *pair)


def test_composite_self_dual_draws_from_the_run_seed(monkeypatch):
    # the Hilbert composite's sampled self-duality check takes the run's
    # seed, as every other sampled check does
    seeds = []
    check = axioms.check_self_dual

    def recorded(system, tol=DEFAULT_TOL, seed=0):
        seeds.append(seed)
        return check(system, tol, seed)

    monkeypatch.setattr(axioms, "check_self_dual", recorded)
    spec, comp = _builtin("two-qubit-hilbert")
    for seed in (3, 11):
        record = fixtures.run_check("self-dual", spec, comp, DEFAULT_TOL,
                                    seed)
        assert record["status"] == HOLDS
    assert seeds == [3 + spec.seed, 11 + spec.seed]


def test_purity_check_fails_on_a_dropped_ray(monkeypatch):
    # a product of pure states that the composite's extremal rays miss is
    # reported, through the check runner, as a purity failure
    extremal = exact.PolyhedralData.extremal_ray_indices
    monkeypatch.setattr(exact.PolyhedralData, "extremal_ray_indices",
                        lambda self: extremal(self)[:-1])
    spec, comp = _builtin("classical-bit-bit")
    record = fixtures.run_check("purity-preservation", spec, comp,
                                DEFAULT_TOL, 7)
    assert record["status"] == FAILS


def test_composite_is_a_system(two_qubit, min_square):
    for comp in (two_qubit, min_square):
        assert isinstance(comp, System)
        assert not hasattr(comp, "system")
        assert comp.dim == comp.dimA * comp.dimB == len(comp.unit)
        assert comp.label.endswith(f"[{comp.model}]")


class TestPolyhedralExtremality:
    """Purity in the min and classical composites reads the extremal rays
    cached at construction; the LP oracle decides each query on its own."""

    def test_agrees_with_lp_on_extremal_products(self, min_square, bit_bit):
        for comp in (min_square, bit_bit):
            for w in comp.product_generators():
                assert cp._extremal_among_generators(comp.cone, w, 1e-9)
                assert extremal_by_lp(comp.cone, w, 1e-9)

    def test_redundant_generator_is_not_extremal(self, min_square):
        # (1, 2, 1) is the sum of the first two square rays
        padded = System(PolyhedralCone(SQUARE + [[1, 2, 1]]),
                        np.array([0.0, 1.0, 0.0]), "padded square")
        comp = cp.CompositeSystem(padded, min_square.factorB, cp.MIN_TENSOR)
        verdicts = []
        for r in comp.cone.data.rays:
            w = np.array([float(v) for v in r])
            new = cp._extremal_among_generators(comp.cone, w, 1e-9)
            assert new == extremal_by_lp(comp.cone, w, 1e-9)
            verdicts.append(new)
        assert verdicts == [True] * 16 + [False] * 4

    def test_off_generator_rays_unsupported(self, min_square):
        a, b = min_square.product_generators()[:2]
        for route in (cp._extremal_among_generators, extremal_by_lp):
            with pytest.raises(UnsupportedQuery):
                route(min_square.cone, a + b, 1e-9)

    def test_purity_check_solves_no_lp(self, min_square, rng, monkeypatch):
        calls = []
        solver = exact.feasible_nonneg

        def counting(*args):
            calls.append(args)
            return solver(*args)

        monkeypatch.setattr(exact, "feasible_nonneg", counting)
        for _ in range(5):
            wa = min_square.factorA.sample_pure(rng)
            wb = min_square.factorB.sample_pure(rng)
            assert cp.purity_preservation_check(min_square, wa, wb)
        assert calls == []


class TestPureMarginalLemma:
    def test_pure_product_states_factorize(self, two_qubit, rng):
        for _ in range(20):
            wa = two_qubit.factorA.sample_pure(rng)
            wb = two_qubit.factorB.sample_pure(rng)
            w = two_qubit.product_state(wa, wb)
            ma = cp.marginal_of(two_qubit, w, "A")
            mb = cp.marginal_of(two_qubit, w, "B")
            assert is_extremal_ray(two_qubit.factorA.cone, ma)
            assert np.max(np.abs(two_qubit.product_state(ma, mb) - w)) < 1e-9

    def test_entangled_pure_has_mixed_marginal(self, two_qubit):
        w = cp.canonical_self_steering_state(two_qubit)
        assert is_extremal_ray(two_qubit.cone, w)
        ma = cp.marginal_of(two_qubit, w, "A")
        assert not is_extremal_ray(two_qubit.factorA.cone, ma)


def test_local_tomography(two_qubit, bit_bit, min_square, max_rebit):
    for comp in (two_qubit, bit_bit, min_square, max_rebit):
        v = cp.local_tomography_check(comp)
        assert v.status == HOLDS
        rep = v.witness
        assert rep["locally_tomographic"]
        assert rep["dim_AB"] == rep["dim_A"] * rep["dim_B"]


def test_max_tensor_rejects_negative(max_rebit):
    assert not max_rebit.cone.member(-np.eye(3).ravel())


@pytest.mark.parametrize("factors", ["square-qubit", "corner-bit",
                                     "qubit-qubit"])
def test_max_tensor_refuses_non_finite_input(factors, qubit):
    # the sampled branch (square, corner) once let NaN pairings drop out of
    # its min fold and accepted these; the simple-factor branch raised
    sq = System(PolyhedralCone(SQUARE), np.array([0.0, 1.0, 0.0]), "square")
    specs = {s.name: s for s in fixtures.builtin_fixtures()}
    corner = fixtures.build_system(specs["shared-corner"], specs)
    bit = make_eja_system(eja.classical(2), "bit")
    a, b = {"square-qubit": (sq, qubit), "corner-bit": (corner, bit),
            "qubit-qubit": (qubit, qubit)}[factors]
    cone = cp.CompositeSystem(a, b, cp.MAX_TENSOR).cone
    one_nan = -np.ones(cone.dim)
    one_nan[3] = np.nan
    for x in (np.full(cone.dim, np.nan), one_nan):
        for query in (cone.member, cone.margin):
            with pytest.raises(ValueError, match="non-finite input"):
                query(x)


@cache
def _max_of(pair: str) -> cp.CompositeSystem:
    """The max composite of two factors named like "square-qubit"."""
    specs = {s.name: s for s in fixtures.builtin_fixtures()}
    factors = {
        "square": System(PolyhedralCone(SQUARE), CENTER, "square"),
        "pentagon": fixtures.build_system(specs["pentagon-cone"], specs),
        "qubit": make_eja_system(eja.complex_herm(2), "qubit"),
        "rebit": make_eja_system(eja.real_sym(2), "rebit")}
    a, b = pair.split("-")
    return cp.CompositeSystem(factors[a], factors[b], cp.MAX_TENSOR)


def _rational_extremal(system: System, data, dual: bool) -> list[F]:
    """An integer facet normal (dual) or extremal ray of a polyhedral
    factor, or a rational pure element of a rank-2 matrix factor, which is
    its own pure effect: (p, |z|^2 / (2 p), z) for p > 0."""
    cone = system.cone
    if isinstance(cone, PolyhedralCone):
        rows = cone.data.facets() if dual else [
            cone.data.rays[i] for i in cone.data.extremal_ray_indices()]
        return list(data.draw(st.sampled_from(rows)))
    ratio = st.builds(F, st.integers(-9, 9), st.integers(1, 9))
    p = abs(data.draw(ratio)) + F(1, 9)
    z = data.draw(st.lists(ratio, min_size=system.dim - 2,
                           max_size=system.dim - 2))
    return [p, sum(v * v for v in z) / (2 * p), *z]


def _rational_center(system: System) -> list[F]:
    """The sum of a polyhedral factor's extremal rays, or the identity of a
    matrix factor: an interior element."""
    cone = system.cone
    if isinstance(cone, PolyhedralCone):
        rays = [cone.data.rays[i] for i in cone.data.extremal_ray_indices()]
        return [sum(col, F(0)) for col in zip(*rays)]
    return [F(v) for v in system.unit]


@given(pair=st.sampled_from(["square-square", "pentagon-square",
                             "square-qubit", "qubit-square", "rebit-square"]),
       data=st.data())
@settings(max_examples=150, deadline=None)
def test_max_tensor_member_matches_exact_pairing_signs(pair, data):
    # a rational sum of 1-3 products of factor extremals and a multiple of
    # the product of their centres, moved along one product effect
    # d = e (x) f onto its facet hyperplane and then up to a tenth of its
    # scale to either side, passed as floats
    comp = _max_of(pair)
    terms = [(data.draw(st.integers(0, 20)), _rational_center(comp.factorA),
              _rational_center(comp.factorB))]
    terms += [(data.draw(st.integers(1, 5)),
               _rational_extremal(comp.factorA, data, dual=False),
               _rational_extremal(comp.factorB, data, dual=False))
              for _ in range(data.draw(st.integers(1, 3)))]
    x = [F(0)] * comp.dim
    for w, a, b in terms:
        x = [xi + w * ai * bj for xi, (ai, bj)
             in zip(x, itertools.product(a, b))]
    d = [ei * fj for ei, fj in itertools.product(
        _rational_extremal(comp.factorA, data, dual=True),
        _rational_extremal(comp.factorB, data, dual=True))]
    side = F(data.draw(st.integers(-100, 100)), 1000)
    step = side * sum(map(abs, x)) / sum(map(abs, d)) \
        - sum(u * v for u, v in zip(d, x)) / sum(v * v for v in d)
    x = [xi + step * di for xi, di in zip(x, d)]
    inside = min(max_tensor_pairing_signs(comp, x)) >= 0
    assert comp.cone.member(np.array([float(v) for v in x])) == inside


def _unit_product_effects(comp: cp.CompositeSystem, rng):
    """Every pair of unit dual extremals e (x) f, a polyhedral factor's
    facet normals and a seeded pure effect of a matrix factor."""
    def unit_duals(system):
        if isinstance(system.cone, PolyhedralCone):
            return [nf / norm for nf, norm in system.cone.float_facets()]
        e = system.cone.algebra.metric * system.sample_pure(rng)
        return [e / np.linalg.norm(e)]
    return itertools.product(unit_duals(comp.factorA),
                             unit_duals(comp.factorB))


@pytest.mark.parametrize("pair", ["square-square", "pentagon-square",
                                  "square-qubit", "qubit-square"])
def test_points_outside_a_unit_product_facet_are_rejected(pair, rng):
    # a sum of two pure products moved to pair to -0.05 with a product of
    # unit dual extremals: the least slice margin is at most -0.05
    comp = _max_of(pair)
    for _ in range(5):
        for e, f in _unit_product_effects(comp, rng):
            x = comp.cone.sample_extremal(rng) + comp.cone.sample_extremal(rng)
            d = np.outer(e, f).ravel()
            x = x - (d @ x + 0.05) * d
            assert comp.cone.margin(x) <= -0.05 + 1e-12
            assert not comp.cone.member(x)


@pytest.mark.parametrize("pair", ["square-qubit", "qubit-square"])
def test_stacked_slice_margins_equal_the_per_slice_loop(pair, rng):
    # one stacked margin call over the square's unit facet slices has the
    # bits of a `margin` call per slice, folded by min, at members, at
    # non-members and on boundaries
    comp = _max_of(pair)
    square_first = pair == "square-qubit"
    square, other = ((comp.factorA, comp.factorB) if square_first
                     else (comp.factorB, comp.factorA))
    duals = np.array([nf / norm for nf, norm in square.cone.float_facets()])
    for k in range(30):
        x = comp.cone.sample_extremal(rng)
        if k % 3:
            x = x + comp.cone.sample_extremal(rng) \
                + (k % 3 - 1.5) * rng.normal(size=comp.dim)
        m = x.reshape(comp.dimA, comp.dimB)
        m = m if square_first else m.T
        loop = min(other.cone.margin(s) for s in duals @ m)
        got = comp.cone.pairing_minimum(x)
        assert np.float64(got).tobytes() == np.float64(loop).tobytes()


def test_max_tensor_without_a_route_refuses_each_query(qubit, rng):
    # neither qubit (+) rebit nor the shared-corner cone is polyhedral,
    # classical or simple: the composite builds, and every query names it
    specs = {s.name: s for s in fixtures.builtin_fixtures()}
    corner = fixtures.build_system(specs["shared-corner"], specs)
    mixed = make_eja_system(eja.JordanAlgebra(
        [eja.SimpleFactor(eja.COMPLEX, 2), eja.SimpleFactor(eja.REAL, 2)]),
        "qubit+rebit")
    for a in (mixed, corner):
        cone = cp.CompositeSystem(a, qubit, cp.MAX_TENSOR).cone
        x = cone.sample_extremal(rng)
        for query in (cone.member, cone.margin):
            with pytest.raises(UnsupportedQuery, match=re.escape(
                    f"no max-tensor membership route for {a.label} (x) "
                    "qubit [max]")):
                query(x)


def test_min_tensor_needs_polyhedral(qubit):
    with pytest.raises(UnsupportedQuery):
        cp.CompositeSystem(qubit, qubit, cp.MIN_TENSOR)


@pytest.mark.parametrize("factor", [
    eja.SimpleFactor(eja.REAL, 2), eja.SimpleFactor(eja.REAL, 3),
    eja.SimpleFactor(eja.COMPLEX, 3), eja.SimpleFactor(eja.QUAT, 2),
    eja.SimpleFactor(eja.QUAT, 3), eja.SimpleFactor(eja.SPIN, 2, spin_dim=5)],
    ids=repr)
def test_pure_effect_minimizing_matches_spectral(factor, rng):
    # matrix factors: one stacked eigendecomposition, one idempotent per
    # row, with the bits of building all of them for each row alone; spin
    # factors: the bits of the closed form.  Pure states and multiples of
    # the unit are degenerate, and zero ties a spin factor's two eigenvalues
    points = [rng.standard_normal(factor.dim) for _ in range(20)]
    points += [factor.random_pure(rng) for _ in range(10)]
    points += [1e6 * factor.random_pure(rng), -3.0 * factor.unit(),
               np.zeros(factor.dim)]
    effects = factor.min_pure_effects(np.array(points))
    assert effects.shape == (len(points), factor.dim)
    for eff, x in zip(effects, points):
        ref_eff = pure_effect_minimizing_by_point(factor, x)
        assert eff.tobytes() == ref_eff.tobytes()


def _max_composite(alg_a, alg_b):
    return cp.CompositeSystem(make_eja_system(alg_a, "a"),
                              make_eja_system(alg_b, "b"), cp.MAX_TENSOR)


@pytest.mark.parametrize("alg_a,alg_b", [
    (eja.real_sym(2), eja.real_sym(2)), (eja.real_sym(3), eja.real_sym(2)),
    (eja.complex_herm(2), eja.complex_herm(2)),
    (eja.quat_herm(2), eja.quat_herm(2)),
    (eja.spin_factor(4), eja.spin_factor(4)),
    (eja.real_sym(3), eja.spin_factor(4))],
    ids=["rebit-rebit", "sym3-rebit", "qubit-qubit", "quat-quat",
         "spin-spin", "sym3-spin"])
def test_pairing_minimum_equals_start_by_start_loop(alg_a, alg_b, rng):
    # pure products, their negatives, the identity-conditioning element of
    # isomorphic factors, zero and random elements
    comp = _max_composite(alg_a, alg_b)
    points = [comp.cone.sample_extremal(rng) for _ in range(2)]
    points += [-points[0], np.zeros(comp.dim)]
    points += [rng.standard_normal(comp.dim) for _ in range(3)]
    if comp.dimA == comp.dimB:
        points.append(np.eye(comp.dimA).ravel())
    for x in points:
        got = comp.cone.pairing_minimum(x)
        assert got.hex() == pairing_minimum_by_starts(comp, x).hex()


def _faces_decision_points(max_rebit, monkeypatch) -> list[np.ndarray]:
    """The points whose pairing minimum one purity decision on a pure
    product x of max rebit (x) rebit asks for (x alone), then those the
    face-probe oracle asks for: x + step * d and x - step * d along its
    face span, and the directions off the face until one leaves the cone."""
    rebit = max_rebit.factorA
    rng = np.random.default_rng(13)
    w = max_rebit.product_state(rebit.sample_pure(rng), rebit.sample_pure(rng))
    points = []
    minimum = cp.MaxTensorCone.pairing_minimum
    with monkeypatch.context() as patch:
        patch.setattr(cp.MaxTensorCone, "pairing_minimum",
                      lambda cone, x: points.append(x) or minimum(cone, x))
        assert face_dimension(max_rebit.cone, w) == 1
        basis = max_rebit.cone.face_span_basis(w, DEFAULT_TOL)
        assert probe_face_span(max_rebit.cone, w, basis) == (True, True)
    return points


def _count_calls(monkeypatch, owner, name: str) -> list[int]:
    """A list that grows by one entry per call of `owner.name`."""
    calls = []
    original = getattr(owner, name)

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_pairing_minimum_cycle_exits_equal_start_by_start_loop(max_rebit,
                                                               monkeypatch):
    # the pure product's start stack repeats at sweep 3 with period 2, so
    # the state after SWEEPS sweeps is the one after sweep 1 (2 if the
    # cycle index were off by one); the last probe, off the face, runs all
    # SWEEPS sweeps
    points = _faces_decision_points(max_rebit, monkeypatch)
    calls = _count_calls(monkeypatch, eja.SimpleFactor, "min_pure_effects")
    sweeps = []
    for x in points:
        before = len(calls)
        got = max_rebit.cone.pairing_minimum(x)
        sweeps.append((len(calls) - before) // 2)
        assert got.hex() == pairing_minimum_by_starts(max_rebit, x).hex()
    assert sweeps[0] == 3
    assert sweeps[-1] == cp.MaxTensorCone.SWEEPS
    assert min(sweeps[1:-1]) < cp.MaxTensorCone.SWEEPS


def test_pure_product_pairing_minimum_stops_sweeping(max_rebit, monkeypatch):
    # two stacked decompositions a sweep; a pure product's start stack
    # repeats long before SWEEPS sweeps
    x = _faces_decision_points(max_rebit, monkeypatch)[0]
    calls = _count_calls(monkeypatch, eja.SimpleFactor, "min_pure_effects")
    max_rebit.cone.pairing_minimum(x)
    assert len(calls) < 2 * cp.MaxTensorCone.SWEEPS


def test_pairing_minimum_draws_its_starts_once(max_rebit, rng, monkeypatch):
    # the seeded start stack is drawn on the first call only, and a
    # non-finite element is refused before it
    with pytest.raises(ValueError, match="non-finite input"):
        max_rebit.cone.pairing_minimum(np.full(max_rebit.dim, np.nan))
    draws = _count_calls(monkeypatch, EJACone, "sample_extremals")
    points = [max_rebit.cone.sample_extremal(rng) for _ in range(2)]
    points += [rng.standard_normal(max_rebit.dim) for _ in range(2)]
    for x in points:
        assert max_rebit.cone.pairing_minimum(x).hex() == \
            pairing_minimum_by_starts(max_rebit, x).hex()
    assert len(draws) == 1


def test_pairing_minimum_of_a_pure_product_is_zero(rng):
    comp = _max_composite(eja.quat_herm(2), eja.spin_factor(4))
    w = comp.cone.sample_extremal(rng)
    assert abs(comp.cone.pairing_minimum(w)) < 1e-12
    assert comp.cone.pairing_minimum(-w) < -0.1


@pytest.mark.parametrize("ra,rb", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_hilbert_rotation_equals_pair_loop(ra, rb):
    sa = make_eja_system(eja.complex_herm(ra), "a")
    sb = make_eja_system(eja.complex_herm(rb), "b")
    rot = cp.CompositeSystem(sa, sb, cp.HILBERT).cone.rot
    slow = hilbert_rotation_by_pairs(sa.cone.algebra.factors[0],
                                     sb.cone.algebra.factors[0])
    assert rot.flags.c_contiguous
    assert rot.tobytes() == slow.tobytes()


@pytest.mark.parametrize("r", [2, 3])
def test_hilbert_self_steering_state_equals_pair_loop(r):
    s = make_eja_system(eja.complex_herm(r), "a")
    f = s.cone.algebra.factors[0]
    vec = np.zeros(r * r)
    vec[:: r + 1] = 1.0 / np.sqrt(r)
    w = cp.canonical_self_steering_state(cp.CompositeSystem(s, s, cp.HILBERT))
    assert w.tobytes() == hilbert_pairings_by_pairs(
        f, f, np.outer(vec, vec)).tobytes()
