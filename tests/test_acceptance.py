"""Acceptance gate: nine end-to-end criteria, one pass/fail line each.

Tolerances are pinned where each criterion states them; nothing here may be
loosened without revisiting the criterion it implements.
"""

import contextlib

import numpy as np

import classify_oracle as oracle
from conelab import axioms, classify, eja, fixtures
from conelab import composite as cp
from conelab.axioms import FAILS, HOLDS
from conelab.cones import (PolyhedralCone, SharedCornerCone, System,
                          is_extremal_ray, validate_measurement)
from conftest import make_eja_system
from helpers import (assert_same_text, random_element, random_interior,
                     trace_inner)


@contextlib.contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} ({title}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({title}): PASS")


def _builtin_systems(kind: str):
    specs = fixtures.builtin_fixtures()
    registry = {s.name: s for s in specs}
    return [(s.name, fixtures.build_system(s, registry))
            for s in specs if s.kind == kind]


def test_criterion_1_symmetric_cone_consistency():
    with criterion(1, "self-duality and homogeneity of algebraic fixtures"):
        rng = np.random.default_rng(101)
        for name, system in _builtin_systems("eja"):
            v = axioms.check_self_dual(system, seed=1)
            assert v.status == HOLDS, name
            alg = system.cone.algebra
            worst = 0.0
            for _ in range(50):
                rho = random_interior(alg, rng)
                sig = random_interior(alg, rng)
                phi = axioms.homogeneity_witness(system, rho, sig)
                worst = max(worst, float(np.max(np.abs(phi @ rho - sig))))
            assert worst < 1e-8, (name, worst)


def test_criterion_2_homogeneous_non_self_dual_exhibit():
    with criterion(2, "shared-corner cone: homogeneous, not pure-transitive"):
        cone = SharedCornerCone()
        system = System(cone, np.array([1.0, 1.0, 1.0, 0.0, 0.0]),
                        "shared-corner")
        rng = np.random.default_rng(202)
        worst = 0.0
        for _ in range(50):
            rho, sig = cone.sample_interiors(rng, 2)
            phi = axioms.homogeneity_witness(system, rho, sig)
            worst = max(worst, float(np.max(np.abs(phi @ rho - sig))))
        assert worst < 1e-9, worst
        w1 = np.array([0.0, 1.0, 0.0, 0.0, 0.0])
        w2 = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        v = axioms.pure_transitivity_witness(system, w1, w2)
        assert v.status == FAILS
        p1, p2 = v.violation["face_profiles"]
        assert p2 == 5 and p1 == 3, (p1, p2)


def test_criterion_3_pure_transitivity_dichotomy():
    with criterion(3, "pure transitivity on identical vs mixed direct sums"):
        rng = np.random.default_rng(303)
        same = make_eja_system(eja.JordanAlgebra(
            [eja.complex_herm(2).factors[0], eja.complex_herm(2).factors[0]]))
        for _ in range(50):
            w1, w2 = same.sample_pure(rng), same.sample_pure(rng)
            v = axioms.pure_transitivity_witness(same, w1, w2)
            assert v.status == HOLDS
            assert np.max(np.abs(v.witness @ w1 - w2)) < 1e-8
        mixed = make_eja_system(eja.JordanAlgebra(
            [eja.complex_herm(2).factors[0], eja.real_sym(2).factors[0]]))
        alg = mixed.cone.algebra
        w1 = mixed.normalize(alg.random_pure(rng, summand=0))
        w2 = mixed.normalize(alg.random_pure(rng, summand=1))
        v = axioms.pure_transitivity_witness(mixed, w1, w2)
        assert v.status == FAILS
        assert "summands" in v.violation


def test_criterion_4_continuous_pure_transitivity_dichotomy():
    with criterion(4, "continuous pure paths on simple systems only"):
        rng = np.random.default_rng(404)
        specs = fixtures.builtin_fixtures()
        registry = {s.name: s for s in specs}
        for spec in specs:
            if spec.kind != "eja":
                continue
            system = fixtures.build_system(spec, registry)
            alg = system.cone.algebra
            if len(alg.summands) == 1:
                w1, w2 = system.sample_pure(rng), system.sample_pure(rng)
                v = axioms.continuous_pure_transitivity(system, w1, w2,
                                                        tol=1e-9)
                assert v.status == HOLDS, spec.name
                assert len(v.witness) == 17
            else:
                for i in range(len(alg.summands)):
                    for j in range(i + 1, len(alg.summands)):
                        w1 = system.normalize(alg.random_pure(rng, summand=i))
                        w2 = system.normalize(alg.random_pure(rng, summand=j))
                        v = axioms.continuous_pure_transitivity(system, w1, w2)
                        assert v.status == FAILS, spec.name
                        assert v.violation["summands"] == (i, j)


def test_criterion_5_square_cone_separation():
    with criterion(5, "square cone: weakly self-dual, never via an SPD map"):
        from conelab import exact
        cone = PolyhedralCone([[1, 1, 0], [0, 1, 1], [-1, 1, 0], [0, 1, -1]])
        weak = axioms.search_weak_self_duality(cone)
        assert weak.status == HOLDS
        t = weak.witness["map"]
        perm = weak.witness["bijection"]
        scales = weak.witness["scales"]
        rays = [cone.data.rays[i] for i in cone.data.extremal_ray_indices()]
        facets = cone.data.facets()
        assert exact.rank(t) == 3
        for i, r in enumerate(rays):
            assert exact.mat_vec(t, r) == [scales[i] * x
                                           for x in facets[perm[i]]]
        spd = axioms.search_spd_self_duality(cone)
        assert spd.status == FAILS
        certs = spd.violation["bijections"]
        assert len(certs) == 24
        assert all(c.get("certified", True) for c in certs)


def test_criterion_6_classification_procedures():
    with criterion(6, "classification procedures match the brute-force oracle"):
        lt = classify.survivors_local_tomography(8)
        assert lt["survivors"] == ["ComplexHerm"]
        assert_same_text(classify.trace_json(lt), oracle.to_json(
            oracle.run(classify.LOCAL_TOMOGRAPHY, 8)))
        inj = classify.survivors_injective_composite(8)
        assert inj["survivors"] == ["RealSym", "ComplexHerm"]
        assert_same_text(classify.trace_json(inj), oracle.to_json(
            oracle.run(classify.INJECTIVE_COMPOSITE, 8)))
        for k in (1, 2, 3):
            cls = classify.survivors_classicality(8, k)
            assert cls["survivors"] == ["RealSym", "ComplexHerm"]
            assert_same_text(classify.trace_json(cls), oracle.to_json(
                oracle.run(classify.CLASSICALITY, 8, k)))
            nm = cls["near_miss"]
            assert nm["total_rank"] == 81
            assert nm["coincides_with"]["family"] == "ComplexHerm"
            assert nm["coincides_with"]["rank"] == 81


def test_criterion_7_steering_suite():
    with criterion(7, "steering: entangled and correlated states steer"):
        qubit = make_eja_system(eja.complex_herm(2), "qubit")
        two_qubit = cp.CompositeSystem(qubit, qubit, cp.HILBERT)
        ment = cp.canonical_self_steering_state(two_qubit)
        assert cp.steering_order_iso_check(two_qubit, ment).status == HOLDS
        bit = make_eja_system(eja.classical(2), "bit")
        bits = cp.CompositeSystem(bit, bit, cp.CLASSICAL)
        corr = cp.canonical_self_steering_state(bits)
        assert cp.steering_order_iso_check(bits, corr).status == HOLDS
        rng = np.random.default_rng(707)
        cmap = cp.conditioning_map(two_qubit, ment)
        wb = cp.marginal_of(two_qubit, ment, "B")
        for _ in range(20):
            ens = cp.random_ensemble(two_qubit.factorB, wb, 3, rng)
            effects = cp.steer(two_qubit, ment, ens)
            assert not isinstance(effects, str)
            assert validate_measurement(two_qubit.factorA, effects, 1e-8)
            for e, t in zip(effects, ens):
                assert np.max(np.abs(cmap @ e - t)) < 1e-8
        half = np.array([0.5, 0.5, 0.0, 0.0])
        prod = two_qubit.product_state(half, half)
        ens = cp.random_ensemble(two_qubit.factorB, wb, 2, rng)
        assert cp.steer(two_qubit, prod, ens) == cp.INFEASIBLE


def test_criterion_8_purity_lemmas():
    with criterion(8, "pure products stay pure; pure marginals force products"):
        rng = np.random.default_rng(808)
        qubit = make_eja_system(eja.complex_herm(2), "qubit")
        square = System(PolyhedralCone([[1, 1, 0], [0, 1, 1], [-1, 1, 0],
                                        [0, 1, -1]]),
                        np.array([0.0, 1.0, 0.0]), "square")
        rebit = make_eja_system(eja.real_sym(2), "rebit")
        bit = make_eja_system(eja.classical(2), "bit")
        comps = [
            cp.CompositeSystem(qubit, qubit, cp.HILBERT),
            cp.CompositeSystem(square, square, cp.MIN_TENSOR),
            cp.CompositeSystem(bit, bit, cp.CLASSICAL),
            cp.CompositeSystem(rebit, rebit, cp.MAX_TENSOR),
        ]
        for comp in comps:
            for _ in range(50):
                wa = comp.factorA.sample_pure(rng)
                wb = comp.factorB.sample_pure(rng)
                assert cp.purity_preservation_check(comp, wa, wb), comp.model
        two_qubit = comps[0]
        for _ in range(50):
            wa = two_qubit.factorA.sample_pure(rng)
            wb = two_qubit.factorB.sample_pure(rng)
            w = two_qubit.product_state(wa, wb)
            ma = cp.marginal_of(two_qubit, w, "A")
            mb = cp.marginal_of(two_qubit, w, "B")
            assert is_extremal_ray(two_qubit.factorA.cone, ma, 1e-9)
            assert np.max(np.abs(two_qubit.product_state(ma, mb) - w)) < 1e-9


def test_criterion_9_algebraic_identities():
    with criterion(9, "Jordan and compatibility identities per family"):
        rng = np.random.default_rng(909)
        algebras = [eja.real_sym(3), eja.complex_herm(3), eja.quat_herm(2),
                    eja.spin_factor(8)]
        for alg in algebras:
            for _ in range(500):
                a = random_element(alg, rng)
                b = random_element(alg, rng)
                c = random_element(alg, rng)
                aa = alg.product(a, a)
                lhs = alg.product(aa, alg.product(b, a))
                rhs = alg.product(alg.product(aa, b), a)
                assert np.max(np.abs(lhs - rhs)) < 1e-10
                lhs2 = trace_inner(alg, alg.product(a, b), c)
                rhs2 = trace_inner(alg, b, alg.product(a, c))
                assert abs(lhs2 - rhs2) < 1e-10
