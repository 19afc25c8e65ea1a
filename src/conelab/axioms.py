"""Axiom checkers: self-duality, weak self-duality, homogeneity witnesses,
pure and continuous pure transitivity, and classical effects.

Soundness discipline: a failed witness construction is never reported as a
disproof.  Negative verdicts carry an invariant that normalized order
isomorphisms provably preserve (summand structure, face-dimension profiles);
anything else is reported as inconclusive or unsupported.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import exact
from .cones import (ConeError, EJACone, PolyhedralCone, PositiveMap,
                    SharedCornerCone, System, UnsupportedQuery,
                    face_dimension, is_extremal_ray, is_order_isomorphism)

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"
UNSUPPORTED = "unsupported"


@dataclass
class AxiomVerdict:
    axiom: str
    status: str
    witness: object = None
    violation: object = None
    margin: float = float("nan")
    detail: str = ""

    @property
    def holds(self) -> bool:
        return self.status == HOLDS


def _require_spd(inner: np.ndarray, tol: float):
    if not np.allclose(inner, inner.T, atol=1e-12):
        raise ConeError("inner product matrix must be symmetric")
    if np.min(np.linalg.eigvalsh(inner)) <= tol:
        raise ConeError("inner product matrix must be positive definite")


def check_self_dual(system: System, inner: np.ndarray | None = None,
                    tol: float = 1e-9, samples: int = 200,
                    seed: int = 0) -> AxiomVerdict:
    """Is the cone equal to its dual under the given inner product?

    Polyhedral cones get an exact two-sided verdict.  EJA cones are checked
    with the trace-form route (sampled pairwise nonnegativity plus membership
    of pulled-back dual extremals).  The shared-corner cone has a closed-form
    dual description, so violations there are explicit.  Anything else is
    inconclusive by sampling.
    """
    cone = system.cone
    n = cone.dim
    inner = np.eye(n) if inner is None else np.asarray(inner, dtype=float)
    _require_spd(inner, tol)
    rng = np.random.default_rng(seed)

    if isinstance(cone, PolyhedralCone):
        g_exact = [[Fraction(inner[i, j]).limit_denominator(10**12)
                    for j in range(n)] for i in range(n)]
        rays = [cone.data.rays[i] for i in cone.data.extremal_ray_indices()]
        for ri, rj in itertools.combinations_with_replacement(rays, 2):
            val = exact.dot(exact.mat_vec(g_exact, ri), rj)
            if val < 0:
                return AxiomVerdict("self-dual", FAILS, violation={
                    "pair": (ri, rj), "inner_value": val},
                    detail="generator pair with negative inner product")
        for f in cone.data.facets():
            pulled = exact.solve(g_exact, list(f))
            if pulled is None or not cone.data.member(pulled):
                return AxiomVerdict("self-dual", FAILS, violation={
                    "facet_normal": f},
                    detail="dual extremal pulls back outside the cone")
        return AxiomVerdict("self-dual", HOLDS, witness={"inner": inner},
                            margin=0.0, detail="exact two-sided inclusion")

    inv = np.linalg.inv(inner)
    members = list(cone.generators())
    members += [cone.sample_extremal(rng) for _ in range(samples)]
    worst = np.inf
    for a, b in itertools.combinations_with_replacement(members, 2):
        v = float(a @ inner @ b)
        worst = min(worst, v)
        if v < -tol:
            return AxiomVerdict("self-dual", FAILS, violation={
                "pair": (a, b), "inner_value": v}, margin=v)

    if isinstance(cone, EJACone):
        for e in members:  # trace-form dual extremals coincide with primal
            if not cone.member(inv @ e, tol):
                return AxiomVerdict("self-dual", FAILS, violation={
                    "dual_extremal": e}, margin=cone.margin(inv @ e))
        return AxiomVerdict("self-dual", HOLDS, witness={"inner": inner},
                            margin=worst, detail="trace-form route")

    if isinstance(cone, SharedCornerCone):
        for _ in range(samples):
            e2, e3 = rng.random(2) + 0.1
            e4, e5 = 2.0 * rng.standard_normal(2)
            e = np.array([e4 * e4 / (4 * e2) + e5 * e5 / (4 * e3),
                          e2, e3, e4, e5])
            pulled = inv @ e
            if not cone.member(pulled, tol):
                return AxiomVerdict("self-dual", FAILS, violation={
                    "dual_extremal": e}, margin=cone.margin(pulled),
                    detail="closed-form dual boundary point outside the cone")
        return AxiomVerdict("self-dual", INCONCLUSIVE, margin=worst)

    return AxiomVerdict("self-dual", INCONCLUSIVE, margin=worst,
                        detail="sampled inclusion only")


# -- ray/facet bijection searches (exact, polyhedral) ------------------------


def _bijection_system(rays, facets, perm, symmetric: bool):
    """Null space of {T r_i = mu_i f_{perm(i)}}, unknowns (T entries, mu)."""
    d = len(rays[0])
    n = len(rays)
    nt = d * d
    rows: list[list[Fraction]] = []
    for i in range(n):
        f = facets[perm[i]]
        for a in range(d):
            row = [Fraction(0)] * (nt + n)
            for b in range(d):
                row[a * d + b] = rays[i][b]
            row[nt + i] = -f[a]
            rows.append(row)
    if symmetric:
        for a in range(d):
            for b in range(a + 1, d):
                row = [Fraction(0)] * (nt + n)
                row[a * d + b] = Fraction(1)
                row[b * d + a] = Fraction(-1)
                rows.append(row)
    return exact.null_space(rows)


def _spd_exact(t: list[list[Fraction]]) -> bool:
    """Leading principal minors, exactly."""
    d = len(t)
    for k in range(1, d + 1):
        sub = [row[:k] for row in t[:k]]
        red, pivots = exact.rref(sub)
        if len(pivots) < k:
            return False
        det = Fraction(1)
        # determinant via fraction-free-enough elimination
        m = [row[:] for row in sub]
        for c in range(k):
            piv = next((i for i in range(c, k) if m[i][c] != 0), None)
            if piv is None:
                return False
            if piv != c:
                m[c], m[piv] = m[piv], m[c]
                det = -det
            det *= m[c][c]
            for i in range(c + 1, k):
                f = m[i][c] / m[c][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
        if det <= 0:
            return False
    return True


def _ray_facet_setup(cone: PolyhedralCone, cap: int):
    rays = [cone.data.rays[i] for i in cone.data.extremal_ray_indices()]
    facets = cone.data.facets()
    if len(rays) > cap:
        raise UnsupportedQuery(f"search space exceeded: {len(rays)} rays > cap {cap}")
    return rays, facets


def search_spd_self_duality(cone: PolyhedralCone, cap: int = 12) -> AxiomVerdict:
    """Exhaustive search for an SPD matrix mapping extremal rays onto facet
    normals (up to positive scales); exact infeasibility certificate when
    none exists."""
    rays, facets = _ray_facet_setup(cone, cap)
    if len(rays) != len(facets):
        return AxiomVerdict("spd-self-duality", FAILS, violation={
            "ray_count": len(rays), "facet_count": len(facets)},
            detail="ray and facet counts differ: no bijection exists")
    certificates = []
    for perm in itertools.permutations(range(len(facets))):
        null = _bijection_system(rays, facets, perm, symmetric=True)
        d = cone.dim
        mu_rows = [vec[d * d:] for vec in null]
        coeffs = exact.strictly_positive_in_span(mu_rows)
        if coeffs is None:
            certificates.append({"bijection": perm, "reason": "no positive scales",
                                 "solution_space_dim": len(null)})
            continue
        combo = [sum((c * vec[k] for c, vec in zip(coeffs, null)), Fraction(0))
                 for k in range(len(null[0]))]
        t = [combo[a * d:(a + 1) * d] for a in range(d)]
        if _spd_exact(t):
            return AxiomVerdict("spd-self-duality", HOLDS, witness={
                "bijection": perm, "gram": t,
                "scales": combo[d * d:]})
        if len(null) <= 1:
            certificates.append({"bijection": perm,
                                 "reason": "unique solution is not SPD",
                                 "solution_space_dim": len(null)})
            continue
        # Multi-dimensional solution space: the LP vertex was not SPD; decide
        # by scanning the (small) space of positive-scale solutions.
        found = False
        for shift in range(1, 8):
            pert = [c + Fraction(shift, 17 + 3 * i)
                    for i, c in enumerate(coeffs)]
            mu = [sum((c * row[i] for c, row in zip(pert, mu_rows)), Fraction(0))
                  for i in range(len(rays))]
            if any(m <= 0 for m in mu):
                continue
            combo = [sum((c * vec[k] for c, vec in zip(pert, null)), Fraction(0))
                     for k in range(len(null[0]))]
            t = [combo[a * d:(a + 1) * d] for a in range(d)]
            if _spd_exact(t):
                found = True
                break
        if found:
            return AxiomVerdict("spd-self-duality", HOLDS, witness={
                "bijection": perm, "gram": t, "scales": combo[d * d:]})
        certificates.append({"bijection": perm,
                             "reason": "no SPD point found in solution space",
                             "solution_space_dim": len(null),
                             "certified": len(null) <= 1})
    certified = all(c.get("certified", True) for c in certificates)
    status = FAILS if certified else INCONCLUSIVE
    return AxiomVerdict("spd-self-duality", status,
                        violation={"bijections": certificates},
                        detail=f"all {len(certificates)} bijections exhausted")


def search_weak_self_duality(cone: PolyhedralCone, cap: int = 12) -> AxiomVerdict:
    """Search for any invertible linear map carrying the cone onto its dual."""
    rays, facets = _ray_facet_setup(cone, cap)
    if len(rays) != len(facets):
        return AxiomVerdict("weak-self-duality", FAILS, violation={
            "ray_count": len(rays), "facet_count": len(facets)})
    d = cone.dim
    for perm in itertools.permutations(range(len(facets))):
        null = _bijection_system(rays, facets, perm, symmetric=False)
        mu_rows = [vec[d * d:] for vec in null]
        coeffs = exact.strictly_positive_in_span(mu_rows)
        if coeffs is None:
            continue
        combo = [sum((c * vec[k] for c, vec in zip(coeffs, null)), Fraction(0))
                 for k in range(len(null[0]))]
        t = [combo[a * d:(a + 1) * d] for a in range(d)]
        if exact.rank(t) < d:
            continue
        # exact verification: T maps every ray onto the matched facet normal
        ok = True
        for i, r in enumerate(rays):
            img = exact.mat_vec(t, r)
            mu = combo[d * d + i]
            expect = [mu * v for v in facets[perm[i]]]
            if img != expect or mu <= 0:
                ok = False
                break
        if ok:
            return AxiomVerdict("weak-self-duality", HOLDS, witness={
                "bijection": perm, "map": t, "scales": combo[d * d:]})
    return AxiomVerdict("weak-self-duality", FAILS,
                        detail="no bijection admits an invertible solution")


# -- homogeneity -------------------------------------------------------------


def homogeneity_witness(system: System, rho: np.ndarray, sigma: np.ndarray,
                        tol: float = 1e-9) -> PositiveMap:
    """Order automorphism carrying the interior point rho to sigma."""
    cone = system.cone
    rho = np.asarray(rho, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if isinstance(cone, EJACone):
        alg = cone.algebra
        if alg.min_eigenvalue(rho) <= tol or alg.min_eigenvalue(sigma) <= tol:
            raise ConeError("homogeneity witness requires interior points")
        phi = alg.quadratic_rep(alg.sqrt(sigma)) @ alg.quadratic_rep(alg.inv_sqrt(rho))
        return PositiveMap(phi, system, system)
    if isinstance(cone, SharedCornerCone):
        if cone.margin(rho) <= tol or cone.margin(sigma) <= tol:
            raise ConeError("homogeneity witness requires interior points")
        phi = cone.transport_from_basepoint(sigma) @ cone.transport_to_basepoint(rho)
        return PositiveMap(phi, system, system)
    raise UnsupportedQuery("no witness constructor for this cone variant")


def probabilistic_inverse(pmap: PositiveMap, rng=None,
                          samples: int = 20) -> tuple[np.ndarray, float]:
    """Sub-normalized positive left-inverse: returns (Phi_sharp, p) with
    Phi_sharp @ Phi = p * id."""
    inv = np.linalg.inv(pmap.matrix)
    pts = pmap.source.base_generators()
    if rng is not None:
        pts += [pmap.source.sample_pure(rng) for _ in range(samples)]
    vals = [float(pmap.target.unit @ (inv @ x)) for x in pts]
    p = 1.0 / max(max(vals), 1e-300)
    return p * inv, p


# -- pure transitivity -------------------------------------------------------


def face_profile(system: System, w: np.ndarray, samples: int = 200,
                 seed: int = 11, tol: float = 1e-9) -> int:
    """max over sampled pure sigma of dim span Face(w + sigma): invariant
    under normalized order automorphisms."""
    rng = np.random.default_rng(seed)
    best = 0
    for _ in range(samples):
        sigma = system.sample_pure(rng)
        best = max(best, face_dimension(system.cone, w + sigma, tol=tol))
        if best == system.dim:
            break
    return best


def _summand_swap(alg, i: int, j: int) -> np.ndarray:
    si, sj = alg.summands[i].sl, alg.summands[j].sl
    m = np.eye(alg.dim)
    m[si.start:si.stop, si.start:si.stop] = 0.0
    m[sj.start:sj.stop, sj.start:sj.stop] = 0.0
    for a in range(alg.summands[i].factor.dim):
        m[sj.start + a, si.start + a] = 1.0
        m[si.start + a, sj.start + a] = 1.0
    return m


def pure_transitivity_witness(system: System, w1: np.ndarray, w2: np.ndarray,
                              tol: float = 1e-9) -> AxiomVerdict:
    """Normalized order isomorphism carrying pure w1 to pure w2, or an
    automorphism-invariant reason none exists."""
    cone = system.cone
    w1 = np.asarray(w1, dtype=float)
    w2 = np.asarray(w2, dtype=float)
    for w in (w1, w2):
        if not is_extremal_ray(cone, w, tol):
            raise ConeError("pure transitivity requires extremal inputs")

    if isinstance(cone, EJACone):
        alg = cone.algebra
        i1 = alg.summand_of(w1, tol=1e-7)
        i2 = alg.summand_of(w2, tol=1e-7)
        if i1 is None or i2 is None:
            raise ConeError("pure states must live in a single summand")
        f1 = alg.summands[i1].factor
        f2 = alg.summands[i2].factor
        if f1.descriptor() != f2.descriptor():
            return AxiomVerdict("pure-transitivity", FAILS, violation={
                "summands": (f1.descriptor(), f2.descriptor())},
                detail="pure states lie in non-isomorphic simple summands")
        phi = np.eye(alg.dim)
        moved = w1
        if i1 != i2:
            phi = _summand_swap(alg, i1, i2)
            moved = phi @ w1
        rot = f2.rotation_generator(moved[alg.summands[i2].sl],
                                    w2[alg.summands[i2].sl])
        full = np.eye(alg.dim)
        sl = alg.summands[i2].sl
        full[sl.start:sl.stop, sl.start:sl.stop] = rot(1.0)
        phi = full @ phi
        pmap = PositiveMap(phi, system, system, normalized=True)
        resid = float(np.max(np.abs(phi @ w1 - w2)))
        return AxiomVerdict("pure-transitivity", HOLDS, witness=pmap,
                            margin=resid)

    if isinstance(cone, SharedCornerCone):
        p1 = face_profile(system, w1, tol=tol)
        p2 = face_profile(system, w2, tol=tol)
        if p1 != p2:
            return AxiomVerdict("pure-transitivity", FAILS, violation={
                "face_profiles": (p1, p2)},
                detail="face-dimension profiles differ; normalized order "
                       "isomorphisms preserve them")
        return AxiomVerdict("pure-transitivity", INCONCLUSIVE,
                            detail="profiles agree; no constructor and no "
                                   "separating invariant")

    raise UnsupportedQuery("pure transitivity checker needs an EJA or "
                           "shared-corner system")


def continuous_pure_transitivity(system: System, w1: np.ndarray,
                                 w2: np.ndarray, steps: int = 16,
                                 tol: float = 1e-9) -> AxiomVerdict:
    """Continuous path of pure states carried by normalized automorphisms,
    or the disjoint-summand obstruction."""
    if steps <= 0:
        raise ConeError("steps must be positive")
    cone = system.cone
    if not isinstance(cone, EJACone):
        raise UnsupportedQuery("continuous pure transitivity checker needs "
                               "an EJA system")
    w1 = np.asarray(w1, dtype=float)
    w2 = np.asarray(w2, dtype=float)
    for w in (w1, w2):
        if not is_extremal_ray(cone, w, tol):
            raise ConeError("inputs must be pure")
    alg = cone.algebra
    i1 = alg.summand_of(w1, tol=1e-7)
    i2 = alg.summand_of(w2, tol=1e-7)
    if i1 != i2:
        return AxiomVerdict("continuous-pure-transitivity", FAILS, violation={
            "summands": (i1, i2)},
            detail="pure states of distinct summands lie in subspaces "
                   "intersecting only in {0}")
    f = alg.summands[i1].factor
    sl = alg.summands[i1].sl
    rot = f.rotation_generator(w1[sl], w2[sl])
    path = []
    for k in range(steps + 1):
        t = k / steps
        full = np.eye(alg.dim)
        full[sl.start:sl.stop, sl.start:sl.stop] = rot(t)
        wt = full @ w1
        if not is_extremal_ray(cone, wt, tol):
            return AxiomVerdict("continuous-pure-transitivity", INCONCLUSIVE,
                                detail=f"constructed path loses purity at t={t}")
        path.append((wt, PositiveMap(full, system, system, normalized=True)))
    return AxiomVerdict("continuous-pure-transitivity", HOLDS, witness=path,
                        margin=float(np.max(np.abs(path[-1][0] - w2))))


def classical_effect_test(system: System, e: np.ndarray,
                          tol: float = 1e-9) -> bool:
    """Does e evaluate to 0 or 1 on every pure state?"""
    e = np.asarray(e, dtype=float)
    if not system.effect_member(e, max(tol, 1e-8)):
        raise ConeError("effect outside the interval [0, unit]")
    cone = system.cone
    if isinstance(cone, EJACone):
        alg = cone.algebra
        for s in alg.summands:
            # spin coordinates pair through twice the Euclidean dot, so the
            # algebra element realizing the effect is half its coordinates
            coords = e[s.sl].copy()
            if s.factor.family == "spin":
                coords = coords / 2.0
            vals = s.factor.spectral(coords).eigenvalues
            near0 = np.abs(vals) < tol
            near1 = np.abs(vals - 1.0) < tol
            if not np.all(near0 | near1):
                return False
            if np.any(near0) and np.any(near1):
                return False
        return True
    rng = np.random.default_rng(5)
    for _ in range(200):
        w = system.sample_pure(rng)
        v = float(e @ w)
        if min(abs(v), abs(v - 1.0)) > max(tol, 1e-8):
            return False
    return True
