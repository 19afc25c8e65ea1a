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
#
# A bijection perm pairs ray i with facet perm[i]; it is realised by a map T
# with T r_i = mu_i f_{perm(i)} and every scale mu_i > 0.  The rays span R^d,
# so T is fixed by its values on a ray basis S with dual basis g:
#     T = sum_{j in S} mu_j f_{perm(j)} g_j^T,
# and each bijection is a linear system in the n scales alone.  A ray i
# outside S has coordinates c_ij = g_j . r_i and contributes the d rows
#     sum_{j in S} c_ij mu_j f_{perm(j)} - mu_i f_{perm(i)} = 0;
# a symmetric T adds one row per entry above the diagonal.  mu = 0 forces
# T = 0, so this null space is the mu-part of the one in the unknowns
# (T, mu), with the same RREF basis.


class _ScaleSystems:
    """The bijection systems of one cone in the scales mu.

    Holds a ray basis S (the first d independent rays), its dual basis g,
    and every product the rows need: c_ij f for each ray i outside S, each
    j in S and each facet f, and f_a g_b - f_b g_a for each j in S, each
    facet f and each a < b.
    """

    def __init__(self, rays, facets):
        self.facets = facets
        self.n = len(rays)
        self.basis, self.dual = exact.dual_basis(rays)
        d = len(self.dual)
        self.outside = [
            (i, [[[c * x for x in f] for f in facets]
                 for c in (exact.dot(g, r) for g in self.dual)])
            for i, r in enumerate(rays) if i not in self.basis]
        self.skew = [[[f[a] * g[b] - f[b] * g[a]
                       for a in range(d) for b in range(a + 1, d)]
                      for f in facets] for g in self.dual]

    def scale_space(self, perm, symmetric: bool) -> list[list[Fraction]]:
        """Null space of the bijection's system in the scales mu."""
        n = self.n
        rows: list[list[Fraction]] = []
        for i, scaled in self.outside:
            for a, x in enumerate(self.facets[perm[i]]):
                row = [Fraction(0)] * n
                for j, by_facet in zip(self.basis, scaled):
                    row[j] = by_facet[perm[j]][a]
                row[i] = -x
                rows.append(row)
        if symmetric:
            for pair in range(len(self.skew[0][0])):
                row = [Fraction(0)] * n
                for j, by_facet in zip(self.basis, self.skew):
                    row[j] = by_facet[perm[j]][pair]
                rows.append(row)
        # a simplicial cone has no rays outside S: every mu solves
        return exact.null_space(rows or [[Fraction(0)] * n])

    def map_from_scales(self, perm, mu) -> list[list[Fraction]]:
        """T = sum_{j in S} mu_j f_{perm(j)} g_j^T."""
        d = len(self.dual)
        cols = [[mu[j] * x for x in self.facets[perm[j]]] for j in self.basis]
        return [[sum((col[a] * g[b] for col, g in zip(cols, self.dual)),
                     Fraction(0)) for b in range(d)] for a in range(d)]


def _combine(coeffs, vecs) -> list[Fraction]:
    return [sum((c * v[k] for c, v in zip(coeffs, vecs)), Fraction(0))
            for k in range(len(vecs[0]))]


def _spd_exact(t: list[list[Fraction]]) -> bool:
    """Sylvester's criterion by one elimination pass without pivoting: the
    k-th pivot is D_k / D_{k-1}, the ratio of leading principal minors, so
    every minor is positive exactly when every pivot is."""
    m = [row[:] for row in t]
    d = len(m)
    for c in range(d):
        piv = m[c][c]
        if piv <= 0:
            return False
        for i in range(c + 1, d):
            f = m[i][c] / piv
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return True


def _ray_facet_setup(cone: PolyhedralCone, cap: int):
    rays = [cone.data.rays[i] for i in cone.data.extremal_ray_indices()]
    if len(rays) > cap:
        raise UnsupportedQuery(f"search space exceeded: {len(rays)} rays > cap {cap}")
    return rays, cone.data.facets()


def search_spd_self_duality(cone: PolyhedralCone, cap: int = 12) -> AxiomVerdict:
    """Exhaustive search for an SPD matrix mapping extremal rays onto facet
    normals (up to positive scales); exact infeasibility certificate when
    none exists.

    Each bijection is one linear system in the n scales mu: the map is
    T = sum_{j in S} mu_j f_{perm(j)} g_j^T over a ray basis S with dual
    basis g, and symmetry of T adds d(d-1)/2 rows.  T is built from mu only
    for a candidate, which must then pass the exact SPD test.
    """
    rays, facets = _ray_facet_setup(cone, cap)
    if len(rays) != len(facets):
        return AxiomVerdict("spd-self-duality", FAILS, violation={
            "ray_count": len(rays), "facet_count": len(facets)},
            detail="ray and facet counts differ: no bijection exists")
    systems = _ScaleSystems(rays, facets)
    certificates = []
    for perm in itertools.permutations(range(len(facets))):
        null = systems.scale_space(perm, symmetric=True)
        coeffs = exact.strictly_positive_in_span(null)
        if coeffs is None:
            certificates.append({"bijection": perm, "reason": "no positive scales",
                                 "solution_space_dim": len(null)})
            continue
        mu = _combine(coeffs, null)
        t = systems.map_from_scales(perm, mu)
        if _spd_exact(t):
            return AxiomVerdict("spd-self-duality", HOLDS, witness={
                "bijection": perm, "gram": t, "scales": mu})
        if len(null) <= 1:
            certificates.append({"bijection": perm,
                                 "reason": "unique solution is not SPD",
                                 "solution_space_dim": len(null)})
            continue
        # Multi-dimensional solution space: the LP vertex was not SPD; decide
        # by scanning the (small) space of positive-scale solutions.
        for shift in range(1, 8):
            pert = [c + Fraction(shift, 17 + 3 * i)
                    for i, c in enumerate(coeffs)]
            mu = _combine(pert, null)
            if any(m <= 0 for m in mu):
                continue
            t = systems.map_from_scales(perm, mu)
            if _spd_exact(t):
                return AxiomVerdict("spd-self-duality", HOLDS, witness={
                    "bijection": perm, "gram": t, "scales": mu})
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
    """Search for any invertible linear map carrying the cone onto its dual.

    Each bijection is one linear system in the n scales mu; the map
    T = sum_{j in S} mu_j f_{perm(j)} g_j^T over a ray basis S with dual
    basis g is built only for a positive mu, and is checked exactly:
    invertible, and T r_i = mu_i f_{perm(i)} for every ray.
    """
    rays, facets = _ray_facet_setup(cone, cap)
    if len(rays) != len(facets):
        return AxiomVerdict("weak-self-duality", FAILS, violation={
            "ray_count": len(rays), "facet_count": len(facets)})
    d = cone.dim
    systems = _ScaleSystems(rays, facets)
    for perm in itertools.permutations(range(len(facets))):
        null = systems.scale_space(perm, symmetric=False)
        coeffs = exact.strictly_positive_in_span(null)
        if coeffs is None:
            continue
        mu = _combine(coeffs, null)
        t = systems.map_from_scales(perm, mu)
        if exact.rank(t) < d:
            continue
        # exact verification: T maps every ray onto the matched facet normal
        if all(m > 0 and exact.mat_vec(t, r) == [m * v for v in facets[p]]
               for r, m, p in zip(rays, mu, perm)):
            return AxiomVerdict("weak-self-duality", HOLDS, witness={
                "bijection": perm, "map": t, "scales": mu})
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
