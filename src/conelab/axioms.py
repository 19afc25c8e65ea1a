"""Axiom checkers: self-duality, weak self-duality, homogeneity witnesses,
and pure and continuous pure transitivity.

Soundness discipline: a failed witness construction is never reported as a
disproof.  Negative verdicts carry an invariant that normalized order
isomorphisms provably preserve (summand structure, face-dimension profiles);
anything else is reported as inconclusive or unsupported.

The checkers ask the cone kind (`conelab.cones`) and never branch on it;
the kind builds maps and invariants, and the purity of the inputs and the
finiteness, residual, unit and purity re-checks of every transitivity map
are made here, for every kind.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm
from operator import getitem

import numpy as np

from . import exact
from .cones import (FAILS, HOLDS, INCONCLUSIVE, ConeError, PolyhedralCone,
                    System, UnsupportedQuery, Verdict, first_non_extremal)

# sampled members (and dual points) of a non-polyhedral self-duality check
SELF_DUAL_SAMPLES = 200
# most extremal rays a bijection search takes; it tries up to n! bijections,
# one integer system each, and at 8! a lattice octagon's weak or SPD search
# FAILS after about 0.7 s (2-core host, Python 3.11)
SEARCH_CAP = 8
# maps along a continuous pure-transitivity path, past the identity
PATH_STEPS = 16


def check_self_dual(system: System, tol: float = 1e-9,
                    seed: int = 0) -> Verdict:
    """Is the cone its own dual under the coordinate dot product, K* = K?
    Exactly on a polyhedral cone (`exact_self_duality`); on the others by
    pairing SELF_DUAL_SAMPLES sampled pure states and the generators, then
    the kind's K* in K (`sampled_self_duality`)."""
    cone = system.cone
    return cone.exact_self_duality() or cone.sampled_self_duality(
        np.random.default_rng(seed), SELF_DUAL_SAMPLES, tol)


# -- ray/facet bijection searches (exact, polyhedral) ------------------------
#
# A bijection perm pairs ray i with facet perm[i]; it is realised by a map T
# with T r_i = mu_i f_{perm(i)} and every scale mu_i > 0.  The rays span R^d,
# so T is fixed by its values on a ray basis S with dual basis g:
#     T = sum_{j in S} mu_j f_{perm(j)} g_j^T.
# A ray i outside S has coordinates c_ij = g_j . r_i, and
# T r_i = sum_{j in S} c_ij mu_j f_{perm(j)} must be mu_i f_{perm(i)}: it
# must be parallel to f_{perm(i)}.  With c the first coordinate where
# q = f_{perm(i)} is nonzero, v is parallel to q exactly when
# v_a q_c = v_c q_a for every a != c, so that is d - 1 wedge rows in mu_S,
#     sum_{j in S} c_ij mu_j (f_{perm(j)} ^ q)_{ac} = 0,  a != c,
# and then mu_i = (T r_i)_a / q_a at any a where q_a != 0.
# A symmetric T adds one row per entry above the diagonal, also in mu_S.  So
# each bijection is one system in the d scales mu_S, and lifting its kernel
# to all n scales gives the kernel of the system in (T, mu) projected onto
# mu (mu = 0 forces T = 0).  The RREF null basis of a kernel depends on the
# subspace alone: its vector for free column f has its last nonzero entry,
# a 1, at f and is 0 at the other free columns, so with the columns
# reversed the basis is the subspace's RREF.  One `rref` of the lifted basis
# on reversed columns gives that basis exactly, whatever system it came
# from, so the LP vertex, the witnesses and the report bytes are those of
# the system in (T, mu).


def _to_integers(vecs) -> tuple[list[list[int]], int]:
    """Rational vectors times s, the lcm of all their denominators, and s."""
    s = lcm(*(x.denominator for v in vecs for x in v))
    return [[x.numerator * (s // x.denominator) for x in v] for v in vecs], s


class _ScaleSystems:
    """The bijection systems of one cone in the d basis scales mu_S.

    Holds a ray basis S (the first d independent rays) and its dual basis g,
    and integer tables for the rows: for each ray i outside S, its
    coordinates c_i scaled by the lcm s_i of their denominators and, for
    each facet q it may be paired with, c_ij times the d - 1 wedge entries
    p_a q_c - p_c q_a (a != c, c the first nonzero coordinate of q) for
    each j in S and each facet p; and for each j in S and each facet p, the
    entries a < b of f_p g_j^T - g_j f_p^T, scaled by one common
    denominator.
    """

    def __init__(self, rays, facets):
        self.rays = rays
        self.facets = facets
        self.n = len(rays)
        self.basis, self.dual = exact.dual_basis(rays)
        d = len(self.dual)
        ints, _ = _to_integers(facets)
        wedge = []
        for q in ints:
            c = next(a for a, x in enumerate(q) if x)
            wedge.append([[p[a] * q[c] - p[c] * q[a] for a in range(d)
                           if a != c] for p in ints])
        self.outside = []
        for i, r in enumerate(rays):
            if i not in self.basis:
                (c,), s = _to_integers([[exact.dot(g, r) for g in self.dual]])
                self.outside.append((i, c, s, [
                    [[[cj * x for x in by_p] for by_p in wedge_q] for cj in c]
                    for wedge_q in wedge]))
        dual, _ = _to_integers(self.dual)
        pairs = list(itertools.combinations(range(d), 2))
        self.skew = [[[p[a] * g[b] - p[b] * g[a] for a, b in pairs]
                      for p in ints] for g in dual]
        # the symmetry rows of each basis image (perm[j] for j in S), built
        # the first time a bijection has it
        self._skew_rows: dict[tuple[int, ...], list[tuple[int, ...]]] = {}

    def scale_space(self, perm, symmetric: bool) -> list[list[Fraction]]:
        """RREF null basis of the bijection's system in the n scales mu,
        from one null space in the d scales mu_S."""
        images = tuple(map(perm.__getitem__, self.basis))
        rows: list[tuple[int, ...]] = []
        for i, _, _, table in self.outside:
            rows += zip(*map(getitem, table[perm[i]], images))
        if symmetric:
            skew = self._skew_rows.get(images)
            if skew is None:
                skew = self._skew_rows[images] = list(
                    zip(*map(getitem, self.skew, images)))
            rows += skew
        # a simplicial cone has no rays outside S: every mu_S solves
        kernel = exact.null_space(rows or [[0] * len(self.basis)])
        if not kernel:
            return []
        lifted = [self._lift(perm, mu_s) for mu_s in kernel]
        red, _ = exact.rref([mu[::-1] for mu in lifted])
        return [mu[::-1] for mu in red[::-1]]

    def _lift(self, perm, mu_s) -> list[Fraction]:
        """All n scales from mu_S: mu_i = (T r_i)_a / f_{perm(i)}_a at the
        first a with f_{perm(i)}_a != 0."""
        mu = [Fraction(0)] * self.n
        for j, m in zip(self.basis, mu_s):
            mu[j] = m
        for i, c, s, _ in self.outside:
            f = self.facets[perm[i]]
            a = next(k for k, x in enumerate(f) if x)
            mu[i] = sum(cj * m * self.facets[perm[j]][a]
                        for cj, m, j in zip(c, mu_s, self.basis)) / (s * f[a])
        return mu

    def map_from_scales(self, perm, mu) -> list[list[Fraction]]:
        """T = sum_{j in S} mu_j f_{perm(j)} g_j^T."""
        d = len(self.dual)
        cols = [[mu[j] * x for x in self.facets[perm[j]]] for j in self.basis]
        return [[sum((col[a] * g[b] for col, g in zip(cols, self.dual)),
                     Fraction(0)) for b in range(d)] for a in range(d)]

    def carries_rays(self, perm, mu, t) -> bool:
        """T r_i = mu_i f_perm(i) with mu_i > 0 for every ray, exactly: true
        of every positive mu in the scale space, so a map that fails it is
        a failed construction."""
        facets = self.facets
        return all(m > 0 and exact.mat_vec(t, r) == [m * v for v in facets[p]]
                   for r, m, p in zip(self.rays, mu, perm))


def _combine(coeffs, vecs) -> list[Fraction]:
    return [sum((c * v[k] for c, v in zip(coeffs, vecs)), Fraction(0))
            for k in range(len(vecs[0]))]


def _spd_exact(t: list[list[Fraction]]) -> bool:
    """Sylvester's criterion by one elimination pass without pivoting: the
    k-th pivot is D_k / D_{k-1}, the ratio of leading principal minors, so
    every minor is positive exactly when every pivot is.  T must be
    symmetric: the criterion reads nothing above the diagonal."""
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


def _ray_facet_setup(cone: PolyhedralCone):
    rays = [cone.data.rays[i] for i in cone.data.extremal_ray_indices()]
    if len(rays) > SEARCH_CAP:
        raise UnsupportedQuery(f"search space exceeded: {len(rays)} rays > "
                               f"cap {SEARCH_CAP}")
    return rays, cone.data.facets()


def search_spd_self_duality(cone: PolyhedralCone) -> Verdict:
    """Exhaustive search for an SPD matrix mapping extremal rays onto facet
    normals (up to positive scales); exact infeasibility certificate when
    none exists.

    Each bijection is one integer system in the d scales mu_S of a ray
    basis S with dual basis g, for T = sum_{j in S} mu_j f_{perm(j)} g_j^T:
    d - 1 wedge rows per ray outside S, which make T r_i parallel to
    f_{perm(i)}, and d(d-1)/2 rows for the symmetry of T.  A nonzero kernel
    is lifted to all n scales and put in the RREF null basis of the system
    in (T, mu), which depends on the solution space alone.  T is built from
    mu only for a candidate; it must carry every ray exactly and equal its
    transpose, or the bijection's certificate is uncertified, and then pass
    the exact SPD test.
    """
    rays, facets = _ray_facet_setup(cone)
    if len(rays) != len(facets):
        return Verdict(FAILS, violation={
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
        # the LP vertex; in a larger solution space also seven perturbed
        # points, whose scales must stay positive
        points = [coeffs] + [[c + Fraction(shift, 17 + 3 * i)
                              for i, c in enumerate(coeffs)]
                             for shift in range(1, 8) if len(null) > 1]
        reason = ("unique solution is not SPD" if len(null) <= 1
                  else "no SPD point found in solution space")
        for mu in (_combine(p, null) for p in points):
            if any(m <= 0 for m in mu):
                continue
            t = systems.map_from_scales(perm, mu)
            # Sylvester's criterion below presumes T = T^T
            if not (systems.carries_rays(perm, mu, t)
                    and t == [list(col) for col in zip(*t)]):
                reason = "constructed map fails the exact re-check"
                break
            if _spd_exact(t):
                return Verdict(HOLDS, witness={
                    "bijection": perm, "gram": t, "scales": mu})
        cert = {"bijection": perm, "reason": reason,
                "solution_space_dim": len(null)}
        if reason != "unique solution is not SPD":
            cert["certified"] = False
        certificates.append(cert)
    certified = all(c.get("certified", True) for c in certificates)
    status = FAILS if certified else INCONCLUSIVE
    return Verdict(status, violation={"bijections": certificates},
                   detail=f"all {len(certificates)} bijections exhausted")


def search_weak_self_duality(cone: PolyhedralCone) -> Verdict:
    """Search for any invertible linear map carrying the cone onto its dual.

    Each bijection is one integer system in the d scales mu_S of a ray
    basis S with dual basis g: d - 1 wedge rows per ray outside S, which
    make T r_i parallel to f_{perm(i)}.  A nonzero kernel is lifted to all
    n scales and put in the RREF null basis of the system in (T, mu), which
    depends on the solution space alone.  The map
    T = sum_{j in S} mu_j f_{perm(j)} g_j^T is built only for a positive
    mu, and is checked exactly: invertible, and T r_i = mu_i f_{perm(i)}
    for every ray.  A map that fails either check is a failed construction,
    not a disproof.
    """
    rays, facets = _ray_facet_setup(cone)
    if len(rays) != len(facets):
        return Verdict(FAILS, violation={
            "ray_count": len(rays), "facet_count": len(facets)})
    d = cone.dim
    systems = _ScaleSystems(rays, facets)
    failed = []
    for perm in itertools.permutations(range(len(facets))):
        null = systems.scale_space(perm, symmetric=False)
        coeffs = exact.strictly_positive_in_span(null)
        if coeffs is None:
            continue
        mu = _combine(coeffs, null)
        t = systems.map_from_scales(perm, mu)
        if exact.rank(t) == d and systems.carries_rays(perm, mu, t):
            return Verdict(HOLDS, witness={
                "bijection": perm, "map": t, "scales": mu})
        failed.append(perm)
    if failed:
        return Verdict(INCONCLUSIVE, violation={
            "failed_constructions": failed})
    return Verdict(FAILS, detail="no bijection admits an invertible solution")


# -- homogeneity -------------------------------------------------------------


def homogeneity_witness(system: System, rho: np.ndarray, sigma: np.ndarray,
                        tol: float = 1e-9) -> np.ndarray:
    """Matrix of an order automorphism carrying the interior point rho to
    sigma, or the (k, d, d) stack of them for (k, d) stacks of pairs, by
    the cone kind's `homogeneity_maps`: on an EJA cone P(sqrt(sigma))
    P(rho^(-1/2))."""
    rho = np.asarray(rho, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if rho.ndim == 1:
        return homogeneity_witness(system, rho[None], sigma[None], tol)[0]
    return system.cone.homogeneity_maps(rho, sigma, tol)


# -- pure transitivity -------------------------------------------------------


def preserves_unit(m: np.ndarray, unit: np.ndarray) -> bool:
    """Is the unit functional pulled back through m the unit again, within
    1e-8: is u(m x) = u(x) for every x?  m may be one matrix or a
    (..., d, d) stack, which passes when every matrix in it does."""
    return bool(np.max(np.abs(np.swapaxes(m, -1, -2) @ unit - unit)) < 1e-8)


def _pure_inputs(system: System, w1, w2, tol: float) -> list:
    """The summand index pair (None off summands) of a pair of states, or
    of each pair of (k, dim) stacks.  Raises ConeError unless every state
    is pure and in one summand; one `first_non_extremal` and one
    `summands_of` call take every state."""
    # w1[0], w2[0], w1[1], ...: the rows of the pairs in turn
    states = np.array([w1, w2], dtype=float).swapaxes(0, -2)
    states = states.reshape(-1, states.shape[-1])
    cone = system.cone
    where = (cone.summands_of(states)
             if first_non_extremal(cone, states, tol) is None else None)
    if where is None:
        raise ConeError("transitivity checks need pure states, each in a "
                        "single summand")
    return list(zip(where[0::2], where[1::2]))


def pure_transitivity_witness(system: System, w1: np.ndarray, w2: np.ndarray,
                              tol: float = 1e-9) -> Verdict:
    """Normalized order isomorphism carrying pure w1 to pure w2, or an
    automorphism-invariant reason none exists.  For (k, dim) stacks of
    pairs: the verdict of the first pair that does not hold, else HOLDS with
    the maps and the largest residual.  An invalid state anywhere raises
    ConeError before any map is built."""
    w1, w2 = np.asarray(w1, dtype=float), np.asarray(w2, dtype=float)
    held = []
    for a, b, pair in zip(np.atleast_2d(w1), np.atleast_2d(w2),
                          _pure_inputs(system, w1, w2, tol)):
        v = _transitivity_map(system, a, b, pair, tol)
        if v.status != HOLDS:
            return v
        held.append(v)
    if w1.ndim == 1:
        return held[0]
    return Verdict(HOLDS, witness=[v.witness for v in held],
                   margin=max([0.0] + [v.margin for v in held]))


def _transitivity_map(system: System, w1: np.ndarray, w2: np.ndarray, where,
                      tol: float) -> Verdict:
    """`pure_transitivity_witness` on one valid pair, in summands `where`:
    the kind's `transitivity_map`, a map re-checked here or its invariant
    verdict; off summands, the kind's `face_profile` of each state."""
    cone = system.cone
    if where == (None, None):
        p1, p2 = (cone.face_profile(system, w, tol) for w in (w1, w2))
        if p1 is None or p2 is None:
            return Verdict(INCONCLUSIVE,
                           detail="face dimension at sigma* misses the "
                                  "closed-form profile")
        if p1 != p2:
            return Verdict(FAILS, violation={"face_profiles": (p1, p2)},
                           detail="face-dimension profiles differ; "
                                  "normalized order isomorphisms preserve "
                                  "them")
        return Verdict(INCONCLUSIVE,
                       detail="profiles agree; no constructor and no "
                              "separating invariant")
    phi = cone.transitivity_map(w1, w2, where)
    if isinstance(phi, Verdict):
        return phi
    if not np.all(np.isfinite(phi)):
        return Verdict(INCONCLUSIVE, detail="constructed map is not finite")
    resid = float(np.max(np.abs(phi @ w1 - w2)))
    if not (resid < 1e-8 and preserves_unit(phi, system.unit)):
        return Verdict(INCONCLUSIVE, margin=resid,
                       detail="constructed map misses w2 or moves the unit")
    return Verdict(HOLDS, witness=phi, margin=resid)


def continuous_pure_transitivity(system: System, w1: np.ndarray,
                                 w2: np.ndarray, tol: float = 1e-9) -> Verdict:
    """Continuous path of pure states carried by normalized automorphisms,
    PATH_STEPS + 1 (state, matrix) pairs from the kind's `path_maps`, or
    the disjoint-summand obstruction."""
    w1, w2 = np.asarray(w1, dtype=float), np.asarray(w2, dtype=float)
    [(i1, i2)] = _pure_inputs(system, w1, w2, tol)
    if i1 != i2:
        return Verdict(FAILS, violation={"summands": (i1, i2)},
                       detail="pure states of distinct summands lie in "
                              "subspaces intersecting only in {0}")
    maps = system.cone.path_maps(
        w1, w2, i1, [k / PATH_STEPS for k in range(PATH_STEPS + 1)])
    finite = np.all(np.isfinite(maps), axis=(-2, -1))
    if not finite.all():
        k = int(np.argmin(finite))
        return Verdict(INCONCLUSIVE, detail="constructed path is not finite "
                                            f"at t={k / PATH_STEPS}")
    # one matrix-vector product per map, as for a map built alone
    states = np.array([full @ w1 for full in maps])
    lost = first_non_extremal(system.cone, states, tol)
    if lost is not None:
        return Verdict(INCONCLUSIVE, detail="constructed path loses purity "
                                            f"at t={lost / PATH_STEPS}")
    resid = float(np.max(np.abs(states[-1] - w2)))
    if not (resid < 1e-8 and preserves_unit(maps, system.unit)):
        return Verdict(INCONCLUSIVE, margin=resid,
                       detail="constructed path misses w2 or moves the unit")
    return Verdict(HOLDS, witness=list(zip(states, maps)), margin=resid)
