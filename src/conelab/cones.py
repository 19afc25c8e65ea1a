"""Cone models with membership oracles and generic geometric queries.

Variants: exact-rational polyhedral cones, EJA positive cones, and the
five-dimensional shared-corner cone (two 2x2 PSD blocks agreeing in the
top-left entry).  Composite cones live in `conelab.composite` and plug into
the same query functions.

dim span Face(x) has one exact rule per cone kind, each a linearly
independent `face_span_basis` of the span: the null space of the facet
normals tight at x on a polyhedral cone (Ziegler, Lectures on Polytopes,
1995), of which `face_dimension` reads only the rank; the range of U_p, the
Peirce 1-space of x's support idempotent p, on an EJA cone (Faraut and
Koranyi, Analysis on Symmetric Cones, 1994); the symmetric matrices on each
block's range, cut by the shared corner, on the shared-corner cone;
span Face(a) (x) span Face(b) at a max-tensor product a (x) b; and the
rotated inner span on a linear image.  A kind without a rule is
UNSUPPORTED.  Extremality has one rule per kind too, `extremal_rows`: one
eigenvalue above tolerance and none below on an EJA cone (Faraut and
Koranyi), the inner rule at R x on a linear image after its `member`
precondition, and face dimension 1 on every other kind.

The checks in `conelab.axioms` ask the kind the rest, and a kind without
an answer is UNSUPPORTED.  Self-duality is exact on a polyhedral cone and
sampled elsewhere, closed by the trace form on an EJA cone and tested on
`dual_floor` on the shared corner, whose `face_profile` decides pure
transitivity as an EJA's `transitivity_map` does; paths are EJA-only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exact
from .eja import JordanAlgebra, _norms
from .exact import ConeError, UnsupportedQuery

DEFAULT_TOL = 1e-9
# sampled extremals per side of an order-isomorphism check, and the seed
# of its samples
ISO_SAMPLES = 50
ISO_SEED = 7


HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"
UNSUPPORTED = "unsupported"


class ConeModel:
    """Interface shared by all cone variants."""

    dim: int

    def member(self, x: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
        raise NotImplementedError

    def members(self, xs: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
        """`member` of each row of a (k, dim) stack, as a bool array."""
        return np.array([self.member(x, tol) for x in xs], dtype=bool)

    def margin(self, x: np.ndarray) -> float:
        """Signed membership margin (>= 0 inside, < 0 outside)."""
        raise NotImplementedError

    def margins(self, xs: np.ndarray) -> np.ndarray:
        """`margin` of each row of a (k, dim) stack, as a float array."""
        return np.array([self.margin(x) for x in xs], dtype=float)

    def dual_member(self, e: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
        raise NotImplementedError

    def dual_members(self, es: np.ndarray,
                     tol: float = DEFAULT_TOL) -> np.ndarray:
        """`dual_member` of each row of a (k, dim) stack, as a bool array."""
        return np.array([self.dual_member(e, tol) for e in es], dtype=bool)

    def generators(self) -> list[np.ndarray]:
        """A finite spanning family of cone members (extremal where known)."""
        raise NotImplementedError

    def sample_extremal(self, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def sample_extremals(self, rng: np.random.Generator,
                         count: int) -> np.ndarray:
        """`count` calls of `sample_extremal`, as a (count, dim) stack."""
        return np.array([self.sample_extremal(rng)
                         for _ in range(count)]).reshape(count, self.dim)

    def face_span_basis(self, x: np.ndarray, tol: float) -> list[np.ndarray]:
        """A linearly independent basis of span Face(x) for a member x, by
        the cone kind's exact rule; `face_dimension` reads its length.  A
        kind without a rule raises UnsupportedQuery, naming the class."""
        raise UnsupportedQuery(f"no face rule for {type(self).__name__}")

    def extremal_rows(self, xs: np.ndarray, tol: float) -> np.ndarray:
        """Is each row of a (k, dim) stack of finite nonzero elements on an
        extremal ray, as a bool array, by the cone kind's rule; here
        `face_dimension` is 1, and a non-member row raises ConeError."""
        return np.array([face_dimension(self, x, tol) == 1 for x in xs],
                        dtype=bool)

    def sample_interiors(self, rng: np.random.Generator,
                         count: int) -> np.ndarray:
        """`count` interior points as a (count, dim) stack, drawn in turn."""
        raise UnsupportedQuery("no interior sampler for this cone")

    def homogeneity_maps(self, rho: np.ndarray, sigma: np.ndarray,
                         tol: float) -> np.ndarray:
        """The (k, dim, dim) stack of order automorphisms carrying each row
        of rho to that of sigma; a non-interior row raises ConeError."""
        raise UnsupportedQuery("no witness constructor for this cone variant")

    def reducible(self) -> bool:
        """Is the cone a direct sum of two nonzero cones?"""
        raise UnsupportedQuery("no splitting test for this cone")

    def exact_self_duality(self) -> "Verdict | None":
        """The kind's exact verdict on K* = K, or None to sample it."""
        return None

    def sampled_self_duality(self, rng: np.random.Generator, count: int,
                             tol: float) -> "Verdict":
        """K* = K by sampling.  K in K*: the generators and `count` sampled
        extremals pair two by two, read from one Gram matrix; a FAILS names
        the first pair i <= j with a negative entry, and any other verdict
        has the least entry as margin.  K* in K is the kind's; here open."""
        members = np.concatenate([
            np.reshape(self.generators(), (-1, self.dim)),
            self.sample_extremals(rng, count)])
        # exactly symmetric: one syrk, mirrored (or, without BLAS, the same
        # sum both ways), so its upper triangle read row by row is every
        # pair i <= j in combinations_with_replacement order
        gram = members @ members.T
        # the mask decides, not the minimum, so a NaN hides no negative pair
        bad = gram < -tol
        if bad.any():
            i, j = divmod(int(np.argmax(np.triu(bad))), len(members))
            v = float(gram[i, j])
            return Verdict(FAILS, violation={
                "pair": (members[i], members[j]), "inner_value": v}, margin=v)
        return Verdict(INCONCLUSIVE, margin=float(gram.min()),
                       detail="sampled inclusion only")

    def pure_pairs(self, c) -> list[tuple[np.ndarray, np.ndarray]]:
        """Pure pairs a transitivity check draws from c.rng for c.system."""
        raise UnsupportedQuery("pure transitivity checker needs an EJA or "
                               "shared-corner system")

    def summands_of(self, states: np.ndarray) -> list | None:
        """The summand of each row of a (k, dim) stack of pure states, or
        None unless each lies in exactly one; here None for every row."""
        return [None] * len(states)

    def face_profile(self, system, w, tol: float) -> int | None:
        """max over pure sigma of dim span Face(w + sigma), an automorphism
        invariant of a pure w, or None where `face_dimension` misses it."""
        raise UnsupportedQuery("no face profile for this cone")

    def path_pair(self, c) -> tuple[np.ndarray, np.ndarray]:
        """Pure pair a continuous-path check draws from c.rng for c.system."""
        raise UnsupportedQuery("continuous pure transitivity checker needs "
                               "an EJA system")

    def path_maps(self, w1, w2, summand, ts: list[float]) -> np.ndarray:
        """The automorphisms at times ts on a path from pure w1 (t = 0) to
        w2 (t = 1) in `summand`, as a (len(ts), dim, dim) stack."""
        raise UnsupportedQuery("no continuous path for this cone")

    def _check_dim(self, x: np.ndarray):
        if len(x) != self.dim:
            raise ConeError(f"dimension mismatch: {len(x)} != {self.dim}")


class PolyhedralCone(ConeModel):
    """Cone generated by finitely many rational rays; all verdicts exact.

    Facet n is tight at x when its normalized float margin (n . x) / |n|,
    the one `margin` reads, is at most max(tol, 1e-12) * max(1, |x|); the
    face span is the exact null space of the tight facets' integer normals."""

    def __init__(self, generators):
        self.data = exact.PolyhedralData(generators)
        self.dim = self.data.dim
        self._gen_float = [np.array([float(v) for v in r]) for r in self.data.rays]
        self._facet_float: list[tuple[np.ndarray, float]] | None = None
        if not self.data.full_dimensional:
            raise ConeError("polyhedral cone is not full-dimensional")
        if not self.data.is_pointed():
            raise ConeError("polyhedral cone is not pointed")

    @staticmethod
    def _to_exact(x: np.ndarray, tol: float) -> list[int]:
        """x rounded onto a tol-grid (denominators at most 2 / tol, or
        10^12 at tol <= 0), so float noise cannot flip an exact verdict;
        exact inputs pass through unchanged.  The result is an integer row,
        a positive multiple of the rounded point (`exact.rounded_row`):
        membership, pairing signs and the rays through a point are the same
        for every positive multiple of it."""
        return exact.rounded_row(
            x, 10**12 if tol <= 0 else max(10, int(2.0 / tol)))

    def member(self, x: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
        """Within tol of every facet hyperplane's inner side, or exactly
        inside once rounded onto the tol-grid."""
        self._check_dim(x)
        if self.margin(x) >= -tol:
            return True
        return self.data.member(self._to_exact(x, tol))

    def float_facets(self) -> list[tuple[np.ndarray, float]]:
        """Each exact facet normal as a float array, with its norm; built
        once per cone."""
        if self._facet_float is None:
            normals = [np.array([float(v) for v in n])
                       for n in self.data.facets()]
            self._facet_float = [(nf, np.linalg.norm(nf)) for nf in normals]
        return self._facet_float

    def margin(self, x: np.ndarray) -> float:
        self._check_dim(x)
        x = np.asarray(x, dtype=float)
        return min(float(nf @ x) / norm for nf, norm in self.float_facets())

    def dual_member(self, e: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
        self._check_dim(e)
        return min(self.data.pairings(self._to_exact(e, tol))) >= 0

    def generators(self) -> list[np.ndarray]:
        idx = self.data.extremal_ray_indices()
        return [self._gen_float[i] for i in idx]

    def sample_extremal(self, rng) -> np.ndarray:
        gens = self.generators()
        return gens[int(rng.integers(len(gens)))].copy()

    def tight_normals(self, x: np.ndarray, tol: float) -> list[list[int]]:
        """The primitive integer normals of the facets tight at x."""
        bound = max(tol, 1e-12) * max(1.0, float(np.linalg.norm(x)))
        return [n for n, (nf, norm) in zip(self.data._normals(),
                                           self.float_facets())
                if float(nf @ x) / norm <= bound]

    def face_span_basis(self, x, tol):
        """The exact null space of the tight normals, for a member x."""
        if not self.member(x, tol):
            raise ConeError("x is not a member of the cone")
        tight = self.tight_normals(x, tol) or [[0] * self.dim]
        return [np.array([float(v) for v in b])
                for b in exact.null_space(tight)]

    def reducible(self) -> bool:
        """Exact test: do the extremal rays split into two groups with
        complementary spans, i.e. is their matroid disconnected?

        Its components are those of the fundamental circuits of a ray basis
        S with dual basis g (Oxley, Matroid Theory, 2nd ed., 2011): each ray
        r outside S merges the blocks of the j in S with g_j . r != 0.
        """
        idx = self.data.extremal_ray_indices()
        basis, dual = exact.dual_basis([self.data.rays[i] for i in idx])
        # each dual vector's pairing with every ray, up to positive factors
        pairings = [self.data.pairings(g) for g in dual]
        blocks = [{j} for j in basis]
        for k, i in enumerate(idx):
            if k in basis:
                continue
            touched = {j for j, p in zip(basis, pairings) if p[i] != 0}
            merged = set().union(*(b for b in blocks if b & touched))
            blocks = [b for b in blocks if not b & touched] + [merged]
        return len(blocks) > 1

    def exact_self_duality(self):
        """Exact: K in K* when every two extremal rays pair nonnegatively,
        K* in K when every facet normal (ray of K*) is a member."""
        data, idx = self.data, self.data.extremal_ray_indices()
        # the first pair i <= j in combinations_with_replacement order
        for a, i in enumerate(idx):
            signs = data.pairings(data.rays[i])
            j = next((j for j in idx[a:] if signs[j] < 0), None)
            if j is not None:
                ri, rj = data.rays[i], data.rays[j]
                return Verdict(FAILS, violation={
                    "pair": (ri, rj), "inner_value": exact.dot(ri, rj)},
                    detail="generator pair with negative inner product")
        f = next((f for f in data.facets() if not data.member(f)), None)
        if f is not None:
            return Verdict(FAILS, violation={"facet_normal": f},
                           detail="dual extremal pulls back outside the cone")
        return Verdict(HOLDS, witness={"inner": np.eye(self.dim)},
                       margin=0.0, detail="exact two-sided inclusion")


class EJACone(ConeModel):
    """Positive cone of a Euclidean Jordan algebra: x is a member when its
    eigenvalues are nonnegative."""

    def __init__(self, algebra: JordanAlgebra):
        self.algebra = algebra
        self.dim = algebra.dim
        self._generators: list[np.ndarray] | None = None

    def member(self, x, tol=DEFAULT_TOL):
        return self.margin(x) >= -tol

    def members(self, xs, tol=DEFAULT_TOL):
        return self.margins(xs) >= -tol

    def margin(self, x):
        self._check_dim(x)
        return float(self.algebra.min_eigenvalues(np.asarray(x, dtype=float)))

    def margins(self, xs):
        """All rows of the stack from one stacked `min_eigenvalues` call."""
        # the transpose has one row per coordinate
        self._check_dim(np.transpose(xs))
        return self.algebra.min_eigenvalues(xs)

    def dual_member(self, e, tol=DEFAULT_TOL):
        # The trace form makes the cone self-dual, and the coordinate pairing
        # equals the trace form up to a positive per-summand scale.
        return self.member(e, tol)

    dual_members = members

    def generators(self):
        """Each summand's canonical frame, then one seeded pure state per
        summand; built once per cone, and every call returns copies."""
        if self._generators is None:
            alg = self.algebra
            gens = []
            for i, s in enumerate(alg.summands):
                ws, _ = s.factor.canonical_frame()
                gens.extend(alg.embed(i, w) for w in ws)
            ov_rng = np.random.default_rng(7)
            for i, s in enumerate(alg.summands):
                gens.append(alg.embed(i, s.factor.random_pure(ov_rng)))
            self._generators = gens
        return [g.copy() for g in self._generators]

    def sample_extremal(self, rng):
        return self.algebra.random_pure(rng)

    def sample_extremals(self, rng, count):
        return self.algebra.random_pures(rng, count)

    def sample_interiors(self, rng, count):
        return self.algebra.random_interiors(rng, count)

    def homogeneity_maps(self, rho, sigma, tol):
        """P(sqrt(sigma)) P(rho^(-1/2)) (Faraut & Koranyi, Analysis on
        Symmetric Cones, 1994), with every square root, inverse square root
        and quadratic representation of the stack at once; each matrix has
        the bits of its pair's own map."""
        alg = self.algebra
        if np.min(alg.min_eigenvalues(np.concatenate([rho, sigma]))) <= tol:
            raise ConeError("homogeneity witness requires interior points")
        return (alg.quadratic_rep(alg.sqrt(sigma))
                @ alg.quadratic_rep(alg.inv_sqrt(rho)))

    def reducible(self):
        """More than one simple summand: the cone is their direct sum."""
        return len(self.algebra.summands) > 1

    def sampled_self_duality(self, rng, count, tol):
        """K* in K by the trace form, under which the dual extremals are the
        pure states (Faraut & Koranyi, 1994): not re-tested."""
        v = super().sampled_self_duality(rng, count, tol)
        if v.status == FAILS:
            return v
        return Verdict(HOLDS, witness={"inner": np.eye(self.dim)},
                       margin=v.margin, detail="trace-form route")

    def pure_pairs(self, c):
        """Ten `sample_pure` draws as one stack, paired (0, 1), (2, 3), ...,
        and on a direct sum summand 0 with the first summand unlike it."""
        system, rng, alg = c.system, c.rng, self.algebra
        states = system.normalize(self.sample_extremals(rng, 10))
        pairs = list(zip(states[0::2], states[1::2]))
        if len(alg.summands) > 1:
            kinds = alg.descriptor()
            k = next((k for k, d in enumerate(kinds) if d != kinds[0]), 1)
            pairs.append(tuple(system.normalize(alg.random_pure(rng, i))
                               for i in (0, k)))
        return pairs

    def summands_of(self, states):
        where = self.algebra.summand_of(states)  # one call for the stack
        return None if None in where else where

    def transitivity_map(self, w1, w2, where) -> "np.ndarray | Verdict":
        """A normalized order isomorphism from pure w1 in summand where[0] to
        pure w2 in where[1], a swap and a rotation; or FAILS for summands not
        isomorphic, INCONCLUSIVE for isomorphic ones of other families."""
        alg = self.algebra
        i1, i2 = where
        f1, f2 = (alg.summands[i].factor for i in where)
        # (rank, dim) is a complete invariant of the simple summands: real
        # 2, complex 2 and quat 2 are spin 3, 4 and 6, and rank 1 is R
        if (f1.rank, f1.dim) != (f2.rank, f2.dim):
            return Verdict(FAILS, violation={
                "summands": (f1.descriptor(), f2.descriptor())},
                detail="pure states lie in non-isomorphic simple summands")
        if f1.family != f2.family:
            return Verdict(INCONCLUSIVE,
                           detail="isomorphic summands; no map built")
        # within one summand no swap is built or applied
        if i1 == i2:
            return self.path_maps(w1, w2, i2, [1.0])[0]
        # the identity with the two summands' rows exchanged
        order = list(range(alg.dim))
        si, sj = alg.summands[i1].sl, alg.summands[i2].sl
        order[si], order[sj] = order[sj], order[si]
        swap = np.eye(alg.dim)[order]
        return self.path_maps(swap @ w1, w2, i2, [1.0])[0] @ swap

    def path_pair(self, c):
        """A pure state of summand 0 and one of summand 1 on a direct sum,
        two `sample_pure` draws on a simple algebra."""
        picks = (0, 1) if len(self.algebra.summands) > 1 else (None, None)
        return tuple(c.system.normalize(self.algebra.random_pure(c.rng, k))
                     for k in picks)

    def path_maps(self, w1, w2, summand, ts):
        """The summand's `rotation_maps` on its block, else the identity."""
        s = self.algebra.summands[summand]
        maps = np.tile(np.eye(self.dim), (len(ts), 1, 1))
        maps[:, s.sl, s.sl] = s.factor.rotation_maps(w1[s.sl], w2[s.sl], ts)
        return maps

    def extremal_rows(self, xs, tol):
        """Exactly one eigenvalue above tol * scale and none below its
        negative, scale = max(1, max |eigenvalue|) per row, from one
        stacked `eigenvalues` call; a non-member row is not extremal."""
        vals = self.algebra.eigenvalues(xs)
        # the array methods: the same reductions, without the np.* dispatch
        scale = np.maximum(1.0, np.abs(vals).max(axis=-1, keepdims=True))
        positive = (vals > tol * scale).sum(axis=-1)
        negative = (vals < -tol * scale).sum(axis=-1)
        return (negative == 0) & (positive == 1)

    def face_span_basis(self, x, tol):
        x = np.asarray(x, dtype=float)
        dec = self.algebra.spectral(x)
        scale = max(1.0, float(np.max(np.abs(dec.eigenvalues))))
        if float(np.min(dec.eigenvalues)) < -tol * scale:
            raise ConeError("x is not a member of the cone")
        support = np.zeros(self.dim)
        for lam, c in zip(dec.eigenvalues, dec.idempotents):
            if lam > tol * scale:
                support += c
        up = self.algebra.quadratic_rep(support)
        # column space of U_p = span of Face(x)
        u, sv, _ = np.linalg.svd(up)
        r = int(np.sum(sv > 1e-8 * max(1.0, sv[0] if len(sv) else 1.0)))
        return [u[:, k] for k in range(r)]


class SharedCornerCone(ConeModel):
    """Pairs of 2x2 PSD matrices sharing the (1,1) entry: the 5-dimensional
    homogeneous non-self-dual cone.

    Coordinates (x1, x2, x3, x4, x5) encode blocks
    M1 = [[x1, x4], [x4, x2]] and M2 = [[x1, x5], [x5, x3]].
    """

    def __init__(self):
        self.dim = 5

    @staticmethod
    def blocks(x) -> tuple[np.ndarray, np.ndarray]:
        x1, x2, x3, x4, x5 = (float(v) for v in x)
        return (np.array([[x1, x4], [x4, x2]]),
                np.array([[x1, x5], [x5, x3]]))

    @staticmethod
    def from_blocks(m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
        return np.array([m1[0, 0], m1[1, 1], m2[1, 1], m1[0, 1], m2[0, 1]])

    def member(self, x, tol=DEFAULT_TOL):
        self._check_dim(x)
        return self.margin(x) >= -tol

    def margin(self, x):
        self._check_dim(x)
        m1, m2 = self.blocks(x)
        return float(min(np.linalg.eigvalsh(m1).min(), np.linalg.eigvalsh(m2).min()))

    @staticmethod
    def dual_floor(e2, e3, e4, e5) -> float:
        """The closed form of K*: for e2, e3 > 0 the least e1 with e in K*,
        -min over s, t of e2 s^2 + e4 s + e3 t^2 + e5 t, which is e's
        pairing with the extremal (1, s^2, t^2, s, t) less e1."""
        return e4 * e4 / (4 * e2) + e5 * e5 / (4 * e3)

    def dual_member(self, e, tol=DEFAULT_TOL):
        """By `dual_floor`; a quadratic term whose coefficient is within
        tol of 0 drops out when its linear term does too."""
        self._check_dim(e)
        e1, e2, e3, e4, e5 = (float(v) for v in e)
        if e2 < -tol or e3 < -tol or e2 <= tol < abs(e4) \
                or e3 <= tol < abs(e5):
            return False
        e2, e4 = (e2, e4) if e2 > tol else (1.0, 0.0)
        e3, e5 = (e3, e5) if e3 > tol else (1.0, 0.0)
        return e1 - self.dual_floor(e2, e3, e4, e5) >= -tol

    def generators(self):
        out = [np.array([0, 1, 0, 0, 0.0]), np.array([0, 0, 1, 0, 0.0])]
        for s in (-1.0, 0.0, 1.0):
            for t in (-1.0, 0.0, 1.0):
                out.append(np.array([1.0, s * s, t * t, s, t]))
        return out

    def sample_extremal(self, rng):
        # two extremal families; weight the generic one more heavily
        if rng.random() < 0.25:
            return (np.array([0, 1, 0, 0, 0.0]) if rng.random() < 0.5
                    else np.array([0, 0, 1, 0, 0.0]))
        s, t = rng.standard_normal(2)
        return np.array([1.0, s * s, t * t, s, t])

    def face_span_basis(self, x, tol):
        m1, m2 = self.blocks(x)
        rows = []
        for bi, m in enumerate((m1, m2)):
            vals, vecs = np.linalg.eigh(m)
            if vals[0] < -tol:
                raise ConeError("x is not a member of the cone")
            scale = max(1.0, float(np.max(np.abs(vals))))
            p = sum((np.outer(vecs[:, k], vecs[:, k]) for k in range(2)
                     if vals[k] > tol * scale), np.zeros((2, 2)))
            # constraint: block_i(d) - P block_i(d) P = 0, expanded over the
            # five coordinates
            resid = [d[bi] - p @ d[bi] @ p for d in _UNIT_BLOCKS]
            for a in range(2):
                for b in range(a, 2):
                    rows.append(np.array([r[a, b] for r in resid]))
        a = np.array(rows)
        u, sv, vt = np.linalg.svd(a)
        r = int(np.sum(sv > 1e-8 * max(1.0, sv[0])))
        return list(vt[r:])

    def sampled_self_duality(self, rng, count, tol):
        """K* in K tested on `count` boundary points of K*, `dual_floor`."""
        v = super().sampled_self_duality(rng, count, tol)
        if v.status == FAILS:
            return v
        for _ in range(count):
            e2, e3 = rng.random(2) + 0.1
            e4, e5 = 2.0 * rng.standard_normal(2)
            e = np.array([self.dual_floor(e2, e3, e4, e5), e2, e3, e4, e5])
            if not self.member(e, tol):
                return Verdict(FAILS, violation={
                    "dual_extremal": e}, margin=self.margin(e),
                    detail="closed-form dual boundary point outside the cone")
        return Verdict(INCONCLUSIVE, margin=v.margin)

    def pure_pairs(self, c):
        """No draw: e2 and e1, of face profiles 3 and 5."""
        return [tuple(c.system.normalize(np.eye(5)[[1, 0]]))]

    def face_profile(self, system, w, tol):
        """dim span Face(x) = t(rank M1) + t(rank M2) - [x1 > 0], t(k) =
        k(k+1)/2: a PSD block's face spans the t(rank) symmetric matrices on
        its range, and the shared corner is one more equation unless both
        blocks vanish there.  A pure sigma raises each block rank rho_i of w
        by at most 1, and x1 = 0 only when it leaves one block at zero, so
        the profile is at most t(rho1 + 1) + t(rho2 + 1) - 1; sigma* = (1,
        s^2, t^2, s, t), with (1, s) and (1, t) off w's block ranges,
        reaches it, and one `face_dimension` must read that."""
        ranks = []
        for m in self.blocks(w):
            vals = np.linalg.eigvalsh(m)
            scale = max(1.0, float(np.max(np.abs(vals))))
            ranks.append(int(np.sum(vals > tol * scale)))
        profile = sum((r + 1) * (r + 2) // 2 for r in ranks) - 1
        x1, _, _, x4, x5 = (float(v) for v in w)
        s, t = (1 + x4 / x1, 1 + x5 / x1) if x1 > tol else (1.0, 1.0)
        sigma = system.normalize(np.array([1.0, s * s, t * t, s, t]))
        if face_dimension(self, w + sigma, tol=tol) != profile:
            return None
        return profile

    def basepoint(self) -> np.ndarray:
        return np.array([1.0, 1, 1, 0, 0])

    def sample_interiors(self, rng, count):
        """Congruences of the basepoint by random triangular pairs."""
        points = []
        for _ in range(count):
            shared = 0.2 + rng.random()
            l1 = np.array([[shared, 0.0],
                           [rng.standard_normal(), 0.2 + rng.random()]])
            l2 = np.array([[shared, 0.0],
                           [rng.standard_normal(), 0.2 + rng.random()]])
            points.append(self._congruence(l1, l2) @ self.basepoint())
        return np.array(points)

    def homogeneity_maps(self, rho, sigma, tol):
        """Through the basepoint: transport rho there, then out to sigma."""
        if min(map(self.margin, [*rho, *sigma])) <= tol:
            raise ConeError("homogeneity witness requires interior points")
        return np.array([self.transport_from_basepoint(s)
                         @ self.transport_to_basepoint(r)
                         for r, s in zip(rho, sigma)])

    def transport_to_basepoint(self, x: np.ndarray) -> np.ndarray:
        """Coordinate matrix of the cone automorphism carrying the interior
        point x to (1,1,1,0,0): inverse-Cholesky congruence on each block,
        with the shared top-left scale."""
        m1, m2 = self.blocks(x)
        l1 = np.linalg.cholesky(m1)
        l2 = np.linalg.cholesky(m2)
        return self._congruence(np.linalg.inv(l1), np.linalg.inv(l2))

    def transport_from_basepoint(self, x: np.ndarray) -> np.ndarray:
        m1, m2 = self.blocks(x)
        return self._congruence(np.linalg.cholesky(m1), np.linalg.cholesky(m2))

    def _congruence(self, l1: np.ndarray, l2: np.ndarray) -> np.ndarray:
        if abs(l1[0, 0] - l2[0, 0]) > 1e-10 * max(abs(l1[0, 0]), 1.0):
            raise ConeError("congruence pair must share the corner scale")
        return np.column_stack([self.from_blocks(l1 @ d1 @ l1.T,
                                                 l2 @ d2 @ l2.T)
                                for d1, d2 in _UNIT_BLOCKS])


# the block pairs of the five coordinate vectors
_UNIT_BLOCKS = tuple(SharedCornerCone.blocks(e) for e in np.eye(5))


# -- generic operations ------------------------------------------------------


def face_dimension(cone: ConeModel, x: np.ndarray,
                   tol: float = DEFAULT_TOL) -> int:
    """dim span(Face(x)) for a member x; a non-member raises ConeError.  On
    a polyhedral cone: d minus the exact rank of the facet normals tight at
    x (`tight_normals`).  On every other cone: the length of the cone
    kind's linearly independent `face_span_basis`."""
    x = np.asarray(x, dtype=float)
    if not cone.member(x, tol):
        raise ConeError("x is not a member of the cone")
    if isinstance(cone, PolyhedralCone):
        return cone.dim - exact.rank(cone.tight_normals(x, tol))
    return len(cone.face_span_basis(x, tol))


def is_extremal_ray(cone: ConeModel, x: np.ndarray,
                    tol: float = DEFAULT_TOL) -> bool:
    """Is x on an extremal ray, by the cone kind's `extremal_rows`: the
    eigenvalue count on an EJA cone, the inner rule at rot @ x on a linear
    image after its `member` precondition, else face dimension 1.  The null
    ray and a non-finite x raise ConeError; a finite x's inf norm does not."""
    x = np.asarray(x, dtype=float)
    n = np.linalg.norm(x)
    if not (tol <= n < np.inf or n == np.inf and np.isfinite(x).all()):
        raise ConeError("the null ray and non-finite elements are excluded")
    return bool(cone.extremal_rows(x[None], tol)[0])


def first_non_extremal(cone: ConeModel, xs: np.ndarray,
                       tol: float = DEFAULT_TOL) -> int | None:
    """The index of the first row of a (k, dim) stack that `is_extremal_ray`
    rejects, or None, from one `cone.extremal_rows` call over every row
    (one stacked eigenvalue call on an EJA cone).  A null or non-finite row
    anywhere raises ConeError first (null guard: `eja._norms`, the bits of
    the 1-D `np.linalg.norm`), and so does a non-member off an EJA cone."""
    xs = np.asarray(xs, dtype=float)
    if not (np.isfinite(xs).all() and (_norms(xs) >= tol).all()):
        raise ConeError("the null ray and non-finite elements are excluded")
    rejected = np.flatnonzero(~cone.extremal_rows(xs, tol))
    return int(rejected[0]) if rejected.size else None


@dataclass
class System:
    """A cone with a distinguished strictly positive unit functional."""

    cone: ConeModel
    unit: np.ndarray
    label: str = ""

    def __post_init__(self):
        self.unit = np.asarray(self.unit, dtype=float)
        if len(self.unit) != self.cone.dim:
            raise ConeError("unit functional dimension mismatch")
        for g in self.cone.generators():
            if float(self.unit @ g) <= 0:
                raise ConeError("unit functional is not strictly positive "
                                "on cone generators")

    @property
    def dim(self) -> int:
        return self.cone.dim

    def normalize(self, x: np.ndarray) -> np.ndarray:
        """x scaled to unit value, or each row of a (k, dim) stack.  Each
        row is divided by its 1 x n @ n x 1 product with the unit, the BLAS
        dot that `unit @ x` takes on one vector (as in `eja._norms`), so a
        stack has the bits of a loop over its rows."""
        return x / (self.unit @ x[..., :, None])

    def base_generators(self) -> list[np.ndarray]:
        return [self.normalize(g) for g in self.cone.generators()]

    def sample_pure(self, rng) -> np.ndarray:
        return self.normalize(self.cone.sample_extremal(rng))


def eja_system(alg: JordanAlgebra, label: str) -> System:
    """The positive cone of alg, with the trace functional as its unit."""
    return System(EJACone(alg), alg.trace_functional(), label)


def shared_corner_system(label: str) -> System:
    """The shared-corner cone, with its basepoint (1, 1, 1, 0, 0) as unit."""
    return System(SharedCornerCone(), SharedCornerCone().basepoint(), label)


@dataclass
class Verdict:
    """A checker's answer: HOLDS, FAILS, INCONCLUSIVE or UNSUPPORTED, with
    the witness of a HOLDS or violation of a FAILS, a margin and a detail."""

    status: str
    witness: object = None
    violation: object = None
    margin: float = float("nan")
    detail: str = ""


def is_order_isomorphism(m: np.ndarray, a: ConeModel, b: ConeModel,
                         tol: float = DEFAULT_TOL) -> Verdict:
    """Does the matrix m carry cone a onto cone b?  A FAILS names its
    direction and the point that leaves the cone."""
    if m.shape[0] != m.shape[1]:
        raise ConeError("order isomorphisms need a square matrix")
    sv = np.linalg.svd(m, compute_uv=False)
    if sv[-1] < 1e-12 * max(sv[0], 1.0):
        kernel = np.linalg.svd(m)[2][-1]
        return Verdict(FAILS, violation={"direction": "singular",
                                         "point": kernel})
    slack = tol * max(1.0, float(sv[0] / sv[-1]))
    rng = np.random.default_rng(ISO_SEED)
    for direction, t, src, tgt in (("forward", m, a, b),
                                   ("inverse", np.linalg.inv(m), b, a)):
        points = np.concatenate([np.reshape(src.generators(), (-1, src.dim)),
                                 src.sample_extremals(rng, ISO_SAMPLES)])
        # one matrix-vector product per point, as in t @ g for one point
        inside = tgt.members((t @ points[:, :, None])[:, :, 0], slack)
        outside = np.flatnonzero(~inside)
        if outside.size:
            return Verdict(FAILS, violation={"direction": direction,
                                             "point": points[outside[0]]})
    return Verdict(HOLDS)


def validate_measurement(system: System, effects,
                         tol: float = DEFAULT_TOL):
    """Are the effects a measurement: each in [0, unit] of the dual cone
    and in [-tol, 1 + tol] on every base generator, summing to the unit
    within max(tol, 1e-10)?  A bool for one (k, dim) measurement, a bool
    array for an (..., k, dim) stack: one `dual_members` call, and each
    value a 1 x dim by dim x 1 product, the bits of `e @ w`."""
    effects = np.asarray(effects, dtype=float)
    if effects.size == 0:
        raise ConeError("empty effect list")
    if effects.ndim < 2 or effects.shape[-1] != system.dim:
        raise ConeError("effect dimension mismatch")
    flat = effects.reshape(-1, system.dim)
    dual = system.cone.dual_members(
        np.concatenate([flat, system.unit - flat]), tol)
    states = np.array(system.base_generators())
    values = (flat[:, None, None, :] @ states[:, :, None])[..., 0, 0]
    ok = (dual[:len(flat)] & dual[len(flat):]
          & ~np.any((values < -tol) | (values > 1 + tol), axis=-1))
    ok = ok.reshape(effects.shape[:-1]).all(axis=-1)
    total = np.sum(effects, axis=-2)
    ok &= np.max(np.abs(total - system.unit), axis=-1) <= max(tol, 1e-10)
    return bool(ok) if ok.ndim == 0 else ok
