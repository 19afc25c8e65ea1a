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
UNSUPPORTED.
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
        """All rows of the stack from one stacked `min_eigenvalues` call."""
        # the transpose has one row per coordinate
        self._check_dim(np.transpose(xs))
        return self.algebra.min_eigenvalues(xs) >= -tol

    def margin(self, x):
        self._check_dim(x)
        return float(self.algebra.min_eigenvalues(np.asarray(x, dtype=float)))

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

    def dual_member(self, e, tol=DEFAULT_TOL):
        # Dual cone: e pairs nonnegatively with every member; members are
        # nonneg combinations of the extremal families, so test on those.
        # Extremals: (0,1,0,0,0), (0,0,1,0,0), (1,s^2,t^2,s,t).
        self._check_dim(e)
        e1, e2, e3, e4, e5 = (float(v) for v in e)
        if e2 < -tol or e3 < -tol:
            return False
        # min over s,t of e1 + e2 s^2 + e4 s  +  e3 t^2 + e5 t  (separable)
        best = e1
        if e2 > tol:
            best -= e4 * e4 / (4 * e2)
        elif abs(e4) > tol:
            return False
        if e3 > tol:
            best -= e5 * e5 / (4 * e3)
        elif abs(e5) > tol:
            return False
        return best >= -tol

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

    def basepoint(self) -> np.ndarray:
        return np.array([1.0, 1, 1, 0, 0])

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


def _eja_extremal_rows(cone: EJACone, xs: np.ndarray,
                       tol: float) -> np.ndarray:
    """Is each row of a (k, dim) stack of finite nonzero elements on an
    extremal ray: exactly one eigenvalue above tol * scale and none below
    its negative, scale = max(1, max |eigenvalue|) per row, from one
    stacked `eigenvalues` call."""
    vals = cone.algebra.eigenvalues(xs)
    # the array methods: the same reductions, without the np.* dispatch
    scale = np.maximum(1.0, np.abs(vals).max(axis=-1, keepdims=True))
    positive = (vals > tol * scale).sum(axis=-1)
    negative = (vals < -tol * scale).sum(axis=-1)
    return (negative == 0) & (positive == 1)


def is_extremal_ray(cone: ConeModel, x: np.ndarray,
                    tol: float = DEFAULT_TOL) -> bool:
    x = np.asarray(x, dtype=float)
    if np.linalg.norm(x) < tol:
        raise ConeError("the null ray is excluded")
    if isinstance(cone, EJACone):
        return bool(_eja_extremal_rows(cone, x[None], tol)[0])
    return face_dimension(cone, x, tol=tol) == 1


def first_non_extremal(cone: ConeModel, xs: np.ndarray,
                       tol: float = DEFAULT_TOL) -> int | None:
    """The index of the first row of a (k, dim) stack that `is_extremal_ray`
    rejects, or None; a null or non-finite row anywhere raises ConeError
    first (null guard: `eja._norms`, the bits of the 1-D `np.linalg.norm`).
    An EJA cone tests every row with one stacked eigenvalue call."""
    xs = np.asarray(xs, dtype=float)
    if not (np.isfinite(xs).all() and (_norms(xs) >= tol).all()):
        raise ConeError("the null ray and non-finite elements are excluded")
    if not isinstance(cone, EJACone):
        return next((k for k, x in enumerate(xs)
                     if not is_extremal_ray(cone, x, tol)), None)
    rejected = np.flatnonzero(~_eja_extremal_rows(cone, xs, tol))
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
