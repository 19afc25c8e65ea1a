"""Cone models with membership oracles and generic geometric queries.

Variants: exact-rational polyhedral cones, EJA positive cones, and the
five-dimensional shared-corner cone (two 2x2 PSD blocks agreeing in the
top-left entry).  Composite cones live in `conelab.composite` and plug into
the same query functions.

Face spans are computed structurally (tight facets, support-idempotent
quadratic representation, block range compressions) and then probed with
membership tests.  Each span direction d counts only if x + eps*d and
x - eps*d are both members, with the step eps = 10^3 * tol * max(1, |x|)
well above the membership slack tol; x itself counts, since it lies in its
own face.  When the span is not the whole space,
a negative control must see the probe fail: some direction orthogonal to
the span has to leave the cone on one side, or the query is UNSUPPORTED,
because a probe that accepts every direction certifies nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import exact
from .eja import JordanAlgebra

DEFAULT_TOL = 1e-9


class ConeError(ValueError):
    pass


class UnsupportedQuery(ConeError):
    """A query this cone variant has no sound procedure for."""


class ConeModel:
    """Interface shared by all cone variants."""

    dim: int
    variant: str

    def member(self, x: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
        raise NotImplementedError

    def margin(self, x: np.ndarray) -> float:
        """Signed membership margin (>= 0 inside, < 0 outside)."""
        raise NotImplementedError

    def dual_member(self, e: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
        raise NotImplementedError

    def generators(self) -> list[np.ndarray]:
        """A finite spanning family of cone members (extremal where known)."""
        raise NotImplementedError

    def sample_extremal(self, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def face_span_basis(self, x: np.ndarray, tol: float) -> list[np.ndarray]:
        """Basis of the candidate span of Face(x)."""
        raise NotImplementedError

    def _check_dim(self, x: np.ndarray):
        if len(x) != self.dim:
            raise ConeError(f"dimension mismatch: {len(x)} != {self.dim}")


class PolyhedralCone(ConeModel):
    """Cone generated by finitely many rational rays; all verdicts exact."""

    variant = "polyhedral"

    def __init__(self, generators):
        self.data = exact.PolyhedralData(generators)
        self.dim = self.data.dim
        self._gen_float = [np.array([float(v) for v in r]) for r in self.data.rays]
        self._facet_float: list[tuple[np.ndarray, float]] | None = None
        if not self.data.full_dimensional:
            raise ConeError("polyhedral cone is not full-dimensional")
        if not self.data.is_pointed():
            raise ConeError("polyhedral cone is not pointed")

    def _to_exact(self, x: np.ndarray, tol: float) -> list[Fraction]:
        # Round coordinates onto a tol-grid so float noise cannot flip an
        # exact verdict; exact inputs pass through unchanged.
        if tol <= 0:
            return [Fraction(float(v)).limit_denominator(10**12) for v in x]
        return [Fraction(float(v)).limit_denominator(max(10, int(2.0 / tol)))
                for v in x]

    def member(self, x: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
        """Within tol of every facet hyperplane's inner side, or exactly
        inside once rounded onto the tol-grid."""
        self._check_dim(x)
        if self.margin(x) >= -tol:
            return True
        return self.data.member(self._to_exact(x, tol))

    def margin(self, x: np.ndarray) -> float:
        self._check_dim(x)
        if self._facet_float is None:
            normals = [np.array([float(v) for v in n])
                       for n in self.data.facets()]
            self._facet_float = [(nf, np.linalg.norm(nf)) for nf in normals]
        x = np.asarray(x, dtype=float)
        return min(float(nf @ x) / norm for nf, norm in self._facet_float)

    def dual_member(self, e: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
        self._check_dim(e)
        ef = self._to_exact(e, tol)
        return all(exact.dot(ef, r) >= 0 for r in self.data.rays)

    def generators(self) -> list[np.ndarray]:
        idx = self.data.extremal_ray_indices()
        return [self._gen_float[i] for i in idx]

    def sample_extremal(self, rng) -> np.ndarray:
        gens = self.generators()
        return gens[int(rng.integers(len(gens)))].copy()

    def face_span_basis(self, x, tol):
        xf = self._to_exact(x, tol)
        if not self.data.member(xf):
            raise ConeError("x is not a member of the cone")
        tight = [n for n in self.data.facets() if exact.dot(n, xf) == 0]
        if not tight:
            basis = [[Fraction(int(i == j)) for j in range(self.dim)]
                     for i in range(self.dim)]
        else:
            basis = exact.null_space(tight)
        return [np.array([float(v) for v in b]) for b in basis]

    def reducible(self) -> bool:
        """Exact test: can the extremal rays split into two complementary
        spanning groups?"""
        idx = self.data.extremal_ray_indices()
        rays = [self.data.rays[i] for i in idx]
        n = len(rays)
        for mask in range(1, 2 ** (n - 1)):
            a = [rays[i] for i in range(n) if mask >> i & 1]
            b = [rays[i] for i in range(n) if not mask >> i & 1]
            if not a or not b:
                continue
            if exact.rank(a) + exact.rank(b) == self.dim:
                return True
        return False


class EJACone(ConeModel):
    """Positive cone of a Euclidean Jordan algebra (spectral membership)."""

    variant = "eja"

    def __init__(self, algebra: JordanAlgebra):
        self.algebra = algebra
        self.dim = algebra.dim

    def member(self, x, tol=DEFAULT_TOL):
        self._check_dim(x)
        return self.algebra.min_eigenvalue(np.asarray(x, dtype=float)) >= -tol

    def margin(self, x):
        self._check_dim(x)
        return self.algebra.min_eigenvalue(np.asarray(x, dtype=float))

    def dual_member(self, e, tol=DEFAULT_TOL):
        # The trace form makes the cone self-dual, and the coordinate pairing
        # equals the trace form up to a positive per-summand scale.
        return self.member(e, tol)

    def generators(self):
        out = []
        for i, s in enumerate(self.algebra.summands):
            ws, _ = s.factor.canonical_frame()
            out.extend(self.algebra.embed(i, w) for w in ws)
        ov_rng = np.random.default_rng(7)
        for i, s in enumerate(self.algebra.summands):
            out.append(self.algebra.embed(i, s.factor.random_pure(ov_rng)))
        return out

    def sample_extremal(self, rng):
        return self.algebra.random_pure(rng)

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

    variant = "shared-corner"

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
        x = np.asarray(x, dtype=float)
        if not self.member(x, tol):
            raise ConeError("x is not a member of the cone")
        m1, m2 = self.blocks(x)
        rows = []
        for bi, m in enumerate((m1, m2)):
            vals, vecs = np.linalg.eigh(m)
            scale = max(1.0, float(np.max(np.abs(vals))))
            p = sum(np.outer(vecs[:, k], vecs[:, k])
                    for k in range(2) if vals[k] > tol * scale)
            if isinstance(p, int):
                p = np.zeros((2, 2))
            # constraint: block_i(d) - P block_i(d) P = 0, expanded over the
            # five coordinates
            for a in range(2):
                for b in range(a, 2):
                    row = np.zeros(5)
                    for k in range(5):
                        e = np.zeros(5)
                        e[k] = 1.0
                        d1, d2 = self.blocks(e)
                        d = d1 if bi == 0 else d2
                        resid = d - p @ d @ p
                        row[k] = resid[a, b]
                    rows.append(row)
        a = np.array(rows)
        u, sv, vt = np.linalg.svd(a)
        r = int(np.sum(sv > 1e-8 * max(1.0, sv[0])))
        return [vt[k] for k in range(len(vt))][r:] if r < 5 else []

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
        cols = []
        for k in range(5):
            e = np.zeros(5)
            e[k] = 1.0
            d1, d2 = self.blocks(e)
            cols.append(self.from_blocks(l1 @ d1 @ l1.T, l2 @ d2 @ l2.T))
        return np.column_stack(cols)


# -- generic operations ------------------------------------------------------


def membership(cone: ConeModel, x: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    if tol < 0:
        raise ConeError("tol must be nonnegative")
    return cone.member(np.asarray(x, dtype=float), tol)


def two_sided_probe(cone: ConeModel, x: np.ndarray, d: np.ndarray,
                    tol: float = DEFAULT_TOL) -> bool:
    """Are x + eps*d/|d| and x - eps*d/|d| both members, with the step
    eps = 10^3 * max(tol, 1e-12) * max(1, |x|) and membership slack
    max(tol, 1e-12)?  The step sits well above the slack, so a direction
    that leaves the cone to first order on one side fails."""
    norm = float(np.linalg.norm(d))
    if norm == 0:
        return False
    slack = max(tol, 1e-12)
    step = 1e3 * slack * max(1.0, float(np.linalg.norm(x))) / norm * d
    return cone.member(x + step, slack) and cone.member(x - step, slack)


def face_dimension(cone: ConeModel, x: np.ndarray,
                   tol: float = DEFAULT_TOL) -> int:
    """dim span(Face(x)): the directions of the structural candidate span
    that pass one `two_sided_probe` each, together with x itself, which
    lies in its own face without a probe.

    When the span is not the whole space, the directions of its orthogonal
    complement are probed in turn until one fails; if none does, the probe
    cannot tell the face from the space and UnsupportedQuery is raised.
    """
    x = np.asarray(x, dtype=float)
    if not cone.member(x, tol):
        raise ConeError("x is not a member of the cone")
    basis = cone.face_span_basis(x, tol)
    verified = [d for d in basis if two_sided_probe(cone, x, d, tol)]
    # negative control: the rows of vt past the span's rank are an
    # orthonormal basis of its orthogonal complement
    _, sv, vt = np.linalg.svd(np.reshape(basis, (len(basis), cone.dim)))
    rank = int(np.sum(sv > 1e-8 * sv.max(initial=1.0)))
    if rank < cone.dim and all(two_sided_probe(cone, x, c, tol)
                               for c in vt[rank:]):
        raise UnsupportedQuery("face probe accepts every direction "
                               "orthogonal to the claimed span")
    norm = float(np.linalg.norm(x))
    if norm > 0:
        verified.append(x / norm)
    if not verified:
        return 0
    return int(np.linalg.matrix_rank(np.array(verified), tol=1e-8))


def is_extremal_ray(cone: ConeModel, x: np.ndarray, tol: float = DEFAULT_TOL,
                    fast_path: bool = True) -> bool:
    x = np.asarray(x, dtype=float)
    if np.linalg.norm(x) < tol:
        raise ConeError("the null ray is excluded")
    if fast_path and isinstance(cone, EJACone):
        vals = np.sort(cone.algebra.spectral(x).eigenvalues)
        scale = max(1.0, float(np.max(np.abs(vals))))
        positive = int(np.sum(vals > tol * scale))
        negative = int(np.sum(vals < -tol * scale))
        return negative == 0 and positive == 1
    return face_dimension(cone, x, tol=tol) == 1


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
        return x / float(self.unit @ x)

    def base_generators(self) -> list[np.ndarray]:
        return [self.normalize(g) for g in self.cone.generators()]

    def sample_pure(self, rng) -> np.ndarray:
        return self.normalize(self.cone.sample_extremal(rng))

    def effect_member(self, e: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
        """e in the order interval [0, unit] of the dual."""
        e = np.asarray(e, dtype=float)
        return (self.cone.dual_member(e, tol)
                and self.cone.dual_member(self.unit - e, tol))


@dataclass
class PositiveMap:
    """Dense linear map between system spaces."""

    matrix: np.ndarray
    source: System
    target: System
    normalized: bool = False

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ x

    def check_positive(self, rng, samples: int = 50,
                       tol: float = DEFAULT_TOL) -> bool:
        for g in self.source.cone.generators():
            if not self.target.cone.member(self.matrix @ g, tol):
                return False
        for _ in range(samples):
            g = self.source.cone.sample_extremal(rng)
            if not self.target.cone.member(self.matrix @ g, tol):
                return False
        return True

    def check_normalized(self, tol: float = 1e-8) -> bool:
        pulled = self.matrix.T @ self.target.unit
        return bool(np.max(np.abs(pulled - self.source.unit)) < tol)


@dataclass
class IsoVerdict:
    ok: bool
    condition_number: float
    violation: np.ndarray | None = None
    direction: str = ""


def is_order_isomorphism(pmap: PositiveMap, tol: float = DEFAULT_TOL,
                         samples: int = 50, seed: int = 0) -> IsoVerdict:
    m = pmap.matrix
    if m.shape[0] != m.shape[1]:
        raise ConeError("order isomorphisms need a square matrix")
    sv = np.linalg.svd(m, compute_uv=False)
    if sv[-1] < 1e-12 * max(sv[0], 1.0):
        kernel = np.linalg.svd(m)[2][-1]
        return IsoVerdict(False, float("inf"), kernel, "singular")
    cond = float(sv[0] / sv[-1])
    inv = np.linalg.inv(m)
    rng = np.random.default_rng(seed)
    src = list(pmap.source.cone.generators())
    src += [pmap.source.cone.sample_extremal(rng) for _ in range(samples)]
    for g in src:
        if not pmap.target.cone.member(m @ g, tol * max(1.0, cond)):
            return IsoVerdict(False, cond, g, "forward")
    tgt = list(pmap.target.cone.generators())
    tgt += [pmap.target.cone.sample_extremal(rng) for _ in range(samples)]
    for g in tgt:
        if not pmap.source.cone.member(inv @ g, tol * max(1.0, cond)):
            return IsoVerdict(False, cond, g, "inverse")
    return IsoVerdict(True, cond)


def validate_measurement(system: System, effects: list[np.ndarray],
                         tol: float = DEFAULT_TOL) -> bool:
    if not effects:
        raise ConeError("empty effect list")
    effects = [np.asarray(e, dtype=float) for e in effects]
    for e in effects:
        if len(e) != system.dim:
            raise ConeError("effect dimension mismatch")
        if not system.effect_member(e, tol):
            return False
        for w in system.base_generators():
            v = float(e @ w)
            if v < -tol or v > 1 + tol:
                return False
    total = np.sum(effects, axis=0)
    return bool(np.max(np.abs(total - system.unit)) <= max(tol, 1e-10))
