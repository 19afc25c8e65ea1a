"""Euclidean Jordan algebras over real coordinates.

Simple factors: real symmetric, complex Hermitian, and quaternionic Hermitian
matrices, plus spin factors.  Quaternionic matrices are realized as complex
2r x 2r matrices with the symplectic reality constraint J conj(H) J^{-1} = H,
so a single complex eigensolver serves all matrix families.  Every element is
a real coordinate vector over a fixed basis; matrix-family bases are
orthonormal under the trace form.

Direct sums are handled by `JordanAlgebra`, which concatenates summand
coordinates and applies every operation blockwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

REAL = "real"
COMPLEX = "complex"
QUAT = "quat"
SPIN = "spin"

_SQ2 = math.sqrt(2.0)

# 2x2 complex images of the quaternion units 1, i, j, k.
_Q_UNITS = [
    np.array([[1, 0], [0, 1]], dtype=complex),
    np.array([[1j, 0], [0, -1j]], dtype=complex),
    np.array([[0, 1], [-1, 0]], dtype=complex),
    np.array([[0, 1j], [1j, 0]], dtype=complex),
]


def family_dim(family: str, rank: int, spin_dim: int | None = None) -> int:
    if family == REAL:
        return rank * (rank + 1) // 2
    if family == COMPLEX:
        return rank * rank
    if family == QUAT:
        return rank * (2 * rank - 1)
    if family == SPIN:
        if spin_dim is None or spin_dim < 2:
            raise ValueError("spin factor needs its own dim parameter >= 2")
        return spin_dim
    raise ValueError(f"unknown family {family!r}")


@dataclass
class SpectralDecomposition:
    eigenvalues: np.ndarray          # length = rank
    idempotents: list[np.ndarray]    # primitive, pairwise orthogonal, sum = unit


class SimpleFactor:
    """One simple EJA: product, spectral theory, frames.

    Elements are real coordinate vectors of length `dim`.
    """

    def __init__(self, family: str, rank: int, spin_dim: int | None = None):
        if family == SPIN and rank != 2:
            raise ValueError("spin factors have rank 2")
        if family != SPIN and spin_dim is not None:
            raise ValueError("spin_dim only applies to spin factors")
        self.family = family
        self.rank = rank
        self.dim = family_dim(family, rank, spin_dim)
        if family != SPIN:
            # (dim, side, side) stacks of the basis and of its conjugate
            self._basis = np.array(self._build_basis())
            self._basis_conj = self._basis.conj()
            # side length of the underlying complex matrix
            self._side = 2 * rank if family == QUAT else rank
            self._kappa = 0.5 if family == QUAT else 1.0
            if family == QUAT:
                j2 = np.array([[0, 1], [-1, 0]], dtype=complex)
                self._J = np.kron(np.eye(rank), j2)

    # -- matrix-family plumbing -------------------------------------------

    def _build_basis(self) -> list[np.ndarray]:
        r = self.rank
        basis = []
        if self.family in (REAL, COMPLEX):
            for i in range(r):
                e = np.zeros((r, r), dtype=complex)
                e[i, i] = 1.0
                basis.append(e)
            for i in range(r):
                for j in range(i + 1, r):
                    e = np.zeros((r, r), dtype=complex)
                    e[i, j] = e[j, i] = 1.0 / _SQ2
                    basis.append(e)
                    if self.family == COMPLEX:
                        e = np.zeros((r, r), dtype=complex)
                        e[i, j] = 1j / _SQ2
                        e[j, i] = -1j / _SQ2
                        basis.append(e)
        else:  # QUAT: complex 2r x 2r with symplectic reality
            for i in range(r):
                e = np.zeros((2 * r, 2 * r), dtype=complex)
                e[2 * i: 2 * i + 2, 2 * i: 2 * i + 2] = np.eye(2)
                basis.append(e)
            for i in range(r):
                for j in range(i + 1, r):
                    for q in _Q_UNITS:
                        e = np.zeros((2 * r, 2 * r), dtype=complex)
                        e[2 * i: 2 * i + 2, 2 * j: 2 * j + 2] = q / _SQ2
                        e[2 * j: 2 * j + 2, 2 * i: 2 * i + 2] = q.conj().T / _SQ2
                        basis.append(e)
        return basis

    def to_matrix(self, coords: np.ndarray) -> np.ndarray:
        return np.tensordot(coords, self._basis, axes=1)

    def from_matrix(self, m: np.ndarray) -> np.ndarray:
        # trace(b^H m) = sum_ij conj(b_ij) m_ij for every basis element b
        return self._kappa * np.einsum("kij,ij->k", self._basis_conj, m).real

    # -- algebra operations ------------------------------------------------

    def unit(self) -> np.ndarray:
        if self.family == SPIN:
            u = np.zeros(self.dim)
            u[0] = 1.0
            return u
        return self.from_matrix(np.eye(self._side, dtype=complex))

    def trace_functional(self) -> np.ndarray:
        """Coordinates of the trace functional under the Euclidean pairing."""
        if self.family == SPIN:
            u = np.zeros(self.dim)
            u[0] = 2.0
            return u
        return self.unit()

    def product(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.family == SPIN:
            s, x = a[0], a[1:]
            t, y = b[0], b[1:]
            out = np.empty(self.dim)
            out[0] = s * t + x @ y
            out[1:] = s * y + t * x
            return out
        ma, mb = self.to_matrix(a), self.to_matrix(b)
        return self.from_matrix(0.5 * (ma @ mb + mb @ ma))

    def trace_inner(self, a: np.ndarray, b: np.ndarray) -> float:
        scale = 2.0 if self.family == SPIN else 1.0
        return scale * float(a @ b)

    def spectral(self, a: np.ndarray) -> SpectralDecomposition:
        if not np.all(np.isfinite(a)):
            raise ValueError("non-finite input")
        if self.family == SPIN:
            s, x = a[0], a[1:]
            nx = float(np.linalg.norm(x))
            if nx < 1e-300:
                xhat = np.zeros(self.dim - 1)
                xhat[0] = 1.0
            else:
                xhat = x / nx
            c_plus = np.concatenate(([0.5], 0.5 * xhat))
            c_minus = np.concatenate(([0.5], -0.5 * xhat))
            return SpectralDecomposition(np.array([s + nx, s - nx]),
                                         [c_plus, c_minus])
        m = self.to_matrix(a)
        if self.family == REAL:
            vals, vecs = np.linalg.eigh(m.real)
        else:
            vals, vecs = np.linalg.eigh(m)
        if self.family != QUAT:
            idem = [self.from_matrix(np.outer(vecs[:, k], vecs[:, k].conj()))
                    for k in range(self._side)]
            return SpectralDecomposition(vals, idem)
        # Quaternionic: eigenvalues come doubled; pair each eigenvector v with
        # its symplectic partner J conj(v) and merge into one rank-2 projector.
        chosen: list[np.ndarray] = []
        eigs = []
        idem = []
        for k in range(self._side):
            v = vecs[:, k]
            if chosen:
                basis = np.column_stack(chosen)
                v = v - basis @ (basis.conj().T @ v)
                nv = np.linalg.norm(v)
                if nv < 1e-8:
                    continue
                v = v / nv
            w = self._J @ v.conj()
            proj = np.outer(v, v.conj()) + np.outer(w, w.conj())
            idem.append(self.from_matrix(proj))
            eigs.append(vals[k])
            chosen.extend([v, w])
        return SpectralDecomposition(np.array(eigs), idem)

    def apply_spectral(self, a: np.ndarray, fn) -> np.ndarray:
        dec = self.spectral(a)
        out = np.zeros(self.dim)
        for lam, c in zip(dec.eigenvalues, dec.idempotents):
            out += fn(lam) * c
        return out

    def min_eigenvalue(self, a: np.ndarray) -> float:
        return float(np.min(self.spectral(a).eigenvalues))

    # -- frames and special states ----------------------------------------

    def canonical_frame(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Frame of orthogonal pure states and dual effects, <w_i, e_j> = d_ij.

        States are the diagonal primitive idempotents (spin: the two
        idempotents on the first spatial axis); effects pair by the Euclidean
        coordinate product.
        """
        if self.family == SPIN:
            # unit has x = 0: deterministic split along the first spatial axis
            c1 = np.zeros(self.dim)
            c1[0], c1[1] = 0.5, 0.5
            c2 = np.zeros(self.dim)
            c2[0], c2[1] = 0.5, -0.5
            states = [c1, c2]
            effects = [2 * c1, 2 * c2]  # trace-form duals
            return states, effects
        states = []
        for i in range(self.rank):
            m = np.zeros((self._side, self._side), dtype=complex)
            if self.family == QUAT:
                m[2 * i: 2 * i + 2, 2 * i: 2 * i + 2] = np.eye(2)
            else:
                m[i, i] = 1.0
            states.append(self.from_matrix(m))
        effects = [s.copy() for s in states]
        return states, effects

    def overlap_state(self) -> np.ndarray:
        """A pure state with overlap 1/rank against every canonical frame effect."""
        if self.family == SPIN:
            # any unit vector non-parallel to the frame axis works; fix the
            # 45-degree rotation of the first axis into the second
            c = np.zeros(self.dim)
            c[0] = 0.5
            if self.dim >= 3:
                c[1] = c[2] = 0.5 / _SQ2
            else:
                c[1] = 0.5
            return c
        r, side = self.rank, self._side
        if self.family == QUAT:
            v = np.zeros(side, dtype=complex)
            v[0::2] = 1.0 / math.sqrt(r)
            w = self._J @ v.conj()
            proj = np.outer(v, v.conj()) + np.outer(w, w.conj())
            return self.from_matrix(proj)
        v = np.ones(side, dtype=complex) / math.sqrt(side)
        return self.from_matrix(np.outer(v, v.conj()))

    # -- sampling ----------------------------------------------------------

    def random_element(self, rng: np.random.Generator) -> np.ndarray:
        return rng.standard_normal(self.dim)

    def random_interior(self, rng: np.random.Generator) -> np.ndarray:
        a = self.random_element(rng)
        dec = self.spectral(a)
        lift = float(np.min(dec.eigenvalues))
        return a + (abs(lift) + 0.5 + rng.random()) * self.unit()

    def random_pure(self, rng: np.random.Generator) -> np.ndarray:
        """Unit-trace extremal element (pure state of the trace base)."""
        if self.family == SPIN:
            x = rng.standard_normal(self.dim - 1)
            x /= np.linalg.norm(x)
            return np.concatenate(([0.5], 0.5 * x))
        side = self._side
        if self.family == REAL:
            v = rng.standard_normal(side)
            v /= np.linalg.norm(v)
            return self.from_matrix(np.outer(v, v).astype(complex))
        v = rng.standard_normal(side) + 1j * rng.standard_normal(side)
        v /= np.linalg.norm(v)
        if self.family == COMPLEX:
            return self.from_matrix(np.outer(v, v.conj()))
        w = self._J @ v.conj()
        w = w - v * (v.conj() @ w)
        w /= np.linalg.norm(w)
        return self.from_matrix(np.outer(v, v.conj()) + np.outer(w, w.conj()))

    # -- automorphisms -----------------------------------------------------

    def conjugation_matrix(self, u: np.ndarray) -> np.ndarray:
        """Coordinate matrix of X -> U X U^dagger for a unitary U."""
        cols = []
        for b in self._basis:
            cols.append(self.from_matrix(u @ b @ u.conj().T))
        return np.column_stack(cols)

    def rotation_generator(self, w1: np.ndarray, w2: np.ndarray):
        """Data for the one-parameter automorphism family carrying the pure
        state w1 to w2; returns a callable t -> coordinate matrix (t in [0,1]).
        """
        if self.family == SPIN:
            x1 = w1[1:] / np.linalg.norm(w1[1:])
            x2 = w2[1:] / np.linalg.norm(w2[1:])
            return lambda t: _spin_rotation(self.dim, x1, x2, t)
        if self.family == QUAT:
            p = self._pair_isometry(w1)
            q = self._pair_isometry(w2)
            lam = p.conj().T @ q            # 2x2 image of the quaternion <p,q>
            norm = math.sqrt(max(float(np.trace(lam.conj().T @ lam).real) / 2.0, 0.0))
            if norm > 1e-12:
                q = q @ (lam.conj().T / norm)   # right unit-quaternion phase
                cos = min(norm, 1.0)
            else:
                cos = 0.0
            if cos > 1.0 - 1e-14:
                return lambda t: np.eye(self.dim)
            w = q - p * cos
            w = w / np.linalg.norm(w[:, 0])
            theta = math.acos(cos)

            def uni(t):
                c, s = math.cos(t * theta), math.sin(t * theta)
                u = (np.eye(self._side, dtype=complex)
                     + (c - 1.0) * (p @ p.conj().T + w @ w.conj().T)
                     + s * (w @ p.conj().T - p @ w.conj().T))
                return self.conjugation_matrix(u)

            return uni
        # real / complex: rank-1 projectors, rotate the top eigenvector
        v1 = self._top_vector(w1)
        v2 = self._top_vector(w2)
        ip = v1.conj() @ v2
        if self.family == COMPLEX and abs(ip) > 1e-12:
            v2 = v2 * (ip.conjugate() / abs(ip))
            ip = v1.conj() @ v2
        if self.family == REAL and ip.real < 0:
            v2 = -v2
            ip = v1.conj() @ v2
        cos = min(max(ip.real, -1.0), 1.0)
        if cos > 1.0 - 1e-14:
            return lambda t: np.eye(self.dim)
        if cos < -1.0 + 1e-14 or np.linalg.norm(v2 - cos * v1) < 1e-12:
            # antipodal real case: route through an arbitrary orthogonal axis
            aux = _orthogonal_unit(v1)
            mid = self.from_matrix(np.outer(aux, aux.conj()))
            half1 = self.rotation_generator(w1, mid)
            half2 = self.rotation_generator(mid, w2)
            return lambda t: (half2(max(0.0, 2 * t - 1)) @ half1(min(1.0, 2 * t)))
        w = v2 - cos * v1
        w = w / np.linalg.norm(w)
        theta = math.acos(cos)

        def uni(t):
            c, s = math.cos(t * theta), math.sin(t * theta)
            u = (np.eye(self._side, dtype=complex)
                 + (c - 1.0) * (np.outer(v1, v1.conj()) + np.outer(w, w.conj()))
                 + s * (np.outer(w, v1.conj()) - np.outer(v1, w.conj())))
            return self.conjugation_matrix(u)

        return uni

    def _top_vector(self, w: np.ndarray) -> np.ndarray:
        m = self.to_matrix(w)
        vals, vecs = np.linalg.eigh(m.real if self.family == REAL else m)
        return vecs[:, -1]

    def _pair_isometry(self, w: np.ndarray) -> np.ndarray:
        """2-column isometry [v, J conj(v)] spanning the quaternionic line of
        a pure quaternionic state."""
        m = self.to_matrix(w)
        vals, vecs = np.linalg.eigh(m)
        v = vecs[:, -1]
        u = self._J @ v.conj()
        u = u - v * (v.conj() @ u)
        u /= np.linalg.norm(u)
        return np.column_stack([v, u])

    def __repr__(self):
        if self.family == SPIN:
            return f"SimpleFactor(spin, dim={self.dim})"
        return f"SimpleFactor({self.family}, rank={self.rank})"

    def descriptor(self) -> tuple:
        return (self.family, self.rank, self.dim)


def _spin_rotation(dim: int, x1: np.ndarray, x2: np.ndarray, t: float) -> np.ndarray:
    n = dim - 1
    cos = float(np.clip(x1 @ x2, -1.0, 1.0))
    if cos > 1.0 - 1e-14:
        rot = np.eye(n)
    else:
        if cos < -1.0 + 1e-14:
            aux = _orthogonal_unit(x1.astype(complex)).real
            w = aux - (x1 @ aux) * x1
        else:
            w = x2 - cos * x1
        w = w / np.linalg.norm(w)
        theta = math.acos(cos)
        c, s = math.cos(t * theta), math.sin(t * theta)
        rot = (np.eye(n) + (c - 1.0) * (np.outer(x1, x1) + np.outer(w, w))
               + s * (np.outer(w, x1) - np.outer(x1, w)))
    out = np.eye(dim)
    out[1:, 1:] = rot
    return out


def _orthogonal_unit(v: np.ndarray) -> np.ndarray:
    k = int(np.argmin(np.abs(v)))
    e = np.zeros_like(v)
    e[k] = 1.0
    w = e - v * (v.conj() @ e)
    return w / np.linalg.norm(w)


@dataclass
class Summand:
    """A simple summand with its coordinate embedding into the direct sum."""
    factor: SimpleFactor
    offset: int

    @property
    def sl(self) -> slice:
        return slice(self.offset, self.offset + self.factor.dim)


class JordanAlgebra:
    """Direct sum of simple EJAs; all operations act blockwise."""

    def __init__(self, factors: list[SimpleFactor]):
        if not factors:
            raise ValueError("need at least one summand")
        self.summands: list[Summand] = []
        off = 0
        for f in factors:
            self.summands.append(Summand(f, off))
            off += f.dim
        self.dim = off
        self.rank = sum(f.rank for f in factors)

    @property
    def factors(self) -> list[SimpleFactor]:
        return [s.factor for s in self.summands]

    def is_simple(self) -> bool:
        return len(self.summands) == 1

    def _check_dim(self, *elts: np.ndarray):
        for a in elts:
            if len(a) != self.dim:
                raise ValueError(f"dimension mismatch: {len(a)} != {self.dim}")

    def product(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self._check_dim(a, b)
        out = np.empty(self.dim)
        for s in self.summands:
            out[s.sl] = s.factor.product(a[s.sl], b[s.sl])
        return out

    def unit(self) -> np.ndarray:
        out = np.empty(self.dim)
        for s in self.summands:
            out[s.sl] = s.factor.unit()
        return out

    def trace_functional(self) -> np.ndarray:
        out = np.empty(self.dim)
        for s in self.summands:
            out[s.sl] = s.factor.trace_functional()
        return out

    def trace_inner(self, a: np.ndarray, b: np.ndarray) -> float:
        self._check_dim(a, b)
        return sum(s.factor.trace_inner(a[s.sl], b[s.sl]) for s in self.summands)

    def spectral(self, a: np.ndarray) -> SpectralDecomposition:
        self._check_dim(a)
        eigs = []
        idem = []
        for s in self.summands:
            dec = s.factor.spectral(a[s.sl])
            for lam, c in zip(dec.eigenvalues, dec.idempotents):
                eigs.append(lam)
                full = np.zeros(self.dim)
                full[s.sl] = c
                idem.append(full)
        return SpectralDecomposition(np.array(eigs), idem)

    def min_eigenvalue(self, a: np.ndarray) -> float:
        return float(np.min(self.spectral(a).eigenvalues))

    def apply_spectral(self, a: np.ndarray, fn) -> np.ndarray:
        out = np.empty(self.dim)
        for s in self.summands:
            out[s.sl] = s.factor.apply_spectral(a[s.sl], fn)
        return out

    def quadratic_rep(self, a: np.ndarray) -> np.ndarray:
        """Matrix of x -> 2 a*(a*x) - (a*a)*x on coordinates."""
        self._check_dim(a)
        aa = self.product(a, a)
        cols = []
        for k in range(self.dim):
            e = np.zeros(self.dim)
            e[k] = 1.0
            cols.append(2.0 * self.product(a, self.product(a, e))
                        - self.product(aa, e))
        return np.column_stack(cols)

    def summand_of(self, a: np.ndarray, tol: float = 1e-9) -> int | None:
        """Index of the single summand supporting a, or None if spread out."""
        self._check_dim(a)
        live = [i for i, s in enumerate(self.summands)
                if np.linalg.norm(a[s.sl]) > tol]
        return live[0] if len(live) == 1 else None

    def embed(self, index: int, coords: np.ndarray) -> np.ndarray:
        out = np.zeros(self.dim)
        out[self.summands[index].sl] = coords
        return out

    def canonical_frame(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        if not self.is_simple():
            raise ValueError("canonical_frame is defined per simple summand")
        return self.summands[0].factor.canonical_frame()

    def overlap_state(self) -> np.ndarray:
        if not self.is_simple():
            raise ValueError("overlap_state is defined per simple summand")
        return self.summands[0].factor.overlap_state()

    # -- sampling ----------------------------------------------------------

    def random_element(self, rng) -> np.ndarray:
        return rng.standard_normal(self.dim)

    def random_interior(self, rng) -> np.ndarray:
        out = np.empty(self.dim)
        for s in self.summands:
            out[s.sl] = s.factor.random_interior(rng)
        return out

    def random_positive(self, rng) -> np.ndarray:
        a = self.random_element(rng)
        return self.apply_spectral(a, abs)

    def random_pure(self, rng, summand: int | None = None) -> np.ndarray:
        if summand is None:
            summand = int(rng.integers(len(self.summands)))
        s = self.summands[summand]
        return self.embed(summand, s.factor.random_pure(rng))

    def sqrt(self, a: np.ndarray) -> np.ndarray:
        return self.apply_spectral(a, lambda x: math.sqrt(max(x, 0.0)))

    def inv_sqrt(self, a: np.ndarray) -> np.ndarray:
        return self.apply_spectral(a, lambda x: 1.0 / math.sqrt(x))

    def descriptor(self) -> list[tuple]:
        return [s.factor.descriptor() for s in self.summands]

    def __repr__(self):
        return "JordanAlgebra(" + " + ".join(repr(f) for f in self.factors) + ")"


def real_sym(rank: int) -> JordanAlgebra:
    return JordanAlgebra([SimpleFactor(REAL, rank)])


def complex_herm(rank: int) -> JordanAlgebra:
    return JordanAlgebra([SimpleFactor(COMPLEX, rank)])


def quat_herm(rank: int) -> JordanAlgebra:
    return JordanAlgebra([SimpleFactor(QUAT, rank)])


def spin_factor(dim: int) -> JordanAlgebra:
    return JordanAlgebra([SimpleFactor(SPIN, 2, spin_dim=dim)])


def classical(n: int) -> JordanAlgebra:
    """Classical n-outcome system: direct sum of n one-dimensional algebras."""
    return JordanAlgebra([SimpleFactor(REAL, 1) for _ in range(n)])
