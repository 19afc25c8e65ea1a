"""Euclidean Jordan algebras over real coordinates.

Simple factors: real symmetric, complex Hermitian, and quaternionic Hermitian
matrices, plus spin factors.  Quaternionic matrices are realized as complex
2r x 2r matrices with the symplectic reality constraint J conj(H) J^{-1} = H,
so a single complex eigensolver serves all matrix families.  Every element is
a real coordinate vector over a fixed basis; matrix-family bases are
orthonormal under the trace form.  Spin-factor coordinates are (s, x) with
trace form 2(st + x.y), so each factor carries a `metric`, the constant
ratio of its trace form to the Euclidean dot product of coordinates.

Direct sums are handled by `JordanAlgebra`, which concatenates summand
coordinates and applies every operation blockwise.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

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

# (upper, lower) off-diagonal blocks of each matrix family's basis, before
# the 1/sqrt(2): k x k with k = 2 for quaternions and 1 otherwise.  The
# lower blocks are the adjoints, written out: -1j keeps its real part -0.0.
_OFF_DIAGONAL_UNITS = {
    REAL: [(1, 1)],
    COMPLEX: [(1, 1), (1j, -1j)],
    QUAT: [(q, q.conj().T) for q in _Q_UNITS],
}


@dataclass
class SpectralDecomposition:
    eigenvalues: np.ndarray          # length = rank
    idempotents: list[np.ndarray]    # primitive, pairwise orthogonal, sum = unit


class SimpleFactor:
    """One simple EJA: product, spectral theory, frames.

    Elements are real coordinate vectors of length `dim`, the size of the
    basis.  The trace form is `metric` times the Euclidean dot product, so
    `metric * x` is the coordinate vector of the effect <x, .>.  A spin
    factor needs `spin_dim` >= 3: spin dim 2 is R + R, which is not simple.
    """

    def __init__(self, family: str, rank: int, spin_dim: int | None = None):
        if family not in (REAL, COMPLEX, QUAT, SPIN):
            raise ValueError(f"unknown family {family!r}")
        if rank < 1:
            raise ValueError(f"rank must be at least 1, got {rank}")
        if family == SPIN and rank != 2:
            raise ValueError("spin factors have rank 2")
        if family != SPIN and spin_dim is not None:
            raise ValueError("spin_dim only applies to spin factors")
        self.family = family
        self.rank = rank
        self.metric = 2.0 if family == SPIN else 1.0
        if family == SPIN:
            if spin_dim is None or spin_dim < 3:
                raise ValueError(
                    f"spin factor needs its own dim parameter >= 3, got "
                    f"{spin_dim} (spin dim 2 is the quadrant R + R: ask for "
                    f"classical 2)")
            self.dim = spin_dim
        else:
            # side length of the underlying complex matrix
            self._side = 2 * rank if family == QUAT else rank
            # (dim, side, side) stacks of the basis and of its conjugate
            self._basis = np.array(self._build_basis())
            self.dim = len(self._basis)
            self._basis_conj = self._basis.conj()
            # the basis as (dim, side * side) rows, for `to_matrix`
            self._basis_rows = self._basis.reshape(self.dim, -1)
            self._kappa = 0.5 if family == QUAT else 1.0
            if family == QUAT:
                # the unit j in each diagonal block: J conj(H) J^-1 = H
                self._J = np.kron(np.eye(rank), _Q_UNITS[2])

    # -- matrix-family plumbing -------------------------------------------

    def _build_basis(self) -> list[np.ndarray]:
        """The diagonal identity blocks E_ii, then for each i < j one
        element per entry of `_OFF_DIAGONAL_UNITS`: its upper block at
        (i, j) and its lower block at (j, i), over sqrt(2)."""
        r, k = self.rank, self._side // self.rank
        blocks = [slice(k * i, k * i + k) for i in range(r)]
        basis = []
        for b in blocks:
            e = np.zeros((self._side, self._side), dtype=complex)
            e[b, b] = np.eye(k)
            basis.append(e)
        for i, j in itertools.combinations(range(r), 2):
            for upper, lower in _OFF_DIAGONAL_UNITS[self.family]:
                e = np.zeros((self._side, self._side), dtype=complex)
                e[blocks[i], blocks[j]] = upper / _SQ2
                e[blocks[j], blocks[i]] = lower / _SQ2
                basis.append(e)
        return basis

    def to_matrix(self, coords: np.ndarray) -> np.ndarray:
        side = self._side
        return (coords @ self._basis_rows).reshape(
            coords.shape[:-1] + (side, side))

    def from_matrix(self, m: np.ndarray) -> np.ndarray:
        """Coordinates of a (side, side) matrix, or of each matrix of a
        (..., side, side) stack."""
        # trace(b^H m) = sum_ij conj(b_ij) m_ij for every basis element b
        return self._kappa * np.einsum("kij,...ij->...k", self._basis_conj,
                                       m).real

    # -- algebra operations ------------------------------------------------

    def unit(self) -> np.ndarray:
        if self.family == SPIN:
            return np.eye(1, self.dim)[0]
        return self.from_matrix(np.eye(self._side, dtype=complex))

    def trace_functional(self) -> np.ndarray:
        """Coordinates of the trace functional under the Euclidean pairing."""
        return self.metric * self.unit()

    def product(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Jordan product a o b.  Either argument may be a (..., dim) stack;
        the stacks broadcast, and each row has the bits of a single call."""
        if self.family == SPIN:
            s, x = a[..., :1], a[..., 1:]
            t, y = b[..., :1], b[..., 1:]
            # the per-row 1 x n @ n x 1 matmul is the dot product of one
            # pair, as in `_norms`; a matrix-vector product sums otherwise
            dot = (x[..., None, :] @ y[..., :, None])[..., 0]
            return np.concatenate([s * t + dot, s * y + t * x], axis=-1)
        ma, mb = self.to_matrix(a), self.to_matrix(b)
        return self.from_matrix(0.5 * (ma @ mb + mb @ ma))

    def _eigh(self, a: np.ndarray):
        """`np.linalg.eigh` of the matrix of a, or of each row of a stack."""
        m = self.to_matrix(a)
        return np.linalg.eigh(m.real if self.family == REAL else m)

    def _partner(self, v: np.ndarray) -> np.ndarray:
        """The symplectic partner J conj(v) of a quaternionic column v, or
        of each row of a (..., side) stack."""
        return v.conj() @ self._J.T

    def _kramers_columns(self, vecs: np.ndarray) -> np.ndarray:
        """Quaternionic eigenvalues come doubled: each eigenvector v (a
        column of `vecs`, in eigenvalue order) has the symplectic partner
        w = J conj(v) for the same eigenvalue.  Column k is kept unless its
        residual against the span of the earlier kept pairs is below 1e-8.
        `vecs` may be a (..., side, side) stack; returns the (..., side)
        mask of kept columns, one per primitive idempotent."""
        side = self._side
        cols = vecs.reshape(-1, side, side)
        keep = np.zeros((len(cols), side), dtype=bool)
        # orthonormal pairs of the kept columns; column k fills 2k and 2k+1
        span = np.zeros((len(cols), side, 2 * side), dtype=complex)
        for k in range(side):
            v = cols[:, :, k, None]
            v = (v - span @ (span.conj().swapaxes(1, 2) @ v))[:, :, 0]
            nv = np.linalg.norm(v, axis=1)
            keep[:, k] = nv >= 1e-8
            v = np.where(keep[:, k, None], v / np.maximum(nv, 1e-8)[:, None], 0)
            span[:, :, 2 * k] = v
            span[:, :, 2 * k + 1] = self._partner(v)
        return keep.reshape(vecs.shape[:-2] + (side,))

    def eigenvalues(self, a: np.ndarray) -> np.ndarray:
        """The eigenvalues `spectral` lists, bit for bit, without building
        idempotents; a may be a (..., dim) stack, one row per element."""
        if not np.isfinite(a).all():
            raise ValueError("non-finite input")
        if self.family == SPIN:
            s, nx = a[..., 0], _norms(a[..., 1:])
            return np.stack([s + nx, s - nx], axis=-1)
        vals, vecs = self._eigh(a)
        if self.family != QUAT:
            return vals
        return vals[self._kramers_columns(vecs)].reshape(
            vals.shape[:-1] + (self.rank,))

    def _spectral_rows(self, a: np.ndarray):
        """Eigenvalues, (n, rank), and primitive idempotents, a list of
        rank (n, dim) arrays, of each row of a (n, dim) stack, from one
        stacked decomposition; each row has the bits of its own.
        Quaternionic rows keep one column per Kramers pair: each kept
        column is orthonormalized against the earlier pairs, row by row,
        and paired with its symplectic partner J conj(v)."""
        if not np.all(np.isfinite(a)):
            raise ValueError("non-finite input")
        if self.family == SPIN:
            s, x = a[:, :1], a[:, 1:]
            nx = _norms(x)[:, None]
            tiny = nx[:, 0] < 1e-300
            if tiny.any():
                xhat = x / np.where(tiny[:, None], 1.0, nx)
                xhat[tiny] = np.eye(1, self.dim - 1)
            else:
                xhat = x / nx
            half = np.full((len(a), 1), 0.5)
            return (np.concatenate([s + nx, s - nx], axis=-1),
                    [np.concatenate([half, 0.5 * xhat], axis=-1),
                     np.concatenate([half, -0.5 * xhat], axis=-1)])
        vals, vecs = self._eigh(a)
        if self.family != QUAT:
            return vals, [self.from_matrix(_outers(vecs[:, :, k],
                                                   vecs[:, :, k].conj()))
                          for k in range(vals.shape[-1])]
        keep = self._kramers_columns(vecs)
        side = self._side
        projs = np.empty((len(a), self.rank, side, side), dtype=complex)
        for row, cols, proj in zip(vecs, keep, projs):
            chosen: list[np.ndarray] = []
            for j, k in enumerate(np.flatnonzero(cols)):
                v = row[:, k]
                if chosen:
                    basis = np.column_stack(chosen)
                    v = v - basis @ (basis.conj().T @ v)
                    v = v / np.linalg.norm(v)
                w = self._partner(v)
                chosen.extend([v, w])
                proj[j] = np.outer(v, v.conj()) + np.outer(w, w.conj())
        return (vals[keep].reshape(len(a), self.rank),
                [self.from_matrix(projs[:, j]) for j in range(self.rank)])

    def spectral(self, a: np.ndarray) -> SpectralDecomposition:
        vals, idempotents = self._spectral_rows(a[None])
        return SpectralDecomposition(vals[0], [c[0] for c in idempotents])

    def min_pure_effects(self, a: np.ndarray) -> np.ndarray:
        """For each row x of a (n, dim) stack, the pure effect minimizing
        <e, x> over normalized pure effects: `metric` times the primitive
        idempotent of x's smallest eigenvalue.  Each row has the bits of
        that idempotent in `spectral(x)`, the first of them on a tie.

        Spin factors pick from `_spectral_rows`' two idempotents, where
        s + |x| and s - |x| tie when x is small.  `eigh` sorts eigenvalues
        ascending, so the matrix families take the argmin eigenvector
        column; for quaternionic ones that column is the first kept
        Kramers column, which is paired with J conj(v) and needs no
        orthonormalization."""
        if self.family == SPIN:
            vals, (c0, c1) = self._spectral_rows(a)
            k = np.argmin(vals, axis=-1)
            return self.metric * np.where(k[:, None] == 0, c0, c1)
        if not np.all(np.isfinite(a)):
            raise ValueError("non-finite input")
        vals, vecs = self._eigh(a)
        k = np.argmin(vals, axis=-1)
        v = vecs[np.arange(len(a)), :, k]
        proj = _outers(v, v.conj())
        if self.family == QUAT:
            w = self._partner(v)
            proj = proj + _outers(w, w.conj())
        return self.metric * self.from_matrix(proj)

    def apply_spectral(self, a: np.ndarray, fn) -> np.ndarray:
        """sum_k fn(lambda_k) c_k over the spectral decomposition of a, or
        of each row of a (..., dim) stack, from one `_spectral_rows` call;
        fn maps an array of eigenvalues elementwise."""
        rows = np.reshape(a, (-1, self.dim))
        vals, idempotents = self._spectral_rows(rows)
        out = np.zeros(rows.shape)
        for k, c in enumerate(idempotents):
            out += fn(vals[:, k])[:, None] * c
        return out.reshape(np.shape(a))

    # -- frames and special states ----------------------------------------

    def canonical_frame(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Frame of orthogonal pure states and dual effects, <w_i, e_j> = d_ij.

        States are the diagonal primitive idempotents, the first `rank`
        basis elements (spin: the two idempotents on the first spatial
        axis); effects are their trace-form duals, which pair by the
        Euclidean coordinate product.
        """
        if self.family == SPIN:
            # unit has x = 0: deterministic split along the first spatial axis
            e = np.eye(self.dim)
            states = [0.5 * (e[0] + e[1]), 0.5 * (e[0] - e[1])]
        else:
            states = [self.from_matrix(m) for m in self._basis[:self.rank]]
        return states, [self.metric * s for s in states]

    # -- sampling ----------------------------------------------------------

    def _pure_draws(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """The normal draws of `count` pure states, a (count, parts, n)
        array: per state one block of n = dim - 1 (spin) or side values,
        then for complex and quaternionic factors a second block, the
        imaginary parts.  The generator fills an array one variate at a
        time in C order, so this is the stream of drawing each block of
        each state in turn."""
        n = self.dim - 1 if self.family == SPIN else self._side
        parts = 2 if self.family in (COMPLEX, QUAT) else 1
        return rng.standard_normal((count, parts, n))

    def _pures_from_draws(self, z: np.ndarray) -> np.ndarray:
        """The (count, dim) pure states of `_pure_draws` output: each draw
        normalized to a unit vector v, then the projector onto v (and, for
        quaternionic factors, onto its symplectic partner).  Norms and
        inner products go through `_norms`' per-row BLAS dot and complex
        vectors keep their strided real and imaginary parts, so each row
        has the bits of its sample transformed alone."""
        if self.family == SPIN:
            x = z[:, 0]
            x = x / _norms(x)[:, None]
            return np.concatenate([np.full((len(x), 1), 0.5), 0.5 * x],
                                  axis=-1)
        if self.family == REAL:
            v = z[:, 0]
            v = v / _norms(v)[:, None]
            return self.from_matrix(_outers(v, v).astype(complex))
        v = z[:, 0] + 1j * z[:, 1]
        v = v / _complex_norms(v)[:, None]
        proj = _outers(v, v.conj())
        if self.family == QUAT:
            w = self._partner(v)
            w = w - v * (v.conj()[:, None, :] @ w[:, :, None])[:, :, 0]
            w = w / _complex_norms(w)[:, None]
            proj = proj + _outers(w, w.conj())
        return self.from_matrix(proj)

    def random_pures(self, rng: np.random.Generator,
                     count: int) -> np.ndarray:
        """`count` unit-trace extremal elements (pure states of the trace
        base) as a (count, dim) stack.  Every draw comes first; each row
        has the draws and bits of a sample drawn and transformed alone."""
        return self._pures_from_draws(self._pure_draws(rng, count))

    def random_pure(self, rng: np.random.Generator) -> np.ndarray:
        """One unit-trace extremal element: `random_pures` of one."""
        return self.random_pures(rng, 1)[0]

    # -- automorphisms -----------------------------------------------------

    def conjugation_matrix(self, u: np.ndarray) -> np.ndarray:
        """Coordinate matrices of X -> U X U^dagger, a (k, dim, dim) stack
        for a (k, side, side) stack of unitaries U."""
        images = u[:, None] @ self._basis @ u.conj().swapaxes(-1, -2)[:, None]
        return np.ascontiguousarray(
            self.from_matrix(images).swapaxes(-1, -2))

    def rotation_maps(self, w1: np.ndarray, w2: np.ndarray,
                      ts) -> np.ndarray:
        """Coordinate matrices of the one-parameter automorphism family
        carrying the pure state w1 to w2, at each t of `ts` (t in [0, 1]),
        as a (len(ts), dim, dim) stack: the automorphisms of the unitaries
        u(t) = I + (cos t theta - 1)(PP* + WW*) + sin t theta (WP* - PW*),
        theta = acos(cos), which turn p's columns toward q's and fix the
        rest.  p and q are unit spin axes, top eigenvectors or quaternionic
        line isometries, aligned so that p* q = cos.  A matrix family
        conjugates by u(t); a spin factor turns its spatial block by u(t).
        Only spin axes can be antipodal: W then comes from
        `_orthogonal_unit`, in complex arithmetic, which fixes its bits.
        Each map has the bits of one built for its t alone."""
        if self.family == SPIN:
            x1 = w1[1:] / np.linalg.norm(w1[1:])
            x2 = w2[1:] / np.linalg.norm(w2[1:])
            p, q = x1[:, None], x2[:, None]
            cos = float(np.clip(x1 @ x2, -1.0, 1.0))
        elif self.family == QUAT:
            p = self._pair_isometry(w1)
            q = self._pair_isometry(w2)
            lam = p.conj().T @ q            # 2x2 image of the quaternion <p,q>
            norm = math.sqrt(max(float(np.trace(lam.conj().T @ lam).real) / 2.0, 0.0))
            cos = 0.0
            if norm > 1e-12:
                q = q @ (lam.conj().T / norm)   # right unit-quaternion phase
                cos = min(norm, 1.0)
        else:
            # real / complex: rank-1 projectors, rotate the top eigenvector
            v1 = self._top_vector(w1)
            v2 = self._top_vector(w2)
            ip = v1.conj() @ v2
            if abs(ip) > 1e-12:     # align the phase (real: the sign) of v2
                v2 = v2 * (ip.conjugate() / abs(ip))
                ip = v1.conj() @ v2
            # aligned, so cos >= -1e-12 and v2 - cos v1 is not null
            p, q, cos = v1[:, None], v2[:, None], min(ip.real, 1.0)
        if cos > 1.0 - 1e-14:
            return np.tile(np.eye(self.dim), (len(ts), 1, 1))
        if cos < -1.0 + 1e-14:
            x = p[:, 0]
            aux = _orthogonal_unit(x.astype(complex)).real
            w = (aux - (x @ aux) * x)[:, None]
        else:
            w = q - cos * p
        w = w / np.linalg.norm(w[:, 0])
        theta = math.acos(cos)
        plane = _adjoint_product(p, p) + _adjoint_product(w, w)
        gen = _adjoint_product(w, p) - _adjoint_product(p, w)
        c, s = np.array([(math.cos(t * theta), math.sin(t * theta))
                         for t in ts]).T[:, :, None, None]
        u = np.eye(len(p), dtype=p.dtype) + (c - 1.0) * plane + s * gen
        if self.family != SPIN:
            return self.conjugation_matrix(u)
        out = np.zeros((len(ts), self.dim, self.dim))
        out[:, 0, 0] = 1.0
        out[:, 1:, 1:] = u
        return out

    def _top_vector(self, w: np.ndarray) -> np.ndarray:
        return self._eigh(w)[1][:, -1]

    def _pair_isometry(self, w: np.ndarray) -> np.ndarray:
        """2-column isometry [v, J conj(v)] spanning the quaternionic line of
        a pure quaternionic state."""
        v = self._top_vector(w)
        u = self._partner(v)
        u = u - v * (v.conj() @ u)
        u /= np.linalg.norm(u)
        return np.column_stack([v, u])

    def __repr__(self):
        if self.family == SPIN:
            return f"SimpleFactor(spin, dim={self.dim})"
        return f"SimpleFactor({self.family}, rank={self.rank})"

    def descriptor(self) -> tuple:
        return (self.family, self.rank, self.dim)


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of x or of each row of a stack.  A 1 x n by n x 1
    matmul takes the BLAS dot product that `np.linalg.norm` takes on one
    vector, so a stack gets the same bits as a loop over its rows;
    `norm(x, axis=-1)` sums in another order."""
    return np.sqrt((x[..., None, :] @ x[..., :, None])[..., 0, 0])


def _complex_norms(v: np.ndarray) -> np.ndarray:
    """`np.linalg.norm` of each complex row of a stack, bit for bit: the
    root of the dot products of the real and of the imaginary parts, taken
    on their strided views as `norm` takes them on one vector."""
    re, im = v.real, v.imag
    return np.sqrt((re[..., None, :] @ re[..., :, None])[..., 0, 0]
                   + (im[..., None, :] @ im[..., :, None])[..., 0, 0])


def _outers(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`np.outer` of each pair of rows of two (n, side) stacks."""
    return a[:, :, None] * b[:, None, :]


def _adjoint_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x y^dagger for two (side, k) column blocks.  A single column takes
    `np.outer`: a matrix product rounds its complex products otherwise."""
    if x.shape[1] == 1:
        return np.outer(x, y.conj())
    return x @ y.conj().T


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
        # per-coordinate trace-form metric: metric * x is the effect <x, .>
        self.metric = np.concatenate([np.full(f.dim, f.metric)
                                      for f in factors])

    @property
    def factors(self) -> list[SimpleFactor]:
        return [s.factor for s in self.summands]

    def is_simple(self) -> bool:
        return len(self.summands) == 1

    def _check_dim(self, *elts: np.ndarray):
        for a in elts:
            if np.shape(a)[-1] != self.dim:
                raise ValueError(f"dimension mismatch: {np.shape(a)[-1]} "
                                 f"!= {self.dim}")

    def product(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Jordan product, summand by summand; either argument may be a
        (..., dim) stack, as in `SimpleFactor.product`."""
        self._check_dim(a, b)
        return np.concatenate([s.factor.product(a[..., s.sl], b[..., s.sl])
                               for s in self.summands], axis=-1)

    def unit(self) -> np.ndarray:
        out = np.empty(self.dim)
        for s in self.summands:
            out[s.sl] = s.factor.unit()
        return out

    def trace_functional(self) -> np.ndarray:
        return self.metric * self.unit()

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

    def eigenvalues(self, a: np.ndarray) -> np.ndarray:
        """The eigenvalues `spectral` lists, summand by summand, without
        building idempotents; a may be a (..., dim) stack."""
        self._check_dim(a)
        return np.concatenate([s.factor.eigenvalues(a[..., s.sl])
                               for s in self.summands], axis=-1)

    def min_eigenvalues(self, a: np.ndarray) -> np.ndarray:
        """Smallest eigenvalue of a, or of each row of a stack: a lies in
        the positive cone exactly when it is >= 0."""
        return np.min(self.eigenvalues(a), axis=-1)

    def apply_spectral(self, a: np.ndarray, fn) -> np.ndarray:
        """`SimpleFactor.apply_spectral` summand by summand; a may be a
        (..., dim) stack."""
        self._check_dim(a)
        return np.concatenate([s.factor.apply_spectral(a[..., s.sl], fn)
                               for s in self.summands], axis=-1)

    def quadratic_rep(self, a: np.ndarray) -> np.ndarray:
        """Matrix of x -> 2 a*(a*x) - (a*a)*x on coordinates, for one
        element a, or the (..., dim, dim) stack of them for a (..., dim)
        stack.  It is block diagonal; with x the summand's part of a and E
        its identity basis stacked as rows, the summand's block is
        (2 x*(x*E) - (x*x)*E)^T: four stacked products per summand."""
        self._check_dim(a)
        out = np.zeros(np.shape(a)[:-1] + (self.dim, self.dim))
        for s in self.summands:
            f, x = s.factor, a[..., None, s.sl]
            basis = np.eye(f.dim)
            out[..., s.sl, s.sl] = (
                2.0 * f.product(x, f.product(x, basis))
                - f.product(f.product(x, x), basis)).swapaxes(-1, -2)
        return out

    def summand_of(self, a: np.ndarray):
        """Index of the summand where a has norm above 1e-7, or None
        unless exactly one summand does, or the list of them for the rows
        of a (k, dim) stack; `_norms` has the bits of `np.linalg.norm`."""
        self._check_dim(a)
        rows = np.asarray(a, dtype=float).reshape(-1, self.dim)
        live = zip(*[(_norms(rows[:, s.sl]) > 1e-7).tolist()
                     for s in self.summands])
        found = [row.index(True) if sum(row) == 1 else None for row in live]
        return found if np.ndim(a) > 1 else found[0]

    def embed(self, index: int, coords: np.ndarray) -> np.ndarray:
        out = np.zeros(self.dim)
        out[self.summands[index].sl] = coords
        return out

    def canonical_frame(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        if not self.is_simple():
            raise ValueError("canonical_frame is defined per simple summand")
        return self.summands[0].factor.canonical_frame()

    # -- sampling ----------------------------------------------------------

    def random_interiors(self, rng, count: int) -> np.ndarray:
        """`count` interior points as a (count, dim) stack.  Each point
        takes, summand by summand, a standard normal element a and a
        uniform u, and is a + (|lambda_min(a)| + 0.5 + u) * unit there.
        Every draw comes first, in that point-by-point order, and each
        summand's lifts come from one stacked `eigenvalues` call."""
        a = np.empty((count, self.dim))
        u = np.empty((count, len(self.summands)))
        for k in range(count):
            for i, s in enumerate(self.summands):
                a[k, s.sl] = rng.standard_normal(s.factor.dim)
                u[k, i] = rng.random()
        out = np.empty_like(a)
        for i, s in enumerate(self.summands):
            f = s.factor
            lift = np.min(f.eigenvalues(a[:, s.sl]), axis=-1)
            out[:, s.sl] = (a[:, s.sl]
                            + (np.abs(lift) + 0.5 + u[:, i])[:, None]
                            * f.unit())
        return out

    def random_pures(self, rng, count: int,
                     summand: int | None = None) -> np.ndarray:
        """`count` pure states as a (count, dim) stack, each in one summand:
        `summand` if given, else one that `rng.integers` picks before the
        sample's draws.  Every draw comes first, and then each summand's
        rows are transformed together; each row has the draws and bits of
        a sample drawn alone."""
        out = np.zeros((count, self.dim))
        if summand is None and len(self.summands) > 1:
            picks = np.empty(count, dtype=int)
            draws = []
            for k in range(count):
                picks[k] = rng.integers(len(self.summands))
                draws.append(self.summands[picks[k]].factor._pure_draws(rng, 1))
            for i, s in enumerate(self.summands):
                rows = np.flatnonzero(picks == i)
                if rows.size:
                    out[rows, s.sl] = s.factor._pures_from_draws(
                        np.concatenate([draws[k] for k in rows]))
            return out
        # `rng.integers(1)` draws nothing, so one summand needs no pick
        s = self.summands[summand or 0]
        out[:, s.sl] = s.factor.random_pures(rng, count)
        return out

    def random_pure(self, rng, summand: int | None = None) -> np.ndarray:
        """One pure state: `random_pures` of one."""
        return self.random_pures(rng, 1, summand)[0]

    def sqrt(self, a: np.ndarray) -> np.ndarray:
        """Square root of a, or of each row of a (..., dim) stack."""
        return self.apply_spectral(a, lambda x: np.sqrt(np.maximum(x, 0.0)))

    def inv_sqrt(self, a: np.ndarray) -> np.ndarray:
        """Inverse square root of an interior a, or of each row of a stack."""
        return self.apply_spectral(a, lambda x: 1.0 / np.sqrt(x))

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
