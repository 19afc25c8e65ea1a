"""Slower routes to EJA questions, kept as oracles.

Membership reads eigenvalues alone (`JordanAlgebra.eigenvalues`, on whole
stacks), max-tensor pairing minimization sweeps all its starts as one stack
and builds only the idempotent each row needs, the quaternionic Kramers
pairs are picked for a whole stack at once, the quadratic representation
is built from stacked products, and the conjugation matrix and the Hilbert
composite's coordinate change each come from one basis stack.  These oracles answer the same questions the old way,
one element or one column at a time, and the tests compare the routes bit
for bit.
"""

from __future__ import annotations

import numpy as np

from conelab.composite import MaxTensorCone
from conelab.eja import JordanAlgebra, SimpleFactor


def first_dual_extremal_outside(alg: JordanAlgebra, members, inv: np.ndarray,
                                tol: float):
    """(member, margin) of the first member e whose pull-back inv @ e leaves
    the positive cone, or None: one decomposition per member."""
    for e in members:
        margin = float(np.min(alg.spectral(inv @ e).eigenvalues))
        if not margin >= -tol:
            return e, margin
    return None


def pure_effect_minimizing_by_spectral(factor: SimpleFactor, x: np.ndarray):
    """(value, pure effect) minimizing <e, x>, from the full decomposition."""
    dec = factor.spectral(x)
    k = int(np.argmin(dec.eigenvalues))
    return float(dec.eigenvalues[k]), factor.metric * dec.idempotents[k]


def pairing_minimum_by_starts(comp, x: np.ndarray) -> float:
    """The max-tensor pairing minimum over two simple factors, one start at
    a time: each half-sweep minimizes over the pure effects of one factor
    from a full decomposition of one element."""
    fa = comp.factorA.cone.algebra.factors[0]
    fb = comp.factorB.cone.algebra.factors[0]
    m = x.reshape(comp.dimA, comp.dimB)
    rng = np.random.default_rng(MaxTensorCone.SEED)
    best = np.inf
    for _ in range(MaxTensorCone.STARTS):
        f = fb.metric * comp.factorB.cone.sample_extremal(rng)
        for _ in range(MaxTensorCone.SWEEPS):
            _, e = pure_effect_minimizing_by_spectral(fa, m @ f)
            _, f = pure_effect_minimizing_by_spectral(fb, m.T @ e)
        best = min(best, float(e @ m @ f))
    return best


def kramers_columns_by_loop(factor: SimpleFactor, vecs: np.ndarray) -> list[int]:
    """Kept eigenvector columns of one quaternionic (side, side) matrix:
    each column is orthonormalized against the pairs (v, J conj(v)) kept
    before it and skipped when its residual is below 1e-8."""
    chosen: list[np.ndarray] = []
    kept = []
    for k in range(vecs.shape[-1]):
        v = vecs[:, k]
        if chosen:
            basis = np.column_stack(chosen)
            v = v - basis @ (basis.conj().T @ v)
            nv = np.linalg.norm(v)
            if nv < 1e-8:
                continue
            v = v / nv
        kept.append(k)
        chosen.extend([v, factor._J @ v.conj()])
    return kept


def quadratic_rep_by_columns(alg: JordanAlgebra, a: np.ndarray) -> np.ndarray:
    """Matrix of x -> 2 a*(a*x) - (a*a)*x, one column per basis vector,
    each from three algebra products."""
    aa = alg.product(a, a)
    cols = []
    for k in range(alg.dim):
        e = np.zeros(alg.dim)
        e[k] = 1.0
        cols.append(2.0 * alg.product(a, alg.product(a, e))
                    - alg.product(aa, e))
    return np.column_stack(cols)


def conjugation_matrix_by_columns(factor: SimpleFactor,
                                  u: np.ndarray) -> np.ndarray:
    """Coordinate matrix of X -> U X U^dagger, one basis element a column."""
    return np.column_stack([factor.from_matrix(u @ b @ u.conj().T)
                            for b in factor._basis])


def hilbert_rotation_by_pairs(fa: SimpleFactor, fb: SimpleFactor) -> np.ndarray:
    """Coordinates in the complex rank fa.rank * fb.rank algebra of
    kron(a_i, b_j), as column i * fb.dim + j, one pair at a time."""
    glob = SimpleFactor("complex", fa.rank * fb.rank)
    rot = np.zeros((glob.dim, fa.dim * fb.dim))
    for i in range(fa.dim):
        for j in range(fb.dim):
            rot[:, i * fb.dim + j] = glob.from_matrix(
                np.kron(fa._basis[i], fb._basis[j]))
    return rot


def hilbert_pairings_by_pairs(fa: SimpleFactor, fb: SimpleFactor,
                              rho: np.ndarray) -> np.ndarray:
    """Re tr(rho kron(a_i, b_j)) at position i * fb.dim + j, one pair at a
    time."""
    m = np.zeros((fa.dim, fb.dim))
    for i in range(fa.dim):
        for j in range(fb.dim):
            m[i, j] = float(np.real(np.trace(
                rho @ np.kron(fa._basis[i], fb._basis[j]))))
    return m.ravel()
