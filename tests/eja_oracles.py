"""Slower routes to EJA membership questions, kept as oracles.

Membership reads eigenvalues alone (`JordanAlgebra.eigenvalues`, on whole
stacks) and max-tensor pairing minimization builds only the idempotent it
returns.  These oracles answer the same questions the old way, one full
`spectral` decomposition per element, and the tests compare the routes bit
for bit.
"""

from __future__ import annotations

import numpy as np

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
