"""Test helpers that no package route calls, and the sampled face-profile
oracle.

`probabilistic_inverse`, `classical_effect_test`, `check_positive`,
`sample_state`, `product_effect`, `trace_inner`, `overlap_state`,
`random_element`, `random_interior` and `random_positive` build inputs and
checks for the tests, `assert_same_text` compares long texts, and
`same_bits` and `assert_same_verdict` compare values and verdicts bit for
bit.
`face_profile_by_sampling` is the sampled route that `axioms.face_profile`
replaced by its closed form: a maximum over sampled pure states, so only a
lower bound on the profile.
"""

from __future__ import annotations

import math

import numpy as np

from conelab import eja
from conelab.composite import CompositeSystem, LinearImageCone
from conelab.cones import (DEFAULT_TOL, ISO_SAMPLES, ConeError, EJACone,
                           System, face_dimension)


def probabilistic_inverse(m: np.ndarray, source: System, target: System,
                          rng=None) -> tuple[np.ndarray, float]:
    """Sub-normalized positive left-inverse of the map m from source to
    target: returns (Phi_sharp, p) with Phi_sharp @ m = p * id."""
    inv = np.linalg.inv(m)
    pts = source.base_generators()
    if rng is not None:
        pts += [source.sample_pure(rng) for _ in range(20)]
    vals = [float(target.unit @ (inv @ x)) for x in pts]
    p = 1.0 / max(max(vals), 1e-300)
    return p * inv, p


def classical_effect_test(system: System, e: np.ndarray,
                          tol: float = 1e-9) -> bool:
    """Does e evaluate to 0 or 1 on every pure state?"""
    e = np.asarray(e, dtype=float)
    slack = max(tol, 1e-8)
    if not (system.cone.dual_member(e, slack)
            and system.cone.dual_member(system.unit - e, slack)):
        raise ConeError("effect outside the interval [0, unit]")
    cone = system.cone
    if isinstance(cone, EJACone):
        for s in cone.algebra.summands:
            # the algebra element realizing the effect is e / metric
            vals = s.factor.eigenvalues(e[s.sl] / s.factor.metric)
            near0 = np.abs(vals) < tol
            near1 = np.abs(vals - 1.0) < tol
            if not np.all(near0 | near1):
                return False
            if np.any(near0) and np.any(near1):
                return False
        return True
    rng = np.random.default_rng(5)
    for _ in range(200):
        v = float(e @ system.sample_pure(rng))
        if min(abs(v), abs(v - 1.0)) > max(tol, 1e-8):
            return False
    return True


def check_positive(m: np.ndarray, source: System, target: System, rng,
                   tol: float = DEFAULT_TOL) -> bool:
    """Does the map m send every generator and ISO_SAMPLES sampled
    extremals of the source cone into the target cone?"""
    for g in source.cone.generators():
        if not target.cone.member(m @ g, tol):
            return False
    for _ in range(ISO_SAMPLES):
        g = source.cone.sample_extremal(rng)
        if not target.cone.member(m @ g, tol):
            return False
    return True


def sample_state(comp: CompositeSystem, rng) -> np.ndarray:
    """A random composite state: a random positive element of the global
    algebra for the Hilbert model, else a random mixture of products of
    factor generators."""
    if isinstance(comp.cone, LinearImageCone):
        return comp.cone.rot.T @ random_positive(comp.cone.inner.algebra, rng)
    gens = comp.product_generators()
    w = rng.random(len(gens))
    return sum(wi * g for wi, g in zip(w, gens))


def product_effect(comp: CompositeSystem, ea: np.ndarray,
                   eb: np.ndarray) -> np.ndarray:
    ea = np.asarray(ea, dtype=float)
    eb = np.asarray(eb, dtype=float)
    if ea.shape != (comp.dimA,) or eb.shape != (comp.dimB,):
        raise ConeError("dimension mismatch in product effect")
    return np.kron(ea, eb)


def face_profile_by_sampling(system: System, w: np.ndarray,
                             samples: int = 200, tol: float = 1e-9) -> int:
    """max over sampled pure sigma of dim span Face(w + sigma)."""
    rng = np.random.default_rng(11)
    best = 0
    for _ in range(samples):
        sigma = system.sample_pure(rng)
        best = max(best, face_dimension(system.cone, w + sigma, tol=tol))
        if best == system.dim:
            break
    return best


def assert_same_text(a: str, b: str) -> None:
    """Fail unless a == b, naming the first offset where they differ and
    80 characters of each around it, so that two long texts are never
    diffed whole."""
    if a == b:
        return
    # find the first differing 4096-character block, then the character
    block = 4096
    start = next((k for k in range(0, min(len(a), len(b)), block)
                  if a[k:k + block] != b[k:k + block]), min(len(a), len(b)))
    at = next((k for k in range(start, min(len(a), len(b), start + block))
               if a[k] != b[k]), min(len(a), len(b), start + block))
    lo = max(0, at - 40)
    raise AssertionError(f"texts differ at offset {at} (lengths {len(a)} and "
                         f"{len(b)}): {a[lo:lo + 80]!r} != {b[lo:lo + 80]!r}")


def same_bits(a, b) -> bool:
    """Equal values with equal bits: floats by their hex form, arrays by
    shape, dtype and bytes, containers element by element."""
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(same_bits(a[k], b[k]) for k in a))
    if isinstance(a, (list, tuple)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(map(same_bits, a, b)))
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.shape == b.shape
                and a.dtype == b.dtype and a.tobytes() == b.tobytes())
    if isinstance(a, float):
        return isinstance(b, float) and a.hex() == b.hex()
    return a == b


def assert_same_verdict(v, ref) -> None:
    """Two verdicts agree in status and detail, and bit for bit in margin,
    witness and violation."""
    assert (v.status, v.detail) == (ref.status, ref.detail)
    for name in ("margin", "witness", "violation"):
        assert same_bits(getattr(v, name), getattr(ref, name)), name


def trace_inner(alg: eja.JordanAlgebra, a: np.ndarray, b: np.ndarray) -> float:
    """The trace form: the coordinate product weighted by the metric."""
    return float((alg.metric * a) @ b)


def random_element(alg: eja.JordanAlgebra, rng) -> np.ndarray:
    """A random element: standard normal coordinates."""
    return rng.standard_normal(alg.dim)


def random_interior(alg: eja.JordanAlgebra, rng) -> np.ndarray:
    """One interior point: `random_interiors` of one."""
    return alg.random_interiors(rng, 1)[0]


def random_positive(alg: eja.JordanAlgebra, rng) -> np.ndarray:
    """|a| of a random element a: a random member of the positive cone."""
    return alg.apply_spectral(random_element(alg, rng), abs)


def overlap_state(alg: eja.JordanAlgebra) -> np.ndarray:
    """A pure state of a simple algebra with overlap 1/rank against every
    canonical frame effect."""
    if not alg.is_simple():
        raise ValueError("overlap_state is defined per simple summand")
    f = alg.factors[0]
    if f.family == eja.SPIN:
        # any unit vector non-parallel to the frame axis works; fix the
        # 45-degree rotation of the first axis into the second
        c = np.zeros(f.dim)
        c[0] = 0.5
        if f.dim >= 3:
            c[1] = c[2] = 0.5 / math.sqrt(2.0)
        else:
            c[1] = 0.5
        return c
    side = f._side
    if f.family == eja.QUAT:
        v = np.zeros(side, dtype=complex)
        v[0::2] = 1.0 / math.sqrt(f.rank)
        w = f._J @ v.conj()
        return f.from_matrix(np.outer(v, v.conj()) + np.outer(w, w.conj()))
    v = np.ones(side, dtype=complex) / math.sqrt(side)
    return f.from_matrix(np.outer(v, v.conj()))
