"""Slower routes to EJA questions, kept as oracles.

Membership reads eigenvalues alone (`JordanAlgebra.eigenvalues`, on whole
stacks), max-tensor pairing minimization sweeps all its starts as one stack
and builds only the idempotent each row needs (a spin factor's from its
spectral idempotents, here in closed form), the quaternionic Kramers
pairs are picked for a whole stack at once and orthonormalized inside
one stacked decomposition, the quadratic representation
is built from stacked products, and the conjugation matrix and the Hilbert
composite's coordinate change each come from one basis stack.  Pure states
and interior points are drawn as stacks, order isomorphisms test all their
images at once, and homogeneity builds all its witnesses as one stack.
Pure-transitivity checks test the purity of their inputs and path states
as one stack (`cones.first_non_extremal`); `first_non_extremal_by_point`
tests one element at a time with a sorted 1-D eigenvalue call.  The
matrix bases come from one table of off-diagonal units, here from a
branch per family, and one plane rotation turns every family, here a
spin factor's spatial axes by their own formula.  The sampled
self-duality check reads its pairs in place from one symmetric Gram
matrix, here gathered through `np.triu_indices`; the `pure-transitivity`
check draws and normalizes its ten states as one stack, here one
`sample_pure` at a time; a rotation's maps come as one stack over t,
here from a closure called once per t (`rotation_by_closure`); and a
continuous path's maps form one stack, here built, tested and checked for
the unit one map at a time.  The
steering check draws, steers and validates its spot ensembles as one
stack, here one halving loop, one `steer` and one effect at a time
(`steering_check_by_ensemble`); and the `pure-transitivity` check
validates all its pairs with one stacked call, here pair by pair
(`pure_transitivity_by_pair`).  These oracles answer the same questions
the old way, one element or one column at a time, and the tests compare
the routes bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from conelab import axioms
from conelab import composite as cp
from conelab.composite import MaxTensorCone
from conelab.cones import (DEFAULT_TOL, FAILS, HOLDS, INCONCLUSIVE,
                           ISO_SAMPLES, ISO_SEED, ConeError, ConeModel,
                           EJACone, SharedCornerCone, System,
                           UnsupportedQuery, Verdict, first_non_extremal,
                           is_order_isomorphism)
from conelab.eja import (_Q_UNITS, COMPLEX, QUAT, REAL, SPIN, JordanAlgebra,
                         SimpleFactor, _adjoint_product, _orthogonal_unit)

_SQ2 = math.sqrt(2.0)


def first_non_extremal_by_point(alg: JordanAlgebra, xs, tol: float):
    """The index of the first element with a norm of at least tol that is
    not on an extremal ray (one eigenvalue above tol * scale, none below its
    negative), or None; a null element raises ValueError at its turn."""
    for k, x in enumerate(xs):
        if np.linalg.norm(x) < tol:
            raise ValueError("the null ray is excluded")
        vals = np.sort(alg.eigenvalues(x))
        scale = max(1.0, float(np.max(np.abs(vals))))
        if not (int(np.sum(vals < -tol * scale)) == 0
                and int(np.sum(vals > tol * scale)) == 1):
            return k
    return None


def first_dual_extremal_outside(alg: JordanAlgebra, members, inv: np.ndarray,
                                tol: float):
    """(member, margin) of the first member e whose pull-back inv @ e leaves
    the positive cone, or None: one decomposition per member."""
    for e in members:
        margin = float(np.min(alg.spectral(inv @ e).eigenvalues))
        if not margin >= -tol:
            return e, margin
    return None


def spin_min_pure_effects(factor: SimpleFactor, a: np.ndarray) -> np.ndarray:
    """For each row (s, x) of a spin factor's stack, the pure effect
    minimizing <e, x> in closed form: metric (1/2, -+x/2|x|) for the
    smaller of s + |x| and s - |x|, the first on a tie, with the first
    spatial axis for x/|x| when |x| is below 1e-300."""
    s, x = a[:, 0], a[:, 1:]
    nx = np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0])
    k = np.argmin(np.stack([s + nx, s - nx], axis=-1), axis=-1)
    tiny = nx < 1e-300
    xhat = x / np.where(tiny, 1.0, nx)[:, None]
    xhat[tiny] = np.eye(1, factor.dim - 1)
    signs = np.where(k == 0, 0.5, -0.5)[:, None]
    return factor.metric * np.concatenate(
        [np.full((len(a), 1), 0.5), signs * xhat], axis=-1)


def pure_effect_minimizing_by_point(factor: SimpleFactor,
                                    x: np.ndarray) -> np.ndarray:
    """The pure effect minimizing <e, x>: for a spin factor the closed
    form, for a matrix factor from the full decomposition of x alone."""
    if factor.family == SPIN:
        return spin_min_pure_effects(factor, x[None])[0]
    dec = factor.spectral(x)
    return factor.metric * dec.idempotents[int(np.argmin(dec.eigenvalues))]


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
            e = pure_effect_minimizing_by_point(fa, m @ f)
            f = pure_effect_minimizing_by_point(fb, m.T @ e)
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


def quaternionic_spectral_by_element(factor: SimpleFactor, a: np.ndarray):
    """(eigenvalues, idempotents) of one quaternionic element from its own
    decomposition: each kept column is orthonormalized against the pairs
    kept before it, renormalized, and paired with J conj(v)."""
    vals, vecs = np.linalg.eigh(factor.to_matrix(a))
    keep = kramers_columns_by_loop(factor, vecs)
    idempotents = []
    chosen: list[np.ndarray] = []
    for k in keep:
        v = vecs[:, k]
        if chosen:
            basis = np.column_stack(chosen)
            v = v - basis @ (basis.conj().T @ v)
            v = v / np.linalg.norm(v)
        w = factor._J @ v.conj()
        chosen.extend([v, w])
        idempotents.append(factor.from_matrix(np.outer(v, v.conj())
                                              + np.outer(w, w.conj())))
    return vals[keep], idempotents


def basis_by_family_branches(family: str, rank: int) -> np.ndarray:
    """The (dim, side, side) basis of a matrix family, one branch per
    family: E_ii, then for each i < j the symmetric unit over sqrt(2), the
    complex one's (i, -i) pair, or the four quaternion units and their
    adjoints in 2 x 2 blocks."""
    r = rank
    basis = []
    if family in (REAL, COMPLEX):
        for i in range(r):
            e = np.zeros((r, r), dtype=complex)
            e[i, i] = 1.0
            basis.append(e)
        for i in range(r):
            for j in range(i + 1, r):
                e = np.zeros((r, r), dtype=complex)
                e[i, j] = e[j, i] = 1.0 / _SQ2
                basis.append(e)
                if family == COMPLEX:
                    e = np.zeros((r, r), dtype=complex)
                    e[i, j] = 1j / _SQ2
                    e[j, i] = -1j / _SQ2
                    basis.append(e)
    else:
        assert family == QUAT
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
    return np.array(basis)


def spin_rotation_by_axes(dim: int, x1: np.ndarray, x2: np.ndarray,
                          t: float) -> np.ndarray:
    """Coordinate matrix of the spin-factor automorphism turning the unit
    spatial axis x1 toward x2 by t times their angle, in real arithmetic
    on the axes alone; antipodal axes turn in the plane of x1 and the
    axis `_orthogonal_unit` picks."""
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


def rotation_by_closure(factor: SimpleFactor, w1: np.ndarray,
                        w2: np.ndarray):
    """`SimpleFactor.rotation_maps` as a callable t -> coordinate matrix:
    the plane's projector and the rotation's generator formed once, then
    per t one unitary, conjugated on its own (a spin factor's spatial
    block set in a fresh identity)."""
    if factor.family == SPIN:
        x1 = w1[1:] / np.linalg.norm(w1[1:])
        x2 = w2[1:] / np.linalg.norm(w2[1:])
        p, q = x1[:, None], x2[:, None]
        cos = float(np.clip(x1 @ x2, -1.0, 1.0))
    elif factor.family == QUAT:
        p = factor._pair_isometry(w1)
        q = factor._pair_isometry(w2)
        lam = p.conj().T @ q
        norm = math.sqrt(max(float(np.trace(lam.conj().T @ lam).real) / 2.0,
                             0.0))
        cos = 0.0
        if norm > 1e-12:
            q = q @ (lam.conj().T / norm)
            cos = min(norm, 1.0)
    else:
        v1, v2 = factor._top_vector(w1), factor._top_vector(w2)
        ip = v1.conj() @ v2
        if abs(ip) > 1e-12:
            v2 = v2 * (ip.conjugate() / abs(ip))
            ip = v1.conj() @ v2
        p, q, cos = v1[:, None], v2[:, None], min(ip.real, 1.0)
    if cos > 1.0 - 1e-14:
        return lambda t: np.eye(factor.dim)
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
    eye = np.eye(len(p), dtype=p.dtype)

    def uni(t):
        c, s = math.cos(t * theta), math.sin(t * theta)
        u = eye + (c - 1.0) * plane + s * gen
        if factor.family != SPIN:
            return np.ascontiguousarray(
                factor.from_matrix(u @ factor._basis @ u.conj().T).T)
        out = np.eye(factor.dim)
        out[1:, 1:] = u
        return out

    return uni


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


def random_pure_by_sample(alg: JordanAlgebra, rng) -> np.ndarray:
    """One pure state of the algebra: a summand picked by `rng.integers`,
    then a unit vector drawn and normalized on its own and its projector
    (for quaternionic factors, with its symplectic partner)."""
    i = int(rng.integers(len(alg.summands)))
    f = alg.summands[i].factor
    if f.family == SPIN:
        x = rng.standard_normal(f.dim - 1)
        x /= np.linalg.norm(x)
        return alg.embed(i, np.concatenate(([0.5], 0.5 * x)))
    side = f._side
    if f.family == REAL:
        v = rng.standard_normal(side)
        v /= np.linalg.norm(v)
        return alg.embed(i, f.from_matrix(np.outer(v, v).astype(complex)))
    v = rng.standard_normal(side) + 1j * rng.standard_normal(side)
    v /= np.linalg.norm(v)
    if f.family == COMPLEX:
        return alg.embed(i, f.from_matrix(np.outer(v, v.conj())))
    assert f.family == QUAT
    w = f._J @ v.conj()
    w = w - v * (v.conj() @ w)
    w /= np.linalg.norm(w)
    return alg.embed(i, f.from_matrix(np.outer(v, v.conj())
                                      + np.outer(w, w.conj())))


def random_interior_by_point(alg: JordanAlgebra, rng) -> np.ndarray:
    """One interior point, summand by summand: a normal element lifted by
    its smallest eigenvalue, 0.5 and a uniform draw times the unit."""
    out = np.empty(alg.dim)
    for s in alg.summands:
        a = rng.standard_normal(s.factor.dim)
        lift = float(np.min(s.factor.spectral(a).eigenvalues))
        out[s.sl] = a + (abs(lift) + 0.5 + rng.random()) * s.factor.unit()
    return out


def spectral_map_by_summand(alg: JordanAlgebra, a: np.ndarray,
                             fn) -> np.ndarray:
    """sum_k fn(lambda_k) c_k, one summand and one idempotent at a time."""
    out = np.empty(alg.dim)
    for s in alg.summands:
        acc = np.zeros(s.factor.dim)
        dec = s.factor.spectral(a[s.sl])
        for lam, c in zip(dec.eigenvalues, dec.idempotents):
            acc += fn(lam) * c
        out[s.sl] = acc
    return out


def homogeneity_margin_by_pairs(alg: JordanAlgebra, rng,
                                pairs: int) -> float:
    """max |phi rho - sigma| over `pairs` interior pairs drawn one after
    the other, each with its own witness P(sqrt(sigma)) P(rho^(-1/2))."""
    worst = 0.0
    for _ in range(pairs):
        rho = random_interior_by_point(alg, rng)
        sig = random_interior_by_point(alg, rng)
        root = spectral_map_by_summand(alg, sig,
                                        lambda x: math.sqrt(max(x, 0.0)))
        inv_root = spectral_map_by_summand(alg, rho,
                                            lambda x: 1.0 / math.sqrt(x))
        phi = (quadratic_rep_by_columns(alg, root)
               @ quadratic_rep_by_columns(alg, inv_root))
        worst = max(worst, float(np.max(np.abs(phi @ rho - sig))))
    return worst


def is_order_isomorphism_by_point(m: np.ndarray, a: ConeModel, b: ConeModel,
                                  tol: float) -> Verdict:
    """`cones.is_order_isomorphism` for an invertible m, one sampled point
    and one membership test at a time."""
    sv = np.linalg.svd(m, compute_uv=False)
    slack = tol * max(1.0, float(sv[0] / sv[-1]))
    rng = np.random.default_rng(ISO_SEED)
    for direction, t, src, tgt in (("forward", m, a, b),
                                   ("inverse", np.linalg.inv(m), b, a)):
        points = list(src.generators())
        points += [src.sample_extremal(rng) for _ in range(ISO_SAMPLES)]
        for g in points:
            if not tgt.member(t @ g, slack):
                return Verdict(FAILS, violation={"direction": direction,
                                                 "point": g})
    return Verdict(HOLDS)


def self_dual_by_pair_gather(system: System, tol: float = 1e-9,
                             seed: int = 0) -> Verdict:
    """`axioms.check_self_dual` on a non-polyhedral cone: every pair i <= j
    gathered from the Gram matrix by `np.triu_indices`, in
    combinations_with_replacement order, and the first negative one or the
    smallest value read off the gathered list."""
    cone = system.cone
    n = cone.dim
    rng = np.random.default_rng(seed)
    members = np.concatenate([
        np.reshape(cone.generators(), (-1, n)),
        cone.sample_extremals(rng, axioms.SELF_DUAL_SAMPLES)])
    rows, cols = np.triu_indices(len(members))
    values = (members @ members.T)[rows, cols]
    bad = np.flatnonzero(values < -tol)
    if bad.size:
        k = bad[0]
        v = float(values[k])
        return Verdict(FAILS, violation={
            "pair": (members[rows[k]], members[cols[k]]), "inner_value": v},
            margin=v)
    worst = float(values.min())
    if isinstance(cone, EJACone):
        return Verdict(HOLDS, witness={"inner": np.eye(n)}, margin=worst,
                       detail="trace-form route")
    if isinstance(cone, SharedCornerCone):
        for _ in range(axioms.SELF_DUAL_SAMPLES):
            e2, e3 = rng.random(2) + 0.1
            e4, e5 = 2.0 * rng.standard_normal(2)
            e = np.array([e4 * e4 / (4 * e2) + e5 * e5 / (4 * e3),
                          e2, e3, e4, e5])
            if not cone.member(e, tol):
                return Verdict(FAILS, violation={
                    "dual_extremal": e}, margin=cone.margin(e),
                    detail="closed-form dual boundary point outside the cone")
        return Verdict(INCONCLUSIVE, margin=worst)
    return Verdict(INCONCLUSIVE, margin=worst,
                   detail="sampled inclusion only")


def pure_pairs_by_sample(system: System, rng) -> list[tuple]:
    """The pure pairs of the `pure-transitivity` check on an EJA system:
    five pairs of `sample_pure` states, drawn and normalized one at a time,
    and on a direct sum one more pair from summand 0 and the first summand
    of another (family, rank, dim), else summand 1."""
    alg = system.cone.algebra
    pairs = [(system.sample_pure(rng), system.sample_pure(rng))
             for _ in range(5)]
    if len(alg.summands) > 1:
        other = [k for k, f in enumerate(alg.factors)
                 if f.descriptor() != alg.factors[0].descriptor()]
        pairs.append((system.normalize(alg.random_pure(rng, summand=0)),
                      system.normalize(alg.random_pure(
                          rng, summand=other[0] if other else 1))))
    return pairs


def continuous_pt_by_map(system: System, w1, w2, tol: float) -> Verdict:
    """`axioms.continuous_pure_transitivity` for pure w1 and w2 of one
    summand of an EJA system, one path map at a time: each built in its own
    identity, tested for finiteness and checked for the unit on its own."""
    alg = system.cone.algebra
    i = alg.summand_of(w1)
    sl = alg.summands[i].sl
    rot = rotation_by_closure(alg.summands[i].factor, w1[sl], w2[sl])
    maps = []
    for k in range(axioms.PATH_STEPS + 1):
        full = np.eye(alg.dim)
        full[sl, sl] = rot(k / axioms.PATH_STEPS)
        maps.append(full)
    broken = [k for k, m in enumerate(maps) if not np.all(np.isfinite(m))]
    if broken:
        return Verdict(INCONCLUSIVE, detail="constructed path is not finite "
                       f"at t={broken[0] / axioms.PATH_STEPS}")
    states = np.array([full @ w1 for full in maps])
    lost = first_non_extremal(system.cone, states, tol)
    if lost is not None:
        return Verdict(INCONCLUSIVE, detail="constructed path loses purity "
                       f"at t={lost / axioms.PATH_STEPS}")
    path = list(zip(states, maps))
    resid = float(np.max(np.abs(path[-1][0] - w2)))
    if not (resid < 1e-8 and all(
            np.max(np.abs(m.T @ system.unit - system.unit)) < 1e-8
            for _, m in path)):
        return Verdict(INCONCLUSIVE, margin=resid,
                       detail="constructed path misses w2 or moves the unit")
    return Verdict(HOLDS, witness=path, margin=resid)


def pure_inputs_by_pair(system: System, w1, w2, tol: float):
    """The summand index pair of pure w1 and w2, each in a single summand
    on an EJA cone (None elsewhere), from one `first_non_extremal` call on
    the pair and one `summand_of` per state; raises ConeError otherwise."""
    cone = system.cone
    pure = first_non_extremal(cone, np.array([w1, w2]), tol) is None
    where = None
    if pure and isinstance(cone, EJACone):
        where = cone.algebra.summand_of(w1), cone.algebra.summand_of(w2)
        pure = None not in where
    if not pure:
        raise ConeError("transitivity checks need pure states, each in a "
                        "single summand")
    return where


def pure_transitivity_by_pair(system: System, pairs, tol: float) -> Verdict:
    """The `pure-transitivity` check's verdict on its pairs, each pair
    validated on its own (`pure_inputs_by_pair`) before its map is built."""
    worst = 0.0
    for w1, w2 in pairs:
        where = pure_inputs_by_pair(system, w1, w2, tol)
        v = axioms._transitivity_map(system, w1, w2, where, tol)
        if v.status != HOLDS:
            return v
        worst = max(worst, v.margin)
    return Verdict(HOLDS, margin=worst, detail=f"{len(pairs)} pure pairs")


def random_ensemble_by_halving(system: System, target, parts: int,
                               rng) -> list[np.ndarray]:
    """Random decomposition of target into `parts` cone members: each part
    but the last halves hi from 1 until rest - hi * cand is a member, one
    `member` call per halving."""
    out = []
    rest = target.copy()
    for _ in range(parts - 1):
        cand = system.cone.sample_extremal(rng)
        cand = cand / max(float(system.unit @ cand), 1e-12)
        hi = 1.0
        while hi > 1e-6 and not system.cone.member(rest - hi * cand, 1e-12):
            hi *= 0.5
        take = 0.5 * hi * rng.random()
        out.append(take * cand)
        rest = rest - take * cand
    out.append(rest)
    return out


def validate_measurement_by_effect(system: System, effects,
                                   tol: float = DEFAULT_TOL) -> bool:
    """`cones.validate_measurement` one effect at a time: two
    `dual_member` calls and one `e @ w` per base generator each."""
    if not effects:
        raise ConeError("empty effect list")
    effects = [np.asarray(e, dtype=float) for e in effects]
    states = system.base_generators()
    for e in effects:
        if len(e) != system.dim:
            raise ConeError("effect dimension mismatch")
        if not (system.cone.dual_member(e, tol)
                and system.cone.dual_member(system.unit - e, tol)):
            return False
        for w in states:
            v = float(e @ w)
            if v < -tol or v > 1 + tol:
                return False
    total = np.sum(effects, axis=0)
    return bool(np.max(np.abs(total - system.unit)) <= max(tol, 1e-10))


def steer_by_ensemble(comp, wab, ensemble):
    """`composite.steer` on one ensemble: one `member` call per target, and
    on an invertible map one inverse, one `inv @ w` per target and
    `validate_measurement_by_effect`."""
    wab = np.asarray(wab, dtype=float)
    cmap = cp.conditioning_map(comp, wab)
    wb = cp.marginal_of(comp, wab, "B")
    ens = [np.asarray(w, dtype=float) for w in ensemble]
    for w in ens:
        if not comp.factorB.cone.member(w, 1e-8):
            raise ConeError("ensemble member outside the B cone")
    if np.max(np.abs(sum(ens) - wb)) > 1e-8:
        raise ConeError("ensemble does not sum to the B marginal")
    if comp.dimA == comp.dimB and \
            np.linalg.matrix_rank(cmap, tol=1e-10) == comp.dimA:
        inv = np.linalg.inv(cmap)
        effects = [inv @ w for w in ens]
        if validate_measurement_by_effect(comp.factorA, effects, 1e-8):
            return effects
        return cp.INFEASIBLE
    for w in ens:
        sol = np.linalg.lstsq(cmap, w, rcond=None)[0]
        if np.max(np.abs(cmap @ sol - w)) > 1e-8:
            return cp.INFEASIBLE
    raise UnsupportedQuery("singular conditioning map with every target in "
                           "its range")


def steering_check_by_ensemble(comp, wab, tol: float = DEFAULT_TOL,
                               steer=steer_by_ensemble) -> Verdict:
    """`composite.steering_order_iso_check`, drawing, steering (with
    `steer`) and measuring one spot ensemble at a time."""
    wab = np.asarray(wab, dtype=float)
    wb = cp.marginal_of(comp, wab, "B")
    if comp.factorB.cone.margin(wb) <= tol:
        raise ConeError("steering check requires an interior B marginal")
    cmap = cp.conditioning_map(comp, wab)
    rank = int(np.linalg.matrix_rank(cmap, tol=1e-10))
    if rank < comp.dimA:
        return Verdict(FAILS, violation={"rank": rank, "needed": comp.dimA},
                       detail="conditioning map is not injective")
    verdict = is_order_isomorphism(cmap, comp.factorA.cone,
                                   comp.factorB.cone, tol)
    if verdict.status != HOLDS:
        return verdict
    rng = np.random.default_rng(cp.SPOT_SEED)
    worst = 0.0
    for _ in range(cp.SPOT_ENSEMBLES):
        ens = random_ensemble_by_halving(comp.factorB, wb, 3, rng)
        effects = steer(comp, wab, ens)
        if isinstance(effects, str):
            return Verdict(FAILS, violation={"ensemble": ens},
                           detail="spot ensemble not steerable")
        for e, w in zip(effects, ens):
            worst = max(worst, float(np.max(np.abs(cmap @ e - w))))
    return Verdict(
        HOLDS, witness={"matrix": cmap}, margin=worst,
        detail="injective conditioning map with interior marginal is an "
               "order isomorphism; every ensemble of the marginal is "
               f"steerable (spot-verified on {cp.SPOT_ENSEMBLES} ensembles)")
