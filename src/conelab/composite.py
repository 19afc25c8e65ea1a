"""Bipartite composites: min/max tensor cones, the complex-matrix composite,
and the classical composite, with marginals, conditioning maps, and steering.

Coordinates: a bipartite element is the flattened dA x dB matrix of its
coefficients in the product of the factor coordinate bases, so the pairing
with a product functional eA (x) eB is eA^T M eB.

Max-tensor membership is exact when a factor is polyhedral or classical: x
is sliced by that factor's dual extremals.  Alternating sweeps serve only
two simple factors, and every other pair is refused by name on query.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .cones import (DEFAULT_TOL, FAILS, HOLDS, ConeError, ConeModel,
                    EJACone, PolyhedralCone, System,
                    UnsupportedQuery, Verdict, is_extremal_ray,
                    is_order_isomorphism, validate_measurement)
from .eja import SimpleFactor, complex_herm

MIN_TENSOR = "min"
MAX_TENSOR = "max"
HILBERT = "hilbert"
CLASSICAL = "classical"


def _kron_stack(fa: SimpleFactor, fb: SimpleFactor) -> np.ndarray:
    """kron(a_i, b_j) for every pair of basis matrices, as row i * fb.dim + j."""
    side = fa.rank * fb.rank
    return np.einsum("iab,jcd->ijacbd", fa._basis,
                     fb._basis).reshape(-1, side, side)


class LinearImageCone(ConeModel):
    """Cone obtained from another cone by an orthogonal change of coordinates;
    x belongs here exactly when R @ x belongs to the wrapped cone."""

    def __init__(self, inner: ConeModel, rot: np.ndarray):
        self.inner = inner
        self.rot = np.asarray(rot, dtype=float)
        self.dim = self.rot.shape[1]
        if not np.allclose(self.rot.T @ self.rot, np.eye(self.dim), atol=1e-10):
            raise ConeError("coordinate change must be orthogonal")

    def member(self, x, tol=DEFAULT_TOL):
        self._check_dim(x)
        return self.inner.member(self.rot @ x, tol)

    def margin(self, x):
        return self.inner.margin(self.rot @ x)

    def dual_member(self, e, tol=DEFAULT_TOL):
        return self.inner.dual_member(self.rot @ e, tol)

    def generators(self):
        return [self.rot.T @ g for g in self.inner.generators()]

    def sample_extremal(self, rng):
        return self.rot.T @ self.inner.sample_extremal(rng)

    def face_span_basis(self, x, tol):
        return [self.rot.T @ b for b in self.inner.face_span_basis(self.rot @ x, tol)]

    def extremal_rows(self, xs, tol):
        """The inner cone's rule at rot @ x, one matrix-vector product per
        row, after `member` on each row: a non-member raises ConeError."""
        for x in xs:
            if not self.member(x, tol):
                raise ConeError("x is not a member of the cone")
        return self.inner.extremal_rows((self.rot @ xs[:, :, None])[:, :, 0],
                                        tol)


class MaxTensorCone(ConeModel):
    """All bipartite elements nonnegative against product effects.

    A polyhedral factor is sliced by its unit facet normals, a classical one
    by its coordinates: as B** = B, x is a member exactly when every slice
    f^T M by a dual extremal f of A lies in B (M f of B when B is sliced),
    so the pairing minimum is the other cone's least margin over the slices.

    Only two simple factors are sampled: the minimum alternates exact
    minimizations over pure effects of A and of B from STARTS seeded pure
    effects of B, swept as one stack (one stacked eigendecomposition per
    half-sweep in `SimpleFactor.min_pure_effects`), so a nonnegative minimum
    is acceptance at sampling strength only.  Each sweep is a fixed function
    of its start stack, so once a start stack repeats (bit for bit) the
    state after SWEEPS sweeps is one already seen, and the sweeps stop
    there.  The starts are drawn once per cone, on the first call, and
    every pairing has the bits of `e @ m @ f` for its own pair.  Any other
    pair of factors raises UnsupportedQuery, naming the pair, on query."""

    # starts and alternating sweeps for simple factors, and their seed
    STARTS = 8
    SWEEPS = 25
    SEED = 23

    def __init__(self, comp: "CompositeSystem"):
        self.comp = comp
        self.dim = comp.dimA * comp.dimB
        self._factors = (comp._simple_factor(comp.factorA),
                         comp._simple_factor(comp.factorB))
        # the (STARTS, dimB) start stack of pure effects of B, drawn on use
        self._starts = None

    def pairing_minimum(self, x: np.ndarray) -> float:
        comp = self.comp
        m = x.reshape(comp.dimA, comp.dimB)
        # a NaN pairing would drop out of the min folds below
        if not np.all(np.isfinite(m)):
            raise ValueError("non-finite input")
        fa, fb = self._factors
        if fa is not None and fb is not None:
            if self._starts is None:
                rng = np.random.default_rng(self.SEED)
                self._starts = fb.metric * comp.factorB.cone.sample_extremals(
                    rng, self.STARTS)
            e, f = self._sweeps(fa, fb, m, self._starts)
            return min(np.inf, *(float(ei @ m @ fi) for ei, fi in zip(e, f)))
        sliced, other = comp.factorA, comp.factorB
        duals = self._unit_duals(sliced)
        if duals is None:
            # slice B instead: its slices M f are the rows of f^T M^T
            sliced, other, m = other, sliced, m.T
            duals = self._unit_duals(sliced)
        if duals is None:
            raise UnsupportedQuery(f"no max-tensor membership route for "
                                   f"{comp.label}")
        return min(other.cone.margin(s) for s in duals @ m)

    @staticmethod
    def _unit_duals(system: System) -> np.ndarray | None:
        """The unit dual extremals of a polyhedral or classical factor, as
        rows; None for any other factor."""
        cone = system.cone
        if isinstance(cone, PolyhedralCone):
            return np.array([nf / norm for nf, norm in cone.float_facets()])
        if CompositeSystem._classical_size(system) is not None:
            return np.eye(system.dim)
        return None

    def _sweeps(self, fa: SimpleFactor, fb: SimpleFactor, m: np.ndarray,
                f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (e, f) stacks after SWEEPS alternating sweeps from the start
        stack f.  The state after sweep i is `states[i]`; when the start of
        sweep k is that of sweep j, the states from j on repeat with period
        k - j.  Keys are the stacks' bytes, which keep -0.0 and 0.0 apart."""
        seen: dict[bytes, int] = {}
        states = []
        for k in range(self.SWEEPS):
            j = seen.setdefault(f.tobytes(), k)
            if j < k:
                return states[j + (self.SWEEPS - 1 - j) % (k - j)]
            e = fa.min_pure_effects((m @ f[:, :, None])[:, :, 0])
            f = fb.min_pure_effects((m.T @ e[:, :, None])[:, :, 0])
            states.append((e, f))
        return e, f

    def member(self, x, tol=DEFAULT_TOL):
        self._check_dim(x)
        return self.pairing_minimum(x) >= -tol

    def margin(self, x):
        return self.pairing_minimum(x)

    def generators(self):
        return self.comp.product_generators()

    def sample_extremal(self, rng):
        return self.comp.product_state(
            self.comp.factorA.cone.sample_extremal(rng),
            self.comp.factorB.cone.sample_extremal(rng))

    def face_span_basis(self, x, tol):
        """span Face(a) (x) span Face(b) at a product x = a (x) b: the
        products of the factors' bases, which are linearly independent.
        Proof, y <= l x meaning l x - y in the cone: a' <= l a and b' <= m b
        give l m a(x)b - a'(x)b' = (l a - a')(x)m b + a'(x)(m b - b') in
        min(A, B); and 0 <= Y <= l a(x)b gives 0 <= Y g <= l g(b) a for each
        g in K_B*, which spans, so Y's columns lie in span Face(a); in the
        same way its rows lie in span Face(b)."""
        comp = self.comp
        wa = marginal_of(comp, x, "A")
        wb = marginal_of(comp, x, "B")
        ua = float(comp.factorA.unit @ wa)
        if ua <= tol:
            raise UnsupportedQuery("zero element has the trivial face")
        prod = comp.product_state(wa, wb) / ua
        if np.max(np.abs(prod - x)) > 1e-7 * max(1.0, np.max(np.abs(x))):
            raise UnsupportedQuery("face span only available at product states")
        ba = comp.factorA.cone.face_span_basis(wa, tol)
        bb = comp.factorB.cone.face_span_basis(wb, tol)
        return [np.outer(a, b).ravel() for a in ba for b in bb]


class CompositeSystem(System):
    """Two factor systems joined by one of the four composite models: a
    System on the dimA * dimB product coordinates, with the product unit."""

    def __init__(self, factorA: System, factorB: System, model: str):
        if model not in (MIN_TENSOR, MAX_TENSOR, HILBERT, CLASSICAL):
            raise ConeError(f"unknown composite model: {model}")
        self.factorA = factorA
        self.factorB = factorB
        self.model = model
        self.dimA = factorA.dim
        self.dimB = factorB.dim
        System.__init__(self, self._build_cone(),
                        np.kron(factorA.unit, factorB.unit),
                        f"{factorA.label} (x) {factorB.label} [{model}]")

    @staticmethod
    def _simple_factor(system: System) -> SimpleFactor | None:
        cone = system.cone
        if isinstance(cone, EJACone) and cone.algebra.is_simple():
            return cone.algebra.factors[0]
        return None

    @staticmethod
    def _classical_size(system: System) -> int | None:
        cone = system.cone
        if isinstance(cone, EJACone) and all(
                f.family == "real" and f.rank == 1
                for f in cone.algebra.factors):
            return len(cone.algebra.factors)
        return None

    def _build_cone(self) -> ConeModel:
        if self.model == CLASSICAL:
            if self._classical_size(self.factorA) is None or \
                    self._classical_size(self.factorB) is None:
                raise ConeError("classical composite requires simplex factors")
            n = self.dimA * self.dimB
            rays = [[Fraction(int(i == k)) for i in range(n)] for k in range(n)]
            return PolyhedralCone(rays)
        if self.model == HILBERT:
            fa = self._simple_factor(self.factorA)
            fb = self._simple_factor(self.factorB)
            if fa is None or fb is None or fa.family != "complex" \
                    or fb.family != "complex":
                raise ConeError("the quantum composite requires complex "
                                "matrix factors")
            glob = complex_herm(fa.rank * fb.rank)
            rot = glob.factors[0].from_matrix(_kron_stack(fa, fb))
            return LinearImageCone(EJACone(glob), np.ascontiguousarray(rot.T))
        if self.model == MIN_TENSOR:
            ca, cb = self.factorA.cone, self.factorB.cone
            if isinstance(ca, PolyhedralCone) and isinstance(cb, PolyhedralCone):
                rays = []
                for ra in ca.data.rays:
                    for rb in cb.data.rays:
                        rays.append([a * b for a in ra for b in rb])
                return PolyhedralCone(rays)
            raise UnsupportedQuery("exact min-tensor cone needs polyhedral "
                                   "factors")
        return MaxTensorCone(self)

    # -- elements ------------------------------------------------------------

    def product_state(self, wa: np.ndarray, wb: np.ndarray) -> np.ndarray:
        wa = np.asarray(wa, dtype=float)
        wb = np.asarray(wb, dtype=float)
        if wa.shape != (self.dimA,) or wb.shape != (self.dimB,):
            raise ConeError("dimension mismatch in product state")
        return np.outer(wa, wb).ravel()

    def product_generators(self) -> list[np.ndarray]:
        return [self.product_state(a, b)
                for a in self.factorA.cone.generators()
                for b in self.factorB.cone.generators()]


def marginal_of(comp: CompositeSystem, wab: np.ndarray, side: str) -> np.ndarray:
    wab = np.asarray(wab, dtype=float)
    m = wab.reshape(comp.dimA, comp.dimB)
    if side == "A":
        return m @ comp.factorB.unit
    if side == "B":
        return m.T @ comp.factorA.unit
    raise ConeError("side must be 'A' or 'B'")


def conditioning_map(comp: CompositeSystem, wab: np.ndarray) -> np.ndarray:
    """The dimB x dimA matrix taking an effect e on A to the sub-normalized
    conditional state of B; it takes the A unit to the B marginal."""
    m = np.asarray(wab, dtype=float).reshape(comp.dimA, comp.dimB)
    return m.T.copy()


INFEASIBLE = "infeasible"


def steer(comp: CompositeSystem, wab: np.ndarray, ensemble):
    """Measurement on A whose conditional states realize the ensemble, or
    the string 'infeasible' when none exists; for an (n, parts, dimB) stack,
    the (m, parts, dimA) stack of the measurements of the first m
    ensembles, m < n naming the first infeasible one.  An ensemble off the
    B cone or the B marginal anywhere raises ConeError before any steers.

    An invertible conditioning map leaves one candidate effect per target,
    its preimage: the answer is that measurement, or 'infeasible' when it
    fails `validate_measurement` (one call for a stack).  A singular map is
    answered 'infeasible' when some target lies off its range (least-squares
    residual above 1e-8), else UnsupportedQuery."""
    ens = np.asarray(ensemble, dtype=float)
    if ens.ndim != 3:
        effects = steer(comp, wab, np.reshape(ens, (1, len(ens), comp.dimB)))
        return list(effects[0]) if len(effects) else INFEASIBLE
    inside = comp.factorB.cone.members(ens.reshape(-1, comp.dimB), 1e-8)
    if not inside.all():
        raise ConeError("ensemble member outside the B cone")
    wb = marginal_of(comp, wab, "B")
    if np.max(np.abs(np.sum(ens, axis=1) - wb)) > 1e-8:
        raise ConeError("ensemble does not sum to the B marginal")
    cmap = conditioning_map(comp, wab)
    if comp.dimA != comp.dimB or \
            np.linalg.matrix_rank(cmap, tol=1e-10) < comp.dimA:
        # range certificate: a target off the image has no preimage at all,
        # so the first ensemble is infeasible
        for w in ens[0]:
            sol = np.linalg.lstsq(cmap, w, rcond=None)[0]
            if np.max(np.abs(cmap @ sol - w)) > 1e-8:
                return np.empty((0,) + ens.shape[1:-1] + (comp.dimA,))
        raise UnsupportedQuery("singular conditioning map with every target "
                               "in its range")
    # one matrix-vector product per target, as in inv @ w for one
    effects = (np.linalg.inv(cmap) @ ens[..., None])[..., 0]
    valid = validate_measurement(comp.factorA, effects, 1e-8)
    return effects if valid.all() else effects[:np.argmin(valid)]


# ensembles a steering verdict spot-verifies, and the seed that draws them
SPOT_ENSEMBLES = 20
SPOT_SEED = 7


def steering_order_iso_check(comp: CompositeSystem, wab: np.ndarray,
                             tol: float = DEFAULT_TOL) -> Verdict:
    """Injective conditioning map with interior marginal gives an order
    isomorphism onto the B cone; then every ensemble of the marginal is
    steerable, spot-verified on random ensembles steered as one stack.  A
    FAILS names the first infeasible one."""
    wab = np.asarray(wab, dtype=float)
    wb = marginal_of(comp, wab, "B")
    if comp.factorB.cone.margin(wb) <= tol:
        raise ConeError("steering check requires an interior B marginal")
    cmap = conditioning_map(comp, wab)
    rank = int(np.linalg.matrix_rank(cmap, tol=1e-10))
    if rank < comp.dimA:
        return Verdict(FAILS, violation={"rank": rank, "needed": comp.dimA},
                       detail="conditioning map is not injective")
    verdict = is_order_isomorphism(cmap, comp.factorA.cone,
                                   comp.factorB.cone, tol)
    if verdict.status != HOLDS:
        return verdict
    rng = np.random.default_rng(SPOT_SEED)
    ens = random_ensembles(comp.factorB, wb, 3, rng, SPOT_ENSEMBLES)
    effects = steer(comp, wab, ens)
    if len(effects) < SPOT_ENSEMBLES:
        return Verdict(FAILS, violation={"ensemble": list(ens[len(effects)])},
                       detail="spot ensemble not steerable")
    resid = np.abs((cmap @ effects[..., None])[..., 0] - ens)
    return Verdict(
        HOLDS, witness={"matrix": cmap},
        margin=max([0.0] + np.max(resid, axis=-1).ravel().tolist()),
        detail="injective conditioning map with interior marginal is an "
               "order isomorphism; every ensemble of the marginal is "
               f"steerable (spot-verified on {SPOT_ENSEMBLES} ensembles)")


def random_ensembles(system: System, target: np.ndarray, parts: int, rng,
                     count: int) -> np.ndarray:
    """`count` random decompositions of target into `parts` cone members,
    as a (count, parts, dim) stack.  Each part but the last takes u * hi / 2
    of an extremal cand of unit value, hi the first of 1, 1/2, ..., 2^-19
    with rest - hi * cand in the cone (2^-20 if none), in one `members` call
    for all ensembles; every cand and uniform u is drawn first, in turn."""
    splits = max(parts - 1, 0)
    cand, u = np.empty((count, splits, system.dim)), np.empty((count, splits))
    for k in np.ndindex(count, splits):
        cand[k], u[k] = system.cone.sample_extremal(rng), rng.random()
    # 1 x dim by dim x 1 products, the bits of `unit @ cand` for one
    cand = cand / np.maximum(system.unit @ cand[..., None], 1e-12)
    halvings = np.ldexp(1.0, -np.arange(20))
    out = np.empty((count, splits + 1, system.dim))
    out[:, -1] = target
    for p in range(splits):
        trial = out[:, -1, None] - halvings[:, None] * cand[:, p, None]
        inside = system.cone.members(trial.reshape(-1, system.dim), 1e-12)
        inside = inside.reshape(count, len(halvings))
        first = np.where(inside.any(axis=1), np.argmax(inside, axis=1),
                         len(halvings))
        out[:, p] = (0.5 * np.ldexp(1.0, -first) * u[:, p])[:, None] \
            * cand[:, p]
        out[:, -1] -= out[:, p]
    return out


def random_ensemble(system: System, target: np.ndarray, parts: int,
                    rng) -> list[np.ndarray]:
    """One ensemble of `random_ensembles`, as a list."""
    return list(random_ensembles(system, target, parts, rng, 1)[0])


def canonical_self_steering_state(comp: CompositeSystem) -> np.ndarray:
    """Bipartite element steering its own marginal: the conditioning map is
    1/rank of the identity in trace-form coordinates (for the quantum model,
    the maximally entangled state, whose conditioning map is the scaled
    transpose)."""
    n = comp._classical_size(comp.factorA)
    if comp.model == CLASSICAL:
        if n != comp._classical_size(comp.factorB):
            raise ConeError("classical factors must have equal size")
        return np.eye(n).ravel() / n
    fa = comp._simple_factor(comp.factorA)
    fb = comp._simple_factor(comp.factorB)
    if fa is None or fb is None:
        raise ConeError("canonical self-steering state needs simple factors; "
                        "construct per summand and mix for direct sums")
    if fa.descriptor() != fb.descriptor():
        raise ConeError("factors must be isomorphic")
    if comp.model == HILBERT:
        r = fa.rank
        vec = np.zeros(r * r)
        vec[:: r + 1] = 1.0 / np.sqrt(r)
        rho = np.outer(vec, vec)
        return np.real(np.trace(rho @ _kron_stack(fa, fb), axis1=1, axis2=2))
    # a min composite has polyhedral factors, so only max-tensor is left
    state = np.eye(comp.dimA).ravel() / fa.rank
    if comp.cone.margin(state) < -DEFAULT_TOL:
        raise ConeError("identity-conditioning element rejected by the "
                        "product-effect certificate")
    return state


def purity_preservation_check(comp: CompositeSystem, wa: np.ndarray,
                              wb: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Is the product of two pure factor states extremal in the composite?"""
    wa = np.asarray(wa, dtype=float)
    wb = np.asarray(wb, dtype=float)
    if not is_extremal_ray(comp.factorA.cone, wa, tol):
        raise ConeError("first factor state is not pure")
    if not is_extremal_ray(comp.factorB.cone, wb, tol):
        raise ConeError("second factor state is not pure")
    w = comp.product_state(wa, wb)
    cone = comp.cone
    if comp.model in (CLASSICAL, MIN_TENSOR):
        assert isinstance(cone, PolyhedralCone)
        return _extremal_among_generators(cone, w, tol)
    return is_extremal_ray(cone, w, tol)


def _extremal_among_generators(cone: PolyhedralCone, w: np.ndarray,
                               tol: float) -> bool:
    """Every extremal ray of a finitely generated cone is spanned by a
    generator, so w is extremal iff it is a positive multiple of a generator
    whose ray `extremal_ray_indices` found extremal (an exact LP per ray, run
    once and cached)."""
    on_ray = cone.data.rays_through(cone._to_exact(w, max(tol, 1e-8)))
    if not on_ray:
        # rounding can push w off its ray: no verdict, not a disproof
        raise UnsupportedQuery("extremality expects w on a generator ray")
    extremal = cone.data.extremal_ray_indices()
    return any(i in extremal for i in on_ray)


def local_tomography_check(comp: CompositeSystem) -> Verdict:
    """Dimension identity that characterizes local tomography; the
    dimensions are the witness of a HOLDS or the violation of a FAILS."""
    dims = {"dim_A": comp.dimA, "dim_B": comp.dimB, "dim_AB": comp.dim,
            "locally_tomographic": comp.dim == comp.dimA * comp.dimB,
            "criterion": "dim V_AB = dim V_A dim V_B"}
    if dims["locally_tomographic"]:
        return Verdict(HOLDS, witness=dims, detail=dims["criterion"])
    return Verdict(FAILS, violation=dims, detail=dims["criterion"])
