"""Independent, slower routes to RREF, polyhedral facets, membership,
extremality, reducibility, exact self-duality and the ray/facet bijection
systems.

`exact.rref` and `exact.null_space` eliminate on integer rows;
`rref_by_fractions` is the textbook elimination over `Fraction`, and
`null_space_by_fractions` reads the null basis off it.  Production reads every "first
independent subset" off the pivot columns of that one elimination;
`independent_prefix` finds it by a greedy `Fraction` echelon, and
`dual_basis_by_prefix` takes the inverse by a second RREF.  `solve` is the
augmented-RREF linear solve.  `exact.feasible_nonneg` pivots on integers;
`feasible_nonneg_by_fractions` is the same Bland simplex on a `Fraction`
tableau.

`PolyhedralData` answers facets and membership from its double-description
H-description; these oracles answer them the old way, by brute force over
(d-1)-subsets of rays and by a phase-I simplex.  `PolyhedralCone` reads a
float point's face dimension off the facets whose float margins are tight;
`face_span` is the exact face span of a rational point, the null space of
the integer facet normals whose integer pairing with it is 0.  It answers every sign
question on primitive integer rows; `member_by_fractions`,
`face_span_by_fractions`, `dual_member_by_fractions`,
`extremal_among_generators_by_fractions` and `self_dual_by_fractions` sum
`Fraction` products over the rational rays and facets instead.
`PolyhedralCone._to_exact` rounds a float point onto its tol-grid by
integer continued-fraction steps into one integer row;
`to_exact_by_fractions` rounds each coordinate by
`Fraction.limit_denominator`, and the oracles above that round a float
point use it.  Polyhedral purity
preservation reads the cached extremal generators; `extremal_by_lp` solves
one exact LP per query instead.  The bijection searches
solve each bijection's system in the d scales of a ray basis and lift the
kernel to all n scales; `scale_system_in_all_scales` solves it in the n
scales and `bijection_system` in all d*d + n unknowns.

`extremal_by_rank` drops parallel generators by two-row ranks instead of
primitive integer directions.  `reducible_by_subsets` tries all 2^(n-1)
splits of the extremal rays instead of matroid components, and
`self_dual_by_solves` pairs every two rays and solves one system per facet,
under any inner product G, where `check_self_dual` reads ray pairings and
facet membership off the integer rows under the dot product.
`max_tensor_pairing_signs` decides max-tensor membership over a polyhedral
factor in `Fraction`s, by the sign of every integer product-facet pairing
(or of every slice eigenvalue in a rank-2 matrix factor), where
`MaxTensorCone` takes float margins of unit slices.  `steer_by_lp`
decides steering over a polyhedral A factor by an exact LP in effect
coordinates, singular conditioning maps included, where `composite.steer`
inverts an invertible map.  The tests compare the routes.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from conelab import exact
from conelab.axioms import FAILS, HOLDS
from conelab.composite import INFEASIBLE, conditioning_map
from conelab.cones import PolyhedralCone, UnsupportedQuery


def rref_by_fractions(mat) -> tuple[exact.Matrix, list[int]]:
    """Gauss-Jordan elimination over `Fraction`, each pivot row divided by
    its pivot as soon as it is chosen."""
    m = [[Fraction(x) for x in row] for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def null_space_by_fractions(mat) -> list[exact.Row]:
    """The RREF null basis: for each free column f of `rref_by_fractions`,
    the vector with a 1 at f, 0 at the other free columns and minus column f
    of the RREF at the pivots."""
    red, pivots = rref_by_fractions(mat)
    cols = len(mat[0])
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        vec = [Fraction(0)] * cols
        vec[f] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -red[r][f]
        basis.append(vec)
    return basis


def feasible_nonneg_by_fractions(mat, rhs) -> exact.Row | None:
    """Phase-I simplex with Bland's rule on a `Fraction` tableau: the rows
    flipped to a nonnegative rhs, unit artificial weights, each pivot row
    divided by its pivot, ratio ties broken by basis index."""
    m = len(mat)
    if m == 0:
        return []
    n = len(mat[0])
    a = [[Fraction(x) for x in row] for row in mat]
    b = [Fraction(x) for x in rhs]
    for i in range(m):
        if b[i] < 0:
            a[i] = [-x for x in a[i]]
            b[i] = -b[i]
    # columns: n structural + m artificial + rhs
    tab = [a[i] + [Fraction(int(j == i)) for j in range(m)] + [b[i]]
           for i in range(m)]
    basis = list(range(n, n + m))
    # minimize the sum of artificials: reduced-cost row, priced out
    cost = [Fraction(0)] * n + [Fraction(1)] * m + [Fraction(0)]
    for row in tab:
        cost = [c - t for c, t in zip(cost, row)]
    while True:
        enter = next((j for j in range(n + m) if cost[j] < 0), None)
        if enter is None:
            break
        ratios = [(tab[i][-1] / tab[i][enter], basis[i], i)
                  for i in range(m) if tab[i][enter] > 0]
        if not ratios:
            break
        _, _, leave = min(ratios)
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leave])]
        f = cost[enter]
        cost = [x - f * y for x, y in zip(cost, tab[leave])]
        basis[leave] = enter
    if cost[-1] != 0:
        return None
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tab[i][-1]
    return x


def primitive(vec) -> exact.Row:
    """Scale a rational vector to coprime integers with positive leading entry."""
    v = [Fraction(x) for x in vec]
    lead = next((x for x in v if x != 0), None)
    if lead is None:
        return v
    den = math.lcm(*(x.denominator for x in v))
    ints = [x.numerator * (den // x.denominator) for x in v]
    g = math.gcd(*ints)
    sign = 1 if lead > 0 else -1
    return [Fraction(sign * (x // g)) for x in ints]


def facets_by_subsets(data: exact.PolyhedralData) -> exact.Matrix:
    """Primitive inward facet normals, enumerated from (dim-1)-subsets of
    the rays in lexicographic order, each facet at its first subset."""
    d = data.dim
    seen: set[tuple] = set()
    normals: exact.Matrix = []
    for subset in itertools.combinations(range(len(data.rays)), d - 1):
        ns = exact.null_space([data.rays[i] for i in subset])
        if len(ns) != 1:
            continue
        n = primitive(ns[0])
        vals = [exact.dot(n, r) for r in data.rays]
        if all(v >= 0 for v in vals):
            pass
        elif all(v <= 0 for v in vals):
            n = [-x for x in n]
            vals = [-v for v in vals]
        else:
            continue
        tight = [data.rays[i] for i, v in enumerate(vals) if v == 0]
        if exact.rank(tight) != d - 1:
            continue
        if tuple(n) not in seen:
            seen.add(tuple(n))
            normals.append(n)
    return normals


def member_by_lp(data: exact.PolyhedralData, x) -> bool:
    """Exact membership as LP feasibility: x = sum(l_i r_i), l >= 0."""
    xf = [Fraction(v) for v in x]
    mat = [[r[i] for r in data.rays] for i in range(data.dim)]
    return exact.feasible_nonneg(mat, xf) is not None


def member_by_fractions(data: exact.PolyhedralData, x) -> bool:
    """Every facet normal pairs nonnegatively with x, by `Fraction` sums."""
    xf = [Fraction(v) for v in x]
    return all(exact.dot(n, xf) >= 0 for n in data.facets())


def face_span(data: exact.PolyhedralData, x) -> exact.Matrix:
    """Basis of span(Face(x)) for a rational member x: the null space of
    the facet normals tight at x, as integer rows (the standard basis when
    none is)."""
    xi = exact._integer_row(x)
    if not data.member(xi):
        raise ValueError("x is not a member of the cone")
    tight = [n for n in data._normals() if exact._dot(n, xi) == 0]
    return exact.null_space(tight or [[0] * data.dim])


def face_span_by_fractions(data: exact.PolyhedralData, x) -> exact.Matrix:
    """The null space of the rational facet normals whose `Fraction`
    pairing with the member x is 0 (the standard basis when none is)."""
    if not member_by_fractions(data, x):
        raise ValueError("x is not a member of the cone")
    xf = [Fraction(v) for v in x]
    tight = [n for n in data.facets() if exact.dot(n, xf) == 0]
    return exact.null_space(tight or [[0] * data.dim])


def to_exact_by_fractions(x, tol: float) -> list[Fraction]:
    """Each coordinate of x as its own `Fraction`, rounded by
    `limit_denominator` onto the tol-grid of `PolyhedralCone._to_exact`."""
    if tol <= 0:
        return [Fraction(float(v)).limit_denominator(10**12) for v in x]
    return [Fraction(float(v)).limit_denominator(max(10, int(2.0 / tol)))
            for v in x]


def dual_member_by_fractions(cone: PolyhedralCone, e, tol: float) -> bool:
    """e, rounded onto the cone's tol-grid, pairs nonnegatively with every
    rational ray, by `Fraction` sums."""
    ef = to_exact_by_fractions(e, tol)
    return all(exact.dot(ef, r) >= 0 for r in cone.data.rays)


def extremal_among_generators_by_fractions(cone: PolyhedralCone, w,
                                           tol: float) -> bool:
    """w is on a generator ray when w = lam r with the `Fraction` lam > 0
    read off r's first nonzero entry; it is extremal when one of those
    generators is."""
    wx = to_exact_by_fractions(w, max(tol, 1e-8))
    on_ray = []
    for i, r in enumerate(cone.data.rays):
        lam = next((a / b for a, b in zip(wx, r) if b != 0), None)
        if lam is not None and lam > 0 and [lam * b for b in r] == wx:
            on_ray.append(i)
    if not on_ray:
        raise UnsupportedQuery("extremality expects w on a generator ray")
    extremal = cone.data.extremal_ray_indices()
    return any(i in extremal for i in on_ray)


def self_dual_by_fractions(cone: PolyhedralCone, inner) -> tuple:
    """(status, violation, detail) of the exact self-duality test with every
    pairing a `Fraction` sum: G r_i for each extremal ray, each pair i <= j,
    then G^-1 f for each facet f through `member_by_fractions`.  `Fraction`
    entries of G are read as given, float ones at their nearest fraction
    with denominator at most 10^12."""
    g = [[x if isinstance(x, Fraction)
          else Fraction(float(x)).limit_denominator(10**12) for x in row]
         for row in inner]
    rays = [cone.data.rays[i] for i in cone.data.extremal_ray_indices()]
    g_rays = [exact.mat_vec(g, r) for r in rays]
    for i, j in itertools.combinations_with_replacement(range(len(rays)), 2):
        val = exact.dot(g_rays[i], rays[j])
        if val < 0:
            return (FAILS, {"pair": (rays[i], rays[j]), "inner_value": val},
                    "generator pair with negative inner product")
    _, dual = exact.dual_basis(g)
    g_inv = [list(row) for row in zip(*dual)]
    for f in cone.data.facets():
        if not member_by_fractions(cone.data, exact.mat_vec(g_inv, f)):
            return (FAILS, {"facet_normal": f},
                    "dual extremal pulls back outside the cone")
    return HOLDS, None, "exact two-sided inclusion"


def extremal_by_lp(cone: PolyhedralCone, w, tol: float) -> bool:
    """Exact LP: w is extremal iff it is not a nonnegative combination of the
    generators lying outside its ray."""
    wx = to_exact_by_fractions(w, max(tol, 1e-8))
    others = []
    for r in cone.data.rays:
        lam = None
        for a, b in zip(wx, r):
            if b != 0:
                lam = a / b
                break
        if lam is not None and lam > 0 and [lam * b for b in r] == list(wx):
            continue
        others.append(r)
    if len(others) == len(cone.data.rays):
        raise UnsupportedQuery("extremality LP expects w on a generator ray")
    cols = [[r[i] for r in others] for i in range(cone.dim)]
    return exact.feasible_nonneg(cols, list(wx)) is None


def bijection_system(rays, facets, perm, symmetric: bool) -> list[exact.Row]:
    """Null space of {T r_i = mu_i f_{perm(i)}} in the unknowns (T, mu): the
    d*d entries of T row by row, then the n scales."""
    d = len(rays[0])
    n = len(rays)
    nt = d * d
    rows: exact.Matrix = []
    for i in range(n):
        f = facets[perm[i]]
        for a in range(d):
            row = [Fraction(0)] * (nt + n)
            for b in range(d):
                row[a * d + b] = rays[i][b]
            row[nt + i] = -f[a]
            rows.append(row)
    if symmetric:
        for a in range(d):
            for b in range(a + 1, d):
                row = [Fraction(0)] * (nt + n)
                row[a * d + b] = Fraction(1)
                row[b * d + a] = Fraction(-1)
                rows.append(row)
    return exact.null_space(rows)


def scale_system_in_all_scales(rays, facets, perm,
                               symmetric: bool) -> list[exact.Row]:
    """Null space of the bijection's system in all n scales mu: with a ray
    basis S and its dual basis g, each ray i outside S gives the d rows
    sum_{j in S} (g_j . r_i) mu_j f_{perm(j)} - mu_i f_{perm(i)} = 0, and a
    symmetric T one row per entry a < b of sum_{j in S} mu_j f_{perm(j)}
    g_j^T minus its transpose."""
    n = len(rays)
    basis, dual = exact.dual_basis(rays)
    d = len(dual)
    rows: exact.Matrix = []
    for i in (k for k in range(n) if k not in basis):
        coords = [exact.dot(g, rays[i]) for g in dual]
        for a in range(d):
            row = [Fraction(0)] * n
            for j, c in zip(basis, coords):
                row[j] = c * facets[perm[j]][a]
            row[i] = -facets[perm[i]][a]
            rows.append(row)
    if symmetric:
        for a in range(d):
            for b in range(a + 1, d):
                row = [Fraction(0)] * n
                for j, g in zip(basis, dual):
                    f = facets[perm[j]]
                    row[j] = f[a] * g[b] - f[b] * g[a]
                rows.append(row)
    return exact.null_space(rows or [[Fraction(0)] * n])


def spd_by_leading_minors(t: exact.Matrix) -> bool:
    """Sylvester's criterion read literally: every leading principal minor,
    each by its own elimination, is positive."""
    k_max = len(t)
    for k in range(1, k_max + 1):
        m = [list(row[:k]) for row in t[:k]]
        det = Fraction(1)
        for c in range(k):
            piv = next((i for i in range(c, k) if m[i][c] != 0), None)
            if piv is None:
                return False
            if piv != c:
                m[c], m[piv] = m[piv], m[c]
                det = -det
            det *= m[c][c]
            for i in range(c + 1, k):
                f = m[i][c] / m[c][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
        if det <= 0:
            return False
    return True


def solve(mat, rhs) -> exact.Row | None:
    """One solution of mat @ x = rhs, or None if inconsistent."""
    aug = [list(row) + [b] for row, b in zip(mat, rhs)]
    red, pivots = exact.rref(aug)
    cols = len(mat[0])
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for r, p in enumerate(pivots):
        x[p] = red[r][cols]
    return x


def independent_prefix(vecs, indices, limit: int) -> list[int]:
    """Greedily, in the order given, the first `limit` indices whose vectors
    are linearly independent: the lexicographically smallest independent
    subset."""
    echelon: list[tuple[int, exact.Row]] = []  # (pivot column, pivot 1)
    chosen: list[int] = []
    for i in indices:
        if len(chosen) == limit:
            break
        v = [Fraction(x) for x in vecs[i]]
        for p, row in echelon:
            if v[p] != 0:
                f = v[p]
                v = [a - f * b for a, b in zip(v, row)]
        p = next((c for c, a in enumerate(v) if a != 0), None)
        if p is not None:
            echelon.append((p, [a / v[p] for a in v]))
            chosen.append(i)
    return chosen


def dual_basis_by_prefix(vecs) -> tuple[list[int], exact.Matrix]:
    """The greedy basis, then B^-1 by a second RREF of [B | I] with the
    basis vectors as the rows of B; the dual vectors are its columns."""
    d = len(vecs[0])
    basis = independent_prefix(vecs, range(len(vecs)), d)
    if len(basis) < d:
        raise ValueError("the vectors do not span the space")
    red, _ = exact.rref([list(vecs[i]) + [Fraction(int(i == j)) for j in basis]
                         for i in basis])
    return basis, [[red[r][d + c] for r in range(d)] for c in range(d)]


def extremal_by_rank(data: exact.PolyhedralData) -> list[int]:
    """Extremal generator indices, one per ray, with parallel generators
    found by the rank of each pair."""
    out: list[int] = []
    reps: list[exact.Row] = []
    for i, r in enumerate(data.rays):
        if any(exact.rank([r, p]) == 1 for p in reps):
            continue
        others = [data.rays[j] for j in range(len(data.rays))
                  if j != i and exact.rank([data.rays[j], r]) == 2]
        cols = [[o[c] for o in others] for c in range(data.dim)]
        if not others or exact.feasible_nonneg(cols, r) is None:
            out.append(i)
            reps.append(r)
    return out


def reducible_by_subsets(cone: PolyhedralCone) -> bool:
    """Do the extremal rays split into two groups whose ranks add up to the
    dimension?  Every one of the 2^(n-1) - 1 splits is tried."""
    rays = [cone.data.rays[i] for i in extremal_by_rank(cone.data)]
    n = len(rays)
    for mask in range(1, 2 ** (n - 1)):
        a = [rays[i] for i in range(n) if mask >> i & 1]
        b = [rays[i] for i in range(n) if not mask >> i & 1]
        if a and b and exact.rank(a) + exact.rank(b) == cone.dim:
            return True
    return False


def self_dual_by_solves(cone: PolyhedralCone, inner) -> tuple:
    """(status, violation, detail) of the exact self-duality test: one
    G r_i per pair of extremal rays, then one solve of G y = f per facet;
    float entries of G are read at denominators up to 10^12."""
    d = cone.dim
    g = [[Fraction(float(inner[i][j])).limit_denominator(10**12)
          for j in range(d)] for i in range(d)]
    rays = [cone.data.rays[i] for i in extremal_by_rank(cone.data)]
    for ri, rj in itertools.combinations_with_replacement(rays, 2):
        val = exact.dot(exact.mat_vec(g, ri), rj)
        if val < 0:
            return (FAILS, {"pair": (ri, rj), "inner_value": val},
                    "generator pair with negative inner product")
    for f in cone.data.facets():
        pulled = solve(g, list(f))
        if pulled is None or not member_by_lp(cone.data, pulled):
            return (FAILS, {"facet_normal": f},
                    "dual extremal pulls back outside the cone")
    return HOLDS, None, "exact two-sided inclusion"


def _sign(v) -> int:
    return (v > 0) - (v < 0)


def _rank_two_eigenvalue_signs(s) -> list[int]:
    """The signs of the two eigenvalues, least first, of the rank-2 matrix
    factor element with trace-form coordinates s = (a, b, off...): the
    matrix [[a, z], [conj z, b]] with |z|^2 = sum(off^2) / 2, whose trace is
    a + b and whose determinant is a b - |z|^2."""
    a, b, *off = s
    det = a * b - sum(v * v for v in off) / 2
    if det < 0:
        return [-1, 1]
    return sorted([0 if det == 0 else _sign(a + b), _sign(a + b)])


def max_tensor_pairing_signs(comp, x) -> list[int]:
    """The signs, in `Fraction`s, of a rational point x of max(A, B) with a
    polyhedral factor against its product effects: f_i^T M g_j for every
    pair of integer facet normals when both factors are polyhedral, else
    the eigenvalue signs of each slice f_i^T M in the other factor, a
    simple rank-2 matrix algebra.  x is a member iff no sign is -1."""
    a, b = comp.factorA.cone, comp.factorB.cone
    m = [list(x[i * comp.dimB:(i + 1) * comp.dimB]) for i in range(comp.dimA)]
    if not isinstance(a, PolyhedralCone):
        a, b, m = b, a, [list(col) for col in zip(*m)]
    slices = [[sum((fi * row[j] for fi, row in zip(f, m)), Fraction(0))
               for j in range(len(m[0]))] for f in a.data.facets()]
    if isinstance(b, PolyhedralCone):
        return [_sign(sum(u * v for u, v in zip(s, g)))
                for s in slices for g in b.data.facets()]
    (factor,) = b.algebra.factors
    assert factor.rank == 2 and factor.family in ("real", "complex", "quat")
    return [sign for s in slices for sign in _rank_two_eigenvalue_signs(s)]


def steer_by_lp(comp, wab, ensemble):
    """Steering over a polyhedral A factor as an exact LP in effect
    coordinates: each effect is a nonnegative combination of A facet
    normals, the conditioning map takes it to its target, and the effects
    sum to the unit.  It decides singular conditioning maps, where
    `composite.steer` answers only off-range targets.

    Floats are read as fractions with denominator at most 10^9.  An
    infeasible LP is answered 'infeasible' only when that reading is
    faithful: each fraction reads back as its float, and the ensemble sums
    exactly to the conditioned unit M u_A.  Otherwise the infeasibility may
    come from the reading, and UnsupportedQuery is raised.
    """
    mt = conditioning_map(comp, wab)
    ca: PolyhedralCone = comp.factorA.cone
    facets = ca.data.facets()
    nf = len(facets)
    k = len(ensemble)
    da, db = comp.dimA, comp.dimB
    rounded = False

    def frac(x):
        nonlocal rounded
        near = Fraction(float(x)).limit_denominator(10**9)
        rounded = rounded or float(near) != float(x)
        return near

    mt_x = [[frac(mt[i, j]) for j in range(da)] for i in range(db)]
    ens_x = [[frac(v) for v in w] for w in ensemble]
    unit_x = [frac(v) for v in comp.factorA.unit]
    rows: list[exact.Row] = []
    rhs: exact.Row = []
    for idx, w in enumerate(ens_x):
        for i in range(db):
            row = [Fraction(0)] * (nf * k)
            for j in range(nf):
                row[idx * nf + j] = sum(
                    (mt_x[i][a] * facets[j][a] for a in range(da)),
                    Fraction(0))
            rows.append(row)
            rhs.append(w[i])
    for a in range(da):
        rows.append([facets[j][a] for _ in range(k) for j in range(nf)])
        rhs.append(unit_x[a])
    sol = exact.feasible_nonneg(rows, rhs)
    if sol is None:
        marginal = [sum(w[i] for w in ens_x) for i in range(db)]
        if rounded or marginal != exact.mat_vec(mt_x, unit_x):
            raise UnsupportedQuery("the LP of the inputs read as fractions is "
                                   "infeasible, but the reading is not "
                                   "faithful to the floats")
        return INFEASIBLE
    return [sum(float(sol[idx * nf + j]) * f
                for j, (f, _) in enumerate(ca.float_facets()))
            for idx in range(k)]
