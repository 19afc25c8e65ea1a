"""Independent, slower routes to RREF, polyhedral facets, membership,
extremality in a composite and the ray/facet bijection systems.

`exact.rref` eliminates on integer rows; `rref_by_fractions` is the
textbook elimination over `Fraction`.

`PolyhedralData` answers the first two questions from its double-description
H-description; these oracles answer them the old way, by brute force over
(d-1)-subsets of rays and by a phase-I simplex.  Polyhedral purity
preservation reads the cached extremal generators; `extremal_by_lp` solves
one exact LP per query instead.  The bijection searches
solve each bijection's system in the n ray scales alone; the oracle here
solves it in all d*d + n unknowns.  The tests compare the routes.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from conelab import exact
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


def extremal_by_lp(cone: PolyhedralCone, w, tol: float) -> bool:
    """Exact LP: w is extremal iff it is not a nonnegative combination of the
    generators lying outside its ray."""
    wx = cone._to_exact(w, max(tol, 1e-8))
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
