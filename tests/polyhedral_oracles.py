"""Independent, slower routes to polyhedral facets and membership.

`PolyhedralData` answers both questions from its double-description
H-description; these oracles answer them the old way, by brute force over
(d-1)-subsets of rays and by a phase-I simplex, so the tests can compare.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from conelab import exact


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
        n = exact.primitive(ns[0])
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
