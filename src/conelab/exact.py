"""Exact rational linear algebra over `fractions.Fraction`.

Small dense problems only (dims well under 100): one fraction-free forward
elimination on integer rows (`_forward`), which rank, null spaces, `rref`
and dual bases read, and a Bland-rule phase-I simplex for feasibility
certificates on primitive integer rows over the structural columns and the
rhs, with no artificial column: only the vertex it returns holds
`Fraction`s.  The forward pass takes the rows one at a time, keeps its
pivot rows primitive and never eliminates upwards, and stops once the rank
equals the column count; a matrix with any non-int entry has every row
converted to integers before it starts.  Rank, the facet order key and a
full-rank null space read the forward pass alone; `rref` and a
rank-deficient null space back-substitute its rows once
(`_back_substitute`).  All polyhedral cone reasoning in this package
goes through these routines so that verdicts on polyhedral fixtures are
exact, not floating point.

A polyhedral cone's facets come from the double-description method
(Motzkin et al. 1953; Fukuda & Prodon 1996), ordered by the pivot columns
of their tight rays, and membership is read off that H-description.  The
simplex stays in production for pointedness, extremality and the bijection
searches' positive scales only.

`PolyhedralData` keeps each ray and each facet normal as a primitive
integer row, a positive multiple of the rational one, and answers every
sign question about its cone on those rows: membership, pairings with the
rays and "is x on this ray".  `cones.PolyhedralCone` picks the facets
tight at a float point x by their normalized float margins, at most
max(tol, 1e-12) * max(1, |x|), and reads a face dimension as d minus the
exact `rank` of their integer normals.  Self-duality under the dot
product, K* = K, takes two of those questions: the pairings of the
extremal rays and the membership of the facet normals.  A rational point
is scaled once to integers by its positive common denominator
(`_integer_row`), so each sign, and each answer, is that of the
`Fraction` sums, with integer products in place of them (as in Avis's
lrs).  A float point is rounded onto a grid of bounded denominators
straight into such an integer row (`rounded_row`).  `Fraction`s stay what
leaves the layer: `rays`, `facets()`, null-space bases and LP vertices.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

Row = list[Fraction]
Matrix = list[Row]
# most partial generators a facet enumeration cut may leave: every cone in
# the registries, tests and benchmark peaks at 672 or fewer (the lattice
# hexagon squared); min(min(square, square), square) passes 1 874
FACET_WORK_BOUND = 1000


# here so that facet enumeration can refuse work; `cones` re-exports both
class ConeError(ValueError):
    pass


class UnsupportedQuery(ConeError):
    """A query this cone variant has no sound procedure for."""


def _integer_row(row: Sequence) -> list[int]:
    """A rational row times the lcm of its denominators.  Ints and
    `Fraction`s are read through their numerator and denominator; any other
    entry (a float, say) is converted to its exact `Fraction` first."""
    if all(type(x) is int for x in row):
        return list(row)
    fr = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
    den = lcm(*(x.denominator for x in fr))
    return [x.numerator * (den // x.denominator) for x in fr]


def rounded_row(values: Iterable, max_den: int) -> list[int]:
    """Each value, as a float, rounded to the nearest fraction whose
    denominator is at most max_den by `Fraction.limit_denominator` (the
    convergent wins a tie), and the row times the lcm of those
    denominators: a positive multiple of the rounded point, in integers.

    A float whose exact denominator is at most max_den is its own
    `float.as_integer_ratio()`, and no `Fraction` is built.  NaN raises
    ValueError and an infinity OverflowError, as `Fraction(v)` does."""
    nums, dens = [], []
    for v in values:
        n, d = float(v).as_integer_ratio()
        if d > max_den:
            n, d = Fraction(n, d).limit_denominator(max_den).as_integer_ratio()
        nums.append(n)
        dens.append(d)
    scale = lcm(*dens)
    return [n * (scale // d) for n, d in zip(nums, dens)]


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(mul, a, b))


def _forward(mat: Matrix) -> list[tuple[int, list[int]]]:
    """A row echelon form of mat: (pivot column, row) pairs in pivot-column
    order, each row primitive integers that are 0 left of its pivot.

    A fraction-free forward pass.  One type check reads every entry: an
    all-int matrix is read as it is; otherwise every row is converted by
    `_integer_row` first, so a bad entry raises wherever it sits.  Each row
    is reduced against the pivot rows in pivot-column order, a x - b p with
    a = p[k] and b = x[k], which leaves it 0 at every pivot column; a
    nonzero remainder, made primitive, becomes a new pivot row.  Pivot rows
    are never changed again, so a row of the caller's may be returned but
    none is modified in place.  Once the rank equals the column count every
    later row lies in their span, so the pass stops there.  The pivot
    columns are those of the RREF, which depend on the row space alone.
    """
    if set(map(type, chain.from_iterable(mat))) <= {int}:
        m = mat
    else:
        m = [_integer_row(row) for row in mat]
    cols = len(mat[0]) if mat else 0
    echelon: list[tuple[int, list[int]]] = []
    for row in m:
        for k, p in echelon:
            b = row[k]
            if b:
                a = p[k]
                row = [a * x - b * y for x, y in zip(row, p)]
        for c, x in enumerate(row):
            if x:
                break
        else:
            continue
        g = gcd(*row)
        if g > 1:
            row = [x // g for x in row]
        insort(echelon, (c, row))
        if len(echelon) == cols:
            break
    return echelon


def _back_substitute(echelon: list[tuple[int, list[int]]]) -> list[list[int]]:
    """The nonzero RREF rows, each a primitive integer multiple of its RREF
    row, from the forward pass's rows: from the last pivot up, each row,
    already 0 at every later pivot column, clears its own pivot column from
    the rows above it."""
    rows = [row for _, row in echelon]
    for i in range(len(rows) - 1, 0, -1):
        k = echelon[i][0]
        p = rows[i]
        a = p[k]
        for h in range(i):
            b = rows[h][k]
            if b:
                q = [a * x - b * y for x, y in zip(rows[h], p)]
                g = gcd(*q)
                rows[h] = [x // g for x in q] if g > 1 else q
    return rows


def rref(mat: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns: the forward
    pass, back-substituted once, each row divided by its pivot."""
    echelon = _forward(mat)
    pivots = [c for c, _ in echelon]
    cols = len(mat[0]) if mat else 0
    red = [[Fraction(x, row[c]) for x in row]
           for row, c in zip(_back_substitute(echelon), pivots)]
    red += [[Fraction(0)] * cols for _ in range(len(mat) - len(echelon))]
    return red, pivots


def rank(mat: Matrix) -> int:
    """The number of pivots of the forward pass."""
    return len(_forward(mat))


def null_space(mat: Matrix) -> list[Row]:
    """Basis of {x : mat @ x = 0}, one vector per free column of the RREF:
    1 at the free column f and -row[f] / row[p] at each pivot p, read off
    the back-substituted integer rows, so only those entries become
    `Fraction`s.  At full column rank the kernel is 0 and the forward pass
    alone answers.

    An empty matrix (no rows) yields `[]`, not a basis of the whole space:
    a caller whose system can have no rows passes one zero row instead.
    """
    if not mat:
        return []
    cols = len(mat[0])
    echelon = _forward(mat)
    if len(echelon) == cols:
        return []
    pivots = [c for c, _ in echelon]
    ints = _back_substitute(echelon)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * cols
        vec[f] = Fraction(1)
        for row, p in zip(ints, pivots):
            vec[p] = Fraction(-row[f], row[p])
        basis.append(vec)
    return basis


def mat_vec(mat: Matrix, vec: Row) -> Row:
    return [sum((a * b for a, b in zip(row, vec)), Fraction(0)) for row in mat]


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def _coprime_integers(vec: Sequence[Fraction]) -> list[int]:
    """Scale a nonzero rational vector by a positive factor to coprime
    integers; every sign is kept."""
    ints = _integer_row(vec)
    g = gcd(*ints)
    return [x // g for x in ints]


def feasible_nonneg(mat: Matrix, rhs: Row) -> Row | None:
    """Find x >= 0 with mat @ x = rhs, exactly, or None if infeasible.

    Phase-I simplex with Bland's rule (terminates, no tolerances) on an
    integer tableau of the structural columns and the rhs only.  Row i,
    flipped to a rhs >= 0, is scaled once to integers by s_i, and the cost
    row (the last) is priced out as -sum_i (K / s_i) row_i, K = lcm(s_i).
    A pivot on (r, e) replaces each other row T_i with T_i[e] != 0 by the
    primitive form of T[r][e] T_i - T_i[e] T_r.  Every row stays a positive
    multiple of the rational tableau's, so the signs, the ratios and the
    vertex are its; the basis starts at the artificials n + i, so ratio ties
    break by basis index as there.  The vertex is also that of the tableau
    with artificial columns:
    - feasible LP: while the objective is positive, phase I on the
      structural columns still has optimum 0, so a structural column has a
      negative reduced cost, and Bland takes it before any artificial;
    - objective at 0: each further pivot there has step 0, x unchanged;
    - infeasible LP: both end at a positive objective and return None.
    """
    m = len(mat)
    if m == 0:
        return []
    n = len(mat[0])
    tab: list[list[int]] = []
    scales: list[int] = []
    for a, b in zip(mat, rhs):
        # the 1 beside the row comes back as the row's scale s_i > 0
        *row, s, c = _integer_row([*a, 1, b])
        if c < 0:
            row, c = [-x for x in row], -c
        scales.append(s)
        tab.append(row + [c])
    k = lcm(*scales)
    weights = [k // s for s in scales]
    # reduced costs, priced out at the artificial basis
    tab.append([-_dot(weights, col) for col in zip(*tab)])
    basis = list(range(n, n + m))
    while True:
        enter = next((j for j in range(n) if tab[m][j] < 0), None)  # Bland
        if enter is None:
            break
        leave = None
        for i in range(m):
            a = tab[i][enter]
            # smallest ratio rhs / a by cross-multiplying, ties by basis index
            if a > 0 and (leave is None or (
                    (tab[i][-1] * tab[leave][enter], basis[i])
                    < (tab[leave][-1] * a, basis[leave]))):
                leave = i
        if leave is None:
            break  # phase-I is bounded below by 0; guard anyway
        prow = tab[leave]
        p = prow[enter]
        for i, row in enumerate(tab):
            f = row[enter]
            if f and i != leave:
                row = [p * x - f * y for x, y in zip(row, prow)]
                g = gcd(*row)
                tab[i] = [x // g for x in row] if g > 1 else row
        basis[leave] = enter
    if tab[m][-1] != 0:  # residual artificial mass: infeasible
        return None
    x = [Fraction(0)] * n
    for i, j in enumerate(basis):
        if j < n:
            x[j] = Fraction(tab[i][-1], tab[i][j])
    return x


def strictly_positive_in_span(basis_vecs: list[Row]) -> Row | None:
    """Coefficients c with sum_j c_j basis_vecs[j] >= 1 entrywise, or None.

    Decides whether a subspace meets the open positive orthant; the span is
    closed under negation, so strict positivity up to scale is what is
    decided.
    """
    if not basis_vecs:
        return None
    n = len(basis_vecs[0])
    k = len(basis_vecs)
    # x = B^T c, x_i = 1 + s_i with s_i >= 0, c free -> c = cp - cm.
    # Columns: cp (k), cm (k), s (n).  Rows: n equations.
    mat = [[*col, *(-v for v in col),
            *(Fraction(-int(t == i)) for t in range(n))]
           for i, col in enumerate(zip(*basis_vecs))]
    sol = feasible_nonneg(mat, [Fraction(1)] * n)
    if sol is None:
        return None
    return [sol[j] - sol[k + j] for j in range(k)]


def dual_basis(vecs: Sequence[Sequence[Fraction]]) -> tuple[list[int], Matrix]:
    """The first d linearly independent vectors of a spanning set of R^d
    (their indices) and the dual basis: dual[c] . vecs[basis[k]] = (c == k).

    One RREF of [A | I], where A has the vectors as columns, gives both: the
    pivot columns of A are the basis, and the row operations that turn its
    columns B into I turn I into B^-1, whose rows are the dual vectors.
    Any x in R^d is then sum_c (dual[c] . x) vecs[basis[c]].
    """
    n, d = len(vecs), len(vecs[0])
    red, pivots = rref([[v[i] for v in vecs] + [int(i == j) for j in range(d)]
                        for i in range(d)])
    basis = [c for c in pivots if c < n]
    if len(basis) < d:
        raise ValueError("the vectors do not span the space")
    return basis, [row[n:] for row in red]


class PolyhedralData:
    """Exact V-description (rays) and derived H-description (facets) of a
    pointed full-dimensional polyhedral cone.

    Facets come from double description; membership is read off the
    facets.  The simplex decides pointedness and extremality.
    Each ray and each facet normal is also kept as its primitive integer
    row, and every sign question is an integer dot product on those rows;
    `pairings` and `member` also answer K* = K under the dot product.
    """

    def __init__(self, rays: Sequence[Sequence]):
        self.rays: Matrix = [[Fraction(x) for x in r] for r in rays]
        if not self.rays:
            raise ValueError("empty generator list")
        self.dim = len(self.rays[0])
        if any(all(x == 0 for x in r) for r in self.rays):
            raise ValueError("zero generator")
        self._ray_rows = [_coprime_integers(r) for r in self.rays]
        self.full_dimensional = rank(self._ray_rows) == self.dim
        self._facets: Matrix | None = None
        self._facet_rows: list[list[int]] | None = None
        self._extremal: list[int] | None = None
        self._refusal = ""  # the message of a refused facet enumeration

    def is_pointed(self) -> bool:
        """No nonzero x with x and -x both in the cone.

        Pointed iff 0 is not a nontrivial nonneg combination of the rays,
        i.e. the only solution of sum(l_i r_i) = 0, l >= 0, sum(l) = 1 is none.
        Scaling a ray by a positive factor keeps that, so the integer rows
        stand in for the rays.
        """
        mat = [list(col) for col in zip(*self._ray_rows)]
        mat.append([1] * len(self.rays))
        return feasible_nonneg(mat, [0] * self.dim + [1]) is None

    def _normals(self) -> list[list[int]]:
        """The facet normals as primitive integer rows."""
        if self._facet_rows is None:
            self.facets()
        return self._facet_rows

    def member(self, x: Sequence) -> bool:
        """Exact membership: every facet inequality holds at x."""
        xi = _integer_row(x)
        return all(_dot(n, xi) >= 0 for n in self._normals())

    def pairings(self, y: Sequence) -> list[int]:
        """y . r for each ray r, each times its own positive factor: the
        signs of the exact pairings, in ray order."""
        yi = _integer_row(y)
        return [_dot(yi, r) for r in self._ray_rows]

    def rays_through(self, x: Sequence) -> list[int]:
        """Indices of the rays of which x is a positive multiple: those
        whose primitive integer row is x's."""
        xi = _integer_row(x)
        if not any(xi):
            return []
        g = gcd(*xi)
        xi = [v // g for v in xi]
        return [i for i, r in enumerate(self._ray_rows) if r == xi]

    def facets(self) -> Matrix:
        """Primitive inward facet normals, by double description.

        The normals are the extreme rays of the dual cone {y : r.y >= 0}.
        Start from the simplicial cone cut out by d independent rays (the
        rows of B), whose extreme rays are the columns of B^-1, and cut it
        by the remaining rays one at a time.  A positive and a negative generator are combined only
        when adjacent: their common zero set has at least d-2 elements and
        lies in no third generator's zero set.  Every scale factor is
        positive, so normals keep pointing inward.  The integer rows stand
        in for the rays: a positive scale of a ray keeps the pivots of B and
        scales its dual vector by a positive factor, which the primitive
        form drops.

        Facets are ordered by the pivot columns of the matrix whose columns
        are their tight rays in index order: the lexicographically smallest
        independent (d-1)-subset of those rays.  A cut that leaves more than
        FACET_WORK_BOUND partial generators raises UnsupportedQuery, and so
        does every later call, with the same message and no cut.
        """
        if self._facets is not None:
            return self._facets
        if self._refusal:
            raise UnsupportedQuery(self._refusal)
        if not self.full_dimensional:
            raise ValueError("facet enumeration requires a full-dimensional cone")
        d = self.dim
        rays = self._ray_rows
        start, dual = dual_basis(rays)
        # (normal, bitmask of the rays it is tight at so far)
        start_mask = sum(1 << i for i in start)
        gens = [(_coprime_integers(g), start_mask & ~(1 << start[c]))
                for c, g in enumerate(dual)]
        cuts = [j for j in range(len(rays)) if j not in start]
        for done, i in enumerate(cuts, 1):
            bit = 1 << i
            vals = [_dot(rays[i], y) for y, _ in gens]
            pos = [k for k, v in enumerate(vals) if v > 0]
            neg = [k for k, v in enumerate(vals) if v < 0]
            nxt = [(y, z | bit if v == 0 else z)
                   for (y, z), v in zip(gens, vals) if v >= 0]
            for p in pos:
                for n in neg:
                    common = gens[p][1] & gens[n][1]
                    if common.bit_count() < d - 2 or any(
                            k != p and k != n and z & common == common
                            for k, (_, z) in enumerate(gens)):
                        continue
                    y = [vals[p] * b - vals[n] * a
                         for a, b in zip(gens[p][0], gens[n][0])]
                    nxt.append((_coprime_integers(y), common | bit))
            gens = nxt
            if len(gens) > FACET_WORK_BOUND:
                self._refusal = (
                    f"facet enumeration passed {FACET_WORK_BOUND} partial "
                    f"generators after {done} of {len(cuts)} cuts")
                raise UnsupportedQuery(self._refusal)

        def first_subset(mask: int) -> list[int]:
            tight = [i for i in range(len(rays)) if mask >> i & 1]
            return [tight[p] for p, _ in _forward([[rays[i][c] for i in tight]
                                                  for c in range(d)])]

        gens.sort(key=lambda g: first_subset(g[1]))
        self._facet_rows = [y for y, _ in gens]
        self._facets = [[Fraction(v) for v in y] for y in self._facet_rows]
        return self._facets

    def extremal_ray_indices(self) -> list[int]:
        """Indices of generators spanning extremal rays (one per ray): the
        first generator on each line (primitive integer direction up to
        sign) that no generator off its line combines to (one exact LP, on
        the integer rows: positive scales keep its feasibility)."""
        if self._extremal is not None:
            return self._extremal
        lines = []
        for ints in self._ray_rows:
            lead = next(x for x in ints if x)
            lines.append(tuple(x if lead > 0 else -x for x in ints))
        out: list[int] = []
        kept: set[tuple[int, ...]] = set()
        for i, r in enumerate(self._ray_rows):
            if lines[i] in kept:
                continue
            others = [self._ray_rows[j] for j, line in enumerate(lines)
                      if line != lines[i]]
            if not others or feasible_nonneg(
                    [list(col) for col in zip(*others)], r) is None:
                out.append(i)
                kept.add(lines[i])
        self._extremal = out
        return out
