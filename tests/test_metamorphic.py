"""Metamorphic invariance: isomorphic systems get the same verdicts.

Each pair below names one system twice: its summands in another order, a
simple Jordan algebra or a sum of them as the spin factors of the same
rank and dimension, a rank-1 algebra or classical 1 as R, classical 2 as
the polyhedral quadrant, or a polyhedral cone as its image under an
invertible integer matrix.  On every check that both sides decide, the
two statuses must be equal.  A decided verdict against an open one
(INCONCLUSIVE, UNSUPPORTED or skipped) is listed, not failed: a route may
lack a constructor on one side.  An `error` record on either side fails.

One membership relation rides along: the max tensor product of two bits,
sliced by the coordinates of a classical factor, is the orthant that the
classical composite of the same bits spans.
"""

from fractions import Fraction as F

import numpy as np
import pytest

from conelab import fixtures
from conelab.composite import MAX_TENSOR, CompositeSystem
from conelab.cones import FAILS, HOLDS

SEEDS = (1, 7, 11)
SQUARE = [[1, 1, 0], [0, 1, 1], [-1, 1, 0], [0, 1, -1]]
SQUARE_UNIT = [0, 1, 0]
# the wider registry's lattice hexagon, with no invertible ray-to-facet map
HEXAGON = [[x, y, 1] for x, y in [(4, 1), (2, 3), (-2, 3), (-4, 0),
                                  (-2, -3), (3, -3)]]
GL_MAP = np.array([[2, 1, 0], [1, 1, 0], [1, 0, 1]])
# self-duality is read in the given coordinates; the others are not
COORDINATE_FREE = tuple(c for c in fixtures.ALL_CHECKS if c != "self-dual")


def _eja(name: str, *summands: tuple) -> fixtures.FixtureSpec:
    return fixtures.FixtureSpec(name, "eja", {"summands": [
        {"family": "spin", "dim": n} if family == "spin"
        else {"family": family, "rank": n} for family, n in summands]})


def _polyhedral(name: str, generators, unit) -> fixtures.FixtureSpec:
    return fixtures.FixtureSpec(name, "polyhedral", {
        "generators": [[F(v) for v in g] for g in generators],
        "unit": [str(int(v)) for v in unit]})


def _gl_pair(generators, unit) -> tuple:
    """A polyhedral cone and its image under GL_MAP, exactly; the unit
    functional u becomes A^-T u, so it takes the same values on the
    images.  GL_MAP has determinant 1, so A^-T u is an integer vector."""
    image_unit = np.rint(np.linalg.solve(GL_MAP.T, unit)).astype(int)
    assert np.array_equal(GL_MAP.T @ image_unit, unit)
    image = [[sum(int(a) * F(v) for a, v in zip(row, g)) for row in GL_MAP]
             for g in generators]
    return (_polyhedral("a", generators, unit),
            _polyhedral("b", image, image_unit), COORDINATE_FREE)


PAIRS = {
    "qubit+rebit": (_eja("a", ("complex", 2), ("real", 2)),
                    _eja("b", ("real", 2), ("complex", 2)), fixtures.ALL_CHECKS),
    "complex2=spin4": (_eja("a", ("complex", 2)), _eja("b", ("spin", 4)),
                       fixtures.ALL_CHECKS),
    "quat2=spin6": (_eja("a", ("quat", 2)), _eja("b", ("spin", 6)),
                    fixtures.ALL_CHECKS),
    "real2=spin3": (_eja("a", ("real", 2)), _eja("b", ("spin", 3)),
                    fixtures.ALL_CHECKS),
    "real2+spin3": (_eja("a", ("real", 2), ("spin", 3)),
                    _eja("b", ("real", 2), ("real", 2)), fixtures.ALL_CHECKS),
    "real1+complex1": (_eja("a", ("real", 1), ("complex", 1)),
                       fixtures.FixtureSpec("b", "eja", {"classical": 2}),
                       fixtures.ALL_CHECKS),
    "square-gl": _gl_pair(SQUARE, SQUARE_UNIT),
    "complex2+complex2=spin4+spin4": (
        _eja("a", ("complex", 2), ("complex", 2)),
        _eja("b", ("spin", 4), ("spin", 4)), fixtures.ALL_CHECKS),
    "quat1=real1": (_eja("a", ("quat", 1)), _eja("b", ("real", 1)),
                    fixtures.ALL_CHECKS),
    "complex1=real1": (_eja("a", ("complex", 1)), _eja("b", ("real", 1)),
                       fixtures.ALL_CHECKS),
    "pentagon-gl": _gl_pair(fixtures._pent_coords(), [0, 0, 1]),
    "hexagon-gl": _gl_pair(HEXAGON, [0, 0, 1]),
    "real2+real2=spin3+spin3": (_eja("a", ("real", 2), ("real", 2)),
                                _eja("b", ("spin", 3), ("spin", 3)),
                                fixtures.ALL_CHECKS),
    "quat2+quat2=spin6+spin6": (_eja("a", ("quat", 2), ("quat", 2)),
                                _eja("b", ("spin", 6), ("spin", 6)),
                                fixtures.ALL_CHECKS),
    "classical1=real1": (fixtures.FixtureSpec("a", "eja", {"classical": 1}),
                         _eja("b", ("real", 1)), fixtures.ALL_CHECKS),
    # the coordinate axes are rays of both cones and the unit sums them
    "classical2=quadrant": (fixtures.FixtureSpec("a", "eja", {"classical": 2}),
                            _polyhedral("b", [[1, 0], [0, 1]], [1, 1]),
                            COORDINATE_FREE),
}


def _statuses(spec: fixtures.FixtureSpec, checks, seed: int) -> dict:
    report = fixtures.run_checks([spec], list(checks), seed=seed)
    return {r["check"]: r["status"] for r in report["fixtures"][0]["checks"]}


@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_isomorphic_systems_agree_where_both_decide(pair):
    left, right, checks = PAIRS[pair]
    listed = []
    for seed in SEEDS:
        a, b = _statuses(left, checks, seed), _statuses(right, checks, seed)
        for check in checks:
            assert "error" not in (a[check], b[check]), (seed, check, a, b)
            decided = {a[check], b[check]} <= {HOLDS, FAILS}
            if decided:
                assert a[check] == b[check], (seed, check)
            elif a[check] != b[check]:
                listed.append((seed, check, a[check], b[check]))
    print(pair, "decided on one side only:", listed)


def test_max_of_two_bits_is_the_classical_orthant(rng):
    # random points, points on the orthant's faces, and those points moved
    # a thousandth out along one coordinate
    specs = {s.name: s for s in fixtures.builtin_fixtures()}
    orthant = fixtures.build_system(specs["classical-bit-bit"], specs)
    bit = orthant.factorA
    maximal = CompositeSystem(bit, bit, MAX_TENSOR)
    points = [rng.standard_normal(4) for _ in range(50)]
    for _ in range(50):
        x = rng.random(4) * (rng.random(4) < 0.6)
        points += [x, x - 1e-3 * np.eye(4)[rng.integers(4)]]
    inside = [orthant.cone.member(x) for x in points]
    assert [maximal.cone.member(x) for x in points] == inside
    assert 0 < sum(inside) < len(points)
