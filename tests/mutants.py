"""Seeded mutants of the package, each with the tests that must kill it.

An entry names a file, a text that occurs in it exactly once, the text
that replaces it, and the pytest node ids that must fail on the mutated
code.  From the root of a checkout,

    python tests/mutants.py [ID ...]

copies `src/`, `tests/` and `pyproject.toml` to a temporary directory
(under $TMPDIR), runs every killing test there once on the unmutated copy,
which must pass, and then applies each mutant in turn and runs its tests,
which must fail.  It prints one line per mutant and exits 0 when every
mutant is killed, 1 when one survives and 2 when the unmutated copy fails.
Tier-1 (`tests/test_mutants.py`) checks only that each entry still applies.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    id: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


_ORACLES = "tests/test_exact.py::test_integer_queries_match_fraction_oracles"
_DATA = "tests/test_exact.py::TestPolyhedralData"
_FACE = "tests/test_cones.py::TestFaceDimension"
_FACE_ORACLE = "tests/test_cones.py::test_face_dimension_matches_exact_face_span"
_FACE_PROBE = ("tests/test_cones.py::"
               "test_face_span_basis_passes_the_probe_oracle")
_EXTREMAL_ORACLE = ("tests/test_cones.py::"
                    "test_extremal_rows_match_face_dimension")
_SLICE_SIGNS = ("tests/test_composite.py::"
                "test_max_tensor_member_matches_exact_pairing_signs")
_SLICE_OUTSIDE = ("tests/test_composite.py::"
                  "test_points_outside_a_unit_product_facet_are_rejected")
_LP_ORACLE = ("tests/test_exact.py::"
              "test_feasible_nonneg_matches_fraction_tableau")

MUTANTS = (
    Mutant("member-strict", "src/conelab/exact.py",
           "return all(_dot(n, xi) >= 0 for n in self._normals())",
           "return all(_dot(n, xi) > 0 for n in self._normals())",
           (_ORACLES, f"{_DATA}::test_membership_routes_agree")),
    Mutant("member-negated-point", "src/conelab/exact.py",
           "xi = _integer_row(x)\n        return all(",
           "xi = [-v for v in _integer_row(x)]\n        return all(",
           (_ORACLES, f"{_DATA}::test_membership_routes_agree")),
    Mutant("face-span-loose-tight", "src/conelab/cones.py",
           "if float(nf @ x) / norm <= bound]",
           "if float(nf @ x) / norm >= -bound]",
           (f"{_FACE}::test_square", _FACE_ORACLE)),
    Mutant("polyhedral-tight-drops-norm-scale", "src/conelab/cones.py",
           "bound = max(tol, 1e-12) * max(1.0, float(np.linalg.norm(x)))",
           "bound = max(tol, 1e-12)",
           (f"{_FACE}::test_ray_is_extremal_at_every_scale",)),
    Mutant("polyhedral-face-skips-membership", "src/conelab/cones.py",
           "    if not cone.member(x, tol):\n",
           "    if False:\n",
           (f"{_FACE}::test_polyhedral_non_member_raises", _FACE_ORACLE)),
    Mutant("ray-negative-multiple", "src/conelab/exact.py",
           "if r == xi]",
           "if r in (xi, [-v for v in xi])]",
           (_ORACLES, "tests/test_exact.py::"
                      "test_rays_through_takes_positive_multiples_only")),
    Mutant("path-last-failure", "src/conelab/cones.py",
           "return int(rejected[0])",
           "return int(rejected[-1])",
           ("tests/test_axioms.py::TestContinuousPureTransitivity::"
            "test_path_names_the_first_state_that_loses_purity",
            "tests/test_cones.py::TestExtremality::"
            "test_stack_names_the_first_non_extremal_row")),
    Mutant("continuous-pt-ignores-split", "src/conelab/cones.py",
           "picks = (0, 1) if len(self.algebra.summands) > 1 else",
           "picks = (0, 1) if False else",
           ("tests/test_cli.py::test_theorem_implications",)),
    Mutant("cycle-index-off-by-one", "src/conelab/composite.py",
           "states[j + (self.SWEEPS - 1 - j) % (k - j)]",
           "states[j + (self.SWEEPS - j) % (k - j)]",
           ("tests/test_composite.py::"
            "test_pairing_minimum_cycle_exits_equal_start_by_start_loop",)),
    Mutant("min-effect-last-column", "src/conelab/eja.py",
           "v = vecs[np.arange(len(a)), :, k]",
           "v = vecs[np.arange(len(a)), :, -1]",
           ("tests/test_composite.py::"
            "test_pure_effect_minimizing_matches_spectral",
            "tests/test_composite.py::"
            "test_pairing_minimum_equals_start_by_start_loop")),
    Mutant("pt-invariant-compares-family", "src/conelab/cones.py",
           "if (f1.rank, f1.dim) != (f2.rank, f2.dim):",
           "if f1.descriptor() != f2.descriptor():",
           ("tests/test_axioms.py::TestPureTransitivity::"
            "test_isomorphic_summands_of_other_families_stay_open",
            "tests/test_metamorphic.py::"
            "test_isomorphic_systems_agree_where_both_decide")),
    Mutant("quat-pair-not-renormalized", "src/conelab/eja.py",
           "v = v / np.linalg.norm(v)",
           "v = 1.0 * v",
           ("tests/test_eja.py::"
            "test_quaternionic_spectral_equals_element_loop",)),
    Mutant("spin-min-effect-other-idempotent", "src/conelab/eja.py",
           "np.where(k[:, None] == 0, c0, c1)",
           "np.where(k[:, None] == 0, c1, c0)",
           ("tests/test_composite.py::"
            "test_pure_effect_minimizing_matches_spectral",
            "tests/test_composite.py::"
            "test_pairing_minimum_equals_start_by_start_loop")),
    Mutant("partner-without-conj", "src/conelab/eja.py",
           "return v.conj() @ self._J.T",
           "return v @ self._J.T",
           ("tests/test_eja.py::"
            "test_quaternionic_spectral_equals_element_loop",
            "tests/test_eja.py::"
            "test_quaternionic_selection_on_degenerate_stacks")),
    Mutant("complex-lower-unit-adjoint-sign", "src/conelab/eja.py",
           "COMPLEX: [(1, 1), (1j, -1j)],",
           "COMPLEX: [(1, 1), (1j, 1j)],",
           ("tests/test_eja.py::"
            "test_unit_table_basis_equals_family_branches",)),
    Mutant("spin-antipode-never-fires", "src/conelab/eja.py",
           "if cos < -1.0 + 1e-14:",
           "if cos < -1.0 - 1e-14:",
           ("tests/test_eja.py::"
            "test_spin_plane_rotation_equals_axis_rotation",
            "tests/test_axioms.py::"
            "test_transitivity_reaches_the_orthogonal_spin_state")),
    Mutant("summand-swap-one-block", "src/conelab/cones.py",
           "order[si], order[sj] = order[sj], order[si]",
           "order[sj] = order[si]",
           ("tests/test_axioms.py::TestPureTransitivity::"
            "test_cross_isomorphic_summands",)),
    Mutant("continuous-pt-skips-finiteness", "src/conelab/axioms.py",
           "    if not finite.all():\n",
           "    if False:\n",
           ("tests/test_axioms.py::TestContinuousPureTransitivity::"
            "test_non_finite_path_is_a_failed_construction",)),
    Mutant("preserves-unit-pushes-forward", "src/conelab/axioms.py",
           "np.abs(np.swapaxes(m, -1, -2) @ unit - unit)",
           "np.abs(m @ unit - unit)",
           ("tests/test_axioms.py::test_unit_rule_pulls_the_unit_back",)),
    Mutant("cli-loads-check-layers", "src/conelab/cli.py",
           "from . import classify\n",
           "from . import classify, fixtures\n",
           ("tests/test_cli.py::TestOtherCommands::"
            "test_classify_loads_no_check_layer",)),
    Mutant("pt-skips-finiteness", "src/conelab/axioms.py",
           "    if not np.all(np.isfinite(phi)):\n",
           "    if False:\n",
           ("tests/test_axioms.py::TestPureTransitivity::"
            "test_non_finite_map_is_a_failed_construction",)),
    Mutant("search-accepts-any-map", "src/conelab/axioms.py",
           "return all(m > 0 and exact.mat_vec(t, r)",
           "return True or all(m > 0 and exact.mat_vec(t, r)",
           ("tests/test_axioms.py::"
            "test_failed_weak_construction_is_inconclusive",
            "tests/test_axioms.py::"
            "test_wrongly_lifted_scale_is_a_failed_construction")),
    Mutant("unit-rule-accepts-any-map", "src/conelab/axioms.py",
           "return bool(np.max(np.abs(np.swapaxes(m, -1, -2) @ unit - unit))"
           " < 1e-8)",
           "return True",
           ("tests/test_axioms.py::test_unit_rule_pulls_the_unit_back",
            "tests/test_axioms.py::"
            "test_faulty_transitivity_map_is_inconclusive")),
    Mutant("self-dual-facets-never-leave", "src/conelab/cones.py",
           "if not data.member(f)), None)",
           "if False), None)",
           ("tests/test_axioms.py::TestSelfDuality::"
            "test_square_fails_with_witness",
            "tests/test_exact.py::"
            "test_polyhedral_self_dual_fails_carry_fractions")),
    Mutant("self-dual-first-pair-lower-triangle", "src/conelab/cones.py",
           "np.argmax(np.triu(bad))",
           "np.argmax(np.tril(bad))",
           ("tests/test_axioms.py::TestSelfDuality::"
            "test_pairwise_violation_matches_loop",
            "tests/test_axioms.py::TestSelfDuality::"
            "test_sampled_route_matches_pair_oracle")),
    Mutant("pt-pairs-misaligned", "src/conelab/cones.py",
           "pairs = list(zip(states[0::2], states[1::2]))",
           "pairs = list(zip(states[:5], states[5:]))",
           ("tests/test_axioms.py::TestPureTransitivity::"
            "test_stacked_pairs_match_sample_oracle",)),
    Mutant("max-tensor-admits-non-finite", "src/conelab/composite.py",
           "        if not np.all(np.isfinite(m)):\n",
           "        if False:\n",
           ("tests/test_composite.py::test_max_tensor_refuses_non_finite_input",
            "tests/test_composite.py::"
            "test_pairing_minimum_draws_its_starts_once")),
    Mutant("max-tensor-slices-wrong-factor", "src/conelab/composite.py",
           "duals @ (m.T if b_sliced else m)",
           "duals @ m",
           (_SLICE_SIGNS, _SLICE_OUTSIDE)),
    Mutant("max-tensor-skips-a-dual", "src/conelab/composite.py",
           "margins(duals @ (m.T",
           "margins(duals[1:] @ (m.T",
           (_SLICE_SIGNS, _SLICE_OUTSIDE, "tests/test_metamorphic.py::"
            "test_max_of_two_bits_is_the_classical_orthant")),
    Mutant("eja-face-support-takes-every-idempotent", "src/conelab/cones.py",
           "if lam > tol * scale:",
           "if lam > -tol * scale:",
           (_FACE_PROBE,)),
    Mutant("shared-corner-face-reads-one-block", "src/conelab/cones.py",
           "enumerate((m1, m2))",
           "enumerate((m1,))",
           (_FACE_PROBE,)),
    Mutant("max-tensor-face-reads-factor-a-twice", "src/conelab/composite.py",
           "for b in bb]",
           "for b in ba]",
           (_FACE_PROBE,)),
    Mutant("linear-image-extremality-unrotated", "src/conelab/composite.py",
           "self.inner.extremal_rows((self.rot @ xs[:, :, None])[:, :, 0],",
           "self.inner.extremal_rows(xs,",
           (_EXTREMAL_ORACLE,)),
    Mutant("linear-image-extremality-skips-membership",
           "src/conelab/composite.py",
           "            if not self.member(x, tol):\n",
           "            if False:\n",
           (_EXTREMAL_ORACLE, "tests/test_cones.py::TestExtremality::"
            "test_non_member_raises_behind_a_non_extremal_row")),
    Mutant("steering-accepts-every-ensemble", "src/conelab/composite.py",
           "return effects if valid.all() else",
           "return effects if True else",
           ("tests/test_composite.py::TestSteeringStack::"
            "test_forced_infeasible_ensemble_is_named",
            "tests/test_composite.py::TestSteeringStack::"
            "test_ensembles_and_steering_match_loops")),
    Mutant("bisection-takes-last-inside", "src/conelab/composite.py",
           "np.argmax(inside, axis=1)",
           "len(halvings) - 1 - np.argmax(inside[:, ::-1], axis=1)",
           ("tests/test_composite.py::TestSteeringStack::"
            "test_ensembles_and_steering_match_loops",
            "tests/test_cli.py::TestOtherCommands::test_steer_json_pinned")),
    Mutant("first-infeasible-ensemble-off-by-one", "src/conelab/composite.py",
           "effects[:np.argmin(valid)]",
           "effects[:np.argmin(valid) + 1]",
           ("tests/test_composite.py::TestSteeringStack::"
            "test_forced_infeasible_ensemble_is_named",
            "tests/test_composite.py::TestSteeringStack::"
            "test_ensembles_and_steering_match_loops")),
    Mutant("random-pures-drops-summand-pick", "src/conelab/eja.py",
           "picks[k] = rng.integers(len(self.summands))",
           "picks[k] = k % len(self.summands)",
           ("tests/test_eja.py::test_stacked_pures_equal_sample_by_sample",
            "tests/test_cli.py::TestCheckCommand::"
            "test_builtin_report_digest_pinned")),
    Mutant("facet-bound-never-refuses", "src/conelab/exact.py",
           "if len(gens) > FACET_WORK_BOUND:",
           "if False:",
           ("tests/test_cli.py::TestCheckCommand::"
            "test_nested_min_composite_is_refused_in_time",)),
    # `_cell` is bisect_left's only caller in classify.py
    Mutant("classify-bisect-right", "src/conelab/classify.py",
           "from bisect import bisect_left",
           "from bisect import bisect_right as bisect_left",
           ("tests/test_classify.py::test_local_tomography_survivors",
            "tests/test_classify.py::test_oracle_agreement_byte_for_byte")),
    Mutant("elimination-exits-one-early", "src/conelab/exact.py",
           "        insort(echelon, (c, row))\n"
           "        if len(echelon) == cols:\n",
           "        insort(echelon, (c, row))\n"
           "        if len(echelon) == cols - 1:\n",
           ("tests/test_exact.py::test_rref_matches_fraction_elimination",
            "tests/test_exact.py::"
            "test_elimination_matches_fraction_oracle_on_tall_systems")),
    Mutant("back-substitution-skips-a-row", "src/conelab/exact.py",
           "for i in range(len(rows) - 1, 0, -1):",
           "for i in range(len(rows) - 2, 0, -1):",
           ("tests/test_exact.py::test_rref_matches_fraction_elimination",
            "tests/test_exact.py::"
            "test_elimination_matches_fraction_oracle_on_tall_systems")),
    Mutant("json-rule-writes-fraction-as-float", "src/conelab/fixtures.py",
           "        return _rat(obj)\n",
           "        return float(obj)\n",
           ("tests/test_cli.py::TestRegistry::test_round_trip",
            "tests/test_cli.py::TestRegistry::"
            "test_rationals_survive_serialization",
            "tests/test_cli.py::TestCheckCommand::"
            "test_builtin_report_digest_pinned",
            "tests/test_cli.py::TestCheckCommand::"
            "test_wider_report_digest_pinned")),
    Mutant("extremal-guard-admits-non-finite", "src/conelab/cones.py",
           "if not (tol <= n < np.inf or n == np.inf and "
           "np.isfinite(x).all()):",
           "if n < tol:",
           ("tests/test_cones.py::TestExtremality::"
            "test_null_or_non_finite_ray_raises_one_error",)),
    Mutant("pt-cross-pair-from-summand-one", "src/conelab/cones.py",
           "k = next((k for k, d in enumerate(kinds) if d != kinds[0]), 1)",
           "k = 1",
           ("tests/test_cli.py::"
            "test_theorem_implications_on_generated_eja_sums",)),
    # the last coordinate is where a polygon cone's rays are 1, and a
    # facet normal can be 0 there
    Mutant("wedge-pair-off-first-nonzero", "src/conelab/axioms.py",
           "c = next(a for a, x in enumerate(q) if x)",
           "c = len(q) - 1",
           ("tests/test_axioms.py::test_scale_space_matches_oracle",
            "tests/test_axioms.py::"
            "test_scale_space_matches_oracle_on_every_bijection")),
    Mutant("composite-self-dual-fixed-seed", "src/conelab/fixtures.py",
           "v = axioms.check_self_dual(inner, tol=c.tol, seed=c.seed)",
           "v = axioms.check_self_dual(inner, tol=c.tol)",
           ("tests/test_composite.py::"
            "test_composite_self_dual_draws_from_the_run_seed",)),
    Mutant("purity-fails-without-pair", "src/conelab/fixtures.py",
           "return Verdict(FAILS, violation=pair,",
           "return Verdict(FAILS, violation=None,",
           ("tests/test_composite.py::test_purity_fails_names_its_pair",)),
    Mutant("eja-reducible-counts-every-summand", "src/conelab/cones.py",
           "return len(self.algebra.summands) > 1",
           "return len(self.algebra.summands) >= 1",
           ("tests/test_cones.py::"
            "test_eja_reducible_iff_more_than_one_summand",
            "tests/test_cli.py::TestCheckCommand::"
            "test_builtin_report_digest_pinned")),
    Mutant("homogeneity-maps-square-root-of-rho", "src/conelab/cones.py",
           "@ alg.quadratic_rep(alg.inv_sqrt(rho)))",
           "@ alg.quadratic_rep(alg.sqrt(rho)))",
           ("tests/test_axioms.py::TestHomogeneity::test_eja_witness",
            "tests/test_acceptance.py::"
            "test_criterion_1_symmetric_cone_consistency")),
    Mutant("simplex-ratio-tie-by-row", "src/conelab/exact.py",
           "(tab[i][-1] * tab[leave][enter], basis[i])\n"
           "                    < (tab[leave][-1] * a, basis[leave])",
           "(tab[i][-1] * tab[leave][enter], i)\n"
           "                    < (tab[leave][-1] * a, leave)",
           (_LP_ORACLE,)),
    Mutant("simplex-keeps-negative-rhs", "src/conelab/exact.py",
           "        if c < 0:\n            row, c = [-x for x in row], -c\n",
           "",
           (_LP_ORACLE,)),
    # the shared corner's closed forms: its face profile and the boundary
    # of its dual cone
    Mutant("shared-corner-profile-drops-corner", "src/conelab/cones.py",
           "for r in ranks) - 1",
           "for r in ranks)",
           ("tests/test_axioms.py::TestPureTransitivity::"
            "test_shared_corner_profile_violation",
            "tests/test_axioms.py::TestPureTransitivity::"
            "test_shared_corner_profile_matches_sampling")),
    Mutant("shared-corner-dual-point-inside", "src/conelab/cones.py",
           "e = np.array([self.dual_floor(e2, e3, e4, e5),",
           "e = np.array([4 * self.dual_floor(e2, e3, e4, e5),",
           ("tests/test_axioms.py::TestSelfDuality::test_shared_corner_fails",
            "tests/test_cli.py::TestCheckCommand::"
            "test_builtin_report_digest_pinned")),
    Mutant("pure-pairs-refusal-returns", "src/conelab/cones.py",
           "        raise UnsupportedQuery(\"pure transitivity checker",
           "        return UnsupportedQuery(\"pure transitivity checker",
           ("tests/test_cones.py::test_kind_methods_refuse_with_one_text",
            "tests/test_cli.py::TestCheckCommand::"
            "test_builtin_report_digest_pinned")),
    Mutant("simplex-cost-row-not-pivoted", "src/conelab/exact.py",
           "for i, row in enumerate(tab):",
           "for i, row in enumerate(tab[:m]):",
           ("tests/test_exact.py::test_feasible_nonneg_stops_in_time",)),
)


def _pytest(tmp: Path, node_ids) -> int:
    env = {**os.environ, "PYTHONPATH": str(tmp / "src")}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *node_ids], cwd=tmp, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode


def main(ids: list[str]) -> int:
    chosen = [m for m in MUTANTS if not ids or m.id in ids]
    unknown = set(ids) - {m.id for m in MUTANTS}
    if unknown:
        print(f"unknown mutant ids: {sorted(unknown)}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="conelab-mutants-") as name:
        tmp = Path(name)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tmp / part, ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", tmp)
        every = sorted({t for m in chosen for t in m.tests})
        if _pytest(tmp, every) != 0:
            print("the killing tests fail on the unmutated copy")
            return 2
        survivors = []
        for m in chosen:
            target = tmp / m.path
            text = target.read_text(encoding="utf-8")
            if text.count(m.old) != 1:
                print(f"{m.id}: old text found {text.count(m.old)} times")
                return 2
            target.write_text(text.replace(m.old, m.new), encoding="utf-8")
            code = _pytest(tmp, m.tests)
            target.write_text(text, encoding="utf-8")
            # 1 is "tests failed"; a collection or usage error kills nothing
            killed = code == 1
            print(f"{m.id}: {'killed' if killed else f'SURVIVED (exit {code})'}")
            if not killed:
                survivors.append(m.id)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
