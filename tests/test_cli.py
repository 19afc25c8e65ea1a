"""Command-line surface, registry handling, and report stability."""

import gc
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conelab import axioms, classify, exact, fixtures
from conelab.cli import main
from conelab.cones import ConeError

# sha256 of `conelab check --seed 11` over the builtin registry
REPORT_SEED_11_SHA256 = (
    "9ea48796c323baecc47078107c8b8a65cc08c86c07d763d1fa40758f67ebf9be")

# sha256 of `run_checks(wider_registry(), seed=7)`, as JSON the way the CLI
# writes it and as `report_text`; recorded before the runner read one
# verdict record.
WIDER_SEED_7_JSON_SHA256 = (
    "52c5210ca31ff1a2443daf5a3ba193e22fa9b9511b1678503e58de6d8e9710e0")
WIDER_SEED_7_TEXT_SHA256 = (
    "533cbb49d5059ca64f775698080d563e557f4b3157bedb614ca07e78c359e69b")

# sha256 of `conelab steer --format json` by (fixture, --parts, --seed),
# recorded before the steering spot check steered its ensembles as one
# stack
STEER_JSON_SHA256 = {
    ("two-qubit-hilbert", 1, 3):
        "5af45e39edc19f92d5e8c0e9d085b80e66615b2e51494f34f5f62c1bbe7e8dcc",
    ("two-qubit-hilbert", 1, 5):
        "0f0ac8dd75f5c9d40b5e16956101e7232878c693cd8cffe0f372d94913f51aa3",
    ("two-qubit-hilbert", 2, 3):
        "1a7aefca74bcaa9faa0262b9b4b2f531d58152fd2b29bc030fb1173e02d47740",
    ("two-qubit-hilbert", 2, 5):
        "d3f4cb5f6ec950524e1c9c3c5558e836acba6bc49f9c503d8c689a2a26bbea80",
    ("two-qubit-hilbert", 3, 3):
        "db857a6959c364d55feec9679c63366f57dd00b62133329b3c96e1e564b20573",
    ("two-qubit-hilbert", 3, 5):
        "d511323d5c87041283581f52189b02435b317642324c2f12c71453cb6579ad66",
    ("classical-bit-bit", 1, 3):
        "544161bb045c688c26e876795c7f679e694c9f11858a7e4e0db389c8599b0a3c",
    ("classical-bit-bit", 1, 5):
        "d11fbf1b330e0e7faf3a66d98e8eee73b7b896f69e552cb49e8da3ba6e584eb9",
    ("classical-bit-bit", 2, 3):
        "a837bded97c7133ddbc457531d6948416cc12d52d8408cf0095c03be25571f9b",
    ("classical-bit-bit", 2, 5):
        "1a7afe5d9aa478f45d3b7fc977948b51c4c028d3fe030040b7b83b112135b2c0",
    ("classical-bit-bit", 3, 3):
        "0453cec1c5d834efe21d0605a2ad2a07661f8d8b3c4d68dee55de50ca0cc63dc",
    ("classical-bit-bit", 3, 5):
        "82a5a68a6c197ae642481aae43303b568114d72e3454fafc04bb22358981b7e8",
}

# The benchmark's record of the seed-7 report; read here, owned there.
BENCHMARK_EXPECTED = Path(__file__).parents[1] / "perfbench" / "expected.json"

SRC = Path(__file__).parents[1] / "src"
# the layers that `conelab --help` and `conelab classify` never run
CHECK_LAYERS = ("numpy", "conelab.fixtures", "conelab.eja", "conelab.exact",
                "conelab.cones", "conelab.axioms", "conelab.composite")
# run in a fresh interpreter: prints which of the layers named in argv[1]
# are loaded after the import and after each command, and classify's output
COLD_START = """\
import json, sys
from click.testing import CliRunner
from conelab import cli
layers = json.loads(sys.argv[1])
loaded = {"import": [m for m in layers if m in sys.modules]}
for args in (["--help"], ["classify", "--max-rank", "3", "--format", "json"]):
    result = CliRunner().invoke(cli.main, args)
    assert result.exit_code == 0, result.output
    loaded[args[0]] = [m for m in layers if m in sys.modules]
print(json.dumps({"loaded": loaded, "output": result.output}))
"""


@pytest.fixture
def runner():
    return CliRunner()


def small_registry() -> str:
    specs = [s for s in fixtures.builtin_fixtures()
             if s.name in ("qubit", "square-cone", "classical-simplex-2")]
    return fixtures.registry_to_json(specs)


def wider_registry() -> list[fixtures.FixtureSpec]:
    """Five builtin fixtures, a lattice hexagon with no invertible
    ray-to-facet map, and three max-tensor composites."""
    keep = ("real-sym-2", "qubit", "classical-simplex-2", "square-cone",
            "shared-corner")
    specs = [s for s in fixtures.builtin_fixtures() if s.name in keep]
    hexagon = [(4, 1), (2, 3), (-2, 3), (-4, 0), (-2, -3), (3, -3)]
    specs.append(fixtures.FixtureSpec(
        "hexagon", "polyhedral",
        {"generators": [[F(x), F(y), F(1)] for x, y in hexagon],
         "unit": ["0", "0", "1"]}, seed=14))
    for i, (name, a, b) in enumerate((
            ("max-rebit-rebit", "real-sym-2", "real-sym-2"),
            ("max-square-qubit", "square-cone", "qubit"),
            ("max-corner-bit", "shared-corner", "classical-simplex-2"))):
        specs.append(fixtures.FixtureSpec(
            name, "composite", {"model": "max", "factorA": a, "factorB": b},
            seed=15 + i))
    return specs


# the checks that the theorem's implications read
IMPLICATION_CHECKS = ("self-dual", "spd-self-duality", "homogeneity",
                      "pure-transitivity", "continuous-pure-transitivity",
                      "reducibility")


@pytest.mark.parametrize("seed", [1, 7, 11])
@pytest.mark.parametrize("registry", ["builtin", "wider"])
def test_theorem_implications(registry, seed):
    # homogeneity and pure transitivity imply self-duality, under the trace
    # form or, on a polyhedral cone, under some SPD inner product; and
    # continuous pure transitivity rules out a direct-sum splitting.  Each
    # premise holds on some fixture, so neither implication is vacuous.
    specs = (fixtures.builtin_fixtures() if registry == "builtin"
             else wider_registry())
    report = fixtures.run_checks(specs, IMPLICATION_CHECKS, seed=seed)
    status = {(f["fixture"], r["check"]): r["status"]
              for f in report["fixtures"] for r in f["checks"]}
    names = [f["fixture"] for f in report["fixtures"]]
    transitive = [n for n in names if status[n, "homogeneity"] == "holds"
                  and status[n, "pure-transitivity"] == "holds"]
    continuous = [n for n in names
                  if status[n, "continuous-pure-transitivity"] == "holds"]
    assert transitive and continuous
    for n in transitive:
        assert "holds" in (status[n, "self-dual"],
                           status[n, "spd-self-duality"]), n
    for n in continuous:
        assert status[n, "reducibility"] == "fails", n
    # a homogeneous, purely transitive Jordan-algebraic system has
    # isomorphic summands, and the shared-corner cone is never purely
    # transitive
    registry = {s.name: s for s in specs}
    for spec in specs:
        if spec.kind == "eja" and spec.name in transitive:
            alg = fixtures.build_system(spec, registry).cone.algebra
            assert len({(f.rank, f.dim) for f in alg.factors}) == 1, spec.name
    corner = [s.name for s in specs if s.kind == "shared-corner"]
    assert corner and all(status[n, "pure-transitivity"] != "holds"
                          for n in corner)


# one simple summand of a registry's EJA fixture
SUMMANDS = st.one_of(
    st.builds(lambda family, rank: {"family": family, "rank": rank},
              st.sampled_from(["real", "complex"]), st.integers(1, 3)),
    st.builds(lambda rank: {"family": "quat", "rank": rank},
              st.integers(1, 2)),
    st.builds(lambda dim: {"family": "spin", "dim": dim}, st.integers(3, 6)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(SUMMANDS, min_size=1, max_size=3), st.integers(0, 2 ** 16))
# the random pairs stay in the two quaternionic summands: the check's own
# cross pair must reach the spin factor
@example([{"family": "quat", "rank": 2}, {"family": "quat", "rank": 2},
          {"family": "spin", "dim": 3}], 1)
def test_theorem_implications_on_generated_eja_sums(summands, seed):
    # the theorem read on EJA direct sums: a sum splits iff it has two
    # summands or more, only a simple algebra is continuously purely
    # transitive, pure transitivity needs isomorphic summands and holds for
    # copies of one summand, and homogeneity with it implies self-duality.
    # Isomorphic summands of different families (real 2 + spin 3) may read
    # inconclusive, so they pin nothing.
    spec = fixtures.FixtureSpec("sum", "eja", {"summands": summands})
    checks = [c for c in IMPLICATION_CHECKS if c != "spd-self-duality"]
    report = fixtures.run_checks([spec], checks, seed=seed)
    status = {r["check"]: r["status"] for r in report["fixtures"][0]["checks"]}
    several = len(summands) > 1
    assert (status["reducibility"] == "holds") == several
    assert (status["continuous-pure-transitivity"] == "holds") != several
    alg = fixtures.build_system(spec, {}).cone.algebra
    if status["pure-transitivity"] == "holds":
        assert len({(f.rank, f.dim) for f in alg.factors}) == 1
    if len({(f.family, f.rank, f.dim) for f in alg.factors}) == 1:
        assert status["pure-transitivity"] == "holds"
    if status["homogeneity"] == status["pure-transitivity"] == "holds":
        assert status["self-dual"] == "holds"


class TestRegistry:
    def test_round_trip(self):
        specs = fixtures.builtin_fixtures()
        text = fixtures.registry_to_json(specs)
        back = fixtures.registry_from_json(text)
        assert back == specs
        assert fixtures.registry_to_json(back) == text

    def test_builtin_contents(self):
        names = {s.name for s in fixtures.builtin_fixtures()}
        required = {"classical-simplex-2", "classical-simplex-3",
                    "classical-simplex-4", "real-sym-2", "real-sym-3",
                    "qubit", "complex-herm-3", "complex-herm-4",
                    "quat-herm-2", "spin-factor-3", "spin-factor-4",
                    "spin-factor-8", "two-qubit-sum", "qubit-plus-rebit",
                    "square-cone", "pentagon-cone", "shared-corner",
                    "two-qubit-hilbert", "min-square-square",
                    "classical-bit-bit"}
        assert required <= names

    def test_every_builtin_declares_core_expectations(self):
        core = {"self-dual", "homogeneity", "pure-transitivity",
                "continuous-pure-transitivity", "reducibility"}
        for spec in fixtures.builtin_fixtures():
            assert core <= set(spec.expects), spec.name

    def test_rationals_survive_serialization(self):
        spec = next(s for s in fixtures.builtin_fixtures()
                    if s.name == "square-cone")
        obj = json.loads(fixtures.registry_to_json([spec]))["fixtures"][0]
        gen0 = obj["params"]["generators"][0]
        assert gen0[0] == {"num": 1, "den": 1}
        back = fixtures.spec_from_json(obj)
        assert back.params["generators"] == spec.params["generators"]

    def test_parse_errors(self):
        with pytest.raises(ConeError, match="parse error"):
            fixtures.registry_from_json("{not json")
        with pytest.raises(ConeError, match="missing 'kind'"):
            fixtures.registry_from_json(
                '{"fixtures": [{"name": "x"}]}')
        with pytest.raises(ConeError, match="duplicate"):
            fixtures.registry_from_json(json.dumps({"fixtures": [
                {"name": "x", "kind": "shared-corner"},
                {"name": "x", "kind": "shared-corner"}]}))
        with pytest.raises(ConeError, match="unknown factor"):
            fixtures.registry_from_json(json.dumps({"fixtures": [
                {"name": "c", "kind": "composite",
                 "params": {"model": "hilbert", "factorA": "a",
                            "factorB": "b"}}]}))

    def test_mistyped_expectations_rejected(self, runner, tmp_path):
        # a mistyped check name would never be compared, and a mistyped
        # status would only mismatch
        specs = [s for s in fixtures.builtin_fixtures() if s.name == "qubit"]
        specs[0].expects = {"self_dual": "fails", "reducibility": "hold"}
        text = fixtures.registry_to_json(specs)
        with pytest.raises(ConeError, match="fixture 'qubit'"):
            fixtures.registry_from_json(text)
        reg = tmp_path / "typo.json"
        reg.write_text(text)
        result = runner.invoke(main, ["check", "--registry", str(reg),
                                      "--checks", "self-dual,reducibility"])
        assert result.exit_code == 1
        error = next(line for line in result.output.splitlines()
                     if line.startswith("Error:"))
        assert "'self_dual'" in error and "'hold'" in error
        assert "self-dual" in error and "holds" in error

    def test_unknown_check_rejected(self):
        with pytest.raises(ConeError, match="unknown check"):
            fixtures.run_checks(fixtures.builtin_fixtures()[:1],
                                ["not-a-check"])


class TestCheckCommand:
    def test_small_registry_exit_zero(self, runner, tmp_path):
        reg = tmp_path / "reg.json"
        reg.write_text(small_registry())
        result = runner.invoke(main, ["check", "--registry", str(reg),
                                      "--seed", "7"])
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report["schema_version"] == 1
        assert report["summary"]["ok"]

    def test_byte_stability(self, runner, tmp_path):
        reg = tmp_path / "reg.json"
        reg.write_text(small_registry())
        args = ["check", "--registry", str(reg), "--seed", "11"]
        out1 = runner.invoke(main, args).output
        out2 = runner.invoke(main, args + ["--jobs", "3"]).output
        assert out1 == out2

    def test_builtin_report_digest_pinned(self, runner):
        # The full builtin report at seed 11, byte for byte.  A change that
        # alters a verdict, a margin or the toolkit version on purpose
        # records the new digest together with the list of what changed.
        result = runner.invoke(main, ["check", "--seed", "11"])
        assert result.exit_code == 0
        digest = hashlib.sha256(result.output.encode()).hexdigest()
        assert digest == REPORT_SEED_11_SHA256

    def test_benchmark_report_digest_matches(self, runner):
        # The benchmark's registry-check pins its seed's report bytes; a
        # byte change fails here before the benchmark is run.
        record = json.loads(BENCHMARK_EXPECTED.read_text(encoding="utf-8"))
        pinned = record["registry-check"]
        result = runner.invoke(main, ["check", "--seed", str(pinned["seed"]),
                                      "--jobs", "1"])
        assert result.exit_code == 0
        text = result.stdout_bytes.decode("utf-8")
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == pinned["report_sha256"]

    def test_wider_report_digest_pinned(self):
        # every record shape: self-dual and steering payload and margin,
        # search payloads (the hexagon's weak FAILS is all null), PT margins
        # and payloads, homogeneity margins, local tomography reports, and
        # skipped and unsupported records with neither
        report = fixtures.run_checks(wider_registry(), seed=7)
        records = {(f["fixture"], r["check"]): r
                   for f in report["fixtures"] for r in f["checks"]}
        weak = records["hexagon", "weak-self-duality"]
        assert weak["status"] == "fails"
        assert weak["payload"] == {"witness": None, "violation": None}
        # membership by exact facet slices decides both max composites
        # with a polyhedral or classical factor
        purity = [records[f"max-{pair}", "purity-preservation"]
                  for pair in ("square-qubit", "corner-bit")]
        assert [(r["status"], r["detail"]) for r in purity] == \
            [("holds", "10 pure product pairs")] * 2
        text = fixtures.to_json(report)
        assert hashlib.sha256(text.encode()).hexdigest() \
            == WIDER_SEED_7_JSON_SHA256
        assert hashlib.sha256(fixtures.report_text(report).encode()) \
            .hexdigest() == WIDER_SEED_7_TEXT_SHA256

    def test_max_composite_without_a_route_is_a_full_report(self, runner,
                                                            tmp_path):
        # max(shared-corner, qubit) has no membership route: it builds, and
        # the checks that query its cone read UNSUPPORTED, naming the pair
        specs = [s for s in fixtures.builtin_fixtures()
                 if s.name in ("qubit", "shared-corner")]
        specs.append(fixtures.FixtureSpec(
            "max-corner-qubit", "composite",
            {"model": "max", "factorA": "shared-corner", "factorB": "qubit"}))
        reg = tmp_path / "reg.json"
        reg.write_text(fixtures.registry_to_json(specs))
        result = runner.invoke(main, ["check", "--registry", str(reg),
                                      "--seed", "7"])
        assert result.exit_code == 0, result.output
        assert "Error:" not in result.output
        report = json.loads(result.output)
        records = {(f["fixture"], r["check"]): r
                   for f in report["fixtures"] for r in f["checks"]}
        assert len(records) == 3 * len(fixtures.ALL_CHECKS)
        purity = records["max-corner-qubit", "purity-preservation"]
        assert purity["status"] == "unsupported"
        assert purity["detail"] == ("no max-tensor membership route for "
                                    "shared-corner (x) qubit [max]")

    @pytest.mark.parametrize("declared", ["fails", "error"])
    def test_cone_error_is_an_error_that_never_matches(
            self, runner, tmp_path, monkeypatch, declared):
        # a check that raises is neither a FAILS nor neutral, and any
        # exception a route lets out is its record, not a traceback
        specs = [s for s in fixtures.builtin_fixtures() if s.name == "qubit"]
        specs[0].expects = {"self-dual": declared}
        reg = tmp_path / "reg.json"
        reg.write_text(fixtures.registry_to_json(specs))
        for exc, detail in (
                (ConeError("numerical breakdown"),
                 "precondition failure: numerical breakdown"),
                (ValueError("non-finite input"),
                 "ValueError: non-finite input"),
                (ZeroDivisionError("float division by zero"),
                 "ZeroDivisionError: float division by zero")):
            def broken(*args, exc=exc, **kwargs):
                raise exc

            monkeypatch.setattr(axioms, "check_self_dual", broken)
            result = runner.invoke(main, ["check", "--registry", str(reg),
                                          "--checks", "self-dual"])
            assert result.exit_code == 1
            record = json.loads(result.output)["fixtures"][0]["checks"][0]
            assert record["status"] == "error"
            assert record["detail"] == detail
            assert record["match"] is False
            assert record["payload"] is None and "margin" not in record

    def test_report_refuses_values_it_cannot_write(self):
        # a repr could carry a memory address into a byte-stable report
        with pytest.raises(TypeError, match="object"):
            fixtures.to_json({"payload": {"witness": object()}})

    def test_one_rule_writes_arrays_fractions_and_numpy_scalars(self):
        doc = {"array": np.array([[1.5, 2.0]]), "fraction": F(-3, 4),
               "numbers": [np.int64(5), np.float32(0.5), np.bool_(True)]}
        assert json.loads(fixtures.to_json(doc)) == {
            "array": [[1.5, 2.0]], "fraction": {"num": -3, "den": 4},
            "numbers": [5, 0.5, True]}

    def test_expectation_mismatch_exit_one(self, runner, tmp_path):
        specs = [s for s in fixtures.builtin_fixtures() if s.name == "qubit"]
        specs[0].expects["self-dual"] = "fails"
        reg = tmp_path / "bad.json"
        reg.write_text(fixtures.registry_to_json(specs))
        result = runner.invoke(main, ["check", "--registry", str(reg),
                                      "--checks", "self-dual"])
        assert result.exit_code == 1
        report = json.loads(result.output)
        assert report["fixtures"][0]["mismatches"] == ["self-dual"]

    def test_empty_registry_exit_zero(self, runner, tmp_path):
        reg = tmp_path / "empty.json"
        reg.write_text('{"fixtures": []}')
        result = runner.invoke(main, ["check", "--registry", str(reg)])
        assert result.exit_code == 0
        assert json.loads(result.output)["summary"]["fixtures"] == 0

    def test_check_selection(self, runner, tmp_path):
        reg = tmp_path / "reg.json"
        reg.write_text(small_registry())
        result = runner.invoke(main, ["check", "--registry", str(reg),
                                      "--checks", "self-dual,reducibility",
                                      "--format", "text"])
        assert result.exit_code == 0
        assert "homogeneity" not in result.output

    def test_env_seed_override(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv("CONELAB_SEED", "42")
        reg = tmp_path / "reg.json"
        reg.write_text(small_registry())
        result = runner.invoke(main, ["check", "--registry", str(reg)])
        assert json.loads(result.output)["seed"] == 42

    def test_flag_seed_wins_over_env(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv("CONELAB_SEED", "abc")
        reg = tmp_path / "reg.json"
        reg.write_text(small_registry())
        result = runner.invoke(main, ["check", "--registry", str(reg),
                                      "--seed", "0"])
        assert result.exit_code == 0
        assert json.loads(result.output)["seed"] == 0

    @pytest.mark.parametrize("command", ["check", "steer"])
    @pytest.mark.parametrize("flag, env, message", [
        ("-100", None, "Invalid value for '--seed': -100 is negative."),
        (None, "abc",
         "Invalid value for CONELAB_SEED: 'abc' is not a valid integer."),
        (None, "-3", "Invalid value for CONELAB_SEED: -3 is negative.")],
        ids=["negative-flag", "non-integer-env", "negative-env"])
    def test_bad_seed_is_a_usage_error(self, runner, monkeypatch, command,
                                       flag, env, message):
        # numpy's generators take no negative seed: one usage error before
        # any check runs, not one error record per check or a traceback
        if env is None:
            monkeypatch.delenv("CONELAB_SEED", raising=False)
        else:
            monkeypatch.setenv("CONELAB_SEED", env)
        args = [command] + (["--seed", flag] if flag else [])
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert [line for line in result.output.splitlines()
                if "Error" in line] == [f"Error: {message}"]

    @pytest.mark.parametrize("summand, message", [
        ({"family": "octonion", "rank": 3}, "unknown family 'octonion'"),
        ({"family": "spin", "dim": 1},
         "spin factor needs its own dim parameter >= 3, got 1"),
        ({"family": "real"}, "missing 'rank'"),
        ({"family": "spin"}, "missing 'dim'")])
    def test_malformed_summand_is_an_error(self, runner, tmp_path, summand,
                                           message):
        self._assert_rejected(runner, tmp_path, "eja",
                              {"summands": [summand]}, message)

    def test_polyhedral_fixture_without_generators_is_an_error(
            self, runner, tmp_path):
        self._assert_rejected(runner, tmp_path, "polyhedral", {},
                              "missing 'generators'")

    def test_polyhedral_zero_generator_is_an_error(self, runner, tmp_path):
        self._assert_rejected(runner, tmp_path, "polyhedral",
                              {"generators": [[0, 0, 0], [1, 0, 1]]},
                              "zero generator")

    def test_non_integer_seed_is_an_error(self, runner, tmp_path):
        self._assert_rejected(runner, tmp_path, "shared-corner", {},
                              "invalid literal for int()",
                              prefix="registry ", seed="x")

    @pytest.mark.parametrize("registry,message", [
        ([1], "registry must be a JSON object with a list of fixtures"),
        ({"fixtures": [1]}, "registry fixture #0: not a JSON object"),
        ({"fixtures": [{"name": ["a"], "kind": "shared-corner"}]},
         "registry fixture #0: 'name' must be a string"),
        ({"fixtures": [{"name": "c", "kind": "eja",
                        "params": {"classical": None}}]},
         "fixture 'c': int() argument must be"),
        ({"fixtures": [{"name": "s", "kind": "eja",
                        "params": {"summands": 5}}]},
         "fixture 's': 'int' object is not iterable"),
        ({"fixtures": [{"name": "s", "kind": "eja",
                        "params": {"summands": [1]}}]},
         "fixture 's': 'int' object is not subscriptable"),
        ({"fixtures": [{"name": "s", "kind": "eja", "params": {
            "summands": [{"family": "spin", "dim": None}]}}]},
         "fixture 's': int() argument must be"),
        ({"fixtures": [{"name": "q", "kind": "eja", "params": {
            "summands": [{"family": "quat", "rank": 0}]}}]},
         "fixture 'q': rank must be at least 1, got 0"),
        ({"fixtures": [{"name": "quadrant", "kind": "eja", "params": {
            "summands": [{"family": "spin", "dim": 2}]}}]},
         "fixture 'quadrant': spin factor needs its own dim parameter >= 3, "
         "got 2 (spin dim 2 is the quadrant R + R: ask for classical 2)"),
        ({"fixtures": [{"name": "p", "kind": "polyhedral", "params": {
            "generators": [[1, 0], [0, 1]], "unit": 5}}]},
         "fixture 'p': 'int' object is not iterable"),
        ({"fixtures": [
            {"name": "x", "kind": "composite",
             "params": {"factorA": "y", "factorB": "y", "model": "max"}},
            {"name": "y", "kind": "composite",
             "params": {"factorA": "x", "factorB": "x", "model": "max"}}]},
         "fixture 'x': composite factors form a cycle x -> y -> x"),
        ({"fixtures": [{"name": "x", "kind": "composite", "params": {
            "factorA": "x", "factorB": "x", "model": "max"}}]},
         "fixture 'x': composite factors form a cycle x -> x"),
        ({"fixtures": [
            {"name": "q", "kind": "eja", "params": {
                "summands": [{"family": "complex", "rank": 2}]}},
            {"name": "m", "kind": "composite",
             "params": {"factorA": "q", "factorB": "q", "model": "min"}}]},
         "fixture 'm': exact min-tensor cone needs polyhedral factors")],
        ids=["top-level-list", "fixture-not-object", "unhashable-name",
             "classical-null", "summands-int", "summand-int", "spin-dim-null",
             "rank-zero", "spin-dim-2", "unit-int", "factor-cycle",
             "self-factor", "min-of-eja"])
    def test_malformed_registry_is_an_error(self, runner, tmp_path, registry,
                                            message):
        reg = tmp_path / "bad.json"
        reg.write_text(json.dumps(registry))
        result = runner.invoke(main, ["check", "--registry", str(reg)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"Error: {message}" in result.output

    @staticmethod
    def _assert_rejected(runner, tmp_path, kind, params, message,
                         prefix="", **fields):
        reg = tmp_path / "bad.json"
        reg.write_text(json.dumps({"fixtures": [
            {"name": "odd", "kind": kind, "params": params, **fields}]}))
        result = runner.invoke(main, ["check", "--registry", str(reg)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"Error: {prefix}fixture 'odd': {message}" in result.output

    def test_timings_flag_adds_fields(self, runner, tmp_path):
        reg = tmp_path / "reg.json"
        reg.write_text(small_registry())
        result = runner.invoke(main, ["check", "--registry", str(reg),
                                      "--checks", "self-dual", "--timings"])
        report = json.loads(result.output)
        assert all("elapsed_s" in f for f in report["fixtures"])


    def test_nested_min_composite_is_refused_in_time(self, tmp_path):
        # min(min(square, square), square) has the 53 856 facets of the
        # tripartite no-signalling polytope: its self-dual check must be
        # UNSUPPORTED at the facet bound, in a subprocess that a mutant
        # without the bound cannot hang
        square = {"generators": [[1, 1, 0], [0, 1, 1], [-1, 1, 0],
                                 [0, 1, -1]], "unit": ["0", "1", "0"]}
        reg = tmp_path / "nested.json"
        reg.write_text(json.dumps({"fixtures": [
            {"name": "square", "kind": "polyhedral", "params": square},
            {"name": "mss", "kind": "composite", "params": {
                "factorA": "square", "factorB": "square", "model": "min"}},
            {"name": "msss", "kind": "composite", "params": {
                "factorA": "mss", "factorB": "square", "model": "min"}}]}))
        proc = subprocess.run(
            [sys.executable, "-m", "conelab.cli", "check", "--registry",
             str(reg), "--checks", "self-dual", "--timings"],
            env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True,
            text=True, timeout=5)
        assert proc.returncode == 0, proc.stderr
        fixtures_out = json.loads(proc.stdout)["fixtures"]
        assert sum(f["elapsed_s"] for f in fixtures_out) < 2.0
        [record] = fixtures_out[-1]["checks"]
        assert record["status"] == "unsupported"
        assert record["detail"].startswith(
            f"facet enumeration passed {exact.FACET_WORK_BOUND} partial "
            "generators after ")

class TestOtherCommands:
    def test_fixtures_dump(self, runner):
        result = runner.invoke(main, ["fixtures"])
        assert result.exit_code == 0
        obj = json.loads(result.output)
        assert any(f["name"] == "shared-corner" for f in obj["fixtures"])

    def test_classify_text(self, runner):
        result = runner.invoke(main, ["classify", "--max-rank", "3"])
        assert result.exit_code == 0
        assert "survivors: ComplexHerm" in result.output

    def test_classify_json(self, runner):
        result = runner.invoke(main, [
            "classify", "--procedure", "classicality", "--max-rank", "3",
            "--num-summands", "2", "--format", "json"])
        obj = json.loads(result.output)
        assert obj["survivors"] == ["RealSym", "ComplexHerm"]

    def test_classify_loads_no_check_layer(self):
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run(
            [sys.executable, "-c", COLD_START, json.dumps(CHECK_LAYERS)],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout)
        assert got["loaded"] == {"import": [], "--help": [], "classify": []}
        trace = classify.survivors_local_tomography(3)
        assert got["output"] == classify.trace_json(trace) + "\n"

    def test_classify_refuses_a_truncated_record_table(self, runner):
        # spin members run to dim 4*max_rank**4, so the trace grows as
        # max_rank**4; the cap is a bound on its size
        result = runner.invoke(main, ["classify", "--max-rank", "11"])
        assert result.exit_code == 1
        assert "Error: max_rank must be at most 8" in result.output

    def test_steer_text(self, runner):
        result = runner.invoke(main, ["steer", "--seed", "3"])
        assert result.exit_code == 0
        assert "result: measurement" in result.output

    def test_steer_json_classical(self, runner):
        result = runner.invoke(main, [
            "steer", "--fixture", "classical-bit-bit", "--parts", "2",
            "--seed", "5", "--format", "json"])
        obj = json.loads(result.output)
        assert obj["result"] == "measurement"
        assert obj["residual"] < 1e-8

    @pytest.mark.parametrize("fixture,parts,seed", sorted(STEER_JSON_SHA256))
    def test_steer_json_pinned(self, runner, fixture, parts, seed):
        result = runner.invoke(main, [
            "steer", "--fixture", fixture, "--parts", str(parts),
            "--seed", str(seed), "--format", "json"])
        assert result.exit_code == 0
        assert hashlib.sha256(result.output.encode()).hexdigest() \
            == STEER_JSON_SHA256[fixture, parts, seed]

    def test_invocations_release_their_captured_output(self, runner):
        # click caches its default stdout wrapper per stream, and the cache
        # keeps the stream alive: writing to sys.stdout itself leaves no
        # captured output behind, however many commands run
        def live_after(n):
            for _ in range(n):
                assert runner.invoke(main, ["classify", "--max-rank",
                                            "2"]).exit_code == 0
            gc.collect()
            return sum(isinstance(o, io.BytesIO) for o in gc.get_objects())

        assert live_after(2) == live_after(8)

    @pytest.mark.parametrize("parts", ["0", "-3"])
    def test_steer_needs_a_positive_part_count(self, runner, parts):
        result = runner.invoke(main, ["steer", "--parts", parts,
                                      "--format", "json"])
        assert result.exit_code == 2
        assert "Invalid value for '--parts'" in result.output

    def test_steer_non_composite_rejected(self, runner):
        result = runner.invoke(main, ["steer", "--fixture", "qubit"])
        assert result.exit_code != 0
        assert "not a composite" in result.output
