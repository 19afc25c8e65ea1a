"""Fixture registry and the batch check runner behind the command line.

Registries are JSON documents listing named systems (simple and direct-sum
algebras, polyhedral cones from exact rational generators, the shared-corner
cone, and bipartite composites) together with the verdicts each check is
expected to produce.  Reports are deterministic for a fixed seed: no
wall-clock fields unless explicitly requested.
"""

from __future__ import annotations

import json
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import __version__, axioms, eja
from .composite import (CompositeSystem, LinearImageCone, canonical_self_steering_state,
                        local_tomography_check, purity_preservation_check,
                        steering_order_iso_check)
from .cones import (FAILS, HOLDS, INCONCLUSIVE, UNSUPPORTED, ConeError,
                    PolyhedralCone, System, UnsupportedQuery, Verdict,
                    eja_system, shared_corner_system)

SCHEMA_VERSION = 1
TOOLKIT_VERSION = __version__
# the runner's own statuses: the check does not apply; it raised
SKIPPED = "skipped"
ERROR = "error"


@dataclass
class FixtureSpec:
    name: str
    kind: str  # eja | polyhedral | shared-corner | composite
    params: dict = field(default_factory=dict)
    seed: int = 0
    expects: dict = field(default_factory=dict)


def _rat(q) -> dict:
    q = Fraction(q)
    return {"num": q.numerator, "den": q.denominator}


def _unrat(obj) -> Fraction:
    if isinstance(obj, dict):
        return Fraction(obj["num"], obj["den"])
    return Fraction(obj)


def _json_value(obj):
    """json's value rule for every document conelab writes: arrays as nested
    lists, Fractions as {"num", "den"}, numpy scalars as numbers.  Anything
    else is refused: its repr could put an address into a stable document."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, Fraction):
        return _rat(obj)
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"cannot write a {type(obj).__name__} into a report")


def to_json(obj) -> str:
    """The text of a report, registry or steering document."""
    return json.dumps(obj, indent=2, sort_keys=True, default=_json_value)


def spec_to_json(spec: FixtureSpec) -> dict:
    return {"name": spec.name, "kind": spec.kind, "params": spec.params,
            "seed": spec.seed, "expects": spec.expects}


def spec_from_json(obj: dict) -> FixtureSpec:
    params = dict(obj.get("params", {}))
    if "generators" in params:
        params["generators"] = [[_unrat(v) for v in row]
                                for row in params["generators"]]
    seed = obj.get("seed", 0)
    # numpy takes no negative seed, and int() would read 1.7, "1" or true
    if int(seed) < 0 or isinstance(seed, (bool, str)) or (
            isinstance(seed, float) and not seed.is_integer()):
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    return FixtureSpec(obj["name"], obj["kind"], params, int(seed),
                       dict(obj.get("expects", {})))


def registry_to_json(specs: list[FixtureSpec]) -> str:
    return to_json({"schema_version": SCHEMA_VERSION,
                    "fixtures": [spec_to_json(s) for s in specs]})


def registry_from_json(text: str) -> list[FixtureSpec]:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConeError(f"registry parse error: {exc}") from exc
    if not isinstance(obj, dict) or \
            not isinstance(obj.get("fixtures", []), list):
        raise ConeError("registry must be a JSON object with a list of "
                        "fixtures")
    specs = []
    names = set()
    statuses = (HOLDS, FAILS, INCONCLUSIVE, UNSUPPORTED, SKIPPED, ERROR)
    for i, f in enumerate(obj.get("fixtures", [])):
        if not isinstance(f, dict):
            raise ConeError(f"registry fixture #{i}: not a JSON object")
        for key in ("name", "kind"):
            if key not in f:
                raise ConeError(f"registry fixture #{i}: missing '{key}'")
        if not isinstance(f["name"], str):
            raise ConeError(f"registry fixture #{i}: 'name' must be a string")
        if f["kind"] not in ("eja", "polyhedral", "shared-corner", "composite"):
            raise ConeError(f"registry fixture '{f['name']}': unknown kind "
                            f"'{f['kind']}'")
        if f["name"] in names:
            raise ConeError(f"duplicate fixture name '{f['name']}'")
        names.add(f["name"])
        try:
            spec = spec_from_json(f)
        except (ValueError, TypeError, KeyError) as exc:
            raise ConeError(f"registry fixture '{f['name']}': {exc}") from exc
        bad = [f"expects unknown check '{k}' (allowed: "
               f"{', '.join(ALL_CHECKS)})"
               for k in spec.expects if k not in ALL_CHECKS]
        bad += [f"expects unknown status '{v}' for '{k}' (allowed: "
                f"{', '.join(statuses)})"
                for k, v in spec.expects.items() if v not in statuses]
        if bad:
            raise ConeError(f"registry fixture '{spec.name}': "
                            + "; ".join(bad))
        specs.append(spec)
    factors = {s.name: (s.params.get("factorA"), s.params.get("factorB"))
               for s in specs if s.kind == "composite"}
    done: set[str] = set()
    for name in factors:
        _check_factors(factors, names, [name], done)
    return specs


def _check_factors(factors: dict[str, tuple], names: set, path: list[str],
                   done: set[str]) -> None:
    """Reject an unknown factor of the composite at the end of path, or a
    cycle of composite factors through it; done holds the composites
    already checked."""
    for ref in factors[path[-1]]:
        if not isinstance(ref, str) or ref not in names:
            raise ConeError(f"fixture '{path[-1]}': unknown factor '{ref}'")
        if ref in path:
            cycle = " -> ".join(path[path.index(ref):] + [ref])
            raise ConeError(f"fixture '{ref}': composite factors form a "
                            f"cycle {cycle}")
        if ref in factors and ref not in done:
            _check_factors(factors, names, path + [ref], done)
    done.add(path[-1])


# -- building systems --------------------------------------------------------


def build_system(spec: FixtureSpec, registry: dict[str, FixtureSpec]):
    """The system a fixture describes.  A missing or malformed parameter
    raises a ConeError that names the fixture; a composite's factors are
    built first, so their errors name the factor."""
    if spec.kind == "composite":
        fa, fb = (build_system(registry[spec.params[k]], registry)
                  for k in ("factorA", "factorB"))
    params = spec.params
    try:
        if spec.kind == "eja":
            if "classical" in params:
                alg = eja.classical(int(params["classical"]))
            else:
                alg = eja.JordanAlgebra([
                    eja.SimpleFactor("spin", 2, int(s["dim"]))
                    if s["family"] == "spin"
                    else eja.SimpleFactor(s["family"], int(s["rank"]))
                    for s in params["summands"]])
            return eja_system(alg, spec.name)
        if spec.kind == "polyhedral":
            gens = params["generators"]
            cone = PolyhedralCone(gens)
            if "unit" in params:
                unit = np.array([float(Fraction(v)) for v in params["unit"]])
            else:
                unit = np.array([[float(v) for v in r]
                                 for r in gens]).mean(axis=0)
                unit /= np.linalg.norm(unit) ** 2
            return System(cone, unit, spec.name)
        if spec.kind == "shared-corner":
            return shared_corner_system(spec.name)
        if spec.kind == "composite":
            return CompositeSystem(fa, fb, params["model"])
    except KeyError as exc:
        raise ConeError(f"fixture '{spec.name}': missing {exc}") from exc
    except (ValueError, TypeError) as exc:  # a ConeError is a ValueError
        raise ConeError(f"fixture '{spec.name}': {exc}") from exc
    raise ConeError(f"unknown fixture kind: {spec.kind}")


# -- builtin registry --------------------------------------------------------


def _pent_coords():
    out = []
    for k in range(5):
        ang = 2 * np.pi * k / 5
        out.append([Fraction(float(np.cos(ang))).limit_denominator(100),
                    Fraction(float(np.sin(ang))).limit_denominator(100),
                    Fraction(1)])
    return out


def builtin_fixtures() -> list[FixtureSpec]:
    specs: list[FixtureSpec] = []
    eja_exp = {"self-dual": HOLDS, "homogeneity": HOLDS,
               "pure-transitivity": HOLDS,
               "continuous-pure-transitivity": HOLDS,
               "reducibility": FAILS}
    # a direct sum: no continuous path between its summands
    sum_exp = {**eja_exp, "continuous-pure-transitivity": FAILS,
               "reducibility": HOLDS}
    poly_exp = {"self-dual": FAILS, "weak-self-duality": HOLDS,
                "homogeneity": UNSUPPORTED, "pure-transitivity": UNSUPPORTED,
                "continuous-pure-transitivity": UNSUPPORTED,
                "reducibility": FAILS}
    composite_exp = {"homogeneity": SKIPPED, "pure-transitivity": SKIPPED,
                     "continuous-pure-transitivity": SKIPPED,
                     "reducibility": SKIPPED, "purity-preservation": HOLDS,
                     "local-tomography": HOLDS}

    for n in (2, 3, 4):
        specs.append(FixtureSpec(
            f"classical-simplex-{n}", "eja", {"classical": n}, seed=n,
            expects=dict(sum_exp)))
    for r in (2, 3):
        specs.append(FixtureSpec(
            f"real-sym-{r}", "eja",
            {"summands": [{"family": "real", "rank": r}]}, seed=r,
            expects=dict(eja_exp)))
    for r in (2, 3, 4):
        name = "qubit" if r == 2 else f"complex-herm-{r}"
        specs.append(FixtureSpec(
            name, "eja", {"summands": [{"family": "complex", "rank": r}]},
            seed=r, expects=dict(eja_exp)))
    specs.append(FixtureSpec(
        "quat-herm-2", "eja",
        {"summands": [{"family": "quat", "rank": 2}]}, seed=2,
        expects=dict(eja_exp)))
    for n in (3, 4, 8):
        specs.append(FixtureSpec(
            f"spin-factor-{n}", "eja",
            {"summands": [{"family": "spin", "dim": n}]}, seed=n,
            expects=dict(eja_exp)))
    specs.append(FixtureSpec(
        "two-qubit-sum", "eja",
        {"summands": [{"family": "complex", "rank": 2},
                      {"family": "complex", "rank": 2}]}, seed=5,
        expects=dict(sum_exp)))
    specs.append(FixtureSpec(
        "qubit-plus-rebit", "eja",
        {"summands": [{"family": "complex", "rank": 2},
                      {"family": "real", "rank": 2}]}, seed=6,
        expects={**sum_exp, "pure-transitivity": FAILS}))
    specs.append(FixtureSpec(
        "square-cone", "polyhedral",
        {"generators": [[Fraction(1), Fraction(1), Fraction(0)],
                        [Fraction(0), Fraction(1), Fraction(1)],
                        [Fraction(-1), Fraction(1), Fraction(0)],
                        [Fraction(0), Fraction(1), Fraction(-1)]],
         "unit": ["0", "1", "0"]}, seed=7,
        expects={**poly_exp, "spd-self-duality": FAILS}))
    specs.append(FixtureSpec(
        "pentagon-cone", "polyhedral",
        {"generators": _pent_coords(), "unit": ["0", "0", "1"]}, seed=8,
        expects={**poly_exp, "spd-self-duality": HOLDS}))
    specs.append(FixtureSpec(
        "shared-corner", "shared-corner", {}, seed=9,
        expects={"self-dual": FAILS, "homogeneity": HOLDS,
                 "pure-transitivity": FAILS,
                 "continuous-pure-transitivity": UNSUPPORTED,
                 "reducibility": UNSUPPORTED}))
    specs.append(FixtureSpec(
        "two-qubit-hilbert", "composite",
        {"model": "hilbert", "factorA": "qubit", "factorB": "qubit"}, seed=10,
        expects={**composite_exp, "self-dual": HOLDS, "steering": HOLDS}))
    specs.append(FixtureSpec(
        "min-square-square", "composite",
        {"model": "min", "factorA": "square-cone",
         "factorB": "square-cone"}, seed=11,
        expects={**composite_exp, "self-dual": FAILS, "steering": SKIPPED}))
    specs.append(FixtureSpec(
        "classical-bit-bit", "composite",
        {"model": "classical", "factorA": "classical-simplex-2",
         "factorB": "classical-simplex-2"}, seed=12,
        expects={**composite_exp, "self-dual": HOLDS, "steering": HOLDS}))
    return specs


# -- check implementations ---------------------------------------------------


_Inputs = namedtuple("_Inputs", "system tol seed rng")


def _composite_self_dual(c: _Inputs) -> Verdict:
    comp, cone = c.system, c.system.cone
    if isinstance(cone, LinearImageCone):
        inner = System(cone.inner, cone.rot @ comp.unit, comp.label)
        v = axioms.check_self_dual(inner, tol=c.tol, seed=c.seed)
        v.detail = "after orthogonal change of coordinates"
        return v
    if isinstance(cone, PolyhedralCone):
        return axioms.check_self_dual(comp, tol=c.tol)
    return Verdict(SKIPPED, detail="no self-duality route for max-tensor "
                                   "composites")


def _search(cone, search) -> Verdict:
    if not isinstance(cone, PolyhedralCone):
        return Verdict(SKIPPED, detail="bijection searches are polyhedral")
    return search(cone)


def _homogeneity(c: _Inputs) -> Verdict:
    pairs = 10
    # rho_1, sigma_1, rho_2, ...: every point drawn first, as one stack
    points = c.system.cone.sample_interiors(c.rng, 2 * pairs)
    rho, sig = points[0::2], points[1::2]
    phi = axioms.homogeneity_witness(c.system, rho, sig, c.tol)
    # one matrix-vector product per pair, as in phi @ rho for one pair
    worst = float(np.max(np.abs((phi @ rho[:, :, None])[:, :, 0] - sig)))
    # a witness that misses sigma is a poor construction, not a disproof
    status = HOLDS if worst < 1e-8 else INCONCLUSIVE
    return Verdict(status, margin=worst, detail=f"{pairs} interior pairs")


def _pure_transitivity(c: _Inputs) -> Verdict:
    # every pair at once: the inputs are validated in one stacked call
    w1, w2 = (np.array(side) for side in zip(*c.system.cone.pure_pairs(c)))
    v = axioms.pure_transitivity_witness(c.system, w1, w2, c.tol)
    if v.status != HOLDS:
        return v
    return Verdict(HOLDS, margin=v.margin, detail=f"{len(w1)} pure pairs")


def _steering(c: _Inputs) -> Verdict:
    try:
        w = canonical_self_steering_state(c.system)
    except ConeError as exc:
        return Verdict(SKIPPED, detail=str(exc))
    return steering_order_iso_check(c.system, w, c.tol)


def _purity_preservation(c: _Inputs) -> Verdict:
    comp = c.system
    for _ in range(10):
        wa = comp.factorA.sample_pure(c.rng)
        wb = comp.factorB.sample_pure(c.rng)
        if not purity_preservation_check(comp, wa, wb, c.tol):
            pair = {"factor_states": [wa, wb],
                    "product": comp.product_state(wa, wb)}
            return Verdict(FAILS, violation=pair, detail=f"{comp.model} "
                           "composite: a pure product pair is not pure")
    return Verdict(HOLDS, detail="10 pure product pairs")


# check -> (route on a single system, route on a composite, record shape); a
# missing route skips the check.  The shape is what a decided record carries
# beside status and detail (README, "File formats").
CHECKS = {
    "self-dual": (lambda c: axioms.check_self_dual(c.system, tol=c.tol,
                                                   seed=c.seed),
                  _composite_self_dual, "payload+margin"),
    "weak-self-duality": (
        lambda c: _search(c.system.cone, axioms.search_weak_self_duality),
        None, "payload"),
    "spd-self-duality": (
        lambda c: _search(c.system.cone, axioms.search_spd_self_duality),
        None, "payload"),
    "homogeneity": (_homogeneity, None, "margin"),
    "pure-transitivity": (_pure_transitivity, None, "margin-if-holds"),
    "continuous-pure-transitivity": (
        lambda c: axioms.continuous_pure_transitivity(
            c.system, *c.system.cone.path_pair(c), tol=c.tol),
        None, "margin-if-holds"),
    "reducibility": (
        lambda c: Verdict(HOLDS if c.system.cone.reducible() else FAILS,
                          detail="direct-sum splitting of the cone"),
        None, ""),
    "steering": (None, _steering, "payload+margin"),
    "purity-preservation": (None, _purity_preservation, "evidence"),
    "local-tomography": (None, lambda c: local_tomography_check(c.system),
                         "evidence"),
}
ALL_CHECKS = tuple(CHECKS)


def run_check(name: str, spec: FixtureSpec, system, tol: float,
              seed: int) -> dict:
    """One check on one fixture; returns its report record."""
    single, composite, _ = CHECKS[name]
    route = composite if isinstance(system, CompositeSystem) else single
    seed += spec.seed
    try:
        if route is None:
            v = Verdict(SKIPPED, detail="composite-only check" if composite
                        else "check applies to single systems")
        else:
            v = route(_Inputs(system, tol, seed, np.random.default_rng(seed)))
    except UnsupportedQuery as exc:
        v = Verdict(UNSUPPORTED, detail=str(exc))
    except ConeError as exc:
        v = Verdict(ERROR, detail=f"precondition failure: {exc}")
    except Exception as exc:  # a broken route is its record, not a traceback
        v = Verdict(ERROR, detail=f"{type(exc).__name__}: {exc}")
    return _record(name, v, spec.expects.get(name))


def _record(name: str, v: Verdict, expected: str | None) -> dict:
    """A check's report record.  The payload keeps the verdict's own values,
    arrays and Fractions included; `to_json` writes them."""
    if v.status == ERROR:
        match = False
    elif expected is None or v.status in (SKIPPED, UNSUPPORTED):
        match = None
    else:
        match = v.status == expected
    out = {"check": name, "status": v.status, "detail": v.detail,
           "payload": None, "expected": expected, "match": match}
    if v.status in (SKIPPED, UNSUPPORTED, ERROR):
        return out
    shape = CHECKS[name][2]
    if shape == "margin-if-holds":
        shape = "margin" if v.status == HOLDS else "payload"
    if shape == "evidence":
        out["payload"] = v.witness if v.status == HOLDS else v.violation
    elif shape in ("payload", "payload+margin"):
        out["payload"] = {"witness": v.witness, "violation": v.violation}
    if shape in ("margin", "payload+margin"):
        out["margin"] = v.margin
    return out


# -- report assembly ---------------------------------------------------------


def run_checks(specs: list[FixtureSpec], checks=None, seed: int = 7,
               tol: float = 1e-9, timings: bool = False) -> dict:
    """Run the selected checks across the registry; the report is
    deterministic for a fixed seed unless timings are requested."""
    import time
    checks = list(checks) if checks else list(ALL_CHECKS)
    unknown = [c for c in checks if c not in ALL_CHECKS]
    if unknown:
        raise ConeError(f"unknown check names: {unknown}")
    registry = {s.name: s for s in specs}

    fixture_reports = []
    for spec in specs:
        t0 = time.monotonic()
        system = build_system(spec, registry)
        results = [run_check(c, spec, system, tol, seed) for c in checks]
        mismatches = [r["check"] for r in results if r["match"] is False]
        rec = {"fixture": spec.name, "kind": spec.kind,
               "checks": results, "mismatches": mismatches}
        if timings:
            rec["elapsed_s"] = time.monotonic() - t0
        fixture_reports.append(rec)
    total_mismatch = sum(len(r["mismatches"]) for r in fixture_reports)
    return {
        "schema_version": SCHEMA_VERSION,
        "toolkit_version": TOOLKIT_VERSION,
        "seed": seed,
        "tol": tol,
        "checks": checks,
        "fixtures": fixture_reports,
        "summary": {"fixtures": len(specs), "mismatches": total_mismatch,
                    "ok": total_mismatch == 0},
    }


def report_text(report: dict) -> str:
    lines = [f"toolkit {report['toolkit_version']} "
             f"(schema {report['schema_version']}), seed {report['seed']}"]
    for rec in report["fixtures"]:
        lines.append(f"{rec['fixture']} [{rec['kind']}]")
        for res in rec["checks"]:
            mark = {True: "ok", False: "MISMATCH", None: "-"}[res["match"]]
            exp = res["expected"] if res["expected"] is not None else "(none)"
            lines.append(f"  {res['check']:32s} {res['status']:13s} "
                         f"expected {exp:13s} {mark}")
    s = report["summary"]
    lines.append(f"{s['fixtures']} fixtures, {s['mismatches']} mismatches")
    return "\n".join(lines)
