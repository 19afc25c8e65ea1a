"""Fixture registry and the batch check runner behind the command line.

Registries are JSON documents listing named systems (simple and direct-sum
algebras, polyhedral cones from exact rational generators, the shared-corner
cone, and bipartite composites) together with the verdicts each check is
expected to produce.  Reports are deterministic for a fixed seed: no
wall-clock fields unless explicitly requested.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import __version__, axioms, eja
from .axioms import AxiomVerdict, FAILS, HOLDS, INCONCLUSIVE, UNSUPPORTED
from .composite import (CompositeSystem, LinearImageCone, canonical_self_steering_state,
                        local_tomography_report, purity_preservation_check,
                        steering_order_iso_check)
from .cones import (ConeError, EJACone, PolyhedralCone, SharedCornerCone,
                    System, UnsupportedQuery)

SCHEMA_VERSION = 1
TOOLKIT_VERSION = __version__
SKIPPED = "skipped"

ALL_CHECKS = ("self-dual", "weak-self-duality", "spd-self-duality",
              "homogeneity", "pure-transitivity",
              "continuous-pure-transitivity", "reducibility",
              "steering", "purity-preservation", "local-tomography")


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


def spec_to_json(spec: FixtureSpec) -> dict:
    params = dict(spec.params)
    if "generators" in params:
        params["generators"] = [[_rat(v) for v in row]
                                for row in params["generators"]]
    return {"name": spec.name, "kind": spec.kind, "params": params,
            "seed": spec.seed, "expects": dict(spec.expects)}


def spec_from_json(obj: dict) -> FixtureSpec:
    params = dict(obj.get("params", {}))
    if "generators" in params:
        params["generators"] = [[_unrat(v) for v in row]
                                for row in params["generators"]]
    return FixtureSpec(obj["name"], obj["kind"], params,
                       int(obj.get("seed", 0)), dict(obj.get("expects", {})))


def registry_to_json(specs: list[FixtureSpec]) -> str:
    return json.dumps({"schema_version": SCHEMA_VERSION,
                       "fixtures": [spec_to_json(s) for s in specs]},
                      indent=2, sort_keys=True)


def registry_from_json(text: str) -> list[FixtureSpec]:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConeError(f"registry parse error: {exc}") from exc
    specs = []
    names = set()
    for i, f in enumerate(obj.get("fixtures", [])):
        for key in ("name", "kind"):
            if key not in f:
                raise ConeError(f"registry fixture #{i}: missing '{key}'")
        if f["kind"] not in ("eja", "polyhedral", "shared-corner", "composite"):
            raise ConeError(f"registry fixture '{f['name']}': unknown kind "
                            f"'{f['kind']}'")
        if f["name"] in names:
            raise ConeError(f"duplicate fixture name '{f['name']}'")
        names.add(f["name"])
        specs.append(spec_from_json(f))
    for s in specs:
        if s.kind == "composite":
            for ref in (s.params.get("factorA"), s.params.get("factorB")):
                if ref not in names:
                    raise ConeError(f"fixture '{s.name}': unknown factor "
                                    f"'{ref}'")
    return specs


# -- building systems --------------------------------------------------------


def _field(spec: FixtureSpec, obj: dict, key: str):
    """obj[key], or a ConeError naming the fixture and the missing key."""
    if key not in obj:
        raise ConeError(f"fixture '{spec.name}': missing '{key}'")
    return obj[key]


def build_system(spec: FixtureSpec, registry: dict[str, FixtureSpec]):
    if spec.kind == "eja":
        try:
            if "classical" in spec.params:
                alg = eja.classical(int(spec.params["classical"]))
            else:
                factors = []
                for s in _field(spec, spec.params, "summands"):
                    fam = _field(spec, s, "family")
                    if fam == "spin":
                        factors.append(eja.SimpleFactor(
                            "spin", 2, int(_field(spec, s, "dim"))))
                    else:
                        factors.append(eja.SimpleFactor(
                            fam, int(_field(spec, s, "rank"))))
                alg = eja.JordanAlgebra(factors)
        except ConeError:
            raise
        except ValueError as exc:
            raise ConeError(f"fixture '{spec.name}': {exc}") from exc
        return System(EJACone(alg), alg.trace_functional(), spec.name)
    if spec.kind == "polyhedral":
        cone = PolyhedralCone(_field(spec, spec.params, "generators"))
        unit = np.array([float(Fraction(v)) for v in
                         spec.params["unit"]]) if "unit" in spec.params else None
        if unit is None:
            rays = np.array([[float(v) for v in r]
                             for r in spec.params["generators"]])
            unit = rays.mean(axis=0)
            unit /= np.linalg.norm(unit) ** 2 * 1.0
        return System(cone, unit, spec.name)
    if spec.kind == "shared-corner":
        return System(SharedCornerCone(), np.array([1., 1., 1., 0., 0.]),
                      spec.name)
    if spec.kind == "composite":
        fa = build_system(registry[spec.params["factorA"]], registry)
        fb = build_system(registry[spec.params["factorB"]], registry)
        return CompositeSystem(fa, fb, _field(spec, spec.params, "model"))
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

    for n in (2, 3, 4):
        specs.append(FixtureSpec(
            f"classical-simplex-{n}", "eja", {"classical": n}, seed=n,
            expects={"self-dual": HOLDS, "homogeneity": HOLDS,
                     "pure-transitivity": HOLDS,
                     "continuous-pure-transitivity": FAILS,
                     "reducibility": HOLDS}))
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
        expects={"self-dual": HOLDS, "homogeneity": HOLDS,
                 "pure-transitivity": HOLDS,
                 "continuous-pure-transitivity": FAILS,
                 "reducibility": HOLDS}))
    specs.append(FixtureSpec(
        "qubit-plus-rebit", "eja",
        {"summands": [{"family": "complex", "rank": 2},
                      {"family": "real", "rank": 2}]}, seed=6,
        expects={"self-dual": HOLDS, "homogeneity": HOLDS,
                 "pure-transitivity": FAILS,
                 "continuous-pure-transitivity": FAILS,
                 "reducibility": HOLDS}))
    specs.append(FixtureSpec(
        "square-cone", "polyhedral",
        {"generators": [[Fraction(1), Fraction(1), Fraction(0)],
                        [Fraction(0), Fraction(1), Fraction(1)],
                        [Fraction(-1), Fraction(1), Fraction(0)],
                        [Fraction(0), Fraction(1), Fraction(-1)]],
         "unit": ["0", "1", "0"]}, seed=7,
        expects={"self-dual": FAILS, "weak-self-duality": HOLDS,
                 "spd-self-duality": FAILS,
                 "homogeneity": UNSUPPORTED,
                 "pure-transitivity": UNSUPPORTED,
                 "continuous-pure-transitivity": UNSUPPORTED,
                 "reducibility": FAILS}))
    specs.append(FixtureSpec(
        "pentagon-cone", "polyhedral",
        {"generators": _pent_coords(), "unit": ["0", "0", "1"]}, seed=8,
        expects={"self-dual": FAILS,
                 "weak-self-duality": HOLDS,
                 "spd-self-duality": HOLDS,
                 "homogeneity": UNSUPPORTED,
                 "pure-transitivity": UNSUPPORTED,
                 "continuous-pure-transitivity": UNSUPPORTED,
                 "reducibility": FAILS}))
    specs.append(FixtureSpec(
        "shared-corner", "shared-corner", {}, seed=9,
        expects={"self-dual": FAILS, "homogeneity": HOLDS,
                 "pure-transitivity": FAILS,
                 "continuous-pure-transitivity": UNSUPPORTED,
                 "reducibility": UNSUPPORTED}))
    specs.append(FixtureSpec(
        "two-qubit-hilbert", "composite",
        {"model": "hilbert", "factorA": "qubit", "factorB": "qubit"}, seed=10,
        expects={"self-dual": HOLDS, "homogeneity": SKIPPED,
                 "pure-transitivity": SKIPPED,
                 "continuous-pure-transitivity": SKIPPED,
                 "reducibility": SKIPPED,
                 "steering": HOLDS, "purity-preservation": HOLDS,
                 "local-tomography": HOLDS}))
    specs.append(FixtureSpec(
        "min-square-square", "composite",
        {"model": "min", "factorA": "square-cone",
         "factorB": "square-cone"}, seed=11,
        expects={"self-dual": FAILS, "homogeneity": SKIPPED,
                 "pure-transitivity": SKIPPED,
                 "continuous-pure-transitivity": SKIPPED,
                 "reducibility": SKIPPED,
                 "steering": SKIPPED, "purity-preservation": HOLDS,
                 "local-tomography": HOLDS}))
    specs.append(FixtureSpec(
        "classical-bit-bit", "composite",
        {"model": "classical", "factorA": "classical-simplex-2",
         "factorB": "classical-simplex-2"}, seed=12,
        expects={"self-dual": HOLDS, "homogeneity": SKIPPED,
                 "pure-transitivity": SKIPPED,
                 "continuous-pure-transitivity": SKIPPED,
                 "reducibility": SKIPPED,
                 "steering": HOLDS, "purity-preservation": HOLDS,
                 "local-tomography": HOLDS}))
    return specs


# -- check implementations ---------------------------------------------------


def _sample_interior(system: System, rng) -> np.ndarray:
    cone = system.cone
    if isinstance(cone, EJACone):
        return cone.algebra.random_interior(rng)
    if isinstance(cone, SharedCornerCone):
        shared = 0.2 + rng.random()
        l1 = np.array([[shared, 0.0],
                       [rng.standard_normal(), 0.2 + rng.random()]])
        l2 = np.array([[shared, 0.0],
                       [rng.standard_normal(), 0.2 + rng.random()]])
        return cone._congruence(l1, l2) @ cone.basepoint()
    raise UnsupportedQuery("no interior sampler for this cone")


def run_check(name: str, spec: FixtureSpec, system, tol: float,
              seed: int) -> dict:
    """One check on one fixture; returns its result record.

    The payload keeps the verdict's own values (`Fraction`s, tuples,
    arrays); `run_checks` makes the whole report JSON-ready in one pass."""
    rng = np.random.default_rng(seed + spec.seed)
    out = {"check": name, "status": SKIPPED, "detail": "", "payload": None}

    def finish(status, detail="", payload=None, margin=None):
        out.update(status=status, detail=detail, payload=payload)
        if margin is not None:
            out["margin"] = margin
        return out

    try:
        if isinstance(system, CompositeSystem):
            return _composite_check(name, system, tol, rng, finish)
        cone = system.cone
        if name == "self-dual":
            v = axioms.check_self_dual(system, tol=tol,
                                       seed=seed + spec.seed)
            return finish(v.status, v.detail, _payload(v), v.margin)
        if name in ("weak-self-duality", "spd-self-duality"):
            if not isinstance(cone, PolyhedralCone):
                return finish(SKIPPED, "bijection searches are polyhedral")
            search = (axioms.search_weak_self_duality
                      if name == "weak-self-duality"
                      else axioms.search_spd_self_duality)
            v = search(cone)
            return finish(v.status, v.detail, _payload(v))
        if name == "homogeneity":
            pairs, worst = 10, 0.0
            for _ in range(pairs):
                rho = _sample_interior(system, rng)
                sig = _sample_interior(system, rng)
                pmap = axioms.homogeneity_witness(system, rho, sig, tol)
                worst = max(worst, float(np.max(np.abs(pmap(rho) - sig))))
            # a witness that misses sigma is a poor construction, not a
            # disproof of homogeneity
            status = HOLDS if worst < 1e-8 else INCONCLUSIVE
            return finish(status, f"{pairs} interior pairs", None, worst)
        if name == "pure-transitivity":
            return _pure_transitivity_check(system, tol, rng, finish)
        if name == "continuous-pure-transitivity":
            return _continuous_pt_check(system, tol, rng, finish)
        if name == "reducibility":
            if isinstance(cone, EJACone):
                reducible = len(cone.algebra.summands) > 1
            elif isinstance(cone, PolyhedralCone):
                reducible = cone.reducible()
            else:
                return finish(UNSUPPORTED, "no splitting test for this cone")
            return finish(HOLDS if reducible else FAILS,
                          "direct-sum splitting of the cone")
        if name in ("steering", "purity-preservation", "local-tomography"):
            return finish(SKIPPED, "composite-only check")
        return finish(SKIPPED, f"unknown check '{name}'")
    except UnsupportedQuery as exc:
        return finish(UNSUPPORTED, str(exc))
    except ConeError as exc:
        return finish(FAILS, f"precondition failure: {exc}")


def _payload(v: AxiomVerdict):
    # `run_checks` makes the whole report JSON-ready in one pass
    return {"witness": v.witness, "violation": v.violation}


def _pure_transitivity_check(system: System, tol, rng, finish):
    cone = system.cone
    if isinstance(cone, SharedCornerCone):
        w1 = np.array([0., 1., 0., 0., 0.])
        w2 = np.array([1., 0., 0., 0., 0.])
        v = axioms.pure_transitivity_witness(system, w1, w2, tol)
        return finish(v.status, v.detail, _payload(v))
    if not isinstance(cone, EJACone):
        raise UnsupportedQuery("pure transitivity checker needs an EJA or "
                               "shared-corner system")
    alg = cone.algebra
    pairs = [(system.sample_pure(rng), system.sample_pure(rng))
             for _ in range(5)]
    if len(alg.summands) > 1:
        pairs.append((system.normalize(alg.random_pure(rng, summand=0)),
                      system.normalize(alg.random_pure(rng, summand=1))))
    worst = 0.0
    for w1, w2 in pairs:
        v = axioms.pure_transitivity_witness(system, w1, w2, tol)
        if v.status != HOLDS:
            return finish(v.status, v.detail, _payload(v))
        worst = max(worst, v.margin)
    return finish(HOLDS, f"{len(pairs)} pure pairs", None, worst)


def _continuous_pt_check(system: System, tol, rng, finish):
    cone = system.cone
    if not isinstance(cone, EJACone):
        raise UnsupportedQuery("continuous pure transitivity checker needs "
                               "an EJA system")
    alg = cone.algebra
    if len(alg.summands) > 1:
        w1 = system.normalize(alg.random_pure(rng, summand=0))
        w2 = system.normalize(alg.random_pure(rng, summand=1))
    else:
        w1, w2 = system.sample_pure(rng), system.sample_pure(rng)
    v = axioms.continuous_pure_transitivity(system, w1, w2, steps=16, tol=tol)
    payload = None if v.status == HOLDS else _payload(v)
    return finish(v.status, v.detail, payload,
                  v.margin if v.status == HOLDS else None)


def _composite_check(name, comp: CompositeSystem, tol, rng, finish):
    if name == "self-dual":
        cone = comp.cone
        if isinstance(cone, LinearImageCone):
            inner_sys = System(cone.inner, cone.rot @ comp.unit, comp.label)
            v = axioms.check_self_dual(inner_sys, tol=tol)
            return finish(v.status, "after orthogonal change of coordinates",
                          _payload(v), v.margin)
        if isinstance(cone, PolyhedralCone):
            v = axioms.check_self_dual(comp, tol=tol)
            return finish(v.status, v.detail, _payload(v), v.margin)
        return finish(SKIPPED, "sampled max-tensor membership cannot settle "
                               "self-duality")
    if name == "steering":
        try:
            w = canonical_self_steering_state(comp)
        except ConeError as exc:
            return finish(SKIPPED, str(exc))
        v = steering_order_iso_check(comp, w, tol)
        return finish(v.status, v.detail, _payload(v), v.margin)
    if name == "purity-preservation":
        ok = True
        for _ in range(10):
            wa = comp.factorA.sample_pure(rng)
            wb = comp.factorB.sample_pure(rng)
            if not purity_preservation_check(comp, wa, wb, tol):
                ok = False
                break
        return finish(HOLDS if ok else FAILS, "10 pure product pairs")
    if name == "local-tomography":
        rep = local_tomography_report(comp)
        return finish(HOLDS if rep["locally_tomographic"] else FAILS,
                      rep["criterion"], rep)
    return finish(SKIPPED, "check applies to single systems")


# -- report assembly ---------------------------------------------------------


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, Fraction):
        return _rat(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (int, float, str, bool)) or obj is None:
        return obj
    if hasattr(obj, "matrix"):
        return {"matrix": _jsonable(np.asarray(obj.matrix))}
    return repr(obj)


NEUTRAL = (SKIPPED, UNSUPPORTED)


def run_checks(specs: list[FixtureSpec], checks=None, seed: int = 7,
               tol: float = 1e-9, jobs: int = 1,
               timings: bool = False) -> dict:
    """Run the selected checks across the registry; the report is
    deterministic for a fixed seed unless timings are requested."""
    import time
    checks = list(checks) if checks else list(ALL_CHECKS)
    unknown = [c for c in checks if c not in ALL_CHECKS]
    if unknown:
        raise ConeError(f"unknown check names: {unknown}")
    registry = {s.name: s for s in specs}

    def one(spec: FixtureSpec) -> dict:
        t0 = time.monotonic()
        system = build_system(spec, registry)
        results = []
        mismatches = []
        for c in checks:
            res = run_check(c, spec, system, tol, seed)
            expected = spec.expects.get(c)
            res["expected"] = expected
            if expected is None or res["status"] in NEUTRAL:
                res["match"] = None
            else:
                res["match"] = (res["status"] == expected)
                if not res["match"]:
                    mismatches.append(c)
            results.append(res)
        rec = {"fixture": spec.name, "kind": spec.kind,
               "checks": results, "mismatches": mismatches}
        if timings:
            rec["elapsed_s"] = time.monotonic() - t0
        return rec

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            fixture_reports = list(pool.map(one, specs))
    else:
        fixture_reports = [one(s) for s in specs]
    total_mismatch = sum(len(r["mismatches"]) for r in fixture_reports)
    return {
        "schema_version": SCHEMA_VERSION,
        "toolkit_version": TOOLKIT_VERSION,
        "seed": seed,
        "tol": tol,
        "checks": checks,
        "fixtures": _jsonable(fixture_reports),
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
