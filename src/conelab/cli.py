"""Command-line surface: fixture checks, registry dumps, classification
procedures, and a steering demonstration.

Each command loads only the layers it runs.  At module level this file
imports `click` and `classify`, which is standard-library only, so
`conelab classify` and `--help` load neither numpy nor the check layers.
The `check`, `fixtures` and `steer` commands import numpy, `fixtures`,
`composite` and `cones` inside their own bodies, and read each function
from its module at call time.
"""

from __future__ import annotations

import os
import sys

import click

from . import classify


def _seed(ctx, param, value: int | None) -> int:
    """The --seed value, else CONELAB_SEED, else 7.  numpy's generators
    take only nonnegative integer seeds, so a negative or non-integer seed
    from either source is a usage error (exit 2) before any check runs."""
    hint = None
    if value is None:
        text = os.environ.get("CONELAB_SEED")
        if not text:
            return 7
        hint = "CONELAB_SEED"
        try:
            value = int(text)
        except ValueError:
            raise click.BadParameter(f"{text!r} is not a valid integer.", ctx,
                                     param, hint) from None
    if value < 0:
        raise click.BadParameter(f"{value} is negative.", ctx, param, hint)
    return value


def _load_registry(path: str | None) -> list[fixtures.FixtureSpec]:
    from . import fixtures
    if path is None:
        return fixtures.builtin_fixtures()
    with open(path, "r", encoding="utf-8") as fh:
        return fixtures.registry_from_json(fh.read())


def _emit(payload: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        # click's cached default-stdout wrapper would keep the stream alive
        click.echo(payload, file=sys.stdout)


@click.group()
def main():
    """Verification toolkit for cone-based state spaces."""


@main.command()
@click.option("--registry", type=click.Path(exists=True), default=None,
              help="Registry JSON file (defaults to the builtin fixtures).")
@click.option("--checks", default=None,
              help="Comma-separated check names (default: all).")
@click.option("--seed", type=int, default=None, callback=_seed,
              help="Deterministic nonnegative seed (CONELAB_SEED overrides "
                   "the default).")
@click.option("--tol", type=float, default=1e-9, show_default=True)
@click.option("--out", type=click.Path(), default=None,
              help="Write the report here instead of stdout.")
@click.option("--format", "fmt", type=click.Choice(["json", "text"]),
              default="json", show_default=True)
# accepted and ignored: fixtures are checked one after the other
@click.option("--jobs", type=click.IntRange(min=1), default=1, hidden=True,
              expose_value=False)
@click.option("--timings", is_flag=True,
              help="Include wall-clock fields (breaks byte-stability).")
def check(registry, checks, seed, tol, out, fmt, timings):
    """Run checks across a fixture registry; exit 0 iff every declared
    expectation matches."""
    from . import fixtures
    from .cones import ConeError
    try:
        specs = _load_registry(registry)
        selected = [c.strip() for c in checks.split(",")] if checks else None
        report = fixtures.run_checks(specs, selected, seed=seed, tol=tol,
                                     timings=timings)
    except ConeError as exc:
        raise click.ClickException(str(exc))
    if fmt == "json":
        _emit(fixtures.to_json(report), out)
    else:
        _emit(fixtures.report_text(report), out)
    sys.exit(0 if report["summary"]["ok"] else 1)


@main.command("fixtures")
@click.option("--out", type=click.Path(), default=None)
def fixtures_cmd(out):
    """Dump the builtin fixture registry as JSON."""
    from . import fixtures
    _emit(fixtures.registry_to_json(fixtures.builtin_fixtures()), out)


@main.command("classify")
@click.option("--procedure",
              type=click.Choice([classify.LOCAL_TOMOGRAPHY,
                                 classify.INJECTIVE_COMPOSITE,
                                 classify.CLASSICALITY]),
              default=classify.LOCAL_TOMOGRAPHY, show_default=True)
@click.option("--max-rank", type=int, default=8, show_default=True)
@click.option("--num-summands", type=int, default=1, show_default=True)
@click.option("--out", type=click.Path(), default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "text"]),
              default="text", show_default=True)
def classify_cmd(procedure, max_rank, num_summands, out, fmt):
    """Run a reconstruction decision procedure with full derivation traces."""
    try:
        if procedure == classify.LOCAL_TOMOGRAPHY:
            trace = classify.survivors_local_tomography(max_rank)
        elif procedure == classify.INJECTIVE_COMPOSITE:
            trace = classify.survivors_injective_composite(max_rank)
        else:
            trace = classify.survivors_classicality(max_rank, num_summands)
    except ValueError as exc:
        raise click.ClickException(str(exc))
    payload = (classify.trace_json(trace) if fmt == "json"
               else classify.trace_text(trace))
    _emit(payload, out)


@main.command("steer")
@click.option("--fixture", default="two-qubit-hilbert", show_default=True,
              help="A composite fixture from the registry.")
@click.option("--registry", type=click.Path(exists=True), default=None)
@click.option("--parts", type=click.IntRange(min=1), default=3,
              show_default=True)
@click.option("--seed", type=int, default=None, callback=_seed)
@click.option("--out", type=click.Path(), default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "text"]),
              default="text", show_default=True)
def steer_cmd(fixture, registry, parts, seed, out, fmt):
    """Steer a random ensemble of the canonical self-steering state's
    marginal and report the recovered measurement."""
    import numpy as np

    from . import composite, fixtures
    from .cones import ConeError
    try:
        specs = _load_registry(registry)
        lookup = {s.name: s for s in specs}
        if fixture not in lookup:
            raise ConeError(f"unknown fixture '{fixture}'")
        spec = lookup[fixture]
        if spec.kind != "composite":
            raise ConeError(f"fixture '{fixture}' is not a composite")
        comp = fixtures.build_system(spec, lookup)
        wab = composite.canonical_self_steering_state(comp)
        rng = np.random.default_rng(seed)
        wb = composite.marginal_of(comp, wab, "B")
        ensemble = composite.random_ensemble(comp.factorB, wb, parts, rng)
        result = composite.steer(comp, wab, ensemble)
    except ConeError as exc:
        raise click.ClickException(str(exc))
    cmap = composite.conditioning_map(comp, wab)
    if isinstance(result, str):
        payload = {"fixture": fixture, "result": result}
        residual = None
    else:
        residual = max(float(np.max(np.abs(cmap @ e - t)))
                       for e, t in zip(result, ensemble))
        payload = {
            "fixture": fixture, "result": "measurement", "parts": parts,
            "seed": seed, "residual": residual,
            "ensemble": ensemble, "measurement": result,
        }
    if fmt == "json":
        _emit(fixtures.to_json(payload), out)
    else:
        lines = [f"fixture: {fixture}", f"result: {payload['result']}"]
        if residual is not None:
            lines.append(f"reconstruction residual: {residual:.3e}")
            for i, e in enumerate(payload["measurement"]):
                lines.append(f"effect {i}: "
                             + " ".join(f"{v:+.6f}" for v in e))
        _emit("\n".join(lines), out)


if __name__ == "__main__":
    main()
