"""The traced benchmark run wraps package functions by name: each of its
targets must still resolve, and its per-check spans must name the checks
the runner has.  `perfbench/tracer.py` is loaded by path, as a file.  One
traced pass of each workload, at seed 7, must give the untraced outcomes
and count every counter `perfbench/predictions.json` predicts for it, as
`perfbench/run.py --trace 1` requires; no span file is written."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from conelab import fixtures

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER_PATH = PERFBENCH / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves_to_a_callable(tracer):
    missing = []
    for name, owner, attr in tracer.TARGETS:
        mod_name, _, cls_name = owner.partition(":")
        holder = importlib.import_module(mod_name)
        if cls_name:
            holder = getattr(holder, cls_name, None)
        if not callable(getattr(holder, attr, None)):
            missing.append(f"{name}: {owner}.{attr}")
    assert not missing


def test_traced_checks_are_the_runner_checks(tracer):
    assert set(tracer.CHECKS) == set(fixtures.ALL_CHECKS)


@pytest.fixture(scope="module")
def bench():
    # run.py and workloads.py import their siblings as top-level modules
    sys.path.insert(0, str(PERFBENCH))
    try:
        import run
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return run, workloads


@pytest.mark.parametrize("name", ["registry-check", "bijection-search",
                                  "composite-faces", "classify-trace"])
def test_traced_pass_keeps_outcomes_and_counts_predictions(bench, name):
    run, workloads = bench
    workload = workloads.WORKLOADS[name]
    inputs = workload.make_inputs(7)
    _, _, reference = run.timed_pass(workload, inputs)
    spans = run.tracer.Tracer()
    with spans:
        _, _, traced = run.timed_pass(workload, inputs)
    run.mark_differences(reference, traced,
                         "traced outcome differs from the untraced one")
    assert [f"{v.key}: {v.problem}" for v in reference + traced
            if not v.ok] == []
    assert run.self_check(name, spans.aggregate()) == []
