"""The traced benchmark run wraps package functions by name: each of its
targets must still resolve, and its per-check spans must name the checks
the runner has.  `perfbench/tracer.py` is loaded by path, as a file."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from conelab import fixtures

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
