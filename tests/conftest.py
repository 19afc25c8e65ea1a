import numpy as np
import pytest

from conelab import eja
from conelab.cones import EJACone, System


def make_eja_system(alg: eja.JordanAlgebra, label: str = "") -> System:
    return System(EJACone(alg), alg.trace_functional(),
                  label or str(alg.descriptor()))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def qubit():
    return make_eja_system(eja.complex_herm(2), "qubit")


SIMPLE_FACTORIES = {
    "real-3": lambda: eja.real_sym(3),
    "complex-2": lambda: eja.complex_herm(2),
    "complex-3": lambda: eja.complex_herm(3),
    "quat-2": lambda: eja.quat_herm(2),
    "spin-4": lambda: eja.spin_factor(4),
    "spin-8": lambda: eja.spin_factor(8),
}
