import math

import numpy as np
import pytest
from scipy.integrate import quad

from doleans import (
    ExpCompensatorDrift,
    JumpPath,
    ScaledDrift,
    example1_model,
    example2_model,
    example3_model,
)


@pytest.fixture(scope="session")
def model1():
    return example1_model()


@pytest.fixture(scope="session")
def model2():
    return example2_model()


@pytest.fixture(scope="session")
def model3():
    return example3_model()


@pytest.fixture(scope="session")
def all_models(model1, model2, model3):
    return (model1, model2, model3)


def random_two_jump_path(rng: np.random.Generator) -> JumpPath:
    """A synthetic path with two jumps and a smooth drift.

    Jump sizes are log-uniform in (1e-2, 1e2) shifted by -1 on one side,
    uniform on (-0.9, 5) on the other, so the path exercises both small
    and large jumps without leaving well-scaled float range.
    """
    t1, t2 = np.sort(rng.uniform(0.1, 2.0, 2))
    if t2 - t1 < 1e-6:
        t2 = t1 + 1e-3
    dm1 = float(rng.uniform(-0.9, 5.0))
    dm2 = float(math.exp(rng.uniform(math.log(1e-2), math.log(1e2))) - 0.99)
    drift = ScaledDrift(ExpCompensatorDrift(0.0), float(rng.uniform(-1.0, 1.0)))
    return JumpPath(
        horizon=float(t2),
        jumps=((float(t1), dm1), (float(t2), dm2)),
        drift=drift,
    )


def example1_full_control_integrand(x: float) -> float:
    """``(1+x)^2 e^{-x/(1+x)}``: the example1 ``theorem1(a=1)`` integrand
    against the law of ``xi``."""
    return (1.0 + x) ** 2 * math.exp(-x / (1.0 + x))


def example2_closed_form() -> float:
    """``e * int_1^inf (1+u) e^{-u} u^{-2} du``, example2's ``E E_tau(M)``,
    which equals 1."""
    return math.e * quad(
        lambda u: (1.0 + u) * math.exp(-u) / (u * u), 1.0, np.inf,
        epsabs=1e-13,
    )[0]
