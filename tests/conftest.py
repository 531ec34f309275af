import math

import numpy as np
import pytest
from scipy.integrate import quad

from doleans import (
    Driver,
    ExpCompensatorDrift,
    JumpPath,
    PathBatch,
    ProcessModel,
    ScaledDrift,
    example1_model,
    example2_model,
    example3_model,
    make_first_jump_time,
)
from doleans.transcendental import expm1


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


#: Cap on the witness's jump time.  Its jump is ``expm1(-tau)``, and
#: ``1 + expm1(-tau)`` rounds to 0 for tau above about 37, where the jump
#: would reach -1; the cap moves ``E[E_T]`` by about 1e-16.
WITNESS_JUMP_TIME_CAP = 36.0


class WitnessDrift:
    """``t + expm1(-t)``, minus the integral of the jump size
    ``e^{-s} - 1`` up to ``t``; the path's horizon stops it at tau."""

    __slots__ = ()
    kind = "derived"

    def __call__(self, t: float) -> float:
        return t + expm1(-t)

    def array(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return t + np.expm1(-t)

    def derivative(self, t: float) -> float:
        return -expm1(-t)


def witness_model() -> ProcessModel:
    """One jump of size ``e^{-tau} - 1`` at ``tau ~ Exp(1)``, compensated
    and stopped at ``tau``: ``E_tau(M) = exp(e^{-tau} - 1)``, so
    ``E[E_T(M)] = 1 - e^{-1}`` and ``E(M)`` is not uniformly integrable."""
    drift = WitnessDrift()

    def build(e: float) -> JumpPath:
        tau = min(max(e, 1e-300), WITNESS_JUMP_TIME_CAP)
        return JumpPath(horizon=tau, jumps=((tau, expm1(-tau)),), drift=drift)

    def build_batch(e: np.ndarray) -> PathBatch:
        tau = np.minimum(np.maximum(e, 1e-300), WITNESS_JUMP_TIME_CAP)
        return PathBatch(horizon=tau, jump_t=tau[:, None],
                         jump_dm=np.expm1(-tau)[:, None], drift=drift)

    driver = Driver(name="tau", dist=make_first_jump_time(), anchor=1.0,
                    levels=(4.0, 8.0, 16.0, 32.0), growth="linear",
                    truncate=lambda T: (None, T), start=0.0)
    return ProcessModel(name="witness", drivers=(driver,), build=build,
                        build_batch=build_batch)


@pytest.fixture(scope="session")
def witness():
    return witness_model()


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
