"""A witness on which ``E(M)`` is not uniformly integrable.

One jump of size ``e^{-tau} - 1`` at ``tau ~ Exp(1)``, compensated and
stopped at ``tau`` (``conftest.witness_model``): every stopped
exponential is a true martingale, yet ``E[E_T(M)] = 1 - e^{-1}``.  The
paper's sufficient conditions must never read ``finite`` here.
"""

import math

import pytest

from doleans import (
    CONDITION_KINDS,
    ConditionSpec,
    PredictableControl,
    QuadratureAccuracyError,
    SeedSpec,
    UnsupportedModelError,
    estimate_batch,
    evaluate_condition,
    log_stoch_exponential,
    log_stoch_exponential_batch,
    sde_residual,
    stoch_exponential,
    stoch_exponential_batch,
)
from doleans import mc
from doleans.stochexp import Integrand

EXPECTED_MEAN = -math.expm1(-1.0)


def _theorem1(a: float) -> ConditionSpec:
    return ConditionSpec("theorem1", PredictableControl.constant(a))


#: ``spec -> outcome today``: a verdict, or the error the call raises.
#: ``jacod`` and ``theorem1`` carry ``-dM/(1 + dM) = e^tau - 1``, so their
#: integrand is doubly exponential and overflows inside the family; the
#: log-scale kinds need closed forms the witness does not carry.
OUTCOMES = {
    "lemma1": (ConditionSpec("lemma1"), "diverging"),
    "jacod": (ConditionSpec("jacod"), QuadratureAccuracyError),
    "theorem1(a=0)": (_theorem1(0.0), QuadratureAccuracyError),
    "theorem1(a=0.5)": (_theorem1(0.5), QuadratureAccuracyError),
    "theorem1(a=1)": (_theorem1(1.0), QuadratureAccuracyError),
    "protter_shimbo": (ConditionSpec("protter_shimbo"), UnsupportedModelError),
    "lepingle_memin": (ConditionSpec("lepingle_memin"), UnsupportedModelError),
}


def test_outcomes_cover_every_kind():
    assert {spec.kind for spec, _ in OUTCOMES.values()} == set(CONDITION_KINDS)


@pytest.mark.parametrize("name", sorted(OUTCOMES))
def test_no_kind_reads_finite(name, witness):
    spec, outcome = OUTCOMES[name]
    if isinstance(outcome, str):
        assert evaluate_condition(witness, spec).verdict == outcome
    else:
        with pytest.raises(outcome):
            evaluate_condition(witness, spec)


def test_factor_route_expectation_shows_the_deficit(witness, monkeypatch):
    # E[E_T(M)] through the factor route, as a kind whose exponent is log E
    monkeypatch.setattr(mc, "pathwise_functional", lambda spec, model: Integrand(
        log_stoch_exponential, None, log_stoch_exponential_batch))
    report = evaluate_condition(witness, ConditionSpec("jacod"))
    assert report.verdict == "finite"
    assert abs(report.quadrature - EXPECTED_MEAN) <= 1e-10


def test_plain_monte_carlo_shows_the_deficit(witness):
    est = estimate_batch(witness, stoch_exponential_batch, 200_000, SeedSpec(7, 4))
    assert abs(est.mean - EXPECTED_MEAN) <= 4.0 * est.se
    assert abs(est.mean - 1.0) > 4.0 * est.se


def test_sde_residual(witness):
    for i in range(2000):
        p = witness.sampler(3, i)
        e = stoch_exponential(p, p.horizon)
        assert abs(sde_residual(p, p.horizon)) <= 1e-9 * max(1.0, e)
