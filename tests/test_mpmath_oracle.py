"""Quadrature values against an independent 30-digit mpmath oracle.

Each reference integrand below is written out by hand from a driver
density and a path functional, in mpmath, and shares no code with
``doleans``: it backs the ~1e-10 quadrature contract with something other
than scipy ``quad``.  The last test holds the closed-form oracles that
``reproduce`` and the other tests share to the same references.
"""

import math

import mpmath
import pytest

from doleans import (
    ConditionSpec,
    PredictableControl,
    control_indicator_after,
    evaluate_condition,
    make_eta_distribution,
    make_first_jump_time,
    quadrature_expectation,
)
from doleans.cli import example2_exponential, example3_eta_factor, example3_tau_factor

REL = 1e-10

exp, log1p, quad = mpmath.exp, mpmath.log1p, mpmath.quad


def xi_mean(g):
    """E g(xi): density e^{x/(1+x)} / (2 (1+x)^2) on (-1, 0],
    e^{-x/(1-x)} / (2 (1-x)^2) on [0, 1)."""
    return (quad(lambda x: g(x) * exp(x / (1 + x)) / (2 * (1 + x) ** 2), [-1, 0])
            + quad(lambda x: g(x) * exp(-x / (1 - x)) / (2 * (1 - x) ** 2), [0, 1]))


def eta_mean(g):
    """E g(eta): density 1 - 3x on [-1/2, 0], 1 / (4 x^3) on [1, inf)."""
    return (quad(lambda x: g(x) * (1 - 3 * x), [-0.5, 0])
            + quad(lambda x: g(x) / (4 * x ** 3), [1, mpmath.inf]))


def tau_mean(g):
    """E g(tau), tau ~ Exp(1).  Every integrand here carries a factor
    exp(-c e^y), c > 0, so nothing beyond y = 40 shows at 30 digits."""
    return quad(lambda y: g(y) * exp(-y), [0, 1, 10, 40])


def example2_theorem1(a):
    # jump e^tau at tau, drift 1 - e^tau under the constant control a
    def g(y):
        e = exp(y)
        return exp(a * (1 - e) + log1p(e) - e / (1 + e) + log1p(a * e))

    return tau_mean(g)


def eta_factor(x):
    # the eta jump at time 1 sees the indicator's value 0
    return (1 + x) * exp(-x / (1 + x))


def tau_factor(y):
    # the jump e^y at 1 + y and the drift 1 - e^y see the value 1
    e = exp(y)
    return exp(1 - e + 2 * log1p(e) - e / (1 + e))


CASES = {
    "example1 theorem1(a=1)": (
        "example1", ConditionSpec("theorem1", PredictableControl.constant(1.0)),
        lambda: xi_mean(lambda x: (1 + x) ** 2 * exp(-x / (1 + x)))),
    "example2 theorem1(a=0.25)": (
        "example2", ConditionSpec("theorem1", PredictableControl.constant(0.25)),
        lambda: example2_theorem1(mpmath.mpf(0.25))),
    "example2 theorem1(a=0.5)": (
        "example2", ConditionSpec("theorem1", PredictableControl.constant(0.5)),
        lambda: example2_theorem1(mpmath.mpf(0.5))),
    "example2 theorem1(a=1)": (
        "example2", ConditionSpec("theorem1", PredictableControl.constant(1.0)),
        lambda: example2_theorem1(mpmath.mpf(1))),
    "example3 theorem1(indicator:1.0)": (
        "example3", ConditionSpec("theorem1", control_indicator_after(1.0)),
        lambda: eta_mean(eta_factor) * tau_mean(tau_factor)),
    "example1 lemma1": (
        "example1", ConditionSpec("lemma1"),
        lambda: xi_mean(lambda x: (1 + x) * (log1p(x) - x / (1 + x)))),
}


def _reference(oracle) -> float:
    with mpmath.workdps(30):
        return float(oracle())


@pytest.mark.parametrize("case", sorted(CASES))
def test_condition_quadrature_matches_mpmath(case, all_models):
    name, spec, oracle = CASES[case]
    model = {m.name: m for m in all_models}[name]
    report = evaluate_condition(model, spec)
    assert report.verdict == "finite"
    reference = _reference(oracle)
    assert math.isclose(report.quadrature, reference, rel_tol=REL, abs_tol=0.0)


@pytest.mark.parametrize("shared, dist, oracle", [
    (example3_eta_factor, make_eta_distribution(), lambda: eta_mean(eta_factor)),
    (example3_tau_factor, make_first_jump_time(), lambda: tau_mean(tau_factor)),
    (example2_exponential, make_first_jump_time(),
     lambda: tau_mean(lambda y: (1 + exp(y)) * exp(1 - exp(y)))),
], ids=["example3_eta_factor", "example3_tau_factor", "example2_exponential"])
def test_shared_oracles_match_mpmath(shared, dist, oracle):
    value = quadrature_expectation(dist, shared)
    assert math.isclose(value, _reference(oracle), rel_tol=REL, abs_tol=0.0)
