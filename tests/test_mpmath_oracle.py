"""Quadrature values against an independent 30-digit mpmath oracle.

Each reference integrand below is written out by hand from a driver
density and a path functional, in mpmath, and shares no code with
``doleans``: it backs the ~1e-10 quadrature contract with something other
than scipy ``quad``.  The truncated families of the diverging and
inconclusive reports are held to truncated references, which back their
golden bytes, and values at a family time ``t`` to references split at
the kinks of ``t ^ horizon``.  One test holds the closed-form oracles that
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
    make_xi_distribution,
    quadrature_expectation,
)
from doleans import mc
from doleans.cli import (
    example1_exponential,
    example2_exponential,
    example3_eta_factor,
    example3_tau_factor,
)
from doleans.stochexp import pathwise_functional

REL = 1e-10

exp, log1p, mpf, quad = mpmath.exp, mpmath.log1p, mpmath.mpf, mpmath.quad


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


def jump_factor(x):
    # e^{log(1+x) - x/(1+x)}: one jump of size x where the control is 0
    return (1 + x) * exp(-x / (1 + x))


# the eta jump at time 1 sees the indicator's value 0
eta_factor = jump_factor


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


def decades(lo, hi):
    """``lo``, the powers of ten strictly between ``lo`` and ``hi``, ``hi``:
    quadrature points for an integrand that varies on a log scale."""
    inner = [mpf(10) ** k for k in range(-20, 20) if lo < 10 ** k < hi]
    return [lo, *inner, hi]


def xi_mean_above(g, lo):
    """E g(xi) 1{xi > lo} for lo in (-1, 0); near -1 the distance to -1
    spans decades."""
    left = [-1 + d for d in decades(lo + 1, mpf(1))]
    return (quad(lambda x: g(x) * exp(x / (1 + x)) / (2 * (1 + x) ** 2), left)
            + quad(lambda x: g(x) * exp(-x / (1 - x)) / (2 * (1 - x) ** 2), [0, 1]))


def eta_mean_below(g, hi):
    """E g(eta) 1{eta < hi} for hi > 1."""
    return (quad(lambda x: g(x) * (1 - 3 * x), [-0.5, 0])
            + quad(lambda x: g(x) / (4 * x ** 3), decades(mpf(1), hi)))


def tau_mean_below(g, hi):
    """E g(tau) 1{tau < hi}, tau ~ Exp(1), hi > 10."""
    return quad(lambda y: g(y) * exp(-y), [0, 1, *range(10, int(hi), 10), hi])


def controlled_jump(a):
    # one jump of size x under the constant control a; example1 has no
    # drift, and example3's drift after time 1 is in its tau factor
    return lambda x: jump_factor(x) * (1 + a * x)


def tau_jacod(y):
    # the jump e^y at the exponential time y (example2), or at 1 + y (example3)
    return jump_factor(exp(y))


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
    (example1_exponential, make_xi_distribution(), lambda: xi_mean(lambda x: 1 + x)),
    (example3_eta_factor, make_eta_distribution(), lambda: eta_mean(eta_factor)),
    (example3_tau_factor, make_first_jump_time(), lambda: tau_mean(tau_factor)),
    (example2_exponential, make_first_jump_time(),
     lambda: tau_mean(lambda y: (1 + exp(y)) * exp(1 - exp(y)))),
], ids=["example1_exponential", "example3_eta_factor", "example3_tau_factor",
        "example2_exponential"])
def test_shared_oracles_match_mpmath(shared, dist, oracle):
    value = quadrature_expectation(dist, shared)
    assert math.isclose(value, _reference(oracle), rel_tol=REL, abs_tol=0.0)


#: ``(model, spec, level -> truncated value)``: the reported family of each
#: diverging or inconclusive golden case, its lead factor cut at the level
#: and every other factor at its full value.  The cuts are the drivers'
#: own float cuts: xi at -1 + delta, eta at 1 / delta, tau at T.
FAMILIES = {
    "example1 jacod": (
        "example1", ConditionSpec("jacod"),
        lambda delta: xi_mean_above(jump_factor, mpf(-1.0 + delta))),
    "example1 theorem1(a=0.999)": (
        "example1", ConditionSpec("theorem1", PredictableControl.constant(0.999)),
        lambda delta: xi_mean_above(controlled_jump(mpf(0.999)),
                                    mpf(-1.0 + delta))),
    "example2 jacod": (
        "example2", ConditionSpec("jacod"),
        lambda T: tau_mean_below(tau_jacod, mpf(T))),
    "example3 jacod": (
        "example3", ConditionSpec("jacod"),
        lambda T: eta_mean(jump_factor) * tau_mean_below(tau_jacod, mpf(T))),
    "example3 theorem1(a=0.01)": (
        "example3", ConditionSpec("theorem1", PredictableControl.constant(0.01)),
        lambda delta: (eta_mean_below(controlled_jump(mpf(0.01)),
                                      mpf(1.0 / delta))
                       * example2_theorem1(mpf(0.01)))),
    "example3 theorem1(a=0.5)": (
        "example3", ConditionSpec("theorem1", PredictableControl.constant(0.5)),
        lambda delta: (eta_mean_below(controlled_jump(mpf(0.5)),
                                      mpf(1.0 / delta))
                       * example2_theorem1(mpf(0.5)))),
}


@pytest.mark.parametrize("case", sorted(FAMILIES))
def test_truncated_family_matches_mpmath(case, all_models):
    name, spec, oracle = FAMILIES[case]
    model = {m.name: m for m in all_models}[name]
    family = evaluate_condition(model, spec).divergence
    assert len(family.values) == 4
    for level, value in zip(family.levels, family.values):
        reference = _reference(lambda: oracle(level))
        assert math.isclose(value, reference, rel_tol=REL, abs_tol=0.0), level


def tau_mean_split(before, after, kink, breaks=()):
    """E g(tau), tau ~ Exp(1), for g = ``before`` below ``kink`` and
    ``after`` above it, integrated on each side of the kink and of the
    control ``breaks`` below it."""
    head = [0, *(b for b in breaks if b < kink), kink]
    tail = [kink, *(p for p in (10, 40) if p > kink)]
    return (quad(lambda y: before(y) * exp(-y), head)
            + quad(lambda y: after(y) * exp(-y), tail))


def example2_indicator_at(t):
    # control 0 up to 1, then 1: a jump before 1 is the jump term alone; a
    # later one adds the drift e - e^y and the controlled jump
    def before(y):
        e = exp(y)
        if y <= 1:
            return jump_factor(e)
        return exp(mpmath.e - e) * jump_factor(e) * (1 + e)

    return tau_mean_split(before, lambda y: exp(mpmath.e - exp(t)), t, (1,))


def example2_theorem1_at(a, t):
    # a jump before t takes the whole path; otherwise the drift 1 - e^t
    # under the constant control a is all that has accrued by t
    def g(y):
        e = exp(y)
        return exp(a * (1 - e) + log1p(e) - e / (1 + e) + log1p(a * e))

    return tau_mean_split(g, lambda y: exp(a * (1 - exp(t))), t)


#: ``(model, spec, t, E exp F(t ^ horizon))``: family-time values next to
#: a kink of ``t ^ horizon``, where the jump time crosses ``t`` or a
#: control break before ``t``.
AT_TIMES = {
    "example2 theorem1(a=0.5) t=0.999": (
        "example2", ConditionSpec("theorem1", PredictableControl.constant(0.5)),
        0.999, lambda: example2_theorem1_at(mpf(0.5), mpf(0.999))),
    # control 0 up to t < 1: the jump term alone, no drift
    "example2 theorem1(indicator:1.0) t=0.999": (
        "example2", ConditionSpec("theorem1", control_indicator_after(1.0)),
        0.999, lambda: tau_mean_split(tau_jacod, lambda y: 1, mpf(0.999))),
    "example2 theorem1(indicator:1.0) t=3.3486297013362023": (
        "example2", ConditionSpec("theorem1", control_indicator_after(1.0)),
        3.3486297013362023,
        lambda: example2_indicator_at(mpf(3.3486297013362023))),
    "example2 theorem1(a=0.25) t=1.9993936601883728": (
        "example2", ConditionSpec("theorem1", PredictableControl.constant(0.25)),
        1.9993936601883728,
        lambda: example2_theorem1_at(mpf(0.25), mpf(1.9993936601883728))),
    # the eta jump at 1 is always in; the second jump at 1 + y is in iff
    # y < t - 1, else only the drift 1 - e^{t-1} after the break has accrued
    "example3 theorem1(indicator:1.0) t=1.5": (
        "example3", ConditionSpec("theorem1", control_indicator_after(1.0)),
        1.5, lambda: eta_mean(eta_factor) * tau_mean_split(
            tau_factor, lambda y: exp(1 - exp(mpf(0.5))), mpf(0.5))),
    "example3 theorem1(indicator:1.0) t=3.0": (
        "example3", ConditionSpec("theorem1", control_indicator_after(1.0)),
        3.0, lambda: eta_mean(eta_factor) * tau_mean_split(
            tau_factor, lambda y: exp(1 - exp(mpf(2))), mpf(2))),
}


@pytest.mark.parametrize("case", sorted(AT_TIMES))
def test_family_time_matches_mpmath(case, all_models):
    name, spec, t, oracle = AT_TIMES[case]
    model = {m.name: m for m in all_models}[name]
    timed, _, _ = pathwise_functional(spec, model)
    value = mc._value_at_time(model, timed, t, spec.control.breaks)
    assert math.isclose(value, _reference(oracle), rel_tol=REL, abs_tol=0.0)
