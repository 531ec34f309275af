"""Known-truth calibration of the factor decision rule at a finite end.

The Bertrand family ``h(d) = d^-p (1 + ln(1/d))^-q`` on ``d in (0, 1)``
(``conftest.bertrand_values``, against the uniform law of
``conftest.calibration_driver`` with ``d = 1 + x``) has a finite integral
iff ``p < 1``, or ``p = 1`` and ``q > 1``.  The paper's examples sit on
``p = 1`` with ``q = 0``; this grid straddles that line.  ``OUTCOMES`` pins
what ``mc._analyze_factor`` reads today, wrong verdicts included, so that a
change of the rule shows which points it moves.
"""

import math

import mpmath
import pytest

from conftest import bertrand_values, calibration_driver
from doleans import mc

#: ``(p, q) -> (truth, verdict today)``.  The four false ``diverging``
#: verdicts at p = 0.95 ... 0.9999 are the fit calling a slowly convergent
#: family divergent; p = 2 grows like 1/d, which the ``log`` fit does not
#: match.
OUTCOMES = {
    (0.5, 0.0): ("finite", "finite"),
    (0.9, 0.0): ("finite", "finite"),
    (0.95, 0.0): ("finite", "diverging"),
    (0.99, 0.0): ("finite", "diverging"),
    (0.999, 0.0): ("finite", "diverging"),
    (0.9999, 0.0): ("finite", "diverging"),
    (1.0, 0.0): ("diverging", "diverging"),
    (1.001, 0.0): ("diverging", "diverging"),
    (1.01, 0.0): ("diverging", "diverging"),
    (1.1, 0.0): ("diverging", "inconclusive"),
    (2.0, 0.0): ("diverging", "inconclusive"),
    (1.0, 0.5): ("diverging", "diverging"),
    (1.0, 0.9): ("diverging", "inconclusive"),
    (1.0, 1.1): ("finite", "inconclusive"),
    (1.0, 1.5): ("finite", "inconclusive"),
    (1.0, 2.0): ("finite", "inconclusive"),
    (1.0, 3.0): ("finite", "inconclusive"),
}


def analyze(p: float, q: float):
    driver = calibration_driver()
    return mc._analyze_factor(driver, bertrand_values(p, q), driver.levels)


def exact(p: float, q: float) -> float:
    """``int_0^1 h``, as ``int_0^inf e^{-(1-p)s} (1+s)^-q ds`` (``d = e^-s``)."""
    with mpmath.workdps(30):
        return float(mpmath.quad(
            lambda s: mpmath.exp(-(1 - mpmath.mpf(p)) * s) * (1 + s) ** -q,
            [0, mpmath.inf]))


def test_truth_follows_the_bertrand_rule():
    for (p, q), (truth, _) in OUTCOMES.items():
        assert truth == ("finite" if p < 1.0 or (p == 1.0 and q > 1.0) else "diverging")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p, q", sorted(OUTCOMES))
def test_verdict_today(p, q):
    assert analyze(p, q).verdict == OUTCOMES[p, q][1]


@pytest.mark.parametrize("p, q", sorted(k for k, (_, v) in OUTCOMES.items()
                                        if v == "finite"))
def test_finite_value_matches_mpmath(p, q):
    value = analyze(p, q).value
    assert math.isclose(value, exact(p, q), rel_tol=1e-10, abs_tol=0.0)
