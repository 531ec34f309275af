"""The QUADPACK port and the Cephes ``spence`` port against SciPy, bit for bit.

SciPy is the reference here and nowhere in the package: the last test
checks that the package runs every verdict kind without importing it.
"""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.integrate import IntegrationWarning
from scipy.integrate import quad as scipy_quad
from scipy.special import spence as scipy_spence

from doleans import quadpack
from doleans.paths import spence

#: (epsabs = epsrel, limit) pairs: the engine's, SciPy's default and a
#: tight one
TOLERANCES = [(1e-11, 200), (1.49e-8, 50), (1e-13, 200)]


def _power(p):
    return lambda x: x ** p


def _log_power(p):
    return lambda x: abs(math.log(x)) ** p


def _gamma_like(p):
    return lambda x: math.exp(-x) * x ** p


def _algebraic_tail(q):
    return lambda x: (1.0 + abs(x)) ** (-1.0 - q)


def _sine(k):
    return lambda x: math.sin(k * x)


def _damped_sine(k):
    return lambda x: math.sin(k * x) / (1.0 + x * x)


def _cosine_root(k):
    return lambda x: math.cos(k * x) / math.sqrt(x)


def _peak(c, w):
    return lambda x: math.exp(-((x - c) / w) ** 2)


def _cusp(c, w):
    return lambda x: 1.0 / (abs(x - c) + w)


BATTERY = (
    [(f"x^{p}", _power(p), 0.0, 1.0) for p in (-0.9, -0.5, 0.3, 2.5)]
    + [(f"|log x|^{p}", _log_power(p), 0.0, 1.0) for p in (-0.5, 0.5, 3.0)]
    + [(f"e^-x x^{p}", _gamma_like(p), 0.0, math.inf) for p in (-0.7, 0.0, 4.5)]
    + [(f"(1+x)^(-1-{q}) on {a, b}", _algebraic_tail(q), a, b)
       for q in (0.01, 0.5, 3.0)
       for a, b in ((0.0, math.inf), (-math.inf, 2.0), (-math.inf, math.inf))]
    + [(f"sin({k}x)", _sine(k), 0.0, 7.0) for k in (1.0, 40.0, 500.0)]
    + [(f"sin({k}x)/(1+x^2)", _damped_sine(k), 0.0, math.inf) for k in (1.0, 20.0)]
    + [(f"cos({k}x)/sqrt(x)", _cosine_root(k), 0.0, 3.0) for k in (1.0, 50.0)]
    + [(f"peak at {c}, width {w}", _peak(c, w), 0.0, 1.0)
       for c, w in ((0.3, 1e-2), (0.123, 1e-4), (0.7, 1e-7))]
    + [(f"1/(|x-{c}|+{w})", _cusp(c, w), 0.0, 1.0)
       for c, w in ((0.37, 1e-3), (0.5, 1e-9))]
)


def one_piece(g, a, b, eps, limit):
    """``(value, error bound)`` of ``g`` on ``(a, b)``, run as the only piece."""
    return quadpack.integrate(lambda xs, owners: ([g(x) for x in xs], ()),
                              [(a, b)], eps, eps, limit)[0]


def reference(g, a, b, eps, limit):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        value, error, info = scipy_quad(g, a, b, epsabs=eps, epsrel=eps,
                                        limit=limit, full_output=1)[:3]
    return (value, error), info["last"]


def bits(pair):
    return tuple(float(v).hex() for v in pair)


class TestAgainstScipy:
    @pytest.mark.parametrize("eps, limit", TOLERANCES, ids=repr)
    @pytest.mark.parametrize("name, g, a, b", BATTERY, ids=[c[0] for c in BATTERY])
    def test_value_and_error_bound(self, name, g, a, b, eps, limit):
        expected, _ = reference(g, a, b, eps, limit)
        assert bits(one_piece(g, a, b, eps, limit)) == bits(expected)

    def test_battery_reaches_the_limit_and_extrapolates(self, monkeypatch):
        # the battery exercises the whole loop: runs that end at the
        # subinterval limit, runs that extrapolate, runs that exit at once
        extrapolations = []
        dqelg = quadpack._dqelg

        def counting(*args):
            extrapolations.append(args[0])
            return dqelg(*args)

        monkeypatch.setattr(quadpack, "_dqelg", counting)
        lasts = []
        for _, g, a, b in BATTERY:
            for eps, limit in TOLERANCES:
                before = len(extrapolations)
                one_piece(g, a, b, eps, limit)
                lasts.append((reference(g, a, b, eps, limit)[1], limit,
                              len(extrapolations) > before))
        assert any(last == limit for last, limit, _ in lasts)
        assert any(last == 1 for last, _, _ in lasts)
        assert any(extrapolated and last < limit for last, limit, extrapolated in lasts)
        assert max(extrapolations) >= 10

    @pytest.mark.parametrize("error", [ValueError, ZeroDivisionError, OverflowError])
    def test_raising_integrand_raises_as_scipy(self, error):
        def g(x):
            if x > 0.61:
                if error is OverflowError:
                    return math.exp(1e3 * x)
                if error is ZeroDivisionError:
                    return 1.0 / (x - x)
                return math.log(-x)
            return x

        with pytest.raises(error):
            scipy_quad(g, 0.0, 1.0)
        with pytest.raises(error):
            one_piece(g, 0.0, 1.0, 1.49e-8, 50)


class TestRunner:
    PIECES = [(0.0, 1.0), (-1.0, 0.0), (0.0, math.inf), (-math.inf, 0.5),
              (-math.inf, math.inf), (0.1, 7.0), (2.0, 2.5)]

    @staticmethod
    def integrand(x):
        # smooth on some pieces, peaked or oscillating on others
        return math.exp(-abs(x)) * (1.0 + math.sin(30.0 * x)) + 1.0 / (abs(x - 0.3) + 1e-6)

    @pytest.mark.parametrize("eps, limit", TOLERANCES, ids=repr)
    def test_many_pieces_equal_serial_runs(self, eps, limit):
        rounds = []

        def f(xs, owners):
            rounds.append(sorted(set(owners)))
            return [self.integrand(x) for x in xs], ()

        together = quadpack.integrate(f, self.PIECES, eps, eps, limit)
        serial = [one_piece(self.integrand, a, b, eps, limit) for a, b in self.PIECES]
        assert [bits(v) for v in together] == [bits(v) for v in serial]
        # one call per round, the first with every piece
        assert rounds[0] == list(range(len(self.PIECES)))
        assert len(rounds) > 2

    def test_pieces_that_exit_at_their_first_rule_take_one_call(self):
        # a cubic is exact under both Kronrod rules' Gauss partners, so
        # every piece meets QUADPACK's exit test after its first rule
        pieces = [(0.0, 1.0), (-3.0, -2.0), (2.0, 2.5)]
        g = lambda x: x * x * x - x
        calls = []

        def f(xs, owners):
            calls.append(sorted(set(owners)))
            return [g(x) for x in xs], ()

        out = quadpack.integrate(f, pieces, 1e-11, 1e-11, 200)
        assert calls == [[0, 1, 2]]
        for (a, b), got in zip(pieces, out):
            expected, last = reference(g, a, b, 1e-11, 200)
            assert last == 1 and bits(got) == bits(expected)

    def test_no_piece_no_call(self):
        def f(xs, owners):
            raise AssertionError("f called without a piece")

        assert quadpack.integrate(f, [], 1e-11, 1e-11, 200) == []

    def test_failed_piece_stops_alone(self):
        # piece 1 fails in its second round; the others keep their bits
        seen = {}

        def f(xs, owners):
            failed = set()
            for i in owners:
                seen[i] = seen.get(i, 0) + 1
                if i == 1 and seen[i] > 21:
                    failed.add(i)
            return [self.integrand(x) for x in xs], failed

        out = quadpack.integrate(f, self.PIECES[:3], 1e-11, 1e-11, 200)
        serial = quadpack.integrate(lambda xs, owners: ([self.integrand(x) for x in xs], ()),
                                    self.PIECES[:3], 1e-11, 1e-11, 200)
        assert out[1] is None and serial[1] is not None
        assert bits(out[0]) == bits(serial[0]) and bits(out[2]) == bits(serial[2])


class TestSpence:
    POINTS = np.concatenate([1.0 + np.exp(np.linspace(-40.0, 700.0, 20001)),
                             np.linspace(0.0, 5.0, 10001), [0.5, 1.5, 2.0]])

    def test_equals_scipy_bit_for_bit(self):
        expected = scipy_spence(self.POINTS)
        got = np.array([spence(x) for x in self.POINTS.tolist()])
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    def test_edges(self):
        assert spence(1.0) == 0.0
        assert spence(0.0) == math.pi * math.pi / 6.0
        assert math.isnan(spence(-1.0)) and math.isnan(spence(math.nan))

    @pytest.mark.parametrize("T", np.linspace(-36.0, 700.0, 75).tolist())
    def test_is_the_dilogarithm(self, T):
        # spence(1 + u) = Li2(-u), at the u = x - 1 that the float
        # argument x = 1 + e^T holds
        x = 1.0 + math.exp(T)
        with mpmath.workdps(40):
            exact = mpmath.polylog(2, -(mpmath.mpf(x) - 1))
            assert abs(spence(x) - exact) <= 1e-15 * abs(exact)


def test_runtime_loads_no_scipy():
    # every verdict kind, an SDE residual and a quadrature expectation, in
    # a fresh interpreter that never imports SciPy
    script = """
import sys
import doleans as d
m1, m2, m3 = (f() for f in d.EXAMPLE_MODELS.values())
for model, spec in [
    (m1, d.ConditionSpec("jacod")),
    (m1, d.ConditionSpec("theorem1", d.PredictableControl.constant(1.0))),
    (m3, d.ConditionSpec("lemma1")),
    (m3, d.ConditionSpec("theorem1", d.control_indicator_after(1.0))),
    (m2, d.ConditionSpec("protter_shimbo")),
    (m2, d.ConditionSpec("lepingle_memin")),
]:
    d.evaluate_condition(model, spec)
path = m2.sampler(0, 3)
assert abs(d.sde_residual(path, path.horizon)) < 1e-9
assert abs(d.quadrature_expectation(m2.drivers[0].dist, lambda x: 1.0) - 1.0) < 1e-10
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, loaded
"""
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 0, done.stderr
