"""The scalar helpers of ``doleans.transcendental`` against NumPy's bulk
loops (bit for bit) and against ``math`` (exceptions and special values)."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from doleans import transcendental
from doleans.stochexp import exp_or_inf, exp_or_inf_array
from doleans.transcendental import EXP_MAX

HELPERS = {
    "exp": (transcendental.exp, np.exp, math.exp),
    "expm1": (transcendental.expm1, np.expm1, math.expm1),
    "log1p": (transcendental.log1p, np.log1p, math.log1p),
    "log": (transcendental.log, np.log, math.log),
}

ABOVE_EXP_MAX = float(np.nextafter(EXP_MAX, math.inf))
SPECIALS = [0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -1.0,
            float(np.nextafter(-1.0, 0.0)), float(np.nextafter(-1.0, -2.0)),
            EXP_MAX, ABOVE_EXP_MAX, -EXP_MAX, -708.5, -740.0, -745.1, -746.0,
            5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1.7976931348623157e308,
            -1.7976931348623157e308, 1e-17, -1e-17]


def bulk(ufunc, x: float, before: list, after: list) -> float:
    """``ufunc`` at ``x`` inside an array, between ``before`` and ``after``."""
    with np.errstate(all="ignore"):
        return float(ufunc(np.array([*before, x, *after]))[len(before)])


def same_bits(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or a.hex() == b.hex()


def no_warning(fn, x):
    """``fn(x)``, or the exception it raises, with every warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return fn(x)
        except (OverflowError, ValueError) as exc:
            return exc


def outcome(fn, x):
    """``fn(x)``, or the type of the exception it raises."""
    try:
        return fn(x)
    except (OverflowError, ValueError) as exc:
        return type(exc)


PAD = st.lists(st.floats(-1.0, 700.0), max_size=20)


@pytest.mark.parametrize("name", sorted(HELPERS))
@given(x=st.floats(), before=PAD, after=PAD)
@settings(max_examples=400, deadline=None)
def test_scalar_equals_bulk_and_raises_as_math(name, x, before, after):
    helper, ufunc, reference = HELPERS[name]
    got = no_warning(helper, x)
    expected = outcome(reference, x)
    if isinstance(expected, type):
        assert type(got) is expected
    else:
        assert type(got) is float
        assert same_bits(got, bulk(ufunc, x, before, after))


@pytest.mark.parametrize("name", sorted(HELPERS))
def test_scalar_equals_bulk_sweep(name):
    helper, ufunc, _ = HELPERS[name]
    rng = np.random.default_rng(20261021)
    n = 25_000
    if name in ("exp", "expm1"):
        x = np.concatenate((rng.uniform(-745.5, EXP_MAX, n), rng.normal(0.0, 2.0, n)))
    elif name == "log1p":
        x = np.concatenate((np.exp(rng.uniform(-36.0, 709.0, n)) - 1.0,
                            rng.uniform(-1.0, 3.0, n)))
    else:
        x = np.concatenate((np.exp(rng.uniform(-745.0, 709.0, n)), rng.uniform(0.0, 4.0, n)))
    assert len(x) == 50_000
    scalar = np.array([helper(v) for v in x.tolist()])
    assert scalar.tobytes() == ufunc(x).tobytes()


@pytest.mark.parametrize("x", SPECIALS, ids=repr)
@pytest.mark.parametrize("name", sorted(HELPERS))
def test_special_values_as_math(name, x):
    helper, _, reference = HELPERS[name]
    got = no_warning(helper, x)
    expected = outcome(reference, x)
    if isinstance(expected, type):
        assert type(got) is expected
    elif math.isnan(expected) or math.isinf(expected) or expected in (0.0, -1.0, 1.0):
        # nan, the infinities, signed zeros and exact results: as math, sign included
        assert same_bits(got, expected)
    else:
        # elsewhere the two may round apart, by one unit in the last place at most
        assert abs(got - expected) <= math.ulp(expected)


@pytest.mark.parametrize("x", [-710.0, -740.0, -745.1])
def test_subnormal_results_are_kept(x):
    got = transcendental.exp(x)
    assert 0.0 < got < 2.2250738585072014e-308
    assert same_bits(got, bulk(np.exp, x, [], []))
    assert abs(got - math.exp(x)) <= math.ulp(got)


def test_exp_overflow_boundary():
    assert transcendental.exp(EXP_MAX) == math.exp(EXP_MAX)
    assert transcendental.expm1(EXP_MAX) == math.expm1(EXP_MAX)
    for helper in (transcendental.exp, transcendental.expm1):
        with pytest.raises(OverflowError):
            helper(ABOVE_EXP_MAX)
        assert helper(math.inf) == math.inf


def test_exp_or_inf_array_overflows_to_inf_without_warning():
    x = np.array([EXP_MAX, ABOVE_EXP_MAX, 1e300, math.inf, -math.inf, math.nan, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = exp_or_inf_array(x)
        expected = [exp_or_inf(v) for v in x.tolist()]
    assert all(same_bits(a, b) for a, b in zip(got.tolist(), expected))
    assert got[1] == got[2] == got[3] == math.inf
