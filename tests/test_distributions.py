"""Exactness checks for the closed-form scalar laws.

Oracles: adaptive quadrature of the densities (normalization, branch
masses, moments) and symbolic antiderivatives where they are elementary.
"""

import ast
import inspect
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.stats import kstest

from doleans import (
    distributions,
    make_eta_distribution,
    make_first_jump_time,
    make_xi_distribution,
)

XI = make_xi_distribution()
ETA = make_eta_distribution()
EXP = make_first_jump_time()
ALL = (XI, ETA, EXP)

# KS critical value at the 0.01 significance level, asymptotic c(alpha)/sqrt(n)
KS_CRIT_001 = 1.628


def _quad_density(dist, lo, hi):
    total = 0.0
    for a, b in dist.support:
        a2, b2 = max(a, lo), min(b, hi)
        if b2 > a2:
            total += quad(dist.density, a2, b2, epsabs=1e-12, epsrel=1e-12,
                          limit=200)[0]
    return total


class TestXiLaw:
    def test_normalization(self):
        assert abs(_quad_density(XI, -1, 1) - 1.0) < 1e-8

    def test_cdf_at_zero_is_half(self):
        # both branches carry mass 1/2
        assert XI.cdf(0.0) == 0.5

    def test_cdf_matches_quadrature_oracle(self):
        # oracle: integrate the density from -1 to x
        for x in (-0.9, -0.5, -0.1, 0.3, 0.8):
            oracle = _quad_density(XI, -1.0, x)
            assert abs(XI.cdf(x) - oracle) < 1e-10

    def test_cdf_at_minus_half(self):
        # closed-form branch value e^{-1}/2, cross-checked by quadrature
        assert abs(XI.cdf(-0.5) - 1.0 / (2.0 * math.e)) < 1e-15
        assert abs(XI.cdf(-0.5) - 0.18393972058572117) < 1e-15

    def test_mean_zero(self):
        mean = sum(
            quad(lambda x: x * XI.density(x), a, b, epsabs=1e-13, limit=200)[0]
            for a, b in XI.support
        )
        assert abs(mean) < 1e-8

    def test_median_is_zero(self):
        assert XI.inverse_cdf(0.5) == 0.0


class TestEtaLaw:
    def test_normalization(self):
        total = quad(ETA.density, -0.5, 0.0)[0] + quad(ETA.density, 1.0, np.inf)[0]
        assert abs(total - 1.0) < 1e-8

    def test_branch_masses(self):
        assert abs(quad(ETA.density, -0.5, 0.0)[0] - 0.875) < 1e-10
        assert abs(quad(ETA.density, 1.0, np.inf)[0] - 0.125) < 1e-10

    def test_mean_zero(self):
        mean = (quad(lambda x: x * ETA.density(x), -0.5, 0.0)[0]
                + quad(lambda x: x * ETA.density(x), 1.0, np.inf)[0])
        assert abs(mean) < 1e-8

    def test_truncated_second_moment_grows_like_quarter_log(self):
        # oracle: the symbolic antiderivative of x^2/(4x^3) is (ln x)/4
        levels = (1e2, 1e4, 1e6)
        values = [quad(lambda x: x * x * ETA.density(x), 1.0, R, limit=200)[0]
                  for R in levels]
        for R, v in zip(levels, values):
            assert abs(v - 0.25 * math.log(R)) < 1e-6
        slope = np.polyfit(np.log(levels), values, 1)[0]
        assert 0.24 <= slope <= 0.26

    def test_inverse_at_mass_breakpoint_skips_gap(self):
        # oracle: the first branch carries mass 7/8 up to x = 0, so the
        # quantile at exactly 7/8 must land on the tail branch start
        mass = quad(ETA.density, -0.5, 0.0)[0]
        assert abs(mass - 0.875) < 1e-12
        assert ETA.inverse_cdf(0.875) == 1.0

    def test_density_zero_in_gap(self):
        assert ETA.density(0.5) == 0.0
        assert ETA.cdf(0.5) == 0.875


class TestFirstJumpTime:
    def test_cdf_at_zero(self):
        assert EXP.cdf(0.0) == 0.0

    def test_mean_one(self):
        mean = quad(lambda t: t * EXP.density(t), 0, np.inf, epsabs=1e-13)[0]
        assert abs(mean - 1.0) < 1e-10

    def test_truncated_exponential_moment_equals_horizon(self):
        # int_0^T e^t e^{-t} dt == T exactly
        for T in (1.0, 10.0, 25.0):
            v = quad(lambda t: math.exp(t) * EXP.density(t), 0, T)[0]
            assert abs(v - T) < 1e-9 * T

    def test_inverse_known_point(self):
        assert abs(EXP.inverse_cdf(1.0 - math.exp(-1.0)) - 1.0) < 1e-15


class TestSampling:
    @pytest.mark.parametrize("dist", ALL, ids=lambda d: d.name)
    def test_roundtrip_cdf_inverse(self, dist):
        u = np.linspace(1e-6, 1.0 - 1e-6, 10_000)
        err = np.abs(dist.cdf(dist.inverse_cdf(u)) - u)
        assert err.max() <= 1e-9

    def test_roundtrip_inverse_cdf_interior(self):
        # inverse(cdf(x)) == x on the interior of each support piece.  A
        # stored CDF value near 1 carries O(eps) absolute error, which the
        # inverse amplifies by 1/tail-mass, so the roundtrip is
        # 1e-10-accurate only while both tails keep mass above ~1e-5; the
        # u-side roundtrip covers the rest of the range.
        for dist in ALL:
            for lo, hi in dist.support:
                hi_eff = min(hi, lo + 50.0)
                xs = np.linspace(lo, hi_eff, 101)[1:-1]
                us = dist.cdf(xs)
                keep = (us > 1e-5) & (us < 1.0 - 1e-5)
                assert keep.sum() > 15
                back = dist.inverse_cdf(us[keep])
                assert np.max(np.abs(back - xs[keep])) <= 1e-10

    @pytest.mark.parametrize("dist", ALL, ids=lambda d: d.name)
    def test_density_nonnegative_and_zero_outside(self, dist):
        lo = dist.support[0][0]
        hi = dist.support[-1][1]
        xs = np.linspace(max(lo, -10.0), min(hi, 50.0), 2001)
        assert np.all(dist.density(xs) >= 0.0)
        assert dist.density(lo - 0.5) == 0.0
        if math.isfinite(hi):
            assert dist.density(hi + 0.5) == 0.0

    @pytest.mark.parametrize("dist", ALL, ids=lambda d: d.name)
    def test_cdf_monotone_with_unit_range(self, dist):
        lo = dist.support[0][0]
        hi = dist.support[-1][1]
        xs = np.linspace(max(lo, -10.0), 60.0 if math.isinf(hi) else hi, 4001)
        cs = dist.cdf(xs)
        assert np.all(np.diff(cs) >= -1e-15)
        assert abs(dist.cdf(lo) - 0.0) < 1e-12 or lo > xs[0]
        if math.isfinite(hi):
            assert abs(dist.cdf(hi) - 1.0) < 1e-12
        else:
            assert cs[-1] > 0.999

    def test_log_density_consistent(self):
        for dist in ALL:
            for x in (-0.4, -0.1, 1.5, 3.0, 0.25):
                d = dist.density(x)
                ld = dist.log_density(x)
                if d > 0:
                    assert abs(ld - math.log(d)) < 1e-12
                else:
                    assert ld == -math.inf


class TestEmpirical:
    def test_sample_means_near_zero(self):
        rng = np.random.Generator(np.random.Philox(key=2024))
        n = 1_000_000
        for dist in (XI, ETA):
            x = dist.inverse_cdf(rng.uniform(1e-12, 1.0 - 1e-12, n))
            se = x.std(ddof=1) / math.sqrt(n)
            assert abs(x.mean()) <= 4.0 * se

    @pytest.mark.parametrize("dist", ALL, ids=lambda d: d.name)
    def test_kolmogorov_smirnov(self, dist):
        rng = np.random.Generator(np.random.Philox(key=99))
        n = 100_000
        x = dist.inverse_cdf(rng.uniform(1e-12, 1.0 - 1e-12, n))
        stat = kstest(x, dist.cdf).statistic
        assert stat < KS_CRIT_001 / math.sqrt(n)


@given(st.floats(min_value=1e-9, max_value=1.0 - 1e-9))
@settings(max_examples=200, deadline=None)
def test_xi_quantile_roundtrip_property(u):
    x = XI.inverse_cdf(u)
    assert -1.0 < x < 1.0
    assert abs(XI.cdf(x) - u) < 1e-9


@given(st.floats(min_value=1e-9, max_value=1.0 - 1e-9))
@settings(max_examples=200, deadline=None)
def test_eta_quantile_lands_in_support(u):
    x = ETA.inverse_cdf(u)
    assert (-0.5 <= x <= 0.0) or x >= 1.0
    assert abs(ETA.cdf(x) - u) < 1e-9


# ----------------------------------------------------------------------
# Scalar route of _branchwise: bit-identical to array evaluation
# ----------------------------------------------------------------------

FUNCTIONS = ("density", "log_density", "cdf")
EDGES = (0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan)


def _ends(dist):
    return sorted({e for piece in dist.support for e in piece if math.isfinite(e)})


def _assert_scalar_route_exact(fn, x):
    with np.errstate(all="ignore"):  # overflow at 1e308 warns on both routes
        want = repr(float(fn(np.array([x]))[0]))
        assert repr(fn(x)) == want, x
        assert repr(fn(np.float64(x))) == want, x


def _near_ends(dist):
    ends = _ends(dist)
    end = st.sampled_from(ends)
    return st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.floats(min_value=ends[0] - 2.0, max_value=ends[-1] + 60.0),
        st.builds(lambda e, k: e + k * math.ulp(e), end, st.integers(-10**4, 10**4)),
        st.builds(lambda e, d: e + d, end, st.floats(-1e-3, 1e-3)),
    )


@pytest.mark.parametrize("fn_name", FUNCTIONS)
@pytest.mark.parametrize("dist", ALL, ids=lambda d: d.name)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_scalar_route_matches_array_route_property(dist, fn_name, data):
    _assert_scalar_route_exact(getattr(dist, fn_name), data.draw(_near_ends(dist)))


@pytest.mark.parametrize("fn_name", FUNCTIONS)
@pytest.mark.parametrize("dist", ALL, ids=lambda d: d.name)
def test_scalar_route_matches_array_route_at_edges(dist, fn_name):
    for x in EDGES + tuple(_ends(dist)):
        _assert_scalar_route_exact(getattr(dist, fn_name), x)


@pytest.mark.parametrize("fn_name", FUNCTIONS)
@pytest.mark.parametrize("dist", ALL, ids=lambda d: d.name)
def test_scalar_route_matches_array_route_sweep(dist, fn_name):
    # a seeded sweep dense enough to see rare last-bit differences (a few
    # per ten thousand inputs for a formula using ** on np.float64
    # scalars): draws from the law, uniform points around the support and
    # geometric offsets from every support end, each against a 1-element
    # array and against its element of one whole-array call
    rng = np.random.Generator(np.random.Philox(key=7))
    ends = np.array(_ends(dist))
    offsets = 10.0 ** rng.uniform(-300.0, 1.0, 2000) * rng.choice([-1.0, 1.0], 2000)
    xs = np.concatenate([
        dist.inverse_cdf(rng.uniform(1e-12, 1.0 - 1e-12, 5000)),
        rng.uniform(ends[0] - 1.0, ends[-1] + 50.0, 5000),
        rng.choice(ends, 2000) + offsets,
    ])
    fn = getattr(dist, fn_name)
    with np.errstate(all="ignore"):
        whole = fn(xs)  # one call over every point, as the IS proposals make
    for x, w in zip(xs.tolist(), whole.tolist()):
        _assert_scalar_route_exact(fn, x)
        assert repr(fn(x)) == repr(w), x


def test_branch_formulas_never_use_the_power_operator():
    # the scalar route runs each branch formula on the float itself; that
    # matches the array route only without ``**``, which on an np.float64
    # takes NumPy's scalar power and can differ in the last bit
    tree = ast.parse(inspect.getsource(distributions))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(getattr(node, "op", None), ast.Pow)]
    assert not lines, (f"** at lines {lines} of distributions.py: use np.square "
                       "or np.power, so float and array inputs give the same bits")


# ----------------------------------------------------------------------
# Float route of the inverse CDFs: a float u in (0, 1) runs only its
# branch, bit-identical to the array route and, like it, without warnings
# ----------------------------------------------------------------------

def _ulp_neighbours(u, k=3):
    below = above = u
    out = [u]
    for _ in range(k):
        below, above = math.nextafter(below, -1.0), math.nextafter(above, 2.0)
        out += [below, above]
    return out


# the sampler's floor, the smallest 53-bit uniform, each branch switch and
# the largest float below 1, with their ulp neighbours inside (0, 1)
QUANTILE_POINTS = tuple(
    v for u in (1e-300, 2.0**-53, 0.5, 0.875, 1.0 - 2.0**-53)
    for v in _ulp_neighbours(u) if 0.0 < v < 1.0
)
QUANTILE_EDGES = (0.0, -0.0, 1.0, 1.5, -1.0, math.nan, math.inf, -math.inf)


def _array_route(fn):
    return lambda u: float(fn(np.array([u]))[0])


def _assert_float_route_exact(fn, u):
    want = repr(_array_route(fn)(u))
    assert repr(fn(u)) == want, u
    assert repr(fn(np.float64(u))) == want, u


def _value_and_warnings(fn, u):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = fn(u)
    return repr(value), sorted({w.category.__name__ for w in caught})


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dist", ALL, ids=lambda d: d.name)
@given(u=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
@settings(max_examples=300, deadline=None)
def test_inverse_cdf_float_route_matches_array_route_property(dist, u):
    _assert_float_route_exact(dist.inverse_cdf, u)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dist", ALL, ids=lambda d: d.name)
def test_inverse_cdf_float_route_matches_array_route_at_ulp_neighbours(dist):
    for u in QUANTILE_POINTS:
        _assert_float_route_exact(dist.inverse_cdf, u)


@pytest.mark.parametrize("dist", ALL, ids=lambda d: d.name)
def test_inverse_cdf_edges_take_the_array_route(dist):
    # outside (0, 1) a float gives the 1-element array's value and the
    # same warning categories, so the float route adds no warning there
    array_route = _array_route(dist.inverse_cdf)
    for u in QUANTILE_EDGES:
        want = _value_and_warnings(array_route, u)
        assert _value_and_warnings(dist.inverse_cdf, u) == want, u
        assert _value_and_warnings(dist.inverse_cdf, np.float64(u)) == want, u


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dist", ALL, ids=lambda d: d.name)
def test_inverse_cdf_float_route_sweep(dist):
    # uniforms as the sampler draws them, geometric offsets from 0 and from
    # 1 and points around each branch switch, each against a 1-element
    # array and against its element of one whole-array call
    rng = np.random.Generator(np.random.Philox(key=8))
    us = np.concatenate([
        np.maximum(rng.random(5000), 1e-300),
        10.0 ** rng.uniform(-300.0, 0.0, 2000),
        1.0 - 10.0 ** rng.uniform(-16.0, 0.0, 2000),
        rng.choice([0.5, 0.875], 2000) + rng.uniform(-1e-6, 1e-6, 2000),
    ])
    us = us[(us > 0.0) & (us < 1.0)]
    whole = dist.inverse_cdf(us)
    for u, w in zip(us.tolist(), whole.tolist()):
        _assert_float_route_exact(dist.inverse_cdf, u)
        assert repr(dist.inverse_cdf(u)) == repr(w), u


def test_xi_inverse_cdf_at_closed_ends():
    # the support ends, as eta and the exponential law give theirs, so that
    # cdf(inverse_cdf(u)) == u holds at 0 and 1 too
    for u, x in ((0.0, -1.0), (-0.0, -1.0), (1.0, 1.0)):
        assert XI.inverse_cdf(u) == x
        assert XI.cdf(XI.inverse_cdf(u)) == abs(u)
    assert XI.inverse_cdf(np.array([0.0, 1.0])).tolist() == [-1.0, 1.0]
