"""Stochastic exponential, condition functionals, and their algebra.

Oracles: hand algebra for single-jump paths, the defining integral
equation checked by independent quadrature, and symbolic antiderivatives
for the closed-form compensators.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from doleans import (
    ConditionSpec,
    JumpPath,
    PredictableControl,
    UnsupportedModelError,
    control_indicator_after,
    jacod_functional,
    jump_term_reduction_gap,
    lemma1_functional,
    lepingle_memin_A,
    log_stoch_exponential,
    protter_shimbo_functional,
    sde_residual,
    stoch_exponential,
    theorem1_functional,
)

from doleans import quadpack
from doleans.paths import ExpCompensatorDrift, ScaledDrift, ZeroDrift
from doleans.stochexp import pathwise_functional
from doleans.transcendental import exp, log1p

from conftest import WitnessDrift, random_two_jump_path, witness_model

A_HALF = PredictableControl.constant(0.5)


def single_jump(dm, t=1.0, horizon=1.0):
    return JumpPath(horizon=horizon, jumps=((t, dm),))


class TestStochExponential:
    def test_empty_path_is_one(self):
        assert stoch_exponential(JumpPath(horizon=1.0), 1.0) == 1.0

    def test_single_jump_formula(self, model1):
        # e^{xi} (1+xi) e^{-xi} == 1 + xi
        for i in range(100):
            p = model1.sampler(2, i)
            xi = p.jumps[0][1]
            assert abs(stoch_exponential(p, 1.0) - (1.0 + xi)) < 1e-14

    def test_example2_formula(self, model2):
        # M_tau = 1, single jump e^tau: E = e (1 + e^tau) e^{-e^tau}
        for i in range(100):
            p = model2.sampler(4, i)
            delta = p.jumps[0][1]
            expect = 1.0 - delta + math.log1p(delta)
            assert abs(log_stoch_exponential(p, p.horizon) - expect) < 1e-12

    def test_strictly_positive(self):
        rng = np.random.Generator(np.random.Philox(key=5))
        for _ in range(200):
            p = random_two_jump_path(rng)
            assert stoch_exponential(p, p.horizon) > 0.0

    def test_time_validated(self):
        with pytest.raises(ValueError):
            stoch_exponential(JumpPath(horizon=1.0), 2.0)


def per_gap_residual(path, t):
    """The SDE residual with one one-piece quadrature per gap between
    jumps and none for a ``ZeroDrift``: the reference for the bits of
    :func:`sde_residual`, which integrates its gaps in one run."""
    drift = path.drift
    has_drift = not isinstance(drift, ZeroDrift)
    integral = 0.0
    cum_jump_log = 0.0
    prev = 0.0
    for ti, dm in [(ti, dm) for ti, dm in path.jumps if ti <= t] + [(t, None)]:
        if has_drift and ti > prev:
            def f(xs, owners, c=cum_jump_log):
                return [exp(drift(s) + c) * drift.derivative(s) for s in xs], ()

            integral += quadpack.integrate(f, [(prev, ti)], 1e-12, 1e-12, 200)[0][0]
        if dm is not None:
            integral += exp(drift(ti) + cum_jump_log) * dm
            cum_jump_log += log1p(dm)
            prev = ti
    return stoch_exponential(path, t) - 1.0 - integral


def residual_cases(model, seed, count):
    """``(path, t)`` at the horizon, at a jump and at interior times."""
    for i in range(count):
        p = model.sampler(seed, i)
        T = p.horizon
        for t in (T, p.jumps[0][0], 0.5 * T, 0.25 * T, 0.9 * T):
            yield p, t


class TestSdeResidual:
    def test_no_jump_no_drift(self):
        assert sde_residual(JumpPath(horizon=1.0), 1.0) == 0.0

    def test_example1_exact(self, model1):
        # pure jump: (1+xi) - 1 - 1*xi == 0; one rounding from the
        # log-space exponential is all that survives
        for i in range(50):
            p = model1.sampler(6, i)
            assert abs(sde_residual(p, 1.0)) <= 1e-15

    @pytest.mark.parametrize("model_name", ["model1", "model2", "model3"])
    def test_examples_within_tolerance(self, model_name, request):
        model = request.getfixturevalue(model_name)
        for i in range(300):
            p = model.sampler(8, i)
            e = stoch_exponential(p, p.horizon)
            assert abs(sde_residual(p, p.horizon)) <= 1e-9 * max(1.0, e)

    def test_synthetic_paths(self):
        rng = np.random.Generator(np.random.Philox(key=9))
        for _ in range(50):
            p = random_two_jump_path(rng)
            e = stoch_exponential(p, p.horizon)
            assert abs(sde_residual(p, p.horizon)) <= 1e-9 * max(1.0, e)

    @pytest.mark.parametrize("model_name", ["model1", "model2", "model3"])
    def test_equals_the_per_gap_loop(self, model_name, request):
        model = request.getfixturevalue(model_name)
        for p, t in residual_cases(model, 12, 200):
            assert repr(sde_residual(p, t)) == repr(per_gap_residual(p, t))

    def test_equals_the_per_gap_loop_on_scaled_drifts(self):
        rng = np.random.Generator(np.random.Philox(key=21))
        for _ in range(200):
            p = random_two_jump_path(rng)
            (t1, _), (t2, _) = p.jumps
            for t in (t2, t1, 0.5 * t1, 0.5 * (t1 + t2)):
                assert repr(sde_residual(p, t)) == repr(per_gap_residual(p, t))

    def test_equals_the_per_gap_loop_on_witness_paths(self):
        for p, t in residual_cases(witness_model(), 5, 200):
            assert repr(sde_residual(p, t)) == repr(per_gap_residual(p, t))

    @pytest.mark.parametrize("model_name", ["model1", "model2", "model3"])
    def test_one_run_over_the_gaps_where_the_drift_moves(self, model_name, request,
                                                         monkeypatch):
        model = request.getfixturevalue(model_name)
        runs = []
        integrate = quadpack.integrate

        def spy(f, pieces, *args):
            runs[-1].append(list(pieces))
            return integrate(f, pieces, *args)

        monkeypatch.setattr(quadpack, "integrate", spy)
        for p, t in residual_cases(model, 12, 100):
            runs.append([])
            sde_residual(p, t)
        assert all(len(calls) <= 1 for calls in runs)
        calls = [pieces for calls in runs for pieces in calls]
        if model_name == "model1":
            assert calls == []
        else:
            assert calls
        if model_name == "model3":
            assert not any((0.0, 1.0) in pieces for pieces in calls)

    @pytest.mark.parametrize("drift", [
        ZeroDrift(),
        ExpCompensatorDrift(0.0),
        ExpCompensatorDrift(1.0),
        ScaledDrift(ExpCompensatorDrift(0.0), -0.7),
        WitnessDrift(),
    ], ids=["zero", "exp-compensator-0", "exp-compensator-1", "scaled-negative", "witness"])
    def test_drift_derivative_and_monotone(self, drift):
        # the gap rule of sde_residual needs a monotone drift: equal drift
        # at both ends of a gap means no drift in between.  Times run on
        # both sides of the compensator start 1
        h = 1e-6
        for t in (0.25, 0.5, 0.8, 1.2, 1.5, 2.5, 3.5):
            centred = (drift(t + h) - drift(t - h)) / (2.0 * h)
            assert abs(drift.derivative(t) - centred) <= 1e-6 * max(1.0, abs(centred))
        grid = np.linspace(0.0, 4.0, 401).tolist()
        values = [drift(t) for t in grid]
        slopes = [drift.derivative(t) for t in grid]
        steps = [b - a for a, b in zip(values, values[1:])]
        assert all(d >= 0.0 for d in steps) or all(d <= 0.0 for d in steps)
        assert all(d >= 0.0 for d in slopes) or all(d <= 0.0 for d in slopes)


class TestJacodFunctional:
    def test_zero_jump(self):
        fv = jacod_functional(single_jump(0.0), 1.0)
        assert fv.log_value == 0.0 and fv.value == 1.0

    def test_hand_value(self):
        # dm = e - 1: log term = 1 - (e-1)/e = 1/e
        fv = jacod_functional(single_jump(math.e - 1.0), 1.0)
        assert abs(fv.log_value - 1.0 / math.e) < 1e-15

    def test_truncated_growth_half_log(self, model1):
        # oracle: the antiderivative log(1+x)/2 of the left-branch integrand
        xi = model1.drivers[0].dist

        def truncated(delta):
            # combine exponent and log density before exponentiating: the
            # factors overflow separately near -1 while the product is 1/2
            def f(x):
                e = (jacod_functional(model1.build(x), 1.0).log_value
                     + xi.log_density(x))
                return math.exp(e) if e < 700.0 else math.inf

            return (quad(f, -1.0 + delta, 0.0, limit=200)[0]
                    + quad(f, 0.0, 1.0, limit=200)[0])

        deltas = (1e-2, 1e-3, 1e-4, 1e-5)
        values = [truncated(d) for d in deltas]
        slopes = np.diff(values) / np.diff([math.log(1.0 / d) for d in deltas])
        assert np.allclose(slopes, 0.5, atol=1e-6)


class TestProtterShimbo:
    def test_zero_disc_qv(self, model2):
        import dataclasses

        flat = dataclasses.replace(model2, disc_qv=lambda p, t: 0.0)
        p = model2.sampler(3, 0)
        assert protter_shimbo_functional(flat, p, p.horizon).value == 1.0

    def test_example2_closed_form(self, model2):
        # oracle: quadrature of e^{2s} against the closed form expm1(2t)/2
        for i in range(20):
            p = model2.sampler(14, i)
            got = protter_shimbo_functional(model2, p, p.horizon).log_value
            oracle = quad(lambda s: math.exp(2.0 * s), 0.0, p.horizon)[0]
            assert abs(got - oracle) < 1e-9 * max(1.0, oracle)

    def test_example1_unsupported(self, model1):
        p = model1.sampler(0, 0)
        with pytest.raises(UnsupportedModelError):
            protter_shimbo_functional(model1, p, 1.0)


class TestLepingleMemin:
    def test_zero_jumps(self):
        assert lepingle_memin_A(single_jump(0.0), 1.0) == 0.0

    def test_hand_value(self):
        # dm = 1: 2 ln 2 - 1
        got = lepingle_memin_A(single_jump(1.0), 1.0)
        assert abs(got - (2.0 * math.log(2.0) - 1.0)) < 1e-15
        assert abs(got - 0.3862943611198906) < 1e-12

    def test_nonnegative_on_random_paths(self):
        # oracle: (1+x)log(1+x) - x is convex with minimum 0 at x = 0
        rng = np.random.Generator(np.random.Philox(key=21))
        for _ in range(1000):
            p = random_two_jump_path(rng)
            assert lepingle_memin_A(p, p.horizon) >= 0.0

    def test_example2_compensator_matches_quadrature(self, model2):
        for T in (0.5, 1.0, 3.0, 10.0):
            p = JumpPath(horizon=T, jumps=((T, math.exp(T)),))
            oracle = quad(
                lambda s: (1.0 + math.exp(s)) * math.log1p(math.exp(s))
                - math.exp(s),
                0.0,
                T,
                limit=200,
            )[0]
            got = model2.lm_compensator(p, T)
            assert abs(got - oracle) < 1e-8 * max(1.0, oracle)


class TestTheorem1Functional:
    def test_epsilon_validated(self):
        p = single_jump(0.5)
        with pytest.raises(ValueError):
            theorem1_functional(p, A_HALF, 1.0, 1.0)

    def test_reduction_is_bit_identical(self, all_models):
        zero = PredictableControl.constant(0.0)
        for model in all_models:
            for i in range(200):
                p = model.sampler(16, i)
                lhs = theorem1_functional(p, zero, 0.5, p.horizon).log_value
                rhs = jacod_functional(p, p.horizon).log_value
                assert lhs == rhs

    def test_example1_full_control_formula(self, model1):
        # exponent xi + log(1+xi) - xi/(1+xi) + log(1+xi) - xi
        one = PredictableControl.constant(1.0)
        for i in range(100):
            p = model1.sampler(18, i)
            xi = p.jumps[0][1]
            got = theorem1_functional(p, one, 0.5, 1.0).value
            expect = (1.0 + xi) ** 2 * math.exp(-xi / (1.0 + xi))
            assert abs(got - expect) < 1e-12 * max(1.0, expect)

    def test_example2_full_control_formula(self, model2):
        one = PredictableControl.constant(1.0)
        for i in range(100):
            p = model2.sampler(19, i)
            delta = p.jumps[0][1]
            tau = p.horizon
            expect = (delta - (math.exp(tau) - 1.0) + math.log1p(delta)
                      - delta / (1.0 + delta) + math.log1p(delta) - delta)
            got = theorem1_functional(p, one, 0.5, tau).log_value
            assert abs(got - expect) < 1e-9 * max(1.0, abs(expect))

    def test_indicator_control_on_example3(self, model3):
        # only the second jump and the post-1 drift enter the control terms
        ind = control_indicator_after(1.0)
        for i in range(50):
            p = model3.sampler(20, i)
            eta = p.jumps[0][1]
            delta = p.jumps[1][1]
            expect = (
                (1.0 - delta)  # int a dM without its jump part
                + math.log1p(eta) - eta / (1.0 + eta)
                + math.log1p(delta) - delta / (1.0 + delta) + math.log1p(delta)
            )
            got = theorem1_functional(p, ind, 0.5, p.horizon).log_value
            assert abs(got - expect) < 1e-9 * max(1.0, abs(expect))


class TestLemma1Functional:
    def test_no_jump_path(self):
        assert lemma1_functional(JumpPath(horizon=1.0), 1.0) == 0.0

    def test_example1_formula(self, model1):
        for i in range(100):
            p = model1.sampler(22, i)
            xi = p.jumps[0][1]
            expect = (1.0 + xi) * (math.log1p(xi) - xi / (1.0 + xi))
            assert abs(lemma1_functional(p, 1.0) - expect) < 1e-12

    def test_bracket_nonnegative(self):
        # oracle: log(1+x) - x/(1+x) is convex with minimum 0 at x = 0
        rng = np.random.Generator(np.random.Philox(key=25))
        dm = np.exp(rng.uniform(math.log(1e-6), math.log(1e3), 5000)) - 0.999999
        vals = np.log1p(dm) - dm / (1.0 + dm)
        assert vals.min() >= 0.0


CORE_CONTROLS = (
    PredictableControl.constant(0.0),
    PredictableControl.constant(0.3),
    PredictableControl.constant(1.0),
    control_indicator_after(1.0),
    PredictableControl((0.4, 1.2), (0.2, 0.9, 0.6)),
)


def _core_times(path):
    """The horizon, 0, and interior times at, just before and between the
    jump times and the control breaks."""
    h = path.horizon
    marks = [ti for ti, _ in path.jumps] + [0.4, 1.0, 1.2]
    times = {h, 0.0, 0.5 * h}
    for m in marks:
        times.update(x for x in (m, math.nextafter(m, 0.0)) if 0.0 <= x <= h)
    return sorted(times)


class TestKindTableCores:
    """The kind table reads float cores without range checks; they must
    give the public functionals' ``log_value`` bit for bit."""

    @pytest.mark.parametrize("model_name", ["model1", "model2", "model3"])
    def test_exponents_equal_public_log_values(self, model_name, request):
        model = request.getfixturevalue(model_name)
        jacod = pathwise_functional(ConditionSpec("jacod"), model)
        lemma1 = pathwise_functional(ConditionSpec("lemma1"), model)
        theorem1 = [(a, pathwise_functional(ConditionSpec("theorem1", a), model))
                    for a in CORE_CONTROLS]
        for i in range(100):
            p = model.sampler(26, i)
            for t in _core_times(p):
                want = repr(jacod_functional(p, t).log_value)
                assert repr(jacod.exponent(p, t)) == want, (i, t)
                assert repr(lemma1.weight(p, t)) == want, (i, t)
                for a, entry in theorem1:
                    got = entry.exponent(p, t)
                    assert repr(got) == repr(
                        theorem1_functional(p, a, 0.5, t).log_value), (i, t, a)

    def test_public_functionals_still_check_their_arguments(self, model3):
        p = model3.sampler(26, 0)
        for t in (-1e-300, -1.0, math.nextafter(p.horizon, math.inf), math.inf, math.nan):
            with pytest.raises(ValueError):
                jacod_functional(p, t)
            with pytest.raises(ValueError):
                theorem1_functional(p, A_HALF, 0.5, t)
            with pytest.raises(ValueError):
                lemma1_functional(p, t)
        for eps in (0.0, 1.0, -0.5, math.nan):
            with pytest.raises(ValueError):
                theorem1_functional(p, A_HALF, eps, p.horizon)


class TestConditionSpec:
    def test_theorem1_requires_control(self):
        with pytest.raises(ValueError):
            ConditionSpec("theorem1")

    def test_epsilon_defaults_to_half(self):
        spec = ConditionSpec("theorem1", A_HALF)
        assert spec.epsilon == 0.5

    def test_epsilon_range(self):
        with pytest.raises(ValueError):
            ConditionSpec("theorem1", A_HALF, 1.0)

    def test_other_kinds_forbid_parameters(self):
        with pytest.raises(ValueError):
            ConditionSpec("jacod", control=A_HALF)
        with pytest.raises(ValueError):
            ConditionSpec("lepingle_memin", epsilon=0.3)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ConditionSpec("novikov")


class TestOverflowSafety:
    def test_log_space_functionals_at_e700(self):
        dm = math.exp(700.0)
        p = JumpPath(horizon=1.0, jumps=((1.0, dm),))
        assert math.isfinite(jacod_functional(p, 1.0).log_value)
        one = PredictableControl.constant(1.0)
        assert math.isfinite(theorem1_functional(p, one, 0.5, 1.0).log_value)
        assert math.isfinite(lepingle_memin_A(p, 1.0))
        assert math.isfinite(log_stoch_exponential(p, 1.0))

    def test_functional_value_flags_overflow(self):
        from doleans import FunctionalValue

        fv = FunctionalValue.from_log(1000.0)
        assert not fv.finite and fv.value == math.inf
        fv = FunctionalValue.from_log(1.5)
        assert fv.finite and abs(fv.value - math.exp(1.5)) < 1e-12 * fv.value


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=-0.999999, max_value=1e3),
)
@settings(max_examples=300, deadline=None)
def test_jump_term_monotone_in_control(a, dm):
    assert jump_term_reduction_gap(a, dm) >= -1e-12


def test_jump_term_reduction_gap_vectorized():
    rng = np.random.Generator(np.random.Philox(key=33))
    a = rng.random(100_000)
    dm = np.exp(rng.uniform(math.log(1e-9), math.log(1e3 + 1.0), 100_000)) - 1.0
    assert jump_term_reduction_gap(a, dm).min() >= -1e-12


@pytest.mark.parametrize("a, dm", [(-0.1, 0.5), (1.2, 0.5), (0.5, -1.0),
                                   (math.nan, 0.5), (0.5, math.nan)])
def test_jump_term_reduction_gap_domain_validated(a, dm):
    with pytest.raises(ValueError):
        jump_term_reduction_gap(a, dm)
