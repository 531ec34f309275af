"""Measure-change decomposition, product identity, scalar inequalities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from doleans import (
    JumpPath,
    PredictableControl,
    ScaledDrift,
    control_indicator_after,
    decompose,
    jacod_functional,
    lemma2_lhs,
    lemma3_gap,
    log_stoch_exponential,
    transformed_jacod_integrand,
)

from conftest import random_two_jump_path

CONTROLS = (
    PredictableControl.constant(0.0),
    PredictableControl.constant(0.25),
    PredictableControl.constant(0.5),
    PredictableControl.constant(0.75),
    PredictableControl.constant(1.0),
    control_indicator_after(1.0),
)


class TestDecompose:
    def test_zero_control_is_no_change(self, model2):
        zero = PredictableControl.constant(0.0)
        for i in range(50):
            p = model2.sampler(2, i)
            d = decompose(p, zero)
            assert d.log_density_factor == 0.0
            ref = log_stoch_exponential(p, p.horizon)
            assert abs(d.log_transformed_exponential - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_full_control_kills_transformed_jumps(self, model2):
        one = PredictableControl.constant(1.0)
        for i in range(50):
            p = model2.sampler(3, i)
            d = decompose(p, one)
            assert all(dn == 0.0 for _, dn in d.transformed_jumps)
            assert abs(d.identity_log_gap) <= 1e-12

    def test_density_factor_is_exponential_of_control_integral_path(self, model2):
        # build the path of int a dM explicitly and compare exponentials
        a = 0.5
        ctrl = PredictableControl.constant(a)
        for i in range(50):
            p = model2.sampler(5, i)
            scaled = JumpPath(
                horizon=p.horizon,
                jumps=tuple((t, a * dm) for t, dm in p.jumps),
                drift=ScaledDrift(p.drift, a),
            )
            direct = log_stoch_exponential(scaled, p.horizon)
            d = decompose(p, ctrl)
            assert abs(d.log_density_factor - direct) <= 1e-12 * max(1.0, abs(direct))

    def test_transformed_jump_formula_and_domain(self):
        rng = np.random.Generator(np.random.Philox(key=6))
        for _ in range(200):
            p = random_two_jump_path(rng)
            a = float(rng.random())
            d = decompose(p, PredictableControl.constant(a))
            for (t, dm), (t2, dn) in zip(p.jumps, d.transformed_jumps):
                assert t == t2
                assert dn > -1.0
                expect = (1.0 - a) * dm / (1.0 + a * dm)
                assert abs(dn - expect) <= 1e-15 * max(1.0, abs(expect))


class TestProductIdentity:
    def test_zero_control_gap_zero(self, model1):
        zero = PredictableControl.constant(0.0)
        for i in range(20):
            p = model1.sampler(8, i)
            assert decompose(p, zero).identity_log_gap == 0.0

    def test_random_paths_random_constant_control(self):
        rng = np.random.Generator(np.random.Philox(key=10))
        for _ in range(1000):
            p = random_two_jump_path(rng)
            a = PredictableControl.constant(float(rng.random()))
            d = decompose(p, a)
            assert abs(d.identity_relative_error()) <= 1e-12

    def test_random_paths_indicator_control(self):
        # a breakpoint inside the drift-active region exercises the
        # multi-segment cancellation
        rng = np.random.Generator(np.random.Philox(key=14))
        for _ in range(500):
            p = random_two_jump_path(rng)
            a = control_indicator_after(float(rng.uniform(0.0, p.horizon)))
            d = decompose(p, a)
            assert abs(d.identity_relative_error()) <= 1e-12

    def test_example2_half_control(self, model2):
        half = PredictableControl.constant(0.5)
        for i in range(1000):
            p = model2.sampler(11, i)
            d = decompose(p, half)
            assert abs(d.identity_relative_error()) <= 1e-12

    def test_example3_indicator_matches_direct_value(self, model3):
        ind = control_indicator_after(1.0)
        for i in range(200):
            p = model3.sampler(12, i)
            d = decompose(p, ind)
            ref = log_stoch_exponential(p, p.horizon)
            assert abs(d.log_density_factor + d.log_transformed_exponential
                       - ref) <= 1e-12

    def test_full_grid_all_models(self, all_models):
        # the identity holds omega by omega for every control
        for model in all_models:
            for ctrl in CONTROLS:
                for i in range(100):
                    p = model.sampler(13, i)
                    d = decompose(p, ctrl)
                    assert abs(d.identity_relative_error()) <= 1e-12


class TestTransformedJacod:
    def test_full_control_pure_jump_is_zero(self, model1):
        one = PredictableControl.constant(1.0)
        for i in range(20):
            p = model1.sampler(14, i)
            assert transformed_jacod_integrand(p, one, 1.0) == 0.0

    def test_zero_control_reduces_bitwise(self, all_models):
        zero = PredictableControl.constant(0.0)
        for model in all_models:
            for i in range(100):
                p = model.sampler(15, i)
                lhs = transformed_jacod_integrand(p, zero, p.horizon)
                rhs = jacod_functional(p, p.horizon).log_value
                assert lhs == rhs

    def test_per_jump_bracket_dominated(self):
        # log(1+d) - log(1+ad) - (1-a)d/(1+d) <= log(1+d) - d/(1+d)
        rng = np.random.Generator(np.random.Philox(key=16))
        a = rng.random(100_000)
        dm = np.exp(rng.uniform(math.log(1e-9), math.log(1e3 + 1.0), 100_000)) - 1.0
        lhs = np.log1p(dm) - np.log1p(a * dm) - (1.0 - a) * dm / (1.0 + dm)
        rhs = np.log1p(dm) - dm / (1.0 + dm)
        assert np.max(lhs - rhs) <= 1e-12

    def test_pathwise_domination(self, all_models):
        for model in all_models:
            for ctrl in CONTROLS:
                for i in range(50):
                    p = model.sampler(17, i)
                    got = transformed_jacod_integrand(p, ctrl, p.horizon)
                    bound = jacod_functional(p, p.horizon).log_value
                    assert got <= bound + 1e-12 * max(1.0, abs(bound))


class TestLemma2:
    def test_at_zero(self):
        assert lemma2_lhs(0.0, 0.3) == 1.0

    def test_at_one(self):
        # indicator fires: (1-e^2) - 2 + 1 + 2e = 2e - e^2 > 0
        for eps in (0.1, 0.5, 0.9):
            got = lemma2_lhs(1.0, eps)
            assert abs(got - (2.0 * eps - eps * eps)) < 1e-15
            assert got > 0.0

    def test_at_quadratic_root(self):
        # the bare quadratic vanishes at x = 1/(1+eps); 1 - x = eps/(1+eps)
        # is below eps, so the indicator boost keeps the value at 2 eps
        for eps in (0.05, 0.3, 0.7):
            x1 = 1.0 / (1.0 + eps)
            quadratic = (1.0 - eps * eps) * x1 * x1 - 2.0 * x1 + 1.0
            assert abs(quadratic) < 1e-14
            assert abs(lemma2_lhs(x1, eps) - 2.0 * eps) < 1e-12

    def test_grid_nonnegative(self):
        xs = np.linspace(0.0, 1.0, 1000)
        es = np.linspace(1e-6, 1.0 - 1e-6, 1000)
        vals = lemma2_lhs(xs[:, None], es[None, :])
        assert vals.min() >= 0.0

    def test_domain_validated(self):
        with pytest.raises(ValueError):
            lemma2_lhs(1.5, 0.5)
        with pytest.raises(ValueError):
            lemma2_lhs(0.5, 1.0)

    def test_mutant_without_boost_goes_negative(self):
        # removing the indicator term must be caught between the roots
        eps = 0.4
        x = 0.5 * (1.0 / (1.0 + eps) + 1.0)
        bare = (1.0 - eps * eps) * x * x - 2.0 * x + 1.0
        assert bare < 0.0
        assert lemma2_lhs(x, eps) >= 0.0


class TestLemma3:
    def test_zero_control_exact_zero(self):
        for dm in (-0.5, 0.0, 3.0, 1e6):
            assert lemma3_gap(0.0, dm) == 0.0

    def test_full_control_is_jump_term(self):
        for dm in (-0.9, -0.1, 1.0, 50.0):
            got = lemma3_gap(1.0, dm)
            expect = math.log1p(dm) - dm / (1.0 + dm)
            assert abs(got - expect) < 1e-15
            assert got >= 0.0

    def test_hand_value(self):
        # a = 1/2, dm = 1: log 1.5 + 0.25 - 0.5
        got = lemma3_gap(0.5, 1.0)
        assert abs(got - (math.log(1.5) - 0.25)) < 1e-15
        assert abs(got - 0.15546510810816438) < 1e-12

    def test_random_nonnegative(self):
        rng = np.random.Generator(np.random.Philox(key=18))
        a = rng.random(100_000)
        dm = np.exp(rng.uniform(math.log(1e-9), math.log(1e6 + 1.0), 100_000)) - 1.0
        assert lemma3_gap(a, dm).min() >= -1e-12

    def test_domain_validated(self):
        with pytest.raises(ValueError):
            lemma3_gap(1.2, 0.5)
        with pytest.raises(ValueError):
            lemma3_gap(0.5, -1.0)


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=1e-9, max_value=1.0 - 1e-9),
)
@settings(max_examples=300, deadline=None)
def test_lemma2_property(x, eps):
    assert lemma2_lhs(x, eps) >= -1e-12


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=-1.0 + 1e-9, max_value=1e6),
)
@settings(max_examples=300, deadline=None)
def test_lemma3_property(a, dm):
    assert lemma3_gap(a, dm) >= -1e-12


def test_overflow_safe_decomposition():
    # jump of e^700 with partial control: all logs stay finite and the
    # identity gap stays at rounding scale
    dm = math.exp(700.0)
    p = JumpPath(horizon=1.0, jumps=((1.0, dm),))
    for a in (0.25, 0.5, 0.75, 1.0):
        d = decompose(p, PredictableControl.constant(a))
        assert math.isfinite(d.log_density_factor)
        assert math.isfinite(d.log_transformed_exponential)
        assert abs(d.identity_log_gap) <= 1e-12
