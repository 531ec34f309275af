"""Monte Carlo engine, quadrature, divergence detection, condition verdicts."""

import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from doleans import (
    ConditionSpec,
    PredictableControl,
    QuadratureAccuracyError,
    SeedSpec,
    UnsupportedModelError,
    control_indicator_after,
    detect_divergence,
    estimate_expectation,
    evaluate_condition,
    make_first_jump_time,
    make_xi_distribution,
    quadrature_expectation,
    stoch_exponential,
)
from doleans.mc import EstimationError

XI = make_xi_distribution()
EXP_LAW = make_first_jump_time()


class TestEstimateExpectation:
    def test_constant_functional(self, model1):
        est = estimate_expectation(model1, lambda p: 1.0, 1000, SeedSpec(0, 4))
        assert est.mean == 1.0 and est.se == 0.0

    def test_deterministic_across_runs(self, model2):
        f = lambda p: stoch_exponential(p, p.horizon)
        a = estimate_expectation(model2, f, 5000, SeedSpec(123, 8))
        b = estimate_expectation(model2, f, 5000, SeedSpec(123, 8))
        assert a == b
        c = estimate_expectation(model2, f, 5000, SeedSpec(124, 8))
        assert c != a

    def test_example1_martingale_mean(self, model1):
        est = estimate_expectation(
            model1, lambda p: stoch_exponential(p, 1.0), 200_000, SeedSpec(7, 16)
        )
        assert abs(est.mean - 1.0) <= 3.0 * est.se

    def test_nonfinite_fraction_aborts(self, model1):
        def sometimes_nan(p):
            return math.nan if p.jumps[0][1] > 0.0 else 1.0

        with pytest.raises(EstimationError):
            estimate_expectation(model1, sometimes_nan, 1000, SeedSpec(1, 2))

    def test_needs_two_samples(self, model1):
        with pytest.raises(ValueError):
            estimate_expectation(model1, lambda p: 1.0, 1, SeedSpec(0))

    def test_seedspec_validated(self):
        with pytest.raises(ValueError):
            SeedSpec(-1)
        with pytest.raises(ValueError):
            SeedSpec(0, 0)


class TestQuadratureExpectation:
    def test_normalization(self):
        assert abs(quadrature_expectation(XI, lambda x: 1.0) - 1.0) < 1e-10

    def test_theorem1_value_example1(self):
        # E (1+x)^2 e^{-x/(1+x)}: left branch integrand is exactly 1/2
        v = quadrature_expectation(
            XI, lambda x: (1.0 + x) ** 2 * math.exp(-x / (1.0 + x))
        )
        assert v <= 2.5
        right = quad(
            lambda x: (1.0 + x) ** 2 * math.exp(-x / (1.0 + x)) * XI.density(x),
            0.0, 1.0, limit=200,
        )[0]
        assert abs(v - (0.5 + right)) < 1e-9

    def test_truncated_exponential_moment(self):
        for T in (10.0, 40.0):
            v = quadrature_expectation(EXP_LAW, math.exp, truncation=(None, T))
            assert abs(v - T) < 1e-8 * T

    def test_divergent_integral_raises(self):
        # E e^{tau} over the full support does not converge
        with pytest.raises(QuadratureAccuracyError):
            quadrature_expectation(EXP_LAW, math.exp)


class TestDetectDivergence:
    def test_log_model_slope(self):
        # family value = 0.5 ln(1/delta) + c exactly
        ev = detect_divergence(
            lambda d: 0.5 * math.log(1.0 / d) + 1.7,
            (1e-2, 1e-3, 1e-4, 1e-5),
            "log",
        )
        assert ev.diverging
        assert abs(ev.slope - 0.5) < 1e-12

    def test_linear_model_slope(self):
        ev = detect_divergence(lambda T: T, (10.0, 20.0, 40.0, 80.0), "linear")
        assert ev.diverging and abs(ev.slope - 1.0) < 1e-12

    def test_constant_family_inconclusive(self):
        ev = detect_divergence(lambda T: 3.0, (10.0, 20.0, 40.0, 80.0), "linear")
        assert not ev.increasing and not ev.diverging

    def test_level_validation(self):
        with pytest.raises(ValueError):
            detect_divergence(lambda T: T, (1.0, 2.0, 3.0), "linear")
        with pytest.raises(ValueError):
            detect_divergence(lambda T: T, (1.0, 3.0, 2.0, 4.0), "linear")
        with pytest.raises(ValueError):
            detect_divergence(lambda T: T, (1.0, 2.0, 3.0, 4.0), "cubic")

    def test_example2_exponential_moment_family(self):
        # truncated E e^tau equals T; fitted slope 1 within 1%
        fam = lambda T: quadrature_expectation(EXP_LAW, math.exp,
                                               truncation=(None, T))
        ev = detect_divergence(fam, (10.0, 20.0, 40.0, 80.0), "linear")
        assert ev.diverging
        assert 0.99 <= ev.slope <= 1.01


class TestEvaluateCondition:
    def test_example1_jacod_diverging(self, model1):
        r = evaluate_condition(model1, ConditionSpec("jacod"))
        assert r.verdict == "diverging"
        assert 0.45 <= r.divergence.slope <= 0.55
        assert r.divergence.r_squared >= 0.99
        assert r.quadrature is None

    def test_example1_theorem1_full_controlـfinite(self, model1):
        r = evaluate_condition(
            model1, ConditionSpec("theorem1", PredictableControl.constant(1.0))
        )
        assert r.verdict == "finite"
        assert r.quadrature <= 2.5
        # oracle: direct quadrature of the closed-form integrand
        oracle = quadrature_expectation(
            XI, lambda x: (1.0 + x) ** 2 * math.exp(-x / (1.0 + x))
        )
        assert abs(r.quadrature - oracle) <= 1e-10 * oracle

    def test_example1_theorem1_zero_equals_jacod_report(self, model1):
        a = evaluate_condition(model1, ConditionSpec("jacod"))
        b = evaluate_condition(
            model1, ConditionSpec("theorem1", PredictableControl.constant(0.0))
        )
        assert a.verdict == b.verdict
        assert a.divergence.values == b.divergence.values
        assert a.divergence.slope == b.divergence.slope

    def test_example2_jacod_diverging(self, model2):
        r = evaluate_condition(model2, ConditionSpec("jacod"))
        assert r.verdict == "diverging"
        # integrand tends to e^{-1}: linear growth at that rate
        assert abs(r.divergence.slope - math.exp(-1.0)) < 0.01

    def test_example2_theorem1_bounds(self, model2):
        for a in (0.25, 0.5, 0.75, 1.0):
            r = evaluate_condition(
                model2, ConditionSpec("theorem1", PredictableControl.constant(a))
            )
            assert r.verdict == "finite"
            delta = a / (2.0 * (1.0 + a))
            bound = math.exp(a + 2.0 * delta + 2.0 * (-math.log(delta) - 1.0))
            assert r.quadrature <= bound

    def test_example2_protter_shimbo_diverging(self, model2):
        r = evaluate_condition(model2, ConditionSpec("protter_shimbo"))
        assert r.verdict == "diverging"
        # log-domain probe against the functional's own thresholds: slope 1
        assert abs(r.divergence.slope - 1.0) < 1e-6
        assert r.divergence.model == "linear"

    def test_example2_lepingle_memin_diverging(self, model2):
        r = evaluate_condition(model2, ConditionSpec("lepingle_memin"))
        assert r.verdict == "diverging"
        assert abs(r.divergence.slope - 1.0) < 1e-6

    @pytest.mark.parametrize("kind", ["protter_shimbo", "lepingle_memin"])
    def test_log_scale_kinds_reject_monte_carlo(self, model2, kind):
        # exponents beyond float range: no sampled value can be finite
        with pytest.raises(ValueError, match="Monte Carlo"):
            evaluate_condition(model2, ConditionSpec(kind), SeedSpec(0), 100)

    @pytest.mark.parametrize("name", ["example1", "example2"])
    def test_verdict_independent_of_level_order(self, name, all_models):
        model = {m.name: m for m in all_models}[name]
        spec = ConditionSpec("jacod")
        levels = model.drivers[0].levels
        forward = evaluate_condition(model, spec, levels=levels)
        backward = evaluate_condition(model, spec, levels=levels[::-1])
        assert forward.verdict == backward.verdict == "diverging"
        assert backward.divergence.slope == forward.divergence.slope
        assert backward.divergence == forward.divergence

    @pytest.mark.parametrize("name, spec", [
        ("example1", ConditionSpec("lemma1")),
        ("example3", ConditionSpec("lemma1")),  # two drivers: product formula
        ("example2", ConditionSpec("jacod")),
        ("example3", ConditionSpec("theorem1", control_indicator_after(1.0))),
        ("example2", ConditionSpec("protter_shimbo")),
    ], ids=lambda v: v if isinstance(v, str) else v.label())
    @pytest.mark.parametrize("levels, match", [
        ((1.0,), "four"),
        ((1.0, 2.0, 2.0, 3.0), "ordered"),
        ((1.0, 3.0, 2.0, 4.0), "ordered"),
    ])
    def test_every_kind_checks_levels(self, name, spec, levels, match, all_models):
        model = {m.name: m for m in all_models}[name]
        with pytest.raises(ValueError, match=match):
            evaluate_condition(model, spec, levels=levels)

    def test_lone_inconclusive_factor_keeps_evidence(self, model1):
        r = evaluate_condition(
            model1, ConditionSpec("theorem1", PredictableControl.constant(0.999))
        )
        assert r.verdict == "inconclusive"
        assert r.divergence is not None
        assert r.to_json()["divergence"]["levels"] == list(model1.drivers[0].levels)

    def test_example1_protter_shimbo_unsupported(self, model1):
        with pytest.raises(UnsupportedModelError):
            evaluate_condition(model1, ConditionSpec("protter_shimbo"))

    def test_example3_constant_controls_diverge(self, model3):
        for a in (0.0, 0.25, 0.5, 0.75, 1.0):
            r = evaluate_condition(
                model3, ConditionSpec("theorem1", PredictableControl.constant(a))
            )
            assert r.verdict == "diverging", a
            assert r.divergence.r_squared >= 0.99

    def test_example3_indicator_finite_and_factorizes(self, model3):
        r = evaluate_condition(
            model3, ConditionSpec("theorem1", control_indicator_after(1.0))
        )
        assert r.verdict == "finite"
        # oracle: explicit single-driver factors of the product
        eta_d, exp_d = model3.drivers
        factor_a = quadrature_expectation(
            eta_d.dist, lambda x: (1.0 + x) * math.exp(-x / (1.0 + x))
        )

        def factor_b(y):
            if y > 650.0:
                return 0.0
            delta = math.exp(y)
            e = 1.0 - delta + 2.0 * math.log1p(delta) - delta / (1.0 + delta)
            return math.exp(e) if e > -745.0 else 0.0

        product = factor_a * quadrature_expectation(exp_d.dist, factor_b)
        assert abs(r.quadrature - product) <= 1e-8 * product

    def test_lemma1_finite_on_all_examples(self, all_models):
        for model in all_models:
            r = evaluate_condition(model, ConditionSpec("lemma1"))
            assert r.verdict == "finite"
            assert r.quadrature > 0.0

    def test_lemma1_example1_oracle(self, model1):
        # E (1+x)(log(1+x) - x/(1+x)) by direct quadrature
        oracle = quadrature_expectation(
            XI, lambda x: (1.0 + x) * (math.log1p(x) - x / (1.0 + x))
        )
        r = evaluate_condition(model1, ConditionSpec("lemma1"))
        assert abs(r.quadrature - oracle) <= 1e-9 * oracle

    def test_lemma1_example3_bilinear_oracle(self, model3):
        # two independent drivers: E[E(M)(b0+b1)] expands into four
        # single-driver integrals, each written out explicitly here
        from doleans import make_eta_distribution

        eta = make_eta_distribution()
        lj = lambda z: math.log1p(z) - z / (1.0 + z)
        e_u_b0 = quadrature_expectation(eta, lambda x: (1.0 + x) * lj(x))
        e_u = quadrature_expectation(eta, lambda x: 1.0 + x)

        def exp_factor(weight):
            def g(y):
                if y > 650.0:
                    return 0.0
                e = 1.0 - math.exp(y) + math.log1p(math.exp(y))
                return (math.exp(e) if e > -745.0 else 0.0) * weight(y)

            return quadrature_expectation(EXP_LAW, g)

        e_v = exp_factor(lambda y: 1.0)
        e_v_b1 = exp_factor(lambda y: lj(math.exp(y)))
        oracle = e_u_b0 * e_v + e_u * e_v_b1

        r = evaluate_condition(model3, ConditionSpec("lemma1"))
        assert r.verdict == "finite"
        assert abs(r.quadrature - oracle) <= 1e-9 * oracle

    def test_report_json_schema_and_determinism(self, model1):
        r1 = evaluate_condition(model1, ConditionSpec("jacod"), SeedSpec(5, 4), 100)
        r2 = evaluate_condition(model1, ConditionSpec("jacod"), SeedSpec(5, 4), 100)
        assert json.dumps(r1.to_json()) == json.dumps(r2.to_json())
        doc = r1.to_json()
        assert set(doc) == {"condition", "verdict", "estimate", "divergence",
                            "quadrature"}
        assert set(doc["estimate"]) == {"mean", "se", "n"}
        assert set(doc["divergence"]) == {"levels", "values", "slope", "model"}

    def test_estimate_present_iff_mc_ran(self, model1):
        spec = ConditionSpec("theorem1", PredictableControl.constant(1.0))
        r = evaluate_condition(model1, spec)
        assert r.estimate is None
        r = evaluate_condition(model1, spec, SeedSpec(3, 4), 10_000)
        assert r.estimate is not None and r.estimate.n == 10_000

    def test_estimator_label_reflects_what_ran(self, model1):
        for kind, label in (("jacod", "importance-quantile"), ("lemma1", "pathwise")):
            spec = ConditionSpec(kind)
            for n in (0, 1):
                doc = evaluate_condition(model1, spec, SeedSpec(3, 4), n).to_json()
                assert doc["condition"]["estimator"] is None
                assert doc["estimate"] is None
            doc = evaluate_condition(model1, spec, SeedSpec(3, 4), 100).to_json()
            assert doc["condition"]["estimator"] == label

    def test_lemma1_rejects_family_times(self, model3):
        with pytest.raises(ValueError, match="times"):
            evaluate_condition(model3, ConditionSpec("lemma1"), times=(0.5,))

    def test_stopping_time_family_max(self, model1, model2):
        # before the jump the functional is 0, so those family members
        # contribute expectation 1 and the horizon still dominates
        spec = ConditionSpec("theorem1", PredictableControl.constant(1.0))
        base = evaluate_condition(model1, spec)
        fam = evaluate_condition(model1, spec, times=(0.25, 0.5))
        assert fam.quadrature == base.quadrature
        v_early = quadrature_expectation(XI, lambda x: 1.0)
        assert base.quadrature >= v_early

        # example2: the pre-horizon value at t carries only the drift
        # accrued before the jump, which is below 1 in expectation
        spec2 = ConditionSpec("theorem1", PredictableControl.constant(0.5))
        base2 = evaluate_condition(model2, spec2)
        fam2 = evaluate_condition(model2, spec2, times=(0.5, 2.0))
        assert fam2.quadrature == base2.quadrature


class TestQuadratureMonteCarloAgreement:
    """Finite-verdict conditions: MC mean within 3 SE of the quadrature value."""

    def test_example1_full_control(self, model1):
        spec = ConditionSpec("theorem1", PredictableControl.constant(1.0))
        r = evaluate_condition(model1, spec, SeedSpec(41, 32), 1_000_000)
        assert r.verdict == "finite"
        assert abs(r.estimate.mean - r.quadrature) <= 3.0 * r.estimate.se

    def test_example2_half_control(self, model2):
        spec = ConditionSpec("theorem1", PredictableControl.constant(0.5))
        r = evaluate_condition(model2, spec, SeedSpec(42, 32), 1_000_000)
        assert r.verdict == "finite"
        assert abs(r.estimate.mean - r.quadrature) <= 3.0 * r.estimate.se

    def test_example3_indicator_control(self, model3):
        spec = ConditionSpec("theorem1", control_indicator_after(1.0))
        r = evaluate_condition(model3, spec, SeedSpec(43, 32), 1_000_000)
        assert r.verdict == "finite"
        assert abs(r.estimate.mean - r.quadrature) <= 3.0 * r.estimate.se


class TestExample2MartingaleOracle:
    def test_closed_form_integral_is_one(self, model2):
        # E E_tau(M) = e * int_1^inf (1+u) e^{-u} u^{-2} du = e * e^{-1}
        closed = math.e * quad(
            lambda u: (1.0 + u) * math.exp(-u) / (u * u), 1.0, np.inf,
            epsabs=1e-13,
        )[0]
        assert abs(closed - 1.0) < 1e-10

        def integrand(t):
            if t > 650.0:
                return 0.0
            e = 1.0 - math.exp(t) + math.log1p(math.exp(t))
            return math.exp(e) if e > -745.0 else 0.0

        v = quadrature_expectation(EXP_LAW, integrand)
        assert abs(v - 1.0) < 1e-10
