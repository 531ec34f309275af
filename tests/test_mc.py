"""Monte Carlo engine, quadrature, divergence detection, condition verdicts."""

import argparse
import dataclasses
import json
import logging
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from doleans import (
    CONDITION_KINDS,
    ConditionSpec,
    PredictableControl,
    QuadratureAccuracyError,
    SeedSpec,
    UnsupportedModelError,
    control_indicator_after,
    detect_divergence,
    estimate_batch,
    evaluate_condition,
    make_eta_distribution,
    make_first_jump_time,
    make_xi_distribution,
    quadrature_expectation,
    stoch_exponential_batch,
)
from doleans import cli, mc, stochexp
from doleans.cli import (
    CLAIMS,
    example1_exponential,
    example2_bound,
    example2_exponential,
    example3_eta_factor,
    example3_tau_factor,
)
from doleans.mc import EstimationError
from doleans.stochexp import pathwise_functional
from doleans.transcendental import exp

from conftest import example1_full_control_integrand, example2_closed_form
from test_batch import reference_factors


def elementwise(fn, x: np.ndarray) -> np.ndarray:
    """The scalar ``fn`` at every element of ``x``, one call each."""
    return np.fromiter(map(fn, x.tolist()), dtype=float, count=len(x))


XI = make_xi_distribution()
EXP_LAW = make_first_jump_time()


class TestEstimateBatch:
    def test_constant_kernel(self, model1):
        est = estimate_batch(model1, lambda b: np.ones(len(b)), 1000, SeedSpec(0, 4))
        assert est.mean == 1.0 and est.se == 0.0

    def test_deterministic_across_runs(self, model2):
        a = estimate_batch(model2, stoch_exponential_batch, 5000, SeedSpec(123, 8))
        b = estimate_batch(model2, stoch_exponential_batch, 5000, SeedSpec(123, 8))
        assert a == b
        c = estimate_batch(model2, stoch_exponential_batch, 5000, SeedSpec(124, 8))
        assert c != a

    def test_nonfinite_fraction_aborts(self, model1, caplog):
        def sometimes_nan(batch):
            return np.where(batch.jump_dm[:, 0] > 0.0, math.nan, 1.0)

        with pytest.raises(EstimationError):
            estimate_batch(model1, sometimes_nan, 1000, SeedSpec(1, 2))

        # at most 0.1% non-finite: excluded, counted and logged
        def first_row_inf(batch):
            values = np.ones(len(batch))
            values[0] = math.inf
            return values

        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="doleans.mc"):
            est = estimate_batch(model1, first_row_inf, 2000, SeedSpec(1, 2))
        assert (est.mean, est.se, est.n, est.nonfinite) == (1.0, 0.0, 1998, 2)
        assert [r.getMessage() for r in caplog.records] == [
            "2 of 2000 functional values were non-finite"]

    def test_seedspec_validated(self):
        with pytest.raises(ValueError):
            SeedSpec(-1)
        with pytest.raises(ValueError):
            SeedSpec(0, 0)
        with pytest.raises(ValueError, match="seed must fit in 64 bits"):
            SeedSpec(2**64)

    def test_seedspec_numpy_seed_is_a_python_int(self, model1):
        seeds = SeedSpec(np.uint64(2**64 - 1), 2)
        assert type(seeds.seed) is int and seeds == SeedSpec(2**64 - 1, 2)
        report = evaluate_condition(model1, ConditionSpec("jacod"), seeds)
        assert json.loads(json.dumps(report.to_json()))["condition"]["seed"] == 2**64 - 1

    def test_numpy_counts_are_python_ints(self, model1):
        seeds = SeedSpec(7, np.int64(4))
        assert type(seeds.streams) is int and seeds == SeedSpec(7, 4)
        report = evaluate_condition(model1, ConditionSpec("jacod"), seeds,
                                    n=np.int64(1000))
        doc = json.loads(json.dumps(report.to_json()))
        assert (doc["condition"]["n"], doc["condition"]["streams"]) == (1000, 4)
        assert doc["estimate"]["n"] == 1000

    @pytest.mark.parametrize("n", [2.5, 1000.0])
    def test_non_integer_counts_rejected_before_quadrature(self, n, model1,
                                                           monkeypatch):
        def no_quadrature(values, pieces):
            raise AssertionError("quadrature ran before n was checked")

        monkeypatch.setattr(mc, "_quad_run", no_quadrature)
        with pytest.raises(TypeError):
            SeedSpec(0, n)
        with pytest.raises(TypeError):
            evaluate_condition(model1, ConditionSpec("jacod"), SeedSpec(0), n)
        with pytest.raises(TypeError):
            estimate_batch(model1, stoch_exponential_batch, n, SeedSpec(0))


class TestQuadratureExpectation:
    def test_normalization(self):
        assert abs(quadrature_expectation(XI, lambda x: 1.0) - 1.0) < 1e-10

    def test_theorem1_value_example1(self):
        # E (1+x)^2 e^{-x/(1+x)}: left branch integrand is exactly 1/2
        v = quadrature_expectation(XI, example1_full_control_integrand)
        assert v <= 2.5
        right = quad(
            lambda x: example1_full_control_integrand(x) * XI.density(x),
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

    @pytest.mark.parametrize("K", [1e4, 1e6, 1e300])
    def test_piece_far_past_the_bulk(self, K):
        # in plain coordinates every node of (0, 1e6) lands where the
        # Exp(1) density has underflowed, and the piece read 0.0
        v = quadrature_expectation(EXP_LAW, lambda x: 1.0, truncation=(None, K))
        assert abs(v - 1.0) < 1e-10

    @pytest.mark.parametrize("truncation", [(None, -1.0), (5.0, 2.0)])
    def test_clip_without_support_is_zero(self, truncation):
        assert quadrature_expectation(EXP_LAW, lambda x: 1.0, truncation=truncation) == 0.0

    @pytest.mark.parametrize("truncation", [(math.nan, None), (None, math.nan),
                                            (0.5, math.nan)])
    def test_nan_clip_bound_rejected(self, truncation):
        def integrand(x):
            raise AssertionError("no quadrature for a NaN clip")

        with pytest.raises(ValueError, match="NaN"):
            quadrature_expectation(EXP_LAW, integrand, truncation=truncation)

    @pytest.mark.parametrize("truncation", [(-math.inf, None), (None, math.inf),
                                            (-math.inf, math.inf)])
    def test_infinite_clip_bound_is_unbounded(self, truncation):
        full = quadrature_expectation(EXP_LAW, lambda x: 1.0)
        assert quadrature_expectation(EXP_LAW, lambda x: 1.0, truncation=truncation) == full

    def test_wide_positive_piece(self):
        # eta density 1 / (4 x^3) on (2, 1e6): 0.125 (1/4 - 1e-12)
        v = quadrature_expectation(make_eta_distribution(), lambda x: 1.0,
                                   truncation=(2.0, 1e6))
        exact = 0.125 * (0.25 - 1e-12)
        assert abs(v - exact) < 1e-10 * exact


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

    def test_example1_theorem1_full_control_finite(self, model1):
        r = evaluate_condition(
            model1, ConditionSpec("theorem1", PredictableControl.constant(1.0))
        )
        assert r.verdict == "finite"
        assert r.quadrature <= 2.5
        # oracle: direct quadrature of the closed-form integrand
        oracle = quadrature_expectation(XI, example1_full_control_integrand)
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
            assert r.quadrature <= example2_bound(a)

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
        # an iterator is read once; a list reports as the tuple does
        for given in ((x for x in levels), list(levels)):
            r = evaluate_condition(model, spec, levels=given)
            assert json.dumps(r.to_json()) == json.dumps(forward.to_json())

    @pytest.mark.parametrize("name, spec", [
        ("example1", ConditionSpec("lemma1")),
        ("example3", ConditionSpec("lemma1")),  # two drivers: a sum of products
        ("example2", ConditionSpec("jacod")),
        ("example3", ConditionSpec("theorem1", control_indicator_after(1.0))),
        ("example2", ConditionSpec("protter_shimbo")),
    ], ids=lambda v: v if isinstance(v, str) else v.label())
    @pytest.mark.parametrize("levels, match", [
        ((1.0,), "four"),
        ((1.0, 2.0, 2.0, 3.0), "ordered"),
        ((1.0, 3.0, 2.0, 4.0), "ordered"),
        ((1e-2, 1e-3, 1e-4, 0.0), "finite and positive"),
        ((-1.0, 1.0, 2.0, 3.0), "finite and positive"),
        ((1.0, 2.0, 3.0, math.inf), "finite and positive"),
        ((1.0, 2.0, 3.0, math.nan), "finite and positive"),
    ])
    def test_every_kind_checks_levels(self, name, spec, levels, match, all_models):
        model = {m.name: m for m in all_models}[name]
        with pytest.raises(ValueError, match=match):
            evaluate_condition(model, spec, levels=levels)

    @pytest.mark.parametrize("name, spec", [
        ("example1", ConditionSpec("jacod")),  # diverging: no family time runs
        ("example1", ConditionSpec("lemma1")),
        ("example2", ConditionSpec("theorem1", PredictableControl.constant(0.5))),
        ("example3", ConditionSpec("theorem1", control_indicator_after(1.0))),
        ("example2", ConditionSpec("protter_shimbo")),
    ], ids=lambda v: v if isinstance(v, str) else v.label())
    @pytest.mark.parametrize("times", [
        (-1.0,), (math.nan,), (math.inf,), (0.5, -math.inf),
    ], ids=repr)
    def test_every_kind_checks_times(self, name, spec, times, all_models,
                                     monkeypatch):
        # rejected before any quadrature, whatever the verdict would be
        def no_quadrature(values, pieces):
            raise AssertionError("quadrature ran before the times were checked")

        monkeypatch.setattr(mc, "_quad_run", no_quadrature)
        model = {m.name: m for m in all_models}[name]
        with pytest.raises(ValueError, match="finite and nonnegative"):
            evaluate_condition(model, spec, times=times)

    @pytest.mark.parametrize("name, spec", [
        ("example1", ConditionSpec("jacod")),
        ("example3", ConditionSpec("lemma1")),
        ("example2", ConditionSpec("theorem1", PredictableControl.constant(0.5))),
        ("example2", ConditionSpec("protter_shimbo")),
    ], ids=lambda v: v if isinstance(v, str) else v.label())
    @pytest.mark.parametrize("n", [1, -1, -7])
    def test_every_kind_checks_n(self, name, spec, n, all_models, monkeypatch):
        # one path gives no standard error and a negative count no paths:
        # rejected before any quadrature instead of reporting no estimate
        def no_quadrature(values, pieces):
            raise AssertionError("quadrature ran before n was checked")

        monkeypatch.setattr(mc, "_quad_run", no_quadrature)
        model = {m.name: m for m in all_models}[name]
        with pytest.raises(ValueError, match=rf"\bn\b.*got {n}"):
            evaluate_condition(model, spec, SeedSpec(3), n)

    @pytest.mark.parametrize("name, kind, levels, level", [
        ("example2", "jacod", (10, 100, 1000, 1e5), "1000"),
        ("example3", "jacod", (10, 100, 1000, 1e5), "1000"),
        ("example2", "lepingle_memin", (10, 20, 750, 800), "750"),
    ])
    def test_jump_time_levels_past_the_cap_rejected(self, name, kind, levels,
                                                    level, all_models):
        # build caps the jump time at 700, so a family cut past it would
        # stop growing and read finite or inconclusive; example3 has two
        # drivers, so its levels are rejected before the cap is reached
        model = {m.name: m for m in all_models}[name]
        match = (rf"level {level}\b.*cap 700" if len(model.drivers) == 1
                 else "one-driver model")
        with pytest.raises(ValueError, match=match):
            evaluate_condition(model, ConditionSpec(kind), levels=levels)

    @pytest.mark.parametrize("spec", [
        ConditionSpec("jacod"),
        ConditionSpec("lemma1"),
        ConditionSpec("theorem1", control_indicator_after(1.0)),
    ], ids=lambda s: s.label())
    @pytest.mark.parametrize("levels", [
        (1e-2, 1e-3, 1e-4, 1e-5), (10, 20, 40, 80),
    ], ids=repr)
    def test_two_driver_model_rejects_levels(self, spec, levels, model3,
                                             monkeypatch):
        # one grid would cut both drivers: at 1e-2..1e-5 the waiting time
        # is cut inside its bulk, and indicator:1.0 read diverging
        def no_quadrature(values, pieces):
            raise AssertionError("quadrature ran before the levels were checked")

        monkeypatch.setattr(mc, "_quad_run", no_quadrature)
        with pytest.raises(ValueError, match="one-driver model"):
            evaluate_condition(model3, spec, levels=levels)

    def test_jump_time_level_at_the_cap_accepted(self, model2):
        r = evaluate_condition(model2, ConditionSpec("jacod"),
                               levels=(10, 20, 40, 700))
        assert r.verdict == "diverging"
        assert r.divergence.levels == (10.0, 20.0, 40.0, 700.0)

    @pytest.mark.parametrize("kind, levels", [
        ("protter_shimbo", (10, 20, 40, 300)),
        ("lepingle_memin", (10, 20, 40, 700)),
    ])
    def test_log_scale_fit_overflow_rejected(self, kind, levels, model2):
        # the last threshold is finite but its square is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"at level {levels[-1]}$"):
                evaluate_condition(model2, ConditionSpec(kind), levels=levels)

    def test_log_scale_slow_growth_is_inconclusive(self, model2):
        # <M^d> = log(1 + T) grows slower than the log density falls, so
        # L(T) falls: the log integrand decides nothing
        model = dataclasses.replace(
            model2, disc_qv=lambda p, t: math.log1p(min(t, p.horizon)))
        r = evaluate_condition(model, ConditionSpec("protter_shimbo"))
        driver = model.drivers[0]
        thresholds = tuple(math.log1p(T) for T in driver.levels)
        assert r.verdict == "inconclusive"
        assert r.quadrature is None
        assert r.divergence.levels == thresholds
        assert r.divergence.values == tuple(
            g + driver.dist.log_density(T)
            for g, T in zip(thresholds, driver.levels))
        assert not r.divergence.increasing
        assert r.to_json()["divergence"]["levels"] == list(thresholds)

    def test_lone_inconclusive_factor_keeps_evidence(self, model1):
        r = evaluate_condition(
            model1, ConditionSpec("theorem1", PredictableControl.constant(0.999))
        )
        assert r.verdict == "inconclusive"
        assert r.divergence is not None
        assert r.to_json()["divergence"]["levels"] == list(model1.drivers[0].levels)

    def test_multi_factor_inconclusive_keeps_evidence(self, model3):
        # the eta factor does not settle at a = 0.017; the exponential
        # factor is finite, so the report leads with the eta driver
        r = evaluate_condition(
            model3, ConditionSpec("theorem1", PredictableControl.constant(0.017))
        )
        assert r.verdict == "inconclusive"
        assert r.divergence is not None
        eta = model3.drivers[0]
        assert eta.name == "eta"
        assert r.to_json()["divergence"]["levels"] == list(eta.levels)

    @staticmethod
    def rows_of(f_vals):
        """Path rows that evaluate ``f_vals`` at each point of the columns."""
        return lambda columns: (np.array([f_vals(v) for v in zip(*columns)]), None)

    def test_split_rejects_tail_only_coupling(self, model3):
        # separable wherever eta < 1, i.e. at every interior eta quantile;
        # only the tail probes reach the coupled branch
        def f_vals(vals):
            x, y = vals
            return x + y + (1e-3 * x * y if x >= 1.0 else 0.0)

        assert len(mc._split_rows(model3, self.rows_of(lambda v: v[0] + v[1]))) == 2
        with pytest.raises(UnsupportedModelError):
            mc._split_rows(model3, self.rows_of(f_vals))

    def test_split_probe_evaluates_each_point_once(self, model3):
        # one base value, each factor at its 5 probe points and the 25
        # probe pairs: 36 rows in one call, with 5 quantiles inverted per
        # driver
        inversions, calls = [], []

        def counted(dist):
            def inverse_cdf(u):
                inversions.append(u)
                return dist.inverse_cdf(u)
            return dataclasses.replace(dist, inverse_cdf=inverse_cdf)

        model = dataclasses.replace(model3, drivers=tuple(
            dataclasses.replace(d, dist=counted(d.dist)) for d in model3.drivers))
        inner = mc._path_rows(model, stochexp._jacod_log)

        def path_rows(columns):
            calls.append(list(zip(*(c.tolist() for c in columns))))
            return inner(columns)

        assert len(mc._split_rows(model, path_rows)) == 2
        assert len(calls) == 1
        assert len(calls[0]) == 36
        assert len(inversions) == 10
        assert len(set(calls[0][11:])) == 25

    @pytest.mark.parametrize("spec", [
        ConditionSpec("jacod"),
        ConditionSpec("lemma1"),
        ConditionSpec("theorem1", control_indicator_after(1.0)),
    ], ids=lambda s: s.label())
    def test_three_drivers_rejected_before_quadrature(self, spec, model3,
                                                      monkeypatch):
        def no_quadrature(values, pieces):
            raise AssertionError("quadrature ran before the drivers were checked")

        monkeypatch.setattr(mc, "_quad_run", no_quadrature)
        model = dataclasses.replace(
            model3, drivers=(*model3.drivers, model3.drivers[1]))
        with pytest.raises(UnsupportedModelError, match="at most two drivers"):
            evaluate_condition(model, spec)

    def test_lemma1_rejects_coupled_drivers(self, model3):
        # the second jump grows with eta above 0.5: neither the exponent
        # nor the bracket separates, so the per-driver factors do not apply
        def build(x, e):
            path = model3.build(x, e)
            (t1, dm1), (t2, dm2) = path.jumps
            scale = 1.5 if x > 0.5 else 1.0
            return dataclasses.replace(path, jumps=((t1, dm1), (t2, dm2 * scale)))

        def build_batch(x, e):
            # row for row the coupled build, as the batch contract asks
            batch = model3.build_batch(x, e)
            dm = batch.jump_dm.copy()
            dm[:, 1] = dm[:, 1] * np.where(x > 0.5, 1.5, 1.0)
            return dataclasses.replace(batch, jump_dm=dm)

        coupled = dataclasses.replace(model3, build=build, build_batch=build_batch)
        with pytest.raises(UnsupportedModelError):
            evaluate_condition(coupled, ConditionSpec("lemma1"))
        with pytest.raises(UnsupportedModelError):
            evaluate_condition(coupled, ConditionSpec("jacod"))

    @pytest.mark.parametrize("n", [0, 100])
    @pytest.mark.parametrize("kind", ["protter_shimbo", "lepingle_memin"])
    def test_example1_log_scale_kinds_unsupported(self, model1, kind, n):
        # example1 carries neither <M^d> nor a compensator; both kinds say
        # so before any other check, whatever the path count
        spec = ConditionSpec(kind)
        with pytest.raises(UnsupportedModelError, match="carries no closed-form"):
            pathwise_functional(spec, model1)
        with pytest.raises(UnsupportedModelError, match="carries no closed-form"):
            evaluate_condition(model1, spec, SeedSpec(0), n)

    @pytest.mark.parametrize("control", [PredictableControl.constant(0.5),
                                         control_indicator_after(1.0)],
                             ids=["0.5", "indicator:1.0"])
    def test_epsilon_moves_no_value(self, all_models, control):
        # eps scales a <M^c> term, and no path has a continuous part: the
        # reports differ in condition.epsilon alone, cross-check included
        for model in all_models:
            reports = set()
            for eps in (0.1, 0.5, 0.9):
                r = evaluate_condition(model, ConditionSpec("theorem1", control, eps),
                                       SeedSpec(3), 1000)
                doc = r.to_json()
                assert doc["condition"].pop("epsilon") == eps
                reports.add((json.dumps(doc), repr(r.divergence), repr(r.estimate)))
            assert len(reports) == 1

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
        factor_a = quadrature_expectation(eta_d.dist, example3_eta_factor)
        product = factor_a * quadrature_expectation(exp_d.dist, example3_tau_factor)
        assert abs(r.quadrature - product) <= 1e-8 * product

    def test_lemma1_finite_on_all_examples(self, all_models):
        for model in all_models:
            r = evaluate_condition(model, ConditionSpec("lemma1"))
            assert r.verdict == "finite"
            assert r.quadrature > 0.0

    def test_lemma1_example1_oracle(self, model1):
        # E (1+x)(log(1+x) - x/(1+x)) by direct quadrature
        oracle = quadrature_expectation(
            XI, lambda x: example1_exponential(x) * (math.log1p(x) - x / (1.0 + x))
        )
        r = evaluate_condition(model1, ConditionSpec("lemma1"))
        assert abs(r.quadrature - oracle) <= 1e-9 * oracle

    def test_lemma1_example3_bilinear_oracle(self, model3):
        # two independent drivers: E[E(M)(b0+b1)] expands into four
        # single-driver integrals, each written out explicitly here
        eta = make_eta_distribution()
        lj = lambda z: math.log1p(z) - z / (1.0 + z)
        e_u_b0 = quadrature_expectation(eta, lambda x: example1_exponential(x) * lj(x))
        e_u = quadrature_expectation(eta, example1_exponential)

        def exp_factor(weight):
            def g(y):
                e = example2_exponential(y)
                return e * weight(y) if e else 0.0

            return quadrature_expectation(EXP_LAW, g)

        e_v = exp_factor(lambda y: 1.0)
        e_v_b1 = exp_factor(lambda y: lj(math.exp(y)))
        oracle = e_u_b0 * e_v + e_u * e_v_b1

        r = evaluate_condition(model3, ConditionSpec("lemma1"))
        assert r.verdict == "finite"
        assert abs(r.quadrature - oracle) <= 1e-9 * oracle

    @pytest.mark.parametrize("k, verdict", [(1.0, "diverging"),
                                            (2.0, "inconclusive")])
    def test_two_driver_lemma1_open_term_keeps_evidence(self, k, verdict,
                                                        model3):
        # an eta tail heavier by x^k leaves E[e^u] infinite, so a term of
        # the sum does not settle; its family is the reported evidence
        eta = model3.drivers[0]
        law = eta.dist

        def log_density(x):
            value = law.log_density(x)
            tail = x >= 1.0
            value[tail] = value[tail] + k * np.log(x[tail])
            return value

        heavy = dataclasses.replace(eta, dist=dataclasses.replace(
            law, log_density=log_density))
        model = dataclasses.replace(model3, drivers=(heavy, model3.drivers[1]))
        r = evaluate_condition(model, ConditionSpec("lemma1"))
        assert r.verdict == verdict
        assert r.quadrature is None
        assert r.divergence is not None
        assert r.divergence.levels == eta.levels

    def test_report_json_schema_and_determinism(self, model1):
        r1 = evaluate_condition(model1, ConditionSpec("jacod"), SeedSpec(5, 4), 100)
        r2 = evaluate_condition(model1, ConditionSpec("jacod"), SeedSpec(5, 4), 100)
        assert json.dumps(r1.to_json()) == json.dumps(r2.to_json())
        doc = r1.to_json()
        assert set(doc) == {"condition", "verdict", "estimate", "divergence",
                            "quadrature"}
        assert set(doc["estimate"]) == {"mean", "se", "n"}
        assert set(doc["divergence"]) == {"levels", "values", "slope", "model"}
        with pytest.raises(ValueError, match="unknown verdict 'maybe'"):
            dataclasses.replace(r1, verdict="maybe")
        flat = dataclasses.replace(r1.divergence, increasing=False)
        for divergence in (None, flat):
            with pytest.raises(ValueError, match="requires monotone increasing"):
                dataclasses.replace(r1, divergence=divergence)

    def test_estimate_present_iff_mc_ran(self, model1):
        spec = ConditionSpec("theorem1", PredictableControl.constant(1.0))
        r = evaluate_condition(model1, spec)
        assert r.estimate is None
        r = evaluate_condition(model1, spec, SeedSpec(3, 4), 10_000)
        assert r.estimate is not None and r.estimate.n == 10_000

    def test_estimator_label_reflects_what_ran(self, model1):
        for kind, label in (("jacod", "importance-quantile"), ("lemma1", "pathwise")):
            spec = ConditionSpec(kind)
            doc = evaluate_condition(model1, spec, SeedSpec(3, 4), 0).to_json()
            assert doc["condition"]["estimator"] is None
            assert doc["estimate"] is None
            doc = evaluate_condition(model1, spec, SeedSpec(3, 4), 100).to_json()
            assert doc["condition"]["estimator"] == label

    @pytest.mark.parametrize("kind", ["jacod", "lemma1"])
    def test_nonfinite_cross_check_raises(self, kind, model1, monkeypatch):
        # half the values NaN: more than the 0.1% an estimate tolerates;
        # they enter the Monte Carlo values only, the quadrature stays clean
        real = mc._run_streams

        def nan_streams(n, seeds, kernel, what="functional values"):
            def nan_kernel(rng, m):
                values = kernel(rng, m)
                values[::2] = math.nan
                return values

            return real(n, seeds, nan_kernel, what)

        monkeypatch.setattr(mc, "_run_streams", nan_streams)
        with pytest.raises(EstimationError, match="non-finite"):
            evaluate_condition(model1, ConditionSpec(kind), SeedSpec(3, 4), 1000)

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


class TestExample1ExactIncrement:
    """On xi's left branch the example1 ``theorem1(a)`` family obeys
    ``F(d) - F(d0) = ((1 - a)/2) ln(d0/d) + a (d0 - d)/2`` exactly."""

    @pytest.mark.parametrize("a", [0.0, 0.25, 0.5, 0.75, 0.99, 0.995, 0.9999])
    def test_reported_family_obeys_the_increment(self, a, model1):
        r = evaluate_condition(
            model1, ConditionSpec("theorem1", PredictableControl.constant(a)))
        assert r.divergence is not None, r.verdict
        levels, values = r.divergence.levels, r.divergence.values
        assert levels[0] == 1e-2 and len(levels) == 4
        for d, v in zip(levels, values):
            exact = (0.5 * (1.0 - a) * math.log(levels[0] / d)
                     + 0.5 * a * (levels[0] - d))
            assert abs((v - values[0]) - exact) <= 1e-10, (d, v)

    def test_full_control_is_finite_without_a_family(self, model1):
        r = evaluate_condition(
            model1, ConditionSpec("theorem1", PredictableControl.constant(1.0)))
        assert r.verdict == "finite" and r.divergence is None

    def test_deep_levels_raise(self, model1):
        # float x = -1 + d holds d only to about 1e-16/d relative, so these
        # cuts miss the quadrature contract; they raise, never degrade
        with pytest.raises(QuadratureAccuracyError) as exc:
            evaluate_condition(
                model1, ConditionSpec("theorem1", PredictableControl.constant(0.5)),
                levels=(1e-6, 1e-8, 1e-10, 1e-12))
        assert exc.value.achieved > mc._QUAD_ACCEPT_REL * exc.value.value


class TestExample2MartingaleOracle:
    def test_closed_form_integral_is_one(self, model2):
        # E E_tau(M) = e * int_1^inf (1+u) e^{-u} u^{-2} du = e * e^{-1}
        closed = example2_closed_form()
        assert abs(closed - 1.0) < 1e-10

        v = quadrature_expectation(EXP_LAW, example2_exponential)
        assert abs(v - 1.0) < 1e-10


class TestQuadRun:
    """The batched node route against the scalar one, piece by piece."""

    PIECES = [(0.0, 1.0), (4.0, 6.0), (1.0, 2.5), (6.0, math.inf)]

    @staticmethod
    def scalar_exp_weighted(dist, g):
        """``exp(g(x) + log_density(x))`` at one node, ``0.0`` off the
        support; a finite argument that overflows raises."""
        def f(x):
            ld = dist.log_density(x)
            if ld == -math.inf:
                return 0.0
            return exp(g(x) + ld)

        return f

    @classmethod
    def routes(cls, g_scalar):
        def rows(x):
            return elementwise(g_scalar, x), None

        f = cls.scalar_exp_weighted(EXP_LAW, g_scalar)
        return (mc._exp_weighted_rows(EXP_LAW, rows, False),
                lambda x: (elementwise(f, x), None))

    def test_overflow_fails_only_its_piece(self):
        # exp(800 - x) overflows near x = 5, in piece 1 only
        g = lambda x: 800.0 if 4.9 < x < 5.1 else x / 3.0
        batched, scalar = self.routes(g)
        out = mc._quad_run(batched, self.PIECES)
        assert out[1] is None
        for k in (0, 2, 3):
            assert out[k] == mc._quad_run(scalar, [self.PIECES[k]])[0]
        with pytest.raises(OverflowError):
            mc._quad_run(scalar, [self.PIECES[1]])
        with pytest.raises(QuadratureAccuracyError, match="overflowed") as exc:
            mc._sum_pieces(out)
        assert (exc.value.value, exc.value.achieved) == (math.inf, math.inf)

    def test_infinite_exponent_is_not_a_failure(self):
        # exp(inf) is inf, without the OverflowError of a finite argument
        batched, scalar = self.routes(lambda x: math.inf)
        out = mc._quad_run(batched, self.PIECES[:1])
        assert out[0] is not None
        assert repr(out) == repr(mc._quad_run(scalar, self.PIECES[:1]))


class TestIntegrationWork:
    """Each support piece is integrated once per factor, and a diverging
    factor never asks for its full-support integral."""

    @pytest.mark.parametrize("name, spec, pieces, diverging", [
        ("example1", ConditionSpec("jacod"), 5, {"xi"}),
        ("example1", ConditionSpec("theorem1", PredictableControl.constant(1.0)),
         6, set()),
        ("example2", ConditionSpec("jacod"), 4, {"tau1"}),
        ("example3", ConditionSpec("theorem1", PredictableControl.constant(0.5)),
         10, {"eta"}),
        ("example3", ConditionSpec("theorem1", control_indicator_after(1.0)),
         11, set()),
    ])
    def test_quad_pieces_per_verdict(self, name, spec, pieces, diverging,
                                     all_models, monkeypatch):
        model = {m.name: m for m in all_models}[name]
        integrated, clips = [], []
        quad_run, clipped_pieces = mc._quad_run, mc._clipped_pieces

        def counting_run(values, pieces):
            integrated.extend(pieces)
            return quad_run(values, pieces)

        def recording_clip(support, truncation):
            clips.append((support, truncation))
            return clipped_pieces(support, truncation)

        monkeypatch.setattr(mc, "_quad_run", counting_run)
        monkeypatch.setattr(mc, "_clipped_pieces", recording_clip)
        report = evaluate_condition(model, spec)

        assert report.verdict == ("diverging" if diverging else "finite")
        assert len(integrated) == pieces
        full = [support for support, truncation in clips if truncation is None]
        assert full == [d.dist.support for d in model.drivers
                        if d.name not in diverging]

    @pytest.mark.parametrize("kind", ["protter_shimbo", "lepingle_memin"])
    def test_log_scale_kinds_integrate_nothing(self, kind, model2, monkeypatch):
        integrated = []
        quad_run = mc._quad_run

        def counting_run(values, pieces):
            integrated.extend(pieces)
            return quad_run(values, pieces)

        monkeypatch.setattr(mc, "_quad_run", counting_run)
        spec = ConditionSpec(kind)
        report = evaluate_condition(model2, spec)

        assert report.verdict == "diverging"
        assert integrated == []
        # each value is the log integrand g(T) + log_density(T) at the cut T
        timed, _, _ = pathwise_functional(spec, model2)
        driver = model2.drivers[0]
        expected = []
        for level in driver.levels:
            path = model2.build(level)
            expected.append(timed(path, path.horizon) + driver.dist.log_density(level))
        assert report.divergence.values == tuple(expected)

    @pytest.mark.parametrize("name, spec", [
        ("example1", ConditionSpec("jacod")),
        ("example2", ConditionSpec("jacod")),
        ("example3", ConditionSpec("theorem1", PredictableControl.constant(0.5))),
    ], ids=["example1_jacod", "example2_jacod", "example3_theorem1_a05"])
    def test_truncations_telescope(self, name, spec, all_models, monkeypatch):
        # the intervals a factor integrates for its truncated family never
        # overlap beyond a shared endpoint; a finite factor's full-support
        # integral, which follows its family, is left out
        model = {m.name: m for m in all_models}[name]
        family: dict[int, list[tuple[float, float]]] = {}
        integrands, full = [], set()
        quad_run, clipped_pieces = mc._quad_run, mc._clipped_pieces

        def recording_run(values, pieces):
            if values not in integrands:
                integrands.append(values)
            k = integrands.index(values)
            if k not in full:
                family.setdefault(k, []).extend(pieces)
            return quad_run(values, pieces)

        def recording_clip(support, truncation):
            if truncation is None:
                full.add(len(integrands) - 1)
            return clipped_pieces(support, truncation)

        monkeypatch.setattr(mc, "_quad_run", recording_run)
        monkeypatch.setattr(mc, "_clipped_pieces", recording_clip)
        evaluate_condition(model, spec)

        assert len(family) == len(model.drivers)
        for intervals in family.values():
            intervals.sort()
            for (_, hi), (lo, _) in zip(intervals, intervals[1:]):
                assert lo >= hi


def _finite_family_cases():
    """Every finite (model, spec) in ``cli.CLAIMS``, plus ``indicator:2.0``
    where it is finite."""
    cases = [(name, spec) for name, rows in CLAIMS.values()
             for spec, verdict, _ in rows if verdict == "finite"]
    late = ConditionSpec("theorem1", control_indicator_after(2.0))
    return cases + [("example2", late), ("example3", late)]


class TestFamilyTimes:
    """``E exp F(t ^ horizon)`` at fixed family times ``t``."""

    @pytest.mark.parametrize("name, spec", _finite_family_cases(),
                             ids=lambda v: v if isinstance(v, str) else v.label())
    def test_value_nondecreasing_in_time(self, name, spec, all_models):
        # the expectation, not the path: a path's functional falls between
        # its jumps (example2's drift), yet its mean over the law rises
        model = {m.name: m for m in all_models}[name]
        timed, _, _ = pathwise_functional(spec, model)
        if name == "example2":
            path = model.build(5.0)
            assert timed(path, 3.5) < timed(path, 2.5)

        breaks = spec.control.breaks
        grid = sorted({k / 10 for k in range(1, 41)}
                      | {b + s * 1e-3 for b in (*breaks, 1.0) for s in (-1, 1)})
        horizon = evaluate_condition(model, spec)
        assert horizon.verdict == "finite"
        values = [mc._value_at_time(model, timed, t, breaks) for t in grid]
        # within the quadrature contract: saturated values differ in the
        # last bits only
        tol = lambda v: mc._QUAD_ACCEPT_REL * v
        for t, earlier, later in zip(grid[1:], values, values[1:]):
            assert later >= earlier - tol(earlier), t
        for t, v in zip(grid, values):
            assert v <= horizon.quadrature + tol(horizon.quadrature), t

    @pytest.mark.parametrize("spec, times", [
        # unsplit, 1.9993... failed to converge and was logged and dropped
        (ConditionSpec("theorem1", PredictableControl.constant(0.25)),
         (3.9200392078550257, 1.9993936601883728)),
        # unsplit, the value at 3.3486... read 3.7e-12 above the horizon's
        (ConditionSpec("theorem1", control_indicator_after(1.0)),
         (0.41674596973046985, 3.3486297013362023)),
        # the value at 3.9 rounds one ulp above the horizon's
        (ConditionSpec("theorem1", PredictableControl.constant(0.75)), (3.9,)),
    ], ids=["a=0.25", "indicator:1.0", "a=0.75"])
    def test_family_times_keep_the_horizon_value(self, spec, times, model2,
                                                 caplog):
        with caplog.at_level(logging.WARNING, logger="doleans.mc"):
            family = evaluate_condition(model2, spec, times=times)
        assert not [r for r in caplog.records if "skipped" in r.getMessage()]
        assert family.quadrature == evaluate_condition(model2, spec).quadrature

    @staticmethod
    def reference_value_at_time(model, timed, t, breaks):
        """``mc._value_at_time`` node by node: the scalar split of
        ``reference_factors`` and a scalar ``exp(g + log_density)`` per node,
        each driver's support split at the kinks before ``t``."""
        kinks = (t, *(b for b in breaks if b < t))
        value = 1.0
        for driver, g in reference_factors(
                model, lambda p: timed(p, min(t, p.horizon))):
            cuts = [] if driver.start is None else sorted(
                {k - driver.start for k in kinks})
            f = TestQuadRun.scalar_exp_weighted(driver.dist, g)
            try:
                outcomes = mc._quad_run(lambda x: (elementwise(f, x), None),
                                        mc._split_pieces(driver.dist.support, cuts))
            except OverflowError:
                outcomes = [None]
            value *= mc._sum_pieces(outcomes)
        return value

    @pytest.mark.parametrize("name, control", [
        ("example1", PredictableControl.constant(1.0)),
        *(("example2", PredictableControl.constant(a))
          for a in (0.25, 0.5, 0.75, 1.0, 0.6180339887498949)),
        ("example2", control_indicator_after(1.0)),
        ("example3", control_indicator_after(1.0)),
    ], ids=lambda v: v if isinstance(v, str) else v.label())
    def test_value_at_time_equals_scalar_reference(self, name, control,
                                                   all_models):
        # the finite theorem1 controls, at times as the benchmark draws them
        model = {m.name: m for m in all_models}[name]
        timed = pathwise_functional(ConditionSpec("theorem1", control), model).exponent
        for t in (0.0, 0.41674596973046985, 1.0, 1.9993936601883728,
                  3.3486297013362023, 3.9):
            expected = self.reference_value_at_time(model, timed, t, control.breaks)
            value = mc._value_at_time(model, timed, t, control.breaks)
            assert repr(value) == repr(expected), t

    def test_family_time_overflow_is_an_accuracy_error(self, model2):
        # an OverflowError the exponent raises at a node fails the sum as
        # a node whose value overflowed does
        def timed(path, t):
            if path.jumps and path.jumps[0][0] > 5.0:
                raise OverflowError("math range error")
            return 0.0

        with pytest.raises(QuadratureAccuracyError, match="overflowed") as exc:
            mc._value_at_time(model2, timed, 2.0)
        assert (exc.value.value, exc.value.achieved) == (math.inf, math.inf)

    def test_family_time_missing_the_contract_raises(self, model2, monkeypatch):
        # such a time is an error, not a value dropped from the family
        def fails(model, timed, t, breaks=()):
            raise QuadratureAccuracyError("forced miss", math.nan, math.inf)

        monkeypatch.setattr(mc, "_value_at_time", fails)
        spec = ConditionSpec("theorem1", PredictableControl.constant(0.5))
        assert evaluate_condition(model2, spec).verdict == "finite"
        with pytest.raises(QuadratureAccuracyError, match="forced miss"):
            evaluate_condition(model2, spec, times=(2.0,))

    def test_family_times_cost(self, model2):
        # integrand calls spent on two family times, counted on the law
        law = model2.drivers[0].dist
        calls = 0

        def counting(x):
            nonlocal calls
            calls += 1
            return law.log_density(x)

        driver = dataclasses.replace(
            model2.drivers[0], dist=dataclasses.replace(law, log_density=counting))
        model = dataclasses.replace(model2, drivers=(driver,))
        spec = ConditionSpec("theorem1", PredictableControl.constant(0.5))
        evaluate_condition(model, spec)
        horizon_only = calls
        calls = 0
        evaluate_condition(model, spec, times=(0.999, 2.0))
        assert calls - horizon_only <= 400

    @pytest.mark.parametrize("name, spec", [
        ("example2", ConditionSpec("theorem1", PredictableControl.constant(0.5))),
        ("example3", ConditionSpec("theorem1", control_indicator_after(1.0))),
    ], ids=["example2", "example3"])
    @pytest.mark.parametrize("t", [100.0, 1e4, 1e300])
    def test_time_past_the_law_gives_the_horizon_value(self, name, spec, t,
                                                       all_models):
        # a split there would leave the law's bulk between the quadrature
        # nodes of one wide first piece, which then reads 0.0
        model = {m.name: m for m in all_models}[name]
        timed, _, _ = pathwise_functional(spec, model)
        value = mc._value_at_time(model, timed, t, spec.control.breaks)
        horizon = evaluate_condition(model, spec).quadrature
        assert math.isclose(value, horizon, rel_tol=mc._QUAD_ACCEPT_REL)


# ----------------------------------------------------------------------
# The kind table: every per-kind fact comes from the integrand record
# ----------------------------------------------------------------------

def _kind_spec(kind: str) -> ConditionSpec:
    control = PredictableControl.constant(0.5) if kind == "theorem1" else None
    return ConditionSpec(kind, control)


class TestKindTable:
    def test_kinds_are_the_table_keys(self):
        assert CONDITION_KINDS == tuple(stochexp._FUNCTIONALS)

    def test_cli_kind_choices_are_the_kinds_with_hyphens(self):
        parser = cli._build_parser()
        commands = next(a for a in parser._actions
                        if isinstance(a, argparse._SubParsersAction))
        kind = next(a for a in commands.choices["condition"]._actions
                    if a.dest == "kind")
        assert sorted(kind.choices) == sorted(k.replace("_", "-")
                                              for k in CONDITION_KINDS)
        assert sorted(cli._KIND_FLAGS[c] for c in kind.choices) == \
            sorted(CONDITION_KINDS)

    @pytest.mark.parametrize("kind", CONDITION_KINDS)
    def test_no_batch_exactly_for_the_log_integrand_kinds(self, kind, model2,
                                                          monkeypatch):
        # a kind without a batch rejects n >= 2 and is decided from its log
        # integrand L(T) = g(T) + log_density(T) at each cut, with no
        # quadrature; every other kind integrates
        def no_quadrature(values, pieces):
            raise AssertionError("quadrature ran")

        spec = _kind_spec(kind)
        exponent, weight, f_batch = pathwise_functional(spec, model2)
        monkeypatch.setattr(mc, "_quad_run", no_quadrature)
        if f_batch is None:
            with pytest.raises(ValueError, match="no Monte Carlo cross-check"):
                evaluate_condition(model2, spec, SeedSpec(0), 100)
            driver = model2.drivers[0]
            thresholds = tuple(exponent(p, p.horizon)
                               for p in map(model2.build, driver.levels))
            r = evaluate_condition(model2, spec)
            assert r.divergence.levels == thresholds
            assert r.divergence.values == tuple(
                g + driver.dist.log_density(T)
                for g, T in zip(thresholds, driver.levels))
        else:
            with pytest.raises(AssertionError, match="quadrature ran"):
                evaluate_condition(model2, spec, SeedSpec(0), 100)
        if weight is not None:
            with pytest.raises(ValueError, match="no family times"):
                evaluate_condition(model2, spec, times=(0.5,))
