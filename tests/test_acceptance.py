"""Acceptance suite: the library's exit criteria.

Each test exercises one criterion end to end at its stated tolerance and
prints one pass/fail line (run with ``pytest -s tests/test_acceptance.py``
to see them).  A failed assertion marks the criterion failed; the printed
line carries the measured values.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from doleans import (
    ConditionSpec,
    PredictableControl,
    SeedSpec,
    control_indicator_after,
    decompose,
    estimate_batch,
    evaluate_condition,
    jacod_functional,
    jump_term_reduction_gap,
    lemma2_lhs,
    lemma3_gap,
    make_eta_distribution,
    make_first_jump_time,
    make_xi_distribution,
    quadrature_expectation,
    sde_residual,
    stoch_exponential,
    stoch_exponential_batch,
    theorem1_functional,
)
from doleans.cli import (
    example1_exponential,
    example2_bound,
    example3_eta_factor,
    example3_tau_factor,
)

from conftest import example2_closed_form

XI = make_xi_distribution()
ETA = make_eta_distribution()
EXP_LAW = make_first_jump_time()

CONTROL_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    record = {}
    try:
        yield record
    except BaseException:
        print(f"[criterion {number:2d}] FAIL  {description}")
        raise
    elapsed = time.perf_counter() - start
    detail = record.get("detail", "")
    print(f"[criterion {number:2d}] PASS  {description}"
          f"  ({elapsed:.2f}s < {budget_seconds}s){detail}")
    assert elapsed < budget_seconds


def test_criterion_01_density_normalization_and_means():
    with criterion(1, "densities normalize to 1 and have mean 0", 1.0) as rec:
        norm_f = quadrature_expectation(XI, lambda x: 1.0)
        norm_g = quadrature_expectation(ETA, lambda x: 1.0)
        mean_f = quadrature_expectation(XI, lambda x: x)
        mean_g = quadrature_expectation(ETA, lambda x: x)
        assert abs(norm_f - 1.0) < 1e-8
        assert abs(norm_g - 1.0) < 1e-8
        assert abs(mean_f) < 1e-8
        assert abs(mean_g) < 1e-8
        rec["detail"] = (f"  norms=({norm_f:.12f}, {norm_g:.12f})"
                         f" means=({mean_f:.2e}, {mean_g:.2e})")


def test_criterion_02_jacod_divergence_example1(model1):
    with criterion(2, "example1 jump condition diverges with log slope 1/2",
                   5.0) as rec:
        r = evaluate_condition(model1, ConditionSpec("jacod"),
                               levels=(1e-2, 1e-3, 1e-4, 1e-5))
        assert r.verdict == "diverging"
        assert 0.45 <= r.divergence.slope <= 0.55
        assert r.divergence.r_squared >= 0.99
        rec["detail"] = (f"  slope={r.divergence.slope:.6f}"
                         f" r2={r.divergence.r_squared:.6f}")


def test_criterion_03_theorem1_finiteness_example1(model1):
    with criterion(3, "example1 control condition finite at full control",
                   30.0) as rec:
        spec = ConditionSpec("theorem1", PredictableControl.constant(1.0))
        r = evaluate_condition(model1, spec, SeedSpec(101, 32), 1_000_000)
        assert r.verdict == "finite"
        assert r.quadrature <= 2.5
        assert abs(r.estimate.mean - r.quadrature) <= 3.0 * r.estimate.se
        rec["detail"] = (f"  value={r.quadrature:.9f}"
                         f" mc={r.estimate.mean:.6f}±{r.estimate.se:.1e}")


def test_criterion_04_jacod_divergence_example2():
    with criterion(4, "example2 truncated exponential moment equals horizon",
                   5.0) as rec:
        levels = (10.0, 20.0, 40.0, 80.0)
        values = []
        for T in levels:
            v = quadrature_expectation(EXP_LAW, math.exp, truncation=(None, T))
            assert abs(v - T) <= 0.01 * T
            values.append(v)
        from doleans import detect_divergence

        table = dict(zip(levels, values))
        ev = detect_divergence(lambda T: table[T], levels, "linear")
        assert ev.diverging
        assert 0.99 <= ev.slope <= 1.01
        rec["detail"] = f"  slope={ev.slope:.6f}"


def test_criterion_05_theorem1_finiteness_example2(model2):
    with criterion(5, "example2 control condition finite under its bound",
                   5.0) as rec:
        details = []
        for a in (0.25, 0.5, 0.75, 1.0):
            spec = ConditionSpec("theorem1", PredictableControl.constant(a))
            r = evaluate_condition(model2, spec)
            bound = example2_bound(a)
            assert r.verdict == "finite"
            assert r.quadrature <= bound
            details.append(f"{r.quadrature:.4f}<={bound:.1f}")
        rec["detail"] = "  " + " ".join(details)


def test_criterion_06_example3_contrast(model3):
    with criterion(6, "example3: constants diverge, indicator control is finite",
                   30.0) as rec:
        for a in CONTROL_GRID:
            spec = ConditionSpec("theorem1", PredictableControl.constant(a))
            r = evaluate_condition(model3, spec)
            assert r.verdict == "diverging", f"a={a}"

        spec = ConditionSpec("theorem1", control_indicator_after(1.0))
        r = evaluate_condition(model3, spec)
        assert r.verdict == "finite"

        # the finite value factorizes over the independent drivers
        factor_a = quadrature_expectation(ETA, example3_eta_factor)
        product = factor_a * quadrature_expectation(EXP_LAW, example3_tau_factor)
        assert abs(r.quadrature - product) <= 1e-8 * product
        rec["detail"] = f"  finite value={r.quadrature:.9f} product={product:.9f}"


def test_criterion_07_martingale_property(model1, model2):
    with criterion(7, "E[E_T(M)] equals 1 for examples 1 and 2", 60.0) as rec:
        # example1's horizon is 1, so both estimates are of E_T at the horizon
        est1 = estimate_batch(
            model1, stoch_exponential_batch, 1_000_000, SeedSpec(71, 32),
        )
        assert abs(est1.mean - 1.0) <= 3.0 * est1.se

        est2 = estimate_batch(
            model2, stoch_exponential_batch, 1_000_000, SeedSpec(72, 32),
        )
        assert abs(est2.mean - 1.0) <= 3.0 * est2.se

        exact1 = quadrature_expectation(XI, example1_exponential)
        assert abs(exact1 - 1.0) <= 1e-8

        # derived closed form: e * int_1^inf (1+u) e^{-u} / u^2 du == 1
        closed = example2_closed_form()
        assert abs(closed - 1.0) <= 1e-10
        rec["detail"] = (f"  mc1={est1.mean:.5f}±{est1.se:.1e}"
                         f" mc2={est2.mean:.5f}±{est2.se:.1e}"
                         f" quad1={exact1:.10f} closed2={closed:.10f}")


def test_criterion_08_product_identity(all_models):
    with criterion(8, "measure-change product identity to 1e-12 relative",
                   10.0) as rec:
        controls = [PredictableControl.constant(a) for a in CONTROL_GRID]
        controls.append(control_indicator_after(1.0))
        worst = 0.0
        for model in all_models:
            for ctrl in controls:
                for i in range(1000):
                    p = model.sampler(81, i)
                    gap = abs(decompose(p, ctrl).identity_relative_error())
                    worst = max(worst, gap)
        assert worst <= 1e-12
        rec["detail"] = f"  worst relative residual={worst:.2e}"


def test_criterion_09_sde_residual(all_models):
    with criterion(9, "defining-equation residual below 1e-9", 10.0) as rec:
        worst = 0.0
        for model in all_models:
            for i in range(1000):
                p = model.sampler(91, i)
                r = abs(sde_residual(p, p.horizon))
                bound = 1e-9 * max(1.0, stoch_exponential(p, p.horizon))
                assert r <= bound
                worst = max(worst, r)
        rec["detail"] = f"  worst residual={worst:.2e}"


def test_criterion_10_lemma_suites():
    with criterion(10, "scalar inequality suites hold", 10.0) as rec:
        rng = np.random.Generator(np.random.Philox(key=1001))
        x = rng.random(1_000_000)
        e = rng.uniform(1e-12, 1.0 - 1e-12, 1_000_000)
        m2 = lemma2_lhs(x, e).min()
        assert m2 >= 0.0

        a = rng.random(100_000)
        dm = np.exp(rng.uniform(math.log(1e-9), math.log(1e6 + 1.0),
                                100_000)) - 1.0
        m3 = lemma3_gap(a, dm).min()
        assert m3 >= -1e-12

        a2 = rng.random(100_000)
        dm2 = np.exp(rng.uniform(math.log(1e-9), math.log(1e3 + 1.0),
                                 100_000)) - 1.0
        mono = jump_term_reduction_gap(a2, dm2).min()
        assert mono >= -1e-12
        rec["detail"] = f"  minima=({m2:.2e}, {m3:.2e}, {mono:.2e})"


def test_criterion_11_reduction_invariant(all_models):
    with criterion(11, "zero-control evaluator is bit-identical to the "
                       "jump condition", 1.0) as rec:
        zero = PredictableControl.constant(0.0)
        count = 0
        for model in all_models:
            for i in range(100):
                p = model.sampler(111, i)
                lhs = theorem1_functional(p, zero, 0.5, p.horizon).log_value
                rhs = jacod_functional(p, p.horizon).log_value
                assert lhs == rhs
                count += 1
        rec["detail"] = f"  {count} paths bit-identical"
