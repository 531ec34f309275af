"""Batch kernels over PathBatch against the scalar per-path functionals, bit for bit."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from doleans import (
    CONDITION_KINDS,
    ConditionSpec,
    Estimate,
    ExpCompensatorDrift,
    JumpPath,
    PathBatch,
    PredictableControl,
    ScaledDrift,
    SeedSpec,
    control_indicator_after,
    estimate_batch,
    evaluate_condition,
    example1_model,
    example2_model,
    example3_model,
    jacod_batch,
    jacod_functional,
    lemma1_batch,
    lemma1_functional,
    log_stoch_exponential,
    log_stoch_exponential_batch,
    stoch_exponential,
    stoch_exponential_batch,
    theorem1_batch,
    theorem1_functional,
)
from doleans import mc
from doleans.mc import EstimationError
from doleans.paths import stream_generator
from doleans.stochexp import exp_or_inf, pathwise_functional
from doleans.transcendental import exp, log

MODELS = {m.name: m for m in (example1_model(), example2_model(), example3_model())}


def bits(values) -> list[str]:
    return [float(v).hex() for v in values]


# ----------------------------------------------------------------------
# Driver values: the support, its edges, and jump times past the 700 cap
# ----------------------------------------------------------------------

XI_VALUES = st.one_of(
    st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
    st.sampled_from([float(np.nextafter(-1.0, 0.0)), float(np.nextafter(1.0, 0.0)),
                     0.0, -0.0, 5e-324, -5e-324]),
)
ETA_VALUES = st.one_of(
    st.floats(-0.5, 0.0),
    st.floats(1.0, 1e300),
    st.sampled_from([-0.5, -0.0, 0.0, 1.0, 1e300]),
)
TAU_VALUES = st.one_of(
    st.floats(0.0, 800.0),
    st.floats(0.0, 2.0 ** 61),
    st.sampled_from([0.0, 5e-324, 1e-300, 1e-15, 2e-15, 699.9999999999999, 700.0,
                     float(np.nextafter(700.0, math.inf)), 709.0, 710.0, 2.0 ** 60]),
)
DRIVER_VALUES = {
    "example1": st.tuples(XI_VALUES),
    "example2": st.tuples(TAU_VALUES),
    "example3": st.tuples(ETA_VALUES, TAU_VALUES),
}
# eta jumps near the float maximum push log E_T past 709.78, where E_T
# overflows to inf
HUGE_ETA = st.one_of(st.floats(1e307, 1.7976931348623157e308),
                     st.sampled_from([1e308, 1.7976931348623157e308]))
EXPONENTIAL_DRIVER_VALUES = dict(
    DRIVER_VALUES, example3=st.tuples(st.one_of(ETA_VALUES, HUGE_ETA), TAU_VALUES))

UNIT = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.5, 1.0]))
# eps = 0.5 meets 1 - a == eps at a = 0.5, the edge of the eps term
EPS = st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                st.just(0.5))
# a break past e^709 would overflow the compensator drift if it were evaluated
BREAK = st.one_of(st.floats(0.0, 4.0),
                  st.sampled_from([0.0, 1.0, 1e-300, 2.0, 750.0]))


@st.composite
def controls(draw) -> PredictableControl:
    kind = draw(st.sampled_from(["zero", "one", "constant", "indicator", "piecewise"]))
    if kind == "zero":
        return PredictableControl.constant(0.0)
    if kind == "one":
        return PredictableControl.constant(1.0)
    if kind == "constant":
        return PredictableControl.constant(draw(UNIT))
    if kind == "indicator":
        return control_indicator_after(1.0)
    breaks = sorted(draw(st.sets(BREAK, min_size=2, max_size=4)))
    values = draw(st.lists(UNIT, min_size=len(breaks) + 1, max_size=len(breaks) + 1))
    return PredictableControl(tuple(breaks), tuple(values))


@st.composite
def model_batches(draw, driver_values=DRIVER_VALUES):
    name = draw(st.sampled_from(sorted(MODELS)))
    rows = draw(st.lists(driver_values[name], min_size=1, max_size=12))
    return MODELS[name], rows


def scalar_paths(model, rows):
    return [model.build(*vals) for vals in rows]


def build_batch(model, rows) -> PathBatch:
    columns = [np.array(col, dtype=float) for col in zip(*rows)]
    return model.build_batch(*columns)


@given(model_batches())
@settings(max_examples=300, deadline=None)
def test_build_batch_rows_equal_build(case):
    model, rows = case
    batch = build_batch(model, rows)
    assert len(batch) == len(rows)
    for i, path in enumerate(scalar_paths(model, rows)):
        row = batch.path(i)
        assert bits([row.horizon]) == bits([path.horizon])
        assert [bits(j) for j in row.jumps] == [bits(j) for j in path.jumps]
        assert row.drift.kind == path.drift.kind


@given(model_batches())
@settings(max_examples=300, deadline=None)
def test_jacod_and_lemma1_batches_equal_scalar(case):
    model, rows = case
    batch = build_batch(model, rows)
    paths = scalar_paths(model, rows)
    assert bits(jacod_batch(batch)) == bits(
        jacod_functional(p, p.horizon).log_value for p in paths
    )
    assert bits(lemma1_batch(batch)) == bits(
        lemma1_functional(p, p.horizon) for p in paths
    )


def reprs(values) -> list[str]:
    return [repr(float(v)) for v in values]


@given(model_batches(EXPONENTIAL_DRIVER_VALUES))
@settings(max_examples=300, deadline=None)
def test_stoch_exponential_batches_equal_scalar(case):
    model, rows = case
    batch = build_batch(model, rows)
    paths = [batch.path(i) for i in range(len(batch))]
    assert reprs(log_stoch_exponential_batch(batch)) == reprs(
        log_stoch_exponential(p, p.horizon) for p in paths
    )
    assert reprs(stoch_exponential_batch(batch)) == reprs(
        stoch_exponential(p, p.horizon) for p in paths
    )


def test_stoch_exponential_batch_overflows_to_inf():
    batch = MODELS["example3"].build_batch(np.array([1.7e308, 1.0]),
                                           np.array([1e-15, 1.0]))
    assert log_stoch_exponential_batch(batch)[0] > 709.79
    paths = [batch.path(i) for i in range(len(batch))]
    expected = [stoch_exponential(p, p.horizon) for p in paths]
    assert expected[0] == math.inf
    assert reprs(stoch_exponential_batch(batch)) == reprs(expected)


@given(model_batches(), controls(), EPS)
@settings(max_examples=500, deadline=None)
def test_theorem1_batch_equals_scalar(case, a, eps):
    model, rows = case
    batch = build_batch(model, rows)
    expected = [theorem1_functional(p, a, eps, p.horizon).log_value
                for p in scalar_paths(model, rows)]
    assert bits(theorem1_batch(batch, a)) == bits(expected)


@given(model_batches(), controls(), EPS)
@settings(max_examples=300, deadline=None)
def test_kind_table_batch_equals_its_scalar_integrand(case, a, eps):
    model, rows = case
    batch = build_batch(model, rows)
    paths = [batch.path(i) for i in range(len(batch))]
    specs = [ConditionSpec("jacod"), ConditionSpec("theorem1", a, eps),
             ConditionSpec("lemma1")]
    for spec in specs:
        exponent, weight, f_batch = pathwise_functional(spec, model)
        assert (weight is None) == (spec.kind != "lemma1")
        if weight is None:
            expected = [exponent(p, p.horizon) for p in paths]
        else:
            expected = [exp_or_inf(exponent(p, p.horizon)) * weight(p, p.horizon)
                        for p in paths]
        assert bits(f_batch(batch)) == bits(expected)


def test_kind_table_batch_kernels():
    # every other kind is decided from its log integrand and has no batch
    with_batch = {kind for kind in CONDITION_KINDS
                  if pathwise_functional(ConditionSpec(
                      kind, PredictableControl.constant(0.5) if kind == "theorem1"
                      else None), MODELS["example2"])[2] is not None}
    assert with_batch == {"jacod", "theorem1", "lemma1"}


@st.composite
def synthetic_batches(draw):
    """Rows with k shared-layout jumps under a scaled compensator drift, as
    PathBatch and as JumpPaths."""
    drift = ScaledDrift(ExpCompensatorDrift(draw(st.sampled_from([0.0, 1.0]))),
                        draw(st.floats(-1.0, 1.0)))
    k = draw(st.integers(0, 3))
    paths = []
    for _ in range(draw(st.integers(1, 8))):
        times = sorted(draw(st.sets(st.floats(1e-3, 4.0), min_size=k, max_size=k)))
        last = times[-1] if times else 0.0
        horizon = last + draw(st.one_of(st.sampled_from([0.0, 1.0]),
                                        st.floats(0.0, 2.0)))
        sizes = draw(st.lists(st.floats(-0.99, 50.0), min_size=k, max_size=k))
        paths.append(JumpPath(horizon, tuple(zip(times, sizes)), drift))
    jumps = np.array([p.jumps for p in paths]).reshape(len(paths), k, 2)
    batch = PathBatch(np.array([p.horizon for p in paths]), jumps[:, :, 0],
                      jumps[:, :, 1], drift)
    return batch, paths


@given(synthetic_batches(), controls(), EPS)
@settings(max_examples=500, deadline=None)
def test_batches_with_drift_equal_scalar(case, a, eps):
    batch, paths = case
    horizons = batch.horizon.tolist()
    assert bits(batch.drift.array(batch.horizon)) == bits(map(batch.drift, horizons))
    assert bits(theorem1_batch(batch, a)) == bits(
        theorem1_functional(p, a, eps, p.horizon).log_value for p in paths
    )
    assert bits(jacod_batch(batch)) == bits(
        jacod_functional(p, p.horizon).log_value for p in paths
    )
    assert bits(lemma1_batch(batch)) == bits(
        lemma1_functional(p, p.horizon) for p in paths
    )
    assert bits(log_stoch_exponential_batch(batch)) == bits(
        log_stoch_exponential(p, p.horizon) for p in paths
    )


def test_theorem1_batch_skips_breaks_past_every_horizon():
    # the drift e^750 overflows; like the scalar path, the kernel must not
    # evaluate it at a break no row reaches
    batch = MODELS["example2"].build_batch(np.array([0.5, 3.0, 700.0]))
    for a in (control_indicator_after(750.0),
              PredictableControl((2.0, 750.0, 800.0), (0.2, 0.4, 0.6, 0.8))):
        paths = [batch.path(i) for i in range(len(batch))]
        expected = [theorem1_functional(p, a, 0.5, p.horizon).log_value for p in paths]
        assert bits(theorem1_batch(batch, a)) == bits(expected)


def test_theorem1_batch_sums_many_segments_in_order():
    # up to four control segments per row, summed in segment order from 0.0
    # as the scalar kernel sums them; with more than two segments that sum
    # can round differently from math.fsum, so the order must match
    tau = np.random.Generator(np.random.Philox(key=5)).uniform(0.0, 6.0, 5000)
    batch = MODELS["example2"].build_batch(tau)
    a = PredictableControl((0.5, 1.0, 2.0), (0.3, 0.7, 0.1, 0.9))
    paths = [batch.path(i) for i in range(len(batch))]
    expected = [theorem1_functional(p, a, 0.5, p.horizon).log_value for p in paths]
    assert bits(theorem1_batch(batch, a)) == bits(expected)


def test_theorem1_batch_at_zero_control_equals_jacod_batch():
    rng = np.random.Generator(np.random.Philox(key=3))
    for model in MODELS.values():
        batch = model.build_batch(*model.driver_columns(rng, 500))
        zero = theorem1_batch(batch, PredictableControl.constant(0.0))
        assert bits(zero) == bits(jacod_batch(batch))


class TestPathBatchInvariants:
    def test_rejects_jump_at_minus_one(self):
        with pytest.raises(ValueError):
            PathBatch(np.ones(2), np.ones((2, 1)), np.array([[0.5], [-1.0]]))

    def test_rejects_unordered_jumps(self):
        with pytest.raises(ValueError):
            PathBatch(np.full(1, 2.0), np.array([[1.5, 1.0]]), np.full((1, 2), 0.1))

    def test_rejects_jump_beyond_horizon(self):
        with pytest.raises(ValueError):
            PathBatch(np.ones(1), np.array([[1.5]]), np.array([[0.1]]))

    def test_rejects_jump_at_zero(self):
        with pytest.raises(ValueError):
            PathBatch(np.ones(1), np.array([[0.0]]), np.array([[0.1]]))

    def test_rejects_negative_horizon(self):
        with pytest.raises(ValueError):
            PathBatch(np.array([-1.0]), np.zeros((1, 0)), np.zeros((1, 0)))

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            PathBatch(np.ones(2), np.ones((2, 1)), np.ones((2, 2)))


@pytest.mark.parametrize("seed, i", [(0, 0), (8, 2), (99, 7), (2**64 - 1, 0),
                                     (12345, 1000)])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_sampler_is_row_zero_of_the_stream_batch(name, seed, i):
    model = MODELS[name]
    rng = np.random.Generator(np.random.Philox(key=seed).jumped(i))
    row = model.build_batch(*model.driver_columns(rng, 1)).path(0)
    path = model.sampler(seed, i)
    assert path == row
    assert bits([path.horizon]) == bits([row.horizon])
    assert [bits(j) for j in path.jumps] == [bits(j) for j in row.jumps]
    assert path.drift.kind == row.drift.kind


@pytest.mark.parametrize("name", sorted(MODELS))
@given(seed=st.integers(0, 2**64 - 1), i=st.integers(0, 2**72 - 1))
@settings(max_examples=150, deadline=None)
def test_sampler_is_row_zero_of_the_stream_batch_property(name, seed, i):
    # the sampler draws its row on floats; the oracle is the one-row batch
    # of the generator Philox(key=seed).jumped(i) reaches
    model = MODELS[name]
    rng = np.random.Generator(np.random.Philox(key=seed).jumped(i))
    row = model.build_batch(*model.driver_columns(rng, 1)).path(0)
    path = model.sampler(seed, i)
    assert bits([path.horizon]) == bits([row.horizon])
    assert [bits(j) for j in path.jumps] == [bits(j) for j in row.jumps]
    assert path.drift.kind == row.drift.kind


class _ZeroUniforms:
    def random(self, size):
        return np.zeros(size)

    @staticmethod
    def stream_uniforms(seed, stream, count):
        return [0.0] * count


@pytest.mark.parametrize("name", sorted(MODELS))
def test_sampler_floors_a_zero_uniform(name, monkeypatch):
    # a zero draw (2^-53 per uniform) is raised to the 1e-300 floor as in
    # driver_columns; xi at u = 0 would be the excluded jump size -1
    model = MODELS[name]
    monkeypatch.setattr("doleans.paths._stream_uniforms", _ZeroUniforms.stream_uniforms)
    row = model.build_batch(*model.driver_columns(_ZeroUniforms(), 1)).path(0)
    path = model.sampler(0, 0)
    assert bits([path.horizon]) == bits([row.horizon])
    assert [bits(j) for j in path.jumps] == [bits(j) for j in row.jumps]


# ----------------------------------------------------------------------
# evaluate_condition estimates against a per-path reference loop
# ----------------------------------------------------------------------

def reference_streams(seeds: SeedSpec, n: int):
    """``(rng, m)`` of every stream: its own Philox counter block and its
    share of ``n``, as the engine splits the work."""
    streams = min(seeds.streams, n)
    base, extra = divmod(n, streams)
    for j in range(streams):
        rng = np.random.Generator(np.random.Philox(key=seeds.seed).jumped(j))
        yield rng, base + (1 if j < extra else 0)


def reference_reduce(values, n: int) -> Estimate:
    """Mean and standard error of the finite ``values``, in stream order."""
    arr = np.array(values)
    finite = np.isfinite(arr)
    arr = arr[finite]
    return Estimate(float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(len(arr))),
                    len(arr), int(n - finite.sum()))


def reference_plain_estimate(model, f_path, seeds: SeedSpec, n: int) -> Estimate:
    """Plain Monte Carlo path by path: inverse-CDF draws of every driver, one
    ``build`` and one ``f_path`` per path."""
    values = []
    for rng, m in reference_streams(seeds, n):
        u = np.clip(rng.random((m, len(model.drivers))), 1e-300, None)
        cols = [d.dist.inverse_cdf(u[:, i]) for i, d in enumerate(model.drivers)]
        for k in range(m):
            values.append(f_path(model.build(*(float(c[k]) for c in cols))))
    return reference_reduce(values, n)


def reference_proposal(driver, log_integrand) -> mc._DriverProposal:
    """The IS proposal of one driver probe by probe: each bin of
    ``mc._piece_edges`` is probed at its quarter points through the scalar
    ``log_density`` and ``log_integrand``, and weighted by Python's ``max``
    of the probes times its width."""
    lo_list, width_list, logw_list = [], [], []
    log_density = driver.dist.log_density
    for a, b in driver.dist.support:
        edges = mc._piece_edges(a, b)
        for j in range(len(edges) - 1):
            lo, hi = float(edges[j]), float(edges[j + 1])
            width = hi - lo
            if width <= 0.0:
                continue
            m = -math.inf
            for frac in (0.25, 0.5, 0.75):
                x = lo + width * frac
                ld = log_density(x)
                if ld == -math.inf:
                    continue
                m = max(m, log_integrand(x) + ld)
            if m == -math.inf:
                continue
            lo_list.append(lo)
            width_list.append(width)
            logw_list.append(m + log(width))
    logw = np.asarray(logw_list)
    p = np.exp(logw - logw.max())
    p = np.maximum(p, 1e-12)
    p /= p.sum()
    return mc._DriverProposal(lo=np.asarray(lo_list), width=np.asarray(width_list),
                              prob=p)


def scalar_log_functional(spec: ConditionSpec):
    """The scalar log functional of a ``jacod`` or ``theorem1`` spec at the
    path horizon."""
    if spec.kind == "jacod":
        return lambda p: jacod_functional(p, p.horizon).log_value
    return lambda p: theorem1_functional(p, spec.control, spec.epsilon,
                                         p.horizon).log_value


def reference_factors(model, f_path):
    """``(driver, log integrand)`` of every driver, split node by node as
    the engine's quadrature splits them.

    One driver is its own factor.  Of two, driver 0 takes the functional
    less its value at the anchors, driver 1 the functional with driver 0
    at its anchor, once the probe (each driver's quantiles with the other
    at its anchor, then every pair) shows the functional separates.
    """
    drivers = model.drivers
    f_vals = lambda vals: f_path(model.build(*vals))
    if len(drivers) == 1:
        return [(drivers[0], lambda x: f_vals((x,)))]
    x0, y0 = (d.anchor for d in drivers)
    base = f_vals((x0, y0))
    xs, ys = ([float(d.dist.inverse_cdf(q)) for q in mc._PROBE_QUANTILES]
              for d in drivers)
    for x in xs:
        for y in ys:
            whole = f_vals((x, y))
            parts = (f_vals((x, y0)) - base) + f_vals((x0, y))
            assert abs(whole - parts) <= 1e-9 * max(1.0, abs(whole)), (x, y)
    return [(drivers[0], lambda x: f_vals((x, y0)) - base),
            (drivers[1], lambda y: f_vals((x0, y)))]


def engine_factors(model, f_batch):
    """The factors the engine splits ``f_batch`` into, one batch per call."""
    return mc._split_rows(
        model, lambda columns: (f_batch(model.build_batch(*columns)), None))


def reference_estimate(model, spec: ConditionSpec, seeds: SeedSpec, n: int) -> Estimate:
    """The Monte Carlo cross-check path by path: the same streams and draws,
    one ``build`` and one scalar functional per path, and the IS proposals
    of :func:`reference_proposal`.

    The stream loop, path building, evaluation and reduction are spelled out.
    """
    if spec.kind == "lemma1":
        return reference_plain_estimate(
            model, lambda p: lemma1_functional(p, p.horizon), seeds, n)
    f_path = scalar_log_functional(spec)
    factors = reference_factors(model, f_path)
    proposals = [reference_proposal(driver, g) for driver, g in factors]

    values = []
    for rng, m in reference_streams(seeds, n):
        log_w = np.zeros(m)
        cols = []
        for prop, (driver, _) in zip(proposals, factors):
            # Generator.choice and per-draw logs, not the engine's guide
            # table (draw_bins) and log_ratio: a reference on the code under
            # test would pass whatever that code does
            idx = rng.choice(len(prop.prob), size=m, p=prop.prob)
            x = prop.lo[idx] + prop.width[idx] * rng.random(m)
            log_w += (np.log(prop.width[idx]) - np.log(prop.prob[idx])
                      + driver.dist.log_density(x))
            cols.append(x)
        for k in range(m):
            if log_w[k] == -math.inf:
                values.append(0.0)
                continue
            p = model.build(*(float(c[k]) for c in cols))
            try:
                values.append(exp(f_path(p) + log_w[k]))
            except OverflowError:
                values.append(math.inf)
    return reference_reduce(values, n)


CROSSCHECK_SPECS = [
    ("example1", ConditionSpec("theorem1", PredictableControl.constant(1.0))),
    ("example2", ConditionSpec("theorem1", PredictableControl.constant(0.6))),
    ("example3", ConditionSpec("theorem1", control_indicator_after(1.0))),
    ("example3", ConditionSpec("theorem1", PredictableControl.constant(0.3))),
    ("example1", ConditionSpec("jacod")),
    ("example1", ConditionSpec("lemma1")),
    ("example2", ConditionSpec("lemma1")),
    ("example3", ConditionSpec("lemma1")),
]


@pytest.mark.parametrize("streams, n", [(1, 2000), (16, 2000), (32, 20)])
@pytest.mark.parametrize("name, spec", CROSSCHECK_SPECS,
                         ids=[f"{n} {s.label()}" for n, s in CROSSCHECK_SPECS])
def test_estimate_equals_per_path_reference(name, spec, streams, n):
    model = MODELS[name]
    seeds = SeedSpec(12345, streams)
    expected = reference_estimate(model, spec, seeds, n)
    batched = evaluate_condition(model, spec, seeds, n).estimate
    assert repr(batched) == repr(expected)


PROPOSAL_SPECS = [
    ConditionSpec("jacod"),
    ConditionSpec("theorem1", PredictableControl.constant(0.0)),
    ConditionSpec("theorem1", PredictableControl.constant(0.3)),
    ConditionSpec("theorem1", PredictableControl.constant(1.0)),
    ConditionSpec("theorem1", control_indicator_after(1.0)),
    ConditionSpec("theorem1", PredictableControl((0.5, 1.5), (0.2, 1.0, 0.7))),
]


def assert_same_proposal(engine, reference):
    for field in ("lo", "width", "prob"):
        assert bits(getattr(engine, field)) == bits(getattr(reference, field)), field


@pytest.mark.parametrize("spec", PROPOSAL_SPECS, ids=[s.label() for s in PROPOSAL_SPECS])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_proposal_equals_scalar_reference(name, spec):
    model = MODELS[name]
    f_batch = pathwise_functional(spec, model).batch
    factors = reference_factors(model, scalar_log_functional(spec))
    assert len(factors) == len(model.drivers)
    for (driver, rows), (_, g) in zip(engine_factors(model, f_batch), factors):
        assert_same_proposal(mc._driver_proposal(driver, rows),
                             reference_proposal(driver, g))


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_proposal_skips_nan_probes_as_scalar_max(name):
    # the probe batch holds the live probes in the scalar call order, so
    # odd rows are the odd-numbered scalar calls
    model = MODELS[name]
    spec = ConditionSpec("theorem1", PredictableControl.constant(0.3))
    f_batch = pathwise_functional(spec, model).batch
    f_path = scalar_log_functional(spec)

    def nan_batch(batch):
        out = f_batch(batch)
        out[1::2] = math.nan
        return out

    calls = []

    def nan_scalar(x):
        calls.append(x)
        return math.nan if len(calls) % 2 == 0 else f_path(model.build(x))

    [(driver, nan_rows)] = engine_factors(model, nan_batch)
    engine = mc._driver_proposal(driver, nan_rows)
    reference = reference_proposal(model.drivers[0], nan_scalar)
    assert_same_proposal(engine, reference)
    # the NaN probes moved some bin weights: the test exercises the rule
    [(_, rows)] = engine_factors(model, f_batch)
    plain = mc._driver_proposal(driver, rows)
    assert bits(engine.prob) != bits(plain.prob)


def test_proposal_without_a_live_bin_raises_before_any_draw(monkeypatch):
    assert_no_draw_and_raises(monkeypatch, lambda x: (np.full(len(x), -math.inf), None),
                              "xi proposal has no bin")


def test_proposal_with_a_plus_inf_probe_raises_before_any_draw(monkeypatch):
    assert_no_draw_and_raises(
        monkeypatch, lambda x: (np.where(x > 0.5, math.inf, 0.0), None),
        r"xi proposal has a \+inf probe")


def assert_no_draw_and_raises(monkeypatch, rows, match):
    # hand-built factor rows on example1's driver: the error names its law,
    # comes before any stream generator and with no RuntimeWarning
    model = MODELS["example1"]
    f_batch = pathwise_functional(ConditionSpec("jacod"), model).batch

    def no_stream(seed, j):
        raise AssertionError("a stream was drawn")

    monkeypatch.setattr(mc, "stream_generator", no_stream)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EstimationError, match=match):
            mc._importance_estimate(model, [(model.drivers[0], rows)], f_batch,
                                    1000, SeedSpec(0))


# ----------------------------------------------------------------------
# Guide-table bin draws against Generator.choice
# ----------------------------------------------------------------------

def synthetic_proposal(prob: np.ndarray) -> mc._DriverProposal:
    return mc._DriverProposal(lo=np.arange(len(prob), dtype=float),
                              width=np.ones(len(prob)), prob=prob)


def assert_draws_equal_choice(prop, seed=0) -> int:
    """``prop.draw_bins`` against ``Generator.choice`` on twin streams for
    ``m`` in 1, 2 and 12500: the same indices and dtype, and the same next
    uniform after.  Returns how many of the 12500 draws were searched."""
    for j, m in enumerate((1, 2, 12500)):
        ours, theirs = stream_generator(seed, j), stream_generator(seed, j)
        idx = prop.draw_bins(ours, m)
        expected = theirs.choice(len(prop.prob), size=m, p=prop.prob)
        assert idx.dtype == expected.dtype
        assert np.array_equal(idx, expected)
        assert ours.random() == theirs.random()
    u = stream_generator(seed, 2).random(12500)
    k = (u * mc._GUIDE_BUCKETS).astype(np.intp)
    return int((prop.first[k] != prop.last[k]).sum())


@pytest.mark.parametrize("spec", PROPOSAL_SPECS, ids=[s.label() for s in PROPOSAL_SPECS])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_proposal_draws_equal_choice(name, spec):
    model = MODELS[name]
    f_batch = pathwise_functional(spec, model).batch
    for driver, rows in engine_factors(model, f_batch):
        searched = assert_draws_equal_choice(mc._driver_proposal(driver, rows), 12345)
        # both routes of the guide ran: most draws are looked up, some searched
        assert 0 < searched < 12500 // 10


def choice_cdf(prob):
    # as Generator.choice builds it
    cdf = prob.cumsum()
    cdf /= cdf[-1]
    return cdf


K = mc._GUIDE_BUCKETS
RUN = np.array([0.3] + [1e-12] * 20 + [0.7])
SYNTHETIC_PROBS = {
    "single bin": np.array([1.0]),
    "cdf on bucket edges": np.array([0.25, 0.5, 0.25]),
    "cdf at 1/K": np.array([1.0 / K, 1.0 - 1.0 / K]),
    "1e-12 run in one bucket": RUN / RUN.sum(),
    "trailing cdf of 1.0": np.array([0.6, 0.4, 1e-17, 1e-17]),
}


@pytest.mark.parametrize("prob", SYNTHETIC_PROBS.values(), ids=SYNTHETIC_PROBS.keys())
def test_synthetic_draws_equal_choice(prob):
    assert_draws_equal_choice(synthetic_proposal(prob))


def test_synthetic_vectors_hit_the_edge_cases():
    cdf = choice_cdf(SYNTHETIC_PROBS["cdf on bucket edges"])
    assert list(cdf * K) == [1024.0, 3072.0, 4096.0]
    assert choice_cdf(SYNTHETIC_PROBS["cdf at 1/K"])[0] == 1.0 / K
    run = choice_cdf(SYNTHETIC_PROBS["1e-12 run in one bucket"])[:21]
    assert len(set((run * K).astype(int))) == 1 and len(set(run)) == 21
    assert list(choice_cdf(SYNTHETIC_PROBS["trailing cdf of 1.0"])[1:]) == [1.0] * 3


class _FixedUniforms:
    def __init__(self, u):
        self.u = u

    def random(self, m):
        assert m == len(self.u)
        return self.u


@pytest.mark.parametrize("prob", SYNTHETIC_PROBS.values(), ids=SYNTHETIC_PROBS.keys())
def test_uniforms_on_bucket_edges_draw_the_choice_bin(prob):
    # every bucket edge k/K, the float below it, every cdf value below 1
    # and the largest uniform go where choice's searchsorted(u, "right")
    # puts them
    edges = np.arange(K) / K
    cdf = choice_cdf(prob)
    u = np.concatenate((edges, np.nextafter(edges[1:], 0.0), cdf[cdf < 1.0],
                        [1.0 - 2.0 ** -53]))
    idx = synthetic_proposal(prob).draw_bins(_FixedUniforms(u), len(u))
    assert np.array_equal(idx, cdf.searchsorted(u, "right"))


WEIGHTS = st.one_of(st.floats(0.0, 1.0), st.just(0.0),
                    st.floats(-700.0, 0.0).map(math.exp))


@given(weights=st.lists(WEIGHTS, min_size=1, max_size=300),
       seed=st.integers(0, 2**64 - 1))
@settings(max_examples=100, deadline=None)
def test_draws_equal_choice_property(weights, seed):
    # floored and normalized as _driver_proposal makes its bin weights
    prob = np.maximum(np.array(weights), 1e-12)
    prob /= prob.sum()
    assert_draws_equal_choice(synthetic_proposal(prob), seed)


# ----------------------------------------------------------------------
# estimate_batch against the per-path reference loop
# ----------------------------------------------------------------------

@pytest.mark.parametrize("streams, n", [(1, 2000), (16, 2000), (32, 20)])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_estimate_batch_equals_per_path_reference(name, streams, n):
    model = MODELS[name]
    seeds = SeedSpec(2024, streams)
    per_path = reference_plain_estimate(
        model, lambda p: stoch_exponential(p, p.horizon), seeds, n)
    batched = estimate_batch(model, stoch_exponential_batch, n, seeds)
    assert repr(batched) == repr(per_path)


@pytest.mark.parametrize("n", [-1, 0, 1])
def test_estimate_batch_rejects_fewer_than_two_paths(n):
    with pytest.raises(ValueError, match="at least two"):
        estimate_batch(MODELS["example1"], stoch_exponential_batch, n, SeedSpec(0))
