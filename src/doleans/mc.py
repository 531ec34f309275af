"""Quadrature and seeded Monte Carlo engine; condition verdicts.

Expectations over the example models reduce to one-dimensional integrals
against the driving scalar laws: every condition functional factorizes
over independent drivers (jumps live at structurally fixed positions and
controls are piecewise constant), so two-driver models are handled by a
verified additive split of the log functional.  Quadrature is the primary
oracle (~1e-10); Monte Carlo is an independent cross-check (~1e-3 at 1e6
paths).

Divergence is a first-class result: truncated expectations are evaluated
on an explicit level grid and fitted against ``ln(1/level)`` (log model)
or ``level`` (linear model).  Conditions whose exponents explode faster
than any polynomial (the compensator-based kinds on the exponential-jump
model) are probed in log space and fitted against the functional's own
truncation threshold, which linearizes the growth.

Monte Carlo streams are counter-based (Philox keyed by the seed, jumped
per stream), so results are bit-reproducible for a fixed ``SeedSpec`` and
stream partitioning.  The condition cross-check evaluates each stream as
one :class:`~doleans.paths.PathBatch`, bit-identical to the per-path
functionals; the log-scale kinds, whose exponents exceed float range, have
no cross-check.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .distributions import InverseCdfDistribution
from .paths import Driver, JumpPath, PathBatch, ProcessModel
from .stochexp import (
    ConditionSpec,
    UnsupportedModelError,
    exp_or_inf_array,
    jacod_functional,
    log_stoch_exponential,
    pathwise_functional,
)

__all__ = [
    "SeedSpec",
    "Estimate",
    "DivergenceEvidence",
    "ConditionReport",
    "QuadratureAccuracyError",
    "EstimationError",
    "estimate_expectation",
    "quadrature_expectation",
    "detect_divergence",
    "evaluate_condition",
]

logger = logging.getLogger(__name__)

_QUAD_TARGET = 1e-11
_QUAD_ACCEPT_ABS = 1e-10
_QUAD_ACCEPT_REL = 1e-10


class QuadratureAccuracyError(RuntimeError):
    """Adaptive refinement did not reach the accuracy contract."""

    def __init__(self, message: str, value: float, achieved: float):
        super().__init__(message)
        self.value = value
        self.achieved = achieved


class EstimationError(RuntimeError):
    """Too many non-finite functional values for a trustworthy estimate."""


@dataclass(frozen=True)
class SeedSpec:
    """Root seed plus the number of independent streams the work is split over.

    Results are bit-identical across runs for equal ``SeedSpec`` and equal
    stream partitioning; each stream is an independent counter block of a
    splittable generator keyed by ``seed``.
    """

    seed: int
    streams: int = 1

    def __post_init__(self):
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in 64 bits")
        if self.streams < 1:
            raise ValueError("streams must be positive")


class Estimate(NamedTuple):
    mean: float
    se: float
    n: int
    nonfinite: int


#: A stream kernel maps ``(rng, m)`` to the ``m`` values of one stream.
StreamKernel = Callable[[np.random.Generator, int], np.ndarray]


def _run_streams(n: int, seeds: SeedSpec, kernel: StreamKernel,
                 what: str = "functional values") -> Estimate:
    """Mean and standard error of ``n`` values drawn stream by stream.

    Stream ``j`` gets its share of ``n`` and its own Philox counter block
    (the seed's generator jumped ``j`` times), so each stream's values
    depend only on the seed and ``j``.  Non-finite values are counted,
    reported, and excluded; more than 0.1% of them aborts the estimate.
    The reduction runs over the values in stream order.
    """
    streams = min(seeds.streams, n)
    base, extra = divmod(n, streams)
    parts = []
    for j in range(streams):
        rng = np.random.Generator(np.random.Philox(key=seeds.seed).jumped(j))
        parts.append(kernel(rng, base + (1 if j < extra else 0)))
    values = np.concatenate(parts)
    finite = np.isfinite(values)
    bad = int(n - int(finite.sum()))
    if bad:
        logger.warning("%d of %d %s were non-finite", bad, n, what)
        if bad > 0.001 * n:
            raise EstimationError(f"{bad} of {n} {what} non-finite (> 0.1%)")
        values = values[finite]
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(len(values)))
    return Estimate(mean, se, len(values), bad)


def _path_kernel(model: ProcessModel,
                 functional: Callable[[JumpPath], float]) -> StreamKernel:
    """Stream kernel sampling paths one by one and applying ``functional``."""

    def kernel(rng: np.random.Generator, m: int) -> np.ndarray:
        paths = model.sample_chunk(rng, m)
        return np.fromiter((functional(p) for p in paths), dtype=float, count=m)

    return kernel


def estimate_expectation(
    model: ProcessModel,
    functional: Callable[[JumpPath], float],
    n: int,
    seeds: SeedSpec,
) -> Estimate:
    """Sample mean and standard error of a path functional over ``n`` paths.

    Paths are built and evaluated one by one, so ``functional`` may be any
    callable.  Non-finite functional values are counted, reported, and
    excluded; more than 0.1% of them aborts the estimate.  Aggregation is a
    deterministic reduction in stream order.
    """
    if n < 2:
        raise ValueError("need at least two samples")
    return _run_streams(n, seeds, _path_kernel(model, functional))


# ----------------------------------------------------------------------
# Quadrature against a driver law
# ----------------------------------------------------------------------

def _clipped_pieces(
    support: Sequence[tuple[float, float]],
    truncation: tuple[float | None, float | None] | None,
) -> list[tuple[float, float]]:
    lo_t, hi_t = truncation if truncation is not None else (None, None)
    out = []
    for lo, hi in support:
        a = lo if lo_t is None else max(lo, lo_t)
        b = hi if hi_t is None else min(hi, hi_t)
        if b > a:
            out.append((a, b))
    return out


def _quad_piece(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        if math.isinf(hi):
            return quad(f, lo, np.inf, epsabs=_QUAD_TARGET, epsrel=_QUAD_TARGET,
                        limit=200)[:2]
        if lo > 0.0 and hi / lo > 1e3:
            # wide positive range: integrate in log coordinates
            g = lambda y: f(math.exp(y)) * math.exp(y)
            return quad(g, math.log(lo), math.log(hi), epsabs=_QUAD_TARGET,
                        epsrel=_QUAD_TARGET, limit=200)[:2]
        return quad(f, lo, hi, epsabs=_QUAD_TARGET, epsrel=_QUAD_TARGET,
                    limit=200)[:2]


def _quad_pieces(f, pieces) -> float:
    total = 0.0
    err = 0.0
    for lo, hi in pieces:
        try:
            v, e = _quad_piece(f, lo, hi)
        except OverflowError:
            raise QuadratureAccuracyError(
                "integrand overflowed during refinement", math.inf, math.inf
            ) from None
        total += v
        err += e
    if not math.isfinite(total) or err > max(_QUAD_ACCEPT_ABS,
                                             _QUAD_ACCEPT_REL * abs(total)):
        raise QuadratureAccuracyError(
            f"quadrature did not converge: value {total!r}, error bound {err!r}",
            total,
            err,
        )
    return total


def quadrature_expectation(
    dist: InverseCdfDistribution,
    integrand: Callable[[float], float],
    truncation: tuple[float | None, float | None] | None = None,
) -> float:
    """``int integrand(x) density(x) dx`` over the (optionally clipped) support.

    Adaptive quadrature to 1e-10 absolute or relative; raises
    :class:`QuadratureAccuracyError` with the achieved bound otherwise.
    Truncation is an explicit ``(lo, hi)`` clip (``None`` = unbounded),
    reported alongside values by callers probing improper integrals.
    """
    pieces = _clipped_pieces(dist.support, truncation)
    density = dist.density
    return _quad_pieces(lambda x: integrand(x) * density(x), pieces)


def _quad_exp_weighted(
    dist: InverseCdfDistribution,
    log_integrand: Callable[[float], float],
    truncation=None,
    weight: Callable[[float], float] | None = None,
) -> float:
    """``int exp(log_integrand(x) + log_density(x)) [weight(x)] dx``.

    Combining the exponent with the log density before exponentiating keeps
    integrands finite where the mathematical product is bounded but the
    factors are not.
    """
    pieces = _clipped_pieces(dist.support, truncation)
    log_density = dist.log_density

    def f(x: float) -> float:
        ld = log_density(x)
        if ld == -math.inf:
            # support boundary reached by adaptive subdivision
            return 0.0
        value = math.exp(log_integrand(x) + ld)
        return value if weight is None else value * weight(x)

    return _quad_pieces(f, pieces)


# Log-domain quadrature for exponents far beyond float range.

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


def _log_quad_interval(g: Callable[[float], float], lo: float, hi: float) -> float:
    """``ln int_lo^hi exp(g(x)) dx`` by recursive Gauss-Legendre panels.

    Panels whose best possible contribution is ~e^-60 below the running
    maximum are dropped unrefined, so exponents spanning thousands of
    e-folds cost only O(log range) panels along the dominant region.
    """
    parts: list[float] = []
    stack = [(lo, hi)]
    min_width = max((hi - lo) * 1e-12, 1e-300)
    best = -math.inf
    while stack:
        a, b = stack.pop()
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        xs = mid + half * _GL_NODES
        gv = np.array([g(float(x)) for x in xs])
        m = float(gv.max())
        if m == -math.inf:
            continue
        upper = m + math.log(b - a)
        if upper < best - 60.0:
            continue
        if (m - float(gv.min()) > 25.0) and (b - a) > min_width:
            # refine the hotter half first so pruning engages early
            if xs[int(gv.argmax())] >= mid:
                stack.append((a, mid))
                stack.append((mid, b))
            else:
                stack.append((mid, b))
                stack.append((a, mid))
            continue
        total = float(np.dot(_GL_WEIGHTS, np.exp(gv - m))) * half
        if total > 0.0:
            value = m + math.log(total)
            parts.append(value)
            best = max(best, value)
    if not parts:
        return -math.inf
    return float(np.logaddexp.reduce(np.array(parts)))


def _log_quad_exp_weighted(
    dist: InverseCdfDistribution,
    log_integrand: Callable[[float], float],
    truncation,
) -> float:
    """Natural log of ``int exp(log_integrand + log_density) dx`` (finite clips only)."""
    pieces = _clipped_pieces(dist.support, truncation)

    def g(x: float) -> float:
        ld = dist.log_density(x)
        if ld == -math.inf:
            return -math.inf
        return log_integrand(x) + ld

    vals = []
    for lo, hi in pieces:
        if math.isinf(hi):
            raise ValueError("log-domain quadrature needs a finite truncation")
        vals.append(_log_quad_interval(g, lo, hi))
    return float(np.logaddexp.reduce(np.array(vals)))


# ----------------------------------------------------------------------
# Divergence detection
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DivergenceEvidence:
    """Truncated-expectation family with its growth fit.

    ``model == "log"`` fits values against ``ln(1/level)``; ``"linear"``
    fits against the level itself.  Levels and values are held in the
    order of that x-axis.  ``diverging`` requires strictly increasing
    values and a fit with R^2 >= 0.99.
    """

    levels: tuple[float, ...]
    values: tuple[float, ...]
    slope: float
    model: str
    r_squared: float
    increasing: bool

    @property
    def diverging(self) -> bool:
        return self.increasing and self.r_squared >= 0.99

    def to_json(self) -> dict:
        return {
            "levels": list(self.levels),
            "values": list(self.values),
            "slope": self.slope,
            "model": self.model,
        }


def _fit(levels: Sequence[float], values: Sequence[float],
         model_tag: str) -> DivergenceEvidence:
    """Least-squares growth fit of ``values`` over the model's x-axis.

    Points are sorted by that x-axis first, so monotonicity, the fit and
    the returned evidence do not depend on the order the levels came in.
    """
    lv = np.asarray(levels, dtype=float)
    x = np.log(1.0 / lv) if model_tag == "log" else lv
    order = np.argsort(x)
    xs = x[order]
    vs = np.asarray(values, dtype=float)[order]

    slope, intercept = np.polyfit(xs, vs, 1)
    fitted = slope * xs + intercept
    ss_res = float(np.sum((vs - fitted) ** 2))
    ss_tot = float(np.sum((vs - vs.mean()) ** 2))
    r2 = 0.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return DivergenceEvidence(
        tuple(float(v) for v in lv[order]), tuple(float(v) for v in vs),
        float(slope), model_tag, r2, bool(np.all(np.diff(vs) > 0.0)),
    )


def detect_divergence(
    family: Callable[[float], float],
    levels: Sequence[float],
    model_tag: str,
) -> DivergenceEvidence:
    """Evaluate truncated expectations on a level grid and fit their growth.

    Levels must be at least four and strictly ordered, in either direction.
    Non-monotone values yield evidence whose ``diverging`` flag is false
    (an inconclusive probe), never an exception.
    """
    if model_tag not in ("log", "linear"):
        raise ValueError(f"unknown growth model {model_tag!r}")
    lv = _check_levels(levels)
    return _fit(lv, [float(family(x)) for x in lv], model_tag)


def _check_levels(levels: Sequence[float]) -> tuple[float, ...]:
    """At least four strictly ordered levels (either direction), as floats."""
    lv = tuple(float(x) for x in levels)
    if len(lv) < 4:
        raise ValueError("need at least four truncation levels")
    diffs = np.diff(lv)
    if not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise ValueError("levels must be strictly ordered")
    return lv


# ----------------------------------------------------------------------
# Condition evaluation
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionReport:
    """Verdict on one (model, condition) pair with its supporting evidence."""

    condition: dict
    verdict: str
    estimate: Estimate | None
    divergence: DivergenceEvidence | None
    quadrature: float | None

    def __post_init__(self):
        if self.verdict not in ("finite", "diverging", "inconclusive"):
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.verdict == "diverging":
            if self.divergence is None or not self.divergence.increasing:
                raise ValueError(
                    "a diverging verdict requires monotone increasing evidence"
                )

    def to_json(self) -> dict:
        return {
            "condition": self.condition,
            "verdict": self.verdict,
            "estimate": None
            if self.estimate is None
            else {"mean": self.estimate.mean, "se": self.estimate.se,
                  "n": self.estimate.n},
            "divergence": None if self.divergence is None
            else self.divergence.to_json(),
            "quadrature": self.quadrature,
        }

    def csv_rows(self) -> list[tuple[str, float]]:
        """(level, value) pairs for plotting; the full value when finite."""
        if self.divergence is not None:
            return [(repr(l), v) for l, v in
                    zip(self.divergence.levels, self.divergence.values)]
        if self.quadrature is not None:
            return [("full", self.quadrature)]
        return []


_LOG_SCALE_KINDS = ("protter_shimbo", "lepingle_memin")


# ----------------------------------------------------------------------
# Importance-sampled Monte Carlo cross-check for condition expectations.
#
# The exponential-family integrands can have polynomial tails of index as
# low as 1 in the driver (the expectation exists, no higher moment does),
# so a plain sample mean misses slowly decaying tail mass and its sample
# standard error is not a valid uncertainty.  The cross-check instead
# samples the driver directly from a piecewise-uniform proposal whose bins
# refine geometrically toward every support endpoint, with bin weights
# probed from the integrand (functional times density).  Within such bins
# the integrand varies by a bounded factor wherever it carries
# non-negligible mass, so the importance weights are effectively bounded
# and the estimator's standard error is a valid uncertainty.
# ----------------------------------------------------------------------

_GEOM_DEPTH = 60


@dataclass(frozen=True)
class _DriverProposal:
    lo: np.ndarray
    width: np.ndarray
    prob: np.ndarray


def _piece_edges(lo: float, hi: float) -> np.ndarray:
    if math.isinf(hi):
        # refine toward the finite end, then grow geometrically outward
        inward = lo + 2.0 ** -np.arange(_GEOM_DEPTH, 0, -1.0)
        outward = lo + 2.0 ** np.arange(0, _GEOM_DEPTH + 1, 1.0)
        return np.concatenate(([lo], inward, outward))
    span = hi - lo
    left = lo + span * 2.0 ** -np.arange(_GEOM_DEPTH, 1, -1.0)
    right = hi - span * 2.0 ** -np.arange(2, _GEOM_DEPTH + 1, 1.0)
    return np.concatenate(([lo], left, right, [hi]))


def _driver_proposal(
    driver: Driver, log_integrand: Callable[[float], float]
) -> _DriverProposal:
    """Piecewise-uniform proposal matched to ``exp(log_integrand) * density``."""
    lo_list, width_list, logw_list = [], [], []
    log_density = driver.dist.log_density
    for a, b in driver.dist.support:
        edges = _piece_edges(a, b)
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
            logw_list.append(m + math.log(width))
    logw = np.asarray(logw_list)
    p = np.exp(logw - logw.max())
    p = np.maximum(p, 1e-12)
    p /= p.sum()
    return _DriverProposal(
        lo=np.asarray(lo_list), width=np.asarray(width_list), prob=p
    )


def _importance_estimate(
    model: ProcessModel,
    f_batch: Callable[[PathBatch], np.ndarray],
    factors: list[tuple[Driver, Callable[[float], float]]],
    n: int,
    seeds: SeedSpec,
) -> Estimate:
    """IS estimate of ``E exp(F)``; ``f_batch`` evaluates ``F`` on whole streams."""
    proposals = [_driver_proposal(driver, g) for driver, g in factors]
    log_densities = [driver.dist.log_density for driver, _ in factors]

    def kernel(rng: np.random.Generator, m: int) -> np.ndarray:
        log_w = np.zeros(m)
        columns = []
        for prop, log_density in zip(proposals, log_densities):
            idx = rng.choice(len(prop.prob), size=m, p=prop.prob)
            x = prop.lo[idx] + prop.width[idx] * rng.random(m)
            log_w += (np.log(prop.width[idx]) - np.log(prop.prob[idx])
                      + log_density(x))
            columns.append(x)
        # zero-weight draws (off the support) are never evaluated
        live = log_w != -math.inf
        out = np.zeros(m)
        if not live.all():
            columns = [col[live] for col in columns]
        batch = model.build_batch(*columns)
        out[live] = exp_or_inf_array(f_batch(batch) + log_w[live])
        return out

    return _run_streams(n, seeds, kernel, "importance-sampled values")


def _value_at_time(
    model: ProcessModel,
    timed: Callable[[JumpPath, float], float],
    t: float,
) -> float:
    """Quadrature of ``E exp(F(path, t ^ horizon))`` over the driver laws."""

    def f_vals(vals):
        p = model.build(*vals)
        return timed(p, min(t, p.horizon))

    factors = _split_factors(model, f_vals)
    value = 1.0
    for driver, g in factors:
        value *= _quad_exp_weighted(driver.dist, g, None)
    return value


def _split_factors(
    model: ProcessModel, f_vals: Callable[[tuple], float]
) -> list[tuple[Driver, Callable[[float], float]]]:
    """Additive split of a log functional over independent drivers.

    Valid because the per-jump terms depend on one driver each and
    piecewise-constant controls keep the control integral separable; a
    numeric probe guards against inputs breaking that structure.
    """
    drivers = model.drivers
    anchors = tuple(d.anchor for d in drivers)
    if len(drivers) == 1:
        return [(drivers[0], lambda x: f_vals((x,)))]
    if len(drivers) != 2:
        raise UnsupportedModelError("factorization supports at most two drivers")

    base = f_vals(anchors)
    g0 = lambda x: f_vals((x, anchors[1])) - base
    g1 = lambda y: f_vals((anchors[0], y))
    qs = (0.25, 0.5, 0.75)
    for ux in qs:
        for uy in qs:
            x = drivers[0].dist.inverse_cdf(ux)
            y = drivers[1].dist.inverse_cdf(uy)
            whole = f_vals((x, y))
            split = g0(x) + g1(y)
            if abs(whole - split) > 1e-9 * max(1.0, abs(whole)):
                raise UnsupportedModelError(
                    "log functional does not separate over the drivers"
                )
    return [(drivers[0], g0), (drivers[1], g1)]


@dataclass(frozen=True)
class _FactorAnalysis:
    verdict: str
    value: float | None
    evidence: DivergenceEvidence


def _material_growth(values: Sequence[float], scale: str) -> bool:
    lo, hi = values[0], values[-1]
    if scale == "log":
        return hi - lo > 1.0
    return hi - lo > 0.01 * max(abs(hi), 1e-300)


def _analyze_factor(
    driver: Driver,
    g: Callable[[float], float],
    levels: Sequence[float],
    probe_scale: str,
    weight: Callable[[float], float] | None = None,
) -> _FactorAnalysis:
    """Verdict on ``E exp(g) [weight]`` over one driver from its truncations."""
    if probe_scale == "log":
        # Exponents beyond float range: probe ln E[...] and fit it against
        # the functional's own truncation threshold, which linearizes
        # super-exponential growth.
        pairs = []
        for level in levels:
            trunc = driver.truncate(level)
            boundary = trunc[1] if trunc[1] is not None else trunc[0]
            pairs.append((g(boundary), _log_quad_exp_weighted(driver.dist, g, trunc)))
        thresholds = tuple(p[0] for p in pairs)
        table = dict(pairs)
        evidence = detect_divergence(lambda l: table[l], thresholds, "linear")
        if evidence.diverging and _material_growth(evidence.values, "log"):
            return _FactorAnalysis("diverging", None, evidence)
        return _FactorAnalysis("inconclusive", None, evidence)

    evidence = detect_divergence(
        lambda l: _quad_exp_weighted(driver.dist, g, driver.truncate(l), weight),
        levels,
        driver.growth,
    )
    try:
        full = _quad_exp_weighted(driver.dist, g, None, weight)
    except QuadratureAccuracyError:
        full = None
    growing = evidence.diverging and _material_growth(evidence.values, "linear")
    if full is not None and not growing:
        return _FactorAnalysis("finite", full, evidence)
    if growing:
        return _FactorAnalysis("diverging", None, evidence)
    return _FactorAnalysis("inconclusive", None, evidence)


def _combine_factors(
    analyses: list[_FactorAnalysis],
) -> tuple[str, float | None, DivergenceEvidence | None]:
    """Verdict on the product of independent factors.

    A lone factor that is not finite reports its own evidence.
    """
    if all(a.verdict == "finite" for a in analyses):
        value = 1.0
        for a in analyses:
            value *= a.value
        return "finite", value, None
    if len(analyses) == 1:
        return analyses[0].verdict, None, analyses[0].evidence
    diverging = [i for i, a in enumerate(analyses) if a.verdict == "diverging"]
    if diverging:
        # truncate the (first) divergent driver; hold finite factors at
        # their full values so the product family stays monotone
        i = diverging[0]
        lead = analyses[i].evidence
        scale = 1.0
        for j, a in enumerate(analyses):
            if j != i:
                scale *= a.value if a.value is not None else a.evidence.values[-1]
        values = [v * scale for v in lead.values]
        return "diverging", None, _fit(lead.levels, values, lead.model)
    return "inconclusive", None, None


def _evaluate_lemma1(
    model: ProcessModel,
    levels: Sequence[float] | None,
) -> tuple[str, float | None, DivergenceEvidence | None]:
    drivers = model.drivers

    def log_e(vals):
        p = model.build(*vals)
        return log_stoch_exponential(p, p.horizon)

    def bracket(vals):
        p = model.build(*vals)
        return jacod_functional(p, p.horizon).log_value

    if len(drivers) == 1:
        d = drivers[0]
        analysis = _analyze_factor(
            d,
            lambda x: log_e((x,)),
            tuple(levels) if levels is not None else d.levels,
            "linear",
            weight=lambda x: bracket((x,)),
        )
        return _combine_factors([analysis])

    if len(drivers) != 2:
        raise UnsupportedModelError("factorization supports at most two drivers")
    d0, d1 = drivers
    anchors = (d0.anchor, d1.anchor)
    base_e = log_e(anchors)
    base_b = bracket(anchors)
    u = lambda x: log_e((x, anchors[1])) - base_e
    v = lambda y: log_e((anchors[0], y))
    b0 = lambda x: bracket((x, anchors[1])) - base_b
    b1 = lambda y: bracket((anchors[0], y))
    try:
        # E[e^L (b0 + b1)] = E[e^u b0] E[e^v] + E[e^u] E[e^v b1]
        t1 = _quad_exp_weighted(d0.dist, u, None, weight=b0)
        t2 = _quad_exp_weighted(d1.dist, v, None)
        t3 = _quad_exp_weighted(d0.dist, u, None)
        t4 = _quad_exp_weighted(d1.dist, v, None, weight=b1)
    except QuadratureAccuracyError:
        return "inconclusive", None, None
    return "finite", t1 * t2 + t3 * t4, None


def evaluate_condition(
    model: ProcessModel,
    spec: ConditionSpec,
    seeds: SeedSpec = SeedSpec(0),
    n: int = 0,
    *,
    levels: Sequence[float] | None = None,
    times: Sequence[float] = (),
) -> ConditionReport:
    """Verdict for one condition on one model.

    Quadrature over the driver laws is the primary route: truncated
    expectations are probed on the driver's level grid; stabilizing probes
    plus a convergent full integral give a ``finite`` verdict with the
    quadrature value, while materially growing monotone probes with a
    clean fit give ``diverging`` with the fitted evidence.

    The functional is evaluated at the stopping-time family made of the
    path horizon (the dominating value for the built-in models) together
    with any fixed ``times``; a finite verdict reports the maximum over
    the family.  With ``n >= 2`` a Monte Carlo estimate of the horizon
    value over ``n`` paths is attached as an independent cross-check;
    the log-scale kinds (``protter_shimbo``, ``lepingle_memin``), whose
    exponents exceed float range, reject ``n >= 2`` with ``ValueError``.
    Explicit ``levels`` must be at least four and strictly ordered for
    every kind, or ``ValueError`` is raised.

    Deterministic: equal arguments (including ``SeedSpec``) produce
    bit-identical reports.
    """
    if spec.kind == "lemma1" and times:
        raise ValueError(
            "lemma1 is evaluated at the path horizon only; it takes no family times"
        )
    if levels is not None:
        # one rule for every kind, including the two-driver lemma1, whose
        # product formula probes no truncation levels
        _check_levels(levels)
    if spec.kind in _LOG_SCALE_KINDS and n >= 2:
        raise ValueError(
            f"{spec.kind} has no Monte Carlo cross-check: its exponents exceed "
            "float range (use n = 0)"
        )
    estimator = None
    if n >= 2:
        estimator = "pathwise" if spec.kind == "lemma1" else "importance-quantile"
    condition_doc = {
        "model": model.name,
        "kind": spec.kind,
        "control": None if spec.control is None else spec.control.label(),
        "epsilon": spec.epsilon,
        "seed": seeds.seed,
        "streams": seeds.streams,
        "n": n,
        "levels": None if levels is None else [float(x) for x in levels],
        "times": [float(t) for t in times],
        "estimator": estimator,
    }

    timed, f_batch = pathwise_functional(spec, model)
    factors = None
    if spec.kind == "lemma1":
        verdict, value, evidence = _evaluate_lemma1(model, levels)
    else:
        def f_vals(vals):
            p = model.build(*vals)
            return timed(p, p.horizon)

        factors = _split_factors(model, f_vals)
        probe_scale = "log" if spec.kind in _LOG_SCALE_KINDS else "linear"
        analyses = []
        for driver, g in factors:
            lv = tuple(levels) if levels is not None else driver.levels
            analyses.append(_analyze_factor(driver, g, lv, probe_scale))
        verdict, value, evidence = _combine_factors(analyses)

        if verdict == "finite" and times:
            for t in times:
                if t < 0.0:
                    raise ValueError("family times must be nonnegative")
                try:
                    value = max(value, _value_at_time(model, timed, t))
                except QuadratureAccuracyError as exc:
                    logger.warning(
                        "family time %g skipped: %s", t, exc
                    )

    estimate = None
    if n >= 2:
        try:
            if factors is None:
                estimate = _run_streams(n, seeds, lambda rng, m: f_batch(
                    model.build_batch(*model.driver_columns(rng, m))))
            else:
                estimate = _importance_estimate(model, f_batch, factors, n, seeds)
        except EstimationError as exc:
            logger.warning("Monte Carlo cross-check unavailable: %s", exc)

    return ConditionReport(
        condition=condition_doc,
        verdict=verdict,
        estimate=estimate,
        divergence=evidence,
        quadrature=value,
    )
