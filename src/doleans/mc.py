"""Quadrature and seeded Monte Carlo engine; condition verdicts.

Expectations over the example models reduce to one-dimensional integrals
against the driving scalar laws: every condition functional factorizes
over independent drivers (jumps live at structurally fixed positions and
controls are piecewise constant), so two-driver models are handled by a
verified additive split of the log functional.  Every kind is decided
from its integrand record through one route, a sum of products of
per-driver factors: one product for ``E exp(F)``, and one product per
driver for a weighted ``E[E(M) b]`` (``lemma1``), whose weight ``b``
splits over the drivers as well.
Quadrature is the primary oracle (~1e-10); Monte Carlo is an independent
cross-check (~1e-3 at 1e6 paths).

Divergence is a first-class result: truncated expectations are evaluated
on an explicit level grid and fitted against ``ln(1/level)`` (log model)
or ``level`` (linear model).  Conditions whose exponents explode faster
than any polynomial (the bracket and compensator kinds on the
exponential-jump model) are decided without an integral: their log
integrand at each cut, which stays in float range, is fitted against the
functional's own truncation threshold, which linearizes the growth.

Monte Carlo streams are counter-based (stream ``j`` is Philox keyed by the
seed at counter ``j * 2^128``, see :func:`~doleans.paths.stream_generator`),
so results are bit-reproducible for a fixed ``SeedSpec`` and stream
partitioning.  The condition cross-check evaluates each stream as
one :class:`~doleans.paths.PathBatch`, bit-identical to the per-path
functionals; the log-scale kinds, whose exponents exceed float range, have
no cross-check.  :func:`estimate_batch` runs any batch kernel over plain
draws the same way.
"""

from __future__ import annotations

import logging
import math
import operator
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .distributions import InverseCdfDistribution
from .paths import (
    Driver,
    JumpPath,
    PathBatch,
    ProcessModel,
    apply_math,
    check_seed,
    stream_generator,
)
from .stochexp import (
    ConditionSpec,
    UnsupportedModelError,
    exp_or_inf_array,
    pathwise_functional,
)

__all__ = [
    "SeedSpec",
    "Estimate",
    "DivergenceEvidence",
    "ConditionReport",
    "QuadratureAccuracyError",
    "EstimationError",
    "estimate_batch",
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
    splittable generator keyed by ``seed``.  A NumPy integer ``seed`` or
    ``streams`` is stored as a Python int, so reports stay JSON; a
    non-integer one is a ``TypeError``.
    """

    seed: int
    streams: int = 1

    def __post_init__(self):
        object.__setattr__(self, "seed", check_seed(self.seed))
        object.__setattr__(self, "streams", operator.index(self.streams))
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
    (``stream_generator(seeds.seed, j)``), so each stream's values
    depend only on the seed and ``j``.  Non-finite values are counted,
    reported, and excluded; more than 0.1% of them aborts the estimate.
    The reduction runs over the values in stream order.
    """
    streams = min(seeds.streams, n)
    base, extra = divmod(n, streams)
    parts = []
    for j in range(streams):
        parts.append(kernel(stream_generator(seeds.seed, j),
                            base + (1 if j < extra else 0)))
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


def estimate_batch(
    model: ProcessModel,
    f_batch: Callable[[PathBatch], np.ndarray],
    n: int,
    seeds: SeedSpec,
) -> Estimate:
    """Sample mean and standard error of a batch kernel over ``n`` plain draws.

    Each stream's driver values come from ``ProcessModel.driver_columns``,
    are built as one :class:`~doleans.paths.PathBatch`, and are evaluated
    by ``f_batch`` at every row's horizon.  For a kernel bit-identical to a
    per-path functional, the estimate equals building and evaluating each
    path on its own from the same draws.  Non-finite values are counted,
    reported, and excluded; more than 0.1% of them aborts the estimate.
    Aggregation is a deterministic reduction in stream order.
    """
    n = operator.index(n)
    if n < 2:
        raise ValueError("need at least two samples")
    return _run_streams(n, seeds, lambda rng, m: f_batch(
        model.build_batch(*model.driver_columns(rng, m))))


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


def _split_pieces(
    pieces: Sequence[tuple[float, float]], cuts: Sequence[float],
) -> list[tuple[float, float]]:
    """``pieces`` in order, each split at the sorted ``cuts`` strictly inside it."""
    out = []
    for lo, hi in pieces:
        edges = [lo, *(c for c in cuts if lo < c < hi), hi]
        out.extend(zip(edges[:-1], edges[1:]))
    return out


def _quad_piece(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """``(value, error bound)`` of ``int_lo^hi f`` by adaptive quadrature.

    A finite piece with ``lo >= 0`` and ``hi > 1`` is integrated in
    ``y = log1p(x)``, which spreads the nodes over every scale it spans: in
    ``x``, a piece from 0 far past a law's bulk leaves that bulk between
    the nodes and reads 0.0.  Every other piece is integrated in ``x``.
    """
    if lo >= 0.0 and 1.0 < hi < math.inf:
        g = lambda y: f(math.expm1(y)) * math.exp(y)
        lo, hi = math.log1p(lo), math.log1p(hi)
    else:
        g = f
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        return quad(g, lo, hi, epsabs=_QUAD_TARGET, epsrel=_QUAD_TARGET,
                    limit=200)[:2]


PieceIntegrator = Callable[[float, float], tuple[float, float]]


def _quad_pieces(piece: PieceIntegrator, pieces) -> float:
    """Sum of ``piece(lo, hi)`` values in piece order, within the contract."""
    total = 0.0
    err = 0.0
    for lo, hi in pieces:
        try:
            v, e = piece(lo, hi)
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
    f = lambda x: integrand(x) * density(x)
    return _quad_pieces(lambda lo, hi: _quad_piece(f, lo, hi), pieces)


def _exp_weighted_piece(
    dist: InverseCdfDistribution,
    log_integrand: Callable[[float], float],
    weight: Callable[[float], float] | None = None,
) -> PieceIntegrator:
    """Piece integrator of ``exp(log_integrand(x) + log_density(x)) [weight(x)]``.

    Combining the exponent with the log density before exponentiating keeps
    integrands finite where the mathematical product is bounded but the
    factors are not.
    """
    log_density = dist.log_density

    def f(x: float) -> float:
        ld = log_density(x)
        if ld == -math.inf:
            # support boundary reached by adaptive subdivision
            return 0.0
        value = math.exp(log_integrand(x) + ld)
        return value if weight is None else value * weight(x)

    return lambda lo, hi: _quad_piece(f, lo, hi)


# ----------------------------------------------------------------------
# Divergence detection
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DivergenceEvidence:
    """Truncated-expectation family with its growth fit.

    ``model == "log"`` fits values against ``ln(1/level)``; ``"linear"``
    fits against the level itself.  Levels and values are held in the
    order of that x-axis.  ``diverging`` requires strictly increasing
    values and a fit with R^2 >= 0.99.  For the log-scale kinds the levels
    are the functional's thresholds and the values the log integrand at
    each cut, not truncated expectations.
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

    Levels must be at least four, finite, positive and strictly ordered,
    in either direction.
    Non-monotone values yield evidence whose ``diverging`` flag is false
    (an inconclusive probe), never an exception.
    """
    if model_tag not in ("log", "linear"):
        raise ValueError(f"unknown growth model {model_tag!r}")
    lv = _check_levels(levels)
    return _fit(lv, [float(family(x)) for x in lv], model_tag)


def _check_levels(levels: Sequence[float]) -> tuple[float, ...]:
    """At least four finite positive levels, strictly ordered either way."""
    lv = tuple(float(x) for x in levels)
    if len(lv) < 4:
        raise ValueError("need at least four truncation levels")
    if not all(math.isfinite(x) and x > 0.0 for x in lv):
        raise ValueError("levels must be finite and positive")
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
#
# A driver's probes (three per bin, the other driver at its anchor) are
# evaluated as one PathBatch by the kind's batch kernel, with one
# log_density call; each probe equals the scalar functional bit for bit,
# so the proposal equals a probe-by-probe scalar loop (tests/test_batch.py
# keeps that loop as its reference).
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
    model: ProcessModel, j: int, f_batch: Callable[[PathBatch], np.ndarray]
) -> _DriverProposal:
    """Piecewise-uniform proposal for driver ``j`` matched to
    ``exp(g) * density``.

    ``g`` is the log functional ``f_batch`` with every other driver at its
    anchor, less its value at the anchors for driver 0 of a two-driver
    model: the factor :func:`_split_factors` gives that driver.  Each bin
    is probed at its quarter points, all in one batch, and its weight is
    the largest probe that is not NaN (as Python's ``max`` from ``-inf``
    keeps it); probes off the support are not built.
    """
    drivers = model.drivers
    driver = drivers[j]
    edges = [_piece_edges(a, b) for a, b in driver.dist.support]
    lo = np.concatenate([e[:-1] for e in edges])
    width = np.concatenate([e[1:] for e in edges]) - lo
    keep = width > 0.0
    lo, width = lo[keep], width[keep]

    x = (lo[:, None] + width[:, None] * np.array([0.25, 0.5, 0.75])).ravel()
    ld = driver.dist.log_density(x)
    live = ld != -math.inf
    probes = x[live]
    subtract = j == 0 and len(drivers) > 1
    if subtract:
        probes = np.append(probes, driver.anchor)
    columns = [probes if i == j else np.full(len(probes), d.anchor)
               for i, d in enumerate(drivers)]
    g = f_batch(model.build_batch(*columns))
    if subtract:
        g = g[:-1] - g[-1]
    v = np.full(len(x), -math.inf)
    v[live] = g + ld[live]

    m = np.full(len(lo), -math.inf)
    for probe in v.reshape(len(lo), 3).T:
        m = np.where(probe > m, probe, m)
    keep = m != -math.inf
    logw = m[keep] + apply_math(math.log, width[keep])
    p = np.exp(logw - logw.max())
    p = np.maximum(p, 1e-12)
    p /= p.sum()
    return _DriverProposal(lo=lo[keep], width=width[keep], prob=p)


def _importance_estimate(
    model: ProcessModel,
    f_batch: Callable[[PathBatch], np.ndarray],
    n: int,
    seeds: SeedSpec,
) -> Estimate:
    """IS estimate of ``E exp(F)``; ``f_batch`` evaluates ``F`` on whole
    batches, the proposal probes included."""
    proposals = [_driver_proposal(model, j, f_batch) for j in range(len(model.drivers))]
    log_densities = [driver.dist.log_density for driver in model.drivers]

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


def _on_drivers(
    model: ProcessModel,
    functional: Callable[[JumpPath, float], float],
    t: float = math.inf,
) -> Callable[[tuple], float]:
    """``functional(path, t ^ horizon)`` of the path built from driver values."""

    def f_vals(vals):
        p = model.build(*vals)
        return functional(p, min(t, p.horizon))

    return f_vals


def _value_at_time(
    model: ProcessModel,
    timed: Callable[[JumpPath, float], float],
    t: float,
    breaks: Sequence[float] = (),
) -> float:
    """Quadrature of ``E exp(F(path, t ^ horizon))`` over the driver laws.

    ``F(path, t ^ horizon)`` is not smooth in a waiting-time driver where
    its jump crosses ``t`` or one of the control ``breaks`` before ``t``,
    so each support piece of such a driver is split at those times (in
    driver coordinates, ``b - driver.start``) and the pieces are summed.
    A cut far past the law's bulk is safe: :func:`_quad_piece` takes the
    wide first piece it leaves in ``log1p`` coordinates.
    """
    kinks = (t, *(b for b in breaks if b < t))
    value = 1.0
    for driver, g in _split_factors(model, _on_drivers(model, timed, t)):
        cuts = [] if driver.start is None else sorted(
            {k - driver.start for k in kinks})
        value *= _quad_pieces(_exp_weighted_piece(driver.dist, g),
                              _split_pieces(driver.dist.support, cuts))
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
    # interior quantiles plus both tails, where the log functional is largest;
    # each probe point and its factor value is computed once, not per pair
    qs = (1e-9, 0.25, 0.5, 0.75, 1.0 - 1e-9)
    xs = [(x, g0(x)) for x in map(drivers[0].dist.inverse_cdf, qs)]
    ys = [(y, g1(y)) for y in map(drivers[1].dist.inverse_cdf, qs)]
    for x, gx in xs:
        for y, gy in ys:
            whole = f_vals((x, y))
            if abs(whole - (gx + gy)) > 1e-9 * max(1.0, abs(whole)):
                raise UnsupportedModelError(
                    "log functional does not separate over the drivers"
                )
    return [(drivers[0], g0), (drivers[1], g1)]


@dataclass(frozen=True)
class _FactorAnalysis:
    verdict: str
    value: float | None
    evidence: DivergenceEvidence | None


def _lead(analyses: Sequence[_FactorAnalysis]) -> _FactorAnalysis | None:
    """The first diverging analysis, else the first inconclusive one;
    ``None`` when every analysis is finite."""
    return next((a for verdict in ("diverging", "inconclusive")
                 for a in analyses if a.verdict == verdict), None)


def _analyze_log_scale(driver: Driver, g: Callable[[float], float],
                       levels: Sequence[float]) -> _FactorAnalysis:
    """Verdict on ``E exp(g)`` over one driver for an exponent beyond float range.

    These kinds cut an infinite support end only.  The log integrand
    ``L(T) = g(T) + log_density(T)`` at each cut ``T`` is fitted against
    the threshold ``g(T)``, which linearizes its growth.  An ``e^L`` that
    keeps growing (by more than one e-fold) toward an infinite end has an
    infinite integral, so no integral is computed.
    """
    thresholds, values = [], []
    for level in levels:
        lo, hi = driver.truncate(level)
        cut = hi if hi is not None else lo
        try:
            threshold = g(cut)
        except OverflowError:
            threshold = math.inf
        # the fit sums squares of the thresholds over the levels
        if math.isinf(len(levels) * threshold * threshold):
            raise ValueError(
                f"the exponent overflows float range at level {level!r}")
        thresholds.append(threshold)
        values.append(threshold + driver.dist.log_density(cut))
    evidence = _fit(thresholds, values, "linear")
    if evidence.diverging and evidence.values[-1] - evidence.values[0] > 1.0:
        return _FactorAnalysis("diverging", None, evidence)
    return _FactorAnalysis("inconclusive", None, evidence)


def _analyze_factor(
    driver: Driver,
    g: Callable[[float], float],
    levels: Sequence[float],
    weight: Callable[[float], float] | None = None,
) -> _FactorAnalysis:
    """Verdict on ``E exp(g) [weight]`` over one driver from its truncations.

    A truncated family that already grows materially is ``diverging``
    without a full-support integral; otherwise the full integral decides
    between ``finite`` and ``inconclusive``.  The truncations telescope:
    every support piece is split at the cuts of all levels that fall
    inside it, each interval between successive cuts is integrated once
    per call, and a level's value is the sum of its intervals in support
    order, so it does not depend on the order of ``levels``.  The
    full-support integral takes each support piece whole, reusing a piece
    that no cut splits.
    """
    quad_piece = _exp_weighted_piece(driver.dist, g, weight)
    done: dict[tuple[float, float], tuple[float, float]] = {}

    def piece(lo: float, hi: float) -> tuple[float, float]:
        # float keys: a -0.0 and a 0.0 endpoint give the same quadrature nodes
        if (lo, hi) not in done:
            done[lo, hi] = quad_piece(lo, hi)
        return done[lo, hi]

    support = driver.dist.support
    cuts = sorted({c for l in levels for c in driver.truncate(l) if c is not None})

    def truncated(level: float) -> float:
        return _quad_pieces(piece, _split_pieces(
            _clipped_pieces(support, driver.truncate(level)), cuts))

    evidence = detect_divergence(truncated, levels, driver.growth)
    first, last = evidence.values[0], evidence.values[-1]
    if evidence.diverging and last - first > 0.01 * max(abs(last), 1e-300):
        return _FactorAnalysis("diverging", None, evidence)
    try:
        return _FactorAnalysis("finite", _quad_pieces(
            piece, _clipped_pieces(support, None)), evidence)
    except QuadratureAccuracyError:
        return _FactorAnalysis("inconclusive", None, evidence)


def _combine_factors(analyses: list[_FactorAnalysis]) -> _FactorAnalysis:
    """Analysis of the product of independent factors.

    A finite product carries the product of the values and no evidence.
    Otherwise the :func:`_lead` factor gives the verdict, and the evidence
    is its family scaled by the other factors; a lone factor reports its
    own evidence.
    """
    lead = _lead(analyses)
    if lead is None:
        value = 1.0
        for a in analyses:
            value *= a.value
        return _FactorAnalysis("finite", value, None)
    # truncate the lead driver; hold finite factors at their full values
    # (the others at their last probe) so the product family stays monotone
    scale = 1.0
    for a in analyses:
        if a is not lead:
            scale *= a.value if a.value is not None else a.evidence.values[-1]
    values = [v * scale for v in lead.evidence.values]
    return _FactorAnalysis(lead.verdict, None,
                           _fit(lead.evidence.levels, values, lead.evidence.model))


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

    Every per-kind fact comes from the kind's
    :func:`~doleans.stochexp.pathwise_functional` record ``(exponent,
    weight, batch)``.  Quadrature over the driver laws is the primary
    route, one factor per driver.  The integrand ``exp(exponent) [weight]``
    is one term, the product of its factors; with a weight it is a sum of
    one term per driver, term ``j`` weighting driver ``j``'s factor.  A
    product or sum that is not finite takes its first diverging part, else
    its first inconclusive one.  Each factor probes truncated expectations
    on its driver's level grid, which telescope (each interval between
    successive cuts is integrated once): stabilizing probes plus a
    convergent full integral give ``finite`` with the quadrature value,
    materially growing monotone probes with a clean fit give ``diverging``
    with the fitted evidence and no full-support integral.  A kind without
    a batch, whose exponents exceed float range, is decided from the log
    integrand at each cut, which ``divergence.values`` then holds.

    The functional is evaluated at the stopping-time family made of the
    path horizon (the dominating value for the built-in models) together
    with any fixed ``times``, which must be finite and nonnegative; a
    finite verdict reports the maximum over the family, where a family
    value must exceed the horizon value by more than the 1e-10 quadrature
    contract to replace it.  A family time ``t`` is integrated split at
    ``t`` and at the control breaks before ``t``, where ``t ^ horizon``
    has its kinks; one that misses the quadrature contract raises
    :class:`QuadratureAccuracyError`.  With ``n >= 2`` a Monte Carlo
    estimate of the horizon value over ``n`` paths is attached as an
    independent cross-check, by plain draws (``pathwise``) with a weight
    and by importance sampling otherwise; too many non-finite values raise
    :class:`EstimationError`.  Before any quadrature, ``ValueError`` is
    raised for an ``n`` other than 0 or at least 2 (``TypeError`` for a
    non-integer), ``times`` with a weight, ``n >= 2`` without a batch,
    explicit ``levels`` that are not four or more finite positive strictly
    ordered values or are given on a model with more than one driver (each
    driver keeps its own grid).  An exponent overflowing at a level (or
    whose square overflows in the fit) and a jump-time level past the
    jump-time cap raise ``ValueError`` too.

    Deterministic: equal arguments (including ``SeedSpec``) produce
    bit-identical reports.
    """
    n = operator.index(n)
    if n != 0 and n < 2:
        raise ValueError(f"n must be 0 (no Monte Carlo) or at least 2, got {n}")
    times = tuple(float(t) for t in times)
    if not all(math.isfinite(t) and t >= 0.0 for t in times):
        raise ValueError(f"family times must be finite and nonnegative, got {times}")
    if levels is not None:
        _check_levels(levels)
        if len(model.drivers) > 1:
            # one grid would cut a waiting time inside its bulk
            raise ValueError(
                f"explicit levels need a one-driver model; {model.name} has "
                f"{len(model.drivers)} drivers, each probed on its own grid")
    exponent, weight, f_batch = pathwise_functional(spec, model)
    if weight is not None and times:
        raise ValueError(f"{spec.kind} is evaluated at the path horizon only; "
                         "it takes no family times")
    if f_batch is None and n >= 2:
        raise ValueError(
            f"{spec.kind} has no Monte Carlo cross-check: its exponents exceed "
            "float range (use n = 0)"
        )
    estimator = None
    if n >= 2:
        estimator = "importance-quantile" if weight is None else "pathwise"
    condition_doc = {
        "model": model.name,
        "kind": spec.kind,
        "control": None if spec.control is None else spec.control.label(),
        "epsilon": spec.epsilon,
        "seed": seeds.seed,
        "streams": seeds.streams,
        "n": n,
        "levels": None if levels is None else [float(x) for x in levels],
        "times": list(times),
        "estimator": estimator,
    }

    factors = _split_factors(model, _on_drivers(model, exponent))
    # both the exponent and the weight must pass the separability probe
    weights = ([None] if weight is None
               else [w for _, w in _split_factors(model, _on_drivers(model, weight))])

    def analyze(d: Driver, g, w) -> _FactorAnalysis:
        lv = tuple(levels) if levels is not None else d.levels
        if f_batch is None:
            return _analyze_log_scale(d, g, lv)
        return _analyze_factor(d, g, lv, w)

    # term j weights driver j's factor; a weightless kind has one term
    terms = [_combine_factors([analyze(d, g, w if i == j else None)
                               for i, (d, g) in enumerate(factors)])
             for j, w in enumerate(weights)]
    lead = _lead(terms)
    if lead is None:
        verdict, value, evidence = "finite", sum(t.value for t in terms), None
    else:
        verdict, value, evidence = lead.verdict, None, lead.evidence

    if verdict == "finite" and times:
        breaks = spec.control.breaks if spec.control is not None else ()
        for t in times:
            at_t = _value_at_time(model, exponent, t, breaks)
            # values within the quadrature contract of each other are
            # equal: rounding noise must not replace the reported bits
            if at_t - value > max(_QUAD_ACCEPT_ABS, _QUAD_ACCEPT_REL * value):
                value = at_t

    estimate = None
    if n >= 2:
        if weight is not None:
            estimate = estimate_batch(model, f_batch, n, seeds)
        else:
            estimate = _importance_estimate(model, f_batch, n, seeds)

    return ConditionReport(
        condition=condition_doc,
        verdict=verdict,
        estimate=estimate,
        divergence=evidence,
        quadrature=value,
    )
