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

The quadrature is :mod:`doleans.quadpack`, which gives
``scipy.integrate.quad``'s bits.  A factor's pieces run together, one
round at a time, and every node of a round goes through
``model.build_batch``, the kind's batch kernel and one ``log_density``
call, the other driver at its anchor; the separability probe is one such
batch too.  Every row equals the scalar functional bit for bit, so each
piece gets the value a node-by-node scalar loop would.  Family times and
:func:`quadrature_expectation` evaluate their nodes one at a time.

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
from dataclasses import dataclass
from typing import Callable, Collection, NamedTuple, Sequence

import numpy as np

from . import quadpack
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
    Integrand,
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


Piece = tuple[float, float]
#: ``values(x) -> (v, bad)``: an integrand at the driver values ``x``, and
#: ``None`` or a mask of the nodes whose value overflowed.
NodeValues = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray | None]]


def _quad_run(values: NodeValues, pieces: Sequence[Piece]) -> list[tuple[float, float] | None]:
    """``(value, error bound)`` of the integral of ``values`` over every
    piece, or ``None`` for a piece where a node overflowed.

    All pieces run together through :func:`doleans.quadpack.integrate`
    (``quad`` to 1e-11 absolute or relative, 200 subintervals), one call
    of ``values`` per round.  A finite piece with ``lo >= 0`` and
    ``hi > 1`` is integrated in ``y = log1p(x)``, which spreads the nodes
    over every scale it spans: in ``x``, a piece from 0 far past a law's
    bulk leaves that bulk between the nodes and reads 0.0.  Every other
    piece is integrated in ``x``.
    """
    in_log1p = np.array([lo >= 0.0 and 1.0 < hi < math.inf for lo, hi in pieces])
    coords = [(math.log1p(lo), math.log1p(hi)) if m else (lo, hi)
              for m, (lo, hi) in zip(in_log1p.tolist(), pieces)]

    def nodes(ys: list, owners: list) -> tuple[list, Collection[int]]:
        owner = np.array(owners)
        x = np.array(ys)
        m = in_log1p[owner]
        mapped = m.any()
        if mapped:
            y = x[m]
            x[m] = apply_math(math.expm1, y)
        v, bad = values(x)
        if mapped:
            v[m] = v[m] * apply_math(math.exp, y)
        return v.tolist(), () if bad is None else set(owner[bad].tolist())

    return quadpack.integrate(nodes, coords, _QUAD_TARGET, _QUAD_TARGET, 200)


def _sum_pieces(outcomes: Sequence[tuple[float, float] | None]) -> float:
    """Sum of piece values in piece order, within the contract."""
    total = 0.0
    err = 0.0
    for outcome in outcomes:
        if outcome is None:
            raise QuadratureAccuracyError(
                "integrand overflowed during refinement", math.inf, math.inf)
        v, e = outcome
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


def _integrate(f: Callable[[float], float], pieces: Sequence[Piece]) -> float:
    """Sum of the integrals of the scalar integrand ``f``, called node by
    node, over ``pieces``, within the contract; an ``OverflowError`` it
    raises fails the sum as a node that overflowed does."""
    try:
        outcomes = _quad_run(lambda x: (apply_math(f, x), None), pieces)
    except OverflowError:
        outcomes = [None]
    return _sum_pieces(outcomes)


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
    density = dist.density
    return _integrate(lambda x: integrand(x) * density(x),
                      _clipped_pieces(dist.support, truncation))


def _exp_weighted(
    dist: InverseCdfDistribution, log_integrand: Callable[[float], float],
) -> Callable[[float], float]:
    """``exp(log_integrand(x) + log_density(x))`` at one node.

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
        return math.exp(log_integrand(x) + ld)

    return f


def _exp_weighted_rows(
    dist: InverseCdfDistribution,
    rows: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray | None]],
    weighted: bool,
) -> NodeValues:
    """Node values ``exp(g(x) + log_density(x)) [w(x)]`` from the factor
    rows ``rows(x) = (g, w)``, with one ``log_density`` call.

    Row for row this is :func:`_exp_weighted` (times the weight): ``0.0``
    where the log density is ``-inf``, and ``exp`` through ``math``.  A
    node whose finite exponent overflows, where ``math.exp`` raises, is
    marked bad; an infinite one gives ``inf``.
    """
    log_density = dist.log_density

    def values(x: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        ld = log_density(x)
        live = ld != -math.inf
        out = np.zeros(len(x))
        if not live.any():
            return out, None
        g, w = rows(x[live])
        arg = g + ld[live]
        v = exp_or_inf_array(arg)
        out[live] = v * w if weighted else v
        overflow = np.isinf(v) & np.isfinite(arg)
        if not overflow.any():
            return out, None
        bad = np.zeros(len(x), dtype=bool)
        bad[live] = overflow
        return out, bad

    return values


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
    A cut far past the law's bulk is safe: :func:`_quad_run` takes the
    wide first piece it leaves in ``log1p`` coordinates.  The nodes go
    through the scalar functional one path at a time.
    """
    kinks = (t, *(b for b in breaks if b < t))
    value = 1.0
    for driver, g in _split_factors(model, _on_drivers(model, timed, t)):
        cuts = [] if driver.start is None else sorted(
            {k - driver.start for k in kinks})
        value *= _integrate(_exp_weighted(driver.dist, g),
                            _split_pieces(driver.dist.support, cuts))
    return value


# interior quantiles plus both tails, where the log functional is largest
_PROBE_QUANTILES = (1e-9, 0.25, 0.5, 0.75, 1.0 - 1e-9)


def _probe_points(drivers: Sequence[Driver]) -> list[tuple[float, float]]:
    """The separability probe of a two-driver model: the anchors, each
    driver's probe points with the other at its anchor, then every pair."""
    (x0, y0) = anchors = tuple(d.anchor for d in drivers)
    xs, ys = ([d.dist.inverse_cdf(q) for q in _PROBE_QUANTILES] for d in drivers)
    return [anchors, *((x, y0) for x in xs), *((x0, y) for y in ys),
            *((x, y) for x in xs for y in ys)]


def _separable_base(values: Sequence[float]) -> float:
    """The anchor value of a log functional from its values at
    :func:`_probe_points`, once they show it separates over the drivers."""
    base = values[0]
    k = len(_PROBE_QUANTILES)
    gxs = [v - base for v in values[1:k + 1]]
    gys = values[k + 1:2 * k + 1]
    wholes = iter(values[2 * k + 1:])
    for gx in gxs:
        for gy in gys:
            whole = next(wholes)
            if abs(whole - (gx + gy)) > 1e-9 * max(1.0, abs(whole)):
                raise UnsupportedModelError(
                    "log functional does not separate over the drivers"
                )
    return base


def _check_drivers(model: ProcessModel) -> Sequence[Driver]:
    if len(model.drivers) not in (1, 2):
        raise UnsupportedModelError("factorization supports at most two drivers")
    return model.drivers


def _split_factors(
    model: ProcessModel, f_vals: Callable[[tuple], float]
) -> list[tuple[Driver, Callable[[float], float]]]:
    """Additive split of a log functional over independent drivers.

    Valid because the per-jump terms depend on one driver each and
    piecewise-constant controls keep the control integral separable; a
    numeric probe (:func:`_probe_points`, each point evaluated once)
    guards against inputs breaking that structure.  Driver 0 of two takes
    the functional less its value at the anchors.
    """
    drivers = _check_drivers(model)
    if len(drivers) == 1:
        return [(drivers[0], lambda x: f_vals((x,)))]
    (x0, y0) = (d.anchor for d in drivers)
    base = _separable_base([f_vals(p) for p in _probe_points(drivers)])
    return [(drivers[0], lambda x: f_vals((x, y0)) - base),
            (drivers[1], lambda y: f_vals((x0, y)))]


FactorRows = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray | None]]


def _split_rows(model: ProcessModel, record: Integrand) -> list[tuple[Driver, FactorRows]]:
    """:func:`_split_factors` of a kind's exponent, and of its weight if it
    has one, through the batch kernel.

    The probe points go through ``model.build_batch`` and the kernel as
    one batch, and a factor's rows ``(g, w)`` at driver values ``x`` as
    another, the other driver at its anchor.  Every row equals the scalar
    functional, so the split and its factors are the scalar ones bit for
    bit.
    """
    drivers = _check_drivers(model)
    bases = (0.0, 0.0)
    if len(drivers) == 2:
        points = _probe_points(drivers)
        g, w = record.rows(model.build_batch(*map(np.array, zip(*points))))
        bases = tuple(_separable_base(r.tolist()) if r is not None else 0.0
                      for r in (g, w))

    def on_driver(j: int) -> FactorRows:
        def rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
            columns = [x if i == j else np.full(len(x), d.anchor)
                       for i, d in enumerate(drivers)]
            g, w = record.rows(model.build_batch(*columns))
            if j == 0 and len(drivers) == 2:
                g = g - bases[0]
                if w is not None:
                    w = w - bases[1]
            return g, w

        return rows

    return [(d, on_driver(j)) for j, d in enumerate(drivers)]


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
    driver: Driver, values: NodeValues, levels: Sequence[float],
) -> _FactorAnalysis:
    """Verdict on the integral of ``values`` over one driver from its
    truncations.

    A truncated family that already grows materially is ``diverging``
    without a full-support integral; otherwise the full integral decides
    between ``finite`` and ``inconclusive``.  The truncations telescope:
    every support piece is split at the cuts of all levels that fall
    inside it, each interval between successive cuts is integrated once,
    all of them in one :func:`_quad_run`, and a level's value is the sum
    of its intervals in support order, so it does not depend on the order
    of ``levels``.  The full-support integral takes each support piece
    whole: a piece no cut splits is an interval of the first run, and the
    others go into a second run.
    """
    # float keys: a -0.0 and a 0.0 endpoint give the same quadrature nodes
    done: dict[Piece, tuple[float, float] | None] = {}

    def run(pieces: Sequence[Piece]) -> None:
        todo = list(dict.fromkeys(p for p in pieces if p not in done))
        if todo:
            done.update(zip(todo, _quad_run(values, todo)))

    support = driver.dist.support
    cuts = sorted({c for l in levels for c in driver.truncate(l) if c is not None})
    family = {float(l): _split_pieces(_clipped_pieces(support, driver.truncate(l)), cuts)
              for l in levels}
    run([p for pieces in family.values() for p in pieces])
    evidence = detect_divergence(
        lambda level: _sum_pieces([done[p] for p in family[level]]),
        levels, driver.growth)
    first, last = evidence.values[0], evidence.values[-1]
    if evidence.diverging and last - first > 0.01 * max(abs(last), 1e-300):
        return _FactorAnalysis("diverging", None, evidence)
    full = _clipped_pieces(support, None)
    run(full)
    try:
        return _FactorAnalysis("finite", _sum_pieces([done[p] for p in full]),
                               evidence)
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
    record = pathwise_functional(spec, model)
    exponent, weight, f_batch = record
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

    def grid(d: Driver) -> tuple[float, ...]:
        return tuple(levels) if levels is not None else d.levels

    if f_batch is None:
        terms = [_combine_factors([
            _analyze_log_scale(d, g, grid(d))
            for d, g in _split_factors(model, _on_drivers(model, exponent))])]
    else:
        # the exponent and the weight both pass the separability probe;
        # term j weights driver j's factor, a weightless kind has one term
        factors = _split_rows(model, record)
        weighted = [None] if weight is None else range(len(factors))
        terms = [_combine_factors([
            _analyze_factor(d, _exp_weighted_rows(d.dist, rows, i == j), grid(d))
            for i, (d, rows) in enumerate(factors)]) for j in weighted]
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
