"""The stochastic exponential and the catalog of integrability functionals.

For a path M with jumps dM > -1 the stochastic exponential is

    E_t(M) = exp{M_t - <M^c>_t / 2} prod_{s<=t} (1 + dM_s) e^{-dM_s},

the unique solution of ``E_t = 1 + int_0^t E_{s-} dM_s``.  Every path here
is purely discontinuous, so ``<M^c> = 0`` and each ``<M^c>`` term of the
criteria vanishes.  Everything is computed pathwise in log space: the
linear jump terms of ``M_t`` cancel against the ``e^{-dM}`` factors
symbolically, so the log value is

    drift(t) + sum log(1 + dM_s),

which never overflows for jump sizes up to e^700.

The condition functionals share the per-jump building block
``log(1+d) - d/(1+d)`` and differ in the control-process terms.  The
evaluator with control ``a == 0`` reproduces the plain jump functional bit
for bit: its extra term per jump, ``log1p(a d)``, is ``log1p(+-0) = +-0``.

Next to the scalar functionals sit batch kernels over a
:class:`~doleans.paths.PathBatch`, evaluated at each row's horizon.  They
repeat the scalar arithmetic operation for operation (control segments
summed in segment order), and both routes take their transcendentals
from NumPy's ufuncs (:mod:`doleans.transcendental`: a ufunc pass on a
column here, the same ufunc on one float there), so every row is
bit-identical to the scalar value.  :func:`pathwise_functional` gives
each condition kind's integrand as an :class:`Integrand` record of an
exponent, an optional weight and its batch kernel, whose
:meth:`Integrand.rows` give the exponent and the weight row by row for
the quadrature nodes.  Family times and the log-scale kinds build their
rows from the exponent on one path at a time, so the table reads the
float cores ``_jacod_log`` and ``_theorem1_log`` that
:func:`jacod_functional` and :func:`theorem1_functional` wrap, without
their range checks and the :class:`FunctionalValue` around the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import quadpack
from .paths import (
    JumpPath,
    PathBatch,
    PredictableControl,
    ProcessModel,
)
from .transcendental import EXP_MAX, exp, log1p

__all__ = [
    "CONDITION_KINDS",
    "ConditionSpec",
    "FunctionalValue",
    "UnsupportedModelError",
    "log_stoch_exponential",
    "stoch_exponential",
    "sde_residual",
    "jacod_functional",
    "protter_shimbo_functional",
    "lepingle_memin_A",
    "theorem1_functional",
    "lemma1_functional",
    "jump_term_reduction_gap",
    "exp_or_inf",
    "log_stoch_exponential_batch",
    "stoch_exponential_batch",
    "jacod_batch",
    "theorem1_batch",
    "lemma1_batch",
    "WeightedBatch",
    "Integrand",
    "pathwise_functional",
]

class UnsupportedModelError(ValueError):
    """The requested condition needs model data the model does not carry."""


@dataclass(frozen=True)
class ConditionSpec:
    """Which integrability condition to evaluate, with its parameters.

    ``theorem1`` requires a predictable control; its ``epsilon`` defaults
    to 1/2.  Any value in (0, 1) is admissible, and it is validated and
    reported but moves no value: the term it scales integrates against
    ``<M^c>``, which is zero on every path.  The other kinds forbid both
    parameters.
    """

    kind: str
    control: PredictableControl | None = None
    epsilon: float | None = None

    def __post_init__(self):
        if self.kind not in CONDITION_KINDS:
            raise ValueError(f"unknown condition kind {self.kind!r}")
        if self.kind == "theorem1":
            if self.control is None:
                raise ValueError("theorem1 requires a control process")
            if self.epsilon is None:
                object.__setattr__(self, "epsilon", 0.5)
            if not (0.0 < self.epsilon < 1.0):
                raise ValueError("epsilon must lie strictly in (0, 1)")
        else:
            if self.control is not None or self.epsilon is not None:
                raise ValueError(f"{self.kind} takes no control or epsilon")

    def label(self) -> str:
        if self.kind != "theorem1":
            return self.kind
        return f"theorem1(a={self.control.label()}, eps={self.epsilon!r})"


@dataclass(frozen=True)
class FunctionalValue:
    """Log-space value of a pathwise exponential-family functional.

    ``finite`` records whether ``exp(log_value)`` is representable in
    float64; exponentiation is deferred to reporting.
    """

    log_value: float
    finite: bool

    @classmethod
    def from_log(cls, log_value: float) -> "FunctionalValue":
        return cls(log_value, log_value < EXP_MAX)

    @property
    def value(self) -> float:
        if not self.finite:
            return math.inf
        return exp(self.log_value)


def exp_or_inf(x: float) -> float:
    """``exp(x)``, with ``inf`` where the result overflows."""
    if x > EXP_MAX:
        return math.inf
    return exp(x)


def exp_or_inf_array(x: np.ndarray) -> np.ndarray:
    """:func:`exp_or_inf` of every element: ``np.exp``, whose overflow past
    ``EXP_MAX`` is ``inf`` without a warning."""
    with np.errstate(over="ignore"):
        return np.exp(x)


def _jump_term(dm, log1p_dm):
    # log(1+d) - d/(1+d), from log1p_dm = log1p(d), on floats or columns;
    # nonnegative, zero only at d = 0
    return log1p_dm - dm / (1.0 + dm)


def log_stoch_exponential(path: JumpPath, t: float) -> float:
    """Natural log of ``E_t(M)``, stable for arbitrarily large jumps."""
    path._check_time(t)
    s = 0.0
    for ti, dm in path.jumps:
        if ti > t:
            break
        s += log1p(dm)
    return path.drift(t) + s


def stoch_exponential(path: JumpPath, t: float) -> float:
    """``E_t(M) >= 0``; strictly positive in exact arithmetic since dM > -1.

    May underflow to 0.0 (or overflow to inf) in float64 for extreme jump
    sizes; use :func:`log_stoch_exponential` when magnitudes matter.
    """
    return exp_or_inf(log_stoch_exponential(path, t))


def sde_residual(path: JumpPath, t: float) -> float:
    """Defect of the defining equation: ``E_t - 1 - int_0^t E_{s-} dM_s``.

    The jump part of the integral is exact.  The drift part is adaptive
    quadrature (one :func:`doleans.quadpack.integrate` call, to 1e-12
    absolute or relative) over the gaps between jumps where the drift
    moves, summed with the jump terms in time order, so the residual is
    bounded by ``1e-9 * max(1, E_t)`` for well-scaled paths.  The drift
    must be monotone: a gap whose ends carry the same drift then carries
    a constant one, whose integral is zero.
    """
    path._check_time(t)
    target = stoch_exponential(path, t)
    drift = path.drift
    at, derivative = drift.__call__, drift.derivative

    # the gaps where the drift moves, each with the log of the jumps of E
    # before it; terms holds the jump terms in time order, None per gap
    pieces: list[tuple[float, float]] = []
    gap_logs: list[float] = []
    terms: list[float | None] = []
    cum_jump_log = 0.0
    prev, at_prev = 0.0, at(0.0)
    for ti, dm in [(ti, dm) for ti, dm in path.jumps if ti <= t] + [(t, None)]:
        at_ti = at(ti)
        if at_ti != at_prev:
            pieces.append((prev, ti))
            gap_logs.append(cum_jump_log)
            terms.append(None)
        if dm is not None:
            terms.append(exp(at_ti + cum_jump_log) * dm)
            cum_jump_log += log1p(dm)
            prev, at_prev = ti, at_ti

    def integrand(nodes, owners):
        return [exp(at(s) + gap_logs[i]) * derivative(s)
                for s, i in zip(nodes, owners)], ()

    gaps = iter(quadpack.integrate(integrand, pieces, 1e-12, 1e-12, 200)
                if pieces else ())
    integral = 0.0
    for term in terms:
        integral += next(gaps)[0] if term is None else term
    return target - 1.0 - integral


def _jacod_log(path: JumpPath, t: float) -> float:
    """Log value of :func:`jacod_functional`, for ``t`` in ``[0, horizon]``
    unchecked."""
    s = 0.0
    for ti, dm in path.jumps:
        if ti > t:
            break
        s += _jump_term(dm, log1p(dm))
    return s


def jacod_functional(path: JumpPath, t: float) -> FunctionalValue:
    """Pathwise exponent of the jump-based integrability condition:

    ``sum_{s<=t} (log(1+dM_s) - dM_s/(1+dM_s))``.
    """
    path._check_time(t)
    return FunctionalValue.from_log(_jacod_log(path, t))


def _closed_form(model: ProcessModel, form: Callable | None, what: str) -> Callable:
    """``form``, or :class:`UnsupportedModelError` if the model lacks it."""
    if form is None:
        raise UnsupportedModelError(f"model {model.name!r} carries no closed-form {what}")
    return form


def protter_shimbo_functional(
    model: ProcessModel, path: JumpPath, t: float
) -> FunctionalValue:
    """Pathwise exponent ``<M^d>_t`` of the bracket-based condition.

    Needs the model's closed-form ``disc_qv``; models without one are
    rejected.
    """
    disc_qv = _closed_form(model, model.disc_qv, "<M^d>")
    path._check_time(t)
    return FunctionalValue.from_log(disc_qv(path, t))


def lepingle_memin_A(path: JumpPath, t: float) -> float:
    """The nondecreasing process ``sum ((1+dM) log(1+dM) - dM)``."""
    path._check_time(t)
    s = 0.0
    for ti, dm in path.jumps:
        if ti > t:
            break
        s += (1.0 + dm) * log1p(dm) - dm
    return s


def _theorem1_log(path: JumpPath, a: PredictableControl, t: float) -> float:
    """Log value of :func:`theorem1_functional`, for ``t`` in
    ``[0, horizon]`` unchecked."""
    drift_part = 0.0
    for lo, hi, v in a.segments_until(t):
        drift_part += v * (path.drift(hi) - path.drift(lo))

    s = 0.0
    for ti, dm in path.jumps:
        if ti > t:
            break
        av = a.value_at(ti)
        s += _jump_term(dm, log1p(dm)) + log1p(av * dm)
    return drift_part + s


def theorem1_functional(
    path: JumpPath, a: PredictableControl, eps: float, t: float
) -> FunctionalValue:
    """Pathwise exponent of the control-extended condition:

    ``int_0^t a dM + sum (log(1+dM) - dM/(1+dM) + log(1+a dM) - a dM)``.

    The condition's ``<M^c>`` terms, ``int (1/2 - a) d<M^c>`` and the one
    scaled by ``eps``, vanish on these purely discontinuous paths, so
    ``eps`` is validated but moves no value.  The linear jump part of
    ``int a dM`` cancels the ``- a dM`` terms symbolically, so only
    logarithms of jump sizes enter.  With ``a == 0`` the result is
    bit-identical to :func:`jacod_functional`.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError("epsilon must lie strictly in (0, 1)")
    path._check_time(t)
    return FunctionalValue.from_log(_theorem1_log(path, a, t))


def lemma1_functional(path: JumpPath, t: float) -> float:
    """``E_t(M)`` times the jump-condition exponent; the integrand whose
    bounded expectation forces uniform integrability of the exponential."""
    return stoch_exponential(path, t) * jacod_functional(path, t).log_value


# ----------------------------------------------------------------------
# Batch kernels: the functionals above at every row's horizon.
# ----------------------------------------------------------------------

def log_stoch_exponential_batch(batch: PathBatch) -> np.ndarray:
    """:func:`log_stoch_exponential` at every row's horizon."""
    s = np.zeros(len(batch))
    for dm in batch.jump_dm.T:
        s = s + np.log1p(dm)
    return batch.drift.array(batch.horizon) + s


def stoch_exponential_batch(batch: PathBatch) -> np.ndarray:
    """:func:`stoch_exponential` at every row's horizon."""
    return exp_or_inf_array(log_stoch_exponential_batch(batch))


def jacod_batch(batch: PathBatch) -> np.ndarray:
    """:func:`jacod_functional` log values at every row's horizon."""
    s = np.zeros(len(batch))
    for dm in batch.jump_dm.T:
        s = s + _jump_term(dm, np.log1p(dm))
    return s


def theorem1_batch(batch: PathBatch, a: PredictableControl) -> np.ndarray:
    """:func:`theorem1_functional` log values at every row's horizon."""
    T = batch.horizon
    drift = batch.drift
    drift_T = drift.array(T)

    # row i sums the segments of a.segments_until(T[i]): those of
    # segments_until(inf) that start before T[i], the last one cut at T[i].
    # The drift is evaluated at a break only where some row's segment ends
    # there, as in the scalar path (e^b may overflow for breaks past every
    # horizon).
    drift_part = np.zeros(len(batch))
    for lo, hi, v in a.segments_until(math.inf):
        live = T > lo
        if not live.any():
            break
        cut = hi < T
        d_hi = np.where(cut, drift(hi), drift_T) if cut.any() else drift_T
        drift_part = drift_part + np.where(live, v * (d_hi - drift(lo)), 0.0)

    values = np.asarray(a.values)
    breaks = np.asarray(a.breaks, dtype=float)
    s = np.zeros(len(batch))
    for t, dm in zip(batch.jump_t.T, batch.jump_dm.T):
        av = values[np.searchsorted(breaks, t, side="left")]
        s = s + (_jump_term(dm, np.log1p(dm)) + np.log1p(av * dm))
    return drift_part + s


def _lemma1_rows(batch: PathBatch) -> tuple[np.ndarray, np.ndarray]:
    """The two factors of :func:`lemma1_functional` at every row's horizon,
    :func:`log_stoch_exponential` and the :func:`jacod_functional` log
    value."""
    return log_stoch_exponential_batch(batch), jacod_batch(batch)


@dataclass(frozen=True)
class WeightedBatch:
    """Batch kernel of a weighted integrand ``exp(exponent) weight``.

    ``rows(batch)`` gives the exponent's and the weight's rows; calling the
    kernel gives ``exp_or_inf(exponent) * weight``.
    """

    rows: Callable[[PathBatch], tuple[np.ndarray, np.ndarray]]

    def __call__(self, batch: PathBatch) -> np.ndarray:
        exponent, weight = self.rows(batch)
        return exp_or_inf_array(exponent) * weight


_LEMMA1_BATCH = WeightedBatch(_lemma1_rows)


def lemma1_batch(batch: PathBatch) -> np.ndarray:
    """:func:`lemma1_functional` values at every row's horizon."""
    return _LEMMA1_BATCH(batch)


class Integrand(NamedTuple):
    """A kind's integrand ``exp(exponent) [weight]``; see :func:`pathwise_functional`."""

    exponent: Callable[[JumpPath, float], float]
    weight: Callable[[JumpPath, float], float] | None
    batch: Callable[[PathBatch], np.ndarray] | None

    def rows(self, batch: PathBatch) -> tuple[np.ndarray, np.ndarray | None]:
        """``exponent`` and ``weight`` (``None`` without one) at every row's
        horizon, bit for bit, from one call of the batch kernel."""
        if self.weight is None:
            return self.batch(batch), None
        return self.batch.rows(batch)


def _theorem1_entry(spec: ConditionSpec, model: ProcessModel) -> Integrand:
    a = spec.control
    return Integrand(lambda p, t: _theorem1_log(p, a, t), None,
                     lambda b: theorem1_batch(b, a))


_FUNCTIONALS = {
    "jacod": lambda spec, model: Integrand(_jacod_log, None, jacod_batch),
    "protter_shimbo": lambda spec, model: Integrand(
        _closed_form(model, model.disc_qv, "<M^d>"), None, None),
    "lepingle_memin": lambda spec, model: Integrand(
        _closed_form(model, model.lm_compensator, "compensator"), None, None),
    "theorem1": _theorem1_entry,
    "lemma1": lambda spec, model: Integrand(log_stoch_exponential, _jacod_log,
                                            _LEMMA1_BATCH),
}

CONDITION_KINDS = tuple(_FUNCTIONALS)


def pathwise_functional(spec: ConditionSpec, model: ProcessModel) -> Integrand:
    """The pathwise integrand of ``spec`` on ``model``, the one record of
    per-kind facts.

    The condition asks whether ``E[exp(exponent(path, t)) weight(path, t)]``
    is finite.  Only ``lemma1`` has a weight (``None`` is a weight of one):
    its exponent is ``log E_t(M)``, its weight the jump-condition exponent.
    ``exponent`` and ``weight`` take ``t`` in ``[0, horizon]``; the
    ``jacod`` and ``theorem1`` exponents and the ``lemma1`` weight do not
    check it, and give the public functional's ``log_value`` bit for bit.
    ``batch(path_batch)`` gives at every row's horizon, bit for bit,
    ``exponent`` without a weight and ``exp_or_inf(exponent) * weight``
    with one, where it is a :class:`WeightedBatch`; :meth:`Integrand.rows`
    gives the exponent and the weight apart.  ``batch`` is ``None``
    exactly for ``protter_shimbo`` and ``lepingle_memin``, whose exponents
    exceed float range.  Raises :class:`UnsupportedModelError` at once
    when the model lacks the closed form the kind needs.
    """
    return _FUNCTIONALS[spec.kind](spec, model)


def jump_term_reduction_gap(a, dm):
    """Gap ``[log(1+d) - d/(1+d)] - [log(1+ad) - ad/(1+ad)]`` for ``a in [0,1]``.

    Nonnegative because the per-jump term is monotone in the scaled jump
    size on ``d > -1``.  Accepts scalars or arrays.
    """
    a_arr = np.asarray(a, dtype=float)
    d_arr = np.asarray(dm, dtype=float)
    if not np.all((a_arr >= 0.0) & (a_arr <= 1.0)):
        raise ValueError("control values must lie in [0, 1]")
    if not np.all(d_arr > -1.0):
        raise ValueError("jump sizes must exceed -1")
    full = np.log1p(d_arr) - d_arr / (1.0 + d_arr)
    ad = a_arr * d_arr
    scaled = np.log1p(ad) - ad / (1.0 + ad)
    out = full - scaled
    if np.ndim(a) == 0 and np.ndim(dm) == 0:
        return float(out)
    return out
