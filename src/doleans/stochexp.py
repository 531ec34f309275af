"""The stochastic exponential and the catalog of integrability functionals.

For a path M with jumps dM > -1 the stochastic exponential is

    E_t(M) = exp{M_t - <M^c>_t / 2} prod_{s<=t} (1 + dM_s) e^{-dM_s},

the unique solution of ``E_t = 1 + int_0^t E_{s-} dM_s``.  Everything here
is computed pathwise in log space: the linear jump terms of ``M_t`` cancel
against the ``e^{-dM}`` factors symbolically, so the log value is

    drift(t) - <M^c>_t / 2 + sum log(1 + dM_s),

which never overflows for jump sizes up to e^700.

The condition functionals share the per-jump building block
``log(1+d) - d/(1+d)`` and differ in the control-process and
quadratic-variation terms.  The evaluator with control ``a == 0`` is
arranged to reproduce the plain jump functional bit for bit.

Next to the scalar functionals sit batch kernels over a
:class:`~doleans.paths.PathBatch`, evaluated at each row's horizon.  They
repeat the scalar arithmetic operation for operation (transcendentals
through ``math``, control segments summed as ``math.fsum`` does), so every
row is bit-identical to the scalar value; :func:`pathwise_functional`
pairs the two per condition kind.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .paths import (
    JumpPath,
    PathBatch,
    PredictableControl,
    ProcessModel,
    ZeroDrift,
    apply_math,
)

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
    "jacod_batch",
    "theorem1_batch",
    "lemma1_batch",
    "pathwise_functional",
]

CONDITION_KINDS = ("jacod", "protter_shimbo", "lepingle_memin", "theorem1", "lemma1")

_LOG_FLOAT_MAX = math.log(sys.float_info.max)


class UnsupportedModelError(ValueError):
    """The requested condition needs model data the model does not carry."""


@dataclass(frozen=True)
class ConditionSpec:
    """Which integrability condition to evaluate, with its parameters.

    ``theorem1`` requires a predictable control; its ``epsilon`` defaults
    to 1/2 (any value in (0, 1) is admissible and the term it scales
    vanishes for models without a continuous part).  The other kinds
    forbid both parameters.
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
        return cls(log_value, log_value < _LOG_FLOAT_MAX)

    @property
    def value(self) -> float:
        if not self.finite:
            return math.inf
        return math.exp(self.log_value)


def exp_or_inf(x: float) -> float:
    """``math.exp(x)``, with ``inf`` where the result overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def exp_or_inf_array(x: np.ndarray) -> np.ndarray:
    out = np.empty(len(x))
    # exp(709) ~ 8.2e307 cannot overflow; larger (and nan) arguments go
    # through the scalar helper
    safe = x <= 709.0
    out[safe] = apply_math(math.exp, x[safe])
    rest = ~safe
    if rest.any():
        out[rest] = apply_math(exp_or_inf, x[rest])
    return out


def _jump_term(dm: float) -> float:
    # log(1+d) - d/(1+d); nonnegative, zero only at d = 0
    return math.log1p(dm) - dm / (1.0 + dm)


def _jump_term_array(dm: np.ndarray) -> np.ndarray:
    return apply_math(math.log1p, dm) - dm / (1.0 + dm)


def log_stoch_exponential(path: JumpPath, t: float) -> float:
    """Natural log of ``E_t(M)``, stable for arbitrarily large jumps."""
    path._check_time(t)
    s = 0.0
    for ti, dm in path.jumps:
        if ti > t:
            break
        s += math.log1p(dm)
    return path.drift(t) - 0.5 * path.cont_qv(t) + s


def stoch_exponential(path: JumpPath, t: float) -> float:
    """``E_t(M) >= 0``; strictly positive in exact arithmetic since dM > -1.

    May underflow to 0.0 (or overflow to inf) in float64 for extreme jump
    sizes; use :func:`log_stoch_exponential` when magnitudes matter.
    """
    lv = log_stoch_exponential(path, t)
    try:
        return math.exp(lv)
    except OverflowError:
        return math.inf


def sde_residual(path: JumpPath, t: float) -> float:
    """Defect of the defining equation: ``E_t - 1 - int_0^t E_{s-} dM_s``.

    The jump part of the integral is exact; the drift part is adaptive
    quadrature between jumps, so the residual is bounded by
    ``1e-9 * max(1, E_t)`` for well-scaled paths.

    Only meaningful for pathwise-consistent inputs, i.e. ``cont_qv == 0``:
    a nonzero abstract quadratic variation without a realized continuous
    martingale is a probability-zero configuration for which the integral
    equation does not hold realization by realization.
    """
    path._check_time(t)
    target = stoch_exponential(path, t)
    qv = path.cont_qv
    drift = path.drift
    has_drift = not isinstance(drift, ZeroDrift)

    integral = 0.0
    cum_jump_log = 0.0
    prev = 0.0
    events = [(ti, dm) for ti, dm in path.jumps if ti <= t]
    for ti, dm in events + [(t, None)]:
        if has_drift and ti > prev:
            c = cum_jump_log

            def integrand(s, _c=c):
                return math.exp(drift(s) - 0.5 * qv(s) + _c) * drift.derivative(s)

            val, _err = quad(integrand, prev, ti, epsabs=1e-12, epsrel=1e-12, limit=200)
            integral += val
        if dm is not None:
            e_left = math.exp(drift(ti) - 0.5 * qv(ti) + cum_jump_log)
            integral += e_left * dm
            cum_jump_log += math.log1p(dm)
            prev = ti
    return target - 1.0 - integral


def jacod_functional(path: JumpPath, t: float) -> FunctionalValue:
    """Pathwise exponent of the jump-based integrability condition:

    ``<M^c>_t / 2 + sum_{s<=t} (log(1+dM_s) - dM_s/(1+dM_s))``.
    """
    path._check_time(t)
    s = 0.0
    for ti, dm in path.jumps:
        if ti > t:
            break
        s += _jump_term(dm)
    return FunctionalValue.from_log(0.5 * path.cont_qv(t) + s)


def protter_shimbo_functional(
    model: ProcessModel, path: JumpPath, t: float
) -> FunctionalValue:
    """Pathwise exponent ``<M^c>_t / 2 + <M^d>_t`` of the bracket-based condition.

    Needs the model's closed-form ``disc_qv``; models without one are
    rejected.
    """
    if model.disc_qv is None:
        raise UnsupportedModelError(
            f"model {model.name!r} carries no closed-form <M^d>"
        )
    path._check_time(t)
    return FunctionalValue.from_log(0.5 * path.cont_qv(t) + model.disc_qv(path, t))


def lepingle_memin_A(path: JumpPath, t: float) -> float:
    """The nondecreasing process ``<M^c>_t / 2 + sum ((1+dM) log(1+dM) - dM)``."""
    path._check_time(t)
    s = 0.0
    for ti, dm in path.jumps:
        if ti > t:
            break
        s += (1.0 + dm) * math.log1p(dm) - dm
    return 0.5 * path.cont_qv(t) + s


def theorem1_functional(
    path: JumpPath, a: PredictableControl, eps: float, t: float
) -> FunctionalValue:
    """Pathwise exponent of the control-extended condition:

    ``int_0^t a dM + int_0^t (1/2 - a) d<M^c> + eps int_0^t 1{1-a<eps} d<M^c>
    + sum (log(1+dM) - dM/(1+dM) + log(1+a dM) - a dM)``.

    The linear jump part of ``int a dM`` cancels the ``- a dM`` terms
    symbolically, so only logarithms of jump sizes enter.  With ``a == 0``
    the result is bit-identical to :func:`jacod_functional`.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError("epsilon must lie strictly in (0, 1)")
    path._check_time(t)

    # one pass over the control segments; the drift terms are summed by
    # math.fsum in segment order, exactly as integrate_control_drift does
    drift_terms = []
    qv_part = 0.0
    eps_part = 0.0
    for lo, hi, v in a.segments_until(t):
        drift_terms.append(v * (path.drift(hi) - path.drift(lo)))
        dq = path.cont_qv(hi) - path.cont_qv(lo)
        qv_part += (0.5 - v) * dq
        if 1.0 - v < eps:
            eps_part += eps * dq
    drift_part = math.fsum(drift_terms)

    s = 0.0
    for ti, dm in path.jumps:
        if ti > t:
            break
        av = a.value_at(ti)
        s += _jump_term(dm) + math.log1p(av * dm)
    return FunctionalValue.from_log(((drift_part + qv_part) + eps_part) + s)


def lemma1_functional(path: JumpPath, t: float) -> float:
    """``E_t(M)`` times the jump-condition exponent; the integrand whose
    bounded expectation forces uniform integrability of the exponential."""
    return stoch_exponential(path, t) * jacod_functional(path, t).log_value


# ----------------------------------------------------------------------
# Batch kernels: the functionals above at every row's horizon.
# ----------------------------------------------------------------------

def _fsum_rows(terms: np.ndarray, present: np.ndarray) -> np.ndarray:
    """``math.fsum`` of the present terms of every row.

    With at most two terms the correctly rounded sum is one IEEE addition
    started from +0.0 (fsum never returns -0.0); rows with more terms, or
    with a non-finite sum, go through ``math.fsum`` itself.
    """
    out = np.zeros(len(terms))
    for col, live in zip(terms.T, present.T):
        out = out + np.where(live, col, 0.0)
    slow = (present.sum(axis=1) > 2) | ~np.isfinite(out)
    for i in np.flatnonzero(slow):
        out[i] = math.fsum(terms[i][present[i]].tolist())
    return out


def jacod_batch(batch: PathBatch) -> np.ndarray:
    """:func:`jacod_functional` log values at every row's horizon."""
    s = np.zeros(len(batch))
    for dm in batch.jump_dm.T:
        s = s + _jump_term_array(dm)
    return 0.5 * batch.cont_qv.array(batch.horizon) + s


def theorem1_batch(
    batch: PathBatch, a: PredictableControl, eps: float
) -> np.ndarray:
    """:func:`theorem1_functional` log values at every row's horizon."""
    if not (0.0 < eps < 1.0):
        raise ValueError("epsilon must lie strictly in (0, 1)")
    T = batch.horizon
    drift, qv = batch.drift, batch.cont_qv
    drift_T = drift.array(T)
    qv_T = qv.array(T)

    # slot j carries values[j] on (breaks[j-1], min(breaks[j], T)], with
    # breaks[-1] = 0 and a final break at infinity: the segments of
    # PredictableControl.segments_until(T), empty slots masked out.  Drift
    # and qv are evaluated at a break only where some row's segment ends
    # there, as in the scalar path (e^b may overflow for breaks past every
    # horizon).
    lows = (0.0,) + a.breaks
    highs = a.breaks + (math.inf,)
    terms = np.zeros((len(batch), len(a.values)))
    present = np.empty(terms.shape, dtype=bool)
    qv_part = np.zeros(len(batch))
    eps_part = np.zeros(len(batch))
    for j, (lo, hi, v) in enumerate(zip(lows, highs, a.values)):
        live = present[:, j]
        np.greater(np.minimum(hi, T), lo, out=live)
        if not live.any():
            continue
        cut = hi < T
        d_hi, q_hi = drift_T, qv_T
        if cut.any():
            d_hi = np.where(cut, drift(hi), drift_T)
            q_hi = np.where(cut, qv(hi), qv_T)
        terms[:, j] = v * (d_hi - drift(lo))
        dq = q_hi - qv(lo)
        qv_part = np.where(live, qv_part + (0.5 - v) * dq, qv_part)
        if 1.0 - v < eps:
            eps_part = np.where(live, eps_part + eps * dq, eps_part)
    drift_part = _fsum_rows(terms, present)

    values = np.asarray(a.values)
    breaks = np.asarray(a.breaks, dtype=float)
    s = np.zeros(len(batch))
    for t, dm in zip(batch.jump_t.T, batch.jump_dm.T):
        av = values[np.searchsorted(breaks, t, side="left")]
        s = s + (_jump_term_array(dm) + apply_math(math.log1p, av * dm))
    return ((drift_part + qv_part) + eps_part) + s


def lemma1_batch(batch: PathBatch) -> np.ndarray:
    """:func:`lemma1_functional` values at every row's horizon."""
    T = batch.horizon
    s = np.zeros(len(batch))
    for dm in batch.jump_dm.T:
        s = s + apply_math(math.log1p, dm)
    log_e = batch.drift.array(T) - 0.5 * batch.cont_qv.array(T) + s
    return exp_or_inf_array(log_e) * jacod_batch(batch)


def _theorem1_pair(spec: ConditionSpec, model: ProcessModel):
    a, eps = spec.control, spec.epsilon
    return (lambda p, t: theorem1_functional(p, a, eps, t).log_value,
            lambda b: theorem1_batch(b, a, eps))


def _protter_shimbo_pair(spec: ConditionSpec, model: ProcessModel):
    if model.disc_qv is None:
        raise UnsupportedModelError(
            f"model {model.name!r} carries no closed-form <M^d>"
        )
    return lambda p, t: protter_shimbo_functional(model, p, t).log_value, None


def _lepingle_memin_pair(spec: ConditionSpec, model: ProcessModel):
    if model.lm_compensator is None:
        raise UnsupportedModelError(
            f"model {model.name!r} carries no closed-form compensator"
        )
    return model.lm_compensator, None


_FUNCTIONALS = {
    "jacod": lambda spec, model: (
        lambda p, t: jacod_functional(p, t).log_value, jacod_batch),
    "theorem1": _theorem1_pair,
    "protter_shimbo": _protter_shimbo_pair,
    "lepingle_memin": _lepingle_memin_pair,
    "lemma1": lambda spec, model: (lemma1_functional, lemma1_batch),
}


def pathwise_functional(spec: ConditionSpec, model: ProcessModel):
    """The pathwise functional of ``spec`` on ``model``, scalar and batched.

    Returns ``(scalar, batch)``: ``scalar(path, t)`` is the log exponent of
    the condition (for ``lemma1``, the integrand itself) and
    ``batch(path_batch)`` its values at every row's horizon, bit-identical
    to ``scalar(row, row.horizon)``.  ``batch`` is ``None`` for the kinds
    evaluated path by path only.  Raises :class:`UnsupportedModelError`
    when the model lacks the closed forms the kind needs.
    """
    return _FUNCTIONALS[spec.kind](spec, model)


def jump_term_reduction_gap(a, dm):
    """Gap ``[log(1+d) - d/(1+d)] - [log(1+ad) - ad/(1+ad)]`` for ``a in [0,1]``.

    Nonnegative because the per-jump term is monotone in the scaled jump
    size on ``d > -1``.  Accepts scalars or arrays.
    """
    a_arr = np.asarray(a, dtype=float)
    d_arr = np.asarray(dm, dtype=float)
    if np.any(a_arr < 0.0) or np.any(a_arr > 1.0):
        raise ValueError("control values must lie in [0, 1]")
    if np.any(d_arr <= -1.0):
        raise ValueError("jump sizes must exceed -1")
    full = np.log1p(d_arr) - d_arr / (1.0 + d_arr)
    ad = a_arr * d_arr
    scaled = np.log1p(ad) - ad / (1.0 + ad)
    out = full - scaled
    if np.ndim(a) == 0 and np.ndim(dm) == 0:
        return float(out)
    return out
