"""Pathwise measure-change algebra for the control-extended condition.

Splitting ``M = int a dM + int (1-a) dM`` and changing measure with the
density ``E_T(int a dM)`` turns ``N = int (1-a) dM`` into the corrected
local martingale

    N~_t = N_t - int_0^t a(1-a)/(1 + a dM) d[M]_s,

whose jumps are ``dN~ = (1-a) dM / (1 + a dM) > -1``.  The paths here are
purely discontinuous with finite activity, so ``<M^c> = 0`` and the
correction integral is the jump sum ``sum a(1-a)(dM)^2/(1+a dM)``; the
whole decomposition is exact pathwise algebra and the product identity

    E_T(int a dM) * E~_T(N~) = E_T(M)

holds realization by realization.  :func:`decompose` assembles the three
log values from shared floating-point terms so the drift contributions
cancel exactly; only the per-jump logarithms contribute rounding, keeping
the identity gap below ~1e-12 even for jump sizes near e^700.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .paths import JumpPath, PredictableControl
from .transcendental import expm1, log1p

__all__ = [
    "MeasureChangeDecomposition",
    "decompose",
    "transformed_jacod_integrand",
    "lemma2_lhs",
    "lemma3_gap",
]


@dataclass(frozen=True)
class MeasureChangeDecomposition:
    """Log-space factors of the product identity for one path and control.

    ``identity_log_gap`` is ``log(density) + log(transformed) - log(E_T(M))``
    computed with exact cancellation of shared terms; it is the rounding
    defect of the identity, zero in exact arithmetic.
    """

    transformed_jumps: tuple[tuple[float, float], ...]
    log_density_factor: float
    log_transformed_exponential: float
    identity_log_gap: float

    def identity_relative_error(self) -> float:
        """Signed relative defect of ``density * transformed == E_T(M)``."""
        return expm1(self.identity_log_gap)


def decompose(path: JumpPath, a: PredictableControl) -> MeasureChangeDecomposition:
    """Split ``E_T(M)`` into the density factor ``E_T(int a dM)`` and the
    transformed exponential of the corrected process, at the path horizon.
    """
    T = path.horizon
    dens: list[float] = []
    trans: list[float] = []
    ref: list[float] = []

    for lo, hi, v in a.segments_until(T):
        dd = path.drift(hi) - path.drift(lo)
        if dd != 0.0:
            c = v * dd
            dens.append(c)
            # (1-a)-integral written as dd - c so the three lists cancel exactly
            trans.extend((dd, -c))
            ref.append(dd)

    transformed_jumps = []
    for ti, dm in path.jumps:
        av = a.value_at(ti)
        dn = (1.0 - av) * dm / (1.0 + av * dm)
        transformed_jumps.append((ti, dn))
        dens.append(log1p(av * dm))
        trans.append(log1p(dn))
        ref.append(log1p(dm))

    gap = math.fsum(dens + trans + [-x for x in ref])
    return MeasureChangeDecomposition(
        transformed_jumps=tuple(transformed_jumps),
        log_density_factor=math.fsum(dens),
        log_transformed_exponential=math.fsum(trans),
        identity_log_gap=gap,
    )


def transformed_jacod_integrand(
    path: JumpPath, a: PredictableControl, t: float
) -> float:
    """Log of the jump-condition functional of the corrected process,
    expressed in terms of the original path:

    ``sum (log(1+dM) - log(1+a dM) - (1-a) dM/(1+dM))``.

    With ``a == 0`` this reduces bit for bit to the plain jump functional,
    which dominates it jump by jump for every control.
    """
    path._check_time(t)
    s = 0.0
    for ti, dm in path.jumps:
        if ti > t:
            break
        av = a.value_at(ti)
        s += (log1p(dm) - log1p(av * dm)) - (1.0 - av) * (
            dm / (1.0 + dm)
        )
    return s


def lemma2_lhs(x, eps):
    """Quadratic-with-boost expression ``(1-eps^2) x^2 - 2x + 1 + 2 eps 1{1-x<eps}``.

    Nonnegative for ``x in [0, 1]`` and ``eps in (0, 1)``: the bare
    quadratic dips to ``-eps^2`` only past its smaller root
    ``1/(1+eps)``, where the indicator contributes ``2 eps``.
    Accepts scalars or arrays.
    """
    x_arr = np.asarray(x, dtype=float)
    e_arr = np.asarray(eps, dtype=float)
    # written as "not all inside" so that nan is rejected too
    if not np.all((x_arr >= 0.0) & (x_arr <= 1.0)):
        raise ValueError("x must lie in [0, 1]")
    if not np.all((e_arr > 0.0) & (e_arr < 1.0)):
        raise ValueError("eps must lie strictly in (0, 1)")
    quadratic = (1.0 - e_arr * e_arr) * x_arr * x_arr - 2.0 * x_arr + 1.0
    boost = 2.0 * e_arr * (1.0 - x_arr < e_arr)
    out = quadratic + boost
    if np.ndim(x) == 0 and np.ndim(eps) == 0:
        return float(out)
    return out


def lemma3_gap(a, dm):
    """Slack in ``dM/(1+dM) <= log(1+a dM) + (1-a) dM/(1+dM)``,
    i.e. ``log(1+a dM) - a dM/(1+dM)``.

    Nonnegative for ``a in [0, 1]`` and ``dM > -1`` (allowing ~1e-12 of
    rounding); identically zero at ``a == 0``.  Accepts scalars or arrays.
    """
    a_arr = np.asarray(a, dtype=float)
    d_arr = np.asarray(dm, dtype=float)
    if not np.all((a_arr >= 0.0) & (a_arr <= 1.0)):
        raise ValueError("a must lie in [0, 1]")
    if not np.all(d_arr > -1.0):
        raise ValueError("dm must exceed -1")
    out = np.log1p(a_arr * d_arr) - a_arr * (d_arr / (1.0 + d_arr))
    if np.ndim(a) == 0 and np.ndim(dm) == 0:
        return float(out)
    return out
