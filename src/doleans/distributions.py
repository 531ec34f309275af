"""Closed-form scalar laws driving the example jump processes.

Every law is packaged as an :class:`InverseCdfDistribution` whose density,
CDF and inverse CDF are exact elementary expressions, so inverse-transform
sampling is a pure function of the driving uniform and needs no
root-finding.  All callables accept a float or a NumPy array.

Quadrature calls ``density``, ``log_density`` and ``cdf`` on one float per
node, so :func:`_branchwise` gives float input (``np.float64`` included) a
scalar route: the branch masks are tested on the float itself and only the
matching branch formula runs, on that float.  Branch formulas use NumPy
ufuncs for every operation except ``+ - * /``: a ufunc runs the same inner
loop on a float as on an array, and the four IEEE operations round alike
on both, so the two routes agree bit for bit.  The ``**`` operator is
never used: on an ``np.float64`` it takes NumPy's scalar power, which is
not always the array ``**`` in the last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "InverseCdfDistribution",
    "make_xi_distribution",
    "make_eta_distribution",
    "make_first_jump_time",
]

Interval = tuple[float, float]

_LOG2 = math.log(2.0)


def _branchwise(x, branches, default=0.0):
    """Evaluate ``(mask_fn, value_fn)`` branches over a scalar or array.

    The branch masks must be disjoint; points no mask selects get
    ``default``.  A float ``x`` (``np.float64`` included) takes the scalar
    route: each mask is tested on ``x`` itself and the first match returns
    ``value_fn(x)``.  This gives the array route's bits because every
    ``value_fn`` applies ufuncs (never ``**``) and ``+ - * /`` only; see
    the module docstring.
    """
    if isinstance(x, float):
        for mask_fn, value_fn in branches:
            if mask_fn(x):
                return float(value_fn(x))
        return float(default)
    arr = np.asarray(x, dtype=float)
    flat = np.atleast_1d(arr)
    out = np.full(flat.shape, default, dtype=float)
    for mask_fn, value_fn in branches:
        m = mask_fn(flat)
        if m.any():
            out[m] = value_fn(flat[m])
    if arr.ndim == 0:
        return float(out[0])
    return out.reshape(arr.shape)


@dataclass(frozen=True)
class InverseCdfDistribution:
    """A scalar law given by closed-form density, CDF and inverse CDF.

    Parameters
    ----------
    name : str
        Identifier used in reports.
    density, log_density : callable
        Probability density and its natural log (``-inf`` off support).
    cdf : callable
        Nondecreasing, 0 at the left end of the support, 1 at the right.
    inverse_cdf : callable
        Maps ``u in (0, 1)`` into the support; where the CDF is flat
        (support gaps) it dispatches past the gap, so
        ``cdf(inverse_cdf(u)) == u`` everywhere.
    support : tuple of (lo, hi)
        Ordered intervals covering the support.  Adjacent intervals may
        share an endpoint; the split marks a non-smooth point of the
        density and is used by quadrature routines.

    Instances are immutable and safe to share across threads.
    """

    name: str
    density: Callable
    log_density: Callable
    cdf: Callable
    inverse_cdf: Callable
    support: tuple[Interval, ...]


# ----------------------------------------------------------------------
# xi: symmetric law on (-1, 1) with mass 1/2 per branch and mean 0.
# ----------------------------------------------------------------------

def _xi_density(x):
    return _branchwise(x, [
        (lambda a: (a > -1.0) & (a <= 0.0),
         lambda a: np.exp(a / (1.0 + a)) / (2.0 * np.square(1.0 + a))),
        (lambda a: (a > 0.0) & (a < 1.0),
         lambda a: np.exp(-a / (1.0 - a)) / (2.0 * np.square(1.0 - a))),
    ])


def _xi_log_density(x):
    return _branchwise(x, [
        (lambda a: (a > -1.0) & (a <= 0.0),
         lambda a: a / (1.0 + a) - _LOG2 - 2.0 * np.log1p(a)),
        (lambda a: (a > 0.0) & (a < 1.0),
         lambda a: -a / (1.0 - a) - _LOG2 - 2.0 * np.log1p(-a)),
    ], default=-math.inf)


def _xi_cdf(x):
    return _branchwise(x, [
        (lambda a: (a > -1.0) & (a <= 0.0),
         lambda a: 0.5 * np.exp(a / (1.0 + a))),
        (lambda a: (a > 0.0) & (a < 1.0),
         lambda a: 1.0 - 0.5 * np.exp(-a / (1.0 - a))),
        (lambda a: a >= 1.0, lambda a: np.ones_like(a)),
    ])


def _xi_inverse_cdf(u):
    arr = np.asarray(u, dtype=float)
    # Each branch formula is finite on all of (0, 1), so np.where is safe;
    # errstate silences the unused branch at the interval endpoints.
    with np.errstate(divide="ignore", invalid="ignore"):
        y = np.log(2.0 * arr)
        z = -np.log(2.0 * (1.0 - arr))
        out = np.where(arr <= 0.5, y / (1.0 - y), z / (1.0 + z))
    return float(out) if arr.ndim == 0 else out


def make_xi_distribution() -> InverseCdfDistribution:
    """Law of the jump in the single-jump example process.

    The density has two smooth branches glued at 0,

        f(x) = e^{x/(1+x)} / (2 (1+x)^2)   on (-1, 0],
        f(x) = e^{-x/(1-x)} / (2 (1-x)^2)  on [0, 1),

    each carrying mass 1/2, with mean 0.  The CDF is
    ``F(x) = e^{x/(1+x)} / 2`` on the left branch and
    ``1 - e^{-x/(1-x)} / 2`` on the right, inverted analytically.
    """
    return InverseCdfDistribution(
        name="xi",
        density=_xi_density,
        log_density=_xi_log_density,
        cdf=_xi_cdf,
        inverse_cdf=_xi_inverse_cdf,
        support=((-1.0, 0.0), (0.0, 1.0)),
    )


# ----------------------------------------------------------------------
# eta: mass 7/8 on [-1/2, 0], mass 1/8 on [1, inf) with a cubic tail.
# ----------------------------------------------------------------------

def _eta_density(x):
    return _branchwise(x, [
        (lambda a: (a >= -0.5) & (a <= 0.0), lambda a: 1.0 - 3.0 * a),
        (lambda a: a >= 1.0, lambda a: 0.25 / np.power(a, 3.0)),
    ])


def _eta_log_density(x):
    return _branchwise(x, [
        (lambda a: (a >= -0.5) & (a <= 0.0), lambda a: np.log(1.0 - 3.0 * a)),
        (lambda a: a >= 1.0, lambda a: math.log(0.25) - 3.0 * np.log(a)),
    ], default=-math.inf)


def _eta_cdf(x):
    return _branchwise(x, [
        (lambda a: (a >= -0.5) & (a <= 0.0),
         lambda a: (-1.5 * a * a + a) + 0.875),
        (lambda a: (a > 0.0) & (a < 1.0),
         lambda a: np.full_like(a, 0.875)),
        (lambda a: a >= 1.0, lambda a: 1.0 - 0.125 / (a * a)),
    ])


def _eta_inverse_cdf(u):
    arr = np.asarray(u, dtype=float)
    # The CDF is flat at 7/8 across the support gap (0, 1); dispatch on the
    # cumulative mass so u >= 7/8 lands on the tail branch starting at 1.
    first = (1.0 - np.sqrt(1.0 + 6.0 * (0.875 - arr))) / 3.0
    second = 1.0 / np.sqrt(8.0 * (1.0 - arr))
    out = np.where(arr < 0.875, first, second)
    return float(out) if arr.ndim == 0 else out


def make_eta_distribution() -> InverseCdfDistribution:
    """Heavy-tailed zero-mean law with an infinite second moment.

    Density ``1 - 3x`` on [-1/2, 0] (mass 7/8) and ``1/(4 x^3)`` on
    [1, inf) (mass 1/8).  The truncated second moment over [1, R] equals
    ``(ln R)/4``, so the variance diverges logarithmically while the mean
    is exactly 0.
    """
    return InverseCdfDistribution(
        name="eta",
        density=_eta_density,
        log_density=_eta_log_density,
        cdf=_eta_cdf,
        inverse_cdf=_eta_inverse_cdf,
        support=((-0.5, 0.0), (1.0, math.inf)),
    )


# ----------------------------------------------------------------------
# First jump time of a unit-rate Poisson process.
# ----------------------------------------------------------------------

def _exp_density(x):
    return _branchwise(x, [(lambda a: a >= 0.0, lambda a: np.exp(-a))])


def _exp_log_density(x):
    return _branchwise(x, [(lambda a: a >= 0.0, lambda a: -a)],
                       default=-math.inf)


def _exp_cdf(x):
    return _branchwise(x, [(lambda a: a >= 0.0, lambda a: -np.expm1(-a))])


def _exp_inverse_cdf(u):
    arr = np.asarray(u, dtype=float)
    out = -np.log1p(-arr)
    return float(out) if arr.ndim == 0 else out


def make_first_jump_time() -> InverseCdfDistribution:
    """Unit-rate exponential law of the first jump of a standard Poisson process."""
    return InverseCdfDistribution(
        name="first_jump_time",
        density=_exp_density,
        log_density=_exp_log_density,
        cdf=_exp_cdf,
        inverse_cdf=_exp_inverse_cdf,
        support=((0.0, math.inf),),
    )
