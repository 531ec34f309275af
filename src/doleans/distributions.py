"""Closed-form scalar laws driving the example jump processes.

Every law is packaged as an :class:`InverseCdfDistribution` whose density,
CDF and inverse CDF are exact elementary expressions, so inverse-transform
sampling is a pure function of the driving uniform and needs no
root-finding.  All callables accept a float or a NumPy array.

Each of the twelve callables is one table of ``(mask, formula)`` branches,
built once at import by :func:`_branchwise`; each law names its support
masks once, and the inverse CDFs give the ends ``u == 0`` and ``u == 1``
branches of their own.  A float (``np.float64`` included) takes the scalar
route: the masks are tested on the float itself and only the matching
formula runs, on that float.  Family-time quadrature calls
``log_density`` this way once per node, ``quadrature_expectation`` calls
``density`` so, and the path sampler
(``ProcessModel.sampler``) and the separability probe of the quadrature
engine call ``inverse_cdf`` one uniform at a time.  Arrays run each
formula on the elements its mask selects; the verdict quadrature calls
``log_density`` once per round on every node of the round.  Formulas use NumPy ufuncs for
every operation except ``+ - * /``: a ufunc runs the same inner loop on a
float as on an array, and the four IEEE operations round alike on both, so
the two routes agree bit for bit.  The ``**`` operator is never used: on an
``np.float64`` it takes NumPy's scalar power, which is not always the
array ``**`` in the last bit.
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


def _branchwise(*branches, default=0.0):
    """A function of a float or an array given by ``(mask, formula)`` branches.

    The masks must be disjoint; points no mask selects get ``default``.  A
    float (``np.float64`` included) returns ``float(formula(x))`` of the
    first branch whose mask holds, so a table lists its most often taken
    branch first; an array gets each formula on the elements its mask
    selects.  The table is kept as the function's ``branches`` attribute.
    """
    default = float(default)

    def evaluate(x):
        if isinstance(x, float):
            for mask, formula in branches:
                if mask(x):
                    return float(formula(x))
            return default
        arr = np.asarray(x, dtype=float)
        flat = np.atleast_1d(arr)
        out = np.full(flat.shape, default)
        for mask, formula in branches:
            m = mask(flat)
            if m.any():
                out[m] = formula(flat[m])
        return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)

    evaluate.branches = branches
    return evaluate


@dataclass(frozen=True)
class InverseCdfDistribution:
    """A scalar law given by closed-form density, CDF and inverse CDF.

    Parameters
    ----------
    name : str
        Short label of the law (``xi``, ``eta``, ``first_jump_time``); no
        computation or report reads it.
    density, log_density : callable
        Probability density and its natural log (``-inf`` off support).
    cdf : callable
        Nondecreasing, 0 at the left end of the support, 1 at the right.
    inverse_cdf : callable
        Maps every ``u`` in ``[0, 1]`` into the closed support (``inf`` at
        1 when the support is unbounded) and anything else, ``nan``
        included, to ``nan``, without a warning.  Where the CDF is flat
        (support gaps) it dispatches past the gap, so
        ``cdf(inverse_cdf(u))`` gives back ``u``: exactly at 0 and 1, and
        up to rounding in between.
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


# The inverse CDFs' closed ends, shared by every law.
_at_zero = lambda u: u == 0.0
_at_one = lambda u: u == 1.0

# ----------------------------------------------------------------------
# xi: symmetric law on (-1, 1) with mass 1/2 per branch and mean 0.
# ----------------------------------------------------------------------

_xi_left = lambda a: (a > -1.0) & (a <= 0.0)
_xi_right = lambda a: (a > 0.0) & (a < 1.0)

_xi_density = _branchwise(
    (_xi_left, lambda a: np.exp(a / (1.0 + a)) / (2.0 * np.square(1.0 + a))),
    (_xi_right, lambda a: np.exp(-a / (1.0 - a)) / (2.0 * np.square(1.0 - a))),
)
_xi_log_density = _branchwise(
    (_xi_left, lambda a: a / (1.0 + a) - _LOG2 - 2.0 * np.log1p(a)),
    (_xi_right, lambda a: -a / (1.0 - a) - _LOG2 - 2.0 * np.log1p(-a)),
    default=-math.inf,
)
_xi_cdf = _branchwise(
    (_xi_left, lambda a: 0.5 * np.exp(a / (1.0 + a))),
    (_xi_right, lambda a: 1.0 - 0.5 * np.exp(-a / (1.0 - a))),
    (lambda a: a >= 1.0, lambda a: 1.0),
)
_xi_inverse_cdf = _branchwise(
    (lambda u: (u > 0.0) & (u <= 0.5),
     lambda u: (y := np.log(2.0 * u)) / (1.0 - y)),
    (lambda u: (u > 0.5) & (u < 1.0),
     lambda u: (z := -np.log(2.0 * (1.0 - u))) / (1.0 + z)),
    (_at_zero, lambda u: -1.0),
    (_at_one, lambda u: 1.0),
    default=math.nan,
)


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

_eta_body = lambda a: (a >= -0.5) & (a <= 0.0)
_eta_tail = lambda a: a >= 1.0

_eta_density = _branchwise(
    (_eta_body, lambda a: 1.0 - 3.0 * a),
    (_eta_tail, lambda a: 0.25 / np.power(a, 3.0)),
)
_eta_log_density = _branchwise(
    (_eta_body, lambda a: np.log(1.0 - 3.0 * a)),
    (_eta_tail, lambda a: math.log(0.25) - 3.0 * np.log(a)),
    default=-math.inf,
)
_eta_cdf = _branchwise(
    (_eta_body, lambda a: (-1.5 * a * a + a) + 0.875),
    (lambda a: (a > 0.0) & (a < 1.0), lambda a: 0.875),
    (_eta_tail, lambda a: 1.0 - 0.125 / a / a),
)
# The CDF is flat at 7/8 across the support gap (0, 1); dispatching on the
# cumulative mass sends u >= 7/8 to the tail branch starting at 1.
_eta_inverse_cdf = _branchwise(
    (lambda u: (u > 0.0) & (u < 0.875),
     lambda u: (1.0 - np.sqrt(1.0 + 6.0 * (0.875 - u))) / 3.0),
    (lambda u: (u >= 0.875) & (u < 1.0),
     lambda u: 1.0 / np.sqrt(8.0 * (1.0 - u))),
    (_at_zero, lambda u: -0.5),
    (_at_one, lambda u: math.inf),
    default=math.nan,
)


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

_exp_support = lambda a: a >= 0.0

_exp_density = _branchwise((_exp_support, lambda a: np.exp(-a)))
_exp_log_density = _branchwise((_exp_support, lambda a: -a), default=-math.inf)
_exp_cdf = _branchwise((_exp_support, lambda a: -np.expm1(-a)))
_exp_inverse_cdf = _branchwise(
    (lambda u: (u > 0.0) & (u < 1.0), lambda u: -np.log1p(-u)),
    (_at_zero, lambda u: 0.0),
    (_at_one, lambda u: math.inf),
    default=math.nan,
)


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
