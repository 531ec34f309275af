"""The one source of ``exp``, ``expm1``, ``log1p`` and ``log``: NumPy's ufuncs.

Batch kernels call ``np.exp``, ``np.expm1``, ``np.log1p`` and ``np.log`` on
whole columns; the scalar functionals call the helpers below, which call
the same ufunc on a Python float.  A ufunc runs the same inner loop on a
float as on an array (the float is a one-element array, the loop's tail),
and every element of that loop is computed on its own, so a float gets the
bits its value gets at any place in any array.  A batch row therefore
equals the scalar functional bit for bit by construction.  The bits are
those of the loop NumPy dispatches to on the running CPU (its SIMD
target): they may differ from Python's ``math`` (the C library) and from
one dispatch target to another in the last place, never between the two
routes of one process.  :mod:`doleans.distributions` rests on the same
fact for its branch formulas.

The helpers keep ``math``'s semantics: each returns a Python ``float``;
``exp`` and ``expm1`` raise ``OverflowError`` for a finite argument above
:data:`EXP_MAX` (``inf``, ``-inf`` and ``nan`` give what ``math`` gives);
``log1p(x <= -1)`` and ``log(x <= 0)`` raise ``ValueError``; none emits a
``RuntimeWarning``.  Callers rely on the raises (``exp_or_inf``, the
quadrature's overflow rule, the log-scale thresholds).
"""

from __future__ import annotations

import numpy as np

__all__ = ["EXP_MAX", "exp", "expm1", "log1p", "log"]

#: Largest float whose ``exp`` (and ``expm1``) is finite: ``math.exp``
#: raises above it, and the ufuncs overflow above it on every target.
EXP_MAX = 709.782712893384

_INF = float("inf")
_exp, _expm1, _log1p, _log = np.exp, np.expm1, np.log1p, np.log


def exp(x: float) -> float:
    """``np.exp(x)`` as a float; ``OverflowError`` for finite ``x > EXP_MAX``."""
    if x > EXP_MAX and x != _INF:
        raise OverflowError("math range error")
    return float(_exp(x))


def expm1(x: float) -> float:
    """``np.expm1(x)`` as a float; ``OverflowError`` for finite ``x > EXP_MAX``."""
    if x > EXP_MAX and x != _INF:
        raise OverflowError("math range error")
    return float(_expm1(x))


def log1p(x: float) -> float:
    """``np.log1p(x)`` as a float; ``ValueError`` for ``x <= -1``."""
    if x <= -1.0:
        raise ValueError("math domain error")
    return float(_log1p(x))


def log(x: float) -> float:
    """``np.log(x)`` as a float; ``ValueError`` for ``x <= 0``."""
    if x <= 0.0:
        raise ValueError("math domain error")
    return float(_log(x))
