"""Which loops NumPy runs its transcendental ufuncs on, as a fingerprint.

NumPy dispatches ``np.exp``, ``np.expm1``, ``np.log1p``, ``np.log`` and
``np.power`` to SIMD loops picked for the running CPU (its dispatch
target), and the loops of two targets may round differently in the last
place.  Every value ``doleans`` computes takes its transcendentals from
those ufuncs, so pinned output bytes hold on one dispatch target, and the
pinned tables are keyed by :func:`fingerprint`: the sha256 of the five
ufuncs over a fixed probe vector.  ``TARGETS`` names the target each known
fingerprint was recorded on.

``NPY_DISABLE_CPU_FEATURES`` makes NumPy skip the targets it names in the
one process it is set for; :func:`disable_settings` lists the settings
that reach every target this CPU supports.
"""

import hashlib

import numpy as np
import pytest

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # NumPy < 2
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

#: The fingerprint of x86-64 CPUs with AVX-512 (NumPy target ``X86_V4``
#: for all five ufuncs) and of those without it (``X86_V3`` for ``exp``
#: and ``log``, the ``X86_V2`` baseline for the rest, or the baseline for
#: all five: the two give the same bits).
AVX512 = "1ebada564cb0f22782a8467efb888b945c86acdf63ad8fbe670195b7401f39b3"
NO_AVX512 = "b26e1a26f0ef80f2da838f526d21102eca8ef88d9384de9c1f49c96547d5f001"

TARGETS = {
    AVX512: "X86_V4 (AVX-512)",
    NO_AVX512: "X86_V3 or X86_V2 (no AVX-512)",
}


def _probe() -> np.ndarray:
    """Fixed arguments over the scales the program's values span."""
    return np.concatenate((np.linspace(-745.0, 709.0, 4001),
                           np.linspace(-1.0, 4.0, 4001)[1:],
                           np.geomspace(1e-300, 1e300, 4001)))


def fingerprint() -> str:
    """sha256 of ``np.exp``, ``np.expm1``, ``np.log1p``, ``np.log`` and
    ``np.power`` (cube and inverse square root) over the probe vector."""
    x = _probe()
    positive = x[x > 0.0]
    digest = hashlib.sha256()
    with np.errstate(all="ignore"):
        for out in (np.exp(x), np.expm1(x), np.log1p(x[x > -1.0]), np.log(positive),
                    np.power(positive, 3.0), np.power(positive, -0.5)):
            digest.update(out.tobytes())
    return digest.hexdigest()


def pinned(base: dict, by_target: dict) -> dict:
    """``base`` with the entries ``by_target`` holds for the running
    dispatch target; a target with no entry fails the calling test."""
    fp = fingerprint()
    if fp not in by_target:
        pytest.fail(
            f"NumPy's transcendental ufuncs run on a dispatch target with "
            f"fingerprint {fp}, which has no pinned bytes (known: "
            + ", ".join(f"{k[:12]}… = {v}" for k, v in TARGETS.items())
            + "). Capture this target's bytes, audit them against a known "
            "target leaf by leaf, and add its entries.", pytrace=False)
    return {**base, **by_target[fp]}


def disable_settings() -> list[str]:
    """``NPY_DISABLE_CPU_FEATURES`` values that disable the dispatch
    targets this CPU supports from the top, one more each time, down to
    NumPy's baseline."""
    # __cpu_dispatch__ lists NumPy's dispatch targets from the lowest up
    supported = [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]
    return [" ".join(reversed(supported[-k:])) for k in range(1, len(supported) + 1)]
