"""Regenerate the computed entries of ``perfbench/references.json``.

Run from the repository root::

    python3 perfbench/make_references.py

It rewrites two entries and keeps every other entry of the file:

* ``example3_indicator_factors``: the two single-driver factors of the
  finite example3 ``theorem1(a=indicator:1.0)`` expectation, integrated
  with mpmath at 40 digits.  This is independent of the program's scipy
  quadrature.
* ``reproduce_digests``: sha256 of the three ``reproduce`` documents for
  every reproduce seed the benchmark can draw, serialized as the CLI writes
  them.  The benchmark compares against these to report ``outputs_changed``
  (information only; the table describes the commit that generated it).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import mpmath  # noqa: E402

from workloads import REPRODUCE_SEEDS, reproduce_digest  # noqa: E402
from doleans import cli  # noqa: E402


def example3_indicator_factors() -> dict:
    """Factors of E exp(theorem1 functional) for example3 with a = 1{s > 1}.

    The eta jump at time 1 sees a = 0 and contributes
    ``(1 + x) exp(-x / (1 + x))``; the exponential jump e^y at 1 + y sees
    a = 1 and, with the drift 1 - e^y, contributes
    ``exp(1 - e^y + 2 log(1 + e^y) - e^y / (1 + e^y))``.
    """
    mpmath.mp.dps = 40

    def eta(x):
        return (1 + x) * mpmath.exp(-x / (1 + x))

    factor_eta = (mpmath.quad(lambda x: eta(x) * (1 - 3 * x), [-0.5, 0])
                  + mpmath.quad(lambda x: eta(x) / (4 * x ** 3), [1, mpmath.inf]))

    def tau(y):
        e = mpmath.exp(y)
        return mpmath.exp(1 - e + 2 * mpmath.log1p(e) - e / (1 + e) - y)

    # beyond y = 40 the integrand is below exp(-e^40): nothing at 40 digits
    factor_tau = mpmath.quad(tau, [0, 1, 10, 40])
    return {"eta": float(factor_eta), "tau1_hat": float(factor_tau),
            "product": float(factor_eta * factor_tau)}


def main() -> int:
    path = HERE / "references.json"
    refs = json.loads(path.read_text())
    refs["example3_indicator_factors"] = example3_indicator_factors()
    refs["reproduce_digests"] = {
        str(seed): [reproduce_digest(cli.run_reproduction(which, seed, 200_000))
                    for which in (1, 2, 3)]
        for seed in REPRODUCE_SEEDS
    }
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
