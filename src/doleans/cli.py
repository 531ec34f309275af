"""Command-line front end.

Subcommands:

* ``sample``       -- draw paths from an example model, emit JSON/CSV
* ``exponential``  -- stochastic exponential at the horizon per path
* ``condition``    -- evaluate one integrability condition, emit a report
* ``reproduce``    -- run the full experiment suite for one counterexample;
                      exit 0 iff every row holds.  The verdict rows walk
                      :data:`CLAIMS`, the paper's expected verdicts and
                      bounds; the martingale rows estimate E[E_T(M)] = 1
                      with ``estimate_batch`` over ``stoch_exponential_batch``
                      and check the closed-form oracles defined here
* ``lemmas``       -- grid + random property suites for the two scalar
                      inequalities; exit 0 iff no violation beyond -1e-12

Every command is deterministic given ``--seed``, an integer in
``[0, 2^64)``: repeated invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import operator
import sys
from pathlib import Path

import numpy as np

from .girsanov import lemma2_lhs, lemma3_gap
from .mc import (
    ConditionReport,
    SeedSpec,
    estimate_batch,
    evaluate_condition,
    quadrature_expectation,
)
from .paths import (
    EXAMPLE_MODELS,
    PredictableControl,
    check_seed,
    control_indicator_after,
    path_to_json,
    stream_generator,
)
from .stochexp import (
    CONDITION_KINDS,
    ConditionSpec,
    log_stoch_exponential,
    stoch_exponential,
    stoch_exponential_batch,
)

_KIND_FLAGS = {k.replace("_", "-"): k for k in CONDITION_KINDS}


def parse_control(text: str) -> PredictableControl:
    """Control grammar: a constant (``0.5``) or ``indicator:<t0>``."""
    if text.startswith("indicator:"):
        return control_indicator_after(float(text.split(":", 1)[1]))
    return PredictableControl.constant(float(text))


def _path_count(minimum: int):
    """A ``--n`` parser: an integer of at least ``minimum``, else a usage error."""

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if n < minimum:
            raise argparse.ArgumentTypeError(
                f"path count must be at least {minimum}, got {n}")
        return n

    return parse


def _emit(payload, rows, args: argparse.Namespace) -> None:
    """Write strict JSON (payload) or CSV (rows) to --out or stdout; a
    non-finite JSON number is a ``ValueError`` and writes nothing."""
    if args.fmt == "json":
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for row in rows:
            writer.writerow(row)
        text = buf.getvalue()
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_sample(args: argparse.Namespace) -> int:
    model = EXAMPLE_MODELS[args.model]()
    docs = []
    rows = [("index", "horizon", "t1", "dm1", "t2", "dm2", "drift_kind")]
    for i in range(args.n):
        path = model.sampler(args.seed, i)
        doc = path_to_json(path)
        docs.append(doc)
        jumps = list(path.jumps) + [("", "")] * (2 - len(path.jumps))
        rows.append((i, path.horizon, jumps[0][0], jumps[0][1],
                     jumps[1][0], jumps[1][1], doc["drift_kind"]))
    _emit(docs, rows, args)
    return 0


def _cmd_exponential(args: argparse.Namespace) -> int:
    model = EXAMPLE_MODELS[args.model]()
    docs = []
    rows = [("index", "horizon", "log_value", "value")]
    for i in range(args.n):
        path = model.sampler(args.seed, i)
        lv = log_stoch_exponential(path, path.horizon)
        v = stoch_exponential(path, path.horizon)
        docs.append({"index": i, "horizon": path.horizon,
                     "log_value": lv, "value": v})
        rows.append((i, path.horizon, lv, v))
    _emit(docs, rows, args)
    return 0


def _condition_spec(parser: argparse.ArgumentParser,
                    args: argparse.Namespace) -> ConditionSpec:
    """The ``condition`` flags as a spec; a bad combination is a usage error."""
    control = None
    if args.a is not None:
        try:
            control = parse_control(args.a)
        except ValueError as exc:
            parser.error(f"bad control spec {args.a!r}: {exc}")
    try:
        return ConditionSpec(_KIND_FLAGS[args.kind], control)
    except ValueError as exc:
        parser.error(str(exc))


def _cmd_condition(args: argparse.Namespace) -> int:
    model = EXAMPLE_MODELS[args.model]()
    report = evaluate_condition(
        model,
        args.spec,
        SeedSpec(args.seed, 16),
        args.n,
        levels=args.levels,
    )
    rows = [("level", "value")] + report.csv_rows()
    _emit(report.to_json(), rows, args)
    return 0


# ----------------------------------------------------------------------
# reproduce: the paper's claims and their closed-form oracles
# ----------------------------------------------------------------------

def example1_exponential(x: float) -> float:
    """E_T(M) of example1 as a function of its one jump ``x``: the drift
    cancels, leaving ``1 + x`` (also the eta factor of example3's E_T(M))."""
    return 1.0 + x


def example2_exponential(t: float) -> float:
    """E_tau(M) of example2 as a function of the jump time ``tau = t``;
    0 where it underflows."""
    if t > 650.0:
        return 0.0
    e = 1.0 - math.exp(t) + math.log1p(math.exp(t))
    return math.exp(e) if e > -745.0 else 0.0


def example2_bound(a: float) -> float:
    """The paper's bound on example2 ``theorem1`` at the constant control
    ``a``: ``exp(a + 2 delta + 2(-ln delta - 1))``, ``delta = a / (2(1 + a))``."""
    delta = a / (2.0 * (1.0 + a))
    return math.exp(a + 2.0 * delta + 2.0 * (-math.log(delta) - 1.0))


def example3_eta_factor(x: float) -> float:
    """The eta factor of example3 ``theorem1(indicator:1.0)``: the jump
    ``x`` at time 1 sees control 0."""
    return (1.0 + x) * math.exp(-x / (1.0 + x))


def example3_tau_factor(y: float) -> float:
    """The waiting-time factor of example3 ``theorem1(indicator:1.0)`` at
    ``y = tau_hat - 1``, under control 1; 0 where it underflows."""
    if y > 650.0:
        return 0.0
    delta = math.exp(y)
    e = 1.0 - delta + 2.0 * math.log1p(delta) - delta / (1.0 + delta)
    return math.exp(e) if e > -745.0 else 0.0


def _theorem1(a: float) -> ConditionSpec:
    return ConditionSpec("theorem1", PredictableControl.constant(a))


_CONTROL_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)

#: ``which -> (model name, ((spec, expected verdict, bound or None), ...))``.
#: Jacod's condition fails on examples 1 and 2 while ``theorem1`` holds
#: under its bound; on example3 every constant control diverges and only
#: the predictable ``1{s > 1}`` is finite.
CLAIMS = {
    1: ("example1", (
        (ConditionSpec("jacod"), "diverging", None),
        (_theorem1(1.0), "finite", 2.5),
    )),
    2: ("example2", (
        (ConditionSpec("jacod"), "diverging", None),
        *((_theorem1(a), "finite", example2_bound(a))
          for a in (0.25, 0.5, 0.75, 1.0)),
    )),
    3: ("example3", (
        *((_theorem1(a), "diverging", None) for a in _CONTROL_GRID),
        (ConditionSpec("theorem1", control_indicator_after(1.0)), "finite", None),
    )),
}


def _row(check: str, expected: str, observed: str, ok: bool, **extra) -> dict:
    row = {"check": check, "expected": expected, "observed": observed, "ok": ok}
    row.update(extra)
    return row


def _condition_row(model, spec, expected: str,
                   bound: float | None) -> tuple[dict, ConditionReport]:
    report = evaluate_condition(model, spec)
    row = _row(
        f"{model.name} {spec.label()}",
        expected,
        report.verdict,
        report.verdict == expected,
        quadrature=report.quadrature,
        slope=None if report.divergence is None else report.divergence.slope,
    )
    if bound is not None:
        row["ok"] = (row["ok"] and report.quadrature is not None
                     and report.quadrature <= bound)
        row["bound"] = bound
    return row, report


def _martingale_row(model, integrand, n: int, seeds) -> dict:
    """E[E_T(M)] = 1 by batched Monte Carlo and by quadrature of ``integrand``
    against the model's one driver."""
    est = estimate_batch(model, stoch_exponential_batch, n, seeds)
    quad_mean = quadrature_expectation(model.drivers[0].dist, integrand)
    ok = abs(est.mean - 1.0) <= 3.0 * est.se and abs(quad_mean - 1.0) <= 1e-8
    return _row(
        f"{model.name} martingale property E[E_T(M)] = 1",
        "1 within 3 SE (MC) and 1e-8 (quadrature)",
        f"mc={est.mean!r} se={est.se!r} quad={quad_mean!r}",
        ok,
    )


def _example3_rows(model, value: float | None) -> list[dict]:
    """The indicator value factorizes over the drivers, and E[E_T(M)] = 1
    by quadrature (the eta factor has infinite variance, so a Monte Carlo
    standard error is not meaningful here)."""
    eta_d, exp_d = model.drivers
    product = (quadrature_expectation(eta_d.dist, example3_eta_factor)
               * quadrature_expectation(exp_d.dist, example3_tau_factor))
    m_eta = quadrature_expectation(eta_d.dist, example1_exponential)
    m_exp = quadrature_expectation(exp_d.dist, example2_exponential)
    return [
        _row(
            "example3 finite value factorizes over independent drivers",
            "product of single-driver factors within rel 1e-8",
            f"value={value!r} product={product!r}",
            value is not None and abs(value - product) <= 1e-8 * abs(product),
        ),
        _row(
            "example3 martingale property E[E_T(M)] = 1",
            "1 within 1e-8 (quadrature, factorized)",
            f"quad={(m_eta * m_exp)!r}",
            abs(m_eta * m_exp - 1.0) <= 1e-8,
        ),
    ]


def run_reproduction(which: int, seed: int, n: int) -> dict:
    """Experiment suite for one counterexample; returns the report document.

    ``n`` is the Monte Carlo path count of the martingale rows, an integer
    of at least 2; a non-integer ``which`` or ``n`` raises ``TypeError`` and
    an out-of-range one ``ValueError``, before any quadrature.  The document
    holds ``which`` and ``seed`` as Python ints.
    """
    which = operator.index(which)
    if which not in CLAIMS:
        raise ValueError("which must be 1, 2 or 3")
    n = operator.index(n)
    if n < 2:
        raise ValueError(f"n must be at least 2 Monte Carlo paths, got {n}")
    seeds = SeedSpec(seed, 16)
    name, claims = CLAIMS[which]
    model = EXAMPLE_MODELS[name]()
    rows: list[dict] = []
    families: dict[str, dict] = {}
    reports = []
    for spec, expected, bound in claims:
        row, report = _condition_row(model, spec, expected, bound)
        rows.append(row)
        reports.append(report)
        if expected == "diverging" and report.divergence is not None:
            family = (spec.kind if spec.control is None
                      else f"{spec.kind} a={spec.control.label()}")
            families[family] = report.divergence.to_json()

    if which == 1:
        jac = reports[0]
        red = evaluate_condition(model, _theorem1(0.0))
        same = (jac.verdict == red.verdict
                and jac.divergence.values == red.divergence.values)
        rows.append(_row(
            "example1 theorem1(a=0) reduces to jacod",
            "identical values",
            "identical" if same else "different",
            same,
        ))
        rows.append(_martingale_row(model, example1_exponential, n, seeds))
    elif which == 2:
        rows.append(_martingale_row(model, example2_exponential, n, seeds))
    else:
        rows.extend(_example3_rows(model, reports[-1].quadrature))

    return {
        "which": which,
        "seed": seeds.seed,
        "n": n,
        "rows": rows,
        "families": families,
        "ok": all(r["ok"] for r in rows),
    }


def _cmd_reproduce(args: argparse.Namespace) -> int:
    doc = run_reproduction(args.which, args.seed, args.n)
    out = args.out or f"reproduce{args.which}.json"
    Path(out).write_text(json.dumps(doc, indent=2, allow_nan=False) + "\n")

    csv_path = Path(out).with_suffix(".csv")
    with csv_path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("check", "level", "value"))
        for name, family in doc["families"].items():
            for level, value in zip(family["levels"], family["values"]):
                writer.writerow((name, repr(level), repr(value)))

    for row in doc["rows"]:
        status = "ok " if row["ok"] else "FAIL"
        print(f"[{status}] {row['check']}: expected {row['expected']}, "
              f"observed {row['observed']}")
    print(f"report: {out}  families: {csv_path}")
    if not doc["ok"]:
        bad = [r["check"] for r in doc["rows"] if not r["ok"]]
        print(f"MISMATCH in: {', '.join(bad)}", file=sys.stderr)
        return 1
    return 0


# ----------------------------------------------------------------------
# lemmas
# ----------------------------------------------------------------------

#: lemma2 grid points per axis, draws per random suite, violation threshold
_LEMMA_GRID = 1000
_LEMMA_DRAWS = 100_000
_LEMMA_TOL = -1e-12


def run_lemma_suites(
    lemma2=lemma2_lhs,
    lemma3=lemma3_gap,
    seed: int = 0,
) -> list[tuple[str, tuple[float, float], float]]:
    """Grid plus random property suites; returns violations below -1e-12.

    The random suites draw from stream 0 of ``seed`` (Philox key ``seed``
    at counter 0).

    Injectable ``lemma2``/``lemma3`` callables let the suites themselves be
    exercised against deliberately broken variants.
    """
    rng = stream_generator(seed, 0)
    n = _LEMMA_DRAWS
    # (name, lemma, draw): each draw runs in turn, so the random suites
    # take their uniforms from the stream in table order
    suites = (
        ("lemma2-grid", lemma2,
         lambda: (np.linspace(0.0, 1.0, _LEMMA_GRID)[:, None],
                  np.linspace(1e-6, 1.0 - 1e-6, _LEMMA_GRID)[None, :])),
        ("lemma2-random", lemma2,
         lambda: (rng.random(n), rng.uniform(1e-12, 1.0 - 1e-12, n))),
        # jump sizes log-uniform over (-1 + 1e-9, 1e6) via 1 + dm
        ("lemma3-random", lemma3,
         lambda: (rng.random(n),
                  np.exp(rng.uniform(math.log(1e-9), math.log(1e6 + 1.0), n)) - 1.0)),
    )
    violations = []
    for name, lemma, draw in suites:
        x, y = draw()
        vals = lemma(x, y)
        if not vals.min() >= _LEMMA_TOL:  # nan included
            k = np.unravel_index(int(vals.argmin()), vals.shape)
            point = tuple(float(np.broadcast_to(v, vals.shape)[k]) for v in (x, y))
            violations.append((name, point, float(vals.min())))
    return violations


def _cmd_lemmas(args: argparse.Namespace) -> int:
    violations = run_lemma_suites(seed=args.seed)
    if not violations:
        print("[ok ] lemma2 grid+random suites: no violation beyond -1e-12")
        print("[ok ] lemma3 random suite: no violation beyond -1e-12")
        return 0
    for name, point, value in violations:
        print(f"[FAIL] {name} at {point}: {value!r}", file=sys.stderr)
    return 1


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doleans",
        description="Stochastic exponentials of jump martingales and "
        "integrability-condition experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, model=True):
        if model:
            p.add_argument("--model", required=True, choices=sorted(EXAMPLE_MODELS))
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)
        p.add_argument("--format", dest="fmt", choices=("json", "csv"),
                       default="json")

    p = sub.add_parser("sample", help="sample paths from a model")
    add_common(p)
    p.add_argument("--n", type=_path_count(0), default=10)

    p = sub.add_parser("exponential", help="stochastic exponential per path")
    add_common(p)
    p.add_argument("--n", type=_path_count(0), default=10)

    p = sub.add_parser("condition", help="evaluate one integrability condition")
    add_common(p)
    p.add_argument("--kind", required=True, choices=sorted(_KIND_FLAGS))
    p.add_argument("--a", default=None,
                   help="control process: a constant in [0,1] or indicator:<t0>")
    p.add_argument("--n", type=int, default=0,
                   help="Monte Carlo cross-check sample count (0 = none)")
    p.add_argument("--levels", type=float, nargs="+", default=None)

    p = sub.add_parser("reproduce", help="run one counterexample suite")
    p.add_argument("--which", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=_path_count(2), default=200_000,
                   help="Monte Carlo sample count, at least 2 (default 200000)")
    p.add_argument("--out", default=None)

    p = sub.add_parser("lemmas", help="scalar inequality property suites")
    p.add_argument("--seed", type=int, default=0)
    return parser


_HANDLERS = {
    "sample": _cmd_sample,
    "exponential": _cmd_exponential,
    "condition": _cmd_condition,
    "reproduce": _cmd_reproduce,
    "lemmas": _cmd_lemmas,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "condition":
        args.spec = _condition_spec(parser, args)
    try:
        check_seed(args.seed)
        return _HANDLERS[args.command](args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
