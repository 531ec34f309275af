"""The four benchmark workloads and the checks on their outputs.

A workload is a fixed list of calls into the public API of ``doleans``,
made from the seed.  One round makes every call once, in order, from one
thread: a closed loop with one caller.  Every call returns its output as
exact bytes (floats by ``repr`` or JSON), so two rounds, or a traced and an
untraced round, can be compared bit for bit.

Each call receives ``span``, a context-manager factory ``span(name,
items)``.  Untraced rounds pass one that does nothing; traced rounds pass
the tracer's, so spans cover the calls the benchmark makes into each layer.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

import doleans as d
from doleans import cli

#: Seeds ``reproduce`` draws from; ``references.json`` holds their digests.
REPRODUCE_SEEDS = range(64)
#: Monte Carlo paths per call, as the ``reproduce`` CLI uses by default.
MC_PATHS = 200_000
#: Paths per model and round in ``pathwise``.
PATHS_PER_MODEL = 1000
#: ``sde_residual`` runs on every this-many-th path in ``pathwise``.
SDE_EVERY = 4
#: Seed-drawn theorem1 constants per model in ``verdicts``.
DRAWN_CONSTANTS = 2
PAPER_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)

IDENTITY_TOL = 1e-12
SDE_TOL = 1e-9
FACTOR_TOL = 1e-8
MAX_SE = 4.0


class Tally:
    """Correctness checks attempted and failed by name, and the non-finite
    Monte Carlo values the checked estimates reported."""

    def __init__(self):
        self.attempted = 0
        self.failed: Counter = Counter()
        self.nonfinite = 0

    def __call__(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed[name] += 1


@dataclass(frozen=True)
class Call:
    """One call of a round.

    ``run(span)`` makes the call and returns its output; ``finish(output,
    tally)`` checks the output and returns its exact bytes.  ``items`` is
    the work the call does in the workload's unit.
    """

    name: str
    label: str
    items: int
    run: Callable
    finish: Callable


@dataclass(frozen=True)
class Workload:
    """Calls of one round, the unit of their ``items``, and checks across calls."""

    item: str
    calls: list[Call]
    check_round: Callable[[list, Tally], None] = lambda outputs, tally: None
    summarize: Callable[[list[bytes]], dict] = lambda outputs: {}


def to_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode()


def reproduce_digest(doc: dict) -> str:
    """sha256 of a ``reproduce`` document serialized as the CLI writes it."""
    return hashlib.sha256(reproduce_bytes(doc)).hexdigest()


def reproduce_bytes(doc: dict) -> bytes:
    return (json.dumps(doc, indent=2) + "\n").encode()


def example2_bound(a: float) -> float:
    """The paper's upper bound on the example2 theorem1 value at constant ``a``."""
    delta = a / (2.0 * (1.0 + a))
    return math.exp(a + 2.0 * delta + 2.0 * (-math.log(delta) - 1.0))


def expected_verdict(refs: dict, model: str, spec: d.ConditionSpec) -> str:
    table = refs["expected_verdicts"][model]
    if spec.kind != "theorem1":
        return table[spec.kind]
    control = spec.control
    if control.breaks:
        return table["theorem1 " + control.label()]
    a = control.values[0]
    key = "a=0" if a == 0.0 else "a=1" if a == 1.0 else "0<a<1"
    return table["theorem1 " + key]


def check_report(refs: dict, model: str, spec: d.ConditionSpec,
                 report: d.ConditionReport, tally: Tally) -> None:
    """Checks on one condition report against the benchmark's references."""
    label = f"{model} {spec.label()}"
    expected = expected_verdict(refs, model, spec)
    tally(f"verdict {label}: expected {expected}", report.verdict == expected)
    q = report.quadrature
    if spec.kind == "theorem1" and expected == "finite":
        control = spec.control
        if model == "example2" and not control.breaks:
            tally(f"example2 theorem1 bound {label}",
                  q is not None and q <= example2_bound(control.values[0]))
        if model == "example3" and control.label() == "indicator:1.0":
            ref = refs["example3_indicator_factors"]["product"]
            tally("example3 indicator value equals the product of its factors",
                  q is not None and abs(q - ref) <= FACTOR_TOL * ref)
    if report.condition["n"] >= 2:
        est = report.estimate
        tally(f"estimate present {label}", est is not None)
        if est is not None:
            tally.nonfinite += est.nonfinite
            tally(f"estimate within {MAX_SE:g} SE of quadrature {label}",
                  q is not None and abs(est.mean - q) <= MAX_SE * est.se)


def _draw_unit(rng: np.random.Generator) -> float:
    """A float in (0, 1]."""
    return 1.0 - float(rng.random())


def _draw_eps(rng: np.random.Generator) -> float:
    """A float strictly inside (0, 1), as ``ConditionSpec`` requires."""
    return float(rng.uniform(np.nextafter(0.0, 1.0), 1.0))


def _theorem1(a: float, eps: float | None = None) -> d.ConditionSpec:
    return d.ConditionSpec("theorem1", d.PredictableControl.constant(a), eps)


INDICATOR = d.ConditionSpec("theorem1", d.control_indicator_after(1.0))


# ----------------------------------------------------------------------
# reproduce: the paper's experiment table, as the CLI runs it
# ----------------------------------------------------------------------

def reproduce(seed: int, models: dict, refs: dict) -> Workload:
    rng = np.random.default_rng(seed)
    rseed = int(rng.choice(REPRODUCE_SEEDS))
    rows_ref = refs["reproduce_verdict_rows"]
    product = refs["example3_indicator_factors"]["product"]

    def finish_doc(which: int, doc: dict, tally: Tally) -> bytes:
        for row in doc["rows"]:
            check = row["check"]
            tally(f"reproduce{which}: {check}", row["ok"])
            if "quadrature" not in row:
                continue
            tally(f"reproduce{which} verdict: {check}",
                  rows_ref.get(check) == row["observed"])
            q = row["quadrature"]
            if check.startswith("example2 theorem1(a="):
                a = float(check.split("a=", 1)[1].split(",", 1)[0])
                tally(f"reproduce2 bound: {check}",
                      q is not None and q <= example2_bound(a))
            if check.startswith("example3 theorem1(a=indicator:1.0"):
                tally("reproduce3: example3 indicator value equals the product "
                      "of its factors",
                      q is not None and abs(q - product) <= FACTOR_TOL * product)
        tally(f"reproduce{which}: document ok", doc["ok"])
        return reproduce_bytes(doc)

    def finish_lemmas(violations: list, tally: Tally) -> bytes:
        tally("lemma suites: no violation", not violations)
        return repr(violations).encode()

    calls = [
        Call(f"cli.reproduce{which}", f"reproduce{which}", 1,
             lambda span, w=which: cli.run_reproduction(w, rseed, MC_PATHS),
             lambda doc, tally, w=which: finish_doc(w, doc, tally))
        for which in (1, 2, 3)
    ]
    calls.append(Call("cli.lemmas", "lemmas", 1,
                      lambda span: cli.run_lemma_suites(seed=rseed),
                      finish_lemmas))

    def summarize(outputs: list[bytes]) -> dict:
        digests = [hashlib.sha256(b).hexdigest() for b in outputs[:3]]
        ref = refs["reproduce_digests"].get(str(rseed))
        return {
            "reproduce_seed": rseed,
            "reproduce_sha256": digests,
            "outputs_changed": None if ref is None else digests != ref,
        }

    return Workload("suite", calls, summarize=summarize)


# ----------------------------------------------------------------------
# verdicts: quadrature only (n = 0) over a condition table
# ----------------------------------------------------------------------

def verdicts(seed: int, models: dict, refs: dict) -> Workload:
    rng = np.random.default_rng(seed)
    table: list[tuple[str, d.ConditionSpec]] = []
    for name in models:
        table += [(name, d.ConditionSpec("jacod")), (name, d.ConditionSpec("lemma1"))]
    table += [("example2", d.ConditionSpec("protter_shimbo")),
              ("example2", d.ConditionSpec("lepingle_memin"))]
    for name in models:
        table.append((name, INDICATOR))
        table += [(name, _theorem1(a)) for a in PAPER_GRID]
        table += [(name, _theorem1(_draw_unit(rng), _draw_eps(rng)))
                  for _ in range(DRAWN_CONSTANTS)]

    calls = []
    for name, spec in table:
        model = models[name]
        times = ()
        if spec.kind == "theorem1" and expected_verdict(refs, name, spec) == "finite":
            times = tuple(float(t) for t in rng.uniform(0.0, 4.0, 2))

        def finish(report, tally, name=name, spec=spec):
            check_report(refs, name, spec, report, tally)
            return to_bytes(report.to_json())

        calls.append(Call(
            "mc.evaluate_condition", f"{name} {spec.label()}", 1,
            lambda span, m=model, s=spec, t=times: d.evaluate_condition(m, s, times=t),
            finish,
        ))

    jacod_at = {name: table.index((name, d.ConditionSpec("jacod"))) for name in models}
    zero_at = {name: table.index((name, _theorem1(0.0))) for name in models}

    def check_round(outputs: list, tally: Tally) -> None:
        # theorem1 at a == 0 must reproduce jacod bit for bit
        for name in models:
            j, z = outputs[jacod_at[name]], outputs[zero_at[name]]
            tally(f"{name} theorem1(a=0) equals jacod bit for bit",
                  repr((j.verdict, j.divergence, j.quadrature))
                  == repr((z.verdict, z.divergence, z.quadrature)))

    return Workload("verdict", calls, check_round)


# ----------------------------------------------------------------------
# crosscheck: verdict plus a 200k-path Monte Carlo cross-check
# ----------------------------------------------------------------------

def crosscheck(seed: int, models: dict, refs: dict) -> Workload:
    rng = np.random.default_rng(seed)
    seeds = d.SeedSpec(int(rng.integers(2**63)), 16)
    table = [
        ("example1", _theorem1(1.0), "mc.evaluate_condition.is"),
        ("example2", _theorem1(_draw_unit(rng)), "mc.evaluate_condition.is"),
        ("example3", INDICATOR, "mc.evaluate_condition.is"),
        ("example1", d.ConditionSpec("lemma1"), "mc.evaluate_condition.estimate"),
    ]

    calls = []
    for name, spec, mc_span in table:
        model = models[name]

        def run(span, m=model, s=spec, mc_span=mc_span):
            with span("mc.evaluate_condition"):
                quad = d.evaluate_condition(m, s)
            with span(mc_span, MC_PATHS):
                full = d.evaluate_condition(m, s, seeds, MC_PATHS)
            return quad, full

        def finish(reports, tally, name=name, spec=spec):
            check_report(refs, name, spec, reports[1], tally)
            return to_bytes([r.to_json() for r in reports])

        calls.append(Call("bench.crosscheck", f"{name} {spec.label()}", MC_PATHS,
                          run, finish))
    return Workload("path", calls)


# ----------------------------------------------------------------------
# pathwise: the scalar JumpPath API, one path at a time
# ----------------------------------------------------------------------

def pathwise(seed: int, models: dict, refs: dict) -> Workload:
    rng = np.random.default_rng(seed)
    pseed = int(rng.integers(2**63))
    zero = d.PredictableControl.constant(0.0)

    calls = []
    for name, model in models.items():
        a = d.PredictableControl.constant(_draw_unit(rng))
        eps = _draw_eps(rng)
        for i in range(PATHS_PER_MODEL):
            sde = i % SDE_EVERY == 0

            def run(span, m=model, i=i, a=a, eps=eps, sde=sde):
                with span("paths.sampler"):
                    p = m.sampler(pseed, i)
                T = p.horizon
                with span("stochexp.stoch_exponential"):
                    e = d.stoch_exponential(p, T)
                with span("stochexp.jacod_functional"):
                    jac = d.jacod_functional(p, T).log_value
                with span("stochexp.theorem1_functional", 2):
                    t0 = d.theorem1_functional(p, zero, eps, T).log_value
                    t1 = d.theorem1_functional(p, a, eps, T).log_value
                with span("stochexp.lemma1_functional"):
                    lem = d.lemma1_functional(p, T)
                with span("girsanov.decompose"):
                    gap = d.decompose(p, a).identity_relative_error()
                with span("paths.path_to_json"):
                    doc = d.path_to_json(p)
                res = None
                if sde:
                    with span("stochexp.sde_residual"):
                        res = d.sde_residual(p, T)
                return e, jac, t0, t1, lem, gap, res, doc

            def finish(out, tally, name=name):
                e, jac, t0, t1, _, gap, res, _ = out
                tally(f"{name} theorem1(a=0) equals jacod bit for bit",
                      repr(t0) == repr(jac))
                tally(f"{name} identity defect <= {IDENTITY_TOL:g}",
                      abs(gap) <= IDENTITY_TOL)
                if res is not None:
                    tally(f"{name} sde residual <= {SDE_TOL:g} max(1, E)",
                          abs(res) <= SDE_TOL * max(1.0, e))
                return repr(out).encode()

            calls.append(Call("bench.path", f"{name} path {i}", 1, run, finish))

    def check_round(outputs: list, tally: Tally) -> None:
        # E[E_T] = 1; example3's eta jump has infinite variance, so its
        # sample standard error means nothing and it is left out
        for k, name in enumerate(models):
            if name == "example3":
                continue
            e = np.array([out[0] for out in
                          outputs[k * PATHS_PER_MODEL:(k + 1) * PATHS_PER_MODEL]])
            se = e.std(ddof=1) / math.sqrt(len(e))
            tally(f"{name} E[E_T] = 1 within {MAX_SE:g} SE",
                  abs(e.mean() - 1.0) <= MAX_SE * se)

    return Workload("path", calls, check_round)


WORKLOADS = {
    "reproduce": reproduce,
    "verdicts": verdicts,
    "crosscheck": crosscheck,
    "pathwise": pathwise,
}
