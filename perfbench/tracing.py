"""In-memory spans and counters for the traced run, and the per-layer metrics.

Spans cover the calls the benchmark makes into each layer's public
function.  Counters are wrappers installed with ``dataclasses.replace`` on
the public ``ProcessModel.build``, ``Driver.dist.log_density`` and
``Driver.dist.inverse_cdf`` fields; a subclass of the model adds a span
around ``ProcessModel.sample_chunk``, which the Monte Carlo layer calls.
Nothing in ``doleans`` is edited.
"""

from __future__ import annotations

import gzip
import json
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import fields, replace
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import numpy as np

from doleans import EXAMPLE_MODELS, ProcessModel

_NULL = nullcontext()


def no_span(name: str, items: int = 1):
    """The untraced stand-in for :meth:`Tracer.span`."""
    return _NULL


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    round: int
    items: int
    counts: dict | None


def _one(_out) -> int:
    return 1


class Tracer:
    """Spans and counters of one traced run, held in memory."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        self.busy: Counter = Counter()
        self.round = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, items: int = 1):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(None)
        self._open.append(idx)
        before = dict(self.counts)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._open.pop()
            delta = {k: v - before.get(k, 0) for k, v in self.counts.items()
                     if v != before.get(k, 0)}
            self.spans[idx] = Span(name, start, end, parent, self.round, items,
                                   delta or None)

    def counted(self, key: str, fn, measure=_one):
        """Wrap ``fn`` so every call adds ``measure(output)`` and its time under ``key``."""
        counts, busy = self.counts, self.busy

        def wrapper(*args):
            t = perf_counter()
            out = fn(*args)
            busy[key] += perf_counter() - t
            counts[key] += measure(out)
            return out

        return wrapper

    def model(self, model: ProcessModel) -> ProcessModel:
        """A copy of ``model`` whose build, laws and chunk sampler are traced."""
        span = self.span

        class Traced(type(model)):
            def sample_chunk(self, rng, count):
                with span("paths.sample_chunk", count):
                    return super().sample_chunk(rng, count)

        drivers = tuple(
            replace(dr, dist=replace(
                dr.dist,
                log_density=self.counted("distributions.log_density",
                                         dr.dist.log_density),
                inverse_cdf=self.counted("distributions.inverse_cdf",
                                         dr.dist.inverse_cdf, np.size),
            ))
            for dr in model.drivers
        )
        values = {f.name: getattr(model, f.name) for f in fields(model)}
        values.update(drivers=drivers,
                      build=self.counted("paths.build", model.build))
        return Traced(**values)

    @contextmanager
    def installed(self, models: dict):
        """Make ``EXAMPLE_MODELS`` hand out ``models``, for code that builds its own."""
        saved = dict(EXAMPLE_MODELS)
        EXAMPLE_MODELS.update({name: (lambda m=m: m) for name, m in models.items()})
        try:
            yield
        finally:
            EXAMPLE_MODELS.update(saved)

    def write(self, path: Path) -> None:
        """Write every span as one JSON row, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": list(Span._fields), "spans": self.spans}, fh)


def layer_metrics(tracer: Tracer, rounds: int) -> tuple[dict, list[str]]:
    """Per-layer metrics from the spans and counters of ``rounds`` traced rounds.

    Returns the values and the names of metrics whose layer the workload
    did not reach; those read 0.
    """
    spans = tracer.spans
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def dur(s: Span) -> float:
        return s.end - s.start

    def us_per_item(group: list[Span]) -> float | None:
        items = sum(s.items for s in group)
        return sum(map(dur, group)) / items * 1e6 if items else None

    def mean_s(name: str) -> float | None:
        group = by_name[name]
        return sum(map(dur, group)) / len(group) if group else None

    def derived_rate(name: str) -> float | None:
        # (t(n) - t(0)) / n, with t(0) the quadrature-only sibling span
        paths, seconds = 0, 0.0
        for s in by_name[name]:
            t0 = sum(dur(q) for q in by_name["mc.evaluate_condition"]
                     if q.parent == s.parent)
            paths += s.items
            seconds += dur(s) - t0
        return paths / seconds if paths else None

    counts, busy = tracer.counts, tracer.busy
    quads = by_name["mc.evaluate_condition"]
    chunks = [s for s in by_name["paths.sample_chunk"]
              if s.parent < 0 or spans[s.parent].name != "paths.sampler"]
    draws = counts["distributions.inverse_cdf"]
    builds = counts["paths.build"]
    values = {
        "distributions.inverse_cdf_draws_per_s":
            draws / busy["distributions.inverse_cdf"] if draws else None,
        "distributions.log_density_calls": counts["distributions.log_density"] / rounds,
        "paths.build_calls": builds / rounds,
        "paths.build_us": busy["paths.build"] / builds * 1e6 if builds else None,
        "paths.sample_chunk_us_per_path": us_per_item(chunks),
        "paths.sampler_us_per_path": us_per_item(by_name["paths.sampler"]),
        "stochexp.stoch_exponential_us_per_path":
            us_per_item(by_name["stochexp.stoch_exponential"]),
        "stochexp.theorem1_us_per_path":
            us_per_item(by_name["stochexp.theorem1_functional"]),
        "stochexp.jacod_us_per_path": us_per_item(by_name["stochexp.jacod_functional"]),
        "stochexp.lemma1_us_per_path": us_per_item(by_name["stochexp.lemma1_functional"]),
        "stochexp.sde_residual_us_per_path":
            us_per_item(by_name["stochexp.sde_residual"]),
        "girsanov.decompose_us_per_path": us_per_item(by_name["girsanov.decompose"]),
        "mc.quadrature_s": mean_s("mc.evaluate_condition"),
        "mc.quad_nodes_per_verdict":
            sum((q.counts or {}).get("distributions.log_density", 0) for q in quads)
            / len(quads) if quads else None,
        "mc.is_paths_per_s": derived_rate("mc.evaluate_condition.is"),
        "mc.estimate_paths_per_s": derived_rate("mc.evaluate_condition.estimate"),
        "cli.reproduce1_s": mean_s("cli.reproduce1"),
        "cli.reproduce2_s": mean_s("cli.reproduce2"),
        "cli.reproduce3_s": mean_s("cli.reproduce3"),
        "cli.lemmas_s": mean_s("cli.lemmas"),
    }
    not_reached = sorted(k for k, v in values.items() if not v)
    return {k: float(v or 0.0) for k, v in values.items()}, not_reached
