"""Benchmark of ``doleans``: one workload, timed untraced or traced.

Usage, from the repository root::

    python3 perfbench/run.py --workload verdicts --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout this file sits in;
nothing is installed.  The last line of standard output is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics when ``--trace 0`` and the per-layer metrics
when ``--trace 1``.  The line before it is ``{"detail": {...}}``: the
provenance, every failed check by name, the names the metrics carry for
this workload, and the reproduce digests.  A traced run also writes its
spans to ``.perfbench_out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import doleans  # noqa: E402

if SRC not in Path(doleans.__file__).resolve().parents:
    sys.exit(f"doleans was imported from {doleans.__file__}, not from {SRC}")

from calibration import REFERENCE_S, calibrate  # noqa: E402
from tracing import Tracer, layer_metrics, no_span  # noqa: E402
from workloads import WORKLOADS, Tally  # noqa: E402

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Seconds between calibrations within a round.
CALIBRATE_EVERY_S = 0.25
#: A traced run stops adding rounds once it holds this many spans.
MAX_SPANS = 200_000

#: What each workload's generic metrics are called in the issue that
#: defined the benchmark; the detail line gives them in raw seconds.
ALIASES = {
    "reproduce": {"round_s": "reproduce_s"},
    "verdicts": {"items_per_s": "verdicts_per_s", "call_ms_p90": "verdict_ms_p90"},
    "crosscheck": {"items_per_s": "crosscheck_paths_per_s"},
    "pathwise": {"items_per_s": "pathwise_paths_per_s"},
}


def measure_setup() -> list[tuple[float, float]]:
    """Cold starts: seconds to import doleans, build the models and run one
    verdict, each with the calibration kernel's seconds."""
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py")],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        elapsed, kernel = out.stdout.split()[-2:]
        samples.append((float(elapsed), float(kernel)))
    return samples


def run_round(workload, calls, span, tally: Tally, kernels: list | None = None):
    """Make every call once; returns per-call seconds, outputs and output bytes.

    With ``kernels``, the calibration kernel is timed before the first call
    and then between calls every ``CALIBRATE_EVERY_S``, and appended there.
    """
    seconds, outputs, blobs = [], [], []
    calibrated = -CALIBRATE_EVERY_S
    for call in calls:
        if kernels is not None and perf_counter() - calibrated >= CALIBRATE_EVERY_S:
            kernels.append(calibrate())
            calibrated = perf_counter()
        t = perf_counter()
        try:
            with span(call.name, call.items):
                out = call.run(span)
        except Exception:  # a failing call is a failed check, not a crash
            seconds.append(perf_counter() - t)
            tally(f"{call.label} raised {traceback.format_exc(limit=1).splitlines()[-1]}",
                  False)
            outputs.append(None)
            blobs.append(b"")
            continue
        seconds.append(perf_counter() - t)
        outputs.append(out)
        blobs.append(call.finish(out, tally))
    if all(out is not None for out in outputs):
        workload.check_round(outputs, tally)
    return seconds, outputs, blobs


def check_same(workload, blobs, reference, tally: Tally, what: str) -> None:
    for call, blob, ref in zip(workload.calls, blobs, reference):
        tally(f"{what}: {call.label}", blob == ref)


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance() -> dict:
    source = hashlib.sha256()
    for path in sorted((SRC / "doleans").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "doleans": doleans.__version__,
        "git_commit": git_commit(),
        "source_sha256": source.hexdigest(),
        "DOLEANS_THREADS": os.environ.get("DOLEANS_THREADS"),
    }


def timings(workload, timed: list[list[float]], setup: list[float]) -> dict:
    """The end-to-end timings from per-call seconds of every timed round."""
    rounds = [sum(r) for r in timed]
    calls = [s for r in timed for s in r]
    items = len(timed) * sum(c.items for c in workload.calls)
    return {
        "setup_s": statistics.median(setup),
        "round_s": statistics.median(rounds),
        "items_per_s": items / sum(rounds),
        "call_ms_p90": float(np.percentile(calls, 90)) * 1e3,
    }


def declared_units(trace: int) -> dict:
    """Metric names and units as ``BENCHMARK.json`` declares them."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    load_start = os.getloadavg()
    refs = json.loads((HERE / "references.json").read_text())
    setup = [] if args.trace else measure_setup()

    plain = {name: factory() for name, factory in doleans.EXAMPLE_MODELS.items()}
    make = WORKLOADS[args.workload]
    workload = make(args.seed, plain, refs)
    tally = Tally()

    # warm-up round: fills lazy state, and its bytes are the reference that
    # every later round must reproduce exactly
    _, _, reference = run_round(workload, workload.calls, no_span, tally)

    timed: list[list[float]] = []
    detail: dict = {}
    start = perf_counter()
    if not args.trace:
        kernels = []
        while True:
            in_round: list[float] = []
            seconds, _, blobs = run_round(workload, workload.calls, no_span, tally,
                                          in_round)
            kernels.append(statistics.median(in_round))
            check_same(workload, blobs, reference, tally, "same bytes twice")
            timed.append(seconds)
            elapsed = perf_counter() - start
            if elapsed + sum(seconds) > args.seconds:
                break
        # reference seconds: each round scaled by the kernel timed during it
        values = timings(
            workload,
            [[s * REFERENCE_S / k for s in r] for r, k in zip(timed, kernels)],
            [e * REFERENCE_S / k for e, k in setup],
        )
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        raw = timings(workload, timed, [e for e, _ in setup])
        detail.update(
            raw=raw, kernel_s=kernels, setup_samples=setup,
            round_s_samples=[sum(r) for r in timed],
            aliases={alias: raw[name] for name, alias in ALIASES[args.workload].items()},
        )
    else:
        tracer = Tracer()
        traced_models = {name: tracer.model(m) for name, m in plain.items()}
        traced = make(args.seed, traced_models, refs)
        untraced_s, traced_s = [], []
        while True:
            seconds, _, blobs = run_round(workload, workload.calls, no_span, tally)
            check_same(workload, blobs, reference, tally, "same bytes twice")
            untraced_s.append(sum(seconds))
            tracer.round += 1
            with tracer.installed(traced_models):
                seconds, _, blobs = run_round(traced, traced.calls, tracer.span, tally)
            check_same(workload, blobs, reference, tally, "traced output equals untraced")
            traced_s.append(sum(seconds))
            elapsed = perf_counter() - start
            if (elapsed + untraced_s[-1] + traced_s[-1] > args.seconds
                    or len(tracer.spans) >= MAX_SPANS):
                break
        values, not_reached = layer_metrics(tracer, tracer.round)
        values["mc.nonfinite"] = tally.nonfinite / (2 * tracer.round + 1)
        u, t = statistics.median(untraced_s), statistics.median(traced_s)
        values["trace.untraced_round_s"] = u
        values["trace.traced_round_s"] = t
        values["trace.overhead"] = t / u - 1.0
        spans_file = ROOT / ".perfbench_out" / f"spans-{args.workload}-{args.seed}.json.gz"
        tracer.write(spans_file)
        detail.update(traced_rounds=tracer.round, spans=len(tracer.spans),
                      spans_file=str(spans_file.relative_to(ROOT)),
                      not_reached=not_reached)

    units = declared_units(args.trace)
    if set(values) != set(units):
        sys.exit(f"metrics {sorted(values)} differ from BENCHMARK.json {sorted(units)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    outputs_info = workload.summarize(reference)
    failed = sum(tally.failed.values())
    detail.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        rounds=len(timed) if timed else None, calls_per_round=len(workload.calls),
        item=workload.item, items_per_round=sum(c.items for c in workload.calls),
        fail_ratio=failed / tally.attempted,
        failed_checks=dict(tally.failed),
        mc_nonfinite=tally.nonfinite,
        provenance=dict(provenance(), loadavg_start=load_start,
                        loadavg_end=os.getloadavg()),
        **outputs_info,
    )
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
