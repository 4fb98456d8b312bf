"""One measured run of one workload, in the current (fresh) process.

``prepare`` builds a workload's inputs and stores them in the input
cache; :func:`load_inputs` reads them back; :func:`measure` runs the
timed pass(es), checks the outputs and returns the end-to-end metrics
(:mod:`perfbench.trace` does one pass with every layer boundary
wrapped).  :mod:`perfbench.run` starts a fresh process for each phase.
"""

from __future__ import annotations

import gc
import os
import pickle
import re
import resource
import shutil
from pathlib import Path

import numpy as np
from scipy.special import betainc

from perfbench import oracle
from perfbench.workloads import (
    EVALUATION,
    RUNNERS,
    generator_digest,
    make_inputs,
    median,
)

#: End-to-end metrics and their units, in the order they are printed.
E2E_UNITS = {
    "setup_s": "s",
    "readings_per_s": "1/s",
    "cycle_p50_us": "us",
    "week_close_p50_ms": "ms",
    "week_close_p85_ms": "ms",
    "week_close_late_ms": "ms",
    "peak_rss_mb": "MB",
    "checkpoint_mb": "MB",
    "recovery_s": "s",
    "consumers_per_s": "1/s",
    "consumer_eval_p50_ms": "ms",
    "consumer_eval_p90_ms": "ms",
}

#: Weeks (or, for the evaluation, consumers) averaged by
#: ``week_close_late_ms``.
LATE_WINDOW = 10


def _pct(values, q: float) -> float:
    """Harrell-Davis estimate of the ``q``-th percentile.

    A mean of all order statistics weighted round rank ``q`` of ``n``.
    The plain interpolated percentile reads one or two of them: of a
    monitor's 74 week closes the slowest eighth are retraining weeks
    about twice as long as the rest, and its p90 falls in the gap
    between the two groups and flips between them from run to run.
    """
    x = np.sort(np.asarray(values, dtype=float))
    p = q / 100.0
    edges = betainc(p * (x.size + 1), (1 - p) * (x.size + 1), np.arange(x.size + 1) / x.size)
    return float(np.diff(edges) @ x)


def input_cache_path(cache_dir: Path, workload: str, seed: int) -> Path:
    """Cache file keyed by workload, seed and the generators' digest."""
    digest = generator_digest(cache_dir.parent.parent)
    return cache_dir / f"inputs-{workload}-s{seed}-{digest}.pkl"


def prepare(workload: str, seed: int, cache_dir: Path) -> Path:
    """Build the inputs once per (workload, seed, generator) and cache them."""
    path = input_cache_path(cache_dir, workload, seed)
    if path.exists():
        return path
    digest = generator_digest(cache_dir.parent.parent)
    inputs = make_inputs(
        workload, seed, schedule_cache=cache_dir / f"schedule-{workload}-{digest}.pkl"
    )
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    with open(tmp, "wb") as handle:
        pickle.dump(inputs, handle, protocol=pickle.HIGHEST_PROTOCOL)
    tmp.replace(path)
    return path


def load_inputs(cache_dir: Path, workload: str, seed: int):
    """Load cached inputs and take them out of the program's GC.

    The inputs are hundreds of thousands of benchmark-owned objects;
    frozen, they no longer lengthen the program's garbage collections.
    """
    with open(input_cache_path(cache_dir, workload, seed), "rb") as handle:
        inputs = pickle.load(handle).materialise()
    gc.collect()
    gc.freeze()
    return inputs


def reset_peak_rss() -> float | None:
    """Restart the process's peak-RSS count; returns the current RSS (MB).

    Loading the inputs passes through their cached form, a peak the
    program never reaches; after the reset the peak counts only what is
    resident while the program runs (the loaded inputs included; their
    share is printed as ``inputs_rss_mb``).
    """
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass
    return _proc_status_mb("VmRSS")


def peak_rss_mb() -> float:
    """Peak RSS since :func:`reset_peak_rss` (whole-process peak without /proc)."""
    peak = _proc_status_mb("VmHWM")
    if peak is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return peak


def _proc_status_mb(field: str) -> float | None:
    try:
        with open("/proc/self/status") as handle:
            found = re.search(rf"^{field}:\s+(\d+) kB", handle.read(), re.M)
    except OSError:
        return None
    return int(found.group(1)) / 1024.0 if found else None


def check(workload: str, inputs, result) -> tuple[bool, int, list[str]]:
    """Oracle verdict: (correct, failed operations, mismatch notes)."""
    notes = oracle.invariant_failures(workload, inputs, result)
    reference, mismatches = oracle.load_reference(
        workload, inputs.seed, inputs.sizes()
    )
    if reference is not None:
        mismatches = oracle.compare(workload, result.outputs, reference)
    failed = min(result.attempted, result.failed + len(mismatches))
    notes = notes + mismatches
    return not notes and failed == 0, failed, notes


def end_to_end(
    workload: str, result, peak_mb: float, reference_host: bool = True
) -> dict:
    """The twelve end-to-end metrics from one pass's samples.

    The monitor workloads measure delivery calls and week closes; the
    evaluation has neither, so there a consumer's evaluation stands in
    for both the call and the verdict it closes.

    With ``reference_host`` every time is first multiplied by its
    sample's reference-host factor (see
    :class:`~perfbench.workloads.HostSampler`); otherwise the figures
    are wall-clock.
    """

    def scaled(samples, factors):
        if reference_host and factors:
            return np.asarray(samples) * np.asarray(factors)
        return np.asarray(samples)

    n = result.consumers
    if workload == EVALUATION:
        per_call = closes = per_consumer = scaled(result.consumer_s, result.consumer_f)
    else:
        per_call = scaled(result.cycle_s, result.cycle_f)
        closes = scaled(result.week_close_s, result.week_close_f)
        # A week close scores every consumer: its per-consumer share.
        per_consumer = closes / n
    wall = result.wall_s * (result.wall_f if reference_host else 1.0)
    values = {
        "setup_s": result.setup_ref_s if reference_host else result.setup_s,
        "readings_per_s": result.readings / wall,
        "cycle_p50_us": _pct(per_call, 50) * 1e6,
        "week_close_p50_ms": _pct(closes, 50) * 1e3,
        "week_close_p85_ms": _pct(closes, 85) * 1e3,
        "week_close_late_ms": float(np.mean(closes[-LATE_WINDOW:])) * 1e3,
        "peak_rss_mb": peak_mb,
        "checkpoint_mb": result.checkpoint_bytes / 1e6,
        "recovery_s": float(np.median(scaled(result.recovery_s, result.recovery_f))),
        "consumers_per_s": n * result.extra.get("passes", 1) / wall,
        "consumer_eval_p50_ms": _pct(per_consumer, 50) * 1e3,
        "consumer_eval_p90_ms": _pct(per_consumer, 90) * 1e3,
    }
    return {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in E2E_UNITS.items()
    }


def measure(inputs, seconds: float, work: Path) -> dict:
    """Untraced run: timed passes until ``seconds`` have been measured."""
    workload = inputs.workload
    runner = RUNNERS[workload]
    passes = []
    timed = 0.0
    inputs_mb = reset_peak_rss()
    while not passes or timed < seconds:
        target = work / f"pass-{len(passes)}"
        result = runner(inputs, target)
        shutil.rmtree(target, ignore_errors=True)
        passes.append(result)
        timed += result.wall_s
    peak_mb = peak_rss_mb()
    result = _merge(passes)
    metrics = end_to_end(workload, result, peak_mb)
    raw = {
        k: v["value"] for k, v in end_to_end(workload, result, peak_mb, False).items()
    }
    raw["inputs_rss_mb"] = inputs_mb
    raw["host_probe_us"] = result.host_probe_s * 1e6
    # Printed, not gated: the durable cycle tail is the shared disk's
    # fsync tail (p90 spread 0.31, p99 1.2-4.9 ms over runs of the same
    # code).
    calls = result.cycle_s or result.consumer_s
    raw["cycle_p90_us"] = _pct(calls, 90) * 1e6
    raw["cycle_p99_us"] = _pct(calls, 99) * 1e6
    correct, failed, notes = check(workload, inputs, passes[0])
    for extra in passes[1:]:
        ok, more, more_notes = check(workload, inputs, extra)
        correct &= ok
        failed += more
        notes += more_notes
    return {
        "correct": correct,
        "attempted": result.attempted,
        "failed": failed,
        "metrics": metrics,
        "raw": raw,
        "notes": notes[:20],
        "sizes": inputs.sizes(),
        "passes": len(passes),
        "wall_s": result.wall_s,
        "outputs": passes[0].outputs,
        "invariant_failures": oracle.invariant_failures(workload, inputs, passes[0]),
    }


def _merge(passes):
    """Pool the samples of repeated passes into one result."""
    first = passes[0]
    if len(passes) == 1:
        return first
    walls = [p.wall_s for p in passes]
    merged = type(first)(
        wall_s=sum(walls),
        wall_f=sum(p.wall_s * p.wall_f for p in passes) / sum(walls),
        readings=sum(p.readings for p in passes),
        consumers=first.consumers,
        setup_s=median([p.setup_s for p in passes]),
        setup_ref_s=median([p.setup_ref_s for p in passes]),
        host_probe_s=median([p.host_probe_s for p in passes]),
        checkpoint_bytes=first.checkpoint_bytes,
        outputs=first.outputs,
    )
    for p in passes:
        for name in (
            "cycle_s", "cycle_f", "week_close_s", "week_close_f",
            "consumer_s", "consumer_f", "recovery_s", "recovery_f",
        ):
            getattr(merged, name).extend(getattr(p, name))
        merged.attempted += p.attempted
        merged.failed += p.failed
    merged.extra = dict(first.extra, passes=len(passes))
    return merged
