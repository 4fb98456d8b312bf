"""Tests of the benchmark itself: the oracle and its perturbed controls.

Run from the repository root::

    python3 -m pytest perfbench -q

Every control perturbs a small run of a workload in a way that changes
its outputs (a KLD threshold nudged by 1%, one reading changed in a
closed week, a tariff nudged by 1%) and asserts that the oracle rejects
it; the unperturbed re-run must pass.  A reference of other sizes and a
trace target that no longer exists must fail too, and ``peak_rss_mb``
must rise when the program holds more memory.  Sizes are small so the
suite takes well under a minute.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import measure, oracle, trace, workloads  # noqa: E402
from perfbench.trace import PER_LAYER_UNITS, traced_run  # noqa: E402

SMALL = {
    workloads.DURABLE: (8, 16),
    workloads.EVENTTIME: (8, 16),
    workloads.EVALUATION: (3, 12),
}


#: A seed with no committed reference, for runs that go through
#: :func:`perfbench.measure.check` at the small sizes above.
UNREFERENCED_SEED = 11


def _inputs(workload, seed=2016):
    consumers, weeks = SMALL[workload]
    return workloads.make_inputs(
        workload, seed, consumers=consumers, weeks=weeks
    ).materialise()


def _run(workload, inputs, tmp_path):
    return workloads.RUNNERS[workload](
        inputs, tmp_path / "run", recoveries=1, sample=False
    )


@pytest.fixture(scope="module", params=sorted(SMALL))
def baseline(request, tmp_path_factory):
    workload = request.param
    inputs = _inputs(workload)
    result = _run(workload, inputs, tmp_path_factory.mktemp(workload))
    return workload, inputs, result


def _first_alert(outputs):
    for week in outputs["weeks"]:
        if week["alerts"]:
            return week["week"], week["alerts"][0][0]
    raise AssertionError("the small run raised no alert to perturb")


def test_identical_rerun_passes_the_oracle(baseline, tmp_path):
    workload, inputs, reference = baseline
    again = _run(workload, inputs, tmp_path)
    assert reference.failed == again.failed == 0
    assert reference.extra["recovered_equal"]
    assert oracle.compare(workload, again.outputs, reference.outputs) == []
    assert oracle.invariant_failures(workload, inputs, again) == []


def test_reordered_sums_stay_within_tolerance(baseline):
    workload, _inputs_, reference = baseline
    outputs = json.loads(json.dumps(reference.outputs))
    if workload == workloads.EVALUATION:
        for cells in outputs["table3"].values():
            for gain in cells.values():
                gain[1] *= 1 + 1e-12
        assert oracle.compare(workload, outputs, reference.outputs) == []
        return
    for week in outputs["weeks"]:
        for alert in week["alerts"]:
            alert[2] *= 1 + 1e-12
    assert oracle.compare(workload, outputs, reference.outputs) == []
    for week in outputs["weeks"]:
        for alert in week["alerts"]:
            alert[2] *= 1 + 1e-6
    assert oracle.compare(workload, outputs, reference.outputs)


def test_kld_threshold_nudged_one_percent_fails(baseline, tmp_path, monkeypatch):
    workload, inputs, reference = baseline
    if workload == workloads.EVALUATION:
        # No KLD score of the three small-run consumers lies within 1%
        # of its threshold, so no table cell moves; the evaluation's
        # control is the tariff nudge below.
        pytest.skip("the evaluation's control is the tariff nudge")
    from repro.core.kld import KLDDetector

    original = KLDDetector.threshold
    monkeypatch.setattr(
        KLDDetector, "threshold", property(lambda self: original.fget(self) * 1.01)
    )
    perturbed = _run(workload, inputs, tmp_path)
    assert oracle.compare(workload, perturbed.outputs, reference.outputs)


def test_one_reading_flipped_in_a_closed_week_fails(baseline, tmp_path):
    workload, inputs, reference = baseline
    if workload == workloads.EVALUATION:
        pytest.skip("the evaluation has no delivery stream")
    week, consumer = _first_alert(reference.outputs)
    if workload == workloads.DURABLE:
        slot = week * 336 + 100
        cycles = [dict(cycle) for cycle in inputs.cycles]
        cycles[slot][consumer] = cycles[slot].get(consumer, 1.0) * 3 + 1.0
        flipped = workloads.Inputs(**{**vars(inputs), "cycles": cycles})
    else:
        batches = [list(batch) for batch in inputs.batches]
        in_week = [
            (batch, i)
            for batch in batches
            for i, r in enumerate(batch)
            if r.consumer_id == consumer and r.slot // 336 == week
        ]
        batch, i = in_week[len(in_week) // 2]
        reading = batch[i]
        batch[i] = type(reading)(consumer, reading.slot, reading.value * 3 + 1.0)
        flipped = workloads.Inputs(**{**vars(inputs), "batches": batches})
    perturbed = _run(workload, flipped, tmp_path)
    assert oracle.compare(workload, perturbed.outputs, reference.outputs)


def test_tariff_nudged_one_percent_fails(baseline, tmp_path, monkeypatch):
    workload, inputs, reference = baseline
    if workload != workloads.EVALUATION:
        pytest.skip("only the evaluation prices its attacks")
    from repro.pricing.schemes import TimeOfUsePricing

    original = TimeOfUsePricing.price
    monkeypatch.setattr(
        TimeOfUsePricing, "price", lambda self, t: original(self, t) * 1.01
    )
    perturbed = _run(workload, inputs, tmp_path)
    assert oracle.compare(workload, perturbed.outputs, reference.outputs)


def test_committed_references_cover_two_seeds():
    for workload in workloads.WORKLOADS:
        seeds = sorted(
            json.loads(path.read_text())["seed"]
            for path in oracle.REFERENCE_DIR.glob(f"{workload}-seed*.json")
        )
        assert len(seeds) >= 2, workload


def test_reference_with_other_sizes_fails_the_check(baseline, tmp_path, monkeypatch):
    workload, inputs, result = baseline
    monkeypatch.setattr(oracle, "REFERENCE_DIR", tmp_path)
    sizes = inputs.sizes()
    oracle.write_reference(workload, inputs.seed, sizes, result.outputs)
    assert measure.check(workload, inputs, result) == (True, 0, [])
    oracle.write_reference(
        workload, inputs.seed, dict(sizes, readings=sizes["readings"] + 1), result.outputs
    )
    correct, failed, notes = measure.check(workload, inputs, result)
    assert not correct
    assert failed >= 1
    assert any("differ from the reference" in note for note in notes)


def test_peak_rss_counts_the_program_but_not_the_load(tmp_path, monkeypatch):
    workload = workloads.EVALUATION
    inputs = _inputs(workload, UNREFERENCED_SEED)
    held = 64 << 20
    # A peak before the run, like the one unpickling the inputs makes.
    transient = b"\x01" * (3 * held)
    del transient
    process_peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    plain = measure.measure(inputs, 0.0, tmp_path / "plain")
    assert plain["correct"], plain["notes"]
    assert plain["metrics"]["peak_rss_mb"]["value"] < process_peak_mb - 2 * held / 2**20
    runner = workloads.RUNNERS[workload]

    def hungry(*args, **kwargs):
        ballast = b"\x01" * held
        try:
            return runner(*args, **kwargs)
        finally:
            del ballast

    monkeypatch.setitem(workloads.RUNNERS, workload, hungry)
    heavy = measure.measure(inputs, 0.0, tmp_path / "heavy")
    rise = heavy["metrics"]["peak_rss_mb"]["value"] - plain["metrics"]["peak_rss_mb"]["value"]
    assert rise > 0.8 * held / 2**20


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in benchmark["per_layer"]]
    assert sorted(declared) == sorted(PER_LAYER_UNITS)
    inputs = _inputs(workloads.DURABLE, UNREFERENCED_SEED)
    payload = traced_run(inputs, tmp_path / "work", tmp_path / "traces")
    assert payload["correct"]
    # Every boundary was wrapped and the oracle had nothing to report.
    assert payload["notes"] == []
    # The overhead ratio needs the untraced run; run.py appends it.
    assert set(payload["metrics"]) == set(PER_LAYER_UNITS) - {"trace.overhead_ratio"}
    assert payload["metrics"]["storage.fsync_calls"]["value"] > 0
    assert len(payload["week_close_ms"]) == SMALL[workloads.DURABLE][1]


def test_missing_trace_target_fails_the_traced_run(tmp_path, monkeypatch):
    missing = ("repro.core.online:TheftMonitoringService", "no_such_method", "core.gone", True)
    monkeypatch.setattr(trace, "WRAPS", (*trace.WRAPS, missing))
    inputs = _inputs(workloads.EVALUATION, UNREFERENCED_SEED)
    payload = traced_run(inputs, tmp_path / "work", tmp_path / "traces")
    assert not payload["correct"]
    assert any("no_such_method" in note for note in payload["notes"])


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "evaluation-tables",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
