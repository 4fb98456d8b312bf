"""Correctness oracle: the program's outputs against committed references.

Monitor workloads are compared per consumer-week: the alert set with
each alert's anomaly nature, the suppressed and quarantined consumers,
and partial-coverage weeks must match exactly; alert scores, thresholds
and coverage fractions must match within :data:`RTOL` (relative), so a
kernel that only re-orders a floating-point sum still passes.  The
verdict-revision list and the model registry's promotion/rejection
events must match exactly (revision scores within :data:`RTOL`).

The evaluation workload is compared cell by cell on Tables II and III
(within :data:`RTOL`) and consumer by consumer on the boolean outcomes
(false positives and full detections) behind them.

Each mismatching week, revision, registry event, table cell or consumer
counts as one failed operation.  References exist for the seeds in
``perfbench/reference``; every other seed is checked against the
workload's invariants only (see :func:`invariant_failures`).
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

#: Relative tolerance on scores, thresholds, coverage and gains.
RTOL = 1e-9

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


# ----------------------------------------------------------------------
# Output digests
# ----------------------------------------------------------------------


def monitor_outputs(service) -> dict:
    """The operator-visible verdicts of a monitoring service, as JSON data."""
    weeks = []
    for report in service.reports:
        weeks.append(
            {
                "week": report.week_index,
                "alerts": [
                    [
                        a.consumer_id,
                        a.nature.value,
                        float(a.score),
                        float(a.threshold),
                        float(a.coverage),
                    ]
                    for a in report.alerts
                ],
                "suppressed": sorted(report.suppressed),
                "quarantined": sorted(report.quarantined),
                "partial": {
                    cid: float(cov)
                    for cid, cov in sorted(report.coverage.items())
                    if cov != 1.0
                },
            }
        )
    revisions = [
        [
            r.week_index,
            r.consumer_id,
            r.version,
            r.kind.value,
            r.flagged_before,
            r.flagged_after,
            None if r.score_before is None else float(r.score_before),
            None if r.score_after is None else float(r.score_after),
        ]
        for r in service.revisions.revisions
    ]
    registry = []
    if service.model_registry is not None:
        registry = [
            [e.kind, e.version, e.week]
            for e in service.model_registry.events
            if e.kind != "submitted"
        ]
    return {"weeks": weeks, "revisions": revisions, "registry": registry}


def evaluation_outputs(results) -> dict:
    """Tables II/III cells and per-consumer outcomes of an evaluation."""
    from repro.evaluation.tables import table2, table3

    t2 = {
        row.detector: {col: float(v) for col, v in row.values.items()}
        for row in table2(results)
    }
    t3 = {
        row.detector: {
            col: [float(g.stolen_kwh), float(g.profit_usd)]
            for col, g in row.values.items()
        }
        for row in table3(results)
    }
    consumers = {}
    for cid, evaluation in results.consumers.items():
        outcome = (
            sorted(evaluation.false_positive.items()),
            sorted(
                (f"{d}|{a}", v) for (d, a), v in evaluation.detected_all.items()
            ),
        )
        consumers[cid] = hashlib.sha256(
            json.dumps(outcome).encode()
        ).hexdigest()[:16]
    return {"table2": t2, "table3": t3, "consumers": consumers}


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=RTOL, abs_tol=0.0)


def _rows_close(got, ref) -> bool:
    return len(got) == len(ref) and all(_close(g, r) for g, r in zip(got, ref))


def _week_matches(got: dict, ref: dict) -> bool:
    if got["week"] != ref["week"]:
        return False
    if [a[:2] for a in got["alerts"]] != [a[:2] for a in ref["alerts"]]:
        return False
    if not all(_rows_close(g, r) for g, r in zip(got["alerts"], ref["alerts"])):
        return False
    if got["suppressed"] != ref["suppressed"]:
        return False
    if got["quarantined"] != ref["quarantined"]:
        return False
    if sorted(got["partial"]) != sorted(ref["partial"]):
        return False
    return all(_close(got["partial"][c], ref["partial"][c]) for c in ref["partial"])


def _list_mismatches(got: list, ref: list, same) -> list[int]:
    bad = [i for i, (g, r) in enumerate(zip(got, ref)) if not same(g, r)]
    bad.extend(range(min(len(got), len(ref)), max(len(got), len(ref))))
    return bad


def compare_monitor(got: dict, ref: dict) -> list[str]:
    mismatches = [
        f"week {i}" for i in _list_mismatches(got["weeks"], ref["weeks"], _week_matches)
    ]

    def revision_same(g, r):
        return g[:6] == r[:6] and _rows_close(g[6:], r[6:])

    mismatches += [
        f"revision {i}"
        for i in _list_mismatches(got["revisions"], ref["revisions"], revision_same)
    ]
    mismatches += [
        f"registry event {i}"
        for i in _list_mismatches(
            got["registry"], ref["registry"], lambda g, r: g == r
        )
    ]
    return mismatches


def compare_evaluation(got: dict, ref: dict) -> list[str]:
    mismatches = []
    for table in ("table2", "table3"):
        for detector, cells in ref[table].items():
            for column, value in cells.items():
                other = got[table].get(detector, {}).get(column)
                same = (
                    other is not None
                    and (
                        _rows_close(other, value)
                        if isinstance(value, list)
                        else _close(other, value)
                    )
                )
                if not same:
                    mismatches.append(f"{table} {detector} {column}")
    for cid, digest in ref["consumers"].items():
        if got["consumers"].get(cid) != digest:
            mismatches.append(f"consumer {cid}")
    extra = set(got["consumers"]) - set(ref["consumers"])
    mismatches += [f"unexpected consumer {cid}" for cid in sorted(extra)]
    return mismatches


def compare(workload: str, got: dict, ref: dict) -> list[str]:
    from perfbench.workloads import EVALUATION

    if workload == EVALUATION:
        return compare_evaluation(got, ref)
    return compare_monitor(got, ref)


# ----------------------------------------------------------------------
# References
# ----------------------------------------------------------------------


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / f"{workload}-seed{seed}.json"


def load_reference(
    workload: str, seed: int, sizes: dict
) -> tuple[dict | None, list[str]]:
    """The committed reference for this seed, and any size mismatch.

    Returns ``(None, [])`` when the seed has no reference.  A reference
    whose sizes differ from the run's (say, a program change altered
    how many readings the channels deliver) cannot be compared, and
    that is itself a mismatch: ``(None, [note])``.
    """
    path = reference_path(workload, seed)
    if not path.exists():
        return None, []
    data = json.loads(path.read_text())
    if data["sizes"] != sizes:
        return None, [
            f"sizes {sizes} differ from the reference's {data['sizes']}"
        ]
    return data["outputs"], []


def write_reference(workload: str, seed: int, sizes: dict, outputs: dict) -> Path:
    path = reference_path(workload, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"workload": workload, "seed": seed, "sizes": sizes, "outputs": outputs}
    path.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
    return path


# ----------------------------------------------------------------------
# Invariants (every seed)
# ----------------------------------------------------------------------


def invariant_failures(workload: str, inputs, result) -> list[str]:
    """Checks that hold for every seed, reference or not."""
    from perfbench.workloads import EVALUATION, EVENTTIME

    failures = []
    if not result.extra.get("recovered_equal", False):
        failures.append("restored state disagrees with the live outputs")
    if workload == EVALUATION:
        outputs = result.outputs
        if len(outputs.get("consumers", {})) != inputs.consumers:
            failures.append("not every consumer was evaluated")
        for cells in outputs.get("table2", {}).values():
            if not all(0.0 <= v <= 100.0 for v in cells.values()):
                failures.append("Table II cell outside [0, 100]")
        return failures
    if result.extra.get("weeks_completed") != inputs.weeks:
        failures.append(
            f"{result.extra.get('weeks_completed')} weeks completed, "
            f"expected {inputs.weeks}"
        )
    if len(result.outputs["weeks"]) != inputs.weeks:
        failures.append("a week has no report")
    if len(result.week_close_s) != inputs.weeks:
        failures.append(
            f"{len(result.week_close_s)} week-closing calls, "
            f"expected {inputs.weeks}"
        )
    if workload == EVENTTIME:
        # Delays are capped at lateness + grace, so nothing may be late
        # past finalisation, and finish() must drain the buffer.
        if result.extra.get("too_late", 0):
            failures.append("readings quarantined as too_late")
        if result.extra.get("pending", 0):
            failures.append("readings left in the reorder buffer")
    elif not any(e[0] == "promoted" for e in result.outputs["registry"]):
        failures.append("no model was ever promoted")
    return failures
