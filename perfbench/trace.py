"""Traced run: spans around the calls into each layer, from outside it.

:class:`Tracer` wraps public functions and methods of the program's
modules (nothing inside the program changes) and a timing
:class:`~repro.storage.io.StorageIO` installed through
:func:`~repro.storage.install_io` times every durable write and fsync
per site.  Each wrapped call opens a span (name, start, end, parent);
coarse spans are kept in memory and written out when the run ends,
while hot per-reading boundaries (counter increments, store appends,
price lookups) only aggregate calls and self time, so tracing does not
run the process out of memory.  A span's self time is its duration
minus the time its wrapped children took.

The per-layer metrics are totals over the timed pass.
``unattributed_s`` is the pass's wall time that no root span covers
(the harness loop); the tracing overhead is reported by
:mod:`perfbench.run` as this run's wall time over the untraced run's.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

from perfbench.measure import check
from perfbench.workloads import EVALUATION, RUNNERS

#: (module:owner, attribute, span name, keep spans).  ``owner`` is a
#: class, or empty for a module-level function (patched everywhere it
#: was imported by name).  Hot boundaries keep no span records.
WRAPS = (
    ("repro.durability.recovery:DurableTheftMonitor", "ingest_cycle", "durability.ingest", True),
    ("repro.core.online:TheftMonitoringService", "ingest_cycle", "core.ingest_cycle", True),
    ("repro.core.online:TheftMonitoringService", "_complete_week", "core.week_close", True),
    ("repro.core.online:TheftMonitoringService", "_train", "core.train", True),
    ("repro.core.online:TheftMonitoringService", "reconcile_reading", "eventtime.reconcile", False),
    ("repro.core.framework:FDetaFramework", "assess_week", "core.assess", True),
    ("repro.core.framework:FDetaFramework", "assess_partial_week", "core.assess", True),
    ("repro.core.kld:KLDDetector", "_fit", "core.kld_fit", True),
    ("repro.core.conditional:PriceConditionedKLDDetector", "_fit", "core.conditional_fit", True),
    ("repro.detectors.arima_detector:ARIMADetector", "_fit", "detectors.arima_fit", True),
    ("repro.detectors.integrated_arima:IntegratedARIMADetector", "_fit", "detectors.integrated_fit", True),
    ("repro.detectors.base:WeeklyDetector", "flags", "detectors.flags", True),
    ("repro.metering.store:ReadingStore", "week_matrix", "metering.week_matrix", True),
    ("repro.metering.store:ReadingStore", "append", "metering.append", False),
    ("repro.metering.store:ReadingStore", "append_gap", "metering.append", False),
    ("repro.metering.store:ReadingStore", "record", "metering.record", False),
    ("repro.quarantine.firewall:ReadingFirewall", "screen", "quarantine.screen", False),
    ("repro.resilience.circuit:BreakerBoard", "record", "resilience.breaker_record", False),
    ("repro.resilience.checkpoint:", "save_checkpoint", "resilience.checkpoint", True),
    ("repro.durability.wal:WriteAheadLog", "append_cycle", "durability.wal_append", False),
    ("repro.durability.wal:WriteAheadLog", "append_delivery", "durability.wal_append", False),
    ("repro.durability.wal:WriteAheadLog", "sync", "durability.wal_sync", False),
    ("repro.durability.wal:WriteAheadLog", "compact", "durability.compact", True),
    ("repro.stats.divergence:", "kl_divergence", "stats.kl_divergence", False),
    ("repro.stats.histogram:FixedEdgeHistogram", "probabilities", "stats.histogram", False),
    ("repro.integrity.sentinel:DriftSentinel", "screen", "integrity.screen", True),
    ("repro.integrity.sentinel:", "winsorize_matrix", "integrity.winsorize", True),
    ("repro.integrity.canary:CanaryGate", "evaluate", "integrity.canary", True),
    ("repro.eventtime.ingestion:EventTimeIngestor", "deliver", "eventtime.deliver", True),
    ("repro.eventtime.ingestion:EventTimeIngestor", "finish", "eventtime.deliver", True),
    ("repro.eventtime.reorder:ReorderBuffer", "offer", "eventtime.offer", False),
    ("repro.observability.metrics:Counter", "inc", "observability.counter_inc", False),
    ("repro.observability.metrics:Histogram", "observe", "observability.histogram_observe", False),
    ("repro.observability.events:EventLogger", "log", "observability.events", False),
    ("repro.pricing.schemes:TimeOfUsePricing", "price", "pricing.price", False),
    ("repro.attacks.injection.arima_attack:ARIMAAttack", "inject", "attacks.inject", True),
    ("repro.attacks.injection.integrated_arima:IntegratedARIMAAttack", "inject", "attacks.inject", True),
    ("repro.attacks.injection.optimal_swap:OptimalSwapAttack", "inject", "attacks.inject", True),
    ("repro.evaluation.experiment:", "run_evaluation", "evaluation.run", True),
    ("repro.evaluation.experiment:", "evaluate_consumer", "evaluation.consumer", True),
)

#: Per-layer metrics in print order: name -> unit.
PER_LAYER_UNITS = {
    "metering.week_matrix_calls": "count",
    "metering.week_matrix_s": "s",
    "metering.week_matrix_mb": "MB",
    "metering.append_s": "s",
    "metering.record_calls": "count",
    "quarantine.screen_s": "s",
    "quarantine.rejected": "count",
    "resilience.breaker_record_s": "s",
    "resilience.checkpoint_s": "s",
    "resilience.checkpoint_mb_total": "MB",
    "durability.ingest_s": "s",
    "durability.wal_append_s": "s",
    "durability.wal_mb": "MB",
    "durability.wal_sync_s": "s",
    "durability.compact_s": "s",
    "storage.fsync_calls": "count",
    "storage.fsync_s": "s",
    "storage.wal_fsync_s": "s",
    "storage.checkpoint_fsync_s": "s",
    "storage.write_s": "s",
    "core.ingest_cycle_s": "s",
    "core.week_close_s": "s",
    "core.train_calls": "count",
    "core.train_s": "s",
    "core.assess_s": "s",
    "core.kld_fit_calls": "count",
    "core.kld_fit_s": "s",
    "core.conditional_fit_s": "s",
    "core.week_close_growth": "ratio",
    "stats.kl_divergence_calls": "count",
    "stats.kl_divergence_s": "s",
    "stats.histogram_calls": "count",
    "integrity.screen_calls": "count",
    "integrity.screen_s": "s",
    "integrity.suspects": "count",
    "integrity.winsorize_s": "s",
    "integrity.canary_s": "s",
    "integrity.promote_ratio": "ratio",
    "eventtime.deliver_s": "s",
    "eventtime.offer_calls": "count",
    "eventtime.reconcile_calls": "count",
    "eventtime.reconcile_s": "s",
    "eventtime.revisions": "count",
    "eventtime.pending_peak": "count",
    "eventtime.too_late": "count",
    "observability.counter_inc_calls": "count",
    "observability.counter_inc_s": "s",
    "observability.histogram_observe_calls": "count",
    "observability.events_emitted": "count",
    "observability.profiler_s": "s",
    "detectors.arima_fit_calls": "count",
    "detectors.arima_fit_s": "s",
    "detectors.integrated_fit_s": "s",
    "detectors.flags_calls": "count",
    "detectors.flags_s": "s",
    "attacks.inject_s": "s",
    "attacks.vectors": "count",
    "pricing.price_calls": "count",
    "pricing.price_s": "s",
    "evaluation.run_s": "s",
    "evaluation.consumer_s": "s",
    "week_close.w10_ms": "ms",
    "week_close.w40_ms": "ms",
    "week_close.w70_ms": "ms",
    "trace.wall_s": "s",
    "unattributed_s": "s",
    "trace.spans": "count",
    # Appended by perfbench.run (needs the untraced run's wall time).
    "trace.overhead_ratio": "ratio",
}


class _Stat:
    __slots__ = ("calls", "self_s", "total_s")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0


class Tracer:
    """Span recorder with per-name call counts and self time."""

    def __init__(self) -> None:
        self.stats: dict[str, _Stat] = {}
        #: Kept spans: (name, start, end, parent index or -1).
        self.spans: list = []
        #: Open frames: [child seconds, index of the enclosing kept span].
        self.stack: list[list] = []
        self.root_s = 0.0
        self.bytes: dict[str, int] = {}
        self.notes: list[str] = []

    def stat(self, name: str) -> _Stat:
        if name not in self.stats:
            self.stats[name] = _Stat()
        return self.stats[name]

    def wrap(self, fn, name: str, keep: bool, on_result=None):
        stat = self.stat(name)
        stack = self.stack
        spans = self.spans
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            index = -1
            if keep:
                index = len(spans)
                spans.append(None)
            frame = [0.0, index if keep else parent]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                elapsed = end - start
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                else:
                    tracer.root_s += elapsed
                if keep:
                    spans[index] = (name, start, end, parent)
            if on_result is not None:
                on_result(result, args)
            return result

        return traced

    def patch(self, target: str, attribute: str, name: str, keep: bool, on_result=None):
        module_name, _, owner_name = target.partition(":")
        module = importlib.import_module(module_name)
        owner = getattr(module, owner_name) if owner_name else module
        original = owner.__dict__.get(attribute) if owner_name else getattr(
            module, attribute, None
        )
        if original is None:
            self.notes.append(f"trace target {target}.{attribute} not found")
            return
        wrapped = self.wrap(original, name, keep, on_result)
        if owner_name:
            setattr(owner, attribute, wrapped)
            return
        # A module-level function is also bound by name in every module
        # that imported it; patch each binding.
        for loaded in list(sys.modules.values()):
            if getattr(loaded, attribute, None) is original:
                setattr(loaded, attribute, wrapped)

    def patch_profiler(self) -> None:
        """Time the stage profiler's own bookkeeping (enter and exit)."""
        from repro.observability.ops import profiler as module

        original = module.StageProfiler.stage
        enter_exit = self.wrap(lambda step: step(), "observability.profiler", False)

        class _TimedStage:
            __slots__ = ("cm",)

            def __init__(self, cm):
                self.cm = cm

            def __enter__(self):
                return enter_exit(self.cm.__enter__)

            def __exit__(self, *exc):
                return enter_exit(lambda: self.cm.__exit__(*exc))

        @functools.wraps(original)
        def stage(profiler, name):
            return _TimedStage(enter_exit(lambda: original(profiler, name)))

        module.StageProfiler.stage = stage

    def storage_io(self):
        """A StorageIO that times write/fsync per site and counts bytes."""
        from repro.storage.io import StorageIO

        tracer = self
        call = lambda fn, *args, **kwargs: fn(*args, **kwargs)  # noqa: E731
        write = self.wrap(call, "storage.write", False)
        fsync = {
            kind: self.wrap(call, f"storage.{kind}_fsync", True)
            for kind in ("wal", "checkpoint")
        }

        def kind(site: str) -> str:
            return "wal" if site.startswith("wal") else "checkpoint"

        class TimingIO(StorageIO):
            name = "timing"

            def write(self, handle, data, *, site):
                tracer.bytes[site] = tracer.bytes.get(site, 0) + len(data)
                return write(StorageIO.write, self, handle, data, site=site)

            def fsync(self, handle, *, site):
                return fsync[kind(site)](StorageIO.fsync, self, handle, site=site)

            def fsync_dir(self, path, *, site):
                return fsync[kind(site)](StorageIO.fsync_dir, self, path, site=site)

        return TimingIO()


def _install(tracer: Tracer, state: dict) -> None:
    def count_vectors(result, _args):
        state["vectors"] += 1

    def note_matrix(result, _args):
        state["week_matrix_bytes"] += int(getattr(result, "nbytes", 0))

    def note_suspects(result, _args):
        state["suspects"] += len(getattr(result, "suspects", ()))

    def note_pending(result, args):
        state["pending_peak"] = max(
            state["pending_peak"], args[0].buffer.pending_readings
        )

    hooks = {
        "attacks.inject": count_vectors,
        "metering.week_matrix": note_matrix,
        "integrity.screen": note_suspects,
        "eventtime.deliver": note_pending,
    }
    for target, attribute, name, keep in WRAPS:
        tracer.patch(target, attribute, name, keep, hooks.get(name))
    tracer.patch_profiler()
    from repro.storage import install_io

    install_io(tracer.storage_io())


def _week_close_growth(weeks: list[float]) -> float:
    early = weeks[8:18]
    late = weeks[64:74]
    if len(early) < 10 or len(late) < 10:
        return 0.0
    return (sum(late) / len(late)) / (sum(early) / len(early))


def per_layer(tracer: Tracer, state: dict, result, workload: str) -> dict:
    stats = tracer.stats

    def calls(name):
        return stats[name].calls if name in stats else 0

    def self_s(name):
        return stats[name].self_s if name in stats else 0.0

    def mb(prefix):
        return sum(v for k, v in tracer.bytes.items() if k.startswith(prefix)) / 1e6

    weeks = [s * 1e3 for s in result.week_close_s]
    outputs = result.outputs
    registry = outputs.get("registry", []) if workload != EVALUATION else []
    submitted = result.extra.get("submitted", 0)
    promoted = sum(1 for e in registry if e[0] == "promoted")
    fsync_names = ("storage.wal_fsync", "storage.checkpoint_fsync")
    values = {
        "metering.week_matrix_calls": calls("metering.week_matrix"),
        "metering.week_matrix_s": self_s("metering.week_matrix"),
        "metering.week_matrix_mb": state["week_matrix_bytes"] / 1e6,
        "metering.append_s": self_s("metering.append"),
        "metering.record_calls": calls("metering.record"),
        "quarantine.screen_s": self_s("quarantine.screen"),
        "quarantine.rejected": result.extra.get("rejected", 0),
        "resilience.breaker_record_s": self_s("resilience.breaker_record"),
        "resilience.checkpoint_s": self_s("resilience.checkpoint"),
        "resilience.checkpoint_mb_total": mb("checkpoint"),
        "durability.ingest_s": self_s("durability.ingest"),
        "durability.wal_append_s": self_s("durability.wal_append"),
        "durability.wal_mb": mb("wal"),
        "durability.wal_sync_s": self_s("durability.wal_sync"),
        "durability.compact_s": self_s("durability.compact"),
        "storage.fsync_calls": sum(calls(n) for n in fsync_names),
        "storage.fsync_s": sum(self_s(n) for n in fsync_names),
        "storage.wal_fsync_s": self_s("storage.wal_fsync"),
        "storage.checkpoint_fsync_s": self_s("storage.checkpoint_fsync"),
        "storage.write_s": self_s("storage.write"),
        "core.ingest_cycle_s": self_s("core.ingest_cycle"),
        "core.week_close_s": self_s("core.week_close"),
        "core.train_calls": calls("core.train"),
        "core.train_s": self_s("core.train"),
        "core.assess_s": self_s("core.assess"),
        "core.kld_fit_calls": calls("core.kld_fit"),
        "core.kld_fit_s": self_s("core.kld_fit"),
        "core.conditional_fit_s": self_s("core.conditional_fit"),
        "core.week_close_growth": _week_close_growth(weeks),
        "stats.kl_divergence_calls": calls("stats.kl_divergence"),
        "stats.kl_divergence_s": self_s("stats.kl_divergence"),
        "stats.histogram_calls": calls("stats.histogram"),
        "integrity.screen_calls": calls("integrity.screen"),
        "integrity.screen_s": self_s("integrity.screen"),
        "integrity.suspects": state["suspects"],
        "integrity.winsorize_s": self_s("integrity.winsorize"),
        "integrity.canary_s": self_s("integrity.canary"),
        "integrity.promote_ratio": promoted / submitted if submitted else 0.0,
        "eventtime.deliver_s": self_s("eventtime.deliver"),
        "eventtime.offer_calls": calls("eventtime.offer"),
        "eventtime.reconcile_calls": calls("eventtime.reconcile"),
        "eventtime.reconcile_s": self_s("eventtime.reconcile"),
        "eventtime.revisions": len(outputs.get("revisions", [])),
        "eventtime.pending_peak": state["pending_peak"],
        "eventtime.too_late": result.extra.get("too_late", 0),
        "observability.counter_inc_calls": calls("observability.counter_inc"),
        "observability.counter_inc_s": self_s("observability.counter_inc"),
        "observability.histogram_observe_calls": calls(
            "observability.histogram_observe"
        ),
        "observability.events_emitted": calls("observability.events"),
        "observability.profiler_s": self_s("observability.profiler"),
        "detectors.arima_fit_calls": calls("detectors.arima_fit"),
        "detectors.arima_fit_s": self_s("detectors.arima_fit"),
        "detectors.integrated_fit_s": self_s("detectors.integrated_fit"),
        "detectors.flags_calls": calls("detectors.flags"),
        "detectors.flags_s": self_s("detectors.flags"),
        "attacks.inject_s": self_s("attacks.inject"),
        "attacks.vectors": state["vectors"],
        "pricing.price_calls": calls("pricing.price"),
        "pricing.price_s": self_s("pricing.price"),
        "evaluation.run_s": self_s("evaluation.run"),
        "evaluation.consumer_s": self_s("evaluation.consumer"),
        "week_close.w10_ms": weeks[10] if len(weeks) > 10 else 0.0,
        "week_close.w40_ms": weeks[40] if len(weeks) > 40 else 0.0,
        "week_close.w70_ms": weeks[70] if len(weeks) > 70 else 0.0,
        "trace.wall_s": result.wall_s,
        "unattributed_s": max(result.wall_s - tracer.root_s, 0.0),
        "trace.spans": len(tracer.spans),
    }
    return {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in PER_LAYER_UNITS.items()
        if name in values
    }


def traced_run(inputs, work: Path, trace_dir: Path) -> dict:
    """One traced pass; returns per-layer metrics and writes the spans."""
    workload, seed = inputs.workload, inputs.seed
    tracer = Tracer()
    state = {"vectors": 0, "week_matrix_bytes": 0, "suspects": 0, "pending_peak": 0}
    _install(tracer, state)
    result = RUNNERS[workload](inputs, work / "trace", recoveries=0, sample=False)
    correct, failed, notes = check(workload, inputs, result)
    # A boundary that could not be wrapped would report zeros as if its
    # layer did no work, so the traced run does not count as correct.
    correct = correct and not tracer.notes
    metrics = per_layer(tracer, state, result, workload)
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_file = trace_dir / f"{workload}-seed{seed}.json"
    trace_file.write_text(
        json.dumps(
            {
                "workload": workload,
                "seed": seed,
                "week_close_ms": [s * 1e3 for s in result.week_close_s],
                "spans": tracer.spans,
                "totals": {
                    name: [s.calls, s.self_s, s.total_s]
                    for name, s in sorted(tracer.stats.items())
                },
                "storage_bytes": tracer.bytes,
                "notes": tracer.notes,
            }
        )
    )
    return {
        "correct": correct,
        "attempted": result.attempted,
        "failed": failed,
        "metrics": metrics,
        "wall_s": result.wall_s,
        "week_close_ms": [round(s * 1e3, 3) for s in result.week_close_s],
        "trace_file": str(trace_file),
        "notes": notes + tracer.notes,
    }
