"""Command-line interface: ``python -m repro`` or the ``fdeta`` script.

Subcommands:

* ``generate`` — write a synthetic CER-like dataset to a CER-format file;
* ``table1`` — print the attack-classification matrix (Table I);
* ``evaluate`` — run the Section VIII evaluation and print Tables II/III;
* ``ablation`` — run the histogram-bin-count sweep;
* ``monitor`` — replay a dataset through the online monitoring service
  over a lossy channel, with optional checkpoint/resume, WAL-backed
  durable ingestion (``--wal-dir``), crash recovery (``--recover``),
  and a reading-integrity quarantine report (``--quarantine-report``).
  Overload controls: a bounded ingestion queue (``--max-queue``),
  priority load shedding (``--shed-policy``), per-cycle deadlines
  (``--cycle-deadline-ms``), and a self-healing sharded worker
  fleet (``--shards``).  Exit status 4 marks a run that completed only
  by shedding load or overrunning its deadline (valid reports,
  degraded coverage — revisit capacity).  Event-time mode
  (``--eventtime``) delivers readings out of order through a
  watermarked reorder buffer (``--lateness-bound``, ``--scramble-delay``)
  and reconciles late arrivals into versioned verdict revisions
  (``--grace-weeks``, ``--revisions-out``); the final weekly verdicts
  are identical to an in-order run's.

  Every ``monitor`` mode — one service, event time, the shard fleet
  (``--elastic``/``--shards``) — runs the same loop: one delivery
  stream over one lossy, faulty channel, one sink per mode that turns a
  stream item into completed weeks, and one week-line printer, summary
  and exit-status tail.  Flag combinations a mode cannot honour are
  refused up front with exit 2: ``--lineage-out`` and
  ``--model-rollback`` need the single-service monitor, and a fleet
  refuses ``--quarantine-report`` (its shards' stores are not merged).

The ``evaluate`` and ``monitor`` subcommands accept observability
flags: ``--metrics-out`` (Prometheus text, or a JSON snapshot when the
path ends in ``.json``), ``--trace-out`` (span-tree JSON), and
``--log-json`` (structured JSONL event log).  ``monitor`` additionally
exports ops-plane state — ``--health-out`` (per-shard liveness/
readiness), ``--slo-out`` (error-budget burn rates), and
``--profile-out`` (hot-path stage profile) — and ``status`` renders
those exports plus the fleet manifest as an operator dashboard.

Storage-fault robustness: ``monitor --storage-faults`` arms a
deterministic fault schedule (ENOSPC, EIO, torn writes, lying fsync,
at-rest bit-rot) against every durable write site, with the injection
evidence written via ``--fault-ledger-out``; ``--scrub`` verifies and
repairs checkpoint generations before starting (pair with
``--checkpoint-generations 2`` so the WAL still covers the generation
gap).  A disk-full WAL write flips the monitor into degraded read-only
mode: ingestion stops, committed verdicts stay servable, and the run
exits 4.

Network-fault robustness: ``monitor --shards N --network-faults`` arms
a deterministic transport fault schedule (drop, delay, dup, reorder,
garble, partition, heal) against the coordinator-to-shard message
seam, with the injection evidence written via
``--transport-ledger-out``.  A partitioned shard degrades (its cycles
buffer for replay) instead of failing the run; before the final
summary every link is healed and the backlog drained, so the merged
verdicts match an undisturbed run bit for bit.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time
from typing import Sequence

import numpy as np

from repro.observability.events import EventLogger
from repro.observability.metrics import MetricsRegistry
from repro.observability.ops import (
    SLOTracker,
    StageProfiler,
    default_fleet_objectives,
)
from repro.observability.tracing import Tracer, stitch_traces

from repro.attacks.injection.ramp import BoilingFrogRampAttack
from repro.attacks.taxonomy import render_table_i
from repro.core.kld import KLDDetector
from repro.core.online import TheftMonitoringService
from repro.data.loader import load_cer_file, save_cer_file
from repro.data.synthetic import SyntheticCERConfig, generate_cer_like_dataset
from repro.durability import (
    DurableTheftMonitor,
    WriteAheadLog,
    recover_monitor,
)
from repro.errors import (
    ConfigurationError,
    DataError,
    DurabilityError,
    InjectionError,
    ScrubError,
    StorageDegradedError,
    StorageError,
)
from repro.evaluation.ablation import bin_count_sweep
from repro.evaluation.config import EvaluationConfig
from repro.evaluation.experiment import run_evaluation
from repro.evaluation.tables import (
    improvement_statistics,
    render_table2,
    render_table3,
    table2,
    table3,
)
from repro.eventtime import EventTimeConfig, EventTimeIngestor, replay_eventtime
from repro.integrity import IntegrityConfig
from repro.loadcontrol import BufferedIngestor, LoadControlConfig, ShedPolicy
from repro.metering.channel import LossyChannel
from repro.metering.scramble import ScramblingChannel
from repro.quarantine import FirewallPolicy, ReadingFirewall
from repro.resilience import FaultInjector, FaultyChannel, ResilienceConfig
from repro.storage import (
    FaultSchedule,
    FaultyIO,
    StorageIO,
    atomic_write_json,
    install_io,
)
from repro.timeseries.seasonal import SLOTS_PER_WEEK


def _add_dataset_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--consumers", type=int, default=60, help="synthetic population size"
    )
    parser.add_argument("--weeks", type=int, default=74, help="weeks of data")
    parser.add_argument("--seed", type=int, default=2016, help="generator seed")
    parser.add_argument(
        "--input", type=str, default=None, help="CER-format file to load instead"
    )


def _dataset_from_args(args: argparse.Namespace):
    if args.input:
        return load_cer_file(args.input)
    return generate_cer_like_dataset(
        SyntheticCERConfig(
            n_consumers=args.consumers, n_weeks=args.weeks, seed=args.seed
        )
    )


def _add_observability_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics-out",
        type=str,
        default=None,
        help="write metrics here (Prometheus text; JSON snapshot if the "
        "path ends in .json)",
    )
    parser.add_argument(
        "--trace-out", type=str, default=None, help="write the span trace tree (JSON)"
    )
    parser.add_argument(
        "--log-json",
        type=str,
        default=None,
        help="append structured JSONL events here",
    )


def _add_ops_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--health-out",
        type=str,
        default=None,
        help="write the fleet health report (JSON) here (requires "
        "--elastic or --shards > 1)",
    )
    parser.add_argument(
        "--slo-out",
        type=str,
        default=None,
        help="write the SLO burn-rate report (JSON) here (requires "
        "--elastic or --shards > 1)",
    )
    parser.add_argument(
        "--profile-out",
        type=str,
        default=None,
        help="write the hot-path stage profile (JSON) here",
    )


def _event_logger_from_args(args: argparse.Namespace) -> EventLogger | None:
    if args.log_json is None:
        return None
    return EventLogger(path=args.log_json)


def _safe_export(label: str, path: str, write) -> None:
    """Run one export, degrading a storage failure to a logged warning.

    Exports are evidence, not state: by the time they are written the
    verdicts are already committed and printed, so a full or failing
    disk must never turn a completed run into a crash.
    """
    try:
        write()
    except (StorageError, OSError) as exc:
        print(
            f"warning: could not write {label} to {path!r}: {exc}",
            file=sys.stderr,
        )
        return
    print(f"wrote {label} to {path}", file=sys.stderr)


def _write_observability_outputs(
    args: argparse.Namespace,
    metrics: MetricsRegistry,
    tracer: Tracer | None = None,
) -> None:
    if args.metrics_out:
        writer = (
            metrics.write_json
            if args.metrics_out.endswith(".json")
            else metrics.write_prometheus
        )
        _safe_export(
            "metrics", args.metrics_out, lambda: writer(args.metrics_out)
        )
    if args.trace_out and tracer is not None:
        _safe_export(
            "trace", args.trace_out, lambda: tracer.write(args.trace_out)
        )


def _cmd_generate(args: argparse.Namespace) -> int:
    dataset = _dataset_from_args(args)
    save_cer_file(dataset, args.output)
    print(
        f"wrote {dataset.n_consumers} consumers x {dataset.n_weeks} weeks "
        f"to {args.output}"
    )
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    print(render_table_i())
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    dataset = _dataset_from_args(args)
    config = EvaluationConfig(n_vectors=args.vectors, seed=args.eval_seed)
    # perf_counter, not time.time(): wall clock is not monotonic (NTP
    # steps would produce negative "elapsed" readouts).
    started = time.perf_counter()
    done = {"count": 0}
    metrics = MetricsRegistry()
    tracer = Tracer()
    events = _event_logger_from_args(args)

    def progress(cid: str) -> None:
        done["count"] += 1
        if args.verbose:
            elapsed = time.perf_counter() - started
            print(
                f"  [{done['count']}/{dataset.n_consumers}] {cid} "
                f"({elapsed:.1f}s elapsed)",
                file=sys.stderr,
            )

    if events is not None:
        events.info(
            "evaluation_started",
            consumers=dataset.n_consumers,
            vectors=args.vectors,
            parallel=args.parallel,
        )
    if args.parallel and args.parallel > 1:
        from repro.evaluation.parallel import run_evaluation_parallel

        with tracer.span("evaluate", mode="parallel", workers=args.parallel):
            results = run_evaluation_parallel(
                dataset, config, max_workers=args.parallel, metrics=metrics
            )
    else:
        with tracer.span("evaluate", mode="serial"):
            results = run_evaluation(
                dataset, config, progress=progress, metrics=metrics
            )
    if events is not None:
        events.info(
            "evaluation_finished",
            consumers=results.n_consumers,
            elapsed_s=time.perf_counter() - started,
        )
        events.close()
    _write_observability_outputs(args, metrics, tracer)
    rows2 = table2(results)
    rows3 = table3(results)
    print("Table II - Metric 1: % of consumers with successful detection")
    print(render_table2(rows2))
    print()
    print("Table III - Metric 2: worst-case weekly gains despite detection")
    print(render_table3(rows3))
    stats = improvement_statistics(rows3)
    print()
    print(
        f"Integrated ARIMA detector reduces 1B theft vs ARIMA detector by "
        f"{stats.integrated_over_arima:.1f}%"
    )
    print(
        f"KLD detector reduces 1B theft vs Integrated ARIMA detector by "
        f"{stats.kld_over_integrated:.1f}% (best: {stats.best_kld_detector})"
    )
    return 0


def _cmd_topology(args: argparse.Namespace) -> int:
    from repro.grid.builder import build_random_topology
    from repro.grid.render import render_tree
    from repro.grid.serialization import load_topology, save_topology

    if args.load:
        topology = load_topology(args.load)
    else:
        topology = build_random_topology(
            n_consumers=args.consumers,
            branching=args.branching,
            seed=args.seed,
        )
    if args.save:
        save_topology(topology, args.save)
        print(f"wrote topology to {args.save}")
    print(render_tree(topology, unicode_markers=not args.ascii))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.data.statistics import (
        render_population_summary,
        summarise_population,
    )

    dataset = _dataset_from_args(args)
    print(render_population_summary(summarise_population(dataset)))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.evaluation.report import render_markdown_report

    dataset = _dataset_from_args(args)
    config = EvaluationConfig(n_vectors=args.vectors, seed=args.eval_seed)
    results = run_evaluation(dataset, config)
    text = render_markdown_report(results)
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote report to {args.output}")
    else:
        print(text)
    return 0


class _MonitorAbort(Exception):
    """Ends ``monitor`` early: the message goes to stderr and ``status``
    becomes the exit code (2 for usage, 1 for unrecoverable state)."""

    def __init__(self, message: str, status: int = 2) -> None:
        super().__init__(message)
        self.status = status


def _check_monitor_flags(args: argparse.Namespace) -> None:
    """Refuse flag combinations ``monitor`` cannot honour (exit 2)."""

    def need(ok: bool, message: str) -> None:
        if not ok:
            raise ConfigurationError(message)

    need(
        not args.fault_ledger_out or args.storage_faults,
        "--fault-ledger-out requires --storage-faults",
    )
    need(not args.recover or args.wal_dir, "--recover requires --wal-dir")
    need(args.shards >= 1, "--shards must be >= 1")
    # --shards > 1 and --elastic (a fleet of --shards, even of one) both
    # run the sharded fleet; every fleet-only flag checks this one test.
    fleet = args.elastic or args.shards > 1
    for flag, given in (
        ("--grow-at-week", args.grow_at_week is not None),
        ("--network-faults", args.network_faults),
        ("--health-out", args.health_out),
        ("--slo-out", args.slo_out),
    ):
        need(fleet or not given, f"{flag} requires --elastic or --shards > 1")
    need(
        not fleet or args.wal_dir,
        "--elastic/--shards > 1 requires --wal-dir (the fleet manifest "
        "and per-shard WALs/checkpoints live under it)",
    )
    need(
        not (fleet and args.checkpoint),
        "--elastic/--shards > 1 manages per-shard checkpoints under "
        "--wal-dir; drop --checkpoint",
    )
    need(
        not (fleet and args.quarantine_report),
        "--quarantine-report needs the single-service or event-time "
        "monitor: the shards' quarantine stores are not merged (drop "
        "--elastic/--shards)",
    )
    need(
        not args.scrub or (args.wal_dir and args.checkpoint),
        "--scrub requires --wal-dir and --checkpoint (it verifies the "
        "checkpoint generations and rebuilds a corrupt one from the WAL)",
    )
    need(
        args.checkpoint_generations >= 1,
        "--checkpoint-generations must be >= 1",
    )
    need(
        not args.transport_ledger_out or args.network_faults,
        "--transport-ledger-out requires --network-faults",
    )
    need(args.lease_ttl_cycles >= 1, "--lease-ttl-cycles must be >= 1")
    need(
        not args.revisions_out or args.eventtime,
        "--revisions-out requires --eventtime",
    )
    for flag, given in (
        ("--canary-floor", args.canary_floor is not None),
        ("--lineage-out", args.lineage_out),
        ("--model-rollback", args.model_rollback is not None),
    ):
        need(args.integrity or not given, f"{flag} requires --integrity")
    need(
        args.model_rollback is None or args.resume or args.recover,
        "--model-rollback requires --resume or --recover (the registry "
        "holding the target version lives in the checkpoint)",
    )
    for flag, given in (
        ("--lineage-out", args.lineage_out),
        ("--model-rollback", args.model_rollback is not None),
    ):
        need(
            not (given and (args.eventtime or fleet)),
            f"{flag} needs the single-service monitor "
            "(drop --eventtime/--elastic/--shards)",
        )
    need(
        args.training_window is None or args.training_window >= 2,
        "--training-window must be >= 2",
    )
    need(
        args.ramp_attack is None or args.ramp_start_week >= 0,
        "--ramp-start-week must be >= 0",
    )
    if args.eventtime:
        need(
            not fleet,
            "--eventtime does not support --shards > 1 or --elastic",
        )
        need(
            not (args.checkpoint or args.resume),
            "--eventtime persists via --wal-dir delivery records; "
            "drop --checkpoint/--resume",
        )
        need(
            not _load_control_requested(args),
            "--eventtime has its own reorder-buffer backpressure; "
            "drop --max-queue/--shed-policy/--cycle-deadline-ms",
        )


def _load_control_requested(args: argparse.Namespace) -> bool:
    return (
        args.max_queue is not None
        or args.shed_policy != "off"
        or args.cycle_deadline_ms is not None
    )


def _write_fault_ledger(schedule, kind: str, ledger: str, path) -> None:
    """Report what a fault schedule injected and write its ledger.

    Plain stdlib IO, never the storage seam or the transport: a
    schedule must not be able to fault its own evidence.
    """
    print(
        f"{kind} faults injected: {schedule.injected}/{len(schedule.events)}",
        file=sys.stderr,
    )
    if not path:
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(schedule.to_dict(), handle, indent=2, sort_keys=True)
    except OSError as exc:
        print(
            f"warning: could not write {ledger} ledger to {path!r}: {exc}",
            file=sys.stderr,
        )
    else:
        print(f"wrote {ledger} ledger to {path}", file=sys.stderr)


def _cmd_monitor(args: argparse.Namespace) -> int:
    """Validate the flags, arm the fault schedules and drive the run.

    Storage faults are installed process-wide before any durable write
    and uninstalled afterwards; network faults ride the fleet's
    transport.  Each schedule's ledger is written once the run ends.
    """
    try:
        _check_monitor_flags(args)
        storage = network = None
        if args.storage_faults:
            storage = FaultSchedule.parse(",".join(args.storage_faults))
        if args.network_faults:
            from repro.transport import NetworkFaultSchedule

            network = NetworkFaultSchedule.parse(",".join(args.network_faults))
    except ConfigurationError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    for kind, schedule in (("storage", storage), ("network", network)):
        if schedule is not None:
            print(
                f"{kind}-fault injection armed: {len(schedule.events)} "
                "scheduled fault(s)",
                file=sys.stderr,
            )
    if storage is not None:
        install_io(FaultyIO(storage))
    if args.eventtime:
        mode = _EventTimeRun
    elif args.elastic or args.shards > 1:
        mode = _FleetRun
    else:
        mode = _SingleRun
    run = None
    try:
        try:
            run = mode(args, network)
            run.open()
        except ConfigurationError as exc:
            raise _MonitorAbort(str(exc)) from exc
        return run.run()
    except _MonitorAbort as exc:
        print(str(exc), file=sys.stderr)
        return exc.status
    finally:
        if run is not None:
            run.release()
        if storage is not None:
            install_io(StorageIO())
            _write_fault_ledger(
                storage, "storage", "fault", args.fault_ledger_out
            )
        if network is not None:
            _write_fault_ledger(
                network, "network", "transport", args.transport_ledger_out
            )


def _print_week(reports, suffix: str = "", shed: bool = False) -> None:
    """One week line (and its alerts) for same-week reports: a single
    service's report, or every shard's report of that week."""
    coverage = [value for r in reports for value in r.coverage.values()]
    mean_coverage = sum(coverage) / len(coverage) if coverage else float("nan")
    line = (
        f"week {reports[0].week_index:>3}: "
        f"{sum(len(r.alerts) for r in reports)} alert(s), "
        f"coverage {mean_coverage:.1%}, "
        f"{sum(len(r.quarantined) for r in reports)} quarantined, "
        f"{sum(len(r.suppressed) for r in reports)} suppressed"
    )
    if shed:
        line += f", {sum(len(r.shed) for r in reports)} shed"
    print(line + suffix)
    for report in reports:
        for alert in report.alerts:
            print(
                f"    {alert.consumer_id}: {alert.nature.value} "
                f"(severity {alert.severity:.2f}, "
                f"coverage {alert.coverage:.1%})"
            )


def _print_summary(
    consumers: int,
    weeks: int,
    note: str,
    reports,
    attackers,
    victims,
    quarantined,
    after_alerts: Sequence[str] = (),
) -> None:
    """The summary lines every monitor mode prints."""
    print(f"monitored {consumers} consumers for {weeks} weeks{note}")
    print(f"total alerts: {sum(len(report.alerts) for report in reports)}")
    for line in after_alerts:
        print(line)
    print(f"suspected attackers: {list(attackers) or 'none'}")
    print(f"suspected victims:   {list(victims) or 'none'}")
    if quarantined is not None:
        print(f"quarantined readings: {quarantined}")


class _MonitorRun:
    """One ``monitor`` mode, driven by the shared run loop in ``run``.

    The base class builds what every mode builds alike: the load-control
    and integrity configs, the (optionally ramp-poisoned) dataset, the
    service factory and the observability sinks.  A mode opens its
    service(s) in ``open`` and supplies ``sink``: one stream item in,
    the weeks it completed out (each a list of same-week reports) plus
    any verdict revisions.  ``run`` owns what the modes share — the
    delivery stream, the ``--crash-after-cycle`` kill, storage failures,
    the week lines, and the export and exit-status tail — and calls the
    other methods as the modes' hooks.
    """

    crash_unit = "cycle(s) (cycle {t})"
    #: First polling cycle to stream, and stream items to skip (both set
    #: by ``open`` when a run resumes).
    start = 0
    skip = 0
    scramble = None
    ingestor = None
    service = None

    def __init__(self, args: argparse.Namespace, network=None) -> None:
        self.args = args
        self.network = network
        self.loadcontrol = None
        if _load_control_requested(args):
            self.loadcontrol = LoadControlConfig(
                max_queue=args.max_queue if args.max_queue is not None else 1024,
                shed_policy=ShedPolicy(args.shed_policy),
                cycle_deadline_s=(
                    args.cycle_deadline_ms / 1000.0
                    if args.cycle_deadline_ms is not None
                    else None
                ),
            )
        self.integrity = None
        if args.integrity:
            overrides = {}
            if args.canary_floor is not None:
                overrides["canary_floor"] = args.canary_floor
            self.integrity = IntegrityConfig(**overrides)
        dataset = _dataset_from_args(args)
        self.ids = dataset.consumers()
        self.series = {cid: dataset.series(cid) for cid in self.ids}
        self.weeks = dataset.n_weeks
        if args.ramp_attack is not None:
            self._arm_ramp()
        self.events = _event_logger_from_args(args)
        self.tracer = Tracer()
        self.profiler = None
        if args.profile_out:
            self.profiler = StageProfiler()

    def _arm_ramp(self) -> None:
        args = self.args
        if args.ramp_attack not in self.series:
            raise ConfigurationError(
                f"--ramp-attack: unknown consumer {args.ramp_attack!r}"
            )
        try:
            ramp = BoilingFrogRampAttack(
                weekly_decay=args.ramp_decay, floor=args.ramp_floor
            )
        except InjectionError as exc:
            raise ConfigurationError(str(exc)) from exc
        self.series[args.ramp_attack] = ramp.poison_series(
            self.series[args.ramp_attack],
            start_slot=args.ramp_start_week * SLOTS_PER_WEEK,
        )
        print(
            f"ramp attack armed on {args.ramp_attack}: "
            f"x{args.ramp_decay:g}/week from week {args.ramp_start_week} "
            f"to floor {args.ramp_floor:g}",
            file=sys.stderr,
        )

    def factory(self):
        return KLDDetector(significance=self.args.significance)

    def new_service(self, population, eventtime=None):
        args = self.args
        return TheftMonitoringService(
            detector_factory=self.factory,
            min_training_weeks=args.min_training_weeks,
            retrain_every_weeks=args.retrain_every_weeks,
            resilience=ResilienceConfig(min_coverage=args.min_coverage),
            population=population,
            events=self.events,
            tracer=self.tracer,
            firewall=ReadingFirewall(
                FirewallPolicy(max_reading_kwh=args.max_reading)
            ),
            loadcontrol=self.loadcontrol,
            eventtime=eventtime,
            integrity=self.integrity,
            training_window_weeks=args.training_window,
        )

    def buffered(self, ingest, metrics):
        """``ingest``, behind the bounded queue when load control is on.

        The queue's backpressure signal attaches itself to what it
        feeds (a service, or the fleet that hands it to every shard), so
        sustained pressure can trigger pre-shedding.
        """
        if self.loadcontrol is None:
            return ingest
        self.ingestor = ingestor = BufferedIngestor(
            ingest,
            config=self.loadcontrol,
            metrics=metrics,
            events=self.events,
        )

        def submit(delivered):
            if not ingestor.submit(delivered):
                # Queue full: this replay driver is also the consumer,
                # so "hold and re-offer" means drain one cycle first.
                ingestor.drain(max_cycles=1)
                ingestor.submit(delivered)
            drained = ingestor.drain()
            return drained[-1] if drained else None

        return submit

    # -- the run loop ----------------------------------------------------

    def run(self) -> int:
        args = self.args
        storage_degraded = self._loop()
        self.close()
        self.summarise()
        if args.quarantine_report and self.service.firewall is not None:
            store = self.service.firewall.store
            _safe_export(
                "quarantine report",
                args.quarantine_report,
                lambda: store.write_report(args.quarantine_report),
            )
        self.export()
        if self.profiler is not None:
            _safe_export(
                "stage profile",
                args.profile_out,
                lambda: self.profiler.write(args.profile_out),
            )
        self.write_observability()
        # Exit 4, not 1: the run completed and its weekly reports are
        # valid, but it shed load, overran its cycle deadline or went
        # read-only — coverage or ingestion was deliberately sacrificed
        # and capacity should be revisited.
        shed_total = sum(
            len(report.shed)
            for service in self.services()
            for report in service.reports
        )
        overruns = (
            self.ingestor.deadlines_overrun if self.ingestor is not None else 0
        )
        storage_degraded = storage_degraded or self.read_only()
        if not (shed_total or overruns or storage_degraded):
            return 0
        detail = (
            f"{shed_total} consumer-week(s) shed, "
            f"{overruns} deadline overrun(s)"
        )
        if storage_degraded:
            detail += ", storage went read-only (disk full)"
        print(f"completed in degraded mode: {detail}", file=sys.stderr)
        return 4

    def _stream(self):
        """The delivery stream: ``(t, item)`` per polling cycle.

        Every cycle crosses one lossy, faulty channel under its own
        rng, keyed by ``(seed + 1, t)``: a run resumed at cycle ``t``
        draws the noise an uninterrupted run drew there, so recovery
        equivalence is testable bit for bit.  The item is the delivered
        reading dict; with ``scramble`` (event time) it is the batch of
        readings falling due at ``t``, and a last item drains what is
        still in flight.
        """
        args, scramble = self.args, self.scramble
        channel = FaultyChannel(
            channel=LossyChannel(
                drop_rate=args.drop_rate, outage_rate=args.outage_rate
            ),
            faults=FaultInjector(corrupt_rate=args.corrupt_rate),
        )
        end = self.weeks * SLOTS_PER_WEEK
        for t in range(self.start, end):
            cycle_rng = np.random.default_rng((args.seed + 1, t))
            readings = {cid: float(self.series[cid][t]) for cid in self.ids}
            delivered = channel.transmit(readings, cycle_rng)
            if scramble is None:
                yield t, delivered
            else:
                scramble.push(t, delivered, cycle_rng)
                yield t, scramble.pop_due(t)
        if scramble is not None:
            yield end, scramble.drain()

    def _loop(self) -> bool:
        """Stream, sink, print; returns whether storage went read-only."""
        args = self.args
        ingested = 0
        for t, item in itertools.islice(self._stream(), self.skip, None):
            self.before_cycle(t)
            try:
                weeks, revisions = self.sink(item)
            except StorageDegradedError as exc:
                # Disk full: the monitor refused the cycle *before* any
                # byte landed, so nothing acknowledged is lost.
                # Committed verdicts stay servable; ingestion stops.
                print(f"storage degraded at cycle {t}: {exc}", file=sys.stderr)
                return True
            except StorageError as exc:
                raise _MonitorAbort(
                    f"unrecoverable storage failure at cycle {t}: {exc}",
                    status=1,
                ) from exc
            ingested += 1
            if (
                args.crash_after_cycle is not None
                and ingested >= args.crash_after_cycle
            ):
                # A hard kill, not an exception: skips Python cleanup so
                # the WAL is left exactly as a power cut would leave it.
                print(
                    f"simulated crash after {ingested} "
                    + self.crash_unit.format(t=t),
                    file=sys.stderr,
                )
                sys.stdout.flush()
                sys.stderr.flush()
                os._exit(3)
            for reports in weeks:
                _print_week(
                    reports,
                    self.week_suffix(reports),
                    shed=self.loadcontrol is not None,
                )
                self.after_week()
            for revision in revisions:
                print(
                    f"    revision week {revision.week_index} "
                    f"{revision.consumer_id} v{revision.version}: "
                    f"{revision.kind.value} "
                    f"(score {revision.score_before:.3f} -> "
                    f"{revision.score_after:.3f})"
                )
        return False

    # -- hooks -----------------------------------------------------------

    def open(self) -> None:
        raise NotImplementedError

    def sink(self, item):
        raise NotImplementedError

    def summarise(self) -> None:
        raise NotImplementedError

    def before_cycle(self, t: int) -> None:
        pass

    def week_suffix(self, reports) -> str:
        return ""

    def after_week(self) -> None:
        pass

    def close(self) -> None:
        """After the loop, before the summary."""

    def export(self) -> None:
        """The mode's own exports, between the quarantine report and
        the stage profile."""

    def services(self):
        return [self.service]

    def read_only(self) -> bool:
        return False

    def write_observability(self) -> None:
        _write_observability_outputs(
            self.args, self.service.metrics, self.service.tracer
        )

    def release(self) -> None:
        """Always runs last, even when the run fails."""
        if self.events is not None:
            self.events.close()


class _SingleRun(_MonitorRun):
    """One service, in memory or durable behind a WAL (``--wal-dir``)."""

    monitor = None
    resumed = False

    def open(self) -> None:
        args = self.args
        if args.scrub:
            self._scrub()
        if args.recover:
            try:
                result = recover_monitor(
                    args.wal_dir,
                    detector_factory=self.factory,
                    checkpoint_path=args.checkpoint,
                    service_factory=lambda: self.new_service(self.ids),
                    events=self.events,
                    tracer=self.tracer,
                )
            except DurabilityError as exc:
                raise _MonitorAbort(f"recovery failed: {exc}") from exc
            service = result.service
            self.resumed = (
                result.restored_from_checkpoint or result.replayed_cycles > 0
            )
            print(
                f"recovered from {args.wal_dir} at week "
                f"{service.weeks_completed}, cycle {service.cycles_ingested} "
                f"({result.replayed_cycles} WAL cycle(s) replayed"
                + (", torn tail truncated" if result.torn_tail else "")
                + ")",
                file=sys.stderr,
            )
        elif args.checkpoint and args.resume and os.path.exists(args.checkpoint):
            service = TheftMonitoringService.restore(
                args.checkpoint, self.factory, events=self.events, tracer=self.tracer
            )
            self.resumed = True
            print(
                f"resumed from {args.checkpoint} at week "
                f"{service.weeks_completed}",
                file=sys.stderr,
            )
            if self.events is not None:
                self.events.info(
                    "monitor_resumed",
                    checkpoint=args.checkpoint,
                    week=service.weeks_completed,
                )
        else:
            service = self.new_service(self.ids)
        if args.model_rollback is not None:
            try:
                restored = service.rollback_model(args.model_rollback)
            except (ConfigurationError, DataError) as exc:
                raise _MonitorAbort(f"model rollback failed: {exc}") from exc
            print(
                f"rolled the active model back to v{restored.version} "
                f"(promoted at week {restored.week})",
                file=sys.stderr,
            )
        if self.profiler is not None:
            service.profiler = self.profiler
        ingest = service.ingest_cycle
        if args.wal_dir:
            self.monitor = DurableTheftMonitor(
                service,
                WriteAheadLog(args.wal_dir, metrics=service.metrics),
                checkpoint_path=args.checkpoint,
                profiler=self.profiler,
                checkpoint_generations=args.checkpoint_generations,
            )
            ingest = self.monitor.ingest_cycle
        self.service = service
        self.ingest = self.buffered(ingest, service.metrics)
        self.start = service.cycles_ingested

    def _scrub(self) -> None:
        from repro.storage.scrub import CheckpointScrubber

        scrubber = CheckpointScrubber(
            self.args.checkpoint,
            self.args.wal_dir,
            detector_factory=self.factory,
            service_factory=lambda: self.new_service(self.ids),
            events=self.events,
        )
        try:
            report = scrubber.scrub()
        except ScrubError as exc:
            raise _MonitorAbort(str(exc), status=1) from exc
        for finding in report.findings:
            line = (
                f"scrub: {finding.generation} checkpoint {finding.path}: "
                f"{finding.status}"
            )
            if finding.action != "none":
                line += f" ({finding.action}"
                if finding.detail:
                    line += f": {finding.detail}"
                line += ")"
            print(line, file=sys.stderr)
        print(
            f"scrub: {report.checked} generation(s) checked, "
            f"{report.corrupt} corrupt, {report.repaired} repaired",
            file=sys.stderr,
        )

    def sink(self, delivered):
        report = self.ingest(delivered)
        return ([[report]] if report is not None else []), ()

    def after_week(self) -> None:
        if self.args.checkpoint and self.monitor is None:
            try:
                self.service.checkpoint(self.args.checkpoint)
            except (StorageError, OSError) as exc:
                # Resumability is lost but the run's verdicts are not;
                # warn and keep monitoring.
                print(f"warning: checkpoint write failed: {exc}", file=sys.stderr)

    def close(self) -> None:
        if self.monitor is not None:
            try:
                self.monitor.close()
            except StorageError as exc:
                print(f"warning: final WAL sync failed: {exc}", file=sys.stderr)

    def summarise(self) -> None:
        service = self.service
        _print_summary(
            len(self.ids),
            service.weeks_completed,
            " (resumed)" if self.resumed else "",
            service.reports,
            service.suspected_attackers(),
            service.suspected_victims(),
            len(service.firewall.store) if service.firewall is not None else None,
        )
        registry = service.model_registry
        if registry is not None:
            active = registry.active_version
            print(
                "model: "
                + (f"v{active} active" if active is not None else "no promoted version")
                + f", {len(registry.versions())} version(s) in the registry"
            )
            last = registry.last_event
            if last is not None:
                print(
                    f"last model event: {last.kind} v{last.version} "
                    f"(week {last.week})"
                )
        if self.args.checkpoint:
            print(f"checkpoint: {self.args.checkpoint}")

    def export(self) -> None:
        registry = self.service.model_registry
        if self.args.lineage_out and registry is not None:
            _safe_export(
                "model lineage",
                self.args.lineage_out,
                lambda: registry.write_report(self.args.lineage_out),
            )


class _EventTimeRun(_MonitorRun):
    """``--eventtime``: readings reach the service late and out of order.

    The stream runs through a :class:`~repro.metering.scramble.
    ScramblingChannel`; the event-time ingestor reorders the batches,
    reconciles late arrivals and revises verdicts.  Week lines printed
    during the stream are provisional; the ``final weekly verdicts``
    section matches an in-order run of the same dataset exactly.  The
    delivery schedule is a pure function of dataset and seed, so
    ``--recover`` regenerates it and skips the batches the WAL holds.
    """

    crash_unit = "delivery batch(es)"

    def open(self) -> None:
        args = self.args
        config = EventTimeConfig(
            lateness_slots=args.lateness_bound, grace_weeks=args.grace_weeks
        )
        # Capping backhaul delay at lateness + grace guarantees every
        # reading is reconciled before its week finalises (no too_late).
        self.scramble = ScramblingChannel(
            median_delay_slots=args.scramble_delay,
            max_delay_slots=config.lateness_slots + config.grace_slots,
            duplicate_rate=0.02 if args.scramble_delay > 0 else 0.0,
        )

        def factory():
            return self.new_service(self.ids, eventtime=config)

        if args.recover:
            delivery, replay = replay_eventtime(args.wal_dir, factory, resume=True)
            self.skip = delivery.deliveries
            if self.profiler is not None:
                # Attach after replay so replayed batches are not profiled.
                delivery.profiler = self.profiler
                delivery.service.profiler = self.profiler
            print(
                f"recovered from {args.wal_dir}: {self.skip} delivery "
                "batch(es) replayed"
                + (", torn tail truncated" if replay.torn_tail else ""),
                file=sys.stderr,
            )
        else:
            service = factory()
            wal = (
                WriteAheadLog(args.wal_dir, metrics=service.metrics)
                if args.wal_dir
                else None
            )
            delivery = EventTimeIngestor(service, wal=wal, profiler=self.profiler)
        self.delivery = delivery
        self.service = delivery.service

    def sink(self, batch):
        outcome = self.delivery.deliver(batch)
        return [[report] for report in outcome.reports], outcome.revisions

    def week_suffix(self, reports) -> str:
        return " (provisional)"

    def close(self) -> None:
        if not self.delivery.finished:
            for report in self.delivery.finish().reports:
                _print_week([report], " (provisional)")
        if self.delivery.wal is not None:
            self.delivery.wal.close()

    def summarise(self) -> None:
        service = self.service
        print("final weekly verdicts:")
        for report in service.reports:
            _print_week([report])
        by_kind = service.revisions.counts_by_kind()
        too_late = service.firewall.store.counts_by_reason().get("too_late", 0)
        _print_summary(
            len(self.ids),
            service.weeks_completed,
            " (event-time)",
            service.reports,
            service.suspected_attackers(),
            service.suspected_victims(),
            f"{len(service.firewall.store)} (too_late: {too_late})",
            after_alerts=[
                f"verdict revisions: {len(service.revisions)} "
                f"({by_kind.get('upgrade', 0)} upgrade(s), "
                f"{by_kind.get('downgrade', 0)} downgrade(s))"
            ],
        )

    def export(self) -> None:
        if self.args.revisions_out:
            _safe_export(
                "revision report",
                self.args.revisions_out,
                lambda: self.service.revisions.write_report(
                    self.args.revisions_out
                ),
            )


class _FleetRun(_MonitorRun):
    """``--shards N`` / ``--elastic``: the sharded fleet.

    Shards are placed on a hash ring and each keeps its own WAL and
    checkpoint under ``--wal-dir``.  The fleet recovers any shard with
    durable state at start (with or without the ``fleet.json``
    manifest), so ``--recover`` is implicit; ``--grow-at-week N``
    performs a live snapshot+WAL shard handoff at the start of week N.
    """

    fleet = None

    def open(self) -> None:
        from repro.scaleout import ElasticFleet
        from repro.transport import FaultyTransport

        args = self.args
        self.fleet_metrics = MetricsRegistry()
        self.fleet_tracer = Tracer(name="fleet") if args.trace_out else None
        self.slo = None
        if args.slo_out:
            self.slo = SLOTracker(default_fleet_objectives())
        self.fleet = ElasticFleet(
            self.ids,
            args.wal_dir,
            self.new_service,
            self.factory,
            n_shards=args.shards,
            metrics=self.fleet_metrics,
            events=self.events,
            tracer=self.fleet_tracer,
            slo=self.slo,
            transport=(
                FaultyTransport(self.network) if self.network is not None else None
            ),
            lease_ttl_cycles=args.lease_ttl_cycles,
        )
        self._attach_profiler()
        self.ingest = self.buffered(self.fleet.ingest_cycle, self.fleet_metrics)
        self.start = self.fleet.cycle
        if self.start:
            print(
                f"fleet resumed at cycle {self.start} "
                f"({len(self.fleet.shards)} shard(s) recovered from "
                f"{args.wal_dir})",
                file=sys.stderr,
            )
        self.grow_cycle = (
            args.grow_at_week * SLOTS_PER_WEEK
            if args.grow_at_week is not None
            else None
        )

    def _attach_profiler(self) -> None:
        # Shared across shards and attached to both layers: the durable
        # wrapper charges wal_append/wal_sync/checkpoint, the service
        # charges firewall/ingest/scoring — one profile, whole path.
        if self.profiler is None:
            return
        for worker in self.fleet.workers():
            if worker.monitor is None:
                continue
            inner = worker.monitor.inner
            if inner.profiler is None:
                inner.profiler = self.profiler
            if inner.service.profiler is None:
                inner.service.profiler = self.profiler

    def before_cycle(self, t: int) -> None:
        if t != self.grow_cycle:
            return
        fleet = self.fleet
        before = {w.name: set(w.consumers) for w in fleet.workers()}
        new_shard = fleet.add_shard()
        moved = sum(
            len(members - set(fleet._worker(name).consumers))
            for name, members in before.items()
        )
        print(
            f"live rebalance at cycle {t}: added {new_shard}, "
            f"moved {moved}/{len(self.ids)} consumers",
            file=sys.stderr,
        )
        self._attach_profiler()

    def sink(self, delivered):
        result = self.ingest(delivered) or {}
        reports = [r for r in result.values() if r is not None]
        if self.slo is not None and reports:
            # One SLO observation per completed week: enough points for
            # the burn-rate windows without paying a fleet-wide registry
            # merge on every polling cycle.
            self.fleet.observe_slo()
        return ([reports] if reports else []), ()

    def week_suffix(self, reports) -> str:
        return f" [{len(reports)}/{len(self.fleet.shards)} shards]"

    def close(self) -> None:
        if self.network is None:
            return
        # Heal every severed link and replay the partition buffers so
        # the final verdicts converge before they are merged.
        self.fleet.transport.heal_all()
        replayed = self.fleet.drain_backlog()
        if replayed:
            print(
                f"partition healed: replayed {replayed} buffered cycle(s)",
                file=sys.stderr,
            )

    def services(self):
        return list(self.fleet.services().values())

    def summarise(self) -> None:
        fleet = self.fleet
        services = self.services()
        merged = fleet.merged_reports()
        # A consumer migrated mid-run appears in both its source and
        # destination shard's histories; dedupe the fleet-wide verdicts.
        _print_summary(
            len(self.ids),
            len(merged),
            f" across {len(fleet.shards)} elastic shard(s)",
            merged,
            sorted({c for svc in services for c in svc.suspected_attackers()}),
            sorted({c for svc in services for c in svc.suspected_victims()}),
            sum(
                len(svc.firewall.store)
                for svc in services
                if svc.firewall is not None
            ),
        )
        print(f"fleet restarts: {fleet.restarts_total}")
        print(
            "shard epochs: "
            + ", ".join(f"{name}={fleet.epoch(name)}" for name in fleet.shards)
        )

    def read_only(self) -> bool:
        return any(
            getattr(w.monitor, "read_only", False)
            for w in self.fleet.workers()
            if w.monitor is not None
        )

    def export(self) -> None:
        args, fleet = self.args, self.fleet
        if args.health_out:
            _safe_export(
                "health report",
                args.health_out,
                lambda: fleet.health_report().write(args.health_out),
            )
        if self.slo is not None:
            fleet.observe_slo()
            _safe_export(
                "SLO report",
                args.slo_out,
                lambda: fleet.slo_report().write(args.slo_out),
            )

    def write_observability(self) -> None:
        args, fleet = self.args, self.fleet
        if self.fleet_tracer is not None:
            _safe_export(
                "trace",
                args.trace_out,
                lambda: atomic_write_json(
                    args.trace_out,
                    {"spans": stitch_traces(fleet.tracers())},
                    site="export.trace",
                    sort_keys=True,
                ),
            )
        merged_metrics = fleet.merged_metrics()
        merged_metrics.merge_snapshot(self.fleet_metrics.snapshot())
        _write_observability_outputs(args, merged_metrics, None)

    def release(self) -> None:
        if self.fleet is not None:
            self.fleet.close()
        super().release()


def _cmd_status(args: argparse.Namespace) -> int:
    """``status``: render the fleet ops dashboard from exported state.

    Everything is read from files — the fleet manifest (topology +
    epochs + pending handoff) plus the JSON reports the ``monitor``
    subcommand exports via ``--health-out``/``--slo-out``/
    ``--profile-out`` — so the dashboard works on a live fleet's
    directory or on artifacts uploaded from a finished run.
    """
    from repro.errors import HandoffError
    from repro.observability.ops import render_status
    from repro.scaleout.handoff import read_manifest

    def _load(path: str | None, label: str):
        if not path:
            return None
        try:
            with open(path, encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read {label} {path!r}: {exc}", file=sys.stderr)
            raise SystemExit(2) from exc

    manifest = None
    if args.fleet_dir:
        manifest_path = args.fleet_dir
        if os.path.isdir(manifest_path):
            manifest_path = os.path.join(manifest_path, "fleet.json")
        try:
            manifest = read_manifest(manifest_path)
        except HandoffError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        if manifest is None:
            print(f"no fleet manifest at {manifest_path!r}", file=sys.stderr)
            return 2
    health = _load(args.health, "health report")
    slo = _load(args.slo, "SLO report")
    profile = _load(args.profile, "stage profile")
    if manifest is None and health is None and slo is None and profile is None:
        print(
            "nothing to show: pass --fleet-dir and/or --health/--slo/"
            "--profile",
            file=sys.stderr,
        )
        return 2
    if args.json:
        print(
            json.dumps(
                {
                    "manifest": manifest,
                    "health": health,
                    "slo": slo,
                    "profile": profile,
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(
            render_status(
                manifest=manifest,
                health=health,
                slo=slo,
                profile=profile,
                top=args.top,
            )
        )
    return 0


def _cmd_ablation(args: argparse.Namespace) -> int:
    dataset = _dataset_from_args(args)
    consumers = dataset.consumers()[: args.sample]
    points = bin_count_sweep(dataset, consumers)
    print(f"{'bins':>6}{'detection':>12}{'false pos.':>12}")
    for point in points:
        print(
            f"{point.parameter:>6.0f}{point.detection_rate:>11.1%}"
            f"{point.false_positive_rate:>11.1%}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdeta",
        description="F-DETA electricity-theft detection (DSN 2016 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic CER-format dataset")
    gen.add_argument("output", type=str, help="output file path")
    gen.add_argument("--consumers", type=int, default=500)
    gen.add_argument("--weeks", type=int, default=74)
    gen.add_argument("--seed", type=int, default=2016)
    gen.set_defaults(func=_cmd_generate, input=None)

    t1 = sub.add_parser("table1", help="print the attack classification matrix")
    t1.set_defaults(func=_cmd_table1)

    ev = sub.add_parser("evaluate", help="run the Section VIII evaluation")
    _add_dataset_options(ev)
    ev.add_argument("--vectors", type=int, default=50, help="attack trajectories")
    ev.add_argument("--eval-seed", type=int, default=7)
    ev.add_argument(
        "--parallel", type=int, default=1, help="worker processes (1 = serial)"
    )
    ev.add_argument("--verbose", action="store_true")
    _add_observability_options(ev)
    ev.set_defaults(func=_cmd_evaluate)

    topo = sub.add_parser("topology", help="generate/inspect a grid topology")
    topo.add_argument("--consumers", type=int, default=16)
    topo.add_argument("--branching", type=int, default=4)
    topo.add_argument("--seed", type=int, default=0)
    topo.add_argument("--load", type=str, default=None, help="topology JSON")
    topo.add_argument("--save", type=str, default=None, help="write JSON here")
    topo.add_argument("--ascii", action="store_true", help="plain markers")
    topo.set_defaults(func=_cmd_topology)

    stats = sub.add_parser("stats", help="print dataset summary statistics")
    _add_dataset_options(stats)
    stats.set_defaults(func=_cmd_stats)

    rep = sub.add_parser("report", help="write a markdown evaluation report")
    _add_dataset_options(rep)
    rep.add_argument("--vectors", type=int, default=50)
    rep.add_argument("--eval-seed", type=int, default=7)
    rep.add_argument("--output", type=str, default=None)
    rep.set_defaults(func=_cmd_report)

    mon = sub.add_parser(
        "monitor",
        help="replay a dataset through the online service over a lossy link",
    )
    _add_dataset_options(mon)
    mon.add_argument("--drop-rate", type=float, default=0.02)
    mon.add_argument("--outage-rate", type=float, default=0.0005)
    mon.add_argument("--corrupt-rate", type=float, default=0.0)
    mon.add_argument("--significance", type=float, default=0.05)
    mon.add_argument("--min-training-weeks", type=int, default=8)
    mon.add_argument("--retrain-every-weeks", type=int, default=4)
    mon.add_argument(
        "--min-coverage",
        type=float,
        default=0.5,
        help="suppress alerts for weeks observed below this fraction",
    )
    mon.add_argument(
        "--checkpoint", type=str, default=None, help="checkpoint file path"
    )
    mon.add_argument(
        "--resume",
        action="store_true",
        help="resume from --checkpoint if it exists",
    )
    mon.add_argument(
        "--wal-dir",
        type=str,
        default=None,
        help="write-ahead log directory: every cycle is logged and "
        "fsynced before ingestion",
    )
    mon.add_argument(
        "--recover",
        action="store_true",
        help="reconcile --checkpoint (if any) with the --wal-dir log "
        "before continuing: replays the WAL tail a crash cut off",
    )
    mon.add_argument(
        "--quarantine-report",
        type=str,
        default=None,
        help="write the firewall's quarantine report (JSON) here (not "
        "on a fleet: the shards' quarantine stores are not merged)",
    )
    mon.add_argument(
        "--max-reading",
        type=float,
        default=1000.0,
        help="physical kWh ceiling per half-hour slot; readings above "
        "it are quarantined as out_of_range",
    )
    mon.add_argument(
        "--crash-after-cycle",
        type=int,
        default=None,
        help="hard-kill the process (exit 3) after ingesting N cycles "
        "(crash-recovery testing)",
    )
    mon.add_argument(
        "--max-queue",
        type=int,
        default=None,
        help="bound the ingestion queue to N pending cycles (enables "
        "the backpressure signal)",
    )
    mon.add_argument(
        "--shed-policy",
        choices=["off", "priority", "uniform"],
        default="off",
        help="load-shedding policy under overload: priority sheds the "
        "healthy tier first (suspects always scored), uniform sheds "
        "tier-blind, off never sheds",
    )
    mon.add_argument(
        "--cycle-deadline-ms",
        type=float,
        default=None,
        help="per-cycle time budget in milliseconds; an exhausted "
        "budget sheds the rest of the weekly scoring pass",
    )
    mon.add_argument(
        "--storage-faults",
        action="append",
        default=None,
        metavar="SPEC",
        help="inject deterministic storage faults: comma-separated "
        "SITE:OP@N=KIND entries (e.g. 'wal.append:write@3=torn'); "
        "sites glob (wal.*, export.*), ops are "
        "open/write/fsync/replace/fsync_dir/*, kinds are "
        "enospc/eio/torn/lying_fsync/bitrot; repeatable",
    )
    mon.add_argument(
        "--fault-ledger-out",
        type=str,
        default=None,
        help="write the injected-fault ledger (JSON) here "
        "(requires --storage-faults)",
    )
    mon.add_argument(
        "--network-faults",
        action="append",
        default=None,
        metavar="SPEC",
        help="inject deterministic transport faults into the shard "
        "fleet's message seam: comma-separated SHARD:OP@N=KIND entries "
        "(e.g. 'shard-0000:ingest@40=partition'); shards glob "
        "(shard-*), ops are ingest/heartbeat/checkpoint/extract/adopt/"
        "lease.acquire/*, kinds are drop/delay/dup/reorder/garble/"
        "partition/heal; requires --elastic or --shards > 1; "
        "repeatable",
    )
    mon.add_argument(
        "--transport-ledger-out",
        type=str,
        default=None,
        help="write the injected network-fault ledger (JSON) here "
        "(requires --network-faults)",
    )
    mon.add_argument(
        "--lease-ttl-cycles",
        type=int,
        default=8,
        help="shard ownership lease TTL in ingest cycles for the "
        "shard fleet (default 8); writes renew the lease, so only a "
        "silent coordinator can lose one",
    )
    mon.add_argument(
        "--scrub",
        action="store_true",
        help="verify every checkpoint generation before starting and "
        "rebuild a corrupt current one from the previous generation "
        "plus WAL replay (requires --wal-dir and --checkpoint)",
    )
    mon.add_argument(
        "--checkpoint-generations",
        type=int,
        default=1,
        help="checkpoint generations WAL compaction lags behind; 2 "
        "keeps enough log to rebuild a corrupt checkpoint from its "
        ".prev generation (see --scrub)",
    )
    mon.add_argument(
        "--eventtime",
        action="store_true",
        help="deliver readings out of order through the watermarked "
        "event-time pipeline: a reorder buffer releases slot-contiguous "
        "runs, late arrivals are reconciled into versioned verdict "
        "revisions, and the final weekly verdicts match an in-order run",
    )
    mon.add_argument(
        "--lateness-bound",
        type=int,
        default=48,
        help="slots the watermark trails the event-time frontier; "
        "deliveries inside the bound are reordered, not late",
    )
    mon.add_argument(
        "--grace-weeks",
        type=int,
        default=1,
        help="weeks a scored verdict stays open to late-reading "
        "reconciliation before finalising (later arrivals are "
        "quarantined too_late)",
    )
    mon.add_argument(
        "--scramble-delay",
        type=float,
        default=2.0,
        help="median backhaul delivery delay in slots for --eventtime "
        "(0 delivers in order)",
    )
    mon.add_argument(
        "--revisions-out",
        type=str,
        default=None,
        help="write the verdict-revision report (JSON) here "
        "(requires --eventtime)",
    )
    mon.add_argument(
        "--shards",
        type=int,
        default=1,
        help="run N monitor shards as a self-healing fleet placed on a "
        "consistent-hash ring (requires --wal-dir; each shard keeps its "
        "own WAL and checkpoint there and is restarted from them if it "
        "dies, and the fleet manifest there makes crash recovery "
        "implicit)",
    )
    mon.add_argument(
        "--elastic",
        action="store_true",
        help="run the shard fleet even at --shards 1 (requires "
        "--wal-dir)",
    )
    mon.add_argument(
        "--grow-at-week",
        type=int,
        default=None,
        help="with --elastic or --shards > 1: add one shard live at the "
        "start of week N "
        "(a quiesce -> snapshot -> commit -> install -> finalize handoff)",
    )
    mon.add_argument(
        "--integrity",
        action="store_true",
        help="arm the training-integrity defenses: per-consumer drift "
        "sentinels screen suspect weeks out of every retraining, fits "
        "are winsorized, and each retrained model becomes a registry "
        "candidate that must pass the canary gate before promotion",
    )
    mon.add_argument(
        "--canary-floor",
        type=float,
        default=None,
        help="minimum canary detection rate a candidate model must "
        "reach to be promoted (requires --integrity; default 0.7)",
    )
    mon.add_argument(
        "--training-window",
        type=int,
        default=None,
        metavar="WEEKS",
        help="retrain on at most the most recent WEEKS eligible weeks "
        "instead of the full history",
    )
    mon.add_argument(
        "--model-rollback",
        type=int,
        default=None,
        metavar="VERSION",
        help="after --resume/--recover with --integrity, on the "
        "single-service monitor: roll the "
        "active model back to registry VERSION before continuing "
        "(one command; subsequent verdicts are bit-identical to a run "
        "that never promoted the newer versions)",
    )
    mon.add_argument(
        "--lineage-out",
        type=str,
        default=None,
        help="write the model registry lineage report (JSON) here "
        "(requires --integrity)",
    )
    mon.add_argument(
        "--ramp-attack",
        type=str,
        default=None,
        metavar="CONSUMER",
        help="poison CONSUMER's reported series with a boiling-frog "
        "ramp: consumption shaved by --ramp-decay per week from "
        "--ramp-start-week down to --ramp-floor, slow enough that "
        "naive retraining absorbs the theft into the baseline",
    )
    mon.add_argument(
        "--ramp-start-week",
        type=int,
        default=8,
        help="week the ramp attack starts (default 8)",
    )
    mon.add_argument(
        "--ramp-decay",
        type=float,
        default=0.97,
        help="multiplicative per-week ramp factor in (0, 1) "
        "(default 0.97; closer to 1 evades longer)",
    )
    mon.add_argument(
        "--ramp-floor",
        type=float,
        default=0.45,
        help="terminal fraction of actual consumption the ramp holds "
        "at once reached (default 0.45)",
    )
    _add_observability_options(mon)
    _add_ops_options(mon)
    mon.set_defaults(func=_cmd_monitor)

    st = sub.add_parser(
        "status",
        help="render the fleet ops dashboard from a manifest and "
        "exported health/SLO/profile reports",
    )
    st.add_argument(
        "--fleet-dir",
        type=str,
        default=None,
        help="fleet directory (reads fleet.json) or manifest file path",
    )
    st.add_argument(
        "--health", type=str, default=None, help="health report JSON"
    )
    st.add_argument("--slo", type=str, default=None, help="SLO report JSON")
    st.add_argument(
        "--profile", type=str, default=None, help="stage profile JSON"
    )
    st.add_argument(
        "--top", type=int, default=10, help="hot stages shown (default 10)"
    )
    st.add_argument(
        "--json",
        action="store_true",
        help="emit the merged raw JSON instead of the rendered dashboard",
    )
    st.set_defaults(func=_cmd_status)

    ab = sub.add_parser("ablation", help="histogram bin-count sweep")
    _add_dataset_options(ab)
    ab.add_argument("--sample", type=int, default=20, help="consumers to use")
    ab.set_defaults(func=_cmd_ablation)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; not an error.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
