"""Inputs and timed passes of the three benchmark workloads.

Every workload is a closed loop in one single-threaded process: the
next call is made only after the previous one returned.  All inputs
(per-cycle readings, delivery batches, consumer matrices) are built by
:func:`make_inputs` before anything is timed; the program sees only
those generated inputs.

A pass returns the raw samples (per-call latencies, set-up samples,
sizes) and the program's outputs; :mod:`perfbench.measure` turns the
samples into metrics and :mod:`perfbench.oracle` checks the outputs.
"""

from __future__ import annotations

import gc
import hashlib
import os
import pickle
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.attacks.injection.ramp import BoilingFrogRampAttack
from repro.core.kld import KLDDetector
from repro.core.online import TheftMonitoringService
from repro.data.synthetic import SyntheticCERConfig, generate_cer_like_dataset
from repro.durability import DurableTheftMonitor, WriteAheadLog, recover_monitor
from repro.evaluation.config import EvaluationConfig
from repro.evaluation.experiment import run_evaluation
from repro.eventtime import EventTimeConfig, EventTimeIngestor, StampedReading
from repro.integrity import IntegrityConfig
from repro.metering.channel import LossyChannel
from repro.metering.scramble import ScramblingChannel
from repro.observability.events import EventLogger
from repro.observability.metrics import MetricsRegistry
from repro.observability.ops import StageProfiler
from repro.quarantine import FirewallPolicy, ReadingFirewall
from repro.resilience import ResilienceConfig
from repro.timeseries.seasonal import SLOTS_PER_WEEK

DURABLE = "durable-integrity-74w"
EVENTTIME = "eventtime-late-74w"
EVALUATION = "evaluation-tables"
WORKLOADS = (DURABLE, EVENTTIME, EVALUATION)

WEEKS = 74
#: Population size per workload.
CONSUMERS = {DURABLE: 24, EVENTTIME: 24, EVALUATION: 100}
#: Attack vectors per consumer in the evaluation (the paper's 50).
VECTORS = 50

#: Every workload monitors or evaluates the same CER-like population;
#: ``--seed`` draws what varies between runs: the durable workload's
#: dropped readings, the event-time duplicate deliveries (see
#: :func:`_with_duplicates`) and the evaluation's attack vectors.
#: Drawing the population (or which meter steals) per seed would add
#: the spread of a 24-consumer sample of consumer types to every figure.
POPULATION_SEED = 2016

MIN_TRAINING_WEEKS = 8
RETRAIN_EVERY_WEEKS = 4
SIGNIFICANCE = 0.05
DROP_RATE = {DURABLE: 0.02, EVENTTIME: 0.01}
RAMP_START_WEEK = 8
#: Index of the consumer that runs the ramp (fixed with the population).
RAMP_CONSUMER = 0
LATENESS_SLOTS = 8
GRACE_WEEKS = 1
SCRAMBLE_MEDIAN_SLOTS = 6.0
SCRAMBLE_SIGMA = 0.8
SCRAMBLE_DUPLICATE_RATE = 0.02
#: Delivery delays are capped at lateness + grace, so nothing is too late.
MAX_DELAY_SLOTS = LATENESS_SLOTS + GRACE_WEEKS * SLOTS_PER_WEEK
SCRAMBLE_OUTAGE_RATE = 0.0005

#: Sampling points spread over a pass, the set-ups made at each point
#: (the evaluation's set-up is only microseconds), and the windows
#: whose mean set-up times :meth:`HostSampler.setup_s` takes the median
#: of.
SETUP_POINTS = 250
SETUP_REPS = {DURABLE: 2, EVENTTIME: 2, EVALUATION: 50}
SETUP_WINDOWS = 25

#: :func:`host_probe` time on the reference host (2 vCPU, python
#: 3.11.7, numpy 2.4.6) in its usual state, measured between program
#: calls.  Times are reported on this host; see :class:`HostSampler`.
HOST_PROBE_REF_S = 1.5e-3
#: Sampling points in the probe's rolling median.
PROBE_SMOOTHING = 5
#: fsyncs in the durable workload's probe, each after appending a
#: record the size of one WAL cycle (about as many cycles' worth of
#: disk waits as the CPU probe is cycles' worth of work); the durable
#: reference probe time adds them.
DISK_PROBE_SYNCS = 3
_DISK_PROBE_RECORD = b"\0" * 640
HOST_PROBE_REF_DISK_S = 3 * 130e-6

#: Restarts timed per pass (``recovery_s`` is their median); the
#: evaluation's result set loads in milliseconds, so it takes more.
RECOVERIES = {DURABLE: 15, EVENTTIME: 15, EVALUATION: 45}

#: Repository-relative sources whose code generates the inputs; the
#: input cache is keyed by their digest, so a change to the generators
#: cannot serve stale inputs.
_GENERATOR_SOURCES = (
    "src/repro/data/synthetic.py",
    "src/repro/data/consumers.py",
    "src/repro/metering/channel.py",
    "src/repro/metering/scramble.py",
    "src/repro/attacks/injection/ramp.py",
)


def detector_factory():
    return KLDDetector(significance=SIGNIFICANCE)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


@dataclass
class Inputs:
    """Everything a pass consumes, built before any timing starts."""

    workload: str
    seed: int
    consumers: int
    weeks: int
    ids: tuple[str, ...] = ()
    #: Durable: one ``{consumer: kWh}`` dict per polling cycle.
    cycles: list[dict[str, float]] = field(default_factory=list)
    #: Event time: one list of stamped readings per delivery batch.
    batches: list[list] = field(default_factory=list)
    #: Event time, as cached: the batches packed into arrays (consumer
    #: index, slot, kWh, batch ends) until :meth:`materialise`.
    delivery: tuple | None = None
    #: Evaluation: the dataset handed to ``run_evaluation``.
    dataset: object = None

    @property
    def readings(self) -> int:
        if self.workload == EVALUATION:
            return self.consumers * (self.dataset.train_weeks + 1) * SLOTS_PER_WEEK
        if self.cycles:
            return sum(len(cycle) for cycle in self.cycles)
        if self.delivery is not None:
            return len(self.delivery[2])
        return sum(len(batch) for batch in self.batches)

    def materialise(self) -> "Inputs":
        """Unpack the cached delivery arrays into the ingestor's reading type.

        Every object built here is kept by the batches; the temporaries
        are a few large lists whose memory goes back to the system, so
        loading leaves no freed small-object memory behind for the
        program to reuse unseen by its peak RSS.
        """
        if self.delivery is None:
            return self
        who, slots, values, ends = self.delivery
        ids = self.ids
        readings = list(
            map(
                StampedReading,
                [ids[i] for i in who.tolist()],
                slots.tolist(),
                values.tolist(),
            )
        )
        ends = ends.tolist()
        self.batches = [readings[a:b] for a, b in zip([0, *ends[:-1]], ends)]
        self.delivery = None
        return self

    def sizes(self) -> dict:
        out = {
            "consumers": self.consumers,
            "weeks": self.weeks,
            "readings": self.readings,
        }
        if self.workload == EVALUATION:
            out["vectors"] = VECTORS
        else:
            out["delivery_calls"] = len(self.cycles) or len(self.batches) or (
                len(self.delivery[3]) if self.delivery is not None else 0
            )
        return out


def _population(consumers: int, weeks: int):
    dataset = generate_cer_like_dataset(
        SyntheticCERConfig(
            n_consumers=consumers, n_weeks=weeks, seed=POPULATION_SEED
        )
    )
    ids = tuple(dataset.consumers())
    return dataset, ids


def _poisoned_series(dataset, ids) -> dict[str, np.ndarray]:
    """The reported series, one consumer running the boiling-frog ramp."""
    series = {cid: dataset.series(cid) for cid in ids}
    attacker = ids[RAMP_CONSUMER]
    series[attacker] = BoilingFrogRampAttack().poison_series(
        series[attacker], start_slot=RAMP_START_WEEK * SLOTS_PER_WEEK
    )
    return series


def _durable_cycles(series, ids, seed: int, n_slots: int):
    channel = LossyChannel(drop_rate=DROP_RATE[DURABLE], outage_rate=0.0)
    matrix = np.vstack([series[cid] for cid in ids])
    cycles = []
    for t in range(n_slots):
        column = matrix[:, t].tolist()
        readings = dict(zip(ids, column))
        cycles.append(channel.transmit(readings, np.random.default_rng((seed, t))))
    return cycles


def _scramble_channel() -> ScramblingChannel:
    # consumer_sigma=0: every meter shares one delay distribution, so the
    # reconciliation work does not hinge on which few meters drew slow
    # routes.
    return ScramblingChannel(
        median_delay_slots=SCRAMBLE_MEDIAN_SLOTS,
        consumer_sigma=0.0,
        max_delay_slots=MAX_DELAY_SLOTS,
        outage_rate=SCRAMBLE_OUTAGE_RATE,
    )


def _eventtime_schedule(series, ids, n_slots: int) -> list[list[tuple]]:
    """Delivery batches of ``(consumer, slot, kWh)``, one per slot + drain.

    Drops, delays and outage bursts are drawn with the population: with
    lateness 8 and grace 1 the program's final verdicts depend on the
    order readings arrive in (at 30 consumers the same readings in two
    delivery orders gave 444 and 507 alerts), and each verdict moves
    training and so the work of every later week.
    """
    lossy = LossyChannel(drop_rate=DROP_RATE[EVENTTIME], outage_rate=0.0)
    scramble = _scramble_channel()
    matrix = np.vstack([series[cid] for cid in ids])
    batches = []
    for t in range(n_slots):
        rng = np.random.default_rng((POPULATION_SEED, t))
        delivered = lossy.transmit(dict(zip(ids, matrix[:, t].tolist())), rng)
        scramble.push(t, delivered, rng)
        batches.append([(r.consumer_id, r.slot, r.value) for r in scramble.pop_due(t)])
    batches.append([(r.consumer_id, r.slot, r.value) for r in scramble.drain()])
    return batches


def _with_duplicates(batches: list[list[tuple]], seed: int) -> list[list[tuple]]:
    """``batches`` plus a copy of 2% of readings, delayed like the rest.

    This is what ``seed`` draws for the event-time workload: duplicates
    exercise the duplicate paths without changing a verdict.
    """
    rng = np.random.default_rng(seed)
    last = len(batches) - 1
    copies: list[list[tuple]] = [[] for _ in batches]
    for b, batch in enumerate(batches):
        picked = np.flatnonzero(rng.random(len(batch)) < SCRAMBLE_DUPLICATE_RATE)
        delays = rng.lognormal(0.0, SCRAMBLE_SIGMA, picked.size) * SCRAMBLE_MEDIAN_SLOTS
        for i, delay in zip(picked.tolist(), delays.tolist()):
            reading = batch[i]
            # Never later than the original's slot + lateness + grace,
            # so the copy is still reconcilable (no too_late).
            due = min(b + int(delay), reading[1] + MAX_DELAY_SLOTS, last)
            copies[max(due, b)].append(reading)
    return [batch + extra for batch, extra in zip(batches, copies)]


def make_inputs(
    workload: str,
    seed: int,
    consumers: int | None = None,
    weeks: int = WEEKS,
    schedule_cache: Path | None = None,
) -> Inputs:
    """Build a workload's inputs from ``seed`` (same seed, same inputs).

    See :data:`POPULATION_SEED` for what the seed draws.

    Event-time batches are packed into arrays so they pickle compactly;
    :meth:`Inputs.materialise` turns them into stamped readings before
    anything is timed.  The seed-independent
    delivery schedule is the slow part; with ``schedule_cache`` it is
    built once and kept in that file.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    n = CONSUMERS[workload] if consumers is None else int(consumers)
    inputs = Inputs(workload=workload, seed=seed, consumers=n, weeks=weeks)
    dataset, ids = _population(n, weeks)
    inputs.ids = ids
    if workload == EVALUATION:
        inputs.dataset = dataset
        return inputs
    series = _poisoned_series(dataset, ids)
    n_slots = weeks * SLOTS_PER_WEEK
    if workload == DURABLE:
        inputs.cycles = _durable_cycles(series, ids, seed, n_slots)
        return inputs
    if schedule_cache is not None and schedule_cache.exists():
        with open(schedule_cache, "rb") as handle:
            schedule = pickle.load(handle)
    else:
        schedule = _eventtime_schedule(series, ids, n_slots)
        if schedule_cache is not None:
            tmp = schedule_cache.with_suffix(f".{os.getpid()}.tmp")
            with open(tmp, "wb") as handle:
                pickle.dump(schedule, handle, protocol=pickle.HIGHEST_PROTOCOL)
            tmp.replace(schedule_cache)
    inputs.delivery = _pack(_with_duplicates(schedule, seed), ids)
    return inputs


def _pack(batches: list[list[tuple]], ids) -> tuple:
    """``(consumer, slot, kWh)`` batches as arrays (see :attr:`Inputs.delivery`)."""
    index = {cid: i for i, cid in enumerate(ids)}
    flat = [r for batch in batches for r in batch]
    return (
        np.array([index[r[0]] for r in flat], dtype=np.int32),
        np.array([r[1] for r in flat], dtype=np.int64),
        np.array([r[2] for r in flat], dtype=np.float64),
        np.cumsum([len(batch) for batch in batches], dtype=np.int64),
    )


def generator_digest(root: Path) -> str:
    """Digest of the sources that generate inputs (the cache key)."""
    digest = hashlib.sha256()
    for rel in (*_GENERATOR_SOURCES, "perfbench/workloads.py"):
        path = root / rel
        digest.update(rel.encode())
        digest.update(path.read_bytes() if path.exists() else b"-")
    return digest.hexdigest()[:16]


# ----------------------------------------------------------------------
# The program's set-up, per workload
# ----------------------------------------------------------------------


def eventtime_config() -> EventTimeConfig:
    return EventTimeConfig(lateness_slots=LATENESS_SLOTS, grace_weeks=GRACE_WEEKS)


@dataclass
class DurableStack:
    monitor: DurableTheftMonitor
    events: EventLogger
    profiler: StageProfiler
    wal_dir: Path
    checkpoint: Path

    @property
    def service(self) -> TheftMonitoringService:
        return self.monitor.service

    def close(self) -> None:
        self.monitor.close()
        self.events.close()


def durable_service(ids, events=None, metrics=None) -> TheftMonitoringService:
    return TheftMonitoringService(
        detector_factory=detector_factory,
        min_training_weeks=MIN_TRAINING_WEEKS,
        retrain_every_weeks=RETRAIN_EVERY_WEEKS,
        resilience=ResilienceConfig(),
        population=ids,
        metrics=metrics,
        events=events,
        firewall=ReadingFirewall(FirewallPolicy()),
        integrity=IntegrityConfig(),
    )


def build_durable(ids, workdir: Path, marks: list | None = None) -> DurableStack:
    """The production durable deployment, up to accepting a cycle.

    With ``marks`` the build appends four clock readings: the steps
    between the first two and the last two create directories and files,
    the step between the middle two only builds objects in memory.
    """
    mark = marks.append if marks is not None else _no_mark
    perf = time.perf_counter
    mark(perf())
    workdir.mkdir(parents=True, exist_ok=True)
    events = EventLogger(path=workdir / "events.jsonl")
    mark(perf())
    metrics = MetricsRegistry()
    profiler = StageProfiler()
    service = durable_service(ids, events=events, metrics=metrics)
    mark(perf())
    wal_dir = workdir / "wal"
    checkpoint = workdir / "monitor.ckpt"
    monitor = DurableTheftMonitor(
        service,
        WriteAheadLog(wal_dir, metrics=metrics),
        checkpoint_path=checkpoint,
        profiler=profiler,
    )
    mark(perf())
    return DurableStack(monitor, events, profiler, wal_dir, checkpoint)


def _no_mark(_seconds: float) -> None:
    pass


def eventtime_service(ids) -> TheftMonitoringService:
    return TheftMonitoringService(
        detector_factory=detector_factory,
        min_training_weeks=MIN_TRAINING_WEEKS,
        retrain_every_weeks=RETRAIN_EVERY_WEEKS,
        resilience=ResilienceConfig(),
        population=ids,
        firewall=ReadingFirewall(FirewallPolicy()),
        eventtime=eventtime_config(),
    )


def build_eventtime(ids) -> EventTimeIngestor:
    return EventTimeIngestor(eventtime_service(ids))


def build_evaluation(seed: int) -> EvaluationConfig:
    return EvaluationConfig(n_vectors=VECTORS, seed=seed)


class HostSampler:
    """Samples the program's set-up and the host's speed during a pass.

    The shared host's speed drifts by tens of percent over seconds to
    minutes, for everything running on it, and the set-up is
    sub-millisecond, so a burst of back-to-back samples would land in
    whichever state the host happens to be in.  At evenly spaced points
    of the pass the sampler builds the workload's full stack from
    nothing ``reps`` times (the durable stack with a fresh WAL directory
    on disk) and times :func:`host_probe` (and, for the durable stack,
    :func:`fs_probe`).  Time spent here (teardown included) is returned
    to the caller, which leaves it out of the pass's wall time and
    latencies.

    :meth:`factors` turns the probe times into a per-call factor that
    expresses a measured time on the reference host
    (:data:`HOST_PROBE_REF_S`): the probe's rolling median around the
    call, interpolated between sampling points.
    """

    def __init__(self, inputs: Inputs, workdir: Path, reps: int):
        self.inputs = inputs
        self.workdir = workdir
        self.reps = reps
        workdir.mkdir(parents=True, exist_ok=True)
        # The durable workload waits on the disk as well as the core, so
        # its probe also appends and fsyncs like a few WAL cycles, next
        # to the WAL on the same disk.
        self.disk = (
            open(workdir / "probe.log", "ab") if inputs.workload == DURABLE else None
        )
        #: The probe's time on the reference host.
        self.reference = HOST_PROBE_REF_S + (
            HOST_PROBE_REF_DISK_S if self.disk is not None else 0.0
        )
        #: Per sampling point: the mean set-up time, and the same on the
        #: reference host.
        self.setups: list[float] = []
        self.setups_ref: list[float] = []
        self.probes: list[float] = []
        self.at: list[int] = []
        self.after: dict[int, float] = {}
        self._built = 0
        self._one()  # warm-up, discarded
        host_probe()

    def _one(self) -> tuple[float, float]:
        """One set-up: (seconds in memory-only steps, seconds creating files)."""
        workload = self.inputs.workload
        perf = time.perf_counter
        fs = 0.0
        if workload == DURABLE:
            target = self.workdir / f"setup-{self._built}"
            marks: list[float] = []
            stack = build_durable(self.inputs.ids, target, marks)
            memory = marks[2] - marks[1]
            fs = marks[1] - marks[0] + marks[3] - marks[2]
            stack.close()
            shutil.rmtree(target, ignore_errors=True)
        elif workload == EVENTTIME:
            started = perf()
            build_eventtime(self.inputs.ids)
            memory = perf() - started
        else:
            started = perf()
            build_evaluation(self.inputs.seed)
            memory = perf() - started
        self._built += 1
        return memory, fs

    def sample(self, index: int) -> float:
        """Take the sampling point before call ``index``; returns its cost."""
        started = time.perf_counter()
        parts = np.mean([self._one() for _ in range(self.reps)], axis=0)
        memory, fs = float(parts[0]), float(parts[1])
        cpu = warm_probe()
        self.probes.append(cpu + self.disk_probe())
        self.at.append(index)
        # The set-up never waits for an fsync, so each part is put on
        # the reference host by the probe of the same kind of work: the
        # steps that create directories and files track fs_probe far
        # more closely than the CPU probe (and the fsync waits not at
        # all).
        reference = memory * HOST_PROBE_REF_S / cpu
        if fs:
            reference += fs * HOST_PROBE_REF_FS_S / fs_probe(self.workdir)
        self.setups.append(memory + fs)
        self.setups_ref.append(reference)
        return time.perf_counter() - started

    def probe_after(self, index: int) -> float:
        """Probe right after the long call ``index`` (a week close)."""
        started = time.perf_counter()
        self.after[index] = warm_probe() + self.disk_probe()
        return time.perf_counter() - started

    def disk_probe(self) -> float:
        """fsync waits of a few WAL-cycle appends (0 without the durable stack)."""
        seconds = 0.0
        if self.disk is not None:
            for _ in range(DISK_PROBE_SYNCS):
                self.disk.write(_DISK_PROBE_RECORD)
                started = time.perf_counter()
                self.disk.flush()
                os.fsync(self.disk.fileno())
                seconds += time.perf_counter() - started
        return seconds

    def close(self) -> None:
        if self.disk is not None:
            self.disk.close()

    def factors(self, calls: int) -> np.ndarray:
        """Reference-host factor for each of ``calls`` calls.

        A call probed right after it (:meth:`probe_after`) averages that
        probe with the rolling median around it.
        """
        probes = np.asarray(self.probes)
        half = PROBE_SMOOTHING // 2
        smooth = np.array(
            [np.median(probes[max(0, i - half) : i + half + 1]) for i in range(probes.size)]
        )
        host = np.interp(np.arange(calls), self.at, smooth)
        for index, probe in self.after.items():
            host[index] = (host[index] + probe) / 2
        return self.reference / host

    def setup_s(self, normalise: bool) -> float:
        """Median over :data:`SETUP_WINDOWS` windows of the mean set-up."""
        samples = np.asarray(self.setups_ref if normalise else self.setups)
        windows = np.array_split(samples, SETUP_WINDOWS)
        return float(np.median([w.mean() for w in windows if w.size]))


#: :func:`fs_probe` time on the reference host, measured like
#: :data:`HOST_PROBE_REF_S`.
HOST_PROBE_REF_FS_S = 230e-6


def fs_probe(workdir: Path) -> float:
    """Seconds to create a directory holding one small file, and list it.

    The durable set-up's file-creating steps (WAL directory and first
    segment, event log) are this kind of work.
    """
    target = workdir / "fs-probe"
    perf = time.perf_counter
    started = perf()
    os.mkdir(target)
    with open(target / "probe", "wb") as handle:
        handle.write(b"0123456789abcdef")
    os.listdir(target)
    seconds = perf() - started
    shutil.rmtree(target)
    return seconds


#: The host probe's working set, built once: the probe only reads and
#: overwrites it, so it allocates nothing the garbage collector tracks
#: and its time does not grow with the program's heap.  The float list
#: is half a megabyte of heap objects, like a reading history: the
#: program's week closes are bound by the shared cache and memory that
#: neighbouring tenants contend for, not only by the core.
_PROBE_KEYS = tuple(f"c{i}" for i in range(64))
_PROBE_TABLE = dict.fromkeys(_PROBE_KEYS, 0.0)
_PROBE_FLOATS = [i * 0.5 for i in range(20_000)]


def host_probe() -> float:
    """Seconds for a fixed mix of interpreter, memory and array work.

    The code is the benchmark's own and never changes with the program,
    so its time tracks only how fast the shared host is running.
    """
    perf = time.perf_counter
    keys, table = _PROBE_KEYS, _PROBE_TABLE
    started = perf()
    for i in range(1000):
        key = keys[i & 63]
        table[key] = table[key] * 0.5 + i
    history = np.asarray(_PROBE_FLOATS)
    values = history[:SLOTS_PER_WEEK]
    for _ in range(20):
        values = np.sqrt(values * 1.0001 + 0.5)
    return perf() - started


def warm_probe() -> float:
    """:func:`host_probe` after one warm-up call.

    The first call re-warms the caches the program just used, so the
    program's own footprint does not leak into the host's speed.
    """
    host_probe()
    return host_probe()


# ----------------------------------------------------------------------
# Timed passes
# ----------------------------------------------------------------------


@dataclass
class PassResult:
    """Raw samples and outputs of one timed pass."""

    wall_s: float
    readings: int
    consumers: int
    #: Latencies (s) of delivery calls that did not close a week.
    cycle_s: list[float] = field(default_factory=list)
    #: Latencies (s) of the calls that closed a week, in week order.
    week_close_s: list[float] = field(default_factory=list)
    #: Evaluation: seconds per consumer, in evaluation order.
    consumer_s: list[float] = field(default_factory=list)
    #: Reference-host factors of the samples above, element by element
    #: (see :class:`HostSampler`); empty when the host was not sampled.
    cycle_f: list[float] = field(default_factory=list)
    week_close_f: list[float] = field(default_factory=list)
    consumer_f: list[float] = field(default_factory=list)
    #: Reference-host factor of the wall time (duration-weighted).
    wall_f: float = 1.0
    #: Set-up time, raw and on the reference host (``None`` when not
    #: sampled).
    setup_s: float | None = None
    setup_ref_s: float | None = None
    #: Median probe time during the pass, for the run's stamp.
    host_probe_s: float | None = None
    checkpoint_bytes: int = 0
    recovery_s: list[float] = field(default_factory=list)
    recovery_f: list[float] = field(default_factory=list)
    outputs: dict = field(default_factory=dict)
    failed: int = 0
    attempted: int = 0
    #: Free-form counters the oracle and the trace read.
    extra: dict = field(default_factory=dict)


def _sampler(inputs: Inputs, workdir: Path, calls: int, sample: bool):
    """A host sampler and its spacing in calls (``None`` when off)."""
    if not sample:
        return None, 0
    sampler = HostSampler(inputs, workdir / "setup", SETUP_REPS[inputs.workload])
    return sampler, max(calls // SETUP_POINTS, 1)


@dataclass
class _Replay:
    wall_s: float
    durations: list[float]
    closed: list[bool]
    failed: int


def _replay(items, call, closes_week, sampler, every) -> _Replay:
    """Closed-loop replay: each call is made after the previous returns.

    Host sampling between calls is left out of the wall time.
    """
    perf = time.perf_counter
    durations, closed = [], []
    failed = 0
    excluded = 0.0
    started = perf()
    for i, item in enumerate(items):
        if sampler is not None and i % every == 0:
            excluded += sampler.sample(i)
        t0 = perf()
        try:
            closes = closes_week(call(item))
        except Exception:  # noqa: BLE001 - a raising call is a failed op
            failed += 1
            closes = False
        durations.append(perf() - t0)
        closed.append(closes)
        if closes and sampler is not None:
            excluded += sampler.probe_after(i)
    return _Replay(perf() - started - excluded, durations, closed, failed)


def _timed_result(replay: _Replay, sampler, inputs: Inputs, **fields) -> PassResult:
    """A pass result from a replay, split into cycles and week closes."""
    durations = np.asarray(replay.durations)
    closed = np.asarray(replay.closed, dtype=bool)
    result = PassResult(
        wall_s=replay.wall_s,
        readings=inputs.readings,
        consumers=inputs.consumers,
        cycle_s=durations[~closed].tolist(),
        week_close_s=durations[closed].tolist(),
        failed=replay.failed,
        attempted=len(replay.durations),
        **fields,
    )
    if sampler is not None:
        _apply_host(result, sampler, durations, closed)
    return result


def _apply_host(result: PassResult, sampler: "HostSampler", durations, closed) -> None:
    factors = sampler.factors(len(durations))
    result.cycle_f = factors[~closed].tolist()
    result.week_close_f = factors[closed].tolist()
    result.wall_f = float((durations * factors).sum() / durations.sum())
    result.setup_s = sampler.setup_s(normalise=False)
    result.setup_ref_s = sampler.setup_s(normalise=True)
    result.host_probe_s = float(np.median(sampler.probes))
    sampler.close()


def _timed_restarts(result: PassResult, restart, live: dict, count: int, sample: bool):
    """Time ``count`` calls of ``restart``; each must give the live outputs."""
    equal = True
    for _ in range(count):
        # Start each restart from a collected heap, so a full collection
        # of the previous restart's garbage does not land inside it.
        gc.collect()
        before = warm_probe() if sample else HOST_PROBE_REF_S
        t0 = time.perf_counter()
        restored = restart()
        result.recovery_s.append(time.perf_counter() - t0)
        after = warm_probe() if sample else HOST_PROBE_REF_S
        result.recovery_f.append(2 * HOST_PROBE_REF_S / (before + after))
        equal &= restored == live
    result.extra["recovered_equal"] = equal


def run_durable(
    inputs: Inputs, workdir: Path, recoveries: int | None = None, sample: bool = True
) -> PassResult:
    from perfbench.oracle import monitor_outputs

    sampler, every = _sampler(inputs, workdir, len(inputs.cycles), sample)
    shutil.rmtree(workdir / "run", ignore_errors=True)
    stack = build_durable(inputs.ids, workdir / "run")
    replay = _replay(
        inputs.cycles,
        stack.monitor.ingest_cycle,
        lambda report: report is not None,
        sampler,
        every,
    )
    stack.close()
    service = stack.service
    live = monitor_outputs(service)
    result = _timed_result(
        replay,
        sampler,
        inputs,
        outputs=live,
        checkpoint_bytes=os.path.getsize(stack.checkpoint),
    )

    def restart():
        recovered = recover_monitor(
            stack.wal_dir,
            detector_factory=detector_factory,
            checkpoint_path=stack.checkpoint,
            service_factory=lambda: durable_service(inputs.ids),
        )
        return monitor_outputs(recovered.service)

    count = RECOVERIES[inputs.workload] if recoveries is None else recoveries
    _timed_restarts(result, restart, live, count, sample)
    result.extra.update(_service_counts(service))
    return result


#: Stands for the end-of-stream ``finish()`` call in the delivery list.
_FINISH = object()


def run_eventtime(
    inputs: Inputs, workdir: Path, recoveries: int | None = None, sample: bool = True
) -> PassResult:
    from perfbench.oracle import monitor_outputs

    calls = [*inputs.batches, _FINISH]
    sampler, every = _sampler(inputs, workdir, len(calls), sample)
    ingestor = build_eventtime(inputs.ids)
    deliver = ingestor.deliver
    replay = _replay(
        calls,
        lambda batch: ingestor.finish() if batch is _FINISH else deliver(batch),
        lambda outcome: bool(outcome.reports),
        sampler,
        every,
    )
    service = ingestor.service
    live = monitor_outputs(service)
    count = RECOVERIES[inputs.workload] if recoveries is None else recoveries
    # Restart cost of the event-time service: its final state written
    # as a checkpoint, then restored (outside the timed replay).
    workdir.mkdir(parents=True, exist_ok=True)
    checkpoint = workdir / "eventtime.ckpt"
    if count:
        service.checkpoint(checkpoint)
    result = _timed_result(
        replay,
        sampler,
        inputs,
        outputs=live,
        checkpoint_bytes=os.path.getsize(checkpoint) if count else 0,
    )
    _timed_restarts(
        result,
        lambda: monitor_outputs(
            TheftMonitoringService.restore(checkpoint, detector_factory)
        ),
        live,
        count,
        sample,
    )
    result.extra.update(
        _service_counts(service), pending=ingestor.buffer.pending_readings
    )
    return result


def run_evaluation_pass(
    inputs: Inputs, workdir: Path, recoveries: int | None = None, sample: bool = True
) -> PassResult:
    from perfbench.oracle import evaluation_outputs

    sampler, _ = _sampler(inputs, workdir, inputs.consumers, sample)
    perf = time.perf_counter
    consumer_s = []
    excluded = 0.0
    resumed = [0.0]

    def progress(_consumer_id: str) -> None:
        nonlocal excluded
        consumer_s.append(perf() - resumed[0])
        if sampler is not None:
            excluded += sampler.sample(len(consumer_s))
        resumed[0] = perf()

    config = build_evaluation(inputs.seed)
    if sampler is not None:
        excluded += sampler.sample(0)
    started = resumed[0] = perf()
    try:
        results = run_evaluation(inputs.dataset, config, progress=progress)
    except Exception:  # noqa: BLE001 - the unfinished consumers failed
        results = None
    wall = perf() - started - excluded
    outputs = evaluation_outputs(results) if results else {}
    result = PassResult(
        wall_s=wall,
        readings=inputs.readings // inputs.consumers * len(consumer_s),
        consumers=len(consumer_s),
        consumer_s=consumer_s,
        outputs=outputs,
        attempted=inputs.consumers,
        failed=inputs.consumers - (len(results.consumers) if results else 0),
    )
    if sampler is not None:
        durations = np.asarray(consumer_s)
        # Consumer i ran between sampling points i and i + 1.
        factors = sampler.factors(len(consumer_s) + 1)
        factors = (factors[:-1] + factors[1:]) / 2
        result.consumer_f = factors.tolist()
        result.wall_f = float((durations * factors).sum() / durations.sum())
        result.setup_s = sampler.setup_s(normalise=False)
        result.setup_ref_s = sampler.setup_s(normalise=True)
        result.host_probe_s = float(np.median(sampler.probes))
    # The evaluation's durable artefact is its result set: write it and
    # time loading it back and re-rendering the tables.
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / "evaluation.pkl"
    count = RECOVERIES[inputs.workload] if recoveries is None else recoveries
    if count and results:
        with open(path, "wb") as handle:
            pickle.dump(results, handle, protocol=pickle.HIGHEST_PROTOCOL)
        result.checkpoint_bytes = os.path.getsize(path)

    def reload():
        with open(path, "rb") as handle:
            return evaluation_outputs(pickle.load(handle))

    _timed_restarts(result, reload, outputs, count if results else 0, sample)
    if not results:
        result.extra["recovered_equal"] = False
    return result


def _service_counts(service) -> dict:
    """Counters the oracle and the trace read off a finished service."""
    reasons = service.firewall.store.counts_by_reason()
    registry = service.model_registry
    return {
        "weeks_completed": service.weeks_completed,
        "too_late": reasons.get("too_late", 0),
        "rejected": sum(n for r, n in reasons.items() if r != "poison_suspect"),
        "submitted": 0
        if registry is None
        else sum(1 for e in registry.events if e.kind == "submitted"),
    }


RUNNERS = {
    DURABLE: run_durable,
    EVENTTIME: run_eventtime,
    EVALUATION: run_evaluation_pass,
}


def median(values) -> float:
    return float(statistics.median(values))
