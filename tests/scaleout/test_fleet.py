"""ElasticFleet: placement, dispatch, lag isolation, healing, epochs,
cold start.

``monitor --shards N`` runs this fleet on a fixed ring, so the fixed
fleet's guarantees live here too: pinned routing, crash/kill/hang
healing to bit-identical reports, and recovery of a shard directory
that holds WAL and checkpoint state but no ``fleet.json`` manifest.
"""

import os
import warnings

import pytest
from _fixtures import (
    CONSUMERS,
    THEFT_START,
    WEEKS,
    detector_factory,
    readings,
    service_factory,
)

from repro.core.online import TheftMonitoringService
from repro.errors import ConfigurationError, SupervisorError, WorkerCrashed
from repro.eventtime.config import EventTimeConfig
from repro.loadcontrol.queue import BackpressureSignal
from repro.observability.metrics import MetricsRegistry
from repro.resilience.config import ResilienceConfig
from repro.scaleout import ElasticFleet, report_signature
from repro.timeseries.seasonal import SLOTS_PER_WEEK


def _fleet(base_dir, **kwargs):
    kwargs.setdefault("n_shards", 2)
    return ElasticFleet(
        CONSUMERS, base_dir, service_factory, detector_factory, **kwargs
    )


def _signatures(fleet):
    """Byte-comparable view of every shard's weekly reports."""
    return {
        name: [report_signature(report) for report in reports]
        for name, reports in fleet.weekly_reports().items()
    }


def _run_fleet(base_dir, chaos=None, setup=None, **kwargs):
    """Run a 2-shard fleet for WEEKS weeks; ``setup(fleet)`` runs once
    after construction and ``chaos(fleet, t)`` before every cycle."""
    with _fleet(base_dir, **kwargs) as fleet:
        if setup is not None:
            setup(fleet)
        for t in range(WEEKS * SLOTS_PER_WEEK):
            if chaos is not None:
                chaos(fleet, t)
            fleet.ingest_cycle(readings(t))
        return _signatures(fleet), fleet.restarts_total


class TestConstruction:
    def test_placement_comes_from_the_ring(self, tmp_path):
        from repro.scaleout import HashRing, balanced_assignments

        with _fleet(tmp_path) as fleet:
            expected = balanced_assignments(
                HashRing(fleet.shards), sorted(CONSUMERS)
            )
            assert {
                w.name: w.consumers for w in fleet.workers()
            } == expected

    def test_validation(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ElasticFleet((), tmp_path, service_factory, detector_factory)
        with pytest.raises(ConfigurationError):
            _fleet(tmp_path / "a", n_shards=0)
        with pytest.raises(ConfigurationError):
            _fleet(tmp_path / "b", n_shards=7)  # more shards than meters
        with pytest.raises(ConfigurationError):
            _fleet(tmp_path / "c", hang_tolerance_cycles=0)

    def test_eventtime_services_rejected(self, tmp_path):
        def eventtime_factory(consumers):
            return TheftMonitoringService(
                detector_factory=detector_factory,
                min_training_weeks=2,
                resilience=ResilienceConfig(),
                eventtime=EventTimeConfig(lateness_slots=4),
                population=consumers,
            )

        with pytest.raises(ConfigurationError, match="event-time"):
            ElasticFleet(
                CONSUMERS, tmp_path, eventtime_factory, detector_factory
            )

    def test_close_is_idempotent(self, tmp_path):
        fleet = _fleet(tmp_path)
        fleet.close()
        fleet.close()
        with pytest.raises(SupervisorError):
            fleet.ingest_cycle(readings(0))

    def test_close_after_ingest_releases_every_worker(self, tmp_path):
        fleet = _fleet(tmp_path)
        fleet.ingest_cycle(readings(0))
        wals = [w.monitor.inner.wal for w in fleet.workers()]
        fleet.close()
        fleet.close()  # second close must be a no-op, not a crash
        assert all(w.monitor is None for w in fleet.workers())
        assert all(wal._closed for wal in wals)

    def test_rejected_roster_writes_no_manifest(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ElasticFleet((), tmp_path, service_factory, detector_factory)
        assert not (tmp_path / ElasticFleet.MANIFEST).exists()
        # Nothing half-built is left behind: a valid roster starts fresh.
        with _fleet(tmp_path) as fleet:
            assert fleet.cycle == 0
            assert fleet.shards == ("shard-0000", "shard-0001")

    def test_unknown_shard_queries_raise(self, tmp_path):
        with _fleet(tmp_path) as fleet:
            with pytest.raises(SupervisorError):
                fleet.kill("shard-0099")
            with pytest.raises(SupervisorError):
                fleet.service("shard-0099")

    def test_exit_after_close_does_not_raise(self, tmp_path):
        with _fleet(tmp_path) as fleet:
            fleet.close()

    def test_close_survives_worker_close_failure(self, tmp_path):
        fleet = _fleet(tmp_path)
        fleet.ingest_cycle(readings(0))
        first, second = fleet.workers()
        other_wal = second.monitor.inner.wal

        class ExplodingClose:
            def __init__(self, inner):
                self.inner = inner

            def __getattr__(self, name):
                return getattr(self.inner, name)

            def close(self):
                raise OSError("disk pulled mid-close")

        exploding = ExplodingClose(first.monitor)
        first.monitor = exploding
        fleet.close()  # must swallow the failure, close the rest
        assert all(w.monitor is None for w in fleet.workers())
        assert other_wal._closed
        exploding.inner.close()  # release the file the fault kept open

    def test_partial_build_failure_closes_cleanly(self, tmp_path):
        calls = []

        def exploding(consumers):
            calls.append(consumers)
            if len(calls) > 1:
                raise RuntimeError("boom building shard 2")
            return service_factory(consumers)

        with pytest.raises(RuntimeError, match="boom"):
            ElasticFleet(CONSUMERS, tmp_path, exploding, detector_factory)
        # The base_dir is fully released; a fresh fleet starts cleanly.
        with _fleet(tmp_path) as retry:
            retry.ingest_cycle(readings(0))


    def test_partial_build_failure_closes_built_wals(
        self, tmp_path, monkeypatch
    ):
        """A factory blowing up on shard 2 must not leak shard 1's WAL."""
        built = []
        wrap = ElasticFleet._wrap

        def recording_wrap(fleet, service, worker):
            fenced = wrap(fleet, service, worker)
            built.append(fenced.inner.wal)
            return fenced

        calls = []

        def exploding(consumers):
            calls.append(consumers)
            if len(calls) > 1:
                raise RuntimeError("boom building shard 2")
            return service_factory(consumers)

        monkeypatch.setattr(ElasticFleet, "_wrap", recording_wrap)
        with pytest.raises(RuntimeError, match="boom"):
            ElasticFleet(CONSUMERS, tmp_path, exploding, detector_factory)
        assert len(built) == 1  # shard 1 was built before the failure
        assert all(wal._closed for wal in built)


class TestFixedRing:
    """The placement ``--shards N`` has always used: the ring's fixed
    default seed, so old state directories keep their routing."""

    def test_placement_is_roster_order_insensitive(self, tmp_path):
        shuffled = ("c4", "c2", "c6", "c1", "c5", "c3")
        with ElasticFleet(
            shuffled, tmp_path / "a", service_factory, detector_factory
        ) as a, _fleet(tmp_path / "b") as b:
            placed = {w.name: w.consumers for w in a.workers()}
            assert placed == {w.name: w.consumers for w in b.workers()}
        placed_ids = [cid for members in placed.values() for cid in members]
        assert sorted(placed_ids) == sorted(CONSUMERS)

    def test_pinned_30_consumer_fixture_routing(self, tmp_path):
        """Historical fixtures must keep routing identically forever."""
        thirty = tuple(f"m{i:03d}" for i in range(30))
        with ElasticFleet(
            thirty, tmp_path, service_factory, detector_factory, n_shards=3
        ) as fleet:
            placed = {w.name: w.consumers for w in fleet.workers()}
        assert placed == {
            "shard-0000": (
                "m006", "m007", "m009", "m012", "m014", "m015",
                "m017", "m019", "m024", "m027", "m029",
            ),
            "shard-0001": (
                "m001", "m002", "m004", "m010", "m011", "m013",
                "m016", "m018", "m020", "m022", "m023", "m026",
            ),
            "shard-0002": (
                "m000", "m003", "m005", "m008", "m021", "m025", "m028",
            ),
        }

    def test_single_shard_keeps_everyone(self, tmp_path):
        with _fleet(tmp_path, n_shards=1) as fleet:
            (worker,) = fleet.workers()
            assert worker.consumers == CONSUMERS

    def test_shard_directory_layout(self, tmp_path):
        with _fleet(tmp_path) as fleet:
            workers = fleet.workers()
            assert [w.name for w in workers] == ["shard-0000", "shard-0001"]
            assert workers[0].consumers == ("c1", "c3", "c4", "c6")
            assert workers[1].consumers == ("c2", "c5")
            assert workers[0].wal_dir == str(tmp_path / "shard-0000")
            assert workers[1].checkpoint_path == str(
                tmp_path / "shard-0001.ckpt"
            )
            for t in range(SLOTS_PER_WEEK):
                fleet.ingest_cycle(readings(t))
        assert (tmp_path / "shard-0000").is_dir()
        assert (tmp_path / "shard-0001.ckpt").exists()
        assert (tmp_path / ElasticFleet.MANIFEST).exists()

    def test_construction_does_not_warn(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _fleet(tmp_path).close()

    def test_invalid_shard_counts(self, tmp_path):
        with pytest.raises(ConfigurationError):
            _fleet(tmp_path / "zero", n_shards=0)
        with pytest.raises(ConfigurationError):
            ElasticFleet(
                ("a", "b"),
                tmp_path / "over",
                service_factory,
                detector_factory,
                n_shards=3,
            )

    def test_growth_moves_few_consumers(self, tmp_path):
        """The reason for the ring: growing a ``--shards`` fleet must not
        reshuffle everyone."""
        roster = tuple(f"m{i:03d}" for i in range(120))
        with ElasticFleet(
            roster, tmp_path, service_factory, detector_factory, n_shards=3
        ) as fleet:
            before = {
                cid: w.name for w in fleet.workers() for cid in w.consumers
            }
            added = fleet.add_shard()
            after = {
                cid: w.name for w in fleet.workers() for cid in w.consumers
            }
        assert sorted(after) == sorted(roster)
        moved = [cid for cid in roster if before[cid] != after[cid]]
        # Minimal-movement bound: about n/shards, never almost all, and
        # every mover lands on the new shard.
        assert 0 < len(moved) <= int(len(roster) / 4 * 1.5)
        assert {after[cid] for cid in moved} == {added}

    def test_wal_dir_without_manifest_is_recovered(self, tmp_path):
        """A shard directory with WAL and checkpoint but no fleet.json
        (the layout of a state directory written before the manifest
        existed) resumes where it stopped."""
        baseline, _ = _run_fleet(tmp_path / "baseline")
        base = tmp_path / "old"
        stop = SLOTS_PER_WEEK + 10
        with _fleet(base) as fleet:
            for t in range(stop):
                fleet.ingest_cycle(readings(t))
        os.remove(base / ElasticFleet.MANIFEST)
        assert (base / "shard-0000.ckpt").exists()
        assert any(
            name.startswith("wal-") for name in os.listdir(base / "shard-0000")
        )
        with _fleet(base) as reopened:
            assert reopened.cycle == stop
            assert reopened.restarts_total == 0
            for t in range(stop, WEEKS * SLOTS_PER_WEEK):
                reopened.ingest_cycle(readings(t))
            assert _signatures(reopened) == baseline


class TestDispatchAndWatermarks:
    def test_week_boundary_reports_every_shard(self, tmp_path):
        with _fleet(tmp_path) as fleet:
            for t in range(SLOTS_PER_WEEK):
                reports = fleet.ingest_cycle(readings(t))
            assert set(reports) == set(fleet.shards)
            assert all(
                r is not None and r.week_index == 0
                for r in reports.values()
            )
            assert fleet.frontier == SLOTS_PER_WEEK - 1
            assert fleet.low_watermark == SLOTS_PER_WEEK - 1

    def test_week_boundary_beats_every_worker(self, tmp_path):
        with _fleet(tmp_path) as fleet:
            for t in range(SLOTS_PER_WEEK):
                reports = fleet.ingest_cycle(readings(t))
            assert fleet.cycle == SLOTS_PER_WEEK
            assert set(reports) == {"shard-0000", "shard-0001"}
            for worker in fleet.workers():
                assert worker.beats == SLOTS_PER_WEEK
                assert worker.last_cycle == SLOTS_PER_WEEK - 1

    def test_off_boundary_cycles_return_none(self, tmp_path):
        with _fleet(tmp_path) as fleet:
            reports = fleet.ingest_cycle(readings(0))
            assert reports == {"shard-0000": None, "shard-0001": None}

    def test_hung_shard_lags_alone(self, tmp_path):
        with _fleet(tmp_path, hang_tolerance_cycles=5) as fleet:
            for t in range(3):
                fleet.ingest_cycle(readings(t))
            victim = fleet.shards[0]
            fleet.hang(victim)
            for t in range(3, 6):
                fleet.ingest_cycle(readings(t))
            # Healthy shards kept ingesting at the frontier; only the
            # hung one trails it.  No fleet-wide lockstep stall.
            assert fleet.frontier == 5
            assert fleet.low_watermark == 2
            assert fleet.shard_lag(victim) == 3
            assert fleet.lagging_shards(0) == (victim,)
            other = [s for s in fleet.shards if s != victim]
            assert all(fleet.shard_lag(s) == 0 for s in other)

    def test_hung_shard_heals_and_catches_up(self, tmp_path):
        with _fleet(tmp_path, hang_tolerance_cycles=2) as fleet:
            fleet.hang(fleet.shards[1])
            for t in range(2 * SLOTS_PER_WEEK):
                fleet.ingest_cycle(readings(t))
            # Healed (pending exceeded tolerance), fully caught up.
            assert fleet.low_watermark == 2 * SLOTS_PER_WEEK - 1
            assert fleet.restarts_total == 1
            streams = fleet.weekly_reports()
            assert all(len(reports) == 2 for reports in streams.values())

    def test_pending_queue_is_bounded_by_tolerance(self, tmp_path):
        with _fleet(tmp_path, hang_tolerance_cycles=3) as fleet:
            victim = fleet.shards[0]
            fleet.hang(victim)
            for t in range(50):
                fleet.ingest_cycle(readings(t))
                backlog = len(
                    next(
                        w for w in fleet.workers() if w.name == victim
                    ).pending
                )
                assert backlog <= 4  # tolerance + the cycle in flight


class TestLoadControlledDispatch:
    def test_ingest_payload_carries_no_deadline(self, tmp_path):
        """The cycle budget stays coordinator-side: the sealed ingest
        envelope holds only the readings, snapshot and cycle, so its
        fingerprint never pickles the deadline's metrics or events."""
        from repro.loadcontrol.config import LoadControlConfig, ShedPolicy
        from repro.loadcontrol.deadline import Deadline
        from repro.loadcontrol.queue import BufferedIngestor
        from repro.transport import InProcTransport

        sealed = []

        class Recording(InProcTransport):
            def call(self, envelope):
                if envelope.kind == "ingest":
                    sealed.append(envelope)
                return super().call(envelope)

        metrics = MetricsRegistry()
        with _fleet(
            tmp_path, transport=Recording(), metrics=metrics
        ) as fleet:
            ingestor = BufferedIngestor(
                fleet.ingest_cycle,
                config=LoadControlConfig(
                    shed_policy=ShedPolicy.PRIORITY, cycle_deadline_s=1e-9
                ),
                metrics=metrics,
            )
            for t in range(SLOTS_PER_WEEK):
                ingestor.submit(readings(t))
                ingestor.drain()
        assert len(sealed) == 2 * SLOTS_PER_WEEK
        for envelope in sealed:
            assert set(envelope.payload) == {"reported", "snapshot", "cycle"}
            assert not any(
                isinstance(value, Deadline)
                for value in envelope.payload.values()
            )
        # The budget still reached every shard's ingest.
        assert ingestor.deadlines_overrun == SLOTS_PER_WEEK


class TestHealing:
    def test_killed_shard_restarts_with_epoch_bump(self, tmp_path):
        metrics = MetricsRegistry()
        with _fleet(tmp_path, metrics=metrics) as fleet:
            victim = fleet.shards[0]
            before = fleet.epoch(victim)
            for t in range(10):
                fleet.ingest_cycle(readings(t))
            fleet.kill(victim)
            for t in range(10, SLOTS_PER_WEEK):
                fleet.ingest_cycle(readings(t))
            assert fleet.epoch(victim) == before + 1
            assert fleet.restarts_total == 1
            totals = metrics.totals()
            assert totals[("fdeta_fleet_restarts_total", ("killed",))] == 1.0
            # The dead worker's history was durable: week 0 is complete.
            assert [
                r.week_index for r in fleet.service(victim).reports
            ] == [0]

    def test_stale_wrapper_is_fenced_after_restart(self, tmp_path):
        with _fleet(tmp_path) as fleet:
            victim = fleet.shards[0]
            for t in range(3):
                fleet.ingest_cycle(readings(t))
            stale = next(
                w for w in fleet.workers() if w.name == victim
            ).monitor
            fleet.kill(victim)
            fleet.ingest_cycle(readings(3))  # triggers the restart
            from repro.errors import StaleWriterError

            with pytest.raises(StaleWriterError):
                stale.ingest_cycle(readings(4))


    def test_killed_shard_recovers_bit_identical_reports(self, tmp_path):
        baseline, baseline_restarts = _run_fleet(tmp_path / "baseline")
        assert baseline_restarts == 0
        # The thief's shard produces a scored week with c1 on top.
        alerts = baseline["shard-0000"][2][1]
        scores = {alert[0]: alert[2] for alert in alerts}
        assert scores and max(scores, key=scores.get) == "c1"

        metrics = MetricsRegistry()

        def chaos(fleet, t):
            if t == THEFT_START + 50:  # mid-week-2, after theft starts
                fleet.kill("shard-0000")

        killed, restarts = _run_fleet(
            tmp_path / "killed", chaos=chaos, metrics=metrics
        )
        assert restarts == 1
        assert metrics.counter(
            "fdeta_fleet_restarts_total", labels=("reason",)
        ).value(reason="killed") == 1
        assert killed == baseline

    def test_kill_marks_worker_dead_until_next_dispatch(self, tmp_path):
        metrics = MetricsRegistry()
        with _fleet(tmp_path, metrics=metrics) as fleet:
            for t in range(10):
                fleet.ingest_cycle(readings(t))
            fleet.kill("shard-0000")
            gauge = metrics.gauge("fdeta_fleet_workers", labels=("state",))
            assert gauge.value(state="dead") == 1
            with pytest.raises(SupervisorError):
                fleet.service("shard-0000")
            fleet.ingest_cycle(readings(10))
            assert gauge.value(state="dead") == 0
            # Recovery from checkpoint + WAL caught the shard up.
            assert fleet.service("shard-0000").cycles_ingested == fleet.cycle

    def test_backpressure_reattached_after_restart(self, tmp_path):
        signal = BackpressureSignal()
        with _fleet(tmp_path) as fleet:
            fleet.backpressure = signal
            assert all(
                service.backpressure is signal
                for service in fleet.services().values()
            )
            fleet.ingest_cycle(readings(0))
            fleet.kill("shard-0000")
            fleet.ingest_cycle(readings(1))
            assert fleet.restarts_total == 1
            assert fleet.service("shard-0000").backpressure is signal

    def test_hung_shard_restarts_after_tolerance(self, tmp_path):
        metrics = MetricsRegistry()
        with _fleet(
            tmp_path, hang_tolerance_cycles=2, metrics=metrics
        ) as fleet:
            for t in range(10):
                fleet.ingest_cycle(readings(t))
            fleet.hang("shard-0000")
            # Within tolerance: no ingestion, no beats, no restart.
            for t in (10, 11):
                reports = fleet.ingest_cycle(readings(t))
                assert reports == {"shard-0000": None, "shard-0001": None}
            assert fleet.workers()[0].beats == 10
            assert fleet.restarts_total == 0
            assert metrics.gauge(
                "fdeta_fleet_workers", labels=("state",)
            ).value(state="hung") == 1
            # Past tolerance: restart, then drain the missed cycles.
            fleet.ingest_cycle(readings(12))
            assert fleet.restarts_total == 1
            assert metrics.counter(
                "fdeta_fleet_restarts_total", labels=("reason",)
            ).value(reason="hang") == 1
            for name in fleet.shards:
                assert fleet.service(name).cycles_ingested == fleet.cycle

    def test_hang_heals_to_bit_identical_reports(self, tmp_path):
        baseline, _ = _run_fleet(tmp_path / "baseline")

        def chaos(fleet, t):
            if t == THEFT_START + 100:
                fleet.hang("shard-0001")

        healed, restarts = _run_fleet(tmp_path / "hung", chaos=chaos)
        assert restarts == 1
        assert healed == baseline

    def test_crash_is_retried_same_cycle(self, tmp_path):
        crash_at = THEFT_START + 7
        crashed_at = []

        def setup(fleet):
            # Only the first incarnation is flaky: the rebuilt worker is
            # a fresh monitor without the injected fault.
            inner = fleet.workers()[0].monitor.inner
            real = inner.ingest_cycle

            def flaky(reported, snapshot=None, cycle_index=None, **kwargs):
                if cycle_index == crash_at and not crashed_at:
                    crashed_at.append(cycle_index)
                    raise WorkerCrashed(f"injected at cycle {cycle_index}")
                return real(
                    reported, snapshot, cycle_index=cycle_index, **kwargs
                )

            inner.ingest_cycle = flaky

        def chaos(fleet, t):
            if t == crash_at + 1:
                # The crashed cycle was re-ingested within the same
                # ingest_cycle call: nothing is left pending.
                assert fleet.service("shard-0000").cycles_ingested == t
                assert fleet.shard_lag("shard-0000") == 0

        baseline, _ = _run_fleet(tmp_path / "baseline")
        metrics = MetricsRegistry()
        crashed, restarts = _run_fleet(
            tmp_path / "crashed", chaos=chaos, setup=setup, metrics=metrics
        )
        assert crashed_at == [crash_at]
        assert restarts == 1
        assert metrics.counter(
            "fdeta_fleet_restarts_total", labels=("reason",)
        ).value(reason="crash") == 1
        assert crashed == baseline


class TestColdStart:
    def test_reopen_resumes_topology_and_epochs(self, tmp_path):
        fleet = _fleet(tmp_path)
        for t in range(SLOTS_PER_WEEK + 10):
            fleet.ingest_cycle(readings(t))
        shards = fleet.shards
        epochs = {name: fleet.epoch(name) for name in shards}
        fleet.close()

        reopened = ElasticFleet(
            (), tmp_path, service_factory, detector_factory
        )
        try:
            # Topology from the manifest; every epoch bumped so any
            # survivor of the previous incarnation is fenced out.
            assert reopened.shards == shards
            assert all(
                reopened.epoch(name) == epochs[name] + 1
                for name in shards
            )
            assert reopened.cycle == SLOTS_PER_WEEK + 10
            for t in range(reopened.cycle, WEEKS * SLOTS_PER_WEEK):
                reopened.ingest_cycle(readings(t))
            merged = reopened.merged_reports()
            assert [r.week_index for r in merged] == [0, 1, 2]
        finally:
            reopened.close()

    def test_refeed_overlap_is_skipped_not_double_counted(self, tmp_path):
        fleet = _fleet(tmp_path)
        for t in range(20):
            fleet.ingest_cycle(readings(t))
        fleet.close()
        reopened = ElasticFleet(
            (), tmp_path, service_factory, detector_factory
        )
        try:
            assert reopened.cycle == 20
            # A head-end that replays from 0 after the fleet recovered:
            # covered cycles are dropped before the durable layer, so
            # duplicate counters stay serial-equal to an undisturbed run.
            before = reopened.merged_metrics().totals()
            for worker in reopened.workers():
                worker.pending.extend(
                    (t, readings(t), None) for t in range(5)
                )
            reopened.ingest_cycle(readings(20))
            after = reopened.merged_metrics().totals()
            dup_keys = [
                k for k in after if "duplicate" in k[0] and after[k] > 0
            ]
            assert dup_keys == [
                k for k in before if "duplicate" in k[0] and before[k] > 0
            ]
        finally:
            reopened.close()
