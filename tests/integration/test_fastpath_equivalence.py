"""The fast-path engine must not move a single experiment number.

Three claims, each pinned against the reference path:

* **interned histories** — a consensus/leader-election run produces
  byte-identical tables whether the electors run the library's stamped
  merge over hash-consed nodes or the tuple oracle
  (``counter_oracle.OracleElector``: plain tuple histories, generic
  minimum, trie prefix maxima);
* **aggregate traces** — ``trace_mode="aggregate"`` reports the same
  sends, deliveries, decisions, and payload statistics as the full
  per-event trace;
* **parallel grids** — ``jobs=N`` renders the same table as a serial
  run.
"""

from counter_oracle import OracleElector
from repro.core import ess_consensus, pseudo_leader
from repro.core.ess_consensus import ESSConsensus
from repro.experiments.common import run_cells, sample_consensus
from repro.experiments.consensus_tables import run_f1
from repro.experiments.state_growth import run_t3
from repro.giraf.adversary import CrashSchedule, RandomSource
from repro.giraf.environments import (
    BernoulliLinks,
    EventuallyStableSourceEnvironment,
)
from repro.giraf.scheduler import LockStepScheduler
from repro.sim.metrics import payload_growth
from repro.sim.runner import run_ess_consensus


def _ess_environment(seed: int = 0) -> EventuallyStableSourceEnvironment:
    return EventuallyStableSourceEnvironment(
        stabilization_round=6,
        preferred_source=0,
        source_schedule=RandomSource(seed),
        link_policy=BernoulliLinks(0.4, seed=seed + 7),
    )


def _ess_sample(trace_mode: str = "full"):
    return sample_consensus(
        ESSConsensus,
        [3, 1, 4, 1, 5],
        _ess_environment(),
        crash_schedule=CrashSchedule.fraction(5, 0.25, seed=2, protect={0}),
        max_rounds=120,
        trace_mode=trace_mode,
    )


def _on_oracle_electors(monkeypatch, run):
    """``run()`` with every elector swapped for the tuple oracle."""
    with monkeypatch.context() as patch:
        patch.setattr(pseudo_leader, "PseudoLeaderElector", OracleElector)
        patch.setattr(ess_consensus, "PseudoLeaderElector", OracleElector)
        return run()


class TestInternedHistoriesChangeNothing:
    def test_ess_consensus_run_identical(self, monkeypatch):
        def run():
            return run_ess_consensus([5, 2, 8, 1], stabilization_round=4, seed=9)

        interned = run()
        tuples = _on_oracle_electors(monkeypatch, run)
        # the pin is not vacuous: the two runs carry different forms
        (oracle_message,) = tuples.trace.sends[0].payload
        (interned_message,) = interned.trace.sends[0].payload
        assert type(oracle_message.history) is tuple
        assert type(interned_message.history) is not tuple
        assert interned.metrics == tuples.metrics
        assert sorted(
            (d.pid, d.value, d.round_no) for d in interned.trace.decisions
        ) == sorted((d.pid, d.value, d.round_no) for d in tuples.trace.decisions)
        # payloads embed histories and counters; they must compare equal
        # element-for-element across the two representations
        assert len(interned.trace.sends) == len(tuples.trace.sends)
        for a, b in zip(interned.trace.sends, tuples.trace.sends):
            assert (a.pid, a.round_no, a.time) == (b.pid, b.round_no, b.time)
            assert a.payload == b.payload

    def test_t3_table_byte_identical(self, monkeypatch):
        interned = run_t3(quick=True, seed=0).render()
        tupled = _on_oracle_electors(
            monkeypatch, lambda: run_t3(quick=True, seed=0).render()
        )
        assert interned == tupled


class TestAggregateTracesChangeNothing:
    def test_consensus_summary_identical(self):
        full = _ess_sample("full")
        aggregate = _ess_sample("aggregate")
        assert aggregate.terminated == full.terminated
        assert aggregate.safe == full.safe
        assert aggregate.last_decision_round == full.last_decision_round
        assert aggregate.sends == full.sends
        assert aggregate.deliveries == full.deliveries
        assert aggregate.trace.aggregate and not full.trace.aggregate
        assert not aggregate.trace.sends and not aggregate.trace.deliveries

    def test_payload_growth_identical(self):
        def leader_trace(trace_mode: str, payload_stats: bool):
            scheduler = LockStepScheduler(
                [ESSConsensus(value) for value in [7, 7, 2, 9]],
                _ess_environment(3),
                max_rounds=40,
                trace_mode=trace_mode,
                payload_stats=payload_stats,
            )
            return scheduler.run()

        full = payload_growth(leader_trace("full", False))
        aggregate = payload_growth(leader_trace("aggregate", True))
        assert aggregate == full

    def test_aggregate_trace_round_trips_through_json(self):
        from repro.serialization import trace_from_json, trace_to_json

        scheduler = LockStepScheduler(
            [ESSConsensus(value) for value in [7, 7, 2, 9]],
            _ess_environment(3),
            max_rounds=25,
            trace_mode="aggregate",
            payload_stats=True,
        )
        trace = scheduler.run()
        clone = trace_from_json(trace_to_json(trace))
        assert clone.aggregate and clone.payload_stats
        assert clone.send_count() == trace.send_count() > 0
        assert clone.message_count() == trace.message_count() > 0
        assert payload_growth(clone) == payload_growth(trace)

    def test_payload_growth_rejects_statless_aggregate_trace(self):
        import pytest

        scheduler = LockStepScheduler(
            [ESSConsensus(value) for value in [1, 2]],
            _ess_environment(4),
            max_rounds=5,
            trace_mode="aggregate",
        )
        with pytest.raises(ValueError, match="payload_stats"):
            payload_growth(scheduler.run())

    def test_crashes_and_late_deliveries_counted_identically(self):
        # Crashes plus silent links force the late-delivery queue (the
        # _flush_late path) to carry traffic in both modes.
        def run(trace_mode: str):
            return sample_consensus(
                ESSConsensus,
                [3, 1, 4, 1, 5, 9],
                EventuallyStableSourceEnvironment(
                    stabilization_round=9,
                    preferred_source=1,
                    source_schedule=RandomSource(5),
                ),
                crash_schedule=CrashSchedule.fraction(6, 0.4, seed=11, protect={1}),
                max_rounds=150,
                trace_mode=trace_mode,
            )

        full = run("full")
        aggregate = run("aggregate")
        assert aggregate.deliveries == full.deliveries
        assert aggregate.sends == full.sends
        assert aggregate.last_decision_round == full.last_decision_round


class TestParallelGridChangesNothing:
    def test_run_cells_preserves_order_and_values(self):
        cells = list(range(7))
        assert run_cells(_square, cells, jobs=3) == [c * c for c in cells]
        assert run_cells(_square, cells, jobs=None) == [c * c for c in cells]

    def test_f1_table_byte_identical(self):
        serial = run_f1(quick=True, seed=0).render()
        parallel = run_f1(quick=True, seed=0, jobs=2).render()
        assert serial == parallel

    def test_t3_table_byte_identical_parallel(self):
        serial = run_t3(quick=True, seed=1).render()
        parallel = run_t3(quick=True, seed=1, jobs=2).render()
        assert serial == parallel


def _square(cell: int) -> int:
    return cell * cell
