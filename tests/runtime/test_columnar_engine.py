"""Engine equivalence: ``engine="columnar"`` pinned to the object engine.

The columnar engine is a representation switch, not a semantics
switch: for every configuration the produced
:class:`~repro.giraf.traces.RunTrace` must compare equal as a whole
(dataclass equality covers every counter, record dict, and event
list), and the final algorithm views — histories, counters, leader
flags, process rounds — must match field by field.  These tests sweep
schedulers × environments × link policies × crashes × trace options,
covering both the whole-round matrix path (lock-step aggregate
heartbeat runs) and the per-process columnar-elector fallback (full
traces, drifting scheduler, injected round hooks, consensus on top).
"""

import dataclasses
import logging

import pytest

from repro.core.columnar import COUNTER_MAX, ColumnarElector, numpy_available
from repro.core.history import clear_intern_cache
from repro.core.pseudo_leader import HeartbeatPseudoLeader
from repro.giraf.adversary import (
    NEVER_DELIVERED,
    ConstantDelay,
    CrashPlan,
    CrashSchedule,
    RandomSource,
    RoundRobinSource,
    UniformDelay,
)
from repro.giraf.environments import (
    AllTimelyLinks,
    BernoulliLinks,
    EventualSynchronyEnvironment,
    EventuallyStableSourceEnvironment,
    MovingSourceEnvironment,
    SilentLinks,
)
from repro.giraf.scheduler import DriftingScheduler, LockStepScheduler
from repro.giraf.traces import RunTrace
from repro.runtime.columnar_engine import ColumnarLockStepEngine
from repro.runtime.kernel import RuntimeKernel
from repro.sim.runner import run_ess_consensus

CRASHES = CrashSchedule(
    {1: CrashPlan(2, True), 3: CrashPlan(3, False), 5: CrashPlan(5, True)}
)

ENVIRONMENTS = {
    "ms-silent-const": lambda: MovingSourceEnvironment(
        RoundRobinSource(), SilentLinks(), ConstantDelay(3)
    ),
    "ms-bernoulli-uniform": lambda: MovingSourceEnvironment(
        RandomSource(3), BernoulliLinks(0.4, seed=7), UniformDelay(2, 4, seed=5)
    ),
    "ms-alltimely": lambda: MovingSourceEnvironment(
        RoundRobinSource(), AllTimelyLinks(), ConstantDelay(2)
    ),
    "es-bernoulli": lambda: EventualSynchronyEnvironment(
        4, RandomSource(1), BernoulliLinks(0.3, seed=2), UniformDelay(2, 5, seed=9)
    ),
    "ess-stable": lambda: EventuallyStableSourceEnvironment(
        3, 0, RoundRobinSource(), BernoulliLinks(0.5, seed=4), ConstantDelay(2)
    ),
    "ms-never-delivered": lambda: MovingSourceEnvironment(
        RoundRobinSource(), SilentLinks(), ConstantDelay(NEVER_DELIVERED)
    ),
}

BACKENDS = ["numpy", "python"] if numpy_available() else ["python"]


def _final_views(scheduler):
    return [
        {
            "round": proc.round,
            "crashed": proc.crashed,
            "history": tuple(proc.algorithm.elector.history),
            "counters": {
                tuple(history): count
                for history, count in proc.algorithm.elector.counters.items()
            },
            "leader": proc.algorithm.currently_leader,
            "since": proc.algorithm.leader_since,
            "snapshot": dict(proc.algorithm.snapshot()),
        }
        for proc in scheduler.processes
    ]


def _run(
    engine,
    *,
    env="ms-bernoulli-uniform",
    scheduler="lockstep",
    crashes=None,
    n=7,
    rounds=9,
    record_snapshots=True,
    trace_mode="aggregate",
    payload_stats=True,
    on_round=None,
):
    clear_intern_cache()
    algorithms = [HeartbeatPseudoLeader(pid % 3) for pid in range(n)]
    if scheduler == "lockstep":
        driver = LockStepScheduler(
            algorithms,
            ENVIRONMENTS[env](),
            crash_schedule=crashes,
            max_rounds=rounds,
            record_snapshots=record_snapshots,
            trace_mode=trace_mode,
            payload_stats=payload_stats,
            on_round=on_round,
            engine=engine,
        )
    else:
        driver = DriftingScheduler(
            algorithms,
            ENVIRONMENTS[env](),
            crash_schedule=crashes,
            max_rounds=rounds,
            record_snapshots=record_snapshots,
            trace_mode=trace_mode,
            engine=engine,
        )
    trace = driver.run()
    return trace, _final_views(driver)


def _assert_equivalent(**kwargs):
    reference_trace, reference_views = _run("object", **kwargs)
    columnar_trace, columnar_views = _run("columnar", **kwargs)
    assert columnar_trace == reference_trace
    assert columnar_views == reference_views


@pytest.mark.parametrize("env", sorted(ENVIRONMENTS))
@pytest.mark.parametrize("crashed", [False, True], ids=["nocrash", "crash"])
class TestWholeRoundEnginePins:
    """Lock-step aggregate heartbeat runs take the matrix path."""

    def test_trace_and_views_identical(self, env, crashed):
        _assert_equivalent(env=env, crashes=CRASHES if crashed else None)


class TestWholeRoundEngineOptions:
    def test_without_snapshots_or_payload_stats(self):
        _assert_equivalent(record_snapshots=False, payload_stats=False)

    def test_never_delivered_fast_path(self):
        _assert_equivalent(env="ms-never-delivered", crashes=CRASHES)

    def test_single_process(self):
        _assert_equivalent(n=1, crashes=None)

    def test_silent_links_draw_no_link_plan_when_lates_drop(self):
        # Nothing non-obligatory can arrive: no link is timely and every
        # late is dropped, so the matrix tick never asks for a plan.
        def link_plans(engine):
            environment = ENVIRONMENTS["ms-never-delivered"]()
            policy = environment.link_policy
            calls = []

            def counted(*args):
                calls.append(args)
                return SilentLinks.timely_block(policy, *args)

            policy.timely_block = counted
            LockStepScheduler(
                [HeartbeatPseudoLeader(pid % 3) for pid in range(7)],
                environment,
                max_rounds=9,
                trace_mode="aggregate",
                engine=engine,
            ).run()
            return len(calls)

        assert link_plans("object") > 0
        assert link_plans("columnar") == 0

    def test_monobrand(self):
        clear_intern_cache()
        reference = LockStepScheduler(
            [HeartbeatPseudoLeader("x") for _ in range(6)],
            ENVIRONMENTS["ess-stable"](),
            max_rounds=8,
            trace_mode="aggregate",
            engine="object",
        )
        reference_trace = reference.run()
        clear_intern_cache()
        columnar = LockStepScheduler(
            [HeartbeatPseudoLeader("x") for _ in range(6)],
            ENVIRONMENTS["ess-stable"](),
            max_rounds=8,
            trace_mode="aggregate",
            engine="columnar",
        )
        assert columnar.run() == reference_trace
        assert _final_views(columnar) == _final_views(reference)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backends_agree(self, backend, monkeypatch):
        monkeypatch.setenv("REPRO_COLUMNAR_BACKEND", backend)
        _assert_equivalent(env="ess-stable", crashes=CRASHES)


class TestFallbackPins:
    """Configurations the matrix engine refuses still honour
    ``engine="columnar"`` via per-process columnar electors."""

    def test_full_trace_mode_events_identical(self):
        _assert_equivalent(trace_mode="full", payload_stats=False)

    def test_on_round_hook(self):
        ticks = []
        _assert_equivalent(on_round=ticks.append)
        assert ticks  # both runs drove the hook

    def test_drifting_scheduler_aggregate(self):
        _assert_equivalent(scheduler="drifting", payload_stats=False)

    def test_drifting_scheduler_full(self):
        _assert_equivalent(
            scheduler="drifting", trace_mode="full", payload_stats=False
        )

    def test_ess_consensus_checker_verdicts(self):
        clear_intern_cache()
        reference = run_ess_consensus(
            [3, 1, 2, 0], stabilization_round=4, max_rounds=80, engine="object"
        )
        clear_intern_cache()
        columnar = run_ess_consensus(
            [3, 1, 2, 0], stabilization_round=4, max_rounds=80, engine="columnar"
        )
        assert columnar.trace == reference.trace
        assert columnar.report == reference.report
        assert columnar.metrics == reference.metrics


class TestEnginePath:
    """A run says which engine path it took, and logs a fallback."""

    def _scheduler(self, engine, **kwargs):
        kwargs.setdefault("trace_mode", "aggregate")
        return LockStepScheduler(
            [HeartbeatPseudoLeader(pid % 2) for pid in range(4)],
            ENVIRONMENTS["ms-silent-const"](),
            max_rounds=4,
            engine=engine,
            **kwargs,
        )

    def test_object_engine(self):
        assert self._scheduler("object").engine_path == "object"

    def test_matrix_engine_logs_nothing(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="repro.giraf.scheduler"):
            scheduler = self._scheduler("columnar")
        assert scheduler.engine_path == "matrix"
        assert caplog.records == []

    def test_fallback_names_its_reason_in_one_debug_event(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="repro.giraf.scheduler"):
            scheduler = self._scheduler("columnar", trace_mode="full")
        assert scheduler.engine_path == "electors: trace_mode is not aggregate"
        (record,) = caplog.records
        assert record.levelno == logging.DEBUG
        assert record.engine_path == scheduler.engine_path
        assert "trace_mode is not aggregate" in record.getMessage()

    def test_a_declining_try_build_still_names_a_reason(self, monkeypatch):
        monkeypatch.setattr(
            ColumnarLockStepEngine, "try_build", classmethod(lambda *a, **k: None)
        )
        scheduler = self._scheduler("columnar")
        assert scheduler.engine_path == "electors: try_build declined"
        assert all(
            type(proc.algorithm.elector) is ColumnarElector
            for proc in scheduler.processes
        )

    def test_engine_path_stays_off_the_trace(self):
        assert "engine_path" not in {
            field.name for field in dataclasses.fields(RunTrace)
        }


class TestTryBuildEligibility:
    def _kernel(self, **kwargs):
        return RuntimeKernel(
            [HeartbeatPseudoLeader(pid % 2) for pid in range(4)],
            MovingSourceEnvironment(),
            engine="columnar",
            **kwargs,
        )

    def _reason(self, kernel, on_round=None):
        return ColumnarLockStepEngine.decline_reason(
            kernel, kernel.environment, on_round=on_round
        )

    def test_builds_for_aggregate_heartbeat(self):
        kernel = self._kernel(trace_mode="aggregate")
        engine = ColumnarLockStepEngine.try_build(
            kernel, kernel.environment, record_snapshots=False, on_round=None
        )
        assert engine is not None
        assert self._reason(kernel) is None

    def test_refuses_full_traces(self):
        kernel = self._kernel(trace_mode="full")
        assert (
            ColumnarLockStepEngine.try_build(
                kernel, kernel.environment, record_snapshots=False, on_round=None
            )
            is None
        )
        assert self._reason(kernel) == "trace_mode is not aggregate"

    def test_refuses_on_round_hook(self):
        kernel = self._kernel(trace_mode="aggregate")
        def hook(tick):
            return None

        assert (
            ColumnarLockStepEngine.try_build(
                kernel,
                kernel.environment,
                record_snapshots=False,
                on_round=hook,
            )
            is None
        )
        assert self._reason(kernel, on_round=hook) == "on_round hook set"

    def test_refuses_foreign_algorithms(self):
        from repro.core.ess_consensus import ESSConsensus

        kernel = RuntimeKernel(
            [ESSConsensus(pid) for pid in range(3)],
            MovingSourceEnvironment(),
            trace_mode="aggregate",
            engine="columnar",
        )
        assert (
            ColumnarLockStepEngine.try_build(
                kernel, kernel.environment, record_snapshots=False, on_round=None
            )
            is None
        )
        assert (
            self._reason(kernel) == "algorithm ESSConsensus is not a stock heartbeat"
        )

    def test_refuses_runs_past_int32_counters(self):
        # A counter grows by at most 1 per round: max_rounds bounds it,
        # and a bound past int32 sends the run to per-process electors.
        kernel = self._kernel(trace_mode="aggregate", max_rounds=COUNTER_MAX)
        assert (
            ColumnarLockStepEngine.try_build(
                kernel, kernel.environment, record_snapshots=False, on_round=None
            )
            is None
        )
        assert self._reason(kernel) == (
            f"max_rounds {COUNTER_MAX} reaches the int32 counter bound"
        )
        assert self._reason(
            self._kernel(trace_mode="aggregate", max_rounds=COUNTER_MAX - 1)
        ) is None

    def test_long_run_falls_back_to_electors_pinned(self):
        def scheduler(engine, max_rounds):
            clear_intern_cache()
            return LockStepScheduler(
                [HeartbeatPseudoLeader(pid % 3) for pid in range(5)],
                ENVIRONMENTS["ms-bernoulli-uniform"](),
                max_rounds=max_rounds,
                trace_mode="aggregate",
                engine=engine,
            )

        reference = scheduler("object", 8)
        reference.run()
        columnar = scheduler("columnar", COUNTER_MAX)
        assert columnar.engine_path.startswith("electors: max_rounds")
        for _ in range(8):
            columnar.step()
        assert all(
            type(proc.algorithm.elector) is ColumnarElector
            for proc in columnar.processes
        )
        assert _final_views(columnar) == _final_views(reference)

    def test_unknown_engine_rejected(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            RuntimeKernel(
                [HeartbeatPseudoLeader(0)],
                MovingSourceEnvironment(),
                engine="vectorized",
            )
