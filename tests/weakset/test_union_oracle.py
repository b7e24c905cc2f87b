"""Whole-run pin: delta-fed Algorithm-4 union vs the literal all-slot union.

``MSWeakSetAlgorithm.compute`` unites ``PROPOSED`` with only the
messages delivered since its previous call; the oracle
(``weakset_union_oracle.literal_compute``) rebuilds line 15's union of
every slot ``M[1..k]`` each round.  Every seeded schedule below runs
twice, once per implementation, and the two runs must agree on the
full ``RunTrace``, the ``OpLog`` and every process's
``PROPOSED``/``WRITTEN``/``BLOCK`` after every compute.

The schedules mix lock-step and drifting processes (mixed periods),
Bernoulli extra links, ``UniformDelay(2, ≤9)`` late deliveries and
``CrashSchedule.fraction(n, 0.3)``, so late envelopes land in slots a
receiver has already computed and, under drift, in slots of rounds it
has not reached yet.  :func:`test_schedules_exercise_old_and_future_slots`
checks that both happened, so the pin is not vacuous.
"""

from __future__ import annotations

import contextlib
import functools
import random
from collections import Counter, deque
from typing import Dict, Iterator, List, Tuple

import pytest

from repro.giraf.adversary import CrashSchedule, RandomSource, UniformDelay
from repro.giraf.automaton import GirafProcess, InboxView
from repro.giraf.environments import BernoulliLinks, MovingSourceEnvironment
from repro.giraf.scheduler import DriftingScheduler
from repro.weakset.ms_weakset import MSWeakSetAlgorithm, run_ms_weakset
from repro.weakset.spec import AddRecord, GetRecord, OpLog
from weakset_union_oracle import literal_union

SEEDS = range(16)


@contextlib.contextmanager
def _recording_computes() -> Iterator[List[Tuple]]:
    """Record ``(process, k, PROPOSED, WRITTEN, BLOCK)`` after every compute.

    Wraps whichever ``compute`` is installed, so it records the oracle
    inside :func:`literal_union`.  Processes are numbered by their
    first compute; the runs are deterministic, so the numbering agrees
    between the two implementations.
    """
    states: List[Tuple] = []
    order: Dict[MSWeakSetAlgorithm, int] = {}
    inner = MSWeakSetAlgorithm.__dict__["compute"]

    def compute(self, k, inbox):
        message = inner(self, k, inbox)
        index = order.setdefault(self, len(order))
        states.append((index, k, self.proposed, self.written, self.block))
        return message

    MSWeakSetAlgorithm.compute = compute
    try:
        yield states
    finally:
        MSWeakSetAlgorithm.compute = inner


@contextlib.contextmanager
def _counting_deliveries() -> Iterator[Counter]:
    """Count deliveries by the slot they land in, relative to the
    receiver's round, plus calls of the all-slot ``received_up_to``."""
    counts: Counter = Counter()
    receive = GirafProcess.receive
    receive_values = GirafProcess.receive_values
    received_up_to = InboxView.received_up_to

    def note(proc: GirafProcess, round_no: int) -> None:
        if proc.active:
            if round_no < proc.round:
                counts["computed_slot"] += 1
            elif round_no > proc.round:
                counts["future_slot"] += 1

    def counted_receive(self, envelope):
        note(self, envelope.round_no)
        receive(self, envelope)

    def counted_receive_values(self, round_no, values):
        note(self, round_no)
        receive_values(self, round_no, values)

    def counted_received_up_to(self, k):
        counts["received_up_to"] += 1
        return received_up_to(self, k)

    GirafProcess.receive = counted_receive
    GirafProcess.receive_values = counted_receive_values
    InboxView.received_up_to = counted_received_up_to
    try:
        yield counts
    finally:
        GirafProcess.receive = receive
        GirafProcess.receive_values = receive_values
        InboxView.received_up_to = received_up_to


# -- lock-step: the scripted driver ---------------------------------------
def _lockstep_run(seed: int):
    rng = random.Random(seed)
    n = rng.randint(3, 7)
    rounds = 40
    script: Dict[int, List[Tuple]] = {}
    for index in range(rng.randint(6, 14)):
        script.setdefault(rng.randint(1, rounds - 10), []).append(
            ("add", rng.randrange(n), f"v{index}")
        )
    for _ in range(rng.randint(3, 8)):
        script.setdefault(rng.randint(1, rounds), []).append(("get", rng.randrange(n)))
    environment = MovingSourceEnvironment(
        RandomSource(seed),
        BernoulliLinks(rng.choice((0.2, 0.5, 0.8)), seed),
        UniformDelay(2, rng.randint(2, 9), seed),
    )
    result = run_ms_weakset(
        n,
        script,
        environment=environment,
        crash_schedule=CrashSchedule.fraction(n, 0.3, seed=seed),
        max_rounds=rounds,
    )
    return result.trace, result.log


# -- drifting: adds issued from the processes' own computes --------------
class _ScriptedAdder(MSWeakSetAlgorithm):
    """Algorithm 4 plus its own client: the drifting scheduler has no
    operation hook, so each process starts its scripted adds (one in
    flight at a time) and takes its gets between its own rounds.
    Records are stamped with the process's round, not global time."""

    def __init__(self, pid: int, adds, gets, log: OpLog):
        super().__init__()
        self._pid = pid
        self._pending = deque(adds)           # (earliest round, value)
        self._gets = set(gets)
        self._log = log
        self._current = None

    def compute(self, k, inbox):
        message = super().compute(k, inbox)
        if self._current is not None and not self.block:
            self._current.end = float(k)
            self._current = None
        if self._current is None and self._pending and self._pending[0][0] <= k:
            _, value = self._pending.popleft()
            self.begin_add(value)
            self._current = AddRecord(pid=self._pid, value=value, start=float(k))
            self._log.adds.append(self._current)
            message = self.proposed
        if k in self._gets:
            self._log.gets.append(
                GetRecord(
                    pid=self._pid, start=float(k), end=float(k), result=self.get_now()
                )
            )
        return message


def _drifting_run(seed: int):
    rng = random.Random(1000 + seed)
    n = rng.randint(3, 7)
    rounds = 40
    log = OpLog()
    algorithms = []
    for pid in range(n):
        adds = sorted(
            (rng.randint(1, rounds - 10), f"p{pid}v{index}")
            for index in range(rng.randint(0, 4))
        )
        gets = rng.sample(range(1, rounds), 3)
        algorithms.append(_ScriptedAdder(pid, adds, gets, log))
    environment = MovingSourceEnvironment(
        RandomSource(seed),
        BernoulliLinks(rng.choice((0.2, 0.5, 0.8)), seed),
        UniformDelay(2, rng.randint(2, 9), seed),
    )
    scheduler = DriftingScheduler(
        algorithms,
        environment,
        CrashSchedule.fraction(n, 0.3, seed=seed),
        periods=[rng.choice((0.5, 1.0, 1.3, 2.2, 3.7)) for _ in range(n)],
        phases=[rng.random() for _ in range(n)],
        max_rounds=rounds,
        trace_mode="full",
    )
    return scheduler.run(), log


RUNS = {"lockstep": _lockstep_run, "drifting": _drifting_run}


@functools.lru_cache(maxsize=None)
def _compare(kind: str, seed: int) -> Counter:
    """Run one schedule on both implementations, assert they agree,
    and return the fast run's delivery counts."""
    run = RUNS[kind]
    with _counting_deliveries() as counts, _recording_computes() as fast_states:
        fast_trace, fast_log = run(seed)
    with literal_union(), _counting_deliveries() as literal_counts:
        with _recording_computes() as literal_states:
            literal_trace, literal_log = run(seed)
    assert fast_states, "no compute ran"
    assert fast_states == literal_states
    assert fast_log == literal_log
    assert fast_trace == literal_trace
    # each side really ran its own line 15
    assert counts["received_up_to"] == 0
    assert literal_counts["received_up_to"] == len(literal_states)
    counts["completed_adds"] = len(fast_log.completed_adds())
    return counts


@pytest.mark.parametrize("kind", sorted(RUNS))
@pytest.mark.parametrize("seed", SEEDS)
def test_delta_union_equals_literal_union(kind, seed):
    _compare(kind, seed)


def test_schedules_exercise_old_and_future_slots():
    totals = {kind: Counter() for kind in RUNS}
    for kind in RUNS:
        for seed in SEEDS:
            totals[kind] += _compare(kind, seed)
    # late envelopes land in slots their receivers have already computed
    assert totals["lockstep"]["computed_slot"] > 0
    assert totals["drifting"]["computed_slot"] > 0
    # under drift, envelopes also reach receivers still behind that round
    assert totals["drifting"]["future_slot"] > 0
    # and adds did complete, so PROPOSED and WRITTEN really moved
    assert all(totals[kind]["completed_adds"] > 0 for kind in RUNS)
