"""The four benchmark workloads, driven through the library's public API.

Every workload is a sequence of *episodes*.  An episode starts from the
state a fresh process would have, builds its own state and takes one
warm step (together timed as set-up), runs a fixed amount of
closed-loop work inside the timed region, checks the outputs, and tears
down.  An episode's inputs derive only from ``(seed, episode
index)``, so every count in the simulated domain — rounds, frame pairs,
deliveries, rounds to decide — repeats exactly for a given seed, while
the run length in wall time decides only how many episodes fit.

Why the shapes are what they are (see README.md in this directory):

* ``weakset_steady`` — in-process wire stack, adds only, a 400-add
  stream per episode: long enough that Algorithm 4's compute, which
  re-unions every round slot, dominates.
* ``weakset_rw`` — reads beside writes over the same in-process wire
  stack and a short history, with every client reading once per round:
  each read is a peek exchange with both shards that ships the whole
  proposed set through the codec, and compute stays small.  The shard
  worlds stay in process: behind pipes to worker processes on a 2-core
  host, the times followed the host's wake-up latency, not the program.
* ``consensus_ess`` — Algorithm 3 with a quarter of the processes
  crashing, under the drifting scheduler and full traces: the core
  counters, scheduler, kernel, sinks and checkers, and no weak-set code.
* ``leader_columnar`` — ten thousand heartbeat pseudo-leaders on the
  columnar lock-step engine: the only workload that runs
  ``runtime/columnar_engine.py`` and ``core/columnar.py``.
"""

from __future__ import annotations

import contextlib
import gc
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from tracing import Tracer

from repro import CrashSchedule, LockStepScheduler, ShardedWeakSetCluster
from repro import run_ess_consensus
from repro._rng import clear_rng_cache
from repro.core.history import clear_intern_cache, intern_cache_size
from repro.core.pseudo_leader import HeartbeatPseudoLeader
from repro.errors import ReproError
from repro.giraf.adversary import NEVER_DELIVERED, ConstantDelay, RoundRobinSource
from repro.giraf.environments import MovingSourceEnvironment, SilentLinks
from repro.runtime.columnar_engine import ColumnarLockStepEngine
from repro.sim import ConsensusMetrics
from repro.sim.workloads import ChurnEnvironments
from repro.weakset import check_weakset

clock = time.perf_counter


@dataclass
class Tally:
    """What a sequence of episodes did, summed."""

    #: operations completed: adds written plus gets answered, consensus
    #: instances decided and checked, or simulated rounds
    ops: int = 0
    attempted: int = 0
    failed: int = 0
    #: wall seconds of each completed primary operation
    latencies: List[float] = field(default_factory=list)
    #: wall seconds of each answered get (weak-set reads only)
    get_latencies: List[float] = field(default_factory=list)
    #: wall seconds spent inside timed regions
    timed: float = 0.0
    #: wall seconds of each episode's set-up, warm step included
    setups: List[float] = field(default_factory=list)
    episodes: int = 0
    #: simulated rounds executed inside timed regions
    rounds: int = 0
    adds_written: int = 0
    frame_pairs: int = 0
    decisions: int = 0
    decide_rounds: int = 0
    #: most interned history nodes alive at the end of an episode's run
    interned: int = 0


@contextlib.contextmanager
def _timed(tally: Tally, tracer: Optional[Tracer]):
    """The timed region of one episode; the tracer records only here."""
    if tracer is not None:
        tracer.on = True
    start = clock()
    try:
        with tracer.span("bench.episode") if tracer else contextlib.nullcontext():
            yield
    finally:
        tally.timed += clock() - start
        if tracer is not None:
            tracer.on = False


def episode_seed(seed: int, index: int) -> int:
    return seed * 100_003 + index


# ----------------------------------------------------------------------
# weak-set serving
# ----------------------------------------------------------------------
class WeaksetEpisode:
    """Clients over a :class:`ShardedWeakSetCluster`, one add outstanding
    each; with ``reads`` every client also calls ``get()`` once a round."""

    def __init__(
        self, seed: int, *, backend: str, n: int, shards: int,
        clients: int, adds: int, reads: bool,
    ):
        self.seed = seed
        self.adds = adds
        self.reads = reads
        self.cluster = ShardedWeakSetCluster(
            n,
            shards=shards,
            environment_factory=ChurnEnvironments("random", seed),
            backend=backend,
            trace_mode="aggregate",
            max_total_rounds=50 * adds,
        )
        try:
            self.cluster.advance(1)  # warm step: worlds, codec and channels
            self.handles = self.cluster.handles()[:clients]
        except BaseException:
            self.cluster.close()
            raise

    def run(self, tally: Tally, tracer: Optional[Tracer]) -> None:
        cluster = self.cluster
        pairs_before = cluster.backend.frame_pairs
        values = iter([f"s{self.seed}-v{i}" for i in range(self.adds)])
        outstanding: Dict[int, tuple] = {}
        failed_gets = 0
        with _timed(tally, tracer):
            for handle in self.handles:
                value = next(values, None)
                if value is not None:
                    outstanding[handle.pid] = (handle.add_async(value), clock())
            while outstanding:
                ticks = cluster.advance(1)
                if ticks == 0:
                    break  # horizon reached: what is outstanding failed
                tally.rounds += ticks
                seen = clock()
                for handle in self.handles:
                    entry = outstanding.get(handle.pid)
                    if entry is not None and entry[0].end is not None:
                        tally.latencies.append(seen - entry[1])
                        tally.adds_written += 1
                        tally.ops += 1
                        value = next(values, None)
                        if value is None:
                            del outstanding[handle.pid]
                        else:
                            outstanding[handle.pid] = (handle.add_async(value), clock())
                    if self.reads:
                        began = clock()
                        try:
                            handle.get()
                        except ReproError:
                            failed_gets += 1
                        else:
                            tally.get_latencies.append(clock() - began)
                            tally.ops += 1
        tally.frame_pairs += cluster.backend.frame_pairs - pairs_before
        report = check_weakset(cluster.log)
        unwritten = sum(1 for record in cluster.log.adds if record.end is None)
        unwritten += sum(1 for _ in values)  # never issued
        tally.attempted += self.adds + len(cluster.log.gets) + failed_gets
        tally.failed += unwritten + failed_gets + len(report.violations)

    def close(self) -> None:
        self.cluster.close()


def weakset_steady(tally: Tally, seed: int, scale: int) -> WeaksetEpisode:
    return WeaksetEpisode(
        seed, backend="inproc", n=8, shards=2, clients=8,
        adds=400 // scale, reads=False,
    )


def weakset_rw(tally: Tally, seed: int, scale: int) -> WeaksetEpisode:
    return WeaksetEpisode(
        seed, backend="inproc", n=4, shards=2, clients=4,
        adds=64 // scale, reads=True,
    )


# ----------------------------------------------------------------------
# consensus (Algorithm 3 under ESS, crashes injected)
# ----------------------------------------------------------------------
CONSENSUS_N = 32
CONSENSUS_PER_EPISODE = 10


def _consensus_instance(tally: Tally, seed: int, n: int) -> Optional[ConsensusMetrics]:
    """Run and check one instance; its metrics, or None when the report
    failed or a correct process did not decide."""
    rng = random.Random(seed)
    proposals = [rng.randrange(1000) for _ in range(n)]
    crashes = CrashSchedule.fraction(n, 0.25, seed=seed, protect={0})
    run = run_ess_consensus(
        proposals,
        crash_schedule=crashes,
        seed=seed,
        scheduler="drifting",
        engine="object",
        trace_mode="full",
    )
    tally.attempted += 1
    if not (run.report.ok and run.metrics.all_correct_decided):
        tally.failed += 1
        return None
    return run.metrics


class ConsensusEpisode:
    """Back-to-back ``run_ess_consensus`` instances after a warm one."""

    def __init__(self, tally: Tally, seed: int, scale: int):
        self.seed = seed
        self.n = CONSENSUS_N // scale
        self.instances = CONSENSUS_PER_EPISODE // scale
        _consensus_instance(tally, seed * 1000, self.n)  # warm instance

    def run(self, tally: Tally, tracer: Optional[Tracer]) -> None:
        with _timed(tally, tracer):
            for index in range(1, self.instances + 1):
                began = clock()
                metrics = _consensus_instance(tally, self.seed * 1000 + index, self.n)
                if metrics is not None:
                    tally.latencies.append(clock() - began)
                    tally.ops += 1
                    tally.decisions += 1
                    tally.decide_rounds += metrics.last_decision_round
                    tally.rounds += metrics.rounds_executed

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# columnar leader election (n = 10,000)
# ----------------------------------------------------------------------
COLUMNAR_N = 10_000
COLUMNAR_BRANDS = 8
COLUMNAR_ROUNDS = 24


class ColumnarEpisode:
    """Heartbeat pseudo-leaders stepped round by round on the columnar
    lock-step engine.

    Every call of ``ColumnarLockStepEngine.step`` is counted while the
    episode is open: a round that the engine did not execute ran some
    other code path, and counts as a failed operation.
    """

    def __init__(self, tally: Tally, seed: int, scale: int):
        self.rounds = COLUMNAR_ROUNDS // scale
        self.fired = 0
        self._original_step = ColumnarLockStepEngine.__dict__["step"]
        original = self._original_step

        def counted_step(engine, tick):
            self.fired += 1
            return original(engine, tick)

        ColumnarLockStepEngine.step = counted_step
        base = seed * COLUMNAR_BRANDS  # brand labels vary with the seed, the shape does not
        try:
            self.scheduler = LockStepScheduler(
                [
                    HeartbeatPseudoLeader(base + pid % COLUMNAR_BRANDS)
                    for pid in range(COLUMNAR_N // scale)
                ],
                MovingSourceEnvironment(
                    RoundRobinSource(), SilentLinks(), ConstantDelay(NEVER_DELIVERED)
                ),
                max_rounds=self.rounds + 1,
                trace_mode="aggregate",
                engine="columnar",
            )
            self.scheduler.step()  # warm step
        except BaseException:
            self.close()
            raise

    def run(self, tally: Tally, tracer: Optional[Tracer]) -> None:
        fired_before = self.fired
        with _timed(tally, tracer):
            for _ in range(self.rounds):
                began = clock()
                self.scheduler.step()
                tally.latencies.append(clock() - began)
        fired = self.fired - fired_before
        tally.rounds += self.rounds
        tally.ops += self.rounds
        tally.attempted += self.rounds
        tally.failed += self.rounds - min(fired, self.rounds)

    def close(self) -> None:
        ColumnarLockStepEngine.step = self._original_step


# ----------------------------------------------------------------------
# registry and the episode loop
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    name: str
    #: ``(tally, seed, scale) -> episode``: builds the state and takes
    #: the warm step; the episode has ``run(tally, tracer)`` and ``close()``
    make: Callable[[Tally, int, int], object]
    #: percentile reported as ``op_ms_tail``: the highest with at least
    #: ten samples beyond it in a 25-second run on a 2-core host
    tail: float
    #: episodes in each pass of a traced run (fixed, so counts repeat)
    traced_episodes: int
    shape: Dict[str, object]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in [
        Workload(
            "weakset_steady", weakset_steady, 99.5, 1,
            {"api": "ShardedWeakSetCluster", "backend": "inproc", "n": 8,
             "shards": 2, "clients": 8, "loop": "closed, one add outstanding per client",
             "adds_per_episode": 400, "reads": "none",
             "environment": "ChurnEnvironments('random')",
             "op": "add: add_async until the client loop sees record.end"},
        ),
        Workload(
            "weakset_rw", weakset_rw, 99.0, 8,
            {"api": "ShardedWeakSetCluster", "backend": "inproc", "n": 4,
             "shards": 2, "clients": 4,
             "loop": "closed, one add outstanding per client, one get per client per round",
             "adds_per_episode": 64, "environment": "ChurnEnvironments('random')",
             "op": "add as above; gets count in ops_per_s and are timed as sharding.get_ms_*"},
        ),
        Workload(
            "consensus_ess", ConsensusEpisode, 95.0, 2,
            {"api": "run_ess_consensus", "n": CONSENSUS_N, "scheduler": "drifting",
             "engine": "object", "trace_mode": "full", "crash_fraction": 0.25,
             "loop": "closed, back-to-back instances, one client",
             "instances_per_episode": CONSENSUS_PER_EPISODE,
             "op": "one run_ess_consensus call, decided and checked"},
        ),
        Workload(
            "leader_columnar", ColumnarEpisode, 98.0, 3,
            {"api": "LockStepScheduler", "n": COLUMNAR_N, "brands": COLUMNAR_BRANDS,
             "algorithm": "HeartbeatPseudoLeader", "engine": "columnar",
             "trace_mode": "aggregate", "environment": "S1 (round-robin source, silent links)",
             "loop": "closed, one client stepping rounds", "rounds_per_episode": COLUMNAR_ROUNDS,
             "op": "one scheduler.step() round"},
        ),
    ]
}

#: a run sets up at least this many times, so that ``setup_s`` is a median
MIN_SETUPS = 5


def _reset_process_state() -> None:
    """Give the next episode the state a fresh process would have.

    The library keeps two process-wide memo tables: interned histories
    (with the warm ``HistoryIndex`` that mirrors them) and the seeded
    single-draw tables.  Both are bounded or clearable by design, but
    left alone they would carry one episode's entries into the next.
    Peak RSS would then grow with how many episodes fit into a run, that
    is with the speed of the host, and a columnar set-up would reuse the
    previous episode's index instead of building its own.
    """
    clear_intern_cache()
    clear_rng_cache()
    gc.collect()


def _set_up(workload: Workload, tally: Tally, seed: int, index: int, scale: int):
    _reset_process_state()
    started = clock()
    episode = workload.make(tally, episode_seed(seed, index), scale)
    tally.setups.append(clock() - started)
    return episode


def run_episodes(
    workload: Workload,
    seed: int,
    *,
    seconds: Optional[float] = None,
    episodes: Optional[int] = None,
    tracer: Optional[Tracer] = None,
    scale: int = 1,
) -> Tally:
    """Run whole episodes until ``seconds`` of timed work or ``episodes``.

    A time-bounded run that set up fewer than :data:`MIN_SETUPS` times
    sets up (and tears down) again, without running, until it has.
    """
    tally = Tally()
    while True:
        episode = _set_up(workload, tally, seed, tally.episodes, scale)
        try:
            episode.run(tally, tracer)
            tally.interned = max(tally.interned, intern_cache_size())
        finally:
            episode.close()
            del episode  # before the next set-up collects garbage
        tally.episodes += 1
        if episodes is not None and tally.episodes >= episodes:
            return tally
        if seconds is not None and tally.timed >= seconds:
            break
    while len(tally.setups) < MIN_SETUPS:
        _set_up(workload, tally, seed, len(tally.setups), scale).close()
    return tally
