"""Memory guard for the numpy lock-step tick.

With every process active, one tick of the whole-round engine folds the
round's messages into the counter matrix in place and reads leadership
straight off the result: no full-matrix copy, gather or temporary
exists at any point.  The guard measures one ``step()`` of an
all-active S1 run (heartbeat pseudo-leaders, 8 brands, round-robin
source, silent links, never-delivered lates) under ``tracemalloc`` and
asserts that the peak allocation stays below a single
``n × width × itemsize`` counter matrix.  An implementation that copies
the matrix, or gathers the active rows, allocates at least one such
matrix and fails.

The count is deterministic (allocation sizes, not timings), so this is a
tier-1 check; it skips when the numpy backend is not in use.
"""

import tracemalloc

import pytest

from repro.core.columnar import default_backend
from repro.core.history import clear_intern_cache
from repro.core.pseudo_leader import HeartbeatPseudoLeader
from repro.giraf.adversary import NEVER_DELIVERED, ConstantDelay, RoundRobinSource
from repro.giraf.environments import MovingSourceEnvironment, SilentLinks
from repro.giraf.scheduler import LockStepScheduler

pytestmark = pytest.mark.skipif(
    default_backend() != "numpy", reason="the guard measures the numpy tick"
)

N = 2_000
BRANDS = 8
#: the measured tick: late enough for a wide matrix, between two
#: capacity doublings of the counter storage
TICK = 20


def test_one_tick_allocates_less_than_one_counter_matrix():
    clear_intern_cache()
    scheduler = LockStepScheduler(
        [HeartbeatPseudoLeader(pid % BRANDS) for pid in range(N)],
        MovingSourceEnvironment(
            RoundRobinSource(), SilentLinks(), ConstantDelay(NEVER_DELIVERED)
        ),
        max_rounds=TICK + 4,
        trace_mode="aggregate",
        engine="columnar",
    )
    assert scheduler.engine_path == "matrix"
    for _ in range(TICK - 1):
        assert scheduler.step()
    engine = scheduler._columnar_engine
    width = engine._index.width
    capacities = (engine._C.data.shape, engine._N.data.shape)

    tracemalloc.start()
    try:
        assert scheduler.step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    # the measured tick grew no storage: what it allocated is the tick's
    # own working set
    assert {engine._C.data.shape, engine._N.data.shape} == set(capacities)
    assert width > 100
    matrix = N * width * engine._C.data.dtype.itemsize
    assert peak < matrix, (peak, matrix)
