"""The benchmark's own checks, on tiny shapes of every workload.

* Counts in the simulated domain — rounds, frame pairs, deliveries,
  rounds to decide — repeat exactly for a seed.
* A layer a workload does not use reads zero: no codec frames outside
  the weak-set workloads, no columnar steps outside ``leader_columnar``.
* A silent fallback off the columnar engine counts as failed rounds.
* Without a source tree the benchmark fails without printing a result.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE.parent / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from measure import per_layer  # noqa: E402
from repro.runtime.columnar_engine import ColumnarLockStepEngine  # noqa: E402
from workloads import WORKLOADS, run_episodes  # noqa: E402

#: workload -> (shrink factor, episodes per pass)
TINY = {
    "weakset_steady": (50, 2),
    "weakset_rw": (16, 2),
    "consensus_ess": (8, 2),
    "leader_columnar": (8, 2),
}

COUNTS = (
    "scheduler.rounds",
    "ms_weakset.rounds_per_add",
    "sharding.frame_pairs_per_op",
    "protocol.frames",
    "protocol.bytes_per_op",
    "kernel.events",
    "sinks.deliveries_per_decision",
    "consensus.rounds_to_decide",
    "columnar_engine.steps",
    "history.interned",
)


def _layers(name, seed, tmp_path):
    scale, episodes = TINY[name]
    result, metrics, record = per_layer(
        WORKLOADS[name], seed, tmp_path / f"{name}.csv.gz", scale=scale, episodes=episodes
    )
    assert result.failed == 0 and result.attempted > 0
    assert record["counts_repeat"]
    return {key: value for key, (value, _unit) in metrics.items()}


@pytest.mark.parametrize("name", sorted(TINY))
def test_counts_repeat_for_a_seed(name, tmp_path):
    first = _layers(name, 3, tmp_path)
    second = _layers(name, 3, tmp_path)
    assert first["scheduler.rounds"] > 0
    assert {key: first[key] for key in COUNTS} == {key: second[key] for key in COUNTS}


def test_layers_a_workload_does_not_use_read_zero(tmp_path):
    consensus = _layers("consensus_ess", 5, tmp_path)
    columnar = _layers("leader_columnar", 5, tmp_path)
    reads = _layers("weakset_rw", 5, tmp_path)
    assert consensus["protocol.frames"] == 0
    assert columnar["protocol.frames"] == 0
    assert consensus["columnar_engine.steps"] == 0
    assert consensus["consensus.rounds_to_decide"] > 0
    assert columnar["columnar_engine.steps"] == columnar["scheduler.rounds"]
    assert reads["protocol.frames"] > 0 and reads["transport.wait_s"] > 0


def test_a_fallback_off_the_columnar_engine_fails_every_round(monkeypatch):
    monkeypatch.setattr(ColumnarLockStepEngine, "try_build", classmethod(lambda *a, **k: None))
    tally = run_episodes(WORKLOADS["leader_columnar"], 1, episodes=1, scale=8)
    assert tally.attempted > 0
    assert tally.failed == tally.attempted


def test_without_a_source_tree_it_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "weakset_steady", "--seed", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
