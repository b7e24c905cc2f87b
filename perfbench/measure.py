"""Turn episode tallies into the benchmark's metrics.

:func:`end_to_end` is the untraced measurement behind every end-to-end
metric.  :func:`per_layer` is the traced run: it alternates untraced
and traced passes over the same fixed episodes, so the per-layer self
times, the tracing overhead and the unattributed remainder all come
from the same simulated work, and the simulated-domain counts must
repeat exactly between passes.
"""

from __future__ import annotations

import gzip
import resource
import statistics
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

from tracing import Tracer
from workloads import Workload, run_episodes

Metrics = Dict[str, Tuple[float, str]]

#: untraced/traced pass pairs in a traced run; the overhead is the
#: difference of their medians, so slow drift of the host hits both sides
TRACE_PAIRS = 2

#: tally fields that must repeat exactly between passes over the same episodes
DETERMINISTIC = ("ops", "rounds", "adds_written", "frame_pairs", "decisions",
                 "decide_rounds", "interned", "attempted", "failed")


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolation percentile ``q`` in [0, 100]; 0 when empty."""
    data = sorted(values)
    if not data:
        return 0.0
    position = (len(data) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (position - low)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload: Workload, seed: int, seconds: float):
    tally = run_episodes(workload, seed, seconds=seconds)
    metrics: Metrics = {
        "ops_per_s": (tally.ops / tally.timed, "ops/s"),
        "op_ms_p50": (1000 * percentile(tally.latencies, 50), "ms"),
        "op_ms_tail": (1000 * percentile(tally.latencies, workload.tail), "ms"),
        "setup_s": (statistics.median(tally.setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    record = {
        "episodes": tally.episodes,
        "setups": len(tally.setups),
        "op_samples": len(tally.latencies),
        "tail_percentile": workload.tail,
        "samples_beyond_tail": int(len(tally.latencies) * (100 - workload.tail) / 100),
        "get_samples": len(tally.get_latencies),
        "timed_s": tally.timed,
    }
    return tally, metrics, record


def per_layer(
    workload: Workload,
    seed: int,
    spans_path: Path,
    *,
    scale: int = 1,
    episodes: Optional[int] = None,
):
    episodes = episodes or workload.traced_episodes
    untraced, traced, tracers = [], [], []
    for _ in range(TRACE_PAIRS):
        untraced.append(run_episodes(workload, seed, episodes=episodes, scale=scale))
        with Tracer() as tracer:
            traced.append(
                run_episodes(workload, seed, episodes=episodes, tracer=tracer, scale=scale)
            )
        tracers.append(tracer)
    tally, tracer = traced[0], tracers[0]
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(spans_path, "wt", encoding="utf-8") as out:
        tracer.write(out)

    counts = [getattr(tally, field) for field in DETERMINISTIC]
    repeats = all(
        [getattr(t, field) for field in DETERMINISTIC] == counts for t in untraced + traced
    ) and all(
        (t.calls, t.encoded_bytes) == (tracer.calls, tracer.encoded_bytes) for t in tracers
    )
    own: Dict[str, float] = {}
    for each in tracers:
        for name, seconds in each.self_times().items():
            own[name] = own.get(name, 0.0) + seconds / len(tracers)
    calls = tracer.calls
    untraced_s = statistics.median(t.timed for t in untraced)
    traced_s = statistics.median(t.timed for t in traced)
    layer_s = sum(t for name, t in own.items() if not name.startswith("bench."))
    get_latencies = [x for t in untraced for x in t.get_latencies]

    def self_s(name: str) -> Tuple[float, str]:
        return (own.get(name, 0.0), "s")

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    metrics: Metrics = {
        "ms_weakset.compute_s": self_s("ms_weakset.compute"),
        "automaton.received_up_to_s": self_s("automaton.received_up_to"),
        "ms_weakset.rounds_per_add": (ratio(tally.rounds, tally.adds_written), "rounds/add"),
        "scheduler.step_s": self_s("scheduler.step"),
        "scheduler.drifting_run_s": self_s("scheduler.drifting_run"),
        "scheduler.rounds": (tally.rounds, "rounds"),
        "sharding.advance_s": self_s("sharding.advance"),
        "sharding.get_s": self_s("sharding.get"),
        "sharding.get_ms_p50": (1000 * percentile(get_latencies, 50), "ms"),
        "sharding.get_ms_tail": (1000 * percentile(get_latencies, workload.tail), "ms"),
        "sharding.frame_pairs_per_op": (ratio(tally.frame_pairs, tally.ops), "pairs/op"),
        "protocol.encode_s": self_s("protocol.encode"),
        "protocol.decode_s": self_s("protocol.decode"),
        "protocol.frames": (calls.get("protocol.encode", 0), "count"),
        "protocol.bytes_per_op": (ratio(tracer.encoded_bytes, tally.ops), "B/op"),
        "transport.send_s": self_s("transport.send"),
        "transport.wait_s": self_s("transport.wait"),
        "counters.round_update_s": self_s("counters.round_update"),
        "ess_consensus.compute_s": self_s("ess_consensus.compute"),
        "kernel.schedule_s": self_s("kernel.schedule"),
        "kernel.events": (calls.get("kernel.schedule", 0), "count"),
        "sinks.delivery_s": self_s("sinks.delivery"),
        "sinks.deliveries_per_decision": (
            ratio(calls.get("sinks.delivery", 0), tally.decisions), "count"
        ),
        "environments.plan_s": self_s("environments.plan"),
        "checkers.check_s": self_s("checkers.check"),
        "consensus.rounds_to_decide": (ratio(tally.decide_rounds, tally.decisions), "rounds"),
        "columnar_engine.step_s": self_s("columnar_engine.step"),
        "columnar_engine.steps": (calls.get("columnar_engine.step", 0), "count"),
        "history.interned": (tally.interned, "count"),
        "bench.untraced_wall_s": (untraced_s, "s"),
        "bench.traced_wall_s": (traced_s, "s"),
        "bench.overhead_s": (traced_s - untraced_s, "s"),
        "bench.unattributed_s": (traced_s - layer_s, "s"),
    }
    record = {
        "episodes_per_pass": episodes,
        "pairs": TRACE_PAIRS,
        "spans_per_pass": len(tracer.spans),
        "spans_file": spans_path.name,
        "counts_repeat": repeats,
    }
    result = SimpleNamespace(
        attempted=sum(t.attempted for t in untraced + traced),
        failed=sum(t.failed for t in untraced + traced) + (0 if repeats else 1),
    )
    return result, metrics, record
