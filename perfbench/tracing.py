"""In-memory span tracing around the library's layer entry points.

The benchmark never edits the program it measures: a :class:`Tracer`
replaces selected functions and methods of ``repro`` with thin wrappers
for the duration of a traced pass and restores the originals afterwards.
Each wrapped call records one span ``(name, start, end, parent)``;
``parent`` is the index of the span that was open when the call began,
so self time (a span's duration minus the time its child spans cover)
needs no further bookkeeping.  Spans stay in memory until the run writes
them out at its end.

Wrappers record only while :attr:`Tracer.on` is true.  The workloads
switch it on around the timed region of an episode, so set-up, checks
and teardown stay out of the layer totals.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: (span name, owner path, attribute) for every wrapped entry point.
#: The owner is a module or class, imported lazily so that importing
#: this file does not import the library.  Module-level functions are
#: wrapped in the namespace of the module that *calls* them (e.g. the
#: codec as seen from the transport module), because that is the name
#: the caller looks up at call time.
ENTRY_POINTS: List[Tuple[str, str, str]] = [
    # weak-set algorithm (Algorithm 4) and the GIRAF inbox it reads
    ("ms_weakset.compute", "repro.weakset.ms_weakset:MSWeakSetAlgorithm", "compute"),
    ("automaton.received_up_to", "repro.giraf.automaton:InboxView", "received_up_to"),
    # schedulers and the runtime kernel
    ("scheduler.step", "repro.giraf.scheduler:LockStepScheduler", "step"),
    ("scheduler.drifting_run", "repro.giraf.scheduler:DriftingScheduler", "run"),
    ("kernel.schedule", "repro.runtime.kernel:RuntimeKernel", "schedule"),
    ("sinks.delivery", "repro.runtime.sinks:FullTraceSink", "delivery"),
    ("sinks.delivery", "repro.runtime.sinks:AggregateTraceSink", "delivery"),
    ("environments.plan", "repro.giraf.environments:MovingSourceEnvironment", "plan_round"),
    ("environments.plan", "repro.giraf.environments:EventuallyStableSourceEnvironment", "plan_round"),
    ("environments.plan", "repro.giraf.environments:Environment", "plan_round_links"),
    # sharded serving stack: facade, transport, codec
    ("sharding.advance", "repro.weakset.sharding:ShardedWeakSetCluster", "advance"),
    ("sharding.get", "repro.weakset.sharding:ShardedWeakSetHandle", "get"),
    ("transport.send", "repro.weakset.transport", "send_all"),
    ("transport.wait", "repro.weakset.transport", "harvest_all"),
    ("protocol.encode", "repro.weakset.transport", "encode_message"),
    ("protocol.decode", "repro.weakset.transport", "decode_message"),
    # consensus (Algorithm 3) and its pseudo-leader counters
    ("ess_consensus.compute", "repro.core.ess_consensus:ESSConsensus", "compute"),
    ("counters.round_update", "repro.core.pseudo_leader", "apply_round_update"),
    ("checkers.check", "repro.sim.runner", "check_consensus"),
    # array-native engine
    ("columnar_engine.step", "repro.runtime.columnar_engine:ColumnarLockStepEngine", "step"),
]


def _resolve(path: str):
    module_name, _, class_name = path.partition(":")
    module = __import__(module_name, fromlist=["_"])
    return getattr(module, class_name) if class_name else module


class Tracer:
    """Span recorder plus the wrappers that feed it.

    Use as a context manager: entering installs every wrapper in
    :data:`ENTRY_POINTS`, leaving restores the originals even when the
    traced code raised.
    """

    def __init__(self) -> None:
        self.on = False
        #: (name, start, end, parent index or -1), in call order
        self.spans: List[Optional[Tuple[str, float, float, int]]] = []
        #: name -> number of recorded calls
        self.calls: Dict[str, int] = defaultdict(int)
        #: bytes produced by the codec while recording
        self.encoded_bytes = 0
        self._stack: List[int] = []
        self._restore: List[Tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------
    def __enter__(self) -> "Tracer":
        try:
            for name, owner_path, attr in ENTRY_POINTS:
                owner = _resolve(owner_path)
                original = owner.__dict__[attr]
                self._restore.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
        except BaseException:
            self._uninstall()
            raise
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.on = False
        self._uninstall()

    def _uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, original: Callable) -> Callable:
        spans = self.spans
        stack = self._stack
        calls = self.calls
        clock = time.perf_counter
        counts_bytes = name == "protocol.encode"

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not self.on:
                return original(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
                calls[name] += 1
            if counts_bytes:
                self.encoded_bytes += len(result)
            return result

        return traced

    # -- recording helpers -------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark opens itself (the root of an episode)."""
        if not self.on:
            yield
            return
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)
            self.calls[name] += 1

    # -- analysis ----------------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """Span name -> summed self time in seconds."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for index, (name, start, end, _parent) in enumerate(self.spans):
            totals[name] += (end - start) - covered[index]
        return dict(totals)

    def write(self, out) -> None:
        """Write every span as one CSV line to the text stream ``out``:
        ``index,parent,name,start,end`` (times in seconds)."""
        out.write("index,parent,name,start,end\n")
        for index, (name, start, end, parent) in enumerate(self.spans):
            out.write(f"{index},{parent},{name},{start:.9f},{end:.9f}\n")
