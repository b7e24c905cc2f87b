"""Reference event queue for the runtime kernel: one global binary heap.

The kernel's continuous-time event core is the bucketed
:class:`~repro.runtime.events.CalendarEventQueue`.  This module keeps
the plainly written ``heapq`` queue it replaced as the oracle the
drain-order property tests, the whole-run drifting pins and the
``event_queue_*`` micro-benchmarks compare against.

:func:`heap_event_core` swaps the oracle into
:mod:`repro.runtime.kernel` for the duration of a block, so a whole
run can be replayed on it and compared trace for trace.

Importable as ``event_queue_oracle`` from the tests and from
``benchmarks/`` (``pytest.ini`` puts ``tests/`` on the path).
"""

from __future__ import annotations

import contextlib
import heapq
from typing import Iterator, List

import pytest

from repro.runtime import kernel
from repro.runtime.events import EventEntry


class HeapEventQueue:
    """``(time, seq)``-ordered event queue over one global heap.

    ``width`` is accepted and ignored, so the class drops in wherever
    the kernel builds a calendar queue.
    """

    __slots__ = ("_heap",)

    def __init__(self, width: float = 1.0) -> None:
        self._heap: List[EventEntry] = []

    def push(self, entry: EventEntry) -> None:
        heapq.heappush(self._heap, entry)

    def pop(self) -> EventEntry:
        return heapq.heappop(self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


@contextlib.contextmanager
def heap_event_core() -> Iterator[None]:
    """Build every kernel inside the block on :class:`HeapEventQueue`."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel, "CalendarEventQueue", HeapEventQueue)
        yield
