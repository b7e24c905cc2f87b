"""The shared runtime: one event core under every run engine.

Public surface:

* :class:`~repro.runtime.kernel.RuntimeKernel` — process pool, trace
  plus sink, crash/halt lifecycle, delivery queues and event heap;
* :class:`~repro.runtime.sinks.TraceSink` and its two strategies,
  :class:`~repro.runtime.sinks.FullTraceSink` (checker-grade events)
  and :class:`~repro.runtime.sinks.AggregateTraceSink` (counters).

Both schedulers in :mod:`repro.giraf.scheduler` and the weak-set
clusters in :mod:`repro.weakset` are built on this package; fast paths
added here apply to every engine at once.
"""

from repro.runtime.events import CalendarEventQueue, calendar_width
from repro.runtime.kernel import RuntimeKernel, StopPredicate
from repro.runtime.sinks import AggregateTraceSink, FullTraceSink, TraceSink

__all__ = [
    "AggregateTraceSink",
    "CalendarEventQueue",
    "FullTraceSink",
    "RuntimeKernel",
    "StopPredicate",
    "TraceSink",
    "calendar_width",
]
