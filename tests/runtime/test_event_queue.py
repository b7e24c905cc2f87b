"""The calendar event queue must drain exactly like the heap oracle.

The kernel's event core is the bucketed
:class:`~repro.runtime.events.CalendarEventQueue`; its correctness
contract is total-order equivalence with the historical ``heapq``
implementation (kept as ``tests/event_queue_oracle.py``) —
``(time, seq)`` ascending, FIFO among equal times —
under *any* interleaving of pushes and pops, including pushes behind
the drain cursor (the drifting scheduler schedules a released
process's next nominal end-of-round in the past relative to ``now``).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from event_queue_oracle import HeapEventQueue, heap_event_core
from repro.giraf.adversary import ConstantDelay, UniformDelay
from repro.giraf.environments import MovingSourceEnvironment
from repro.giraf.probes import EchoProbe
from repro.runtime import CalendarEventQueue, RuntimeKernel, calendar_width

# a schedule is a list of operations: a float time (push at that time)
# or None (pop).  Times are drawn from a coarse grid so equal
# timestamps — the FIFO tiebreak case — are common, not astronomically
# rare.
operations = st.lists(
    st.one_of(
        st.none(),
        st.floats(min_value=0.0, max_value=40.0, allow_nan=False).map(
            lambda t: round(t * 4) / 4
        ),
    ),
    max_size=200,
)


class TestDrainOrderEquivalence:
    @given(ops=operations, width=st.sampled_from([0.37, 1.0, 3.0]))
    @settings(max_examples=150)
    def test_randomized_interleavings(self, ops, width):
        heap, calendar = HeapEventQueue(), CalendarEventQueue(width)
        seq = 0
        size = 0
        for op in ops:
            if op is None:
                if size == 0:
                    continue
                assert heap.pop() == calendar.pop()
                size -= 1
            else:
                entry = (op, seq, "event", None)
                seq += 1
                heap.push(entry)
                calendar.push(entry)
                size += 1
            assert len(heap) == len(calendar) == size
            assert bool(heap) == bool(calendar)
        while heap:
            assert heap.pop() == calendar.pop()
        assert not calendar

    def test_behind_cursor_pushes(self):
        """An event earlier than the bucket being drained pops next —
        exactly the heap oracle's behavior (a queue cannot un-pop)."""
        rng = random.Random(99)
        heap, calendar = HeapEventQueue(), CalendarEventQueue(1.0)
        seq = 0
        now = 0.0
        for _ in range(5000):
            if rng.random() < 0.55 or not heap:
                if rng.random() < 0.2:
                    time = max(0.0, now - rng.uniform(0.0, 5.0))  # the past
                else:
                    time = now + rng.uniform(0.0, 8.0)
                entry = (time, seq, "event", None)
                seq += 1
                heap.push(entry)
                calendar.push(entry)
            else:
                expected = heap.pop()
                assert calendar.pop() == expected
                now = expected[0]
        while heap:
            assert heap.pop() == calendar.pop()

    def test_fifo_among_equal_times(self):
        calendar = CalendarEventQueue(1.0)
        calendar.push((1.0, 0, "a", None))
        calendar.push((1.0, 1, "b", None))
        calendar.push((0.5, 2, "c", None))
        assert [calendar.pop()[2] for _ in range(3)] == ["c", "a", "b"]

    def test_pop_on_empty_raises_like_heappop(self):
        with pytest.raises(IndexError):
            CalendarEventQueue(1.0).pop()
        with pytest.raises(IndexError):
            HeapEventQueue().pop()

    def test_width_must_be_positive(self):
        with pytest.raises(ValueError):
            CalendarEventQueue(0.0)
        with pytest.raises(ValueError):
            CalendarEventQueue(-1.0)


class TestCalendarWidth:
    def test_width_follows_delay_bounds(self):
        narrow = MovingSourceEnvironment(delay_policy=UniformDelay(2, 6))
        assert calendar_width(narrow) == 1.0
        wide = MovingSourceEnvironment(delay_policy=UniformDelay(2, 200))
        assert calendar_width(wide) == pytest.approx((200 - 2) / 8.0)
        constant = MovingSourceEnvironment(delay_policy=ConstantDelay(5))
        assert calendar_width(constant) == 1.0

    def test_unknown_policies_get_the_tick_default(self):
        class Boundless:
            def delay_bounds(self):
                return None

        class FakeEnvironment:
            delay_policy = Boundless()

        assert calendar_width(FakeEnvironment()) == 1.0
        assert calendar_width(object()) == 1.0


class TestKernelSelection:
    """The calendar queue is the kernel's only event core; tests swap
    the heap oracle in through ``heap_event_core()``."""

    def test_kernel_runs_on_the_calendar_and_the_oracle_swaps_in(self):
        environment = MovingSourceEnvironment()
        kernel = RuntimeKernel([EchoProbe(0)], environment)
        assert isinstance(kernel._events, CalendarEventQueue)
        with heap_event_core():
            oracle = RuntimeKernel([EchoProbe(0)], environment)
        assert isinstance(oracle._events, HeapEventQueue)
        assert isinstance(
            RuntimeKernel([EchoProbe(0)], environment)._events,
            CalendarEventQueue,
        )

    def test_unknown_event_queue_rejected(self):
        # no event_queue= knob is left to select a core: passing one
        # fails loudly instead of silently running on the calendar
        with pytest.raises(TypeError, match="event_queue"):
            RuntimeKernel(
                [EchoProbe(0)], MovingSourceEnvironment(), event_queue="heap"
            )

    def _drain_order(self):
        kernel = RuntimeKernel([EchoProbe(0)], MovingSourceEnvironment())
        kernel.schedule(1.0, "eor", ("a",))
        kernel.schedule(1.0, "eor", ("b",))
        kernel.schedule(0.5, "eor", ("c",))
        order = [kernel.next_event()[2][0] for _ in range(3)]
        assert not kernel.has_events()
        return order

    def test_kernel_schedule_api_drains_in_order(self):
        assert self._drain_order() == ["c", "a", "b"]
        with heap_event_core():
            assert self._drain_order() == ["c", "a", "b"]
