"""Unit tests for the GIRAF process automaton (Algorithm 1)."""

import pytest

from repro.errors import ProtocolMisuse
from repro.giraf.automaton import GirafAlgorithm, GirafProcess, InboxView
from repro.giraf.messages import Envelope


class Recorder(GirafAlgorithm):
    """Records compute invocations; broadcasts ('r', round)."""

    def __init__(self):
        super().__init__()
        self.computed = []

    def initialize(self):
        return ("r", 1)

    def compute(self, k, inbox):
        self.computed.append((k, inbox.received(k)))
        return ("r", k + 1)


class HaltsAtTwo(GirafAlgorithm):
    def initialize(self):
        return "init"

    def compute(self, k, inbox):
        if k == 2:
            self.halt()
        return f"m{k}"


class TestEndOfRound:
    def test_first_end_of_round_runs_initialize(self):
        proc = GirafProcess(0, Recorder())
        envelope = proc.end_of_round()
        assert envelope.round_no == 1
        assert envelope.payload == frozenset({("r", 1)})
        assert proc.round == 1
        assert proc.algorithm.computed == []

    def test_compute_receives_current_round_messages(self):
        proc = GirafProcess(0, Recorder())
        proc.end_of_round()
        proc.receive(Envelope(1, frozenset({("other", 1)})))
        proc.end_of_round()
        (k, messages), = proc.algorithm.computed
        assert k == 1
        assert messages == frozenset({("r", 1), ("other", 1)})

    def test_own_message_always_in_slot(self):
        # Algorithm 1 line 10: M[k+1] := M[k+1] ∪ {m}
        proc = GirafProcess(0, Recorder())
        proc.end_of_round()
        proc.end_of_round()
        (_, messages), = proc.algorithm.computed
        assert ("r", 1) in messages

    def test_envelope_carries_early_arrivals(self):
        # a round-2 message arriving while still in round 1 must be
        # included in the round-2 broadcast snapshot (relaying)
        proc = GirafProcess(0, Recorder())
        proc.end_of_round()
        proc.receive(Envelope(2, frozenset({("early", 2)})))
        envelope = proc.end_of_round()
        assert envelope.round_no == 2
        assert ("early", 2) in envelope.payload

    def test_halting_compute_sends_nothing(self):
        proc = GirafProcess(0, HaltsAtTwo())
        assert proc.end_of_round() is not None  # init -> round 1
        assert proc.end_of_round() is not None  # compute(1) -> round 2
        assert proc.end_of_round() is None      # compute(2) halts
        assert proc.halted
        assert proc.round == 2  # never entered round 3

    def test_end_of_round_after_halt_raises(self):
        proc = GirafProcess(0, HaltsAtTwo())
        proc.end_of_round()
        proc.end_of_round()
        proc.end_of_round()
        with pytest.raises(ProtocolMisuse):
            proc.end_of_round()

    def test_end_of_round_after_crash_raises(self):
        proc = GirafProcess(0, Recorder())
        proc.crash()
        with pytest.raises(ProtocolMisuse):
            proc.end_of_round()


class TestReceive:
    def test_merge_is_set_union(self):
        proc = GirafProcess(0, Recorder())
        proc.receive(Envelope(1, frozenset({"a"})))
        proc.receive(Envelope(1, frozenset({"a", "b"})))
        assert proc.inbox_view().received(1) == frozenset({"a", "b"})

    def test_crashed_process_drops_deliveries(self):
        proc = GirafProcess(0, Recorder())
        proc.crash()
        proc.receive(Envelope(1, frozenset({"a"})))
        assert proc.inbox_view().received(1) == frozenset()

    def test_identical_messages_merge(self):
        # anonymity: two identical messages are one set element
        proc = GirafProcess(0, Recorder())
        proc.receive(Envelope(1, frozenset({"same"})))
        proc.receive(Envelope(1, frozenset({"same"})))
        assert len(proc.inbox_view().received(1)) == 1


class TestInboxView:
    def test_received_up_to_unions_slots(self):
        slots = {1: {"a"}, 2: {"b"}, 5: {"c"}}
        view = InboxView(slots)
        assert view.received_up_to(2) == frozenset({"a", "b"})
        assert view.received_up_to(5) == frozenset({"a", "b", "c"})

    def test_received_missing_round_is_empty(self):
        assert InboxView({}).received(3) == frozenset()

    def test_rounds_with_messages(self):
        view = InboxView({1: {"a"}, 2: set()})
        assert view.rounds_with_messages() == frozenset({1})

    def test_plain_mapping_delta_falls_back_to_received_up_to(self):
        # a view without a delivery buffer has seen no earlier compute
        slots = {1: {"a"}, 2: {"b", "c"}, 4: {"d"}, 0: {"x"}}
        view = InboxView(slots)
        for k in range(6):
            assert view.received_since_last_compute(k) == view.received_up_to(k)


class DeltaRecorder(GirafAlgorithm):
    """Records the delta every compute is handed; broadcasts ('r', k)."""

    def __init__(self):
        super().__init__()
        self.deltas = {}

    def initialize(self):
        return ("r", 1)

    def compute(self, k, inbox):
        self.deltas[k] = inbox.received_since_last_compute(k)
        return ("r", k + 1)


class Silent(GirafAlgorithm):
    """Never reads its inbox."""

    def initialize(self):
        return "m"

    def compute(self, k, inbox):
        return "m"


def _advance_to(proc, round_no):
    while proc.round < round_no:
        proc.end_of_round()


class TestDeliveryBuffer:
    def test_late_delivery_is_in_exactly_the_next_delta(self):
        proc = GirafProcess(0, DeltaRecorder())
        _advance_to(proc, 3)                    # compute(1), compute(2) ran
        proc.receive(Envelope(1, frozenset({"late"})))
        proc.end_of_round()                     # compute(3)
        proc.end_of_round()                     # compute(4)
        deltas = proc.algorithm.deltas
        assert "late" in deltas[3]
        assert all("late" not in deltas[k] for k in (1, 2, 4))

    def test_late_batched_delivery_is_in_the_next_delta(self):
        proc = GirafProcess(0, DeltaRecorder())
        _advance_to(proc, 3)
        proc.receive_values(2, frozenset({"late"}))
        proc.end_of_round()
        proc.end_of_round()
        deltas = proc.algorithm.deltas
        assert "late" in deltas[3]
        assert "late" not in deltas[4]

    def test_future_delivery_waits_for_its_round(self):
        proc = GirafProcess(0, DeltaRecorder())
        proc.end_of_round()                     # round 1
        proc.receive(Envelope(3, frozenset({"early"})))
        proc.receive_values(4, frozenset({"earlier"}))
        _advance_to(proc, 6)                    # compute(1..5)
        deltas = proc.algorithm.deltas
        assert [k for k in deltas if "early" in deltas[k]] == [3]
        assert [k for k in deltas if "earlier" in deltas[k]] == [4]

    def test_delta_holds_own_message_and_current_round_arrivals(self):
        proc = GirafProcess(0, DeltaRecorder())
        proc.end_of_round()
        proc.receive(Envelope(1, frozenset({"now"})))
        proc.end_of_round()
        assert proc.algorithm.deltas[1] == frozenset({("r", 1), "now"})

    def test_deltas_cover_the_all_slot_union(self):
        # slots only grow: the deltas seen so far unite to received_up_to
        proc = GirafProcess(0, DeltaRecorder())
        proc.end_of_round()
        for k in range(1, 12):
            proc.receive(Envelope(max(1, k - 3), frozenset({("late", k)})))
            proc.receive(Envelope(k + 2, frozenset({("early", k)})))
            proc.end_of_round()
            seen = frozenset().union(*proc.algorithm.deltas.values())
            assert seen == proc.inbox_view().received_up_to(k)

    def test_crashed_process_never_buffers(self):
        proc = GirafProcess(0, DeltaRecorder())
        _advance_to(proc, 2)
        proc.crash()
        proc.receive(Envelope(1, frozenset({"lost"})))
        proc.receive_values(2, frozenset({"lost"}))
        proc.receive(Envelope(3, frozenset({"lost"})))
        view = proc.inbox_view()
        assert "lost" not in view.received_since_last_compute(proc.round)
        assert "lost" not in view.received_up_to(3)

    def test_halted_process_never_buffers(self):
        proc = GirafProcess(0, HaltsAtTwo())
        _advance_to(proc, 2)
        proc.end_of_round()                     # compute(2) halts
        assert proc.halted
        proc.receive(Envelope(1, frozenset({"lost"})))
        proc.receive_values(2, frozenset({"lost"}))
        view = proc.inbox_view()
        assert "lost" not in view.received_since_last_compute(proc.round)
        assert "lost" not in view.received_up_to(3)

    def test_buffer_stays_one_round_deep_when_never_read(self):
        proc = GirafProcess(0, Silent())
        proc.end_of_round()
        for k in range(1, 1001):
            proc.receive(Envelope(k, frozenset({("now", k)})))
            proc.receive_values(max(1, k - 5), frozenset({("late", k)}))
            proc.receive(Envelope(k + 3, frozenset({("early", k)})))
            # the own-round seed plus this round's two non-future deliveries
            assert len(proc._fresh) <= 3
            proc.end_of_round()
        assert proc.round == 1001
        assert len(proc._fresh) == 1
        assert len(proc.inbox_view().received_since_last_compute(proc.round)) <= 2


class TestStatePredicates:
    def test_has_computed(self):
        proc = GirafProcess(0, Recorder())
        assert not proc.has_computed(1)
        proc.end_of_round()      # round 1
        assert not proc.has_computed(1)
        proc.end_of_round()      # compute(1), round 2
        assert proc.has_computed(1)
        assert not proc.has_computed(2)

    def test_active_transitions(self):
        proc = GirafProcess(0, Recorder())
        assert proc.active
        proc.crash()
        assert not proc.active
