"""The extended GIRAF process automaton (Algorithm 1 of the paper).

The paper phrases every algorithm as an instantiation of a generic
round-based I/O automaton with two non-blocking hooks:

* ``initialize()`` — run at the first ``end-of-round`` (round 0 → 1);
* ``compute(k, M)`` — run at every later ``end-of-round``, receiving
  the current round number and the per-round message sets.

The environment drives the automaton through two input actions,
``receive(⟨M, k⟩)`` and ``end-of-round``; rounds are **not** assumed to
be synchronized across processes.  This module implements the automaton
shell (:class:`GirafProcess`) and the algorithm-facing API
(:class:`GirafAlgorithm`, :class:`InboxView`).

Anonymity guarantee: algorithm code never sees a process identifier —
``compute`` receives only a round number and sets of messages.  The
``pid`` carried by :class:`GirafProcess` exists purely for the
*simulation* layer (crash injection, trace recording, environment
bookkeeping) and is invisible to the algorithm.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import AbstractSet, Dict, FrozenSet, Hashable, List, Mapping, Optional, Set

from repro.errors import ProtocolMisuse
from repro.giraf.messages import Envelope

__all__ = ["GirafAlgorithm", "GirafProcess", "InboxView"]


class InboxView:
    """Read-only view of a process's per-round message sets ``M_i``.

    ``received(k)`` is the paper's ``M_i[k]``; ``received_up_to(k)`` is
    the union ``⋃_{1 ≤ k' ≤ k} M_i[k']`` that Algorithm 4 (the weak-set
    implementation) reads in its line 15.  Late deliveries land in old
    slots, so both views can grow between rounds.

    ``received_since_last_compute(k)`` is the part of that union that
    is new since the previous ``compute``: every message that entered a
    slot ``M[k']`` with ``k' ≤ k`` since then.  A view handed out by
    :class:`GirafProcess` reads it from the process's delivery buffer;
    a view built from a plain mapping has no record of earlier computes
    and returns the whole ``received_up_to(k)``.
    """

    __slots__ = ("_slots", "_fresh")

    def __init__(
        self,
        slots: Mapping[int, Set[Hashable]],
        fresh: Optional[List[AbstractSet[Hashable]]] = None,
    ):
        self._slots = slots
        self._fresh = fresh

    def received(self, k: int) -> FrozenSet[Hashable]:
        """The set of algorithm messages currently in slot ``M[k]``."""
        return frozenset(self._slots.get(k, ()))

    def received_up_to(self, k: int) -> FrozenSet[Hashable]:
        """Union of all slots ``M[1] ∪ … ∪ M[k]`` (Algorithm 4 line 15)."""
        merged: set[Hashable] = set()
        for slot_round, messages in self._slots.items():
            if 1 <= slot_round <= k:
                merged |= messages
        return frozenset(merged)

    def received_since_last_compute(self, k: int) -> FrozenSet[Hashable]:
        """Messages that entered ``M[1] ∪ … ∪ M[k]`` since the last compute.

        Slots only grow, so ``received_up_to(k)`` equals this set united
        with ``received_up_to(k - 1)`` as the previous compute saw it.
        """
        if self._fresh is None:
            return self.received_up_to(k)
        return frozenset().union(*self._fresh)

    def rounds_with_messages(self) -> FrozenSet[int]:
        """Round numbers whose slot is non-empty (diagnostics only)."""
        return frozenset(k for k, msgs in self._slots.items() if msgs)


class GirafAlgorithm(ABC):
    """Base class for algorithms plugged into the GIRAF automaton.

    Subclasses implement :meth:`initialize` and :meth:`compute`; both
    must be non-blocking and must return the (hashable) algorithm
    message to broadcast for the next round.  An algorithm stops by
    calling :meth:`halt` (the paper's ``halt`` after a decision); once
    halted it takes no further steps and sends nothing.
    """

    def __init__(self) -> None:
        self.halted: bool = False

    @abstractmethod
    def initialize(self) -> Hashable:
        """The paper's ``initialize()``: return the round-1 message."""

    @abstractmethod
    def compute(self, k: int, inbox: InboxView) -> Hashable:
        """The paper's ``compute(k_i, M_i)``: return the next message.

        The return value is ignored when the algorithm halts during the
        call (``decide v; halt`` never reaches the ``return``).
        """

    def halt(self) -> None:
        """Stop the automaton (no further sends or computes)."""
        self.halted = True

    def snapshot(self) -> Optional[Mapping[str, object]]:
        """Optional per-round state metrics recorded into the trace.

        Subclasses may override to expose cheap observables (history
        length, leadership flag, …).  ``None`` disables recording.
        """
        return None


class GirafProcess:
    """The automaton shell wrapping one :class:`GirafAlgorithm`.

    Implements Algorithm 1 verbatim:

    * ``end-of-round``: run ``initialize``/``compute``, append the new
      message ``m`` to ``M[k+1]``, increment ``k``, emit
      ``send(⟨M[k], k⟩)``;
    * ``receive(⟨M, k⟩)``: merge ``M`` into slot ``M[k]``.

    Beside the slots the process keeps a delivery buffer ``_fresh``,
    the payloads that entered a slot ``M[k']`` with ``k' ≤ k`` since the
    last ``end-of-round`` (``InboxView.received_since_last_compute``).
    A delivery is appended when its round is not in the future; one for
    a later round stays parked in its slot only, and ``end-of-round``
    resets the buffer to the slot it has just reached (the own message
    plus any early arrivals).  The buffer therefore never holds more
    than one round's deliveries, whether or not the algorithm reads it.
    Appending keeps a reference to the delivered set, so callers must
    not mutate a payload after handing it over.

    The ``pid`` is simulation bookkeeping only (see module docstring).
    """

    __slots__ = ("pid", "algorithm", "round", "_slots", "_fresh", "crashed")

    def __init__(self, pid: int, algorithm: GirafAlgorithm):
        self.pid = pid
        self.algorithm = algorithm
        self.round: int = 0
        self._slots: Dict[int, Set[Hashable]] = {}
        self._fresh: List[AbstractSet[Hashable]] = []
        self.crashed: bool = False

    # ------------------------------------------------------------------
    # state predicates
    # ------------------------------------------------------------------
    @property
    def halted(self) -> bool:
        """True once the algorithm has halted (e.g. after deciding)."""
        return self.algorithm.halted

    @property
    def active(self) -> bool:
        """True when the process still takes steps (alive, not halted)."""
        return not self.crashed and not self.halted

    # ------------------------------------------------------------------
    # input actions (driven by the environment / scheduler)
    # ------------------------------------------------------------------
    def end_of_round(self) -> Optional[Envelope]:
        """Fire the ``end-of-round`` input action.

        Returns the envelope to broadcast, or ``None`` when the
        algorithm halted during this step (a halting ``compute`` never
        reaches its ``return``, so nothing is sent).
        """
        if self.crashed:
            raise ProtocolMisuse(f"end-of-round on crashed process {self.pid}")
        if self.halted:
            raise ProtocolMisuse(f"end-of-round on halted process {self.pid}")

        if self.round == 0:
            message = self.algorithm.initialize()
        else:
            message = self.algorithm.compute(
                self.round, InboxView(self._slots, self._fresh)
            )
        if self.algorithm.halted:
            return None

        next_round = self.round + 1
        slot = self._slots.setdefault(next_round, set())
        slot.add(message)
        self.round = next_round
        payload = frozenset(slot)
        self._fresh = [payload]
        return Envelope(next_round, payload)

    def receive(self, envelope: Envelope) -> None:
        """Fire the ``receive(⟨M, k⟩)`` input action.

        Deliveries to crashed or halted processes are dropped: a
        crashed process takes no steps, and a halted one has left the
        protocol, so the merge would never be observed.
        """
        if self.crashed or self.halted:
            return
        round_no = envelope.round_no
        self._slots.setdefault(round_no, set()).update(envelope.payload)
        if round_no <= self.round:
            self._fresh.append(envelope.payload)

    def receive_values(self, round_no: int, values: FrozenSet[Hashable]) -> None:
        """Merge several envelopes' worth of round-``round_no`` payloads.

        Payload merging is an idempotent set union, so delivering the
        union of ``k`` envelopes equals delivering them one by one —
        schedulers batch a round's obligatory broadcasts through this
        to apply one merge per receiver instead of one per link.
        """
        if self.crashed or self.halted:
            return
        self._slots.setdefault(round_no, set()).update(values)
        if round_no <= self.round:
            self._fresh.append(values)

    def crash(self) -> None:
        """Crash the process (it never recovers)."""
        self.crashed = True

    # ------------------------------------------------------------------
    # simulation-layer helpers
    # ------------------------------------------------------------------
    def inbox_view(self) -> InboxView:
        """A read-only view of the inbox (checkers and tests only).

        ``received_since_last_compute`` on it reads the current round's
        buffer: the delta the next ``compute`` would be handed.
        """
        return InboxView(self._slots, self._fresh)

    def has_computed(self, k: int) -> bool:
        """True when ``compute(k, ·)`` has already executed.

        ``compute(k)`` runs at the end-of-round that moves the process
        from round ``k`` to ``k + 1``, hence the strict comparison.
        """
        return self.round > k

    def __repr__(self) -> str:
        state = "crashed" if self.crashed else ("halted" if self.halted else "active")
        return f"GirafProcess(pid={self.pid}, round={self.round}, {state})"
