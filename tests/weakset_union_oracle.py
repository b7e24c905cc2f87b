"""Reference Algorithm-4 ``compute``: line 15 as the literal all-slot union.

:meth:`repro.weakset.ms_weakset.MSWeakSetAlgorithm.compute` feeds line
15 only the messages delivered since its previous call
(``InboxView.received_since_last_compute``).  This module keeps the
plainly written version it replaced — every round, rebuild
``⋃_{m ∈ M[k'], 1 ≤ k' ≤ k} m`` from all slots through
``InboxView.received_up_to`` — as the oracle the whole-run pins in
``tests/weakset/test_union_oracle.py`` compare against.

:func:`literal_union` swaps the oracle into
:class:`~repro.weakset.ms_weakset.MSWeakSetAlgorithm` for the duration
of a block, so any driver (the scripted runner, the cluster facades,
subclasses) can be replayed on it and compared trace for trace.

Importable as ``weakset_union_oracle`` from the tests and from
``benchmarks/`` (``pytest.ini`` puts ``tests/`` on the path).
"""

from __future__ import annotations

import contextlib
from typing import FrozenSet, Hashable, Iterator

from repro.giraf.automaton import InboxView
from repro.weakset import ms_weakset
from repro.weakset.ms_weakset import MSWeakSetAlgorithm


def literal_compute(
    self: MSWeakSetAlgorithm, k: int, inbox: InboxView
) -> FrozenSet[Hashable]:
    """Algorithm 4 lines 14–17, line 15 over every slot ``M[1..k]``."""
    messages = inbox.received(k)
    self.written = ms_weakset._intersect_all(messages)    # line 14
    merged: set = set()
    for message in inbox.received_up_to(k):               # line 15: every slot,
        merged |= message                                 # flattening each m
    self.proposed = frozenset(merged) | self.proposed
    if self.val in self.written:                          # line 16
        self.block = False
    return self.proposed                                  # line 17


@contextlib.contextmanager
def literal_union() -> Iterator[None]:
    """Run every :class:`MSWeakSetAlgorithm` on :func:`literal_compute`."""
    original = MSWeakSetAlgorithm.__dict__["compute"]
    MSWeakSetAlgorithm.compute = literal_compute
    try:
        yield
    finally:
        MSWeakSetAlgorithm.compute = original
