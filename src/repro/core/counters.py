"""Sparse per-history counters (Algorithm 3, lines 2, 8, 9).

The pseudo leader election maintains, at every process, a counter
``C[H]`` for each history ``H`` it has heard of.  The paper is explicit
that the map is *sparse* ("no memory is allocated for histories it has
not yet heard of"): an absent entry reads as 0.  Two operations drive
it each round:

* **line 8** — pointwise minimum over the round's received messages:
  ``∀H, C[H] := min_m m.C[H]``.  With sparse default-0 semantics a
  history missing from *any* received message mins to 0 and stays
  unallocated, so the result's support is the intersection of the
  messages' supports.
* **line 9** — prefix-inheritance bump: for each received message,
  ``C[m.HISTORY] := 1 + max{C[H] : H prefix of m.HISTORY}``.  Bumps are
  evaluated *simultaneously* against the post-minimum map (the paper's
  ``∀m`` batch assignment), so the order of messages in the set — which
  anonymity makes meaningless anyway — cannot matter.

:class:`FrozenCounters` is the immutable, hashable form that rides
inside messages.  Both lines run as one *stamped merge* over interned
:class:`~repro.core.history.HistoryNode` keys: one version-stamped pass
per map leaves each key's running minimum on the node itself, and the
line-9 prefix maxima walk parent pointers reading those stamps — the
interned tree is the prefix index, and no key is hashed until the
result dict is built.  Input in any other form (tuple keys or
histories, plain dicts, nodes predating
:func:`~repro.core.history.clear_intern_cache`) is re-interned once on
the way in, then takes the same merge.

**Concurrency note:** the stamped merge annotates shared interned
nodes through a module-global stamp, so concurrent counter merges from
multiple *threads* can clobber each other's in-flight annotations.
The library's unit of parallelism is the process (see
:func:`repro.experiments.common.run_cells`), where every worker owns
its interpreter and its intern table.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence

from repro.core.history import (
    History,
    HistoryNode,
    intern_generation,
    intern_history,
)

__all__ = [
    "FrozenCounters",
    "pointwise_min",
    "apply_round_update",
]


class FrozenCounters(Mapping[History, int]):
    """Immutable sparse counter map, safe to embed in frozen messages.

    Zero entries are normalized away so that two maps with the same
    non-zero support compare (and hash) equal — an allocated-at-zero
    entry would otherwise leak scheduling history through message
    equality, breaking anonymity's merge semantics.
    """

    __slots__ = ("_entries", "_hash", "_atoms", "_psize", "_nodes_gen")

    def __init__(self, entries: Optional[Mapping[History, int]] = None):
        cleaned = {
            history: count
            for history, count in (entries or {}).items()
            if count != 0
        }
        for history, count in cleaned.items():
            if count < 0:
                raise ValueError(f"negative counter for {history!r}")
        self._entries: Dict[History, int] = cleaned
        self._hash: Optional[int] = None
        self._atoms: Optional[int] = None
        self._psize: Optional[int] = None
        self._nodes_gen: Optional[int] = None

    EMPTY: "FrozenCounters"

    @classmethod
    def _adopt(cls, entries: Dict[History, int]) -> "FrozenCounters":
        """Wrap an already-clean dict without copying or validating.

        Internal fast path for producers whose output is zero-free and
        positive by construction (the round update: minima drop zeros,
        bumps are ≥ 1) and who relinquish the dict (the elector
        replaces, never mutates, its map).
        """
        frozen = cls.__new__(cls)
        frozen._entries = entries
        frozen._hash = None
        frozen._atoms = None
        frozen._psize = None
        frozen._nodes_gen = None
        return frozen

    def _node_generation(self) -> int:
        """Common intern generation of the keys, or ``-1``.

        ``-1`` means "not canonical, re-intern before merging": a
        non-node key, or keys from different intern generations (nodes
        that survived :func:`~repro.core.history.clear_intern_cache`
        may have equal-content doppelgängers, so only a single-current-
        generation map may be merged by identity).  Cached — the map is
        immutable.
        """
        if not self._entries:
            # An empty map is trivially mergeable in any generation —
            # never cache, or the shared EMPTY singleton would pin the
            # generation of its first use forever.
            return intern_generation()
        generation = self._nodes_gen
        if generation is None:
            generation = -1
            for history in self._entries:
                if type(history) is not HistoryNode:
                    generation = -1
                    break
                if generation == -1:
                    generation = history._gen
                elif generation != history._gen:
                    generation = -1
                    break
            self._nodes_gen = generation
        return generation

    def __getitem__(self, history: History) -> int:
        # Sparse semantics: absent histories read as 0, per the paper.
        return self._entries.get(history, 0)

    def get(self, history: History, default: int = 0) -> int:  # type: ignore[override]
        return self._entries.get(history, default)

    def __iter__(self) -> Iterator[History]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, history: object) -> bool:
        return history in self._entries

    def items(self):
        return self._entries.items()

    def to_dict(self) -> Dict[History, int]:
        return dict(self._entries)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FrozenCounters):
            return self._entries == other._entries
        if isinstance(other, Mapping):
            return self._entries == {h: c for h, c in other.items() if c != 0}
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._entries.items()))
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{history!r}: {count}" for history, count in sorted(
                self._entries.items(), key=lambda item: (len(item[0]), repr(item[0]))
            )
        )
        return f"FrozenCounters({{{inner}}})"

    def payload_atoms(self) -> int:
        """Structural size: one atom per history element plus the count."""
        atoms = self._atoms
        if atoms is None:
            atoms = self._atoms = sum(
                len(history) + 1 for history in self._entries
            )
        return atoms

    def __payload_size__(self, recurse) -> int:
        # Exactly the Mapping recursion of payload_size, cached: counter
        # maps are the dominant share of Algorithm 3's payload and are
        # measured once per broadcast in experiment T3.  The common case
        # (interned history keys, int counts) skips the generic
        # recursion: such a key contributes its cached node size and
        # the count contributes 1 atom, which is what the recursion
        # would conclude.
        size = self._psize
        if size is None:
            size = 1
            for history, count in self._entries.items():
                if type(history) is HistoryNode and type(count) is int:
                    size += history.__payload_size__(recurse) + 1
                else:
                    size += recurse(history) + recurse(count)
            self._psize = size
        return size


FrozenCounters.EMPTY = FrozenCounters()


def pointwise_min(counter_maps: Sequence[Mapping[History, int]]) -> Dict[History, int]:
    """Line 8: ``∀H, C[H] := min_m m.C[H]`` with sparse default-0 reads.

    The support of the result is the intersection of the supports (a
    history missing anywhere mins to 0 and is dropped).
    """
    return _stamped_merge(_canonical_maps(counter_maps, intern_generation()))[0]


def apply_round_update(
    counter_maps: Sequence[Mapping[History, int]],
    received_histories: Iterable[History],
    *,
    inherit_prefixes: bool = True,
) -> Dict[History, int]:
    """Lines 8 and 9 in one step.

    Args:
        counter_maps: the ``m.C`` of every message received this round.
        received_histories: the ``m.HISTORY`` of every received message.
        inherit_prefixes: the paper's line 9.  ``False`` is the
            ablation A1 variant: bump only the exact history key, so a
            history that grew since last round restarts from zero —
            every counter stays at 1 and leadership degenerates to
            "everybody, always".

    Returns the process's new counter map.
    """
    generation = intern_generation()
    maps = _canonical_maps(counter_maps, generation)
    histories = [
        _canonical_history(history, generation)
        for history in dict.fromkeys(received_histories)
    ]
    merged, stamp, needed = _stamped_merge(maps)
    if not inherit_prefixes:
        for history in histories:
            merged[history] = 1 + merged.get(history, 0)
        return merged
    # The stamped minimum left each key's minimum and presence count on
    # its node; the prefix walks read those same stamps.  Bumps are
    # written into the result dict only — node annotations keep their
    # post-minimum values — which realizes the paper's simultaneous
    # batch assignment for free.
    for history in histories:
        best = 0
        node = history
        while node is not None:
            # Includes the length-0 root: an empty-history entry is a
            # prefix of everything.
            if node._stamp == stamp and node._seen == needed:
                count = node._count
                if count > best:
                    best = count
            node = node.parent
        merged[history] = 1 + best
    return merged


def _canonical_history(history: History, generation: int) -> HistoryNode:
    """``history`` as a node of the current intern generation."""
    if type(history) is HistoryNode and history._gen == generation:
        return history
    return intern_history(history)


def _canonical_maps(
    counter_maps: Sequence[Mapping[History, int]], generation: int
) -> List[Dict[HistoryNode, int]]:
    """Every map as a dict keyed by current-generation interned nodes.

    Frozen maps already in that form pass through as their own entry
    dicts, uncopied — every map the electors exchange.  Anything else
    (tuple keys, plain dicts, nodes that survived a
    ``clear_intern_cache()`` and may have equal-content doppelgängers
    in the new table) is re-interned into a fresh dict.
    """
    return [
        counters._entries
        if isinstance(counters, FrozenCounters)
        and counters._node_generation() == generation
        else {
            _canonical_history(history, generation): count
            for history, count in counters.items()
        }
        for counters in counter_maps
    ]


def _smallest(maps: Sequence) -> Mapping:
    """The map with the smallest support: the merge's iteration base.

    Minima are commutative, so the choice cannot change the result, and
    the support intersection can never be larger than its smallest
    operand.
    """
    base = maps[0]
    for candidate in maps:
        if len(candidate) < len(base):
            base = candidate
    return base


#: Monotone stamp distinguishing one merge's node annotations from
#: every earlier one (see :func:`_stamped_merge`).
_STAMP = 0


def _stamped_merge(maps: Sequence[Dict[HistoryNode, int]]):
    """Pointwise minimum over canonical maps without hashing a key.

    One stamped pass per map accumulates, directly on the nodes, the
    running minimum and the number of maps each key appeared in; keys
    seen in every map (the support intersection) with a positive
    minimum survive.  Duplicate map objects (one process's counters
    relayed through several envelopes) are skipped — ``min(x, x) = x``.

    Returns ``(merged, stamp, needed)`` so callers can keep reading the
    post-minimum annotations: a node was in the intersection iff
    ``node._stamp == stamp and node._seen == needed``, with its minimum
    in ``node._count``.  Stale stamps from earlier merges never match,
    so nothing is cleared between rounds.
    """
    # Identity-keyed and insertion-ordered: first-seen order decides
    # the base map and hence the result's key order.
    unique = list({id(entries): entries for entries in maps}.values())
    global _STAMP
    _STAMP += 1
    stamp = _STAMP
    if not unique:
        return {}, stamp, 1
    base = _smallest(unique)
    others = [entries for entries in unique if entries is not base]
    for node, count in base.items():
        node._stamp = stamp
        node._count = count
        node._seen = 1
    for other in others:
        for node, count in other.items():
            if node._stamp == stamp:
                node._seen += 1
                if count < node._count:
                    node._count = count
    needed = len(others) + 1
    merged: Dict[History, int] = {
        node: node._count
        for node in base
        if node._seen == needed and node._count > 0
    }
    return merged, stamp, needed
