"""Reference implementation of Algorithm 3 lines 8–9 over tuple histories.

The library computes the counter round update one way: a stamped merge
over interned :class:`~repro.core.history.HistoryNode` keys
(:mod:`repro.core.counters`).  This module keeps the original, plainly
written tuple implementation it replaced — a generic pointwise-minimum
loop, prefix maxima by linear scan or through a :class:`HistoryTrie`
index — as the oracle the property suite, the whole-trace pins and the
``*_tuples`` / ``*_scan`` micro-benchmarks compare against.  It reads
any mapping with ``get``/``items``, so it accepts plain dicts and
:class:`~repro.core.counters.FrozenCounters` alike, keyed by tuples or
by nodes (which hash and compare equal to their element tuples).

Importable as ``counter_oracle`` from the tests and from
``benchmarks/`` (``pytest.ini`` puts ``tests/`` on the path).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Mapping, Optional, Sequence

from repro.core.counters import FrozenCounters
from repro.core.history import History, is_prefix
from repro.core.pseudo_leader import PseudoLeaderElector


def pointwise_min(counter_maps: Sequence[Mapping[History, int]]) -> Dict[History, int]:
    """Line 8: ``∀H, C[H] := min_m m.C[H]`` with sparse default-0 reads.

    Iteration is driven by the smallest support — minima are
    commutative, and the intersection can never be larger than its
    smallest operand.
    """
    if not counter_maps:
        return {}
    base = _smallest(counter_maps)
    others = [counters for counters in counter_maps if counters is not base]
    result: Dict[History, int] = {}
    for history, count in base.items():
        minimum = count
        for other in others:
            other_count = other.get(history, 0)
            if other_count < minimum:
                minimum = other_count
                if minimum == 0:
                    break
        if minimum > 0:
            result[history] = minimum
    return result


def _smallest(maps: Sequence) -> Mapping:
    base = maps[0]
    for candidate in maps:
        if len(candidate) < len(base):
            base = candidate
    return base


def prefix_max(counters: Mapping[History, int], history: History) -> int:
    """``max{C[H] : H prefix of history}`` (0 when no prefix is present)."""
    best = 0
    for candidate, count in counters.items():
        if count > best and is_prefix(candidate, history):
            best = count
    return best


class HistoryTrie:
    """Prefix index over a counter map for fast prefix-maximum queries.

    Each query walks the history once instead of scanning every entry.
    The trie can be built once from a map or owned by an elector and
    *refilled in place* every round: nodes are version-stamped rather
    than deallocated, so the per-round rebuild reuses the allocation of
    every previously-seen path.
    """

    __slots__ = ("_root", "_version")

    class _Node:
        __slots__ = ("count", "version", "children")

        def __init__(self):
            self.count = 0
            self.version = 0
            self.children: Dict[Hashable, "HistoryTrie._Node"] = {}

    def __init__(self, counters: Optional[Mapping[History, int]] = None):
        self._root = HistoryTrie._Node()
        self._version = 0
        if counters:
            for history, count in counters.items():
                self.insert(history, count)

    def insert(self, history: History, count: int) -> None:
        version = self._version
        node = self._root
        for element in history:
            node = node.children.setdefault(element, HistoryTrie._Node())
        node.count = count
        node.version = version

    def refill(self, counters: Mapping[History, int]) -> None:
        """Reset to exactly ``counters`` without discarding trie nodes."""
        self._version += 1
        for history, count in counters.items():
            self.insert(history, count)

    def prefix_max(self, history: History) -> int:
        """Maximum count over all stored prefixes of ``history``."""
        version = self._version
        root = self._root
        best = root.count if root.version == version else 0
        node = root
        for element in history:
            child = node.children.get(element)
            if child is None:
                return best
            if child.version == version and child.count > best:
                best = child.count
            node = child
        return best


def prefix_max_via_trie(
    counters: Mapping[History, int], histories: Iterable[History]
) -> Dict[History, int]:
    """Batch prefix-maximum via one trie build (equivalent to per-entry scans)."""
    trie = HistoryTrie(counters)
    return {history: trie.prefix_max(history) for history in histories}


def apply_round_update(
    counter_maps: Sequence[Mapping[History, int]],
    received_histories: Iterable[History],
    *,
    use_trie: bool = True,
    inherit_prefixes: bool = True,
    trie: Optional[HistoryTrie] = None,
) -> Dict[History, int]:
    """Lines 8 and 9: pointwise minimum, then simultaneous prefix bumps.

    ``use_trie`` answers prefix maxima through a :class:`HistoryTrie`
    (a caller-owned ``trie`` is refilled in place); ``False`` scans the
    map per history.  ``inherit_prefixes=False`` is ablation A1.
    """
    histories = list(dict.fromkeys(received_histories))
    merged = pointwise_min(counter_maps)
    if not inherit_prefixes:
        for history in histories:
            merged[history] = 1 + merged.get(history, 0)
        return merged
    if not merged:
        for history in histories:
            merged[history] = 1
        return merged
    if use_trie:
        if trie is not None:
            trie.refill(merged)
            maxima = {history: trie.prefix_max(history) for history in histories}
        else:
            maxima = prefix_max_via_trie(merged, histories)
    else:
        maxima = {history: prefix_max(merged, history) for history in histories}
    # Simultaneous batch assignment: all bumps read the post-minimum map.
    for history in histories:
        merged[history] = 1 + maxima[history]
    return merged


class OracleElector(PseudoLeaderElector):
    """The elector over plain tuple histories and the oracle update.

    Drop-in for :class:`~repro.core.pseudo_leader.PseudoLeaderElector`
    (patch it into ``repro.core.pseudo_leader`` and
    ``repro.core.ess_consensus``) to replay a whole run on the
    reference path: a persistent :class:`HistoryTrie` refilled each
    round, as the seed elector kept.  The leader predicate and the
    sizes are inherited.
    """

    def __init__(self, initial_value: Hashable, *, inherit_prefixes: bool = True):
        self.history = (initial_value,)
        self._counters = {}
        self._inherit_prefixes = inherit_prefixes
        self._trie = HistoryTrie()

    def merge_round(self, counter_maps, received_histories) -> None:
        self._counters = apply_round_update(
            list(counter_maps),
            received_histories,
            inherit_prefixes=self._inherit_prefixes,
            trie=self._trie,
        )

    def append(self, value: Hashable) -> None:
        self.history = self.history + (value,)

    def frozen_counters(self) -> FrozenCounters:
        return FrozenCounters(self._counters)
