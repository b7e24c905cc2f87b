"""Columnar counters: flat integer rows over a shared history index.

The object engine keeps Algorithm 3's per-history counter map ``C`` as
one Python dict per process (:mod:`repro.core.counters`).  That
representation is the measured scale ceiling (PERFORMANCE.md "What is
*not* faster yet"): a round touches one dict and a handful of boxed
ints per process, so n = 10,000 means hundreds of thousands of Python
object operations per round no matter how tuned the loops are.

This module is the array-native twin.  The paper's anonymity regime is
what makes it dense-friendly: histories are brand streams, so the
number of *distinct* histories alive in a run is about
``brands × rounds`` — tiny compared to ``n``.  A shared
:class:`HistoryIndex` assigns each distinct history a column id (built
on the hash-consed :class:`~repro.core.history.HistoryNode` interning,
so assigning a column is one dict probe), and a counter map becomes a
flat integer row: ``row[col(H)] = C[H]``, absent-is-zero exactly like
the paper's sparse semantics.  On rows, Algorithm 3's operations are
whole-array primitives:

* **line 8** (pointwise minimum) — element-wise ``min`` over rows: a
  column survives iff it is positive in every row, which *is* the
  sparse support intersection;
* **line 9** (prefix-inheritance bump) — a maximum over the column's
  ancestor chain (``HistoryIndex.parents`` mirrors the interned tree),
  evaluated for all bumps before any write lands, realizing the
  paper's simultaneous batch assignment.

Two backends are pinned equivalent: a pure-Python implementation on
``array('q')`` rows (always available) and a numpy implementation used
automatically when numpy is importable.  ``REPRO_NO_NUMPY=1`` hides
numpy entirely (the CI fallback leg); ``REPRO_COLUMNAR_BACKEND``
forces one backend.  Both env vars are read at import time.

Layers, bottom up:

* map-level twins (:func:`columnar_pointwise_min`,
  :func:`columnar_round_update`, :func:`columnar_prefix_max`) — the
  equivalence surface: same signatures-in-spirit as
  :func:`~repro.core.counters.pointwise_min` /
  :func:`~repro.core.counters.apply_round_update` and line 9's prefix
  maximum, property-tested against them on random maps
  (``tests/core/test_columnar.py``);
* :class:`ColumnarElector` — a drop-in for
  :class:`~repro.core.pseudo_leader.PseudoLeaderElector` holding one
  row over a shared index (what ``engine="columnar"`` swaps in when
  the whole-round matrix engine cannot engage);
* :class:`CounterColumns` — the n × width matrix store the lock-step
  whole-round engine (:mod:`repro.runtime.columnar_engine`) computes
  on.

Scope note: columns exist for *non-empty* histories only (the paper's
histories start at length 1 and only grow; the empty history never
carries a counter in any reachable state).  Interning a length-0
history raises.
"""

from __future__ import annotations

import os
from array import array
from types import MappingProxyType
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence

from repro.core.counters import FrozenCounters
from repro.core.history import (
    History,
    HistoryNode,
    extend,
    initial_history,
    intern_history,
)

__all__ = [
    "BACKENDS",
    "COUNTER_DTYPE",
    "COUNTER_MAX",
    "numpy_available",
    "default_backend",
    "HistoryIndex",
    "CounterColumns",
    "ColumnarElector",
    "columnar_pointwise_min",
    "columnar_round_update",
    "columnar_prefix_max",
]

#: numpy module or None.  Resolved once at import: backend selection
#: must be stable for a run (rows of both kinds never mix), and the
#: no-numpy CI leg sets REPRO_NO_NUMPY before Python starts.
_np = None
if not os.environ.get("REPRO_NO_NUMPY"):
    try:
        import numpy as _np  # type: ignore[no-redef]
    except ImportError:  # pragma: no cover - exercised by the CI leg
        _np = None

BACKENDS = ("numpy", "python")

#: Storage dtype of the numpy :class:`CounterColumns` matrix, the
#: whole-run engines' hot path.  32 bits suffice there: a counter grows
#: by at most 1 per round, so it is bounded by the rounds a run
#: executes, and the matrix engines decline runs whose ``max_rounds``
#: could pass :data:`COUNTER_MAX`.  Per-process elector rows and the
#: map-level twins stay int64 (no bound), and the pure-Python backend
#: keeps ``array('q')``.
COUNTER_DTYPE = _np.int32 if _np is not None else None

#: Largest count a numpy :class:`CounterColumns` matrix holds.
COUNTER_MAX = 2**31 - 1


def numpy_available() -> bool:
    """True when the numpy backend can be used in this process."""
    return _np is not None


def _resolve_backend(backend):
    """Validate an explicit backend choice (``None`` = default)."""
    if backend is None:
        return default_backend()
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}: expected one of {BACKENDS}"
        )
    if backend == "numpy" and _np is None:
        raise RuntimeError("numpy backend requested but numpy is not importable")
    return backend


def default_backend() -> str:
    """The backend columnar code uses unless told otherwise.

    ``REPRO_COLUMNAR_BACKEND`` forces a choice (raising if it names
    the numpy backend while numpy is unavailable); otherwise numpy
    when importable, the pure-Python ``array`` rows when not.
    """
    forced = os.environ.get("REPRO_COLUMNAR_BACKEND")
    if forced:
        if forced not in BACKENDS:
            raise ValueError(
                f"REPRO_COLUMNAR_BACKEND={forced!r}: expected one of {BACKENDS}"
            )
        if forced == "numpy" and _np is None:
            raise RuntimeError(
                "REPRO_COLUMNAR_BACKEND=numpy but numpy is not importable"
            )
        return forced
    return "numpy" if _np is not None else "python"


class HistoryIndex:
    """Column ids for every distinct history seen in one run.

    One shared index per run: every row (per-process counters, matrix
    rows of the whole-round engine) is keyed by the same columns, so
    rows combine without any per-history translation.  Interning a
    history also interns every prefix — ``parents[col]`` is therefore
    always a valid column (or ``-1`` for length-1 histories), and a
    prefix-maximum is a walk up ``parents``.

    Lookup is content-based (the table hashes histories, and
    :class:`~repro.core.history.HistoryNode` hashes equal to the tuple
    of its elements), so tuple histories and nodes — including nodes
    that survived :func:`~repro.core.history.clear_intern_cache` — all
    resolve to the same column.  The index grows for its lifetime;
    create one per run (the schedulers do) and let it go.
    """

    __slots__ = ("_cols", "parents", "lengths", "histories")

    def __init__(self) -> None:
        self._cols: Dict[History, int] = {}
        #: parent column per column (-1 when the parent is the empty history)
        self.parents: List[int] = []
        #: history length per column
        self.lengths: List[int] = []
        #: canonical interned node per column
        self.histories: List[HistoryNode] = []

    @property
    def width(self) -> int:
        """Number of columns assigned so far."""
        return len(self.histories)

    def _new_column(self, node: HistoryNode, parent_col: int) -> int:
        col = len(self.histories)
        self._cols[node] = col
        self.histories.append(node)
        self.parents.append(parent_col)
        self.lengths.append(node.length)
        return col

    def intern(self, history: History) -> int:
        """The column of ``history``, assigning one (plus any missing
        prefix columns) on first sight.  O(unindexed prefix length)."""
        col = self._cols.get(history)
        if col is not None:
            return col
        if isinstance(history, HistoryNode):
            node = history
        else:
            node = intern_history(history)
        if node.length == 0:
            raise ValueError("the empty history has no column")
        # Walk down the un-indexed prefix chain iteratively (histories
        # can be thousands of elements deep — no recursion), then
        # unwind assigning columns parent-first.
        chain: List[HistoryNode] = []
        parent_col = -1
        cursor = node
        while cursor.length > 0:
            existing = self._cols.get(cursor)
            if existing is not None:
                parent_col = existing
                break
            chain.append(cursor)
            cursor = cursor.parent
        for pending in reversed(chain):
            parent_col = self._new_column(pending, parent_col)
        return parent_col

    def child_col(self, parent_col: int, value: Hashable) -> int:
        """Column of ``parent + (value,)`` — the O(1) append step.

        ``parent_col=-1`` means "extend the empty history".
        """
        if parent_col < 0:
            node = intern_history((value,))
        else:
            node = self.histories[parent_col].child(value)
        col = self._cols.get(node)
        if col is None:
            col = self._new_column(node, parent_col)
        return col

    def ancestor_cols(self, col: int) -> List[int]:
        """``col`` and every proper-prefix column, nearest first."""
        chain: List[int] = []
        parents = self.parents
        while col >= 0:
            chain.append(col)
            col = parents[col]
        return chain


# ----------------------------------------------------------------------
# row primitives (both backends)
# ----------------------------------------------------------------------

def _zeros(width: int, backend: str):
    if backend == "numpy":
        return _np.zeros(width, dtype=_np.int64)
    return array("q", bytes(8 * width))


def _row_from_map(
    mapping: Mapping[History, int], index: HistoryIndex, backend: str, width: int
):
    """Dense row of an (already fully interned) sparse counter map.

    Non-positive entries are left at zero: a zero or negative count is
    indistinguishable from an absent history under the paper's sparse
    semantics (it can never survive a minimum and never win a prefix
    maximum), which is exactly how the object-path merge treats them.
    """
    row = _zeros(width, backend)
    intern = index.intern
    for history, count in mapping.items():
        if count > 0:
            row[intern(history)] = count
    return row


def _min_rows(rows: Sequence, backend: str):
    """Element-wise minimum of equally-wide rows (a fresh row)."""
    if backend == "numpy":
        if len(rows) == 1:
            return rows[0].copy()
        return _np.minimum.reduce(rows)
    out = rows[0]
    for other in rows[1:]:
        out = array("q", map(min, out, other))
    if out is rows[0]:
        out = array("q", out)
    return out


def _prefix_best(row, col: int, parents: Sequence[int]) -> int:
    """Max row value over ``col`` and its ancestor columns (0 default)."""
    best = 0
    size = len(row)
    while col >= 0:
        if col < size:
            value = row[col]
            if value > best:
                best = value
        col = parents[col]
    return int(best)


def _map_from_row(row, index: HistoryIndex) -> Dict[History, int]:
    """Sparse dict of a dense row's positive entries (canonical node keys)."""
    histories = index.histories
    if _np is not None and isinstance(row, _np.ndarray):
        values = row.tolist()
    else:
        values = row
    return {
        histories[col]: value
        for col, value in enumerate(values)
        if value > 0
    }


# ----------------------------------------------------------------------
# map-level twins (the property-tested equivalence surface)
# ----------------------------------------------------------------------

def columnar_pointwise_min(
    counter_maps: Sequence[Mapping[History, int]],
    *,
    index: Optional[HistoryIndex] = None,
    backend: Optional[str] = None,
) -> Dict[History, int]:
    """Row twin of :func:`~repro.core.counters.pointwise_min`."""
    maps = list(counter_maps)
    if not maps:
        return {}
    index = index if index is not None else HistoryIndex()
    backend = _resolve_backend(backend)
    for mapping in maps:
        for history in mapping:
            index.intern(history)
    width = index.width
    rows = [_row_from_map(mapping, index, backend, width) for mapping in maps]
    return _map_from_row(_min_rows(rows, backend), index)


def columnar_round_update(
    counter_maps: Sequence[Mapping[History, int]],
    received_histories: Iterable[History],
    *,
    inherit_prefixes: bool = True,
    index: Optional[HistoryIndex] = None,
    backend: Optional[str] = None,
) -> Dict[History, int]:
    """Row twin of :func:`~repro.core.counters.apply_round_update`.

    Bumps are computed for every received history against the
    post-minimum row before any bump is written (the paper's
    simultaneous batch assignment) — with histories of arbitrary
    lengths a bump column can be another bump's ancestor, so the
    read-all-then-write-all order is load-bearing here.
    """
    maps = list(counter_maps)
    histories = list(dict.fromkeys(received_histories))
    index = index if index is not None else HistoryIndex()
    backend = _resolve_backend(backend)
    for mapping in maps:
        for history in mapping:
            index.intern(history)
    cols = [index.intern(history) for history in histories]
    width = index.width
    if maps:
        rows = [_row_from_map(mapping, index, backend, width) for mapping in maps]
        merged = _min_rows(rows, backend)
    else:
        merged = _zeros(width, backend)
    parents = index.parents
    if inherit_prefixes:
        bumps = [1 + _prefix_best(merged, col, parents) for col in cols]
    else:
        bumps = [1 + int(merged[col]) for col in cols]
    for col, value in zip(cols, bumps):
        merged[col] = value
    return _map_from_row(merged, index)


def columnar_prefix_max(
    counters: Mapping[History, int],
    history: History,
    *,
    index: Optional[HistoryIndex] = None,
    backend: Optional[str] = None,
) -> int:
    """Row twin of line 9's ``max{C[H] : H prefix of history}``.

    Interning adds a column for *every* prefix of every key, so the
    ancestor chain of ``history``'s column enumerates exactly the
    candidate prefixes a scan of the map would test.
    """
    index = index if index is not None else HistoryIndex()
    backend = _resolve_backend(backend)
    for key in counters:
        index.intern(key)
    col = index.intern(history)
    width = index.width
    row = _row_from_map(counters, index, backend, width)
    return _prefix_best(row, col, index.parents)


# ----------------------------------------------------------------------
# stores
# ----------------------------------------------------------------------

class CounterColumns:
    """Dense ``n × width`` counter matrix over a shared index.

    The whole-round engine's store: row ``i`` is process ``i``'s
    counter map, columns are :class:`HistoryIndex` ids.  The numpy
    backend keeps one 2-D :data:`COUNTER_DTYPE` (int32) array
    (capacity-doubled as the index grows, so per-round widening is
    amortized O(1) per cell); the pure-Python backend keeps one
    ``array('q')`` per row, padded to the current width.

    The engine computes directly on the backing storage (``data`` /
    ``rows``) — this class owns allocation and sparse import/export,
    not the arithmetic.
    """

    __slots__ = ("n", "index", "backend", "_width", "data", "rows")

    def __init__(
        self, n: int, index: HistoryIndex, backend: Optional[str] = None
    ) -> None:
        if n < 1:
            raise ValueError("need at least one row")
        self.n = n
        self.index = index
        self.backend = _resolve_backend(backend)
        self._width = 0
        if self.backend == "numpy":
            self.data = _np.zeros((n, 8), dtype=COUNTER_DTYPE)
            self.rows = None
        else:
            self.data = None
            self.rows = [array("q") for _ in range(n)]

    @property
    def width(self) -> int:
        """Logical width (columns in use; storage may be wider)."""
        return self._width

    def ensure_width(self, width: int) -> None:
        """Grow logical width (new columns read as zero)."""
        if width <= self._width:
            return
        if self.backend == "numpy":
            capacity = self.data.shape[1]
            if width > capacity:
                grown = _np.zeros(
                    (self.n, max(width, 2 * capacity)), dtype=COUNTER_DTYPE
                )
                grown[:, :capacity] = self.data
                self.data = grown
        else:
            for row in self.rows:
                pad = width - len(row)
                if pad:
                    row.extend(array("q", bytes(8 * pad)))
        self._width = width

    def row_map(self, i: int) -> Dict[History, int]:
        """Sparse dict of row ``i`` (positive entries, node keys)."""
        if self.backend == "numpy":
            return _map_from_row(self.data[i, : self._width], self.index)
        return _map_from_row(self.rows[i], self.index)

    def set_row_map(self, i: int, mapping: Mapping[History, int]) -> None:
        """Load row ``i`` from a sparse map (clearing it first).

        Raises :class:`ValueError` (leaving the row untouched) when a
        count does not fit the numpy backend's :data:`COUNTER_DTYPE`.
        """
        if self.backend == "numpy":
            for count in mapping.values():
                if count > COUNTER_MAX:
                    raise ValueError(
                        f"counter value {count} does not fit the int32 "
                        f"counter columns (max {COUNTER_MAX})"
                    )
        for history in mapping:
            self.index.intern(history)
        self.ensure_width(self.index.width)
        row = _row_from_map(mapping, self.index, self.backend, self._width)
        if self.backend == "numpy":
            self.data[i, : self._width] = row
        else:
            self.rows[i][:] = row


class ColumnarElector:
    """Array-backed drop-in for
    :class:`~repro.core.pseudo_leader.PseudoLeaderElector`.

    Same public surface (``history``, ``counters``, ``merge_round``,
    ``is_leader``, ``my_counter``, ``max_counter``, ``append``,
    ``frozen_counters``, ``state_size``), same answers (pinned by the
    cross-engine trace tests), but the counter state is one flat row
    over a shared :class:`HistoryIndex` instead of a per-process dict.
    This is what ``engine="columnar"`` swaps into counter-bearing
    algorithms when the lock-step whole-round matrix engine cannot
    take over (the drifting scheduler, consensus algorithms, snapshot
    or hook-bearing runs).
    """

    __slots__ = (
        "history",
        "_index",
        "_backend",
        "_row",
        "_inherit_prefixes",
        "_own_col",
    )

    def __init__(
        self,
        initial_value: Hashable,
        *,
        index: Optional[HistoryIndex] = None,
        backend: Optional[str] = None,
        inherit_prefixes: bool = True,
    ) -> None:
        self.history: History = initial_history(initial_value)
        self._index = index if index is not None else HistoryIndex()
        self._backend = _resolve_backend(backend)
        self._row = _zeros(0, self._backend)
        self._inherit_prefixes = inherit_prefixes
        self._own_col: Optional[tuple] = None

    @classmethod
    def adopt(
        cls,
        elector,
        index: HistoryIndex,
        backend: Optional[str] = None,
    ) -> "ColumnarElector":
        """Columnar twin of an existing object elector (same state)."""
        clone = cls.__new__(cls)
        clone.history = elector.history
        clone._index = index
        clone._backend = _resolve_backend(backend)
        clone._inherit_prefixes = getattr(elector, "_inherit_prefixes", True)
        clone._own_col = None
        counters = dict(getattr(elector, "_counters", None) or {})
        for history in counters:
            index.intern(history)
        clone._row = _row_from_map(counters, index, clone._backend, index.width)
        return clone

    # -- internals ------------------------------------------------------
    def _history_col(self) -> int:
        cached = self._own_col
        if cached is not None and cached[0] is self.history:
            return cached[1]
        col = self._index.intern(self.history)
        self._own_col = (self.history, col)
        return col

    def _positive_items(self):
        row = self._row
        if self._backend == "numpy":
            values = row.tolist()
        else:
            values = row
        histories = self._index.histories
        for col, value in enumerate(values):
            if value > 0:
                yield histories[col], value

    # -- PseudoLeaderElector surface ------------------------------------
    @property
    def counters(self) -> Mapping[History, int]:
        """The current counter map ``C`` (materialized, read-only)."""
        return MappingProxyType(dict(self._positive_items()))

    def merge_round(
        self,
        counter_maps: Iterable[Mapping[History, int]],
        received_histories: Iterable[History],
    ) -> None:
        """Lines 8–9 on rows: element-wise min, then buffered bumps."""
        index = self._index
        intern = index.intern
        maps = [
            mapping._entries if isinstance(mapping, FrozenCounters) else mapping
            for mapping in counter_maps
        ]
        histories = list(dict.fromkeys(received_histories))
        for mapping in maps:
            for history in mapping:
                intern(history)
        cols = [intern(history) for history in histories]
        width = index.width
        backend = self._backend
        if maps:
            rows = [_row_from_map(mapping, index, backend, width) for mapping in maps]
            row = _min_rows(rows, backend)
        else:
            row = _zeros(width, backend)
        parents = index.parents
        if self._inherit_prefixes:
            bumps = [1 + _prefix_best(row, col, parents) for col in cols]
        else:
            bumps = [1 + int(row[col]) for col in cols]
        for col, value in zip(cols, bumps):
            row[col] = value
        self._row = row

    def is_leader(self) -> bool:
        """Definition 1: own history's counter is maximal."""
        return self.my_counter() >= self.max_counter()

    def my_counter(self) -> int:
        col = self._history_col()
        row = self._row
        return int(row[col]) if col < len(row) else 0

    def max_counter(self) -> int:
        row = self._row
        if self._backend == "numpy":
            return int(row.max()) if row.size else 0
        return max(row, default=0)

    def append(self, value: Hashable) -> None:
        """Line 21: ``append VAL to HISTORY``."""
        self.history = extend(self.history, value)

    def frozen_counters(self) -> FrozenCounters:
        """The immutable form carried in outgoing messages."""
        # Positive-only by construction (minimum drops zeros, bumps are
        # >= 1), so adopting without validation mirrors the object path.
        return FrozenCounters._adopt(dict(self._positive_items()))

    def state_size(self) -> int:
        """Structural size of the elector's state (experiment T3)."""
        lengths = self._index.lengths
        row = self._row
        if self._backend == "numpy":
            values = row.tolist()
        else:
            values = row
        return len(self.history) + sum(
            lengths[col] + 1 for col, value in enumerate(values) if value > 0
        )
