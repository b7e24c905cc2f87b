"""Columnar counter twins pinned against the dict-based reference.

Every public piece of :mod:`repro.core.columnar` has a dict-based twin
in :mod:`repro.core.counters` / :mod:`repro.core.pseudo_leader` (the
line-8 minimum and the line-9 prefix maximum are taken from the tuple
oracle, ``counter_oracle``); these tests pin them equal on random
inputs, on both backends.  Tuple and interned-node histories hash and
compare interchangeably, so the assertions compare dicts directly
across representations.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columnar import (
    BACKENDS,
    COUNTER_DTYPE,
    COUNTER_MAX,
    ColumnarElector,
    CounterColumns,
    HistoryIndex,
    columnar_pointwise_min,
    columnar_prefix_max,
    columnar_round_update,
    default_backend,
    numpy_available,
)
from counter_oracle import pointwise_min, prefix_max
from repro.core.counters import FrozenCounters, apply_round_update
from repro.core.history import (
    clear_intern_cache,
    intern_cache_size,
    intern_history,
)
from repro.core.pseudo_leader import PseudoLeaderElector

history_st = st.lists(st.integers(0, 3), min_size=1, max_size=6).map(tuple)
counter_map_st = st.dictionaries(history_st, st.integers(1, 20), max_size=6)

backends = pytest.mark.parametrize(
    "backend",
    [
        backend
        for backend in BACKENDS
        if backend == "python" or numpy_available()
    ],
)


class TestBackendSelection:
    def test_default_backend_is_known(self):
        assert default_backend() in BACKENDS

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            CounterColumns(1, HistoryIndex(), "fortran")


class TestHistoryIndex:
    def test_same_history_same_column(self):
        index = HistoryIndex()
        assert index.intern((1, 2)) == index.intern((1, 2))
        assert index.intern(intern_history((1, 2))) == index.intern((1, 2))

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            HistoryIndex().intern(())

    def test_ancestor_cols_are_nonstrict_prefixes(self):
        index = HistoryIndex()
        col = index.intern((1, 2, 3))
        ancestors = index.ancestor_cols(col)
        # nearest first: the column itself, then each proper prefix
        assert [tuple(index.histories[c]) for c in ancestors] == [
            (1, 2, 3),
            (1, 2),
            (1,),
        ]

    def test_child_col_extends(self):
        index = HistoryIndex()
        parent = index.intern((5,))
        child = index.child_col(parent, 7)
        assert tuple(index.histories[child]) == (5, 7)
        assert index.child_col(-1, 5) == parent

    def test_width_tracks_interned_columns(self):
        index = HistoryIndex()
        assert index.width == 0
        index.intern((1, 2))
        assert index.width == 2


@backends
class TestPointwiseMinTwin:
    @given(maps=st.lists(counter_map_st, min_size=1, max_size=4))
    def test_matches_reference(self, backend, maps):
        assert columnar_pointwise_min(maps, backend=backend) == pointwise_min(maps)

    def test_empty_input(self, backend):
        assert columnar_pointwise_min([], backend=backend) == {}


@backends
class TestRoundUpdateTwin:
    @given(
        maps=st.lists(counter_map_st, min_size=1, max_size=3),
        received=st.lists(history_st, min_size=1, max_size=4),
        inherit=st.booleans(),
    )
    def test_matches_reference(self, backend, maps, received, inherit):
        expected = apply_round_update(maps, received, inherit_prefixes=inherit)
        actual = columnar_round_update(
            maps, received, inherit_prefixes=inherit, backend=backend
        )
        assert actual == expected

    @given(
        maps=st.lists(counter_map_st, min_size=1, max_size=3),
        received=st.lists(history_st, min_size=1, max_size=4),
    )
    def test_matches_interned_fast_path(self, backend, maps, received):
        """Tuple inputs to the twin match node inputs to the reference."""
        node_maps = [
            {intern_history(history): count for history, count in mapping.items()}
            for mapping in maps
        ]
        node_received = [intern_history(history) for history in received]
        expected = apply_round_update(node_maps, node_received)
        assert columnar_round_update(maps, received, backend=backend) == expected

    @given(received=st.lists(history_st, min_size=1, max_size=4))
    def test_empty_state_bumps_to_one(self, backend, received):
        result = columnar_round_update([{}], received, backend=backend)
        assert result == apply_round_update([{}], received)
        assert set(result.values()) <= {1}


@backends
class TestPrefixMaxTwin:
    @given(counters=counter_map_st, history=history_st)
    def test_matches_reference(self, backend, counters, history):
        assert columnar_prefix_max(
            counters, history, backend=backend
        ) == prefix_max(counters, history)


@backends
class TestCounterColumns:
    def test_row_map_round_trip(self, backend):
        index = HistoryIndex()
        columns = CounterColumns(3, index, backend)
        mapping = {(1,): 4, (1, 2): 1}
        columns.set_row_map(1, mapping)
        assert columns.row_map(1) == mapping
        assert columns.row_map(0) == {}

    def test_zero_entries_dropped(self, backend):
        index = HistoryIndex()
        columns = CounterColumns(1, index, backend)
        columns.set_row_map(0, {(1,): 0, (2,): 3})
        assert columns.row_map(0) == {(2,): 3}

    def test_ensure_width_preserves_values(self, backend):
        index = HistoryIndex()
        columns = CounterColumns(2, index, backend)
        columns.set_row_map(0, {(1,): 2})
        index.intern((9, 9, 9, 9, 9, 9, 9, 9, 9, 9))
        columns.ensure_width(index.width)
        assert columns.row_map(0) == {(1,): 2}


class TestCounterDtype:
    """int32 for the engines' counter matrix only; counts that do not fit
    it raise, and every other numpy row keeps 64-bit counts."""

    @pytest.mark.skipif(not numpy_available(), reason="numpy backend only")
    def test_only_the_counter_matrix_is_int32(self):
        import numpy

        assert COUNTER_DTYPE is numpy.int32
        assert COUNTER_MAX == numpy.iinfo(numpy.int32).max
        index = HistoryIndex()
        columns = CounterColumns(2, index, "numpy")
        columns.set_row_map(0, {(1,): 3})
        index.intern(tuple(range(40)))
        columns.ensure_width(index.width)
        assert columns.data.dtype == COUNTER_DTYPE
        elector = ColumnarElector(1, index=index, backend="numpy")
        elector.merge_round([FrozenCounters({(1,): 3})], [(1,)])
        assert elector._row.dtype == numpy.int64
        adopted = ColumnarElector.adopt(PseudoLeaderElector(1), index, "numpy")
        assert adopted._row.dtype == numpy.int64

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_electors_and_twins_hold_counts_past_int32(self, backend):
        if backend == "numpy" and not numpy_available():
            pytest.skip("numpy not installed")
        big = COUNTER_MAX + 5
        assert columnar_prefix_max({(1,): big}, (1, 2), backend=backend) == big
        assert columnar_round_update(
            [{(1,): big, (2,): big}], [(1,)], backend=backend
        ) == {(1,): big + 1, (2,): big}
        # The per-process fallback the matrix engines decline to: its
        # line-9 bump past the int32 bound stays exact.
        elector = ColumnarElector(1, backend=backend)
        elector.merge_round([FrozenCounters({(1,): COUNTER_MAX})], [(1,)])
        assert dict(elector.counters) == {(1,): COUNTER_MAX + 1}
        assert elector.my_counter() == elector.max_counter() == COUNTER_MAX + 1

    @pytest.mark.skipif(not numpy_available(), reason="numpy backend only")
    def test_set_row_map_rejects_counts_past_int32(self):
        columns = CounterColumns(2, HistoryIndex(), "numpy")
        columns.set_row_map(0, {(1,): 5})
        with pytest.raises(ValueError, match=str(COUNTER_MAX + 1)):
            columns.set_row_map(0, {(2,): 1, (3,): COUNTER_MAX + 1})
        assert columns.row_map(0) == {(1,): 5}
        columns.set_row_map(1, {(2,): COUNTER_MAX})
        assert columns.row_map(1) == {(2,): COUNTER_MAX}

    def test_python_rows_keep_64_bit_counts(self):
        columns = CounterColumns(1, HistoryIndex(), "python")
        columns.set_row_map(0, {(1,): COUNTER_MAX + 1})
        assert columns.row_map(0) == {(1,): COUNTER_MAX + 1}


@backends
class TestColumnarElector:
    @given(
        rounds=st.lists(
            st.tuples(
                st.lists(counter_map_st, min_size=1, max_size=3),
                st.lists(history_st, min_size=1, max_size=3),
                st.integers(0, 3),
            ),
            min_size=1,
            max_size=5,
        ),
        initial=st.integers(0, 3),
    )
    @settings(max_examples=50)
    def test_tracks_reference_elector(self, backend, rounds, initial):
        reference = PseudoLeaderElector(initial)
        columnar = ColumnarElector(initial, backend=backend)
        for maps, received, appended in rounds:
            frozen = [FrozenCounters(mapping) for mapping in maps]
            reference.merge_round(frozen, received)
            columnar.merge_round(frozen, received)
            assert dict(columnar.counters) == dict(reference.counters)
            assert columnar.is_leader() == reference.is_leader()
            assert columnar.my_counter() == reference.my_counter()
            assert columnar.max_counter() == reference.max_counter()
            assert columnar.frozen_counters() == reference.frozen_counters()
            assert columnar.state_size() == reference.state_size()
            reference.append(appended)
            columnar.append(appended)
            assert tuple(columnar.history) == tuple(reference.history)

    def test_adopt_carries_state(self, backend):
        reference = PseudoLeaderElector("a")
        reference.merge_round([FrozenCounters({("a",): 2})], [("b",)])
        adopted = ColumnarElector.adopt(
            PseudoLeaderElector("a"), HistoryIndex(), backend
        )
        adopted.merge_round([FrozenCounters({("a",): 2})], [("b",)])
        assert dict(adopted.counters) == dict(reference.counters)
        assert adopted.is_leader() == reference.is_leader()


class TestInternCacheHygiene:
    def test_intern_cache_size_counts_nodes(self):
        clear_intern_cache()
        base = intern_cache_size()
        intern_history((101, 102, 103))
        assert intern_cache_size() == base + 3
        clear_intern_cache()
        assert intern_cache_size() == 0

    def test_grid_run_keeps_cache_bounded(self):
        """run_cells drops the intern table after every cell, so a
        sweep's cache never accumulates across cells."""
        from repro.experiments.common import run_cells

        clear_intern_cache()
        sizes = run_cells(_intern_cell, [(0, 40), (1, 40), (2, 40)])
        # each cell saw only its own 40-node chain (plus whatever the
        # harness itself interned), never the previous cells' chains
        assert max(sizes) <= 2 * 40
        assert intern_cache_size() == 0


def _intern_cell(cell):
    """Module-level (picklable) cell: intern a chain, report cache size."""
    seed, length = cell
    intern_history(tuple((seed, step) for step in range(length)))
    return intern_cache_size()
