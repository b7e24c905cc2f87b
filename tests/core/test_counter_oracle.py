"""Lines 8–9 pinned against the tuple oracle, in every input form.

:mod:`repro.core.counters` computes the round update one way — the
stamped merge over current-generation interned nodes — and reaches it
from any other input through one canonicalisation step.  These
properties pin :func:`~repro.core.counters.apply_round_update` and
:func:`~repro.core.counters.pointwise_min` equal to the plainly written
tuple implementation in ``counter_oracle`` (generic minimum loop, trie
and scan prefix maxima) on the same logical input, whatever form it
arrives in: interned frozen maps, tuple-keyed frozen maps, plain dicts,
nodes that outlived ``clear_intern_cache()`` and extensions of their
stale chains, relayed duplicate map objects, no maps at all, the
empty-history key, and the A1 ablation (``inherit_prefixes=False``).
"""

from hypothesis import given
from hypothesis import strategies as st

import counter_oracle as oracle
from repro.core.counters import FrozenCounters, apply_round_update, pointwise_min
from repro.core.history import clear_intern_cache, extend, intern_history
from repro.giraf.messages import payload_size

# min_size=0: the empty history is a legal key and a prefix of everything
history_st = st.lists(st.integers(0, 3), min_size=0, max_size=6).map(tuple)
# zero counts only survive in plain dicts (FrozenCounters drops them)
counter_map_st = st.dictionaries(history_st, st.integers(0, 20), max_size=6)
maps_st = st.lists(counter_map_st, min_size=1, max_size=4)
received_st = st.lists(history_st, min_size=1, max_size=4)


def _node_keys(mapping):
    return {intern_history(history): count for history, count in mapping.items()}


MAP_FORMS = {
    "frozen_nodes": lambda mapping: FrozenCounters(_node_keys(mapping)),
    "frozen_tuples": FrozenCounters,
    "plain_tuples": dict,
    "plain_nodes": _node_keys,
}
HISTORY_FORMS = {"node": intern_history, "tuple": tuple}

map_forms_st = st.lists(st.sampled_from(sorted(MAP_FORMS)), min_size=4, max_size=4)
history_forms_st = st.lists(
    st.sampled_from(sorted(HISTORY_FORMS)), min_size=4, max_size=4
)
#: which distinct map each received message carries; repeats are relays
relays_st = st.lists(st.integers(0, 3), min_size=1, max_size=6)


def _relayed(maps, picks):
    return [maps[pick % len(maps)] for pick in picks]


def _assert_matches_oracle(maps, histories, expected_maps, expected_histories, inherit):
    actual = apply_round_update(maps, histories, inherit_prefixes=inherit)
    for use_trie in (True, False):
        expected = oracle.apply_round_update(
            expected_maps,
            expected_histories,
            use_trie=use_trie,
            inherit_prefixes=inherit,
        )
        assert actual == expected
    frozen, reference = FrozenCounters(actual), FrozenCounters(expected)
    assert frozen == reference
    assert hash(frozen) == hash(reference)
    assert frozen.payload_atoms() == reference.payload_atoms()
    assert payload_size(frozen) == payload_size(reference)


class TestOracleSelfConsistency:
    """The oracle's own trie and scan answer alike."""

    def test_prefix_max_includes_exact_history(self):
        assert oracle.prefix_max({(1, 2): 5}, (1, 2)) == 5

    def test_prefix_max_includes_proper_prefixes(self):
        counters = {(1,): 3, (1, 2): 1, (9,): 100}
        assert oracle.prefix_max(counters, (1, 2, 3)) == 3

    def test_prefix_max_without_prefix_is_zero(self):
        assert oracle.prefix_max({(2,): 9}, (1,)) == 0

    @given(counter_map_st, history_st)
    def test_trie_equivalent_to_scan(self, counters, history):
        trie = oracle.HistoryTrie(counters)
        assert trie.prefix_max(history) == oracle.prefix_max(counters, history)

    @given(counter_map_st, st.lists(history_st, max_size=5))
    def test_batch_trie_equivalent(self, counters, histories):
        batch = oracle.prefix_max_via_trie(counters, histories)
        assert batch == {h: oracle.prefix_max(counters, h) for h in histories}


class TestRoundUpdateMatchesOracle:
    @given(
        maps_st,
        received_st,
        map_forms_st,
        history_forms_st,
        relays_st,
        st.booleans(),
    )
    def test_every_input_form(
        self, maps, received, map_forms, history_forms, picks, inherit
    ):
        converted = [MAP_FORMS[form](m) for form, m in zip(map_forms, maps)]
        histories = [
            HISTORY_FORMS[form](h) for form, h in zip(history_forms, received)
        ]
        _assert_matches_oracle(
            _relayed(converted, picks),
            histories,
            _relayed(maps, picks),
            received,
            inherit,
        )

    @given(maps_st, received_st, st.booleans())
    def test_all_interned(self, maps, received, inherit):
        _assert_matches_oracle(
            [MAP_FORMS["frozen_nodes"](m) for m in maps],
            [intern_history(h) for h in received],
            maps,
            received,
            inherit,
        )

    @given(counter_map_st, received_st, st.integers(2, 5))
    def test_one_map_relayed_many_times(self, mapping, received, copies):
        frozen = MAP_FORMS["frozen_nodes"](mapping)
        _assert_matches_oracle(
            [frozen] * copies,
            [intern_history(h) for h in received],
            [mapping] * copies,
            received,
            True,
        )

    @given(received_st, st.booleans())
    def test_no_received_maps(self, received, inherit):
        histories = [intern_history(h) for h in received]
        _assert_matches_oracle([], histories, [], received, inherit)
        assert set(apply_round_update([], histories).values()) == {1}

    def test_empty_history_key(self):
        for key in ((), intern_history(())):
            for history in ((1,), intern_history([1])):
                assert apply_round_update(
                    [FrozenCounters({key: 5})], [history]
                ) == {(): 5, (1,): 6}
        _assert_matches_oracle(
            [FrozenCounters({intern_history(()): 5})],
            [intern_history([1])],
            [{(): 5}],
            [(1,)],
            True,
        )

    @given(
        maps_st,
        received_st,
        st.lists(st.sampled_from(["stale", "fresh", "mixed"]), min_size=4, max_size=4),
        st.lists(st.sampled_from(["stale", "fresh"]), min_size=4, max_size=4),
        st.lists(st.none() | st.integers(0, 3), min_size=4, max_size=4),
        st.booleans(),
    )
    def test_nodes_surviving_a_clear(
        self, maps, received, map_ages, history_ages, extensions, inherit
    ):
        keys = {history for mapping in maps for history in mapping}
        stale_keys = {history: intern_history(history) for history in keys}
        stale_histories = [intern_history(history) for history in received]
        clear_intern_cache()

        def key_form(age, position, history):
            if age == "stale" or (age == "mixed" and position % 2 == 0):
                return stale_keys[history]
            return intern_history(history)

        converted = [
            FrozenCounters(
                {
                    key_form(age, position, history): count
                    for position, (history, count) in enumerate(mapping.items())
                }
            )
            for age, mapping in zip(map_ages, maps)
        ]
        histories, expected_histories = [], []
        for age, extension, stale, history in zip(
            history_ages, extensions, stale_histories, received
        ):
            node = stale if age == "stale" else intern_history(history)
            if extension is not None:
                # an extension of a stale chain is itself stale
                node, history = extend(node, extension), history + (extension,)
            histories.append(node)
            expected_histories.append(history)
        _assert_matches_oracle(
            converted, histories, maps, expected_histories, inherit
        )


class TestPointwiseMinMatchesOracle:
    @given(maps_st, map_forms_st, relays_st)
    def test_every_input_form(self, maps, map_forms, picks):
        converted = [MAP_FORMS[form](m) for form, m in zip(map_forms, maps)]
        assert pointwise_min(_relayed(converted, picks)) == oracle.pointwise_min(
            _relayed(maps, picks)
        )

    @given(maps_st)
    def test_across_a_clear(self, maps):
        stale = [MAP_FORMS["frozen_nodes"](m) for m in maps]
        clear_intern_cache()
        fresh = [MAP_FORMS["frozen_nodes"](m) for m in maps]
        mixed = [pair[index % 2] for index, pair in enumerate(zip(stale, fresh))]
        assert pointwise_min(mixed) == oracle.pointwise_min(maps)

    def test_empty_input(self):
        assert pointwise_min([]) == oracle.pointwise_min([]) == {}
