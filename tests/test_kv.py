"""Cache container, position algebra and round decomposition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvrelay.errors import NumericalFailure, PositionOverlap, ShapeMismatch, SinkTooLarge, UnknownPosition
from kvrelay.kv import (
    KvCache,
    RelayMessage,
    RoleMap,
    RoundRecord,
    as_index_list,
    caches_equal,
    concat,
    decompose,
    select,
)


def make_cache(positions, layers=2, heads=2, key_dim=3, value_dim=2):
    """Cache whose first key/value coordinate encodes the global position."""
    positions = tuple(positions)
    t = len(positions)
    keys = np.arange(layers * heads * t * key_dim, dtype=np.float64).reshape(
        layers, heads, t, key_dim
    )
    values = -np.arange(layers * heads * t * value_dim, dtype=np.float64).reshape(
        layers, heads, t, value_dim
    )
    keys = keys.copy()
    values = values.copy()
    for i, pos in enumerate(positions):
        keys[:, :, i, 0] = pos
        values[:, :, i, 0] = 10_000 + pos
    return KvCache(keys=keys, values=values, positions=positions)


def test_as_index_list_accepts_strictly_increasing():
    assert as_index_list([1, 4, 9]) == (1, 4, 9)
    assert as_index_list(()) == ()


@pytest.mark.parametrize("bad", [[3, 3], [5, 4], [0, 2, 2]])
def test_as_index_list_rejects_non_increasing(bad):
    with pytest.raises(ValueError):
        as_index_list(bad)


def _index_list_loop(indices):
    """Reference: the element-by-element check."""
    out = tuple(int(i) for i in indices)
    for a, b in zip(out, out[1:]):
        if b <= a:
            raise ValueError(f"index list must be strictly increasing ({a} followed by {b})")
    return out


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-(2**63), 2**63 - 1), max_size=12))
def test_as_index_list_matches_loop_reference(values):
    for indices in (values, sorted(set(values)), np.array(sorted(set(values)), dtype=np.int64)):
        try:
            expected = _index_list_loop(indices)
        except ValueError as exc:
            with pytest.raises(ValueError) as err:
                as_index_list(indices)
            assert str(err.value) == str(exc)  # names the first offending pair
            continue
        got = as_index_list(indices)
        assert got == expected
        assert all(type(i) is int for i in got)


@pytest.mark.parametrize("big", [2**63, -(2**63) - 1, np.uint64(2**63)])
def test_as_index_list_rejects_positions_outside_int64(big):
    with pytest.raises(ValueError, match="outside int64"):
        as_index_list([0, big])


def test_cache_validates_shapes():
    with pytest.raises(ShapeMismatch):
        KvCache(keys=np.zeros((2, 2, 3)), values=np.zeros((2, 2, 3, 4)), positions=(0, 1, 2))
    with pytest.raises(ShapeMismatch):
        KvCache(
            keys=np.zeros((2, 2, 3, 4)), values=np.zeros((2, 1, 3, 4)), positions=(0, 1, 2)
        )
    with pytest.raises(ShapeMismatch):
        KvCache(keys=np.zeros((2, 2, 3, 4)), values=np.zeros((2, 2, 3, 4)), positions=(0, 1))


def test_cache_arrays_are_read_only():
    cache = make_cache((0, 1))
    with pytest.raises(ValueError):
        cache.keys[0, 0, 0, 0] = 99.0
    with pytest.raises(ValueError):
        cache.values[0, 0, 0, 0] = 99.0


def empty_cache(layers, heads, key_dim, value_dim):
    return KvCache(
        keys=np.zeros((layers, heads, 0, key_dim)),
        values=np.zeros((layers, heads, 0, value_dim)),
        positions=(),
    )


def role_positions(roles):
    return tuple(sorted(roles.sink + roles.history + roles.prompt + roles.generation + roles.padding))


def test_cache_layout():
    cache = make_cache((5, 6, 7), layers=2, heads=3, key_dim=4, value_dim=5)
    assert cache.layout() == (2, 3, 4, 5)
    assert cache.num_tokens == 3


def test_empty_cache():
    cache = empty_cache(2, 2, 3, 4)
    assert cache.num_tokens == 0
    assert cache.positions == ()
    assert cache.layout() == (2, 2, 3, 4)


def test_select_picks_rows_bit_exactly():
    cache = make_cache((10, 11, 12, 15))
    picked = select(cache, (11, 15))
    assert picked.positions == (11, 15)
    assert np.array_equal(picked.keys, cache.keys[:, :, [1, 3], :])
    assert np.array_equal(picked.values, cache.values[:, :, [1, 3], :])
    assert picked.keys[0, 0, 0, 0] == 11.0
    assert picked.keys[0, 0, 1, 0] == 15.0


def test_select_unknown_position():
    cache = make_cache((10, 11))
    with pytest.raises(UnknownPosition):
        select(cache, (10, 13))


def test_select_requires_sorted_indices():
    cache = make_cache((10, 11))
    with pytest.raises(ValueError):
        select(cache, (11, 10))


def test_concat_orders_positions():
    a = make_cache((0, 1))
    b = make_cache((5, 9))
    both = concat(a, b)
    assert both.positions == (0, 1, 5, 9)
    assert np.array_equal(both.keys[:, :, :2, :], a.keys)
    assert np.array_equal(both.keys[:, :, 2:, :], b.keys)


def test_concat_rejects_overlap_and_layout_mismatch():
    a = make_cache((0, 5))
    with pytest.raises(PositionOverlap):
        concat(a, make_cache((5, 6)))
    with pytest.raises(PositionOverlap):
        concat(a, make_cache((3, 8)))
    with pytest.raises(ShapeMismatch):
        concat(a, make_cache((7, 8), key_dim=4))


def test_concat_with_empty():
    a = make_cache((3, 4))
    empty = empty_cache(2, 2, 3, 2)
    assert caches_equal(concat(empty, a), a)
    assert caches_equal(concat(a, empty), a)


def test_caches_equal_detects_value_changes():
    a = make_cache((0, 1))
    tweaked = np.array(a.values)
    tweaked[0, 0, 0, 0] += 1.0
    b = KvCache(keys=a.keys, values=tweaked, positions=a.positions)
    assert caches_equal(a, a)
    assert not caches_equal(a, b)


def test_role_map_rejects_shared_positions():
    with pytest.raises(PositionOverlap):
        RoleMap(sink=(0, 1), history=(), prompt=(1, 2), generation=(3,))


def test_role_map_all_positions():
    roles = RoleMap(sink=(0,), history=(4,), prompt=(1, 2), generation=(7,), padding=(3,))
    assert role_positions(roles) == (0, 1, 2, 3, 4, 7)


def test_round_record_validation():
    with pytest.raises(ValueError):
        RoundRecord(round_index=0, kept_prompt=(), generation=(1,), prompt_len=1)
    with pytest.raises(ValueError):
        RoundRecord(round_index=1, kept_prompt=(), generation=(1,), prompt_len=-1)


def test_relay_message_checks_row_accounting():
    cache = make_cache((0, 1, 2, 3, 4))
    record = RoundRecord(round_index=1, kept_prompt=(2, 3), generation=(4,), prompt_len=4)
    message = RelayMessage(cache=cache, sink=(0, 1), rounds=(record,))
    assert message.cache.num_tokens == 5
    with pytest.raises(ShapeMismatch):
        RelayMessage(cache=cache, sink=(0,), rounds=(record,))


def test_relay_message_orders_rounds():
    cache = make_cache((0, 1))
    r1 = RoundRecord(round_index=2, kept_prompt=(0,), generation=(1,), prompt_len=1)
    r0 = RoundRecord(round_index=1, kept_prompt=(), generation=(), prompt_len=0)
    with pytest.raises(ValueError):
        RelayMessage(cache=cache, sink=(), rounds=(r1, r0))


def test_decompose_first_round_carves_sink():
    roles = decompose(None, 1, tuple(range(10)), (10, 11), sink_size=4)
    assert roles.sink == (0, 1, 2, 3)
    assert roles.prompt == (4, 5, 6, 7, 8, 9)
    assert roles.history == ()
    assert roles.generation == (10, 11)


def test_decompose_skips_padding_when_carving():
    roles = decompose(None, 1, tuple(range(8)), (8,), sink_size=3, padding=(0, 2))
    assert roles.padding == (0, 2)
    assert roles.sink == (1, 3, 4)
    assert roles.prompt == (5, 6, 7)


def test_decompose_sink_too_large():
    with pytest.raises(SinkTooLarge):
        decompose(None, 1, (0, 1, 2), (3,), sink_size=4)
    # padding does not count toward the positions a sink can use
    with pytest.raises(SinkTooLarge):
        decompose(None, 1, (0, 1, 2), (3,), sink_size=3, padding=(1,))


def test_decompose_round_one_rejects_inherited_message():
    cache = make_cache((0, 1))
    message = RelayMessage(
        cache=cache,
        sink=(0,),
        rounds=(RoundRecord(round_index=1, kept_prompt=(), generation=(1,), prompt_len=1),),
    )
    with pytest.raises(ValueError):
        decompose(message, 1, (2, 3), (4,), sink_size=1)


def test_decompose_later_round_inherits_sink_and_history():
    cache = make_cache((0, 1, 5, 6))
    message = RelayMessage(
        cache=cache,
        sink=(0, 1),
        rounds=(
            RoundRecord(round_index=1, kept_prompt=(5,), generation=(6,), prompt_len=3),
        ),
    )
    roles = decompose(message, 2, (7, 8, 9), (10, 11), sink_size=2)
    assert roles.sink == (0, 1)
    assert roles.history == (5, 6)
    assert roles.prompt == (7, 8, 9)
    assert roles.generation == (10, 11)


def test_decompose_rejects_reused_positions():
    cache = make_cache((0, 1))
    message = RelayMessage(
        cache=cache,
        sink=(0,),
        rounds=(RoundRecord(round_index=1, kept_prompt=(), generation=(1,), prompt_len=1),),
    )
    with pytest.raises(PositionOverlap):
        decompose(message, 2, (1, 2), (3,), sink_size=1)


def test_decompose_needs_message_after_round_one():
    with pytest.raises(ValueError):
        decompose(None, 2, (5, 6), (7,), sink_size=1)


positions_lists = st.lists(st.integers(0, 400), min_size=1, max_size=24, unique=True).map(
    lambda xs: tuple(sorted(xs))
)


@given(positions=positions_lists, data=st.data())
@settings(max_examples=60, deadline=None)
def test_split_select_concat_round_trip(positions, data):
    cut = data.draw(st.integers(0, len(positions)))
    cache = make_cache(positions, layers=1, heads=1)
    left = select(cache, positions[:cut])
    right = select(cache, positions[cut:])
    assert caches_equal(concat(left, right), cache)


@given(positions=positions_lists, data=st.data())
@settings(max_examples=60, deadline=None)
def test_select_is_composable(positions, data):
    mask = data.draw(st.lists(st.booleans(), min_size=len(positions), max_size=len(positions)))
    subset = tuple(p for p, keep in zip(positions, mask) if keep)
    cache = make_cache(positions, layers=1, heads=1)
    narrowed = select(cache, subset)
    assert caches_equal(narrowed, select(cache, narrowed.positions))
    for row, pos in enumerate(narrowed.positions):
        assert narrowed.keys[0, 0, row, 0] == pos


@given(
    base=st.integers(0, 50),
    prompt_len=st.integers(1, 20),
    gen_len=st.integers(1, 6),
    sink_size=st.integers(0, 20),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_decompose_partitions_first_round(base, prompt_len, gen_len, sink_size, data):
    prompt = tuple(range(base, base + prompt_len))
    gen = tuple(range(base + prompt_len, base + prompt_len + gen_len))
    pad_mask = data.draw(st.lists(st.booleans(), min_size=prompt_len, max_size=prompt_len))
    padding = tuple(p for p, pad in zip(prompt, pad_mask) if pad)
    usable = prompt_len - len(padding)
    if sink_size > usable:
        with pytest.raises(SinkTooLarge):
            decompose(None, 1, prompt, gen, sink_size, padding=padding)
        return
    roles = decompose(None, 1, prompt, gen, sink_size, padding=padding)
    assert len(roles.sink) == sink_size
    assert roles.history == ()
    # the roles cover exactly the visible positions, with no double booking
    assert role_positions(roles) == tuple(sorted(prompt + gen))
    assert set(roles.sink).isdisjoint(roles.prompt)
    assert set(roles.padding) == set(padding)


# --- array lookups against the dict and set loops they replace --------------

ROLES = ("sink", "history", "prompt", "generation", "padding")


def _select_loop(cache, indices):
    """Reference: a position -> row dict and one fancy-index gather."""
    idx = as_index_list(indices)
    lookup = {pos: row for row, pos in enumerate(cache.positions)}
    try:
        rows = [lookup[pos] for pos in idx]
    except KeyError as exc:
        raise UnknownPosition(f"position {exc.args[0]} is not in the cache") from None
    return KvCache(keys=cache.keys[:, :, rows, :], values=cache.values[:, :, rows, :], positions=idx)


def _role_map_loop(**given):
    """Reference: the role split checked position by position through one dict."""
    parts = {name: as_index_list(given.get(name, ())) for name in ROLES}
    seen = {}
    for name, part in parts.items():
        for pos in part:
            if pos in seen:
                raise PositionOverlap(f"position {pos} assigned to both {seen[pos]} and {name}")
            seen[pos] = name
    return parts


def _decompose_loop(message, round_i, local_prompt, local_generation, sink_size, padding=()):
    """Reference: the role assignment with sets and per-position loops."""
    if round_i < 1:
        raise ValueError("rounds are numbered from 1")
    if sink_size < 0:
        raise ValueError("sink_size must be non-negative")
    local_prompt = as_index_list(local_prompt)
    local_generation = as_index_list(local_generation)
    padding = as_index_list(padding)
    pad_set = set(padding)
    inherited = message.cache.positions if message is not None else ()
    inherited_set = set(inherited)
    for pos in local_prompt + local_generation:
        if pos in inherited_set:
            raise PositionOverlap(f"local position {pos} already exists in the message")
    if round_i == 1:
        if inherited:
            raise ValueError("round 1 cannot carry an inherited message")
        non_pad = tuple(p for p in local_prompt if p not in pad_set)
        if sink_size > len(non_pad):
            raise SinkTooLarge(f"sink of {sink_size} exceeds the {len(non_pad)} usable prompt positions")
        sink, prompt, history = non_pad[:sink_size], non_pad[sink_size:], ()
    else:
        if message is None:
            raise ValueError("rounds after the first need the inherited message")
        sink = message.sink
        history = tuple(p for p in inherited if p not in set(sink))
        prompt = tuple(p for p in local_prompt if p not in pad_set)
    return _role_map_loop(
        sink=sink, history=history, prompt=prompt, generation=local_generation, padding=padding
    )


def _same_outcome(reference, call):
    """Run both; they must raise the same error with the same message, or both return."""
    try:
        expected = reference()
    except ValueError as exc:
        with pytest.raises(type(exc)) as err:
            call()
        assert type(err.value) is type(exc) and str(err.value) == str(exc)
        return None, None
    return expected, call()


# Small position lists, mostly (not always) strictly increasing.
raw_lists = st.lists(st.integers(0, 30), max_size=8)
increasing_lists = raw_lists.map(lambda xs: tuple(sorted(set(xs))))
index_lists = st.one_of(increasing_lists, increasing_lists, increasing_lists, raw_lists)


@given(positions=positions_lists, indices=index_lists)
@settings(max_examples=200, deadline=None)
def test_select_matches_dict_loop(positions, indices):
    cache = make_cache(positions, layers=1, heads=2)
    expected, got = _same_outcome(lambda: _select_loop(cache, indices), lambda: select(cache, indices))
    if expected is not None:
        assert caches_equal(got, expected)


@given(
    parts=st.fixed_dictionaries({name: increasing_lists for name in ROLES}),
    unsorted_role=st.sampled_from(ROLES + (None,) * 5),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_role_map_matches_dict_loop(parts, unsorted_role, data):
    if unsorted_role is not None:
        parts[unsorted_role] = data.draw(raw_lists)
    expected, got = _same_outcome(lambda: _role_map_loop(**parts), lambda: RoleMap(**parts))
    if expected is not None:
        assert {name: getattr(got, name) for name in ROLES} == expected


@given(
    inherited=st.lists(st.integers(0, 40), max_size=10, unique=True).map(sorted),
    sink_len=st.integers(0, 4),
    round_i=st.integers(1, 3),
    with_message=st.booleans(),
    prompt=increasing_lists.map(lambda xs: tuple(x + 10 for x in xs)),
    generation=increasing_lists.map(lambda xs: tuple(x + 10 for x in xs)),
    padding=increasing_lists.map(lambda xs: tuple(x + 10 for x in xs)),
    sink_size=st.integers(0, 6),
)
@settings(max_examples=400, deadline=None)
def test_decompose_matches_set_loop(
    inherited, sink_len, round_i, with_message, prompt, generation, padding, sink_size
):
    message = None
    if with_message:
        sink = tuple(inherited[:sink_len])
        rest = tuple(inherited[len(sink):])
        record = RoundRecord(round_index=1, kept_prompt=(), generation=rest, prompt_len=0)
        message = RelayMessage(cache=make_cache(inherited, layers=1, heads=1), sink=sink, rounds=(record,))
    args = (message, round_i, prompt, generation, sink_size, padding)
    expected, got = _same_outcome(lambda: _decompose_loop(*args), lambda: decompose(*args))
    if expected is not None:
        assert {name: getattr(got, name) for name in ROLES} == expected


# --- array ownership --------------------------------------------------------


def test_cache_copies_a_writeable_array():
    keys, values = np.zeros((1, 1, 2, 3)), np.ones((1, 1, 2, 2))
    cache = KvCache(keys=keys, values=values, positions=(0, 1))
    keys[0, 0, 0, 0] = 5.0
    values[0, 0, 0, 0] = 5.0
    assert cache.keys[0, 0, 0, 0] == 0.0 and cache.values[0, 0, 0, 0] == 1.0
    assert not np.shares_memory(cache.keys, keys)


def test_cache_shares_a_read_only_owning_array_and_copies_a_read_only_view():
    keys = np.zeros((1, 1, 2, 3))
    keys.flags.writeable = False
    base = np.ones((1, 1, 4, 2))
    view = base[:, :, :2, :]
    view.flags.writeable = False
    cache = KvCache(keys=keys, values=view, positions=(0, 1))
    assert np.shares_memory(cache.keys, keys)
    assert not np.shares_memory(cache.values, base)


def test_cache_checks_a_shared_array():
    keys = np.zeros((1, 1, 2, 3))
    keys[0, 0, 1, 2] = np.inf
    keys.flags.writeable = False
    with pytest.raises(NumericalFailure):
        KvCache(keys=keys, values=np.zeros((1, 1, 2, 2)), positions=(0, 1))
    with pytest.raises(ShapeMismatch):
        KvCache(keys=keys, values=np.zeros((1, 1, 2, 2)), positions=(0,))


def test_select_and_concat_hand_over_frozen_arrays():
    cache = make_cache((3, 5, 8))
    for out in (select(cache, (3, 8)), concat(select(cache, (3,)), select(cache, (5, 8)))):
        for arr in (out.keys, out.values):
            assert arr.base is None and not arr.flags.writeable
