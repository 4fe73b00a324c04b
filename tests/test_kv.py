"""Cache container, position algebra, round decomposition and container equality."""

import copy
import dataclasses
import importlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvrelay.backbone import EpisodeRound, EpisodeSpec, episode_source, generate_episode
from kvrelay.compress import CompressionConfig, ObfTrace, h2o_select
from kvrelay.errors import (
    NumericalFailure,
    PositionOverlap,
    RoundMismatch,
    ShapeMismatch,
    SinkTooLarge,
    UnknownPosition,
)
from kvrelay.kv import (
    KvCache,
    RelayMessage,
    RoundRecord,
    caches_equal,
    concat,
    decompose,
    index_array,
    select,
)
from kvrelay.linalg import top_k_indices
from kvrelay.relay import ChainConfig, RelayReport, RoundReportRow, run_chain
from kvrelay.scoring import AttentionRecord


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


# Tests of index_array; they keep the names from when positions were tuples (as_index_list).


def test_as_index_list_accepts_strictly_increasing():
    assert index_array([1, 4, 9]).tolist() == [1, 4, 9]
    assert index_array(()).tolist() == []


@pytest.mark.parametrize("bad", [[3, 3], [5, 4], [0, 2, 2]])
def test_as_index_list_rejects_non_increasing(bad):
    with pytest.raises(ValueError):
        index_array(bad)


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
                index_array(indices)
            assert str(err.value) == str(exc)  # names the first offending pair
            continue
        got = index_array(indices)
        assert tuple(got.tolist()) == expected
        assert got.dtype == np.int64 and not got.flags.writeable


@pytest.mark.parametrize("big", [2**63, -(2**63) - 1, np.uint64(2**63)])
def test_as_index_list_rejects_positions_outside_int64(big):
    with pytest.raises(ValueError, match="outside int64"):
        index_array([0, big])


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


def role_positions(parts):
    return tuple(sorted(np.concatenate(parts).tolist()))


def local_round(prompt, generation, padding=()):
    """An episode round whose cache holds exactly its prompt and generation positions."""
    prompt, generation = tuple(prompt), tuple(generation)
    return EpisodeRound(
        cache=make_cache(prompt + generation, layers=1, heads=1),
        prompt=prompt,
        generation=generation,
        attention=_attention(generation, prompt),
        padding=padding,
    )


def test_cache_layout():
    cache = make_cache((5, 6, 7), layers=2, heads=3, key_dim=4, value_dim=5)
    assert cache.layout() == (2, 3, 4, 5)
    assert cache.num_tokens == 3


def test_empty_cache():
    cache = empty_cache(2, 2, 3, 4)
    assert cache.num_tokens == 0
    assert cache.positions.tolist() == []
    assert cache.layout() == (2, 2, 3, 4)


def test_select_picks_rows_bit_exactly():
    cache = make_cache((10, 11, 12, 15))
    picked = select(cache, (11, 15))
    assert picked.positions.tolist() == [11, 15]
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
    assert both.positions.tolist() == [0, 1, 5, 9]
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


def test_relay_message_checks_row_accounting():
    cache = make_cache((0, 1, 2, 3, 4))
    record = RoundRecord(kept_prompt=(2, 3), generation=(4,))
    message = RelayMessage(cache=cache, sink=(0, 1), rounds=(record,))
    assert message.cache.num_tokens == 5
    with pytest.raises(ShapeMismatch):
        RelayMessage(cache=cache, sink=(0,), rounds=(record,))


def test_relay_message_positions_are_the_sink_then_each_round():
    cache = make_cache((0, 1, 2))
    with pytest.raises(ShapeMismatch) as err:
        RelayMessage(cache=cache, sink=(5,), rounds=(RoundRecord(kept_prompt=(7,), generation=(9,)),))
    assert str(err.value) == "message cache row 0 holds position 0 but the sink and round records name position 5"
    # the rows agree until the records run out, and the cache holds one more
    with pytest.raises(ShapeMismatch) as err:
        RelayMessage(cache=cache, sink=(0,), rounds=(RoundRecord(kept_prompt=(1,), generation=()),))
    assert str(err.value) == "message cache row 2 holds position 2 but the sink and round records name nothing"
    # the sink and records may split the rows between them in any way that keeps their order
    RelayMessage(cache=cache, sink=(0, 1), rounds=(RoundRecord(kept_prompt=(), generation=(2,)),))


def test_decompose_first_round_carves_sink():
    sink, eligible = decompose(None, local_round(range(10), (10, 11)), sink_size=4)
    assert sink.tolist() == [0, 1, 2, 3]
    assert eligible.tolist() == [4, 5, 6, 7, 8, 9]
    assert not sink.flags.writeable and not eligible.flags.writeable


def test_decompose_skips_padding_when_carving():
    sink, eligible = decompose(None, local_round(range(8), (8,), padding=(0, 2)), sink_size=3)
    assert sink.tolist() == [1, 3, 4]
    assert eligible.tolist() == [5, 6, 7]
    assert role_positions((sink, eligible)) == (1, 3, 4, 5, 6, 7)  # padding takes no role


def test_decompose_sink_too_large():
    with pytest.raises(SinkTooLarge):
        decompose(None, local_round((0, 1, 2), (3,)), sink_size=4)
    # padding does not count toward the positions a sink can use
    with pytest.raises(SinkTooLarge):
        decompose(None, local_round((0, 1, 2), (3,), padding=(1,)), sink_size=3)


def test_decompose_later_round_inherits_sink_and_history():
    """The message keeps the first round's sink; a later round relays none of its own."""
    cache = make_cache((0, 1, 5, 6))
    message = RelayMessage(cache=cache, sink=(0, 1), rounds=(RoundRecord(kept_prompt=(5,), generation=(6,)),))
    sink, eligible = decompose(message, local_round((7, 8, 9), (10, 11)), sink_size=2)
    assert sink.tolist() == []
    assert eligible.tolist() == [7, 8, 9]  # the inherited 0, 1, 5 and 6 take no role


def test_decompose_rejects_reused_positions():
    """A round must start after the message, whether or not the message still holds the reused position."""
    message = RelayMessage(
        cache=make_cache((0, 1, 5, 6)),
        sink=(0,),
        rounds=(RoundRecord(kept_prompt=(1, 5), generation=(6,)),),
    )
    for prompt, start in (((1, 7), 1), ((3, 7), 3), ((6, 7), 6)):  # relayed, evicted, generated
        with pytest.raises(PositionOverlap) as err:
            decompose(message, local_round(prompt, (8,)), sink_size=1)
        assert str(err.value) == f"round starts at {start} but the message ends at 6"


@pytest.mark.parametrize(
    "round_i, padding, stray",
    [
        (1, (3, 10_000), 10_000),  # past the round
        (1, (11,), 11),  # a generation position
        (2, (1, 8), 1),  # the inherited sink
        (2, (6, 8), 6),  # an inherited generation position
        (2, (8, 12), 12),  # a generation position
    ],
)
def test_decompose_rejects_padding_outside_the_prompt(round_i, padding, stray):
    """Stray padding stops the round before ``decompose``: the round itself rejects it."""
    if round_i == 1:
        message, prompt, generation = None, (2, 3, 4, 5), (11,)
    else:
        record = RoundRecord(kept_prompt=(), generation=(6,))
        message = RelayMessage(cache=make_cache((0, 1, 6)), sink=(0, 1), rounds=(record,))
        prompt, generation = (7, 8, 9, 10), (11, 12)
    with pytest.raises(RoundMismatch) as err:
        decompose(message, local_round(prompt, generation, padding), sink_size=1)
    assert str(err.value) == f"padding position {stray} is not a prompt position"


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
    for row, pos in enumerate(narrowed.positions.tolist()):
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
    episode = local_round(prompt, gen, padding)
    usable = prompt_len - len(padding)
    if sink_size > usable:
        with pytest.raises(SinkTooLarge):
            decompose(None, episode, sink_size)
        return
    sink, eligible = decompose(None, episode, sink_size)
    assert len(sink) == sink_size
    # the roles cover exactly the prompt positions but padding, with no double booking
    assert role_positions((sink, eligible)) == tuple(p for p in prompt if p not in padding)
    assert set(sink.tolist()).isdisjoint(eligible.tolist())


# --- array lookups against the dict and set loops they replace --------------

def _select_loop(cache, indices):
    """Reference: a position -> row dict and one fancy-index gather."""
    idx = _index_list_loop(indices)
    lookup = {pos: row for row, pos in enumerate(cache.positions.tolist())}
    try:
        rows = [lookup[pos] for pos in idx]
    except KeyError as exc:
        raise UnknownPosition(f"position {exc.args[0]} is not in the cache") from None
    return KvCache(keys=cache.keys[:, :, rows, :], values=cache.values[:, :, rows, :], positions=idx)


def _decompose_loop(message, episode, sink_size):
    """Reference: the round split with a set and plain loops over positions."""
    if sink_size < 0:
        raise ValueError("sink_size must be non-negative")
    pad_set = set(episode.padding.tolist())
    non_pad = tuple(p for p in episode.prompt.tolist() if p not in pad_set)
    if message is None:
        if sink_size > len(non_pad):
            raise SinkTooLarge(f"sink of {sink_size} exceeds the {len(non_pad)} usable prompt positions")
        return non_pad[:sink_size], non_pad[sink_size:]
    end = max(message.cache.positions.tolist(), default=None)
    for pos in episode.prompt.tolist() + episode.generation.tolist():
        if end is not None and pos <= end:
            raise PositionOverlap(f"round starts at {pos} but the message ends at {end}")
    return (), non_pad


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
    inherited=st.lists(st.integers(0, 40), max_size=10, unique=True).map(sorted),
    sink_len=st.integers(0, 4),
    with_message=st.booleans(),
    prompt=st.lists(st.integers(10, 40), min_size=1, max_size=8, unique=True).map(sorted),
    gen_steps=st.lists(st.integers(1, 8), min_size=1, max_size=4, unique=True).map(sorted),
    data=st.data(),
    sink_size=st.integers(0, 6),
)
@settings(max_examples=400, deadline=None)
def test_decompose_matches_set_loop(inherited, sink_len, with_message, prompt, gen_steps, data, sink_size):
    padding = data.draw(st.lists(st.sampled_from(prompt), unique=True).map(sorted))
    episode = local_round(prompt, [prompt[-1] + step for step in gen_steps], padding)
    message = None
    if with_message:
        sink = tuple(inherited[:sink_len])
        rest = tuple(inherited[len(sink):])
        record = RoundRecord(kept_prompt=(), generation=rest)
        message = RelayMessage(cache=make_cache(inherited, layers=1, heads=1), sink=sink, rounds=(record,))
    args = (message, episode, sink_size)
    expected, got = _same_outcome(lambda: _decompose_loop(*args), lambda: decompose(*args))
    if expected is not None:
        assert tuple(tuple(part.tolist()) for part in got) == expected


@given(
    prompt=st.lists(st.integers(10, 40), min_size=1, max_size=8, unique=True).map(sorted),
    padding=increasing_lists.map(lambda xs: tuple(x + 10 for x in xs)),
)
@settings(max_examples=200, deadline=None)
def test_episode_round_padding_matches_set_loop(prompt, padding):
    stray = [pos for pos in padding if pos not in set(prompt)]
    if stray:
        with pytest.raises(RoundMismatch) as err:
            local_round(prompt, (prompt[-1] + 1,), padding)
        assert str(err.value) == f"padding position {stray[0]} is not a prompt position"
    else:
        assert local_round(prompt, (prompt[-1] + 1,), padding).padding.tolist() == list(padding)


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


# --- the position contract --------------------------------------------------


def _attention(gen, columns):
    weights = np.full((1, 1, len(gen), len(columns)), 1.0 / len(columns))
    return AttentionRecord(weights=weights, gen_positions=gen, columns=columns, kv_group_size=1)


# Each case builds one container (or calls one function) from the position
# lists it is given, and names the fields that hold positions.
POSITION_CASES = {
    "KvCache": (
        lambda w: KvCache(keys=np.zeros((1, 1, 3, 2)), values=np.zeros((1, 1, 3, 2)), positions=w([1, 2, 3])),
        ("positions",),
    ),
    "RoundRecord": (
        lambda w: RoundRecord(kept_prompt=w([3, 4]), generation=w([5])),
        ("kept_prompt", "generation"),
    ),
    "RelayMessage": (
        lambda w: RelayMessage(
            cache=make_cache((0, 1, 2, 3)),
            sink=w([0, 1]),
            rounds=(RoundRecord(kept_prompt=(2,), generation=(3,)),),
        ),
        ("sink",),
    ),
    "AttentionRecord": (lambda w: _attention(w([5, 6]), w([1, 2])), ("gen_positions", "columns")),
    "EpisodeRound": (
        lambda w: EpisodeRound(
            cache=make_cache((0, 1, 2), layers=1, heads=1),
            prompt=w([0, 1]),
            generation=w([2]),
            attention=_attention((2,), (0, 1)),
            padding=w([1]),
        ),
        ("prompt", "generation", "padding"),
    ),
    "select": (lambda w: select(make_cache((1, 2, 3)), w([1, 3])), ("positions",)),
    "h2o_select": (lambda w: SimpleNamespace(keep=h2o_select(np.ones((1, 1, 3)), 2, w([1, 2, 3]))), ("keep",)),
    "top_k_indices": (lambda w: SimpleNamespace(result=top_k_indices([0.5, 0.2, 0.9], 2, w([4, 5, 6]))), ("result",)),
}


@pytest.mark.parametrize("case", sorted(POSITION_CASES))
def test_positions_are_read_only_int64_arrays_the_caller_cannot_change(case):
    build, fields = POSITION_CASES[case]
    given = []

    def writeable(values):
        given.append(np.array(values, dtype=np.int64))
        return given[-1]

    made = build(writeable)
    held = {name: getattr(made, name) for name in fields}
    before = {name: arr.tolist() for name, arr in held.items()}
    for arr in held.values():
        assert type(arr) is np.ndarray and arr.dtype == np.int64 and not arr.flags.writeable
    for arr in given:
        arr[...] = -1
    assert {name: arr.tolist() for name, arr in held.items()} == before

    bad = []

    def one_reversed(values):
        # reverse the first list long enough to have a pair, keep the rest
        if len(values) > 1 and not bad:
            bad.append(values[::-1])
            return np.array(values[::-1], dtype=np.int64)
        return np.array(values, dtype=np.int64)

    with pytest.raises(ValueError) as err:
        build(one_reversed)
    first, second = bad[0][:2]
    assert str(err.value) == f"index list must be strictly increasing ({first} followed by {second})"


# Frozen dataclasses that hold arrays, directly or through another container.
ARRAY_CONTAINERS = (
    KvCache, RoundRecord, RelayMessage, AttentionRecord, ObfTrace, EpisodeRound, RelayReport,
)
VALUE_CLASSES = {
    EpisodeSpec: lambda: EpisodeSpec(prompt_lens=[8, 9]),
    CompressionConfig: lambda: CompressionConfig(method="h2o_obf", budget_k=3),
    ChainConfig: lambda: ChainConfig(num_agents=2, compression=CompressionConfig(sink_size=1)),
    RoundReportRow: lambda: RoundReportRow(round=1, prompt_len=9, kept_prompt=3, gen_len=4, message_len=8),
}


@pytest.fixture(scope="module")
def containers():
    """One instance of every array container, from an h2o_obf chain with active backfill."""
    spec = EpisodeSpec(
        seed=3, num_layers=1, num_kv_heads=1, kv_group_size=1,
        key_dim=4, value_dim=6, prompt_lens=(12, 10), gen_len=3,
    )
    chain = ChainConfig(
        num_agents=2, latent_steps=3,
        compression=CompressionConfig(method="h2o_obf", budget_k=2, sink_size=1),
    )
    message, report = run_chain(episode_source(spec), chain)
    trace = report.obf_traces[0]
    assert trace.skipped.tolist() == [[False]]
    ep = generate_episode(spec, 1)
    found = [ep.cache, message.rounds[0], message, ep.attention, trace, ep, report]
    return {type(obj): obj for obj in found}


@pytest.mark.parametrize("cls", ARRAY_CONTAINERS, ids=lambda cls: cls.__name__)
def test_array_containers_compare_by_identity(containers, cls):
    a = containers[cls]
    b = copy.deepcopy(a)  # equal content, distinct instance
    assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__
    assert a != b and not a == b
    assert a == a
    assert {a: "a", b: "b"}[a] == "a"


@pytest.mark.parametrize("cls", list(VALUE_CLASSES), ids=lambda cls: cls.__name__)
def test_config_dataclasses_compare_by_value(cls):
    a, b = VALUE_CLASSES[cls](), VALUE_CLASSES[cls]()
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != dataclasses.replace(a, **{dataclasses.fields(cls)[1].name: 5})


def test_every_dataclass_is_an_array_container_or_a_value_class():
    """A new dataclass that holds arrays must join ARRAY_CONTAINERS (and declare ``eq=False``)."""
    found = {
        obj for name in ("backbone", "compress", "kv", "linalg", "relay", "scoring")
        for module in [importlib.import_module(f"kvrelay.{name}")]
        for obj in vars(module).values()
        if isinstance(obj, type) and dataclasses.is_dataclass(obj) and obj.__module__ == module.__name__
    }
    assert found == set(ARRAY_CONTAINERS) | set(VALUE_CLASSES)
