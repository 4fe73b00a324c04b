import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kvrelay.backbone import EpisodeSpec, generate_episode
from kvrelay.fixtures import (
    attention_from_dict,
    attention_to_dict,
    dump_json,
    episode_round_from_dict,
    episode_round_to_dict,
    kv_cache_from_dict,
    kv_cache_to_dict,
    load_episode_fixture,
    save_episode_fixture,
)
from kvrelay.kv import KvCache, caches_equal


def spec():
    return EpisodeSpec(
        seed=21,
        num_layers=2,
        num_kv_heads=1,
        kv_group_size=2,
        key_dim=4,
        value_dim=5,
        prompt_lens=(6, 5),
        gen_len=3,
    )


def test_cache_round_trip_is_bit_exact():
    ep = generate_episode(spec(), 1)
    doc = kv_cache_to_dict(ep.cache)
    restored = kv_cache_from_dict(json.loads(json.dumps(doc)))
    assert caches_equal(ep.cache, restored)


def test_cache_layout_cross_check():
    ep = generate_episode(spec(), 1)
    doc = kv_cache_to_dict(ep.cache)
    doc["key_dim"] = 99
    with pytest.raises(ValueError):
        kv_cache_from_dict(doc)


def test_attention_round_trip_is_bit_exact():
    ep = generate_episode(spec(), 2)
    doc = attention_to_dict(ep.attention)
    restored = attention_from_dict(json.loads(json.dumps(doc)))
    assert np.array_equal(ep.attention.weights, restored.weights)
    assert np.array_equal(restored.gen_positions, ep.attention.gen_positions)
    assert np.array_equal(restored.columns, ep.attention.columns)
    assert restored.kv_group_size == ep.attention.kv_group_size


def test_episode_round_trip():
    ep = generate_episode(spec(), 1)
    restored = episode_round_from_dict(episode_round_to_dict(ep))
    assert caches_equal(ep.cache, restored.cache)
    assert np.array_equal(restored.prompt, ep.prompt)
    assert np.array_equal(restored.generation, ep.generation)
    assert restored.padding.tolist() == []


def test_episode_fixture_file_round_trip(tmp_path):
    rounds = [generate_episode(spec(), i) for i in (1, 2)]
    path = tmp_path / "episode.json"
    save_episode_fixture(path, rounds)
    restored = load_episode_fixture(path)
    assert len(restored) == 2
    for original, loaded in zip(rounds, restored):
        assert caches_equal(original.cache, loaded.cache)
        assert np.array_equal(original.attention.weights, loaded.attention.weights)


def test_decimal_list_fixture_loads_like_packed(tmp_path):
    rounds = [generate_episode(spec(), i) for i in (1, 2)]
    packed, decimal = tmp_path / "packed.json", tmp_path / "decimal.json"
    save_episode_fixture(packed, rounds)
    docs = [episode_round_to_dict(ep) for ep in rounds]
    for doc, ep in zip(docs, rounds):
        doc["cache"]["keys"] = ep.cache.keys.tolist()
        doc["cache"]["values"] = ep.cache.values.tolist()
        doc["attention"]["weights"] = ep.attention.weights.tolist()
    dump_json(decimal, {"rounds": docs})
    for a, b in zip(load_episode_fixture(packed), load_episode_fixture(decimal)):
        assert caches_equal(a.cache, b.cache)
        assert a.attention.weights.tobytes() == b.attention.weights.tobytes()
        assert np.array_equal(a.prompt, b.prompt) and np.array_equal(a.generation, b.generation)


@pytest.mark.parametrize("form", ["packed", "decimal"])
def test_cache_round_trip_keeps_signed_zero_subnormal_and_extremes(form):
    edge = [-0.0, 0.0, 5e-324, -2.225073858507201e-308, 1.7976931348623157e308, -1.7976931348623157e308]
    keys = np.array(edge, dtype=np.float64).reshape(1, 1, 6, 1)
    cache = KvCache(keys=keys, values=keys[..., ::-1, :], positions=range(6))
    doc = json.loads(json.dumps(kv_cache_to_dict(cache)))
    if form == "decimal":
        doc["keys"], doc["values"] = cache.keys.tolist(), cache.values.tolist()
    restored = kv_cache_from_dict(doc)
    assert restored.keys.tobytes() == cache.keys.tobytes()
    assert restored.values.tobytes() == cache.values.tobytes()


def test_dump_json_is_canonical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    dump_json(a, {"z": 1, "a": [1.5, 2.25]})
    dump_json(b, {"a": [1.5, 2.25], "z": 1})
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().endswith("\n")


def test_dump_json_rejects_non_finite(tmp_path):
    with pytest.raises(ValueError):
        dump_json(tmp_path / "bad.json", {"x": float("nan")})


# Strings json must escape: quotes, backslashes, control characters,
# non-ASCII text and characters outside the Basic Multilingual Plane.
_TEXT = st.text() | st.sampled_from(['"', "\\", "\n", "\x00", "\x1f", "\x7f", "\u00e9t\u00e9", "\u2028", "\U0001f600"])
_FLOATS = (
    st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 5e-324, -5e-324, 1.797e308, -1.797e308])
    | st.floats(allow_nan=False, allow_infinity=False).map(np.float64)
)
_SCALARS = _TEXT | _FLOATS | st.integers(min_value=-(10**40), max_value=10**40) | st.booleans() | st.none()


def _trees(leaves, keys=_TEXT):
    return st.recursive(
        leaves,
        lambda children: st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.dictionaries(keys, children, max_size=5)
        | st.lists(_FLOATS, max_size=6),
        max_leaves=40,
    )


def _canonical(doc) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n").encode("ascii")


def _dumped(doc):
    """The bytes ``dump_json`` writes for ``doc``, or the type of what it raised (nothing is written then)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        try:
            dump_json(path, doc)
        except Exception as exc:
            assert not path.exists()
            return type(exc)
        return path.read_bytes()


def _nested(depth):
    doc = [1.5]
    for level in range(depth):
        doc = {"k": doc} if level % 2 else [doc, 0]
    return doc


@settings(max_examples=150, deadline=None)
@given(doc=_trees(_SCALARS))
@example(doc=[])
@example(doc={})
@example(doc=[[], {}, ()])
@example(doc=_nested(60))
@example(doc=[1.5, 2, True, np.float64(0.1)])
def test_dump_json_matches_json_dumps(doc):
    assert _dumped(doc) == _canonical(doc)


class _Unencodable:
    pass


_BAD = st.sampled_from([float("nan"), float("inf"), -float("inf"), np.float64("inf"), _Unencodable(), b"x", {1}, 1j])
# Keys json converts (int, float, bool, None) and keys it rejects; mixing
# kinds in one dict makes sorting raise TypeError.
_ANY_KEYS = _TEXT | st.integers() | st.floats() | st.booleans() | st.none() | st.just((1,))


@settings(max_examples=150, deadline=None)
@given(doc=_trees(_SCALARS | _BAD, keys=_ANY_KEYS))
@example(doc=[1.0, float("nan"), True])
@example(doc=[1.0, 2.0, float("inf")])
@example(doc={"a": [float("nan")], "b": _Unencodable()})
def test_dump_json_fails_like_json_dumps(doc):
    try:
        expected = _canonical(doc)
    except Exception as exc:
        expected = type(exc)
    assert _dumped(doc) == expected
