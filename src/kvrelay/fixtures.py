"""Fixture serialization for caches, attention records and episodes.

Documents are JSON. Each float array (cache ``keys`` and ``values``,
attention ``weights``) is written packed, as an object
``{"shape": [...], "float64_le_base64": "..."}`` holding the base64 of the
array's little-endian float64 bytes in C order. Packing is bit-exact by
construction and cheap to decode, where decimal text costs one correctly
rounded decimal-to-float conversion per number. Positions, layout fields
and ``kv_group_size`` stay plain JSON integers.

The reader also takes a float array as nested lists of decimal numbers
(``[layer][head][token][dim]`` for the cache,
``[layer][query_head][gen_step][position]`` for weights). That is the form
fixtures were written in before packing, and the only one a person can
write or edit by hand.

Every document, report and summary goes through :func:`dump_json`, whose
bytes are those of ``json.dumps(obj, indent=2, sort_keys=True,
allow_nan=False)`` encoded as ASCII with one LF appended, on every
platform. A value that several documents share at their top level can be
encoded once with :func:`fragment` and placed in each of them.
"""

from __future__ import annotations

import base64
import json
import math
from pathlib import Path

import numpy as np

from .backbone import EpisodeRound
from .kv import KvCache
from .scoring import AttentionRecord


_encode_str = json.encoder.encode_basestring_ascii
_float_repr = float.__repr__
_int_repr = int.__repr__


def _float(value) -> str:
    text = _float_repr(value)
    if "n" in text:  # nan, inf or -inf: no finite repr holds an "n"
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    return text


def _key(key) -> str:
    """A dict key as ``json`` writes it, before quoting."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):  # bool is an int
        return _encode(key, "")
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


class JsonFragment(str):
    """JSON text, encoded by :func:`fragment`, that :func:`_encode` writes verbatim."""


def fragment(obj) -> JsonFragment:
    """``obj`` encoded once, to be a value of the top-level dict of any number of :func:`dump_json` documents.

    The text is indented for that place only: a fragment anywhere else
    yields valid JSON with the wrong indentation.
    """
    return JsonFragment(_encode(obj, "  "))


def _encode(obj, indent: str) -> str:
    """``obj`` as ``json.dumps(indent=2, sort_keys=True, allow_nan=False)`` writes it at ``indent``.

    Each container is one join of its encoded items, where ``json`` yields
    every token from a chain of generators once ``indent`` is set. The type
    tests follow ``json``'s order (``bool`` before ``int``) and accept the
    same subclasses, such as ``np.float64``; a :class:`JsonFragment` is
    already encoded.
    """
    if isinstance(obj, str):
        return obj if obj.__class__ is JsonFragment else _encode_str(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return _int_repr(obj)
    if isinstance(obj, float):
        return _float(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + "  "
        sep = ",\n" + inner
        text = None
        if isinstance(obj[0], float):
            try:  # a list of floats only; float.__repr__ rejects ints and bools
                text = sep.join(map(_float_repr, obj))
            except TypeError:
                pass
            else:
                if "n" in text:
                    for item in obj:
                        _float(item)
        if text is None:
            text = sep.join([_encode(item, inner) for item in obj])
        return "[\n" + inner + text + "\n" + indent + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = indent + "  "
        return (
            "{\n"
            + inner
            + (",\n" + inner).join(
                [_encode_str(_key(key)) + ": " + _encode(value, inner) for key, value in sorted(obj.items())]
            )
            + "\n"
            + indent
            + "}"
        )
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def dump_json(path, obj) -> None:
    """Write ``obj`` as canonical JSON: sorted keys, two-space indent, no NaN/Inf.

    The file holds exactly the ASCII bytes of ``json.dumps(obj, indent=2,
    sort_keys=True, allow_nan=False)`` and one LF, with no locale encoding
    or newline translation. A non-finite float raises ``ValueError`` and an
    object ``json`` cannot encode raises ``TypeError``, as ``json.dumps``
    does; nothing is written then. Unlike ``json.dumps`` it does not look
    for circular references: a container that holds itself recurses until
    ``RecursionError``.
    """
    Path(path).write_bytes((_encode(obj, "") + "\n").encode("ascii"))


def _pack(arr: np.ndarray) -> dict:
    data = np.ascontiguousarray(arr, dtype="<f8").tobytes()
    return {"shape": list(arr.shape), "float64_le_base64": base64.b64encode(data).decode("ascii")}


def _float_array(value, what: str) -> np.ndarray:
    """A float array read from a document: packed, or nested lists of JSON numbers (not bools)."""
    if not isinstance(value, dict):
        leaves = np.array(value, dtype=object)
        if not all(type(x) is float or type(x) is int for x in leaves.flat):
            raise ValueError(f"{what} must hold only JSON numbers")
        try:
            return leaves.astype(np.float64)
        except OverflowError as exc:  # an integer leaf beyond the float range
            raise ValueError(f"{what} holds an integer too large for a float") from exc
    shape = value["shape"]
    if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
        raise ValueError(f"{what} shape must list non-negative integers, got {shape!r}")
    data = base64.b64decode(value["float64_le_base64"], validate=True)
    if len(data) != 8 * math.prod(shape):
        raise ValueError(f"{what} holds {len(data)} bytes, not 8 per entry of shape {shape}")
    return np.frombuffer(data, dtype="<f8").reshape(shape)


def kv_cache_to_dict(cache: KvCache) -> dict:
    return {
        "num_layers": cache.num_layers,
        "num_kv_heads": cache.num_kv_heads,
        "key_dim": cache.key_dim,
        "value_dim": cache.value_dim,
        "positions": cache.positions.tolist(),
        "keys": _pack(cache.keys),
        "values": _pack(cache.values),
    }


def _positions(values, what: str) -> tuple[int, ...]:
    """A position list read from a document: integers only."""
    positions = tuple(values)
    if not all(type(p) is int for p in positions):
        raise ValueError(f"{what} must list integer positions")
    return positions


def kv_cache_from_dict(doc: dict) -> KvCache:
    keys = _float_array(doc["keys"], "cache keys")
    values = _float_array(doc["values"], "cache values")
    cache = KvCache(keys=keys, values=values, positions=_positions(doc["positions"], "cache positions"))
    declared = (doc["num_layers"], doc["num_kv_heads"], doc["key_dim"], doc["value_dim"])
    if cache.layout() != tuple(declared):
        raise ValueError(f"declared layout {declared} does not match arrays {cache.layout()}")
    return cache


def attention_to_dict(attn: AttentionRecord) -> dict:
    return {
        "num_layers": attn.num_layers,
        "num_query_heads": attn.num_query_heads,
        "kv_group_size": attn.kv_group_size,
        "generation_positions": attn.gen_positions.tolist(),
        "columns": attn.columns.tolist(),
        "weights": _pack(attn.weights),
    }


def attention_from_dict(doc: dict) -> AttentionRecord:
    attn = AttentionRecord(
        weights=_float_array(doc["weights"], "attention weights"),
        gen_positions=_positions(doc["generation_positions"], "attention generation_positions"),
        columns=_positions(doc["columns"], "attention columns"),
        kv_group_size=doc["kv_group_size"],
    )
    declared = (doc["num_layers"], doc["num_query_heads"])
    if (attn.num_layers, attn.num_query_heads) != tuple(declared):
        raise ValueError(f"declared attention layout {declared} does not match arrays")
    return attn


def episode_round_to_dict(ep: EpisodeRound) -> dict:
    return {
        "cache": kv_cache_to_dict(ep.cache),
        "attention": attention_to_dict(ep.attention),
        "prompt": ep.prompt.tolist(),
        "generation": ep.generation.tolist(),
        "padding": ep.padding.tolist(),
    }


def episode_round_from_dict(doc: dict) -> EpisodeRound:
    return EpisodeRound(
        cache=kv_cache_from_dict(doc["cache"]),
        attention=attention_from_dict(doc["attention"]),
        prompt=_positions(doc["prompt"], "prompt"),
        generation=_positions(doc["generation"], "generation"),
        padding=_positions(doc.get("padding", ()), "padding"),
    )


def save_episode_fixture(path, rounds) -> None:
    dump_json(path, {"rounds": [episode_round_to_dict(ep) for ep in rounds]})


def load_episode_fixture(path) -> tuple[EpisodeRound, ...]:
    doc = json.loads(Path(path).read_bytes())
    return tuple(episode_round_from_dict(entry) for entry in doc["rounds"])
