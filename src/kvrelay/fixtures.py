"""Fixture serialization for caches, attention records and episodes.

Documents are JSON with every real emitted as 64-bit round-trip decimal
text (Python float repr), so save/load is bit-exact. Cache arrays nest as
[layer][head][token][dim]; attention weights nest as
[layer][query_head][gen_step][position].
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .backbone import EpisodeRound
from .kv import KvCache, as_index_list
from .scoring import AttentionRecord


def dump_json(path, obj) -> None:
    """Canonical JSON writer: sorted keys, two-space indent, no NaN/Inf."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n")


def kv_cache_to_dict(cache: KvCache) -> dict:
    return {
        "num_layers": cache.num_layers,
        "num_kv_heads": cache.num_kv_heads,
        "key_dim": cache.key_dim,
        "value_dim": cache.value_dim,
        "positions": list(cache.positions),
        "keys": cache.keys.tolist(),
        "values": cache.values.tolist(),
    }


def _positions(values, what: str) -> tuple[int, ...]:
    """A position list read from a document: integers only."""
    positions = tuple(values)
    if not all(type(p) is int for p in positions):
        raise ValueError(f"{what} must list integer positions")
    return positions


def kv_cache_from_dict(doc: dict) -> KvCache:
    keys = np.asarray(doc["keys"], dtype=np.float64)
    values = np.asarray(doc["values"], dtype=np.float64)
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
        "generation_positions": list(attn.gen_positions),
        "columns": list(attn.columns),
        "weights": attn.weights.tolist(),
    }


def attention_from_dict(doc: dict) -> AttentionRecord:
    attn = AttentionRecord(
        weights=np.asarray(doc["weights"], dtype=np.float64),
        gen_positions=_positions(doc["generation_positions"], "attention generation_positions"),
        columns=_positions(doc["columns"], "attention columns"),
        kv_group_size=int(doc["kv_group_size"]),
    )
    declared = (doc["num_layers"], doc["num_query_heads"])
    if (attn.num_layers, attn.num_query_heads) != tuple(declared):
        raise ValueError(f"declared attention layout {declared} does not match arrays")
    return attn


def episode_round_to_dict(ep: EpisodeRound) -> dict:
    return {
        "cache": kv_cache_to_dict(ep.cache),
        "attention": attention_to_dict(ep.attention),
        "prompt": list(ep.prompt),
        "generation": list(ep.generation),
        "padding": list(ep.padding),
    }


def episode_round_from_dict(doc: dict) -> EpisodeRound:
    prompt = as_index_list(_positions(doc["prompt"], "prompt"))
    if not prompt:
        raise ValueError("round has an empty prompt")
    return EpisodeRound(
        cache=kv_cache_from_dict(doc["cache"]),
        attention=attention_from_dict(doc["attention"]),
        prompt=prompt,
        generation=as_index_list(_positions(doc["generation"], "generation")),
        padding=as_index_list(_positions(doc.get("padding", ()), "padding")),
    )


def save_episode_fixture(path, rounds) -> None:
    dump_json(path, {"rounds": [episode_round_to_dict(ep) for ep in rounds]})


def load_episode_fixture(path) -> tuple[EpisodeRound, ...]:
    doc = json.loads(Path(path).read_text())
    return tuple(episode_round_from_dict(entry) for entry in doc["rounds"])
