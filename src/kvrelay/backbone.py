"""Deterministic synthetic episode generator.

Stands in for the language model: emits per-round KV caches and attention
records that are self-consistent (attention rows are a softmax over
query/key dot products) and bit-reproducible. Randomness comes from the
Philox 4x64 counter-based generator, keyed by the episode seed, with one
fixed counter block per (stream, round); standard normal draws use numpy's
Generator on top of that bit stream. Any round of any episode can
therefore be regenerated on its own.

Value structures:

  gaussian  iid standard normal value rows
  low_rank  per-head product of (tokens x value_rank) coefficients and a
            (value_rank x value_dim) basis; when at least ``value_rank``
            generic rows are kept, the deleted value rows lie in the span
            of the kept ones, so backfill takes its skip path
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, EmptyInput, RoundMismatch, require_int
from .kv import KvCache, freeze, index_array, locate
from .scoring import AttentionRecord

VALUE_STRUCTURES = ("gaussian", "low_rank")

_STREAM_KEYS = 0
_STREAM_VALUES = 1
_STREAM_VALUE_BASIS = 2
_STREAM_QUERIES = 3


@dataclass(frozen=True)
class EpisodeSpec:
    """Shape, seed and structure of one synthetic multi-round episode; integer fields take ``int`` only.

    A ``low_rank`` episode kept with at least ``value_rank`` generic rows
    puts the deleted value rows in the span of the kept ones, so backfill
    takes its skip path. An episode whose caches or attention would pass
    numpy's limit of 2**63 - 1 bytes raises ``ValueError``.
    """

    seed: int = 0
    num_layers: int = 2
    num_kv_heads: int = 2
    kv_group_size: int = 2
    key_dim: int = 16
    value_dim: int = 16
    prompt_lens: tuple[int, ...] = (180, 160, 184)
    gen_len: int = 40
    value_structure: str = "gaussian"
    value_rank: int = 4

    def __post_init__(self):
        object.__setattr__(self, "prompt_lens", tuple(self.prompt_lens))
        layout = ("num_layers", "num_kv_heads", "kv_group_size", "key_dim", "value_dim")
        for name in ("seed", "gen_len", "value_rank") + layout:
            require_int(getattr(self, name), name)
        for n in self.prompt_lens:
            require_int(n, "each prompt_lens entry")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit word")
        for name in layout:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if not self.prompt_lens or any(n < 1 for n in self.prompt_lens):
            raise ValueError("prompt_lens must be a non-empty list of positive lengths")
        if self.gen_len < 1:
            raise ValueError("gen_len must be positive")
        if self.value_structure not in VALUE_STRUCTURES:
            raise ValueError(
                f"unknown value_structure {self.value_structure!r}, "
                f"expected one of {VALUE_STRUCTURES}"
            )
        if self.value_rank < 1:
            raise ValueError("value_rank must be positive")
        # A relay cache holds at most every position of the episode; numpy
        # cannot make an array of more than 2**63 - 1 bytes at any memory size.
        tokens = sum(self.prompt_lens) + self.num_rounds * self.gen_len
        cache = self.num_layers * self.num_kv_heads * tokens * max(self.key_dim, self.value_dim)
        attention = self.num_layers * self.num_query_heads * self.gen_len * max(self.key_dim, *self.prompt_lens)
        if 8 * max(cache, attention) > np.iinfo(np.intp).max:
            raise ValueError("its arrays would pass numpy's limit of 2**63 - 1 bytes")

    @property
    def num_rounds(self) -> int:
        return len(self.prompt_lens)

    @property
    def num_query_heads(self) -> int:
        return self.num_kv_heads * self.kv_group_size


@dataclass(frozen=True, eq=False)
class EpisodeRound:
    """One agent round as the backbone hands it to the relay.

    The attention must have the cache's layers and kv heads, its columns
    must equal ``prompt`` and its rows ``generation``; prompt and
    generation must be non-empty cache positions, every generation
    position after every prompt position, and every ``padding`` position a
    prompt position. Any other round raises :class:`RoundMismatch`.
    """

    cache: KvCache
    prompt: np.ndarray
    generation: np.ndarray
    attention: AttentionRecord
    padding: np.ndarray = ()

    def __post_init__(self):
        for name in ("prompt", "generation", "padding"):
            object.__setattr__(self, name, index_array(getattr(self, name)))
        prompt, generation = self.prompt, self.generation
        if not prompt.size:
            raise RoundMismatch("round has an empty prompt")
        if not generation.size:
            raise RoundMismatch("round has an empty generation")
        if not np.array_equal(self.attention.columns, prompt):
            raise RoundMismatch("attention columns are not the prompt positions")
        if not np.array_equal(self.attention.gen_positions, generation):
            raise RoundMismatch("attention rows are not the generation positions")
        attention, cache = self.attention, self.cache
        if (attention.num_layers, attention.num_kv_heads) != (cache.num_layers, cache.num_kv_heads):
            raise RoundMismatch(
                f"attention has {attention.num_layers} layers x {attention.num_kv_heads} kv heads, "
                f"the cache {cache.num_layers} x {cache.num_kv_heads}"
            )
        _, padded = locate(prompt, self.padding)
        if not padded.all():
            raise RoundMismatch(f"padding position {self.padding[int(padded.argmin())]} is not a prompt position")
        if generation[0] <= prompt[-1]:
            raise RoundMismatch(
                f"generation position {generation[0]} does not follow prompt position {prompt[-1]}"
            )
        local = np.concatenate([prompt, generation])
        _, cached = locate(self.cache.positions, local)
        if not cached.all():
            raise RoundMismatch(f"position {local[int(cached.argmin())]} is not in the cache")


def _rng(seed: int, round_i: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed, counter=[stream, round_i, 0, 0]))


def tiny_attention_forward(keys, queries, scale: float) -> np.ndarray:
    """Row-stochastic attention: softmax(scale * q . K^T) per query row.

    Keys (P, d) and queries (G, d) give (G, P) weights. Leading axes are
    head axes: keys (..., H_kv, P, d) and queries (..., H_q, G, d), with
    H_q a multiple of H_kv, give (..., H_q, G, P), query head h attending
    through key head h // (H_q // H_kv) as under grouped-query attention.
    The logits come from one matmul that broadcasts each key head over its
    group of query heads, written straight into the result through a
    grouped view; the softmax then runs in place over the whole array.
    """
    keys = np.asarray(keys, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    if keys.ndim < 2 or keys.ndim != queries.ndim:
        raise DimensionMismatch(
            "keys and queries must be 2-D, or stacks of 2-D matrices over the same head axes"
        )
    if keys.shape[-1] != queries.shape[-1]:
        raise DimensionMismatch(
            f"key dim {keys.shape[-1]} does not match query dim {queries.shape[-1]}"
        )
    if keys.shape[-2] == 0:
        raise EmptyInput("softmax over zero keys is undefined")
    group = 1
    if keys.ndim > 2:
        kv_heads, q_heads = keys.shape[-3], queries.shape[-3]
        if keys.shape[:-3] != queries.shape[:-3] or kv_heads == 0 or q_heads % kv_heads:
            raise DimensionMismatch(
                f"query heads {queries.shape[:-2]} do not group over key heads {keys.shape[:-2]}"
            )
        group = q_heads // kv_heads
    weights = np.empty(queries.shape[:-1] + keys.shape[-2:-1])
    grouped = keys.shape[:-2] + (group,) + queries.shape[-2:]
    keys_t = np.swapaxes(keys[..., None, :, :], -1, -2)
    np.matmul(queries.reshape(grouped), keys_t, out=weights.reshape(grouped[:-1] + keys.shape[-2:-1]))
    weights *= float(scale)
    weights -= weights.max(axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)
    return weights


def generate_episode(spec: EpisodeSpec, round_i: int) -> EpisodeRound:
    """Deterministically build round ``round_i`` (1-based) of an episode.

    Global positions are assigned contiguously: each round's prompt block
    follows the previous round's generation block.
    """
    if not 1 <= round_i <= spec.num_rounds:
        raise ValueError(f"round {round_i} outside 1..{spec.num_rounds}")
    prompt_len = spec.prompt_lens[round_i - 1]
    base = sum(spec.prompt_lens[: round_i - 1]) + (round_i - 1) * spec.gen_len
    tokens = prompt_len + spec.gen_len
    prompt = freeze(np.arange(base, base + prompt_len))
    generation = freeze(np.arange(base + prompt_len, base + tokens))
    layers, heads = spec.num_layers, spec.num_kv_heads

    keys = _rng(spec.seed, round_i, _STREAM_KEYS).standard_normal(
        (layers, heads, tokens, spec.key_dim)
    )
    if spec.value_structure == "gaussian":
        values = _rng(spec.seed, round_i, _STREAM_VALUES).standard_normal(
            (layers, heads, tokens, spec.value_dim)
        )
    else:
        rank = min(spec.value_rank, spec.value_dim, tokens)
        coeff = _rng(spec.seed, round_i, _STREAM_VALUES).standard_normal(
            (layers, heads, tokens, rank)
        )
        basis = _rng(spec.seed, round_i, _STREAM_VALUE_BASIS).standard_normal(
            (layers, heads, rank, spec.value_dim)
        )
        values = np.einsum("lhtr,lhrd->lhtd", coeff, basis)

    queries = _rng(spec.seed, round_i, _STREAM_QUERIES).standard_normal(
        (layers, spec.num_query_heads, spec.gen_len, spec.key_dim)
    )
    scale = 1.0 / math.sqrt(spec.key_dim)
    weights = tiny_attention_forward(keys[:, :, :prompt_len, :], queries, scale)
    attention = AttentionRecord(
        weights=freeze(weights),
        gen_positions=generation,
        columns=prompt,
        kv_group_size=spec.kv_group_size,
    )
    positions = freeze(np.arange(base, base + tokens))
    cache = KvCache(keys=freeze(keys), values=freeze(values), positions=positions)
    return EpisodeRound(cache=cache, prompt=prompt, generation=generation, attention=attention)


def episode_source(spec: EpisodeSpec) -> Callable[[int], EpisodeRound]:
    """A round-indexed callable suitable for the relay driver."""

    def source(round_i: int) -> EpisodeRound:
        return generate_episode(spec, round_i)

    return source
