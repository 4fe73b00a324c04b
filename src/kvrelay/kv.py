"""KV-cache container with global position indexing.

A cache is a dense stack of per-(layer, kv-head) key/value matrices plus an
ordered list of global token positions. Selection and concatenation never
renumber those positions, so any retained cache stays an index-selected
subsequence of the states that produced it. ``decompose`` splits the
positions visible to one agent round into sink / inherited history /
current prompt / current generation roles, with padding tracked separately
and excluded from everything.

All types are frozen and hold read-only float64 arrays; every operation is
a pure function, so instances can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure, PositionOverlap, ShapeMismatch, SinkTooLarge, UnknownPosition

IndexList = tuple[int, ...]


def as_index_list(indices) -> IndexList:
    """Normalize to a strictly increasing tuple of global positions.

    A position outside the int64 range raises ``ValueError``.
    """
    try:
        arr = np.fromiter(indices, dtype=np.int64)
    except OverflowError as exc:
        raise ValueError(f"index list has a position outside int64 ({exc})") from exc
    if arr.size > 1:
        bad = np.flatnonzero(arr[1:] <= arr[:-1])
        if bad.size:
            a, b = arr[bad[0]], arr[bad[0] + 1]
            raise ValueError(f"index list must be strictly increasing ({a} followed by {b})")
    return tuple(arr.tolist())


def _read_only(arr) -> np.ndarray:
    out = np.array(arr, dtype=np.float64)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class KvCache:
    """Immutable key/value states for a run of tokens.

    Args:
        keys: array of shape (num_layers, num_kv_heads, T, key_dim).
        values: array of shape (num_layers, num_kv_heads, T, value_dim).
        positions: strictly increasing global token indices, length T.

    Non-finite keys or values raise :class:`NumericalFailure`.
    """

    keys: np.ndarray
    values: np.ndarray
    positions: IndexList

    def __post_init__(self):
        keys = _read_only(self.keys)
        values = _read_only(self.values)
        positions = as_index_list(self.positions)
        if keys.ndim != 4 or values.ndim != 4:
            raise ShapeMismatch("keys/values must be (layers, heads, tokens, dim) arrays")
        if keys.shape[:3] != values.shape[:3]:
            raise ShapeMismatch(
                f"keys {keys.shape} and values {values.shape} disagree on layout"
            )
        layers, heads, tokens = keys.shape[:3]
        if layers < 1 or heads < 1 or keys.shape[3] < 1 or values.shape[3] < 1:
            raise ShapeMismatch("layer, head and dim counts must all be positive")
        if len(positions) != tokens:
            raise ShapeMismatch(f"{len(positions)} positions for {tokens} token rows")
        if not (np.isfinite(keys).all() and np.isfinite(values).all()):
            raise NumericalFailure("cache keys/values have non-finite entries")
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "positions", positions)

    @classmethod
    def empty(cls, num_layers: int, num_kv_heads: int, key_dim: int, value_dim: int) -> KvCache:
        return cls(
            keys=np.zeros((num_layers, num_kv_heads, 0, key_dim)),
            values=np.zeros((num_layers, num_kv_heads, 0, value_dim)),
            positions=(),
        )

    @property
    def num_layers(self) -> int:
        return self.keys.shape[0]

    @property
    def num_kv_heads(self) -> int:
        return self.keys.shape[1]

    @property
    def num_tokens(self) -> int:
        return self.keys.shape[2]

    @property
    def key_dim(self) -> int:
        return self.keys.shape[3]

    @property
    def value_dim(self) -> int:
        return self.values.shape[3]

    @property
    def state_width(self) -> int:
        """Flattened per-token footprint: layers * heads * (key_dim + value_dim)."""
        return self.num_layers * self.num_kv_heads * (self.key_dim + self.value_dim)

    def layout(self) -> tuple[int, int, int, int]:
        return (self.num_layers, self.num_kv_heads, self.key_dim, self.value_dim)


def caches_equal(a: KvCache, b: KvCache) -> bool:
    """Bitwise equality of layout, positions, keys and values."""
    return (
        a.layout() == b.layout()
        and a.positions == b.positions
        and np.array_equal(a.keys, b.keys)
        and np.array_equal(a.values, b.values)
    )


def select(cache: KvCache, indices) -> KvCache:
    """Return the sub-cache at the given global positions, preserving them.

    The requested indices must be strictly increasing and present in the
    cache; rows are copied bit-for-bit.
    """
    idx = as_index_list(indices)
    lookup = {pos: row for row, pos in enumerate(cache.positions)}
    try:
        rows = [lookup[pos] for pos in idx]
    except KeyError as exc:
        raise UnknownPosition(f"position {exc.args[0]} is not in the cache") from None
    return KvCache(
        keys=cache.keys[:, :, rows, :],
        values=cache.values[:, :, rows, :],
        positions=idx,
    )


def concat(a: KvCache, b: KvCache) -> KvCache:
    """Row-wise concatenation; a's positions must all precede b's."""
    if a.layout() != b.layout():
        raise ShapeMismatch(f"cannot concat layouts {a.layout()} and {b.layout()}")
    if a.positions and b.positions and a.positions[-1] >= b.positions[0]:
        raise PositionOverlap(
            f"left cache ends at {a.positions[-1]} but right starts at {b.positions[0]}"
        )
    return KvCache(
        keys=np.concatenate([a.keys, b.keys], axis=2),
        values=np.concatenate([a.values, b.values], axis=2),
        positions=a.positions + b.positions,
    )


@dataclass(frozen=True)
class RoleMap:
    """Disjoint split of one round's visible positions into cache roles."""

    sink: IndexList
    history: IndexList
    prompt: IndexList
    generation: IndexList
    padding: IndexList = ()

    def __post_init__(self):
        parts = {
            "sink": as_index_list(self.sink),
            "history": as_index_list(self.history),
            "prompt": as_index_list(self.prompt),
            "generation": as_index_list(self.generation),
            "padding": as_index_list(self.padding),
        }
        for name, part in parts.items():
            object.__setattr__(self, name, part)
        seen: dict[int, str] = {}
        for name, part in parts.items():
            for pos in part:
                if pos in seen:
                    raise PositionOverlap(
                        f"position {pos} assigned to both {seen[pos]} and {name}"
                    )
                seen[pos] = name

    def all_positions(self) -> IndexList:
        return as_index_list(
            sorted(self.sink + self.history + self.prompt + self.generation + self.padding)
        )


@dataclass(frozen=True)
class RoundRecord:
    """What one round contributed to a relay message."""

    round_index: int
    kept_prompt: IndexList
    generation: IndexList
    prompt_len: int

    def __post_init__(self):
        object.__setattr__(self, "kept_prompt", as_index_list(self.kept_prompt))
        object.__setattr__(self, "generation", as_index_list(self.generation))
        if self.round_index < 1:
            raise ValueError("round_index starts at 1")
        if self.prompt_len < 0:
            raise ValueError("prompt_len must be non-negative")


@dataclass(frozen=True)
class RelayMessage:
    """The cache handed from one agent to the next, with per-round records.

    The shared sink is tracked once, outside the per-round records, so the
    cache length always equals the sink length plus the sum over rounds of
    retained prompt and generation lengths.
    """

    cache: KvCache
    sink: IndexList
    rounds: tuple[RoundRecord, ...]

    def __post_init__(self):
        object.__setattr__(self, "sink", as_index_list(self.sink))
        object.__setattr__(self, "rounds", tuple(self.rounds))
        for a, b in zip(self.rounds, self.rounds[1:]):
            if b.round_index <= a.round_index:
                raise ValueError("round records must be ordered by round index")
        expected = len(self.sink) + sum(
            len(r.kept_prompt) + len(r.generation) for r in self.rounds
        )
        if expected != self.cache.num_tokens:
            raise ShapeMismatch(
                f"message cache holds {self.cache.num_tokens} rows but records "
                f"account for {expected}"
            )


def decompose(
    message: RelayMessage | None,
    round_i: int,
    local_prompt,
    local_generation,
    sink_size: int,
    padding=(),
) -> RoleMap:
    """Assign roles to every position visible at round ``round_i``.

    Round 1 carves the sink out of the first ``sink_size`` non-padding
    prompt positions. Later rounds inherit the sink unchanged from the
    message and classify every other inherited position as history.
    """
    if round_i < 1:
        raise ValueError("rounds are numbered from 1")
    if sink_size < 0:
        raise ValueError("sink_size must be non-negative")
    local_prompt = as_index_list(local_prompt)
    local_generation = as_index_list(local_generation)
    padding = as_index_list(padding)
    pad_set = set(padding)

    inherited: IndexList = message.cache.positions if message is not None else ()
    inherited_set = set(inherited)
    for pos in local_prompt + local_generation:
        if pos in inherited_set:
            raise PositionOverlap(f"local position {pos} already exists in the message")

    if round_i == 1:
        if inherited:
            raise ValueError("round 1 cannot carry an inherited message")
        non_pad = tuple(p for p in local_prompt if p not in pad_set)
        if sink_size > len(non_pad):
            raise SinkTooLarge(
                f"sink of {sink_size} exceeds the {len(non_pad)} usable prompt positions"
            )
        sink = non_pad[:sink_size]
        prompt = non_pad[sink_size:]
        history: IndexList = ()
    else:
        if message is None:
            raise ValueError("rounds after the first need the inherited message")
        sink = message.sink
        sink_set = set(sink)
        history = tuple(p for p in inherited if p not in sink_set)
        prompt = tuple(p for p in local_prompt if p not in pad_set)

    return RoleMap(
        sink=sink,
        history=history,
        prompt=prompt,
        generation=local_generation,
        padding=padding,
    )
