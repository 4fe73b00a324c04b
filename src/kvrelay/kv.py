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

Array ownership: ``KvCache`` and ``scoring.AttentionRecord`` keep a float64
ndarray as is when it owns its buffer (``base is None``) and is already
read-only; anything else (a writeable array, a view, another dtype or a
nested list) is copied first. Handing over an array that way is a promise
that nothing writes to its buffer again, so code that builds an array and
hands it over freezes it (:func:`freeze`) and keeps no writeable view of
it. A caller's writeable array is never shared: writing to it afterwards
leaves the cache or record unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure, PositionOverlap, ShapeMismatch, SinkTooLarge, UnknownPosition

IndexList = tuple[int, ...]


def index_array(indices) -> np.ndarray:
    """Strictly increasing int64 array of global positions.

    A position outside the int64 range raises ``ValueError``, as does a
    non-increasing pair (the message names the first one).
    """
    if isinstance(indices, np.ndarray) and indices.dtype == np.int64 and indices.ndim == 1:
        arr = indices
    else:
        try:
            arr = np.fromiter(indices, dtype=np.int64)
        except OverflowError as exc:
            raise ValueError(f"index list has a position outside int64 ({exc})") from exc
    if arr.size > 1:
        bad = arr[1:] <= arr[:-1]
        if bad.any():
            first = int(bad.argmax())
            a, b = arr[first], arr[first + 1]
            raise ValueError(f"index list must be strictly increasing ({a} followed by {b})")
    return arr


def as_index_list(indices) -> IndexList:
    """Normalize to a strictly increasing tuple of global positions.

    A position outside the int64 range raises ``ValueError``.
    """
    return tuple(index_array(indices).tolist())


def locate(positions, targets) -> tuple[np.ndarray, np.ndarray]:
    """Where each of ``targets`` sits in the strictly increasing ``positions``.

    Returns ``(rows, found)``: ``found[i]`` tells whether ``targets[i]`` is
    one of ``positions``, and if so ``rows[i]`` is its index there. Both
    are int sequences or int64 arrays; ``targets`` may come in any order.
    """
    haystack = np.asarray(positions, dtype=np.int64)
    needles = np.asarray(targets, dtype=np.int64)
    rows = haystack.searchsorted(needles)
    if not haystack.size:
        return rows, np.zeros(needles.shape, dtype=bool)
    return rows, haystack.take(rows, mode="clip") == needles


def freeze(arr: np.ndarray) -> np.ndarray:
    """Mark an array this package just made read-only and return it.

    A frozen float64 array that owns its buffer is taken by ``KvCache`` and
    ``AttentionRecord`` without a copy (see the module docstring).
    """
    arr.flags.writeable = False
    return arr


def read_only(arr) -> np.ndarray:
    """``arr`` itself if it is a read-only float64 ndarray owning its buffer, else a frozen copy."""
    if (
        isinstance(arr, np.ndarray)
        and arr.dtype == np.float64
        and arr.base is None
        and not arr.flags.writeable
    ):
        return arr
    return freeze(np.array(arr, dtype=np.float64))


@dataclass(frozen=True)
class KvCache:
    """Immutable key/value states for a run of tokens.

    Args:
        keys: array of shape (num_layers, num_kv_heads, T, key_dim).
        values: array of shape (num_layers, num_kv_heads, T, value_dim).
        positions: strictly increasing global token indices, length T.

    Non-finite keys or values raise :class:`NumericalFailure`. A read-only
    float64 array that owns its buffer is kept as is; any other array is
    copied, so writing to the caller's array later does not change the
    cache.
    """

    keys: np.ndarray
    values: np.ndarray
    positions: IndexList

    def __post_init__(self):
        keys = read_only(self.keys)
        values = read_only(self.values)
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
    idx = index_array(indices)
    rows, found = locate(cache.positions, idx)
    if not found.all():
        raise UnknownPosition(f"position {idx[~found][0]} is not in the cache")
    return KvCache(
        keys=freeze(np.take(cache.keys, rows, axis=2)),
        values=freeze(np.take(cache.values, rows, axis=2)),
        positions=tuple(idx.tolist()),
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
        keys=freeze(np.concatenate([a.keys, b.keys], axis=2)),
        values=freeze(np.concatenate([a.values, b.values], axis=2)),
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
        names = ("sink", "history", "prompt", "generation", "padding")
        parts = [index_array(getattr(self, name)) for name in names]
        for later in range(1, len(parts)):
            # The earlier roles are disjoint, so at most one holds each position.
            hits = []
            for earlier in range(later):
                a, b = parts[earlier], parts[later]
                if not (a.size and b.size and a[0] <= b[-1] and b[0] <= a[-1]):
                    continue  # empty, or increasing runs whose spans do not meet
                _, found = locate(a, b)
                if found.any():
                    hits.append((int(found.argmax()), earlier))
            if hits:
                first, earlier = min(hits)
                raise PositionOverlap(
                    f"position {parts[later][first]} assigned to both "
                    f"{names[earlier]} and {names[later]}"
                )
        for name, part in zip(names, parts):
            object.__setattr__(self, name, tuple(part.tolist()))


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
    local_prompt = index_array(local_prompt)
    local_generation = index_array(local_generation)
    padding = index_array(padding)

    inherited = np.asarray(message.cache.positions if message is not None else (), dtype=np.int64)
    local = np.concatenate([local_prompt, local_generation])
    _, clash = locate(inherited, local)
    if clash.any():
        pos = local[np.argmax(clash)]
        raise PositionOverlap(f"local position {pos} already exists in the message")

    _, is_pad = locate(padding, local_prompt)
    non_pad = local_prompt[~is_pad]
    if round_i == 1:
        if inherited.size:
            raise ValueError("round 1 cannot carry an inherited message")
        if sink_size > non_pad.size:
            raise SinkTooLarge(
                f"sink of {sink_size} exceeds the {non_pad.size} usable prompt positions"
            )
        sink = non_pad[:sink_size]
        prompt = non_pad[sink_size:]
        history = non_pad[:0]
    else:
        if message is None:
            raise ValueError("rounds after the first need the inherited message")
        sink = message.sink
        _, in_sink = locate(sink, inherited)
        history = inherited[~in_sink]
        prompt = non_pad

    return RoleMap(
        sink=sink,
        history=history,
        prompt=prompt,
        generation=local_generation,
        padding=padding,
    )
