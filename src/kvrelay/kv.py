"""KV-cache container with global position indexing.

A cache is a dense stack of per-(layer, kv-head) key/value matrices plus an
ordered list of global token positions. Selection and concatenation never
renumber those positions, so any retained cache stays an index-selected
subsequence of the states that produced it. ``decompose`` splits one
agent round's prompt (without padding) into the sink the round relays,
which is empty after the first round, and the eligible prompt.

All types are frozen. They hold keys, values and weights as read-only
float64 arrays and every list of global positions as a strictly
increasing, read-only int64 array (:func:`index_array`). Every operation
is a pure function, so instances can be shared freely across threads.

Array ownership: every container keeps an ndarray of the right dtype as
is when it owns its buffer (``base is None``) and is already read-only;
anything else (a writeable array, a view, another dtype, a tuple or a
nested list) is copied first. Handing over an array that way is a
promise that nothing writes to its buffer again, so code that builds an
array and hands it over freezes it (:func:`freeze`) and keeps no
writeable view of it. A caller's writeable array is never shared: writing
to it afterwards leaves the container unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import NumericalFailure, PositionOverlap, ShapeMismatch, SinkTooLarge, UnknownPosition

if TYPE_CHECKING:  # backbone imports this module
    from .backbone import EpisodeRound


def index_array(indices) -> np.ndarray:
    """Strictly increasing, read-only int64 array of global positions (see :func:`read_only`).

    A position outside the int64 range raises ``ValueError``, as does a
    non-increasing pair (the message names the first one).
    """
    if isinstance(indices, np.ndarray) and indices.dtype == np.int64 and indices.ndim == 1:
        arr = read_only(indices, np.int64)
    else:
        try:
            arr = freeze(np.fromiter(indices, dtype=np.int64))
        except OverflowError as exc:
            raise ValueError(f"index list has a position outside int64 ({exc})") from exc
    if arr.size > 1:
        bad = arr[1:] <= arr[:-1]
        if np.count_nonzero(bad):  # cheaper than bad.any() on short arrays
            first = int(bad.argmax())
            a, b = arr[first], arr[first + 1]
            raise ValueError(f"index list must be strictly increasing ({a} followed by {b})")
    return arr


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

    A frozen array that owns its buffer is taken by the containers without
    a copy (see the module docstring).
    """
    arr.flags.writeable = False
    return arr


def read_only(arr, dtype=np.float64) -> np.ndarray:
    """``arr`` itself if it is a read-only ``dtype`` ndarray owning its buffer, else a frozen copy."""
    if isinstance(arr, np.ndarray) and arr.dtype == dtype and arr.base is None and not arr.flags.writeable:
        return arr
    return freeze(np.array(arr, dtype=dtype))


@dataclass(frozen=True, eq=False)
class KvCache:
    """Immutable key/value states for a run of tokens.

    Args:
        keys: array of shape (num_layers, num_kv_heads, T, key_dim).
        values: array of shape (num_layers, num_kv_heads, T, value_dim).
        positions: strictly increasing global token indices, length T.

    Non-finite keys or values raise :class:`NumericalFailure`. A read-only
    array of the right dtype that owns its buffer is kept as is; any other
    array is copied, so writing to the caller's array later does not
    change the cache.
    """

    keys: np.ndarray
    values: np.ndarray
    positions: np.ndarray

    def __post_init__(self):
        keys = read_only(self.keys)
        values = read_only(self.values)
        positions = index_array(self.positions)
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
        and np.array_equal(a.positions, b.positions)
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
        positions=idx,
    )


def concat(a: KvCache, b: KvCache) -> KvCache:
    """Row-wise concatenation; a's positions must all precede b's."""
    if a.layout() != b.layout():
        raise ShapeMismatch(f"cannot concat layouts {a.layout()} and {b.layout()}")
    if a.positions.size and b.positions.size and a.positions[-1] >= b.positions[0]:
        raise PositionOverlap(
            f"left cache ends at {a.positions[-1]} but right starts at {b.positions[0]}"
        )
    return KvCache(
        keys=freeze(np.concatenate([a.keys, b.keys], axis=2)),
        values=freeze(np.concatenate([a.values, b.values], axis=2)),
        positions=freeze(np.concatenate([a.positions, b.positions])),
    )


@dataclass(frozen=True, eq=False)
class RoundRecord:
    """What one round contributed to a relay message besides the sink."""

    kept_prompt: np.ndarray
    generation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "kept_prompt", index_array(self.kept_prompt))
        object.__setattr__(self, "generation", index_array(self.generation))


@dataclass(frozen=True, eq=False)
class RelayMessage:
    """The cache handed from one agent to the next, with one record per round in round order.

    Only the first round relays a sink, and it is tracked once, outside the
    per-round records. The cache positions must be exactly the sink
    followed by each round's retained prompt and generation positions, or
    :class:`ShapeMismatch` names the first row that differs.
    """

    cache: KvCache
    sink: np.ndarray
    rounds: tuple[RoundRecord, ...]

    def __post_init__(self):
        object.__setattr__(self, "sink", index_array(self.sink))
        object.__setattr__(self, "rounds", tuple(self.rounds))
        parts = [self.sink]
        for record in self.rounds:
            parts += (record.kept_prompt, record.generation)
        expected, got = np.concatenate(parts), self.cache.positions
        if not np.array_equal(got, expected):
            n = min(got.size, expected.size)
            differs = np.flatnonzero(got[:n] != expected[:n])
            row = int(differs[0]) if differs.size else n
            held = f"position {got[row]}" if row < got.size else "nothing"
            named = f"position {expected[row]}" if row < expected.size else "nothing"
            raise ShapeMismatch(
                f"message cache row {row} holds {held} but the sink and round records name {named}"
            )


def decompose(
    message: RelayMessage | None, episode: EpisodeRound, sink_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """The sink ``episode``, the round after ``message``, relays and its eligible prompt.

    Both are read-only int64 arrays of positions, and padding is in
    neither. Without a message the round is the first: its sink is the
    first ``sink_size`` non-padding prompt positions and the rest are
    eligible. A later round relays no sink (the message already holds the
    first round's), so its whole non-padding prompt is eligible. Its
    prompt must start after the message ends (with the previous round's
    generation), or :class:`PositionOverlap` is raised.
    """
    if sink_size < 0:
        raise ValueError("sink_size must be non-negative")
    prompt = freeze(np.delete(episode.prompt, locate(episode.prompt, episode.padding)[0]))
    if message is None:
        if sink_size > prompt.size:
            raise SinkTooLarge(f"sink of {sink_size} exceeds the {prompt.size} usable prompt positions")
        return prompt[:sink_size], prompt[sink_size:]
    start, end = episode.prompt[0], message.cache.positions[-1:]  # no end if the message is empty
    if end.size and start <= end[0]:
        raise PositionOverlap(f"round starts at {start} but the message ends at {end[0]}")
    return prompt[:0], prompt
