"""Attention-mass accounting over generation steps.

The mass of a context position is the sum, over the generation rows of a
round, of the post-softmax attention it received. Masses are computed per
(layer, kv head) first; query heads that share a kv head under grouped
query attention are folded into it (query head h belongs to kv head
h // kv_group_size). Layer and global aggregates are plain sums, arranged
so that the global ranking is exactly the layer aggregate summed again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, MissingColumn, NumericalFailure
from .kv import IndexList, as_index_list, index_array, locate, read_only

# Ranking labels a run may carry. Eviction always ranks by the global
# aggregate; a layer or head breakdown summed into one shared ranking is
# that same total, so the labels name the same selection.
GLOBAL = "global"
LAYERWISE = "layerwise"
HEADWISE = "headwise"
GRANULARITIES = (GLOBAL, LAYERWISE, HEADWISE)


@dataclass(frozen=True)
class AttentionRecord:
    """Post-softmax attention from generation steps onto context positions.

    Args:
        weights: (num_layers, num_query_heads, gen_steps, num_columns),
            finite, each row non-negative and summing to 1 within 1e-6
            (a non-finite entry raises :class:`NumericalFailure`).
        gen_positions: global position of each generation row (distinct,
            in storage order).
        columns: global position of each attended column, strictly
            increasing.
        kv_group_size: query heads per kv head.

    A read-only float64 ``weights`` array that owns its buffer is kept as
    is; any other array is copied, so writing to the caller's array later
    does not change the record. Every check runs either way.
    """

    weights: np.ndarray
    gen_positions: tuple[int, ...]
    columns: IndexList
    kv_group_size: int

    def __post_init__(self):
        weights = read_only(self.weights)
        if weights.ndim != 4:
            raise ValueError("weights must be (layers, query_heads, gen_steps, columns)")
        gen_positions = tuple(int(p) for p in self.gen_positions)
        if len(set(gen_positions)) != len(gen_positions):
            raise ValueError("generation positions must be distinct")
        columns = as_index_list(self.columns)
        layers, q_heads, gen_steps, n_cols = weights.shape
        if layers < 1 or q_heads < 1:
            raise ValueError("need at least one layer and one query head")
        if len(gen_positions) != gen_steps:
            raise ValueError(f"{len(gen_positions)} row labels for {gen_steps} rows")
        if len(columns) != n_cols:
            raise ValueError(f"{len(columns)} column labels for {n_cols} columns")
        if self.kv_group_size < 1 or q_heads % self.kv_group_size != 0:
            raise ValueError("kv_group_size must evenly divide the query head count")
        if weights.size:
            row_sums = weights.sum(axis=3)
            # A NaN or infinite weight makes its row sum non-finite.
            if not np.isfinite(row_sums).all():
                raise NumericalFailure("attention weights have non-finite entries")
            if float(weights.min()) < 0.0:
                raise ValueError("attention weights must be non-negative")
            err = float(np.abs(row_sums - 1.0).max())
            if err > 1e-6:
                raise ValueError(f"attention rows must sum to 1 (off by {err:g})")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "gen_positions", gen_positions)
        object.__setattr__(self, "columns", columns)

    @property
    def num_layers(self) -> int:
        return self.weights.shape[0]

    @property
    def num_query_heads(self) -> int:
        return self.weights.shape[1]

    @property
    def num_kv_heads(self) -> int:
        return self.num_query_heads // self.kv_group_size


@dataclass(frozen=True)
class MassTable:
    """Attention mass per (layer, kv head) and prompt position.

    ``masses[layer, head, i]`` is the mass that position ``positions[i]``
    received through kv head ``head`` of layer ``layer``. The array is
    read-only.
    """

    positions: IndexList
    masses: np.ndarray  # (num_layers, num_kv_heads, len(positions))

    def __post_init__(self):
        positions = as_index_list(self.positions)
        masses = np.array(self.masses, dtype=np.float64)
        if masses.ndim != 3 or masses.shape[2] != len(positions) or 0 in masses.shape[:2]:
            raise ValueError(
                f"masses of shape {masses.shape} are not (layers >= 1, kv_heads >= 1, "
                f"{len(positions)} positions)"
            )
        masses.flags.writeable = False
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "masses", masses)


def _as_run(indices: np.ndarray):
    """A slice if the distinct ``indices`` are one ascending run of consecutive integers."""
    if (
        indices.size
        and indices[-1] - indices[0] == indices.size - 1
        and (indices[1:] > indices[:-1]).all()
    ):
        return slice(int(indices[0]), int(indices[-1]) + 1)
    return indices


def attention_mass_headwise(attn: AttentionRecord, gen, prompt) -> MassTable:
    """Per-(layer, kv head) mass each prompt position collected over ``gen``.

    ``gen`` must be distinct generation positions of ``attn``, in any
    order; ``prompt`` strictly increasing columns of it.
    """
    gen = tuple(int(p) for p in gen)
    prompt = index_array(prompt)
    if not gen:
        raise ValueError("generation set must be non-empty")
    if len(set(gen)) != len(gen):
        raise ValueError("generation positions must be distinct")
    cols, found = locate(attn.columns, prompt)
    if not found.all():
        raise MissingColumn(f"no attention columns for positions {prompt[~found].tolist()}")
    row_of = {pos: i for i, pos in enumerate(attn.gen_positions)}
    missing_rows = [g for g in gen if g not in row_of]
    if missing_rows:
        raise MissingColumn(f"no attention rows for generation positions {missing_rows}")
    rows = np.array([row_of[g] for g in gen], dtype=np.int64)
    if cols.size == 1:
        # One column: gather, then sum. When that leaves a single output,
        # numpy adds its rows pairwise instead of one by one, so summing
        # whole rows first could round a one-column table differently.
        per_query = attn.weights[:, :, rows[:, None], cols].sum(axis=2)
    else:
        # numpy adds the rows one by one for each column whether or not the
        # columns are picked first, so summing whole rows and then picking
        # gives the same bits without a (layers, heads, rows, columns) copy.
        per_query = attn.weights[:, :, _as_run(rows), :].sum(axis=2)[:, :, _as_run(cols)]
    grouped = per_query.reshape(attn.num_layers, attn.num_kv_heads, attn.kv_group_size, cols.size)
    return MassTable(positions=tuple(prompt.tolist()), masses=grouped.sum(axis=2))


def aggregate_layerwise(table: MassTable) -> np.ndarray:
    """(layers, positions): head masses summed within each layer."""
    return table.masses.sum(axis=1)


def aggregate_global(table: MassTable) -> np.ndarray:
    """(positions,): masses summed over heads, then over layers.

    Summed in that order, head by head and then layer by layer, so the
    result is the layer aggregate summed once more, bit for bit.
    """
    return aggregate_layerwise(table).sum(axis=0)


def _sum_in_order(masses: np.ndarray) -> np.ndarray:
    # Reports carry these sums, so add left to right as a Python sum()
    # would; np.sum may add a long contiguous run pairwise instead.
    if not masses.shape[2]:
        return np.zeros(masses.shape[:2])
    return np.cumsum(masses, axis=2)[:, :, -1]


def demand_sums(table: MassTable, kept) -> tuple[np.ndarray, np.ndarray]:
    """Split ``table`` by a mask: per-unit totals and the masses of the rest.

    ``kept`` is a boolean mask over ``table.positions``; anything else
    raises :class:`DimensionMismatch`. Returns the (layers, kv_heads, 2)
    total mass of the kept positions and of the rest, each added in table
    order, and the (layers, kv_heads, |rest|) masses of the rest.
    """
    kept = np.asarray(kept)
    if kept.dtype != np.bool_ or kept.shape != (len(table.positions),):
        raise DimensionMismatch(
            f"need a boolean mask over {len(table.positions)} positions, "
            f"got {kept.dtype} of shape {kept.shape}"
        )
    rest = table.masses[:, :, ~kept]
    return np.stack([_sum_in_order(table.masses[:, :, kept]), _sum_in_order(rest)], axis=2), rest
