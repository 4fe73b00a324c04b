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

from .errors import DimensionMismatch, MissingColumn, NumericalFailure, require_int
from .kv import freeze, index_array, locate, read_only

# Ranking labels a run may carry. Eviction always ranks by the global
# aggregate; a layer or head breakdown summed into one shared ranking is
# that same total, so the labels name the same selection.
GLOBAL = "global"
LAYERWISE = "layerwise"
HEADWISE = "headwise"
GRANULARITIES = (GLOBAL, LAYERWISE, HEADWISE)


@dataclass(frozen=True, eq=False)
class AttentionRecord:
    """Post-softmax attention from generation steps onto context positions.

    Args:
        weights: (num_layers, num_query_heads, gen_steps, num_columns),
            finite, each row non-negative and summing to 1 within 1e-6
            (a non-finite entry raises :class:`NumericalFailure`).
        gen_positions: global position of each generation row, strictly
            increasing.
        columns: global position of each attended column, strictly
            increasing.
        kv_group_size: query heads per kv head, an ``int`` (not ``bool``).

    A read-only ``weights`` (float64) or position (int64) array that owns
    its buffer is kept as is; any other array is copied, so writing to the
    caller's array later does not change the record. Every check runs
    either way.
    """

    weights: np.ndarray
    gen_positions: np.ndarray
    columns: np.ndarray
    kv_group_size: int

    def __post_init__(self):
        require_int(self.kv_group_size, "kv_group_size")
        weights = read_only(self.weights)
        if weights.ndim != 4:
            raise ValueError("weights must be (layers, query_heads, gen_steps, columns)")
        gen_positions = index_array(self.gen_positions)
        columns = index_array(self.columns)
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
            # A NaN or infinite weight makes its row sum non-finite, and so do
            # finite weights whose sum overflows; only then are the entries
            # read one by one. A packed fixture can hold a signalling NaN,
            # whose sum would also warn.
            with np.errstate(invalid="ignore", over="ignore"):
                row_sums = weights.sum(axis=3)
            if not np.isfinite(row_sums).all():
                if not np.isfinite(weights).all():
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


def _as_run(indices: np.ndarray):
    """A slice if the strictly increasing ``indices`` are one run of consecutive integers."""
    if indices.size and indices[-1] - indices[0] == indices.size - 1:
        return slice(int(indices[0]), int(indices[-1]) + 1)
    return indices


def attention_mass_headwise(attn: AttentionRecord, gen, prompt) -> np.ndarray:
    """Per-(layer, kv head) mass each prompt position collected over ``gen``.

    ``gen`` must be strictly increasing generation positions of ``attn``
    and ``prompt`` strictly increasing columns of it; both are found with
    :func:`kv.locate`, columns first. Returns the read-only float64
    (layers, kv_heads, len(prompt)) array whose ``[layer, head, i]`` is the
    mass ``prompt[i]`` received through that kv head.
    """
    prompt = index_array(prompt)
    gen = index_array(gen)
    if not gen.size:
        raise ValueError("generation set must be non-empty")
    cols, found = locate(attn.columns, prompt)
    if not found.all():
        raise MissingColumn(f"no attention columns for positions {prompt[~found].tolist()}")
    rows, found = locate(attn.gen_positions, gen)
    if not found.all():
        raise MissingColumn(f"no attention rows for generation positions {gen[~found].tolist()}")
    if cols.size == 1:
        # One column: gather, then sum. When that leaves a single output,
        # numpy adds its rows pairwise instead of one by one, so summing
        # whole rows first could round a single column differently.
        per_query = attn.weights[:, :, rows[:, None], cols].sum(axis=2)
    else:
        # numpy adds the rows one by one for each column whether or not the
        # columns are picked first, so summing whole rows and then picking
        # gives the same bits without a (layers, heads, rows, columns) copy.
        per_query = attn.weights[:, :, _as_run(rows), :].sum(axis=2)[:, :, _as_run(cols)]
    grouped = per_query.reshape(attn.num_layers, attn.num_kv_heads, attn.kv_group_size, cols.size)
    return freeze(grouped.sum(axis=2))


def aggregate_layerwise(masses: np.ndarray) -> np.ndarray:
    """(layers, positions): the (layers, kv_heads, positions) masses summed within each layer."""
    return masses.sum(axis=1)


def aggregate_global(masses: np.ndarray) -> np.ndarray:
    """(positions,): masses summed over heads, then over layers.

    Summed in that order, head by head and then layer by layer, so the
    result is the layer aggregate summed once more, bit for bit.
    """
    return aggregate_layerwise(masses).sum(axis=0)


def _sum_in_order(masses: np.ndarray) -> np.ndarray:
    # Reports carry these sums, so add left to right as a Python sum()
    # would; np.sum may add a long contiguous run pairwise instead.
    if not masses.shape[2]:
        return np.zeros(masses.shape[:2])
    return np.cumsum(masses, axis=2)[:, :, -1]


def demand_sums(masses: np.ndarray, kept) -> tuple[np.ndarray, np.ndarray]:
    """Split (layers, kv_heads, positions) ``masses`` by a mask over their last axis.

    ``kept`` is a boolean mask of length ``masses.shape[2]``; anything else
    raises :class:`DimensionMismatch`. Returns the (layers, kv_heads, 2)
    total mass of the kept positions and of the rest, each added in
    position order, and the (layers, kv_heads, |rest|) masses of the rest.
    """
    kept = np.asarray(kept)
    if kept.dtype != np.bool_ or kept.shape != (masses.shape[2],):
        raise DimensionMismatch(
            f"need a boolean mask over {masses.shape[2]} positions, "
            f"got {kept.dtype} of shape {kept.shape}"
        )
    rest = masses[:, :, ~kept]
    return np.stack([_sum_in_order(masses[:, :, kept]), _sum_in_order(rest)], axis=2), rest
