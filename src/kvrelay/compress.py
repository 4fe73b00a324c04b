"""Relay-boundary compression operators.

Four methods share one entry point:

  full        relay every local state, no eviction
  streaming   sink (first round only) plus generated states
  h2o         keep the top-k prompt states by attention mass
  h2o_obf     h2o plus orthogonal-backfill value compensation

Every method first assembles the block it relays (the sink, which only
the first round has, kept prompt rows, generation rows). Orthogonal
backfill then edits the kept slice of that block, per (layer, kv head),
in six array operations written once in ``_orthogonal_backfill``:

  residual   = v_del - (v_del Q) Q^T       Q: orthonormal basis of span(v_keep)
  C          = the residual's top right singular directions, at most ``pca_rank``
  summary    = w @ residual                w = m_del / (sum(m_del) + epsilon)
  direction  = (summary C^T) C
  injection  = del_mass / (keep_mass + epsilon) * direction
  v_keep    += injection                   the same vector on every kept row

where ``m_del`` are the deleted rows' attention masses through that head
and ``keep_mass``/``del_mass`` the kept and deleted totals. Keys are never
modified, and the whole step is skipped for a unit when there is nothing
deleted, when its kept rows already span every value direction, or when
the residual norm is negligible (<= 1e-10 * (1 + ||v_del||_F), both norms
rescaled by the largest entry when squaring overflows); a skipped unit's
rows keep their exact bits. Whether kept rows have full rank ``value_dim``
is read from the singular values of every unit's kept rows, one stacked
SVD per round, and only when at least ``value_dim`` rows are kept. A
full-rank unit has no residual: it reports ``basis_rank = value_dim`` and
``residual_norm`` 0.0, and no deleted row is read for it. Any larger
residual has a nonzero largest singular value, which the rank tolerance
always counts, so it has at least one principal direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .backbone import EpisodeRound
from .errors import BudgetUnset, EmptyKeep, require_int
from .kv import KvCache, freeze, index_array, locate, read_only, select
from .linalg import matrix_ranks, orthonormal_basis, principal_subspace, project_out, top_k_indices
from .scoring import GLOBAL, GRANULARITIES, aggregate_global, attention_mass_headwise, demand_sums

METHODS = ("full", "streaming", "h2o", "h2o_obf")
EVICTION_METHODS = ("h2o", "h2o_obf")

RESIDUAL_NEGLIGIBLE = 1e-10


@dataclass(frozen=True)
class CompressionConfig:
    """Method, budget and numeric knobs for one relay boundary.

    Eviction methods take exactly one of ``budget_k`` (fixed per-round
    token budget) or ``budget_ratio`` (per-round fraction of eligible
    prompt states, k = max(1, round(ratio * eligible))).

    ``granularity`` (global, layerwise or headwise) is a label carried
    into reports. Every label ranks by total mass over layers and heads,
    so all three keep the same tokens. Integer fields take ``int`` only.
    """

    method: str = "h2o"
    budget_k: int | None = 32
    budget_ratio: float | None = None
    granularity: str = GLOBAL
    pca_rank: int = 8
    epsilon: float = 1e-12
    sink_size: int = 4

    def __post_init__(self):
        require_int(self.pca_rank, "pca_rank")
        require_int(self.sink_size, "sink_size")
        if self.budget_k is not None:
            require_int(self.budget_k, "budget_k")
        for name in ("budget_ratio", "epsilon") if self.budget_ratio is not None else ("epsilon",):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeError(f"{name} must be a number, got {value!r}")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if self.granularity not in GRANULARITIES:
            raise ValueError(f"unknown granularity {self.granularity!r}")
        if self.budget_k is not None and self.budget_k < 0:
            raise ValueError("budget_k must be non-negative")
        if self.budget_ratio is not None and not 0.0 < self.budget_ratio <= 1.0:
            raise ValueError("budget_ratio must be in (0, 1]")
        if self.pca_rank < 1:
            raise ValueError("pca_rank must be at least 1")
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon!r}")
        if self.sink_size < 0:
            raise ValueError("sink_size must be non-negative")
        if self.method in EVICTION_METHODS:
            if (self.budget_k is None) == (self.budget_ratio is None):
                raise BudgetUnset(
                    f"method {self.method!r} takes exactly one of budget_k / budget_ratio"
                )

    def round_budget(self, eligible_count: int) -> int:
        """Per-round token budget for ``eligible_count`` eligible positions."""
        if self.budget_k is not None:
            return self.budget_k
        if self.budget_ratio is None:
            raise BudgetUnset("neither budget_k nor budget_ratio is set")
        return max(1, round(self.budget_ratio * eligible_count))


@dataclass(frozen=True, eq=False)
class SelectionResult:
    """Outcome of splitting the eligible prompt into kept and deleted."""

    keep: np.ndarray
    deleted: np.ndarray
    budget: int

    def __post_init__(self):
        keep = index_array(self.keep)
        deleted = index_array(self.deleted)
        if locate(keep, deleted)[1].any():
            raise ValueError("keep and deleted must be disjoint")
        object.__setattr__(self, "keep", keep)
        object.__setattr__(self, "deleted", deleted)
        if self.budget < 0:
            raise ValueError("budget must be non-negative")


@dataclass(frozen=True, eq=False)
class ObfUnitTrace:
    """Diagnostics for one (layer, kv head) backfill evaluation; vectors are read-only float64."""

    layer: int
    head: int
    basis_rank: int
    residual_norm: float
    subspace_rank: int
    keep_mass: float
    del_mass: float
    injection: np.ndarray
    skipped: bool
    weights: np.ndarray | None = None
    summary: np.ndarray | None = None
    direction: np.ndarray | None = None

    def __post_init__(self):
        for name in ("injection", "weights", "summary", "direction"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, read_only(value))
        if self.skipped and self.injection.size and float(np.abs(self.injection).max()) != 0.0:
            raise ValueError("a skipped unit must carry a zero injection")

    @property
    def zero_keep_demand(self) -> bool:
        """An active unit whose kept rows got no attention mass: its scale divides by epsilon alone."""
        return not self.skipped and self.keep_mass == 0.0

    def to_dict(self, include_vectors: bool = False) -> dict:
        out = {
            "layer": self.layer,
            "head": self.head,
            "basis_rank": self.basis_rank,
            "residual_norm": float(self.residual_norm),
            "subspace_rank": self.subspace_rank,
            "keep_mass": float(self.keep_mass),
            "del_mass": float(self.del_mass),
            "skipped": self.skipped,
            "zero_keep_demand": self.zero_keep_demand,
        }
        if include_vectors:
            out["weights"] = self.weights.tolist() if self.weights is not None else None
            out["summary"] = self.summary.tolist() if self.summary is not None else None
            out["direction"] = self.direction.tolist() if self.direction is not None else None
            out["injection"] = self.injection.tolist()
        return out


@dataclass(frozen=True, eq=False)
class ObfTrace:
    """Per-unit backfill diagnostics for one round (empty unless h2o_obf)."""

    units: Mapping[tuple[int, int], ObfUnitTrace] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return len(self.units)

    @property
    def skipped_count(self) -> int:
        return sum(1 for unit in self.units.values() if unit.skipped)

    def to_dict(self, include_vectors: bool = False) -> dict:
        return {
            "units": [self.units[key].to_dict(include_vectors) for key in sorted(self.units)],
        }


def h2o_select(masses: np.ndarray, k: int, positions) -> SelectionResult:
    """Keep the ``min(k, |positions|)`` positions of highest total mass.

    ``masses`` is (layers, kv_heads, len(positions)), its last axis in
    ``positions`` order. One shared ranking by :func:`aggregate_global`,
    ties toward the smaller position.
    """
    keep = top_k_indices(aggregate_global(masses), k, positions)
    _, kept = locate(keep, positions)
    return SelectionResult(keep=keep, deleted=np.asarray(positions)[~kept], budget=k)


def obf_residual(v_keep, v_del) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis (d x r) of the retained-value row space and the deleted rows' residual."""
    v_keep = np.asarray(v_keep, dtype=np.float64)
    if v_keep.ndim != 2 or v_keep.shape[0] == 0:
        raise EmptyKeep("backfill needs at least one retained value row")
    q = orthonormal_basis(v_keep)
    return q, project_out(np.asarray(v_del, dtype=np.float64), q)


def _norm(m: np.ndarray) -> float:
    """Frobenius norm of ``m``, taken on ``m`` over its largest magnitude only if the plain one overflows."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(m))
    if norm == math.inf:
        scale = float(np.abs(m).max())
        norm = scale * float(np.linalg.norm(m / scale))
    return norm


def _orthogonal_backfill(
    local: KvCache,
    block: KvCache,
    kept_slice: slice,
    selection: SelectionResult,
    eligible: np.ndarray,
    masses: np.ndarray,
    cfg: CompressionConfig,
) -> tuple[KvCache, ObfTrace]:
    """Backfill the kept rows ``block.values[:, :, kept_slice]`` of an assembled block.

    ``masses`` are those of :func:`h2o_select`, last axis in ``eligible`` order.
    """
    keep, deleted = selection.keep, selection.deleted
    if deleted.size and not keep.size:
        raise EmptyKeep("budget left no retained prompt rows to backfill into")
    _, kept = locate(keep, eligible)
    demands, del_masses = demand_sums(masses, kept)
    dim = local.value_dim
    # A unit whose kept rows have rank ``dim`` leaves no residual to backfill.
    full_rank = np.zeros(demands.shape[:2], dtype=bool)
    if deleted.size and keep.size >= dim:
        full_rank = matrix_ranks(block.values[:, :, kept_slice]) == dim
    deleted_values = select(local, deleted).values if deleted.size and not full_rank.all() else None

    values: np.ndarray | None = None
    units: dict[tuple[int, int], ObfUnitTrace] = {}
    for unit in np.ndindex(demands.shape[:2]):
        layer, head = unit
        keep_mass, del_mass = demands[unit].tolist()
        # With nothing deleted a unit has no basis, no residual and no subspace.
        basis_rank, residual_norm, rows = 0, 0.0, None
        if full_rank[unit]:
            basis_rank = dim
        elif deleted_values is not None:
            v_keep = block.values[layer, head, kept_slice]
            v_del = deleted_values[layer, head]
            q, residual = obf_residual(v_keep, v_del)
            basis_rank, residual_norm = q.shape[1], _norm(residual)
            if residual_norm > RESIDUAL_NEGLIGIBLE * (1.0 + _norm(v_del)):
                rows = principal_subspace(residual, cfg.pca_rank)
        weights = summary = direction = None
        injection = np.zeros(dim)
        if rows is not None:
            unit_masses = del_masses[layer, head]
            weights = unit_masses / (unit_masses.sum() + cfg.epsilon)
            summary = weights @ residual
            direction = (summary @ rows.T) @ rows
            injection = (del_mass / (keep_mass + cfg.epsilon)) * direction
            if values is None:
                values = np.array(block.values)
            values[layer, head, kept_slice] = v_keep + injection
        units[unit] = ObfUnitTrace(
            layer=layer,
            head=head,
            basis_rank=basis_rank,
            residual_norm=residual_norm,
            subspace_rank=0 if rows is None else rows.shape[0],
            keep_mass=keep_mass,
            del_mass=del_mass,
            injection=injection,
            skipped=rows is None,
            weights=weights,
            summary=summary,
            direction=direction,
        )
    if values is not None:
        block = KvCache(keys=block.keys, values=freeze(values), positions=block.positions)
    return block, ObfTrace(units=units)


def compress(
    episode: EpisodeRound, sink, eligible, cfg: CompressionConfig
) -> tuple[KvCache, SelectionResult, ObfTrace]:
    """Build the block ``episode`` appends to the relay message.

    ``sink`` and ``eligible`` are the positions :func:`~kvrelay.kv.decompose`
    gives the round; the sink is empty after the first round. The block is
    the sink followed by the retained ``eligible`` rows followed by every
    generation row. Keys are bit-exact row selections of the round's cache
    for every method; only ``h2o_obf`` modifies retained prompt values.
    Eviction ranks by the mass of the round's attention record, totalled
    whatever ``cfg.granularity`` says.
    """
    local, generation = episode.cache, episode.generation
    sink, eligible = index_array(sink), index_array(eligible)
    if cfg.method == "full":
        selection = SelectionResult(keep=eligible, deleted=(), budget=len(eligible))
    elif cfg.method == "streaming":
        selection = SelectionResult(keep=(), deleted=eligible, budget=0)
    else:
        masses = attention_mass_headwise(episode.attention, generation, eligible)
        selection = h2o_select(masses, cfg.round_budget(len(eligible)), eligible)

    block = select(local, np.concatenate([sink, selection.keep, generation]))
    if cfg.method != "h2o_obf":
        return block, selection, ObfTrace()
    kept_slice = slice(len(sink), len(sink) + len(selection.keep))
    block, trace = _orthogonal_backfill(local, block, kept_slice, selection, eligible, masses, cfg)
    return block, selection, trace
