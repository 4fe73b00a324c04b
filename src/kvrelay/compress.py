"""Relay-boundary compression operators.

Four methods share one entry point:

  full        relay every local state, no eviction
  streaming   sink (first round only) plus generated states
  h2o         keep the top-k prompt states by attention mass
  h2o_obf     h2o plus orthogonal-backfill value compensation

Every method first assembles the block it relays (sink, kept prompt rows,
generation rows). Orthogonal backfill then edits the kept slice of that
block, per (layer, kv head): project the deleted rows out of the span of
the retained rows, keep the leading principal directions of that
residual, form an attention-weighted residual summary, project it onto
those directions, rescale by the deleted-to-retained demand ratio, and add
the resulting vector to every retained prompt value row. Keys are never
modified, and the whole step is skipped for a unit when there is nothing
deleted, the residual has no principal direction, or its norm is
negligible (<= 1e-10 * (1 + ||v_del||_F)); a skipped unit's rows keep
their exact bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import BudgetUnset, DimensionMismatch, EmptyKeep
from .kv import IndexList, KvCache, RoleMap, as_index_list, freeze, locate, select
from .linalg import OrthoBasis, PrincipalSubspace, orthonormal_basis, principal_subspace, project_out, top_k_indices
from .scoring import (
    GLOBAL,
    GRANULARITIES,
    AttentionRecord,
    MassTable,
    aggregate_global,
    attention_mass_headwise,
    demand_sums,
)

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
    so all three keep the same tokens.
    """

    method: str = "h2o"
    budget_k: int | None = 32
    budget_ratio: float | None = None
    granularity: str = GLOBAL
    pca_rank: int = 8
    epsilon: float = 1e-12
    sink_size: int = 4

    def __post_init__(self):
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
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
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


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of splitting the eligible prompt into kept and deleted."""

    keep: IndexList
    deleted: IndexList
    budget: int

    def __post_init__(self):
        object.__setattr__(self, "keep", as_index_list(self.keep))
        object.__setattr__(self, "deleted", as_index_list(self.deleted))
        if set(self.keep) & set(self.deleted):
            raise ValueError("keep and deleted must be disjoint")
        if self.budget < 0:
            raise ValueError("budget must be non-negative")


@dataclass(frozen=True)
class ObfUnitTrace:
    """Diagnostics for one (layer, kv head) backfill evaluation."""

    layer: int
    head: int
    basis_rank: int
    residual_norm: float
    subspace_rank: int
    keep_mass: float
    del_mass: float
    injection: np.ndarray
    skipped: bool
    zero_keep_demand: bool = False
    weights: tuple[float, ...] | None = None
    summary: np.ndarray | None = None
    direction: np.ndarray | None = None

    def __post_init__(self):
        injection = np.array(self.injection, dtype=np.float64)
        injection.flags.writeable = False
        object.__setattr__(self, "injection", injection)
        if self.skipped and injection.size and float(np.abs(injection).max()) != 0.0:
            raise ValueError("a skipped unit must carry a zero injection")

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
            out["weights"] = list(self.weights) if self.weights is not None else None
            out["summary"] = self.summary.tolist() if self.summary is not None else None
            out["direction"] = self.direction.tolist() if self.direction is not None else None
            out["injection"] = self.injection.tolist()
        return out


@dataclass(frozen=True)
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


def h2o_select(table: MassTable, k: int) -> SelectionResult:
    """Keep the ``min(k, |positions|)`` table positions of highest total mass.

    One shared ranking by :func:`aggregate_global`, ties toward the smaller
    position.
    """
    positions = np.asarray(table.positions, dtype=np.int64)
    keep = top_k_indices(aggregate_global(table), k, positions)
    _, kept = locate(keep, positions)
    return SelectionResult(keep=keep, deleted=positions[~kept], budget=k)


def obf_residual(v_keep, v_del) -> tuple[OrthoBasis, np.ndarray]:
    """Basis of the retained-value row space and the deleted rows' residual."""
    v_keep = np.asarray(v_keep, dtype=np.float64)
    if v_keep.ndim != 2 or v_keep.shape[0] == 0:
        raise EmptyKeep("backfill needs at least one retained value row")
    basis = orthonormal_basis(v_keep)
    residual = project_out(np.asarray(v_del, dtype=np.float64), basis)
    return basis, residual


def _residual_weights(masses: np.ndarray, epsilon: float) -> np.ndarray:
    return masses / (masses.sum() + epsilon)


def obf_summary(residual, masses, epsilon: float) -> np.ndarray:
    """Attention-weighted average of the residual rows."""
    residual = np.asarray(residual, dtype=np.float64)
    masses = np.asarray(masses, dtype=np.float64)
    if residual.ndim != 2 or masses.ndim != 1 or masses.shape[0] != residual.shape[0]:
        raise DimensionMismatch("need one mass per residual row")
    if masses.size and float(masses.min()) < 0.0:
        raise ValueError("masses must be non-negative")
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    return _residual_weights(masses, epsilon) @ residual


def obf_project(summary, subspace: PrincipalSubspace) -> np.ndarray:
    """Component of the summary inside the principal residual subspace."""
    summary = np.asarray(summary, dtype=np.float64)
    if summary.ndim != 1:
        raise DimensionMismatch("summary must be a vector")
    if subspace.subspace_rank == 0:
        return np.zeros_like(summary)
    if summary.shape[0] != subspace.ambient_dim:
        raise DimensionMismatch(
            f"summary has dim {summary.shape[0]} but subspace lives in {subspace.ambient_dim}"
        )
    c = subspace.rows
    return (summary @ c.T) @ c


def obf_scale(direction, demand: tuple[float, float], epsilon: float) -> np.ndarray:
    """Rescale by the deleted-to-retained attention demand ratio."""
    direction = np.asarray(direction, dtype=np.float64)
    keep_mass, del_mass = float(demand[0]), float(demand[1])
    if keep_mass < 0.0 or del_mass < 0.0:
        raise ValueError("demand masses must be non-negative")
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    return (del_mass / (keep_mass + epsilon)) * direction


def obf_inject(v_keep, delta) -> np.ndarray:
    """Add the same compensation vector to every retained value row."""
    v_keep = np.asarray(v_keep, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    if v_keep.ndim != 2 or delta.ndim != 1 or v_keep.shape[1] != delta.shape[0]:
        raise DimensionMismatch(
            f"cannot add a dim-{delta.shape} vector to rows of shape {v_keep.shape}"
        )
    return v_keep + delta


def _orthogonal_backfill(
    local: KvCache,
    block: KvCache,
    kept_slice: slice,
    selection: SelectionResult,
    table: MassTable,
    cfg: CompressionConfig,
) -> tuple[KvCache, ObfTrace]:
    """Backfill the kept rows ``block.values[:, :, kept_slice]`` of an assembled block."""
    keep, deleted = selection.keep, selection.deleted
    if deleted and not keep:
        raise EmptyKeep("budget left no retained prompt rows to backfill into")
    _, kept = locate(keep, table.positions)
    demands, del_masses = demand_sums(table, kept)
    deleted_values = select(local, deleted).values if deleted else None
    value_dim = local.value_dim

    values: np.ndarray | None = None
    units: dict[tuple[int, int], ObfUnitTrace] = {}
    for unit in np.ndindex(demands.shape[:2]):
        layer, head = unit
        keep_mass, del_mass = demands[unit].tolist()

        def skipped(basis_rank=0, residual_norm=0.0) -> ObfUnitTrace:
            return ObfUnitTrace(
                layer=layer,
                head=head,
                basis_rank=basis_rank,
                residual_norm=residual_norm,
                subspace_rank=0,
                keep_mass=keep_mass,
                del_mass=del_mass,
                injection=np.zeros(value_dim),
                skipped=True,
            )

        if not deleted:
            units[unit] = skipped()
            continue
        v_keep = block.values[layer, head, kept_slice]
        v_del = deleted_values[layer, head]
        basis, residual = obf_residual(v_keep, v_del)
        residual_norm = float(np.linalg.norm(residual))
        if residual_norm <= RESIDUAL_NEGLIGIBLE * (1.0 + float(np.linalg.norm(v_del))):
            units[unit] = skipped(basis.rank, residual_norm)
            continue
        subspace = principal_subspace(residual, cfg.pca_rank)
        if subspace.subspace_rank == 0:
            units[unit] = skipped(basis.rank, residual_norm)
            continue
        masses = del_masses[layer, head]
        summary = obf_summary(residual, masses, cfg.epsilon)
        direction = obf_project(summary, subspace)
        injection = obf_scale(direction, (keep_mass, del_mass), cfg.epsilon)
        if values is None:
            values = np.array(block.values)
        values[layer, head, kept_slice] = obf_inject(v_keep, injection)
        units[unit] = ObfUnitTrace(
            layer=layer,
            head=head,
            basis_rank=basis.rank,
            residual_norm=residual_norm,
            subspace_rank=subspace.subspace_rank,
            keep_mass=keep_mass,
            del_mass=del_mass,
            injection=injection,
            skipped=False,
            zero_keep_demand=keep_mass == 0.0,
            weights=tuple(_residual_weights(masses, cfg.epsilon).tolist()),
            summary=summary,
            direction=direction,
        )
    if values is not None:
        block = KvCache(keys=block.keys, values=freeze(values), positions=block.positions)
    return block, ObfTrace(units=units)


def compress(
    local: KvCache,
    roles: RoleMap,
    attn: AttentionRecord | None,
    cfg: CompressionConfig,
) -> tuple[KvCache, SelectionResult, ObfTrace]:
    """Build the block this round appends to the relay message.

    The block is sink (first round only, when the sink still lives in the
    local cache) followed by retained prompt rows followed by all
    generation rows. Keys are bit-exact row selections of the input for
    every method; only ``h2o_obf`` modifies retained prompt values.
    Eviction ranks by total mass whatever ``cfg.granularity`` says.
    """
    eligible = roles.prompt
    sink = roles.sink if set(roles.sink) <= set(local.positions) else ()

    if cfg.method == "full":
        selection = SelectionResult(keep=eligible, deleted=(), budget=len(eligible))
        return select(local, sink + eligible + roles.generation), selection, ObfTrace()

    if cfg.method == "streaming":
        selection = SelectionResult(keep=(), deleted=eligible, budget=0)
        return select(local, sink + roles.generation), selection, ObfTrace()

    if attn is None:
        raise ValueError("eviction methods need an attention record")
    k = cfg.round_budget(len(eligible))
    table = attention_mass_headwise(attn, roles.generation, eligible)
    selection = h2o_select(table, k)

    retained = select(local, sink + selection.keep + roles.generation)
    if cfg.method == "h2o":
        return retained, selection, ObfTrace()
    kept_slice = slice(len(sink), len(sink) + len(selection.keep))
    retained, trace = _orthogonal_backfill(local, retained, kept_slice, selection, table, cfg)
    return retained, selection, trace
