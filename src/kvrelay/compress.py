"""Relay-boundary compression operators.

Four methods share one entry point:

  full        relay every local state, no eviction
  streaming   sink (first round only) plus generated states
  h2o         keep the top-k prompt states by attention mass
  h2o_obf     h2o plus orthogonal-backfill value compensation

Every method first assembles the block it relays (the sink, which only
the first round has, kept prompt rows, generation rows). Orthogonal
backfill then shifts the kept slice of that block per (layer, kv head) in
six array operations: ``_orthogonal_backfill`` computes the round's trace
from arrays, and ``compress`` adds its injection.

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

A round's ``ObfTrace`` holds each diagnostic as one array over the (layer,
kv head) units, filled by the per-unit loop and frozen, so the trace keeps
it without a copy; a skipped unit's vectors are 0.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field, fields

import numpy as np

from .backbone import EpisodeRound
from .errors import BudgetUnset, EmptyKeep, require_int
from .kv import KvCache, RoundRecord, freeze, index_array, locate, read_only, select
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
        """Per-round token budget for ``eligible_count`` eligible positions.

        Methods that do not evict by budget (``full``, ``streaming``) get 0.
        """
        if self.method not in EVICTION_METHODS:
            return 0
        if self.budget_k is not None:
            return self.budget_k
        return max(1, round(self.budget_ratio * eligible_count))


def _unit_array(ndim: int, dtype=np.float64):
    """A trace field of ``dtype`` whose default holds no unit."""
    return field(default_factory=lambda: np.zeros((0,) * ndim, dtype), metadata={"dtype": dtype})


_UnitView = namedtuple("_UnitView", "injection skipped")


@dataclass(frozen=True, eq=False)
class ObfTrace:
    """Backfill diagnostics of one round as read-only arrays over its (layer, kv head) units.

    ``basis_rank``, ``residual_norm``, ``subspace_rank``, ``keep_mass``,
    ``del_mass`` and ``skipped`` are (layers, kv_heads); ``summary``,
    ``direction`` and ``injection`` are (layers, kv_heads, value_dim) and
    ``weights`` (layers, kv_heads, n_deleted). Every vector of a skipped unit
    is zero. Only h2o_obf rounds have units.
    """

    basis_rank: np.ndarray = _unit_array(2, np.int64)
    residual_norm: np.ndarray = _unit_array(2)
    subspace_rank: np.ndarray = _unit_array(2, np.int64)
    keep_mass: np.ndarray = _unit_array(2)
    del_mass: np.ndarray = _unit_array(2)
    skipped: np.ndarray = _unit_array(2, np.bool_)
    summary: np.ndarray = _unit_array(3)
    direction: np.ndarray = _unit_array(3)
    injection: np.ndarray = _unit_array(3)
    weights: np.ndarray = _unit_array(3)

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, read_only(getattr(self, f.name), f.metadata["dtype"]))
        if self.injection[self.skipped].any():
            raise ValueError("a skipped unit must carry a zero injection")

    @property
    def total(self) -> int:
        return self.skipped.size

    @property
    def skipped_count(self) -> int:
        return int(self.skipped.sum())

    @property
    def zero_keep_demand(self) -> np.ndarray:
        """Active units whose kept rows got no attention mass: their scale divides by epsilon alone."""
        return ~self.skipped & (self.keep_mass == 0.0)

    @property
    def units(self) -> dict[tuple[int, int], _UnitView]:
        """Each unit's ``(injection, skipped)`` by ``(layer, head)``, for ``perfbench``'s ``check_chain``."""
        shape = self.skipped.shape
        return {u: _UnitView(self.injection[u], bool(self.skipped[u])) for u in np.ndindex(shape)}

    def to_dict(self, include_vectors: bool = False) -> dict:
        """Unit documents in (layer, head) order; a skipped unit's weights, summary and direction are None."""
        keys = ("basis_rank", "residual_norm", "subspace_rank", "keep_mass", "del_mass", "skipped",
                "zero_keep_demand")
        keys += ("weights", "summary", "direction", "injection") if include_vectors else ()
        units = []
        for layer, heads in enumerate(zip(*(getattr(self, key).tolist() for key in keys))):
            for head, values in enumerate(zip(*heads)):
                units.append({"layer": layer, "head": head, **dict(zip(keys, values))})
                if include_vectors and units[-1]["skipped"]:
                    units[-1].update(weights=None, summary=None, direction=None)
        return {"units": units}


_NO_UNITS = ObfTrace()


def h2o_select(masses: np.ndarray, k: int, positions) -> np.ndarray:
    """The ``min(k, |positions|)`` positions of highest total mass, a read-only ascending int64 array.

    ``masses`` is (layers, kv_heads, len(positions)), its last axis in
    ``positions`` order. One shared ranking by :func:`aggregate_global`,
    ties toward the smaller position.
    """
    return top_k_indices(aggregate_global(masses), k, positions)


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
    v_keep: np.ndarray, values: np.ndarray, del_rows: np.ndarray, masses: np.ndarray, kept: np.ndarray,
    cfg: CompressionConfig,
) -> ObfTrace:
    """The backfill trace of one round, whose injections ``compress`` adds to the kept rows.

    ``v_keep`` holds the block's kept value rows, (layers, kv_heads, k, d).
    Of the round's (layers, kv_heads, T, d) ``values`` only the rows
    ``del_rows`` of the deleted positions are read, and only when some
    unit's kept rows lack full rank. ``masses`` are those of
    :func:`h2o_select` and ``kept`` the mask of the kept positions over
    their last axis.
    """
    shape, (k, dim), n_del = v_keep.shape[:2], v_keep.shape[2:], len(del_rows)
    if n_del and not k:
        raise EmptyKeep("budget left no retained prompt rows to backfill into")
    demands, del_masses = demand_sums(masses, kept)
    # A unit whose kept rows have rank ``dim`` leaves no residual to backfill.
    full_rank = np.zeros(shape, dtype=bool)
    if n_del and k >= dim:
        full_rank = matrix_ranks(v_keep) == dim
    v_dels = np.take(values, del_rows, axis=2) if n_del and not full_rank.all() else None

    keep_mass, del_mass = demands[..., 0], demands[..., 1]
    # A unit that skips keeps these: with nothing deleted no basis, no residual and no subspace.
    basis_rank = np.where(full_rank, dim, 0)
    residual_norm, subspace_rank, skipped = np.zeros(shape), np.zeros(shape, np.int64), np.ones(shape, bool)
    summary, direction, injection = (np.zeros((*shape, dim)) for _ in range(3))
    weights = np.zeros((*shape, n_del))
    for unit in np.ndindex(shape):
        if full_rank[unit] or v_dels is None:
            continue
        v_del = v_dels[unit]
        q, residual = obf_residual(v_keep[unit], v_del)
        norm = _norm(residual)
        basis_rank[unit], residual_norm[unit] = q.shape[1], norm
        if norm <= RESIDUAL_NEGLIGIBLE * (1.0 + _norm(v_del)):
            continue
        rows = principal_subspace(residual, cfg.pca_rank)
        skipped[unit], subspace_rank[unit] = False, rows.shape[0]
        unit_masses = del_masses[unit]
        weights[unit] = w = unit_masses / (unit_masses.sum() + cfg.epsilon)
        summary[unit] = s = w @ residual
        direction[unit] = d = (s @ rows.T) @ rows
        injection[unit] = (del_mass[unit] / (keep_mass[unit] + cfg.epsilon)) * d
    filled = dict(basis_rank=basis_rank, residual_norm=residual_norm, subspace_rank=subspace_rank, skipped=skipped,
                  summary=summary, direction=direction, injection=injection, weights=weights)
    return ObfTrace(keep_mass=keep_mass, del_mass=del_mass, **{name: freeze(a) for name, a in filled.items()})


def compress(
    episode: EpisodeRound, sink, eligible, cfg: CompressionConfig
) -> tuple[KvCache, RoundRecord, ObfTrace]:
    """Build the block ``episode`` appends to the relay message, with its round record and backfill trace.

    ``sink`` and ``eligible`` are the positions :func:`~kvrelay.kv.decompose`
    gives the round; the sink is empty after the first round. The block is
    the sink followed by the retained ``eligible`` rows followed by every
    generation row, and the returned :class:`~kvrelay.kv.RoundRecord` names
    those retained prompt positions and the generation. Keys are bit-exact
    row selections of the round's cache for every method; only ``h2o_obf``
    modifies retained prompt values, by adding each active unit's
    ``trace.injection`` to its kept rows (a skipped unit's rows keep their
    bits). Every other method returns a trace with no units. Eviction ranks
    by the mass of the round's attention record, totalled whatever
    ``cfg.granularity`` says.
    """
    local, generation = episode.cache, episode.generation
    sink, eligible = index_array(sink), index_array(eligible)
    if cfg.method == "full":
        keep = eligible
    elif cfg.method == "streaming":
        keep = eligible[:0]
    else:
        masses = attention_mass_headwise(episode.attention, generation, eligible)
        keep = h2o_select(masses, cfg.round_budget(len(eligible)), eligible)
    record = RoundRecord(kept_prompt=keep, generation=generation)

    block = select(local, np.concatenate([sink, keep, generation]))
    if cfg.method != "h2o_obf":
        return block, record, _NO_UNITS
    kept_rows = slice(len(sink), len(sink) + len(keep))
    _, kept = locate(keep, eligible)
    del_rows, _ = locate(local.positions, eligible[~kept])
    trace = _orthogonal_backfill(block.values[:, :, kept_rows], local.values, del_rows, masses, kept, cfg)
    active = ~trace.skipped
    if active.any():
        values = np.array(block.values)
        values[active, kept_rows] += trace.injection[active, None]
        block = KvCache(keys=block.keys, values=freeze(values), positions=block.positions)
    return block, record, trace
