"""Budgeted KV-cache compression for multi-agent latent relay.

Agents that hand latent KV states down a chain can relay only a fixed
token budget per round. This package provides the cache plumbing
(position-indexed selection, concatenation, role decomposition), the
attention-mass scoring used to pick heavy hitters, the eviction methods
(full relay, sink-plus-generation streaming, top-k), an orthogonal
backfill step that folds evicted value information back into the retained
rows, and a deterministic synthetic backbone plus CLI for running
budget-sweep experiments end to end.
"""

from .backbone import (
    EpisodeRound,
    EpisodeSpec,
    episode_source,
    generate_episode,
    tiny_attention_forward,
)
from .compress import (
    CompressionConfig,
    ObfTrace,
    ObfUnitTrace,
    SelectionResult,
    compress,
    h2o_select,
    obf_inject,
    obf_project,
    obf_residual,
    obf_scale,
    obf_summary,
)
from .kv import (
    IndexList,
    KvCache,
    RelayMessage,
    RoleMap,
    RoundRecord,
    as_index_list,
    caches_equal,
    concat,
    decompose,
    select,
)
from .linalg import (
    OrthoBasis,
    PrincipalSubspace,
    orthonormal_basis,
    principal_subspace,
    project_out,
    top_k_indices,
)
from .relay import (
    BENCHMARK_PROMPT_LENGTHS,
    ChainConfig,
    RelayReport,
    RoundReportRow,
    compression_ratio,
    effective_retention_ratio,
    run_chain,
)
from .scoring import (
    GLOBAL,
    HEADWISE,
    LAYERWISE,
    AttentionRecord,
    MassTable,
    aggregate_global,
    aggregate_layerwise,
    attention_mass_headwise,
    demand_sums,
)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "AttentionRecord",
    "BENCHMARK_PROMPT_LENGTHS",
    "ChainConfig",
    "CompressionConfig",
    "EpisodeRound",
    "EpisodeSpec",
    "GLOBAL",
    "HEADWISE",
    "IndexList",
    "KvCache",
    "LAYERWISE",
    "MassTable",
    "ObfTrace",
    "ObfUnitTrace",
    "OrthoBasis",
    "PrincipalSubspace",
    "RelayMessage",
    "RelayReport",
    "RoleMap",
    "RoundRecord",
    "RoundReportRow",
    "SelectionResult",
    "aggregate_global",
    "aggregate_layerwise",
    "as_index_list",
    "attention_mass_headwise",
    "caches_equal",
    "compress",
    "compression_ratio",
    "concat",
    "decompose",
    "demand_sums",
    "effective_retention_ratio",
    "episode_source",
    "errors",
    "generate_episode",
    "h2o_select",
    "obf_inject",
    "obf_project",
    "obf_residual",
    "obf_scale",
    "obf_summary",
    "orthonormal_basis",
    "principal_subspace",
    "project_out",
    "run_chain",
    "select",
    "tiny_attention_forward",
    "top_k_indices",
]
