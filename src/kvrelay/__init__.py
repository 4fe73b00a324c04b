"""Budgeted KV-cache compression for multi-agent latent relay.

Agents that hand latent KV states down a chain can relay only a fixed
token budget per round. Each name is imported from the module that
defines it (``from kvrelay.kv import KvCache``); ``import kvrelay`` alone
binds no submodule.

  kv        containers: KvCache, RoundRecord, RelayMessage; select,
            concat, decompose, caches_equal, index_array
  scoring   AttentionRecord and attention-mass scoring and aggregation
  linalg    kernels: top-k, orthonormal bases, principal subspaces
  backbone  the deterministic synthetic episode generator
  compress  CompressionConfig and the full, streaming, h2o and h2o_obf
            methods, orthogonal backfill included
  relay     ChainConfig, run_chain and the retention metrics
  fixtures  JSON fixtures for caches, attention records and episodes
  cli       the ``kvrelay`` command (``simulate``, ``ratio-table``)
  errors    the exception types
"""

__version__ = "0.1.0"
