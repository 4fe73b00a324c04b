"""Multi-round relay driver and retention metrics.

``run_chain`` feeds per-round caches from an episode source through the
configured compression method, growing one relay message. ``decompose``
says what each round relays: the first round its sink and eligible
prompt, every later round an empty sink and its whole eligible prompt.
The retained block (that sink, kept prompt rows, all generation rows) is
appended to the inherited message, so the message length satisfies
|M_i| = |M_{i-1}| + kept_i + gen_i with |M_0| equal to the sink length.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .backbone import EpisodeRound
from .compress import CompressionConfig, ObfTrace, compress
from .errors import ChainEmpty, EmptyList, ZeroLength, require_int
from .kv import RelayMessage, concat, decompose

# Reference total prompt lengths (sum over three agent rounds) for standard
# benchmarks, as used by the bundled ratio table.
BENCHMARK_PROMPT_LENGTHS = {
    "GSM8K": 524,
    "AIME24": 663,
    "AIME25": 819,
    "GPQA": 942,
    "ARC-E": 496,
    "ARC-C": 524,
    "MBPP+": 778,
    "HumanEval+": 828,
    "MedQA": 888,
}


@dataclass(frozen=True)
class ChainConfig:
    """How many agent rounds to run and how to compress each boundary; integer fields take ``int`` only.

    :func:`run_chain` reads only ``num_agents`` and ``compression``.
    ``latent_steps`` and ``seed`` are read only by the CLI: they are the
    defaults of each configured episode's ``gen_len`` (which must equal
    ``latent_steps``) and ``seed`` (``seed`` plus the episode index).
    """

    num_agents: int = 3
    latent_steps: int = 40
    compression: CompressionConfig = field(default_factory=CompressionConfig)
    seed: int = 0

    def __post_init__(self):
        for name in ("num_agents", "latent_steps", "seed"):
            require_int(getattr(self, name), name)
        if self.num_agents < 1:
            raise ChainEmpty("a chain needs at least one agent round")
        if self.latent_steps < 1:
            raise ValueError("latent_steps must be positive")


@dataclass(frozen=True)
class RoundReportRow:
    round: int
    prompt_len: int
    kept_prompt: int
    gen_len: int
    message_len: int


@dataclass(frozen=True, eq=False)
class RelayReport:
    """Per-round accounting plus chain totals for one compression run."""

    method: str
    granularity: str
    rounds: tuple[RoundReportRow, ...]
    sink_len: int
    total_prompt_len: int
    total_gen_len: int
    relayed_prompt_tokens: int
    final_message_len: int
    rho_achieved: float
    rho_all_states: float
    r_eff: float
    obf_traces: tuple[ObfTrace, ...] = ()

    @property
    def obf_units(self) -> int:
        return sum(trace.total for trace in self.obf_traces)

    @property
    def obf_skipped(self) -> int:
        return sum(trace.skipped_count for trace in self.obf_traces)

    @property
    def obf_skip_rate(self) -> float | None:
        if self.obf_units == 0:
            return None
        return self.obf_skipped / self.obf_units

    def to_dict(self, verbosity: int = 0) -> dict:
        out = {
            "method": self.method,
            "granularity": self.granularity,
            "rounds": [dict(vars(row)) for row in self.rounds],
            "totals": {
                "sink_len": self.sink_len,
                "total_prompt_len": self.total_prompt_len,
                "total_gen_len": self.total_gen_len,
                "relayed_prompt_tokens": self.relayed_prompt_tokens,
                "final_message_len": self.final_message_len,
                "rho_achieved": self.rho_achieved,
                "rho_all_states": self.rho_all_states,
                "r_eff": self.r_eff,
            },
            "obf": {
                "units": self.obf_units,
                "skipped": self.obf_skipped,
                "skip_rate": self.obf_skip_rate,
            },
        }
        if verbosity >= 1 and self.obf_traces:
            out["obf"]["per_round"] = [
                trace.to_dict(include_vectors=verbosity >= 2) for trace in self.obf_traces
            ]
        return out

    def csv_rows(self) -> list[list]:
        header = ["round", "prompt_len", "kept_prompt", "gen_len", "message_len", "rho_achieved", "r_eff"]
        rows: list[list] = [header]
        for row in self.rounds:
            rows.append([row.round, row.prompt_len, row.kept_prompt, row.gen_len, row.message_len, "", ""])
        rows.append(
            [
                "totals",
                self.total_prompt_len,
                self.relayed_prompt_tokens,
                self.total_gen_len,
                self.final_message_len,
                self.rho_achieved,
                self.r_eff,
            ]
        )
        return rows


def effective_retention_ratio(prompt_lengths, budgets) -> float:
    """Mean over rounds of min(1, budget / prompt_length), one budget per round."""
    lengths = [int(n) for n in prompt_lengths]
    budgets = [int(k) for k in budgets]
    if not lengths:
        raise EmptyList("need at least one prompt length")
    if len(budgets) != len(lengths):
        raise ValueError(f"{len(budgets)} budgets for {len(lengths)} prompt lengths")
    if any(n < 1 for n in lengths):
        raise ValueError("prompt lengths must be positive")
    if any(k < 0 for k in budgets):
        raise ValueError("budgets must be non-negative")
    return sum(min(k, n) / n for k, n in zip(budgets, lengths)) / len(lengths)


def compression_ratio(total_prompt_len: int, k: int, rounds: int) -> float:
    """Percentage of prompt states relayed, 100 * rounds * k / total, to one decimal."""
    if rounds < 1:
        raise ValueError("rounds must be positive")
    if k < 0:
        raise ValueError("k must be non-negative")
    if total_prompt_len <= 0:
        raise ZeroLength("total prompt length must be positive")
    if total_prompt_len < rounds:
        raise ValueError("total prompt length cannot be below one token per round")
    return round(100.0 * (rounds * k) / total_prompt_len, 1)


def run_chain(
    source: Callable[[int], EpisodeRound], chain: ChainConfig
) -> tuple[RelayMessage, RelayReport]:
    """Run every round through compression and return message plus report."""
    cfg = chain.compression
    message: RelayMessage | None = None
    rows: list[RoundReportRow] = []
    budgets: list[int] = []
    traces: list[ObfTrace] = []

    for round_i in range(1, chain.num_agents + 1):
        episode = source(round_i)
        sink, eligible = decompose(message, episode, cfg.sink_size)
        retained, record, trace = compress(episode, sink, eligible, cfg)
        if message is None:
            message = RelayMessage(cache=retained, sink=sink, rounds=(record,))
        else:
            message = RelayMessage(
                cache=concat(message.cache, retained),
                sink=message.sink,
                rounds=message.rounds + (record,),
            )
        rows.append(
            RoundReportRow(
                round=round_i,
                prompt_len=len(episode.prompt),
                kept_prompt=len(record.kept_prompt),
                gen_len=len(episode.generation),
                message_len=message.cache.num_tokens,
            )
        )
        budgets.append(cfg.round_budget(len(eligible)))
        traces.append(trace)

    total_prompt = sum(row.prompt_len for row in rows)
    total_gen = sum(row.gen_len for row in rows)
    relayed = sum(row.kept_prompt for row in rows)
    if cfg.method == "full":
        r_eff = 1.0
    else:
        r_eff = effective_retention_ratio([row.prompt_len for row in rows], budgets)
    report = RelayReport(
        method=cfg.method,
        granularity=cfg.granularity,
        rounds=tuple(rows),
        sink_len=len(message.sink),
        total_prompt_len=total_prompt,
        total_gen_len=total_gen,
        relayed_prompt_tokens=relayed,
        final_message_len=message.cache.num_tokens,
        rho_achieved=relayed / total_prompt,
        rho_all_states=message.cache.num_tokens / (total_prompt + total_gen),
        r_eff=r_eff,
        obf_traces=tuple(traces),
    )
    return message, report


__all__ = [
    "BENCHMARK_PROMPT_LENGTHS",
    "ChainConfig",
    "RelayReport",
    "RoundReportRow",
    "compression_ratio",
    "effective_retention_ratio",
    "run_chain",
]
