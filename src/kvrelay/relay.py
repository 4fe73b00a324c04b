"""Multi-round relay driver and retention metrics.

``run_chain`` feeds per-round caches from an episode source through the
configured compression method, growing one relay message: each round the
retained block (sink at round 1, kept prompt rows, all generation rows) is
appended to the inherited message, so the message length satisfies
|M_i| = |M_{i-1}| + kept_i + gen_i with |M_0| equal to the sink length.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable

from .backbone import EpisodeRound
from .compress import CompressionConfig, ObfTrace, compress
from .errors import ChainEmpty, EmptyList, ZeroLength
from .kv import RelayMessage, RoundRecord, concat, decompose

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
    """How many agent rounds to run and how to compress each boundary."""

    num_agents: int = 3
    latent_steps: int = 40
    compression: CompressionConfig = field(default_factory=CompressionConfig)
    seed: int = 0

    def __post_init__(self):
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


@dataclass(frozen=True)
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
            "rounds": [asdict(row) for row in self.rounds],
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
    return sum(min(1.0, k / n) for k, n in zip(budgets, lengths)) / len(lengths)


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
    total_gen = 0

    for round_i in range(1, chain.num_agents + 1):
        episode = source(round_i)
        roles = decompose(
            message,
            round_i,
            episode.prompt,
            episode.generation,
            cfg.sink_size,
            padding=episode.padding,
        )
        retained, selection, trace = compress(episode.cache, roles, episode.attention, cfg)
        cache = retained if message is None else concat(message.cache, retained)
        record = RoundRecord(
            round_index=round_i,
            kept_prompt=selection.keep,
            generation=roles.generation,
            prompt_len=len(episode.prompt),
        )
        message = RelayMessage(
            cache=cache,
            sink=roles.sink if message is None else message.sink,
            rounds=(message.rounds if message is not None else ()) + (record,),
        )
        rows.append(
            RoundReportRow(
                round=round_i,
                prompt_len=len(episode.prompt),
                kept_prompt=len(selection.keep),
                gen_len=len(roles.generation),
                message_len=cache.num_tokens,
            )
        )
        budgets.append(selection.budget)
        traces.append(trace)
        total_gen += len(roles.generation)

    total_prompt = sum(row.prompt_len for row in rows)
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
