"""Benchmark workloads: seeded inputs, one op each, and independent checks.

Every workload calls kvrelay only through public entry points looked up on
their module at call time (``relay.run_chain``, ``cli.main``), so the
tracer's patches apply. Output checks use numpy alone and never call
``kvrelay.linalg`` or ``kvrelay.scoring``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

# A keep set that differs from the numpy top-k is still accepted when the
# two only disagree on near-ties: every kept mass is within this share of
# the largest mass of the best dropped one. Summation order differs
# between the program and the check, so exact ties can move by a few ulps.
MASS_TIE_TOL = 1e-9
# Backfilled values must equal source plus injection within this relative
# tolerance, and each injection must be orthogonal to the retained rows'
# span within this share of its norm.
VALUE_TOL = 1e-12
ORTHO_TOL = 1e-9

CLI_METHODS = (
    "full",
    "streaming",
    "h2o_global",
    "h2o_layerwise",
    "h2o_headwise",
    "h2o_obf_global",
    "h2o_obf_layerwise",
    "h2o_obf_headwise",
)


class SetupError(RuntimeError):
    """The program failed while the benchmark was preparing its inputs."""


def _episode_seeds(seed: int, count: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(0, 2**63, size=count)]


# --------------------------------------------------------------- run_chain


def check_chain(rounds, message, report, budget_k: int, sink_size: int, obf: bool) -> list[str]:
    """Check one ``run_chain`` result against the episode rounds it consumed."""
    problems: list[str] = []
    if not len(rounds) == len(message.rounds) == len(report.rounds):
        return [f"{len(rounds)} source rounds, {len(message.rounds)} message rounds"]
    positions = np.concatenate([np.asarray(ep.cache.positions) for ep in rounds])
    keys = np.concatenate([ep.cache.keys for ep in rounds], axis=2)
    values = np.concatenate([ep.cache.values for ep in rounds], axis=2)
    msg_pos = np.asarray(message.cache.positions)
    rows = np.searchsorted(positions, msg_pos)
    if rows.size and (rows.max() >= positions.size or not np.array_equal(positions[rows], msg_pos)):
        return ["message holds positions that no source round produced"]
    if not np.array_equal(message.cache.keys, keys[:, :, rows, :]):
        problems.append("message keys are not bitwise row selections of the source caches")
    expected_values = values[:, :, rows, :]

    length = len(message.sink)
    for row in report.rounds:
        length += row.kept_prompt + row.gen_len
        if row.message_len != length:
            problems.append(f"round {row.round}: |M| = {row.message_len}, expected {length}")
    if length != message.cache.num_tokens:
        problems.append(f"final message has {message.cache.num_tokens} rows, expected {length}")

    for i, (ep, record) in enumerate(zip(rounds, message.rounds)):
        eligible = np.asarray(ep.prompt[sink_size:] if i == 0 else ep.prompt)
        cols = np.searchsorted(np.asarray(ep.attention.columns), eligible)
        mass = ep.attention.weights[:, :, :, cols].sum(axis=(0, 1, 2))
        k = min(budget_k, eligible.size)
        expected = np.sort(eligible[np.lexsort((eligible, -mass))[:k]])
        kept = np.asarray(record.kept_prompt, dtype=np.int64)
        if not np.array_equal(kept, expected):
            is_kept = np.isin(eligible, kept)
            near_tie = (
                kept.size == k
                and is_kept.sum() == k
                and mass[is_kept].min() >= mass[~is_kept].max() - MASS_TIE_TOL * np.abs(mass).max()
            )
            if not near_tie:
                problems.append(f"round {i + 1}: keep set is not the top-{k} by attention mass")
        if not obf:
            continue
        src_keep = np.searchsorted(positions, kept)
        msg_keep = np.searchsorted(msg_pos, kept)
        for (layer, head), unit in report.obf_traces[i].units.items():
            injection = unit.injection
            if unit.skipped or not np.any(injection):
                problems.append(f"round {i + 1} unit {(layer, head)} took the skip path")
                continue
            v_keep = values[layer, head, src_keep, :]
            _, sigma, vt = np.linalg.svd(v_keep, full_matrices=False)
            basis = vt[sigma > sigma[0] * max(v_keep.shape) * np.finfo(float).eps]
            leak = float(np.linalg.norm(basis @ injection))
            if leak > ORTHO_TOL * float(np.linalg.norm(injection)):
                problems.append(
                    f"round {i + 1} unit {(layer, head)}: injection leaks {leak:.3g} into the kept span"
                )
            expected_values[layer, head, msg_keep, :] += injection
    if obf:
        values_ok = np.allclose(message.cache.values, expected_values, rtol=VALUE_TOL, atol=VALUE_TOL)
    else:
        values_ok = np.array_equal(message.cache.values, expected_values)
    if not values_ok:
        problems.append("message values differ from the source rows plus injections")
    return problems


@dataclass
class ChainOp:
    """One ``run_chain`` call on a generated episode."""

    label: str
    spec: object
    chain: object
    obf: bool

    def run(self, kv):
        rounds = []
        source = kv.backbone.episode_source(self.spec)

        def recording(round_i):
            rounds.append(source(round_i))
            return rounds[-1]

        message, report = kv.relay.run_chain(recording, self.chain)
        return rounds, message, report

    def check(self, result) -> list[str]:
        comp = self.chain.compression
        return check_chain(*result, comp.budget_k, comp.sink_size, self.obf)


class ChainWorkload:
    """A fixed cycle of ``run_chain`` ops over seeded episodes."""

    def __init__(self, kv, seed, layout, shapes, gen_len, methods, budget_k):
        self.ops = []
        for shape, episode_seed in zip(shapes, _episode_seeds(seed, len(shapes))):
            spec = kv.backbone.EpisodeSpec(seed=episode_seed, prompt_lens=shape, gen_len=gen_len, **layout)
            for method, granularity in methods:
                compression = kv.compress.CompressionConfig(
                    method=method, granularity=granularity, budget_k=budget_k, sink_size=4
                )
                chain = kv.relay.ChainConfig(
                    num_agents=len(shape), latent_steps=gen_len, compression=compression
                )
                label = f"{method}_{granularity} prompts={shape}"
                self.ops.append(ChainOp(label, spec, chain, obf=method == "h2o_obf"))

    def cycle(self) -> list:
        return self.ops

    def signature(self) -> str:
        return repr([(op.label, op.spec.seed) for op in self.ops])

    def detail(self) -> dict:
        return {"ops_per_cycle": len(self.ops), "ops": [op.label for op in self.ops]}


def obf_active(kv, seed, workdir):
    # budget_k 8 < value_dim 12 with Gaussian values: every (layer, kv head)
    # unit takes the active backfill path, so the SVD and QR kernels dominate.
    return ChainWorkload(
        kv,
        seed,
        layout=dict(num_layers=2, num_kv_heads=1, kv_group_size=2, key_dim=16, value_dim=12),
        shapes=((80, 80, 80),) * 4,
        gen_len=16,
        methods=(("h2o_obf", "headwise"),),
        budget_k=8,
    )


def evict_long(kv, seed, workdir):
    # Long prompts, budget_k 32 >= value_dim 16, no backfill: episode
    # generation, mass scoring, selection and cache copies do the work.
    return ChainWorkload(
        kv,
        seed,
        layout=dict(num_layers=2, num_kv_heads=2, kv_group_size=2, key_dim=16, value_dim=16),
        shapes=((1152, 1152, 1152),) * 4,
        gen_len=32,
        methods=(("h2o", "global"), ("h2o", "headwise")),
        budget_k=32,
    )


# --------------------------------------------------------------- cli sweep

DESK_LAYOUT = dict(num_layers=2, num_kv_heads=2, kv_group_size=2, key_dim=16, value_dim=16)
SWEEP_BUDGET = 32
SWEEP_SINK = 4


def _tree_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def check_sweep_reports(out: Path, episodes: int) -> list[str]:
    """Arithmetic checks on every report a sweep wrote."""
    problems = []
    for method in CLI_METHODS:
        for index in range(episodes):
            path = out / f"{method}__ep{index:03d}.json"
            if not path.is_file() or not path.with_suffix(".csv").is_file():
                problems.append(f"missing report {path.name} or its csv")
                continue
            doc = json.loads(path.read_text())
            totals = doc["totals"]
            length = totals["sink_len"]
            if length != SWEEP_SINK:
                problems.append(f"{path.name}: sink_len {length}")
            for i, row in enumerate(doc["rounds"]):
                length += row["kept_prompt"] + row["gen_len"]
                if row["message_len"] != length:
                    problems.append(f"{path.name} round {row['round']}: |M| {row['message_len']} != {length}")
                eligible = row["prompt_len"] - (SWEEP_SINK if i == 0 else 0)
                expected = {"full": eligible, "streaming": 0}.get(method, min(SWEEP_BUDGET, eligible))
                if row["kept_prompt"] != expected:
                    problems.append(f"{path.name} round {row['round']}: kept {row['kept_prompt']} != {expected}")
            if totals["final_message_len"] != length:
                problems.append(f"{path.name}: final_message_len {totals['final_message_len']} != {length}")
            obf = doc["obf"]
            if method.startswith("h2o_obf"):
                # budget_k >= value_dim: every unit must take the skip path.
                units = DESK_LAYOUT["num_layers"] * DESK_LAYOUT["num_kv_heads"] * len(doc["rounds"])
                if obf["units"] != units or obf["skipped"] != units:
                    problems.append(f"{path.name}: {obf['skipped']}/{obf['units']} units skipped, expected {units}")
            elif obf["units"] != 0:
                problems.append(f"{path.name}: {obf['units']} backfill units without backfill")
    if not (out / "summary.json").is_file():
        problems.append("missing summary.json")
    return problems


class SweepCli:
    """``kvrelay simulate`` over one generated and one fixture episode, all methods.

    The workload is also its only op: each cycle is one ``simulate`` call.
    """

    PROMPTS = ((40, 36, 44), (44, 40, 36))
    GEN_LEN = 8

    def __init__(self, kv, seed, workdir: Path):
        spec_seed, fixture_seed, chain_seed = _episode_seeds(seed, 3)
        workdir.mkdir(parents=True, exist_ok=True)
        chain = {
            "num_agents": len(self.PROMPTS[0]),
            "latent_steps": self.GEN_LEN,
            "seed": chain_seed % 2**31,
            "compression": {"budget_k": SWEEP_BUDGET, "sink_size": SWEEP_SINK},
        }
        emit_config = workdir / "emit.yaml"
        emit_episode = dict(DESK_LAYOUT, seed=fixture_seed, prompt_lens=list(self.PROMPTS[1]))
        emit_config.write_text(
            yaml.safe_dump({"chain": chain, "episodes": [emit_episode], "methods": ["full"]})
        )
        with contextlib.redirect_stdout(io.StringIO()):
            code = kv.cli.main(
                ["simulate", "--config", str(emit_config), "--out", str(workdir / "emit"), "--emit-fixtures"]
            )
        if code != 0:
            raise SetupError(f"emitting the fixture episode exited {code}")
        spec_episode = dict(DESK_LAYOUT, seed=spec_seed, prompt_lens=list(self.PROMPTS[0]))
        self.config = workdir / "sweep.yaml"
        self.config.write_text(
            yaml.safe_dump(
                {
                    "chain": chain,
                    "episodes": [spec_episode, {"fixture": "emit/fixtures/ep000.json"}],
                    "methods": list(CLI_METHODS),
                    "verbosity": 2,
                }
            )
        )
        self.out = workdir / "reports"
        self.digest: str | None = None
        self.label = f"simulate {len(CLI_METHODS)} methods x 2 episodes"

    def run(self, kv):
        with contextlib.redirect_stdout(io.StringIO()):
            return kv.cli.main(["simulate", "--config", str(self.config), "--out", str(self.out)])

    def check(self, exit_code) -> list[str]:
        try:
            if exit_code != 0:
                return [f"simulate exited {exit_code}"]
            digest = _tree_digest(self.out)
            if self.digest is None:
                self.digest = digest
                return check_sweep_reports(self.out, episodes=2)
            if digest != self.digest:
                return [f"reports digest {digest[:16]} differs from the first op's {self.digest[:16]}"]
            return []
        finally:
            shutil.rmtree(self.out, ignore_errors=True)

    def cycle(self) -> list:
        return [self]

    def signature(self) -> str:
        return str(self.digest)

    def detail(self) -> dict:
        return {"ops_per_cycle": 1, "ops": [self.label], "reports_sha256": self.digest}


def sweep_cli(kv, seed, workdir):
    return SweepCli(kv, seed, workdir)


WORKLOADS = {"obf_active": obf_active, "evict_long": evict_long, "sweep_cli": sweep_cli}
