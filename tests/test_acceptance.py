"""End-to-end acceptance checks.

Each test covers one numbered criterion: exact ratio arithmetic, oracle
agreement for the numeric kernels, bitwise immutability guarantees, and
CLI determinism, each with its stated tolerance and, where demanded, a
wall-clock budget. Every test prints one ``[acceptance]`` line (visible
with ``pytest -s`` or in failure output) so the suite reads as a
checklist.
"""

import json
import time

import numpy as np
import pytest

import oracles
from kvrelay.backbone import EpisodeSpec, generate_episode
from kvrelay.cli import METHOD_TABLE, main
from kvrelay.compress import CompressionConfig, compress, obf_residual
from kvrelay.kv import decompose
from kvrelay.linalg import principal_subspace
from kvrelay.relay import ChainConfig, compression_ratio, effective_retention_ratio, run_chain
from kvrelay.scoring import GRANULARITIES, attention_mass_headwise


def check(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:02d} {name}: {status}{' ' + detail if detail else ''}")
    assert ok, f"criterion {num} ({name}) failed {detail}"


def test_criterion_01_benchmark_ratio_table():
    pairs = [
        (524, 18.3),
        (663, 14.5),
        (819, 11.7),
        (942, 10.2),
        (496, 19.4),
        (524, 18.3),
        (778, 12.3),
        (828, 11.6),
        (888, 10.8),
    ]
    start = time.perf_counter()
    mismatches = [(total, rho) for total, rho in pairs if compression_ratio(total, 32, 3) != rho]
    elapsed = time.perf_counter() - start
    check(1, "benchmark ratio table", not mismatches and elapsed < 1.0, f"({elapsed:.3f}s)")


def test_criterion_02_residual_orthogonality_sweep():
    rng = np.random.default_rng(20260815)
    start = time.perf_counter()
    worst_gram, worst_cross = 0.0, 0.0
    for trial in range(1000):
        rows_keep = int(rng.integers(1, 17))
        rows_del = int(rng.integers(1, 17))
        dim = int(rng.integers(1, 33))
        kind = trial % 4
        if kind == 0:
            v_keep = rng.standard_normal((rows_keep, dim))
            v_del = rng.standard_normal((rows_del, dim))
        elif kind == 1:
            r = int(rng.integers(1, min(rows_keep, dim) + 1))
            basis = rng.standard_normal((r, dim))
            v_keep = rng.standard_normal((rows_keep, r)) @ basis
            v_del = rng.standard_normal((rows_del, r)) @ basis
        elif kind == 2:
            v_keep = np.repeat(rng.standard_normal((1, dim)), rows_keep, axis=0)
            v_del = rng.standard_normal((rows_del, dim))
        else:
            scale = 10.0 ** int(rng.integers(-6, 7))
            v_keep = rng.standard_normal((rows_keep, dim)) * scale
            v_del = rng.standard_normal((rows_del, dim)) * scale
            if trial % 12 == 3:
                v_keep = np.zeros((rows_keep, dim))
        basis, residual = obf_residual(v_keep, v_del)
        q = basis.basis
        gram = float(np.linalg.norm(q.T @ q - np.eye(basis.rank)))
        cross = float(np.linalg.norm(residual @ q)) / (1.0 + float(np.linalg.norm(v_del)))
        worst_gram = max(worst_gram, gram)
        worst_cross = max(worst_cross, cross)
    elapsed = time.perf_counter() - start
    ok = worst_gram <= 1e-10 and worst_cross <= 1e-8 and elapsed < 10.0
    check(2, "residual orthogonality sweep", ok,
          f"(gram {worst_gram:.2e}, cross {worst_cross:.2e}, {elapsed:.2f}s)")


def test_criterion_03_subspace_matches_gram_oracle():
    rng = np.random.default_rng(31)
    start = time.perf_counter()
    worst_sigma = 0.0
    total_dirs = 0
    compared_dirs = 0
    for rows in range(1, 7):
        for cols in range(1, 7):
            for _ in range(30):
                m = rng.standard_normal((rows, cols))
                sub = principal_subspace(m, max_rank=6)
                sigmas, vectors = oracles.gram_right_vectors(m)
                p = sub.subspace_rank
                if p:
                    worst_sigma = max(
                        worst_sigma,
                        float(np.abs(np.array(sub.singular_values) - sigmas[:p]).max()),
                    )
                lam = sigmas**2
                for i in range(p):
                    total_dirs += 1
                    lo = lam[i - 1] - lam[i] if i > 0 else np.inf
                    hi = lam[i] - lam[i + 1] if i + 1 < lam.size else lam[i]
                    if min(lo, hi) <= 1e-6 * lam[0]:
                        continue  # direction ill-conditioned for the Gram route
                    compared_dirs += 1
                    want = oracles.fix_sign(vectors[:, i])
                    assert np.abs(sub.rows[i] - want).max() <= 1e-8
    elapsed = time.perf_counter() - start
    ok = worst_sigma <= 1e-8 and compared_dirs >= 0.9 * total_dirs and elapsed < 10.0
    check(3, "principal subspace vs Gram oracle", ok,
          f"(sigma {worst_sigma:.2e}, {compared_dirs}/{total_dirs} dirs, {elapsed:.2f}s)")


def test_criterion_04_topk_matches_sort_oracle():
    from kvrelay.compress import h2o_select
    from kvrelay.scoring import MassTable

    rng = np.random.default_rng(44)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        eligible = tuple(sorted(rng.choice(300, size=n, replace=False).tolist()))
        scores = {p: float(rng.integers(0, 6)) / 4.0 for p in eligible}
        k = int(rng.integers(0, n + 3))
        table = MassTable(positions=eligible, masses=[[[scores[p] for p in eligible]]])
        result = h2o_select(table, k)
        if result.keep != oracles.topk(scores, k, eligible):
            mismatches += 1
    # explicit tie pile-up: every score equal -> lowest positions win
    table = MassTable(positions=tuple(range(10, 30)), masses=np.ones((1, 1, 20)))
    tie_ok = h2o_select(table, 5).keep == (10, 11, 12, 13, 14)
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and tie_ok and elapsed < 5.0
    check(4, "top-k vs full-sort oracle", ok, f"({elapsed:.2f}s)")


def test_criterion_05_backfill_closed_form_and_skip():
    rng = np.random.default_rng(55)
    worst = 0.0
    for idx in range(36):
        granularity = GRANULARITIES[idx % 3]
        n = int(rng.integers(4, 8))
        layers = int(rng.integers(1, 3))
        heads = int(rng.integers(1, 3))
        group = int(rng.integers(1, 3))
        spec = EpisodeSpec(
            seed=int(rng.integers(0, 2**32)),
            num_layers=layers,
            num_kv_heads=heads,
            kv_group_size=group,
            key_dim=6,
            value_dim=12,
            prompt_lens=(n,),
            gen_len=3,
        )
        ep = generate_episode(spec, 1)
        roles = decompose(None, 1, ep.prompt, ep.generation, sink_size=0)
        cfg = CompressionConfig(
            method="h2o_obf", budget_k=n - 1, granularity=granularity, sink_size=0
        )
        _, selection, trace = compress(ep.cache, roles, ep.attention, cfg)
        assert len(selection.deleted) == 1
        mass = oracles.headwise_mass(
            ep.attention.weights, list(range(3)), list(range(n)), group
        )
        row_of = {pos: i for i, pos in enumerate(ep.cache.positions)}
        col_of = {pos: i for i, pos in enumerate(ep.prompt)}
        keep_rows = [row_of[p] for p in selection.keep]
        del_rows = [row_of[p] for p in selection.deleted]
        keep_cols = [col_of[p] for p in selection.keep]
        del_cols = [col_of[p] for p in selection.deleted]
        for layer in range(layers):
            for head in range(heads):
                unit = trace.units[(layer, head)]
                assert not unit.skipped
                v_keep = ep.cache.values[layer, head, keep_rows, :]
                v_del = ep.cache.values[layer, head, del_rows, :]
                residual = oracles.lstsq_residual(v_del, v_keep)
                a_keep = float(mass[layer, head, keep_cols].sum())
                a_del = float(mass[layer, head, del_cols].sum())
                delta = (a_del / (a_keep + 1e-12)) * residual[0]
                worst = max(worst, float(np.abs(unit.injection - delta).max()))
    closed_form_ok = worst <= 1e-10

    # values planted inside the retained span must force the skip path and
    # leave the output bit-identical to plain eviction
    spec = EpisodeSpec(
        seed=77,
        num_layers=2,
        num_kv_heads=2,
        kv_group_size=2,
        key_dim=6,
        value_dim=10,
        prompt_lens=(12, 10, 11),
        gen_len=4,
        value_structure="planted_in_span",
        value_rank=3,
    )
    source = lambda i: generate_episode(spec, i)
    base = dict(budget_k=6, sink_size=2)
    plain_msg, _ = run_chain(
        source,
        ChainConfig(num_agents=3, latent_steps=4,
                    compression=CompressionConfig(method="h2o", **base)),
    )
    backed_msg, backed_report = run_chain(
        source,
        ChainConfig(num_agents=3, latent_steps=4,
                    compression=CompressionConfig(method="h2o_obf", **base)),
    )
    skip_ok = (
        backed_report.obf_skip_rate == 1.0
        and plain_msg.cache.values.tobytes() == backed_msg.cache.values.tobytes()
        and all(
            unit.residual_norm <= 1e-8
            for trace in backed_report.obf_traces
            for unit in trace.units.values()
        )
    )
    check(5, "backfill closed form + planted skip", closed_form_ok and skip_ok,
          f"(worst {worst:.2e})")


def _random_specs(rng, count):
    specs = []
    for idx in range(count):
        specs.append(
            EpisodeSpec(
                seed=int(rng.integers(0, 2**32)),
                num_layers=int(rng.integers(1, 3)),
                num_kv_heads=int(rng.integers(1, 3)),
                kv_group_size=int(rng.integers(1, 3)),
                key_dim=4,
                value_dim=6,
                prompt_lens=tuple(int(x) for x in rng.integers(5, 11, size=3)),
                gen_len=3,
                value_structure=("gaussian", "low_rank", "planted_in_span")[idx % 3],
                value_rank=2,
            )
        )
    return specs


def test_criterion_06_keys_are_bitwise_row_selections():
    rng = np.random.default_rng(66)
    checked = 0
    for spec in _random_specs(rng, 100):
        rounds = [generate_episode(spec, i) for i in (1, 2, 3)]
        source = lambda i: rounds[i - 1]
        sink = int(rng.integers(0, 3))
        for method, granularity in METHOD_TABLE.values():
            cfg = CompressionConfig(
                method=method, granularity=granularity, budget_k=3, sink_size=sink
            )
            message, _ = run_chain(
                source, ChainConfig(num_agents=3, latent_steps=3, compression=cfg)
            )
            for ep in rounds:
                src_row = {pos: i for i, pos in enumerate(ep.cache.positions)}
                msg_rows = [
                    i for i, pos in enumerate(message.cache.positions) if pos in src_row
                ]
                if not msg_rows:
                    continue
                src_rows = [src_row[message.cache.positions[i]] for i in msg_rows]
                got = message.cache.keys[:, :, msg_rows, :]
                want = ep.cache.keys[:, :, src_rows, :]
                assert got.tobytes() == want.tobytes()
                checked += 1
    check(6, "key immutability across methods", checked > 0, f"({checked} blocks)")


def test_criterion_07_message_recursion_and_single_sink():
    rng = np.random.default_rng(67)
    for spec in _random_specs(rng, 12):
        rounds = [generate_episode(spec, i) for i in (1, 2, 3)]
        source = lambda i: rounds[i - 1]
        for method, granularity in METHOD_TABLE.values():
            cfg = CompressionConfig(
                method=method, granularity=granularity, budget_k=3, sink_size=2
            )
            message, report = run_chain(
                source, ChainConfig(num_agents=3, latent_steps=3, compression=cfg)
            )
            prev = report.sink_len
            for row in report.rounds:
                assert row.message_len == prev + row.kept_prompt + row.gen_len
                prev = row.message_len
            # the sink occurs once: it is disjoint from every round's blocks
            claimed = set(message.sink)
            for record in message.rounds:
                assert claimed.isdisjoint(record.kept_prompt)
                assert claimed.isdisjoint(record.generation)
            assert set(message.sink) <= set(message.cache.positions)
    _, streaming_report = run_chain(
        lambda i: generate_episode(EpisodeSpec(), i),
        ChainConfig(compression=CompressionConfig(method="streaming")),
    )
    check(7, "message recursion + single sink", streaming_report.final_message_len == 124)


def test_criterion_08_retention_ratio_contract():
    exact = effective_retention_ratio([16, 64], [32, 32]) == 0.75
    saturated = effective_retention_ratio([16], [32]) == 1.0
    saturated_multi = effective_retention_ratio([8, 4, 2], [32, 32, 32]) == 1.0
    zero = effective_retention_ratio([16, 64], [0, 0]) == 0.0
    check(8, "effective retention ratio", exact and saturated and saturated_multi and zero)


def test_criterion_09_simulate_is_byte_deterministic(tmp_path):
    config = tmp_path / "run.yaml"
    config.write_text(
        "chain:\n"
        "  num_agents: 3\n"
        "  latent_steps: 4\n"
        "  seed: 11\n"
        "  compression:\n"
        "    budget_k: 4\n"
        "    sink_size: 2\n"
        "episodes:\n"
        "  - prompt_lens: [10, 9, 11]\n"
        "    num_layers: 1\n"
        "    num_kv_heads: 1\n"
        "    kv_group_size: 1\n"
        "    key_dim: 5\n"
        "    value_dim: 8\n"
        "  - prompt_lens: [8, 8, 9]\n"
        "    num_layers: 2\n"
        "    num_kv_heads: 2\n"
        "    kv_group_size: 2\n"
        "    key_dim: 4\n"
        "    value_dim: 6\n"
        "methods: [streaming, h2o_obf_global]\n"
        "verbosity: 1\n"
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    args = ["simulate", "--config", str(config), "--emit-fixtures"]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
    assert files_a == files_b and files_a
    identical = all((out_a / rel).read_bytes() == (out_b / rel).read_bytes() for rel in files_a)
    check(9, "byte-identical simulate runs", identical, f"({len(files_a)} files)")


def test_criterion_10_attention_mass_conservation():
    rng = np.random.default_rng(101)
    specs = [EpisodeSpec()] + _random_specs(rng, 5)
    worst = 0.0
    for spec in specs:
        for round_i in range(1, spec.num_rounds + 1):
            ep = generate_episode(spec, round_i)
            attn = ep.attention
            # per query head, straight off the tensor
            per_query = attn.weights.sum(axis=(2, 3))
            worst = max(worst, float(np.abs(per_query - len(ep.generation)).max()))
            # per kv head, through the mass table (folds the query-head group)
            table = attention_mass_headwise(attn, ep.generation, ep.prompt)
            expected = spec.kv_group_size * len(ep.generation)
            totals = table.masses.sum(axis=2)
            worst = max(worst, float(np.abs(totals - expected).max()))
    check(10, "attention mass conservation", worst <= 1e-5, f"(worst {worst:.2e})")


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
