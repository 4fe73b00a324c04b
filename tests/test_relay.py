"""Chain driver, message recursion arithmetic and retention metrics."""

import numpy as np
import pytest

from kvrelay.backbone import EpisodeSpec, episode_source
from kvrelay.compress import CompressionConfig
from kvrelay.errors import ChainEmpty, EmptyList, ZeroLength
from kvrelay.kv import caches_equal
from kvrelay.relay import (
    BENCHMARK_PROMPT_LENGTHS,
    ChainConfig,
    compression_ratio,
    effective_retention_ratio,
    run_chain,
)
from kvrelay.scoring import GLOBAL, HEADWISE, LAYERWISE

METHOD_CONFIGS = [
    ("full", GLOBAL),
    ("streaming", GLOBAL),
    ("h2o", GLOBAL),
    ("h2o", LAYERWISE),
    ("h2o", HEADWISE),
    ("h2o_obf", GLOBAL),
    ("h2o_obf", LAYERWISE),
    ("h2o_obf", HEADWISE),
]


def default_chain(method="h2o", granularity=GLOBAL, **comp):
    comp.setdefault("budget_k", 32)
    compression = CompressionConfig(method=method, granularity=granularity, **comp)
    return ChainConfig(num_agents=3, latent_steps=40, compression=compression, seed=0)


def small_chain(method="h2o", granularity=GLOBAL, **comp):
    comp.setdefault("budget_k", 5)
    comp.setdefault("sink_size", 2)
    compression = CompressionConfig(method=method, granularity=granularity, **comp)
    return ChainConfig(num_agents=3, latent_steps=4, compression=compression, seed=0)


def small_spec(**over):
    fields = dict(
        seed=5,
        num_layers=2,
        num_kv_heads=2,
        kv_group_size=2,
        key_dim=6,
        value_dim=16,
        prompt_lens=(10, 9, 11),
        gen_len=4,
    )
    fields.update(over)
    return EpisodeSpec(**fields)


def test_chain_config_validation():
    with pytest.raises(ChainEmpty):
        ChainConfig(num_agents=0)
    with pytest.raises(ValueError):
        ChainConfig(latent_steps=0)


def test_retention_ratio_examples():
    assert effective_retention_ratio([16, 64], [32, 32]) == 0.75
    assert effective_retention_ratio([16], [32]) == 1.0
    assert effective_retention_ratio([8, 4], [32, 32]) == 1.0
    assert effective_retention_ratio([16, 64], [0, 0]) == 0.0


def test_retention_ratio_validation():
    with pytest.raises(EmptyList):
        effective_retention_ratio([], [])
    with pytest.raises(ValueError):
        effective_retention_ratio([0], [32])
    with pytest.raises(ValueError):
        effective_retention_ratio([16], [-1])
    with pytest.raises(ValueError):
        effective_retention_ratio([16, 64], [32])


def test_compression_ratio_reference_points():
    assert compression_ratio(524, 32, 3) == 18.3
    assert compression_ratio(942, 32, 3) == 10.2
    assert compression_ratio(96, 32, 3) == 100.0


def test_compression_ratio_covers_all_benchmarks():
    expected = {
        "GSM8K": 18.3,
        "AIME24": 14.5,
        "AIME25": 11.7,
        "GPQA": 10.2,
        "ARC-E": 19.4,
        "ARC-C": 18.3,
        "MBPP+": 12.3,
        "HumanEval+": 11.6,
        "MedQA": 10.8,
    }
    for name, total in BENCHMARK_PROMPT_LENGTHS.items():
        assert compression_ratio(total, 32, 3) == expected[name]


def test_compression_ratio_validation():
    with pytest.raises(ZeroLength):
        compression_ratio(0, 32, 3)
    with pytest.raises(ValueError):
        compression_ratio(524, 32, 0)
    with pytest.raises(ValueError):
        compression_ratio(2, 32, 3)


def test_h2o_chain_matches_reference_arithmetic():
    message, report = run_chain(episode_source(EpisodeSpec()), default_chain("h2o"))
    assert [row.message_len for row in report.rounds] == [76, 148, 220]
    assert report.final_message_len == 220
    assert message.cache.num_tokens == 220
    assert report.sink_len == 4
    assert all(row.kept_prompt == 32 for row in report.rounds)
    assert report.relayed_prompt_tokens == 96
    assert report.total_prompt_len == 524
    assert report.rho_achieved == pytest.approx(96 / 524)
    assert report.r_eff == pytest.approx((32 / 180 + 32 / 160 + 32 / 184) / 3)


def test_streaming_chain_keeps_sink_and_generation():
    _, report = run_chain(episode_source(EpisodeSpec()), default_chain("streaming"))
    assert report.final_message_len == 124
    assert report.relayed_prompt_tokens == 0
    assert report.rho_achieved == 0.0
    assert report.r_eff == 0.0


def test_full_chain_relays_every_state():
    _, report = run_chain(episode_source(EpisodeSpec()), default_chain("full"))
    assert report.final_message_len == 644
    # round 1 carves the 4 sink rows out of the 180-row prompt block, and
    # those rows count toward the prompt total but not the retained count
    assert report.relayed_prompt_tokens == 520
    assert report.rho_achieved == 520 / 524
    assert report.rho_all_states == 1.0
    assert report.r_eff == 1.0


def test_backfill_skips_entirely_when_budget_spans_value_space():
    # 32 retained gaussian rows span all 16 value dimensions, so every
    # (layer, head, round) takes the skip path and the caches match bitwise
    spec = EpisodeSpec()
    plain_msg, plain = run_chain(episode_source(spec), default_chain("h2o"))
    backed_msg, backed = run_chain(episode_source(spec), default_chain("h2o_obf"))
    assert backed.obf_units == 2 * 2 * 3
    assert backed.obf_skip_rate == 1.0
    assert np.array_equal(plain_msg.cache.values, backed_msg.cache.values)
    assert plain.final_message_len == backed.final_message_len


def test_backfill_active_when_budget_below_value_dim():
    spec = small_spec()
    plain_msg, plain = run_chain(episode_source(spec), small_chain("h2o"))
    backed_msg, backed = run_chain(episode_source(spec), small_chain("h2o_obf"))
    assert backed.obf_units == 2 * 2 * 3
    assert backed.obf_skip_rate == 0.0
    assert np.array_equal(plain_msg.cache.keys, backed_msg.cache.keys)
    assert plain_msg.cache.positions == backed_msg.cache.positions
    assert not np.array_equal(plain_msg.cache.values, backed_msg.cache.values)
    assert plain.final_message_len == backed.final_message_len


@pytest.mark.parametrize("method,granularity", METHOD_CONFIGS)
def test_message_recursion_invariant(method, granularity):
    spec = small_spec()
    _, report = run_chain(episode_source(spec), small_chain(method, granularity))
    prev = report.sink_len
    for row in report.rounds:
        assert row.message_len == prev + row.kept_prompt + row.gen_len
        prev = row.message_len
    assert report.final_message_len == prev


def test_granularity_labels_keep_and_backfill_identically():
    # 4 layers x 4 kv heads; budget 6 < value_dim 10 keeps backfill active.
    active = 0
    for seed in range(20):
        spec = small_spec(
            seed=seed, num_layers=4, num_kv_heads=4, kv_group_size=1, value_dim=10,
            prompt_lens=(20, 16, 18),
        )
        runs = []
        for granularity in (GLOBAL, LAYERWISE, HEADWISE):
            message, report = run_chain(
                episode_source(spec), small_chain("h2o_obf", granularity, budget_k=6)
            )
            doc = report.to_dict(verbosity=2)
            assert doc.pop("granularity") == granularity
            runs.append((message, doc))
        (first, first_doc), rest = runs[0], runs[1:]
        for message, doc in rest:
            assert message.rounds == first.rounds  # same keep sets
            assert caches_equal(message.cache, first.cache)
            assert doc == first_doc  # same OBF traces, vectors included
        active += first_doc["obf"]["units"] - first_doc["obf"]["skipped"]
    assert active > 0


def test_generation_segments_identical_across_methods():
    spec = small_spec()
    segments = []
    for method, granularity in METHOD_CONFIGS:
        message, _ = run_chain(episode_source(spec), small_chain(method, granularity))
        segments.append(tuple(record.generation for record in message.rounds))
    assert all(seg == segments[0] for seg in segments)


def test_inherited_history_passes_through_unchanged():
    spec = small_spec()
    source = episode_source(spec)
    chain2 = ChainConfig(num_agents=2, latent_steps=4, compression=small_chain().compression)
    chain3 = ChainConfig(num_agents=3, latent_steps=4, compression=small_chain().compression)
    m2, _ = run_chain(source, chain2)
    m3, _ = run_chain(source, chain3)
    t = m2.cache.num_tokens
    assert m3.cache.positions[:t] == m2.cache.positions
    assert np.array_equal(m3.cache.keys[:, :, :t, :], m2.cache.keys)
    assert np.array_equal(m3.cache.values[:, :, :t, :], m2.cache.values)


def test_budget_ratio_scales_with_eligible_prompt():
    spec = small_spec(prompt_lens=(12, 9, 10))
    chain = small_chain("h2o", budget_k=None, budget_ratio=0.5)
    _, report = run_chain(episode_source(spec), chain)
    # round 1 eligible = 12 - sink 2 = 10 -> k = 5; then 9 -> 4 (round .5 to even), 10 -> 5
    assert [row.kept_prompt for row in report.rounds] == [5, 4, 5]
    assert report.relayed_prompt_tokens == 14


def test_report_document_layout():
    _, report = run_chain(episode_source(small_spec()), small_chain("h2o_obf"))
    doc = report.to_dict()
    assert set(doc) == {"method", "granularity", "rounds", "totals", "obf"}
    assert set(doc["rounds"][0]) == {"round", "prompt_len", "kept_prompt", "gen_len", "message_len"}
    assert set(doc["totals"]) == {
        "sink_len",
        "total_prompt_len",
        "total_gen_len",
        "relayed_prompt_tokens",
        "final_message_len",
        "rho_achieved",
        "rho_all_states",
        "r_eff",
    }
    assert set(doc["obf"]) == {"units", "skipped", "skip_rate"}
    verbose = report.to_dict(verbosity=1)
    assert len(verbose["obf"]["per_round"]) == 3
    assert "injection" not in verbose["obf"]["per_round"][0]["units"][0]
    full = report.to_dict(verbosity=2)
    assert "injection" in full["obf"]["per_round"][0]["units"][0]


def test_report_csv_rows():
    _, report = run_chain(episode_source(small_spec()), small_chain())
    rows = report.csv_rows()
    assert rows[0] == ["round", "prompt_len", "kept_prompt", "gen_len", "message_len", "rho_achieved", "r_eff"]
    assert len(rows) == 1 + 3 + 1
    assert rows[-1][0] == "totals"
    assert rows[-1][5] == report.rho_achieved


def test_message_lengths_never_shrink():
    for method, granularity in METHOD_CONFIGS:
        _, report = run_chain(episode_source(small_spec()), small_chain(method, granularity))
        lens = [row.message_len for row in report.rounds]
        assert lens == sorted(lens)
        assert 0.0 <= report.rho_achieved <= 1.0
