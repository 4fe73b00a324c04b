"""Chain driver, message recursion arithmetic and retention metrics."""

import dataclasses

import numpy as np
import pytest

from kvrelay.backbone import EpisodeRound, EpisodeSpec, episode_source
from kvrelay import relay
from kvrelay.compress import EVICTION_METHODS, METHODS, CompressionConfig, compress
from kvrelay.errors import ChainEmpty, EmptyList, PositionOverlap, ZeroLength
from kvrelay.kv import KvCache, caches_equal, decompose
from kvrelay.relay import (
    BENCHMARK_PROMPT_LENGTHS,
    ChainConfig,
    compression_ratio,
    effective_retention_ratio,
    run_chain,
)
from kvrelay.scoring import GLOBAL, HEADWISE, LAYERWISE, AttentionRecord

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


def record_lists(message):
    """Each round record of ``message`` as plain Python values."""
    return [(r.kept_prompt.tolist(), r.generation.tolist()) for r in message.rounds]


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
    assert effective_retention_ratio([8], [10**400]) == 1.0  # past float range, still clipped to the prompt


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
    assert np.array_equal(plain_msg.cache.positions, backed_msg.cache.positions)
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
            assert record_lists(message) == record_lists(first)  # same keep sets
            assert caches_equal(message.cache, first.cache)
            assert doc == first_doc  # same OBF traces, vectors included
        active += first_doc["obf"]["units"] - first_doc["obf"]["skipped"]
    assert active > 0


def test_generation_segments_identical_across_methods():
    spec = small_spec()
    segments = []
    for method, granularity in METHOD_CONFIGS:
        message, _ = run_chain(episode_source(spec), small_chain(method, granularity))
        segments.append([record.generation.tolist() for record in message.rounds])
    assert all(seg == segments[0] for seg in segments)


def test_inherited_history_passes_through_unchanged():
    spec = small_spec()
    source = episode_source(spec)
    chain2 = ChainConfig(num_agents=2, latent_steps=4, compression=small_chain().compression)
    chain3 = ChainConfig(num_agents=3, latent_steps=4, compression=small_chain().compression)
    m2, _ = run_chain(source, chain2)
    m3, _ = run_chain(source, chain3)
    t = m2.cache.num_tokens
    assert np.array_equal(m3.cache.positions[:t], m2.cache.positions)
    assert np.array_equal(m3.cache.keys[:, :, :t, :], m2.cache.keys)
    assert np.array_equal(m3.cache.values[:, :, :t, :], m2.cache.values)


def test_budget_ratio_scales_with_eligible_prompt():
    spec = small_spec(prompt_lens=(12, 9, 10))
    chain = small_chain("h2o", budget_k=None, budget_ratio=0.5)
    _, report = run_chain(episode_source(spec), chain)
    # round 1 eligible = 12 - sink 2 = 10 -> k = 5; then 9 -> 4 (round .5 to even), 10 -> 5
    assert [row.kept_prompt for row in report.rounds] == [5, 4, 5]
    assert report.relayed_prompt_tokens == 14


@pytest.mark.parametrize("method", EVICTION_METHODS)
def test_r_eff_reads_the_round_budget_not_the_kept_count(method):
    # round 1 has 6 eligible positions (10 minus a sink of 4), fewer than budget_k 8
    spec = small_spec(prompt_lens=(10, 12), gen_len=2)
    for budget, kept, r_eff in (
        (dict(budget_k=8), [6, 8], (8 / 10 + 8 / 12) / 2),
        (dict(budget_k=None, budget_ratio=0.5), [3, 6], (3 / 10 + 6 / 12) / 2),
    ):
        compression = CompressionConfig(method=method, sink_size=4, **budget)
        _, report = run_chain(episode_source(spec), ChainConfig(num_agents=2, latent_steps=2, compression=compression))
        assert [row.kept_prompt for row in report.rounds] == kept
        assert report.r_eff == r_eff


@pytest.mark.parametrize("method", METHODS)
def test_message_keeps_the_round_records_compress_returns(method, monkeypatch):
    records = []

    def recording_compress(*args):
        block, record, trace = compress(*args)
        records.append(record)
        return block, record, trace

    monkeypatch.setattr(relay, "compress", recording_compress)
    message, report = run_chain(episode_source(small_spec()), small_chain(method))
    assert len(records) == len(message.rounds) == 3
    for i, record in enumerate(records):
        assert message.rounds[i] is record
        assert report.rounds[i].kept_prompt == len(record.kept_prompt)


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


@pytest.mark.parametrize("sink_size", range(4))
@pytest.mark.parametrize("method", METHODS)
def test_message_is_the_first_sink_then_each_round_in_order(method, sink_size):
    source = episode_source(small_spec())
    chain = small_chain(method, sink_size=sink_size)
    message, _ = run_chain(source, chain)
    first_sink, _ = decompose(None, source(1), sink_size)
    assert np.array_equal(message.sink, first_sink)
    parts = [message.sink] + [part for r in message.rounds for part in (r.kept_prompt, r.generation)]
    assert np.array_equal(message.cache.positions, np.concatenate(parts))
    for round_i in (2, 3):
        earlier, _ = run_chain(source, dataclasses.replace(chain, num_agents=round_i - 1))
        sink, eligible = decompose(earlier, source(round_i), sink_size)
        assert sink.size == 0
        assert np.array_equal(eligible, source(round_i).prompt)


def hand_round(prompt, generation, hot):
    """A one-head round whose generation rows attend only to the ``hot`` prompt positions."""
    prompt, generation = list(prompt), list(generation)
    rng = np.random.default_rng(len(prompt))
    shape = (1, 1, len(prompt) + len(generation), 4)
    cache = KvCache(keys=rng.standard_normal(shape), values=rng.standard_normal(shape), positions=prompt + generation)
    weights = np.zeros((1, 1, len(generation), len(prompt)))
    weights[..., [prompt.index(pos) for pos in hot]] = 1.0 / len(hot)
    attention = AttentionRecord(weights=weights, gen_positions=generation, columns=prompt, kv_group_size=1)
    return EpisodeRound(cache=cache, prompt=prompt, generation=generation, attention=attention)


@pytest.mark.parametrize("hot", [(5,), (28, 29)], ids=["reused_hot", "reused_cold"])
@pytest.mark.parametrize("method", METHODS)
def test_round_reusing_an_earlier_position_fails_for_every_method(method, hot):
    """Round 2 reuses position 5, which round 1 relays under full and evicts under the others."""
    rounds = (
        hand_round(range(10), (10, 11), hot=(8, 9)),
        hand_round([5, *range(20, 30)], (30, 31), hot=hot),
    )
    comp = CompressionConfig(method=method, budget_k=2, sink_size=2)
    chain = ChainConfig(num_agents=2, latent_steps=2, compression=comp)
    with pytest.raises(PositionOverlap) as err:
        run_chain(lambda round_i: rounds[round_i - 1], chain)
    assert str(err.value) == "round starts at 5 but the message ends at 11"
