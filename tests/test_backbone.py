import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from kvrelay import backbone
from kvrelay.backbone import (
    EpisodeRound,
    EpisodeSpec,
    episode_source,
    generate_episode,
    tiny_attention_forward,
)
from kvrelay.compress import obf_residual
from kvrelay.errors import DimensionMismatch, EmptyInput, RoundMismatch
from kvrelay.kv import KvCache, caches_equal, select
from kvrelay.linalg import orthonormal_basis
from kvrelay.scoring import AttentionRecord


def test_spec_defaults():
    spec = EpisodeSpec()
    assert spec.prompt_lens == (180, 160, 184)
    assert sum(spec.prompt_lens) == 524
    assert spec.gen_len == 40
    assert spec.num_rounds == 3
    assert spec.num_query_heads == 4


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(seed=-1),
        dict(seed=2**64),
        dict(num_layers=0),
        dict(kv_group_size=0),
        dict(prompt_lens=()),
        dict(prompt_lens=(10, 0)),
        dict(gen_len=0),
        dict(value_structure="sparse"),
        dict(value_structure="planted_in_span"),
        dict(value_rank=0),
        dict(num_layers=10**20),
        dict(key_dim=10**20),
        dict(kv_group_size=10**20),
        dict(prompt_lens=(10**20,)),
        dict(gen_len=10**20),
        dict(num_kv_heads=2**30, value_dim=2**30),
    ],
)
def test_spec_rejects_bad_fields(kwargs):
    with pytest.raises(ValueError):
        EpisodeSpec(**kwargs)


def test_forward_single_key_gives_unit_rows():
    weights = tiny_attention_forward(np.ones((1, 4)), np.random.default_rng(0).standard_normal((3, 4)), 0.5)
    assert np.array_equal(weights, np.ones((3, 1)))


def test_forward_identical_keys_give_uniform_rows():
    keys = np.tile(np.array([[1.0, 2.0, 3.0]]), (5, 1))
    weights = tiny_attention_forward(keys, np.ones((2, 3)), 0.7)
    assert np.allclose(weights, 0.2, atol=1e-15)


def test_forward_zero_scale_gives_uniform_rows():
    rng = np.random.default_rng(1)
    weights = tiny_attention_forward(rng.standard_normal((4, 6)), rng.standard_normal((3, 6)), 0.0)
    assert np.allclose(weights, 0.25, atol=1e-15)


def test_forward_rows_are_stochastic():
    rng = np.random.default_rng(2)
    weights = tiny_attention_forward(
        rng.standard_normal((9, 5)), rng.standard_normal((7, 5)), 0.4
    )
    assert weights.min() >= 0.0
    assert np.abs(weights.sum(axis=1) - 1.0).max() <= 1e-12


def test_forward_validates_shapes():
    with pytest.raises(DimensionMismatch):
        tiny_attention_forward(np.ones((2, 3)), np.ones((2, 4)), 1.0)
    with pytest.raises(DimensionMismatch):
        tiny_attention_forward(np.ones(3), np.ones((2, 3)), 1.0)
    with pytest.raises(EmptyInput):
        tiny_attention_forward(np.ones((0, 3)), np.ones((2, 3)), 1.0)


def small_spec(**overrides):
    fields = dict(
        seed=12,
        num_layers=2,
        num_kv_heads=2,
        kv_group_size=2,
        key_dim=6,
        value_dim=8,
        prompt_lens=(9, 7, 8),
        gen_len=4,
    )
    fields.update(overrides)
    return EpisodeSpec(**fields)


def test_episode_generation_is_pure():
    spec = small_spec()
    a = generate_episode(spec, 2)
    b = generate_episode(spec, 2)
    assert caches_equal(a.cache, b.cache)
    assert np.array_equal(a.attention.weights, b.attention.weights)
    assert np.array_equal(a.prompt, b.prompt) and np.array_equal(a.generation, b.generation)
    # a second spec object with the same field values behaves identically
    c = generate_episode(small_spec(), 2)
    assert caches_equal(a.cache, c.cache)


def test_episode_positions_are_contiguous_across_rounds():
    spec = small_spec()
    r1 = generate_episode(spec, 1)
    r2 = generate_episode(spec, 2)
    r3 = generate_episode(spec, 3)
    assert r1.prompt.tolist() == list(range(0, 9))
    assert r1.generation.tolist() == list(range(9, 13))
    assert r2.prompt.tolist() == list(range(13, 20))
    assert r2.generation.tolist() == list(range(20, 24))
    assert r3.prompt.tolist() == list(range(24, 32))
    assert np.array_equal(r3.cache.positions, np.concatenate([r3.prompt, r3.generation]))


def test_episode_round_bounds():
    spec = small_spec()
    with pytest.raises(ValueError):
        generate_episode(spec, 0)
    with pytest.raises(ValueError):
        generate_episode(spec, 4)


def test_rounds_and_seeds_produce_distinct_draws():
    spec = small_spec()
    r1 = generate_episode(spec, 1)
    r2 = generate_episode(spec, 2)
    assert not np.array_equal(r1.cache.keys[:, :, :7, :], r2.cache.keys[:, :, :7, :])
    other = generate_episode(small_spec(seed=13), 1)
    assert not np.array_equal(r1.cache.keys, other.cache.keys)


def test_attention_is_consistent_with_keys():
    spec = small_spec()
    ep = generate_episode(spec, 1)
    attn = ep.attention
    assert np.array_equal(attn.gen_positions, ep.generation)
    assert np.array_equal(attn.columns, ep.prompt)
    assert attn.weights.shape == (2, 4, 4, 9)
    # recompute one (layer, query head) from the cache and compare
    keys = ep.cache.keys[1, 1, : len(ep.prompt), :]
    mass = oracles.headwise_mass(
        attn.weights, list(range(4)), list(range(9)), spec.kv_group_size
    )
    assert mass.shape == (2, 2, 9)
    assert np.allclose(mass.sum(axis=2), spec.kv_group_size * 4, atol=1e-9)
    assert keys.shape == (9, 6)


def test_gaussian_values_fill_the_value_space():
    ep = generate_episode(small_spec(value_dim=6, prompt_lens=(12,)), 1)
    for layer in range(2):
        for head in range(2):
            assert orthonormal_basis(ep.cache.values[layer, head]).shape[1] == 6


def test_low_rank_values_have_bounded_rank():
    spec = small_spec(value_structure="low_rank", value_rank=2, value_dim=8)
    ep = generate_episode(spec, 1)
    for layer in range(spec.num_layers):
        for head in range(spec.num_kv_heads):
            assert orthonormal_basis(ep.cache.values[layer, head]).shape[1] <= 2
            assert oracles.svd_rank(ep.cache.values[layer, head]) <= 2


def test_low_rank_values_make_backfill_residual_negligible():
    spec = small_spec(value_structure="low_rank", value_rank=3, prompt_lens=(10, 9, 8))
    ep = generate_episode(spec, 1)
    values = ep.cache.values[0, 1]
    v_keep, v_del = values[:5], values[5:]
    _, residual = obf_residual(v_keep, v_del)
    assert np.linalg.norm(residual) <= 1e-8 * (1.0 + np.linalg.norm(v_del))


def test_source_wraps_generation():
    spec = small_spec()
    source = episode_source(spec)
    assert caches_equal(source(3).cache, generate_episode(spec, 3).cache)


@given(seed=st.integers(0, 2**64 - 1), round_i=st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_generated_attention_rows_normalize(seed, round_i):
    spec = small_spec(seed=seed, prompt_lens=(6, 5, 7), gen_len=3)
    ep = generate_episode(spec, round_i)
    sums = ep.attention.weights.sum(axis=3)
    assert np.abs(sums - 1.0).max() <= 1e-12


# --- one softmax pass per round ---------------------------------------------


def _reference_round(spec, round_i):
    """The generator as one 2-D softmax per (layer, query head): draws, keys,
    values and weights, built without the library's stacked softmax."""

    def draws(stream, shape):
        bits = np.random.Philox(key=spec.seed, counter=[stream, round_i, 0, 0])
        return np.random.Generator(bits).standard_normal(shape)

    prompt_len = spec.prompt_lens[round_i - 1]
    tokens = prompt_len + spec.gen_len
    layers, heads = spec.num_layers, spec.num_kv_heads
    keys = draws(0, (layers, heads, tokens, spec.key_dim))
    if spec.value_structure == "gaussian":
        values = draws(1, (layers, heads, tokens, spec.value_dim))
    else:
        rank = min(spec.value_rank, spec.value_dim, tokens)
        coeff = draws(1, (layers, heads, tokens, rank))
        basis = draws(2, (layers, heads, rank, spec.value_dim))
        values = np.einsum("lhtr,lhrd->lhtd", coeff, basis)
    queries = draws(3, (layers, spec.num_query_heads, spec.gen_len, spec.key_dim))
    scale = 1.0 / np.sqrt(spec.key_dim)
    weights = np.empty((layers, spec.num_query_heads, spec.gen_len, prompt_len))
    for layer in range(layers):
        for q_head in range(spec.num_query_heads):
            k = keys[layer, q_head // spec.kv_group_size, :prompt_len, :]
            logits = float(scale) * (queries[layer, q_head] @ k.T)
            logits -= logits.max(axis=1, keepdims=True)
            w = np.exp(logits)
            w /= w.sum(axis=1, keepdims=True)
            weights[layer, q_head] = w
    return keys, values, weights


@pytest.mark.parametrize("key_dim", [7, 8])
@pytest.mark.parametrize("group", [3, 4])
@pytest.mark.parametrize("structure", ["gaussian", "low_rank"])
@pytest.mark.parametrize("prompt_lens", [(1, 5), (11, 1)])
def test_generation_matches_per_head_softmax_bit_for_bit(key_dim, group, structure, prompt_lens):
    spec = small_spec(
        seed=2**63 + key_dim * group,
        kv_group_size=group,
        key_dim=key_dim,
        value_structure=structure,
        value_rank=3,
        prompt_lens=prompt_lens,
        gen_len=9,
    )
    for round_i in (1, 2):
        ep = generate_episode(spec, round_i)
        keys, values, weights = _reference_round(spec, round_i)
        assert np.array_equal(ep.cache.keys, keys)
        assert np.array_equal(ep.cache.values, values)
        assert np.array_equal(ep.attention.weights, weights)


def test_generated_arrays_are_frozen_and_not_copied(monkeypatch):
    made = []

    def forward(*args):
        made.append(tiny_attention_forward(*args))
        return made[-1]

    monkeypatch.setattr(backbone, "tiny_attention_forward", forward)
    ep = generate_episode(small_spec(), 1)
    assert len(made) == 1 and ep.attention.weights is made[0]
    for arr in (ep.cache.keys, ep.cache.values, ep.attention.weights):
        assert arr.base is None
        assert not arr.flags.writeable


def test_forward_stacked_heads_equal_per_head_calls():
    rng = np.random.default_rng(3)
    keys = rng.standard_normal((2, 2, 9, 7))
    queries = rng.standard_normal((2, 6, 4, 7))
    weights = tiny_attention_forward(keys, queries, 0.3)
    assert weights.shape == (2, 6, 4, 9)
    for layer in range(2):
        for head in range(6):
            one = tiny_attention_forward(keys[layer, head // 3], queries[layer, head], 0.3)
            assert np.array_equal(weights[layer, head], one)


def test_forward_validates_head_axes():
    with pytest.raises(DimensionMismatch):
        tiny_attention_forward(np.ones((2, 3, 4)), np.ones((3, 4)), 1.0)  # ndim differs
    with pytest.raises(DimensionMismatch):
        tiny_attention_forward(np.ones((2, 3, 4)), np.ones((3, 2, 4)), 1.0)  # 3 heads over 2
    with pytest.raises(DimensionMismatch):
        tiny_attention_forward(np.ones((2, 1, 3, 4)), np.ones((1, 2, 2, 4)), 1.0)  # layers differ
    with pytest.raises(EmptyInput):
        tiny_attention_forward(np.ones((2, 0, 4)), np.ones((2, 2, 4)), 1.0)


def test_episode_round_checks_its_labels():
    ep = generate_episode(small_spec(), 1)
    prompt, generation = ep.prompt, ep.generation

    def rebuilt(**fields):
        return EpisodeRound(**{"cache": ep.cache, "prompt": prompt, "generation": generation,
                               "attention": ep.attention, **fields})

    # a cache may hold positions beyond the prompt and generation
    wider = KvCache(
        keys=np.concatenate([ep.cache.keys, ep.cache.keys[:, :, :1]], axis=2),
        values=np.concatenate([ep.cache.values, ep.cache.values[:, :, :1]], axis=2),
        positions=ep.cache.positions.tolist() + [99],
    )
    assert rebuilt(cache=wider).cache is wider
    with pytest.raises(RoundMismatch, match="columns"):
        rebuilt(prompt=prompt[1:])
    with pytest.raises(RoundMismatch, match="rows"):
        rebuilt(generation=generation[:-1])
    with pytest.raises(RoundMismatch, match=f"position {prompt[3]} is not in the cache"):
        rebuilt(cache=select(ep.cache, np.concatenate([prompt[:3], prompt[4:], generation])))
    overlap = AttentionRecord(
        weights=ep.attention.weights,
        gen_positions=np.concatenate([prompt[-1:], generation[1:]]),
        columns=prompt,
        kv_group_size=ep.attention.kv_group_size,
    )
    with pytest.raises(RoundMismatch, match=f"generation position {prompt[-1]} does not follow prompt position {prompt[-1]}"):
        rebuilt(generation=overlap.gen_positions, attention=overlap)

    # each round below has attention labels that match its prompt and generation;
    # its weights are either all of the round's or none
    def relabelled(new_prompt, new_generation):
        attention = AttentionRecord(
            weights=ep.attention.weights[:, :, : len(new_generation), : len(new_prompt)],
            gen_positions=new_generation,
            columns=new_prompt,
            kv_group_size=ep.attention.kv_group_size,
        )
        return rebuilt(prompt=new_prompt, generation=new_generation, attention=attention)

    with pytest.raises(RoundMismatch, match="empty prompt"):
        relabelled(prompt[:0], generation)
    with pytest.raises(RoundMismatch, match="empty generation"):
        relabelled(prompt, generation[:0])
    # the same cache positions, generation labelled first
    early, late = ep.cache.positions[: len(generation)], ep.cache.positions[len(generation):]
    with pytest.raises(RoundMismatch, match=f"generation position {early[0]} does not follow prompt position {late[-1]}"):
        relabelled(late, early)


def test_episode_round_checks_the_attention_layout_against_the_cache():
    ep = generate_episode(small_spec(), 1)  # 2 layers x 2 kv heads, 2 query heads per kv head
    attention = ep.attention

    def rebuilt(weights, kv_group_size):
        record = AttentionRecord(
            weights=weights, gen_positions=attention.gen_positions,
            columns=attention.columns, kv_group_size=kv_group_size,
        )
        return EpisodeRound(cache=ep.cache, prompt=ep.prompt, generation=ep.generation, attention=record)

    assert rebuilt(attention.weights, 2).attention.num_kv_heads == 2
    with pytest.raises(RoundMismatch, match=r"^attention has 1 layers x 2 kv heads, the cache 2 x 2$"):
        rebuilt(attention.weights[:1], 2)
    with pytest.raises(RoundMismatch, match=r"^attention has 3 layers x 2 kv heads, the cache 2 x 2$"):
        rebuilt(np.concatenate([attention.weights, attention.weights[:1]]), 2)
    for group, kv_heads in ((1, 4), (4, 1)):
        with pytest.raises(RoundMismatch, match=rf"^attention has 2 layers x {kv_heads} kv heads, the cache 2 x 2$"):
            rebuilt(attention.weights, group)
