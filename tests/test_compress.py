"""Compression methods: eviction, value backfill, and their kernels."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from kvrelay.backbone import EpisodeRound, EpisodeSpec, generate_episode
from kvrelay.compress import (
    CompressionConfig,
    ObfTrace,
    _orthogonal_backfill,
    compress,
    h2o_select,
    obf_residual,
)
from kvrelay import compress as compress_module, linalg
from kvrelay.errors import BudgetUnset, EmptyKeep
from kvrelay.kv import KvCache, decompose, index_array, select
from kvrelay.linalg import orthonormal_basis, principal_subspace, project_out
from kvrelay.scoring import (
    GLOBAL,
    HEADWISE,
    LAYERWISE,
    AttentionRecord,
    attention_mass_headwise,
    demand_sums,
)


def one_round(sink_size=0, **spec_overrides):
    fields = dict(
        seed=3,
        num_layers=1,
        num_kv_heads=1,
        kv_group_size=1,
        key_dim=5,
        value_dim=12,
        prompt_lens=(6,),
        gen_len=3,
    )
    fields.update(spec_overrides)
    ep = generate_episode(EpisodeSpec(**fields), 1)
    return (ep, *decompose(None, ep, sink_size))


# --- configuration ---------------------------------------------------------


def test_config_defaults_are_valid():
    cfg = CompressionConfig()
    assert cfg.method == "h2o"
    assert cfg.budget_k == 32
    assert cfg.pca_rank == 8
    assert cfg.epsilon == 1e-12
    assert cfg.sink_size == 4


@pytest.mark.parametrize("method", ["h2o", "h2o_obf"])
def test_eviction_methods_need_exactly_one_budget(method):
    with pytest.raises(BudgetUnset):
        CompressionConfig(method=method, budget_k=None, budget_ratio=None)
    with pytest.raises(BudgetUnset):
        CompressionConfig(method=method, budget_k=8, budget_ratio=0.5)
    CompressionConfig(method=method, budget_k=None, budget_ratio=0.5)  # ok


def test_non_eviction_methods_ignore_budget_rule():
    CompressionConfig(method="full", budget_k=None, budget_ratio=None)
    CompressionConfig(method="streaming", budget_k=None, budget_ratio=None)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(method="evict_all"),
        dict(granularity="tokenwise"),
        dict(budget_k=-1),
        dict(budget_k=None, budget_ratio=1.5),
        dict(budget_k=None, budget_ratio=0.0),
        dict(pca_rank=0),
        dict(epsilon=0.0),
        dict(sink_size=-1),
    ],
)
def test_config_rejects_bad_fields(kwargs):
    with pytest.raises(ValueError):
        CompressionConfig(**kwargs)


def test_round_budget_fixed_and_ratio():
    assert CompressionConfig(budget_k=32).round_budget(500) == 32
    ratio = CompressionConfig(budget_k=None, budget_ratio=0.25)
    assert ratio.round_budget(200) == 50
    assert ratio.round_budget(176) == 44
    # tiny eligible sets still retain at least one state
    assert CompressionConfig(budget_k=None, budget_ratio=0.1).round_budget(5) == 1
    # methods that evict nothing by budget have none, whatever is set
    assert CompressionConfig(method="full", budget_k=32).round_budget(500) == 0
    assert CompressionConfig(method="streaming", budget_k=None).round_budget(500) == 0


def test_package_attribute_compress_names_the_submodule():
    import kvrelay.compress as module

    assert module is compress_module and module.__name__ == "kvrelay.compress"
    assert module.compress is compress and module.CompressionConfig is CompressionConfig


# --- selection --------------------------------------------------------------


def global_select(scores, k):
    """h2o_select over one unit whose masses are ``scores`` (position -> mass)."""
    positions = sorted(scores)
    return h2o_select(np.array([[[scores[p] for p in positions]]]), k, positions)


def evicted(eligible, kept) -> np.ndarray:
    """The ``eligible`` positions not in ``kept``, in order, as int64."""
    eligible = np.asarray(eligible, dtype=np.int64)
    return eligible[~np.isin(eligible, kept)]


def test_select_keeps_highest_mass_with_tie_toward_lower():
    keep = global_select({4: 0.9, 5: 0.1, 6: 0.5, 7: 0.5}, 2)
    assert keep.tolist() == [4, 6]
    assert evicted([4, 5, 6, 7], keep).tolist() == [5, 7]


def test_select_all_zero_masses_uses_position_cascade():
    assert global_select({p: 0.0 for p in range(4, 10)}, 2).tolist() == [4, 5]


def test_select_without_pressure_deletes_nothing():
    keep = global_select({4: 0.9, 5: 0.1}, 2)
    assert keep.tolist() == [4, 5]
    assert evicted([4, 5], keep).tolist() == []


def test_select_packs_unit_rankings_by_summing():
    # two layers, one kv head each
    keep = h2o_select(np.array([[[0.9, 0.1]], [[0.2, 0.8]]]), 1, (1, 2))
    assert keep.tolist() == [1]  # 1.1 beats 0.9 on the summed ranking
    assert evicted((1, 2), keep).tolist() == [2]


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_selection_budget_is_exact(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 25))
    eligible = tuple(sorted(rng.choice(100, size=n, replace=False).tolist()))
    scores = {p: float(rng.integers(0, 4)) for p in eligible}
    k = int(rng.integers(0, n + 4))
    keep = global_select(scores, k)
    assert len(keep) == min(k, n)
    assert tuple(sorted(keep.tolist() + evicted(eligible, keep).tolist())) == eligible
    assert tuple(keep.tolist()) == oracles.topk(scores, k, eligible)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_select_deleted_set_matches_set_loop(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    positions = tuple(sorted(rng.choice(500, size=n, replace=False).tolist()))
    masses = rng.integers(0, 3, size=(int(rng.integers(1, 3)), 2, n)).astype(float)
    keep = h2o_select(masses, int(rng.integers(0, n + 3)), positions)
    keep_set = set(keep.tolist())
    deleted = evicted(positions, keep)
    assert deleted.tolist() == [pos for pos in positions if pos not in keep_set]
    assert keep.dtype == deleted.dtype == np.int64


# --- backfill kernels and formula -----------------------------------------


def hand_round(prompt_values, masses, budget_k):
    """Run ``h2o_obf`` on a one-layer round whose prompt values and masses are given.

    ``prompt_values[h]`` holds kv head ``h``'s (P, d) prompt value rows (at
    positions 0..P-1) and ``masses[h]`` the mass each prompt position gets
    through that head from one generation step, so each row of ``masses``
    sums to 1. Returns (the local cache, the compressed block, its trace, cfg).
    """
    prompt_values = np.asarray(prompt_values, dtype=np.float64)
    heads, p, d = prompt_values.shape
    gen_row = np.zeros((heads, 1, d))
    values = np.concatenate([prompt_values, gen_row], axis=1)[None]
    local = KvCache(keys=np.zeros((1, heads, p + 1, 1)), values=values, positions=range(p + 1))
    attn = AttentionRecord(
        weights=np.asarray(masses, dtype=np.float64)[None, :, None, :],
        gen_positions=(p,), columns=range(p), kv_group_size=1,
    )
    episode = EpisodeRound(cache=local, prompt=range(p), generation=(p,), attention=attn)
    cfg = CompressionConfig(method="h2o_obf", budget_k=budget_k, sink_size=0)
    block, _, trace = compress(episode, (), range(p), cfg)
    return local, block, trace, cfg


# Kept rows e1, e2 (positions 0, 1); deleted rows 2 e3 and e1 + e3, whose
# residual is [[0, 0, 2], [0, 0, 1]]. Head 0 gives the deleted rows masses
# 0.15 and 0.05 (weights 3/4 and 1/4), head 1 gives them none.
HAND_VALUES = [[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0], [1.0, 0.0, 1.0]]] * 2
HAND_MASSES = [[0.4, 0.4, 0.15, 0.05], [0.5, 0.5, 0.0, 0.0]]


def test_residual_removes_retained_span():
    q, residual = obf_residual(
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [[0.0, 0.0, 2.0], [1.0, 0.0, 1.0]]
    )
    assert q.shape == (3, 2)
    assert np.allclose(residual, [[0.0, 0.0, 2.0], [0.0, 0.0, 1.0]], atol=1e-12)


def test_residual_of_in_span_rows_is_zero():
    v_keep = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0]])
    v_del = np.array([2.0 * v_keep[0] - v_keep[1]])
    _, residual = obf_residual(v_keep, v_del)
    assert np.linalg.norm(residual) <= 1e-12


def test_residual_with_full_rank_keep_is_zero():
    rng = np.random.default_rng(5)
    v_keep = rng.standard_normal((6, 4))  # rank 4 = full width
    v_del = rng.standard_normal((3, 4))
    _, residual = obf_residual(v_keep, v_del)
    assert np.linalg.norm(residual) <= 1e-10 * (1.0 + np.linalg.norm(v_del))


def test_residual_requires_retained_rows():
    with pytest.raises(EmptyKeep):
        obf_residual(np.zeros((0, 3)), np.ones((1, 3)))


def test_summary_weights_rows_by_mass():
    _, _, trace, _ = hand_round(HAND_VALUES, HAND_MASSES, budget_k=2)
    assert not trace.skipped[0, 0]
    assert np.allclose(trace.weights[0, 0], [0.75, 0.25], atol=1e-10)
    assert np.allclose(trace.summary[0, 0], [0.0, 0.0, 1.75], atol=1e-10)


def test_summary_of_single_row_is_nearly_that_row():
    # budget 3 deletes only position 3, which lies wholly outside the kept span
    values = [[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]]]
    _, _, trace, _ = hand_round(values, [[0.3, 0.3, 0.3, 0.1]], budget_k=3)
    assert np.allclose(trace.summary[0, 0], [0.0, 0.0, 2.0], atol=1e-10)


def test_summary_with_zero_masses_is_zero():
    # head 1's deleted rows have a residual but get no mass: nothing moves
    local, block, trace, _ = hand_round(HAND_VALUES, HAND_MASSES, budget_k=2)
    assert not trace.skipped[0, 1] and trace.del_mass[0, 1] == 0.0
    assert np.array_equal(trace.summary[0, 1], np.zeros(3))
    assert np.array_equal(trace.injection[0, 1], np.zeros(3))
    assert np.array_equal(block.values[0, 1, :2], local.values[0, 1, :2])


def test_project_onto_principal_direction():
    _, _, trace, _ = hand_round(HAND_VALUES, HAND_MASSES, budget_k=2)
    # the residual spans e3 alone, and the summary already lies on it
    assert trace.subspace_rank[0, 0] == 1
    assert np.allclose(trace.direction[0, 0], [0.0, 0.0, 1.75], atol=1e-12)


def test_project_onto_empty_subspace_is_zero():
    rows = principal_subspace(np.zeros((2, 3)), max_rank=4)
    assert np.array_equal((np.array([1.0, 2.0, 3.0]) @ rows.T) @ rows, np.zeros(3))


def test_project_in_span_is_fixpoint():
    rng = np.random.default_rng(8)
    rows = principal_subspace(rng.standard_normal((4, 6)), max_rank=6)
    x = rng.standard_normal(rows.shape[0]) @ rows
    assert np.allclose((x @ rows.T) @ rows, x, atol=1e-10)


def test_scale_by_demand_ratio():
    _, _, trace, _ = hand_round(HAND_VALUES, HAND_MASSES, budget_k=2)
    assert trace.keep_mass[0, 0] == pytest.approx(0.8) and trace.del_mass[0, 0] == pytest.approx(0.2)
    assert np.allclose(trace.injection[0, 0], [0.0, 0.0, 0.25 * 1.75], atol=1e-10)
    assert np.array_equal(trace.injection[0, 1], np.zeros(3))  # no deleted mass


def test_scale_with_zero_keep_mass_is_large_but_finite():
    # Head 1 gives the kept rows (positions 0, 1) no mass and spreads its
    # mass over the four deleted rows; head 0's mass keeps 0 and 1 on top of
    # the shared ranking.
    values = [[[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0],
               [0.0, 0.0, 0.0, 1.0], [1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]]] * 2
    masses = [[0.5, 0.5, 0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.25, 0.25, 0.25, 0.25]]
    _, block, trace, cfg = hand_round(values, masses, budget_k=2)
    assert not trace.skipped[0, 1] and trace.keep_mass[0, 1] == 0.0 and trace.del_mass[0, 1] == 1.0
    assert trace.zero_keep_demand[0, 1] and trace.to_dict()["units"][1]["zero_keep_demand"] is True
    injection = trace.injection[0, 1]
    assert np.isfinite(injection).all() and np.isfinite(block.values).all()
    assert np.array_equal(injection, (trace.del_mass[0, 1] / cfg.epsilon) * trace.direction[0, 1])
    assert float(np.abs(injection).max()) == pytest.approx(0.5e12, rel=1e-6)
    assert not trace.zero_keep_demand[0, 0]


def test_inject_adds_vector_to_every_row():
    local, block, trace, _ = hand_round(HAND_VALUES, HAND_MASSES, budget_k=2)
    assert np.array_equal(block.values[0, 0, :2], local.values[0, 0, :2] + trace.injection[0, 0])
    assert np.allclose(block.values[0, 0, :2], [[1.0, 0.0, 0.4375], [0.0, 1.0, 0.4375]], atol=1e-10)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_summary_ignores_deleted_row_order(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    kept = np.eye(7)[:2]
    deleted = rng.standard_normal((n, 7))
    share = rng.random(n) + 0.01
    masses = np.concatenate([[0.35, 0.35], 0.3 * share / share.sum()])
    perm = rng.permutation(n)
    summaries = [
        hand_round([np.concatenate([kept, deleted[order]])],
                   [np.concatenate([masses[:2], masses[2:][order]])], budget_k=2)[2].summary[0, 0]
        for order in (np.arange(n), perm)
    ]
    assert np.allclose(summaries[0], summaries[1], atol=1e-12)


# --- trace bookkeeping ------------------------------------------------------


def trace_of(skipped, injection):
    """A trace over the units of ``skipped`` with value_dim 3 and two deleted rows; active units carry ones."""
    skipped = np.asarray(skipped)
    active = (~skipped)[..., None].astype(float)
    return ObfTrace(
        basis_rank=np.ones(skipped.shape, np.int64), residual_norm=np.full(skipped.shape, 0.5),
        subspace_rank=(~skipped).astype(np.int64), keep_mass=np.ones(skipped.shape),
        del_mass=np.full(skipped.shape, 0.5), skipped=skipped, summary=active * np.ones(3),
        direction=active * np.ones(3), injection=injection, weights=active * np.full(2, 0.5),
    )


def test_skipped_unit_trace_must_carry_zero_injection():
    trace_of([[True, False]], [[[-0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]])  # an active unit carries any injection
    with pytest.raises(ValueError, match="a skipped unit must carry a zero injection"):
        trace_of([[True, False]], [[[0.0, 5e-324, 0.0], [1.0, 1.0, 1.0]]])


def test_trace_skip_statistics():
    skipped = np.array([[True, False], [False, True]])
    trace = trace_of(skipped, (~skipped)[..., None] * np.ones(3))
    assert type(trace.total) is int and trace.total == 4
    assert type(trace.skipped_count) is int and trace.skipped_count == 2
    assert ObfTrace().total == ObfTrace().skipped_count == 0
    assert ObfTrace().to_dict(include_vectors=True) == {"units": []}
    doc = trace.to_dict()
    assert [(entry["layer"], entry["head"]) for entry in doc["units"]] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert [entry["skipped"] for entry in doc["units"]] == [True, False, False, True]
    assert "injection" not in doc["units"][0]
    full = trace.to_dict(include_vectors=True)["units"]
    assert [entry["injection"] for entry in full] == [[0.0] * 3, [1.0] * 3, [1.0] * 3, [0.0] * 3]
    assert [entry["summary"] for entry in full] == [None, [1.0] * 3, [1.0] * 3, None]
    assert full[0]["weights"] is None and full[1]["weights"] == [0.5, 0.5]
    # the report encoder takes Python scalars only: np.int64 and np.bool_ are rejected
    for entry in doc["units"] + full:
        for value in entry.values():
            for item in value if isinstance(value, list) else [value]:
                assert item is None or type(item) in (int, float, bool), (entry, item)


def test_skipped_unit_rows_keep_their_exact_bits():
    """Only active units are shifted: adding a zero injection would turn the skipped unit's -0.0 into +0.0."""
    # head 1's deleted rows lie in the span of its kept rows e1, e2, which hold -0.0 entries
    in_span = [[1.0, -0.0, 0.0], [-0.0, 1.0, -0.0], [1.0, 1.0, 0.0], [2.0, 0.0, 0.0]]
    local, block, trace, _ = hand_round([HAND_VALUES[0], in_span], HAND_MASSES, budget_k=2)
    assert trace.skipped.tolist() == [[False, True]]
    kept = local.values[0, 1, :2]
    assert np.signbit(kept).any() and not np.array_equal(np.signbit(kept + 0.0), np.signbit(kept))
    assert block.values[0, 1, :2].tobytes() == kept.tobytes()
    assert block.values[0, 0, :2].tobytes() != local.values[0, 0, :2].tobytes()


def backfill_on_nan_values(ep, sink, eligible, cfg, keep_deleted_rows):
    """Run ``_orthogonal_backfill`` on ``compress``'s round over a value array of NaN.

    The deleted rows hold their real values if ``keep_deleted_rows``.
    Returns (the trace ``compress`` gives, the direct call's trace).
    """
    _, record, trace = compress(ep, sink, eligible, cfg)
    masses = attention_mass_headwise(ep.attention, ep.generation, eligible)
    del_rows = ep.cache.positions.searchsorted(evicted(eligible, record.kept_prompt))
    values = np.full(ep.cache.values.shape, np.nan)
    if keep_deleted_rows:
        values[:, :, del_rows] = ep.cache.values[:, :, del_rows]
    v_keep = select(ep.cache, record.kept_prompt).values
    kept = np.isin(eligible, record.kept_prompt)
    assert del_rows.size
    return trace, _orthogonal_backfill(v_keep, values, del_rows, masses, kept, cfg)


def assert_traces_equal(a, b):
    for f in dataclasses.fields(ObfTrace):
        assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name


def test_backfill_reads_no_value_row_outside_the_deleted_rows():
    ep, sink, eligible = one_round(sink_size=1, num_layers=2, num_kv_heads=2, prompt_lens=(11,), value_dim=6)
    cfg = CompressionConfig(method="h2o_obf", budget_k=3, sink_size=1)
    expected, trace = backfill_on_nan_values(ep, sink, eligible, cfg, keep_deleted_rows=True)
    assert not expected.skipped.any()
    assert_traces_equal(trace, expected)


def test_full_rank_units_read_no_deleted_row():
    """A unit whose kept rows have full rank skips without reading a deleted row (README, "Notes on the numbers")."""
    ep, sink, eligible = one_round(sink_size=1, num_layers=2, num_kv_heads=2, prompt_lens=(11,), value_dim=4)
    cfg = CompressionConfig(method="h2o_obf", budget_k=6, sink_size=1)
    expected, trace = backfill_on_nan_values(ep, sink, eligible, cfg, keep_deleted_rows=False)
    assert trace.skipped.all()
    assert (trace.basis_rank == 4).all() and (trace.residual_norm == 0.0).all()
    assert_traces_equal(trace, expected)


# --- the compress operator --------------------------------------------------


def test_full_method_relays_everything():
    ep, sink, eligible = one_round(sink_size=2)
    cfg = CompressionConfig(method="full", sink_size=2)
    retained, record, trace = compress(ep, sink, eligible, cfg)
    assert np.array_equal(record.kept_prompt, eligible)
    assert evicted(eligible, record.kept_prompt).tolist() == []
    assert np.array_equal(retained.positions, np.concatenate([sink, eligible, ep.generation]))
    assert caches_rows_match(ep.cache, retained)
    assert trace.total == 0


def test_streaming_keeps_sink_and_generation_only():
    ep, sink, eligible = one_round(sink_size=2)
    cfg = CompressionConfig(method="streaming", sink_size=2)
    retained, record, _ = compress(ep, sink, eligible, cfg)
    assert record.kept_prompt.tolist() == []
    assert np.array_equal(retained.positions, np.concatenate([sink, ep.generation]))


def test_streaming_later_round_is_generation_only():
    ep, _, _ = one_round()
    cfg = CompressionConfig(method="streaming", sink_size=2)
    retained, _, _ = compress(ep, ep.prompt[:0], ep.prompt, cfg)
    assert np.array_equal(retained.positions, ep.generation)


def caches_rows_match(source, retained):
    row_of = {pos: row for row, pos in enumerate(source.positions.tolist())}
    rows = [row_of[pos] for pos in retained.positions.tolist()]
    return np.array_equal(retained.keys, source.keys[:, :, rows, :])


@pytest.mark.parametrize("granularity", [GLOBAL, LAYERWISE, HEADWISE])
def test_h2o_budget_and_key_preservation(granularity):
    ep, sink, eligible = one_round(num_layers=2, num_kv_heads=2, kv_group_size=2, prompt_lens=(9,))
    cfg = CompressionConfig(method="h2o", budget_k=4, granularity=granularity, sink_size=0)
    retained, record, _ = compress(ep, sink, eligible, cfg)
    assert len(record.kept_prompt) == 4
    assert np.array_equal(retained.positions, np.concatenate([record.kept_prompt, ep.generation]))
    assert caches_rows_match(ep.cache, retained)


def test_h2o_saturates_at_eligible_count():
    ep, sink, eligible = one_round()
    cfg = CompressionConfig(method="h2o", budget_k=50, sink_size=0)
    _, record, _ = compress(ep, sink, eligible, cfg)
    assert np.array_equal(record.kept_prompt, eligible)


def test_h2o_selection_agrees_with_mass_oracle():
    ep, sink, eligible = one_round(num_layers=2, num_kv_heads=2, kv_group_size=2, prompt_lens=(8,))
    cfg = CompressionConfig(method="h2o", budget_k=3, granularity=GLOBAL, sink_size=0)
    _, record, _ = compress(ep, sink, eligible, cfg)
    mass = oracles.headwise_mass(
        ep.attention.weights, list(range(len(ep.generation))), list(range(len(ep.prompt))), 2
    ).sum(axis=(0, 1))
    scores = {pos: mass[i] for i, pos in enumerate(ep.prompt.tolist())}
    assert tuple(record.kept_prompt.tolist()) == oracles.topk(scores, 3, eligible.tolist())


def test_backfill_modifies_only_kept_prompt_values():
    ep, sink, eligible = one_round(sink_size=1, prompt_lens=(7,), value_dim=12)
    base = CompressionConfig(method="h2o", budget_k=3, sink_size=1)
    shifted = CompressionConfig(method="h2o_obf", budget_k=3, sink_size=1)
    plain, record, _ = compress(ep, sink, eligible, base)
    backed, record2, trace = compress(ep, sink, eligible, shifted)
    assert np.array_equal(record.kept_prompt, record2.kept_prompt)
    assert np.array_equal(plain.keys, backed.keys)
    assert not trace.skipped[0, 0]
    kept = slice(1, 1 + len(record.kept_prompt))
    assert np.array_equal(backed.values[0, 0, kept, :], plain.values[0, 0, kept, :] + trace.injection[0, 0])
    # sink and generation rows are untouched
    assert np.array_equal(backed.values[0, 0, :1, :], plain.values[0, 0, :1, :])
    assert np.array_equal(backed.values[0, 0, 1 + len(record.kept_prompt):, :],
                          plain.values[0, 0, 1 + len(record.kept_prompt):, :])


def test_backfill_without_deletion_matches_plain_h2o_bitwise():
    ep, sink, eligible = one_round()
    k = len(eligible)  # budget covers everything
    plain, _, _ = compress(ep, sink, eligible, CompressionConfig(method="h2o", budget_k=k))
    backed, _, trace = compress(ep, sink, eligible, CompressionConfig(method="h2o_obf", budget_k=k))
    assert np.array_equal(plain.values, backed.values)
    assert np.array_equal(plain.keys, backed.keys)
    assert trace.skipped_count == trace.total
    assert not trace.del_mass.any()


def test_backfill_skips_when_deleted_values_in_retained_span():
    ep, sink, eligible = one_round(value_structure="low_rank", value_rank=2, prompt_lens=(8,))
    cfg = CompressionConfig(method="h2o_obf", budget_k=4, sink_size=0)
    _, _, trace = compress(ep, sink, eligible, cfg)
    assert trace.skipped_count == trace.total
    assert (trace.residual_norm <= 1e-8).all()


def test_backfill_needs_retained_rows():
    ep, sink, eligible = one_round()
    cfg = CompressionConfig(method="h2o_obf", budget_k=0, sink_size=0)
    with pytest.raises(EmptyKeep):
        compress(ep, sink, eligible, cfg)


def test_h2o_with_zero_budget_keeps_nothing():
    ep, sink, eligible = one_round()
    cfg = CompressionConfig(method="h2o", budget_k=0, sink_size=0)
    retained, record, _ = compress(ep, sink, eligible, cfg)
    assert record.kept_prompt.tolist() == []
    assert np.array_equal(retained.positions, ep.generation)


def test_sink_block_included_for_every_method_at_round_one():
    ep, sink, eligible = one_round(sink_size=2)
    for method in ("full", "streaming", "h2o", "h2o_obf"):
        cfg = CompressionConfig(method=method, budget_k=3, sink_size=2)
        retained, _, _ = compress(ep, sink, eligible, cfg)
        assert np.array_equal(retained.positions[:2], sink)
        block = select(ep.cache, sink)
        assert np.array_equal(retained.values[:, :, :2, :], block.values)


@pytest.mark.parametrize("structure", ["gaussian", "low_rank"])
def test_backfill_skip_decisions_survive_values_whose_squares_overflow(structure):
    """Values of 1e200 overflow a plain Frobenius norm; every unit must still skip as it does at scale 1."""
    ep, sink, eligible = one_round(
        sink_size=2, key_dim=8, value_dim=8, prompt_lens=(12,), value_structure=structure, value_rank=2
    )
    cfg = CompressionConfig(method="h2o_obf", budget_k=4, sink_size=2)
    cache = ep.cache
    scaled = dataclasses.replace(
        ep, cache=KvCache(keys=cache.keys, values=cache.values * 1e200, positions=cache.positions)
    )
    _, _, plain = compress(ep, sink, eligible, cfg)
    _, _, big = compress(scaled, sink, eligible, cfg)
    assert plain.skipped_count == (plain.total if structure == "low_rank" else 0)
    assert np.array_equal(big.skipped, plain.skipped)
    assert np.isfinite(big.residual_norm).all()
    active = ~plain.skipped
    assert big.residual_norm[active] == pytest.approx(plain.residual_norm[active] * 1e200, rel=1e-12)


@given(
    seed=st.integers(0, 2**31 - 1),
    structure=st.sampled_from(["gaussian", "low_rank"]),
    value_dim=st.integers(2, 10),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_backfill_with_as_many_kept_rows_as_value_dims(seed, structure, value_dim, data):
    """With k >= value_dim kept rows, a unit whose kept rows have full rank skips without a residual.

    Its trace reports ``basis_rank = value_dim`` and ``residual_norm`` 0.0,
    and its rows keep the bits ``h2o`` relays. A rank-deficient unit still
    projects its deleted rows out of the kept span with ``obf_residual``.
    """
    k = data.draw(st.integers(value_dim, value_dim + 4), label="budget_k")
    ep, sink, eligible = one_round(
        seed=seed,
        sink_size=2,
        num_layers=data.draw(st.integers(1, 2), label="num_layers"),
        num_kv_heads=data.draw(st.integers(1, 2), label="num_kv_heads"),
        value_dim=value_dim,
        prompt_lens=(2 + k + data.draw(st.integers(1, 5), label="deleted"),),
        value_structure=structure,
        value_rank=data.draw(st.integers(1, 10), label="value_rank"),
    )
    plain, record, _ = compress(ep, sink, eligible, CompressionConfig(method="h2o", budget_k=k, sink_size=2))
    residual_calls = []

    def counting_residual(v_keep, v_del):
        residual_calls.append(v_keep.shape)
        return obf_residual(v_keep, v_del)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(compress_module, "obf_residual", counting_residual)
        block, _, trace = compress(ep, sink, eligible, CompressionConfig(method="h2o_obf", budget_k=k, sink_size=2))
    assert len(record.kept_prompt) == k and evicted(eligible, record.kept_prompt).size
    kept_values = select(ep.cache, record.kept_prompt).values
    deficient = 0
    for unit in np.ndindex(trace.skipped.shape):
        rank = oracles.svd_rank(kept_values[unit])
        assert trace.basis_rank[unit] == rank
        if rank == value_dim:
            assert trace.skipped[unit] and trace.residual_norm[unit] == 0.0
            assert np.array_equal(block.values[unit], plain.values[unit])
        else:
            deficient += 1
    assert len(residual_calls) == deficient
    assert deficient or np.array_equal(block.values, plain.values)


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_backfill_injection_is_uniform_across_kept_rows(seed):
    ep, sink, eligible = one_round(seed=seed, prompt_lens=(7,), value_dim=10)
    cfg = CompressionConfig(method="h2o_obf", budget_k=4, sink_size=0)
    backed, record, trace = compress(ep, sink, eligible, cfg)
    row_of = {pos: row for row, pos in enumerate(ep.cache.positions)}
    original = ep.cache.values[0, 0, [row_of[p] for p in record.kept_prompt], :]
    got = backed.values[0, 0, : len(record.kept_prompt), :]
    # adding the traced injection to the original rows reproduces the output
    # bit for bit, so the shift really is one shared vector
    assert np.array_equal(got, original + trace.injection[0, 0])


# --- reference: backfill by per-position row gathers ------------------------


def reference_h2o_obf(ep, sink, eligible, cfg):
    """h2o_obf built the long way: gather rows through a position dict, collect
    one injection per active unit, then shift the kept slice of a fresh block.
    Only the linalg kernels are shared with the code under test; every step
    of the backfill formula is written out here. Whether a unit's kept rows
    have full rank, so that it skips with no residual, is decided by
    ``oracles.svd_rank``, one matrix at a time.

    Returns (positions, keys, values, units) with each unit's trace fields in
    a dict keyed by (layer, head); a skipped unit's vectors are zero.
    """
    local, sink, eligible = ep.cache, sink.tolist(), eligible.tolist()
    masses = attention_mass_headwise(ep.attention, ep.generation, eligible)
    keep = h2o_select(masses, cfg.round_budget(len(eligible)), eligible).tolist()
    deleted = [pos for pos in eligible if pos not in keep]
    row_of = {pos: row for row, pos in enumerate(local.positions.tolist())}
    keep_rows = [row_of[pos] for pos in keep]
    del_rows = [row_of[pos] for pos in deleted]
    col_of = {pos: col for col, pos in enumerate(eligible)}
    del_cols = [col_of[pos] for pos in deleted]
    demands, _ = demand_sums(masses, np.isin(eligible, keep))
    shifts = {}
    units = {}
    for unit in np.ndindex(demands.shape[:2]):
        layer, head = unit
        keep_mass, del_mass = demands[unit].tolist()
        fields = units[unit] = dict(
            basis_rank=0, residual_norm=0.0, subspace_rank=0, keep_mass=keep_mass,
            del_mass=del_mass, injection=np.zeros(local.value_dim), skipped=True,
            zero_keep_demand=False, weights=np.zeros(len(deleted)),
            summary=np.zeros(local.value_dim), direction=np.zeros(local.value_dim),
        )
        if not deleted:
            continue
        v_keep = local.values[layer, head, keep_rows, :]
        if oracles.svd_rank(v_keep) == local.value_dim:
            fields.update(basis_rank=local.value_dim)
            continue
        v_del = local.values[layer, head, del_rows, :]
        q = orthonormal_basis(v_keep)
        residual = project_out(v_del, q)
        fields.update(basis_rank=q.shape[1], residual_norm=float(np.linalg.norm(residual)))
        if fields["residual_norm"] <= 1e-10 * (1.0 + float(np.linalg.norm(v_del))):
            continue
        rows = principal_subspace(residual, cfg.pca_rank)
        if rows.shape[0] == 0:
            continue
        unit_masses = masses[layer, head, del_cols]
        weights = unit_masses / (unit_masses.sum() + cfg.epsilon)
        summary = weights @ residual
        direction = (summary @ rows.T) @ rows
        injection = (del_mass / (keep_mass + cfg.epsilon)) * direction
        shifts[unit] = injection
        fields.update(
            subspace_rank=rows.shape[0], injection=injection, skipped=False,
            zero_keep_demand=keep_mass == 0.0, weights=weights,
            summary=summary, direction=direction,
        )
    order = index_array(sink + keep + ep.generation.tolist())
    block = select(local, order)
    values = np.array(block.values)
    kept_slice = slice(len(sink), len(sink) + len(keep))
    for (layer, head), delta in shifts.items():
        values[layer, head, kept_slice, :] = values[layer, head, kept_slice, :] + delta
    return order, block.keys, values, units


BACKFILL_CASES = {
    "round1_sink": dict(),
    "round2_no_sink": dict(round_i=2),
    "budget_ratio": dict(budget=dict(budget_k=None, budget_ratio=0.3)),
    "low_rank": dict(spec=dict(value_structure="low_rank", value_rank=3)),
    "low_rank_2": dict(spec=dict(value_structure="low_rank", value_rank=2)),
    "one_deleted_row": dict(one_deleted=True),
    "pca_rank_1": dict(pca_rank=1),
}


def backfill_case(case, seed):
    """One round of ``BACKFILL_CASES[case]``: (episode round, sink, eligible prompt, h2o_obf config)."""
    opts = BACKFILL_CASES[case]
    rng = np.random.default_rng(seed)
    value_dim = int(rng.integers(2, 10))
    spec = EpisodeSpec(
        seed=seed,
        num_layers=int(rng.integers(1, 3)),
        num_kv_heads=int(rng.integers(1, 3)),
        kv_group_size=int(rng.integers(1, 3)),
        key_dim=4,
        value_dim=value_dim,
        prompt_lens=tuple(int(n) for n in rng.integers(6, 17, size=2)),
        gen_len=int(rng.integers(1, 5)),
        **opts.get("spec", {}),
    )
    round_i = opts.get("round_i", 1)
    ep = generate_episode(spec, round_i)
    sink_size = 2
    if round_i == 1:
        sink, eligible = decompose(None, ep, sink_size)
    else:
        # a later round relays no sink: the message holds the first round's
        sink, eligible = ep.prompt[:0], ep.prompt
    if opts.get("one_deleted"):
        budget = dict(budget_k=len(eligible) - 1)
    else:
        budget = opts.get("budget", dict(budget_k=int(rng.integers(1, value_dim + 1))))
    cfg = CompressionConfig(
        method="h2o_obf", sink_size=sink_size, pca_rank=opts.get("pca_rank", 8), **budget
    )
    return ep, sink, eligible, cfg


@pytest.mark.parametrize("case", sorted(BACKFILL_CASES))
@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_backfill_matches_row_gather_reference(case, seed):
    ep, sink, eligible, cfg = backfill_case(case, seed)
    retained, record, trace = compress(ep, sink, eligible, cfg)
    positions, keys, values, units = reference_h2o_obf(ep, sink, eligible, cfg)

    if BACKFILL_CASES[case].get("one_deleted"):
        assert len(evicted(eligible, record.kept_prompt)) == 1
    assert np.array_equal(retained.positions, positions)
    assert np.array_equal(retained.keys, keys)
    assert np.array_equal(retained.values, values)
    assert list(np.ndindex(trace.skipped.shape)) == list(units)
    for key, expected in units.items():
        for name in ("basis_rank", "residual_norm", "subspace_rank", "keep_mass", "del_mass",
                     "skipped", "zero_keep_demand"):
            assert getattr(trace, name)[key] == expected[name], (key, name)
        for name in ("injection", "weights", "summary", "direction"):
            assert np.array_equal(getattr(trace, name)[key], expected[name]), (key, name)


@pytest.mark.parametrize("case", sorted(BACKFILL_CASES))
@given(seed=st.integers(0, 2**31 - 1), flips=st.integers(0, 2**8 - 1))
@settings(max_examples=15, deadline=None)
def test_basis_signs_are_unobservable(case, seed, flips):
    """Flipping the sign of singular vectors changes no output bit.

    The backfill reads a basis only as ``x - (x Q) Q^T`` and a subspace only
    as ``(s C^T) C``; negation is exact in IEEE arithmetic, so both are
    bit-for-bit invariant and the kernels need no sign convention. Singular
    vectors are formed only when something is deleted and some unit's kept
    rows are rank-deficient; a round of full-rank units needs none.
    """
    ep, sink, eligible, cfg = backfill_case(case, seed)
    plain_block, record, plain = compress(ep, sink, eligible, cfg)
    kept_values = select(ep.cache, record.kept_prompt).values
    deficient = any(
        oracles.svd_rank(kept_values[unit]) < ep.cache.value_dim for unit in np.ndindex(kept_values.shape[:2])
    )
    svd = linalg._svd
    calls = []

    def flipped_svd(m, compute_uv=True):
        if not compute_uv:
            return svd(m, compute_uv=False)  # the full-rank test forms no vector to flip
        # the first right vector always flips, the next ones as ``flips`` says
        u, sigmas, vt = svd(m)
        calls.append(m.shape)
        sign = np.where(((flips << 1 | 1) >> np.arange(vt.shape[0])) & 1, -1.0, 1.0)
        return u * sign, sigmas, vt * sign[:, None]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_svd", flipped_svd)
        block, _, trace = compress(ep, sink, eligible, cfg)
    assert bool(calls) == bool(evicted(eligible, record.kept_prompt).size and deficient)
    assert np.array_equal(block.values, plain_block.values)
    assert trace.to_dict(include_vectors=True) == plain.to_dict(include_vectors=True)
    for field in dataclasses.fields(ObfTrace):
        assert np.array_equal(getattr(trace, field.name), getattr(plain, field.name)), field.name
