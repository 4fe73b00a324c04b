"""Compression methods: eviction, value backfill, and their kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from kvrelay.backbone import EpisodeSpec, generate_episode
from kvrelay.compress import (
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
from kvrelay.errors import BudgetUnset, DimensionMismatch, EmptyKeep
from kvrelay.kv import RoleMap, as_index_list, decompose, select
from kvrelay.linalg import principal_subspace
from kvrelay.scoring import GLOBAL, HEADWISE, LAYERWISE, MassTable, attention_mass_headwise, demand_sums


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
    roles = decompose(None, 1, ep.prompt, ep.generation, sink_size, padding=ep.padding)
    return ep, roles


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


# --- selection --------------------------------------------------------------


def global_table(scores):
    positions = sorted(scores)
    return MassTable(positions=positions, masses=[[[scores[p] for p in positions]]])


def test_select_keeps_highest_mass_with_tie_toward_lower():
    table = global_table({4: 0.9, 5: 0.1, 6: 0.5, 7: 0.5})
    result = h2o_select(table, 2)
    assert result.keep == (4, 6)
    assert result.deleted == (5, 7)
    assert result.budget == 2


def test_select_all_zero_masses_uses_position_cascade():
    table = global_table({p: 0.0 for p in range(4, 10)})
    assert h2o_select(table, 2).keep == (4, 5)


def test_select_without_pressure_deletes_nothing():
    table = global_table({4: 0.9, 5: 0.1})
    result = h2o_select(table, 2)
    assert result.keep == (4, 5)
    assert result.deleted == ()


def test_select_packs_unit_rankings_by_summing():
    # two layers, one kv head each
    table = MassTable(positions=(1, 2), masses=[[[0.9, 0.1]], [[0.2, 0.8]]])
    result = h2o_select(table, 1)
    assert result.keep == (1,)  # 1.1 beats 0.9 on the summed ranking
    assert result.deleted == (2,)


def test_selection_result_rejects_overlap():
    with pytest.raises(ValueError):
        SelectionResult(keep=(1,), deleted=(1, 2), budget=1)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_selection_budget_is_exact(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 25))
    eligible = tuple(sorted(rng.choice(100, size=n, replace=False).tolist()))
    scores = {p: float(rng.integers(0, 4)) for p in eligible}
    k = int(rng.integers(0, n + 4))
    result = h2o_select(global_table(scores), k)
    assert len(result.keep) == min(k, n)
    assert tuple(sorted(result.keep + result.deleted)) == eligible
    assert result.keep == oracles.topk(scores, k, eligible)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_select_deleted_set_matches_set_loop(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    positions = tuple(sorted(rng.choice(500, size=n, replace=False).tolist()))
    masses = rng.integers(0, 3, size=(int(rng.integers(1, 3)), 2, n)).astype(float)
    table = MassTable(positions=positions, masses=masses)
    result = h2o_select(table, int(rng.integers(0, n + 3)))
    keep_set = set(result.keep)
    assert result.deleted == tuple(pos for pos in table.positions if pos not in keep_set)
    assert all(type(pos) is int for pos in result.deleted)


# --- backfill kernels -------------------------------------------------------


def test_residual_removes_retained_span():
    basis, residual = obf_residual(
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [[0.0, 0.0, 2.0], [1.0, 0.0, 1.0]]
    )
    assert basis.rank == 2
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
    r = np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 1.0]])
    summary = obf_summary(r, [0.3, 0.1], epsilon=1e-12)
    assert np.allclose(summary, [0.0, 0.0, 1.75], atol=1e-10)


def test_summary_of_single_row_is_nearly_that_row():
    r = np.array([[1.0, -2.0, 0.5]])
    assert np.allclose(obf_summary(r, [0.3], 1e-12), r[0], atol=1e-10)


def test_summary_with_zero_masses_is_zero():
    r = np.array([[1.0, 1.0], [2.0, 2.0]])
    assert np.array_equal(obf_summary(r, [0.0, 0.0], 1e-12), np.zeros(2))


def test_summary_validates_inputs():
    with pytest.raises(DimensionMismatch):
        obf_summary(np.ones((2, 3)), [1.0], 1e-12)
    with pytest.raises(ValueError):
        obf_summary(np.ones((1, 3)), [-0.1], 1e-12)
    with pytest.raises(ValueError):
        obf_summary(np.ones((1, 3)), [0.1], 0.0)


def test_project_onto_principal_direction():
    sub = principal_subspace([[0.0, 0.0, 2.0], [0.0, 0.0, 1.0]], max_rank=8)
    assert np.allclose(obf_project([0.0, 0.0, 1.75], sub), [0.0, 0.0, 1.75], atol=1e-12)


def test_project_onto_empty_subspace_is_zero():
    sub = principal_subspace(np.zeros((2, 3)), max_rank=4)
    assert np.array_equal(obf_project([1.0, 2.0, 3.0], sub), np.zeros(3))


def test_project_in_span_is_fixpoint():
    rng = np.random.default_rng(8)
    r = rng.standard_normal((4, 6))
    sub = principal_subspace(r, max_rank=6)
    x = rng.standard_normal(sub.subspace_rank) @ sub.rows
    assert np.allclose(obf_project(x, sub), x, atol=1e-10)


def test_project_dimension_check():
    sub = principal_subspace(np.eye(3), max_rank=3)
    with pytest.raises(DimensionMismatch):
        obf_project(np.ones(4), sub)


def test_scale_by_demand_ratio():
    delta = obf_scale([0.0, 0.0, 1.75], (0.6, 0.4), epsilon=1e-12)
    assert np.allclose(delta, [0.0, 0.0, 7.0 / 6.0], atol=1e-10)
    assert np.array_equal(obf_scale([1.0, 2.0], (0.7, 0.0), 1e-12), np.zeros(2))


def test_scale_with_zero_keep_mass_is_large_but_finite():
    delta = obf_scale([1.0], (0.0, 0.4), epsilon=1e-12)
    assert np.isfinite(delta).all()
    assert delta[0] == pytest.approx(0.4e12, rel=1e-6)


def test_inject_adds_vector_to_every_row():
    out = obf_inject([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [0.0, 0.0, 7.0 / 6.0])
    assert np.allclose(out, [[1.0, 0.0, 7.0 / 6.0], [0.0, 1.0, 7.0 / 6.0]], atol=1e-12)
    with pytest.raises(DimensionMismatch):
        obf_inject(np.ones((2, 3)), np.ones(2))


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_summary_ignores_deleted_row_order(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    residual = rng.standard_normal((n, 7))
    masses = rng.random(n)
    perm = rng.permutation(n)
    direct = obf_summary(residual, masses, 1e-12)
    shuffled = obf_summary(residual[perm], masses[perm], 1e-12)
    assert np.allclose(direct, shuffled, atol=1e-12)


# --- trace bookkeeping ------------------------------------------------------


def test_skipped_unit_trace_must_carry_zero_injection():
    with pytest.raises(ValueError):
        ObfUnitTrace(
            layer=0,
            head=0,
            basis_rank=1,
            residual_norm=0.0,
            subspace_rank=0,
            keep_mass=1.0,
            del_mass=0.0,
            injection=np.ones(3),
            skipped=True,
        )


def test_trace_skip_statistics():
    def unit(head, skipped):
        return ObfUnitTrace(
            layer=0,
            head=head,
            basis_rank=1,
            residual_norm=0.5,
            subspace_rank=0 if skipped else 1,
            keep_mass=1.0,
            del_mass=0.5,
            injection=np.zeros(3) if skipped else np.ones(3),
            skipped=skipped,
        )

    trace = ObfTrace(units={(0, 0): unit(0, True), (0, 1): unit(1, False)})
    assert trace.total == 2
    assert trace.skipped_count == 1
    assert ObfTrace().total == ObfTrace().skipped_count == 0
    doc = trace.to_dict()
    assert [entry["head"] for entry in doc["units"]] == [0, 1]
    assert "injection" not in doc["units"][0]
    assert "injection" in trace.to_dict(include_vectors=True)["units"][0]


# --- the compress operator --------------------------------------------------


def test_full_method_relays_everything():
    ep, roles = one_round(sink_size=2)
    cfg = CompressionConfig(method="full", sink_size=2)
    retained, selection, trace = compress(ep.cache, roles, None, cfg)
    assert selection.keep == roles.prompt
    assert selection.deleted == ()
    assert retained.positions == roles.sink + roles.prompt + roles.generation
    assert caches_rows_match(ep.cache, retained)
    assert trace.total == 0


def test_streaming_keeps_sink_and_generation_only():
    ep, roles = one_round(sink_size=2)
    cfg = CompressionConfig(method="streaming", sink_size=2)
    retained, selection, _ = compress(ep.cache, roles, None, cfg)
    assert selection.keep == ()
    assert retained.positions == roles.sink + roles.generation


def test_streaming_later_round_is_generation_only():
    ep, _ = one_round()
    roles = RoleMap(sink=(900, 901), history=(), prompt=ep.prompt, generation=ep.generation)
    cfg = CompressionConfig(method="streaming", sink_size=2)
    retained, _, _ = compress(ep.cache, roles, None, cfg)
    assert retained.positions == ep.generation


def test_eviction_without_attention_fails():
    ep, roles = one_round()
    with pytest.raises(ValueError):
        compress(ep.cache, roles, None, CompressionConfig(method="h2o", budget_k=3))


def caches_rows_match(source, retained):
    row_of = {pos: row for row, pos in enumerate(source.positions)}
    rows = [row_of[pos] for pos in retained.positions]
    return np.array_equal(retained.keys, source.keys[:, :, rows, :])


@pytest.mark.parametrize("granularity", [GLOBAL, LAYERWISE, HEADWISE])
def test_h2o_budget_and_key_preservation(granularity):
    ep, roles = one_round(num_layers=2, num_kv_heads=2, kv_group_size=2, prompt_lens=(9,))
    cfg = CompressionConfig(method="h2o", budget_k=4, granularity=granularity, sink_size=0)
    retained, selection, _ = compress(ep.cache, roles, ep.attention, cfg)
    assert len(selection.keep) == 4
    assert retained.positions == selection.keep + roles.generation
    assert caches_rows_match(ep.cache, retained)


def test_h2o_saturates_at_eligible_count():
    ep, roles = one_round()
    cfg = CompressionConfig(method="h2o", budget_k=50, sink_size=0)
    _, selection, _ = compress(ep.cache, roles, ep.attention, cfg)
    assert selection.keep == roles.prompt


def test_h2o_selection_agrees_with_mass_oracle():
    ep, roles = one_round(num_layers=2, num_kv_heads=2, kv_group_size=2, prompt_lens=(8,))
    cfg = CompressionConfig(method="h2o", budget_k=3, granularity=GLOBAL, sink_size=0)
    _, selection, _ = compress(ep.cache, roles, ep.attention, cfg)
    mass = oracles.headwise_mass(
        ep.attention.weights, list(range(len(ep.generation))), list(range(len(ep.prompt))), 2
    ).sum(axis=(0, 1))
    scores = {pos: mass[i] for i, pos in enumerate(ep.prompt)}
    assert selection.keep == oracles.topk(scores, 3, roles.prompt)


def test_backfill_modifies_only_kept_prompt_values():
    ep, roles = one_round(sink_size=1, prompt_lens=(7,), value_dim=12)
    base = CompressionConfig(method="h2o", budget_k=3, sink_size=1)
    shifted = CompressionConfig(method="h2o_obf", budget_k=3, sink_size=1)
    plain, selection, _ = compress(ep.cache, roles, ep.attention, base)
    backed, selection2, trace = compress(ep.cache, roles, ep.attention, shifted)
    assert selection.keep == selection2.keep
    assert np.array_equal(plain.keys, backed.keys)
    unit = trace.units[(0, 0)]
    assert not unit.skipped
    kept = slice(1, 1 + len(selection.keep))
    assert np.array_equal(backed.values[0, 0, kept, :], plain.values[0, 0, kept, :] + unit.injection)
    # sink and generation rows are untouched
    assert np.array_equal(backed.values[0, 0, :1, :], plain.values[0, 0, :1, :])
    assert np.array_equal(backed.values[0, 0, 1 + len(selection.keep):, :],
                          plain.values[0, 0, 1 + len(selection.keep):, :])


def test_backfill_without_deletion_matches_plain_h2o_bitwise():
    ep, roles = one_round()
    k = len(roles.prompt)  # budget covers everything
    plain, _, _ = compress(ep.cache, roles, ep.attention, CompressionConfig(method="h2o", budget_k=k))
    backed, _, trace = compress(
        ep.cache, roles, ep.attention, CompressionConfig(method="h2o_obf", budget_k=k)
    )
    assert np.array_equal(plain.values, backed.values)
    assert np.array_equal(plain.keys, backed.keys)
    assert trace.skipped_count == trace.total
    assert all(unit.del_mass == 0.0 for unit in trace.units.values())


def test_backfill_skips_when_deleted_values_in_retained_span():
    ep, roles = one_round(value_structure="planted_in_span", value_rank=2, prompt_lens=(8,))
    cfg = CompressionConfig(method="h2o_obf", budget_k=4, sink_size=0)
    _, _, trace = compress(ep.cache, roles, ep.attention, cfg)
    assert trace.skipped_count == trace.total
    for unit in trace.units.values():
        assert unit.residual_norm <= 1e-8


def test_backfill_needs_retained_rows():
    ep, roles = one_round()
    cfg = CompressionConfig(method="h2o_obf", budget_k=0, sink_size=0)
    with pytest.raises(EmptyKeep):
        compress(ep.cache, roles, ep.attention, cfg)


def test_h2o_with_zero_budget_keeps_nothing():
    ep, roles = one_round()
    cfg = CompressionConfig(method="h2o", budget_k=0, sink_size=0)
    retained, selection, _ = compress(ep.cache, roles, ep.attention, cfg)
    assert selection.keep == ()
    assert retained.positions == ep.generation


def test_sink_block_included_for_every_method_at_round_one():
    ep, roles = one_round(sink_size=2)
    for method in ("full", "streaming", "h2o", "h2o_obf"):
        cfg = CompressionConfig(method=method, budget_k=3, sink_size=2)
        retained, _, _ = compress(ep.cache, roles, ep.attention, cfg)
        assert retained.positions[:2] == roles.sink
        block = select(ep.cache, roles.sink)
        assert np.array_equal(retained.values[:, :, :2, :], block.values)


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_backfill_injection_is_uniform_across_kept_rows(seed):
    ep, roles = one_round(seed=seed, prompt_lens=(7,), value_dim=10)
    cfg = CompressionConfig(method="h2o_obf", budget_k=4, sink_size=0)
    backed, selection, trace = compress(ep.cache, roles, ep.attention, cfg)
    unit = trace.units[(0, 0)]
    row_of = {pos: row for row, pos in enumerate(ep.cache.positions)}
    original = ep.cache.values[0, 0, [row_of[p] for p in selection.keep], :]
    got = backed.values[0, 0, : len(selection.keep), :]
    # adding the traced injection to the original rows reproduces the output
    # bit for bit, so the shift really is one shared vector
    assert np.array_equal(got, original + unit.injection)


# --- reference: backfill by per-position row gathers ------------------------


def reference_h2o_obf(local, roles, attn, cfg):
    """h2o_obf built the long way: gather rows through a position dict, collect
    one injection per active unit, then shift the kept slice of a fresh block.

    Returns (positions, keys, values, units) with each unit's trace fields in
    a dict.
    """
    eligible = roles.prompt
    sink = roles.sink if set(roles.sink) <= set(local.positions) else ()
    table = attention_mass_headwise(attn, roles.generation, eligible)
    selection = h2o_select(table, cfg.round_budget(len(eligible)))
    keep, deleted = selection.keep, selection.deleted
    row_of = {pos: row for row, pos in enumerate(local.positions)}
    keep_rows = [row_of[pos] for pos in keep]
    del_rows = [row_of[pos] for pos in deleted]
    col_of = {pos: col for col, pos in enumerate(table.positions)}
    del_cols = [col_of[pos] for pos in deleted]
    demands, _ = demand_sums(table, np.isin(table.positions, keep))
    shifts = {}
    units = {}
    for unit in np.ndindex(demands.shape[:2]):
        layer, head = unit
        keep_mass, del_mass = demands[unit].tolist()
        fields = units[unit] = dict(
            basis_rank=0, residual_norm=0.0, subspace_rank=0, keep_mass=keep_mass,
            del_mass=del_mass, injection=np.zeros(local.value_dim), skipped=True,
            zero_keep_demand=False, weights=None, summary=None, direction=None,
        )
        if not deleted:
            continue
        v_keep = local.values[layer, head, keep_rows, :]
        v_del = local.values[layer, head, del_rows, :]
        basis, residual = obf_residual(v_keep, v_del)
        fields.update(basis_rank=basis.rank, residual_norm=float(np.linalg.norm(residual)))
        if fields["residual_norm"] <= 1e-10 * (1.0 + float(np.linalg.norm(v_del))):
            continue
        subspace = principal_subspace(residual, cfg.pca_rank)
        if subspace.subspace_rank == 0:
            continue
        masses = table.masses[layer, head, del_cols]
        weights = masses / (masses.sum() + cfg.epsilon)
        summary = weights @ residual
        direction = obf_project(summary, subspace)
        injection = obf_scale(direction, (keep_mass, del_mass), cfg.epsilon)
        shifts[unit] = injection
        fields.update(
            subspace_rank=subspace.subspace_rank, injection=injection, skipped=False,
            zero_keep_demand=keep_mass == 0.0, weights=tuple(float(w) for w in weights),
            summary=summary, direction=direction,
        )
    order = as_index_list(sink + keep + roles.generation)
    block = select(local, order)
    values = np.array(block.values)
    kept_slice = slice(len(sink), len(sink) + len(keep))
    for (layer, head), delta in shifts.items():
        values[layer, head, kept_slice, :] = obf_inject(values[layer, head, kept_slice, :], delta)
    return order, block.keys, values, units


BACKFILL_CASES = {
    "round1_sink": dict(),
    "round2_no_sink": dict(round_i=2),
    "budget_ratio": dict(budget=dict(budget_k=None, budget_ratio=0.3)),
    "low_rank": dict(spec=dict(value_structure="low_rank", value_rank=3)),
    "planted_in_span": dict(spec=dict(value_structure="planted_in_span", value_rank=2)),
    "one_deleted_row": dict(one_deleted=True),
    "pca_rank_1": dict(pca_rank=1),
}


def same_vector(a, b):
    return a is None and b is None or a is not None and b is not None and np.array_equal(a, b)


@pytest.mark.parametrize("case", sorted(BACKFILL_CASES))
@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_backfill_matches_row_gather_reference(case, seed):
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
        roles = decompose(None, 1, ep.prompt, ep.generation, sink_size)
    else:
        # the round-1 sink lives in the message, not in this round's cache
        roles = RoleMap(sink=(0, 1), history=(), prompt=ep.prompt, generation=ep.generation)
    eligible = len(roles.prompt)
    if opts.get("one_deleted"):
        budget = dict(budget_k=eligible - 1)
    else:
        budget = opts.get("budget", dict(budget_k=int(rng.integers(1, value_dim + 1))))
    cfg = CompressionConfig(
        method="h2o_obf", sink_size=sink_size, pca_rank=opts.get("pca_rank", 8), **budget
    )

    retained, selection, trace = compress(ep.cache, roles, ep.attention, cfg)
    positions, keys, values, units = reference_h2o_obf(ep.cache, roles, ep.attention, cfg)

    if opts.get("one_deleted"):
        assert len(selection.deleted) == 1
    assert retained.positions == positions
    assert np.array_equal(retained.keys, keys)
    assert np.array_equal(retained.values, values)
    assert sorted(trace.units) == sorted(units)
    for key, unit in trace.units.items():
        expected = units[key]
        for name in ("basis_rank", "residual_norm", "subspace_rank", "keep_mass", "del_mass",
                     "skipped", "zero_keep_demand", "weights"):
            assert getattr(unit, name) == expected[name], (key, name)
        for name in ("injection", "summary", "direction"):
            assert same_vector(getattr(unit, name), expected[name]), (key, name)
