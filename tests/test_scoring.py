import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from kvrelay.errors import DimensionMismatch, MissingColumn, NumericalFailure
from kvrelay.scoring import (
    AttentionRecord,
    MassTable,
    aggregate_global,
    aggregate_layerwise,
    attention_mass_headwise,
    demand_sums,
)


def record(weights, gen, columns, group=1):
    return AttentionRecord(
        weights=np.asarray(weights, dtype=np.float64),
        gen_positions=tuple(gen),
        columns=tuple(columns),
        kv_group_size=group,
    )


def softmax_weights(rng, layers, q_heads, gen, cols):
    logits = rng.standard_normal((layers, q_heads, gen, cols))
    logits -= logits.max(axis=3, keepdims=True)
    w = np.exp(logits)
    return w / w.sum(axis=3, keepdims=True)


def test_attention_record_validates_rows():
    with pytest.raises(ValueError):
        record([[[[0.5, 0.4]]]], gen=(9,), columns=(0, 1))  # sums to 0.9
    with pytest.raises(ValueError):
        record([[[[1.2, -0.2]]]], gen=(9,), columns=(0, 1))
    with pytest.raises(ValueError):
        record([[[[0.5, 0.5]]]], gen=(9, 9), columns=(0, 1))
    with pytest.raises(ValueError):
        record(np.full((1, 3, 1, 2), 0.5), gen=(9,), columns=(0, 1), group=2)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_attention_record_rejects_non_finite_weights(bad):
    with pytest.raises(NumericalFailure, match="non-finite"):
        record([[[[bad, 0.5]]]], gen=(9,), columns=(0, 1))


def test_mass_sums_over_generation_rows():
    attn = record([[[[0.5, 0.3, 0.2], [0.1, 0.6, 0.3]]]], gen=(13, 14), columns=(10, 11, 12))
    table = attention_mass_headwise(attn, (13, 14), (10, 11, 12))
    assert table.positions == (10, 11, 12)
    assert table.masses.shape == (1, 1, 3)
    assert table.masses[0, 0] == pytest.approx([0.6, 0.9, 0.5])


def test_mass_of_single_generation_row_is_that_row():
    attn = record([[[[0.5, 0.3, 0.2], [0.1, 0.6, 0.3]]]], gen=(13, 14), columns=(10, 11, 12))
    table = attention_mass_headwise(attn, (14,), (10, 11, 12))
    assert table.masses[0, 0] == pytest.approx([0.1, 0.6, 0.3])


def test_uniform_attention_mass_is_gen_count_over_columns():
    attn = record(np.full((1, 1, 40, 4), 0.25), gen=range(100, 140), columns=range(4))
    table = attention_mass_headwise(attn, tuple(range(100, 140)), tuple(range(4)))
    assert np.all(table.masses == 10.0)


def test_query_heads_fold_into_kv_heads():
    w = np.zeros((1, 2, 1, 2))
    w[0, 0, 0] = [0.75, 0.25]
    w[0, 1, 0] = [0.5, 0.5]
    attn = record(w, gen=(7,), columns=(0, 1), group=2)
    assert attn.num_kv_heads == 1
    table = attention_mass_headwise(attn, (7,), (0, 1))
    assert table.masses.shape == (1, 1, 2)
    assert table.masses[0, 0] == pytest.approx([1.25, 0.75])


def test_mass_requires_known_columns_and_rows():
    attn = record([[[[1.0]]]], gen=(5,), columns=(0,))
    with pytest.raises(MissingColumn):
        attention_mass_headwise(attn, (5,), (0, 3))
    with pytest.raises(MissingColumn):
        attention_mass_headwise(attn, (6,), (0,))
    with pytest.raises(ValueError):
        attention_mass_headwise(attn, (), (0,))


def test_layer_aggregation_sums_heads():
    table = MassTable(positions=(7,), masses=[[[0.5], [1.5]], [[1.25], [2.25]]])
    assert np.array_equal(aggregate_layerwise(table), [[2.0], [3.5]])
    assert np.array_equal(aggregate_global(table), [5.5])


def test_single_head_aggregation_is_identity():
    table = MassTable(positions=(3, 4), masses=[[[0.25, 0.5]]])
    assert np.array_equal(aggregate_layerwise(table), [[0.25, 0.5]])
    assert np.array_equal(aggregate_global(table), [0.25, 0.5])


def test_global_is_aggregate_of_layerwise():
    rng = np.random.default_rng(11)
    table = MassTable(positions=(2, 5, 6), masses=rng.random((3, 2, 3)))
    layered = aggregate_layerwise(table)
    direct = aggregate_global(table)
    recomposed = np.zeros(3)
    for layer_masses in layered:
        recomposed = recomposed + layer_masses
    assert np.array_equal(direct, recomposed)


def test_global_sums_heads_before_layers():
    # (1 + 0) + (6e-17 + 6e-17) rounds up to 1 + 2**-52; summing layers
    # first, (1 + 6e-17) + (0 + 6e-17), would round back down to 1.
    table = MassTable(positions=(7,), masses=[[[1.0], [0.0]], [[6e-17], [6e-17]]])
    assert aggregate_global(table)[0] == 1.0 + 2.0**-52


def test_mass_table_validates_units_and_positions():
    with pytest.raises(ValueError):
        MassTable(positions=(1,), masses=np.ones((1, 1, 2)))  # one position, two columns
    with pytest.raises(ValueError):
        MassTable(positions=(1, 2), masses=np.ones((1, 2)))  # no head axis
    with pytest.raises(ValueError):
        MassTable(positions=(1,), masses=np.ones((0, 1, 1)))  # no units
    with pytest.raises(ValueError):
        MassTable(positions=(2, 1), masses=np.ones((1, 1, 2)))  # not increasing


def test_mass_table_is_read_only():
    source = np.ones((1, 1, 2))
    table = MassTable(positions=(1, 2), masses=source)
    source[0, 0, 0] = 5.0
    assert table.masses[0, 0, 0] == 1.0
    with pytest.raises(ValueError):
        table.masses[0, 0, 0] = 2.0


def test_demand_sums_split_mass():
    table = MassTable(positions=(1, 2, 3, 4), masses=[[[0.4, 0.2, 0.3, 0.1]]])
    sums, rest = demand_sums(table, np.array([True, True, False, False]))
    assert sums[0, 0] == pytest.approx((0.6, 0.4))
    assert rest.tolist() == [[[0.3, 0.1]]]
    sums, rest = demand_sums(table, np.ones(4, dtype=bool))
    assert sums[0, 0] == pytest.approx((1.0, 0.0))
    assert rest.shape == (1, 1, 0)


def test_demand_sums_rejects_a_non_boolean_mask():
    table = MassTable(positions=(1, 2), masses=[[[0.4, 0.6]]])
    with pytest.raises(DimensionMismatch):
        demand_sums(table, np.array([1, 0]))


def test_demand_sums_rejects_a_mask_of_the_wrong_length():
    table = MassTable(positions=(1, 2), masses=[[[0.4, 0.6]]])
    with pytest.raises(DimensionMismatch):
        demand_sums(table, np.array([True, False, False]))


def test_demand_sums_per_unit():
    table = MassTable(positions=(1, 2), masses=[[[1.0, 3.0], [2.0, 0.5]]])
    sums, _ = demand_sums(table, np.array([True, False]))
    assert sums.shape == (1, 2, 2)
    assert sums[0, 0] == pytest.approx((1.0, 3.0))
    assert sums[0, 1] == pytest.approx((2.0, 0.5))


@pytest.mark.parametrize("units", [(1, 1), (2, 3)])
@given(kept=st.lists(st.booleans(), min_size=1, max_size=40), seed=st.integers(0, 2**32 - 1))
@example(kept=[i % 3 == 0 for i in range(300)], seed=5)  # long runs
@example(kept=[False, False, False], seed=1)  # empty keep
@example(kept=[True, True, True], seed=2)  # nothing deleted
@settings(max_examples=40, deadline=None)
def test_demand_sums_add_left_to_right(units, kept, seed):
    # Reports carry these sums, so each must equal the plain sequential
    # float sum over a position -> column lookup exactly, not a pairwise
    # reduction of it, down to an all-kept or all-deleted split.
    rng = np.random.default_rng(seed)
    positions = tuple(np.cumsum(rng.integers(1, 5, size=len(kept))).tolist())
    table = MassTable(positions=positions, masses=rng.random(units + (len(kept),)))
    keep = [p for p, k in zip(positions, kept) if k]
    deleted = [p for p, k in zip(positions, kept) if not k]
    sums, rest = demand_sums(table, np.array(kept))
    col_of = {pos: col for col, pos in enumerate(positions)}
    for layer, head in np.ndindex(units):
        row = table.masses[layer, head]
        assert sums[layer, head, 0] == sum(row[col_of[p]] for p in keep)
        assert sums[layer, head, 1] == sum(row[col_of[p]] for p in deleted)
        assert rest[layer, head].tolist() == [row[col_of[p]] for p in deleted]


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_mass_conserves_generation_count(seed):
    rng = np.random.default_rng(seed)
    layers = int(rng.integers(1, 3))
    group = int(rng.integers(1, 3))
    kv_heads = int(rng.integers(1, 3))
    gen = int(rng.integers(1, 12))
    cols = int(rng.integers(1, 15))
    w = softmax_weights(rng, layers, kv_heads * group, gen, cols)
    attn = record(w, gen=range(50, 50 + gen), columns=range(cols), group=group)
    table = attention_mass_headwise(attn, tuple(range(50, 50 + gen)), tuple(range(cols)))
    assert np.allclose(table.masses.sum(axis=2), group * gen, rtol=0.0, atol=1e-9)
    # and the tensor-reduction oracle agrees entry by entry
    expected = oracles.headwise_mass(w, list(range(gen)), list(range(cols)), group)
    assert np.allclose(table.masses, expected, rtol=0.0, atol=1e-12)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_mass_ignores_generation_row_order(seed):
    rng = np.random.default_rng(seed)
    gen = int(rng.integers(2, 8))
    w = softmax_weights(rng, 1, 2, gen, 6)
    gen_positions = tuple(range(30, 30 + gen))
    attn = record(w, gen=gen_positions, columns=range(6), group=1)
    shuffled = tuple(rng.permutation(gen_positions).tolist())
    a = attention_mass_headwise(attn, gen_positions, tuple(range(6)))
    b = attention_mass_headwise(attn, shuffled, tuple(range(6)))
    assert np.abs(a.masses - b.masses).max() <= 1e-12


def test_mass_rejects_repeated_generation_positions():
    attn = record([[[[0.5, 0.5], [0.25, 0.75]]]], gen=(10, 11), columns=(0, 1))
    with pytest.raises(ValueError, match="distinct"):
        attention_mass_headwise(attn, (10, 10), (0, 1))


def _mass_two_step(attn, gen, prompt):
    """Reference: dict lookups, then one (layers, heads, rows, columns) gather, then the sums."""
    col_of = {pos: i for i, pos in enumerate(attn.columns)}
    row_of = {pos: i for i, pos in enumerate(attn.gen_positions)}
    rows = np.array([row_of[g] for g in gen], dtype=np.int64)
    cols = np.array([col_of[p] for p in prompt], dtype=np.int64)
    per_query = attn.weights[:, :, rows[:, None], cols].sum(axis=2)
    grouped = per_query.reshape(attn.num_layers, attn.num_kv_heads, attn.kv_group_size, len(cols))
    return grouped.sum(axis=2)


@given(
    seed=st.integers(0, 2**32 - 1),
    rows_kind=st.sampled_from(["all", "shuffled", "subset"]),
    cols_kind=st.sampled_from(["all", "gaps", "offset", "one"]),
)
@settings(max_examples=150, deadline=None)
def test_mass_matches_two_step_gather_bit_for_bit(seed, rows_kind, cols_kind):
    rng = np.random.default_rng(seed)
    layers, group, kv_heads = (int(x) for x in rng.integers(1, 3, size=3))
    gen, cols = int(rng.integers(1, 40)), int(rng.integers(1, 60))
    w = softmax_weights(rng, layers, kv_heads * group, gen, cols)
    gen_positions = tuple(range(500, 500 + gen))
    columns = tuple(range(7, 7 + 3 * cols, 3))
    attn = record(w, gen=gen_positions, columns=columns, group=group)
    if rows_kind == "all":
        rows = gen_positions
    elif rows_kind == "shuffled":
        rows = tuple(rng.permutation(gen_positions).tolist())
    else:
        rows = tuple(rng.choice(gen_positions, int(rng.integers(1, gen + 1)), replace=False).tolist())
    if cols_kind == "all":
        prompt = columns
    elif cols_kind == "gaps":
        prompt = tuple(sorted(rng.choice(columns, int(rng.integers(1, cols + 1)), replace=False).tolist()))
    elif cols_kind == "offset":
        prompt = columns[int(rng.integers(0, cols)):]
    else:
        prompt = (columns[int(rng.integers(0, cols))],)
    table = attention_mass_headwise(attn, rows, prompt)
    assert table.positions == prompt
    assert np.array_equal(table.masses, _mass_two_step(attn, rows, prompt))


def test_mass_of_one_column_matches_two_step_gather_for_a_single_unit():
    # One layer, one query head, one column, many rows: the shape at which
    # numpy's reduction order depends on what is summed.
    rng = np.random.default_rng(4)
    w = softmax_weights(rng, 1, 1, 40, 30)
    attn = record(w, gen=range(100, 140), columns=range(30))
    for col in range(30):
        table = attention_mass_headwise(attn, tuple(range(100, 140)), (col,))
        assert np.array_equal(table.masses, _mass_two_step(attn, range(100, 140), (col,)))


def test_record_copies_a_writeable_array():
    source = np.full((1, 1, 1, 2), 0.5)
    attn = record(source, gen=(9,), columns=(0, 1))
    source[0, 0, 0, 0] = 7.0
    assert attn.weights[0, 0, 0, 0] == 0.5
    assert not np.shares_memory(attn.weights, source)
    assert not attn.weights.flags.writeable


def test_record_shares_a_read_only_owning_array_and_copies_a_read_only_view():
    owned = np.full((1, 1, 1, 2), 0.5)
    owned.flags.writeable = False
    assert record(owned, gen=(9,), columns=(0, 1)).weights is owned
    base = np.full((1, 1, 2, 2), 0.5)
    view = base[:, :, :1, :]
    view.flags.writeable = False
    attn = record(view, gen=(9,), columns=(0, 1))
    assert not np.shares_memory(attn.weights, base)


def test_record_checks_a_shared_array():
    bad = np.full((1, 1, 1, 2), 0.25)  # rows sum to 0.5
    bad.flags.writeable = False
    with pytest.raises(ValueError, match="sum to 1"):
        record(bad, gen=(9,), columns=(0, 1))
    nan = np.array([[[[np.nan, 0.5]]]])
    nan.flags.writeable = False
    with pytest.raises(NumericalFailure):
        record(nan, gen=(9,), columns=(0, 1))
