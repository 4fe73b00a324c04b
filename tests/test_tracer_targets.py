"""perfbench/ reads kvrelay from outside: its tracer wraps functions, its checks read results."""

import importlib
import importlib.util
import sys
from pathlib import Path

import kvrelay.cli
import kvrelay.relay
from kvrelay.backbone import EpisodeSpec, episode_source, generate_episode
from kvrelay.compress import CompressionConfig
from kvrelay.fixtures import save_episode_fixture

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    """Import ``perfbench/<name>.py`` by path, without making it importable afterwards."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_tracer_targets_resolve_on_kvrelay():
    tracer = load_perfbench("tracer")
    for module_name, func_name in tracer.TARGETS:
        module = importlib.import_module(f"kvrelay.{module_name}")
        assert callable(getattr(module, func_name, None)), f"kvrelay.{module_name}.{func_name}"


def test_tracer_mass_counter_reads_positional_arguments():
    tracer = load_perfbench("tracer")
    scoring = importlib.import_module("kvrelay.scoring")
    ep = generate_episode(EpisodeSpec(num_layers=2, num_kv_heads=3, kv_group_size=1, prompt_lens=(9,), gen_len=3), 1)
    args = (ep.attention, ep.generation, ep.prompt)
    masses = scoring.attention_mass_headwise(*args)
    counted = tracer.TARGETS[("scoring", "attention_mass_headwise")](args, masses)
    assert counted == {"scoring.mass_entries": masses.size}


def test_every_tracer_counter_reads_a_real_call(tmp_path):
    """Each work counter computes an int from the arguments and result of a real call.

    The chain keeps 2 of at least 8 eligible rows of 6-dimensional values, so
    every backfill unit is active; the CLI run replays a saved fixture.
    """
    tracer_module = load_perfbench("tracer")
    spec = EpisodeSpec(seed=5, num_layers=1, num_kv_heads=2, kv_group_size=1, key_dim=4,
                       value_dim=6, prompt_lens=(10, 9), gen_len=3)
    chain = kvrelay.relay.ChainConfig(
        num_agents=2, latent_steps=3,
        compression=CompressionConfig(method="h2o_obf", budget_k=2, sink_size=1),
    )
    fixture = tmp_path / "ep.json"
    save_episode_fixture(fixture, [generate_episode(spec, i) for i in (1, 2)])
    config = tmp_path / "run.yaml"
    config.write_text(
        "chain:\n  num_agents: 2\n  latent_steps: 3\n  compression:\n    budget_k: 2\n    sink_size: 1\n"
        f"episodes:\n  - fixture: {fixture.name}\nmethods: [h2o_obf_global]\n"
    )
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        _, report = kvrelay.relay.run_chain(episode_source(spec), chain)
        status = kvrelay.cli.main(["simulate", "--config", str(config), "--out", str(tmp_path / "runs")])
    finally:
        tracer.uninstall()
    assert status == 0
    assert report.obf_units and not report.obf_skipped
    recorded = {}
    for span in tracer.spans:
        for name, value in (span.work or {}).items():
            recorded.setdefault(name, []).append(value)
    for name in tracer_module.COUNTERS:
        assert recorded.get(name), name
        assert all(type(value) is int for value in recorded[name]), (name, recorded[name])


def test_chain_check_reads_the_backfill_trace():
    """``workloads.check_chain`` passes an active h2o_obf chain and flags every unit of one that skips.

    With budget_k 2 of 6 value dimensions every unit is active; with budget_k
    6 the kept Gaussian rows have full rank, so every unit skips.
    """
    workloads = load_perfbench("workloads")
    spec = EpisodeSpec(seed=5, num_layers=2, num_kv_heads=1, kv_group_size=2, key_dim=4,
                       value_dim=6, prompt_lens=(12, 10), gen_len=3)
    rounds = [generate_episode(spec, i) for i in (1, 2)]
    problems = {}
    for budget_k in (2, 6):
        chain = kvrelay.relay.ChainConfig(
            num_agents=2, latent_steps=3,
            compression=CompressionConfig(method="h2o_obf", budget_k=budget_k, sink_size=1),
        )
        message, report = kvrelay.relay.run_chain(lambda i: rounds[i - 1], chain)
        assert report.obf_units == 4 and report.obf_skipped == (0 if budget_k == 2 else 4)
        problems[budget_k] = workloads.check_chain(rounds, message, report, budget_k, sink_size=1, obf=True)
    assert problems[2] == []
    assert problems[6] == [
        f"round {r} unit {unit} took the skip path" for r in (1, 2) for unit in ((0, 0), (1, 0))
    ]
