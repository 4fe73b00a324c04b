"""The benchmark tracer in perfbench/ wraps kvrelay functions by module and name."""

import importlib
import importlib.util
import sys
from pathlib import Path

import kvrelay.cli
import kvrelay.relay
from kvrelay.backbone import EpisodeSpec, episode_source, generate_episode
from kvrelay.compress import CompressionConfig
from kvrelay.fixtures import save_episode_fixture

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_tracer_targets_resolve_on_kvrelay():
    tracer = load_tracer()
    for module_name, func_name in tracer.TARGETS:
        module = importlib.import_module(f"kvrelay.{module_name}")
        assert callable(getattr(module, func_name, None)), f"kvrelay.{module_name}.{func_name}"


def test_tracer_mass_counter_reads_positional_arguments():
    tracer = load_tracer()
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
    tracer_module = load_tracer()
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
