"""The benchmark tracer in perfbench/ wraps kvrelay functions by module and name."""

import importlib
import importlib.util
import sys
from pathlib import Path

from kvrelay.backbone import EpisodeSpec, generate_episode

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
