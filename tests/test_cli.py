"""Config parsing, simulate sweeps, exit codes and output determinism."""

import dataclasses
import json
import textwrap

import pytest
import yaml

from kvrelay import cli, fixtures
from kvrelay.backbone import EpisodeSpec, generate_episode
from kvrelay.cli import ConfigError, load_run_config, main
from kvrelay.compress import CompressionConfig
from kvrelay.fixtures import save_episode_fixture

BASE_CONFIG = textwrap.dedent(
    """\
    chain:
      num_agents: 3
      latent_steps: 4
      seed: 7
      compression:
        budget_k: 4
        sink_size: 2
    episodes:
      - prompt_lens: [10, 9, 11]
        num_layers: 1
        num_kv_heads: 1
        kv_group_size: 1
        key_dim: 5
        value_dim: 8
    methods: [full, streaming, h2o_global]
    """
)


def write_config(tmp_path, text=BASE_CONFIG, name="run.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_config_defaults(tmp_path):
    cfg = load_run_config(write_config(tmp_path))
    assert cfg.chain.seed == 7
    assert cfg.chain.compression.budget_k == 4
    assert cfg.methods == ["full", "streaming", "h2o_global"]
    assert len(cfg.episodes) == 1
    spec = cfg.episodes[0].spec
    assert spec.seed == 7  # chain seed + episode index
    assert spec.gen_len == 4  # inherited from latent_steps


def test_load_config_rejects_unknown_keys(tmp_path):
    path = write_config(tmp_path, BASE_CONFIG + "plot: true\n")
    with pytest.raises(ConfigError):
        load_run_config(path)


def test_load_config_rejects_unknown_method(tmp_path):
    path = write_config(tmp_path, BASE_CONFIG.replace("h2o_global", "h2o_quadratic"))
    with pytest.raises(ConfigError):
        load_run_config(path)


def test_load_config_rejects_round_count_mismatch(tmp_path):
    path = write_config(tmp_path, BASE_CONFIG.replace("[10, 9, 11]", "[10, 9]"))
    with pytest.raises(ConfigError):
        load_run_config(path)


def test_simulate_writes_reports_and_summary(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "runs"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    for method in ("full", "streaming", "h2o_global"):
        report = json.loads((out / f"{method}__ep000.json").read_text())
        assert report["method"] == method
        assert report["episode"] == 0
        assert len(report["rounds"]) == 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seed"] == 7
    assert set(summary["methods"]) == {"full", "streaming", "h2o_global"}
    # full keeps every prompt row outside the round-1 sink carve: 28 of 30
    assert summary["methods"]["full"]["rho_achieved"] == 28 / 30
    captured = capsys.readouterr().out
    assert "full" in captured and "wrote 3 report(s)" in captured


def test_simulate_method_override(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "runs"
    code = main(
        ["simulate", "--config", str(config), "--out", str(out), "--method", "h2o_obf_headwise"]
    )
    assert code == 0
    assert (out / "h2o_obf_headwise__ep000.json").exists()
    assert not (out / "full__ep000.json").exists()


def test_simulate_seed_override_changes_outputs(tmp_path):
    config = write_config(tmp_path)
    out_a, out_b, out_c = (tmp_path / name for name in ("a", "b", "c"))
    main(["simulate", "--config", str(config), "--out", str(out_a)])
    main(["simulate", "--config", str(config), "--out", str(out_b), "--seed", "99"])
    main(["simulate", "--config", str(config), "--out", str(out_c)])
    name = "h2o_global__ep000.json"
    assert (out_a / name).read_bytes() == (out_c / name).read_bytes()
    assert (out_a / name).read_bytes() != (out_b / name).read_bytes()
    assert json.loads((out_b / "summary.json").read_text())["seed"] == 99


def test_simulate_missing_config_exits_2(tmp_path, capsys):
    out = tmp_path / "runs"
    code = main(["simulate", "--config", str(tmp_path / "nope.yaml"), "--out", str(out)])
    assert code == 2
    assert not out.exists()
    assert "error:" in capsys.readouterr().err


def test_simulate_conflicting_budgets_exit_2(tmp_path, capsys):
    text = BASE_CONFIG.replace("budget_k: 4", "budget_k: 4\n    budget_ratio: 0.5")
    code = main(["simulate", "--config", str(write_config(tmp_path, text)), "--out", str(tmp_path / "r")])
    assert code == 2
    assert not (tmp_path / "r").exists()


def test_simulate_short_fixture_exits_2(tmp_path, capsys):
    spec = EpisodeSpec(
        seed=1, num_layers=1, num_kv_heads=1, kv_group_size=1,
        key_dim=4, value_dim=4, prompt_lens=(8,), gen_len=4,
    )
    save_episode_fixture(tmp_path / "short.json", [generate_episode(spec, 1)])
    text = textwrap.dedent(
        """\
        chain:
          num_agents: 3
          latent_steps: 4
          compression:
            budget_k: 3
            sink_size: 1
        episodes:
          - fixture: short.json
        methods: [h2o_global]
        """
    )
    out = tmp_path / "runs"
    code = main(["simulate", "--config", str(write_config(tmp_path, text)), "--out", str(out)])
    assert code == 2
    assert not out.exists()  # no partial outputs
    assert capsys.readouterr().err == "error: fixture short.json has 1 rounds for 3 agents\n"


def test_simulate_from_emitted_fixture_matches_spec_run(tmp_path):
    config = write_config(tmp_path)
    out_spec = tmp_path / "from_spec"
    assert (
        main(
            ["simulate", "--config", str(config), "--out", str(out_spec),
             "--method", "h2o_global", "--emit-fixtures"]
        )
        == 0
    )
    fixture = out_spec / "fixtures" / "ep000.json"
    assert fixture.exists()

    text = textwrap.dedent(
        f"""\
        chain:
          num_agents: 3
          latent_steps: 4
          seed: 7
          compression:
            budget_k: 4
            sink_size: 2
        episodes:
          - fixture: {fixture}
        methods: [h2o_global]
        """
    )
    out_fix = tmp_path / "from_fixture"
    assert main(["simulate", "--config", str(write_config(tmp_path, text, "fix.yaml")), "--out", str(out_fix)]) == 0
    a = json.loads((out_spec / "h2o_global__ep000.json").read_text())
    b = json.loads((out_fix / "h2o_global__ep000.json").read_text())
    assert a["rounds"] == b["rounds"]
    assert a["totals"] == b["totals"]


def test_simulate_verbosity_writes_csv(tmp_path):
    text = BASE_CONFIG + "verbosity: 1\n"
    out = tmp_path / "runs"
    assert main(["simulate", "--config", str(write_config(tmp_path, text)), "--out", str(out)]) == 0
    csv_text = (out / "h2o_global__ep000.csv").read_text()
    assert csv_text.splitlines()[0] == "round,prompt_len,kept_prompt,gen_len,message_len,rho_achieved,r_eff"
    assert csv_text.splitlines()[-1].startswith("totals,")


def test_ratio_table_prints_reference_rows(capsys):
    assert main(["ratio-table"]) == 0
    out = capsys.readouterr().out
    assert "GSM8K" in out and "524" in out and "18.3" in out
    assert "MedQA" in out and "888" in out and "10.8" in out
    assert "ARC-E" in out and "496" in out and "19.4" in out


def test_simulate_nan_fixture_exits_3(tmp_path, capsys):
    spec = EpisodeSpec(
        seed=2, num_layers=1, num_kv_heads=1, kv_group_size=1,
        key_dim=4, value_dim=12, prompt_lens=(40, 30, 36), gen_len=4,
    )
    fixture = tmp_path / "nan.json"
    save_episode_fixture(fixture, [generate_episode(spec, i) for i in (1, 2, 3)])
    doc = json.loads(fixture.read_text())
    doc["rounds"][0]["cache"]["values"][0][0][10][3] = float("nan")
    fixture.write_text(json.dumps(doc))
    text = textwrap.dedent(
        """\
        chain:
          num_agents: 3
          latent_steps: 4
          compression:
            budget_k: 8
            sink_size: 2
        episodes:
          - fixture: nan.json
        methods: [h2o_obf_headwise]
        """
    )
    out = tmp_path / "runs"
    code = main(["simulate", "--config", str(write_config(tmp_path, text)), "--out", str(out)])
    assert code == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and "non-finite" in err
    assert err.count("\n") == 1


def _nan_fixture_run(tmp_path, capsys, poison):
    spec = EpisodeSpec(
        seed=3, num_layers=1, num_kv_heads=1, kv_group_size=1,
        key_dim=4, value_dim=4, prompt_lens=(12, 10, 11), gen_len=4,
    )
    fixture = tmp_path / "nan.json"
    save_episode_fixture(fixture, [generate_episode(spec, i) for i in (1, 2, 3)])
    doc = json.loads(fixture.read_text())
    poison(doc["rounds"][1])
    fixture.write_text(json.dumps(doc))
    text = textwrap.dedent(
        """\
        chain:
          num_agents: 3
          latent_steps: 4
          compression:
            budget_k: 3
            sink_size: 1
        episodes:
          - fixture: nan.json
        methods: [h2o_global]
        """
    )
    out = tmp_path / "runs"
    code = main(["simulate", "--config", str(write_config(tmp_path, text)), "--out", str(out)])
    assert code == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and "non-finite" in err
    assert err.count("\n") == 1


def test_simulate_nan_cache_value_exits_3(tmp_path, capsys):
    def poison(round_doc):
        round_doc["cache"]["values"][0][0][2][1] = float("nan")

    _nan_fixture_run(tmp_path, capsys, poison)


def test_simulate_nan_attention_weight_exits_3(tmp_path, capsys):
    def poison(round_doc):
        round_doc["attention"]["weights"][0][0][1][3] = float("nan")

    _nan_fixture_run(tmp_path, capsys, poison)


def test_load_config_rejects_non_integer_verbosity(tmp_path):
    path = write_config(tmp_path, BASE_CONFIG + "verbosity: loud\n")
    with pytest.raises(ConfigError, match="verbosity"):
        load_run_config(path)


def test_load_config_rejects_methods_string(tmp_path):
    path = write_config(tmp_path, BASE_CONFIG.replace("[full, streaming, h2o_global]", "h2o_global"))
    with pytest.raises(ConfigError, match="methods must be a list"):
        load_run_config(path)


def test_simulate_parses_each_fixture_once(tmp_path, monkeypatch):
    spec = EpisodeSpec(
        seed=4, num_layers=1, num_kv_heads=1, kv_group_size=1,
        key_dim=4, value_dim=4, prompt_lens=(12, 10, 11), gen_len=4,
    )
    save_episode_fixture(tmp_path / "ep.json", [generate_episode(spec, i) for i in (1, 2, 3)])
    loads = []
    real_load = fixtures.load_episode_fixture
    monkeypatch.setattr(fixtures, "load_episode_fixture", lambda path: loads.append(path) or real_load(path))
    text = textwrap.dedent(
        """\
        chain:
          num_agents: 3
          latent_steps: 4
          compression:
            budget_k: 3
            sink_size: 1
        episodes:
          - fixture: ep.json
        methods: [full, streaming, h2o_global, h2o_obf_headwise]
        """
    )
    out = tmp_path / "runs"
    assert main(["simulate", "--config", str(write_config(tmp_path, text)), "--out", str(out)]) == 0
    assert len(loads) == 1
    assert len(list(out.glob("*__ep000.json"))) == 4


ALL_METHODS = (
    "full", "streaming", "h2o_global", "h2o_layerwise", "h2o_headwise",
    "h2o_obf_global", "h2o_obf_layerwise", "h2o_obf_headwise",
)


def _spec_and_fixture_config(tmp_path, methods=ALL_METHODS, verbosity=0):
    """Active OBF (budget_k 3 < value_dim 6) over one spec and one fixture episode."""
    spec = EpisodeSpec(
        seed=5, num_layers=2, num_kv_heads=2, kv_group_size=1,
        key_dim=4, value_dim=6, prompt_lens=(14, 12, 13), gen_len=4,
    )
    save_episode_fixture(tmp_path / "ep.json", [generate_episode(spec, i) for i in (1, 2, 3)])
    text = textwrap.dedent(
        f"""\
        chain:
          num_agents: 3
          latent_steps: 4
          seed: 2
          compression:
            budget_k: 3
            sink_size: 1
        episodes:
          - prompt_lens: [12, 15, 11]
            num_layers: 2
            num_kv_heads: 2
            kv_group_size: 1
            key_dim: 4
            value_dim: 6
          - fixture: ep.json
        methods: [{", ".join(methods)}]
        verbosity: {verbosity}
        """
    )
    return write_config(tmp_path, text)


def test_simulate_runs_one_chain_per_base_method_and_generates_once(tmp_path, monkeypatch):
    config = _spec_and_fixture_config(tmp_path)
    counts = {"run_chain": 0, "generate_episode": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "run_chain", counted("run_chain", cli.run_chain))
    monkeypatch.setattr(cli, "generate_episode", counted("generate_episode", cli.generate_episode))
    out = tmp_path / "runs"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    assert counts == {"run_chain": 4 * 2, "generate_episode": 3}  # 4 base methods x 2 episodes
    assert len(list(out.glob("*__ep*.json"))) == 8 * 2


def test_simulate_sweep_reports_match_single_method_runs(tmp_path):
    config = _spec_and_fixture_config(tmp_path, verbosity=2)
    sweep = tmp_path / "sweep"
    assert main(["simulate", "--config", str(config), "--out", str(sweep)]) == 0
    active = json.loads((sweep / "h2o_obf_headwise__ep001.json").read_text())
    assert any(not unit["skipped"] for r in active["obf"]["per_round"] for unit in r["units"])
    for method in ALL_METHODS:
        single = tmp_path / method
        assert main(["simulate", "--config", str(config), "--out", str(single), "--method", method]) == 0
        for index in (0, 1):
            name = f"{method}__ep{index:03d}.json"
            assert (sweep / name).read_bytes() == (single / name).read_bytes(), name


def _drop_positions(doc):
    del doc["rounds"][0]["cache"]["positions"]
    return doc


def _empty_prompt(doc):
    doc["rounds"][1]["prompt"] = []
    return doc


def _negative_weight(doc):
    doc["rounds"][0]["attention"]["weights"][0][0][0][3] = -1e-13
    return doc


def _swapped_prompt(doc):
    prompt = doc["rounds"][0]["prompt"]
    prompt[2], prompt[3] = prompt[3], prompt[2]
    return doc


def _fractional_generation(doc):
    round_doc = doc["rounds"][0]
    round_doc["generation"] = [p + 0.5 for p in round_doc["generation"]]
    return doc


def _fractional_cache_positions(doc):
    cache = doc["rounds"][0]["cache"]
    cache["positions"] = [p + 0.25 for p in cache["positions"]]
    return doc


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda text: json.dumps(_drop_positions(json.loads(text))),
        lambda text: "{not json",
        lambda text: json.dumps(_empty_prompt(json.loads(text))),
        lambda text: json.dumps(_negative_weight(json.loads(text))),
        lambda text: json.dumps(_swapped_prompt(json.loads(text))),
        lambda text: json.dumps(_fractional_generation(json.loads(text))),
        lambda text: json.dumps(_fractional_cache_positions(json.loads(text))),
    ],
    ids=[
        "missing_positions", "not_json", "empty_prompt", "negative_weight",
        "swapped_prompt", "fractional_generation", "fractional_cache_positions",
    ],
)
def test_simulate_malformed_fixture_exits_2(tmp_path, capsys, corrupt):
    config = _spec_and_fixture_config(tmp_path, methods=("h2o_global",))
    fixture = tmp_path / "ep.json"
    fixture.write_text(corrupt(fixture.read_text()))
    out = tmp_path / "runs"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: fixture ep.json is malformed")
    assert err.count("\n") == 1


def test_simulate_prompt_position_missing_from_cache_exits_3(tmp_path, capsys):
    spec = EpisodeSpec(
        seed=5, num_layers=2, num_kv_heads=2, kv_group_size=1,
        key_dim=4, value_dim=6, prompt_lens=(14, 12, 13), gen_len=4,
    )
    fixture = tmp_path / "ep.json"
    save_episode_fixture(fixture, [generate_episode(spec, i) for i in (1, 2, 3)])
    doc = json.loads(fixture.read_text())
    cache = doc["rounds"][0]["cache"]
    row = cache["positions"].index(5)
    del cache["positions"][row]
    for name in ("keys", "values"):
        for layer in cache[name]:
            for head in layer:
                del head[row]
    fixture.write_text(json.dumps(doc))
    text = textwrap.dedent(
        """\
        chain:
          num_agents: 3
          latent_steps: 4
          compression:
            budget_k: 4
            sink_size: 1
        episodes:
          - fixture: ep.json
        methods: [h2o_global, h2o_obf_global]
        """
    )
    config = write_config(tmp_path, text)
    # plain h2o deletes position 5 and never reads its row
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "h2o"), "--method", "h2o_global"]) == 0
    capsys.readouterr()
    out = tmp_path / "runs"
    assert main(["simulate", "--config", str(config), "--out", str(out), "--method", "h2o_obf_global"]) == 3
    assert not out.exists()
    assert capsys.readouterr().err == "numerical failure: position 5 is not in the cache\n"


def test_config_accepts_and_echoes_every_dataclass_field(tmp_path):
    episode = dict(
        seed=11, num_layers=1, num_kv_heads=1, kv_group_size=2, key_dim=3, value_dim=5,
        prompt_lens=[9, 8, 10], gen_len=4, value_structure="low_rank", value_rank=2,
    )
    compression = dict(budget_k=None, budget_ratio=0.5, pca_rank=2, epsilon=1e-9, sink_size=1)
    assert set(episode) == {f.name for f in dataclasses.fields(EpisodeSpec)}
    assert set(compression) == {f.name for f in dataclasses.fields(CompressionConfig)} - {
        "method", "granularity",
    }
    doc = {
        "chain": {"num_agents": 3, "latent_steps": 4, "seed": 5, "compression": compression},
        "episodes": [episode],
        "methods": ["h2o_obf_global"],
    }
    out = tmp_path / "runs"
    assert main(["simulate", "--config", str(write_config(tmp_path, yaml.safe_dump(doc))), "--out", str(out)]) == 0
    echo = json.loads((out / "h2o_obf_global__ep000.json").read_text())["config"]
    assert echo == dict(
        num_agents=3, latent_steps=4, seed=5, **compression, episode="spec0", episode_spec=episode
    )


@pytest.mark.parametrize(
    "where, edit, message",
    [
        (
            "episode 0",
            lambda doc: doc["episodes"][0].update(plot=True),
            "unknown keys ['plot'] in episode 0 (allowed: ['gen_len', 'key_dim', 'kv_group_size', "
            "'num_kv_heads', 'num_layers', 'prompt_lens', 'seed', 'value_dim', 'value_rank', "
            "'value_structure'])",
        ),
        (
            "chain.compression",
            lambda doc: doc["chain"]["compression"].update(method="h2o"),
            "unknown keys ['method'] in chain.compression (allowed: ['budget_k', 'budget_ratio', "
            "'epsilon', 'pca_rank', 'sink_size'])",
        ),
        (
            "chain",
            lambda doc: doc["chain"].update(rounds=3),
            "unknown keys ['rounds'] in chain (allowed: ['compression', 'latent_steps', "
            "'num_agents', 'seed'])",
        ),
    ],
)
def test_config_unknown_key_messages(tmp_path, where, edit, message):
    doc = yaml.safe_load(BASE_CONFIG)
    edit(doc)
    with pytest.raises(ConfigError) as info:
        load_run_config(write_config(tmp_path, yaml.safe_dump(doc)))
    assert str(info.value) == message
