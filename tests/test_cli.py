"""Config parsing, simulate sweeps, exit codes and output determinism."""

import base64
import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

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


_FLOAT_ARRAYS = (("cache", "keys"), ("cache", "values"), ("attention", "weights"))


def _decimal_lists(round_doc):
    """Turn a saved round's packed float arrays into the nested decimal lists a person edits."""
    for outer, key in _FLOAT_ARRAYS:
        packed = round_doc[outer][key]
        data = base64.b64decode(packed["float64_le_base64"])
        round_doc[outer][key] = np.frombuffer(data, "<f8").reshape(packed["shape"]).tolist()
    return round_doc


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


@pytest.mark.parametrize("latent_steps", [10**20, 9])
def test_simulate_fixture_generation_unlike_latent_steps_exits_2(tmp_path, capsys, latent_steps):
    # the desk fixture's rounds have 8 generation steps; the report would echo latent_steps
    desk = Path(__file__).resolve().parent / "golden" / "desk.yaml"
    emitted = tmp_path / "desk"
    assert main(["simulate", "--config", str(desk), "--out", str(emitted), "--emit-fixtures", "--method", "full"]) == 0
    doc = yaml.safe_load(desk.read_text())
    doc["chain"]["latent_steps"] = latent_steps
    replay = dict(doc, episodes=[str(emitted / "fixtures" / "ep000.json")], methods=["h2o_global"])
    capsys.readouterr()
    out = tmp_path / "runs"
    assert main(["simulate", "--config", str(write_config(tmp_path, yaml.safe_dump(replay))), "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == (
        f"error: fixture ep000.json round 1 has 8 generation steps for chain.latent_steps {latent_steps}\n"
    )


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
    _decimal_lists(doc["rounds"][0])["cache"]["values"][0][0][10][3] = float("nan")
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


def _poisoned_fixture_run(tmp_path, capsys, poison):
    """Exit code and stderr of ``h2o_global`` on a fixture whose decimal round 2 ``poison`` edited."""
    spec = EpisodeSpec(
        seed=3, num_layers=1, num_kv_heads=1, kv_group_size=1,
        key_dim=4, value_dim=4, prompt_lens=(12, 10, 11), gen_len=4,
    )
    fixture = tmp_path / "ep.json"
    save_episode_fixture(fixture, [generate_episode(spec, i) for i in (1, 2, 3)])
    doc = json.loads(fixture.read_text())
    poison(_decimal_lists(doc["rounds"][1]))
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
          - fixture: ep.json
        methods: [h2o_global]
        """
    )
    out = tmp_path / "runs"
    code = main(["simulate", "--config", str(write_config(tmp_path, text)), "--out", str(out)])
    assert not out.exists()
    return code, capsys.readouterr().err


def _nan_fixture_run(tmp_path, capsys, poison):
    code, err = _poisoned_fixture_run(tmp_path, capsys, poison)
    assert code == 3
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


def test_simulate_overflowing_attention_row_exits_2(tmp_path, capsys):
    # two finite weights of 1.7e308 overflow their row sum: bad input (exit
    # 2), not a non-finite entry (exit 3); numpy's overflow warning would be
    # an error under this suite's warning filter
    def poison(round_doc):
        round_doc["attention"]["weights"][0][0][1][2:4] = [1.7e308, 1.7e308]

    code, err = _poisoned_fixture_run(tmp_path, capsys, poison)
    assert code == 2
    assert err.startswith("error: fixture ep.json is malformed") and "sum to 1" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("leaf", ["1.5", None, True, 10**400], ids=["string", "null", "bool", "huge_int"])
def test_simulate_bad_decimal_leaf_exits_2(tmp_path, capsys, leaf):
    # numpy would read the first three as 1.5, NaN and 1.0; the last is a
    # JSON number that no float holds
    def poison(round_doc):
        round_doc["cache"]["values"][0][0][2][1] = leaf

    code, err = _poisoned_fixture_run(tmp_path, capsys, poison)
    assert code == 2
    assert err.startswith("error: fixture ep.json is malformed") and "cache values" in err
    assert err.count("\n") == 1


def test_simulate_fixture_with_values_whose_squares_overflow_exits_0(tmp_path, capsys):
    """Cache values of 1e200 keep every backfill decision and report finite norms."""
    spec = EpisodeSpec(
        seed=3, num_layers=1, num_kv_heads=1, kv_group_size=1,
        key_dim=8, value_dim=8, prompt_lens=(12, 10, 11), gen_len=4,
    )
    rounds = [generate_episode(spec, i) for i in (1, 2, 3)]
    scaled = [
        dataclasses.replace(ep, cache=dataclasses.replace(ep.cache, values=ep.cache.values * 1e200))
        for ep in rounds
    ]
    units = {}
    for name, episode in (("plain", rounds), ("scaled", scaled)):
        save_episode_fixture(tmp_path / f"{name}.json", episode)
        text = textwrap.dedent(
            f"""\
            chain:
              num_agents: 3
              latent_steps: 4
              compression:
                budget_k: 4
                sink_size: 2
            episodes:
              - fixture: {name}.json
            methods: [h2o_obf_global]
            verbosity: 1
            """
        )
        out = tmp_path / name
        assert main(["simulate", "--config", str(write_config(tmp_path, text)), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        report = json.loads((out / "h2o_obf_global__ep000.json").read_text())
        units[name] = [unit for r in report["obf"]["per_round"] for unit in r["units"]]
    assert [u["skipped"] for u in units["scaled"]] == [u["skipped"] for u in units["plain"]]
    assert not any(u["skipped"] for u in units["plain"])
    assert all(math.isfinite(u["residual_norm"]) for u in units["scaled"])


DEEP_CONFIG = "chain: " + "[" * 50_000 + "\n"


def test_simulate_deep_config_exits_2_under_libyaml(tmp_path):
    # libyaml's composer recursed until the process died (exit 139), so run
    # it in a child process: a crash fails this test instead of pytest
    config = write_config(tmp_path, DEEP_CONFIG)
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "kvrelay", "simulate", "--config", str(config), "--out", str(tmp_path / "runs")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 2, done.stderr[-2000:]
    assert done.stderr.startswith("error:") and "deeper than 32" in done.stderr
    assert done.stderr.count("\n") == 1


def test_simulate_deep_config_exits_2_without_libyaml(tmp_path, capsys, monkeypatch):
    # the pure-Python composer raised RecursionError at 500 levels
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    config = write_config(tmp_path, "chain: " + "[" * 500 + "\n")
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "runs")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "deeper than 32" in err and err.count("\n") == 1


def test_load_config_nesting_limit_is_32(tmp_path):
    # the top-level mapping plus 31 nested lists is 32 levels: parsed, then
    # rejected for its key; one list more is rejected before composing
    for lists, message in ((31, "unknown keys"), (32, "deeper than 32")):
        path = write_config(tmp_path, BASE_CONFIG + "extra: " + "[" * lists + "]" * lists + "\n")
        with pytest.raises(ConfigError, match=message):
            load_run_config(path)


def test_simulate_deep_fixture_exits_2(tmp_path, capsys):
    config = _spec_and_fixture_config(tmp_path)
    (tmp_path / "ep.json").write_text("[" * 100_000)
    out = tmp_path / "runs"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: fixture ep.json is malformed (RecursionError")
    assert err.count("\n") == 1


def test_simulate_unreadable_fixture_exits_2(tmp_path, capsys, monkeypatch):
    # a mode-000 fixture raises PermissionError for every user but root,
    # which ignores the mode, so the error is injected
    config = _spec_and_fixture_config(tmp_path)
    fixture = tmp_path / "ep.json"
    read_bytes = Path.read_bytes

    def refuse(path):
        if path == fixture:
            raise PermissionError(13, "Permission denied", str(path))
        return read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", refuse)
    out = tmp_path / "runs"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == (
        f"error: fixture ep.json cannot be read (PermissionError: [Errno 13] Permission denied: '{fixture}')\n"
    )


# (config text, libyaml's problem, the pure-Python parser's problem)
INVALID_YAML = [
    (
        "chain: [",
        "did not find expected node content (line 2, column 1)",
        "expected the node content, but found '<stream end>' (line 1, column 9)",
    ),
    ("? [1]\n: 2\n", "found unhashable key (line 1, column 3)", "found unhashable key (line 1, column 3)"),
    (
        "chain:\n\tnum_agents: 3\n",
        "found character that cannot start any token (line 2, column 1)",
        "found character '\\t' that cannot start any token (line 2, column 1)",
    ),
    (
        "chain: \x01\n",
        "unacceptable character #x0001: control characters are not allowed",
        "unacceptable character #x0001: special characters are not allowed",
    ),
]


@pytest.mark.parametrize("libyaml", [True, False], ids=["libyaml", "pure_python"])
@pytest.mark.parametrize(
    "text, libyaml_problem, python_problem", INVALID_YAML,
    ids=["open_flow", "unhashable_key", "tab", "control_char"],
)
def test_simulate_invalid_yaml_exits_2_with_one_line(
    tmp_path, capsys, monkeypatch, libyaml, text, libyaml_problem, python_problem
):
    if libyaml and not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML was built without libyaml")
    if not libyaml:
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    config = write_config(tmp_path, text)
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "runs")]) == 2
    problem = libyaml_problem if libyaml else python_problem
    assert capsys.readouterr().err == f"error: cannot parse {config}: {problem}\n"


def test_simulate_removed_value_structure_exits_2(tmp_path, capsys):
    doc = yaml.safe_load(BASE_CONFIG)
    doc["episodes"][0]["value_structure"] = "planted_in_span"
    config = write_config(tmp_path, yaml.safe_dump(doc))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "runs")]) == 2
    assert capsys.readouterr().err == (
        "error: episode 0: unknown value_structure 'planted_in_span', expected one of ('gaussian', 'low_rank')\n"
    )


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
    for flags in ([], ["--emit-fixtures"]):  # the fixture writer reuses the generated rounds
        counts.update(run_chain=0, generate_episode=0)
        out = tmp_path / f"runs{len(flags)}"
        assert main(["simulate", "--config", str(config), "--out", str(out), *flags]) == 0
        assert counts == {"run_chain": 4 * 2, "generate_episode": 3}  # 4 base methods x 2 episodes
        assert len(list(out.glob("*__ep*.json"))) == 8 * 2
    assert [path.name for path in (out / "fixtures").iterdir()] == ["ep000.json"]


def test_simulate_sweep_reports_match_single_method_runs(tmp_path):
    config = _spec_and_fixture_config(tmp_path, verbosity=2)
    sweep = tmp_path / "sweep"
    assert main(["simulate", "--config", str(config), "--out", str(sweep)]) == 0
    active = json.loads((sweep / "h2o_obf_headwise__ep001.json").read_text())
    assert any(not unit["skipped"] for r in active["obf"]["per_round"] for unit in r["units"])
    granularities = ("global", "layerwise", "headwise")
    for index in (0, 1):
        # the aliases of one base method differ only in their two labels
        bodies = []
        for granularity in granularities:
            doc = json.loads((sweep / f"h2o_obf_{granularity}__ep{index:03d}.json").read_text())
            assert (doc.pop("method"), doc.pop("granularity")) == (f"h2o_obf_{granularity}", granularity)
            bodies.append(doc)
        assert bodies[0] == bodies[1] == bodies[2]
        csvs = {(sweep / f"h2o_obf_{g}__ep{index:03d}.csv").read_bytes() for g in granularities}
        assert len(csvs) == 1
    for method in ALL_METHODS:
        single = tmp_path / method
        assert main(["simulate", "--config", str(config), "--out", str(single), "--method", method]) == 0
        for index in (0, 1):
            name = f"{method}__ep{index:03d}.json"
            assert (sweep / name).read_bytes() == (single / name).read_bytes(), name


def test_simulate_decimal_fixture_replays_like_packed(tmp_path):
    # a fixture written with nested decimal lists, as before packing, replays to the same bytes
    config = _spec_and_fixture_config(tmp_path, verbosity=2)
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "packed")]) == 0
    fixture = tmp_path / "ep.json"
    doc = json.loads(fixture.read_text())
    fixture.write_text(json.dumps({"rounds": [_decimal_lists(round_doc) for round_doc in doc["rounds"]]}))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "decimal")]) == 0
    packed, decimal = (
        {path.relative_to(out): path.read_bytes() for path in out.rglob("*")}
        for out in (tmp_path / "packed", tmp_path / "decimal")
    )
    assert len(packed) == 33 and packed == decimal


def _drop_positions(doc):
    del doc["rounds"][0]["cache"]["positions"]
    return doc


def _empty_prompt(doc):
    doc["rounds"][1]["prompt"] = []
    return doc


def _negative_weight(doc):
    _decimal_lists(doc["rounds"][0])["attention"]["weights"][0][0][0][3] = -1e-13
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


def _short_cache_positions(doc):
    del doc["rounds"][0]["cache"]["positions"][-1]
    return doc


def _prompt_reused_as_generation(doc):
    round_doc = doc["rounds"][1]
    round_doc["generation"][0] = round_doc["attention"]["generation_positions"][0] = round_doc["prompt"][-1]
    return doc


def _shifted_columns(doc):
    attention = doc["rounds"][0]["attention"]
    attention["columns"] = [p + 1 for p in attention["columns"]]
    return doc


def _unsorted_generation_positions(doc):
    rows = doc["rounds"][2]["attention"]["generation_positions"]
    rows[0], rows[1] = rows[1], rows[0]
    return doc


def _fractional_group_size(doc):
    doc["rounds"][1]["attention"]["kv_group_size"] = 1.9
    return doc


def _edit_round(doc, index, edit):
    edit(doc["rounds"][index])
    return doc


# Each edit below changes one round in place and returns the exit code it
# must give, so it also serves as a strategy of the random corruption test.
def _empty_generation(round_doc, data=None):
    attention = round_doc["attention"]
    round_doc["generation"] = attention["generation_positions"] = []
    attention["weights"]["shape"][2] = 0
    attention["weights"]["float64_le_base64"] = ""
    return 2


def _generation_before_prompt(round_doc, data=None):
    # the same cache positions, the generation labelled first
    attention = round_doc["attention"]
    positions = round_doc["cache"]["positions"]
    gen_len = len(round_doc["generation"])
    round_doc["generation"] = attention["generation_positions"] = positions[:gen_len]
    round_doc["prompt"] = attention["columns"] = positions[gen_len:]
    return 2


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
        lambda text: json.dumps(_short_cache_positions(json.loads(text))),
        lambda text: json.dumps(_prompt_reused_as_generation(json.loads(text))),
        lambda text: json.dumps(_shifted_columns(json.loads(text))),
        lambda text: json.dumps(_unsorted_generation_positions(json.loads(text))),
        lambda text: json.dumps(_fractional_group_size(json.loads(text))),
        lambda text: json.dumps(_edit_round(json.loads(text), 1, _empty_generation)),
        lambda text: json.dumps(_edit_round(json.loads(text), 0, _generation_before_prompt)),
    ],
    ids=[
        "missing_positions", "not_json", "empty_prompt", "negative_weight",
        "swapped_prompt", "fractional_generation", "fractional_cache_positions",
        "short_cache_positions", "prompt_reused_as_generation", "shifted_columns",
        "unsorted_generation_positions", "fractional_group_size", "empty_generation",
        "generation_before_prompt",
    ],
)
def test_simulate_malformed_fixture_exits_2(tmp_path, capsys, corrupt):
    # full never reads the attention record, h2o does; the fixture is
    # rejected when it loads, before either runs
    config = _spec_and_fixture_config(tmp_path, methods=("full", "h2o_global"))
    fixture = tmp_path / "ep.json"
    fixture.write_text(corrupt(fixture.read_text()))
    out = tmp_path / "runs"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: fixture ep.json is malformed")
    assert err.count("\n") == 1


def test_simulate_prompt_position_missing_from_cache_exits_2(tmp_path, capsys):
    spec = EpisodeSpec(
        seed=5, num_layers=2, num_kv_heads=2, kv_group_size=1,
        key_dim=4, value_dim=6, prompt_lens=(14, 12, 13), gen_len=4,
    )
    fixture = tmp_path / "ep.json"
    save_episode_fixture(fixture, [generate_episode(spec, i) for i in (1, 2, 3)])
    doc = json.loads(fixture.read_text())
    cache = _decimal_lists(doc["rounds"][0])["cache"]
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
    # plain h2o would delete position 5 without reading its row; the round
    # is rejected when it loads, before any method runs
    for method in ("h2o_global", "h2o_obf_global"):
        out = tmp_path / method
        assert main(["simulate", "--config", str(config), "--out", str(out), "--method", method]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == (
            "error: fixture ep.json is malformed (RoundMismatch: position 5 is not in the cache)\n"
        )


@pytest.mark.parametrize(
    "edit, method, message",
    [
        (
            lambda doc: doc["chain"]["compression"].update(sink_size=6),
            "h2o_global",
            "error: episode spec0 cannot run h2o_global "
            "(SinkTooLarge: sink of 6 exceeds the 5 usable prompt positions)\n",
        ),
        (
            lambda doc: doc["chain"]["compression"].update(budget_k=0),
            "h2o_obf_global",
            "error: episode spec0 cannot run h2o_obf_global "
            "(EmptyKeep: budget left no retained prompt rows to backfill into)\n",
        ),
    ],
    ids=["sink_too_large", "empty_keep"],
)
def test_simulate_chain_rejecting_the_episode_exits_2(tmp_path, capsys, edit, method, message):
    doc = yaml.safe_load(BASE_CONFIG)
    doc["episodes"][0]["prompt_lens"] = [5, 9, 11]
    edit(doc)
    out = tmp_path / "runs"
    config = write_config(tmp_path, yaml.safe_dump(doc))
    assert main(["simulate", "--config", str(config), "--out", str(out), "--method", method]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == message


PADDING_CONFIG = textwrap.dedent(
    """\
    chain:
      num_agents: 3
      latent_steps: 4
      compression:
        budget_k: 4
        sink_size: 2
    episodes:
      - prompt_lens: [10, 9, 8]
        num_layers: 1
        num_kv_heads: 1
        kv_group_size: 1
        key_dim: 4
        value_dim: 6
    methods: [h2o_global]
    """
)


@pytest.mark.parametrize("where", ["past_the_episode", "generation"])
def test_simulate_padding_outside_the_prompt_exits_2(tmp_path, capsys, where):
    emitted = tmp_path / "emitted"
    config = write_config(tmp_path, PADDING_CONFIG)
    assert main(["simulate", "--config", str(config), "--out", str(emitted), "--emit-fixtures"]) == 0
    fixture = emitted / "fixtures" / "ep000.json"
    doc = json.loads(fixture.read_text())
    round_doc = doc["rounds"][1]
    stray = 10_000 if where == "past_the_episode" else round_doc["generation"][0]
    round_doc["padding"] = [stray]
    fixture.write_text(json.dumps(doc))
    replay = yaml.safe_load(PADDING_CONFIG)
    replay["episodes"] = [{"fixture": str(fixture)}]
    config = write_config(tmp_path, yaml.safe_dump(replay), name="replay.yaml")
    capsys.readouterr()
    out = tmp_path / "runs"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == (
        f"error: fixture ep000.json is malformed (RoundMismatch: padding position {stray} is not a prompt position)\n"
    )


def test_simulate_episode_too_large_to_allocate_exits_2(tmp_path, capsys):
    # 2.73 PiB of keys, beyond any address space, so numpy refuses before allocating
    doc = {
        "chain": {"num_agents": 1, "latent_steps": 4},
        "episodes": [{"prompt_lens": [8], "num_layers": 10**12}],
        "methods": ["h2o_global"],
    }
    out = tmp_path / "runs"
    assert main(["simulate", "--config", str(write_config(tmp_path, yaml.safe_dump(doc))), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: episode spec0 does not fit in memory (Unable to allocate 2.73 PiB")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc["episodes"][0].update(num_layers=10**20),
        lambda doc: doc["episodes"][0].update(key_dim=10**20),
        lambda doc: doc["episodes"][0].update(kv_group_size=10**20),
        lambda doc: doc["episodes"][0].update(prompt_lens=[10**20]),
        lambda doc: doc["chain"].update(latent_steps=10**20),
    ],
    ids=["num_layers", "key_dim", "kv_group_size", "prompt_lens", "latent_steps"],
)
def test_simulate_episode_beyond_numpy_index_range_exits_2(tmp_path, capsys, edit):
    # no array of 2**63 bytes or more can be made, so numpy raises ValueError, not MemoryError
    doc = {
        "chain": {"num_agents": 1, "latent_steps": 4},
        "episodes": [{"prompt_lens": [8]}],
        "methods": ["h2o_global"],
    }
    edit(doc)
    out = tmp_path / "runs"
    assert main(["simulate", "--config", str(write_config(tmp_path, yaml.safe_dump(doc))), "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == "error: episode 0: its arrays would pass numpy's limit of 2**63 - 1 bytes\n"


def test_simulate_integer_past_the_digit_limit_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, BASE_CONFIG.replace("seed: 7", "seed: 1" + "0" * 5000))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "runs")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot parse {config}: Exceeds the limit (4300 digits)")
    assert err.count("\n") == 1


def test_simulate_budget_past_float_range_exits_0(tmp_path):
    config = write_config(tmp_path, BASE_CONFIG.replace("budget_k: 4", "budget_k: 1" + "0" * 400))
    out = tmp_path / "runs"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["methods"]["h2o_global"]["r_eff"] == 1.0  # streaming keeps only the sink whatever the budget


def _third_layer(attention):
    weights = attention["weights"]
    data = np.frombuffer(base64.b64decode(weights["float64_le_base64"]), "<f8").reshape(weights["shape"])
    data = np.concatenate([data, data[:1]])
    weights.update(shape=list(data.shape), float64_le_base64=base64.b64encode(data.tobytes()).decode("ascii"))
    attention["num_layers"] = 3


@pytest.mark.parametrize(
    "edit, layout",
    [
        (lambda attention: attention.update(kv_group_size=1), "2 layers x 4 kv heads"),
        (lambda attention: attention.update(kv_group_size=4), "2 layers x 1 kv heads"),
        (_third_layer, "3 layers x 2 kv heads"),
    ],
    ids=["kv_group_size_1", "kv_group_size_4", "third_layer"],
)
@pytest.mark.parametrize("method", ["h2o_global", "h2o_obf_global"])
def test_simulate_attention_layout_unlike_the_cache_exits_2(tmp_path, capsys, edit, layout, method):
    desk = Path(__file__).resolve().parent / "golden" / "desk.yaml"
    emitted = tmp_path / "desk"
    assert main(["simulate", "--config", str(desk), "--out", str(emitted), "--emit-fixtures", "--method", "full"]) == 0
    doc = json.loads((emitted / "fixtures" / "ep000.json").read_text())
    for round_doc in doc["rounds"]:
        edit(round_doc["attention"])
    (tmp_path / "layout.json").write_text(json.dumps(doc))
    replay = dict(yaml.safe_load(desk.read_text()), episodes=["layout.json"], methods=[method])
    config = write_config(tmp_path, yaml.safe_dump(replay))
    capsys.readouterr()
    out = tmp_path / "runs"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == (
        f"error: fixture layout.json is malformed (RoundMismatch: attention has {layout}, the cache 2 x 2)\n"
    )


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
        # Keys of mixed types, given as YAML text: yaml.safe_dump cannot sort them.
        (
            "config document",
            "1: a\nzzz: b\n",
            "unknown keys [1, 'zzz'] in config document (allowed: ['chain', 'episodes', 'methods', "
            "'out', 'verbosity'])",
        ),
        (
            "chain",
            "chain:\n  1: a\n  zzz: b\n",
            "unknown keys [1, 'zzz'] in chain (allowed: ['compression', 'latent_steps', "
            "'num_agents', 'seed'])",
        ),
    ],
)
def test_config_unknown_key_messages(tmp_path, where, edit, message):
    if isinstance(edit, str):
        text = edit
    else:
        doc = yaml.safe_load(BASE_CONFIG)
        edit(doc)
        text = yaml.safe_dump(doc)
    with pytest.raises(ConfigError) as info:
        load_run_config(write_config(tmp_path, text))
    assert str(info.value) == message


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc["episodes"][0].update(kv_group_size=1.5),
        lambda doc: doc["episodes"][0].update(num_layers=2.0),
        lambda doc: doc["episodes"][0].update(gen_len=4.0),
        lambda doc: doc["chain"]["compression"].update(budget_k=2.5),
        lambda doc: doc["chain"]["compression"].update(sink_size=1.5),
        lambda doc: doc["episodes"][0].update(prompt_lens=[10.5, 9, 11]),
        lambda doc: doc["chain"]["compression"].update(pca_rank=2.5),
        lambda doc: doc["chain"].update(latent_steps=4.9),
        lambda doc: doc["chain"].update(seed="7"),
        lambda doc: doc["chain"]["compression"].update(budget_k=None, budget_ratio=True),
        lambda doc: doc["chain"]["compression"].update(budget_k=None, budget_ratio="0.5"),
        lambda doc: doc["chain"].update(num_agents=2.5),
        lambda doc: doc["episodes"][0].update(value_rank=True),
        lambda doc: doc["chain"]["compression"].update(epsilon=True),
        lambda doc: doc["chain"]["compression"].update(epsilon=float("nan")),
        lambda doc: doc["chain"]["compression"].update(epsilon=float("inf")),
        lambda doc: doc.update(methods=[]),
        lambda doc: doc.update(verbosity=-1),
        lambda doc: doc.update(verbosity=7),
    ],
    ids=[
        "kv_group_size", "num_layers", "gen_len", "budget_k", "sink_size", "prompt_lens",
        "pca_rank", "latent_steps", "seed", "budget_ratio", "budget_ratio-string", "num_agents", "value_rank",
        "epsilon-bool", "epsilon-nan", "epsilon-inf", "methods-empty", "verbosity-negative", "verbosity-7",
    ],
)
def test_simulate_non_integer_config_field_exits_2(tmp_path, capsys, request, edit):
    """An integer field given a non-integer, and any other out-of-range scalar field."""
    doc = yaml.safe_load(BASE_CONFIG)
    edit(doc)
    out = tmp_path / "runs"
    config = write_config(tmp_path, yaml.safe_dump(doc))
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert request.node.callspec.id.split("-")[0] in err  # the message names the field


def test_simulate_epsilon_without_a_dot_exits_2(tmp_path, capsys):
    # YAML 1.1 reads 1e-12 (no dot) as a string; 1.0e-12 is a float
    assert yaml.safe_load("epsilon: 1e-12") == {"epsilon": "1e-12"}
    text = BASE_CONFIG.replace("    sink_size: 2\n", "    sink_size: 2\n    epsilon: 1e-12\n")
    out = tmp_path / "runs"
    assert main(["simulate", "--config", str(write_config(tmp_path, text)), "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == "error: bad chain configuration: epsilon must be a number, got '1e-12'\n"


def _bad_paths(tmp_path, case):
    """Config bytes and extra simulate arguments for one bad path input."""
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory\n")
    config, args = BASE_CONFIG.encode(), []
    if case == "out_is_a_file":
        args = ["--out", str(taken)]
    elif case == "out_under_a_file":
        args = ["--out", str(taken / "runs")]
    elif case == "out_not_a_path":
        config += b"out: [1]\n"
    elif case == "fixture_not_a_path":
        config = config.replace(b"  - prompt_lens", b"  - fixture: 5\n  - prompt_lens")
    elif case == "fixture_list":
        config = config.replace(b"  - prompt_lens", b"  - fixture: [a]\n  - prompt_lens")
    else:  # config_not_utf8
        config = b"\xff\xfe" + config
    return config, args


@pytest.mark.parametrize(
    "case",
    ["out_is_a_file", "out_under_a_file", "out_not_a_path", "fixture_not_a_path", "fixture_list", "config_not_utf8"],
)
def test_simulate_bad_path_input_exits_2(tmp_path, capsys, monkeypatch, case):
    config, args = _bad_paths(tmp_path, case)
    (tmp_path / "run.yaml").write_bytes(config)
    monkeypatch.chdir(tmp_path)  # the config's default out directory lands here
    assert main(["simulate", "--config", str(tmp_path / "run.yaml"), *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert (tmp_path / "taken").read_text() == "a file, not a directory\n"


def test_simulate_reads_a_utf8_config_naming_a_non_ascii_fixture(tmp_path):
    spec = EpisodeSpec(
        seed=4, num_layers=1, num_kv_heads=1, kv_group_size=1,
        key_dim=4, value_dim=4, prompt_lens=(12, 10, 11), gen_len=4,
    )
    save_episode_fixture(tmp_path / "\u00e9pisode.json", [generate_episode(spec, i) for i in (1, 2, 3)])
    text = textwrap.dedent(
        """\
        chain:
          num_agents: 3
          latent_steps: 4
          compression:
            budget_k: 3
            sink_size: 1
        episodes:
          - fixture: \u00e9pisode.json
        methods: [h2o_global]
        verbosity: 1
        """
    )
    config = tmp_path / "run.yaml"
    config.write_bytes(text.encode("utf-8"))  # whatever the locale's encoding
    out = tmp_path / "runs"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    report = (out / "h2o_global__ep000.json").read_bytes()
    assert b'"episode": "\\u00e9pisode.json"' in report  # reports are ASCII
    assert (out / "h2o_global__ep000.csv").read_bytes().endswith(b"\n")


def test_readme_sample_config_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    doc = yaml.safe_load(readme.split("```yaml\n", 1)[1].split("```", 1)[0])  # the one sample config
    emitted = tmp_path / "emitted"
    assert main(["simulate", "--config", str(write_config(tmp_path)), "--out", str(emitted), "--emit-fixtures"]) == 0
    (entry,) = [entry for entry in doc["episodes"] if "fixture" in entry]
    entry["fixture"] = str(emitted / "fixtures" / "ep000.json")
    cfg = load_run_config(write_config(tmp_path, yaml.safe_dump(doc), name="readme.yaml"))
    assert cfg.chain.compression.budget_k == doc["chain"]["compression"]["budget_k"]
    assert cfg.chain.latent_steps == doc["chain"]["latent_steps"]
    assert cfg.methods == doc["methods"] and cfg.verbosity == doc["verbosity"]
    assert [episode.label for episode in cfg.episodes] == ["spec0", "ep000.json"]
    assert len(cfg.episodes[1].rounds()) == doc["chain"]["num_agents"]


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library use\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    report = namespace["report"]
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == f"{report.final_message_len} {report.rho_achieved} {report.obf_skip_rate}"


# --- exit-code contract over random fixture corruptions ----------------------

_POSITION_LISTS = (
    ("cache", "positions"), ("prompt",), ("generation",),
    ("attention", "columns"), ("attention", "generation_positions"),
)
_REQUIRED_KEYS = (
    ("cache",), ("attention",), ("prompt",), ("generation",),
    ("cache", "num_layers"), ("cache", "num_kv_heads"), ("cache", "key_dim"), ("cache", "value_dim"),
    ("cache", "positions"), ("cache", "keys"), ("cache", "values"),
    ("attention", "num_layers"), ("attention", "num_query_heads"), ("attention", "kv_group_size"),
    ("attention", "generation_positions"), ("attention", "columns"), ("attention", "weights"),
)


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc, path[-1]


def _random_drop_key(round_doc, data):
    parent, key = _parent(round_doc, data.draw(st.sampled_from(_REQUIRED_KEYS)))
    del parent[key]
    return 2


def _random_fractional_position(round_doc, data):
    parent, key = _parent(round_doc, data.draw(st.sampled_from(_POSITION_LISTS)))
    i = data.draw(st.integers(0, len(parent[key]) - 1))
    parent[key][i] += 0.5
    return 2


def _random_swap_adjacent(round_doc, data):
    parent, key = _parent(round_doc, data.draw(st.sampled_from(_POSITION_LISTS)))
    positions = parent[key]
    i = data.draw(st.integers(0, len(positions) - 2))
    positions[i], positions[i + 1] = positions[i + 1], positions[i]
    return 2


def _random_remove_cache_position(round_doc, data):
    cache = _decimal_lists(round_doc)["cache"]
    row = data.draw(st.integers(0, len(cache["positions"]) - 1))
    del cache["positions"][row]
    for name in ("keys", "values"):
        for layer in cache[name]:
            for head in layer:
                del head[row]
    return 2


def _random_reuse_prompt_position(round_doc, data):
    # the last prompt position keeps the generation list strictly increasing
    round_doc["generation"][0] = round_doc["attention"]["generation_positions"][0] = round_doc["prompt"][-1]
    return 2


def _random_non_integer_group_size(round_doc, data):
    round_doc["attention"]["kv_group_size"] = data.draw(st.sampled_from([1.0, 1.9, "1", None, True]))
    return 2


def _random_negative_weight(round_doc, data):
    weights = _decimal_lists(round_doc)["attention"]["weights"]
    row = weights[data.draw(st.integers(0, len(weights) - 1))][0][0]
    row[data.draw(st.integers(0, len(row) - 1))] = -data.draw(st.sampled_from([1e-13, 0.5]))
    return 2


def _random_non_finite(round_doc, data):
    bad = data.draw(st.sampled_from([float("nan"), float("inf"), float("-inf")]))
    _decimal_lists(round_doc)
    if data.draw(st.booleans()):
        round_doc["cache"]["values"][0][1][data.draw(st.integers(0, 15))][2] = bad
    else:
        round_doc["attention"]["weights"][1][0][data.draw(st.integers(0, 3))][5] = bad
    return 3


def _packed(round_doc, data):
    outer, key = data.draw(st.sampled_from(_FLOAT_ARRAYS))
    return round_doc[outer][key]


def _random_invalid_base64(round_doc, data):
    packed = _packed(round_doc, data)
    text = packed["float64_le_base64"]
    packed["float64_le_base64"] = data.draw(
        st.sampled_from([text[:-1], text[:4] + "!" + text[5:], text[:4] + "\n" + text[4:], "é" + text[1:], 5])
    )
    return 2


def _random_wrong_byte_count(round_doc, data):
    packed = _packed(round_doc, data)
    if data.draw(st.booleans()):
        packed["shape"][data.draw(st.integers(0, len(packed["shape"]) - 1))] += 1
    else:
        raw = base64.b64decode(packed["float64_le_base64"])
        raw = data.draw(st.sampled_from([raw[:-8], raw[:-3], raw + bytes(8), b""]))
        packed["float64_le_base64"] = base64.b64encode(raw).decode("ascii")
    return 2


def _random_bad_shape_entry(round_doc, data):
    # each edit keeps the product of the shape, so the byte count still matches
    shape = _packed(round_doc, data)["shape"]
    i = data.draw(st.integers(0, len(shape) - 2))
    edit = data.draw(st.sampled_from(["bool", "float", "negative"]))
    if edit == "bool":
        shape[i], shape[-1] = True, shape[i] * shape[-1]
    elif edit == "float":
        shape[i] = float(shape[i])
    else:
        shape[i], shape[-1] = -shape[i], -shape[-1]
    return 2


def _random_drop_packed_key(round_doc, data):
    del _packed(round_doc, data)[data.draw(st.sampled_from(["shape", "float64_le_base64"]))]
    return 2


def _random_packed_non_finite(round_doc, data):
    packed = _packed(round_doc, data)
    bits = np.frombuffer(base64.b64decode(packed["float64_le_base64"]), "<u8").copy()
    # quiet NaN, signalling NaN, negative NaN, +inf, -inf
    bad = data.draw(st.sampled_from([0x7FF8000000000000, 0x7FF0000000000001, 0xFFF8000000000000,
                                     0x7FF0000000000000, 0xFFF0000000000000]))
    bits[data.draw(st.integers(0, bits.size - 1))] = bad
    packed["float64_le_base64"] = base64.b64encode(bits.tobytes()).decode("ascii")
    return 3


@given(
    corrupt=st.sampled_from([
        _random_drop_key, _random_fractional_position, _random_swap_adjacent, _random_remove_cache_position,
        _random_reuse_prompt_position, _random_non_integer_group_size, _random_negative_weight, _random_non_finite,
        _random_invalid_base64, _random_wrong_byte_count, _random_bad_shape_entry, _random_drop_packed_key,
        _random_packed_non_finite, _empty_generation, _generation_before_prompt,
    ]),
    round_i=st.integers(0, 2),
    method=st.sampled_from(ALL_METHODS),
    data=st.data(),
)
@settings(max_examples=130, deadline=None)
def test_simulate_corrupt_fixture_exit_code_follows_the_error(corrupt, round_i, method, data):
    spec = EpisodeSpec(
        seed=5, num_layers=2, num_kv_heads=2, kv_group_size=1,
        key_dim=4, value_dim=6, prompt_lens=(14, 12, 13), gen_len=4,
    )
    doc = {"rounds": [fixtures.episode_round_to_dict(generate_episode(spec, i)) for i in (1, 2, 3)]}
    code = corrupt(doc["rounds"][round_i], data)
    config = textwrap.dedent(
        """\
        chain:
          num_agents: 3
          latent_steps: 4
          compression:
            budget_k: 3
            sink_size: 1
        episodes:
          - fixture: ep.json
        """
    )
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "ep.json").write_text(json.dumps(doc))
        (root / "run.yaml").write_text(config)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            got = main(["simulate", "--config", str(root / "run.yaml"), "--out", str(root / "runs"), "--method", method])
        assert got == code, err.getvalue()
        assert not (root / "runs").exists()
        prefix = "numerical failure: " if code == 3 else "error: fixture ep.json is malformed"
        assert err.getvalue().startswith(prefix) and err.getvalue().count("\n") == 1, err.getvalue()
