"""Command-line front end.

    kvrelay simulate --config run.yaml [--method h2o_global ...]
                     [--seed N] [--out DIR] [--emit-fixtures]
    kvrelay ratio-table

The config keys are the dataclass fields: ``chain`` takes those of
``ChainConfig``, ``chain.compression`` those of ``CompressionConfig`` but
``method`` and ``granularity`` (set by the method names), and an episode
entry those of ``EpisodeSpec`` or a ``fixture`` path.

``simulate`` runs episode by episode: each episode is generated or parsed
once, and each group of method aliases runs one chain whose report is
relabelled per alias. It writes one report per (method, episode) plus a
comparison summary. Outputs are byte-identical for identical config and
seed. Exit codes: 0 on success, 2 on configuration or input errors
(including a malformed fixture or one with fewer rounds than agents), 3 on
numerical failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from dataclasses import dataclass
from pathlib import Path

import yaml

from . import fixtures
from .backbone import EpisodeRound, EpisodeSpec, generate_episode
from .errors import KvRelayError
from .relay import BENCHMARK_PROMPT_LENGTHS, ChainConfig, RelayReport, compression_ratio, run_chain
from .compress import CompressionConfig
from .scoring import GLOBAL, HEADWISE, LAYERWISE

METHOD_TABLE = {
    "full": ("full", GLOBAL),
    "streaming": ("streaming", GLOBAL),
    "h2o_global": ("h2o", GLOBAL),
    "h2o_layerwise": ("h2o", LAYERWISE),
    "h2o_headwise": ("h2o", HEADWISE),
    "h2o_obf_global": ("h2o_obf", GLOBAL),
    "h2o_obf_layerwise": ("h2o_obf", LAYERWISE),
    "h2o_obf_headwise": ("h2o_obf", HEADWISE),
}

DEFAULT_RATIO_BUDGET = 32
DEFAULT_RATIO_ROUNDS = 3


class ConfigError(Exception):
    """Bad run configuration or unreadable input."""


@dataclass
class _Episode:
    """One configured episode: a generator spec or a fixture file."""

    index: int
    spec: EpisodeSpec | None
    fixture: Path | None
    label: str

    def rounds(self) -> tuple[EpisodeRound, ...]:
        """Every round of the episode: generated from the spec, or parsed from the fixture.

        A fixture that is not a well-formed episode document raises
        :class:`ConfigError`; a :class:`KvRelayError` (such as a non-finite
        value) propagates unchanged.
        """
        if self.spec is not None:
            return tuple(generate_episode(self.spec, i) for i in range(1, self.spec.num_rounds + 1))
        try:
            return fixtures.load_episode_fixture(self.fixture)
        except KvRelayError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(
                f"fixture {self.label} is malformed ({type(exc).__name__}: {exc})"
            ) from exc


@dataclass
class RunConfig:
    """Fully resolved simulate invocation."""

    chain: ChainConfig
    episodes: list[_Episode]
    methods: list[str]
    out: Path
    verbosity: int = 0


def _field_names(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


_SPEC_KEYS = _field_names(EpisodeSpec)
_COMPRESSION_KEYS = _field_names(CompressionConfig) - {"method", "granularity"}
_CHAIN_KEYS = _field_names(ChainConfig)
_TOP_KEYS = {"chain", "episodes", "methods", "out", "verbosity"}


def _require_mapping(value, where: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a mapping")
    return value


def _reject_unknown(mapping: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ConfigError(f"unknown keys {unknown} in {where} (allowed: {sorted(allowed)})")


def _build_chain(doc: dict, seed_override: int | None) -> ChainConfig:
    chain_doc = _require_mapping(doc.get("chain"), "chain")
    _reject_unknown(chain_doc, _CHAIN_KEYS, "chain")
    comp_doc = _require_mapping(chain_doc.get("compression"), "chain.compression")
    _reject_unknown(comp_doc, _COMPRESSION_KEYS, "chain.compression")
    if "budget_ratio" in comp_doc and "budget_k" not in comp_doc:
        comp_doc = dict(comp_doc, budget_k=None)
    try:
        compression = CompressionConfig(**comp_doc)
        defaults = ChainConfig()
        seed = int(chain_doc.get("seed", defaults.seed)) if seed_override is None else seed_override
        return ChainConfig(
            num_agents=int(chain_doc.get("num_agents", defaults.num_agents)),
            latent_steps=int(chain_doc.get("latent_steps", defaults.latent_steps)),
            compression=compression,
            seed=seed,
        )
    except (KvRelayError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad chain configuration: {exc}") from exc


def _build_episodes(doc: dict, chain: ChainConfig, config_dir: Path) -> list[_Episode]:
    entries = doc.get("episodes", [{}])
    if not isinstance(entries, list) or not entries:
        raise ConfigError("episodes must be a non-empty list")
    episodes: list[_Episode] = []
    for index, entry in enumerate(entries):
        if isinstance(entry, str):
            entry = {"fixture": entry}
        if not isinstance(entry, dict):
            raise ConfigError(f"episode {index} must be a mapping or a fixture path")
        if "fixture" in entry:
            _reject_unknown(entry, {"fixture"}, f"episode {index}")
            path = Path(entry["fixture"])
            if not path.is_absolute():
                path = config_dir / path
            if not path.is_file():
                raise ConfigError(f"episode {index}: fixture {path} does not exist")
            episodes.append(_Episode(index=index, spec=None, fixture=path, label=path.name))
            continue
        _reject_unknown(entry, _SPEC_KEYS, f"episode {index}")
        fields = dict(entry)
        fields.setdefault("seed", chain.seed + index)
        fields.setdefault("gen_len", chain.latent_steps)
        if "prompt_lens" in fields:
            fields["prompt_lens"] = tuple(fields["prompt_lens"])
        try:
            spec = EpisodeSpec(**fields)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"episode {index}: {exc}") from exc
        if spec.gen_len != chain.latent_steps:
            raise ConfigError(
                f"episode {index}: gen_len {spec.gen_len} conflicts with "
                f"chain.latent_steps {chain.latent_steps}"
            )
        if spec.num_rounds != chain.num_agents:
            raise ConfigError(
                f"episode {index}: {spec.num_rounds} prompt lengths for "
                f"{chain.num_agents} agents"
            )
        episodes.append(_Episode(index=index, spec=spec, fixture=None, label=f"spec{index}"))
    return episodes


def load_run_config(config_path, method_overrides=(), seed: int | None = None, out=None) -> RunConfig:
    """Parse and validate a simulate configuration file."""
    path = Path(config_path)
    if not path.is_file():
        raise ConfigError(f"config file {path} does not exist")
    try:
        doc = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    doc = _require_mapping(doc, "config document")
    _reject_unknown(doc, _TOP_KEYS, "config document")

    chain = _build_chain(doc, seed)
    episodes = _build_episodes(doc, chain, path.parent)

    methods = list(method_overrides) or doc.get("methods", ["h2o_obf_global"])
    if not isinstance(methods, list) or not all(isinstance(m, str) for m in methods):
        raise ConfigError(f"methods must be a list of method names, got {methods!r}")
    unknown = sorted(set(methods) - set(METHOD_TABLE))
    if unknown:
        raise ConfigError(f"unknown methods {unknown} (allowed: {sorted(METHOD_TABLE)})")
    if len(set(methods)) != len(methods):
        raise ConfigError("methods must not repeat")

    out_dir = Path(out) if out is not None else Path(doc.get("out", "runs"))
    verbosity = doc.get("verbosity", 0)
    if isinstance(verbosity, bool) or not isinstance(verbosity, int):
        raise ConfigError(f"verbosity must be an integer, got {verbosity!r}")
    return RunConfig(
        chain=chain,
        episodes=episodes,
        methods=methods,
        out=out_dir,
        verbosity=verbosity,
    )


def _method_chain(chain: ChainConfig, method_name: str) -> ChainConfig:
    method, granularity = METHOD_TABLE[method_name]
    compression = dataclasses.replace(chain.compression, method=method, granularity=granularity)
    return dataclasses.replace(chain, compression=compression)


def _config_echo(chain: ChainConfig, episode: _Episode) -> dict:
    echo = {key: getattr(chain, key) for key in _CHAIN_KEYS - {"compression"}}
    echo.update((key, getattr(chain.compression, key)) for key in _COMPRESSION_KEYS)
    echo["episode"] = episode.label
    if episode.spec is not None:
        echo["episode_spec"] = dataclasses.asdict(episode.spec)
    return echo


def _episode_reports(cfg: RunConfig, episode: _Episode) -> dict[str, RelayReport]:
    """Reports of every configured method on one episode, keyed by method name.

    The episode is materialised once. Aliases of one base method select the
    same tokens, so each base method runs one chain and every alias gets that
    report with its own granularity label. A fixture with fewer rounds than
    the chain has agents raises :class:`ConfigError` before any chain runs.
    """
    rounds = episode.rounds()
    if len(rounds) < cfg.chain.num_agents:
        raise ConfigError(
            f"fixture {episode.label} has {len(rounds)} rounds for {cfg.chain.num_agents} agents"
        )

    def source(round_i: int) -> EpisodeRound:
        return rounds[round_i - 1]

    by_base: dict[str, RelayReport] = {}
    reports: dict[str, RelayReport] = {}
    for method in cfg.methods:
        base, granularity = METHOD_TABLE[method]
        if base not in by_base:
            _, by_base[base] = run_chain(source, _method_chain(cfg.chain, method))
        reports[method] = dataclasses.replace(by_base[base], granularity=granularity)
    return reports


def cmd_simulate(
    config_path,
    method_overrides=(),
    seed: int | None = None,
    out=None,
    emit_fixtures: bool = False,
    stdout=None,
) -> int:
    """Run the configured sweep; returns a process exit code."""
    stdout = stdout if stdout is not None else sys.stdout
    try:
        cfg = load_run_config(config_path, method_overrides, seed, out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        results = {episode.index: _episode_reports(cfg, episode) for episode in cfg.episodes}
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KvRelayError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3

    cfg.out.mkdir(parents=True, exist_ok=True)
    for method in cfg.methods:
        for episode in cfg.episodes:
            report = results[episode.index][method]
            doc = report.to_dict(cfg.verbosity)
            doc["method"] = method  # full CLI name, including granularity suffix
            doc["episode"] = episode.index
            doc["config"] = _config_echo(cfg.chain, episode)
            fixtures.dump_json(cfg.out / f"{method}__ep{episode.index:03d}.json", doc)
            if cfg.verbosity >= 1:
                lines = [",".join(str(cell) for cell in row) for row in report.csv_rows()]
                (cfg.out / f"{method}__ep{episode.index:03d}.csv").write_text(
                    "\n".join(lines) + "\n"
                )

    if emit_fixtures:
        fix_dir = cfg.out / "fixtures"
        fix_dir.mkdir(parents=True, exist_ok=True)
        for episode in cfg.episodes:
            if episode.spec is None:
                continue
            fixtures.save_episode_fixture(fix_dir / f"ep{episode.index:03d}.json", episode.rounds())

    summary = {"episodes": len(cfg.episodes), "seed": cfg.chain.seed, "methods": {}}
    for method in cfg.methods:
        reports = [results[ep.index][method] for ep in cfg.episodes]
        rates = [r.obf_skip_rate for r in reports if r.obf_skip_rate is not None]
        summary["methods"][method] = {
            "rho_achieved": sum(r.rho_achieved for r in reports) / len(reports),
            "r_eff": sum(r.r_eff for r in reports) / len(reports),
            "mean_final_message_len": sum(r.final_message_len for r in reports) / len(reports),
            "obf_skip_rate": sum(rates) / len(rates) if rates else None,
        }
    fixtures.dump_json(cfg.out / "summary.json", summary)

    print(f"{'method':<20} {'rho':>8} {'r_eff':>8} {'final_len':>10} {'obf_skip':>9}", file=stdout)
    for method in cfg.methods:
        row = summary["methods"][method]
        skip = "-" if row["obf_skip_rate"] is None else f"{row['obf_skip_rate']:.3f}"
        print(
            f"{method:<20} {row['rho_achieved']:>8.4f} {row['r_eff']:>8.4f} "
            f"{row['mean_final_message_len']:>10.1f} {skip:>9}",
            file=stdout,
        )
    print(f"wrote {len(cfg.methods) * len(cfg.episodes)} report(s) to {cfg.out}", file=stdout)
    return 0


def cmd_ratio_table(stdout=None) -> int:
    """Print the bundled benchmark prompt lengths and their relay ratios."""
    stdout = stdout if stdout is not None else sys.stdout
    k, rounds = DEFAULT_RATIO_BUDGET, DEFAULT_RATIO_ROUNDS
    print(f"{'benchmark':<12} {'L':>6} {'k':>4} {'rounds':>7} {'rho_%':>7}", file=stdout)
    for name, total in BENCHMARK_PROMPT_LENGTHS.items():
        rho = compression_ratio(total, k, rounds)
        print(f"{name:<12} {total:>6} {k:>4} {rounds:>7} {rho:>7.1f}", file=stdout)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kvrelay",
        description="Budgeted KV-cache compression for multi-agent latent relay.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="run configured methods over episodes")
    simulate.add_argument("--config", required=True, help="YAML/JSON run configuration")
    simulate.add_argument(
        "--method",
        action="append",
        choices=sorted(METHOD_TABLE),
        help="override configured methods (repeatable)",
    )
    simulate.add_argument("--seed", type=int, default=None, help="override the chain seed")
    simulate.add_argument("--out", default=None, help="output directory")
    simulate.add_argument(
        "--emit-fixtures",
        action="store_true",
        help="also write the generated episodes as fixture files",
    )

    sub.add_parser("ratio-table", help="print reference compression ratios")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "simulate":
        return cmd_simulate(
            args.config,
            method_overrides=tuple(args.method or ()),
            seed=args.seed,
            out=args.out,
            emit_fixtures=args.emit_fixtures,
        )
    return cmd_ratio_table()


if __name__ == "__main__":
    sys.exit(main())
