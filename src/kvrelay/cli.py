"""Command-line front end.

    kvrelay simulate --config run.yaml [--method h2o_global ...]
                     [--seed N] [--out DIR] [--emit-fixtures]
    kvrelay ratio-table

The config keys are the dataclass fields: ``chain`` takes those of
``ChainConfig``, ``chain.compression`` those of ``CompressionConfig`` but
``method`` and ``granularity`` (set by the method names), and an episode
entry those of ``EpisodeSpec`` or a ``fixture`` path. The config is read
as UTF-8 and parsed by libyaml when PyYAML was built with it, by PyYAML's
pure-Python parser otherwise; both give the same document.

``simulate`` runs episode by episode: each episode is generated or parsed
once, also under ``--emit-fixtures``, and each group of method aliases runs
one chain whose report is encoded once and written per alias. It writes
one report per (method, episode) plus a comparison summary, only after
every chain succeeded, so ``--emit-fixtures`` holds every generated
episode's rounds until then (2.0 MB of arrays for a default
``EpisodeSpec``). Outputs are byte-identical for identical config and seed
on one BLAS kernel (report floats pass through BLAS and LAPACK): reports,
CSVs and fixtures are written as bytes with LF line ends. Exit codes
follow the error type: 0 on success, 3 on :class:`NumericalFailure`
(non-finite input, or an SVD that did not converge), 2 on every other
error. A fixture that does not load as an episode (including one whose
generation positions are not strictly increasing, one with a padding
position outside its round's prompt, or one whose attention layers or kv
heads differ from its cache's), one with fewer rounds than agents or
with a round of other than ``chain.latent_steps`` generation steps, a
fixture that cannot be read, a chain that rejects an episode (such as a
sink longer than the first prompt, or a round that starts before the
previous round's relayed message ends), an episode too large to allocate
or whose arrays would pass numpy's 2**63 - 1 byte limit, a config that is
not UTF-8, is not valid YAML, holds an integer past Python's 4300-digit
limit or nests collections more than 32 deep, a fixture nested too deep
for the JSON parser or whose decimal float arrays hold anything but
numbers, an integer field given a float, string or bool, a bool or
non-finite ``epsilon``, empty ``methods``, a ``verbosity`` outside 0-2,
unknown config keys (also of mixed types, such as ``1`` and ``zzz``) and
an output directory that cannot be created or written
all exit 2 with one ``error:`` line.
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
from .errors import KvRelayError, NumericalFailure
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


# Deepest collection nesting a config may have (a valid one nests 4 deep).
# Both YAML parsers are iterative, but the composers recurse: libyaml's
# crashes the process and the pure-Python one raises RecursionError.
_MAX_CONFIG_DEPTH = 32


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

        A fixture that cannot be read or is not a well-formed episode
        document raises :class:`ConfigError`; a :class:`NumericalFailure`
        (a non-finite value) propagates unchanged.
        """
        if self.spec is not None:
            return tuple(generate_episode(self.spec, i) for i in range(1, self.spec.num_rounds + 1))
        try:
            return fixtures.load_episode_fixture(self.fixture)
        except NumericalFailure:
            raise
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise ConfigError(
                f"fixture {self.label} is malformed ({type(exc).__name__}: {exc})"
            ) from exc
        except OSError as exc:
            raise ConfigError(
                f"fixture {self.label} cannot be read ({type(exc).__name__}: {exc})"
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


def _require_path(value, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a path string, got {value!r}")
    return value


def _reject_unknown(mapping: dict, allowed: set, where: str) -> None:
    # str-then-type order: YAML keys may mix types, which plain sorted() rejects
    unknown = sorted(set(mapping) - allowed, key=lambda k: (str(k), type(k).__name__))
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
        fields = dict(chain_doc, compression=CompressionConfig(**comp_doc))
        if seed_override is not None:
            fields["seed"] = seed_override
        return ChainConfig(**fields)
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
            path = Path(_require_path(entry["fixture"], f"episode {index}: fixture"))
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


def _yaml_problem(exc: yaml.YAMLError) -> str:
    """One line for a YAML error: the problem and its line and column, without the source excerpt.

    An error without a position (a character the reader rejects) gives the
    first line of its own message.
    """
    if isinstance(exc, yaml.MarkedYAMLError):
        mark = exc.problem_mark or exc.context_mark
        where = f" (line {mark.line + 1}, column {mark.column + 1})" if mark is not None else ""
        return f"{exc.problem or exc.context}{where}"
    return str(exc).splitlines()[0]


def load_run_config(config_path, method_overrides=(), seed: int | None = None, out=None) -> RunConfig:
    """Parse and validate a simulate configuration file (UTF-8 YAML).

    The parser is libyaml's (``yaml.CSafeLoader``) when PyYAML was built
    with it, else PyYAML's pure-Python ``yaml.SafeLoader``. Both build the
    document with PyYAML's own ``SafeConstructor`` and ``Resolver``, so
    they give the same document. The parser's events are scanned first:
    a document that nests collections more than ``_MAX_CONFIG_DEPTH`` deep
    raises :class:`ConfigError` before it reaches the recursive composer.
    """
    path = Path(config_path)
    if not path.is_file():
        raise ConfigError(f"config file {path} does not exist")
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    try:
        text = path.read_text(encoding="utf-8")
        depth = 0
        for event in yaml.parse(text, Loader=loader):
            if isinstance(event, yaml.CollectionStartEvent):
                depth += 1
                if depth > _MAX_CONFIG_DEPTH:
                    raise ConfigError(f"{path} nests collections deeper than {_MAX_CONFIG_DEPTH} levels")
            elif isinstance(event, yaml.CollectionEndEvent):
                depth -= 1
        doc = yaml.load(text, Loader=loader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {_yaml_problem(exc)}") from exc
    except (OSError, ValueError) as exc:
        # ValueError: text that is not UTF-8, or an integer past Python's digit limit
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    doc = _require_mapping(doc, "config document")
    _reject_unknown(doc, _TOP_KEYS, "config document")

    chain = _build_chain(doc, seed)
    episodes = _build_episodes(doc, chain, path.parent)

    methods = list(method_overrides) or doc.get("methods", ["h2o_obf_global"])
    if not isinstance(methods, list) or not all(isinstance(m, str) for m in methods):
        raise ConfigError(f"methods must be a list of method names, got {methods!r}")
    if not methods:
        raise ConfigError("methods must be a non-empty list")
    unknown = sorted(set(methods) - set(METHOD_TABLE))
    if unknown:
        raise ConfigError(f"unknown methods {unknown} (allowed: {sorted(METHOD_TABLE)})")
    if len(set(methods)) != len(methods):
        raise ConfigError("methods must not repeat")

    out_dir = Path(out) if out is not None else Path(_require_path(doc.get("out", "runs"), "out"))
    verbosity = doc.get("verbosity", 0)
    if isinstance(verbosity, bool) or not isinstance(verbosity, int):
        raise ConfigError(f"verbosity must be an integer, got {verbosity!r}")
    if not 0 <= verbosity <= 2:
        raise ConfigError(f"verbosity must be 0, 1 or 2, got {verbosity}")
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
        echo["episode_spec"] = dict(vars(episode.spec))
    return echo


def _episode_reports(cfg: RunConfig, episode: _Episode, rounds: tuple[EpisodeRound, ...]) -> dict:
    """Reports of every configured base method on one episode's rounds, keyed by base method.

    Aliases of one base method select the same tokens, so each base method
    runs one chain, whose report every alias shares. A fixture with fewer
    rounds than the chain has agents, or whose rounds in the chain do not
    each have ``chain.latent_steps`` generation steps, raises
    :class:`ConfigError` before any chain runs, as does a chain that rejects
    the episode with any error but :class:`NumericalFailure`.
    """
    if len(rounds) < cfg.chain.num_agents:
        raise ConfigError(
            f"fixture {episode.label} has {len(rounds)} rounds for {cfg.chain.num_agents} agents"
        )
    for round_i, episode_round in enumerate(rounds[: cfg.chain.num_agents], start=1):
        if len(episode_round.generation) != cfg.chain.latent_steps:
            raise ConfigError(
                f"fixture {episode.label} round {round_i} has {len(episode_round.generation)} "
                f"generation steps for chain.latent_steps {cfg.chain.latent_steps}"
            )

    def source(round_i: int) -> EpisodeRound:
        return rounds[round_i - 1]

    reports: dict[str, RelayReport] = {}
    for method in cfg.methods:
        base = METHOD_TABLE[method][0]
        if base in reports:
            continue
        try:
            _, reports[base] = run_chain(source, _method_chain(cfg.chain, method))
        except NumericalFailure:
            raise
        except KvRelayError as exc:
            raise ConfigError(
                f"episode {episode.label} cannot run {method} ({type(exc).__name__}: {exc})"
            ) from exc
    return reports


def _write_outputs(cfg: RunConfig, results: dict, emitted: dict[int, tuple[EpisodeRound, ...]]) -> dict:
    """Write every report, the ``emitted`` rounds as fixtures, and ``summary.json``; return the summary."""
    cfg.out.mkdir(parents=True, exist_ok=True)
    for episode in cfg.episodes:
        # The aliases of one base method differ only in "method" and
        # "granularity", so the rest of the report and the CSV are encoded once.
        config = fixtures.fragment(_config_echo(cfg.chain, episode))
        for base, report in results[episode.index].items():
            doc = dict(report.to_dict(cfg.verbosity), episode=episode.index, config=config)
            del doc["method"], doc["granularity"]
            body = {key: fixtures.fragment(value) for key, value in doc.items()}
            lines = [",".join(str(cell) for cell in row) for row in report.csv_rows()]
            csv = ("\n".join(lines) + "\n").encode("utf-8")
            for method in (m for m in cfg.methods if METHOD_TABLE[m][0] == base):
                # "method" is the full CLI name, including the granularity suffix
                doc = dict(body, method=method, granularity=METHOD_TABLE[method][1])
                fixtures.dump_json(cfg.out / f"{method}__ep{episode.index:03d}.json", doc)
                if cfg.verbosity >= 1:
                    (cfg.out / f"{method}__ep{episode.index:03d}.csv").write_bytes(csv)

    if emitted:
        fix_dir = cfg.out / "fixtures"
        fix_dir.mkdir(parents=True, exist_ok=True)
        for index, rounds in emitted.items():
            fixtures.save_episode_fixture(fix_dir / f"ep{index:03d}.json", rounds)

    summary = {"episodes": len(cfg.episodes), "seed": cfg.chain.seed, "methods": {}}
    for method in cfg.methods:
        reports = [results[ep.index][METHOD_TABLE[method][0]] for ep in cfg.episodes]
        rates = [r.obf_skip_rate for r in reports if r.obf_skip_rate is not None]
        summary["methods"][method] = {
            "rho_achieved": sum(r.rho_achieved for r in reports) / len(reports),
            "r_eff": sum(r.r_eff for r in reports) / len(reports),
            "mean_final_message_len": sum(r.final_message_len for r in reports) / len(reports),
            "obf_skip_rate": sum(rates) / len(rates) if rates else None,
        }
    fixtures.dump_json(cfg.out / "summary.json", summary)
    return summary


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

    results, emitted = {}, {}
    try:
        for episode in cfg.episodes:
            rounds = episode.rounds()
            results[episode.index] = _episode_reports(cfg, episode, rounds)
            if emit_fixtures and episode.spec is not None:
                emitted[episode.index] = rounds
            del rounds  # without --emit-fixtures one episode is alive at a time
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: episode {episode.label} does not fit in memory ({exc})", file=sys.stderr)
        return 2

    try:
        summary = _write_outputs(cfg, results, emitted)
    except OSError as exc:
        print(f"error: cannot write outputs to {cfg.out} ({type(exc).__name__}: {exc})", file=sys.stderr)
        return 2

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
