"""kvrelay benchmark driver.

    python3 perfbench/run.py --workload obf_active --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 1

Run from the repository root. The program is imported from ``src/``. A
plain run (``--trace 0``) reports the end-to-end metrics named in
``BENCHMARK.json``; a traced run (``--trace 1``) wraps kvrelay's public
functions and reports the per-layer metrics. ``--workload all`` runs every
workload in its own fresh process, one after another. The last line of
standard output is one JSON object; working files, spans and recorded work
counts go under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("obf_active", "evict_long", "sweep_cli")

# Set-up and the import are repeated and their medians reported, so one
# slow repetition does not move setup_s. The import is timed in fresh
# interpreters, since a module is imported once per process.
SETUP_REPS = 5
IMPORT_REPS = 3
IMPORT_PROBE = (
    "import sys, time; start = time.perf_counter(); import numpy; "
    "sys.path.insert(0, sys.argv[1]); import kvrelay.cli; print(time.perf_counter() - start)"
)
# ops_per_s is the median throughput over this many consecutive blocks of
# timed ops, so a short stall of the host moves one block, not the metric.
THROUGHPUT_BLOCKS = 10
# A traced run first measures untraced throughput for this share of its
# time, to report the tracing overhead against it.
UNTRACED_SHARE = 0.25
# Every BLAS/OpenMP pool is pinned to one thread, which is at most nproc,
# so the program's own thread pool is the only source of parallelism.
BLAS_THREADS = 1
# The process is pinned to one CPU. On a small shared host the
# interpreter-lock hand-offs of the program's thread pool between two
# CPUs made sweep_cli op times vary by a third from run to run; on one
# CPU they vary far less. The pool keeps its threads; it runs as on a
# one-CPU host.
PINNED_CPUS = 1
# Units of every end-to-end figure a plain run prints. Those not declared
# in BENCHMARK.json (ops_per_s, op_s_p50) are printed and kept in `detail`
# but not gated: see README.md.
E2E_UNITS = {"ops_per_s": "1/s", "op_s_p50": "s", "op_s_p90": "s", "peak_rss_mb": "MB", "setup_s": "s"}
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


class Runner:
    """Runs ops, times each one, checks its output and counts failures."""

    def __init__(self, kv):
        self.kv = kv
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def run_cycle(self, workload, tracer=None) -> list[float]:
        times = []
        for op in workload.cycle():
            self.attempted += 1
            span = tracer.op_span(self.attempted) if tracer else contextlib.nullcontext()
            try:
                with span:
                    start = time.perf_counter()
                    result = op.run(self.kv)
                    elapsed = time.perf_counter() - start
            except Exception as exc:  # an op that raises is a failed op; keep measuring
                self._fail(f"{op.label}: {type(exc).__name__}: {exc}")
                continue
            times.append(elapsed)
            problems = op.check(result)
            if problems:
                self._fail(f"{op.label}: {'; '.join(problems[:3])}")
        return times

    def run_until(self, workload, deadline: float, tracer=None, min_cycles: int = 1):
        times: list[float] = []
        cycles = 0
        while cycles < min_cycles or time.perf_counter() < deadline:
            times += self.run_cycle(workload, tracer)
            cycles += 1
        return times


def environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_count": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def import_seconds() -> list[float]:
    times = []
    for _ in range(IMPORT_REPS):
        child = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            stdout=subprocess.PIPE,
            text=True,
            check=True,
            timeout=60,
        )
        times.append(float(child.stdout))
    return times


def block_throughput(times: list[float]) -> float:
    """Median over consecutive blocks of timed ops of ops per op-second."""
    blocks = min(THROUGHPUT_BLOCKS, len(times))
    edges = [round(i * len(times) / blocks) for i in range(blocks + 1)]
    return statistics.median(
        (hi - lo) / sum(times[lo:hi]) for lo, hi in zip(edges, edges[1:])
    )


def code_digest() -> str:
    """SHA-256 of the program's and the benchmark's Python sources."""
    digest = hashlib.sha256()
    for path in sorted([*(SRC / "kvrelay").rglob("*.py"), *BENCH_DIR.glob("*.py")]):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cycle_counts(spans, first_op: int, ops_per_cycle: int) -> list[dict]:
    """Exact work counts (calls and counters) per traced cycle."""
    cycles: dict[int, dict] = defaultdict(lambda: defaultdict(int))
    for span in spans:
        if span.name == "bench.op":
            continue
        counts = cycles[(span.op - first_op) // ops_per_cycle]
        counts[f"{span.name}.calls"] += 1
        for key, value in (span.work or {}).items():
            counts[key] += value
    return [dict(sorted(cycles[i].items())) for i in sorted(cycles)]


def layer_metrics(tracer_mod, spans, traced_ops: int, counts: dict, ops_per_cycle: int) -> dict:
    own = tracer_mod.self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    for span in spans:
        self_s[span.name] += own[span.span_id]
    metrics = {
        f"{module}.{func}.self_s": self_s[f"{module}.{func}"] / traced_ops
        for module, func in tracer_mod.TARGETS
    }
    metrics["scoring.aggregate.self_s"] = (
        metrics["scoring.aggregate_layerwise.self_s"] + metrics["scoring.aggregate_global.self_s"]
    )
    count_keys = [f"{module}.{func}.calls" for module, func in tracer_mod.TARGETS]
    metrics.update({key: counts.get(key, 0) / ops_per_cycle for key in count_keys + list(tracer_mod.COUNTERS)})
    units = counts.get("compress.obf_units", 0)
    metrics["compress.obf_active_ratio"] = counts.get("compress.obf_active_units", 0) / units if units else 0.0

    # Pool use in `simulate`: thread CPU time of the run_chain spans, and
    # their summed wall time, over the simulate span's wall time. With the
    # interpreter lock held, overlapping spans do not mean parallel work, so
    # busy_over_wall uses CPU time; a value of 1 or less means the pool ran
    # no faster than one thread could.
    simulate = {s.span_id: s for s in spans if s.name == "cli.cmd_simulate"}
    pooled = [s for s in spans if s.name == "relay.run_chain" and s.parent in simulate]
    wall = sum(s.end - s.start for s in simulate.values())
    metrics["cli.pool.busy_over_wall"] = sum(s.cpu for s in pooled) / wall if wall else 0.0
    metrics["cli.pool.concurrency"] = sum(s.end - s.start for s in pooled) / wall if wall else 0.0
    return metrics


def select_metrics(declared: list[dict], measured: dict) -> dict:
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        raise KeyError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    return {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared}


def run_workload(args) -> int:
    if not (SRC / "kvrelay" / "__init__.py").is_file():
        print(f"kvrelay sources not found under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[-PINNED_CPUS:])
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)

    import_times = import_seconds()
    import numpy as np

    sys.path.insert(0, str(SRC))
    # The package re-exports functions that shadow some submodule names
    # (kvrelay.compress), so the modules are taken from the import system.
    kv = SimpleNamespace(
        **{name: importlib.import_module(f"kvrelay.{name}") for name in ("backbone", "cli", "compress", "relay")}
    )
    import tracer as tracer_mod
    import workloads

    workdir = OUT / "work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    runner = Runner(kv)

    setup_times, signatures = [], set()
    for rep in range(SETUP_REPS):
        start = time.perf_counter()
        workload = workloads.WORKLOADS[args.workload](kv, args.seed, workdir / f"setup{rep}")
        runner.run_cycle(workload)
        setup_times.append(time.perf_counter() - start)
        signatures.add(workload.signature())
    if len(signatures) != 1:
        runner.problems.append("set-up repetitions produced different inputs or outputs")
    setup_s = statistics.median(import_times) + statistics.median(setup_times)
    ops_per_cycle = len(workload.cycle())

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(np),
        "import_s": import_times,
        "setup_rep_s": setup_times,
        **workload.detail(),
    }
    start = time.perf_counter()
    if args.trace == 0:
        times = runner.run_until(workload, start + args.seconds)
        measured = {
            "ops_per_s": block_throughput(times),
            "op_s_p50": statistics.median(times),
            "op_s_p90": statistics.quantiles(times, n=10)[-1],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup_s,
        }
        detail.update(timed_ops=len(times), end_to_end=measured)
        metrics = select_metrics(declared["end_to_end"], measured)
    else:
        untraced = runner.run_until(workload, start + UNTRACED_SHARE * args.seconds)
        tracer = tracer_mod.Tracer()
        first_op = runner.attempted + 1
        tracer.install()
        try:
            traced = runner.run_until(workload, start + args.seconds, tracer, min_cycles=2)
        finally:
            tracer.uninstall()
        per_cycle = cycle_counts(tracer.spans, first_op, ops_per_cycle)
        if any(counts != per_cycle[0] for counts in per_cycle):
            runner.problems.append("work counts differ between cycles over the same inputs")
        untraced_rate = block_throughput(untraced)
        traced_rate = block_throughput(traced)
        measured = layer_metrics(tracer_mod, tracer.spans, len(traced), dict(per_cycle[0]), ops_per_cycle)
        measured["trace.overhead"] = untraced_rate / traced_rate
        check_repeat_counts(args, per_cycle[0], runner)
        detail.update(
            untraced_ops=len(untraced),
            traced_ops=len(traced),
            untraced_ops_per_s=untraced_rate,
            traced_ops_per_s=traced_rate,
            counts_per_cycle=per_cycle[0],
            layers=measured,
        )
        write_spans(args, tracer.spans, detail)
        metrics = select_metrics(declared["per_layer"], measured)

    failed_frac = runner.failed / runner.attempted
    detail.update(attempted=runner.attempted, failed=runner.failed, failed_frac=failed_frac,
                  problems=runner.problems)
    shown = (
        {name: {"value": value, "unit": E2E_UNITS[name]} for name, value in measured.items()}
        if args.trace == 0
        else metrics
    )
    for name, metric in shown.items():
        print(f"{args.workload:<11} {name:<40} {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload:<11} {'failed_frac':<40} {failed_frac:.6g} 1 "
          f"({runner.failed} of {runner.attempted} ops)")
    if args.trace == 0:
        print(f"{args.workload:<11} op_s_p50 and op_s_p90 over {detail['timed_ops']} timed ops")
    for problem in runner.problems:
        print(f"{args.workload:<11} FAILED {problem}")
    print("detail " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": runner.failed == 0 and not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def check_repeat_counts(args, counts: dict, runner: Runner) -> None:
    """Work counts must repeat exactly on every run of the same code and seed."""
    path = OUT / f"counts_{args.workload}_seed{args.seed}_{code_digest()[:16]}.json"
    if path.is_file():
        recorded = json.loads(path.read_text())
        if recorded != counts:
            changed = sorted(k for k in set(recorded) | set(counts) if recorded.get(k) != counts.get(k))
            runner.problems.append(f"work counts differ from the run recorded in {path.name}: {changed}")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(counts, indent=1, sort_keys=True) + "\n")


def write_spans(args, spans, detail: dict) -> None:
    path = OUT / f"spans_{args.workload}_seed{args.seed}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as out:
        out.write(json.dumps(detail, sort_keys=True) + "\n")
        for span in spans:
            out.write(json.dumps(dataclasses.asdict(span)) + "\n")


def run_all(args) -> int:
    """Each workload in its own process, so peak_rss_mb belongs to it."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE,
            text=True,
            check=False,
        )
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            print(f"workload {name} exited {child.returncode}", file=sys.stderr)
            return child.returncode or 1
        for line in lines[:-1]:
            print(line, flush=True)
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
