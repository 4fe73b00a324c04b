"""Golden byte-identity cases for ``kvrelay simulate``.

Each ``tests/golden/<case>.yaml`` is one small sweep. A case runs it with
``--emit-fixtures``, then replays the emitted fixtures under the same chain
and methods. ``tests/golden/<case>/`` holds the reports, CSVs and
``summary.json`` of the first run byte for byte, and a ``SHA256SUMS`` file
with the digests of the emitted fixtures (56-351 KB each) and of every
file the replay wrote.

``tests/test_golden.py`` compares exact bytes: a one-ulp change to any
report float fails it. Report floats pass through BLAS and LAPACK, and
OpenBLAS picks its kernel per CPU, so the bytes hold per kernel: the test
runs every case in one child interpreter under ``OPENBLAS_CORETYPE`` set to
:data:`GOLDEN_BLAS_CORE`, which every x86-64 CPU with AVX2 can run.
:func:`blas_core` names the kernel a run uses. Regenerate the expected
files only for a change that alters report bytes on purpose, and list
every changed file and key in ``CHANGES.md``::

    OPENBLAS_CORETYPE=Haswell PYTHONPATH=src python tests/golden_cases.py --overwrite

The script refuses to run on any other kernel, and without
``--overwrite`` it refuses to replace existing golden files.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import yaml

from kvrelay import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = sorted(path.stem for path in GOLDEN.glob("*.yaml"))
DIGESTS = "SHA256SUMS"
GOLDEN_BLAS_CORE = "Haswell"


def blas_core() -> str:
    """The OpenBLAS kernel numpy runs on, such as "SkylakeX", or "unknown".

    Read from the OpenBLAS that numpy's wheels bundle; a numpy without it
    gives "unknown".
    """
    package = Path(np.__file__).parent
    for lib in sorted([*package.parent.glob("numpy.libs/*openblas*"), *package.glob(".dylibs/*openblas*")]):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def _simulate(config: Path, out: Path, *extra: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["simulate", "--config", str(config), "--out", str(out), *extra])
    if code != 0:
        raise RuntimeError(f"simulate {config.name} exited {code}")


def _files(root: Path) -> dict[str, bytes]:
    return {path.relative_to(root).as_posix(): path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


def run_case(case: str, work: Path) -> dict[str, bytes]:
    """Every file the case's golden directory should hold, keyed by relative path."""
    config = GOLDEN / f"{case}.yaml"
    _simulate(config, work / "spec", "--emit-fixtures")
    doc = yaml.safe_load(config.read_text())
    doc["episodes"] = [{"fixture": f"spec/fixtures/ep{i:03d}.json"} for i in range(len(doc["episodes"]))]
    replay = work / "replay.yaml"
    replay.write_text(yaml.safe_dump(doc))
    _simulate(replay, work / "replay")

    spec = _files(work / "spec")
    files = {name: data for name, data in spec.items() if not name.startswith("fixtures/")}
    digested = {name: data for name, data in spec.items() if name.startswith("fixtures/")}
    digested.update((f"replay/{name}", data) for name, data in _files(work / "replay").items())
    files[DIGESTS] = "".join(
        f"{hashlib.sha256(data).hexdigest()}  {name}\n" for name, data in sorted(digested.items())
    ).encode()
    return files


def expected_files(case: str) -> dict[str, bytes]:
    """The committed golden files of one case, keyed by relative path."""
    return _files(GOLDEN / case)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate the golden simulate outputs.")
    parser.add_argument("--overwrite", action="store_true", help="replace existing golden files")
    args = parser.parse_args(argv)
    core = blas_core()
    if core != GOLDEN_BLAS_CORE:
        print(f"error: this run uses the {core} BLAS kernel; rerun with OPENBLAS_CORETYPE={GOLDEN_BLAS_CORE}", file=sys.stderr)
        return 2
    existing = [case for case in CASES if (GOLDEN / case).exists()]
    if existing and not args.overwrite:
        print(f"error: golden files exist for {existing}; pass --overwrite to replace them", file=sys.stderr)
        return 2
    for case in CASES:
        with tempfile.TemporaryDirectory() as work:
            files = run_case(case, Path(work))
        shutil.rmtree(GOLDEN / case, ignore_errors=True)
        for name, data in files.items():
            path = GOLDEN / case / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
        print(f"{case}: {len(files)} files, {sum(map(len, files.values()))} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
