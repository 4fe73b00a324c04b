"""Reports, CSVs, summaries and emitted fixtures stay byte-identical.

Bytes must match exactly on the BLAS kernel the golden files were made on
(see ``golden_cases.py``): report floats pass through BLAS and LAPACK, so
a kernel that rounds differently fails here, and the failure names the
kernel. That is a finding to report, not a reason to compare with a
tolerance. The ``desk`` case, whose backfill units all skip with full
rank, must also match under the ``Haswell`` kernel; the test runs it in a
child interpreter with ``OPENBLAS_CORETYPE=Haswell``, on x86-64 CPUs with
AVX2 only. See ``golden_cases.py`` for the cases and how to regenerate
them.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import kvrelay
from golden_cases import CASES, DIGESTS, GOLDEN, GOLDEN_BLAS_CORE, blas_core, expected_files, run_case


def test_every_case_has_golden_files():
    assert CASES and all(expected_files(case) for case in CASES)


def _assert_golden_bytes(case, work):
    _assert_same_bytes(case, run_case(case, work), blas_core())


def _assert_same_bytes(case, got, kernel):
    expected = expected_files(case)
    assert sorted(got) == sorted(expected)
    changed = [name for name in sorted(got) if got[name] != expected[name]]
    if DIGESTS in changed:
        changed.remove(DIGESTS)
        want = set(expected[DIGESTS].decode().splitlines())
        changed += [line.split("  ", 1)[1] for line in got[DIGESTS].decode().splitlines() if line not in want]
    kernels = f"run on the {kernel} BLAS kernel, golden bytes made on {GOLDEN_BLAS_CORE}"
    assert not changed, f"{case}: these outputs differ from the golden bytes ({kernels}): {changed}"


@pytest.mark.parametrize("case", CASES)
def test_simulate_outputs_match_golden_bytes(case, tmp_path):
    _assert_golden_bytes(case, tmp_path)


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML was built without libyaml")
@pytest.mark.parametrize("case", CASES)
def test_libyaml_and_python_loaders_parse_configs_alike(case):
    text = (GOLDEN / f"{case}.yaml").read_text(encoding="utf-8")
    assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)


def test_simulate_without_libyaml_matches_golden_bytes(tmp_path, monkeypatch):
    # a PyYAML built without libyaml has no CSafeLoader
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    _assert_golden_bytes("desk", tmp_path)


def _has_avx2() -> bool:
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            return any(line.startswith("flags") and "avx2" in line.split() for line in cpuinfo)
    except OSError:
        return False


# Runs one golden case in a fresh interpreter and writes every file it yields
# under argv[2]; the first stdout line is the BLAS kernel the child ran on.
_CHILD = """
import sys
from pathlib import Path
from golden_cases import blas_core, run_case
print(blas_core())
for name, data in run_case(sys.argv[1], Path(sys.argv[3])).items():
    path = Path(sys.argv[2]) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
"""


@pytest.mark.skipif(
    blas_core() == "unknown" or platform.machine().lower() not in ("x86_64", "amd64") or not _has_avx2(),
    reason="needs numpy's bundled OpenBLAS on an x86-64 CPU with AVX2",
)
def test_desk_matches_golden_bytes_on_the_haswell_kernel(tmp_path):
    path = [str(Path(__file__).resolve().parent), str(Path(kvrelay.__file__).resolve().parents[1])]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell", PYTHONPATH=os.pathsep.join(path))
    got = tmp_path / "got"
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, "desk", str(got), str(tmp_path / "work")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    kernel = child.stdout.splitlines()[0]
    assert kernel == "Haswell"
    files = {p.relative_to(got).as_posix(): p.read_bytes() for p in sorted(got.rglob("*")) if p.is_file()}
    _assert_same_bytes("desk", files, kernel)
