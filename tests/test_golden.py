"""Reports, CSVs, summaries and emitted fixtures stay byte-identical.

Report floats pass through BLAS and LAPACK, so the golden bytes hold for
one OpenBLAS kernel, :data:`golden_cases.GOLDEN_BLAS_CORE`. The test runs
every case once in one child interpreter with ``OPENBLAS_CORETYPE`` set to
that kernel, then ``desk`` again without libyaml, and compares exact
bytes; a run on another kernel is a finding to report, not a reason to
compare with a tolerance. Where that kernel cannot run (not x86-64, no
AVX2, or no OpenBLAS bundled with numpy) the byte tests skip. See
``golden_cases.py`` for the cases and how to regenerate them.
"""

import os
import pickle
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import golden_cases
import kvrelay
from golden_cases import CASES, DIGESTS, GOLDEN, GOLDEN_BLAS_CORE, blas_core, expected_files


def test_every_case_has_golden_files():
    assert CASES and all(expected_files(case) for case in CASES)


def _has_avx2() -> bool:
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            return any(line.startswith("flags") and "avx2" in line.split() for line in cpuinfo)
    except OSError:
        return False


# Runs every golden case, then desk without libyaml, in a fresh interpreter
# and pickles (the BLAS kernel it ran on, {case: files}) to stdout.
_CHILD = """
import pickle, sys, tempfile
from pathlib import Path
import yaml
from golden_cases import CASES, blas_core, run_case
with tempfile.TemporaryDirectory() as work:
    got = {case: run_case(case, Path(work, case)) for case in CASES}
    if hasattr(yaml, "CSafeLoader"):
        del yaml.CSafeLoader  # a PyYAML built without libyaml has no CSafeLoader
    got["desk without libyaml"] = run_case("desk", Path(work, "without_libyaml"))
pickle.dump((blas_core(), got), sys.stdout.buffer)
"""


@pytest.fixture(scope="module")
def golden_run():
    """{case: files} of one child run, which must report the golden kernel."""
    if blas_core() == "unknown" or platform.machine().lower() not in ("x86_64", "amd64") or not _has_avx2():
        pytest.skip(f"the {GOLDEN_BLAS_CORE} kernel needs numpy's bundled OpenBLAS on an x86-64 CPU with AVX2")
    path = [str(Path(__file__).resolve().parent), str(Path(kvrelay.__file__).resolve().parents[1])]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, OPENBLAS_CORETYPE=GOLDEN_BLAS_CORE, PYTHONPATH=os.pathsep.join(path))
    child = subprocess.run([sys.executable, "-c", _CHILD], env=env, capture_output=True, timeout=300)
    assert child.returncode == 0, child.stderr.decode()
    kernel, got = pickle.loads(child.stdout)
    assert kernel == GOLDEN_BLAS_CORE
    return got


def _assert_same_bytes(case, got, expected):
    assert sorted(got) == sorted(expected)
    changed = [name for name in sorted(got) if got[name] != expected[name]]
    if DIGESTS in changed:
        changed.remove(DIGESTS)
        want = set(expected[DIGESTS].decode().splitlines())
        changed += [line.split("  ", 1)[1] for line in got[DIGESTS].decode().splitlines() if line not in want]
    assert not changed, f"{case}: these outputs differ from the golden bytes on {GOLDEN_BLAS_CORE}: {changed}"


@pytest.mark.parametrize("case", CASES)
def test_simulate_outputs_match_golden_bytes(case, golden_run):
    _assert_same_bytes(case, golden_run[case], expected_files(case))


def test_simulate_without_libyaml_matches_golden_bytes(golden_run):
    _assert_same_bytes("desk", golden_run["desk without libyaml"], expected_files("desk"))


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML was built without libyaml")
@pytest.mark.parametrize("case", CASES)
def test_libyaml_and_python_loaders_parse_configs_alike(case):
    text = (GOLDEN / f"{case}.yaml").read_text(encoding="utf-8")
    assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)


def test_regeneration_refuses_another_kernel(tmp_path, monkeypatch, capsys):
    # a copy, so a broken refusal cannot touch the committed files
    copy = tmp_path / "golden"
    shutil.copytree(GOLDEN, copy)
    before = golden_cases._files(copy)
    monkeypatch.setattr(golden_cases, "GOLDEN", copy)
    monkeypatch.setattr(golden_cases, "blas_core", lambda: "SkylakeX")
    assert golden_cases.main(["--overwrite"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "OPENBLAS_CORETYPE=Haswell" in err
    assert golden_cases._files(copy) == before
