"""Reports, CSVs, summaries and emitted fixtures stay byte-identical.

Bytes must match exactly on the BLAS kernel the golden files were made on
(see ``golden_cases.py``): report floats pass through BLAS and LAPACK, so
a kernel that rounds differently fails here, and the failure names the
kernel. That is a finding to report, not a reason to compare with a
tolerance. See ``golden_cases.py`` for the cases and how to regenerate
them.
"""

import pytest
import yaml

from golden_cases import CASES, DIGESTS, GOLDEN, GOLDEN_BLAS_CORE, blas_core, expected_files, run_case


def test_every_case_has_golden_files():
    assert CASES and all(expected_files(case) for case in CASES)


def _assert_golden_bytes(case, work):
    got, expected = run_case(case, work), expected_files(case)
    assert sorted(got) == sorted(expected)
    changed = [name for name in sorted(got) if got[name] != expected[name]]
    if DIGESTS in changed:
        changed.remove(DIGESTS)
        want = set(expected[DIGESTS].decode().splitlines())
        changed += [line.split("  ", 1)[1] for line in got[DIGESTS].decode().splitlines() if line not in want]
    kernels = f"run on the {blas_core()} BLAS kernel, golden bytes made on {GOLDEN_BLAS_CORE}"
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
