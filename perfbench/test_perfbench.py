"""Tests of the benchmark itself (not collected by the package's test suite).

    python -m pytest -q perfbench/test_perfbench.py

Run from the root of the source checkout.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parents[1]
COUNTS = [name for name, unit in run.PER_LAYER.items() if unit != "s"
          and unit != "ns"]


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_counts_repeat_across_traced_runs(workload, tmp_path):
    ref = run.load_ref(workload, 0)
    reps = [run.run_child(ROOT, tmp_path, run.cli_args(workload, 0), True,
                          170.0) for _ in range(2)]
    for rep in reps:
        assert rep["code"] == 0, rep["stderr"]
        assert run.check_output(rep["stdout"], ref) == (True, True)
        assert rep["absent"] == []
    first, second = ({k: r["layers"][k] for k in COUNTS} for r in reps)
    assert first == second
    assert first["serialize.bytes"] == ref["bytes"]
    assert first["serialize.records"] == ref["lines"]


def test_unknown_workload_is_rejected():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", "no-such-workload"],
        cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "unknown workload 'no-such-workload'" in proc.stderr
    assert proc.stdout == ""


def test_missing_source_is_an_error(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", "sums-k1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _ref_of(line: str) -> dict:
    return run.digest((line + "\n").encode())


def test_floats_compare_at_twelve_digits():
    ref = _ref_of('{"x": 0.1, "n": 3, "s": "a", "v": [1.5, 2]}')
    longer = '{"x": 0.10000000000001, "n": 3, "s": "a", "v": [1.5, 2.0]}'
    assert run.check_output((longer + "\n").encode(), ref) == (True, False)
    for changed in ('{"x": 0.100000000001, "n": 3, "s": "a", "v": [1.5, 2]}',
                    '{"x": 0.1, "n": 4, "s": "a", "v": [1.5, 2]}',
                    '{"x": 0.1, "n": 3, "s": "b", "v": [1.5, 2]}',
                    '{"x": 0.1, "n": 3, "s": "a", "v": [1.5, 2, 0]}',
                    '{"x": nan, "n": 3, "s": "a", "v": [1.5, 2]}',
                    '{"x": 0.1, "n": 3, "s": "a", "v": [1.5, 2]'):
        assert run.check_output((changed + "\n").encode(), ref) == (False, False)


def test_refs_cover_every_variant():
    refs = json.loads(run.REFS.read_text())
    assert sorted(refs) == sorted(run.WORKLOADS)
    assert all(len(v) == run.VARIANTS for v in refs.values())
