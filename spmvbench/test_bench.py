"""Fast self-test of the benchmark (tiny matrices, one-second phases).

Run from the repository root::

    python3 -m pytest spmvbench/test_bench.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _cli(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names_the_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(bench.WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(bench.UNITS)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"),
                                       (1, "per_layer")])
@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_every_metric_appears_with_its_unit(workload, trace, key):
    stdout, result = _cli(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    for m in result["metrics"].values():
        assert isinstance(m["value"], float) and np.isfinite(m["value"])
    if trace:
        assert result["metrics"]["degrade.transitions"]["value"] == 0
        assert result["metrics"]["registry.evictions"]["value"] == 0
        assert "kernel.backend = " in stdout
    else:
        assert result["metrics"]["setup_s"]["value"] > 0
    assert " shed=" in stdout and " failed=" in stdout


@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_gate_trips_on_a_wrong_reference(workload, monkeypatch, capsys):
    def wrong(spasm, x):
        y = spasm.spmv_naive(x)
        y[0] = np.nextafter(y[0], np.inf)
        return y

    monkeypatch.setattr(bench, "reference_spmv", wrong)
    code = bench.main(["--workload", workload, "--seed", "3",
                       "--seconds", "1", "--smoke"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] > 0
