"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Run from the root of the source tree. It checks that every metric named in
BENCHMARK.json is printed with its unit on every workload, that the output
checker catches a dropped true match and a corrupted record, and that the
benchmark refuses to run without the sources.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import check_run_output  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(trace: int, workload: str, cwd: Path = ROOT, scale: str = "0.02"):
    cmd = list(SPEC["command"]) + [
        "--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", str(trace),
        "--scale", scale,
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + [
        w["name"] for w in SPEC["workloads"]
    ]
    assert len(names) == len(set(names)) and all(name.match(n) for n in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and WORKLOADS[w["name"]].why == w["why"]
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and unit.match(m["unit"])
        assert m["better"] in ("higher", "lower") and 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and unit.match(m["unit"])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(workload, trace):
    proc = _bench(trace, workload)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
        if not trace:
            assert got["value"] > 0, m["name"]
    detail = json.loads(proc.stdout.strip().splitlines()[-2])
    assert detail["workload"] == workload
    for key in ("python", "numpy", "nproc", "seed", "input_bytes", "input_records", "input_sha256"):
        assert key in detail["provenance"], key
    assert detail["why"] and detail["output_digest"]


def test_known_escape_false_negatives_are_counted():
    lines = _bench(0, "hostile_stream").stdout.strip().splitlines()
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    # Counted once per input record, however many passes fit in the run.
    assert detail["passes"] > 1
    assert result["attempted"] == detail["provenance"]["input_records"]
    assert result["failed"] == detail["provenance"]["known_defect_matches"] == 4
    assert result["metrics"]["sound_share"]["value"] < 1


RECORDS = [b'{"a":1}', b'{"a":2}', b'{"a":3}', b'{"a":4}']
TRUTH = np.array([True, False, True, False])
NONE_KNOWN = np.zeros(4, dtype=bool)


def test_checker_accepts_exact_and_over_accepting_output():
    exact = check_run_output(RECORDS, TRUTH, NONE_KNOWN, b'{"a":1}\n{"a":3}\n')
    assert exact.correct and exact.failed == 0 and exact.fp == 0
    over = check_run_output(RECORDS, TRUTH, NONE_KNOWN, b'{"a":1}\n{"a":2}\n{"a":3}\n')
    assert over.correct and over.failed == 0 and over.fp == 1 and over.fpr == 0.5


def test_checker_catches_dropped_true_match():
    check = check_run_output(RECORDS, TRUTH, NONE_KNOWN, b'{"a":1}\n')
    assert not check.correct and check.fn == 1 and check.failed == 1


def test_checker_counts_known_defect_drops_without_failing_the_run():
    known = np.array([False, False, True, False])
    check = check_run_output(RECORDS, TRUTH, known, b'{"a":1}\n')
    assert check.correct and check.fn_known == 1 and check.failed == 1


@pytest.mark.parametrize(
    "output",
    [
        b'{"a":1}\n{"a":X}\n{"a":3}\n',  # corrupted byte
        b'{"a":3}\n{"a":1}\n',  # out of input order
        b'{"a":1}\n{"a":1}\n{"a":3}\n',  # duplicated record
        b'{"a":1}\n{"a":3}',  # last record without its newline
    ],
)
def test_checker_catches_corrupted_output(output):
    check = check_run_output(RECORDS, TRUTH, NONE_KNOWN, output)
    assert not check.correct and check.wrong == 1 and check.failed >= 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(0, SPEC["workloads"][0]["name"], cwd=tmp_path, scale="1")
    assert proc.returncode != 0
    assert proc.stdout == ""
