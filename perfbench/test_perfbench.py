"""Tests of the benchmark itself; they leave ``decflow`` untouched.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import gate  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, Workload, make_inputs  # noqa: E402

TINY_RUN = Workload(
    name="tiny-run",
    kind="run",
    rep_seconds=1.0,
    nx=3,
    ny=3,
    steps=6,
    snapshot_stride=3,
    config=dict(WORKLOADS["shear65"].config),
)


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _printed(record):
    return json.loads(run.result_line(record))


def _check_named(printed, listed):
    assert set(printed["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert printed["metrics"][m["name"]]["unit"] == m["unit"], m["name"]


def test_workloads_match_benchmark_file(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", [TINY_RUN, WORKLOADS["verify"]], ids=lambda w: w.name)
def test_every_end_to_end_metric_printed_with_unit(spec, workload):
    record = run.run_workload(workload, seed=3, seconds=1.0, trace=False)
    printed = _printed(record)
    assert printed["correct"], record["violations"]
    assert printed["failed"] == 0 and printed["attempted"] >= 1
    _check_named(printed, spec["end_to_end"])
    assert all(m["value"] > 0 for m in printed["metrics"].values())
    assert "\n" not in run.result_line(record)


def test_per_layer_metrics_named_and_counts_repeat(spec):
    first = run.run_workload(TINY_RUN, seed=5, seconds=4.0, trace=True)
    second = run.run_workload(TINY_RUN, seed=5, seconds=4.0, trace=True)
    for record in (first, second):
        printed = _printed(record)
        assert printed["correct"], record["violations"]
        _check_named(printed, spec["per_layer"])
        assert record["repetitions"]["traced"] == 2
        assert record["notes"]["counts_repeat"]
    counts = [
        name
        for name, unit in ((m["name"], m["unit"]) for m in spec["per_layer"])
        if unit in ("count", "bytes", "terms/call", "evals/iter")
    ]
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}
    assert first["metrics"]["integrator.jacobian_builds"] >= 1
    assert first["metrics"]["integrator.VariationalStepper.step.calls"] == TINY_RUN.steps


@pytest.fixture(scope="module")
def diagnostics(tmp_path_factory):
    """A real ``diagnostics.csv`` (and snapshots) from one tiny repetition."""
    workdir = str(tmp_path_factory.mktemp("rep"))
    argv = make_inputs(TINY_RUN, 1, workdir)
    rep = run.repeat(workdir, argv, "plain", 0, 120.0)
    assert rep["exit_code"] == 0
    return os.path.join(workdir, "out")


def _corrupt(src_dir, dst_dir, edit):
    shutil.copytree(src_dir, dst_dir)
    path = os.path.join(dst_dir, "diagnostics.csv")
    header, rows = gate.read_diagnostics(path)
    rows = edit(header, rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])
    return dst_dir


def _set(column, step, fn):
    def edit(header, rows):
        col = header.index(column)
        rows[step][col] = repr(fn(float(rows[step][col])))
        return rows

    return edit


def _check(outdir):
    return gate.check_run(0, outdir, TINY_RUN.steps, True, TINY_RUN.snapshot_stride)


def test_gate_passes_clean_diagnostics(diagnostics):
    attempted, failed, violations = _check(diagnostics)
    assert (attempted, failed, violations) == (TINY_RUN.steps, 0, [])


@pytest.mark.parametrize(
    "label, edit, message",
    [
        ("nan", _set("energy", 3, lambda v: float("nan")), "step 3: row not"),
        ("mass", _set("mass", 4, lambda v: v * (1 + 1e-9)), "step 4: mass drift"),
        ("entropy", _set("entropy", 5, lambda v: v - 1e-6), "step 5: entropy increment"),
        ("truncated", lambda header, rows: rows[:-2], "2 of 6 steps missing"),
    ],
)
def test_gate_reports_corrupted_diagnostics(diagnostics, tmp_path, label, edit, message):
    outdir = _corrupt(diagnostics, str(tmp_path / label), edit)
    attempted, failed, violations = _check(outdir)
    assert failed >= 1
    assert any(message in v for v in violations), violations


def test_gate_reports_failed_exit_and_missing_snapshot(diagnostics, tmp_path):
    outdir = str(tmp_path / "out")
    shutil.copytree(diagnostics, outdir)
    os.remove(os.path.join(outdir, "snapshot_000003.vtk"))
    _, failed, violations = gate.check_run(3, outdir, TINY_RUN.steps, True, TINY_RUN.snapshot_stride)
    assert failed >= 1
    assert "decflow run exited with 3" in violations
    assert "step 3: VTK snapshot missing" in violations


def test_gate_reports_failed_verify_check():
    names = [f"check-{i}" for i in range(gate.VERIFY_CHECKS)]
    lines = [f"{n}  1.0000e-16  tol  1.0e-11  ok" for n in names]
    assert gate.check_verify(0, "\n".join(lines)) == (33, 0, [])
    lines[4] = lines[4].replace("ok", "FAIL")
    _, failed, violations = gate.check_verify(1, "\n".join(lines[:-1]))
    assert failed == 2
    assert "check check-4: FAIL" in violations


def test_tail_is_highest_percentile_with_ten_beyond():
    assert run.tail(range(100), 100) == (89, 90.0, 100)
    # two repetitions of 50: p80, so each could hold ten samples beyond it
    assert run.tail(range(100), 50) == (79, 80.0, 100)
    assert run.tail(range(10), 10) == (9, 100.0, 10)


def test_exits_nonzero_without_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "shear65", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
