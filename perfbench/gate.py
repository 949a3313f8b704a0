"""Correctness gate applied to every repetition.

Operations are steps for ``decflow run`` and identity checks for
``decflow verify``.  Each gate returns ``(attempted, failed, violations)``;
a violation is a one-line message naming the operation and the cause.
"""

from __future__ import annotations

import csv
import math
import os
import re

#: Acceptance criterion c06: relative mass drift against step 0.
MASS_DRIFT_MAX = 1e-11
#: Acceptance criterion c07: per-step entropy increment when insulated.
ENTROPY_STEP_MIN = -1e-9
#: ``decflow verify`` over both group maps: 19 field + 7 x 2 group checks.
VERIFY_CHECKS = 33

#: The ``diagnostics.csv`` header, kept here rather than read from
#: ``decflow`` so that a change to the program's header fails the gate.
CSV_HEADER = (
    "step,time,mass,entropy,energy,boundary_heat,heat_source,"
    "energy_residual,entropy_production,momentum_iters,entropy_iters"
).split(",")

_VERIFY_LINE = re.compile(r"^(\S+)\s+(\S+)\s+tol\s+(\S+)\s+(ok|FAIL)$")


def read_diagnostics(path: str):
    """Header and rows of a ``diagnostics.csv`` as lists of strings."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return (rows[0], rows[1:]) if rows else ([], [])


def check_run(exit_code, outdir: str, steps: int, insulated: bool, snapshot_stride: int):
    """Gate one ``decflow run``: exit 0, every step present with finite
    values, mass drift below c06's bound, and (insulated) no entropy
    decrease beyond c07's."""
    violations = []
    if exit_code != 0:
        violations.append(f"decflow run exited with {exit_code}")
    path = os.path.join(outdir, "diagnostics.csv")
    if not os.path.exists(path):
        return steps, steps, violations + ["diagnostics.csv missing"]
    header, rows = read_diagnostics(path)
    if header != CSV_HEADER:
        return steps, steps, violations + ["diagnostics.csv header changed"]

    bad = set()
    values = []
    for pos, row in enumerate(rows):
        try:
            nums = [float(x) for x in row]
        except ValueError:
            nums = []
        if len(nums) != len(CSV_HEADER) or not all(map(math.isfinite, nums)) or nums[0] != pos:
            violations.append(f"step {pos}: row not {len(CSV_HEADER)} finite numbers in order")
            bad.add(pos)
            values.append(None)
        else:
            values.append(dict(zip(CSV_HEADER, nums)))
    missing = max(0, steps + 1 - len(rows))
    if missing:
        violations.append(f"{missing} of {steps} steps missing from diagnostics.csv")
    if len(rows) > steps + 1:
        violations.append(f"diagnostics.csv has {len(rows) - 1} steps, expected {steps}")

    first = values[0] if values else None
    for k in range(1, len(values)):
        cur, prev = values[k], values[k - 1]
        if cur is None or first is None:
            continue
        drift = abs(cur["mass"] - first["mass"]) / abs(first["mass"])
        if not drift < MASS_DRIFT_MAX:
            violations.append(f"step {k}: mass drift {drift:.3e} >= {MASS_DRIFT_MAX:.0e}")
            bad.add(k)
        if insulated and prev is not None:
            increment = cur["entropy"] - prev["entropy"]
            if increment < ENTROPY_STEP_MIN:
                violations.append(f"step {k}: entropy increment {increment:.3e} < {ENTROPY_STEP_MIN:.0e}")
                bad.add(k)

    if snapshot_stride > 0:
        present = set(os.listdir(outdir))
        for k in range(0, steps + 1, snapshot_stride):
            if f"snapshot_{k:06d}.vtk" not in present:
                violations.append(f"step {k}: VTK snapshot missing")
                bad.add(k)

    # step 0 is the initial state, not an operation; any violation fails at
    # least one operation
    failed = len(bad - {0}) + missing
    if violations:
        failed = max(failed, 1)
    return steps, min(steps, failed), violations


def check_verify(exit_code, report: str):
    """Gate one ``decflow verify``: exit 0 and all 33 checks listed as ok."""
    violations = []
    if exit_code != 0:
        violations.append(f"decflow verify exited with {exit_code}")
    failed_names = []
    listed = 0
    for line in report.splitlines():
        match = _VERIFY_LINE.match(line.strip())
        if match:
            listed += 1
            if match.group(4) != "ok":
                failed_names.append(match.group(1))
    for name in failed_names:
        violations.append(f"check {name}: FAIL")
    if listed != VERIFY_CHECKS:
        violations.append(f"report lists {listed} checks, expected {VERIFY_CHECKS}")
    failed = len(failed_names) + max(0, VERIFY_CHECKS - listed)
    if violations:
        failed = max(failed, 1)
    return VERIFY_CHECKS, min(VERIFY_CHECKS, failed), violations
