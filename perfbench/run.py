"""End-to-end and per-layer benchmark of ``decflow run`` and ``decflow verify``.

Usage (from the repository root):

    python3 perfbench/run.py --workload shear65 --seed 1 --seconds 35 --trace 0

Each repetition is one fresh process that calls ``decflow.cli_io.main`` on
inputs generated from ``--seed`` (see ``workloads.py``).  ``--seconds`` sets
how many repetitions a run makes; the BLAS thread setting is left as the
user's environment gives it.  Every repetition passes the correctness gate
in ``gate.py``; operations are steps for ``run`` and identity checks for
``verify``, and ``failed / attempted`` on the last line is the fail ratio.

``--trace 0`` reports the end-to-end metrics, medians over repetitions:

* ``setup_s``: entering ``main`` to the start of step 1 (verify: the
  ``verify.mesh_corpus`` build);
* ``wall_s``: entering ``main`` to its return;
* ``first_step_s``: step 1, the cold Newton solve (verify: the identity-check
  pass after the corpus);
* ``step_ms_p50`` and ``step_ms_tail``: steps 2..N pooled over repetitions
  (verify: single check evaluations); :func:`tail` defines the tail;
* ``steps_per_s``: the same operations per second from the end of step 1
  (verify: of the corpus) to the return, output included;
* ``peak_rss_mb``: ``ru_maxrss`` of the repetition's process.

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics: calls and self time of every spanned function
(``instruments.LAYERS``), the derived counts, and the tracing overhead
(traced minus untraced ``wall_s``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record, with the
environment, goes to ``perfbench/results/BENCH_<workload>_seed<S>_trace<T>.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import gate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")

#: Repetitions per run at the least; with ``--trace 1`` they alternate
#: untraced and traced.
MIN_REPS = 2
#: Set-up samples per untraced run; repetitions supply one each and
#: set-up-only repetitions make up the rest.
SETUP_SAMPLES = 11
#: A run starts no repetition that would end after ``2 * seconds + 30``
#: seconds or ``DEADLINE_S``, and kills one still running at ``HARD_LIMIT_S``,
#: so a much slower program still finishes; the record notes the cut.
DEADLINE_S = 150.0
HARD_LIMIT_S = 170.0

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "first_step_s": "s",
    "step_ms_p50": "ms",
    "step_ms_tail": "ms",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Derived per-layer metrics and their units (spans add ``.calls`` in
#: ``count`` and ``.self_s`` in ``s``).
DERIVED_UNITS = {
    "groups.series_terms_per_call": "terms/call",
    "integrator.newton_iters": "count",
    "integrator.entropy_iters": "count",
    "integrator.jacobian_builds": "count",
    "integrator.residual_evals": "count",
    "integrator.fd_evals_per_newton_iter": "evals/iter",
    "cli_io.bytes_written": "bytes",
    "verify.checks_failed": "count",
    "bench.trace_overhead_s": "s",
}


def tail(samples, per_rep: int):
    """The step tail as ``(value, percentile, sample count)``: the highest
    percentile that leaves at least ten samples beyond it in every
    repetition (``per_rep`` is the fewest samples one repetition gave), read
    from the pooled samples.  A few stalls in one repetition cannot move it.
    Below 11 samples per repetition it is the maximum."""
    ordered = sorted(samples)
    n = len(ordered)
    if per_rep < 11:
        return ordered[-1], 100.0, n
    rank = -(-n * (per_rep - 10) // per_rep)  # ceil(n * q), q = 1 - 10/per_rep
    return ordered[rank - 1], 100.0 * (per_rep - 10) / per_rep, n


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def _blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports (numpy's and SciPy's)."""
    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return found
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def environment() -> dict:
    import scipy
    import scipy.linalg  # noqa: F401  (loads SciPy's BLAS)

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "thread_env": {
            key: os.environ.get(key, "unset")
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": f"{platform.machine()} {cpu}",
        "system": platform.platform(),
    }


# ---------------------------------------------------------------------------
# Repetitions
# ---------------------------------------------------------------------------


def repeat(workdir: str, argv: list, mode: str, index: int, time_left: float) -> dict:
    """Run one repetition in a fresh process; the record holds its stamps,
    or ``error`` when it produced none."""
    shutil.rmtree(os.path.join(workdir, "out"), ignore_errors=True)
    result_path = os.path.join(workdir, f"rep{index}.json")
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, result_path, mode, *argv],
            cwd=workdir,
            capture_output=True,
            text=True,
            timeout=max(5.0, time_left),
        )
    except subprocess.TimeoutExpired:
        return {"mode": mode, "error": f"repetition {index} timed out"}
    if proc.returncode != 0 or not os.path.exists(result_path):
        lines = (proc.stderr or "").strip().splitlines()
        return {"mode": mode, "error": f"repetition {index} crashed: {lines[-1] if lines else proc.returncode}"}
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def gate_repetition(w, rep: dict, workdir: str):
    if "error" in rep:
        ops = gate.VERIFY_CHECKS if w.kind == "verify" else w.steps
        return ops, ops, [rep["error"]]
    if w.kind == "verify":
        return gate.check_verify(rep["exit_code"], rep["stdout"])
    return gate.check_run(rep["exit_code"], os.path.join(workdir, "out"), w.steps, w.insulated, w.snapshot_stride)


def output_counts(workdir: str) -> dict:
    """Solver iterations summed from ``diagnostics.csv`` and the bytes of
    every output file (all zero for ``verify``, which writes none)."""
    path = os.path.join(workdir, "out", "diagnostics.csv")
    if not os.path.exists(path):
        return {"newton_iters": 0, "entropy_iters": 0, "bytes_written": 0}
    header, rows = gate.read_diagnostics(path)
    col_n, col_e = header.index("momentum_iters"), header.index("entropy_iters")
    outdir = os.path.join(workdir, "out")
    return {
        "newton_iters": sum(int(r[col_n]) for r in rows),
        "entropy_iters": sum(int(r[col_e]) for r in rows),
        "bytes_written": sum(os.path.getsize(os.path.join(outdir, f)) for f in os.listdir(outdir)),
    }


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _wall(rep):
    return rep["t_return"] - rep["t_enter"]


def setup_time(w, rep):
    if w.kind == "verify":
        start, end = rep["corpus"][0]
        return end - start
    return rep["steps"][0][0] - rep["t_enter"]


def end_to_end(w, reps: list, setup_reps: list) -> tuple:
    """End-to-end metrics from untraced repetitions, plus notes on the tail
    percentile."""
    walls, firsts, rates, rss, durations, per_rep = [], [], [], [], [], []
    for rep in reps:
        walls.append(_wall(rep))
        rss.append(rep["rss_kb"] / 1024.0)
        if w.kind == "verify":
            # one pass of the identity suite follows the corpus build; its
            # operations are the check evaluations
            corpus_end = rep["corpus"][0][1]
            firsts.append(rep["t_return"] - corpus_end)
            steady = [end - start for start, end in rep["checks"]]
            rates.append(len(steady) / (rep["t_return"] - corpus_end))
        else:
            steps = rep["steps"]
            firsts.append(steps[0][1] - steps[0][0])
            steady = [end - start for start, end in steps[1:]]
            rates.append(len(steady) / (rep["t_return"] - steps[0][1]))
        durations += steady
        per_rep.append(len(steady))
    tail_value, tail_pct, tail_n = tail(durations, min(per_rep))
    metrics = {
        "setup_s": statistics.median(setup_time(w, rep) for rep in setup_reps),
        "wall_s": statistics.median(walls),
        "first_step_s": statistics.median(firsts),
        "step_ms_p50": 1e3 * statistics.median(durations),
        "step_ms_tail": 1e3 * tail_value,
        "steps_per_s": statistics.median(rates),
        "peak_rss_mb": statistics.median(rss),
    }
    notes = {
        "per_repetition": {"wall_s": walls, "first_step_s": firsts, "steps_per_s": rates},
        "tail_percentile": tail_pct,
        "steady_samples": tail_n,
        "setup_samples": len(setup_reps),
        "steady_unit": "check evaluation" if w.kind == "verify" else "step 2..N",
    }
    return metrics, notes


def span_table(rep: dict) -> dict:
    """Per span name: calls and summed self time (duration minus the
    durations of its direct children)."""
    data = np.load(rep["spans_file"])
    name, parent = data["name"], data["parent"]
    dur = data["end"] - data["start"]
    n_names = len(rep["span_names"])
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = np.bincount(name, weights=dur - child, minlength=n_names)
    calls = np.bincount(name, minlength=n_names)
    ids = {n: i for i, n in enumerate(rep["span_names"])}
    parent_name = np.full(len(name), -1)
    parent_name[has_parent] = name[parent[has_parent]]

    def calls_under(child_name, parent_name_):
        return int(np.sum((name == ids[child_name]) & (parent_name == ids[parent_name_])))

    return {
        "calls": {n: int(calls[i]) for n, i in ids.items()},
        "self_s": {n: float(self_time[i]) for n, i in ids.items()},
        "commutators_in_dtau_inv": calls_under("groups.commutator", "groups.dtau_inv"),
        "transports_in_step": calls_under("groups.dtau_inv_star", "integrator.VariationalStepper.step"),
    }


def per_layer(traced: list, plain: list, solver: dict, checks_failed: int) -> tuple:
    """Per-layer metrics: counts from the first traced repetition, self
    times as medians over traced repetitions."""
    tables = [span_table(rep) for rep in traced]
    first = tables[0]
    calls = first["calls"]
    metrics = {}
    for span in first["calls"]:
        metrics[f"{span}.calls"] = calls[span]
        metrics[f"{span}.self_s"] = statistics.median(t["self_s"][span] for t in tables)

    steps = calls["integrator.VariationalStepper.step"]
    # each step makes one transport call for the previous velocity, and one
    # per momentum residual
    residual_evals = first["transports_in_step"] - steps
    newton = solver["newton_iters"]
    fd_evals = max(0, residual_evals - newton - steps) if steps else 0
    dtau_inv = calls["groups.dtau_inv"]
    traced_wall = statistics.median(_wall(rep) for rep in traced)
    plain_wall = statistics.median(_wall(rep) for rep in plain)
    metrics.update(
        {
            "groups.series_terms_per_call": first["commutators_in_dtau_inv"] / dtau_inv if dtau_inv else 0.0,
            "integrator.newton_iters": newton,
            "integrator.entropy_iters": solver["entropy_iters"],
            "integrator.jacobian_builds": calls["integrator.lu_factor"],
            "integrator.residual_evals": residual_evals,
            "integrator.fd_evals_per_newton_iter": fd_evals / newton if newton else 0.0,
            "cli_io.bytes_written": solver["bytes_written"],
            "verify.checks_failed": checks_failed,
            "bench.trace_overhead_s": traced_wall - plain_wall,
        }
    )
    bases = {
        "groups.series_terms_per_call": f"{first['commutators_in_dtau_inv']} commutators under dtau_inv / {dtau_inv} dtau_inv calls",
        "integrator.residual_evals": f"{first['transports_in_step']} dtau_inv_star calls in steps - {steps} steps",
        "integrator.fd_evals_per_newton_iter": f"{fd_evals} finite-difference residuals / {newton} Newton iterations",
        "bench.trace_overhead_s": f"traced wall {traced_wall:.4f} s - untraced wall {plain_wall:.4f} s",
    }
    counts_repeat = all(t["calls"] == calls for t in tables[1:])
    unspanned = statistics.median(_wall(rep) - sum(t["self_s"].values()) for rep, t in zip(traced, tables))
    return metrics, {
        "bases": bases,
        "traced_wall_s": traced_wall,
        "unspanned_s": unspanned,
        "counts_repeat": counts_repeat,
    }


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def run_workload(w, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return its full record (``correct``,
    ``attempted``, ``failed``, ``metrics`` and the details)."""
    from workloads import make_inputs  # imports decflow: after main's path check

    started = time.perf_counter()
    workdir = os.path.join(HERE, "_work", f"{w.name}-s{seed}-t{int(trace)}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        argv = make_inputs(w, seed, workdir)
        reps = max(MIN_REPS, round(seconds / w.rep_seconds))
        plan = ["traced" if trace and i % 2 else "plain" for i in range(reps)]
        if not trace:
            plan = ["setup"] * max(0, SETUP_SAMPLES - reps) + plan

        deadline = min(DEADLINE_S, 2 * seconds + 30)
        attempted = failed = 0
        violations, done = [], []
        solver, checks_failed = None, 0
        longest, cut = 0.0, 0
        for index, mode in enumerate(plan):
            elapsed = time.perf_counter() - started
            if done and elapsed + longest > deadline:
                cut = len(plan) - index
                break
            t0 = time.perf_counter()
            rep = repeat(workdir, argv, mode, index, HARD_LIMIT_S - elapsed)
            longest = max(longest, time.perf_counter() - t0)
            if mode == "setup":
                if "error" in rep or not (rep["steps"] or rep["corpus"]):
                    violations.append(f"set-up repetition {index}: {rep.get('error', 'no set-up stamp')}")
                    failed += 1
                    attempted += 1
                else:
                    done.append(rep)
                continue
            n_ops, n_failed, rep_violations = gate_repetition(w, rep, workdir)
            attempted += n_ops
            failed += n_failed
            violations += [f"repetition {index}: {v}" for v in rep_violations]
            if mode == "traced" and solver is None and "error" not in rep:
                solver = output_counts(workdir)
                checks_failed = n_failed if w.kind == "verify" else 0
            if not rep_violations:
                done.append(rep)

        full = [r for r in done if r["mode"] != "setup"]
        plain = [r for r in full if r["mode"] == "plain"]
        traced = [r for r in full if r["mode"] == "traced"]
        metrics, notes = {}, {}
        if trace and plain and traced and solver is not None:
            metrics, notes = per_layer(traced, plain, solver, checks_failed)
        elif not trace and plain:
            metrics, notes = end_to_end(w, plain, [r for r in done if r["mode"] in ("setup", "plain")])
        correct = failed == 0 and not violations and bool(metrics)
        return {
            "workload": w.name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "repetitions": {mode: sum(r["mode"] == mode for r in done) for mode in ("setup", "plain", "traced")},
            "repetitions_cut_for_time": cut,
            "argv": ["decflow", *argv],
            "correct": correct,
            "attempted": max(1, attempted),
            "failed": failed,
            "fail_ratio": failed / max(1, attempted),
            "violations": violations,
            "metrics": metrics,
            "notes": notes,
            "bench_seconds": time.perf_counter() - started,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def units(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name in DERIVED_UNITS:
        return DERIVED_UNITS[name]
    return "count" if name.endswith(".calls") else "s"


def result_line(record: dict) -> str:
    """The benchmark's last output line."""
    metrics = {name: {"value": value, "unit": units(name)} for name, value in record["metrics"].items()}
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": metrics,
        }
    )


def summary_lines(record: dict) -> list:
    lines = [
        f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
        f"{record['argv']}",
        f"repetitions {record['repetitions']} ({record['repetitions_cut_for_time']} cut for time), "
        f"fail_ratio {record['failed']}/{record['attempted']} = {record['fail_ratio']:.4g}",
    ]
    lines += [f"violation: {v}" for v in record["violations"]]
    metrics, notes = record["metrics"], record["notes"]
    if record["trace"] and metrics:
        wall = notes["traced_wall_s"]
        lines.append(f"{'span':<44} {'calls':>9} {'self_s':>10} {'share':>7}")
        for name in sorted(n[: -len(".calls")] for n in metrics if n.endswith(".calls")):
            self_s = metrics[f"{name}.self_s"]
            lines.append(f"{name:<44} {metrics[name + '.calls']:>9} {self_s:>10.4f} {self_s / wall:>7.1%}")
        unspanned = notes["unspanned_s"]
        lines.append(f"{'(outside every span)':<44} {'':>9} {unspanned:>10.4f} {unspanned / wall:>7.1%}")
        for name, unit in DERIVED_UNITS.items():
            base = notes["bases"].get(name, "")
            lines.append(f"{name} = {metrics[name]:.6g} {unit}" + (f"  ({base})" if base else ""))
        lines.append(f"traced wall_s {wall:.4f} s; counts repeat across traced repetitions: {notes['counts_repeat']}")
    elif metrics:
        for name, value in metrics.items():
            lines.append(f"{name} = {value:.6g} {E2E_UNITS[name]}")
        lines.append(
            f"step_ms_tail is p{notes['tail_percentile']:.1f} of {notes['steady_samples']} samples "
            f"({notes['steady_unit']}); setup_s is the median of {notes['setup_samples']} set-ups"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "decflow", "cli_io.py")):
        print(f"perfbench: no decflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} (have {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    record = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    record["environment"] = environment()
    for line in summary_lines(record):
        print(line)
    print(f"environment: {json.dumps(record['environment'])}")

    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"wrote {os.path.relpath(path, ROOT)}")

    print(result_line(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
