"""Reproducible runs: a run writes the same bytes under 1 and 2 BLAS
threads, and twice in one process.

Both tests run a 250-cell jittered mesh with the taylor-like vortex,
viscosity, conduction, heating and isothermal walls for 8 steps, and compare
``diagnostics.csv`` and the two VTK snapshots byte for byte.  The second
test catches state that one run leaves to the next in the same process,
such as a cache kept past its stepper, for both group maps.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import decflow
from decflow import cli_io as cli
from decflow import mesh as msh


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    """A directory holding the mesh file."""
    root = tmp_path_factory.mktemp("determinism")
    rng = np.random.default_rng([1, 12, 10])
    mesh = msh.jitter_mesh(msh.generate_rect_mesh(12, 10, 1.0, 1.0), 0.15, rng)
    (root / "mesh.txt").write_text(cli.format_mesh(mesh))
    return root


def config(root, name, kind="exponential"):
    """The config file of a run on the group map ``kind`` writing to ``root /
    name``, and that directory."""
    out, path = root / name, root / f"{name}.cfg"
    lines = [
        f"solver.tau = {kind}",
        f"mesh.file = {root / 'mesh.txt'}",
        "run.h = 1e-3",
        "run.steps = 8",
        "phys.mu = 0.01",
        "phys.lambda = 0.01",
        "phys.insulated = false",
        "initial.preset = taylor-like",
        "heat.preset = constant",
        "heat.rate = 0.5",
        f"output.directory = {out}",
        "output.snapshot_stride = 8",
    ]
    path.write_text("\n".join(lines) + "\n")
    return path, out


def outputs(out):
    """The bytes of every file a run wrote, by name."""
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert "diagnostics.csv" in files
    assert sum(name.endswith(".vtk") for name in files) == 2
    return files


def test_the_blas_thread_count_leaves_the_outputs(root):
    src = os.path.dirname(os.path.dirname(decflow.__file__))
    results = []
    for threads in ("1", "2"):
        path, out = config(root, f"threads-{threads}")
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
            OPENBLAS_NUM_THREADS=threads,
            OMP_NUM_THREADS=threads,
        )
        code = f"import sys, decflow.cli_io as cli; sys.exit(cli.main(['run', {str(path)!r}]))"
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300)
        assert done.returncode == 0, done.stderr
        results.append(outputs(out))
    assert results[0] == results[1]


@pytest.mark.parametrize("kind", ["exponential", "cayley"])
def test_two_runs_in_one_process_write_the_same_bytes(root, capsys, kind):
    results = []
    for name in ("first", "second"):
        path, out = config(root, f"{name}-{kind}", kind)
        assert cli.main(["run", str(path)]) == 0
        results.append(outputs(out))
    assert results[0] == results[1]
