"""Benchmark workloads and their seeded inputs.

Each workload is one ``decflow`` command.  A run workload gets a jittered
mesh file and a config file generated from the seed; the ``verify``
workload gets the seed on its command line.  The program sees only those
inputs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from decflow import cli_io
from decflow import mesh as msh

#: Fraction of the shortest incident edge by which interior nodes move.
#: Halved on a ``MeshError``, as ``verify.mesh_corpus`` does.
JITTER = 0.15


@dataclass(frozen=True)
class Workload:
    """One benchmarked command and how much of it one run repeats.

    ``rep_seconds`` is the time one repetition (a fresh process) takes on
    the reference machine (2 vCPUs, OpenBLAS); a run makes
    ``round(seconds / rep_seconds)`` repetitions, at least two, so both
    sides of a comparison do the same work.
    """

    name: str
    kind: str  # "run" or "verify"
    rep_seconds: float
    nx: int = 0
    ny: int = 0
    steps: int = 0
    snapshot_stride: int = 0
    config: dict = field(default_factory=dict)

    @property
    def insulated(self) -> bool:
        return self.config.get("phys.insulated") == "true"


# Why each workload is here is in BENCHMARK.json.  In short: shear65 is
# steady stepping (Newton with a reused LU, residual-bound, per-step output),
# taylor250 is cold start (a 558-residual finite-difference Jacobian and one
# LU at 250 cells), verify runs no integrator (geometry builds and the field
# and group operators on 51 mesh sizes).
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="shear65",
            kind="run",
            rep_seconds=4.3,
            nx=6,
            ny=5,
            steps=200,
            snapshot_stride=50,
            config={
                "run.h": "1e-3",
                "phys.mu": "0.01",
                "phys.lambda": "0.01",
                "phys.insulated": "true",
                "initial.preset": "shear",
            },
        ),
        Workload(
            name="taylor250",
            kind="run",
            rep_seconds=22.3,
            nx=12,
            ny=10,
            steps=26,
            snapshot_stride=4,
            config={
                "run.h": "1e-3",
                "phys.mu": "0.01",
                "phys.lambda": "0.01",
                "phys.insulated": "false",
                "initial.preset": "taylor-like",
                "heat.preset": "constant",
                "heat.rate": "0.5",
            },
        ),
        Workload(
            name="verify",
            kind="verify",
            rep_seconds=2.5,
        ),
    )
}


def jittered_mesh(nx: int, ny: int, rng: np.random.Generator) -> msh.Mesh:
    """``jitter_mesh`` on the unit-square ``generate_rect_mesh``, halving the
    amount until the geometry builds (the unperturbed mesh in the worst
    case)."""
    base = msh.generate_rect_mesh(nx, ny, 1.0, 1.0)
    amount = JITTER
    while True:
        mesh = base if amount == 0.0 else msh.jitter_mesh(base, amount, rng)
        try:
            msh.compute_geometry(mesh)
            return mesh
        except msh.MeshError:
            amount = 0.0 if amount < 1e-3 else 0.5 * amount


def config_text(w: Workload, mesh_file: str, outdir: str) -> str:
    lines = [
        f"mesh.file = {mesh_file}",
        f"run.steps = {w.steps}",
        *(f"{key} = {value}" for key, value in w.config.items()),
        f"output.directory = {outdir}",
        f"output.snapshot_stride = {w.snapshot_stride}",
    ]
    return "\n".join(lines) + "\n"


def make_inputs(w: Workload, seed: int, workdir: str) -> list:
    """Write the seeded inputs under ``workdir`` and return the ``decflow``
    argv.  Paths in the argv and config are relative to ``workdir``, which
    is the working directory of every repetition."""
    if w.kind == "verify":
        return ["verify", "--seed", str(seed)]
    rng = np.random.default_rng([seed, w.nx, w.ny])
    mesh = jittered_mesh(w.nx, w.ny, rng)
    with open(os.path.join(workdir, "mesh.txt"), "w", encoding="utf-8") as fh:
        fh.write(cli_io.format_mesh(mesh))
    with open(os.path.join(workdir, "run.cfg"), "w", encoding="utf-8") as fh:
        fh.write(config_text(w, "mesh.txt", "out"))
    return ["run", "run.cfg"]
