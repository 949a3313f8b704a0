"""Configuration-driven command line: simulation runs, identity
verification, and mesh utilities.

Config files are flat ``key = value`` text with dotted section keys
(``gas.gamma = 1.4``); ``#`` starts a comment.  Initial conditions and heat
sources are named presets with numeric parameters -- there is deliberately
no expression language, so a config fully determines a run.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import diagnostics as dg
from . import fields as fd
from . import groups as gr
from . import integrator as it
from . import mesh as msh
from . import physics as ph
from . import verify as vf


class ConfigError(ValueError):
    """Bad or missing configuration; the message names the offending key."""


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

PRESETS = ("rest", "hot-spot", "shear", "taylor-like")
HEAT_PRESETS = ("zero", "constant", "gaussian")

_BOOL_WORDS = {
    "true": True,
    "yes": True,
    "on": True,
    "1": True,
    "false": False,
    "no": False,
    "off": False,
    "0": False,
}

_POSITIVE = (lambda v: v > 0, "must be positive")
_NONNEGATIVE = (lambda v: v >= 0, "must be nonnegative")
_AT_LEAST_ONE = (lambda v: v >= 1, "must be >= 1")

# Every config key: its type, its default (None: no default) and the
# condition its value must meet, with the message that names the violation.
# Every float must also be finite.
CONFIG_KEYS = {
    "mesh.file": (str, None, None),
    "mesh.nx": (int, None, _AT_LEAST_ONE),
    "mesh.ny": (int, None, _AT_LEAST_ONE),
    "mesh.lx": (float, None, _POSITIVE),
    "mesh.ly": (float, None, _POSITIVE),
    "run.h": (float, None, _POSITIVE),
    "run.steps": (int, None, (lambda v: v >= 1, "must be a positive integer")),
    "gas.gamma": (float, 1.4, (lambda v: v > 1, "must exceed 1")),
    "gas.c_v": (float, 1.0, _POSITIVE),
    "gas.K": (float, 1.0, _POSITIVE),
    "phys.mu": (float, 0.0, _NONNEGATIVE),
    "phys.zeta": (float, 0.0, _NONNEGATIVE),
    "phys.lambda": (float, 0.0, _NONNEGATIVE),
    "phys.theta_env": (float, 1.0, _POSITIVE),
    "phys.insulated": (bool, False, None),
    "solver.tau": (str, "exponential", None),
    "solver.newton_tol": (float, 1e-10, _POSITIVE),
    "solver.newton_max": (int, 50, _AT_LEAST_ONE),
    "solver.entropy_tol": (float, 1e-13, _POSITIVE),
    "solver.entropy_max": (int, 100, _AT_LEAST_ONE),
    "initial.preset": (str, None, None),
    "initial.density": (float, None, _POSITIVE),
    "initial.entropy": (float, None, None),
    "initial.amplitude": (float, None, None),
    "initial.center_x": (float, None, None),
    "initial.center_y": (float, None, None),
    "initial.width": (float, None, _POSITIVE),
    "heat.preset": (str, "zero", None),
    "heat.rate": (float, None, None),
    "heat.amplitude": (float, None, None),
    "heat.center_x": (float, None, None),
    "heat.center_y": (float, None, None),
    "heat.width": (float, None, _POSITIVE),
    "output.directory": (str, "out", None),
    "output.snapshot_stride": (int, 0, (lambda v: v >= 0, "must be >= 0")),
}


def _value(key: str, raw: str):
    """Convert the text of a config value to its key's type and check it."""
    kind, _, check = CONFIG_KEYS[key]
    if kind is bool:
        if raw.lower() not in _BOOL_WORDS:
            raise ConfigError(f"config key '{key}': expected true/false")
        return _BOOL_WORDS[raw.lower()]
    try:
        value = kind(raw)
    except ValueError:
        what = "not an integer" if kind is int else "not a number"
        raise ConfigError(f"config key '{key}': {what}") from None
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"config key '{key}': must be finite")
    if check is not None and not check[0](value):
        raise ConfigError(f"config key '{key}': {check[1]}")
    return value


def _parse_pairs(text: str) -> dict:
    """The keys a config text gives, with their converted, checked values."""
    pairs: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        if key in pairs:
            raise ConfigError(f"duplicate config key '{key}'")
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key '{key}'")
        pairs[key] = _value(key, value)
    return pairs


def _check_preset(key: str, name: str, choices: tuple) -> None:
    if name not in choices:
        raise ConfigError(
            f"config key '{key}': unknown preset '{name}' (expected one of: {', '.join(choices)})"
        )


@dataclass
class RunConfig:
    """Everything a simulation run needs, already validated."""

    mesh_file: str | None
    generator: tuple | None  # (nx, ny, lx, ly)
    h: float
    steps: int
    gas: ph.GasParams
    phys: ph.PhysParams
    tau_kind: str
    newton_tol: float
    newton_max: int
    entropy_tol: float
    entropy_max: int
    preset: str
    preset_params: dict = field(default_factory=dict)
    heat_preset: str = "zero"
    heat_params: dict = field(default_factory=dict)
    outdir: str = "out"
    snapshot_stride: int = 0


def _shape_params(given: dict, section: str) -> dict:
    """The preset parameters a config gives, keyed without the section."""
    return {
        key.split(".", 1)[1]: value
        for key, value in given.items()
        if key.startswith(section + ".") and key != section + ".preset"
    }


def parse_config(text: str) -> RunConfig:
    """``CONFIG_KEYS`` checks each key alone; this adds the rules that span keys."""
    given = _parse_pairs(text)
    v = {key: default for key, (_, default, _) in CONFIG_KEYS.items()} | given

    gen_keys = ("mesh.nx", "mesh.ny", "mesh.lx", "mesh.ly")
    gen_given = [k for k in gen_keys if k in given]
    if v["mesh.file"] is not None and gen_given:
        raise ConfigError(
            "config key 'mesh.file': give either a mesh file or generator "
            "dimensions (mesh.nx/ny/lx/ly), not both"
        )
    if v["mesh.file"] is None:
        if not gen_given:
            raise ConfigError(
                "config key 'mesh.file': missing mesh source "
                "(set mesh.file or mesh.nx/mesh.ny/mesh.lx/mesh.ly)"
            )
        missing = [k for k in gen_keys if k not in given]
        if missing:
            raise ConfigError(f"config key '{missing[0]}': required with {gen_given[0]}")

    for key in ("run.h", "run.steps", "initial.preset"):
        if v[key] is None:
            raise ConfigError(f"config key '{key}': required")
    if v["solver.tau"] not in gr.KINDS:
        raise ConfigError(
            f"config key 'solver.tau': unknown map '{v['solver.tau']}' (expected "
            + " or ".join(gr.KINDS)
            + ")"
        )
    _check_preset("initial.preset", v["initial.preset"], PRESETS)
    _check_preset("heat.preset", v["heat.preset"], HEAT_PRESETS)

    return RunConfig(
        mesh_file=v["mesh.file"],
        generator=None if v["mesh.file"] is not None else tuple(v[k] for k in gen_keys),
        h=v["run.h"],
        steps=v["run.steps"],
        gas=ph.GasParams(gamma=v["gas.gamma"], c_v=v["gas.c_v"], K=v["gas.K"]),
        phys=ph.PhysParams(
            mu=v["phys.mu"],
            zeta=v["phys.zeta"],
            lam=v["phys.lambda"],
            theta_env=v["phys.theta_env"],
            insulated=v["phys.insulated"],
        ),
        tau_kind=v["solver.tau"],
        newton_tol=v["solver.newton_tol"],
        newton_max=v["solver.newton_max"],
        entropy_tol=v["solver.entropy_tol"],
        entropy_max=v["solver.entropy_max"],
        preset=v["initial.preset"],
        preset_params=_shape_params(given, "initial"),
        heat_preset=v["heat.preset"],
        heat_params=_shape_params(given, "heat"),
        outdir=v["output.directory"],
        snapshot_stride=v["output.snapshot_stride"],
    )


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file '{path}': {exc}") from exc
    return parse_config(text)


def build_geometry(cfg: RunConfig) -> msh.MeshGeometry:
    if cfg.mesh_file is not None:
        try:
            with open(cfg.mesh_file, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config key 'mesh.file': cannot read '{cfg.mesh_file}': {exc}") from exc
        try:
            mesh = msh.load_mesh(text)
            return msh.compute_geometry(mesh)
        except msh.MeshError as exc:
            raise ConfigError(f"config key 'mesh.file': {exc}") from exc
    nx, ny, lx, ly = cfg.generator
    try:
        return msh.compute_geometry(msh.generate_rect_mesh(nx, ny, lx, ly))
    except msh.MeshError as exc:
        raise ConfigError(f"config keys 'mesh.nx', 'mesh.ny', 'mesh.lx', 'mesh.ly': {exc}") from exc


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------


def _cell_centers(mesh: msh.Mesh) -> np.ndarray:
    return mesh.nodes[mesh.cells].mean(axis=1)


def _bbox(mesh: msh.Mesh):
    lo = mesh.nodes.min(axis=0)
    hi = mesh.nodes.max(axis=0)
    return lo, hi - lo


def _gaussian(mesh: msh.Mesh, params, amplitude: float) -> np.ndarray:
    """``amplitude * exp(-r^2 / (2 width^2))`` per cell, ``r`` the distance
    of the cell center from ``(center_x, center_y)``; ``params`` may override
    the amplitude, and the bump is centered on the bounding box, a sixth of
    its shorter side wide, by default."""
    lo, extent = _bbox(mesh)
    amplitude = float(params.get("amplitude", amplitude))
    width = float(params.get("width", min(extent) / 6.0))
    cx = float(params.get("center_x", lo[0] + 0.5 * extent[0]))
    cy = float(params.get("center_y", lo[1] + 0.5 * extent[1]))
    centers = _cell_centers(mesh)
    r2 = (centers[:, 0] - cx) ** 2 + (centers[:, 1] - cy) ** 2
    return amplitude * np.exp(-r2 / (2.0 * width * width))


@np.errstate(all="ignore")  # values out of range are rejected at the end
def initial_condition_presets(name, params, geom, gas: ph.GasParams) -> ph.FluidState:
    """Build the initial state for a named preset.

    ``rest``: no motion, uniform density/entropy.  ``hot-spot``: rest plus a
    gaussian entropy bump (amplitude 0 degenerates to ``rest``).  ``shear``:
    a tangential sine profile, zero on the top/bottom walls.  ``taylor-like``:
    one cellular vortex from the stream function sin^2 * sin^2, vanishing on
    the whole boundary.  Velocity presets go through the no-slip flux
    initializer, so the discrete field is exactly in the constrained space.
    The parameter ranges are checked when the config is read (``CONFIG_KEYS``);
    values that give a temperature that is not finite and positive, or a
    kinetic density that is not finite, are rejected here.
    """
    _check_preset("initial.preset", name, PRESETS)
    mesh = geom.mesh
    lo, extent = _bbox(mesh)
    density = float(params.get("density", 1.0))
    entropy = float(params.get("entropy", 0.0))
    d = np.full(geom.n, density)
    s = np.full(geom.n, entropy)
    a = np.zeros(len(geom.adj_i))

    if name == "hot-spot":
        s = s + _gaussian(mesh, params, 0.5)
    elif name == "shear":
        amplitude = float(params.get("amplitude", 0.3))

        def u(xy):
            yh = (xy[1] - lo[1]) / extent[1]
            return np.array([amplitude * np.sin(2.0 * np.pi * yh), 0.0])

        a = fd.init_from_velocity(geom, u, no_slip=True)
    elif name == "taylor-like":
        amplitude = float(params.get("amplitude", 0.3))

        def u(xy):
            xh = np.pi * (xy[0] - lo[0]) / extent[0]
            yh = np.pi * (xy[1] - lo[1]) / extent[1]
            return amplitude * np.array(
                [
                    np.sin(xh) ** 2 * np.sin(2.0 * yh),
                    -np.sin(2.0 * xh) * np.sin(yh) ** 2,
                ]
            )

        a = fd.init_from_velocity(geom, u, no_slip=True)

    theta = ph.temperature(d, s, gas)
    if not np.all(np.isfinite(theta) & (theta > 0)):
        keys = ("density", "entropy", "amplitude") if name == "hot-spot" else ("density", "entropy")
        named = [f"'initial.{k}'" for k in keys if k in params] or ["'initial.preset'"]
        raise ConfigError(
            f"config key{'s' * (len(named) > 1)} {', '.join(named)}: "
            "the initial temperature is not finite and positive"
        )
    if not np.all(np.isfinite(ph.kinetic_density(geom, a))):
        raise ConfigError("config key 'initial.amplitude': the initial kinetic density is not finite")
    return ph.FluidState(a, d, s)


def heat_source_from_config(cfg: RunConfig, geom: msh.MeshGeometry):
    """Per-cell heating rate R (constant in time), or None."""
    if cfg.heat_preset == "zero":
        return None
    if cfg.heat_preset == "constant":
        return np.full(geom.n, float(cfg.heat_params.get("rate", 0.0)))
    return _gaussian(geom.mesh, cfg.heat_params, 1.0)


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------


def format_mesh(mesh: msh.Mesh) -> str:
    """Serialize a mesh in the plain-text format ``load_mesh`` reads."""
    lines = [f"{mesh.num_nodes} {mesh.num_cells}"]
    lines += [f"{x:.17g} {y:.17g}" for x, y in mesh.nodes]
    lines += [f"{i} {j} {k}" for i, j, k in mesh.cells]
    return "\n".join(lines) + "\n"


def export_vtk(geom, state: ph.FluidState, gas, phys, path, fric=None) -> None:
    """Legacy-ASCII VTK unstructured grid with per-cell state fields;
    ``fric`` is the state's friction power if the caller has it."""
    mesh = geom.mesh
    theta = ph.temperature(state.d, state.s, gas)
    diva = fd.div(geom, state.a)
    if fric is None:
        fric = ph.friction_power(geom, state.a, phys)
    vel = fd.reconstruct_velocity(geom, state.a)

    out = [
        "# vtk DataFile Version 3.0",
        "decflow snapshot",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {mesh.num_nodes} double",
    ]
    out += [f"{x:.17g} {y:.17g} 0" for x, y in mesh.nodes]
    out.append(f"CELLS {mesh.num_cells} {4 * mesh.num_cells}")
    out += [f"3 {i} {j} {k}" for i, j, k in mesh.cells]
    out.append(f"CELL_TYPES {mesh.num_cells}")
    out += ["5"] * mesh.num_cells
    out.append(f"CELL_DATA {mesh.num_cells}")
    for label, values in (
        ("density", state.d),
        ("entropy", state.s),
        ("temperature", theta),
        ("divergence", diva),
        ("friction_power", fric),
    ):
        out.append(f"SCALARS {label} double 1")
        out.append("LOOKUP_TABLE default")
        out += [f"{v:.17g}" for v in values]
    out.append("VECTORS velocity double")
    out += [f"{vx:.17g} {vy:.17g} 0" for vx, vy in vel]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

CSV_HEADER = (
    "step,time,mass,entropy,energy,boundary_heat,heat_source,"
    "energy_residual,entropy_production,momentum_iters,entropy_iters"
)


# NumPy's floating-point warnings are off: the mesh, the initial data, each
# step's state and each diagnostics row are checked by value instead.
@np.errstate(all="ignore")
def cmd_run(config_path: str) -> int:
    try:
        cfg = load_config(config_path)
        geom = build_geometry(cfg)
        state = initial_condition_presets(cfg.preset, cfg.preset_params, geom, cfg.gas)
        heat = heat_source_from_config(cfg, geom)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    stepper = it.VariationalStepper(
        geom,
        cfg.gas,
        cfg.phys,
        cfg.h,
        kind=cfg.tau_kind,
        newton_tol=cfg.newton_tol,
        newton_max=cfg.newton_max,
        entropy_tol=cfg.entropy_tol,
        entropy_max=cfg.entropy_max,
        heat_source=heat,
    )

    csv_path = os.path.join(cfg.outdir, "diagnostics.csv")
    prev_sample = [None]
    try:
        os.makedirs(cfg.outdir, exist_ok=True)
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER.split(","))

            def observer(k, t, st, report):
                fric = report.friction_power  # computed once per state
                if fric is None:  # the initial state
                    fric = ph.friction_power(geom, st.a, cfg.phys)
                sample = dg.sample(geom, st, cfg.gas, cfg.phys, t=t, heat=heat, fric=fric)
                resid = dg.energy_residual(prev_sample[0], sample) if prev_sample[0] else 0.0
                prev_sample[0] = sample
                row = [k, sample.time, sample.total_mass, sample.total_entropy, sample.total_energy]
                row += [sample.boundary_heat, sample.heat_source, resid, sample.entropy_production]
                row += [report.newton_iters, report.entropy_iters]
                for name, value in zip(CSV_HEADER.split(","), row):
                    if not math.isfinite(value):
                        raise it.StateRangeError(f"step {k}: diagnostic '{name}' = {value} is not finite")
                writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])
                if cfg.snapshot_stride > 0 and k % cfg.snapshot_stride == 0:
                    export_vtk(
                        geom,
                        st,
                        cfg.gas,
                        cfg.phys,
                        os.path.join(cfg.outdir, f"snapshot_{k:06d}.vtk"),
                        fric,
                    )

            try:
                stepper.run(state, cfg.steps, observer=observer)
            except it.IntegratorError as exc:
                print(f"run failed: {exc} (config key 'run.h' = {cfg.h:g})", file=sys.stderr)
                return 3
    except OSError as exc:  # the directory, the CSV or a snapshot
        print(f"config error: config key 'output.directory': {exc}", file=sys.stderr)
        return 2

    print(f"{cfg.steps} steps, wrote {csv_path}")
    return 0


def cmd_verify(seed: int = 0, sizes=(20, 50, 200)) -> int:
    records = vf.run_suite(seed=seed, sizes=sizes)
    print(f"identity suite: seed={seed} sizes={','.join(str(s) for s in sizes)}")
    print(vf.format_report(records))
    return 0 if vf.suite_passed(records) else 1


def cmd_mesh_gen(nx: int, ny: int, lx: float, ly: float, out: str) -> int:
    try:
        mesh = msh.generate_rect_mesh(nx, ny, lx, ly)
        geom = msh.compute_geometry(mesh)
    except msh.MeshError as exc:
        print(f"mesh error: {exc}", file=sys.stderr)
        return 1
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(format_mesh(mesh))
    except OSError as exc:
        print(f"cannot write '{out}': {exc}", file=sys.stderr)
        return 1
    boundary = int(mesh.boundary_cells.sum())
    print(
        f"wrote {out}: {mesh.num_nodes} nodes, {mesh.num_cells} cells "
        f"({boundary} on the boundary), total area {geom.omega.sum():.6g}"
    )
    return 0


def cmd_mesh_check(path: str) -> int:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read '{path}': {exc}", file=sys.stderr)
        return 1
    try:
        mesh = msh.load_mesh(text)
    except msh.MeshError as exc:
        print(f"invalid mesh: {exc}", file=sys.stderr)
        return 1
    geom, issues = msh.inspect_geometry(mesh)
    if issues:
        for issue in issues:
            print(f"issue: {issue}", file=sys.stderr)
        return 1
    boundary = int(mesh.boundary_cells.sum())
    print(
        f"{path}: ok -- {mesh.num_nodes} nodes, {mesh.num_cells} cells "
        f"({boundary} on the boundary), total area {geom.omega.sum():.6g}, "
        f"diameter {geom.diameter:.6g}"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="decflow",
        description="Structure-preserving compressible-flow simulation on "
        "triangle meshes, with a randomized verifier for every discrete "
        "identity the scheme relies on.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a simulation from a config file")
    p_run.add_argument("config", help="path to a key = value config file")

    p_verify = sub.add_parser(
        "verify", help="check every discrete identity on randomized meshes"
    )
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument(
        "--sizes",
        default="20,50,200",
        help="comma-separated cell-count range for the mesh corpus",
    )

    p_mesh = sub.add_parser("mesh", help="mesh utilities")
    mesh_sub = p_mesh.add_subparsers(dest="mesh_command", required=True)
    p_gen = mesh_sub.add_parser("gen", help="generate a structured mesh file")
    p_gen.add_argument("nx", type=int)
    p_gen.add_argument("ny", type=int)
    p_gen.add_argument("lx", type=float)
    p_gen.add_argument("ly", type=float)
    p_gen.add_argument("out")
    p_check = mesh_sub.add_parser("check", help="validate a mesh file")
    p_check.add_argument("file")

    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config)
    if args.command == "verify":
        try:
            sizes = tuple(int(part) for part in args.sizes.split(",") if part.strip())
        except ValueError:
            print(f"bad --sizes value '{args.sizes}'", file=sys.stderr)
            return 2
        if not sizes or min(sizes) < 1:
            print(f"bad --sizes value '{args.sizes}': needs cell counts of at least 1", file=sys.stderr)
            return 2
        if args.seed < 0:
            print(f"bad --seed value '{args.seed}': needs a non-negative integer", file=sys.stderr)
            return 2
        return cmd_verify(seed=args.seed, sizes=sizes)
    if args.mesh_command == "gen":
        return cmd_mesh_gen(args.nx, args.ny, args.lx, args.ly, args.out)
    return cmd_mesh_check(args.file)


if __name__ == "__main__":
    sys.exit(main())
