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

KNOWN_KEYS = frozenset(
    {
        "mesh.file",
        "mesh.nx",
        "mesh.ny",
        "mesh.lx",
        "mesh.ly",
        "run.h",
        "run.steps",
        "gas.gamma",
        "gas.c_v",
        "gas.K",
        "phys.mu",
        "phys.zeta",
        "phys.lambda",
        "phys.theta_env",
        "phys.insulated",
        "solver.tau",
        "solver.newton_tol",
        "solver.newton_max",
        "solver.entropy_tol",
        "solver.entropy_max",
        "initial.preset",
        "initial.density",
        "initial.entropy",
        "initial.amplitude",
        "initial.center_x",
        "initial.center_y",
        "initial.width",
        "heat.preset",
        "heat.rate",
        "heat.amplitude",
        "heat.center_x",
        "heat.center_y",
        "heat.width",
        "output.directory",
        "output.snapshot_stride",
    }
)

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


def _parse_pairs(text: str) -> dict:
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
        if key not in KNOWN_KEYS:
            raise ConfigError(f"unknown config key '{key}'")
        pairs[key] = value
    return pairs


def _take_float(pairs, key, default=None):
    if key not in pairs:
        return default
    try:
        return float(pairs.pop(key))
    except ValueError:
        raise ConfigError(f"config key '{key}': not a number") from None


def _take_int(pairs, key, default=None):
    if key not in pairs:
        return default
    raw = pairs.pop(key)
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"config key '{key}': not an integer") from None


def _take_bool(pairs, key, default):
    if key not in pairs:
        return default
    raw = pairs.pop(key).lower()
    if raw not in _BOOL_WORDS:
        raise ConfigError(f"config key '{key}': expected true/false")
    return _BOOL_WORDS[raw]


def _require(value, key, cond, what):
    if not cond(value):
        raise ConfigError(f"config key '{key}': {what}")
    return value


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


def parse_config(text: str) -> RunConfig:
    pairs = _parse_pairs(text)

    mesh_file = pairs.pop("mesh.file", None)
    gen_keys = ("mesh.nx", "mesh.ny", "mesh.lx", "mesh.ly")
    gen_given = [k for k in gen_keys if k in pairs]
    generator = None
    if mesh_file is not None and gen_given:
        raise ConfigError(
            "config key 'mesh.file': give either a mesh file or generator "
            "dimensions (mesh.nx/ny/lx/ly), not both"
        )
    if mesh_file is None:
        if not gen_given:
            raise ConfigError(
                "config key 'mesh.file': missing mesh source "
                "(set mesh.file or mesh.nx/mesh.ny/mesh.lx/mesh.ly)"
            )
        missing = [k for k in gen_keys if k not in pairs]
        if missing:
            raise ConfigError(f"config key '{missing[0]}': required with {gen_given[0]}")
        nx = _require(_take_int(pairs, "mesh.nx"), "mesh.nx", lambda v: v >= 1, "must be >= 1")
        ny = _require(_take_int(pairs, "mesh.ny"), "mesh.ny", lambda v: v >= 1, "must be >= 1")
        lx = _require(_take_float(pairs, "mesh.lx"), "mesh.lx", lambda v: v > 0, "must be positive")
        ly = _require(_take_float(pairs, "mesh.ly"), "mesh.ly", lambda v: v > 0, "must be positive")
        generator = (nx, ny, lx, ly)

    h = _take_float(pairs, "run.h")
    if h is None:
        raise ConfigError("config key 'run.h': required")
    _require(h, "run.h", lambda v: v > 0, "must be positive")
    steps = _take_int(pairs, "run.steps")
    if steps is None:
        raise ConfigError("config key 'run.steps': required")
    _require(steps, "run.steps", lambda v: v >= 1, "must be a positive integer")

    gas = ph.GasParams(
        gamma=_require(_take_float(pairs, "gas.gamma", 1.4), "gas.gamma", lambda v: v > 1, "must exceed 1"),
        c_v=_require(_take_float(pairs, "gas.c_v", 1.0), "gas.c_v", lambda v: v > 0, "must be positive"),
        K=_require(_take_float(pairs, "gas.K", 1.0), "gas.K", lambda v: v > 0, "must be positive"),
    )
    phys = ph.PhysParams(
        mu=_require(_take_float(pairs, "phys.mu", 0.0), "phys.mu", lambda v: v >= 0, "must be nonnegative"),
        zeta=_require(_take_float(pairs, "phys.zeta", 0.0), "phys.zeta", lambda v: v >= 0, "must be nonnegative"),
        lam=_require(_take_float(pairs, "phys.lambda", 0.0), "phys.lambda", lambda v: v >= 0, "must be nonnegative"),
        theta_env=_require(
            _take_float(pairs, "phys.theta_env", 1.0), "phys.theta_env", lambda v: v > 0, "must be positive"
        ),
        insulated=_take_bool(pairs, "phys.insulated", False),
    )

    tau_kind = pairs.pop("solver.tau", "exponential")
    if tau_kind not in gr.KINDS:
        raise ConfigError(
            f"config key 'solver.tau': unknown map '{tau_kind}' (expected "
            + " or ".join(gr.KINDS)
            + ")"
        )
    newton_tol = _require(
        _take_float(pairs, "solver.newton_tol", 1e-10), "solver.newton_tol", lambda v: v > 0, "must be positive"
    )
    newton_max = _require(
        _take_int(pairs, "solver.newton_max", 50), "solver.newton_max", lambda v: v >= 1, "must be >= 1"
    )
    entropy_tol = _require(
        _take_float(pairs, "solver.entropy_tol", 1e-13), "solver.entropy_tol", lambda v: v > 0, "must be positive"
    )
    entropy_max = _require(
        _take_int(pairs, "solver.entropy_max", 100), "solver.entropy_max", lambda v: v >= 1, "must be >= 1"
    )

    preset = pairs.pop("initial.preset", None)
    if preset is None:
        raise ConfigError("config key 'initial.preset': required")
    if preset not in PRESETS:
        raise ConfigError(
            f"config key 'initial.preset': unknown preset '{preset}' "
            f"(expected one of: {', '.join(PRESETS)})"
        )
    preset_params = {}
    for key in ("density", "entropy", "amplitude", "center_x", "center_y", "width"):
        value = _take_float(pairs, f"initial.{key}")
        if value is not None:
            preset_params[key] = value

    heat_preset = pairs.pop("heat.preset", "zero")
    if heat_preset not in HEAT_PRESETS:
        raise ConfigError(
            f"config key 'heat.preset': unknown preset '{heat_preset}' "
            f"(expected one of: {', '.join(HEAT_PRESETS)})"
        )
    heat_params = {}
    for key in ("rate", "amplitude", "center_x", "center_y", "width"):
        value = _take_float(pairs, f"heat.{key}")
        if value is not None:
            heat_params[key] = value

    outdir = pairs.pop("output.directory", "out")
    stride = _require(
        _take_int(pairs, "output.snapshot_stride", 0),
        "output.snapshot_stride",
        lambda v: v >= 0,
        "must be >= 0",
    )

    # _take_* pops as it goes; anything left was recognized but unused here,
    # which can only be a generator key alongside mesh.file (already rejected)
    if pairs:
        raise ConfigError(f"unknown config key '{sorted(pairs)[0]}'")

    return RunConfig(
        mesh_file=mesh_file,
        generator=generator,
        h=h,
        steps=steps,
        gas=gas,
        phys=phys,
        tau_kind=tau_kind,
        newton_tol=newton_tol,
        newton_max=newton_max,
        entropy_tol=entropy_tol,
        entropy_max=entropy_max,
        preset=preset,
        preset_params=preset_params,
        heat_preset=heat_preset,
        heat_params=heat_params,
        outdir=outdir,
        snapshot_stride=stride,
    )


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file '{path}': {exc}") from exc
    return parse_config(text)


def build_geometry(cfg: RunConfig) -> msh.MeshGeometry:
    if cfg.mesh_file is not None:
        try:
            with open(cfg.mesh_file, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"config key 'mesh.file': cannot read '{cfg.mesh_file}': {exc}") from exc
        try:
            mesh = msh.load_mesh(text)
            return msh.compute_geometry(mesh)
        except msh.MeshError as exc:
            raise ConfigError(f"config key 'mesh.file': {exc}") from exc
    nx, ny, lx, ly = cfg.generator
    return msh.compute_geometry(msh.generate_rect_mesh(nx, ny, lx, ly))


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------


def _cell_centers(mesh: msh.Mesh) -> np.ndarray:
    return mesh.nodes[mesh.cells].mean(axis=1)


def _bbox(mesh: msh.Mesh):
    lo = mesh.nodes.min(axis=0)
    hi = mesh.nodes.max(axis=0)
    return lo, hi - lo


def initial_condition_presets(name, params, geom, gas: ph.GasParams) -> ph.FluidState:
    """Build the initial state for a named preset.

    ``rest``: no motion, uniform density/entropy.  ``hot-spot``: rest plus a
    gaussian entropy bump (amplitude 0 degenerates to ``rest``).  ``shear``:
    a tangential sine profile, zero on the top/bottom walls.  ``taylor-like``:
    one cellular vortex from the stream function sin^2 * sin^2, vanishing on
    the whole boundary.  Velocity presets go through the no-slip flux
    initializer, so the discrete field is exactly in the constrained space.
    """
    if name not in PRESETS:
        raise ConfigError(
            f"config key 'initial.preset': unknown preset '{name}' "
            f"(expected one of: {', '.join(PRESETS)})"
        )
    mesh = geom.mesh
    lo, extent = _bbox(mesh)
    density = float(params.get("density", 1.0))
    if density <= 0:
        raise ConfigError("config key 'initial.density': must be positive")
    entropy = float(params.get("entropy", 0.0))
    d = np.full(geom.n, density)
    s = np.full(geom.n, entropy)
    a = np.zeros((geom.n, geom.n))

    if name == "hot-spot":
        amplitude = float(params.get("amplitude", 0.5))
        width = float(params.get("width", min(extent) / 6.0))
        if width <= 0:
            raise ConfigError("config key 'initial.width': must be positive")
        cx = float(params.get("center_x", lo[0] + 0.5 * extent[0]))
        cy = float(params.get("center_y", lo[1] + 0.5 * extent[1]))
        centers = _cell_centers(mesh)
        r2 = (centers[:, 0] - cx) ** 2 + (centers[:, 1] - cy) ** 2
        s = s + amplitude * np.exp(-r2 / (2.0 * width * width))
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

    state = ph.FluidState(a, d, s)
    theta = ph.temperature(state.d, state.s, gas)
    if np.any(~np.isfinite(theta)) or np.any(theta <= 0):
        raise ConfigError("config key 'initial.preset': parameters give a nonpositive temperature")
    return state


def heat_source_from_config(cfg: RunConfig, geom: msh.MeshGeometry):
    """Per-cell heating rate R as a (time-independent) callable, or None."""
    if cfg.heat_preset == "zero":
        return None
    if cfg.heat_preset == "constant":
        rate = float(cfg.heat_params.get("rate", 0.0))
        values = np.full(geom.n, rate)
    else:  # gaussian
        lo, extent = _bbox(geom.mesh)
        amplitude = float(cfg.heat_params.get("amplitude", 1.0))
        width = float(cfg.heat_params.get("width", min(extent) / 6.0))
        if width <= 0:
            raise ConfigError("config key 'heat.width': must be positive")
        cx = float(cfg.heat_params.get("center_x", lo[0] + 0.5 * extent[0]))
        cy = float(cfg.heat_params.get("center_y", lo[1] + 0.5 * extent[1]))
        centers = _cell_centers(geom.mesh)
        r2 = (centers[:, 0] - cx) ** 2 + (centers[:, 1] - cy) ** 2
        values = amplitude * np.exp(-r2 / (2.0 * width * width))

    def heat(t, _values=values):
        return _values

    return heat


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------


def format_mesh(mesh: msh.Mesh) -> str:
    """Serialize a mesh in the plain-text format ``load_mesh`` reads."""
    lines = [f"{mesh.num_nodes} {mesh.num_cells}"]
    lines += [f"{x:.17g} {y:.17g}" for x, y in mesh.nodes]
    lines += [f"{i} {j} {k}" for i, j, k in mesh.cells]
    return "\n".join(lines) + "\n"


def export_vtk(geom, state: ph.FluidState, gas, phys, path) -> None:
    """Legacy-ASCII VTK unstructured grid with per-cell state fields."""
    mesh = geom.mesh
    theta = ph.temperature(state.d, state.s, gas)
    diva = fd.div(state.a)
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

    os.makedirs(cfg.outdir, exist_ok=True)
    csv_path = os.path.join(cfg.outdir, "diagnostics.csv")
    prev_sample = [None]

    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER.split(","))

        def observer(k, t, st, report):
            rk = heat(t) if heat is not None else None
            sample = dg.sample(geom, st, cfg.gas, cfg.phys, t=t, heat=rk)
            resid = dg.energy_residual(prev_sample[0], sample) if prev_sample[0] else 0.0
            prev_sample[0] = sample
            writer.writerow(
                [
                    k,
                    f"{sample.time:.17g}",
                    f"{sample.total_mass:.17g}",
                    f"{sample.total_entropy:.17g}",
                    f"{sample.total_energy:.17g}",
                    f"{sample.boundary_heat:.17g}",
                    f"{sample.heat_source:.17g}",
                    f"{resid:.17g}",
                    f"{sample.entropy_production:.17g}",
                    report.newton_iters,
                    report.entropy_iters,
                ]
            )
            if cfg.snapshot_stride > 0 and k % cfg.snapshot_stride == 0:
                export_vtk(
                    geom,
                    st,
                    cfg.gas,
                    cfg.phys,
                    os.path.join(cfg.outdir, f"snapshot_{k:06d}.vtk"),
                )

        try:
            stepper.run(state, cfg.steps, observer=observer)
        except it.IntegratorError as exc:
            print(f"run failed: {exc} (config key 'run.h' = {cfg.h:g})", file=sys.stderr)
            return 3
        except fd.FlatAmbiguityError as exc:
            # only meshes with interior nodes of degree < 5, which the
            # generator never makes, can get here
            print(
                f"config error: config key 'mesh.file': {exc}; "
                "see 'decflow mesh check'",
                file=sys.stderr,
            )
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
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(format_mesh(mesh))
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
    except OSError as exc:
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
        if not sizes:
            print("--sizes needs at least one cell count", file=sys.stderr)
            return 2
        return cmd_verify(seed=args.seed, sizes=sizes)
    if args.mesh_command == "gen":
        return cmd_mesh_gen(args.nx, args.ny, args.lx, args.ly, args.out)
    return cmd_mesh_check(args.file)


if __name__ == "__main__":
    sys.exit(main())
