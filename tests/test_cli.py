"""Config parsing, presets, exporters, and the command-line entry points."""

import errno
import os
import warnings

import numpy as np
import pytest

from decflow import cli_io as cli
from decflow import fields as fd
from decflow import mesh as msh
from decflow import physics as ph

MINIMAL = """\
mesh.nx = 4
mesh.ny = 3
mesh.lx = 1
mesh.ly = 1
run.h = 1e-3
run.steps = 5
initial.preset = rest
"""


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_defaults():
    cfg = cli.parse_config(MINIMAL)
    assert cfg.generator == (4, 3, 1.0, 1.0)
    assert cfg.mesh_file is None
    assert (cfg.gas.gamma, cfg.gas.c_v, cfg.gas.K) == (1.4, 1.0, 1.0)
    assert (cfg.phys.mu, cfg.phys.zeta, cfg.phys.lam) == (0.0, 0.0, 0.0)
    assert cfg.phys.theta_env == 1.0
    assert cfg.phys.insulated is False
    assert cfg.tau_kind == "exponential"
    assert (cfg.newton_tol, cfg.newton_max) == (1e-10, 50)
    assert (cfg.entropy_tol, cfg.entropy_max) == (1e-13, 100)
    assert cfg.preset == "rest" and cfg.preset_params == {}
    assert cfg.heat_preset == "zero" and cfg.heat_params == {}
    assert cfg.outdir == "out"
    assert cfg.snapshot_stride == 0


def test_comments_and_spacing_are_ignored():
    text = "# a comment\n\n" + MINIMAL.replace("run.h = 1e-3", "run.h=1e-3  # step")
    assert cli.parse_config(text).h == 1e-3


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda t: t + "run.h = 2e-3\n", "duplicate config key 'run.h'"),
        (lambda t: t + "runs.h = 1\n", "unknown config key 'runs.h'"),
        (lambda t: t + "just words\n", "line 8: expected 'key = value'"),
        (lambda t: t.replace("run.h = 1e-3", "run.h = fast"), "config key 'run.h': not a number"),
        (lambda t: t.replace("run.h = 1e-3", "run.h = -1e-3"), "config key 'run.h': must be positive"),
        (lambda t: t.replace("run.steps = 5", "run.steps = 2.5"), "config key 'run.steps': not an integer"),
        (lambda t: t.replace("run.h = 1e-3\n", ""), "config key 'run.h': required"),
        (lambda t: t.replace("initial.preset = rest\n", ""), "config key 'initial.preset': required"),
        (lambda t: t + "phys.insulated = maybe\n", "config key 'phys.insulated': expected true/false"),
        (lambda t: t + "mesh.file = grid.txt\n", "not both"),
        (lambda t: "\n".join(t.splitlines()[4:]), "missing mesh source"),
        (lambda t: t.replace("mesh.ly = 1\n", ""), "config key 'mesh.ly': required with mesh.nx"),
        (lambda t: t.replace("mesh.nx = 4", "mesh.nx = 0"), "config key 'mesh.nx': must be >= 1"),
        (lambda t: t + "solver.tau = pade\n", "config key 'solver.tau': unknown map 'pade'"),
        (lambda t: t.replace("rest", "vortex"), "unknown preset 'vortex'"),
        (lambda t: t + "heat.preset = laser\n", "unknown preset 'laser'"),
        (lambda t: t + "gas.gamma = 1\n", "config key 'gas.gamma': must exceed 1"),
        (lambda t: t + "phys.mu = -0.1\n", "config key 'phys.mu': must be nonnegative"),
    ],
)
def test_config_errors_name_the_key(mutate, message):
    with pytest.raises(cli.ConfigError, match=message):
        cli.parse_config(mutate(MINIMAL))


def with_value(key, raw, text=MINIMAL):
    """``text`` with ``key`` set to ``raw``, replacing the line that sets it."""
    lines = [line for line in text.splitlines() if line.split("=")[0].strip() != key]
    return "\n".join(lines + [f"{key} = {raw}"]) + "\n"


FLOAT_KEYS = [key for key, (kind, _, _) in cli.CONFIG_KEYS.items() if kind is float]


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_numbers_are_rejected(key, raw):
    with pytest.raises(cli.ConfigError) as err:
        cli.parse_config(with_value(key, raw))
    assert str(err.value) == f"config key '{key}': must be finite"


@pytest.mark.parametrize(
    "key", [key for key, (_, default, _) in cli.CONFIG_KEYS.items() if default is not None]
)
def test_an_explicit_default_is_the_omitted_one(key):
    default = cli.CONFIG_KEYS[key][1]
    assert cli.parse_config(with_value(key, default)) == cli.parse_config(MINIMAL)


@pytest.mark.parametrize(
    "key", [key for key, (_, _, check) in cli.CONFIG_KEYS.items() if check is not None]
)
def test_a_value_out_of_range_names_the_key(key):
    kind, _, (admissible, message) = cli.CONFIG_KEYS[key]
    bad = next(kind(v) for v in (1, 0, -1) if not admissible(kind(v)))
    with pytest.raises(cli.ConfigError) as err:
        cli.parse_config(with_value(key, bad))
    assert str(err.value) == f"config key '{key}': {message}"


def test_every_key_reaches_the_run_config():
    text = """\
mesh.nx = 7
mesh.ny = 2
mesh.lx = 3.5
mesh.ly = 0.25
run.h = 0.004
run.steps = 12
gas.gamma = 1.67
gas.c_v = 2.5
gas.K = 0.5
phys.mu = 0.01
phys.zeta = 0.02
phys.lambda = 0.03
phys.theta_env = 1.5
phys.insulated = yes
solver.tau = cayley
solver.newton_tol = 1e-9
solver.newton_max = 7
solver.entropy_tol = 1e-12
solver.entropy_max = 9
initial.preset = hot-spot
initial.density = 1.25
initial.entropy = -0.5
initial.amplitude = 0.75
initial.center_x = 0.1
initial.center_y = 0.2
initial.width = 0.3
heat.preset = gaussian
heat.rate = 4
heat.amplitude = 5
heat.center_x = 0.6
heat.center_y = 0.7
heat.width = 0.8
output.directory = elsewhere
output.snapshot_stride = 3
"""
    given = {line.split(" = ")[0] for line in text.splitlines()}
    assert given | {"mesh.file"} == set(cli.CONFIG_KEYS)
    assert cli.parse_config(text) == cli.RunConfig(
        mesh_file=None,
        generator=(7, 2, 3.5, 0.25),
        h=0.004,
        steps=12,
        gas=ph.GasParams(gamma=1.67, c_v=2.5, K=0.5),
        phys=ph.PhysParams(mu=0.01, zeta=0.02, lam=0.03, theta_env=1.5, insulated=True),
        tau_kind="cayley",
        newton_tol=1e-9,
        newton_max=7,
        entropy_tol=1e-12,
        entropy_max=9,
        preset="hot-spot",
        preset_params={
            "density": 1.25,
            "entropy": -0.5,
            "amplitude": 0.75,
            "center_x": 0.1,
            "center_y": 0.2,
            "width": 0.3,
        },
        heat_preset="gaussian",
        heat_params={"rate": 4.0, "amplitude": 5.0, "center_x": 0.6, "center_y": 0.7, "width": 0.8},
        outdir="elsewhere",
        snapshot_stride=3,
    )
    cfg = cli.parse_config(with_value("mesh.file", "grid.txt", "\n".join(text.splitlines()[4:])))
    assert (cfg.mesh_file, cfg.generator) == ("grid.txt", None)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(cli.ConfigError, match="nowhere.cfg"):
        cli.load_config(str(tmp_path / "nowhere.cfg"))


def test_build_geometry_reports_mesh_file_problems(tmp_path):
    cfg = cli.parse_config(
        MINIMAL.replace(
            "mesh.nx = 4\nmesh.ny = 3\nmesh.lx = 1\nmesh.ly = 1\n",
            f"mesh.file = {tmp_path / 'missing.txt'}\n",
        )
    )
    with pytest.raises(cli.ConfigError, match="mesh.file"):
        cli.build_geometry(cfg)


def test_run_reports_a_config_that_is_not_utf8(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(MINIMAL.encode() + b"# \xff\n")
    assert cli.main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read config file '{cfg}': 'utf-8' codec can't decode byte 0xff")
    assert len(err.strip().splitlines()) == 1


def test_a_mesh_file_that_is_not_utf8_is_reported_in_one_line(tmp_path, capsys):
    mesh_file = tmp_path / "mesh.txt"
    mesh_file.write_bytes(b"3 1\n0 0\n1 0\n0.5 0.8\n0 1 2 \xfe\n")
    assert cli.main(["mesh", "check", str(mesh_file)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"cannot read '{mesh_file}': 'utf-8' codec can't decode byte 0xfe")
    assert len(err.strip().splitlines()) == 1

    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"mesh.file = {mesh_file}\nrun.h = 1e-3\nrun.steps = 3\n"
        f"initial.preset = rest\noutput.directory = {tmp_path / 'out'}\n"
    )
    assert cli.main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config key 'mesh.file': cannot read '{mesh_file}': 'utf-8' codec")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "nx, ny, lx, issue",
    [
        (3, 2, 3.0, "degenerate boundary dual edge"),
        (3, 2, 10.0, "non-positive kite"),
        (2, 8, 1.0, "non-positive kite"),
        (3, 2, 1e-8, "degenerate boundary dual edge"),
    ],
)
def test_run_reports_a_degenerate_generated_mesh_as_a_config_error(tmp_path, capsys, nx, ny, lx, issue):
    # The generator accepts any positive sizes, and compute_geometry rejects
    # some of them: the run exits 2 with one line naming the generator keys.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"mesh.nx = {nx}\nmesh.ny = {ny}\nmesh.lx = {lx!r}\nmesh.ly = 1\nrun.h = 1e-3\n"
        f"run.steps = 3\ninitial.preset = rest\noutput.directory = {tmp_path / 'out'}\n"
    )
    assert cli.main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config keys 'mesh.nx', 'mesh.ny', 'mesh.lx', 'mesh.ly': ")
    assert issue in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------


def test_rest_preset(small43):
    state = cli.initial_condition_presets("rest", {"density": 2.0, "entropy": 0.1}, small43, ph.GasParams())
    np.testing.assert_array_equal(state.a, 0.0)
    np.testing.assert_array_equal(state.d, 2.0)
    np.testing.assert_array_equal(state.s, 0.1)


def test_hot_spot_with_zero_amplitude_is_rest(small43):
    gas = ph.GasParams()
    spot = cli.initial_condition_presets("hot-spot", {"amplitude": 0.0}, small43, gas)
    rest = cli.initial_condition_presets("rest", {}, small43, gas)
    np.testing.assert_array_equal(spot.s, rest.s)
    np.testing.assert_array_equal(spot.a, rest.a)


def test_hot_spot_peaks_at_the_center(gen65):
    state = cli.initial_condition_presets("hot-spot", {}, gen65, ph.GasParams())
    centers = cli._cell_centers(gen65.mesh)
    r2 = (centers[:, 0] - 0.5) ** 2 + (centers[:, 1] - 0.5) ** 2
    assert state.s[np.argmin(r2)] == state.s.max()
    assert state.s.max() > 10 * state.s[np.argmax(r2)]
    np.testing.assert_array_equal(state.d, 1.0)


@pytest.mark.parametrize("name", ["shear", "taylor-like"])
def test_velocity_presets_live_in_the_constraint_space(gen65, name):
    state = cli.initial_condition_presets(name, {}, gen65, ph.GasParams())
    assert state.a.shape == gen65.adj_i.shape  # S and the support by construction
    res = fd.membership_residuals(gen65, state.a)
    assert res["V"] < 1e-12
    assert res["no_slip"] == 0.0
    assert np.abs(state.a).max() > 0


def test_taylor_like_velocity_vanishes_on_the_boundary(gen65):
    state = cli.initial_condition_presets("taylor-like", {}, gen65, ph.GasParams())
    bc = gen65.mesh.boundary_cells
    dense = fd.velocity_matrix(gen65, state.a)
    np.testing.assert_array_equal(dense[bc], 0.0)
    np.testing.assert_array_equal(dense[:, bc], 0.0)


def test_preset_validation(small43):
    # The ranges of the preset parameters are checked by parse_config.
    gas = ph.GasParams()
    with pytest.raises(cli.ConfigError, match="unknown preset 'spiral'"):
        cli.initial_condition_presets("spiral", {}, small43, gas)


def test_heat_presets(small43):
    cfg = cli.parse_config(MINIMAL)
    assert cli.heat_source_from_config(cfg, small43) is None

    cfg = cli.parse_config(MINIMAL + "heat.preset = constant\nheat.rate = 0.7\n")
    heat = cli.heat_source_from_config(cfg, small43)
    np.testing.assert_array_equal(heat, np.full(small43.n, 0.7))

    cfg = cli.parse_config(MINIMAL + "heat.preset = gaussian\nheat.amplitude = 2\n")
    r = cli.heat_source_from_config(cfg, small43)
    assert r.max() <= 2.0 and r.min() >= 0.0
    centers = cli._cell_centers(small43.mesh)
    r2 = (centers[:, 0] - 0.5) ** 2 + (centers[:, 1] - 0.5) ** 2
    assert r[np.argmin(r2)] == r.max()


# ---------------------------------------------------------------------------
# Mesh file round trip
# ---------------------------------------------------------------------------


def test_format_mesh_roundtrip(jittered):
    mesh = jittered.mesh
    back = msh.load_mesh(cli.format_mesh(mesh))
    np.testing.assert_array_equal(back.nodes, mesh.nodes)
    np.testing.assert_array_equal(back.cells, mesh.cells)


# ---------------------------------------------------------------------------
# VTK export
# ---------------------------------------------------------------------------


def _parse_vtk(text):
    lines = text.splitlines()
    data = {}
    idx = {line.split(" ")[0]: i for i, line in enumerate(lines) if line[:1].isupper()}
    npoints = int(lines[idx["POINTS"]].split()[1])
    ncells = int(lines[idx["CELLS"]].split()[1])
    data["points"] = np.array(
        [[float(v) for v in lines[idx["POINTS"] + 1 + p].split()] for p in range(npoints)]
    )
    data["cell_types"] = [
        lines[idx["CELL_TYPES"] + 1 + c] for c in range(ncells)
    ]
    for i, line in enumerate(lines):
        if line.startswith("SCALARS"):
            name = line.split()[1]
            vals = lines[i + 2 : i + 2 + ncells]
            data[name] = np.array([float(v) for v in vals])
        if line.startswith("VECTORS"):
            vals = lines[i + 1 : i + 1 + ncells]
            data["velocity"] = np.array([[float(v) for v in row.split()] for row in vals])
    return data


def test_export_vtk_roundtrip(gen65, tmp_path):
    gas = ph.GasParams()
    phys = ph.PhysParams(mu=0.01, zeta=0.0, lam=0.0)
    state = cli.initial_condition_presets("shear", {}, gen65, gas)
    path = tmp_path / "snap.vtk"
    cli.export_vtk(gen65, state, gas, path, ph.friction_power(gen65, state.a, phys))
    text = path.read_text()
    assert text.startswith("# vtk DataFile Version 3.0")

    data = _parse_vtk(text)
    assert len(data["points"]) == gen65.mesh.num_nodes
    assert (data["points"][:, 2] == 0).all()
    assert data["cell_types"] == ["5"] * 65
    np.testing.assert_allclose(data["density"], state.d, rtol=1e-15)
    np.testing.assert_allclose(data["entropy"], state.s, rtol=1e-15)
    np.testing.assert_allclose(
        data["temperature"], ph.temperature(state.d, state.s, gas), rtol=1e-15
    )
    np.testing.assert_allclose(
        data["velocity"][:, :2], fd.reconstruct_velocity(gen65, state.a), rtol=1e-15, atol=1e-300
    )


# ---------------------------------------------------------------------------
# decflow run
# ---------------------------------------------------------------------------


def run_config(tmp_path, extra=""):
    outdir = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        MINIMAL.replace("run.steps = 5", "run.steps = 10")
        + f"output.directory = {outdir}\n"
        + extra
    )
    return cfg, outdir


def test_run_rest_produces_constant_diagnostics(tmp_path, capsys):
    cfg, outdir = run_config(tmp_path, "output.snapshot_stride = 5\n")
    assert cli.main(["run", str(cfg)]) == 0
    assert "wrote" in capsys.readouterr().out

    rows = (outdir / "diagnostics.csv").read_text().splitlines()
    assert rows[0] == cli.CSV_HEADER
    assert len(rows) == 12  # step 0 plus 10 steps
    table = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
    np.testing.assert_array_equal(table[:, 0], np.arange(11))
    np.testing.assert_allclose(table[:, 1], 1e-3 * np.arange(11), atol=1e-18)
    np.testing.assert_allclose(table[:, 2], 1.0, rtol=1e-12)  # mass
    np.testing.assert_allclose(table[:, 3], 0.0, atol=1e-12)  # entropy
    np.testing.assert_allclose(table[:, 4], 1.0, rtol=1e-12)  # energy
    np.testing.assert_array_equal(table[:, 9], 0.0)  # rest: no Newton work

    for k in (0, 5, 10):
        assert (outdir / f"snapshot_{k:06d}.vtk").exists()
    assert not (outdir / "snapshot_000001.vtk").exists()


@pytest.mark.parametrize(
    "key, raw",
    [("initial.amplitude", "nan"), ("gas.gamma", "inf"), ("phys.theta_env", "inf"), ("run.h", "inf")],
)
def test_run_rejects_a_non_finite_number_before_stepping(tmp_path, capsys, key, raw):
    cfg, outdir = run_config(tmp_path)
    cfg.write_text(with_value(key, raw, with_value("initial.preset", "shear", cfg.read_text())))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err == f"config error: config key '{key}': must be finite\n"
    assert not outdir.exists()


@pytest.mark.parametrize(
    "preset, extra, message",
    [
        ("rest", "initial.entropy = 1e5", "config key 'initial.entropy': the initial temperature"),
        ("rest", "initial.entropy = -1e5", "config key 'initial.entropy': the initial temperature"),
        ("rest", "initial.density = 1e300", "config key 'initial.density': the initial temperature"),
        ("hot-spot", "initial.amplitude = 1e5", "config key 'initial.amplitude': the initial temperature"),
        ("shear", "initial.amplitude = 1e300", "config key 'initial.amplitude': the initial kinetic density"),
    ],
)
def test_run_names_the_key_of_absurd_initial_data(tmp_path, capsys, preset, extra, message):
    cfg, outdir = run_config(tmp_path, extra + "\n")
    cfg.write_text(with_value("initial.preset", preset, cfg.read_text()))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["run", str(cfg)]) == 2
    what = "is not finite" if "kinetic" in message else "is not finite and positive"
    assert capsys.readouterr().err == f"config error: {message} {what}\n"
    assert not outdir.exists()


def test_initial_temperature_names_every_key_that_sets_it(small43):
    params = {"density": 2.0, "entropy": 3.0, "amplitude": 1e5}
    with pytest.raises(cli.ConfigError) as err:
        cli.initial_condition_presets("hot-spot", params, small43, ph.GasParams())
    assert str(err.value) == (
        "config keys 'initial.density', 'initial.entropy', 'initial.amplitude': "
        "the initial temperature is not finite and positive"
    )
    with pytest.raises(cli.ConfigError, match="^config key 'initial.preset': the initial"):
        cli.initial_condition_presets("rest", {}, small43, ph.GasParams(c_v=1e-300, K=1e300))


def test_run_is_deterministic(tmp_path):
    cfg, outdir = run_config(tmp_path, "initial.preset = shear\n".replace("initial.preset = shear\n", ""))
    cfg2 = tmp_path / "run2.cfg"
    cfg2.write_text(cfg.read_text().replace("rest", "shear").replace(str(outdir), str(tmp_path / "out2")))
    assert cli.main(["run", str(cfg2)]) == 0
    first = (tmp_path / "out2" / "diagnostics.csv").read_bytes()
    assert cli.main(["run", str(cfg2)]) == 0
    assert (tmp_path / "out2" / "diagnostics.csv").read_bytes() == first


def test_run_computes_the_friction_power_once_per_state(tmp_path, monkeypatch):
    cfg, outdir = run_config(tmp_path, "output.snapshot_stride = 5\n")
    cfg.write_text(with_value("initial.preset", "shear", cfg.read_text()))
    calls = []
    power = ph.friction_power
    monkeypatch.setattr(ph, "friction_power", lambda *args: calls.append(1) or power(*args))
    assert cli.main(["run", str(cfg)]) == 0
    # the initial state and each of the 10 steps, though the diagnostics
    # and the 3 snapshots read it too
    assert len(calls) == 11
    assert (outdir / "snapshot_000010.vtk").exists()


def test_run_rejects_bad_configs(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(MINIMAL + "phys.mu = -1\n")
    assert cli.main(["run", str(cfg)]) == 2
    assert "phys.mu" in capsys.readouterr().err

    assert cli.main(["run", str(tmp_path / "missing.cfg")]) == 2
    assert "missing.cfg" in capsys.readouterr().err


def test_run_reports_solver_failures(tmp_path, capsys):
    cfg = tmp_path / "stall.cfg"
    # needs a mesh with enough interior cells that the Newton solve has work
    cfg.write_text(
        MINIMAL.replace("initial.preset = rest", "initial.preset = shear")
        .replace("mesh.nx = 4", "mesh.nx = 6")
        .replace("mesh.ny = 3", "mesh.ny = 5")
        + "solver.newton_max = 1\n"
        + f"output.directory = {tmp_path / 'out'}\n"
    )
    assert cli.main(["run", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert "step 1" in err and "momentum solve stalled" in err
    assert err.strip().endswith("; reduce the time step (config key 'run.h' = 0.001)")


def test_run_reports_an_entropy_stall_with_the_time_step(tmp_path, capsys):
    # Strong conduction: the explicit conduction term of the entropy fixed
    # point does not contract at this step.
    cfg = tmp_path / "stall.cfg"
    cfg.write_text(
        MINIMAL.replace("mesh.nx = 4", "mesh.nx = 6").replace("mesh.ny = 3", "mesh.ny = 5")
        + "heat.preset = constant\nheat.rate = 5\nphys.lambda = 3\n"
        + f"output.directory = {tmp_path / 'out'}\n"
    )
    assert cli.main(["run", str(cfg)]) == 3
    assert capsys.readouterr().err.strip() == (
        "run failed: step 1: entropy fixed point stalled (last update 4.802e+00); "
        "reduce the time step (config key 'run.h' = 0.001)"
    )


def test_a_run_the_entropy_damping_carries_ends(tmp_path, capsys):
    # At a third of the stall's conductivity the plain fixed point still
    # does not contract at step 1: its halved updates (109 in 5 steps) carry
    # the run, which stalls without them.
    cfg = tmp_path / "damped.cfg"
    cfg.write_text(
        MINIMAL.replace("mesh.nx = 4", "mesh.nx = 6").replace("mesh.ny = 3", "mesh.ny = 5")
        + "heat.preset = constant\nheat.rate = 5\nphys.lambda = 1.0\n"
        + f"output.directory = {tmp_path / 'out'}\n"
    )
    assert cli.main(["run", str(cfg)]) == 0, capsys.readouterr().err


def taylor_config(tmp_path, h):
    cfg = tmp_path / "taylor.cfg"
    cfg.write_text(
        MINIMAL.replace("initial.preset = rest", "initial.preset = taylor-like")
        .replace("mesh.nx = 4", "mesh.nx = 6")
        .replace("mesh.ny = 3", "mesh.ny = 5")
        .replace("run.h = 1e-3", f"run.h = {h}")
        .replace("run.steps = 5", "run.steps = 40")
        + "initial.amplitude = 3\n"
        + f"output.directory = {tmp_path / 'out'}\n"
    )
    return cfg


def test_run_reports_a_series_out_of_range(tmp_path, capsys):
    assert cli.main(["run", str(taylor_config(tmp_path, 0.5))]) == 3
    err = capsys.readouterr().err.strip()
    assert err.startswith("run failed: step 1: tangent-map series needs |xi| < 1")
    assert err.endswith("reduce the time step (config key 'run.h' = 0.5)")
    assert len(err.splitlines()) == 1


def test_a_huge_series_argument_prints_in_exponent_form(tmp_path, capsys):
    # The kinetic density of this shear is finite, so it passes the
    # initial-data check and fails at the first group action.
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(
        MINIMAL.replace("initial.preset = rest", "initial.preset = shear\ninitial.amplitude = 1e150")
        + f"output.directory = {tmp_path / 'out'}\n"
    )
    assert cli.main(["run", str(cfg)]) == 3
    assert capsys.readouterr().err.strip() == (
        "run failed: step 1: tangent-map series needs |xi| < 1, got 9.552e+131; "
        "reduce the time step (config key 'run.h' = 0.001)"
    )


def test_a_series_argument_past_the_float_range_warns_nothing(tmp_path, capsys):
    # gas.K = 1e300 makes |xi|_1 |xi|_inf overflow at step 2; the norm
    # bound is then inf, which the guard reports, without a warning.
    cfg = tmp_path / "stiff.cfg"
    cfg.write_text(
        MINIMAL.replace("mesh.nx = 4", "mesh.nx = 6").replace("mesh.ny = 3", "mesh.ny = 5")
        .replace("initial.preset = rest", "initial.preset = taylor-like\ngas.K = 1e300")
        + f"output.directory = {tmp_path / 'out'}\n"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", str(cfg)]) == 3
    assert capsys.readouterr().err == (
        "run failed: step 2: tangent-map series argument is not finite; "
        "reduce the time step (config key 'run.h' = 0.001)\n"
    )


def test_run_reports_a_diagnostic_that_is_not_finite(tmp_path, capsys):
    # With c_v = 1e300 the boundary temperature condition raises the energy
    # by about 7e299 in a step of 1e-300, so the energy residual overflows.
    cfg = tmp_path / "hot.cfg"
    cfg.write_text(
        MINIMAL.replace("run.h = 1e-3", "run.h = 1e-300").replace("run.steps = 5", "run.steps = 2")
        + f"gas.c_v = 1e300\noutput.directory = {tmp_path / 'out'}\n"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", str(cfg)]) == 3
    assert capsys.readouterr().err == (
        "run failed: step 1: diagnostic 'energy_residual' = inf is not finite (config key 'run.h' = 1e-300)\n"
    )
    rows = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()
    assert len(rows) == 2  # the header and step 0


def test_run_reports_a_nonpositive_density(tmp_path, capsys):
    assert cli.main(["run", str(taylor_config(tmp_path, 0.02))]) == 3
    err = capsys.readouterr().err.strip()
    assert err.startswith("run failed: step 3: density not positive after transport")
    assert err.endswith("reduce the time step (config key 'run.h' = 0.02)")
    assert len(err.splitlines()) == 1


def test_run_reports_a_non_finite_newton_update(tmp_path, capsys):
    # The heating drives the energy to about 2e43 in step 1; step 2's
    # Jacobian is singular, and SuperLU refuses to factor it.
    cfg = tmp_path / "hot.cfg"
    cfg.write_text(
        MINIMAL.replace("mesh.nx = 4", "mesh.nx = 6").replace("mesh.ny = 3", "mesh.ny = 5")
        + "heat.preset = constant\nheat.rate = 1e5\nphys.lambda = 0.01\n"
        + f"output.directory = {tmp_path / 'out'}\n"
    )
    assert cli.main(["run", str(cfg)]) == 3
    err = capsys.readouterr().err.strip()
    assert err == (
        "run failed: step 2: Newton matrix is singular; "
        "reduce the time step (config key 'run.h' = 0.001)"
    )


@pytest.mark.parametrize(
    "extra, cause",
    [
        ("", "temperature not finite and positive after the entropy update (range 1.000e+00 to inf)"),
        ("phys.lambda = 0.01\n", "entropy update is not finite"),
    ],
)
def test_run_reports_an_infinite_temperature(tmp_path, capsys, extra, cause):
    # Step 1 turns about 1000 units of heat per cell into an entropy whose
    # temperature overflows; without conduction the entropy update itself
    # stays finite, with it the update is NaN.
    cfg = tmp_path / "hotter.cfg"
    cfg.write_text(
        MINIMAL.replace("mesh.nx = 4", "mesh.nx = 6").replace("mesh.ny = 3", "mesh.ny = 5")
        + "heat.preset = constant\nheat.rate = 1e6\n"
        + extra
        + f"output.directory = {tmp_path / 'out'}\n"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["run", str(cfg)]) == 3
    err = capsys.readouterr().err.strip()
    assert err == (
        f"run failed: step 1: {cause}; reduce the time step (config key 'run.h' = 0.001)"
    )
    rows = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()
    assert len(rows) == 2  # the header and step 0


def output_error(code, path):
    """The one line ``decflow run`` prints for an OS error on ``path``."""
    return f"config error: config key 'output.directory': [Errno {code}] {os.strerror(code)}: '{path}'\n"


@pytest.mark.parametrize("where", ["existing-file", "under-a-file", "proc", "snapshot-is-a-directory"])
def test_run_reports_an_unwritable_output_as_a_config_error(tmp_path, capsys, where):
    cfg, outdir = run_config(tmp_path, "output.snapshot_stride = 1\n")
    if where == "existing-file":
        outdir.write_text("")
        expected = output_error(errno.EEXIST, outdir)
    elif where == "under-a-file":
        (tmp_path / "file").write_text("")
        outdir = tmp_path / "file" / "out"
        expected = output_error(errno.ENOTDIR, outdir)
    elif where == "proc":
        if not os.path.isdir("/proc"):
            pytest.skip("needs a /proc file system")
        outdir = "/proc/nope"
        expected = output_error(errno.ENOENT, outdir)
    else:
        (outdir / "snapshot_000000.vtk").mkdir(parents=True)
        expected = output_error(errno.EISDIR, outdir / "snapshot_000000.vtk")
    cfg.write_text(with_value("output.directory", str(outdir), cfg.read_text()))
    assert cli.main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err == expected


def ambiguous_mesh():
    """A Delaunay mesh of a jittered 5x5 grid with two interior points
    removed: node 10 is interior with only four cells."""
    from scipy.spatial import Delaunay

    rng = np.random.default_rng(1)
    x, y = np.meshgrid(np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 5))
    points = np.column_stack([x.ravel(), y.ravel()])
    inner = np.flatnonzero((points > 0.0).all(axis=1) & (points < 1.0).all(axis=1))
    points[inner] += rng.uniform(-0.05, 0.05, (inner.size, 2))
    points = np.delete(points, rng.choice(inner, 2, replace=False), axis=0)
    cells = Delaunay(points).simplices
    lines = [f"{len(points)} {len(cells)}"]
    lines += [f"{x!r} {y!r}" for x, y in points.tolist()]
    lines += [" ".join(map(str, cell)) for cell in cells.tolist()]
    return msh.load_mesh("\n".join(lines) + "\n")


def ambiguous_run(tmp_path, preset):
    """A config on :func:`ambiguous_mesh` with ``preset``; returns its path."""
    mesh_file = tmp_path / "mesh.txt"
    mesh_file.write_text(cli.format_mesh(ambiguous_mesh()))
    cfg = tmp_path / "ambiguous.cfg"
    cfg.write_text(
        f"mesh.file = {mesh_file}\nrun.h = 1e-3\nrun.steps = 3\n"
        f"initial.preset = {preset}\noutput.directory = {tmp_path / 'out'}\n"
    )
    return cfg


def test_run_reports_an_ambiguous_mesh_as_a_config_error(tmp_path, capsys):
    # The mesh is rejected at load, before any step runs.
    cfg = ambiguous_run(tmp_path, "shear")
    assert cli.main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config key 'mesh.file': interior node 10 has degree 4 < 5 (")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()

    assert cli.main(["mesh", "check", str(tmp_path / "mesh.txt")]) == 1
    assert "issue: interior node 10 has degree 4 < 5 (" in capsys.readouterr().err


def test_a_rest_state_on_an_ambiguous_mesh_is_rejected_at_load(tmp_path, capsys):
    # A flow that never reaches the degree-4 node does not make the mesh
    # valid: the run stops before its first step.
    cfg = ambiguous_run(tmp_path, "rest")
    assert cli.main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config key 'mesh.file': interior node 10 has degree 4 < 5 (")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out" / "diagnostics.csv").exists()


# ---------------------------------------------------------------------------
# decflow verify
# ---------------------------------------------------------------------------


def test_verify_cli_passes_and_is_deterministic(capsys):
    assert cli.main(["verify", "--seed", "3", "--sizes", "20,40"]) == 0
    out1 = capsys.readouterr().out
    assert "all passed" in out1
    assert "div-adjoint" in out1 and "tau-identity-cayley" in out1

    assert cli.main(["verify", "--seed", "3", "--sizes", "20,40"]) == 0
    assert capsys.readouterr().out == out1


def test_verify_cli_catches_an_injected_sign_error(monkeypatch, capsys):
    good_d0 = fd.d0
    monkeypatch.setattr(fd, "d0", lambda geom, f: -good_d0(geom, f))
    assert cli.main(["verify", "--seed", "0", "--sizes", "20,30"]) == 1
    out = capsys.readouterr().out
    failed = [line for line in out.splitlines() if "FAIL" in line]
    assert failed
    assert any("div-adjoint" in line for line in failed)


@pytest.mark.parametrize(
    "flags, flag",
    [
        (["--seed", "-1"], "--seed"),
        (["--sizes=-5"], "--sizes"),
        (["--sizes=0,-3"], "--sizes"),
        (["--sizes=0"], "--sizes"),
        (["--sizes", ","], "--sizes"),
        (["--sizes", "a,b"], "--sizes"),
    ],
)
def test_verify_rejects_out_of_range_flags(flags, flag, capsys):
    assert cli.main(["verify", *flags]) == 2
    err = capsys.readouterr().err
    assert flag in err and len(err.strip().splitlines()) == 1


# ---------------------------------------------------------------------------
# decflow mesh
# ---------------------------------------------------------------------------


def test_mesh_gen_check_roundtrip(tmp_path, capsys):
    path = tmp_path / "grid.txt"
    assert cli.main(["mesh", "gen", "3", "3", "1", "1", str(path)]) == 0
    assert "21 cells" in capsys.readouterr().out

    assert cli.main(["mesh", "check", str(path)]) == 0
    assert "ok" in capsys.readouterr().out


def test_mesh_gen_reports_an_unwritable_file(tmp_path, capsys):
    out = tmp_path / "missing" / "x.txt"
    assert cli.main(["mesh", "gen", "2", "2", "1", "1", str(out)]) == 1
    reason = f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: '{out}'"
    assert capsys.readouterr().err == f"cannot write '{out}': {reason}\n"


def test_mesh_check_builds_the_geometry_once(tmp_path, capsys, monkeypatch):
    path = tmp_path / "grid.txt"
    assert cli.main(["mesh", "gen", "3", "3", "1", "1", str(path)]) == 0
    calls = []
    geometry = msh._geometry
    monkeypatch.setattr(msh, "_geometry", lambda *args: calls.append(1) or geometry(*args))
    assert cli.main(["mesh", "check", str(path)]) == 0
    assert len(calls) == 1


def test_mesh_check_flags_problems(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("4 2\n0 0\n1 0\n1 1\n0 1\n0 1 2\n0 2 3\n")
    assert cli.main(["mesh", "check", str(bad)]) == 1
    assert "degenerate dual edge" in capsys.readouterr().err

    # a clockwise cell is reoriented: a note on stdout, not an issue
    flipped = tmp_path / "flipped.txt"
    flipped.write_text(FLIPPED)
    assert cli.main(["mesh", "check", str(flipped)]) == 0
    out, err = capsys.readouterr()
    assert out.startswith(f"note: cell 0 was clockwise; reoriented\n{flipped}: ok -- ")
    assert err == ""

    assert cli.main(["mesh", "check", str(tmp_path / "none.txt")]) == 1
    assert "cannot read" in capsys.readouterr().err


FLIPPED = "4 2\n0 0\n1 0\n0.5 0.9\n0.5 -0.9\n0 2 1\n1 0 3\n"


def test_check_and_run_accept_a_mesh_with_a_clockwise_cell(tmp_path, capsys):
    # One verdict per mesh: `run` reorients the cell, and `mesh check` passes.
    flipped = tmp_path / "flipped.txt"
    flipped.write_text(FLIPPED)
    assert cli.main(["mesh", "check", str(flipped)]) == 0
    cfg = tmp_path / "rest.cfg"
    cfg.write_text(
        f"mesh.file = {flipped}\nrun.h = 1e-3\nrun.steps = 3\n"
        f"initial.preset = rest\noutput.directory = {tmp_path / 'out'}\n"
    )
    assert cli.main(["run", str(cfg)]) == 0
    assert (tmp_path / "out" / "diagnostics.csv").exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("4 2\n0 0\nnan 0\n0.5 0.9\n0.5 -0.9\n0 1 2\n1 0 3\n", "node 1 has a non-finite coordinate"),
        ("3 2\n0 0\n1 0\n0.4 0.9\n0 1 2\n0 1 2\n", "cell 1 repeats cell 0"),
    ],
    ids=["nan-coordinate", "repeated-triangle"],
)
def test_mesh_errors_of_a_file(tmp_path, capsys, text, message):
    mesh_file = tmp_path / "mesh.txt"
    mesh_file.write_text(text)
    assert cli.main(["mesh", "check", str(mesh_file)]) == 1
    assert capsys.readouterr().err == f"invalid mesh: {message}\n"

    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"mesh.file = {mesh_file}\nrun.h = 1e-3\nrun.steps = 3\n"
        f"initial.preset = rest\noutput.directory = {tmp_path / 'out'}\n"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err == f"config error: config key 'mesh.file': {message}\n"
