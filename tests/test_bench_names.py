"""The benchmark's tracer wraps ``decflow`` functions by attribute name.

``perfbench/instruments.py`` patches every name in ``LAYERS`` and the check
registries in ``CHECK_REGISTRIES``; a renamed function would break a traced
run (``perfbench/run.py --trace 1``).  ``perfbench/gate.py`` parses the
``decflow verify`` report and counts its checks.  These tests fail first.
"""

import importlib
import importlib.util
import pathlib

from decflow import cli_io, integrator, physics, verify

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    inst = load_perfbench("instruments")
    missing = []
    for layer, names in inst.LAYERS.items():
        module = importlib.import_module(f"decflow.{layer}")
        for dotted in names:
            owner = module
            for part in dotted.split("."):
                owner = getattr(owner, part, None)
            if owner is None:
                missing.append(f"decflow.{layer}.{dotted}")
    verify = importlib.import_module("decflow.verify")
    missing += [f"decflow.verify.{name}" for name in inst.CHECK_REGISTRIES if not hasattr(verify, name)]
    assert not missing


def test_the_traced_kernel_names_are_called_by_the_step(jittered65, monkeypatch):
    # Wrap each module attribute as the tracer does, then take one step with
    # viscosity and conduction on.  The integrator's LU names are the SciPy
    # functions bound in its module.  The dense group references the tracer
    # names are not on the step's path: it runs the series at the picked
    # entries (``integrator.SampledSeries``).
    traced = {
        "fields": ("d0", "pair_mean", "total_vorticity"),
        "physics": ("viscous_force", "entropy_flux"),
        "groups": ("dtau_inv_star", "dtau_inv", "commutator"),
        "integrator": ("lu_factor", "lu_solve"),
    }
    calls = {}
    for layer, names in traced.items():
        module = importlib.import_module(f"decflow.{layer}")
        for name in names:
            key = f"{layer}.{name}"
            calls[key] = 0

            def wrapper(*args, _fn=getattr(module, name), _key=key, **kwargs):
                calls[_key] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)
    gas = physics.GasParams()
    phys = physics.PhysParams(mu=0.01, zeta=0.0, lam=0.01)
    state = cli_io.initial_condition_presets("taylor-like", {"amplitude": "0.3"}, jittered65, gas)
    integrator.VariationalStepper(jittered65, gas, phys, 1e-3).step(state)
    dense = {f"groups.{name}" for name in traced["groups"]}
    assert all(calls[key] for key in calls.keys() - dense), calls
    assert not any(calls[key] for key in dense), calls


def test_the_step_timer_sees_each_step_once(tmp_path, monkeypatch):
    # ``Stamps`` times each call of ``VariationalStepper.step`` for
    # ``first_step_s`` and ``step_ms_*``, so ``run`` must call it once per
    # step, through the class attribute.
    inst = load_perfbench("instruments")
    for owner, name in [(integrator.VariationalStepper, "step"), (verify, "mesh_corpus")]:
        monkeypatch.setattr(owner, name, getattr(owner, name))  # restored after the test
    for registry in inst.CHECK_REGISTRIES:
        monkeypatch.setattr(verify, registry, getattr(verify, registry))
    stamps = inst.Stamps()
    stamps.install()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "mesh.nx = 4\nmesh.ny = 3\nmesh.lx = 1\nmesh.ly = 1\nrun.h = 1e-3\nrun.steps = 3\n"
        f"initial.preset = shear\noutput.directory = {tmp_path / 'out'}\n"
    )
    assert cli_io.main(["run", str(cfg)]) == 0
    assert len(stamps.steps) == 3


def test_the_gate_reads_the_verify_report(capsys):
    # ``gate.check_verify`` parses each report line and expects
    # ``VERIFY_CHECKS`` of them: a new check or a changed line format fails
    # here before it fails the benchmark.
    gate = load_perfbench("gate")
    assert gate.VERIFY_CHECKS == len(verify.all_check_names())
    rc = cli_io.main(["verify", "--seed", "1"])
    assert gate.check_verify(rc, capsys.readouterr().out) == (gate.VERIFY_CHECKS, 0, [])
