"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.  Expensive simulation runs are shared
between criteria through module-scoped fixtures.
"""

import time

import numpy as np
import pytest

from decflow import cli_io as cli
from decflow import diagnostics as dg
from decflow import fields as fd
from decflow import integrator as ig
from decflow import mesh as msh
from decflow import physics as ph
from decflow import verify as vf

import rk4_reference as rk4

GAS = ph.GasParams()
CONS_PHYS = ph.PhysParams(mu=0.01, zeta=0.0, lam=0.01, insulated=True)


def report(num, label, ok, detail):
    print(f"criterion {num:02d} | {label:<38s} | {'PASS' if ok else 'FAIL'} | {detail}")
    assert ok, f"criterion {num}: {label}: {detail}"


@pytest.fixture(scope="module")
def suite():
    """Full randomized identity suite, shared by the identity criteria."""
    records = vf.run_suite(seed=0)
    return {r.name: r for r in records}


@pytest.fixture(scope="module")
def conservation_run(gen65):
    """1000 variational steps of the shear preset (mu=0.01, lam=0.01,
    insulated, no heating) with per-step mass and entropy totals."""
    state = cli.initial_condition_presets("shear", {}, gen65, GAS)
    stepper = ig.VariationalStepper(gen65, GAS, CONS_PHYS, h=1e-3)
    mass, entropy = [], []

    def observer(k, t, st, rep):
        mass.append(float(np.sum(gen65.omega * st.d)))
        entropy.append(float(np.sum(gen65.omega * st.s)))

    stepper.run(state, 1000, observer=observer)
    return np.array(mass), np.array(entropy)


def test_c01_lemma_suite():
    t0 = time.perf_counter()
    records = vf.run_suite(seed=0, names=vf.LEMMA_FAMILIES)
    elapsed = time.perf_counter() - t0
    corpus = vf.mesh_corpus(seed=0)
    sizes = [g.n for g in corpus]
    worst = max(r.residual for r in records)
    ok = (
        len(corpus) >= 50
        and min(sizes) >= 20
        and max(sizes) <= 200
        and len(records) == len(vf.LEMMA_FAMILIES)
        and worst < 1e-11
        and elapsed < 30.0
    )
    report(
        1,
        "lemma suite on randomized meshes",
        ok,
        f"{len(corpus)} meshes ({min(sizes)}-{max(sizes)} cells), "
        f"worst residual {worst:.2e} < 1e-11, {elapsed:.2f}s < 30s",
    )


def test_c02_curl_curl_three_ways(suite):
    r = suite["curl-curl-identity"]
    report(2, "curl-curl expressions agree", r.residual < 1e-10, f"residual {r.residual:.2e} < 1e-10")


def test_c03_transport_kite_formula(suite):
    r = suite["advection-kite-formula"]
    report(3, "kite transport formula", r.residual < 1e-10, f"residual {r.residual:.2e} < 1e-10")


def test_c04_self_transport_tangency(suite):
    r = suite["covariant-tangency"]
    # two field draws per corpus mesh -> at least 100 random inputs
    n_inputs = 2 * len(vf.mesh_corpus(seed=0))
    ok = r.residual < 1e-13 and n_inputs >= 100
    report(4, "self-transport stays in V", ok, f"{n_inputs} inputs, residual {r.residual:.2e} < 1e-13")


def test_c05_group_difference_maps(suite):
    checks = {
        "tau-identity": 0.0,  # exact
        "tau-inverse": 1e-12,
        "tau-shift": 1e-10,
        "dtau-inverse-shift": 1e-10,
        "dtau-inverse-fd": 1e-6,
        "dtau-roundtrip": 1e-12,
        "transport-adjoint": 1e-12,
    }
    worst = {}
    ok = True
    for base, tol in checks.items():
        for kind in ("exponential", "cayley"):
            r = suite[f"{base}-{kind}"]
            worst[base] = max(worst.get(base, 0.0), r.residual)
            if tol == 0.0:
                ok = ok and r.residual == 0.0
            else:
                ok = ok and r.residual < tol
    report(
        5,
        "group difference maps",
        ok,
        "tau(0) exact; worst: "
        + ", ".join(f"{k} {v:.1e}" for k, v in worst.items() if k != "tau-identity"),
    )


def test_c06_mass_conservation(conservation_run):
    mass, _ = conservation_run
    drift = np.abs(mass - mass[0]).max() / mass[0]
    report(6, "mass constant over 1000 steps", drift < 1e-11, f"relative drift {drift:.2e} < 1e-11")


def test_c07_second_law(gen65, conservation_run):
    _, entropy = conservation_run
    increments = np.diff(entropy)
    worst_inc = increments.min()
    monotone = worst_inc >= -1e-9

    # Conduction sign: a hot spot must relax toward uniform temperature.
    phys = ph.PhysParams(mu=0.0, zeta=0.0, lam=0.05, insulated=True)
    state = cli.initial_condition_presets("hot-spot", {}, gen65, GAS)
    stepper = ig.VariationalStepper(gen65, GAS, phys, h=1e-3)
    hi, lo = [], []

    def observer(k, t, st, rep):
        theta = ph.temperature(st.d, st.s, GAS)
        hi.append(theta.max())
        lo.append(theta.min())

    stepper.run(state, 300, observer=observer)
    hi, lo = np.array(hi), np.array(lo)
    relax = (np.diff(hi) <= 1e-12).all() and (np.diff(lo) >= -1e-12).all()
    shrunk = (hi[-1] - lo[-1]) < 0.5 * (hi[0] - lo[0])
    report(
        7,
        "entropy non-decreasing + hot spot relaxes",
        monotone and relax and shrunk,
        f"min entropy increment {worst_inc:.2e} >= -1e-9; "
        f"temperature spread {hi[0] - lo[0]:.3f} -> {hi[-1] - lo[-1]:.3f}",
    )


def test_c08_energy_drift_scales_with_h(gen65):
    t0 = time.perf_counter()

    def max_drift(h, steps):
        state = cli.initial_condition_presets("shear", {}, gen65, GAS)
        stepper = ig.VariationalStepper(gen65, GAS, CONS_PHYS, h=h)
        e = []
        stepper.run(
            state, steps, observer=lambda k, t, st, rep: e.append(dg.total_energy(gen65, st, GAS))
        )
        e = np.array(e)
        return np.abs(e - e[0]).max()

    d_coarse = max_drift(2e-3, 250)  # T = 0.5
    d_fine = max_drift(1e-3, 500)
    ratio = d_coarse / d_fine
    elapsed = time.perf_counter() - t0
    ok = 1.5 <= ratio <= 2.5 and elapsed < 120.0
    report(
        8,
        "energy drift is first order in h",
        ok,
        f"drift {d_coarse:.2e}/{d_fine:.2e}, ratio {ratio:.2f} in [1.5, 2.5], {elapsed:.1f}s < 120s",
    )


def test_c09_rest_fixed_point(gen65):
    state = cli.initial_condition_presets("rest", {}, gen65, GAS)
    final = ig.VariationalStepper(gen65, GAS, CONS_PHYS, h=1e-3).run(state.copy(), 100)
    errs = (
        np.abs(final.a - state.a).max(),
        np.abs(final.d - state.d).max(),
        np.abs(final.s - state.s).max(),
    )
    ok = max(errs) <= 1e-12
    report(9, "rest preset is a fixed point", ok, f"max change after 100 steps {max(errs):.2e} <= 1e-12")


def test_c10_one_step_consistency(gen65):
    layout = ig.FluxLayout.build(gen65)
    state0 = cli.initial_condition_presets("shear", {}, gen65, GAS)

    def one_step_gap(h):
        var, _ = ig.VariationalStepper(gen65, GAS, CONS_PHYS, h=h).step(state0.copy())
        rk = rk4.rk4_step(gen65, state0.copy(), h, GAS, CONS_PHYS, layout=layout)
        # The implicit scheme staggers momentum: the new velocity pairs with
        # the previous density. RK4 is collocated, so compare like with like.
        m_var = rk4.momentum_vector(gen65, layout, var.a, state0.d)
        m_rk = rk4.momentum_vector(gen65, layout, rk.a, rk.d)
        return (
            np.abs(m_var - m_rk).max(),
            np.abs(var.d - rk.d).max(),
            np.abs(var.s - rk.s).max(),
        )

    gaps_h = one_step_gap(1e-3)
    gaps_h2 = one_step_gap(5e-4)
    ratios = tuple(a / b for a, b in zip(gaps_h, gaps_h2))
    ok = all(3.0 <= r <= 5.3 for r in ratios)
    report(
        10,
        "variational vs RK4 gap is O(h^2)",
        ok,
        "halving ratios (m, D, S) = " + ", ".join(f"{r:.2f}" for r in ratios) + " in [3.0, 5.3]",
    )


def test_c11_operator_convergence():
    geoms = [
        msh.compute_geometry(msh.generate_rect_mesh(nx, ny, 1.0, 1.0))
        for nx, ny in ((6, 5), (12, 10), (24, 20))
    ]

    # laplace_beltrami is the nonnegative Laplacian: -div grad.
    lam_exact = 4.0 * np.pi**2
    eig_errs = []
    for g in geoms:
        inner = g.mesh.interior_cells
        f = np.cos(2.0 * np.pi * g.circumcenters[:, 0])
        lap = fd.laplace_beltrami(g, f)
        lam_h = np.sum(g.omega[inner] * f[inner] * lap[inner]) / np.sum(
            g.omega[inner] * f[inner] ** 2
        )
        eig_errs.append(abs(lam_h - lam_exact))
    eig_orders = [np.log2(a / b) for a, b in zip(eig_errs, eig_errs[1:])]

    def u(xy):
        return np.array([0.5 * np.sin(2 * np.pi * xy[1]) + 0.2, 0.3 * np.cos(2 * np.pi * xy[0])])

    vel_errs = []
    for g in geoms:
        inner = g.mesh.interior_cells
        a = fd.init_from_velocity(g, u, no_slip=False)
        rec = fd.reconstruct_velocity(g, a)
        exact = np.array([u(c) for c in g.circumcenters])
        err2 = np.sum((rec - exact) ** 2, axis=1)
        vel_errs.append(
            float(np.sqrt(np.sum(g.omega[inner] * err2[inner]) / np.sum(g.omega[inner])))
        )
    vel_orders = [np.log2(a / b) for a, b in zip(vel_errs, vel_errs[1:])]

    ok = all(o >= 0.8 for o in eig_orders) and all(o >= 0.8 for o in vel_orders)
    report(
        11,
        "operator convergence orders",
        ok,
        f"eigenvalue orders {', '.join(f'{o:.2f}' for o in eig_orders)}; "
        f"velocity orders {', '.join(f'{o:.2f}' for o in vel_orders)} (>= 0.8)",
    )


def test_c12_nonholonomy_witness(suite, gen65, rng):
    r = suite["commutator-nonclosure"]
    # Direct demonstration on one mesh: two fields supported on the
    # adjacency pattern whose bracket has a two-away entry.
    i, k = gen65.ta_row[0], gen65.ta_col[0]  # the first pair of the two-away list
    a = fd.velocity_matrix(gen65, vf.random_algebra(gen65, rng))
    b = fd.velocity_matrix(gen65, vf.random_algebra(gen65, rng))
    bracket = a @ b - b @ a
    leaves_s = bracket[i, k] != 0.0 and k not in gen65.adj_j[gen65.adj_i == i]
    ok = r.residual < 1e-10 and leaves_s
    report(
        12,
        "bracket leaves the sparsity space",
        ok,
        f"suite residual {r.residual:.2e} < 1e-10; "
        f"[A,B]_({i},{k}) = {bracket[i, k]:.3f} off the adjacency pattern",
    )
