"""Scalar diagnostics: totals and balance residuals."""

import numpy as np
import pytest

from decflow import diagnostics as dg
from decflow import fields as fd
from decflow import integrator as ig
from decflow import physics as ph

import rk4_reference as rk4

GAS = ph.GasParams()


def rest_state(geom):
    return ph.FluidState(np.zeros(len(geom.adj_i)), np.ones(geom.n), np.zeros(geom.n))


def shear_state(geom, amp=0.3):
    a = fd.init_from_velocity(
        geom, lambda p: np.array([amp * np.sin(2 * np.pi * p[1]), 0.0]), no_slip=True
    )
    return ph.FluidState(a, np.ones(geom.n), np.zeros(geom.n))


def test_rest_sample_is_trivial(gen65):
    phys = ph.PhysParams(mu=0.1, zeta=0.1, lam=0.1, theta_env=1.0, insulated=False)
    state = rest_state(gen65)
    s = dg.sample(gen65, state, GAS, phys, ph.friction_power(gen65, state.a, phys))
    assert s.total_mass == pytest.approx(1.0, rel=1e-14)
    assert s.total_energy == pytest.approx(1.0, rel=1e-14)  # eps(1, 0) = 1
    assert s.total_entropy == 0.0
    assert s.entropy_production == pytest.approx(0.0, abs=1e-15)
    assert s.boundary_heat == pytest.approx(0.0, abs=1e-15)
    assert s.heat_source == 0.0


def test_total_energy_is_kinetic_plus_internal(gen65):
    state = shear_state(gen65)
    kin = 0.5 * np.sum(gen65.omega * state.d * ph.kinetic_density(gen65, state.a))
    internal = np.sum(gen65.omega * ph.internal_energy(state.d, state.s, GAS)[0])
    energy = dg.total_energy(gen65, state, GAS)
    assert energy == pytest.approx(kin + internal, rel=1e-13)
    # The Legendre transform of the Lagrangian, E = <dl/dA, A> - l.
    dl_da = ph.variational_derivatives(gen65, state.a, state.d, state.s, GAS)[0]
    legendre = fd.pairing1(gen65, dl_da[gen65.adj_i, gen65.adj_j], np.diagonal(dl_da), state.a)
    legendre -= rk4.lagrangian(gen65, state.a, state.d, state.s, GAS)
    assert energy == pytest.approx(legendre, rel=1e-14)


def test_energy_residual_of_identical_times_is_zero(gen65):
    phys = ph.PhysParams(mu=0.0, zeta=0.0, lam=0.0)
    state = rest_state(gen65)
    s = dg.sample(gen65, state, GAS, phys, ph.friction_power(gen65, state.a, phys), t=1.0)
    assert dg.energy_residual(s, s) == 0.0


def _one_step_residuals(geom, h):
    # Insulated so the only energy sources are friction (internal, cancels)
    # and the prescribed heating; the first-order defect then comes from the
    # difference quotient alone. (A boundary temperature clamp would add an
    # unmodelled source, so this balance is only meaningful when insulated.)
    phys = ph.PhysParams(mu=0.02, zeta=0.01, lam=0.05, insulated=True)
    heat = np.full(geom.n, 0.2)
    stepper = ig.VariationalStepper(geom, GAS, phys, h=h, heat_source=heat)
    state, t = shear_state(geom), 0.0
    for k in range(5):
        state, report = stepper.step(state)
        t += h
    prev = dg.sample(geom, state, GAS, phys, report.friction_power, t=t, heat=heat)
    state, report = stepper.step(state)
    t += h
    cur = dg.sample(geom, state, GAS, phys, report.friction_power, t=t, heat=heat)
    e_res = dg.energy_residual(prev, cur)
    s_res = (cur.total_entropy - prev.total_entropy) / h - 0.5 * (
        prev.entropy_production + cur.entropy_production
    )
    return e_res, s_res


def test_balance_residuals_shrink_linearly(gen65):
    e2, s2 = _one_step_residuals(gen65, 2e-4)
    e1, s1 = _one_step_residuals(gen65, 1e-4)
    assert abs(e2) < 5e-5 and abs(s2) < 1e-4
    assert 1.5 < abs(e2) / abs(e1) < 2.5
    assert 1.5 < abs(s2) / abs(s1) < 2.5
