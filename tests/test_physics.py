"""Perfect-gas closure, Lagrangian derivatives, conduction, friction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decflow import fields as fd
from decflow import integrator as ig
from decflow import mesh as msh
from decflow import physics as ph
from decflow import verify as vf

import rk4_reference as rk4

GAS = ph.GasParams()  # gamma=1.4, c_v=1, K=1


# ---------------------------------------------------------------------------
# Closure
# ---------------------------------------------------------------------------


def test_reference_state_closure():
    eps, eps_d, eps_s = ph.internal_energy(1.0, 0.0, GAS)
    assert eps == pytest.approx(1.0, rel=1e-15)
    assert eps_s == pytest.approx(1.0, rel=1e-15)  # temperature
    assert eps_d == pytest.approx(1.4, rel=1e-15)
    assert ph.temperature(1.0, 0.0, GAS) == pytest.approx(1.0, rel=1e-15)
    assert ph.pressure(1.0, 0.0, GAS) == pytest.approx(0.4, rel=1e-15)


def test_euler_relation_pointwise(rng):
    d = 0.5 + rng.random(40)
    s = rng.normal(scale=0.3, size=40)
    eps, eps_d, eps_s = ph.internal_energy(d, s, GAS)
    p = ph.pressure(d, s, GAS)
    np.testing.assert_allclose(d * eps_d + s * eps_s, eps + p, rtol=1e-13)
    np.testing.assert_allclose(eps_s, ph.temperature(d, s, GAS), atol=0)


def test_entropy_from_temperature_inverts_temperature(rng):
    d = 0.5 + rng.random(25)
    theta = 0.5 + rng.random(25)
    s = ph.entropy_from_temperature(d, theta, GAS)
    np.testing.assert_allclose(ph.temperature(d, s, GAS), theta, rtol=1e-13)


@settings(max_examples=40, deadline=None)
@given(
    d=st.floats(0.05, 20.0),
    s=st.floats(-2.0, 2.0),
    gamma=st.floats(1.05, 2.0),
    c_v=st.floats(0.1, 5.0),
)
def test_closure_properties(d, s, gamma, c_v):
    gas = ph.GasParams(gamma=gamma, c_v=c_v)
    eps, eps_d, eps_s = ph.internal_energy(d, s, gas)
    assert eps > 0 and eps_s > 0
    assert ph.pressure(d, s, gas) == pytest.approx((gamma - 1.0) * eps, rel=1e-13)
    # Euler relation ties the partials to the pressure.
    assert d * eps_d + s * eps_s - eps == pytest.approx(
        ph.pressure(d, s, gas), rel=1e-12
    )


def test_gas_params_validation():
    with pytest.raises(ValueError, match="gamma > 1"):
        ph.GasParams(gamma=1.0)


# ---------------------------------------------------------------------------
# Lagrangian and its derivatives
# ---------------------------------------------------------------------------


def test_kinetic_density_of_rest_is_zero(small43):
    np.testing.assert_array_equal(
        ph.kinetic_density(small43, np.zeros(len(small43.adj_i))), 0.0
    )


def test_variational_derivatives_match_finite_differences(jittered, rng):
    geom = jittered
    a = vf.random_tangent(geom, rng, velocity_scale=True)
    d = vf.random_density(geom, rng)
    s = rng.normal(scale=0.2, size=geom.n)
    dl_da, dl_dd, dl_ds = ph.variational_derivatives(geom, a, d, s, GAS)

    def l(aa, dd, ss):
        return rk4.lagrangian(geom, aa, dd, ss, GAS)

    t = 1e-6
    da = vf.random_tangent(geom, rng, velocity_scale=True)
    got = (l(a + t * da, d, s) - l(a - t * da, d, s)) / (2 * t)
    want = fd.pairing1(geom, dl_da[geom.adj_i, geom.adj_j], np.diagonal(dl_da), da)
    assert got == pytest.approx(want, rel=1e-7)

    dd = rng.normal(size=geom.n)
    got = (l(a, d + t * dd, s) - l(a, d - t * dd, s)) / (2 * t)
    assert got == pytest.approx(fd.pairing0(geom, dl_dd, dd), rel=1e-7)

    ds = rng.normal(size=geom.n)
    got = (l(a, d, s + t * ds) - l(a, d, s - t * ds)) / (2 * t)
    assert got == pytest.approx(fd.pairing0(geom, dl_ds, ds), rel=1e-7)


def test_momentum_is_weighted_flat(small43, rng):
    a = vf.random_tangent(small43, rng)
    d = vf.random_density(small43, rng)
    dl_da = ph.variational_derivatives(small43, a, d, np.zeros(small43.n), GAS)[0]
    z = fd.flat(small43, a)
    np.testing.assert_allclose(dl_da, d[:, None] * z, atol=0)


# ---------------------------------------------------------------------------
# Self-advection stays in the constraint space
# ---------------------------------------------------------------------------


def test_nabla_aa_tangency(jittered, rng):
    assert vf.check_covariant_tangency(jittered, rng) < 1e-13


# ---------------------------------------------------------------------------
# Conduction
# ---------------------------------------------------------------------------


def test_conduction_moves_entropy_from_hot_to_cold(rhombus):
    phys = ph.PhysParams(mu=0.0, zeta=0.0, lam=0.3, insulated=True)
    d = np.ones(2)
    s = ph.entropy_from_temperature(d, np.array([2.0, 1.0]), GAS)
    state = ph.FluidState(np.zeros(2), d, s)
    layout = ig.FluxLayout.build(rhombus)
    _, ddot, sdot = rk4.semi_discrete_rhs(rhombus, state, GAS, phys, layout)
    np.testing.assert_array_equal(ddot, 0.0)
    assert sdot[0] < 0 < sdot[1]
    theta = np.array([2.0, 1.0])
    # Insulated conduction rearranges heat without creating energy...
    assert np.sum(rhombus.omega * theta * sdot) == pytest.approx(0.0, abs=1e-14)
    # ...while producing entropy.
    assert np.sum(rhombus.omega * sdot) > 0


def test_uniform_temperature_has_no_flux(small43):
    phys = ph.PhysParams(mu=0.0, zeta=0.0, lam=0.7, insulated=True)
    jp, col = ph.entropy_flux(small43, np.full(small43.n, 1.3), phys)
    np.testing.assert_array_equal(jp, 0.0)
    np.testing.assert_array_equal(col, 0.0)


def test_environment_cools_a_hot_body(rhombus):
    phys = ph.PhysParams(mu=0.0, zeta=0.0, lam=0.3, theta_env=1.0, insulated=False)
    d = np.ones(2)
    s = ph.entropy_from_temperature(d, np.array([2.0, 2.0]), GAS)
    state = ph.FluidState(np.zeros(2), d, s)
    layout = ig.FluxLayout.build(rhombus)
    sdot = rk4.semi_discrete_rhs(rhombus, state, GAS, phys, layout)[2]
    assert (sdot < 0).all()


def test_conduction_exchange_identity(jittered, rng):
    assert vf.check_conduction_exchange(jittered, rng) < 1e-11


# ---------------------------------------------------------------------------
# Friction and viscosity
# ---------------------------------------------------------------------------


def test_friction_power_vanishes_at_rest(small43):
    phys = ph.PhysParams(mu=0.03, zeta=0.01, lam=0.0)
    np.testing.assert_array_equal(
        ph.friction_power(small43, np.zeros(len(small43.adj_i)), phys), 0.0
    )


def test_friction_dissipates(jittered, rng):
    # Total friction power is a sum of squares; cell values may have either
    # sign but the integral cannot.
    phys = ph.PhysParams(mu=0.02, zeta=0.01, lam=0.0)
    for _ in range(5):
        a = vf.random_tangent(jittered, rng, velocity_scale=True, no_slip=True)
        total = np.sum(jittered.omega * ph.friction_power(jittered, a, phys))
        assert total > 0


def test_friction_decomposition_identity(jittered, rng):
    assert vf.check_friction_decomposition(jittered, rng) < 1e-11


def test_viscous_force_is_dual_to_friction(jittered, rng):
    assert vf.check_viscous_duality(jittered, rng) < 1e-11


def test_mu_tilde_combines_shear_and_bulk():
    phys = ph.PhysParams(mu=0.3, zeta=0.1, lam=0.0)
    assert phys.mu_tilde == pytest.approx(0.1 + 0.4, rel=1e-15)
