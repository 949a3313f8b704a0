"""The classical RK4 reference integrator on the semi-discrete equations.

It advances the same unknowns as the variational step -- one momentum flux
per pair of adjacent interior cells, plus density and entropy per cell --
and is consistent with the same semi-discrete equations, so one variational
step differs from one RK4 step by O(h^2).  The acceptance gate and the
integrator and physics tests use it as an oracle; the package does not.
Its :func:`lagrangian` is the discrete Lagrangian the step's forces derive
from, for the tests that difference it.
"""

import numpy as np

from decflow import fields as fd
from decflow import physics as ph
from decflow.integrator import FluxLayout


def lagrangian(geom, a, d, s, gas):
    """Kinetic minus internal energy: ``sum_i Omega_ii (D_i K_i / 2 - eps_i)``."""
    eps = ph.internal_energy(d, s, gas)[0]
    k = ph.kinetic_density(geom, a)
    return float(np.sum(geom.omega * (0.5 * np.asarray(d) * k - eps)))


def gradient_forces(geom, layout, a, d, s, gas):
    """``Dbar (dl/dD_j - dl/dD_i) + Sbar (dl/dS_j - dl/dS_i)`` on the flux
    pairs (the discrete pressure/temperature gradient block)."""
    dl_dd, dl_ds = ph.scalar_derivatives(geom, a, d, s, gas)
    i, j = layout.rows, layout.cols
    gd, gs = fd.pair_diff(dl_dd, i, j), fd.pair_diff(dl_ds, i, j)
    return fd.pair_mean(d, i, j) * gd + fd.pair_mean(s, i, j) * gs


def semi_discrete_rhs(geom, state, gas, phys, layout, heat=None):
    """Right-hand side of the semi-discrete system as ``(mdot, Ddot, Sdot)``
    with the momentum one-form ``m_ij = Dbar_ij A^flat_ij`` carried on the
    flux layout."""
    a, d, s = state.a, state.d, state.s
    z = fd.flat(geom, a)
    lie = fd.lie_deriv_oneform_density(geom, a, d[:, None] * z)
    lie = lie[layout.rows, layout.cols]
    visc = ph.viscous_force(geom, a, phys)[layout.pos]
    mdot = -lie - gradient_forces(geom, layout, a, d, s, gas) + visc

    ddot = -fd.act_den(geom, d, a)

    theta = ph.temperature(d, s, gas)
    div_j, theta_j, _ = ph.conduction(geom, theta, phys)
    fric = ph.friction_power(geom, a, phys)
    source = fric.copy()
    if heat is not None:
        source = source + d * heat
    sdot = -fd.act_den(geom, s, a) - div_j + (source - theta_j) / theta
    return mdot, ddot, sdot


def momentum_vector(geom, layout, a, d):
    """Edge momenta ``m_ij = Dbar_ij A^flat_ij`` on the flux layout."""
    zp = fd.flat_pairs(geom, a)[layout.pos]
    return fd.pair_mean(d, layout.rows, layout.cols) * zp


def _state_from_momentum(geom, layout, mvec, d, s):
    dbar = fd.pair_mean(d, layout.rows, layout.cols)
    zp = np.zeros(len(geom.adj_i))
    zp[layout.pos] = mvec / dbar
    zp[layout.rev] = -mvec / dbar
    return ph.FluidState(fd.sharp(geom, zp), d, s)


def rk4_step(geom, state, h, gas, phys, layout=None, heat_source=None):
    """Classical RK4 on ``(m, D, S)`` with the velocity reassembled from the
    momentum one-form at every stage (``A^flat_ij = m_ij / Dbar_ij``);
    ``heat_source`` is the per-cell heating rate, constant in time, or None."""
    if layout is None:
        layout = FluxLayout.build(geom)
    m0 = momentum_vector(geom, layout, state.a, state.d)
    d0_, s0 = state.d, state.s

    def rhs(mvec, d, s):
        st = _state_from_momentum(geom, layout, mvec, d, s)
        return semi_discrete_rhs(geom, st, gas, phys, layout, heat_source)

    k1 = rhs(m0, d0_, s0)
    k2 = rhs(m0 + 0.5 * h * k1[0], d0_ + 0.5 * h * k1[1], s0 + 0.5 * h * k1[2])
    k3 = rhs(m0 + 0.5 * h * k2[0], d0_ + 0.5 * h * k2[1], s0 + 0.5 * h * k2[2])
    k4 = rhs(m0 + h * k3[0], d0_ + h * k3[1], s0 + h * k3[2])

    mvec = m0 + (h / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
    d = d0_ + (h / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    s = s0 + (h / 6.0) * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
    return _state_from_momentum(geom, layout, mvec, d, s)
