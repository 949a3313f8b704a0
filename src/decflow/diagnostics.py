"""Scalar diagnostics of a fluid state: conserved totals and balance
residuals.

The balance quantities mirror the semi-discrete theorems: total mass is
constant, total entropy changes by the production minus the boundary flux,
and total energy changes by boundary heat plus external heating.  The
``energy_residual`` of two consecutive samples is the difference quotient of
the energy minus the trapezoidal average of those source terms, so it should
shrink linearly with the step size on a converged run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import physics as ph
from .mesh import MeshGeometry

__all__ = [
    "DiagnosticsSample",
    "sample",
    "energy_residual",
    "total_energy",
]


@dataclass
class DiagnosticsSample:
    time: float
    total_mass: float
    total_entropy: float
    total_energy: float
    boundary_heat: float
    heat_source: float
    entropy_production: float


def total_energy(geom: MeshGeometry, state: ph.FluidState, gas: ph.GasParams) -> float:
    """Kinetic plus internal energy, ``sum_i Omega_ii (D_i K_i / 2 + eps_i)``."""
    k = ph.kinetic_density(geom, state.a)
    eps = ph.internal_energy(state.d, state.s, gas)[0]
    return float(np.sum(geom.omega * (0.5 * state.d * k + eps)))


def sample(
    geom: MeshGeometry,
    state: ph.FluidState,
    gas: ph.GasParams,
    phys: ph.PhysParams,
    fric: np.ndarray,
    t: float = 0.0,
    heat=None,
) -> DiagnosticsSample:
    """Evaluate all scalar diagnostics at one instant.

    ``fric`` is the state's cell-wise friction power, which the step's
    :class:`~decflow.integrator.StepReport` carries.  ``heat`` is the
    external heating field R (per unit mass), or None.
    """
    d, s = state.d, state.s
    omega = geom.omega
    theta = ph.temperature(d, s, gas)
    _, theta_j, j_bnd = ph.conduction(geom, theta, phys)

    r = np.zeros(geom.n) if heat is None else d * np.asarray(heat, dtype=float)
    production = float(np.sum(omega * (fric - theta_j + r) / theta))
    boundary_heat = float(-np.sum(omega * 0.5 * (theta + phys.theta_env) * j_bnd))
    return DiagnosticsSample(
        time=float(t),
        total_mass=float(np.sum(omega * d)),
        total_entropy=float(np.sum(omega * s)),
        total_energy=total_energy(geom, state, gas),
        boundary_heat=boundary_heat,
        heat_source=float(np.sum(omega * r)),
        entropy_production=production,
    )


def energy_residual(prev: DiagnosticsSample, cur: DiagnosticsSample) -> float:
    """Difference-quotient energy balance defect between two samples."""
    dt = cur.time - prev.time
    if dt == 0.0:
        return 0.0
    rate = (cur.total_energy - prev.total_energy) / dt
    source = 0.5 * (
        prev.boundary_heat + prev.heat_source + cur.boundary_heat + cur.heat_source
    )
    return rate - source

