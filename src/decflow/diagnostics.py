"""Scalar diagnostics of a fluid state: conserved totals, balance residuals,
vorticity and circulation probes.

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

from . import fields as fd
from . import physics as ph
from .mesh import MeshGeometry

__all__ = [
    "DiagnosticsSample",
    "sample",
    "energy_residual",
    "total_energy",
    "vorticity_field",
    "kelvin_circulation",
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
    """``E = pairing1(dl/dA, A) - l`` (kinetic + internal)."""
    dl_da, _, _ = ph.variational_derivatives(geom, state.a, state.d, state.s, gas)
    return fd.pairing1(geom, dl_da, state.a) - ph.lagrangian(
        geom, state.a, state.d, state.s, gas
    )


def sample(
    geom: MeshGeometry,
    state: ph.FluidState,
    gas: ph.GasParams,
    phys: ph.PhysParams,
    t: float = 0.0,
    heat=None,
) -> DiagnosticsSample:
    """Evaluate all scalar diagnostics at one instant.

    ``heat`` is the external heating field R (per unit mass) at time ``t``,
    or None.
    """
    a, d, s = state.a, state.d, state.s
    omega = geom.omega
    theta = ph.temperature(d, s, gas)
    _, theta_j, j_bnd = ph.conduction(geom, theta, phys)
    fric = ph.friction_power(geom, a, phys)

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


def vorticity_field(geom: MeshGeometry, a) -> np.ndarray:
    """Vorticity around every node of the velocity's one-form."""
    return fd.total_vorticity(geom, fd.flat(geom, a, two_away=False))


def kelvin_circulation(geom: MeshGeometry, a, d, loop) -> float:
    """Circulation ``sum A^flat_ij / Dbar_ij`` around a closed chain of
    adjacent cells (the momentum one-form weighted by inverse density)."""
    loop = np.asarray(loop, dtype=int)
    if loop.ndim != 1 or len(loop) < 3:
        raise ValueError("loop must list at least three cells")
    z = fd.flat(geom, a, two_away=False)
    d = np.asarray(d, dtype=float)
    total = 0.0
    for p in range(len(loop)):
        i, j = int(loop[p]), int(loop[(p + 1) % len(loop)])
        if not geom.adj[i, j]:
            raise ValueError(f"cells {i} and {j} in the loop are not adjacent")
        total += z[i, j] / (0.5 * (d[i] + d[j]))
    return total
