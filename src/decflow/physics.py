"""State, perfect-gas thermodynamics, Lagrangian, and force terms.

The per-cell state is ``(A, D, S)``: a discrete velocity (its values on the
adjacency list), mass density, and entropy density.  The internal energy
density of the perfect gas with adiabatic index ``gamma``, heat capacity
``c_v`` and reference constant ``K`` is

    eps(D, S) = K * D**gamma * exp(S / (c_v * D))

whose partial derivatives give temperature ``Theta = eps / (c_v D)`` and,
through the Euler relation ``p = D eps_D + S eps_S - eps``, the pressure
``p = (gamma - 1) eps``.

The force and heating terms live on adjacent cell pairs and are evaluated
there, on the directed adjacency list (see :mod:`decflow.fields`):
:func:`viscous_force`, :func:`nabla_pairs` and :func:`entropy_flux` return
one value per pair, and :func:`conduction` sums the entropy flux per cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fields as fd
from .mesh import MeshGeometry

__all__ = [
    "GasParams",
    "PhysParams",
    "FluidState",
    "internal_energy",
    "temperature",
    "pressure",
    "entropy_from_temperature",
    "kinetic_density",
    "scalar_derivatives",
    "variational_derivatives",
    "entropy_flux",
    "conduction",
    "nabla_pairs",
    "friction_power",
    "viscous_force",
]


@dataclass(frozen=True)
class GasParams:
    gamma: float = 1.4
    c_v: float = 1.0
    K: float = 1.0

    def __post_init__(self):
        if self.gamma <= 1.0 or self.c_v <= 0.0 or self.K <= 0.0:
            raise ValueError("need gamma > 1, c_v > 0, K > 0")


@dataclass(frozen=True)
class PhysParams:
    """Transport coefficients and boundary data."""

    mu: float = 0.0
    zeta: float = 0.0
    lam: float = 0.0
    theta_env: float = 1.0
    insulated: bool = False

    @property
    def mu_tilde(self) -> float:
        return self.zeta + 4.0 * self.mu / 3.0


@dataclass
class FluidState:
    """Velocity ``a`` on the adjacency list, density ``d`` and entropy ``s``."""

    a: np.ndarray
    d: np.ndarray
    s: np.ndarray

    def copy(self) -> "FluidState":
        return FluidState(self.a.copy(), self.d.copy(), self.s.copy())


# ---------------------------------------------------------------------------
# Perfect gas
# ---------------------------------------------------------------------------


def internal_energy(d, s, gas: GasParams):
    """Internal energy density and its partials: ``(eps, eps_D, eps_S)``."""
    d = np.asarray(d, dtype=float)
    s = np.asarray(s, dtype=float)
    if np.any(d <= 0.0):
        raise ValueError("density must be positive")
    eps = gas.K * d**gas.gamma * np.exp(s / (gas.c_v * d))
    eps_d = eps * (gas.gamma / d - s / (gas.c_v * d * d))
    eps_s = eps / (gas.c_v * d)
    return eps, eps_d, eps_s


def temperature(d, s, gas: GasParams) -> np.ndarray:
    return internal_energy(d, s, gas)[2]


def pressure(d, s, gas: GasParams) -> np.ndarray:
    return (gas.gamma - 1.0) * internal_energy(d, s, gas)[0]


def entropy_from_temperature(d, theta, gas: GasParams) -> np.ndarray:
    """Invert ``Theta(D, S)`` for ``S`` at fixed density:
    ``S = c_v D log(Theta c_v / (K D^(gamma-1)))``."""
    d = np.asarray(d, dtype=float)
    theta = np.asarray(theta, dtype=float)
    return gas.c_v * d * np.log(theta * gas.c_v / (gas.K * d ** (gas.gamma - 1.0)))


# ---------------------------------------------------------------------------
# Lagrangian
# ---------------------------------------------------------------------------


def kinetic_density(geom: MeshGeometry, a) -> np.ndarray:
    """Pointwise squared speed ``K_i = sum_j (A^flat)_ij A_ij`` (adjacent)."""
    return geom.row_sums(fd.flat_pairs(geom, a) * a)


def scalar_derivatives(geom: MeshGeometry, a, d, s, gas: GasParams):
    """Partial derivatives of the Lagrangian w.r.t. density,
    ``K_i / 2 - eps_D``, and w.r.t. entropy, ``-eps_S = -Theta_i``."""
    _, eps_d, eps_s = internal_energy(d, s, gas)
    return 0.5 * kinetic_density(geom, a) - eps_d, -eps_s


def variational_derivatives(geom: MeshGeometry, a, d, s, gas: GasParams):
    """Partial derivatives of the Lagrangian: w.r.t. velocity the momentum
    ``L_ij = D_i (A^flat)_ij`` (two-away entries of the flat included -- the
    Lie derivative needs them), then :func:`scalar_derivatives`."""
    dl_dd, dl_ds = scalar_derivatives(geom, a, d, s, gas)
    return np.asarray(d)[:, None] * fd.flat(geom, a), dl_dd, dl_ds


# ---------------------------------------------------------------------------
# Heat conduction
# ---------------------------------------------------------------------------


def entropy_flux(geom: MeshGeometry, theta, phys: PhysParams):
    """Entropy flux ``J_ij = -lam (Th_i - Th_j)/(Th_i + Th_j) |h_ij| /
    (Omega_ii |*h_ij|)`` on the adjacency list, and the environment column:
    the same with ``theta_env`` and the aggregate factor of the boundary
    edges (zero when insulated).  The sign makes heat flow from hot to cold,
    so the conduction part of the entropy production is nonnegative."""
    theta = np.asarray(theta, dtype=float)
    jp, col = np.zeros(len(geom.adj_i)), np.zeros(geom.n)
    if phys.lam != 0.0:
        i, k = geom.adj_i, geom.adj_j
        ti, tk = theta[i], theta[k]
        sl = -phys.lam
        jp = sl * (ti - tk) / (ti + tk) * geom.h_len / (geom.omega[i] * geom.star_h_len)
        if not phys.insulated:
            te = phys.theta_env
            col = sl * (theta - te) / (theta + te) * geom.boundary_factor / geom.omega
    return jp, col


def conduction(geom: MeshGeometry, theta, phys: PhysParams):
    """Per-cell terms of the entropy flux at ``theta``, summed from
    :func:`entropy_flux`: ``div J = 2 J_ii``, ``(Theta.J)_i =
    -(J Theta)_i = -sum_j J_ij (Theta_j - Theta_i)`` (``Theta_env`` in the
    environment slot) and the divergence into the environment."""
    theta = np.asarray(theta, dtype=float)
    i, k = geom.adj_i, geom.adj_j
    jp, col = entropy_flux(geom, theta, phys)
    div_j = -2.0 * (geom.row_sums(jp) + col)
    drop = geom.row_sums(jp * fd.pair_diff(theta, i, k))
    theta_j = -(drop + col * (phys.theta_env - theta))
    return div_j, theta_j, fd.boundary_div(col)


# ---------------------------------------------------------------------------
# Viscous forces
# ---------------------------------------------------------------------------


def nabla_pairs(geom: MeshGeometry, a) -> np.ndarray:
    """The one-form ``(nabla_A A)^flat = L_A(A^flat) - d0(K)/2`` of the
    self-advection on the adjacency list (all that sharp reads of it; raised
    back, it lands in S and V by construction)."""
    zp = fd.flat_pairs(geom, a)
    k = kinetic_density(geom, a)
    return fd.lie_deriv_pairs(geom, a, zp) - 0.5 * fd.d0(geom, k)


def friction_power(geom: MeshGeometry, a, phys: PhysParams) -> np.ndarray:
    """Cell-wise power released by friction (enters the entropy equation
    divided by temperature):

        mu_tilde (div A)^2 + mu (dA^flat ^ * dA^flat)
        + 2 mu div(nabla_A A) - 2 mu (div(A) bullet A)
    """
    diva = fd.div(geom, a)
    out = phys.mu_tilde * diva * diva
    if phys.mu != 0.0:
        z = fd.flat_p2(geom, a)
        out = out + phys.mu * fd.wedge_star(geom, z, z)
        # div(nabla_A A) = 2 (nabla_A A)_ii, minus twice the raised row sums
        vp = geom.sharp_coef * nabla_pairs(geom, a)
        out = out + 2.0 * phys.mu * (-2.0 * geom.row_sums(vp))
        out = out - 2.0 * phys.mu * fd.act_den(geom, diva, a)
    return out


def viscous_force(geom: MeshGeometry, a, phys: PhysParams) -> np.ndarray:
    """One-form of the viscous force on the adjacency list,

        -mu_tilde d0(div A) - 2 mu Lambda(A^flat),

    the unique combination of the divergence and curl-curl blocks that is
    exactly dual to the friction power: pairing the result against any
    B in S cap V gives -mu_tilde <div A, div B>_0 - mu Sum_i Omega_ii
    (dA^flat ^ * dB^flat)_i, so the kinetic energy drained here reappears,
    cell by cell, as the heating entering the entropy equation.  Without
    that duality the time integrator would create or destroy total energy
    at order one.
    """
    out = -phys.mu_tilde * fd.d0(geom, fd.div(geom, a))
    if phys.mu != 0.0:
        out = out - 2.0 * phys.mu * fd.lambda_op(geom, fd.flat_pairs(geom, a))
    return out
