"""Randomized verification of the structural identities behind the scheme.

Every property the integrator silently relies on -- summation by parts for
the discrete divergence, tangency of the advection operators, the kite-sum
form of the transported one-form density, duality of the viscous force
against the friction power, the group difference maps -- is re-checked here
on a corpus of randomized meshes with random fields.  :func:`run_suite`
returns one worst-case relative residual per identity; ``decflow verify``
prints the resulting table.

Checks are written so that a sign error anywhere in the operator stack shows
up as an O(1) residual rather than a subtle drift: each residual is scaled
by the total absolute mass of the terms entering the identity, never by the
(possibly cancelling) value of either side alone.

The field checks run on the integrator's forms: vector fields and forces on
the adjacency list, one-forms on P2 (:func:`decflow.fields.flat_p2`).  Dense
``(N, N)`` arrays are left where an identity is about a matrix or its random
input is drawn as one: the group checks, ``proj_P``, the matrix route of the
Lie derivative, the bracket of ``commutator-nonclosure`` and the
environment-extended fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fields as fd
from . import groups as gr
from . import mesh as msh
from . import physics as ph

_FLOOR = 1e-300


@dataclass(frozen=True)
class CheckRecord:
    """Worst relative residual of one identity over the whole corpus."""

    name: str
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return bool(self.residual <= self.tol)


def _rel(err, scale) -> float:
    return float(err) / (float(scale) + _FLOOR)


def _abs_pairing(geom, lp, ld, b) -> float:
    """``sum_ij |L_ij Omega_ii B_ij|`` for :func:`decflow.fields.pairing1`'s
    arguments: the scale of an identity between pairings."""
    off = np.sum(np.abs(lp * geom.omega[geom.adj_i] * b))
    return float(off + np.sum(np.abs(ld * geom.omega * geom.diagonal(b))))


# ---------------------------------------------------------------------------
# Random inputs
# ---------------------------------------------------------------------------


def random_function(geom, rng) -> np.ndarray:
    return rng.standard_normal(geom.n)


def random_density(geom, rng) -> np.ndarray:
    """Positive cell values bounded away from zero."""
    return 0.5 + rng.random(geom.n)


def random_algebra(geom, rng) -> np.ndarray:
    """Vector field on the adjacency list: an ``(N, N)`` standard normal
    draw read at the adjacent pairs (no flux antisymmetry imposed)."""
    return rng.standard_normal((geom.n, geom.n))[geom.adj_i, geom.adj_j]


def random_tangent(
    geom, rng, velocity_scale: bool = False, no_slip: bool = False
) -> np.ndarray:
    """Constraint-satisfying field: one free flux per shared edge, the
    weighted antisymmetry and the row sums completed exactly.

    With ``velocity_scale`` the flux through each edge is proportional to the
    edge length, i.e. the normal velocities (not the fluxes) are O(1); this
    is the scaling under which pointwise tolerances on derived fields are
    meaningful across mesh sizes.  With ``no_slip`` every flux touching a
    boundary-adjacent cell is zeroed -- the subspace the time integrator
    actually evolves, and the one on which the rotational-energy identities
    hold without boundary terms.
    """
    up = geom.adj_i < geom.adj_j  # each shared edge once, row major
    iu, ju = geom.adj_i[up], geom.adj_j[up]
    flux = rng.standard_normal(iu.size)
    if velocity_scale:
        flux = flux * geom.h_len[up]
    if no_slip:
        bc = geom.mesh.boundary_cells
        flux = np.where(bc[iu] | bc[ju], 0.0, flux)
    return fd.from_fluxes(geom, np.flatnonzero(up), geom.pair_index(ju, iu), flux)


def random_exchange(geom, rng) -> np.ndarray:
    """Extended dense ``(N+1)`` field: random edge fluxes plus a random
    exchange flux between every boundary cell and the environment column
    (``A_rc = f / (2 omega_r)``, ``A_cr = -f / (2 omega_c)``), all rows
    (environment row included) summing to zero."""
    up = geom.adj_i < geom.adj_j
    iu, ju = geom.adj_i[up], geom.adj_j[up]
    bc = np.flatnonzero(geom.mesh.boundary_cells)
    flux = np.concatenate([rng.standard_normal(iu.size), rng.standard_normal(bc.size)])
    rows, cols = np.concatenate([iu, bc]), np.concatenate([ju, np.full(bc.size, geom.n)])
    omega = np.append(geom.omega, geom.omega_env)
    a = np.zeros((geom.n + 1, geom.n + 1))
    a[rows, cols] = flux / (2.0 * omega[rows])
    a[cols, rows] = -flux / (2.0 * omega[cols])
    np.fill_diagonal(a, -a.sum(axis=1))
    return a


# ---------------------------------------------------------------------------
# Mesh and field identities
# ---------------------------------------------------------------------------


def check_divergence_theorem(geom, rng) -> float:
    """Total weighted divergence of a tangent field vanishes."""
    a = random_tangent(geom, rng)
    weighted = geom.omega * fd.div(geom, a)
    return _rel(abs(weighted.sum()), np.abs(weighted).sum())


def check_divergence_theorem_flux(geom, rng) -> float:
    """With environment exchange the total divergence equals the total
    boundary flux."""
    a = random_exchange(geom, rng)
    lhs = geom.omega * 2.0 * np.diagonal(a)[: geom.n]
    rhs = geom.omega * fd.boundary_div(a[: geom.n, geom.n])
    return _rel(abs(lhs.sum() - rhs.sum()), np.abs(lhs).sum() + np.abs(rhs).sum())


def check_div_adjoint(geom, rng) -> float:
    """<F, div A>_0 = <<d0 F, A>> = -sum_i Omega_ii (F . A)_i for tangent A."""
    a = random_tangent(geom, rng)
    f = random_function(geom, rng)
    lhs = fd.pairing0(geom, f, fd.div(geom, a))
    grad = fd.d0(geom, f)
    mid = fd.pairing1(geom, grad, 0.0, a)
    rhs = -float(np.sum(geom.omega * fd.act_fn(geom, a, f)))
    scale = _abs_pairing(geom, grad, 0.0, a)
    return _rel(max(abs(lhs - mid), abs(lhs - rhs)), scale)


def check_div_adjoint_flux(geom, rng) -> float:
    """Environment-exchange variant of the divergence adjoint: the defect is
    carried entirely by the edge-midpoint boundary term."""
    n = geom.n
    a = random_exchange(geom, rng)
    f = rng.standard_normal(n + 1)
    lhs = float(np.sum(geom.omega * 2.0 * np.diagonal(a)[:n] * f[:n]))
    vol = float(np.sum(geom.omega * (a @ f)[:n]))
    bnd = float(np.sum(geom.omega * 0.5 * (f[:n] + f[n]) * fd.boundary_div(a[:n, n])))
    scale = float(np.sum(np.abs(geom.omega[:, None] * a[:n] * f[None, :]))) + abs(bnd)
    return _rel(abs(lhs - vol - bnd), scale)


def check_action_density_total(geom, rng) -> float:
    """Total mass is invariant under the density action of a tangent field."""
    a = random_tangent(geom, rng)
    d = random_density(geom, rng)
    weighted = geom.omega * fd.act_den(geom, d, a)
    return _rel(abs(weighted.sum()), np.abs(weighted).sum())


def check_action_product_rule(geom, rng) -> float:
    """Pointwise split of the density action into a divergence part and a
    function-action part: D . A = (div A) D + D dot A."""
    a = random_tangent(geom, rng)
    d = random_density(geom, rng)
    lhs = fd.act_den(geom, d, a)
    diva = fd.div(geom, a) * d
    rhs = diva + fd.act_fn(geom, a, d)
    scale = np.max(np.abs(lhs)) + np.max(np.abs(diva))
    return _rel(np.max(np.abs(lhs - rhs)), scale)


def check_pairing_change(geom, rng) -> float:
    """<F, D . A>_0 = <<D F^T, A>> for any row-sum-zero A."""
    a = random_algebra(geom, rng)
    d = random_density(geom, rng)
    f = random_function(geom, rng)
    lhs = fd.pairing0(geom, f, fd.act_den(geom, d, a))
    lp, ld = d[geom.adj_i] * f[geom.adj_j], d * f  # D F^T
    rhs = fd.pairing1(geom, lp, ld, a)
    return _rel(abs(lhs - rhs), _abs_pairing(geom, lp, ld, a))


def check_projection_momentum(geom, rng) -> float:
    """Dropping the diagonal of a momentum does not change its pairing with
    row-sum-zero fields."""
    lmat = rng.standard_normal((geom.n, geom.n))
    b = random_algebra(geom, rng)
    lp, ld = lmat[geom.adj_i, geom.adj_j], np.diagonal(lmat)
    lhs = fd.pairing1(geom, lp - ld[geom.adj_i], 0.0, b)  # L_ij - L_ii
    rhs = fd.pairing1(geom, lp, ld, b)
    return _rel(abs(lhs - rhs), _abs_pairing(geom, lp, ld, b))


def check_projection_oneform(geom, rng) -> float:
    """The one-form projection is invisible to constraint-satisfying fields."""
    lmat = rng.standard_normal((geom.n, geom.n))
    b = random_tangent(geom, rng)
    lp, ld = lmat[geom.adj_i, geom.adj_j], np.diagonal(lmat)
    lhs = fd.pairing1(geom, fd.proj_P(lmat)[geom.adj_i, geom.adj_j], 0.0, b)  # P(L) has no diagonal
    rhs = fd.pairing1(geom, lp, ld, b)
    return _rel(abs(lhs - rhs), _abs_pairing(geom, lp, ld, b))


def check_curl_curl(geom, rng) -> float:
    """Three routes to the same number: the rotational pairing
    <<Lambda(A^flat), B>>, the nodal vorticity sum, and the per-cell kite
    (wedge) sum."""
    a = random_tangent(geom, rng)
    b = random_tangent(geom, rng)
    za = fd.flat_p2(geom, a)
    zb = fd.flat_p2(geom, b)
    zpa = fd.flat_pairs(geom, a)
    e1 = fd.pairing1(geom, fd.lambda_op(geom, zpa), 0.0, b)
    wa = fd.total_vorticity(geom, zpa)
    wb = fd.total_vorticity(geom, fd.flat_pairs(geom, b))
    e2 = 0.5 * float(np.sum(wa * wb * geom.star_e))
    e3 = 0.5 * float(np.sum(geom.omega * fd.wedge_star(geom, za, zb)))
    scale = 0.5 * float(np.sum(np.abs(wa * wb) * geom.star_e))
    return _rel(abs(e1 - e2) + abs(e1 - e3), scale)


def check_advection_kite(geom, rng) -> float:
    """The kite-geometry assembly of the transported one-form density agrees
    entrywise with the weighted-commutator route."""
    a = random_tangent(geom, rng)
    b = random_tangent(geom, rng)
    d = random_density(geom, rng)
    direct = fd.lie_deriv_oneform_density(geom, a, d[:, None] * fd.flat(geom, b))[geom.adj_i, geom.adj_j]
    kite = fd.lie_deriv_oneform_density_kite(geom, a, b, d)
    return _rel(np.max(np.abs(direct - kite)), np.max(np.abs(direct)))


def check_covariant_tangency(geom, rng) -> float:
    """The self-transport term stays inside the constraint space: raised
    onto the adjacency list (which holds S and the support), it is in V."""
    worst = 0.0
    for _ in range(2):
        a = random_tangent(geom, rng, velocity_scale=True)
        out = fd.sharp(geom, ph.nabla_pairs(geom, a))
        weighted = np.concatenate([geom.omega[geom.adj_i] * out, geom.omega * geom.diagonal(out)])
        worst = max(worst, _rel(fd.membership_residuals(geom, out)["V"], np.max(np.abs(weighted))))
    return worst


def check_flat_sharp(geom, rng) -> float:
    """Lowering then raising an index is the identity on tangent fields."""
    a = random_tangent(geom, rng)
    back = fd.sharp(geom, fd.flat_p2(geom, a)[: len(a)])
    return _rel(np.max(np.abs(back - a)), np.max(np.abs(a)))


def check_laplacian_nonnegative(geom, rng) -> float:
    """The scalar Laplacian quadratic form (environment grounded at zero) is
    positive semi-definite."""
    f = random_function(geom, rng)
    quad = fd.pairing0(geom, f, fd.laplace_beltrami(geom, f, env=0.0))
    return max(0.0, -quad) / (fd.pairing0(geom, f, f) + _FLOOR)


def check_euler_relation(geom, rng) -> float:
    """State closure consistency: D e_D + S e_S = e + p and e_S = Theta."""
    gas = ph.GasParams(
        gamma=1.1 + 0.8 * rng.random(),
        c_v=0.5 + 1.5 * rng.random(),
        K=0.5 + 1.5 * rng.random(),
    )
    d = random_density(geom, rng)
    s = 0.3 * rng.standard_normal(geom.n)
    eps, eps_d, eps_s = ph.internal_energy(d, s, gas)
    p = ph.pressure(d, s, gas)
    theta = ph.temperature(d, s, gas)
    r1 = _rel(
        np.max(np.abs(d * eps_d + s * eps_s - eps - p)),
        np.max(np.abs(eps) + np.abs(p)),
    )
    r2 = _rel(np.max(np.abs(eps_s - theta)), np.max(np.abs(theta)))
    return max(r1, r2)


def check_conduction_exchange(geom, rng) -> float:
    """Temperature-weighted divergence of the entropy flux collapses to the
    scalar Laplacian of the temperature (environment included)."""
    theta = 0.5 + rng.random(geom.n)
    phys = ph.PhysParams(
        mu=0.0, zeta=0.0, lam=0.2 + rng.random(), theta_env=0.5 + rng.random()
    )
    div_j, theta_j, _ = ph.conduction(geom, theta, phys)
    lhs = theta * div_j + theta_j
    rhs = phys.lam * fd.laplace_beltrami(geom, theta, env=phys.theta_env)
    return _rel(np.max(np.abs(lhs - rhs)), np.max(np.abs(rhs)))


def check_friction_decomposition(geom, rng) -> float:
    """The friction power integrates to the two nonnegative quadratic pieces
    mu_tilde ||div A||^2 + mu sum Omega (dA^flat wedge *dA^flat)."""
    a = random_tangent(geom, rng, velocity_scale=True)
    phys = ph.PhysParams(mu=0.2 + rng.random(), zeta=rng.random(), lam=0.0)
    power = ph.friction_power(geom, a, phys)
    total = float(np.sum(geom.omega * power))
    za = fd.flat_p2(geom, a)
    diva = fd.div(geom, a)
    expected = phys.mu_tilde * fd.pairing0(geom, diva, diva) + phys.mu * float(
        np.sum(geom.omega * fd.wedge_star(geom, za, za))
    )
    scale = abs(expected) + float(np.sum(geom.omega * np.abs(power)))
    bad = _rel(abs(total - expected), scale)
    return max(bad, _rel(max(0.0, -total), scale))


def check_viscous_duality(geom, rng) -> float:
    """The viscous force is exactly minus the friction power in the
    one-form/vector-field pairing."""
    a = random_tangent(geom, rng, velocity_scale=True)
    b = random_tangent(geom, rng, velocity_scale=True)
    phys = ph.PhysParams(mu=0.2 + rng.random(), zeta=rng.random(), lam=0.0)
    lhs = fd.pairing1(geom, ph.viscous_force(geom, a, phys), 0.0, b)
    za = fd.flat_p2(geom, a)
    zb = fd.flat_p2(geom, b)
    div_part = phys.mu_tilde * fd.pairing0(geom, fd.div(geom, a), fd.div(geom, b))
    rot_part = phys.mu * float(np.sum(geom.omega * fd.wedge_star(geom, za, zb)))
    rhs = -div_part - rot_part
    scale = abs(div_part) + abs(rot_part) + abs(lhs)
    return _rel(abs(lhs - rhs), scale)


def _two_away_triple(geom):
    """A cell pair two apart in the dual graph with a unique go-between."""
    rows = np.split(geom.adj_j, np.searchsorted(geom.adj_i, np.arange(1, geom.n)))
    nbrs = [row.tolist() for row in rows]
    for i in range(geom.n):
        for j in nbrs[i]:
            for k in nbrs[j]:
                if k == i or k in nbrs[i]:
                    continue
                if [m for m in nbrs[i] if m in nbrs[k]] == [j]:
                    return i, j, k
    return None


def check_commutator_nonclosure(geom, rng) -> float:
    """The bracket of two tangent fields leaks onto two-away pairs: on a
    pair (i, k) whose only shared neighbor is j the leaked entry is exactly
    A_ij B_jk - B_ij A_jk, and it is generically nonzero -- so the
    constraint distribution is not a subalgebra."""
    triple = _two_away_triple(geom)
    if triple is None:
        return 1.0
    i, j, k = triple
    a, b = random_tangent(geom, rng), random_tangent(geom, rng)
    c = gr.commutator(fd.velocity_matrix(geom, a), geom.adjacency_csr.load(b))
    ij, jk = geom.pair_index([i, j], [j, k])
    caption = a[ij] * b[jk] - b[ij] * a[jk]
    scale = np.max(np.abs(c)) + _FLOOR
    bad = abs(c[i, k] - caption) / scale
    if abs(c[i, k]) <= 1e-8 * scale:
        bad = max(bad, 1.0)
    c[geom.adj_i, geom.adj_j] = 0.0  # leaves what lies off the diagonal and the pairs
    np.fill_diagonal(c, 0.0)
    if np.max(np.abs(c)) <= 1e-8 * scale:
        bad = max(bad, 1.0)
    return bad


# ---------------------------------------------------------------------------
# Group difference maps
# ---------------------------------------------------------------------------


def _small_algebra(geom, rng, norm: float = 0.08) -> np.ndarray:
    xi = random_algebra(geom, rng)
    return xi * (norm / (np.linalg.norm(fd.velocity_matrix(geom, xi), 2) + _FLOOR))


def check_tau_identity(geom, rng, kind) -> float:
    z = np.zeros((geom.n, geom.n))
    return float(np.max(np.abs(gr.tau(z, kind) - np.eye(geom.n))))


def check_tau_inverse(geom, rng, kind) -> float:
    xi = fd.velocity_matrix(geom, _small_algebra(geom, rng))
    err = gr.tau(xi, kind) @ gr.tau(-xi, kind) - np.eye(geom.n)
    return float(np.max(np.abs(err)))


def check_tau_shift(geom, rng, kind) -> float:
    """dtau at -xi equals the tau(xi)-conjugate of dtau at xi."""
    xi = _small_algebra(geom, rng)
    delta = fd.velocity_matrix(geom, random_algebra(geom, rng))
    q = gr.tau(fd.velocity_matrix(geom, xi), kind)
    lhs = gr.dtau(geom.adjacency_csr.load(xi, -1.0), delta, kind)
    rhs = q @ gr.dtau(geom.adjacency_csr.load(xi), delta, kind) @ np.linalg.inv(q)
    return _rel(np.max(np.abs(lhs - rhs)), np.max(np.abs(lhs)))


def check_dtau_inv_shift(geom, rng, kind) -> float:
    """dtau_inv at -xi of the conjugated argument equals dtau_inv at xi."""
    xi = _small_algebra(geom, rng)
    delta = fd.velocity_matrix(geom, random_algebra(geom, rng))
    q = gr.tau(fd.velocity_matrix(geom, xi), kind)
    lhs = gr.dtau_inv(geom.adjacency_csr.load(xi, -1.0), q @ delta @ np.linalg.inv(q), kind)
    rhs = gr.dtau_inv(geom.adjacency_csr.load(xi), delta, kind)
    return _rel(np.max(np.abs(lhs - rhs)), np.max(np.abs(rhs)))


def check_dtau_roundtrip(geom, rng, kind) -> float:
    xi = geom.adjacency_csr.load(_small_algebra(geom, rng))
    delta = fd.velocity_matrix(geom, random_algebra(geom, rng))
    back = gr.dtau_inv(xi, gr.dtau(xi, delta, kind), kind)
    return _rel(np.max(np.abs(back - delta)), np.max(np.abs(delta)))


def check_dtau_inv_fd(geom, rng, kind) -> float:
    """dtau_inv undoes a centered finite-difference directional derivative
    of tau (left-trivialized)."""
    xi = _small_algebra(geom, rng)
    delta = fd.velocity_matrix(geom, random_algebra(geom, rng))
    step = 1e-6 / (np.max(np.abs(delta)) + _FLOOR)
    dense = fd.velocity_matrix(geom, xi)
    qm = gr.tau(-dense, kind)
    d_fd = (
        qm @ gr.tau(dense + step * delta, kind) - qm @ gr.tau(dense - step * delta, kind)
    ) / (2.0 * step)
    err = np.max(np.abs(gr.dtau_inv(geom.adjacency_csr.load(xi), d_fd, kind) - delta))
    return _rel(err, np.max(np.abs(delta)))


def check_transport_adjoint(geom, rng, kind) -> float:
    """dtau_inv_star is the exact adjoint of dtau_inv in the area-weighted
    matrix pairing."""
    xi = geom.adjacency_csr.load(_small_algebra(geom, rng))
    lmat = rng.standard_normal((geom.n, geom.n))
    bp = random_algebra(geom, rng)
    push = gr.dtau_inv(xi, fd.velocity_matrix(geom, bp), kind)
    star = gr.dtau_inv_star(geom.omega, xi, lmat, kind)
    lhs = fd.pairing1(geom, star[geom.adj_i, geom.adj_j], np.diagonal(star), bp)
    weighted = geom.omega[:, None] * lmat * push  # push fills the matrix
    rhs = float(np.sum(weighted))
    scale = float(np.sum(np.abs(weighted))) + abs(lhs)
    return _rel(abs(lhs - rhs), scale)


# ---------------------------------------------------------------------------
# Registry and driver
# ---------------------------------------------------------------------------

FIELD_CHECKS = (
    ("divergence-theorem", 1e-11, check_divergence_theorem),
    ("divergence-theorem-flux", 1e-11, check_divergence_theorem_flux),
    ("div-adjoint", 1e-11, check_div_adjoint),
    ("div-adjoint-flux", 1e-11, check_div_adjoint_flux),
    ("action-density-total", 1e-11, check_action_density_total),
    ("action-product-rule", 1e-11, check_action_product_rule),
    ("pairing-change", 1e-11, check_pairing_change),
    ("projection-momentum", 1e-11, check_projection_momentum),
    ("projection-oneform", 1e-11, check_projection_oneform),
    ("curl-curl-identity", 1e-10, check_curl_curl),
    ("advection-kite-formula", 1e-10, check_advection_kite),
    ("covariant-tangency", 1e-13, check_covariant_tangency),
    ("flat-sharp-roundtrip", 1e-12, check_flat_sharp),
    ("laplacian-nonnegative", 1e-12, check_laplacian_nonnegative),
    ("euler-relation", 1e-12, check_euler_relation),
    ("conduction-exchange", 1e-11, check_conduction_exchange),
    ("friction-decomposition", 1e-11, check_friction_decomposition),
    ("viscous-duality", 1e-11, check_viscous_duality),
    ("commutator-nonclosure", 1e-10, check_commutator_nonclosure),
)

#: The summation-by-parts / tangency family that the fast gate times.
LEMMA_FAMILIES = tuple(name for name, _, _ in FIELD_CHECKS[:9])

GROUP_CHECKS = (
    ("tau-identity", 1e-15, check_tau_identity),
    ("tau-inverse", 1e-12, check_tau_inverse),
    ("tau-shift", 1e-10, check_tau_shift),
    ("dtau-inverse-shift", 1e-10, check_dtau_inv_shift),
    ("dtau-roundtrip", 1e-12, check_dtau_roundtrip),
    ("dtau-inverse-fd", 1e-6, check_dtau_inv_fd),
    ("transport-adjoint", 1e-12, check_transport_adjoint),
)


#: How many of the corpus meshes of at most 100 cells run the group checks.
GROUP_CAP = 8


def all_check_names() -> tuple:
    names = [name for name, _, _ in FIELD_CHECKS]
    names += [f"{base}-{kind}" for base, _, _ in GROUP_CHECKS for kind in gr.KINDS]
    return tuple(names)


def mesh_corpus(seed: int = 0, sizes=(20, 50, 200), count: int = 51) -> list:
    """Structured meshes spanning the requested cell-count range, two thirds
    of them jittered.  A jitter amount that breaks geometric validation is
    halved until the mesh passes (dropping to the unperturbed mesh in the
    worst case), and an unperturbed mesh that fails (right zigzag triangles,
    ``ly/ny = lx/(2 nx)``, collapse dual edges) is rebuilt with ``nx`` one
    larger until it passes, so every returned geometry is valid by
    construction."""
    rng = np.random.default_rng([seed, 91])
    lo, hi = int(min(sizes)), int(max(sizes))
    targets = np.geomspace(max(lo, 8), max(hi, lo + 1), count)
    aspects = ((1.0, 1.0), (1.3, 1.0), (1.0, 1.25))
    jitters = (0.0, 0.12, 0.22)
    geoms = []
    for p, target in enumerate(targets):
        ny = max(2, int(round(np.sqrt(target / 2.0))))
        nx = max(2, int(round((target / ny - 1.0) / 2.0)))
        while (2 * nx + 1) * ny > hi and nx > 2:
            nx -= 1
        while (2 * nx + 1) * ny < lo:
            nx += 1
        lx, ly = aspects[(p // 3) % len(aspects)]
        base = msh.generate_rect_mesh(nx, ny, lx, ly)
        amount = jitters[p % len(jitters)]
        geom = None
        while geom is None:
            try:
                mesh = base if amount == 0.0 else msh.jitter_mesh(base, amount, rng)
                geom = msh.compute_geometry(mesh)
            except msh.MeshError:
                if amount == 0.0:
                    nx += 1
                    base = msh.generate_rect_mesh(nx, ny, lx, ly)
                amount = 0.0 if amount < 1e-3 else 0.5 * amount
        geoms.append(geom)
    return geoms


def run_suite(seed: int = 0, sizes=(20, 50, 200), count: int = 51, names=None) -> list:
    """Evaluate every requested check over the mesh corpus and return one
    :class:`CheckRecord` per check (worst residual seen).

    Each (mesh, check) pair gets its own deterministic random stream, so the
    report for a given seed does not depend on which other checks ran.
    Group-map checks are dense-matrix-function heavy and run on at most
    :data:`GROUP_CAP` of the smaller meshes; the field checks run everywhere.
    """
    geoms = mesh_corpus(seed, sizes, count)
    wanted = None if names is None else set(names)
    worst: dict = {}

    def record(name: str, tol: float, value: float) -> None:
        old = worst.get(name)
        worst[name] = (max(old[0], value) if old else value, tol)

    for m_idx, geom in enumerate(geoms):
        for c_idx, (name, tol, fn) in enumerate(FIELD_CHECKS):
            if wanted is not None and name not in wanted:
                continue
            rng = np.random.default_rng([seed, m_idx, c_idx])
            record(name, tol, fn(geom, rng))

    small = [(m_idx, g) for m_idx, g in enumerate(geoms) if g.n <= 100]
    stride = max(1, len(small) // GROUP_CAP)
    for m_idx, geom in small[::stride][:GROUP_CAP]:
        for c_idx, (base, tol, fn) in enumerate(GROUP_CHECKS):
            for k_idx, kind in enumerate(gr.KINDS):
                name = f"{base}-{kind}"
                if wanted is not None and name not in wanted:
                    continue
                rng = np.random.default_rng([seed, m_idx, 100 + c_idx, k_idx])
                record(name, tol, fn(geom, rng, kind))

    return [
        CheckRecord(name, worst[name][0], worst[name][1])
        for name in all_check_names()
        if name in worst
    ]


def format_report(records) -> str:
    width = max((len(r.name) for r in records), default=4)
    lines = [
        f"{r.name:<{width}}  {r.residual:12.4e}  tol {r.tol:8.1e}  "
        f"{'ok' if r.passed else 'FAIL'}"
        for r in records
    ]
    failed = sum(not r.passed for r in records)
    lines.append(
        f"{len(records)} checks, {failed} failed"
        if failed
        else f"{len(records)} checks, all passed"
    )
    return "\n".join(lines)


def suite_passed(records) -> bool:
    return all(r.passed for r in records)
