"""Discrete tensor calculus on cell-pair matrices.

Fields live on cells: a *function* is a vector of cell values (optionally
extended by one environment slot), a *vector field* is an ``(N, N)`` matrix
supported on the diagonal plus adjacent cell pairs, and a *one-form* is an
``(N, N)`` matrix supported on adjacent and two-away pairs.  The fundamental
matrix spaces are

* ``S``: rows sum to zero (NB: the row convention -- transport matrices act
  on densities through their transpose),
* ``V``: ``Omega_ii * A_ij = -Omega_jj * A_ji`` off the diagonal (the
  weighted antisymmetry distinguishing velocity-like matrices),
* ``d0``-compatible: rows/columns touching boundary-adjacent cells vanish
  (no-slip).

Everything here is a plain numpy array; membership is a property of the
values, checked by :func:`membership_residuals`, not a type tag.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .mesh import MeshGeometry

__all__ = [
    "pairing0",
    "pairing1",
    "d0",
    "act_fn",
    "act_den",
    "group_act_den",
    "div",
    "boundary_div",
    "pair_mean",
    "flux_matrix",
    "flat",
    "sharp",
    "laplace_beltrami",
    "total_vorticity",
    "lambda_op",
    "hodge",
    "wedge_star",
    "proj_Q",
    "proj_P",
    "lie_deriv_oneform",
    "lie_deriv_oneform_cartan",
    "lie_deriv_oneform_density",
    "lie_deriv_oneform_density_kite",
    "init_from_velocity",
    "reconstruct_velocity",
    "membership_residuals",
    "FlatAmbiguityError",
]


class FlatAmbiguityError(ValueError):
    """Two kite triplets assign incompatible values to a two-away entry."""


# ---------------------------------------------------------------------------
# Pairings and elementary actions
# ---------------------------------------------------------------------------


def pairing0(geom: MeshGeometry, f, g) -> float:
    """Area-weighted inner product of two cell functions."""
    n = geom.n
    return float(np.sum(np.asarray(f)[:n] * geom.omega * np.asarray(g)[:n]))


def pairing1(geom: MeshGeometry, lmat, bmat) -> float:
    """Duality pairing of a momentum-like and a velocity-like matrix:
    ``Tr(L^T Omega B) = sum_ij L_ij Omega_ii B_ij``."""
    return float(np.sum(lmat * geom.omega[:, None] * bmat))


def d0(geom: MeshGeometry, f) -> np.ndarray:
    """Differences ``f_j - f_i`` on adjacent cell pairs (a one-form)."""
    f = np.asarray(f, dtype=float)
    n = geom.n
    return np.where(geom.adj, f[None, :n] - f[:n, None], 0.0)


def act_fn(a, f) -> np.ndarray:
    """Vector field acting on a function (directional derivative): ``-A f``."""
    return -np.asarray(a) @ np.asarray(f, dtype=float)


def act_den(geom: MeshGeometry, d, a) -> np.ndarray:
    """Vector field acting on a density: ``Omega^-1 A^T Omega d``."""
    return (np.asarray(a).T @ (geom.omega * np.asarray(d, dtype=float))) / geom.omega


def group_act_den(geom: MeshGeometry, d, act) -> np.ndarray:
    """Transport of a density by a group element ``q``:
    ``Omega^-1 q^T Omega d``, with ``act`` the map ``w -> q^T w``
    (:func:`decflow.groups.tau_action`)."""
    return act(geom.omega * np.asarray(d, dtype=float)) / geom.omega


def div(a) -> np.ndarray:
    """Divergence of a vector field: twice the diagonal."""
    return 2.0 * np.diagonal(np.asarray(a)).copy()


def boundary_div(j_ext: np.ndarray, n: int) -> np.ndarray:
    """Flux divergence into the environment: ``-2 J_{i,env}`` per cell."""
    return -2.0 * np.asarray(j_ext)[:n, n]


def pair_mean(f) -> np.ndarray:
    """Arithmetic two-point mean ``(f_i + f_j)/2`` as a dense matrix."""
    f = np.asarray(f, dtype=float)
    return 0.5 * (f[:, None] + f[None, :])


def flux_matrix(omega, rows, cols, flux) -> np.ndarray:
    """Vector field carrying ``flux[k]`` from cell ``rows[k]`` to cell
    ``cols[k]``: ``A_rc = f / (2 omega_r)``, ``A_cr = -f / (2 omega_c)``, and
    the diagonal completing every row to zero, so the result lies in S and
    V.  Its size is ``len(omega)`` (pass an environment-extended ``omega``
    for exchange fluxes)."""
    n = len(omega)
    a = np.zeros((n, n))
    a[rows, cols] = flux / (2.0 * omega[rows])
    a[cols, rows] = -flux / (2.0 * omega[cols])
    np.fill_diagonal(a, -a.sum(axis=1))
    return a


# ---------------------------------------------------------------------------
# Flat / sharp and the vorticity machinery
# ---------------------------------------------------------------------------


def flat(geom: MeshGeometry, a, two_away: bool = True, check: bool = True) -> np.ndarray:
    """Lower a vector field to a one-form.

    Adjacent entries are ``2 Omega_ii A_ij |*h_ij| / |h_ij|``.  With
    ``two_away=True`` the entries between cells that share only a node are
    materialized from the kite relation: around node ``e``, for the triplet
    with middle cell ``i`` and fan neighbors ``j`` (ccw next), ``k`` (ccw
    previous),

        Z_ij + Z_jk + Z_ki = K_(e,i) * omega_A(e),

    solved for the unknown ``Z_jk`` (and for ``Z_kj`` with the reversed fan
    orientation).  When several triplets determine the same entry, their
    values must agree to ``1e-9`` relative or :class:`FlatAmbiguityError` is
    raised (only meshes with interior nodes of degree < 5 can disagree).
    """
    a = np.asarray(a, dtype=float)
    z = geom.flat_coef * a
    if not two_away or len(geom.ta_row) == 0:
        return z
    om = total_vorticity(geom, z)
    ti, tj, tk = geom.tri_i, geom.tri_j, geom.tri_k
    rhs = geom.tri_kconst * om[geom.tri_node]
    fwd = rhs - z[ti, tj] - z[tk, ti]   # solves for Z[j, k]
    rev = -rhs - z[ti, tk] - z[tj, ti]  # solves for Z[k, j]
    vals = np.where(geom.ta_sign > 0, fwd[geom.ta_tri], rev[geom.ta_tri])
    z[geom.ta_row, geom.ta_col] = vals
    if check and len(geom.dup_row):
        dvals = np.where(geom.dup_sign > 0, fwd[geom.dup_tri], rev[geom.dup_tri])
        have = z[geom.dup_row, geom.dup_col]
        scale = max(1e-300, float(np.max(np.abs(z))))
        worst = float(np.max(np.abs(dvals - have))) / scale
        if worst > 1e-9:
            raise FlatAmbiguityError(
                f"two-away one-form entries disagree (relative {worst:.3e}); "
                "the mesh has interior nodes of degree < 5"
            )
    return z


def sharp(geom: MeshGeometry, z) -> np.ndarray:
    """Raise a one-form to a vector field (adjacent entries only, diagonal
    completed so rows sum to zero)."""
    a = geom.sharp_coef * np.asarray(z, dtype=float) * geom.adj
    np.fill_diagonal(a, 0.0)
    np.fill_diagonal(a, -a.sum(axis=1))
    return a


def laplace_beltrami(geom: MeshGeometry, f, env: float | None = None) -> np.ndarray:
    """Cell-function Laplacian ``(1/Omega_ii) sum_j (f_i - f_j)|h|/|*h|``.

    Positive semidefinite (it is *minus* the analytic Laplacian).  With
    ``env`` set, boundary cells get the extra term against the environment
    value through their boundary edges.
    """
    f = np.asarray(f, dtype=float)
    n = geom.n
    fv = f[:n]
    with np.errstate(invalid="ignore"):
        w = np.where(geom.adj, geom.h_len / np.where(geom.star_h_len > 0, geom.star_h_len, 1.0), 0.0)
    out = fv * w.sum(axis=1) - w @ fv
    if env is not None:
        out += (fv - float(env)) * geom.boundary_factor
    return out / geom.omega


def total_vorticity(geom: MeshGeometry, z) -> np.ndarray:
    """Sum of one-form entries around each node's ccw fan (one value per
    node; interior fans wrap, boundary fans are open chains)."""
    z = np.asarray(z, dtype=float)
    om = np.zeros(geom.mesh.num_nodes)
    np.add.at(om, geom.pair_node, z[geom.pair_i, geom.pair_j])
    return om


def lambda_op(geom: MeshGeometry, z) -> np.ndarray:
    """Rotated-gradient part of the one-form Laplacian: differences of
    dual-area-weighted vorticities at the two shared-edge endpoints."""
    z = np.asarray(z, dtype=float)
    om = total_vorticity(geom, z)
    w = om * geom.star_e
    out = np.zeros_like(z)
    i, j = geom.adj_i, geom.adj_j
    out[i, j] = 0.5 * (w[geom.adj_eplus] - w[geom.adj_eminus]) * (
        geom.star_h_len[i, j] / geom.h_len[i, j]
    )
    return out


def hodge(geom: MeshGeometry, a) -> np.ndarray:
    """One-form Laplacian of a vector field: ``d0(div A) - Lambda(A^flat)``."""
    return d0(geom, div(a)) - lambda_op(geom, flat(geom, a, two_away=False))


def wedge_star(geom: MeshGeometry, za, zb) -> np.ndarray:
    """Cell values of ``(dZa ^ * dZb)``: the curl-curl quadrature.

    Sums ``W_ijk (dZa)_ijk (dZb)_ijk`` over ordered fan-neighbor pairs of
    each cell, where ``(dZ)_ijk = Z_ij + Z_jk + Z_ki`` needs the two-away
    entries of the one-forms.
    """
    za = np.asarray(za, dtype=float)
    zb = np.asarray(zb, dtype=float)
    ti, tj, tk = geom.tri_i, geom.tri_j, geom.tri_k
    dza = za[ti, tj] + za[tj, tk] + za[tk, ti]
    dzb = zb[ti, tj] + zb[tj, tk] + zb[tk, ti]
    out = np.zeros(geom.n)
    np.add.at(out, ti, 2.0 * geom.tri_w * dza * dzb)
    return out


# ---------------------------------------------------------------------------
# Projections and Lie derivatives
# ---------------------------------------------------------------------------


def proj_Q(lmat) -> np.ndarray:
    """Project onto row-sum-zero matrices along row-constant ones:
    ``Q(L)_ij = L_ij - L_ii``."""
    lmat = np.asarray(lmat, dtype=float)
    return lmat - np.diagonal(lmat)[:, None]


def proj_P(lmat) -> np.ndarray:
    """Project onto antisymmetric row-sum-zero matrices:
    ``P(L)_ij = (L_ij - L_ji - L_ii + L_jj)/2``."""
    lmat = np.asarray(lmat, dtype=float)
    diag = np.diagonal(lmat)
    return 0.5 * (lmat - lmat.T - diag[:, None] + diag[None, :])


def lie_deriv_oneform(a, f) -> np.ndarray:
    """Lie derivative of a one-form along a vector field: ``-(A F + F A^T)``.

    ``A`` may be a SciPy sparse array (the CSR form of
    :class:`decflow.mesh.AdjacencyCSR`).  ``F A^T`` is taken as
    ``(A F^T)^T``, so with a sparse ``A`` both products are
    sparse-times-dense.
    """
    a = a if sparse.issparse(a) else np.asarray(a, dtype=float)
    f = np.asarray(f, dtype=float)
    return -(a @ f + (a @ f.T).T)


def lie_deriv_oneform_cartan(a, f) -> np.ndarray:
    """Same Lie derivative through the homotopy (Cartan) formula
    ``-(i_A d F + d0 i_A F)``; agrees with :func:`lie_deriv_oneform` for
    antisymmetric ``F`` and row-sum-zero ``A``.

    Contractions: ``(i_A F)_i = (A F^T)_ii`` and, for the three-index
    ``(dF)_ikj = F_ik + F_kj + F_ji``,
    ``(i_A dF)_ij = sum_k [(dF)_ikj A_ik - (dF)_jki A_jk]``.
    """
    a = np.asarray(a, dtype=float)
    f = np.asarray(f, dtype=float)
    rowsum = a.sum(axis=1)
    iaf = np.einsum("ik,ik->i", a, f)
    # sum_k (F_ik + F_kj + F_ji) A_ik  =  iaf_i + (A F)_ij + F_ji rowsum_i
    iadf = iaf[:, None] + a @ f + f.T * rowsum[:, None]
    # minus sum_k (F_jk + F_ki + F_ij) A_jk (same expression with i <-> j)
    iadf = iadf - iadf.T
    diaf = iaf[None, :] - iaf[:, None]
    return -(iadf + diaf)


def lie_deriv_oneform_density(geom: MeshGeometry, a, lmat) -> np.ndarray:
    """Lie derivative of a one-form density: ``P(Omega^-1 [A^T, Omega L])``."""
    return proj_P(_weighted_commutator(geom, a, lmat))


def _weighted_commutator(geom: MeshGeometry, a, lmat) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    lmat = np.asarray(lmat, dtype=float)
    wl = geom.omega[:, None] * lmat
    return (a.T @ wl - wl @ a.T) / geom.omega[:, None]


def lie_deriv_oneform_density_kite(geom: MeshGeometry, a, b, d) -> np.ndarray:
    """Adjacent entries of the Lie derivative of ``L_ij = D_i (B^flat)_ij``
    along ``A``, assembled from kite geometry instead of matrix products.

    For each adjacent pair ``(i, j)`` with shared-edge endpoints ``e+``/``e-``
    and ``i+``/``j+`` the fan neighbors of ``i``/``j`` at ``e+`` other than
    ``j``/``i`` (similarly at ``e-``):

        omega_B(e+) [K_(e+,i) Dbar_{j,i+} A_{i,i+} + K_(e+,j) Dbar_{i,j+} A_{j,j+}]
      - omega_B(e-) [K_(e-,i) Dbar_{j,i-} A_{i,i-} + K_(e-,j) Dbar_{i,j-} A_{j,j-}]
      + Dbar_ij [sum_k A_ik B^flat_ik - sum_k A_jk B^flat_jk]
      + mean(D bullet A)_ij B^flat_ij

    with ``K_(e,c) = kappa(e,c)/|*e|`` and missing fan neighbors (at open
    chain ends) contributing zero.  The identity with the matrix route is
    exact when both ``A`` and ``B`` are in S and V (weighted-antisymmetric
    rows summing to zero); the weighted antisymmetry of ``A`` collapses the
    vorticity groups and that of ``B`` the final term.
    """
    a = np.asarray(a, dtype=float)
    d = np.asarray(d, dtype=float)
    zb = flat(geom, b)
    om = total_vorticity(geom, zb)
    dbar = pair_mean(d)
    da = act_den(geom, d, a)
    dabar = pair_mean(da)
    rowdot = np.einsum("ik,ik->i", a, zb * geom.adj)

    rings = geom.rings
    cyclic = geom.ring_cyclic
    kappa = geom.kappa
    ring_pos: list = [dict() for _ in range(geom.mesh.num_nodes)]
    for v in range(geom.mesh.num_nodes):
        for t, c in enumerate(rings[v]):
            ring_pos[v][int(c)] = t

    def fan_other(v: int, c: int, exclude: int) -> int:
        """Fan neighbor of cell c at node v other than ``exclude``; -1 if
        missing (c sits at an open chain end)."""
        ring = rings[v]
        m = len(ring)
        t = ring_pos[v][c]
        cands = []
        if cyclic[v]:
            cands = [int(ring[(t + 1) % m]), int(ring[(t - 1) % m])]
        else:
            if t + 1 < m:
                cands.append(int(ring[t + 1]))
            if t - 1 >= 0:
                cands.append(int(ring[t - 1]))
        cands = [c2 for c2 in cands if c2 != exclude]
        return cands[0] if len(cands) == 1 else -1

    def kconst(v: int, c: int) -> float:
        se = geom.star_e[v]
        if se <= 0:
            return 0.0
        return kappa[v][ring_pos[v][c]] / se

    out = np.zeros_like(a)
    for i, j, ep, em in zip(geom.adj_i, geom.adj_j, geom.adj_eplus, geom.adj_eminus):
        i, j, ep, em = int(i), int(j), int(ep), int(em)
        val = 0.0
        for e, sgn in ((ep, 1.0), (em, -1.0)):
            ip = fan_other(e, i, j)
            jp = fan_other(e, j, i)
            term = 0.0
            if ip >= 0:
                term += kconst(e, i) * dbar[j, ip] * a[i, ip]
            if jp >= 0:
                term += kconst(e, j) * dbar[i, jp] * a[j, jp]
            val += sgn * om[e] * term
        val += dbar[i, j] * (rowdot[i] - rowdot[j])
        val += dabar[i, j] * zb[i, j]
        out[i, j] = val
    return out


# ---------------------------------------------------------------------------
# Velocity transfer
# ---------------------------------------------------------------------------


def init_from_velocity(geom: MeshGeometry, u, no_slip: bool = True) -> np.ndarray:
    """Sample a pointwise velocity ``u(x) -> (2,)`` into a discrete vector
    field: ``A_ij = -|h_ij| (u(midpoint_ij) . n_ij) / (2 Omega_ii)`` with
    ``n_ij`` the unit normal of the shared edge pointing out of cell ``i``.

    With ``no_slip`` the entries of boundary-adjacent cells are zeroed (in
    flux pairs, so the result stays weighted-antisymmetric) before the
    diagonal is completed; the result then lies in S, V and the no-slip
    subspace simultaneously.
    """
    mesh = geom.mesh
    nodes, cells = mesh.nodes, mesh.cells
    n = geom.n
    a = np.zeros((n, n))
    for c in range(n):
        for t in range(3):
            d = int(mesh.cell_adjacency[c, t])
            if d < 0:
                continue
            p = nodes[int(cells[c, (t + 1) % 3])]
            q = nodes[int(cells[c, (t + 2) % 3])]
            edge = q - p
            normal = np.array([edge[1], -edge[0]])  # outward for ccw cells
            mid = 0.5 * (p + q)
            flux = float(np.asarray(u(mid)) @ normal)  # |h| * (u . n_hat)
            if no_slip and (mesh.boundary_cells[c] or mesh.boundary_cells[d]):
                flux = 0.0
            a[c, d] = -flux / (2.0 * geom.omega[c])
    np.fill_diagonal(a, -a.sum(axis=1))
    return a


def reconstruct_velocity(geom: MeshGeometry, a) -> np.ndarray:
    """Lowest-order Raviart-Thomas velocity at each circumcenter.

    Per cell ``u_i(x) = sum_j u_ij Psi_ij(x)`` with basis
    ``Psi_ij(x) = |h_ij| (x - x_ij)/(2 Omega_ii)`` anchored at the node
    ``x_ij`` of cell ``i`` opposite the shared edge, and coefficients
    ``u_ij = -2 Omega_ii A_ij / |h_ij|``; so at the circumcenter
    ``u_i = -sum_j A_ij (cc_i - x_opposite)``.
    """
    a = np.asarray(a, dtype=float)
    mesh = geom.mesh
    out = np.zeros((geom.n, 2))
    for c in range(geom.n):
        cc = geom.circumcenters[c]
        acc = np.zeros(2)
        for t in range(3):
            d = int(mesh.cell_adjacency[c, t])
            if d < 0:
                continue
            x_opp = mesh.nodes[int(mesh.cells[c, t])]
            acc -= a[c, d] * (cc - x_opp)
        out[c] = acc
    return out


# ---------------------------------------------------------------------------
# Membership diagnostics
# ---------------------------------------------------------------------------


def membership_residuals(geom: MeshGeometry, a) -> dict:
    """How far a matrix is from each structural subspace (sup norms)."""
    a = np.asarray(a, dtype=float)
    weighted = geom.omega[:, None] * a
    off = ~np.eye(geom.n, dtype=bool)
    support = off & ~geom.adj
    bc = geom.mesh.boundary_cells
    d0_rows = bc[:, None] | bc[None, :]
    return {
        "S": float(np.max(np.abs(a.sum(axis=1)))),
        "V": float(np.max(np.abs((weighted + weighted.T)[off]))),
        "support": float(np.max(np.abs(a[support]))) if support.any() else 0.0,
        "no_slip": float(np.max(np.abs(np.where(d0_rows, a, 0.0)))),
    }
