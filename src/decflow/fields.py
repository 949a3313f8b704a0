"""Discrete tensor calculus on cell pairs.

Fields live on cells: a *function* is a vector of cell values (optionally
extended by one environment slot), a *vector field* is held as its values on
the directed adjacency list ``(geom.adj_i, geom.adj_j)``, its diagonal
implied by zero row sums (:meth:`decflow.mesh.MeshGeometry.diagonal`), and a
*one-form* is supported on adjacent and two-away pairs: it is held on *P2*,
the adjacency list followed by the two-away list ``(geom.ta_row,
geom.ta_col)`` (:func:`flat_p2`), or as its dense ``(N, N)`` scatter
(:func:`flat`).  The flat's two-away entries are fixed by the kite relation,
once each, because a valid mesh has no interior node of degree < 5.

One-forms and forces on adjacent pairs are evaluated *per pair*, on that
list, where the geometry stores its lengths and flat/sharp coefficients, by
NumPy gathers and ``np.bincount``: ``d0``, ``pair_mean``, ``flat_pairs``,
``lambda_op``, ``sharp`` and the kite Lie derivative return one value per
pair, ``total_vorticity`` reads one, and ``pairing1`` pairs a momentum on
the list and the diagonal with a vector field on the list.  Dense
``(N, N)`` matrices are left to :func:`from_pairs`, :func:`velocity_matrix`
and :func:`flat` (scatters of those values), :func:`proj_P` and the matrix
route :func:`lie_deriv_oneform_density`, which the identity suite and the
tests use as references, with the SciPy CSR form :func:`velocity_csr`.
The fundamental matrix spaces are

* ``S``: rows sum to zero (NB: the row convention -- transport matrices act
  on densities through their transpose),
* ``V``: ``Omega_ii * A_ij = -Omega_jj * A_ji`` off the diagonal (the
  weighted antisymmetry distinguishing velocity-like matrices),
* ``d0``-compatible: rows/columns touching boundary-adjacent cells vanish
  (no-slip).

A vector field on the list lies in S, and has the adjacency support, by
construction; V and no-slip are properties of its values, checked by
:func:`membership_residuals`, not a type tag.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_array

from .groups import _bracket
from .mesh import MeshGeometry, sum_at

__all__ = [
    "from_pairs",
    "velocity_matrix",
    "velocity_csr",
    "pair_diff",
    "pair_mean",
    "pairing0",
    "pairing1",
    "d0",
    "act_fn",
    "act_den",
    "group_act_den",
    "div",
    "boundary_div",
    "from_fluxes",
    "flat",
    "flat_p2",
    "flat_pairs",
    "sharp",
    "laplace_beltrami",
    "total_vorticity",
    "lambda_op",
    "wedge_star",
    "proj_P",
    "lie_deriv_pairs",
    "lie_deriv_oneform_density",
    "lie_deriv_oneform_density_kite",
    "init_from_velocity",
    "reconstruct_velocity",
    "membership_residuals",
]


# ---------------------------------------------------------------------------
# The adjacency list
# ---------------------------------------------------------------------------


def from_pairs(geom: MeshGeometry, xp) -> np.ndarray:
    """The dense ``(N, N)`` matrix holding ``xp`` on the directed adjacency
    list and zero elsewhere."""
    out = np.zeros((geom.n, geom.n))
    out[geom.adj_i, geom.adj_j] = xp
    return out


def velocity_matrix(geom: MeshGeometry, a) -> np.ndarray:
    """The dense ``(N, N)`` matrix of a vector field held on the adjacency
    list, its implied diagonal included."""
    out = from_pairs(geom, a)
    np.fill_diagonal(out, geom.diagonal(a))
    return out


def velocity_csr(geom: MeshGeometry, a) -> csr_array:
    """A fresh SciPy CSR array of a vector field held on the adjacency list,
    its implied diagonal included, on the pattern of
    :attr:`decflow.mesh.MeshGeometry.adjacency_csr`."""
    pattern = geom.adjacency_csr
    values = np.concatenate([a, geom.diagonal(a)])[pattern.take]
    return csr_array((values, pattern.cols, pattern.indptr), shape=(geom.n, geom.n))


def pair_diff(f, i, j) -> np.ndarray:
    """Differences ``f_j - f_i`` on the cell pairs ``(i[k], j[k])``."""
    f = np.asarray(f, dtype=float)
    return f[j] - f[i]


def pair_mean(f, i, j) -> np.ndarray:
    """Two-point means ``(f_i + f_j)/2`` on the cell pairs ``(i[k], j[k])``."""
    f = np.asarray(f, dtype=float)
    return 0.5 * (f[i] + f[j])


# ---------------------------------------------------------------------------
# Pairings and elementary actions
# ---------------------------------------------------------------------------


def pairing0(geom: MeshGeometry, f, g) -> float:
    """Area-weighted inner product of two cell functions."""
    n = geom.n
    return float(np.sum(np.asarray(f)[:n] * geom.omega * np.asarray(g)[:n]))


def pairing1(geom: MeshGeometry, lp, ld, b) -> float:
    """Duality pairing ``Tr(L^T Omega B) = sum_ij L_ij Omega_ii B_ij`` of a
    momentum ``L``, given by its values ``lp`` on the adjacency list and
    ``ld`` on the diagonal (``0`` for a one-form), and a vector field ``B``
    on the list, whose support is the list and the implied diagonal."""
    off = np.sum(lp * geom.omega[geom.adj_i] * b)
    return float(off + np.sum(ld * geom.omega * geom.diagonal(b)))


def d0(geom: MeshGeometry, f) -> np.ndarray:
    """Differences ``f_j - f_i`` on the adjacency list (a one-form)."""
    return pair_diff(f, geom.adj_i, geom.adj_j)


def act_fn(geom: MeshGeometry, a, f) -> np.ndarray:
    """Vector field acting on a function (directional derivative):
    ``-A f = -sum_j A_ij (f_j - f_i)``, the rows of ``A`` summing to zero."""
    return -geom.row_sums(a * d0(geom, f))


def act_den(geom: MeshGeometry, d, a) -> np.ndarray:
    """Vector field acting on a density: ``Omega^-1 A^T Omega d``."""
    w = geom.omega * np.asarray(d, dtype=float)
    return (sum_at(geom.adj_j, a * w[geom.adj_i], geom.n) + geom.diagonal(a) * w) / geom.omega


def group_act_den(geom: MeshGeometry, d, act) -> np.ndarray:
    """Transport of a density by a group element ``q``:
    ``Omega^-1 q^T Omega d``, with ``act`` the map ``w -> q^T w``
    (:func:`decflow.groups.tau_action`)."""
    return act(geom.omega * np.asarray(d, dtype=float)) / geom.omega


def div(geom: MeshGeometry, a) -> np.ndarray:
    """Divergence of a vector field: twice the diagonal."""
    return 2.0 * geom.diagonal(a)


def boundary_div(j_env) -> np.ndarray:
    """Flux divergence into the environment: ``-2 J_{i,env}`` per cell, from
    the environment column ``J_{i,env}``."""
    return -2.0 * np.asarray(j_env)


def from_fluxes(geom: MeshGeometry, fwd, rev, flux) -> np.ndarray:
    """Vector field carrying ``flux[k]`` from cell ``r`` to the adjacent
    cell ``c``, where ``(r, c)`` is the pair at position ``fwd[k]`` of the
    adjacency list and ``(c, r)`` the one at ``rev[k]``:
    ``A_rc = f / (2 omega_r)`` and ``A_cr = -f / (2 omega_c)``, so the
    result lies in S and V."""
    a = np.zeros(len(geom.adj_i))
    a[fwd] = flux / (2.0 * geom.omega[geom.adj_i[fwd]])
    a[rev] = -flux / (2.0 * geom.omega[geom.adj_i[rev]])
    return a


# ---------------------------------------------------------------------------
# Flat / sharp and the vorticity machinery
# ---------------------------------------------------------------------------


def flat(geom: MeshGeometry, a) -> np.ndarray:
    """Lower a vector field to a one-form: the dense ``(N, N)`` scatter of
    :func:`flat_p2`."""
    vals = flat_p2(geom, a)
    z = from_pairs(geom, vals[: len(geom.adj_i)])
    z[geom.ta_row, geom.ta_col] = vals[len(geom.adj_i) :]
    return z


def flat_p2(geom: MeshGeometry, a) -> np.ndarray:
    """The flat of a vector field on *P2*: its entries on the adjacency list
    followed by those at the two-away pairs ``(ta_row, ta_col)``; every
    other entry of the one-form, the diagonal included, is zero.

    Adjacent entries are ``2 Omega_ii A_ij |*h_ij| / |h_ij|``.  The entries
    between cells that share only a node come from the kite relation: around
    node ``e``, for the triplet with middle cell ``i`` and fan neighbors
    ``j`` (ccw next), ``k`` (ccw previous),

        Z_ij + Z_jk + Z_ki = K_(e,i) * omega_A(e),

    solved for the unknown ``Z_jk`` (and for ``Z_kj`` with the reversed fan
    orientation), reading ``Z_ij`` and ``Z_ki`` at rows of the adjacency
    list fixed once (:attr:`decflow.mesh.MeshGeometry.kite_rows`).  On a
    valid mesh, whose interior nodes have degree 5 or more, one triplet
    determines each entry (:func:`decflow.mesh.compute_geometry`).
    """
    zp = flat_pairs(geom, a)
    om = total_vorticity(geom, zp)
    zq = np.append(zp, 0.0)  # a missing pair, row -1, reads 0
    rows, tri = geom.kite_rows, geom.ta_tri
    kite = geom.ta_sign * (geom.tri_kconst[tri] * om[geom.tri_node[tri]]) - zq[rows[0]] - zq[rows[1]]
    return np.concatenate([zp, kite])


def flat_pairs(geom: MeshGeometry, a) -> np.ndarray:
    """Adjacent entries ``2 Omega_ii A_ij |*h_ij| / |h_ij|`` of the flat, on
    the adjacency list."""
    return geom.flat_coef * a


def sharp(geom: MeshGeometry, zp) -> np.ndarray:
    """Raise a one-form to a vector field, from its entries ``zp`` on the
    adjacency list."""
    return geom.sharp_coef * zp


def laplace_beltrami(geom: MeshGeometry, f, env: float | None = None) -> np.ndarray:
    """Cell-function Laplacian ``(1/Omega_ii) sum_j (f_i - f_j)|h|/|*h|``.

    Positive semidefinite (it is *minus* the analytic Laplacian).  With
    ``env`` set, boundary cells get the extra term against the environment
    value through their boundary edges.
    """
    fv = np.asarray(f, dtype=float)[: geom.n]
    w = geom.h_len / geom.star_h_len
    out = geom.row_sums(w * pair_diff(fv, geom.adj_j, geom.adj_i))
    if env is not None:
        out += (fv - float(env)) * geom.boundary_factor
    return out / geom.omega


def total_vorticity(geom: MeshGeometry, zp) -> np.ndarray:
    """Sum of one-form entries around each node's ccw fan (one value per
    node; interior fans wrap, boundary fans are open chains), from the
    one-form's entries ``zp`` on the adjacency list."""
    return sum_at(geom.pair_node, zp[geom.pair_adj], geom.mesh.num_nodes)


def lambda_op(geom: MeshGeometry, zp) -> np.ndarray:
    """Rotated-gradient part of the one-form Laplacian on the adjacency
    list, from the one-form's entries ``zp`` there: differences of
    dual-area-weighted vorticities at the two shared-edge endpoints."""
    w = total_vorticity(geom, zp) * geom.star_e
    return 0.5 * (w[geom.adj_eplus] - w[geom.adj_eminus]) * (geom.star_h_len / geom.h_len)


def wedge_star(geom: MeshGeometry, za, zb) -> np.ndarray:
    """Cell values of ``(dZa ^ * dZb)``: the curl-curl quadrature, from two
    one-forms on P2 (:func:`flat_p2`).

    Sums ``W_ijk (dZa)_ijk (dZb)_ijk`` over ordered fan-neighbor pairs of
    each cell, where ``(dZ)_ijk = Z_ij + Z_jk + Z_ki`` needs the two-away
    entries of the one-forms, read at the P2 positions
    :attr:`decflow.mesh.MeshGeometry.wedge_rows`.
    """
    rows = geom.wedge_rows
    za, zb = np.append(za, 0.0), np.append(zb, 0.0)  # an entry off P2, row -1, reads 0
    dza = za[rows[0]] + za[rows[1]] + za[rows[2]]
    dzb = zb[rows[0]] + zb[rows[1]] + zb[rows[2]]
    out = np.zeros(geom.n)
    np.add.at(out, geom.tri_i, 2.0 * geom.tri_w * dza * dzb)
    return out


# ---------------------------------------------------------------------------
# Projections and Lie derivatives
# ---------------------------------------------------------------------------


def proj_P(lmat) -> np.ndarray:
    """Project onto antisymmetric row-sum-zero matrices:
    ``P(L)_ij = (L_ij - L_ji - L_ii + L_jj)/2``."""
    lmat = np.asarray(lmat, dtype=float)
    diag = np.diagonal(lmat)
    return 0.5 * (lmat - lmat.T - diag[:, None] + diag[None, :])


def lie_deriv_pairs(geom: MeshGeometry, a, zp) -> np.ndarray:
    """Lie derivative ``-(A Z + Z A^T)`` along a vector field ``A`` of a
    one-form ``Z`` on adjacent pairs (entries ``zp``), on the adjacency list:
    ``-(A_ii + A_jj) Z_ij``.  No cell ``k`` is adjacent to both ``i`` and
    ``j``, which would add ``A_ik Z_kj + A_jk Z_ik``: that takes an interior
    node of degree 3, whose widest cell has a non-positive kite."""
    diag = geom.diagonal(a)
    return -(diag[geom.adj_i] + diag[geom.adj_j]) * zp


def lie_deriv_oneform_density(geom: MeshGeometry, a, lmat) -> np.ndarray:
    """Lie derivative of a one-form density: ``P(Omega^-1 [A^T, Omega L])``
    for ``A`` on the adjacency list and a dense ``L``.  The bracket is
    ``[Omega L, -A^T]``, from one CSR of ``-A`` (:func:`velocity_csr`) and its
    transpose: two sparse-times-dense products."""
    wl = geom.omega[:, None] * np.asarray(lmat, dtype=float)
    minus_a = velocity_csr(geom, -a)
    return proj_P(_bracket(wl, minus_a.T, minus_a) / geom.omega[:, None])


def lie_deriv_oneform_density_kite(geom: MeshGeometry, a, b, d) -> np.ndarray:
    """Lie derivative of ``L_ij = D_i (B^flat)_ij`` along ``A`` on the
    adjacency list, assembled from kite geometry instead of matrix products.

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
    d = np.asarray(d, dtype=float)
    zb = flat_pairs(geom, b)
    om = total_vorticity(geom, zb)
    rowdot = geom.row_sums(a * zb)

    # A kite triplet (middle m, ccw next x, ccw previous v, node e) holds
    # the fan-neighbor terms at e of the four pairs meeting at m: e is the
    # e+ of (m, x) and (v, m) and the e- of (m, v) and (x, m).  A cell at the
    # end of an open fan is the middle of no triplet, so it adds nothing.
    m, x, v = geom.tri_i, geom.tri_j, geom.tri_k
    w = geom.tri_kconst * om[geom.tri_node] * pair_mean(d, x, v)
    mx, mv = geom.pair_index(m, x), geom.pair_index(m, v)
    a_mx, a_mv = a[mx], a[mv]
    out = np.zeros(len(a))
    np.add.at(out, mx, w * a_mv)
    np.add.at(out, geom.pair_index(v, m), w * a_mx)
    np.add.at(out, mv, -w * a_mx)
    np.add.at(out, geom.pair_index(x, m), -w * a_mv)
    i, j = geom.adj_i, geom.adj_j
    dabar = pair_mean(act_den(geom, d, a), i, j)
    out += pair_mean(d, i, j) * (rowdot[i] - rowdot[j]) + dabar * zb
    return out


# ---------------------------------------------------------------------------
# Velocity transfer
# ---------------------------------------------------------------------------


def init_from_velocity(geom: MeshGeometry, u, no_slip: bool = True) -> np.ndarray:
    """Sample a pointwise velocity ``u(x) -> (2,)`` into a discrete vector
    field on the adjacency list: ``A_ij = -|h_ij| (u(midpoint_ij) . n_ij) /
    (2 Omega_ii)`` with ``n_ij`` the unit normal of the shared edge pointing
    out of cell ``i``.

    With ``no_slip`` the entries of boundary-adjacent cells are zeroed (in
    flux pairs, so the result stays weighted-antisymmetric); the result then
    lies in S, V and the no-slip subspace simultaneously.
    """
    mesh = geom.mesh
    c, t = np.nonzero(mesh.cell_adjacency > np.arange(geom.n)[:, None])  # once per edge
    d = mesh.cell_adjacency[c, t]
    p, q = mesh.nodes[mesh.cells[c, (t + 1) % 3]], mesh.nodes[mesh.cells[c, (t + 2) % 3]]
    normal = np.stack([q[:, 1] - p[:, 1], p[:, 0] - q[:, 0]], axis=1)  # outward for ccw cells
    # |h| * (u . n_hat) out of cell c
    flux = np.array([np.asarray(u(0.5 * (x + y))) @ nv for x, y, nv in zip(p, q, normal)])
    if no_slip:
        flux[mesh.boundary_cells[c] | mesh.boundary_cells[d]] = 0.0
    return from_fluxes(geom, geom.pair_index(c, d), geom.pair_index(d, c), -flux)


def reconstruct_velocity(geom: MeshGeometry, a) -> np.ndarray:
    """Lowest-order Raviart-Thomas velocity at each circumcenter.

    Per cell ``u_i(x) = sum_j u_ij Psi_ij(x)`` with basis
    ``Psi_ij(x) = |h_ij| (x - x_ij)/(2 Omega_ii)`` anchored at the node
    ``x_ij`` of cell ``i`` opposite the shared edge, and coefficients
    ``u_ij = -2 Omega_ii A_ij / |h_ij|``; so at the circumcenter
    ``u_i = -sum_j A_ij (cc_i - x_opposite)``.
    """
    mesh = geom.mesh
    out = np.zeros((geom.n, 2))
    for t in range(3):  # in this order per cell
        c = np.flatnonzero(mesh.cell_adjacency[:, t] >= 0)
        a_ct = a[geom.pair_index(c, mesh.cell_adjacency[c, t]), None]
        out[c] -= a_ct * (geom.circumcenters[c] - mesh.nodes[mesh.cells[c, t]])
    return out


# ---------------------------------------------------------------------------
# Membership diagnostics
# ---------------------------------------------------------------------------


def membership_residuals(geom: MeshGeometry, a) -> dict:
    """How far a vector field on the adjacency list is from V and from the
    no-slip subspace (sup norms): ``Omega_ii A_ij + Omega_jj A_ji`` on the
    list, and the entries of rows and columns of boundary-adjacent cells,
    their implied diagonal included.  S and the support hold by
    construction there."""
    i, j = geom.adj_i, geom.adj_j
    weighted = geom.omega[i] * a
    bc = geom.mesh.boundary_cells
    touching = np.concatenate([a[bc[i] | bc[j]], geom.diagonal(a)[bc]])
    return {
        "V": float(np.max(np.abs(weighted + weighted[geom.adj_rev]), initial=0.0)),
        "no_slip": float(np.max(np.abs(touching), initial=0.0)),
    }
