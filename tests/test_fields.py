"""Discrete fields: pairings, derivative, flat/sharp, vorticity, transport."""

import numpy as np
import pytest

from decflow import fields as fd
from decflow import mesh as msh
from decflow import physics as ph
from decflow import verify as vf

import dense_groups as dense


def adjacent(geom):
    """The adjacency pattern as a dense boolean mask, from the pair list."""
    return fd.from_pairs(geom, 1.0) > 0


def flat_adjacent(geom, a):
    """The flat's adjacent entries alone, zero between cells that share only
    a node."""
    return fd.from_pairs(geom, fd.flat_pairs(geom, a))


# ---------------------------------------------------------------------------
# Pairings and elementary operators (frozen on the rhombus)
# ---------------------------------------------------------------------------


def test_pairing0_is_area_weighted(rhombus):
    got = fd.pairing0(rhombus, [1.0, 2.0], [3.0, 4.0])
    assert got == pytest.approx(rhombus.omega[0] * (3.0 + 8.0), rel=1e-14)


def test_pairing1_single_entry(rhombus):
    # L_01 = 3 and L_00 = 2 against B_01 = 5, whose implied B_00 is -5.
    lp, ld, b = np.array([3.0, 0.0]), np.array([2.0, 0.0]), np.array([5.0, 0.0])
    assert fd.pairing1(rhombus, lp, 0.0, b) == pytest.approx(rhombus.omega[0] * 15.0, rel=1e-14)
    assert fd.pairing1(rhombus, lp, ld, b) == pytest.approx(rhombus.omega[0] * 5.0, rel=1e-14)


def test_d0_is_pair_difference(rhombus):
    z = fd.from_pairs(rhombus, fd.d0(rhombus, [2.0, 5.0]))
    np.testing.assert_allclose(z, [[0.0, 3.0], [-3.0, 0.0]], atol=0)


def test_d0_vanishes_off_adjacency(small43):
    # One value per directed adjacent pair: nothing off the pattern to hold.
    z = fd.d0(small43, np.arange(small43.n, dtype=float))
    assert z.shape == small43.adj_i.shape
    dense = fd.from_pairs(small43, z)
    np.testing.assert_array_equal(dense, -dense.T)
    assert (dense[adjacent(small43)] != 0).all()


def test_divergence_is_twice_diagonal(rhombus):
    # A_01 = 0.5 and A_10 = 0.25: the implied diagonal is (-0.5, -0.25).
    a = np.array([0.5, 0.25])
    np.testing.assert_array_equal(fd.velocity_matrix(rhombus, a), [[-0.5, 0.5], [0.25, -0.25]])
    np.testing.assert_allclose(fd.div(rhombus, a), [-1.0, -0.5], atol=0)


def implied_diagonal_loop(geom, a):
    """``A_ii = -sum_j A_ij``, summed pair by pair in list order."""
    diag = np.zeros(geom.n)
    for k, i in enumerate(geom.adj_i):
        diag[i] -= a[k]
    return diag


def test_act_fn_matches_matrix_action(small43, rng):
    a = vf.random_algebra(small43, rng)
    f = rng.normal(size=small43.n)
    # -A f = -sum_j A_ij (f_j - f_i), summed pair by pair in list order.
    expected = np.zeros(small43.n)
    for k, (i, j) in enumerate(zip(small43.adj_i, small43.adj_j)):
        expected[i] -= a[k] * (f[j] - f[i])
    got = fd.act_fn(small43, a, f)
    np.testing.assert_allclose(got, expected, atol=0)
    dense = -fd.velocity_matrix(small43, a) @ f
    assert np.max(np.abs(got - dense)) <= 1e-14 * np.max(np.abs(dense))


def test_act_den_is_weighted_transpose(small43, rng):
    d = 1.0 + rng.random(small43.n)
    a = vf.random_tangent(small43, rng)
    w = small43.omega * d
    # Off-diagonal sum pair by pair in list order, then the diagonal term.
    expected = np.zeros(small43.n)
    for k, (i, j) in enumerate(zip(small43.adj_i, small43.adj_j)):
        expected[j] += a[k] * w[i]
    expected = (expected + implied_diagonal_loop(small43, a) * w) / small43.omega
    got = fd.act_den(small43, d, a)
    np.testing.assert_allclose(got, expected, atol=0)
    dense = (fd.velocity_matrix(small43, a).T @ w) / small43.omega
    assert np.max(np.abs(got - dense)) <= 1e-14 * np.max(np.abs(dense))


def test_pair_mean():
    m = fd.pair_mean([1.0, 3.0], [0, 0, 1, 1], [0, 1, 0, 1])
    np.testing.assert_allclose(m, [1.0, 2.0, 2.0, 3.0], atol=0)


# ---------------------------------------------------------------------------
# Flat / sharp
# ---------------------------------------------------------------------------


def test_flat_adjacent_coefficient(rhombus):
    a = np.array([1.0, 2.0])  # A_01, A_10
    z = fd.flat(rhombus, a)
    # 2 * Omega * |*h| / |h| = 0.5 on both sides of the rhombus.
    assert z[0, 1] == pytest.approx(0.5 * a[0], rel=1e-13)
    assert z[1, 0] == pytest.approx(0.5 * a[1], rel=1e-13)


def test_flat_two_away_extends_adjacent_entries(jittered, rng):
    a = vf.random_tangent(jittered, rng, velocity_scale=True)
    full = fd.flat(jittered, a)
    adj_only = flat_adjacent(jittered, a)
    assert np.array_equal(full[adjacent(jittered)], adj_only[adjacent(jittered)])
    # The completed entries live strictly off the adjacency pattern.
    off = ~adjacent(jittered) & ~np.eye(jittered.n, dtype=bool)
    assert np.abs(full[off]).max() > 0
    assert np.abs(adj_only[off]).max() == 0


def test_sharp_inverts_flat(jittered, rng):
    a = vf.random_tangent(jittered, rng, velocity_scale=True)
    back = fd.sharp(jittered, fd.flat_p2(jittered, a)[: len(a)])
    np.testing.assert_allclose(back, a, atol=1e-13)


def test_lambda_ignores_two_away_entries(jittered, rng):
    # Lambda takes the one-form on the adjacency list only: read from the
    # full flat (two-away entries included) it equals the step's, from the
    # adjacent entries alone.
    a = vf.random_tangent(jittered, rng)
    z_full = fd.flat(jittered, a)
    np.testing.assert_array_equal(
        fd.lambda_op(jittered, z_full[jittered.adj_i, jittered.adj_j]),
        fd.lambda_op(jittered, fd.flat_pairs(jittered, a)),
    )


def dense_flat(geom, a):
    """The flat solved from the kite relation on a dense matrix: each kite
    triplet reads ``Z_ij`` and ``Z_ki`` there and writes ``Z_jk`` and
    ``Z_kj`` at the first triplet that determines them."""
    z = flat_adjacent(geom, a)
    om = fd.total_vorticity(geom, fd.flat_pairs(geom, a))
    ti, tj, tk = geom.tri_i, geom.tri_j, geom.tri_k
    rhs = geom.tri_kconst * om[geom.tri_node]
    fwd = rhs - z[ti, tj] - z[tk, ti]
    rev = -rhs - z[ti, tk] - z[tj, ti]
    z[geom.ta_row, geom.ta_col] = np.where(geom.ta_sign > 0, fwd[geom.ta_tri], rev[geom.ta_tri])
    return z


@pytest.mark.parametrize("mesh", ["jittered", "gen65", "jittered65"])
def test_the_p2_flat_is_the_dense_flat(mesh, request, rng):
    # On P2 -- the adjacency list, then the two-away list -- the flat holds
    # the bits of the dense kite solve, and the dense flat is their scatter.
    geom = request.getfixturevalue(mesh)
    a = vf.random_tangent(geom, rng, velocity_scale=True)
    want = dense_flat(geom, a)
    rows, cols = np.concatenate([geom.adj_i, geom.ta_row]), np.concatenate([geom.adj_j, geom.ta_col])
    np.testing.assert_array_equal(fd.flat_p2(geom, a), want[rows, cols])
    np.testing.assert_array_equal(fd.flat(geom, a), want)
    np.testing.assert_array_equal(geom.p2_index(rows, cols), np.arange(len(rows)))
    assert np.all(geom.p2_index(np.arange(geom.n), np.arange(geom.n)) == -1)


def test_flat_ambiguity_is_detected():
    # Four triangles around one interior node of degree 4: the smallest
    # configuration where two fan triplets determine one two-away entry.
    # The geometry is not built, so no flat of it is taken.
    text = (
        "5 4\n"
        "0 0\n1.1 -0.06\n1.04 1.03\n-0.07 0.96\n0.54 0.46\n"
        "0 1 4\n1 2 4\n2 3 4\n3 0 4\n"
    )
    mesh = msh.load_mesh(text)
    assert [s.split(" (")[0] for s in msh.inspect_geometry(mesh)[1]] == ["interior node 4 has degree 4 < 5"]
    with pytest.raises(msh.MeshError, match="interior node 4 has degree 4 < 5"):
        msh.compute_geometry(mesh)


def test_degree_six_fans_are_unambiguous(gen65, jittered):
    # P2 holds every pair once: no two-away entry repeats an adjacent one
    # or another two-away one.
    for geom in (gen65, jittered):
        keys = np.concatenate([geom.adj_i, geom.ta_row]) * geom.n + np.concatenate([geom.adj_j, geom.ta_col])
        assert len(np.unique(keys)) == len(keys)
        assert geom.kite_rows.shape == (2, len(geom.ta_row))


# ---------------------------------------------------------------------------
# Vorticity
# ---------------------------------------------------------------------------


def test_total_vorticity_frozen_ring(gen65):
    ring = [0, 1, 7, 14, 19, 13]
    z = np.zeros((gen65.n, gen65.n))
    expected = 0.0
    for t, i in enumerate(ring):
        j = ring[(t + 1) % len(ring)]
        z[i, j] = float(t + 1)
        expected += float(t + 1)
    assert fd.total_vorticity(gen65, z[gen65.adj_i, gen65.adj_j])[8] == pytest.approx(expected, rel=1e-15)


def test_gradients_have_no_interior_vorticity(jittered, rng):
    # Summing exact differences around a closed fan telescopes to zero.
    f = vf.random_function(jittered, rng)
    om = fd.total_vorticity(jittered, fd.d0(jittered, f))
    assert np.abs(om[jittered.ring_cyclic]).max() < 1e-14
    assert np.abs(om[~jittered.ring_cyclic]).max() > 1e-3


def test_wedge_star_is_symmetric(jittered, rng):
    za = fd.flat_p2(jittered, vf.random_tangent(jittered, rng))
    zb = fd.flat_p2(jittered, vf.random_tangent(jittered, rng))
    np.testing.assert_allclose(
        fd.wedge_star(jittered, za, zb), fd.wedge_star(jittered, zb, za), atol=0
    )


# ---------------------------------------------------------------------------
# Projections and Lie derivatives
# ---------------------------------------------------------------------------


def proj_every_pair(lmat):
    """:func:`decflow.fields.proj_P` at every ``(i, j)`` of a dense matrix,
    from its four entries there."""
    diag = np.diagonal(lmat)
    return fd.proj_P(lmat, lmat.T, diag[:, None], diag[None, :])


def test_projections_are_idempotent(rng):
    lmat = rng.normal(size=(6, 6))
    q = lmat - np.diagonal(lmat)[:, None]  # the row-sum-zero projection
    p = proj_every_pair(lmat)
    np.testing.assert_array_equal(p, dense.proj_P(lmat))  # the dense oracle's bits
    np.testing.assert_allclose(proj_every_pair(p), p, atol=1e-15)
    np.testing.assert_allclose(p, -p.T, atol=1e-15)
    # The antisymmetrizer factors through the row-sum-zero projection.
    np.testing.assert_allclose(proj_every_pair(q), p, atol=1e-15)


@pytest.mark.parametrize("mesh", ["jittered", "gen65", "jittered65"])
@pytest.mark.parametrize("field", ["tangent", "algebra"])
def test_the_listed_lie_route_is_the_dense_one(mesh, field, request, rng):
    # P(Omega^-1 [A^T, Omega L]) on the adjacency list, for any A there and
    # any L on P2, against the dense matrix products and the dense P.
    geom = request.getfixturevalue(mesh)
    a = vf.random_tangent(geom, rng) if field == "tangent" else vf.random_algebra(geom, rng)
    lp2 = rng.normal(size=len(geom.adj_i) + len(geom.ta_row))
    lmat = fd.from_pairs(geom, lp2[: len(geom.adj_i)])
    lmat[geom.ta_row, geom.ta_col] = lp2[len(geom.adj_i) :]
    amat, wl = fd.velocity_matrix(geom, a), geom.omega[:, None] * lmat
    want = dense.proj_P((amat.T @ wl - wl @ amat.T) / geom.omega[:, None])[geom.adj_i, geom.adj_j]
    got = fd.lie_deriv_oneform_density(geom, a, lp2)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def lie_deriv_oneform(a, f):
    """Lie derivative of a one-form along a vector field, ``-(A F + F A^T)``
    (the dense oracle for :func:`decflow.fields.lie_deriv_pairs`)."""
    return -(a @ f + f @ a.T)


def lie_deriv_oneform_cartan(a, f):
    """Same Lie derivative through the homotopy (Cartan) formula
    ``-(i_A d F + d0 i_A F)``; agrees with :func:`lie_deriv_oneform` for
    antisymmetric ``F`` and row-sum-zero ``A``.

    Contractions: ``(i_A F)_i = (A F^T)_ii`` and, for the three-index
    ``(dF)_ikj = F_ik + F_kj + F_ji``,
    ``(i_A dF)_ij = sum_k [(dF)_ikj A_ik - (dF)_jki A_jk]``.
    """
    rowsum = a.sum(axis=1)
    iaf = np.einsum("ik,ik->i", a, f)
    # sum_k (F_ik + F_kj + F_ji) A_ik  =  iaf_i + (A F)_ij + F_ji rowsum_i
    iadf = iaf[:, None] + a @ f + f.T * rowsum[:, None]
    # minus sum_k (F_jk + F_ki + F_ij) A_jk (same expression with i <-> j)
    iadf = iadf - iadf.T
    diaf = iaf[None, :] - iaf[:, None]
    return -(iadf + diaf)


def test_lie_derivative_routes_agree(small43, rng):
    # The homotopy-formula route matches the matrix product for
    # antisymmetric one-forms and row-sum-zero fields.
    a = fd.velocity_matrix(small43, vf.random_tangent(small43, rng))
    z = rng.normal(size=(small43.n, small43.n))
    f = z - z.T
    np.testing.assert_allclose(
        lie_deriv_oneform(a, f), lie_deriv_oneform_cartan(a, f), atol=1e-12
    )


@pytest.mark.parametrize("mesh", ["jittered65", "small43", "gen65"])
def test_lie_derivative_on_pairs_is_the_dense_one(mesh, request, rng):
    # Both dense routes are the oracle for the adjacent entries of
    # L_A(A^flat) that the friction power reads.
    geom = request.getfixturevalue(mesh)
    a = vf.random_tangent(geom, rng)
    z = flat_adjacent(geom, a)
    i, j = geom.adj_i, geom.adj_j
    got = fd.lie_deriv_pairs(geom, a, z[i, j])
    dense = fd.velocity_matrix(geom, a)
    for ref in (lie_deriv_oneform(dense, z), lie_deriv_oneform_cartan(dense, z)):
        ref = ref[i, j]
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_a_node_of_degree_3_is_rejected():
    # Around an interior node of degree 3 the three cells are mutually
    # adjacent, which the per-pair Lie derivative leaves out; the widest of
    # them (an angle >= 120 degrees at the node) has a non-positive kite.
    text = "4 3\n0 0\n1 0\n0.5 0.9\n0.5 0.35\n0 1 3\n1 2 3\n2 0 3\n"
    with pytest.raises(msh.MeshError, match="non-positive kite"):
        msh.compute_geometry(msh.load_mesh(text))


def test_momentum_transport_routes_agree(jittered, rng):
    # Weighted-commutator route versus the kite-quadrature assembly,
    # compared where the latter is defined (adjacent entries).
    a = vf.random_tangent(jittered, rng)
    b = vf.random_tangent(jittered, rng)
    d = vf.random_density(jittered, rng)
    lmat = d[np.concatenate([jittered.adj_i, jittered.ta_row])] * fd.flat_p2(jittered, b)  # on P2
    direct = fd.lie_deriv_oneform_density(jittered, a, lmat)
    kite = fd.lie_deriv_oneform_density_kite(jittered, a, b, d)
    assert kite.shape == jittered.adj_i.shape
    assert np.abs(direct - kite).max() <= 1e-12 * np.abs(direct).max()


# ---------------------------------------------------------------------------
# Velocity sampling and reconstruction
# ---------------------------------------------------------------------------


def test_constant_velocity_is_exact(jittered):
    a = fd.init_from_velocity(jittered, lambda p: np.array([1.0, 0.25]), no_slip=False)
    inner = jittered.mesh.interior_cells
    assert np.abs(fd.div(jittered, a)[inner]).max() < 1e-13
    u = fd.reconstruct_velocity(jittered, a)
    np.testing.assert_allclose(u[inner] - [1.0, 0.25], 0.0, atol=1e-13)


def init_from_velocity_loop(geom, u, no_slip):
    """The per-cell loop that :func:`decflow.fields.init_from_velocity`
    replaced."""
    mesh = geom.mesh
    a = np.zeros((geom.n, geom.n))
    for c in range(geom.n):
        for t in range(3):
            d = int(mesh.cell_adjacency[c, t])
            if d < 0:
                continue
            p = mesh.nodes[int(mesh.cells[c, (t + 1) % 3])]
            q = mesh.nodes[int(mesh.cells[c, (t + 2) % 3])]
            edge = q - p
            flux = float(np.asarray(u(0.5 * (p + q))) @ np.array([edge[1], -edge[0]]))
            if no_slip and (mesh.boundary_cells[c] or mesh.boundary_cells[d]):
                flux = 0.0
            a[c, d] = -flux / (2.0 * geom.omega[c])
    np.fill_diagonal(a, -a.sum(axis=1))
    return a


def reconstruct_velocity_loop(geom, a):
    """The per-cell loop that :func:`decflow.fields.reconstruct_velocity`
    replaced."""
    mesh = geom.mesh
    out = np.zeros((geom.n, 2))
    for c in range(geom.n):
        acc = np.zeros(2)
        for t in range(3):
            d = int(mesh.cell_adjacency[c, t])
            if d >= 0:
                acc -= a[c, d] * (geom.circumcenters[c] - mesh.nodes[int(mesh.cells[c, t])])
        out[c] = acc
    return out


@pytest.mark.parametrize("no_slip", [True, False])
def test_velocity_transfer_equals_the_per_cell_loops(jittered65, no_slip):
    u = lambda p: np.array([np.sin(3.0 * p[1]) + 0.3, np.cos(2.0 * p[0]) * p[1]])
    a = fd.init_from_velocity(jittered65, u, no_slip=no_slip)
    loop = init_from_velocity_loop(jittered65, u, no_slip)
    np.testing.assert_array_equal(a, loop[jittered65.adj_i, jittered65.adj_j])
    # Same summation order per cell, so the VTK velocity is byte-identical.
    got = fd.reconstruct_velocity(jittered65, a)
    ref = reconstruct_velocity_loop(jittered65, fd.velocity_matrix(jittered65, a))
    np.testing.assert_array_equal(got, ref)
    assert np.array_equal(np.signbit(got), np.signbit(ref))


def test_init_from_velocity_membership(jittered):
    u = lambda p: np.array([np.sin(p[1]), np.cos(p[0])])
    free = fd.init_from_velocity(jittered, u, no_slip=False)
    # S and the support hold by construction: one value per directed pair,
    # the diagonal implied by the zero row sums.
    assert free.shape == jittered.adj_i.shape
    res = fd.membership_residuals(jittered, free)
    assert res["V"] < 1e-14
    assert res["no_slip"] > 1e-3

    clamped = fd.init_from_velocity(jittered, u, no_slip=True)
    assert fd.membership_residuals(jittered, clamped)["no_slip"] == 0.0


def test_boundary_div_reads_environment_column():
    j = np.zeros((3, 3))
    j[0, 2], j[1, 2] = 0.5, -0.25
    np.testing.assert_allclose(fd.boundary_div(j[:2, 2]), [-1.0, 0.5], atol=0)


def test_sums_over_no_pairs_are_floats():
    # One triangle has no adjacent pairs; np.bincount over no entries gives
    # int64 zeros, which an in-place float update cannot take.
    geom = msh.compute_geometry(msh.load_mesh("3 1\n0 0\n1 0\n0.5 0.8\n0 1 2\n"))
    assert len(geom.adj_i) == 0
    none = np.zeros(0)
    lap = fd.laplace_beltrami(geom, np.array([1.0]), env=0.5)
    np.testing.assert_allclose(lap, 0.5 * geom.boundary_factor / geom.omega, rtol=1e-15)
    for out in (
        lap,
        geom.diagonal(none),
        ph.kinetic_density(geom, none),
        fd.act_fn(geom, none, np.ones(1)),
        fd.total_vorticity(geom, none),
    ):
        assert out.dtype == np.float64
