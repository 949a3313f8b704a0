"""Forces, friction and conduction on the adjacency list.

The step evaluates these terms per pair of adjacent cells.  The dense
``(N, N)`` formulas they replaced are kept here as the oracle.
"""

import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest

from decflow import cli_io as cli
from decflow import fields as fd
from decflow import integrator as ig
from decflow import mesh as msh
from decflow import physics as ph

GAS = ph.GasParams()
PHYS = ph.PhysParams(mu=0.02, zeta=0.01, lam=0.05, theta_env=1.2, insulated=False)


def jittered_strip(nx, ny):
    """The ``nx`` by ``ny`` strip on the unit square with moved interior
    nodes."""
    rng = np.random.default_rng(7)
    return msh.compute_geometry(msh.jitter_mesh(msh.generate_rect_mesh(nx, ny, 1.0, 1.0), 0.15, rng))


@pytest.fixture(scope="module")
def jittered250():
    """Irregular 250-cell mesh (the 12x10 strip)."""
    return jittered_strip(12, 10)


@pytest.fixture(scope="module")
def jittered980():
    """Irregular 980-cell mesh (the 24x20 strip)."""
    return jittered_strip(24, 20)


# ---------------------------------------------------------------------------
# The dense formulas
# ---------------------------------------------------------------------------


def adjacent(geom):
    """The adjacency pattern as a dense boolean mask, from the pair list."""
    return fd.from_pairs(geom, 1.0) > 0


def dense_d0(geom, f):
    return np.where(adjacent(geom), f[None, :] - f[:, None], 0.0)


def dense_mean(f):
    return 0.5 * (f[:, None] + f[None, :])


def dense_kinetic(geom, a):
    return np.einsum("ij,ij->i", fd.from_pairs(geom, geom.flat_coef) * a, a * adjacent(geom))


def dense_gradient_forces(geom, a, d, s):
    _, eps_d, eps_s = ph.internal_energy(d, s, GAS)
    dl_dd = 0.5 * dense_kinetic(geom, a) - eps_d
    return dense_mean(d) * dense_d0(geom, dl_dd) + dense_mean(s) * dense_d0(geom, -eps_s)


def dense_viscous_force(geom, a, phys):
    z = fd.from_pairs(geom, geom.flat_coef) * a
    om = np.zeros(geom.mesh.num_nodes)
    np.add.at(om, geom.pair_node, z[geom.adj_i[geom.pair_adj], geom.adj_j[geom.pair_adj]])
    w = om * geom.star_e
    i, j = geom.adj_i, geom.adj_j
    h_len, star_h_len = fd.from_pairs(geom, geom.h_len), fd.from_pairs(geom, geom.star_h_len)
    lam = np.zeros_like(z)
    lam[i, j] = 0.5 * (w[geom.adj_eplus] - w[geom.adj_eminus]) * (star_h_len[i, j] / h_len[i, j])
    return -phys.mu_tilde * dense_d0(geom, 2.0 * np.diagonal(a)) - 2.0 * phys.mu * lam


def dense_entropy_flux(geom, theta, phys):
    n = geom.n
    j = np.zeros((n + 1, n + 1))
    i, k = geom.adj_i, geom.adj_j
    h_len, star_h_len = fd.from_pairs(geom, geom.h_len), fd.from_pairs(geom, geom.star_h_len)
    sl = -phys.lam
    j[i, k] = sl * (theta[i] - theta[k]) / (theta[i] + theta[k]) * h_len[i, k] / (
        geom.omega[i] * star_h_len[i, k]
    )
    te = phys.theta_env
    j[:n, n] = sl * (theta - te) / (theta + te) * geom.boundary_factor / geom.omega
    j[n, :n] = -geom.omega * j[:n, n] / geom.omega_env
    np.fill_diagonal(j, -j.sum(axis=1))
    return j


def dense_wedge_star(geom, za, zb):
    """``(dZa ^ * dZb)`` per cell from dense one-forms, indexed by the kite
    triplets' cells."""
    ti, tj, tk = geom.tri_i, geom.tri_j, geom.tri_k
    dza = za[ti, tj] + za[tj, tk] + za[tk, ti]
    dzb = zb[ti, tj] + zb[tj, tk] + zb[tk, ti]
    out = np.zeros(geom.n)
    np.add.at(out, ti, 2.0 * geom.tri_w * dza * dzb)
    return out


def dense_friction_power(geom, a, phys):
    diva = 2.0 * np.diagonal(a)
    z = fd.from_pairs(geom, geom.flat_coef) * a
    y = -(a @ z + z @ a.T) - 0.5 * dense_d0(geom, dense_kinetic(geom, a))
    nabla = fd.from_pairs(geom, geom.sharp_coef) * y * adjacent(geom)
    div_nabla = -2.0 * nabla.sum(axis=1)
    two_away = fd.flat(geom, a[geom.adj_i, geom.adj_j])
    return (
        phys.mu_tilde * diva * diva
        + phys.mu * dense_wedge_star(geom, two_away, two_away)
        + 2.0 * phys.mu * div_nabla
        - 2.0 * phys.mu * (a.T @ (geom.omega * diva)) / geom.omega
    )


# ---------------------------------------------------------------------------
# Per pair against dense
# ---------------------------------------------------------------------------


def uneven_state(geom, amp):
    """A vortex of amplitude ``amp`` with uneven density and temperature."""
    state = cli.initial_condition_presets("taylor-like", {"amplitude": str(amp)}, geom, GAS)
    x = geom.circumcenters
    state.d = 1.0 + 0.2 * np.sin(3.0 * x[:, 0]) * np.cos(2.0 * x[:, 1])
    theta = 1.0 + 0.3 * np.cos(4.0 * x[:, 0] + x[:, 1])
    state.s = ph.entropy_from_temperature(state.d, theta, GAS)
    return state


def stepped_state(geom, h):
    """One variational step at ``h`` from :func:`uneven_state`, or the
    uneven rest state for ``h = 0``.  The step leaves conduction out: its
    fixed point stalls at ``h = 0.1``."""
    state = uneven_state(geom, 0.0 if h == 0.0 else 0.3)
    if h == 0.0:
        return state
    return ig.VariationalStepper(geom, GAS, dataclasses.replace(PHYS, lam=0.0), h).step(state)[0]


def assert_close(got, ref, rel=1e-14):
    assert np.max(np.abs(got - ref)) <= rel * np.max(np.abs(ref))


@pytest.mark.parametrize("h", [0.0, 1e-3, 1e-2, 1e-1])
@pytest.mark.parametrize("mesh", ["jittered65", "jittered250"])
def test_per_pair_terms_equal_the_dense_formulas(mesh, h, request):
    geom = request.getfixturevalue(mesh)
    st = stepped_state(geom, h)
    a, d, s = st.a, st.d, st.s
    dense = fd.velocity_matrix(geom, a)
    layout = ig.FluxLayout.build(geom)
    pick = lambda m: m[layout.rows, layout.cols]

    grad = ig._gradient_forces(geom, layout, a, d, s, GAS)
    assert_close(grad, pick(dense_gradient_forces(geom, dense, d, s)))
    visc = ph.viscous_force(geom, a, PHYS)[layout.pos]
    if h == 0.0:
        assert np.all(visc == 0.0)
    else:
        assert_close(visc, pick(dense_viscous_force(geom, dense, PHYS)))
        assert_close(ph.friction_power(geom, a, PHYS), dense_friction_power(geom, dense, PHYS))

    theta = ph.temperature(d, s, GAS)
    jmat = dense_entropy_flux(geom, theta, PHYS)
    div_j, theta_j, bnd = ph.conduction(geom, theta, PHYS)
    assert_close(div_j, 2.0 * np.diagonal(jmat)[: geom.n])
    assert_close(theta_j, -(jmat @ np.append(theta, PHYS.theta_env))[: geom.n])
    assert_close(bnd, -2.0 * jmat[: geom.n, geom.n])


def test_dense_operators_are_scatters_of_the_pairs(jittered65, rng):
    geom = jittered65
    i, j = geom.adj_i, geom.adj_j
    st = stepped_state(geom, 1e-2)
    theta = ph.temperature(st.d, st.s, GAS)
    jp, col = ph.entropy_flux(geom, theta, PHYS)
    jmat = dense_entropy_flux(geom, theta, PHYS)
    np.testing.assert_array_equal(jp, jmat[i, j])
    np.testing.assert_array_equal(col, jmat[: geom.n, geom.n])
    dense = fd.velocity_matrix(geom, st.a)
    np.testing.assert_array_equal(ph.viscous_force(geom, st.a, PHYS), dense_viscous_force(geom, dense, PHYS)[i, j])
    f = rng.normal(size=geom.n)
    np.testing.assert_array_equal(fd.d0(geom, f), dense_d0(geom, f)[i, j])
    np.testing.assert_array_equal(fd.pair_mean(f, i, j), dense_mean(f)[i, j])


# ---------------------------------------------------------------------------
# What the step calls
# ---------------------------------------------------------------------------


def peak_bytes(fn, *args):
    """The ``tracemalloc`` peak of one call."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_step_builds_no_dense_force(jittered980):
    # Each force and heating kernel the step runs peaks below N^2 bytes on
    # 980 cells; one dense (N, N) float array takes 8 N^2.
    geom = jittered980
    assert geom.n == 980
    state = uneven_state(geom, 0.3)
    layout = ig.FluxLayout.build(geom)
    theta = ph.temperature(state.d, state.s, GAS)
    for fn, args in (
        (ph.viscous_force, (geom, state.a, PHYS)),
        (ig._gradient_forces, (geom, layout, state.a, state.d, state.s, GAS)),
        (ph.conduction, (geom, theta, PHYS)),
        (ph.entropy_flux, (geom, theta, PHYS)),
        (ph.friction_power, (geom, state.a, PHYS)),
    ):
        peak = peak_bytes(fn, *args)
        assert peak < geom.n**2, (fn.__name__, peak)


def test_no_velocity_is_dense(jittered980, jittered65):
    # A velocity is one value per directed adjacent pair: building, loading
    # and reading it peaks below N^2 bytes on 980 cells.
    geom = jittered980
    state = uneven_state(geom, 0.3)
    layout = ig.FluxLayout.build(geom)
    flux = layout.from_matrix(state.a)
    geom.adjacency_csr  # its index structure is built once per geometry
    u = lambda p: np.array([np.sin(3.0 * p[1]), np.cos(2.0 * p[0])])
    for fn, args in (
        (layout.to_matrix, (flux,)),
        (layout.from_matrix, (state.a,)),
        (geom.adjacency_csr.load, (state.a, -1e-3)),
        (ph.kinetic_density, (geom, state.a)),
        (ph.viscous_force, (geom, state.a, PHYS)),
        (fd.act_den, (geom, state.d, state.a)),
        (fd.init_from_velocity, (geom, u)),
    ):
        peak = peak_bytes(fn, *args)
        assert peak < geom.n**2, (fn.__name__, peak)

    for name in cli.PRESETS:
        assert cli.initial_condition_presets(name, {}, geom, GAS).a.shape == geom.adj_i.shape
    assert stepped_state(jittered65, 1e-3).a.shape == jittered65.adj_i.shape


def test_a_warm_residual_builds_no_dense_array(jittered980):
    # The series runs in the stepper's work arrays: after one warm-up call,
    # a full and a first-order momentum residual each peak below N^2 bytes
    # on 980 cells (62 and 46 MB when every term made its own arrays).
    geom = jittered980
    state = uneven_state(geom, 0.3)
    stepper = ig.VariationalStepper(geom, GAS, PHYS, 1e-3)
    flux = stepper.layout.from_matrix(state.a)
    prev_term = stepper._old_side(state.a, state.d, stepper._transport_term(state.a, state.d))
    for transport in (stepper._transport_term, stepper._first_order_term):
        residual = functools.partial(stepper._residual_and_transport, flux, state.d, state.s, prev_term, transport)
        residual()
        peak = peak_bytes(residual)
        assert peak < geom.n**2, (transport.__name__, peak)


def test_a_first_order_residual_reads_no_series_work_array(jittered65):
    # The first-order residual runs on P2 and four entries per flux: with
    # every array of the stepper's SeriesWork NaN, it leaves them NaN and
    # gives the residual of a fresh stepper.
    state = uneven_state(jittered65, 0.3)
    stepper = ig.VariationalStepper(jittered65, GAS, PHYS, 1e-3)
    flux = stepper.layout.from_matrix(state.a)
    prev_term = stepper._old_side(state.a, state.d, stepper._transport_term(state.a, state.d))
    fresh = ig.VariationalStepper(jittered65, GAS, PHYS, 1e-3)
    want = fresh._residual_and_transport(flux, state.d, state.s, prev_term, fresh._first_order_term)[0]
    work = stepper._work
    terms = work.terms
    arrays = [work.operand, work.term, work.next, work.total, work.scratch, work.transposed]
    for x in arrays:
        x.fill(np.nan)
    got = stepper._residual_and_transport(flux, state.d, state.s, prev_term, stepper._first_order_term)[0]
    np.testing.assert_array_equal(got, want)
    assert all(np.isnan(x).all() for x in arrays)
    assert work.terms == terms


def test_the_step_takes_no_variational_derivatives(jittered65, monkeypatch):
    state = stepped_state(jittered65, 1e-3)
    stepper = ig.VariationalStepper(jittered65, GAS, dataclasses.replace(PHYS, lam=0.01), 1e-3)
    prev = stepper._old_side(state.a, state.d, stepper._transport_term(state.a, state.d))
    flux = stepper.layout.from_matrix(state.a)
    stepper._residual_and_transport(flux, state.d, state.s, prev, stepper._transport_term)

    def forbidden(*args, **kwargs):
        raise AssertionError("variational_derivatives called")

    monkeypatch.setattr(ph, "variational_derivatives", forbidden)
    stepper._residual_and_transport(flux, state.d, state.s, prev, stepper._transport_term)
    _, report = stepper.step(state)  # residuals, a Jacobian and the entropy iterations
    assert report.jacobian_builds == 1 and report.entropy_iters > 1
