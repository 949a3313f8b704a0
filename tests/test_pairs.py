"""Forces, friction and conduction on the adjacency list.

The step evaluates these terms per pair of adjacent cells.  The dense
``(N, N)`` formulas they replaced are kept here as the oracle.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from decflow import cli_io as cli
from decflow import fields as fd
from decflow import groups as gr
from decflow import integrator as ig
from decflow import mesh as msh
from decflow import physics as ph
from decflow import verify as vf

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
    j[n, :n] = -geom.omega * j[:n, n] / geom.omega.sum()
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


def step_gradient_forces(geom, flux, d, s):
    """The gradient forces of the step's momentum residual at ``flux``: the
    residual with no transport, old side or viscosity, which add exact
    zeros."""
    stepper = ig.VariationalStepper(geom, GAS, ph.PhysParams(), 1e-3)
    residual, _ = stepper._residual(d, s, np.zeros(stepper.layout.size))
    return residual(flux, lambda a, d: 0.0)[0]


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

    flux = layout.from_matrix(a)
    grad = step_gradient_forces(geom, flux, d, s)
    at_flux = fd.velocity_matrix(geom, layout.to_matrix(flux))
    assert_close(grad, pick(dense_gradient_forces(geom, at_flux, d, s)))
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
    flux = layout.from_matrix(state.a)
    for fn, args in (
        (ph.viscous_force, (geom, state.a, PHYS)),
        (step_gradient_forces, (geom, flux, state.d, state.s)),
        (ph.conduction, (geom, theta, PHYS)),
        (ph.entropy_flux, (geom, theta, PHYS)),
        (ph.friction_power, (geom, state.a, PHYS)),
    ):
        peak = peak_bytes(fn, *args)
        assert peak < geom.n**2, (fn.__name__, peak)


def test_no_velocity_is_dense(jittered980, jittered65):
    # A velocity is one value per directed adjacent pair: building, reading
    # it and its CSR form peak below N^2 bytes on 980 cells.
    geom = jittered980
    state = uneven_state(geom, 0.3)
    layout = ig.FluxLayout.build(geom)
    flux = layout.from_matrix(state.a)
    geom.adjacency_csr  # its index structure is built once per geometry
    u = lambda p: np.array([np.sin(3.0 * p[1]), np.cos(2.0 * p[0])])
    for fn, args in (
        (layout.to_matrix, (flux,)),
        (layout.from_matrix, (state.a,)),
        (fd.velocity_csr, (geom, state.a)),
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


def test_the_field_checks_draw_no_dense_array(jittered980):
    # The identity suite draws its random fields on the adjacency list: each
    # field check peaks below N^2 bytes on 980 cells, except the three whose
    # identity is about a matrix (proj_P, the matrix Lie route, the bracket).
    geom = jittered980
    dense = {"projection-oneform", "advection-kite-formula", "commutator-nonclosure"}
    checks = [(name, fn) for name, _, fn in vf.FIELD_CHECKS if name not in dense]
    assert len(checks) == 16
    for name, fn in checks:
        fn(geom, np.random.default_rng(0))  # the geometry's caches
        peak = peak_bytes(fn, geom, np.random.default_rng(1))
        assert peak < geom.n**2, (name, peak)


def test_a_warm_residual_builds_no_dense_array(jittered980):
    # The series runs on the picks' table: after one warm-up call, a full
    # and a first-order momentum residual each peak below N^2 bytes on 980
    # cells, for both group maps (62 and 46 MB when every term of the dense
    # series made its own arrays).
    geom = jittered980
    state = uneven_state(geom, 0.3)
    for kind in gr.KINDS:
        stepper = ig.VariationalStepper(geom, GAS, PHYS, 1e-3, kind=kind)
        flux = stepper.layout.from_matrix(state.a)
        prev_term = stepper._old_side(state.a, state.d, stepper._transport_term(state.a, state.d))
        residual, _ = stepper._residual(state.d, state.s, prev_term)
        for transport in (stepper._transport_term, stepper._first_order_term):
            residual(flux, transport)
            peak = peak_bytes(residual, flux, transport)
            assert peak < geom.n**2, (kind, transport.__name__, peak)
        assert peak_bytes(stepper._residual, state.d, state.s, prev_term) < geom.n**2


def test_a_newton_matrix_builds_no_dense_array(jittered980):
    # Newton's matrix lives on the stencil: after one warm-up build, a
    # Jacobian, its sparse LU and one solve on 980 cells peak below the
    # F^2 * 8 bytes of a dense (F, F) matrix (13.0 MB for F = 1274).
    state = uneven_state(jittered980, 0.3)
    stepper = ig.VariationalStepper(jittered980, GAS, PHYS, 1e-3)
    flux = stepper.layout.from_matrix(state.a)
    prev_term = stepper._old_side(state.a, state.d, stepper._transport_term(state.a, state.d))
    args = (flux, stepper._residual(state.d, state.s, prev_term)[0])
    stepper._jacobian(*args)

    def build_and_solve():
        ig.lu_solve(ig.lu_factor(stepper._jacobian(*args)[0]), prev_term)

    peak = peak_bytes(build_and_solve)
    assert peak < stepper.layout.size**2 * 8, peak


def test_the_series_builds_below_the_dense_work_arrays(jittered250):
    # Building the sampled series and one full residual on 250 cells peak
    # below the six (N, N) work arrays of the dense series.
    geom = jittered250
    state = uneven_state(geom, 0.3)
    layout = ig.FluxLayout.build(geom)
    flux, zero = layout.from_matrix(state.a), np.zeros(layout.size)
    warm = ig.VariationalStepper(geom, GAS, PHYS, 1e-3)  # the geometry's caches
    warm._residual(state.d, state.s, zero)[0](flux, warm._first_order_term)
    stepper = ig.VariationalStepper(geom, GAS, PHYS, 1e-3)
    peak = peak_bytes(lambda: stepper._residual(state.d, state.s, zero)[0](flux, stepper._transport_term))
    assert stepper._series.depth > 1
    assert peak < 6 * geom.n**2 * 8, peak


def test_a_first_order_residual_reads_no_series_work_array(jittered65):
    # The first-order residual runs on P2 and the picks' rows: with the
    # values of the full series' table NaN, it leaves them NaN and gives
    # the residual of a fresh stepper, whose series is built for one term.
    state = uneven_state(jittered65, 0.3)
    stepper = ig.VariationalStepper(jittered65, GAS, PHYS, 1e-3)
    flux = stepper.layout.from_matrix(state.a)
    prev_term = stepper._old_side(state.a, state.d, stepper._transport_term(state.a, state.d))
    fresh = ig.VariationalStepper(jittered65, GAS, PHYS, 1e-3)
    want = fresh._residual(state.d, state.s, prev_term)[0](flux, fresh._first_order_term)[0]
    series = stepper._series
    terms = series.terms
    series._mat.data.fill(np.nan)
    got = stepper._residual(state.d, state.s, prev_term)[0](flux, stepper._first_order_term)[0]
    np.testing.assert_array_equal(got, want)
    assert np.isnan(series._mat.data).all()
    assert series.terms == terms
    assert series.depth > 1 == fresh._series.depth


# ---------------------------------------------------------------------------
# The sampled series against the dense one
# ---------------------------------------------------------------------------


def series_states(geom, rng):
    """``(a, d, h)``: a random velocity with random density at ``h = -+1e-2``,
    and a stepped state at ``h = -+1e-3``."""
    layout = ig.FluxLayout.build(geom)
    a = layout.to_matrix(rng.normal(size=layout.size))
    a *= 3.0 / np.max(np.abs(a))
    d = 0.5 + rng.random(geom.n)
    stepped = stepped_state(geom, 1e-3)
    return [(a, d, h) for h in (1e-2, -1e-2)] + [(stepped.a, stepped.d, h) for h in (1e-3, -1e-3)]


def dense_picks(stepper, a, d, h, kind="exponential"):
    """The four entries per flux of the dense ``dtau_inv(xi^T, eta)``, ``xi
    = hA`` and ``eta = Omega D A^flat`` scattered from P2 as the sampled
    series reads it; ``kind`` "first-order" cuts the series after ``eta -
    [eta, xi^T]/2``, and "bracket" gives ``[eta, xi^T]``."""
    geom, layout = stepper.geom, stepper.layout
    rows, cols = np.concatenate([geom.adj_i, geom.ta_row]), np.concatenate([geom.adj_j, geom.ta_col])
    lmat = np.zeros((geom.n, geom.n))
    lmat[rows, cols] = fd.flat_p2(geom, a) * d[rows]
    wl = geom.omega[:, None] * lmat
    xi_t = (fd.velocity_csr(geom, a) * h).T
    if kind == "bracket":
        star = gr.commutator(wl, xi_t)
    elif kind == "first-order":
        star = wl - 0.5 * gr.commutator(wl, xi_t)
    else:
        star = gr.dtau_inv(xi_t, wl, kind)
    r, c = layout.rows, layout.cols
    return np.stack([star[r, c], star[c, r], star[r, r], star[c, c]])


@pytest.mark.parametrize("mesh", ["jittered65", "jittered250"])
def test_the_sampled_series_is_the_dense_one_at_the_picks(mesh, request):
    # Bit for bit, for the exponential's K terms, for K = 1 (the first-order
    # term eta - [eta, xi^T]/2, and the bracket alone), and from a structure
    # built for K + 2 or K + 3, whichever ends on a nonzero coefficient; the
    # Cayley tangent to 1e-14 of the largest pick.  A zero last coefficient
    # (B_K = 0 for odd K >= 3) is dropped, so its term is not built.
    geom = request.getfixturevalue(mesh)
    for a, d, h in series_states(geom, np.random.default_rng(11)):
        stepper = ig.VariationalStepper(geom, GAS, PHYS, h)
        eta, xi = stepper._operands(a, d)
        csr = geom.adjacency_csr
        coeffs = gr.dtau_inv_coefficients(csr.rows, csr.cols, xi[csr.take_t], geom.n)
        assert len(coeffs) > 2
        want = dense_picks(stepper, a, d, h)
        np.testing.assert_array_equal(stepper._series(eta, xi, coeffs), want)
        assert stepper._series.depth == len(coeffs) - (coeffs[-1] == 0.0)
        deeper, deep = ig.SampledSeries(stepper.layout), len(coeffs) + 2 + len(coeffs) % 2  # even: B_deep != 0
        deeper(eta, xi, gr._DTAU_INV_COEFFS[:deep])
        assert deeper.depth == deep
        np.testing.assert_array_equal(deeper(eta, xi, coeffs), want)
        np.testing.assert_array_equal(stepper._series(eta, xi, [-0.5]), dense_picks(stepper, a, d, h, "first-order"))
        np.testing.assert_array_equal(stepper._series.bracket(eta, xi), dense_picks(stepper, a, d, h, "bracket"))
        cayley = dense_picks(stepper, a, d, h, "cayley")
        gap = ig.SampledSeries(stepper.layout).cayley(eta, xi) - cayley
        assert np.max(np.abs(gap)) <= 1e-14 * np.max(np.abs(cayley))


def test_a_fresh_series_brackets_as_a_used_one():
    # The bracket loads its operands, and builds the structure, before it
    # reads the picks' rows: its first call gives what it gives after a
    # series call, bit for bit.
    geom = msh.compute_geometry(msh.generate_rect_mesh(4, 3, 1.0, 1.0))
    state = uneven_state(geom, 0.3)
    stepper = ig.VariationalStepper(geom, GAS, PHYS, 1e-2)
    eta, xi = stepper._operands(state.a, state.d)
    used = ig.SampledSeries(stepper.layout)
    used(eta, xi, gr._DTAU_INV_COEFFS[:4])
    fresh = ig.SampledSeries(stepper.layout).bracket(eta, xi)
    assert stepper.layout.size > 0 and np.max(np.abs(fresh)) > 0
    np.testing.assert_array_equal(fresh, used.bracket(eta, xi))


def test_the_step_takes_no_variational_derivatives(jittered65, monkeypatch):
    state = stepped_state(jittered65, 1e-3)
    stepper = ig.VariationalStepper(jittered65, GAS, dataclasses.replace(PHYS, lam=0.01), 1e-3)
    prev = stepper._old_side(state.a, state.d, stepper._transport_term(state.a, state.d))
    flux = stepper.layout.from_matrix(state.a)
    stepper._residual(state.d, state.s, prev)[0](flux, stepper._transport_term)

    def forbidden(*args, **kwargs):
        raise AssertionError("variational_derivatives called")

    monkeypatch.setattr(ph, "variational_derivatives", forbidden)
    stepper._residual(state.d, state.s, prev)[0](flux, stepper._transport_term)
    _, report = stepper.step(state)  # residuals, a Jacobian and the entropy iterations
    assert report.jacobian_builds == 1 and report.entropy_iters > 1
