"""Flux layout, semi-discrete right-hand side, and the implicit stepper."""

import dataclasses

import numpy as np
import pytest
from scipy import sparse

from decflow import cli_io
from decflow import diagnostics as dg
from decflow import fields as fd
from decflow import groups as gr
from decflow import integrator as ig
from decflow import mesh as msh
from decflow import physics as ph

import dense_groups as dense
import rk4_reference as rk4

GAS = ph.GasParams()
INVISCID = ph.PhysParams(mu=0.0, zeta=0.0, lam=0.0, insulated=True)


def rest_state(geom):
    return ph.FluidState(np.zeros(len(geom.adj_i)), np.ones(geom.n), np.zeros(geom.n))


def shear_state(geom, amp=0.3):
    a = fd.init_from_velocity(
        geom, lambda p: np.array([amp * np.sin(2 * np.pi * p[1]), 0.0]), no_slip=True
    )
    return ph.FluidState(a, np.ones(geom.n), np.zeros(geom.n))


def taylor_state(geom):
    return cli_io.initial_condition_presets("taylor-like", {"amplitude": "0.3"}, geom, GAS)


def assert_same_step(got, want):
    """Two ``(state, report)`` results of ``step``, byte for byte."""
    (state, report), (want_state, want_report) = got, want
    for field in ("a", "d", "s"):
        assert getattr(state, field).tobytes() == getattr(want_state, field).tobytes()
    assert report.friction_power.tobytes() == want_report.friction_power.tobytes()
    assert dataclasses.replace(report, friction_power=None) == dataclasses.replace(want_report, friction_power=None)


# ---------------------------------------------------------------------------
# Flux layout
# ---------------------------------------------------------------------------


def test_layout_size_frozen(gen65, rhombus):
    assert ig.FluxLayout.build(gen65).size == 52
    # Every rhombus cell touches the boundary: no free fluxes at all.
    assert ig.FluxLayout.build(rhombus).size == 0


def test_layout_roundtrip_and_membership(gen65, rng):
    layout = ig.FluxLayout.build(gen65)
    flux = rng.normal(size=layout.size)
    a = layout.to_matrix(flux)
    assert a.shape == gen65.adj_i.shape
    np.testing.assert_allclose(layout.from_matrix(a), flux, rtol=1e-14)
    res = fd.membership_residuals(gen65, a)  # S and the support by construction
    assert res["V"] < 1e-15
    assert res["no_slip"] == 0.0


def test_momentum_vector_values(gen65, rng):
    layout = ig.FluxLayout.build(gen65)
    a = layout.to_matrix(rng.normal(size=layout.size))
    d = 0.5 + rng.random(gen65.n)
    m = rk4.momentum_vector(gen65, layout, a, d)
    z = fd.flat(gen65, a)
    np.testing.assert_array_equal(m, fd.pair_mean(d, layout.rows, layout.cols) * z[layout.rows, layout.cols])


def test_pick_P_reads_four_entries_per_flux(jittered65, rng):
    layout = ig.FluxLayout.build(jittered65)
    m = rng.normal(size=(jittered65.n, jittered65.n))
    omega = jittered65.omega
    ones = np.ones(jittered65.n)
    r, c = layout.rows, layout.cols
    np.testing.assert_array_equal(dense.pick_P(layout, m, ones), fd.proj_P(m)[r, c])
    np.testing.assert_array_equal(dense.pick_P(layout, m, omega), fd.proj_P(m / omega[:, None])[r, c])


@pytest.mark.parametrize("h", [1e-3, 1e-1])
@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("mesh", ["jittered65", "gen65"])
def test_the_sampled_first_order_transport_equals_the_dense_one(mesh, sign, h, request):
    # eta on P2 and the bracket at four entries per flux give what the dense
    # eta - [eta, xi^T]/2 gives at those entries, and the old side's bracket.
    geom = request.getfixturevalue(mesh)
    stepper = ig.VariationalStepper(geom, GAS, INVISCID, h)
    a = taylor_state(geom).a
    d = 1.0 + 0.2 * np.sin(3.0 * geom.circumcenters[:, 0]) * np.cos(2.0 * geom.circumcenters[:, 1])
    zero = np.zeros(stepper.layout.size)
    want = dense.first_order_transport(stepper.layout, a, d, h, sign)
    # eta and xi are both linear in a: the cut at -hA is minus the cut at +hA of -a
    got = sign * stepper._first_order_term(sign * a, d)
    assert np.max(np.abs(want)) > 0
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    want = dense.old_side(stepper.layout, a, d, h, zero)
    got = stepper._old_side(a, d, zero)
    assert np.max(np.abs(want)) > 0
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    # at rest both vanish exactly
    rest = np.zeros_like(a)
    assert np.all(stepper._first_order_term(rest, d) == 0.0)
    assert np.all(stepper._old_side(rest, d, zero) == 0.0)


# ---------------------------------------------------------------------------
# Semi-discrete system
# ---------------------------------------------------------------------------


def test_rhs_vanishes_at_rest(gen65):
    layout = ig.FluxLayout.build(gen65)
    mdot, ddot, sdot = rk4.semi_discrete_rhs(gen65, rest_state(gen65), GAS, INVISCID, layout)
    np.testing.assert_array_equal(mdot, 0.0)
    np.testing.assert_array_equal(ddot, 0.0)
    np.testing.assert_array_equal(sdot, 0.0)


def test_rk4_preserves_mass(gen65):
    state = shear_state(gen65)
    mass0 = np.sum(gen65.omega * state.d)
    for _ in range(10):
        state = rk4.rk4_step(gen65, state, 1e-3, GAS, INVISCID)
    assert np.sum(gen65.omega * state.d) == pytest.approx(mass0, rel=1e-12)


# ---------------------------------------------------------------------------
# Variational stepper
# ---------------------------------------------------------------------------


def test_rest_is_a_fixed_point(gen65):
    stepper = ig.VariationalStepper(gen65, GAS, INVISCID, h=1e-2)
    state = rest_state(gen65)
    for _ in range(20):
        state, report = stepper.step(state)
        assert report.newton_iters == 0
    np.testing.assert_array_equal(state.a, 0.0)
    np.testing.assert_array_equal(state.d, 1.0)
    np.testing.assert_array_equal(state.s, 0.0)


@pytest.mark.parametrize("kind", ["exponential", "cayley"])
def test_mass_is_conserved(gen65, kind):
    phys = ph.PhysParams(mu=0.01, zeta=0.0, lam=0.01, insulated=True)
    stepper = ig.VariationalStepper(gen65, GAS, phys, h=1e-3, kind=kind)
    state = shear_state(gen65)
    mass0 = np.sum(gen65.omega * state.d)
    drift = 0.0
    for _ in range(100):
        state, _ = stepper.step(state)
        drift = max(drift, abs(np.sum(gen65.omega * state.d) - mass0))
    assert drift < 1e-12 * mass0


def test_entropy_never_decreases(gen65):
    phys = ph.PhysParams(mu=0.01, zeta=0.0, lam=0.01, insulated=True)
    stepper = ig.VariationalStepper(gen65, GAS, phys, h=1e-3)
    state = shear_state(gen65)
    total = np.sum(gen65.omega * state.s)
    for _ in range(100):
        state, _ = stepper.step(state)
        new = np.sum(gen65.omega * state.s)
        assert new >= total - 1e-12
        total = new


def test_friction_drains_kinetic_energy(gen65):
    phys = ph.PhysParams(mu=0.05, zeta=0.0, lam=0.0, insulated=True)
    stepper = ig.VariationalStepper(gen65, GAS, phys, h=1e-3)
    state = shear_state(gen65)
    kin0 = 0.5 * np.sum(gen65.omega * state.d * ph.kinetic_density(gen65, state.a))
    for _ in range(200):
        state, _ = stepper.step(state)
    kin = 0.5 * np.sum(gen65.omega * state.d * ph.kinetic_density(gen65, state.a))
    assert kin < 0.8 * kin0


def test_step_history_matches_run(gen65):
    phys = ph.PhysParams(mu=0.01, zeta=0.0, lam=0.0, insulated=True)
    by_run = ig.VariationalStepper(gen65, GAS, phys, h=1e-3).run(shear_state(gen65), 5)
    state = shear_state(gen65)
    stepper = ig.VariationalStepper(gen65, GAS, phys, h=1e-3)
    for _ in range(5):
        state, _ = stepper.step(state)
    np.testing.assert_array_equal(by_run.a, state.a)
    np.testing.assert_array_equal(by_run.d, state.d)
    np.testing.assert_array_equal(by_run.s, state.s)


def test_observer_sees_the_initial_state(gen65):
    stepper = ig.VariationalStepper(gen65, GAS, INVISCID, h=1e-3)
    seen = []
    stepper.run(shear_state(gen65), 3, observer=lambda k, t, s, r: seen.append((k, t, r)))
    assert [k for k, _, _ in seen] == [0, 1, 2, 3]
    np.testing.assert_allclose([t for _, t, _ in seen], [0.0, 1e-3, 2e-3, 3e-3], atol=1e-18)
    assert seen[0][2].newton_iters == 0 and seen[0][2].entropy_iters == 0
    assert seen[1][2].newton_iters > 0


def test_solver_failure_names_the_step(gen65):
    stepper = ig.VariationalStepper(gen65, GAS, INVISCID, h=1e-3, newton_max=1)
    with pytest.raises(ig.IntegratorError, match="step 1: momentum solve stalled"):
        stepper.run(shear_state(gen65), 3)


def test_uniform_heating_raises_energy_at_the_injected_rate(gen65):
    rate = 0.8
    heat = np.full(gen65.n, rate)
    stepper = ig.VariationalStepper(gen65, GAS, INVISCID, h=1e-4, heat_source=heat)
    state = rest_state(gen65)
    e0 = dg.total_energy(gen65, state, GAS)
    steps = 50
    for _ in range(steps):
        state, _ = stepper.step(state)
    # Uniform heating of a uniform rest state stays at rest...
    np.testing.assert_array_equal(state.a, 0.0)
    # ...and deposits (sum Omega D R) per unit time, up to O(h).
    e1 = dg.total_energy(gen65, state, GAS)
    expected = steps * 1e-4 * np.sum(gen65.omega * state.d * rate)
    assert e1 - e0 == pytest.approx(expected, rel=5e-3)


def test_one_group_action_per_direction_per_step(gen65, monkeypatch):
    calls = []
    action = ig.gr.tau_action
    monkeypatch.setattr(
        ig.gr,
        "tau_action",
        lambda rows, cols, vals, n, kind="exponential": calls.append(vals.copy()) or action(rows, cols, vals, n, kind),
    )
    monkeypatch.setattr(ig.gr, "tau", None)  # the element itself is never formed
    stepper = ig.VariationalStepper(gen65, GAS, ph.PhysParams(mu=0.01, lam=0.01), h=1e-3)
    state = shear_state(gen65)
    csr = gen65.adjacency_csr
    for k in range(1, 4):
        state, report = stepper.step(state)
        assert report.entropy_iters > 1  # the iterations apply no action
        assert len(calls) == k  # tau(-h A), once per step
        assert np.any(calls[-1])
        np.testing.assert_array_equal(calls[-1], np.concatenate([state.a, gen65.diagonal(state.a)])[csr.take] * -1e-3)


TAU_ACTION = gr.tau_action


class TwoActionStepper(ig.VariationalStepper):
    """The reference entropy solve: the same equation, with the conduction
    term moved by ``tau(h A)`` and back by ``tau(-h A)``, together with the
    constant part, on every iteration.  ``calls`` holds the entries of every
    ``tau_action`` call; the last is the step's action of ``tau(-h A)``."""

    calls: list

    def _solve_entropy(self, back, d_old, s_old, d_new, theta_old, fric):
        rows, cols, vals, n = self.calls[-1]
        fwd = TAU_ACTION(rows, cols, -vals, n, self.kind)
        geom, phys, gas, h = self.geom, self.phys, self.gas, self.h
        rhs_const = h * fric - h * ph.conduction(geom, theta_old, phys)[1]
        if self.heat_source is not None:
            rhs_const = rhs_const + h * d_old * self.heat_source
        rhs_const = s_old + rhs_const / theta_old
        s, prev_delta = s_old.copy(), np.inf
        for it in range(1, self.entropy_max + 1):
            div_j = ph.conduction(geom, ph.temperature(d_new, s, gas), phys)[0]
            s_next = fd.group_act_den(geom, rhs_const - h * fd.group_act_den(geom, div_j, fwd), back)
            delta = float(np.max(np.abs(s_next - s)))
            if delta <= self.entropy_tol * max(1.0, float(np.max(np.abs(s_next)))):
                return s_next, it
            if delta >= prev_delta:
                s_next = 0.5 * (s_next + s)
            prev_delta, s = delta, s_next
        raise ig.IntegratorError("entropy fixed point stalled")


@pytest.mark.parametrize("kind", gr.KINDS)
def test_the_entropy_solve_equals_the_two_action_one(gen65, monkeypatch, kind):
    # tau(-hA) = tau(hA)^-1, so moving the conduction term there and back
    # changes only the rounding.
    calls = []
    monkeypatch.setattr(
        gr, "tau_action", lambda rows, cols, vals, n, kind="exponential": calls.append((rows, cols, vals, n)) or TAU_ACTION(rows, cols, vals, n, kind)
    )
    phys = ph.PhysParams(mu=0.01, lam=0.01)
    stepper = ig.VariationalStepper(gen65, GAS, phys, h=1e-3, kind=kind)
    reference = TwoActionStepper(gen65, GAS, phys, h=1e-3, kind=kind)
    reference.calls = calls
    state = want = shear_state(gen65)
    for _ in range(20):
        state, report = stepper.step(state)
        want, want_report = reference.step(want)
        assert report.entropy_iters == want_report.entropy_iters
        assert np.max(np.abs(state.s - want.s)) <= 1e-12 * np.max(np.abs(want.s))


def full_residual(stepper, flux, d, s, prev_term):
    """The momentum residual that Newton drives down, on the full series."""
    return stepper._residual(d, s, prev_term)[0](flux, stepper._transport_term)[0]


def old_side(stepper, a, d):
    """The old-side transport of ``a`` with the density ``d``, as a step
    takes it for a velocity the stepper did not return."""
    return stepper._old_side(a, d, stepper._transport_term(a, d))


def test_residuals_construct_no_sparse_arrays(jittered65, monkeypatch):
    # The CSR index structure is built at the first residual and the stencil
    # and its coloring at the first Jacobian; afterwards a residual, or a
    # whole step without a build, only refreshes the cached arrays' data, and
    # a Jacobian constructs its one CSC array, which SuperLU factors as it is.
    phys = ph.PhysParams(mu=0.01, zeta=0.0, lam=0.01, insulated=True)
    stepper = ig.VariationalStepper(jittered65, GAS, phys, h=1e-3)
    state = shear_state(jittered65)
    flux = stepper.layout.from_matrix(state.a)
    prev_term = old_side(stepper, state.a, state.d)
    first = full_residual(stepper, flux, state.d, state.s, prev_term)
    # the first Jacobian builds the stencil and its coloring
    jac, _ = stepper._jacobian(flux, stepper._residual(state.d, state.s, prev_term)[0])
    new, _ = stepper.step(state)  # so that the step below starts warm

    built = []
    for cls in (sparse.csr_array, sparse.csc_array, sparse.coo_array):
        init = cls.__init__
        monkeypatch.setattr(
            cls, "__init__", lambda self, *args, _init=init, **kw: built.append(self) or _init(self, *args, **kw)
        )
    residual, _ = stepper._residual(state.d, state.s, prev_term)
    again = residual(flux, stepper._transport_term)[0]
    np.testing.assert_array_equal(again, first)
    assert built == []
    # a second Jacobian reuses the cached stencil and coloring
    second, _ = stepper._jacobian(flux, residual)
    assert len(built) == 1 and built[0] is second and second.format == "csc"
    np.testing.assert_array_equal(second.toarray(), jac.toarray())
    ig.lu_factor(second)
    assert len(built) == 1
    built.clear()
    _, report = stepper.step(new)
    assert report.jacobian_builds == 0
    assert built == []


def test_residuals_look_up_no_pairs(jittered65, monkeypatch):
    # The layout holds both positions of every flux pair, so once it and the
    # CSR structure are built, no assembly searches the adjacency list.
    phys = ph.PhysParams(mu=0.01, zeta=0.0, lam=0.01, insulated=True)
    stepper = ig.VariationalStepper(jittered65, GAS, phys, h=1e-3)
    state = shear_state(jittered65)
    flux = stepper.layout.from_matrix(state.a)
    prev_term = old_side(stepper, state.a, state.d)
    first = full_residual(stepper, flux, state.d, state.s, prev_term)

    def refuse(self, i, j):
        raise AssertionError("pair lookup after the build")

    monkeypatch.setattr(msh.MeshGeometry, "pair_index", refuse)
    np.testing.assert_array_equal(stepper.layout.from_matrix(state.a), flux)
    np.testing.assert_array_equal(full_residual(stepper, flux, state.d, state.s, prev_term), first)
    stepper.step(state)


def test_step_reports_solver_effort(gen65):
    phys = ph.PhysParams(mu=0.01, zeta=0.0, lam=0.01, insulated=True)
    stepper = ig.VariationalStepper(gen65, GAS, phys, h=1e-3)
    new, report = stepper.step(shear_state(gen65))
    assert report.jacobian_builds == 1
    fd_residuals = report.residual_evals - (report.newton_iters + 1)
    assert 0 < fd_residuals < 2 * stepper.layout.size
    # the report carries the new state's friction power for the observer
    np.testing.assert_array_equal(report.friction_power, ph.friction_power(gen65, new.a, phys))


def test_the_report_counts_the_colors(gen65):
    # A build costs one residual pair per color, on top of Newton's residuals.
    phys = ph.PhysParams(mu=0.01, zeta=0.0, lam=0.01, insulated=True)
    stepper = ig.VariationalStepper(gen65, GAS, phys, h=1e-3)
    state, report = stepper.step(shear_state(gen65))
    assert report.jacobian_builds == 1
    assert report.colors == stepper._colors[1].max() + 1 > 0
    assert report.residual_evals == report.newton_iters + 1 + 2 * report.colors * report.jacobian_builds
    _, report = stepper.step(state)
    assert (report.jacobian_builds, report.colors) == (0, 0)
    assert report.residual_evals == report.newton_iters + 1


@pytest.mark.parametrize("kind", gr.KINDS)
def test_a_step_evaluates_the_closure_once_for_all_its_residuals(gen65, monkeypatch, kind):
    # Within a step only the fluxes move, so the residual takes the closure of
    # (D, S) from one evaluation, which also gives the old temperature: one
    # call per entropy iteration, one for the new temperature, and that one.
    phys = ph.PhysParams(mu=0.01, zeta=0.0, lam=0.01)
    stepper = ig.VariationalStepper(gen65, GAS, phys, h=1e-3, kind=kind)
    calls, energy = [], ph.internal_energy
    monkeypatch.setattr(ph, "internal_energy", lambda *args: calls.append(args) or energy(*args))
    state, reports = shear_state(gen65), []
    for _ in range(4):
        calls.clear()
        state, report = stepper.step(state)
        reports.append(report)
        assert len(calls) == report.entropy_iters + 2, report
    assert reports[0].jacobian_builds == 1 and reports[0].residual_evals > 2 * reports[0].colors > 0
    assert all(r.residual_evals > 1 for r in reports)


@pytest.mark.parametrize("kind", gr.KINDS)
def test_the_report_counts_the_series_terms(gen65, monkeypatch, kind):
    # series_terms sums the term count K of every full residual, recorded by
    # wrapping the guard that fixes it; the carried old side and the
    # first-order residuals of the Jacobian build fix none.
    counts = []
    guard = gr._series_terms

    def traced_guard(*entries):
        counts.append(guard(*entries))
        return counts[-1]

    monkeypatch.setattr(gr, "_series_terms", traced_guard)
    phys = ph.PhysParams(mu=0.01, zeta=0.0, lam=0.01)
    state = taylor_state(gen65)
    stepper = ig.VariationalStepper(gen65, GAS, phys, h=1e-3, kind=kind)
    for _ in range(2):
        counts.clear()
        cold = stepper.carry is None
        state, report = stepper.step(state)
        assert report.series_terms == sum(counts)
        # one K per full residual: Newton's, plus the cold start's transport
        assert len(counts) == (kind == "exponential") * (report.newton_iters + 1 + cold)
    assert (report.series_terms > 0) == (kind == "exponential")


def test_a_step_from_rest_computes_no_series_term(gen65):
    # |hA| = 0 fixes every series at no term
    stepper = ig.VariationalStepper(gen65, GAS, INVISCID, h=1e-3)
    state = rest_state(gen65)
    for _ in range(2):
        state, report = stepper.step(state)
        assert report.series_terms == 0


def test_a_singular_forward_action_is_a_range_error(gen65, monkeypatch):
    # The step's one action, of tau(-hA), is built in the step's
    # GroupMapError block.
    calls = []

    def refuse(rows, cols, vals, n, kind="exponential"):
        calls.append(vals.copy())
        raise gr.GroupMapError("cayley map is singular: 2 is an eigenvalue of xi")

    monkeypatch.setattr(gr, "tau_action", refuse)
    stepper = ig.VariationalStepper(gen65, GAS, INVISCID, h=1e-3, kind="cayley")
    with pytest.raises(ig.SeriesRangeError, match="cayley map is singular: 2 is an eigenvalue"):
        stepper.step(shear_state(gen65))
    assert len(calls) == 1 and np.any(calls[0])
    assert stepper.carry is None


def plant_a_stale_matrix(stepper):
    """Swap the carried LU for the one of a cold shear step at ``1.25 h``.
    Newton's matrix per unit density scales as ``1/h`` to leading order, so
    on the stepper's ``h`` the chord contracts by about ``1/4`` per
    iteration: stale, but not enough for an in-step rebuild."""
    other = ig.VariationalStepper(stepper.geom, stepper.gas, stepper.phys, 1.25 * stepper.h, stepper.kind)
    other.step(shear_state(stepper.geom))
    stepper.carry = dataclasses.replace(stepper.carry, lu=other.carry.lu)


@pytest.mark.parametrize("kind", gr.KINDS)
def test_the_matrix_per_unit_density_stays_fresh(gen65, kind):
    # The density moves by tens of percent over these 120 steps, but the
    # matrix per unit density barely ages: one build, and the chord takes
    # at most 3 iterations a step.
    phys = ph.PhysParams(mu=0.01, zeta=0.0, lam=0.01, insulated=True)
    stepper = ig.VariationalStepper(gen65, GAS, phys, h=1e-3, kind=kind)
    state, reports = shear_state(gen65), []
    for _ in range(120):
        state, report = stepper.step(state)
        reports.append(report)
    assert sum(r.jacobian_builds for r in reports) == 1
    assert max(r.newton_iters for r in reports) <= 3


@pytest.mark.parametrize("kind", gr.KINDS)
def test_newton_stops_on_the_balance_not_per_unit_density(gen65, kind):
    # Newton's updates are per unit density, its stopping test is not: at a
    # density of 50 the returned fluxes leave max|r| <= newton_tol of the
    # balance formed from the dense series, where max|r / Dbar| <= newton_tol
    # would stop 50 times short.
    phys = ph.PhysParams(mu=0.01, zeta=0.0, lam=0.01, insulated=True)
    stepper = ig.VariationalStepper(gen65, GAS, phys, h=1e-3, kind=kind, newton_tol=1e-7)
    shear = shear_state(gen65)
    state = ph.FluidState(shear.a, 50.0 * shear.d, shear.s)
    new, report = stepper.step(state)
    layout, h, d = stepper.layout, stepper.h, state.d
    r = (
        -dense.old_side_series(layout, new.a, d, -h, kind)  # the transport at +hA
        - dense.old_side_series(layout, state.a, d, h, kind)
        + rk4.gradient_forces(gen65, layout, new.a, d, state.s, GAS)
        - ph.viscous_force(gen65, new.a, phys)[layout.pos]
    )
    assert report.newton_iters > 0
    assert np.max(np.abs(r)) <= stepper.newton_tol


@pytest.mark.parametrize("kind", ["exponential", "cayley"])
def test_a_stale_matrix_is_rebuilt_once_the_iterations_double(gen65, kind):
    # The matrix per unit density barely ages on this shear, so a stale one
    # is planted after step 5.
    phys = ph.PhysParams(mu=0.01, zeta=0.0, lam=0.01, insulated=True)
    stepper = ig.VariationalStepper(gen65, GAS, phys, h=1e-3, kind=kind)
    state, reports = shear_state(gen65), []
    for k in range(1, 121):
        state, report = stepper.step(state)
        reports.append(report)
        if k == 5:
            plant_a_stale_matrix(stepper)
    builds = [k for k, r in enumerate(reports) if r.jacobian_builds]
    assert builds[0] == 0 and len(builds) > 1
    for start, end in zip(builds, builds[1:] + [len(reports)]):
        fresh = reports[start + 1].newton_iters  # the first step wholly on the new matrix
        over = [k for k in range(start + 2, end) if reports[k].newton_iters > 2 * max(fresh, 1)]
        # the one step past twice the fresh count is the last before the next build
        assert over == ([end - 1] if end < len(reports) else [])


def test_a_fresh_count_of_zero_allows_two_iterations(gen65):
    # A state at rest converges at its first residual on a new matrix, so
    # its fresh count is 0.  A carry with that count keeps its matrix through
    # steps of two iterations, 2 * max(0, 1), and drops it at three.
    phys = ph.PhysParams(mu=0.01, zeta=0.0, lam=0.01, insulated=True)
    strong = ig.VariationalStepper(gen65, GAS, phys, h=1e-3)
    _, first = strong.step(shear_state(gen65))
    lu = strong.carry.lu
    stepper = ig.VariationalStepper(gen65, GAS, phys, h=1e-3)
    state, _ = stepper.step(shear_state(gen65, amp=1e-6))
    stepper.carry = dataclasses.replace(stepper.carry, lu=lu, fresh=0)
    reports = []
    for _ in range(10):
        # start Newton from the incoming fluxes, not the extrapolation
        stepper.carry = dataclasses.replace(stepper.carry, flux_from=stepper.carry.flux)
        state, report = stepper.step(state)
        reports.append(report)
        assert stepper.carry.lu is lu and stepper.carry.fresh == 0
    assert first.jacobian_builds == 1
    assert [r.newton_iters for r in reports] == [2] * 10
    assert sum(r.jacobian_builds for r in reports) == 0
    assert ig._refresh(stepper.carry, ig.StepReport(newton_iters=3), lu) == (None, 0)


@pytest.mark.parametrize("kind", gr.KINDS)
def test_the_carried_old_side_equals_the_series(jittered65, monkeypatch, kind):
    # Every step's old side, the cold first one included, is the transport at
    # +hA plus one bracket: it equals the dense series at -hA.  The carry
    # holds the next one: the returned velocity's, with the density the step
    # started from.
    phys = ph.PhysParams(mu=0.01, zeta=0.0, lam=0.01)
    stepper = ig.VariationalStepper(jittered65, GAS, phys, h=1e-3, kind=kind)
    state = taylor_state(jittered65)
    prev_terms, residual = [], stepper._residual
    monkeypatch.setattr(stepper, "_residual", lambda d, s, prev: prev_terms.append(prev) or residual(d, s, prev))
    d_prev = state.d
    for step in range(1, 7):
        series = dense.old_side_series(stepper.layout, state.a, d_prev, stepper.h, kind)
        d_prev = state.d
        state, _ = stepper.step(state)
        assert len(prev_terms) == step
        assert np.max(np.abs(prev_terms[-1] - series)) <= 1e-13 * np.max(np.abs(series))
        carried = dense.old_side_series(stepper.layout, state.a, d_prev, stepper.h, kind)
        assert np.max(np.abs(stepper.carry.old_side - carried)) <= 1e-13 * np.max(np.abs(carried))


@pytest.mark.parametrize("kind", gr.KINDS)
def test_a_copy_of_the_output_gets_the_carried_old_side(jittered65, monkeypatch, kind):
    # The carry is keyed by the fluxes of the returned velocity, so a copy
    # hits it: its step computes no transport before Newton, and its old
    # side is the original's bit for bit.
    class Stop(Exception):
        pass

    phys = ph.PhysParams(mu=0.01, zeta=0.0, lam=0.01)
    stepper = ig.VariationalStepper(jittered65, GAS, phys, h=1e-3, kind=kind)
    state, _ = stepper.step(taylor_state(jittered65))
    prev_terms, residual, solve = [], stepper._residual, stepper._solve_momentum
    transport, seen = stepper._transport_term, []
    monkeypatch.setattr(stepper, "_transport_term", lambda a, d: seen.append(a) or transport(a, d))
    monkeypatch.setattr(stepper, "_residual", lambda d, s, prev: prev_terms.append(prev) or residual(d, s, prev))

    def stop_the_copy(*args):
        if len(prev_terms) % 2:  # the copy's step stops here and changes nothing
            raise Stop
        return solve(*args)

    monkeypatch.setattr(stepper, "_solve_momentum", stop_the_copy)
    for _ in range(5):
        with pytest.raises(Stop):
            stepper.step(ph.FluidState(state.a.copy(), state.d, state.s))
        assert seen == []
        state, _ = stepper.step(state)
        seen.clear()
        np.testing.assert_array_equal(prev_terms[-2], prev_terms[-1])


def test_a_copy_of_the_output_steps_as_the_output(jittered65):
    phys = ph.PhysParams(mu=0.01, zeta=0.0, lam=0.01)
    mine, copies = (ig.VariationalStepper(jittered65, GAS, phys, h=1e-3) for _ in range(2))
    state = copied = taylor_state(jittered65)
    for _ in range(5):
        want = mine.step(state)
        got = copies.step(ph.FluidState(copied.a.copy(), copied.d.copy(), copied.s.copy()))
        assert_same_step(got, want)
        state, copied = want[0], got[0]


@pytest.mark.parametrize("restart", ["foreign-velocity", "no-carry"])
def test_a_cold_start_steps_as_a_new_stepper(jittered65, restart):
    phys = ph.PhysParams(mu=0.01, zeta=0.0, lam=0.01)
    stepper = ig.VariationalStepper(jittered65, GAS, phys, h=1e-3)
    state = taylor_state(jittered65)
    for _ in range(3):
        state, _ = stepper.step(state)
    if restart == "foreign-velocity":
        state = shear_state(jittered65)
    else:
        stepper.carry = None
    want = ig.VariationalStepper(jittered65, GAS, phys, h=1e-3).step(state)
    assert_same_step(stepper.step(state), want)


def test_the_stepper_carries_one_value(jittered65):
    # Between steps only the carry changes, besides the two caches built at
    # the first use on the geometry.
    stepper = ig.VariationalStepper(jittered65, GAS, ph.PhysParams(mu=0.01, zeta=0.0, lam=0.01), h=1e-3)
    before, missing = dict(vars(stepper)), object()
    state = taylor_state(jittered65)
    for _ in range(3):
        state, _ = stepper.step(state)
    after = vars(stepper)
    changed = {k for k in before.keys() | after.keys() if before.get(k, missing) is not after.get(k, missing)}
    assert changed == {"carry", "_series", "_colors"}


def test_a_failed_step_leaves_the_carried_state(gen65, monkeypatch):
    # The old side, the previous fluxes, the LU and the fresh count change
    # only when a step returns, so repeating a failed call gives the bits of
    # a stepper that never failed.  Step 3 fails after the momentum solve,
    # and so do the step whose refresh drops the LU and the two steps that
    # build one (1 and drops + 1), whose LU must be thrown away.  Both runs
    # go stale by the matrix planted after step 5.
    phys = ph.PhysParams(mu=0.01, zeta=0.0, lam=0.01, insulated=True)
    stepper = ig.VariationalStepper(gen65, GAS, phys, h=1e-3)
    state, expected = shear_state(gen65), []
    for k in range(1, 21):
        state, report = stepper.step(state)
        expected.append((state, report))
        if k == 5:
            plant_a_stale_matrix(stepper)
    # the second build comes at index k, i.e. step k + 1, because step k dropped the LU
    drops = [k for k, (_, r) in enumerate(expected) if r.jacobian_builds][1]
    assert drops > 3

    stepper = ig.VariationalStepper(gen65, GAS, phys, h=1e-3)
    solve, fail = stepper._solve_entropy, []

    def flaky(*args):
        if fail:
            fail.pop()
            raise ig.StateRangeError("injected")
        return solve(*args)

    monkeypatch.setattr(stepper, "_solve_entropy", flaky)
    state = shear_state(gen65)
    for k, (want, want_report) in enumerate(expected[: drops + 2], start=1):
        if k in (1, 3, drops, drops + 1):
            fail.append(k)
            carry = stepper.carry
            with pytest.raises(ig.StateRangeError, match="injected"):
                stepper.step(state)
            assert stepper.carry is carry
        state, report = stepper.step(state)
        assert_same_step((state, report), (want, want_report))
        if k == 5:
            plant_a_stale_matrix(stepper)


def test_a_singular_newton_matrix_is_a_range_error(gen65, monkeypatch):
    # SuperLU refuses an exactly singular matrix: the step names it in one
    # error and keeps its carry, rather than solving on to a NaN update.
    phys = ph.PhysParams(mu=0.01, zeta=0.0, lam=0.01, insulated=True)
    stepper = ig.VariationalStepper(gen65, GAS, phys, h=1e-3)
    state, _ = stepper.step(shear_state(gen65))
    carry = stepper.carry = dataclasses.replace(stepper.carry, lu=None)  # the next step builds
    near = ig._stencil(stepper.layout)
    zero = sparse.csc_array((np.zeros(near.nnz), near.indices, near.indptr), shape=near.shape)
    monkeypatch.setattr(stepper, "_jacobian", lambda *args: (zero, 2))
    with pytest.raises(ig.StateRangeError, match="Newton matrix is singular; reduce the time step"):
        stepper.step(state)
    assert stepper.carry is carry


def test_the_carried_start_saves_newton_iterations(gen65):
    # The same 30 shear steps, once from the extrapolated fluxes and once
    # from the incoming ones (a carry whose previous fluxes are its own): the
    # extrapolated start saves iterations, and both runs solve the same
    # equations.
    phys = ph.PhysParams(mu=0.01, zeta=0.0, lam=0.01, insulated=True)
    carried, cold = (ig.VariationalStepper(gen65, GAS, phys, h=1e-3) for _ in range(2))
    mine = theirs = shear_state(gen65)
    iters = [0, 0]
    for _ in range(30):
        mine, report = carried.step(mine)
        iters[0] += report.newton_iters
        if cold.carry is not None:
            cold.carry = dataclasses.replace(cold.carry, flux_from=cold.carry.flux)
        theirs, report = cold.step(theirs)
        iters[1] += report.newton_iters
    assert iters[0] < iters[1]
    for field in ("a", "d", "s"):
        want = getattr(theirs, field)
        assert np.max(np.abs(getattr(mine, field) - want)) <= 1e-9 * np.max(np.abs(want))


def test_a_returned_velocity_is_writeable(gen65):
    # The carry is keyed by value, so a velocity changed in place after it
    # was returned misses it: its step is a new stepper's, byte for byte.
    stepper = ig.VariationalStepper(gen65, GAS, INVISCID, h=1e-3)
    state, _ = stepper.step(shear_state(gen65))
    assert state.a.flags.writeable
    state.a *= 2.0
    want = ig.VariationalStepper(gen65, GAS, INVISCID, h=1e-3).step(state)
    assert_same_step(stepper.step(state), want)


def test_range_failure_keeps_its_subclass_through_run(gen65):
    stepper = ig.VariationalStepper(gen65, GAS, INVISCID, h=0.5)
    with pytest.raises(ig.SeriesRangeError, match="step 1: tangent-map series"):
        stepper.run(shear_state(gen65, amp=30.0), 1)


# ---------------------------------------------------------------------------
# Colored finite-difference Jacobian
# ---------------------------------------------------------------------------


def dense_jacobian(stepper, flux, residual, transport=None):
    """The column-by-column central difference of the step's ``residual`` on
    ``transport``; by default the first-order one, which the colored build
    replaces."""
    transport = transport or stepper._first_order_term
    m = stepper.layout.size
    jac = np.empty((m, m))
    base = np.maximum(np.abs(flux), 1.0)
    for p in range(m):
        dp = 1e-7 * base[p]
        fp = flux.copy()
        fp[p] += dp
        rp = residual(fp, transport)[0]
        fp[p] -= 2 * dp
        rm = residual(fp, transport)[0]
        jac[:, p] = (rp - rm) / (2 * dp)
    return jac


def jacobian_setup(geom, h, amp):
    """A viscous, conducting stepper, and the fluxes of a shear flow with the
    residual at varying density and entropy."""
    phys = ph.PhysParams(mu=0.01, zeta=0.0, lam=0.01, insulated=True)
    stepper = ig.VariationalStepper(geom, GAS, phys, h=h)
    state = shear_state(geom, amp)
    d = 1.0 + 0.1 * np.cos(np.arange(geom.n))
    s = 0.05 * np.sin(np.arange(geom.n))
    prev_term = old_side(stepper, state.a, d)
    return stepper, (stepper.layout.from_matrix(state.a), stepper._residual(d, s, prev_term)[0])


@pytest.mark.parametrize("h", [1e-3, 1e-2, 1e-1])
def test_colored_jacobian_matches_the_dense_one(jittered65, h):
    stepper, args = jacobian_setup(jittered65, h, amp=0.3)
    colored, dense = stepper._jacobian(*args)[0].toarray(), dense_jacobian(stepper, *args)
    assert np.max(np.abs(colored - dense)) <= 1e-9 * np.max(np.abs(dense))


def test_colored_jacobian_at_rest_keeps_the_whole_fans(jittered65):
    # No flow: the order-1 term has no derivative, but Lambda still couples
    # the fluxes three apart around a degree-6 node.
    stepper, args = jacobian_setup(jittered65, 1e-3, amp=0.0)
    colored, evals = stepper._jacobian(*args)
    dense = dense_jacobian(stepper, *args)
    np.testing.assert_array_equal(colored.toarray(), dense)
    assert evals < 2 * len(dense)


def test_first_order_jacobian_is_close_to_the_full_one(jittered65):
    # The series past order 1 adds O(|hA|^2) relative to the Newton matrix.
    stepper, args = jacobian_setup(jittered65, 1e-3, amp=0.3)
    colored, full = stepper._jacobian(*args)[0].toarray(), dense_jacobian(stepper, *args, stepper._transport_term)
    assert np.max(np.abs(colored - full)) <= 1e-5 * np.max(np.abs(full))


@pytest.mark.parametrize("h", [1e-3, 1e-1])
def test_jacobian_build_takes_a_residual_pair_per_color(jittered65, h):
    stepper, args = jacobian_setup(jittered65, h, amp=0.3)
    color = ig._coloring(ig._stencil(stepper.layout))
    assert stepper._jacobian(*args)[1] == 2 * (color.max() + 1) == 2 * 16


def flux_distances(layout):
    """All-pairs flux-graph distances by breadth-first search (two fluxes
    are adjacent when they share a cell)."""
    m = layout.size
    ends = [{int(i), int(j)} for i, j in zip(layout.rows, layout.cols)]
    dist = np.full((m, m), m)
    for p in range(m):
        dist[p, p] = 0
        frontier = [p]
        while frontier:
            nxt = []
            for q in frontier:
                for r in range(m):
                    if dist[p, r] == m and ends[q] & ends[r]:
                        dist[p, r] = dist[p, q] + 1
                        nxt.append(r)
            frontier = nxt
    return dist


@pytest.fixture(scope="module")
def degree8():
    """One interior node of degree 8 (24 cells, 16 fluxes): a center, eight
    ring nodes at radius 1 and eight outer nodes at radius 2 rotated by
    pi/8, with cells (0, a, b), (a, o_a, b) and (b, o_a, o_next)."""
    turn = 2 * np.pi * np.arange(8) / 8
    circle = lambda angle: np.c_[np.cos(angle), np.sin(angle)]
    nodes = np.concatenate([[[0.0, 0.0]], circle(turn), 2 * circle(turn + np.pi / 8)])
    ring, outer = 1 + np.arange(8), 9 + np.arange(8)
    nxt = np.roll(np.arange(8), -1)
    cells = np.concatenate(
        [
            np.c_[np.zeros(8, int), ring, ring[nxt]],
            np.c_[ring, outer, ring[nxt]],
            np.c_[ring[nxt], outer, outer[nxt]],
        ]
    )
    text = "\n".join(
        [f"{len(nodes)} {len(cells)}"]
        + [f"{x!r} {y!r}" for x, y in nodes.tolist()]
        + [f"{i} {j} {k}" for i, j, k in cells.tolist()]
    )
    return msh.compute_geometry(msh.load_mesh(text))


@pytest.fixture(scope="module")
def strip8x2():
    """Two rows of eight: its interior fluxes form a disconnected graph."""
    return msh.compute_geometry(msh.generate_rect_mesh(8, 2, 1.0, 1.0))


@pytest.fixture(scope="module")
def rect3x2():
    """Three columns of two rows: two interior fluxes."""
    return msh.compute_geometry(msh.generate_rect_mesh(3, 2, 1.0, 1.0))


def random_setup(geom):
    """A viscous, conducting stepper, and random fluxes with the residual at
    a random density and entropy."""
    phys = ph.PhysParams(mu=0.01, zeta=0.02, lam=0.01, insulated=True)
    stepper = ig.VariationalStepper(geom, GAS, phys, h=1e-3)
    rng = np.random.default_rng(3)
    flux = 0.3 * rng.normal(size=stepper.layout.size)
    d = 1.0 + 0.1 * rng.random(geom.n)
    s = 0.05 * rng.normal(size=geom.n)
    prev_term = old_side(stepper, stepper.layout.to_matrix(flux), d)
    return stepper, (flux, stepper._residual(d, s, prev_term)[0])


@pytest.mark.parametrize("mesh", ["jittered65", "degree8", "strip8x2"])
def test_the_stencil_is_what_the_first_order_residual_reads(mesh, request):
    # Equal, not a subset: a change to what the residual reads must change
    # the stencil with it.
    stepper, args = random_setup(request.getfixturevalue(mesh))
    reads = dense_jacobian(stepper, *args) != 0
    np.testing.assert_array_equal(ig._stencil(stepper.layout).toarray() > 0, reads)


@pytest.mark.parametrize("mesh", ["jittered65", "degree8", "strip8x2", "rect3x2"])
def test_colored_jacobian_is_the_column_by_column_one(mesh, request):
    # The strips' flux graphs are disconnected, yet fluxes that only meet at
    # a node still share rows.
    stepper, args = random_setup(request.getfixturevalue(mesh))
    colored, evals = stepper._jacobian(*args)
    np.testing.assert_array_equal(colored.toarray(), dense_jacobian(stepper, *args))
    assert evals == 2 * (stepper._colors[1].max() + 1)
    # a CSC array on the stencil's pattern, every stored entry written
    near = ig._stencil(stepper.layout)
    assert colored.format == "csc" and np.all(np.isfinite(colored.data))
    np.testing.assert_array_equal(colored.indptr, near.indptr)
    np.testing.assert_array_equal(colored.indices, near.indices)
    # past |f| = 1 each column divides by its own step
    wide = (30 * args[0], *args[1:])
    np.testing.assert_array_equal(stepper._jacobian(*wide)[0].toarray(), dense_jacobian(stepper, *wide))


def test_a_strip_solves_in_one_newton_iteration_per_step(strip8x2):
    state = cli_io.initial_condition_presets("taylor-like", {"amplitude": "1"}, strip8x2, GAS)
    phys = ph.PhysParams(mu=0.05, lam=0.01, insulated=True)
    stepper = ig.VariationalStepper(strip8x2, GAS, phys, h=1e-3)
    iters = []
    stepper.run(state, 50, observer=lambda k, t, st, report: k and iters.append(report.newton_iters))
    assert iters == [1] * 50


# jittered65 cases use the fluxes within flux-graph distance ``reach`` of
# each column, identified by the reach alone; the others are named by mesh
# and reach, or by mesh for the residual's stencil (reach None).
COLORING_CASES = (
    [pytest.param("jittered65", r, id=str(r)) for r in (1, 3, 4)]
    + [pytest.param(mesh, r, id=f"{mesh}-{r}") for mesh in ("degree8", "strip8x2") for r in (1, 4)]
    + [pytest.param(mesh, None, id=f"{mesh}-stencil") for mesh in ("jittered65", "degree8", "strip8x2")]
)


@pytest.mark.parametrize("mesh, reach", COLORING_CASES)
def test_coloring_keeps_colors_apart(mesh, reach, request):
    layout = ig.FluxLayout.build(request.getfixturevalue(mesh))
    if reach is None:
        near = ig._stencil(layout)
    else:
        near = sparse.csr_array((flux_distances(layout) <= reach).astype(np.int32))
    color = ig._coloring(near)
    # every flux gets one of the colors 0 .. count - 1, each of them used
    count = color.max() + 1
    assert color.shape == (layout.size,) and color.dtype.kind == "i"
    np.testing.assert_array_equal(np.unique(color), np.arange(count))
    owners = np.repeat(np.arange(layout.size), np.diff(near.indptr))
    pattern = np.zeros((layout.size, layout.size), dtype=bool)
    for c in range(count):
        # the rows one color's columns reach are distinct
        mine = color[owners] == c
        rows = near.indices[mine]
        assert len(np.unique(rows)) == len(rows)
        pattern[rows, owners[mine]] = True
    np.testing.assert_array_equal(pattern, near.toarray() > 0)
    # columns that share a color share no row, and columns can share a
    # color only if some pair shares no row
    apart = (near @ near).toarray() == 0
    same = color[:, None] == color[None, :]
    assert np.all(apart[same & ~np.eye(layout.size, dtype=bool)])
    assert (count < layout.size) == bool(np.any(apart))
