"""Group difference maps and their trivialized tangents."""

import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from decflow import fields as fd
from decflow import groups as gr
from decflow import integrator as ig
from decflow import mesh as msh
from decflow import verify as vf

import dense_groups as dense


def small_matrix(seed, n=5, norm=0.3):
    rng = np.random.default_rng(seed)
    xi = rng.normal(size=(n, n))
    return norm * xi / np.linalg.norm(xi, 2)


@pytest.mark.parametrize("kind", gr.KINDS)
def test_nilpotent_map_is_exact(kind):
    # xi^2 = 0 collapses both the exponential and the Cayley map to I + xi.
    xi = np.array([[0.0, 1.0], [0.0, 0.0]])
    np.testing.assert_allclose(gr.tau(xi, kind), [[1.0, 1.0], [0.0, 1.0]], atol=1e-15)


@pytest.mark.parametrize("kind", gr.KINDS)
def test_tau_of_zero_is_identity(kind):
    np.testing.assert_array_equal(gr.tau(np.zeros((4, 4)), kind), np.eye(4))


@pytest.mark.parametrize("kind", gr.KINDS)
def test_tau_inverse(kind):
    xi = small_matrix(3)
    q = gr.tau(xi, kind)
    np.testing.assert_allclose(q @ gr.tau(-xi, kind), np.eye(5), atol=1e-13)


@pytest.mark.parametrize("kind", gr.KINDS)
def test_dtau_at_zero_is_identity_map(kind):
    delta = small_matrix(5)
    zero = sparse.csr_array((5, 5))
    np.testing.assert_allclose(gr.dtau(zero, delta, kind), delta, atol=1e-15)
    np.testing.assert_allclose(gr.dtau_inv(zero, delta, kind), delta, atol=1e-15)


@pytest.mark.parametrize("kind", gr.KINDS)
def test_dtau_roundtrip(kind):
    xi, delta = sparse.csr_array(small_matrix(7)), small_matrix(8)
    eta = gr.dtau(xi, delta, kind)
    np.testing.assert_allclose(gr.dtau_inv(xi, eta, kind), delta, atol=1e-13)


def test_commutator():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = sparse.csr_array([[0.0, 0.0], [1.0, 0.0]])
    np.testing.assert_array_equal(gr.commutator(a, b), [[1.0, 0.0], [0.0, -1.0]])


def random_csr(geom, rng):
    """The CSR ``xi`` of a random velocity (:func:`decflow.fields.velocity_csr`),
    scaled to ``max |xi| <= 0.05``; its ``.T`` is a CSC."""
    a = rng.normal(size=len(geom.adj_i))
    xi = fd.velocity_csr(geom, a) * (0.05 / np.max(np.abs(a)))
    assert (xi.format, xi.T.format) == ("csr", "csc")
    return xi


def entries(x):
    """The stored entries of a dense ``x`` as :func:`decflow.groups.tau_action`
    and :func:`decflow.groups.norm_bound` take them."""
    return gr._entries(sparse.csr_array(x))


def test_the_commutator_runs_scipys_kernel(jittered65, rng):
    # Bit for bit the two products SciPy's ``@`` makes, for a CSR ``b`` and
    # for its ``.T``, a CSC.
    a = rng.normal(size=(jittered65.n, jittered65.n))
    b = random_csr(jittered65, rng)
    np.testing.assert_array_equal(gr.commutator(a, b), (b.T @ a.T).T - b @ a)
    np.testing.assert_array_equal(gr.commutator(a, b.T), (b @ a.T).T - b.T @ a)
    # a size mismatch raises
    with pytest.raises(ValueError):
        gr.commutator(a[:-1, :-1], b)


@pytest.mark.parametrize("kind", gr.KINDS)
def test_work_arrays_give_the_same_bits(jittered65, rng, kind):
    # The sampled series keeps its term array and the values of its CSRs
    # between calls: after calls at other arguments, and after a bracket,
    # a call gives the bits of a fresh series.
    geom = jittered65
    layout = ig.FluxLayout.build(geom)
    p2_rows = np.concatenate([geom.adj_i, geom.ta_row])

    def operands(scale):
        a = layout.to_matrix(rng.normal(size=layout.size))
        xi = np.concatenate([a, geom.diagonal(a)]) * (0.05 / np.max(np.abs(a)))
        return fd.flat_p2(geom, scale * a) * geom.omega[p2_rows], xi

    def evaluate(series, eta, xi):
        return series.cayley(eta, xi) if kind == "cayley" else series(eta, xi, gr._DTAU_INV_COEFFS[:6])

    used = ig.SampledSeries(layout)
    for eta, xi in [operands(scale) for scale in (1.0, 3.0, 0.5)]:
        want = evaluate(ig.SampledSeries(layout), eta, xi)
        np.testing.assert_array_equal(evaluate(used, eta, xi), want)
        used.bracket(eta, 2.0 * xi)
        np.testing.assert_array_equal(evaluate(used, eta, xi), want)


def test_calls_without_work_arrays_return_fresh_arrays(jittered65, rng):
    # The verify checks compare two such results.
    omega, xi = jittered65.omega, random_csr(jittered65, rng)
    eta = rng.normal(size=(jittered65.n, jittered65.n))
    for call in (
        lambda: gr.commutator(eta, xi),
        lambda: gr.dtau_inv(xi, eta),
        lambda: gr.dtau_inv_star(omega, xi, eta),
    ):
        first, second = call(), call()
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, eta)


def count_terms(monkeypatch):
    """``calls[0]`` counts the commutators of the dense series from here on."""
    calls, bracket = [0], gr._bracket

    def counted(*args):
        calls[0] += 1
        return bracket(*args)

    monkeypatch.setattr(gr, "_bracket", counted)
    return calls


def test_dtau_inv_star_is_the_pairing_adjoint():
    rng = np.random.default_rng(11)
    omega = 0.5 + rng.random(6)
    xi = sparse.csr_array(small_matrix(12, n=6))
    lmat = rng.normal(size=(6, 6))
    bmat = rng.normal(size=(6, 6))
    for kind in gr.KINDS:
        lhs = np.trace(gr.dtau_inv(xi, bmat, kind).T @ (omega[:, None] * lmat))
        rhs = np.trace(bmat.T @ (omega[:, None] * gr.dtau_inv_star(omega, xi, lmat, kind)))
        assert lhs == pytest.approx(rhs, rel=1e-12)


# ---------------------------------------------------------------------------
# Failure modes
# ---------------------------------------------------------------------------


def test_unknown_kind_is_rejected():
    with pytest.raises(gr.GroupMapError, match="unknown group map kind"):
        gr.tau(np.zeros((2, 2)), "pade")


def test_series_guard_rejects_large_arguments():
    x = np.eye(3) * 1.5
    xi = sparse.csr_array(x)
    with pytest.raises(gr.GroupMapError, match="reduce the time step"):
        gr.dtau(xi, x, "exponential")
    with pytest.raises(gr.GroupMapError, match="reduce the time step"):
        gr.dtau_inv(xi, x, "exponential")


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
    norm=st.floats(0.0, 2.0),
)
def test_series_guard_raises_iff_the_spectral_norm_reaches_one(seed, n, norm):
    xi = small_matrix(seed, n, norm)
    raised = False
    try:
        gr.dtau_inv(sparse.csr_array(xi), xi, "exponential")
    except gr.GroupMapError:
        raised = True
    assert raised == (np.linalg.norm(xi, 2) >= 1.0)


def test_series_guard_looks_past_a_loose_bound():
    # A scaled rotation: |xi|_1 = |xi|_inf = 0.9 sqrt(2) >= 1 > 0.9 = |xi|_2.
    c = 0.9 / np.sqrt(2.0)
    x = np.array([[c, -c], [c, c]])
    xi = sparse.csr_array(x)
    assert gr.norm_bound(*gr._entries(xi)) >= 1.0
    gr.dtau_inv(xi, x, "exponential")
    with pytest.raises(gr.GroupMapError, match=r"got 1\.111e\+00; reduce the time step"):
        gr.dtau_inv(xi / 0.81, x, "exponential")


# Nonzero Bernoulli numbers B_0 .. B_24 (B_1 = -1/2); the odd ones past B_1 vanish.
BERNOULLI = {
    0: Fraction(1),
    1: Fraction(-1, 2),
    2: Fraction(1, 6),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
    14: Fraction(7, 6),
    16: Fraction(-3617, 510),
    18: Fraction(43867, 798),
    20: Fraction(-174611, 330),
    22: Fraction(854513, 138),
    24: Fraction(-236364091, 2730),
}


def test_bernoulli_numbers_are_correctly_rounded():
    assert len(gr._BERNOULLI) == 25
    for n, b in enumerate(gr._BERNOULLI):
        assert b == float(BERNOULLI.get(n, 0))


def test_importing_the_cli_skips_scipy_special():
    code = "import sys, decflow.cli_io; print('scipy.special' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_cayley_singularity():
    # I - xi/2 is singular for tau, and I -+ xi/2 for dtau, which solves with both
    with pytest.raises(gr.GroupMapError, match="cayley map is singular: 2 is an eigenvalue"):
        gr.tau(np.diag([2.0, 0.0]), "cayley")
    for value in ("2", "-2"):
        xi = sparse.csr_array(np.diag([float(value), 0.0]))
        with pytest.raises(gr.GroupMapError, match=f"cayley map is singular: {value} is an eigenvalue"):
            gr.dtau(xi, np.ones((2, 2)), "cayley")


def test_a_cayley_factor_whose_determinant_underflows_is_regular():
    # det(I - xi/2) = 0.05^300 underflows to 0, though the factor is 0.05 I
    np.testing.assert_allclose(gr.tau(1.9 * np.eye(300), "cayley"), 39.0 * np.eye(300), rtol=1e-14)
    # (I + xi/2) eta (I - xi/2) solves nothing: det(I - xi/2) = 0.25^600
    xi = sparse.csr_array(1.5 * np.eye(600))
    np.testing.assert_array_equal(gr.dtau_inv(xi, np.eye(600), "cayley"), 0.4375 * np.eye(600))


# ---------------------------------------------------------------------------
# Identities used by the integrator (shared with the randomized suite)
# ---------------------------------------------------------------------------


# ---------------------------------------------------------------------------
# Action of the group element on vectors
# ---------------------------------------------------------------------------


def mesh_velocity(geom):
    """A no-slip velocity on the adjacency list."""
    return fd.init_from_velocity(
        geom,
        lambda p: np.array([0.3 * np.sin(2 * np.pi * p[1]), 0.2 * np.cos(2 * np.pi * p[0])]),
        no_slip=True,
    )


def dense_velocity(geom):
    """The dense matrix of :func:`mesh_velocity`, rows summing to zero."""
    return fd.velocity_matrix(geom, mesh_velocity(geom))


def step_entries(geom, a, h, transpose=False):
    """``xi = h A`` as the step passes it to the group functions: the values
    of ``xi`` (or ``xi^T``) at the stored entries of
    :class:`decflow.mesh.AdjacencyCSR`, from its values on ``[pairs,
    diagonal]``."""
    csr = geom.adjacency_csr
    xi = np.concatenate([a, geom.diagonal(a)]) * h
    return csr.rows, csr.cols, xi[csr.take_t if transpose else csr.take], geom.n


@pytest.mark.parametrize("h", [1e-3, 1e-2, 1e-1])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_tau_action_matches_the_dense_transpose(jittered65, rng, h, sign):
    xi = sign * h * dense_velocity(jittered65)
    act = gr.tau_action(*step_entries(jittered65, mesh_velocity(jittered65), sign * h))
    qt = gr.tau(xi).T
    for _ in range(5):
        w = rng.normal(size=jittered65.n)
        ref = qt @ w
        assert np.max(np.abs(act(w) - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("h", [1e-3, 1e-2, 1e-1])
def test_tau_action_conserves_the_weighted_total(jittered65, rng, h):
    act = gr.tau_action(*step_entries(jittered65, mesh_velocity(jittered65), -h))
    omega = jittered65.omega
    for _ in range(5):
        d = 0.5 + rng.random(jittered65.n)
        moved = fd.group_act_den(jittered65, d, act)
        assert abs(omega @ moved - omega @ d) <= 1e-15 * (omega @ d)


def test_tau_action_past_unit_norm_is_split_into_steps(rng):
    # |xi|_1 = 3.5: four factors exp(xi^T / 4), each within the unit ball.
    xi = rng.normal(size=(6, 6))
    xi *= 3.5 / np.abs(xi).sum(axis=0).max()
    w = rng.normal(size=6)
    ref = gr.tau(xi).T @ w
    act = gr.tau_action(*entries(xi))
    np.testing.assert_allclose(act(w), ref, rtol=0, atol=1e-14 * np.abs(ref).max())


def test_tau_action_of_zero_is_identity(rng):
    w = rng.normal(size=4)
    np.testing.assert_array_equal(gr.tau_action(*entries(np.zeros((4, 4))))(w), w)


def test_cayley_action_is_the_dense_transpose(jittered65, rng):
    xi = 1e-2 * dense_velocity(jittered65)
    w = rng.normal(size=jittered65.n)
    np.testing.assert_array_equal(
        gr.tau_action(*step_entries(jittered65, mesh_velocity(jittered65), 1e-2), "cayley")(w),
        gr.tau(xi, "cayley").T @ w,
    )


def test_tau_action_rejects_bad_arguments():
    with pytest.raises(gr.GroupMapError, match="unknown group map kind"):
        gr.tau_action(*entries(np.zeros((2, 2))), "pade")
    with pytest.raises(gr.GroupMapError, match="not finite"):
        gr.tau_action(*entries(np.full((2, 2), np.nan)))


def test_series_guard_rejects_non_finite_arguments():
    with pytest.raises(gr.GroupMapError, match="not finite"):
        gr.dtau_inv(sparse.csr_array(np.full((3, 3), np.nan)), np.eye(3))


@pytest.mark.parametrize("h", [1e-3, 1e-2, 1e-1, 1.0])
@pytest.mark.parametrize("kind", gr.KINDS)
def test_the_action_at_minus_xi_undoes_the_action_at_xi(jittered65, rng, kind, h):
    # tau(-xi) = tau(xi)^-1 for both maps: the entropy solve moves only its
    # constant part because moving a term by tau(xi) and back changes nothing.
    a = mesh_velocity(jittered65)
    there = gr.tau_action(*step_entries(jittered65, a, h), kind)
    back = gr.tau_action(*step_entries(jittered65, a, -h), kind)
    w = rng.normal(size=jittered65.n)
    assert np.max(np.abs(back(there(w)) - w)) <= 1e-14 * np.max(np.abs(w))


def test_two_actions_from_one_values_array_keep_their_own_entries(jittered65, rng):
    # Two actions that scale one values array by -h and +h, as the inverse
    # pair above does, each keep their own entries.
    a, csr = mesh_velocity(jittered65), jittered65.adjacency_csr
    values = np.concatenate([a, jittered65.diagonal(a)])[csr.take]
    acts = [gr.tau_action(csr.rows, csr.cols, values * h, jittered65.n) for h in (-1e-2, 1e-2)]
    for act, h in zip(acts, (-1e-2, 1e-2)):
        w = rng.normal(size=jittered65.n)
        ref = gr.tau(h * fd.velocity_matrix(jittered65, a)).T @ w
        assert np.max(np.abs(act(w) - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_the_action_builds_no_dense_array(rng):
    # 980 cells: the dense path's ``xi.T / steps`` alone took 8 N^2 bytes.
    mesh = msh.jitter_mesh(msh.generate_rect_mesh(24, 20, 1.0, 1.0), 0.15, np.random.default_rng(7))
    geom = msh.compute_geometry(mesh)
    assert geom.n == 980
    a = mesh_velocity(geom)
    w = rng.normal(size=geom.n)
    tracemalloc.start()
    try:
        gr.tau_action(*step_entries(geom, a, -1e-3))(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < geom.n**2


# ---------------------------------------------------------------------------
# The CSR series against the dense one
# ---------------------------------------------------------------------------


def rel_diff(x, ref):
    return np.max(np.abs(x - ref)) / np.max(np.abs(ref))


@pytest.mark.parametrize("h", [1e-3, 1e-2, 1e-1])
@pytest.mark.parametrize("kind", gr.KINDS)
def test_csr_and_dense_arguments_agree(jittered65, rng, h, kind):
    csr = fd.velocity_csr(jittered65, h * mesh_velocity(jittered65))
    xi = fd.velocity_matrix(jittered65, h * mesh_velocity(jittered65))
    np.testing.assert_array_equal(csr.toarray(), xi)
    eta = rng.normal(size=xi.shape)
    omega = jittered65.omega
    pairs = ((gr.dtau_inv, dense.dtau_inv), (gr.dtau, dense.dtau))
    for fn, oracle in pairs:
        assert rel_diff(fn(csr, eta, kind), oracle(xi, eta, kind)) <= 1e-14
    star = gr.dtau_inv_star(omega, csr, eta, kind)
    assert rel_diff(star, dense.dtau_inv_star(omega, xi, eta, kind)) <= 1e-14


@pytest.mark.parametrize("h", [1e-3, 1e-1])
@pytest.mark.parametrize("kind", gr.KINDS)
def test_the_tangents_at_minus_xi_and_xi_differ_by_the_commutator(jittered65, rng, h, kind):
    # dtau_inv_{-xi}(eta) - dtau_inv_{xi}(eta) = [eta, xi]: only the B_1 term
    # of the exponential's series is odd in xi, and the Cayley tangent
    # (I + xi/2) eta (I - xi/2) has one odd part, (xi eta - eta xi)/2.  The
    # step takes its old-side transport from this identity.
    a = mesh_velocity(jittered65)
    eta = rng.normal(size=(jittered65.n, jittered65.n))
    xi = fd.velocity_csr(jittered65, a) * -h
    minus = [gr.dtau_inv(x, eta, kind) for x in (xi, xi.T)]
    xi = fd.velocity_csr(jittered65, a) * h
    for x, low in zip((xi, xi.T), minus):
        bracket = gr.commutator(eta, x)
        assert np.max(np.abs(bracket)) > 1e-3 * np.max(np.abs(eta))
        gap = low - gr.dtau_inv(x, eta, kind) - bracket
        assert np.max(np.abs(gap)) <= 1e-14 * np.max(np.abs(eta))


@pytest.mark.parametrize("c", [0.5, 0.9, 0.999, 1.001, 1.5])
def test_the_guard_decides_alike_for_csr_and_dense(jittered65, c):
    a = mesh_velocity(jittered65)
    scaled = c * a / np.linalg.norm(fd.velocity_matrix(jittered65, a), 2)
    csr = fd.velocity_csr(jittered65, scaled)
    xi = fd.velocity_matrix(jittered65, scaled)
    step = step_entries(jittered65, scaled, 1.0, transpose=True)
    assert gr.norm_bound(*step) == pytest.approx(dense.norm_bound(xi), rel=1e-15)
    # the bound alone clears |xi|_2 = 0.5; from 0.9 on the SVD decides
    assert (dense.norm_bound(xi) >= 1.0) == (c >= 0.9)
    outcomes = []
    for call in (
        lambda: dense.dtau_inv(xi, xi),
        lambda: gr.dtau_inv(csr, xi),
        lambda: gr.dtau_inv_coefficients(*step),  # the step's call
    ):
        try:
            call()
            outcomes.append(None)
        except gr.GroupMapError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1] == outcomes[2]
    assert (outcomes[0] is not None) == (c >= 1.0)


@pytest.mark.parametrize("h", [1e-3, 1e-2, 1e-1])
def test_the_term_count_is_fixed_by_the_bound(jittered65, rng, monkeypatch, h):
    # K is the bound's, before the first term: alike at xi, -xi and xi^T,
    # whose norm_bound is xi's, and for an eta of any size.
    a, n = mesh_velocity(jittered65), jittered65.n
    want = gr._tail_terms(2.0 * gr.norm_bound(*step_entries(jittered65, a, h)), 1e-14)
    # the step's operand gives the bound's bits at -h and +h, for X and X^T
    bounds = {gr.norm_bound(*step_entries(jittered65, a, s * h, t)).hex() for s in (1.0, -1.0) for t in (False, True)}
    assert len(bounds) == 1
    terms = count_terms(monkeypatch)
    eta = rng.normal(size=(n, n))
    for sign, transpose, size in ((1.0, False, 1.0), (-1.0, False, 1.0), (1.0, True, 1.0), (1.0, False, 1e-12)):
        xi = fd.velocity_csr(jittered65, a) * (sign * h)
        before = terms[0]
        gr.dtau_inv(xi.T if transpose else xi, size * eta)
        assert terms[0] - before == want
        assert len(gr.dtau_inv_coefficients(*step_entries(jittered65, a, sign * h, transpose))) == want
    assert 0 < want <= 21


@pytest.mark.parametrize("c", [0.9, 0.999])
def test_past_a_loose_bound_the_term_count_comes_from_the_svd(jittered65, rng, monkeypatch, c):
    a = mesh_velocity(jittered65)
    scaled = c * a / np.linalg.norm(fd.velocity_matrix(jittered65, a), 2)
    csr = fd.velocity_csr(jittered65, scaled)
    xi = fd.velocity_matrix(jittered65, scaled)
    step = step_entries(jittered65, scaled, 1.0, transpose=True)
    assert gr.norm_bound(*step) >= 1.0
    eta = rng.normal(size=xi.shape)
    terms = count_terms(monkeypatch)
    got = gr.dtau_inv(csr, eta)
    assert terms[0] == gr._tail_terms(2.0 * np.linalg.norm(xi, 2), 1e-14)
    assert len(gr.dtau_inv_coefficients(*step)) == terms[0]
    assert rel_diff(got, dense.dtau_inv(xi, eta)) <= 1e-14


@pytest.mark.parametrize("kind", gr.KINDS)
def test_shift_identities_on_a_mesh(small43, rng, kind):
    assert vf.check_tau_shift(small43, rng, kind) < 1e-10
    assert vf.check_dtau_inv_shift(small43, rng, kind) < 1e-10
    assert vf.check_transport_adjoint(small43, rng, kind) < 1e-12


@pytest.mark.parametrize("kind", gr.KINDS)
def test_dtau_inv_matches_finite_differences(small43, rng, kind):
    assert vf.check_dtau_inv_fd(small43, rng, kind) < 1e-6


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(gr.KINDS))
def test_tau_inverse_property(seed, kind):
    xi = small_matrix(seed)
    np.testing.assert_allclose(
        gr.tau(xi, kind) @ gr.tau(-xi, kind), np.eye(5), atol=1e-12
    )


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(gr.KINDS))
def test_dtau_roundtrip_property(seed, kind):
    rng = np.random.default_rng(seed)
    xi = sparse.csr_array(small_matrix(rng.integers(2**31), norm=float(0.5 * rng.random())))
    delta = rng.normal(size=(5, 5))
    eta = gr.dtau(xi, delta, kind)
    np.testing.assert_allclose(
        gr.dtau_inv(xi, eta, kind), delta, atol=1e-11 * max(1.0, np.abs(delta).max())
    )
