"""Time integration: the discrete variational step.

The step advances one momentum flux per pair of adjacent *interior* cells
(cells not touching the boundary; no-slip), plus density and entropy per
cell.  It is consistent with the semi-discrete equations, so it differs
from one step of a classical RK4 on them (the reference the tests keep) by
O(h^2).

The variational step solves, in order:

1. the discrete momentum balance for the new velocity ``A^k``, by Newton on
   the fluxes (:meth:`VariationalStepper._solve_momentum`).  Each residual
   applies the adjoint tangent series :func:`decflow.groups.dtau_inv_star`
   at ``+h A`` in the CSR form of :class:`decflow.mesh.AdjacencyCSR`, whose
   ``.data`` it refreshes without building a sparse array, and reads four
   entries per flux of the result (:meth:`FluxLayout.pick_P`).  The
   old-side term, the same transport at ``-h A^{k-1}`` with ``D^{k-1}``, is
   fixed within a step (:meth:`VariationalStepper._old_side`).  The
   pressure/temperature gradient and the viscous force are evaluated on the
   flux pairs only, from cell values and from the per-pair kernels of
   :mod:`decflow.physics`.  ``A`` is held on the adjacency list; only the
   full series is dense: its operand (the flat, scattered from P2, and the
   momentum ``D A^flat``) and every term live in one
   :class:`decflow.groups.SeriesWork` that the stepper owns.  Each term runs
   SciPy's sparse-times-dense kernel into those arrays, and a result there
   is valid until the next residual, so a warm full residual allocates no
   ``(N, N)`` array.  Newton's matrix is the colored finite-difference
   Jacobian of the residual cut after series order 1
   (:meth:`VariationalStepper._jacobian`), whose residuals use no
   ``(N, N)`` array; it is a dense ``(F, F)`` array factored by
   ``lu_factor``,
2. exact density transport ``D^{k+1} = D^k bullet tau(-h A^k)``.  The
   group element is never formed: :func:`decflow.groups.tau_action` applies
   ``tau(-h A^k)^T`` to ``Omega D^k`` as a Taylor series of products with
   the stored entries of the CSR form of ``-h A^k``, whose term count is
   fixed from ``|h A^k|_1`` so the remainder is at most ``2^-53`` of the
   vector; the action builds no ``(N, N)`` array.  Mass stays exact to
   round-off: the rows of ``A^k`` sum to zero, so every term after the
   first has zero sum,
3. a fixed point for the new entropy ``S^{k+1}`` balancing transport,
   friction heating, conduction and sources against the old temperature,
   followed by the boundary temperature condition (unless insulated).  It
   applies ``tau(h A^k)^T`` and ``tau(-h A^k)^T`` once per iteration; each
   action is built once per step.  The conduction terms come from the
   entropy flux on the adjacent pairs (:func:`decflow.physics.conduction`).

A step that leaves the range the scheme covers raises a subclass of
:class:`IntegratorError` naming the cause: :class:`SeriesRangeError` when the
group map is out of range, :class:`StateRangeError` when the transported
density is not positive, the entropy update is not finite, the temperature
after the entropy update and the boundary condition is not finite and
positive, or the momentum residual or Newton update is not finite.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve
from scipy.sparse import _sparsetools

from . import fields as fd
from . import groups as gr
from . import physics as ph
from .mesh import MeshGeometry

__all__ = [
    "FluxLayout",
    "StepReport",
    "VariationalStepper",
    "IntegratorError",
    "SeriesRangeError",
    "StateRangeError",
]


class IntegratorError(RuntimeError):
    """A step failed: a nonlinear solve did not converge, or the state left
    the range the scheme covers (the subclasses)."""


class SeriesRangeError(IntegratorError):
    """The group map is out of range at this step: ``|h A|_2 >= 1`` for
    the exponential's tangent series, or a singular Cayley denominator --
    in effect a CFL violation."""


class StateRangeError(IntegratorError):
    """The density lost positivity, the temperature is not finite and
    positive, or the momentum residual, the Newton update or the entropy
    update is not finite."""


# ---------------------------------------------------------------------------
# Flux unknowns
# ---------------------------------------------------------------------------


@dataclass
class FluxLayout:
    """One scalar unknown per unordered adjacent pair of interior cells.

    A flux vector ``f`` assembles into the velocity on the adjacency list
    with ``A_ij = f / (2 Omega_ii)`` and ``A_ji = -f / (2 Omega_jj)``
    (:func:`decflow.fields.from_fluxes`), which lands exactly in S, V and
    the no-slip subspace.  Flux ``k`` is the pair ``(rows[k], cols[k])``,
    ``rows < cols``, at position ``pos[k]`` of the directed adjacency list;
    the reversed pair ``(cols[k], rows[k])`` is at ``rev[k]``.  Both are
    looked up once, so neither assembly searches the list.
    """

    geom: MeshGeometry
    rows: np.ndarray
    cols: np.ndarray
    pos: np.ndarray
    rev: np.ndarray

    @classmethod
    def build(cls, geom: MeshGeometry) -> "FluxLayout":
        interior = geom.mesh.interior_cells
        i, j = geom.adj_i, geom.adj_j
        pos = np.flatnonzero((i < j) & interior[i] & interior[j])
        rows, cols = i[pos], j[pos]
        return cls(geom=geom, rows=rows, cols=cols, pos=pos, rev=geom.pair_index(cols, rows))

    @property
    def size(self) -> int:
        return len(self.rows)

    def to_matrix(self, flux: np.ndarray) -> np.ndarray:
        """The velocity of ``flux`` on the adjacency list."""
        return fd.from_fluxes(self.geom, self.pos, self.rev, flux)

    def from_matrix(self, a: np.ndarray) -> np.ndarray:
        """The fluxes of a velocity ``a`` on the adjacency list."""
        g = self.geom
        return g.omega[self.rows] * a[self.pos] - g.omega[self.cols] * a[self.rev]

    def pick_P(self, mat: np.ndarray, omega: np.ndarray) -> np.ndarray:
        """``proj_P(mat / omega[:, None])`` at ``(rows, cols)``, read from
        the four entries ``(r, c)``, ``(c, r)``, ``(r, r)`` and ``(c, c)`` of
        each flux instead of the whole matrix."""
        r, c = self.rows, self.cols
        return self.project(np.stack([mat[r, c], mat[c, r], mat[r, r], mat[c, c]]), omega)

    def project(self, entries: np.ndarray, omega: np.ndarray) -> np.ndarray:
        """:meth:`pick_P` from the four entries of each flux, the rows of
        ``entries``."""
        r, c = self.rows, self.cols
        m_rc, m_rr = entries[0] / omega[r], entries[2] / omega[r]
        m_cr, m_cc = entries[1] / omega[c], entries[3] / omega[c]
        return 0.5 * (m_rc - m_cr - m_rr + m_cc)


# ---------------------------------------------------------------------------
# Shared force assembly
# ---------------------------------------------------------------------------


def _gradient_forces(geom, layout, a, d, s, gas):
    """``Dbar (dl/dD_j - dl/dD_i) + Sbar (dl/dS_j - dl/dS_i)`` on the flux
    pairs (the discrete pressure/temperature gradient block)."""
    dl_dd, dl_ds = ph.scalar_derivatives(geom, a, d, s, gas)
    i, j = layout.rows, layout.cols
    gd, gs = fd.pair_diff(dl_dd, i, j), fd.pair_diff(dl_ds, i, j)
    return fd.pair_mean(d, i, j) * gd + fd.pair_mean(s, i, j) * gs


# ---------------------------------------------------------------------------
# The order-1 bracket at the picked entries
# ---------------------------------------------------------------------------


def _row_entries(indptr, rows):
    """``(k, s)`` for every stored entry ``s`` of CSR row ``rows[k]``, row
    by row and in stored order within a row."""
    counts = indptr[rows + 1] - indptr[rows]
    k = np.repeat(np.arange(len(rows)), counts)
    start = np.repeat(indptr[rows] - (np.cumsum(counts) - counts), counts)
    return k, start + np.arange(len(k))


class SampledBracket:
    """``[eta, xi^T]`` at the four entries :meth:`FluxLayout.pick_P` reads
    per flux, for ``eta`` on P2 (:func:`decflow.fields.flat_p2`) and ``xi``
    on the diagonal and the adjacent pairs.

    Entry ``(i, j)`` is ``sum_k eta_ik xi_jk - sum_k xi_ki eta_kj``.  Both
    sums are fixed once as index triples (pick entry, P2 position of the
    ``eta`` entry, position of the ``xi`` entry in ``[pairs, diagonal]``):
    ``k`` runs over row ``j`` of ``xi`` and row ``i`` of ``xi^T`` in the
    stored order of :class:`decflow.mesh.AdjacencyCSR`, and a term whose
    ``eta`` entry lies off P2, where ``eta`` is zero, is left out.  So each
    sum adds the products that :func:`decflow.groups.commutator` adds, in
    its order.  A call gathers ``xi`` into the data of a CSR matrix over P2
    and runs SciPy's ``csr_matvec`` into buffers kept here; the result is
    one of them, valid until the next call.
    """

    def __init__(self, layout: FluxLayout):
        geom, csr = layout.geom, layout.geom.adjacency_csr
        # pick entries (r, c), (c, r), (r, r), (c, c), in blocks of one per flux
        ei = np.concatenate([layout.rows, layout.cols, layout.rows, layout.cols])
        ej = np.concatenate([layout.cols, layout.rows, layout.rows, layout.cols])
        k1, s1 = _row_entries(csr.indptr, ej)  # eta_ik xi_jk
        k2, s2 = _row_entries(csr.indptr, ei)  # xi_ki eta_kj = (xi^T)_ik eta_kj
        entry = np.concatenate([k1, k2 + len(ei)])
        eta_at = np.concatenate([geom.p2_index(ei[k1], csr.cols[s1]), geom.p2_index(csr.cols[s2], ej[k2])])
        on_p2 = eta_at >= 0
        self._p2_size = len(geom.adj_i) + len(geom.ta_row)
        self._xi_at = np.concatenate([csr.take[s1], csr.take_t[s2]])[on_p2]
        self._eta_at = eta_at[on_p2]
        self._indptr = np.searchsorted(entry[on_p2], np.arange(2 * len(ei) + 1))
        self._data = np.empty(len(self._eta_at))
        self._sums = np.empty((2, 4, layout.size))
        self._out = np.empty((4, layout.size))

    def __call__(self, eta: np.ndarray, xi: np.ndarray) -> np.ndarray:
        """The ``(4, fluxes)`` entries of ``[eta, xi^T]``, from ``eta`` on P2
        and ``xi`` as its values on ``[pairs, diagonal]``.  The kernel
        trusts the length of ``eta``, so it is checked here."""
        if eta.shape != (self._p2_size,):
            raise ValueError(f"eta has {eta.shape} values, P2 has {self._p2_size}")
        np.take(xi, self._xi_at, out=self._data)
        self._sums.fill(0.0)
        _sparsetools.csr_matvec(
            len(self._indptr) - 1, len(eta), self._indptr, self._eta_at, self._data, eta, self._sums.ravel()
        )
        return np.subtract(self._sums[0], self._sums[1], out=self._out)


# ---------------------------------------------------------------------------
# Colored finite differences
# ---------------------------------------------------------------------------

_FD_STEP = 1e-7  # central-difference step relative to max(|f_p|, 1)


def _pattern(mat):
    """``mat`` with every stored entry set to 1 and its indices sorted."""
    mat.data[:] = 1
    mat.sort_indices()
    return mat


def _incidence(a, b, width):
    """Sparse 0/1 incidence of each row ``k`` to the columns ``a[k]`` and ``b[k]``."""
    ones, ptr = np.ones(2 * len(a), dtype=np.int32), np.arange(0, 2 * len(a) + 1, 2)
    return sparse.csr_array((ones, np.stack([a, b], axis=1).ravel(), ptr), shape=(len(a), width))


def _stencil(layout):
    """``pattern(C C^T + E E^T)``: row ``q`` holds the fluxes that row ``q``
    of the first-order residual reads, ``C`` being the incidence of the
    fluxes to their two cells and ``E`` that to the two ends of their shared
    edges:

    * ``C C^T``, the fluxes of cells ``i`` and ``j`` of ``q = (i, j)``: the
      adjacent flat entries and ``A_ii``, ``A_jj``, the kinetic density
      under ``d0`` in the gradient forces, ``d0(div A)`` in the viscous
      force;
    * ``E E^T``, every flux of the node fans at the two ends of the shared
      edge: ``Lambda`` in the viscous force and the flat's two-away entries
      (read by the order-1 term) take their vorticities.

    The pattern is symmetric, so it also holds the rows each column reaches,
    at every ``h``."""
    g = layout.geom
    cells = _incidence(layout.rows, layout.cols, g.n)
    nodes = _incidence(g.adj_eplus[layout.pos], g.adj_eminus[layout.pos], g.mesh.num_nodes)
    return _pattern(cells @ cells.T + nodes @ nodes.T)


def _coloring(near):
    """Columns grouped so that no two of one color reach a common row, when
    column ``p`` reaches the rows of column ``p`` of the symmetric pattern
    ``near``.

    Returns ``(cols, rows, owners)`` per color: the columns to perturb
    together and, for every row one of them reaches, that column.
    """
    m = near.shape[0]
    conflicts = _pattern(near @ near)  # columns that share a row
    indptr, indices = conflicts.indptr, conflicts.indices
    color = np.full(m, -1)
    for p in np.argsort(-np.diff(indptr), kind="stable"):  # most conflicts first
        used = color[indices[indptr[p] : indptr[p + 1]]]
        taken = np.zeros(len(used) + 1, dtype=bool)
        taken[used[(used >= 0) & (used <= len(used))]] = True
        color[p] = np.argmin(taken)  # the first free color
    owners, rows = np.repeat(np.arange(m), np.diff(near.indptr)), near.indices
    owner_color = color[owners]
    return [
        (np.flatnonzero(color == c), rows[owner_color == c], owners[owner_color == c])
        for c in range(color.max() + 1)
    ]


# ---------------------------------------------------------------------------
# Variational stepper
# ---------------------------------------------------------------------------


@dataclass
class StepReport:
    """Solver effort of one step; ``residual_evals`` counts every momentum
    residual: the full ones of Newton and the first-order ones of the
    Jacobian builds, two per color of each build.  ``colors`` is the color
    count of the step's builds (0 without a build).  ``series_terms``
    counts the ``ad`` terms that the step's full ``dtau_inv`` series
    computed (0 for the Cayley map).
    ``friction_power`` is the step's cell-wise friction power of the new
    velocity, for the observer to reuse (None at step 0)."""

    newton_iters: int = 0
    entropy_iters: int = 0
    jacobian_builds: int = 0
    residual_evals: int = 0
    colors: int = 0
    series_terms: int = 0
    friction_power: np.ndarray | None = None


class VariationalStepper:
    """Advances the fully discrete system one step at a time (:meth:`step`).
    ``heat_source`` is the per-cell heating rate ``R``, constant in time,
    or None for no heating.
    """

    def __init__(
        self,
        geom: MeshGeometry,
        gas: ph.GasParams,
        phys: ph.PhysParams,
        h: float,
        kind: str = "exponential",
        newton_tol: float = 1e-10,
        newton_max: int = 50,
        entropy_tol: float = 1e-13,
        entropy_max: int = 100,
        heat_source=None,
    ):
        self.geom = geom
        self.gas = gas
        self.phys = phys
        self.h = float(h)
        self.kind = kind
        self.newton_tol = newton_tol
        self.newton_max = newton_max
        self.entropy_tol = entropy_tol
        self.entropy_max = entropy_max
        self.heat_source = heat_source
        self.layout = FluxLayout.build(geom)
        self._p2 = np.concatenate([geom.adj_i, geom.ta_row]), np.concatenate([geom.adj_j, geom.ta_col])  # P2 pairs
        self._work = gr.SeriesWork(geom.n)  # every residual's series runs here
        # carried across steps, see step
        self._lu = self._fresh_iters = self._d_prev = self._carried = None

    # -- momentum ----------------------------------------------------------

    def _transport_term(self, a, d):
        """``(1/h) P((dtau_inv_{hA})^* (D A^flat))`` on the layout, with the
        adjoint's division by ``Omega`` applied to the entries that ``P``
        reads.  The full series runs on the dense ``D A^flat``, written from
        P2 into the work arrays' operand, with ``hA`` in CSR form."""
        rows, cols = self._p2
        lmat = self._work.operand
        lmat.fill(0.0)
        lmat[rows, cols] = fd.flat_p2(self.geom, a) * d[rows]
        xi = self.geom.adjacency_csr.load(a, self.h)
        star = gr.dtau_inv_star(self.geom.omega, xi, lmat, self.kind, divide=False, work=self._work)
        return self.layout.pick_P(star, self.geom.omega) / self.h

    def _first_order_term(self, a, d):
        """:meth:`_transport_term` with the series cut after
        ``eta - [eta, xi^T]/2``, computed at the four entries per flux only
        (:class:`SampledBracket`)."""
        eta, star = self._eta_and_bracket(a, d)
        star *= -0.5
        star[0] += eta[self.layout.pos]
        star[1] += eta[self.layout.rev]  # eta is zero on the diagonal
        return self.layout.project(star, self.geom.omega) / self.h

    @functools.cached_property
    def _sampled(self):
        """The order-1 bracket's index triples, built at the first use."""
        return SampledBracket(self.layout)

    def _eta_and_bracket(self, a, d):
        """``eta = Omega D A^flat`` on P2 and ``[eta, xi^T]`` at the four
        entries per flux, with ``xi = h A``."""
        geom, rows = self.geom, self._p2[0]
        eta = fd.flat_p2(geom, a)
        eta *= d[rows]
        eta *= geom.omega[rows]
        xi = np.concatenate([a, geom.diagonal(a)])
        xi *= self.h
        return eta, self._sampled(eta, xi)

    def _old_side(self, a, d, transport):
        """The transport at ``-hA`` from ``transport``, :meth:`_transport_term`
        at ``+hA`` with the same ``d``: for both group maps the tangents at
        ``-xi`` and ``xi`` differ by ``dtau_inv_{-xi}(eta) - dtau_inv_{xi}(eta)
        = [eta, xi]`` (only the exponential's ``B_1`` term is odd in ``xi``),
        so the old side costs one bracket at four entries per flux, not a
        series."""
        _, bracket = self._eta_and_bracket(a, d)
        return transport + self.layout.project(bracket, self.geom.omega) / self.h

    def _residual_and_transport(self, flux, d, s, prev_term, transport):
        """The momentum residual on ``transport`` at ``+hA``, the full
        :meth:`_transport_term` or the :meth:`_first_order_term`, and that
        transport term."""
        a = self.layout.to_matrix(flux)
        cur = transport(a, d)
        grad = _gradient_forces(self.geom, self.layout, a, d, s, self.gas)
        visc = ph.viscous_force(self.geom, a, self.phys)[self.layout.pos]
        return cur - prev_term + grad - visc, cur

    @functools.cached_property
    def _colors(self):
        """The coloring of the first-order residual's stencil, built at the
        first Jacobian."""
        return _coloring(_stencil(self.layout))

    def _jacobian(self, flux, d, s, prev_term):
        """Newton's matrix: the Jacobian of the first-order residual, whose
        cut adds ``O(|hA|^2)`` relative to the full one, so Newton is a chord
        method (Kelley 1995, ch. 5) that converges to the full residual's
        solution.  A central difference with the step ``1e-7 max(|f_p|, 1)``
        per flux ``p``, colored (Curtis, Powell & Reid 1974): one residual
        pair per color, each row's quotient scattered to the one column of
        that color that reaches it, so it is the column-by-column difference
        bit for bit.  Returns the Jacobian and the residuals it took."""
        jac = np.zeros((self.layout.size, self.layout.size))
        step = _FD_STEP * np.maximum(np.abs(flux), 1.0)
        residual = lambda f: self._residual_and_transport(f, d, s, prev_term, self._first_order_term)[0]
        for cols, rows, owners in self._colors:
            fp = flux.copy()
            fp[cols] += step[cols]
            rp = residual(fp)
            fp[cols] -= 2 * step[cols]
            rm = residual(fp)
            jac[rows, owners] = (rp[rows] - rm[rows]) / (2 * step[owners])
        return jac, 2 * len(self._colors)

    def _solve_momentum(self, flux0, d, s, prev_term, lu):
        """Newton on the fluxes from ``flux0`` on the LU ``lu``, built at the
        first iteration when None and rebuilt when an iteration reduces the
        residual by less than half (at most 3 builds).  Returns the solution,
        the LU it ended on, a report of the effort (``entropy_iters`` left at
        0) and the transport term of the converged residual."""
        flux = flux0.copy()
        report = StepReport()
        if self.layout.size == 0:
            return flux, lu, report, np.zeros(0)
        prev_norm = np.inf
        for it in range(1, self.newton_max + 1):
            r, transport = self._residual_and_transport(flux, d, s, prev_term, self._transport_term)
            report.residual_evals += 1
            norm = float(np.max(np.abs(r)))
            if not np.isfinite(norm):
                raise StateRangeError("momentum residual is not finite; reduce the time step")
            if norm <= self.newton_tol:
                report.newton_iters = it - 1
                return flux, lu, report, transport
            if lu is None or (norm > 0.5 * prev_norm and report.jacobian_builds < 3):
                jac, evals = self._jacobian(flux, d, s, prev_term)
                with warnings.catch_warnings():  # a singular LU shows in the update
                    warnings.simplefilter("ignore", LinAlgWarning)
                    lu = lu_factor(jac)
                report.jacobian_builds += 1
                report.residual_evals += evals
                report.colors = len(self._colors)
            flux = flux - lu_solve(lu, r)
            if not np.all(np.isfinite(flux)):
                raise StateRangeError(
                    "Newton update is not finite; reduce the time step"
                )
            prev_norm = norm
        raise IntegratorError(
            f"momentum solve stalled at residual {prev_norm:.3e} "
            f"(tolerance {self.newton_tol:.1e}); reduce the time step"
        )

    def _refresh(self, report, lu):
        """The LU and the fresh count to carry after a step that ended on
        ``lu`` (Kelley's Shamanskii variant, 1995, ch. 5).  The fresh count is
        the Newton iterations of the first step solved wholly on the LU, the
        step after the one that built it.  Once a later step that made no
        build needs more than ``2 max(fresh, 1)`` iterations, the LU is
        dropped, so that the next step builds at its first iteration."""
        fresh = self._fresh_iters
        if report.jacobian_builds:
            return lu, None
        if fresh is None:
            return lu, report.newton_iters
        if report.newton_iters > 2 * max(fresh, 1):
            return None, fresh
        return lu, fresh

    # -- entropy -----------------------------------------------------------

    def _solve_entropy(self, a_new, back, d_old, s_old, d_new, theta_old, fric):
        """Fixed point for ``S^{k+1}`` (before boundary enforcement);
        ``back`` is the step's action of ``tau(-h A^k)``."""
        geom, phys, gas, h = self.geom, self.phys, self.gas, self.h
        fwd = gr.tau_action(geom.adjacency_csr.load(a_new, h), self.kind)
        rhs_const = h * fric - h * ph.conduction(geom, theta_old, phys)[1]
        if self.heat_source is not None:
            rhs_const = rhs_const + h * d_old * self.heat_source
        rhs_const = s_old + rhs_const / theta_old

        s = s_old.copy()
        prev_delta = np.inf
        for it in range(1, self.entropy_max + 1):
            theta_new = ph.temperature(d_new, s, gas)
            div_j = ph.conduction(geom, theta_new, phys)[0]
            target = rhs_const - h * fd.group_act_den(geom, div_j, fwd)
            s_next = fd.group_act_den(geom, target, back)
            delta = float(np.max(np.abs(s_next - s)))
            if not np.isfinite(delta):  # an infinite temperature, with conduction
                raise StateRangeError("entropy update is not finite; reduce the time step")
            scale = max(1.0, float(np.max(np.abs(s_next))))
            if delta <= self.entropy_tol * scale:
                return s_next, it
            if delta >= prev_delta:  # stagnating: damp
                s_next = 0.5 * (s_next + s)
            prev_delta = delta
            s = s_next
        raise IntegratorError(
            f"entropy fixed point stalled (last update {prev_delta:.3e}); "
            "reduce the time step"
        )

    # -- full step ----------------------------------------------------------

    def step(self, state: ph.FluidState):
        """One step: the incoming state carries the previous velocity and the
        current density/entropy; returns ``(new_state, StepReport)``.

        The momentum balance couples the incoming velocity, paired with the
        density one step back (cold start: the incoming density), to the new
        one.  Carried from step to step: the LU and its fresh count
        (:meth:`_refresh`), that density, and the returned velocity with its
        converged transport at ``+hA`` and the fluxes it was stepped from.
        The carried transport is a cache keyed on the returned velocity:
        when ``state.a`` is that velocity, the old side is taken from it and
        Newton starts from the extrapolated fluxes ``2 f_{k-1} - f_{k-2}``;
        any other velocity, such as a copy, recomputes the transport and
        starts from its own fluxes.  The returned velocity is read-only, so
        a caller that wants to change it passes a changed copy.  The carried
        state is written once, after every check has passed, so a step that
        raises leaves it as it was and the same call can be repeated.
        """
        geom, gas, phys, h = self.geom, self.gas, self.phys, self.h
        d_prev = state.d if self._d_prev is None else self._d_prev
        flux_in = self.layout.from_matrix(state.a)
        transport, flux_old = None, flux_in
        if self._carried is not None and state.a is self._carried[0]:
            _, transport, flux_old = self._carried
        terms = self._work.terms
        try:
            if transport is None:
                transport = self._transport_term(state.a, d_prev)
            prev_term = self._old_side(state.a, d_prev, transport)
            flux, lu, report, transport = self._solve_momentum(
                2.0 * flux_in - flux_old, state.d, state.s, prev_term, self._lu
            )
            report.series_terms = self._work.terms - terms
            a_new = self.layout.to_matrix(flux)
            back = gr.tau_action(geom.adjacency_csr.load(a_new, -h), self.kind)
        except gr.GroupMapError as exc:
            raise SeriesRangeError(str(exc)) from exc

        d_new = fd.group_act_den(geom, state.d, back)
        if not np.all(d_new > 0.0):
            raise StateRangeError(
                f"density not positive after transport (min {np.min(d_new):.3e}); "
                "reduce the time step"
            )

        theta_old = ph.temperature(state.d, state.s, gas)
        fric = report.friction_power = ph.friction_power(geom, a_new, phys)
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            s_new, report.entropy_iters = self._solve_entropy(a_new, back, state.d, state.s, d_new, theta_old, fric)
            if not phys.insulated:
                bc = geom.mesh.boundary_cells
                s_new[bc] = ph.entropy_from_temperature(d_new[bc], phys.theta_env, gas)
            theta_new = ph.temperature(d_new, s_new, gas)
        if not np.all((theta_new > 0.0) & np.isfinite(theta_new)):
            raise StateRangeError(
                "temperature not finite and positive after the entropy update "
                f"(range {np.min(theta_new):.3e} to {np.max(theta_new):.3e}); "
                "reduce the time step"
            )

        a_new.flags.writeable = False  # the carried values describe it
        self._lu, self._fresh_iters = self._refresh(report, lu)
        self._d_prev, self._carried = state.d.copy(), (a_new, transport, flux_in)
        return ph.FluidState(a_new, d_new, s_new), report

    def run(self, state: ph.FluidState, steps: int, observer=None):
        """Advance ``steps`` steps from ``t = 0``, invoking
        ``observer(k, t, state, report)`` after each; solver failures are
        re-raised annotated with the step."""
        t = 0.0
        if observer is not None:
            observer(0, t, state, StepReport())
        for k in range(1, steps + 1):
            try:
                state, report = self.step(state)
            except IntegratorError as exc:
                raise type(exc)(f"step {k}: {exc}") from exc
            t = k * self.h
            if observer is not None:
                observer(k, t, state, report)
        return state
