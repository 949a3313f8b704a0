"""Time integration: the discrete variational step.

The step advances one momentum flux per pair of adjacent *interior* cells
(cells not touching the boundary; no-slip), plus density and entropy per
cell.  It is consistent with the semi-discrete equations, so it differs
from one step of a classical RK4 on them (the reference the tests keep) by
O(h^2).

The variational step solves, in order:

1. the discrete momentum balance for the new velocity ``A^k``, by Newton on
   the fluxes (:meth:`VariationalStepper._solve_momentum`).  Each residual
   applies the adjoint tangent series of :func:`decflow.groups.dtau_inv_star`
   at ``+h A`` at the four entries per flux that the projection ``P`` reads
   (:meth:`FluxLayout.project`), term by term on the entries those read
   (:class:`SampledSeries`), with the bits of the dense series and no
   ``(N, N)`` array.  Only the fluxes move: ``D^k``, ``S^k`` and the old
   side, the transport at ``-h A^{k-1}`` with ``D^{k-1}`` that the previous
   step carried (:class:`Carry`), are fixed, so the residual is built once
   per step as a function of the fluxes (:meth:`VariationalStepper._residual`),
   its forces on the flux pairs only (:mod:`decflow.physics`).  Newton's
   matrix is the colored finite-difference Jacobian of that residual cut after
   series order 1 (:meth:`VariationalStepper._jacobian`), a CSC array on the
   residual's stencil, with each row divided by the density's pair mean
   ``Dbar`` at its flux and factored by SuperLU.  Newton thus solves the
   balance per unit density, so the LU carried across steps barely ages as
   the density moves; it stops on the unscaled residual,
2. exact density transport ``D^{k+1} = D^k bullet tau(-h A^k)``.  The
   group element is never formed: :func:`decflow.groups.tau_action` applies
   ``tau(-h A^k)^T`` to ``Omega D^k`` as a Taylor series of products with
   the entries of ``-h A^k`` on the diagonal and the adjacent pairs
   (:class:`decflow.mesh.AdjacencyCSR`), whose term count is
   fixed from ``|h A^k|_1`` so the remainder is at most ``2^-53`` of the
   vector; the action builds no ``(N, N)`` array.  Mass stays exact to
   round-off: the rows of ``A^k`` sum to zero, so every term after the
   first has zero sum,
3. a fixed point for the new entropy ``S^{k+1}`` balancing transport,
   friction heating, conduction and sources against the old temperature,
   followed by the boundary temperature condition (unless insulated).  Only
   the constant part is moved, once, by the action of step 2; the conduction
   terms come from the entropy flux on the adjacent pairs
   (:func:`decflow.physics.conduction`).

A step that leaves the range the scheme covers raises a subclass of
:class:`IntegratorError` naming the cause: :class:`SeriesRangeError` when the
group map is out of range, :class:`StateRangeError` when the transported
density is not positive, the entropy update is not finite, the temperature
after the entropy update and the boundary condition is not finite and
positive, Newton's matrix is singular, or the momentum residual or Newton
update is not finite.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy import sparse
# imported with the module: lazily, its 15-20 ms would land in a short run's set-up or first step
from scipy.sparse.linalg import SuperLU, splu as lu_factor

from . import fields as fd
from . import groups as gr
from . import physics as ph
from .mesh import MeshGeometry, last_row

__all__ = [
    "FluxLayout",
    "StepReport",
    "Carry",
    "VariationalStepper",
    "IntegratorError",
    "SeriesRangeError",
    "StateRangeError",
]
lu_solve = SuperLU.solve  # the step calls both LU names here, where the benchmark's tracer wraps them


class IntegratorError(RuntimeError):
    """A step failed: a nonlinear solve did not converge, or the state left
    the range the scheme covers (the subclasses)."""


class SeriesRangeError(IntegratorError):
    """The group map is out of range at this step: ``|h A|_2 >= 1`` for
    the exponential's tangent series, or a singular Cayley denominator --
    in effect a CFL violation."""


class StateRangeError(IntegratorError):
    """The density lost positivity, the temperature is not finite and
    positive, Newton's matrix is singular, or the momentum residual, the
    Newton update or the entropy update is not finite."""


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
    the reversed pair ``(cols[k], rows[k])`` is at ``rev[k]``, so neither
    assembly searches the list.
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
        return cls(geom=geom, rows=i[pos], cols=j[pos], pos=pos, rev=geom.adj_rev[pos])

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

    def project(self, entries: np.ndarray, omega: np.ndarray) -> np.ndarray:
        """:func:`decflow.fields.proj_P` of ``mat / omega[:, None]`` at ``(rows,
        cols)`` from the four entries ``(r, c)``, ``(c, r)``, ``(r, r)`` and
        ``(c, c)`` of ``mat`` per flux, the rows of ``entries``."""
        r, c = self.rows, self.cols
        return fd.proj_P(entries[0] / omega[r], entries[1] / omega[c], entries[2] / omega[r], entries[3] / omega[c])


# ---------------------------------------------------------------------------
# The tangent series at the picked entries
# ---------------------------------------------------------------------------


def _power(step, k):
    """``step^k`` for a boolean sparse ``step``: its pattern, by squaring."""
    if k == 1:
        return step
    half = _power(step, k // 2)
    return half @ half @ step if k % 2 else half @ half


def _padded_csr(reads, values_at, width):
    """A CSR of zeros on the reads ``>= 0`` of each row of ``reads``, padded
    with ``-1``, and the positions ``values_at`` of its values."""
    keep = reads >= 0
    ptr = np.zeros(len(reads) + 1, dtype=np.int32)
    np.cumsum(keep.sum(axis=1, dtype=np.int32), out=ptr[1:])
    mat = sparse.csr_array((np.zeros(ptr[-1]), reads[keep], ptr), shape=(len(reads), width))
    return mat, values_at[keep]


class SampledSeries:
    """``eta + sum_{n <= K} c_n T_n``, ``T_n = [T_{n-1}, xi^T]`` and ``T_0 =
    eta``, at the four entries per flux that :meth:`FluxLayout.project` reads:
    the series of :func:`decflow.groups.dtau_inv_star` before its division
    by ``Omega``, for ``eta`` on P2 and ``xi`` as its values on ``[pairs,
    diagonal]``.  ``K`` is the last ``n`` with ``c_n != 0``: a call drops
    trailing zero coefficients, such as the ``B_K = 0`` of a guard's odd
    ``K >= 3``, whose term would be computed only to be left out.

    ``T_n(i, j) = sum_{k in row j} T_ik xi_jk - sum_{k in row i} xi_ki
    T_kj`` over the stored entries of :class:`decflow.mesh.AdjacencyCSR`,
    in order.  ``T_n`` is zero past cell-graph distance ``n + 2``, and the
    picks need it up to distance ``K - n + 1``, so every term lives on the
    table of the pairs at distance ``top = (K + 3) // 2`` or less: the
    pattern of ``(I + |xi|)^top``, row major.  One CSR holds, interleaved,
    the rows of each pair's left and right sums: the table positions they
    read (a read past the table dropped) and the positions of their ``xi``
    values; the right sums are the transposed pair's left ones, transposed.
    A second CSR holds the picks' rows.  Each term but the last is one
    product with the first, the last one with the second.  A dropped read
    is of a zero until term ``top``; the error it leaves after moves inward
    one distance per term, and ``2 top > K + 1`` keeps it from the picks.
    So each sum adds the dense series' products in its order, leaving out
    only products with a zero, and the total adds ``c_n T_n`` in ascending
    ``n``: the bits of the dense series.

    The structure is built at the first call, and again when a call needs
    more terms than it was built for; it serves every smaller ``K``.
    ``terms`` counts the guard's term counts of the stepper's full
    transports, trailing zeros included.
    """

    def __init__(self, layout: FluxLayout):
        self.layout = layout
        self.depth = 0
        self.terms = 0

    def _build(self, depth):
        lay, geom, csr = self.layout, self.layout.geom, self.layout.geom.adjacency_csr
        n = geom.n
        step = sparse.csr_array((np.ones(len(csr.cols), dtype=bool), csr.cols, csr.indptr), shape=(n, n))
        reach = _power(step, (depth + 3) // 2)
        reach.sort_indices()
        size, i, j = reach.nnz, np.repeat(np.arange(n), np.diff(reach.indptr)), reach.indices
        count = np.diff(csr.indptr)
        slots = np.arange(count.max())
        stored = np.where(slots < count[:, None], csr.indptr[:-1, None] + slots, -1)[j]  # row j's, padded
        valid = stored >= 0
        left = (np.broadcast_to(i[:, None], stored.shape)[valid], csr.cols[stored[valid]])  # the left sums' reads
        cells = np.arange(n)
        queries = [left, (j, i), (geom.adj_i, geom.adj_j), (geom.ta_row, geom.ta_col), (cells, cells)]
        found = last_row(i * n + j, np.concatenate([r * n + c for r, c in queries]))
        found = np.split(found, np.cumsum([len(r) for r, _ in queries])[:-1])  # one array per query
        both = np.full((size, 2, len(slots)), -1, dtype=np.int32)
        both[:, 0][valid] = found[0]  # a read past the table stays -1, and is dropped
        tpos = found[1]  # the transposed pairs'
        both[:, 1] = np.append(tpos, -1)[both[tpos, 0]]  # keeps -1
        xi_at = np.empty(both.shape, dtype=np.intp)  # take casts its indices to intp
        xi_at[:, 0], xi_at[:, 1] = csr.take[stored], csr.take_t[stored[tpos]]
        both, xi_at = both.reshape(2 * size, -1), xi_at.reshape(2 * size, -1)
        self._mat, self._xi_at = _padded_csr(both, xi_at, size)
        self._eta_at = np.concatenate(found[2:4])
        pairs, diagonal = found[2], found[4]  # the positions of P2 and of the diagonal
        self._picks = np.concatenate([pairs[lay.pos], pairs[lay.rev], diagonal[lay.rows], diagonal[lay.cols]])
        rows = (2 * self._picks[:, None] + [0, 1]).ravel()
        self._at_picks, self._pick_xi_at = _padded_csr(both[rows], xi_at[rows], size)
        self._term = np.empty(size)
        self.depth = depth

    def _load(self, eta, xi, depth):
        """``T_0 = eta`` in the table's one term array, after filling the values
        of ``depth`` terms: the table's for all but the last, the picks'."""
        if max(depth, 1) > self.depth:
            self._build(max(depth, 1))
        if depth > 1:
            np.take(xi, self._xi_at, out=self._mat.data, mode="clip")  # "clip" writes in place
        np.take(xi, self._pick_xi_at, out=self._at_picks.data, mode="clip")
        self._term.fill(0.0)
        self._term[self._eta_at] = eta
        return self._term

    @staticmethod
    def _ad(mat, term, out=None):
        """The next term at the rows of ``mat``."""
        sums = mat @ term
        return np.subtract(sums[0::2], sums[1::2], out=out)

    def __call__(self, eta, xi, coeffs):
        """The ``(4, fluxes)`` entries of ``eta + sum_n coeffs[n-1] T_n``: the
        terms before the last nonzero one on the table, that one at the
        picks."""
        while coeffs and coeffs[-1] == 0.0:
            coeffs = coeffs[:-1]
        term = self._load(eta, xi, len(coeffs))
        total = term[self._picks]
        for n, coeff in enumerate(coeffs, 1):
            last = n == len(coeffs)
            picked = self._ad(self._at_picks, term) if last else self._ad(self._mat, term, out=term)[self._picks]
            if coeff != 0.0:
                total += coeff * picked
        return total.reshape(4, -1)

    def bracket(self, eta, xi):
        """The ``(4, fluxes)`` entries of ``T_1 = [eta, xi^T]``."""
        term = self._load(eta, xi, 1)  # builds ``_at_picks`` on a fresh series
        return self._ad(self._at_picks, term).reshape(4, -1)

    def cayley(self, eta, xi):
        """The ``(4, fluxes)`` entries of the Cayley tangent ``(I + xi^T/2) eta
        (I - xi^T/2) = eta + R/2 - L/2 - R(L)/4``, ``L``, ``R`` a term's sums."""
        term = self._load(eta, xi, 2)
        sums = self._at_picks @ term
        twice = (self._at_picks @ (self._mat @ term)[0::2])[1::2]
        total = term[self._picks] + 0.5 * (sums[1::2] - sums[0::2]) - 0.25 * twice
        return total.reshape(4, -1)


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
    """One color per column, no two columns of one color reaching a common
    row, when column ``p`` reaches the rows of column ``p`` of the symmetric
    pattern ``near``: a greedy first-fit, most conflicts first, so the
    colors are ``0 .. color.max()``."""
    conflicts = _pattern(near @ near)  # columns that share a row
    indptr, indices = conflicts.indptr, conflicts.indices
    color = np.full(near.shape[0], -1)
    for p in np.argsort(-np.diff(indptr), kind="stable"):  # most conflicts first
        used = color[indices[indptr[p] : indptr[p + 1]]]
        taken = np.zeros(len(used) + 1, dtype=bool)
        taken[used[(used >= 0) & (used <= len(used))]] = True
        color[p] = np.argmin(taken)  # the first free color
    return color


# ---------------------------------------------------------------------------
# Variational stepper
# ---------------------------------------------------------------------------


@dataclass
class StepReport:
    """Solver effort of one step; ``residual_evals`` counts every momentum
    residual: the full ones of Newton and the first-order ones of the
    Jacobian builds, two per color of each build.  ``colors`` is the color
    count ``color.max() + 1`` of the stencil's coloring in a step that
    builds, 0 in one that does not.  ``series_terms`` sums the guard's term
    count ``K`` of the step's full residuals, each fixed from ``|hA|``
    (:func:`decflow.groups.dtau_inv_coefficients`), the cold start's
    transport included: 0 for the Cayley map and at rest.  An odd ``K``
    counts its zero last term, which :class:`SampledSeries` skips.
    ``friction_power`` is the cell-wise friction power of the step's new
    velocity, or in :meth:`VariationalStepper.run`'s step 0 report of the
    initial one, for the observer to reuse."""

    newton_iters: int = 0
    entropy_iters: int = 0
    jacobian_builds: int = 0
    residual_evals: int = 0
    colors: int = 0
    series_terms: int = 0
    friction_power: np.ndarray | None = None


@dataclass(frozen=True)
class Carry:
    """What a step passes to the next, keyed by the fluxes it returned:
    ``flux``, ``layout.from_matrix`` of the returned velocity; the fluxes
    ``flux_from`` the step started from; the next step's ``old_side``, of the
    returned velocity and the step's starting density; the Newton matrix's
    SuperLU ``lu`` and its ``fresh`` count (:func:`_refresh`).  The arrays are
    the carry's own.  A cold start steps from ``Carry(f, f, old_side, None,
    None)``."""

    flux: np.ndarray
    flux_from: np.ndarray
    old_side: np.ndarray
    lu: SuperLU | None
    fresh: int | None


def _refresh(carry, report, lu):
    """The LU and the fresh count to carry after a step that started from
    ``carry`` and ended on ``lu`` (Kelley's Shamanskii variant, 1995, ch. 5).
    The fresh count is the Newton iterations of the first step solved wholly
    on the LU, the step after the one that built it.  Once a later step that
    made no build needs more than ``2 max(fresh, 1)`` iterations, the LU is
    dropped, so that the next step builds at its first iteration."""
    fresh = carry.fresh
    if report.jacobian_builds:
        return lu, None
    if fresh is None:
        return lu, report.newton_iters
    if report.newton_iters > 2 * max(fresh, 1):
        return None, fresh
    return lu, fresh


class VariationalStepper:
    """Advances the fully discrete system one step at a time (:meth:`step`).
    ``heat_source`` is the per-cell heating rate ``R``, constant in time,
    or None for no heating.  ``carry`` is what the last step passed on
    (:class:`Carry`), None before the first step; setting it to None makes
    the next step a cold start.
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
        self._p2_rows = np.concatenate([geom.adj_i, geom.ta_row])  # the row of each P2 pair
        self.carry: Carry | None = None

    # -- momentum ----------------------------------------------------------

    def _transport_term(self, a, d):
        """``(1/h) P((dtau_inv_{hA})^* (D A^flat))`` on the layout, with the
        adjoint's division by ``Omega`` applied to the entries that ``P``
        reads; the series' term count comes from the guard on the entries of
        ``(hA)^T``."""
        eta, xi = self._operands(a, d)
        if self.kind == "cayley":
            star = self._series.cayley(eta, xi)
        else:
            csr = self.geom.adjacency_csr
            coeffs = gr.dtau_inv_coefficients(csr.rows, csr.cols, xi[csr.take_t], self.geom.n)
            self._series.terms += len(coeffs)
            star = self._series(eta, xi, coeffs)
        return self.layout.project(star, self.geom.omega) / self.h

    def _first_order_term(self, a, d):
        """:meth:`_transport_term` with the series cut after ``eta - [eta, xi^T]/2``."""
        star = self._series(*self._operands(a, d), (-0.5,))  # B_1 / 1!
        return self.layout.project(star, self.geom.omega) / self.h

    @functools.cached_property
    def _series(self):
        return SampledSeries(self.layout)

    def _operands(self, a, d):
        """``eta = Omega D A^flat`` on P2 and ``xi = h A`` on ``[pairs,
        diagonal]``."""
        rows = self._p2_rows
        eta = fd.flat_p2(self.geom, a) * d[rows] * self.geom.omega[rows]
        return eta, np.concatenate([a, self.geom.diagonal(a)]) * self.h

    def _old_side(self, a, d, transport):
        """The transport at ``-hA`` from ``transport``, :meth:`_transport_term`
        at ``+hA`` with the same ``d``: for both group maps the tangents at
        ``-xi`` and ``xi`` differ by ``dtau_inv_{-xi}(eta) - dtau_inv_{xi}(eta)
        = [eta, xi]`` (only the exponential's ``B_1`` term is odd in ``xi``),
        so the old side costs one bracket at four entries per flux, not a
        series."""
        bracket = self._series.bracket(*self._operands(a, d))
        return transport + self.layout.project(bracket, self.geom.omega) / self.h

    def _residual(self, d, s, prev_term):
        """The step's momentum residual ``residual(flux, transport) -> (r,
        transport term)``, ``transport`` the :meth:`_transport_term` or the
        :meth:`_first_order_term`, and ``Theta(d, s)``.  The closure of the
        fixed ``(d, s)`` is evaluated once, here, with the gradient forces'
        ``Dbar`` and ``Sbar (dl/dS_j - dl/dS_i)``; a call adds ``Dbar (dl/dD_j
        - dl/dD_i)``, ``dl/dD = K/2 - eps_D``."""
        i, j = self.layout.rows, self.layout.cols
        _, eps_d, theta = ph.internal_energy(d, s, self.gas)
        d_mean, s_term = fd.pair_mean(d, i, j), fd.pair_mean(s, i, j) * fd.pair_diff(-theta, i, j)

        def residual(flux, transport):
            a = self.layout.to_matrix(flux)
            cur = transport(a, d)
            grad = d_mean * fd.pair_diff(0.5 * ph.kinetic_density(self.geom, a) - eps_d, i, j) + s_term
            visc = ph.viscous_force(self.geom, a, self.phys)[self.layout.pos]
            return cur - prev_term + grad - visc, cur

        return residual, theta

    @functools.cached_property
    def _colors(self):
        """The first-order residual's stencil, which is the CSC structure of
        Newton's matrix, and the color of each of its columns."""
        near = _stencil(self.layout)
        return near, _coloring(near)

    def _jacobian(self, flux, residual):
        """Newton's matrix: the Jacobian of ``residual`` on the first-order
        transport, whose cut adds ``O(|hA|^2)`` relative to the full one, so
        Newton is a chord method (Kelley 1995, ch. 5) that converges to the
        full residual's solution.  A central difference with the step ``1e-7
        max(|f_p|, 1)`` per flux ``p``, colored (Curtis, Powell & Reid 1974):
        one residual pair per color, each row's quotient gathered in one pass
        from the one column of its color that reaches it, so it is the
        column-by-column difference bit for bit.  Returns the CSC Jacobian and
        the residuals it took."""
        near, color = self._colors
        owner = np.repeat(np.arange(len(color)), np.diff(near.indptr))  # the column of each stored entry
        step = _FD_STEP * np.maximum(np.abs(flux), 1.0)
        diff = np.empty((color.max() + 1, len(flux)))
        for c, row in enumerate(diff):
            cols = color == c
            fp = flux.copy()
            fp[cols] += step[cols]
            rp = residual(fp, self._first_order_term)[0]
            fp[cols] -= 2 * step[cols]
            row[:] = rp - residual(fp, self._first_order_term)[0]
        data = diff[color[owner], near.indices] / (2 * step[owner])
        return sparse.csc_array((data, near.indices, near.indptr), shape=near.shape), 2 * len(diff)

    def _solve_momentum(self, flux0, residual, lu, d_mean):
        """Newton on the fluxes from ``flux0`` for ``residual``, on the sparse
        LU ``lu``, built at the first iteration when None and rebuilt when an
        iteration reduces the residual by less than half (at most 3 builds; a
        singular matrix raises).  Returns the solution, the LU it ended on, a
        report of the effort (``entropy_iters`` 0) and the converged transport.

        Newton solves the balance per unit density: the LU is of the Jacobian
        with row ``q`` divided by ``d_mean[q]``, the pair mean ``Dbar`` of the
        step's density at flux ``q``, and each update solves for ``r /
        d_mean``.  To leading order row ``q`` is ``Dbar_q`` times a function
        of the geometry, ``h`` and the fluxes, so the carried LU barely ages
        as the density moves between steps.  The root and the stopping test,
        ``max|r| <= newton_tol`` of the unscaled ``r``, are the plain
        balance's."""
        flux = flux0.copy()
        report = StepReport()
        if self.layout.size == 0:
            return flux, lu, report, np.zeros(0)
        prev_norm = np.inf
        for it in range(1, self.newton_max + 1):
            r, transport = residual(flux, self._transport_term)
            report.residual_evals += 1
            norm = float(np.max(np.abs(r)))
            if not np.isfinite(norm):
                raise StateRangeError("momentum residual is not finite; reduce the time step")
            if norm <= self.newton_tol:
                report.newton_iters = it - 1
                return flux, lu, report, transport
            if lu is None or (norm > 0.5 * prev_norm and report.jacobian_builds < 3):
                jac, evals = self._jacobian(flux, residual)
                jac.data /= d_mean[jac.indices]  # CSC indices are rows
                try:
                    lu = lu_factor(jac)
                except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
                    raise StateRangeError("Newton matrix is singular; reduce the time step") from exc
                report.jacobian_builds += 1
                report.residual_evals += evals
                report.colors = int(self._colors[1].max()) + 1
            flux = flux - lu_solve(lu, r / d_mean)
            if not np.all(np.isfinite(flux)):
                raise StateRangeError(
                    "Newton update is not finite; reduce the time step"
                )
            prev_norm = norm
        raise IntegratorError(
            f"momentum solve stalled at residual {prev_norm:.3e} "
            f"(tolerance {self.newton_tol:.1e}); reduce the time step"
        )

    # -- entropy -----------------------------------------------------------

    def _solve_entropy(self, back, d_old, s_old, d_new, theta_old, fric):
        """Fixed point ``S = M - h div J(Theta(S))`` for ``S^{k+1}`` (before
        boundary enforcement): ``M`` is the old entropy plus the heat over the
        old temperature, moved by ``back``, the action of ``tau(-h A^k)``.
        An update no smaller than the last is halved toward ``S``.  This
        carries the runs whose plain iteration stalls at step 1 (the 6x5 mesh
        heated at ``lambda = 1``, the 3880-cell taylor run at ``h = 5e-4``)
        until a Newton solve (ROADMAP item 4) replaces it."""
        geom, phys, gas, h = self.geom, self.phys, self.gas, self.h
        rhs_const = h * fric - h * ph.conduction(geom, theta_old, phys)[1]
        if self.heat_source is not None:
            rhs_const = rhs_const + h * d_old * self.heat_source
        moved = fd.group_act_den(geom, s_old + rhs_const / theta_old, back)
        s, prev_delta = s_old.copy(), np.inf
        for it in range(1, self.entropy_max + 1):
            theta_new = ph.temperature(d_new, s, gas)
            s_next = moved - h * ph.conduction(geom, theta_new, phys)[0]
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
        density one step back, to the new one.  When the fluxes of ``state.a``
        equal the key of :attr:`carry`, as a returned velocity's and its
        copies' do, the old side, the LU and Newton's start ``2 f_{k-1} -
        f_{k-2}`` come from the carry.  Any other velocity is a cold start, bit
        for bit a new stepper's.  The next carry, with the new velocity's old
        side, is set once, after every check has passed, so a step that raises
        leaves it.
        """
        geom, gas, phys, h = self.geom, self.gas, self.phys, self.h
        flux_in = self.layout.from_matrix(state.a)
        carry = self.carry
        terms = self._series.terms
        try:
            if carry is None or not np.array_equal(flux_in, carry.flux):  # a cold start
                old_side = self._old_side(state.a, state.d, self._transport_term(state.a, state.d))
                carry = Carry(flux_in, flux_in, old_side, None, None)
            residual, theta_old = self._residual(state.d, state.s, carry.old_side)
            d_mean = fd.pair_mean(state.d, self.layout.rows, self.layout.cols)
            flux, lu, report, transport = self._solve_momentum(
                2.0 * flux_in - carry.flux_from, residual, carry.lu, d_mean
            )
            report.series_terms = self._series.terms - terms
            a_new = self.layout.to_matrix(flux)
            csr = geom.adjacency_csr
            values = np.concatenate([a_new, geom.diagonal(a_new)])[csr.take]
            back = gr.tau_action(csr.rows, csr.cols, values * -h, geom.n, self.kind)
        except gr.GroupMapError as exc:
            raise SeriesRangeError(str(exc)) from exc

        d_new = fd.group_act_den(geom, state.d, back)
        if not np.all(d_new > 0.0):
            raise StateRangeError(
                f"density not positive after transport (min {np.min(d_new):.3e}); "
                "reduce the time step"
            )

        fric = report.friction_power = ph.friction_power(geom, a_new, phys)
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            s_new, report.entropy_iters = self._solve_entropy(back, state.d, state.s, d_new, theta_old, fric)
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

        old_side = self._old_side(a_new, state.d, transport)
        self.carry = Carry(self.layout.from_matrix(a_new), flux_in, old_side, *_refresh(carry, report, lu))
        return ph.FluidState(a_new, d_new, s_new), report

    def run(self, state: ph.FluidState, steps: int, observer=None):
        """Advance ``steps`` steps from ``t = 0``, invoking
        ``observer(k, t, state, report)`` after each and at step 0, whose
        report carries only the initial friction power; solver failures are
        re-raised annotated with the step."""
        t = 0.0
        if observer is not None:
            observer(0, t, state, StepReport(friction_power=ph.friction_power(self.geom, state.a, self.phys)))
        for k in range(1, steps + 1):
            try:
                state, report = self.step(state)
            except IntegratorError as exc:
                raise type(exc)(f"step {k}: {exc}") from exc
            t = k * self.h
            if observer is not None:
                observer(k, t, state, report)
        return state
