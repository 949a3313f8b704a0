"""The group tangents on a dense ``xi``: the Bernoulli series, its guard and
the area-weighted adjoint with dense matrix products.

:mod:`decflow.groups` takes ``xi`` in sparse form only.  This is the dense
path it replaced, kept as the oracle that the sparse series is checked
against; it shares the Bernoulli numbers and the Cayley factors.  The
first-order transport on a dense ``eta`` (:func:`first_order_transport`)
is the oracle of the stepper's sampled one, and the full series at
``-hA`` (:func:`old_side_series`) that of its old side; both read the
dense result at four entries per flux (:func:`pick_P`).
"""

import math

import numpy as np

from decflow import fields as fd
from decflow import groups as gr


def commutator(a, b):
    return a @ b - b @ a


def norm_bound(x) -> float:
    """``sqrt(|x|_1 |x|_inf)`` from the dense absolute sums."""
    ax = np.abs(x)
    return float(np.sqrt(ax.sum(axis=0).max() * ax.sum(axis=1).max()))


def series_guard(xi) -> None:
    bound = norm_bound(xi)
    if bound < 1.0 - 1e-12:
        return
    if not math.isfinite(bound):
        raise gr.GroupMapError("tangent-map series argument is not finite; reduce the time step")
    norm = float(np.linalg.norm(xi, 2))
    if norm >= 1.0:
        raise gr.GroupMapError(
            f"tangent-map series needs |xi| < 1, got {norm:.3e}; "
            "reduce the time step"
        )


def dtau(xi, delta, kind="exponential"):
    xi, delta = np.asarray(xi, dtype=float), np.asarray(delta, dtype=float)
    if kind == "cayley":
        p, q = gr._cayley_factors(xi)
        return np.linalg.solve(q, np.linalg.solve(p.T, delta.T).T)
    series_guard(xi)
    scale = float(np.max(np.abs(delta))) or 1.0
    term = delta.copy()
    total = term.copy()
    for n in range(1, gr._SERIES_CAP + 1):
        term = commutator(term, xi) / (n + 1.0)
        total += term
        if float(np.max(np.abs(term))) <= 1e-14 * scale:
            break
    return total


def dtau_inv(xi, eta, kind="exponential"):
    xi, eta = np.asarray(xi, dtype=float), np.asarray(eta, dtype=float)
    if kind == "cayley":
        p, q = gr._cayley_factors(xi)
        return q @ eta @ p
    series_guard(xi)
    scale = float(np.max(np.abs(eta))) or 1.0
    term = eta.copy()
    total = term.copy()
    factorial = 1.0
    for n in range(1, gr._SERIES_CAP + 1):
        term = commutator(term, xi)
        factorial *= n
        coeff = gr._BERNOULLI[n] / factorial
        if coeff != 0.0:
            total += coeff * term
        if float(np.max(np.abs(term))) / factorial <= 1e-14 * scale:
            break
    return total


def dtau_inv_star(omega, xi, lmat, kind="exponential"):
    wl = omega[:, None] * np.asarray(lmat, dtype=float)
    return dtau_inv(np.asarray(xi, dtype=float).T, wl, kind) / omega[:, None]


def pick_P(layout, mat, omega):
    """``proj_P(mat / omega[:, None])`` at the fluxes of ``layout``, read
    from the four entries ``(r, c)``, ``(c, r)``, ``(r, r)`` and ``(c, c)``
    of each flux instead of the whole matrix."""
    r, c = layout.rows, layout.cols
    return layout.project(np.stack([mat[r, c], mat[c, r], mat[r, r], mat[c, c]]), omega)


def order_one(geom, a, d, xi_scale):
    """The dense ``eta = Omega D A^flat`` and ``[eta, xi^T]`` for
    ``xi = xi_scale * A``, by :func:`decflow.groups.commutator`."""
    eta = geom.omega[:, None] * (fd.flat(geom, a) * d[:, None])
    return eta, gr.commutator(eta, (fd.velocity_csr(geom, a) * xi_scale).T)


def first_order_transport(layout, a, d, h, sign):
    """``(1/h) P(eta - [eta, xi^T]/2)`` at the fluxes, ``xi = sign*h*A``:
    the transport with the ``dtau_inv`` series cut after order 1, picked by
    :func:`pick_P` from dense matrices."""
    geom = layout.geom
    eta, bracket = order_one(geom, a, d, sign * h)
    return pick_P(layout, eta - 0.5 * bracket, geom.omega) / h


def old_side(layout, a, d, h, transport):
    """The transport at ``-hA`` from ``transport``, the one at ``+hA``:
    ``transport + (1/h) P([eta, xi^T])`` with ``xi = h A``."""
    _, bracket = order_one(layout.geom, a, d, h)
    return transport + pick_P(layout, bracket, layout.geom.omega) / h


def old_side_series(layout, a, d, h, kind="exponential"):
    """``(1/h) P((dtau_inv_{-hA})^* (D A^flat))`` at the fluxes: the old-side
    transport by the dense series at ``-hA``, picked by :func:`pick_P`."""
    geom = layout.geom
    lmat = fd.flat(geom, a) * d[:, None]
    star = dtau_inv_star(geom.omega, (fd.velocity_csr(geom, a) * -h).toarray(), lmat, kind)
    return pick_P(layout, star, np.ones(geom.n)) / h
