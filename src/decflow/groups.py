"""Matrix group maps used by the discrete-time integrator.

A group difference map ``tau`` turns a scaled velocity matrix into a
transport matrix close to the identity; the integrator needs the action of
``tau`` on vectors (:func:`tau_action`), the left-trivialized tangent
``dtau`` of ``tau``, its inverse ``dtau_inv``, and the adjoint of
``dtau_inv`` with respect to the area-weighted pairing.

Two kinds are provided:

* ``"exponential"``: the matrix exponential.  ``dtau_inv`` is the classical
  Bernoulli-number series ``sum_n (B_n / n!) ad_{-xi}^n(eta)`` (with the
  ``B_1 = -1/2`` convention); ``dtau`` is the series
  ``sum_n (1/(n+1)!) ad_{-xi}^n(delta)``.  Both run ``K`` terms, fixed
  before the first from the guard's bound on ``|xi|_2`` (:func:`_series_terms`).
* ``"cayley"``: ``(I - xi/2)^-1 (I + xi/2)`` with the closed-form tangents
  ``dtau(delta) = (I + xi/2)^-1 delta (I - xi/2)^-1`` and
  ``dtau_inv(eta) = (I + xi/2) eta (I - xi/2)``; ``tau`` and ``dtau`` raise
  where a solve with ``I -+ xi/2`` fails.  The Cayley map does not preserve
  the row-sum-zero structure of transported quantities the way the
  exponential does, so the exponential is the default everywhere.

The functions the step calls, :func:`tau_action`, :func:`norm_bound` and
:func:`dtau_inv_coefficients`, take ``xi`` as its stored entries: their
``rows``, ``cols`` and values ``vals`` and the size ``n``, such as the
values of a velocity at the pattern of :class:`decflow.mesh.AdjacencyCSR`.
The Cayley action and the guard's SVD densify them.  :func:`tau` (of a
dense ``xi``), :func:`commutator` (two sparse-times-dense products by
SciPy's ``@``), :func:`dtau`, :func:`dtau_inv` and :func:`dtau_inv_star`
are dense references for the checks and tests; they take ``xi`` as a SciPy
CSR or CSC array and run the same guard on its entries.  The step evaluates the
series at the entries it reads (:class:`decflow.integrator.SampledSeries`),
with the term count of :func:`dtau_inv_coefficients` and the same bits.

Both kinds satisfy, for any square ``xi`` and ``delta``,

    dtau_{-xi}(delta)                  = Ad_{tau(xi)} dtau_{xi}(delta)
    dtau_inv_{-xi}(Ad_{tau(xi)} delta) = dtau_inv_{xi}(delta)

which the verification suite checks.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.linalg import expm

__all__ = [
    "tau",
    "tau_action",
    "dtau",
    "dtau_inv",
    "dtau_inv_star",
    "commutator",
    "dtau_inv_coefficients",
    "norm_bound",
    "GroupMapError",
    "KINDS",
]

KINDS = ("exponential", "cayley")

_SERIES_CAP = 24


def _coefficients(cap: int):
    """Bernoulli numbers ``B_0 .. B_cap`` (``B_1 = -1/2``), correctly rounded
    from ``B_n = -sum_{k<n} C(n+1, k) B_k / (n+1)`` in fractions, and the
    coefficients of ``ad_{-xi}^n``, ``n = 1 .. cap``: ``B_n / n!`` of
    ``dtau_inv``, ``1 / (n+1)!`` of ``dtau``, with ``n!`` by ``f *= n``."""
    b, inv, fwd, factorial = [Fraction(1)], [], [], 1.0
    for n in range(1, cap + 1):
        b.append(-sum(math.comb(n + 1, k) * b[k] for k in range(n)) / (n + 1))
        factorial *= n
        inv.append(float(b[n]) / factorial)
        fwd.append(1.0 / (factorial * (n + 1)))
    return [float(x) for x in b], inv, fwd


_BERNOULLI, _DTAU_INV_COEFFS, _DTAU_COEFFS = _coefficients(_SERIES_CAP)


class GroupMapError(ValueError):
    """Raised for unknown kinds, singular Cayley denominators, or arguments
    too large for the tangent series to converge."""


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise GroupMapError(f"unknown group map kind {kind!r}; use one of {KINDS}")


def commutator(a: np.ndarray, b) -> np.ndarray:
    """``[a, b] = a b - b a`` for a dense ``a`` and a sparse ``b``, which
    multiplies from the right as ``a b = (b^T a^T)^T``: two
    sparse-times-dense products."""
    return _bracket(a, b, b.T)


def _bracket(a, b, bt) -> np.ndarray:
    """:func:`commutator` with the transpose ``bt`` of ``b`` given, so that
    a series forms it once and not once per term."""
    a = np.asarray(a, dtype=float)
    return (bt @ a.T).T - b @ a


def _entries(x):
    """The rows, columns and values of the stored entries of a SciPy CSR or
    CSC ``x``, in stored order, and its size."""
    major = np.repeat(np.arange(len(x.indptr) - 1), np.diff(x.indptr))
    rows, cols = (major, x.indices) if x.format == "csr" else (x.indices, major)
    return rows, cols, x.data, x.shape[0]


def _dense(rows, cols, vals, n) -> np.ndarray:
    """The ``(n, n)`` matrix of the entries ``vals`` at ``(rows, cols)``."""
    out = np.zeros((n, n))
    out[rows, cols] = vals
    return out


def _cayley_factors(xi: np.ndarray):
    """``p = I - xi/2`` and ``q = I + xi/2`` of a dense ``xi``."""
    eye = np.eye(xi.shape[0])
    return eye - 0.5 * xi, eye + 0.5 * xi


def _cayley_solve(factor: np.ndarray, rhs: np.ndarray, eigenvalue: str) -> np.ndarray:
    """``factor^-1 rhs``; a singular ``factor``, ``I -+ xi/2``, means that
    ``eigenvalue``, ``2`` or ``-2``, is an eigenvalue of ``xi``."""
    try:
        return np.linalg.solve(factor, rhs)
    except np.linalg.LinAlgError:
        raise GroupMapError(f"cayley map is singular: {eigenvalue} is an eigenvalue of xi") from None


def tau(xi: np.ndarray, kind: str = "exponential") -> np.ndarray:
    """Group difference map: matrix exponential or Cayley transform, of a
    dense ``xi``."""
    _check_kind(kind)
    xi = np.asarray(xi, dtype=float)
    if kind == "exponential":
        return expm(xi)
    p, q = _cayley_factors(xi)
    return _cayley_solve(p, q, "2")


def _tail_terms(x: float, tol: float) -> int:
    """Least ``K`` with ``x^(K+1)/(K+1)! / (1 - x/(K+2)) <= tol``: the tail
    bound of the exponential's Taylor series at ``x`` after order ``K``
    (``0 <= x < 2``)."""
    order, term = 0, x  # term = x^(order+1) / (order+1)!
    while term / (1.0 - x / (order + 2)) > tol:
        order += 1
        term *= x / (order + 1)
    return order


def tau_action(rows, cols, vals, n, kind: str = "exponential"):
    """The map ``w -> tau(xi)^T w`` of the ``(n, n)`` ``xi`` whose stored
    entries are ``vals`` at ``(rows, cols)``, for applying one group element
    to several vectors without forming it.

    For the exponential, ``exp(xi^T) w = (exp(xi^T / s))^s w`` with
    ``s = max(1, ceil(|xi|_1))``, and each factor is the Taylor series
    ``sum_k (xi^T / s)^k w / k!`` cut after the order ``K`` whose tail bound,
    from ``|xi^T|_inf = |xi|_1``, is at most ``2^-53 |w|_inf``.  ``s`` and
    ``K`` are fixed per action, so every application costs ``s K`` products
    of ``xi^T`` with a vector, each a gather and an ``np.bincount`` over the
    stored entries.  The Cayley element is formed once, from the entries.
    """
    _check_kind(kind)
    if kind == "cayley":
        qt = tau(_dense(rows, cols, vals, n), kind).T
        return lambda w: qt @ w
    norm = float(np.bincount(cols, np.abs(vals), minlength=n).max())
    if not math.isfinite(norm):
        raise GroupMapError("group map argument is not finite")
    steps = max(1, math.ceil(norm))
    vals = vals / steps
    terms = _tail_terms(norm / steps, 2.0**-53)

    def act(w):
        w = np.asarray(w, dtype=float)
        for _ in range(steps):
            term = total = w
            for k in range(1, terms + 1):
                term = np.bincount(cols, vals * term[rows], minlength=n) / k
                total = total + term
            w = total
        return w

    return act


def norm_bound(rows, cols, vals, n) -> float:
    """``sqrt(|x|_1 |x|_inf)``, an upper bound on the spectral norm
    ``|x|_2`` that costs two absolute sums over the stored entries ``vals``
    at ``(rows, cols)`` of an ``(n, n)`` ``x`` instead of an SVD.  It is
    ``inf`` once the product of the two norms overflows."""
    ax = np.abs(vals)
    cols_sum = np.bincount(cols, ax, minlength=n)
    rows_sum = np.bincount(rows, ax, minlength=n)
    with np.errstate(over="ignore"):
        return float(np.sqrt(cols_sum.max() * rows_sum.max()))


def _series_terms(rows, cols, vals, n) -> int:
    """The exponential tangent series' guard, which raises unless ``|xi|_2 <
    1``, and term count ``K``: its tail bound (:func:`_tail_terms`) at ``2
    nu >= |ad_xi|_2`` is at most ``1e-14``, ``nu`` being :func:`norm_bound`
    of the entries of ``xi`` or, where that does not clear 1, ``|xi|_2`` by
    SVD.  ``K <= 21``."""
    # The bound decides only well clear of 1, so rounding in it or in the
    # SVD cannot make its decision differ from the SVD's.
    bound = norm_bound(rows, cols, vals, n)
    if bound < 1.0 - 1e-12:
        return _tail_terms(2.0 * bound, 1e-14)
    if not math.isfinite(bound):  # the SVD would not converge
        raise GroupMapError("tangent-map series argument is not finite; reduce the time step")
    norm = float(np.linalg.norm(_dense(rows, cols, vals, n), 2))
    if norm >= 1.0:
        raise GroupMapError(f"tangent-map series needs |xi| < 1, got {norm:.3e}; reduce the time step")
    return _tail_terms(2.0 * norm, 1e-14)


def _ad_series(xi, eta: np.ndarray, coeffs) -> np.ndarray:
    """``eta + sum_{n >= 1} coeffs[n-1] ad_{-xi}^n(eta)``, one commutator per
    coefficient, the terms added in ascending ``n``."""
    xt, term, total = xi.T, eta, eta.copy()
    for coeff in coeffs:
        term = _bracket(term, xi, xt)
        if coeff != 0.0:
            total += coeff * term
    return total


def dtau(xi, delta: np.ndarray, kind: str = "exponential") -> np.ndarray:
    """Left-trivialized tangent of ``tau`` at ``xi`` applied to ``delta``:
    ``tau(xi)^-1 d/dt tau(xi + t delta)``; for the exponential the series
    ``delta + [delta, xi]/2 + [[delta, xi], xi]/6 + ...`` (:func:`_series_terms`)."""
    _check_kind(kind)
    delta = np.asarray(delta, dtype=float)
    if kind == "cayley":
        p, q = _cayley_factors(xi.toarray())
        # Q^-1 delta P^-1, computed as solve(Q, delta) then right-divide by P
        return _cayley_solve(q, _cayley_solve(p.T, delta.T, "2").T, "-2")
    return _ad_series(xi, delta, _DTAU_COEFFS[: _series_terms(*_entries(xi))])


def dtau_inv_coefficients(rows, cols, vals, n) -> list:
    """The coefficients ``B_n / n!`` of ``ad_{-xi}^n``, ``n = 1 .. K``, of the
    exponential's ``dtau_inv`` series at the ``xi`` of the entries ``vals``
    at ``(rows, cols)``, ``K`` from the guard (:func:`_series_terms`), which
    raises unless ``|xi|_2 < 1``."""
    return _DTAU_INV_COEFFS[: _series_terms(rows, cols, vals, n)]


def dtau_inv(xi, eta: np.ndarray, kind: str = "exponential") -> np.ndarray:
    """Inverse trivialized tangent; for the exponential the Bernoulli series
    ``eta + [xi, eta]/2 + [xi, [xi, eta]]/12 - ...`` (:func:`_series_terms`)."""
    _check_kind(kind)
    eta = np.asarray(eta, dtype=float)
    if kind == "cayley":
        p, q = _cayley_factors(xi.toarray())
        return q @ eta @ p
    return _ad_series(xi, eta, dtau_inv_coefficients(*_entries(xi)))


def dtau_inv_star(omega: np.ndarray, xi, lmat: np.ndarray, kind: str = "exponential") -> np.ndarray:
    """Adjoint of ``dtau_inv`` in the area-weighted pairing
    ``<L, B> = Tr(L^T Omega B)``: equals ``Omega^-1 dtau_inv(xi^T, Omega L)``
    (the pairing turns each ``ad_{-xi}`` into ``Omega^-1 ad_{-xi^T} Omega``)."""
    wl = omega[:, None] * np.asarray(lmat, dtype=float)
    return dtau_inv(xi.T, wl, kind) / omega[:, None]
