"""Matrix group maps used by the discrete-time integrator.

A group difference map ``tau`` turns a scaled velocity matrix into a
transport matrix close to the identity; the integrator needs the action of
``tau`` on vectors (:func:`tau_action`), the left-trivialized tangent
``dtau`` of ``tau``, its inverse ``dtau_inv``, and the adjoint of
``dtau_inv`` with respect to the area-weighted pairing.

Two kinds are provided:

* ``"exponential"``: the matrix exponential.  ``dtau_inv`` is the classical
  Bernoulli-number series ``sum_n (B_n / n!) ad_{-xi}^n(eta)`` (with the
  ``B_1 = -1/2`` convention), truncated adaptively; ``dtau`` is the series
  ``sum_n (1/(n+1)!) ad_{-xi}^n(delta)``.
* ``"cayley"``: ``(I - xi/2)^-1 (I + xi/2)`` with the closed-form tangents
  ``dtau(delta) = (I + xi/2)^-1 delta (I - xi/2)^-1`` and
  ``dtau_inv(eta) = (I + xi/2) eta (I - xi/2)``.  Note the Cayley map does
  not preserve the row-sum-zero structure of transported quantities the way
  the exponential does, so the exponential is the default everywhere.

The tangents and the series guard take ``xi`` as a dense array or as a
SciPy sparse array whose ``.T`` is kept ready, such as the CSR form of a
velocity matrix from :class:`decflow.mesh.AdjacencyCSR`; the series code is
the same for both.  Each term ``T xi - xi T`` is then two sparse-times-dense
products, ``xi T`` and ``(xi^T T^T)^T``, instead of two dense ``N^3``
products.  The Cayley tangents and the guard's SVD use the dense form.

Both kinds satisfy, for any square ``xi`` and ``delta``,

    dtau_{-xi}(delta)                  = Ad_{tau(xi)} dtau_{xi}(delta)
    dtau_inv_{-xi}(Ad_{tau(xi)} delta) = dtau_inv_{xi}(delta)

which the verification suite checks.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy import sparse
from scipy.linalg import expm

__all__ = [
    "tau",
    "tau_action",
    "dtau",
    "dtau_inv",
    "dtau_inv_star",
    "commutator",
    "norm_bound",
    "series_order",
    "GroupMapError",
    "KINDS",
]

KINDS = ("exponential", "cayley")

_SERIES_CAP = 24


def _bernoulli(cap: int) -> list:
    """Bernoulli numbers ``B_0 .. B_cap`` (``B_1 = -1/2``), each correctly
    rounded: ``B_n = -sum_{k<n} C(n+1, k) B_k / (n+1)`` in exact fractions."""
    b = [Fraction(1)]
    for n in range(1, cap + 1):
        b.append(-sum(math.comb(n + 1, k) * b[k] for k in range(n)) / (n + 1))
    return [float(x) for x in b]


_BERNOULLI = _bernoulli(_SERIES_CAP)
_COEFF = [abs(b) / math.factorial(n) for n, b in enumerate(_BERNOULLI)]  # |B_n| / n!


class GroupMapError(ValueError):
    """Raised for unknown kinds, singular Cayley denominators, or arguments
    too large for the tangent series to converge."""


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise GroupMapError(f"unknown group map kind {kind!r}; use one of {KINDS}")


def commutator(a: np.ndarray, b) -> np.ndarray:
    """``[a, b] = a b - b a``.  A sparse ``b`` multiplies from the right
    as ``a b = (b^T a^T)^T``, a sparse-times-dense product."""
    if sparse.issparse(b):
        return (b.T @ a.T).T - b @ a
    return a @ b - b @ a


def _operand(xi):
    """A series argument as given if sparse, else as a float array."""
    return xi if sparse.issparse(xi) else np.asarray(xi, dtype=float)


def _dense(xi) -> np.ndarray:
    return xi.toarray() if sparse.issparse(xi) else np.asarray(xi, dtype=float)


def _cayley_factors(xi: np.ndarray):
    xi = _dense(xi)
    n = xi.shape[0]
    eye = np.eye(n)
    p = eye - 0.5 * xi
    q = eye + 0.5 * xi
    if abs(np.linalg.det(p)) < 1e-300:
        raise GroupMapError("cayley map is singular: 2 is an eigenvalue of xi")
    return p, q


def tau(xi: np.ndarray, kind: str = "exponential") -> np.ndarray:
    """Group difference map: matrix exponential or Cayley transform."""
    _check_kind(kind)
    xi = np.asarray(xi, dtype=float)
    if kind == "exponential":
        return expm(xi)
    p, q = _cayley_factors(xi)
    return np.linalg.solve(p, q)


def _taylor_terms(norm: float) -> int:
    """Least ``K`` with ``norm^(K+1)/(K+1)! / (1 - norm/(K+2)) <= 2^-53``:
    the tail bound of the exponential's Taylor series after order ``K``
    (``norm <= 1``)."""
    order, term = 0, norm  # term = norm^(order+1) / (order+1)!
    while term / (1.0 - norm / (order + 2)) > 2.0**-53:
        order += 1
        term *= norm / (order + 1)
    return order


def tau_action(xi: np.ndarray, kind: str = "exponential"):
    """The map ``w -> tau(xi)^T w``, for applying one group element to
    several vectors without forming it.

    For the exponential, ``exp(xi^T) w = (exp(xi^T / s))^s w`` with
    ``s = max(1, ceil(|xi|_1))``, and each factor is the Taylor series
    ``sum_k (xi^T / s)^k w / k!`` cut after the order ``K`` whose tail bound,
    from ``|xi^T|_inf = |xi|_1``, is at most ``2^-53 |w|_inf``.  ``s`` and
    ``K`` are fixed per action, so every application costs ``s K``
    matrix-vector products.  The Cayley element is formed once.
    """
    _check_kind(kind)
    xi = np.asarray(xi, dtype=float)
    if kind == "cayley":
        qt = tau(xi, kind).T
        return lambda w: qt @ w
    norm = float(np.abs(xi).sum(axis=0).max())
    if not math.isfinite(norm):
        raise GroupMapError("group map argument is not finite")
    steps = max(1, math.ceil(norm))
    xt = xi.T / steps
    terms = _taylor_terms(norm / steps)

    def act(w):
        w = np.asarray(w, dtype=float)
        for _ in range(steps):
            term = total = w
            for k in range(1, terms + 1):
                term = (xt @ term) / k
                total = total + term
            w = total
        return w

    return act


def norm_bound(x) -> float:
    """``sqrt(|x|_1 |x|_inf)``, an upper bound on the spectral norm
    ``|x|_2`` that costs two absolute sums instead of an SVD.  A sparse
    ``x`` is summed over its stored entries."""
    if sparse.issparse(x):
        ax = np.abs(x.data)
        rows = np.repeat(np.arange(x.shape[0]), np.diff(x.indptr))
        cols_sum = np.bincount(x.indices, ax, minlength=x.shape[1])
        rows_sum = np.bincount(rows, ax, minlength=x.shape[0])
    else:
        ax = np.abs(x)
        cols_sum, rows_sum = ax.sum(axis=0), ax.sum(axis=1)
    return float(np.sqrt(cols_sum.max() * rows_sum.max()))


def series_order(beta: float, level: float) -> int:
    """Highest order ``n`` of the ``dtau_inv`` series whose bound
    ``|B_n|/n! (2 beta)^n`` is at least ``level``.

    With ``beta >= |xi|_2`` and ``|ad_xi| <= 2 |xi|``, the order-``n`` term
    is at most that bound times ``|eta|``, so terms past the returned order
    stay below ``level`` relative to ``eta``.  Order 0 always counts.
    """
    order, power = 0, 1.0
    for n, coeff in enumerate(_COEFF):
        if coeff * power >= level:
            order = n
        power *= 2.0 * beta  # overflows to inf rather than raising
    return order


def _series_guard(xi) -> None:
    # The bound decides only well clear of 1, so rounding in it or in the
    # SVD cannot make its decision differ from the SVD's.
    bound = norm_bound(xi)
    if bound < 1.0 - 1e-12:
        return
    if not math.isfinite(bound):  # the SVD would not converge
        raise GroupMapError("tangent-map series argument is not finite; reduce the time step")
    norm = float(np.linalg.norm(_dense(xi), 2))
    if norm >= 1.0:
        raise GroupMapError(
            f"tangent-map series needs |xi| < 1, got {norm:.3e}; "
            "reduce the time step"
        )


def dtau(xi, delta: np.ndarray, kind: str = "exponential") -> np.ndarray:
    """Left-trivialized tangent of ``tau`` at ``xi`` applied to ``delta``:
    ``tau(xi)^-1 d/dt tau(xi + t delta)``."""
    _check_kind(kind)
    xi = _operand(xi)
    delta = np.asarray(delta, dtype=float)
    if kind == "cayley":
        p, q = _cayley_factors(xi)
        # Q^-1 delta P^-1, computed as solve(Q, delta) then right-divide by P
        return np.linalg.solve(q, np.linalg.solve(p.T, delta.T).T)
    _series_guard(xi)
    scale = float(np.max(np.abs(delta))) or 1.0
    term = delta.copy()
    total = term.copy()
    for n in range(1, _SERIES_CAP + 1):
        term = commutator(term, xi) / (n + 1.0)  # ad_{-xi}
        total += term
        if float(np.max(np.abs(term))) <= 1e-14 * scale:
            break
    return total


def dtau_inv(xi, eta: np.ndarray, kind: str = "exponential") -> np.ndarray:
    """Inverse trivialized tangent; for the exponential the Bernoulli series
    ``eta + [xi, eta]/2 + [xi, [xi, eta]]/12 - ...``."""
    _check_kind(kind)
    xi = _operand(xi)
    eta = np.asarray(eta, dtype=float)
    if kind == "cayley":
        p, q = _cayley_factors(xi)
        return q @ eta @ p
    _series_guard(xi)
    scale = float(np.max(np.abs(eta))) or 1.0
    term = eta.copy()
    total = term.copy()
    factorial = 1.0
    for n in range(1, _SERIES_CAP + 1):
        term = commutator(term, xi)  # ad_{-xi}
        factorial *= n
        coeff = _BERNOULLI[n] / factorial
        if coeff != 0.0:
            total += coeff * term
        if float(np.max(np.abs(term))) / factorial <= 1e-14 * scale:
            break
    return total


def dtau_inv_star(
    omega: np.ndarray, xi, lmat: np.ndarray, kind: str = "exponential", *, divide: bool = True
) -> np.ndarray:
    """Adjoint of ``dtau_inv`` in the area-weighted pairing
    ``<L, B> = Tr(L^T Omega B)``: equals ``Omega^-1 dtau_inv(xi^T, Omega L)``
    (the pairing turns each ``ad_{-xi}`` into ``Omega^-1 ad_{-xi^T} Omega``).
    With ``divide=False`` it returns ``dtau_inv(xi^T, Omega L)``, leaving the
    row division by ``Omega`` to a caller that needs only some entries.
    """
    wl = omega[:, None] * np.asarray(lmat, dtype=float)
    out = dtau_inv(_operand(xi).T, wl, kind)
    return out / omega[:, None] if divide else out
