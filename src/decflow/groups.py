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

Every function except :func:`tau` takes ``xi`` as a SciPy CSR array, such
as the CSR form of a velocity matrix from
:class:`decflow.mesh.AdjacencyCSR`, whose ``.T`` is kept ready.  Each series
term ``T xi - xi T`` is two sparse-times-dense products, ``xi T`` and
``(xi^T T^T)^T``, and the exponential's action applies ``xi^T`` from the
stored entries.  :func:`tau` is the dense reference element; the Cayley
branches and the guard's SVD densify ``xi`` with ``xi.toarray()``.

A series term runs the kernel that SciPy's ``x @ dense`` runs
(``_sparsetools.<format>_matvecs``, chosen by ``x.format`` as SciPy does)
straight into ``(N, N)`` arrays the caller owns: a :class:`SeriesWork`
passed as ``work=`` to :func:`commutator`, :func:`dtau_inv` and
:func:`dtau_inv_star`.  The order of operations is SciPy's, so the numbers
are those of the ``@`` expressions.  A result backed by work arrays is one
of them and is valid until the next call that uses them, as a loaded
:class:`decflow.mesh.AdjacencyCSR` is valid until the next load.  Without
``work`` each call makes its own arrays and returns a fresh result.

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
from scipy.sparse import _sparsetools

__all__ = [
    "tau",
    "tau_action",
    "dtau",
    "dtau_inv",
    "dtau_inv_star",
    "commutator",
    "SeriesWork",
    "norm_bound",
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


class GroupMapError(ValueError):
    """Raised for unknown kinds, singular Cayley denominators, or arguments
    too large for the tangent series to converge."""


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise GroupMapError(f"unknown group map kind {kind!r}; use one of {KINDS}")


class SeriesWork:
    """The ``(N, N)`` work arrays of the tangent series: the operand, the
    current and the next term, the running total, a scratch array and the
    transposed operand of a commutator.  A caller that evaluates many series
    on one mesh keeps one and passes it as ``work=``.  ``terms`` counts the
    ``ad`` terms that :func:`dtau_inv` has computed in it.  The integrator's
    full series run here; its first-order residuals and its old side's
    bracket read four entries per flux and leave these arrays alone."""

    def __init__(self, n: int):
        self.operand, self.term, self.next, self.total, self.scratch, self.transposed = (
            np.empty((n, n)) for _ in range(6)
        )
        self.terms = 0


def _product(x, dense: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``x @ dense`` for a CSR or CSC ``x`` and a C-contiguous ``dense``,
    written into ``out`` by the kernel SciPy's ``@`` runs for them.  The
    kernel trusts the sizes it is given, so they are checked here."""
    if dense.shape[0] != x.shape[1] or out.shape != (x.shape[0], dense.shape[1]):
        raise ValueError(f"cannot multiply {x.shape} by {dense.shape} into {out.shape}")
    if not (dense.flags.c_contiguous and out.flags.c_contiguous):
        raise ValueError("the dense operand and the result must be C-contiguous")
    out.fill(0.0)
    kernel = getattr(_sparsetools, x.format + "_matvecs")
    kernel(*x.shape, dense.shape[1], x.indptr, x.indices, x.data, dense.ravel(), out.ravel())
    return out


def commutator(a: np.ndarray, b, *, work: SeriesWork | None = None, out=None) -> np.ndarray:
    """``[a, b] = a b - b a`` for a sparse ``b``, which multiplies from the
    right as ``a b = (b^T a^T)^T``: two sparse-times-dense products, run
    by SciPy's kernel into the transposed and scratch arrays of ``work``
    and into ``out`` (which must not be ``a``).  Returns ``out``; without
    ``work`` or ``out``, fresh arrays take their place."""
    a = np.ascontiguousarray(a, dtype=float)
    if work is None:
        work = SeriesWork(len(a))
    if out is None:
        out = np.empty(a.shape)
    elif np.may_share_memory(out, a):
        raise ValueError("the commutator cannot overwrite its dense operand")
    np.copyto(work.transposed, a.T)
    right = _product(b.T, work.transposed, work.scratch)
    return np.subtract(right.T, _product(b, a, out), out=out)


def _max_abs(x: np.ndarray, scratch: np.ndarray) -> float:
    return float(np.max(np.abs(x, out=scratch)))


def _rows(x) -> np.ndarray:
    """The row of every stored entry of a CSR ``x``."""
    return np.repeat(np.arange(x.shape[0]), np.diff(x.indptr))


def _cayley_factors(xi: np.ndarray):
    n = xi.shape[0]
    eye = np.eye(n)
    p = eye - 0.5 * xi
    q = eye + 0.5 * xi
    if abs(np.linalg.det(p)) < 1e-300:
        raise GroupMapError("cayley map is singular: 2 is an eigenvalue of xi")
    return p, q


def tau(xi: np.ndarray, kind: str = "exponential") -> np.ndarray:
    """Group difference map: matrix exponential or Cayley transform, of a
    dense ``xi``."""
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


def tau_action(xi, kind: str = "exponential"):
    """The map ``w -> tau(xi)^T w`` of a CSR ``xi``, for applying one group
    element to several vectors without forming it.

    For the exponential, ``exp(xi^T) w = (exp(xi^T / s))^s w`` with
    ``s = max(1, ceil(|xi|_1))``, and each factor is the Taylor series
    ``sum_k (xi^T / s)^k w / k!`` cut after the order ``K`` whose tail bound,
    from ``|xi^T|_inf = |xi|_1``, is at most ``2^-53 |w|_inf``.  ``s`` and
    ``K`` are fixed per action, so every application costs ``s K`` products
    of ``xi^T`` with a vector, each a gather and an ``np.bincount`` over the
    stored entries.  The action keeps copies of those entries, not ``xi``,
    so a later :meth:`decflow.mesh.AdjacencyCSR.load` leaves it unchanged.
    The Cayley element is formed once, from ``xi.toarray()``.
    """
    _check_kind(kind)
    if kind == "cayley":
        qt = tau(xi.toarray(), kind).T
        return lambda w: qt @ w
    n, rows, cols = xi.shape[0], _rows(xi), xi.indices.copy()
    norm = float(np.bincount(cols, np.abs(xi.data), minlength=n).max())
    if not math.isfinite(norm):
        raise GroupMapError("group map argument is not finite")
    steps = max(1, math.ceil(norm))
    vals = xi.data / steps
    terms = _taylor_terms(norm / steps)

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


def norm_bound(x) -> float:
    """``sqrt(|x|_1 |x|_inf)``, an upper bound on the spectral norm
    ``|x|_2`` that costs two absolute sums over the stored entries of a
    CSR ``x`` instead of an SVD.  It is ``inf`` once the product of the two
    norms overflows."""
    ax = np.abs(x.data)
    cols_sum = np.bincount(x.indices, ax, minlength=x.shape[1])
    rows_sum = np.bincount(_rows(x), ax, minlength=x.shape[0])
    with np.errstate(over="ignore"):
        return float(np.sqrt(cols_sum.max() * rows_sum.max()))


def _series_guard(xi) -> None:
    # The bound decides only well clear of 1, so rounding in it or in the
    # SVD cannot make its decision differ from the SVD's.
    bound = norm_bound(xi)
    if bound < 1.0 - 1e-12:
        return
    if not math.isfinite(bound):  # the SVD would not converge
        raise GroupMapError("tangent-map series argument is not finite; reduce the time step")
    norm = float(np.linalg.norm(xi.toarray(), 2))
    if norm >= 1.0:
        raise GroupMapError(
            f"tangent-map series needs |xi| < 1, got {norm:.3e}; "
            "reduce the time step"
        )


def dtau(xi, delta: np.ndarray, kind: str = "exponential") -> np.ndarray:
    """Left-trivialized tangent of ``tau`` at ``xi`` applied to ``delta``:
    ``tau(xi)^-1 d/dt tau(xi + t delta)``."""
    _check_kind(kind)
    delta = np.asarray(delta, dtype=float)
    if kind == "cayley":
        p, q = _cayley_factors(xi.toarray())
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


def dtau_inv(
    xi, eta: np.ndarray, kind: str = "exponential", *, work: SeriesWork | None = None
) -> np.ndarray:
    """Inverse trivialized tangent; for the exponential the Bernoulli series
    ``eta + [xi, eta]/2 + [xi, [xi, eta]]/12 - ...``.

    The exponential's terms alternate between the term arrays of ``work``
    and the result is its total, valid until the next call with ``work``;
    ``eta`` may be its operand.  Without ``work`` the call makes its own.
    The Cayley branch ignores ``work``.
    """
    _check_kind(kind)
    eta = np.asarray(eta, dtype=float)
    if kind == "cayley":
        p, q = _cayley_factors(xi.toarray())
        return q @ eta @ p
    _series_guard(xi)
    if work is None:
        work = SeriesWork(len(eta))
    scale = _max_abs(eta, work.scratch) or 1.0
    term, total = eta, work.total
    np.copyto(total, eta)
    factorial = 1.0
    for n in range(1, _SERIES_CAP + 1):
        nxt = work.next if term is work.term else work.term
        term = commutator(term, xi, work=work, out=nxt)  # ad_{-xi}
        work.terms += 1
        factorial *= n
        coeff = _BERNOULLI[n] / factorial
        if coeff != 0.0:
            total += np.multiply(coeff, term, out=work.scratch)
        if _max_abs(term, work.scratch) / factorial <= 1e-14 * scale:
            break
    return total


def dtau_inv_star(
    omega: np.ndarray,
    xi,
    lmat: np.ndarray,
    kind: str = "exponential",
    *,
    divide: bool = True,
    work: SeriesWork | None = None,
) -> np.ndarray:
    """Adjoint of ``dtau_inv`` in the area-weighted pairing
    ``<L, B> = Tr(L^T Omega B)``: equals ``Omega^-1 dtau_inv(xi^T, Omega L)``
    (the pairing turns each ``ad_{-xi}`` into ``Omega^-1 ad_{-xi^T} Omega``).
    With ``divide=False`` it returns ``dtau_inv(xi^T, Omega L)``, leaving the
    row division by ``Omega`` to a caller that needs only some entries.
    ``Omega L`` goes to the operand of ``work``, which ``lmat`` may be, and
    the series runs in ``work`` (see :func:`dtau_inv`).
    """
    out = None if work is None else work.operand
    wl = np.multiply(omega[:, None], np.asarray(lmat, dtype=float), out=out)
    star = dtau_inv(xi.T, wl, kind, work=work)
    if divide:
        star /= omega[:, None]
    return star
