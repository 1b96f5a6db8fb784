"""Spectral and entropic functionals of Gaussian states.

All entropies are in bits (base-2 logarithms).  The workhorse is the
Williamson normal form ``V = S diag(d_1, d_1, ..., d_n, d_n) S^T`` with
``S`` symplectic and symplectic eigenvalues ``d_i >= 1``.

A bipartite functional takes subsystem A as a mode list, read by the one
rule of ``states`` for mode lists: distinct integers in [0, n), with no
float, however integral, and no bool.  B is the complement in ascending
order, and a cut that leaves either side empty is refused.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .states import (
    GaussianState,
    PureLoss,
    _check_scale,
    _embedding_indices,
    check_photons,
    check_transmissivity,
    reduce_state,
)

__all__ = [
    "coherent_information",
    "entropy_variance_pure_loss",
    "gaussian_overlap",
    "h_function",
    "petz_conditional_entropy_half",
    "symplectic_eigenvalues",
    "thermal_entropy_variance",
    "v_sqrt",
    "von_neumann_entropy",
    "williamson",
]

# symplectic eigenvalues within this distance of 1 are treated as exactly
# pure directions; keeps sqrt(d^2 - 1) from amplifying eigensolver noise
_PURE_SNAP = 1e-10


def williamson(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Williamson normal form of a positive definite covariance matrix.

    Parameters
    ----------
    cov : (2n, 2n) array
        Symmetric positive definite matrix.

    Returns
    -------
    S : (2n, 2n) array
        Symplectic matrix.
    d : (n,) array
        Symplectic eigenvalues in descending order, satisfying
        ``S @ diag(d_1, d_1, ...) @ S.T == cov``.

    Raises
    ------
    InvalidStateError
        If ``cov`` fails ``GaussianState``'s rule on a covariance: an entry
        that is not finite or exceeds ``MAX_ENTRY``, or an asymmetry above
        rounding.  The form is that of the symmetric part the state stores.
    ValueError
        If ``cov`` is not 2n x 2n or not positive definite.

    Notes
    -----
    With ``W = cov^(1/2)`` the matrix ``K = W Omega W`` is real and
    antisymmetric, so ``i K`` is Hermitian with eigenvalues ``-d_1 <= ... <=
    -d_n < 0 < d_n <= ... <= d_1``.  One Hermitian eigensolve gives them in
    that order.  A unit eigenvector ``v`` of ``-d_j`` yields the orthonormal
    pair ``q_a = sqrt(2) Re v``, ``q_b = sqrt(2) Im v`` with ``K q_a = -d_j q_b``
    and ``K q_b = d_j q_a``; eigenvectors of a repeated ``d_j`` give mutually
    orthogonal pairs because ``v`` and its conjugate lie in opposite
    eigenspaces.  Then ``Q^T K Q`` has blocks ``[[0, d_j], [-d_j, 0]]`` and
    ``S = W Q D^(-1/2)``.  ``S`` and ``d`` are the read-only record of the
    state ``cov`` makes, which computes them once from V's eigendecomposition.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.shape[0] % 2 != 0:
        raise ValueError(f"covariance must be 2n x 2n, got {cov.shape}")
    return GaussianState(np.zeros(len(cov)), cov)._williamson


def symplectic_eigenvalues(cov: np.ndarray) -> np.ndarray:
    """Symplectic eigenvalues of ``cov`` in descending order.

    The ``d`` of ``williamson``: the negated negative eigenvalues of the
    Hermitian matrix ``i cov^(1/2) Omega cov^(1/2)``, each value once.

    Raises
    ------
    ValueError
        If ``cov`` is not 2n x 2n or not positive definite.
    """
    return williamson(cov)[1]


def h_function(x: float) -> float:
    """Bosonic entropy function ``(x+1) log2(x+1) - x log2(x)`` with h(0) = 0;
    ``ValueError`` for a negative or non-finite ``x``.  From x = 100 on, where
    the two terms cancel, it is evaluated as ``log2(x+1) + x log1p(1/x) / ln 2``,
    accurate to a few ulps up to the largest float."""
    if x < 0:
        raise ValueError(f"argument must be >= 0, got {x}")
    if not math.isfinite(x):
        raise ValueError(f"argument must be finite, got {x}")
    if x == 0.0:
        return 0.0
    if x < 100.0:  # the direct form keeps the digits pinned results rest on
        return float((x + 1.0) * np.log2(x + 1.0) - x * np.log2(x))
    return math.log2(x + 1.0) + x * math.log1p(1.0 / x) / math.log(2.0)


def von_neumann_entropy(state: GaussianState) -> float:
    """Entropy in bits, ``sum_i h((d_i - 1)/2)`` over symplectic eigenvalues."""
    return float(sum(h_function(max(di - 1.0, 0.0) / 2.0) for di in state._williamson[1]))


def coherent_information(state: GaussianState, a_modes: Sequence[int]) -> float:
    """Coherent information ``I_c(A>B) = S(B) - S(AB)`` of a bipartite state.

    ``a_modes`` selects subsystem A, a cut as the module docstring states;
    B is the complement.
    """
    return von_neumann_entropy(_cut(state, a_modes)[1]) - von_neumann_entropy(state)


def _cut(state: GaussianState, a_modes: Sequence[int],
         rho_b: GaussianState | None = None) -> tuple[np.ndarray, GaussianState]:
    """The cut of ``state`` into A, the mode list ``a_modes`` (read by
    ``states._embedding_indices``), and B, the other modes in ascending
    order: B's quadratures in ``state`` and rho_B, which is ``rho_b`` if the
    caller has reduced ``state`` to B already.  ``ValueError`` unless both
    sides are non-empty."""
    a = _embedding_indices(a_modes, state.modes)
    b = np.setdiff1d(np.arange(2 * state.modes), a)
    if not a.size or not b.size:
        raise ValueError("cut must leave both sides non-empty")
    return b, reduce_state(state, b[0::2] // 2) if rho_b is None else rho_b


# ---------------------------------------------------------------------------
# square-root state and the conditional Petz-Renyi-1/2 entropy


def v_sqrt(cov: np.ndarray) -> np.ndarray:
    """Covariance matrix of ``sqrt(rho)/tr(sqrt(rho))`` for a Gaussian ``rho``.

    Equal to ``[I + sqrt(I - (i V Omega)^-2)] V``; evaluated through the
    Williamson form by mapping each symplectic eigenvalue ``d`` to
    ``d + sqrt(d^2 - 1)``.  Pure directions (``d = 1``) stay fixed.
    """
    return _sqrt_cov(*williamson(cov))


def _sqrt_cov(s: np.ndarray, d: np.ndarray) -> np.ndarray:
    """``v_sqrt`` of the covariance whose Williamson form is (``s``, ``d``)."""
    d = np.where(np.abs(d - 1.0) <= _PURE_SNAP, 1.0, d)
    mapped = d + np.sqrt(np.maximum(d * d - 1.0, 0.0))
    w = s @ np.diag(np.repeat(mapped, 2)) @ s.T
    return (w + w.T) / 2.0


def petz_conditional_entropy_half(state: GaussianState, a_modes: Sequence[int]) -> float:
    """Conditional Petz-Renyi entropy of order 1/2, ``H_{1/2}(A|B)``, in bits.

    Args:
        state: bipartite Gaussian state on A union B.
        a_modes: mode indices of subsystem A, a cut as the module docstring
            states; B is the complement.

    Returns:
        ``log2( sqrt(det W_AB * det W_B) / det((W_AB|_B + W_B)/2) )`` where
        ``W = v_sqrt(V)`` and ``|_B`` restricts to the B quadratures.  First
        moments drop out.
    """
    return _petz_half(state, _cut(state, a_modes))


def _petz_half(state: GaussianState, cut: tuple[np.ndarray, GaussianState]) -> float:
    """``petz_conditional_entropy_half`` of ``state`` across ``cut``, a ``_cut`` of it."""
    bc, rho_b = cut
    w_ab = _sqrt_cov(*state._williamson)
    w_b = _sqrt_cov(*rho_b._williamson)
    w_ab_on_b = w_ab[np.ix_(bc, bc)]

    _, logdet_ab = np.linalg.slogdet(w_ab)
    _, logdet_b = np.linalg.slogdet(w_b)
    _, logdet_mix = np.linalg.slogdet((w_ab_on_b + w_b) / 2.0)
    return float((0.5 * (logdet_ab + logdet_b) - logdet_mix) / np.log(2.0))


def gaussian_overlap(state_a: GaussianState, state_b: GaussianState) -> float:
    """Overlap ``tr[rho_a rho_b]`` of two Gaussian states."""
    if state_a.modes != state_b.modes:
        raise ValueError("states must have the same number of modes")
    avg = (state_a.cov + state_b.cov) / 2.0
    delta = state_a.mean - state_b.mean
    sign, logdet = np.linalg.slogdet(avg)
    if sign <= 0:
        raise ValueError("covariance average has non-positive determinant")
    quad = delta @ np.linalg.solve(state_a.cov + state_b.cov, delta)
    return float(np.exp(-0.5 * logdet - quad))


# ---------------------------------------------------------------------------
# entropy variances


def thermal_entropy_variance(photons: float) -> float:
    """Photon-number variance of the log-likelihood of a thermal state, in bits^2:
    ``N (N+1) log2(1 + 1/N)^2``; zero in the vacuum limit.  The logarithm is
    ``log1p(1/N) / ln 2``, which keeps the digits 1 + 1/N drops at large N.
    """
    photons = check_photons(photons)
    if photons == 0.0:
        return 0.0
    log_inv = math.log1p(1.0 / photons) / math.log(2.0)
    return float(photons * (photons + 1.0) * log_inv ** 2)


def _log_ratio(x: float) -> float:
    """log2(x / (1 + x)), the per-photon log-likelihood slope of a thermal state.
    From x = 100 on, where log2(x) - log2(1 + x) cancels, it is
    ``-log1p(1/x) / ln 2``, accurate to a few ulps up to the largest float."""
    if x < 100.0:  # the direct form keeps the digits pinned results rest on
        return float(np.log2(x) - np.log2(1.0 + x))
    return -math.log1p(1.0 / x) / math.log(2.0)


# each cut of entropy_variance_pure_loss, spelled exactly, and whether it picks
# the direct line (A|E = A|B) or the reverse one (B|E = B|A)
_CUT_LINES = {"A|E": True, "A|B": True, "B|E": False, "B|A": False}


def entropy_variance_pure_loss(
    transmissivity: float, photons: float, cut: str = "A|E"
) -> float:
    """Conditional entropy variance of the pure-loss tripartite state, in bits^2.

    Args:
        transmissivity: beam-splitter transmissivity in [0, 1].
        photons: mean photon number of the TMSV input.
        cut: "A|E" (= "A|B") or "B|E" (= "B|A"), spelled exactly; the two
            coincide for a tripartite purification.

    Returns:
        V(A|E) or V(B|E).  Boundary values are the analytic limits of the
        closed form: at ``transmissivity = 0`` V(A|E) is the thermal variance
        of the input and V(B|E) = 0; at ``transmissivity = 1`` the roles swap.

    Raises:
        ValueError: for any other cut, and above 1e100 input photons, where
            the closed form overflows.
    """
    lam = check_transmissivity(transmissivity)
    ns = check_photons(photons)
    _check_scale("entropy_variance_pure_loss", PureLoss(lam), ns)
    direct = _CUT_LINES.get(cut) if isinstance(cut, str) else None
    if direct is None:
        raise ValueError(f"cut must be one of {', '.join(_CUT_LINES)}; got {cut!r}")
    if ns == 0.0:
        return 0.0

    # var-type terms y(1+y)L(y)^2 vanish as y -> 0, so guard each factor
    def var_term(y: float) -> float:
        if y <= 0.0:
            return 0.0
        return y * (1.0 + y) * _log_ratio(y) ** 2

    def slope(y: float) -> float:
        # y * L(y) -> 0 as y -> 0
        if y <= 0.0:
            return 0.0
        return _log_ratio(y)

    mu = 1.0 - lam
    if ns >= 100.0 and 0.0 < lam < 1.0:
        return _variance_without_cancellation(lam, mu, ns, direct)
    if direct:
        # V(A|E) = V(A|B)
        t1 = var_term(lam * ns)
        t2 = var_term(mu * ns)
        cross = 0.0
        if lam > 0.0 and mu > 0.0:
            cross = 2.0 * mu * lam * ns * ns * slope(mu * ns) * slope(lam * ns)
        return t1 + t2 - cross
    # V(B|E) = V(B|A)
    t1 = var_term(ns)
    t2 = var_term(mu * ns)
    cross = 0.0
    if mu > 0.0:
        cross = 2.0 * mu * ns * (1.0 + ns) * slope(mu * ns) * slope(ns)
    # at mu = 1 (lambda = 0, or below half an ulp of it) the three terms cancel
    # to the analytic 0 up to rounding, which may leave it a few ulps negative
    return max(t1 + t2 - cross, 0.0)


def _variance_without_cancellation(lam: float, mu: float, ns: float, direct: bool) -> float:
    """``entropy_variance_pure_loss`` for 0 < lambda < 1, where its three
    terms cancel at large Ns.  They are x1^2 + x2^2 - 2 r x1 x2 with
    x(y) = sqrt(y (1 + y)) log2(y / (1 + y)), so V = (x1 - x2)^2 + 2 (1 - r) x1 x2,
    and 1 - r = (1 - r^2) / (1 + r) with 1 - r^2 in closed form.  From
    y = 1e6 on, x(y) = -(1 - 1/(24 y^2) + ...) / ln 2: (x1 - x2)^2 is then
    below 1e-20 V, while its rounding is not, so it is dropped there."""
    if direct:
        y1, den = lam * ns, (1.0 + lam * ns) * (1.0 + mu * ns)
        r2, one_minus_r2 = lam * mu * ns * ns / den, (1.0 + ns) / den
    else:
        y1, den = ns, 1.0 + mu * ns
        r2, one_minus_r2 = mu * (1.0 + ns) / den, lam / den
    y2 = mu * ns
    x1, x2 = (math.sqrt(y * (1.0 + y)) * _log_ratio(y) for y in (y1, y2))
    spread = (x1 - x2) ** 2 if min(y1, y2) < 1e6 else 0.0
    return spread + 2.0 * one_minus_r2 / (1.0 + math.sqrt(r2)) * x1 * x2
