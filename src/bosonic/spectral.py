"""Spectral and entropic functionals of Gaussian states.

All entropies are in bits (base-2 logarithms).  The workhorse is the
Williamson normal form ``V = S diag(d_1, d_1, ..., d_n, d_n) S^T`` with
``S`` symplectic and symplectic eigenvalues ``d_i >= 1``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .states import (
    GaussianState,
    _embedding_indices,
    check_photons,
    check_transmissivity,
    reduce_state,
    symplectic_form,
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


def _symmetrize(mat: np.ndarray) -> np.ndarray:
    return (mat + mat.T) / 2.0


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
    ``S = W Q D^(-1/2)``.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.shape[0] % 2 != 0:
        raise ValueError(f"covariance must be 2n x 2n, got {cov.shape}")
    n = cov.shape[0] // 2
    evals, evecs = np.linalg.eigh(_symmetrize(cov))
    if evals[0] <= 0.0:
        raise ValueError(f"covariance not positive definite (min eigenvalue {evals[0]:.3e})")
    w = evecs @ np.diag(np.sqrt(evals)) @ evecs.T
    omega = symplectic_form(n)
    skew = w @ omega @ w
    skew = (skew - skew.T) / 2.0
    lam, vecs = np.linalg.eigh(1j * skew)
    d = -lam[:n]
    q = np.empty((2 * n, 2 * n))
    q[:, 0::2] = np.sqrt(2.0) * vecs[:, :n].real
    q[:, 1::2] = np.sqrt(2.0) * vecs[:, :n].imag

    scale = np.repeat(1.0 / np.sqrt(d), 2)
    s = w @ q @ np.diag(scale)
    return s, d


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
    d = symplectic_eigenvalues(state.cov)
    return float(sum(h_function(max(di - 1.0, 0.0) / 2.0) for di in d))


def coherent_information(state: GaussianState, a_modes: Sequence[int]) -> float:
    """Coherent information ``I_c(A>B) = S(B) - S(AB)`` of a bipartite state.

    ``a_modes`` selects subsystem A; B is the complement.
    """
    a = sorted(a_modes)
    b = [m for m in range(state.modes) if m not in a]
    if not a or not b:
        raise ValueError("cut must leave both sides non-empty")
    return von_neumann_entropy(reduce_state(state, b)) - von_neumann_entropy(state)


# ---------------------------------------------------------------------------
# square-root state and the conditional Petz-Renyi-1/2 entropy


def v_sqrt(cov: np.ndarray) -> np.ndarray:
    """Covariance matrix of ``sqrt(rho)/tr(sqrt(rho))`` for a Gaussian ``rho``.

    Equal to ``[I + sqrt(I - (i V Omega)^-2)] V``; evaluated through the
    Williamson form by mapping each symplectic eigenvalue ``d`` to
    ``d + sqrt(d^2 - 1)``.  Pure directions (``d = 1``) stay fixed.
    """
    s, d = williamson(cov)
    d = np.where(np.abs(d - 1.0) <= _PURE_SNAP, 1.0, d)
    mapped = d + np.sqrt(np.maximum(d * d - 1.0, 0.0))
    diag = np.repeat(mapped, 2)
    return _symmetrize(s @ np.diag(diag) @ s.T)


def petz_conditional_entropy_half(state: GaussianState, a_modes: Sequence[int]) -> float:
    """Conditional Petz-Renyi entropy of order 1/2, ``H_{1/2}(A|B)``, in bits.

    Args:
        state: bipartite Gaussian state on A union B.
        a_modes: mode indices of subsystem A; B is the complement.

    Returns:
        ``log2( sqrt(det W_AB * det W_B) / det((W_AB|_B + W_B)/2) )`` where
        ``W = v_sqrt(V)`` and ``|_B`` restricts to the B quadratures.  First
        moments drop out.
    """
    a = sorted(set(a_modes))
    b = [m for m in range(state.modes) if m not in a]
    if not a or not b:
        raise ValueError("cut must leave both sides non-empty")
    w_ab = v_sqrt(state.cov)
    w_b = v_sqrt(reduce_state(state, b).cov)
    bc = _embedding_indices(b, state.modes)
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
    ``N (N+1) log2(1 + 1/N)^2``; zero in the vacuum limit.
    """
    photons = check_photons(photons)
    if photons == 0.0:
        return 0.0
    return float(photons * (photons + 1.0) * np.log2(1.0 + 1.0 / photons) ** 2)


def _log_ratio(x: float) -> float:
    """log2(x / (1 + x)), the per-photon log-likelihood slope of a thermal state."""
    return float(np.log2(x) - np.log2(1.0 + x))


def entropy_variance_pure_loss(
    transmissivity: float, photons: float, cut: str = "A|E"
) -> float:
    """Conditional entropy variance of the pure-loss tripartite state, in bits^2.

    Args:
        transmissivity: beam-splitter transmissivity in [0, 1].
        photons: mean photon number of the TMSV input.
        cut: "A|E" (= "A|B") or "B|E" (= "B|A"); the two coincide for a
            tripartite purification.

    Returns:
        V(A|E) or V(B|E).  Boundary values are the analytic limits of the
        closed form: at ``transmissivity = 0`` V(A|E) is the thermal variance
        of the input and V(B|E) = 0; at ``transmissivity = 1`` the roles swap.
    """
    lam = check_transmissivity(transmissivity)
    ns = check_photons(photons)
    cut = cut.upper()
    if cut in ("A|E", "A|B"):
        direct = True
    elif cut in ("B|E", "B|A"):
        direct = False
    else:
        raise ValueError(f"cut must be one of A|E, A|B, B|E, B|A; got {cut!r}")
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
    return t1 + t2 - cross
