"""Fock-basis representation of Gaussian states.

The basis keeps every n-mode occupation with total photon number at most M
(dimension binom(M+n, n)), ordered by total then lexicographically with the
first mode weighted highest.

Matrix elements come from the Bargmann kernel of the density operator,

    <alpha| rho |beta> e^{(|alpha|^2+|beta|^2)/2}
        = C exp( z^T F z / 2 + u^T z ),     z = (conj(alpha), beta),

whose data follow from the Husimi function: with G = (V + I)^-1 and
y = sqrt(2) (Re beta_i, Im beta_i) per mode, the diagonal kernel is
C exp(|beta|^2 - (y - m)^T G (y - m)).  Continuing conj(beta) -> conj(alpha)
and writing sqrt(2) y = r z, with r the matrix of entries 1 and +-i, gives

    quad = r^T G r,    F = X - quad,    u = quad (conj(mu), mu),

where X exchanges conj(alpha) and beta and mu = (m_x + i m_p) / sqrt(2).
Taylor coefficients of the kernel obey a three-term recurrence over the
combined bra/ket multi-index; running it on sqrt(k! l!)-scaled coefficients
yields <k|rho|l> directly and keeps every intermediate bounded by 1.  A
block's trace is 1 - P(N > M); one above 1 + ``TRACE_TOL`` raises
``FockTraceError``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .states import GaussianState, require_valid

__all__ = [
    "DimensionCapError",
    "FockMatrix",
    "FockTraceError",
    "basis_dimension",
    "beam_splitter_fock_coeffs",
    "enumerate_basis",
    "fock_from_dict",
    "fock_matrix_elements",
    "fock_to_dict",
    "truncate_normalize",
]

DEFAULT_DIM_CAP = 20000
#: environment override for the basis-dimension cap
CAP_ENV_VAR = "BOSONIC_FOCK_CAP"

#: slack on the block-trace invariant 1 - tail - TRACE_TOL <= trace <= 1 + TRACE_TOL
TRACE_TOL = 1e-6


class DimensionCapError(RuntimeError):
    """Truncated basis would exceed the configured dimension cap."""


class FockTraceError(RuntimeError):
    """A Fock block's trace leaves [1 - tail bound, 1] by more than ``TRACE_TOL``."""


def basis_dimension(modes: int, cutoff: int) -> int:
    """Number of n-mode occupations with total photon number <= cutoff."""
    return math.comb(cutoff + modes, modes)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def enumerate_basis(modes: int, cutoff: int) -> list[tuple[int, ...]]:
    """Graded ordering of occupations: by total photons, then first mode high."""
    if modes < 1:
        raise ValueError(f"need at least one mode, got {modes}")
    if cutoff < 0:
        raise ValueError(f"cutoff must be >= 0, got {cutoff}")
    return [occ for total in range(cutoff + 1) for occ in _compositions(total, modes)]


@dataclass(frozen=True)
class FockMatrix:
    """Density-matrix block on the truncated basis, plus its trace deficit."""

    matrix: np.ndarray
    modes: int
    cutoff: int

    def __post_init__(self):
        dim = basis_dimension(self.modes, self.cutoff)
        if np.shape(self.matrix) != (dim, dim):
            raise ValueError(
                f"matrix of shape {np.shape(self.matrix)} does not fit the "
                f"{dim} x {dim} basis of {self.modes} modes at cutoff {self.cutoff}"
            )

    @property
    def basis(self) -> list[tuple[int, ...]]:
        return enumerate_basis(self.modes, self.cutoff)

    @property
    def totals(self) -> np.ndarray:
        """Total photon number of each basis index: the sector view.

        Photon-number sector k is the contiguous index range
        [C(k-1+n, n), C(k+n, n)) of the graded basis, and the parity sectors
        are the even and the odd totals; both follow from (modes, cutoff)
        alone, without enumerating the basis.
        """
        sizes = [math.comb(k + self.modes - 1, k) for k in range(self.cutoff + 1)]
        return np.repeat(np.arange(self.cutoff + 1), sizes)

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)


def _check_dimension(modes: int, cutoff: int) -> int:
    env = os.environ.get(CAP_ENV_VAR)
    if env and not (env.isdecimal() and int(env) >= 1):
        raise ValueError(f"{CAP_ENV_VAR} must be a positive integer, got {env!r}")
    limit = int(env) if env else DEFAULT_DIM_CAP
    dim = basis_dimension(modes, cutoff)
    if dim > limit:
        raise DimensionCapError(
            f"cutoff {cutoff} on {modes} modes needs a {dim}-dimensional basis "
            f"(cap {limit}); certified truncations grow like "
            "(2^6 (n+1) E log(2/eps))^(3n) in the worst case, so lower eps or "
            f"the energy, or raise {CAP_ENV_VAR}"
        )
    return dim


def _kernel_data(state: GaussianState) -> tuple[complex, np.ndarray, np.ndarray]:
    """(C, F, u) of the Bargmann kernel for ``state``."""
    n = state.modes
    m = state.mean
    g = np.linalg.inv(state.cov + np.eye(2 * n))

    # sqrt(2) y = r z: x_i -> conj(alpha_i) + beta_i, p_i -> i conj(alpha_i) - i beta_i
    eye = np.eye(n)
    r = np.hstack([np.kron(eye, [[1.0], [1j]]), np.kron(eye, [[1.0], [-1j]])])
    quad = r.T @ g @ r
    exchange = np.kron([[0.0, 1.0], [1.0, 0.0]], eye)
    mu = (m[0::2] + 1j * m[1::2]) / math.sqrt(2.0)
    f_mat = exchange - quad
    u_vec = quad @ np.concatenate([np.conj(mu), mu])

    det = np.linalg.det((state.cov + np.eye(2 * n)) / 2.0)
    if not (det > 0.0 and math.isfinite(det)):
        sign, logdet = np.linalg.slogdet((state.cov + np.eye(2 * n)) / 2.0)
        if sign <= 0:
            raise ValueError("covariance plus identity must be positive definite")
        norm = math.exp(-0.5 * logdet)
    else:
        norm = 1.0 / math.sqrt(det)
    c0 = norm * math.exp(-float(m @ g @ m))
    return c0, f_mat, u_vec


def fock_matrix_elements(state: GaussianState, cutoff: int) -> FockMatrix:
    """Exact Fock matrix elements <k|rho|l> for all totals up to ``cutoff``.

    Args:
        state: the Gaussian state.
        cutoff: maximum total photon number retained.

    Returns:
        ``FockMatrix`` whose trace equals one minus the photon-number tail.

    Raises:
        DimensionCapError: basis dimension exceeds ``BOSONIC_FOCK_CAP`` or 20000.
        ValueError: ``BOSONIC_FOCK_CAP`` is set but not a positive integer.
        FockTraceError: the block's trace exceeds 1 + ``TRACE_TOL``, which
            no truncation of a density operator can.
    """
    dim = _check_dimension(state.modes, cutoff)
    require_valid(state)
    n = state.modes
    basis = enumerate_basis(n, cutoff)
    index = {occ: b for b, occ in enumerate(basis)}

    c0, f_mat, u_vec = _kernel_data(state)

    # per mode i and basis index b: the index of occ_b - e_i and sqrt(occ_b[i]),
    # both 0 where mode i is empty; first[b] is the first occupied mode of occ_b
    lower = np.array([[index.get(occ[:i] + (occ[i] - 1,) + occ[i + 1:], 0) for occ in basis]
                      for i in range(n)])
    sqrt_cnt = np.sqrt(np.array(basis, dtype=float).T)
    first = np.argmax(sqrt_cnt > 0.0, axis=0)

    out = np.zeros((dim, dim), dtype=complex)
    out[0, 0] = c0

    # bra side empty: recurse along the ket index only
    for b in range(1, dim):
        j = first[b]
        prev = lower[j, b]
        val = u_vec[n + j] * out[0, prev]
        for i in range(n):
            if sqrt_cnt[i, prev]:
                val += f_mat[n + j, n + i] * sqrt_cnt[i, prev] * out[0, lower[i, prev]]
        out[0, b] = val / sqrt_cnt[j, b]

    # remaining rows, vectorized across the ket index
    for a in range(1, dim):
        j = first[a]
        prev = lower[j, a]
        row = u_vec[j] * out[prev]
        for i in range(n):
            if sqrt_cnt[i, prev]:
                row = row + f_mat[j, i] * sqrt_cnt[i, prev] * out[lower[i, prev]]
            row = row + f_mat[j, n + i] * (sqrt_cnt[i] * out[prev, lower[i]])
        out[a] = row / sqrt_cnt[j, a]

    out += out.conj().T
    out /= 2.0
    result = FockMatrix(matrix=out, modes=n, cutoff=cutoff)
    if result.trace > 1.0 + TRACE_TOL:
        raise FockTraceError(
            f"Fock block trace {result.trace!r} exceeds 1 by more than {TRACE_TOL}; "
            "the block is not a truncation of a density operator"
        )
    return result


def truncate_normalize(fock: FockMatrix) -> FockMatrix:
    """Rescale the truncated block to unit trace."""
    tr = fock.trace
    if tr <= 0.0:
        raise ValueError(f"cannot normalize trace {tr}")
    return FockMatrix(matrix=fock.matrix / tr, modes=fock.modes, cutoff=fock.cutoff)


def beam_splitter_fock_coeffs(i: int, j: int, transmissivity: float) -> np.ndarray:
    """Fock coefficients of a beam splitter acting on |i, j>.

    Entry m is the amplitude of |i+j-m, m> in U |i, j>, for m = 0 .. i+j:

        c_m = sum_k (-1)^k sqrt(m! (i+j-m)! / (i! j!)) C(i,k) C(j,m-k)
              * lam^((i+m-2k)/2) * (1-lam)^((j+2k-m)/2)

    The coefficient vector has unit norm.
    """
    if i < 0 or j < 0:
        raise ValueError(f"occupations must be >= 0, got ({i}, {j})")
    lam = float(transmissivity)
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"transmissivity must lie in [0, 1], got {lam}")
    mu = 1.0 - lam
    out = np.zeros(i + j + 1)
    for m in range(i + j + 1):
        scale = math.sqrt(
            math.factorial(m) * math.factorial(i + j - m)
            / (math.factorial(i) * math.factorial(j))
        )
        acc = 0.0
        for k in range(max(0, m - j), min(i, m) + 1):
            acc += (
                (-1.0) ** k
                * math.comb(i, k)
                * math.comb(j, m - k)
                * lam ** ((i + m - 2 * k) / 2.0)
                * mu ** ((j + 2 * k - m) / 2.0)
            )
        out[m] = scale * acc
    return out


# ---------------------------------------------------------------------------
# JSON export


def fock_to_dict(fock: FockMatrix) -> dict:
    """Serialize to {"modes", "cutoff", "entries"}; entries are row-major
    [re, im] pairs."""
    flat = fock.matrix.reshape(-1)
    return {
        "modes": fock.modes,
        "cutoff": fock.cutoff,
        "entries": [[float(z.real), float(z.imag)] for z in flat],
    }


def fock_from_dict(payload: dict) -> FockMatrix:
    """Inverse of :func:`fock_to_dict`."""
    try:
        modes = int(payload["modes"])
        cutoff = int(payload["cutoff"])
        entries = payload["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed fock payload: {exc}") from exc
    dim = basis_dimension(modes, cutoff)
    if len(entries) != dim * dim:
        raise ValueError(f"expected {dim * dim} entries, got {len(entries)}")
    flat = np.array([complex(re, im) for re, im in entries])
    return FockMatrix(matrix=flat.reshape(dim, dim), modes=modes, cutoff=cutoff)
